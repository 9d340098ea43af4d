//! XDR encoder.

use crate::{padded, Bytes};

/// Appends XDR-encoded items to a growable byte buffer.
///
/// All integers are big-endian; opaque data and strings are padded with
/// zero bytes to a four-byte boundary (RFC 4506 §3–§4.11).
#[derive(Default, Debug)]
pub struct Encoder {
    buf: Vec<u8>,
    /// Leading bytes of `buf` that are not output: room a later
    /// [`Bytes::prepend`] fills without moving what was encoded.
    headroom: usize,
}

impl Encoder {
    /// Create an empty encoder.
    pub fn new() -> Self {
        Encoder::default()
    }

    /// Create an encoder with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder::with_headroom(0, cap)
    }

    /// Create an encoder with capacity for `cap` bytes of output behind
    /// `headroom` spare bytes, which [`Encoder::into_shared`] leaves in
    /// front of the view it returns.
    pub fn with_headroom(headroom: usize, cap: usize) -> Self {
        // lint:allow(bounded-decode): encoder capacity is caller-chosen, never wire-derived
        let mut buf = Vec::with_capacity(headroom + cap);
        buf.extend(std::iter::repeat_n(0u8, headroom));
        Encoder { buf, headroom }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len() - self.headroom
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Consume the encoder, returning the encoded bytes.
    pub fn into_bytes(mut self) -> Vec<u8> {
        self.buf.drain(..self.headroom);
        self.buf
    }

    /// Consume the encoder, returning the encoded bytes as a shared view
    /// of its buffer — headroom, if any, stays in front of the view.
    pub fn into_shared(self) -> Bytes {
        Bytes::past_headroom(self.buf, self.headroom)
    }

    /// Borrow the encoded bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf[self.headroom..]
    }

    /// Append an unsigned 32-bit word.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a signed 32-bit word.
    pub fn put_i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append an unsigned 64-bit hyper.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a signed 64-bit hyper.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_be_bytes());
    }

    /// Append a boolean (0 or 1 word).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u32(v as u32);
    }

    /// Append fixed-length opaque data (padded, length not written).
    pub fn put_opaque_fixed(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
        self.pad_to_boundary(data.len());
    }

    /// Append variable-length opaque data (length word, data, padding).
    pub fn put_opaque_var(&mut self, data: &[u8]) {
        self.put_opaque_var_with(data.len(), |buf| buf.extend_from_slice(data));
    }

    /// [`Encoder::put_opaque_var`] for `len` bytes held in pieces: `fill`
    /// appends exactly them to the buffer, straight from where they lie.
    pub fn put_opaque_var_with(&mut self, len: usize, fill: impl FnOnce(&mut Vec<u8>)) {
        assert!(
            len <= u32::MAX as usize,
            "XDR opaque data longer than u32::MAX"
        );
        self.put_u32(len as u32);
        let start = self.buf.len();
        fill(&mut self.buf);
        assert_eq!(self.buf.len() - start, len, "opaque data length");
        self.pad_to_boundary(len);
    }

    /// Append a UTF-8 string as variable-length opaque data.
    pub fn put_string(&mut self, s: &str) {
        self.put_opaque_var(s.as_bytes());
    }

    /// Append a counted array: length word followed by each element.
    pub fn put_array<T, F: FnMut(&mut Encoder, &T)>(&mut self, items: &[T], mut f: F) {
        self.put_u32(items.len() as u32);
        for item in items {
            f(self, item);
        }
    }

    fn pad_to_boundary(&mut self, raw_len: usize) {
        for _ in raw_len..padded(raw_len) {
            self.buf.push(0);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn integers_are_big_endian() {
        let mut e = Encoder::new();
        e.put_u32(0x0102_0304);
        assert_eq!(e.as_bytes(), &[1, 2, 3, 4]);
        let mut e = Encoder::new();
        e.put_u64(0x0102_0304_0506_0708);
        assert_eq!(e.as_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
    }

    #[test]
    fn headroom_is_not_output_and_is_sized_once() {
        let mut e = Encoder::with_headroom(24, 8);
        assert!(e.is_empty());
        let at = e.buf.as_ptr();
        e.put_u64(0x0102_0304_0506_0708);
        assert_eq!(e.buf.as_ptr(), at, "presized: no reallocation");
        assert_eq!(e.len(), 8);
        assert_eq!(e.as_bytes(), &[1, 2, 3, 4, 5, 6, 7, 8]);
        let shared = e.into_shared();
        assert_eq!(shared, [1u8, 2, 3, 4, 5, 6, 7, 8]);
        // The room in front is what a prepend fills, in place.
        let payload = shared.as_slice().as_ptr();
        let framed = shared.prepend(&[9; 24]);
        assert_eq!(framed.as_slice()[24..].as_ptr(), payload);
        // The owned form drops the headroom instead.
        let mut e = Encoder::with_headroom(24, 4);
        e.put_u32(7);
        assert_eq!(e.into_bytes(), vec![0, 0, 0, 7]);
    }

    #[test]
    fn negative_i32_uses_twos_complement() {
        let mut e = Encoder::new();
        e.put_i32(-2);
        assert_eq!(e.as_bytes(), &[0xFF, 0xFF, 0xFF, 0xFE]);
    }

    #[test]
    fn opaque_var_is_length_prefixed_and_padded() {
        let mut e = Encoder::new();
        e.put_opaque_var(&[0xAA, 0xBB, 0xCC]);
        assert_eq!(e.as_bytes(), &[0, 0, 0, 3, 0xAA, 0xBB, 0xCC, 0x00]);
    }

    #[test]
    fn opaque_fixed_pads_without_length() {
        let mut e = Encoder::new();
        e.put_opaque_fixed(&[1, 2, 3, 4, 5]);
        assert_eq!(e.as_bytes(), &[1, 2, 3, 4, 5, 0, 0, 0]);
        assert_eq!(e.len() % 4, 0);
    }

    #[test]
    fn string_encodes_like_opaque() {
        let mut e = Encoder::new();
        e.put_string("ok");
        assert_eq!(e.as_bytes(), &[0, 0, 0, 2, b'o', b'k', 0, 0]);
    }

    #[test]
    fn array_writes_count_then_elements() {
        let mut e = Encoder::new();
        e.put_array(&[10u32, 20, 30], |enc, v| enc.put_u32(*v));
        assert_eq!(
            e.as_bytes(),
            &[0, 0, 0, 3, 0, 0, 0, 10, 0, 0, 0, 20, 0, 0, 0, 30]
        );
    }
}
