//! XDR decoder.

use crate::error::{Error, Result};
use crate::{padded, DEFAULT_MAX_LEN};

/// Reads XDR items from a byte slice, tracking position and enforcing a
/// cap on variable-length items.
#[derive(Debug)]
pub struct Decoder<'a> {
    data: &'a [u8],
    pos: usize,
    max_len: u32,
}

impl<'a> Decoder<'a> {
    /// Decode from `data` with the default length cap.
    pub fn new(data: &'a [u8]) -> Self {
        Decoder {
            data,
            pos: 0,
            max_len: DEFAULT_MAX_LEN,
        }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// Current read offset.
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Require that every byte has been consumed.
    pub fn finish(&self) -> Result<()> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(Error::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read an unsigned 32-bit word.
    pub fn get_u32(&mut self) -> Result<u32> {
        let b = self.take(4)?;
        Ok(u32::from_be_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a signed 32-bit word.
    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(self.get_u32()? as i32)
    }

    /// Read an unsigned 64-bit hyper.
    pub fn get_u64(&mut self) -> Result<u64> {
        let b = self.take(8)?;
        Ok(u64::from_be_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read a signed 64-bit hyper.
    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(self.get_u64()? as i64)
    }

    /// Read a boolean, rejecting words other than 0/1.
    pub fn get_bool(&mut self) -> Result<bool> {
        match self.get_u32()? {
            0 => Ok(false),
            1 => Ok(true),
            v => Err(Error::InvalidBool(v)),
        }
    }

    /// Read fixed-length opaque data of `len` bytes (consumes padding,
    /// which must be zero).
    pub fn get_opaque_fixed(&mut self, len: usize) -> Result<&'a [u8]> {
        let body = self.take(len)?;
        let pad = self.take(padded(len) - len)?;
        if pad.iter().any(|&b| b != 0) {
            return Err(Error::NonZeroPadding);
        }
        Ok(body)
    }

    /// Read variable-length opaque data as a borrowed slice.
    pub fn get_opaque_var_ref(&mut self) -> Result<&'a [u8]> {
        let len = self.get_u32()?;
        if len > self.max_len {
            return Err(Error::LengthOverLimit {
                declared: len,
                limit: self.max_len,
            });
        }
        self.get_opaque_fixed(len as usize)
    }

    /// Read variable-length opaque data as an owned vector.
    pub fn get_opaque_var(&mut self) -> Result<Vec<u8>> {
        Ok(self.get_opaque_var_ref()?.to_vec())
    }

    /// Read a UTF-8 string.
    pub fn get_string(&mut self) -> Result<String> {
        let bytes = self.get_opaque_var_ref()?;
        std::str::from_utf8(bytes)
            .map(str::to_owned)
            .map_err(|_| Error::InvalidUtf8)
    }

    /// Read a counted array, decoding each element with `f`.
    pub fn get_array<T, F: FnMut(&mut Decoder<'a>) -> Result<T>>(
        &mut self,
        mut f: F,
    ) -> Result<Vec<T>> {
        let n = self.get_u32()?;
        // The blessed sink rejects counts over the decoder cap and bounds
        // the pre-allocation: a hostile count must not OOM us before
        // element decoding fails naturally on EOF.
        let mut out = crate::bounded_alloc(n as usize, self.max_len as usize)?;
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Encoder;

    #[test]
    fn round_trip_all_primitives() {
        let mut e = Encoder::new();
        e.put_u32(u32::MAX);
        e.put_i32(i32::MIN);
        e.put_u64(u64::MAX);
        e.put_i64(i64::MIN);
        e.put_bool(true);
        e.put_bool(false);
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_u32().unwrap(), u32::MAX);
        assert_eq!(d.get_i32().unwrap(), i32::MIN);
        assert_eq!(d.get_u64().unwrap(), u64::MAX);
        assert_eq!(d.get_i64().unwrap(), i64::MIN);
        assert!(d.get_bool().unwrap());
        assert!(!d.get_bool().unwrap());
        d.finish().unwrap();
    }

    #[test]
    fn eof_is_reported_with_counts() {
        let mut d = Decoder::new(&[0, 0]);
        assert_eq!(
            d.get_u32(),
            Err(Error::UnexpectedEof {
                needed: 4,
                remaining: 2
            })
        );
    }

    #[test]
    fn invalid_bool_word_is_rejected() {
        let mut d = Decoder::new(&[0, 0, 0, 2]);
        assert_eq!(d.get_bool(), Err(Error::InvalidBool(2)));
    }

    #[test]
    fn nonzero_padding_is_rejected() {
        // length 1, byte 0xAA, padding 0x01 0x00 0x00 — invalid.
        let mut d = Decoder::new(&[0, 0, 0, 1, 0xAA, 1, 0, 0]);
        assert_eq!(d.get_opaque_var(), Err(Error::NonZeroPadding));
    }

    #[test]
    fn length_cap_is_enforced() {
        let mut e = Encoder::new();
        e.put_u32(1_000_000); // declared length far beyond the cap
        let b = e.into_bytes();
        let mut d = Decoder {
            max_len: 1024,
            ..Decoder::new(&b)
        };
        assert_eq!(
            d.get_opaque_var(),
            Err(Error::LengthOverLimit {
                declared: 1_000_000,
                limit: 1024
            })
        );
    }

    #[test]
    fn invalid_utf8_string_is_rejected() {
        let mut e = Encoder::new();
        e.put_opaque_var(&[0xFF, 0xFE]);
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        assert_eq!(d.get_string(), Err(Error::InvalidUtf8));
    }

    #[test]
    fn array_round_trips() {
        let mut e = Encoder::new();
        e.put_array(&[7u32, 8, 9], |enc, v| enc.put_u32(*v));
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        let v = d.get_array(|dd| dd.get_u32()).unwrap();
        assert_eq!(v, vec![7, 8, 9]);
        d.finish().unwrap();
    }

    #[test]
    fn hostile_array_count_fails_on_eof_not_oom() {
        let mut e = Encoder::new();
        e.put_u32(1_000_000); // count with no elements following
        let b = e.into_bytes();
        let mut d = Decoder::new(&b);
        assert!(d.get_array(|dd| dd.get_u32()).is_err());
    }
}
