//! # xdr — RFC 4506 External Data Representation
//!
//! A small, allocation-conscious XDR codec used by the [ONC-RPC] and
//! [NFSv3] substrates of the GVFS reproduction. XDR is the wire format of
//! Sun RPC and NFS: big-endian 32-bit words, with opaque data padded to a
//! four-byte boundary.
//!
//! [ONC-RPC]: https://datatracker.ietf.org/doc/html/rfc5531
//! [NFSv3]: https://datatracker.ietf.org/doc/html/rfc1813
//!
//! ```
//! use xdr::{Encoder, Decoder};
//!
//! let mut enc = Encoder::new();
//! enc.put_u32(7);
//! enc.put_string("hello");
//! enc.put_opaque_var(&[1, 2, 3]);
//!
//! let buf = enc.into_bytes();
//! let mut dec = Decoder::new(&buf);
//! assert_eq!(dec.get_u32().unwrap(), 7);
//! assert_eq!(dec.get_string().unwrap(), "hello");
//! assert_eq!(dec.get_opaque_var().unwrap(), vec![1, 2, 3]);
//! dec.finish().unwrap();
//! ```

#![warn(missing_docs)]

mod bytes;
mod decode;
mod encode;
mod error;

pub use bytes::Bytes;
pub use decode::Decoder;
pub use encode::Encoder;
pub use error::{Error, Result};

/// Default cap on variable-length opaque/string/array lengths, protecting
/// decoders from hostile or corrupted length words. NFSv3 payloads in this
/// repository never exceed the 32 KB protocol block size plus headers, but
/// whole-file reads through the file channel can be larger, so the default
/// is generous.
pub const DEFAULT_MAX_LEN: u32 = 64 * 1024 * 1024;

/// Pad `len` up to the next multiple of four, per RFC 4506 §3.
#[inline]
pub const fn padded(len: usize) -> usize {
    (len + 3) & !3
}

/// Cap on the speculative reservation made by [`bounded_alloc`]: even an
/// in-limit declared length only pre-reserves this many elements; larger
/// results grow geometrically as real data arrives and the decode fails
/// naturally on EOF long before a hostile length is materialized.
pub const MAX_PREALLOC: usize = 64 * 1024;

/// Allocate a `Vec` sized from a **wire-decoded** length without trusting
/// it. This is the single blessed sink for the `bounded-decode` lint rule
/// (see DESIGN.md §5.2): every `Vec::with_capacity`/`vec![_; n]`/`resize`
/// in a decode path whose size derives from wire bytes must flow through
/// here.
///
/// A declared `len` above `limit` is rejected with
/// [`Error::LengthOverLimit`]; an accepted one pre-reserves at most
/// [`MAX_PREALLOC`] elements.
pub fn bounded_alloc<T>(len: usize, limit: usize) -> Result<Vec<T>> {
    if len > limit {
        return Err(Error::LengthOverLimit {
            declared: u32::try_from(len).unwrap_or(u32::MAX),
            limit: u32::try_from(limit).unwrap_or(u32::MAX),
        });
    }
    Ok(Vec::with_capacity(len.min(MAX_PREALLOC)))
}

/// Types that serialize to XDR.
pub trait Encode {
    /// Append this value's XDR representation to the encoder.
    fn encode(&self, enc: &mut Encoder);
}

/// Types that deserialize from XDR. `'a` is the lifetime of the bytes
/// being decoded: a type that borrows from its message (a payload decoded
/// as a slice of it) implements `Decode<'a>` for its own `'a`; an owned
/// type implements it for every `'a`.
pub trait Decode<'a>: Sized {
    /// Parse a value of this type from the decoder.
    fn decode(dec: &mut Decoder<'a>) -> Result<Self>;
}

/// Implement [`Encode`] and [`Decode`] for a struct that is a plain
/// sequence of XDR fields, encoded in the order listed with no checks
/// between them. A struct with one lifetime (`Args<'a>`) decodes with
/// its borrowed fields as slices of the message. Structs that validate
/// what they decode write their impls by hand.
///
/// ```
/// # #[derive(Debug, PartialEq)]
/// struct Range { offset: u64, count: u32 }
/// xdr::record! { Range { offset, count } }
/// let r = Range { offset: 7, count: 9 };
/// assert_eq!(xdr::from_bytes(&xdr::to_bytes(&r)), Ok(r));
/// ```
#[macro_export]
macro_rules! record {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, enc: &mut $crate::Encoder) {
                $($crate::Encode::encode(&self.$field, enc);)+
            }
        }
        impl $crate::Decode<'_> for $ty {
            fn decode(dec: &mut $crate::Decoder<'_>) -> $crate::Result<Self> {
                Ok($ty { $($field: $crate::Decode::decode(dec)?,)+ })
            }
        }
    };
    ($ty:ident<$lt:lifetime> { $($field:ident),+ $(,)? }) => {
        impl $crate::Encode for $ty<'_> {
            fn encode(&self, enc: &mut $crate::Encoder) {
                $($crate::Encode::encode(&self.$field, enc);)+
            }
        }
        impl<$lt> $crate::Decode<$lt> for $ty<$lt> {
            fn decode(dec: &mut $crate::Decoder<$lt>) -> $crate::Result<Self> {
                Ok($ty { $($field: $crate::Decode::decode(dec)?,)+ })
            }
        }
    };
}

impl Encode for u32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u32(*self);
    }
}
impl Decode<'_> for u32 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_u32()
    }
}
impl Encode for u64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_u64(*self);
    }
}
impl Decode<'_> for u64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_u64()
    }
}
impl Encode for i32 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_i32(*self);
    }
}
impl Decode<'_> for i32 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_i32()
    }
}
impl Encode for i64 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_i64(*self);
    }
}
impl Decode<'_> for i64 {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_i64()
    }
}
impl Encode for bool {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(*self);
    }
}
impl Decode<'_> for bool {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_bool()
    }
}
impl Encode for String {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_string(self);
    }
}
impl Decode<'_> for String {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_string()
    }
}
impl Encode for Vec<u8> {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_opaque_var(self);
    }
}
impl Decode<'_> for Vec<u8> {
    fn decode(dec: &mut Decoder<'_>) -> Result<Self> {
        dec.get_opaque_var()
    }
}
impl Encode for &[u8] {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_opaque_var(self);
    }
}
impl<'a> Decode<'a> for &'a [u8] {
    // Borrowed: a slice of the message, not a copy.
    fn decode(dec: &mut Decoder<'a>) -> Result<Self> {
        dec.get_opaque_var_ref()
    }
}

impl<T: Encode> Encode for Option<T> {
    // XDR "optional-data": bool discriminant then the value if present.
    fn encode(&self, enc: &mut Encoder) {
        match self {
            Some(v) => {
                enc.put_bool(true);
                v.encode(enc);
            }
            None => enc.put_bool(false),
        }
    }
}
impl<'a, T: Decode<'a>> Decode<'a> for Option<T> {
    fn decode(dec: &mut Decoder<'a>) -> Result<Self> {
        if dec.get_bool()? {
            Ok(Some(T::decode(dec)?))
        } else {
            Ok(None)
        }
    }
}

/// Encode a value to a fresh byte vector.
pub fn to_bytes<T: Encode>(value: &T) -> Vec<u8> {
    let mut enc = Encoder::new();
    value.encode(&mut enc);
    enc.into_bytes()
}

/// Decode a value from a byte slice, requiring the slice to be fully
/// consumed.
pub fn from_bytes<'a, T: Decode<'a>>(bytes: &'a [u8]) -> Result<T> {
    let mut dec = Decoder::new(bytes);
    let v = T::decode(&mut dec)?;
    dec.finish()?;
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padding_rounds_up_to_four() {
        assert_eq!(padded(0), 0);
        assert_eq!(padded(1), 4);
        assert_eq!(padded(3), 4);
        assert_eq!(padded(4), 4);
        assert_eq!(padded(5), 8);
    }

    #[test]
    fn bounded_alloc_rejects_over_limit_and_caps_reservation() {
        assert!(matches!(
            bounded_alloc::<u8>(10, 9),
            Err(Error::LengthOverLimit {
                declared: 10,
                limit: 9
            })
        ));
        let v: Vec<u8> = bounded_alloc(16, 1 << 20).unwrap();
        assert_eq!(v.capacity(), 16);
        // A huge but in-limit length must not reserve huge memory.
        let v: Vec<u8> = bounded_alloc(1 << 28, 1 << 30).unwrap();
        assert!(v.capacity() <= 2 * MAX_PREALLOC);
    }

    #[test]
    fn optional_round_trips() {
        let some: Option<u32> = Some(9);
        let none: Option<u32> = None;
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&some)).unwrap(), some);
        assert_eq!(from_bytes::<Option<u32>>(&to_bytes(&none)).unwrap(), none);
    }

    #[test]
    fn from_bytes_rejects_trailing_garbage() {
        let mut b = to_bytes(&5u32);
        b.extend_from_slice(&[0, 0, 0, 0]);
        assert!(matches!(
            from_bytes::<u32>(&b),
            Err(Error::TrailingBytes { .. })
        ));
    }
}
