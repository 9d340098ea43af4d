//! Cheaply clonable, reference-counted byte slices.
//!
//! The RPC data path used to copy each message body several times on its
//! way from the wire into the caches: `oncrpc::msg` re-vec'd call and
//! reply bodies, the transport copied envelopes, and the proxy caches
//! copied payloads again. [`Bytes`] is a `(Arc<Vec<u8>>, offset, len)`
//! view: cloning it is a reference-count bump, and slicing it shares the
//! same backing allocation, so a reply body can travel codec → channel →
//! block/file cache without a single copy.

use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

/// An immutable, reference-counted byte slice.
///
/// `Clone` and [`Bytes::slice`] are O(1) and never copy the payload. The
/// backing buffer is freed when the last view drops.
#[derive(Clone)]
pub struct Bytes {
    buf: Arc<Vec<u8>>,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty slice. All empty views share one backing buffer.
    pub fn new() -> Bytes {
        static EMPTY: std::sync::OnceLock<Arc<Vec<u8>>> = std::sync::OnceLock::new();
        Bytes {
            buf: Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new()))),
            off: 0,
            len: 0,
        }
    }

    /// Wrap an owned buffer without copying.
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            buf: Arc::new(v),
            off: 0,
            len,
        }
    }

    /// The part of `v` past its first `headroom` bytes, with those bytes
    /// kept in front of the view for a later [`Bytes::prepend`].
    pub(crate) fn past_headroom(v: Vec<u8>, headroom: usize) -> Bytes {
        let len = v.len() - headroom;
        Bytes {
            buf: Arc::new(v),
            off: headroom,
            len,
        }
    }

    /// `prefix ++ self`. When the backing buffer has `prefix.len()` bytes
    /// of room in front of this view and no other view shares it, the
    /// prefix is written there and the payload is not touched; otherwise
    /// both are copied into a fresh buffer. Either way no other view
    /// ever sees a byte change.
    pub fn prepend(mut self, prefix: &[u8]) -> Bytes {
        if let (Some(off), Some(buf)) = (
            self.off.checked_sub(prefix.len()),
            Arc::get_mut(&mut self.buf),
        ) {
            buf[off..self.off].copy_from_slice(prefix);
            self.off = off;
            self.len += prefix.len();
            return self;
        }
        Bytes::from_vec([prefix, self.as_slice()].concat())
    }

    /// Length of this view in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether this view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view of `self` sharing the same backing buffer. O(1).
    ///
    /// # Panics
    /// Panics if the range is out of bounds, mirroring slice indexing.
    pub fn slice(&self, start: usize, end: usize) -> Bytes {
        assert!(start <= end && end <= self.len, "Bytes::slice out of range");
        Bytes {
            buf: Arc::clone(&self.buf),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Promote a borrowed sub-slice of `self` back into a shared view.
    ///
    /// `sub` must point into `self` (as returned by e.g. a decoder that
    /// borrowed from `self`); the result shares `self`'s backing buffer.
    ///
    /// # Panics
    /// Panics if `sub` does not lie within `self`.
    pub fn slice_ref(&self, sub: &[u8]) -> Bytes {
        if sub.is_empty() {
            return Bytes::new();
        }
        let base = self.as_slice().as_ptr() as usize;
        let p = sub.as_ptr() as usize;
        assert!(
            p >= base && p + sub.len() <= base + self.len,
            "Bytes::slice_ref: slice does not borrow from this buffer"
        );
        let start = p - base;
        self.slice(start, start + sub.len())
    }

    /// The bytes of this view.
    pub fn as_slice(&self) -> &[u8] {
        &self.buf[self.off..self.off + self.len]
    }

    /// Copy this view out into an owned vector.
    pub fn to_vec(&self) -> Vec<u8> {
        self.as_slice().to_vec()
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Bytes {
        Bytes::from_vec(v)
    }
}

impl From<&[u8]> for Bytes {
    fn from(s: &[u8]) -> Bytes {
        Bytes::from_vec(s.to_vec())
    }
}

impl<const N: usize> From<&[u8; N]> for Bytes {
    fn from(s: &[u8; N]) -> Bytes {
        Bytes::from_vec(s.to_vec())
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        self.as_slice() == other
    }
}
impl PartialEq<Vec<u8>> for Bytes {
    fn eq(&self, other: &Vec<u8>) -> bool {
        self.as_slice() == other.as_slice()
    }
}
impl PartialEq<&[u8]> for Bytes {
    fn eq(&self, other: &&[u8]) -> bool {
        self.as_slice() == *other
    }
}
impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}
impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

impl std::hash::Hash for Bytes {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clone_and_slice_share_the_backing_buffer() {
        let b = Bytes::from_vec(vec![1, 2, 3, 4, 5]);
        let c = b.clone();
        let s = b.slice(1, 4);
        assert_eq!(&*c, &[1, 2, 3, 4, 5]);
        assert_eq!(&*s, &[2, 3, 4]);
        assert_eq!(
            s.as_slice().as_ptr(),
            unsafe { b.as_slice().as_ptr().add(1) },
            "slice must not copy"
        );
    }

    #[test]
    fn slice_ref_promotes_borrowed_subslices() {
        let b = Bytes::from_vec((0u8..32).collect());
        let borrowed = &b.as_slice()[8..20];
        let promoted = b.slice_ref(borrowed);
        assert_eq!(&*promoted, borrowed);
        assert_eq!(promoted.as_slice().as_ptr(), borrowed.as_ptr());
        // Empty slices promote to the canonical empty view.
        assert!(b.slice_ref(&b.as_slice()[4..4]).is_empty());
    }

    #[test]
    #[should_panic(expected = "does not borrow")]
    fn slice_ref_rejects_foreign_slices() {
        let b = Bytes::from_vec(vec![0; 16]);
        let other = [0u8; 4];
        let _ = b.slice_ref(&other);
    }

    #[test]
    fn prepend_fills_headroom_in_place_only_for_a_sole_owner() {
        let whole = Bytes::from_vec((0u8..16).collect());
        let view = whole.slice(8, 16);
        let at = view.as_slice().as_ptr();
        // `whole` still shares the buffer: a copy, and `whole` unchanged.
        let copied = view.prepend(&[0xAA; 8]);
        assert_ne!(copied.as_slice()[8..].as_ptr(), at);
        assert_eq!(&copied[..8], &[0xAA; 8]);
        assert_eq!(&copied[8..], &whole[8..]);
        assert_eq!(whole, (0u8..16).collect::<Vec<_>>());
        // Sole owner with room in front: the payload does not move.
        let view = whole.slice(8, 16);
        drop(whole);
        let joined = view.prepend(&[0xBB; 8]);
        assert_eq!(joined.as_slice()[8..].as_ptr(), at);
        assert_eq!(&joined[..8], &[0xBB; 8]);
        assert_eq!(&joined[8..], &(8u8..16).collect::<Vec<_>>()[..]);
        // Sole owner without enough room: a copy again.
        let again = joined.prepend(&[0xCC]);
        assert_eq!(again.len(), 17);
        assert_ne!(again.as_slice()[9..].as_ptr(), at);
    }

    #[test]
    fn equality_and_conversions() {
        let b: Bytes = b"abcd".into();
        assert_eq!(b, Bytes::from_vec(b"abcd".to_vec()));
        assert_eq!(b.to_vec(), b"abcd".to_vec());
        assert!(Bytes::new().is_empty());
        assert_eq!(Bytes::default().len(), 0);
    }
}
