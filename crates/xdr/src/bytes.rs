//! Cheaply clonable, reference-counted byte slices.
//!
//! The RPC data path used to copy each message body several times on its
//! way from the wire into the caches: `oncrpc::msg` re-vec'd call and
//! reply bodies, the transport copied envelopes, and the proxy caches
//! copied payloads again. [`Bytes`] is a `(Rc<Vec<u8>>, offset, len)`
//! view: cloning it is a reference-count bump, and slicing it shares the
//! same backing allocation, so a reply body can travel codec → channel →
//! block/file cache without a single copy.
//!
//! A view may also carry an *attachment*: a separate shared allocation
//! whose bytes equal a sub-range of the buffer — the pooled block a READ
//! reply was encoded from. It never reaches the wire, which stays one
//! contiguous buffer; it lets the host side that decodes the reply take
//! that block by reference instead of hashing the bytes to find it
//! again ([`Bytes::attached`]). Views keep it only while it lies inside
//! them, and a buffer built afresh (a batch envelope, a hand-built
//! reply) starts without one.

use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

/// An immutable, reference-counted byte slice.
///
/// `Clone` and [`Bytes::slice`] are O(1) and never copy the payload. The
/// backing buffer is freed when the last view drops.
#[derive(Clone)]
pub struct Bytes {
    buf: Rc<Vec<u8>>,
    off: usize,
    len: usize,
    /// A shared allocation equal to `buf[at..at + len]`, held strongly,
    /// so no owner can change it in place ([`Rc::make_mut`] clones it).
    attachment: Option<(Rc<Vec<u8>>, usize)>,
}

impl Bytes {
    /// An empty slice. All empty views share one backing buffer.
    pub fn new() -> Bytes {
        thread_local! {
            static EMPTY: Rc<Vec<u8>> = Rc::new(Vec::new());
        }
        Bytes {
            buf: EMPTY.with(Rc::clone),
            off: 0,
            len: 0,
            attachment: None,
        }
    }

    /// Wrap an owned buffer without copying.
    pub fn from_vec(v: Vec<u8>) -> Bytes {
        let len = v.len();
        Bytes {
            buf: Rc::new(v),
            off: 0,
            len,
            attachment: None,
        }
    }

    /// The part of `v` past its first `headroom` bytes, with those bytes
    /// kept in front of the view for a later [`Bytes::prepend`].
    pub(crate) fn past_headroom(v: Vec<u8>, headroom: usize) -> Bytes {
        let len = v.len() - headroom;
        Bytes {
            buf: Rc::new(v),
            off: headroom,
            len,
            attachment: None,
        }
    }

    /// `prefix ++ self`. When the backing buffer has `prefix.len()` bytes
    /// of room in front of this view and no other view shares it, the
    /// prefix is written there and the payload is not touched; otherwise
    /// both are copied into a fresh buffer. Either way no other view
    /// ever sees a byte change, and the attachment stays with the bytes
    /// it equals.
    pub fn prepend(mut self, prefix: &[u8]) -> Bytes {
        if let (Some(off), Some(buf)) = (
            self.off.checked_sub(prefix.len()),
            Rc::get_mut(&mut self.buf),
        ) {
            buf[off..self.off].copy_from_slice(prefix);
            self.off = off;
            self.len += prefix.len();
            return self;
        }
        let mut copied = Bytes::from_vec([prefix, self.as_slice()].concat());
        copied.attachment = self
            .attachment
            .map(|(block, at)| (block, at - self.off + prefix.len()));
        copied
    }

    /// `self` with `block` attached at `start`: the host-side record
    /// that `self[start..start + block.len()]` was encoded from that
    /// allocation. The bytes must be equal (checked in debug builds).
    pub fn attach(mut self, start: usize, block: Rc<Vec<u8>>) -> Bytes {
        assert!(start + block.len() <= self.len, "attachment past the view");
        debug_assert!(
            self[start..start + block.len()] == block[..],
            "an attachment must equal the bytes it stands for"
        );
        self.attachment = Some((block, self.off + start));
        self
    }

    /// The attached allocation, when it holds exactly this view's bytes.
    pub fn attached(&self) -> Option<&Rc<Vec<u8>>> {
        self.attachment
            .as_ref()
            .filter(|(block, at)| *at == self.off && block.len() == self.len)
            .map(|(block, _)| block)
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
    /// The attachment comes along while it lies inside the sub-view.
    pub fn slice(&self, start: usize, end: usize) -> Bytes {
        assert!(start <= end && end <= self.len, "Bytes::slice out of range");
        let (off, len) = (self.off + start, end - start);
        let attachment = self
            .attachment
            .as_ref()
            .filter(|(block, at)| *at >= off && at + block.len() <= off + len)
            .cloned();
        Bytes {
            buf: Rc::clone(&self.buf),
            off,
            len,
            attachment,
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
            b.as_slice()[1..].as_ptr(),
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

    /// A 16-byte buffer whose bytes 8..12 are `block`, attached, behind
    /// 4 bytes of headroom — the shape of an encoded READ reply.
    fn with_block() -> (Bytes, Rc<Vec<u8>>) {
        let block = Rc::new(vec![7u8; 4]);
        let mut v: Vec<u8> = (0u8..20).collect();
        v[12..16].copy_from_slice(&block);
        let view = Bytes::past_headroom(v, 4).attach(8, Rc::clone(&block));
        (view, block)
    }

    fn attached_is(view: &Bytes, block: &Rc<Vec<u8>>) -> bool {
        view.attached().is_some_and(|b| Rc::ptr_eq(b, block))
    }

    #[test]
    fn an_attachment_is_kept_by_views_that_contain_it_and_exact_only_alone() {
        let (view, block) = with_block();
        assert!(view.attached().is_none(), "the view is more than the block");
        assert!(attached_is(&view.slice(8, 12), &block));
        assert!(attached_is(&view.slice_ref(&view[8..12]), &block));
        // A containing slice keeps it, and a slice of that finds it again.
        let around = view.slice(6, 14);
        assert!(around.attached().is_none());
        assert!(attached_is(&around.slice(2, 6), &block));
        // A slice that cuts it drops it, for good.
        for (lo, hi) in [(9, 12), (8, 11), (0, 10), (10, 16)] {
            let cut = view.slice(lo, hi);
            assert!(cut.attachment.is_none(), "{lo}..{hi}");
        }
        assert!(view.slice(0, 10).slice(8, 10).attached().is_none());
    }

    #[test]
    fn prepend_keeps_the_attachment_in_place_and_shifts_it_when_copying() {
        let (view, block) = with_block();
        let at = view[8..].as_ptr();
        // Sole owner with headroom: written in front, nothing moves.
        let joined = view.prepend(&[0xAA; 4]);
        assert_eq!(joined[12..].as_ptr(), at);
        assert!(attached_is(&joined.slice(12, 16), &block));
        // No headroom left: a copy, and the attachment follows its bytes.
        let copied = joined.prepend(&[0xBB; 3]);
        assert_ne!(copied[15..].as_ptr(), at);
        assert_eq!(&copied[15..19], &block[..]);
        assert!(attached_is(&copied.slice(15, 19), &block));
        assert!(copied.slice(14, 18).attached().is_none());
        // A view another holder shares copies too, and shifts the same.
        let (view, block) = with_block();
        let keep = view.clone();
        let copied = view.slice(8, 12).prepend(&[1, 2]);
        assert!(attached_is(&copied.slice(2, 6), &block));
        assert_eq!(&keep[..4], &[4, 5, 6, 7]);
    }

    #[test]
    fn a_fresh_buffer_carries_no_attachment() {
        let (view, _) = with_block();
        assert!(Bytes::from_vec(view.to_vec()).attachment.is_none());
        assert!(Bytes::from(&view[8..12]).attached().is_none());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must equal")]
    fn an_attachment_that_differs_from_its_bytes_is_refused() {
        let _ = Bytes::from_vec(vec![0; 8]).attach(2, Rc::new(vec![1; 4]));
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
