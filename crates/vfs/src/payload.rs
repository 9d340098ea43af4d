//! File contents handed out by reference.
//!
//! Every store under a file read already holds its bytes as
//! [`SharedBytes`] — kernel buffer blocks, sparse-store chunks, content
//! store frames — so a read need not copy them: a [`Payload`] is an
//! ordered list of pieces, each a range of a shared allocation or a run
//! of zeros (a hole, or the tail of a short chunk), and handing one out
//! bumps reference counts. Owners mutate shared bytes only through
//! [`Rc::make_mut`], so a live payload keeps the bytes it was read
//! with whatever is written after it.
//!
//! The write side takes a [`PayloadRef`]: a borrowed slice or a borrowed
//! payload, so callers holding either reach one routine, a zero run
//! stays a zero run all the way into the store, and a store that takes
//! a whole block keeps the block it is given
//! ([`PayloadRef::whole_allocation`]).

use std::borrow::Cow;
use std::fmt;
use std::ops::Range;
use std::rc::Rc;

use crate::shared::{is_zero_block, zero_block, SharedBytes};
use crate::sparse::CHUNK_SIZE;

/// One piece of a payload, borrowed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Piece<'a> {
    /// Bytes held somewhere else.
    Bytes(&'a [u8]),
    /// This many zero bytes.
    Zeros(usize),
}

impl Piece<'_> {
    /// Bytes this piece stands for.
    pub fn len(&self) -> usize {
        match self {
            Piece::Bytes(b) => b.len(),
            Piece::Zeros(n) => *n,
        }
    }

    /// Whether the piece stands for no bytes.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[derive(Clone)]
enum Part {
    Shared(SharedBytes, Range<usize>),
    Zeros(usize),
}

impl Part {
    fn len(&self) -> usize {
        match self {
            Part::Shared(_, range) => range.len(),
            Part::Zeros(n) => *n,
        }
    }

    fn piece(&self) -> Piece<'_> {
        match self {
            Part::Shared(bytes, range) => Piece::Bytes(&bytes[range.clone()]),
            Part::Zeros(n) => Piece::Zeros(*n),
        }
    }
}

/// File contents as an ordered list of shared byte ranges and zero runs.
#[derive(Clone, Default)]
pub struct Payload {
    parts: Vec<Part>,
    len: usize,
}

impl Payload {
    /// No bytes.
    pub fn new() -> Self {
        Payload::default()
    }

    /// `n` zero bytes, with no allocation behind them.
    pub fn zeros(n: usize) -> Self {
        let mut p = Payload::new();
        p.push_zeros(n);
        p
    }

    /// Bytes in the payload.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the payload is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append `bytes[range]`, by reference.
    pub fn push_shared(&mut self, bytes: SharedBytes, range: Range<usize>) {
        assert!(range.end <= bytes.len(), "range past the shared bytes");
        if !range.is_empty() {
            self.len += range.len();
            self.parts.push(Part::Shared(bytes, range));
        }
    }

    /// Append `n` zero bytes, merged into a zero run that ends the
    /// payload.
    pub fn push_zeros(&mut self, n: usize) {
        if n == 0 {
            return;
        }
        self.len += n;
        match self.parts.last_mut() {
            Some(Part::Zeros(run)) => *run += n,
            _ => self.parts.push(Part::Zeros(n)),
        }
    }

    /// Append `src[range]`, by reference.
    pub fn append(&mut self, src: &Payload, range: Range<usize>) {
        let mut at = 0;
        for part in &src.parts {
            let start = at;
            at += part.len();
            if at <= range.start {
                continue;
            }
            if start >= range.end {
                break;
            }
            let lo = range.start.max(start) - start;
            let hi = range.end.min(at) - start;
            match part {
                Part::Shared(bytes, r) => {
                    self.push_shared(Rc::clone(bytes), r.start + lo..r.start + hi)
                }
                Part::Zeros(_) => self.push_zeros(hi - lo),
            }
        }
    }

    /// The pieces in order.
    pub fn pieces(&self) -> impl Iterator<Item = Piece<'_>> {
        self.parts.iter().map(Part::piece)
    }

    /// The bytes, copied into one vector.
    pub fn to_vec(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.len);
        PayloadRef::from(self).extend_vec(0..self.len, &mut out);
        out
    }

    /// The bytes as one slice: borrowed when the payload is a single
    /// piece of bytes, gathered otherwise.
    pub fn contiguous(&self) -> Cow<'_, [u8]> {
        match self.parts.as_slice() {
            [] => Cow::Borrowed(&[]),
            [part] => match part.piece() {
                Piece::Bytes(b) => Cow::Borrowed(b),
                Piece::Zeros(n) => Cow::Owned(vec![0; n]),
            },
            _ => Cow::Owned(self.to_vec()),
        }
    }
}

/// One piece, moved in without a copy.
impl From<Vec<u8>> for Payload {
    fn from(bytes: Vec<u8>) -> Self {
        let mut p = Payload::new();
        let n = bytes.len();
        p.push_shared(Rc::new(bytes), 0..n);
        p
    }
}

/// One piece, copied.
impl From<&[u8]> for Payload {
    fn from(bytes: &[u8]) -> Self {
        Payload::from(bytes.to_vec())
    }
}

/// One piece, copied.
impl<const N: usize> From<&[u8; N]> for Payload {
    fn from(bytes: &[u8; N]) -> Self {
        Payload::from(bytes.to_vec())
    }
}

/// Byte-wise equality, piece by piece.
impl<T: AsRef<[u8]> + ?Sized> PartialEq<T> for Payload {
    fn eq(&self, other: &T) -> bool {
        let mut rest = other.as_ref();
        if rest.len() != self.len {
            return false;
        }
        self.pieces().all(|piece| {
            let (here, tail) = rest.split_at(piece.len());
            rest = tail;
            match piece {
                Piece::Bytes(b) => b == here,
                Piece::Zeros(_) => is_zero(here),
            }
        })
    }
}

impl PartialEq for Payload {
    fn eq(&self, other: &Payload) -> bool {
        self.len == other.len && *self == other.to_vec()
    }
}

impl fmt::Debug for Payload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_vec(), f)
    }
}

/// Bytes to write: a borrowed slice or a borrowed [`Payload`].
#[derive(Debug, Clone, Copy)]
pub enum PayloadRef<'a> {
    /// Contiguous bytes.
    Slice(&'a [u8]),
    /// The pieces of a payload.
    Payload(&'a Payload),
}

impl<'a> PayloadRef<'a> {
    /// Bytes referred to.
    pub fn len(&self) -> usize {
        match self {
            PayloadRef::Slice(s) => s.len(),
            PayloadRef::Payload(p) => p.len(),
        }
    }

    /// Whether no bytes are referred to.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The pieces covering `range`, in order, clipped to it.
    fn pieces(self, range: Range<usize>) -> impl Iterator<Item = Piece<'a>> {
        let (slice, parts) = match self {
            PayloadRef::Slice(s) => (Some(Piece::Bytes(&s[range.clone()])), &[][..]),
            PayloadRef::Payload(p) => (None, p.parts.as_slice()),
        };
        let (from, to) = (range.start, range.end);
        let mut at = 0;
        let clipped = parts
            .iter()
            .map_while(move |part| {
                let start = at;
                at += part.len();
                (start < to).then_some((part, start, at))
            })
            .filter_map(move |(part, start, end)| {
                if end <= from {
                    return None;
                }
                let lo = from.max(start) - start;
                let hi = to.min(end) - start;
                Some(match part.piece() {
                    Piece::Bytes(b) => Piece::Bytes(&b[lo..hi]),
                    Piece::Zeros(_) => Piece::Zeros(hi - lo),
                })
            });
        slice.into_iter().chain(clipped)
    }

    /// Whether every byte of `range` is zero; neither a zero run nor a
    /// piece of the pool's zero block is scanned.
    pub(crate) fn is_zero(self, range: Range<usize>) -> bool {
        self.pieces(range).all(|piece| match piece {
            Piece::Bytes(b) => is_zero_block(b) || is_zero(b),
            Piece::Zeros(_) => true,
        })
    }

    /// The one shared allocation holding exactly `range`, when there is
    /// one without a copy: a whole allocation
    /// ([`PayloadRef::whole_allocation`]), or the pool's
    /// [`zero_block`](crate::zero_block) for a zero run of exactly one
    /// block.
    pub fn block(self, range: Range<usize>) -> Option<SharedBytes> {
        if range.len() == CHUNK_SIZE {
            let mut pieces = self.pieces(range.clone());
            if let (Some(Piece::Zeros(_)), None) = (pieces.next(), pieces.next()) {
                return Some(zero_block());
            }
        }
        self.whole_allocation(range)
    }

    /// The shared allocation `range` is, when it is one piece covering a
    /// whole allocation: a store that takes a block whole can keep this
    /// one instead of a copy.
    pub fn whole_allocation(self, range: Range<usize>) -> Option<SharedBytes> {
        let PayloadRef::Payload(p) = self else {
            return None;
        };
        let mut at = 0;
        for part in &p.parts {
            let start = at;
            at += part.len();
            if at <= range.start {
                continue;
            }
            return match part {
                Part::Shared(bytes, r)
                    if start == range.start && at == range.end && r.len() == bytes.len() =>
                {
                    Some(Rc::clone(bytes))
                }
                _ => None,
            };
        }
        None
    }

    /// Copy `range` over `out`, which is exactly as long.
    pub fn copy_to(self, range: Range<usize>, out: &mut [u8]) {
        assert_eq!(range.len(), out.len(), "copy target length");
        let mut at = 0;
        for piece in self.pieces(range) {
            let n = piece.len();
            match piece {
                Piece::Bytes(b) => out[at..at + n].copy_from_slice(b),
                Piece::Zeros(_) => out[at..at + n].fill(0),
            }
            at += n;
        }
    }

    /// Append `range` to `out`.
    pub fn extend_vec(self, range: Range<usize>, out: &mut Vec<u8>) {
        for piece in self.pieces(range) {
            match piece {
                Piece::Bytes(b) => out.extend_from_slice(b),
                Piece::Zeros(n) => out.resize(out.len() + n, 0),
            }
        }
    }
}

impl<'a> From<&'a [u8]> for PayloadRef<'a> {
    fn from(bytes: &'a [u8]) -> Self {
        PayloadRef::Slice(bytes)
    }
}

impl<'a> From<&'a Vec<u8>> for PayloadRef<'a> {
    fn from(bytes: &'a Vec<u8>) -> Self {
        PayloadRef::Slice(bytes)
    }
}

impl<'a, const N: usize> From<&'a [u8; N]> for PayloadRef<'a> {
    fn from(bytes: &'a [u8; N]) -> Self {
        PayloadRef::Slice(bytes)
    }
}

impl<'a> From<&'a Payload> for PayloadRef<'a> {
    fn from(payload: &'a Payload) -> Self {
        PayloadRef::Payload(payload)
    }
}

/// Whether `bytes` are all zero, tested a 32-byte block at a time.
pub(crate) fn is_zero(bytes: &[u8]) -> bool {
    let mut blocks = bytes.chunks_exact(32);
    let word = |b: &[u8]| u64::from_ne_bytes(b.try_into().expect("8-byte word"));
    for b in &mut blocks {
        if word(&b[..8]) | word(&b[8..16]) | word(&b[16..24]) | word(&b[24..]) != 0 {
            return false;
        }
    }
    blocks.remainder().iter().all(|&b| b == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shared(bytes: &[u8]) -> SharedBytes {
        Rc::new(bytes.to_vec())
    }

    /// `ab` + three zeros + `cdef`[1..3].
    fn sample() -> Payload {
        let mut p = Payload::new();
        p.push_shared(shared(b"ab"), 0..2);
        p.push_zeros(1);
        p.push_zeros(2);
        p.push_shared(shared(b"cdef"), 1..3);
        p.push_shared(shared(b"x"), 0..0);
        p
    }

    #[test]
    fn pieces_merge_zero_runs_and_skip_empty_ranges() {
        let p = sample();
        assert_eq!(p.len(), 7);
        let pieces: Vec<Piece<'_>> = p.pieces().collect();
        assert_eq!(
            pieces,
            [Piece::Bytes(b"ab"), Piece::Zeros(3), Piece::Bytes(b"de")]
        );
        assert_eq!(p.to_vec(), b"ab\0\0\0de");
        assert_eq!(p, b"ab\0\0\0de");
        assert_ne!(p, b"ab\0\0\x01de");
        assert_ne!(p, b"ab\0\0\0d");
    }

    #[test]
    fn sub_ranges_clip_pieces_at_both_ends() {
        let p = sample();
        let view = PayloadRef::from(&p);
        for lo in 0..=7 {
            for hi in lo..=7 {
                let mut got = Vec::new();
                view.extend_vec(lo..hi, &mut got);
                assert_eq!(got, p.to_vec()[lo..hi], "{lo}..{hi}");
                let mut out = vec![0xFF; hi - lo];
                view.copy_to(lo..hi, &mut out);
                assert_eq!(out, got);
                assert_eq!(view.is_zero(lo..hi), got.iter().all(|&b| b == 0));
                let mut spliced = Payload::new();
                spliced.append(&p, lo..hi);
                assert_eq!(spliced, got);
            }
        }
        let bytes = b"ab\0\0\0de";
        assert!(PayloadRef::from(bytes).is_zero(2..5));
        assert!(!PayloadRef::from(bytes).is_zero(1..5));
    }

    #[test]
    fn contiguous_borrows_a_single_piece() {
        let v = shared(&[7u8; 100]);
        let mut p = Payload::new();
        p.push_shared(Rc::clone(&v), 10..90);
        assert!(matches!(p.contiguous(), Cow::Borrowed(b) if b.as_ptr() == v[10..].as_ptr()));
        assert!(matches!(sample().contiguous(), Cow::Owned(_)));
        assert_eq!(Payload::zeros(3).contiguous().as_ref(), [0, 0, 0]);
        assert!(Payload::new().contiguous().is_empty());
    }

    #[test]
    fn a_vector_moves_in_without_a_copy() {
        let v = vec![1u8; 4096];
        let at = v.as_ptr();
        let p = Payload::from(v);
        assert!(matches!(p.pieces().next(), Some(Piece::Bytes(b)) if b.as_ptr() == at));
    }

    #[test]
    fn only_a_whole_allocation_is_handed_out_whole() {
        let block = shared(&[4u8; 64]);
        let mut p = Payload::new();
        p.push_zeros(8);
        p.push_shared(Rc::clone(&block), 0..64);
        p.push_shared(shared(&[5u8; 64]), 0..32);
        let whole = |range| PayloadRef::from(&p).whole_allocation(range);
        assert!(whole(8..72).is_some_and(|b| Rc::ptr_eq(&b, &block)));
        // A part of the piece, more than the piece, a sub-range of an
        // allocation, a zero run, a slice.
        for range in [8..40, 0..72, 8..104, 72..104, 0..8, 8..8] {
            assert!(whole(range.clone()).is_none(), "{range:?}");
        }
        assert!(PayloadRef::from(&block[..])
            .whole_allocation(0..64)
            .is_none());
    }

    #[test]
    fn a_block_is_a_whole_allocation_or_one_zero_block() {
        let block = shared(&[4u8; 64]);
        let mut p = Payload::zeros(CHUNK_SIZE);
        p.push_shared(Rc::clone(&block), 0..64);
        p.push_zeros(CHUNK_SIZE);
        let of = |range| PayloadRef::from(&p).block(range);
        assert!(of(CHUNK_SIZE..CHUNK_SIZE + 64).is_some_and(|b| Rc::ptr_eq(&b, &block)));
        assert!(of(0..CHUNK_SIZE).is_some_and(|b| Rc::ptr_eq(&b, &zero_block())));
        // Zeros, but not one block of them; or not one run.
        for range in [0..CHUNK_SIZE - 1, 1..CHUNK_SIZE + 1, 64..CHUNK_SIZE + 64] {
            assert!(of(range.clone()).is_none(), "{range:?}");
        }
        let zeros = vec![0u8; CHUNK_SIZE];
        assert!(PayloadRef::from(&zeros).block(0..CHUNK_SIZE).is_none());
        // A piece of the zero block tests as zero by where it lies.
        let mut z = Payload::new();
        z.push_shared(zero_block(), 8..CHUNK_SIZE);
        assert!(PayloadRef::from(&z).is_zero(0..CHUNK_SIZE - 8));
    }

    #[test]
    fn a_live_payload_keeps_its_bytes_through_a_later_write() {
        let mut block = shared(&[1u8; 64]);
        let mut p = Payload::new();
        p.push_shared(Rc::clone(&block), 0..64);
        Rc::make_mut(&mut block)[..8].fill(9);
        assert_eq!(p, [1u8; 64]);
        assert_eq!(block[0], 9);
    }

    #[test]
    fn zero_test_sees_one_set_bit_anywhere() {
        let mut v = vec![0u8; 100];
        assert!(is_zero(&v));
        assert!(is_zero(&[]));
        for at in 0..v.len() {
            v[at] = 0x80;
            assert!(!is_zero(&v), "bit at {at}");
            v[at] = 0;
        }
    }
}
