//! Sparse byte storage for large, mostly-empty files.
//!
//! VM state files are huge but sparse: a 1.6 GB virtual disk whose guest
//! filesystem holds a few hundred megabytes, or a 512 MB memory image that
//! is overwhelmingly zero-filled after boot (the paper's zero-block
//! filtering removes 60,452 of 65,750 reads when resuming such a VM).
//! Storing them densely would make the reproduction needlessly heavy, so
//! file contents live in chunks allocated on first write; reads of
//! unwritten ranges yield zeros, exactly like holes in a real filesystem.
//!
//! A chunk spans one NFS block ([`CHUNK_SIZE`], 32 KiB, the kernel
//! client's `rsize`, its READ and WRITE size), so the unit every layer
//! above moves is the unit stored here: a whole-block write whose source
//! is one whole shared block keeps that block by reference — no gather,
//! no hash, no compare — and any other whole-chunk write is gathered once and
//! pooled as shared content ([`share`]), so the clones of one golden
//! image — and a `clone()` of a store — hold one host copy of it between
//! them. A chunk's vector ends where its data ends — at the highest byte
//! ever written into its span — and the rest of the span reads as zeros
//! like any hole, so a 159-byte config file or a short redo log costs the
//! host a page, not a block. Chunks change only through [`Rc::make_mut`],
//! so a later partial write copies a chunk anyone else holds first, and
//! sharing is invisible to every accessor here.
//!
//! The modelled filesystem does not allocate by host chunk:
//! [`SparseBytes::allocated`], the NFS `used` attribute, counts the
//! [`USED_SPAN`] (64 KiB) spans that hold a chunk, kept up to date where
//! chunks enter and leave — not what the host holds.

use std::collections::BTreeMap;
use std::ops::Range;
use std::rc::Rc;

use crate::payload::{is_zero, Payload, PayloadRef};
use crate::shared::{share, SharedBytes};

/// Chunk granularity for sparse allocation: one 32 KiB NFS block.
pub const CHUNK_SIZE: usize = 32 * 1024;

/// The modelled filesystem's allocation unit (64 KiB): what
/// [`SparseBytes::allocated`] counts.
pub const USED_SPAN: usize = 64 * 1024;

const CHUNKS_PER_SPAN: u64 = (USED_SPAN / CHUNK_SIZE) as u64;
const _: () = assert!(USED_SPAN.is_multiple_of(CHUNK_SIZE));

/// The chunk indices of the span chunk `idx` lies in.
fn span_of(idx: u64) -> Range<u64> {
    let first = idx - idx % CHUNKS_PER_SPAN;
    first..first + CHUNKS_PER_SPAN
}

/// Host capacity for a chunk holding `len` bytes: the next 4 KB multiple.
/// Exact growth in page steps — `Vec`'s doubling would hand back half of
/// what short chunks save, and an append stream must not reallocate per
/// record.
fn chunk_capacity(len: usize) -> usize {
    len.next_multiple_of(4096).min(CHUNK_SIZE)
}

/// A sparse, growable byte array.
#[derive(Debug, Clone, Default)]
pub struct SparseBytes {
    len: u64,
    chunks: BTreeMap<u64, SharedBytes>,
    /// [`USED_SPAN`]s holding at least one chunk.
    spans: u64,
}

impl SparseBytes {
    /// Empty storage.
    pub fn new() -> Self {
        SparseBytes::default()
    }

    /// Logical length in bytes (includes trailing holes).
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the logical length is zero.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes actually allocated (the "used" attribute NFS reports), in
    /// whole [`USED_SPAN`]s.
    pub fn allocated(&self) -> u64 {
        self.spans * USED_SPAN as u64
    }

    /// Store chunk `idx`, counting its span if it is the span's first.
    fn insert(&mut self, idx: u64, chunk: SharedBytes) {
        if self.chunks.insert(idx, chunk).is_none()
            && self.chunks.range(span_of(idx)).nth(1).is_none()
        {
            self.spans += 1;
        }
    }

    /// Set the logical length; shrinking drops whole chunks beyond the new
    /// end and shortens the boundary chunk. A span the new end cuts
    /// through stays allocated, as the modelled filesystem's unit: if it
    /// keeps no chunk, an empty one marks it.
    pub fn truncate(&mut self, new_len: u64) {
        if new_len < self.len {
            let cut = new_len.div_ceil(CHUNK_SIZE as u64);
            let mut lost: Vec<u64> = (self.chunks.split_off(&cut).into_keys())
                .map(|idx| span_of(idx).start)
                .collect();
            lost.dedup();
            if lost.first().is_some_and(|&span| span < cut) {
                lost.remove(0);
                self.chunks.entry(cut - 1).or_default();
            }
            self.spans -= lost.len() as u64;
            // End the boundary chunk at the new length so a later
            // re-extend reads zeros there.
            let boundary = new_len / CHUNK_SIZE as u64;
            let within = (new_len % CHUNK_SIZE as u64) as usize;
            if let Some(chunk) = self.chunks.get_mut(&boundary) {
                if chunk.len() > within {
                    let chunk = Rc::make_mut(chunk);
                    chunk.truncate(within);
                    chunk.shrink_to(chunk_capacity(within));
                }
            }
        }
        self.len = new_len;
    }

    /// Read a range (short at EOF): the chunks' bytes by reference, and
    /// holes and short-chunk tails as zero runs.
    pub fn read_range(&self, offset: u64, len: usize) -> Payload {
        let mut out = Payload::new();
        let n = (self.len.saturating_sub(offset)).min(len as u64);
        if n == 0 {
            return out;
        }
        let end = offset + n;
        let first = offset / CHUNK_SIZE as u64;
        let last = (end - 1) / CHUNK_SIZE as u64;
        // Up to `at` the payload is built.
        let mut at = offset;
        for (idx, chunk) in self.chunks.range(first..=last) {
            let chunk_start = idx * CHUNK_SIZE as u64;
            // Past the chunk's own end the span stays zero.
            let hi = end.min(chunk_start + chunk.len() as u64);
            if at.max(chunk_start) < hi {
                let lo = at.max(chunk_start);
                out.push_zeros((lo - at) as usize);
                let range = (lo - chunk_start) as usize..(hi - chunk_start) as usize;
                out.push_shared(Rc::clone(chunk), range);
                at = hi;
            }
        }
        out.push_zeros((end - at) as usize);
        out
    }

    /// Write `data` at `offset`, extending the logical length if needed.
    /// Writing all-zero data into a hole does not allocate a chunk (over
    /// an existing chunk it keeps it allocated); a zero run of a
    /// [`Payload`] is not even scanned. A zero-length write still
    /// extends the file to `offset` (it behaves like the degenerate end
    /// of a write ending at `offset`), matching the dense reference
    /// model the property tests check against.
    pub fn write_at<'a>(&mut self, offset: u64, data: impl Into<PayloadRef<'a>>) {
        let data = data.into();
        let n = data.len();
        let end = offset + n as u64;
        let mut pos = 0usize;
        while pos < n {
            let abs = offset + pos as u64;
            let chunk_idx = abs / CHUNK_SIZE as u64;
            let within = (abs % CHUNK_SIZE as u64) as usize;
            let take = (CHUNK_SIZE - within).min(n - pos);
            let src = pos..pos + take;
            if take == CHUNK_SIZE {
                // A whole chunk replaces what was there: the caller's
                // block itself when the source is one whole shared
                // block, otherwise gathered once and pooled as shared
                // content.
                if self.chunks.contains_key(&chunk_idx) || !data.is_zero(src.clone()) {
                    let chunk = data.whole_allocation(src.clone()).unwrap_or_else(|| {
                        let mut chunk = Vec::with_capacity(CHUNK_SIZE);
                        data.extend_vec(src, &mut chunk);
                        share(chunk)
                    });
                    self.insert(chunk_idx, chunk);
                }
            } else if let Some(chunk) = self.chunks.get_mut(&chunk_idx) {
                let chunk = Rc::make_mut(chunk);
                let end = within + take;
                if chunk.len() < end {
                    chunk.reserve_exact(chunk_capacity(end) - chunk.len());
                    chunk.resize(end, 0);
                }
                data.copy_to(src, &mut chunk[within..end]);
            } else if !data.is_zero(src.clone()) {
                let mut chunk = Vec::with_capacity(chunk_capacity(within + take));
                chunk.resize(within, 0);
                data.extend_vec(src, &mut chunk);
                self.insert(chunk_idx, Rc::new(chunk));
            }
            pos += take;
        }
        self.len = self.len.max(end);
    }

    /// Whether the given range contains only zeros (holes count as zero).
    pub fn is_zero_range(&self, offset: u64, len: usize) -> bool {
        if len == 0 {
            return true;
        }
        let end = offset + len as u64;
        let first = offset / CHUNK_SIZE as u64;
        let last = (end - 1) / CHUNK_SIZE as u64;
        for (idx, chunk) in self.chunks.range(first..=last) {
            let chunk_start = idx * CHUNK_SIZE as u64;
            // Clipped to the chunk's own end: beyond it the span is zero.
            let lo = offset.saturating_sub(chunk_start).min(chunk.len() as u64) as usize;
            let hi = (end - chunk_start).min(chunk.len() as u64) as usize;
            if !is_zero(&chunk[lo..hi]) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::payload::Piece;

    #[test]
    fn reads_from_empty_are_empty() {
        let s = SparseBytes::new();
        assert_eq!(s.read_range(0, 16), Vec::<u8>::new());
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn write_then_read_round_trips() {
        let mut s = SparseBytes::new();
        s.write_at(10, b"hello");
        assert_eq!(s.len(), 15);
        assert_eq!(s.read_range(10, 5), b"hello");
        // The hole before the write reads as zeros.
        assert_eq!(s.read_range(0, 10), vec![0u8; 10]);
    }

    #[test]
    fn cross_chunk_writes_work() {
        let mut s = SparseBytes::new();
        let data: Vec<u8> = (0..=255u8).cycle().take(CHUNK_SIZE + 100).collect();
        let off = CHUNK_SIZE as u64 - 50;
        s.write_at(off, &data);
        assert_eq!(s.read_range(off, data.len()), data);
    }

    #[test]
    fn zero_writes_into_holes_do_not_allocate() {
        let mut s = SparseBytes::new();
        s.write_at(0, &vec![0u8; 4 * CHUNK_SIZE]);
        assert_eq!(s.len(), 4 * CHUNK_SIZE as u64);
        assert_eq!(s.allocated(), 0);
        // But nonzero writes do.
        s.write_at(0, &[1]);
        assert_eq!(s.allocated(), USED_SPAN as u64);
    }

    #[test]
    fn truncate_shrinks_and_zeroes_boundary() {
        let mut s = SparseBytes::new();
        s.write_at(0, &vec![0xAB; 2 * CHUNK_SIZE]);
        s.truncate(100);
        assert_eq!(s.len(), 100);
        // Re-extend: bytes past 100 must read zero even inside the kept chunk.
        s.truncate(200);
        let r = s.read_range(0, 200).to_vec();
        assert!(r[..100].iter().all(|&b| b == 0xAB));
        assert!(r[100..].iter().all(|&b| b == 0));
    }

    #[test]
    fn is_zero_range_sees_holes_and_data() {
        let mut s = SparseBytes::new();
        s.write_at(CHUNK_SIZE as u64 * 2, &[7]);
        s.truncate(CHUNK_SIZE as u64 * 4);
        assert!(s.is_zero_range(0, CHUNK_SIZE * 2));
        assert!(!s.is_zero_range(CHUNK_SIZE as u64 * 2, 1));
        assert!(s.is_zero_range(CHUNK_SIZE as u64 * 2 + 1, CHUNK_SIZE));
    }

    /// Host bytes the chunks' vectors hold, as opposed to `allocated()`.
    fn capacity(s: &SparseBytes) -> usize {
        s.chunks.values().map(|c| c.capacity()).sum()
    }

    #[test]
    fn a_small_file_costs_a_page_not_a_chunk() {
        let mut s = SparseBytes::new();
        s.write_at(0, &[b'x'; 159]);
        assert!(capacity(&s) <= 4096, "held {}", capacity(&s));
        // What the modelled filesystem reports as used does not change.
        assert_eq!(s.allocated(), USED_SPAN as u64);
        assert_eq!(s.read_range(0, 200), vec![b'x'; 159]);
    }

    #[test]
    fn an_append_stream_grows_in_pages_to_exactly_one_chunk() {
        let mut s = SparseBytes::new();
        for i in 0..16u64 {
            s.write_at(i * 4096, &[i as u8 + 1; 4096]);
            assert_eq!(capacity(&s), (i as usize + 1) * 4096);
        }
        assert_eq!(capacity(&s), USED_SPAN);
        // Records smaller than a page reallocate once a page, not once
        // a record.
        let mut s = SparseBytes::new();
        let mut grown = 0;
        for i in 0..640u64 {
            let before = capacity(&s);
            s.write_at(i * 100, &[7; 100]);
            grown += usize::from(capacity(&s) != before);
        }
        assert_eq!(grown, (64_000usize).div_ceil(4096));
    }

    #[test]
    fn a_short_chunks_tail_reads_as_zeros() {
        let mut s = SparseBytes::new();
        s.write_at(10, b"data");
        s.truncate(3 * CHUNK_SIZE as u64);
        // Past the chunk's own end, inside its span and beyond it.
        assert_eq!(s.read_range(12, 6), [b't', b'a', 0, 0, 0, 0]);
        assert_eq!(s.read_range(100, 50), vec![0u8; 50]);
        let across = s.read_range(CHUNK_SIZE as u64 - 8, 16);
        assert_eq!(across, vec![0u8; 16]);
        assert!(s.is_zero_range(14, CHUNK_SIZE));
        assert!(s.is_zero_range(5_000, 10));
        assert!(!s.is_zero_range(13, CHUNK_SIZE));
        // Shrinking ends the chunk at the cut; the regrown range is a hole.
        s.truncate(12);
        s.truncate(20);
        assert_eq!(s.read_range(10, 10), [b'd', b'a', 0, 0, 0, 0, 0, 0, 0, 0]);
        assert!(capacity(&s) <= 4096);
    }

    #[test]
    fn a_read_hands_out_the_chunks_and_zero_runs() {
        let mut s = SparseBytes::new();
        s.write_at(0, &vec![3u8; CHUNK_SIZE]);
        s.write_at(2 * CHUNK_SIZE as u64 + 10, b"tail");
        s.truncate(3 * CHUNK_SIZE as u64);
        let read = s.read_range(100, 3 * CHUNK_SIZE);
        let pieces: Vec<Piece<'_>> = read.pieces().collect();
        let chunk0 = s.chunks[&0].as_ptr();
        assert!(matches!(pieces[0], Piece::Bytes(b) if b.as_ptr() == chunk0.wrapping_add(100)));
        // The hole of chunk 1, then chunk 2 up to its end and its tail.
        assert_eq!(pieces[1], Piece::Zeros(CHUNK_SIZE));
        assert_eq!(pieces[2], Piece::Bytes(b"\0\0\0\0\0\0\0\0\0\0tail"));
        assert_eq!(pieces[3], Piece::Zeros(CHUNK_SIZE - 14));
        assert_eq!(read.len(), 3 * CHUNK_SIZE - 100);
    }

    #[test]
    fn a_write_leaves_a_live_read_of_the_chunk_unchanged() {
        let mut s = SparseBytes::new();
        s.write_at(0, &[5u8; 1000]);
        let before = s.read_range(0, 1000);
        s.write_at(10, &[6u8; 20]);
        s.write_at(0, &vec![7u8; CHUNK_SIZE]);
        assert_eq!(before, [5u8; 1000]);
        assert_eq!(s.read_range(0, 2).to_vec(), [7, 7]);
    }

    #[test]
    fn a_payload_write_matches_the_same_bytes_written_as_a_slice() {
        let mut src = SparseBytes::new();
        src.write_at(USED_SPAN as u64 - 5, &[9u8; 10]);
        src.truncate(3 * CHUNK_SIZE as u64);
        let payload = src.read_range(0, 3 * CHUNK_SIZE);
        let mut a = SparseBytes::new();
        let mut b = SparseBytes::new();
        a.write_at(3, &payload);
        b.write_at(3, &payload.to_vec());
        assert_eq!(
            a.read_range(0, 4 * CHUNK_SIZE),
            b.read_range(0, 4 * CHUNK_SIZE).to_vec()
        );
        assert_eq!(a.allocated(), b.allocated());
        assert_eq!(a.allocated(), 2 * USED_SPAN as u64);
    }

    /// A payload of whole shared blocks, one per fill byte.
    fn blocks(fills: &[u8]) -> (Payload, Vec<SharedBytes>) {
        let mut p = Payload::new();
        let blocks: Vec<SharedBytes> = fills.iter().map(|&f| share(vec![f; CHUNK_SIZE])).collect();
        for b in &blocks {
            p.push_shared(Rc::clone(b), 0..CHUNK_SIZE);
        }
        (p, blocks)
    }

    #[test]
    fn a_whole_shared_block_is_kept_by_reference() {
        let (p, blocks) = blocks(&[1, 2, 3]);
        let mut s = SparseBytes::new();
        s.write_at(CHUNK_SIZE as u64, &p);
        for (i, block) in blocks.iter().enumerate() {
            assert!(
                Rc::ptr_eq(&s.chunks[&(i as u64 + 1)], block),
                "chunk {}",
                i + 1
            );
        }
        let mut want = vec![0u8; CHUNK_SIZE];
        want.extend(p.to_vec());
        assert_eq!(s.read_range(0, 4 * CHUNK_SIZE), want);
    }

    #[test]
    fn a_whole_zero_block_leaves_a_hole() {
        let (p, _) = blocks(&[0, 0]);
        let mut s = SparseBytes::new();
        s.write_at(0, &p);
        assert!(s.chunks.is_empty());
        assert_eq!(s.allocated(), 0);
        assert_eq!(s.len(), 2 * CHUNK_SIZE as u64);
        // Over an existing chunk it replaces the chunk, which stays.
        s.write_at(10, b"x");
        s.write_at(0, &p);
        assert_eq!(s.chunks.len(), 1);
        assert_eq!(s.read_range(0, 20), [0u8; 20]);
    }

    #[test]
    fn a_later_partial_write_leaves_the_callers_block_untouched() {
        let (p, blocks) = blocks(&[4]);
        let mut s = SparseBytes::new();
        s.write_at(0, &p);
        s.write_at(100, b"new");
        assert_eq!(*blocks[0], vec![4u8; CHUNK_SIZE]);
        assert!(!Rc::ptr_eq(&s.chunks[&0], &blocks[0]));
        assert_eq!(s.read_range(99, 5), [4, b'n', b'e', b'w', 4]);
    }

    #[test]
    fn a_sub_range_or_two_halves_are_gathered() {
        let big: SharedBytes = Rc::new((0..2 * CHUNK_SIZE).map(|i| i as u8 | 1).collect());
        let mut sub = Payload::new();
        sub.push_shared(Rc::clone(&big), 0..CHUNK_SIZE);
        let mut halves = Payload::new();
        halves.push_shared(Rc::clone(&big), CHUNK_SIZE..CHUNK_SIZE + CHUNK_SIZE / 2);
        halves.push_shared(Rc::clone(&big), CHUNK_SIZE + CHUNK_SIZE / 2..2 * CHUNK_SIZE);
        let mut s = SparseBytes::new();
        s.write_at(0, &sub);
        s.write_at(CHUNK_SIZE as u64, &halves);
        for chunk in s.chunks.values() {
            assert!(!std::ptr::eq(chunk.as_ptr(), big.as_ptr()));
            assert!(!std::ptr::eq(chunk.as_ptr(), big[CHUNK_SIZE..].as_ptr()));
        }
        assert_eq!(s.read_range(0, 2 * CHUNK_SIZE), *big);
    }

    #[test]
    fn allocated_counts_used_spans_not_chunks() {
        let per_span = USED_SPAN / CHUNK_SIZE;
        let mut s = SparseBytes::new();
        // Two chunks of one span.
        s.write_at(10, b"a");
        s.write_at(CHUNK_SIZE as u64 + 10, b"b");
        assert_eq!(s.chunks.len(), per_span);
        assert_eq!(s.allocated(), USED_SPAN as u64);
        // A chunk in a second span.
        s.write_at(2 * USED_SPAN as u64, b"c");
        assert_eq!(s.allocated(), 2 * USED_SPAN as u64);
        // Truncation recounts: a cut at a span's end drops the span after
        // it; a cut through a span keeps it, even when the chunks left of
        // the cut are holes.
        s.truncate(USED_SPAN as u64);
        assert_eq!(s.allocated(), USED_SPAN as u64);
        let mut t = SparseBytes::new();
        t.write_at(CHUNK_SIZE as u64, b"d");
        t.write_at(USED_SPAN as u64 + 1, b"e");
        t.truncate(100);
        assert_eq!(t.allocated(), USED_SPAN as u64);
        assert_eq!(t.read_range(0, 200), [0u8; 100]);
        t.write_at(CHUNK_SIZE as u64, b"f");
        assert_eq!(t.allocated(), USED_SPAN as u64);
        t.truncate(0);
        assert_eq!(t.allocated(), 0);
        assert!(t.chunks.is_empty());
    }

    #[test]
    fn short_read_at_eof() {
        let mut s = SparseBytes::new();
        s.write_at(0, b"abc");
        assert_eq!(s.read_range(1, 100), b"bc");
        assert_eq!(s.read_range(3, 100), b"");
    }
}
