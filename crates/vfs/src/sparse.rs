//! Sparse byte storage for large, mostly-empty files.
//!
//! VM state files are huge but sparse: a 1.6 GB virtual disk whose guest
//! filesystem holds a few hundred megabytes, or a 512 MB memory image that
//! is overwhelmingly zero-filled after boot (the paper's zero-block
//! filtering removes 60,452 of 65,750 reads when resuming such a VM).
//! Storing them densely would make the reproduction needlessly heavy, so
//! file contents live in chunks of a fixed *span* allocated on first
//! write; reads of unwritten ranges yield zeros, exactly like holes in a
//! real filesystem. A chunk's vector ends where its data ends — at the
//! highest byte ever written into its span — and the rest of the span
//! reads as zeros like any hole, so a 159-byte config file or a short
//! redo log costs the host a page, not 64 KB. [`SparseBytes::allocated`]
//! still counts whole chunks: it is what the modelled filesystem reports
//! as used, not what the host holds.
//!
//! Chunks are [`SharedBytes`]: a chunk written whole goes through the
//! content pool ([`share`]), so the clones of one golden image — and a
//! `clone()` of a store — hold one host copy of it between them, and a
//! later partial write copies the chunk first when anyone else holds it
//! ([`Rc::make_mut`]). Sharing is invisible to every accessor here.

use std::collections::BTreeMap;
use std::rc::Rc;

use crate::payload::{is_zero, Payload, PayloadRef};
use crate::shared::{share, SharedBytes};

/// Chunk granularity for sparse allocation (64 KB).
pub const CHUNK_SIZE: usize = 64 * 1024;

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

    /// Bytes actually allocated (the "used" attribute NFS reports).
    pub fn allocated(&self) -> u64 {
        self.chunks.len() as u64 * CHUNK_SIZE as u64
    }

    /// Set the logical length; shrinking drops whole chunks beyond the new
    /// end and shortens the boundary chunk.
    pub fn truncate(&mut self, new_len: u64) {
        if new_len < self.len {
            let first_dead_chunk = new_len.div_ceil(CHUNK_SIZE as u64);
            self.chunks.retain(|&idx, _| idx < first_dead_chunk);
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
                // A whole chunk replaces what was there: gathered once
                // and pooled as shared content.
                if self.chunks.contains_key(&chunk_idx) || !data.is_zero(src.clone()) {
                    let mut chunk = Vec::with_capacity(CHUNK_SIZE);
                    data.extend_vec(src, &mut chunk);
                    self.chunks.insert(chunk_idx, share(chunk));
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
                self.chunks.insert(chunk_idx, Rc::new(chunk));
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
        assert_eq!(s.allocated(), CHUNK_SIZE as u64);
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
        assert_eq!(s.allocated(), CHUNK_SIZE as u64);
        assert_eq!(s.read_range(0, 200), vec![b'x'; 159]);
    }

    #[test]
    fn an_append_stream_grows_in_pages_to_exactly_one_chunk() {
        let mut s = SparseBytes::new();
        for i in 0..16u64 {
            s.write_at(i * 4096, &[i as u8 + 1; 4096]);
            assert_eq!(capacity(&s), (i as usize + 1) * 4096);
        }
        assert_eq!(capacity(&s), CHUNK_SIZE);
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
        src.write_at(CHUNK_SIZE as u64 - 5, &[9u8; 10]);
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
        assert_eq!(a.allocated(), 2 * CHUNK_SIZE as u64);
    }

    #[test]
    fn short_read_at_eof() {
        let mut s = SparseBytes::new();
        s.write_at(0, b"abc");
        assert_eq!(s.read_range(1, 100), b"bc");
        assert_eq!(s.read_range(3, 100), b"");
    }
}
