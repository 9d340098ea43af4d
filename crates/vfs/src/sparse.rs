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
//! ([`Arc::make_mut`]). Sharing is invisible to every accessor here.

use std::collections::BTreeMap;
use std::sync::Arc;

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
                    let chunk = Arc::make_mut(chunk);
                    chunk.truncate(within);
                    chunk.shrink_to(chunk_capacity(within));
                }
            }
        }
        self.len = new_len;
    }

    /// Read a range as a fresh vector (short at EOF).
    pub fn read_range(&self, offset: u64, len: usize) -> Vec<u8> {
        // Allocated zeroed at its final length: holes need no second fill.
        let mut buf = vec![0u8; self.readable(offset, len)];
        self.copy_into_zeroed(offset, &mut buf);
        buf
    }

    /// How many of `len` bytes at `offset` lie inside the file.
    fn readable(&self, offset: u64, len: usize) -> usize {
        (self.len.saturating_sub(offset)).min(len as u64) as usize
    }

    /// Copy the allocated bytes of `[offset, offset + out.len())`, which
    /// lies inside the file, over an all-zero `out`.
    fn copy_into_zeroed(&self, offset: u64, out: &mut [u8]) {
        let n = out.len();
        let mut pos = 0usize;
        while pos < n {
            let abs = offset + pos as u64;
            let chunk_idx = abs / CHUNK_SIZE as u64;
            let within = (abs % CHUNK_SIZE as u64) as usize;
            let take = (CHUNK_SIZE - within).min(n - pos);
            if let Some(chunk) = self.chunks.get(&chunk_idx) {
                // Past the chunk's own end the span stays zero.
                if within < chunk.len() {
                    let have = take.min(chunk.len() - within);
                    out[pos..pos + have].copy_from_slice(&chunk[within..within + have]);
                }
            }
            pos += take;
        }
    }

    /// Write `data` at `offset`, extending the logical length if needed.
    /// Writing all-zero data into a hole does not allocate a chunk (over
    /// an existing chunk it keeps it allocated). A zero-length write
    /// still extends the file to `offset` (it behaves like the
    /// degenerate end of a write ending at `offset`), matching the dense
    /// reference model the property tests check against.
    pub fn write_at(&mut self, offset: u64, data: &[u8]) {
        let end = offset + data.len() as u64;
        let mut pos = 0usize;
        while pos < data.len() {
            let abs = offset + pos as u64;
            let chunk_idx = abs / CHUNK_SIZE as u64;
            let within = (abs % CHUNK_SIZE as u64) as usize;
            let take = (CHUNK_SIZE - within).min(data.len() - pos);
            let src = &data[pos..pos + take];
            let nonzero = || src.iter().any(|&b| b != 0);
            if take == CHUNK_SIZE {
                // A whole chunk replaces what was there: shared content.
                if self.chunks.contains_key(&chunk_idx) || nonzero() {
                    self.chunks.insert(chunk_idx, share(src.to_vec()));
                }
            } else if let Some(chunk) = self.chunks.get_mut(&chunk_idx) {
                let chunk = Arc::make_mut(chunk);
                let end = within + take;
                if chunk.len() < end {
                    chunk.reserve_exact(chunk_capacity(end) - chunk.len());
                    chunk.resize(end, 0);
                }
                chunk[within..end].copy_from_slice(src);
            } else if nonzero() {
                let mut chunk = Vec::with_capacity(chunk_capacity(within + take));
                chunk.resize(within, 0);
                chunk.extend_from_slice(src);
                self.chunks.insert(chunk_idx, Arc::new(chunk));
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
            if chunk[lo..hi].iter().any(|&b| b != 0) {
                return false;
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let r = s.read_range(0, 200);
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
    fn short_read_at_eof() {
        let mut s = SparseBytes::new();
        s.write_at(0, b"abc");
        assert_eq!(s.read_range(1, 100), b"bc");
        assert_eq!(s.read_range(3, 100), b"");
    }
}
