//! Host-cost gate without a clock for the middleware's content-map scan:
//! a chunk read as several pieces is gathered into one of four buffers
//! the whole scan reuses, and a hole is digested once, so the number of
//! payload-sized allocations does not grow with the file.
//!
//! One `#[test]` in a binary of its own: the allocation counter
//! (`common`) is process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use common::big_allocs;
use gvfs::digest::digest;
use vfs::{Fs, Handle, CHUNK_SIZE};

/// Content-map chunks span two store chunks, so every written one is
/// read as two pieces (or a piece and a zero run) and must be gathered.
const MAP_CHUNK: usize = 2 * CHUNK_SIZE;

/// A file of `chunks` map chunks: every third a hole, every fifth
/// written only in its first half, the rest dense.
fn file(chunks: usize) -> (Fs, Handle, Vec<u8>) {
    let mut fs = Fs::new(0);
    let root = fs.root();
    let h = fs.create(root, "vmss", 0o644, 0).unwrap();
    let mut bytes = vec![0u8; chunks * MAP_CHUNK];
    for (c, chunk) in bytes.chunks_mut(MAP_CHUNK).enumerate() {
        let written = match (c % 3, c % 5) {
            (0, _) => 0,
            (_, 0) => MAP_CHUNK / 2,
            _ => MAP_CHUNK,
        };
        for (i, b) in chunk[..written].iter_mut().enumerate() {
            *b = (i.wrapping_mul(31).wrapping_add(c * 7) % 251) as u8 | 1;
        }
        if written > 0 {
            fs.write(h, (c * MAP_CHUNK) as u64, &chunk[..written], 0)
                .unwrap();
        }
    }
    fs.setattr(h, Some(bytes.len() as u64), None, 0).unwrap();
    (fs, h, bytes)
}

#[test]
fn a_content_map_gathers_into_four_reused_buffers() {
    let mut counts = Vec::new();
    for chunks in [16, 64] {
        let (mut fs, h, bytes) = file(chunks);
        let (map, allocs) =
            big_allocs(|| gvfs::generate_content_map(&mut fs, h, MAP_CHUNK as u32).unwrap());
        let want: Vec<_> = bytes
            .chunks(MAP_CHUNK)
            .map(|c| (digest(c), c.len() as u32))
            .collect();
        assert_eq!(map.records, want, "{chunks} chunks");
        counts.push(allocs);
    }
    assert!(
        counts[1] <= 8,
        "a 64-chunk scan made {} payload-sized allocations",
        counts[1]
    );
    assert_eq!(
        counts[0], counts[1],
        "payload-sized allocations of a 16-chunk and a 64-chunk scan"
    );
}
