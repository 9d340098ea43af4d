//! Host-cost gate without a clock for a reference READ: a 32 KiB read of
//! a copy-on-write clone's chunk, which lives codec-compressed in the
//! proxy's content store. The store seeks to the range with the entry's
//! record index and decodes it straight into the one vector the READ
//! reply is encoded from, so each read makes one payload-sized
//! allocation, however many records the chunk's stream holds.
//!
//! One `#[test]` in a binary of its own: the allocation counter
//! (`common`) is process-wide.

#![allow(clippy::unwrap_used, clippy::expect_used)]

mod common;

use std::sync::Arc;

use common::big_allocs;
use gvfs::{ContentStore, FileCache};
use simnet::Simulation;
use vfs::{Disk, DiskModel, Handle};

const CHUNK: usize = 1 << 20;
const READ: usize = 32 * 1024;

/// A dense chunk: a single literal record.
fn few_records() -> Vec<u8> {
    (0..CHUNK).map(|i| (i % 251) as u8 | 1).collect()
}

/// A memory-image-like chunk: short literals between short zero and
/// byte runs, a few thousand records.
fn many_records() -> Vec<u8> {
    (0..CHUNK)
        .map(|i| match i % 320 {
            0..=99 => 0,
            100..=199 => 0x5A,
            r => (r * 7 % 251) as u8 | 1,
        })
        .collect()
}

#[test]
fn a_reference_read_decodes_into_its_one_reply_vector() {
    let sim = Simulation::new();
    let h = sim.handle();
    let cache = FileCache::new(Disk::new(&h, DiskModel::scsi_2004()), 1 << 30);
    sim.spawn("reader", move |env| {
        let cas = Arc::new(ContentStore::new(1 << 30));
        for (file, chunk) in [few_records(), many_records()].into_iter().enumerate() {
            let key = Handle {
                fileid: file as u64 + 1,
                generation: 0,
            };
            let d = cas.insert_pinned(&chunk);
            cache.install_reference(
                &env,
                key,
                cas.clone(),
                CHUNK as u32,
                vec![(d, CHUNK as u32)],
                0,
            );
            for at in (0..CHUNK).step_by(READ) {
                let (read, allocs) = big_allocs(|| {
                    cache
                        .read(&env, key, at as u64, READ as u32)
                        .unwrap()
                        .unwrap()
                });
                assert_eq!(read.0, &chunk[at..at + READ], "file {file} at {at}");
                assert_eq!(
                    allocs, 1,
                    "file {file}: payload-sized allocations of the read at {at}"
                );
            }
        }
    });
    sim.run();
}
