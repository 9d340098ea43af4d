//! Property-based invariants for the filesystem substrate.

use std::collections::BTreeSet;
use std::sync::Arc;

use proptest::prelude::*;
use vfs::{share, share_slice, Fs, LruMap, SharedBytes, SparseBytes, CHUNK_SIZE};

/// A `SparseBytes` next to the dense model it must match and the set of
/// chunks the allocation rule says exist: a chunk is allocated by the
/// first non-zero byte written into it and stays until truncated away,
/// whatever is written over it and however its bytes are held.
#[derive(Clone, Default)]
struct Modelled {
    sparse: SparseBytes,
    dense: Vec<u8>,
    chunks: BTreeSet<usize>,
}

impl Modelled {
    fn write(&mut self, off: usize, data: &[u8]) {
        self.sparse.write_at(off as u64, data);
        let end = off + data.len();
        if self.dense.len() < end {
            self.dense.resize(end, 0);
        }
        self.dense[off..end].copy_from_slice(data);
        let mut pos = 0;
        while pos < data.len() {
            let abs = off + pos;
            let take = (CHUNK_SIZE - abs % CHUNK_SIZE).min(data.len() - pos);
            if data[pos..pos + take].iter().any(|&b| b != 0) {
                self.chunks.insert(abs / CHUNK_SIZE);
            }
            pos += take;
        }
    }

    fn truncate(&mut self, n: usize) {
        self.sparse.truncate(n as u64);
        if n < self.dense.len() {
            self.chunks.retain(|&c| c < n.div_ceil(CHUNK_SIZE));
        }
        self.dense.resize(n, 0);
    }

    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.sparse.len(), self.dense.len() as u64);
        prop_assert_eq!(
            self.sparse.allocated(),
            (self.chunks.len() * CHUNK_SIZE) as u64
        );
        prop_assert!(self.sparse.read_range(0, self.dense.len() + 1) == self.dense);
        // The file's last chunk-length of bytes: where a short chunk's
        // implicit tail is, when there is one.
        let tail = self.dense.len().saturating_sub(CHUNK_SIZE);
        prop_assert_eq!(
            self.sparse
                .is_zero_range(tail as u64, self.dense.len() - tail),
            self.dense[tail..].iter().all(|&b| b == 0)
        );
        Ok(())
    }
}

/// Whole-chunk contents that recur, so chunk-aligned writes share: all
/// zeros (allocates nothing in a hole, keeps an existing chunk), a
/// fill, and a pattern.
fn palette(pick: u8) -> Vec<u8> {
    match pick {
        0 => vec![0u8; CHUNK_SIZE],
        1 => vec![0xAA; CHUNK_SIZE],
        _ => (0..CHUNK_SIZE).map(|i| (i / 3) as u8).collect(),
    }
}

proptest! {
    /// SparseBytes matches a dense reference model under arbitrary
    /// write/truncate/read sequences — unaligned writes, chunk-aligned
    /// whole-chunk writes of recurring content, truncation, and what
    /// short chunks live on: sub-page writes at small offsets, append
    /// streams, truncate-then-extend inside one chunk — applied to
    /// two stores, one of which is replaced mid-sequence by a `clone()`
    /// of the other. Both keep taking writes and both are compared in
    /// full after every step: a write through one owner of a shared
    /// chunk must never show through another.
    #[test]
    fn sparse_bytes_matches_dense_model(
        ops in proptest::collection::vec(
            (any::<bool>(), prop_oneof![
                // (offset, data) write
                (0usize..300_000, proptest::collection::vec(any::<u8>(), 0..5_000)).prop_map(|(o, d)| (0u8, o, d)),
                // (first chunk, palette picks) chunk-aligned whole-chunk write
                (0usize..5, proptest::collection::vec(0u8..3, 1..4)).prop_map(|(c, picks)| (0u8, c * CHUNK_SIZE, picks.into_iter().flat_map(palette).collect())),
                // sub-page write at a small offset
                (0usize..9_000, proptest::collection::vec(any::<u8>(), 1..300)).prop_map(|(o, d)| (0u8, o, d)),
                // (records, record) append stream at the current end
                (1usize..40, proptest::collection::vec(any::<u8>(), 1..2_000)).prop_map(|(n, d)| (3u8, n, d)),
                // truncate
                (0usize..300_000).prop_map(|n| (1u8, n, Vec::new())),
                // (cut, regrowth) truncate then extend inside chunk 0
                (0usize..CHUNK_SIZE, 0usize..CHUNK_SIZE).prop_map(|(cut, grow)| (4u8, cut, vec![0; grow])),
                // replace this store by a clone of the other
                (0usize..1).prop_map(|n| (2u8, n, Vec::new())),
            ]),
            1..25
        )
    ) {
        let mut stores = [Modelled::default(), Modelled::default()];
        for (which, (kind, off, data)) in ops {
            let which = which as usize;
            match kind {
                0 => stores[which].write(off, &data),
                1 => stores[which].truncate(off),
                2 => stores[which] = stores[1 - which].clone(),
                3 => for _ in 0..off {
                    let end = stores[which].dense.len();
                    stores[which].write(end, &data);
                    stores[which].check()?;
                },
                _ => {
                    stores[which].truncate(off);
                    stores[which].check()?;
                    stores[which].truncate((off + data.len()).min(CHUNK_SIZE));
                }
            }
            stores[0].check()?;
            stores[1].check()?;
        }
        for Modelled { sparse, dense, .. } in &stores {
            // Random window equality.
            if !dense.is_empty() {
                let mid = dense.len() / 2;
                prop_assert_eq!(sparse.read_range(mid as u64, 1000),
                    dense[mid..(mid + 1000).min(dense.len())].to_vec());
            }
            // is_zero_range agrees with the dense model.
            let probe = dense.len() / 3;
            let window = 70_000.min(dense.len().saturating_sub(probe));
            let dense_zero = dense[probe..probe + window].iter().all(|&b| b == 0);
            prop_assert_eq!(sparse.is_zero_range(probe as u64, window), dense_zero);
        }
    }

    /// The content pool against a model of who holds what, under both
    /// of its entries: whichever way a payload comes in — owned or
    /// borrowed — it comes back as the allocation every other pooled
    /// holder of those bytes has, holding exactly those bytes; dropping
    /// holders never breaks that for the rest; and a write through one
    /// holder (`Arc::make_mut`) shows through no other.
    #[test]
    fn pool_hands_out_one_allocation_per_content_through_either_entry(
        ops in proptest::collection::vec((0u8..4, 0usize..6, any::<bool>()), 1..60)
    ) {
        // Contents no other test pools.
        let content = |pick: usize| {
            let mut v = b"pool-model".to_vec();
            v.resize(300 + pick, 0xC0 + pick as u8);
            v
        };
        // (holder, whether it is still the pooled allocation)
        let mut holders: Vec<(SharedBytes, bool)> = Vec::new();
        for (kind, pick, borrowed) in ops {
            match kind {
                0 | 1 => {
                    let bytes = content(pick);
                    let got = if borrowed { share_slice(&bytes) } else { share(bytes) };
                    prop_assert_eq!(&*got, &content(pick));
                    for (held, pooled) in &holders {
                        if *pooled && **held == *got {
                            prop_assert!(Arc::ptr_eq(held, &got));
                        }
                    }
                    holders.push((got, true));
                }
                2 if !holders.is_empty() => {
                    holders.swap_remove(pick % holders.len());
                }
                3 if !holders.is_empty() => {
                    let at = pick % holders.len();
                    let before: Vec<Vec<u8>> = holders.iter().map(|(h, _)| h.to_vec()).collect();
                    let (held, pooled) = &mut holders[at];
                    Arc::make_mut(held)[0] ^= 0xFF;
                    *pooled = false;
                    for (i, (h, _)) in holders.iter().enumerate() {
                        if i != at {
                            prop_assert_eq!(&**h, &before[i]);
                        }
                    }
                }
                _ => {}
            }
        }
    }

    /// The LRU map never exceeds capacity, and membership matches a
    /// naive model.
    #[test]
    fn lru_matches_naive_model(
        cap in 1usize..20,
        ops in proptest::collection::vec((0u32..40, any::<bool>()), 1..200)
    ) {
        let mut lru = LruMap::new(cap);
        let mut model: Vec<u32> = Vec::new(); // MRU-first
        for (key, is_insert) in ops {
            if is_insert {
                lru.insert(key, ());
                model.retain(|&k| k != key);
                model.insert(0, key);
                model.truncate(cap);
            } else {
                let hit = lru.get(&key).is_some();
                let model_hit = model.contains(&key);
                prop_assert_eq!(hit, model_hit);
                if model_hit {
                    model.retain(|&k| k != key);
                    model.insert(0, key);
                }
            }
            prop_assert!(lru.len() <= cap);
            prop_assert_eq!(lru.len(), model.len());
        }
        let order: Vec<u32> = lru.iter_mru().map(|(k, _)| *k).collect();
        prop_assert_eq!(order, model);
    }

    /// Filesystem namespace operations keep lookup/readdir consistent.
    #[test]
    fn fs_namespace_stays_consistent(names in proptest::collection::vec("[a-z]{1,8}", 1..20)) {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let mut expect: Vec<String> = Vec::new();
        for n in &names {
            match fs.create(root, n, 0o644, 0) {
                Ok(_) => expect.push(n.clone()),
                Err(vfs::FsError::Exists) => {}
                Err(e) => return Err(TestCaseError::fail(format!("{e:?}"))),
            }
        }
        expect.sort();
        expect.dedup();
        let listed: Vec<String> = fs.readdir(root).unwrap().into_iter().map(|(n, _)| n).collect();
        prop_assert_eq!(&listed, &expect);
        for n in &expect {
            prop_assert!(fs.lookup(root, n).is_ok());
        }
        // Remove half, verify again.
        let (gone, kept) = expect.split_at(expect.len() / 2);
        for n in gone {
            fs.remove(root, n, 1).unwrap();
        }
        for n in gone {
            prop_assert!(fs.lookup(root, n).is_err());
        }
        for n in kept {
            prop_assert!(fs.lookup(root, n).is_ok());
        }
    }

    /// File writes through Fs read back exactly (offset reads included).
    #[test]
    fn fs_file_io_round_trips(
        writes in proptest::collection::vec((0u64..100_000, proptest::collection::vec(any::<u8>(), 1..2_000)), 1..10)
    ) {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let f = fs.create(root, "f", 0o644, 0).unwrap();
        let mut dense: Vec<u8> = Vec::new();
        for (off, data) in &writes {
            fs.write(f, *off, data, 0).unwrap();
            let end = *off as usize + data.len();
            if dense.len() < end {
                dense.resize(end, 0);
            }
            dense[*off as usize..end].copy_from_slice(data);
        }
        let (back, eof) = fs.read(f, 0, dense.len() + 10, 0).unwrap();
        prop_assert_eq!(back, dense.clone());
        prop_assert!(eof);
        prop_assert_eq!(fs.size(f).unwrap(), dense.len() as u64);
    }
}
