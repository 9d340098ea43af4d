//! Property-based invariants for the filesystem substrate.

use std::cell::RefCell;
use std::collections::BTreeSet;
use std::rc::Rc;

use proptest::prelude::*;
use simnet::{Env, SimDuration, Simulation};
use vfs::{
    share, share_slice, Disk, DiskModel, FileIo, Fs, LocalIo, LocalIoConfig, LruMap, PageCache,
    Payload, Piece, SharedBytes, SparseBytes, CHUNK_SIZE, USED_SPAN,
};

/// A `SparseBytes` next to the dense model it must match and the set of
/// used spans the allocation rule says exist: a [`USED_SPAN`] is
/// allocated by the first non-zero byte written into it and stays until
/// truncated away, whatever is written over it, however its bytes are
/// held and however many store chunks it holds.
#[derive(Clone, Default)]
struct Modelled {
    sparse: SparseBytes,
    dense: Vec<u8>,
    spans: BTreeSet<usize>,
}

impl Modelled {
    fn write(&mut self, off: usize, data: &[u8]) {
        self.sparse.write_at(off as u64, data);
        self.model_write(off, data);
    }

    /// The same write, handed over as a payload's pieces.
    fn write_payload(&mut self, off: usize, data: &Payload) {
        self.sparse.write_at(off as u64, data);
        self.model_write(off, &data.to_vec());
    }

    fn model_write(&mut self, off: usize, data: &[u8]) {
        let end = off + data.len();
        if self.dense.len() < end {
            self.dense.resize(end, 0);
        }
        self.dense[off..end].copy_from_slice(data);
        let mut pos = 0;
        while pos < data.len() {
            let abs = off + pos;
            let take = (USED_SPAN - abs % USED_SPAN).min(data.len() - pos);
            if data[pos..pos + take].iter().any(|&b| b != 0) {
                self.spans.insert(abs / USED_SPAN);
            }
            pos += take;
        }
    }

    fn truncate(&mut self, n: usize) {
        self.sparse.truncate(n as u64);
        if n < self.dense.len() {
            self.spans.retain(|&c| c < n.div_ceil(USED_SPAN));
        }
        self.dense.resize(n, 0);
    }

    fn check(&self) -> Result<(), TestCaseError> {
        prop_assert_eq!(self.sparse.len(), self.dense.len() as u64);
        prop_assert_eq!(
            self.sparse.allocated(),
            (self.spans.len() * USED_SPAN) as u64
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

/// Op arguments packed into the op's byte vector, and read back.
fn words(values: &[usize]) -> Vec<u8> {
    values
        .iter()
        .flat_map(|v| (*v as u64).to_le_bytes())
        .collect()
}

fn word(data: &[u8], i: usize) -> usize {
    u64::from_le_bytes(data[i * 8..i * 8 + 8].try_into().unwrap()) as usize
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

/// `LocalIo`'s page-cache charges as they were made before the dirty
/// index: every flush scans the whole LRU for dirty blocks, then marks
/// each one most recently used, the most recent one first. The model the
/// indexed write-back must reproduce to the virtual nanosecond.
struct ScanModel {
    cache: LruMap<(u64, u64), bool>, // (fileid, block) -> dirty
    last_block_read: Option<(u64, u64)>,
    disk: Disk,
    cfg: LocalIoConfig,
}

impl ScanModel {
    fn block_range(&self, offset: u64, len: usize) -> (u64, u64) {
        let bs = self.cfg.block_size as u64;
        (offset / bs, (offset + len as u64 - 1) / bs)
    }

    fn read(&mut self, env: &Env, fileid: u64, offset: u64, len: usize) {
        let (first, last) = self.block_range(offset, len);
        let bs = self.cfg.block_size as u64;
        for b in first..=last {
            let hit = self.cache.get(&(fileid, b)).is_some();
            let sequential = self.last_block_read == Some((fileid, b.wrapping_sub(1)));
            self.last_block_read = Some((fileid, b));
            if hit {
                env.sleep(self.cfg.hit_cost);
            } else if let Some((_, true)) = self.cache.insert((fileid, b), false) {
                self.disk.stream_io(env, bs);
                env.sleep(self.cfg.hit_cost);
            } else if sequential {
                self.disk.stream_io(env, bs);
            } else {
                self.disk.random_io(env, bs);
            }
        }
    }

    fn write(&mut self, env: &Env, fileid: u64, offset: u64, len: usize) {
        let (first, last) = self.block_range(offset, len);
        for b in first..=last {
            let evicted = self.cache.insert((fileid, b), true);
            env.sleep(self.cfg.hit_cost);
            if let Some((_, true)) = evicted {
                self.disk.stream_io(env, self.cfg.block_size as u64);
            }
        }
    }

    fn flush(&mut self, env: &Env, only_file: Option<u64>) -> u64 {
        let keys: Vec<(u64, u64)> = self
            .cache
            .iter_mru()
            .filter(|((f, _), dirty)| **dirty && only_file.is_none_or(|of| *f == of))
            .map(|(k, _)| *k)
            .collect();
        for k in &keys {
            *self.cache.get_mut(k).expect("cached") = false;
        }
        let n = keys.len() as u64;
        if n > 0 {
            self.disk.sequential_io(env, n * self.cfg.block_size as u64);
        }
        n
    }

    fn cached_blocks(&self) -> Vec<((u64, u64), bool)> {
        self.cache.iter_mru().map(|(k, d)| (*k, *d)).collect()
    }
}

/// A cached block as [`RecencyList`] holds it: key, value, dirty tag.
type Entry = ((u64, u64), u32, Option<u8>);

/// The plain model of a `PageCache`: its blocks in a list, most recently
/// used first, each with its dirty tag.
struct RecencyList {
    capacity: usize,
    entries: Vec<Entry>,
}

impl RecencyList {
    fn position(&self, key: (u64, u64)) -> Option<usize> {
        self.entries.iter().position(|(k, ..)| *k == key)
    }

    /// Moves the entry at `at` to the front.
    fn touch(&mut self, at: usize) -> &mut Entry {
        let entry = self.entries.remove(at);
        self.entries.insert(0, entry);
        &mut self.entries[0]
    }

    fn insert(&mut self, key: (u64, u64), value: u32, dirty: Option<u8>) -> Option<Entry> {
        if let Some(at) = self.position(key) {
            *self.touch(at) = (key, value, dirty);
            return None;
        }
        let evicted = (self.entries.len() == self.capacity).then(|| self.entries.pop().unwrap());
        self.entries.insert(0, (key, value, dirty));
        evicted
    }

    fn fill(&mut self, key: (u64, u64), value: u32) -> (u32, Option<Entry>) {
        match self.position(key) {
            Some(at) if self.entries[at].2.is_some() => (self.touch(at).1, None),
            _ => (value, self.insert(key, value, None)),
        }
    }

    /// The dirty blocks `pick` accepts, most recent first, each touched in
    /// that order and left clean.
    fn take_dirty(&mut self, pick: impl Fn(u64) -> bool) -> Vec<((u64, u64), u32, u8)> {
        let taken: Vec<_> = self
            .entries
            .iter()
            .filter_map(|&(k, v, d)| Some((k, v, d.filter(|_| pick(k.0))?)))
            .collect();
        for (key, ..) in &taken {
            let at = self.position(*key).unwrap();
            self.touch(at).2 = None;
        }
        taken
    }
}

/// One step of [`page_cache_matches_a_recency_list`]: kind (0 insert of
/// a written block, 1 `get_mut`, 2 fill, 3 `get`, 4 take one file's dirty
/// blocks, 5 take all), file, block, dirty tag.
type PageOp = (u8, u64, u64, u8);

/// Runs `ops` against a `PageCache` of `capacity` blocks and a
/// [`RecencyList`]; the first disagreement, if any.
fn page_cache_diverges(capacity: usize, ops: Vec<PageOp>) -> Option<String> {
    let mut cache: PageCache<u32, u8> = PageCache::new(capacity);
    let mut model = RecencyList {
        capacity,
        entries: Vec::new(),
    };
    for (step, (kind, file, block, tag)) in ops.into_iter().enumerate() {
        let (key, value) = ((file, block), step as u32);
        let (got, want) = match kind {
            0 => {
                let got = cache.insert(key, value, tag);
                let want = model.insert(key, value, Some(tag));
                (format!("{got:?}"), format!("{want:?}"))
            }
            1 => {
                let got = cache
                    .get_mut(&key, tag)
                    .map(|v| std::mem::replace(v, value));
                let want = model.position(key).map(|at| {
                    let entry = model.touch(at);
                    entry.2 = Some(tag);
                    std::mem::replace(&mut entry.1, value)
                });
                (format!("{got:?}"), format!("{want:?}"))
            }
            2 => {
                let (held, evicted) = cache.fill(key, value);
                (
                    format!("{:?}", (*held, evicted)),
                    format!("{:?}", model.fill(key, value)),
                )
            }
            3 => {
                let got = cache.get(&key).copied();
                let want = model.position(key).map(|at| model.touch(at).1);
                (format!("{got:?}"), format!("{want:?}"))
            }
            4 => (
                format!("{:?}", cache.take_dirty(Some(file))),
                format!("{:?}", model.take_dirty(|f| f == file)),
            ),
            _ => (
                format!("{:?}", cache.take_dirty(None)),
                format!("{:?}", model.take_dirty(|_| true)),
            ),
        };
        let order: Vec<Entry> = cache
            .iter_mru()
            .map(|(k, v)| (*k, *v, cache.is_dirty(k).then_some(0)))
            .collect();
        let model_order: Vec<Entry> = model
            .entries
            .iter()
            .map(|&(k, v, d)| (k, v, d.map(|_| 0)))
            .collect();
        let dirty_len = model.entries.iter().filter(|e| e.2.is_some()).count();
        let stray = (0..3)
            .flat_map(|f| (0..4).map(move |b| (f, b)))
            .find(|k| cache.is_dirty(k) && !cache.contains(k));
        let what = if got != want {
            format!("returned {got}, the model {want}")
        } else if order != model_order {
            format!("cache {order:?}, the model {model_order:?}")
        } else if cache.dirty_len() != dirty_len || cache.len() != model.entries.len() {
            format!(
                "{} dirty of {}, the model {dirty_len} of {}",
                cache.dirty_len(),
                cache.len(),
                model.entries.len()
            )
        } else if let Some(k) = stray {
            format!("{k:?} is dirty-indexed but not cached")
        } else if cache.most_recent_dirty() != model.entries.iter().find_map(|e| e.2.as_ref()) {
            format!("most recent dirty tag {:?}", cache.most_recent_dirty())
        } else {
            continue;
        };
        return Some(format!("step {step} (op {kind}): {what}"));
    }
    None
}

/// One step of [`local_io_write_back_matches_the_full_scan`]: kind
/// (0–2 read, 3–5 write, 6 close, 7 sync), file, byte offset, length.
type CacheOp = (u8, usize, u64, u64);

/// Runs `ops` against a `LocalIo` and a [`ScanModel`] with an 8-block
/// cache over four files; the first disagreement, if any.
fn diverges_from_the_scan(ops: Vec<CacheOp>) -> Option<String> {
    const BS: u64 = 4096;
    let sim = Simulation::new();
    let h = sim.handle();
    let cfg = LocalIoConfig {
        block_size: BS as u32,
        cache_bytes: 8 * BS,
        hit_cost: SimDuration::from_micros(20),
    };
    let io = LocalIo::new(Disk::new(&h, DiskModel::scsi_2004()), cfg, 0);
    let mut model = ScanModel {
        cache: LruMap::new(8),
        last_block_read: None,
        disk: Disk::new(&h, DiskModel::scsi_2004()),
        cfg,
    };
    let found = Rc::new(RefCell::new(None));
    let report = Rc::clone(&found);
    sim.spawn("ops", move |env| {
        let files: Vec<_> = (0..4)
            .map(|i| io.create_path(&env, &format!("f{i}")).expect("create"))
            .collect();
        let dirty = |blocks: &[((u64, u64), bool)]| blocks.iter().filter(|(_, d)| *d).count();
        for (step, (kind, file, offset, len)) in ops.into_iter().enumerate() {
            let f = files[file];
            let before = dirty(&io.cached_blocks());
            let t0 = env.now();
            let mut model_flushed = None;
            let t1 = match kind {
                0..=2 => {
                    let got = io.read(&env, f, offset, len as u32).expect("read").len();
                    let t1 = env.now();
                    if got > 0 {
                        model.read(&env, f.fileid, offset, got);
                    }
                    t1
                }
                3..=5 => {
                    let data = Payload::from(vec![kind; len as usize]);
                    io.write(&env, f, offset, &data).expect("write");
                    let t1 = env.now();
                    model.write(&env, f.fileid, offset, len as usize);
                    t1
                }
                6 => {
                    io.close(&env, f).expect("close");
                    let t1 = env.now();
                    model_flushed = Some(model.flush(&env, Some(f.fileid)));
                    t1
                }
                _ => {
                    io.sync(&env).expect("sync");
                    let t1 = env.now();
                    model_flushed = Some(model.flush(&env, None));
                    t1
                }
            };
            let (io_took, model_took) = (t1 - t0, env.now() - t1);
            let cached = io.cached_blocks();
            let what = if io_took != model_took {
                format!("took {io_took}, the scan {model_took}")
            } else if cached != model.cached_blocks() {
                format!("cache {cached:?}, the scan {:?}", model.cached_blocks())
            } else if model_flushed.is_some_and(|n| before != dirty(&cached) + n as usize) {
                let flushed = before - dirty(&cached);
                format!("flushed {flushed}, the scan {model_flushed:?}")
            } else {
                continue;
            };
            *report.borrow_mut() = Some(format!("step {step} (op {kind}): {what}"));
            return;
        }
    });
    sim.run();
    found.take()
}

proptest! {
    /// `LocalIo`'s indexed write-back flushes, charges and reorders its
    /// page cache exactly as a scan of the whole cache did, with dirty
    /// blocks evicted by reads and writes along the way.
    #[test]
    fn local_io_write_back_matches_the_full_scan(
        ops in proptest::collection::vec((0u8..8, 0usize..4, 0u64..24 * 4096, 1u64..5 * 4096), 1..120)
    ) {
        let found = diverges_from_the_scan(ops);
        prop_assert!(found.is_none(), "{}", found.unwrap_or_default());
    }

    /// `PageCache` against a list in recency order with a dirty tag per
    /// block: the evicted and taken blocks, the recency order, the dirty
    /// count and that only cached blocks are dirty-indexed, after every
    /// dirty insert, clean fill, `get_mut`, `get`, one file's flush and a
    /// flush of all, over three files in a 4–8-block cache.
    #[test]
    fn page_cache_matches_a_recency_list(
        capacity in 4usize..9,
        ops in proptest::collection::vec((0u8..6, 0u64..3, 0u64..4, 0u8..3), 1..150)
    ) {
        let found = page_cache_diverges(capacity, ops);
        prop_assert!(found.is_none(), "{}", found.unwrap_or_default());
    }

    /// SparseBytes matches a dense reference model under arbitrary
    /// write/truncate/read sequences — unaligned writes, chunk-aligned
    /// whole-chunk writes of recurring content, truncation, and what
    /// short chunks live on: sub-page writes at small offsets, append
    /// streams, truncate-then-extend inside one chunk — applied to
    /// two stores, one of which is replaced mid-sequence by a `clone()`
    /// of the other. Both keep taking writes and both are compared in
    /// full after every step: a write through one owner of a shared
    /// chunk must never show through another. Payloads go both ways: a
    /// range of one store — holes, short-chunk tails, chunk-crossing —
    /// is read as a payload and written into the other (chunk-aligned,
    /// so whole chunks are kept by reference), a payload held across
    /// later writes keeps its bytes, and a zero run written over
    /// an existing chunk keeps it allocated as a byte write does.
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
                // (destination, [source, length]) payload copy from the other store
                (0usize..300_000, 0usize..300_000, 0usize..150_000).prop_map(|(o, src, n)| (5u8, o, words(&[src, n]))),
                // the same, chunk-aligned: whole shared chunks, kept by reference
                (0usize..8, 0usize..8, 1usize..4).prop_map(|(o, src, n)| (5u8, o * CHUNK_SIZE, words(&[src * CHUNK_SIZE, n * CHUNK_SIZE]))),
                // (offset, [length]) zero run
                (0usize..300_000, 0usize..150_000).prop_map(|(o, n)| (6u8, o, words(&[n]))),
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
                5 => {
                    let (src, n) = (word(&data, 0), word(&data, 1));
                    let other = &stores[1 - which];
                    let read = other.sparse.read_range(src as u64, n);
                    let dense = &other.dense;
                    let want = dense[src.min(dense.len())..(src + n).min(dense.len())].to_vec();
                    prop_assert!(read == want);
                    // A zero run stands only for zeros.
                    for piece in read.pieces() {
                        prop_assert!(!piece.is_empty());
                    }
                    let zero_runs: usize = read.pieces().filter_map(|p| match p {
                        Piece::Zeros(n) => Some(n),
                        Piece::Bytes(_) => None,
                    }).sum();
                    prop_assert!(zero_runs <= want.iter().filter(|&&b| b == 0).count());
                    stores[which].write_payload(off, &read);
                    // The read is a live reference: a later write into the
                    // chunks it came from leaves it as it was.
                    stores[1 - which].write(src, &vec![0x77; n.min(3_000)]);
                    prop_assert!(read == want);
                }
                6 => stores[which].write_payload(off, &Payload::zeros(word(&data, 0))),
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
    /// holder (`Rc::make_mut`) shows through no other.
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
                            prop_assert!(Rc::ptr_eq(held, &got));
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
                    Rc::make_mut(held)[0] ^= 0xFF;
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

    /// The LRU map never exceeds capacity, and membership, values and
    /// recency match a naive model through inserts, touching lookups,
    /// removals and lookups that must leave recency alone (`peek`,
    /// `peek_mut`); `iter_lru` is `iter_mru` reversed throughout.
    #[test]
    fn lru_matches_naive_model(
        cap in 1usize..20,
        ops in proptest::collection::vec((0u8..5, 0u32..40), 1..200)
    ) {
        let mut lru = LruMap::new(cap);
        let mut model: Vec<(u32, u32)> = Vec::new(); // (key, value), MRU-first
        for (op, key) in ops {
            let at = model.iter().position(|&(k, _)| k == key);
            let value = at.map(|i| model[i].1);
            match op {
                0 => {
                    lru.insert(key, 0);
                    model.retain(|&(k, _)| k != key);
                    model.insert(0, (key, 0));
                    model.truncate(cap);
                }
                1 => {
                    prop_assert_eq!(lru.get(&key).copied(), value);
                    if let Some(i) = at {
                        let entry = model.remove(i);
                        model.insert(0, entry);
                    }
                }
                2 => prop_assert_eq!(lru.peek(&key).copied(), value),
                3 => {
                    let bumped = lru.peek_mut(&key).map(|v| {
                        *v += 1;
                        *v
                    });
                    prop_assert_eq!(bumped, value.map(|v| v + 1));
                    if let Some(i) = at {
                        model[i].1 += 1;
                    }
                }
                _ => {
                    prop_assert_eq!(lru.remove(&key), value);
                    if let Some(i) = at {
                        model.remove(i);
                    }
                }
            }
            prop_assert!(lru.len() <= cap);
            let order: Vec<(u32, u32)> = lru.iter_mru().map(|(k, v)| (*k, *v)).collect();
            prop_assert_eq!(&order, &model);
            let mut lru_first: Vec<(u32, u32)> = lru.iter_lru().map(|(k, v)| (*k, *v)).collect();
            lru_first.reverse();
            prop_assert_eq!(lru_first, order);
        }
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
