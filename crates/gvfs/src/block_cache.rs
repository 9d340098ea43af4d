//! The proxy-managed, block-based disk cache (paper §3.2.1).
//!
//! Structured like a hardware cache, as the paper describes: the cache
//! consists of **file banks** holding **frames** for data blocks and tags.
//! Banks are created on the local disk on demand; indexing hashes the NFS
//! file handle and offset, with consecutive blocks of a file mapped to
//! consecutive sets to exploit spatial locality; sets are N-way
//! associative with LRU replacement. Caches are configurable in size,
//! associativity and block size (up to the 32 KB NFS limit), support
//! write-back or write-through policies, and can be shared read-only
//! between proxies.
//!
//! All frame accesses charge local-disk time (sequential streaming when
//! the access pattern is sequential, positioning otherwise) — the whole
//! point of the design is that a local disk is much closer than a
//! wide-area server.
//!
//! The paper's frames live on that disk; ours live in host memory, so a
//! frame's payload is a [`SharedBytes`]. A frame inserted clean is pooled
//! by content ([`vfs::share`]) — a guest disk is mostly holes, and the
//! zero block, or any block the kernel client's buffer also holds, exists
//! once however many frames carry it. A frame born dirty is private.
//! Every mutation goes through [`Arc::make_mut`]: it writes in place
//! when the frame is the only holder and copies first when the pool, a
//! twin frame or a flush in progress ([`BlockCache::take_dirty`] hands
//! out references, not copies) still reads the old bytes. None of this
//! is visible in virtual time, in the byte accounting or in a counter.

use std::collections::HashMap;
use std::ops::Range;
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::telemetry::Counter;
use simnet::{Env, SimHandle};
use vfs::{share, Disk, SharedBytes};

/// Write policy for cached writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePolicy {
    /// Forward writes upstream synchronously (cache is still updated).
    WriteThrough,
    /// Absorb writes locally; flush on middleware signal.
    WriteBack,
}

/// Identifies one cached block.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Tag {
    /// Inode number from the NFS file handle.
    pub fileid: u64,
    /// Handle generation.
    pub generation: u64,
    /// Block index (offset / block_size).
    pub block: u64,
}

/// Geometry and policy of a block cache.
#[derive(Debug, Clone, Copy)]
pub struct BlockCacheConfig {
    /// Number of file banks.
    pub banks: usize,
    /// Sets per bank.
    pub sets_per_bank: usize,
    /// Frames per set (associativity).
    pub assoc: usize,
    /// Block size in bytes.
    pub block_size: u32,
}

impl BlockCacheConfig {
    /// The paper's experimental configuration: 512 banks, 16-way
    /// associative, 8 GB capacity, 32 KB blocks.
    pub fn paper_default() -> Self {
        Self::paper(8 << 30)
    }

    /// The paper's geometry (512 banks, 16-way, 32 KB blocks) at another
    /// capacity.
    pub fn paper(capacity_bytes: u64) -> Self {
        Self::with_capacity(capacity_bytes, 512, 16, 32 * 1024)
    }

    /// Derive sets-per-bank from a target capacity.
    pub fn with_capacity(capacity_bytes: u64, banks: usize, assoc: usize, block_size: u32) -> Self {
        assert!(banks > 0 && assoc > 0 && block_size > 0);
        let frames = (capacity_bytes / block_size as u64).max(1) as usize;
        let sets_total = (frames / assoc).max(1);
        let sets_per_bank = (sets_total / banks).max(1);
        BlockCacheConfig {
            banks,
            sets_per_bank,
            assoc,
            block_size,
        }
    }

    /// Total capacity in bytes.
    pub fn capacity_bytes(&self) -> u64 {
        self.banks as u64 * self.sets_per_bank as u64 * self.assoc as u64 * self.block_size as u64
    }

    /// Total number of sets.
    pub fn total_sets(&self) -> usize {
        self.banks * self.sets_per_bank
    }
}

/// Cache activity counters (a point-in-time view of the telemetry
/// registry's `gvfs/block-cache*` counters).
#[derive(Debug, Default, Clone, Copy)]
pub struct BlockCacheStats {
    /// Lookup hits.
    pub hits: u64,
    /// Lookup misses.
    pub misses: u64,
    /// Frames inserted.
    pub insertions: u64,
    /// Frames evicted (any state).
    pub evictions: u64,
    /// Dirty frames evicted (returned for upstream write-back).
    pub dirty_evictions: u64,
    /// Frames written dirty (write-back absorbed writes).
    pub dirty_writes: u64,
}

/// Telemetry-backed counters; `BlockCacheStats` is read out of these.
struct BcTel {
    hits: Counter,
    misses: Counter,
    insertions: Counter,
    evictions: Counter,
    dirty_evictions: Counter,
    dirty_writes: Counter,
}

impl BcTel {
    fn register(handle: &SimHandle) -> Self {
        let tel = handle.telemetry();
        let inst = tel.instance_name("block-cache");
        let c = |suffix: &str| tel.counter("gvfs", format!("{inst}.{suffix}"));
        BcTel {
            hits: c("hits"),
            misses: c("misses"),
            insertions: c("insertions"),
            evictions: c("evictions"),
            dirty_evictions: c("dirty_evictions"),
            dirty_writes: c("dirty_writes"),
        }
    }
}

struct Frame {
    tag: Tag,
    /// Pooled by content when inserted clean, private when born dirty;
    /// mutated only through [`Arc::make_mut`].
    data: SharedBytes,
    dirty: bool,
    stamp: u64,
}

struct Inner {
    // sets[global_set] -> frames (≤ assoc)
    sets: Vec<Vec<Frame>>,
    banks_created: Vec<bool>,
    stamp: u64,
    next_seq: HashMap<(u64, u64), u64>, // (fileid, gen) -> expected next block
    bytes_stored: u64,
    /// Times a resident frame was dropped (eviction or `clear`).
    removals: u64,
}

impl Inner {
    /// Exact sum of resident frame payloads — the ground truth that
    /// `bytes_stored` must track incrementally.
    fn recount_bytes(&self) -> u64 {
        self.sets
            .iter()
            .flat_map(|s| s.iter())
            .map(|f| f.data.len() as u64)
            .sum()
    }

    /// Subtract `n` bytes with an underflow check: accounting drift is a
    /// bug, not something to mask with saturation.
    fn debit_bytes(&mut self, n: u64) {
        debug_assert!(
            self.bytes_stored >= n,
            "block-cache byte accounting underflow: stored {} < debit {}",
            self.bytes_stored,
            n
        );
        // Exact subtraction: an underflow here must show up as loud drift
        // in validate_accounting(), never be clamped to zero.
        self.bytes_stored -= n;
    }
}

/// The proxy disk cache.
pub struct BlockCache {
    cfg: BlockCacheConfig,
    disk: Disk,
    tel: BcTel,
    inner: Mutex<Inner>,
}

fn mix(fileid: u64, generation: u64) -> u64 {
    // 64-bit finalizer (splitmix64-style) over the handle identity.
    let mut x = fileid ^ generation.rotate_left(32) ^ 0x9E37_79B9_7F4A_7C15;
    x ^= x >> 30;
    // lint:allow(exact-accounting): deliberate wraparound in the set-index hash, not byte accounting
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    // lint:allow(exact-accounting): deliberate wraparound in the set-index hash, not byte accounting
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^= x >> 31;
    x
}

impl BlockCache {
    /// Create a cache over the given local cache disk. Counters register
    /// in `handle`'s telemetry registry under `gvfs/block-cache*`.
    pub fn new(handle: &SimHandle, disk: Disk, cfg: BlockCacheConfig) -> Self {
        BlockCache {
            cfg,
            disk,
            tel: BcTel::register(handle),
            inner: Mutex::new(Inner {
                sets: (0..cfg.total_sets()).map(|_| Vec::new()).collect(),
                banks_created: vec![false; cfg.banks],
                stamp: 0,
                next_seq: HashMap::new(),
                bytes_stored: 0,
                removals: 0,
            }),
        }
    }

    /// Geometry.
    pub fn config(&self) -> BlockCacheConfig {
        self.cfg
    }

    /// Counter snapshot (reads the shared telemetry counters).
    pub fn stats(&self) -> BlockCacheStats {
        BlockCacheStats {
            hits: self.tel.hits.get(),
            misses: self.tel.misses.get(),
            insertions: self.tel.insertions.get(),
            evictions: self.tel.evictions.get(),
            dirty_evictions: self.tel.dirty_evictions.get(),
            dirty_writes: self.tel.dirty_writes.get(),
        }
    }

    /// Bytes currently stored.
    pub fn bytes_stored(&self) -> u64 {
        self.inner.lock().bytes_stored
    }

    /// Assert that the incremental `bytes_stored` counter matches a full
    /// recount of resident frame payloads. Cheap enough for tests; call
    /// after any sequence of inserts/updates/evictions to catch drift.
    pub fn validate_accounting(&self) {
        let inner = self.inner.lock();
        let actual = inner.recount_bytes();
        assert_eq!(
            inner.bytes_stored, actual,
            "block-cache byte accounting drift: tracked {} vs recounted {}",
            inner.bytes_stored, actual
        );
    }

    /// Number of dirty frames.
    pub fn dirty_frames(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .sets
            .iter()
            .map(|s| s.iter().filter(|f| f.dirty).count() as u64)
            .sum()
    }

    /// The set index for a tag: hash of the file handle plus the block
    /// index, so consecutive blocks land in consecutive sets.
    fn set_index(&self, tag: &Tag) -> usize {
        // lint:allow(exact-accounting): deliberate wraparound mixing the block into the hash
        ((mix(tag.fileid, tag.generation).wrapping_add(tag.block)) % self.cfg.total_sets() as u64)
            as usize
    }

    /// Charge local-disk time for touching one frame; sequential streams
    /// skip positioning.
    fn charge_io(&self, env: &Env, tag: &Tag) {
        let sequential = {
            let mut inner = self.inner.lock();
            let key = (tag.fileid, tag.generation);
            let seq = inner.next_seq.get(&key) == Some(&tag.block);
            inner.next_seq.insert(key, tag.block + 1);
            seq
        };
        if sequential {
            self.disk.stream_io(env, self.cfg.block_size as u64);
        } else {
            self.disk.random_io(env, self.cfg.block_size as u64);
        }
    }

    /// Look up a block; a hit pays local-disk time and returns the data.
    pub fn lookup(&self, env: &Env, tag: Tag) -> Option<Vec<u8>> {
        let (frame, range) = self.lookup_range(env, tag, 0, usize::MAX)?;
        Some(frame[range].to_vec())
    }

    /// Look up a block and hand back the frame's own bytes with the part
    /// of them that is `[start, start + count)`, clipped to the block's
    /// length — nothing is copied, and the frame's length tells the
    /// caller a short EOF-tail block. A hit pays local-disk time for the
    /// frame exactly like [`BlockCache::lookup`].
    pub fn lookup_range(
        &self,
        env: &Env,
        tag: Tag,
        start: usize,
        count: usize,
    ) -> Option<(SharedBytes, Range<usize>)> {
        let found = {
            let mut inner = self.inner.lock();
            let set = self.set_index(&tag);
            inner.stamp += 1;
            let stamp = inner.stamp;
            inner.sets[set].iter_mut().find(|f| f.tag == tag).map(|f| {
                f.stamp = stamp;
                let len = f.data.len();
                let range = start.min(len)..start.saturating_add(count).min(len);
                (Arc::clone(&f.data), range)
            })
        };
        if found.is_some() {
            self.tel.hits.inc();
            self.charge_io(env, &tag);
        } else {
            self.tel.misses.inc();
        }
        found
    }

    /// How many times a resident frame has been dropped, by eviction or
    /// [`BlockCache::clear`]. While this has not moved, every block that
    /// was resident still is — which lets a caller tracking a set of
    /// blocks skip re-checking each one with [`BlockCache::contains`].
    pub fn removals(&self) -> u64 {
        self.inner.lock().removals
    }

    /// Whether a block is present, without charging time or recency.
    pub fn contains(&self, tag: Tag) -> bool {
        let inner = self.inner.lock();
        let set = self.set_index(&tag);
        inner.sets[set].iter().any(|f| f.tag == tag)
    }

    /// Insert (or overwrite) a block, paying local-disk time. Returns an
    /// evicted dirty block, if any, which the caller must write upstream.
    pub fn insert(
        &self,
        env: &Env,
        tag: Tag,
        data: Vec<u8>,
        dirty: bool,
    ) -> Option<(Tag, SharedBytes)> {
        // A frame born dirty is about to be written again and stays
        // private.
        let data = if dirty { Arc::new(data) } else { share(data) };
        self.insert_shared(env, tag, data, dirty)
    }

    /// [`BlockCache::insert`] of a payload already behind an `Arc` — a
    /// clean block the caller pooled by content where it arrived
    /// ([`vfs::share_slice`]), before any cache lock is taken: the pool
    /// stays a leaf lock.
    pub fn insert_shared(
        &self,
        env: &Env,
        tag: Tag,
        data: SharedBytes,
        dirty: bool,
    ) -> Option<(Tag, SharedBytes)> {
        debug_assert!(data.len() <= self.cfg.block_size as usize);
        let mut evicted = None;
        {
            let mut inner = self.inner.lock();
            let set = self.set_index(&tag);
            inner.stamp += 1;
            let stamp = inner.stamp;
            let assoc = self.cfg.assoc;
            let existing = inner.sets[set].iter().position(|f| f.tag == tag);
            match existing {
                Some(i) => {
                    // Overwrite in place: account the payload-size delta
                    // (short tail blocks may grow or shrink).
                    let old_len = inner.sets[set][i].data.len() as u64;
                    inner.debit_bytes(old_len);
                    inner.bytes_stored += data.len() as u64;
                    let f = &mut inner.sets[set][i];
                    f.data = data;
                    f.dirty = f.dirty || dirty;
                    f.stamp = stamp;
                }
                None => {
                    if inner.sets[set].len() >= assoc {
                        // Evict LRU (prefer clean frames to avoid
                        // upstream write-backs).
                        let victim_idx = inner.sets[set]
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, f)| (f.dirty, f.stamp))
                            .map(|(i, _)| i)
                            .unwrap_or(0); // set is non-empty: len >= assoc >= 1
                        let victim = inner.sets[set].swap_remove(victim_idx);
                        inner.removals += 1;
                        self.tel.evictions.inc();
                        // Debit what the victim actually held, not the
                        // nominal block size — tail blocks are shorter.
                        let victim_len = victim.data.len() as u64;
                        inner.debit_bytes(victim_len);
                        if victim.dirty {
                            self.tel.dirty_evictions.inc();
                            evicted = Some((victim.tag, victim.data));
                        }
                    }
                    inner.bytes_stored += data.len() as u64;
                    inner.sets[set].push(Frame {
                        tag,
                        data,
                        dirty,
                        stamp,
                    });
                    self.tel.insertions.inc();
                    // Bank creation on demand (bookkeeping only).
                    let bank = set / self.cfg.sets_per_bank;
                    inner.banks_created[bank] = true;
                }
            }
            if dirty {
                self.tel.dirty_writes.inc();
            }
        }
        self.charge_io(env, &tag);
        evicted
    }

    /// Merge bytes into a cached block at `offset_in_block`, marking it
    /// dirty if requested. Returns false if the block is absent.
    pub fn update(
        &self,
        env: &Env,
        tag: Tag,
        offset_in_block: usize,
        bytes: &[u8],
        mark_dirty: bool,
    ) -> bool {
        let updated = {
            let mut inner = self.inner.lock();
            let set = self.set_index(&tag);
            inner.stamp += 1;
            let stamp = inner.stamp;
            let bs = self.cfg.block_size as usize;
            let merged = match inner.sets[set].iter_mut().find(|f| f.tag == tag) {
                Some(f) => {
                    let end = offset_in_block + bytes.len();
                    debug_assert!(end <= bs);
                    let old_len = f.data.len();
                    let grown = if end > old_len {
                        (end - old_len) as u64
                    } else {
                        0
                    };
                    // Copies first when the pool or a flush in progress
                    // still holds these bytes; writes in place otherwise.
                    let data = Arc::make_mut(&mut f.data);
                    if old_len < end {
                        data.resize(end, 0);
                    }
                    data[offset_in_block..end].copy_from_slice(bytes);
                    f.dirty = f.dirty || mark_dirty;
                    f.stamp = stamp;
                    Some(grown)
                }
                None => None,
            };
            match merged {
                Some(grown) => {
                    // resize() may have extended the frame payload; keep
                    // the byte accounting in step.
                    inner.bytes_stored += grown;
                    if mark_dirty {
                        self.tel.dirty_writes.inc();
                    }
                    true
                }
                None => false,
            }
        };
        if updated {
            self.charge_io(env, &tag);
        }
        updated
    }

    /// Take every dirty block (clearing dirty bits), sorted by
    /// (fileid, block) — the flush path for middleware-driven write-back.
    /// Pays local-disk time to stream the dirty frames back off the cache
    /// disk. The payloads are references to the frames' own bytes, and a
    /// snapshot all the same: a later [`BlockCache::update`] of a frame
    /// the caller still holds copies it first.
    pub fn take_dirty(&self, env: &Env) -> Vec<(Tag, SharedBytes)> {
        let mut out = Vec::new();
        {
            let mut inner = self.inner.lock();
            for set in inner.sets.iter_mut() {
                for f in set.iter_mut() {
                    if f.dirty {
                        f.dirty = false;
                        out.push((f.tag, Arc::clone(&f.data)));
                    }
                }
            }
        }
        out.sort_unstable_by_key(|(t, _)| *t);
        if !out.is_empty() {
            self.disk
                .sequential_io(env, out.len() as u64 * self.cfg.block_size as u64);
        }
        out
    }

    /// Drop every frame (flush must have happened first; dirty data is
    /// discarded). Used to make caches cold between benchmark runs.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        for set in inner.sets.iter_mut() {
            set.clear();
        }
        inner.bytes_stored = 0;
        inner.next_seq.clear();
        inner.removals += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimDuration, SimHandle, Simulation};
    use vfs::DiskModel;

    fn small_cache(h: &SimHandle, assoc: usize) -> BlockCache {
        let disk = Disk::new(
            h,
            DiskModel {
                seek: SimDuration::from_micros(100),
                bytes_per_sec: 1e9,
            },
        );
        // 2 banks × 2 sets × assoc frames of 1 KB
        BlockCache::new(
            h,
            disk,
            BlockCacheConfig {
                banks: 2,
                sets_per_bank: 2,
                assoc,
                block_size: 1024,
            },
        )
    }

    fn tag(file: u64, block: u64) -> Tag {
        Tag {
            fileid: file,
            generation: 1,
            block,
        }
    }

    #[test]
    fn paper_default_geometry() {
        let cfg = BlockCacheConfig::paper_default();
        assert_eq!(cfg.banks, 512);
        assert_eq!(cfg.assoc, 16);
        assert_eq!(cfg.block_size, 32 * 1024);
        assert_eq!(cfg.capacity_bytes(), 8 << 30);
    }

    #[test]
    fn insert_then_lookup_hits() {
        let sim = Simulation::new();
        let cache = std::sync::Arc::new(small_cache(&sim.handle(), 4));
        let c = cache.clone();
        sim.spawn("t", move |env| {
            assert!(c.lookup(&env, tag(1, 0)).is_none());
            c.insert(&env, tag(1, 0), vec![7u8; 1024], false);
            assert_eq!(c.lookup(&env, tag(1, 0)).unwrap(), vec![7u8; 1024]);
            let st = c.stats();
            assert_eq!(st.hits, 1);
            assert_eq!(st.misses, 1);
        });
        sim.run();
    }

    #[test]
    fn consecutive_blocks_map_to_consecutive_sets() {
        let sim = Simulation::new();
        let cache = small_cache(&sim.handle(), 4);
        let s0 = cache.set_index(&tag(9, 0));
        let s1 = cache.set_index(&tag(9, 1));
        let s2 = cache.set_index(&tag(9, 2));
        let total = cache.config().total_sets();
        assert_eq!(s1, (s0 + 1) % total);
        assert_eq!(s2, (s0 + 2) % total);
    }

    #[test]
    fn set_eviction_is_lru_and_prefers_clean_victims() {
        let sim = Simulation::new();
        let cache = std::sync::Arc::new(small_cache(&sim.handle(), 2));
        let c = cache.clone();
        sim.spawn("t", move |env| {
            // Three blocks mapping to the same set: same file, strides of
            // total_sets (4) keep the set index constant.
            let t0 = tag(1, 0);
            let t4 = tag(1, 4);
            let t8 = tag(1, 8);
            c.insert(&env, t0, vec![0; 1024], true); // dirty
            c.insert(&env, t4, vec![4; 1024], false); // clean
                                                      // Set full (assoc 2); inserting t8 must evict the CLEAN t4
                                                      // even though t0 is older.
            let evicted = c.insert(&env, t8, vec![8; 1024], false);
            assert!(evicted.is_none(), "clean eviction returns nothing");
            assert!(c.contains(t0), "dirty block must survive");
            assert!(!c.contains(t4));
            // Now both resident are t0(dirty), t8(clean): insert another,
            // evicting t8; then only dirty remains, so the next eviction
            // returns the dirty data for upstream write-back.
            c.insert(&env, tag(1, 12), vec![12; 1024], true);
            let ev = c.insert(&env, tag(1, 16), vec![16; 1024], false);
            assert!(ev.is_some());
            let st = c.stats();
            assert_eq!(st.dirty_evictions, 1);
        });
        sim.run();
    }

    #[test]
    fn update_merges_into_existing_frame() {
        let sim = Simulation::new();
        let cache = std::sync::Arc::new(small_cache(&sim.handle(), 4));
        let c = cache.clone();
        sim.spawn("t", move |env| {
            c.insert(&env, tag(2, 0), vec![0xAA; 1024], false);
            assert!(c.update(&env, tag(2, 0), 100, b"XYZ", true));
            let data = c.lookup(&env, tag(2, 0)).unwrap();
            assert_eq!(&data[100..103], b"XYZ");
            assert_eq!(data[99], 0xAA);
            assert_eq!(c.dirty_frames(), 1);
            assert!(!c.update(&env, tag(2, 99), 0, b"no", true));
        });
        sim.run();
    }

    #[test]
    fn take_dirty_returns_sorted_and_clears() {
        let sim = Simulation::new();
        let cache = std::sync::Arc::new(small_cache(&sim.handle(), 4));
        let c = cache.clone();
        sim.spawn("t", move |env| {
            c.insert(&env, tag(5, 3), vec![3; 1024], true);
            c.insert(&env, tag(4, 9), vec![9; 1024], true);
            c.insert(&env, tag(4, 1), vec![1; 1024], true);
            c.insert(&env, tag(4, 2), vec![2; 1024], false);
            let dirty = c.take_dirty(&env);
            let keys: Vec<(u64, u64)> = dirty.iter().map(|(t, _)| (t.fileid, t.block)).collect();
            assert_eq!(keys, vec![(4, 1), (4, 9), (5, 3)]);
            assert_eq!(c.dirty_frames(), 0);
            assert!(c.take_dirty(&env).is_empty());
        });
        sim.run();
    }

    impl BlockCache {
        /// The allocation a resident frame holds.
        fn frame_data(&self, tag: Tag) -> Option<SharedBytes> {
            let inner = self.inner.lock();
            let frame = inner.sets[self.set_index(&tag)]
                .iter()
                .find(|f| f.tag == tag)?;
            Some(Arc::clone(&frame.data))
        }
    }

    #[test]
    fn clean_frames_of_equal_content_are_one_allocation_and_writes_unshare() {
        let sim = Simulation::new();
        let cache = std::sync::Arc::new(small_cache(&sim.handle(), 4));
        let c = cache.clone();
        sim.spawn("t", move |env| {
            let same =
                |a: Tag, b: Tag| Arc::ptr_eq(&c.frame_data(a).unwrap(), &c.frame_data(b).unwrap());
            c.insert(&env, tag(1, 0), vec![5; 1024], false);
            c.insert(&env, tag(2, 7), vec![5; 1024], false);
            c.insert(&env, tag(3, 1), vec![5; 1024], true);
            assert!(same(tag(1, 0), tag(2, 7)), "clean twins share");
            assert!(!same(tag(1, 0), tag(3, 1)), "a frame born dirty is private");
            // A write into one twin copies first: the other, and the
            // pool, keep the old bytes.
            assert!(c.update(&env, tag(1, 0), 10, b"new", true));
            assert!(!same(tag(1, 0), tag(2, 7)));
            assert_eq!(c.lookup(&env, tag(2, 7)).unwrap(), vec![5; 1024]);
            // A flush holds references, not copies — and still a
            // snapshot: the next write leaves what it was handed alone.
            let flushed = c.take_dirty(&env);
            let (_, held) = flushed.iter().find(|(t, _)| *t == tag(3, 1)).unwrap();
            assert!(Arc::ptr_eq(held, &c.frame_data(tag(3, 1)).unwrap()));
            assert!(c.update(&env, tag(3, 1), 0, b"later", true));
            assert_eq!(**held, vec![5; 1024]);
            assert_eq!(&c.lookup(&env, tag(3, 1)).unwrap()[..5], b"later");
            c.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn sequential_hits_are_cheaper_than_random_hits() {
        let sim = Simulation::new();
        let h = sim.handle();
        let disk = Disk::new(
            &h,
            DiskModel {
                seek: SimDuration::from_millis(6),
                bytes_per_sec: 40e6,
            },
        );
        let cache = std::sync::Arc::new(BlockCache::new(
            &h,
            disk,
            BlockCacheConfig::with_capacity(64 << 20, 8, 4, 32 * 1024),
        ));
        let c = cache.clone();
        sim.spawn("t", move |env| {
            for b in 0..64u64 {
                c.insert(&env, tag(1, b), vec![1; 32 * 1024], false);
            }
            let t0 = env.now();
            for b in 0..64u64 {
                c.lookup(&env, tag(1, b)).unwrap();
            }
            let seq_time = env.now() - t0;
            let t1 = env.now();
            // Random-ish order: stride 13 mod 64 visits all blocks.
            for i in 0..64u64 {
                c.lookup(&env, tag(1, (i * 13) % 64)).unwrap();
            }
            let rand_time = env.now() - t1;
            assert!(
                rand_time.as_secs_f64() > seq_time.as_secs_f64() * 3.0,
                "rand {rand_time} vs seq {seq_time}"
            );
        });
        sim.run();
    }

    #[test]
    fn byte_accounting_is_exact_for_tail_blocks() {
        let sim = Simulation::new();
        let cache = std::sync::Arc::new(small_cache(&sim.handle(), 2));
        let c = cache.clone();
        sim.spawn("t", move |env| {
            // A short "tail" block must be accounted at its real length,
            // not the nominal block size.
            c.insert(&env, tag(1, 0), vec![1; 300], false);
            assert_eq!(c.bytes_stored(), 300);
            // Overwrite with a longer payload: delta accounted.
            c.insert(&env, tag(1, 0), vec![1; 700], false);
            assert_eq!(c.bytes_stored(), 700);
            // Overwrite with a shorter payload: shrink accounted too.
            c.insert(&env, tag(1, 0), vec![1; 200], false);
            assert_eq!(c.bytes_stored(), 200);
            // update() growing past the current payload end.
            assert!(c.update(&env, tag(1, 0), 150, &[9u8; 100], true));
            assert_eq!(c.bytes_stored(), 250);
            // update() within the payload: no growth.
            assert!(c.update(&env, tag(1, 0), 0, &[9u8; 10], false));
            assert_eq!(c.bytes_stored(), 250);
            c.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn eviction_debits_victim_length_not_block_size() {
        let sim = Simulation::new();
        let cache = std::sync::Arc::new(small_cache(&sim.handle(), 2));
        let c = cache.clone();
        sim.spawn("t", move |env| {
            // Same set (stride = total_sets = 4), short payloads. With the
            // old block_size-based accounting each eviction debited 1024
            // for a 100-byte frame, driving bytes_stored to zero via
            // saturating_sub and masking the drift.
            c.insert(&env, tag(1, 0), vec![0; 100], false);
            c.insert(&env, tag(1, 4), vec![0; 200], false);
            assert_eq!(c.bytes_stored(), 300);
            c.insert(&env, tag(1, 8), vec![0; 400], false); // evicts one
            assert_eq!(c.stats().evictions, 1);
            c.validate_accounting();
            // Fill more sets and keep evicting; accounting must stay exact.
            for b in 0..32u64 {
                c.insert(&env, tag(2, b), vec![0; 64 + b as usize], (b % 3) == 0);
            }
            c.validate_accounting();
            let _ = c.take_dirty(&env);
            c.validate_accounting();
        });
        sim.run();
    }

    #[test]
    fn clear_empties_cache() {
        let sim = Simulation::new();
        let cache = std::sync::Arc::new(small_cache(&sim.handle(), 4));
        let c = cache.clone();
        sim.spawn("t", move |env| {
            c.insert(&env, tag(1, 0), vec![1; 1024], false);
            c.clear();
            assert!(!c.contains(tag(1, 0)));
            assert_eq!(c.bytes_stored(), 0);
        });
        sim.run();
    }
}
