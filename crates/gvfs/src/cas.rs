//! Per-proxy content-addressed store (CAS).
//!
//! Generalizes the zero-block map into "serve locally anything whose
//! bytes the near side already has": every file-channel chunk a proxy
//! fetches is indexed by its [`crate::digest`] digest, and the file
//! channel's recipe path consults the index before asking the WAN for a
//! payload — in either of its outcomes:
//! [`crate::channel::ChannelClient::fetch_dedup`] copies resident
//! chunks out to assemble the file,
//! [`crate::channel::ChannelClient::fetch_recipe_pinned`] pins them in
//! place for a reference file.
//!
//! ## Cost model
//!
//! Dedup saves *WAN transfer and origin work*, never local work: a
//! recipe hit means a chunk's payload does not cross the upstream link,
//! but the assembled file is still written to the local cache disk in
//! full ([`crate::file_cache::FileCache::install`] charges every byte —
//! an *unpinned* CAS entry lives in host memory only, so a hit is no
//! guarantee the backing bytes are still on the cache disk; a *pinned*
//! entry, by contrast, is a residency guarantee taken by a
//! reference-backed file-cache entry, which is what lets the
//! copy-on-write install path charge zero disk for shared chunks —
//! DESIGN.md §5.9) and every digest the
//! dedup paths compute is charged at the codec model's digest
//! throughput, on flush (dirty blocks and files) exactly as on fetch
//! (blob verification). Only the index operations themselves —
//! insert/lookup, O(1) map work dwarfed by the proxy's per-op CPU
//! charge — are free. Host-side, entries are kept codec-compressed and
//! content-shared ([`vfs::share`]) to bound real memory: the stores of
//! a fleet's proxies hold one copy of each compressed golden chunk
//! between them. A chunk fetched by `FETCH_BLOBS` is kept in the very
//! stream it crossed the wire in, under the digest it was verified
//! against on arrival (a [`Blob`]); only bytes that reach the store
//! uncompressed are digested and compressed here.
//!
//! Capacity is bounded (logical bytes indexed); eviction is
//! least-recently-touched, deterministic via a monotonic touch stamp.

use parking_lot::Mutex;
use simnet::{Counter, Telemetry};
use std::collections::BTreeMap;
use vfs::{share, SharedBytes};

use crate::codec;
use crate::digest::{digest, Digest};

/// Knobs for content-addressed redundancy elimination, carried by
/// [`crate::ProxyConfig`]. [`DedupTuning::off`] disables every dedup
/// path, reproducing pre-CAS behaviour byte-for-byte and
/// tick-for-tick (the equivalence tests and the `dedup_ablation` CI
/// baseline hold this to account).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DedupTuning {
    /// Master switch. When false the proxy never consults recipes,
    /// never skips acked writes, and keeps no content index.
    pub enabled: bool,
    /// CAS capacity in logical (uncompressed) bytes indexed.
    pub cas_bytes: u64,
}

impl Default for DedupTuning {
    fn default() -> Self {
        DedupTuning {
            enabled: true,
            // Comfortably holds the distinct chunks of a Fig 6 clone
            // fleet (8 × 320 MB memory states sharing a base) while
            // staying below the 8 GB proxy cache it indexes into.
            cas_bytes: 4 << 30,
        }
    }
}

impl DedupTuning {
    /// Dedup fully disabled: the pre-CAS data paths, byte-for-byte.
    pub fn off() -> Self {
        DedupTuning {
            enabled: false,
            cas_bytes: 0,
        }
    }
}

/// Telemetry for the dedup subsystem, registered per proxy under
/// `gvfs/<inst>.dedup.*`.
#[derive(Clone)]
pub struct DedupTel {
    /// Payload bytes that never crossed the upstream link because the
    /// receiver already held them (recipe hits + acked-write skips).
    pub bytes_avoided: Counter,
    /// Recipe records satisfied from the local CAS.
    pub recipe_hits: Counter,
    /// Payloads actually fetched via `FETCH_BLOBS`.
    pub blob_fetches: Counter,
    /// Upstream writes skipped because the acknowledged content already
    /// matches (flush block skips + unchanged file-upload skips).
    pub acked_skips: Counter,
}

impl DedupTel {
    /// Register under `gvfs/<inst>.dedup.*`.
    pub fn register(registry: &Telemetry, inst: &str) -> Self {
        DedupTel {
            bytes_avoided: registry.counter("gvfs", format!("{inst}.dedup.bytes_avoided")),
            recipe_hits: registry.counter("gvfs", format!("{inst}.dedup.recipe_hits")),
            blob_fetches: registry.counter("gvfs", format!("{inst}.dedup.blob_fetches")),
            acked_skips: registry.counter("gvfs", format!("{inst}.dedup.acked_skips")),
        }
    }

    /// An unregistered instance (tests, or callers without a registry).
    pub fn unregistered() -> Self {
        DedupTel {
            bytes_avoided: Counter::new(),
            recipe_hits: Counter::new(),
            blob_fetches: Counter::new(),
            acked_skips: Counter::new(),
        }
    }
}

struct Entry {
    /// Host-side codec-compressed payload, shared with every other
    /// store holding the same chunk (memory economy only; the simulated
    /// bytes live on the cache disk).
    packed: SharedBytes,
    /// Logical (uncompressed) length.
    len: u32,
    /// Last-touch stamp (monotonic).
    stamp: u64,
    /// Live references from reference-backed file-cache entries
    /// (copy-on-write clones, DESIGN.md §5.9). A pinned entry is the
    /// proxy's residency guarantee for recipe-served bytes, so LRU
    /// eviction must never drop it.
    pins: u32,
}

struct Inner {
    map: BTreeMap<Digest, Entry>,
    /// stamp -> digest, for deterministic LRU eviction. Stamps are
    /// unique, so this is a total order of recency.
    lru: BTreeMap<u64, Digest>,
    /// Sum of logical lengths of resident entries.
    bytes: u64,
    stamp: u64,
}

/// A chunk in the form it crossed the wire — codec-compressed — together
/// with the digest and length its decompressed bytes have been checked
/// against. The fields are private and the constructor has exactly one
/// caller, the branch of the channel's reply reader that has just passed
/// that check, so a `Blob` is the proof that `digest` names `packed`'s
/// preimage: [`ContentStore::insert_blob`] indexes it without digesting
/// or compressing the bytes a second time.
#[derive(Debug)]
pub struct Blob {
    digest: Digest,
    len: u32,
    packed: Vec<u8>,
}

impl Blob {
    /// Wrap `contents`, which the caller has just verified to digest to
    /// `digest`. `wire` is the compressed stream they were decoded from,
    /// moved in; a reply that travelled uncompressed is compressed here.
    pub(crate) fn verified(digest: Digest, contents: &[u8], wire: Option<Vec<u8>>) -> Blob {
        Blob {
            digest,
            len: contents.len() as u32,
            packed: wire.unwrap_or_else(|| codec::compress(contents)),
        }
    }

    /// Logical (uncompressed) length.
    pub(crate) fn len(&self) -> u32 {
        self.len
    }
}

/// The content-addressed store. A key is either computed from the stored
/// bytes inside [`ContentStore::insert`] or carried by a [`Blob`], whose
/// only constructor runs after the same digest was verified — so the
/// index can never claim a digest it does not hold the preimage of.
pub struct ContentStore {
    inner: Mutex<Inner>,
    capacity: u64,
    /// Incremented when an insert ends over capacity because every
    /// remaining eviction candidate is pinned (`cas.pin_blocked_evictions`
    /// when registered; unregistered otherwise).
    pin_blocked: Counter,
    /// Incremented when a reference file asks for a chunk it holds a pin
    /// on and the chunk is not resident — a pin-discipline bug, served
    /// as zeros so dispatch stays panic-free (the proxy attaches its
    /// `recovered_errors` counter).
    broken_pins: Counter,
}

impl ContentStore {
    /// A store bounded at `capacity` logical bytes.
    pub fn new(capacity: u64) -> Self {
        ContentStore {
            inner: Mutex::new(Inner {
                map: BTreeMap::new(),
                lru: BTreeMap::new(),
                bytes: 0,
                stamp: 0,
            }),
            capacity,
            pin_blocked: Counter::new(),
            broken_pins: Counter::new(),
        }
    }

    /// Attach a registered counter surfacing pin-blocked evictions
    /// (builder-style, before the store is shared).
    pub fn with_pin_blocked_counter(mut self, counter: Counter) -> Self {
        self.pin_blocked = counter;
        self
    }

    /// Attach the counter that surfaces reads through a pin that found
    /// no resident entry (builder-style, before the store is shared).
    pub fn with_broken_pin_counter(mut self, counter: Counter) -> Self {
        self.broken_pins = counter;
        self
    }

    /// Index `bytes`, returning their digest. Re-inserting existing
    /// content only refreshes its recency. Oversized payloads (larger
    /// than the whole store) are digested but not retained.
    pub fn insert(&self, bytes: &[u8]) -> Digest {
        self.insert_inner(bytes, false)
    }

    /// Index `bytes` and take a pin on them in one step, so capacity
    /// pressure from the insert itself cannot evict the entry before the
    /// caller's reference lands. Oversized payloads are digested but not
    /// retained (and therefore not pinned — callers must re-check with
    /// [`ContentStore::pin`]-style `contains` if they need the guarantee).
    pub fn insert_pinned(&self, bytes: &[u8]) -> Digest {
        self.insert_inner(bytes, true)
    }

    fn insert_inner(&self, bytes: &[u8], pin: bool) -> Digest {
        let d = digest(bytes);
        self.index(d, bytes.len() as u64, pin, || codec::compress(bytes));
        d
    }

    /// Index a fetched chunk in the wire form it was verified in, taking
    /// a pin on it if `pin`: [`ContentStore::insert`] /
    /// [`ContentStore::insert_pinned`] without the digest and the
    /// compression, which the blob's one constructor vouches for. An
    /// oversized blob is not retained.
    pub fn insert_blob(&self, blob: Blob, pin: bool) {
        self.index(blob.digest, blob.len as u64, pin, || blob.packed);
    }

    /// The body of every insert: index `len` logical bytes under `d`,
    /// asking for the compressed stream only when the content is new.
    fn index(&self, d: Digest, len: u64, pin: bool, packed: impl FnOnce() -> Vec<u8>) {
        if len > self.capacity {
            return;
        }
        let mut inner = self.inner.lock();
        inner.stamp += 1;
        let stamp = inner.stamp;
        if let Some(e) = inner.map.get_mut(&d) {
            let old = e.stamp;
            e.stamp = stamp;
            if pin {
                e.pins += 1;
            }
            inner.lru.remove(&old);
            inner.lru.insert(stamp, d);
            return;
        }
        let packed = share(packed());
        inner.bytes += len;
        inner.map.insert(
            d,
            Entry {
                packed,
                len: len as u32,
                stamp,
                pins: u32::from(pin),
            },
        );
        inner.lru.insert(stamp, d);
        // Evict least-recently-touched *unpinned* entries until back
        // under capacity. Pinned entries are skipped — a live reference
        // file is still serving reads out of them — so under enough pin
        // pressure the store is allowed to overrun its capacity rather
        // than silently drop bytes a recipe still resolves through; that
        // condition is surfaced on the pin-blocked counter.
        let mut cursor = 0u64;
        while inner.bytes > self.capacity {
            let victim = inner
                .lru
                .range(cursor..)
                .find(|(_, d2)| inner.map.get(d2).is_none_or(|e| e.pins == 0))
                .map(|(&s, &d2)| (s, d2));
            let Some((old_stamp, victim)) = victim else {
                self.pin_blocked.inc();
                break;
            };
            cursor = old_stamp + 1;
            inner.lru.remove(&old_stamp);
            if let Some(e) = inner.map.remove(&victim) {
                debug_assert!(inner.bytes >= e.len as u64, "CAS byte accounting drifted");
                inner.bytes -= e.len as u64;
            }
        }
    }

    /// Take a pin on `d`, preventing its eviction until a matching
    /// [`ContentStore::unpin`]. Succeeds only while the preimage is
    /// resident — a `true` return is the caller's residency guarantee.
    /// Pins nest: each successful `pin` needs its own `unpin`.
    pub fn pin(&self, d: &Digest) -> bool {
        let mut inner = self.inner.lock();
        match inner.map.get_mut(d) {
            Some(e) => {
                e.pins += 1;
                true
            }
            None => false,
        }
    }

    /// Release one pin on `d`. Unpinning makes the entry an ordinary LRU
    /// citizen again once its pin count reaches zero; it is not evicted
    /// eagerly.
    pub fn unpin(&self, d: &Digest) {
        let mut inner = self.inner.lock();
        if let Some(e) = inner.map.get_mut(d) {
            debug_assert!(e.pins > 0, "unpin without a matching pin");
            if e.pins > 0 {
                e.pins -= 1;
            }
        }
    }

    /// Logical bytes currently held under at least one pin.
    pub fn pinned_bytes(&self) -> u64 {
        let inner = self.inner.lock();
        inner
            .map
            .values()
            .filter(|e| e.pins > 0)
            .map(|e| e.len as u64)
            .sum()
    }

    /// Whether `d`'s preimage is resident (does not refresh recency).
    pub fn contains(&self, d: &Digest) -> bool {
        self.inner.lock().map.contains_key(d)
    }

    /// Logical length of `d`'s preimage if resident (no recency refresh).
    pub fn len_of(&self, d: &Digest) -> Option<u32> {
        self.inner.lock().map.get(d).map(|e| e.len)
    }

    /// Fetch the preimage of `d`, refreshing its recency. Host-side
    /// only; see the module docs for why no simulation time is charged.
    pub fn get(&self, d: &Digest) -> Option<Vec<u8>> {
        self.get_range(d, 0, usize::MAX)
    }

    /// Fetch `[offset, offset + len)` of `d`'s preimage (clipped to its
    /// length), refreshing its recency. Decodes only the bytes it
    /// returns ([`codec::decompress_range`]). Recency moves only after a
    /// successful decode, so a corrupt entry keeps its one LRU row.
    pub fn get_range(&self, d: &Digest, offset: usize, len: usize) -> Option<Vec<u8>> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let e = inner.map.get_mut(d)?;
        let bytes = codec::decompress_range(&e.packed, offset, len).ok()?;
        inner.stamp += 1;
        inner.lru.remove(&e.stamp);
        e.stamp = inner.stamp;
        inner.lru.insert(e.stamp, *d);
        Some(bytes)
    }

    /// [`ContentStore::get_range`] for a chunk the caller holds a pin
    /// on. The pin guarantees residency, so a miss is a pin-discipline
    /// bug: it is counted and served as `len` zeros (clipped to the
    /// recipe's `chunk_len`) rather than panicking a dispatch path.
    pub(crate) fn get_pinned_range(
        &self,
        d: &Digest,
        chunk_len: u32,
        offset: usize,
        len: usize,
    ) -> Vec<u8> {
        self.get_range(d, offset, len).unwrap_or_else(|| {
            self.broken_pins.inc();
            let chunk_len = chunk_len as usize;
            vec![0u8; offset.saturating_add(len).min(chunk_len) - offset.min(chunk_len)]
        })
    }

    /// Damage `d`'s stored stream so every decode of it fails.
    #[cfg(test)]
    fn corrupt_entry(&self, d: &Digest) {
        if let Some(e) = self.inner.lock().map.get_mut(d) {
            std::sync::Arc::make_mut(&mut e.packed).pop();
        }
    }

    /// Logical bytes currently indexed.
    pub fn logical_bytes(&self) -> u64 {
        self.inner.lock().bytes
    }

    /// Number of distinct digests indexed.
    pub fn entries(&self) -> usize {
        self.inner.lock().map.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_round_trips_and_dedupes() {
        let cas = ContentStore::new(1 << 20);
        let a = vec![7u8; 4096];
        let d = cas.insert(&a);
        assert_eq!(d, digest(&a));
        assert!(cas.contains(&d));
        assert_eq!(cas.get(&d).unwrap(), a);
        // Re-insert: no double accounting.
        cas.insert(&a);
        assert_eq!(cas.entries(), 1);
        assert_eq!(cas.logical_bytes(), 4096);
    }

    #[test]
    fn get_range_slices_the_preimage_and_touches_recency() {
        let cas = ContentStore::new(10_000);
        let a: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        let b = vec![9u8; 4096];
        let da = cas.insert(&a);
        let db = cas.insert(&b);
        assert_eq!(cas.get_range(&da, 100, 50).unwrap(), &a[100..150]);
        assert_eq!(cas.get_range(&da, 4090, 50).unwrap(), &a[4090..]);
        assert!(cas.get_range(&da, 5000, 50).unwrap().is_empty());
        assert!(cas.get_range(&digest(b"absent"), 0, 1).is_none());
        // The range read made `a` the most recent: `b` pays.
        cas.insert(&[3u8; 4096]);
        assert!(cas.contains(&da));
        assert!(!cas.contains(&db));
    }

    #[test]
    fn failed_decode_leaves_recency_untouched() {
        // Touching the stamp before a decode that then fails would
        // strand the old LRU row: the next touch adds a second row for
        // the digest, and evicting through the stale one drops an entry
        // the fresh row still lists.
        let cas = ContentStore::new(10_000);
        let a: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let da = cas.insert(&a);
        let db = cas.insert(&[2u8; 4096]);
        cas.corrupt_entry(&da);
        assert!(cas.get(&da).is_none());
        assert!(cas.get_range(&da, 0, 16).is_none());
        {
            let inner = cas.inner.lock();
            assert_eq!(inner.lru.len(), inner.map.len(), "duplicate LRU rows");
            let rows: Vec<Digest> = inner.lru.values().copied().collect();
            assert_eq!(rows, [da, db], "a failed read must not refresh recency");
            assert!(inner.lru.iter().all(|(s, d)| inner.map[d].stamp == *s));
        }
        // `a` is still the LRU victim, and leaves exactly one row behind.
        cas.insert(&[3u8; 4096]);
        assert!(!cas.contains(&da));
        assert!(cas.contains(&db));
        assert_eq!(cas.inner.lock().lru.len(), 2);
    }

    #[test]
    fn a_read_through_a_broken_pin_is_counted_and_served_as_zeros() {
        let broken = Counter::new();
        let cas = ContentStore::new(1 << 20).with_broken_pin_counter(broken.clone());
        let a = vec![7u8; 1000];
        let d = cas.insert_pinned(&a);
        assert_eq!(cas.get_pinned_range(&d, 1000, 990, 50), [7u8; 10]);
        assert_eq!(broken.get(), 0);
        let gone = digest(b"never inserted");
        assert_eq!(cas.get_pinned_range(&gone, 1000, 990, 50), [0u8; 10]);
        assert_eq!(cas.get_pinned_range(&gone, 1000, 0, 1000), vec![0u8; 1000]);
        assert_eq!(broken.get(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_touched() {
        let cas = ContentStore::new(10_000);
        let a: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let b: Vec<u8> = (0..4096u32).map(|i| (i + 1) as u8).collect();
        let c: Vec<u8> = (0..4096u32).map(|i| (i + 2) as u8).collect();
        let da = cas.insert(&a);
        let db = cas.insert(&b);
        // Touch `a` so `b` is the LRU victim.
        assert!(cas.get(&da).is_some());
        let dc = cas.insert(&c);
        assert!(cas.contains(&da), "recently touched entry evicted");
        assert!(!cas.contains(&db), "LRU entry not evicted");
        assert!(cas.contains(&dc));
        assert_eq!(cas.logical_bytes(), 8192);
    }

    #[test]
    fn oversized_payloads_are_not_retained() {
        let cas = ContentStore::new(100);
        let big = vec![1u8; 1000];
        let d = cas.insert(&big);
        assert_eq!(d, digest(&big));
        assert!(!cas.contains(&d));
        assert_eq!(cas.logical_bytes(), 0);
    }

    /// `bytes` as the blob a verified fetch reply would have made of it.
    fn blob_of(bytes: &[u8]) -> Blob {
        Blob::verified(digest(bytes), bytes, Some(codec::compress(bytes)))
    }

    #[test]
    fn a_store_fed_blobs_equals_a_store_fed_bytes() {
        // Eight 3000-byte chunks through a 10,000-byte store: every
        // insert past the third evicts, re-inserts refresh recency, and
        // the pins steer which entry pays.
        let chunk = |i: u8| -> Vec<u8> {
            (0..3000u32)
                .map(|j| (j as u8).wrapping_mul(i) ^ i)
                .collect()
        };
        let feed: [(u8, bool); 12] = [
            (1, false),
            (2, true),
            (3, false),
            (1, false),
            (4, false),
            (2, false),
            (5, true),
            (6, false),
            (3, true),
            (7, false),
            (5, false),
            (8, false),
        ];
        let (by_bytes, by_blob) = (ContentStore::new(10_000), ContentStore::new(10_000));
        let same = |what: &str| {
            for i in 1..=8 {
                let d = digest(&chunk(i));
                assert_eq!(
                    by_bytes.contains(&d),
                    by_blob.contains(&d),
                    "{what}: chunk {i}"
                );
                assert_eq!(by_bytes.len_of(&d), by_blob.len_of(&d), "{what}: chunk {i}");
            }
            assert_eq!(by_bytes.logical_bytes(), by_blob.logical_bytes(), "{what}");
            assert_eq!(by_bytes.pinned_bytes(), by_blob.pinned_bytes(), "{what}");
            assert_eq!(by_bytes.entries(), by_blob.entries(), "{what}");
        };
        for (step, (i, pin)) in feed.into_iter().enumerate() {
            let bytes = chunk(i);
            let d = if pin {
                by_bytes.insert_pinned(&bytes)
            } else {
                by_bytes.insert(&bytes)
            };
            by_blob.insert_blob(blob_of(&bytes), pin);
            same(&format!("step {step}"));
            // Reads — which move recency, and so the next victim — agree.
            assert_eq!(by_bytes.get(&d), by_blob.get(&d), "step {step}");
            assert_eq!(
                by_bytes.get_range(&d, 100, 50),
                by_blob.get_range(&d, 100, 50)
            );
            if by_bytes.contains(&d) {
                assert_eq!(by_blob.get(&d).unwrap(), bytes);
            }
        }
        assert!(
            by_bytes.entries() < 8,
            "the capacity must have forced evictions"
        );
        for (i, _) in feed.into_iter().filter(|(_, pin)| *pin) {
            let d = digest(&chunk(i));
            by_bytes.unpin(&d);
            by_blob.unpin(&d);
        }
        same("unpinned");
        assert_eq!(by_blob.pinned_bytes(), 0);
    }

    #[test]
    fn an_oversized_blob_is_not_retained() {
        let cas = ContentStore::new(100);
        let big = vec![1u8; 1000];
        cas.insert_blob(blob_of(&big), true);
        assert!(!cas.contains(&digest(&big)));
        assert_eq!((cas.logical_bytes(), cas.pinned_bytes()), (0, 0));
    }

    #[test]
    fn a_blob_of_an_uncompressed_reply_is_compressed_on_the_way_in() {
        let cas = ContentStore::new(1 << 20);
        let a: Vec<u8> = (0..5000u32).map(|i| (i / 9) as u8).collect();
        cas.insert_blob(Blob::verified(digest(&a), &a, None), false);
        assert_eq!(cas.get(&digest(&a)).unwrap(), a);
    }

    #[test]
    fn tuning_off_disables() {
        let t = DedupTuning::off();
        assert!(!t.enabled);
        assert!(DedupTuning::default().enabled);
    }

    #[test]
    fn pin_refuses_missing_and_nests() {
        let cas = ContentStore::new(1 << 20);
        let a = vec![3u8; 1024];
        let d = cas.insert(&a);
        assert!(!cas.pin(&digest(b"absent")), "pin on a missing digest");
        assert!(cas.pin(&d));
        assert!(cas.pin(&d));
        assert_eq!(cas.pinned_bytes(), 1024);
        cas.unpin(&d);
        assert_eq!(cas.pinned_bytes(), 1024, "nested pin released too early");
        cas.unpin(&d);
        assert_eq!(cas.pinned_bytes(), 0);
    }

    #[test]
    fn eviction_skips_pinned_entries() {
        // The evict-while-referenced race: `a` is the LRU victim by
        // stamp order, but a live reference pins it; capacity pressure
        // must take the next unpinned entry instead.
        let cas = ContentStore::new(6000);
        let a = vec![1u8; 4096];
        let b = vec![2u8; 4096];
        let da = cas.insert(&a);
        assert!(cas.pin(&da));
        let db = cas.insert(&b);
        assert!(cas.contains(&da), "pinned LRU entry was evicted");
        assert!(!cas.contains(&db), "unpinned newer entry should have paid");
        assert_eq!(cas.logical_bytes(), 4096);
        assert_eq!(cas.pin_blocked.get(), 0);
        // Once unpinned, ordinary LRU pressure applies again.
        cas.unpin(&da);
        let dc = cas.insert(&vec![3u8; 4096]);
        assert!(!cas.contains(&da));
        assert!(cas.contains(&dc));
    }

    #[test]
    fn all_pinned_overruns_capacity_and_counts_blocked_evictions() {
        let cas = ContentStore::new(6000);
        let da = cas.insert_pinned(&vec![4u8; 4096]);
        let db = cas.insert_pinned(&vec![5u8; 4096]);
        // Nothing evictable: both entries stay, capacity is overrun, and
        // the condition is surfaced instead of silently dropping bytes.
        assert!(cas.contains(&da));
        assert!(cas.contains(&db));
        assert_eq!(cas.logical_bytes(), 8192);
        assert_eq!(cas.pin_blocked.get(), 1);
        assert_eq!(cas.pinned_bytes(), 8192);
    }

    #[test]
    fn insert_pinned_on_existing_content_adds_a_pin() {
        let cas = ContentStore::new(1 << 20);
        let a = vec![6u8; 2048];
        cas.insert(&a);
        let d = cas.insert_pinned(&a);
        assert_eq!(cas.entries(), 1);
        assert_eq!(cas.pinned_bytes(), 2048);
        cas.unpin(&d);
        assert_eq!(cas.pinned_bytes(), 0);
    }
}
