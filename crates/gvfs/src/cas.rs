//! Per-proxy content-addressed store (CAS).
//!
//! Generalizes the zero-block map into "serve locally anything whose
//! bytes the near side already has": every file-channel chunk a proxy
//! fetches is indexed by its [`crate::digest`] digest, and the file
//! channel's one recipe fetch,
//! [`crate::channel::ChannelClient::fetch_recipe_pinned`], consults the
//! index before asking the WAN for a payload and pins what it finds in
//! place: for a reference file, or for
//! [`crate::channel::PinnedRecipe::materialize`] to read the file back
//! out through the pins.
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
//! A fetched stream is verified once per host thread. [`Blob::verify`]
//! decodes and digests a reply's stream in full the first time, then
//! keeps a `Weak` to it by digest; a later reply that repeats it byte
//! for byte shares that allocation. The virtual clock cannot tell: a
//! repeat is charged the same decompress and digest as the first.
//!
//! A stream is validated once, by the walk that builds its record index
//! as it enters (one that fails is not retained); a read seeks with the
//! index and decodes only its range, onto the buffer it builds.
//!
//! A pinned file's contents are read only through
//! [`ContentStore::pinned_block`], a 32 KiB file block at a time
//! ([`vfs::CHUNK_SIZE`], the NFS block every layer above moves): a
//! reference file asks for the run of shared chunks a read touches in a
//! block, each cut to the block, so a whole-block read asks for the
//! whole block. A block is assembled once per host thread.
//! A per-thread block table maps the slices a block is made of — each a
//! stream allocation and a range of its original bytes — to a `Weak` to
//! the pooled block decoded from them. The table holds `Weak`s to the
//! streams too, which keeps their addresses from being reused, and a
//! stream reachable through a `Weak` never changes in place, so a hit is
//! a pure function of the bytes and trusts no digest. The table is keyed
//! by file block, not by stream block: a recipe of 8 KiB chunks still
//! yields 32 KiB blocks. A block lives as long as someone holds it — a
//! kernel client keeps it as the READ reply it was encoded into carries
//! it — so the next clone's read of that block decodes nothing.
//!
//! Capacity is bounded (logical bytes indexed); eviction takes the
//! least-recently-touched unpinned entries, in the recency order of a
//! [`vfs::LruMap`].

use simnet::Shared;
use simnet::{Counter, Env, Telemetry};
use std::cell::RefCell;
use std::cmp::Ordering;
use std::ops::Range;
use std::rc::{Rc, Weak};
use vfs::{share, share_slice, LruMap, SharedBytes, WeakTable};

use crate::channel::WirePayload;
use crate::codec::{self, CodecModel, RecordIndex};
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
    /// Where `packed`'s records lie.
    index: RecordIndex,
    /// Logical (uncompressed) length.
    len: u32,
    /// Live references from reference-backed file-cache entries
    /// (copy-on-write clones, DESIGN.md §5.9). A pinned entry is the
    /// proxy's residency guarantee for recipe-served bytes, so LRU
    /// eviction must never drop it.
    pins: u32,
}

struct Inner {
    /// The entries in recency order; the byte budget, not the map's
    /// count bound, limits them.
    map: LruMap<Digest, Entry>,
    /// Sum of logical lengths of resident entries.
    bytes: u64,
    /// Incremented when an insert ends over capacity because every
    /// remaining eviction candidate is pinned (`cas.pin_blocked_evictions`
    /// once a proxy counts into it).
    pin_blocked: Counter,
    /// Incremented when a reference file asks for a chunk it holds a pin
    /// on and the chunk is not resident — a pin-discipline bug, reported
    /// as [`BrokenPin`] (into the proxy's `recovered_errors`).
    broken_pins: Counter,
}

/// A read through a CAS pin that found no resident, decodable entry: the
/// residency guarantee the pin stands for was broken. Readers report it —
/// a guest READ fails with `NFS3ERR_IO`, a flush keeps the file dirty —
/// instead of inventing the bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrokenPin;

/// A chunk in the stream it crossed the wire in — a codec stream, or raw
/// bytes — held by reference, together with the digest and length that
/// stream was verified against. The fields are private and
/// [`Blob::verify`] is the only constructor, so a `Blob` is the proof
/// that `digest` names `wire`'s preimage: a stream verified once per
/// host thread, in full or by a byte compare with a live stream that
/// was. [`ContentStore::insert_blob`] indexes it without digesting the
/// bytes a second time.
#[derive(Debug)]
pub struct Blob {
    digest: Digest,
    len: u32,
    compressed: bool,
    wire: SharedBytes,
}

/// A stream [`Blob::verify`] has passed in full: the reply fields it
/// was checked with, and the allocation it lives in, unowned.
struct Verified {
    compressed: bool,
    len: u64,
    wire: Weak<Vec<u8>>,
}

thread_local! {
    /// Per thread, like [`vfs::share`]'s pool and for the same reason:
    /// a simulation's objects never leave the thread that runs it.
    static VERIFIED: RefCell<WeakTable<Digest, Verified>> =
        const { RefCell::new(WeakTable::new()) };
}

impl Blob {
    /// Verify a `FETCH_BLOBS` reply's payload `p` against `want`,
    /// charging the codec model for a decompress (if `p` is compressed)
    /// and a digest of `p.len` bytes. A payload whose flag, length and
    /// stream all equal those of a live stream that passed in full for
    /// `want` is that stream: it shares its allocation and is neither
    /// decoded nor digested again. Any other payload is unpacked,
    /// digested and length-checked; one that passes is kept for later
    /// replies. The table holds no strong reference, and an allocation
    /// reachable through a `Weak` never changes in place
    /// ([`vfs::share`]), so a match is with bytes that did pass.
    pub(crate) fn verify(env: &Env, want: Digest, p: &WirePayload<'_>) -> Option<Blob> {
        let model = CodecModel::default();
        let wire = match Blob::known(want, p) {
            Some(wire) => {
                if p.compressed {
                    env.sleep(model.decompress_time(p.len));
                }
                env.sleep(model.digest_time(p.len));
                wire
            }
            None => {
                let contents = p.unpack(env).ok()?;
                env.sleep(model.digest_time(contents.len() as u64));
                if contents.len() as u64 != p.len || digest(&contents) != want {
                    return None;
                }
                let wire = share_slice(p.data);
                // Kept for later replies; entries of dropped streams go
                // in the table's sweep.
                let v = Verified {
                    compressed: p.compressed,
                    len: p.len,
                    wire: Rc::downgrade(&wire),
                };
                let live = |_: &Digest, v: &mut Verified| v.wire.strong_count() > 0;
                VERIFIED.with(|table| table.borrow_mut().insert(want, v, live));
                wire
            }
        };
        Some(Blob {
            digest: want,
            len: p.len as u32,
            compressed: p.compressed,
            wire,
        })
    }

    /// The live stream that passed in full for `want` if `p` repeats
    /// it: the same flag, the same length and the same bytes.
    fn known(want: Digest, p: &WirePayload<'_>) -> Option<SharedBytes> {
        VERIFIED.with(|table| {
            let table = table.borrow();
            let v = table.map.get(&want)?;
            if v.compressed != p.compressed || v.len != p.len {
                return None;
            }
            v.wire.upgrade().filter(|wire| wire[..] == *p.data)
        })
    }

    /// Logical (uncompressed) length.
    pub(crate) fn len(&self) -> u32 {
        self.len
    }
}

/// A slice of a file block: `lo..hi` of the original bytes of the
/// stream `stream`. Ordered by the stream's address, which its `Weak`
/// keeps from being reused.
struct StreamSlice {
    stream: Weak<Vec<u8>>,
    lo: u32,
    hi: u32,
}

impl StreamSlice {
    fn key(&self) -> (usize, u32, u32) {
        (self.stream.as_ptr() as usize, self.lo, self.hi)
    }
}

impl PartialEq for StreamSlice {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}

impl Eq for StreamSlice {}

impl PartialOrd for StreamSlice {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for StreamSlice {
    fn cmp(&self, other: &Self) -> Ordering {
        self.key().cmp(&other.key())
    }
}

/// A block's slices: the first inline, the rest (none, for a block
/// inside one chunk) behind a box that is empty then.
type BlockKey = (StreamSlice, Box<[StreamSlice]>);

thread_local! {
    /// The block table of the module docs, per thread like `VERIFIED`.
    static BLOCKS: RefCell<WeakTable<BlockKey, Weak<Vec<u8>>>> =
        const { RefCell::new(WeakTable::new()) };
}

/// The content-addressed store. A key is either computed from the stored
/// bytes inside [`ContentStore::insert`] or carried by a [`Blob`], whose
/// only constructor checks the same digest (on the stream itself, or on
/// the byte-identical stream it repeats) — so the index can never claim
/// a digest it does not hold the preimage of.
pub struct ContentStore {
    inner: Shared<Inner>,
    capacity: u64,
}

impl ContentStore {
    /// A store bounded at `capacity` logical bytes.
    pub fn new(capacity: u64) -> Self {
        ContentStore {
            inner: Shared::new(Inner {
                map: LruMap::new(usize::MAX),
                bytes: 0,
                pin_blocked: Counter::new(),
                broken_pins: Counter::new(),
            }),
            capacity,
        }
    }

    /// Count pin-blocked evictions and reads through a broken pin into
    /// these counters from now on: the store outlives the proxy that
    /// counts, and a restarted proxy brings its own.
    pub fn count_into(&self, pin_blocked: Counter, broken_pins: Counter) {
        let mut inner = self.inner.lock();
        inner.pin_blocked = pin_blocked;
        inner.broken_pins = broken_pins;
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
        self.index(d, bytes.len() as u64, pin, || share(codec::compress(bytes)));
        d
    }

    /// Index a fetched chunk in the stream it was verified in, by
    /// reference, taking a pin on it if `pin`: [`ContentStore::insert`] /
    /// [`ContentStore::insert_pinned`] without the digest, which the
    /// blob's one constructor vouches for. A chunk that travelled raw is
    /// compressed only if it is new here. An oversized blob is not
    /// retained.
    pub fn insert_blob(&self, blob: Blob, pin: bool) {
        let Blob {
            digest,
            len,
            compressed,
            wire,
        } = blob;
        self.index(digest, len as u64, pin, || {
            if compressed {
                wire
            } else {
                share(codec::compress(&wire))
            }
        });
    }

    /// The body of every insert: index `len` logical bytes under `d`,
    /// asking for the shared compressed stream only when the content is
    /// new. A new stream that fails its index walk, or is not `len`
    /// bytes long, is not retained.
    fn index(&self, d: Digest, len: u64, pin: bool, packed: impl FnOnce() -> SharedBytes) {
        if len > self.capacity {
            return;
        }
        let mut inner = self.inner.lock();
        if let Some(e) = inner.map.get_mut(&d) {
            if pin {
                e.pins += 1;
            }
            return;
        }
        let packed = packed();
        let index = RecordIndex::build(&packed).ok();
        let Some(index) = index.filter(|index| index.len() as u64 == len) else {
            return;
        };
        inner.bytes += len;
        inner.map.insert(
            d,
            Entry {
                packed,
                index,
                len: len as u32,
                pins: u32::from(pin),
            },
        );
        // Evict least-recently-touched *unpinned* entries until back
        // under capacity, in one walk from the least recent. Pinned
        // entries are skipped — a live reference file is still serving
        // reads out of them — so under enough pin pressure the store is
        // allowed to overrun its capacity rather than silently drop bytes
        // a recipe still resolves through; that condition is surfaced on
        // the pin-blocked counter.
        let mut bytes = inner.bytes;
        let mut victims = Vec::new();
        for (d2, e) in inner.map.iter_lru() {
            if bytes <= self.capacity {
                break;
            }
            if e.pins == 0 {
                bytes -= e.len as u64;
                victims.push(*d2);
            }
        }
        if bytes > self.capacity {
            inner.pin_blocked.inc();
        }
        for victim in victims {
            inner.map.remove(&victim);
        }
        inner.bytes = bytes;
    }

    /// Take a pin on `d`, preventing its eviction until a matching
    /// [`ContentStore::unpin`]. Succeeds only while the preimage is
    /// resident — a `true` return is the caller's residency guarantee.
    /// Pins nest: each successful `pin` needs its own `unpin`.
    pub fn pin(&self, d: &Digest) -> bool {
        let mut inner = self.inner.lock();
        match inner.map.peek_mut(d) {
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
        if let Some(e) = inner.map.peek_mut(d) {
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
            .iter_lru()
            .filter(|(_, e)| e.pins > 0)
            .map(|(_, e)| e.len as u64)
            .sum()
    }

    /// Whether `d`'s preimage is resident (does not refresh recency).
    pub fn contains(&self, d: &Digest) -> bool {
        self.inner.lock().map.contains(d)
    }

    /// Logical length of `d`'s preimage if resident (no recency refresh).
    pub fn len_of(&self, d: &Digest) -> Option<u32> {
        self.inner.lock().map.peek(d).map(|e| e.len)
    }

    /// Fetch the preimage of `d`, refreshing its recency. Host-side
    /// only; see the module docs for why no simulation time is charged.
    /// Recency moves only after a successful decode, so a corrupt entry
    /// keeps its place.
    pub fn get(&self, d: &Digest) -> Option<Vec<u8>> {
        let mut inner = self.inner.lock();
        let e = inner.map.peek(d)?;
        let mut out = Vec::with_capacity(e.len as usize);
        e.index
            .read_into(&e.packed, 0, e.len as usize, &mut out)
            .ok()?;
        inner.map.get(d);
        Some(out)
    }

    /// The bytes `slices` make up — ranges of chunks the caller holds
    /// pins on, in file order, inside one file block — as one pooled
    /// allocation, decoded once per host thread while anyone holds it
    /// (the module docs); then their chunks move up in recency, in
    /// order, as a read of them does. A chunk that is not resident, or
    /// does not decode to its range, is a broken pin: counted, and
    /// recency left as it was.
    pub(crate) fn pinned_block(
        &self,
        slices: &[(Digest, Range<usize>)],
    ) -> Result<SharedBytes, BrokenPin> {
        let mut inner = self.inner.lock();
        let block = Self::block(&inner, slices);
        match block {
            Some(block) => {
                for (d, _) in slices {
                    inner.map.get(d);
                }
                Ok(block)
            }
            None => {
                inner.broken_pins.inc();
                Err(BrokenPin)
            }
        }
    }

    /// The body of [`ContentStore::pinned_block`]: the block table's
    /// live entry, or the slices decoded into one vector, pooled and
    /// kept for later callers (entries whose block or any stream died
    /// go in the table's sweep).
    fn block(inner: &Inner, slices: &[(Digest, Range<usize>)]) -> Option<SharedBytes> {
        let slice = |(d, r): &(Digest, Range<usize>)| {
            let e = inner.map.peek(d)?;
            Some(StreamSlice {
                stream: Rc::downgrade(&e.packed),
                lo: u32::try_from(r.start).ok()?,
                hi: u32::try_from(r.end).ok()?,
            })
        };
        let (first, rest) = slices.split_first()?;
        let rest = rest.iter().map(slice).collect::<Option<Box<[_]>>>()?;
        let key = (slice(first)?, rest);
        BLOCKS.with(|table| {
            let mut table = table.borrow_mut();
            if let Some(block) = table.map.get(&key).and_then(Weak::upgrade) {
                return Some(block);
            }
            let len = slices.iter().map(|(_, r)| r.len()).sum();
            let mut out = Vec::with_capacity(len);
            for (d, r) in slices {
                let e = inner.map.peek(d)?;
                e.index
                    .read_into(&e.packed, r.start, r.len(), &mut out)
                    .ok()?;
            }
            let block = (out.len() == len).then(|| share(out))?;
            table.insert(key, Rc::downgrade(&block), |(first, rest), block| {
                let live = |s: &StreamSlice| s.stream.strong_count() > 0;
                block.strong_count() > 0 && live(first) && rest.iter().all(live)
            });
            Some(block)
        })
    }

    /// `d`'s entry as stored — its logical length and its compressed
    /// stream — refreshing its recency like [`ContentStore::get`] but
    /// decoding nothing: what a relay answers a `FETCH_BLOBS` with.
    pub fn get_packed(&self, d: &Digest) -> Option<(u32, SharedBytes)> {
        let mut inner = self.inner.lock();
        let e = inner.map.get(d)?;
        Some((e.len, e.packed.clone()))
    }

    /// Damage `d`'s stored stream so every decode of it fails: cut to its
    /// 12-byte header, it lacks the record any read seeks to.
    #[cfg(test)]
    pub(crate) fn corrupt_entry(&self, d: &Digest) {
        if let Some(e) = self.inner.lock().map.peek_mut(d) {
            std::rc::Rc::make_mut(&mut e.packed).truncate(12);
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
    use crate::channel::{read_blob_reply, ChanStatus, ChannelError, Reply};
    use simnet::SimDuration;

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
    fn pinned_block_slices_the_preimage_and_touches_recency() {
        let cas = ContentStore::new(10_000);
        let a: Vec<u8> = (0..4096u32).map(|i| (i * 7) as u8).collect();
        let b = vec![9u8; 4096];
        let da = cas.insert(&a);
        let db = cas.insert(&b);
        let block = |r: Range<usize>| cas.pinned_block(&[(da, r)]).map(|b| b.to_vec());
        assert_eq!(block(100..150).unwrap(), &a[100..150]);
        assert_eq!(block(4090..4096).unwrap(), &a[4090..]);
        // A range past the chunk does not decode to its length.
        assert_eq!(block(4090..4140), Err(BrokenPin));
        // The range read made `a` the most recent: `b` pays.
        cas.insert(&[3u8; 4096]);
        assert!(cas.contains(&da));
        assert!(!cas.contains(&db));
    }

    #[test]
    fn failed_decode_leaves_recency_untouched() {
        // A read that fails to decode must not refresh recency: `a` stays
        // the least recently touched and pays for the next insert, and
        // `b` is still resident after it.
        let cas = ContentStore::new(10_000);
        let a: Vec<u8> = (0..4096u32).map(|i| i as u8).collect();
        let da = cas.insert(&a);
        let db = cas.insert(&[2u8; 4096]);
        cas.corrupt_entry(&da);
        assert!(cas.get(&da).is_none());
        assert_eq!(cas.pinned_block(&[(da, 0..16)]), Err(BrokenPin));
        cas.insert(&[3u8; 4096]);
        assert!(!cas.contains(&da));
        assert!(cas.contains(&db));
        assert_eq!((cas.entries(), cas.logical_bytes()), (2, 8192));
    }

    /// [`ContentStore::pinned_block`] of one range of `d`, as a vector.
    fn pinned(cas: &ContentStore, d: &Digest, r: Range<usize>) -> Result<Vec<u8>, BrokenPin> {
        cas.pinned_block(&[(*d, r)]).map(|b| b.to_vec())
    }

    #[test]
    fn a_read_through_a_broken_pin_is_counted_and_reported() {
        let broken = Counter::new();
        let cas = ContentStore::new(1 << 20);
        cas.count_into(Counter::new(), broken.clone());
        let a = vec![7u8; 1000];
        let d = cas.insert_pinned(&a);
        assert_eq!(pinned(&cas, &d, 990..1000), Ok(vec![7u8; 10]));
        assert_eq!(broken.get(), 0);
        let gone = digest(b"never inserted");
        assert_eq!(pinned(&cas, &gone, 990..1000), Err(BrokenPin));
        cas.corrupt_entry(&d);
        assert_eq!(pinned(&cas, &d, 0..1000), Err(BrokenPin));
        assert_eq!(broken.get(), 2);
    }

    #[test]
    fn get_packed_hands_out_the_stored_stream_and_touches_recency() {
        let cas = ContentStore::new(10_000);
        let a: Vec<u8> = (0..4096u32).map(|i| (i * 3) as u8).collect();
        let da = cas.insert(&a);
        let db = cas.insert(&[9u8; 4096]);
        let (len, packed) = cas.get_packed(&da).unwrap();
        assert_eq!(len, 4096);
        assert_eq!(codec::decompress(&packed).unwrap(), a);
        assert!(cas.get_packed(&digest(b"absent")).is_none());
        // `a` is now the most recent: `b` pays.
        cas.insert(&[3u8; 4096]);
        assert!(cas.contains(&da));
        assert!(!cas.contains(&db));
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

    impl Blob {
        /// `wire` claimed for `digest` without a check: for the store's
        /// own refusals, which a verified blob never reaches.
        fn unchecked(digest: Digest, len: usize, compressed: bool, wire: Vec<u8>) -> Blob {
            Blob {
                digest,
                len: len as u32,
                compressed,
                wire: Rc::new(wire),
            }
        }
    }

    /// `bytes` as the blob a verified fetch reply would have made of it.
    fn blob_of(bytes: &[u8]) -> Blob {
        Blob::unchecked(digest(bytes), bytes.len(), true, codec::compress(bytes))
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
    fn a_damaged_stream_is_refused_on_the_way_in() {
        let a: Vec<u8> = (0..5000u32).map(|i| (i / 9) as u8).collect();
        let good = codec::compress(&a);
        let mut unknown_tag = good.clone();
        unknown_tag[12] = 9;
        // A zero run of twice the declared length.
        let mut past_the_end = good[..12].to_vec();
        past_the_end.push(0);
        past_the_end.extend_from_slice(&10_000u32.to_be_bytes());
        for (what, stream) in [
            ("truncated", good[..good.len() - 1].to_vec()),
            ("unknown tag", unknown_tag),
            ("record past the end", past_the_end),
            ("other length", codec::compress(&a[..4999])),
        ] {
            let cas = ContentStore::new(1 << 20);
            let d = digest(&a);
            cas.insert_blob(Blob::unchecked(d, a.len(), true, stream), true);
            assert!(!cas.contains(&d), "{what}");
            assert!(!cas.pin(&d), "{what}");
            assert_eq!((cas.entries(), cas.logical_bytes()), (0, 0), "{what}");
            assert_eq!(cas.pinned_bytes(), 0, "{what}");
        }
    }

    #[test]
    fn a_blob_of_an_uncompressed_reply_is_compressed_on_the_way_in() {
        let cas = ContentStore::new(1 << 20);
        let a: Vec<u8> = (0..5000u32).map(|i| (i / 9) as u8).collect();
        cas.insert_blob(
            Blob::unchecked(digest(&a), a.len(), false, a.clone()),
            false,
        );
        assert_eq!(cas.get(&digest(&a)).unwrap(), a);
    }

    /// Run `body` as the one process of a fresh simulation.
    fn in_sim(body: impl FnOnce(&Env) + 'static) {
        let sim = simnet::Simulation::new();
        sim.spawn("verify", move |env| body(&env));
        sim.run();
    }

    /// A `FETCH_BLOBS` reply carrying `data`, read and verified against
    /// `want` by the channel: the outcome, and the virtual time it took.
    fn read_reply(
        env: &Env,
        want: Digest,
        compressed: bool,
        len: usize,
        data: &[u8],
    ) -> (Result<Blob, ChannelError>, SimDuration) {
        let reply = xdr::to_bytes(&Reply(Ok(WirePayload {
            len: len as u64,
            compressed,
            data,
        })));
        let start = env.now();
        let blob = read_blob_reply(env, &reply, want).map(|(b, _)| b);
        (blob, env.now() - start)
    }

    /// Whether `data` would be taken as a repeat of a verified stream.
    fn repeats(want: Digest, compressed: bool, len: usize, data: &[u8]) -> bool {
        let p = WirePayload {
            len: len as u64,
            compressed,
            data,
        };
        Blob::known(want, &p).is_some()
    }

    /// A 64 KiB chunk of literals between runs, as memory images are.
    fn chunk(seed: u8) -> Vec<u8> {
        (0..64 * 1024u32)
            .map(|i| match i % 512 {
                0..=199 => 0,
                r => (r as u8).wrapping_mul(seed) | 1,
            })
            .collect()
    }

    #[test]
    fn a_stream_that_differs_from_a_verified_one_in_any_field_is_refused() {
        in_sim(|env| {
            let a = chunk(3);
            let want = digest(&a);
            let honest = codec::compress(&a);
            let (first, _) = read_reply(env, want, true, a.len(), &honest);
            let first = first.unwrap();
            let mut one_byte = honest.clone();
            let at = honest.len() / 2;
            one_byte[at] ^= 0x40;
            let bad: [(&str, bool, usize, &[u8]); 3] = [
                ("one byte changed", true, a.len(), &one_byte),
                ("flagged uncompressed", false, a.len(), &honest),
                ("another length", true, a.len() + 1, &honest),
            ];
            for (what, compressed, len, data) in bad {
                let (blob, _) = read_reply(env, want, compressed, len, data);
                assert_eq!(
                    blob.err(),
                    Some(ChannelError::Status(ChanStatus::BadStream)),
                    "{what}"
                );
                assert!(!repeats(want, compressed, len, data), "{what}");
                // The refusal left the verified stream in place.
                assert!(repeats(want, true, a.len(), &honest), "after {what}");
                let (again, _) = read_reply(env, want, true, a.len(), &honest);
                let again = again.unwrap();
                assert!(Rc::ptr_eq(&again.wire, &first.wire), "after {what}");
                assert_eq!((again.digest, again.len), (want, a.len() as u32));
            }
        });
    }

    #[test]
    fn a_repeat_charges_what_the_full_verify_charged() {
        in_sim(|env| {
            for compressed in [true, false] {
                let a = chunk(5 + u8::from(compressed));
                let want = digest(&a);
                let wire = if compressed {
                    codec::compress(&a)
                } else {
                    a.clone()
                };
                assert!(!repeats(want, compressed, a.len(), &wire));
                let (first, full) = read_reply(env, want, compressed, a.len(), &wire);
                let _first = first.unwrap();
                assert!(repeats(want, compressed, a.len(), &wire));
                let (second, repeat) = read_reply(env, want, compressed, a.len(), &wire);
                second.unwrap();
                assert!(full > SimDuration::ZERO, "compressed: {compressed}");
                assert_eq!(repeat, full, "compressed: {compressed}");
            }
        });
    }

    #[test]
    fn a_stream_no_store_holds_is_verified_in_full_again() {
        in_sim(|env| {
            let (a, b) = (chunk(7), chunk(9));
            let (da, db) = (digest(&a), digest(&b));
            let wire = codec::compress(&a);
            let fetch = |cas: &ContentStore| {
                let (blob, charged) = read_reply(env, da, true, a.len(), &wire);
                cas.insert_blob(blob.unwrap(), false);
                charged
            };
            // Dropped with its store.
            let cas = ContentStore::new(1 << 20);
            let full = fetch(&cas);
            assert!(repeats(da, true, a.len(), &wire));
            drop(cas);
            assert!(!repeats(da, true, a.len(), &wire), "dropped with its store");
            // Evicted: `b` takes the only room.
            let cas = ContentStore::new(a.len() as u64);
            assert_eq!(fetch(&cas), full);
            assert!(repeats(da, true, a.len(), &wire));
            cas.insert(&b);
            assert!(cas.contains(&db) && !cas.contains(&da));
            assert!(!repeats(da, true, a.len(), &wire), "evicted");
            assert_eq!(fetch(&cas), full);
            assert_eq!(cas.get(&da).unwrap(), a);
        });
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
        // recency, but a live reference pins it; capacity pressure
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
        assert_eq!(cas.inner.lock().pin_blocked.get(), 0);
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
        assert_eq!(cas.inner.lock().pin_blocked.get(), 1);
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

    /// Lengths of the model test's contents, the last longer than the
    /// whole store, and the store's budget.
    const MODEL_LENS: [usize; 8] = [1000, 2000, 3000, 1000, 2000, 3000, 1500, 8000];
    const MODEL_CAP: u64 = 7000;

    /// One resident entry of the model: which content, its pin count, and
    /// whether its stream was damaged.
    struct Modelled {
        chunk: usize,
        pins: u32,
        corrupt: bool,
    }

    proptest::proptest! {
        /// Random inserts, pins, touching and non-touching reads and
        /// damaged streams against a small budget behave as a list in
        /// recency order (least recent first) that evicts the oldest
        /// unpinned entries until the store fits, and counts one
        /// pin-blocked eviction when it cannot.
        #[test]
        fn cas_matches_a_recency_list(
            ops in proptest::collection::vec(
                (0u8..16, 0usize..8, 0usize..8, proptest::prelude::any::<u16>()),
                1..150,
            ),
        ) {
            let chunks: Vec<Vec<u8>> = (0..MODEL_LENS.len())
                .map(|i| (0..MODEL_LENS[i]).map(|j| (j * (i + 3) / 5) as u8 ^ i as u8).collect())
                .collect();
            let ds: Vec<Digest> = chunks.iter().map(|c| digest(c)).collect();
            let (blocked, broken) = (Counter::new(), Counter::new());
            let cas = ContentStore::new(MODEL_CAP);
            cas.count_into(blocked.clone(), broken.clone());
            let mut model: Vec<Modelled> = Vec::new();
            let (mut blocked_n, mut broken_n) = (0u64, 0u64);
            let at = |model: &[Modelled], i: usize| model.iter().position(|m| m.chunk == i);
            let touch = |model: &mut Vec<Modelled>, p: usize| {
                let m = model.remove(p);
                model.push(m);
            };
            for (op, i, j, r) in ops {
                let range = |c: usize| {
                    let len = MODEL_LENS[c];
                    let lo = r as usize % len;
                    lo..lo + 1 + (r as usize / 7) % (len - lo)
                };
                match op {
                    0..=3 => {
                        let pin = op == 3;
                        let d = if pin {
                            cas.insert_pinned(&chunks[i])
                        } else {
                            cas.insert(&chunks[i])
                        };
                        proptest::prop_assert_eq!(d, ds[i]);
                        match at(&model, i) {
                            Some(p) => {
                                model[p].pins += u32::from(pin);
                                touch(&mut model, p);
                            }
                            None if MODEL_LENS[i] as u64 <= MODEL_CAP => {
                                let pins = u32::from(pin);
                                model.push(Modelled { chunk: i, pins, corrupt: false });
                                let mut bytes: u64 =
                                    model.iter().map(|m| MODEL_LENS[m.chunk] as u64).sum();
                                let mut from = 0;
                                while bytes > MODEL_CAP {
                                    let Some(q) = model[from..].iter().position(|m| m.pins == 0)
                                    else {
                                        blocked_n += 1;
                                        break;
                                    };
                                    from += q;
                                    bytes -= MODEL_LENS[model.remove(from).chunk] as u64;
                                }
                            }
                            None => {}
                        }
                    }
                    4 => {
                        let p = at(&model, i);
                        proptest::prop_assert_eq!(cas.pin(&ds[i]), p.is_some());
                        if let Some(p) = p {
                            model[p].pins += 1;
                        }
                    }
                    5 | 6 => {
                        if let Some(p) = at(&model, i).filter(|&p| model[p].pins > 0) {
                            cas.unpin(&ds[i]);
                            model[p].pins -= 1;
                        }
                    }
                    7 => {
                        let got = cas.get_packed(&ds[i]).map(|(len, _)| len as usize);
                        let p = at(&model, i);
                        proptest::prop_assert_eq!(got, p.map(|_| MODEL_LENS[i]));
                        if let Some(p) = p {
                            touch(&mut model, p);
                        }
                    }
                    8..=10 => {
                        let got = cas.get(&ds[i]);
                        match at(&model, i).filter(|&p| !model[p].corrupt) {
                            Some(p) => {
                                proptest::prop_assert_eq!(got.as_ref(), Some(&chunks[i]));
                                touch(&mut model, p);
                            }
                            None => proptest::prop_assert_eq!(got, None),
                        }
                    }
                    11 | 12 => {
                        let picked: &[usize] = if op == 11 { &[i] } else { &[i, j] };
                        let slices: Vec<_> = picked.iter().map(|&c| (ds[c], range(c))).collect();
                        let got = cas.pinned_block(&slices).map(|b| b.to_vec());
                        let whole = picked
                            .iter()
                            .all(|&c| at(&model, c).is_some_and(|p| !model[p].corrupt));
                        if whole {
                            let want: Vec<u8> =
                                picked.iter().flat_map(|&c| chunks[c][range(c)].to_vec()).collect();
                            proptest::prop_assert_eq!(got, Ok(want));
                            for &c in picked {
                                let p = at(&model, c).expect("resident");
                                touch(&mut model, p);
                            }
                        } else {
                            proptest::prop_assert_eq!(got, Err(BrokenPin));
                            broken_n += 1;
                        }
                    }
                    13 => {
                        proptest::prop_assert_eq!(cas.contains(&ds[i]), at(&model, i).is_some());
                    }
                    14 => {
                        let want = at(&model, i).map(|_| MODEL_LENS[i] as u32);
                        proptest::prop_assert_eq!(cas.len_of(&ds[i]), want);
                    }
                    _ => {
                        cas.corrupt_entry(&ds[i]);
                        if let Some(p) = at(&model, i) {
                            model[p].corrupt = true;
                        }
                    }
                }
                let mut resident: Vec<usize> = model.iter().map(|m| m.chunk).collect();
                resident.sort_unstable();
                let held: Vec<usize> = (0..ds.len()).filter(|&c| cas.len_of(&ds[c]).is_some()).collect();
                proptest::prop_assert_eq!(held, resident);
                proptest::prop_assert_eq!(cas.entries(), model.len());
                let bytes = |pinned: bool| -> u64 {
                    model
                        .iter()
                        .filter(|m| !pinned || m.pins > 0)
                        .map(|m| MODEL_LENS[m.chunk] as u64)
                        .sum()
                };
                proptest::prop_assert_eq!(cas.logical_bytes(), bytes(false));
                proptest::prop_assert_eq!(cas.pinned_bytes(), bytes(true));
                proptest::prop_assert_eq!(blocked.get(), blocked_n);
                proptest::prop_assert_eq!(broken.get(), broken_n);
            }
        }
    }
}
