//! The GVFS user-level file system proxy.
//!
//! A proxy "behaves both as a server (receiving RPC calls) and a client
//! (issuing RPC calls)" (paper §3.2.1): it accepts NFS RPC traffic from
//! the kernel client below it and forwards misses to the next hop above
//! it — another proxy or the kernel NFS server. Because hops compose,
//! arbitrary chains form: kernel client → client-side proxy (disk caches,
//! meta-data) → LAN second-level cache proxy → server-side proxy
//! (identity mapping) → kernel server.
//!
//! Per-session proxies are dynamically created and configured
//! *per user / per application*: cache size, write policy and meta-data
//! handling are all [`ProxyConfig`] fields, which is the paper's central
//! argument for user-level (rather than kernel) extensions.
//!
//! Absorbed writes live on the proxy's cache disk until a middleware
//! signal ([`Proxy::flush`]) or an eviction sends them upstream — both
//! through `WbSink`: the one block sender and the one file uploader.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::RangeInclusive;
use std::sync::Arc;

use oncrpc::msg::{AcceptStat, CallHeader, RejectStat, ReplyBody, RpcMessage};
use oncrpc::transport::RpcHandler;
use oncrpc::{ProgramError, RpcClient, RpcError};
use parking_lot::Mutex;
use simnet::telemetry::{Counter, Telemetry, TraceEvent};
use simnet::{run_windowed, Env, SimDuration, TransferTel};
use vfs::{share_slice, Handle, SharedBytes};

/// Dirty blocks grouped by file: `(block, data)` runs awaiting
/// write-back. BTreeMap: flush() iterates it, and write-back order must
/// be deterministic (lint: determinism).
type DirtyByFile = BTreeMap<FileKey, Vec<(u64, SharedBytes)>>;

/// One write-back slot: `(block, payload, content digest when dedup is
/// on, write verifier if the WRITE succeeded)`. The payload stays in the
/// slot so a failed or verifier-mismatched write can requeue its bytes;
/// the digest — computed once before the send — is what an ack records.
type WriteBackSlot = Option<(u64, SharedBytes, Option<Digest>, Option<u64>)>;

/// A dedup skip candidate: `(block, payload, verifier of its ack)`.
type SkipCandidate = (u64, SharedBytes, u64);

/// A dirty file on its way upstream, `(file, what must travel, digest of
/// the full contents when dedup computed one)`: what
/// [`WbSink::upload_file`] sends and a failed upload keeps for a retry.
type PendingUpload = (FileKey, DirtyFile, Option<Digest>);

use nfs3::args::{ReadArgs, SetattrArgs, WriteArgs};
use nfs3::proto::{proc3, DirOpArgs3, Fh3, ReadRes, StableHow, Status, NFS_PROGRAM, NFS_V3};
use nfs3::results::{
    decode_getattr, decode_lookup, decode_read, encode_commit, encode_fail_postop, encode_getattr,
    encode_read, encode_write,
};

use crate::block_cache::{BlockCache, Tag, WritePolicy};
use crate::cas::{ContentStore, DedupTel, DedupTuning};
use crate::channel::{
    self, batchable, blob_reply_len, chanproc, chunk_ranges, decode_args_file, decode_blob_args,
    decode_chunk_args, decode_gossip, decode_recipe_args, encode_gossip, read_blob_reply,
    ChannelClient, RecipeFetch, CHANNEL_PROGRAM, CHANNEL_V1, MAX_GOSSIP_DIGESTS,
};
use crate::codec::CodecModel;
use crate::digest::{self, Digest};
use crate::file_cache::{CowTuning, DirtyFile, FileCache, FileKey};
use crate::fleet::FleetTuning;
use crate::identity::IdentityMapper;
use crate::meta::{is_meta_name, meta_name_for, MetaFile};
use crate::transfer::TransferTuning;

/// Proxy configuration — middleware sets these per user / per application.
#[derive(Debug, Clone)]
pub struct ProxyConfig {
    /// Display name for simulation process labels.
    pub name: String,
    /// Write policy for the block cache.
    pub write_policy: WritePolicy,
    /// Interpret meta-data files (zero maps, file channel).
    pub meta_handling: bool,
    /// When true the block cache is treated as shared read-only: absorbed
    /// writes are disabled regardless of policy (paper: "different
    /// proxies [may] share disk caches for read-only data").
    pub read_only_share: bool,
    /// Overlapped-WAN-transfer knobs: file-channel chunking, flush
    /// write-back window, sequential read-ahead depth.
    pub transfer: TransferTuning,
    /// Content-addressed redundancy elimination knobs. With
    /// [`DedupTuning::off()`] every WAN path behaves exactly as before
    /// the CAS existed (byte-for-byte identical reports).
    pub dedup: DedupTuning,
    /// Fleet preset (blob batching + write-back queue cap, then digest
    /// gossip). [`FleetTuning::off()`], the default, leaves every path
    /// and virtual instant as before the fleet work.
    pub fleet: FleetTuning,
    /// Copy-on-write reference files: install channel fetches as
    /// CAS-resolved recipes instead of materialized copies. Requires
    /// `dedup` (inert without a CAS); with [`CowTuning::off()`] (the
    /// default) every path behaves exactly as before reference files
    /// existed (identical virtual timeline).
    pub cow: CowTuning,
}

impl Default for ProxyConfig {
    fn default() -> Self {
        ProxyConfig {
            name: "gvfs-proxy".into(),
            write_policy: WritePolicy::WriteBack,
            meta_handling: true,
            read_only_share: false,
            transfer: TransferTuning::default(),
            dedup: DedupTuning::default(),
            fleet: FleetTuning::off(),
            cow: CowTuning::off(),
        }
    }
}

/// Proxy activity counters (a point-in-time view of the telemetry
/// registry's `gvfs/<proxy-name>.*` counters).
#[derive(Debug, Default, Clone, Copy)]
pub struct ProxyStats {
    /// Calls handled.
    pub calls: u64,
    /// NFS READs seen.
    pub reads: u64,
    /// NFS WRITEs seen.
    pub writes: u64,
    /// Calls forwarded upstream.
    pub forwarded: u64,
    /// READs satisfied from the zero map without any upstream traffic.
    pub zero_filtered: u64,
    /// READs served from the file cache.
    pub file_cache_reads: u64,
    /// Whole files fetched through the file channel.
    pub channel_fetches: u64,
    /// Compressed bytes the channel moved (download direction).
    pub channel_wire_bytes: u64,
    /// WRITEs absorbed by write-back caching.
    pub writes_absorbed: u64,
    /// Blocks pushed upstream by flush or dirty eviction.
    pub blocks_written_back: u64,
    /// Read-ahead blocks requested upstream.
    pub prefetch_issued: u64,
    /// Demand reads served by a block that was prefetched.
    pub prefetch_hits: u64,
    /// Failed write-backs parked on the retry queue (degraded mode).
    pub wb_queued: u64,
    /// Queued write-backs given another attempt by a flush.
    pub wb_drained: u64,
    /// COMMITs whose verifier disagreed with the WRITEs' (the server
    /// restarted mid-flush and discarded the unstable data).
    pub verf_mismatches: u64,
    /// Retry rounds flushes have run to drain failed write-backs.
    pub flush_retry_rounds: u64,
    /// Bytes that never crossed the WAN because content-addressing
    /// proved the receiver already held them.
    pub dedup_bytes_avoided: u64,
    /// Recipe records satisfied without a blob fetch (CAS hit or
    /// duplicate in-flight digest).
    pub dedup_recipe_hits: u64,
    /// Distinct missing chunks actually fetched via `FETCH_BLOBS`.
    pub dedup_blob_fetches: u64,
    /// Uploads/write-backs skipped because upstream already acknowledged
    /// identical content.
    pub dedup_acked_skips: u64,
    /// Channel fetches installed as copy-on-write reference files
    /// (recipe + pins) instead of materialized copies (0 when the cow
    /// knob is off).
    pub cow_ref_installs: u64,
    /// CAS evictions refused because every candidate was pinned by a
    /// live reference file — the store over-ran capacity instead of
    /// dropping bytes a recipe still resolves through (0 when cow off).
    pub cas_pin_blocked: u64,
}

/// Report from a middleware-driven flush. Failed counts record what the
/// bounded retry rounds could *not* drain: those blocks sit on the
/// write-back retry queue and those files are re-marked dirty, so the
/// next flush signal tries again — nothing is silently dropped.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FlushReport {
    /// Dirty blocks written upstream (durable: WRITE and COMMIT agreed
    /// on the server's write verifier).
    pub blocks: u64,
    /// Bytes written upstream (block path).
    pub block_bytes: u64,
    /// Dirty whole files uploaded through the channel.
    pub files: u64,
    /// Bytes uploaded on the wire (channel path, post-compression).
    pub file_wire_bytes: u64,
    /// Dirty blocks still on the retry queue after the retry rounds.
    pub failed_blocks: u64,
    /// Bytes belonging to `failed_blocks`.
    pub failed_block_bytes: u64,
    /// Dirty files whose channel upload kept failing; re-marked dirty in
    /// the file cache so a later flush retries the upload.
    pub failed_files: u64,
}

/// Telemetry-backed counters; `ProxyStats` is read out of these. The
/// instance name is derived from `ProxyConfig::name` (deduplicated with
/// `#2`, `#3`, ... when several proxies share a name in one simulation).
struct PxTel {
    registry: Telemetry,
    inst: String,
    /// Per-NFS-procedure call counters, registered on first use and then
    /// recorded through shared cells: the dispatch path must not take the
    /// registry lock (or build a `String` key) per request.
    nfs_procs: parking_lot::Mutex<Vec<(u32, Counter)>>,
    calls: Counter,
    reads: Counter,
    writes: Counter,
    forwarded: Counter,
    zero_filtered: Counter,
    file_cache_reads: Counter,
    channel_fetches: Counter,
    channel_wire_bytes: Counter,
    writes_absorbed: Counter,
    blocks_written_back: Counter,
    /// Dispatch-path failures converted into clean degraded handling
    /// instead of a panic (lint: panic-free-dispatch).
    recovered_errors: Counter,
    /// Blocks the read-ahead engine asked upstream for.
    prefetch_issued: Counter,
    /// Demand reads served by a block that was prefetched.
    prefetch_hits: Counter,
    /// Prefetched blocks evicted before any demand read touched them.
    prefetch_wasted: Counter,
    /// Failed write-backs parked on the retry queue (degraded mode).
    wb_queued: Counter,
    /// Queued write-backs given another attempt by a flush.
    wb_drained: Counter,
    /// COMMIT/WRITE verifier disagreements (server restart mid-flush).
    verf_mismatches: Counter,
    /// Retry rounds run by flushes to drain failed write-backs.
    flush_retry_rounds: Counter,
}

impl PxTel {
    fn register(registry: Telemetry, base: &str) -> Self {
        let inst = registry.instance_name(base);
        let c = |suffix: &str| registry.counter("gvfs", format!("{inst}.{suffix}"));
        PxTel {
            calls: c("calls"),
            reads: c("reads"),
            writes: c("writes"),
            forwarded: c("forwarded"),
            zero_filtered: c("zero_filtered"),
            file_cache_reads: c("file_cache_reads"),
            channel_fetches: c("channel_fetches"),
            channel_wire_bytes: c("channel_wire_bytes"),
            writes_absorbed: c("writes_absorbed"),
            blocks_written_back: c("blocks_written_back"),
            recovered_errors: c("recovered_errors"),
            prefetch_issued: c("prefetch_issued"),
            prefetch_hits: c("prefetch_hits"),
            prefetch_wasted: c("prefetch_wasted"),
            wb_queued: c("wb_queued"),
            wb_drained: c("wb_drained"),
            verf_mismatches: c("verf_mismatches"),
            flush_retry_rounds: c("flush_retry_rounds"),
            nfs_procs: parking_lot::Mutex::new(Vec::new()),
            inst,
            registry,
        }
    }

    /// `gvfs/<inst>.proc.<name>` counter for an NFS procedure, cached.
    fn nfs_proc_counter(&self, proc: u32) -> Counter {
        let mut procs = self.nfs_procs.lock();
        match procs.binary_search_by_key(&proc, |(p, _)| *p) {
            Ok(i) => procs[i].1.clone(),
            Err(i) => {
                let c = self.registry.counter(
                    "gvfs",
                    format!("{}.proc.{}", self.inst, nfs3::proto::proc3_name(proc)),
                );
                procs.insert(i, (proc, c.clone()));
                c
            }
        }
    }
}

/// A channel reply cache with the same bounded discipline as
/// [`ContentStore`]: a monotonic touch stamp drives deterministic
/// least-recently-touched eviction, and the stored reply bytes never
/// exceed the byte budget. Unbounded growth here would hold every
/// distinct chunk of a cloning run in host memory twice (once in the
/// CAS, once as a cached reply). One type behind all three caches: chunk
/// replies by (file, offset, count), recipe replies by (file, chunk
/// size), blob replies by content digest.
struct ReplyCache<K> {
    // BTreeMap both ways: iteration feeds eviction, which must be
    // deterministic (lint: determinism).
    entries: BTreeMap<K, (u64, xdr::Bytes)>,
    /// Touch stamp → key, oldest first.
    lru: BTreeMap<u64, K>,
    bytes: u64,
    cap: u64,
    stamp: u64,
}

/// Byte budget of a reply cache unless told otherwise: the default CAS
/// budget. The chunk- and the recipe-reply cache have it each; blob
/// replies are bounded by the configured CAS budget.
const REPLY_CACHE_BYTES: u64 = 4 << 30;

impl<K> Default for ReplyCache<K> {
    fn default() -> Self {
        ReplyCache {
            entries: BTreeMap::new(),
            lru: BTreeMap::new(),
            bytes: 0,
            cap: REPLY_CACHE_BYTES,
            stamp: 0,
        }
    }
}

impl<K: Ord + Copy> ReplyCache<K> {
    fn get(&mut self, k: &K) -> Option<xdr::Bytes> {
        self.stamp += 1;
        let stamp = self.stamp;
        let e = self.entries.get_mut(k)?;
        self.lru.remove(&e.0);
        e.0 = stamp;
        self.lru.insert(stamp, *k);
        Some(e.1.clone())
    }

    fn remove(&mut self, k: &K) {
        if let Some((stamp, body)) = self.entries.remove(k) {
            self.lru.remove(&stamp);
            self.bytes -= body.len() as u64;
        }
    }

    fn insert(&mut self, k: K, reply: xdr::Bytes) {
        let len = reply.len() as u64;
        if len > self.cap {
            return;
        }
        self.remove(&k);
        while self.bytes + len > self.cap {
            let Some((_, &victim)) = self.lru.iter().next() else {
                break;
            };
            self.remove(&victim);
        }
        self.stamp += 1;
        let stamp = self.stamp;
        self.bytes += len;
        self.entries.insert(k, (stamp, reply));
        self.lru.insert(stamp, k);
    }

    /// Drop every reply keyed inside `keys`.
    fn forget(&mut self, keys: RangeInclusive<K>) {
        let doomed: Vec<K> = self.entries.range(keys).map(|(k, _)| *k).collect();
        for k in doomed {
            self.remove(&k);
        }
    }
}

/// CPU cost per proxied call, and per reply served from local state.
const PER_OP_CPU: SimDuration = SimDuration::from_micros(40);

/// Safety valve on the durable-ack map: one entry per 32 KB block, so
/// this covers 2 GiB of distinct tracked blocks before the flush pass
/// starts shedding the lexicographically first entries. Losing an
/// entry only costs a redundant resend, never correctness.
const ACKED_CAP: usize = 1 << 16;

/// Sub-calls per upstream `FETCH_BLOBS_BATCH` envelope under fleet
/// batching: one WAN round-trip carries up to this many chunks.
const MAX_BATCH: usize = 32;
const _: () = assert!(MAX_BATCH <= oncrpc::MAX_BATCH_ITEMS);

/// How long a batch leader lingers after its own miss to let concurrent
/// misses join the envelope — virtual time, a fraction of the WAN
/// round-trip it saves.
const BATCH_WINDOW: SimDuration = SimDuration::from_millis(2);

/// Cap on parked write-back retry-queue entries under the fleet presets
/// ([`WbSink::park`] sheds the oldest past it).
const WB_QUEUE_CAP: usize = 4096;

/// Backoff a flush sleeps before its first retry round; doubles each
/// round, capped at 8x.
const FLUSH_RETRY_BACKOFF: SimDuration = SimDuration::from_millis(500);

/// Digests per gossip message in either direction: 64 KiB chunks × 512 ≈
/// one golden image's working set crosses the inventory channel in a
/// handful of rounds. Bounds the decode cost (lint: bounded-decode) and
/// the LAN burst; a backlog simply drains over successive rounds.
const GOSSIP_BATCH: usize = 512;
const _: () = assert!(GOSSIP_BATCH <= MAX_GOSSIP_DIGESTS);

#[derive(Default)]
struct ProxyState {
    meta: HashMap<FileKey, Option<Arc<MetaFile>>>,
    sizes: HashMap<FileKey, u64>,
    /// Single-flight guard ([`Proxy::join_or_claim`]): fetches in
    /// progress, each with the signal its waiters park on. Concurrent
    /// READ misses on the same file (the kernel client's parallel read
    /// workers) must trigger ONE whole-file transfer, with the rest
    /// blocking until the file cache is populated; concurrent blob
    /// fetches coalesce by content digest.
    inflight: BTreeMap<FlightKey, simnet::Signal>,
    /// Cached `FETCH_CHUNK` replies (results bytes) keyed by
    /// (file, offset, count), for second-level proxies serving repeated
    /// clonings on a LAN.
    chan_chunk_replies: ReplyCache<(FileKey, u64, u32)>,
    /// Per-file sequential-miss detector: (last missed block, run length).
    streaks: HashMap<FileKey, (u64, u32)>,
    /// Where each block the read path has in hand stands
    /// ([`BlockFlight`]): being fetched by a demand miss, being fetched by
    /// a prefetch worker, or prefetched and not yet read. One entry per
    /// block; the read-ahead engine skips every block that has one.
    flights: BTreeMap<Tag, BlockFlight>,
    /// The block cache's removal count as of which every `Prefetched`
    /// block was resident: the count at the last reclaim scan, pulled
    /// back to the count from before its insert when a block becomes
    /// `Prefetched` (`reclaim_wasted_prefetches`).
    prefetched_checked_at: u64,
    /// Degraded-mode write-back retry queue: dirty blocks whose upstream
    /// WRITE (or the covering COMMIT) failed. Flush drains it with
    /// bounded-backoff retry rounds; until then the bytes live here
    /// instead of being dropped. BTreeMap: drained in deterministic
    /// order (lint: determinism).
    wb_queue: BTreeMap<Tag, SharedBytes>,
    /// Per-block digest + write verifier upstream last *durably*
    /// acknowledged (WRITE and COMMIT verifiers agreed, RFC 1813
    /// §3.3.7). A later flush finding the same digest under the same
    /// verifier skips the redundant UNSTABLE WRITE; a restarted server
    /// rotates its verifier, which invalidates every entry at the
    /// covering COMMIT. An entry is removed the moment any upstream
    /// WRITE for its block is issued outside a validated skip — even
    /// one whose reply was lost may have mutated the server, so only a
    /// fresh durable agreement may reinstate it (no A-B-A). Bounded by
    /// [`ACKED_CAP`]. BTreeMap: determinism lint.
    acked: BTreeMap<Tag, (Digest, u64)>,
    /// Cached `FETCH_RECIPE` replies keyed by (file, chunk size) — the
    /// recipe analogue of `chan_chunk_replies` for second-level
    /// proxies.
    chan_recipe_replies: ReplyCache<(FileKey, u32)>,
    /// Cached `FETCH_BLOBS` replies keyed by *content digest*: eight
    /// distinct images sharing chunks dedupe on a second-level LAN
    /// proxy even though their file handles differ. Entries are
    /// verified against their digest before insertion and LRU-bounded
    /// by the CAS byte cap.
    chan_blob_replies: ReplyCache<Digest>,
    /// Blob misses waiting to join the next upstream batch envelope
    /// (fleet batching only): `(digest, original request args)` in
    /// arrival order. Each entry also holds a signal in `inflight`.
    batch_pending: Vec<(Digest, xdr::Bytes)>,
    /// Whether a batch leader is currently collecting `batch_pending`
    /// (fleet batching only). New misses arriving while true just park;
    /// the leader drains them in bounded rounds.
    batch_open: bool,
    /// Digests freshly cached by a batch round whose *original*
    /// requester has not been served yet. The first cache serve of such
    /// a digest skips the dedup-hit accounting (those bytes did cross
    /// the upstream link once, for that very requester); later sharers
    /// count normally.
    batch_uncounted: BTreeSet<Digest>,
    /// Append-only log of blob digests this proxy has cached, in cache
    /// order (gossip only). Anti-entropy rounds push bounded deltas of
    /// this log to each peer, tracked by per-peer cursors — entries are
    /// 16 bytes, so even a 10k-clone run's log stays tiny relative to
    /// the payload cache it indexes.
    gossip_log: Vec<Digest>,
    /// Per-peer cursor into `gossip_log` for the *reply* direction of
    /// anti-entropy: how much of our log the named peer has already been
    /// told in our `GOSSIP_DIGESTS` replies. BTreeMap: determinism lint.
    gossip_reply_cursor: BTreeMap<u32, usize>,
    /// What we believe each sibling shard holds, learned from gossip
    /// (push messages and pull replies). Advisory only: a peer may have
    /// evicted an advertised digest, in which case the peer fetch fails
    /// and the miss falls back upstream. BTreeMap: determinism lint.
    peer_digests: BTreeMap<u32, BTreeSet<Digest>>,
}

impl ProxyState {
    /// Forget every cached chunk and recipe reply of `key`. Runs *before*
    /// a mutation of the file goes upstream, not after: a mutation whose
    /// reply is lost may still have changed the origin, and a relay may
    /// be stale about other sites' writes but never about one it
    /// forwarded itself. Digest-keyed blob replies are content-addressed
    /// and stay.
    fn forget_file_replies(&mut self, key: FileKey) {
        self.chan_chunk_replies
            .forget((key, 0, 0)..=(key, u64::MAX, u32::MAX));
        self.chan_recipe_replies.forget((key, 0)..=(key, u32::MAX));
    }

    /// Take the next upstream envelope's worth of parked blob misses: at
    /// most [`MAX_BATCH`].
    fn take_blob_round(&mut self) -> Vec<(Digest, xdr::Bytes)> {
        let take = self.batch_pending.len().min(MAX_BATCH);
        self.batch_pending.drain(..take).collect()
    }

    /// Up to [`GOSSIP_BATCH`] entries of the gossip log from `cursor` on,
    /// and the cursor after them.
    fn gossip_delta(&self, cursor: usize) -> (Vec<Digest>, usize) {
        let start = cursor.min(self.gossip_log.len());
        let end = (start + GOSSIP_BATCH).min(self.gossip_log.len());
        (self.gossip_log[start..end].to_vec(), end)
    }
}

/// One downstream call being served: what every handler needs to answer
/// it or to pass it upstream.
#[derive(Clone, Copy)]
struct Call<'a> {
    env: &'a Env,
    xid: u32,
    cred: &'a oncrpc::OpaqueAuth,
}

/// Where a block stands with the read path.
enum BlockFlight {
    /// A demand miss is fetching it upstream. The kernel client
    /// pipelines its own readahead as parallel READs, so the demand READ
    /// for block b+1 is often already in flight when block b's hit
    /// triggers read-ahead — without this the prefetcher would fetch b+1
    /// a second time over the WAN.
    Demand,
    /// A prefetch worker is fetching it; the signal is set once the fetch
    /// lands or fails. A racing demand miss waits on it instead of
    /// duplicating the upstream READ.
    Prefetching(simnet::Signal),
    /// Installed by read-ahead and not yet touched by a demand read. A
    /// demand hit forgets it and counts `prefetch_hits`; found evicted it
    /// counts `prefetch_wasted`. A demand read that claims such a block
    /// leaves the entry as it is.
    Prefetched,
}

/// What a single-flight is keyed by: a file being fetched whole, or a
/// blob by content digest (not file handle), so concurrent clonings of
/// *different* images coalesce on the chunks they share.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum FlightKey {
    File(FileKey),
    Blob(Digest),
}

/// How often one request may join or claim a flight before it gives up.
/// A request re-enters when the fetch it waited on failed; unbounded,
/// woken waiters would stampede the retry slot forever.
const MAX_FLIGHT_ATTEMPTS: u32 = 3;

/// The one way out for dirty data — eviction, the flush pass and the
/// flush retry rounds all leave through here: everything it takes to
/// push dirty blocks and dirty cached files upstream or, failing that, to
/// park a block on the retry queue. Owned by the proxy and cloned into
/// its detached read-ahead workers, whose inserts evict too, and into the
/// flush's file helper (the proxy itself sits behind an `Arc` owned by
/// the listener; workers only hold the pieces they touch).
#[derive(Clone)]
struct WbSink {
    upstream: RpcClient,
    // Arc: detached prefetch workers share the state (and the Mutex
    // inside keeps critical sections short — no suspends under it).
    state: Arc<Mutex<ProxyState>>,
    /// The file cache and the channel that fills and flushes it.
    files: Option<(Arc<FileCache>, ChannelClient)>,
    /// Block size of the attached block cache (32 KB until one is).
    bs: u64,
    /// Whether dedup is on: flush sends are digested and may be skipped.
    dedup: bool,
    /// CPU-cost model for the proxy's own digest/codec work (flush-side
    /// digesting, blob verification). Mirrors the channel client's model
    /// when a file channel is attached, so dedup CPU is priced the same
    /// on every path.
    codec: CodecModel,
    /// Chunk size and window of file uploads.
    transfer: TransferTuning,
    ttel: TransferTel,
    dtel: DedupTel,
    written_back: Counter,
    recovered_errors: Counter,
    wb_queued: Counter,
    /// Whether the retry queue is bounded by [`WB_QUEUE_CAP`] (the fleet
    /// presets) rather than the historical unbounded queue.
    capped: bool,
    /// Parked blocks shed by the cap (oldest-tag first).
    shed: Counter,
    /// High-water mark of the parked-queue depth.
    high_water: Counter,
}

impl WbSink {
    /// This sink, writing upstream under `cred`.
    fn with_cred(&self, cred: &oncrpc::OpaqueAuth) -> WbSink {
        WbSink {
            upstream: self.upstream.with_cred(cred.clone()),
            ..self.clone()
        }
    }

    /// Park a failed write-back on the retry queue, enforcing the fleet
    /// cap. Must run under the state lock (takes `&mut ProxyState`);
    /// shedding is deterministic (lowest tag in `BTreeMap` order first).
    fn park(&self, st: &mut ProxyState, tag: Tag, data: SharedBytes) {
        self.wb_queued.inc();
        st.wb_queue.insert(tag, data);
        // Bounded memory beats durability of the oldest parked block
        // under a sustained upstream outage; the shed is surfaced via
        // telemetry rather than silently dropped.
        if self.capped && st.wb_queue.len() > WB_QUEUE_CAP && st.wb_queue.pop_first().is_some() {
            self.shed.inc();
        }
        let depth = st.wb_queue.len() as u64;
        let seen = self.high_water.get();
        if depth > seen {
            self.high_water.add(depth - seen);
        }
    }

    /// Best known size of a file: local override (absorbed writes), then
    /// meta-data, then the file cache.
    fn known_size(&self, key: FileKey) -> Option<u64> {
        {
            let st = self.state.lock();
            if let Some(s) = st.sizes.get(&key) {
                return Some(*s);
            }
            if let Some(Some(m)) = st.meta.get(&key) {
                return Some(m.file_size);
            }
        }
        self.files.as_ref().and_then(|(fc, _)| fc.size_of(key))
    }

    /// The one way a dirty block leaves the proxy: WRITE `blocks` of file
    /// `key` upstream at stability `stable`, at most `window` in flight,
    /// each first clipped to the best-known file size (one wholly past it
    /// is dropped). Returns one slot per WRITE issued — each keeps its
    /// payload, so a failure can requeue the bytes instead of dropping
    /// them — and the skip candidates.
    ///
    /// Dedup: a block of an UNSTABLE batch whose digest upstream already
    /// durably acknowledged under a verifier is a skip *candidate* — the
    /// COMMIT covering the batch must still return that same verifier
    /// (same server instance, data still stable) before the skip counts,
    /// so no acknowledged byte is ever dedup-skipped incorrectly (a
    /// restarted server rotates its verifier). A `FILE_SYNC` send has no
    /// covering COMMIT to validate against, so it never skips.
    fn send_blocks(
        &self,
        env: &Env,
        key: FileKey,
        blocks: Vec<(u64, SharedBytes)>,
        stable: StableHow,
        window: usize,
    ) -> (Vec<WriteBackSlot>, Vec<SkipCandidate>) {
        let bs = self.bs;
        let size = self.known_size(key);
        let may_skip = self.dedup && stable == StableHow::Unstable;
        // Every block that may skip is digested once here, *outside* the
        // state lock (digesting suspends; no suspend may run under a
        // lock), at the codec's digest throughput — the CPU price the
        // fetch path pays per blob. The digest rides the slot so a
        // durable ack records it without rehashing.
        let mut clipped: Vec<(u64, SharedBytes, Option<Digest>)> = Vec::with_capacity(blocks.len());
        for (block, mut data) in blocks {
            let off = block * bs;
            if let Some(s) = size {
                if off >= s {
                    continue;
                }
                // Only the EOF-tail block is ever cut; every other
                // payload travels as the frame's own allocation.
                let keep = (s - off).min(bs) as usize;
                if keep < data.len() {
                    data = Arc::new(data[..keep].to_vec());
                }
            }
            let d = may_skip.then(|| {
                env.sleep(self.codec.digest_time(data.len() as u64));
                digest::digest(&data)
            });
            clipped.push((block, data, d));
        }
        let mut jobs = Vec::with_capacity(clipped.len());
        let mut skips = Vec::new();
        {
            let mut st = self.state.lock();
            for (block, data, d) in clipped {
                let tag = tag_of(key, block);
                match (d, st.acked.get(&tag)) {
                    (Some(d), Some((ad, verf))) if *ad == d => skips.push((block, data, *verf)),
                    _ => {
                        // About to issue a WRITE for this block: the
                        // server may apply it even when the reply is
                        // lost, so the remembered ack (if any) dies now —
                        // a block later reverted to the old bytes must
                        // not skip over the server's unconfirmed
                        // intermediate content (A-B-A). Only a fresh
                        // WRITE+COMMIT verifier agreement in the flush
                        // pass reinstates it.
                        st.acked.remove(&tag);
                        jobs.push((block, data, d));
                    }
                }
            }
        }
        let nfs = nfs3::Nfs3Client::new(self.upstream.clone());
        let slots = run_windowed(
            env,
            "flush-wb",
            window,
            jobs,
            Some(&self.ttel),
            move |env, (block, data, d)| {
                let verf = nfs
                    .write(env, key, block * bs, data.as_slice(), stable)
                    .ok()
                    .map(|r| r.verf);
                Some((block, data, d, verf))
            },
        );
        (slots, skips)
    }

    /// Push an evicted dirty block upstream. Success counts into
    /// `written_back`; a failed WRITE parks the block on the retry queue
    /// (degraded mode) for the next flush to drain, not dropping the bytes.
    ///
    /// The WRITE goes `FILE_SYNC` — durable on reply (RFC 1813 §3.3.7).
    /// Nothing would ever COMMIT an UNSTABLE one: the flush pass COMMITs
    /// only files that still have pending blocks and compares verifiers
    /// only for its own slots, and in write-back mode the guest's COMMIT
    /// is answered locally, so a server restart would silently zero
    /// bytes the guest was told are stable.
    fn write_back(&self, env: &Env, tag: Tag, data: SharedBytes) {
        let blocks = vec![(tag.block, data)];
        let (slots, _) = self.send_blocks(env, tag_key(tag), blocks, StableHow::FileSync, 1);
        for (_, payload, _, verf) in slots.into_iter().flatten() {
            if verf.is_some() {
                self.written_back.inc();
            } else {
                self.recovered_errors.inc();
                self.park(&mut self.state.lock(), tag, payload);
            }
        }
    }

    /// Insert a frame into the block cache; a dirty block that falls out
    /// is written upstream now, under `cred`.
    fn insert_block(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        bc: &BlockCache,
        tag: Tag,
        data: SharedBytes,
        dirty: bool,
    ) {
        if let Some((etag, edata)) = bc.insert_shared(env, tag, data, dirty) {
            self.with_cred(cred).write_back(env, etag, edata);
        }
    }

    /// The one way a dirty cached file leaves the proxy: upload what must
    /// travel of a file whose contents digest to `digest`, counting it
    /// into `report` — unless upstream is known to hold exactly that
    /// already. Returns whether upstream now holds the contents; on
    /// `false` the caller keeps the payload for a retry round.
    fn upload_file(&self, env: &Env, up: &PendingUpload, report: &mut FlushReport) -> bool {
        let (key, dirty, digest) = up;
        let Some((fc, chan)) = &self.files else {
            return false;
        };
        // Dedup: a dirty file rewritten with the exact bytes upstream
        // already holds (a VM session re-suspending identical memory
        // state) skips the whole upload. Channel uploads are durable
        // server writes, so the synced digest survives server restarts.
        if digest.is_some() && fc.synced_digest(*key) == *digest {
            self.dtel.acked_skips.inc();
            self.dtel.bytes_avoided.add(dirty.payload_bytes());
            return true;
        }
        // Torn-upload guard: from here until the upload reports success,
        // upstream may hold any prefix of the new chunks — forget the
        // synced digest so a rewrite back to the old bytes can never
        // skip the repair upload. Only the success below reinstates it,
        // so a torn retry leaves upstream marked unknown as well.
        fc.clear_synced(*key);
        let (total, ranges) = match dirty {
            DirtyFile::Diverged { total, ranges, .. } => (*total, ranges.clone()),
            DirtyFile::Whole(c) => (c.len() as u64, chunk_ranges(c, self.transfer.chunk_bytes)),
        };
        let window = self.transfer.channel_window;
        match chan.upload_ranges(env, *key, total, ranges, window, Some(&self.ttel)) {
            Ok(wire) => {
                report.files += 1;
                report.file_wire_bytes += wire;
                if let Some(d) = digest {
                    fc.set_synced(*key, *d);
                }
                true
            }
            Err(_) => {
                self.recovered_errors.inc();
                false
            }
        }
    }
}

/// Peer wiring for intra-region digest gossip, set once by middleware
/// via [`Proxy::set_gossip_peers`] after the sibling shards' channels
/// exist.
#[derive(Default)]
struct GossipPeers {
    /// This shard's id as it appears in gossip messages.
    my_id: u32,
    /// Sibling shards in the same region: `(shard id, LAN client)`.
    peers: Vec<(u32, RpcClient)>,
    /// Round-robin index of the next anti-entropy target.
    next: usize,
    /// Per-peer cursor into our `gossip_log` for the *push* direction:
    /// how much of our log we have successfully pushed to each peer.
    /// Advances only on a successful round, so a lost message is simply
    /// retransmitted next period. BTreeMap: determinism lint.
    sent_cursor: BTreeMap<u32, usize>,
}

/// Gossip runtime state + telemetry. The peer table is present iff
/// `cfg.fleet.gossip()` and dedup are both on; the counters always are.
struct GossipCtl {
    peers: Option<Mutex<GossipPeers>>,
    /// Anti-entropy rounds this shard initiated.
    rounds: Counter,
    /// Digests learned about peers (both directions).
    digests_learned: Counter,
    /// Blob misses served by a sibling shard instead of the WAN.
    peer_hits: Counter,
    /// Logical chunk bytes those peer serves carried (WAN bytes saved).
    peer_bytes: Counter,
    /// Peer fetches that failed (stale advertisement / lost message);
    /// the miss falls back to the normal upstream path.
    peer_misses: Counter,
    /// Blob requests this shard served *to* siblings.
    peer_served: Counter,
}

impl GossipCtl {
    /// Merge digests `sender` advertises into what we believe it holds.
    /// Must run under the state lock.
    fn learn(&self, st: &mut ProxyState, sender: u32, digests: Vec<Digest>) {
        let inv = st.peer_digests.entry(sender).or_default();
        let learned = digests.into_iter().filter(|d| inv.insert(*d)).count();
        self.digests_learned.add(learned as u64);
    }
}

/// A GVFS proxy instance. Implements [`RpcHandler`], so it plugs directly
/// into an [`oncrpc::Listener`].
pub struct Proxy {
    cfg: ProxyConfig,
    block_cache: Option<Arc<BlockCache>>,
    identity: Option<Arc<IdentityMapper>>,
    tel: PxTel,
    /// Content-addressed store over the chunks this proxy fetched
    /// (present iff `cfg.dedup.enabled`).
    cas: Option<Arc<ContentStore>>,
    /// Per-instance write verifier returned in absorbed WRITE/COMMIT
    /// replies (write-back mode answers both locally, so it speaks for
    /// the stability of its own cache disk).
    write_verf: u64,
    /// The way out for dirty data, with the upstream client, caches'
    /// channel and transfer/dedup telemetry the read side shares with it.
    wb: WbSink,
    /// Upstream batch envelopes issued by fleet blob coalescing, and the
    /// sub-calls they carried (`items / batches` = achieved coalescing
    /// factor).
    fleet_batches: (Counter, Counter),
    /// Intra-region digest gossip.
    gossip: GossipCtl,
    /// Channel fetches installed as reference files (cow *and* dedup
    /// enabled).
    cow_installs: Counter,
    /// CAS evictions refused under pin pressure (the counter is shared
    /// with the content store).
    cow_pin_blocked: Counter,
    state: Arc<Mutex<ProxyState>>,
}

/// Forget, and return the number of, prefetched blocks that fell out of
/// the cache without ever serving a demand read — wasted effort. Costs a
/// scan of the flight table only when the cache has dropped a frame since
/// every tracked block was last known resident; otherwise none can be
/// gone.
fn reclaim_wasted_prefetches(st: &mut ProxyState, bc: &BlockCache) -> u64 {
    let gone = |t: &Tag, f: &BlockFlight| matches!(f, BlockFlight::Prefetched) && !bc.contains(*t);
    let removals = bc.removals();
    if removals == st.prefetched_checked_at {
        debug_assert!(!st.flights.iter().any(|(t, f)| gone(t, f)));
        return 0;
    }
    let tracked = st.flights.len();
    st.flights.retain(|t, f| !gone(t, f));
    st.prefetched_checked_at = removals;
    (tracked - st.flights.len()) as u64
}

fn tag_key(tag: Tag) -> FileKey {
    FileKey {
        fileid: tag.fileid,
        generation: tag.generation,
    }
}

fn tag_of(key: FileKey, block: u64) -> Tag {
    Tag {
        fileid: key.fileid,
        generation: key.generation,
        block,
    }
}

impl Proxy {
    /// Build a proxy forwarding to `upstream`. Counters register in the
    /// telemetry registry of the simulation the upstream channel belongs
    /// to, under `gvfs/<cfg.name>.*`.
    pub fn new(cfg: ProxyConfig, upstream: RpcClient) -> Self {
        let registry = upstream.channel().handle().telemetry().clone();
        let tel = PxTel::register(registry, &cfg.name);
        // Per-instance seed for the write verifier (RFC 1813 requires the
        // verifier to change when the *server* instance changes; two
        // proxies must never share one).
        let write_verf = simnet::splitmix64(digest::seed64(tel.inst.as_bytes()));
        let counter = |suffix: &str| {
            tel.registry
                .counter("gvfs", format!("{}.{suffix}", tel.inst))
        };
        let cow_installs = counter("cow.ref_installs");
        let cow_pin_blocked = counter("cas.pin_blocked_evictions");
        let cas = cfg.dedup.enabled.then(|| {
            let store = ContentStore::new(cfg.dedup.cas_bytes)
                .with_broken_pin_counter(tel.recovered_errors.clone())
                .with_pin_blocked_counter(cow_pin_blocked.clone());
            Arc::new(store)
        });
        // The fleet presets bound the write-back retry queue along with
        // batching blob misses.
        let batching = cfg.fleet.batching();
        let fleet_batches = (counter("fleet.batches"), counter("fleet.batched_items"));
        // Gossip needs the digest-keyed reply cache both as the
        // inventory being advertised and as the store peer fetches are
        // served from, so it is inert without dedup (same dependency as
        // batching).
        let gossip = GossipCtl {
            peers: (cfg.fleet.gossip() && cfg.dedup.enabled).then(Mutex::default),
            rounds: counter("gossip.rounds"),
            digests_learned: counter("gossip.digests_learned"),
            peer_hits: counter("gossip.peer_hits"),
            peer_bytes: counter("gossip.peer_bytes"),
            peer_misses: counter("gossip.peer_misses"),
            peer_served: counter("gossip.peer_served"),
        };
        let state = Arc::new(Mutex::new(ProxyState {
            chan_blob_replies: ReplyCache {
                cap: cfg.dedup.cas_bytes,
                ..ReplyCache::default()
            },
            ..ProxyState::default()
        }));
        let wb = WbSink {
            upstream,
            state: state.clone(),
            files: None,
            bs: 32 * 1024,
            dedup: cfg.dedup.enabled,
            codec: CodecModel::default(),
            transfer: cfg.transfer,
            ttel: TransferTel::register(&tel.registry, "gvfs", &tel.inst),
            dtel: DedupTel::register(&tel.registry, &tel.inst),
            written_back: tel.blocks_written_back.clone(),
            recovered_errors: tel.recovered_errors.clone(),
            wb_queued: tel.wb_queued.clone(),
            capped: batching,
            shed: counter("wb_shed"),
            high_water: counter("wb_high_water"),
        };
        Proxy {
            cfg,
            block_cache: None,
            identity: None,
            tel,
            cas,
            write_verf,
            wb,
            fleet_batches,
            gossip,
            cow_installs,
            cow_pin_blocked,
            state,
        }
    }

    /// Attach a block-based disk cache.
    pub fn with_block_cache(mut self, cache: Arc<BlockCache>) -> Self {
        self.wb.bs = cache.config().block_size as u64;
        self.block_cache = Some(cache);
        self
    }

    /// Attach a file cache and the channel client used to fill it.
    pub fn with_file_channel(mut self, cache: Arc<FileCache>, chan: ChannelClient) -> Self {
        self.wb.codec = *chan.codec();
        self.wb.files = Some((cache, chan));
        self
    }

    /// Attach identity mapping (server-side proxies).
    pub fn with_identity(mut self, mapper: Arc<IdentityMapper>) -> Self {
        self.identity = Some(mapper);
        self
    }

    /// Finalize into a handler for an RPC listener.
    pub fn into_handler(self) -> Arc<Proxy> {
        Arc::new(self)
    }

    /// Counter snapshot (reads the shared telemetry counters).
    pub fn stats(&self) -> ProxyStats {
        ProxyStats {
            calls: self.tel.calls.get(),
            reads: self.tel.reads.get(),
            writes: self.tel.writes.get(),
            forwarded: self.tel.forwarded.get(),
            zero_filtered: self.tel.zero_filtered.get(),
            file_cache_reads: self.tel.file_cache_reads.get(),
            channel_fetches: self.tel.channel_fetches.get(),
            channel_wire_bytes: self.tel.channel_wire_bytes.get(),
            writes_absorbed: self.tel.writes_absorbed.get(),
            blocks_written_back: self.tel.blocks_written_back.get(),
            prefetch_issued: self.tel.prefetch_issued.get(),
            prefetch_hits: self.tel.prefetch_hits.get(),
            wb_queued: self.tel.wb_queued.get(),
            wb_drained: self.tel.wb_drained.get(),
            verf_mismatches: self.tel.verf_mismatches.get(),
            flush_retry_rounds: self.tel.flush_retry_rounds.get(),
            dedup_bytes_avoided: self.wb.dtel.bytes_avoided.get(),
            dedup_recipe_hits: self.wb.dtel.recipe_hits.get(),
            dedup_blob_fetches: self.wb.dtel.blob_fetches.get(),
            dedup_acked_skips: self.wb.dtel.acked_skips.get(),
            cow_ref_installs: self.cow_installs.get(),
            cas_pin_blocked: self.cow_pin_blocked.get(),
        }
    }

    /// Dirty blocks currently parked on the write-back retry queue.
    pub fn wb_queue_len(&self) -> usize {
        self.state.lock().wb_queue.len()
    }

    /// `(envelopes, sub-calls)` issued by fleet blob coalescing (their
    /// ratio is the achieved batching factor); zeros when batching is off.
    pub fn fleet_batch_stats(&self) -> (u64, u64) {
        (self.fleet_batches.0.get(), self.fleet_batches.1.get())
    }

    /// The content-addressed store, when dedup is enabled.
    pub fn content_store(&self) -> Option<&Arc<ContentStore>> {
        self.cas.as_ref()
    }

    /// The attached block cache, if any.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.block_cache.as_ref()
    }

    /// The attached file cache, if any.
    pub fn file_cache(&self) -> Option<&Arc<FileCache>> {
        self.wb.files.as_ref().map(|(cache, _)| cache)
    }

    // -- forwarding ---------------------------------------------------------

    /// Forward a call upstream and wrap the outcome for the downstream xid.
    fn forward(
        &self,
        c: Call<'_>,
        prog: u32,
        vers: u32,
        proc: u32,
        args: xdr::Bytes,
    ) -> RpcMessage {
        let Call { env, xid, cred } = c;
        self.tel.forwarded.inc();
        let client = self.wb.upstream.with_cred(cred.clone());
        match client.call(env, prog, vers, proc, &args) {
            Ok(results) => RpcMessage::success(xid, results),
            Err(e) => Self::error_reply(xid, e),
        }
    }

    /// Forward a file-channel call upstream.
    fn forward_chan(&self, c: Call<'_>, proc: u32, args: xdr::Bytes) -> RpcMessage {
        self.forward(c, CHANNEL_PROGRAM, CHANNEL_V1, proc, args)
    }

    fn error_reply(xid: u32, e: RpcError) -> RpcMessage {
        match e {
            RpcError::Accept(stat) => RpcMessage::accept_error(xid, stat),
            RpcError::Denied(stat) => RpcMessage::denied(xid, stat),
            _ => RpcMessage::accept_error(xid, AcceptStat::SystemErr),
        }
    }

    // -- meta-data ----------------------------------------------------------

    /// On a successful LOOKUP of `name`, discover and load the associated
    /// meta-data file (paper: "the meta-data file is stored in the same
    /// directory ... and has a special filename so that it can be easily
    /// looked up").
    fn discover_meta(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        dir: Handle,
        name: &str,
        subject: Handle,
    ) {
        if !self.cfg.meta_handling || is_meta_name(name) {
            return;
        }
        if self.state.lock().meta.contains_key(&subject) {
            return;
        }
        let nfs = nfs3::Nfs3Client::new(self.wb.upstream.with_cred(cred.clone()));
        let meta = (|| -> Option<Arc<MetaFile>> {
            let (meta_fh, attr) = nfs.lookup(env, dir, &meta_name_for(name)).ok()?;
            let size = attr.map(|a| a.size).unwrap_or(0);
            let mut contents = Vec::with_capacity(size as usize);
            let mut off = 0u64;
            loop {
                let r = nfs.read(env, meta_fh, off, nfs3::MAX_BLOCK).ok()?;
                off += r.data.len() as u64;
                let done = r.eof || r.data.is_empty();
                contents.extend_from_slice(&r.data);
                if done {
                    break;
                }
            }
            MetaFile::from_bytes(&contents).map(Arc::new)
        })();
        self.state.lock().meta.insert(subject, meta);
    }

    fn meta_for(&self, key: FileKey) -> Option<Arc<MetaFile>> {
        self.state.lock().meta.get(&key).cloned().flatten()
    }

    fn bump_size(&self, key: FileKey, end: u64) {
        let mut st = self.state.lock();
        let e = st.sizes.entry(key).or_insert(0);
        *e = (*e).max(end);
    }

    /// Drop remembered durable acks for every block touching
    /// `[offset, offset + len)` before a WRITE for that range goes
    /// upstream outside the flush path: once any unconfirmed write may
    /// have mutated the server copy, the old ack can no longer justify
    /// a dedup skip (A-B-A).
    fn invalidate_acked_range(&self, key: FileKey, offset: u64, len: u64) {
        if self.cas.is_none() || len == 0 {
            return;
        }
        let bs = self.wb.bs;
        let first = offset / bs;
        let last = (offset + len - 1) / bs;
        let mut st = self.state.lock();
        for block in first..=last {
            st.acked.remove(&tag_of(key, block));
        }
    }

    // -- READ ---------------------------------------------------------------

    /// A READ answered from local state (no attributes ride along).
    fn local_read(xid: u32, data: &[u8], eof: bool) -> RpcMessage {
        RpcMessage::success(xid, encode_read(None, data, eof))
    }

    fn handle_read(&self, c: Call<'_>, args: xdr::Bytes) -> RpcMessage {
        let Call { env, xid, cred } = c;
        let parsed: Result<ReadArgs, _> = xdr::from_bytes(&args);
        let a = match parsed {
            Ok(a) => a,
            Err(_) => return self.forward(c, NFS_PROGRAM, NFS_V3, proc3::READ, args),
        };
        self.tel.reads.inc();
        let key = a.file.0;

        // 1. File cache ("read locally" of an installed file).
        if let Some((fc, _)) = &self.wb.files {
            if let Some((data, eof)) = fc.read(env, key, a.offset, a.count) {
                self.tel.file_cache_reads.inc();
                return Self::local_read(xid, &data, eof);
            }
        }

        let meta = if self.cfg.meta_handling {
            self.meta_for(key)
        } else {
            None
        };

        // 2. File channel: fetch the whole file on first access.
        if let (Some(m), Some((fc, chan))) = (&meta, &self.wb.files) {
            if m.channel.is_some() {
                if let Some(reply) = self.read_via_channel(c, &a, m, fc, chan) {
                    return reply;
                }
            }
        }

        // 3. Zero map: serve all-zero ranges locally.
        if let Some(zm) = meta.as_ref().and_then(|m| m.zero_map.as_ref()) {
            // The meta-data entry itself makes the size known.
            if let Some(size) = self.wb.known_size(key) {
                if zm.range_is_zero(a.offset, a.count) {
                    self.tel.zero_filtered.inc();
                    if a.offset >= size {
                        return Self::local_read(xid, &[], true);
                    }
                    let len = (a.count as u64).min(size - a.offset) as usize;
                    let eof = a.offset + len as u64 >= size;
                    return Self::local_read(xid, &vec![0u8; len], eof);
                }
            }
        }

        // 4. Block cache: serve any read that falls inside a single
        // cache block. Sub-block serving matters because kernel reads
        // (rsize, typically 8 KB) are smaller than cache blocks (32 KB):
        // without it only the 1-in-4 block-aligned read ever hits, and a
        // prefetched block pays for 32 KB of WAN transfer but saves only
        // 8 KB of forwards.
        if let Some(bc) = &self.block_cache {
            let bs = bc.config().block_size as u64;
            let in_block = a.offset % bs;
            if in_block + a.count as u64 <= bs {
                let tag = tag_of(key, a.offset / bs);
                // Atomically either join an in-flight prefetch of this
                // block (wait for it to land rather than duplicating the
                // WAN READ), or claim the block as an in-flight demand
                // read so the read-ahead engine skips it as a candidate.
                let claim = |st: &mut ProxyState| match st
                    .flights
                    .entry(tag)
                    .or_insert(BlockFlight::Demand)
                {
                    BlockFlight::Prefetching(sig) => Some(sig.clone()),
                    _ => None,
                };
                let waiter = claim(&mut self.state.lock());
                let claimed = waiter.is_none();
                if let Some(sig) = waiter {
                    sig.wait(env);
                }
                // A hit encodes only the bytes this READ asked for (none
                // when it starts past the end of a short EOF-tail block),
                // straight out of the frame.
                if let Some((frame, range)) =
                    bc.lookup_range(env, tag, in_block as usize, a.count as usize)
                {
                    let data = &frame[range];
                    let was_prefetched = {
                        let mut st = self.state.lock();
                        let was = matches!(st.flights.get(&tag), Some(BlockFlight::Prefetched));
                        if was || claimed {
                            st.flights.remove(&tag);
                        }
                        was
                    };
                    if was_prefetched {
                        self.tel.prefetch_hits.inc();
                        // Keep the pipeline rolling: hitting a prefetched
                        // block means the sequential stream is live.
                        self.maybe_prefetch(env, cred, tag, a.count, meta.as_deref());
                    }
                    let eof = frame.len() < bs as usize
                        || self
                            .wb
                            .known_size(key)
                            .map(|s| a.offset + data.len() as u64 >= s)
                            .unwrap_or(false);
                    return Self::local_read(xid, data, eof);
                }
                // Miss: start read-ahead for a detected sequential
                // stream, then forward. The prefetch workers run
                // detached; their upstream READs queue behind this
                // demand miss on the WAN, overlapping its latency.
                self.maybe_prefetch(env, cred, tag, a.count, meta.as_deref());
                // Claim the block (again) for the forward: the prefetch
                // waited on failed to land, or the reclaim just dropped
                // the evicted `Prefetched` entry that stood in for the
                // claim.
                claim(&mut self.state.lock());
                let reply = self.forward(c, NFS_PROGRAM, NFS_V3, proc3::READ, args);
                {
                    let mut st = self.state.lock();
                    if matches!(st.flights.get(&tag), Some(BlockFlight::Demand)) {
                        st.flights.remove(&tag);
                    }
                }
                let fetched = success_results(&reply).and_then(|res| decode_read(res).ok());
                if let Some(ReadRes { data, eof, .. }) = fetched {
                    if eof {
                        // Server-confirmed size: lets warm hits report
                        // EOF without re-asking upstream.
                        self.bump_size(key, a.offset + data.len() as u64);
                    }
                    // Only a block-aligned reply covers the block from
                    // its first byte, so only that can be installed — and
                    // only one no longer than was asked for fits a frame.
                    // The block is pooled out of the reply, and the view
                    // of it dropped, before the reply goes downstream:
                    // it then travels as the allocation it arrived in.
                    if !data.is_empty() && in_block == 0 && data.len() as u64 <= bs {
                        self.wb
                            .insert_block(env, cred, bc, tag, share_slice(&data), false);
                    }
                }
                return reply;
            }
        }

        // 5. Plain forwarding (unaligned or cacheless).
        self.forward(c, NFS_PROGRAM, NFS_V3, proc3::READ, args)
    }

    /// READ of a channel-marked file: serve it from the file cache,
    /// filling the cache first — single-flight, so however many readers
    /// miss at once there is one whole-file transfer. `None` means the
    /// channel is unusable and the block path takes over.
    fn read_via_channel(
        &self,
        Call { env, xid, .. }: Call<'_>,
        a: &ReadArgs,
        m: &MetaFile,
        fc: &FileCache,
        chan: &ChannelClient,
    ) -> Option<RpcMessage> {
        let key = a.file.0;
        let cached = || {
            let (data, eof) = fc.read(env, key, a.offset, a.count)?;
            self.tel.file_cache_reads.inc();
            Some(Self::local_read(xid, &data, eof))
        };
        for _ in 0..MAX_FLIGHT_ATTEMPTS {
            if let Some(reply) = cached() {
                return Some(reply);
            }
            if self
                .join_or_claim(env, FlightKey::File(key), |_, _| ())
                .is_none()
            {
                // Re-check the file cache (the fetch we waited on may
                // have failed; then we claim the retry slot).
                continue;
            }
            let filled = self.fill_file_cache(env, a.file.0, m, fc, chan);
            self.land(FlightKey::File(key));
            return if filled { cached() } else { None };
        }
        cached().or_else(|| {
            self.tel.recovered_errors.inc();
            Some(RpcMessage::success(
                xid,
                encode_fail_postop(Status::Io, None),
            ))
        })
    }

    /// Fill the file cache with `h` through the file channel. Returns
    /// whether the file is now installed.
    fn fill_file_cache(
        &self,
        env: &Env,
        h: Handle,
        m: &MetaFile,
        fc: &FileCache,
        chan: &ChannelClient,
    ) -> bool {
        match self.fetch_and_install(env, h, m, fc, chan) {
            Ok(wire) => {
                self.tel.channel_fetches.inc();
                self.tel.channel_wire_bytes.add(wire);
                let tr = &self.tel.registry;
                if tr.trace_enabled() {
                    tr.trace(
                        TraceEvent::new(env.now(), "gvfs", "channel_fetch")
                            .bytes(wire)
                            .label("proxy", self.tel.inst.clone()),
                    );
                }
                true
            }
            Err(_) => false,
        }
    }

    /// The file channel's action list for `h`, ending in the install;
    /// returns the compressed bytes that crossed the wire.
    fn fetch_and_install(
        &self,
        env: &Env,
        h: Handle,
        m: &MetaFile,
        fc: &FileCache,
        chan: &ChannelClient,
    ) -> Result<u64, channel::ChannelError> {
        let t = &self.cfg.transfer;
        let mut deduped = None;
        if let Some(cas) = &self.cas {
            let rq = RecipeFetch {
                recipe_hint: m.content_map.as_ref(),
                chunk_bytes: t.chunk_bytes,
                window: t.channel_window,
                // With fleet batching on, the misses travel in
                // multi-digest envelopes: `MAX_BATCH` records per
                // upstream round-trip instead of one, windows of
                // envelopes in flight.
                batch: if self.cfg.fleet.batching() {
                    MAX_BATCH
                } else {
                    1
                },
                cas,
                dtel: &self.wb.dtel,
                tel: Some(&self.wb.ttel),
            };
            // Copy-on-write: resolve the recipe straight into the CAS
            // (pinning every record) and install the file as a reference
            // — zero cache-disk install for resident content, a warm
            // clone's dominant saving. Any failure falls back to the
            // materializing fetch; the helper released its pins.
            if self.cfg.cow.enabled {
                if let Ok(pr) = chan.fetch_recipe_pinned(env, h, &rq) {
                    fc.install_reference(
                        env,
                        h,
                        cas.clone(),
                        pr.recipe.chunk_bytes,
                        pr.recipe.records,
                        pr.fresh_bytes,
                    );
                    self.cow_installs.inc();
                    return Ok(pr.wire);
                }
            }
            // Recipe-driven fetch when dedup is on: chunks the CAS
            // already holds never cross the WAN. Any dedup failure falls
            // back to the plain chunked transfer (correctness never
            // depends on the CAS).
            match chan.fetch_dedup(env, h, &rq) {
                Ok(df) => deduped = Some((df.contents, df.wire)),
                Err(_) => self.tel.recovered_errors.inc(),
            }
        }
        let (contents, wire) = match deduped {
            Some(fetched) => fetched,
            None => {
                chan.fetch_chunked(env, h, t.chunk_bytes, t.channel_window, Some(&self.wb.ttel))?
            }
        };
        // Dedup saves WAN transfer and origin work; the assembled file
        // is written to the local cache disk in full either way (a CAS
        // hit is host memory, not cache-disk residency).
        fc.install(env, h, &contents);
        Ok(wire)
    }

    /// Single-flight, one step: if a flight for `key` is in progress,
    /// wait for it to land and return `None`; otherwise register one —
    /// running `on_claim` under the same acquisition of the state lock,
    /// with the signal the flight's waiters will park on — and return
    /// `Some` of its result. The claimant must [`Proxy::land`] the
    /// flight whatever becomes of its fetch.
    fn join_or_claim<R>(
        &self,
        env: &Env,
        key: FlightKey,
        on_claim: impl FnOnce(&mut ProxyState, &simnet::Signal) -> R,
    ) -> Option<R> {
        let joined = {
            let mut st = self.state.lock();
            match st.inflight.get(&key) {
                Some(sig) => Err(sig.clone()),
                None => {
                    let sig = simnet::Signal::new(env.handle());
                    let claimed = on_claim(&mut st, &sig);
                    st.inflight.insert(key, sig);
                    Ok(claimed)
                }
            }
        };
        match joined {
            Ok(claimed) => Some(claimed),
            Err(sig) => {
                sig.wait(env);
                None
            }
        }
    }

    /// Land `key`'s flight: forget it and wake its waiters — outside the
    /// state lock.
    fn land(&self, key: FlightKey) {
        let sig = { self.state.lock().inflight.remove(&key) };
        if let Some(sig) = sig {
            sig.set();
        }
    }

    /// Sequential read-ahead: track per-file block streaks; once two
    /// consecutive blocks have been requested, fetch the next
    /// `transfer.read_ahead` blocks upstream into the block cache from a
    /// detached worker. The workers' READs queue behind the triggering
    /// demand miss on the WAN, so the stream's next blocks arrive while
    /// the application consumes the current one. A racing demand miss on
    /// a block being prefetched waits on the block's signal in the flight
    /// table rather than duplicating the upstream READ.
    ///
    /// `lead` is the triggering read's byte count: a candidate block whose
    /// leading `lead` bytes the zero map of `meta` proves zero is skipped,
    /// because the demand stream's aligned read there will be
    /// zero-filtered locally and never consult the block cache —
    /// prefetching it would burn WAN bandwidth on a block nobody looks up.
    /// The file size in `meta` clips candidates at EOF before the first
    /// upstream reply has taught `known_size` (which falls back to it) —
    /// without it every short file costs a full window of empty
    /// beyond-EOF READs.
    fn maybe_prefetch(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        tag: Tag,
        lead: u32,
        meta: Option<&MetaFile>,
    ) {
        let (key, bs) = (tag_key(tag), self.wb.bs);
        let depth = self.cfg.transfer.read_ahead;
        if depth == 0 {
            return;
        }
        let Some(bc) = self.block_cache.clone() else {
            return;
        };
        let zero_map = meta.and_then(|m| m.zero_map.as_ref());
        let size = self.wb.known_size(key);
        let (candidates, wasted) = {
            let mut st = self.state.lock();
            let run = match st.streaks.get(&key).copied() {
                Some((last, r)) if tag.block == last + 1 => r + 1,
                Some((last, r)) if tag.block == last => r,
                _ => 1,
            };
            st.streaks.insert(key, (tag.block, run));
            // Window sizing by streak evidence. On a fluid-shared WAN
            // link a prefetch batch slows every concurrent demand miss
            // (the flows split the bandwidth), so speculation must pay
            // for itself:
            // * run 1 (fresh position): speculate exactly one block.
            //   Small files span a couple of cache blocks, so reading
            //   block b predicts b+1; fetching it concurrently with b
            //   hides the second block's WAN round trip — the dominant
            //   cost of a scattered small-file sweep.
            // * run 2–3: the pair hypothesis already paid off; issuing
            //   more here is junk whenever the file ends at two blocks
            //   (the common case). Wait for real streak evidence.
            // * run ≥ 4 (128 KB of consecutive reads): a genuine
            //   sequential stream — open the full window.
            let depth = match run {
                1 => 1,
                2 | 3 => return,
                _ => depth as u64,
            };
            let wasted = reclaim_wasted_prefetches(&mut st, &bc);
            let mut cands: Vec<Tag> = Vec::new();
            for b in (tag.block + 1)..=(tag.block + depth) {
                if let Some(s) = size {
                    if b * bs >= s {
                        break;
                    }
                }
                if let Some(zm) = zero_map {
                    if zm.range_is_zero(b * bs, lead) {
                        continue;
                    }
                }
                let t = tag_of(key, b);
                if st.flights.contains_key(&t) || bc.contains(t) {
                    continue;
                }
                let landing = simnet::Signal::new(env.handle());
                st.flights.insert(t, BlockFlight::Prefetching(landing));
                cands.push(t);
            }
            (cands, wasted)
        };
        if wasted > 0 {
            self.tel.prefetch_wasted.add(wasted);
        }
        if candidates.is_empty() {
            return;
        }
        self.tel.prefetch_issued.add(candidates.len() as u64);
        let sink = self.wb.with_cred(cred);
        let ttel = sink.ttel.clone();
        let window = depth.max(1);
        env.spawn(format!("{}-prefetch", self.tel.inst), move |env| {
            run_windowed(
                &env,
                "prefetch",
                window,
                candidates,
                Some(&ttel),
                move |env, t| {
                    let nfs = nfs3::Nfs3Client::new(sink.upstream.clone());
                    let was = match nfs.read(env, tag_key(t), t.block * bs, bs as u32) {
                        Ok(r) if !r.data.is_empty() && r.data.len() as u64 <= bs => {
                            // Taken before the insert: the frame can be
                            // evicted again while the insert still pays
                            // its disk time or the write-back below runs.
                            let removals = bc.removals();
                            let data = share_slice(&r.data);
                            sink.insert_block(env, sink.upstream.cred(), &bc, t, data, false);
                            let mut st = sink.state.lock();
                            st.prefetched_checked_at = st.prefetched_checked_at.min(removals);
                            st.flights.insert(t, BlockFlight::Prefetched)
                        }
                        _ => sink.state.lock().flights.remove(&t),
                    };
                    // Wake any demand miss parked on this block — outside
                    // the state lock.
                    if let Some(BlockFlight::Prefetching(landed)) = was {
                        landed.set();
                    }
                    Some(())
                },
            );
        });
    }

    // -- WRITE --------------------------------------------------------------

    /// An absorbed WRITE's reply — stable on the local cache disk —
    /// carrying this proxy's own write verifier: the proxy answers for
    /// its local cache disk, not for the origin server, so it must not
    /// forge the server's verifier.
    fn absorbed_write(&self, xid: u32, count: u32) -> RpcMessage {
        let results = encode_write(None, count, StableHow::FileSync, self.write_verf);
        RpcMessage::success(xid, results)
    }

    fn handle_write(&self, c: Call<'_>, args: xdr::Bytes) -> RpcMessage {
        let Call { env, xid, cred } = c;
        let a = match WriteArgs::from_bytes(&args) {
            Ok(a) => a,
            Err(_) => return self.forward(c, NFS_PROGRAM, NFS_V3, proc3::WRITE, args),
        };
        self.tel.writes.inc();
        let key = a.file.0;

        // File-cache resident files absorb writes there (dirty upload on
        // flush).
        if let Some((fc, _)) = &self.wb.files {
            if fc.contains(key) && !self.cfg.read_only_share {
                fc.write(env, key, a.offset, a.data);
                self.bump_size(key, a.offset + a.data.len() as u64);
                self.tel.writes_absorbed.inc();
                return self.absorbed_write(xid, a.data.len() as u32);
            }
        }

        let write_back =
            self.cfg.write_policy == WritePolicy::WriteBack && !self.cfg.read_only_share;

        // Write-back: absorb the write into the block cache. The labeled
        // block replaces the old `expect("checked above")` landmine: a
        // write-back policy without a cache attached now recovers by
        // falling through to the write-through path below.
        'write_back: {
            if !write_back {
                break 'write_back;
            }
            let Some(bc) = self.block_cache.as_ref() else {
                self.tel.recovered_errors.inc();
                break 'write_back;
            };
            let bs = bc.config().block_size as u64;
            let end = a.offset + a.data.len() as u64;
            let mut pos = a.offset;
            while pos < end {
                let block = pos / bs;
                let bstart = block * bs;
                let boff = (pos - bstart) as usize;
                let take = ((bstart + bs).min(end) - pos) as usize;
                let chunk = &a.data[(pos - a.offset) as usize..(pos - a.offset) as usize + take];
                let tag = tag_of(key, block);
                if !bc.update(env, tag, boff, chunk, true) {
                    // Absent frame. Full-block writes insert directly;
                    // partial writes within the current file need
                    // read-modify-write from upstream first.
                    let full = boff == 0 && take as u64 == bs;
                    let existing_size = self.wb.known_size(key).unwrap_or(0);
                    if full || bstart >= existing_size {
                        let mut data = Vec::with_capacity(boff + take);
                        data.resize(boff, 0);
                        data.extend_from_slice(chunk);
                        self.wb
                            .insert_block(env, cred, bc, tag, Arc::new(data), true);
                    } else {
                        let nfs = nfs3::Nfs3Client::new(self.wb.upstream.with_cred(cred.clone()));
                        let mut base = match nfs.read(env, a.file.0, bstart, bs as u32) {
                            Ok(r) => r.data.to_vec(),
                            Err(_) => {
                                // Base fetch for read-modify-write failed:
                                // don't fabricate a zero base — hand the
                                // original WRITE upstream untouched.
                                self.tel.recovered_errors.inc();
                                return self.forward_write(c, &a, args.clone());
                            }
                        };
                        if base.len() < boff + take {
                            base.resize(boff + take, 0);
                        }
                        base[boff..boff + take].copy_from_slice(chunk);
                        self.wb
                            .insert_block(env, cred, bc, tag, Arc::new(base), true);
                    }
                }
                pos += take as u64;
            }
            self.bump_size(key, end);
            self.tel.writes_absorbed.inc();
            return self.absorbed_write(xid, a.data.len() as u32);
        }

        // Write-through: keep the cache coherent, then forward.
        if let Some(bc) = &self.block_cache {
            let bs = bc.config().block_size as u64;
            if a.offset % bs == 0 && a.data.len() as u64 <= bs {
                let tag = tag_of(key, a.offset / bs);
                if !bc.update(env, tag, 0, a.data, false) && a.data.len() as u64 == bs {
                    self.wb
                        .insert_block(env, cred, bc, tag, share_slice(a.data), false);
                }
            }
            self.bump_size(key, a.offset + a.data.len() as u64);
        }
        self.forward_write(c, &a, args.clone())
    }

    /// Hand a decoded WRITE upstream as it came (`a` is a view of
    /// `args`), after forgetting what it is about to make stale: the
    /// durable acks of the blocks it touches and the file's cached
    /// channel replies.
    fn forward_write(&self, c: Call<'_>, a: &WriteArgs, args: xdr::Bytes) -> RpcMessage {
        self.invalidate_acked_range(a.file.0, a.offset, a.data.len() as u64);
        self.state.lock().forget_file_replies(a.file.0);
        self.forward(c, NFS_PROGRAM, NFS_V3, proc3::WRITE, args)
    }

    /// SETATTR changes what the file's cached channel replies describe
    /// (a truncation most of all); they go before it is forwarded.
    fn handle_setattr(&self, c: Call<'_>, args: xdr::Bytes) -> RpcMessage {
        if let Ok(a) = xdr::from_bytes::<SetattrArgs>(&args) {
            self.state.lock().forget_file_replies(a.file.0);
        }
        self.forward(c, NFS_PROGRAM, NFS_V3, proc3::SETATTR, args)
    }

    // -- GETATTR / COMMIT / LOOKUP -----------------------------------------

    /// Patch the size in a GETATTR reply if we hold absorbed writes that
    /// grew the file beyond what the server knows.
    fn handle_getattr(&self, c: Call<'_>, args: xdr::Bytes) -> RpcMessage {
        let fh: Result<Fh3, _> = xdr::from_bytes(&args);
        let reply = self.forward(c, NFS_PROGRAM, NFS_V3, proc3::GETATTR, args);
        let fh = match fh {
            Ok(f) => f,
            Err(_) => return reply,
        };
        let key = fh.0;
        let override_size = {
            let st = self.state.lock();
            st.sizes.get(&key).copied()
        };
        let fc_size = self.wb.files.as_ref().and_then(|(fc, _)| fc.size_of(key));
        let local = match (override_size, fc_size) {
            (Some(a), Some(b)) => Some(a.max(b)),
            (a, b) => a.or(b),
        };
        let local = match local {
            Some(s) => s,
            None => return reply,
        };
        // A forwarded success carries no verifier, so a patched reply can
        // be built afresh.
        let patched = success_results(&reply).and_then(|results| {
            let mut attr = decode_getattr(results).ok()?;
            if attr.size >= local {
                return None;
            }
            attr.size = local;
            Some(encode_getattr(attr))
        });
        match patched {
            Some(results) => RpcMessage::success(c.xid, results),
            None => reply,
        }
    }

    fn handle_commit(&self, c: Call<'_>, args: xdr::Bytes) -> RpcMessage {
        if self.cfg.write_policy == WritePolicy::WriteBack && self.block_cache.is_some() {
            // Data is stable on the proxy's local cache disk; the real
            // upstream flush happens on a middleware signal.
            return RpcMessage::success(c.xid, encode_commit(None, self.write_verf));
        }
        self.forward(c, NFS_PROGRAM, NFS_V3, proc3::COMMIT, args)
    }

    fn handle_lookup(&self, c: Call<'_>, args: xdr::Bytes) -> RpcMessage {
        let Call { env, cred, .. } = c;
        let parsed: Result<DirOpArgs3, _> = xdr::from_bytes(&args);
        let reply = self.forward(c, NFS_PROGRAM, NFS_V3, proc3::LOOKUP, args);
        if let (Ok(dirop), Some(results)) = (parsed, success_results(&reply)) {
            if let Ok((fh, _)) = decode_lookup(results) {
                self.discover_meta(env, cred, dirop.dir.0, &dirop.name, fh);
            }
        }
        reply
    }

    // -- flush (middleware signal) -------------------------------------------

    /// One bounded-window write-back pass over per-file dirty block
    /// runs: UNSTABLE WRITEs stream through the flush window, then one
    /// COMMIT per file. A block is durable only when its WRITE's
    /// verifier matches the COMMIT's (RFC 1813 §3.3.7): a disagreement
    /// means the server restarted in between and discarded the unstable
    /// data, so the block — though both RPCs "succeeded" — must be
    /// resent. Everything not durable comes back for the next round.
    fn write_back_pass(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        pending: DirtyByFile,
        report: &mut FlushReport,
    ) -> DirtyByFile {
        let fw = self.cfg.transfer.flush_window.max(1);
        let sink = self.wb.with_cred(cred);
        let nfs = nfs3::Nfs3Client::new(sink.upstream.clone());
        let mut requeue: DirtyByFile = BTreeMap::new();
        for (key, blocks) in pending {
            // Bounded in-flight UNSTABLE WRITEs per file (a window of 1
            // is the serial flush: the sends run inline, one at a time);
            // the COMMIT below only runs once all of them returned, so
            // ordering toward the server stays deterministic.
            let (slots, skips) = sink.send_blocks(env, key, blocks, StableHow::Unstable, fw);
            if slots.is_empty() && skips.is_empty() {
                continue;
            }
            let commit_verf = nfs.commit(env, key).ok();
            if commit_verf.is_none() {
                self.tel.recovered_errors.inc();
            }
            let mut mismatch = false;
            let mut again: Vec<(u64, SharedBytes)> = Vec::new();
            // Nothing below suspends, so the durable-ack map is brought
            // up to date under one acquisition of the state lock.
            let mut st = self.state.lock();
            for slot in slots {
                match slot {
                    Some((block, data, dg, Some(verf))) if Some(verf) == commit_verf => {
                        report.blocks += 1;
                        report.block_bytes += data.len() as u64;
                        if let Some(d) = dg {
                            st.acked.insert(tag_of(key, block), (d, verf));
                        }
                    }
                    Some((block, data, _dg, wrote)) => {
                        if wrote.is_some() && commit_verf.is_some() {
                            mismatch = true;
                        } else {
                            self.tel.recovered_errors.inc();
                        }
                        again.push((block, data));
                    }
                    None => {
                        // A write worker died with the payload: nothing
                        // left to requeue — surface it as failed.
                        report.failed_blocks += 1;
                        self.tel.recovered_errors.inc();
                    }
                }
            }
            // Validate skips: a skipped block is only "done" when the
            // COMMIT's verifier still matches the one its acknowledgement
            // was recorded under. Otherwise the server restarted (or the
            // COMMIT failed) — drop the stale entry and requeue the bytes.
            for (block, data, acked_verf) in skips {
                if commit_verf == Some(acked_verf) {
                    self.wb.dtel.acked_skips.inc();
                    self.wb.dtel.bytes_avoided.add(data.len() as u64);
                } else {
                    st.acked.remove(&tag_of(key, block));
                    again.push((block, data));
                }
            }
            // Safety valve; first-key order keeps the shed deterministic.
            while st.acked.len() > ACKED_CAP {
                st.acked.pop_first();
            }
            drop(st);
            if mismatch {
                self.tel.verf_mismatches.inc();
            }
            if !again.is_empty() {
                requeue.insert(key, again);
            }
        }
        requeue
    }

    /// Middleware-driven write-back: push every dirty block and dirty
    /// cached file upstream. The paper implements this as an O/S signal
    /// to the proxy process; here the scenario driver calls it directly
    /// (session-based consistency, §3.2.1).
    ///
    /// Degraded mode: write-backs that fail upstream (WAN outage, server
    /// restart) are retried in up to `transfer.flush_retry_rounds`
    /// rounds with doubling backoff; whatever survives the rounds parks
    /// on the retry queue (blocks) or stays dirty in the file cache
    /// (files) and is reported in `FlushReport::failed_*` — the next
    /// flush signal picks it all up again. No acknowledged byte is ever
    /// dropped.
    pub fn flush(&self, env: &Env, cred: &oncrpc::OpaqueAuth) -> FlushReport {
        let mut report = FlushReport::default();
        let tuning = self.cfg.transfer;

        // First upload attempt of every dirty cached file: what it sent,
        // and the uploads that failed, kept with their payload for the
        // retry rounds.
        let uploaded: Arc<Mutex<(FlushReport, Vec<PendingUpload>)>> = Arc::default();
        let mut upload_files = None;
        if let Some((fc, _)) = &self.wb.files {
            let dirty_files = fc.dirty_files();
            if !dirty_files.is_empty() {
                let (fc, sink, out) = (fc.clone(), self.wb.clone(), uploaded.clone());
                let cow_on = self.cfg.cow.enabled && sink.dedup;
                upload_files = Some(move |env: &Env| {
                    let (mut sent, mut failed) = (FlushReport::default(), Vec::new());
                    for key in dirty_files {
                        // Diverged-only flush: a dirty *reference* file
                        // uploads just its broken chunks (upstream still
                        // holds the golden base its recipe resolves
                        // against; the size-preserving chunk write keeps
                        // every untouched range). The whole file stays
                        // the fallback — including for a reference
                        // re-marked dirty after a failed upload, whose
                        // chunk set is gone.
                        let Some(dirty) = fc.take_dirty(env, key, cow_on) else {
                            continue;
                        };
                        let (total, d) = match &dirty {
                            DirtyFile::Diverged {
                                total, full_digest, ..
                            } => (*total, Some(*full_digest)),
                            DirtyFile::Whole(c) => {
                                (c.len() as u64, sink.dedup.then(|| digest::digest(c)))
                            }
                        };
                        // The digest is charged at codec throughput — the
                        // same CPU the fetch path pays per verified blob.
                        if d.is_some() {
                            env.sleep(sink.codec.digest_time(total));
                        }
                        let mut up = (key, dirty, d);
                        if sink.upload_file(env, &up, &mut sent) {
                            continue;
                        }
                        if let DirtyFile::Diverged { .. } = up.1 {
                            // Hand the retry machinery the full contents
                            // (the bounded rounds resend whole files).
                            fc.mark_dirty(key);
                            match fc.take_dirty(env, key, false) {
                                Some(whole) => up.1 = whole,
                                None => continue,
                            }
                        }
                        failed.push(up);
                    }
                    *out.lock() = (sent, failed);
                });
            }
        }
        // Dirty file-cache uploads overlap the block write-back: one
        // helper process drives the channel uploads while this process
        // drives the block path. With a serial window the uploads run
        // inline after the blocks, preserving the old RPC order.
        let helper = upload_files
            .take_if(|_| tuning.flush_window > 1)
            .map(|upload| {
                env.spawn(format!("{}-flush-files", self.tel.inst), move |env| {
                    upload(&env)
                })
            });

        // Block write-back: dirty blocks from the cache, plus everything
        // still parked on the retry queue from earlier failed evictions
        // or a previous degraded flush.
        let mut pending: DirtyByFile = BTreeMap::new();
        if let Some(bc) = &self.block_cache {
            let dirty = bc.take_dirty(env);
            let mut blocks = { std::mem::take(&mut self.state.lock().wb_queue) };
            self.tel.wb_drained.add(blocks.len() as u64);
            // A fresher dirty copy of the same block wins. Tag order is
            // file, then block: each file's run comes out sorted.
            blocks.extend(dirty);
            for (tag, data) in blocks {
                let run = pending.entry(tag_key(tag)).or_default();
                run.push((tag.block, data));
            }
        }
        let mut remaining = self.write_back_pass(env, cred, pending, &mut report);

        if let Some(upload) = upload_files {
            upload(env);
        }
        if let Some(j) = helper {
            j.join(env);
        }
        let (sent, mut failed_files) = std::mem::take(&mut *uploaded.lock());
        report.files += sent.files;
        report.file_wire_bytes += sent.file_wire_bytes;

        // Degraded-mode drain: bounded retry rounds with doubling
        // backoff, resending both failed blocks and failed file uploads
        // until they land or the rounds run out.
        for round in 0..tuning.flush_retry_rounds {
            if remaining.is_empty() && failed_files.is_empty() {
                break;
            }
            self.tel.flush_retry_rounds.inc();
            env.sleep(FLUSH_RETRY_BACKOFF * (1u64 << round.min(3)));
            remaining = self.write_back_pass(env, cred, remaining, &mut report);
            failed_files.retain(|up| !self.wb.upload_file(env, up, &mut report));
        }

        // Park the survivors for the next flush signal.
        for (key, blocks) in remaining {
            for (block, data) in blocks {
                report.failed_blocks += 1;
                report.failed_block_bytes += data.len() as u64;
                self.wb
                    .park(&mut self.state.lock(), tag_of(key, block), data);
            }
        }
        for (key, ..) in failed_files {
            report.failed_files += 1;
            // The contents are still resident in the file cache; re-mark
            // the file dirty so the next flush retries the upload (the
            // synced digest stays cleared until an upload completes).
            if let Some((fc, _)) = &self.wb.files {
                fc.mark_dirty(key);
            }
        }
        self.tel.blocks_written_back.add(report.blocks);
        // Wasted-prefetch reconciliation piggybacks on the flush signal,
        // so the counter converges even when no further misses
        // re-trigger `maybe_prefetch`.
        if let Some(bc) = &self.block_cache {
            let wasted = reclaim_wasted_prefetches(&mut self.state.lock(), bc);
            self.tel.prefetch_wasted.add(wasted);
        }
        // Size overrides deliberately survive the flush: `known_size` is
        // consulted by later write-backs and GETATTR patching, and the
        // meta-data fallback still reports the pre-session file size.
        // Clearing here made a post-flush eviction truncate its payload
        // to the stale meta size, silently dropping appended bytes.
        report
    }

    // -- intra-region digest gossip -------------------------------------------

    /// Wire this shard to its region siblings: `my_id` is the id it
    /// signs gossip messages with, `siblings` the sibling shards' LAN
    /// clients. No-op unless the proxy was built with
    /// [`FleetTuning::region`] (and dedup) on. Called once by middleware
    /// after all the region's channels exist.
    pub fn set_gossip_peers(&self, my_id: u32, siblings: Vec<(u32, RpcClient)>) {
        if let Some(peers) = &self.gossip.peers {
            let mut p = peers.lock();
            p.my_id = my_id;
            p.peers = siblings;
            p.next = 0;
            p.sent_cursor.clear();
        }
    }

    /// One anti-entropy round: push a bounded delta of our digest log to
    /// the next peer (round-robin) and merge the delta its reply
    /// carries. The push cursor advances only on success, so a round
    /// lost to the LAN is simply retransmitted next period — the log is
    /// append-only and deltas are idempotent set-unions, which is the
    /// whole convergence argument. Driven by a per-shard middleware
    /// process on the scenario's gossip period.
    pub fn gossip_round(&self, env: &Env) {
        let g = &self.gossip;
        let Some(peers) = &g.peers else { return };
        // Lock order: never hold the peer table and the proxy state at
        // once (the state lock is taken inside RPC handlers that a
        // concurrent sibling round may be driving into us right now).
        let (my_id, peer_id, client, sent) = {
            let mut p = peers.lock();
            if p.peers.is_empty() {
                return;
            }
            let idx = p.next % p.peers.len();
            p.next = idx + 1;
            let (pid, client) = p.peers[idx].clone();
            let sent = *p.sent_cursor.get(&pid).unwrap_or(&0);
            (p.my_id, pid, client, sent)
        };
        let (delta, end) = self.state.lock().gossip_delta(sent);
        g.rounds.inc();
        let args = encode_gossip(my_id, &delta);
        let Ok(results) = channel::call(&client, env, chanproc::GOSSIP_DIGESTS, &args) else {
            return;
        };
        let Some((sender, digests)) = decode_gossip(&results) else {
            return;
        };
        g.learn(&mut self.state.lock(), sender, digests);
        peers.lock().sent_cursor.insert(peer_id, end);
    }

    /// Serve a sibling's push: merge the digests it advertises, reply
    /// with our own bounded delta (per-sender cursor, so successive
    /// pushes from the same peer page through our whole log).
    fn handle_gossip_digests(&self, xid: u32, args: &[u8]) -> RpcMessage {
        let g = &self.gossip;
        let Some(peers) = &g.peers else {
            return RpcMessage::accept_error(xid, AcceptStat::ProcUnavail);
        };
        let Some((sender, digests)) = decode_gossip(args) else {
            return RpcMessage::accept_error(xid, AcceptStat::GarbageArgs);
        };
        let my_id = peers.lock().my_id;
        let delta = {
            let mut st = self.state.lock();
            g.learn(&mut st, sender, digests);
            let told = *st.gossip_reply_cursor.get(&sender).unwrap_or(&0);
            let (delta, end) = st.gossip_delta(told);
            st.gossip_reply_cursor.insert(sender, end);
            delta
        };
        RpcMessage::success(xid, encode_gossip(my_id, &delta))
    }

    /// Serve a sibling shard's blob fetch from the local digest-keyed
    /// reply cache — and *only* from it. A local miss fails the call
    /// rather than forwarding upstream: the requester owns the fallback,
    /// so two shards can never ping-pong or double-fetch a miss.
    fn handle_channel_blob_peer(&self, env: &Env, xid: u32, args: &[u8]) -> RpcMessage {
        if self.gossip.peers.is_none() {
            return RpcMessage::accept_error(xid, AcceptStat::ProcUnavail);
        }
        let Some((_, _, _, want)) = decode_blob_args(args) else {
            return RpcMessage::accept_error(xid, AcceptStat::GarbageArgs);
        };
        let cached = { self.state.lock().chan_blob_replies.get(&want) };
        match cached {
            Some(results) => {
                env.sleep(PER_OP_CPU);
                self.gossip.peer_served.inc();
                RpcMessage::success(xid, results)
            }
            // Stale advertisement (we evicted it) or a speculative probe:
            // an error reply, never an upstream forward.
            None => RpcMessage::accept_error(xid, AcceptStat::SystemErr),
        }
    }

    /// Try to satisfy a blob miss from a sibling shard that gossip says
    /// holds it. Returns the verified reply bytes on success; on any
    /// failure the advertisement is dropped (it was stale) and the
    /// caller falls back to the normal upstream path.
    fn try_peer_fetch(&self, env: &Env, want: Digest, args: &xdr::Bytes) -> Option<xdr::Bytes> {
        let g = &self.gossip;
        let peers = g.peers.as_ref()?;
        let holder = {
            let st = self.state.lock();
            st.peer_digests
                .iter()
                .find(|(_, inv)| inv.contains(&want))
                .map(|(id, _)| *id)
        }?;
        let client = {
            let p = peers.lock();
            p.peers
                .iter()
                .find(|(id, _)| *id == holder)
                .map(|(_, c)| c.clone())
        }?;
        match channel::call(&client, env, chanproc::FETCH_BLOBS_PEER, args) {
            // Same guard as every other ingestion point: peer replies
            // are digest-verified before they may be cached or served.
            Ok(results) if read_blob_reply(env, &self.wb.codec, &results, want).is_ok() => {
                g.peer_hits.inc();
                if let Some(chunk_len) = blob_reply_len(&results) {
                    g.peer_bytes.add(chunk_len);
                }
                Some(results)
            }
            _ => {
                g.peer_misses.inc();
                let mut st = self.state.lock();
                if let Some(inv) = st.peer_digests.get_mut(&holder) {
                    inv.remove(&want);
                }
                None
            }
        }
    }

    // -- file channel passthrough with caching --------------------------------

    fn handle_channel(&self, c: Call<'_>, proc: u32, args: xdr::Bytes) -> RpcMessage {
        let Call { env, xid, .. } = c;
        let dedup = self.cas.is_some();
        match proc {
            // Second-level caching for the chunked channel: each
            // compressed chunk reply is replayed from local state, so an
            // intermediate proxy serves repeat chunked fetches without
            // re-crossing the WAN.
            chanproc::FETCH_CHUNK => {
                let key = decode_chunk_args(&args);
                self.replay_or_forward(c, proc, args, key, |st| &mut st.chan_chunk_replies)
            }
            // Recipes are tiny but each one otherwise costs a WAN round
            // trip per cloning.
            chanproc::FETCH_RECIPE if dedup => {
                let key = decode_recipe_args(&args);
                self.replay_or_forward(c, proc, args, key, |st| &mut st.chan_recipe_replies)
            }
            chanproc::FETCH_BLOBS if dedup => match decode_blob_args(&args) {
                Some((_, _, _, want)) => self.serve_blob(c, want, args),
                None => self.forward_chan(c, proc, args),
            },
            chanproc::FETCH_BLOBS_BATCH if dedup && self.cfg.fleet.batching() => {
                self.handle_channel_blob_envelope(c, args)
            }
            chanproc::UPLOAD_CHUNK => {
                if let Some(file) = decode_args_file(&args) {
                    self.state.lock().forget_file_replies(file);
                }
                self.forward_chan(c, proc, args)
            }
            chanproc::GOSSIP_DIGESTS => self.handle_gossip_digests(xid, &args),
            chanproc::FETCH_BLOBS_PEER => self.handle_channel_blob_peer(env, xid, &args),
            _ => self.forward_chan(c, proc, args),
        }
    }

    /// Replay a cached reply for `key` from the cache `cache` selects, or
    /// forward the call and remember a successful reply under it (a call
    /// whose args did not decode has no key and is only forwarded).
    fn replay_or_forward<K: Ord + Copy>(
        &self,
        c: Call<'_>,
        proc: u32,
        args: xdr::Bytes,
        key: Option<K>,
        cache: impl Fn(&mut ProxyState) -> &mut ReplyCache<K>,
    ) -> RpcMessage {
        let Call { env, xid, .. } = c;
        if let Some(k) = key {
            let cached = { cache(&mut self.state.lock()).get(&k) };
            if let Some(results) = cached {
                env.sleep(PER_OP_CPU);
                return RpcMessage::success(xid, results);
            }
        }
        let reply = self.forward_chan(c, proc, args);
        if let (Some(k), Some(results)) = (key, success_results(&reply)) {
            cache(&mut self.state.lock()).insert(k, results.clone());
        }
        reply
    }

    /// Serve `want` from the digest-keyed reply cache, charging the
    /// per-op CPU and counting the dedup hit: served from
    /// content-addressed local state, the chunk's logical bytes never
    /// re-crossed the upstream link. (The first serve after a batch
    /// round is the original requester — its bytes DID cross once, so
    /// `batch_uncounted` excludes it.)
    fn cached_blob(&self, env: &Env, want: Digest) -> Option<xdr::Bytes> {
        let (results, count_hit) = {
            let mut st = self.state.lock();
            let results = st.chan_blob_replies.get(&want)?;
            (results, !st.batch_uncounted.remove(&want))
        };
        env.sleep(PER_OP_CPU);
        if count_hit {
            if let Some(chunk_len) = blob_reply_len(&results) {
                self.wb.dtel.recipe_hits.inc();
                self.wb.dtel.bytes_avoided.add(chunk_len);
            }
        }
        Some(results)
    }

    /// Land the blob flight for `want`: cache the reply if the fetch
    /// produced a verified one (logging the digest for gossip, and, after
    /// a batch round, marking it uncounted for its original requester),
    /// then wake that digest's waiters.
    fn land_blob(&self, want: Digest, verified: Option<xdr::Bytes>, from_batch: bool) {
        if let Some(results) = verified {
            let mut st = self.state.lock();
            st.chan_blob_replies.insert(want, results);
            if from_batch {
                st.batch_uncounted.insert(want);
            }
            if self.gossip.peers.is_some() {
                st.gossip_log.push(want);
            }
        }
        self.land(FlightKey::Blob(want));
    }

    /// Second-level caching for `FETCH_BLOBS` replies, keyed by *content
    /// digest* rather than file handle: eight distinct images cloned
    /// through one LAN proxy share every common chunk, and concurrent
    /// fetches of the same digest — even for different files —
    /// single-flight on the content (the digest travels in the request
    /// precisely so intermediaries can do this): one upstream fetch per
    /// distinct chunk no matter how many clonings want it at once.
    ///
    /// What the claimant of a flight does is the only difference fleet
    /// batching makes. Without it the claimant fetches alone. With it,
    /// concurrent misses for *distinct* digests coalesce into one
    /// `FETCH_BLOBS_BATCH` upstream envelope: the claimant parks its
    /// miss, and a single *batch leader* lingers
    /// [`BATCH_WINDOW`] of virtual time so the burst can
    /// gather, then drains the pending misses in rounds of at most
    /// [`MAX_BATCH`] sub-calls — one WAN round-trip (and one
    /// tunnel per-message cost) per round instead of one per chunk.
    fn serve_blob(&self, c: Call<'_>, want: Digest, args: xdr::Bytes) -> RpcMessage {
        let Call { env, xid, cred } = c;
        enum Claim {
            Alone,
            Lead,
            Ride(simnet::Signal),
        }
        let batching = self.cfg.fleet.batching();
        for _ in 0..MAX_FLIGHT_ATTEMPTS {
            if let Some(results) = self.cached_blob(env, want) {
                return RpcMessage::success(xid, results);
            }
            let claim = self.join_or_claim(env, FlightKey::Blob(want), |st, sig| {
                if !batching {
                    return Claim::Alone;
                }
                st.batch_pending.push((want, args.clone()));
                if st.batch_open {
                    // A leader is already collecting: park on our own
                    // signal and ride its envelope.
                    Claim::Ride(sig.clone())
                } else {
                    st.batch_open = true;
                    Claim::Lead
                }
            });
            // Whoever waited re-checks the digest cache next: the fetch
            // may have failed (for this item); then it claims the retry
            // slot.
            match claim {
                None => {}
                Some(Claim::Ride(sig)) => sig.wait(env),
                Some(Claim::Lead) => {
                    env.sleep(BATCH_WINDOW);
                    self.drain_blob_batches(env, cred);
                }
                Some(Claim::Alone) => return self.fetch_blob_alone(c, want, args),
            }
        }
        match self.cached_blob(env, want) {
            Some(results) => RpcMessage::success(xid, results),
            None => self.forward_chan(c, chanproc::FETCH_BLOBS, args),
        }
    }

    /// An unbatched claimant's fetch: from a sibling shard if gossip
    /// says one holds the chunk, else upstream.
    fn fetch_blob_alone(&self, c: Call<'_>, want: Digest, args: xdr::Bytes) -> RpcMessage {
        let Call { env, xid, .. } = c;
        // Gossip: a sibling shard that already holds this chunk serves
        // it over the LAN; only a peer miss rides the WAN.
        if let Some(results) = self.try_peer_fetch(env, want, &args) {
            self.land_blob(want, Some(results.clone()), false);
            return RpcMessage::success(xid, results);
        }
        let reply = self.forward_chan(c, chanproc::FETCH_BLOBS, args);
        // Only a channel-level Ok is content — caching a NoEnt/Stale
        // under a digest would replay the error to every other file
        // sharing the chunk — and only a payload that actually hashes to
        // the requested digest may be keyed by it: the origin serves by
        // byte range and ignores the digest, so a stale recipe would
        // otherwise poison this shared cache permanently for every file
        // sharing the chunk. Decompression and digesting are charged at
        // codec throughput, like the client-side verification.
        let verified = success_results(&reply)
            .filter(|results| read_blob_reply(env, &self.wb.codec, results, want).is_ok())
            .cloned();
        self.land_blob(want, verified, false);
        reply
    }

    /// One leader's drain: take up to [`MAX_BATCH`] parked blob misses,
    /// fetch them in one upstream `FETCH_BLOBS_BATCH` envelope,
    /// digest-verify and cache each successful item, then wake that
    /// digest's waiters. Leadership (`batch_open`) is released the
    /// moment the pending queue is emptied — *before* the envelope goes
    /// on the wire — so the next miss elects a new leader and starts its
    /// own collection window while this envelope is still in flight.
    /// Coalescing must not cost the shard its upstream parallelism: a
    /// leader that kept collecting until its RPC returned would funnel
    /// every miss through one serial round-trip pipeline, and under
    /// bursty load that *adds* tail latency instead of removing it.
    /// Only when a round leaves items behind (pending > [`MAX_BATCH`],
    /// i.e. genuine backlog) does the same leader loop for another
    /// round, so no parked waiter is ever left without a leader.
    fn drain_blob_batches(&self, env: &Env, cred: &oncrpc::OpaqueAuth) {
        loop {
            let (round, released) = {
                let mut st = self.state.lock();
                let round = st.take_blob_round();
                let released = st.batch_pending.is_empty();
                if released {
                    st.batch_open = false;
                }
                (round, released)
            };
            if !round.is_empty() {
                self.send_blob_round(env, cred, &round);
            }
            if released {
                return;
            }
        }
    }

    /// One round of parked misses. With gossip, first serve what a
    /// sibling shard already holds over the LAN — waiters on a
    /// peer-served digest wake here, exactly as they would after the
    /// envelope round — and send only the genuinely region-cold
    /// remainder upstream.
    fn send_blob_round(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        round: &[(Digest, xdr::Bytes)],
    ) {
        if self.gossip.peers.is_none() {
            return self.send_blob_round_upstream(env, cred, round);
        }
        let mut remaining: Vec<(Digest, xdr::Bytes)> = Vec::with_capacity(round.len());
        for (want, args) in round {
            match self.try_peer_fetch(env, *want, args) {
                Some(results) => self.land_blob(*want, Some(results), false),
                None => remaining.push((*want, args.clone())),
            }
        }
        if !remaining.is_empty() {
            self.send_blob_round_upstream(env, cred, &remaining);
        }
    }

    /// The WAN half of a blob round: one `FETCH_BLOBS_BATCH` envelope
    /// upstream for every item still unresolved after the peer pass;
    /// digest-verify and cache each successful item, then wake that
    /// digest's waiters. On an envelope-level failure every waiter
    /// re-claims and retries (falling back to single calls after the
    /// bounded attempts, like the unbatched path).
    fn send_blob_round_upstream(
        &self,
        env: &Env,
        cred: &oncrpc::OpaqueAuth,
        round: &[(Digest, xdr::Bytes)],
    ) {
        let items: Vec<oncrpc::BatchItem> = round
            .iter()
            .map(|(_, args)| oncrpc::BatchItem {
                proc: chanproc::FETCH_BLOBS,
                args: args.to_vec(),
            })
            .collect();
        self.tel.forwarded.inc();
        self.fleet_batches.0.inc();
        self.fleet_batches.1.add(items.len() as u64);
        let client = self.wb.upstream.with_cred(cred.clone());
        let args = oncrpc::batch::encode_batch(&items);
        let replies = channel::call(&client, env, chanproc::FETCH_BLOBS_BATCH, &args)
            .ok()
            .and_then(|res| oncrpc::batch::decode_batch_reply(&res).ok());
        let per_item: Vec<Option<Vec<u8>>> = match replies {
            Some(rs) if rs.len() == round.len() => rs
                .into_iter()
                .map(|r| if r.ok() { Some(r.result) } else { None })
                .collect(),
            _ => vec![None; round.len()],
        };
        for ((want, _), result) in round.iter().zip(per_item) {
            // Same guard as the single-call path: only a channel-level
            // Ok whose payload actually hashes to the requested digest
            // may be keyed by it.
            let verified = result
                .map(xdr::Bytes::from)
                .filter(|results| read_blob_reply(env, &self.wb.codec, results, *want).is_ok());
            self.land_blob(*want, verified, true);
        }
    }

    /// A downstream `FETCH_BLOBS_BATCH` envelope — a fleet client proxy
    /// fetching a cold file in multi-digest rounds. Every not-cached,
    /// not-already-in-flight digest in the envelope is parked in the
    /// batch queue under one lock acquisition, so the whole envelope
    /// coalesces into at most one upstream round (merged with whatever
    /// the other hosts parked meanwhile); then each item resolves
    /// through the same per-digest path a single `FETCH_BLOBS` takes —
    /// digest-cache hit, waiter on the in-flight signal, or bounded
    /// retry. A per-item failure surfaces in its slot without poisoning
    /// its neighbours, the same contract the origin's envelope handler
    /// keeps.
    fn handle_channel_blob_envelope(&self, c: Call<'_>, args: xdr::Bytes) -> RpcMessage {
        let Call { env, xid, cred } = c;
        let Ok(items) = oncrpc::batch::decode_batch(&args) else {
            return RpcMessage::accept_error(xid, AcceptStat::GarbageArgs);
        };
        // Phase 1: park every fresh miss under one lock acquisition,
        // then drain our own rounds right away. Unlike the single-blob
        // path there is no leader election and no collect window: the
        // downstream envelope *is* an already-collected batch, and every
        // concurrent envelope handler draining its own round keeps
        // several upstream envelopes in flight at once — a single
        // looping leader would serialize the whole site's cold misses
        // through one round-trip pipeline.
        let mut parked = 0usize;
        {
            let mut st = self.state.lock();
            for item in &items {
                if item.proc != chanproc::FETCH_BLOBS {
                    continue;
                }
                let Some((_, _, _, want)) = decode_blob_args(&item.args) else {
                    continue;
                };
                let flight = FlightKey::Blob(want);
                if st.chan_blob_replies.get(&want).is_some() || st.inflight.contains_key(&flight) {
                    continue;
                }
                st.inflight
                    .insert(flight, simnet::Signal::new(env.handle()));
                st.batch_pending.push((want, item.args.clone().into()));
                parked += 1;
            }
        }
        // Drain until we have covered at least as many items as we
        // parked (another handler may have taken ours — then its round
        // covers them and our signals still fire). A round can also pick
        // up loose single-blob misses parked by a collecting leader;
        // that leader finding the queue already empty is fine.
        let mut taken = 0usize;
        while taken < parked {
            let round = { self.state.lock().take_blob_round() };
            if round.is_empty() {
                break;
            }
            taken += round.len();
            self.send_blob_round(env, cred, &round);
        }
        // Phase 2: resolve each item through its ordinary per-item
        // handler (our own misses are now cached or in flight). An item
        // that may not ride a batch — a mutation, by the origin's own
        // rule — fails in its slot and never goes upstream.
        let replies: Vec<oncrpc::BatchReplyItem> = items
            .into_iter()
            .map(|item| {
                let served = batchable(item.proc)
                    .then(|| self.handle_channel(c, item.proc, item.args.into()));
                let results = served.as_ref().and_then(success_results);
                channel::batch_reply_item(results.map(|r| r.to_vec()))
            })
            .collect();
        RpcMessage::success(xid, oncrpc::batch::encode_batch_reply(&replies))
    }
}

/// The result bytes of a reply, if it is an accepted success.
fn success_results(reply: &RpcMessage) -> Option<&xdr::Bytes> {
    match reply {
        RpcMessage::Reply {
            body:
                ReplyBody::Accepted {
                    stat: AcceptStat::Success,
                    results,
                    ..
                },
            ..
        } => Some(results),
        _ => None,
    }
}

impl RpcHandler for Proxy {
    fn handle(&self, env: &Env, request: &xdr::Bytes) -> xdr::Bytes {
        let msg = match RpcMessage::decode_shared(request) {
            Ok(m) => m,
            Err(_) => {
                return xdr::to_bytes(&RpcMessage::accept_error(0, AcceptStat::GarbageArgs)).into()
            }
        };
        let (header, args) = match msg {
            RpcMessage::Call { header, args } => (header, args),
            RpcMessage::Reply { xid, .. } => {
                return xdr::to_bytes(&RpcMessage::accept_error(xid, AcceptStat::GarbageArgs))
                    .into()
            }
        };
        let CallHeader {
            xid,
            prog,
            vers,
            proc,
            cred,
            ..
        } = header;
        self.tel.calls.inc();
        if prog == NFS_PROGRAM {
            self.tel.nfs_proc_counter(proc).inc();
        }
        env.sleep(PER_OP_CPU);

        // Server-side proxies authenticate middleware sessions and map
        // them onto local shadow accounts.
        let cred = match &self.identity {
            Some(mapper) => match mapper.map(&cred, env.now().as_nanos()) {
                Ok(mapped) => mapped,
                Err(ProgramError::AuthError(code)) => {
                    return xdr::to_bytes(&RpcMessage::denied(xid, RejectStat::AuthError(code)))
                        .into()
                }
                Err(_) => {
                    return xdr::to_bytes(&RpcMessage::accept_error(xid, AcceptStat::SystemErr))
                        .into()
                }
            },
            None => cred,
        };

        let c = Call {
            env,
            xid,
            cred: &cred,
        };
        let reply = if prog == CHANNEL_PROGRAM {
            self.handle_channel(c, proc, args)
        } else if prog != NFS_PROGRAM || vers != NFS_V3 {
            // MOUNT and anything else passes straight through.
            self.forward(c, prog, vers, proc, args)
        } else {
            match proc {
                proc3::READ => self.handle_read(c, args),
                proc3::WRITE => self.handle_write(c, args),
                proc3::GETATTR => self.handle_getattr(c, args),
                proc3::SETATTR => self.handle_setattr(c, args),
                proc3::COMMIT => self.handle_commit(c, args),
                proc3::LOOKUP => self.handle_lookup(c, args),
                _ => self.forward(c, prog, vers, proc, args),
            }
        };
        reply.into_wire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(fileid: u64) -> FileKey {
        let generation = 1;
        FileKey { fileid, generation }
    }

    fn reply(n: usize) -> xdr::Bytes {
        vec![0u8; n].into()
    }

    #[test]
    fn chunk_reply_cache_stays_under_its_budget_and_evicts_least_recently_used_first() {
        let mut cache = ReplyCache::<(FileKey, u64, u32)> {
            cap: 100,
            ..ReplyCache::default()
        };
        let (a, b, c) = ((file(1), 0, 40), (file(1), 40, 40), (file(2), 0, 40));
        cache.insert(a, reply(40));
        cache.insert(b, reply(40));
        // Touch `a`: `b` is now the least recently used.
        assert!(cache.get(&a).is_some());
        cache.insert(c, reply(40));
        assert!(
            cache.get(&b).is_none(),
            "the least recently used goes first"
        );
        assert!(cache.get(&a).is_some() && cache.get(&c).is_some());
        // A reply over the whole budget is not cached; one that fits
        // pushes out as many as it takes, oldest first.
        cache.insert((file(3), 0, 0), reply(101));
        assert_eq!((cache.bytes, cache.entries.len()), (80, 2));
        cache.insert((file(3), 0, 0), reply(90));
        assert_eq!((cache.bytes, cache.entries.len()), (90, 1));
        // Replacing a key accounts the size difference.
        cache.insert((file(3), 0, 0), reply(10));
        assert_eq!((cache.bytes, cache.lru.len()), (10, 1));
    }

    #[test]
    fn registered_counters_do_not_depend_on_the_knobs() {
        // One report schema per topology: the fleet and copy-on-write
        // presets change what a proxy does, never which counters it
        // registers.
        let names = |fleet: FleetTuning, cow: CowTuning| {
            let sim = simnet::Simulation::new();
            let h = sim.handle();
            let link = |name: &str| simnet::Link::new(&h, name, 1e9, SimDuration::from_micros(10));
            let ep = oncrpc::endpoint(&h, link("up"), link("down"), oncrpc::WireSpec::plain());
            let cfg = ProxyConfig {
                name: "px".into(),
                dedup: DedupTuning::default(),
                fleet,
                cow,
                ..ProxyConfig::default()
            };
            let _proxy = Proxy::new(cfg, RpcClient::new(ep.channel, oncrpc::OpaqueAuth::none()));
            h.telemetry()
                .snapshot()
                .counters
                .iter()
                .map(|c| (c.layer, c.name.trim_start_matches("px.").to_string()))
                .collect::<BTreeSet<_>>()
        };
        let plain = names(FleetTuning::off(), CowTuning::off());
        assert_eq!(plain, names(FleetTuning::region(), CowTuning::on()));
        for knob_counter in [
            "cow.ref_installs",
            "fleet.batches",
            "wb_shed",
            "gossip.peer_hits",
        ] {
            assert!(
                plain.contains(&("gvfs", knob_counter.to_string())),
                "{knob_counter}"
            );
        }
    }

    #[test]
    fn forgetting_a_file_drops_its_chunk_and_recipe_replies_only() {
        let mut st = ProxyState::default();
        for f in [1, 2, 3] {
            st.chan_chunk_replies.insert((file(f), 0, 1024), reply(8));
            st.chan_chunk_replies
                .insert((file(f), u64::MAX, u32::MAX), reply(8));
            st.chan_recipe_replies.insert((file(f), 1024), reply(8));
        }
        st.forget_file_replies(file(2));
        let (chunks, recipes) = (&mut st.chan_chunk_replies, &mut st.chan_recipe_replies);
        assert_eq!((chunks.entries.len(), chunks.bytes), (4, 32));
        assert_eq!((recipes.entries.len(), recipes.bytes), (2, 16));
        assert!(chunks.get(&(file(2), 0, 1024)).is_none());
        assert!(chunks.get(&(file(1), u64::MAX, u32::MAX)).is_some());
        assert!(recipes.get(&(file(3), 1024)).is_some());
    }
}
