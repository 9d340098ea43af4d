//! Kernel NFS client model.
//!
//! Models the compute server's in-kernel NFS client, the layer the paper
//! deliberately leaves unmodified:
//!
//! * a bounded **memory buffer cache** (the "memory file system buffer" of
//!   Figure 2, step 1) holding real data blocks — capacity misses on
//!   multi-GB VM state are exactly the behaviour that motivates GVFS's
//!   proxy *disk* caches. On the host a clean block is content-shared
//!   ([`vfs::share`]): the mounts of a fleet that buffer the same golden
//!   image hold one copy of each of its blocks between them, and the
//!   first write into such a block copies it;
//! * an **attribute cache** and a **dentry cache** with timeouts, giving
//!   close-to-open consistency semantics;
//! * **write staging**: writes dirty cache blocks and are pushed with
//!   UNSTABLE WRITE RPCs (bounded in-flight parallelism, like `nfsd`
//!   request slots), with a dirty-limit back-pressure and a flush +
//!   COMMIT on close — "staging writes for a limited time in kernel
//!   memory buffers" (paper §3.2.1);
//! * **read gathering**: a large application read issues its missing
//!   blocks as parallel READ RPCs, modelling kernel readahead pipelining.
//!
//! It implements [`vfs::FileIo`], so the VM monitor and the workloads are
//! oblivious to whether they run on a local disk or an NFS mount that may
//! have a chain of GVFS proxies behind it.

use std::collections::{BTreeMap, HashMap};
use std::ops::Range;
use std::rc::Rc;

use simnet::telemetry::Counter;
use simnet::Shared;
use simnet::{run_windowed, Env, SimDuration};
use vfs::{
    share, Attr, FileIo, FileType, Handle, IoError, IoResult, PageCache, Payload, PayloadRef,
    SharedBytes,
};

use crate::client::{Nfs3Client, NfsError};
use crate::proto::{StableHow, Status};

/// Kernel client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// Transfer size: the bytes of one READ or WRITE RPC, and the buffer
    /// cache's block.
    pub rsize: u32,
    /// Buffer cache capacity in bytes.
    pub cache_bytes: u64,
    /// Dirty bytes allowed before writers block on writeback.
    pub dirty_limit_bytes: u64,
    /// Maximum concurrent RPCs for read gathering / write flushing.
    pub max_inflight: usize,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            rsize: 32 * 1024,
            cache_bytes: 256 * 1024 * 1024,
            dirty_limit_bytes: 16 * 1024 * 1024,
            max_inflight: 8,
        }
    }
}

/// CPU cost of serving one block from the buffer cache.
const HIT_COST: SimDuration = SimDuration::from_micros(25);

/// Attribute/dentry cache lifetime.
const ATTR_TIMEOUT: SimDuration = SimDuration::from_secs(30);

/// RPC/cache counters for reports and tests.
///
/// A point-in-time view over the telemetry registry: the client updates
/// the shared `nfs3/<instance>.*` counters, and [`KernelClient::stats`]
/// reads them back into this struct.
#[derive(Debug, Default, Clone, Copy)]
pub struct KernelStats {
    /// READ RPCs issued.
    pub read_rpcs: u64,
    /// WRITE RPCs issued.
    pub write_rpcs: u64,
    /// Metadata RPCs (lookup/getattr/readdir/...).
    pub meta_rpcs: u64,
    /// Buffer cache block hits.
    pub cache_hits: u64,
    /// Buffer cache block misses.
    pub cache_misses: u64,
    /// Payload bytes fetched by READ RPCs.
    pub bytes_read: u64,
    /// Payload bytes pushed by WRITE RPCs.
    pub bytes_written: u64,
}

/// A block the cache pushed out, with its dirtying handle if it was dirty.
type Evicted = vfs::Evicted<SharedBytes, Handle>;

struct KcState {
    /// Clean blocks read from the server are pooled by content; a write
    /// over a whole block keeps the block it is given, any other dirty
    /// block is private, and partial writes go through `Rc::make_mut`.
    /// A dirty block's tag is the handle it was dirtied through: what its
    /// write-back goes through, whichever file's traffic evicts it.
    cache: PageCache<SharedBytes, Handle>,
    dcache: BTreeMap<String, (Handle, u64)>, // path -> (handle, expires_ns)
    acache: BTreeMap<Handle, (Attr, u64)>,
    local_size: HashMap<u64, u64>, // fileid -> size as seen through our writes
    /// Blocks a read has asked the server for and not yet cached.
    fetching: HashMap<(u64, u64), Fetching>,
}

/// The READs in flight for one block.
#[derive(Default)]
struct Fetching {
    readers: usize,
    /// Written through this mount since the first of them missed.
    written: bool,
}

impl KcState {
    /// A READ of `key` has returned, or failed: whether this mount wrote
    /// the block while it was in flight (or may have: a READ no miss
    /// registered is never cached).
    fn fetched(&mut self, key: (u64, u64)) -> bool {
        let Some(f) = self.fetching.get_mut(&key) else {
            return true;
        };
        f.readers -= 1;
        let written = f.written;
        if f.readers == 0 {
            self.fetching.remove(&key);
        }
        written
    }
}

/// Telemetry counters backing [`KernelStats`]; registered once at mount.
struct KcTel {
    read_rpcs: Counter,
    write_rpcs: Counter,
    meta_rpcs: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    bytes_read: Counter,
    bytes_written: Counter,
}

impl KcTel {
    fn register(env: &Env) -> Self {
        let tel = env.telemetry();
        let inst = tel.instance_name("kernel-client");
        let c = |name: &str| tel.counter("nfs3", format!("{inst}.{name}"));
        KcTel {
            read_rpcs: c("read_rpcs"),
            write_rpcs: c("write_rpcs"),
            meta_rpcs: c("meta_rpcs"),
            cache_hits: c("buffer_cache.hits"),
            cache_misses: c("buffer_cache.misses"),
            bytes_read: c("bytes_read"),
            bytes_written: c("bytes_written"),
        }
    }
}

/// The kernel NFS client for one mount.
pub struct KernelClient {
    nfs: Nfs3Client,
    root: Handle,
    cfg: KernelConfig,
    state: Shared<KcState>,
    tel: KcTel,
}

impl KernelClient {
    /// Mount `export` through `nfs` and return the client.
    pub fn mount(
        env: &Env,
        nfs: Nfs3Client,
        export: &str,
        cfg: KernelConfig,
    ) -> IoResult<Rc<Self>> {
        let root = nfs.mount(env, export).map_err(map_err)?;
        Ok(Rc::new(KernelClient {
            nfs,
            root,
            cfg,
            state: Shared::new(KcState {
                cache: PageCache::new(((cfg.cache_bytes / cfg.rsize as u64) as usize).max(1)),
                dcache: BTreeMap::new(),
                acache: BTreeMap::new(),
                local_size: HashMap::new(),
                fetching: HashMap::new(),
            }),
            tel: KcTel::register(env),
        }))
    }

    /// The mount's root handle.
    pub fn root(&self) -> Handle {
        self.root
    }

    /// Counter snapshot (a view over the telemetry registry).
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            read_rpcs: self.tel.read_rpcs.get(),
            write_rpcs: self.tel.write_rpcs.get(),
            meta_rpcs: self.tel.meta_rpcs.get(),
            cache_hits: self.tel.cache_hits.get(),
            cache_misses: self.tel.cache_misses.get(),
            bytes_read: self.tel.bytes_read.get(),
            bytes_written: self.tel.bytes_written.get(),
        }
    }

    /// Drop all cached data and metadata, as a umount/mount cycle does.
    /// Benchmarks call this to start a phase with cold kernel caches
    /// (the paper: "initially setup with cold caches by un-mounting and
    /// mounting the virtual file system").
    pub fn invalidate_caches(&self) {
        let mut st = self.state.lock();
        assert!(
            st.cache.dirty_len() == 0,
            "invalidate with dirty data pending"
        );
        st.cache.clear();
        st.dcache.clear();
        st.acache.clear();
        st.local_size.clear();
    }

    fn bs(&self) -> u64 {
        self.cfg.rsize as u64
    }

    fn cached_attr(&self, env: &Env, h: Handle) -> IoResult<Attr> {
        let now = env.now().as_nanos();
        {
            let st = self.state.lock();
            if let Some((attr, exp)) = st.acache.get(&h) {
                if *exp > now {
                    let mut a = attr.clone();
                    // Our dirty writes may have grown the file past the
                    // server-reported size.
                    if let Some(sz) = st.local_size.get(&h.fileid) {
                        a.size = a.size.max(*sz);
                    }
                    return Ok(a);
                }
            }
        }
        let attr = self.nfs.getattr(env, h).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        let mut st = self.state.lock();
        let exp = now + ATTR_TIMEOUT.as_nanos();
        st.acache.insert(h, (attr.clone(), exp));
        let mut a = attr;
        if let Some(sz) = st.local_size.get(&h.fileid) {
            a.size = a.size.max(*sz);
        }
        Ok(a)
    }

    /// Fetch the given blocks, at most `max_inflight` READs in flight;
    /// returns (block, data) pairs in the order asked for. Data is padded
    /// or cut to the block size and shared where it arrives, in the
    /// worker that decoded the reply: a full block is the very block the
    /// reply was encoded from when it carries one, kept as it arrives,
    /// and is otherwise hashed and compared inside the reply and copied
    /// only if the pool lacks it ([`crate::proto::ReadRes::shared_block`]).
    fn fetch_blocks(
        &self,
        env: &Env,
        h: Handle,
        blocks: Vec<u64>,
    ) -> IoResult<Vec<(u64, SharedBytes)>> {
        let bs = self.bs();
        let n = blocks.len() as u64;
        let nfs = self.nfs.clone();
        let window = self.cfg.max_inflight;
        let slots = run_windowed(env, "nfs-read", window, blocks, None, move |env, b| {
            Some(nfs.read(env, h, b * bs, bs as u32).map(|res| {
                let data = if res.data.len() >= bs as usize {
                    res.shared_block(bs as usize)
                } else {
                    let mut padded = res.data.to_vec();
                    // lint:allow(bounded-decode): pads to the mount's own block size, not to a decoded length
                    padded.resize(bs as usize, 0);
                    share(padded)
                };
                (b, data)
            }))
        });
        let out = all_sent(slots)?;
        self.tel.read_rpcs.add(n);
        self.tel.bytes_read.add(n * bs);
        Ok(out)
    }

    /// Push dirty blocks, at most `max_inflight` WRITEs in flight, and
    /// COMMIT.
    fn write_blocks(&self, env: &Env, h: Handle, blocks: Vec<(u64, SharedBytes)>) -> IoResult<()> {
        if blocks.is_empty() {
            return Ok(());
        }
        let bs = self.bs();
        let n = blocks.len() as u64;
        // Do not write past the file's logical size: the tail block may
        // extend beyond EOF.
        let size = {
            let st = self.state.lock();
            st.local_size.get(&h.fileid).copied()
        };
        let nfs = self.nfs.clone();
        let window = self.cfg.max_inflight;
        let slots = run_windowed(env, "nfs-write", window, blocks, None, move |env, blk| {
            let (off, len) = clip_to_size(blk.0, blk.1.len(), bs, size);
            if len == 0 {
                return Some(Ok(()));
            }
            let sent = nfs.write(env, h, off, &blk.1[..len], StableHow::Unstable);
            Some(sent.map(|_| ()))
        });
        all_sent(slots)?;
        self.nfs.commit(env, h).map_err(map_err)?;
        self.tel.write_rpcs.add(n);
        self.tel.bytes_written.add(n * bs);
        self.tel.meta_rpcs.inc(); // the COMMIT
        Ok(())
    }

    /// Write back `h`'s file: its dirty blocks, taken out of the cache,
    /// plus `evicted` ones, in block order. Taken blocks stay cached clean,
    /// and the payloads written are references to them: a write into one
    /// while its write-back is in flight copies it first.
    fn flush_file(&self, env: &Env, h: Handle, evicted: Vec<(u64, SharedBytes)>) -> IoResult<()> {
        let taken = self.state.lock().cache.take_dirty(Some(h.fileid));
        let mut blocks: Vec<_> = taken
            .into_iter()
            .map(|((_, b), data, _)| (b, data))
            .collect();
        blocks.extend(evicted);
        blocks.sort_unstable_by_key(|(b, _)| *b);
        blocks.dedup_by_key(|(b, _)| *b);
        self.write_blocks(env, h, blocks)
    }

    /// Handle eviction results: a dirty block falling out of the LRU
    /// triggers a batched write-back of its file's dirty set (the kernel
    /// coalesces write-back rather than dribbling single pages) — through
    /// the handle the block was dirtied through, so a block pushed out by
    /// a read or write of another file is written back like any other.
    fn writeback_evicted(&self, env: &Env, evicted: Vec<Evicted>) -> IoResult<()> {
        // BTreeMap: one batch per file, in fileid order (lint: determinism).
        let mut stragglers: BTreeMap<Handle, Vec<(u64, SharedBytes)>> = BTreeMap::new();
        for ((_, b), data, dirty) in evicted {
            if let Some(h) = dirty {
                stragglers.entry(h).or_default().push((b, data));
            }
        }
        for (h, stragglers) in stragglers {
            self.flush_file(env, h, stragglers)?;
        }
        Ok(())
    }
}

/// Where block `b` starts, and how many of its `len` bytes lie inside a
/// file of `size` bytes.
fn clip_to_size(b: u64, len: usize, bs: u64, size: Option<u64>) -> (u64, usize) {
    let off = b * bs;
    match size {
        Some(sz) => (off, len.min(sz.saturating_sub(off).min(bs) as usize)),
        None => (off, len),
    }
}

/// Write `payload[src]` over `block[within]` of a `bs`-byte block. A
/// write over the whole block replaces it — by reference when the range
/// is one whole shared block, otherwise gathered once — so old bytes are
/// never copied or zeroed only to be overwritten. A partial write copies
/// the block first when anyone else holds it, and zero-fills an empty
/// one.
fn overwrite(
    block: &mut SharedBytes,
    payload: PayloadRef<'_>,
    src: Range<usize>,
    within: Range<usize>,
    bs: usize,
) {
    if within.len() == bs {
        *block = payload.whole_allocation(src.clone()).unwrap_or_else(|| {
            // lint:allow(bounded-decode): one block of the mount's own block size
            let mut gathered = Vec::with_capacity(bs);
            payload.extend_vec(src, &mut gathered);
            Rc::new(gathered)
        });
    } else {
        let block = Rc::make_mut(block);
        // lint:allow(bounded-decode): one block of the mount's own block size
        block.resize(bs, 0);
        payload.copy_to(src, &mut block[within]);
    }
}

/// The results of one windowed batch of RPCs, or the first failure in it
/// (an empty slot is a worker that died with its job).
fn all_sent<T>(slots: Vec<Option<Result<T, NfsError>>>) -> IoResult<Vec<T>> {
    slots
        .into_iter()
        .map(|slot| match slot {
            Some(sent) => sent.map_err(map_err),
            None => Err(IoError::Io("RPC worker died".into())),
        })
        .collect()
}

fn map_err(e: NfsError) -> IoError {
    match e {
        NfsError::Status(Status::NoEnt) => IoError::NotFound,
        NfsError::Status(Status::Exist) => IoError::Exists,
        NfsError::Status(Status::NotDir) => IoError::NotDir,
        NfsError::Status(Status::IsDir) => IoError::IsDir,
        NfsError::Status(Status::NotEmpty) => IoError::NotEmpty,
        NfsError::Status(Status::Stale) => IoError::Stale,
        NfsError::Status(Status::Inval) => IoError::InvalidName,
        other => IoError::Io(other.to_string()),
    }
}

impl FileIo for KernelClient {
    fn lookup_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        let now = env.now().as_nanos();
        let key = path.trim_matches('/').to_string();
        {
            let st = self.state.lock();
            if let Some((h, exp)) = st.dcache.get(&key) {
                if *exp > now {
                    return Ok(*h);
                }
            }
        }
        // Walk components, one LOOKUP RPC each (dentry-cache miss path).
        let mut h = self.root;
        let mut rpcs = 0u64;
        for comp in key.split('/').filter(|c| !c.is_empty()) {
            let (next, _) = self.nfs.lookup(env, h, comp).map_err(map_err)?;
            rpcs += 1;
            h = next;
        }
        self.tel.meta_rpcs.add(rpcs);
        let mut st = self.state.lock();
        let exp = now + ATTR_TIMEOUT.as_nanos();
        st.dcache.insert(key, (h, exp));
        Ok(h)
    }

    fn getattr(&self, env: &Env, h: Handle) -> IoResult<Attr> {
        self.cached_attr(env, h)
    }

    fn read(&self, env: &Env, h: Handle, offset: u64, len: u32) -> IoResult<Payload> {
        let attr = self.cached_attr(env, h)?;
        if attr.ftype != FileType::Regular {
            return Err(IoError::BadType);
        }
        if offset >= attr.size {
            return Ok(Payload::new());
        }
        let len = (len as u64).min(attr.size - offset) as usize;
        if len == 0 {
            return Ok(Payload::new());
        }
        let bs = self.bs();
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;

        // The part of block `b` the request covers.
        let end = offset + len as u64;
        let span = |b: u64| {
            let block_start = b * bs;
            (offset.max(block_start) - block_start) as usize
                ..(end.min(block_start + bs) - block_start) as usize
        };

        // Scan the cache in block order: hits are taken by reference,
        // misses are fetched and join them.
        // lint:allow(bounded-decode): the block span of the caller's own read, not of decoded bytes
        let mut blocks: Vec<(u64, SharedBytes)> = Vec::with_capacity((last - first + 1) as usize);
        let mut misses = Vec::new();
        {
            let mut st = self.state.lock();
            for b in first..=last {
                if let Some(data) = st.cache.get(&(h.fileid, b)) {
                    blocks.push((b, Rc::clone(data)));
                    self.tel.cache_hits.inc();
                } else {
                    misses.push(b);
                    st.fetching.entry((h.fileid, b)).or_default().readers += 1;
                    self.tel.cache_misses.inc();
                }
            }
        }
        for _ in first..=last {
            env.sleep(HIT_COST);
        }
        if !misses.is_empty() {
            let fetched = self.fetch_blocks(env, h, misses.clone());
            let mut evicted_all = Vec::new();
            {
                let mut st = self.state.lock();
                let written: Vec<bool> =
                    misses.iter().map(|&b| st.fetched((h.fileid, b))).collect();
                for ((b, data), written) in fetched?.into_iter().zip(written) {
                    let key = (h.fileid, b);
                    let data = if written {
                        // This mount wrote the block while the READ was
                        // in flight, so the reply may be older than the
                        // write: read the written block if it is still
                        // cached, and otherwise return the reply uncached.
                        st.cache.get(&key).map_or(data, Rc::clone)
                    } else {
                        let (held, evicted) = st.cache.fill(key, data);
                        evicted_all.extend(evicted);
                        Rc::clone(held)
                    };
                    blocks.push((b, data));
                }
            }
            self.writeback_evicted(env, evicted_all)?;
            blocks.sort_unstable_by_key(|(b, _)| *b);
        }
        let mut out = Payload::new();
        for (b, data) in blocks {
            out.push_shared(data, span(b));
        }
        Ok(out)
    }

    fn write(&self, env: &Env, h: Handle, offset: u64, data: &Payload) -> IoResult<()> {
        if data.is_empty() {
            return Ok(());
        }
        let bs = self.bs();
        let first = offset / bs;
        let last = (offset + data.len() as u64 - 1) / bs;
        let size_now = self.cached_attr(env, h)?.size;

        // Read-modify-write: partially-overwritten blocks that exist on
        // the server and are not cached must be fetched first.
        let mut rmw = Vec::new();
        {
            let st = self.state.lock();
            for b in [first, last] {
                let bstart = b * bs;
                let bend = bstart + bs;
                let fully_covered = offset <= bstart && (offset + data.len() as u64) >= bend;
                let exists = bstart < size_now;
                if !fully_covered
                    && exists
                    && !st.cache.contains(&(h.fileid, b))
                    && !rmw.contains(&b)
                {
                    rmw.push(b);
                }
            }
        }
        let mut evicted_all = Vec::new();
        if !rmw.is_empty() {
            let fetched = self.fetch_blocks(env, h, rmw)?;
            let mut st = self.state.lock();
            for (b, data) in fetched {
                evicted_all.extend(st.cache.fill((h.fileid, b), data).1);
            }
        }

        // Apply the write into cache blocks, marking dirty.
        {
            let payload = PayloadRef::from(data);
            let mut st = self.state.lock();
            for b in first..=last {
                let bstart = b * bs;
                let from = offset.max(bstart);
                let to = (offset + data.len() as u64).min(bstart + bs);
                let src = (from - offset) as usize..(to - offset) as usize;
                let key = (h.fileid, b);
                let within = (from - bstart) as usize..(to - bstart) as usize;
                if let Some(f) = st.fetching.get_mut(&key) {
                    f.written = true;
                }
                if let Some(block) = st.cache.get_mut(&key, h) {
                    overwrite(block, payload, src, within, bs as usize);
                } else {
                    // Not cached. A block this call's own inserts evicted
                    // a moment ago — an edge block cached or just fetched
                    // for its bytes outside the write — is taken back
                    // from the eviction list with those bytes; anything
                    // else starts empty.
                    let mut block = match evicted_all.iter().rposition(|(k, ..)| *k == key) {
                        Some(i) => evicted_all.remove(i).1,
                        None => SharedBytes::default(),
                    };
                    overwrite(&mut block, payload, src, within, bs as usize);
                    evicted_all.extend(st.cache.insert(key, block, h));
                }
            }
            let end = offset + data.len() as u64;
            let e = st.local_size.entry(h.fileid).or_insert(size_now);
            *e = (*e).max(end);
            // Keep the attribute cache's size fresh for subsequent reads.
            if let Some((attr, _)) = st.acache.get_mut(&h) {
                attr.size = attr.size.max(end);
            }
        }
        for _ in first..=last {
            env.sleep(HIT_COST);
        }
        self.writeback_evicted(env, evicted_all)?;

        // Back-pressure: too much dirty data forces a synchronous flush,
        // like the kernel's dirty-ratio writeback.
        let over_limit =
            { self.state.lock().cache.dirty_len() as u64 * self.bs() > self.cfg.dirty_limit_bytes };
        if over_limit {
            self.flush_file(env, h, Vec::new())?;
        }
        Ok(())
    }

    fn create_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        let (parent, name) = vfs::io::split_path(path)?;
        let dir = self.lookup_path(env, parent)?;
        let h = self.nfs.create(env, dir, name).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        let now = env.now().as_nanos();
        let mut st = self.state.lock();
        st.dcache.insert(
            path.trim_matches('/').to_string(),
            (h, now + ATTR_TIMEOUT.as_nanos()),
        );
        st.local_size.insert(h.fileid, 0);
        Ok(h)
    }

    fn mkdir_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        let (parent, name) = vfs::io::split_path(path)?;
        let dir = self.lookup_path(env, parent)?;
        let h = self.nfs.mkdir(env, dir, name).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        Ok(h)
    }

    fn symlink_path(&self, env: &Env, path: &str, target: &str) -> IoResult<()> {
        let (parent, name) = vfs::io::split_path(path)?;
        let dir = self.lookup_path(env, parent)?;
        self.nfs.symlink(env, dir, name, target).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        Ok(())
    }

    fn readlink(&self, env: &Env, h: Handle) -> IoResult<String> {
        let t = self.nfs.readlink(env, h).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        Ok(t)
    }

    fn readdir_path(&self, env: &Env, path: &str) -> IoResult<Vec<String>> {
        let dir = self.lookup_path(env, path)?;
        let entries = self.nfs.readdir(env, dir).map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        Ok(entries.into_iter().map(|e| e.name).collect())
    }

    fn remove_path(&self, env: &Env, path: &str) -> IoResult<()> {
        let (parent, name) = vfs::io::split_path(path)?;
        let dir = self.lookup_path(env, parent)?;
        let res = match self.nfs.remove(env, dir, name) {
            Ok(()) => Ok(()),
            Err(NfsError::Status(Status::IsDir)) => self.nfs.rmdir(env, dir, name),
            Err(e) => Err(e),
        };
        res.map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        let mut st = self.state.lock();
        st.dcache.remove(path.trim_matches('/'));
        Ok(())
    }

    fn set_size(&self, env: &Env, h: Handle, size: u64) -> IoResult<()> {
        self.nfs
            .setattr(env, h, Some(size), None)
            .map_err(map_err)?;
        self.tel.meta_rpcs.inc();
        let mut st = self.state.lock();
        st.local_size.insert(h.fileid, size);
        if let Some((attr, _)) = st.acache.get_mut(&h) {
            attr.size = size;
        }
        Ok(())
    }

    fn close(&self, env: &Env, h: Handle) -> IoResult<()> {
        // Close-to-open consistency: flush dirty data and drop the
        // attribute cache entry so the next open revalidates.
        self.flush_file(env, h, Vec::new())?;
        self.state.lock().acache.remove(&h);
        Ok(())
    }

    fn sync(&self, env: &Env) -> IoResult<()> {
        // Flush every file with dirty blocks, the file of the most
        // recently used one first, each through the handle its blocks
        // were dirtied through.
        loop {
            let next = self.state.lock().cache.most_recent_dirty().copied();
            match next {
                Some(h) => self.flush_file(env, h, Vec::new())?,
                None => return Ok(()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::{ReadArgs, WriteArgs};
    use crate::proto::{proc3, Fh3, MOUNT_PROGRAM};
    use crate::results::{encode_commit, encode_getattr, encode_read, encode_write};
    use oncrpc::{endpoint, OpaqueAuth, RpcClient, RpcMessage, WireSpec};
    use simnet::{Link, Simulation};
    use std::cell::RefCell;
    use xdr::{Encode, Encoder};

    /// A server whose READ replies carry twice what was asked for.
    fn generous_server(_env: &Env, request: &[u8]) -> Vec<u8> {
        let Ok(RpcMessage::Call { header, args }) = xdr::from_bytes(request) else {
            panic!("a call");
        };
        let file = Handle {
            fileid: 2,
            generation: 1,
        };
        let results = match (header.prog, header.proc) {
            (MOUNT_PROGRAM, _) => {
                let mut enc = Encoder::new();
                enc.put_u32(0);
                Fh3(file).encode(&mut enc);
                enc.into_shared()
            }
            (_, proc3::GETATTR) => encode_getattr(Attr {
                ftype: FileType::Regular,
                mode: 0o644,
                nlink: 1,
                uid: 0,
                gid: 0,
                size: 1 << 20,
                used: 1 << 20,
                fileid: file.fileid,
                atime_ns: 0,
                mtime_ns: 0,
                ctime_ns: 0,
            }),
            (_, proc3::READ) => {
                let a: ReadArgs = xdr::from_bytes(&args).expect("READ args");
                let data: Vec<u8> = (a.offset..a.offset + 2 * a.count as u64)
                    .map(|at| (at % 251) as u8)
                    .collect();
                encode_read(None, &data, false)
            }
            other => panic!("unexpected call {other:?}"),
        };
        RpcMessage::success(header.xid, results)
            .into_wire()
            .to_vec()
    }

    #[test]
    fn a_reply_longer_than_a_block_is_cut_down_to_the_block() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = |name: &str| Link::new(&h, name, 1e9, SimDuration::from_micros(50));
        let ep = endpoint(&h, link("up"), link("down"), WireSpec::plain());
        ep.listener.serve("generous", Rc::new(generous_server), 2);
        let nfs = Nfs3Client::new(RpcClient::new(ep.channel, OpaqueAuth::none()));
        sim.spawn("client", move |env| {
            let cfg = KernelConfig {
                rsize: 1024,
                ..KernelConfig::default()
            };
            let kc = KernelClient::mount(&env, nfs, "/", cfg).expect("mount");
            let got = kc.read(&env, kc.root(), 512, 3000).expect("read");
            let want: Vec<u8> = (512u64..3512).map(|at| (at % 251) as u8).collect();
            assert_eq!(got, want);
            let st = kc.state.lock();
            assert_eq!(st.cache.len(), 4);
            for (_, data) in st.cache.iter_mru() {
                assert_eq!(data.len(), 1024);
            }
        });
        sim.run();
    }

    #[test]
    fn a_write_into_a_block_a_live_read_holds_leaves_the_read_unchanged() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = |name: &str| Link::new(&h, name, 1e9, SimDuration::from_micros(50));
        let ep = endpoint(&h, link("up"), link("down"), WireSpec::plain());
        ep.listener.serve("generous", Rc::new(generous_server), 2);
        let nfs = Nfs3Client::new(RpcClient::new(ep.channel, OpaqueAuth::none()));
        sim.spawn("client", move |env| {
            let cfg = KernelConfig {
                rsize: 1024,
                ..KernelConfig::default()
            };
            let kc = KernelClient::mount(&env, nfs, "/", cfg).expect("mount");
            let f = kc.root();
            let want: Vec<u8> = (0u64..2048).map(|at| (at % 251) as u8).collect();
            let before = kc.read(&env, f, 0, 2048).expect("read");
            assert_eq!(before, want);
            // Both blocks are now the kernel buffer's and the payload's.
            kc.write(&env, f, 1000, &Payload::from(vec![0xEE; 100]))
                .expect("write");
            assert_eq!(before, want, "the live read kept its bytes");
            let after = kc.read(&env, f, 0, 2048).expect("read");
            assert_eq!(after.to_vec()[1000..1100], [0xEE; 100]);
            assert_eq!(after.to_vec()[..1000], want[..1000]);
        });
        sim.run();
    }

    /// The WRITEs a server took, each as `(offset, data)`.
    type Writes = Vec<(u64, Vec<u8>)>;

    /// `generous_server` that also takes WRITEs and COMMITs, and logs
    /// every WRITE.
    fn generous_logging_server(log: Rc<RefCell<Writes>>) -> impl Fn(&Env, &[u8]) -> Vec<u8> {
        move |env, request| {
            let Ok(RpcMessage::Call { header, args }) = xdr::from_bytes(request) else {
                panic!("a call");
            };
            let results = match (header.prog, header.proc) {
                (MOUNT_PROGRAM, _) => return generous_server(env, request),
                (_, proc3::WRITE) => {
                    let a: WriteArgs = xdr::from_bytes(&args).expect("WRITE args");
                    log.borrow_mut().push((a.offset, a.data.to_vec()));
                    encode_write(None, a.count, StableHow::Unstable, 0)
                }
                (_, proc3::COMMIT) => encode_commit(None, 0),
                _ => return generous_server(env, request),
            };
            RpcMessage::success(header.xid, results)
                .into_wire()
                .to_vec()
        }
    }

    /// Runs `first` on a 1 KiB-block mount of `generous_server` while a
    /// second process writes 0xEE over all of block 0, 60 µs in: inside
    /// the READ of block 0 that `first` issues. Returns what `first`
    /// returned, block 0 as the next read sees it, and the WRITEs a close
    /// then sends.
    fn race_a_whole_block_write(
        first: impl FnOnce(&Env, &KernelClient) -> Vec<u8> + 'static,
    ) -> (Vec<u8>, Vec<u8>, Writes) {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = |name: &str| Link::new(&h, name, 1e9, SimDuration::from_micros(50));
        let ep = endpoint(&h, link("up"), link("down"), WireSpec::plain());
        let log = Rc::new(RefCell::new(Vec::new()));
        let server = generous_logging_server(Rc::clone(&log));
        ep.listener.serve("generous", Rc::new(server), 2);
        let nfs = Nfs3Client::new(RpcClient::new(ep.channel, OpaqueAuth::none()));
        let seen = Rc::new(RefCell::new(None));
        let report = Rc::clone(&seen);
        sim.spawn("client", move |env| {
            let cfg = KernelConfig {
                rsize: 1024,
                ..KernelConfig::default()
            };
            let kc = KernelClient::mount(&env, nfs, "/", cfg).expect("mount");
            let f = kc.root();
            // Attributes cached, so neither process sends a GETATTR.
            kc.getattr(&env, f).expect("getattr");
            let racing = Rc::new(RefCell::new(Vec::new()));
            let (kc1, out) = (Rc::clone(&kc), Rc::clone(&racing));
            let one = env.spawn("first", move |env| *out.borrow_mut() = first(&env, &kc1));
            let kc2 = Rc::clone(&kc);
            let two = env.spawn("writer", move |env| {
                env.sleep(SimDuration::from_micros(60));
                kc2.write(&env, f, 0, &Payload::from(vec![0xEE; 1024]))
                    .expect("write");
            });
            one.join(&env);
            two.join(&env);
            let next = kc.read(&env, f, 0, 1024).expect("read").to_vec();
            kc.close(&env, f).expect("close");
            *report.borrow_mut() = Some((racing.take(), next));
        });
        sim.run();
        let (racing, next) = seen.take().expect("client finished");
        (racing, next, log.take())
    }

    #[test]
    fn a_read_racing_a_write_of_its_block_keeps_the_write() {
        let (racing, next, writes) = race_a_whole_block_write(|env, kc| {
            kc.read(env, kc.root(), 0, 1024).expect("read").to_vec()
        });
        assert_eq!(racing, [0xEE; 1024], "the read returns the cached block");
        assert_eq!(next, [0xEE; 1024], "the write is read back");
        assert_eq!(writes, [(0, vec![0xEE; 1024])], "and written back");
    }

    #[test]
    fn a_read_modify_write_racing_a_write_of_its_block_keeps_both() {
        let (_, next, writes) = race_a_whole_block_write(|env, kc| {
            kc.write(env, kc.root(), 10, &Payload::from(vec![1u8; 4]))
                .expect("write");
            Vec::new()
        });
        let mut want = vec![0xEE; 1024];
        want[10..14].fill(1);
        assert_eq!(next, want);
        assert_eq!(writes, [(0, want)]);
    }

    #[test]
    fn a_read_racing_a_write_that_is_written_back_does_not_cache_its_reply() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = |name: &str| Link::new(&h, name, 1e9, SimDuration::from_micros(50));
        let ep = endpoint(&h, link("up"), link("down"), WireSpec::plain());
        // The server keeps what is written to the file: READs of block 0
        // return `old` until a WRITE of it lands.
        let old: Vec<u8> = (0u64..1024).map(|at| (at % 251) as u8).collect();
        let file = Rc::new(RefCell::new([old.clone(), old.clone()].concat()));
        let held = Rc::clone(&file);
        let server = move |env: &Env, request: &[u8]| {
            let Ok(RpcMessage::Call { header, args }) = xdr::from_bytes(request) else {
                panic!("a call");
            };
            let results = match (header.prog, header.proc) {
                (MOUNT_PROGRAM, _) => return generous_server(env, request),
                (_, proc3::READ) => {
                    let a: ReadArgs = xdr::from_bytes(&args).expect("READ args");
                    let at = a.offset as usize;
                    encode_read(None, &held.borrow()[at..at + a.count as usize], false)
                }
                (_, proc3::WRITE) => {
                    let a: WriteArgs = xdr::from_bytes(&args).expect("WRITE args");
                    let at = a.offset as usize;
                    held.borrow_mut()[at..at + a.data.len()].copy_from_slice(a.data);
                    encode_write(None, a.count, StableHow::Unstable, 0)
                }
                (_, proc3::COMMIT) => encode_commit(None, 0),
                _ => return generous_server(env, request),
            };
            RpcMessage::success(header.xid, results)
                .into_wire()
                .to_vec()
        };
        ep.listener.serve("storing", Rc::new(server), 2);
        let nfs = Nfs3Client::new(RpcClient::new(ep.channel, OpaqueAuth::none()));
        let seen = Rc::new(RefCell::new(None));
        let report = Rc::clone(&seen);
        sim.spawn("client", move |env| {
            // A buffer of one block: the writer's second block evicts its
            // first, and the write-back sends it while the READ of it is
            // in flight.
            let cfg = KernelConfig {
                rsize: 1024,
                cache_bytes: 1024,
                ..KernelConfig::default()
            };
            let kc = KernelClient::mount(&env, nfs, "/", cfg).expect("mount");
            let f = kc.root();
            kc.getattr(&env, f).expect("getattr");
            let racing = Rc::new(RefCell::new(Vec::new()));
            let (kc1, out) = (Rc::clone(&kc), Rc::clone(&racing));
            let one = env.spawn("reader", move |env| {
                *out.borrow_mut() = kc1.read(&env, f, 0, 1024).expect("read").to_vec();
            });
            let kc2 = Rc::clone(&kc);
            let two = env.spawn("writer", move |env| {
                env.sleep(SimDuration::from_micros(60));
                for (b, byte) in [(0, 0xEE), (1, 0xDD)] {
                    kc2.write(&env, f, b * 1024, &Payload::from(vec![byte; 1024]))
                        .expect("write");
                }
            });
            one.join(&env);
            two.join(&env);
            let next = kc.read(&env, f, 0, 1024).expect("read").to_vec();
            *report.borrow_mut() = Some((racing.take(), next));
        });
        sim.run();
        let (racing, next) = seen.take().expect("client finished");
        assert_eq!(racing, old, "the READ was served before the write-back");
        assert_eq!(next, [0xEE; 1024], "and its reply was not cached");
        assert_eq!(file.borrow()[..1024], [0xEE; 1024]);
    }

    /// A server that takes WRITEs and COMMITs to any file, each file
    /// empty until written, and logs every WRITE as `(fileid, offset)`.
    fn logging_server(log: Rc<RefCell<Vec<(u64, u64)>>>) -> impl Fn(&Env, &[u8]) -> Vec<u8> {
        move |_env, request| {
            let Ok(RpcMessage::Call { header, args }) = xdr::from_bytes(request) else {
                panic!("a call");
            };
            let results = match (header.prog, header.proc) {
                (MOUNT_PROGRAM, _) => {
                    let mut enc = Encoder::new();
                    enc.put_u32(0);
                    Fh3(Handle {
                        fileid: 1,
                        generation: 1,
                    })
                    .encode(&mut enc);
                    enc.into_shared()
                }
                (_, proc3::GETATTR) => {
                    let Fh3(h) = xdr::from_bytes(&args).expect("GETATTR args");
                    encode_getattr(Attr {
                        ftype: FileType::Regular,
                        mode: 0o644,
                        nlink: 1,
                        uid: 0,
                        gid: 0,
                        size: 0,
                        used: 0,
                        fileid: h.fileid,
                        atime_ns: 0,
                        mtime_ns: 0,
                        ctime_ns: 0,
                    })
                }
                (_, proc3::WRITE) => {
                    let a: WriteArgs = xdr::from_bytes(&args).expect("WRITE args");
                    log.borrow_mut().push((a.file.0.fileid, a.offset));
                    encode_write(None, a.count, StableHow::Unstable, 0)
                }
                (_, proc3::COMMIT) => encode_commit(None, 0),
                other => panic!("unexpected call {other:?}"),
            };
            RpcMessage::success(header.xid, results)
                .into_wire()
                .to_vec()
        }
    }

    #[test]
    fn a_close_writes_back_its_file_and_leaves_it_most_recent_first() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = |name: &str| Link::new(&h, name, 1e9, SimDuration::from_micros(50));
        let ep = endpoint(&h, link("up"), link("down"), WireSpec::plain());
        let log = Rc::new(RefCell::new(Vec::new()));
        ep.listener
            .serve("logging", Rc::new(logging_server(Rc::clone(&log))), 1);
        let nfs = Nfs3Client::new(RpcClient::new(ep.channel, OpaqueAuth::none()));
        sim.spawn("client", move |env| {
            let cfg = KernelConfig {
                rsize: 1024,
                cache_bytes: 16 * 1024,
                dirty_limit_bytes: 6 * 1024,
                ..KernelConfig::default()
            };
            let kc = KernelClient::mount(&env, nfs, "/", cfg).expect("mount");
            let file = |fileid| Handle {
                fileid,
                generation: 1,
            };
            let (a, b) = (file(3), file(4));
            let block = Payload::from(vec![7u8; 1024]);
            let lru = || -> Vec<(u64, u64)> {
                kc.state.lock().cache.iter_mru().map(|(k, _)| *k).collect()
            };
            // A's dirty blocks at depths 0, 1 and 3, B's between them.
            for (f, blk) in [(a, 0), (b, 0), (a, 1), (b, 1), (a, 2), (a, 0)] {
                kc.write(&env, f, blk * 1024, &block).expect("write");
            }
            assert_eq!(lru(), [(3, 0), (3, 2), (4, 1), (3, 1), (4, 0)]);
            assert!(log.borrow().is_empty(), "under the dirty limit");
            kc.close(&env, a).expect("close");
            assert_eq!(*log.borrow(), [(3, 0), (3, 1024), (3, 2048)]);
            // Each flushed block was made most recent in turn, the most
            // recent first; B's blocks stayed where they were.
            assert_eq!(lru(), [(3, 1), (3, 2), (3, 0), (4, 1), (4, 0)]);
            // B holds two dirty blocks; the seventh dirty block passes
            // the 6 KiB limit and writes back B's seven.
            for blk in 2..7 {
                kc.write(&env, b, blk * 1024, &block).expect("write");
                assert_eq!(
                    log.borrow().len(),
                    if blk < 6 { 3 } else { 10 },
                    "block {blk}"
                );
            }
            let b_writes: Vec<u64> = log.borrow()[3..]
                .iter()
                .map(|(_, off)| off / 1024)
                .collect();
            assert_eq!(b_writes, (0..7).collect::<Vec<_>>());
            let b_first: Vec<(u64, u64)> = (0..7).map(|blk| (4, blk)).collect();
            assert_eq!(lru()[..7], b_first);
            kc.sync(&env).expect("sync");
            assert_eq!(log.borrow().len(), 10, "nothing left dirty");
        });
        sim.run();
    }

    #[test]
    fn the_default_block_is_the_sparse_stores_chunk() {
        let cfg = KernelConfig::default();
        assert_eq!(cfg.rsize as usize, vfs::CHUNK_SIZE);
    }

    #[test]
    fn a_whole_block_write_keeps_the_writers_block_and_a_partial_one_copies_it() {
        let sim = Simulation::new();
        let h = sim.handle();
        let link = |name: &str| Link::new(&h, name, 1e9, SimDuration::from_micros(50));
        let ep = endpoint(&h, link("up"), link("down"), WireSpec::plain());
        ep.listener.serve("generous", Rc::new(generous_server), 2);
        let nfs = Nfs3Client::new(RpcClient::new(ep.channel, OpaqueAuth::none()));
        sim.spawn("client", move |env| {
            let cfg = KernelConfig {
                rsize: 1024,
                ..KernelConfig::default()
            };
            let kc = KernelClient::mount(&env, nfs, "/", cfg).expect("mount");
            let f = kc.root();
            let cached =
                |b: u64| Rc::clone(kc.state.lock().cache.get(&(f.fileid, b)).expect("cached"));
            // Block 0 cached clean first, block 1 not cached at all.
            kc.read(&env, f, 0, 1024).expect("read");
            let block: SharedBytes = Rc::new(vec![0xAB; 1024]);
            let mut whole = Payload::new();
            whole.push_shared(Rc::clone(&block), 0..1024);
            for b in [0, 1] {
                kc.write(&env, f, b * 1024, &whole).expect("write");
                assert!(Rc::ptr_eq(&cached(b), &block), "block {b}");
            }
            // Two halves are gathered into a block of their own.
            let mut halves = Payload::new();
            halves.push_shared(Rc::clone(&block), 0..512);
            halves.push_shared(Rc::new(vec![0xCD; 512]), 0..512);
            kc.write(&env, f, 2048, &halves).expect("write");
            assert_eq!(*cached(2), [[0xAB; 512], [0xCD; 512]].concat());
            // A partial write leaves the writer's block as it was.
            kc.write(&env, f, 1030, &Payload::from(vec![1u8; 4]))
                .expect("write");
            assert_eq!(*block, vec![0xAB; 1024]);
            let got = kc.read(&env, f, 1028, 8).expect("read");
            assert_eq!(got, [0xAB, 0xAB, 1, 1, 1, 1, 0xAB, 0xAB]);
        });
        sim.run();
    }
}
