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
use std::sync::Arc;

use parking_lot::Mutex;
use simnet::telemetry::Counter;
use simnet::{run_windowed, Env, SimDuration};
use vfs::{
    share, share_slice, Attr, FileIo, FileType, Handle, IoError, IoResult, LruMap, SharedBytes,
};

use crate::client::{Nfs3Client, NfsError};
use crate::proto::{StableHow, Status};

/// Kernel client tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct KernelConfig {
    /// READ transfer size (bytes per READ RPC).
    pub rsize: u32,
    /// WRITE transfer size.
    pub wsize: u32,
    /// Buffer cache capacity in bytes.
    pub cache_bytes: u64,
    /// Dirty bytes allowed before writers block on writeback.
    pub dirty_limit_bytes: u64,
    /// Maximum concurrent RPCs for read gathering / write flushing.
    pub max_inflight: usize,
    /// CPU cost of serving one block from the buffer cache.
    pub hit_cost: SimDuration,
    /// Attribute/dentry cache lifetime.
    pub attr_timeout: SimDuration,
}

impl Default for KernelConfig {
    fn default() -> Self {
        KernelConfig {
            rsize: 32 * 1024,
            wsize: 32 * 1024,
            cache_bytes: 256 * 1024 * 1024,
            dirty_limit_bytes: 16 * 1024 * 1024,
            max_inflight: 8,
            hit_cost: SimDuration::from_micros(25),
            attr_timeout: SimDuration::from_secs(30),
        }
    }
}

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

struct Block {
    /// Clean blocks read from the server are pooled by content; a block
    /// born dirty is private, and writes go through `Arc::make_mut`.
    data: SharedBytes,
    /// While the block is dirty, the handle it was dirtied through: what
    /// its write-back goes through, whichever file's traffic evicts it.
    dirty: Option<Handle>,
}

struct KcState {
    cache: LruMap<(u64, u64), Block>,
    dirty_bytes: u64,
    dcache: BTreeMap<String, (Handle, u64)>, // path -> (handle, expires_ns)
    acache: BTreeMap<Handle, (Attr, u64)>,
    local_size: HashMap<u64, u64>, // fileid -> size as seen through our writes
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
    state: Mutex<KcState>,
    tel: KcTel,
}

impl KernelClient {
    /// Mount `export` through `nfs` and return the client.
    pub fn mount(
        env: &Env,
        nfs: Nfs3Client,
        export: &str,
        cfg: KernelConfig,
    ) -> IoResult<Arc<Self>> {
        let root = nfs.mount(env, export).map_err(map_err)?;
        Ok(Arc::new(KernelClient {
            nfs,
            root,
            cfg,
            state: Mutex::new(KcState {
                cache: LruMap::new(((cfg.cache_bytes / cfg.rsize as u64) as usize).max(1)),
                dirty_bytes: 0,
                dcache: BTreeMap::new(),
                acache: BTreeMap::new(),
                local_size: HashMap::new(),
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

    /// Reset counters.
    pub fn reset_stats(&self) {
        self.tel.read_rpcs.reset();
        self.tel.write_rpcs.reset();
        self.tel.meta_rpcs.reset();
        self.tel.cache_hits.reset();
        self.tel.cache_misses.reset();
        self.tel.bytes_read.reset();
        self.tel.bytes_written.reset();
    }

    /// Drop all cached data and metadata, as a umount/mount cycle does.
    /// Benchmarks call this to start a phase with cold kernel caches
    /// (the paper: "initially setup with cold caches by un-mounting and
    /// mounting the virtual file system").
    pub fn invalidate_caches(&self) {
        let mut st = self.state.lock();
        assert_eq!(st.dirty_bytes, 0, "invalidate with dirty data pending");
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
        let exp = now + self.cfg.attr_timeout.as_nanos();
        st.acache.insert(h, (attr.clone(), exp));
        let mut a = attr;
        if let Some(sz) = st.local_size.get(&h.fileid) {
            a.size = a.size.max(*sz);
        }
        Ok(a)
    }

    /// Fetch the given blocks, at most `max_inflight` READs in flight;
    /// returns (block, data) pairs in the order asked for. Data is padded
    /// or cut to the block size and pooled by content where it arrives,
    /// in the worker that decoded the reply: a full block is hashed and
    /// compared inside the reply and copied only if the pool lacks it
    /// (and the copy is then made by the thread that made the reply
    /// buffers, which is what keeps the allocator's arenas compact).
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
                    share_slice(&res.data[..bs as usize])
                } else {
                    let mut padded = res.data.to_vec();
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

    /// Take dirty blocks (for `only_file` if given) out of the cache's
    /// dirty set, returning them for writeback. Blocks stay cached clean,
    /// and the payloads returned are references to them: a write into
    /// one while its write-back is in flight copies it first.
    fn collect_dirty(&self, only_file: Option<u64>) -> Vec<(Handle, u64, SharedBytes)> {
        let mut st = self.state.lock();
        let keys: Vec<(u64, u64)> = st
            .cache
            .iter_mru()
            .filter(|((f, _), blk)| blk.dirty.is_some() && only_file.is_none_or(|of| *f == of))
            .map(|(k, _)| *k)
            .collect();
        let mut out = Vec::with_capacity(keys.len());
        for k in keys {
            if let Some(blk) = st.cache.get_mut(&k) {
                if let Some(h) = blk.dirty.take() {
                    out.push((h, k.1, Arc::clone(&blk.data)));
                }
            }
        }
        st.dirty_bytes = st.dirty_bytes.saturating_sub(out.len() as u64 * self.bs());
        out.sort_unstable_by_key(|(_, b, _)| *b);
        out
    }

    fn flush_file(&self, env: &Env, h: Handle) -> IoResult<()> {
        let dirty = self.collect_dirty(Some(h.fileid));
        let blocks = dirty.into_iter().map(|(_, b, d)| (b, d)).collect();
        self.write_blocks(env, h, blocks)
    }

    /// Handle eviction results: a dirty block falling out of the LRU
    /// triggers a batched write-back of its file's dirty set (the kernel
    /// coalesces write-back rather than dribbling single pages) — through
    /// the handle the block was dirtied through, so a block pushed out by
    /// a read or write of another file is written back like any other.
    fn writeback_evicted(&self, env: &Env, evicted: Vec<((u64, u64), Block)>) -> IoResult<()> {
        let bs = self.bs();
        // BTreeMap: one batch per file, in fileid order (lint: determinism).
        let mut stragglers: BTreeMap<Handle, Vec<(u64, SharedBytes)>> = BTreeMap::new();
        for ((_, b), blk) in evicted {
            if let Some(h) = blk.dirty {
                {
                    let mut st = self.state.lock();
                    st.dirty_bytes = st.dirty_bytes.saturating_sub(bs);
                }
                let blocks = stragglers.entry(h).or_default();
                blocks.push((b, blk.data));
            }
        }
        for (h, stragglers) in stragglers {
            // The evicted blocks themselves plus everything else dirty in
            // the file, in one pipelined batch.
            let mut batch: Vec<(u64, SharedBytes)> = self
                .collect_dirty(Some(h.fileid))
                .into_iter()
                .map(|(_, b, d)| (b, d))
                .collect();
            batch.extend(stragglers);
            batch.sort_unstable_by_key(|(b, _)| *b);
            batch.dedup_by_key(|(b, _)| *b);
            self.write_blocks(env, h, batch)?;
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
        let exp = now + self.cfg.attr_timeout.as_nanos();
        st.dcache.insert(key, (h, exp));
        Ok(h)
    }

    fn getattr(&self, env: &Env, h: Handle) -> IoResult<Attr> {
        self.cached_attr(env, h)
    }

    fn read(&self, env: &Env, h: Handle, offset: u64, len: u32) -> IoResult<Vec<u8>> {
        let attr = self.cached_attr(env, h)?;
        if attr.ftype != FileType::Regular {
            return Err(IoError::BadType);
        }
        if offset >= attr.size {
            return Ok(Vec::new());
        }
        let len = (len as u64).min(attr.size - offset) as usize;
        if len == 0 {
            return Ok(Vec::new());
        }
        let bs = self.bs();
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;

        // The part of block `b` the request covers, as a range of the
        // block and as the offset of its first byte in the result.
        let end = offset + len as u64;
        let span = |b: u64| {
            let block_start = b * bs;
            let from = offset.max(block_start);
            let to = end.min(block_start + bs);
            (
                (from - block_start) as usize..(to - block_start) as usize,
                (from - offset) as usize,
            )
        };

        // Scan the cache in block order: hits are copied straight into
        // the result, misses leave a gap of zeros for the fetch to fill.
        let mut out = Vec::with_capacity(len);
        let mut misses = Vec::new();
        {
            let mut st = self.state.lock();
            for b in first..=last {
                let (range, _) = span(b);
                if let Some(blk) = st.cache.get(&(h.fileid, b)) {
                    out.extend_from_slice(&blk.data[range]);
                    self.tel.cache_hits.inc();
                } else {
                    out.resize(out.len() + range.len(), 0);
                    misses.push(b);
                    self.tel.cache_misses.inc();
                }
            }
        }
        for _ in first..=last {
            env.sleep(self.cfg.hit_cost);
        }
        if !misses.is_empty() {
            let fetched = self.fetch_blocks(env, h, misses)?;
            let mut evicted_all = Vec::new();
            {
                let mut st = self.state.lock();
                for (b, data) in fetched {
                    let (range, at) = span(b);
                    out[at..at + range.len()].copy_from_slice(&data[range]);
                    let clean = Block { data, dirty: None };
                    if let Some(ev) = st.cache.insert((h.fileid, b), clean) {
                        evicted_all.push(ev);
                    }
                }
            }
            self.writeback_evicted(env, evicted_all)?;
        }
        Ok(out)
    }

    fn write(&self, env: &Env, h: Handle, offset: u64, data: &[u8]) -> IoResult<()> {
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
                let clean = Block { data, dirty: None };
                if let Some(ev) = st.cache.insert((h.fileid, b), clean) {
                    evicted_all.push(ev);
                }
            }
        }

        // Apply the write into cache blocks, marking dirty.
        {
            let mut st = self.state.lock();
            for b in first..=last {
                let bstart = b * bs;
                let from = offset.max(bstart);
                let to = (offset + data.len() as u64).min(bstart + bs);
                let src = &data[(from - offset) as usize..(to - offset) as usize];
                let key = (h.fileid, b);
                let within = (from - bstart) as usize..(to - bstart) as usize;
                let was_dirty = if let Some(blk) = st.cache.get_mut(&key) {
                    Arc::make_mut(&mut blk.data)[within].copy_from_slice(src);
                    blk.dirty.replace(h).is_some()
                } else {
                    // Not cached. A block this call's own inserts evicted
                    // a moment ago — an edge block cached or just fetched
                    // for its bytes outside the write — is taken back
                    // from the eviction list with those bytes (and its
                    // dirty accounting); anything else starts from zeros.
                    let mut blk = match evicted_all.iter().rposition(|(k, _)| *k == key) {
                        Some(i) => evicted_all.remove(i).1,
                        None => Block {
                            data: Arc::new(vec![0u8; bs as usize]),
                            dirty: None,
                        },
                    };
                    Arc::make_mut(&mut blk.data)[within].copy_from_slice(src);
                    let was = blk.dirty.replace(h).is_some();
                    if let Some(ev) = st.cache.insert(key, blk) {
                        evicted_all.push(ev);
                    }
                    was
                };
                if !was_dirty {
                    st.dirty_bytes += bs;
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
            env.sleep(self.cfg.hit_cost);
        }
        self.writeback_evicted(env, evicted_all)?;

        // Back-pressure: too much dirty data forces a synchronous flush,
        // like the kernel's dirty-ratio writeback.
        let over_limit = { self.state.lock().dirty_bytes > self.cfg.dirty_limit_bytes };
        if over_limit {
            self.flush_file(env, h)?;
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
            (h, now + self.cfg.attr_timeout.as_nanos()),
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
        self.flush_file(env, h)?;
        self.state.lock().acache.remove(&h);
        Ok(())
    }

    fn sync(&self, env: &Env) -> IoResult<()> {
        // Flush every file with dirty blocks, each through the handle
        // its blocks were dirtied through.
        loop {
            let next = {
                self.state
                    .lock()
                    .cache
                    .iter_mru()
                    .find_map(|(_, blk)| blk.dirty)
            };
            match next {
                Some(h) => self.flush_file(env, h)?,
                None => break,
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::ReadArgs;
    use crate::proto::{proc3, Fh3, MOUNT_PROGRAM};
    use crate::results::{encode_getattr, encode_read};
    use oncrpc::{endpoint, OpaqueAuth, RpcClient, RpcMessage, WireSpec};
    use simnet::{Link, Simulation};
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
        ep.listener.serve("generous", Arc::new(generous_server), 2);
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
            for (_, blk) in st.cache.iter_mru() {
                assert_eq!(blk.data.len(), 1024);
            }
        });
        sim.run();
    }
}
