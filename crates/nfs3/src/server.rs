//! The simulated kernel NFSv3 server (plus the MOUNT v3 program).
//!
//! Exports a [`vfs::Fs`] with realistic timing: a bounded server memory
//! buffer cache, a disk with positioning/streaming costs, readahead-style
//! sequential detection, NFSv3 unstable writes gathered in memory until a
//! COMMIT (or sync write) flushes them.
//!
//! This is the component the paper treats as untouchable: GVFS
//! explicitly works with *unmodified* kernel NFS servers, extending the
//! system purely with user-level proxies in front of this server.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

use oncrpc::{OpaqueAuth, ProgramError, RpcProgram};
use parking_lot::Mutex;
use simnet::telemetry::{Counter, Telemetry};
use simnet::{splitmix64, Env, SimDuration, SimHandle};
use vfs::{Disk, Fs, FsResult, Handle, LruMap};
use xdr::{Bytes, Decode, Encode, Encoder};

use crate::args::*;
use crate::proto::*;
use crate::results::*;

/// Server tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Memory buffer cache capacity in bytes.
    pub memory_cache_bytes: u64,
    /// Cache/transfer block size.
    pub block_size: u32,
    /// Per-call CPU cost (decode, dispatch, encode).
    pub op_cpu: SimDuration,
    /// Whether AUTH_SYS credentials are required (kernel servers reject
    /// the middleware's AUTH_GVFS flavor — that mapping is the GVFS
    /// server-side proxy's job).
    pub require_auth_sys: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            memory_cache_bytes: 768 * 1024 * 1024,
            block_size: 32 * 1024,
            op_cpu: SimDuration::from_micros(30),
            require_auth_sys: true,
        }
    }
}

/// Operation counters, used by tests and by the benchmark reports (e.g.
/// the paper's "65,750 NFS reads, 60,452 filtered" claim).
///
/// A view over the telemetry registry: the server updates the shared
/// `nfs3/<instance>.*` counters and [`Nfs3Server::stats`] reads them back.
#[derive(Debug, Default, Clone, Copy)]
pub struct ServerStats {
    /// READ calls served.
    pub reads: u64,
    /// WRITE calls served.
    pub writes: u64,
    /// Payload bytes read.
    pub read_bytes: u64,
    /// Payload bytes written.
    pub write_bytes: u64,
    /// Buffer-cache block hits.
    pub cache_hits: u64,
    /// Buffer-cache block misses.
    pub cache_misses: u64,
    /// Calls of any kind.
    pub calls: u64,
}

/// One cached reply in the duplicate-request cache. A retransmitted call
/// arrives bearing the xid of the original; if credential and procedure
/// also match, the server replays the stored reply instead of
/// re-executing a non-idempotent operation (the classic Juszczak DRC).
struct DrcEntry {
    cred_hash: u64,
    proc: u32,
    reply: Bytes,
}

/// Bound on cached replies; old entries age out LRU-style, matching the
/// fixed-size cache of a real kernel server.
const DRC_CAPACITY: usize = 1024;

struct SrvState {
    cache: LruMap<(u64, u64), ()>,
    next_seq_offset: HashMap<u64, u64>,
    unstable_bytes: HashMap<u64, u64>,
    /// Uncommitted write extents per fileid: `(handle, offset, len)`.
    /// A crash loses exactly these bytes (zero-filled on restart), which
    /// is what forces clients to honour the write-verifier protocol.
    /// BTreeMap so restart replays losses in deterministic order.
    unstable_extents: BTreeMap<u64, Vec<(Handle, u64, u64)>>,
    /// Duplicate-request cache, keyed by xid.
    drc: LruMap<u32, DrcEntry>,
    /// Write verifier for this boot of this instance. Changes on every
    /// [`Nfs3Server::restart`], signalling to clients that unstable
    /// writes from before the crash may have been lost.
    write_verf: u64,
    boot_seq: u64,
}

/// FNV-1a over a byte string; used to derive the per-instance write
/// verifier and to fingerprint credentials for DRC matching.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn cred_hash(cred: &OpaqueAuth) -> u64 {
    fnv1a(&cred.body) ^ splitmix64(cred.flavor.as_u32() as u64)
}

/// Procedures whose effect is not idempotent: re-executing a retransmit
/// would create/remove/rename twice (or bump ctime twice). These are the
/// calls the DRC must intercept.
fn is_nonidempotent(proc: u32) -> bool {
    matches!(
        proc,
        proc3::SETATTR
            | proc3::CREATE
            | proc3::MKDIR
            | proc3::SYMLINK
            | proc3::REMOVE
            | proc3::RMDIR
            | proc3::RENAME
    )
}

/// Telemetry counters backing [`ServerStats`]; registered at construction.
struct SrvTel {
    registry: Telemetry,
    inst: String,
    /// Per-procedure call counters, cached after first registration so the
    /// dispatch path never takes the registry lock (or formats a `String`
    /// key) per request.
    procs: Mutex<Vec<(u32, Counter)>>,
    /// Retransmits answered from the duplicate-request cache.
    drc_hits: Counter,
    reads: Counter,
    writes: Counter,
    read_bytes: Counter,
    write_bytes: Counter,
    cache_hits: Counter,
    cache_misses: Counter,
    calls: Counter,
}

impl SrvTel {
    fn register(registry: &Telemetry) -> Self {
        let inst = registry.instance_name("nfs3-server");
        let c = |name: &str| registry.counter("nfs3", format!("{inst}.{name}"));
        SrvTel {
            reads: c("reads"),
            writes: c("writes"),
            read_bytes: c("read_bytes"),
            write_bytes: c("write_bytes"),
            cache_hits: c("buffer_cache.hits"),
            cache_misses: c("buffer_cache.misses"),
            calls: c("calls"),
            drc_hits: c("drc.hits"),
            procs: Mutex::new(Vec::new()),
            registry: registry.clone(),
            inst,
        }
    }

    /// `nfs3/<inst>.proc.<name>` counter for a procedure, cached.
    fn proc_counter(&self, proc: u32) -> Counter {
        let mut procs = self.procs.lock();
        match procs.binary_search_by_key(&proc, |(p, _)| *p) {
            Ok(i) => procs[i].1.clone(),
            Err(i) => {
                let c = self
                    .registry
                    .counter("nfs3", format!("{}.proc.{}", self.inst, proc3_name(proc)));
                procs.insert(i, (proc, c.clone()));
                c
            }
        }
    }
}

/// The NFSv3 server program.
pub struct Nfs3Server {
    fs: Arc<Mutex<Fs>>,
    disk: Disk,
    state: Mutex<SrvState>,
    cfg: ServerConfig,
    tel: SrvTel,
}

impl Nfs3Server {
    /// Create a server exporting `fs`, storing data on `disk`.
    pub fn new(handle: &SimHandle, fs: Arc<Mutex<Fs>>, disk: Disk, cfg: ServerConfig) -> Arc<Self> {
        let cache_blocks = ((cfg.memory_cache_bytes / cfg.block_size as u64) as usize).max(1);
        let tel = SrvTel::register(handle.telemetry());
        // Boot 0's verifier: a pure function of the instance name, so
        // runs replay identically; restart() rotates it.
        let write_verf = splitmix64(fnv1a(tel.inst.as_bytes()));
        Arc::new(Nfs3Server {
            fs,
            disk,
            state: Mutex::new(SrvState {
                cache: LruMap::new(cache_blocks),
                next_seq_offset: HashMap::new(),
                unstable_bytes: HashMap::new(),
                unstable_extents: BTreeMap::new(),
                drc: LruMap::new(DRC_CAPACITY),
                write_verf,
                boot_seq: 0,
            }),
            cfg,
            tel,
        })
    }

    /// The write verifier of the current boot (clients compare the value
    /// returned by WRITE against the one returned by COMMIT).
    pub fn write_verf(&self) -> u64 {
        self.state.lock().write_verf
    }

    /// Simulate a crash + reboot at virtual time `now_ns`: the buffer
    /// cache, sequential-detection state, duplicate-request cache and all
    /// *uncommitted* writes are lost (their extents zero-fill, as data
    /// that never reached disk), and the write verifier rotates so
    /// clients detect at COMMIT time that they must resend.
    pub fn restart(&self, now_ns: u64) {
        let lost = {
            let mut st = self.state.lock();
            st.boot_seq += 1;
            st.write_verf = splitmix64(fnv1a(self.tel.inst.as_bytes()) ^ st.boot_seq);
            st.cache.clear();
            st.next_seq_offset.clear();
            st.unstable_bytes.clear();
            st.drc.clear();
            std::mem::take(&mut st.unstable_extents)
        };
        {
            let mut fs = self.fs.lock();
            for ranges in lost.into_values() {
                for (h, offset, len) in ranges {
                    let zeros = vec![0u8; len as usize];
                    let _ = fs.write(h, offset, &zeros, now_ns);
                }
            }
        }
        self.tel
            .registry
            .counter("nfs3", format!("{}.restarts", self.tel.inst))
            .inc();
    }

    /// Convenience: build a fresh filesystem + server.
    pub fn with_new_fs(
        handle: &SimHandle,
        disk: Disk,
        cfg: ServerConfig,
    ) -> (Arc<Mutex<Fs>>, Arc<Self>) {
        let fs = Arc::new(Mutex::new(Fs::new(handle.now().as_nanos())));
        let srv = Self::new(handle, fs.clone(), disk, cfg);
        (fs, srv)
    }

    /// Snapshot of the operation counters (a telemetry view).
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            reads: self.tel.reads.get(),
            writes: self.tel.writes.get(),
            read_bytes: self.tel.read_bytes.get(),
            write_bytes: self.tel.write_bytes.get(),
            cache_hits: self.tel.cache_hits.get(),
            cache_misses: self.tel.cache_misses.get(),
            calls: self.tel.calls.get(),
        }
    }

    /// Shared filesystem (scenario setup pre-populates images through it).
    pub fn fs(&self) -> Arc<Mutex<Fs>> {
        self.fs.clone()
    }

    /// Charge cache/disk time for reading `len` bytes at `offset`.
    fn charge_read(&self, env: &Env, fileid: u64, offset: u64, len: usize) {
        if len == 0 {
            return;
        }
        let bs = self.cfg.block_size as u64;
        let first = offset / bs;
        let last = (offset + len as u64 - 1) / bs;
        for b in first..=last {
            let (hit, sequential) = {
                let mut st = self.state.lock();
                let hit = st.cache.get(&(fileid, b)).is_some();
                let sequential = st.next_seq_offset.get(&fileid) == Some(&b);
                st.next_seq_offset.insert(fileid, b + 1);
                if hit {
                    self.tel.cache_hits.inc();
                } else {
                    self.tel.cache_misses.inc();
                    st.cache.insert((fileid, b), ());
                }
                (hit, sequential)
            };
            if !hit {
                if sequential {
                    self.disk.stream_io(env, bs);
                } else {
                    self.disk.random_io(env, bs);
                }
            }
        }
    }

    fn check_auth(&self, cred: &OpaqueAuth, proc: u32) -> Result<(), ProgramError> {
        if !self.cfg.require_auth_sys || proc == proc3::NULL {
            return Ok(());
        }
        match cred.flavor {
            oncrpc::AuthFlavor::Sys => Ok(()),
            // A kernel server has no idea what a GVFS middleware
            // credential is: too weak.
            _ => Err(ProgramError::AuthError(oncrpc::msg::auth_stat::TOOWEAK)),
        }
    }

    fn getattr_of(&self, h: Handle) -> FsResult<vfs::Attr> {
        self.fs.lock().getattr(h)
    }

    fn err_with_postop(&self, status: Status, h: Option<Handle>) -> Bytes {
        encode_fail_postop(status, h.and_then(|h| self.getattr_of(h).ok()))
    }

    fn err_with_wcc(&self, status: Status, h: Option<Handle>) -> Bytes {
        encode_fail_wcc(status, h.and_then(|h| self.getattr_of(h).ok()))
    }

    fn proc_getattr(&self, args: &[u8]) -> Result<Bytes, ProgramError> {
        let fh: Fh3 = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        Ok(match self.getattr_of(fh.0) {
            Ok(attr) => encode_getattr(attr),
            Err(e) => encode_status(e.into()),
        })
    }

    fn proc_setattr(&self, env: &Env, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a: SetattrArgs = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let now = env.now().as_nanos();
        let res = self
            .fs
            .lock()
            .setattr(a.file.0, a.attrs.size, a.attrs.mode, now);
        match res {
            Ok(attr) => {
                let mut enc = header(Status::Ok);
                WccData(Some(attr)).encode(&mut enc);
                Ok(enc.into_shared())
            }
            Err(e) => Ok(self.err_with_wcc(e.into(), Some(a.file.0))),
        }
    }

    fn proc_lookup(&self, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a: DirOpArgs3 = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let fs = self.fs.lock();
        let dir_attr = fs.getattr(a.dir.0).ok();
        Ok(match fs.lookup(a.dir.0, &a.name) {
            Ok(obj) => encode_lookup(obj, fs.getattr(obj).ok(), dir_attr),
            Err(e) => encode_fail_postop(e.into(), dir_attr),
        })
    }

    fn proc_access(&self, args: &[u8]) -> Result<Bytes, ProgramError> {
        let mut dec = xdr::Decoder::new(args);
        let fh = Fh3::decode(&mut dec).map_err(|_| ProgramError::GarbageArgs)?;
        let wanted = dec.get_u32().map_err(|_| ProgramError::GarbageArgs)?;
        match self.getattr_of(fh.0) {
            Ok(attr) => {
                let mut enc = header(Status::Ok);
                PostOpAttr(Some(attr)).encode(&mut enc);
                enc.put_u32(wanted); // grant everything requested
                Ok(enc.into_shared())
            }
            Err(e) => Ok(self.err_with_postop(e.into(), None)),
        }
    }

    fn proc_readlink(&self, args: &[u8]) -> Result<Bytes, ProgramError> {
        let fh: Fh3 = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let fs = self.fs.lock();
        match fs.readlink(fh.0) {
            Ok(target) => {
                let mut enc = header(Status::Ok);
                PostOpAttr(fs.getattr(fh.0).ok()).encode(&mut enc);
                enc.put_string(&target);
                Ok(enc.into_shared())
            }
            Err(e) => {
                drop(fs);
                Ok(self.err_with_postop(e.into(), Some(fh.0)))
            }
        }
    }

    fn proc_read(&self, env: &Env, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a: ReadArgs = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let count = a.count.min(MAX_BLOCK);
        let now = env.now().as_nanos();
        let res = self.fs.lock().read(a.file.0, a.offset, count as usize, now);
        match res {
            Ok((data, eof)) => {
                self.charge_read(env, a.file.0.fileid, a.offset, data.len().max(1));
                let attr = self.getattr_of(a.file.0).ok();
                self.tel.reads.inc();
                self.tel.read_bytes.add(data.len() as u64);
                Ok(encode_read(attr, &data, eof))
            }
            Err(e) => Ok(self.err_with_postop(e.into(), Some(a.file.0))),
        }
    }

    fn proc_write(&self, env: &Env, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a = WriteArgs::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let now = env.now().as_nanos();
        let res = self.fs.lock().write(a.file.0, a.offset, a.data, now);
        match res {
            Ok(_newlen) => {
                let bytes = a.data.len() as u64;
                self.tel.writes.inc();
                self.tel.write_bytes.add(bytes);
                {
                    let mut st = self.state.lock();
                    // Written blocks land in the memory cache.
                    let bs = self.cfg.block_size as u64;
                    if bytes > 0 {
                        let first = a.offset / bs;
                        let last = (a.offset + bytes - 1) / bs;
                        for b in first..=last {
                            st.cache.insert((a.file.0.fileid, b), ());
                        }
                    }
                }
                let committed = match a.stable {
                    StableHow::Unstable => {
                        let mut st = self.state.lock();
                        *st.unstable_bytes.entry(a.file.0.fileid).or_insert(0) += bytes;
                        if bytes > 0 {
                            st.unstable_extents
                                .entry(a.file.0.fileid)
                                .or_default()
                                .push((a.file.0, a.offset, bytes));
                        }
                        StableHow::Unstable
                    }
                    sync => {
                        self.disk.sequential_io(env, bytes);
                        sync
                    }
                };
                let verf = self.state.lock().write_verf;
                let attr = self.getattr_of(a.file.0).ok();
                Ok(encode_write(attr, a.data.len() as u32, committed, verf))
            }
            Err(e) => Ok(self.err_with_wcc(e.into(), Some(a.file.0))),
        }
    }

    fn proc_create(&self, env: &Env, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a: CreateArgs = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let now = env.now().as_nanos();
        let mut fs = self.fs.lock();
        match fs.create(
            a.whereto.dir.0,
            &a.whereto.name,
            a.attrs.mode.unwrap_or(0o644),
            now,
        ) {
            Ok(h) => {
                if let Some(sz) = a.attrs.size {
                    let _ = fs.setattr(h, Some(sz), None, now);
                }
                let mut enc = header(Status::Ok);
                // post_op_fh3
                enc.put_bool(true);
                Fh3(h).encode(&mut enc);
                PostOpAttr(fs.getattr(h).ok()).encode(&mut enc);
                WccData(fs.getattr(a.whereto.dir.0).ok()).encode(&mut enc);
                Ok(enc.into_shared())
            }
            Err(e) => {
                drop(fs);
                Ok(self.err_with_wcc(e.into(), Some(a.whereto.dir.0)))
            }
        }
    }

    fn proc_mkdir(&self, env: &Env, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a: CreateArgs = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let now = env.now().as_nanos();
        let mut fs = self.fs.lock();
        match fs.mkdir(
            a.whereto.dir.0,
            &a.whereto.name,
            a.attrs.mode.unwrap_or(0o755),
            now,
        ) {
            Ok(h) => {
                let mut enc = header(Status::Ok);
                enc.put_bool(true);
                Fh3(h).encode(&mut enc);
                PostOpAttr(fs.getattr(h).ok()).encode(&mut enc);
                WccData(fs.getattr(a.whereto.dir.0).ok()).encode(&mut enc);
                Ok(enc.into_shared())
            }
            Err(e) => {
                drop(fs);
                Ok(self.err_with_wcc(e.into(), Some(a.whereto.dir.0)))
            }
        }
    }

    fn proc_symlink(&self, env: &Env, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a: SymlinkArgs = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let now = env.now().as_nanos();
        let mut fs = self.fs.lock();
        match fs.symlink(a.whereto.dir.0, &a.whereto.name, &a.target, now) {
            Ok(h) => {
                let mut enc = header(Status::Ok);
                enc.put_bool(true);
                Fh3(h).encode(&mut enc);
                PostOpAttr(fs.getattr(h).ok()).encode(&mut enc);
                WccData(fs.getattr(a.whereto.dir.0).ok()).encode(&mut enc);
                Ok(enc.into_shared())
            }
            Err(e) => {
                drop(fs);
                Ok(self.err_with_wcc(e.into(), Some(a.whereto.dir.0)))
            }
        }
    }

    fn proc_remove(&self, env: &Env, args: &[u8], is_rmdir: bool) -> Result<Bytes, ProgramError> {
        let a: DirOpArgs3 = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let now = env.now().as_nanos();
        let mut fs = self.fs.lock();
        let res = if is_rmdir {
            fs.rmdir(a.dir.0, &a.name, now)
        } else {
            fs.remove(a.dir.0, &a.name, now)
        };
        let status = match res {
            Ok(()) => Status::Ok,
            Err(e) => e.into(),
        };
        let mut enc = header(status);
        WccData(fs.getattr(a.dir.0).ok()).encode(&mut enc);
        Ok(enc.into_shared())
    }

    fn proc_rename(&self, env: &Env, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a: RenameArgs = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let now = env.now().as_nanos();
        let mut fs = self.fs.lock();
        let status = match fs.rename(a.from.dir.0, &a.from.name, a.to.dir.0, &a.to.name, now) {
            Ok(()) => Status::Ok,
            Err(e) => e.into(),
        };
        let mut enc = header(status);
        WccData(fs.getattr(a.from.dir.0).ok()).encode(&mut enc);
        WccData(fs.getattr(a.to.dir.0).ok()).encode(&mut enc);
        Ok(enc.into_shared())
    }

    fn proc_readdir(&self, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a: ReaddirArgs = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let fs = self.fs.lock();
        // A continued listing must present the verifier we handed out
        // with the first chunk; a stale one means the client's cookie
        // space is no longer valid (RFC 1813 §3.3.16 NFS3ERR_BAD_COOKIE).
        if a.cookie != 0 && a.cookieverf != READDIR_VERF {
            return Ok(encode_fail_postop(
                Status::BadCookie,
                fs.getattr(a.dir.0).ok(),
            ));
        }
        match fs.readdir(a.dir.0) {
            Ok(entries) => {
                let mut enc = header(Status::Ok);
                PostOpAttr(fs.getattr(a.dir.0).ok()).encode(&mut enc);
                enc.put_u64(READDIR_VERF);
                let start = a.cookie as usize;
                let mut budget = a.count as usize;
                let mut idx = start;
                while idx < entries.len() && budget > 48 + entries[idx].0.len() {
                    let (name, h) = &entries[idx];
                    enc.put_bool(true); // another entry follows
                    enc.put_u64(h.fileid);
                    enc.put_string(name);
                    enc.put_u64(idx as u64 + 1); // cookie
                    budget = budget.saturating_sub(24 + name.len());
                    idx += 1;
                }
                enc.put_bool(false); // entry list terminator
                enc.put_bool(idx >= entries.len()); // eof
                Ok(enc.into_shared())
            }
            Err(e) => Ok(encode_fail_postop(e.into(), fs.getattr(a.dir.0).ok())),
        }
    }

    fn proc_fsinfo(&self, args: &[u8]) -> Result<Bytes, ProgramError> {
        let fh: Fh3 = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let mut enc = header(Status::Ok);
        PostOpAttr(self.getattr_of(fh.0).ok()).encode(&mut enc);
        let bs = self.cfg.block_size;
        enc.put_u32(bs); // rtmax
        enc.put_u32(bs); // rtpref
        enc.put_u32(512); // rtmult
        enc.put_u32(bs); // wtmax
        enc.put_u32(bs); // wtpref
        enc.put_u32(512); // wtmult
        enc.put_u32(bs); // dtpref
        enc.put_u64(MAX_FILE_SIZE); // maxfilesize
        enc.put_u32(0); // time_delta sec
        enc.put_u32(1); // time_delta nsec
        enc.put_u32(0x1b); // properties: LINK|SYMLINK|HOMOGENEOUS|CANSETTIME
        Ok(enc.into_shared())
    }

    fn proc_commit(&self, env: &Env, args: &[u8]) -> Result<Bytes, ProgramError> {
        let a: CommitArgs = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
        let (pending, verf) = {
            let mut st = self.state.lock();
            // These extents are durable now; a future crash won't lose
            // them.
            st.unstable_extents.remove(&a.file.0.fileid);
            let pending = st.unstable_bytes.remove(&a.file.0.fileid).unwrap_or(0);
            (pending, st.write_verf)
        };
        if pending > 0 {
            self.disk.sequential_io(env, pending);
        }
        Ok(encode_commit(self.getattr_of(a.file.0).ok(), verf))
    }
}

/// READDIR cookie verifier.
pub const READDIR_VERF: u64 = 0x0DDC_00C1_E000_0001;

impl RpcProgram for Nfs3Server {
    fn program(&self) -> u32 {
        NFS_PROGRAM
    }

    fn version(&self) -> u32 {
        NFS_V3
    }

    fn call(
        &self,
        env: &Env,
        cred: &OpaqueAuth,
        proc: u32,
        args: &[u8],
    ) -> Result<Bytes, ProgramError> {
        self.check_auth(cred, proc)?;
        self.tel.calls.inc();
        self.tel.proc_counter(proc).inc();
        env.sleep(self.cfg.op_cpu);
        match proc {
            proc3::NULL => Ok(Bytes::new()),
            proc3::GETATTR => self.proc_getattr(args),
            proc3::SETATTR => self.proc_setattr(env, args),
            proc3::LOOKUP => self.proc_lookup(args),
            proc3::ACCESS => self.proc_access(args),
            proc3::READLINK => self.proc_readlink(args),
            proc3::READ => self.proc_read(env, args),
            proc3::WRITE => self.proc_write(env, args),
            proc3::CREATE => self.proc_create(env, args),
            proc3::MKDIR => self.proc_mkdir(env, args),
            proc3::SYMLINK => self.proc_symlink(env, args),
            proc3::REMOVE => self.proc_remove(env, args, false),
            proc3::RMDIR => self.proc_remove(env, args, true),
            proc3::RENAME => self.proc_rename(env, args),
            proc3::READDIR => self.proc_readdir(args),
            proc3::FSINFO => self.proc_fsinfo(args),
            proc3::COMMIT => self.proc_commit(env, args),
            // MKNOD, LINK, READDIRPLUS, FSSTAT, PATHCONF are not needed by
            // any workload in this reproduction.
            _ => Err(ProgramError::ProcUnavail),
        }
    }

    fn call_with_xid(
        &self,
        env: &Env,
        xid: u32,
        cred: &OpaqueAuth,
        proc: u32,
        args: &[u8],
    ) -> Result<Bytes, ProgramError> {
        if !is_nonidempotent(proc) {
            return self.call(env, cred, proc, args);
        }
        let ch = cred_hash(cred);
        let cached = {
            let mut st = self.state.lock();
            match st.drc.get(&xid) {
                Some(e) if e.cred_hash == ch && e.proc == proc => Some(e.reply.clone()),
                _ => None,
            }
        };
        if let Some(reply) = cached {
            // A retransmit of a call we already executed: replay the
            // stored reply. The operation's side effect happens once.
            self.tel.drc_hits.inc();
            env.sleep(self.cfg.op_cpu);
            return Ok(reply);
        }
        let res = self.call(env, cred, proc, args);
        if let Ok(reply) = &res {
            let mut st = self.state.lock();
            st.drc.insert(
                xid,
                DrcEntry {
                    cred_hash: ch,
                    proc,
                    reply: reply.clone(),
                },
            );
        }
        res
    }
}

/// The MOUNT v3 program: maps export paths to root file handles.
pub struct MountServer {
    fs: Arc<Mutex<Fs>>,
    exports: Vec<String>,
}

impl MountServer {
    /// Serve mounts of `exports` (paths inside `fs`; `/` exports the root).
    pub fn new(fs: Arc<Mutex<Fs>>, exports: Vec<String>) -> Arc<Self> {
        Arc::new(MountServer { fs, exports })
    }
}

impl RpcProgram for MountServer {
    fn program(&self) -> u32 {
        MOUNT_PROGRAM
    }

    fn version(&self) -> u32 {
        MOUNT_V3
    }

    fn call(
        &self,
        _env: &Env,
        _cred: &OpaqueAuth,
        proc: u32,
        args: &[u8],
    ) -> Result<Bytes, ProgramError> {
        match proc {
            mountproc::NULL => Ok(Bytes::new()),
            mountproc::MNT => {
                let path: String = xdr::from_bytes(args).map_err(|_| ProgramError::GarbageArgs)?;
                let exported = self
                    .exports
                    .iter()
                    .any(|e| e == &path || (e == "/" && path.is_empty()));
                let mut enc = Encoder::new();
                if !exported {
                    enc.put_u32(13); // MNT3ERR_ACCES
                    return Ok(enc.into_shared());
                }
                match self.fs.lock().resolve(&path) {
                    Ok(h) => {
                        enc.put_u32(0); // MNT3_OK
                        Fh3(h).encode(&mut enc);
                        // auth flavors accepted: AUTH_SYS
                        enc.put_array(&[1u32], |e, v| e.put_u32(*v));
                    }
                    Err(_) => enc.put_u32(2), // MNT3ERR_NOENT
                }
                Ok(enc.into_shared())
            }
            mountproc::UMNT => Ok(Bytes::new()),
            _ => Err(ProgramError::ProcUnavail),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::Simulation;
    use vfs::DiskModel;

    fn setup(sim: &Simulation) -> (Arc<Mutex<Fs>>, Arc<Nfs3Server>) {
        let h = sim.handle();
        let disk = Disk::new(&h, DiskModel::server_array());
        Nfs3Server::with_new_fs(&h, disk, ServerConfig::default())
    }

    fn sys_cred() -> OpaqueAuth {
        OpaqueAuth::sys(&oncrpc::AuthSys::new("t", 1, 1))
    }

    fn mkdir_args(dir: Handle, name: &str) -> Vec<u8> {
        xdr::to_bytes(&CreateArgs {
            whereto: DirOpArgs3 {
                dir: Fh3(dir),
                name: name.to_string(),
            },
            attrs: Sattr3 {
                mode: Some(0o755),
                size: None,
            },
        })
    }

    #[test]
    fn drc_replays_nonidempotent_calls_without_reexecution() {
        let sim = Simulation::new();
        let (fs, srv) = setup(&sim);
        let fs2 = fs.clone();
        sim.spawn("t", move |env| {
            let root = fs2.lock().resolve("/").unwrap();
            let args = mkdir_args(root, "d");
            // Original call and a retransmit bearing the same xid.
            let r1 = srv
                .call_with_xid(&env, 77, &sys_cred(), proc3::MKDIR, &args)
                .unwrap();
            let r2 = srv
                .call_with_xid(&env, 77, &sys_cred(), proc3::MKDIR, &args)
                .unwrap();
            assert_eq!(r1, r2, "retransmit must replay the cached reply");
            let entries = fs2.lock().readdir(root).unwrap();
            assert_eq!(entries.len(), 1, "MKDIR must have executed once");
            // A NEW xid is a genuinely new call: it re-executes and now
            // collides with the existing directory.
            let r3 = srv
                .call_with_xid(&env, 78, &sys_cred(), proc3::MKDIR, &args)
                .unwrap();
            let mut dec = xdr::Decoder::new(&r3);
            assert_eq!(dec.get_u32().unwrap(), Status::Exist.as_u32());
            // Same xid but a different credential must NOT replay.
            let other = OpaqueAuth::sys(&oncrpc::AuthSys::new("mallory", 9, 9));
            let r4 = srv
                .call_with_xid(&env, 77, &other, proc3::MKDIR, &args)
                .unwrap();
            let mut dec = xdr::Decoder::new(&r4);
            assert_eq!(dec.get_u32().unwrap(), Status::Exist.as_u32());
        });
        sim.run();
    }

    #[test]
    fn drc_hits_counter_registers_at_construction_and_counts_hits() {
        // `drc.hits` registers with the server's other counters
        // (DESIGN.md §5.6): present at 0 before any retransmit, one per
        // replayed reply, and a replay resolves no registry handle.
        let sim = Simulation::new();
        let (fs, srv) = setup(&sim);
        let tel = sim.handle().telemetry().clone();
        let drc_hits = |t: &simnet::Telemetry| {
            t.snapshot()
                .counters
                .iter()
                .find(|c| c.layer == "nfs3" && c.name.ends_with(".drc.hits"))
                .map(|c| c.value)
        };
        assert_eq!(drc_hits(&tel), Some(0), "drc.hits missing at construction");
        let fs2 = fs.clone();
        let tel2 = tel.clone();
        sim.spawn("t", move |env| {
            let root = fs2.lock().resolve("/").unwrap();
            let args = mkdir_args(root, "d");
            srv.call_with_xid(&env, 5, &sys_cred(), proc3::MKDIR, &args)
                .unwrap();
            assert_eq!(drc_hits(&tel2), Some(0), "a DRC miss counted as a hit");
            let before = tel2.debug_resolutions();
            for _ in 0..3 {
                srv.call_with_xid(&env, 5, &sys_cred(), proc3::MKDIR, &args)
                    .unwrap();
            }
            assert_eq!(tel2.debug_resolutions(), before, "replay resolved a handle");
        });
        sim.run();
        assert_eq!(drc_hits(&tel), Some(3));
    }

    #[test]
    fn restart_rotates_write_verifier_and_loses_uncommitted_writes() {
        let sim = Simulation::new();
        let (fs, srv) = setup(&sim);
        let fs2 = fs.clone();
        sim.spawn("t", move |env| {
            let root = fs2.lock().resolve("/").unwrap();
            let file = fs2.lock().create(root, "f", 0o644, 0).unwrap();
            let v0 = srv.write_verf();
            let write = |offset: u64, data: Vec<u8>, stable: StableHow| {
                xdr::to_bytes(&WriteArgs {
                    file: Fh3(file),
                    offset,
                    count: data.len() as u32,
                    stable,
                    data: &data,
                })
            };
            // A committed prefix and an uncommitted suffix.
            srv.call(
                &env,
                &sys_cred(),
                proc3::WRITE,
                &write(0, vec![1u8; 100], StableHow::FileSync),
            )
            .unwrap();
            srv.call(
                &env,
                &sys_cred(),
                proc3::WRITE,
                &write(100, vec![2u8; 100], StableHow::Unstable),
            )
            .unwrap();
            srv.restart(env.now().as_nanos());
            let v1 = srv.write_verf();
            assert_ne!(v0, v1, "crash must rotate the write verifier");
            let (data, _) = fs2.lock().read(file, 0, 200, 1).unwrap();
            assert_eq!(&data[..100], &[1u8; 100][..], "synced data survives");
            assert_eq!(&data[100..], &[0u8; 100][..], "unstable data is lost");
            // Once committed, a crash no longer loses the bytes.
            srv.call(
                &env,
                &sys_cred(),
                proc3::WRITE,
                &write(100, vec![3u8; 100], StableHow::Unstable),
            )
            .unwrap();
            srv.call(
                &env,
                &sys_cred(),
                proc3::COMMIT,
                &xdr::to_bytes(&CommitArgs {
                    file: Fh3(file),
                    offset: 0,
                    count: 0,
                }),
            )
            .unwrap();
            srv.restart(env.now().as_nanos());
            assert_ne!(srv.write_verf(), v1);
            let (data, _) = fs2.lock().read(file, 100, 100, 2).unwrap();
            assert_eq!(data, vec![3u8; 100]);
        });
        sim.run();
    }

    #[test]
    fn readdir_with_stale_cookieverf_reports_bad_cookie() {
        let sim = Simulation::new();
        let (fs, srv) = setup(&sim);
        let fs2 = fs.clone();
        sim.spawn("t", move |env| {
            let root = fs2.lock().resolve("/").unwrap();
            fs2.lock().create(root, "a", 0o644, 0).unwrap();
            let args = |cookie: u64, cookieverf: u64| {
                xdr::to_bytes(&ReaddirArgs {
                    dir: Fh3(root),
                    cookie,
                    cookieverf,
                    count: 8192,
                })
            };
            // First chunk: cookie 0 ignores the verifier.
            let r = srv
                .call(&env, &sys_cred(), proc3::READDIR, &args(0, 0))
                .unwrap();
            let mut dec = xdr::Decoder::new(&r);
            assert_eq!(dec.get_u32().unwrap(), Status::Ok.as_u32());
            // Continuation with the canonical verifier is accepted.
            let r = srv
                .call(&env, &sys_cred(), proc3::READDIR, &args(1, READDIR_VERF))
                .unwrap();
            let mut dec = xdr::Decoder::new(&r);
            assert_eq!(dec.get_u32().unwrap(), Status::Ok.as_u32());
            // Continuation with a stale verifier must be refused.
            let r = srv
                .call(&env, &sys_cred(), proc3::READDIR, &args(1, 0xBAD))
                .unwrap();
            let mut dec = xdr::Decoder::new(&r);
            assert_eq!(dec.get_u32().unwrap(), Status::BadCookie.as_u32());
        });
        sim.run();
    }

    #[test]
    fn write_verifiers_differ_between_server_instances() {
        let sim = Simulation::new();
        let (_fs_a, a) = setup(&sim);
        let (_fs_b, b) = setup(&sim);
        assert_ne!(a.write_verf(), b.write_verf());
    }
}
