//! Host-side file I/O abstraction.
//!
//! The VM monitor model and the workload generators perform file I/O
//! through [`FileIo`], so the same guest trace can run against:
//!
//! * [`LocalIo`] — a local-disk filesystem on the compute server
//!   (the paper's **Local** scenario),
//! * `nfs3::KernelClient` — a kernel NFS client over a LAN or WAN mount,
//!   optionally behind GVFS proxies (the **LAN/WAN/WAN+C** scenarios), or
//! * a [`MountTable`] composing several of the above, which is how a
//!   cloned VM's local directory holds symlinks into the NFS-mounted
//!   image-server directory.

use std::rc::Rc;

use simnet::Env;
use simnet::Shared;

use crate::disk::Disk;
use crate::fs::{Attr, Fs, FsError, Handle};
use crate::lru::PageCache;
use crate::payload::Payload;

/// Errors surfaced by host file I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// No such file or directory.
    NotFound,
    /// Already exists.
    Exists,
    /// Component is not a directory.
    NotDir,
    /// Target is a directory.
    IsDir,
    /// Directory not empty.
    NotEmpty,
    /// Stale handle.
    Stale,
    /// Invalid name.
    InvalidName,
    /// Wrong file type for the operation.
    BadType,
    /// Transport or protocol failure (NFS backends).
    Io(String),
    /// Operation unsupported by this backend.
    Unsupported,
}

impl From<FsError> for IoError {
    fn from(e: FsError) -> Self {
        match e {
            FsError::NotFound => IoError::NotFound,
            FsError::Exists => IoError::Exists,
            FsError::NotDir => IoError::NotDir,
            FsError::IsDir => IoError::IsDir,
            FsError::NotEmpty => IoError::NotEmpty,
            FsError::Stale => IoError::Stale,
            FsError::InvalidName => IoError::InvalidName,
            FsError::BadType => IoError::BadType,
        }
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(m) => write!(f, "I/O error: {m}"),
            other => write!(f, "{other:?}"),
        }
    }
}

impl std::error::Error for IoError {}

/// Result alias for host file I/O.
pub type IoResult<T> = Result<T, IoError>;

/// Blocking (in virtual time) file operations against one mounted
/// filesystem. Paths are relative to the mount root; handles come from
/// `lookup_path`/`create_path` and stay valid until removal.
pub trait FileIo {
    /// Resolve a path to a handle.
    fn lookup_path(&self, env: &Env, path: &str) -> IoResult<Handle>;
    /// Attributes of a handle.
    fn getattr(&self, env: &Env, h: Handle) -> IoResult<Attr>;
    /// Read up to `len` bytes at `offset` (short only at EOF), by
    /// reference to the backend's cached bytes.
    fn read(&self, env: &Env, h: Handle, offset: u64, len: u32) -> IoResult<Payload>;
    /// Write bytes at `offset`.
    fn write(&self, env: &Env, h: Handle, offset: u64, data: &Payload) -> IoResult<()>;
    /// Create a regular file (parent directories must exist).
    fn create_path(&self, env: &Env, path: &str) -> IoResult<Handle>;
    /// Create a directory.
    fn mkdir_path(&self, env: &Env, path: &str) -> IoResult<Handle>;
    /// Create a symlink at `path` pointing to `target`.
    fn symlink_path(&self, env: &Env, path: &str, target: &str) -> IoResult<()>;
    /// Read a symlink's target.
    fn readlink(&self, env: &Env, h: Handle) -> IoResult<String>;
    /// List directory entries (names only).
    fn readdir_path(&self, env: &Env, path: &str) -> IoResult<Vec<String>>;
    /// Remove a file or symlink.
    fn remove_path(&self, env: &Env, path: &str) -> IoResult<()>;
    /// Truncate/extend a file.
    fn set_size(&self, env: &Env, h: Handle, size: u64) -> IoResult<()>;
    /// Close-to-open: flush this file's dirty data.
    fn close(&self, env: &Env, h: Handle) -> IoResult<()>;
    /// Flush everything (unmount / session end).
    fn sync(&self, env: &Env) -> IoResult<()>;
}

/// Split a path into (parent, name).
pub fn split_path(path: &str) -> IoResult<(&str, &str)> {
    let trimmed = path.trim_end_matches('/');
    if trimmed.is_empty() {
        return Err(IoError::InvalidName);
    }
    match trimmed.rfind('/') {
        Some(i) => Ok((&trimmed[..i], &trimmed[i + 1..])),
        None => Ok(("", trimmed)),
    }
}

// ---------------------------------------------------------------------------
// LocalIo: local-disk filesystem with a page-cache model
// ---------------------------------------------------------------------------

/// Configuration for [`LocalIo`]'s page-cache model.
#[derive(Debug, Clone, Copy)]
pub struct LocalIoConfig {
    /// Page/block size for cache accounting.
    pub block_size: u32,
    /// Page cache capacity in bytes.
    pub cache_bytes: u64,
    /// CPU cost of a cache-hit block copy.
    pub hit_cost: simnet::SimDuration,
}

impl Default for LocalIoConfig {
    fn default() -> Self {
        LocalIoConfig {
            block_size: 32 * 1024,
            cache_bytes: 512 * 1024 * 1024,
            hit_cost: simnet::SimDuration::from_micros(20),
        }
    }
}

struct LocalState {
    fs: Fs,
    cache: PageCache<(), ()>,
    last_block_read: Option<(u64, u64)>,
}

/// Local-disk backend: a [`Fs`] plus a [`Disk`] timing model and an LRU
/// page cache. Reads hit the cache or pay disk time (sequential reads are
/// detected and skip positioning); writes are write-back into the page
/// cache, flushed on [`FileIo::close`]/[`FileIo::sync`].
pub struct LocalIo {
    state: Shared<LocalState>,
    disk: Disk,
    cfg: LocalIoConfig,
}

impl LocalIo {
    /// Create a local filesystem over `disk`.
    pub fn new(disk: Disk, cfg: LocalIoConfig, now_ns: u64) -> Rc<Self> {
        Rc::new(LocalIo {
            state: Shared::new(LocalState {
                fs: Fs::new(now_ns),
                cache: PageCache::new(((cfg.cache_bytes / cfg.block_size as u64) as usize).max(1)),
                last_block_read: None,
            }),
            disk,
            cfg,
        })
    }

    /// Run an arbitrary operation against the underlying [`Fs`] (used by
    /// scenario setup code to pre-populate images without timing cost).
    pub fn with_fs<R>(&self, f: impl FnOnce(&mut Fs) -> R) -> R {
        f(&mut self.state.lock().fs)
    }

    /// The page cache from most to least recently used: each block as
    /// `(fileid, block)`, with whether it is dirty.
    pub fn cached_blocks(&self) -> Vec<((u64, u64), bool)> {
        let st = self.state.lock();
        st.cache
            .iter_mru()
            .map(|(k, ())| (*k, st.cache.is_dirty(k)))
            .collect()
    }

    /// The first and last block of `len > 0` bytes at `offset`.
    fn block_range(&self, offset: u64, len: usize) -> (u64, u64) {
        let bs = self.cfg.block_size as u64;
        (offset / bs, (offset + len as u64 - 1) / bs)
    }

    /// Charge time for touching blocks `[first..=last]` of `fileid`.
    fn charge_read(&self, env: &Env, fileid: u64, first: u64, last: u64) {
        for b in first..=last {
            let (hit, sequential, evicted) = {
                let mut st = self.state.lock();
                let hit = st.cache.get(&(fileid, b)).is_some();
                let sequential = st.last_block_read == Some((fileid, b.wrapping_sub(1)));
                st.last_block_read = Some((fileid, b));
                let evicted = (!hit).then(|| st.cache.fill((fileid, b), ()).1);
                (hit, sequential, evicted.flatten())
            };
            if let Some((_, (), Some(()))) = evicted {
                // Evicted dirty page: background write-back coalesces, so
                // charge streaming time.
                self.disk.stream_io(env, self.cfg.block_size as u64);
                env.sleep(self.cfg.hit_cost);
            } else if hit {
                env.sleep(self.cfg.hit_cost);
            } else if sequential {
                self.disk.stream_io(env, self.cfg.block_size as u64);
            } else {
                self.disk.random_io(env, self.cfg.block_size as u64);
            }
        }
    }

    fn charge_write(&self, env: &Env, fileid: u64, first: u64, last: u64) {
        for b in first..=last {
            let evicted = self.state.lock().cache.insert((fileid, b), (), ());
            let evicted_dirty = matches!(evicted, Some((_, (), Some(()))));
            env.sleep(self.cfg.hit_cost);
            if evicted_dirty {
                self.disk.stream_io(env, self.cfg.block_size as u64);
            }
        }
    }

    fn flush_dirty(&self, env: &Env, only_file: Option<u64>) {
        // Take the dirty blocks out of the cache's index, then pay one
        // sequential streaming charge — matching how a real page cache
        // coalesces write-back.
        let flushed = self.state.lock().cache.take_dirty(only_file).len() as u64;
        if flushed > 0 {
            self.disk
                .sequential_io(env, flushed * self.cfg.block_size as u64);
        }
    }
}

impl FileIo for LocalIo {
    fn lookup_path(&self, _env: &Env, path: &str) -> IoResult<Handle> {
        Ok(self.state.lock().fs.resolve(path)?)
    }

    fn getattr(&self, _env: &Env, h: Handle) -> IoResult<Attr> {
        Ok(self.state.lock().fs.getattr(h)?)
    }

    fn read(&self, env: &Env, h: Handle, offset: u64, len: u32) -> IoResult<Payload> {
        let data = {
            let mut st = self.state.lock();
            let now = env.now().as_nanos();
            let (data, _eof) = st.fs.read(h, offset, len as usize, now)?;
            data
        };
        if !data.is_empty() {
            let (first, last) = self.block_range(offset, data.len());
            self.charge_read(env, h.fileid, first, last);
        }
        Ok(data)
    }

    fn write(&self, env: &Env, h: Handle, offset: u64, data: &Payload) -> IoResult<()> {
        {
            let mut st = self.state.lock();
            let now = env.now().as_nanos();
            st.fs.write(h, offset, data, now)?;
        }
        if !data.is_empty() {
            let (first, last) = self.block_range(offset, data.len());
            self.charge_write(env, h.fileid, first, last);
        }
        Ok(())
    }

    fn create_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        let (parent, name) = split_path(path)?;
        let mut st = self.state.lock();
        let dir = st.fs.resolve(parent)?;
        let now = env.now().as_nanos();
        Ok(st.fs.create(dir, name, 0o644, now)?)
    }

    fn mkdir_path(&self, env: &Env, path: &str) -> IoResult<Handle> {
        let (parent, name) = split_path(path)?;
        let mut st = self.state.lock();
        let dir = st.fs.resolve(parent)?;
        let now = env.now().as_nanos();
        Ok(st.fs.mkdir(dir, name, 0o755, now)?)
    }

    fn symlink_path(&self, env: &Env, path: &str, target: &str) -> IoResult<()> {
        let (parent, name) = split_path(path)?;
        let mut st = self.state.lock();
        let dir = st.fs.resolve(parent)?;
        let now = env.now().as_nanos();
        st.fs.symlink(dir, name, target, now)?;
        Ok(())
    }

    fn readlink(&self, _env: &Env, h: Handle) -> IoResult<String> {
        Ok(self.state.lock().fs.readlink(h)?)
    }

    fn readdir_path(&self, _env: &Env, path: &str) -> IoResult<Vec<String>> {
        let st = self.state.lock();
        let dir = st.fs.resolve(path)?;
        Ok(st.fs.readdir(dir)?.into_iter().map(|(n, _)| n).collect())
    }

    fn remove_path(&self, env: &Env, path: &str) -> IoResult<()> {
        let (parent, name) = split_path(path)?;
        let mut st = self.state.lock();
        let dir = st.fs.resolve(parent)?;
        let now = env.now().as_nanos();
        match st.fs.remove(dir, name, now) {
            Ok(()) => Ok(()),
            Err(FsError::IsDir) => Ok(st.fs.rmdir(dir, name, now)?),
            Err(e) => Err(e.into()),
        }
    }

    fn set_size(&self, env: &Env, h: Handle, size: u64) -> IoResult<()> {
        let mut st = self.state.lock();
        let now = env.now().as_nanos();
        st.fs.setattr(h, Some(size), None, now)?;
        Ok(())
    }

    fn close(&self, env: &Env, h: Handle) -> IoResult<()> {
        self.flush_dirty(env, Some(h.fileid));
        Ok(())
    }

    fn sync(&self, env: &Env) -> IoResult<()> {
        self.flush_dirty(env, None);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// MountTable: prefix-routed composition of FileIo backends
// ---------------------------------------------------------------------------

/// Routes absolute paths to mounted backends by longest prefix, and
/// resolves symlinks across mounts (a cloned VM's local `.vmdk` symlink
/// points into the NFS mount). This is the compute-server "host kernel
/// VFS" glue.
pub struct MountTable {
    mounts: Vec<(String, Rc<dyn FileIo>)>,
}

/// A handle plus the backend it belongs to, as returned by
/// [`MountTable::open`].
#[derive(Clone)]
pub struct OpenFile {
    /// Backend serving this file.
    pub io: Rc<dyn FileIo>,
    /// Backend-local handle.
    pub handle: Handle,
}

impl MountTable {
    /// Empty table.
    pub fn new() -> Self {
        MountTable { mounts: Vec::new() }
    }

    /// Mount `io` at absolute path `prefix` (e.g. `/vm` or `/mnt/gvfs`).
    pub fn mount(mut self, prefix: impl Into<String>, io: Rc<dyn FileIo>) -> Self {
        let mut p = prefix.into();
        if !p.starts_with('/') {
            p.insert(0, '/');
        }
        let trimmed = p.trim_end_matches('/');
        let key = if trimmed.is_empty() {
            "/".to_string()
        } else {
            trimmed.to_string()
        };
        self.mounts.push((key, io));
        // Longest prefix first.
        self.mounts.sort_by_key(|m| std::cmp::Reverse(m.0.len()));
        self
    }

    /// Find the backend and mount-relative path for an absolute path.
    pub fn route(&self, path: &str) -> IoResult<(Rc<dyn FileIo>, String)> {
        for (prefix, io) in &self.mounts {
            let rel = if prefix == "/" {
                Some(path.trim_start_matches('/'))
            } else if path == prefix {
                Some("")
            } else {
                path.strip_prefix(prefix.as_str())
                    .and_then(|r| r.strip_prefix('/'))
            };
            if let Some(rel) = rel {
                return Ok((io.clone(), rel.to_string()));
            }
        }
        Err(IoError::NotFound)
    }

    /// Resolve a path to an open file, following symlinks (bounded depth)
    /// across mounts.
    pub fn open(&self, env: &Env, path: &str) -> IoResult<OpenFile> {
        let mut current = path.to_string();
        for _ in 0..8 {
            let (io, rel) = self.route(&current)?;
            let h = io.lookup_path(env, &rel)?;
            let attr = io.getattr(env, h)?;
            if attr.ftype == crate::fs::FileType::Symlink {
                let target = io.readlink(env, h)?;
                current = if target.starts_with('/') {
                    target
                } else {
                    let (dir, _) = split_path(&current)?;
                    format!("{dir}/{target}")
                };
                continue;
            }
            return Ok(OpenFile { io, handle: h });
        }
        Err(IoError::Io("symlink loop".into()))
    }
}

impl Default for MountTable {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskModel;
    use simnet::{SimDuration, Simulation};

    fn local(sim: &Simulation) -> Rc<LocalIo> {
        LocalIo::new(
            Disk::new(&sim.handle(), DiskModel::scsi_2004()),
            LocalIoConfig::default(),
            0,
        )
    }

    #[test]
    fn local_io_create_write_read_round_trip() {
        let sim = Simulation::new();
        let io = local(&sim);
        sim.spawn("t", move |env| {
            io.mkdir_path(&env, "vm").unwrap();
            let h = io.create_path(&env, "vm/disk.vmdk").unwrap();
            io.write(&env, h, 0, &Payload::from(b"hello vm")).unwrap();
            let back = io.read(&env, h, 0, 100).unwrap();
            assert_eq!(back, b"hello vm");
            io.close(&env, h).unwrap();
        });
        sim.run();
    }

    #[test]
    fn cached_rereads_are_much_faster_than_cold() {
        let sim = Simulation::new();
        let io = local(&sim);
        sim.spawn("t", move |env| {
            let h = io.create_path(&env, "big").unwrap();
            io.write(&env, h, 0, &Payload::from(vec![7u8; 1 << 20]))
                .unwrap();
            io.close(&env, h).unwrap();
            let t0 = env.now();
            io.read(&env, h, 0, 1 << 20).unwrap();
            let warm = env.now() - t0;
            // All blocks were just written => cache-resident; a warm read
            // of 32 blocks costs only hit time.
            assert!(warm < SimDuration::from_millis(10), "warm read took {warm}");
        });
        sim.run();
    }

    #[test]
    fn mount_table_routes_longest_prefix() {
        let sim = Simulation::new();
        let a = local(&sim);
        let b = local(&sim);
        let table = MountTable::new()
            .mount("/", a.clone())
            .mount("/mnt/images", b.clone());
        sim.spawn("t", move |env| {
            b.create_path(&env, "golden.vmdk").unwrap();
            a.mkdir_path(&env, "tmp").unwrap();
            a.create_path(&env, "tmp/x").unwrap();
            assert!(table.open(&env, "/mnt/images/golden.vmdk").is_ok());
            assert!(table.open(&env, "/tmp/x").is_ok());
            assert!(table.open(&env, "/mnt/images/nope").is_err());
        });
        sim.run();
    }

    #[test]
    fn symlinks_resolve_across_mounts() {
        let sim = Simulation::new();
        let localfs = local(&sim);
        let images = local(&sim);
        let table = MountTable::new()
            .mount("/", localfs.clone())
            .mount("/mnt/gvfs", images.clone());
        sim.spawn("t", move |env| {
            let gh = images.create_path(&env, "golden.vmdk").unwrap();
            images
                .write(&env, gh, 0, &Payload::from(b"GOLDEN"))
                .unwrap();
            localfs.mkdir_path(&env, "vm").unwrap();
            localfs
                .symlink_path(&env, "vm/disk.vmdk", "/mnt/gvfs/golden.vmdk")
                .unwrap();
            let f = table.open(&env, "/vm/disk.vmdk").unwrap();
            let data = f.io.read(&env, f.handle, 0, 6).unwrap();
            assert_eq!(data, b"GOLDEN");
        });
        sim.run();
    }
}
