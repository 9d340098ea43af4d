//! Inode-based in-memory filesystem.
//!
//! This is the storage substrate exported by the simulated kernel NFS
//! servers (image servers, data servers) and used for compute-server local
//! disks. It supports the full set of namespace operations NFSv3 needs —
//! lookup, create, mkdir, symlink, readlink, remove, rmdir, rename,
//! readdir — plus offset reads/writes backed by sparse storage, and
//! generation-checked file handles so stale handles are detected like on a
//! real server.

use std::collections::BTreeMap;

use crate::payload::{Payload, PayloadRef};
use crate::sparse::SparseBytes;

/// Inode number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FileId(pub u64);

/// Opaque, generation-checked file handle (what NFS hands to clients).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Handle {
    /// Inode number.
    pub fileid: u64,
    /// Inode generation, bumped on reuse, so stale handles are caught.
    pub generation: u64,
}

impl Handle {
    /// Serialize to the 16-byte opaque form used on the wire.
    pub fn to_bytes(self) -> [u8; 16] {
        let mut b = [0u8; 16];
        b[..8].copy_from_slice(&self.fileid.to_be_bytes());
        b[8..].copy_from_slice(&self.generation.to_be_bytes());
        b
    }

    /// Parse the 16-byte opaque form.
    pub fn from_bytes(b: &[u8]) -> Option<Handle> {
        if b.len() != 16 {
            return None;
        }
        Some(Handle {
            fileid: u64::from_be_bytes(b[..8].try_into().unwrap()),
            generation: u64::from_be_bytes(b[8..].try_into().unwrap()),
        })
    }
}

/// File type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileType {
    /// Regular file.
    Regular,
    /// Directory.
    Directory,
    /// Symbolic link.
    Symlink,
}

/// Inode attributes (the information NFS `fattr3` reports).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Attr {
    /// File type.
    pub ftype: FileType,
    /// Permission bits.
    pub mode: u32,
    /// Link count.
    pub nlink: u32,
    /// Owner uid.
    pub uid: u32,
    /// Owner gid.
    pub gid: u32,
    /// Logical size in bytes.
    pub size: u64,
    /// Bytes actually allocated.
    pub used: u64,
    /// Inode number.
    pub fileid: u64,
    /// Last access time, nanoseconds on the simulation clock.
    pub atime_ns: u64,
    /// Last modification time.
    pub mtime_ns: u64,
    /// Last attribute change time.
    pub ctime_ns: u64,
}

/// Filesystem errors, mirroring the NFSv3 status codes that matter here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsError {
    /// No such file or directory.
    NotFound,
    /// Operation on a non-directory where a directory was required.
    NotDir,
    /// Directory where a file was required.
    IsDir,
    /// Target already exists.
    Exists,
    /// Directory not empty.
    NotEmpty,
    /// Handle generation mismatch or never-allocated inode.
    Stale,
    /// Invalid name (empty, contains '/', or '.'/'..').
    InvalidName,
    /// Operation not supported on this file type.
    BadType,
}

/// Result alias for filesystem operations.
pub type FsResult<T> = Result<T, FsError>;

enum NodeData {
    File(SparseBytes),
    Dir(BTreeMap<String, u64>),
    Symlink(String),
}

struct Inode {
    generation: u64,
    mode: u32,
    uid: u32,
    gid: u32,
    nlink: u32,
    atime_ns: u64,
    mtime_ns: u64,
    ctime_ns: u64,
    data: NodeData,
}

/// The in-memory filesystem.
pub struct Fs {
    inodes: Vec<Option<Inode>>,
    free: Vec<usize>,
    next_generation: u64,
    root: Handle,
}

impl Fs {
    /// Create a filesystem with an empty root directory.
    pub fn new(now_ns: u64) -> Self {
        let root_inode = Inode {
            generation: 1,
            mode: 0o755,
            uid: 0,
            gid: 0,
            nlink: 2,
            atime_ns: now_ns,
            mtime_ns: now_ns,
            ctime_ns: now_ns,
            data: NodeData::Dir(BTreeMap::new()),
        };
        Fs {
            inodes: vec![Some(root_inode)],
            free: Vec::new(),
            next_generation: 2,
            root: Handle {
                fileid: 0,
                generation: 1,
            },
        }
    }

    /// Handle of the root directory.
    pub fn root(&self) -> Handle {
        self.root
    }

    fn check(&self, h: Handle) -> FsResult<&Inode> {
        self.inodes
            .get(h.fileid as usize)
            .and_then(|o| o.as_ref())
            .filter(|i| i.generation == h.generation)
            .ok_or(FsError::Stale)
    }

    fn check_mut(&mut self, h: Handle) -> FsResult<&mut Inode> {
        self.inodes
            .get_mut(h.fileid as usize)
            .and_then(|o| o.as_mut())
            .filter(|i| i.generation == h.generation)
            .ok_or(FsError::Stale)
    }

    fn alloc(&mut self, inode: Inode) -> Handle {
        let generation = inode.generation;
        let fileid = match self.free.pop() {
            Some(slot) => {
                self.inodes[slot] = Some(inode);
                slot as u64
            }
            None => {
                self.inodes.push(Some(inode));
                (self.inodes.len() - 1) as u64
            }
        };
        Handle { fileid, generation }
    }

    fn validate_name(name: &str) -> FsResult<()> {
        if name.is_empty() || name == "." || name == ".." || name.contains('/') {
            return Err(FsError::InvalidName);
        }
        Ok(())
    }

    /// Attributes for a handle.
    pub fn getattr(&self, h: Handle) -> FsResult<Attr> {
        let i = self.check(h)?;
        let (ftype, size, used) = match &i.data {
            NodeData::File(s) => (FileType::Regular, s.len(), s.allocated()),
            NodeData::Dir(d) => (FileType::Directory, d.len() as u64 * 32, 0),
            NodeData::Symlink(t) => (FileType::Symlink, t.len() as u64, 0),
        };
        Ok(Attr {
            ftype,
            mode: i.mode,
            nlink: i.nlink,
            uid: i.uid,
            gid: i.gid,
            size,
            used,
            fileid: h.fileid,
            atime_ns: i.atime_ns,
            mtime_ns: i.mtime_ns,
            ctime_ns: i.ctime_ns,
        })
    }

    /// Truncate/extend a file and/or update mode and times.
    pub fn setattr(
        &mut self,
        h: Handle,
        size: Option<u64>,
        mode: Option<u32>,
        now_ns: u64,
    ) -> FsResult<Attr> {
        let i = self.check_mut(h)?;
        if let Some(sz) = size {
            match &mut i.data {
                NodeData::File(s) => s.truncate(sz),
                _ => return Err(FsError::BadType),
            }
            i.mtime_ns = now_ns;
        }
        if let Some(m) = mode {
            i.mode = m;
        }
        i.ctime_ns = now_ns;
        self.getattr(h)
    }

    /// Look up `name` in directory `dir`.
    pub fn lookup(&self, dir: Handle, name: &str) -> FsResult<Handle> {
        let i = self.check(dir)?;
        let entries = match &i.data {
            NodeData::Dir(d) => d,
            _ => return Err(FsError::NotDir),
        };
        let &fileid = entries.get(name).ok_or(FsError::NotFound)?;
        let target = self.inodes[fileid as usize]
            .as_ref()
            .ok_or(FsError::Stale)?;
        Ok(Handle {
            fileid,
            generation: target.generation,
        })
    }

    /// Resolve a slash-separated path from the root.
    pub fn resolve(&self, path: &str) -> FsResult<Handle> {
        let mut h = self.root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            h = self.lookup(h, comp)?;
        }
        Ok(h)
    }

    /// Create a regular file in `dir`.
    pub fn create(&mut self, dir: Handle, name: &str, mode: u32, now_ns: u64) -> FsResult<Handle> {
        Self::validate_name(name)?;
        self.check(dir)?;
        {
            let i = self.check(dir)?;
            match &i.data {
                NodeData::Dir(d) => {
                    if d.contains_key(name) {
                        return Err(FsError::Exists);
                    }
                }
                _ => return Err(FsError::NotDir),
            }
        }
        let generation = self.next_generation;
        self.next_generation += 1;
        let h = self.alloc(Inode {
            generation,
            mode,
            uid: 0,
            gid: 0,
            nlink: 1,
            atime_ns: now_ns,
            mtime_ns: now_ns,
            ctime_ns: now_ns,
            data: NodeData::File(SparseBytes::new()),
        });
        let dir_inode = self.check_mut(dir)?;
        match &mut dir_inode.data {
            NodeData::Dir(d) => {
                d.insert(name.to_string(), h.fileid);
            }
            _ => unreachable!(),
        }
        dir_inode.mtime_ns = now_ns;
        Ok(h)
    }

    /// Create a directory in `dir`.
    pub fn mkdir(&mut self, dir: Handle, name: &str, mode: u32, now_ns: u64) -> FsResult<Handle> {
        Self::validate_name(name)?;
        {
            let i = self.check(dir)?;
            match &i.data {
                NodeData::Dir(d) => {
                    if d.contains_key(name) {
                        return Err(FsError::Exists);
                    }
                }
                _ => return Err(FsError::NotDir),
            }
        }
        let generation = self.next_generation;
        self.next_generation += 1;
        let h = self.alloc(Inode {
            generation,
            mode,
            uid: 0,
            gid: 0,
            nlink: 2,
            atime_ns: now_ns,
            mtime_ns: now_ns,
            ctime_ns: now_ns,
            data: NodeData::Dir(BTreeMap::new()),
        });
        let dir_inode = self.check_mut(dir)?;
        match &mut dir_inode.data {
            NodeData::Dir(d) => {
                d.insert(name.to_string(), h.fileid);
            }
            _ => unreachable!(),
        }
        dir_inode.nlink += 1;
        dir_inode.mtime_ns = now_ns;
        Ok(h)
    }

    /// Create a symbolic link in `dir` pointing at `target`.
    pub fn symlink(
        &mut self,
        dir: Handle,
        name: &str,
        target: &str,
        now_ns: u64,
    ) -> FsResult<Handle> {
        Self::validate_name(name)?;
        {
            let i = self.check(dir)?;
            match &i.data {
                NodeData::Dir(d) => {
                    if d.contains_key(name) {
                        return Err(FsError::Exists);
                    }
                }
                _ => return Err(FsError::NotDir),
            }
        }
        let generation = self.next_generation;
        self.next_generation += 1;
        let h = self.alloc(Inode {
            generation,
            mode: 0o777,
            uid: 0,
            gid: 0,
            nlink: 1,
            atime_ns: now_ns,
            mtime_ns: now_ns,
            ctime_ns: now_ns,
            data: NodeData::Symlink(target.to_string()),
        });
        let dir_inode = self.check_mut(dir)?;
        match &mut dir_inode.data {
            NodeData::Dir(d) => {
                d.insert(name.to_string(), h.fileid);
            }
            _ => unreachable!(),
        }
        dir_inode.mtime_ns = now_ns;
        Ok(h)
    }

    /// Read a symlink's target.
    pub fn readlink(&self, h: Handle) -> FsResult<String> {
        match &self.check(h)?.data {
            NodeData::Symlink(t) => Ok(t.clone()),
            _ => Err(FsError::BadType),
        }
    }

    /// Remove a regular file or symlink from `dir`.
    pub fn remove(&mut self, dir: Handle, name: &str, now_ns: u64) -> FsResult<()> {
        let target = self.lookup(dir, name)?;
        {
            let t = self.check(target)?;
            if matches!(t.data, NodeData::Dir(_)) {
                return Err(FsError::IsDir);
            }
        }
        let dir_inode = self.check_mut(dir)?;
        match &mut dir_inode.data {
            NodeData::Dir(d) => {
                d.remove(name);
            }
            _ => return Err(FsError::NotDir),
        }
        dir_inode.mtime_ns = now_ns;
        self.inodes[target.fileid as usize] = None;
        self.free.push(target.fileid as usize);
        Ok(())
    }

    /// Remove an empty directory from `dir`.
    pub fn rmdir(&mut self, dir: Handle, name: &str, now_ns: u64) -> FsResult<()> {
        let target = self.lookup(dir, name)?;
        {
            let t = self.check(target)?;
            match &t.data {
                NodeData::Dir(d) => {
                    if !d.is_empty() {
                        return Err(FsError::NotEmpty);
                    }
                }
                _ => return Err(FsError::NotDir),
            }
        }
        let dir_inode = self.check_mut(dir)?;
        match &mut dir_inode.data {
            NodeData::Dir(d) => {
                d.remove(name);
            }
            _ => return Err(FsError::NotDir),
        }
        dir_inode.nlink -= 1;
        dir_inode.mtime_ns = now_ns;
        self.inodes[target.fileid as usize] = None;
        self.free.push(target.fileid as usize);
        Ok(())
    }

    /// Rename `from_name` in `from_dir` to `to_name` in `to_dir`,
    /// replacing a non-directory target if present.
    pub fn rename(
        &mut self,
        from_dir: Handle,
        from_name: &str,
        to_dir: Handle,
        to_name: &str,
        now_ns: u64,
    ) -> FsResult<()> {
        Self::validate_name(to_name)?;
        let moving = self.lookup(from_dir, from_name)?;
        // If the destination exists, it must be removable (non-dir here;
        // directory-over-directory rename is not needed by our workloads).
        if let Ok(existing) = self.lookup(to_dir, to_name) {
            if existing != moving {
                let e = self.check(existing)?;
                if matches!(e.data, NodeData::Dir(_)) {
                    return Err(FsError::IsDir);
                }
                self.remove(to_dir, to_name, now_ns)?;
            } else {
                return Ok(()); // rename onto itself
            }
        }
        {
            let from_inode = self.check_mut(from_dir)?;
            match &mut from_inode.data {
                NodeData::Dir(d) => {
                    d.remove(from_name);
                }
                _ => return Err(FsError::NotDir),
            }
            from_inode.mtime_ns = now_ns;
        }
        let to_inode = self.check_mut(to_dir)?;
        match &mut to_inode.data {
            NodeData::Dir(d) => {
                d.insert(to_name.to_string(), moving.fileid);
            }
            _ => return Err(FsError::NotDir),
        }
        to_inode.mtime_ns = now_ns;
        Ok(())
    }

    /// List a directory's entries (sorted by name).
    pub fn readdir(&self, dir: Handle) -> FsResult<Vec<(String, Handle)>> {
        let i = self.check(dir)?;
        let entries = match &i.data {
            NodeData::Dir(d) => d,
            _ => return Err(FsError::NotDir),
        };
        Ok(entries
            .iter()
            .map(|(name, &fileid)| {
                let generation = self.inodes[fileid as usize]
                    .as_ref()
                    .map(|i| i.generation)
                    .unwrap_or(0);
                (name.clone(), Handle { fileid, generation })
            })
            .collect())
    }

    /// Read up to `len` bytes at `offset`; short only at EOF. Returns the
    /// data, by reference to the file's chunks, and an EOF flag.
    pub fn read(
        &mut self,
        h: Handle,
        offset: u64,
        len: usize,
        now_ns: u64,
    ) -> FsResult<(Payload, bool)> {
        let i = self.check_mut(h)?;
        let s = match &i.data {
            NodeData::File(s) => s,
            NodeData::Dir(_) => return Err(FsError::IsDir),
            NodeData::Symlink(_) => return Err(FsError::BadType),
        };
        let data = s.read_range(offset, len);
        let eof = offset + data.len() as u64 >= s.len();
        i.atime_ns = now_ns;
        Ok((data, eof))
    }

    /// Write `data` at `offset`, extending the file as needed. Returns the
    /// new file size.
    pub fn write<'a>(
        &mut self,
        h: Handle,
        offset: u64,
        data: impl Into<PayloadRef<'a>>,
        now_ns: u64,
    ) -> FsResult<u64> {
        let i = self.check_mut(h)?;
        let s = match &mut i.data {
            NodeData::File(s) => s,
            NodeData::Dir(_) => return Err(FsError::IsDir),
            NodeData::Symlink(_) => return Err(FsError::BadType),
        };
        s.write_at(offset, data);
        i.mtime_ns = now_ns;
        i.ctime_ns = now_ns;
        Ok(s.len())
    }

    /// Whether a file range is entirely zero (holes included). Used by the
    /// GVFS zero-map generator.
    pub fn is_zero_range(&self, h: Handle, offset: u64, len: usize) -> FsResult<bool> {
        let i = self.check(h)?;
        match &i.data {
            NodeData::File(s) => Ok(s.is_zero_range(offset, len)),
            _ => Err(FsError::BadType),
        }
    }

    /// Logical size of a file.
    pub fn size(&self, h: Handle) -> FsResult<u64> {
        Ok(self.getattr(h)?.size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fs() -> Fs {
        Fs::new(0)
    }

    #[test]
    fn create_lookup_read_write() {
        let mut f = fs();
        let root = f.root();
        let file = f.create(root, "data.bin", 0o644, 1).unwrap();
        assert_eq!(f.lookup(root, "data.bin").unwrap(), file);
        f.write(file, 5, b"world", 2).unwrap();
        let (data, eof) = f.read(file, 0, 100, 3).unwrap();
        assert_eq!(data, b"\0\0\0\0\0world");
        assert!(eof);
    }

    #[test]
    fn duplicate_create_fails() {
        let mut f = fs();
        let root = f.root();
        f.create(root, "x", 0o644, 0).unwrap();
        assert_eq!(f.create(root, "x", 0o644, 0), Err(FsError::Exists));
    }

    #[test]
    fn invalid_names_are_rejected() {
        let mut f = fs();
        let root = f.root();
        for bad in ["", ".", "..", "a/b"] {
            assert_eq!(f.create(root, bad, 0o644, 0), Err(FsError::InvalidName));
        }
    }

    #[test]
    fn mkdir_and_nested_resolve() {
        let mut f = fs();
        let root = f.root();
        let images = f.mkdir(root, "images", 0o755, 0).unwrap();
        let vm1 = f.mkdir(images, "vm1", 0o755, 0).unwrap();
        let disk = f.create(vm1, "vm.vmdk", 0o644, 0).unwrap();
        assert_eq!(f.resolve("/images/vm1/vm.vmdk").unwrap(), disk);
        assert_eq!(f.resolve("images/vm1").unwrap(), vm1);
        assert_eq!(f.resolve("images/nope"), Err(FsError::NotFound));
    }

    #[test]
    fn symlink_round_trips() {
        let mut f = fs();
        let root = f.root();
        let l = f
            .symlink(root, "link", "/images/golden/vm.vmdk", 0)
            .unwrap();
        assert_eq!(f.readlink(l).unwrap(), "/images/golden/vm.vmdk");
        assert_eq!(f.getattr(l).unwrap().ftype, FileType::Symlink);
    }

    #[test]
    fn remove_then_handle_is_stale() {
        let mut f = fs();
        let root = f.root();
        let file = f.create(root, "x", 0o644, 0).unwrap();
        f.remove(root, "x", 1).unwrap();
        assert_eq!(f.getattr(file), Err(FsError::Stale));
        assert_eq!(f.lookup(root, "x"), Err(FsError::NotFound));
    }

    #[test]
    fn inode_reuse_bumps_generation() {
        let mut f = fs();
        let root = f.root();
        let a = f.create(root, "a", 0o644, 0).unwrap();
        f.remove(root, "a", 1).unwrap();
        let b = f.create(root, "b", 0o644, 2).unwrap();
        // Slot reused but generation differs: old handle stays stale.
        assert_eq!(a.fileid, b.fileid);
        assert_ne!(a.generation, b.generation);
        assert_eq!(f.getattr(a), Err(FsError::Stale));
        assert!(f.getattr(b).is_ok());
    }

    #[test]
    fn rmdir_requires_empty() {
        let mut f = fs();
        let root = f.root();
        let d = f.mkdir(root, "d", 0o755, 0).unwrap();
        f.create(d, "f", 0o644, 0).unwrap();
        assert_eq!(f.rmdir(root, "d", 1), Err(FsError::NotEmpty));
        f.remove(d, "f", 2).unwrap();
        f.rmdir(root, "d", 3).unwrap();
        assert_eq!(f.lookup(root, "d"), Err(FsError::NotFound));
    }

    #[test]
    fn rename_moves_and_replaces() {
        let mut f = fs();
        let root = f.root();
        let a = f.create(root, "a", 0o644, 0).unwrap();
        f.write(a, 0, b"AAA", 0).unwrap();
        let b = f.create(root, "b", 0o644, 0).unwrap();
        f.write(b, 0, b"BBB", 0).unwrap();
        f.rename(root, "a", root, "b", 1).unwrap();
        assert_eq!(f.lookup(root, "a"), Err(FsError::NotFound));
        let got = f.lookup(root, "b").unwrap();
        assert_eq!(got, a);
        let (data, _) = f.read(got, 0, 3, 2).unwrap();
        assert_eq!(data, b"AAA");
    }

    #[test]
    fn setattr_truncates_and_updates_times() {
        let mut f = fs();
        let root = f.root();
        let file = f.create(root, "x", 0o644, 0).unwrap();
        f.write(file, 0, &[1u8; 100], 5).unwrap();
        let attr = f.setattr(file, Some(10), Some(0o600), 9).unwrap();
        assert_eq!(attr.size, 10);
        assert_eq!(attr.mode, 0o600);
        assert_eq!(attr.ctime_ns, 9);
    }

    #[test]
    fn readdir_is_sorted() {
        let mut f = fs();
        let root = f.root();
        for name in ["zeta", "alpha", "mid"] {
            f.create(root, name, 0o644, 0).unwrap();
        }
        let names: Vec<String> = f
            .readdir(root)
            .unwrap()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
    }

    #[test]
    fn directory_reads_fail_with_isdir() {
        let mut f = fs();
        let root = f.root();
        assert_eq!(f.read(root, 0, 10, 0).unwrap_err(), FsError::IsDir);
        assert_eq!(f.write(root, 0, b"x", 0).unwrap_err(), FsError::IsDir);
    }

    #[test]
    fn handle_bytes_round_trip() {
        let h = Handle {
            fileid: 77,
            generation: 12345,
        };
        assert_eq!(Handle::from_bytes(&h.to_bytes()), Some(h));
        assert_eq!(Handle::from_bytes(&[0u8; 3]), None);
    }
}
