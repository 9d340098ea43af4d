//! NFSv3 wire protocol definitions (RFC 1813).
//!
//! Program 100003 version 3, plus the MOUNT protocol (program 100005
//! version 3) used to obtain the root file handle of an export.
//!
//! The GVFS proxy operates at exactly this level: it decodes the kernel
//! client's calls, consults its disk caches and meta-data, and forwards
//! misses upstream — so these types are shared by the server, the client,
//! and the proxy.

use vfs::{Attr, FileType, FsError, Handle};
use xdr::{Decode, Decoder, Encode, Encoder, Error as XdrError, Result as XdrResult};

/// NFS program number.
pub const NFS_PROGRAM: u32 = 100_003;
/// NFS protocol version implemented here.
pub const NFS_V3: u32 = 3;
/// MOUNT program number.
pub const MOUNT_PROGRAM: u32 = 100_005;
/// MOUNT protocol version.
pub const MOUNT_V3: u32 = 3;

/// Maximum READ/WRITE payload the protocol allows here (the paper's "up
/// to the NFS protocol limit of 32KB").
pub const MAX_BLOCK: u32 = 32 * 1024;

/// Maximum file size the server advertises in FSINFO (`maxfilesize`).
/// No READ or WRITE range may end past it ([`crate::args`] refuses one
/// that does), so every hop can add an offset and a count it decoded.
pub const MAX_FILE_SIZE: u64 = u64::MAX >> 1;

/// NFSv3 procedure numbers.
pub mod proc3 {
    /// Do nothing (ping).
    pub const NULL: u32 = 0;
    /// Get attributes.
    pub const GETATTR: u32 = 1;
    /// Set attributes.
    pub const SETATTR: u32 = 2;
    /// Look up a name in a directory.
    pub const LOOKUP: u32 = 3;
    /// Check access rights.
    pub const ACCESS: u32 = 4;
    /// Read a symlink target.
    pub const READLINK: u32 = 5;
    /// Read from a file.
    pub const READ: u32 = 6;
    /// Write to a file.
    pub const WRITE: u32 = 7;
    /// Create a regular file.
    pub const CREATE: u32 = 8;
    /// Create a directory.
    pub const MKDIR: u32 = 9;
    /// Create a symlink.
    pub const SYMLINK: u32 = 10;
    /// Create a device node (unimplemented).
    pub const MKNOD: u32 = 11;
    /// Remove a file.
    pub const REMOVE: u32 = 12;
    /// Remove a directory.
    pub const RMDIR: u32 = 13;
    /// Rename.
    pub const RENAME: u32 = 14;
    /// Hard link (unimplemented).
    pub const LINK: u32 = 15;
    /// Read directory entries.
    pub const READDIR: u32 = 16;
    /// Read directory entries with attributes (unimplemented).
    pub const READDIRPLUS: u32 = 17;
    /// Filesystem statistics.
    pub const FSSTAT: u32 = 18;
    /// Static filesystem info.
    pub const FSINFO: u32 = 19;
    /// Pathconf (unimplemented).
    pub const PATHCONF: u32 = 20;
    /// Commit unstable writes to stable storage.
    pub const COMMIT: u32 = 21;
}

/// Human-readable name of an NFSv3 procedure number, for metric names
/// and reports ("RPC count by procedure").
pub fn proc3_name(proc: u32) -> &'static str {
    match proc {
        proc3::NULL => "NULL",
        proc3::GETATTR => "GETATTR",
        proc3::SETATTR => "SETATTR",
        proc3::LOOKUP => "LOOKUP",
        proc3::ACCESS => "ACCESS",
        proc3::READLINK => "READLINK",
        proc3::READ => "READ",
        proc3::WRITE => "WRITE",
        proc3::CREATE => "CREATE",
        proc3::MKDIR => "MKDIR",
        proc3::SYMLINK => "SYMLINK",
        proc3::MKNOD => "MKNOD",
        proc3::REMOVE => "REMOVE",
        proc3::RMDIR => "RMDIR",
        proc3::RENAME => "RENAME",
        proc3::LINK => "LINK",
        proc3::READDIR => "READDIR",
        proc3::READDIRPLUS => "READDIRPLUS",
        proc3::FSSTAT => "FSSTAT",
        proc3::FSINFO => "FSINFO",
        proc3::PATHCONF => "PATHCONF",
        proc3::COMMIT => "COMMIT",
        _ => "UNKNOWN",
    }
}

/// MOUNT procedure numbers.
pub mod mountproc {
    /// Ping.
    pub const NULL: u32 = 0;
    /// Mount an export: path → root file handle.
    pub const MNT: u32 = 1;
    /// Unmount.
    pub const UMNT: u32 = 3;
}

/// NFSv3 status codes (subset used by this implementation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Status {
    /// Success.
    Ok,
    /// Not owner.
    Perm,
    /// No such entry.
    NoEnt,
    /// Hard I/O error.
    Io,
    /// Access denied.
    Access,
    /// Already exists.
    Exist,
    /// Not a directory.
    NotDir,
    /// Is a directory.
    IsDir,
    /// Invalid argument.
    Inval,
    /// Directory not empty.
    NotEmpty,
    /// Stale file handle.
    Stale,
    /// Malformed handle.
    BadHandle,
    /// Operation not supported.
    NotSupp,
    /// READDIR cookie is no longer valid (verifier mismatch).
    BadCookie,
    /// Server fault.
    ServerFault,
}

impl Status {
    /// Wire value.
    pub fn as_u32(self) -> u32 {
        match self {
            Status::Ok => 0,
            Status::Perm => 1,
            Status::NoEnt => 2,
            Status::Io => 5,
            Status::Access => 13,
            Status::Exist => 17,
            Status::NotDir => 20,
            Status::IsDir => 21,
            Status::Inval => 22,
            Status::NotEmpty => 66,
            Status::Stale => 70,
            Status::BadHandle => 10_001,
            Status::BadCookie => 10_003,
            Status::NotSupp => 10_004,
            Status::ServerFault => 10_006,
        }
    }

    /// Parse a wire value.
    pub fn from_u32(v: u32) -> XdrResult<Status> {
        Ok(match v {
            0 => Status::Ok,
            1 => Status::Perm,
            2 => Status::NoEnt,
            5 => Status::Io,
            13 => Status::Access,
            17 => Status::Exist,
            20 => Status::NotDir,
            21 => Status::IsDir,
            22 => Status::Inval,
            66 => Status::NotEmpty,
            70 => Status::Stale,
            10_001 => Status::BadHandle,
            10_003 => Status::BadCookie,
            10_004 => Status::NotSupp,
            10_006 => Status::ServerFault,
            other => return Err(XdrError::InvalidDiscriminant(other)),
        })
    }
}

impl From<FsError> for Status {
    fn from(e: FsError) -> Status {
        match e {
            FsError::NotFound => Status::NoEnt,
            FsError::NotDir => Status::NotDir,
            FsError::IsDir => Status::IsDir,
            FsError::Exists => Status::Exist,
            FsError::NotEmpty => Status::NotEmpty,
            FsError::Stale => Status::Stale,
            FsError::InvalidName => Status::Inval,
            FsError::BadType => Status::Inval,
        }
    }
}

/// An NFS file handle: the opaque bytes of a [`vfs::Handle`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fh3(pub Handle);

impl Encode for Fh3 {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_opaque_var(&self.0.to_bytes());
    }
}

impl Decode<'_> for Fh3 {
    fn decode(dec: &mut Decoder<'_>) -> XdrResult<Self> {
        let bytes = dec.get_opaque_var_ref()?;
        Handle::from_bytes(bytes)
            .map(Fh3)
            .ok_or(XdrError::InvalidDiscriminant(bytes.len() as u32))
    }
}

fn put_time(enc: &mut Encoder, ns: u64) {
    enc.put_u32((ns / 1_000_000_000) as u32);
    enc.put_u32((ns % 1_000_000_000) as u32);
}

fn get_time(dec: &mut Decoder<'_>) -> XdrResult<u64> {
    let s = dec.get_u32()? as u64;
    let n = dec.get_u32()? as u64;
    Ok(s * 1_000_000_000 + n)
}

/// `fattr3`: full attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fattr3(pub Attr);

impl Encode for Fattr3 {
    fn encode(&self, enc: &mut Encoder) {
        let a = &self.0;
        enc.put_u32(match a.ftype {
            FileType::Regular => 1,
            FileType::Directory => 2,
            FileType::Symlink => 5,
        });
        enc.put_u32(a.mode);
        enc.put_u32(a.nlink);
        enc.put_u32(a.uid);
        enc.put_u32(a.gid);
        enc.put_u64(a.size);
        enc.put_u64(a.used);
        enc.put_u32(0); // rdev major
        enc.put_u32(0); // rdev minor
        enc.put_u64(1); // fsid
        enc.put_u64(a.fileid);
        put_time(enc, a.atime_ns);
        put_time(enc, a.mtime_ns);
        put_time(enc, a.ctime_ns);
    }
}

impl Decode<'_> for Fattr3 {
    fn decode(dec: &mut Decoder<'_>) -> XdrResult<Self> {
        let ftype = match dec.get_u32()? {
            1 => FileType::Regular,
            2 => FileType::Directory,
            5 => FileType::Symlink,
            other => return Err(XdrError::InvalidDiscriminant(other)),
        };
        let mode = dec.get_u32()?;
        let nlink = dec.get_u32()?;
        let uid = dec.get_u32()?;
        let gid = dec.get_u32()?;
        let size = dec.get_u64()?;
        let used = dec.get_u64()?;
        let _rdev_major = dec.get_u32()?;
        let _rdev_minor = dec.get_u32()?;
        let _fsid = dec.get_u64()?;
        let fileid = dec.get_u64()?;
        let atime_ns = get_time(dec)?;
        let mtime_ns = get_time(dec)?;
        let ctime_ns = get_time(dec)?;
        Ok(Fattr3(Attr {
            ftype,
            mode,
            nlink,
            uid,
            gid,
            size,
            used,
            fileid,
            atime_ns,
            mtime_ns,
            ctime_ns,
        }))
    }
}

/// `post_op_attr`: optional attributes attached to most replies.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostOpAttr(pub Option<Attr>);

impl Encode for PostOpAttr {
    fn encode(&self, enc: &mut Encoder) {
        match &self.0 {
            Some(a) => {
                enc.put_bool(true);
                Fattr3(a.clone()).encode(enc);
            }
            None => enc.put_bool(false),
        }
    }
}

impl Decode<'_> for PostOpAttr {
    fn decode(dec: &mut Decoder<'_>) -> XdrResult<Self> {
        if dec.get_bool()? {
            Ok(PostOpAttr(Some(Fattr3::decode(dec)?.0)))
        } else {
            Ok(PostOpAttr(None))
        }
    }
}

/// `wcc_data`: weak cache consistency data (we always send empty pre-op
/// and a post-op attribute, which is what the Linux server commonly does).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WccData(pub Option<Attr>);

impl Encode for WccData {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_bool(false); // pre_op_attr: none
        PostOpAttr(self.0.clone()).encode(enc);
    }
}

impl Decode<'_> for WccData {
    fn decode(dec: &mut Decoder<'_>) -> XdrResult<Self> {
        let has_pre = dec.get_bool()?;
        if has_pre {
            // pre_op_attr is (size, mtime, ctime)
            let _size = dec.get_u64()?;
            let _mtime = get_time(dec)?;
            let _ctime = get_time(dec)?;
        }
        Ok(WccData(PostOpAttr::decode(dec)?.0))
    }
}

/// `sattr3`: settable attributes (subset: mode and size).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Sattr3 {
    /// New permission bits, if set.
    pub mode: Option<u32>,
    /// New size, if set.
    pub size: Option<u64>,
}

impl Encode for Sattr3 {
    fn encode(&self, enc: &mut Encoder) {
        match self.mode {
            Some(m) => {
                enc.put_bool(true);
                enc.put_u32(m);
            }
            None => enc.put_bool(false),
        }
        enc.put_bool(false); // uid
        enc.put_bool(false); // gid
        match self.size {
            Some(s) => {
                enc.put_bool(true);
                enc.put_u64(s);
            }
            None => enc.put_bool(false),
        }
        enc.put_u32(0); // atime: DONT_CHANGE
        enc.put_u32(0); // mtime: DONT_CHANGE
    }
}

impl Decode<'_> for Sattr3 {
    fn decode(dec: &mut Decoder<'_>) -> XdrResult<Self> {
        let mode = if dec.get_bool()? {
            Some(dec.get_u32()?)
        } else {
            None
        };
        if dec.get_bool()? {
            let _uid = dec.get_u32()?;
        }
        if dec.get_bool()? {
            let _gid = dec.get_u32()?;
        }
        let size = if dec.get_bool()? {
            Some(dec.get_u64()?)
        } else {
            None
        };
        let atime_how = dec.get_u32()?;
        if atime_how == 2 {
            let _t = get_time(dec)?;
        }
        let mtime_how = dec.get_u32()?;
        if mtime_how == 2 {
            let _t = get_time(dec)?;
        }
        Ok(Sattr3 { mode, size })
    }
}

/// `diropargs3`: directory handle + name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirOpArgs3 {
    /// Directory handle.
    pub dir: Fh3,
    /// Entry name.
    pub name: String,
}

xdr::record! { DirOpArgs3 { dir, name } }

/// Write stability levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StableHow {
    /// Server may keep the data in memory.
    Unstable,
    /// Data must be on stable storage before replying.
    DataSync,
    /// Data and metadata must be stable before replying.
    FileSync,
}

impl StableHow {
    /// Wire value.
    pub fn as_u32(self) -> u32 {
        match self {
            StableHow::Unstable => 0,
            StableHow::DataSync => 1,
            StableHow::FileSync => 2,
        }
    }

    /// Parse wire value.
    pub fn from_u32(v: u32) -> XdrResult<Self> {
        Ok(match v {
            0 => StableHow::Unstable,
            1 => StableHow::DataSync,
            2 => StableHow::FileSync,
            other => return Err(XdrError::InvalidDiscriminant(other)),
        })
    }
}

/// READ3 results (success arm).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReadRes {
    /// Post-op file attributes.
    pub attr: Option<Attr>,
    /// Bytes actually read: a view of the reply they arrived in.
    pub data: xdr::Bytes,
    /// Whether this read reached end-of-file.
    pub eof: bool,
}

/// WRITE3 results (success arm).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WriteRes {
    /// Post-op file attributes.
    pub attr: Option<Attr>,
    /// Bytes committed by this call.
    pub count: u32,
    /// Stability the server actually provided.
    pub committed: StableHow,
    /// Write verifier (changes on server restart).
    pub verf: u64,
}

/// One READDIR entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DirEntry {
    /// Inode number.
    pub fileid: u64,
    /// Entry name.
    pub name: String,
}

/// FSINFO results (static properties).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FsInfo {
    /// Maximum/preferred read transfer size.
    pub rtmax: u32,
    /// Maximum/preferred write transfer size.
    pub wtmax: u32,
    /// Preferred readdir size.
    pub dtpref: u32,
    /// Maximum file size.
    pub maxfilesize: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn attr() -> Attr {
        Attr {
            ftype: FileType::Regular,
            mode: 0o644,
            nlink: 1,
            uid: 500,
            gid: 500,
            size: 1_700_000_000,
            used: 300_000_000,
            fileid: 42,
            atime_ns: 1_500_000_123,
            mtime_ns: 2_000_000_456,
            ctime_ns: 3_000_000_789,
        }
    }

    #[test]
    fn fattr3_round_trips() {
        let f = Fattr3(attr());
        let b = xdr::to_bytes(&f);
        // fattr3 is 84 bytes on the wire (RFC 1813).
        assert_eq!(b.len(), 84);
        let back: Fattr3 = xdr::from_bytes(&b).unwrap();
        assert_eq!(back, f);
    }

    #[test]
    fn post_op_attr_round_trips_both_arms() {
        for v in [PostOpAttr(Some(attr())), PostOpAttr(None)] {
            let back: PostOpAttr = xdr::from_bytes(&xdr::to_bytes(&v)).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn fh3_round_trips() {
        let fh = Fh3(Handle {
            fileid: 7,
            generation: 99,
        });
        let back: Fh3 = xdr::from_bytes(&xdr::to_bytes(&fh)).unwrap();
        assert_eq!(back, fh);
    }

    #[test]
    fn sattr3_round_trips() {
        for v in [
            Sattr3 {
                mode: Some(0o600),
                size: Some(4096),
            },
            Sattr3::default(),
        ] {
            let back: Sattr3 = xdr::from_bytes(&xdr::to_bytes(&v)).unwrap();
            assert_eq!(back, v);
        }
    }

    #[test]
    fn status_codes_round_trip() {
        for s in [
            Status::Ok,
            Status::NoEnt,
            Status::Io,
            Status::Access,
            Status::Exist,
            Status::NotDir,
            Status::IsDir,
            Status::Inval,
            Status::NotEmpty,
            Status::Stale,
            Status::BadHandle,
            Status::BadCookie,
            Status::NotSupp,
            Status::ServerFault,
        ] {
            assert_eq!(Status::from_u32(s.as_u32()).unwrap(), s);
        }
        assert!(Status::from_u32(12345).is_err());
    }

    #[test]
    fn stable_how_round_trips() {
        for s in [
            StableHow::Unstable,
            StableHow::DataSync,
            StableHow::FileSync,
        ] {
            assert_eq!(StableHow::from_u32(s.as_u32()).unwrap(), s);
        }
    }

    #[test]
    fn fs_errors_map_to_protocol_codes() {
        assert_eq!(Status::from(FsError::NotFound), Status::NoEnt);
        assert_eq!(Status::from(FsError::Stale), Status::Stale);
        assert_eq!(Status::from(FsError::NotEmpty), Status::NotEmpty);
    }
}
