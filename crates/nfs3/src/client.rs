//! Typed NFSv3 client stub: one method per procedure, decoding replies
//! into Rust types. The kernel-client model ([`crate::kernel`]) sits on
//! top of this; GVFS proxies use it too when they need to issue their own
//! upstream calls (e.g. fetching meta-data files).

use oncrpc::{RpcClient, RpcError};
use simnet::Env;
use vfs::{Attr, Handle};
use xdr::{Decode, Decoder, Encode};

use crate::args::*;
use crate::proto::*;
use crate::results::*;

/// Errors from typed NFS operations.
#[derive(Debug, Clone, PartialEq)]
pub enum NfsError {
    /// RPC-level failure.
    Rpc(RpcError),
    /// Server returned a non-OK NFS status.
    Status(Status),
    /// Reply failed to decode.
    Decode(xdr::Error),
}

impl From<RpcError> for NfsError {
    fn from(e: RpcError) -> Self {
        NfsError::Rpc(e)
    }
}

impl From<xdr::Error> for NfsError {
    fn from(e: xdr::Error) -> Self {
        NfsError::Decode(e)
    }
}

impl std::fmt::Display for NfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NfsError::Rpc(e) => write!(f, "rpc: {e}"),
            NfsError::Status(s) => write!(f, "nfs status: {s:?}"),
            NfsError::Decode(e) => write!(f, "decode: {e}"),
        }
    }
}

impl std::error::Error for NfsError {}

/// Result alias for NFS client calls.
pub type NfsResult<T> = Result<T, NfsError>;

/// Typed NFSv3 + MOUNT client over an [`RpcClient`].
#[derive(Clone)]
pub struct Nfs3Client {
    rpc: RpcClient,
}

impl Nfs3Client {
    /// Wrap an RPC client stub.
    pub fn new(rpc: RpcClient) -> Self {
        Nfs3Client { rpc }
    }

    /// Access the underlying RPC stub.
    pub fn rpc(&self) -> &RpcClient {
        &self.rpc
    }

    fn call(&self, env: &Env, proc: u32, args: &[u8]) -> NfsResult<xdr::Bytes> {
        Ok(self.rpc.call(env, NFS_PROGRAM, NFS_V3, proc, args)?)
    }

    /// MOUNT: obtain the root handle of an export.
    pub fn mount(&self, env: &Env, export: &str) -> NfsResult<Handle> {
        let args = xdr::to_bytes(&export.to_string());
        let res = self
            .rpc
            .call(env, MOUNT_PROGRAM, MOUNT_V3, mountproc::MNT, &args)?;
        let mut dec = Decoder::new(&res);
        let status = dec.get_u32()?;
        if status != 0 {
            return Err(NfsError::Status(
                Status::from_u32(status).unwrap_or(Status::Io),
            ));
        }
        let fh = Fh3::decode(&mut dec)?;
        Ok(fh.0)
    }

    /// NULL ping (useful for RTT measurement).
    pub fn null(&self, env: &Env) -> NfsResult<()> {
        self.call(env, proc3::NULL, &[])?;
        Ok(())
    }

    /// GETATTR.
    pub fn getattr(&self, env: &Env, h: Handle) -> NfsResult<Attr> {
        decode_getattr(&self.call(env, proc3::GETATTR, &xdr::to_bytes(&Fh3(h)))?)
    }

    /// SETATTR (size/mode subset).
    pub fn setattr(
        &self,
        env: &Env,
        h: Handle,
        size: Option<u64>,
        mode: Option<u32>,
    ) -> NfsResult<()> {
        let args = SetattrArgs {
            file: Fh3(h),
            attrs: Sattr3 { mode, size },
        };
        open(&self.call(env, proc3::SETATTR, &xdr::to_bytes(&args))?)?;
        Ok(())
    }

    /// LOOKUP a name, returning the handle and its attributes.
    pub fn lookup(&self, env: &Env, dir: Handle, name: &str) -> NfsResult<(Handle, Option<Attr>)> {
        let args = DirOpArgs3 {
            dir: Fh3(dir),
            name: name.to_string(),
        };
        decode_lookup(&self.call(env, proc3::LOOKUP, &xdr::to_bytes(&args))?)
    }

    /// READLINK.
    pub fn readlink(&self, env: &Env, h: Handle) -> NfsResult<String> {
        let res = self.call(env, proc3::READLINK, &xdr::to_bytes(&Fh3(h)))?;
        let mut dec = open(&res)?;
        let _attr = PostOpAttr::decode(&mut dec)?;
        Ok(dec.get_string()?)
    }

    /// READ up to `count` bytes at `offset`.
    pub fn read(&self, env: &Env, h: Handle, offset: u64, count: u32) -> NfsResult<ReadRes> {
        let args = ReadArgs {
            file: Fh3(h),
            offset,
            count,
        };
        decode_read(&self.call(env, proc3::READ, &xdr::to_bytes(&args))?)
    }

    /// WRITE `data` at `offset` with the given stability. The payload is
    /// only borrowed, and copied once: into the call that goes on the
    /// wire.
    pub fn write(
        &self,
        env: &Env,
        h: Handle,
        offset: u64,
        data: impl AsRef<[u8]>,
        stable: StableHow,
    ) -> NfsResult<WriteRes> {
        let data = data.as_ref();
        let args = WriteArgs {
            file: Fh3(h),
            offset,
            count: data.len() as u32,
            stable,
            data,
        };
        let args_len = WriteArgs::HEAD_LEN + xdr::padded(data.len());
        let reply =
            self.rpc
                .call_with(env, NFS_PROGRAM, NFS_V3, proc3::WRITE, args_len, |enc| {
                    args.encode(enc)
                })?;
        decode_write(&reply)
    }

    fn create_like(&self, env: &Env, proc: u32, args: &[u8]) -> NfsResult<Handle> {
        let res = self.call(env, proc, args)?;
        let mut dec = open(&res)?;
        let has_fh = dec.get_bool()?;
        if !has_fh {
            return Err(NfsError::Decode(xdr::Error::InvalidDiscriminant(0)));
        }
        Ok(Fh3::decode(&mut dec)?.0)
    }

    /// CREATE (UNCHECKED).
    pub fn create(&self, env: &Env, dir: Handle, name: &str) -> NfsResult<Handle> {
        let args = CreateArgs {
            whereto: DirOpArgs3 {
                dir: Fh3(dir),
                name: name.to_string(),
            },
            attrs: Sattr3 {
                mode: Some(0o644),
                size: None,
            },
        };
        self.create_like(env, proc3::CREATE, &xdr::to_bytes(&args))
    }

    /// MKDIR.
    pub fn mkdir(&self, env: &Env, dir: Handle, name: &str) -> NfsResult<Handle> {
        let args = CreateArgs {
            whereto: DirOpArgs3 {
                dir: Fh3(dir),
                name: name.to_string(),
            },
            attrs: Sattr3 {
                mode: Some(0o755),
                size: None,
            },
        };
        self.create_like(env, proc3::MKDIR, &xdr::to_bytes(&args))
    }

    /// SYMLINK.
    pub fn symlink(&self, env: &Env, dir: Handle, name: &str, target: &str) -> NfsResult<Handle> {
        let args = SymlinkArgs {
            whereto: DirOpArgs3 {
                dir: Fh3(dir),
                name: name.to_string(),
            },
            attrs: Sattr3::default(),
            target: target.to_string(),
        };
        self.create_like(env, proc3::SYMLINK, &xdr::to_bytes(&args))
    }

    fn remove_like(&self, env: &Env, proc: u32, dir: Handle, name: &str) -> NfsResult<()> {
        let args = DirOpArgs3 {
            dir: Fh3(dir),
            name: name.to_string(),
        };
        open(&self.call(env, proc, &xdr::to_bytes(&args))?)?;
        Ok(())
    }

    /// REMOVE a file or symlink.
    pub fn remove(&self, env: &Env, dir: Handle, name: &str) -> NfsResult<()> {
        self.remove_like(env, proc3::REMOVE, dir, name)
    }

    /// RMDIR.
    pub fn rmdir(&self, env: &Env, dir: Handle, name: &str) -> NfsResult<()> {
        self.remove_like(env, proc3::RMDIR, dir, name)
    }

    /// RENAME.
    pub fn rename(
        &self,
        env: &Env,
        from_dir: Handle,
        from_name: &str,
        to_dir: Handle,
        to_name: &str,
    ) -> NfsResult<()> {
        let args = RenameArgs {
            from: DirOpArgs3 {
                dir: Fh3(from_dir),
                name: from_name.to_string(),
            },
            to: DirOpArgs3 {
                dir: Fh3(to_dir),
                name: to_name.to_string(),
            },
        };
        open(&self.call(env, proc3::RENAME, &xdr::to_bytes(&args))?)?;
        Ok(())
    }

    /// READDIR: full listing (issues as many calls as cookies require).
    pub fn readdir(&self, env: &Env, dir: Handle) -> NfsResult<Vec<DirEntry>> {
        let mut out = Vec::new();
        let mut cookie = 0u64;
        loop {
            let args = ReaddirArgs {
                dir: Fh3(dir),
                cookie,
                cookieverf: if cookie == 0 {
                    0
                } else {
                    crate::server::READDIR_VERF
                },
                count: 8192,
            };
            let res = self.call(env, proc3::READDIR, &xdr::to_bytes(&args))?;
            let mut dec = open(&res)?;
            let _attr = PostOpAttr::decode(&mut dec)?;
            let _verf = dec.get_u64()?;
            while dec.get_bool()? {
                let fileid = dec.get_u64()?;
                let name = dec.get_string()?;
                cookie = dec.get_u64()?;
                out.push(DirEntry { fileid, name });
            }
            let eof = dec.get_bool()?;
            if eof {
                return Ok(out);
            }
        }
    }

    /// FSINFO.
    pub fn fsinfo(&self, env: &Env, root: Handle) -> NfsResult<FsInfo> {
        let res = self.call(env, proc3::FSINFO, &xdr::to_bytes(&Fh3(root)))?;
        let mut dec = open(&res)?;
        let _attr = PostOpAttr::decode(&mut dec)?;
        let rtmax = dec.get_u32()?;
        let _rtpref = dec.get_u32()?;
        let _rtmult = dec.get_u32()?;
        let wtmax = dec.get_u32()?;
        let _wtpref = dec.get_u32()?;
        let _wtmult = dec.get_u32()?;
        let dtpref = dec.get_u32()?;
        let maxfilesize = dec.get_u64()?;
        Ok(FsInfo {
            rtmax,
            wtmax,
            dtpref,
            maxfilesize,
        })
    }

    /// COMMIT unstable writes.
    pub fn commit(&self, env: &Env, h: Handle) -> NfsResult<u64> {
        let args = CommitArgs {
            file: Fh3(h),
            offset: 0,
            count: 0,
        };
        decode_commit(&self.call(env, proc3::COMMIT, &xdr::to_bytes(&args))?)
    }

    /// Resolve a slash-separated path with repeated LOOKUPs.
    pub fn lookup_path(&self, env: &Env, root: Handle, path: &str) -> NfsResult<Handle> {
        let mut h = root;
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            let (next, _) = self.lookup(env, h, comp)?;
            h = next;
        }
        Ok(h)
    }
}
