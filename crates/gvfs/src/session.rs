//! Middleware session management.
//!
//! Grid middleware establishes per-user file system sessions: it
//! allocates a short-lived identity, registers it with the server-side
//! proxy's identity mapper, starts a client-side proxy configured for the
//! user/application, and later drives consistency by signalling the proxy
//! to write back and flush its caches (paper §3.2.1: "a session-based
//! consistency model ... middleware-controlled writing back and flushing
//! of cache contents").

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use oncrpc::{AuthGvfs, OpaqueAuth};
use simnet::Env;
use vfs::Fs;

use crate::identity::{IdentityMapper, MappedAccount};
use crate::meta::{
    generate_content_map, generate_zero_map, meta_name_for, FileChannelSpec, MetaFile,
};
use crate::proxy::{FlushReport, Proxy};

/// Chunk granularity for middleware-generated content maps (matches the
/// channel's transfer chunk so recipe records line up with `FETCH_BLOBS`
/// payloads).
pub const CONTENT_MAP_CHUNK_BYTES: u32 = 1 << 20;

/// Middleware-side helpers: things the Grid middleware does outside the
/// data path (meta-data generation, account allocation).
pub struct Middleware {
    next_session: AtomicU64,
    next_shadow_uid: AtomicU64,
}

impl Middleware {
    /// Fresh middleware instance.
    pub fn new() -> Self {
        Middleware {
            next_session: AtomicU64::new(1),
            next_shadow_uid: AtomicU64::new(6000),
        }
    }

    /// Pre-process a file on the image server: generate its meta-data
    /// (zero map and/or file-channel actions) and store it in the same
    /// directory under the special meta name. This happens when the VM
    /// image is archived, off the critical path, so it costs no
    /// simulation time.
    pub fn generate_meta(
        fs: &mut Fs,
        dir_path: &str,
        file_name: &str,
        block_size: u32,
        with_zero_map: bool,
        channel: Option<FileChannelSpec>,
    ) -> vfs::FsResult<MetaFile> {
        Self::generate_meta_chunked(
            fs,
            dir_path,
            file_name,
            block_size,
            CONTENT_MAP_CHUNK_BYTES,
            with_zero_map,
            channel,
        )
    }

    /// [`Middleware::generate_meta`] with an explicit content-map record
    /// size. The zero map and the content map serve different masters:
    /// the zero map granularity (`block_size`) follows the NFS block
    /// size, while the content-map record size sets the dedup/transfer
    /// unit — fleet runs use small records so a cold transfer is many
    /// round-trips and proxy-tier batching has something to coalesce.
    pub fn generate_meta_chunked(
        fs: &mut Fs,
        dir_path: &str,
        file_name: &str,
        block_size: u32,
        content_chunk_bytes: u32,
        with_zero_map: bool,
        channel: Option<FileChannelSpec>,
    ) -> vfs::FsResult<MetaFile> {
        let dir = fs.resolve(dir_path)?;
        let subject = fs.lookup(dir, file_name)?;
        let file_size = fs.size(subject)?;
        let zero_map = if with_zero_map {
            Some(generate_zero_map(fs, subject, block_size)?)
        } else {
            None
        };
        // Channel-transferred files also get a content map: the recipe
        // lets the client proxy skip every chunk its CAS already holds.
        let content_map = if channel.is_some() {
            Some(generate_content_map(fs, subject, content_chunk_bytes)?)
        } else {
            None
        };
        let meta = MetaFile {
            file_size,
            zero_map,
            channel,
            content_map,
        };
        let meta_name = meta_name_for(file_name);
        // Replace any stale meta file.
        let _ = fs.remove(dir, &meta_name, 0);
        let mh = fs.create(dir, &meta_name, 0o600, 0)?;
        fs.write(mh, 0, &meta.to_bytes(), 0)?;
        Ok(meta)
    }

    /// Establish a session: allocate a session id + shadow account,
    /// register with the server-side mapper, and mint the user credential.
    pub fn establish_session(
        &self,
        mapper: &IdentityMapper,
        grid_user: &str,
        now_ns: u64,
        lifetime_ns: u64,
    ) -> (u64, OpaqueAuth) {
        let session_id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let uid = self.next_shadow_uid.fetch_add(1, Ordering::Relaxed) as u32;
        let expires_ns = now_ns.saturating_add(lifetime_ns);
        mapper.register(
            session_id,
            MappedAccount {
                uid,
                gid: uid,
                expires_ns,
            },
        );
        let cred = OpaqueAuth::gvfs(&AuthGvfs {
            session_id,
            grid_user: grid_user.to_string(),
            expires_at: expires_ns,
        });
        (session_id, cred)
    }
}

impl Default for Middleware {
    fn default() -> Self {
        Self::new()
    }
}

/// A live GVFS session: the client-side proxy plus the credential the
/// middleware allocated for it.
pub struct GvfsSession {
    /// Session identifier.
    pub session_id: u64,
    /// Middleware credential presented on every call.
    pub cred: OpaqueAuth,
    /// The session's client-side proxy.
    pub proxy: Arc<Proxy>,
    mapper: Option<Arc<IdentityMapper>>,
}

impl GvfsSession {
    /// Bundle an established session.
    pub fn new(
        session_id: u64,
        cred: OpaqueAuth,
        proxy: Arc<Proxy>,
        mapper: Option<Arc<IdentityMapper>>,
    ) -> Self {
        GvfsSession {
            session_id,
            cred,
            proxy,
            mapper,
        }
    }

    /// Middleware signal: write back dirty cache contents (e.g. when the
    /// user goes off-line or the session is idle).
    pub fn flush(&self, env: &Env) -> FlushReport {
        self.proxy.flush(env, &self.cred)
    }

    /// End the session: flush, then revoke the identity.
    pub fn terminate(&self, env: &Env) -> FlushReport {
        let report = self.flush(env);
        if let Some(m) = &self.mapper {
            m.revoke(self.session_id);
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn establish_session_registers_identity() {
        let mw = Middleware::new();
        let mapper = IdentityMapper::new();
        let (sid, cred) = mw.establish_session(&mapper, "alice", 0, 1_000_000);
        assert_eq!(mapper.len(), 1);
        let mapped = mapper.map(&cred, 10).unwrap();
        assert!(mapped.as_sys().unwrap().uid >= 6000);
        // Second session gets a different id and shadow uid.
        let (sid2, cred2) = mw.establish_session(&mapper, "bob", 0, 1_000_000);
        assert_ne!(sid, sid2);
        let u1 = mapper.map(&cred, 10).unwrap().as_sys().unwrap().uid;
        let u2 = mapper.map(&cred2, 10).unwrap().as_sys().unwrap().uid;
        assert_ne!(u1, u2);
    }

    #[test]
    fn generate_meta_writes_meta_file_next_to_subject() {
        let mut fs = Fs::new(0);
        let root = fs.root();
        let dir = fs.mkdir(root, "images", 0o755, 0).unwrap();
        let f = fs.create(dir, "vm.vmss", 0o644, 0).unwrap();
        fs.setattr(f, Some(128 * 1024), None, 0).unwrap();
        fs.write(f, 0, &[1u8; 100], 0).unwrap();
        let meta = Middleware::generate_meta(
            &mut fs,
            "images",
            "vm.vmss",
            32 * 1024,
            true,
            Some(FileChannelSpec {
                compress: true,
                writeback: false,
            }),
        )
        .unwrap();
        assert_eq!(meta.file_size, 128 * 1024);
        let zm = meta.zero_map.as_ref().unwrap();
        assert!(!zm.is_zero(0));
        assert!(zm.is_zero(1));
        // The meta file exists with the right contents.
        let mh = fs.resolve("images/.gvfs_meta.vm.vmss").unwrap();
        let size = fs.size(mh).unwrap();
        let (bytes, _) = fs.read(mh, 0, size as usize, 0).unwrap();
        assert_eq!(MetaFile::from_bytes(&bytes).unwrap(), meta);
        // Regeneration replaces, not duplicates.
        Middleware::generate_meta(&mut fs, "images", "vm.vmss", 32 * 1024, false, None).unwrap();
        let mh2 = fs.resolve("images/.gvfs_meta.vm.vmss").unwrap();
        let size2 = fs.size(mh2).unwrap();
        let (bytes2, _) = fs.read(mh2, 0, size2 as usize, 0).unwrap();
        assert!(MetaFile::from_bytes(&bytes2).unwrap().zero_map.is_none());
    }
}
