//! Middleware session management.
//!
//! Grid middleware "dynamically creates and configures" the pieces of a
//! GVFS session per user and application (paper §3.1, §3.2.1). Each
//! construction is written here, once:
//!
//! * [`ImageServer::start`] — the image-server machine: kernel NFS
//!   server, MOUNT and the file-channel program on a loopback endpoint,
//!   fronted by the identity-mapping server-side proxy.
//! * [`Tier::start`] — one proxy tier over its cache disk, listening on
//!   a link pair: a compute host's client-side proxy, a LAN second-level
//!   cache and a fleet shard are the same call.
//! * [`Middleware::start_session`] — a user's session on a compute
//!   host: a short-lived identity registered with the server-side proxy
//!   plus the client-side tier. The [`GvfsSession`] later drives
//!   consistency by signalling the proxy to write back and flush its
//!   caches (§3.2.1: "a session-based consistency model ...
//!   middleware-controlled writing back and flushing of cache
//!   contents").
//!
//! Creation order and names are part of the contract (DESIGN.md §5.12):
//! telemetry instance names and worker pids are handed out in creation
//! order, and link and process names are metric keys.
//! `tests/session_builder.rs` pins both against a hand-wired chain.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use nfs3::{MountServer, Nfs3Server, ServerConfig};
use oncrpc::{AuthGvfs, Dispatcher, OpaqueAuth, RpcChannel, RpcClient, WireSpec};
use parking_lot::Mutex;
use simnet::{Env, Link, Resource, SimDuration, SimHandle};
use vfs::{Disk, DiskModel, Fs};

use crate::block_cache::{BlockCache, BlockCacheConfig, WritePolicy};
use crate::cas::DedupTuning;
use crate::channel::{ChannelClient, FileChannelServer};
use crate::codec::CodecModel;
use crate::file_cache::FileCache;
use crate::identity::{IdentityMapper, MappedAccount};
use crate::meta::{
    generate_content_map, generate_zero_map, meta_name_for, FileChannelSpec, MetaFile,
};
use crate::proxy::{FlushReport, Proxy, ProxyConfig};

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
    pub fn establish_session(&self, mapper: &IdentityMapper, grid_user: &str) -> (u64, OpaqueAuth) {
        let session_id = self.next_session.fetch_add(1, Ordering::Relaxed);
        let uid = self.next_shadow_uid.fetch_add(1, Ordering::Relaxed) as u32;
        mapper.register(
            session_id,
            MappedAccount {
                uid,
                gid: uid,
                expires_ns: SESSION_LIFETIME_NS,
            },
        );
        let cred = OpaqueAuth::gvfs(&AuthGvfs {
            session_id,
            grid_user: grid_user.to_string(),
            expires_at: SESSION_LIFETIME_NS,
        });
        (session_id, cred)
    }

    /// Start `grid_user`'s session on a compute host: establish the
    /// identity with `mapper` (the image server's), then start the
    /// client-side tier — `cfg`, `block` and `file_bytes` as in
    /// [`Tier::build`] — on a fresh local disk and the host's loopback.
    /// `upstream` is the stub toward the next hop (the image server, or a
    /// LAN tier in front of it) with whatever retransmission policy it
    /// carries; its credential is replaced by the session's.
    pub fn start_session(
        &self,
        mapper: &Arc<IdentityMapper>,
        grid_user: &str,
        upstream: &RpcClient,
        cfg: ProxyConfig,
        block: Option<BlockCacheConfig>,
        file_bytes: Option<u64>,
    ) -> GvfsSession {
        let h = upstream.channel().handle().clone();
        let (session_id, cred) = self.establish_session(mapper, grid_user);
        let cache_disk = Disk::new(&h, DiskModel::scsi_2004());
        let upstream = upstream.with_cred(cred.clone());
        let listen = Listen::loopback(&h);
        let tier = Tier::start(cfg, block, file_bytes, &cache_disk, upstream, listen);
        GvfsSession {
            session_id,
            cred,
            proxy: tier.proxy,
            channel: tier.channel,
            cache_disk,
            mapper: mapper.clone(),
        }
    }
}

impl Default for Middleware {
    fn default() -> Self {
        Self::new()
    }
}

/// A machine's loopback: 1 Gb/s, 20 µs one way.
fn loopback(h: &SimHandle, name: &str) -> Link {
    Link::new(h, name, 1e9, SimDuration::from_micros(20))
}

/// When a session's identity expires: every session in the repository
/// outlives its simulation.
const SESSION_LIFETIME_NS: u64 = u64::MAX / 2;

/// The image-server machine: kernel NFS server + MOUNT + file-channel
/// program on a loopback endpoint, fronted by a server-side GVFS proxy
/// (identity mapping) listening on the external link pair.
pub struct ImageServer {
    /// Image-server filesystem (pre-populate via this).
    pub fs: Arc<Mutex<Fs>>,
    /// Kernel NFS server.
    pub server: Arc<Nfs3Server>,
    /// Identity registry of the server-side proxy.
    pub mapper: Arc<IdentityMapper>,
    /// Channel into the machine from the external network.
    pub channel: RpcChannel,
}

impl ImageServer {
    /// Start a server machine reachable on `listen`. When `proxied` is
    /// false, the external endpoint serves the kernel server directly
    /// (pure-NFS baseline, AUTH_SYS) — no GVFS at all.
    pub fn start(
        h: &SimHandle,
        listen: Listen,
        server_cache_bytes: u64,
        proxied: bool,
    ) -> ImageServer {
        let disk = Disk::new(h, DiskModel::server_array());
        let (fs, server) = Nfs3Server::with_new_fs(
            h,
            disk.clone(),
            ServerConfig {
                memory_cache_bytes: server_cache_bytes,
                ..ServerConfig::default()
            },
        );
        let mount = MountServer::new(fs.clone(), vec!["/".to_string(), "/exports".to_string()]);
        // The paper's image servers are dual-processor nodes: two gzip
        // streams at a time.
        let cpu = Resource::new(h, 2);
        let chan = FileChannelServer::with_cpu(fs.clone(), disk, CodecModel::default(), true, cpu);
        let nfsd = Dispatcher::new()
            .register(server.clone())
            .register(mount)
            .register(chan)
            .into_handler();
        let mapper = Arc::new(IdentityMapper::new());
        let ext = oncrpc::endpoint(h, listen.up, listen.down, listen.wire);
        if proxied {
            let lo = oncrpc::endpoint(
                h,
                loopback(h, "srv-lo-up"),
                loopback(h, "srv-lo-down"),
                WireSpec::plain(),
            );
            lo.listener.serve("nfsd", nfsd, 8);
            let srv_proxy = Proxy::new(
                ProxyConfig {
                    name: "server-proxy".into(),
                    write_policy: WritePolicy::WriteThrough,
                    meta_handling: false,
                    // The server-side proxy sits on the server's own
                    // LAN; a CAS there can never avoid WAN bytes.
                    dedup: DedupTuning::off(),
                    ..ProxyConfig::default()
                },
                RpcClient::new(lo.channel, OpaqueAuth::none()),
            )
            .with_identity(mapper.clone())
            .into_handler();
            ext.listener
                .serve("server-proxy", srv_proxy, listen.workers);
        } else {
            ext.listener.serve("nfsd", nfsd, listen.workers);
        }
        ImageServer {
            fs,
            server,
            mapper,
            channel: ext.channel,
        }
    }
}

/// Where a machine listens: a link pair, its wire encapsulation and the
/// number of worker processes serving it. One of the three shapes the
/// repository's topologies use.
pub struct Listen {
    up: Link,
    down: Link,
    wire: WireSpec,
    workers: usize,
}

impl Listen {
    /// A plain TCP hop served by eight workers, like a kernel `nfsd`.
    pub fn plain(up: Link, down: Link) -> Listen {
        Listen {
            up,
            down,
            wire: WireSpec::plain(),
            workers: 8,
        }
    }

    /// A compute host's loopback (`cl-lo-up` / `cl-lo-down`): where a
    /// client-side proxy listens for the host's kernel NFS client.
    pub fn loopback(h: &SimHandle) -> Listen {
        Listen::plain(loopback(h, "cl-lo-up"), loopback(h, "cl-lo-down"))
    }

    /// An SSH-tunnelled link pair served by sixteen workers: where
    /// other machines reach a proxy over a network (the server-side
    /// proxy, a LAN second-level cache, a fleet shard).
    pub fn tunnel(up: Link, down: Link) -> Listen {
        Listen {
            up,
            down,
            // Cipher throughput of the paper's SSH tunnels.
            wire: WireSpec::ssh_tunnel(50e6),
            workers: 16,
        }
    }
}

/// One running proxy tier.
pub struct Tier {
    /// The tier's proxy.
    pub proxy: Arc<Proxy>,
    /// Channel into the tier from the side it listens on.
    pub channel: RpcChannel,
}

impl Tier {
    /// Build a tier's proxy over its caches on `disk`, without a
    /// listener: `block` attaches a block cache of that geometry,
    /// `file_bytes` a file cache of that capacity plus a channel client
    /// that shares the proxy's `upstream` stub (and so its credential
    /// and retransmission policy). For the caller that serves the proxy
    /// itself, e.g. behind a recording tap; everyone else wants
    /// [`Tier::start`].
    pub fn build(
        cfg: ProxyConfig,
        block: Option<BlockCacheConfig>,
        file_bytes: Option<u64>,
        disk: &Disk,
        upstream: RpcClient,
    ) -> Arc<Proxy> {
        let h = upstream.channel().handle().clone();
        let mut proxy = Proxy::new(cfg, upstream.clone());
        if let Some(geometry) = block {
            proxy = proxy.with_block_cache(Arc::new(BlockCache::new(&h, disk.clone(), geometry)));
        }
        if let Some(bytes) = file_bytes {
            proxy = proxy.with_file_channel(
                Arc::new(FileCache::new(disk.clone(), bytes)),
                ChannelClient::new(upstream, CodecModel::default()),
            );
        }
        proxy.into_handler()
    }

    /// [`Tier::build`], then serve the proxy on `listen` with worker
    /// processes named after `cfg.name`.
    pub fn start(
        cfg: ProxyConfig,
        block: Option<BlockCacheConfig>,
        file_bytes: Option<u64>,
        disk: &Disk,
        upstream: RpcClient,
        listen: Listen,
    ) -> Tier {
        let h = upstream.channel().handle().clone();
        let name = cfg.name.clone();
        let proxy = Tier::build(cfg, block, file_bytes, disk, upstream);
        let ep = oncrpc::endpoint(&h, listen.up, listen.down, listen.wire);
        ep.listener.serve(&name, proxy.clone(), listen.workers);
        Tier {
            proxy,
            channel: ep.channel,
        }
    }
}

/// A live GVFS session: the client-side proxy on a compute host plus the
/// credential the middleware allocated for it.
pub struct GvfsSession {
    /// Session identifier.
    pub session_id: u64,
    /// Middleware credential presented on every call.
    pub cred: OpaqueAuth,
    /// The session's client-side proxy.
    pub proxy: Arc<Proxy>,
    /// Loopback channel the host's kernel client mounts through.
    pub channel: RpcChannel,
    /// The compute host's local disk, which the proxy's caches live on
    /// (the cloning scenarios share it with the host's local I/O).
    pub cache_disk: Disk,
    mapper: Arc<IdentityMapper>,
}

impl GvfsSession {
    /// A client stub into the session: the loopback channel with the
    /// session credential.
    pub fn rpc(&self) -> RpcClient {
        RpcClient::new(self.channel.clone(), self.cred.clone())
    }

    /// Middleware signal: write back dirty cache contents (e.g. when the
    /// user goes off-line or the session is idle).
    pub fn flush(&self, env: &Env) -> FlushReport {
        self.proxy.flush(env, &self.cred)
    }

    /// End the session: flush, then revoke the identity — but only when
    /// the flush drained everything. Failed blocks and files stay queued
    /// for the next flush signal, and the server-side proxy refuses a
    /// revoked credential, so revoking now would strand bytes the guest
    /// was told are safe. On a report with failures the identity stays
    /// live (it still expires) and the caller terminates again.
    pub fn terminate(&self, env: &Env) -> FlushReport {
        let report = self.flush(env);
        if report.failed_blocks == 0 && report.failed_files == 0 {
            self.mapper.revoke(self.session_id);
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
        let (sid, cred) = mw.establish_session(&mapper, "alice");
        assert_eq!(mapper.len(), 1);
        let mapped = mapper.map(&cred, 10).unwrap();
        assert!(mapped.as_sys().unwrap().uid >= 6000);
        // Second session gets a different id and shadow uid.
        let (sid2, cred2) = mw.establish_session(&mapper, "bob");
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
