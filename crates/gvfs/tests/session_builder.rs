//! The session builders pinned against the one hand-wired chain left in
//! the repository.
//!
//! `by_hand` spells out what `gvfs::session` does — kernel client →
//! client-side proxy with both caches on a loopback → WAN → server-side
//! proxy → nfsd + mountd + file channel on the server's loopback — and
//! `by_builder` is the two calls that replace it. Telemetry instance
//! names and process ids are handed out in creation order and link and
//! process names are metric keys, so the same read / write / flush
//! script must produce the same event trace (every dispatched event:
//! virtual time, sequence number, woken pid) and the same telemetry
//! snapshot over both. That makes creation order and names part of the
//! builders' contract (DESIGN.md §5.12): a builder that creates its
//! pieces in another order, renames a link or a worker, or changes a
//! constant fails here.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gvfs::{
    BlockCache, BlockCacheConfig, ChannelClient, CodecModel, DedupTuning, FileCache,
    FileChannelServer, FileChannelSpec, IdentityMapper, ImageServer, Listen, Middleware, Proxy,
    ProxyConfig, WritePolicy,
};
use nfs3::{KernelClient, KernelConfig, MountServer, Nfs3Client, Nfs3Server, ServerConfig};
use oncrpc::{Dispatcher, OpaqueAuth, RpcClient, WireSpec};
use parking_lot::Mutex;
use simnet::{first_divergence, Env, EventRecord, Link, SimDuration, SimHandle, Simulation};
use vfs::{Disk, DiskModel, FileIo, Fs};

const BS: u64 = 32 * 1024;
const CACHE_BYTES: u64 = 1 << 30;

/// What the script needs from a deployment: the server's filesystem and
/// identity registry, the client-side proxy with the session credential,
/// and a stub into that proxy.
type Chain = (
    Arc<Mutex<Fs>>,
    Arc<IdentityMapper>,
    Arc<Proxy>,
    OpaqueAuth,
    RpcClient,
);

fn wan(h: &SimHandle) -> (Link, Link) {
    (
        Link::from_mbps(h, "wan-up", 6.0, SimDuration::from_millis(17)),
        Link::from_mbps(h, "wan-down", 14.0, SimDuration::from_millis(17)),
    )
}

fn client_config() -> ProxyConfig {
    ProxyConfig {
        name: "client-proxy".into(),
        ..ProxyConfig::default()
    }
}

/// The reference: every piece created by hand, in the builders' order.
fn by_hand(h: &SimHandle) -> Chain {
    let loopback = |name: &str| Link::new(h, name, 1e9, SimDuration::from_micros(20));

    // --- image server machine -------------------------------------------
    let server_disk = Disk::new(h, DiskModel::server_array());
    let (fs, server) = Nfs3Server::with_new_fs(h, server_disk.clone(), ServerConfig::default());
    let mount = MountServer::new(fs.clone(), vec!["/".to_string(), "/exports".to_string()]);
    let cpu = simnet::Resource::new(h, 2);
    let chan_server =
        FileChannelServer::with_cpu(fs.clone(), server_disk, CodecModel::default(), true, cpu);
    let nfsd = Dispatcher::new()
        .register(server)
        .register(mount)
        .register(chan_server)
        .into_handler();
    let srv_lo = oncrpc::endpoint(
        h,
        loopback("srv-lo-up"),
        loopback("srv-lo-down"),
        WireSpec::plain(),
    );
    srv_lo.listener.serve("nfsd", nfsd, 8);
    let mapper = Arc::new(IdentityMapper::new());
    let srv_proxy = Proxy::new(
        ProxyConfig {
            name: "server-proxy".into(),
            write_policy: WritePolicy::WriteThrough,
            meta_handling: false,
            dedup: DedupTuning::off(),
            ..ProxyConfig::default()
        },
        RpcClient::new(srv_lo.channel, OpaqueAuth::none()),
    )
    .with_identity(mapper.clone())
    .into_handler();
    let (wan_up, wan_down) = wan(h);
    let wan_ep = oncrpc::endpoint(h, wan_up, wan_down, WireSpec::ssh_tunnel(50e6));
    wan_ep.listener.serve("server-proxy", srv_proxy, 16);

    // --- compute host: alice's session -------------------------------------
    let (_sid, cred) = Middleware::new().establish_session(&mapper, "alice");
    let cache_disk = Disk::new(h, DiskModel::scsi_2004());
    let upstream = RpcClient::new(wan_ep.channel, cred.clone());
    let proxy = Proxy::new(client_config(), upstream.clone())
        .with_block_cache(Arc::new(BlockCache::new(
            h,
            cache_disk.clone(),
            BlockCacheConfig::paper(CACHE_BYTES),
        )))
        .with_file_channel(
            Arc::new(FileCache::new(cache_disk, CACHE_BYTES)),
            ChannelClient::new(upstream, CodecModel::default()),
        )
        .into_handler();
    let cl_lo = oncrpc::endpoint(
        h,
        loopback("cl-lo-up"),
        loopback("cl-lo-down"),
        WireSpec::plain(),
    );
    cl_lo.listener.serve("client-proxy", proxy.clone(), 8);

    let rpc = RpcClient::new(cl_lo.channel, cred.clone());
    (fs, mapper, proxy, cred, rpc)
}

/// The same deployment from `gvfs::session`.
fn by_builder(h: &SimHandle) -> Chain {
    let (wan_up, wan_down) = wan(h);
    let server = ImageServer::start(h, Listen::tunnel(wan_up, wan_down), 768 << 20, true);
    let session = Middleware::new().start_session(
        &server.mapper,
        "alice",
        &RpcClient::new(server.channel, OpaqueAuth::none()),
        client_config(),
        Some(BlockCacheConfig::paper(CACHE_BYTES)),
        Some(CACHE_BYTES),
    );
    let rpc = session.rpc();
    (server.fs, server.mapper, session.proxy, session.cred, rpc)
}

fn pattern(what: u64, len: u64) -> Vec<u8> {
    (0..len)
        .map(|i| ((i / 5 + i * 11 + what * 37) % 251) as u8 + 1)
        .collect()
}

/// Read through both caches cold and warm, install a file through the
/// channel, dirty blocks through the kernel client, flush. Returns the
/// event trace and the telemetry snapshot.
fn run_script(build: fn(&SimHandle) -> Chain) -> (Vec<EventRecord>, String) {
    let sim = Simulation::new();
    let h = sim.handle();
    h.enable_event_trace();
    let (fs, mapper, proxy, cred, rpc) = build(&h);
    {
        let mut fs = fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
        let data = fs.create(dir, "data.img", 0o644, 0).unwrap();
        fs.write(data, 0, &pattern(1, 24 * BS), 0).unwrap();
        // Memory state, a third of it live: zero map + file channel.
        let mem = fs.create(dir, "mem.vmss", 0o644, 0).unwrap();
        fs.setattr(mem, Some(48 * BS), None, 0).unwrap();
        fs.write(mem, 0, &pattern(2, 16 * BS), 0).unwrap();
        let spec = FileChannelSpec {
            compress: true,
            writeback: false,
        };
        Middleware::generate_meta(&mut fs, "exports", "mem.vmss", BS as u32, true, Some(spec))
            .unwrap();
    }
    sim.spawn("guest", move |env: Env| {
        assert_eq!(mapper.len(), 1);
        let kc = KernelClient::mount(
            &env,
            Nfs3Client::new(rpc),
            "/exports",
            KernelConfig::default(),
        )
        .unwrap();
        let data = kc.lookup_path(&env, "data.img").unwrap();
        let cold = kc.read(&env, data, 0, (24 * BS) as u32).unwrap();
        assert_eq!(cold, pattern(1, 24 * BS));
        kc.invalidate_caches();
        let warm = kc.read(&env, data, 0, (24 * BS) as u32).unwrap();
        assert_eq!(warm, cold);

        let mem = kc.lookup_path(&env, "mem.vmss").unwrap();
        let state = kc.read(&env, mem, 0, (48 * BS) as u32).unwrap();
        assert_eq!(&state[..(16 * BS) as usize], &pattern(2, 16 * BS)[..]);
        assert!(state[(16 * BS) as usize..].iter().all(|&b| b == 0));

        kc.write(&env, data, 3 * BS + 100, &pattern(3, 4 * BS))
            .unwrap();
        kc.close(&env, data).unwrap();
        let report = proxy.flush(&env, &cred);
        assert!(report.blocks >= 4, "{report:?}");
        assert_eq!((report.failed_blocks, report.failed_files), (0, 0));
    });
    sim.run();
    let snapshot = h.telemetry().snapshot().to_json().to_string();
    (h.take_event_trace(), snapshot)
}

#[test]
fn builder_and_hand_wired_chain_are_the_same_simulation() {
    let (hand_trace, hand_snapshot) = run_script(by_hand);
    let (built_trace, built_snapshot) = run_script(by_builder);
    assert!(hand_trace.len() > 1000, "the script did not run");
    assert_ne!(hand_trace.last().unwrap().kind, "truncated");
    if let Some((i, hand, built)) = first_divergence(&hand_trace, &built_trace) {
        panic!("event #{i} differs: by hand {hand:?}, builder {built:?}");
    }
    assert_eq!(hand_snapshot, built_snapshot);
}
