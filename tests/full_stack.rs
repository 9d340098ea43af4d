//! Cross-crate integration tests: the full GVFS deployment exercised
//! end-to-end, including the paper's in-text claims.

use std::sync::Arc;

use gvfs::{BlockCacheConfig, GvfsSession, ImageServer, Listen, Middleware, ProxyConfig};
use gvfs_bench::{run_cloning, CloneParams, CloneScenario, NetParams};
use nfs3::{KernelClient, KernelConfig, Nfs3Client};
use oncrpc::{OpaqueAuth, RpcClient};
use parking_lot::Mutex;
use simnet::{Link, SimDuration, Simulation};
use vfs::FileIo;
use vmm::{install_image, VmImageSpec};

/// The image server behind the paper's WAN.
fn wan_server(sim: &Simulation) -> ImageServer {
    let (h, net) = (sim.handle(), NetParams::default());
    let up = Link::from_mbps(&h, "wan-up", net.wan_up_mbps, net.wan_oneway);
    let down = Link::from_mbps(&h, "wan-down", net.wan_down_mbps, net.wan_oneway);
    ImageServer::start(&h, Listen::tunnel(up, down), 768 << 20, true)
}

/// `user`'s session against `server`: a write-back client-side proxy with
/// a `cache_bytes` block cache and, with `file_channel`, meta-data
/// handling over a file cache of the same size.
fn session(server: &ImageServer, user: &str, cache_bytes: u64, file_channel: bool) -> GvfsSession {
    Middleware::new().start_session(
        &server.mapper,
        user,
        &RpcClient::new(server.channel.clone(), OpaqueAuth::none()),
        ProxyConfig {
            name: "client-proxy".into(),
            meta_handling: file_channel,
            ..ProxyConfig::default()
        },
        Some(BlockCacheConfig::paper(cache_bytes)),
        file_channel.then_some(cache_bytes),
    )
}

/// The paper's §3.2.2 in-text claim: resuming a 512 MB post-boot VM
/// issues ~65,750 NFS reads of which ~60,452 (92%) are filtered by the
/// zero-block meta-data. We reproduce the counting experiment at the
/// paper's 8 KB read granularity on a scaled image and check the filter
/// ratio; a full-size run is in the `ablations` bench binary.
#[test]
fn zero_map_filters_the_large_majority_of_memory_state_reads() {
    let sim = Simulation::new();
    let server = wan_server(&sim);
    // A 64 MB post-boot-style image (8% nonzero), zero map only.
    let spec = VmImageSpec {
        name: "postboot".into(),
        memory_bytes: 64 << 20,
        disk_bytes: 128 << 20,
        mem_nonzero_fraction: 0.08,
        disk_used_fraction: 0.2,
        seed: 0x5EED,
    };
    {
        let mut fs = server.fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
        install_image(&mut fs, dir, &spec).unwrap();
        Middleware::generate_meta(&mut fs, "exports", "postboot.vmss", 8 * 1024, true, None)
            .unwrap();
    }
    let session = session(&server, "alice", 2 << 30, true);
    let proxy = session.proxy.clone();
    let srv = server.server.clone();
    sim.spawn("resumer", move |env| {
        let nfs = Nfs3Client::new(session.rpc());
        let kc = KernelClient::mount(
            &env,
            nfs,
            "/exports",
            KernelConfig {
                rsize: 8 * 1024,
                wsize: 8 * 1024,
                ..KernelConfig::default()
            },
        )
        .unwrap();
        let fh = kc.lookup_path(&env, "postboot.vmss").unwrap();
        srv.reset_stats();
        // Read the entire memory state, like a VMM resume.
        let mut off = 0u64;
        while off < 64 << 20 {
            let data = kc.read(&env, fh, off, 256 * 1024).unwrap();
            assert!(!data.is_empty());
            off += data.len() as u64;
        }
        let st = proxy.stats();
        let total_reads = 64 * 1024 / 8; // 8192 8 KB reads
        assert_eq!(st.reads, total_reads);
        // The large majority must be served locally from the zero map.
        assert!(
            st.zero_filtered as f64 > 0.80 * total_reads as f64,
            "only {} of {} reads filtered",
            st.zero_filtered,
            total_reads
        );
        // And the server saw only the non-zero remainder, minus reads
        // the proxy's block cache served (sub-block hits on installed
        // 32 KB blocks), plus the proxy's own read-ahead fetches —
        // exact accounting, no unexplained upstream traffic.
        let bc_hits = proxy.block_cache().unwrap().stats().hits;
        assert_eq!(
            srv.stats().reads + bc_hits,
            total_reads - st.zero_filtered + st.prefetch_issued
        );
        // Sub-block serving must make the cache a net win even here:
        // upstream reads stay below the non-zero remainder.
        assert!(srv.stats().reads <= total_reads - st.zero_filtered);
    });
    sim.run();
}

/// The kernel client pipelines its own readahead as parallel READs, and
/// the proxy's read-ahead engine speculates on the same stream. The two
/// must never fetch the same block twice over the WAN: an in-flight
/// demand READ excludes its block from the prefetch candidate set, and
/// a demand miss on an in-flight prefetch waits for it to land.
#[test]
fn pipelined_readahead_never_duplicates_upstream_reads() {
    let sim = Simulation::new();
    let server = wan_server(&sim);
    let file_bytes: u64 = 8 << 20;
    {
        let mut fs = server.fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
        let f = fs.create(dir, "stream.bin", 0o644, 0).unwrap();
        fs.setattr(f, Some(file_bytes), None, 0).unwrap();
        fs.write(f, 0, &vec![0xCD; 64 * 1024], 0).unwrap();
    }
    let session = session(&server, "carol", 1 << 30, false);
    let proxy = session.proxy.clone();
    let srv = server.server.clone();
    sim.spawn("streamer", move |env| {
        let nfs = Nfs3Client::new(session.rpc());
        let kc = KernelClient::mount(&env, nfs, "/exports", KernelConfig::default()).unwrap();
        let fh = kc.lookup_path(&env, "stream.bin").unwrap();
        srv.reset_stats();
        let data = kc.read(&env, fh, 0, file_bytes as u32).unwrap();
        assert_eq!(data.len() as u64, file_bytes);
        let st = proxy.stats();
        let block = 32 * 1024;
        let blocks = file_bytes / block;
        // Every block crosses the WAN at most once (the read-ahead tail
        // may speculate a few junk blocks past the end of the stream).
        let tail = gvfs::TransferTuning::default().read_ahead as u64;
        assert!(
            srv.stats().reads <= blocks + tail,
            "{} upstream reads for {} blocks: demand and prefetch overlap",
            srv.stats().reads,
            blocks
        );
        // And the read-ahead engine actually participated.
        assert!(st.prefetch_issued > 0 && st.prefetch_hits > 0);
    });
    sim.run();
}

/// Byte-for-byte integrity through the entire stack: guest-visible data
/// written through VM + redo log + kernel client + proxies + WAN + server
/// must read back identically after every cache is dropped.
#[test]
fn end_to_end_byte_integrity_survives_cache_invalidation() {
    let sim = Simulation::new();
    let server = wan_server(&sim);
    let payload: Vec<u8> = (0..2_000_000u32).map(|i| (i % 239) as u8).collect();
    {
        let mut fs = server.fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
        let f = fs.create(dir, "blob", 0o644, 0).unwrap();
        fs.write(f, 0, &payload, 0).unwrap();
    }
    let session = session(&server, "bob", 1 << 30, true);
    let fs2 = server.fs.clone();
    sim.spawn("worker", move |env| {
        let nfs = Nfs3Client::new(session.rpc());
        let kc = KernelClient::mount(&env, nfs, "/exports", KernelConfig::default()).unwrap();
        let fh = kc.lookup_path(&env, "blob").unwrap();
        // Read everything (populates caches), overwrite a slice, close.
        let before = kc.read(&env, fh, 0, 2_000_000).unwrap();
        assert_eq!(before, payload);
        kc.write(&env, fh, 777_777, b"GVFS-WAS-HERE").unwrap();
        kc.close(&env, fh).unwrap();
        // Middleware flushes write-back data to the server.
        session.flush(&env);
        // Server-side truth matches.
        let mut expect = payload.clone();
        expect[777_777..777_790].copy_from_slice(b"GVFS-WAS-HERE");
        {
            let mut f = fs2.lock();
            let (server_bytes, _) = f.read(fh, 0, 2_000_000, 0).unwrap();
            assert_eq!(server_bytes, expect);
        }
        // Fresh kernel caches, reread through warm proxy: still identical.
        kc.invalidate_caches();
        let after = kc.read(&env, fh, 0, 2_000_000).unwrap();
        assert_eq!(after, expect);
    });
    sim.run();
}

/// Determinism: the whole cloning scenario, twice, produces identical
/// virtual timings (the repository's figures are reproducible).
#[test]
fn cloning_scenario_is_deterministic() {
    let params = CloneParams {
        clones: 2,
        image_scale: Some(16),
        ..CloneParams::default()
    };
    let a = run_cloning(CloneScenario::WanS1, &params);
    let b = run_cloning(CloneScenario::WanS1, &params);
    let times = |r: &gvfs_bench::CloneResult| -> Vec<u64> {
        r.times.iter().map(|t| t.total.as_nanos()).collect()
    };
    assert_eq!(times(&a), times(&b));
}

/// Multiple users share one image server; each session maps to its own
/// shadow account and bad credentials never reach the kernel server.
#[test]
fn concurrent_sessions_are_isolated_by_identity() {
    let sim = Simulation::new();
    let server = wan_server(&sim);
    {
        let mut fs = server.fs.lock();
        let root = fs.root();
        fs.mkdir(root, "exports", 0o755, 0).unwrap();
    }
    let mw = Middleware::new();
    let uids = Arc::new(Mutex::new(Vec::new()));
    for i in 0..3 {
        let (_sid, cred) = mw.establish_session(&server.mapper, &format!("user{i}"));
        let channel = server.channel.clone();
        let uids = uids.clone();
        sim.spawn(format!("user{i}"), move |env| {
            let nfs = Nfs3Client::new(RpcClient::new(channel, cred));
            let root = nfs.mount(&env, "/exports").unwrap();
            let f = nfs.create(&env, root, &format!("file{i}")).unwrap();
            let attr = nfs.getattr(&env, f).unwrap();
            uids.lock().push(attr.fileid);
        });
    }
    sim.run();
    assert_eq!(uids.lock().len(), 3);
}

/// A LAN endpoint without GVFS at all (the pure-NFS baseline path) still
/// provides a correct file system — GVFS is an optimization, not a
/// correctness requirement.
#[test]
fn direct_unproxied_mount_works() {
    let sim = Simulation::new();
    let h = sim.handle();
    let up = Link::from_mbps(&h, "lan-up", 100.0, SimDuration::from_micros(200));
    let down = Link::from_mbps(&h, "lan-down", 100.0, SimDuration::from_micros(200));
    let server = ImageServer::start(&h, Listen::plain(up, down), 768 << 20, false);
    {
        let mut fs = server.fs.lock();
        let root = fs.root();
        fs.mkdir(root, "exports", 0o755, 0).unwrap();
    }
    sim.spawn("client", move |env| {
        let cred = oncrpc::OpaqueAuth::sys(&oncrpc::AuthSys::new("c", 500, 500));
        let nfs = Nfs3Client::new(RpcClient::new(server.channel.clone(), cred));
        let kc = KernelClient::mount(&env, nfs, "/exports", KernelConfig::default()).unwrap();
        let f = kc.create_path(&env, "hello").unwrap();
        kc.write(&env, f, 0, b"world").unwrap();
        kc.close(&env, f).unwrap();
        assert_eq!(kc.read(&env, f, 0, 5).unwrap(), b"world");
    });
    sim.run();
}
