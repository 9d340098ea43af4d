//! Quickstart: mount a wide-area GVFS file system and feel the caches.
//!
//! Builds the paper's basic topology — kernel NFS client → client-side
//! caching proxy → WAN → server-side proxy → kernel NFS server — reads a
//! file twice, and prints how the proxy disk cache turns wide-area RTTs
//! into local-disk hits.
//!
//! Run with: `cargo run --release --example quickstart`

use gvfs::{BlockCacheConfig, ImageServer, Listen, Middleware, ProxyConfig};
use nfs3::{KernelClient, KernelConfig, Nfs3Client};
use oncrpc::{OpaqueAuth, RpcClient};
use simnet::{Link, SimDuration, Simulation};
use vfs::FileIo;

fn main() {
    let sim = Simulation::new();
    let h = sim.handle();

    // --- 1. image server across the WAN ----------------------------------
    let wan_up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let server = ImageServer::start(&h, Listen::tunnel(wan_up, wan_down), 768 << 20, true);

    // Put a 64 MB file on it (setup-time, costs nothing).
    {
        let mut fs = server.fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
        let f = fs.create(dir, "dataset.bin", 0o644, 0).unwrap();
        fs.setattr(f, Some(64 << 20), None, 0).unwrap();
        fs.write(f, 0, &vec![0xAB; 1 << 20], 0).unwrap();
    }

    // --- 2. middleware session: identity + client-side proxy with an 8 GB
    //        disk cache on the compute server ----------------------------
    let session = Middleware::new().start_session(
        &server.mapper,
        "alice",
        &RpcClient::new(server.channel.clone(), OpaqueAuth::none()),
        ProxyConfig {
            name: "client-proxy".into(),
            ..ProxyConfig::default()
        },
        Some(BlockCacheConfig::paper_default()),
        Some(8 << 30),
    );

    // --- 3. mount it like a kernel would ----------------------------------
    sim.spawn("user", move |env| {
        let nfs = Nfs3Client::new(session.rpc());
        let kc = KernelClient::mount(&env, nfs, "/exports", KernelConfig::default()).unwrap();
        let file = kc.lookup_path(&env, "dataset.bin").unwrap();

        let t0 = env.now();
        kc.read(&env, file, 0, 64 << 20).unwrap();
        let cold = env.now() - t0;

        // Drop the kernel's memory cache (umount/mount) — the proxy's
        // *disk* cache survives, which is the paper's point.
        kc.invalidate_caches();
        let t1 = env.now();
        kc.read(&env, file, 0, 64 << 20).unwrap();
        let warm = env.now() - t1;

        println!("cold read over WAN : {cold}");
        println!("warm read via proxy: {warm}");
        println!(
            "speedup            : {:.1}x",
            cold.as_secs_f64() / warm.as_secs_f64()
        );
        let st = session.proxy.stats();
        println!(
            "proxy: {} reads, {} forwarded upstream, cache hits {}",
            st.reads,
            st.forwarded,
            session.proxy.block_cache().unwrap().stats().hits
        );
        println!("live middleware sessions: {}", server.mapper.len());
        // The user logs off: flush, then revoke the identity.
        let report = session.terminate(&env);
        assert_eq!((report.failed_blocks, report.failed_files), (0, 0));
        println!("after terminate         : {}", server.mapper.len());
    });
    sim.run();
}
