//! Quickstart: mount a wide-area GVFS file system and feel the caches.
//!
//! Builds the paper's basic topology — kernel NFS client → client-side
//! caching proxy → WAN → server-side proxy → kernel NFS server — reads a
//! file twice, and prints how the proxy disk cache turns wide-area RTTs
//! into local-disk hits.
//!
//! Run with: `cargo run --release --example quickstart`

use std::sync::Arc;

use gvfs::{
    BlockCache, BlockCacheConfig, ChannelClient, CodecModel, DedupTuning, FileCache,
    IdentityMapper, Middleware, Proxy, ProxyConfig, TransferTuning, WritePolicy,
};
use nfs3::{KernelClient, KernelConfig, Nfs3Client};
use oncrpc::{RpcClient, WireSpec};
use simnet::{Link, SimDuration, Simulation};
use vfs::{Disk, DiskModel, FileIo};

fn main() {
    let sim = Simulation::new();
    let h = sim.handle();

    // --- image server across the WAN -------------------------------------
    let wan_up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let server = gvfs_bench::build_server(&h, wan_up, wan_down, 768 << 20, true);

    // Put a 64 MB file on it (setup-time, costs nothing).
    {
        let mut fs = server.fs.lock();
        let root = fs.root();
        let dir = fs.mkdir(root, "exports", 0o755, 0).unwrap();
        let f = fs.create(dir, "dataset.bin", 0o644, 0).unwrap();
        fs.setattr(f, Some(64 << 20), None, 0).unwrap();
        fs.write(f, 0, &vec![0xAB; 1 << 20], 0).unwrap();
    }

    // --- middleware session ----------------------------------------------
    let mw = Middleware::new();
    let (_sid, cred) = mw.establish_session(&server.mapper, "alice", 0, u64::MAX / 2);

    // --- compute server: client-side proxy with an 8 GB disk cache --------
    let cache_disk = Disk::new(&h, DiskModel::scsi_2004());
    let upstream = RpcClient::new(server.channel.clone(), cred.clone());
    let proxy = Proxy::new(
        ProxyConfig {
            name: "client-proxy".into(),
            write_policy: WritePolicy::WriteBack,
            meta_handling: true,
            read_only_share: false,
            transfer: TransferTuning::default(),
            dedup: DedupTuning::default(),
            fleet: gvfs::FleetTuning::off(),
            cow: gvfs::CowTuning::off(),
        },
        upstream.clone(),
    )
    .with_block_cache(Arc::new(BlockCache::new(
        &h,
        cache_disk.clone(),
        BlockCacheConfig::paper_default(),
    )))
    .with_file_channel(
        Arc::new(FileCache::new(cache_disk, 8 << 30)),
        ChannelClient::new(upstream, CodecModel::default()),
    )
    .into_handler();
    let lo_up = Link::new(&h, "lo-up", 1e9, SimDuration::from_micros(20));
    let lo_down = Link::new(&h, "lo-down", 1e9, SimDuration::from_micros(20));
    let ep = oncrpc::endpoint(&h, lo_up, lo_down, WireSpec::plain());
    ep.listener.serve("client-proxy", proxy.clone(), 8);

    // --- use it like a kernel would ---------------------------------------
    let channel = ep.channel;
    let mapper: Arc<IdentityMapper> = server.mapper.clone();
    sim.spawn("user", move |env| {
        let nfs = Nfs3Client::new(RpcClient::new(channel, cred));
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
        let st = proxy.stats();
        println!(
            "proxy: {} reads, {} forwarded upstream, cache hits {}",
            st.reads,
            st.forwarded,
            proxy.block_cache().unwrap().stats().hits
        );
        println!("live middleware sessions: {}", mapper.len());
    });
    sim.run();
}
