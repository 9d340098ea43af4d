//! Regression: the per-request record paths (RPC client, proxy
//! dispatch, NFS server) must not touch the telemetry registry once
//! their handles are registered. Every get-or-register resolution takes
//! a global lock and formats a `String` key, so a resolution inside the
//! hot path turns the registry mutex into a per-event serialization
//! point. Debug builds count resolutions; this test drives a warm-up
//! burst through the full client → proxy → server chain, then asserts
//! the count stays flat across a second, larger burst of the same
//! operation mix.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gvfs::{
    BlockCacheConfig, DedupTuning, ImageServer, Listen, ProxyConfig, Tier, TransferTuning,
    WritePolicy,
};
use nfs3::Nfs3Client;
use oncrpc::{AuthSys, OpaqueAuth, RpcClient};
use parking_lot::Mutex;
use simnet::{Env, Link, SimDuration, Simulation};
use vfs::{Disk, DiskModel};

#[test]
fn record_paths_stay_registry_free_after_warmup() {
    let sim = Simulation::new();
    let h = sim.handle();

    let up = Link::from_mbps(&h, "wan-up", 25.0, SimDuration::from_millis(5));
    let down = Link::from_mbps(&h, "wan-down", 25.0, SimDuration::from_millis(5));
    let origin = ImageServer::start(&h, Listen::tunnel(up, down), 768 << 20, false);
    let fs = origin.fs;

    let cred = OpaqueAuth::sys(&AuthSys::new("tel", 1, 1));
    let tier = Tier::start(
        ProxyConfig {
            name: "tel-proxy".into(),
            write_policy: WritePolicy::WriteThrough,
            meta_handling: false,
            transfer: TransferTuning {
                read_ahead: 0,
                ..TransferTuning::default()
            },
            dedup: DedupTuning::off(),
            ..ProxyConfig::default()
        },
        Some(BlockCacheConfig::with_capacity(
            256 << 20,
            64,
            16,
            32 * 1024,
        )),
        None,
        &Disk::new(&h, DiskModel::scsi_2004()),
        RpcClient::new(origin.channel, cred.clone()),
        Listen::loopback(&h),
    );

    let fh = {
        let mut f = fs.lock();
        let root = f.root();
        let h = f.create(root, "data.img", 0o644, 0).unwrap();
        f.setattr(h, Some(64 * 32 * 1024), None, 0).unwrap();
        h
    };

    let nfs = Nfs3Client::new(RpcClient::new(tier.channel, cred));

    let resolutions = Arc::new(Mutex::new((0u64, 0u64)));
    let resolutions2 = resolutions.clone();
    sim.spawn("client", move |env: Env| {
        // One operation mix, reused for both bursts: GETATTR + READ +
        // WRITE covers the RPC client proc histograms and failure
        // counters, the proxy's per-proc counters, and the server's
        // per-proc counters for each procedure involved.
        let burst = |env: &Env, rounds: u64| {
            for i in 0..rounds {
                nfs.getattr(env, fh).unwrap();
                nfs.read(env, fh, (i % 64) * 32 * 1024, 32 * 1024).unwrap();
                let data = vec![(i % 251) as u8; 4096];
                nfs.write(
                    env,
                    fh,
                    (i % 64) * 32 * 1024,
                    data,
                    nfs3::proto::StableHow::FileSync,
                )
                .unwrap();
            }
        };
        // Warm-up: registers every metric this mix can touch.
        burst(&env, 4);
        let before = env.telemetry().debug_resolutions();
        // The measured burst must not resolve anything new.
        burst(&env, 32);
        let after = env.telemetry().debug_resolutions();
        *resolutions2.lock() = (before, after);
    });
    sim.run();

    let (before, after) = *resolutions.lock();
    // In release builds debug_resolutions() is a constant 0 and the
    // assertion is vacuous; debug builds (the default for `cargo test`)
    // count every registry get-or-register.
    assert_eq!(
        before,
        after,
        "hot record path resolved {} metric handle(s) through the \
         registry during the measured burst; cache the handles at \
         construction instead",
        after - before
    );
}
