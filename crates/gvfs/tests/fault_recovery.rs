//! Failure-domain integration tests: the proxy chain must survive WAN
//! packet loss, a multi-second WAN outage killed mid-flush, and a server
//! restart that discards unstable writes — without losing a single
//! acknowledged byte. Reads keep being served from the caches while the
//! WAN is down (degraded mode), and misses fail cleanly instead of
//! hanging forever.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::Arc;

use gvfs::{
    BlockCacheConfig, DedupTuning, FlushReport, GvfsSession, IdentityMapper, ImageServer, Listen,
    Middleware, ProxyConfig, TransferTuning,
};
use nfs3::{Nfs3Client, Nfs3Server};
use oncrpc::{OpaqueAuth, RetryPolicy, RpcClient};
use parking_lot::Mutex;
use simnet::{Env, Link, LinkFaultPlan, SimDuration, SimTime, Simulation};
use vfs::{Fs, Handle};

const BS: u64 = 32 * 1024;
const BLOCKS: u64 = 32;

fn secs(s: u64) -> SimTime {
    SimTime::from_nanos(s * 1_000_000_000)
}

struct Rig {
    fs: Arc<Mutex<Fs>>,
    server: Arc<Nfs3Server>,
    /// Identity registry of the server-side proxy.
    mapper: Arc<IdentityMapper>,
    /// The session: client-side proxy, credential, flush and terminate.
    session: Arc<GvfsSession>,
    /// Client stub below the proxy (loopback, no faults).
    nfs: Nfs3Client,
    wan_up: Link,
    wan_down: Link,
}

/// A session whose write-back client proxy talks to the image server
/// over a lossy WAN, with a WAN-sized retransmission policy on the
/// upstream stub and a block cache that holds every block the tests
/// dirty.
fn build_rig(sim: &Simulation) -> Rig {
    build_rig_with_cache(
        sim,
        BlockCacheConfig::with_capacity(256 << 20, 64, 16, BS as u32),
    )
}

fn build_rig_with_cache(sim: &Simulation, cache: BlockCacheConfig) -> Rig {
    let transfer = TransferTuning {
        read_ahead: 0,
        ..TransferTuning::default()
    };
    build_rig_with(
        sim,
        cache,
        transfer,
        gvfs::FleetTuning::off(),
        RetryPolicy::wan(),
    )
}

fn build_rig_with(
    sim: &Simulation,
    cache: BlockCacheConfig,
    transfer: TransferTuning,
    fleet: gvfs::FleetTuning,
    policy: RetryPolicy,
) -> Rig {
    let h = sim.handle();
    let wan_up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let server = ImageServer::start(
        &h,
        Listen::tunnel(wan_up.clone(), wan_down.clone()),
        768 << 20,
        true,
    );
    let session = Middleware::new().start_session(
        &server.mapper,
        "fault",
        &RpcClient::new(server.channel, OpaqueAuth::none()).with_policy(policy),
        ProxyConfig {
            name: "fault-proxy".into(),
            meta_handling: false,
            transfer,
            // These tests pin exact write/commit counts per fault
            // schedule; the dedup'd flush path has its own suite.
            dedup: DedupTuning::off(),
            fleet,
            ..ProxyConfig::default()
        },
        Some(cache),
        None,
    );
    Rig {
        fs: server.fs,
        server: server.server,
        mapper: server.mapper,
        nfs: Nfs3Client::new(session.rpc()),
        session: Arc::new(session),
        wan_up,
        wan_down,
    }
}

/// Seed a server file of `BLOCKS` blocks and return its handle.
fn seed_file(fs: &Arc<Mutex<Fs>>, name: &str) -> Handle {
    let mut f = fs.lock();
    let root = f.root();
    let fh = f.create(root, name, 0o644, 0).unwrap();
    f.setattr(fh, Some(BLOCKS * BS), None, 0).unwrap();
    fh
}

/// The deterministic payload for block `b`.
fn block_data(b: u64) -> Vec<u8> {
    (0..BS as u32)
        .map(|i| ((i as u64 + b * 17) % 251) as u8)
        .collect()
}

/// Dirty all `BLOCKS` blocks through the proxy (absorbed locally).
fn dirty_all(env: &Env, nfs: &Nfs3Client, fh: Handle) {
    for b in 0..BLOCKS {
        nfs.write(
            env,
            fh,
            b * BS,
            block_data(b),
            nfs3::proto::StableHow::Unstable,
        )
        .unwrap();
    }
    nfs.commit(env, fh).unwrap();
}

fn assert_server_bytes_exact(fs: &Arc<Mutex<Fs>>, fh: Handle) {
    let mut f = fs.lock();
    for b in 0..BLOCKS {
        let (data, _) = f.read(fh, b * BS, BS as usize, 0).unwrap();
        assert_eq!(data, block_data(b), "block {b} corrupt on server");
    }
}

/// A 10-second WAN outage plus 2% packet loss lands in the middle of
/// the write-back flush. The retransmission policy rides both out: the
/// flush drains losslessly, with zero failed blocks and byte-exact
/// server state.
#[test]
fn flush_rides_out_wan_outage_losslessly() {
    let sim = Simulation::new();
    let rig = build_rig(&sim);
    let fh = seed_file(&rig.fs, "redo.img");
    // Outage [5s, 15s) with 2% background loss in both directions.
    rig.wan_up.install_faults(
        LinkFaultPlan::new(11)
            .drop_prob(0.02)
            .outage(secs(5), secs(15)),
    );
    rig.wan_down.install_faults(
        LinkFaultPlan::new(12)
            .drop_prob(0.02)
            .outage(secs(5), secs(15)),
    );

    let tel = sim.handle().telemetry().clone();
    let out: Arc<Mutex<Option<FlushReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let (nfs, session) = (rig.nfs, rig.session.clone());
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let (fh2, _) = nfs.lookup(&env, root, "redo.img").unwrap();
        assert_eq!(fh2, fh);
        dirty_all(&env, &nfs, fh);
        // Start the flush right as the outage begins.
        let now = env.now();
        env.sleep(secs(5).saturating_since(now));
        let report = session.flush(&env);
        *out2.lock() = Some(report);
    });
    sim.run();

    let report = out.lock().unwrap();
    assert_eq!(report.failed_blocks, 0, "no block may be lost: {report:?}");
    assert_eq!(report.blocks, BLOCKS);
    assert_eq!(report.block_bytes, BLOCKS * BS);
    assert_eq!(rig.session.proxy.wb_queue_len(), 0);
    assert_server_bytes_exact(&rig.fs, fh);
    // The outage was actually felt: calls retransmitted and/or timed out.
    let retrans = tel.counter("rpc", "client.nfs3.retransmits").get();
    assert!(retrans > 0, "expected retransmissions, got {retrans}");
}

/// The server restarts in the middle of the flush, discarding its
/// unstable writes and rotating its write verifier. The proxy detects
/// the WRITE/COMMIT verifier mismatch and resends the discarded blocks
/// in a retry round — the server ends byte-exact.
#[test]
fn server_restart_mid_flush_resends_discarded_blocks() {
    let sim = Simulation::new();
    let rig = build_rig(&sim);
    let fh = seed_file(&rig.fs, "vm.img");

    let server = rig.server.clone();
    sim.spawn("chaos", move |env: Env| {
        // 1 MB over a 6 Mb/s uplink takes >1s; restart mid-stream.
        env.sleep(SimDuration::from_millis(5600));
        server.restart(env.now().as_nanos());
    });

    let out: Arc<Mutex<Option<FlushReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let (nfs, session) = (rig.nfs, rig.session.clone());
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let (fh2, _) = nfs.lookup(&env, root, "vm.img").unwrap();
        assert_eq!(fh2, fh);
        dirty_all(&env, &nfs, fh);
        let now = env.now();
        env.sleep(secs(5).saturating_since(now));
        let report = session.flush(&env);
        *out2.lock() = Some(report);
    });
    sim.run();

    let report = out.lock().unwrap();
    assert_eq!(report.failed_blocks, 0, "no block may be lost: {report:?}");
    assert_eq!(report.blocks, BLOCKS);
    let stats = rig.session.proxy.stats();
    assert!(
        stats.verf_mismatches >= 1,
        "restart must surface as a verifier mismatch: {stats:?}"
    );
    assert!(stats.flush_retry_rounds >= 1);
    assert_server_bytes_exact(&rig.fs, fh);
}

/// A block cache too small for the dirty set evicts most of it before
/// any flush; the guest's WRITEs and COMMIT were all answered by the
/// proxy, so those bytes are acknowledged. A server restart between the
/// evictions and the flush must not lose them: eviction write-backs are
/// durable on reply (`FILE_SYNC`), not UNSTABLE writes that no COMMIT
/// ever covers.
#[test]
fn evicted_dirty_blocks_survive_a_server_restart_before_the_flush() {
    let sim = Simulation::new();
    // One eight-frame set for 32 dirty blocks.
    let rig = build_rig_with_cache(
        &sim,
        BlockCacheConfig {
            banks: 1,
            sets_per_bank: 1,
            assoc: 8,
            block_size: BS as u32,
        },
    );
    let fh = seed_file(&rig.fs, "evict.img");

    let out: Arc<Mutex<Option<FlushReport>>> = Arc::new(Mutex::new(None));
    let out2 = out.clone();
    let (nfs, session, server) = (rig.nfs, rig.session.clone(), rig.server.clone());
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        nfs.lookup(&env, root, "evict.img").unwrap();
        dirty_all(&env, &nfs, fh);
        server.restart(env.now().as_nanos());
        *out2.lock() = Some(session.flush(&env));
    });
    sim.run();

    let report = out.lock().unwrap();
    let evicted = rig
        .session
        .proxy
        .block_cache()
        .unwrap()
        .stats()
        .dirty_evictions;
    assert_eq!(evicted, BLOCKS - 8, "the cache must evict dirty blocks");
    assert_eq!(report.failed_blocks, 0, "no block may be lost: {report:?}");
    assert_eq!(report.blocks, 8, "the flush carries what stayed resident");
    assert_eq!(rig.session.proxy.stats().blocks_written_back, BLOCKS);
    assert_server_bytes_exact(&rig.fs, fh);
}

/// Under a fleet preset the write-back retry queue is capped. A flush
/// into a dead WAN parks every block it could not send; the one block
/// over the cap sheds the lowest tag, and the shed and the high-water
/// mark are counted. Once the WAN heals, the next flush drains exactly
/// what stayed parked.
#[test]
fn retry_queue_at_its_cap_sheds_the_lowest_tag_and_counts_it() {
    const CAP: u64 = 4096;
    const SMALL: u64 = 512;
    let small_block = |b: u64| vec![(b % 251) as u8 + 1; SMALL as usize];

    let sim = Simulation::new();
    let rig = build_rig_with(
        &sim,
        // Room for every dirty block: nothing leaves by eviction.
        BlockCacheConfig {
            banks: 1,
            sets_per_bank: 64,
            assoc: 256,
            block_size: SMALL as u32,
        },
        // No retry rounds: what fails is parked at once.
        TransferTuning {
            read_ahead: 0,
            flush_retry_rounds: 0,
            ..TransferTuning::default()
        },
        gvfs::FleetTuning::shard(),
        // Calls into the outage give up quickly instead of riding it out.
        RetryPolicy {
            first_timeout: SimDuration::from_millis(100),
            max_timeout: SimDuration::from_millis(100),
            max_attempts: 2,
            jitter_frac: 0.0,
        },
    );
    let fh = {
        let mut f = rig.fs.lock();
        let root = f.root();
        let fh = f.create(root, "queue.img", 0o644, 0).unwrap();
        f.setattr(fh, Some((CAP + 1) * SMALL), None, 0).unwrap();
        fh
    };
    for (link, seed) in [(&rig.wan_up, 41), (&rig.wan_down, 42)] {
        link.install_faults(LinkFaultPlan::new(seed).outage(secs(10), secs(1000)));
    }

    let (nfs, session) = (rig.nfs, rig.session.clone());
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        nfs.lookup(&env, root, "queue.img").unwrap();
        for b in 0..=CAP {
            let how = nfs3::proto::StableHow::Unstable;
            nfs.write(&env, fh, b * SMALL, small_block(b), how).unwrap();
        }
        let now = env.now();
        env.sleep(secs(10).saturating_since(now));
        let dead = session.flush(&env);
        assert_eq!((dead.blocks, dead.failed_blocks), (0, CAP + 1));
        assert_eq!(session.proxy.wb_queue_len() as u64, CAP);
        let now = env.now();
        env.sleep(secs(1000).saturating_since(now));
        let healed = session.flush(&env);
        assert_eq!((healed.blocks, healed.failed_blocks), (CAP, 0));
        assert_eq!(session.proxy.wb_queue_len(), 0);
    });
    let tel = sim.handle().telemetry().clone();
    sim.run();

    let snap = tel.snapshot();
    assert_eq!(snap.counter_sum("gvfs", ".wb_shed"), 1);
    assert_eq!(snap.counter_sum("gvfs", ".wb_high_water"), CAP);
    assert_eq!(rig.session.proxy.stats().wb_queued, CAP + 1);
    assert_eq!(
        rig.session
            .proxy
            .block_cache()
            .unwrap()
            .stats()
            .dirty_evictions,
        0
    );
    // Block 0 — the lowest tag — is the one that was shed.
    let mut f = rig.fs.lock();
    let (first, _) = f.read(fh, 0, SMALL as usize, 0).unwrap();
    assert_eq!(first, vec![0u8; SMALL as usize]);
    for b in 1..=CAP {
        let (data, _) = f.read(fh, b * SMALL, SMALL as usize, 0).unwrap();
        assert_eq!(data, small_block(b), "block {b} lost");
    }
}

/// Degraded mode: while the WAN is down, reads that hit the proxy's
/// block cache keep being served locally; a miss fails with a clean
/// error instead of hanging forever.
#[test]
fn cache_hits_serve_during_outage_and_misses_fail_cleanly() {
    let sim = Simulation::new();
    let rig = build_rig(&sim);
    let warm = seed_file(&rig.fs, "warm.img");
    let cold = seed_file(&rig.fs, "cold.img");
    {
        let mut f = rig.fs.lock();
        f.write(warm, 0, &block_data(0), 0).unwrap();
        f.write(cold, 0, &block_data(1), 0).unwrap();
    }
    // WAN dies at t=5s and never recovers.
    rig.wan_up
        .install_faults(LinkFaultPlan::new(21).outage(secs(5), secs(1_000_000)));
    rig.wan_down
        .install_faults(LinkFaultPlan::new(22).outage(secs(5), secs(1_000_000)));

    let proxy = rig.session.proxy.clone();
    let (nfs, fs) = (rig.nfs, rig.fs.clone());
    sim.spawn("client", move |env: Env| {
        let _ = &fs;
        let root = nfs.mount(&env, "/").unwrap();
        let (wfh, _) = nfs.lookup(&env, root, "warm.img").unwrap();
        let (cfh, _) = nfs.lookup(&env, root, "cold.img").unwrap();
        // Warm the block cache before the outage.
        let r = nfs.read(&env, wfh, 0, BS as u32).unwrap();
        assert_eq!(r.data, block_data(0));
        let now = env.now();
        env.sleep(secs(6).saturating_since(now));
        // WAN is down. The warm block is served from the cache...
        let forwarded_before = proxy.stats().forwarded;
        let r = nfs.read(&env, wfh, 0, BS as u32).unwrap();
        assert_eq!(r.data, block_data(0));
        assert_eq!(
            proxy.stats().forwarded,
            forwarded_before,
            "cache hit must not touch the dead WAN"
        );
        // ...while the cold miss fails cleanly after the retry budget.
        let err = nfs.read(&env, cfh, 0, BS as u32);
        assert!(err.is_err(), "miss during outage must error, got {err:?}");
    });
    sim.run();
}

/// The user logs off during a WAN outage. `terminate` flushes, the flush
/// cannot reach the server, and the report says so — so the session's
/// identity must stay mapped: the failed blocks wait on the retry queue
/// for the next flush, and the server-side proxy answers a revoked
/// credential with an authentication error, which would strand bytes
/// the guest was told are safe. A second `terminate` after the link
/// heals drains the queue, and only then revokes.
#[test]
fn terminate_during_an_outage_keeps_the_identity_until_the_data_is_out() {
    let sim = Simulation::new();
    let rig = build_rig_with(
        &sim,
        BlockCacheConfig::with_capacity(256 << 20, 64, 16, BS as u32),
        TransferTuning {
            read_ahead: 0,
            ..TransferTuning::default()
        },
        gvfs::FleetTuning::off(),
        // Calls into the outage give up instead of riding it out, so the
        // flush's own retry rounds run dry inside it.
        RetryPolicy {
            first_timeout: SimDuration::from_secs(2),
            max_timeout: SimDuration::from_secs(2),
            max_attempts: 2,
            jitter_frac: 0.0,
        },
    );
    let fh = seed_file(&rig.fs, "logoff.img");
    for (link, seed) in [(&rig.wan_up, 51), (&rig.wan_down, 52)] {
        link.install_faults(LinkFaultPlan::new(seed).outage(secs(10), secs(200)));
    }

    let (nfs, session, mapper) = (rig.nfs, rig.session.clone(), rig.mapper.clone());
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        nfs.lookup(&env, root, "logoff.img").unwrap();
        dirty_all(&env, &nfs, fh);
        let now = env.now();
        env.sleep(secs(10).saturating_since(now));

        let stranded = session.terminate(&env);
        assert!(
            env.now() < secs(200),
            "the first terminate outlived the outage"
        );
        assert_eq!((stranded.blocks, stranded.failed_blocks), (0, BLOCKS));
        assert_eq!(session.proxy.wb_queue_len() as u64, BLOCKS);
        assert_eq!(mapper.len(), 1, "revoked with acknowledged data queued");

        let now = env.now();
        env.sleep(secs(200).saturating_since(now));
        let drained = session.terminate(&env);
        assert_eq!((drained.blocks, drained.failed_blocks), (BLOCKS, 0));
        assert_eq!(session.proxy.wb_queue_len(), 0);
        assert_eq!(mapper.len(), 0, "a clean terminate revokes the identity");
    });
    sim.run();
    // What a fault-free session would have left on the server.
    assert_server_bytes_exact(&rig.fs, fh);
}
