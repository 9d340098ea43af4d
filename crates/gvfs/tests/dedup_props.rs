//! Dedup correctness under failure: the content-addressed flush paths
//! must never skip a byte the server does not durably hold, under
//! arbitrary packet loss, WAN outages and server restarts — and the
//! server must end byte-identical to a run with dedup fully off.
//! Plus the digest-keyed second-level blob cache: distinct files
//! sharing content coalesce onto one upstream fetch per chunk.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::rc::Rc;

use gvfs::channel::chanproc;
use gvfs::digest::{chunk_digests, digest};
use gvfs::{
    BlockCacheConfig, CacheVolume, ChannelClient, ContentStore, DedupTel, DedupTuning, Digest,
    FileChannelServer, FileKey, ImageServer, Listen, Proxy, ProxyConfig, RecipeFetch, Tier,
    WritePolicy, CHANNEL_PROGRAM, CHANNEL_V1,
};
use nfs3::{Fh3, Nfs3Client, Nfs3Server};
use oncrpc::{AuthSys, Dispatcher, OpaqueAuth, RetryPolicy, RpcChannel, RpcClient, WireSpec};
use proptest::prelude::*;
use simnet::Shared;
use simnet::{Env, Link, LinkFaultPlan, SimDuration, SimHandle, SimTime, Simulation};
use vfs::{Disk, DiskModel, Fs, Handle};
use xdr::{Encode, Encoder};

const BS: u64 = 32 * 1024;
const BLOCKS: u64 = 8;

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

/// The origin (NFS, MOUNT, file channel) behind an SSH-tunnelled WAN,
/// with the WAN links for fault plans.
fn wan_origin(h: &SimHandle) -> (ImageServer, Link, Link) {
    let wan_up = Link::from_mbps(h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(h, "wan-down", 14.0, SimDuration::from_millis(17));
    let listen = Listen::tunnel(wan_up.clone(), wan_down.clone());
    let origin = ImageServer::start(h, listen, 768 << 20, false);
    (origin, wan_up, wan_down)
}

/// A cacheless, read-only-share LAN proxy in front of `origin`: all it
/// keeps is its digest-keyed reply cache.
fn lan_share(h: &SimHandle, origin: RpcChannel, cred: &OpaqueAuth) -> Tier {
    let lan_up = Link::new(h, "lan-up", 1e9, SimDuration::from_micros(100));
    let lan_down = Link::new(h, "lan-down", 1e9, SimDuration::from_micros(100));
    let cfg = ProxyConfig {
        name: "lan-share".into(),
        write_policy: WritePolicy::WriteThrough,
        meta_handling: false,
        ..ProxyConfig::default()
    };
    let volume = CacheVolume::new(h, Disk::new(h, DiskModel::server_array()), &cfg, None, None);
    Tier::start(
        cfg,
        &volume,
        RpcClient::new(origin, cred.clone()).with_policy(RetryPolicy::wan()),
        Listen::plain(lan_up, lan_down),
    )
}

struct Rig {
    fs: Shared<Fs>,
    server: Rc<Nfs3Server>,
    proxy: Rc<Proxy>,
    nfs: Nfs3Client,
    cred: OpaqueAuth,
    wan_up: Link,
    wan_down: Link,
}

/// A write-back client proxy over a faultable WAN (the fault_recovery
/// rig, parameterized on dedup).
fn build_rig(sim: &Simulation, dedup: DedupTuning) -> Rig {
    build_rig_with(sim, dedup, RetryPolicy::wan())
}

fn build_rig_with(sim: &Simulation, dedup: DedupTuning, policy: RetryPolicy) -> Rig {
    let h = sim.handle();
    let (origin, wan_up, wan_down) = wan_origin(&h);
    let (fs, server) = (origin.fs, origin.server);

    let cred = OpaqueAuth::sys(&AuthSys::new("dedup", 1, 1));
    let cfg = ProxyConfig {
        name: "dedup-proxy".into(),
        meta_handling: false,
        dedup,
        ..ProxyConfig::default()
    };
    let geometry = BlockCacheConfig::with_capacity(256 << 20, 64, 16, BS as u32);
    let disk = Disk::new(&h, DiskModel::scsi_2004());
    let volume = CacheVolume::new(&h, disk, &cfg, Some(geometry), None);
    let tier = Tier::start(
        cfg,
        &volume,
        RpcClient::new(origin.channel, cred.clone()).with_policy(policy),
        Listen::loopback(&h),
    );
    let proxy = tier.proxy;
    let nfs = Nfs3Client::new(RpcClient::new(tier.channel, cred.clone()));

    Rig {
        fs,
        server,
        proxy,
        nfs,
        cred,
        wan_up,
        wan_down,
    }
}

fn seed_file(fs: &Shared<Fs>, name: &str) -> Handle {
    let mut f = fs.lock();
    let root = f.root();
    let fh = f.create(root, name, 0o644, 0).unwrap();
    f.setattr(fh, Some(BLOCKS * BS), None, 0).unwrap();
    fh
}

/// Deterministic payload for block `b`, content version `v`.
fn payload(b: u64, v: u8) -> Vec<u8> {
    (0..BS as u32)
        .map(|i| (i as u64 * 31 + b * 17 + v as u64 * 101).wrapping_rem(249) as u8)
        .collect()
}

/// One full run: play `rounds` of writes+flush through a rig under the
/// given fault schedule, drain after the faults clear, return the final
/// server bytes and the proxy's acked-skip count.
#[allow(clippy::too_many_arguments)]
fn run_schedule(
    dedup: DedupTuning,
    rounds: &[Vec<(u64, u8)>],
    drop_prob: f64,
    outage_start: u64,
    outage_len: u64,
    restarts: &[u64],
    fault_seed: u64,
) -> (Vec<u8>, u64) {
    let sim = Simulation::new();
    let rig = build_rig(&sim, dedup);
    let fh = seed_file(&rig.fs, "vm.img");
    rig.wan_up.install_faults(
        LinkFaultPlan::new(fault_seed | 1)
            .drop_prob(drop_prob)
            .outage(ms(outage_start), ms(outage_start + outage_len)),
    );
    rig.wan_down.install_faults(
        LinkFaultPlan::new(fault_seed.wrapping_add(2) | 1)
            .drop_prob(drop_prob)
            .outage(ms(outage_start), ms(outage_start + outage_len)),
    );
    let server = rig.server.clone();
    let mut restart_times = restarts.to_vec();
    restart_times.sort_unstable();
    let restarts2 = restart_times.clone();
    sim.spawn("chaos", move |env: Env| {
        for t in restarts2 {
            let now = env.now();
            env.sleep(ms(t).saturating_since(now));
            server.restart(env.now().as_nanos());
        }
    });
    // Quiet point: after the outage is over and the last restart fired
    // (loss alone is ridden out by the retransmission policy).
    let quiet = (outage_start + outage_len).max(restart_times.last().copied().unwrap_or(0)) + 500;
    let (nfs, proxy, cred) = (rig.nfs, rig.proxy.clone(), rig.cred.clone());
    let rounds2 = rounds.to_vec();
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let (fh2, _) = nfs.lookup(&env, root, "vm.img").unwrap();
        assert_eq!(fh2, fh);
        for round in &rounds2 {
            for &(b, v) in round {
                nfs.write(
                    &env,
                    fh2,
                    b * BS,
                    payload(b, v),
                    nfs3::proto::StableHow::Unstable,
                )
                .unwrap();
            }
            nfs.commit(&env, fh2).unwrap();
            // Mid-fault flushes may fail blocks; they stay queued.
            let _ = proxy.flush(&env, &cred);
        }
        let now = env.now();
        env.sleep(ms(quiet).saturating_since(now));
        let mut drained = false;
        for _ in 0..8 {
            let report = proxy.flush(&env, &cred);
            if report.failed_blocks == 0 && report.failed_files == 0 {
                drained = true;
                break;
            }
        }
        assert!(drained, "flush must drain once the faults clear");
    });
    sim.run();
    let skips = rig.proxy.stats().dedup_acked_skips;
    let mut f = rig.fs.lock();
    let bytes = f.read(fh, 0, (BLOCKS * BS) as usize, 0).unwrap().0.to_vec();
    (bytes, skips)
}

proptest! {
    /// Under arbitrary loss / outage / restart schedules and arbitrary
    /// re-dirty patterns (including rewrites of identical content — the
    /// acked-skip bait), the dedup'd flush leaves the server
    /// byte-identical to the dedup-off flush, and both match the last
    /// version written per block. A restart between flushes rotates the
    /// server's write verifier, so a skip validated against a stale
    /// verifier would corrupt the off/on equivalence — this is the
    /// executable form of "no acknowledged byte is ever dedup-skipped
    /// incorrectly".
    #[test]
    fn dedup_flush_matches_plain_flush_under_faults(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u64..BLOCKS, 0u8..2), 1..8),
            1..4,
        ),
        drop_pct in 0u32..3,
        outage_start in 500u64..4000,
        outage_len in 1u64..4000,
        restarts in proptest::collection::vec(500u64..10_000, 0..3),
        fault_seed in any::<u64>(),
    ) {
        let drop_prob = drop_pct as f64 / 100.0;
        let (plain, plain_skips) = run_schedule(
            DedupTuning::off(), &rounds, drop_prob, outage_start, outage_len,
            &restarts, fault_seed,
        );
        let (deduped, _) = run_schedule(
            DedupTuning::default(), &rounds, drop_prob, outage_start, outage_len,
            &restarts, fault_seed,
        );
        prop_assert_eq!(plain_skips, 0);
        // Expected: the last version written per block; zero elsewhere.
        let mut expect = vec![0u8; (BLOCKS * BS) as usize];
        let mut last = [None::<u8>; BLOCKS as usize];
        for round in &rounds {
            for &(b, v) in round {
                last[b as usize] = Some(v);
            }
        }
        for (b, v) in last.iter().enumerate() {
            if let Some(v) = v {
                let lo = b * BS as usize;
                expect[lo..lo + BS as usize].copy_from_slice(&payload(b as u64, *v));
            }
        }
        prop_assert_eq!(&plain, &expect);
        prop_assert_eq!(&deduped, &expect);
    }
}

/// Deterministic acked-skip behaviour: re-dirtying a block with bytes
/// the server already acknowledged is skipped (counted, no WRITE); a
/// server restart invalidates the acked digests and the next flush
/// resends for real.
#[test]
fn unchanged_redirty_skips_and_restart_invalidates() {
    let sim = Simulation::new();
    let rig = build_rig(&sim, DedupTuning::default());
    let fh = seed_file(&rig.fs, "vm.img");
    let server = rig.server.clone();
    let proxy = rig.proxy.clone();
    let (nfs, cred) = (rig.nfs, rig.cred.clone());
    let fs = rig.fs.clone();
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let (fh2, _) = nfs.lookup(&env, root, "vm.img").unwrap();
        let dirty_all = |env: &Env| {
            for b in 0..BLOCKS {
                nfs.write(
                    env,
                    fh2,
                    b * BS,
                    payload(b, 1),
                    nfs3::proto::StableHow::Unstable,
                )
                .unwrap();
            }
            nfs.commit(env, fh2).unwrap();
        };
        dirty_all(&env);
        let r1 = proxy.flush(&env, &cred);
        assert_eq!(r1.blocks, BLOCKS);
        assert_eq!(proxy.stats().dedup_acked_skips, 0);

        // Same bytes again: every block skips, nothing crosses the WAN.
        dirty_all(&env);
        let r2 = proxy.flush(&env, &cred);
        assert_eq!(r2.blocks, 0, "unchanged blocks must not be re-sent");
        assert_eq!(r2.failed_blocks, 0);
        assert_eq!(proxy.stats().dedup_acked_skips, BLOCKS);
        assert_eq!(proxy.stats().dedup_bytes_avoided, BLOCKS * BS);

        // Restart rotates the write verifier: the acked digests are no
        // longer trustworthy, so the same bait must be re-sent.
        server.restart(env.now().as_nanos());
        dirty_all(&env);
        let r3 = proxy.flush(&env, &cred);
        assert_eq!(
            r3.blocks, BLOCKS,
            "restart must invalidate acked digests: {r3:?}"
        );
        assert_eq!(r3.failed_blocks, 0);
        assert_eq!(proxy.stats().dedup_acked_skips, BLOCKS, "no new skips");

        // Server ends byte-exact either way.
        let mut f = fs.lock();
        for b in 0..BLOCKS {
            let data = f.read(fh, b * BS, BS as usize, 0).unwrap().0.to_vec();
            assert_eq!(data, payload(b, 1), "block {b} corrupt");
        }
    });
    sim.run();
}

/// The digest-keyed second-level blob cache: two downstream clients
/// fetch two *different files* with identical content through a shared
/// LAN proxy concurrently. Every chunk crosses the upstream link once —
/// requests for a digest already in flight wait on the first fetch
/// (single-flight on content, not on file handle).
#[test]
fn shared_proxy_coalesces_blob_fetches_on_digest() {
    const CHUNK: u32 = 64 * 1024;
    const LEN: usize = 5 * CHUNK as usize + 9000;

    let sim = Simulation::new();
    let h = sim.handle();
    let (origin, ..) = wan_origin(&h);
    let fs = origin.fs;

    let data: Vec<u8> = (0..LEN as u64)
        .map(|i| (i.wrapping_mul(0x9E3779B97F4A7C15) >> 23) as u8)
        .collect();
    let (f1, f2) = {
        let mut f = fs.lock();
        let root = f.root();
        let a = f.create(root, "img-a", 0o644, 0).unwrap();
        f.write(a, 0, &data, 0).unwrap();
        let b = f.create(root, "img-b", 0o644, 0).unwrap();
        f.write(b, 0, &data, 0).unwrap();
        (a, b)
    };
    let distinct = chunk_digests(&data, CHUNK)
        .into_iter()
        .collect::<std::collections::BTreeSet<_>>()
        .len() as u64;

    let cred = OpaqueAuth::sys(&AuthSys::new("lan", 1, 1));
    let lan = lan_share(&h, origin.channel, &cred);
    let lan_proxy = lan.proxy.clone();

    let mut joins = Vec::new();
    for (i, fh) in [(0, f1), (1, f2)] {
        let chan = ChannelClient::new(RpcClient::new(lan.channel.clone(), cred.clone()));
        let want = data.clone();
        joins.push(sim.spawn(format!("cloner-{i}"), move |env: Env| {
            let cas = ContentStore::new(1 << 30);
            let dtel = DedupTel::unregistered();
            let pr = chan
                .fetch_recipe_pinned(
                    &env,
                    fh,
                    &RecipeFetch {
                        recipe_hint: None,
                        chunk_bytes: CHUNK,
                        window: 4,
                        batch: 1,
                        cas: &cas,
                        dtel: &dtel,
                        tel: None,
                    },
                )
                .unwrap();
            let got = pr.materialize(&cas).unwrap();
            assert_eq!(got, want, "client {i} got wrong bytes");
        }));
    }
    let _ = joins;
    sim.run();

    let st = lan_proxy.stats();
    // Upstream forwards: one FETCH_RECIPE per file (distinct handles)
    // plus exactly one FETCH_BLOBS per distinct chunk digest — the
    // second file's chunks all ride the first file's fetches.
    assert_eq!(
        st.forwarded,
        2 + distinct,
        "expected digest-coalesced forwards (distinct={distinct}): {st:?}"
    );
    assert!(
        st.dedup_recipe_hits >= distinct,
        "second client must be served from the digest cache: {st:?}"
    );
}

/// A tight retransmission policy so fault-window tests fail RPCs in
/// seconds instead of `RetryPolicy::wan()`'s ~135 s.
fn tight_policy() -> RetryPolicy {
    RetryPolicy {
        first_timeout: SimDuration::from_secs(1),
        max_timeout: SimDuration::from_secs(2),
        max_attempts: 2,
        jitter_frac: 0.0,
    }
}

/// A-B-A regression (block path): an UNSTABLE WRITE whose reply is lost
/// still mutates the server, so the durable ack recorded for the block
/// must die the moment the write is *issued*, not only when it visibly
/// succeeds. Schedule: flush v0 durably (ack recorded); during a
/// reply-direction outage flush v1 — the WRITE applies upstream but the
/// proxy only sees timeouts; revert the block to v0; heal; flush. The
/// final flush must RESEND v0: the pre-outage ack can no longer vouch
/// for what the server holds, which is v1.
#[test]
fn lost_reply_write_invalidates_acked_digest() {
    let sim = Simulation::new();
    let rig = build_rig_with(&sim, DedupTuning::default(), tight_policy());
    let fh = seed_file(&rig.fs, "vm.img");
    // Replies (only) vanish from t=5 s to t=60 s: requests keep landing
    // on the server, so its state moves while the proxy sees failures.
    // The outage outlasts the flush's four retry rounds (7.5 s of
    // backoff plus a timed-out WRITE and COMMIT per pass).
    rig.wan_down
        .install_faults(LinkFaultPlan::new(7).outage(ms(5_000), ms(60_000)));
    let proxy = rig.proxy.clone();
    let (nfs, cred) = (rig.nfs, rig.cred.clone());
    let fs = rig.fs.clone();
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let (fh2, _) = nfs.lookup(&env, root, "vm.img").unwrap();
        let write0 = |env: &Env, v: u8| {
            nfs.write(env, fh2, 0, payload(0, v), nfs3::proto::StableHow::Unstable)
                .unwrap();
            nfs.commit(env, fh2).unwrap();
        };
        // v0 durable: the (digest, verifier) ack is recorded.
        write0(&env, 0);
        let r1 = proxy.flush(&env, &cred);
        assert_eq!(r1.blocks, 1, "healthy flush: {r1:?}");

        // Mid-outage: v1's WRITE reaches the server, every reply is
        // lost, the flush parks the block as failed.
        let now = env.now();
        env.sleep(ms(6_000).saturating_since(now));
        write0(&env, 1);
        let r2 = proxy.flush(&env, &cred);
        assert_eq!(r2.blocks, 0, "outage flush must not complete: {r2:?}");
        assert_eq!(r2.failed_blocks, 1, "outage flush must park v1: {r2:?}");
        assert_eq!(
            proxy.stats().flush_retry_rounds,
            4,
            "every retry round ran dry"
        );

        // Revert to v0 — the A-B-A bait: identical to the acked bytes,
        // different from what the server now (silently) holds.
        write0(&env, 0);

        let now = env.now();
        env.sleep(ms(61_000).saturating_since(now));
        let r3 = proxy.flush(&env, &cred);
        assert_eq!(r3.failed_blocks, 0, "healed flush must drain: {r3:?}");
        assert_eq!(
            r3.blocks, 1,
            "v0 must be re-sent, not skipped — the server holds v1: {r3:?}"
        );
        assert_eq!(
            proxy.stats().dedup_acked_skips,
            0,
            "no skip may validate against the dead ack"
        );
        let mut f = fs.lock();
        let data = f.read(fh, 0, BS as usize, 0).unwrap().0.to_vec();
        assert_eq!(data, payload(0, 0), "server must end on v0");
    });
    sim.run();
}

/// Torn-upload regression (file path): a failed chunked upload may have
/// durably applied its leading chunks upstream. The synced digest must
/// be cleared before the attempt begins, so a VM rewriting the
/// pre-upload bytes can never match a stale digest and skip the repair
/// upload — leaving the torn file upstream forever.
#[test]
fn failed_upload_clears_synced_digest_and_repairs_torn_file() {
    // Two upload chunks: a 1 MiB head and a 256 KiB tail, in flight
    // together.
    const LEN: usize = (1 << 20) + (256 << 10);

    let sim = Simulation::new();
    let h = sim.handle();
    let (origin, wan_up, wan_down) = wan_origin(&h);
    let fs = origin.fs;
    // Both directions die after the tail chunk lands and before the head
    // does, and stay dead through the tight policy's retransmits and the
    // flush's four retry rounds.
    wan_up.install_faults(LinkFaultPlan::new(11).outage(ms(6_000), ms(60_000)));
    wan_down.install_faults(LinkFaultPlan::new(13).outage(ms(6_000), ms(60_000)));

    let cred = OpaqueAuth::sys(&AuthSys::new("dedup", 1, 1));
    let cfg = ProxyConfig {
        name: "upload-proxy".into(),
        meta_handling: false,
        ..ProxyConfig::default()
    };
    let disk = Disk::new(&h, DiskModel::scsi_2004());
    let volume = CacheVolume::new(&h, disk, &cfg, None, Some(256 << 20));
    let tier = Tier::start(
        cfg,
        &volume,
        RpcClient::new(origin.channel, cred.clone()).with_policy(tight_policy()),
        Listen::loopback(&h),
    );
    let proxy = tier.proxy;
    let fc = volume.file_cache.as_ref().unwrap().clone();
    let nfs = Nfs3Client::new(RpcClient::new(tier.channel, cred.clone()));

    // Pseudo-random (incompressible) so every chunk really occupies the
    // WAN; version B differs from A in every chunk.
    let gen = |salt: u64| -> Vec<u8> {
        (0..LEN as u64)
            .map(|i| {
                let x = i.wrapping_add(salt.wrapping_mul(0x5851_F42D_4C95_7F2D));
                (x.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 23) as u8
            })
            .collect()
    };
    let a = gen(1);
    let b = gen(2);
    let b2 = b.clone();
    let fh = {
        let mut f = fs.lock();
        let root = f.root();
        let fh = f.create(root, "vm.mem", 0o644, 0).unwrap();
        f.write(fh, 0, &a, 0).unwrap();
        fh
    };
    let key = FileKey {
        fileid: fh.fileid,
        generation: fh.generation,
    };

    let fs2 = fs.clone();
    sim.spawn("client", move |env: Env| {
        // The proxy holds A already (a prior fetch, modelled directly):
        // resident and synced at digest(A).
        fc.install(&env, key, &a);
        assert_eq!(fc.synced_digest(key).unwrap(), Some(digest(&a)));

        let root = nfs.mount(&env, "/").unwrap();
        let (fh2, _) = nfs.lookup(&env, root, "vm.mem").unwrap();

        // The VM rewrites the file to B; the flush upload dies part-way
        // into the outage, leaving a torn (part-B) file upstream.
        nfs.write(&env, fh2, 0, b, nfs3::proto::StableHow::Unstable)
            .unwrap();
        let now = env.now();
        env.sleep(ms(5_000).saturating_since(now));
        let r1 = proxy.flush(&env, &cred);
        assert_eq!(r1.files, 0, "upload must not complete: {r1:?}");
        assert_eq!(r1.failed_files, 1, "upload must fail mid-outage: {r1:?}");
        assert_eq!(
            fc.synced_digest(key).unwrap(),
            None,
            "a failed upload must leave the synced digest cleared"
        );
        {
            let mut f = fs2.lock();
            let got = f.read(fh, 0, LEN, 0).unwrap().0.to_vec();
            assert_ne!(got, a, "rig: at least one B chunk must land (torn)");
            assert_ne!(got, b2, "rig: at least one B chunk must not land (torn)");
        }

        // The VM rewrites the original bytes A — the stale-digest bait.
        nfs.write(&env, fh2, 0, a.clone(), nfs3::proto::StableHow::Unstable)
            .unwrap();
        let now = env.now();
        env.sleep(ms(61_000).saturating_since(now));
        let r2 = proxy.flush(&env, &cred);
        assert_eq!(r2.failed_files, 0, "healed flush must drain: {r2:?}");
        assert_eq!(r2.files, 1, "repair upload must run, not skip: {r2:?}");
        assert_eq!(
            proxy.stats().dedup_acked_skips,
            0,
            "nothing may skip against the cleared digest"
        );
        assert_eq!(
            fc.synced_digest(key).unwrap(),
            Some(digest(&a)),
            "completed repair reinstates the synced digest"
        );
        let mut f = fs2.lock();
        let got = f.read(fh, 0, LEN, 0).unwrap().0.to_vec();
        assert_eq!(got, a, "server must hold A after the repair upload");
    });
    sim.run();
}

/// A FETCH_BLOBS reply may only be cached under a digest if its payload
/// actually hashes to that digest: the origin serves by byte range and
/// ignores the digest field, so a request carrying a wrong digest (e.g.
/// recipe drift while the file is rewritten) must not poison the shared
/// digest-keyed cache for every downstream client.
#[test]
fn blob_cache_rejects_payload_digest_mismatch() {
    const CHUNK: u32 = 64 * 1024;

    let sim = Simulation::new();
    let h = sim.handle();
    let (origin, ..) = wan_origin(&h);
    let fs = origin.fs;

    let data: Vec<u8> = (0..CHUNK as u64)
        .map(|i| (i.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 17) as u8)
        .collect();
    let fh = {
        let mut f = fs.lock();
        let root = f.root();
        let fh = f.create(root, "img", 0o644, 0).unwrap();
        f.write(fh, 0, &data, 0).unwrap();
        fh
    };

    let cred = OpaqueAuth::sys(&AuthSys::new("lan", 1, 1));
    let lan = lan_share(&h, origin.channel, &cred);
    let lan_proxy = lan.proxy.clone();

    let right = digest(&data);
    let wrong = digest(b"a digest from a stale recipe");
    assert_ne!(right, wrong);

    let rpc = RpcClient::new(lan.channel, cred);
    let proxy2 = lan_proxy.clone();
    sim.spawn("client", move |env: Env| {
        let fetch = |env: &Env, d: Digest| -> Vec<u8> {
            let mut enc = Encoder::new();
            Fh3(fh).encode(&mut enc);
            enc.put_u64(0);
            enc.put_u32(CHUNK);
            enc.put_u64(d.0);
            enc.put_u64(d.1);
            rpc.call(
                env,
                CHANNEL_PROGRAM,
                CHANNEL_V1,
                chanproc::FETCH_BLOBS,
                &enc.into_bytes(),
            )
            .unwrap()
            .to_vec()
        };
        // Wrong digest: the origin happily serves the range, but the
        // proxy must not cache the reply under it — both requests
        // forward upstream.
        let r1 = fetch(&env, wrong);
        assert_eq!(proxy2.stats().forwarded, 1);
        let r2 = fetch(&env, wrong);
        assert_eq!(
            proxy2.stats().forwarded,
            2,
            "a reply that fails digest verification must not be cached"
        );
        assert_eq!(r1, r2, "pass-through replies must still reach the client");
        // Right digest: first forwards (and now caches), second is
        // served locally.
        let _ = fetch(&env, right);
        assert_eq!(proxy2.stats().forwarded, 3);
        let _ = fetch(&env, right);
        assert_eq!(
            proxy2.stats().forwarded,
            3,
            "a verified reply must be served from the digest cache"
        );
    });
    sim.run();
}

/// Both outcomes of one recipe fetch — pinned in place, materialized
/// through its pins — against the numbers it produced before fetched
/// blobs kept their wire form into the CAS: same wire and fresh bytes,
/// same CAS contents and pins, same virtual instant at the end. What
/// moved is host-side only: the CAS no longer digests and compresses
/// what the reply reader just decompressed and verified, and a
/// materialized fetch no longer copies resident chunks before it
/// fetches.
#[test]
fn recipe_outcomes_leave_the_cas_as_they_always_did() {
    const CHUNK: u32 = 64 * 1024;

    let sim = Simulation::new();
    let h = sim.handle();
    let fs = Shared::new(Fs::new(0));
    let disk = Disk::new(&h, DiskModel::server_array());
    let chan_server = FileChannelServer::new(fs.clone(), disk, true, None);
    let wan_up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let wan = oncrpc::endpoint(&h, wan_up, wan_down, WireSpec::ssh_tunnel(50e6));
    wan.listener.serve(
        "chan-server",
        Dispatcher::new().register(chan_server).into_handler(),
        8,
    );
    // Six chunks and a tail: dense, a hole, a repeat of the first, a
    // run, half-zero, dense again, then 1,000 bytes.
    let dense = |salt: u64| -> Vec<u8> {
        (0..CHUNK as u64)
            .map(|i| ((i ^ salt).wrapping_mul(0x2545_F491_4F6C_DD1D) >> 17) as u8)
            .collect()
    };
    let mut data = dense(1);
    data.extend(vec![0u8; CHUNK as usize]);
    data.extend(dense(1));
    data.extend(vec![0x5Au8; CHUNK as usize]);
    data.extend(
        dense(2)
            .into_iter()
            .enumerate()
            .map(|(i, b)| if i % 2048 < 1024 { 0 } else { b }),
    );
    data.extend(dense(3));
    data.extend(&dense(4)[..1000]);
    let fh = {
        let mut f = fs.lock();
        let root = f.root();
        let fh = f.create(root, "img", 0o644, 0).unwrap();
        f.write(fh, 0, &data, 0).unwrap();
        fh
    };
    let recipe = gvfs::generate_content_map(&mut fs.lock(), fh, CHUNK).unwrap();
    let cred = OpaqueAuth::sys(&AuthSys::new("c", 1, 1));
    let chan =
        ChannelClient::new(RpcClient::new(wan.channel, cred).with_policy(RetryPolicy::wan()));
    sim.spawn("client", move |env: Env| {
        // (records per envelope, wire bytes of either outcome, virtual
        // nanoseconds when both are done) — recorded at PR 18.
        for (batch, wire, end_ns) in [(1, 165_258u64, 287_156_312u64), (4, 165_258, 582_702_200)] {
            let (pinned_cas, copied_cas) = (ContentStore::new(1 << 30), ContentStore::new(1 << 30));
            let dtel = DedupTel::unregistered();
            let rq = |cas| RecipeFetch {
                recipe_hint: Some(&recipe),
                chunk_bytes: CHUNK,
                window: 4,
                batch,
                cas,
                dtel: &dtel,
                tel: None,
            };
            // One fetch per store; the second store's is then
            // materialized, which releases its pins.
            let fetch = |cas| chan.fetch_recipe_pinned(&env, fh, &rq(cas)).unwrap();
            let (pinned, copied) = (fetch(&pinned_cas), fetch(&copied_cas));
            assert_eq!(pinned, copied);
            assert_eq!(pinned.recipe, recipe);
            assert_eq!(pinned.wire, wire, "batch {batch}");
            // Six distinct chunks cross the wire; the repeat rides its twin.
            let fresh = 5 * CHUNK as u64 + 1000;
            assert_eq!(pinned.fresh_bytes, fresh);
            assert_eq!(copied.materialize(&copied_cas).unwrap(), data);
            for cas in [&pinned_cas, &copied_cas] {
                assert_eq!((cas.entries(), cas.logical_bytes()), (6, fresh));
                for ((d, l), chunk) in recipe.records.iter().zip(data.chunks(CHUNK as usize)) {
                    assert_eq!(cas.len_of(d), Some(*l));
                    assert_eq!(cas.get(d).unwrap(), chunk);
                }
            }
            // One pin per record occurrence, the repeat's included.
            assert_eq!(pinned_cas.pinned_bytes(), fresh);
            for (d, _) in &recipe.records {
                pinned_cas.unpin(d);
            }
            assert_eq!(
                (pinned_cas.pinned_bytes(), copied_cas.pinned_bytes()),
                (0, 0)
            );
            assert_eq!(dtel.blob_fetches.get(), 12);
            assert_eq!(dtel.recipe_hits.get(), 2);
            assert_eq!(env.now().as_nanos(), end_ns, "batch {batch}");
        }
    });
    sim.run();
}
