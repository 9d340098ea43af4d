//! Copy-on-write reference-install correctness (DESIGN.md §5.9): a
//! clone whose golden image installs as a *reference file* (recipe of
//! digests resolved against the proxy's CAS) must be indistinguishable
//! from one installed as a materialized byte copy — byte-identical
//! guest-visible reads before and after divergence, and a byte-identical
//! origin after flush — including under packet loss and WAN outages.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::rc::Rc;

use gvfs::{
    CacheVolume, CowTuning, FileChannelSpec, ImageServer, Listen, Middleware, Proxy, ProxyConfig,
    Tier,
};
use nfs3::Nfs3Client;
use oncrpc::{AuthSys, OpaqueAuth, RetryPolicy, RpcClient};
use proptest::prelude::*;
use simnet::Shared;
use simnet::{Env, Link, LinkFaultPlan, SimDuration, SimTime, Simulation};
use vfs::{Disk, DiskModel, Fs, Handle};

const CHUNK: u32 = 32 * 1024;
const BLOCKS: u64 = 8;
const LEN: u64 = BLOCKS * CHUNK as u64;

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

struct Rig {
    fs: Shared<Fs>,
    proxy: Rc<Proxy>,
    nfs: Nfs3Client,
    cred: OpaqueAuth,
    wan_up: Link,
    wan_down: Link,
}

/// A meta-handling write-back client proxy with a file channel over a
/// faultable WAN (the cloning data path, parameterized on CoW). Dedup is
/// on in both lanes so the comparison isolates the reference install
/// from the CAS itself.
fn build_rig(sim: &Simulation, cow: CowTuning) -> Rig {
    let h = sim.handle();
    let wan_up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    let origin = ImageServer::start(
        &h,
        Listen::tunnel(wan_up.clone(), wan_down.clone()),
        768 << 20,
        false,
    );
    let fs = origin.fs;

    let cred = OpaqueAuth::sys(&AuthSys::new("cow", 1, 1));
    let cfg = ProxyConfig {
        name: "cow-proxy".into(),
        cow,
        ..ProxyConfig::default()
    };
    let disk = Disk::new(&h, DiskModel::scsi_2004());
    let volume = CacheVolume::new(&h, disk, &cfg, None, Some(256 << 20));
    let tier = Tier::start(
        cfg,
        &volume,
        RpcClient::new(origin.channel, cred.clone()).with_policy(RetryPolicy::wan()),
        Listen::loopback(&h),
    );
    let proxy = tier.proxy;
    let nfs = Nfs3Client::new(RpcClient::new(tier.channel, cred.clone()));

    Rig {
        fs,
        proxy,
        nfs,
        cred,
        wan_up,
        wan_down,
    }
}

/// Deterministic payload for block `b`, content version `v` (v=0 is the
/// golden image; no 32 KiB block is all-zero, so the zero-map plays no
/// part in either lane).
fn payload(b: u64, v: u8) -> Vec<u8> {
    (0..CHUNK)
        .map(|i| (i as u64 * 31 + b * 17 + v as u64 * 101).wrapping_rem(249) as u8)
        .collect()
}

/// Seed the golden image on the origin and publish its middleware meta
/// (content map + channel spec) so the proxy's first READ installs it
/// through the file channel.
fn seed_golden(fs: &Shared<Fs>) -> Handle {
    let mut f = fs.lock();
    let root = f.root();
    let fh = f.create(root, "golden.vmss", 0o644, 0).unwrap();
    for b in 0..BLOCKS {
        f.write(fh, b * CHUNK as u64, &payload(b, 0), 0).unwrap();
    }
    drop(f);
    {
        let mut f = fs.lock();
        Middleware::generate_meta(
            &mut f,
            "",
            "golden.vmss",
            CHUNK,
            true,
            Some(FileChannelSpec {
                compress: true,
                writeback: false,
            }),
        )
        .unwrap();
    }
    fh
}

/// One full clone-lifecycle run under a fault schedule: install via
/// first read, diverge some blocks, read the guest view again, flush
/// once the faults clear. Returns (guest view before writes, guest view
/// after writes, final origin bytes, cow ref installs).
fn run_schedule(
    cow: CowTuning,
    rounds: &[Vec<(u64, u8)>],
    drop_prob: f64,
    outage_start: u64,
    outage_len: u64,
    fault_seed: u64,
) -> (Vec<u8>, Vec<u8>, Vec<u8>, u64) {
    let sim = Simulation::new();
    let rig = build_rig(&sim, cow);
    let fh = seed_golden(&rig.fs);
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
    // Quiet point: past the outage (loss alone is ridden out by the
    // retransmission policy).
    let quiet = outage_start + outage_len + 500;
    let out = Shared::new((Vec::new(), Vec::new()));
    let out2 = out.clone();
    let (nfs, proxy, cred) = (rig.nfs, rig.proxy.clone(), rig.cred.clone());
    let rounds2 = rounds.to_vec();
    sim.spawn("client", move |env: Env| {
        let root = nfs.mount(&env, "/").unwrap();
        let (fh2, _) = nfs.lookup(&env, root, "golden.vmss").unwrap();
        assert_eq!(fh2, fh);
        let read_all = |env: &Env| {
            let mut got = Vec::new();
            let mut off = 0u64;
            while off < LEN {
                let r = nfs.read(env, fh2, off, CHUNK).unwrap();
                off += r.data.len() as u64;
                got.extend_from_slice(&r.data);
            }
            got
        };
        // Clone install: the first read pulls the image through the
        // channel (reference install with CoW on, materialized with it
        // off) — the pre-divergence guest view.
        let before = read_all(&env);
        // Divergence: each round breaks sharing for the blocks it
        // touches; mid-fault flushes may fail and stay queued.
        for round in &rounds2 {
            for &(b, v) in round {
                nfs.write(
                    &env,
                    fh2,
                    b * CHUNK as u64,
                    payload(b, v),
                    nfs3::proto::StableHow::Unstable,
                )
                .unwrap();
            }
            nfs.commit(&env, fh2).unwrap();
            let _ = proxy.flush(&env, &cred);
        }
        let after = read_all(&env);
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
        *out2.lock() = (before, after);
    });
    let h = sim.handle();
    sim.run();
    let installs = h
        .telemetry()
        .snapshot()
        .counter_sum("gvfs", ".cow.ref_installs");
    let (before, after) = std::mem::take(&mut *out.lock());
    let mut f = rig.fs.lock();
    let server = f.read(fh, 0, LEN as usize, 0).unwrap().0.to_vec();
    (before, after, server, installs)
}

/// The golden bytes overlaid with the last version written per block.
fn expected_after(rounds: &[Vec<(u64, u8)>]) -> Vec<u8> {
    let mut last = [0u8; BLOCKS as usize];
    for round in rounds {
        for &(b, v) in round {
            last[b as usize] = v;
        }
    }
    let mut bytes = Vec::with_capacity(LEN as usize);
    for (b, v) in last.iter().enumerate() {
        bytes.extend_from_slice(&payload(b as u64, *v));
    }
    bytes
}

proptest! {
    /// Under arbitrary divergence patterns and loss / outage schedules,
    /// a CoW reference install is observationally identical to a full
    /// materialized install: the guest reads the same bytes before and
    /// after diverging, and the origin holds the same bytes after the
    /// flush drains — which must equal the last version written per
    /// block. This is the executable form of "a reference file is a
    /// cache entry, not a different file".
    #[test]
    fn cow_clone_matches_full_install(
        rounds in proptest::collection::vec(
            proptest::collection::vec((0u64..BLOCKS, 1u8..3), 1..6),
            1..3,
        ),
        drop_pct in 0u32..3,
        outage_start in 500u64..3000,
        outage_len in 1u64..3000,
        fault_seed in any::<u64>(),
    ) {
        let drop_prob = drop_pct as f64 / 100.0;
        let (full_before, full_after, full_server, full_installs) = run_schedule(
            CowTuning::off(), &rounds, drop_prob, outage_start, outage_len, fault_seed,
        );
        let (cow_before, cow_after, cow_server, _) = run_schedule(
            CowTuning::on(), &rounds, drop_prob, outage_start, outage_len, fault_seed,
        );
        prop_assert_eq!(full_installs, 0);
        prop_assert_eq!(&cow_before, &full_before);
        prop_assert_eq!(&cow_after, &full_after);
        prop_assert_eq!(&cow_server, &full_server);
        // Both lanes must also be *right*, not just agree.
        let golden: Vec<u8> = (0..BLOCKS).flat_map(|b| payload(b, 0)).collect();
        prop_assert_eq!(&full_before, &golden);
        let expect = expected_after(&rounds);
        prop_assert_eq!(&full_after, &expect);
        prop_assert_eq!(&full_server, &expect);
    }
}

/// Fault-free sanity for the property above: the CoW lane really serves
/// through a reference install (one per image, not a materialized copy),
/// so the proptest's equivalence is not vacuously comparing two
/// materialized lanes.
#[test]
fn cow_lane_actually_installs_a_reference() {
    let rounds = vec![vec![(2u64, 1u8), (5, 2)]];
    let (_, after, server, installs) = run_schedule(CowTuning::on(), &rounds, 0.0, 500, 1, 99);
    assert_eq!(
        installs, 1,
        "first read must install the image as a reference"
    );
    let expect = expected_after(&rounds);
    assert_eq!(after, expect);
    assert_eq!(server, expect);
}
