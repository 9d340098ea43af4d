//! Batched multi-digest FETCH_BLOBS equivalence: a `FETCH_BLOBS_BATCH`
//! envelope must be *byte*-equivalent to the N sequential `FETCH_BLOBS`
//! round-trips it replaces — under the fault schedules of the recovery
//! suite (packet loss + WAN outages ridden out by the retransmission
//! policy), both directly against the origin and through a batching
//! shard proxy. The origin charges contiguous recipe-ordered records as
//! streaming continuations instead of fresh seeks; that is a *timing*
//! model only and must never leak into payload bytes.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use gvfs::digest::digest;
use gvfs::{
    CacheVolume, ChannelClient, ContentStore, DedupTel, FleetTuning, ImageServer, Listen,
    ProxyConfig, RecipeFetch, Tier, WritePolicy,
};
use oncrpc::{AuthSys, OpaqueAuth, RetryPolicy, RpcClient};
use proptest::prelude::*;
use simnet::Shared;
use simnet::{Env, Link, LinkFaultPlan, SimDuration, SimTime, Simulation};
use vfs::{Disk, DiskModel};

const CHUNK: u32 = 8 * 1024;

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

/// Deterministic chunk payload for content version `v`. Versions repeat
/// across the file, so the recipe carries duplicate digests and the
/// planner exercises its duplicate-group slots alongside fresh misses.
fn chunk_payload(v: u8) -> Vec<u8> {
    (0..CHUNK as u64)
        .map(|i| (i.wrapping_mul(31).wrapping_add(v as u64 * 101) % 251) as u8)
        .collect()
}

/// A file of versioned chunks plus a short tail (so the last record is
/// not chunk-aligned).
fn build_file(versions: &[u8], tail: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(versions.len() * CHUNK as usize + tail);
    for &v in versions {
        data.extend_from_slice(&chunk_payload(v));
    }
    data.extend((0..tail as u64).map(|i| (i % 199) as u8));
    data
}

/// WAN fault schedule: probabilistic loss plus one outage window. The
/// clients ride on [`RetryPolicy::wan`], whose retransmit budget far
/// exceeds the longest schedule generated here, so every fetch must
/// eventually succeed — the property is about the *bytes* it returns.
#[derive(Clone, Copy)]
struct FaultPlan {
    drop_prob: f64,
    outage_start: u64,
    outage_len: u64,
    seed: u64,
}

impl FaultPlan {
    fn install(&self, up: &Link, down: &Link) {
        up.install_faults(
            LinkFaultPlan::new(self.seed | 1)
                .drop_prob(self.drop_prob)
                .outage(
                    ms(self.outage_start),
                    ms(self.outage_start + self.outage_len),
                ),
        );
        down.install_faults(
            LinkFaultPlan::new(self.seed.wrapping_add(2) | 1)
                .drop_prob(self.drop_prob)
                .outage(
                    ms(self.outage_start),
                    ms(self.outage_start + self.outage_len),
                ),
        );
    }
}

/// One fetch run: an origin channel server behind a faulted WAN, an
/// optional shard proxy (dedup + the given fleet tuning) in between, and
/// a single client doing a materialized recipe fetch with the given envelope
/// size. Returns the reassembled contents and, when a shard was present,
/// its `(envelopes, sub-calls)` batch counters.
fn run_fetch(
    data: &[u8],
    batch: usize,
    window: usize,
    shard: Option<FleetTuning>,
    faults: FaultPlan,
) -> (Vec<u8>, (u64, u64)) {
    let sim = Simulation::new();
    let h = sim.handle();
    let wan_up = Link::from_mbps(&h, "wan-up", 6.0, SimDuration::from_millis(17));
    let wan_down = Link::from_mbps(&h, "wan-down", 14.0, SimDuration::from_millis(17));
    faults.install(&wan_up, &wan_down);
    let origin = ImageServer::start(&h, Listen::tunnel(wan_up, wan_down), 768 << 20, false);
    let fs = origin.fs;

    let fh = {
        let mut f = fs.lock();
        let root = f.root();
        let fh = f.create(root, "img", 0o644, 0).unwrap();
        f.write(fh, 0, data, 0).unwrap();
        fh
    };

    let cred = OpaqueAuth::sys(&AuthSys::new("fleet", 1, 1));
    // The channel the client ends up talking to: the WAN directly, or a
    // shard proxy one clean LAN hop closer.
    let (client_channel, shard_proxy) = match shard {
        None => (origin.channel, None),
        Some(fleet) => {
            let lan_up = Link::new(&h, "lan-up", 1e9, SimDuration::from_micros(100));
            let lan_down = Link::new(&h, "lan-down", 1e9, SimDuration::from_micros(100));
            let cfg = ProxyConfig {
                name: "shard".into(),
                write_policy: WritePolicy::WriteThrough,
                meta_handling: false,
                fleet,
                ..ProxyConfig::default()
            };
            let disk = Disk::new(&h, DiskModel::server_array());
            let volume = CacheVolume::new(&h, disk, &cfg, None, None);
            let tier = Tier::start(
                cfg,
                &volume,
                RpcClient::new(origin.channel, cred.clone()).with_policy(RetryPolicy::wan()),
                Listen::plain(lan_up, lan_down),
            );
            (tier.channel, Some(tier.proxy))
        }
    };

    let chan =
        ChannelClient::new(RpcClient::new(client_channel, cred).with_policy(RetryPolicy::wan()));
    let got: Shared<Option<Vec<u8>>> = Shared::new(None);
    let got2 = got.clone();
    sim.spawn("cloner", move |env: Env| {
        let cas = ContentStore::new(1 << 30);
        let dtel = DedupTel::unregistered();
        let pr = chan
            .fetch_recipe_pinned(
                &env,
                fh,
                &RecipeFetch {
                    recipe_hint: None,
                    chunk_bytes: CHUNK,
                    window,
                    batch,
                    cas: &cas,
                    dtel: &dtel,
                    tel: None,
                },
            )
            .unwrap();
        *got2.lock() = Some(pr.materialize(&cas).unwrap().to_vec());
    });
    sim.run();
    let batch_stats = shard_proxy.map(|p| p.fleet_batch_stats()).unwrap_or((0, 0));
    let contents = got.lock().take().expect("fetch must complete");
    (contents, batch_stats)
}

proptest! {
    /// Under arbitrary chunk-version layouts (duplicates included),
    /// envelope sizes, pipeline windows and loss/outage schedules, the
    /// batched fetch returns exactly the bytes of the sequential fetch —
    /// and both are exactly the file — whether the envelopes hit the
    /// origin directly or are unpacked, deduped and re-batched by a
    /// shard proxy.
    #[test]
    fn batched_fetch_matches_sequential_under_faults(
        versions in proptest::collection::vec(0u8..5, 2..12),
        tail in 0usize..(CHUNK as usize),
        window in 1usize..5,
        batch in 2usize..40,
        drop_pct in 0u32..3,
        outage_start in 0u64..1500,
        outage_len in 1u64..2000,
        fault_seed in any::<u64>(),
    ) {
        let data = build_file(&versions, tail);
        let faults = FaultPlan {
            drop_prob: drop_pct as f64 / 100.0,
            outage_start,
            outage_len,
            seed: fault_seed,
        };
        let (sequential, _) = run_fetch(&data, 1, window, None, faults);
        let (batched, _) = run_fetch(&data, batch, window, None, faults);
        let (via_shard, (envelopes, items)) =
            run_fetch(&data, batch, window, Some(FleetTuning::shard()), faults);
        prop_assert_eq!(digest(&sequential), digest(&data));
        prop_assert_eq!(&sequential, &data);
        prop_assert_eq!(&batched, &data);
        prop_assert_eq!(&via_shard, &data);
        // The shard really took the envelope path: at least one upstream
        // round for the cold misses, never more sub-calls than rounds
        // could carry.
        prop_assert!(envelopes >= 1, "shard must issue batched rounds");
        prop_assert!(items >= envelopes);
    }
}

/// Contiguous-span accounting at the origin (adjacent records charged as
/// streaming continuations) is timing-only: every envelope split point
/// yields identical bytes, and a batch bigger than the whole recipe
/// degenerates to one envelope without error.
#[test]
fn envelope_split_points_do_not_change_bytes() {
    let versions: Vec<u8> = (0..10).map(|i| (i % 4) as u8).collect();
    let data = build_file(&versions, 1234);
    let clean = FaultPlan {
        drop_prob: 0.0,
        outage_start: 0,
        outage_len: 1,
        seed: 1,
    };
    let (baseline, _) = run_fetch(&data, 1, 4, None, clean);
    assert_eq!(baseline, data);
    for batch in [2, 3, 5, 7, 64] {
        let (got, _) = run_fetch(&data, batch, 4, None, clean);
        assert_eq!(got, baseline, "batch={batch} changed payload bytes");
        let (via_shard, (envelopes, _)) =
            run_fetch(&data, batch, 4, Some(FleetTuning::shard()), clean);
        assert_eq!(via_shard, baseline, "batch={batch} via shard changed bytes");
        assert!(envelopes >= 1);
    }
}
