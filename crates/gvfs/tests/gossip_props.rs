//! Intra-region digest gossip correctness (DESIGN.md §5.10): two shard
//! proxies exchanging CAS digest inventories and serving each other's
//! blob misses peer-to-peer must be *observationally invisible* — every
//! guest reads exactly the bytes it would have read with gossip off,
//! under the same packet-loss and WAN-outage schedules the recovery
//! suite uses — while actually moving cold bytes off the WAN. Gossip
//! churn must also never disturb pinned CoW chunks: a pin is a residency
//! guarantee a live reference file depends on, and no amount of
//! peer-serve traffic may evict or unpin it.

// Test-harness code: clippy's allow-unwrap-in-tests only covers
// #[test]-marked fns, not integration-test helpers.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use gvfs::digest::digest;
use gvfs::{
    ChannelClient, CodecModel, ContentStore, DedupTel, DedupTuning, FleetTuning, ImageServer,
    Listen, ProxyConfig, RecipeFetch, Tier, WritePolicy,
};
use oncrpc::{AuthSys, OpaqueAuth, RetryPolicy, RpcClient};
use parking_lot::Mutex;
use proptest::prelude::*;
use simnet::{Env, Link, LinkFaultPlan, SimDuration, SimTime, Simulation};
use vfs::{Disk, DiskModel};

const CHUNK: u32 = 8 * 1024;

/// Guest-visible bytes read by the two cloners (slot 0 = cloner-a).
type ClonerOut = Mutex<(Option<Vec<u8>>, Option<Vec<u8>>)>;

fn ms(v: u64) -> SimTime {
    SimTime::from_nanos(v * 1_000_000)
}

/// Deterministic chunk payload for content version `v` (same family as
/// the batch-equivalence suite, so recipes carry duplicate digests).
fn chunk_payload(v: u8) -> Vec<u8> {
    (0..CHUNK as u64)
        .map(|i| (i.wrapping_mul(31).wrapping_add(v as u64 * 101) % 251) as u8)
        .collect()
}

fn build_file(versions: &[u8], tail: usize) -> Vec<u8> {
    let mut data = Vec::with_capacity(versions.len() * CHUNK as usize + tail);
    for &v in versions {
        data.extend_from_slice(&chunk_payload(v));
    }
    data.extend((0..tail as u64).map(|i| (i % 199) as u8));
    data
}

/// WAN fault schedule: probabilistic loss plus one outage window, ridden
/// out by [`RetryPolicy::wan`]. Gossip LAN hops stay clean — the PR 4
/// recovery suite's faults live on the WAN, and a lost gossip round is
/// already covered by the protocol (the cursor only advances on success).
#[derive(Clone, Copy)]
struct FaultPlan {
    drop_prob: f64,
    outage_start: u64,
    outage_len: u64,
    seed: u64,
}

impl FaultPlan {
    const CLEAN: FaultPlan = FaultPlan {
        drop_prob: 0.0,
        outage_start: 0,
        outage_len: 1,
        seed: 1,
    };

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

struct PairOut {
    /// Reassembled contents at the site-A and site-B cloners.
    a: Vec<u8>,
    b: Vec<u8>,
    /// Peer-serve telemetry summed over both shards.
    peer_hits: u64,
    /// Bytes that crossed the (shared) origin WAN downlink.
    wan_down_bytes: u64,
    /// Digests pinned into shard B's CAS before the run that are still
    /// resident afterwards.
    pins_surviving: usize,
}

/// Two sibling shard proxies in one region, both upstream of the same
/// faulted origin WAN, each fronting one cloner on its own clean LAN.
/// Cloner A fetches at t=0 (cold, crosses the WAN); cloner B fetches
/// `stagger_ms` later — with gossip on and enough stagger, B's shard
/// learns A's inventory and serves the misses peer-to-peer. `pinned`
/// payloads are pinned into shard B's CAS up front to witness that
/// gossip and peer churn never disturb a pin.
fn run_pair(
    data: &[u8],
    gossip: bool,
    stagger_ms: u64,
    cas_bytes: u64,
    pinned: &[Vec<u8>],
    faults: FaultPlan,
) -> PairOut {
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
    let fleet = if gossip {
        FleetTuning::region()
    } else {
        FleetTuning::shard()
    };
    let mk_shard = |name: &str| {
        let lan = |dir| {
            let name = format!("{name}-lan-{dir}");
            Link::new(&h, name, 1e9, SimDuration::from_micros(100))
        };
        let tier = Tier::start(
            ProxyConfig {
                name: name.into(),
                write_policy: WritePolicy::WriteThrough,
                meta_handling: false,
                read_only_share: true,
                dedup: DedupTuning {
                    enabled: true,
                    cas_bytes,
                },
                fleet,
                ..ProxyConfig::default()
            },
            None,
            None,
            &Disk::new(&h, DiskModel::server_array()),
            RpcClient::new(origin.channel.clone(), cred.clone()).with_policy(RetryPolicy::wan()),
            Listen::plain(lan("up"), lan("down")),
        );
        (tier.proxy, tier.channel)
    };
    let (shard_a, chan_a) = mk_shard("shardA");
    let (shard_b, chan_b) = mk_shard("shardB");

    let pinned_digests: Vec<_> = pinned
        .iter()
        .map(|p| {
            shard_b
                .content_store()
                .expect("dedup on implies a CAS")
                .insert_pinned(p)
        })
        .collect();

    // Region wiring (no-ops when the proxies were built gossip-off).
    shard_a.set_gossip_peers(0, vec![(1, RpcClient::new(chan_b.clone(), cred.clone()))]);
    shard_b.set_gossip_peers(1, vec![(0, RpcClient::new(chan_a.clone(), cred.clone()))]);

    let done = Arc::new(AtomicUsize::new(0));
    if gossip {
        let (a2, b2, done2) = (shard_a.clone(), shard_b.clone(), done.clone());
        sim.spawn("gossip-driver", move |env: Env| {
            while done2.load(Ordering::Acquire) < 2 {
                env.sleep(SimDuration::from_millis(20));
                a2.gossip_round(&env);
                b2.gossip_round(&env);
            }
        });
    }

    let out: Arc<ClonerOut> = Arc::new(Mutex::new((None, None)));
    for (name, chan, delay_ms, slot) in [
        ("cloner-a", chan_a, 0u64, 0usize),
        ("cloner-b", chan_b, stagger_ms, 1),
    ] {
        let chan = ChannelClient::new(
            RpcClient::new(chan, cred.clone()).with_policy(RetryPolicy::wan()),
            CodecModel::default(),
        );
        let (out2, done2) = (out.clone(), done.clone());
        sim.spawn(name, move |env: Env| {
            env.sleep(SimDuration::from_millis(delay_ms));
            let cas = ContentStore::new(1 << 30);
            let dtel = DedupTel::unregistered();
            let df = chan
                .fetch_dedup(
                    &env,
                    fh,
                    &RecipeFetch {
                        recipe_hint: None,
                        chunk_bytes: CHUNK,
                        window: 4,
                        batch: 8,
                        cas: &cas,
                        dtel: &dtel,
                        tel: None,
                    },
                )
                .unwrap();
            let mut o = out2.lock();
            if slot == 0 {
                o.0 = Some(df.contents);
            } else {
                o.1 = Some(df.contents);
            }
            done2.fetch_add(1, Ordering::Release);
        });
    }
    sim.run();

    let snapshot = h.telemetry().snapshot();
    let cas_b = shard_b.content_store().expect("dedup on implies a CAS");
    let pins_surviving = pinned_digests.iter().filter(|d| cas_b.contains(d)).count();
    let mut o = out.lock();
    PairOut {
        a: o.0.take().expect("cloner A must complete"),
        b: o.1.take().expect("cloner B must complete"),
        peer_hits: snapshot.counter_sum("gvfs", ".gossip.peer_hits"),
        wan_down_bytes: snapshot.counter_sum("link", "wan-down.bytes"),
        pins_surviving,
    }
}

proptest! {
    /// Under arbitrary chunk layouts, arrival staggers and WAN
    /// loss/outage schedules, both cloners read exactly the file bytes
    /// whether their shards gossip or not — digest-verified peer serving
    /// is pure transport, never content — and chunks pinned into a
    /// shard's CAS before the run are still resident after all the
    /// gossip and peer-serve churn.
    #[test]
    fn gossip_is_invisible_to_guests_under_faults(
        versions in proptest::collection::vec(0u8..5, 2..10),
        tail in 0usize..(CHUNK as usize),
        stagger_ms in 0u64..3000,
        drop_pct in 0u32..3,
        outage_start in 0u64..1500,
        outage_len in 1u64..2000,
        fault_seed in any::<u64>(),
    ) {
        let data = build_file(&versions, tail);
        let pinned: Vec<Vec<u8>> = (100u8..102).map(chunk_payload).collect();
        let faults = FaultPlan {
            drop_prob: drop_pct as f64 / 100.0,
            outage_start,
            outage_len,
            seed: fault_seed,
        };
        let cap = DedupTuning::default().cas_bytes;
        let off = run_pair(&data, false, stagger_ms, cap, &pinned, faults);
        let on = run_pair(&data, true, stagger_ms, cap, &pinned, faults);
        prop_assert_eq!(&off.a, &data);
        prop_assert_eq!(&off.b, &data);
        prop_assert_eq!(&on.a, &data);
        prop_assert_eq!(&on.b, &data);
        prop_assert_eq!(digest(&on.b), digest(&data));
        // Gossip-off shards must never peer-serve.
        prop_assert_eq!(off.peer_hits, 0);
        prop_assert_eq!(on.pins_surviving, pinned.len());
        prop_assert_eq!(off.pins_surviving, pinned.len());
    }
}

/// Fault-free sanity for the property above: with a stagger comfortably
/// past the gossip interval, the second site's misses really are served
/// by its sibling — peer hits happen and WAN-down traffic drops — so the
/// proptest's equivalence is not vacuously comparing two identical
/// origin-only runs.
#[test]
fn gossip_serves_second_site_from_peer() {
    let versions: Vec<u8> = (0..8).map(|i| (i % 4) as u8).collect();
    let data = build_file(&versions, 777);
    let cap = DedupTuning::default().cas_bytes;
    let off = run_pair(&data, false, 2_000, cap, &[], FaultPlan::CLEAN);
    let on = run_pair(&data, true, 2_000, cap, &[], FaultPlan::CLEAN);
    assert_eq!(off.a, data);
    assert_eq!(on.b, data);
    assert!(
        on.peer_hits >= 1,
        "stagger past the interval must peer-serve"
    );
    assert!(
        on.wan_down_bytes < off.wan_down_bytes,
        "peer serving must shed WAN-down bytes ({} vs {})",
        on.wan_down_bytes,
        off.wan_down_bytes
    );
}

/// Pins survive *capacity pressure* caused by peer and gossip traffic:
/// with a CAS so small that the file's chunks force evictions, the
/// pinned entries are skipped (the store may overrun instead) and are
/// still resident and re-pinnable after the run.
#[test]
fn gossip_churn_never_evicts_pinned_chunks() {
    let versions: Vec<u8> = (0..10).map(|i| (i % 5) as u8).collect();
    let data = build_file(&versions, 123);
    let pinned: Vec<Vec<u8>> = (100u8..103).map(chunk_payload).collect();
    // Room for the pins plus ~2 file chunks: every further insert must
    // evict something, and it must never be a pin.
    let cap = (pinned.len() as u64 + 2) * CHUNK as u64;
    let on = run_pair(&data, true, 1_500, cap, &pinned, FaultPlan::CLEAN);
    assert_eq!(on.a, data);
    assert_eq!(on.b, data);
    assert_eq!(
        on.pins_surviving,
        pinned.len(),
        "a pin is a residency guarantee"
    );
}
