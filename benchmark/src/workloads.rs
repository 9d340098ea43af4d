//! The four workloads: the library call each one makes, and the folding
//! of what the call returns into deterministic named values.
//!
//! Everything here is a pure function of `(workload, seed, loaded)`: the
//! program under test receives only the generated inputs, and every
//! value in [`Outcome::values`] must repeat exactly from child to child.

use ::workloads::kernel::{self, KernelParams};
use gvfs::CowTuning;
use gvfs_bench::perfjson::rpc_roundtrips;
use gvfs_bench::{
    run_app_scenario, run_fleet, run_parallel_cloning, AppParams, AppScenario, ArrivalMode,
    CloneParams, FleetParams, NetParams,
};
use simnet::{DetRng, SimDuration, Snapshot};

use crate::spec::DEFAULT_SEED;
use crate::stats::highest_percentile;

/// What one call of a workload's entry point produced.
pub struct Outcome {
    /// Deterministic values by metric name: the end-to-end metrics read
    /// off the simulation, every `product.*` metric and every
    /// Snapshot-derived per-layer count.
    pub values: Vec<(&'static str, f64)>,
    /// Correctness checks that failed, in words.
    pub failures: Vec<String>,
    /// Digest of the origin filesystem after the run (`kernel_rw`).
    pub fs_digest: Option<u64>,
    /// Scheduler events processed.
    pub events: u64,
    /// The run's telemetry, trace ring included when tracing was on.
    pub snapshot: Snapshot,
}

/// The WAN `clone_cold` runs on. It has no stochastic input of its own,
/// so the seed draws the day's WAN conditions instead: each of downlink
/// bandwidth, uplink bandwidth and one-way latency within 2% of the
/// paper's calibration. The default seed is the calibration itself, so
/// it reproduces the numbers of `reports/table1_parallel.json`'s lane.
pub fn wan_of(seed: u64) -> NetParams {
    let nominal = NetParams::default();
    if seed == DEFAULT_SEED {
        return nominal;
    }
    let mut rng = DetRng::new(seed);
    let mut within_2_percent = |x: f64| x * (1.0 + 0.02 * (2.0 * rng.next_f64() - 1.0));
    NetParams {
        wan_down_mbps: within_2_percent(nominal.wan_down_mbps),
        wan_up_mbps: within_2_percent(nominal.wan_up_mbps),
        wan_oneway: SimDuration::from_secs_f64(within_2_percent(nominal.wan_oneway.as_secs_f64())),
        ..nominal
    }
}

fn kernel_workload(seed: u64) -> ::workloads::Workload {
    kernel::generate(&KernelParams {
        seed,
        ..KernelParams::default()
    })
}

fn fleet_params(name: &str, seed: u64, loaded: bool, trace: bool) -> FleetParams {
    match name {
        "fleet_cold" => FleetParams {
            clones: if loaded { 512 } else { 0 },
            arrival: ArrivalMode::Bursty,
            rate_per_sec: 4.0,
            cow: CowTuning::off(),
            seed,
            trace,
            ..FleetParams::default()
        },
        _ => FleetParams {
            clones: if loaded { 2560 } else { 0 },
            seed,
            trace,
            ..FleetParams::ten_k()
        },
    }
}

/// Run workload `name` once: with its full load, or with zero load
/// (`runs: 0` / `clones: 0`), which is the set-up the loaded call repeats.
pub fn run(name: &str, seed: u64, loaded: bool, trace: bool) -> Outcome {
    match name {
        "kernel_rw" => {
            let params = AppParams {
                trace,
                ..AppParams::default()
            };
            let runs = if loaded { 2 } else { 0 };
            let r = run_app_scenario(AppScenario::WanC, &kernel_workload(seed), &params, runs);
            let mut failures = Vec::new();
            if loaded && (r.runs.len() != 2 || r.flush_secs.is_none()) {
                failures.push(format!(
                    "kernel_rw: {} runs and flush {:?}, want 2 runs and a flush",
                    r.runs.len(),
                    r.flush_secs
                ));
            }
            let run_total = |i: usize| r.runs.get(i).map_or(0.0, |run| run.total);
            Raw {
                virtual_s: r.total_virtual_secs,
                events: r.events_processed,
                procs: r.processes_spawned,
                cold_warm_flush: [run_total(0), run_total(1), r.flush_secs.unwrap_or(0.0)],
                wan_down_mbps: params.net.wan_down_mbps,
                fs_digest: r.server_fs_digest,
                failures,
                snapshot: r.snapshot,
                ..Raw::default()
            }
        }
        "clone_cold" => {
            let net = wan_of(seed);
            let r = run_parallel_cloning(&CloneParams {
                net,
                image_scale: Some(4),
                clones: if loaded { 8 } else { 0 },
                trace,
                ..CloneParams::default()
            });
            Raw {
                virtual_s: r.total_virtual_secs,
                events: r.events_processed,
                procs: r.processes_spawned,
                cold_warm_flush: [r.cold_secs, r.warm_secs, 0.0],
                wan_down_mbps: net.wan_down_mbps,
                snapshot: r.snapshot,
                ..Raw::default()
            }
        }
        "fleet_cold" | "fleet_warm" => {
            let params = fleet_params(name, seed, loaded, trace);
            let r = run_fleet(&params);
            let mut failures = Vec::new();
            if r.latency.count != params.clones as u64 {
                failures.push(format!(
                    "{name}: {} of {} clones completed",
                    r.latency.count, params.clones
                ));
            }
            let l = r.latency;
            // A percentile is reported only with ten samples beyond it:
            // p99 has 25 at 2,560 clones but 5 at 512.
            let top = highest_percentile(l.count, 10).unwrap_or(0.0);
            let supported = |p: f64, secs: f64| if p <= top { secs } else { 0.0 };
            Raw {
                virtual_s: r.total_virtual_secs,
                events: r.events_processed,
                procs: r.processes_spawned,
                open_loop: true,
                clone_mean_p50_p95_p99: [
                    l.mean_secs,
                    supported(50.0, l.p50_secs),
                    supported(95.0, l.p95_secs),
                    supported(99.0, l.p99_secs),
                ],
                wan_down_mbps: params.net.wan_down_mbps,
                shard_queue_high_water: r.shard_queue_high_water.iter().copied().max().unwrap_or(0),
                failures,
                snapshot: r.snapshot,
                ..Raw::default()
            }
        }
        other => panic!("unknown workload {other:?}"),
    }
    .into_outcome()
}

/// Digest of the origin filesystem after `kernel_rw`'s guest workload ran
/// over the LAN with no caching proxy in the path: what the write-back
/// path must leave behind byte for byte.
pub fn kernel_reference_digest(seed: u64) -> Option<u64> {
    run_app_scenario(
        AppScenario::Lan,
        &kernel_workload(seed),
        &AppParams::default(),
        2,
    )
    .server_fs_digest
}

/// What a workload's result struct holds, before folding.
#[derive(Default)]
struct Raw {
    snapshot: Snapshot,
    virtual_s: f64,
    events: u64,
    procs: u64,
    cold_warm_flush: [f64; 3],
    clone_mean_p50_p95_p99: [f64; 4],
    open_loop: bool,
    wan_down_mbps: f64,
    shard_queue_high_water: u64,
    fs_digest: Option<u64>,
    failures: Vec<String>,
}

const PRODUCT_NAMES: [&str; 7] = [
    "product.cold_virtual_s",
    "product.warm_virtual_s",
    "product.flush_virtual_s",
    "product.clone_mean_s",
    "product.clone_p50_s",
    "product.clone_p95_s",
    "product.clone_p99_s",
];

impl Raw {
    fn into_outcome(mut self) -> Outcome {
        let product = self
            .cold_warm_flush
            .into_iter()
            .chain(self.clone_mean_p50_p95_p99);
        // Closed loop: the user waits for the whole run. Open loop: the
        // arrival process sets the final clock, the user waits for a clone.
        let user_wait_s = if self.open_loop {
            self.clone_mean_p50_p95_p99[0]
        } else {
            self.virtual_s
        };
        let mut values = vec![
            ("user_wait_s", user_wait_s),
            ("product.virtual_s", self.virtual_s),
        ];
        values.extend(PRODUCT_NAMES.into_iter().zip(product));
        values.extend(fold_snapshot(
            &self.snapshot,
            self.virtual_s,
            self.wan_down_mbps,
        ));
        values.push((
            "fleet.shard_queue_high_water",
            self.shard_queue_high_water as f64,
        ));
        values.push(("simnet.engine.events", self.events as f64));
        values.push(("simnet.engine.procs_spawned", self.procs as f64));
        self.failures.extend(fault_counters(&self.snapshot));
        Outcome {
            values,
            failures: self.failures,
            fs_digest: self.fs_digest,
            events: self.events,
            snapshot: self.snapshot,
        }
    }
}

/// Sum of the counters of `layer` whose instance name starts with
/// `instance` and whose dotted name ends with `.field`.
fn sum(snap: &Snapshot, layer: &str, instance: &str, field: &str) -> f64 {
    snap.counters
        .iter()
        .filter(|c| {
            c.layer == layer
                && c.name.starts_with(instance)
                && c.name
                    .strip_suffix(field)
                    .is_some_and(|rest| rest.ends_with('.'))
        })
        .map(|c| c.value)
        .sum::<u64>() as f64
}

/// Sum (seconds) of the histograms of `layer` that `pick` accepts.
fn hist_secs(snap: &Snapshot, layer: &str, pick: impl Fn(&str) -> bool) -> f64 {
    snap.histograms
        .iter()
        .filter(|h| h.layer == layer && pick(&h.name))
        .map(|h| h.sum_ns)
        .sum::<u64>() as f64
        / 1e9
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Fold a run's telemetry into the per-layer work counts (and the two
/// WAN byte totals, which are end-to-end metrics).
pub fn fold_snapshot(
    snap: &Snapshot,
    virtual_s: f64,
    wan_down_mbps: f64,
) -> Vec<(&'static str, f64)> {
    let gvfs = |field: &str| sum(snap, "gvfs", "", field);
    let kernel = |field: &str| sum(snap, "nfs3", "kernel-client", field);
    let server = |field: &str| sum(snap, "nfs3", "nfs3-server", field);
    let bcache = |field: &str| sum(snap, "gvfs", "block-cache", field);
    let link = |name: &str| snap.counter("link", name) as f64;

    let kernel_lookups = kernel("buffer_cache.hits") + kernel("buffer_cache.misses");
    let server_lookups = server("buffer_cache.hits") + server("buffer_cache.misses");
    let bcache_lookups = bcache("hits") + bcache("misses");
    let wan_down_bytes = link("wan-down.bytes");
    let lan_bytes: u64 = snap
        .counters
        .iter()
        .filter(|c| c.layer == "link" && c.name.starts_with("lan") && c.name.ends_with(".bytes"))
        .map(|c| c.value)
        .sum();

    vec![
        ("wan_down_bytes", wan_down_bytes),
        ("wan_up_bytes", link("wan-up.bytes")),
        ("nfs3.kernel.read_rpcs", kernel("read_rpcs")),
        ("nfs3.kernel.write_rpcs", kernel("write_rpcs")),
        ("nfs3.kernel.buffer_lookups", kernel_lookups),
        (
            "nfs3.kernel.buffer_hit_ratio",
            ratio(kernel("buffer_cache.hits"), kernel_lookups),
        ),
        ("oncrpc.client.calls", rpc_roundtrips(snap) as f64),
        (
            "oncrpc.client.wait_virtual_s",
            hist_secs(snap, "rpc", |n| {
                n.starts_with("client.") && n.contains(".proc")
            }),
        ),
        (
            "oncrpc.served.calls",
            snap.counter("rpc", "served.calls") as f64,
        ),
        ("gvfs.proxy.calls", gvfs("calls")),
        (
            "gvfs.proxy.forward_ratio",
            ratio(gvfs("forwarded"), gvfs("calls")),
        ),
        ("gvfs.proxy.zero_filtered", gvfs("zero_filtered")),
        ("gvfs.proxy.prefetch_issued", gvfs("prefetch_issued")),
        (
            "gvfs.proxy.prefetch_useful_ratio",
            ratio(gvfs("prefetch_hits"), gvfs("prefetch_issued")),
        ),
        ("gvfs.proxy.writes_absorbed", gvfs("writes_absorbed")),
        (
            "gvfs.proxy.blocks_written_back",
            gvfs("blocks_written_back"),
        ),
        ("gvfs.transfer.jobs", gvfs("transfer.jobs")),
        (
            "gvfs.transfer.stall_virtual_s",
            hist_secs(snap, "gvfs", |n| n.ends_with(".transfer.stall")),
        ),
        ("gvfs.block_cache.lookups", bcache_lookups),
        (
            "gvfs.block_cache.hit_ratio",
            ratio(bcache("hits"), bcache_lookups),
        ),
        ("gvfs.block_cache.evictions", bcache("evictions")),
        (
            "gvfs.block_cache.dirty_evictions",
            bcache("dirty_evictions"),
        ),
        ("gvfs.channel.fetches", gvfs("channel_fetches")),
        ("gvfs.channel.wire_bytes", gvfs("channel_wire_bytes")),
        ("gvfs.file_cache.reads", gvfs("file_cache_reads")),
        ("gvfs.cow.ref_installs", gvfs("cow.ref_installs")),
        ("gvfs.cas.bytes_avoided", gvfs("dedup.bytes_avoided")),
        ("gvfs.cas.recipe_hits", gvfs("dedup.recipe_hits")),
        ("gvfs.cas.blob_fetches", gvfs("dedup.blob_fetches")),
        (
            "gvfs.cas.pin_blocked_evictions",
            gvfs("cas.pin_blocked_evictions"),
        ),
        ("gvfs.fleet.batches", gvfs("fleet.batches")),
        (
            "gvfs.fleet.items_per_batch",
            ratio(gvfs("fleet.batched_items"), gvfs("fleet.batches")),
        ),
        ("gvfs.gossip.peer_hits", gvfs("gossip.peer_hits")),
        ("gvfs.gossip.peer_bytes", gvfs("gossip.peer_bytes")),
        ("simnet.link.wan_down_messages", link("wan-down.messages")),
        (
            "simnet.link.wan_down_busy_virtual_s",
            hist_secs(snap, "link", |n| n == "wan-down.transfer"),
        ),
        (
            "simnet.link.wan_down_utilization",
            ratio(wan_down_bytes * 8.0, wan_down_mbps * 1e6 * virtual_s),
        ),
        ("simnet.link.lan_bytes", lan_bytes as f64),
        ("nfs3.server.calls", server("calls")),
        ("nfs3.server.buffer_lookups", server_lookups),
        (
            "nfs3.server.buffer_hit_ratio",
            ratio(server("buffer_cache.hits"), server_lookups),
        ),
        ("nfs3.server.read_bytes", server("read_bytes")),
        ("nfs3.server.write_bytes", server("write_bytes")),
    ]
}

/// Counters that must stay 0 on a fault-free run, as failures when not.
pub fn fault_counters(snap: &Snapshot) -> Vec<String> {
    [
        ("gvfs", "recovered_errors"),
        ("gvfs", "verf_mismatches"),
        ("link", "dropped"),
        ("link", "severed"),
    ]
    .into_iter()
    .filter_map(|(layer, field)| {
        let n = sum(snap, layer, "", field);
        (n > 0.0).then(|| format!("{layer} counters *.{field} sum to {n}, want 0"))
    })
    .collect()
}

/// One `(layer, kind)` row of a traced run's virtual-time events.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceRow {
    /// Layer that emitted the events.
    pub layer: &'static str,
    /// Event kind.
    pub kind: &'static str,
    /// Events.
    pub count: u64,
    /// Bytes they carried.
    pub bytes: u64,
    /// Virtual seconds they covered.
    pub virtual_s: f64,
}

/// Fold the trace ring into count / bytes / virtual seconds per
/// `(layer, kind)`, sorted.
pub fn fold_trace(snap: &Snapshot) -> Vec<TraceRow> {
    let mut rows = std::collections::BTreeMap::<(&str, &str), (u64, u64, u64)>::new();
    for e in &snap.events {
        let row = rows.entry((e.layer, e.kind)).or_default();
        row.0 += 1;
        row.1 += e.bytes;
        row.2 += e.duration.as_nanos();
    }
    rows.into_iter()
        .map(|((layer, kind), (count, bytes, ns))| TraceRow {
            layer,
            kind,
            count,
            bytes,
            virtual_s: ns as f64 / 1e9,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::{SimTime, Telemetry, TraceEvent};

    fn value(values: &[(&'static str, f64)], name: &str) -> f64 {
        values
            .iter()
            .find(|(n, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing"))
            .1
    }

    #[test]
    fn snapshot_folding_sums_instances_and_keeps_layers_apart() {
        let t = Telemetry::new();
        t.counter("gvfs", "client-proxy.calls").add(10);
        t.counter("gvfs", "client-proxy#2.calls").add(20);
        t.counter("gvfs", "shard3.calls").add(30);
        t.counter("gvfs", "client-proxy.forwarded").add(15);
        // Must not be mistaken for `.calls` or `.reads`.
        t.counter("gvfs", "client-proxy.recalls").add(1000);
        t.counter("gvfs", "client-proxy.file_cache_reads").add(7);
        t.counter("gvfs", "client-proxy.reads").add(9);
        t.counter("gvfs", "block-cache.hits").add(3);
        t.counter("gvfs", "block-cache#2.misses").add(1);
        t.counter("nfs3", "kernel-client.buffer_cache.hits").add(1);
        t.counter("nfs3", "kernel-client#2.buffer_cache.misses")
            .add(3);
        t.counter("nfs3", "nfs3-server.buffer_cache.hits").add(50);
        t.counter("rpc", "client.nfs3.calls").add(40);
        t.counter("rpc", "client.channel.calls").add(2);
        t.counter("rpc", "served.calls").add(99);
        t.counter("link", "wan-down.bytes").add(1_000_000);
        t.counter("link", "wan-up.bytes").add(500);
        t.counter("link", "lan0-up.bytes").add(11);
        t.counter("link", "lan12-down.bytes").add(22);
        t.counter("link", "cl-lo-down.bytes").add(1 << 30);
        t.histogram("rpc", "client.nfs3.proc6")
            .record(SimDuration::from_millis(1500));
        t.histogram("rpc", "client.channel.proc7")
            .record(SimDuration::from_millis(500));
        t.histogram("link", "wan-down.transfer")
            .record(SimDuration::from_secs(4));
        t.histogram("link", "wan-up.transfer")
            .record(SimDuration::from_secs(100));

        let v = fold_snapshot(&t.snapshot(), 10.0, 8.0);
        assert_eq!(value(&v, "gvfs.proxy.calls"), 60.0);
        assert_eq!(value(&v, "gvfs.proxy.forward_ratio"), 0.25);
        assert_eq!(value(&v, "gvfs.file_cache.reads"), 7.0);
        assert_eq!(value(&v, "gvfs.block_cache.lookups"), 4.0);
        assert_eq!(value(&v, "gvfs.block_cache.hit_ratio"), 0.75);
        assert_eq!(value(&v, "nfs3.kernel.buffer_lookups"), 4.0);
        assert_eq!(value(&v, "nfs3.kernel.buffer_hit_ratio"), 0.25);
        assert_eq!(value(&v, "nfs3.server.buffer_hit_ratio"), 1.0);
        assert_eq!(value(&v, "oncrpc.client.calls"), 42.0);
        assert_eq!(value(&v, "oncrpc.served.calls"), 99.0);
        assert_eq!(value(&v, "oncrpc.client.wait_virtual_s"), 2.0);
        assert_eq!(value(&v, "wan_down_bytes"), 1_000_000.0);
        assert_eq!(value(&v, "wan_up_bytes"), 500.0);
        assert_eq!(value(&v, "simnet.link.lan_bytes"), 33.0);
        assert_eq!(value(&v, "simnet.link.wan_down_busy_virtual_s"), 4.0);
        // 8 Mbit over a 8 Mb/s link in 10 s.
        assert_eq!(value(&v, "simnet.link.wan_down_utilization"), 0.1);
        // A ratio with no base is 0, not NaN.
        assert_eq!(value(&v, "gvfs.fleet.items_per_batch"), 0.0);
    }

    #[test]
    fn every_folded_name_is_a_declared_metric() {
        let v = fold_snapshot(&Telemetry::new().snapshot(), 1.0, 1.0);
        for (name, _) in v.iter().chain(PRODUCT_NAMES.map(|n| (n, 0.0)).iter()) {
            assert!(
                crate::spec::END_TO_END
                    .iter()
                    .chain(crate::spec::PER_LAYER)
                    .any(|m| m.name == *name),
                "{name} is folded but not declared"
            );
        }
    }

    #[test]
    fn fault_counters_report_only_what_is_nonzero() {
        let t = Telemetry::new();
        t.counter("gvfs", "client-proxy.recovered_errors").add(0);
        t.counter("link", "wan-up.dropped").add(2);
        t.counter("link", "wan-down.dropped").add(1);
        assert_eq!(
            fault_counters(&t.snapshot()),
            vec!["link counters *.dropped sum to 3, want 0".to_string()]
        );
    }

    #[test]
    fn trace_folding_groups_by_layer_and_kind() {
        let t = Telemetry::new();
        t.set_trace(true);
        for bytes in [100, 200] {
            t.trace(
                TraceEvent::new(SimTime::from_nanos(5), "link", "transfer")
                    .bytes(bytes)
                    .duration(SimDuration::from_millis(250)),
            );
        }
        t.trace(TraceEvent::new(SimTime::from_nanos(9), "gvfs", "channel_fetch").bytes(7));
        assert_eq!(
            fold_trace(&t.snapshot()),
            vec![
                TraceRow {
                    layer: "gvfs",
                    kind: "channel_fetch",
                    count: 1,
                    bytes: 7,
                    virtual_s: 0.0
                },
                TraceRow {
                    layer: "link",
                    kind: "transfer",
                    count: 2,
                    bytes: 300,
                    virtual_s: 0.5
                },
            ]
        );
    }

    #[test]
    fn the_default_seed_runs_on_the_papers_wan_and_others_near_it() {
        let nominal = NetParams::default();
        let d = wan_of(DEFAULT_SEED);
        assert_eq!(d.wan_down_mbps, nominal.wan_down_mbps);
        assert_eq!(d.wan_oneway, nominal.wan_oneway);
        let (a, b) = (wan_of(7), wan_of(8));
        assert_ne!(a.wan_down_mbps, b.wan_down_mbps);
        assert_eq!(a.wan_down_mbps, wan_of(7).wan_down_mbps);
        for n in [a, b] {
            assert!((n.wan_down_mbps / nominal.wan_down_mbps - 1.0).abs() <= 0.02);
            assert!((n.wan_up_mbps / nominal.wan_up_mbps - 1.0).abs() <= 0.02);
            assert_eq!(n.lan_mbps, nominal.lan_mbps);
        }
    }
}
