//! What the benchmark measures: the workload table, the metric tables,
//! and the `/BENCHMARK.json` they are written to and checked against.
//!
//! `BENCHMARK.json` carries only what its fixed shape allows (name, unit,
//! direction, bound, one-line why). The rest — which end-to-end metric a
//! layer metric should move, each workload's loop kind and rate, each
//! definition — lives here and is printed by `benchmark list`, so the
//! file and the tables cannot drift apart: `benchmark validate` compares
//! them field by field.

use simnet::JsonValue;

use crate::json;

/// Seed used when `--seed` is not given. At this seed every workload runs
/// on the repository's own calibration, so its virtual-time results are
/// the ones the committed reports and EXPERIMENTS.md quote.
pub const DEFAULT_SEED: u64 = 0xF1EE7;

/// How long one driver run measures, seconds (`run_seconds`).
pub const RUN_SECONDS: u64 = 25;

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadDef {
    /// Name on the command line and in every result.
    pub name: &'static str,
    /// One line for `BENCHMARK.json`: why the workload is in the set.
    pub why: &'static str,
    /// Closed or open loop (in virtual time), with client count or rate.
    pub loop_kind: &'static str,
    /// The library call it makes.
    pub call: &'static str,
    /// Wall seconds one pinned child is expected to take (setup + run);
    /// the watchdog deadline is a multiple of this.
    pub expected_wall_s: f64,
    /// Whether the traced run also measures one unpinned child.
    pub unpinned: bool,
}

/// The four workloads, in running order.
pub const WORKLOADS: [WorkloadDef; 4] = [
    WorkloadDef {
        name: "kernel_rw",
        why: "Block-granular NFS reads and writes of a kernel build, cold run then warm run then write-back flush: kernel client, XDR/ONC-RPC, proxy block cache; few procs, so little engine handoff",
        loop_kind: "closed loop, 1 guest",
        call: "run_app_scenario(WanC, kernel::generate(seed), AppParams::default(), 2)",
        expected_wall_s: 16.0,
        unpinned: false,
    },
    WorkloadDef {
        name: "clone_cold",
        why: "Bandwidth-bound whole-file path on the 2004 WAN, 8 parallel clones cold then warm: file channel, codec, digest, CAS/CoW install, 41k short-lived procs; almost no block-cache work",
        loop_kind: "closed loop, 8 parallel clones, 2 passes",
        call: "run_parallel_cloning(CloneParams{image_scale: 4, clones: 8, net: wan_of(seed)})",
        expected_wall_s: 9.5,
        unpinned: true,
    },
    WorkloadDef {
        name: "fleet_cold",
        why: "Round-trip-bound cold-site fetch, 512 bursty clones at 4/s with CoW off, just under the latency knee: recipe/blob dedup, FETCH_BLOBS_BATCH, shard single-flight and queueing inside clone latency",
        loop_kind: "open loop, bursty on/off, mean 4 clones/s, 4 sites x 2 hosts",
        call: "run_fleet(FleetParams{clones: 512, arrival: Bursty, rate_per_sec: 4.0, cow: off, seed})",
        expected_wall_s: 12.5,
        unpinned: false,
    },
    WorkloadDef {
        name: "fleet_warm",
        why: "Hit-path-bound 2,560 diurnal clones over 16 sites with CoW and gossip: reference installs, CAS pins, peer serving and the engine at 1.6M events; shows a miss-path gain that taxes the hit path",
        loop_kind: "open loop, diurnal, peak 48 clones/s, 16 sites / 4 regions, 2,048 users",
        call: "run_fleet(FleetParams{clones: 2560, seed, ..FleetParams::ten_k()})",
        expected_wall_s: 11.0,
        unpinned: true,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static WorkloadDef> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Direction in which a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name, unique across both tables.
    pub name: &'static str,
    /// Unit; `sim_s` is seconds on the simulation's virtual clock, `s`
    /// seconds on the host's.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// End-to-end: share of the parent's median by which the metric may
    /// worsen before it is a regression. Per-layer metrics have none.
    pub bound: Option<f64>,
    /// Per-layer: the end-to-end (or product) metric it should move.
    /// End-to-end: the clock it is read on.
    pub moves: &'static str,
    /// Definition.
    pub def: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    bound: f64,
    clock: &'static str,
    def: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better: Better::Lower,
        bound: Some(bound),
        moves: clock,
        def,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    moves: &'static str,
    def: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        moves,
        def,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics: defined and non-zero on every workload. Each
/// bound is the smallest of 5%, 10% and 25% that is at least three times
/// the widest spread measured over ten seeds, and 25% (the most a bound
/// may be) where no such value exists (README, "Steadiness").
pub const END_TO_END: [MetricDef; 7] = [
    e2e("setup_s", "s", 0.25, "host", "median wall of the zero-load call (clones 0 / runs 0): topology build, image generation and install, meta-data and content-map digesting"),
    e2e("run_wall_s", "s", 0.25, "host", "median over pinned children of (wall of the loaded call - that child's median setup wall), one core"),
    e2e("cpu_user_s", "s", 0.25, "host", "median child user-mode CPU, set-up calls included: the code's own cost, without the kernel's share of thread handoff"),
    e2e("peak_rss_mb", "MiB", 0.10, "host", "median child VmHWM"),
    e2e("user_wait_s", "sim_s", 0.25, "virtual", "virtual seconds the workload's user waits: the final clock of the closed-loop workloads (kernel_rw, clone_cold), the exact mean clone latency of the open-loop ones (fleets)"),
    e2e("wan_down_bytes", "B", 0.05, "virtual", "origin-to-client WAN link bytes"),
    e2e("wan_up_bytes", "B", 0.25, "virtual", "client-to-origin WAN link bytes"),
];

const RW: &str = "run_wall_s";

/// Per-layer metrics. A value of 0 on a workload whose path does not
/// reach the layer means exactly that; `product.*` and the unpinned
/// host metrics are 0 where the workload has no such phase or run.
pub const PER_LAYER: &[MetricDef] = &[
    // What the user of each workload sees on the virtual clock. These
    // would be end-to-end metrics if that table did not have to be
    // defined and non-zero on every workload.
    layer("product.virtual_s", "sim_s", Lower, "user_wait_s", "final virtual clock; on the open-loop fleets the arrival process sets it, not the system"),
    layer("product.cold_virtual_s", "sim_s", Lower, "user_wait_s", "kernel_rw run 1, clone_cold cold pass"),
    layer("product.warm_virtual_s", "sim_s", Lower, "user_wait_s", "kernel_rw run 2, clone_cold warm pass"),
    layer("product.flush_virtual_s", "sim_s", Lower, "user_wait_s", "kernel_rw session-end write-back flush"),
    layer("product.clone_mean_s", "sim_s", Lower, "user_wait_s", "fleets: exact mean clone latency (sum / count)"),
    layer("product.clone_p50_s", "sim_s", Lower, "user_wait_s", "fleets: sketch median (12.5% cells)"),
    layer("product.clone_p95_s", "sim_s", Lower, "user_wait_s", "fleets: sketch p95, the highest percentile with >= 10 samples beyond it at 512 clones; limit 2.0 s"),
    layer("product.clone_p99_s", "sim_s", Lower, "user_wait_s", "fleet_warm: sketch p99, 25 samples beyond it at 2,560 clones"),
    // Host cost per layer, from probes in the parent.
    layer("probe.xdr.encode_read_reply_ns", "ns", Lower, RW, "encode one 32 KiB READ reply body"),
    layer("probe.xdr.decode_read_reply_ns", "ns", Lower, RW, "decode one 32 KiB READ reply body"),
    layer("probe.oncrpc.msg_encode_ns", "ns", Lower, RW, "encode an RPC success reply carrying 32 KiB"),
    layer("probe.oncrpc.msg_decode_shared_ns", "ns", Lower, RW, "zero-copy decode of that reply"),
    layer("probe.oncrpc.batch_encode_ns", "ns", Lower, RW, "encode a 32-item FETCH_BLOBS_BATCH reply of 8 KiB items"),
    layer("probe.oncrpc.batch_decode_ns", "ns", Lower, RW, "decode that batch reply"),
    layer("probe.oncrpc.null_rtt_ns", "ns", Lower, RW, "one client-link-dispatch-reply round trip in a 2-proc simulation"),
    layer("probe.nfs3.server_read_ns", "ns", Lower, RW, "one 32 KiB NFS READ, stub to server over a simulated link"),
    layer("probe.nfs3.server_write_ns", "ns", Lower, RW, "one 32 KiB unstable NFS WRITE, stub to server"),
    layer("probe.nfs3.kernel_cached_read_ns", "ns", Lower, RW, "one 32 KiB read served from the kernel client's buffer cache"),
    layer("probe.vfs.sparse_write_ns", "ns", Lower, "run_wall_s, setup_s", "SparseBytes::write_at of 32 KiB"),
    layer("probe.vfs.sparse_read_ns", "ns", Lower, "run_wall_s, setup_s", "SparseBytes::read_range of 32 KiB"),
    layer("probe.vfs.is_zero_range_ns", "ns", Lower, "run_wall_s, setup_s", "SparseBytes::is_zero_range over a 32 KiB hole"),
    layer("probe.gvfs.codec.compress_sparse_mb_s", "MB/s", Higher, "run_wall_s, peak_rss_mb", "codec::compress of a 1 MiB chunk, ~90% zeros"),
    layer("probe.gvfs.codec.compress_dense_mb_s", "MB/s", Higher, "run_wall_s, peak_rss_mb", "codec::compress of a dense 1 MiB chunk"),
    layer("probe.gvfs.codec.decompress_sparse_mb_s", "MB/s", Higher, "run_wall_s, peak_rss_mb", "codec::decompress back to the sparse chunk"),
    layer("probe.gvfs.codec.decompress_dense_mb_s", "MB/s", Higher, "run_wall_s, peak_rss_mb", "codec::decompress back to the dense chunk"),
    layer("probe.gvfs.digest.chunk_digests_mb_s", "MB/s", Higher, "setup_s, run_wall_s", "digest::chunk_digests of 1 MiB in 8 KiB chunks"),
    layer("probe.gvfs.meta.content_map_mb_s", "MB/s", Higher, "setup_s, run_wall_s", "meta::generate_content_map of a 4 MiB file, 8 KiB chunks"),
    layer("probe.gvfs.meta.zero_map_mb_s", "MB/s", Higher, "setup_s, run_wall_s", "meta::generate_zero_map of that file, 32 KiB blocks"),
    layer("probe.gvfs.cas.insert_ns", "ns", Lower, "run_wall_s, peak_rss_mb", "ContentStore::insert of a fresh 8 KiB chunk (digest included)"),
    layer("probe.gvfs.cas.get_ns", "ns", Lower, "run_wall_s, peak_rss_mb", "ContentStore::get of a resident 8 KiB chunk"),
    layer("probe.gvfs.cas.pin_unpin_ns", "ns", Lower, "run_wall_s, peak_rss_mb", "ContentStore::pin + unpin of a resident chunk"),
    layer("probe.gvfs.block_cache.insert_ns", "ns", Lower, RW, "BlockCache::insert of a clean 32 KiB block"),
    layer("probe.gvfs.block_cache.lookup_hit_ns", "ns", Lower, RW, "BlockCache::lookup that hits"),
    layer("probe.gvfs.block_cache.lookup_miss_ns", "ns", Lower, RW, "BlockCache::lookup that misses"),
    layer("probe.simnet.engine.self_wake_events_s", "1/s", Higher, RW, "events per second, one proc sleeping in a loop (no thread handoff)"),
    layer("probe.simnet.engine.pingpong_events_s", "1/s", Higher, RW, "events per second, two procs alternating (every event a thread handoff)"),
    layer("probe.simnet.engine.churn_1000_events_s", "1/s", Higher, RW, "events per second, 1,000 procs sleeping and yielding"),
    layer("probe.simnet.engine.spawn_join_ns", "ns", Lower, RW, "spawn one child proc and join it"),
    layer("probe.simnet.link.transfer_ns", "ns", Lower, RW, "Link::transfer of 32 KiB"),
    layer("probe.simnet.sync.channel_send_recv_ns", "ns", Lower, RW, "one send + recv over a simnet channel between two procs"),
    layer("probe.simnet.telemetry.counter_inc_ns", "ns", Lower, RW, "Counter::inc"),
    layer("probe.simnet.telemetry.sketch_record_ns", "ns", Lower, RW, "PercentileSketch::record_ns"),
    layer("probe.simnet.telemetry.snapshot_ms", "ms", Lower, RW, "Telemetry::snapshot of a fleet_warm-sized registry (2,700 series)"),
    // Work done per layer, folded from the traced child's Snapshot
    // (deterministic; summed over instances).
    layer("nfs3.kernel.read_rpcs", "count", Lower, "product.cold_virtual_s, product.warm_virtual_s", "kernel-client READ RPCs"),
    layer("nfs3.kernel.write_rpcs", "count", Lower, "product.cold_virtual_s, product.warm_virtual_s", "kernel-client WRITE RPCs"),
    layer("nfs3.kernel.buffer_lookups", "count", Lower, "product.cold_virtual_s", "kernel-client buffer-cache lookups (base of the ratio)"),
    layer("nfs3.kernel.buffer_hit_ratio", "ratio", Higher, "product.warm_virtual_s", "kernel-client buffer-cache hits / lookups"),
    layer("oncrpc.client.calls", "count", Lower, "user_wait_s", "completed client-side RPC calls (one per round trip)"),
    layer("oncrpc.client.wait_virtual_s", "sim_s", Lower, "user_wait_s", "sum of the per-procedure client latency histograms"),
    layer("oncrpc.served.calls", "count", Lower, "user_wait_s", "calls dispatched by listeners"),
    layer("gvfs.proxy.calls", "count", Lower, "product.cold_virtual_s, wan_down_bytes", "calls handled by all proxies"),
    layer("gvfs.proxy.forward_ratio", "ratio", Lower, "product.cold_virtual_s, wan_down_bytes", "calls forwarded upstream / calls"),
    layer("gvfs.proxy.zero_filtered", "count", Higher, "wan_down_bytes", "reads answered from a zero map"),
    layer("gvfs.proxy.prefetch_issued", "count", Lower, "wan_down_bytes", "prefetches issued (base of the ratio)"),
    layer("gvfs.proxy.prefetch_useful_ratio", "ratio", Higher, "product.cold_virtual_s", "prefetch hits / prefetches issued"),
    layer("gvfs.proxy.writes_absorbed", "count", Higher, "product.flush_virtual_s, wan_up_bytes", "writes absorbed by write-back caches"),
    layer("gvfs.proxy.blocks_written_back", "count", Lower, "product.flush_virtual_s, wan_up_bytes", "dirty blocks flushed upstream"),
    layer("gvfs.transfer.jobs", "count", Lower, "product.flush_virtual_s, product.cold_virtual_s", "windowed transfer jobs"),
    layer("gvfs.transfer.stall_virtual_s", "sim_s", Lower, "product.flush_virtual_s, product.cold_virtual_s", "virtual time jobs waited for a window slot"),
    layer("gvfs.block_cache.lookups", "count", Lower, "product.warm_virtual_s", "block-cache lookups (base of the ratio)"),
    layer("gvfs.block_cache.hit_ratio", "ratio", Higher, "product.warm_virtual_s, wan_down_bytes", "block-cache hits / lookups"),
    layer("gvfs.block_cache.evictions", "count", Lower, "product.warm_virtual_s", "frames evicted"),
    layer("gvfs.block_cache.dirty_evictions", "count", Lower, "wan_up_bytes", "dirty frames evicted (forced write-back)"),
    layer("gvfs.channel.fetches", "count", Lower, "product.cold_virtual_s, product.clone_mean_s", "whole-file channel fetches"),
    layer("gvfs.channel.wire_bytes", "B", Lower, "product.cold_virtual_s, wan_down_bytes", "bytes the channel put on the wire"),
    layer("gvfs.file_cache.reads", "count", Lower, "product.warm_virtual_s, product.clone_mean_s", "reads served from file caches"),
    layer("gvfs.cow.ref_installs", "count", Higher, "product.clone_mean_s", "files installed as CoW references"),
    layer("gvfs.cas.bytes_avoided", "B", Higher, "wan_down_bytes", "bytes dedup did not fetch"),
    layer("gvfs.cas.recipe_hits", "count", Higher, "wan_down_bytes, product.clone_p95_s", "recipe chunks already resident"),
    layer("gvfs.cas.blob_fetches", "count", Lower, "wan_down_bytes, product.clone_p95_s", "blobs fetched upstream"),
    layer("gvfs.cas.pin_blocked_evictions", "count", Lower, "peak_rss_mb", "inserts left over capacity because every candidate was pinned"),
    layer("gvfs.fleet.batches", "count", Lower, "product.clone_p95_s", "batched upstream round trips (base of the ratio)"),
    layer("gvfs.fleet.items_per_batch", "ratio", Higher, "product.clone_p95_s", "batched items / batches"),
    layer("fleet.shard_queue_high_water", "count", Lower, "product.clone_p95_s", "deepest per-site shard concurrency"),
    layer("gvfs.gossip.peer_hits", "count", Higher, "wan_down_bytes", "blob misses served by a sibling shard"),
    layer("gvfs.gossip.peer_bytes", "B", Higher, "wan_down_bytes", "bytes those peer serves carried"),
    layer("simnet.link.wan_down_messages", "count", Lower, "user_wait_s", "messages on the origin downlink"),
    layer("simnet.link.wan_down_busy_virtual_s", "sim_s", Lower, "user_wait_s", "sum of downlink transfer durations (queueing included)"),
    layer("simnet.link.wan_down_utilization", "ratio", Higher, "user_wait_s", "downlink bits / (bandwidth x product.virtual_s)"),
    layer("simnet.link.lan_bytes", "B", Lower, "product.clone_mean_s", "bytes on the site LANs, both directions"),
    layer("nfs3.server.calls", "count", Lower, "product.cold_virtual_s, product.flush_virtual_s", "calls the origin NFS server executed"),
    layer("nfs3.server.buffer_lookups", "count", Lower, "product.cold_virtual_s", "origin buffer-cache lookups (base of the ratio)"),
    layer("nfs3.server.buffer_hit_ratio", "ratio", Higher, "product.cold_virtual_s", "origin buffer-cache hits / lookups"),
    layer("nfs3.server.read_bytes", "B", Lower, "product.cold_virtual_s", "bytes the origin read"),
    layer("nfs3.server.write_bytes", "B", Lower, "product.flush_virtual_s", "bytes the origin wrote"),
    layer("simnet.engine.events", "count", Lower, RW, "scheduler events (the normaliser)"),
    layer("simnet.engine.procs_spawned", "count", Lower, RW, "simulation processes (OS threads) spawned"),
    // Host accounting of the untraced pinned child of the traced run.
    layer("host.cpu_user_s", "s", Lower, RW, "child user CPU, setup included"),
    layer("host.cpu_sys_s", "s", Lower, RW, "child kernel CPU, setup included"),
    layer("host.sys_share", "ratio", Lower, RW, "sys / (user + sys): futex and switch time, the handoff signal"),
    layer("host.ns_per_event", "ns", Lower, RW, "run wall / events"),
    layer("host.events_per_s", "1/s", Higher, RW, "events / run wall"),
    layer("host.threads_at_exit", "count", Lower, "peak_rss_mb", "live threads when the child finished"),
    layer("host.wall_unpinned_s", "s", Lower, RW, "run wall of one unpinned child (clone_cold and fleet_warm; 0 elsewhere)"),
    layer("host.crosscore_ratio", "ratio", Lower, RW, "unpinned / pinned run wall; falls toward 1 when the engine stops handing off across threads"),
    layer("host.trace_overhead_ratio", "ratio", Lower, RW, "traced / untraced run wall"),
    // Estimated share of the child's CPU each layer accounts for:
    // probe cost x the layer's op or byte count / (user + sys).
    layer("attr.xdr.share_est", "ratio", Lower, RW, "READ/WRITE RPCs x (encode + decode of a 32 KiB reply)"),
    layer("attr.oncrpc.share_est", "ratio", Lower, RW, "client calls x (message encode + zero-copy decode)"),
    layer("attr.codec.share_est", "ratio", Lower, RW, "channel wire bytes at the sparse compress and decompress rates"),
    layer("attr.digest.share_est", "ratio", Lower, RW, "blob-fetched and avoided bytes at the chunk-digest rate"),
    layer("attr.cas.share_est", "ratio", Lower, RW, "blob fetches x insert + recipe hits x (get + pin/unpin)"),
    layer("attr.block_cache.share_est", "ratio", Lower, RW, "block-cache lookups and insertions at their probe costs"),
    layer("attr.engine.share_est", "ratio", Lower, RW, "events at the ping-pong rate + procs x spawn/join"),
    layer("attr.telemetry.share_est", "ratio", Lower, RW, "events x counter increment + one snapshot"),
    layer("attr.unattributed_share", "ratio", Lower, RW, "1 - the sum of the estimates above (negative if they overshoot)"),
    layer("trace.events", "count", Higher, "host.trace_overhead_ratio", "virtual-time TraceEvents the traced child kept"),
    layer("trace.dropped", "count", Lower, "host.trace_overhead_ratio", "TraceEvents the bounded ring evicted"),
];

/// Whether a metric is read off the simulation (virtual clock, byte and
/// work counts) and so must repeat exactly for a given seed, as opposed
/// to being measured on the host.
pub fn is_deterministic(name: &str) -> bool {
    match END_TO_END.iter().find(|m| m.name == name) {
        Some(m) => m.moves == "virtual",
        None => !["probe.", "host.", "attr."]
            .iter()
            .any(|p| name.starts_with(p)),
    }
}

fn metric_json(m: &MetricDef) -> JsonValue {
    let mut o = JsonValue::object([
        ("name", JsonValue::from(m.name)),
        ("unit", JsonValue::from(m.unit)),
        ("better", JsonValue::from(m.better.word())),
    ]);
    if let Some(b) = m.bound {
        o.push_field("bound", JsonValue::Float(b));
    }
    o
}

/// The `/BENCHMARK.json` document these tables describe.
pub fn benchmark_json() -> JsonValue {
    JsonValue::object([
        (
            "command",
            JsonValue::Array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--quiet",
                    "--offline",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(JsonValue::from)
                .to_vec(),
            ),
        ),
        ("paths", JsonValue::Array(vec!["benchmark".into()])),
        ("run_seconds", JsonValue::Uint(RUN_SECONDS)),
        (
            "workloads",
            JsonValue::Array(
                WORKLOADS
                    .iter()
                    .map(|w| JsonValue::object([("name", w.name.into()), ("why", w.why.into())]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            JsonValue::Array(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            JsonValue::Array(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

fn name_ok(s: &str, extra: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// Check the built-in tables against the limits every result must obey.
pub fn validate_tables() -> Vec<String> {
    let mut errs = Vec::new();
    if !(2..=8).contains(&WORKLOADS.len()) {
        errs.push(format!("{} workloads, want 2 to 8", WORKLOADS.len()));
    }
    if !(1..=16).contains(&END_TO_END.len()) {
        errs.push(format!(
            "{} end-to-end metrics, want 1 to 16",
            END_TO_END.len()
        ));
    }
    if !(1..=128).contains(&PER_LAYER.len()) {
        errs.push(format!(
            "{} per-layer metrics, want 1 to 128",
            PER_LAYER.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for w in &WORKLOADS {
        if !name_ok(w.name, "_.-", 64) || !w.name.starts_with(|c: char| c.is_ascii_alphanumeric()) {
            errs.push(format!(
                "workload name {:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*",
                w.name
            ));
        }
        if !seen.insert(w.name) {
            errs.push(format!("name {:?} is used twice", w.name));
        }
        if w.why.is_empty() || w.why.len() > 200 || w.why.contains('\n') {
            errs.push(format!(
                "workload {}: why must be one line of 1 to 200 characters",
                w.name
            ));
        }
        if w.loop_kind.is_empty()
            || !(w.loop_kind.starts_with("closed") || w.loop_kind.starts_with("open"))
        {
            errs.push(format!(
                "workload {}: loop kind must say closed or open, with its rate or client count",
                w.name
            ));
        }
    }
    let e2e_names: Vec<&str> = END_TO_END.iter().map(|m| m.name).collect();
    let known =
        |target: &str| e2e_names.contains(&target) || PER_LAYER.iter().any(|p| p.name == target);
    for (m, is_e2e) in END_TO_END
        .iter()
        .map(|m| (m, true))
        .chain(PER_LAYER.iter().map(|m| (m, false)))
    {
        if !name_ok(m.name, "_.-", 64) || !m.name.starts_with(|c: char| c.is_ascii_alphanumeric()) {
            errs.push(format!(
                "metric name {:?} is not [A-Za-z0-9][A-Za-z0-9_.-]*",
                m.name
            ));
        }
        if !seen.insert(m.name) {
            errs.push(format!("name {:?} is used twice", m.name));
        }
        if !name_ok(m.unit, "_/%.-", 16) {
            errs.push(format!(
                "metric {}: unit {:?} is not 1 to 16 of [A-Za-z0-9_/%.-]",
                m.name, m.unit
            ));
        }
        if m.def.is_empty() {
            errs.push(format!("metric {}: no definition", m.name));
        }
        match (is_e2e, m.bound) {
            (true, Some(b)) if b > 0.0 && b <= 0.25 => {}
            (true, b) => errs.push(format!(
                "metric {}: end-to-end bound {b:?} must be in (0, 0.25]",
                m.name
            )),
            (false, None) => {}
            (false, Some(_)) => errs.push(format!(
                "metric {}: per-layer metrics have no bound",
                m.name
            )),
        }
        if !is_e2e {
            for target in m.moves.split(", ") {
                if !known(target) {
                    errs.push(format!(
                        "metric {}: should move {target:?}, which is not a metric",
                        m.name
                    ));
                }
            }
        }
    }
    match END_TO_END.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => {
            if END_TO_END.iter().any(|o| o.bound > m.bound) {
                errs.push("setup_s must carry the largest bound".into());
            }
        }
        _ => errs.push("end-to-end metrics must include setup_s in s, lower is better".into()),
    }
    errs
}

/// Check a `BENCHMARK.json` document: the tables' own limits, then that
/// the file says exactly what the tables say.
pub fn validate_file(doc: &JsonValue) -> Vec<String> {
    let mut errs = validate_tables();
    let want = benchmark_json();
    let keys =
        |v: &JsonValue| -> Vec<String> { json::fields(v).iter().map(|(k, _)| k.clone()).collect() };
    if keys(doc) != keys(&want) {
        errs.push(format!(
            "keys are {:?}, want exactly {:?}",
            keys(doc),
            keys(&want)
        ));
    }
    for (key, want_val) in json::fields(&want) {
        let Some(got) = json::get(doc, key) else {
            continue;
        };
        match (got, want_val) {
            (JsonValue::Array(g), JsonValue::Array(w)) => {
                if g.len() != w.len() {
                    errs.push(format!(
                        "{key}: file has {} entries, tables have {}",
                        g.len(),
                        w.len()
                    ));
                }
                for (i, (g, w)) in g.iter().zip(w).enumerate() {
                    if json::to_line(g) != json::to_line(w) {
                        errs.push(format!(
                            "{key}[{i}]: file says {}, tables say {}",
                            json::to_line(g),
                            json::to_line(w)
                        ));
                    }
                }
            }
            (g, w) => {
                if json::to_line(g) != json::to_line(w) {
                    errs.push(format!(
                        "{key}: file says {}, tables say {}",
                        json::to_line(g),
                        json::to_line(w)
                    ));
                }
            }
        }
    }
    errs
}

/// The metric list `benchmark list` prints: one line per workload and
/// metric, with everything `BENCHMARK.json` has no field for.
pub fn list() -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for w in &WORKLOADS {
        let _ = writeln!(
            out,
            "workload {} [{}]\n    {}\n    {}",
            w.name, w.loop_kind, w.call, w.why
        );
    }
    for m in &END_TO_END {
        let _ = writeln!(
            out,
            "end_to_end {} {} {}-is-better bound {} clock {}\n    {}",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.unwrap_or(0.0),
            m.moves,
            m.def
        );
    }
    for m in PER_LAYER {
        let _ = writeln!(
            out,
            "per_layer {} {} {}-is-better moves {}\n    {}",
            m.name,
            m.unit,
            m.better.word(),
            m.moves,
            m.def
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_obey_their_own_limits() {
        assert_eq!(validate_tables(), Vec::<String>::new());
    }

    #[test]
    fn generated_file_validates_and_an_edited_one_does_not() {
        let good = json::parse(&json::to_pretty(&benchmark_json())).unwrap();
        assert_eq!(validate_file(&good), Vec::<String>::new());

        let mut text = json::to_pretty(&benchmark_json());
        text = text.replacen("\"run_wall_s\"", "\"run_wall_secs\"", 1);
        let errs = validate_file(&json::parse(&text).unwrap());
        assert!(errs.iter().any(|e| e.contains("run_wall_secs")), "{errs:?}");

        let JsonValue::Object(mut fields) = good else {
            unreachable!()
        };
        fields.push(("baseline".into(), JsonValue::Null));
        let errs = validate_file(&JsonValue::Object(fields));
        assert!(errs.iter().any(|e| e.contains("keys are")), "{errs:?}");
    }

    #[test]
    fn every_printed_metric_is_in_the_file() {
        let text = list();
        let file = json::to_line(&benchmark_json());
        for m in END_TO_END.iter().chain(PER_LAYER) {
            assert!(text.contains(m.name) && file.contains(&format!("\"{}\"", m.name)));
        }
    }
}
