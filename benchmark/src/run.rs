//! One benchmark run of one workload: spawn the measured children under
//! the watchdog, check what they report, and reduce it to the metrics of
//! `BENCHMARK.json`.
//!
//! An untraced run (`--trace 0`) repeats pinned children until the run
//! has measured for `--seconds` (at least [`MIN_CHILDREN`] of them) and
//! reports every end-to-end metric. A traced run (`--trace 1`) measures
//! one traced and one untraced pinned child, runs the layer probes in
//! this process, measures one unpinned child where the workload asks
//! for it, and reports every per-layer metric. End-to-end numbers never
//! come from a traced child.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use simnet::JsonValue;

use crate::child::SPARSE_RATIO;
use crate::child::{Report, Task};
use crate::compare::RUN_SCHEMA;
use crate::procfs::{self, ThreadSample};
use crate::spec::{self, WorkloadDef};
use crate::stats::{median, quartiles};
use crate::{json, watchdog};

/// Fewest successful children an untraced run reports medians over.
pub const MIN_CHILDREN: usize = 2;
/// Replacements an untraced run starts for failed children.
pub const MAX_REPLACEMENTS: usize = 2;
/// A child's deadline, as a multiple of its expected wall time.
const DEADLINE_FACTOR: f64 = 10.0;
/// Whatever happens, a run ends this long after it started, so that a
/// caller's own 180 s limit is never what stops it.
const RUN_LIMIT: Duration = Duration::from_secs(165);
/// An unpinned child hands every event across cores: about three times
/// the pinned wall (README, "Pinning").
const UNPINNED_SLOWDOWN: f64 = 3.0;
/// Zero-load calls a child times, unless one alone takes this long.
const SETUPS: usize = 5;
/// Deadline of the child `--inject-hang` hangs, seconds.
const INJECTED_HANG_S: f64 = 5.0;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Options {
    /// Seed every stochastic input derives from.
    pub seed: u64,
    /// Seconds an untraced run measures for.
    pub seconds: f64,
    /// Traced (per-layer) run or untraced (end-to-end) run.
    pub trace: bool,
    /// Where records, child reports and traces go.
    pub out: PathBuf,
    /// Self-test: make the first measured child hang.
    pub inject_hang: bool,
}

/// Why a child did not produce a report.
#[derive(Debug)]
struct Failure {
    what: String,
    sample: Option<ThreadSample>,
}

impl Failure {
    fn to_json(&self) -> JsonValue {
        let mut o = JsonValue::object([("what", JsonValue::from(self.what.as_str()))]);
        if let Some(s) = &self.sample {
            o.push_field("threads", JsonValue::Uint(s.threads));
            o.push_field(
                "wchan",
                JsonValue::Object(
                    s.wchan
                        .iter()
                        .map(|(w, n)| (w.clone(), JsonValue::Uint(*n)))
                        .collect(),
                ),
            );
        }
        o
    }
}

/// A finished child: its typed report and the JSON it came from.
struct Done {
    report: Report,
    raw: JsonValue,
}

struct Runner<'a> {
    w: &'a WorkloadDef,
    opts: &'a Options,
    exe: PathBuf,
    cpu: Option<u32>,
    start: Instant,
    /// Report files handed out, so that no two children share one.
    files: usize,
    attempted: usize,
    failures: Vec<Failure>,
}

impl Runner<'_> {
    fn remaining(&self) -> Duration {
        RUN_LIMIT.saturating_sub(self.start.elapsed())
    }

    /// 0.3 s per probe at the declared run length, less on a shorter
    /// smoke run.
    fn probe_seconds(&self) -> f64 {
        (self.opts.seconds * 0.3 / spec::RUN_SECONDS as f64).clamp(0.01, 0.5)
    }

    /// Spawn one child and wait for its report. `expected_s` sizes the
    /// deadline; the run's own limit caps it. Counts nothing.
    fn spawn(
        &mut self,
        task: Task,
        trace: bool,
        pinned: bool,
        expected_s: f64,
    ) -> Result<Done, Failure> {
        let index = self.files;
        self.files += 1;
        let result = self
            .opts
            .out
            .join(format!("child-{}-{index}.json", self.w.name));
        let _ = std::fs::remove_file(&result);
        let args = [
            "child",
            task.word(),
            "--workload",
            self.w.name,
            "--seed",
            &self.opts.seed.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
            "--setups",
            &SETUPS.to_string(),
            "--probe-seconds",
            &self.probe_seconds().to_string(),
            "--result",
            &result.to_string_lossy(),
        ]
        .map(String::from);
        let deadline = Duration::from_secs_f64(expected_s * DEADLINE_FACTOR)
            .min(self.remaining().saturating_sub(Duration::from_secs(5)));
        let cmd = watchdog::command(&self.exe, &args, self.cpu.filter(|_| pinned));
        let label = format!(
            "{} child {index} ({}{}{})",
            self.w.name,
            task.word(),
            if trace { ", traced" } else { "" },
            if pinned { "" } else { ", unpinned" }
        );
        let (what, sample) = match watchdog::run(cmd, deadline) {
            watchdog::Exit::Finished(status) if status.success() => {
                match json::read_file(&result).and_then(|raw| {
                    let report = Report::from_json(&raw)?;
                    Ok(Done { report, raw })
                }) {
                    Ok(done) => return Ok(done),
                    Err(e) => (
                        format!("{label} exited cleanly but left no readable report: {e}"),
                        None,
                    ),
                }
            }
            watchdog::Exit::Finished(status) => (format!("{label} crashed: {status}"), None),
            watchdog::Exit::TimedOut(sample) => (
                format!(
                    "{label} was still running after {:.1} s and was killed; {} threads, parked in {:?}",
                    deadline.as_secs_f64(),
                    sample.threads,
                    sample.wchan
                ),
                Some(sample),
            ),
            watchdog::Exit::SpawnFailed(e) => (format!("{label} could not be started: {e}"), None),
        };
        eprintln!("benchmark: {what}");
        Err(Failure { what, sample })
    }

    /// Spawn one of the run's measured children: it counts as attempted
    /// and, when it leaves no report, as failed. With `--inject-hang` the
    /// first one hangs instead, under a deadline short enough to watch.
    fn child(&mut self, task: Task, trace: bool, pinned: bool, expected_s: f64) -> Option<Done> {
        self.attempted += 1;
        let (task, expected_s) = if self.opts.inject_hang && self.attempted == 1 {
            (Task::Hang, INJECTED_HANG_S / DEADLINE_FACTOR)
        } else {
            (task, expected_s)
        };
        self.spawn(task, trace, pinned, expected_s)
            .map_err(|f| self.failures.push(f))
            .ok()
    }
}

/// One metric of a run: the reported value and the samples behind it.
struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    samples: Vec<f64>,
}

/// What a run reports.
pub struct RunResult {
    /// Every correctness check passed and no child failed.
    pub correct: bool,
    /// Children started (the unpinned diagnostic child is not counted).
    pub attempted: usize,
    /// Children that timed out, crashed or failed a check.
    pub failed: usize,
    metrics: Vec<Metric>,
    /// Failed checks, in words.
    pub problems: Vec<String>,
}

impl RunResult {
    /// The `name unit value` lines, one per metric.
    pub fn metric_lines(&self, workload: &str) -> String {
        self.metrics
            .iter()
            .map(|m| format!("{workload} {} {} {}\n", m.name, m.unit, m.value))
            .collect()
    }

    /// The last line of standard output.
    pub fn result_line(&self) -> String {
        json::to_line(&JsonValue::object([
            ("correct", JsonValue::Bool(self.correct)),
            ("attempted", JsonValue::Uint(self.attempted as u64)),
            ("failed", JsonValue::Uint(self.failed as u64)),
            ("metrics", self.metrics_json(false)),
        ]))
    }

    fn metrics_json(&self, with_samples: bool) -> JsonValue {
        JsonValue::Object(
            self.metrics
                .iter()
                .map(|m| {
                    let mut o = JsonValue::object([
                        ("value", JsonValue::Float(m.value)),
                        ("unit", JsonValue::from(m.unit)),
                    ]);
                    if with_samples && !m.samples.is_empty() {
                        o.push_field("samples", json::floats(&m.samples));
                        if let Some(q) = quartiles(&m.samples) {
                            o.push_field("quartiles", json::floats(&q));
                        }
                    }
                    (m.name.to_string(), o)
                })
                .collect(),
        )
    }
}

/// The first deterministic value two children of a run disagree on, if
/// any: they must agree on every one to the last digit.
fn difference(a: &Report, b: &Report) -> Option<String> {
    if a.events != b.events {
        return Some(format!("events {} vs {}", a.events, b.events));
    }
    if a.fs_digest != b.fs_digest {
        return Some(format!("fs digest {:?} vs {:?}", a.fs_digest, b.fs_digest));
    }
    if a.values.len() != b.values.len() {
        return Some("value lists differ in length".into());
    }
    let (x, y) = a.values.iter().zip(&b.values).find(|(x, y)| x != y)?;
    Some(format!("{} {:?} vs {} {:?}", x.0, x.1, y.0, y.1))
}

/// What a workload must produce at the default seed (events and WAN
/// bytes exactly, virtual seconds to the millisecond): the first
/// correctness check, and the tripwire for a change that moves virtual
/// time unannounced.
struct Expected {
    workload: &'static str,
    events: u64,
    values: &'static [(&'static str, f64)],
}

const EXPECTED_AT_DEFAULT_SEED: [Expected; 4] = [
    Expected {
        workload: "kernel_rw",
        events: 1_832_497,
        values: &[
            ("user_wait_s", 3475.995),
            ("product.cold_virtual_s", 1985.306),
            ("product.warm_virtual_s", 1271.847),
            ("product.flush_virtual_s", 218.496),
        ],
    },
    Expected {
        workload: "clone_cold",
        events: 552_524,
        values: &[
            ("user_wait_s", 49.862),
            ("product.cold_virtual_s", 40.172),
            ("product.warm_virtual_s", 9.415),
            ("wan_down_bytes", 51_104_766.0),
        ],
    },
    Expected {
        workload: "fleet_cold",
        events: 803_943,
        values: &[
            ("product.virtual_s", 325.791),
            ("user_wait_s", 0.687),
            ("product.clone_p50_s", 0.537),
            ("product.clone_p95_s", 1.745),
            ("wan_down_bytes", 17_630_158.0),
        ],
    },
    Expected {
        workload: "fleet_warm",
        events: 1_633_846,
        values: &[
            ("product.virtual_s", 228.131),
            ("user_wait_s", 0.248),
            ("product.clone_p50_s", 0.201),
            ("product.clone_p99_s", 0.493),
            ("wan_down_bytes", 15_466_408.0),
        ],
    },
];

fn check_expected(workload: &str, seed: u64, r: &Report, problems: &mut Vec<String>) {
    if seed != spec::DEFAULT_SEED {
        return;
    }
    let Some(want) = EXPECTED_AT_DEFAULT_SEED
        .iter()
        .find(|e| e.workload == workload)
    else {
        return;
    };
    if r.events != want.events {
        problems.push(format!(
            "{workload}: {} events at the default seed, expected {}",
            r.events, want.events
        ));
    }
    for (name, want) in want.values {
        let got = r.value(name).unwrap_or(f64::NAN);
        if (got - want).abs() >= 5e-4 || got.is_nan() {
            problems.push(format!(
                "{workload}: {name} is {got} at the default seed, expected {want}"
            ));
        }
    }
}

/// Checks shared by both kinds of run: children agree with each other,
/// no child reported a failed check, the default seed gives the expected
/// values, and `kernel_rw` left the origin byte-identical to the LAN
/// reference run.
fn check_children(runner: &mut Runner<'_>, done: &[&Done], problems: &mut Vec<String>) -> usize {
    let mut failed_checks = 0;
    let Some(first) = done.first() else {
        return 0;
    };
    for (i, d) in done.iter().enumerate() {
        let mut bad = !d.report.failures.is_empty();
        problems.extend(d.report.failures.iter().cloned());
        if let Some(diff) = difference(&first.report, &d.report) {
            bad = true;
            problems.push(format!(
                "{}: child {i} and child 0 disagree on a deterministic value: {diff}",
                runner.w.name
            ));
        }
        failed_checks += usize::from(bad);
    }
    check_expected(runner.w.name, runner.opts.seed, &first.report, problems);
    failed_checks
}

/// `kernel_rw` only: the write-back path must leave the origin
/// filesystem byte-identical to what the same guest workload leaves
/// behind over the LAN with no caching proxy. The reference run costs
/// 8 s, so the traced run makes it and the untraced runs do not.
fn check_against_lan_reference(
    runner: &mut Runner<'_>,
    measured: &Report,
    problems: &mut Vec<String>,
) -> usize {
    if measured.fs_digest.is_none() {
        return 0;
    }
    match runner.child(Task::Reference, false, true, runner.w.expected_wall_s) {
        Some(r) if r.report.fs_digest == measured.fs_digest => 0,
        Some(r) => {
            problems.push(format!(
                "{}: origin filesystem digest {:?} differs from the LAN reference run's {:?}",
                runner.w.name, measured.fs_digest, r.report.fs_digest
            ));
            1
        }
        // The failed reference child is already counted.
        None => 0,
    }
}

fn metric(name: &'static str, value: f64, samples: Vec<f64>) -> Metric {
    let unit = spec::END_TO_END
        .iter()
        .chain(spec::PER_LAYER)
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} is reported but not declared in spec.rs"))
        .unit;
    Metric {
        name,
        unit,
        value,
        samples,
    }
}

fn end_to_end(done: &[&Done]) -> Vec<Metric> {
    let over =
        |f: &dyn Fn(&Report) -> f64| -> Vec<f64> { done.iter().map(|d| f(&d.report)).collect() };
    let setups: Vec<f64> = done
        .iter()
        .flat_map(|d| d.report.setup_walls.iter().copied())
        .collect();
    let walls = over(&|r| r.run_wall_s());
    let user = over(&|r| r.usage.cpu_user_s);
    let rss = over(&|r| r.usage.peak_rss_kb as f64 / 1024.0);
    let mut metrics = vec![
        metric("setup_s", median(&setups), setups),
        metric("run_wall_s", median(&walls), walls),
        metric("cpu_user_s", median(&user), user),
        metric("peak_rss_mb", median(&rss), rss),
    ];
    for name in ["user_wait_s", "wan_down_bytes", "wan_up_bytes"] {
        let v = done
            .first()
            .and_then(|d| d.report.value(name))
            .unwrap_or(f64::NAN);
        metrics.push(metric(name, v, Vec::new()));
    }
    metrics
}

/// `attr.*`: each layer's estimated share of the child's CPU seconds.
fn attribution(p: &Report, r: &Report) -> Vec<(&'static str, f64)> {
    let v = |name: &str| r.value(name).unwrap_or(0.0);
    let probe = |name: &str| p.value(name).unwrap_or(0.0);
    let ns = |name: &str| probe(name) * 1e-9;
    let per_byte = |name: &str| {
        let mb_s = probe(name);
        if mb_s > 0.0 {
            1e-6 / mb_s
        } else {
            0.0
        }
    };
    let cpu = r.usage.cpu_user_s + r.usage.cpu_sys_s;
    // The channel puts compressed bytes on the wire; the codec and the
    // digest worked on what they expand to.
    let channel_bytes = v("gvfs.channel.wire_bytes") / probe(SPARSE_RATIO).max(1e-9);
    let bc_hits = v("gvfs.block_cache.lookups") * v("gvfs.block_cache.hit_ratio");
    let bc_misses = v("gvfs.block_cache.lookups") - bc_hits;
    let secs = [
        (
            "attr.xdr.share_est",
            (v("nfs3.kernel.read_rpcs") + v("nfs3.kernel.write_rpcs"))
                * (ns("probe.xdr.encode_read_reply_ns") + ns("probe.xdr.decode_read_reply_ns")),
        ),
        (
            "attr.oncrpc.share_est",
            v("oncrpc.client.calls")
                * (ns("probe.oncrpc.msg_encode_ns") + ns("probe.oncrpc.msg_decode_shared_ns")),
        ),
        (
            "attr.codec.share_est",
            channel_bytes
                * (per_byte("probe.gvfs.codec.compress_sparse_mb_s")
                    + per_byte("probe.gvfs.codec.decompress_sparse_mb_s")),
        ),
        (
            "attr.digest.share_est",
            (channel_bytes + v("gvfs.cas.bytes_avoided"))
                * per_byte("probe.gvfs.digest.chunk_digests_mb_s"),
        ),
        (
            "attr.cas.share_est",
            v("gvfs.cas.blob_fetches") * ns("probe.gvfs.cas.insert_ns")
                + v("gvfs.cas.recipe_hits")
                    * (ns("probe.gvfs.cas.get_ns") + ns("probe.gvfs.cas.pin_unpin_ns")),
        ),
        (
            "attr.block_cache.share_est",
            bc_hits * ns("probe.gvfs.block_cache.lookup_hit_ns")
                + bc_misses
                    * (ns("probe.gvfs.block_cache.lookup_miss_ns")
                        + ns("probe.gvfs.block_cache.insert_ns")),
        ),
        (
            "attr.engine.share_est",
            r.events as f64 / probe("probe.simnet.engine.pingpong_events_s").max(1.0)
                + v("simnet.engine.procs_spawned") * ns("probe.simnet.engine.spawn_join_ns"),
        ),
        (
            "attr.telemetry.share_est",
            r.events as f64 * ns("probe.simnet.telemetry.counter_inc_ns")
                + probe("probe.simnet.telemetry.snapshot_ms") * 1e-3,
        ),
    ];
    let mut shares: Vec<_> = secs
        .into_iter()
        .map(|(n, s)| (n, if cpu > 0.0 { s / cpu } else { 0.0 }))
        .collect();
    let attributed: f64 = shares.iter().map(|(_, s)| s).sum();
    shares.push(("attr.unattributed_share", 1.0 - attributed));
    shares
}

/// Run workload `w` once as `opts` says.
pub fn run(w: &WorkloadDef, opts: &Options) -> Result<RunResult, String> {
    std::fs::create_dir_all(&opts.out)
        .map_err(|e| format!("cannot create {}: {e}", opts.out.display()))?;
    let exe = std::env::current_exe().map_err(|e| format!("cannot find this executable: {e}"))?;
    let cpu = procfs::last_allowed_cpu().filter(|_| watchdog::taskset_available());
    if cpu.is_none() {
        eprintln!("benchmark: taskset or Cpus_allowed_list is unavailable; children run unpinned");
    }
    let mut runner = Runner {
        w,
        opts,
        exe,
        cpu,
        start: Instant::now(),
        files: 0,
        attempted: 0,
        failures: Vec::new(),
    };
    let mut problems = Vec::new();
    let mut extra = Vec::new();
    let (metrics, failed_checks) = if opts.trace {
        traced_run(&mut runner, &mut problems, &mut extra)
    } else {
        untraced_run(&mut runner, &mut problems, &mut extra)
    };
    let failed = runner.failures.len() + failed_checks;
    problems.extend(runner.failures.iter().map(|f| f.what.clone()));
    let declared: Vec<&str> = if opts.trace {
        spec::PER_LAYER.iter().map(|m| m.name).collect()
    } else {
        spec::END_TO_END.iter().map(|m| m.name).collect()
    };
    let reported: Vec<&str> = metrics.iter().map(|m| m.name).collect();
    if reported != declared && !metrics.is_empty() {
        problems.push(format!(
            "{}: reported metrics {reported:?} are not the declared {declared:?}",
            w.name
        ));
    }
    let result = RunResult {
        correct: problems.is_empty() && !metrics.is_empty(),
        attempted: runner.attempted,
        failed,
        metrics,
        problems,
    };
    let mut record = JsonValue::object([
        ("schema", RUN_SCHEMA.into()),
        ("workload", w.name.into()),
        ("seed", JsonValue::Uint(opts.seed)),
        ("trace", JsonValue::Bool(opts.trace)),
        ("pinned", JsonValue::Bool(cpu.is_some())),
        (
            "cpu",
            cpu.map_or(JsonValue::Null, |c| JsonValue::Uint(c.into())),
        ),
        (
            "host_cpus",
            JsonValue::Uint(std::thread::available_parallelism().map_or(0, |n| n.get() as u64)),
        ),
        ("correct", JsonValue::Bool(result.correct)),
        ("attempted", JsonValue::Uint(result.attempted as u64)),
        ("failed", JsonValue::Uint(result.failed as u64)),
        (
            "problems",
            JsonValue::Array(result.problems.iter().map(|p| p.as_str().into()).collect()),
        ),
        (
            "child_failures",
            JsonValue::Array(runner.failures.iter().map(Failure::to_json).collect()),
        ),
        ("metrics", result.metrics_json(true)),
    ]);
    for (key, value) in extra {
        record.push_field(key, value);
    }
    let name = format!(
        "run-{}-s{}-t{}.json",
        w.name,
        opts.seed,
        u8::from(opts.trace)
    );
    write_file(&opts.out.join(name), &json::to_pretty(&record))?;
    Ok(result)
}

/// The children's own reports, for the run record.
fn children_json(done: &[&Done]) -> JsonValue {
    JsonValue::Array(done.iter().map(|d| d.raw.clone()).collect())
}

fn write_file(path: &Path, text: &str) -> Result<(), String> {
    std::fs::write(path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn untraced_run(
    runner: &mut Runner<'_>,
    problems: &mut Vec<String>,
    extra: &mut Vec<(&'static str, JsonValue)>,
) -> (Vec<Metric>, usize) {
    let w = runner.w;
    let mut done = Vec::new();
    while runner.failures.len() <= MAX_REPLACEMENTS
        && (done.len() < MIN_CHILDREN || runner.start.elapsed().as_secs_f64() < runner.opts.seconds)
        && runner.remaining() > Duration::from_secs_f64(2.0 * w.expected_wall_s)
    {
        done.extend(runner.child(Task::Measure, false, true, w.expected_wall_s));
    }
    if done.len() < MIN_CHILDREN {
        problems.push(format!(
            "{}: only {} of the {MIN_CHILDREN} children a median needs finished",
            w.name,
            done.len()
        ));
    }
    let done: Vec<&Done> = done.iter().collect();
    let failed_checks = check_children(runner, &done, problems);
    extra.push(("children", children_json(&done)));
    (end_to_end(&done), failed_checks)
}

fn traced_run(
    runner: &mut Runner<'_>,
    problems: &mut Vec<String>,
    extra: &mut Vec<(&'static str, JsonValue)>,
) -> (Vec<Metric>, usize) {
    let w = runner.w;
    let traced = runner.child(Task::Measure, true, true, w.expected_wall_s);
    let plain = runner.child(Task::Measure, false, true, w.expected_wall_s);
    let (Some(traced), Some(plain)) = (traced, plain) else {
        return (Vec::new(), 0);
    };
    let mut failed_checks = check_children(runner, &[&plain, &traced], problems);
    failed_checks += check_against_lan_reference(runner, &plain.report, problems);

    // Calibration and set-up roughly double a probe's own budget.
    let probe_count = spec::PER_LAYER
        .iter()
        .filter(|m| m.name.starts_with("probe."))
        .count();
    let probes_expected_s = 2.0 * runner.probe_seconds() * probe_count as f64 + 2.0;
    let Some(probes) = runner.child(Task::Probes, false, true, probes_expected_s) else {
        return (Vec::new(), failed_checks);
    };

    // Last, so that a hang here can only use up what is left of the run.
    // An unpinned child is a diagnostic of cross-core handoff, not one of
    // the measured operations: when it hangs it is killed, sampled and
    // reported below, but it does not count as attempted or failed.
    let mut unpinned_wall = 0.0;
    if w.unpinned {
        let unpinned = runner.spawn(
            Task::Measure,
            false,
            false,
            w.expected_wall_s * UNPINNED_SLOWDOWN,
        );
        extra.push((
            "unpinned_failures",
            JsonValue::Array(
                unpinned
                    .as_ref()
                    .err()
                    .map(Failure::to_json)
                    .into_iter()
                    .collect(),
            ),
        ));
        if let Ok(u) = unpinned {
            unpinned_wall = u.report.run_wall_s();
            if let Some(diff) = difference(&plain.report, &u.report) {
                failed_checks += 1;
                problems.push(format!(
                    "{}: the unpinned child and the pinned child disagree on a deterministic value: {diff}",
                    w.name
                ));
            }
        }
    }

    extra.push(("children", children_json(&[&traced, &plain, &probes])));
    let r = &plain.report;
    let run_wall = r.run_wall_s();
    let cpu = r.usage.cpu_user_s + r.usage.cpu_sys_s;
    let host = [
        ("host.cpu_user_s", r.usage.cpu_user_s),
        ("host.cpu_sys_s", r.usage.cpu_sys_s),
        (
            "host.sys_share",
            if cpu > 0.0 {
                r.usage.cpu_sys_s / cpu
            } else {
                0.0
            },
        ),
        ("host.ns_per_event", run_wall * 1e9 / r.events.max(1) as f64),
        ("host.events_per_s", r.events as f64 / run_wall),
        ("host.threads_at_exit", r.usage.threads as f64),
        ("host.wall_unpinned_s", unpinned_wall),
        ("host.crosscore_ratio", unpinned_wall / run_wall),
        (
            "host.trace_overhead_ratio",
            traced.report.run_wall_s() / run_wall,
        ),
    ];
    let attr = attribution(&probes.report, r);
    let trace_counts = [
        ("trace.events", traced.report.trace_events as f64),
        ("trace.dropped", traced.report.trace_dropped as f64),
    ];
    let metrics = spec::PER_LAYER
        .iter()
        .filter_map(|m| {
            let value = host
                .iter()
                .chain(&attr)
                .chain(&trace_counts)
                .find(|(n, _)| *n == m.name)
                .map(|(_, v)| *v)
                .or_else(|| probes.report.value(m.name))
                .or_else(|| traced.report.value(m.name))?;
            Some(metric(m.name, value, Vec::new()))
        })
        .collect();

    let trace = JsonValue::object([
        ("workload", w.name.into()),
        ("seed", JsonValue::Uint(runner.opts.seed)),
        ("trace_events", JsonValue::Uint(traced.report.trace_events)),
        (
            "trace_dropped",
            JsonValue::Uint(traced.report.trace_dropped),
        ),
        (
            "virtual_time_by_layer_and_kind",
            json::get(&traced.raw, "trace_rows")
                .cloned()
                .unwrap_or(JsonValue::Array(Vec::new())),
        ),
        (
            "probe_spans",
            json::get(&probes.raw, "probe_spans")
                .cloned()
                .unwrap_or(JsonValue::Array(Vec::new())),
        ),
    ]);
    let path = runner.opts.out.join(format!("trace-{}.json", w.name));
    if let Err(e) = write_file(&path, &json::to_pretty(&trace)) {
        problems.push(e);
    }
    (metrics, failed_checks)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::procfs::SelfUsage;

    fn report(events: u64, virtual_s: f64) -> Report {
        Report {
            setup_walls: vec![1.0, 3.0, 2.0],
            loaded_wall: 12.0,
            usage: SelfUsage {
                cpu_user_s: 8.0,
                cpu_sys_s: 2.0,
                peak_rss_kb: 2048,
                threads: 4,
            },
            events,
            values: vec![
                ("user_wait_s".into(), virtual_s),
                ("wan_down_bytes".into(), 100.0),
                ("wan_up_bytes".into(), 10.0),
                ("oncrpc.client.calls".into(), 1000.0),
                ("simnet.engine.procs_spawned".into(), 10.0),
            ],
            ..Report::default()
        }
    }

    fn done(r: Report) -> Done {
        Done {
            raw: r.to_json(),
            report: r,
        }
    }

    #[test]
    fn end_to_end_metrics_are_medians_over_children_in_declared_order() {
        let mut slow = report(5, 9.5);
        slow.loaded_wall = 14.0;
        slow.usage.peak_rss_kb = 4096;
        let (a, b) = (done(report(5, 9.5)), done(slow));
        let m = end_to_end(&[&a, &b]);
        let names: Vec<_> = m.iter().map(|m| m.name).collect();
        let declared: Vec<_> = spec::END_TO_END.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        let value = |n: &str| m.iter().find(|m| m.name == n).unwrap().value;
        assert_eq!(value("setup_s"), 2.0);
        assert_eq!(value("cpu_user_s"), 8.0);
        // (12 - 2) and (14 - 2).
        assert_eq!(value("run_wall_s"), 11.0);
        assert_eq!(value("peak_rss_mb"), 3.0);
        assert_eq!(value("user_wait_s"), 9.5);
        assert_eq!(m[0].samples.len(), 6);
    }

    #[test]
    fn children_that_disagree_are_named_with_the_value_they_disagree_on() {
        let (a, b) = (report(5, 9.5), report(5, 9.500000001));
        assert_eq!(difference(&a, &report(5, 9.5)), None);
        assert!(difference(&a, &b)
            .unwrap()
            .starts_with("user_wait_s 9.5 vs"));
        assert_eq!(difference(&a, &report(6, 9.5)).unwrap(), "events 5 vs 6");
    }

    #[test]
    fn the_default_seed_is_held_to_its_expected_values() {
        let mut problems = Vec::new();
        let mut r = report(552_524, 49.8620931);
        r.values.extend([
            ("product.cold_virtual_s".to_string(), 40.17153),
            ("product.warm_virtual_s".to_string(), 9.41524),
        ]);
        r.values[1].1 = 51_104_766.0;
        check_expected("clone_cold", spec::DEFAULT_SEED, &r, &mut problems);
        assert_eq!(problems, Vec::<String>::new());
        check_expected("clone_cold", 7, &report(1, 1.0), &mut problems);
        assert_eq!(problems, Vec::<String>::new());
        check_expected(
            "clone_cold",
            spec::DEFAULT_SEED,
            &report(1, 49.9),
            &mut problems,
        );
        assert!(problems.iter().any(|p| p.contains("1 events")));
        assert!(problems.iter().any(|p| p.contains("user_wait_s is 49.9")));
    }

    #[test]
    fn attribution_shares_sum_to_one() {
        let p = Report {
            values: vec![
                (SPARSE_RATIO.into(), 0.1),
                ("probe.oncrpc.msg_encode_ns".into(), 1_000_000.0),
                ("probe.oncrpc.msg_decode_shared_ns".into(), 1_000_000.0),
                ("probe.simnet.engine.pingpong_events_s".into(), 10.0),
            ],
            ..Report::default()
        };
        let shares = attribution(&p, &report(5, 9.5));
        let get = |n: &str| shares.iter().find(|(m, _)| *m == n).unwrap().1;
        // 1,000 calls x 2 ms over 10 CPU seconds; 5 events at 10/s.
        assert!((get("attr.oncrpc.share_est") - 0.2).abs() < 1e-12);
        assert!((get("attr.engine.share_est") - 0.05).abs() < 1e-12);
        assert!((get("attr.unattributed_share") - 0.75).abs() < 1e-12);
        assert!((shares.iter().map(|(_, s)| s).sum::<f64>() - 1.0).abs() < 1e-12);
        let declared = spec::PER_LAYER
            .iter()
            .filter(|m| m.name.starts_with("attr."));
        assert_eq!(declared.count(), shares.len());
    }
}
