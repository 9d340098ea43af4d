//! One measured process. The parent re-executes this binary once per
//! measurement so that each has its own peak RSS, CPU time and thread
//! pool, can be pinned to one core, and can be killed when it hangs.
//! A child times the zero-load call (set-up) and the loaded call, folds
//! what the call returned, reads its own `/proc` accounting and writes
//! one JSON report for the parent.

use std::path::PathBuf;

use gvfs_bench::perfjson::wall_time;
use simnet::JsonValue;

use crate::json;
use crate::probes::{self, Span};
use crate::procfs::{self, SelfUsage};
use crate::workloads::{self, TraceRow};

/// What a child is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Task {
    /// Time up to `setups` zero-load calls, then the loaded call.
    Measure,
    /// Run `kernel_rw`'s guest workload over the LAN and report the
    /// origin filesystem digest.
    Reference,
    /// Run the layer probes: they too are measured on one core, and an
    /// engine probe that loses a wakeup must not hang the parent.
    Probes,
    /// Never finish (the watchdog's self-test).
    Hang,
}

impl Task {
    /// The word on the child's command line.
    pub fn word(self) -> &'static str {
        match self {
            Task::Measure => "measure",
            Task::Reference => "reference",
            Task::Probes => "probes",
            Task::Hang => "hang",
        }
    }

    /// Parse the command-line word.
    pub fn from_word(w: &str) -> Option<Task> {
        [Task::Measure, Task::Reference, Task::Probes, Task::Hang]
            .into_iter()
            .find(|t| t.word() == w)
    }
}

/// A child stops repeating the zero-load call once the calls so far took
/// this long: `kernel_rw` installs a full image in 3.6 s and times one,
/// the others set up in under 0.2 s and time all they were asked for.
const SETUP_BUDGET_S: f64 = 1.0;

/// A child's report to the parent.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// Wall seconds of each zero-load call.
    pub setup_walls: Vec<f64>,
    /// Wall seconds of the loaded call (which repeats the set-up).
    pub loaded_wall: f64,
    /// The child's `/proc` accounting when it finished.
    pub usage: SelfUsage,
    /// Scheduler events of the loaded call.
    pub events: u64,
    /// Values by metric name: the deterministic ones of a measured
    /// child, the probe results of a probing one.
    pub values: Vec<(String, f64)>,
    /// Origin filesystem digest (`kernel_rw`, and the reference task).
    pub fs_digest: Option<u64>,
    /// Correctness checks that failed inside the child.
    pub failures: Vec<String>,
    /// Folded trace ring (traced children only).
    pub trace_rows: Vec<TraceRow>,
    /// One span per probe (probing children only).
    pub probe_spans: Vec<Span>,
    /// Trace events the ring kept.
    pub trace_events: u64,
    /// Trace events the ring evicted.
    pub trace_dropped: u64,
}

impl Report {
    /// Median wall of the zero-load calls.
    pub fn setup_s(&self) -> f64 {
        crate::stats::median(&self.setup_walls)
    }

    /// Wall of the loaded call beyond the set-up it repeats.
    pub fn run_wall_s(&self) -> f64 {
        self.loaded_wall - self.setup_s()
    }

    /// A deterministic value by name.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.values.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The report as JSON.
    pub fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("setup_walls", json::floats(&self.setup_walls)),
            ("loaded_wall", JsonValue::Float(self.loaded_wall)),
            ("cpu_user_s", JsonValue::Float(self.usage.cpu_user_s)),
            ("cpu_sys_s", JsonValue::Float(self.usage.cpu_sys_s)),
            ("peak_rss_kb", JsonValue::Uint(self.usage.peak_rss_kb)),
            ("threads", JsonValue::Uint(self.usage.threads)),
            ("events", JsonValue::Uint(self.events)),
            (
                "values",
                JsonValue::Object(
                    self.values
                        .iter()
                        .map(|(n, v)| (n.clone(), JsonValue::Float(*v)))
                        .collect(),
                ),
            ),
            (
                "fs_digest",
                self.fs_digest.map_or(JsonValue::Null, JsonValue::Uint),
            ),
            (
                "failures",
                JsonValue::Array(self.failures.iter().map(|f| f.as_str().into()).collect()),
            ),
            (
                "trace_rows",
                JsonValue::Array(self.trace_rows.iter().map(trace_row_json).collect()),
            ),
            (
                "probe_spans",
                JsonValue::Array(self.probe_spans.iter().map(Span::to_json).collect()),
            ),
            ("trace_events", JsonValue::Uint(self.trace_events)),
            ("trace_dropped", JsonValue::Uint(self.trace_dropped)),
        ])
    }

    /// Parse a report written by [`Report::to_json`].
    pub fn from_json(v: &JsonValue) -> Result<Report, String> {
        let need = |key: &str| json::num(v, key).ok_or_else(|| format!("child report lacks {key}"));
        let uint = |key: &str| match json::get(v, key) {
            Some(JsonValue::Uint(n)) => Ok(*n),
            _ => Err(format!("child report lacks unsigned {key}")),
        };
        Ok(Report {
            setup_walls: json::array(v, "setup_walls")
                .iter()
                .filter_map(gvfs_bench::perfjson::as_number)
                .collect(),
            loaded_wall: need("loaded_wall")?,
            usage: SelfUsage {
                cpu_user_s: need("cpu_user_s")?,
                cpu_sys_s: need("cpu_sys_s")?,
                peak_rss_kb: uint("peak_rss_kb")?,
                threads: uint("threads")?,
            },
            events: uint("events")?,
            values: json::get(v, "values")
                .map(json::fields)
                .unwrap_or_default()
                .iter()
                .filter_map(|(n, x)| Some((n.clone(), gvfs_bench::perfjson::as_number(x)?)))
                .collect(),
            fs_digest: uint("fs_digest").ok(),
            failures: json::array(v, "failures")
                .iter()
                .filter_map(|f| match f {
                    JsonValue::Str(s) => Some(s.clone()),
                    _ => None,
                })
                .collect(),
            // Rows and spans are for the trace file; the parent passes
            // them through as JSON and never needs them typed again.
            trace_rows: Vec::new(),
            probe_spans: Vec::new(),
            trace_events: uint("trace_events")?,
            trace_dropped: uint("trace_dropped")?,
        })
    }
}

/// One folded trace row as JSON.
pub fn trace_row_json(r: &TraceRow) -> JsonValue {
    JsonValue::object([
        ("layer", r.layer.into()),
        ("kind", r.kind.into()),
        ("count", JsonValue::Uint(r.count)),
        ("bytes", JsonValue::Uint(r.bytes)),
        ("virtual_s", JsonValue::Float(r.virtual_s)),
    ])
}

/// What a child's command line says.
#[derive(Debug, Clone)]
pub struct Args {
    /// What to do.
    pub task: Task,
    /// Workload to measure.
    pub workload: &'static str,
    /// Seed of its inputs.
    pub seed: u64,
    /// Collect trace events in the loaded call.
    pub trace: bool,
    /// Most zero-load calls to time.
    pub setups: usize,
    /// Seconds each probe gets.
    pub probe_seconds: f64,
    /// Where the report goes.
    pub result: PathBuf,
}

/// Name under which a probing child passes [`probes::Probes::sparse_ratio`].
pub const SPARSE_RATIO: &str = "sparse_ratio";

/// Body of a child process: do the task and write the report.
pub fn run(args: &Args) {
    let report = match args.task {
        Task::Hang => loop {
            std::thread::park();
        },
        Task::Reference => Report {
            fs_digest: workloads::kernel_reference_digest(args.seed),
            usage: procfs::self_usage(),
            ..Report::default()
        },
        Task::Probes => {
            let p = probes::run_all(args.probe_seconds);
            Report {
                values: p
                    .values
                    .iter()
                    .map(|(n, v)| (n.to_string(), *v))
                    .chain([(SPARSE_RATIO.to_string(), p.sparse_ratio)])
                    .collect(),
                probe_spans: p.spans,
                usage: procfs::self_usage(),
                ..Report::default()
            }
        }
        Task::Measure => {
            let mut setup_walls = Vec::new();
            while setup_walls.len() < args.setups.max(1)
                && setup_walls.iter().sum::<f64>() < SETUP_BUDGET_S
            {
                let zero_load = || workloads::run(args.workload, args.seed, false, false);
                setup_walls.push(wall_time(zero_load).1);
            }
            let (out, loaded_wall) =
                wall_time(|| workloads::run(args.workload, args.seed, true, args.trace));
            Report {
                setup_walls,
                loaded_wall,
                usage: procfs::self_usage(),
                events: out.events,
                values: out
                    .values
                    .iter()
                    .map(|(n, v)| (n.to_string(), *v))
                    .collect(),
                fs_digest: out.fs_digest,
                failures: out.failures,
                trace_rows: workloads::fold_trace(&out.snapshot),
                probe_spans: Vec::new(),
                trace_events: out.snapshot.events.len() as u64,
                trace_dropped: out.snapshot.events_dropped,
            }
        }
    };
    let result = &args.result;
    // Written whole and then renamed, so the parent never reads a torn file.
    let tmp = result.with_extension("tmp");
    let text = json::to_line(&report.to_json());
    if let Err(e) = std::fs::write(&tmp, text).and_then(|()| std::fs::rename(&tmp, result)) {
        eprintln!("benchmark child: cannot write {}: {e}", result.display());
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_round_trips_through_the_reader() {
        let r = Report {
            setup_walls: vec![0.071234567, 0.069, 0.0702],
            loaded_wall: 8.885123456789,
            usage: SelfUsage {
                cpu_user_s: 7.5,
                cpu_sys_s: 1.25,
                peak_rss_kb: 657_960,
                threads: 8,
            },
            events: 552_524,
            values: vec![
                ("virtual_s".into(), 49.862093211),
                ("wan_down_bytes".into(), 51_104_766.0),
            ],
            fs_digest: Some(u64::MAX - 5),
            failures: vec!["link counters *.dropped sum to 3, want 0".into()],
            trace_rows: Vec::new(),
            probe_spans: Vec::new(),
            trace_events: 12,
            trace_dropped: 3,
        };
        let back = Report::from_json(&json::parse(&json::to_line(&r.to_json())).unwrap()).unwrap();
        assert_eq!(back, r);
        assert_eq!(back.setup_s(), 0.0702);
        assert_eq!(back.run_wall_s(), 8.885123456789 - 0.0702);
        assert_eq!(back.value("virtual_s"), Some(49.862093211));
        assert_eq!(back.value("nope"), None);
    }

    #[test]
    fn a_truncated_report_is_an_error_not_a_default() {
        let v = json::parse("{\"loaded_wall\": 1.5}").unwrap();
        assert!(Report::from_json(&v).is_err());
    }

    #[test]
    fn task_words_round_trip() {
        for t in [Task::Measure, Task::Reference, Task::Probes, Task::Hang] {
            assert_eq!(Task::from_word(t.word()), Some(t));
        }
        assert_eq!(Task::from_word("sleep"), None);
    }
}
