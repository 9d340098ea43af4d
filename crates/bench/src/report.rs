//! Plain-text table rendering for the figure/table binaries, plus the
//! paper's reference numbers for side-by-side comparison — and the JSON
//! report emitted by every binary from the telemetry registry.

use std::io::Write;
use std::path::{Path, PathBuf};

use simnet::{JsonValue, Snapshot};

/// Format seconds as `m:ss.s` like the paper's minutes:seconds axes.
pub fn mmss(secs: f64) -> String {
    let m = (secs / 60.0).floor() as u64;
    let s = secs - m as f64 * 60.0;
    format!("{m}:{s:04.1}")
}

/// Format seconds as `h:mm` like Figure 5's hours:minutes axis.
pub fn hmm(secs: f64) -> String {
    let hours = (secs / 3600.0).floor() as u64;
    let m = ((secs - hours as f64 * 3600.0) / 60.0).round() as u64;
    format!("{hours}:{m:02}")
}

/// Render an aligned table: `header` row then `rows`; every row must have
/// the same arity as the header.
pub fn render_table(header: &[&str], rows: &[Vec<String>]) -> String {
    let ncol = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        assert_eq!(row.len(), ncol, "row arity mismatch");
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if i == 0 {
                line.push_str(&format!("{:<w$}", cell, w = widths[i]));
            } else {
                line.push_str(&format!("{:>w$}", cell, w = widths[i]));
            }
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| s.to_string()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    let total: usize = widths.iter().sum::<usize>() + 2 * (ncol - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// JSON reports

/// Command-line options shared by every bench binary:
/// `--json <path>` overrides the report location (default
/// `reports/<name>.json`), `--trace` turns on trace-event collection so
/// the report carries the structured event log, `--no-json` suppresses
/// the report file, `--no-dedup` runs with `DedupTuning::off()` (the
/// pre-CAS data paths) in the binaries that honor it, `--no-cow` runs
/// with `CowTuning::off()` (materialized clone installs; DESIGN.md
/// §5.9) in the binaries that honor it, `--write-baseline` makes the
/// ablation binaries regenerate their off-lane baseline file, and
/// `--sched-chaos <seed>` runs every simulation under
/// `SchedPolicy::chaos(seed)` — reports must stay byte-identical to a
/// run without the flag (DESIGN.md §5.7).
#[derive(Debug, Clone)]
pub struct BenchCli {
    /// Where to write the JSON report; `None` with `--no-json`.
    pub json_path: Option<PathBuf>,
    /// Collect and dump the virtual-time-stamped trace event log.
    pub trace: bool,
    /// Disable content-addressed dedup (DESIGN.md §5.5).
    pub no_dedup: bool,
    /// Disable copy-on-write reference cloning (DESIGN.md §5.9).
    pub no_cow: bool,
    /// Regenerate the off-lane baseline file (ablation binaries).
    pub write_baseline: bool,
    /// Chaos-scheduler seed, when `--sched-chaos` was given. The policy
    /// is already installed process-wide by `parse`; this records the
    /// seed for logging. Deliberately NOT part of any JSON report —
    /// report bytes must not depend on the schedule.
    pub sched_chaos: Option<u64>,
}

impl BenchCli {
    /// Parse `std::env::args()` for the binary named `name`.
    pub fn parse(name: &str) -> BenchCli {
        let mut cli = BenchCli {
            json_path: Some(PathBuf::from(format!("reports/{name}.json"))),
            trace: false,
            no_dedup: false,
            no_cow: false,
            write_baseline: false,
            sched_chaos: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--trace" => cli.trace = true,
                "--no-json" => cli.json_path = None,
                "--no-dedup" => cli.no_dedup = true,
                "--no-cow" => cli.no_cow = true,
                "--write-baseline" => cli.write_baseline = true,
                "--json" => {
                    let p = args.next().unwrap_or_else(|| {
                        eprintln!("--json requires a path argument");
                        std::process::exit(2);
                    });
                    cli.json_path = Some(PathBuf::from(p));
                }
                "--sched-chaos" => {
                    let seed: u64 = args.next().and_then(|s| s.parse().ok()).unwrap_or_else(|| {
                        eprintln!("--sched-chaos requires a u64 seed argument");
                        std::process::exit(2);
                    });
                    cli.sched_chaos = Some(seed);
                    // Install process-wide so every Simulation::new() in
                    // library code runs under the adversarial schedule.
                    simnet::set_default_sched_policy(simnet::SchedPolicy::chaos(seed));
                    eprintln!("{name}: schedule-chaos policy active (seed {seed})");
                }
                "--help" | "-h" => {
                    eprintln!(
                        "usage: {name} [--json PATH] [--no-json] [--trace] [--no-dedup] \
                         [--no-cow] [--write-baseline] [--sched-chaos SEED]"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown argument: {other}");
                    std::process::exit(2);
                }
            }
        }
        cli
    }
}

/// Build one scenario's slice of a report from its telemetry snapshot:
/// total virtual time, RPC counts by procedure, block-cache and
/// zero-filter counters, per-link bytes — plus the full metric dump (and
/// the event log, when tracing was on).
pub fn scenario_report(label: &str, total_virtual_secs: f64, snap: &Snapshot) -> JsonValue {
    let procs: Vec<(String, JsonValue)> = snap
        .counters
        .iter()
        .filter(|c| c.name.contains(".proc."))
        .map(|c| (format!("{}.{}", c.layer, c.name), JsonValue::Uint(c.value)))
        .collect();
    let links: Vec<(String, JsonValue)> = snap
        .counters
        .iter()
        .filter(|c| c.layer == "link" && c.name.ends_with(".bytes"))
        .map(|c| (c.name.clone(), JsonValue::Uint(c.value)))
        .collect();
    JsonValue::object([
        ("scenario", JsonValue::Str(label.to_string())),
        ("total_virtual_secs", JsonValue::Float(total_virtual_secs)),
        ("rpc_calls_by_procedure", JsonValue::Object(procs)),
        (
            "block_cache",
            JsonValue::object([
                ("hits", JsonValue::Uint(snap.counter_sum("gvfs", ".hits"))),
                (
                    "misses",
                    JsonValue::Uint(snap.counter_sum("gvfs", ".misses")),
                ),
                (
                    "evictions",
                    JsonValue::Uint(snap.counter_sum("gvfs", ".evictions")),
                ),
            ]),
        ),
        (
            "zero_filtered_reads",
            JsonValue::Uint(snap.counter_sum("gvfs", ".zero_filtered")),
        ),
        (
            "dedup",
            JsonValue::object([
                (
                    "bytes_avoided",
                    JsonValue::Uint(snap.counter_sum("gvfs", ".dedup.bytes_avoided")),
                ),
                (
                    "recipe_hits",
                    JsonValue::Uint(snap.counter_sum("gvfs", ".dedup.recipe_hits")),
                ),
                (
                    "blob_fetches",
                    JsonValue::Uint(snap.counter_sum("gvfs", ".dedup.blob_fetches")),
                ),
                (
                    "acked_skips",
                    JsonValue::Uint(snap.counter_sum("gvfs", ".dedup.acked_skips")),
                ),
            ]),
        ),
        ("link_bytes", JsonValue::Object(links)),
        ("metrics", snap.to_json()),
    ])
}

/// Write `{benchmark, scenarios}` to `path` (creating parent
/// directories), and say where it went on stderr.
pub fn write_report(path: &Path, benchmark: &str, scenarios: Vec<JsonValue>) {
    let doc = JsonValue::object([
        ("benchmark", JsonValue::Str(benchmark.to_string())),
        ("scenarios", JsonValue::Array(scenarios)),
    ]);
    if let Some(parent) = path.parent() {
        if !parent.as_os_str().is_empty() {
            let _ = std::fs::create_dir_all(parent);
        }
    }
    match std::fs::File::create(path).and_then(|mut f| writeln!(f, "{doc}")) {
        Ok(()) => eprintln!("report: wrote {}", path.display()),
        Err(e) => eprintln!("report: FAILED to write {}: {e}", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mmss_formats_like_the_paper() {
        assert_eq!(mmss(90.0), "1:30.0");
        assert_eq!(mmss(5.25), "0:05.2");
        assert_eq!(mmss(600.0), "10:00.0");
    }

    #[test]
    fn hmm_formats_hours() {
        assert_eq!(hmm(3600.0), "1:00");
        assert_eq!(hmm(5400.0), "1:30");
        assert_eq!(hmm(1200.0), "0:20");
    }

    #[test]
    fn tables_align() {
        let t = render_table(
            &["Scenario", "Phase 1", "Total"],
            &[
                vec!["Local".into(), "1:00.0".into(), "12:00.0".into()],
                vec!["WAN+C".into(), "2:06.5".into(), "11:24.0".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("Scenario"));
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }
}
