//! Plain-text table rendering for the scenarios, the [`Check`] rows that
//! hold each paper shape and contract, and the JSON report every scenario
//! writes from the telemetry registry.

use std::io;
use std::path::Path;

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
// Checked rows

/// What a [`Check`] holds its measured value to. Every comparison is
/// strict, so a value exactly on its bound fails, and so does NaN.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Below the limit: an upper bound, or the ordering `value < other`
    /// when the limit is itself measured.
    Below(f64),
    /// Above the limit.
    Above(f64),
    /// Strictly between the two.
    Within(f64, f64),
}

impl Bound {
    /// The band a paper shape is held to: the paper's value within a
    /// factor of two either way. The substrate is a calibrated simulator,
    /// not the 2004 testbed, so the check is who wins and by roughly what
    /// factor, not the magnitude.
    pub fn near(paper: f64) -> Bound {
        Bound::Within(paper / 2.0, paper * 2.0)
    }

    /// Whether `value` is inside the bound.
    pub fn holds(self, value: f64) -> bool {
        match self {
            Bound::Below(max) => value < max,
            Bound::Above(min) => value > min,
            Bound::Within(lo, hi) => lo < value && value < hi,
        }
    }
}

/// One checked row: a paper shape or a scenario's contract, the value
/// measured for it, and the bound it must hold.
#[derive(Debug, Clone)]
pub struct Check {
    /// What is measured.
    pub name: String,
    /// The paper's value, or "contract" for a scenario's own gate.
    pub paper: &'static str,
    /// The measured value.
    pub value: f64,
    /// Unit of the value and of its bound ("s", "%", "×", or a noun).
    pub unit: &'static str,
    /// The bound the value must hold.
    pub bound: Bound,
    /// Why the row holds and why its bound is that wide, in one line.
    pub why: &'static str,
}

impl Check {
    /// Whether the measured value holds its bound.
    pub fn passed(&self) -> bool {
        self.bound.holds(self.value)
    }
}

/// Four significant digits, trailing zeros trimmed.
fn num(x: f64) -> String {
    if !x.is_finite() || x == 0.0 {
        return format!("{x}");
    }
    let decimals = (3 - x.abs().log10().floor() as i32).clamp(0, 6) as usize;
    let s = format!("{x:.decimals$}");
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

/// The rows as one markdown table: shape, paper, measured, the bound,
/// the verdict and the reason.
pub fn render_checks(checks: &[Check]) -> String {
    let with_unit = |x: f64, unit: &str| match unit {
        "" => num(x),
        "×" => format!("{}×", num(x)),
        _ => format!("{} {unit}", num(x)),
    };
    let mut out = String::from(
        "| shape | paper | measured | check | result | why |\n|---|---|---|---|---|---|\n",
    );
    for c in checks {
        let bound = match c.bound {
            Bound::Below(max) => format!("< {}", with_unit(max, c.unit)),
            Bound::Above(min) => format!("> {}", with_unit(min, c.unit)),
            Bound::Within(lo, hi) => {
                format!("in ({}, {})", with_unit(lo, c.unit), with_unit(hi, c.unit))
            }
        };
        let result = if c.passed() { "pass" } else { "**FAIL**" };
        out.push_str(&format!(
            "| {} | {} | {} | {bound} | {result} | {} |\n",
            c.name,
            c.paper,
            with_unit(c.value, c.unit),
            c.why
        ));
    }
    out
}

// ---------------------------------------------------------------------------
// JSON reports

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
/// directories), and say where it went on stderr. A report that could
/// not be written is an error the binary must exit nonzero on: CI
/// regenerates every committed report and diffs it, so a silently
/// skipped write would leave the stale file looking current.
pub fn write_report(path: &Path, benchmark: &str, scenarios: Vec<JsonValue>) -> io::Result<()> {
    let doc = JsonValue::object([
        ("benchmark", JsonValue::Str(benchmark.to_string())),
        ("scenarios", JsonValue::Array(scenarios)),
    ]);
    let write = || {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            std::fs::create_dir_all(parent)?;
        }
        std::fs::write(path, format!("{doc}\n"))
    };
    write().map_err(|e| {
        io::Error::new(
            e.kind(),
            format!("cannot write report {}: {e}", path.display()),
        )
    })?;
    eprintln!("report: wrote {}", path.display());
    Ok(())
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
    fn write_report_fails_when_the_parent_is_a_file() {
        let blocker =
            std::env::temp_dir().join(format!("gvfs-report-blocker-{}", std::process::id()));
        std::fs::write(&blocker, "a regular file, not a directory").unwrap();
        let path = blocker.join("r.json");
        let written = write_report(&path, "t", Vec::new());
        std::fs::remove_file(&blocker).unwrap();
        let err = written.expect_err("a report under a regular file cannot be written");
        assert!(err.to_string().contains("r.json"), "{err}");
        assert!(!path.exists());
    }

    /// `inside` holds; the bound's edges, `outside` and NaN do not.
    fn holds_only_inside(bound: Bound, inside: f64, edges: &[f64], outside: &[f64]) {
        assert!(bound.holds(inside), "{bound:?} must hold {inside}");
        for &x in edges.iter().chain(outside).chain(&[f64::NAN]) {
            assert!(!bound.holds(x), "{bound:?} must fail {x}");
        }
    }

    #[test]
    fn below_passes_under_its_limit_only() {
        holds_only_inside(Bound::Below(10.0), 9.99, &[10.0], &[10.01, f64::INFINITY]);
    }

    #[test]
    fn above_passes_over_its_limit_only() {
        holds_only_inside(Bound::Above(30.0), 30.01, &[30.0], &[29.99, -1.0]);
    }

    #[test]
    fn within_passes_strictly_inside_its_band_only() {
        holds_only_inside(Bound::Within(1.0, 8.0), 2.1, &[1.0, 8.0], &[0.5, 8.5]);
        assert_eq!(Bound::near(2.1), Bound::Within(1.05, 4.2));
    }

    #[test]
    fn a_failed_row_is_marked_in_the_markdown() {
        let row = |value| Check {
            name: "first iteration".into(),
            paper: "217.3 s < 225.7 s",
            value,
            unit: "s",
            bound: Bound::Below(265.1),
            why: "caching pays on the cold iteration",
        };
        let md = render_checks(&[row(223.86), row(277.3)]);
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4, "{md}");
        assert!(lines[2].contains("| 223.9 s | < 265.1 s | pass |"), "{md}");
        assert!(
            lines[3].contains("| 277.3 s | < 265.1 s | **FAIL** |"),
            "{md}"
        );
    }

    #[test]
    #[should_panic(expected = "row arity mismatch")]
    fn arity_mismatch_panics() {
        render_table(&["a", "b"], &[vec!["only-one".into()]]);
    }
}
