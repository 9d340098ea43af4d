//! `benchmark compare A B` and `benchmark summarize DIR`: result sets
//! and the verdict each (metric, workload) pair gets.
//!
//! A result set is either a directory of the `run-*.json` records the
//! benchmark writes, or one set file made from such a directory by
//! `summarize`. Both hold, per workload and metric, one value per seed.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;

use simnet::JsonValue;

use crate::json;
use crate::spec::{self, Better, MetricDef};
use crate::stats::{median, quartiles, spread};

/// Schema tag of a set file.
pub const SET_SCHEMA: &str = "gvfs.benchmark.set.v1";
/// Schema tag of one run record.
pub const RUN_SCHEMA: &str = "gvfs.benchmark.run.v1";

/// Values of every metric, per workload and seed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResultSet {
    /// Whether the measured children ran pinned to one core.
    pub pinned: bool,
    /// `(workload, metric) -> seed -> value`.
    pub series: BTreeMap<(String, String), BTreeMap<u64, f64>>,
}

impl ResultSet {
    /// Seeds a workload was run with.
    pub fn seeds(&self, workload: &str) -> Vec<u64> {
        let mut seeds: Vec<u64> = self
            .series
            .iter()
            .filter(|((w, _), _)| w == workload)
            .flat_map(|(_, by_seed)| by_seed.keys().copied())
            .collect();
        seeds.sort_unstable();
        seeds.dedup();
        seeds
    }

    /// Fold one run record in. Records of a set must agree on pinning.
    pub fn add_run(&mut self, run: &JsonValue) -> Result<(), String> {
        if json::str_of(run, "schema") != Some(RUN_SCHEMA) {
            return Err(format!("not a {RUN_SCHEMA} record"));
        }
        let workload = json::str_of(run, "workload").ok_or("run record lacks workload")?;
        let seed = match json::get(run, "seed") {
            Some(JsonValue::Uint(s)) => *s,
            _ => return Err("run record lacks seed".into()),
        };
        let pinned = matches!(json::get(run, "pinned"), Some(JsonValue::Bool(true)));
        if self.series.is_empty() {
            self.pinned = pinned;
        } else if self.pinned != pinned {
            return Err("set mixes pinned and unpinned runs".into());
        }
        let metrics = json::get(run, "metrics").ok_or("run record lacks metrics")?;
        for (name, m) in json::fields(metrics) {
            let value =
                json::num(m, "value").ok_or_else(|| format!("metric {name} lacks value"))?;
            self.series
                .entry((workload.to_string(), name.clone()))
                .or_default()
                .insert(seed, value);
        }
        Ok(())
    }

    /// The set as a set file: one series per line, so that a committed
    /// baseline diffs by series.
    pub fn to_text(&self) -> String {
        let series: Vec<String> = self
            .series
            .iter()
            .map(|((w, m), by_seed)| {
                json::to_line(&JsonValue::object([
                    ("workload", w.as_str().into()),
                    ("metric", m.as_str().into()),
                    (
                        "seeds",
                        JsonValue::Array(by_seed.keys().map(|s| JsonValue::Uint(*s)).collect()),
                    ),
                    (
                        "values",
                        json::floats(&by_seed.values().copied().collect::<Vec<_>>()),
                    ),
                ]))
            })
            .collect();
        format!(
            "{{\"schema\":\"{SET_SCHEMA}\",\"pinned\":{},\"series\":[\n{}\n]}}\n",
            self.pinned,
            series.join(",\n")
        )
    }

    /// Parse a set file.
    pub fn from_json(v: &JsonValue) -> Result<ResultSet, String> {
        if json::str_of(v, "schema") != Some(SET_SCHEMA) {
            return Err(format!("not a {SET_SCHEMA} file"));
        }
        let mut set = ResultSet {
            pinned: matches!(json::get(v, "pinned"), Some(JsonValue::Bool(true))),
            ..ResultSet::default()
        };
        for s in json::array(v, "series") {
            let w = json::str_of(s, "workload").ok_or("series lacks workload")?;
            let m = json::str_of(s, "metric").ok_or("series lacks metric")?;
            let seeds = json::array(s, "seeds");
            let values = json::array(s, "values");
            if seeds.len() != values.len() {
                return Err(format!(
                    "{w}/{m}: {} seeds, {} values",
                    seeds.len(),
                    values.len()
                ));
            }
            let by_seed = set.series.entry((w.into(), m.into())).or_default();
            for (seed, value) in seeds.iter().zip(values) {
                let (JsonValue::Uint(seed), Some(value)) =
                    (seed, gvfs_bench::perfjson::as_number(value))
                else {
                    return Err(format!("{w}/{m}: seeds must be unsigned, values numbers"));
                };
                by_seed.insert(*seed, value);
            }
        }
        Ok(set)
    }

    /// Load a set file or a directory of `run-*.json`.
    pub fn load(path: &Path) -> Result<ResultSet, String> {
        if !path.is_dir() {
            return ResultSet::from_json(&json::read_file(path)?)
                .map_err(|e| format!("{}: {e}", path.display()));
        }
        let mut files: Vec<_> = std::fs::read_dir(path)
            .map_err(|e| format!("cannot list {}: {e}", path.display()))?
            .flatten()
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("run-") && n.ends_with(".json"))
            })
            .collect();
        files.sort();
        if files.is_empty() {
            return Err(format!("{} holds no run-*.json", path.display()));
        }
        let mut set = ResultSet::default();
        for f in files {
            set.add_run(&json::read_file(&f)?)
                .map_err(|e| format!("{}: {e}", f.display()))?;
        }
        Ok(set)
    }
}

/// What `compare` says about one (metric, workload) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B's median is better than A's by more than A's own spread.
    Improved,
    /// B's median is within the bound (and not an improvement).
    Unchanged,
    /// B's median is worse than A's by more than the bound.
    Worse,
    /// A's or B's run-to-run spread is wider than the bound.
    Unresolved,
}

impl Verdict {
    /// The word printed.
    pub fn word(self) -> &'static str {
        match self {
            Verdict::Improved => "improved",
            Verdict::Unchanged => "unchanged",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge B against A under `bound`. The returned share is how much worse
/// B's median is, as a share of A's (negative: better).
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Verdict, f64) {
    let (ma, mb) = (median(a), median(b));
    let worse_by = match better {
        Better::Lower => (mb - ma) / ma.abs(),
        Better::Higher => (ma - mb) / ma.abs(),
    };
    let worse_by = if ma == mb { 0.0 } else { worse_by };
    let verdict = if spread(a).max(spread(b)) > bound {
        Verdict::Unresolved
    } else if worse_by > bound {
        Verdict::Worse
    } else if worse_by < 0.0 && -worse_by > spread(a) {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    };
    (verdict, worse_by)
}

fn describe(xs: &[f64]) -> String {
    match quartiles(xs) {
        Some([q1, q2, q3]) => format!("{q2} [{q1}, {q3}] n={}", xs.len()),
        None => "no samples".into(),
    }
}

/// The outcome of comparing two sets.
#[derive(Debug, Default)]
pub struct Comparison {
    /// The report, one line per (metric, workload).
    pub text: String,
    /// End-to-end pairs judged worse.
    pub worse: usize,
    /// End-to-end pairs whose spread exceeds their bound.
    pub unresolved: usize,
    /// Deterministic pairs that differ on some seed.
    pub differing: usize,
}

/// Compare set `b` against set `a`. Refuses sets that differ in pinning
/// or, for any workload both ran, in seeds.
pub fn compare(a: &ResultSet, b: &ResultSet) -> Result<Comparison, String> {
    if a.pinned != b.pinned {
        return Err(format!(
            "A ran {} and B ran {}: host metrics of pinned and unpinned runs do not compare",
            if a.pinned { "pinned" } else { "unpinned" },
            if b.pinned { "pinned" } else { "unpinned" },
        ));
    }
    let mut out = Comparison::default();
    let mut exact = String::new();
    for w in &spec::WORKLOADS {
        let (sa, sb) = (a.seeds(w.name), b.seeds(w.name));
        if sa.is_empty() || sb.is_empty() {
            continue;
        }
        if sa != sb {
            return Err(format!(
                "{}: A ran seeds {sa:?} and B ran seeds {sb:?}",
                w.name
            ));
        }
        for m in spec::END_TO_END.iter().chain(spec::PER_LAYER) {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.series.get(&key), b.series.get(&key)) else {
                continue;
            };
            compare_metric(&mut out, &mut exact, w.name, m, va, vb);
        }
    }
    if !exact.is_empty() {
        let _ = write!(out.text, "deterministic metrics, seed by seed:\n{exact}");
    }
    let _ = writeln!(
        out.text,
        "end-to-end: {} worse, {} unresolved; deterministic: {} differ",
        out.worse, out.unresolved, out.differing
    );
    Ok(out)
}

fn compare_metric(
    out: &mut Comparison,
    exact: &mut String,
    workload: &str,
    m: &MetricDef,
    va: &BTreeMap<u64, f64>,
    vb: &BTreeMap<u64, f64>,
) {
    let xs: Vec<f64> = va.values().copied().collect();
    let ys: Vec<f64> = vb.values().copied().collect();
    if spec::is_deterministic(m.name) {
        let differ: Vec<u64> = va
            .iter()
            .filter(|(seed, x)| vb.get(seed).is_some_and(|y| y != *x))
            .map(|(seed, _)| *seed)
            .collect();
        if differ.is_empty() {
            let _ = writeln!(
                exact,
                "  {workload} {}: identical on {} seeds",
                m.name,
                va.len()
            );
        } else {
            out.differing += 1;
            let _ = writeln!(
                exact,
                "  {workload} {}: differs on seeds {differ:?} (A {} -> B {})",
                m.name,
                describe(&xs),
                describe(&ys)
            );
        }
    }
    let (verdict, _) = judge(&xs, &ys, m.better, m.bound.unwrap_or(f64::INFINITY));
    let word = match m.bound {
        Some(_) => verdict.word(),
        // Per-layer metrics carry no bound: the change is information.
        None if spec::is_deterministic(m.name) => return,
        None => "info",
    };
    if m.bound.is_some() {
        out.worse += usize::from(verdict == Verdict::Worse);
        out.unresolved += usize::from(verdict == Verdict::Unresolved);
    }
    let (ma, mb) = (median(&xs), median(&ys));
    let change = if ma == mb { 0.0 } else { (mb - ma) / ma.abs() };
    let _ = writeln!(
        out.text,
        "{workload} {} {}: A {} -> B {}: {:+.2}% of {ma} ({} is better{}): {word}",
        m.name,
        m.unit,
        describe(&xs),
        describe(&ys),
        change * 100.0,
        m.better.word(),
        m.bound
            .map_or(String::new(), |b| format!(", bound {}%", b * 100.0)),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_record(workload: &str, seed: u64, pinned: bool, wall: f64, virt: f64) -> JsonValue {
        let metric = |v: f64, unit: &str| {
            JsonValue::object([("value", JsonValue::Float(v)), ("unit", unit.into())])
        };
        JsonValue::object([
            ("schema", RUN_SCHEMA.into()),
            ("workload", workload.into()),
            ("seed", JsonValue::Uint(seed)),
            ("pinned", JsonValue::Bool(pinned)),
            (
                "metrics",
                JsonValue::object([
                    ("run_wall_s", metric(wall, "s")),
                    ("user_wait_s", metric(virt, "sim_s")),
                ]),
            ),
        ])
    }

    fn set(pinned: bool, walls: &[f64], virt: f64) -> ResultSet {
        let mut s = ResultSet::default();
        for (seed, wall) in walls.iter().enumerate() {
            s.add_run(&run_record("fleet_cold", seed as u64, pinned, *wall, virt))
                .unwrap();
        }
        s
    }

    const STEADY: [f64; 5] = [10.0, 10.1, 9.9, 10.05, 9.95];

    #[test]
    fn verdicts_on_synthetic_pairs() {
        let scale = |k: f64| STEADY.map(|x| x * k);
        let bound = 0.10;
        assert_eq!(
            judge(&STEADY, &STEADY, Better::Lower, bound).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&STEADY, &scale(1.05), Better::Lower, bound).0,
            Verdict::Unchanged
        );
        assert_eq!(
            judge(&STEADY, &scale(1.2), Better::Lower, bound).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&STEADY, &scale(0.8), Better::Lower, bound).0,
            Verdict::Improved
        );
        // Direction flips what "worse" means.
        assert_eq!(
            judge(&STEADY, &scale(0.8), Better::Higher, bound).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&STEADY, &scale(1.2), Better::Higher, bound).0,
            Verdict::Improved
        );
        // A gain smaller than A's own spread is not a gain.
        assert_eq!(
            judge(&STEADY, &scale(0.995), Better::Lower, bound).0,
            Verdict::Unchanged
        );
        // Spread wider than the bound: no verdict either way.
        let noisy = [10.0, 14.0, 7.0, 12.0, 8.0];
        assert_eq!(
            judge(&noisy, &scale(2.0), Better::Lower, bound).0,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&STEADY, &noisy, Better::Lower, bound).0,
            Verdict::Unresolved
        );
        let (_, by) = judge(&STEADY, &scale(1.2), Better::Lower, bound);
        assert!((by - 0.2).abs() < 1e-12);
    }

    #[test]
    fn compare_counts_worse_and_reports_determinism_separately() {
        let a = set(true, &STEADY, 325.791);
        let same = compare(&a, &a).unwrap();
        assert_eq!((same.worse, same.unresolved, same.differing), (0, 0, 0));
        assert!(same
            .text
            .contains("fleet_cold user_wait_s: identical on 5 seeds"));
        assert!(same.text.contains("run_wall_s s:"), "{}", same.text);

        let slower = set(true, &STEADY.map(|x| x * 1.5), 325.792);
        let c = compare(&a, &slower).unwrap();
        assert_eq!((c.worse, c.differing), (1, 1));
        assert!(c.text.contains("+50.00% of 10"), "{}", c.text);
        assert!(c.text.contains("differs on seeds [0, 1, 2, 3, 4]"));
    }

    #[test]
    fn compare_refuses_mismatched_pinning_and_seeds() {
        let a = set(true, &STEADY, 1.0);
        let err = compare(&a, &set(false, &STEADY, 1.0)).unwrap_err();
        assert!(err.contains("pinned and unpinned"), "{err}");
        let err = compare(&a, &set(true, &STEADY[..4], 1.0)).unwrap_err();
        assert!(err.contains("seeds"), "{err}");
        let mut mixed = set(true, &STEADY, 1.0);
        assert!(mixed
            .add_run(&run_record("fleet_cold", 9, false, 1.0, 1.0))
            .is_err());
    }

    #[test]
    fn set_files_round_trip() {
        let a = set(true, &STEADY, 325.791093);
        let text = a.to_text();
        assert_eq!(text.lines().count(), 2 + a.series.len());
        assert_eq!(
            ResultSet::from_json(&json::parse(&text).unwrap()).unwrap(),
            a
        );
        assert!(ResultSet::from_json(&json::parse("{\"schema\":\"x\"}").unwrap()).is_err());
    }
}
