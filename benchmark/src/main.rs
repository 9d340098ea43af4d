//! The repository benchmark: four workloads on two clocks, per-layer
//! probes and counts, hang-safe isolated runs. See `README.md` beside
//! this package for what is measured and why.
//!
//! ```text
//! benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//! benchmark compare A B        # A, B: result directories or set files
//! benchmark summarize DIR      # print DIR's run records as one set file
//! benchmark validate [FILE]    # check BENCHMARK.json against the tables
//! benchmark list [--json]      # print the tables (or BENCHMARK.json)
//! ```

mod child;
mod compare;
mod json;
mod probes;
mod procfs;
mod run;
mod spec;
mod stats;
mod watchdog;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

const USAGE: &str = "\
usage: benchmark [--workload W] [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
                 [--inject-hang]
       benchmark compare A B
       benchmark summarize DIR
       benchmark validate [BENCHMARK.json]
       benchmark list [--json]

Without --workload every workload runs in turn. --trace 0 (the default)
measures the end-to-end metrics, --trace 1 the per-layer metrics. Each
run prints `workload metric unit value` lines and then one JSON line.
--inject-hang makes the first child hang, to show the watchdog at work.";

/// Flags of the form `--name value`, and bare `--name` switches.
struct Args {
    rest: Vec<String>,
}

impl Args {
    fn value(&mut self, flag: &str) -> Result<Option<String>, String> {
        let Some(i) = self.rest.iter().position(|a| a == flag) else {
            return Ok(None);
        };
        if i + 1 >= self.rest.len() {
            return Err(format!("{flag} needs a value"));
        }
        self.rest.remove(i);
        Ok(Some(self.rest.remove(i)))
    }

    fn parsed<T: std::str::FromStr>(&mut self, flag: &str) -> Result<Option<T>, String> {
        self.value(flag)?
            .map(|v| v.parse().map_err(|_| format!("{flag}: cannot read {v:?}")))
            .transpose()
    }

    fn switch(&mut self, flag: &str) -> bool {
        let before = self.rest.len();
        self.rest.retain(|a| a != flag);
        self.rest.len() != before
    }

    fn done(self) -> Result<(), String> {
        match self.rest.first() {
            None => Ok(()),
            Some(a) => Err(format!("unexpected argument {a:?}")),
        }
    }
}

/// `0`/`1` of `--trace`.
fn trace_flag(args: &mut Args) -> Result<bool, String> {
    match args.value("--trace")?.as_deref() {
        None | Some("0") => Ok(false),
        Some("1") => Ok(true),
        Some(other) => Err(format!("--trace takes 0 or 1, not {other:?}")),
    }
}

fn workload_flag(args: &mut Args) -> Result<Option<&'static spec::WorkloadDef>, String> {
    args.value("--workload")?
        .map(|name| {
            spec::workload(&name).ok_or_else(|| {
                let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
                format!("unknown workload {name:?}; the workloads are {known:?}")
            })
        })
        .transpose()
}

/// Where results go unless `--out` says otherwise: beside the build
/// output, never into a tracked path.
fn default_out() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

fn cmd_child(mut args: Args) -> Result<bool, String> {
    let task = match args.rest.first().and_then(|w| child::Task::from_word(w)) {
        Some(t) => {
            args.rest.remove(0);
            t
        }
        None => return Err("child needs a task: measure, reference, probes or hang".into()),
    };
    let child = child::Args {
        task,
        workload: workload_flag(&mut args)?
            .ok_or("child needs --workload")?
            .name,
        seed: args.parsed("--seed")?.ok_or("child needs --seed")?,
        trace: trace_flag(&mut args)?,
        setups: args.parsed("--setups")?.unwrap_or(1),
        probe_seconds: args.parsed("--probe-seconds")?.unwrap_or(0.5),
        result: args.parsed("--result")?.ok_or("child needs --result")?,
    };
    args.done()?;
    child::run(&child);
    Ok(true)
}

fn cmd_run(mut args: Args) -> Result<bool, String> {
    let only = workload_flag(&mut args)?;
    let opts = run::Options {
        seed: args.parsed("--seed")?.unwrap_or(spec::DEFAULT_SEED),
        seconds: args
            .parsed("--seconds")?
            .unwrap_or(spec::RUN_SECONDS as f64),
        trace: trace_flag(&mut args)?,
        out: args.parsed("--out")?.unwrap_or_else(default_out),
        inject_hang: args.switch("--inject-hang"),
    };
    args.done()?;
    if !(opts.seconds > 0.0 && opts.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    let mut all_ok = true;
    for w in spec::WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o.name == w.name))
    {
        let result = run::run(w, &opts)?;
        for p in &result.problems {
            eprintln!("benchmark: FAILED CHECK: {p}");
        }
        print!("{}", result.metric_lines(w.name));
        println!("{}", result.result_line());
        all_ok &= result.correct && result.failed == 0;
    }
    Ok(all_ok)
}

fn cmd_compare(args: Args) -> Result<bool, String> {
    let [a, b] = args.rest.as_slice() else {
        return Err("compare needs two result sets".into());
    };
    let a = compare::ResultSet::load(Path::new(a))?;
    let b = compare::ResultSet::load(Path::new(b))?;
    let c = compare::compare(&a, &b)?;
    print!("{}", c.text);
    Ok(c.worse == 0 && c.unresolved == 0 && c.differing == 0)
}

fn cmd_summarize(args: Args) -> Result<bool, String> {
    let [dir] = args.rest.as_slice() else {
        return Err("summarize needs one result directory".into());
    };
    let set = compare::ResultSet::load(Path::new(dir))?;
    print!("{}", set.to_text());
    Ok(true)
}

fn cmd_validate(args: Args) -> Result<bool, String> {
    let path = match args.rest.as_slice() {
        [] => "BENCHMARK.json",
        [p] => p,
        _ => return Err("validate takes at most one file".into()),
    };
    let errs = spec::validate_file(&json::read_file(Path::new(path))?);
    for e in &errs {
        eprintln!("benchmark: {path}: {e}");
    }
    if errs.is_empty() {
        println!(
            "{path}: {} workloads, {} end-to-end and {} per-layer metrics, as the tables say",
            spec::WORKLOADS.len(),
            spec::END_TO_END.len(),
            spec::PER_LAYER.len()
        );
    }
    Ok(errs.is_empty())
}

fn cmd_list(mut args: Args) -> Result<bool, String> {
    let as_json = args.switch("--json");
    args.done()?;
    if as_json {
        print!("{}", json::to_pretty(&spec::benchmark_json()));
    } else {
        print!("{}", spec::list());
    }
    Ok(true)
}

fn main() -> ExitCode {
    let mut rest: Vec<String> = std::env::args().skip(1).collect();
    if rest.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let command = match rest.first().map(String::as_str) {
        Some(c @ ("child" | "compare" | "summarize" | "validate" | "list")) => {
            let c = c.to_string();
            rest.remove(0);
            c
        }
        _ => "run".to_string(),
    };
    let args = Args { rest };
    let outcome = match command.as_str() {
        "child" => cmd_child(args),
        "compare" => cmd_compare(args),
        "summarize" => cmd_summarize(args),
        "validate" => cmd_validate(args),
        "list" => cmd_list(args),
        _ => cmd_run(args),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
