//! perf — the wall-clock performance harness (DESIGN.md §5.6).
//!
//! Unlike every other binary in this crate, which reports *virtual* time
//! calibrated against the paper, this one measures how fast the simulator
//! itself runs on the host: a fixed scenario set (fig4 LaTeX WAN+C with
//! write-back flush, fig6/table1 clone fleets, and a pure simnet
//! event-churn microbench) is executed N times, and the median wall-clock
//! seconds per run yields three throughput rates per scenario:
//!
//! * **events/sec** — scheduler events processed per wall-clock second,
//! * **RPC round-trips/sec** — completed client calls per wall second,
//! * **simulated-bytes/sec** — link-layer payload bytes per wall second.
//!
//! Results are appended as one labelled entry to the committed
//! `BENCH_perf.json` trajectory file (schema `gvfs.perf.v1`) so engine
//! regressions are visible PR-over-PR. The label (`--label`) must be
//! new to that file and not `dev`; it is checked before any scenario
//! runs, and `--no-write` skips both the check and the append.
//! Virtual-time results are checked for bit-identity across the N
//! repeats: a deterministic simulation must produce the same event
//! count, byte count, and final virtual clock every run, and the harness
//! fails hard when it does not.
//!
//! `--validate` checks either trajectory schema — `gvfs.perf.v1`
//! (this binary's `BENCH_perf.json`) or `gvfs.fleet-perf.v1`
//! (`BENCH_fleet.json`, written by `fleet --bench`).
//!
//! ```text
//! cargo run -p gvfs-bench --release --bin perf -- --label NAME          # full, 3 runs
//! cargo run -p gvfs-bench --release --bin perf -- --smoke --label NAME  # CI-sized, 2 runs
//! cargo run -p gvfs-bench --release --bin perf -- --validate BENCH_perf.json
//! cargo run -p gvfs-bench --release --bin perf -- --validate BENCH_fleet.json
//! ```

use gvfs_bench::perfjson::{
    append_trajectory, as_number, check_label, events_per_sec_of, get, measure, rpc_roundtrips,
    sim_bytes, validate, JsonReader, Measure, PERF_SCENARIOS, PERF_SCHEMA,
};
use gvfs_bench::{
    run_app_scenario, run_parallel_cloning, run_sequential_for_table1, AppParams, AppScenario,
    CloneParams,
};
use simnet::{Env, JsonValue, SimDuration, Simulation};
use workloads::latex::{generate, LatexParams};

// ---------------------------------------------------------------------------
// Scenarios

/// Figure 4's WAN+C LaTeX run, including the write-back flush: the
/// NFS/proxy/cache read-write hot path.
fn fig4_flush(smoke: bool) -> Measure {
    let params = AppParams::default();
    let lp = if smoke {
        // CI-sized: a few hundred cold blocks still exercises the whole
        // proxy/cache/flush path, in well under a second of wall time.
        LatexParams {
            iterations: 2,
            cold_blocks: 700,
            warm_blocks: 120,
            doc_bytes: 512 << 10,
            out_bytes: 1 << 20,
            ..LatexParams::default()
        }
    } else {
        LatexParams::default()
    };
    let wl = generate(&lp);
    let res = run_app_scenario(AppScenario::WanC, &wl, &params, 1);
    Measure {
        events: res.events_processed,
        rpc_roundtrips: rpc_roundtrips(&res.snapshot),
        sim_bytes: sim_bytes(&res.snapshot),
        virtual_secs: res.total_virtual_secs,
        procs: res.processes_spawned,
    }
}

fn clone_params(smoke: bool) -> CloneParams {
    CloneParams {
        // Reduced images keep a single harness run in seconds while still
        // pushing millions of bytes through the proxy data path. Fixed
        // per mode so trajectory entries stay comparable.
        image_scale: Some(if smoke { 64 } else { 4 }),
        clones: if smoke { 2 } else { 8 },
        ..CloneParams::default()
    }
}

/// Figure 6 / Table 1's parallel clone fleet: the channel-transfer and
/// block-cache hot path under concurrency.
fn fig6_clone(smoke: bool) -> Measure {
    let res = run_parallel_cloning(&clone_params(smoke));
    Measure {
        events: res.events_processed,
        rpc_roundtrips: rpc_roundtrips(&res.snapshot),
        sim_bytes: sim_bytes(&res.snapshot),
        virtual_secs: res.total_virtual_secs,
        procs: res.processes_spawned,
    }
}

/// Table 1's sequential row (cold pass then warm pass on one host).
fn table1_seq(smoke: bool) -> Measure {
    let res = run_sequential_for_table1(&clone_params(smoke));
    Measure {
        events: res.events_processed,
        rpc_roundtrips: rpc_roundtrips(&res.snapshot),
        sim_bytes: sim_bytes(&res.snapshot),
        virtual_secs: res.total_virtual_secs,
        procs: res.processes_spawned,
    }
}

/// Pure engine churn: no RPC, no links — many processes sleeping and
/// yielding. Isolates raw scheduler throughput from protocol work.
fn simnet_churn(smoke: bool) -> Measure {
    let (procs, iters) = if smoke {
        (16u64, 2_000u64)
    } else {
        (32u64, 4_000u64)
    };
    let sim = Simulation::new();
    let h = sim.handle();
    for p in 0..procs {
        sim.spawn(format!("churn{p}"), move |env: Env| {
            let mut s = p + 1;
            for _ in 0..iters {
                s = simnet::splitmix64(s);
                env.sleep(SimDuration::from_micros(1 + s % 128));
                env.yield_now();
            }
        });
    }
    let end = sim.run();
    Measure {
        events: h.events_processed(),
        rpc_roundtrips: 0,
        sim_bytes: 0,
        virtual_secs: end.as_secs_f64(),
        procs: h.processes_spawned(),
    }
}

// ---------------------------------------------------------------------------
// Main

struct Cli {
    smoke: bool,
    runs: Option<usize>,
    json_path: String,
    label: String,
    no_write: bool,
    validate_path: Option<String>,
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        smoke: false,
        runs: None,
        json_path: "BENCH_perf.json".to_string(),
        label: "dev".to_string(),
        no_write: false,
        validate_path: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => cli.smoke = true,
            "--no-write" => cli.no_write = true,
            "--runs" => {
                cli.runs = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--runs requires a positive integer")),
                )
            }
            "--json" => {
                cli.json_path = args
                    .next()
                    .unwrap_or_else(|| usage("--json requires a path"))
            }
            "--label" => {
                cli.label = args
                    .next()
                    .unwrap_or_else(|| usage("--label requires a value"))
            }
            "--validate" => {
                cli.validate_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--validate requires a path")),
                )
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    cli
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("perf: {err}");
    }
    eprintln!(
        "usage: perf [--smoke] [--runs N] [--json PATH] [--label NAME] [--no-write]\n       perf --validate PATH"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn main() {
    let cli = parse_cli();

    if let Some(path) = &cli.validate_path {
        let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
            eprintln!("perf: cannot read {path}: {e}");
            std::process::exit(1);
        });
        let doc = JsonReader::parse(&text).unwrap_or_else(|e| {
            eprintln!("perf: {path} is not valid JSON: {e}");
            std::process::exit(1);
        });
        let errs = validate(&doc);
        if errs.is_empty() {
            let schema = match get(&doc, "schema") {
                Some(JsonValue::Str(s)) => s.clone(),
                _ => unreachable!("validate() demands a string schema"),
            };
            println!("perf: {path} conforms to {schema}");
            return;
        }
        for e in &errs {
            eprintln!("perf: {path}: {e}");
        }
        std::process::exit(1);
    }

    let runs = cli.runs.unwrap_or(if cli.smoke { 2 } else { 3 });
    if runs == 0 {
        usage("--runs must be >= 1");
    }
    // The entry is appended only if its label passes the trajectory's
    // rule; check that before measuring anything.
    if !cli.no_write {
        if let Err(e) = check_label(&cli.json_path, &cli.label) {
            usage(&format!("--label: {e}"));
        }
    }
    let mode = if cli.smoke { "smoke" } else { "full" };
    eprintln!("perf: mode={mode} runs={runs} label={}", cli.label);

    let smoke = cli.smoke;
    let scenarios = vec![
        measure("fig4_flush", runs, || fig4_flush(smoke)),
        measure("fig6_clone", runs, || fig6_clone(smoke)),
        measure("table1_seq", runs, || table1_seq(smoke)),
        measure("simnet_churn", runs, || simnet_churn(smoke)),
    ];

    println!("\nWall-clock throughput (median of {runs} runs, {mode} mode):\n");
    println!(
        "{:<14} {:>12} {:>14} {:>16} {:>18}",
        "scenario", "wall secs", "events/sec", "rpc rt/sec", "sim bytes/sec"
    );
    for s in &scenarios {
        let name = match get(s, "name") {
            Some(JsonValue::Str(n)) => n.clone(),
            _ => unreachable!("scenario entries always carry a name"),
        };
        let num = |k: &str| get(s, k).and_then(as_number).unwrap_or(0.0);
        println!(
            "{:<14} {:>12.3} {:>14.0} {:>16.0} {:>18.0}",
            name,
            num("wall_secs_median"),
            num("events_per_sec"),
            num("rpc_roundtrips_per_sec"),
            num("sim_bytes_per_sec")
        );
    }

    let entry = JsonValue::object([
        ("label", JsonValue::Str(cli.label.clone())),
        ("mode", JsonValue::Str(mode.to_string())),
        ("runs", JsonValue::Uint(runs as u64)),
        ("scenarios", JsonValue::Array(scenarios)),
    ]);

    if cli.no_write {
        return;
    }

    // Comparing against the first entry of the same mode shows the
    // trajectory's cumulative effect (e.g. pre- vs post-optimization).
    if let Ok(text) = std::fs::read_to_string(&cli.json_path) {
        if let Ok(doc) = JsonReader::parse(&text) {
            if let Some(JsonValue::Array(entries)) = get(&doc, "trajectory") {
                if let Some(first) = entries
                    .iter()
                    .find(|e| matches!(get(e, "mode"), Some(JsonValue::Str(m)) if m == mode))
                {
                    for name in PERF_SCENARIOS {
                        if let (Some(base), Some(now)) = (
                            events_per_sec_of(first, name),
                            events_per_sec_of(&entry, name),
                        ) {
                            if base > 0.0 {
                                println!(
                                    "{name}: {:.2}x events/sec vs first {mode} entry",
                                    now / base
                                );
                            }
                        }
                    }
                }
            }
        }
    }
    append_trajectory(&cli.json_path, PERF_SCHEMA, entry);
}
