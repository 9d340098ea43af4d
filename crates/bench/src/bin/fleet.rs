//! fleet — fleet-scale cloning under seeded arrival load (DESIGN.md §5.8).
//!
//! Drives hundreds of clone requests through a sharded proxy tree
//! (origin → per-site shard proxies → per-host client proxies) with
//! Poisson and bursty on/off arrivals, and reports p50/p95/p99 clone
//! latency, origin WAN utilization, per-shard queue depth, and the
//! achieved `FETCH_BLOBS_BATCH` coalescing — with the batching ablation
//! (`FleetTuning::off()`) and the dedup ablation run side by side.
//!
//! ```text
//! cargo run -p gvfs-bench --release --bin fleet              # 512 clones, 4 sites
//! cargo run -p gvfs-bench --release --bin fleet -- --smoke   # 64 clones, 2 sites
//! ```
//!
//! The default run writes `reports/fleet.json`; the report is a pure
//! function of the seeds, so CI replays it and compares bytes (including
//! under `--sched-chaos`).
//!
//! `--ten-k` runs the diurnal 10,240-clone / 16-site / 4-region fleet
//! twice — digest gossip on and off — writes `reports/fleet10k.json`,
//! and enforces the scenario's two contracts via the exit code: gossip
//! must cut cold-region WAN-down bytes by at least 40%, and each lane
//! must finish inside the printed wall-clock budget.

use std::path::Path;

use gvfs::{CowTuning, DedupTuning, FleetTuning};
use gvfs_bench::fleet::{run_fleet, ArrivalMode, FleetParams, FleetResult};
use gvfs_bench::perfjson::wall_time;
use gvfs_bench::report::{render_table, write_report};

struct Cli {
    smoke: bool,
    json_path: Option<String>,
    trace: bool,
    seed: Option<u64>,
    rate: Option<f64>,
    clones: Option<usize>,
    ten_k: bool,
}

fn usage(err: &str) -> ! {
    if !err.is_empty() {
        eprintln!("fleet: {err}");
    }
    eprintln!(
        "usage: fleet [--smoke] [--json PATH] [--no-json] [--trace] [--seed N] [--rate R]\n             [--clones N] [--sched-chaos SEED]\n       fleet --ten-k [--clones N] [--seed N] [--json PATH] [--no-json]"
    );
    std::process::exit(if err.is_empty() { 0 } else { 2 });
}

fn parse_cli() -> Cli {
    let mut cli = Cli {
        smoke: false,
        json_path: Some("reports/fleet.json".to_string()),
        trace: false,
        seed: None,
        rate: None,
        clones: None,
        ten_k: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--smoke" => cli.smoke = true,
            "--trace" => cli.trace = true,
            "--no-json" => cli.json_path = None,
            "--ten-k" => cli.ten_k = true,
            "--json" => {
                cli.json_path = Some(
                    args.next()
                        .unwrap_or_else(|| usage("--json requires a path")),
                )
            }
            "--seed" => {
                cli.seed = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed requires a u64")),
                )
            }
            "--rate" => {
                cli.rate = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--rate requires a float")),
                )
            }
            "--clones" => {
                cli.clones = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--clones requires a positive integer")),
                )
            }
            "--sched-chaos" => {
                let seed: u64 = args
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| usage("--sched-chaos requires a u64 seed"));
                // Install process-wide so every Simulation::new() in
                // library code runs under the adversarial schedule. The
                // report must stay byte-identical (DESIGN.md §5.7).
                simnet::set_default_sched_policy(simnet::SchedPolicy::chaos(seed));
                eprintln!("fleet: schedule-chaos policy active (seed {seed})");
            }
            "--help" | "-h" => usage(""),
            other => usage(&format!("unknown argument: {other}")),
        }
    }
    cli
}

/// Wall-clock budget for one 10,240-clone lane on the CI host. The
/// budget is part of the scenario's contract — a run that no longer
/// fits means the engine or the fleet wiring regressed — and is printed
/// alongside the measured wall time so the report shows the headroom.
const TEN_K_WALL_BUDGET_SECS: f64 = 300.0;

/// Minimum WAN-down-bytes reduction digest gossip must buy over the
/// gossip-off ablation on the identical arrival schedule. Cold golden
/// chunks should cross the WAN roughly once per 4-site *region* instead
/// of once per site, so well over half the cold bytes are avoidable;
/// 40% leaves slack for chunks that arrive before gossip propagates.
const TEN_K_WAN_REDUCTION_PCT: f64 = 40.0;

/// The 10,240-clone scenario: gossip-off ablation and gossip-on lane on
/// the identical diurnal arrival schedule, gated on WAN reduction and
/// wall-clock budget.
fn run_ten_k(cli: &Cli) -> std::io::Result<()> {
    let mut base = FleetParams::ten_k();
    if let Some(seed) = cli.seed {
        base.seed = seed;
    }
    if let Some(rate) = cli.rate {
        base.rate_per_sec = rate;
    }
    if let Some(clones) = cli.clones {
        base.clones = clones;
    }
    base.trace = cli.trace;

    // Ablation first: same params, gossip disabled (PR 8/9 shard tuning).
    let lanes: Vec<(&str, FleetParams)> = vec![
        (
            "fleet10k-nogossip",
            FleetParams {
                fleet: FleetTuning::shard(),
                ..base
            },
        ),
        ("fleet10k-gossip", base),
    ];

    let mut rows = Vec::new();
    let mut report = Vec::new();
    let mut results: Vec<(&str, FleetResult, f64)> = Vec::new();
    for (label, params) in lanes {
        eprintln!(
            "fleet: {label} ({} clones, {} sites / {} regions, seed {:#x})...",
            params.clones, params.sites, params.regions, params.seed
        );
        let (r, wall) = wall_time(|| run_fleet(&params));
        rows.push(vec![
            label.to_string(),
            format!("{}", r.latency.count),
            format!("{:.2}", r.latency.p50_secs),
            format!("{:.2}", r.latency.p95_secs),
            format!("{:.2}", r.latency.p99_secs),
            format!("{:.1}", r.wan_down_bytes as f64 / (1u64 << 20) as f64),
            format!(
                "{:.1}",
                r.wan_down_bytes as f64 / params.sites.max(1) as f64 / (1u64 << 20) as f64
            ),
            format!("{}", r.gossip_peer_hits),
            format!("{:.1}s", wall),
        ]);
        report.push(r.report(label));
        results.push((label, r, wall));
    }

    println!(
        "\n10k fleet ({} clones, {} sites, {} regions, {} users, diurnal peak {}/s):\n",
        base.clones, base.sites, base.regions, base.users, base.rate_per_sec
    );
    print!(
        "{}",
        render_table(
            &[
                "scenario",
                "clones",
                "p50 s",
                "p95 s",
                "p99 s",
                "wan MiB",
                "MiB/site",
                "peer hits",
                "wall"
            ],
            &rows
        )
    );

    let mut failed = false;
    let (off, on) = (&results[0], &results[1]);
    if off.1.wan_down_bytes > 0 {
        let lower = (1.0 - on.1.wan_down_bytes as f64 / off.1.wan_down_bytes as f64) * 100.0;
        println!(
            "\nwan-down bytes: {} with gossip vs {} without ({lower:.0}% lower; gate >= {TEN_K_WAN_REDUCTION_PCT:.0}%)",
            on.1.wan_down_bytes, off.1.wan_down_bytes
        );
        println!(
            "gossip served {} peer fetches ({} bytes) inside regions",
            on.1.gossip_peer_hits, on.1.gossip_peer_bytes
        );
        if lower < TEN_K_WAN_REDUCTION_PCT {
            eprintln!(
                "fleet: FAIL — gossip WAN reduction {lower:.0}% below the {TEN_K_WAN_REDUCTION_PCT:.0}% gate"
            );
            failed = true;
        }
    }
    for (label, _, wall) in &results {
        println!("{label}: {wall:.1}s wall (budget {TEN_K_WALL_BUDGET_SECS:.0}s)");
        if *wall > TEN_K_WALL_BUDGET_SECS {
            eprintln!(
                "fleet: FAIL — {label} exceeded the {TEN_K_WALL_BUDGET_SECS:.0}s wall budget"
            );
            failed = true;
        }
    }

    if let Some(path) = &cli.json_path {
        write_report(Path::new(path), "fleet10k", report)?;
    }
    if failed {
        std::process::exit(1);
    }
    Ok(())
}

fn main() -> std::io::Result<()> {
    let mut cli = parse_cli();
    if cli.ten_k {
        // The ten-k report gets its own file unless --json overrode the
        // default, so the 512-clone report CI byte-compares is untouched.
        if cli.json_path.as_deref() == Some("reports/fleet.json") {
            cli.json_path = Some("reports/fleet10k.json".to_string());
        }
        return run_ten_k(&cli);
    }

    let mut base = if cli.smoke {
        FleetParams::smoke()
    } else {
        FleetParams::default()
    };
    if let Some(seed) = cli.seed {
        base.seed = seed;
    }
    if let Some(rate) = cli.rate {
        base.rate_per_sec = rate;
    }
    if let Some(clones) = cli.clones {
        base.clones = clones;
    }
    base.trace = cli.trace;

    // Arrival modes × batching, plus the dedup ablation (with dedup off
    // the client proxies never speak the channel's digest protocol, so
    // there is nothing for the shard tier to batch — FleetTuning::off()
    // is the only meaningful pairing). The batching lanes run with CoW
    // off: they measure the *cold* fleet, and the ≥30% p99 bar below is
    // only meaningful on cold WAN traffic. The `-cow` lanes are the
    // warm-site scenario — golden content prestaged per site, clones
    // installing as reference files — compared against their cow-off
    // twins on the same arrival schedule.
    let matrix: Vec<(&str, ArrivalMode, FleetTuning, DedupTuning, CowTuning)> = vec![
        (
            "fleet-poisson-batch",
            ArrivalMode::Poisson,
            FleetTuning::shard(),
            base.dedup,
            CowTuning::off(),
        ),
        (
            "fleet-poisson-nobatch",
            ArrivalMode::Poisson,
            FleetTuning::off(),
            base.dedup,
            CowTuning::off(),
        ),
        (
            "fleet-bursty-batch",
            ArrivalMode::Bursty,
            FleetTuning::shard(),
            base.dedup,
            CowTuning::off(),
        ),
        (
            "fleet-bursty-nobatch",
            ArrivalMode::Bursty,
            FleetTuning::off(),
            base.dedup,
            CowTuning::off(),
        ),
        (
            "fleet-poisson-nodedup",
            ArrivalMode::Poisson,
            FleetTuning::off(),
            DedupTuning::off(),
            CowTuning::off(),
        ),
        (
            "fleet-poisson-cow",
            ArrivalMode::Poisson,
            FleetTuning::shard(),
            base.dedup,
            CowTuning::on(),
        ),
        (
            "fleet-bursty-cow",
            ArrivalMode::Bursty,
            FleetTuning::shard(),
            base.dedup,
            CowTuning::on(),
        ),
    ];

    let mut rows = Vec::new();
    let mut report = Vec::new();
    let mut results: Vec<(&str, FleetResult)> = Vec::new();
    for (label, arrival, fleet, dedup, cow) in matrix {
        eprintln!(
            "fleet: {label} ({} clones, {} sites, seed {:#x})...",
            base.clones, base.sites, base.seed
        );
        let params = FleetParams {
            arrival,
            fleet,
            dedup,
            cow,
            ..base
        };
        let r = run_fleet(&params);
        rows.push(vec![
            label.to_string(),
            format!("{}", r.latency.count),
            format!("{:.2}", r.latency.p50_secs),
            format!("{:.2}", r.latency.p95_secs),
            format!("{:.2}", r.latency.p99_secs),
            format!("{:.2}", r.latency.max_secs),
            format!("{:.1}%", r.wan_down_utilization * 100.0),
            format!("{}", r.shard_queue_high_water.iter().max().unwrap_or(&0)),
            format!("{}", r.batches),
        ]);
        report.push(r.report(label));
        results.push((label, r));
    }

    println!(
        "\nFleet cloning latency ({} clones, {} sites, {} hosts/site, rate {}/s):\n",
        base.clones, base.sites, base.hosts_per_site, base.rate_per_sec
    );
    print!(
        "{}",
        render_table(
            &[
                "scenario", "clones", "p50 s", "p95 s", "p99 s", "max s", "wan dn", "shard q",
                "batches"
            ],
            &rows
        )
    );

    let p99 = |label: &str| {
        results
            .iter()
            .find(|(l, _)| *l == label)
            .map(|(_, r)| r.latency.p99_secs)
    };
    let mut ablation_failed = false;
    for (on, off, mode) in [
        ("fleet-poisson-batch", "fleet-poisson-nobatch", "poisson"),
        ("fleet-bursty-batch", "fleet-bursty-nobatch", "bursty"),
    ] {
        if let (Some(b), Some(n)) = (p99(on), p99(off)) {
            if n > 0.0 {
                let lower = (1.0 - b / n) * 100.0;
                println!(
                    "\n{mode}: p99 with batching {b:.2}s vs {n:.2}s without ({lower:.0}% lower)"
                );
                // The scenario's contract: envelope coalescing must buy
                // at least 30% of the p99 tail on the same arrival
                // schedule, or the batching path has regressed.
                if lower < 30.0 {
                    eprintln!(
                        "fleet: FAIL — {mode} batching ablation below the 30% p99 bar ({lower:.0}%)"
                    );
                    ablation_failed = true;
                }
            }
        }
    }

    // CoW contract: a warm site cloning through reference files must
    // beat the same arrival schedule's cold batched run at the tail.
    for (cow, cold, mode) in [
        ("fleet-poisson-cow", "fleet-poisson-batch", "poisson"),
        ("fleet-bursty-cow", "fleet-bursty-batch", "bursty"),
    ] {
        if let (Some(c), Some(b)) = (p99(cow), p99(cold)) {
            if b > 0.0 {
                let lower = (1.0 - c / b) * 100.0;
                println!(
                    "{mode}: p99 warm-site CoW {c:.2}s vs cold batched {b:.2}s ({lower:.0}% lower)"
                );
                if c >= b {
                    eprintln!(
                        "fleet: FAIL — {mode} warm-site CoW p99 does not beat the cold batched run"
                    );
                    ablation_failed = true;
                }
            }
        }
    }

    if let Some(path) = &cli.json_path {
        write_report(Path::new(path), "fleet", report)?;
    }
    if ablation_failed {
        std::process::exit(1);
    }
    Ok(())
}
