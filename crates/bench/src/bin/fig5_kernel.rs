//! Figure 5 — kernel compilation execution times (hours:minutes), four
//! make steps, two consecutive runs (run 1 cold caches, run 2 warm).
//!
//! Paper's shape: run 1 WAN+C ≈ +84% vs Local; run 2 WAN+C ≈ +9% vs
//! Local, <4% slower than LAN, >30% faster than WAN.

use gvfs_bench::report::{hmm, render_table, scenario_report, write_report, BenchCli};
use gvfs_bench::{run_app_scenario, AppParams, AppScenario};
use workloads::kernel::{generate, KernelParams};

fn main() -> std::io::Result<()> {
    let cli = BenchCli::parse("fig5_kernel");
    let params = AppParams {
        trace: cli.trace,
        ..AppParams::default()
    };
    let wl = generate(&KernelParams::default());
    println!("Figure 5: kernel compilation times (h:mm per step), two consecutive runs\n");

    let mut results = Vec::new();
    for scn in AppScenario::all() {
        let res = run_app_scenario(scn, &wl, &params, 2);
        results.push((scn, res));
    }
    if let Some(path) = &cli.json_path {
        let scenarios = results
            .iter()
            .map(|(scn, res)| scenario_report(scn.label(), res.total_virtual_secs, &res.snapshot))
            .collect();
        write_report(path, "fig5_kernel", scenarios)?;
    }

    for run_idx in 0..2 {
        println!(
            "{} run:",
            if run_idx == 0 {
                "First (cold)"
            } else {
                "Second (warm)"
            }
        );
        let mut rows = Vec::new();
        for (scn, res) in &results {
            let run = &res.runs[run_idx];
            let mut row = vec![scn.label().to_string()];
            for (_, secs) in &run.phases {
                row.push(hmm(*secs));
            }
            row.push(hmm(run.total));
            rows.push(row);
        }
        println!(
            "{}",
            render_table(
                &[
                    "Scenario",
                    "make dep",
                    "make bzImage",
                    "make modules",
                    "modules_install",
                    "Total"
                ],
                &rows
            )
        );
    }

    let total = |s: AppScenario, run: usize| -> f64 {
        results
            .iter()
            .find(|(k, _)| *k == s)
            .map(|(_, r)| r.runs[run].total)
            .unwrap()
    };
    let r1 = (total(AppScenario::WanC, 0) / total(AppScenario::Local, 0) - 1.0) * 100.0;
    let r2_local = (total(AppScenario::WanC, 1) / total(AppScenario::Local, 1) - 1.0) * 100.0;
    let r2_lan = (total(AppScenario::WanC, 1) / total(AppScenario::Lan, 1) - 1.0) * 100.0;
    let r2_wan = (1.0 - total(AppScenario::WanC, 1) / total(AppScenario::Wan, 1)) * 100.0;
    println!("Shape vs paper:");
    println!("  run 1: WAN+C vs Local   paper +84%   measured {r1:+.0}%");
    println!("  run 2: WAN+C vs Local   paper +9%    measured {r2_local:+.0}%");
    println!("  run 2: WAN+C vs LAN     paper <+4%   measured {r2_lan:+.1}%");
    println!("  run 2: WAN+C vs WAN     paper >30% faster   measured {r2_wan:.0}% faster");
    Ok(())
}
