//! Figure 3 — SPECseis benchmark execution times (minutes:seconds) for
//! each execution phase, under Local / LAN / WAN / WAN+C.
//!
//! Paper's shape to match: phase 4 within ~10% across scenarios; phase 1
//! WAN ≈ 2.1× WAN+C; WAN+C total ≈ 33% below WAN.

use gvfs_bench::report::{mmss, render_table, scenario_report, write_report, BenchCli};
use gvfs_bench::{run_app_scenario, AppParams, AppScenario};
use workloads::specseis::{generate, SpecseisParams};

fn main() -> std::io::Result<()> {
    let cli = BenchCli::parse("fig3_specseis");
    let params = AppParams {
        trace: cli.trace,
        ..AppParams::default()
    };
    let wl = generate(&SpecseisParams::default());
    println!("Figure 3: SPECseis96 execution times (m:ss per phase)\n");

    let mut rows = Vec::new();
    let mut per_scn = Vec::new();
    let mut scenarios = Vec::new();
    for scn in AppScenario::all() {
        let res = run_app_scenario(scn, &wl, &params, 1);
        scenarios.push(scenario_report(
            scn.label(),
            res.total_virtual_secs,
            &res.snapshot,
        ));
        let run = &res.runs[0];
        let mut row = vec![scn.label().to_string()];
        for (_, secs) in &run.phases {
            row.push(mmss(*secs));
        }
        row.push(mmss(run.total));
        rows.push(row);
        per_scn.push((scn, run.clone()));
    }
    if let Some(path) = &cli.json_path {
        write_report(path, "fig3_specseis", scenarios)?;
    }
    println!(
        "{}",
        render_table(
            &["Scenario", "Phase 1", "Phase 2", "Phase 3", "Phase 4", "Total"],
            &rows
        )
    );

    // Shape checks against the paper.
    let get = |s: AppScenario| per_scn.iter().find(|(k, _)| *k == s).unwrap().1.clone();
    let wan = get(AppScenario::Wan);
    let wanc = get(AppScenario::WanC);
    let local = get(AppScenario::Local);
    let p1_ratio = wan.phases[0].1 / wanc.phases[0].1;
    let total_saving = 1.0 - wanc.total / wan.total;
    let p4_spread = {
        let p4: Vec<f64> = per_scn.iter().map(|(_, r)| r.phases[3].1).collect();
        let max = p4.iter().cloned().fold(f64::MIN, f64::max);
        let min = p4.iter().cloned().fold(f64::MAX, f64::min);
        (max - min) / min
    };
    println!("Shape vs paper:");
    println!("  phase 1 WAN / WAN+C            paper ≈ 2.1x    measured {p1_ratio:.2}x");
    println!(
        "  WAN+C total saving vs WAN      paper ≈ 33%     measured {:.0}%",
        total_saving * 100.0
    );
    println!(
        "  phase 4 spread across scenarios paper <10%      measured {:.1}%",
        p4_spread * 100.0
    );
    println!(
        "  WAN+C total vs Local            (overhead)      {:.1}%",
        (wanc.total / local.total - 1.0) * 100.0
    );
    Ok(())
}
