//! Figure 4 — LaTeX benchmark execution times (seconds): first
//! iteration, mean of iterations 2–20, and total, under
//! Local / LAN / WAN / WAN+C; plus the full-download/upload and
//! write-back flush reference numbers quoted in §4.2.2.

use gvfs_bench::report::{render_table, scenario_report, write_report, BenchCli};
use gvfs_bench::{run_app_scenario, AppParams, AppScenario};
use simnet::SimDuration;
use workloads::latex::{generate, LatexParams};
use workloads::scp::ScpModel;

fn main() -> std::io::Result<()> {
    let cli = BenchCli::parse("fig4_latex");
    let params = AppParams {
        trace: cli.trace,
        ..AppParams::default()
    };
    let wl = generate(&LatexParams::default());
    println!("Figure 4: LaTeX benchmark execution times (seconds)\n");

    let mut rows = Vec::new();
    let mut flush = None;
    let mut keyed = Vec::new();
    let mut scenarios = Vec::new();
    for scn in AppScenario::all() {
        let res = run_app_scenario(scn, &wl, &params, 1);
        scenarios.push(scenario_report(
            scn.label(),
            res.total_virtual_secs,
            &res.snapshot,
        ));
        let run = &res.runs[0];
        let first = run.phases[0].1;
        let rest: Vec<f64> = run.phases[1..].iter().map(|(_, s)| *s).collect();
        let mean = rest.iter().sum::<f64>() / rest.len() as f64;
        rows.push(vec![
            scn.label().to_string(),
            format!("{first:.2}"),
            format!("{mean:.2}"),
            format!("{:.1}", run.total),
        ]);
        keyed.push((scn, first, mean, run.total));
        if scn == AppScenario::WanC {
            flush = res.flush_secs;
        }
    }
    if let Some(path) = &cli.json_path {
        write_report(path, "fig4_latex", scenarios)?;
    }
    println!(
        "{}",
        render_table(
            &["Scenario", "First iteration", "Mean of 2-20", "Total"],
            &rows
        )
    );

    let get = |s: AppScenario| *keyed.iter().find(|(k, ..)| *k == s).unwrap();
    let (_, first_local, mean_local, _) = get(AppScenario::Local);
    let (_, first_wan, mean_wan, _) = get(AppScenario::Wan);
    let (_, first_wanc, mean_wanc, _) = get(AppScenario::WanC);
    let (_, _, mean_lan, _) = get(AppScenario::Lan);

    println!("Shape vs paper:");
    println!("  first iteration Local ≈12s       measured {first_local:.1}s");
    println!("  first iteration WAN ≈225.7s      measured {first_wan:.1}s");
    println!("  first iteration WAN+C ≈217.3s    measured {first_wanc:.1}s");
    println!("  mean 2-20: Local 11.51 / LAN 12.54 / WAN 19.53 / WAN+C 13.37");
    println!(
        "             measured {mean_local:.2} / {mean_lan:.2} / {mean_wan:.2} / {mean_wanc:.2}"
    );
    println!(
        "  WAN+C mean vs Local  paper +8%    measured {:+.0}%",
        (mean_wanc / mean_local - 1.0) * 100.0
    );
    println!(
        "  WAN+C mean vs WAN    paper -35%   measured {:+.0}%",
        (mean_wanc / mean_wan - 1.0) * 100.0
    );
    if let Some(f) = flush {
        println!("  write-back flush     paper ≈160s  measured {f:.0}s");
    }

    // Reference numbers: downloading/uploading the whole VM state.
    let sim = simnet::Simulation::new();
    let h = sim.handle();
    let net = params.net;
    let down = simnet::Link::from_mbps(&h, "down", net.wan_down_mbps, net.wan_oneway);
    let up = simnet::Link::from_mbps(&h, "up", net.wan_up_mbps, net.wan_oneway);
    let state_bytes: u64 = (512 << 20) + (2_048 << 20);
    let scp = ScpModel::default();
    let dl: SimDuration = scp.idle_copy_time(&down, state_bytes);
    let ul: SimDuration = scp.idle_copy_time(&up, state_bytes);
    println!(
        "  full-state download  paper 2818s  estimated {:.0}s",
        dl.as_secs_f64()
    );
    println!(
        "  full-state upload    paper 4633s  estimated {:.0}s",
        ul.as_secs_f64()
    );
    Ok(())
}
