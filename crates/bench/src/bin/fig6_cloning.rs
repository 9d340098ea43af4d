//! Figure 6 — VM cloning times (seconds) for a sequence of eight images
//! (320 MB memory / 1.6 GB virtual disk) under Local, WAN-S1, WAN-S2,
//! WAN-S3; with the SCP full-copy and pure-NFS baselines quoted in the
//! caption.
//!
//! Paper's shape: SCP ≈ 1127 s; pure NFS ≈ 2060 s; first enhanced-GVFS
//! clone < 160 s; subsequent clones ≈ 25 s warm-local / ≈ 80 s warm-LAN.

use gvfs::{CowTuning, DedupTuning};
use gvfs_bench::report::{render_table, scenario_report, write_report, BenchCli};
use gvfs_bench::{pure_nfs_clone_secs, run_cloning, scp_baseline_secs, CloneParams, CloneScenario};

fn main() -> std::io::Result<()> {
    let cli = BenchCli::parse("fig6_cloning");
    let params = CloneParams {
        trace: cli.trace,
        dedup: if cli.no_dedup {
            DedupTuning::off()
        } else {
            DedupTuning::default()
        },
        cow: if cli.no_cow {
            CowTuning::off()
        } else {
            CowTuning::on()
        },
        ..CloneParams::default()
    };
    println!(
        "Figure 6: VM cloning times (seconds), {} sequential clonings\n",
        params.clones
    );

    let scp = scp_baseline_secs(&params);
    println!("Baseline: full image copy via SCP      paper 1127s   measured {scp:.0}s");
    let nfs = pure_nfs_clone_secs(&params);
    println!("Baseline: cloning over pure NFS        paper 2060s   measured {nfs:.0}s\n");

    let mut rows = Vec::new();
    let mut keyed = Vec::new();
    for scn in CloneScenario::all() {
        let res = run_cloning(scn, &params);
        let mut row = vec![res.scenario.clone()];
        for t in &res.times {
            row.push(format!("{:.1}", t.total.as_secs_f64()));
        }
        rows.push(row);
        keyed.push(res);
    }
    let mut header: Vec<String> = vec!["Scenario".to_string()];
    for i in 1..=params.clones {
        header.push(format!("#{i}"));
    }
    let header_refs: Vec<&str> = header.iter().map(String::as_str).collect();
    println!("{}", render_table(&header_refs, &rows));
    if let Some(path) = &cli.json_path {
        let scenarios = keyed
            .iter()
            .map(|res| scenario_report(&res.scenario, res.total_virtual_secs, &res.snapshot))
            .collect();
        write_report(path, "fig6_cloning", scenarios)?;
    }

    let s1 = keyed.iter().find(|r| r.scenario == "WAN-S1").unwrap();
    let s3 = keyed.iter().find(|r| r.scenario == "WAN-S3").unwrap();
    let first = s1.times[0].total.as_secs_f64();
    let warm: f64 = s1.times[1..]
        .iter()
        .map(|t| t.total.as_secs_f64())
        .sum::<f64>()
        / (s1.times.len() - 1) as f64;
    let lan_mean: f64 =
        s3.times.iter().map(|t| t.total.as_secs_f64()).sum::<f64>() / s3.times.len() as f64;
    println!("Shape vs paper:");
    println!("  first WAN-S1 clone     paper <160s   measured {first:.0}s");
    println!("  warm WAN-S1 clones     paper ≈25s    measured {warm:.0}s");
    println!("  LAN-cached clones (S3) paper ≈80s    measured {lan_mean:.0}s");
    println!("  speedup vs SCP (first clone):        {:.1}x", scp / first);
    println!("  speedup vs pure NFS (first clone):   {:.1}x", nfs / first);

    // Step breakdown of the first S1 clone, for the curious.
    let t = &s1.times[0];
    println!("\nFirst WAN-S1 clone step breakdown (s):");
    println!(
        "{}",
        render_table(
            &[
                "copy config",
                "copy memory",
                "links",
                "configure",
                "resume",
                "total"
            ],
            &[vec![
                format!("{:.2}", t.copy_config.as_secs_f64()),
                format!("{:.2}", t.copy_memory.as_secs_f64()),
                format!("{:.2}", t.links.as_secs_f64()),
                format!("{:.2}", t.configure.as_secs_f64()),
                format!("{:.2}", t.resume.as_secs_f64()),
                format!("{:.2}", t.total.as_secs_f64()),
            ]],
        )
    );
    Ok(())
}
