//! Table 1 — total time of cloning eight VM images sequentially (WAN-S1
//! row of the table) versus in parallel across eight compute servers
//! (WAN-P), with cold and warm caches.
//!
//! Paper: sequential 1056 s cold / 200 s warm; parallel 150.3 s cold /
//! 32 s warm — speedups >7× cold and >6× warm. The parallel cold case is
//! *not* 8× because the eight compressed memory-state streams share the
//! image server's WAN connection (fluid bandwidth sharing), while warm
//! clonings are limited by per-clone constant work.

use gvfs::{CowTuning, DedupTuning};
use gvfs_bench::report::{render_table, scenario_report, write_report, BenchCli};
use gvfs_bench::{run_parallel_cloning, run_sequential_for_table1, CloneParams};

fn main() -> std::io::Result<()> {
    let cli = BenchCli::parse("table1_parallel");
    let params = CloneParams {
        trace: cli.trace,
        dedup: if cli.no_dedup {
            DedupTuning::off()
        } else {
            DedupTuning::default()
        },
        // The table's claim is about *materialized* install parallelism
        // (the paper predates CoW): reference cloning folds the warm
        // sequential column toward the compute floor and inverts the
        // cold speedup, so the CoW story lives in fig6/fleet/cow_ablation
        // instead.
        cow: CowTuning::off(),
        ..CloneParams::default()
    };
    println!(
        "Table 1: total time of cloning {} VM images (seconds)\n",
        params.clones
    );
    let seq = run_sequential_for_table1(&params);
    let par = run_parallel_cloning(&params);
    if let Some(path) = &cli.json_path {
        write_report(
            path,
            "table1_parallel",
            vec![
                scenario_report("sequential (WAN-S1)", seq.total_virtual_secs, &seq.snapshot),
                scenario_report("parallel (WAN-P)", par.total_virtual_secs, &par.snapshot),
            ],
        )?;
    }

    println!(
        "{}",
        render_table(
            &["", "cold caches", "warm caches"],
            &[
                vec![
                    "sequential (WAN-S1)".into(),
                    format!("{:.1}", seq.cold_secs),
                    format!("{:.1}", seq.warm_secs),
                ],
                vec![
                    "parallel (WAN-P)".into(),
                    format!("{:.1}", par.cold_secs),
                    format!("{:.1}", par.warm_secs),
                ],
            ],
        )
    );

    println!("Shape vs paper:");
    println!(
        "  cold speedup   paper 1056/150.3 = 7.0x   measured {:.1}x",
        seq.cold_secs / par.cold_secs
    );
    println!(
        "  warm speedup   paper 200/32    = 6.3x   measured {:.1}x",
        seq.warm_secs / par.warm_secs
    );
    Ok(())
}
