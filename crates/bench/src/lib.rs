//! # gvfs-bench — the paper's evaluation, regenerated
//!
//! One binary, `gvfs-bench <scenario>|all`, with one scenario per
//! committed report ([`suite::SCENARIOS`]):
//!
//! | scenario | reproduces |
//! |---|---|
//! | `fig3_specseis` | Figure 3 — SPECseis phase times, 4 scenarios |
//! | `fig4_latex` | Figure 4 — LaTeX first iteration / mean / total |
//! | `fig5_kernel` | Figure 5 — kernel compilation, 2 consecutive runs |
//! | `fig6_cloning` | Figure 6 — 8 sequential clonings, 4 scenarios + baselines |
//! | `table1_parallel` | Table 1 — sequential vs parallel cloning, cold/warm |
//! | `ablations` | extra: write policy / zero map / channel; the §3.2.2 in-text claim |
//! | `dedup_ablation` | extra: dedup on/off probes, off lane held to its baseline |
//! | `cow_ablation` | extra: CoW on/off probes, off lane held to its baseline |
//! | `fault_recovery` | extra: LaTeX under WAN loss/outage/server restart |
//! | `fleet` | extra: fleet-scale cloning — sharded proxy tree, batching, p50/p95/p99 |
//! | `fleet10k` | extra: 10,240 clones, digest gossip off and on |
//!
//! Every paper shape and every contract a scenario holds is a
//! [`report::Check`] row; the binary exits 1 naming each failed row.
//!
//! The library half holds the scenarios ([`scenarios`], [`cloning`],
//! [`fleet`]: parameters, topology and drivers — the server machine and
//! every proxy tier are started by `gvfs::session`), the scenario table
//! and its command line ([`suite`]), the on/off ablations ([`ablation`])
//! and report formatting and checks ([`report`]); [`perfjson`] holds what the
//! repository benchmark (`benchmark/`, the one wall-clock harness)
//! imports from here.

#![warn(missing_docs)]

pub mod ablation;
pub mod cloning;
pub mod fleet;
pub mod perfjson;
pub mod report;
pub mod scenarios;
pub mod suite;

pub use cloning::{
    pure_nfs_clone_secs, run_cloning, run_parallel_cloning, run_sequential_for_table1,
    scp_baseline_secs, CloneParams, CloneResult, CloneScenario, ParallelResult,
};
pub use fleet::{run_fleet, ArrivalMode, FleetParams, FleetResult, LatencySummary};
pub use scenarios::{
    fs_digest, run_app_scenario, AppParams, AppResult, AppRun, AppScenario, FaultSpec, NetParams,
};
