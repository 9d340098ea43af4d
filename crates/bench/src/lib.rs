//! # gvfs-bench — the paper's evaluation, regenerated
//!
//! One binary per table/figure of "Distributed File System Support for
//! Virtual Machines in Grid Computing" (HPDC 2004):
//!
//! | target | reproduces |
//! |---|---|
//! | `fig3_specseis` | Figure 3 — SPECseis phase times, 4 scenarios |
//! | `fig4_latex` | Figure 4 — LaTeX first iteration / mean / total |
//! | `fig5_kernel` | Figure 5 — kernel compilation, 2 consecutive runs |
//! | `fig6_cloning` | Figure 6 — 8 sequential clonings, 4 scenarios + baselines |
//! | `table1_parallel` | Table 1 — sequential vs parallel cloning, cold/warm |
//! | `ablations` | extra: write policy / zero map / channel / associativity |
//! | `fault_recovery` | extra: LaTeX under WAN loss/outage/server restart |
//! | `fleet` | extra: fleet-scale cloning — sharded proxy tree, batching, p50/p95/p99 |
//!
//! The library half holds the scenarios ([`scenarios`], [`cloning`],
//! [`fleet`]: parameters, topology and drivers — the server machine and
//! every proxy tier are started by `gvfs::session`), the on/off ablation driver ([`ablation`])
//! and report formatting ([`report`]); [`perfjson`] holds what the
//! repository benchmark (`benchmark/`, the one wall-clock harness)
//! imports from here.

#![warn(missing_docs)]

pub mod ablation;
pub mod cloning;
pub mod fleet;
pub mod perfjson;
pub mod report;
pub mod scenarios;

pub use cloning::{
    pure_nfs_clone_secs, run_cloning, run_parallel_cloning, run_sequential_for_table1,
    scp_baseline_secs, CloneParams, CloneResult, CloneScenario, ParallelResult,
};
pub use fleet::{run_fleet, ArrivalMode, FleetParams, FleetResult, LatencySummary};
pub use scenarios::{
    fs_digest, run_app_scenario, AppParams, AppResult, AppRun, AppScenario, FaultSpec, NetParams,
};
