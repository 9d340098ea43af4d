//! Failure-domain scenario — the LaTeX benchmark (Figure 4's WAN+C
//! configuration) under injected WAN faults: sustained packet loss, a
//! 10-second WAN outage landing inside the write-back flush, and a
//! server restart mid-flush that discards unstable writes and rotates
//! the write verifier.
//!
//! Three runs:
//!
//! 1. **baseline** — fault-free, records the reference timings and the
//!    server's final filesystem digest;
//! 2. **probe** — packet loss only, locates where the write-back flush
//!    starts on the faulted timeline (deterministic seeds make this
//!    instant identical in the final run);
//! 3. **faulted** — same loss plus the mid-flush outage and server
//!    restart.
//!
//! The acceptance check is byte-exactness: the faulted run's server
//! filesystem digest must equal the baseline's — every acknowledged
//! byte survived the loss, the outage, and the restart. Recovery
//! counters (retransmits, duplicate-request-cache hits, verifier
//! mismatches, write-back requeues) go into the JSON report.

use gvfs_bench::report::{render_table, scenario_report, write_report, BenchCli};
use gvfs_bench::{run_app_scenario, AppParams, AppScenario, FaultSpec};
use simnet::{JsonValue, Snapshot};
use workloads::latex::{generate, LatexParams};

/// ≥1% loss each way, as the failure-domain spec demands.
const DROP_PROB: f64 = 0.015;
const SEED: u64 = 0x6762_7673;
const OUTAGE_SECS: f64 = 10.0;

fn recovery_counters(snap: &Snapshot) -> Vec<(&'static str, u64)> {
    vec![
        ("rpc_retransmits", snap.counter_sum("rpc", ".retransmits")),
        ("rpc_timeouts", snap.counter_sum("rpc", ".timeouts")),
        (
            "rpc_stale_replies",
            snap.counter_sum("rpc", ".stale_replies"),
        ),
        ("link_dropped", snap.counter_sum("link", ".dropped")),
        ("link_severed", snap.counter_sum("link", ".severed")),
        ("drc_hits", snap.counter_sum("nfs3", ".drc.hits")),
        (
            "verf_mismatches",
            snap.counter_sum("gvfs", ".verf_mismatches"),
        ),
        ("wb_queued", snap.counter_sum("gvfs", ".wb_queued")),
        ("wb_drained", snap.counter_sum("gvfs", ".wb_drained")),
        (
            "flush_retry_rounds",
            snap.counter_sum("gvfs", ".flush_retry_rounds"),
        ),
    ]
}

fn main() -> std::io::Result<()> {
    let cli = BenchCli::parse("fault_recovery");
    let wl = generate(&LatexParams::default());
    println!("Failure domain: LaTeX WAN+C under loss, outage, and server restart\n");

    // 1. Fault-free reference run.
    let base_params = AppParams {
        trace: cli.trace,
        ..AppParams::default()
    };
    let base = run_app_scenario(AppScenario::WanC, &wl, &base_params, 1);
    let base_digest = base
        .server_fs_digest
        .expect("network scenario has a digest");
    let base_flush = base.flush_secs.unwrap_or(0.0);

    // 2. Probe run, loss only: locate the flush start on the faulted
    // timeline. The final run shares seeds and schedule, so its timeline
    // is identical up to the first outage/restart divergence — meaning
    // its flush starts at this same virtual instant.
    let probe_params = AppParams {
        trace: false,
        fault: Some(FaultSpec {
            seed: SEED,
            drop_prob: DROP_PROB,
            outage_start_secs: 0.0,
            outage_secs: 0.0,
            restart_at_secs: None,
        }),
        ..AppParams::default()
    };
    let probe = run_app_scenario(AppScenario::WanC, &wl, &probe_params, 1);
    let probe_flush = probe.flush_secs.unwrap_or(0.0);
    let flush_start = probe.total_virtual_secs - probe_flush;
    assert_eq!(
        probe.server_fs_digest,
        Some(base_digest),
        "packet loss alone must not change the server's bytes"
    );

    // 3. Full fault schedule. Both faults land well inside the flush's
    // WRITE stream: a restart a quarter of the way in (so blocks already
    // written UNSTABLE are discarded and the later COMMIT returns a
    // rotated verifier — forcing a resend), and a WAN outage at the
    // halfway mark.
    let fault = FaultSpec {
        seed: SEED,
        drop_prob: DROP_PROB,
        outage_start_secs: flush_start + 0.5 * probe_flush,
        outage_secs: OUTAGE_SECS,
        restart_at_secs: Some(flush_start + 0.25 * probe_flush),
    };
    let fault_params = AppParams {
        trace: false,
        fault: Some(fault),
        ..AppParams::default()
    };
    let faulted = run_app_scenario(AppScenario::WanC, &wl, &fault_params, 1);
    let fault_flush = faulted.flush_secs.unwrap_or(0.0);
    let digest_match = faulted.server_fs_digest == Some(base_digest);

    let counters = recovery_counters(&faulted.snapshot);
    let get = |name: &str| {
        counters
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    };

    let mut rows = vec![
        vec![
            "total (s)".to_string(),
            format!("{:.1}", base.total_virtual_secs),
            format!("{:.1}", faulted.total_virtual_secs),
        ],
        vec![
            "write-back flush (s)".to_string(),
            format!("{base_flush:.1}"),
            format!("{fault_flush:.1}"),
        ],
    ];
    for (name, value) in &counters {
        rows.push(vec![name.to_string(), "0".to_string(), value.to_string()]);
    }
    println!(
        "{}",
        render_table(&["Metric", "Baseline", "Faulted"], &rows)
    );
    println!(
        "Fault schedule: {:.1}% loss each way, {OUTAGE_SECS:.0}s outage at t={:.1}s, \
         server restart at t={:.1}s (flush starts at t={flush_start:.1}s)",
        DROP_PROB * 100.0,
        fault.outage_start_secs,
        fault.restart_at_secs.unwrap_or(0.0),
    );
    println!(
        "Flush recovery overhead: {:+.1}s ({:.1}s → {:.1}s)",
        fault_flush - base_flush,
        base_flush,
        fault_flush
    );
    println!(
        "Server state after recovery: {}",
        if digest_match {
            "byte-identical to the fault-free run"
        } else {
            "DIVERGED — bytes were lost"
        }
    );

    if let Some(path) = &cli.json_path {
        let recovery = JsonValue::object([
            ("scenario", JsonValue::Str("recovery".to_string())),
            ("digest_match", JsonValue::Bool(digest_match)),
            (
                "baseline_total_secs",
                JsonValue::Float(base.total_virtual_secs),
            ),
            (
                "faulted_total_secs",
                JsonValue::Float(faulted.total_virtual_secs),
            ),
            ("baseline_flush_secs", JsonValue::Float(base_flush)),
            ("faulted_flush_secs", JsonValue::Float(fault_flush)),
            ("flush_start_secs", JsonValue::Float(flush_start)),
            ("drop_prob", JsonValue::Float(DROP_PROB)),
            ("outage_secs", JsonValue::Float(OUTAGE_SECS)),
            (
                "counters",
                JsonValue::Object(
                    counters
                        .iter()
                        .map(|(n, v)| (n.to_string(), JsonValue::Uint(*v)))
                        .collect(),
                ),
            ),
        ]);
        write_report(
            path,
            "fault_recovery",
            vec![
                scenario_report("WAN+C baseline", base.total_virtual_secs, &base.snapshot),
                scenario_report(
                    "WAN+C faulted",
                    faulted.total_virtual_secs,
                    &faulted.snapshot,
                ),
                recovery,
            ],
        )?;
    }

    // Hard acceptance checks (the CI fault job runs this binary).
    assert!(digest_match, "faulted run lost or corrupted server bytes");
    assert!(
        get("rpc_retransmits") > 0 && get("link_dropped") > 0,
        "fault injection was not actually exercised"
    );
    println!("\nOK: zero lost bytes under loss + outage + restart");
    Ok(())
}
