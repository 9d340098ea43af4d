//! Fleet-report determinism: a fleet run is a pure function of its
//! seeds. Two runs with the same arrival seed must render byte-identical
//! report bodies, a distinct seed must actually change the report, and
//! the bytes must survive an adversarial scheduler
//! (`SchedPolicy::chaos`) — the schedule-independence oracle of
//! DESIGN.md §5.7 applied to the fleet scenario. CI enforces the same
//! property end-to-end on `reports/fleet.json` via the `fleet` binary.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gvfs_bench::fleet::{run_fleet, ArrivalMode, FleetParams};

/// The report body the `fleet` binary writes for this run
/// ([`gvfs_bench::FleetResult::report`]).
fn report_bytes(params: &FleetParams) -> String {
    let r = run_fleet(params);
    r.report(&r.scenario).to_string()
}

/// One test fn, strictly sequential: the chaos policy is process-wide,
/// so the baseline comparisons must complete before it is installed.
#[test]
fn fleet_report_is_seed_and_schedule_deterministic() {
    let params = FleetParams::smoke();
    let base = report_bytes(&params);
    let again = report_bytes(&params);
    assert_eq!(base, again, "same seed must render byte-identical reports");

    let mut reseeded = params;
    reseeded.seed ^= 0xDEAD_BEEF;
    assert_ne!(
        base,
        report_bytes(&reseeded),
        "a distinct arrival seed must change the report"
    );

    let mut bursty = params;
    bursty.arrival = ArrivalMode::Bursty;
    let bursty_base = report_bytes(&bursty);
    assert_ne!(base, bursty_base, "arrival mode must change the report");

    // Adversarial schedule: same seeds, different interleavings — the
    // report bytes must not move.
    simnet::set_default_sched_policy(simnet::SchedPolicy::chaos(0xC0FF_EE00));
    assert_eq!(
        base,
        report_bytes(&params),
        "report bytes must survive schedule chaos"
    );
    assert_eq!(
        bursty_base,
        report_bytes(&bursty),
        "bursty report bytes must survive schedule chaos"
    );
}
