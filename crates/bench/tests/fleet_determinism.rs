//! Fleet-report determinism: a fleet run is a pure function of its
//! seeds. Two runs with the same arrival seed must render byte-identical
//! report bodies, and a distinct seed or arrival mode must actually change
//! the report. CI enforces the same property end-to-end on
//! `reports/fleet.json` via the `fleet` binary.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use gvfs_bench::fleet::{run_fleet, ArrivalMode, FleetParams};

/// The report body the `fleet` binary writes for this run
/// ([`gvfs_bench::FleetResult::report`]).
fn report_bytes(params: &FleetParams) -> String {
    let r = run_fleet(params);
    r.report(&r.scenario).to_string()
}

#[test]
fn fleet_report_is_seed_deterministic() {
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
    assert_ne!(
        base,
        report_bytes(&bursty),
        "arrival mode must change the report"
    );
}
