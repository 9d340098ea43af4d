//! The one JSON reader and the one JSON writer agree on every committed
//! artifact: each report a `gvfs-bench` scenario writes, and both frozen
//! wall-clock trajectories, parse with `perfjson::JsonReader` and print
//! back through `simnet::JsonValue` byte for byte. This keeps the frozen
//! `BENCH_*.json` files readable and makes a parsed report a faithful
//! stand-in for the file it came from.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::Path;

use gvfs_bench::perfjson::JsonReader;
use gvfs_bench::suite::SCENARIOS;

#[test]
fn committed_artifacts_round_trip_through_reader_and_writer() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let reports = SCENARIOS.iter().map(|s| format!("reports/{}.json", s.name));
    let trajectories = ["BENCH_perf.json", "BENCH_fleet.json"].map(String::from);
    for rel in reports.chain(trajectories) {
        let text = std::fs::read_to_string(root.join(&rel))
            .unwrap_or_else(|e| panic!("{rel}: cannot read: {e}"));
        let doc = JsonReader::parse(&text).unwrap_or_else(|e| panic!("{rel}: {e}"));
        let printed = format!("{doc}\n");
        if printed != text {
            let at = printed
                .bytes()
                .zip(text.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(printed.len().min(text.len()));
            panic!(
                "{rel}: reprinted bytes differ from the file at offset {at} \
                 ({} bytes reprinted, {} in the file)",
                printed.len(),
                text.len()
            );
        }
    }
}
