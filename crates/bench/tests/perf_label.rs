//! The perf harness refuses a trajectory label before it measures
//! anything: `append_trajectory` rejects an entry labelled `dev`, empty
//! or already present, so a bad label must cost no scenario run — and
//! exit 2, a usage error, rather than 1, a measurement failure.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_file(&path);
    path
}

#[test]
fn perf_without_a_label_exits_2_before_running_any_scenario() {
    let json = scratch("perf-label-missing.json");
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--smoke", "--json"])
        .arg(&json)
        .output()
        .expect("perf runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        out.status.code(),
        Some(2),
        "stdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stderr.contains("unlabeled (\"dev\")"), "{stderr}");
    assert!(!stderr.contains("perf: mode="), "a scenario ran:\n{stderr}");
    assert!(!stdout.contains("Wall-clock throughput"), "{stdout}");
    assert!(!json.exists(), "perf wrote {}", json.display());
}

#[test]
fn perf_rejects_a_label_already_in_the_trajectory() {
    let json = scratch("perf-label-taken.json");
    std::fs::write(
        &json,
        r#"{"schema": "gvfs.perf.v1", "trajectory": [{"label": "taken"}]}"#,
    )
    .unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_perf"))
        .args(["--smoke", "--label", "taken", "--json"])
        .arg(&json)
        .output()
        .expect("perf runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{stderr}");
    assert!(stderr.contains("duplicate label \"taken\""), "{stderr}");
    assert!(!stderr.contains("perf: mode="), "a scenario ran:\n{stderr}");
}
