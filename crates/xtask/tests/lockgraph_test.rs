//! Fixture-based self-tests for the lock walker, run through `xtask
//! lint`: each bad fixture must trigger exactly its lock rule
//! (in-process and via the CLI exit code), each good fixture must pass
//! clean, the JSON report must carry the findings, and the real tree
//! must be clean of both lock rules against the committed baseline.
//! The same fixture bugs, run as simulations, panic in
//! `crates/simnet/tests/lock_checks.rs`.

mod common;

use common::{check_bad_fixtures, check_cli_exit, check_good_fixtures, run_lint, write_tree, Case};
use std::path::{Path, PathBuf};
use xtask::lint::lint_source;

/// The label the lock fixtures are linted under: it gives their lock
/// classes the `gvfs::fixture::` prefix.
const LOCK_LABEL: &str = "crates/gvfs/src/fixture.rs";

fn cases() -> Vec<Case> {
    vec![
        (
            // Let-bound guards held across a sleep and a `wait(env)`.
            "lock-guard-suspend",
            "crates/gvfs/src/channel.rs",
            include_str!("fixtures/lock-guard-suspend/bad.rs"),
            include_str!("fixtures/lock-guard-suspend/good.rs"),
        ),
        (
            // Guards no `let` names: a temporary and a match scrutinee.
            "lock-guard-suspend",
            LOCK_LABEL,
            include_str!("fixtures/lockgraph-guard-suspend/bad.rs"),
            include_str!("fixtures/lockgraph-guard-suspend/good.rs"),
        ),
        (
            "lock-double-acquire",
            LOCK_LABEL,
            include_str!("fixtures/lockgraph-double/bad.rs"),
            include_str!("fixtures/lockgraph-double/good.rs"),
        ),
        (
            // A stale lock-rule waiver; the good one waives a real
            // finding of the lock walker.
            "waiver",
            LOCK_LABEL,
            include_str!("fixtures/lockgraph-waived/bad.rs"),
            include_str!("fixtures/lockgraph-waived/good.rs"),
        ),
    ]
}

#[test]
fn bad_fixtures_trigger_exactly_their_rule() {
    check_bad_fixtures(&cases());
}

#[test]
fn good_fixtures_pass_clean() {
    check_good_fixtures(&cases());
}

/// The two hazards the let-bound fixture exists for, and nothing else.
#[test]
fn let_bound_guard_fixture_flags_both_suspends() {
    let src = include_str!("fixtures/lock-guard-suspend/bad.rs");
    let found: Vec<(&str, u32)> = lint_source("crates/gvfs/src/channel.rs", src)
        .violations
        .iter()
        .map(|v| (v.rule, v.line))
        .collect();
    assert_eq!(
        found,
        [("lock-guard-suspend", 7), ("lock-guard-suspend", 14)],
        "`env.sleep` at line 7 and `sig.wait(env)` at line 14"
    );
}

#[test]
fn waived_good_fixture_actually_exercises_the_waiver() {
    // The "clean" verdict above must come from the waiver being used,
    // not from the conflated double-acquire never firing.
    let res = lint_source(
        LOCK_LABEL,
        include_str!("fixtures/lockgraph-waived/good.rs"),
    );
    assert_eq!(res.waivers_declared, 1);
    assert_eq!(res.waivers_used, 1);
}

#[test]
fn cli_exits_nonzero_on_every_bad_fixture() {
    check_cli_exit("lockgraph", &cases(), true);
}

#[test]
fn cli_exits_zero_on_every_good_fixture() {
    check_cli_exit("lockgraph", &cases(), false);
}

#[test]
fn json_report_is_written() {
    let root = std::env::temp_dir().join("xtask-lockgraph-json");
    write_tree(
        &root,
        LOCK_LABEL,
        include_str!("fixtures/lockgraph-double/bad.rs"),
    );
    let json_path = root.join("reports/lint.json");
    let out = run_lint(&root, &[Path::new("--json"), &json_path]);
    assert!(!out.status.success());
    let text = std::fs::read_to_string(&json_path).expect("json written even on failure");
    assert!(text.starts_with("{\n  \"schema\": \"gvfs.lint.v3\",\n"));
    assert!(text.contains("\"rule\": \"lock-double-acquire\""));
    assert!(text.contains("`gvfs::fixture::inner`"));
    assert!(text.contains("\"clean\": false"));
    assert!(!text.contains("\"edges\""), "the lock graph is gone");
}

#[test]
fn real_tree_is_clean_against_committed_baseline() {
    // The acceptance bar for the lock rules on the actual workspace:
    // exit 0 with the committed baseline and no lock finding in the
    // report.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out_dir = std::env::temp_dir().join("xtask-lockgraph-real-tree");
    let _ = std::fs::remove_dir_all(&out_dir);
    let json_path = out_dir.join("lint.json");
    let out = run_lint(&root, &[Path::new("--json"), &json_path]);
    assert!(
        out.status.success(),
        "lint failed on the real tree:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
    let text = std::fs::read_to_string(&json_path).expect("json written");
    assert!(text.contains("\"clean\": true"));
    for rule in ["lock-guard-suspend", "lock-double-acquire"] {
        assert!(
            text.contains(&format!("\"{rule}\": 0")),
            "{rule} counted on the real tree"
        );
    }
}
