//! Fixture-based self-tests for the lint engine: each bad fixture must
//! trigger exactly its rule (in-process and via the CLI exit code), and
//! each good fixture must pass clean.

use std::path::PathBuf;
use std::process::Command;
use xtask::lint::lint_source;

/// (rule, path label that puts the fixture in the rule's scope, bad, good)
fn cases() -> Vec<(&'static str, &'static str, &'static str, &'static str)> {
    vec![
        (
            "determinism",
            "crates/workloads/src/fixture.rs",
            include_str!("fixtures/determinism/bad.rs"),
            include_str!("fixtures/determinism/good.rs"),
        ),
        (
            "bounded-decode",
            "crates/xdr/src/fixture.rs",
            include_str!("fixtures/bounded-decode/bad.rs"),
            include_str!("fixtures/bounded-decode/good.rs"),
        ),
        (
            // Second bounded-decode pair: the gossip digest-inventory codec
            // (PR 10) pulled `crates/gvfs/src/channel.rs` into the rule's
            // scope, so pin the shape of a compliant gossip decode here.
            "bounded-decode",
            "crates/gvfs/src/channel.rs",
            include_str!("fixtures/bounded-decode-gossip/bad.rs"),
            include_str!("fixtures/bounded-decode-gossip/good.rs"),
        ),
        (
            // Third bounded-decode pair: the codec's range decoder, which
            // must size its output by the clipped request, never by what
            // the stream declares.
            "bounded-decode",
            "crates/gvfs/src/codec.rs",
            include_str!("fixtures/bounded-decode-range/bad.rs"),
            include_str!("fixtures/bounded-decode-range/good.rs"),
        ),
        (
            "exact-accounting",
            "crates/gvfs/src/file_cache.rs",
            include_str!("fixtures/exact-accounting/bad.rs"),
            include_str!("fixtures/exact-accounting/good.rs"),
        ),
        (
            "panic-free-dispatch",
            "crates/nfs3/src/server.rs",
            include_str!("fixtures/panic-free-dispatch/bad.rs"),
            include_str!("fixtures/panic-free-dispatch/good.rs"),
        ),
        (
            "lock-discipline",
            "crates/gvfs/src/channel.rs",
            include_str!("fixtures/lock-discipline/bad.rs"),
            include_str!("fixtures/lock-discipline/good.rs"),
        ),
        (
            "bounded-fanout",
            "crates/gvfs/src/fixture.rs",
            include_str!("fixtures/bounded-fanout/bad.rs"),
            include_str!("fixtures/bounded-fanout/good.rs"),
        ),
        (
            // The kernel client's block fan-out is in the rule's scope
            // since it became a tenant of the shared engine.
            "bounded-fanout",
            "crates/nfs3/src/kernel.rs",
            include_str!("fixtures/bounded-fanout/bad.rs"),
            include_str!("fixtures/bounded-fanout/good.rs"),
        ),
        (
            "canonical-digest",
            "crates/gvfs/src/fixture.rs",
            include_str!("fixtures/canonical-digest/bad.rs"),
            include_str!("fixtures/canonical-digest/good.rs"),
        ),
        (
            "allocation-free-record",
            "crates/simnet/src/telemetry.rs",
            include_str!("fixtures/allocation-free-record/bad.rs"),
            include_str!("fixtures/allocation-free-record/good.rs"),
        ),
        (
            "cas-eviction",
            "crates/gvfs/src/fixture.rs",
            include_str!("fixtures/cas-eviction/bad.rs"),
            include_str!("fixtures/cas-eviction/good.rs"),
        ),
        (
            "waiver",
            "crates/gvfs/src/file_cache.rs",
            include_str!("fixtures/waiver/bad.rs"),
            include_str!("fixtures/waiver/good.rs"),
        ),
    ]
}

#[test]
fn bad_fixtures_trigger_exactly_their_rule() {
    for (rule, label, bad, _) in cases() {
        let res = lint_source(label, bad);
        assert!(
            !res.violations.is_empty(),
            "{rule}: bad fixture triggered no violations"
        );
        for v in &res.violations {
            assert_eq!(
                v.rule, rule,
                "{rule}: bad fixture triggered foreign rule `{}` at line {}: {}",
                v.rule, v.line, v.message
            );
        }
    }
}

#[test]
fn good_fixtures_pass_clean() {
    for (rule, label, _, good) in cases() {
        let res = lint_source(label, good);
        assert!(
            res.violations.is_empty(),
            "{rule}: good fixture raised {:?}",
            res.violations
        );
    }
}

/// The engine's own spawn loop is the rule's one exemption, and the
/// exemption moved with the engine: `gvfs/src/transfer.rs`, where it used
/// to live, is policed like every other module.
#[test]
fn bounded_fanout_exempts_only_the_engine_itself() {
    let bad = include_str!("fixtures/bounded-fanout/bad.rs");
    let violations = |label| lint_source(label, bad).violations;
    assert!(violations("crates/simnet/src/fanout.rs").is_empty());
    assert!(!violations("crates/simnet/src/link.rs").is_empty());
    assert!(!violations("crates/gvfs/src/transfer.rs").is_empty());
}

/// Build a one-file synthetic workspace at `root` whose single source
/// file sits at the scope label's path.
fn write_tree(root: &PathBuf, label: &str, src: &str) {
    let _ = std::fs::remove_dir_all(root);
    let file = root.join(label);
    std::fs::create_dir_all(file.parent().expect("label has a parent")).expect("mkdir");
    std::fs::write(&file, src).expect("write fixture");
}

fn run_cli(root: &PathBuf) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--root")
        .arg(root)
        .arg("--baseline")
        .arg(root.join("lint-baseline.txt")) // absent: empty baseline
        .output()
        .expect("run xtask lint")
}

#[test]
fn cli_exits_nonzero_on_every_bad_fixture() {
    for (rule, label, bad, _) in cases() {
        let root = std::env::temp_dir().join(format!("xtask-lint-bad-{rule}"));
        write_tree(&root, label, bad);
        let out = run_cli(&root);
        assert!(
            !out.status.success(),
            "{rule}: CLI exited 0 on a bad fixture\nstdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn cli_exits_zero_on_every_good_fixture() {
    for (rule, label, _, good) in cases() {
        let root = std::env::temp_dir().join(format!("xtask-lint-good-{rule}"));
        write_tree(&root, label, good);
        let out = run_cli(&root);
        assert!(
            out.status.success(),
            "{rule}: CLI exited nonzero on a good fixture\nstdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}

#[test]
fn json_report_is_written_in_telemetry_style() {
    let (rule, label, bad, _) = cases().remove(0);
    let root = std::env::temp_dir().join(format!("xtask-lint-json-{rule}"));
    write_tree(&root, label, bad);
    let json_path = root.join("reports/lint.json");
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--root")
        .arg(&root)
        .arg("--json")
        .arg(&json_path)
        .output()
        .expect("run xtask lint");
    assert!(!out.status.success());
    let text = std::fs::read_to_string(&json_path).expect("json written even on failure");
    assert!(text.starts_with("{\n  \"schema\": \"gvfs.lint.v1\",\n"));
    assert!(text.contains("\"violations\": ["));
    assert!(text.contains("\"rule\": \"determinism\""));
    assert!(text.contains("\"clean\": false"));
}
