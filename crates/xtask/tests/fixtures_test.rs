//! Fixture-based self-tests for the per-file rules of `xtask lint`:
//! each bad fixture must trigger exactly its rule (in-process and via
//! the CLI exit code), and each good fixture must pass clean. The lock
//! rules' fixtures live in `lockgraph_test.rs`; both suites share the
//! checks in `common`.

mod common;

use common::{check_bad_fixtures, check_cli_exit, check_good_fixtures, run_lint, write_tree, Case};
use std::path::Path;
use xtask::lint::lint_source;

/// (rule, path label that puts the fixture in the rule's scope, bad, good)
fn cases() -> Vec<Case> {
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
            // Every module in the bounded-decode scope answers refused
            // bytes with a cause, never a bare `None`.
            "decode-result",
            "crates/nfs3/src/fixture.rs",
            include_str!("fixtures/decode-result/bad.rs"),
            include_str!("fixtures/decode-result/good.rs"),
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
            "unsafe-confined",
            "crates/simnet/src/engine.rs",
            include_str!("fixtures/unsafe-confined/bad.rs"),
            include_str!("fixtures/unsafe-confined/good.rs"),
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
    check_bad_fixtures(&cases());
}

#[test]
fn good_fixtures_pass_clean() {
    check_good_fixtures(&cases());
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

/// Proven `unsafe` passes only in the engine: anywhere else, the same code
/// is a violation, and each `unsafe` token is one.
#[test]
fn unsafe_is_confined_to_the_engine() {
    let good = include_str!("fixtures/unsafe-confined/good.rs");
    assert!(lint_source("crates/simnet/src/engine.rs", good)
        .violations
        .is_empty());
    for label in ["crates/simnet/src/sync.rs", "crates/xdr/src/bytes.rs"] {
        let violations = lint_source(label, good).violations;
        assert_eq!(violations.len(), 3, "{label}: {violations:?}");
        assert!(violations.iter().all(|v| v.rule == "unsafe-confined"));
    }
}

#[test]
fn cli_exits_nonzero_on_every_bad_fixture() {
    check_cli_exit("lint", &cases(), true);
}

#[test]
fn cli_exits_zero_on_every_good_fixture() {
    check_cli_exit("lint", &cases(), false);
}

#[test]
fn json_report_is_written_in_telemetry_style() {
    let (rule, label, bad, _) = cases().remove(0);
    let root = std::env::temp_dir().join(format!("xtask-lint-json-{rule}"));
    write_tree(&root, label, bad);
    let json_path = root.join("reports/lint.json");
    let out = run_lint(&root, &[Path::new("--json"), &json_path]);
    assert!(!out.status.success());
    let text = std::fs::read_to_string(&json_path).expect("json written even on failure");
    assert!(text.starts_with("{\n  \"schema\": \"gvfs.lint.v3\",\n"));
    assert!(text.contains("\"violations\": ["));
    assert!(text.contains("\"rule\": \"determinism\""));
    assert!(text.contains("\"clean\": false"));
}
