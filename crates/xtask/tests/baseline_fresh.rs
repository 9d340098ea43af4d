//! The real tree against the committed (empty) baseline: no
//! non-baselined finding of any rule — per-file or lock walker — and no
//! stale baseline entry or unused waiver (exit 0). This is the same
//! invocation CI gates merges on.

use std::path::Path;
use std::process::Command;

#[test]
fn committed_baseline_matches_fresh_run() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let out = Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--root")
        .arg(&root)
        .output()
        .expect("run xtask lint");
    assert!(
        out.status.success(),
        "lint found non-baselined violations, stale baseline entries or unused waivers:\n{}",
        String::from_utf8_lossy(&out.stdout)
    );
}
