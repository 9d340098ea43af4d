//! Helpers shared by the fixture suites: the in-process and CLI checks
//! run over a table of `(rule, label, bad, good)` cases, where the label
//! is the path that puts the fixture in the rule's scope.

use std::path::Path;
use std::process::{Command, Output};
use xtask::lint::lint_source;

pub type Case = (&'static str, &'static str, &'static str, &'static str);

/// Each bad fixture triggers at least one violation, all of its rule.
pub fn check_bad_fixtures(cases: &[Case]) {
    for (rule, label, bad, _) in cases {
        let res = lint_source(label, bad);
        assert!(
            !res.violations.is_empty(),
            "{rule}: bad fixture triggered no violations"
        );
        for v in &res.violations {
            assert_eq!(
                v.rule, *rule,
                "{rule}: bad fixture triggered foreign rule `{}` at line {}: {}",
                v.rule, v.line, v.message
            );
        }
    }
}

/// Each good fixture lints clean.
pub fn check_good_fixtures(cases: &[Case]) {
    for (rule, label, _, good) in cases {
        let res = lint_source(label, good);
        assert!(
            res.violations.is_empty(),
            "{rule}: good fixture raised {:?}",
            res.violations
        );
    }
}

/// Build a one-file synthetic workspace at `root` whose single source
/// file sits at the scope label's path.
pub fn write_tree(root: &Path, label: &str, src: &str) {
    let _ = std::fs::remove_dir_all(root);
    let file = root.join(label);
    std::fs::create_dir_all(file.parent().expect("label has a parent")).expect("mkdir");
    std::fs::write(&file, src).expect("write fixture");
}

/// `xtask lint --root <root>` followed by `extra`.
pub fn run_lint(root: &Path, extra: &[&Path]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_xtask"))
        .arg("lint")
        .arg("--root")
        .arg(root)
        .args(extra)
        .output()
        .expect("run xtask lint")
}

/// The CLI exits nonzero on every bad fixture (`bad`) or zero on every
/// good one (`!bad`), against an empty baseline. `suite` keeps the temp
/// trees of different suites apart.
pub fn check_cli_exit(suite: &str, cases: &[Case], bad: bool) {
    let kind = if bad { "bad" } else { "good" };
    for (i, (rule, label, bad_src, good_src)) in cases.iter().enumerate() {
        let root = std::env::temp_dir().join(format!("xtask-{suite}-{kind}-{i}-{rule}"));
        write_tree(&root, label, if bad { bad_src } else { good_src });
        let baseline = root.join("lint-baseline.txt"); // absent: empty baseline
        let out = run_lint(&root, &[Path::new("--baseline"), &baseline]);
        assert_eq!(
            out.status.success(),
            !bad,
            "{rule}: CLI exit status wrong on a {kind} fixture\nstdout:\n{}",
            String::from_utf8_lossy(&out.stdout)
        );
    }
}
