//! The `lint` subcommand, the workspace's one static-analysis pass: one
//! walk over `crates/*/src`, the per-file rules ([`crate::rules`]) and
//! the lock walker ([`crate::lockgraph`]) over each lexed file, one
//! waiver application, one baseline, and one human/JSON report.

use crate::json::Json;
use crate::lexer::{lex, Comment, Lexed};
use crate::lockgraph;
use crate::rules::{self, Violation};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// A parsed `// lint:allow(<rule>): <reason>` comment.
#[derive(Debug, Clone)]
pub struct Waiver {
    pub rule: String,
    /// The source line the waiver applies to: its own line for trailing
    /// waivers, the next line for waivers on their own line.
    pub applies_line: u32,
    pub decl_line: u32,
    pub reason: String,
}

/// The pass's outcome over a set of files, before baseline matching.
pub struct LintResult {
    /// Every rule's findings that no waiver covers, plus the `waiver`
    /// findings, sorted by file, line, column and rule.
    pub violations: Vec<Violation>,
    pub waivers_declared: usize,
    pub waivers_used: usize,
}

/// Parse the `// lint:allow(<rule>): <reason>` comments of one file.
/// Malformed waivers are reported as `waiver` violations immediately.
pub fn parse_waivers(path: &str, comments: &[Comment], out: &mut Vec<Violation>) -> Vec<Waiver> {
    let mut waivers = Vec::new();
    for c in comments {
        // A waiver must be the entire comment: `// lint:allow(rule): reason`.
        // Mentions of the syntax in prose/doc comments are not waivers.
        let body = c.text.trim_start_matches(['/', '*', '!']).trim_start();
        let Some(rest) = body.strip_prefix("lint:allow") else {
            continue;
        };
        let bad = |msg: &str, out: &mut Vec<Violation>| {
            out.push(Violation {
                rule: rules::RULE_WAIVER,
                file: path.to_string(),
                line: c.line,
                col: 1,
                message: format!("{msg}; expected `// lint:allow(<rule>): <reason>`"),
            });
        };
        let Some(rest) = rest.strip_prefix('(') else {
            bad("malformed waiver: missing `(<rule>)`", out);
            continue;
        };
        let Some(close) = rest.find(')') else {
            bad("malformed waiver: unterminated `(<rule>)`", out);
            continue;
        };
        let rule = rest[..close].trim().to_string();
        if !rules::ALL_RULES.contains(&rule.as_str()) || rule == rules::RULE_WAIVER {
            bad(&format!("waiver names unknown rule `{rule}`"), out);
            continue;
        }
        let after = rest[close + 1..].trim_start();
        let reason = after.strip_prefix(':').map(str::trim).unwrap_or("");
        if reason.is_empty() {
            // The headline rule: a waiver without a reason is itself a
            // violation — every suppression must say why.
            bad(&format!("waiver for `{rule}` has no reason"), out);
            continue;
        }
        waivers.push(Waiver {
            rule,
            applies_line: if c.own_line { c.line + 1 } else { c.line },
            decl_line: c.line,
            reason: reason.to_string(),
        });
    }
    waivers
}

/// Run every rule over a set of (workspace-relative path, source) pairs:
/// lex each file once, run the per-file rules and the lock walker on
/// it, then cancel the violations covered by waivers. Unused
/// waivers are themselves reported (a stale suppression hides the day
/// the code regresses for real).
pub fn lint_sources(files: &[(String, String)]) -> LintResult {
    let lexed: Vec<Lexed> = files.iter().map(|(_, src)| lex(src)).collect();
    let mut violations = Vec::new();
    let mut waivers: Vec<(&str, Waiver)> = Vec::new();
    for ((path, _), lexed) in files.iter().zip(&lexed) {
        violations.extend(lockgraph::check_file(path, lexed));
        violations.extend(rules::check_file(path, lexed));
        for w in parse_waivers(path, &lexed.comments, &mut violations) {
            waivers.push((path, w));
        }
    }

    let mut used = vec![false; waivers.len()];
    violations.retain(|v| {
        let covering = waivers
            .iter()
            .position(|(path, w)| w.rule == v.rule && *path == v.file && w.applies_line == v.line);
        if let Some(i) = covering {
            used[i] = true;
        }
        covering.is_none()
    });
    for ((path, w), _) in waivers.iter().zip(&used).filter(|(_, used)| !**used) {
        violations.push(Violation {
            rule: rules::RULE_WAIVER,
            file: path.to_string(),
            line: w.decl_line,
            col: 1,
            message: format!(
                "unused waiver for `{}` (line {} triggers no such violation); remove it",
                w.rule, w.applies_line
            ),
        });
    }
    violations
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    LintResult {
        violations,
        waivers_declared: waivers.len(),
        waivers_used: used.iter().filter(|u| **u).count(),
    }
}

/// [`lint_sources`] over a one-file tree.
pub fn lint_source(path: &str, src: &str) -> LintResult {
    lint_sources(&[(path.to_string(), src.to_string())])
}

// ---------------------------------------------------------------------------
// Baseline
// ---------------------------------------------------------------------------

/// Baseline key: rule + path + trimmed source line text. Line text (not
/// the line number) keeps entries stable across unrelated edits above.
pub fn baseline_key(v: &Violation, line_text: &str) -> String {
    format!("{}\t{}\t{}", v.rule, v.file, line_text.trim())
}

pub fn parse_baseline(text: &str) -> BTreeMap<String, u32> {
    let mut map: BTreeMap<String, u32> = BTreeMap::new();
    for line in text.lines() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        *map.entry(line.to_string()).or_insert(0) += 1;
    }
    map
}

pub fn render_baseline(keys: &[String]) -> String {
    let mut out = String::from(
        "# xtask lint baseline — grandfathered violations.\n\
         # Format: <rule>\\t<path>\\t<trimmed source line>\n\
         # Regenerate with: cargo run -p xtask -- lint --write-baseline\n",
    );
    for k in keys {
        out.push_str(k);
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------------

struct Options {
    root: PathBuf,
    json_path: Option<PathBuf>,
    baseline_path: PathBuf,
    write_baseline: bool,
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut root = None;
    let mut json_path = None;
    let mut baseline_path = None;
    let mut write_baseline = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--root" => root = Some(PathBuf::from(it.next().ok_or("--root needs a value")?)),
            "--json" => json_path = Some(PathBuf::from(it.next().ok_or("--json needs a value")?)),
            "--baseline" => {
                baseline_path = Some(PathBuf::from(it.next().ok_or("--baseline needs a value")?))
            }
            "--write-baseline" => write_baseline = true,
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let root = root.unwrap_or_else(find_workspace_root);
    let baseline_path = baseline_path.unwrap_or_else(|| root.join("lint-baseline.txt"));
    Ok(Options {
        root,
        json_path,
        baseline_path,
        write_baseline,
    })
}

/// Walk upward from CWD looking for the workspace root (a Cargo.toml
/// containing `[workspace]`); fall back to this crate's parent dirs.
pub fn find_workspace_root() -> PathBuf {
    let mut candidates = Vec::new();
    if let Ok(cwd) = std::env::current_dir() {
        candidates.push(cwd);
    }
    candidates.push(PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../.."));
    for start in candidates {
        let mut dir = start.as_path();
        loop {
            let manifest = dir.join("Cargo.toml");
            if let Ok(text) = std::fs::read_to_string(&manifest) {
                if text.contains("[workspace]") {
                    return dir.to_path_buf();
                }
            }
            match dir.parent() {
                Some(p) => dir = p,
                None => break,
            }
        }
    }
    PathBuf::from(".")
}

/// How a report names the tree it scanned: relative to the workspace
/// root (`.` for the workspace itself), so a committed report reads the
/// same wherever the checkout lives.
pub fn report_root(root: &Path) -> String {
    match root.strip_prefix(find_workspace_root()) {
        Ok(rel) if rel.as_os_str().is_empty() => ".".into(),
        Ok(rel) => rel.to_string_lossy().into_owned(),
        Err(_) => root.to_string_lossy().into_owned(),
    }
}

/// All `crates/*/src/**/*.rs` files under `root`, workspace-relative with
/// forward slashes, sorted for deterministic reports.
pub fn collect_files(root: &Path) -> Vec<String> {
    let mut out: Vec<PathBuf> = Vec::new();
    let crates_dir = root.join("crates");
    let Ok(entries) = std::fs::read_dir(&crates_dir) else {
        return Vec::new();
    };
    let mut crate_dirs: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    crate_dirs.sort();
    for dir in crate_dirs {
        let src = dir.join("src");
        if src.is_dir() {
            walk_rs(&src, &mut out);
        }
    }
    let mut rel: Vec<String> = out
        .into_iter()
        .filter_map(|p| {
            p.strip_prefix(root)
                .ok()
                .map(|r| r.to_string_lossy().replace('\\', "/"))
        })
        .collect();
    rel.sort();
    rel
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    let mut paths: Vec<PathBuf> = entries.flatten().map(|e| e.path()).collect();
    paths.sort();
    for p in paths {
        if p.is_dir() {
            walk_rs(&p, out);
        } else if p.extension().is_some_and(|e| e == "rs") {
            out.push(p);
        }
    }
}

struct RunReport {
    files_scanned: usize,
    result: LintResult,
    fresh: Vec<(Violation, String)>, // violation + trimmed line text
    baselined: usize,
    stale_baseline: Vec<String>,
}

fn run_lint(root: &Path, baseline: &BTreeMap<String, u32>) -> RunReport {
    let files: Vec<(String, String)> = collect_files(root)
        .into_iter()
        .filter_map(|rel| {
            let src = std::fs::read_to_string(root.join(&rel)).ok()?;
            Some((rel, src))
        })
        .collect();
    let result = lint_sources(&files);
    let sources: BTreeMap<&str, &str> = files
        .iter()
        .map(|(path, src)| (path.as_str(), src.as_str()))
        .collect();
    let mut fresh = Vec::new();
    let mut baselined = 0usize;
    let mut remaining = baseline.clone();
    for v in &result.violations {
        let text = sources
            .get(v.file.as_str())
            .and_then(|src| src.lines().nth(v.line.saturating_sub(1) as usize))
            .unwrap_or("")
            .trim()
            .to_string();
        let key = baseline_key(v, &text);
        match remaining.get_mut(&key) {
            Some(n) if *n > 0 => {
                *n -= 1;
                baselined += 1;
            }
            _ => fresh.push((v.clone(), text)),
        }
    }
    let stale_baseline: Vec<String> = remaining
        .into_iter()
        .filter(|(_, n)| *n > 0)
        .map(|(k, _)| k)
        .collect();
    RunReport {
        files_scanned: files.len(),
        result,
        fresh,
        baselined,
        stale_baseline,
    }
}

fn strs(items: impl IntoIterator<Item = impl ToString>) -> Json {
    Json::Array(
        items
            .into_iter()
            .map(|s| Json::Str(s.to_string()))
            .collect(),
    )
}

fn report_json(r: &RunReport, root: &Path, baseline_entries: usize) -> Json {
    let mut counts: Vec<(String, Json)> = rules::ALL_RULES
        .iter()
        .map(|rule| {
            let n = r.fresh.iter().filter(|(v, _)| v.rule == *rule).count() as u64;
            (rule.to_string(), Json::Uint(n))
        })
        .collect();
    counts.sort_by(|a, b| a.0.cmp(&b.0));
    Json::Object(vec![
        ("schema".into(), Json::Str("gvfs.lint.v3".into())),
        ("root".into(), Json::Str(report_root(root))),
        ("files_scanned".into(), Json::Uint(r.files_scanned as u64)),
        (
            "clean".into(),
            Json::Bool(r.fresh.is_empty() && r.stale_baseline.is_empty()),
        ),
        (
            "violations".into(),
            Json::Array(
                r.fresh
                    .iter()
                    .map(|(v, text)| {
                        Json::Object(vec![
                            ("rule".into(), Json::Str(v.rule.to_string())),
                            ("file".into(), Json::Str(v.file.clone())),
                            ("line".into(), Json::Uint(v.line as u64)),
                            ("col".into(), Json::Uint(v.col as u64)),
                            ("message".into(), Json::Str(v.message.clone())),
                            ("snippet".into(), Json::Str(text.clone())),
                        ])
                    })
                    .collect(),
            ),
        ),
        ("counts".into(), Json::Object(counts)),
        (
            "waivers".into(),
            Json::Object(vec![
                (
                    "declared".into(),
                    Json::Uint(r.result.waivers_declared as u64),
                ),
                ("used".into(), Json::Uint(r.result.waivers_used as u64)),
            ]),
        ),
        (
            "baseline".into(),
            Json::Object(vec![
                ("entries".into(), Json::Uint(baseline_entries as u64)),
                ("matched".into(), Json::Uint(r.baselined as u64)),
                ("stale".into(), strs(&r.stale_baseline)),
            ]),
        ),
    ])
}

/// Write `contents` to `path`, creating its directory first.
fn write_report(path: &Path, contents: String) -> Result<(), String> {
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    std::fs::write(path, contents).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

pub fn run(args: &[String]) -> ExitCode {
    let opts = match parse_args(args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    };
    let baseline_text = std::fs::read_to_string(&opts.baseline_path).unwrap_or_default();
    let baseline = parse_baseline(&baseline_text);
    let baseline_entries: usize = baseline.values().map(|n| *n as usize).sum();
    let report = run_lint(&opts.root, &baseline);

    if opts.write_baseline {
        let mut keys: Vec<String> = report
            .fresh
            .iter()
            .map(|(v, text)| baseline_key(v, text))
            .collect();
        keys.sort();
        if let Err(e) = write_report(&opts.baseline_path, render_baseline(&keys)) {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
        println!(
            "wrote {} entries to {}",
            keys.len(),
            opts.baseline_path.display()
        );
        return ExitCode::SUCCESS;
    }

    if let Some(path) = &opts.json_path {
        let json = report_json(&report, &opts.root, baseline_entries).pretty();
        if let Err(e) = write_report(path, json) {
            eprintln!("xtask lint: {e}");
            return ExitCode::from(2);
        }
    }

    for (v, text) in &report.fresh {
        println!("{}: {}:{}:{}: {}", v.rule, v.file, v.line, v.col, v.message);
        if !text.is_empty() {
            println!("    {text}");
        }
    }
    for key in &report.stale_baseline {
        println!("stale-baseline: entry no longer matches any violation: {key}");
    }
    println!(
        "xtask lint: {} files scanned, {} violations ({} baselined), \
         {} stale baseline entries, waivers {}/{} used",
        report.files_scanned,
        report.fresh.len(),
        report.baselined,
        report.stale_baseline.len(),
        report.result.waivers_used,
        report.result.waivers_declared,
    );
    if report.fresh.is_empty() && report.stale_baseline.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
