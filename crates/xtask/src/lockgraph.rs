//! The lock walker of `xtask lint`: the static half of `simnet::Shared`'s
//! two runtime checks.
//!
//! Where the per-file rules in [`crate::rules`] match token windows, this
//! walker follows each file's token stream with lightweight scope
//! tracking: it records each lock-acquisition site (guards via
//! `.lock()`/`.read()`/`.write()`/`.try_*()`, and
//! `simnet::sync::Resource` via `.acquire(env)`) and tracks which guards
//! are live at each point. Two rules fall out:
//!
//! - `lock-guard-suspend`: a guard held across a simnet suspend point
//!   (`env` handed to a blocking call). Another process could find the
//!   lock taken; `Shared` panics at such a suspend in debug builds. The
//!   walker works from the live-guard set rather than a per-statement
//!   pattern, so let-bound guards, transient guards (`x.lock().field`
//!   mid-expression) and `if let`-bound try guards are all covered.
//! - `lock-double-acquire`: the same lock class acquired while already
//!   held in the same scope. `Shared` panics there in every build.
//!
//! Every process runs on one thread, and with no guard held across a
//! suspend only the running process holds any lock, so a lock can only
//! ever be found taken by its own holder: no order of acquisitions can
//! deadlock, and there is no cross-file order to check.
//!
//! ## Lock classes
//!
//! A lock is named `<crate>::<file-stem>::<receiver-segment>`, e.g.
//! `gvfs::proxy::state` for `self.state.lock()` in
//! `crates/gvfs/src/proxy.rs`. This conflates same-named fields of
//! different types within one file — deliberate: the walker is
//! intra-procedural and lexical, so class granularity matches what it
//! can actually see. False positives from conflation are waived with
//! `// lint:allow(<rule>): <reason>`, applied by [`crate::lint`] like
//! every other rule's waivers.
//!
//! ## Known approximations
//!
//! - Intra-procedural only: a guard held by a caller is invisible in the
//!   callee. The runtime checks see every executed path.
//! - Brace-bodied closures get a fresh scope (their body runs elsewhere,
//!   e.g. `spawn`); expression-bodied closures inherit the enclosing
//!   live-guard set.
//! - A transient guard inside call arguments is considered released at a
//!   `{` opening a block at its paren level (unless the statement is a
//!   `match`/`for`, whose scrutinee temporaries live through the block).
//!   This can under-report by a few tokens; it never over-reports.

use crate::lexer::{Lexed, Tok, TokKind};
use crate::rules::{test_mask, Violation, RULE_DOUBLE_ACQUIRE, RULE_GUARD_SUSPEND};
use std::collections::BTreeSet;

/// Blocking calls on an `env` receiver that suspend the process.
const SUSPEND_METHODS: &[&str] = &["suspend", "sleep", "wait", "recv", "acquire", "join"];

// ---------------------------------------------------------------------------
// Per-file walker
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum Release {
    /// Let-bound guard: released when brace depth drops below this.
    BraceDepth(i32),
    /// `if let Some(g) = x.try_lock()`: becomes `BraceDepth` at the next
    /// `{` (the if-body the guard is scoped to).
    PendingBrace,
    /// Mid-expression temporary: released at the statement end.
    Transient { pd0: i32, acq_depth: i32 },
}

#[derive(Debug, Clone)]
struct Held {
    class: String,
    name: Option<String>,
    line: u32,
    /// Token index from which the guard counts as held. For
    /// `.acquire(env)` this is *after* the call's closing paren so the
    /// acquisition's own `env` argument (itself a suspend point) is
    /// charged to previously-held guards only.
    active_from: usize,
    release: Release,
}

/// One closure (or file-base) scope: guards held by the code that runs
/// *here*. A brace-bodied closure body executes on some other
/// process/thread, so it starts with no inherited guards.
struct Frame {
    start_depth: i32,
    held: Vec<Held>,
}

/// `crates/gvfs/src/block_cache.rs` -> `gvfs::block_cache`.
fn class_prefix(path: &str) -> String {
    let parts: Vec<&str> = path.split('/').collect();
    let krate = if parts.len() >= 2 && parts[0] == "crates" {
        parts[1]
    } else {
        "unknown"
    };
    let stem = parts
        .last()
        .map(|f| f.trim_end_matches(".rs"))
        .unwrap_or("unknown");
    format!("{krate}::{stem}")
}

/// Walk back from the acquisition `.` to find the receiver's last named
/// segment and the chain's first token index. Skips `self`, postfix
/// `()`/`[]` groups, `?`, `.`/`::` links, and tuple-field numbers.
fn chain_info(toks: &[Tok], dot: usize) -> (String, usize) {
    let mut seg: Option<String> = None;
    let mut start = dot;
    let mut k = dot as isize - 1;
    while k >= 0 {
        let t = &toks[k as usize];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                ")" | "]" => {
                    let (open, close) = if t.text == ")" {
                        ("(", ")")
                    } else {
                        ("[", "]")
                    };
                    let mut d = 1i32;
                    k -= 1;
                    while k >= 0 && d > 0 {
                        let u = toks[k as usize].text.as_str();
                        if toks[k as usize].kind == TokKind::Punct {
                            if u == close {
                                d += 1;
                            } else if u == open {
                                d -= 1;
                            }
                        }
                        if d == 0 {
                            break;
                        }
                        k -= 1;
                    }
                    if k < 0 {
                        break;
                    }
                    start = k as usize;
                    k -= 1;
                    continue;
                }
                "?" | "." => {
                    start = k as usize;
                    k -= 1;
                    continue;
                }
                ":" => {
                    if k >= 1 && toks[(k - 1) as usize].is_punct(":") {
                        start = (k - 1) as usize;
                        k -= 2;
                        continue;
                    }
                    break;
                }
                _ => break,
            }
        }
        if t.kind == TokKind::Ident || t.kind == TokKind::Number {
            if seg.is_none() && t.kind == TokKind::Ident && t.text != "self" && t.text != "await" {
                seg = Some(t.text.clone());
            }
            start = k as usize;
            let p = k - 1;
            if p >= 0 && (toks[p as usize].is_punct(".") || toks[p as usize].is_punct(":")) {
                k = p;
                continue;
            }
            break;
        }
        break;
    }
    (seg.unwrap_or_else(|| "self".to_string()), start)
}

/// `let [mut] name = <chain>` immediately before `chain_start`.
fn let_binding(toks: &[Tok], chain_start: usize) -> Option<String> {
    let mut k = chain_start.checked_sub(1)?;
    if !toks[k].is_punct("=") {
        return None;
    }
    k = k.checked_sub(1)?;
    if toks[k].kind != TokKind::Ident {
        return None;
    }
    let name = toks[k].text.clone();
    if name == "let" || name == "mut" {
        return None;
    }
    let mut k = k.checked_sub(1)?;
    if toks[k].is_ident("mut") {
        k = k.checked_sub(1)?;
    }
    if toks[k].is_ident("let") {
        Some(name)
    } else {
        None
    }
}

/// `if let Some(name) = <chain>` / `while let Ok(name) = <chain>`.
fn if_let_binding(toks: &[Tok], chain_start: usize) -> Option<String> {
    let mut k = chain_start.checked_sub(1)?;
    if !toks[k].is_punct("=") {
        return None;
    }
    k = k.checked_sub(1)?;
    if !toks[k].is_punct(")") {
        return None;
    }
    k = k.checked_sub(1)?;
    if toks[k].kind != TokKind::Ident {
        return None;
    }
    let name = toks[k].text.clone();
    k = k.checked_sub(1)?;
    if !toks[k].is_punct("(") {
        return None;
    }
    k = k.checked_sub(1)?;
    if toks[k].kind != TokKind::Ident {
        return None; // Some / Ok
    }
    k = k.checked_sub(1)?;
    if !toks[k].is_ident("let") {
        return None;
    }
    let k = k.checked_sub(1)?;
    if toks[k].is_ident("if") || toks[k].is_ident("while") {
        Some(name)
    } else {
        None
    }
}

/// Find the matching `)` for the `(` at `open` (token index), or None.
fn matching_close(toks: &[Tok], open: usize) -> Option<usize> {
    let mut d = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => d += 1,
                ")" => {
                    d -= 1;
                    if d == 0 {
                        return Some(j);
                    }
                }
                _ => {}
            }
        }
    }
    None
}

/// Is token `i` a bare `env` in argument position (`(env`, `, env`,
/// `&env` followed by `,` or `)`)?
fn bare_env_arg(toks: &[Tok], i: usize) -> bool {
    if !toks[i].is_ident("env") {
        return false;
    }
    let prev_ok = i > 0
        && matches!(toks[i - 1].text.as_str(), "(" | "," | "&")
        && toks[i - 1].kind == TokKind::Punct;
    let next_ok = toks
        .get(i + 1)
        .is_some_and(|t| t.kind == TokKind::Punct && matches!(t.text.as_str(), "," | ")"));
    prev_ok && next_ok
}

/// Token sets that can directly precede a closure's opening `|`.
fn closure_opener_before(toks: &[Tok], i: usize) -> bool {
    if i == 0 {
        return true;
    }
    let p = &toks[i - 1];
    (p.kind == TokKind::Punct && matches!(p.text.as_str(), "(" | "," | "=" | ";" | "{" | ">" | ":"))
        || p.is_ident("move")
        || p.is_ident("return")
}

/// The lock rules' violations in one (workspace-relative path, lexed
/// source) file. Waivers and the report order are [`crate::lint`]'s.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Violation> {
    let mut out = Vec::new();
    walk_file(path, lexed, &mut out);
    out
}

fn walk_file(path: &str, lexed: &Lexed, out: &mut Vec<Violation>) {
    let toks = &lexed.toks;
    let mask = test_mask(toks);
    let prefix = class_prefix(path);

    let mut depth = 0i32;
    let mut pdepth = 0i32;
    let mut frames: Vec<Frame> = vec![Frame {
        start_depth: 0,
        held: Vec::new(),
    }];
    let mut stmt_kw: Option<String> = None;
    let mut pending_frame_at: Option<usize> = None;
    let mut suspends_seen: BTreeSet<(u32, String)> = BTreeSet::new();

    let mut i = 0usize;
    while i < toks.len() {
        let t = &toks[i];
        let masked = mask[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "{" => {
                    depth += 1;
                    if pending_frame_at == Some(i) {
                        frames.push(Frame {
                            start_depth: depth,
                            held: Vec::new(),
                        });
                        pending_frame_at = None;
                    }
                    let extend_block = matches!(stmt_kw.as_deref(), Some("match") | Some("for"));
                    let frame = frames.last_mut().expect("base frame");
                    for g in frame.held.iter_mut() {
                        if matches!(g.release, Release::PendingBrace) {
                            g.release = Release::BraceDepth(depth);
                        }
                    }
                    frame.held.retain(|g| match g.release {
                        Release::Transient { pd0, .. } if pdepth <= pd0 => extend_block,
                        _ => true,
                    });
                    if extend_block {
                        for g in frame.held.iter_mut() {
                            if let Release::Transient { pd0, .. } = g.release {
                                if pdepth <= pd0 {
                                    // match/for scrutinee temporary: lives
                                    // through the whole block.
                                    g.release = Release::BraceDepth(depth);
                                }
                            }
                        }
                    }
                    stmt_kw = None;
                    i += 1;
                    continue;
                }
                "}" => {
                    depth -= 1;
                    while frames.len() > 1
                        && frames
                            .last()
                            .map(|f| f.start_depth > depth)
                            .unwrap_or(false)
                    {
                        frames.pop();
                    }
                    let frame = frames.last_mut().expect("base frame");
                    frame.held.retain(|g| match g.release {
                        Release::BraceDepth(d) => depth >= d,
                        Release::Transient { acq_depth, .. } => depth >= acq_depth,
                        Release::PendingBrace => true,
                    });
                    stmt_kw = None;
                    i += 1;
                    continue;
                }
                "(" | "[" => {
                    pdepth += 1;
                }
                ")" | "]" => {
                    pdepth -= 1;
                }
                ";" => {
                    let frame = frames.last_mut().expect("base frame");
                    frame.held.retain(|g| match g.release {
                        Release::Transient { pd0, .. } => pdepth > pd0,
                        _ => true,
                    });
                    stmt_kw = None;
                }
                "|" if !masked && closure_opener_before(toks, i) => {
                    // Closure parameter list: find the closing `|`, then
                    // decide whether the body is a brace block (fresh
                    // frame) or an expression (inherits the live set).
                    let close = if toks.get(i + 1).is_some_and(|t| t.is_punct("|")) {
                        Some(i + 1)
                    } else {
                        toks.iter()
                            .enumerate()
                            .skip(i + 1)
                            .take(64)
                            .find(|(_, t)| t.is_punct("|"))
                            .map(|(j, _)| j)
                    };
                    if let Some(close) = close {
                        let mut j = close + 1;
                        if toks.get(j).is_some_and(|t| t.is_punct("-"))
                            && toks.get(j + 1).is_some_and(|t| t.is_punct(">"))
                        {
                            // `|..| -> T {` : skip return type up to `{`.
                            let mut steps = 0;
                            while j < toks.len() && steps < 32 && !toks[j].is_punct("{") {
                                if toks[j].is_punct(";") {
                                    break;
                                }
                                j += 1;
                                steps += 1;
                            }
                        }
                        if toks.get(j).is_some_and(|t| t.is_punct("{")) {
                            pending_frame_at = Some(j);
                        }
                    }
                }
                _ => {}
            }
            // Acquisition: `.method(` with an acquiring method name.
            if t.is_punct(".")
                && toks.get(i + 1).map(|t| t.kind) == Some(TokKind::Ident)
                && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
            {
                let m = toks[i + 1].text.as_str();
                let empty = toks.get(i + 3).is_some_and(|t| t.is_punct(")"));
                let is_lock = empty
                    && matches!(
                        m,
                        "lock" | "read" | "write" | "try_lock" | "try_read" | "try_write"
                    );
                let mut is_resource = false;
                let mut close = i + 3;
                if is_lock {
                    // close already = i + 3
                } else if m == "acquire" {
                    if let Some(c) = matching_close(toks, i + 2) {
                        if (i + 3..c).any(|j| bare_env_arg(toks, j)) {
                            is_resource = true;
                            close = c;
                        }
                    }
                }
                if (is_lock || is_resource) && !masked {
                    let is_try = m.starts_with("try_");
                    let (seg, chain_start) = chain_info(toks, i);
                    let class = format!("{prefix}::{seg}");
                    let line = toks[i + 1].line;
                    let col = toks[i + 1].col;
                    if !is_try {
                        let frame = frames.last().expect("base frame");
                        let again = frame.held.iter().filter(|g| g.active_from <= i);
                        for held in again.filter(|g| g.class == class) {
                            out.push(Violation {
                                rule: RULE_DOUBLE_ACQUIRE,
                                file: path.to_string(),
                                line,
                                col,
                                message: format!(
                                    "lock `{class}` acquired while already held (guard \
                                     taken at line {}); `Shared::lock` panics here",
                                    held.line
                                ),
                            });
                        }
                    }

                    let stmt_final = toks.get(close + 1).is_some_and(|t| t.is_punct(";"));
                    let active_from = if is_resource { close + 1 } else { i };
                    let held = if let Some(name) = let_binding(toks, chain_start) {
                        if stmt_final {
                            if name == "_" {
                                None // `let _ = x.lock();` drops immediately
                            } else {
                                Some(Held {
                                    class,
                                    name: Some(name),
                                    line,
                                    active_from,
                                    release: Release::BraceDepth(depth),
                                })
                            }
                        } else {
                            Some(Held {
                                class,
                                name: None,
                                line,
                                active_from,
                                release: Release::Transient {
                                    pd0: pdepth,
                                    acq_depth: depth,
                                },
                            })
                        }
                    } else if let Some(name) = if_let_binding(toks, chain_start) {
                        Some(Held {
                            class,
                            name: Some(name),
                            line,
                            active_from,
                            release: Release::PendingBrace,
                        })
                    } else {
                        Some(Held {
                            class,
                            name: None,
                            line,
                            active_from,
                            release: Release::Transient {
                                pd0: pdepth,
                                acq_depth: depth,
                            },
                        })
                    };
                    if let Some(h) = held {
                        frames.last_mut().expect("base frame").held.push(h);
                    }
                }
            }
        } else if t.kind == TokKind::Ident && !masked {
            match t.text.as_str() {
                "if" | "while" | "match" | "for" => stmt_kw = Some(t.text.clone()),
                "drop"
                    if toks.get(i + 1).is_some_and(|t| t.is_punct("("))
                        && toks.get(i + 2).map(|t| t.kind) == Some(TokKind::Ident)
                        && toks.get(i + 3).is_some_and(|t| t.is_punct(")")) =>
                {
                    let name = toks[i + 2].text.clone();
                    let frame = frames.last_mut().expect("base frame");
                    frame.held.retain(|g| g.name.as_deref() != Some(&name));
                }
                "env" => {
                    let is_suspend = bare_env_arg(toks, i)
                        || (toks.get(i + 1).is_some_and(|t| t.is_punct("."))
                            && toks.get(i + 2).is_some_and(|t| {
                                t.kind == TokKind::Ident
                                    && (SUSPEND_METHODS.contains(&t.text.as_str())
                                        || t.text == "yield_now")
                            })
                            && toks.get(i + 3).is_some_and(|t| t.is_punct("(")));
                    if is_suspend {
                        let frame = frames.last().expect("base frame");
                        for g in frame.held.iter().filter(|g| g.active_from <= i) {
                            if suspends_seen.insert((t.line, g.class.clone())) {
                                out.push(Violation {
                                    rule: RULE_GUARD_SUSPEND,
                                    file: path.to_string(),
                                    line: t.line,
                                    col: t.col,
                                    message: format!(
                                        "guard on `{}` (acquired line {}) held across a \
                                         simnet suspend point; release it before blocking",
                                        g.class, g.line
                                    ),
                                });
                            }
                        }
                    }
                }
                _ => {}
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::lint::lint_source;
    use crate::rules::RULE_WAIVER;

    fn analyze_one(src: &str) -> Vec<Violation> {
        check_file("crates/gvfs/src/fixture.rs", &lex(src))
    }

    fn rules_of(a: &[Violation]) -> Vec<&str> {
        a.iter().map(|v| v.rule).collect()
    }

    #[test]
    fn let_bound_guard_released_at_scope_end() {
        let src = r#"
            fn f(env: &Env) {
                {
                    let g = self.state.lock();
                    g.touch();
                }
                env.sleep(1);
                let h = self.state.lock();
            }
        "#;
        let a = analyze_one(src);
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn guard_across_suspend_detected() {
        let src = r#"
            fn f(env: &Env) {
                let g = self.state.lock();
                env.sleep(1);
            }
        "#;
        let a = analyze_one(src);
        assert_eq!(rules_of(&a), vec![RULE_GUARD_SUSPEND]);
    }

    #[test]
    fn transient_guard_across_bare_env_arg_detected() {
        // No let binding: only the live-guard set sees this guard.
        let src = r#"
            fn f(env: &Env) {
                self.state.lock().fill(fetch(env, key));
            }
        "#;
        let a = analyze_one(src);
        assert_eq!(rules_of(&a), vec![RULE_GUARD_SUSPEND]);
    }

    #[test]
    fn transient_guard_dies_at_statement_end() {
        let src = r#"
            fn f(env: &Env) {
                let n = self.state.lock().len();
                env.sleep(1);
            }
        "#;
        let a = analyze_one(src);
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn match_scrutinee_guard_lives_through_block() {
        let src = r#"
            fn f(env: &Env) {
                match self.fs.lock().resolve(path) {
                    Some(x) => env.sleep(1),
                    None => {}
                }
            }
        "#;
        let a = analyze_one(src);
        assert_eq!(rules_of(&a), vec![RULE_GUARD_SUSPEND]);
    }

    #[test]
    fn if_condition_guard_dropped_before_block() {
        let src = r#"
            fn f(env: &Env) {
                if self.state.lock().dirty {
                    env.sleep(1);
                }
            }
        "#;
        let a = analyze_one(src);
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn double_acquire_detected() {
        let src = r#"
            fn f() {
                let a = self.state.lock();
                let b = self.state.lock();
            }
        "#;
        let a = analyze_one(src);
        assert_eq!(rules_of(&a), vec![RULE_DOUBLE_ACQUIRE]);
    }

    #[test]
    fn drop_releases_named_guard() {
        let src = r#"
            fn f(env: &Env) {
                let g = self.state.lock();
                drop(g);
                env.sleep(1);
                let h = self.state.lock();
            }
        "#;
        let a = analyze_one(src);
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn if_let_try_lock_guard_tracked_until_block_end() {
        let src = r#"
            fn f(env: &Env) {
                if let Some(g) = self.state.try_lock() {
                    env.sleep(1);
                }
                env.sleep(1);
            }
        "#;
        let a = analyze_one(src);
        // Only the suspend inside the if-body fires.
        assert_eq!(rules_of(&a), vec![RULE_GUARD_SUSPEND]);
        assert_eq!(a[0].line, 4);
    }

    #[test]
    fn try_lock_is_not_an_edge_target_or_double() {
        let src = r#"
            fn f() {
                let a = self.alpha.lock();
                if let Some(b) = self.alpha.try_lock() {
                    b.touch();
                }
            }
        "#;
        let a = analyze_one(src);
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn closure_body_gets_fresh_scope() {
        // The guard is held by the spawning code, not by the closure body
        // (it runs on another simulated process) — no violation inside.
        let src = r#"
            fn f(env: &Env) {
                let g = self.state.lock();
                handle.spawn("w", move |env| {
                    env.sleep(1);
                });
                drop(g);
            }
        "#;
        let a = analyze_one(src);
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn nested_closures_restore_outer_scope() {
        let src = r#"
            fn f(env: &Env) {
                let g = self.state.lock();
                run(move |env| {
                    inner(move |env| {
                        env.sleep(1);
                    });
                });
                env.sleep(1);
            }
        "#;
        let a = analyze_one(src);
        // Only the outer env.sleep (same scope as the guard) fires.
        assert_eq!(rules_of(&a), vec![RULE_GUARD_SUSPEND]);
        assert_eq!(a[0].line, 9);
    }

    #[test]
    fn resource_acquire_is_acquisition_and_suspend() {
        let src = r#"
            fn f(env: &Env) {
                let g = self.state.lock();
                let permit = self.arm.acquire(env);
            }
        "#;
        let a = analyze_one(src);
        // Holding `state` across the acquire's own suspend fires; the new
        // `arm` guard must not self-report (active only after the call).
        assert_eq!(rules_of(&a), vec![RULE_GUARD_SUSPEND]);
        assert!(a[0].message.contains("state"));
    }

    #[test]
    fn let_underscore_drops_immediately() {
        let src = r#"
            fn f(env: &Env) {
                let _ = self.state.lock();
                env.sleep(1);
            }
        "#;
        let a = analyze_one(src);
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn file_read_with_args_is_not_a_lock() {
        let src = r#"
            fn f(env: &Env) {
                let n = file.read(buf);
                let m = file.read(env, buf);
                env.sleep(1);
            }
        "#;
        // Neither read is a guard, so neither suspend is held across one.
        let a = analyze_one(src);
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn test_code_is_masked() {
        let src = r#"
            #[cfg(test)]
            mod tests {
                fn f(env: &Env) {
                    let g = self.state.lock();
                    env.sleep(1);
                }
            }
        "#;
        let a = analyze_one(src);
        assert!(a.is_empty(), "{a:?}");
    }

    #[test]
    fn waiver_cancels_and_unused_waiver_reports() {
        let src = r#"
            fn f(env: &Env) {
                let g = self.state.lock();
                // lint:allow(lock-guard-suspend): fixture exercises waivers
                env.sleep(1);
            }
            // lint:allow(lock-double-acquire): nothing here triggers this
            fn g() {}
        "#;
        let res = lint_source("crates/gvfs/src/fixture.rs", src);
        let rules: Vec<&str> = res.violations.iter().map(|v| v.rule).collect();
        assert_eq!(rules, vec![RULE_WAIVER]);
        assert_eq!(res.waivers_declared, 2);
        assert_eq!(res.waivers_used, 1);
    }

    #[test]
    fn raw_identifier_receiver_forms_a_class() {
        let src = r#"
            fn f() {
                let g = self.r#type.lock();
                let h = self.r#type.lock();
            }
        "#;
        let a = analyze_one(src);
        assert_eq!(rules_of(&a), vec![RULE_DOUBLE_ACQUIRE]);
        assert!(a[0].message.contains("`gvfs::fixture::type`"), "{a:?}");
    }
}
