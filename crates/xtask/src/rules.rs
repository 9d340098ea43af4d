//! The invariant rule catalog.
//!
//! Each rule scans the token stream of one file and emits violations.
//! Rules are lexical by design: they match token windows, not an AST,
//! which keeps the engine dependency-free and fast. The cost is a small
//! set of documented over-approximations (see DESIGN.md §5.2), bridged
//! by inline waivers.

use crate::lexer::{Comment, Lexed, Tok, TokKind};
use std::collections::BTreeSet;

/// Rule identifiers, in report order. The per-file token rules live in
/// this module; the two lock rules come from the lock walker in
/// [`crate::lockgraph`].
pub const RULE_DETERMINISM: &str = "determinism";
pub const RULE_BOUNDED_DECODE: &str = "bounded-decode";
pub const RULE_EXACT_ACCOUNTING: &str = "exact-accounting";
pub const RULE_PANIC_FREE: &str = "panic-free-dispatch";
pub const RULE_BOUNDED_FANOUT: &str = "bounded-fanout";
pub const RULE_CANONICAL_DIGEST: &str = "canonical-digest";
pub const RULE_ALLOC_FREE_RECORD: &str = "allocation-free-record";
pub const RULE_CAS_EVICTION: &str = "cas-eviction";
pub const RULE_UNSAFE_CONFINED: &str = "unsafe-confined";
pub const RULE_DECODE_RESULT: &str = "decode-result";
pub const RULE_GUARD_SUSPEND: &str = "lock-guard-suspend";
pub const RULE_DOUBLE_ACQUIRE: &str = "lock-double-acquire";
/// Meta-rule: malformed or unused waiver comments.
pub const RULE_WAIVER: &str = "waiver";

pub const ALL_RULES: &[&str] = &[
    RULE_DETERMINISM,
    RULE_BOUNDED_DECODE,
    RULE_EXACT_ACCOUNTING,
    RULE_PANIC_FREE,
    RULE_BOUNDED_FANOUT,
    RULE_CANONICAL_DIGEST,
    RULE_ALLOC_FREE_RECORD,
    RULE_CAS_EVICTION,
    RULE_UNSAFE_CONFINED,
    RULE_DECODE_RESULT,
    RULE_GUARD_SUSPEND,
    RULE_DOUBLE_ACQUIRE,
    RULE_WAIVER,
];

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    pub rule: &'static str,
    pub file: String,
    pub line: u32,
    pub col: u32,
    pub message: String,
}

/// The one file allowed to hold `unsafe` code: the simnet engine's stack
/// switch and stack mappings.
const UNSAFE_HOME: &str = "crates/simnet/src/engine.rs";

/// Scope of the bounded-decode rule: every module that decodes untrusted
/// wire bytes into sized allocations — all of the XDR, ONC-RPC and NFS
/// crates, and the four gvfs codec modules: the stream codec, the file
/// channel (whose gossip and recipe counts come from sibling shards and
/// the origin), meta-data files (which arrive as upstream READ replies,
/// paper §3.2.2) and the digest.
fn bounded_decode_scope(path: &str) -> bool {
    ["crates/xdr/src/", "crates/oncrpc/src/", "crates/nfs3/src/"]
        .iter()
        .any(|scope| path.starts_with(scope))
        || matches!(
            path,
            "crates/gvfs/src/codec.rs"
                | "crates/gvfs/src/channel.rs"
                | "crates/gvfs/src/meta.rs"
                | "crates/gvfs/src/digest.rs"
        )
}

/// Scope of the exact-accounting rule: byte-accounting and counter
/// modules where saturating/wrapping arithmetic hides real bugs.
fn exact_accounting_scope(path: &str) -> bool {
    path == "crates/gvfs/src/block_cache.rs"
        || path == "crates/gvfs/src/file_cache.rs"
        || path == "crates/simnet/src/telemetry.rs"
}

/// Scope of the bounded-fanout rule: the gvfs and nfs3 modules that fan
/// RPCs out over simnet, plus simnet itself. Per-item process spawns in a
/// loop put unbounded load on the WAN; the transfer engine
/// (`simnet::run_windowed`, in `fanout.rs`) is the one place allowed to
/// spawn workers from a loop, because its worker count is
/// `min(window, jobs)` by construction.
fn bounded_fanout_scope(path: &str) -> bool {
    ["crates/gvfs/src/", "crates/nfs3/src/", "crates/simnet/src/"]
        .iter()
        .any(|scope| path.starts_with(scope))
        && path != "crates/simnet/src/fanout.rs"
}

/// Scope of the canonical-digest rule: all gvfs modules except the
/// digest module itself. Content hashing anywhere else must route
/// through `gvfs::digest` — CAS keys, channel recipes and flush
/// acked-digest tracking only dedup correctly when every layer agrees
/// on what "the same bytes" means.
fn canonical_digest_scope(path: &str) -> bool {
    path.starts_with("crates/gvfs/src/") && path != "crates/gvfs/src/digest.rs"
}

/// Scope of the allocation-free-record rule: the telemetry module, whose
/// `record*` methods sit on every simulated I/O completion. A fleet run
/// records millions of samples; one allocation per sample turns the
/// percentile sketch into the scenario's real bottleneck.
fn alloc_free_record_scope(path: &str) -> bool {
    path == "crates/simnet/src/telemetry.rs"
}

/// Scope of the cas-eviction rule: all gvfs modules except the CAS
/// itself. Eviction decisions — and the pin check that guards them —
/// live only in cas.rs: a layer dropping content-store entries directly
/// can orphan a digest a live reference file still resolves through,
/// and the `cas.pin_blocked_evictions` counter stays truthful only
/// while insertion is the sole eviction point.
fn cas_eviction_scope(path: &str) -> bool {
    path.starts_with("crates/gvfs/src/") && path != "crates/gvfs/src/cas.rs"
}

/// Scope of the panic-free-dispatch rule: the four modules on the
/// untrusted request path (proxy → RPC dispatch → NFS server/kernel).
fn panic_free_scope(path: &str) -> bool {
    path == "crates/oncrpc/src/dispatch.rs"
        || path == "crates/nfs3/src/server.rs"
        || path == "crates/nfs3/src/kernel.rs"
        || path == "crates/gvfs/src/proxy.rs"
}

/// Run every per-file rule that applies to `path` over its lexed source.
/// Waiver and baseline application happen in the engine, not here.
pub fn check_file(path: &str, lexed: &Lexed) -> Vec<Violation> {
    let toks = &lexed.toks;
    let mask = test_mask(toks);
    let mut out = Vec::new();

    rule_determinism(path, toks, &mask, &mut out);
    if bounded_decode_scope(path) {
        rule_bounded_decode(path, toks, &mask, &mut out);
        rule_decode_result(path, toks, &mask, &mut out);
    }
    if exact_accounting_scope(path) {
        rule_exact_accounting(path, toks, &mask, &mut out);
    }
    if panic_free_scope(path) {
        rule_panic_free(path, toks, &mask, &mut out);
    }
    if bounded_fanout_scope(path) {
        rule_bounded_fanout(path, toks, &mask, &mut out);
    }
    if canonical_digest_scope(path) {
        rule_canonical_digest(path, toks, &mask, &mut out);
    }
    if alloc_free_record_scope(path) {
        rule_alloc_free_record(path, toks, &mask, &mut out);
    }
    if cas_eviction_scope(path) {
        rule_cas_eviction(path, toks, &mask, &mut out);
    }
    rule_unsafe_confined(path, toks, &lexed.comments, &mask, &mut out);

    out.sort_by(|a, b| (a.line, a.col, a.rule).cmp(&(b.line, b.col, b.rule)));
    out
}

// ---------------------------------------------------------------------------
// Shared token-stream analyses
// ---------------------------------------------------------------------------

/// Mark every token that belongs to test-only code: an item annotated
/// `#[test]` / `#[cfg(test)]` (or any attribute mentioning `test`, except
/// under `not(...)`), including nested `mod tests { ... }` bodies.
pub fn test_mask(toks: &[Tok]) -> Vec<bool> {
    let mut mask = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if toks[i].is_punct("#") && toks.get(i + 1).is_some_and(|t| t.is_punct("[")) {
            let mut j = i + 2;
            let mut depth = 1i32;
            let mut has_test = false;
            let mut has_not = false;
            while j < toks.len() && depth > 0 {
                let t = &toks[j];
                if t.is_punct("[") {
                    depth += 1;
                } else if t.is_punct("]") {
                    depth -= 1;
                } else if t.is_ident("test") {
                    has_test = true;
                } else if t.is_ident("not") {
                    has_not = true;
                }
                j += 1;
            }
            if has_test && !has_not {
                let end = item_end(toks, j);
                for m in mask.iter_mut().take(end).skip(i) {
                    *m = true;
                }
                i = end;
                continue;
            }
            i = j;
            continue;
        }
        i += 1;
    }
    mask
}

/// Find the end (exclusive token index) of the item starting at `i`:
/// either the matching `}` of its first body brace, or a terminating `;`
/// outside any parens/brackets. Skips leading attributes.
fn item_end(toks: &[Tok], mut i: usize) -> usize {
    // Skip further attributes stacked on the same item.
    while toks.get(i).is_some_and(|t| t.is_punct("#"))
        && toks.get(i + 1).is_some_and(|t| t.is_punct("["))
    {
        let mut depth = 1i32;
        i += 2;
        while i < toks.len() && depth > 0 {
            if toks[i].is_punct("[") {
                depth += 1;
            } else if toks[i].is_punct("]") {
                depth -= 1;
            }
            i += 1;
        }
    }
    let mut paren = 0i32;
    let mut bracket = 0i32;
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "[" => bracket += 1,
                "]" => bracket -= 1,
                "{" => {
                    // Body found; consume to its matching close brace.
                    let mut depth = 1i32;
                    i += 1;
                    while i < toks.len() && depth > 0 {
                        if toks[i].is_punct("{") {
                            depth += 1;
                        } else if toks[i].is_punct("}") {
                            depth -= 1;
                        }
                        i += 1;
                    }
                    return i;
                }
                ";" if paren == 0 && bracket == 0 => return i + 1,
                _ => {}
            }
        }
        i += 1;
    }
    toks.len()
}

/// For each token, the name of the innermost enclosing `fn`, if any.
fn enclosing_fns(toks: &[Tok]) -> Vec<Option<String>> {
    let mut out = vec![None; toks.len()];
    let mut stack: Vec<Option<String>> = Vec::new();
    let mut current: Option<String> = None;
    let mut pending: Option<String> = None;
    for (i, t) in toks.iter().enumerate() {
        out[i] = current.clone();
        if t.is_ident("fn") {
            if let Some(n) = toks.get(i + 1) {
                if n.kind == TokKind::Ident {
                    pending = Some(n.text.clone());
                }
            }
        } else if t.is_punct("{") {
            stack.push(current.clone());
            if let Some(p) = pending.take() {
                current = Some(p);
            }
        } else if t.is_punct("}") {
            current = stack.pop().flatten();
        } else if t.is_punct(";") && stack.is_empty() {
            pending = None; // trait method declaration without a body
        }
    }
    out
}

/// Collect names (locals, fields, type aliases) declared with a
/// `HashMap` type in this file. Lexical: `name: HashMap<..>`,
/// `let [mut] name = HashMap::new()/with_capacity(..)`, and
/// `type Alias = HashMap<..>` plus `name: Alias`.
fn hashmap_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut aliases: BTreeSet<String> = BTreeSet::new();
    let mut names: BTreeSet<String> = BTreeSet::new();

    // Pass 1: type aliases.
    for i in 0..toks.len() {
        if toks[i].is_ident("type")
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Ident)
            && toks.get(i + 2).is_some_and(|t| t.is_punct("="))
            && path_head_is(toks, i + 3, "HashMap")
        {
            aliases.insert(toks[i + 1].text.clone());
        }
    }

    // Pass 2: declarations.
    for i in 0..toks.len() {
        let t = &toks[i];
        let is_map_ty =
            t.is_ident("HashMap") || (t.kind == TokKind::Ident && aliases.contains(&t.text));
        if !is_map_ty {
            continue;
        }
        if let Some(name) = declared_name_before(toks, i) {
            names.insert(name);
        }
    }
    names
}

/// True when the (possibly `std::collections::`-qualified) path starting
/// at token `i` ends in `ident`.
fn path_head_is(toks: &[Tok], mut i: usize, ident: &str) -> bool {
    // Walk over `seg :: seg :: ... ident`
    loop {
        match toks.get(i) {
            Some(t) if t.kind == TokKind::Ident => {
                if toks.get(i + 1).is_some_and(|t| t.is_punct(":"))
                    && toks.get(i + 2).is_some_and(|t| t.is_punct(":"))
                {
                    i += 3;
                } else {
                    return t.text == ident;
                }
            }
            _ => return false,
        }
    }
}

/// Given a `HashMap` (or alias) type token at `i`, walk backwards to the
/// declared binding/field name, handling `name: HashMap`, qualified paths
/// (`name: std::collections::HashMap`), and `let [mut] name = HashMap::new()`.
fn declared_name_before(toks: &[Tok], i: usize) -> Option<String> {
    let mut j = i;
    // Step back over any `seg ::` path prefix.
    while j >= 3
        && toks[j - 1].is_punct(":")
        && toks[j - 2].is_punct(":")
        && toks[j - 3].kind == TokKind::Ident
    {
        j -= 3;
    }
    // Step back over reference/mutability sigils: `name: &mut HashMap<..>`.
    while j > 0 && (toks[j - 1].is_punct("&") || toks[j - 1].is_ident("mut")) {
        j -= 1;
    }
    if j == 0 {
        return None;
    }
    let prev = &toks[j - 1];
    if prev.is_punct(":") && j >= 2 && !toks[j - 2].is_punct(":") {
        // `name : HashMap<..>` annotation (field or let).
        let cand = &toks[j - 2];
        if cand.kind == TokKind::Ident {
            return Some(cand.text.clone());
        }
    } else if prev.is_punct("=") && j >= 2 && toks[j - 2].kind == TokKind::Ident {
        // `let [mut] name = HashMap::new()` — require a `let` shortly before.
        let name = &toks[j - 2];
        let before = if j >= 3 { Some(&toks[j - 3]) } else { None };
        let let_tok = match before {
            Some(t) if t.is_ident("mut") && j >= 4 => Some(&toks[j - 4]),
            other => other,
        };
        if let_tok.is_some_and(|t| t.is_ident("let")) {
            return Some(name.text.clone());
        }
    }
    None
}

// ---------------------------------------------------------------------------
// Rule 1: determinism
// ---------------------------------------------------------------------------

const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "drain",
    "retain",
];

fn rule_determinism(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Violation>) {
    let maps = hashmap_names(toks);
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident {
            continue;
        }
        match t.text.as_str() {
            "Instant" | "SystemTime" => out.push(Violation {
                rule: RULE_DETERMINISM,
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "wall-clock type `{}` breaks simulation determinism; use `SimEnv::now()` virtual time",
                    t.text
                ),
            }),
            "thread"
                if i >= 3
                    && toks[i - 1].is_punct(":")
                    && toks[i - 2].is_punct(":")
                    && toks[i - 3].is_ident("std") =>
            {
                out.push(Violation {
                    rule: RULE_DETERMINISM,
                    file: path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: "`std::thread` in simulation code; a simulation runs on one OS \
                              thread, so use `SimEnv::spawn` processes"
                        .to_string(),
                })
            }
            name if maps.contains(name) => {
                // `map.iter()`-family call on a HashMap-typed name.
                if toks.get(i + 1).is_some_and(|t| t.is_punct("."))
                    && toks
                        .get(i + 2)
                        .is_some_and(|t| t.kind == TokKind::Ident && ITER_METHODS.contains(&t.text.as_str()))
                    && toks.get(i + 3).is_some_and(|t| t.is_punct("("))
                {
                    out.push(Violation {
                        rule: RULE_DETERMINISM,
                        file: path.to_string(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "iteration over `HashMap`-typed `{}` has nondeterministic order; use BTreeMap",
                            t.text
                        ),
                    });
                }
                // `for x in map {` / `for x in &map {` direct iteration.
                if toks.get(i + 1).is_some_and(|t| t.is_punct("{")) && is_for_in_target(toks, i) {
                    out.push(Violation {
                        rule: RULE_DETERMINISM,
                        file: path.to_string(),
                        line: t.line,
                        col: t.col,
                        message: format!(
                            "`for` loop over `HashMap`-typed `{}` has nondeterministic order; use BTreeMap",
                            t.text
                        ),
                    });
                }
            }
            _ => {}
        }
    }
}

/// True when token `i` is the loop target of a `for .. in [&[mut]] <i>`.
fn is_for_in_target(toks: &[Tok], i: usize) -> bool {
    let mut j = i;
    while j > 0 && (toks[j - 1].is_punct("&") || toks[j - 1].is_ident("mut")) {
        j -= 1;
    }
    j > 0 && toks[j - 1].is_ident("in")
}

// ---------------------------------------------------------------------------
// Rule 2: bounded-decode
// ---------------------------------------------------------------------------

/// Identifiers allowed inside a "constant" size expression: primitive
/// casts plus SCREAMING_CASE constants.
fn size_expr_is_constant(args: &[&Tok]) -> bool {
    args.iter().all(|t| match t.kind {
        TokKind::Number => true,
        TokKind::Punct => true,
        TokKind::Ident => {
            matches!(
                t.text.as_str(),
                "as" | "usize"
                    | "u8"
                    | "u16"
                    | "u32"
                    | "u64"
                    | "u128"
                    | "i8"
                    | "i16"
                    | "i32"
                    | "i64"
                    | "i128"
            ) || t
                .text
                .chars()
                .all(|c| c.is_ascii_uppercase() || c.is_ascii_digit() || c == '_')
        }
        _ => false,
    })
}

/// Collect tokens of one argument/expression starting at `i` until a `,`
/// or the closing delimiter at depth 0. Returns (arg tokens, index after).
fn arg_tokens(toks: &[Tok], mut i: usize, close: &str) -> (Vec<usize>, usize) {
    let mut depth = 0i32;
    let mut arg = Vec::new();
    while i < toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => {
                    if depth == 0 && t.text == close {
                        return (arg, i);
                    }
                    depth -= 1;
                }
                "," | ";" if depth == 0 => return (arg, i),
                _ => {}
            }
        }
        arg.push(i);
        i += 1;
    }
    (arg, i)
}

fn rule_bounded_decode(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Violation>) {
    let fns = enclosing_fns(toks);
    let blessed = |i: usize| fns[i].as_deref().is_some_and(|f| f.starts_with("bounded_"));
    let mut push = |t: &Tok, what: &str| {
        out.push(Violation {
            rule: RULE_BOUNDED_DECODE,
            file: path.to_string(),
            line: t.line,
            col: t.col,
            message: format!(
                "{what} sized from a non-constant (possibly wire-decoded) value; \
                 route through `xdr::bounded_alloc(len, limit)`"
            ),
        })
    };
    for i in 0..toks.len() {
        if mask[i] || blessed(i) {
            continue;
        }
        let t = &toks[i];
        // Vec::with_capacity(expr)
        if t.is_ident("Vec")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(":"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(":"))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("with_capacity"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct("("))
        {
            let (arg, _) = arg_tokens(toks, i + 5, ")");
            let args: Vec<&Tok> = arg.iter().map(|&k| &toks[k]).collect();
            if !size_expr_is_constant(&args) {
                push(t, "`Vec::with_capacity`");
            }
        }
        // vec![elem; len]
        if t.is_ident("vec")
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("["))
        {
            let (_elem, semi) = arg_tokens(toks, i + 3, "]");
            if toks.get(semi).is_some_and(|t| t.is_punct(";")) {
                let (len, _) = arg_tokens(toks, semi + 1, "]");
                let args: Vec<&Tok> = len.iter().map(|&k| &toks[k]).collect();
                if !size_expr_is_constant(&args) {
                    push(t, "`vec![elem; len]`");
                }
            }
        }
        // .resize(len, ..) / .reserve(len) / .with_capacity on a collection path
        if t.is_punct(".")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is_ident("resize") || t.is_ident("reserve"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            let (arg, _) = arg_tokens(toks, i + 3, ")");
            let args: Vec<&Tok> = arg.iter().map(|&k| &toks[k]).collect();
            if !size_expr_is_constant(&args) {
                push(&toks[i + 1], &format!("`.{}`", toks[i + 1].text));
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 3: exact-accounting
// ---------------------------------------------------------------------------

fn rule_exact_accounting(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || t.kind != TokKind::Ident {
            continue;
        }
        if t.text == "saturating_sub" || t.text.starts_with("wrapping_") {
            out.push(Violation {
                rule: RULE_EXACT_ACCOUNTING,
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}` masks accounting bugs (PR 1 root cause); subtract exactly and \
                     assert the invariant instead",
                    t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 4: panic-free-dispatch
// ---------------------------------------------------------------------------

fn rule_panic_free(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        // .unwrap() / .expect(
        if t.is_punct(".")
            && toks
                .get(i + 1)
                .is_some_and(|t| t.is_ident("unwrap") || t.is_ident("expect"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            let m = &toks[i + 1];
            out.push(Violation {
                rule: RULE_PANIC_FREE,
                file: path.to_string(),
                line: m.line,
                col: m.col,
                message: format!(
                    "`.{}()` on the dispatch path; map the error to an RPC/NFS3 error reply",
                    m.text
                ),
            });
        }
        // panic!/unreachable!/todo!/unimplemented!
        if t.kind == TokKind::Ident
            && matches!(
                t.text.as_str(),
                "panic" | "unreachable" | "todo" | "unimplemented"
            )
            && toks.get(i + 1).is_some_and(|t| t.is_punct("!"))
        {
            out.push(Violation {
                rule: RULE_PANIC_FREE,
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: format!(
                    "`{}!` on the dispatch path; map the error to an RPC/NFS3 error reply",
                    t.text
                ),
            });
        }
        // expr[<int literal>] indexing
        if t.is_punct("[")
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].is_punct(")")
                || toks[i - 1].is_punct("]"))
            && toks.get(i + 1).is_some_and(|t| t.kind == TokKind::Number)
            && toks.get(i + 2).is_some_and(|t| t.is_punct("]"))
        {
            // Exclude attribute position `#[..]` and array types `[u8; 4]`
            // (their `[` is not preceded by an expression token).
            out.push(Violation {
                rule: RULE_PANIC_FREE,
                file: path.to_string(),
                line: t.line,
                col: t.col,
                message: "literal slice index can panic on short input; use `.get()` and map \
                          the failure to an error reply"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 5: bounded-fanout
// ---------------------------------------------------------------------------

fn rule_bounded_fanout(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Violation>) {
    let mut depth = 0i32;
    // Brace depths of currently-open loop bodies.
    let mut loop_bodies: Vec<i32> = Vec::new();
    // A loop keyword was seen; the next body-opening `{` belongs to it.
    let mut pending_loop = false;
    let mut paren = 0i32;
    for i in 0..toks.len() {
        let t = &toks[i];
        if t.kind == TokKind::Punct {
            match t.text.as_str() {
                "(" => paren += 1,
                ")" => paren -= 1,
                "{" => {
                    depth += 1;
                    if pending_loop && paren == 0 {
                        loop_bodies.push(depth);
                        pending_loop = false;
                    }
                }
                "}" => {
                    depth -= 1;
                    loop_bodies.retain(|d| *d <= depth);
                }
                _ => {}
            }
        }
        if mask[i] {
            continue;
        }
        if t.kind == TokKind::Ident && matches!(t.text.as_str(), "for" | "while" | "loop") {
            pending_loop = true;
        }
        // `.spawn(` inside a loop body: per-item process fan-out.
        if !loop_bodies.is_empty()
            && t.is_punct(".")
            && toks.get(i + 1).is_some_and(|t| t.is_ident("spawn"))
            && toks.get(i + 2).is_some_and(|t| t.is_punct("("))
        {
            let m = &toks[i + 1];
            out.push(Violation {
                rule: RULE_BOUNDED_FANOUT,
                file: path.to_string(),
                line: m.line,
                col: m.col,
                message: "process spawn inside a loop is unbounded RPC fan-out; route the \
                          jobs through `simnet::run_windowed` (bounded window)"
                    .to_string(),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 6: canonical-digest
// ---------------------------------------------------------------------------

/// Identifiers that signal an ad-hoc content hash implementation.
const ADHOC_HASH_IDENTS: &[&str] = &[
    "fnv1a",
    "DefaultHasher",
    "SipHasher",
    "Hasher",
    "md5",
    "sha1",
    "sha256",
    "crc32",
];

/// FNV-1a offset basis and prime — the classic seeds of a hand-rolled
/// content hash — normalized (lowercase, underscores stripped).
const FNV_LITERALS: &[&str] = &["0xcbf29ce484222325", "0x100000001b3"];

/// Lowercase a number literal, strip `_` separators and any trailing
/// integer type suffix, so `0xCBf2_9CE4_8422_2325u64` compares equal to
/// its canonical spelling.
fn normalized_number(text: &str) -> String {
    let mut n: String = text
        .chars()
        .filter(|c| *c != '_')
        .map(|c| c.to_ascii_lowercase())
        .collect();
    for suffix in [
        "usize", "u128", "u64", "u32", "u16", "u8", "isize", "i128", "i64", "i32", "i16", "i8",
    ] {
        if let Some(stripped) = n.strip_suffix(suffix) {
            n = stripped.to_string();
            break;
        }
    }
    n
}

fn rule_canonical_digest(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Violation>) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] {
            continue;
        }
        match t.kind {
            TokKind::Ident if ADHOC_HASH_IDENTS.contains(&t.text.as_str()) => {
                out.push(Violation {
                    rule: RULE_CANONICAL_DIGEST,
                    file: path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "ad-hoc hasher `{}` on a gvfs data path; all content hashing goes \
                         through `gvfs::digest::digest` so CAS keys, channel recipes and \
                         flush acks agree on one digest",
                        t.text
                    ),
                });
            }
            TokKind::Number if FNV_LITERALS.contains(&normalized_number(&t.text).as_str()) => {
                out.push(Violation {
                    rule: RULE_CANONICAL_DIGEST,
                    file: path.to_string(),
                    line: t.line,
                    col: t.col,
                    message: format!(
                        "FNV constant `{}` signals a hand-rolled content hash; use \
                         `gvfs::digest::digest` instead",
                        t.text
                    ),
                });
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 7: allocation-free-record
// ---------------------------------------------------------------------------

/// Method names whose call (`.name(`) allocates or may reallocate.
const ALLOC_METHODS: &[&str] = &[
    "to_string",
    "to_owned",
    "to_vec",
    "collect",
    "with_capacity",
    "push",
    "push_str",
    "insert",
    "extend",
];

/// Type paths whose associated functions (`Name::…`) hand out heap
/// storage.
const ALLOC_TYPES: &[&str] = &["String", "Vec", "VecDeque", "Box", "BTreeMap", "HashMap"];

/// If the token at `k` is an allocation inside a record body, name it.
fn alloc_token(toks: &[Tok], k: usize) -> Option<String> {
    let t = &toks[k];
    if t.kind != TokKind::Ident {
        return None;
    }
    let next_is = |s: &str| toks.get(k + 1).is_some_and(|n| n.is_punct(s));
    let prev_is = |s: &str| k > 0 && toks[k - 1].is_punct(s);
    if matches!(t.text.as_str(), "format" | "vec") && next_is("!") {
        return Some(format!("{}!", t.text));
    }
    if ALLOC_TYPES.contains(&t.text.as_str()) && next_is("::") {
        return Some(format!("{}::", t.text));
    }
    if ALLOC_METHODS.contains(&t.text.as_str()) && prev_is(".") && next_is("(") {
        return Some(format!(".{}()", t.text));
    }
    None
}

/// The telemetry `record*` methods are the per-sample hot path: every
/// simulated I/O completion, RPC round-trip and clone latency sample
/// lands in one. They must touch `Cell`s only — no heap traffic. The
/// rule scans each `fn record*` body for allocating macros, allocating
/// associated functions and (re)allocating method calls.
fn rule_alloc_free_record(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Violation>) {
    let mut i = 0;
    while i < toks.len() {
        let name_ok = toks.get(i + 1).is_some_and(|n| {
            n.kind == TokKind::Ident && (n.text == "record" || n.text.starts_with("record_"))
        });
        if mask[i] || !toks[i].is_ident("fn") || !name_ok {
            i += 1;
            continue;
        }
        let fn_name = toks[i + 1].text.clone();
        // Find the body's opening `{` (a `;` first means a bodiless
        // trait-method declaration).
        let mut j = i + 2;
        let mut paren = 0i32;
        while j < toks.len() {
            let p = &toks[j];
            if p.kind == TokKind::Punct {
                match p.text.as_str() {
                    "(" | "[" => paren += 1,
                    ")" | "]" => paren -= 1,
                    ";" if paren == 0 => break,
                    "{" if paren == 0 => break,
                    _ => {}
                }
            }
            j += 1;
        }
        if j >= toks.len() || !toks[j].is_punct("{") {
            i = j;
            continue;
        }
        // Walk the body to its matching `}`, flagging allocations.
        let mut depth = 0i32;
        let mut k = j;
        while k < toks.len() {
            let p = &toks[k];
            if p.kind == TokKind::Punct {
                match p.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if !mask[k] {
                if let Some(what) = alloc_token(toks, k) {
                    out.push(Violation {
                        rule: RULE_ALLOC_FREE_RECORD,
                        file: path.to_string(),
                        line: p.line,
                        col: p.col,
                        message: format!(
                            "`{what}` allocates inside `{fn_name}`; telemetry record paths \
                             run once per simulated sample and must stay allocation-free \
                             (cells in preallocated buckets only)"
                        ),
                    });
                }
            }
            k += 1;
        }
        i = k + 1;
    }
}

// ---------------------------------------------------------------------------
// Rule 8: cas-eviction
// ---------------------------------------------------------------------------

/// Entry-dropping methods that, invoked on a content store outside
/// cas.rs, constitute direct eviction (any `evict*` name is flagged
/// too).
const CAS_EVICTION_METHODS: &[&str] = &["remove", "clear", "drain", "retain", "truncate", "pop"];

/// Collect names bound to a `ContentStore` in this file — fields or
/// locals annotated `name: [&][Rc<]ContentStore`, plus
/// `let [mut] name = ContentStore::new(..)` bindings — and the
/// conventional receiver name `cas` itself. Lexical over-approximation
/// in the style of `hashmap_names`; bridge intentional exceptions with
/// a waiver.
fn cas_names(toks: &[Tok]) -> BTreeSet<String> {
    let mut names: BTreeSet<String> = BTreeSet::new();
    names.insert("cas".to_string());
    for i in 0..toks.len() {
        if !toks[i].is_ident("ContentStore") {
            continue;
        }
        // Step back over wrapper generics: `Rc<`, `Option<Rc<`, …
        let mut j = i;
        while j >= 2 && toks[j - 1].is_punct("<") && toks[j - 2].kind == TokKind::Ident {
            j -= 2;
        }
        if let Some(name) = declared_name_before(toks, j) {
            names.insert(name);
        }
    }
    names
}

/// The CAS evicts itself: `ContentStore::insert` is the one eviction
/// point, behind the pin check. Any other gvfs layer calling an
/// entry-dropping method on a content store bypasses the pin ledger —
/// a recipe held by a live reference file could silently lose the bytes
/// its digests resolve through.
fn rule_cas_eviction(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Violation>) {
    let stores = cas_names(toks);
    for i in 0..toks.len() {
        if mask[i] {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !stores.contains(&t.text) {
            continue;
        }
        if !toks.get(i + 1).is_some_and(|t| t.is_punct(".")) {
            continue;
        }
        let Some(m) = toks.get(i + 2) else { continue };
        let evicting = m.kind == TokKind::Ident
            && (m.text.starts_with("evict") || CAS_EVICTION_METHODS.contains(&m.text.as_str()));
        if evicting && toks.get(i + 3).is_some_and(|t| t.is_punct("(")) {
            out.push(Violation {
                rule: RULE_CAS_EVICTION,
                file: path.to_string(),
                line: m.line,
                col: m.col,
                message: format!(
                    "`.{}()` on content store `{}` evicts outside cas.rs; eviction lives \
                     behind the pin ledger in `ContentStore::insert` — dropping CAS entries \
                     directly can orphan digests a live reference file still resolves \
                     through, and blinds `cas.pin_blocked_evictions`",
                    m.text, t.text
                ),
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Rule 9: unsafe-confined
// ---------------------------------------------------------------------------

/// `unsafe` belongs to the engine's coroutine switch and nowhere else, and
/// even there every use carries its proof: an own-line `// SAFETY:`
/// comment block ending on the line directly above.
fn rule_unsafe_confined(
    path: &str,
    toks: &[Tok],
    comments: &[Comment],
    mask: &[bool],
    out: &mut Vec<Violation>,
) {
    for (i, t) in toks.iter().enumerate() {
        if mask[i] || !t.is_ident("unsafe") {
            continue;
        }
        let message = if path != UNSAFE_HOME {
            format!(
                "`unsafe` outside `{UNSAFE_HOME}`; the engine's stack switch is the one place \
                 the workspace trusts hand-checked code"
            )
        } else if !has_safety_comment(comments, t.line) {
            "`unsafe` without a `// SAFETY:` comment directly above it; say why the \
             operation is sound here"
                .to_string()
        } else {
            continue;
        };
        out.push(Violation {
            rule: RULE_UNSAFE_CONFINED,
            file: path.to_string(),
            line: t.line,
            col: t.col,
            message,
        });
    }
}

/// Whether the run of own-line comments ending on the line above `line`
/// opens with `SAFETY:`.
fn has_safety_comment(comments: &[Comment], line: u32) -> bool {
    let mut first = None;
    let mut want = line.saturating_sub(1);
    for c in comments.iter().rev().skip_while(|c| c.line >= line) {
        if c.line != want || !c.own_line {
            break;
        }
        first = Some(c);
        want = want.saturating_sub(1);
    }
    first.is_some_and(|c| {
        c.text
            .trim_start_matches(['/', '*', '!'])
            .trim_start()
            .starts_with("SAFETY:")
    })
}

// ---------------------------------------------------------------------------
// Rule 10: decode-result
// ---------------------------------------------------------------------------

/// A decoder in the bounded-decode scope — a function named `decode*` or
/// `from_bytes` — returns a `Result` whose error says why the bytes were
/// refused; an `Option` drops the cause (truncated? over a limit? a bad
/// tag?) before anyone can log or count it.
fn rule_decode_result(path: &str, toks: &[Tok], mask: &[bool], out: &mut Vec<Violation>) {
    for i in 0..toks.len() {
        if mask[i] || !toks[i].is_ident("fn") {
            continue;
        }
        let Some(name) = toks.get(i + 1).filter(|t| t.kind == TokKind::Ident) else {
            continue;
        };
        if !(name.text.starts_with("decode") || name.text == "from_bytes") {
            continue;
        }
        if let Some(ret) = return_type_head(toks, i + 2).filter(|t| t.is_ident("Option")) {
            out.push(Violation {
                rule: RULE_DECODE_RESULT,
                file: path.to_string(),
                line: ret.line,
                col: ret.col,
                message: format!(
                    "decoder `{}` returns `Option`; return a `Result` whose error says \
                     why the bytes were refused",
                    name.text
                ),
            });
        }
    }
}

/// The last path segment of the return type of the signature starting
/// at `i` (after the name): `Option` for `-> std::option::Option<T>`.
/// `None` when the function returns `()`. An arrow inside the parameters
/// (`f: impl Fn(u8) -> u8`) is skipped whole.
fn return_type_head(toks: &[Tok], mut i: usize) -> Option<&Tok> {
    let mut depth = 0i32;
    while let Some(t) = toks.get(i) {
        let arrow = t.is_punct("-") && toks.get(i + 1).is_some_and(|t| t.is_punct(">"));
        if arrow && depth == 0 {
            let mut head = None;
            for t in &toks[i + 2..] {
                if t.kind == TokKind::Ident && t.text != "where" {
                    head = Some(t);
                } else if !(t.is_punct(":") || t.is_punct("&")) {
                    break;
                }
            }
            return head;
        }
        if arrow {
            i += 2;
            continue;
        }
        if t.is_punct("(") || t.is_punct("[") || t.is_punct("<") {
            depth += 1;
        } else if t.is_punct(")") || t.is_punct("]") || t.is_punct(">") {
            depth -= 1;
        } else if (t.is_punct("{") || t.is_punct(";")) && depth == 0 {
            return None;
        }
        i += 1;
    }
    None
}
