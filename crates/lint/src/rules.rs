//! The seven invariant lints. Each rule is deny-by-default; escape hatches
//! are `// lint:allow(<rule>, reason = "...")` (EOL for one line,
//! own-line for the following construct) and, for ordering sites,
//! `// sync: <what this orders>`.

use std::collections::HashSet;

use crate::lexer::{TokKind, Token};
use crate::registry::*;
use crate::scan::FileScan;
use crate::{Finding, Workspace};

pub const RULES: &[&str] = &[
    "relaxed_hygiene",
    "checkpoint_coverage",
    "counter_parity",
    "no_panic_in_serve",
    "taxonomy_exhaustiveness",
    "lock_hold",
    "trace_names",
];

const ORDERINGS: &[&str] = &["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];

/// Walk back from `from` to the opening `(` of the call the token at
/// `from` is an argument of. Returns the index of that `(`, or None if a
/// statement boundary is hit first (e.g. a `use` import of an Ordering
/// variant is not a call site).
fn enclosing_call_open(toks: &[Token], from: usize) -> Option<usize> {
    let mut depth = 0usize;
    let mut j = from;
    while j > 0 {
        j -= 1;
        let t = &toks[j];
        if t.is_punct(')') || t.is_punct(']') {
            depth += 1;
        } else if t.is_punct('(') || t.is_punct('[') {
            if depth == 0 {
                return if t.is_punct('(') { Some(j) } else { None };
            }
            depth -= 1;
        } else if depth == 0 && (t.is_punct(';') || t.is_punct('{') || t.is_punct('}')) {
            return None;
        }
    }
    None
}

/// Given the index of a call's opening `(`, extract `(receiver, method)`
/// for a `recv.method(...)` chain. The receiver is the nearest field or
/// binding identifier, skipping back over `[idx]` / `(args)` links.
fn call_receiver_method(toks: &[Token], open: usize) -> (String, String) {
    if open == 0 || toks[open - 1].kind != TokKind::Ident {
        return ("?".into(), "?".into());
    }
    let method = toks[open - 1].text.clone();
    let mut r = open.wrapping_sub(2);
    if open < 2 || !toks[r].is_punct('.') {
        return ("?".into(), method);
    }
    // toks[r] is the '.', step to what precedes it.
    if r == 0 {
        return ("?".into(), method);
    }
    r -= 1;
    // Skip balanced `)`/`]` groups (chained calls, index expressions).
    loop {
        if toks[r].is_punct(')') || toks[r].is_punct(']') {
            let mut depth = 0usize;
            loop {
                let t = &toks[r];
                if t.is_punct(')') || t.is_punct(']') {
                    depth += 1;
                } else if t.is_punct('(') || t.is_punct('[') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                if r == 0 {
                    return ("?".into(), method);
                }
                r -= 1;
            }
            if r == 0 {
                return ("?".into(), method);
            }
            r -= 1;
            // A call like `registry().lock()` → the ident before `(` is
            // the receiver-producing function; fall through to ident.
            continue;
        }
        break;
    }
    if toks[r].kind == TokKind::Ident {
        (toks[r].text.clone(), method)
    } else {
        ("?".into(), method)
    }
}

/// relaxed-hygiene: every `Ordering::Relaxed` site must be a registered
/// monotonic counter or carry a `// sync:` justification; every
/// Acquire/Release/AcqRel/SeqCst site must state what it orders.
pub fn relaxed_hygiene(f: &FileScan) -> Vec<Finding> {
    let mut out = Vec::new();
    let mut seen: HashSet<(u32, String, String)> = HashSet::new();
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokKind::Ident || !ORDERINGS.contains(&t.text.as_str()) {
            continue;
        }
        // Qualified `Ordering::<Variant>` — the only unambiguous form;
        // `std::cmp::Ordering` variants (Less/Equal/Greater) never collide.
        let qualified = i >= 3
            && toks[i - 1].is_punct(':')
            && toks[i - 2].is_punct(':')
            && toks[i - 3].is_ident("Ordering");
        // Bare variant in argument position, for files that
        // `use ...::Ordering::Relaxed` directly (e.g. ir::index).
        let bare = !qualified
            && i >= 1
            && i + 1 < toks.len()
            && (toks[i - 1].is_punct('(') || toks[i - 1].is_punct(','))
            && (toks[i + 1].is_punct(')') || toks[i + 1].is_punct(','));
        if !qualified && !bare {
            continue;
        }
        if f.in_test(t.line) {
            continue;
        }
        let anchor = if qualified { i - 3 } else { i };
        let open = match enclosing_call_open(toks, anchor) {
            Some(o) => o,
            None => continue, // `use` import or const position, not a call site
        };
        let (receiver, method) = call_receiver_method(toks, open);
        if !seen.insert((t.line, t.text.clone(), method.clone())) {
            continue;
        }
        let lo = f.stmt_start_line(i);
        let hi = t.line;
        if f.allowed("relaxed_hygiene", lo, hi) {
            continue;
        }
        if t.text == "Relaxed" {
            let counter_ok = COUNTER_METHODS.contains(&method.as_str())
                && MONOTONIC_COUNTERS.contains(&receiver.as_str());
            if counter_ok || f.synced(lo, hi) {
                continue;
            }
            out.push(Finding {
                path: f.path.clone(),
                line: t.line,
                rule: "relaxed_hygiene",
                message: format!(
                    "`{receiver}.{method}(Ordering::Relaxed)` is not a registered monotonic counter and has no justification"
                ),
                hint: "register the field in registry::MONOTONIC_COUNTERS if it is a pure counter, add `// sync: <why relaxed is safe>`, or use a stronger ordering".into(),
            });
        } else {
            if f.synced(lo, hi) {
                continue;
            }
            out.push(Finding {
                path: f.path.clone(),
                line: t.line,
                rule: "relaxed_hygiene",
                message: format!(
                    "`{receiver}.{method}(Ordering::{})` does not state what it synchronizes",
                    t.text
                ),
                hint: "add `// sync: <what this pairs with>` on the statement or the line above"
                    .into(),
            });
        }
    }
    out
}

/// checkpoint-coverage: data-proportional loops in the hot files must
/// contain a `Deadline::checkpoint()` so request deadlines stay honest.
pub fn checkpoint_coverage(f: &FileScan) -> Vec<Finding> {
    if !HOT_LOOP_FILES
        .iter()
        .any(|h| f.path == *h || f.path.ends_with(h))
    {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        let is_loop_kw = t.is_ident("for") || t.is_ident("while") || t.is_ident("loop");
        if !is_loop_kw || f.in_test(t.line) {
            continue;
        }
        // `impl Trait for Type` — not a loop.
        if t.is_ident("for")
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident || toks[i - 1].is_punct('>'))
        {
            continue;
        }
        // Find the body's opening brace at bracket depth 0.
        let mut depth = 0isize;
        let mut open = None;
        for (off, u) in toks[i + 1..].iter().enumerate() {
            if u.is_punct('(') || u.is_punct('[') {
                depth += 1;
            } else if u.is_punct(')') || u.is_punct(']') {
                depth -= 1;
            } else if depth == 0 && u.is_punct('{') {
                open = Some(i + 1 + off);
                break;
            } else if depth == 0 && u.is_punct(';') {
                break;
            }
        }
        let open = match open {
            Some(o) => o,
            None => continue,
        };
        let close = f.matching_brace(open);
        let body_lines = toks[close].line.saturating_sub(toks[open].line);
        if body_lines < CHECKPOINT_MIN_BODY_LINES {
            continue;
        }
        let has_checkpoint = toks[open..close]
            .iter()
            .any(|u| u.is_ident("checkpoint") || u.is_ident("checkpoint_now"));
        if has_checkpoint || f.allowed("checkpoint_coverage", t.line, t.line) {
            continue;
        }
        out.push(Finding {
            path: f.path.clone(),
            line: t.line,
            rule: "checkpoint_coverage",
            message: format!(
                "data-proportional loop (body spans {body_lines} lines) without Deadline::checkpoint()"
            ),
            hint: "call `deadline.checkpoint()` (or checkpoint_now) inside the loop, or annotate with lint:allow(checkpoint_coverage, reason = \"...\") if the trip count is bounded".into(),
        });
    }
    out
}

/// no-panic-in-serve: unwrap/expect/panicking macros/indexing in the
/// server's request-handling modules must be annotated or removed —
/// a panic there is a customer-visible 500.
pub fn no_panic_in_serve(f: &FileScan) -> Vec<Finding> {
    if !f.path.contains(SERVE_PATH_PREFIX) && !f.path.contains("server/src/") {
        return Vec::new();
    }
    let mut out = Vec::new();
    let toks = &f.tokens;
    for (i, t) in toks.iter().enumerate() {
        if f.in_test(t.line) {
            continue;
        }
        let lo = f.stmt_start_line(i);
        let hi = t.line;
        // `.unwrap()` / `.expect(`
        if (t.is_ident("unwrap") || t.is_ident("expect"))
            && i > 0
            && toks[i - 1].is_punct('.')
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('(')
        {
            if f.allowed("no_panic_in_serve", lo, hi) {
                continue;
            }
            out.push(Finding {
                path: f.path.clone(),
                line: t.line,
                rule: "no_panic_in_serve",
                message: format!("`.{}()` can panic on the request path", t.text),
                hint: "return a typed error (taxonomy-mapped) instead, or annotate with lint:allow(no_panic_in_serve, reason = \"...\") if the invariant is locally provable".into(),
            });
            continue;
        }
        // panicking macros (debug_assert* is compiled out of release)
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && i + 1 < toks.len()
            && toks[i + 1].is_punct('!')
        {
            if f.allowed("no_panic_in_serve", lo, hi) {
                continue;
            }
            out.push(Finding {
                path: f.path.clone(),
                line: t.line,
                rule: "no_panic_in_serve",
                message: format!("`{}!` panics on the request path", t.text),
                hint: "convert to a typed error or debug_assert!, or annotate with a reason".into(),
            });
            continue;
        }
        // indexing: `expr[...]` — panics on out-of-bounds
        if t.is_punct('[')
            && i > 0
            && (toks[i - 1].kind == TokKind::Ident
                || toks[i - 1].is_punct(')')
                || toks[i - 1].is_punct(']'))
        {
            if f.allowed("no_panic_in_serve", lo, hi) {
                continue;
            }
            let what = if toks[i - 1].kind == TokKind::Ident {
                format!("`{}[..]`", toks[i - 1].text)
            } else {
                "indexing".to_string()
            };
            out.push(Finding {
                path: f.path.clone(),
                line: t.line,
                rule: "no_panic_in_serve",
                message: format!("{what} can panic on out-of-bounds access on the request path"),
                hint: "use .get()/.get_mut() with explicit handling, or annotate with the bounds argument".into(),
            });
        }
    }
    out
}

/// Parse the `CacheReport::fields()` body in core/db.rs, returning
/// `(metric name, kind ident, line)` triples.
fn parse_fields(db: &FileScan) -> Vec<(String, String, u32)> {
    let toks = &db.tokens;
    let mut out = Vec::new();
    let Some(fn_idx) = toks
        .windows(2)
        .position(|w| w[0].is_ident("fn") && w[1].is_ident("fields"))
    else {
        return out;
    };
    let Some(open_off) = toks[fn_idx..].iter().position(|t| t.is_punct('{')) else {
        return out;
    };
    let open = fn_idx + open_off;
    let close = db.matching_brace(open);
    for j in open..close.saturating_sub(3) {
        if toks[j].kind == TokKind::Str
            && toks[j + 1].is_punct(',')
            && toks[j + 2].kind == TokKind::Ident
            && matches!(toks[j + 2].text.as_str(), "Counter" | "Gauge" | "Cache")
            && toks[j + 3].is_punct('(')
        {
            out.push((toks[j].text.clone(), toks[j + 2].text.clone(), toks[j].line));
        }
    }
    out
}

/// counter-parity: every `CacheReport::fields()` counter has ≥1
/// increment site; /stats and /metrics both render from `fields()`;
/// every declared trace stage is opened somewhere.
pub fn counter_parity(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();

    if let Some(db) = ws
        .files
        .iter()
        .find(|f| f.path.ends_with(FIELDS_FILE_SUFFIX))
    {
        let fields = parse_fields(db);
        for (name, kind, line) in &fields {
            if kind != "Counter" {
                continue;
            }
            let field = COUNTER_ALIASES
                .iter()
                .find(|(metric, _)| metric == name)
                .map(|(_, f)| *f)
                .unwrap_or(name.as_str());
            let bumped = ws.files.iter().any(|f| {
                f.tokens.windows(3).any(|w| {
                    w[0].is_ident(field)
                        && w[1].is_punct('.')
                        && w[2].is_ident("fetch_add")
                        && !f.in_test(w[0].line)
                })
            });
            if bumped || db.allowed("counter_parity", *line, *line) {
                continue;
            }
            out.push(Finding {
                path: db.path.clone(),
                line: *line,
                rule: "counter_parity",
                message: format!(
                    "counter `{name}` is declared in CacheReport::fields() but never incremented (no `{field}.fetch_add` site)"
                ),
                hint: "bump the counter where the event happens, or delete the dead metric".into(),
            });
        }

        // Both renderers must walk fields() so /stats and /metrics can
        // never drift apart.
        if let Some(svc) = ws
            .files
            .iter()
            .find(|f| f.path.ends_with(SERVICE_FILE_SUFFIX))
        {
            for renderer in ["render_stats", "render_prometheus"] {
                let Some(fn_idx) = svc
                    .tokens
                    .windows(2)
                    .position(|w| w[0].is_ident("fn") && w[1].is_ident(renderer))
                else {
                    out.push(Finding {
                        path: svc.path.clone(),
                        line: 1,
                        rule: "counter_parity",
                        message: format!("expected a `{renderer}` function rendering CacheReport::fields()"),
                        hint: "render both /stats and /metrics from the single fields() source of truth".into(),
                    });
                    continue;
                };
                let Some(open_off) = svc.tokens[fn_idx..].iter().position(|t| t.is_punct('{'))
                else {
                    continue;
                };
                let open = fn_idx + open_off;
                let close = svc.matching_brace(open);
                let walks_fields = svc.tokens[open..close]
                    .windows(3)
                    .any(|w| w[0].is_punct('.') && w[1].is_ident("fields") && w[2].is_punct('('));
                if !walks_fields
                    && !svc.allowed(
                        "counter_parity",
                        svc.tokens[fn_idx].line,
                        svc.tokens[fn_idx].line,
                    )
                {
                    out.push(Finding {
                        path: svc.path.clone(),
                        line: svc.tokens[fn_idx].line,
                        rule: "counter_parity",
                        message: format!("`{renderer}` does not render from CacheReport::fields()"),
                        hint: "iterate report.fields() so /stats and /metrics stay in lockstep"
                            .into(),
                    });
                }
            }
        }
    }

    // Every declared trace stage must be opened by a span() somewhere.
    if let Some(tr) = ws
        .files
        .iter()
        .find(|f| f.path.ends_with(STAGES_FILE_SUFFIX))
    {
        for (stage, line) in declared_names(tr, "STAGES") {
            let opened = ws.files.iter().any(|f| {
                !f.path.ends_with(STAGES_FILE_SUFFIX)
                    && f.tokens.windows(3).any(|w| {
                        w[0].is_ident("span")
                            && w[1].is_punct('(')
                            && w[2].kind == TokKind::Str
                            && w[2].text == stage
                            && !f.in_test(w[2].line)
                    })
            });
            if opened || tr.allowed("counter_parity", line, line) {
                continue;
            }
            out.push(Finding {
                path: tr.path.clone(),
                line,
                rule: "counter_parity",
                message: format!(
                    "trace stage \"{stage}\" is declared but never opened by a span() call"
                ),
                hint:
                    "open the stage on the query path (ctx.span(\"...\")) or remove it from STAGES"
                        .into(),
            });
        }
    }

    out
}

/// The string literals of the trace crate's `const <name> = [...]` table
/// (`STAGES` or `COUNTERS`), with their lines.
fn declared_names(tr: &FileScan, name: &str) -> Vec<(String, u32)> {
    let toks = &tr.tokens;
    let mut names = Vec::new();
    let Some(decl) = toks.iter().position(|t| t.is_ident(name)) else {
        return names;
    };
    // Scan to the initializer `[` after `=`, then collect strings.
    let mut j = decl;
    while j < toks.len() && !toks[j].is_punct('=') {
        j += 1;
    }
    while j < toks.len() && !toks[j].is_punct('[') {
        j += 1;
    }
    while j < toks.len() && !toks[j].is_punct(']') {
        if toks[j].kind == TokKind::Str {
            names.push((toks[j].text.clone(), toks[j].line));
        }
        j += 1;
    }
    names
}

/// trace-names: every string literal passed to `span(..)`, the free
/// `count(stage, counter, n)`, or `SpanGuard::count(counter, n)` names a
/// stage in `STAGES` / a counter in `COUNTERS` of the trace crate. The
/// trace resolves names at runtime and panics on an unknown one — under
/// an armed trace (every served request) that is a 500.
pub fn trace_names(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(tr) = ws
        .files
        .iter()
        .find(|f| f.path.ends_with(STAGES_FILE_SUFFIX))
    else {
        return out;
    };
    let stages: HashSet<String> = declared_names(tr, "STAGES")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    let counters: HashSet<String> = declared_names(tr, "COUNTERS")
        .into_iter()
        .map(|(n, _)| n)
        .collect();
    for f in &ws.files {
        let toks = &f.tokens;
        for (i, t) in toks.iter().enumerate() {
            let is_call = |name: &str| {
                t.is_ident(name)
                    && i + 2 < toks.len()
                    && toks[i + 1].is_punct('(')
                    && toks[i + 2].kind == TokKind::Str
            };
            let method = i > 0 && toks[i - 1].is_punct('.');
            // (literal index, declared table, table name) per checked argument.
            let mut args: Vec<(usize, &HashSet<String>, &str)> = Vec::new();
            if is_call("span") {
                args.push((i + 2, &stages, "STAGES"));
            } else if is_call("count") && method {
                args.push((i + 2, &counters, "COUNTERS"));
            } else if is_call("count")
                && i + 4 < toks.len()
                && toks[i + 3].is_punct(',')
                && toks[i + 4].kind == TokKind::Str
            {
                args.push((i + 2, &stages, "STAGES"));
                args.push((i + 4, &counters, "COUNTERS"));
            }
            for (at, declared, table) in args {
                let name = &toks[at].text;
                let line = toks[at].line;
                if declared.contains(name)
                    || f.in_test(line)
                    || f.allowed("trace_names", f.stmt_start_line(i), line)
                {
                    continue;
                }
                out.push(Finding {
                    path: f.path.clone(),
                    line,
                    rule: "trace_names",
                    message: format!(
                        "trace name \"{name}\" passed to `{}` is not declared in {table}",
                        t.text
                    ),
                    hint: format!(
                        "add \"{name}\" to {table} in crates/trace/src/lib.rs, or use a declared name — an unknown name panics under an armed trace"
                    ),
                });
            }
        }
    }
    out
}

/// taxonomy-exhaustiveness: every HTTP status emitted by the server
/// appears in the JSON error taxonomy, and every taxonomy code is
/// actually emitted somewhere.
pub fn taxonomy_exhaustiveness(ws: &Workspace) -> Vec<Finding> {
    let mut out = Vec::new();
    let Some(svc) = ws
        .files
        .iter()
        .find(|f| f.path.ends_with(TAXONOMY_FILE_SUFFIX))
    else {
        return out;
    };
    let toks = &svc.tokens;
    let Some(decl) = toks.iter().position(|t| t.is_ident(TAXONOMY_CONST)) else {
        out.push(Finding {
            path: svc.path.clone(),
            line: 1,
            rule: "taxonomy_exhaustiveness",
            message: format!("no `{TAXONOMY_CONST}` const found in the service module"),
            hint: "declare `pub const ERROR_TAXONOMY: &[(u16, &str)]` listing every error status and its JSON code".into(),
        });
        return out;
    };
    // Collect (status, code) pairs up to the terminating `;`.
    let mut pairs: Vec<(u64, String, u32)> = Vec::new();
    let mut end = decl;
    for j in decl..toks.len() {
        if toks[j].is_punct(';') {
            end = j;
            break;
        }
        if j + 2 < toks.len()
            && toks[j].kind == TokKind::Int
            && toks[j + 1].is_punct(',')
            && toks[j + 2].kind == TokKind::Str
        {
            if let Some(v) = toks[j].int_value() {
                pairs.push((v, toks[j + 2].text.clone(), toks[j].line));
            }
        }
    }
    let taxonomy_span = (toks[decl].line, toks[end].line);
    let statuses: HashSet<u64> = pairs.iter().map(|p| p.0).collect();

    // Forward: every emitted status is in the taxonomy.
    let mut reported: HashSet<(String, u64)> = HashSet::new();
    for f in ws.files.iter().filter(|f| f.path.contains("server/src/")) {
        for (i, t) in f.tokens.iter().enumerate() {
            let Some(v) = t.int_value() else { continue };
            if !(400..=599).contains(&v) || f.in_test(t.line) {
                continue;
            }
            if f.path == svc.path && t.line >= taxonomy_span.0 && t.line <= taxonomy_span.1 {
                continue;
            }
            let lo = f.stmt_start_line(i);
            if statuses.contains(&v)
                || f.allowed("taxonomy_exhaustiveness", lo, t.line)
                || !reported.insert((f.path.clone(), v))
            {
                continue;
            }
            out.push(Finding {
                path: f.path.clone(),
                line: t.line,
                rule: "taxonomy_exhaustiveness",
                message: format!("HTTP status {v} is emitted but missing from {TAXONOMY_CONST}"),
                hint: "add the status and its JSON error code to ERROR_TAXONOMY, or annotate if this literal is not a status".into(),
            });
        }
    }

    // Reverse: every taxonomy code is emitted somewhere outside the const.
    for (status, code, line) in &pairs {
        let emitted = ws
            .files
            .iter()
            .filter(|f| f.path.contains("server/src/"))
            .any(|f| {
                f.tokens.iter().any(|t| {
                    t.kind == TokKind::Str
                        && t.text == *code
                        && !(f.path == svc.path
                            && t.line >= taxonomy_span.0
                            && t.line <= taxonomy_span.1)
                        && !f.in_test(t.line)
                })
            });
        if emitted || svc.allowed("taxonomy_exhaustiveness", *line, *line) {
            continue;
        }
        out.push(Finding {
            path: svc.path.clone(),
            line: *line,
            rule: "taxonomy_exhaustiveness",
            message: format!(
                "taxonomy code \"{code}\" (status {status}) is declared but never emitted"
            ),
            hint:
                "emit it via error_body(...) on the matching path, or drop the dead taxonomy entry"
                    .into(),
        });
    }

    out
}

/// lock-hold hygiene: a `let` guard bound from `.lock()`/`.read()`/
/// `.write()` must not still be live across another zero-argument
/// lock-acquisition call — nested acquisition orders deadlock.
pub fn lock_hold(f: &FileScan) -> Vec<Finding> {
    let mut out = Vec::new();
    let toks = &f.tokens;
    let mut i = 0usize;
    while i < toks.len() {
        if !toks[i].is_ident("let") || f.in_test(toks[i].line) {
            i += 1;
            continue;
        }
        // Find the end of the let statement (`;` with all brackets closed).
        let mut depth = 0isize;
        let mut end = None;
        for (off, t) in toks[i + 1..].iter().enumerate() {
            if t.is_punct('(') || t.is_punct('[') || t.is_punct('{') {
                depth += 1;
            } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('}') {
                depth -= 1;
            } else if depth == 0 && t.is_punct(';') {
                end = Some(i + 1 + off);
                break;
            }
        }
        let Some(end) = end else {
            i += 1;
            continue;
        };
        // Does the initializer's trailing call chain end in a
        // zero-argument lock acquisition (possibly followed by
        // unwrap / unwrap_or_else / expect)?
        let mut m = end; // index of ';'
        let mut guard_line = None;
        let mut lock_method = String::new();
        loop {
            if m == 0 || !toks[m - 1].is_punct(')') {
                break;
            }
            // Find the matching '('.
            let mut d = 0usize;
            let mut p = m - 1;
            loop {
                if toks[p].is_punct(')') {
                    d += 1;
                } else if toks[p].is_punct('(') {
                    d -= 1;
                    if d == 0 {
                        break;
                    }
                }
                if p == 0 {
                    break;
                }
                p -= 1;
            }
            if p == 0 || toks[p - 1].kind != TokKind::Ident {
                break;
            }
            let name = toks[p - 1].text.as_str();
            if LOCK_METHODS.contains(&name) && m - 1 == p + 1 {
                // Zero-arg lock call terminates the chain → guard.
                guard_line = Some(toks[p - 1].line);
                lock_method = name.to_string();
                break;
            }
            if matches!(name, "unwrap" | "unwrap_or_else" | "expect") {
                // Peel the wrapper: step past its `.` so the next loop
                // iteration sees the `)` of the call it was chained on.
                if p >= 2 && toks[p - 2].is_punct('.') {
                    m = p - 2;
                    continue;
                }
            }
            break;
        }
        let Some(guard_line) = guard_line else {
            i = end + 1;
            continue;
        };
        // Guard binding name (skip destructuring patterns).
        let mut g = i + 1;
        if g < toks.len() && toks[g].is_ident("mut") {
            g += 1;
        }
        let guard_name = if g < toks.len() && toks[g].kind == TokKind::Ident {
            toks[g].text.clone()
        } else {
            i = end + 1;
            continue;
        };
        // Scan the rest of the enclosing block while the guard is live.
        let mut depth = 0isize;
        let mut k = end + 1;
        while k < toks.len() {
            let t = &toks[k];
            if t.is_punct('{') {
                depth += 1;
            } else if t.is_punct('}') {
                if depth == 0 {
                    break;
                }
                depth -= 1;
            }
            // Early drop ends the guard's liveness.
            if t.is_ident("drop")
                && k + 2 < toks.len()
                && toks[k + 1].is_punct('(')
                && toks[k + 2].is_ident(&guard_name)
            {
                break;
            }
            if t.is_punct('.')
                && k + 3 < toks.len()
                && toks[k + 1].kind == TokKind::Ident
                && LOCK_METHODS.contains(&toks[k + 1].text.as_str())
                && toks[k + 2].is_punct('(')
                && toks[k + 3].is_punct(')')
                && !f.in_test(toks[k + 1].line)
            {
                let line = toks[k + 1].line;
                let lo = f.stmt_start_line(k);
                if !f.allowed("lock_hold", lo, line) {
                    out.push(Finding {
                        path: f.path.clone(),
                        line,
                        rule: "lock_hold",
                        message: format!(
                            "`.{}()` acquired while guard `{guard_name}` (from `.{lock_method}()` on line {guard_line}) is still held",
                            toks[k + 1].text
                        ),
                        hint: format!(
                            "drop({guard_name}) first or scope the guard with a block; annotate with lint:allow(lock_hold, reason = \"...\") if the acquisition order is deliberate"
                        ),
                    });
                }
            }
            k += 1;
        }
        i = end + 1;
    }
    out
}
