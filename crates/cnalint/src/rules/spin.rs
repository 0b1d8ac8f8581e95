//! R4 `spin-hint`: a `while` loop whose condition polls an atomic `load`
//! must pace itself — `hint::spin_loop()`, a registered park/backoff call,
//! or an early exit — instead of hammering the coherence fabric.
//!
//! Scoped to the lock crates: spin loops elsewhere (tests, harnesses) are
//! throughput fixtures, not hot paths.

use crate::diag::Diagnostic;
use crate::lexer::Tok;
use crate::rules::R4;
use crate::scan::{SourceFile, Workspace};

/// Identifiers that count as pacing the loop. `spin_until` and friends park
/// under the model-checked atomics family, `spin`/`cpu_relax`/`spin_loop`
/// are the architectural hints, and the park/yield entries cover OS-assisted
/// waiting.
const PACERS: [&str; 12] = [
    "spin_loop",
    "cpu_relax",
    "spin_hint",
    "spin_until",
    "spin_until_paced",
    "spin",
    "snooze",
    "backoff",
    "yield_now",
    "park",
    "park_timeout",
    "wait",
];

/// Runs R4 over the lock-scope files.
pub fn run(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for f in ws.files.iter().filter(|f| f.in_audit_scope()) {
        run_file(f, diags);
    }
}

fn run_file(f: &SourceFile, diags: &mut Vec<Diagnostic>) {
    let toks = &f.lx.toks;
    for (i, t) in toks.iter().enumerate() {
        if !t.is_ident("while") {
            continue;
        }
        // Condition: tokens up to the body `{` at bracket depth 0.
        let Some(body_open) = condition_end(toks, i + 1) else {
            continue;
        };
        let cond = &toks[i + 1..body_open];
        if !cond.iter().any(|t| t.is_ident("load")) {
            continue;
        }
        // Pacing in the condition itself (`while !paced_poll()`) counts.
        if has_pacer(cond) {
            continue;
        }
        let Some(body_close) = matching_brace(toks, body_open) else {
            continue;
        };
        let body = &toks[body_open + 1..body_close];
        let paced = has_pacer(body);
        let exits = body
            .iter()
            .any(|t| t.is_ident("break") || t.is_ident("return"));
        if !paced && !exits {
            diags.push(Diagnostic::error(
                R4,
                &f.rel,
                t.line,
                "spin-wait loop over an atomic load without `hint::spin_loop()`, a registered \
                 park/backoff call, or an early exit"
                    .to_string(),
            ));
        }
    }
}

fn has_pacer(toks: &[Tok]) -> bool {
    toks.iter().any(|t| PACERS.contains(&t.text.as_str()))
}

/// Index of the `{` opening the loop body, skipping over parenthesized /
/// bracketed subexpressions in the condition.
fn condition_end(toks: &[Tok], from: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(from) {
        if t.is_punct('(') || t.is_punct('[') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') {
            depth -= 1;
        } else if t.is_punct('{') && depth == 0 {
            return Some(j);
        } else if t.is_punct(';') {
            return None;
        }
    }
    None
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0i32;
    for (j, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::load_source;

    fn lint(src: &str) -> Vec<Diagnostic> {
        let f = load_source("crates/locks/src/x.rs", src);
        let mut diags = Vec::new();
        run_file(&f, &mut diags);
        diags
    }

    #[test]
    fn bare_spin_loop_is_flagged() {
        let d = lint("fn f(a: &AtomicBool) { while a.load(Ordering::Relaxed) {} }");
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "spin-hint");
    }

    #[test]
    fn hinted_loop_passes() {
        let d = lint(
            "fn f(a: &AtomicBool) { while a.load(Ordering::Relaxed) { std::hint::spin_loop(); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn backoff_and_yield_pass() {
        let d = lint(
            "fn f(a: &AtomicBool, b: &mut Backoff) { while a.load(Ordering::Relaxed) { b.spin(); } \
             while a.load(Ordering::Relaxed) { std::thread::yield_now(); } }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn early_exit_passes() {
        let d = lint(
            "fn f(a: &AtomicBool) -> bool { while a.load(Ordering::Relaxed) { if c() { return false; } } true }",
        );
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn non_atomic_while_is_ignored() {
        let d = lint("fn f() { let mut i = 0; while i < 10 { i += 1; } }");
        assert!(d.is_empty(), "{d:?}");
    }

    #[test]
    fn out_of_scope_file_is_ignored() {
        let f = load_source(
            "crates/bench/src/x.rs",
            "fn f(a: &AtomicBool) { while a.load(Ordering::Relaxed) {} }",
        );
        let ws = Workspace {
            root: std::path::PathBuf::from("."),
            files: vec![f],
        };
        let mut diags = Vec::new();
        run(&ws, &mut diags);
        assert!(diags.is_empty());
    }
}
