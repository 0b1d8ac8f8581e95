//! R5 `no-seqcst-hotpath`: `SeqCst` in the lock crates is almost always a
//! crutch — the algorithms here are specified in acquire/release terms, and
//! a stray `SeqCst` hides a missing happens-before edge instead of creating
//! the right one (and costs a full fence on weakly-ordered hardware).
//!
//! Legitimate uses (a test-only fence, a deliberately sequentially
//! consistent counter) must carry `// cnalint: allow(no-seqcst-hotpath) --
//! reason`, which turns the exception into an audited artifact.

use crate::diag::Diagnostic;
use crate::rules::R5;
use crate::scan::Workspace;

/// Runs R5 over the lock-scope files. Suppression via pragma happens in the
/// generic pass; this rule just reports every lexical `SeqCst`.
pub fn run(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for f in ws.files.iter().filter(|f| f.in_audit_scope()) {
        let toks = &f.lx.toks;
        for w in toks.windows(4) {
            if w[0].is_ident("Ordering")
                && w[1].is_punct(':')
                && w[2].is_punct(':')
                && w[3].is_ident("SeqCst")
            {
                diags.push(Diagnostic::error(
                    R5,
                    &f.rel,
                    w[3].line,
                    "Ordering::SeqCst in a lock crate; restate in acquire/release terms or add \
                     `// cnalint: allow(no-seqcst-hotpath) -- <reason>`"
                        .to_string(),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::load_source;
    use std::path::PathBuf;

    fn lint(rel: &str, src: &str) -> Vec<Diagnostic> {
        let ws = Workspace {
            root: PathBuf::from("."),
            files: vec![load_source(rel, src)],
        };
        let mut diags = Vec::new();
        run(&ws, &mut diags);
        diags
    }

    #[test]
    fn seqcst_in_lock_crate_is_flagged() {
        let d = lint(
            "crates/sync-core/src/x.rs",
            "fn f(a: &AtomicBool) { a.store(true, Ordering::SeqCst); }",
        );
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "no-seqcst-hotpath");
    }

    #[test]
    fn seqcst_outside_lock_scope_is_fine() {
        let d = lint(
            "crates/harness/src/x.rs",
            "fn f(a: &AtomicBool) { a.store(true, Ordering::SeqCst); }",
        );
        assert!(d.is_empty());
    }

    #[test]
    fn seqcst_in_comment_or_string_is_fine() {
        let d = lint(
            "crates/locks/src/x.rs",
            "// Ordering::SeqCst would be wrong here.\nfn f() { let _ = \"Ordering::SeqCst\"; }",
        );
        assert!(d.is_empty());
    }
}
