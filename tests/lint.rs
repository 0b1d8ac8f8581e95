//! The lint gate, as a tier-1 test: the real workspace must be cnalint-clean,
//! and the ordering audit table must actually be load-bearing — editing it in
//! either direction (dropping a row, inventing a row) must fail R1.

use std::path::PathBuf;

use cna_locks::registry::LockId;
use cnalint::rules::compact;
use cnalint::{audit, run_check, Options};

fn workspace_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

#[test]
fn workspace_is_lint_clean() {
    let out = run_check(&Options::new(workspace_root())).unwrap();
    assert!(
        out.diagnostics.is_empty(),
        "workspace has lint findings:\n{}",
        cnalint::render_human(&out)
    );
    assert!(
        out.files_scanned > 100,
        "suspiciously few files scanned: {}",
        out.files_scanned
    );
    assert_eq!(out.exit_code(), 0);
}

/// Real workspace sites plus the real audit doc text.
fn sites_and_doc() -> (Vec<audit::Site>, String) {
    let root = workspace_root();
    let ws = cnalint::scan::scan(&root).unwrap();
    let sites = audit::extract_sites(&ws);
    assert!(
        sites.len() > 100,
        "audit scope shrank: {} sites",
        sites.len()
    );
    let text = std::fs::read_to_string(root.join("docs/orderings.md")).unwrap();
    (sites, text)
}

#[test]
fn deleting_a_table_row_fails_the_drift_gate() {
    let (sites, text) = sites_and_doc();

    // Baseline: the doc as committed is clean.
    let mut diags = Vec::new();
    audit::check(&sites, Some(&text), "docs/orderings.md", &mut diags);
    assert!(diags.is_empty(), "{diags:#?}");

    // Drop the first data row between the table markers.
    let mut dropped = None;
    let mut in_table = false;
    let edited: Vec<&str> = text
        .lines()
        .filter(|l| {
            let t = l.trim();
            if t == audit::TABLE_BEGIN {
                in_table = true;
            } else if t == audit::TABLE_END {
                in_table = false;
            } else if in_table && dropped.is_none() && t.starts_with("| crates/") {
                dropped = Some(t.to_string());
                return false;
            }
            true
        })
        .collect();
    let dropped = dropped.expect("audit table has no data rows");

    let mut diags = Vec::new();
    audit::check(
        &sites,
        Some(&edited.join("\n")),
        "docs/orderings.md",
        &mut diags,
    );
    assert_eq!(diags.len(), 1, "dropped {dropped:?}, got {diags:#?}");
    assert!(
        diags[0].message.contains("not recorded"),
        "dropped {dropped:?}, got {}",
        diags[0]
    );
}

#[test]
fn inventing_a_table_row_fails_the_drift_gate() {
    let (sites, text) = sites_and_doc();

    let bogus = "| crates/locks/src/mcs.rs | 9999 | load | Acquire | acq-entry |  |";
    let edited = text.replace(audit::TABLE_END, &format!("{bogus}\n{}", audit::TABLE_END));

    let mut diags = Vec::new();
    audit::check(&sites, Some(&edited), "docs/orderings.md", &mut diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(diags[0].message.contains("stale audit row"), "{}", diags[0]);
}

#[test]
fn audit_rewrite_round_trips_the_committed_doc() {
    let (sites, text) = sites_and_doc();
    let rewritten = audit::rewrite_doc(&sites, &text).unwrap();
    assert_eq!(
        rewritten, text,
        "docs/orderings.md is not in `cnalint audit --write` normal form"
    );
}

/// R6 must see every registry row, or `workspace_is_lint_clean` would pass
/// vacuously for a row syntax its token matcher misses: it collects exactly
/// one type per `LockId`, and dropping one size pin from
/// `tests/compactness.rs` yields exactly one error, naming that type.
#[test]
fn deleting_a_size_pin_fails_the_compactness_gate() {
    let mut ws = cnalint::scan::scan(&workspace_root()).unwrap();
    let registered = compact::registered_types(&ws);
    assert_eq!(registered.len(), LockId::ALL.len(), "{registered:#?}");
    let mut diags = Vec::new();
    compact::run(&ws, &mut diags);
    assert!(diags.is_empty(), "{diags:#?}");

    let pin = "assert_eq!(size_of::<CPtlTktLock>(), 48);";
    let pins = ws
        .files
        .iter_mut()
        .find(|f| f.rel == "tests/compactness.rs")
        .expect("the size pins are scanned");
    let text = pins.lines.join("\n");
    assert!(text.contains(pin), "the CPtlTktLock pin moved");
    *pins = cnalint::scan::load_source("tests/compactness.rs", &text.replace(pin, ""));

    compact::run(&ws, &mut diags);
    assert_eq!(diags.len(), 1, "{diags:#?}");
    assert!(
        diags[0].message.contains("`CPtlTktLock`"),
        "{}",
        diags[0].message
    );
}
