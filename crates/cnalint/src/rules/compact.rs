//! R6 `lock-word-compactness`: every lock type a registry row builds with
//! `DynLock::new::<T>` / `DynLock::new_try::<T>` must have a pinned
//! `size_of::<T>()` assertion somewhere in the workspace — the hook
//! `tests/compactness.rs` provides. A registered lock without a size pin can
//! silently bloat its lock word, which is the exact regression the paper's
//! compactness table exists to prevent.

use std::collections::BTreeMap;

use crate::diag::Diagnostic;
use crate::rules::R6;
use crate::scan::Workspace;

/// Runs R6: collects registered types from any `registry/src/lib.rs` in the
/// workspace, then demands a `size_of::<T` mention for each.
pub fn run(ws: &Workspace, diags: &mut Vec<Diagnostic>) {
    for (ty, (file, line)) in &registered_types(ws) {
        if !has_size_pin(ws, ty) {
            diags.push(Diagnostic::error(
                R6,
                file,
                *line,
                format!(
                    "registered lock type `{ty}` has no pinned `size_of::<{ty}>()` assertion \
                     anywhere in the workspace (add it to tests/compactness.rs)"
                ),
            ));
        }
    }
}

/// The lock types registered in any `registry/src/lib.rs` of the workspace,
/// each with the file and line of its first `DynLock::new::<T>` or
/// `DynLock::new_try::<T>` mention.
pub fn registered_types(ws: &Workspace) -> BTreeMap<String, (String, u32)> {
    let mut registered: BTreeMap<String, (String, u32)> = BTreeMap::new();
    for f in ws
        .files
        .iter()
        .filter(|f| f.rel.ends_with("registry/src/lib.rs"))
    {
        let toks = &f.lx.toks;
        for (i, t) in toks.iter().enumerate() {
            if !t.is_ident("DynLock") {
                continue;
            }
            // DynLock :: new|new_try :: < Type
            let path = toks.get(i + 1..i + 7);
            let Some([c1, c2, method, c3, c4, lt]) = path else {
                continue;
            };
            if c1.is_punct(':')
                && c2.is_punct(':')
                && (method.is_ident("new") || method.is_ident("new_try"))
                && c3.is_punct(':')
                && c4.is_punct(':')
                && lt.is_punct('<')
            {
                if let Some(ty) = toks.get(i + 7) {
                    registered
                        .entry(ty.text.clone())
                        .or_insert((f.rel.clone(), ty.line));
                }
            }
        }
    }
    registered
}

/// `true` when any scanned file contains `size_of` with `ty` among the next
/// few tokens (covers `size_of::<Ty>()` and `size_of::<Ty<A>>()`).
fn has_size_pin(ws: &Workspace, ty: &str) -> bool {
    ws.files.iter().any(|f| {
        let toks = &f.lx.toks;
        toks.iter().enumerate().any(|(i, t)| {
            t.is_ident("size_of")
                && toks[i + 1..toks.len().min(i + 8)]
                    .iter()
                    .any(|n| n.is_ident(ty))
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::load_source;
    use std::path::PathBuf;

    fn ws(files: Vec<(&str, &str)>) -> Workspace {
        Workspace {
            root: PathBuf::from("."),
            files: files
                .into_iter()
                .map(|(rel, src)| load_source(rel, src))
                .collect(),
        }
    }

    #[test]
    fn pinned_type_passes_unpinned_fails() {
        let w = ws(vec![
            (
                "crates/registry/src/lib.rs",
                "fn build() { let _ = DynLock::new::<McsLock>(); let _ = DynLock::new_try::<TasLock>(); }",
            ),
            (
                "tests/compactness.rs",
                "fn t() { assert_eq!(size_of::<McsLock>(), 8); }",
            ),
        ]);
        let mut diags = Vec::new();
        run(&w, &mut diags);
        assert_eq!(diags.len(), 1, "{diags:?}");
        assert!(diags[0].message.contains("`TasLock`"));
        assert_eq!(diags[0].file, "crates/registry/src/lib.rs");
    }

    #[test]
    fn generic_size_pin_counts() {
        let w = ws(vec![
            (
                "crates/registry/src/lib.rs",
                "fn build() { let _ = DynLock::new::<HmcsLock>(); }",
            ),
            (
                "crates/locks/src/hmcs.rs",
                "fn t() { assert_eq!(core::mem::size_of::<HmcsLock<StdAtomics>>(), 32); }",
            ),
        ]);
        let mut diags = Vec::new();
        run(&w, &mut diags);
        assert!(diags.is_empty(), "{diags:?}");
    }

    #[test]
    fn no_registry_file_means_no_findings() {
        let w = ws(vec![("crates/locks/src/mcs.rs", "fn f() {}")]);
        let mut diags = Vec::new();
        run(&w, &mut diags);
        assert!(diags.is_empty());
    }
}
