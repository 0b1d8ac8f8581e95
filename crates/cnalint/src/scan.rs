//! Workspace discovery: walks the repository, lexes every Rust source file,
//! and classifies files into the scopes the rules care about.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use crate::lexer::{self, Lexed};
use crate::pragma::{self, Pragmas};

/// One lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Workspace-relative path with `/` separators (stable across hosts).
    pub rel: String,
    /// Raw source lines (for statement-shape heuristics).
    pub lines: Vec<String>,
    /// Lexed tokens and comments.
    pub lx: Lexed,
    /// Allow pragmas found in this file.
    pub pragmas: Pragmas,
}

impl SourceFile {
    /// 1-based line `n`, or `""` past EOF.
    pub fn line(&self, n: u32) -> &str {
        if n == 0 {
            return "";
        }
        self.lines
            .get((n as usize).saturating_sub(1))
            .map(String::as_str)
            .unwrap_or("")
    }

    /// `true` when this file lives in the ordering-audit scope (the lock
    /// algorithm crates, the kernel-style qspinlock, and leveldb-lite's
    /// lock-free memtable, whose every `Ordering::` use must be justified in
    /// `docs/orderings.md`). The `spin-hint` and `no-seqcst-hotpath` rules
    /// apply to the same files.
    pub fn in_audit_scope(&self) -> bool {
        const SCOPES: [&str; 5] = [
            "crates/locks/src/",
            "crates/core/src/",
            "crates/qspinlock/src/",
            "crates/sync-core/src/",
            "crates/leveldb-lite/src/memtable.rs",
        ];
        SCOPES.iter().any(|s| self.rel.starts_with(s))
    }
}

/// The scanned workspace.
#[derive(Debug)]
pub struct Workspace {
    /// Absolute workspace root.
    pub root: PathBuf,
    /// All scanned files, sorted by relative path.
    pub files: Vec<SourceFile>,
}

/// Directory names never descended into.
const SKIP_DIRS: [&str; 3] = ["target", ".git", "node_modules"];
/// Relative prefixes excluded from the workspace scan (the linter's own test
/// fixtures intentionally contain violations).
const SKIP_PREFIXES: [&str; 1] = ["crates/cnalint/tests/fixtures"];

/// Walks `root`, lexing every `.rs` file outside the skip set.
pub fn scan(root: &Path) -> io::Result<Workspace> {
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(Workspace {
        root: root.to_path_buf(),
        files,
    })
}

fn walk(root: &Path, dir: &Path, files: &mut Vec<SourceFile>) -> io::Result<()> {
    let mut entries: Vec<_> = fs::read_dir(dir)?.collect::<Result<_, _>>()?;
    entries.sort_by_key(|e| e.file_name());
    for entry in entries {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        let rel = rel_path(root, &path);
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref())
                || SKIP_PREFIXES.iter().any(|p| rel == *p)
                || name.starts_with('.')
            {
                continue;
            }
            walk(root, &path, files)?;
        } else if name.ends_with(".rs") {
            let text = fs::read_to_string(&path)?;
            files.push(load_source(&rel, &text));
        }
    }
    Ok(())
}

/// Lexes one file's text into a [`SourceFile`] (exposed for rule tests).
pub fn load_source(rel: &str, text: &str) -> SourceFile {
    let lines: Vec<String> = text.lines().map(String::from).collect();
    let lx = lexer::lex(text);
    let pragmas = pragma::parse(rel, &lx, lines.len() as u32);
    SourceFile {
        rel: rel.to_string(),
        lines,
        lx,
        pragmas,
    }
}

fn rel_path(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_classification() {
        let f = load_source("crates/locks/src/mcs.rs", "fn x() {}");
        assert!(f.in_audit_scope());
        let q = load_source("crates/qspinlock/src/lib.rs", "fn x() {}");
        assert!(q.in_audit_scope());
        let m = load_source("crates/leveldb-lite/src/memtable.rs", "fn x() {}");
        assert!(m.in_audit_scope());
        let d = load_source("crates/leveldb-lite/src/db.rs", "fn x() {}");
        assert!(!d.in_audit_scope());
        let b = load_source("crates/bench/src/cli.rs", "fn x() {}");
        assert!(!b.in_audit_scope());
    }

    #[test]
    fn line_accessor_is_one_based_and_total() {
        let f = load_source("a.rs", "first\nsecond\n");
        assert_eq!(f.line(1), "first");
        assert_eq!(f.line(2), "second");
        assert_eq!(f.line(3), "");
        assert_eq!(f.line(0), "");
    }
}
