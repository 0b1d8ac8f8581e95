//! Table rendering and CSV output for experiment results.

use std::fs;
use std::path::PathBuf;

/// Renders an aligned text table (header + rows).
pub fn render_table(title: &str, header: &[String], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    out.push_str(&format!("## {title}\n"));
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| {
                format!(
                    "{:>width$}",
                    c,
                    width = widths.get(i).copied().unwrap_or(c.len())
                )
            })
            .collect::<Vec<_>>()
            .join("  ")
    };
    out.push_str(&fmt_row(header, &widths));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1)));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

/// Error writing an experiment artifact (CSV/JSON) to disk.
///
/// Carries the destination path so callers can report *which* file failed —
/// the common case is a read-only checkout or a bad `EXPERIMENTS_DIR`.
#[derive(Debug)]
pub struct WriteError {
    /// The file (or directory) that could not be written.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: std::io::Error,
}

impl std::fmt::Display for WriteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "could not write {}: {}",
            self.path.display(),
            self.source
        )
    }
}

impl std::error::Error for WriteError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.source)
    }
}

/// Directory where experiment CSV/JSON files are written.
///
/// Defaults to `target/experiments` under the **workspace root** (found by
/// walking up from the current directory to the outermost `Cargo.lock`), so
/// benches — which cargo runs with the member crate as working directory —
/// and examples agree on one location. `EXPERIMENTS_DIR` overrides it.
/// Purely a path computation; writers create missing directories themselves.
pub fn experiments_dir() -> PathBuf {
    std::env::var("EXPERIMENTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| workspace_root().join("target/experiments"))
}

/// Writes `contents` to `path`, creating missing parent directories first —
/// so writing reports works from a clean checkout (no `target/` yet).
pub fn write_report_file(path: &std::path::Path, contents: &str) -> Result<(), WriteError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|source| WriteError {
            path: parent.to_path_buf(),
            source,
        })?;
    }
    fs::write(path, contents).map_err(|source| WriteError {
        path: path.to_path_buf(),
        source,
    })
}

/// The nearest ancestor of the current directory containing a `Cargo.lock`
/// (how cargo itself resolves the workspace), or the current directory when
/// none is found.
fn workspace_root() -> PathBuf {
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    cwd.ancestors()
        .find(|dir| dir.join("Cargo.lock").is_file())
        .map(PathBuf::from)
        .unwrap_or(cwd)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_aligned_and_contains_all_cells() {
        let header = vec!["threads".to_string(), "MCS".to_string(), "CNA".to_string()];
        let rows = vec![
            vec!["1".to_string(), "5.30".to_string(), "5.28".to_string()],
            vec!["70".to_string(), "1.70".to_string(), "2.36".to_string()],
        ];
        let t = render_table("Figure 6", &header, &rows);
        assert!(t.contains("Figure 6"));
        assert!(t.contains("5.30"));
        assert!(t.contains("2.36"));
        let lines: Vec<&str> = t.lines().collect();
        assert!(lines.len() >= 5);
    }

    #[test]
    fn csv_write_creates_missing_directories() {
        // A nested, not-yet-existing directory: the clean-checkout case.
        let dir = std::env::temp_dir()
            .join("cna-exp-test")
            .join("nested")
            .join("deeper");
        let _ = std::fs::remove_dir_all(&dir);
        let path = {
            let _guard = EnvGuard::set("EXPERIMENTS_DIR", &dir);
            experiments_dir().join("unit_test_table.csv")
        };
        write_report_file(&path, "a,b\n1,2\n").expect("csv written");
        assert!(path.starts_with(&dir));
        let contents = std::fs::read_to_string(&path).unwrap();
        assert_eq!(contents, "a,b\n1,2\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn csv_write_failure_reports_the_path() {
        // A file where a directory is needed forces a typed error.
        let base = std::env::temp_dir().join("cna-exp-not-a-dir");
        std::fs::write(&base, "occupied").unwrap();
        let err = write_report_file(&base.join("sub").join("x.csv"), "a\n").unwrap_err();
        assert!(err.to_string().contains("could not write"));
        assert!(err.path.starts_with(&base));
        let _ = std::fs::remove_file(&base);
    }

    /// Sets an env var for the duration of a test, restoring on drop, and
    /// serializes all guard holders so parallel tests in this binary do not
    /// race on the process-global environment.
    struct EnvGuard {
        key: &'static str,
        prev: Option<std::ffi::OsString>,
        _serial: std::sync::MutexGuard<'static, ()>,
    }

    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    impl EnvGuard {
        fn set(key: &'static str, value: impl AsRef<std::ffi::OsStr>) -> Self {
            let serial = ENV_LOCK.lock().unwrap_or_else(|e| e.into_inner());
            let prev = std::env::var_os(key);
            std::env::set_var(key, value);
            EnvGuard {
                key,
                prev,
                _serial: serial,
            }
        }
    }

    impl Drop for EnvGuard {
        fn drop(&mut self) {
            match &self.prev {
                Some(v) => std::env::set_var(self.key, v),
                None => std::env::remove_var(self.key),
            }
        }
    }
}
