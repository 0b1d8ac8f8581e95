//! Host and provenance: what produced a number, and how noisy the host was
//! while it did.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::Json;

/// Load-generating threads this host can run at once.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// The checkout the benchmark runs in: the nearest directory at or above the
/// working directory that holds `BENCHMARK.json`, else the parent of this
/// package as compiled.
pub fn repo_root() -> PathBuf {
    let fallback = || {
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .map_or_else(|| PathBuf::from("."), Path::to_path_buf)
    };
    let Ok(cwd) = std::env::current_dir() else {
        return fallback();
    };
    cwd.ancestors()
        .find(|dir| dir.join("BENCHMARK.json").is_file() && dir.join("benchmark").is_dir())
        .map_or_else(fallback, Path::to_path_buf)
}

/// Where the trace and run records go.
pub fn out_dir() -> PathBuf {
    repo_root().join("benchmark").join("out")
}

fn first_line_after(path: &str, prefix: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()?
        .lines()
        .find(|line| line.starts_with(prefix))
        .and_then(|line| line.split_once(':'))
        .map(|(_, value)| value.trim().to_string())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// `HEAD` of the checkout, read from `.git` directly (the driver's checkout
/// is not a repository, and nothing outside the checkout is consulted).
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: PathBuf| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(git.join("HEAD")) else {
        return "unknown".to_string();
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    read(git.join(reference))
        .or_else(|| {
            read(git.join("packed-refs"))?
                .lines()
                .find(|line| line.ends_with(reference))
                .and_then(|line| line.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Steal ticks the hypervisor has charged all CPUs so far (`/proc/stat`,
/// eighth value of the `cpu` line).
pub fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|text| text.lines().next()?.split_whitespace().nth(8)?.parse().ok())
        .unwrap_or(0)
}

/// The provenance block of a run record.
pub fn provenance() -> Json {
    let (topology, outcome) = numa_topology::detect();
    Json::obj([
        ("nproc", Json::Num(nproc() as f64)),
        (
            "cpu_model",
            Json::str(
                first_line_after("/proc/cpuinfo", "model name")
                    .unwrap_or_else(|| "unknown".to_string()),
            ),
        ),
        (
            "kernel",
            Json::str(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .map_or_else(|_| "unknown".to_string(), |s| s.trim().to_string()),
            ),
        ),
        ("rustc", Json::str(rustc_version())),
        ("git_revision", Json::str(git_revision(&repo_root()))),
        (
            "topology",
            Json::obj([
                ("sockets", Json::Num(topology.sockets() as f64)),
                ("logical_cpus", Json::Num(topology.logical_cpus() as f64)),
                ("synthetic", Json::Bool(topology.is_synthetic())),
                ("detected_by", Json::str(format!("{outcome:?}"))),
            ]),
        ),
    ])
}
