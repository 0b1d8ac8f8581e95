//! The `lockbench` command line: any algorithm × workload × thread sweep ×
//! scale × load shape in one command, over the unified experiment API.
//!
//! This is the front door to the lock registry and the experiments module:
//!
//! ```text
//! cargo run -p bench --bin lockbench -- list
//! cargo run -p bench --bin lockbench -- run   --lock cna,mcs --workload kvmap --scale smoke
//! cargo run -p bench --bin lockbench -- sweep --lock cna,mcs --workload sim,kvmap \
//!                                             --threads 1,2,4 --scale smoke
//! cargo run -p bench --bin lockbench -- sweep --lock cna,mcs --workload kvmap \
//!                                             --mode open --rate 1000,10000,100000 \
//!                                             --metric p99 --scale smoke
//! cargo run -p bench --bin lockbench -- diff baseline.csv target/experiments/lockbench_sweep.csv
//! cargo run -p bench --bin lockbench -- lint --format json
//! ```
//!
//! `run` and `sweep` both execute an
//! [`ExperimentSpec`](harness::experiments::ExperimentSpec) grid and write
//! CSV + JSON reports under `target/experiments/`; `sweep` exists as the
//! spec-driven spelling with a configurable report id, `run` keeps the
//! historical default (`lockbench_run`). `diff` compares two stored reports
//! and fails (exit code 1) on threshold regressions — the CI hook for
//! baseline comparisons, including the p99 sojourn ratchet on open-loop
//! sweeps.
//!
//! Parsing and execution live in this library module so they are unit
//! tested; the binary (`src/bin/lockbench.rs`) only forwards
//! `std::env::args` and converts the outcome into an exit code.

use std::path::Path;

use harness::experiments::{
    Arrival, Axis, AxisLists, DiffThreshold, ExperimentSpec, Metric, RunReport, WorkloadId,
};
use harness::{render_table, Scale};
use registry::LockId;

/// A parsed `lockbench` invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `lockbench list`: print the registry table (`--names` for a plain
    /// newline-separated name list, for shell loops).
    List {
        /// Print canonical names only.
        names_only: bool,
    },
    /// `lockbench run`: execute a grid with the historical report id.
    Run(SweepArgs),
    /// `lockbench sweep`: execute a spec-driven grid.
    Sweep(SweepArgs),
    /// `lockbench diff`: compare two stored reports.
    Diff(DiffArgs),
    /// `lockbench lint`: run the `cnalint` lock-discipline analyzer.
    Lint(LintArgs),
    /// `lockbench help` / `--help`.
    Help,
}

/// Arguments of `lockbench lint`.
#[derive(Debug, Clone, PartialEq)]
pub struct LintArgs {
    /// Emit machine-readable JSON instead of human diagnostics.
    pub json: bool,
    /// Promote warnings to errors for the exit code (`-D warnings`).
    pub deny_warnings: bool,
}

/// Arguments of `lockbench run` / `lockbench sweep` — one experiment grid.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepArgs {
    /// Report id (`--id`; names the files under `target/experiments/`).
    pub id: String,
    /// Algorithms to run (`--lock cna,mcs` or `--lock all`).
    pub locks: Vec<LockId>,
    /// Workloads to run (`--workload sim,kvmap` or `all`).
    pub workloads: Vec<WorkloadId>,
    /// Every swept axis (`--threads`, `--shards`, `--batch`, `--rate`).
    pub axes: AxisLists,
    /// Inter-arrival distribution of open-loop cells (`--arrival`).
    pub arrival: Arrival,
    /// Run sizing (`--scale smoke|ci|paper`; default from `SCALE`).
    pub scale: Scale,
    /// Measured quantity (`--metric throughput|p99|...`).
    pub metric: Metric,
    /// Repetitions per data point (`--rep N`; 0 = scale default).
    pub repetitions: usize,
    /// Optional wall-clock override per substrate run (`--duration-ms N`).
    pub duration_ms: Option<u64>,
}

/// Arguments of `lockbench diff`.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffArgs {
    /// Baseline report CSV path.
    pub baseline: String,
    /// Current report CSV path.
    pub current: String,
    /// Tolerated relative move in the bad direction (`--tolerance 0.25`).
    pub tolerance: f64,
}

/// The `lockbench` usage text.
pub fn usage() -> String {
    format!(
        "lockbench — drive any registered lock algorithm through any workload\n\
         \n\
         USAGE:\n\
         \x20 lockbench list [--names]\n\
         \x20 lockbench run   --lock <names|all> --workload <names|all> [options]\n\
         \x20 lockbench sweep --lock <names|all> --workload <names|all> [options]\n\
         \x20 lockbench diff <baseline.csv> <current.csv> [--tolerance 0.25]\n\
         \x20 lockbench lint [--format human|json] [-D warnings]\n\
         \n\
         OPTIONS (run/sweep):\n\
         \x20 --threads 1,2,4 | 1-8 | 2-16/2   thread sweep (default: scale sizing);\n\
         \x20          | 4x,8x | 1x-8x         x = CPU-count multiplier (over-\n\
         \x20                                  subscription axis, exempt from the\n\
         \x20                                  scale cap; mixes with plain counts)\n\
         \x20 --shards 1,2,4,8                 kv-map shard sweep (one lock per\n\
         \x20                                  shard; kvmap only, default: 1)\n\
         \x20 --batch 1,8,32                   leveldb group-commit batch sweep\n\
         \x20                                  (writes per DB-mutex acquisition;\n\
         \x20                                  also unlocks --mode open on leveldb)\n\
         \x20 --mode closed|open               load shape (default: closed; open\n\
         \x20                                  requires --rate)\n\
         \x20 --rate 1000,10000 | 1000-5000/1000\n\
         \x20                                  open-loop offered load sweep in\n\
         \x20                                  requests/sec (implies --mode open)\n\
         \x20 --arrival {}              inter-arrival distribution\n\
         \x20                                  (default: poisson; open-loop only)\n\
         \x20 --scale smoke|ci|paper           run sizing (default: $SCALE or ci)\n\
         \x20 --metric {}\n\
         \x20                                  (p50/p99/p999/queue-depth need --rate;\n\
         \x20                                  open-loop works on kvmap and sim)\n\
         \x20 --rep N                          repetitions per point (default: scale)\n\
         \x20 --duration-ms N                  substrate wall-clock override\n\
         \x20 --id NAME                        report file name (defaults:\n\
         \x20                                  lockbench_run / lockbench_sweep)\n\
         \n\
         WORKLOADS: {}\n\
         LOCKS:     {}\n\
         \n\
         Reports land in target/experiments/<id>.csv and <id>.json\n\
         ($EXPERIMENTS_DIR overrides the directory).\n\
         \n\
         EXIT CODES:\n\
         \x20 0  success\n\
         \x20 1  `diff` found a regression (or dropped baseline coverage);\n\
         \x20    `lint` found violations\n\
         \x20 2  usage or runtime error\n\
         \n\
         EXAMPLES:\n\
         \x20 lockbench run --lock all --workload kvmap --scale smoke   # CI lock matrix\n\
         \x20 lockbench sweep --lock cna,mcs --workload sim,kvmap --threads 1,2,4 --scale smoke\n\
         \x20 lockbench sweep --lock cna,mcs --workload kvmap --mode open \\\n\
         \x20           --rate 1000,10000,100000 --metric p99 --scale smoke\n\
         \x20 lockbench sweep --lock cna,mcs --workload kvmap --shards 1,2,4,8 --scale smoke\n\
         \x20 lockbench sweep --lock cna --workload leveldb --batch 1,8,32 --scale smoke\n\
         \x20 lockbench sweep --lock fissile,mcscr,cna --workload sim --threads 1x,2x,4x,8x \\\n\
         \x20           --scale ci                                    # oversubscription\n\
         \x20 lockbench diff baselines/smoke.csv target/experiments/lockbench_sweep.csv",
        Arrival::ALL.map(|a| a.name()).join("|"),
        Metric::ALL.map(|m| m.name()).join("|"),
        WorkloadId::ALL.map(|w| w.name()).join(", "),
        LockId::names().join(", ")
    )
}

/// Parses the arguments following the binary name.
pub fn parse_args<I>(args: I) -> Result<Command, String>
where
    I: IntoIterator<Item = String>,
{
    let mut args = args.into_iter().peekable();
    let subcommand = match args.next() {
        None => return Ok(Command::Help),
        Some(s) => s,
    };
    match subcommand.as_str() {
        "help" | "--help" | "-h" => Ok(Command::Help),
        "list" => {
            let mut names_only = false;
            for flag in args {
                match flag.as_str() {
                    "--names" => names_only = true,
                    other => return Err(format!("unknown `list` flag {other:?}")),
                }
            }
            Ok(Command::List { names_only })
        }
        "run" => Ok(Command::Run(parse_sweep_args(args, "lockbench_run")?)),
        "sweep" => Ok(Command::Sweep(parse_sweep_args(args, "lockbench_sweep")?)),
        "diff" => {
            let mut positional: Vec<String> = Vec::new();
            let mut tolerance = DiffThreshold::default().max_regression;
            let mut args = args;
            while let Some(arg) = args.next() {
                match arg.as_str() {
                    "--tolerance" | "--threshold" => {
                        let value = args
                            .next()
                            .ok_or_else(|| format!("flag {arg} expects a value"))?;
                        tolerance = value
                            .parse::<f64>()
                            .ok()
                            .filter(|t| *t >= 0.0 && t.is_finite())
                            .ok_or_else(|| {
                                format!("{arg} expects a non-negative fraction, got {value:?}")
                            })?;
                    }
                    other if other.starts_with("--") => {
                        return Err(format!("unknown `diff` flag {other:?}"))
                    }
                    _ => positional.push(arg),
                }
            }
            match <[String; 2]>::try_from(positional) {
                Ok([baseline, current]) => Ok(Command::Diff(DiffArgs {
                    baseline,
                    current,
                    tolerance,
                })),
                Err(_) => Err("`diff` expects exactly two report paths: \
                               lockbench diff <baseline.csv> <current.csv>"
                    .to_string()),
            }
        }
        "lint" => {
            let mut json = false;
            let mut deny_warnings = false;
            let mut args = args;
            while let Some(flag) = args.next() {
                match flag.as_str() {
                    "--format" => match args.next().as_deref() {
                        Some("json") => json = true,
                        Some("human") => json = false,
                        other => return Err(format!("--format expects human|json, got {other:?}")),
                    },
                    "-D" => match args.next().as_deref() {
                        Some("warnings") => deny_warnings = true,
                        other => return Err(format!("-D expects `warnings`, got {other:?}")),
                    },
                    "--deny-warnings" => deny_warnings = true,
                    other => return Err(format!("unknown `lint` flag {other:?}")),
                }
            }
            Ok(Command::Lint(LintArgs {
                json,
                deny_warnings,
            }))
        }
        other => Err(format!(
            "unknown subcommand {other:?}; try `lockbench help`"
        )),
    }
}

fn parse_sweep_args<I>(mut args: I, default_id: &str) -> Result<SweepArgs, String>
where
    I: Iterator<Item = String>,
{
    let mut locks: Option<Vec<LockId>> = None;
    let mut workloads: Option<Vec<WorkloadId>> = None;
    let mut axes = AxisLists::default();
    let mut scale = Scale::from_env();
    let mut metric = Metric::ThroughputOpsPerUs;
    let mut repetitions = 0usize;
    let mut duration_ms = None;
    let mut id = default_id.to_string();
    let mut mode: Option<String> = None;
    let mut arrival: Option<Arrival> = None;
    while let Some(flag) = args.next() {
        let mut value_of = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("flag {flag} expects a value"))
        };
        match flag.as_str() {
            "--lock" | "--locks" => {
                let value = value_of(&flag)?;
                locks = Some(LockId::parse_list(&value).map_err(|e| e.to_string())?);
            }
            "--workload" | "--workloads" => {
                let value = value_of(&flag)?;
                workloads = Some(WorkloadId::parse_list(&value).map_err(|e| e.to_string())?);
            }
            "--mode" => {
                let value = value_of(&flag)?;
                match value.as_str() {
                    "closed" | "open" => mode = Some(value),
                    other => return Err(format!("unknown mode {other:?} (valid: closed, open)")),
                }
            }
            "--arrival" => {
                let value = value_of(&flag)?;
                arrival = Some(Arrival::parse(&value).map_err(|e| e.to_string())?);
            }
            "--scale" => {
                let value = value_of(&flag)?;
                scale = Scale::parse(&value).ok_or_else(|| format!("unknown scale {value:?}"))?;
            }
            "--metric" => {
                let value = value_of(&flag)?;
                metric = Metric::parse(&value).map_err(|e| e.to_string())?;
            }
            "--rep" | "--repetitions" => {
                let value = value_of(&flag)?;
                repetitions = value
                    .parse()
                    .map_err(|_| format!("--rep expects a number, got {value:?}"))?;
            }
            "--duration-ms" => {
                let value = value_of(&flag)?;
                duration_ms = Some(
                    value
                        .parse()
                        .map_err(|_| format!("--duration-ms expects a number, got {value:?}"))?,
                );
            }
            "--id" => {
                let value = value_of(&flag)?;
                // Letters/digits/._- only: the id names the report files and
                // becomes a CSV field, so path separators and commas would
                // produce a report `lockbench diff` can never read back.
                if value.is_empty()
                    || !value
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-'))
                {
                    return Err(format!(
                        "--id must be a plain file stem (letters, digits, '.', '_', '-'), \
                         got {value:?}"
                    ));
                }
                id = value;
            }
            other => match Axis::from_flag(other) {
                Some(axis) => {
                    let value = value_of(&flag)?;
                    axes.parse(axis, &value).map_err(|e| e.to_string())?;
                }
                None => return Err(format!("unknown `run`/`sweep` flag {other:?}")),
            },
        }
    }
    let locks = locks.ok_or("`run`/`sweep` requires --lock <names|all>")?;
    let workloads = workloads.ok_or("`run`/`sweep` requires --workload <names|all>")?;
    if locks.is_empty() {
        return Err("--lock selected no algorithms".to_string());
    }
    if workloads.is_empty() {
        return Err("--workload selected no workloads".to_string());
    }
    // `--rate` implies open-loop; `--mode` only has to be spelled out to
    // catch contradictions early, before a grid runs for minutes.
    let open = axes.is_swept(Axis::Rate);
    match (mode.as_deref(), open) {
        (Some("open"), false) => {
            return Err("--mode open requires --rate <requests/sec list>".to_string())
        }
        (Some("closed"), true) => {
            return Err("--mode closed conflicts with --rate (rates are open-loop)".to_string())
        }
        (_, false) if arrival.is_some() => {
            return Err("--arrival only applies to open-loop runs (add --rate)".to_string())
        }
        _ => {}
    }
    Ok(SweepArgs {
        id,
        locks,
        workloads,
        axes,
        arrival: arrival.unwrap_or_default(),
        scale,
        metric,
        repetitions,
        duration_ms,
    })
}

/// Renders the `lockbench list` registry table.
pub fn render_list() -> String {
    let header: Vec<String> = [
        "name",
        "label",
        "NUMA",
        "compact",
        "bytes",
        "fairness",
        "try",
        "checked",
        "sim model",
        "description",
    ]
    .map(String::from)
    .to_vec();
    let yes_no = |b: bool| if b { "yes" } else { "no" }.to_string();
    let rows: Vec<Vec<String>> = LockId::ALL
        .iter()
        .map(|id| {
            vec![
                id.name().to_string(),
                id.raw_name().to_string(),
                yes_no(id.is_numa_aware()),
                yes_no(id.is_compact()),
                id.compactness().to_string(),
                id.fairness_class().to_string(),
                yes_no(id.supports_try_lock()),
                yes_no(is_model_checked(*id)),
                id.sim_algorithm().name().to_string(),
                id.description().to_string(),
            ]
        })
        .collect();
    render_table(
        &format!("Registered lock algorithms ({})", LockId::ALL.len()),
        &header,
        &rows,
    )
}

/// Whether the model checker's smoke matrix explores this lock: it has a row
/// in `modelcheck::suite::SMOKE`. The qspinlocks have none; their queue
/// nodes live in a global per-CPU table that cannot take the checker's
/// atomics.
fn is_model_checked(id: LockId) -> bool {
    modelcheck::suite::SMOKE
        .iter()
        .any(|(name, _)| *name == id.name())
}

/// The workspace root `lockbench lint` scans: two levels above this
/// crate's manifest (`crates/bench`), falling back to the cwd when the env
/// var is absent (e.g. a stripped deployment).
fn workspace_root() -> std::path::PathBuf {
    if let Ok(md) = std::env::var("CARGO_MANIFEST_DIR") {
        let p = std::path::PathBuf::from(md);
        if let Some(root) = p.parent().and_then(|p| p.parent()) {
            if root.join("Cargo.toml").exists() {
                return root.to_path_buf();
            }
        }
    }
    std::env::current_dir().unwrap_or_else(|_| std::path::PathBuf::from("."))
}

/// Builds the [`ExperimentSpec`] a `run`/`sweep` invocation describes.
pub fn build_spec(args: &SweepArgs) -> ExperimentSpec {
    let spec = ExperimentSpec {
        axes: args.axes.clone(),
        arrival: args.arrival,
        ..ExperimentSpec::new(&args.id)
    };
    let mut spec = spec
        .title(format!(
            "lockbench {} ({} scale)",
            args.id,
            args.scale.name()
        ))
        .locks(args.locks.clone())
        .workloads(args.workloads.iter().map(|w| w.to_spec()).collect())
        .scale(args.scale)
        .metric(args.metric)
        .repetitions(args.repetitions);
    if let Some(ms) = args.duration_ms {
        spec = spec.duration_ms(ms);
    }
    spec
}

/// Executes a `run`/`sweep` grid and returns the report (no I/O, no
/// printing — used by tests and by [`execute`]).
pub fn execute_sweep(args: &SweepArgs) -> Result<RunReport, String> {
    build_spec(args).run().map_err(|e| e.to_string())
}

/// Executes a parsed [`Command`], printing results to stdout.
///
/// Returns the process exit code: 0 on success, 1 when `diff` found a
/// regression. Runtime failures come back as `Err` (exit code 2 in the
/// binary).
pub fn execute(command: &Command) -> Result<i32, String> {
    match command {
        Command::Help => println!("{}", usage()),
        Command::List { names_only } => {
            if *names_only {
                for id in LockId::ALL {
                    println!("{id}");
                }
            } else {
                println!("{}", render_list());
            }
        }
        Command::Run(args) | Command::Sweep(args) => {
            let report = execute_sweep(args)?;
            for sweep in report.sweeps() {
                println!(
                    "{}",
                    sweep.render(&format!(
                        "{} — {} [{}]",
                        report.title, sweep.workload, sweep.metric
                    ))
                );
            }
            let (csv, json) = report
                .write_files()
                .map_err(|e| format!("could not save report {:?}: {e}", report.id))?;
            println!("reports: {} {}", csv.display(), json.display());
        }
        Command::Lint(args) => {
            let mut opts = cnalint::Options::new(workspace_root());
            opts.deny_warnings = args.deny_warnings;
            let out = cnalint::run_check(&opts).map_err(|e| format!("lint scan failed: {e}"))?;
            if args.json {
                print!("{}", cnalint::render_json(&out));
            } else {
                print!("{}", cnalint::render_human(&out));
            }
            return Ok(out.exit_code());
        }
        Command::Diff(args) => {
            let baseline =
                RunReport::load_csv(Path::new(&args.baseline)).map_err(|e| e.to_string())?;
            let current =
                RunReport::load_csv(Path::new(&args.current)).map_err(|e| e.to_string())?;
            let diff = current.diff_against(
                &baseline,
                DiffThreshold {
                    max_regression: args.tolerance,
                },
            );
            println!("{}", diff.render());
            if diff.has_regressions() {
                return Ok(1);
            }
        }
    }
    Ok(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a whitespace-separated command line.
    fn parse(line: &str) -> Result<Command, String> {
        parse_args(line.split_whitespace().map(String::from))
    }

    /// Parses a `run`/`sweep` command line that must succeed.
    fn sweep_args(line: &str) -> SweepArgs {
        match parse(line) {
            Ok(Command::Run(args) | Command::Sweep(args)) => args,
            other => panic!("{line}: expected run/sweep, got {other:?}"),
        }
    }

    #[test]
    fn parses_list_and_help() {
        let list = |names_only| Ok(Command::List { names_only });
        assert_eq!(parse("list"), list(false));
        assert_eq!(parse("list --names"), list(true));
        assert_eq!(parse("--help"), Ok(Command::Help));
        assert_eq!(parse(""), Ok(Command::Help));
        assert!(parse("frobnicate").is_err());
    }

    #[test]
    fn parses_a_full_sweep_command() {
        let args = sweep_args(
            "sweep --lock cna,mcs --workload sim,kvmap --threads 1,2,4 --scale smoke \
             --metric fairness --rep 2 --duration-ms 7 --id my_report",
        );
        assert_eq!(args.locks, vec![LockId::Cna, LockId::Mcs]);
        assert_eq!(args.workloads, vec![WorkloadId::Sim, WorkloadId::KvMap]);
        assert_eq!(args.axes, axes(&[(Axis::Threads, &[1, 2, 4])]));
        assert_eq!(args.scale, Scale::Smoke);
        assert_eq!(args.metric, Metric::FairnessFactor);
        assert_eq!(args.repetitions, 2);
        assert_eq!(args.duration_ms, Some(7));
        assert_eq!(args.id, "my_report");
        assert_eq!(
            sweep_args("run --lock cna --workload sim").id,
            "lockbench_run"
        );
    }

    #[test]
    fn every_axis_flag_fills_its_list_and_names_its_axis_in_errors() {
        for (flag, list, axis, points) in [
            ("--threads", "1-3", Axis::Threads, &[1, 2, 3][..]),
            ("--shards", "1,2,4,8", Axis::Shards, &[1, 2, 4, 8]),
            ("--batch", "1,8,32", Axis::Batch, &[1, 8, 32]),
            ("--batches", "2-8/3", Axis::Batch, &[2, 5, 8]),
            ("--rate", "1000,10000", Axis::Rate, &[1_000, 10_000]),
            ("--rates", "500", Axis::Rate, &[500]),
        ] {
            let args = sweep_args(&format!("sweep --lock cna --workload kvmap {flag} {list}"));
            assert_eq!(args.axes, axes(&[(axis, points)]), "{flag} {list}");
            let err =
                parse(&format!("sweep --lock cna --workload kvmap {flag} 0,junk")).unwrap_err();
            let list_name = ["thread", "shard", "batch", "rate"][axis as usize];
            assert!(
                err.starts_with(&format!("invalid {list_name} list")),
                "{err}"
            );
        }
        // `x` tokens are CPU-count multiples of the thread axis.
        let args = sweep_args("sweep --lock fissile,mcscr --workload sim --threads 2,1x-4x/1,8x");
        assert_eq!(args.axes[Axis::Threads], vec![2]);
        assert_eq!(args.axes.multiples, vec![1, 2, 3, 4, 8]);
        let err = parse("sweep --lock cna --workload sim --threads 1-8x").unwrap_err();
        assert!(err.contains("multiplier"), "got: {err}");
    }

    #[test]
    fn parses_an_open_loop_sweep_command() {
        let args = sweep_args(
            "sweep --lock cna,mcs --workload kvmap --mode open --rate 1000,10000,100000 \
             --metric p99 --scale smoke",
        );
        assert_eq!(args.axes[Axis::Rate], vec![1_000, 10_000, 100_000]);
        assert_eq!(args.arrival, Arrival::Poisson);
        assert_eq!(args.metric, Metric::P99Sojourn);
        // `--rate` alone implies open mode; `--arrival` selects the shape.
        let args = sweep_args("run --lock cna --workload kvmap --rate 500 --arrival fixed");
        assert_eq!(args.axes[Axis::Rate], vec![500]);
        assert_eq!(args.arrival, Arrival::Fixed);
    }

    #[test]
    fn contradictory_mode_flags_are_usage_errors() {
        let with = |extra: &str| parse(&format!("sweep --lock cna --workload kvmap {extra}"));
        assert!(with("--mode open").unwrap_err().contains("requires --rate"));
        assert!(with("--mode closed --rate 1000")
            .unwrap_err()
            .contains("conflicts"));
        assert!(with("--arrival poisson").unwrap_err().contains("open-loop"));
        assert!(with("--mode sideways")
            .unwrap_err()
            .contains("closed, open"));
        assert!(with("--rate 0").is_err());
        assert!(with("--rate fast").is_err());
    }

    #[test]
    fn unknown_tokens_list_the_valid_names() {
        let err = parse("sweep --lock cna --workload kvmap --metric bogus").unwrap_err();
        assert!(
            err.contains("throughput") && err.contains("p99") && err.contains("queue-depth"),
            "metric error should list valid tokens, got: {err}"
        );
        let err = parse("sweep --lock cna --workload bogus").unwrap_err();
        assert!(
            err.contains("kvmap") && err.contains("sim"),
            "workload error should list valid tokens, got: {err}"
        );
        let err =
            parse("sweep --lock cna --workload kvmap --rate 100 --arrival bogus").unwrap_err();
        assert!(
            err.contains("fixed") && err.contains("poisson"),
            "arrival error should list valid tokens, got: {err}"
        );
    }

    #[test]
    fn run_requires_lock_and_workload_and_valid_threads() {
        for line in [
            "run",
            "run --lock cna",
            "run --workload kvmap",
            "run --lock bogus --workload kvmap",
            "run --lock cna --workload bogus",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
        for bad_threads in ["0", "1,1", "x", "4-1", "1-4000000000"] {
            let err = parse(&format!(
                "run --lock cna --workload kvmap --threads {bad_threads}"
            ));
            let err = err.unwrap_err();
            assert!(
                err.starts_with("invalid thread list"),
                "{bad_threads}: {err}"
            );
        }
        for bad_id in ["a/b", "a,b"] {
            let line = format!("sweep --lock cna --workload kvmap --id {bad_id}");
            assert!(parse(&line).is_err(), "--id {bad_id:?} should be rejected");
        }
        let with_id = |id: &str| {
            let mut args: Vec<String> = "sweep --lock cna --workload kvmap --id"
                .split_whitespace()
                .map(String::from)
                .collect();
            args.push(id.to_string());
            parse_args(args)
        };
        assert!(with_id("a b").is_err() && with_id("").is_err());
    }

    #[test]
    fn lock_and_workload_all_expand_to_everything() {
        let args = sweep_args("run --lock all --workload all");
        assert_eq!(args.locks, LockId::ALL.to_vec());
        assert_eq!(args.workloads, WorkloadId::ALL.to_vec());
    }

    #[test]
    fn diff_parses_paths_and_tolerance() {
        let diff = |baseline: &str, current: &str, tolerance| {
            Ok(Command::Diff(DiffArgs {
                baseline: baseline.to_string(),
                current: current.to_string(),
                tolerance,
            }))
        };
        let default = DiffThreshold::default().max_regression;
        assert_eq!(parse("diff a.csv b.csv"), diff("a.csv", "b.csv", default));
        assert_eq!(parse("diff --tolerance 0.5 a b"), diff("a", "b", 0.5));
        for line in [
            "diff a.csv",
            "diff a b c",
            "diff --tolerance -1 a b",
            "diff --bogus a b",
        ] {
            assert!(parse(line).is_err(), "{line}");
        }
    }

    #[test]
    fn list_table_mentions_every_registered_lock_and_its_metadata() {
        let table = render_list();
        for id in LockId::ALL {
            assert!(table.contains(id.name()), "list misses {}", id.name());
        }
        assert!(table.contains("fairness"));
        assert!(table.contains("epoch-bounded"));
        // The `checked` column reflects modelcheck suite coverage.
        assert!(table.contains("checked"));
        assert!(!table.contains("linted"));
        assert!(usage().contains("lockbench sweep"));
        assert!(usage().contains("lockbench diff"));
        assert!(usage().contains("--mode closed|open"));
        assert!(usage().contains("EXIT CODES"));
        assert!(usage().contains("queue-depth"));
    }

    #[test]
    fn every_atomics_generic_lock_is_model_checked() {
        let unchecked: Vec<LockId> = LockId::ALL
            .into_iter()
            .filter(|&id| !is_model_checked(id))
            .collect();
        assert_eq!(unchecked, [LockId::QSpinStock, LockId::QSpinCna]);
    }

    fn axes(points: &[(Axis, &[u64])]) -> AxisLists {
        let mut axes = AxisLists::default();
        for &(axis, p) in points {
            axes.set(axis, Some(p.to_vec()));
        }
        axes
    }

    fn closed_args(id: &str) -> SweepArgs {
        SweepArgs {
            id: id.to_string(),
            locks: vec![LockId::Mcs, LockId::Cna],
            workloads: vec![WorkloadId::Sim, WorkloadId::KvMap],
            axes: axes(&[(Axis::Threads, &[1, 2])]),
            arrival: Arrival::Poisson,
            scale: Scale::Smoke,
            metric: Metric::ThroughputOpsPerUs,
            repetitions: 1,
            duration_ms: Some(5),
        }
    }

    #[test]
    fn smoke_sweep_produces_the_full_grid() {
        let report = execute_sweep(&closed_args("unit_cli_sweep")).unwrap();
        // 2 workloads × 2 thread counts × 2 locks × 1 rep.
        assert_eq!(report.samples.len(), 8);
        assert_eq!(report.scale, "smoke");
        let sweeps = report.sweeps();
        assert_eq!(sweeps.len(), 2);
        assert!(sweeps
            .iter()
            .all(|s| s.rows.len() == 2 && s.locks.len() == 2));
        assert!(report.samples.iter().all(|s| s.value > 0.0));
        assert!(report.samples.iter().all(|s| s.mode() == "closed"));
    }

    #[test]
    fn open_smoke_sweep_carries_the_histogram_columns() {
        let args = SweepArgs {
            workloads: vec![WorkloadId::KvMap],
            axes: axes(&[(Axis::Threads, &[2]), (Axis::Rate, &[50_000, 200_000])]),
            metric: Metric::P99Sojourn,
            duration_ms: Some(2),
            ..closed_args("unit_cli_open")
        };
        let report = execute_sweep(&args).unwrap();
        // 1 workload × 2 rates × 1 thread count × 2 locks × 1 rep.
        assert_eq!(report.samples.len(), 4);
        assert!(report.samples.iter().all(|s| s.mode() == "open"));
        assert!(report.samples.iter().all(|s| s.p99_us > 0.0));
        let sweep = report.sweep_for("kvmap").unwrap();
        assert_eq!(sweep.axes(), vec![Axis::Threads, Axis::Rate]);
        assert_eq!(sweep.rows.len(), 2);
    }

    #[test]
    fn scale_out_sweeps_run_one_cell_per_point_on_their_workload_only() {
        for (workload, axis) in [
            (WorkloadId::KvMap, Axis::Shards),
            (WorkloadId::Leveldb, Axis::Batch),
        ] {
            let args = SweepArgs {
                locks: vec![LockId::Cna],
                workloads: vec![workload],
                axes: axes(&[(Axis::Threads, &[2]), (axis, &[1, 4])]),
                duration_ms: Some(4),
                ..closed_args("unit_cli_scale_out")
            };
            let report = execute_sweep(&args).unwrap();
            // 2 points × 1 thread count × 1 lock × 1 rep.
            let points: Vec<u64> = report.samples.iter().map(|s| s.point[axis]).collect();
            assert_eq!(points, vec![1, 4], "{axis}");
            assert!(report.samples.iter().all(|s| s.total_ops > 0));
            assert!(report
                .to_csv()
                .starts_with("id,scale,workload,lock,label,threads,shards,batch,mode,rate,"));
            let wrong = SweepArgs {
                workloads: vec![WorkloadId::Sim],
                ..args
            };
            let err = execute_sweep(&wrong).unwrap_err();
            assert!(err.contains(&format!("no {axis} axis")), "got: {err}");
        }
    }

    #[test]
    fn wis_expands_to_one_sample_per_sub_benchmark() {
        let args = SweepArgs {
            locks: vec![LockId::QSpinStock],
            workloads: vec![WorkloadId::Wis],
            axes: axes(&[(Axis::Threads, &[2])]),
            ..closed_args("unit_cli_wis")
        };
        let report = execute_sweep(&args).unwrap();
        assert_eq!(report.samples.len(), 4);
        assert!(report
            .samples
            .iter()
            .all(|s| s.workload.starts_with("wis/")));
    }

    #[test]
    fn unsupported_metric_surfaces_as_a_cli_error() {
        let args = SweepArgs {
            locks: vec![LockId::Cna],
            workloads: vec![WorkloadId::KvMap],
            axes: axes(&[(Axis::Threads, &[1])]),
            metric: Metric::LlcMissesPerUs,
            duration_ms: Some(2),
            ..closed_args("unit_cli_bad_metric")
        };
        let err = execute_sweep(&args).unwrap_err();
        assert!(err.contains("llc-misses"), "got: {err}");
    }

    #[test]
    fn open_metric_on_a_closed_grid_is_rejected_before_running() {
        let args = SweepArgs {
            metric: Metric::P99Sojourn,
            ..closed_args("unit_cli_mode_mismatch")
        };
        let err = execute_sweep(&args).unwrap_err();
        assert!(err.contains("closed-loop"), "got: {err}");
    }

    #[test]
    fn sweep_write_failures_name_the_offending_path() {
        // Occupy the report directory's parent with a plain file so the
        // write must fail, then check the surfaced error names the path.
        let base = std::env::temp_dir().join("cna-cli-write-err");
        let _ = std::fs::remove_dir_all(&base);
        let _ = std::fs::remove_file(&base);
        std::fs::write(&base, "occupied").unwrap();
        let args = SweepArgs {
            locks: vec![LockId::Cna],
            workloads: vec![WorkloadId::Sim],
            axes: axes(&[(Axis::Threads, &[1])]),
            duration_ms: None,
            ..closed_args("unit_cli_write_err")
        };
        let err = {
            let _guard = EnvGuard::set("EXPERIMENTS_DIR", base.join("sub"));
            execute(&Command::Sweep(args)).unwrap_err()
        };
        assert!(
            err.contains("could not save report \"unit_cli_write_err\""),
            "got: {err}"
        );
        assert!(
            err.contains("cna-cli-write-err"),
            "error should name the offending path, got: {err}"
        );
        let _ = std::fs::remove_file(&base);
    }

    /// Sets an env var for the duration of a test, restoring on drop (the
    /// same pattern the harness table tests use; env vars are process-wide,
    /// and only this test mutates `EXPERIMENTS_DIR` in this crate).
    struct EnvGuard {
        key: &'static str,
        previous: Option<std::ffi::OsString>,
    }

    impl EnvGuard {
        fn set(key: &'static str, value: impl AsRef<std::ffi::OsStr>) -> EnvGuard {
            let previous = std::env::var_os(key);
            std::env::set_var(key, value);
            EnvGuard { key, previous }
        }
    }

    impl Drop for EnvGuard {
        fn drop(&mut self) {
            match &self.previous {
                Some(value) => std::env::set_var(self.key, value),
                None => std::env::remove_var(self.key),
            }
        }
    }
}
