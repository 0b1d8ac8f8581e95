//! One run of one workload, the result line, the run record, and the
//! all-workloads report.

use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::mpsc;
use std::time::Duration;

use crate::e2e::{run_window, units, Bench, Series, Window};
use crate::estimators::best;
use crate::inputs::Inputs;
use crate::json::Json;
use crate::spec::{self, Workload, END_TO_END, RUN_SECONDS, WORKLOADS};
use crate::trace::current_trial;
use crate::{host, layers};

#[derive(Debug, Clone)]
pub struct Options {
    pub workload: Option<&'static Workload>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Smoke mode: short windows, results marked not comparable.
    pub quick: bool,
    /// Run records are appended here, one JSON object per line.
    pub out: Option<PathBuf>,
}

/// Window of a `--quick` run when `--seconds` is not given.
const QUICK_SECONDS: u64 = 2;
/// Seed when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

impl Options {
    pub fn parse(args: &[String], need_workload: bool) -> Result<Options, String> {
        let mut options = Options {
            workload: None,
            seed: DEFAULT_SEED,
            seconds: RUN_SECONDS,
            trace: false,
            quick: false,
            out: None,
        };
        let mut seconds = None;
        let mut args = args.iter();
        while let Some(flag) = args.next() {
            let mut value = || {
                args.next()
                    .ok_or_else(|| format!("{flag} needs a value"))
                    .map(String::as_str)
            };
            match flag.as_str() {
                "--workload" => {
                    let name = value()?;
                    options.workload = Some(spec::workload(name).ok_or_else(|| {
                        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                        format!("unknown workload {name:?} (known: {})", known.join(", "))
                    })?);
                }
                "--seed" => {
                    let text = value()?;
                    options.seed = text
                        .parse()
                        .map_err(|_| format!("--seed {text:?} is not a u64"))?;
                }
                "--seconds" => {
                    let text = value()?;
                    seconds = Some(
                        text.parse()
                            .ok()
                            .filter(|s| (1..=600).contains(s))
                            .ok_or_else(|| format!("--seconds {text:?} is not in 1..=600"))?,
                    );
                }
                "--trace" => {
                    options.trace = match value()? {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace {other:?} is not 0 or 1")),
                    };
                }
                "--quick" => options.quick = true,
                "--out" => options.out = Some(PathBuf::from(value()?)),
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        if need_workload && options.workload.is_none() {
            return Err("--workload is required".to_string());
        }
        options.seconds = seconds.unwrap_or(if options.quick {
            QUICK_SECONDS
        } else {
            RUN_SECONDS
        });
        Ok(options)
    }
}

/// A named value with its unit.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn measured(name: impl Into<String>, value: f64, unit: &'static str) -> Measured {
    Measured {
        name: name.into(),
        value,
        unit,
    }
}

/// The outcome of one run.
pub struct Outcome {
    pub workload: &'static str,
    pub trace: bool,
    pub metrics: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    /// Metrics the contract lists that this run could not measure, with the
    /// reason (never reported as 0).
    pub skipped: Vec<(String, String)>,
    pub record: Json,
}

impl Outcome {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.metrics.iter().all(|m| m.value.is_finite())
    }

    fn metrics_json(&self) -> Json {
        Json::Obj(
            self.metrics
                .iter()
                .map(|m| {
                    let value =
                        Json::obj([("value", Json::Num(m.value)), ("unit", Json::str(m.unit))]);
                    (m.name.clone(), value)
                })
                .collect(),
        )
    }

    /// The object the driver reads from the last line of standard output.
    pub fn result_line(&self) -> String {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            ("metrics", self.metrics_json()),
        ])
        .render()
    }
}

/// The end-to-end metrics of an untraced window, in `END_TO_END` order.
pub fn end_to_end_metrics(window: &Window) -> Vec<Measured> {
    let value = |name: &str| -> f64 {
        match name {
            // Five samples, one per epoch: the fastest.
            "setup_s" => best(&window.setups),
            "raw_ns.mcs" => window.floor_ns(Series::RawMcs),
            "raw_ns.cna" => window.floor_ns(Series::RawCna),
            "mutex_ns.cna" => window.floor_ns(Series::MutexCna),
            "dyn_ns.mcs" => window.floor_ns(Series::DynMcs),
            "dyn_ns.cna" => window.floor_ns(Series::DynCna),
            "dyn_ns.qspinlock-cna" => window.floor_ns(Series::DynQspinCna),
            "cna_over_mcs.raw" => window.paired_ratio(Series::RawCna, Series::RawMcs),
            "cna_over_mcs.kvmap" => window.paired_ratio(Series::KvIncr, Series::KvIncrMcs),
            "kvmap_incr_ns" => window.floor_ns(Series::KvIncr),
            "leveldb_get_ns" => window.floor_ns(Series::DbGet),
            "leveldb_put_ns" => window.floor_ns(Series::DbPut),
            "kyoto_op_ns" => window.floor_ns(Series::Kyoto),
            "sim_closed_ns_per_op" => window.floor_ns(Series::SimClosed),
            "sim_open_ns_per_req" => window.floor_ns(Series::SimOpen),
            "sim_speedup_cna_over_mcs" => window.speedup,
            other => unreachable!("no estimator for {other}"),
        }
    };
    END_TO_END
        .iter()
        .map(|m| measured(m.name, value(m.name), m.unit))
        .collect()
}

/// Seconds past its window a run may last before the watchdog ends it. A
/// window overruns by one round (about a second) and set-up takes less; the
/// driver stops a run at 180 s without saying where it was.
const STALL_GRACE_SECONDS: u64 = 60;
/// Exit code of a run the watchdog ended.
const STALLED: i32 = 3;

/// Ends the process with a message naming the trial in progress if the run
/// is still going [`STALL_GRACE_SECONDS`] after its window. Dropping the
/// returned sender stands the watchdog down.
fn watchdog(seconds: u64) -> mpsc::Sender<()> {
    let (done, running) = mpsc::channel::<()>();
    let limit = Duration::from_secs(seconds + STALL_GRACE_SECONDS);
    std::thread::spawn(move || {
        if running.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
            eprintln!(
                "cna-benchmark: still running {} s after a {seconds} s window, stalled in {}",
                limit.as_secs(),
                current_trial()
            );
            std::process::exit(STALLED);
        }
    });
    done
}

const ONE_CPU: &str = "needs two load-generating threads and this host has one CPU";

/// Runs `workload` once.
pub fn run_one(workload: &'static Workload, options: &Options) -> Outcome {
    let _watchdog = watchdog(options.seconds);
    let inputs = Inputs::generate(&workload.sizes, options.seed);
    let two_threads = host::nproc() >= 2;
    let sizes = if options.trace {
        workload.sizes.with_shorter_trials(layers::TRIAL_DIVISOR)
    } else {
        workload.sizes.clone()
    };
    let mut bench = Bench::new(&sizes, &inputs, options.trace);
    let steal_before = host::steal_ticks();
    let seconds = options.seconds as f64;

    let mut skipped = Vec::new();
    let (window, metrics) = if options.trace {
        let (window, metrics, missing) = layers::run(&mut bench, seconds, two_threads);
        skipped.extend(missing.into_iter().map(|n| (n, ONE_CPU.to_string())));
        (window, metrics)
    } else {
        let window = run_window(&mut bench, &units(), seconds);
        let metrics = end_to_end_metrics(&window);
        (window, metrics)
    };
    let steal = host::steal_ticks().saturating_sub(steal_before);
    let med_over_best = window.median_over_best();
    if options.trace {
        let dir = host::out_dir();
        let path = dir.join(format!("trace-{}.json", workload.name));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, bench.tracer.to_json().render()));
        match written {
            Ok(()) => println!(
                "# trace: {} spans written to {}",
                bench.tracer.span_count(),
                path.display()
            ),
            Err(e) => eprintln!("cna-benchmark: cannot write {}: {e}", path.display()),
        }
    }

    let trials_per_series: Vec<usize> = window
        .trials
        .iter()
        .map(Vec::len)
        .filter(|&n| n > 0)
        .collect();
    let mut outcome = Outcome {
        workload: workload.name,
        trace: options.trace,
        metrics,
        attempted: window.attempted().max(1),
        failed: window.failed(),
        skipped,
        record: Json::Null,
    };
    outcome.record = Json::obj([
        ("workload", Json::str(workload.name)),
        ("seed", Json::Num(options.seed as f64)),
        ("seconds", Json::Num(seconds)),
        ("trace", Json::Bool(options.trace)),
        ("comparable", Json::Bool(!options.quick)),
        ("rounds", Json::Num(window.rounds as f64)),
        (
            "epoch_ends",
            Json::Arr(
                window
                    .epoch_ends
                    .iter()
                    .map(|&r| Json::Num(r as f64))
                    .collect(),
            ),
        ),
        (
            "min_trials_per_series",
            Json::Num(trials_per_series.iter().copied().min().unwrap_or(0) as f64),
        ),
        (
            "inputs_digest",
            Json::str(format!("{:016x}", inputs.digest())),
        ),
        ("host", host::provenance()),
        (
            "noise",
            Json::obj([
                ("med_over_best", Json::Num(med_over_best)),
                ("steal_ticks", Json::Num(steal as f64)),
                (
                    "setup_s_all",
                    Json::Arr(window.setups.iter().map(|&s| Json::Num(s)).collect()),
                ),
            ]),
        ),
        (
            // Time per operation of every passing trial, in round order.
            "series_ns_per_op",
            Json::Obj(
                Series::ALL
                    .iter()
                    .filter(|&&s| !window.per_op(s).is_empty())
                    .map(|&s| {
                        let trials = window.per_op(s).into_iter().map(Json::Num).collect();
                        (s.span_name().to_string(), Json::Arr(trials))
                    })
                    .collect(),
            ),
        ),
        (
            "skipped",
            Json::Obj(
                outcome
                    .skipped
                    .iter()
                    .map(|(name, why)| (name.clone(), Json::str(why.clone())))
                    .collect(),
            ),
        ),
        ("correct", Json::Bool(outcome.correct())),
        ("attempted", Json::Num(outcome.attempted as f64)),
        ("failed", Json::Num(outcome.failed as f64)),
        ("metrics", outcome.metrics_json()),
    ]);
    outcome
}

/// Prints the provenance and every metric by name with its unit.
fn print_outcome(outcome: &Outcome, options: &Options) {
    let record = &outcome.record;
    let text = |key: &str| record.get(key).map(Json::render).unwrap_or_default();
    println!(
        "# workload {} seed {} window {} s trace {} rounds {} (min trials per series {})",
        outcome.workload,
        options.seed,
        options.seconds,
        u8::from(outcome.trace),
        text("rounds"),
        text("min_trials_per_series"),
    );
    println!("# host {}", text("host"));
    println!(
        "# inputs digest {} noise {}",
        text("inputs_digest"),
        text("noise")
    );
    if options.quick {
        println!("# --quick: smoke run, results are NOT comparable");
    }
    for m in &outcome.metrics {
        let bound = spec::end_to_end(&m.name)
            .map(|e| {
                format!(
                    "  (better: {}, bound {} %)",
                    e.better.name(),
                    e.bound * 100.0
                )
            })
            .unwrap_or_default();
        println!("{:<48} {:>16.4} {}{}", m.name, m.value, m.unit, bound);
    }
    for (name, why) in &outcome.skipped {
        println!("{name:<48} skipped: {why}");
    }
    println!(
        "# ops_attempted {} ops_failed {}",
        outcome.attempted, outcome.failed
    );
}

fn append_record(path: &PathBuf, record: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut file| writeln!(file, "{}", record.render()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// `--workload …`: one run, result object on the last line.
pub fn single(options: &Options) -> Result<ExitCode, String> {
    let workload = options.workload.expect("parse checked the workload");
    let outcome = run_one(workload, options);
    print_outcome(&outcome, options);
    if let Some(path) = &options.out {
        append_record(path, &outcome.record)?;
    }
    println!("{}", outcome.result_line());
    Ok(if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

/// `report`: every workload untraced, then traced.
pub fn report(options: &Options) -> Result<ExitCode, String> {
    let out = options
        .out
        .clone()
        .unwrap_or_else(|| host::out_dir().join("report.jsonl"));
    let workloads: Vec<&'static Workload> = match options.workload {
        Some(w) => vec![w],
        None => WORKLOADS.iter().collect(),
    };
    let mut all_correct = true;
    for trace in [false, true] {
        for &workload in &workloads {
            let options = Options {
                trace,
                ..options.clone()
            };
            let outcome = run_one(workload, &options);
            print_outcome(&outcome, &options);
            println!();
            append_record(&out, &outcome.record)?;
            all_correct &= outcome.correct();
        }
    }
    println!("# run records appended to {}", out.display());
    Ok(if all_correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
