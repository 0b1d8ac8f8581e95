//! The end-to-end series and the round-robin window that measures them.
//!
//! Every series drives one layer through its public functions only. All
//! series of a run share one window: each round runs one short fixed-count
//! trial of every series, in an order that rotates every round, so every
//! series samples every phase of the host equally.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use sync_core::RawLock;

use crate::estimators::{best, floor, median, pair_flipped, paired_ratio_median, rotation};
use crate::fixtures::{cell_totals, counted, speedup, Fixtures, Object};
use crate::inputs::{Inputs, STREAM_LEN, VALUE_POOL};
use crate::spec::{Sizes, CRITICAL_WORK, PUT_BATCH};
use crate::trace::Tracer;

const MASK: usize = STREAM_LEN - 1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Series {
    RawMcs,
    RawCna,
    MutexCna,
    DynMcs,
    DynCna,
    DynQspinCna,
    KvIncrMcs,
    KvIncr,
    DbGet,
    DbPut,
    Kyoto,
    SimClosed,
    SimOpen,
}

impl Series {
    pub const COUNT: usize = 13;

    /// `layer.item` of the public function the series calls.
    pub const fn span_name(self) -> &'static str {
        match self {
            Series::RawMcs => "locks.McsLock.lock+unlock",
            Series::RawCna => "cna.CnaLock.lock+unlock",
            Series::MutexCna => "sync-core.LockMutex.lock[cna]",
            Series::DynMcs => "sync-core.DynLock.lock[mcs]",
            Series::DynCna => "sync-core.DynLock.lock[cna]",
            Series::DynQspinCna => "sync-core.DynLock.lock[qspinlock-cna]",
            Series::KvIncrMcs => "harness.ShardedKvMap.incr[mcs]",
            Series::KvIncr => "harness.ShardedKvMap.incr[cna]",
            Series::DbGet => "leveldb-lite.Db.get",
            Series::DbPut => "leveldb-lite.Db.put_group",
            Series::Kyoto => "kyoto-lite.CacheDb.execute",
            Series::SimClosed => "harness.ExperimentSpec.run[sim,closed]",
            Series::SimOpen => "harness.ExperimentSpec.run[sim,open]",
        }
    }

    /// Every series, in `Series as usize` order.
    pub const ALL: [Series; Series::COUNT] = [
        Series::RawMcs,
        Series::RawCna,
        Series::MutexCna,
        Series::DynMcs,
        Series::DynCna,
        Series::DynQspinCna,
        Series::KvIncrMcs,
        Series::KvIncr,
        Series::DbGet,
        Series::DbPut,
        Series::Kyoto,
        Series::SimClosed,
        Series::SimOpen,
    ];
}

/// What a round runs at one position: a series, or two series whose ratio
/// is reported and whose trials must therefore be adjacent.
#[derive(Debug, Clone, Copy)]
pub enum Unit {
    One(Series),
    Pair(Series, Series),
}

impl Unit {
    /// The trials of this unit in `round`; which member of a pair leads
    /// alternates.
    pub fn order(self, round: usize, units: usize) -> Vec<Series> {
        match self {
            Unit::One(s) => vec![s],
            Unit::Pair(a, b) if pair_flipped(round, units) => vec![b, a],
            Unit::Pair(a, b) => vec![a, b],
        }
    }
}

/// The units of a window. Every series runs on one thread.
pub fn units() -> Vec<Unit> {
    use Series::*;
    vec![
        Unit::Pair(RawMcs, RawCna),
        Unit::One(MutexCna),
        Unit::One(DynMcs),
        Unit::One(DynCna),
        Unit::One(DynQspinCna),
        Unit::Pair(KvIncrMcs, KvIncr),
        Unit::One(DbGet),
        Unit::One(DbPut),
        Unit::One(Kyoto),
        Unit::One(SimClosed),
        Unit::One(SimOpen),
    ]
}

/// One trial: `ops` operations took `ns`; `failed` of them did not pass
/// their output check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Trial {
    pub ops: u64,
    pub ns: u64,
    pub failed: u64,
}

impl Trial {
    pub fn ns_per_op(&self) -> f64 {
        self.ns as f64 / self.ops as f64
    }
}

/// Per-run state of the series: where each stream's next trial starts.
pub struct Bench<'a> {
    pub sizes: &'a Sizes,
    pub inputs: &'a Inputs,
    pub tracer: Tracer,
    cursors: [usize; Series::COUNT],
    puts: usize,
}

/// Walks `n` stream entries from `*cursor`, calling `visit` on each object.
fn walk<T>(
    tracer: &mut Tracer,
    name: &'static str,
    objects: &[T],
    order: &[u32],
    cursor: &mut usize,
    n: usize,
    visit: impl Fn(&T),
) -> u64 {
    let base = *cursor;
    *cursor = (base + n) & MASK;
    tracer.trial(name, n, |from, len| {
        for i in base + from..base + from + len {
            visit(&objects[order[i & MASK] as usize]);
        }
    })
}

fn counted_trial<L>(
    tracer: &mut Tracer,
    name: &'static str,
    objects: &[Object<L>],
    order: &[u32],
    cursor: &mut usize,
    n: usize,
    visit: impl Fn(&Object<L>),
) -> Trial {
    let before = counted(objects);
    let ns = walk(tracer, name, objects, order, cursor, n, visit);
    let done = counted(objects) - before;
    Trial {
        ops: n as u64,
        ns,
        failed: done.abs_diff(n as u64),
    }
}

fn raw_trial<L: RawLock>(
    tracer: &mut Tracer,
    name: &'static str,
    objects: &[Object<L>],
    order: &[u32],
    cursor: &mut usize,
    n: usize,
) -> Trial {
    let node = L::Node::default();
    counted_trial(tracer, name, objects, order, cursor, n, |o| {
        // SAFETY: `node` outlives the acquisition, serves one acquisition at
        // a time, and the matching `unlock` runs on this thread before the
        // node is used again.
        unsafe {
            o.lock.lock(&node);
            o.count.set(o.count.get() + 1);
            o.lock.unlock(&node);
        }
    })
}

fn panicked(check: impl FnOnce()) -> bool {
    catch_unwind(AssertUnwindSafe(check)).is_err()
}

impl<'a> Bench<'a> {
    pub fn new(sizes: &'a Sizes, inputs: &'a Inputs, trace: bool) -> Self {
        Bench {
            sizes,
            inputs,
            tracer: Tracer::new(trace),
            cursors: [0; Series::COUNT],
            puts: 0,
        }
    }

    /// Runs one trial of `series` and checks its outputs.
    pub fn trial(&mut self, fx: &Fixtures, series: Series) -> Trial {
        let (sizes, inputs) = (self.sizes, self.inputs);
        let name = series.span_name();
        let tracer = &mut self.tracer;
        let cursor = &mut self.cursors[series as usize];
        let order = &inputs.lock_order[..];
        match series {
            Series::RawMcs => raw_trial(tracer, name, &fx.raw_mcs, order, cursor, sizes.raw_ops),
            Series::RawCna => raw_trial(tracer, name, &fx.raw_cna, order, cursor, sizes.raw_ops),
            Series::MutexCna => {
                let n = sizes.mutex_ops;
                let total = || fx.mutex_cna.iter().map(|m| *m.0.lock()).sum::<u64>();
                let before = total();
                let ns = walk(tracer, name, &fx.mutex_cna, order, cursor, n, |m| {
                    *m.0.lock() += 1;
                });
                Trial {
                    ops: n as u64,
                    ns,
                    failed: (total() - before).abs_diff(n as u64),
                }
            }
            Series::DynMcs | Series::DynCna | Series::DynQspinCna => {
                let objects = match series {
                    Series::DynMcs => &fx.dyn_mcs,
                    Series::DynCna => &fx.dyn_cna,
                    _ => &fx.dyn_qspin_cna,
                };
                counted_trial(tracer, name, objects, order, cursor, sizes.dyn_ops, |o| {
                    let _guard = o.lock.lock();
                    o.count.set(o.count.get() + 1);
                })
            }
            Series::KvIncrMcs => kv_trial(
                tracer,
                name,
                &fx.kv_mcs,
                &inputs.kv_keys,
                cursor,
                sizes.kv_ops,
            ),
            Series::KvIncr => kv_trial(tracer, name, &fx.kv, &inputs.kv_keys, cursor, sizes.kv_ops),
            Series::DbGet => {
                let n = sizes.get_ops;
                let base = *cursor;
                *cursor = (base + n) & MASK;
                let mut missing = 0;
                let ns = tracer.trial(name, n, |from, len| {
                    for i in base + from..base + from + len {
                        let key = &fx.db_keys[inputs.db_get[i & MASK] as usize];
                        missing += u64::from(fx.db.get(key).is_none());
                    }
                });
                Trial {
                    ops: n as u64,
                    ns,
                    failed: missing,
                }
            }
            Series::DbPut => {
                let n = sizes.put_ops;
                let base = *cursor;
                *cursor = (base + n) & MASK;
                let first_value = self.puts;
                self.puts += n;
                let ns = tracer.trial(name, n, |from, len| {
                    for i in from..from + len {
                        let key = &fx.db_keys[inputs.db_put[(base + i) & MASK] as usize];
                        let value = &inputs.values[(first_value + i) % VALUE_POOL];
                        std::hint::black_box(fx.db.put_group(key, value, PUT_BATCH));
                    }
                });
                // Overwrites only: the table keeps its size, and the last
                // write reads back.
                let last_key = &fx.db_keys[inputs.db_put[(base + n - 1) & MASK] as usize];
                let last_value = &inputs.values[(first_value + n - 1) % VALUE_POOL];
                let read_back = fx.db.get(last_key);
                let failed = u64::from(fx.db.len() != sizes.db_keys)
                    + u64::from(read_back.as_deref() != Some(&last_value[..]));
                Trial {
                    ops: n as u64,
                    ns,
                    failed,
                }
            }
            Series::Kyoto => {
                let n = sizes.kyoto_ops;
                let base = *cursor;
                *cursor = (base + n) & MASK;
                let before = fx.kyoto.total_ops();
                let ns = tracer.trial(name, n, |from, len| {
                    for i in base + from..base + from + len {
                        let (op, key) = inputs.kyoto[i & MASK];
                        fx.kyoto.execute(op, key);
                    }
                });
                Trial {
                    ops: n as u64,
                    ns,
                    failed: (fx.kyoto.total_ops() - before).abs_diff(n as u64),
                }
            }
            Series::SimClosed => {
                let mut report = None;
                let ns = tracer.trial(name, 1, |_, _| {
                    report = Some(fx.sim_closed.run().expect("closed-loop sweep is valid"));
                });
                let report = report.expect("the trial body ran");
                let cells = cell_totals(&report);
                let wrong_cells = cells
                    .iter()
                    .zip(&fx.sim_expected.closed_cells)
                    .filter(|(seen, expected)| seen != expected)
                    .count()
                    + cells.len().abs_diff(fx.sim_expected.closed_cells.len());
                let wrong_speedup = speedup(&report).to_bits() != fx.sim_expected.speedup.to_bits();
                Trial {
                    ops: cells.iter().sum(),
                    ns,
                    failed: wrong_cells as u64 + u64::from(wrong_speedup),
                }
            }
            Series::SimOpen => {
                let mut report = None;
                let ns = tracer.trial(name, 1, |_, _| {
                    report = Some(fx.sim_open.run().expect("open-loop grid is valid"));
                });
                let cells = cell_totals(&report.expect("the trial body ran"));
                Trial {
                    ops: cells.iter().sum(),
                    ns,
                    failed: u64::from(cells != fx.sim_expected.open_cells),
                }
            }
        }
    }
}

/// `n` increments through the sharded kv-map, then its own consistency
/// checks: per-shard entry totals against op counters, and the op total.
pub fn kv_trial(
    tracer: &mut Tracer,
    name: &'static str,
    kv: &harness::ShardedKvMap,
    keys: &[u64],
    cursor: &mut usize,
    n: usize,
) -> Trial {
    let base = *cursor;
    *cursor = (base + n) & MASK;
    let before = kv.total_ops();
    let ns = tracer.trial(name, n, |from, len| {
        for i in base + from..base + from + len {
            kv.incr(keys[i & MASK], CRITICAL_WORK);
        }
    });
    let lost = (kv.total_ops() - before).abs_diff(n as u64);
    let inconsistent = panicked(|| kv.check_consistency());
    Trial {
        ops: n as u64,
        ns,
        failed: if inconsistent { n as u64 } else { lost },
    }
}

/// Everything one window measured.
pub struct Window {
    /// Trials of each series, indexed by `Series as usize`, in round order.
    pub trials: Vec<Vec<Trial>>,
    /// Wall seconds of each `Fixtures::build`.
    pub setups: Vec<f64>,
    pub rounds: usize,
    /// Rounds completed when each epoch ended.
    pub epoch_ends: Vec<usize>,
    pub speedup: f64,
}

impl Window {
    /// Per-operation nanoseconds of the passing trials of `series`, by
    /// epoch (a series runs once a round, so its trial index is the round).
    /// A window without epochs is one epoch.
    pub fn per_op_by_epoch(&self, series: Series) -> Vec<Vec<f64>> {
        let trials = self.of(series);
        let whole = [trials.len()];
        let ends: &[usize] = if self.epoch_ends.is_empty() {
            &whole
        } else {
            &self.epoch_ends
        };
        let mut from = 0;
        let mut epochs = Vec::new();
        for &to in ends {
            epochs.push(
                trials[from..to]
                    .iter()
                    .filter(|t| t.failed == 0)
                    .map(Trial::ns_per_op)
                    .collect(),
            );
            from = to;
        }
        epochs
    }

    pub fn of(&self, series: Series) -> &[Trial] {
        &self.trials[series as usize]
    }

    pub fn attempted(&self) -> u64 {
        self.trials.iter().flatten().map(|t| t.ops).sum()
    }

    pub fn failed(&self) -> u64 {
        self.trials.iter().flatten().map(|t| t.failed).sum()
    }

    /// Per-operation nanoseconds of every trial of `series` that passed.
    pub fn per_op(&self, series: Series) -> Vec<f64> {
        self.per_op_by_epoch(series).concat()
    }

    /// The floor of `series`: see [`crate::estimators::floor`].
    pub fn floor_ns(&self, series: Series) -> f64 {
        floor(&self.per_op_by_epoch(series))
    }

    /// Median over rounds of `a`'s time per operation ÷ `b`'s, from the two
    /// adjacent trials of each round in which both passed.
    pub fn paired_ratio(&self, a: Series, b: Series) -> f64 {
        let (num, den): (Vec<f64>, Vec<f64>) = self
            .of(a)
            .iter()
            .zip(self.of(b))
            .filter(|(x, y)| x.failed == 0 && y.failed == 0)
            .map(|(x, y)| (x.ns_per_op(), y.ns_per_op()))
            .unzip();
        paired_ratio_median(&num, &den)
    }

    /// Median over series of median trial ÷ best trial: how far the typical
    /// trial of this run sat above the floor.
    pub fn median_over_best(&self) -> f64 {
        let ratios: Vec<f64> = Series::ALL
            .iter()
            .map(|&s| self.per_op(s))
            .filter(|v| !v.is_empty())
            .map(|v| median(&v) / best(&v))
            .collect();
        median(&ratios)
    }
}

/// Set-ups per run. The window is cut into this many epochs; each builds
/// its fixtures anew (timed: `setup_s`) on a fresh thread behind a heap pad
/// of its own size. A lock acquisition's cost depends on where its node and
/// lock word happen to sit relative to each other (about one layout in
/// fifteen costs a `LockMutex` acquisition 40 % more on the reference host),
/// and a fresh thread gets a fresh node pool: a run then reads the median of
/// five layouts, not the luck of one.
pub const SETUPS: usize = 5;

/// Runs one unit's trials for `round`.
pub fn run_unit(
    bench: &mut Bench<'_>,
    fx: &Fixtures,
    unit: Unit,
    round: usize,
    units: usize,
) -> Vec<(Series, Trial)> {
    unit.order(round, units)
        .into_iter()
        .map(|series| (series, bench.trial(fx, series)))
        .collect()
}

/// Measures for `seconds`: per epoch one set-up, then rounds of one trial
/// per series until the epoch's share of the window is used.
pub fn run_window(bench: &mut Bench<'_>, units: &[Unit], seconds: f64) -> Window {
    let mut window = Window {
        trials: vec![Vec::new(); Series::COUNT],
        setups: Vec::new(),
        rounds: 0,
        epoch_ends: Vec::new(),
        speedup: 0.0,
    };
    let start = Instant::now();
    for epoch in 0..SETUPS {
        let deadline = seconds * (epoch + 1) as f64 / SETUPS as f64;
        let first_round = window.rounds;
        let bench = &mut *bench;
        let (setup, speedup, trials, rounds) = std::thread::scope(|scope| {
            let body = move || {
                let pad: Vec<u8> = Vec::with_capacity(64 + epoch * 1088);
                std::hint::black_box(&pad);
                let built = Instant::now();
                let fx = Fixtures::build(bench.sizes, bench.inputs);
                let setup = built.elapsed().as_secs_f64();
                let mut trials = Vec::new();
                let mut round = first_round;
                loop {
                    bench.tracer.set_round(round);
                    for position in rotation(round, units.len()) {
                        trials.extend(run_unit(bench, &fx, units[position], round, units.len()));
                    }
                    round += 1;
                    if start.elapsed().as_secs_f64() >= deadline {
                        break;
                    }
                }
                (setup, fx.sim_expected.speedup, trials, round)
            };
            scope.spawn(body).join().expect("the epoch thread panicked")
        });
        window.setups.push(setup);
        window.speedup = speedup;
        window.rounds = rounds;
        window.epoch_ends.push(rounds);
        for (series, trial) in trials {
            window.trials[series as usize].push(trial);
        }
    }
    window
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run::end_to_end_metrics;
    use crate::spec::{END_TO_END, WORKLOADS};

    fn tiny_window(seed: u64) -> Window {
        let sizes = WORKLOADS[0].sizes.with_shorter_trials(100);
        let inputs = Inputs::generate(&sizes, seed);
        let mut bench = Bench::new(&sizes, &inputs, false);
        // A zero-second window still runs one round per epoch.
        run_window(&mut bench, &units(), 0.0)
    }

    #[test]
    fn a_window_runs_every_series_passes_every_check_and_yields_every_metric() {
        let window = tiny_window(9);
        assert_eq!(window.rounds, SETUPS);
        assert_eq!(window.setups.len(), SETUPS);
        assert_eq!(window.epoch_ends, (1..=SETUPS).collect::<Vec<_>>());
        assert_eq!(window.failed(), 0);
        for series in Series::ALL {
            assert_eq!(window.of(series).len(), SETUPS, "{series:?}");
        }
        let metrics = end_to_end_metrics(&window);
        assert_eq!(metrics.len(), END_TO_END.len());
        for m in &metrics {
            assert!(
                m.value.is_finite() && m.value > 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }
    }

    #[test]
    fn exact_valued_metrics_repeat_for_a_seed_and_move_with_the_seed() {
        let (a, b, c) = (tiny_window(5), tiny_window(5), tiny_window(6));
        assert_eq!(a.speedup.to_bits(), b.speedup.to_bits());
        assert_eq!(
            a.of(Series::SimClosed)[0].ops,
            b.of(Series::SimClosed)[0].ops
        );
        assert_ne!(a.speedup.to_bits(), c.speedup.to_bits());
    }

    #[test]
    fn series_all_is_in_discriminant_order() {
        for (index, series) in Series::ALL.iter().enumerate() {
            assert_eq!(*series as usize, index);
        }
    }

    #[test]
    fn units_keep_paired_trials_adjacent_and_alternate_the_leader() {
        use Series::*;
        assert_eq!(Unit::One(DbGet).order(3, 11), vec![DbGet]);
        assert_eq!(
            Unit::Pair(RawMcs, RawCna).order(0, 11),
            vec![RawMcs, RawCna]
        );
        assert_eq!(
            Unit::Pair(RawMcs, RawCna).order(1, 11),
            vec![RawCna, RawMcs]
        );
        let listed: usize = units().iter().map(|u| u.order(0, 11).len()).sum();
        assert_eq!(listed, Series::COUNT);
    }

    #[test]
    fn a_failed_output_check_is_counted_and_kept_out_of_the_estimate() {
        let mut window = Window {
            trials: vec![Vec::new(); Series::COUNT],
            setups: vec![0.1],
            rounds: 2,
            epoch_ends: vec![2],
            speedup: 2.0,
        };
        let good = Trial {
            ops: 100,
            ns: 2000,
            failed: 0,
        };
        let bad = Trial {
            ops: 100,
            ns: 100,
            failed: 3,
        };
        window.trials[Series::DbGet as usize] = vec![good, bad];
        assert_eq!(window.attempted(), 200);
        assert_eq!(window.failed(), 3);
        assert_eq!(window.floor_ns(Series::DbGet), 20.0);
    }
}
