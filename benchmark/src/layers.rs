//! The per-layer ledger: the traced run.
//!
//! Every row is measured from outside, through public functions, as batches
//! wrapped in spans (see [`crate::trace`]). A layer's *self* time is its
//! per-call time minus the per-call times of the child-layer functions it
//! calls, all measured as sibling series in the same rounds (`tax_ns`,
//! `get_self_ns`, `put_copy_ns`, `run_overhead_ns_per_op`). The run also
//! repeats every end-to-end series, once traced and once not, back to back:
//! their ratio is `trace.overhead_ratio`.
//!
//! Rows are advisory: trials are a quarter of the end-to-end size and heavy
//! rows run every fourth round.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use cna::{CnaLock, CnaNode};
use harness::experiments::{Arrival, LatencyHistogram, RunReport};
use harness::real::RunConfig;
use harness::Scale;
use kernel_sim::locktorture::{run_locktorture_dyn, LockTortureConfig};
use kernel_sim::willitscale::{run_will_it_scale_dyn, WisBenchmark, WisConfig};
use kyoto_lite::{CacheDb, WickedOp};
use leveldb_lite::{Db, MemTable, ShardedLruCache};
use locks::McsLock;
use numa_sim::rng::SimRng;
use numa_sim::Simulation;
use registry::LockId;
use sync_core::{node_pool, DynLock, LockMutex};

use crate::e2e::{run_unit, units, Bench, Series, Trial, Window};
use crate::estimators::{low_decile, median, paired_ratio_median, rotation};
use crate::fixtures::{counted, objects, sim_sweep, Fixtures, Object, Padded};
use crate::host;
use crate::inputs::STREAM_LEN;
use crate::run::{measured, Measured};
use crate::spec::{
    per_layer, Sizes, CRITICAL_WORK, DB_CACHE, ENGINE_IDS, KV_SHARDS, KYOTO_KINDS, REAL_IDS,
};
use crate::trace::Tracer;

const MASK: usize = STREAM_LEN - 1;
/// Traced trials are this fraction of the end-to-end trial sizes.
pub const TRIAL_DIVISOR: usize = 4;
/// Heavy rows (whole sweeps, report round trips, the linter) run on rounds
/// divisible by this.
const HEAVY_EVERY: usize = 4;
/// Calls per trial of the nanosecond-scale rows.
const SMALL_OPS: usize = 250_000;
/// Simulated threads of the engine-only rows.
const ENGINE_THREADS: usize = 36;
/// Wall-clock length of a kernel-sim trial.
const KERNEL_TRIAL_MS: u64 = 5;
/// Wall-clock length of one two-thread trial.
const TWO_THREAD_TRIAL_MS: u64 = 20;
/// Offered rate of the real-thread open-loop row.
const OPEN_RATE: u64 = 500_000;
/// A worker that got less than this share of a two-thread trial marks the
/// trial unbalanced (the host descheduled or co-located a vCPU).
const BALANCED_SHARE: f64 = 0.35;

/// One trial of a ledger row, with up to three side outputs the row defines.
#[derive(Debug, Clone, Copy)]
struct Sample {
    trial: Trial,
    extra: [f64; 3],
}

impl Sample {
    /// Whether the trial passed its checks and did any work to time.
    fn timed(&self) -> bool {
        self.trial.failed == 0 && self.trial.ops > 0
    }
}

impl From<Trial> for Sample {
    fn from(trial: Trial) -> Self {
        Sample {
            trial,
            extra: [0.0; 3],
        }
    }
}

struct Row<'a> {
    key: String,
    heavy: bool,
    run: Box<dyn FnMut(&mut Tracer) -> Sample + 'a>,
    samples: Vec<Sample>,
}

/// Fixtures only the ledger needs.
struct LayerFixtures {
    mutex_mcs: Vec<Padded<LockMutex<u64, McsLock>>>,
    dyn_locks: Vec<(LockId, Vec<Object<DynLock>>)>,
    memtable: MemTable,
    cache: ShardedLruCache<CnaLock>,
    kyoto: CacheDb<CnaLock>,
    report: RunReport,
}

impl LayerFixtures {
    fn build(sizes: &Sizes, fx: &Fixtures) -> LayerFixtures {
        let n = sizes.lock_instances;
        let mut memtable = MemTable::new();
        for (i, key) in fx.db_keys.iter().enumerate() {
            memtable.put(key, format!("value-{i}").as_bytes());
        }
        let kyoto = CacheDb::new();
        for key in 0..sizes.kyoto_keys {
            kyoto.execute(WickedOp::Set, key);
        }
        LayerFixtures {
            mutex_mcs: (0..n).map(|_| Padded(LockMutex::new(0))).collect(),
            dyn_locks: LockId::ALL
                .iter()
                .map(|&id| (id, objects(n, || id.build())))
                .collect(),
            memtable,
            cache: ShardedLruCache::new(DB_CACHE),
            kyoto,
            report: fx.sim_closed.run().expect("closed-loop sweep is valid"),
        }
    }
}

/// A row that makes `n` calls through `body(from, len)`; no output check.
fn calls<'a>(
    name: &'static str,
    n: usize,
    mut body: impl FnMut(usize, usize) + 'a,
) -> Box<dyn FnMut(&mut Tracer) -> Sample + 'a> {
    Box::new(move |tracer| {
        let ns = tracer.trial(name, n, &mut body);
        Trial {
            ops: n as u64,
            ns,
            failed: 0,
        }
        .into()
    })
}

/// A row that walks the lock-order stream over `objects`, each visit
/// incrementing the object's counter under its lock.
fn counted_walk<'a, L>(
    name: &'static str,
    objects: &'a [Object<L>],
    order: &'a [u32],
    n: usize,
    visit: impl Fn(&Object<L>) + 'a,
) -> Box<dyn FnMut(&mut Tracer) -> Sample + 'a> {
    let mut cursor = 0usize;
    Box::new(move |tracer| {
        let base = cursor;
        cursor = (base + n) & MASK;
        let before = counted(objects);
        let ns = tracer.trial(name, n, |from, len| {
            for i in base + from..base + from + len {
                visit(&objects[order[i & MASK] as usize]);
            }
        });
        Trial {
            ops: n as u64,
            ns,
            failed: (counted(objects) - before).abs_diff(n as u64),
        }
        .into()
    })
}

/// Two workers hammering one hot lock in a closed loop for
/// [`TWO_THREAD_TRIAL_MS`], spread over `virtual_sockets` virtual sockets.
fn two_thread_config(virtual_sockets: usize) -> RunConfig {
    RunConfig {
        threads: 2,
        duration: Duration::from_millis(TWO_THREAD_TRIAL_MS),
        critical_work: CRITICAL_WORK,
        virtual_sockets,
        ..RunConfig::default()
    }
}

/// A two-thread closed-loop row; `extra[0]` is the share of the trial's
/// operations the better-served worker got. The harness asserts its
/// protected counter against the workers' op counts; a panic there is one
/// failed operation and the trial yields no timing. A trial in which the host
/// ran neither worker before the stop flag rose has no operation to fail: it
/// yields no timing either and counts as unbalanced.
fn two_thread_row<'a>(
    name: &'static str,
    run: impl Fn() -> harness::RunResult + 'a,
) -> Box<dyn FnMut(&mut Tracer) -> Sample + 'a> {
    Box::new(move |tracer| {
        let mut outcome = None;
        tracer.trial(name, 1, |_, _| {
            outcome = Some(catch_unwind(AssertUnwindSafe(&run)));
        });
        match outcome.expect("the trial body ran") {
            Ok(result) => {
                let total = result.total_ops();
                let top = result.ops_per_thread.iter().copied().max().unwrap_or(0);
                let top_share = if total == 0 {
                    1.0
                } else {
                    top as f64 / total as f64
                };
                Sample {
                    trial: Trial {
                        ops: total,
                        ns: result.elapsed.as_nanos() as u64,
                        failed: 0,
                    },
                    extra: [top_share, 0.0, 0.0],
                }
            }
            Err(_) => Trial {
                ops: 1,
                ns: 0,
                failed: 1,
            }
            .into(),
        }
    })
}

fn rows<'a>(
    bench: &Bench<'a>,
    fx: &'a Fixtures,
    lfx: &'a LayerFixtures,
    two_threads: bool,
) -> Vec<Row<'a>> {
    let (sizes, inputs) = (bench.sizes, bench.inputs);
    let order = &inputs.lock_order[..];
    let mut rows: Vec<Row<'a>> = Vec::new();
    let mut add = |key: String, heavy: bool, run: Box<dyn FnMut(&mut Tracer) -> Sample + 'a>| {
        rows.push(Row {
            key,
            heavy,
            run,
            samples: Vec::new(),
        });
    };

    // -- host calibration: std atomics only, no crate under test ----------
    static WORD: AtomicU64 = AtomicU64::new(0);
    add(
        "l0.swap_ns".into(),
        false,
        calls("std.AtomicU64.swap", SMALL_OPS, |from, len| {
            for i in from..from + len {
                std::hint::black_box(WORD.swap(i as u64, Ordering::AcqRel));
            }
        }),
    );
    add(
        "l0.cas_ns".into(),
        false,
        calls("std.AtomicU64.compare_exchange", SMALL_OPS, |_, len| {
            let mut seen = WORD.load(Ordering::Relaxed);
            for _ in 0..len {
                seen = match WORD.compare_exchange(
                    seen,
                    seen.wrapping_add(1),
                    Ordering::AcqRel,
                    Ordering::Acquire,
                ) {
                    Ok(previous) => previous.wrapping_add(1),
                    Err(current) => current,
                };
            }
        }),
    );
    add(
        "l0.fetch_add_ns".into(),
        false,
        calls("std.AtomicU64.fetch_add", SMALL_OPS, |_, len| {
            for _ in 0..len {
                std::hint::black_box(WORD.fetch_add(1, Ordering::AcqRel));
            }
        }),
    );
    add(
        "l0.alu_ns".into(),
        false,
        calls("std.xorshift_step", 4 * SMALL_OPS, |from, len| {
            // The dependent shift-xor chain the harness uses as critical
            // work: one step is the unit `critical_work` counts.
            let mut x = from as u64 | 1;
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
            }
            std::hint::black_box(x);
        }),
    );

    // -- sync-core ----------------------------------------------------------
    add(
        "sync-core.node_pool.pair_ns".into(),
        false,
        calls(
            "sync-core.node_pool.acquire+release",
            SMALL_OPS,
            |_, len| {
                for _ in 0..len {
                    let node = node_pool::acquire::<CnaNode>();
                    node_pool::release(std::hint::black_box(node));
                }
            },
        ),
    );
    let qspin = &lfx
        .dyn_locks
        .iter()
        .find(|(id, _)| *id == LockId::QSpinCna)
        .expect("qspinlock-cna is registered")
        .1;
    add(
        "sync-core.erased.try_lock_ns.qspinlock-cna".into(),
        false,
        counted_walk(
            "sync-core.DynLock.try_lock[qspinlock-cna]",
            qspin,
            order,
            sizes.dyn_ops,
            |o| {
                if let Some(_guard) = o.lock.try_lock() {
                    o.count.set(o.count.get() + 1);
                }
            },
        ),
    );
    {
        let n = sizes.mutex_ops;
        let mutexes = &lfx.mutex_mcs;
        let mut cursor = 0usize;
        add(
            "mutex_ns.mcs".into(),
            false,
            Box::new(move |tracer| {
                let base = cursor;
                cursor = (base + n) & MASK;
                let total = || mutexes.iter().map(|m| *m.0.lock()).sum::<u64>();
                let before = total();
                let ns = tracer.trial("sync-core.LockMutex.lock[mcs]", n, |from, len| {
                    for i in base + from..base + from + len {
                        *mutexes[order[i & MASK] as usize].0.lock() += 1;
                    }
                });
                Trial {
                    ops: n as u64,
                    ns,
                    failed: (total() - before).abs_diff(n as u64),
                }
                .into()
            }),
        );
    }

    // -- locks / registry / numa-topology ----------------------------------
    for (id, locks) in &lfx.dyn_locks {
        add(
            format!("locks.dyn_ns.{}", id.name()),
            false,
            counted_walk(
                "sync-core.DynLock.lock[id]",
                locks,
                order,
                sizes.dyn_ops,
                |o| {
                    let _guard = o.lock.lock();
                    o.count.set(o.count.get() + 1);
                },
            ),
        );
    }
    add(
        "registry.build_ns".into(),
        false,
        calls(
            "registry.LockId.build",
            LockId::ALL.len() * 2000,
            |from, len| {
                for i in from..from + len {
                    std::hint::black_box(LockId::ALL[i % LockId::ALL.len()].build());
                }
            },
        ),
    );
    add(
        "numa-topology.current_socket_ns".into(),
        false,
        calls("numa-topology.current_socket", 4 * SMALL_OPS, |_, len| {
            for _ in 0..len {
                std::hint::black_box(numa_topology::current_socket());
            }
        }),
    );

    // -- leveldb-lite: the pieces of a get and of a write -------------------
    add(
        "leveldb-lite.db.bench_key_ns".into(),
        false,
        calls("leveldb-lite.Db.bench_key", SMALL_OPS / 4, |from, len| {
            for i in from..from + len {
                std::hint::black_box(Db::<CnaLock>::bench_key(i));
            }
        }),
    );
    add(
        "leveldb-lite.memtable.get_ns".into(),
        false,
        calls("leveldb-lite.MemTable.get", sizes.get_ops, |from, len| {
            for i in from..from + len {
                let key = &fx.db_keys[inputs.db_get[i & MASK] as usize];
                std::hint::black_box(lfx.memtable.get(key));
            }
        }),
    );
    let cached = fx.db.get(&fx.db_keys[0]).expect("key 0 is prefilled");
    for i in 0..sizes.db_keys as u64 {
        lfx.cache.insert(i, cached.clone());
    }
    add(
        "leveldb-lite.cache.lookup_ns".into(),
        false,
        calls(
            "leveldb-lite.ShardedLruCache.lookup",
            SMALL_OPS / 2,
            |from, len| {
                for i in from..from + len {
                    let key = u64::from(inputs.db_get[i & MASK]);
                    std::hint::black_box(lfx.cache.lookup(key));
                }
            },
        ),
    );
    {
        let value = cached.clone();
        add(
            "leveldb-lite.cache.insert_ns".into(),
            false,
            calls(
                "leveldb-lite.ShardedLruCache.insert",
                SMALL_OPS / 2,
                move |from, len| {
                    for i in from..from + len {
                        let key = u64::from(inputs.db_put[i & MASK]);
                        lfx.cache.insert(key, value.clone());
                    }
                },
            ),
        );
    }
    {
        // A private copy of the table: `MemTable::put` needs `&mut`.
        let mut table = MemTable::new();
        for (i, key) in fx.db_keys.iter().enumerate() {
            table.put(key, format!("value-{i}").as_bytes());
        }
        add(
            "leveldb-lite.memtable.put_ns".into(),
            false,
            calls(
                "leveldb-lite.MemTable.put",
                sizes.get_ops,
                move |from, len| {
                    for i in from..from + len {
                        let key = &fx.db_keys[inputs.db_put[i & MASK] as usize];
                        table.put(key, &inputs.values[i % inputs.values.len()]);
                    }
                },
            ),
        );
    }
    add(
        "leveldb-lite.db.put_ns".into(),
        false,
        calls("leveldb-lite.Db.put", sizes.put_ops, |from, len| {
            for i in from..from + len {
                let key = &fx.db_keys[inputs.db_put[i & MASK] as usize];
                fx.db.put(key, &inputs.values[i % inputs.values.len()]);
            }
        }),
    );

    // -- kyoto-lite: one row per operation kind -----------------------------
    for (kind, op) in KYOTO_KINDS.iter().zip([
        WickedOp::Get,
        WickedOp::Set,
        WickedOp::Append,
        WickedOp::Remove,
        WickedOp::Scan,
    ]) {
        let n = sizes.kyoto_ops;
        let mut cursor = 0usize;
        add(
            format!("kyoto-lite.execute_ns.{kind}"),
            false,
            Box::new(move |tracer| {
                let base = cursor;
                cursor = (base + n) & MASK;
                let before = lfx.kyoto.total_ops();
                let ns = tracer.trial("kyoto-lite.CacheDb.execute[kind]", n, |from, len| {
                    for i in base + from..base + from + len {
                        lfx.kyoto.execute(op, inputs.kyoto[i & MASK].1);
                    }
                });
                let failed = (lfx.kyoto.total_ops() - before).abs_diff(n as u64);
                // Untimed: put back what a remove trial took out and trim
                // what an append trial grew, so every kind sees a full map
                // of short values.
                if matches!(op, WickedOp::Remove | WickedOp::Append) {
                    for i in base..base + n {
                        lfx.kyoto.execute(WickedOp::Set, inputs.kyoto[i & MASK].1);
                    }
                }
                Trial {
                    ops: n as u64,
                    ns,
                    failed,
                }
                .into()
            }),
        );
    }

    // -- kernel-sim: one thread through the `_dyn` entry points --------------
    let short = Duration::from_millis(KERNEL_TRIAL_MS);
    add(
        "kernel-sim.locktorture.op_ns".into(),
        false,
        Box::new(move |tracer| {
            let config = LockTortureConfig {
                threads: 1,
                duration: short,
                lockstat: false,
            };
            let mut report = None;
            tracer.trial("kernel-sim.run_locktorture_dyn", 1, |_, _| {
                report = Some(run_locktorture_dyn(LockId::QSpinCna, &config));
            });
            let report = report.expect("the trial body ran");
            Trial {
                ops: report.total_ops().max(1),
                ns: report.elapsed.as_nanos() as u64,
                failed: 0,
            }
            .into()
        }),
    );
    add(
        "kernel-sim.wis.op_ns".into(),
        false,
        Box::new(move |tracer| {
            let config = WisConfig {
                threads: 1,
                duration: short,
            };
            let mut report = None;
            tracer.trial("kernel-sim.run_will_it_scale_dyn", 1, |_, _| {
                report = Some(run_will_it_scale_dyn(
                    LockId::QSpinCna,
                    WisBenchmark::Lock1,
                    &config,
                ));
            });
            let report = report.expect("the trial body ran");
            Trial {
                ops: report.total_ops().max(1),
                ns: report.elapsed.as_nanos() as u64,
                failed: 0,
            }
            .into()
        }),
    );

    // -- harness, two threads: recorded, host-limited ------------------------
    if two_threads {
        for id in REAL_IDS {
            let config = two_thread_config(2);
            add(
                format!("harness.real.ops_per_s.{}", id.name()),
                false,
                two_thread_row("harness.run_real_contention_dyn[id]", move || {
                    harness::run_real_contention_dyn(id, &config)
                }),
            );
        }
        for id in [LockId::Mcs, LockId::Cna] {
            let config = two_thread_config(1);
            add(
                format!("same_socket.{}", id.name()),
                false,
                two_thread_row("harness.run_real_contention_dyn[same socket]", move || {
                    harness::run_real_contention_dyn(id, &config)
                }),
            );
        }
        for id in [LockId::Mcs, LockId::Cna] {
            let config = RunConfig {
                shards: KV_SHARDS,
                ..two_thread_config(2)
            };
            add(
                format!("harness.kvmap.ops_per_s.{}", id.name()),
                false,
                two_thread_row("harness.run_sharded_kvmap[2 threads]", move || {
                    harness::run_sharded_kvmap(id, &config)
                }),
            );
        }
        let open = RunConfig {
            shards: KV_SHARDS,
            ..two_thread_config(2)
        }
        .open(OPEN_RATE, Arrival::Poisson);
        add(
            "harness.openloop.cna".into(),
            false,
            Box::new(move |tracer| {
                let mut result = None;
                tracer.trial("harness.run_sharded_kvmap[open loop]", 1, |_, _| {
                    result = Some(harness::run_sharded_kvmap(LockId::Cna, &open));
                });
                let result = result.expect("the trial body ran");
                let summary = result.open_loop.as_ref().expect("an open-loop run");
                // Sojourn is measured from each request's scheduled arrival.
                let scheduled = (OPEN_RATE * TWO_THREAD_TRIAL_MS / 1000).max(1);
                Sample {
                    trial: Trial {
                        ops: scheduled,
                        ns: summary.elapsed_ns,
                        failed: summary.served().abs_diff(scheduled),
                    },
                    extra: [
                        summary.histogram.p50_us(),
                        summary.histogram.p99_us(),
                        summary.mean_queue_depth,
                    ],
                }
            }),
        );
    }

    // -- numa-sim: the engine alone, then what the runner adds ---------------
    let sweep = sim_sweep(sizes, inputs);
    for id in ENGINE_IDS {
        let sweep = sweep.clone();
        add(
            format!("numa-sim.engine.ns_per_op.{}", id.name()),
            false,
            Box::new(move |tracer| {
                let mut result = None;
                let ns = tracer.trial("numa-sim.Simulation.run", 1, |_, _| {
                    result = Some(
                        Simulation::new(
                            sweep.machine.clone(),
                            sweep.cost,
                            id.sim_algorithm(),
                            sweep.workload.clone(),
                        )
                        .threads(ENGINE_THREADS)
                        .virtual_duration_ms(Scale::Ci.config().virtual_duration_ms)
                        .seed(0xC0FFEE)
                        .run(),
                    );
                });
                let result = result.expect("the trial body ran");
                Sample {
                    trial: Trial {
                        ops: result.total_ops.max(1),
                        ns,
                        failed: 0,
                    },
                    extra: [
                        result.total_ops as f64,
                        result.local_handover_fraction(),
                        0.0,
                    ],
                }
            }),
        );
    }
    {
        let workload = sweep.workload.clone();
        let mut rng = SimRng::new(0xC0FFEE);
        add(
            "numa-sim.workload.generate_op_ns".into(),
            false,
            calls(
                "numa-sim.Workload.generate_op",
                SMALL_OPS / 2,
                move |_, len| {
                    for _ in 0..len {
                        std::hint::black_box(workload.generate_op(&mut rng));
                    }
                },
            ),
        );
    }
    {
        // The cells of the closed-loop sweep run on the engine directly,
        // with the seeds the runner derives: what `ExperimentSpec::run`
        // costs beyond this is the runner's own overhead. The cell totals
        // must also agree with the runner's.
        let sweep = sweep.clone();
        let expected: u64 = fx.sim_expected.closed_cells.iter().sum();
        let threads = Scale::Ci
            .config()
            .cap_threads(&sweep.machine.paper_thread_counts());
        add(
            "engine_grid".into(),
            true,
            Box::new(move |tracer| {
                let mut total = 0;
                let ns = tracer.trial("numa-sim.Simulation.run[sweep cells]", 1, |_, _| {
                    for &t in &threads {
                        for id in ENGINE_IDS {
                            total += Simulation::new(
                                sweep.machine.clone(),
                                sweep.cost,
                                id.sim_algorithm(),
                                sweep.workload.clone(),
                            )
                            .threads(t)
                            .virtual_duration_ms(Scale::Ci.config().virtual_duration_ms)
                            .seed(0xC0FFEE ^ t as u64)
                            .run()
                            .total_ops;
                        }
                    }
                });
                Trial {
                    ops: total.max(1),
                    ns,
                    failed: u64::from(total != expected),
                }
                .into()
            }),
        );
    }
    add(
        "harness.experiments.report.to_csv_ms".into(),
        true,
        calls("harness.RunReport.to_csv", 8, |_, len| {
            for _ in 0..len {
                std::hint::black_box(lfx.report.to_csv());
            }
        }),
    );
    {
        let csv = lfx.report.to_csv();
        add(
            "harness.experiments.report.from_csv_ms".into(),
            true,
            Box::new(move |tracer| {
                let mut wrong = 0;
                let ns = tracer.trial("harness.RunReport.from_csv", 8, |_, len| {
                    for _ in 0..len {
                        let parsed = RunReport::from_csv(&csv);
                        wrong += u64::from(
                            parsed.map_or(true, |r| r.samples.len() != lfx.report.samples.len()),
                        );
                    }
                });
                Trial {
                    ops: 8,
                    ns,
                    failed: wrong,
                }
                .into()
            }),
        );
    }
    {
        let mut histogram = LatencyHistogram::new();
        add(
            "harness.experiments.histogram.record_ns".into(),
            false,
            calls(
                "harness.LatencyHistogram.record",
                4 * SMALL_OPS,
                move |from, len| {
                    let mut x = from as u64 | 1;
                    for _ in 0..len {
                        x ^= x << 13;
                        x ^= x >> 7;
                        x ^= x << 17;
                        histogram.record(x >> 40);
                    }
                },
            ),
        );
    }

    // -- the linter behind the CI gate ----------------------------------------
    {
        let root = host::repo_root().join("crates/locks/src");
        let bytes: u64 = std::fs::read_dir(&root)
            .map(|dir| {
                dir.filter_map(Result::ok)
                    .filter(|e| e.path().extension().is_some_and(|x| x == "rs"))
                    .filter_map(|e| e.metadata().ok())
                    .map(|m| m.len())
                    .sum()
            })
            .unwrap_or(0);
        add(
            "cnalint".into(),
            true,
            Box::new(move |tracer| {
                let mut files = 0;
                let ns = tracer.trial("cnalint.run_check", 1, |_, _| {
                    files = cnalint::run_check(&cnalint::Options::new(&root))
                        .map_or(0, |outcome| outcome.files_scanned);
                });
                Sample {
                    trial: Trial {
                        ops: bytes.max(1),
                        ns,
                        failed: u64::from(files == 0),
                    },
                    extra: [files as f64, 0.0, 0.0],
                }
            }),
        );
    }
    rows
}

/// The traced run: the window, the ledger in `per_layer()` order, and the
/// names of rows this host could not measure.
pub fn run(
    bench: &mut Bench<'_>,
    seconds: f64,
    two_threads: bool,
) -> (Window, Vec<Measured>, Vec<String>) {
    let steal_before = host::steal_ticks();
    let fx = Fixtures::build(bench.sizes, bench.inputs);
    let lfx = LayerFixtures::build(bench.sizes, &fx);
    let mut rows = rows(bench, &fx, &lfx, two_threads);
    let units = units();
    let (cache_hits, cache_misses) = fx.db.cache_counts();

    let mut window = Window {
        trials: vec![Vec::new(); Series::COUNT],
        setups: Vec::new(),
        rounds: 0,
        epoch_ends: Vec::new(),
        speedup: fx.sim_expected.speedup,
    };
    // Traced ÷ untraced time of the same trial, per single-thread series.
    let mut overhead: Vec<f64> = Vec::new();
    let start = Instant::now();
    while window.rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        let round = window.rounds;
        bench.tracer.set_round(round);
        for position in rotation(round, units.len()) {
            let unit = units[position];
            let traced = run_unit(bench, &fx, unit, round, units.len());
            for &(series, trial) in &traced {
                window.trials[series as usize].push(trial);
            }
            // The same trials again with the recorder off.
            bench.tracer.pause(true);
            let plain = run_unit(bench, &fx, unit, round, units.len());
            bench.tracer.pause(false);
            for ((_, t), (_, p)) in traced.iter().zip(&plain) {
                if t.failed == 0 && p.failed == 0 {
                    overhead.push(t.ns_per_op() / p.ns_per_op());
                }
            }
        }
        let heavy_round = round.is_multiple_of(HEAVY_EVERY);
        let len = rows.len();
        for position in rotation(round, len) {
            let row = &mut rows[position];
            if row.heavy && !heavy_round {
                continue;
            }
            let sample = (row.run)(&mut bench.tracer);
            row.samples.push(sample);
        }
        window.rounds += 1;
    }

    // The ledger rows' operations count towards attempted/failed like the
    // end-to-end ones.
    let mut ledger_trials = Vec::new();
    for row in &rows {
        ledger_trials.extend(row.samples.iter().map(|s| s.trial));
    }
    window.trials.push(ledger_trials);

    let samples: BTreeMap<&str, &[Sample]> = rows
        .iter()
        .map(|r| (r.key.as_str(), r.samples.as_slice()))
        .collect();
    let per_op = |key: &str| -> Vec<f64> {
        samples
            .get(key)
            .map(|s| {
                s.iter()
                    .filter(|s| s.timed())
                    .map(|s| s.trial.ns_per_op())
                    .collect()
            })
            .unwrap_or_default()
    };
    let low_of = |key: &str| low_decile(&per_op(key));
    let extra = |key: &str, slot: usize| -> Vec<f64> {
        samples
            .get(key)
            .map(|s| s.iter().map(|s| s.extra[slot]).collect())
            .unwrap_or_default()
    };
    let ops_per_s = |key: &str| -> f64 {
        let rates: Vec<f64> = per_op(key).iter().map(|ns| 1e9 / ns).collect();
        median(&rates)
    };

    let raw = |lock: &str| {
        window.floor_ns(if lock == "mcs" {
            Series::RawMcs
        } else {
            Series::RawCna
        })
    };
    let dyn_ns = |lock: &str| low_of(&format!("locks.dyn_ns.{lock}"));
    let kv_cna = window.floor_ns(Series::KvIncr);
    let get = window.floor_ns(Series::DbGet);
    let put_group = window.floor_ns(Series::DbPut);
    let sim_closed = window.floor_ns(Series::SimClosed);
    let (hits_now, misses_now) = fx.db.cache_counts();
    let (hits, misses) = (hits_now - cache_hits, misses_now - cache_misses);

    let mut values: BTreeMap<String, f64> = BTreeMap::new();
    let mut set = |name: &str, value: f64| {
        values.insert(name.to_string(), value);
    };
    for op in ["swap", "cas", "fetch_add", "alu"] {
        set(&format!("l0.{op}_ns"), low_of(&format!("l0.{op}_ns")));
    }
    set("noise.med_over_best", window.median_over_best());
    set(
        "noise.steal_ticks",
        host::steal_ticks().saturating_sub(steal_before) as f64,
    );
    set("trace.overhead_ratio", median(&overhead));
    set(
        "sync-core.node_pool.pair_ns",
        low_of("sync-core.node_pool.pair_ns"),
    );
    for lock in ["mcs", "cna"] {
        set(
            &format!("sync-core.erased.tax_ns.{lock}"),
            dyn_ns(lock) - raw(lock),
        );
    }
    set(
        "sync-core.erased.try_lock_ns.qspinlock-cna",
        low_of("sync-core.erased.try_lock_ns.qspinlock-cna"),
    );
    set(
        "sync-core.mutex.tax_ns.mcs",
        low_of("mutex_ns.mcs") - raw("mcs"),
    );
    set(
        "sync-core.mutex.tax_ns.cna",
        window.floor_ns(Series::MutexCna) - raw("cna"),
    );
    for id in LockId::ALL {
        let key = format!("locks.dyn_ns.{}", id.name());
        set(&key, low_of(&key));
    }
    set("registry.build_ns", low_of("registry.build_ns"));
    set(
        "numa-topology.current_socket_ns",
        low_of("numa-topology.current_socket_ns"),
    );
    set(
        "harness.kvmap.incr_ns.mcs",
        window.floor_ns(Series::KvIncrMcs),
    );
    set("harness.kvmap.incr_ns.cna", kv_cna);
    set("harness.kvmap.lock_share", dyn_ns("cna") / kv_cna);
    for name in [
        "db.bench_key_ns",
        "memtable.get_ns",
        "cache.lookup_ns",
        "cache.insert_ns",
        "memtable.put_ns",
        "db.put_ns",
    ] {
        let key = format!("leveldb-lite.{name}");
        set(&key, low_of(&key));
    }
    set(
        "leveldb-lite.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    set(
        "leveldb-lite.db.get_self_ns",
        get - low_of("leveldb-lite.memtable.get_ns") - low_of("leveldb-lite.cache.lookup_ns"),
    );
    set("leveldb-lite.db.put_group_ns", put_group);
    // One writer: every batch holds one write, so what a group commit costs
    // beyond one memtable insert is the whole-table copy.
    set(
        "leveldb-lite.db.put_copy_ns",
        put_group - low_of("leveldb-lite.memtable.put_ns"),
    );
    for kind in KYOTO_KINDS {
        let key = format!("kyoto-lite.execute_ns.{kind}");
        set(&key, low_of(&key));
    }
    set(
        "kernel-sim.locktorture.op_ns",
        low_of("kernel-sim.locktorture.op_ns"),
    );
    set("kernel-sim.wis.op_ns", low_of("kernel-sim.wis.op_ns"));
    let mut missing = Vec::new();
    if two_threads {
        let mut unbalanced = 0;
        for id in REAL_IDS {
            let key = format!("harness.real.ops_per_s.{}", id.name());
            set(&key, ops_per_s(&key));
            unbalanced += extra(&key, 0)
                .iter()
                .filter(|&&top| 1.0 - top < BALANCED_SHARE)
                .count();
        }
        for lock in ["mcs", "cna"] {
            let shares = extra(&format!("harness.real.ops_per_s.{lock}"), 0);
            set(&format!("harness.real.fairness.{lock}"), median(&shares));
        }
        set("harness.real.unbalanced_trials", unbalanced as f64);
        // Median over rounds of the paired ratio of the two adjacent trials.
        let paired = |cna: &str, mcs: &str| {
            let (c, m): (Vec<f64>, Vec<f64>) = samples[cna]
                .iter()
                .zip(samples[mcs])
                .filter(|(c, m)| c.timed() && m.timed())
                .map(|(c, m)| (c.trial.ns_per_op(), m.trial.ns_per_op()))
                .unzip();
            paired_ratio_median(&c, &m)
        };
        set(
            "harness.real.cna_over_mcs.hot_lock",
            paired("harness.real.ops_per_s.cna", "harness.real.ops_per_s.mcs"),
        );
        set(
            "harness.real.cna_over_mcs.same_socket",
            paired("same_socket.cna", "same_socket.mcs"),
        );
        // A closed-loop run sleeps for its configured duration between
        // spawning and stopping its workers: the rest of its elapsed time is
        // spawn and join.
        let spawn_join: Vec<f64> = samples["harness.real.ops_per_s.mcs"]
            .iter()
            .map(|s| s.trial.ns as f64 / 1e3 - (TWO_THREAD_TRIAL_MS * 1000) as f64)
            .collect();
        set("harness.real.spawn_join_us", median(&spawn_join));
        for lock in ["mcs", "cna"] {
            let key = format!("harness.kvmap.ops_per_s.{lock}");
            set(&key, ops_per_s(&key));
        }
        set(
            "harness.openloop.p50_us.cna",
            median(&extra("harness.openloop.cna", 0)),
        );
        set(
            "harness.openloop.p99_us.cna",
            median(&extra("harness.openloop.cna", 1)),
        );
        set(
            "harness.openloop.queue_depth.cna",
            median(&extra("harness.openloop.cna", 2)),
        );
    }
    for id in ENGINE_IDS {
        let key = format!("numa-sim.engine.ns_per_op.{}", id.name());
        set(&key, low_of(&key));
    }
    set(
        "numa-sim.workload.generate_op_ns",
        low_of("numa-sim.workload.generate_op_ns"),
    );
    set(
        "numa-sim.total_ops.cna",
        extra("numa-sim.engine.ns_per_op.cna", 0)[0],
    );
    set(
        "numa-sim.local_handover_fraction.cna",
        extra("numa-sim.engine.ns_per_op.cna", 1)[0],
    );
    set(
        "harness.experiments.run_overhead_ns_per_op",
        sim_closed - low_of("engine_grid"),
    );
    for name in ["to_csv_ms", "from_csv_ms"] {
        let key = format!("harness.experiments.report.{name}");
        set(&key, low_of(&key) / 1e6);
    }
    set(
        "harness.experiments.histogram.record_ns",
        low_of("harness.experiments.histogram.record_ns"),
    );
    // Bytes per nanosecond × 1000 = MB/s.
    set("cnalint.mb_per_s", 1e3 / low_of("cnalint"));
    set("cnalint.files", extra("cnalint", 0)[0]);

    let mut metrics = Vec::new();
    for row in per_layer() {
        match values.get(&row.name) {
            Some(&value) => metrics.push(measured(row.name, value, row.unit)),
            None => missing.push(row.name),
        }
    }
    (window, metrics, missing)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::Inputs;
    use crate::spec::WORKLOADS;

    #[test]
    fn the_traced_run_fills_every_ledger_row_and_records_spans() {
        let sizes = WORKLOADS[0].sizes.with_shorter_trials(100);
        let inputs = Inputs::generate(&sizes, 4);
        let two_threads = host::nproc() >= 2;
        let mut bench = Bench::new(&sizes, &inputs, true);
        let (window, metrics, missing) = run(&mut bench, 0.0, two_threads);
        assert_eq!(window.failed(), 0);
        assert_eq!(missing.is_empty(), two_threads, "{missing:?}");
        assert_eq!(metrics.len() + missing.len(), per_layer().len());
        for m in &metrics {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
        }
        assert!(bench.tracer.span_count() > 100);
    }
}
