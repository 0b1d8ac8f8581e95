//! What the benchmark measures: the workloads with their sizes, and the
//! metric tables `BENCHMARK.json` is generated from (`cna-benchmark spec`).

use registry::LockId;

use crate::json::Json;

/// Input sizes and fixed per-trial operation counts of one workload. The
/// counts are constants, not calibrated at run time, so two commits compare
/// identical work; each is sized to a 20–100 ms trial on the reference host.
#[derive(Debug, Clone, PartialEq)]
pub struct Sizes {
    /// Lock-bearing 64-byte objects the lock series spread their
    /// acquisitions over.
    pub lock_instances: usize,
    /// Key space of the sharded kv-map.
    pub kv_keys: u64,
    /// Keys prefilled into the leveldb-lite DB.
    pub db_keys: usize,
    /// Key space of the kyoto-lite wicked mix.
    pub kyoto_keys: u64,
    /// Simulated machine: the paper's 4-socket box (Fig. 10) instead of the
    /// 2-socket one (Fig. 6).
    pub sim_four_socket: bool,
    pub raw_ops: usize,
    pub mutex_ops: usize,
    pub dyn_ops: usize,
    pub kv_ops: usize,
    pub get_ops: usize,
    pub put_ops: usize,
    pub kyoto_ops: usize,
}

impl Sizes {
    /// The same inputs with every trial `divisor` times shorter (the traced
    /// run's advisory trials).
    pub fn with_shorter_trials(&self, divisor: usize) -> Sizes {
        let cut = |ops: usize| (ops / divisor).max(1);
        Sizes {
            raw_ops: cut(self.raw_ops),
            mutex_ops: cut(self.mutex_ops),
            dyn_ops: cut(self.dyn_ops),
            kv_ops: cut(self.kv_ops),
            get_ops: cut(self.get_ops),
            put_ops: cut(self.put_ops),
            kyoto_ops: cut(self.kyoto_ops),
            ..self.clone()
        }
    }
}

/// Shards of the kv-map (each its own erased lock).
pub const KV_SHARDS: usize = 64;
/// Critical-section length knob of the kv-map and hot-lock runs (the
/// harness default).
pub const CRITICAL_WORK: u32 = 32;
/// Block-cache capacity of the DB: every key of `hot` fits, four fifths of
/// `spread`'s.
pub const DB_CACHE: usize = 4096;
/// Group-commit batch limit of `Db::put_group`.
pub const PUT_BATCH: usize = 16;
/// Worker count and offered rates of the open-loop simulator grid.
pub const SIM_OPEN_WORKERS: usize = 8;
pub const SIM_OPEN_RATES: [u64; 2] = [2_500_000, 6_500_000];

#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub sizes: Sizes,
}

pub const WORKLOADS: [Workload; 2] = [
    Workload {
        name: "hot",
        why: "one lock instance and small, L1-resident key sets (the paper's microbenchmark regime): the lock path and its wrappers are the largest share of every operation",
        sizes: Sizes {
            lock_instances: 1,
            kv_keys: 1024,
            db_keys: 1000,
            kyoto_keys: 256,
            sim_four_socket: false,
            raw_ops: 1_250_000,
            mutex_ops: 500_000,
            dyn_ops: 500_000,
            kv_ops: 200_000,
            get_ops: 50_000,
            put_ops: 70,
            kyoto_ops: 250_000,
        },
    },
    Workload {
        name: "spread",
        why: "16384 lock-bearing objects and L2-sized key sets (5000-key DB over a 4096-entry block cache, 4-socket simulator): memory and the substrates dominate, the lock path is a minor share",
        sizes: Sizes {
            lock_instances: 16_384,
            kv_keys: 16_384,
            db_keys: 5000,
            kyoto_keys: 8192,
            sim_four_socket: true,
            raw_ops: 1_250_000,
            mutex_ops: 500_000,
            dyn_ops: 470_000,
            kv_ops: 190_000,
            get_ops: 22_000,
            put_ops: 12,
            kyoto_ops: 230_000,
        },
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub const fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// An end-to-end metric: what a user of the library sees, with the share of
/// the parent's median by which it may worsen.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        better,
        bound,
    }
}

pub const END_TO_END: [EndToEnd; 16] = [
    e2e("setup_s", "s", Better::Lower, 0.10),
    e2e("raw_ns.mcs", "ns", Better::Lower, 0.10),
    e2e("raw_ns.cna", "ns", Better::Lower, 0.10),
    e2e("mutex_ns.cna", "ns", Better::Lower, 0.10),
    e2e("dyn_ns.mcs", "ns", Better::Lower, 0.10),
    e2e("dyn_ns.cna", "ns", Better::Lower, 0.10),
    e2e("dyn_ns.qspinlock-cna", "ns", Better::Lower, 0.10),
    e2e("cna_over_mcs.raw", "ratio", Better::Lower, 0.05),
    e2e("kvmap_incr_ns", "ns", Better::Lower, 0.10),
    e2e("cna_over_mcs.kvmap", "ratio", Better::Lower, 0.05),
    e2e("leveldb_get_ns", "ns", Better::Lower, 0.10),
    e2e("leveldb_put_ns", "ns", Better::Lower, 0.10),
    e2e("kyoto_op_ns", "ns", Better::Lower, 0.10),
    e2e("sim_closed_ns_per_op", "ns", Better::Lower, 0.10),
    e2e("sim_open_ns_per_req", "ns", Better::Lower, 0.10),
    e2e("sim_speedup_cna_over_mcs", "ratio", Better::Higher, 0.05),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// A per-layer metric from the traced run; advisory, no bound.
#[derive(Debug, Clone)]
pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

/// The two-thread lock ids the ledger records absolute throughput for.
pub const REAL_IDS: [LockId; 5] = [
    LockId::Mcs,
    LockId::Cna,
    LockId::QSpinCna,
    LockId::Fissile,
    LockId::CBoMcs,
];
/// The simulator policy models timed engine-only.
pub const ENGINE_IDS: [LockId; 4] = [LockId::Mcs, LockId::Cna, LockId::CBoMcs, LockId::Hmcs];
pub const KYOTO_KINDS: [&str; 5] = ["get", "set", "append", "remove", "scan"];

/// The ledger, in the order it is printed. Layers are crate/module names.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut rows: Vec<PerLayer> = Vec::new();
    let mut row = |name: String, unit: &'static str, better: Better| {
        rows.push(PerLayer { name, unit, better });
    };
    for op in ["swap", "cas", "fetch_add", "alu"] {
        row(format!("l0.{op}_ns"), "ns", Lower);
    }
    row("noise.med_over_best".into(), "ratio", Lower);
    row("noise.steal_ticks".into(), "count", Lower);
    row("trace.overhead_ratio".into(), "ratio", Lower);
    row("sync-core.node_pool.pair_ns".into(), "ns", Lower);
    for lock in ["mcs", "cna"] {
        row(format!("sync-core.erased.tax_ns.{lock}"), "ns", Lower);
    }
    row(
        "sync-core.erased.try_lock_ns.qspinlock-cna".into(),
        "ns",
        Lower,
    );
    for lock in ["mcs", "cna"] {
        row(format!("sync-core.mutex.tax_ns.{lock}"), "ns", Lower);
    }
    for id in LockId::ALL {
        row(format!("locks.dyn_ns.{}", id.name()), "ns", Lower);
    }
    row("registry.build_ns".into(), "ns", Lower);
    row("numa-topology.current_socket_ns".into(), "ns", Lower);
    for lock in ["mcs", "cna"] {
        row(format!("harness.kvmap.incr_ns.{lock}"), "ns", Lower);
    }
    row("harness.kvmap.lock_share".into(), "ratio", Lower);
    for name in [
        "db.bench_key_ns",
        "memtable.get_ns",
        "cache.lookup_ns",
        "cache.insert_ns",
    ] {
        row(format!("leveldb-lite.{name}"), "ns", Lower);
    }
    row("leveldb-lite.cache.hit_ratio".into(), "ratio", Higher);
    for name in [
        "db.get_self_ns",
        "memtable.put_ns",
        "db.put_ns",
        "db.put_group_ns",
        "db.put_copy_ns",
    ] {
        row(format!("leveldb-lite.{name}"), "ns", Lower);
    }
    for kind in KYOTO_KINDS {
        row(format!("kyoto-lite.execute_ns.{kind}"), "ns", Lower);
    }
    row("kernel-sim.locktorture.op_ns".into(), "ns", Lower);
    row("kernel-sim.wis.op_ns".into(), "ns", Lower);
    for id in REAL_IDS {
        row(
            format!("harness.real.ops_per_s.{}", id.name()),
            "1/s",
            Higher,
        );
    }
    for lock in ["mcs", "cna"] {
        row(format!("harness.real.fairness.{lock}"), "ratio", Higher);
    }
    row("harness.real.unbalanced_trials".into(), "count", Lower);
    row("harness.real.cna_over_mcs.hot_lock".into(), "ratio", Lower);
    row(
        "harness.real.cna_over_mcs.same_socket".into(),
        "ratio",
        Lower,
    );
    row("harness.real.spawn_join_us".into(), "us", Lower);
    for lock in ["mcs", "cna"] {
        row(format!("harness.kvmap.ops_per_s.{lock}"), "1/s", Higher);
    }
    row("harness.openloop.p50_us.cna".into(), "us", Lower);
    row("harness.openloop.p99_us.cna".into(), "us", Lower);
    row("harness.openloop.queue_depth.cna".into(), "count", Lower);
    for id in ENGINE_IDS {
        row(
            format!("numa-sim.engine.ns_per_op.{}", id.name()),
            "ns",
            Lower,
        );
    }
    row("numa-sim.workload.generate_op_ns".into(), "ns", Lower);
    row("numa-sim.total_ops.cna".into(), "count", Higher);
    row(
        "numa-sim.local_handover_fraction.cna".into(),
        "ratio",
        Higher,
    );
    row(
        "harness.experiments.run_overhead_ns_per_op".into(),
        "ns",
        Lower,
    );
    row("harness.experiments.report.to_csv_ms".into(), "ms", Lower);
    row("harness.experiments.report.from_csv_ms".into(), "ms", Lower);
    row(
        "harness.experiments.histogram.record_ns".into(),
        "ns",
        Lower,
    );
    row("cnalint.mb_per_s".into(), "MB/s", Higher);
    row("cnalint.files".into(), "count", Higher);
    rows
}

/// Measured window the driver passes as `--seconds`.
pub const RUN_SECONDS: u64 = 55;

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--offline",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.clone())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.name())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{}", layers.len());
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().map(|m| m.name));
        names.extend(layers.iter().map(|m| m.name.as_str()));
        for name in &names {
            assert!(valid_name(name), "{name}");
        }
        let mut unique = names.clone();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for w in &WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let units = END_TO_END
            .iter()
            .map(|m| m.unit)
            .chain(layers.iter().map(|m| m.unit));
        for unit in units {
            assert!(unit.len() <= 16 && !unit.is_empty());
            assert!(unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        let setup = end_to_end("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        for m in &END_TO_END {
            assert!(m.bound <= setup.bound && m.bound <= 0.25, "{}", m.name);
        }
        assert!((1..=60).contains(&RUN_SECONDS));
        // 4 + 22 runs per workload, with set-up and two builds, in 3420 s.
        let runs = 4 + 22 * WORKLOADS.len() as u64;
        assert!(runs * (RUN_SECONDS + 6) + 2 * 60 <= 3420);
    }

    #[test]
    fn the_checked_in_benchmark_json_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            on_disk,
            benchmark_json().render_pretty(),
            "regenerate with `cna-benchmark spec > BENCHMARK.json`"
        );
        assert!(on_disk.len() <= 64 * 1024);
    }
}
