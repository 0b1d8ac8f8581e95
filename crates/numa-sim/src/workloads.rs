//! Workload presets matching each benchmark of the paper's evaluation (§7).
//!
//! The parameters (service times, think times, lines touched) are chosen so
//! that the simulated single-thread throughput and the contention behaviour
//! match the anchors the paper reports (the calibration targets are listed
//! in [`crate::cost`]).

use crate::workload::{LockChoice, LockSpec, OpTemplate, StepTemplate, Workload};

fn lock(name: &str, data_lines: usize) -> LockSpec {
    LockSpec {
        name: name.to_string(),
        data_lines,
    }
}

fn think(ns: u64, jitter: f64) -> StepTemplate {
    StepTemplate::Think { ns, jitter }
}

fn crit(
    lock: LockChoice,
    service_ns: u64,
    jitter: f64,
    reads: usize,
    writes: usize,
) -> StepTemplate {
    StepTemplate::Critical {
        lock,
        service_ns,
        jitter,
        reads,
        writes,
    }
}

/// §7.1.1 key-value map microbenchmark: an AVL-tree map behind one lock,
/// 1024-key range, a given update fraction and a configurable amount of
/// external (non-critical) work.
///
/// * Figure 6/7/8/10: `kv_map(0, 0.2)` (no external work, 80 % lookups).
/// * Figure 9: `kv_map(1_800, 0.2)` (external work added; sized so the
///   benchmark scales up to roughly 8–16 threads before the lock saturates,
///   as in the paper).
/// * The update-only experiment mentioned in §7.1.1: `kv_map(0, 1.0)`.
pub fn kv_map(external_work_ns: u64, update_fraction: f64) -> Workload {
    let update_fraction = update_fraction.clamp(0.0, 1.0);
    let mut ops = Vec::new();
    if update_fraction < 1.0 {
        ops.push(OpTemplate {
            weight: 1.0 - update_fraction,
            label: "lookup",
            steps: vec![
                think(external_work_ns, 0.4),
                crit(LockChoice::Fixed(0), 120, 0.25, 6, 0),
            ],
        });
    }
    if update_fraction > 0.0 {
        ops.push(OpTemplate {
            weight: update_fraction,
            label: "update",
            steps: vec![
                think(external_work_ns, 0.4),
                crit(LockChoice::Fixed(0), 150, 0.25, 6, 3),
            ],
        });
    }
    Workload::new(
        if external_work_ns == 0 {
            "kv-map (no external work)"
        } else {
            "kv-map (with external work)"
        },
        vec![lock("kvmap.lock", 48)],
        ops,
    )
}

/// Number of LRU cache shards in leveldb's `ShardedLRUCache`.
pub const LEVELDB_LRU_SHARDS: usize = 16;

/// §7.1.2 leveldb `db_bench readrandom`.
///
/// Every `Get` takes the global DB mutex for a short snapshot/refcount
/// critical section; with a pre-filled database the key search then runs
/// outside the lock and finishes by updating one shard of the LRU block
/// cache under that shard's mutex. With an empty database the search is
/// trivial and no LRU shard is touched, concentrating all contention on the
/// DB mutex (Figure 11 b).
pub fn leveldb_readrandom(prefilled: bool) -> Workload {
    let mut locks = vec![lock("leveldb.db_mutex", 24)];
    if prefilled {
        for i in 0..LEVELDB_LRU_SHARDS {
            locks.push(lock(&format!("leveldb.lru_shard[{i}]"), 16));
        }
        Workload::new(
            "leveldb readrandom (1M keys)",
            locks,
            vec![OpTemplate {
                weight: 1.0,
                label: "get",
                steps: vec![
                    think(2_300, 0.4),
                    crit(LockChoice::Fixed(0), 150, 0.2, 3, 2),
                    think(900, 0.4),
                    crit(
                        LockChoice::UniformRange {
                            first: 1,
                            count: LEVELDB_LRU_SHARDS,
                        },
                        200,
                        0.3,
                        3,
                        2,
                    ),
                ],
            }],
        )
    } else {
        Workload::new(
            "leveldb readrandom (empty DB)",
            locks,
            vec![OpTemplate {
                weight: 1.0,
                label: "get-miss",
                steps: vec![think(260, 0.4), crit(LockChoice::Fixed(0), 150, 0.2, 3, 2)],
            }],
        )
    }
}

/// §7.1.3 Kyoto Cabinet `kccachetest wicked`: an in-memory cache DB behind a
/// single mutex, exercised with a random mix of operations of quite
/// different lengths (the benchmark "does not scale, and in fact becomes
/// worse as the contention grows").
pub fn kyoto_wicked() -> Workload {
    let db = LockChoice::Fixed(0);
    Workload::new(
        "kyotocabinet kccachetest (wicked)",
        vec![lock("kyoto.db_mutex", 64)],
        vec![
            OpTemplate {
                weight: 0.45,
                label: "get",
                steps: vec![think(180, 0.5), crit(db, 350, 0.4, 6, 1)],
            },
            OpTemplate {
                weight: 0.35,
                label: "set",
                steps: vec![think(180, 0.5), crit(db, 600, 0.4, 6, 4)],
            },
            OpTemplate {
                weight: 0.20,
                label: "misc",
                steps: vec![think(220, 0.5), crit(db, 950, 0.5, 10, 6)],
            },
        ],
    )
}

/// §7.2.1 locktorture: threads repeatedly acquire and release one spin lock
/// with occasional short delays ("to emulate likely code") and occasional
/// long delays ("to force massive contention") inside the critical section.
///
/// `lockstat` adds the shared-variable updates the paper enables to introduce
/// shared-data accesses into the otherwise data-free critical section
/// (Figures 13 b / 14 b).
pub fn locktorture(lockstat: bool) -> Workload {
    let writes = if lockstat { 3 } else { 0 };
    let reads = usize::from(lockstat);
    let l = LockChoice::Fixed(0);
    Workload::new(
        if lockstat {
            "locktorture (lockstat enabled)"
        } else {
            "locktorture"
        },
        vec![lock("torture_spinlock", 8)],
        vec![
            OpTemplate {
                weight: 0.90,
                label: "plain",
                steps: vec![think(160, 0.5), crit(l, 40, 0.5, reads, writes)],
            },
            OpTemplate {
                weight: 0.09,
                label: "short-delay",
                steps: vec![think(160, 0.5), crit(l, 350, 0.4, reads, writes)],
            },
            OpTemplate {
                weight: 0.01,
                label: "long-delay",
                steps: vec![think(160, 0.5), crit(l, 5_000, 0.3, reads, writes)],
            },
        ],
    )
}

/// The four will-it-scale benchmarks of §7.2.2 (threads mode).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WillItScale {
    /// `lock1_threads`: fcntl lock/unlock, separate file per thread;
    /// contention on `files_struct.file_lock` (`__alloc_fd`, `fcntl_setlk`).
    Lock1,
    /// `lock2_threads`: fcntl lock/unlock on one shared file; contention on
    /// `file_lock_context.flc_lock` (`posix_lock_inode`).
    Lock2,
    /// `open1_threads`: open/close separate files in the same directory;
    /// contention on `files_struct.file_lock` and the shared `lockref`.
    Open1,
    /// `open2_threads`: open/close separate files in separate directories;
    /// contention on `files_struct.file_lock` only.
    Open2,
}

impl WillItScale {
    /// All four benchmarks, in the order of Figure 15.
    pub fn all() -> [WillItScale; 4] {
        [
            WillItScale::Lock1,
            WillItScale::Lock2,
            WillItScale::Open1,
            WillItScale::Open2,
        ]
    }

    /// The benchmark's name as used by the will-it-scale suite.
    pub fn name(self) -> &'static str {
        match self {
            WillItScale::Lock1 => "lock1_threads",
            WillItScale::Lock2 => "lock2_threads",
            WillItScale::Open1 => "open1_threads",
            WillItScale::Open2 => "open2_threads",
        }
    }
}

/// Builds the simulator workload for one will-it-scale benchmark, with the
/// contention points of Table 1.
pub fn will_it_scale(bench: WillItScale) -> Workload {
    let fd = LockChoice::Fixed(0);
    match bench {
        WillItScale::Lock1 => Workload::new(
            "will-it-scale lock1_threads",
            vec![lock("files_struct.file_lock", 8)],
            vec![OpTemplate {
                weight: 1.0,
                label: "fcntl-lock-unlock",
                steps: vec![
                    think(950, 0.3),
                    crit(fd, 130, 0.3, 2, 2), // __alloc_fd
                    think(350, 0.3),
                    crit(fd, 130, 0.3, 2, 2), // fcntl_setlk
                ],
            }],
        ),
        WillItScale::Lock2 => Workload::new(
            "will-it-scale lock2_threads",
            vec![
                lock("files_struct.file_lock", 8),
                lock("file_lock_context.flc_lock", 8),
            ],
            vec![OpTemplate {
                weight: 1.0,
                label: "posix-lock-unlock",
                steps: vec![
                    think(900, 0.3),
                    crit(LockChoice::Fixed(1), 190, 0.3, 3, 3), // posix_lock_inode (lock)
                    think(320, 0.3),
                    crit(LockChoice::Fixed(1), 190, 0.3, 3, 3), // posix_lock_inode (unlock)
                ],
            }],
        ),
        WillItScale::Open1 => Workload::new(
            "will-it-scale open1_threads",
            vec![
                lock("files_struct.file_lock", 8),
                lock("lockref.lock (parent dentry)", 4),
            ],
            vec![OpTemplate {
                weight: 1.0,
                label: "open-close",
                steps: vec![
                    think(1_250, 0.3),
                    crit(fd, 110, 0.3, 2, 2),                  // __alloc_fd
                    crit(LockChoice::Fixed(1), 90, 0.3, 1, 1), // d_alloc / lockref_get
                    crit(LockChoice::Fixed(1), 90, 0.3, 1, 1), // dput
                    crit(fd, 110, 0.3, 2, 2),                  // __close_fd
                ],
            }],
        ),
        WillItScale::Open2 => Workload::new(
            "will-it-scale open2_threads",
            vec![lock("files_struct.file_lock", 8)],
            vec![OpTemplate {
                weight: 1.0,
                label: "open-close",
                steps: vec![
                    think(1_500, 0.3),
                    crit(fd, 110, 0.3, 2, 2), // __alloc_fd
                    crit(fd, 110, 0.3, 2, 2), // __close_fd
                ],
            }],
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::Simulation;
    use crate::lock_model::LockAlgorithm;
    use crate::machine::MachineConfig;
    use crate::CostModel;

    fn throughput(workload: Workload, algo: LockAlgorithm, threads: usize) -> f64 {
        Simulation::new(
            MachineConfig::two_socket_paper(),
            CostModel::two_socket_xeon(),
            algo,
            workload,
        )
        .threads(threads)
        .virtual_duration_ms(4)
        .seed(7)
        .run()
        .throughput_ops_per_us()
    }

    #[test]
    fn presets_are_well_formed() {
        for w in [
            kv_map(0, 0.2),
            kv_map(650, 0.2),
            kv_map(0, 1.0),
            leveldb_readrandom(true),
            leveldb_readrandom(false),
            kyoto_wicked(),
            locktorture(false),
            locktorture(true),
            will_it_scale(WillItScale::Lock1),
            will_it_scale(WillItScale::Lock2),
            will_it_scale(WillItScale::Open1),
            will_it_scale(WillItScale::Open2),
        ] {
            assert!(w.num_locks() >= 1);
            assert!(!w.ops().is_empty());
            let mut rng = sync_core::rng::Rng::new(3);
            let op = w.generate_op(&mut rng);
            assert!(!op.is_empty());
        }
    }

    #[test]
    fn kv_map_with_external_work_scales_to_a_few_threads() {
        let w = || kv_map(1_800, 0.2);
        let one = throughput(w(), LockAlgorithm::Cna, 1);
        let four = throughput(w(), LockAlgorithm::Cna, 4);
        assert!(four > one * 1.8, "1T {one:.2} vs 4T {four:.2}");
    }

    #[test]
    fn leveldb_prefilled_scales_further_than_empty() {
        let pre_1 = throughput(leveldb_readrandom(true), LockAlgorithm::Mcs, 1);
        let pre_8 = throughput(leveldb_readrandom(true), LockAlgorithm::Mcs, 8);
        let empty_1 = throughput(leveldb_readrandom(false), LockAlgorithm::Mcs, 1);
        let empty_8 = throughput(leveldb_readrandom(false), LockAlgorithm::Mcs, 8);
        assert!(pre_8 / pre_1 > empty_8 / empty_1);
    }

    #[test]
    fn will_it_scale_open2_has_a_single_contended_lock() {
        let w = will_it_scale(WillItScale::Open2);
        assert_eq!(w.num_locks(), 1);
        assert_eq!(w.locks()[0].name, "files_struct.file_lock");
        let w = will_it_scale(WillItScale::Open1);
        assert_eq!(w.num_locks(), 2);
    }

    #[test]
    fn locktorture_lockstat_touches_shared_data() {
        let with = locktorture(true);
        let without = locktorture(false);
        let writes = |w: &Workload| match &w.ops()[0].steps[1] {
            crate::workload::StepTemplate::Critical { writes, .. } => *writes,
            _ => 0,
        };
        assert!(writes(&with) > writes(&without));
    }

    #[test]
    fn cna_beats_stock_on_contended_kernel_workloads() {
        let stock = throughput(locktorture(true), LockAlgorithm::Mcs, 32);
        let cna = throughput(locktorture(true), LockAlgorithm::Cna, 32);
        assert!(cna > stock, "CNA {cna:.3} vs stock {stock:.3}");
    }
}
