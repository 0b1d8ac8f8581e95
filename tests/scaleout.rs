//! End-to-end tests of the scale-out substrates: the sharded kv-map and the
//! group-commit leveldb write path, both standalone and as sweepable axes
//! of the experiment API (`lockbench sweep --shards ... / --batch ...`).
//! Optimisation changes interleavings, so CI also runs this file with
//! `--release`.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};

use proptest::prelude::*;

use cna_locks::cna::CnaLock;
use cna_locks::harness::experiments::{
    Arrival, Axis, DiffThreshold, ExperimentSpec, Metric, RunReport, WorkloadId,
};
use cna_locks::harness::{Scale, ShardedKvMap};
use cna_locks::leveldb_lite::Db;
use cna_locks::registry::LockId;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Sharding is a pure partition of the key space: for any deterministic
    /// op sequence, every shard count produces the same per-key final state
    /// and the same total op count as the single-lock map.
    #[test]
    fn sharded_map_matches_single_lock_final_state(
        keys in proptest::collection::vec(0u64..256, 1..400),
        threads in 1usize..5,
    ) {
        let reference = ShardedKvMap::new(LockId::Mcs, 1);
        reference.apply_keys(&keys, threads, 0);
        for shards in [2usize, 4, 8] {
            let sharded = ShardedKvMap::new(LockId::Mcs, shards);
            sharded.apply_keys(&keys, threads, 0);
            sharded.check_consistency();
            prop_assert_eq!(sharded.total_ops(), reference.total_ops());
            prop_assert_eq!(sharded.final_state(), reference.final_state());
        }
    }
}

#[test]
fn concurrent_group_commits_keep_every_write_durable() {
    let db: Db<CnaLock> = Db::new(256);
    let writers = 4;
    let writes_per_thread = 64usize;
    std::thread::scope(|scope| {
        for t in 0..writers {
            let db = &db;
            scope.spawn(move || {
                for i in 0..writes_per_thread {
                    let key = Db::<CnaLock>::bench_key(t * writes_per_thread + i);
                    let seq = db.put_group(&key, b"scaleout", 8);
                    assert!(seq > 0, "every committed write carries a sequence");
                }
            });
        }
    });
    let total = (writers * writes_per_thread) as u64;
    let stats = db.stats();
    assert_eq!(stats.puts, total);
    assert!(
        stats.batches <= total,
        "group commit never takes more acquisitions than writes"
    );
    // Every write is durable and readable after the run.
    for i in 0..writers * writes_per_thread {
        let key = Db::<CnaLock>::bench_key(i);
        assert!(db.get(&key).is_some(), "key {i} lost");
    }
}

/// Readers search the memtable while the group-commit leader overwrites it
/// in place: every read finds its key with a value written for that key,
/// the key count never moves, and each key ends at its highest-sequence
/// write.
#[test]
fn readers_see_whole_values_while_writers_overwrite_in_place() {
    const KEYS: usize = 256;
    const WRITERS: usize = 3;
    const WRITES: usize = 400;
    let db: Db<CnaLock> = Db::prefilled(KEYS, 64);
    let done = AtomicBool::new(false);
    // Every value names its key first: `<key>:<writer>:<write>`.
    let key_of = |value: &[u8]| -> usize {
        let text = std::str::from_utf8(value).expect("values are text");
        match text.strip_prefix("value-") {
            Some(prefilled) => prefilled.parse().expect("prefilled value"),
            None => text
                .split(':')
                .next()
                .unwrap()
                .parse()
                .expect("written value"),
        }
    };
    let writes: Vec<(usize, Vec<u8>, u64)> = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|t| {
                let db = &db;
                scope.spawn(move || {
                    (0..WRITES)
                        .map(|j| {
                            let key = (j * 37 + t * 11) % KEYS;
                            let value = format!("{key}:{t}:{j}").into_bytes();
                            let seq = db.put_group(&Db::<CnaLock>::bench_key(key), &value, 8);
                            (key, value, seq)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for r in 0..2 {
            let (db, done) = (&db, &done);
            scope.spawn(move || {
                let mut i = r;
                while !done.load(Ordering::Acquire) {
                    let key = i % KEYS;
                    let value = db
                        .get(&Db::<CnaLock>::bench_key(key))
                        .unwrap_or_else(|| panic!("key {key} went missing"));
                    assert_eq!(key_of(&value), key, "a value written for another key");
                    assert_eq!(db.len(), KEYS, "overwrites changed the key count");
                    i += 7;
                }
            });
        }
        let writes = writers
            .into_iter()
            .flat_map(|h| h.join().expect("writer panicked"))
            .collect();
        done.store(true, Ordering::Release);
        writes
    });

    assert_eq!(db.len(), KEYS);
    let mut seqs: Vec<u64> = writes.iter().map(|w| w.2).collect();
    seqs.sort_unstable();
    seqs.dedup();
    assert_eq!(seqs.len(), WRITERS * WRITES, "sequence numbers are unique");
    for key in 0..KEYS {
        let last = writes
            .iter()
            .filter(|w| w.0 == key)
            .max_by_key(|w| w.2)
            .map_or_else(|| format!("value-{key}").into_bytes(), |w| w.1.clone());
        assert_eq!(
            db.get(&Db::<CnaLock>::bench_key(key)).as_deref(),
            Some(&last[..]),
            "key {key} does not hold its highest-sequence write"
        );
    }
}

#[test]
fn batch_of_one_degenerates_to_plain_puts() {
    let grouped: Db<CnaLock> = Db::new(64);
    let plain: Db<CnaLock> = Db::new(64);
    for i in 0..32 {
        let key = Db::<CnaLock>::bench_key(i);
        grouped.put_group(&key, b"v", 1);
        plain.put(&key, b"v");
    }
    assert_eq!(grouped.len(), plain.len());
    assert_eq!(grouped.stats().puts, plain.stats().puts);
    assert_eq!(
        grouped.stats().batches,
        grouped.stats().puts,
        "batch=1 takes one DB-mutex acquisition per write"
    );
    for i in 0..32 {
        let key = Db::<CnaLock>::bench_key(i);
        assert_eq!(grouped.get(&key).as_deref(), plain.get(&key).as_deref());
    }
}

fn shard_sweep_spec(id: &str) -> ExperimentSpec {
    ExperimentSpec::new(id)
        .locks(vec![LockId::Cna, LockId::Mcs])
        .workload(WorkloadId::KvMap.to_spec())
        .threads(vec![2])
        .axis(Axis::Shards, vec![1, 2, 4])
        .scale(Scale::Smoke)
        .repetitions(1)
        .duration_ms(4)
}

#[test]
fn shard_axis_sweeps_end_to_end_with_keyed_cells() {
    let report = shard_sweep_spec("itest_shards").run().expect("sweep runs");
    // 3 shard counts × 1 thread count × 2 locks × 1 rep.
    assert_eq!(report.samples.len(), 6);
    let shard_axis: BTreeSet<u64> = report
        .samples
        .iter()
        .map(|s| s.point[Axis::Shards])
        .collect();
    assert_eq!(shard_axis, BTreeSet::from([1, 2, 4]));
    assert!(report.samples.iter().all(|s| s.value > 0.0));

    // The CSV round-trips the new columns exactly.
    let parsed = RunReport::from_csv(&report.to_csv()).expect("csv parses");
    assert_eq!(parsed.samples, report.samples);

    // The aggregated sweep keys one row per shard count.
    let sweep = report.sweep_for("kvmap").expect("kvmap sweep");
    assert!(sweep.axes().contains(&Axis::Shards));
    assert_eq!(sweep.rows.len(), 3);
    assert!(sweep.render("shards").contains("shards"));

    // Self-diff is clean; dropping a shard cell is a coverage regression
    // whose key names the shard coordinate.
    let clean = report.diff_against(&report, DiffThreshold::default());
    assert!(!clean.has_regressions());
    let mut pruned = report.clone();
    pruned.samples.retain(|s| s.point[Axis::Shards] != 4);
    let diff = pruned.diff_against(&report, DiffThreshold::default());
    assert!(
        diff.has_regressions(),
        "losing the shards=4 cells must fail"
    );
    assert!(
        diff.missing_in_current.iter().all(|k| k.contains("@4sh")),
        "missing keys should carry the shard coordinate: {:?}",
        diff.missing_in_current
    );
}

#[test]
fn batch_axis_sweeps_end_to_end_in_open_loop() {
    let report = ExperimentSpec::new("itest_batch_open")
        .lock(LockId::Cna)
        .workload(WorkloadId::Leveldb.to_spec())
        .threads(vec![2])
        .axis(Axis::Batch, vec![1, 8])
        .open_rates(vec![50_000], Arrival::Poisson)
        .metric(Metric::P99Sojourn)
        .scale(Scale::Smoke)
        .repetitions(1)
        .duration_ms(2)
        .run()
        .expect("batched open-loop leveldb runs");
    // 2 batch limits × 1 rate × 1 thread count × 1 lock × 1 rep.
    assert_eq!(report.samples.len(), 2);
    let batch_axis: BTreeSet<u64> = report
        .samples
        .iter()
        .map(|s| s.point[Axis::Batch])
        .collect();
    assert_eq!(batch_axis, BTreeSet::from([1, 8]));
    for s in &report.samples {
        assert_eq!(s.mode(), "open");
        assert_eq!(s.point[Axis::Rate], 50_000);
        assert!(s.p99_us > 0.0, "open cells carry sojourn histograms");
        assert!(s.total_ops >= 64, "at least MIN_REQUESTS served");
    }
    // Batch cells key distinctly in the diff: swapping the batch limit is a
    // coverage change, not a silent comparison.
    let mut relabeled = report.clone();
    for s in &mut relabeled.samples {
        if s.point[Axis::Batch] == 8 {
            s.point[Axis::Batch] = 16;
        }
    }
    let diff = relabeled.diff_against(&report, DiffThreshold::default());
    assert!(diff.has_regressions());
    assert!(diff.missing_in_baseline.iter().any(|k| k.contains("@16b")));
}

#[test]
fn native_leveldb_still_rejects_open_loop_without_batching() {
    let err = ExperimentSpec::new("itest_native_open")
        .lock(LockId::Cna)
        .workload(WorkloadId::Leveldb.to_spec())
        .open_rates(vec![1_000], Arrival::Poisson)
        .metric(Metric::P99Sojourn)
        .scale(Scale::Smoke)
        .validate()
        .expect_err("native leveldb has no open-loop path");
    assert!(err.to_string().contains("leveldb"), "{err}");
}
