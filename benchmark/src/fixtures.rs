//! Set-up of the end-to-end series: construction, prefill, and one
//! fixed-count warm-up pass of every series. [`Fixtures::build`] is what
//! `setup_s` times.

use std::cell::Cell;

use cna::{CnaLock, CnaMutex};
use harness::experiments::{Arrival, ExperimentSpec, Metric, RunReport, SimSweep, WorkloadSpec};
use harness::{Scale, ShardedKvMap};
use kyoto_lite::{CacheDb, WickedOp};
use leveldb_lite::Db;
use locks::McsLock;
use numa_sim::workloads::kv_map;
use registry::LockId;
use sync_core::{DynLock, RawLock};

use crate::inputs::Inputs;
use crate::spec::{
    Sizes, CRITICAL_WORK, DB_CACHE, ENGINE_IDS, KV_SHARDS, PUT_BATCH, SIM_OPEN_RATES,
    SIM_OPEN_WORKERS,
};

/// A lock embedded in a cache-line-sized object next to the counter it
/// protects — the layout compact locks are meant for. The counter is a
/// `Cell`: every lock series runs on one thread.
#[repr(align(64))]
pub struct Object<L> {
    pub lock: L,
    pub count: Cell<u64>,
}

/// One value per cache line.
#[repr(align(64))]
pub struct Padded<T>(pub T);

pub fn objects<L>(n: usize, mut make: impl FnMut() -> L) -> Vec<Object<L>> {
    (0..n)
        .map(|_| Object {
            lock: make(),
            count: Cell::new(0),
        })
        .collect()
}

pub fn counted<L>(objects: &[Object<L>]) -> u64 {
    objects.iter().map(|o| o.count.get()).sum()
}

/// What the simulator must reproduce every time it is re-run in the window.
#[derive(Debug, Clone, PartialEq)]
pub struct SimExpected {
    /// `total_ops` of every cell of the closed-loop sweep, in report order.
    pub closed_cells: Vec<u64>,
    /// Virtual throughput CNA ÷ MCS at the sweep's largest thread count.
    pub speedup: f64,
    /// Served requests of every cell of the open-loop grid.
    pub open_cells: Vec<u64>,
}

pub struct Fixtures {
    pub raw_mcs: Vec<Object<McsLock>>,
    pub raw_cna: Vec<Object<CnaLock>>,
    pub mutex_cna: Vec<Padded<CnaMutex<u64>>>,
    pub dyn_mcs: Vec<Object<DynLock>>,
    pub dyn_cna: Vec<Object<DynLock>>,
    pub dyn_qspin_cna: Vec<Object<DynLock>>,
    /// The kv-map under CNA, and under MCS for the ratio.
    pub kv: ShardedKvMap,
    pub kv_mcs: ShardedKvMap,
    pub db: Db<CnaLock>,
    /// `Db::bench_key(i)` for every prefilled key.
    pub db_keys: Vec<Vec<u8>>,
    pub kyoto: CacheDb<CnaLock>,
    pub sim_closed: ExperimentSpec,
    pub sim_open: ExperimentSpec,
    pub sim_expected: SimExpected,
}

pub fn cell_totals(report: &RunReport) -> Vec<u64> {
    report.samples.iter().map(|s| s.total_ops).collect()
}

/// Virtual throughput CNA ÷ MCS at the largest swept thread count.
pub fn speedup(report: &RunReport) -> f64 {
    let sweep = &report.sweeps()[0];
    let at_max = |lock: &str| sweep.final_value(lock).expect("lock is in the sweep");
    at_max(LockId::Cna.name()) / at_max(LockId::Mcs.name())
}

pub fn sim_sweep(sizes: &Sizes, inputs: &Inputs) -> SimSweep {
    let workload = kv_map(0, inputs.sim_update_fraction);
    if sizes.sim_four_socket {
        SimSweep::four_socket("kvmap-4s", workload)
    } else {
        SimSweep::two_socket("kvmap-2s", workload)
    }
}

impl Fixtures {
    pub fn build(sizes: &Sizes, inputs: &Inputs) -> Fixtures {
        let n = sizes.lock_instances;
        let db = Db::prefilled(sizes.db_keys, DB_CACHE);
        let db_keys: Vec<Vec<u8>> = (0..sizes.db_keys).map(Db::<CnaLock>::bench_key).collect();

        let sweep = sim_sweep(sizes, inputs);
        // The Fig. 6 / Fig. 10 sweep: default thread axis of the machine,
        // throughput metric.
        let sim_closed = ExperimentSpec::new("bench_sim_closed")
            .locks(ENGINE_IDS.to_vec())
            .workload(WorkloadSpec::Sim(sweep.clone()))
            .scale(Scale::Ci);
        let sim_open = ExperimentSpec::new("bench_sim_open")
            .locks(vec![LockId::Mcs, LockId::Cna])
            .workload(WorkloadSpec::Sim(sweep))
            .threads(vec![SIM_OPEN_WORKERS])
            .scale(Scale::Ci)
            .metric(Metric::P99Sojourn)
            .open_rates(SIM_OPEN_RATES.to_vec(), Arrival::Poisson);
        // The simulator's warm-up pass doubles as the reference its timed
        // re-runs are checked against.
        let closed = sim_closed.run().expect("closed-loop sweep is valid");
        let open = sim_open.run().expect("open-loop grid is valid");
        let sim_expected = SimExpected {
            closed_cells: cell_totals(&closed),
            speedup: speedup(&closed),
            open_cells: cell_totals(&open),
        };

        let fx = Fixtures {
            raw_mcs: objects(n, McsLock::default),
            raw_cna: objects(n, CnaLock::default),
            mutex_cna: (0..n).map(|_| Padded(CnaMutex::new(0))).collect(),
            dyn_mcs: objects(n, || LockId::Mcs.build()),
            dyn_cna: objects(n, || LockId::Cna.build()),
            dyn_qspin_cna: objects(n, || LockId::QSpinCna.build()),
            kv: ShardedKvMap::new(LockId::Cna, KV_SHARDS),
            kv_mcs: ShardedKvMap::new(LockId::Mcs, KV_SHARDS),
            db,
            db_keys,
            kyoto: CacheDb::new(),
            sim_closed,
            sim_open,
            sim_expected,
        };
        fx.warm_up(sizes, inputs);
        fx
    }

    /// One fixed-count pass of every real-lock series, untimed: fills the
    /// maps to their steady population, the block cache with the hot keys,
    /// and the calling thread's node pool.
    fn warm_up(&self, sizes: &Sizes, inputs: &Inputs) {
        const LOCK_PASS: usize = 8192;
        let order = &inputs.lock_order[..LOCK_PASS];
        raw_pass(&self.raw_mcs, order);
        raw_pass(&self.raw_cna, order);
        for &i in order {
            *self.mutex_cna[i as usize].0.lock() += 1;
        }
        for objects in [&self.dyn_mcs, &self.dyn_cna, &self.dyn_qspin_cna] {
            for &i in order {
                let o = &objects[i as usize];
                let _guard = o.lock.lock();
                o.count.set(o.count.get() + 1);
            }
        }
        // Every key once, then a stretch of the stream: no trial inserts a
        // first key into the kv-map, and the kyoto map starts near the
        // population the mix's sets and removes settle at.
        for key in 0..sizes.kv_keys {
            self.kv.incr(key, CRITICAL_WORK);
            self.kv_mcs.incr(key, CRITICAL_WORK);
        }
        for key in 0..sizes.kyoto_keys {
            self.kyoto.execute(WickedOp::Set, key);
        }
        for &(op, key) in &inputs.kyoto {
            self.kyoto.execute(op, key);
        }
        for &i in &inputs.db_get[..4 * DB_CACHE] {
            std::hint::black_box(self.db.get(&self.db_keys[i as usize]));
        }
        let first = inputs.db_put[0] as usize;
        self.db
            .put_group(&self.db_keys[first], &inputs.values[0], PUT_BATCH);
    }
}

/// `RawLock::lock`/`unlock` on the concrete type with a stack node.
pub fn raw_pass<L: RawLock>(objects: &[Object<L>], order: &[u32]) {
    let node = L::Node::default();
    for &i in order {
        let o = &objects[i as usize];
        // SAFETY: `node` lives on this frame for the whole acquisition, is
        // used for one acquisition at a time, and the matching `unlock`
        // follows on the same thread before the node is reused.
        unsafe {
            o.lock.lock(&node);
            o.count.set(o.count.get() + 1);
            o.lock.unlock(&node);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn the_simulators_reference_outputs_are_a_function_of_the_seed() {
        let sizes = &WORKLOADS[0].sizes;
        let expected = |seed| Fixtures::build(sizes, &Inputs::generate(sizes, seed)).sim_expected;
        let (a, b, c) = (expected(5), expected(5), expected(6));
        assert_eq!(a, b);
        assert_ne!(a.closed_cells, c.closed_cells);
        assert!(a.speedup > 1.0, "CNA beats MCS at the top of the sweep");
    }
}
