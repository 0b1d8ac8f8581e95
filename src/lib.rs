//! Umbrella crate of the **Compact NUMA-aware Locks** (CNA, EuroSys 2019)
//! reproduction workspace.
//!
//! It re-exports the public API of every member crate so that examples,
//! integration tests and downstream users can depend on a single crate:
//!
//! * [`cna`] — the paper's contribution: the one-word NUMA-aware queue lock.
//! * [`locks`] — the baselines (MCS, CLH, ticket, TAS, HBO, Cohort, HMCS).
//! * [`qspinlock`] — the Linux 4-byte queued spin lock with stock (MCS) and
//!   CNA slow paths.
//! * [`sync_core`] — the shared `RawLock` interface and the safe
//!   `LockMutex` adapter.
//! * [`numa_topology`] — socket discovery and virtual topologies.
//! * [`numa_sim`] — the discrete-event NUMA machine simulator behind the
//!   reproduced figures.
//! * [`registry`] — the name-addressable lock registry (`LockId`, the
//!   `LockId → DynLock` factory and the simulator-model mapping) behind the
//!   `lockbench` CLI.
//! * [`harness`] — measurement harness (real threads + simulator sweeps).
//! * [`leveldb_lite`], [`kyoto_lite`], [`kernel_sim`] — the application and
//!   kernel substrates of §7.
//!
//! See `README.md` for the workspace map, the verify commands and how to
//! run the examples and the figures bench.

pub use cna;
pub use harness;
pub use kernel_sim;
pub use kyoto_lite;
pub use leveldb_lite;
pub use locks;
pub use numa_sim;
pub use numa_topology;
pub use qspinlock;
pub use registry;
pub use sync_core;

/// A convenient alias: a mutex protected by the paper's CNA lock.
pub type CnaMutex<T> = cna::CnaMutex<T>;

#[cfg(test)]
mod tests {
    #[test]
    fn umbrella_reexports_are_usable() {
        let m: super::CnaMutex<u32> = super::CnaMutex::new(1);
        *m.lock() += 1;
        assert_eq!(*m.lock(), 2);
        assert_eq!(
            std::mem::size_of::<cna::CnaLock>(),
            std::mem::size_of::<usize>()
        );
    }
}
