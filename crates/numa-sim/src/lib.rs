//! Discrete-event simulator of a multi-socket NUMA machine, used to
//! reproduce the paper's evaluation figures on hosts without NUMA hardware.
//!
//! # Why a simulator?
//!
//! Every result in the paper's evaluation is a function of two things:
//!
//! 1. **Admission order** — which waiting thread a lock grants next
//!    (FIFO for MCS, socket-local-first for CNA and the hierarchical locks,
//!    essentially random/unfair for backoff locks), and
//! 2. **Socket-crossing cost** — a lock hand-over or a critical-section data
//!    access that crosses sockets costs a remote LLC transfer; one that stays
//!    on-socket does not.
//!
//! Neither can be observed on this build host (one CPU, one socket), so the
//! simulator models both explicitly: lock *policy models* reproduce each
//! algorithm's admission order, and a [`CostModel`] charges local/remote
//! latencies for hand-overs and data accesses. Throughput, LLC-miss rates and
//! fairness factors then emerge the same way they do on real hardware, and
//! the experiment harness sweeps thread counts exactly like the paper
//! (1–70 on the virtual 2-socket machine, 1–142 on the 4-socket one).
//!
//! The real, atomics-based lock implementations (crates `cna`, `locks`,
//! `qspinlock`) are validated separately by their own unit/property tests and
//! timed by the repo benchmark (`benchmark/`); the simulator's policy models
//! mirror their hand-over logic at the queue level.
//!
//! # Example
//!
//! ```
//! use numa_sim::{CostModel, MachineConfig, Simulation};
//! use numa_sim::lock_model::LockAlgorithm;
//! use numa_sim::workload::Workload;
//!
//! let machine = MachineConfig::two_socket_paper();
//! let workload = Workload::kv_map_no_external_work();
//! let result = Simulation::new(machine, CostModel::default(), LockAlgorithm::Cna, workload)
//!     .threads(4)
//!     .virtual_duration_ms(2)
//!     .seed(1)
//!     .run();
//! assert!(result.total_ops > 0);
//! assert!(result.throughput_ops_per_us() > 0.0);
//! ```

#![warn(missing_docs)]

pub mod cost;
pub mod engine;
pub mod lock_model;
pub mod machine;
/// The old path of [`sync_core::rng::Rng`], still imported by the repo
/// benchmark; workspace code names `sync_core::rng::Rng`.
pub mod rng {
    pub use sync_core::rng::Rng as SimRng;
}
pub mod stats;
pub mod workload;
pub mod workloads;

pub use cost::CostModel;
pub use engine::Simulation;
pub use lock_model::LockAlgorithm;
pub use machine::MachineConfig;
pub use stats::SimResult;
pub use workload::Workload;
