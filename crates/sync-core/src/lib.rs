//! Lock API abstractions shared by every lock in the workspace.
//!
//! This crate plays the role LiTL (Library for Transparent Lock
//! interposition) plays in the paper's user-space evaluation: it defines one
//! lock interface ([`RawLock`]) that every algorithm implements — the CNA
//! lock from the `cna` crate as well as all the baselines in `locks` — plus
//! the safe RAII adapter ([`LockMutex`]) that client code (the key-value map
//! benchmark, `leveldb-lite`, `kyoto-lite`, the kernel substrates) uses
//! without caring which algorithm is behind it.
//!
//! Queue locks such as MCS and CNA need a per-acquisition *queue node* whose
//! address other threads hold while the acquisition is in flight. The
//! [`RawLock`] trait exposes that node explicitly (`type Node`), and the safe
//! wrapper keeps node addresses stable by drawing boxed nodes from a
//! per-thread [pool](node_pool), mirroring LiTL's thread-local node arrays
//! and the kernel's per-CPU `mcs_spinlock` nodes.
//!
//! # Examples
//!
//! ```
//! use sync_core::LockMutex;
//! use sync_core::spinlock::TestAndSetLock;
//!
//! let counter: LockMutex<u64, TestAndSetLock> = LockMutex::new(0);
//! *counter.lock() += 1;
//! assert_eq!(*counter.lock(), 1);
//! ```

#![warn(missing_docs)]

pub mod admission;
pub mod atomics;
pub mod erased;
pub mod mutex;
pub mod node_pool;
pub mod padded;
pub mod raw;
pub mod rng;
pub mod spin;
pub mod spinlock;

pub use admission::{CullingPolicy, SpinPolicy, SpinThenYieldPolicy, WaitPolicy};
pub use atomics::{AtomicAdd, AtomicCell, Atomics, StdAtomics};
pub use erased::{DynLock, DynLockGuard, DynLockMutex, DynMutexGuard, LockToken};
pub use mutex::{LockGuard, LockMutex};
pub use padded::CachePadded;
pub use raw::{RawLock, RawTryLock};
pub use spin::{cpu_relax, Backoff, SpinCondition};
