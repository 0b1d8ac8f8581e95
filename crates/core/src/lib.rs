//! # CNA — Compact NUMA-Aware lock
//!
//! Reference Rust implementation of the lock from *"Compact NUMA-Aware
//! Locks"* (Dice & Kogan, EuroSys 2019).
//!
//! CNA is a variant of the MCS queue lock whose shared state is a **single
//! word** — a pointer to the tail of the main waiting queue — yet whose
//! hand-over policy is NUMA-aware. Waiting threads are organised in two
//! queues threaded through the waiters' own queue nodes:
//!
//! * the **main queue**, containing the lock holder and (preferentially)
//!   threads running on the lock holder's socket, and
//! * the **secondary queue**, containing threads running on other sockets,
//!   moved there by lock holders while searching for a same-socket successor.
//!
//! On release the holder scans the main queue for a waiter on its own socket
//! (moving skipped remote waiters to the secondary queue) and passes the lock
//! to it; when no local waiter exists — or occasionally, for long-term
//! fairness — the secondary queue is spliced back into the main queue and the
//! lock is passed to its head. Acquisition uses exactly one atomic
//! instruction (a swap on the tail), like MCS.
//!
//! ## Crate layout
//!
//! * [`raw::CnaLock`] / [`raw::CnaNode`] — the algorithm itself, following
//!   the paper's Figures 2–5. Its configurations are the
//!   [`raw::CnaParams`] types: [`raw::PaperParams`] (the default),
//!   [`raw::ShuffleReductionParams`] (the §6 *shuffle reduction*, "CNA
//!   (opt)"), and [`raw::AlwaysFlushParams`] / [`raw::NeverFlushParams`]
//!   for tests. The hand-over is written once over
//!   [`raw::CnaQueueNode`], so the kernel-style qspinlock runs the same code
//!   on its per-CPU nodes.
//! * [`CnaMutex`] — a safe RAII mutex (`LockMutex<T, CnaLock>`) for client
//!   code.
//! * [`rng`] — the lightweight thread-local pseudo-random generator used by
//!   the `keep_lock_local()` fairness policy.
//!
//! ## Examples
//!
//! ```
//! use cna::CnaMutex;
//!
//! let m = CnaMutex::new(0u64);
//! std::thread::scope(|s| {
//!     for _ in 0..4 {
//!         s.spawn(|| {
//!             for _ in 0..1_000 {
//!                 *m.lock() += 1;
//!             }
//!         });
//!     }
//! });
//! assert_eq!(*m.lock(), 4_000);
//! ```
//!
//! The raw API mirrors the paper's `cna_lock`/`cna_unlock` and is what the
//! benchmark harness drives:
//!
//! ```
//! use cna::{CnaLock, CnaNode};
//! use sync_core::RawLock;
//!
//! let lock: CnaLock = CnaLock::new();
//! let node = CnaNode::default();
//! // SAFETY: the node stays on this frame, pinned, for the whole
//! // acquisition and is passed to the matching unlock.
//! unsafe {
//!     lock.lock(&node);
//!     lock.unlock(&node);
//! }
//! ```

#![warn(missing_docs)]

pub mod mutex;
pub mod raw;
pub mod rng;

pub use mutex::CnaMutex;
pub use raw::{CnaLock, CnaNode};

/// The paper's long-term fairness threshold: the secondary queue is flushed
/// back into the main queue when `pseudo_rand() & THRESHOLD == 0`, i.e. with
/// probability 1/65536 per hand-over.
pub const THRESHOLD: u64 = 0xffff;

/// The paper's shuffle-reduction threshold (§6): when the secondary queue is
/// empty the holder skips the successor search with probability 255/256.
pub const THRESHOLD2: u64 = 0xff;
