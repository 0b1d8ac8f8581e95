//! User-space reproduction of the Linux kernel **qspinlock** (§3 of the
//! paper) with two interchangeable slow paths: the stock MCS one and the
//! paper's CNA one.
//!
//! The kernel spin lock is a four-byte word divided into three parts: the
//! *locked* byte, the *pending* bit, and the encoded *queue tail* (per-CPU
//! index + nesting index). Acquisition first tries to flip the word from 0 to
//! `LOCKED` (fast path); under light contention it spins on the pending bit;
//! under real contention it enters an MCS queue whose nodes are statically
//! pre-allocated per CPU (four per CPU, one per allowed nesting context), so
//! the lock itself never grows beyond four bytes.
//!
//! The paper replaces only the slow path's hand-over policy: instead of
//! passing queue-head status to the immediate successor, CNA searches for a
//! successor on the same socket and parks skipped remote waiters on a
//! secondary queue. This crate mirrors that structure:
//!
//! * [`QSpinLock<McsPolicy>`] (alias [`StockQSpinLock`]) — the unmodified
//!   4.20 behaviour ("stock" in Figures 13–15).
//! * [`QSpinLock<CnaPolicy>`] (alias [`CnaQSpinLock`]) — the CNA slow path
//!   ("CNA" in Figures 13–15). The policy is glue over the user-space CNA
//!   lock's hand-over, `cna::raw::hand_over` and
//!   `cna::raw::retarget_secondary`, run on the per-CPU nodes with the
//!   paper's parameters: both lock words execute one copy of the algorithm.
//!
//! "CPUs" are emulated by registered threads ([`numa_topology`] hands out
//! dense thread indices); per-CPU queue nodes live in a global table sized at
//! first use, mirroring the kernel's static per-CPU allocation.
//!
//! # Examples
//!
//! ```
//! use qspinlock::{CnaQSpinLock, StockQSpinLock};
//! use sync_core::RawLock;
//!
//! let stock = StockQSpinLock::new();
//! let cna = CnaQSpinLock::new();
//! // Both are exactly four bytes, like the kernel's spinlock_t.
//! assert_eq!(std::mem::size_of_val(&stock), 4);
//! assert_eq!(std::mem::size_of_val(&cna), 4);
//! // SAFETY: qspinlock nodes are per-CPU and internal; the `()` node makes
//! // the RawLock contract trivial.
//! unsafe {
//!     stock.lock(&());
//!     stock.unlock(&());
//!     cna.lock(&());
//!     cna.unlock(&());
//! }
//! ```

#![warn(missing_docs)]

mod percpu;
mod policy;
mod word;

pub mod lock;

pub use lock::{CnaQSpinLock, QSpinLock, StockQSpinLock};
pub use policy::{CnaPolicy, McsPolicy, SlowPathPolicy};
pub use word::{decode_tail_cpu, decode_tail_idx, encode_tail, LOCKED, PENDING, TAIL_MASK};

/// Maximum number of emulated CPUs (registered threads) supported by the
/// per-CPU node table. The kernel sizes this by `NR_CPUS`; 1024 comfortably
/// covers the paper's 144-CPU machine and any realistic test host.
pub const MAX_CPUS: usize = 1024;

/// Maximum spin-lock nesting depth per CPU, as in the kernel (task, softirq,
/// hardirq, NMI).
pub const MAX_NESTING: usize = 4;
