//! Cross-crate integration tests: every lock algorithm in the workspace is
//! exercised through the same safe API under real concurrency, and the
//! paper's structural claims (lock sizes, single-word state) are checked.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use cna_locks::cna::{CnaConfig, CnaLock, CnaMutex};
use cna_locks::harness::{run_real_contention, run_real_contention_dyn, RunConfig};
use cna_locks::locks::{
    CBoMcsLock, CPtlTktLock, CTktTktLock, ClhLock, HboLock, HmcsLock, McsLock,
    PartitionedTicketLock, TestAndSetLock, TicketLock, TtasBackoffLock,
};
use cna_locks::qspinlock::{CnaQSpinLock, StockQSpinLock};
use cna_locks::registry::LockId;
use cna_locks::sync_core::{DynLockMutex, LockMutex, RawLock, RawTryLock};

fn exercise<L: RawLock + 'static>() {
    const THREADS: usize = 3;
    const ITERS: u64 = 1_500;
    let m: Arc<LockMutex<u64, L>> = Arc::new(LockMutex::new(0));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let m = Arc::clone(&m);
            s.spawn(move || {
                let _socket = cna_locks::numa_topology::SocketOverrideGuard::new(t % 2);
                for _ in 0..ITERS {
                    *m.lock() += 1;
                }
            });
        }
    });
    assert_eq!(
        *m.lock(),
        THREADS as u64 * ITERS,
        "{} lost updates",
        L::NAME
    );
}

#[test]
fn every_lock_in_the_workspace_provides_mutual_exclusion() {
    exercise::<TestAndSetLock>();
    exercise::<TtasBackoffLock>();
    exercise::<TicketLock>();
    exercise::<PartitionedTicketLock>();
    exercise::<ClhLock>();
    exercise::<McsLock>();
    exercise::<HboLock>();
    exercise::<CBoMcsLock>();
    exercise::<CTktTktLock>();
    exercise::<CPtlTktLock>();
    exercise::<HmcsLock>();
    exercise::<CnaLock>();
    exercise::<cna_locks::cna::raw::CnaLockOpt>();
    exercise::<StockQSpinLock>();
    exercise::<CnaQSpinLock>();
}

/// The erased counterpart of
/// [`every_lock_in_the_workspace_provides_mutual_exclusion`]: the same
/// contended-counter exercise, but with every algorithm selected through the
/// registry at runtime and driven through `DynLock`.
#[test]
fn every_registered_lock_provides_mutual_exclusion_through_dynlock() {
    const THREADS: usize = 3;
    const ITERS: u64 = 1_000;
    for id in LockId::ALL {
        let m = Arc::new(DynLockMutex::new(id.build(), 0u64));
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let _socket = cna_locks::numa_topology::SocketOverrideGuard::new(t % 2);
                    for _ in 0..ITERS {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), THREADS as u64 * ITERS, "{id} lost updates");
    }
}

/// The erased `try_lock` must agree with the generic `RawTryLock` semantics:
/// where the concrete lock has a non-blocking path, so does the erased one
/// (and it fails while the lock is held); where it does not, the erased
/// `try_lock` reports unsupported instead of inventing one.
#[test]
fn erased_try_lock_agrees_with_raw_try_lock() {
    fn check_generic_try<L: RawTryLock + 'static>() {
        let lock = L::default();
        let node = L::Node::default();
        let other = L::Node::default();
        // SAFETY: matched pairs, nodes pinned on this frame.
        unsafe {
            assert!(lock.try_lock(&node), "{}: free lock", L::NAME);
            assert!(!lock.try_lock(&other), "{}: held lock", L::NAME);
            lock.unlock(&node);
        }
    }
    // Generic reference semantics for the try-capable algorithms…
    check_generic_try::<TestAndSetLock>();
    check_generic_try::<TtasBackoffLock>();
    check_generic_try::<TicketLock>();
    check_generic_try::<HboLock>();
    check_generic_try::<StockQSpinLock>();
    check_generic_try::<CnaQSpinLock>();
    // …and the erased path must match them, id by id.
    for id in LockId::ALL {
        let lock = id.build();
        assert_eq!(
            lock.supports_try_lock(),
            id.supports_try_lock(),
            "{id}: erased try support drifted from the registry"
        );
        if id.supports_try_lock() {
            let guard = lock.lock();
            assert!(lock.try_lock().is_none(), "{id}: try while held");
            drop(guard);
            assert!(lock.try_lock().is_some(), "{id}: try on a free lock");
        } else {
            assert!(lock.try_lock().is_none(), "{id}: unsupported try");
        }
    }
}

/// Unwinds out of a critical section without running the panic hook, so a
/// deliberate panic prints nothing.
fn unwind_quietly() -> ! {
    resume_unwind(Box::new("panic inside a critical section"))
}

/// Runs `f` on a fresh thread and returns its result. A lock left held by an
/// unwound guard would make `f` spin forever, so this fails after a deadline
/// instead of hanging the suite.
fn within_deadline<T: Send + 'static>(what: &str, f: impl FnOnce() -> T + Send + 'static) -> T {
    let (tx, rx) = mpsc::channel();
    let worker = std::thread::spawn(move || tx.send(f()).expect("the test is waiting"));
    let value = rx
        .recv_timeout(Duration::from_secs(10))
        .unwrap_or_else(|_| panic!("{what}: the lock was not released when the guard unwound"));
    worker.join().expect("the worker sent its value");
    value
}

/// No poisoning: a panic while a guard is held releases the lock as the
/// guard unwinds, the next acquirer proceeds, and it sees the write made
/// before the panic.
#[test]
fn a_panic_in_a_critical_section_releases_the_lock() {
    let cna = Arc::new(CnaMutex::new(0u64));
    let unwound = catch_unwind(AssertUnwindSafe(|| {
        let mut guard = cna.lock();
        *guard = 7;
        unwind_quietly();
    }));
    assert!(unwound.is_err());
    let other = Arc::clone(&cna);
    assert_eq!(within_deadline("CnaMutex", move || *other.lock()), 7);
    // `CnaLock` has no non-blocking path, so `CnaMutex` has no `try_lock`;
    // the loop below checks `try_lock` for every id that has one.

    for id in LockId::ALL {
        let m = Arc::new(DynLockMutex::new(id.build(), 0u64));
        let unwound = catch_unwind(AssertUnwindSafe(|| {
            let mut guard = m.lock();
            *guard = 7;
            unwind_quietly();
        }));
        assert!(unwound.is_err(), "{id}");
        let other = Arc::clone(&m);
        assert_eq!(within_deadline(id.name(), move || *other.lock()), 7, "{id}");
        if id.supports_try_lock() {
            assert_eq!(
                m.try_lock().map(|g| *g),
                Some(7),
                "{id}: try_lock after the unwind"
            );
        }
    }
}

/// The registry-driven harness entry point exercises every registered
/// algorithm through one compiled loop.
#[test]
fn harness_dyn_runs_cover_the_whole_registry() {
    let cfg = RunConfig {
        threads: 2,
        duration: Duration::from_millis(10),
        critical_work: 8,
        non_critical_work: 8,
        virtual_sockets: 2,
        ..RunConfig::default()
    };
    for id in LockId::ALL {
        let result = run_real_contention_dyn(id, &cfg);
        assert_eq!(result.algorithm, id.name());
        assert!(result.total_ops() > 0, "{id} made no progress");
    }
}

#[test]
fn compact_locks_are_compact_and_hierarchical_locks_are_not() {
    // The paper's space argument, checked in code.
    let word = std::mem::size_of::<usize>();
    assert_eq!(std::mem::size_of::<CnaLock>(), word);
    assert_eq!(std::mem::size_of::<McsLock>(), word);
    assert_eq!(std::mem::size_of::<ClhLock>(), word);
    assert_eq!(std::mem::size_of::<HboLock>(), word);
    assert_eq!(std::mem::size_of::<StockQSpinLock>(), 4);
    assert_eq!(std::mem::size_of::<CnaQSpinLock>(), 4);
    // Hierarchical NUMA-aware locks grow with the socket count and pad each
    // per-socket structure to cache lines.
    assert!(CBoMcsLock::with_sockets(2, 64).footprint_bytes() >= 2 * 128);
    assert!(
        CBoMcsLock::with_sockets(8, 64).footprint_bytes()
            > CBoMcsLock::with_sockets(2, 64).footprint_bytes()
    );
    assert!(
        HmcsLock::with_sockets(8, 64).footprint_bytes()
            > HmcsLock::with_sockets(2, 64).footprint_bytes()
    );
}

#[test]
fn cna_mutex_guards_compose_with_std_collections() {
    let m = CnaMutex::new(std::collections::HashMap::<String, u32>::new());
    std::thread::scope(|s| {
        for t in 0..3u32 {
            let m = &m;
            s.spawn(move || {
                for i in 0..200u32 {
                    m.lock().insert(format!("k-{t}-{i}"), i);
                }
            });
        }
    });
    assert_eq!(m.lock().len(), 600);
}

#[test]
fn tunable_cna_configurations_all_work_under_contention() {
    for config in [
        CnaConfig::paper_default(),
        CnaConfig::with_shuffle_reduction(),
        CnaConfig::always_flush(),
        CnaConfig::never_flush(),
        CnaConfig::default().keep_local_mask(0xf),
    ] {
        let m = Arc::new(cna_locks::cna::mutex::tunable_mutex(config, 0u64));
        std::thread::scope(|s| {
            for t in 0..3 {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    let _socket = cna_locks::numa_topology::SocketOverrideGuard::new(t % 2);
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 3_000, "config {config:?} lost updates");
    }
}

#[test]
fn harness_real_runs_cover_cna_and_the_strongest_baselines() {
    let cfg = RunConfig {
        threads: 3,
        duration: Duration::from_millis(40),
        critical_work: 16,
        non_critical_work: 16,
        virtual_sockets: 2,
        ..RunConfig::default()
    };
    for result in [
        run_real_contention::<McsLock>(&cfg),
        run_real_contention::<CnaLock>(&cfg),
        run_real_contention::<CBoMcsLock>(&cfg),
        run_real_contention::<HmcsLock>(&cfg),
        run_real_contention::<CnaQSpinLock>(&cfg),
    ] {
        assert!(
            result.total_ops() > 0,
            "{} made no progress",
            result.algorithm
        );
        assert!(result.fairness_factor() <= 1.0);
    }
}
