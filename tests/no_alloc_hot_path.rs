//! The safe wrappers promise "no allocation in steady state" (see
//! `sync_core::node_pool`). This pins it without timing anything: a counting
//! global allocator, and zero allocations over 1 000 warm acquisitions of
//! every registered algorithm and of both mutex wrappers. The same counter
//! shows which locks a `DynLock` boxes: only those larger than a word, and
//! that a warm kyoto-lite `CacheDb` reads, overwrites and misses a removal
//! without allocating.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use cna_locks::cna::CnaLock;
use cna_locks::kyoto_lite::{CacheDb, WickedOp};
use cna_locks::registry::LockId;
use cna_locks::sync_core::DynLockMutex;
use cna_locks::CnaMutex;

thread_local! {
    /// Allocations made by this thread. No destructor and `const`
    /// initialisation, so the allocator may touch it at any point of a
    /// thread's life; per thread, so the test harness's own threads do not
    /// show up in the count.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded to `System` unchanged; the counter is a
// plain thread-local `Cell` that allocates nothing itself.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's contract, forwarded.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const WARM_UP: usize = 100;
const MEASURED: usize = 1_000;

/// Allocations this thread makes over `MEASURED` calls of `acquire_once`,
/// after `WARM_UP` calls have filled the pool and any lazy per-thread state.
fn steady_state_allocations(mut acquire_once: impl FnMut()) -> u64 {
    for _ in 0..WARM_UP {
        acquire_once();
    }
    let before = ALLOCATIONS.with(Cell::get);
    for _ in 0..MEASURED {
        acquire_once();
    }
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn the_counter_sees_allocations() {
    let grown = steady_state_allocations(|| drop(std::hint::black_box(Box::new(7u64))));
    assert_eq!(grown, MEASURED as u64);
}

#[test]
fn every_registered_lock_is_allocation_free_once_warm() {
    for id in LockId::ALL {
        let lock = id.build();
        let grown = steady_state_allocations(|| drop(lock.lock()));
        assert_eq!(grown, 0, "{}: DynLock::lock allocated", id.name());
    }
}

/// A compact lock lives in its `DynLock`, so building one allocates nothing
/// beyond what the lock's own constructor does; a larger lock is boxed.
#[test]
fn the_registry_boxes_only_locks_larger_than_a_word() {
    for id in LockId::ALL {
        let before = ALLOCATIONS.with(Cell::get);
        let lock = std::hint::black_box(id.build());
        let made = ALLOCATIONS.with(Cell::get) - before;
        match id {
            // `ClhLock::with_policy` allocates the dummy queue cell its tail
            // starts at.
            LockId::Clh => assert_eq!(made, 1, "clh: only its dummy cell"),
            _ if id.is_compact() => assert_eq!(made, 0, "{}: boxed", id.name()),
            _ => assert!(made >= 1, "{}: not boxed", id.name()),
        }
        drop(lock);
    }
}

#[test]
fn both_mutex_wrappers_are_allocation_free_once_warm() {
    let typed = CnaMutex::new(0u64);
    assert_eq!(steady_state_allocations(|| *typed.lock() += 1), 0);
    assert_eq!(*typed.lock(), (WARM_UP + MEASURED) as u64);

    let erased = DynLockMutex::new(LockId::Cna.build(), 0u64);
    assert_eq!(steady_state_allocations(|| *erased.lock() += 1), 0);
    assert_eq!(*erased.lock(), (WARM_UP + MEASURED) as u64);
}

/// `CacheDb` overwrites a record in its own buffer, as Kyoto Cabinet's
/// `CacheDB` does, so only a new key or a grown value allocates.
#[test]
fn a_warm_cache_db_gets_overwrites_and_misses_without_allocating() {
    const KEYS: u64 = 256;
    let db: CacheDb<CnaLock> = CacheDb::new();
    for key in 0..KEYS {
        db.execute(WickedOp::Set, key);
    }
    for (op, name) in [
        (WickedOp::Get, "get"),
        (WickedOp::Set, "set of an existing key"),
    ] {
        let mut key = 0;
        let grown = steady_state_allocations(|| {
            db.execute(op, key);
            key = (key + 1) % KEYS;
        });
        assert_eq!(grown, 0, "{name} allocated");
    }
    let mut absent = KEYS;
    let grown = steady_state_allocations(|| {
        db.execute(WickedOp::Remove, absent);
        absent += 1;
    });
    assert_eq!(grown, 0, "remove of an absent key allocated");
    assert_eq!(db.len(), KEYS as usize);
}
