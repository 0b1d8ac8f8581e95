//! Type-erased locks: runtime algorithm selection without monomorphization.
//!
//! The generic [`RawLock`] interface is ideal when the algorithm is known at
//! compile time, but the paper's whole evaluation method (LiTL, §7) is about
//! *swapping algorithms under unchanged workloads*. This module provides the
//! runtime counterpart: [`DynLock`] hides the algorithm's `Node` type behind a
//! pointer-sized [`LockToken`] and the algorithm itself behind a static table
//! of functions, so a lock chosen by name at runtime (see the `registry`
//! crate) can drive any workload through one compiled path.
//!
//! A `DynLock` is two words: a `&'static` vtable and one word of storage. A
//! lock that fits that word — every compact algorithm, one word or the
//! kernel's four bytes — lives in it, inside whatever object holds the
//! `DynLock`, which is where the paper wants a lock to live. Only a lock
//! larger than a word (the cohort and hierarchical locks, PTL, Fissile,
//! MCSCR) is boxed, and the word holds the pointer.
//!
//! Queue nodes are drawn from the per-thread [`node_pool`], exactly like the
//! safe [`LockMutex`](crate::mutex::LockMutex) wrapper, so the erased hot
//! path performs no allocation in steady state. The extra cost over the
//! generic path is one indirect call per `lock` and `unlock` plus the pool
//! round trip — a pop and a push on a thread-local free list found by
//! `TypeId` equality, a few nanoseconds — per acquisition. Algorithms whose
//! node is zero-sized (TAS, TTAS, ticket, HBO, the qspinlocks) skip the pool
//! and pay the indirect calls only; among the queue locks the cost is the
//! same, so relative comparisons remain meaningful.

use std::any::{Any, TypeId};
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::mem::MaybeUninit;
use std::ops::{Deref, DerefMut};

use crate::node_pool;
use crate::raw::{RawLock, RawTryLock};

/// Opaque receipt for one in-flight erased acquisition.
///
/// Internally this is the address of the pooled queue node backing the
/// acquisition. It is deliberately `!Send`: the [`RawLock`] contract requires
/// the acquiring thread to release, and the node returns to that thread's
/// pool.
pub struct LockToken {
    ptr: usize,
    _not_send: PhantomData<*mut ()>,
}

impl LockToken {
    fn new(ptr: usize) -> Self {
        LockToken {
            ptr,
            _not_send: PhantomData,
        }
    }

    /// Unwraps the token into its raw representation (the node address).
    ///
    /// Used by adapters that must stash a token in plain storage (e.g. an
    /// atomic inside a lock node); pair with [`LockToken::from_raw`].
    pub fn into_raw(self) -> usize {
        self.ptr
    }

    /// Rebuilds a token from [`LockToken::into_raw`].
    ///
    /// # Safety
    ///
    /// `raw` must come from `into_raw` on a token of the same acquisition,
    /// on the same thread, and the original token must not be used again.
    pub unsafe fn from_raw(raw: usize) -> Self {
        LockToken::new(raw)
    }
}

impl fmt::Debug for LockToken {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("LockToken")
            .field(&(self.ptr as *const ()))
            .finish()
    }
}

/// The word a [`DynLock`] keeps its lock in: the lock itself when it fits,
/// else the pointer to its box. An `UnsafeCell` because locks mutate through
/// `&self`.
type Slot = UnsafeCell<MaybeUninit<usize>>;

/// What a [`DynLock`] knows of its algorithm: one `'static` table per lock
/// type and try-capability, built by [`Stored`].
struct VTable {
    name: &'static str,
    size: usize,
    supports_try_lock: bool,
    type_id: fn() -> TypeId,
    lock: unsafe fn(&Slot) -> LockToken,
    try_lock: unsafe fn(&Slot) -> Option<LockToken>,
    unlock: unsafe fn(&Slot, LockToken),
    drop: unsafe fn(&mut Slot),
}

/// How an `L` is kept in a [`Slot`], and the vtables that drive it there.
struct Stored<L>(PhantomData<L>);

impl<L> Stored<L>
where
    L: RawLock + 'static,
    L::Node: Any,
{
    /// Whether an `L` lives in the slot itself; otherwise the slot holds the
    /// `*mut L` of a box.
    const INLINE: bool =
        size_of::<L>() <= size_of::<usize>() && align_of::<L>() <= align_of::<usize>();

    const PLAIN: VTable = VTable {
        name: L::NAME,
        size: size_of::<L>(),
        supports_try_lock: false,
        type_id: TypeId::of::<L>,
        lock: Self::lock,
        try_lock: Self::no_try_lock,
        unlock: Self::unlock,
        drop: Self::drop_slot,
    };

    fn store(lock: L) -> Slot {
        let slot = Slot::new(MaybeUninit::uninit());
        if Self::INLINE {
            // SAFETY: `INLINE` guarantees `L` fits the slot's size and
            // alignment. Moving an idle lock by value is sound: every `L`
            // already arrives by value (from `L::default()`), and a live
            // guard borrows the `DynLock`, so a held lock never moves.
            unsafe { slot.get().cast::<L>().write(lock) };
        } else {
            // SAFETY: a pointer fits the `usize`-sized, `usize`-aligned slot.
            unsafe {
                slot.get()
                    .cast::<*mut L>()
                    .write(Box::into_raw(Box::new(lock)))
            };
        }
        slot
    }

    /// The `L` the slot holds.
    ///
    /// # Safety
    ///
    /// `slot` must have been filled by [`Stored::store`] for this `L` and
    /// not dropped since.
    #[inline(always)]
    unsafe fn get(slot: &Slot) -> &L {
        // SAFETY: per the contract the slot holds a live `L` in place, or
        // the pointer to a live boxed `L` that the slot owns.
        unsafe {
            if Self::INLINE {
                &*slot.get().cast::<L>()
            } else {
                &**slot.get().cast::<*mut L>()
            }
        }
    }

    /// # Safety
    ///
    /// As for [`DynLock::raw_lock`], on a slot filled for this `L`.
    unsafe fn lock(slot: &Slot) -> LockToken {
        // SAFETY: forwarded contract.
        unsafe { erased_lock(Self::get(slot)) }
    }

    /// The `try_lock` entry of an algorithm without a non-blocking path.
    ///
    /// # Safety
    ///
    /// Always safe to call; `unsafe` only to match the vtable's signature.
    unsafe fn no_try_lock(_: &Slot) -> Option<LockToken> {
        None
    }

    /// # Safety
    ///
    /// As for [`DynLock::raw_unlock`], on a slot filled for this `L`.
    unsafe fn unlock(slot: &Slot, token: LockToken) {
        // SAFETY: forwarded contract.
        unsafe { erased_unlock(Self::get(slot), token) }
    }

    /// Runs the destructor of the `L` the slot holds and frees its box, if
    /// any.
    ///
    /// # Safety
    ///
    /// `slot` must have been filled by [`Stored::store`] for this `L`; it
    /// holds no `L` afterwards and must not be used again.
    unsafe fn drop_slot(slot: &mut Slot) {
        let word = slot.get_mut().as_mut_ptr();
        // SAFETY: the slot owns exactly one live `L`, in place or boxed, and
        // per the contract this is its only drop, so `L`'s destructor runs
        // exactly once (for CLH, the one that frees its dummy queue cell).
        unsafe {
            if Self::INLINE {
                word.cast::<L>().drop_in_place();
            } else {
                drop(Box::from_raw(word.cast::<*mut L>().read()));
            }
        }
    }
}

impl<L> Stored<L>
where
    L: RawTryLock + 'static,
    L::Node: Any,
{
    const TRY: VTable = VTable {
        supports_try_lock: true,
        try_lock: Self::try_lock,
        ..Self::PLAIN
    };

    /// # Safety
    ///
    /// As for [`DynLock::raw_try_lock`], on a slot filled for this `L`.
    unsafe fn try_lock(slot: &Slot) -> Option<LockToken> {
        let node = node_pool::acquire::<L::Node>();
        let ptr = Box::into_raw(node);
        // SAFETY: as in `erased_lock`; on failure the untouched node goes
        // straight back to the pool, which the contract explicitly allows.
        unsafe {
            if Self::get(slot).try_lock(&*ptr) {
                Some(LockToken::new(ptr as usize))
            } else {
                node_pool::release(Box::from_raw(ptr));
                None
            }
        }
    }
}

/// Shared acquisition path of every vtable.
///
/// # Safety
///
/// See [`DynLock::raw_lock`].
unsafe fn erased_lock<L>(lock: &L) -> LockToken
where
    L: RawLock,
    L::Node: Any,
{
    let node = node_pool::acquire::<L::Node>();
    let ptr = Box::into_raw(node);
    // SAFETY: the node is boxed (stable address) and owned by the token until
    // the matching unlock, which reconstructs and pools the box.
    unsafe { lock.lock(&*ptr) };
    LockToken::new(ptr as usize)
}

/// Shared release path of every vtable.
///
/// # Safety
///
/// See [`DynLock::raw_unlock`].
unsafe fn erased_unlock<L>(lock: &L, token: LockToken)
where
    L: RawLock,
    L::Node: Any,
{
    let ptr = token.into_raw() as *mut L::Node;
    // SAFETY: the token was produced by `erased_lock`/`try_lock` on this
    // lock, so `ptr` is the live boxed node of this acquisition.
    unsafe {
        lock.unlock(&*ptr);
        node_pool::release(Box::from_raw(ptr));
    }
}

/// A lock algorithm chosen at runtime: a static vtable, one word of lock
/// storage, and a safe API.
///
/// A lock of at most a word (and at most a word's alignment) is stored in
/// place, so a `DynLock` field keeps a compact lock inside its object; a
/// larger one is boxed. Either way a `DynLock` is two words.
///
/// Construct one directly from a lock type, or — the usual route — from a
/// `LockId` through the `registry` crate's factory table.
///
/// # Examples
///
/// ```
/// use sync_core::erased::DynLock;
/// use sync_core::spinlock::TestAndSetLock;
///
/// let lock = DynLock::new_try::<TestAndSetLock>();
/// assert_eq!(lock.name(), "TAS");
/// let guard = lock.lock();
/// assert!(lock.try_lock().is_none(), "held locks refuse try_lock");
/// drop(guard);
/// assert!(lock.try_lock().is_some());
/// ```
pub struct DynLock {
    vtable: &'static VTable,
    slot: Slot,
}

// SAFETY: the slot owns one `L: RawLock`, and `RawLock: Send + Sync`, so the
// lock may move to another thread; the vtable is immutable static data.
unsafe impl Send for DynLock {}
// SAFETY: as above; every access through `&DynLock` is a method of the
// `Sync` lock `L`, the only reason the slot is an `UnsafeCell`.
unsafe impl Sync for DynLock {}

impl DynLock {
    /// Erases a default-constructed lock of type `L` (no try-lock support).
    pub fn new<L>() -> Self
    where
        L: RawLock + 'static,
        L::Node: Any,
    {
        Self::from_lock(L::default())
    }

    /// Erases a default-constructed [`RawTryLock`] of type `L`, keeping the
    /// non-blocking path reachable through [`DynLock::try_lock`].
    pub fn new_try<L>() -> Self
    where
        L: RawTryLock + 'static,
        L::Node: Any,
    {
        Self::from_try_lock(L::default())
    }

    /// Erases an explicitly configured lock value (no try-lock support).
    pub fn from_lock<L>(lock: L) -> Self
    where
        L: RawLock + 'static,
        L::Node: Any,
    {
        DynLock {
            vtable: &Stored::<L>::PLAIN,
            slot: Stored::store(lock),
        }
    }

    /// Erases an explicitly configured [`RawTryLock`] value.
    pub fn from_try_lock<L>(lock: L) -> Self
    where
        L: RawTryLock + 'static,
        L::Node: Any,
    {
        DynLock {
            vtable: &Stored::<L>::TRY,
            slot: Stored::store(lock),
        }
    }

    /// The wrapped algorithm's [`RawLock::NAME`].
    pub fn name(&self) -> &'static str {
        self.vtable.name
    }

    /// `TypeId` of the wrapped concrete lock type.
    pub fn lock_type_id(&self) -> TypeId {
        (self.vtable.type_id)()
    }

    /// `size_of` the wrapped concrete lock type in bytes — the paper's
    /// compactness measure. A lock of at most a word is stored in place, in
    /// the `DynLock` itself; a larger one is boxed. Queue nodes and
    /// heap-allocated per-socket state are not counted; for the hierarchical
    /// locks the top-level struct already exceeds a cache line of shared
    /// state.
    pub fn lock_size(&self) -> usize {
        self.vtable.size
    }

    /// Whether [`DynLock::try_lock`] can ever succeed.
    pub fn supports_try_lock(&self) -> bool {
        self.vtable.supports_try_lock
    }

    /// Acquires the lock; the guard releases it on drop.
    #[inline]
    pub fn lock(&self) -> DynLockGuard<'_> {
        // SAFETY: the guard releases the token exactly once, on this thread
        // (the guard is `!Send` because the token is).
        let token = unsafe { self.raw_lock() };
        DynLockGuard {
            lock: self,
            token: Some(token),
        }
    }

    /// Attempts to acquire the lock without blocking.
    ///
    /// Returns `None` when the lock is held by another thread or when the
    /// algorithm has no non-blocking path (see
    /// [`DynLock::supports_try_lock`]).
    #[inline]
    pub fn try_lock(&self) -> Option<DynLockGuard<'_>> {
        // SAFETY: as in `lock`.
        let token = unsafe { self.raw_try_lock() }?;
        Some(DynLockGuard {
            lock: self,
            token: Some(token),
        })
    }

    /// Token-based acquisition for measurement hot loops that want to avoid
    /// the guard.
    ///
    /// # Safety
    ///
    /// The returned token must be passed to exactly one matching
    /// [`DynLock::raw_unlock`] on this same lock and thread, while this
    /// thread still holds the lock.
    #[inline]
    pub unsafe fn raw_lock(&self) -> LockToken {
        // SAFETY: the vtable was chosen with the slot's contents at
        // construction; the caller's contract is forwarded.
        unsafe { (self.vtable.lock)(&self.slot) }
    }

    /// Token-based non-blocking acquisition.
    ///
    /// Returns `None` when the lock is unavailable *or* when the algorithm
    /// does not support non-blocking acquisition (distinguish with
    /// [`DynLock::supports_try_lock`]).
    ///
    /// # Safety
    ///
    /// Same contract as [`DynLock::raw_lock`] when `Some` is returned.
    #[inline]
    pub unsafe fn raw_try_lock(&self) -> Option<LockToken> {
        // SAFETY: as in `raw_lock`.
        unsafe { (self.vtable.try_lock)(&self.slot) }
    }

    /// Token-based release.
    ///
    /// # Safety
    ///
    /// `token` must come from a [`DynLock::raw_lock`] /
    /// [`DynLock::raw_try_lock`] on this same lock and thread, and each
    /// token must be released exactly once.
    #[inline]
    pub unsafe fn raw_unlock(&self, token: LockToken) {
        // SAFETY: as in `raw_lock`.
        unsafe { (self.vtable.unlock)(&self.slot, token) }
    }
}

impl Drop for DynLock {
    fn drop(&mut self) {
        // SAFETY: the slot was filled for the vtable's `L` at construction,
        // and this is its one drop: no guard (each borrows `self`) is left.
        unsafe { (self.vtable.drop)(&mut self.slot) }
    }
}

impl fmt::Debug for DynLock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynLock")
            .field("algorithm", &self.name())
            .field("try_lock", &self.supports_try_lock())
            .finish()
    }
}

/// RAII guard of a [`DynLock`] acquisition; releases the lock on drop.
pub struct DynLockGuard<'a> {
    lock: &'a DynLock,
    /// Always `Some` until the destructor runs.
    token: Option<LockToken>,
}

impl Drop for DynLockGuard<'_> {
    #[inline]
    fn drop(&mut self) {
        let token = self.token.take().expect("guard token taken twice");
        // SAFETY: the token belongs to this lock and acquisition; the guard
        // is `!Send`, so we are on the acquiring thread; dropped once.
        unsafe { self.lock.raw_unlock(token) };
    }
}

impl fmt::Debug for DynLockGuard<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("DynLockGuard")
            .field("algorithm", &self.lock.name())
            .finish()
    }
}

/// A mutual-exclusion container whose lock algorithm is chosen at runtime.
///
/// The dynamic counterpart of [`LockMutex`](crate::mutex::LockMutex): the
/// algorithm is fixed per *value* (at construction) instead of per *type*.
///
/// # No poisoning
///
/// As with `LockMutex`, a panic while a guard is held does not poison the
/// mutex: the guard releases the lock on unwind, the next
/// [`lock`](Self::lock) succeeds (and so does [`try_lock`](Self::try_lock)
/// where the algorithm has a non-blocking path), and it sees whatever the
/// critical section wrote before it panicked.
///
/// # Examples
///
/// ```
/// use sync_core::erased::{DynLock, DynLockMutex};
/// use sync_core::spinlock::TestAndSetLock;
///
/// let m = DynLockMutex::new(DynLock::new::<TestAndSetLock>(), 0u64);
/// *m.lock() += 1;
/// assert_eq!(*m.lock(), 1);
/// assert_eq!(m.algorithm(), "TAS");
/// ```
pub struct DynLockMutex<T: ?Sized> {
    lock: DynLock,
    data: UnsafeCell<T>,
}

// SAFETY: the erased lock provides mutual exclusion for all access to
// `data`, exactly as in `LockMutex`.
unsafe impl<T: ?Sized + Send> Send for DynLockMutex<T> {}
// SAFETY: as above; `&DynLockMutex` only yields `&T`/`&mut T` under the lock.
unsafe impl<T: ?Sized + Send> Sync for DynLockMutex<T> {}

impl<T> DynLockMutex<T> {
    /// Wraps `value` behind the given erased lock.
    pub fn new(lock: DynLock, value: T) -> Self {
        DynLockMutex {
            lock,
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized> DynLockMutex<T> {
    /// Acquires the lock, spinning until it is available.
    pub fn lock(&self) -> DynMutexGuard<'_, T> {
        DynMutexGuard {
            mutex: self,
            _inner: self.lock.lock(),
        }
    }

    /// Attempts to acquire the lock without blocking; `None` when held or
    /// when the algorithm has no non-blocking path.
    pub fn try_lock(&self) -> Option<DynMutexGuard<'_, T>> {
        Some(DynMutexGuard {
            mutex: self,
            _inner: self.lock.try_lock()?,
        })
    }

    /// The algorithm name of the underlying lock (e.g. `"CNA"`).
    pub fn algorithm(&self) -> &'static str {
        self.lock.name()
    }

    /// Returns a mutable reference to the protected value without locking.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DynLockMutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately does not take the lock: Debug must be usable from a
        // thread that already holds it.
        f.debug_struct("DynLockMutex")
            .field("algorithm", &self.algorithm())
            .finish_non_exhaustive()
    }
}

/// RAII guard returned by [`DynLockMutex::lock`].
pub struct DynMutexGuard<'a, T: ?Sized> {
    mutex: &'a DynLockMutex<T>,
    _inner: DynLockGuard<'a>,
}

impl<T: ?Sized> Deref for DynMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the inner guard proves the lock is held.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized> DerefMut for DynMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, plus the guard itself is uniquely borrowed.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized + fmt::Debug> fmt::Debug for DynMutexGuard<'_, T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spinlock::TestAndSetLock;
    use std::cell::Cell;
    use std::sync::Arc;

    /// A `DynLock` may be sent to and shared between threads.
    const _: () = {
        const fn send_sync<T: Send + Sync>() {}
        send_sync::<DynLock>();
    };

    /// Test-and-set lock that insists on a real (non-zero-sized) node, as
    /// the queue locks do; the lock itself never reads the node. A non-unit
    /// `S` is ballast that pushes it past a word, onto the boxed path.
    #[derive(Default)]
    struct NodedLock<S = ()>(TestAndSetLock, S);

    impl<S: Default + Send + Sync> RawLock for NodedLock<S> {
        type Node = u64;
        const NAME: &'static str = "noded-TAS";
        unsafe fn lock(&self, _: &u64) {
            // SAFETY: forwarded contract; the inner node is `()`.
            unsafe { self.0.lock(&()) }
        }
        unsafe fn unlock(&self, _: &u64) {
            // SAFETY: forwarded contract; the inner node is `()`.
            unsafe { self.0.unlock(&()) }
        }
    }

    #[test]
    fn erased_lock_roundtrip_reuses_pooled_nodes() {
        fn roundtrip<L: RawLock<Node = u64> + 'static>(inline: bool) {
            assert_eq!(Stored::<L>::INLINE, inline);
            let lock = DynLock::new::<L>();
            assert_eq!(lock.name(), "noded-TAS");
            assert_eq!(lock.lock_type_id(), TypeId::of::<L>());
            assert_eq!(lock.lock_size(), size_of::<L>());
            // SAFETY: matched lock/unlock pairs on this thread.
            let (first, second) = unsafe {
                let token = lock.raw_lock();
                let first = token.ptr;
                lock.raw_unlock(token);
                assert_eq!(node_pool::pooled_count::<u64>(), 1, "unlock pools the node");
                let token = lock.raw_lock();
                assert_eq!(node_pool::pooled_count::<u64>(), 0, "lock takes it back");
                let second = token.ptr;
                lock.raw_unlock(token);
                (first, second)
            };
            assert_eq!(second, first, "the token is the pooled node's address");
        }
        roundtrip::<NodedLock>(true);
        roundtrip::<NodedLock<usize>>(false);
    }

    thread_local! {
        static DROPS: Cell<usize> = const { Cell::new(0) };
    }

    /// A test-and-set lock laid out with `S` that counts its drops on this
    /// thread.
    #[derive(Default)]
    struct DropCounted<S: Default + Send + Sync>(TestAndSetLock, S);

    impl<S: Default + Send + Sync> Drop for DropCounted<S> {
        fn drop(&mut self) {
            DROPS.with(|d| d.set(d.get() + 1));
        }
    }

    impl<S: Default + Send + Sync> RawLock for DropCounted<S> {
        type Node = ();
        const NAME: &'static str = "drop-counted";
        unsafe fn lock(&self, node: &()) {
            // SAFETY: forwarded contract.
            unsafe { self.0.lock(node) }
        }
        unsafe fn unlock(&self, node: &()) {
            // SAFETY: forwarded contract.
            unsafe { self.0.unlock(node) }
        }
    }

    /// Raises the alignment of a one-word lock past a word's.
    #[derive(Default)]
    #[repr(align(16))]
    struct OverAligned;

    fn drops_exactly_once<S: Default + Send + Sync + 'static>(inline: bool) {
        assert_eq!(Stored::<DropCounted<S>>::INLINE, inline);
        DROPS.with(|d| d.set(0));
        let lock = DynLock::new::<DropCounted<S>>();
        drop(lock.lock());
        let moved = std::hint::black_box(lock);
        drop(moved.lock());
        assert_eq!(DROPS.with(Cell::get), 0, "locking and moving drop nothing");
        drop(moved);
        assert_eq!(DROPS.with(Cell::get), 1, "the lock is dropped exactly once");
    }

    #[test]
    fn an_inline_lock_is_dropped_exactly_once() {
        drops_exactly_once::<()>(true);
    }

    #[test]
    fn a_boxed_two_word_lock_is_dropped_exactly_once() {
        drops_exactly_once::<usize>(false);
    }

    #[test]
    fn a_boxed_over_aligned_lock_is_dropped_exactly_once() {
        assert!(align_of::<DropCounted<OverAligned>>() > align_of::<usize>());
        drops_exactly_once::<OverAligned>(false);
    }

    #[test]
    fn non_try_adapter_reports_and_returns_none() {
        let lock = DynLock::new::<TestAndSetLock>();
        assert!(!lock.supports_try_lock());
        assert!(lock.try_lock().is_none(), "no try path on plain adapter");
        // The blocking path still works.
        drop(lock.lock());
    }

    #[test]
    fn try_adapter_agrees_with_raw_try_lock_semantics() {
        let lock = DynLock::new_try::<TestAndSetLock>();
        assert!(lock.supports_try_lock());
        let g = lock.lock();
        assert!(lock.try_lock().is_none());
        drop(g);
        let g = lock.try_lock().expect("free lock must be acquirable");
        drop(g);
    }

    #[test]
    fn raw_token_api_matches_guard_api() {
        let lock = DynLock::new_try::<TestAndSetLock>();
        // SAFETY: matched pairs on one thread.
        unsafe {
            let t = lock.raw_lock();
            assert!(lock.raw_try_lock().is_none());
            lock.raw_unlock(t);
            let t = lock.raw_try_lock().expect("free");
            lock.raw_unlock(t);
        }
    }

    #[test]
    fn dyn_mutex_provides_mutual_exclusion_under_contention() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let m = Arc::new(DynLockMutex::new(DynLock::new::<TestAndSetLock>(), 0u64));
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                let m = Arc::clone(&m);
                s.spawn(move || {
                    for _ in 0..ITERS {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), (THREADS * ITERS) as u64);
    }

    #[test]
    fn dyn_mutex_try_lock_and_debug() {
        let m = DynLockMutex::new(DynLock::new_try::<TestAndSetLock>(), 7u32);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        assert!(format!("{m:?}").contains("TAS"));
        drop(g);
        *m.try_lock().expect("free") = 8;
        assert_eq!(m.into_inner(), 8);
    }
}
