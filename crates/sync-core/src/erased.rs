//! Type-erased locks: runtime algorithm selection without monomorphization.
//!
//! The generic [`RawLock`] interface is ideal when the algorithm is known at
//! compile time, but the paper's whole evaluation method (LiTL, §7) is about
//! *swapping algorithms under unchanged workloads*. This module provides the
//! object-safe counterpart: [`ErasedLock`] hides the algorithm's `Node` type
//! behind a pointer-sized [`LockToken`], and [`DynLock`] packages a boxed
//! erased lock with a safe RAII API, so a lock chosen by name at runtime (see
//! the `registry` crate) can drive any workload through one compiled path.
//!
//! Queue nodes are drawn from the per-thread [`node_pool`], exactly like the
//! safe [`LockMutex`](crate::mutex::LockMutex) wrapper, so the erased hot
//! path performs no allocation in steady state. The extra cost over the
//! generic path is one virtual call per `lock` and `unlock` plus the pool
//! round trip — a pop and a push on a thread-local free list found by
//! `TypeId` equality, a few nanoseconds — per acquisition. Algorithms whose
//! node is zero-sized (TAS, TTAS, ticket, HBO, the qspinlocks) skip the pool
//! and pay the virtual calls only; among the queue locks the cost is the
//! same, so relative comparisons remain meaningful.

use std::any::{Any, TypeId};
use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
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

/// Object-safe interface over any [`RawLock`] algorithm.
///
/// Implementations manage the per-acquisition queue node internally (pooled,
/// boxed, address-stable) and hand the caller a [`LockToken`] instead.
pub trait ErasedLock: Send + Sync {
    /// The wrapped algorithm's [`RawLock::NAME`].
    fn name(&self) -> &'static str;

    /// `TypeId` of the wrapped lock type (used by registry uniqueness tests).
    fn lock_type_id(&self) -> TypeId;

    /// `size_of` the wrapped concrete lock type in bytes — the paper's
    /// compactness measure (the shared lock word(s), not the queue nodes).
    fn lock_size(&self) -> usize;

    /// Whether [`ErasedLock::raw_try_lock`] can ever succeed (i.e. the
    /// algorithm implements [`RawTryLock`]).
    fn supports_try_lock(&self) -> bool;

    /// Acquires the lock, spinning until it is held.
    ///
    /// # Safety
    ///
    /// The returned token must be passed to exactly one matching
    /// [`ErasedLock::raw_unlock`] on this same thread, while this thread
    /// still holds the lock.
    unsafe fn raw_lock(&self) -> LockToken;

    /// Attempts to acquire the lock without blocking.
    ///
    /// Returns `None` when the lock is unavailable *or* when the algorithm
    /// does not support non-blocking acquisition (distinguish with
    /// [`ErasedLock::supports_try_lock`]).
    ///
    /// # Safety
    ///
    /// Same contract as [`ErasedLock::raw_lock`] when `Some` is returned.
    unsafe fn raw_try_lock(&self) -> Option<LockToken>;

    /// Releases an acquisition.
    ///
    /// # Safety
    ///
    /// `token` must come from a [`ErasedLock::raw_lock`] /
    /// [`ErasedLock::raw_try_lock`] on this same lock and thread, and each
    /// token must be released exactly once.
    unsafe fn raw_unlock(&self, token: LockToken);
}

/// Shared acquisition path of the two adapters below.
///
/// # Safety
///
/// See [`ErasedLock::raw_lock`].
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

/// Shared release path of the two adapters below.
///
/// # Safety
///
/// See [`ErasedLock::raw_unlock`].
unsafe fn erased_unlock<L>(lock: &L, token: LockToken)
where
    L: RawLock,
    L::Node: Any,
{
    let ptr = token.into_raw() as *mut L::Node;
    // SAFETY: the token was produced by `erased_lock`/`erased_try_lock` on
    // this lock, so `ptr` is the live boxed node of this acquisition.
    unsafe {
        lock.unlock(&*ptr);
        node_pool::release(Box::from_raw(ptr));
    }
}

/// Adapter for algorithms without a non-blocking path.
struct Erased<L>(L);

impl<L> ErasedLock for Erased<L>
where
    L: RawLock + 'static,
    L::Node: Any,
{
    fn name(&self) -> &'static str {
        L::NAME
    }
    fn lock_type_id(&self) -> TypeId {
        TypeId::of::<L>()
    }
    fn lock_size(&self) -> usize {
        std::mem::size_of::<L>()
    }
    fn supports_try_lock(&self) -> bool {
        false
    }
    unsafe fn raw_lock(&self) -> LockToken {
        // SAFETY: forwarded contract.
        unsafe { erased_lock(&self.0) }
    }
    unsafe fn raw_try_lock(&self) -> Option<LockToken> {
        None
    }
    unsafe fn raw_unlock(&self, token: LockToken) {
        // SAFETY: forwarded contract.
        unsafe { erased_unlock(&self.0, token) }
    }
}

/// Adapter for algorithms that implement [`RawTryLock`].
struct ErasedTry<L>(L);

impl<L> ErasedLock for ErasedTry<L>
where
    L: RawTryLock + 'static,
    L::Node: Any,
{
    fn name(&self) -> &'static str {
        L::NAME
    }
    fn lock_type_id(&self) -> TypeId {
        TypeId::of::<L>()
    }
    fn lock_size(&self) -> usize {
        std::mem::size_of::<L>()
    }
    fn supports_try_lock(&self) -> bool {
        true
    }
    unsafe fn raw_lock(&self) -> LockToken {
        // SAFETY: forwarded contract.
        unsafe { erased_lock(&self.0) }
    }
    unsafe fn raw_try_lock(&self) -> Option<LockToken> {
        let node = node_pool::acquire::<L::Node>();
        let ptr = Box::into_raw(node);
        // SAFETY: as in `erased_lock`; on failure the untouched node goes
        // straight back to the pool, which the contract explicitly allows.
        unsafe {
            if self.0.try_lock(&*ptr) {
                Some(LockToken::new(ptr as usize))
            } else {
                node_pool::release(Box::from_raw(ptr));
                None
            }
        }
    }
    unsafe fn raw_unlock(&self, token: LockToken) {
        // SAFETY: forwarded contract.
        unsafe { erased_unlock(&self.0, token) }
    }
}

/// A lock algorithm chosen at runtime: `Box<dyn ErasedLock>` plus a safe API.
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
    inner: Box<dyn ErasedLock>,
}

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
            inner: Box::new(Erased(lock)),
        }
    }

    /// Erases an explicitly configured [`RawTryLock`] value.
    pub fn from_try_lock<L>(lock: L) -> Self
    where
        L: RawTryLock + 'static,
        L::Node: Any,
    {
        DynLock {
            inner: Box::new(ErasedTry(lock)),
        }
    }

    /// The wrapped algorithm's [`RawLock::NAME`].
    pub fn name(&self) -> &'static str {
        self.inner.name()
    }

    /// `TypeId` of the wrapped concrete lock type.
    pub fn lock_type_id(&self) -> TypeId {
        self.inner.lock_type_id()
    }

    /// `size_of` the wrapped concrete lock type in bytes — the paper's
    /// compactness measure. Queue nodes and heap-allocated per-socket state
    /// are not counted; for the hierarchical locks the top-level struct
    /// already exceeds a cache line of shared state.
    pub fn lock_size(&self) -> usize {
        self.inner.lock_size()
    }

    /// Whether [`DynLock::try_lock`] can ever succeed.
    pub fn supports_try_lock(&self) -> bool {
        self.inner.supports_try_lock()
    }

    /// Acquires the lock; the guard releases it on drop.
    pub fn lock(&self) -> DynLockGuard<'_> {
        // SAFETY: the guard releases the token exactly once, on this thread
        // (the guard is `!Send` because the token is).
        let token = unsafe { self.inner.raw_lock() };
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
    pub fn try_lock(&self) -> Option<DynLockGuard<'_>> {
        // SAFETY: as in `lock`.
        let token = unsafe { self.inner.raw_try_lock() }?;
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
    /// See [`ErasedLock::raw_lock`].
    pub unsafe fn raw_lock(&self) -> LockToken {
        // SAFETY: forwarded contract.
        unsafe { self.inner.raw_lock() }
    }

    /// Token-based non-blocking acquisition.
    ///
    /// # Safety
    ///
    /// See [`ErasedLock::raw_try_lock`].
    pub unsafe fn raw_try_lock(&self) -> Option<LockToken> {
        // SAFETY: forwarded contract.
        unsafe { self.inner.raw_try_lock() }
    }

    /// Token-based release.
    ///
    /// # Safety
    ///
    /// See [`ErasedLock::raw_unlock`].
    pub unsafe fn raw_unlock(&self, token: LockToken) {
        // SAFETY: forwarded contract.
        unsafe { self.inner.raw_unlock(token) }
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
    fn drop(&mut self) {
        let token = self.token.take().expect("guard token taken twice");
        // SAFETY: the token belongs to this lock and acquisition; the guard
        // is `!Send`, so we are on the acquiring thread; dropped once.
        unsafe { self.lock.inner.raw_unlock(token) };
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
    use std::sync::Arc;

    /// Test-and-set lock that insists on a real (non-zero-sized) node, as
    /// the queue locks do; the lock itself never reads the node.
    #[derive(Default)]
    struct NodedLock(TestAndSetLock);

    impl RawLock for NodedLock {
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
        let lock = DynLock::new::<NodedLock>();
        assert_eq!(lock.name(), "noded-TAS");
        assert_eq!(lock.lock_type_id(), TypeId::of::<NodedLock>());
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
