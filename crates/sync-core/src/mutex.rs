//! Safe RAII mutex built on any [`RawLock`].

use std::cell::UnsafeCell;
use std::fmt;
use std::marker::PhantomData;
use std::ops::{Deref, DerefMut};

use crate::node_pool;
use crate::raw::{RawLock, RawTryLock};

/// A mutual-exclusion container generic over the lock algorithm.
///
/// `LockMutex<T, L>` is to this workspace what an interposed
/// `pthread_mutex_t` is to LiTL: client code holds data behind it and is
/// oblivious to whether `L` is MCS, CNA, a cohort lock, or a plain
/// test-and-set lock. Queue nodes are drawn from the per-thread
/// [`node_pool`], so the fast path performs no allocation in steady state:
/// what the wrapper adds to the raw lock is one pop and one push on a
/// thread-local free list found by `TypeId` equality, and nothing at all for
/// algorithms whose node is zero-sized.
///
/// # Examples
///
/// ```
/// use sync_core::LockMutex;
/// use sync_core::spinlock::TestAndSetLock;
///
/// let m: LockMutex<Vec<u32>, TestAndSetLock> = LockMutex::new(Vec::new());
/// m.lock().push(3);
/// assert_eq!(m.lock().len(), 1);
/// ```
pub struct LockMutex<T: ?Sized, L: RawLock> {
    raw: L,
    data: UnsafeCell<T>,
}

// SAFETY: the raw lock provides mutual exclusion for all access to `data`,
// so the mutex may be shared across threads whenever the protected value may
// be sent between them.
unsafe impl<T: ?Sized + Send, L: RawLock> Send for LockMutex<T, L> {}
// SAFETY: as above; `&LockMutex` only yields `&T`/`&mut T` under the lock.
unsafe impl<T: ?Sized + Send, L: RawLock> Sync for LockMutex<T, L> {}

impl<T, L: RawLock> LockMutex<T, L> {
    /// Creates a new mutex protecting `value`, with a default-constructed
    /// lock.
    pub fn new(value: T) -> Self {
        Self::with_raw(L::default(), value)
    }

    /// Creates a new mutex protecting `value` with an explicitly configured
    /// raw lock (e.g. a CNA lock with a non-default fairness threshold).
    pub fn with_raw(raw: L, value: T) -> Self {
        LockMutex {
            raw,
            data: UnsafeCell::new(value),
        }
    }

    /// Consumes the mutex and returns the protected value.
    pub fn into_inner(self) -> T {
        self.data.into_inner()
    }
}

impl<T: ?Sized, L: RawLock> LockMutex<T, L>
where
    L::Node: 'static,
{
    /// Acquires the lock, spinning until it is available.
    pub fn lock(&self) -> LockGuard<'_, T, L> {
        let node = node_pool::acquire::<L::Node>();
        // SAFETY: `node` is boxed (stable address), is used for exactly this
        // acquisition, and is only returned to the pool after `unlock` runs
        // in the guard's destructor.
        unsafe { self.raw.lock(&node) };
        LockGuard {
            mutex: self,
            node: Some(node),
            _not_send: PhantomData,
        }
    }

    /// Attempts to acquire the lock without blocking.
    pub fn try_lock(&self) -> Option<LockGuard<'_, T, L>>
    where
        L: RawTryLock,
    {
        let node = node_pool::acquire::<L::Node>();
        // SAFETY: as in `lock`; on failure the node is returned to the pool
        // untouched, which the contract explicitly allows.
        if unsafe { self.raw.try_lock(&node) } {
            Some(LockGuard {
                mutex: self,
                node: Some(node),
                _not_send: PhantomData,
            })
        } else {
            node_pool::release(node);
            None
        }
    }

    /// Runs `f` with the lock held.
    pub fn with<R>(&self, f: impl FnOnce(&mut T) -> R) -> R {
        let mut guard = self.lock();
        f(&mut guard)
    }

    /// Returns a mutable reference to the protected value without locking.
    ///
    /// Safe because the exclusive borrow of the mutex proves no other thread
    /// can hold the lock.
    pub fn get_mut(&mut self) -> &mut T {
        self.data.get_mut()
    }

    /// The algorithm name of the underlying lock (e.g. `"CNA"`).
    pub fn algorithm(&self) -> &'static str {
        L::NAME
    }

    /// Access to the underlying raw lock (for statistics hooks).
    pub fn raw(&self) -> &L {
        &self.raw
    }
}

impl<T: Default, L: RawLock> Default for LockMutex<T, L> {
    fn default() -> Self {
        LockMutex::new(T::default())
    }
}

impl<T: ?Sized + fmt::Debug, L: RawLock> fmt::Debug for LockMutex<T, L> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Deliberately does not take the lock: Debug must be usable from a
        // thread that already holds it.
        f.debug_struct("LockMutex")
            .field("algorithm", &L::NAME)
            .finish_non_exhaustive()
    }
}

/// RAII guard returned by [`LockMutex::lock`]; releases the lock on drop.
///
/// The guard is `!Send`, like `std::sync::MutexGuard`: clause 3 of the
/// [`RawLock`] contract has the acquiring thread release, and the node goes
/// back to that thread's pool.
///
/// ```compile_fail,E0277
/// use sync_core::{spinlock::TestAndSetLock, LockMutex};
///
/// let m: LockMutex<u32, TestAndSetLock> = LockMutex::new(0);
/// std::thread::scope(|s| {
///     let guard = m.lock();
///     s.spawn(move || drop(guard)); // `*mut ()` cannot be sent between threads safely
/// });
/// ```
pub struct LockGuard<'a, T: ?Sized, L: RawLock>
where
    L::Node: 'static,
{
    mutex: &'a LockMutex<T, L>,
    /// Always `Some` until the destructor runs.
    node: Option<Box<L::Node>>,
    _not_send: PhantomData<*mut ()>,
}

// SAFETY: all a `&LockGuard` gives another thread is `&T` (`Deref`, `Debug`),
// hence `T: Sync`; the `mutex` and `node` fields are private and no `&self`
// method reaches them. The marker is there to remove `Send`, not `Sync`.
unsafe impl<T: ?Sized + Sync, L: RawLock> Sync for LockGuard<'_, T, L> where L::Node: 'static {}

impl<T: ?Sized, L: RawLock> Deref for LockGuard<'_, T, L>
where
    L::Node: 'static,
{
    type Target = T;
    fn deref(&self) -> &T {
        // SAFETY: the guard proves the lock is held, so no other reference to
        // the data exists.
        unsafe { &*self.mutex.data.get() }
    }
}

impl<T: ?Sized, L: RawLock> DerefMut for LockGuard<'_, T, L>
where
    L::Node: 'static,
{
    fn deref_mut(&mut self) -> &mut T {
        // SAFETY: as in `deref`, plus the guard itself is uniquely borrowed.
        unsafe { &mut *self.mutex.data.get() }
    }
}

impl<T: ?Sized, L: RawLock> Drop for LockGuard<'_, T, L>
where
    L::Node: 'static,
{
    fn drop(&mut self) {
        let node = self.node.take().expect("guard node taken twice");
        // SAFETY: `node` is the node used by the matching `lock`/`try_lock`,
        // the lock is held by this thread, and this is the only release.
        unsafe { self.mutex.raw.unlock(&node) };
        node_pool::release(node);
    }
}

impl<T: ?Sized + fmt::Debug, L: RawLock> fmt::Debug for LockGuard<'_, T, L>
where
    L::Node: 'static,
{
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spinlock::TestAndSetLock;
    use std::sync::Arc;

    type TasMutex<T> = LockMutex<T, TestAndSetLock>;

    #[test]
    fn basic_lock_unlock_roundtrip() {
        let m: TasMutex<i32> = LockMutex::new(1);
        {
            let mut g = m.lock();
            *g += 41;
        }
        assert_eq!(*m.lock(), 42);
        assert_eq!(m.into_inner(), 42);
    }

    #[test]
    fn try_lock_fails_while_held() {
        let m: TasMutex<i32> = LockMutex::new(0);
        let g = m.lock();
        assert!(m.try_lock().is_none());
        drop(g);
        assert!(m.try_lock().is_some());
    }

    #[test]
    fn with_and_get_mut() {
        let mut m: TasMutex<String> = LockMutex::default();
        m.with(|s| s.push_str("hello"));
        m.get_mut().push('!');
        assert_eq!(&*m.lock(), "hello!");
        assert_eq!(m.algorithm(), "TAS");
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        const THREADS: usize = 4;
        const ITERS: usize = 2_000;
        let m: Arc<TasMutex<u64>> = Arc::new(LockMutex::new(0));
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..ITERS {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), (THREADS * ITERS) as u64);
    }

    #[test]
    fn guard_is_sync_when_the_data_is() {
        // `!Send` is pinned by the `compile_fail` doctest on `LockGuard`.
        let m: TasMutex<i32> = LockMutex::new(5);
        let g = m.lock();
        std::thread::scope(|s| {
            s.spawn(|| assert_eq!(*g, 5));
        });
    }

    #[test]
    fn debug_impl_does_not_take_the_lock() {
        let m: TasMutex<i32> = LockMutex::new(5);
        let _g = m.lock();
        let s = format!("{m:?}");
        assert!(s.contains("TAS"));
    }
}
