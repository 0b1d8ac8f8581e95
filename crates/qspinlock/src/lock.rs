//! The four-byte queued spin lock.

use std::marker::PhantomData;
use std::sync::atomic::{AtomicU32, Ordering};

use sync_core::raw::{RawLock, RawTryLock};
use sync_core::spin::{cpu_relax, spin_until};

use crate::percpu;
use crate::policy::{wait_for_next, CnaPolicy, McsPolicy, SlowPathPolicy};
use crate::word::{LOCKED, LOCKED_MASK, PENDING, TAIL_MASK};

/// The Linux-style queued spin lock, generic over the slow-path hand-over
/// policy.
///
/// The lock is exactly four bytes; queue nodes live in the global per-CPU
/// table (the private `percpu` module), so it can be embedded in
/// space-conscious
/// structures (inodes, page frames) exactly like the kernel's `spinlock_t`.
#[derive(Debug)]
pub struct QSpinLock<P: SlowPathPolicy = McsPolicy> {
    val: AtomicU32,
    _policy: PhantomData<P>,
}

/// The unmodified kernel behaviour: MCS slow path ("stock").
pub type StockQSpinLock = QSpinLock<McsPolicy>;
/// The paper's kernel patch: CNA slow path.
pub type CnaQSpinLock = QSpinLock<CnaPolicy>;

impl<P: SlowPathPolicy> Default for QSpinLock<P> {
    fn default() -> Self {
        Self::new()
    }
}

impl<P: SlowPathPolicy> QSpinLock<P> {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        QSpinLock {
            val: AtomicU32::new(0),
            _policy: PhantomData,
        }
    }

    /// `true` when the locked byte is set (racy; diagnostics only).
    pub fn is_locked(&self) -> bool {
        self.val.load(Ordering::Relaxed) & LOCKED_MASK != 0
    }

    /// Raw value of the lock word (for tests and diagnostics).
    pub fn raw_value(&self) -> u32 {
        self.val.load(Ordering::Relaxed)
    }

    /// The kernel's `queued_spin_trylock`: a single CAS from 0 to LOCKED.
    fn fast_path(&self) -> bool {
        self.val
            .compare_exchange(0, LOCKED, Ordering::Acquire, Ordering::Relaxed)
            .is_ok()
    }

    /// The kernel's `queued_spin_lock_slowpath`.
    fn slow_path(&self) {
        let lock = &self.val;
        let mut val = lock.load(Ordering::Relaxed);

        // If we observe only the pending bit, the lock is in the middle of a
        // pending→locked transition; give it a bounded chance to finish.
        if val == PENDING {
            let mut spins = 0;
            while {
                val = lock.load(Ordering::Relaxed);
                val == PENDING && spins < 512
            } {
                cpu_relax();
                spins += 1;
            }
        }

        // Pending-bit path: only when there is no queue and nobody else is
        // pending.
        if val & !LOCKED_MASK == 0 {
            let old = lock.fetch_or(PENDING, Ordering::AcqRel);
            if old & !LOCKED_MASK == 0 {
                // We own the pending bit: wait for the holder to leave, then
                // convert pending into locked.
                if old & LOCKED_MASK != 0 {
                    spin_until(|| lock.load(Ordering::Acquire) & LOCKED_MASK == 0);
                }
                // clear_pending_set_locked().
                lock.fetch_add(LOCKED.wrapping_sub(PENDING), Ordering::AcqRel);
                return;
            }
            if old & PENDING == 0 {
                // We set the pending bit spuriously while a queue existed;
                // undo it before queueing.
                lock.fetch_and(!PENDING, Ordering::AcqRel);
            }
        }

        // Queueing path.
        let cpu = percpu::current_cpu();
        let (node, tail) = percpu::claim_node(cpu);

        // Publish ourselves as the new tail, preserving every other bit.
        let old = self.xchg_tail(tail);

        if old & TAIL_MASK != 0 {
            // There is a predecessor: record the socket (CNA) and link in.
            P::on_contended_enqueue(node);
            let prev = percpu::node_for_tail(old & TAIL_MASK);
            prev.next
                .store(node as *const _ as *mut _, Ordering::Release);
            // Wait until the previous queue head promotes us.
            spin_until(|| node.locked.load(Ordering::Acquire) != 0);
        }

        // We are the queue head: wait for the owner and any pending waiter to
        // go away, then claim the lock.
        spin_until(|| lock.load(Ordering::Acquire) & (LOCKED_MASK | PENDING) == 0);

        loop {
            let val = lock.load(Ordering::Relaxed);
            if val & TAIL_MASK == tail {
                // We appear to be the only queued waiter; the policy either
                // finishes the episode (clearing the tail or promoting a
                // parked waiter) or reports that the tail moved.
                // SAFETY: we are the queue head and have exclusive promotion
                // rights; `val`'s tail equals ours.
                if unsafe { P::try_clear_tail(lock, node, val) } {
                    percpu::release_node(cpu);
                    return;
                }
                // The tail moved (or a pending bit appeared); retry the
                // decision with a fresh value.
                continue;
            }
            // Somebody is queued behind us: claim the lock, then promote one
            // of the waiters according to the policy.
            lock.fetch_or(LOCKED, Ordering::AcqRel);
            // SAFETY: we are the queue head; `wait_for_next` returns the live
            // immediate successor.
            unsafe {
                let next = wait_for_next(node);
                P::pass_queue_head(lock, node, next);
            }
            percpu::release_node(cpu);
            return;
        }
    }
}

impl<P: SlowPathPolicy> RawLock for QSpinLock<P> {
    type Node = ();
    const NAME: &'static str = P::NAME;

    unsafe fn lock(&self, _node: &()) {
        if self.fast_path() {
            return;
        }
        self.slow_path();
    }

    unsafe fn unlock(&self, _node: &()) {
        // The kernel stores 0 to the locked byte; clearing the byte with an
        // AND is equivalent and keeps the word a single atomic.
        self.val.fetch_and(!LOCKED_MASK, Ordering::Release);
    }
}

impl<P: SlowPathPolicy> RawTryLock for QSpinLock<P> {
    unsafe fn try_lock(&self, _node: &()) -> bool {
        self.fast_path()
    }
}

impl<P: SlowPathPolicy> QSpinLock<P> {
    /// Atomically replaces the tail bits with `tail`, returning the previous
    /// word (the kernel's `xchg_tail`).
    fn xchg_tail(&self, tail: u32) -> u32 {
        let mut old = self.val.load(Ordering::Relaxed);
        loop {
            let new = (old & !TAIL_MASK) | tail;
            match self
                .val
                .compare_exchange_weak(old, new, Ordering::AcqRel, Ordering::Relaxed)
            {
                Ok(prev) => return prev,
                Err(cur) => old = cur,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::SocketOverrideGuard;
    use std::sync::Arc;

    #[test]
    fn lock_is_exactly_four_bytes() {
        assert_eq!(std::mem::size_of::<StockQSpinLock>(), 4);
        assert_eq!(std::mem::size_of::<CnaQSpinLock>(), 4);
    }

    #[test]
    fn uncontended_fast_path_sets_only_locked() {
        let lock = StockQSpinLock::new();
        // SAFETY: `()` node; trivial contract.
        unsafe {
            lock.lock(&());
            assert_eq!(lock.raw_value(), LOCKED);
            lock.unlock(&());
            assert_eq!(lock.raw_value(), 0);
        }
    }

    #[test]
    fn try_lock_semantics() {
        let lock = CnaQSpinLock::new();
        // SAFETY: `()` node; trivial contract.
        unsafe {
            assert!(lock.try_lock(&()));
            assert!(!lock.try_lock(&()));
            lock.unlock(&());
            assert!(lock.try_lock(&()));
            lock.unlock(&());
        }
    }

    #[test]
    fn single_thread_many_acquisitions_stock() {
        let lock = StockQSpinLock::new();
        for _ in 0..20_000 {
            // SAFETY: `()` node; trivial contract.
            unsafe {
                lock.lock(&());
                lock.unlock(&());
            }
        }
        assert_eq!(lock.raw_value(), 0);
    }

    #[test]
    fn single_thread_many_acquisitions_cna() {
        let lock = CnaQSpinLock::new();
        for _ in 0..20_000 {
            // SAFETY: `()` node; trivial contract.
            unsafe {
                lock.lock(&());
                lock.unlock(&());
            }
        }
        assert_eq!(lock.raw_value(), 0);
    }

    fn hammer<P: SlowPathPolicy>(threads: usize, iters: u64) {
        struct RacyCounter(std::cell::UnsafeCell<u64>);
        // SAFETY(test): only touched under the lock.
        unsafe impl Sync for RacyCounter {}
        let lock = Arc::new(QSpinLock::<P>::new());
        let counter = Arc::new(RacyCounter(std::cell::UnsafeCell::new(0)));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let _socket = SocketOverrideGuard::new(t % 2);
                    for _ in 0..iters {
                        // SAFETY: `()` node; counter only under the lock.
                        unsafe {
                            lock.lock(&());
                            *counter.0.get() += 1;
                            lock.unlock(&());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: writers joined.
        assert_eq!(unsafe { *counter.0.get() }, threads as u64 * iters);
        assert_eq!(lock.raw_value(), 0, "lock word returns to zero at rest");
    }

    #[test]
    fn mutual_exclusion_stock() {
        hammer::<McsPolicy>(4, 2_500);
    }

    #[test]
    fn mutual_exclusion_cna() {
        hammer::<CnaPolicy>(4, 2_500);
    }

    #[test]
    fn mutual_exclusion_cna_three_sockets() {
        struct RacyCounter(std::cell::UnsafeCell<u64>);
        // SAFETY(test): only touched under the lock.
        unsafe impl Sync for RacyCounter {}
        let lock = Arc::new(CnaQSpinLock::new());
        let counter = Arc::new(RacyCounter(std::cell::UnsafeCell::new(0)));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let _socket = SocketOverrideGuard::new(t % 3);
                    for _ in 0..1_000 {
                        // SAFETY: `()` node; counter only under the lock.
                        unsafe {
                            lock.lock(&());
                            *counter.0.get() += 1;
                            lock.unlock(&());
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: writers joined.
        assert_eq!(unsafe { *counter.0.get() }, 6_000);
    }

    /// The CNA slow path still reorders: with every coin keeping the lock
    /// local, same-socket waiters are promoted before remote ones. Waiters
    /// 1–5 queue in order on sockets 0, 1, 0, 1, 0 behind the holder and a
    /// pending-bit owner. Queue head 1 moves 2 to the secondary queue and
    /// promotes 3; 3 appends 4 and promotes 5; 5 finds the main queue empty
    /// and retargets the tail at the secondary queue, promoting 2; 2 hands to
    /// 4 on its own socket.
    #[test]
    fn numa_aware_handover_prefers_local_waiters() {
        const SEED: u64 = 1;
        let lock = Arc::new(CnaQSpinLock::new());
        let order = Arc::new(std::sync::Mutex::new(Vec::<usize>::new()));
        let await_word = |cond: &dyn Fn(u32) -> bool| {
            while !cond(lock.raw_value()) {
                std::thread::yield_now();
            }
        };
        let contender = |id: usize, socket: usize| {
            let lock = Arc::clone(&lock);
            let order = Arc::clone(&order);
            std::thread::spawn(move || {
                let _socket = SocketOverrideGuard::new(socket);
                cna::rng::reseed(SEED);
                assert!(
                    (0..8).all(|_| cna::rng::pseudo_rand() & cna::THRESHOLD != 0),
                    "seed {SEED} flushes the secondary queue"
                );
                cna::rng::reseed(SEED);
                // SAFETY: `()` node; matched pair.
                unsafe {
                    lock.lock(&());
                    order.lock().unwrap().push(id);
                    lock.unlock(&());
                }
            })
        };

        // SAFETY: `()` node; unlocked below.
        unsafe { lock.lock(&()) };
        // The first contender takes the pending bit and does not queue.
        let mut handles = vec![contender(0, 1)];
        await_word(&|v| v & PENDING != 0);
        for (id, socket) in [(1, 0), (2, 1), (3, 0), (4, 1), (5, 0)] {
            let before = lock.raw_value() & TAIL_MASK;
            handles.push(contender(id, socket));
            await_word(&|v| v & TAIL_MASK != before);
        }
        // SAFETY: matching unlock.
        unsafe { lock.unlock(&()) };
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*order.lock().unwrap(), vec![0, 1, 3, 5, 2, 4]);
        assert_eq!(lock.raw_value(), 0);
    }

    #[test]
    fn nested_distinct_locks_respect_nesting_limit() {
        // The kernel allows up to four nested spin locks; exercise three.
        let a = StockQSpinLock::new();
        let b = StockQSpinLock::new();
        let c = StockQSpinLock::new();
        // SAFETY: `()` nodes; trivial contract. Nesting uses distinct
        // per-CPU slots only on the slow path; the fast path needs none.
        unsafe {
            a.lock(&());
            b.lock(&());
            c.lock(&());
            c.unlock(&());
            b.unlock(&());
            a.unlock(&());
        }
    }

    #[test]
    fn works_through_lock_mutex() {
        use sync_core::LockMutex;
        let m: LockMutex<u64, CnaQSpinLock> = LockMutex::new(0);
        std::thread::scope(|s| {
            for _ in 0..3 {
                s.spawn(|| {
                    for _ in 0..1_000 {
                        *m.lock() += 1;
                    }
                });
            }
        });
        assert_eq!(*m.lock(), 3_000);
    }
}
