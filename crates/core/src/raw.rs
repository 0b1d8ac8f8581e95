//! The CNA lock algorithm (paper Figures 2–5).
//!
//! The lock's shared mutable state is a single word: the tail pointer of the
//! main queue. Everything else lives in the waiters' queue nodes:
//!
//! * `spin` — 0 while waiting; on hand-over the predecessor stores either `1`
//!   (lock granted, secondary queue empty) or a pointer to the head of the
//!   secondary queue (lock granted, secondary queue non-empty). Reusing the
//!   `spin` word to carry the secondary-queue head is what keeps the lock at
//!   one word (§4).
//! * `socket` — the waiter's NUMA node, recorded only on the contended path.
//! * `sec_tail` — meaningful only in the node at the *head* of the secondary
//!   queue: caches the secondary queue's tail so splicing is O(1).
//! * `next` — the main- or secondary-queue link, exactly as in MCS.
//!
//! # Fast path and slow path
//!
//! Like the kernel's `queued_spin_lock` in front of
//! `queued_spin_lock_slowpath`, each operation has a small inline fast path.
//! The uncontended acquisition is `next = null`, `socket = -1`, the tail
//! swap, `spin = 1`; the uncontended release loads `next` and `spin` and
//! closes the lock with one CAS. Everything else in the release — a failed
//! close, retargeting the tail at the secondary queue, waiting for a
//! successor's link and the whole hand-over (shuffle reduction,
//! `keep_lock_local`, `find_successor`, the splice) — is one out-of-line
//! function, `cna_unlock_slow`. So CNA's uncontended `lock`+`unlock` runs
//! MCS's two RMWs and, beyond MCS's work, one store (`socket = -1`) and one
//! load (`spin` at release): the paper's Fig. 3 l. 8 and Fig. 4 l. 18.
//!
//! # One hand-over for two lock words
//!
//! The paper's kernel patch changes only the qspinlock slow path's
//! hand-over, so the hand-over here is written once, over the
//! [`CnaQueueNode`] trait: [`hand_over`] (shuffle reduction,
//! `keep_lock_local`, `find_successor`, the local grant, the splice and the
//! plain grant) and [`retarget_secondary`], which takes the lock word's own
//! tail CAS. This lock runs them on [`CnaNode`]; the `qspinlock` crate runs
//! them on its per-CPU nodes.
//!
//! Who writes each field, and when:
//!
//! * `next` and `socket` — the owner resets both before the swap, which
//!   publishes them. After a contended swap the owner records its socket.
//!   A successor's `Release` link store sets `next`; a holder moving or
//!   splicing queues rewrites the `next` of waiters it owns by then.
//! * `spin` — the owner stores `1` after an uncontended swap, or `0` after a
//!   contended swap and before its `Release` link store, which publishes it.
//!   From the link on, only the predecessor writes it (the grant), until
//!   the owner, now holding the lock, stashes a secondary-queue head in it.
//! * `sec_tail` — the holder that builds or extends a secondary queue
//!   stores it in the queue's head node.

use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicPtr, Ordering};

use sync_core::atomics::{AtomicCell, Atomics, StdAtomics};
use sync_core::raw::RawLock;

use crate::rng::pseudo_rand;

/// `spin` value of a waiter that has not been granted the lock yet.
const SPIN_WAITING: usize = 0;
/// `spin` value meaning "lock granted, secondary queue empty".
const SPIN_GRANTED: usize = 1;
/// `socket` value meaning "not recorded yet".
const SOCKET_UNKNOWN: isize = -1;

/// Per-acquisition queue node of the CNA lock (the paper's `cna_node_t`).
///
/// A node may be reused for any number of acquisitions (of any CNA lock) as
/// long as the acquisitions do not overlap; [`CnaLock::lock`] re-initialises
/// every field it relies on.
#[derive(Debug)]
pub struct CnaNode<A: Atomics = StdAtomics> {
    /// Hand-over word; see the module documentation.
    spin: A::Usize,
    /// NUMA node of the waiting thread, or [`SOCKET_UNKNOWN`].
    socket: A::Isize,
    /// Tail of the secondary queue; valid only in the secondary queue's head.
    sec_tail: A::Ptr<CnaNode<A>>,
    /// Next node in the main or secondary queue.
    next: A::Ptr<CnaNode<A>>,
}

impl<A: Atomics> Default for CnaNode<A> {
    fn default() -> Self {
        CnaNode {
            spin: A::Usize::new(SPIN_WAITING),
            socket: A::Isize::new(SOCKET_UNKNOWN),
            sec_tail: A::Ptr::new(ptr::null_mut()),
            next: A::Ptr::new(ptr::null_mut()),
        }
    }
}

impl<A: Atomics> CnaNode<A> {
    /// Creates a fresh node, ready for an acquisition.
    pub fn new() -> Self {
        Self::default()
    }
}

/// A queue node the CNA hand-over can run on: the four fields of the
/// paper's `cna_node_t`, as cells of one [`Atomics`] family.
///
/// [`CnaNode`] implements it, and so does the kernel-style qspinlock's
/// per-CPU node, whose `locked` word is the `spin` word. The hand-over
/// ([`hand_over`], [`retarget_secondary`]) is written once over this trait,
/// so both lock words run the same code.
pub trait CnaQueueNode: Sized + 'static {
    /// The atomics family of the node's cells.
    type A: Atomics;
    /// The hand-over word: `0` waiting, `1` granted, else the head of the
    /// secondary queue.
    fn spin(&self) -> &<Self::A as Atomics>::Usize;
    /// The waiter's NUMA node, or `-1` when not recorded.
    fn socket(&self) -> &<Self::A as Atomics>::Isize;
    /// The secondary queue's tail; valid only in the secondary queue's head.
    fn sec_tail(&self) -> &<Self::A as Atomics>::Ptr<Self>;
    /// The main- or secondary-queue link.
    fn next(&self) -> &<Self::A as Atomics>::Ptr<Self>;
}

impl<A: Atomics> CnaQueueNode for CnaNode<A> {
    type A = A;

    #[inline(always)]
    fn spin(&self) -> &A::Usize {
        &self.spin
    }

    #[inline(always)]
    fn socket(&self) -> &A::Isize {
        &self.socket
    }

    #[inline(always)]
    fn sec_tail(&self) -> &A::Ptr<Self> {
        &self.sec_tail
    }

    #[inline(always)]
    fn next(&self) -> &A::Ptr<Self> {
        &self.next
    }
}

/// Compile-time parameters of a [`CnaLock`].
///
/// Using an (empty) parameter type keeps the lock itself at exactly one word
/// of memory — the paper's headline property — while still allowing the
/// shuffle-reduction variant and the test configurations to coexist. The
/// four types below are the configurations; a caller that needs another
/// threshold declares its own type (the simulator sweeps the threshold in
/// its own lock model).
pub trait CnaParams: Send + Sync + 'static {
    /// Display name used in benchmark tables.
    const NAME: &'static str = "CNA";
    /// Fairness mask of `keep_lock_local()` (paper `THRESHOLD`).
    const KEEP_LOCAL_MASK: u64 = crate::THRESHOLD;
    /// Enables the §6 shuffle-reduction optimisation.
    const SHUFFLE_REDUCTION: bool = false;
    /// Mask of the shuffle-reduction draw (paper `THRESHOLD2`).
    const SHUFFLE_MASK: u64 = crate::THRESHOLD2;
}

/// The paper's default parameters ("CNA" in the plots).
#[derive(Debug, Default, Clone, Copy)]
pub struct PaperParams;
impl CnaParams for PaperParams {}

/// The paper's "CNA (opt)" parameters: shuffle reduction enabled (§6).
#[derive(Debug, Default, Clone, Copy)]
pub struct ShuffleReductionParams;
impl CnaParams for ShuffleReductionParams {
    const NAME: &'static str = "CNA (opt)";
    const SHUFFLE_REDUCTION: bool = true;
}

/// Test/diagnostic parameters: every hand-over flushes the secondary queue,
/// degrading CNA to FIFO order (behaviourally close to MCS).
#[derive(Debug, Default, Clone, Copy)]
pub struct AlwaysFlushParams;
impl CnaParams for AlwaysFlushParams {
    const NAME: &'static str = "CNA (always-flush)";
    const KEEP_LOCAL_MASK: u64 = 0;
}

/// Test/diagnostic parameters: the secondary queue is never flushed by the
/// fairness policy (maximum locality, deterministic hand-over for tests).
#[derive(Debug, Default, Clone, Copy)]
pub struct NeverFlushParams;
impl CnaParams for NeverFlushParams {
    const NAME: &'static str = "CNA (never-flush)";
    const KEEP_LOCAL_MASK: u64 = u64::MAX;
}

/// The compact NUMA-aware lock with compile-time parameters `P`.
///
/// `size_of::<CnaLock>()` is one pointer — the paper's central claim — no
/// matter how many sockets the machine has.
#[derive(Debug)]
pub struct CnaLock<P: CnaParams = PaperParams, A: Atomics = StdAtomics> {
    tail: A::Ptr<CnaNode<A>>,
    _params: PhantomData<P>,
}

/// The "CNA (opt)" lock: CNA with the shuffle-reduction optimisation.
pub type CnaLockOpt = CnaLock<ShuffleReductionParams>;

impl<P: CnaParams, A: Atomics> Default for CnaLock<P, A> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<P: CnaParams> CnaLock<P> {
    /// Creates an unlocked lock.
    pub const fn new() -> Self {
        CnaLock {
            tail: AtomicPtr::new(ptr::null_mut()),
            _params: PhantomData,
        }
    }
}

impl<P: CnaParams, A: Atomics> CnaLock<P, A> {
    /// Creates an unlocked lock for any atomics family.
    pub fn new_in() -> Self {
        CnaLock {
            tail: A::Ptr::new(ptr::null_mut()),
            _params: PhantomData,
        }
    }

    /// Returns `true` when some thread holds or is queueing for the lock.
    ///
    /// Like the kernel's `queued_spin_is_locked`, this is inherently racy and
    /// only useful as a heuristic or in quiescent states (e.g. asserts).
    pub fn is_contended_or_held(&self) -> bool {
        !self.tail.load(Ordering::Relaxed).is_null()
    }
}

impl<P: CnaParams, A: Atomics> RawLock for CnaLock<P, A> {
    type Node = CnaNode<A>;
    const NAME: &'static str = P::NAME;

    #[inline]
    unsafe fn lock(&self, node: &CnaNode<A>) {
        // SAFETY: forwarded contract — the caller pins `node` for the whole
        // acquisition.
        unsafe { cna_lock::<A>(&self.tail, node) }
    }

    #[inline]
    unsafe fn unlock(&self, node: &CnaNode<A>) {
        // SAFETY: forwarded contract — `node` is the acquisition's node and
        // the caller holds the lock.
        unsafe { cna_unlock::<P, A>(&self.tail, node) }
    }
}

/// The paper's `keep_lock_local()`: non-zero (true) keeps the lock on the
/// current socket, zero (false) flushes the secondary queue.
#[inline]
fn keep_lock_local(keep_local_mask: u64) -> bool {
    pseudo_rand() & keep_local_mask != 0
}

/// Acquisition (paper Fig. 3). One atomic instruction: the tail swap.
///
/// # Safety
///
/// `node` must stay pinned, unused by any other acquisition, until the
/// matching [`cna_unlock`] returns.
#[inline]
unsafe fn cna_lock<A: Atomics>(tail: &A::Ptr<CnaNode<A>>, me: &CnaNode<A>) {
    me.next.store(ptr::null_mut(), Ordering::Relaxed);
    me.socket.store(SOCKET_UNKNOWN, Ordering::Relaxed);

    let me_ptr = me as *const CnaNode<A> as *mut CnaNode<A>;
    debug_assert!(
        me_ptr as usize > SPIN_GRANTED,
        "node addresses must be distinguishable from the GRANTED sentinel"
    );

    // Add myself to the main queue. AcqRel: Release publishes the node
    // initialisation above; Acquire synchronises with the releasing CAS of a
    // previous holder that reset the tail to null (uncontended hand-over).
    let prev = tail.swap(me_ptr, Ordering::AcqRel);
    if prev.is_null() {
        // Uncontended: we own the lock. Store 1 so that, if we later hand
        // over locally, the successor receives a non-zero value (Fig. 3 l. 8).
        me.spin.store(SPIN_GRANTED, Ordering::Relaxed);
        return;
    }

    // Contended path only: record our socket (Fig. 3 l. 10) and arm the
    // spin word. Until the link store below nobody can reach the node; after
    // it only the predecessor writes `spin`, and the link's `Release` orders
    // both stores before anything the predecessor does to the node.
    me.socket
        .store(numa_topology::current_socket() as isize, Ordering::Relaxed);
    me.spin.store(SPIN_WAITING, Ordering::Relaxed);

    // SAFETY: `prev` was the queue tail; its owner cannot complete unlock
    // (and therefore cannot reuse or free the node) before observing our
    // link, because its tail CAS must fail while we are enqueued behind it.
    unsafe {
        (*prev).next.store(me_ptr, Ordering::Release);
    }

    // Local spinning on our own node (Fig. 3 l. 13). Relaxed polling plus an
    // Acquire fence after the loop: the fence pairs with the predecessor's
    // Release hand-over store once observed, making both the lock and the
    // critical-section data it protects visible. This is the waiter-spin
    // downgrade the weak-memory CNA verification paper proves safe (audited
    // by `modelcheck`).
    A::spin_until(|| me.spin.load(Ordering::Relaxed) != SPIN_WAITING);
    A::fence(Ordering::Acquire);
}

/// Release, fast path (paper Fig. 4 l. 18–23): with no successor in either
/// queue, one CAS closes the lock. Inlined at every call site; anything else
/// goes to [`cna_unlock_slow`].
///
/// # Safety
///
/// `me` must be the node used for the acquisition being released and the
/// caller must hold the lock.
#[inline]
unsafe fn cna_unlock<P: CnaParams, A: Atomics>(tail: &A::Ptr<CnaNode<A>>, me: &CnaNode<A>) {
    let me_ptr = me as *const CnaNode<A> as *mut CnaNode<A>;
    let next = me.next.load(Ordering::Acquire);

    // No known successor in the main queue (l. 18) and the secondary queue
    // empty too: try to close the lock (l. 23).
    if next.is_null()
        && me.spin.load(Ordering::Relaxed) == SPIN_GRANTED
        && tail
            .compare_exchange(me_ptr, ptr::null_mut(), Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    {
        return;
    }
    // SAFETY: forwarded contract; `next` is the value of `me.next` loaded
    // above.
    unsafe { cna_unlock_slow::<P, A>(tail, me, next) }
}

/// Release, slow path (paper Fig. 4 l. 24–49): everything the fast path
/// does not finish. It resumes where the fast path stopped — after a failed
/// close it waits for the link, with a secondary queue it first tries to
/// retarget the tail — and then runs the [`hand_over`]. Out of line so that
/// the fast path stays small enough to inline; not `#[cold]`, because under
/// contention it runs on every release.
///
/// # Safety
///
/// As for [`cna_unlock`]; `next` must be the value the fast path loaded
/// from `me.next`.
#[inline(never)]
unsafe fn cna_unlock_slow<P: CnaParams, A: Atomics>(
    tail: &A::Ptr<CnaNode<A>>,
    me: &CnaNode<A>,
    mut next: *mut CnaNode<A>,
) {
    if next.is_null() {
        // With `spin == GRANTED` the fast path's close CAS failed; only a
        // non-empty secondary queue is left to try here.
        let me_ptr = me as *const CnaNode<A> as *mut CnaNode<A>;
        // SAFETY: we hold the lock; our spin word is GRANTED or carries the
        // secondary queue's head.
        let retargeted = unsafe {
            retarget_secondary(me, |sec_tail| {
                tail.compare_exchange(me_ptr, sec_tail, Ordering::AcqRel, Ordering::Relaxed)
                    .is_ok()
            })
        };
        if retargeted {
            return;
        }
        // The tail moved: some thread is enqueueing behind us. Wait for it to
        // complete the link (l. 36). Relaxed polling is enough here: the
        // Acquire re-load below is what the enqueuer's Release link store
        // synchronises with (audited by `modelcheck`).
        A::spin_until(|| !me.next.load(Ordering::Relaxed).is_null());
        next = me.next.load(Ordering::Acquire);
    }
    // SAFETY: we hold the lock and `next` is the live, acquired successor.
    unsafe { hand_over::<P, _>(me, next) }
}

/// Retargets the lock's tail at the secondary queue (paper Fig. 4
/// l. 27–32): with no successor linked in the main queue but a non-empty
/// secondary queue, the secondary queue becomes the main queue and its head
/// is granted the lock.
///
/// `cas(sec_tail)` is the lock word's own tail CAS: it must replace the
/// holder's tail with `sec_tail` and report success. CNA swings its tail
/// pointer; the qspinlock stores `LOCKED | sec_tail's encoded tail`.
/// Returns `false`, having written nothing, when the secondary queue is
/// empty or the CAS failed (a waiter is enqueueing behind the holder).
///
/// # Safety
///
/// The caller must hold the lock and own `me`, whose spin word must be
/// `1` (granted, secondary queue empty) or the secondary queue's head.
#[inline]
pub unsafe fn retarget_secondary<N: CnaQueueNode>(
    me: &N,
    cas: impl FnOnce(*mut N) -> bool,
) -> bool {
    let spin_val = me.spin().load(Ordering::Relaxed);
    if spin_val == SPIN_GRANTED {
        return false;
    }
    let sec_head = spin_val as *mut N;
    // SAFETY: the secondary head is a waiter parked by a previous hand-over;
    // it cannot proceed (its spin is 0) until we or a later holder grant it
    // the lock, so the node is alive.
    let sec_tail = unsafe { (*sec_head).sec_tail().load(Ordering::Relaxed) };
    if !cas(sec_tail) {
        return false;
    }
    // SAFETY: as above; granting the lock to the secondary head.
    unsafe {
        (*sec_head).spin().store(SPIN_GRANTED, Ordering::Release);
    }
    true
}

/// The hand-over (paper Fig. 4 l. 38–49, with the §6 shuffle reduction when
/// `P` enables it): picks the next holder among the waiters and grants it
/// the lock.
///
/// # Safety
///
/// The caller must hold the lock and own `me`, whose spin word must be `1`
/// or the secondary queue's head; `next` must be the (non-null, acquired)
/// value of `me.next`.
#[inline]
pub unsafe fn hand_over<P: CnaParams, N: CnaQueueNode>(me: &N, next: *mut N) {
    // Shuffle reduction (§6): with the secondary queue empty, hand straight
    // to the immediate successor with high probability, skipping the
    // successor search and any queue restructuring.
    if P::SHUFFLE_REDUCTION
        && me.spin().load(Ordering::Relaxed) == SPIN_GRANTED
        && pseudo_rand() & P::SHUFFLE_MASK != 0
    {
        // SAFETY: `next` is a live waiter (it spins until granted).
        unsafe {
            (*next).spin().store(SPIN_GRANTED, Ordering::Release);
        }
        return;
    }

    // Determine the next lock holder (Fig. 4 l. 40–49).
    let mut succ: *mut N = ptr::null_mut();
    if keep_lock_local(P::KEEP_LOCAL_MASK) {
        // SAFETY: we hold the lock, `next` is the live head of the waiters.
        succ = unsafe { find_successor(me, next) };
    }

    if !succ.is_null() {
        // Same-socket successor found: pass the lock together with the
        // current secondary-queue head (or 1 when it is empty). `me.spin` was
        // possibly updated by `find_successor`.
        let handoff = me.spin().load(Ordering::Relaxed);
        debug_assert_ne!(handoff, SPIN_WAITING);
        // SAFETY: `succ` is a live waiter on our socket.
        unsafe {
            (*succ).spin().store(handoff, Ordering::Release);
        }
        return;
    }

    let spin_val = me.spin().load(Ordering::Relaxed);
    if spin_val > SPIN_GRANTED {
        // No local successor but the secondary queue is non-empty: splice the
        // secondary queue in front of our main-queue successor and grant the
        // lock to its head (l. 44–46).
        let sec_head = spin_val as *mut N;
        // SAFETY: secondary-queue nodes are live waiters; `next` likewise.
        unsafe {
            let sec_tail = (*sec_head).sec_tail().load(Ordering::Relaxed);
            (*sec_tail).next().store(next, Ordering::Release);
            (*sec_head).spin().store(SPIN_GRANTED, Ordering::Release);
        }
    } else {
        // Plain MCS hand-over to the immediate successor (l. 48).
        // SAFETY: `next` is a live waiter.
        unsafe {
            (*next).spin().store(SPIN_GRANTED, Ordering::Release);
        }
    }
}

/// The paper's `find_successor` (Fig. 5): scans the main queue for a waiter
/// on the holder's socket, moving the skipped prefix to the secondary queue.
///
/// Returns the successor, or null when no same-socket waiter is currently
/// linked into the main queue (in which case nothing was modified).
///
/// # Safety
///
/// The caller must hold the lock; `next` must be the (non-null, acquired)
/// value of `me.next`.
unsafe fn find_successor<N: CnaQueueNode>(me: &N, next: *mut N) -> *mut N {
    let my_socket = {
        let s = me.socket().load(Ordering::Relaxed);
        if s == SOCKET_UNKNOWN {
            numa_topology::current_socket() as isize
        } else {
            s
        }
    };

    // SAFETY (applies to every dereference below): any node reachable from
    // the main or secondary queue while we hold the lock belongs to a thread
    // that is still waiting for the lock (its `spin` is 0) — it cannot
    // return, reuse or free its node until a holder grants it the lock, and
    // only the current holder (us) can do that.
    unsafe {
        if (*next).socket().load(Ordering::Relaxed) == my_socket {
            return next;
        }

        // `next` starts a run of remote waiters to be moved to the secondary
        // queue if we find a local successor further down.
        let moved_head = next;
        let mut moved_tail = next;
        let mut cur = (*next).next().load(Ordering::Acquire);

        while !cur.is_null() {
            if (*cur).socket().load(Ordering::Relaxed) == my_socket {
                let spin_val = me.spin().load(Ordering::Relaxed);
                if spin_val > SPIN_GRANTED {
                    // Append the skipped run to the existing secondary queue.
                    let sec_head = spin_val as *mut N;
                    let sec_tail = (*sec_head).sec_tail().load(Ordering::Relaxed);
                    (*sec_tail).next().store(moved_head, Ordering::Release);
                } else {
                    // Secondary queue was empty: the run becomes the queue and
                    // our spin word now carries its head.
                    me.spin().store(moved_head as usize, Ordering::Relaxed);
                }
                // Terminate the secondary queue and cache its tail in the
                // head node (l. 67–68).
                (*moved_tail)
                    .next()
                    .store(ptr::null_mut(), Ordering::Release);
                let sec_head = me.spin().load(Ordering::Relaxed) as *mut N;
                (*sec_head).sec_tail().store(moved_tail, Ordering::Release);
                return cur;
            }
            moved_tail = cur;
            cur = (*cur).next().load(Ordering::Acquire);
        }
    }
    ptr::null_mut()
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_topology::SocketOverrideGuard;
    use std::sync::atomic::{AtomicUsize as StdAtomicUsize, Ordering as StdOrdering};
    use std::sync::{Arc, Mutex};

    #[test]
    fn lock_state_is_exactly_one_word() {
        assert_eq!(
            std::mem::size_of::<CnaLock>(),
            std::mem::size_of::<*mut ()>(),
            "the CNA lock must be one word regardless of socket count"
        );
        assert_eq!(
            std::mem::size_of::<CnaLock<ShuffleReductionParams>>(),
            std::mem::size_of::<*mut ()>()
        );
    }

    #[test]
    fn node_is_four_words() {
        // spin + socket + secTail + next, as in the paper's cna_node_t.
        assert_eq!(
            std::mem::size_of::<CnaNode>(),
            4 * std::mem::size_of::<usize>()
        );
    }

    #[test]
    fn single_thread_lock_unlock_repeated() {
        let lock = CnaLock::<PaperParams>::new();
        let node = CnaNode::new();
        for _ in 0..10_000 {
            // SAFETY: node pinned on this frame; matched lock/unlock.
            unsafe {
                lock.lock(&node);
                assert!(lock.is_contended_or_held());
                lock.unlock(&node);
            }
        }
        assert!(!lock.is_contended_or_held());
    }

    #[test]
    fn node_can_be_reused_across_locks() {
        let a = CnaLock::<PaperParams>::new();
        let b = CnaLock::<PaperParams>::new();
        let node = CnaNode::new();
        // SAFETY: acquisitions do not overlap.
        unsafe {
            a.lock(&node);
            a.unlock(&node);
            b.lock(&node);
            b.unlock(&node);
            a.lock(&node);
            a.unlock(&node);
        }
    }

    fn hammer<P: CnaParams>(threads: usize, iters: u64) {
        struct RacyCounter(std::cell::UnsafeCell<u64>);
        // SAFETY(test): only accessed under the lock.
        unsafe impl Sync for RacyCounter {}
        let lock = Arc::new(CnaLock::<P>::new());
        let counter = Arc::new(RacyCounter(std::cell::UnsafeCell::new(0)));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let _socket = SocketOverrideGuard::new(t % 2);
                    let node = CnaNode::new();
                    for _ in 0..iters {
                        // SAFETY: node pinned; matched pair; counter only
                        // touched under the lock.
                        unsafe {
                            lock.lock(&node);
                            *counter.0.get() += 1;
                            lock.unlock(&node);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all writers joined.
        assert_eq!(unsafe { *counter.0.get() }, threads as u64 * iters);
        assert!(!lock.is_contended_or_held());
    }

    #[test]
    fn mutual_exclusion_default_params() {
        hammer::<PaperParams>(4, 3_000);
    }

    #[test]
    fn mutual_exclusion_shuffle_reduction() {
        hammer::<ShuffleReductionParams>(4, 3_000);
    }

    #[test]
    fn mutual_exclusion_always_flush() {
        hammer::<AlwaysFlushParams>(3, 3_000);
    }

    #[test]
    fn mutual_exclusion_never_flush() {
        hammer::<NeverFlushParams>(4, 3_000);
    }

    /// A fairness mask other than the four shipped ones: the secondary
    /// queue is flushed on about one hand-over in sixteen.
    struct FrequentFlushParams;
    impl CnaParams for FrequentFlushParams {
        const KEEP_LOCAL_MASK: u64 = 0xf;
    }

    #[test]
    fn mutual_exclusion_frequent_flush() {
        hammer::<FrequentFlushParams>(4, 2_000);
    }

    /// Reproduces the hand-over order of the running example in Fig. 1:
    /// with the fairness flush disabled, same-socket waiters are served
    /// before remote ones, and remote waiters are served in arrival order
    /// once the local ones are exhausted.
    #[test]
    fn numa_aware_handover_prefers_local_waiters() {
        let lock = Arc::new(CnaLock::<NeverFlushParams>::new());
        let order = Arc::new(Mutex::new(Vec::<usize>::new()));
        let enqueued = Arc::new(StdAtomicUsize::new(0));

        // The main thread (socket 0) takes the lock first.
        let _main_socket = SocketOverrideGuard::new(0);
        let main_node = CnaNode::new();
        // SAFETY: node pinned for the scope of this test; matched unlock below.
        unsafe { lock.lock(&main_node) };

        // Waiters enqueue one at a time: ids 1..=4 with sockets 1,0,1,0.
        let sockets = [1usize, 0, 1, 0];
        let mut handles = Vec::new();
        for (i, &socket) in sockets.iter().enumerate() {
            let id = i + 1;
            let thread_lock = Arc::clone(&lock);
            let order = Arc::clone(&order);
            let enqueued = Arc::clone(&enqueued);
            let before = lock.tail.load(Ordering::Relaxed);
            handles.push(std::thread::spawn(move || {
                let _socket = SocketOverrideGuard::new(socket);
                let node = CnaNode::new();
                enqueued.fetch_add(1, StdOrdering::Relaxed);
                // SAFETY: node pinned; matched pair.
                unsafe {
                    thread_lock.lock(&node);
                    order.lock().unwrap().push(id);
                    thread_lock.unlock(&node);
                }
            }));
            // Wait until this waiter has actually swapped itself into the
            // tail before starting the next one, fixing the queue order.
            while lock.tail.load(Ordering::Relaxed) == before {
                std::thread::yield_now();
            }
        }
        assert_eq!(enqueued.load(StdOrdering::Relaxed), 4);

        // Release: with never-flush parameters the socket-0 waiters (2, 4)
        // must run before the socket-1 waiters (1, 3).
        // SAFETY: matching unlock for the acquisition above.
        unsafe { lock.unlock(&main_node) };
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap().clone();
        assert_eq!(order, vec![2, 4, 1, 3]);
        assert!(!lock.is_contended_or_held());
    }

    /// With `AlwaysFlushParams` (keep_lock_local always false) the queue is
    /// served in strict FIFO order like MCS, regardless of sockets.
    #[test]
    fn always_flush_preserves_fifo_order() {
        let lock = Arc::new(CnaLock::<AlwaysFlushParams>::new());
        let order = Arc::new(Mutex::new(Vec::<usize>::new()));

        let _main_socket = SocketOverrideGuard::new(0);
        let main_node = CnaNode::new();
        // SAFETY: pinned node, matched unlock below.
        unsafe { lock.lock(&main_node) };

        let sockets = [1usize, 0, 1, 0];
        let mut handles = Vec::new();
        for (i, &socket) in sockets.iter().enumerate() {
            let id = i + 1;
            let thread_lock = Arc::clone(&lock);
            let order = Arc::clone(&order);
            let before = lock.tail.load(Ordering::Relaxed);
            handles.push(std::thread::spawn(move || {
                let _socket = SocketOverrideGuard::new(socket);
                let node = CnaNode::new();
                // SAFETY: pinned node; matched pair.
                unsafe {
                    thread_lock.lock(&node);
                    order.lock().unwrap().push(id);
                    thread_lock.unlock(&node);
                }
            }));
            while lock.tail.load(Ordering::Relaxed) == before {
                std::thread::yield_now();
            }
        }

        // SAFETY: matching unlock.
        unsafe { lock.unlock(&main_node) };
        for h in handles {
            h.join().unwrap();
        }
        let order = order.lock().unwrap().clone();
        assert_eq!(order, vec![1, 2, 3, 4]);
    }

    #[test]
    fn handover_under_socket_diversity_makes_progress() {
        // 6 threads on 3 different sockets; every thread must finish
        // (no lost wake-ups, no starvation hang) even with never-flush.
        struct RacyCounter(std::cell::UnsafeCell<u64>);
        // SAFETY(test): only accessed under the lock.
        unsafe impl Sync for RacyCounter {}
        let lock = Arc::new(CnaLock::<NeverFlushParams>::new());
        let counter = Arc::new(RacyCounter(std::cell::UnsafeCell::new(0)));
        let handles: Vec<_> = (0..6)
            .map(|t| {
                let lock = Arc::clone(&lock);
                let counter = Arc::clone(&counter);
                std::thread::spawn(move || {
                    let _socket = SocketOverrideGuard::new(t % 3);
                    let node = CnaNode::new();
                    for _ in 0..1_000 {
                        // SAFETY: as in `hammer`.
                        unsafe {
                            lock.lock(&node);
                            *counter.0.get() += 1;
                            lock.unlock(&node);
                        }
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // SAFETY: all writers joined.
        assert_eq!(unsafe { *counter.0.get() }, 6_000);
    }
}
