//! The per-CPU queue-node table.
//!
//! The kernel statically allocates four `mcs_spinlock` nodes per CPU (one per
//! allowed nesting context: task, softirq, hardirq, NMI) so that the
//! spin-lock word itself never has to hold a pointer — only a 16-bit encoded
//! tail. We emulate a CPU with a registered thread (dense indices from
//! `numa_topology`) and keep the same table structure in a lazily initialised
//! global.

use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicIsize, AtomicPtr, AtomicU32, AtomicUsize, Ordering};
use std::sync::OnceLock;

use cna::raw::CnaQueueNode;
use sync_core::atomics::StdAtomics;
use sync_core::padded::CachePadded;

use crate::{MAX_CPUS, MAX_NESTING};

/// A queue node of the qspinlock slow path.
///
/// The same node layout serves both the stock MCS policy and the CNA policy;
/// the CNA-only fields (`socket`, `sec_tail`) are simply unused by MCS —
/// mirroring the kernel patch, which grows the per-CPU node (not the lock)
/// for CNA.
#[derive(Debug)]
pub struct QsNode {
    /// 0 while waiting to become queue head; 1 once queue-head status has
    /// been granted; for the CNA policy, a value > 1 is a pointer to the head
    /// of the secondary queue (the same encoding trick as the user-space CNA
    /// lock).
    pub(crate) locked: AtomicUsize,
    /// Socket of the waiting thread (CNA policy only).
    pub(crate) socket: AtomicIsize,
    /// Tail of the secondary queue; valid only in the secondary queue's head.
    pub(crate) sec_tail: AtomicPtr<QsNode>,
    /// Next node in the main or secondary queue.
    pub(crate) next: AtomicPtr<QsNode>,
    /// This node's own encoded tail value, so hand-over code can re-point the
    /// lock word's tail at it without knowing which CPU it belongs to.
    pub(crate) encoded_tail: AtomicU32,
}

impl Default for QsNode {
    fn default() -> Self {
        QsNode {
            locked: AtomicUsize::new(0),
            socket: AtomicIsize::new(-1),
            sec_tail: AtomicPtr::new(ptr::null_mut()),
            next: AtomicPtr::new(ptr::null_mut()),
            encoded_tail: AtomicU32::new(0),
        }
    }
}

impl QsNode {
    /// Re-initialises the node for a fresh slow-path episode.
    pub(crate) fn reset(&self, encoded_tail: u32) {
        self.locked.store(0, Ordering::Relaxed);
        self.socket.store(-1, Ordering::Relaxed);
        self.sec_tail.store(ptr::null_mut(), Ordering::Relaxed);
        self.next.store(ptr::null_mut(), Ordering::Relaxed);
        self.encoded_tail.store(encoded_tail, Ordering::Relaxed);
    }
}

/// The CNA hand-over (`cna::raw::hand_over`) runs on these nodes with the
/// `locked` word as its spin word.
impl CnaQueueNode for QsNode {
    type A = StdAtomics;

    #[inline(always)]
    fn spin(&self) -> &AtomicUsize {
        &self.locked
    }

    #[inline(always)]
    fn socket(&self) -> &AtomicIsize {
        &self.socket
    }

    #[inline(always)]
    fn sec_tail(&self) -> &AtomicPtr<QsNode> {
        &self.sec_tail
    }

    #[inline(always)]
    fn next(&self) -> &AtomicPtr<QsNode> {
        &self.next
    }
}

/// Per-CPU slot: the nesting-indexed nodes plus the nesting counter.
#[derive(Debug, Default)]
pub struct PerCpu {
    nodes: [QsNode; MAX_NESTING],
    /// Current nesting depth of slow-path episodes on this CPU. Only the
    /// owning thread modifies it; stored as an atomic because the table is
    /// shared.
    count: AtomicUsize,
    /// Set while the id is lent to a thread whose own slot is already gone;
    /// the episode's last [`release_node`] returns it to the free list.
    on_loan: AtomicBool,
}

fn table() -> &'static [CachePadded<PerCpu>] {
    static TABLE: OnceLock<Box<[CachePadded<PerCpu>]>> = OnceLock::new();
    TABLE.get_or_init(|| {
        (0..MAX_CPUS)
            .map(|_| CachePadded::new(PerCpu::default()))
            .collect()
    })
}

/// Free list of emulated CPU ids, so that short-lived threads (benchmark
/// workers) can reuse slots instead of exhausting the table.
fn cpu_free_list() -> &'static std::sync::Mutex<Vec<usize>> {
    static FREE: OnceLock<std::sync::Mutex<Vec<usize>>> = OnceLock::new();
    FREE.get_or_init(|| std::sync::Mutex::new(Vec::new()))
}

static NEXT_CPU: AtomicUsize = AtomicUsize::new(0);

struct CpuSlot(usize);

impl Drop for CpuSlot {
    fn drop(&mut self) {
        // A thread can only exit with no slow-path episode in flight, so its
        // per-CPU nodes are quiescent and the slot can be handed to a new
        // thread.
        cpu_free_list().lock().expect("cpu free list").push(self.0);
    }
}

thread_local! {
    static CPU_SLOT: CpuSlot = CpuSlot(allocate_cpu());
}

fn allocate_cpu() -> usize {
    if let Some(id) = cpu_free_list().lock().expect("cpu free list").pop() {
        return id;
    }
    let id = NEXT_CPU.fetch_add(1, Ordering::Relaxed);
    assert!(
        id < MAX_CPUS,
        "qspinlock supports at most {MAX_CPUS} concurrent threads"
    );
    id
}

/// The emulated CPU id of the calling thread, for one slow-path episode.
///
/// Ids are allocated on first use and recycled when the thread exits, so any
/// number of short-lived threads is supported as long as no more than
/// [`MAX_CPUS`] are alive at once. A thread whose own slot is already torn
/// down (a lock taken in a late thread-local destructor) borrows a free id
/// for the episode; its last [`release_node`] gives the id back.
///
/// # Panics
///
/// Panics if more than [`MAX_CPUS`] threads use qspinlocks concurrently — the
/// per-CPU table cannot be shared between live threads without breaking the
/// queue protocol, exactly as the kernel cannot exceed `NR_CPUS`.
pub fn current_cpu() -> usize {
    CPU_SLOT.try_with(|slot| slot.0).unwrap_or_else(|_| {
        let id = allocate_cpu();
        table()[id].on_loan.store(true, Ordering::Relaxed);
        id
    })
}

/// Claims the next nesting slot of the calling CPU and returns
/// `(node, encoded_tail)` for this slow-path episode.
///
/// # Panics
///
/// Panics when the nesting limit is exceeded (the kernel BUGs likewise),
/// leaving the nesting count as it was, so the CPU's later episodes work.
pub(crate) fn claim_node(cpu: usize) -> (&'static QsNode, u32) {
    let per_cpu = &table()[cpu];
    // Check, then claim: only the owning thread writes `count`.
    let idx = per_cpu.count.load(Ordering::Relaxed);
    assert!(
        idx < MAX_NESTING,
        "spin-lock nesting deeper than {MAX_NESTING} on cpu {cpu}"
    );
    per_cpu.count.store(idx + 1, Ordering::Relaxed);
    let tail = crate::word::encode_tail(cpu, idx);
    let node = &per_cpu.nodes[idx];
    node.reset(tail);
    (node, tail)
}

/// Releases the most recently claimed nesting slot of the calling CPU, and
/// a borrowed CPU id with the episode's last slot.
pub(crate) fn release_node(cpu: usize) {
    let per_cpu = &table()[cpu];
    let prev = per_cpu.count.fetch_sub(1, Ordering::Relaxed);
    debug_assert!(prev >= 1, "release without a claimed node on cpu {cpu}");
    if prev == 1 && per_cpu.on_loan.load(Ordering::Relaxed) {
        per_cpu.on_loan.store(false, Ordering::Relaxed);
        cpu_free_list().lock().expect("cpu free list").push(cpu);
    }
}

/// Resolves an encoded tail to its node.
pub(crate) fn node_for_tail(tail: u32) -> &'static QsNode {
    let cpu = crate::word::decode_tail_cpu(tail).expect("non-empty tail");
    let idx = crate::word::decode_tail_idx(tail);
    &table()[cpu].nodes[idx]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn claim_release_cycle() {
        let cpu = current_cpu();
        let (n1, t1) = claim_node(cpu);
        let (n2, t2) = claim_node(cpu);
        assert_ne!(t1, t2, "nested claims use distinct nodes");
        assert!(!std::ptr::eq(n1, n2));
        assert!(std::ptr::eq(node_for_tail(t1), n1));
        assert!(std::ptr::eq(node_for_tail(t2), n2));
        release_node(cpu);
        release_node(cpu);
        // After release the same slots are handed out again.
        let (n3, t3) = claim_node(cpu);
        assert_eq!(t3, t1);
        assert!(std::ptr::eq(n3, n1));
        release_node(cpu);
    }

    #[test]
    fn nesting_past_the_limit_panics_and_leaves_the_count_alone() {
        let cpu = current_cpu();
        let count = || table()[cpu].count.load(Ordering::Relaxed);
        for _ in 0..MAX_NESTING {
            claim_node(cpu);
        }
        let overflow = std::panic::catch_unwind(|| claim_node(cpu));
        assert!(overflow.is_err(), "a fifth nested claim must panic");
        assert_eq!(count(), MAX_NESTING, "the failed claim took no slot");
        for _ in 0..MAX_NESTING {
            release_node(cpu);
        }
        let (_, tail) = claim_node(cpu);
        assert_eq!(crate::word::decode_tail_idx(tail), 0);
        release_node(cpu);
    }

    #[test]
    fn node_reset_clears_state() {
        let cpu = current_cpu();
        let (node, tail) = claim_node(cpu);
        node.locked.store(7, Ordering::Relaxed);
        node.next
            .store(node as *const _ as *mut _, Ordering::Relaxed);
        node.reset(tail);
        assert_eq!(node.locked.load(Ordering::Relaxed), 0);
        assert!(node.next.load(Ordering::Relaxed).is_null());
        assert_eq!(node.encoded_tail.load(Ordering::Relaxed), tail);
        release_node(cpu);
    }

    /// A lock queued for in a thread-local destructor that runs after
    /// `CPU_SLOT`'s: the thread borrows a CPU id for the episode instead of
    /// panicking in the destructor, which would abort the process.
    #[test]
    fn queueing_in_a_late_tls_destructor_borrows_a_cpu() {
        use crate::lock::CnaQSpinLock;
        use crate::word::{PENDING, TAIL_MASK};
        use std::cell::RefCell;
        use sync_core::raw::RawLock;

        static LOCK: CnaQSpinLock = CnaQSpinLock::new();

        struct QueuesOnDrop;
        impl Drop for QueuesOnDrop {
            fn drop(&mut self) {
                assert!(CPU_SLOT.try_with(|_| ()).is_err(), "CPU_SLOT is gone");
                // SAFETY: `()` node; matched pair.
                unsafe {
                    LOCK.lock(&());
                    LOCK.unlock(&());
                }
            }
        }
        thread_local! {
            static LATE: RefCell<Option<QueuesOnDrop>> = const { RefCell::new(None) };
        }

        let spin_until = |cond: &dyn Fn(u32) -> bool| {
            while !cond(LOCK.raw_value()) {
                std::thread::yield_now();
            }
        };
        // SAFETY: `()` node; unlocked below.
        unsafe { LOCK.lock(&()) };
        // A second contender takes the pending bit, so the third must queue.
        // SAFETY: as above.
        let pending = std::thread::spawn(|| unsafe {
            LOCK.lock(&());
            LOCK.unlock(&());
        });
        spin_until(&|v| v & PENDING != 0);
        let exiting = std::thread::spawn(|| {
            // Destructors run in reverse registration order: registering
            // CPU_SLOT after LATE tears it down first.
            LATE.with(|slot| *slot.borrow_mut() = Some(QueuesOnDrop));
            current_cpu();
        });
        spin_until(&|v| v & TAIL_MASK != 0);
        // SAFETY: matching unlock.
        unsafe { LOCK.unlock(&()) };
        pending.join().unwrap();
        exiting
            .join()
            .expect("the destructor queued and took the lock");
        assert_eq!(LOCK.raw_value(), 0);
        assert!(
            table().iter().all(|c| !c.on_loan.load(Ordering::Relaxed)),
            "the borrowed id went back to the free list"
        );
    }

    #[test]
    fn distinct_threads_get_distinct_cpu_slots() {
        let here = current_cpu();
        let there = std::thread::spawn(current_cpu).join().unwrap();
        assert_ne!(here, there);
    }
}
