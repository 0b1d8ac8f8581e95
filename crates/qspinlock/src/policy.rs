//! Slow-path hand-over policies: stock MCS vs CNA.
//!
//! Everything up to the point where a queue head has claimed the locked byte
//! is identical between the stock kernel qspinlock and the CNA patch; the
//! policies differ only in (a) whether a queued waiter records its socket and
//! (b) which waiter is promoted to queue head when the lock is claimed. This
//! module captures exactly that difference, mirroring how the paper's kernel
//! change is confined to the slow-path hand-over. The CNA policy holds no
//! hand-over of its own: it is glue over `cna::raw::hand_over` and
//! `cna::raw::retarget_secondary`, the code the user-space CNA lock runs.

use std::sync::atomic::{AtomicU32, Ordering};

use cna::raw::{hand_over, retarget_secondary, PaperParams};
use sync_core::spin::spin_until;

use crate::percpu::QsNode;
use crate::word::LOCKED;

/// Granted value stored in a successor's `locked` field when the secondary
/// queue is empty.
const GRANTED: usize = 1;

/// A qspinlock slow-path hand-over policy.
pub trait SlowPathPolicy: Send + Sync + 'static {
    /// Display name (used by the benchmark harness: "stock" vs "CNA").
    const NAME: &'static str;

    /// Called when a waiter enqueues behind an existing tail (the contended
    /// path only, matching the paper's "recording the socket number takes
    /// place only if the thread finds another node in the queue").
    fn on_contended_enqueue(node: &QsNode);

    /// Called by the thread that has just claimed the locked byte while other
    /// waiters are queued; must promote exactly one waiter to queue head.
    ///
    /// `next` is the already-linked immediate successor.
    ///
    /// # Safety
    ///
    /// Caller must have claimed the lock and own queue-head status; `next`
    /// must be a live queued node.
    unsafe fn pass_queue_head(lock: &AtomicU32, me: &QsNode, next: *mut QsNode);

    /// Called by the thread that has observed itself to be the only queued
    /// waiter; must either clear the tail (returning `true` when the episode
    /// is over) or hand queue-head status to a parked waiter (also returning
    /// `true`), or return `false` to fall back to the contended path because
    /// the tail moved.
    ///
    /// # Safety
    ///
    /// Caller must be the current queue head; `val` is the last observed
    /// lock-word value whose tail equals the caller's tail.
    unsafe fn try_clear_tail(lock: &AtomicU32, me: &QsNode, val: u32) -> bool;
}

/// The stock (MCS) hand-over policy of the mainline kernel.
#[derive(Debug, Default, Clone, Copy)]
pub struct McsPolicy;

impl SlowPathPolicy for McsPolicy {
    const NAME: &'static str = "stock";

    fn on_contended_enqueue(_node: &QsNode) {}

    unsafe fn pass_queue_head(_lock: &AtomicU32, _me: &QsNode, next: *mut QsNode) {
        // SAFETY: `next` is a live queued node per the caller's contract.
        unsafe {
            (*next).locked.store(GRANTED, Ordering::Release);
        }
    }

    unsafe fn try_clear_tail(lock: &AtomicU32, _me: &QsNode, val: u32) -> bool {
        lock.compare_exchange(val, LOCKED, Ordering::AcqRel, Ordering::Relaxed)
            .is_ok()
    }
}

/// The CNA hand-over policy (the paper's kernel patch): glue over
/// `cna::raw`'s hand-over, with the paper's parameters (shuffle reduction
/// off).
#[derive(Debug, Default, Clone, Copy)]
pub struct CnaPolicy;

impl SlowPathPolicy for CnaPolicy {
    const NAME: &'static str = "CNA";

    fn on_contended_enqueue(node: &QsNode) {
        node.socket
            .store(numa_topology::current_socket() as isize, Ordering::Relaxed);
    }

    unsafe fn pass_queue_head(_lock: &AtomicU32, me: &QsNode, next: *mut QsNode) {
        // A head that entered an empty queue was never granted by a
        // predecessor, so its `locked` is still 0; the hand-over reads it as
        // "granted, secondary queue empty" and must never pass a 0 on.
        if me.locked.load(Ordering::Relaxed) == 0 {
            me.locked.store(GRANTED, Ordering::Relaxed);
        }
        // SAFETY: forwarded caller contract; `locked` is now GRANTED or the
        // secondary queue's head.
        unsafe { hand_over::<PaperParams, _>(me, next) }
    }

    unsafe fn try_clear_tail(lock: &AtomicU32, me: &QsNode, val: u32) -> bool {
        let claim = |tail: u32| {
            lock.compare_exchange(val, LOCKED | tail, Ordering::AcqRel, Ordering::Relaxed)
                .is_ok()
        };
        if me.locked.load(Ordering::Relaxed) <= GRANTED {
            // Both queues empty: clear the tail, keeping only the locked byte.
            return claim(0);
        }
        // Main queue empty but the secondary queue is not: point the tail at
        // the secondary queue's last node.
        // SAFETY: we are the queue head with a non-empty secondary queue;
        // its tail is a live parked waiter.
        unsafe {
            retarget_secondary(me, |sec_tail: *mut QsNode| {
                claim((*sec_tail).encoded_tail.load(Ordering::Relaxed))
            })
        }
    }
}

/// Shared helper: the queue head waits for its `next` link to appear.
///
/// # Safety
///
/// `me` must be the current queue head's node.
pub(crate) unsafe fn wait_for_next(me: &QsNode) -> *mut QsNode {
    spin_until(|| !me.next.load(Ordering::Acquire).is_null());
    me.next.load(Ordering::Acquire)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policy_names() {
        assert_eq!(McsPolicy::NAME, "stock");
        assert_eq!(CnaPolicy::NAME, "CNA");
    }

    #[test]
    fn mcs_clear_tail_requires_matching_word() {
        let lock = AtomicU32::new(0xdead_0000);
        let node = QsNode::default();
        // SAFETY: single-threaded test; contracts trivially hold.
        unsafe {
            assert!(!McsPolicy::try_clear_tail(&lock, &node, 0xbeef_0000));
            assert!(McsPolicy::try_clear_tail(&lock, &node, 0xdead_0000));
        }
        assert_eq!(lock.load(Ordering::Relaxed), LOCKED);
    }
}
