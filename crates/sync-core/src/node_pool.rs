//! Per-thread typed free lists of boxed queue nodes.
//!
//! Queue locks need a node per in-flight acquisition whose address stays
//! stable while other threads point at it. LiTL keeps them in thread-local
//! arrays and the kernel in per-CPU ones (`qnodes[4]`), found by index; the
//! safe wrappers ([`LockMutex`](crate::LockMutex), [`DynLock`](crate::DynLock))
//! find them here by comparing `TypeId`s, with no allocation in steady state.
//!
//! A `const`-initialised thread-local holds a short `Vec` of `FreeList`s, one
//! per node type the thread has used: the `TypeId`, the type's drop function
//! and a stack of up to `MAX_POOLED_PER_TYPE` raw node pointers. It is
//! scanned linearly (a thread uses one or two node types, so the first or
//! second compare hits); zero-sized nodes (`()` for TAS, ticket, HBO, the
//! qspinlocks) skip it at compile time. The lists are typed, not one byte
//! slab, because nodes keep their contents between acquisitions: CLH's node
//! owns a recycled heap cell, so it must come back as the `N` it was released
//! as — stale, see [`acquire`] — and be dropped as one at thread exit.
//!
//! Rules: (1) the thread-local borrow runs no foreign code — `N::default()`
//! and the drop of an over-cap node happen outside it — so the pool is never
//! re-entered while borrowed and can be an `UnsafeCell` (a new list calls the
//! allocator, which cannot take a pooled lock without first recursing through
//! `acquire`'s own `Box`); (2) a pointer is only ever cast back to the `N`
//! whose `TypeId` keyed its list; (3) once the thread-local is destroyed (a
//! lock taken in a later TLS destructor) `acquire` allocates, `release` drops.

use std::any::{Any, TypeId};
use std::cell::UnsafeCell;

/// Nodes of one type kept per thread. Four matches the kernel's nesting
/// limit; user-space code may hold several locks of one type at once.
const MAX_POOLED_PER_TYPE: usize = 16;

/// The calling thread's cached nodes of one type; `nodes[..len]` is a stack.
struct FreeList {
    type_id: TypeId,
    drop_node: unsafe fn(*mut ()),
    len: usize,
    nodes: [*mut (); MAX_POOLED_PER_TYPE],
}

/// # Safety
/// `ptr` must come from `Box::<N>::into_raw` and must not be used again.
unsafe fn drop_node<N>(ptr: *mut ()) {
    // SAFETY: the caller's contract.
    drop(unsafe { Box::from_raw(ptr.cast::<N>()) });
}

impl Drop for FreeList {
    /// Thread exit; a node whose `Drop` takes a lock falls under rule 3.
    fn drop(&mut self) {
        for &ptr in &self.nodes[..self.len] {
            // SAFETY: rule 2 — `with_list::<N>` built this list around
            // `drop_node::<N>`, and only `release::<N>` stores into it.
            unsafe { (self.drop_node)(ptr) };
        }
    }
}

thread_local! {
    static LISTS: UnsafeCell<Vec<FreeList>> = const { UnsafeCell::new(Vec::new()) };
}

/// Out of line, so that `acquire` and `release` stay small enough to inline.
#[cold]
fn new_list(lists: &mut Vec<FreeList>, type_id: TypeId, drop_node: unsafe fn(*mut ())) -> usize {
    lists.push(FreeList {
        type_id,
        drop_node,
        len: 0,
        nodes: [std::ptr::null_mut(); MAX_POOLED_PER_TYPE],
    });
    lists.len() - 1
}

/// Runs `f` on the calling thread's list of `N` nodes, created on first use.
/// `None`, without running `f`, when `N` is zero-sized or under rule 3.
fn with_list<N: Any, R>(f: impl FnOnce(&mut FreeList) -> Option<R>) -> Option<R> {
    if std::mem::size_of::<N>() == 0 {
        return None;
    }
    let find = |lists: &mut Vec<FreeList>| {
        let known = lists.iter().position(|l| l.type_id == TypeId::of::<N>());
        let at = known.unwrap_or_else(|| new_list(lists, TypeId::of::<N>(), drop_node::<N>));
        f(&mut lists[at])
    };
    // SAFETY: rule 1 — the lists are thread-local and every `f` is a closure
    // of this module that never calls back in, so the reference is unique.
    LISTS.try_with(|l| find(unsafe { &mut *l.get() })).ok()?
}

/// Takes a node of type `N` from the calling thread's pool, or allocates one.
/// It may hold stale contents: like the paper's pseudo-code (Fig. 3, lines
/// 2–4), every lock initialises what it relies on at the start of `lock`.
pub fn acquire<N: Default + Any>() -> Box<N> {
    let pooled = with_list::<N, _>(|list| {
        list.len = list.len.checked_sub(1)?;
        Some(list.nodes[list.len])
    });
    // SAFETY: rule 2 — popped off the list of `N`: a `Box<N>`, now ours.
    pooled.map_or_else(Box::default, |ptr| unsafe { Box::from_raw(ptr.cast()) })
}

/// Returns a node to the calling thread's pool for reuse. One that finds no
/// slot (over the cap, rule 3) drops on return, outside the borrow (rule 1).
pub fn release<N: Any>(node: Box<N>) {
    let mut node = Some(node);
    with_list::<N, _>(|list| {
        let slot = list.nodes.get_mut(list.len)?;
        *slot = Box::into_raw(node.take()?).cast();
        list.len += 1;
        Some(())
    });
}

/// Number of pooled nodes of type `N` on the calling thread (for tests).
pub fn pooled_count<N: Any>() -> usize {
    with_list::<N, _>(|list| Some(list.len)).unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::mem::size_of;
    use std::sync::Mutex;

    #[derive(Default, Debug, PartialEq)]
    struct NodeA {
        value: u64,
    }

    #[derive(Default)]
    struct NodeB {
        words: [u32; 9],
    }

    fn addr<N>(node: &N) -> usize {
        node as *const N as usize
    }

    #[test]
    fn acquire_release_reuses_the_same_allocation() {
        let mut node = acquire::<NodeA>();
        node.value = 7;
        let first = addr(&*node);
        release(node);
        let node2 = acquire::<NodeA>();
        assert_eq!(addr(&*node2), first, "node is reused");
        assert_eq!(node2.value, 7, "pool does not clear nodes; locks must");
        release(node2);
    }

    #[test]
    fn forty_held_nodes_released_out_of_order_keep_the_cap_and_are_reused() {
        let held: Vec<Box<NodeA>> = (0..40).map(|_| acquire()).collect();
        let addrs: Vec<usize> = held.iter().map(|n| addr(&**n)).collect();
        let mut distinct = addrs.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 40, "nodes held at once never alias");
        // Neither LIFO nor FIFO: evens ascending, then odds descending.
        let (evens, odds): (Vec<_>, Vec<_>) =
            held.into_iter().enumerate().partition(|(i, _)| i % 2 == 0);
        for (_, node) in evens.into_iter().chain(odds.into_iter().rev()) {
            release(node);
        }
        assert_eq!(pooled_count::<NodeA>(), MAX_POOLED_PER_TYPE);
        let again = acquire::<NodeA>();
        assert!(addrs.contains(&addr(&*again)), "a pooled node comes back");
        assert_eq!(pooled_count::<NodeA>(), MAX_POOLED_PER_TYPE - 1);
    }

    #[test]
    fn every_node_is_dropped_exactly_once() {
        /// (constructed, dropped); a mutex so the pool stays free of
        /// `Ordering::` sites for the audit table.
        static COUNTS: Mutex<(usize, usize)> = Mutex::new((0, 0));
        fn counts() -> (usize, usize) {
            *COUNTS.lock().unwrap()
        }
        struct Counted(#[allow(dead_code)] u8);
        impl Default for Counted {
            fn default() -> Self {
                COUNTS.lock().unwrap().0 += 1;
                Counted(0)
            }
        }
        impl Drop for Counted {
            fn drop(&mut self) {
                COUNTS.lock().unwrap().1 += 1;
            }
        }
        const OVER: usize = 5;
        const TOTAL: usize = MAX_POOLED_PER_TYPE + OVER;
        std::thread::spawn(|| {
            let held: Vec<Box<Counted>> = (0..TOTAL).map(|_| acquire()).collect();
            held.into_iter().for_each(release);
            assert_eq!(pooled_count::<Counted>(), MAX_POOLED_PER_TYPE);
            assert_eq!(counts(), (TOTAL, OVER), "over-cap nodes drop at release");
            release(acquire::<Counted>());
            assert_eq!(
                counts(),
                (TOTAL, OVER),
                "steady state builds and drops none"
            );
        })
        .join()
        .unwrap();
        assert_eq!(counts(), (TOTAL, TOTAL), "cached nodes drop at thread exit");
    }

    #[test]
    fn interleaved_types_only_get_their_own_nodes_back() {
        assert_ne!(size_of::<NodeA>(), size_of::<NodeB>());
        let fresh_a = |i: u64| {
            let mut n = acquire::<NodeA>();
            n.value = 0xA000 + i;
            n
        };
        let fresh_b = |i: u32| {
            let mut n = acquire::<NodeB>();
            n.words = [0xB000 + i; 9];
            n
        };
        let (a0, b0, a1, b1) = (fresh_a(0), fresh_b(0), fresh_a(1), fresh_b(1));
        let a_addrs = [addr(&*a0), addr(&*a1)];
        let b_addrs = [addr(&*b0), addr(&*b1)];
        release(a0);
        release(b1);
        release(b0);
        release(a1);
        assert_eq!((pooled_count::<NodeA>(), pooled_count::<NodeB>()), (2, 2));
        // Each list is a stack of its own type: contents and addresses match.
        for (want_a, want_b) in [(1, 0), (0, 1)] {
            let b = acquire::<NodeB>();
            let a = acquire::<NodeA>();
            assert_eq!(
                (a.value, addr(&*a)),
                (0xA000 + want_a, a_addrs[want_a as usize])
            );
            assert_eq!(b.words, [0xB000 + want_b; 9]);
            assert_eq!(addr(&*b), b_addrs[want_b as usize]);
        }
        assert_eq!((pooled_count::<NodeA>(), pooled_count::<NodeB>()), (0, 0));
    }

    #[test]
    fn zero_sized_nodes_never_create_a_list() {
        #[derive(Default)]
        struct Unit;
        release(acquire::<()>());
        release(acquire::<Unit>());
        assert_eq!(pooled_count::<()>(), 0);
        assert_eq!(pooled_count::<Unit>(), 0);
        LISTS.with(|lists| {
            // SAFETY: no other reference to this thread's lists is live.
            let lists = unsafe { &*lists.get() };
            let zero_sized = [TypeId::of::<()>(), TypeId::of::<Unit>()];
            assert!(lists.iter().all(|l| !zero_sized.contains(&l.type_id)));
        });
    }

    #[test]
    fn pools_are_thread_local() {
        release(acquire::<NodeA>());
        let other = std::thread::spawn(pooled_count::<NodeA>).join().unwrap();
        assert_eq!(other, 0, "a fresh thread starts with an empty pool");
    }
}
