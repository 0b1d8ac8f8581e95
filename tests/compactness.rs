//! The paper's compactness claims, pinned as tests so refactors cannot
//! silently bloat the lock words (Table in §1 / §3 of the paper).

use std::mem::{align_of, size_of};

use cna_locks::cna::raw::CnaLockOpt;
use cna_locks::cna::CnaLock;
use cna_locks::locks::{
    CBoMcsLock, CPtlTktLock, CTktTktLock, ClhLock, FissileLock, HboLock, HmcsLock, McsCrLock,
    McsLock, PartitionedTicketLock, TestAndSetLock, TicketLock, TtasBackoffLock,
};
use cna_locks::qspinlock::{CnaQSpinLock, StockQSpinLock};
use cna_locks::registry::{FairnessClass, LockId};
use cna_locks::sync_core::DynLock;

/// CNA's headline claim: the lock itself is a single word (the tail
/// pointer), no matter how many sockets the machine has.
#[test]
fn cna_lock_is_one_word() {
    assert_eq!(size_of::<CnaLock>(), size_of::<usize>());
    assert!(align_of::<CnaLock>() <= size_of::<usize>());
}

/// The Linux qspinlock must stay four bytes — it is embedded in billions of
/// kernel objects — and the paper's whole point is that the CNA slow path
/// preserves that size exactly.
#[test]
fn qspinlock_variants_are_exactly_four_bytes() {
    assert_eq!(size_of::<StockQSpinLock>(), 4);
    assert_eq!(size_of::<CnaQSpinLock>(), 4);
    assert_eq!(align_of::<StockQSpinLock>(), 4);
    assert_eq!(align_of::<CnaQSpinLock>(), 4);
}

/// MCS and CLH, like CNA, keep one word of shared state; the contrast with
/// the hierarchical NUMA-aware locks below is the paper's Table 1 argument.
#[test]
fn queue_lock_baselines_are_one_word() {
    assert_eq!(size_of::<McsLock>(), size_of::<usize>());
    assert_eq!(size_of::<ClhLock>(), size_of::<usize>());
    assert_eq!(size_of::<TestAndSetLock>(), 1);
}

/// The hierarchical NUMA-aware baselines pay O(sockets) cache lines of
/// shared state — the space overhead CNA exists to avoid.
#[test]
fn hierarchical_locks_are_not_compact() {
    assert!(size_of::<CBoMcsLock>() > size_of::<CnaLock>());
    assert!(size_of::<HmcsLock>() > size_of::<CnaLock>());
}

/// Through the registry a lock costs its object two words: the vtable
/// pointer and one word, in which every compact lock is stored in place
/// (`tests/no_alloc_hot_path.rs` checks that building one allocates nothing).
#[test]
fn a_dyn_lock_is_two_words() {
    assert_eq!(size_of::<DynLock>(), 2 * size_of::<usize>());
}

/// One pinned `size_of` assertion per registered lock type. The registry
/// reads each lock's size off the lock it builds, so this is the only place
/// the sizes are written down by hand. It is also the hook `cnalint`'s
/// `lock-word-compactness` rule looks for: every concrete type a `registry`
/// row builds must have its `size_of::<T>()` asserted somewhere in the
/// workspace, and this table is the canonical place.
#[test]
fn every_registered_lock_type_has_a_pinned_size() {
    assert_eq!(size_of::<TestAndSetLock>(), 1);
    assert_eq!(size_of::<TtasBackoffLock>(), 1);
    assert_eq!(size_of::<TicketLock>(), 8);
    assert_eq!(size_of::<PartitionedTicketLock>(), 24);
    assert_eq!(size_of::<ClhLock>(), 8);
    assert_eq!(size_of::<McsLock>(), 8);
    assert_eq!(size_of::<HboLock>(), 8);
    assert_eq!(size_of::<CBoMcsLock>(), 24);
    assert_eq!(size_of::<CTktTktLock>(), 32);
    assert_eq!(size_of::<CPtlTktLock>(), 48);
    assert_eq!(size_of::<HmcsLock>(), 32);
    assert_eq!(size_of::<CnaLock>(), 8);
    assert_eq!(size_of::<CnaLockOpt>(), 8);
    assert_eq!(size_of::<StockQSpinLock>(), 4);
    assert_eq!(size_of::<CnaQSpinLock>(), 4);
    assert_eq!(size_of::<FissileLock>(), 16);
    assert_eq!(size_of::<McsCrLock>(), 40);
}

/// The paper's trade-off, as registry metadata: every compact NUMA-aware
/// lock is CNA-family (epoch-bounded fairness), and all cohort-bounded
/// locks pay more than a word of shared state.
#[test]
fn fairness_and_compactness_metadata_capture_the_papers_tradeoff() {
    for id in LockId::ALL {
        if id.is_compact() && id.is_numa_aware() && id.fairness_class() != FairnessClass::None {
            assert_eq!(
                id.fairness_class(),
                FairnessClass::EpochBounded,
                "{id}: a compact NUMA-aware lock with fairness must be CNA-family"
            );
        }
        if id.fairness_class() == FairnessClass::CohortBounded {
            assert!(
                id.compactness() > size_of::<usize>(),
                "{id}: cohort locks are the non-compact side of the trade-off"
            );
        }
    }
}
