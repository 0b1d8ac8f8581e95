//! The lock registry: every evaluated algorithm, addressable by name.
//!
//! This crate is the workspace's equivalent of LiTL's interposition table
//! (§7 of the paper): one [`LockId`] per evaluated algorithm, a factory that
//! turns an id into a runtime-dispatched [`DynLock`], and the total mapping
//! onto the simulator's [`LockAlgorithm`] policy models. The harness, the
//! kernel substrates, the storage substrates, the figure table and the
//! `lockbench` CLI all consume this table, so adding a lock algorithm means
//! registering it **here, once** — every workload can then drive it by name.
//!
//! * `LockId::ALL` — the canonical list (both qspinlock slow paths and the
//!   §6 "CNA (opt)" variant included).
//! * [`LockId::build`] — `LockId → DynLock` (the type-erased real lock).
//! * [`LockId::sim_algorithm`] — `LockId → LockAlgorithm` (the simulator
//!   policy model); total by construction, checked by tests.
//! * [`LockId::parse`] / [`std::fmt::Display`] — name ⇄ id round-tripping.
//! * [`ambient`] — LiTL-style process-wide selection for driving *generic*
//!   substrates (`FilesStruct<L>`, `Db<L>`, …) with a runtime-chosen lock.
//!
//! # Examples
//!
//! ```
//! use registry::LockId;
//!
//! let id: LockId = "cna".parse().unwrap();
//! let lock = id.build();
//! assert_eq!(lock.name(), "CNA");
//! let _guard = lock.lock();
//! ```

#![warn(missing_docs)]

pub mod ambient;

use std::fmt;
use std::str::FromStr;

use cna::raw::CnaLockOpt;
use cna::CnaLock;
use locks::{
    CBoMcsLock, CPtlTktLock, CTktTktLock, ClhLock, FissileLock, HboLock, HmcsLock, McsCrLock,
    McsLock, PartitionedTicketLock, TestAndSetLock, TicketLock, TtasBackoffLock,
};
use numa_sim::lock_model::LockAlgorithm;
use qspinlock::{CnaQSpinLock, StockQSpinLock};
use sync_core::DynLock;

pub use ambient::{with_ambient, AmbientLock, AmbientNode};

/// Every lock algorithm evaluated by the reproduction, one variant each.
///
/// The variants cover the paper's full comparison set: the simple spin locks
/// of §2, the FIFO queue locks, the hierarchical NUMA-aware locks, CNA with
/// and without the §6 shuffle-reduction optimisation, and both slow paths of
/// the kernel qspinlock (§3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum LockId {
    /// Test-and-set spin lock.
    Tas,
    /// Test-and-test-and-set with exponential backoff.
    TtasBackoff,
    /// Ticket lock.
    Ticket,
    /// Partitioned ticket lock (PTL).
    PartitionedTicket,
    /// CLH queue lock.
    Clh,
    /// MCS queue lock.
    Mcs,
    /// Hierarchical backoff lock.
    Hbo,
    /// Cohort lock: backoff global, MCS locals.
    CBoMcs,
    /// Cohort lock: ticket global, ticket locals.
    CTktTkt,
    /// Cohort lock: partitioned-ticket global, ticket locals.
    CPtlTkt,
    /// Two-level hierarchical MCS.
    Hmcs,
    /// The paper's CNA lock, default parameters.
    Cna,
    /// CNA with the §6 shuffle-reduction optimisation ("CNA (opt)").
    CnaOpt,
    /// Kernel qspinlock with the stock (MCS) slow path.
    QSpinStock,
    /// Kernel qspinlock with the paper's CNA slow path.
    QSpinCna,
    /// Fissile lock: TS fast path over an MCS slow path (admission family).
    Fissile,
    /// Concurrency-restricting MCS: bounded active set, passive list.
    Mcscr,
}

/// Long-term fairness guarantee of a lock's hand-over policy — the paper's
/// §4 taxonomy, recorded per algorithm so experiments can assert it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FairnessClass {
    /// Strict FIFO admission: threads acquire in arrival order (MCS, CLH,
    /// ticket-family, stock qspinlock). Long-term fairness factor ≈ 0.5.
    Fifo,
    /// No ordering guarantee at all: whoever wins the race gets the lock
    /// (TAS, TTAS-backoff, HBO). Starvation is possible.
    None,
    /// NUMA-aware with a bounded intra-socket handoff budget (cohort locks,
    /// HMCS): remote threads wait at most the cohort-detection bound.
    CohortBounded,
    /// CNA's policy: prefer same-socket successors but force a main-queue
    /// epoch regularly, giving long-term (not short-term) fairness.
    EpochBounded,
}

impl FairnessClass {
    /// Lower-case token used in tables and CSVs.
    pub const fn name(self) -> &'static str {
        match self {
            FairnessClass::Fifo => "fifo",
            FairnessClass::None => "none",
            FairnessClass::CohortBounded => "cohort-bounded",
            FairnessClass::EpochBounded => "epoch-bounded",
        }
    }
}

impl fmt::Display for FairnessClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when a lock name does not match any registered algorithm.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownLockError {
    /// The name that failed to parse.
    pub name: String,
}

impl fmt::Display for UnknownLockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown lock algorithm {:?} (known: {})",
            self.name,
            LockId::names().join(", ")
        )
    }
}

impl std::error::Error for UnknownLockError {}

impl LockId {
    /// All registered algorithms, in the order `lockbench list` prints them.
    pub const ALL: [LockId; 17] = [
        LockId::Tas,
        LockId::TtasBackoff,
        LockId::Ticket,
        LockId::PartitionedTicket,
        LockId::Clh,
        LockId::Mcs,
        LockId::Hbo,
        LockId::CBoMcs,
        LockId::CTktTkt,
        LockId::CPtlTkt,
        LockId::Hmcs,
        LockId::Cna,
        LockId::CnaOpt,
        LockId::QSpinStock,
        LockId::QSpinCna,
        LockId::Fissile,
        LockId::Mcscr,
    ];

    /// Canonical, unique, parseable name (the `lockbench --lock` token).
    pub const fn name(self) -> &'static str {
        match self {
            LockId::Tas => "tas",
            LockId::TtasBackoff => "ttas-bo",
            LockId::Ticket => "ticket",
            LockId::PartitionedTicket => "ptl",
            LockId::Clh => "clh",
            LockId::Mcs => "mcs",
            LockId::Hbo => "hbo",
            LockId::CBoMcs => "c-bo-mcs",
            LockId::CTktTkt => "c-tkt-tkt",
            LockId::CPtlTkt => "c-ptl-tkt",
            LockId::Hmcs => "hmcs",
            LockId::Cna => "cna",
            LockId::CnaOpt => "cna-opt",
            LockId::QSpinStock => "qspinlock-stock",
            LockId::QSpinCna => "qspinlock-cna",
            LockId::Fissile => "fissile",
            LockId::Mcscr => "mcscr",
        }
    }

    /// The [`RawLock::NAME`](sync_core::RawLock::NAME) of the underlying
    /// implementation — the label used in the paper's plots. Not unique:
    /// both [`LockId::Cna`] and [`LockId::QSpinCna`] are plotted as "CNA".
    pub const fn raw_name(self) -> &'static str {
        match self {
            LockId::Tas => "TAS",
            LockId::TtasBackoff => "TTAS-BO",
            LockId::Ticket => "Ticket",
            LockId::PartitionedTicket => "PTL",
            LockId::Clh => "CLH",
            LockId::Mcs => "MCS",
            LockId::Hbo => "HBO",
            LockId::CBoMcs => "C-BO-MCS",
            LockId::CTktTkt => "C-TKT-TKT",
            LockId::CPtlTkt => "C-PTL-TKT",
            LockId::Hmcs => "HMCS",
            LockId::Cna => "CNA",
            LockId::CnaOpt => "CNA (opt)",
            LockId::QSpinStock => "stock",
            LockId::QSpinCna => "CNA",
            LockId::Fissile => "Fissile",
            LockId::Mcscr => "MCSCR",
        }
    }

    /// One-line description for `lockbench list`.
    pub const fn description(self) -> &'static str {
        match self {
            LockId::Tas => "test-and-set spin lock (§2 baseline)",
            LockId::TtasBackoff => "test-and-test-and-set with exponential backoff",
            LockId::Ticket => "ticket lock (FIFO, global spinning)",
            LockId::PartitionedTicket => "partitioned ticket lock (FIFO, distributed grants)",
            LockId::Clh => "CLH queue lock (implicit predecessor queue)",
            LockId::Mcs => "MCS queue lock (the paper's main baseline)",
            LockId::Hbo => "hierarchical backoff lock (NUMA-aware, unfair)",
            LockId::CBoMcs => "cohort lock: backoff global / MCS locals",
            LockId::CTktTkt => "cohort lock: ticket global / ticket locals",
            LockId::CPtlTkt => "cohort lock: partitioned-ticket global / ticket locals",
            LockId::Hmcs => "two-level hierarchical MCS",
            LockId::Cna => "compact NUMA-aware lock (the paper's algorithm)",
            LockId::CnaOpt => "CNA with the §6 shuffle-reduction optimisation",
            LockId::QSpinStock => "4-byte kernel qspinlock, stock MCS slow path",
            LockId::QSpinCna => "4-byte kernel qspinlock, CNA slow path (the paper's patch)",
            LockId::Fissile => "Fissile lock: TS fast path + MCS slow path, bounded barging",
            LockId::Mcscr => "concurrency-restricting MCS (bounded active set, passive list)",
        }
    }

    /// Whether the lock's shared state is a single word (or the kernel's
    /// four bytes) independent of the socket count — the paper's compactness
    /// criterion. A compact lock is stored in place in the [`DynLock`]
    /// [`build`](Self::build) returns; the others are boxed.
    pub const fn is_compact(self) -> bool {
        !matches!(
            self,
            LockId::CBoMcs | LockId::CTktTkt | LockId::CPtlTkt | LockId::Hmcs
        ) && !matches!(
            self,
            LockId::PartitionedTicket | LockId::Fissile | LockId::Mcscr
        )
    }

    /// Expected size of the lock struct in bytes — the paper's compactness
    /// measure, pinned here so a refactor that bloats a lock word fails the
    /// smoke matrix (`tests/compactness.rs` asserts this against
    /// [`DynLock::lock_size`] for every registered algorithm).
    ///
    /// Word-sized locks store `usize`/smaller shared state inline, and a
    /// [`DynLock`] stores such a lock in place, so that is what it adds to
    /// the object holding it; the hierarchical locks count their top-level
    /// struct, which a `DynLock` boxes (per-socket state behind pointers is
    /// extra, which is exactly the paper's point).
    pub const fn compactness(self) -> usize {
        match self {
            LockId::Tas | LockId::TtasBackoff => 1,
            LockId::QSpinStock | LockId::QSpinCna => 4,
            LockId::Ticket
            | LockId::Clh
            | LockId::Mcs
            | LockId::Hbo
            | LockId::Cna
            | LockId::CnaOpt => 8,
            LockId::Fissile => 16,
            LockId::PartitionedTicket | LockId::CBoMcs => 24,
            LockId::CTktTkt | LockId::Hmcs => 32,
            LockId::Mcscr => 40,
            LockId::CPtlTkt => 48,
        }
    }

    /// The long-term fairness guarantee of the hand-over policy (§4).
    pub const fn fairness_class(self) -> FairnessClass {
        match self {
            LockId::Tas | LockId::TtasBackoff | LockId::Hbo | LockId::Fissile => {
                FairnessClass::None
            }
            LockId::Ticket
            | LockId::PartitionedTicket
            | LockId::Clh
            | LockId::Mcs
            | LockId::QSpinStock => FairnessClass::Fifo,
            LockId::CBoMcs | LockId::CTktTkt | LockId::CPtlTkt | LockId::Hmcs => {
                FairnessClass::CohortBounded
            }
            // MCSCR recirculates passive waiters back into the active set on
            // a fixed release cadence — long-term (not short-term) fairness,
            // structurally the same guarantee CNA's epochs give.
            LockId::Cna | LockId::CnaOpt | LockId::QSpinCna | LockId::Mcscr => {
                FairnessClass::EpochBounded
            }
        }
    }

    /// Whether the hand-over policy prefers same-socket successors.
    pub const fn is_numa_aware(self) -> bool {
        matches!(
            self,
            LockId::Hbo
                | LockId::CBoMcs
                | LockId::CTktTkt
                | LockId::CPtlTkt
                | LockId::Hmcs
                | LockId::Cna
                | LockId::CnaOpt
                | LockId::QSpinCna
        )
    }

    /// Whether [`DynLock::try_lock`] has a real non-blocking path for this
    /// algorithm (i.e. the implementation provides
    /// [`RawTryLock`](sync_core::RawTryLock)).
    pub const fn supports_try_lock(self) -> bool {
        matches!(
            self,
            LockId::Tas
                | LockId::TtasBackoff
                | LockId::Ticket
                | LockId::Hbo
                | LockId::QSpinStock
                | LockId::QSpinCna
                | LockId::Fissile
        )
    }

    /// Whether the lock's source is covered by the `modelcheck` interleaving
    /// explorer (its smoke suite instantiates the implementation with
    /// `ModelAtomics` and exhausts the bounded 2-thread tree in CI).
    ///
    /// Every lock wired through the generic
    /// [`Atomics`](sync_core::atomics::Atomics) family is checked — all but
    /// the qspinlocks, which hold their queue nodes in a global per-CPU
    /// static table and so cannot be instantiated with an instrumented
    /// atomic family.
    pub const fn is_model_checked(self) -> bool {
        !matches!(self, LockId::QSpinStock | LockId::QSpinCna)
    }

    /// Whether the lock's source falls in the `cnalint` audit scope: every
    /// `Ordering::` site of the implementation is cross-checked against the
    /// machine-readable table in `docs/orderings.md` (rule
    /// `ordering-audit-drift`), alongside the rest of the lock-discipline
    /// rules. Every registered lock is: the qspinlocks' crate is in the
    /// scope too, and their CNA hand-over is `cna::raw`'s.
    pub const fn is_linted(self) -> bool {
        true
    }

    /// Builds the type-erased real lock — the `LockId → DynLock` factory.
    pub fn build(self) -> DynLock {
        match self {
            LockId::Tas => DynLock::new_try::<TestAndSetLock>(),
            LockId::TtasBackoff => DynLock::new_try::<TtasBackoffLock>(),
            LockId::Ticket => DynLock::new_try::<TicketLock>(),
            LockId::PartitionedTicket => DynLock::new::<PartitionedTicketLock>(),
            LockId::Clh => DynLock::new::<ClhLock>(),
            LockId::Mcs => DynLock::new::<McsLock>(),
            LockId::Hbo => DynLock::new_try::<HboLock>(),
            LockId::CBoMcs => DynLock::new::<CBoMcsLock>(),
            LockId::CTktTkt => DynLock::new::<CTktTktLock>(),
            LockId::CPtlTkt => DynLock::new::<CPtlTktLock>(),
            LockId::Hmcs => DynLock::new::<HmcsLock>(),
            LockId::Cna => DynLock::new::<CnaLock>(),
            LockId::CnaOpt => DynLock::new::<CnaLockOpt>(),
            LockId::QSpinStock => DynLock::new_try::<StockQSpinLock>(),
            LockId::QSpinCna => DynLock::new_try::<CnaQSpinLock>(),
            LockId::Fissile => DynLock::new_try::<FissileLock>(),
            LockId::Mcscr => DynLock::new::<McsCrLock>(),
        }
    }

    /// The simulator policy model of this algorithm — the total mapping
    /// `LockId → LockAlgorithm` (real/sim drift is caught by tests).
    ///
    /// Algorithms whose *admission order* coincides share a model: CLH and
    /// the stock qspinlock grant strictly FIFO like MCS, PTL admits like a
    /// ticket lock, TTAS-backoff races like TAS, and the CNA-slow-path
    /// qspinlock admits like CNA.
    pub const fn sim_algorithm(self) -> LockAlgorithm {
        match self {
            LockId::Tas | LockId::TtasBackoff => LockAlgorithm::Tas,
            LockId::Ticket | LockId::PartitionedTicket => LockAlgorithm::Ticket,
            LockId::Clh | LockId::Mcs | LockId::QSpinStock => LockAlgorithm::Mcs,
            LockId::Hbo => LockAlgorithm::Hbo,
            LockId::CBoMcs => LockAlgorithm::CBoMcs,
            LockId::CTktTkt => LockAlgorithm::CTktTkt,
            LockId::CPtlTkt => LockAlgorithm::CPtlTkt,
            LockId::Hmcs => LockAlgorithm::Hmcs,
            LockId::Cna | LockId::QSpinCna => LockAlgorithm::Cna,
            LockId::CnaOpt => LockAlgorithm::CnaOpt,
            LockId::Fissile => LockAlgorithm::Fissile,
            LockId::Mcscr => LockAlgorithm::Mcscr,
        }
    }

    /// Parses a lock name (canonical names plus a few common aliases),
    /// case-insensitively.
    pub fn parse(name: &str) -> Result<LockId, UnknownLockError> {
        let normalized: String = name.trim().to_ascii_lowercase().replace(['_', ' '], "-");
        for id in LockId::ALL {
            if id.name() == normalized {
                return Ok(id);
            }
        }
        match normalized.as_str() {
            "test-and-set" => Ok(LockId::Tas),
            "ttas" | "backoff" => Ok(LockId::TtasBackoff),
            "tkt" => Ok(LockId::Ticket),
            "partitioned-ticket" => Ok(LockId::PartitionedTicket),
            "cohort" => Ok(LockId::CBoMcs),
            "cna-sr" | "cnaopt" => Ok(LockId::CnaOpt),
            "stock" | "qspinlock" => Ok(LockId::QSpinStock),
            "qspinlock-opt" => Ok(LockId::QSpinCna),
            "cr" | "mcs-cr" => Ok(LockId::Mcscr),
            _ => Err(UnknownLockError {
                name: name.to_string(),
            }),
        }
    }

    /// Parses a comma-separated list of lock names; `"all"` selects every
    /// registered algorithm.
    pub fn parse_list(list: &str) -> Result<Vec<LockId>, UnknownLockError> {
        if list.trim().eq_ignore_ascii_case("all") {
            return Ok(LockId::ALL.to_vec());
        }
        list.split(',')
            .filter(|part| !part.trim().is_empty())
            .map(LockId::parse)
            .collect()
    }

    /// The canonical names of all registered algorithms.
    pub fn names() -> Vec<&'static str> {
        LockId::ALL.iter().map(|id| id.name()).collect()
    }
}

impl fmt::Display for LockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for LockId {
    type Err = UnknownLockError;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        LockId::parse(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::TypeId;
    use std::collections::HashSet;
    use std::sync::Arc;
    use sync_core::DynLockMutex;

    #[test]
    fn registry_has_at_least_fourteen_algorithms() {
        assert!(LockId::ALL.len() >= 14, "got {}", LockId::ALL.len());
    }

    #[test]
    fn names_are_unique_and_parse_round_trips() {
        let mut seen = HashSet::new();
        for id in LockId::ALL {
            assert!(seen.insert(id.name()), "duplicate name {:?}", id.name());
            assert_eq!(LockId::parse(id.name()).unwrap(), id);
            assert_eq!(id.name().parse::<LockId>().unwrap(), id);
            assert_eq!(id.to_string(), id.name());
            // Parsing is case-insensitive and tolerant of underscores.
            assert_eq!(
                LockId::parse(&id.name().to_ascii_uppercase().replace('-', "_")).unwrap(),
                id
            );
        }
    }

    #[test]
    fn unknown_names_error_and_list_the_registry() {
        let err = LockId::parse("no-such-lock").unwrap_err();
        assert_eq!(err.name, "no-such-lock");
        assert!(err.to_string().contains("cna"));
        assert!(LockId::parse_list("cna,no-such-lock").is_err());
    }

    #[test]
    fn parse_list_handles_commas_and_all() {
        assert_eq!(
            LockId::parse_list("cna, mcs").unwrap(),
            vec![LockId::Cna, LockId::Mcs]
        );
        assert_eq!(LockId::parse_list("all").unwrap(), LockId::ALL.to_vec());
        assert_eq!(LockId::parse_list("hmcs,").unwrap(), vec![LockId::Hmcs]);
    }

    /// Every `RawLock` implementation exported for evaluation from the
    /// `locks`, `cna` and `qspinlock` crates must be registered exactly
    /// once. The concrete type list below is the review gate: when a new
    /// lock export lands, add it here *and* register it, or this test names
    /// the omission. (Diagnostic-only variants — always/never-flush CNA and
    /// the tunable CNA — are deliberately not part of the evaluated set.)
    #[test]
    fn every_exported_lock_is_registered_exactly_once() {
        use cna::raw::CnaLockOpt;
        let evaluated_exports: Vec<(&str, TypeId)> = vec![
            (
                "locks::TestAndSetLock",
                TypeId::of::<locks::TestAndSetLock>(),
            ),
            (
                "locks::TtasBackoffLock",
                TypeId::of::<locks::TtasBackoffLock>(),
            ),
            ("locks::TicketLock", TypeId::of::<locks::TicketLock>()),
            (
                "locks::PartitionedTicketLock",
                TypeId::of::<locks::PartitionedTicketLock>(),
            ),
            ("locks::ClhLock", TypeId::of::<locks::ClhLock>()),
            ("locks::McsLock", TypeId::of::<locks::McsLock>()),
            ("locks::HboLock", TypeId::of::<locks::HboLock>()),
            ("locks::CBoMcsLock", TypeId::of::<locks::CBoMcsLock>()),
            ("locks::CTktTktLock", TypeId::of::<locks::CTktTktLock>()),
            ("locks::CPtlTktLock", TypeId::of::<locks::CPtlTktLock>()),
            ("locks::HmcsLock", TypeId::of::<locks::HmcsLock>()),
            ("cna::CnaLock", TypeId::of::<cna::CnaLock>()),
            ("cna::raw::CnaLockOpt", TypeId::of::<CnaLockOpt>()),
            (
                "qspinlock::StockQSpinLock",
                TypeId::of::<qspinlock::StockQSpinLock>(),
            ),
            (
                "qspinlock::CnaQSpinLock",
                TypeId::of::<qspinlock::CnaQSpinLock>(),
            ),
            ("locks::FissileLock", TypeId::of::<locks::FissileLock>()),
            ("locks::McsCrLock", TypeId::of::<locks::McsCrLock>()),
        ];
        let registered: Vec<TypeId> = LockId::ALL
            .iter()
            .map(|id| id.build().lock_type_id())
            .collect();
        let registered_set: HashSet<TypeId> = registered.iter().copied().collect();
        assert_eq!(
            registered.len(),
            registered_set.len(),
            "some concrete lock type is registered under two LockIds"
        );
        for (name, type_id) in &evaluated_exports {
            assert!(
                registered_set.contains(type_id),
                "{name} is exported but not registered in LockId::ALL"
            );
        }
        assert_eq!(
            evaluated_exports.len(),
            registered.len(),
            "registry contains an id not in the evaluated-exports list; update the list"
        );
    }

    #[test]
    fn built_locks_report_the_registered_raw_name() {
        for id in LockId::ALL {
            let lock = id.build();
            assert_eq!(
                lock.name(),
                id.raw_name(),
                "{id}: DynLock name drifted from the registry"
            );
            assert_eq!(
                lock.supports_try_lock(),
                id.supports_try_lock(),
                "{id}: try-lock support drifted from the registry"
            );
        }
    }

    #[test]
    fn sim_mapping_is_total_and_every_model_builds() {
        let cost = numa_sim::CostModel::default();
        for id in LockId::ALL {
            let algo = id.sim_algorithm();
            let model = algo.build(4, 8, &cost);
            assert!(
                !model.name().is_empty(),
                "{id}: sim model has an empty name"
            );
        }
    }

    #[test]
    fn every_registered_lock_provides_mutual_exclusion_when_erased() {
        const THREADS: usize = 3;
        const ITERS: u64 = 400;
        for id in LockId::ALL {
            let m = Arc::new(DynLockMutex::new(id.build(), 0u64));
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
            assert_eq!(*m.lock(), THREADS as u64 * ITERS, "{id} lost updates");
        }
    }

    #[test]
    fn erased_try_lock_agrees_with_raw_try_lock_semantics() {
        for id in LockId::ALL {
            let lock = id.build();
            if id.supports_try_lock() {
                let g = lock.lock();
                assert!(
                    lock.try_lock().is_none(),
                    "{id}: try_lock succeeded while held"
                );
                drop(g);
                let g = lock
                    .try_lock()
                    .unwrap_or_else(|| panic!("{id}: try_lock failed on a free lock"));
                drop(g);
            } else {
                assert!(
                    lock.try_lock().is_none(),
                    "{id}: try_lock must be unsupported"
                );
                drop(lock.lock());
            }
        }
    }

    #[test]
    fn metadata_matches_the_paper_taxonomy() {
        assert!(LockId::Cna.is_compact() && LockId::Cna.is_numa_aware());
        assert!(LockId::Mcs.is_compact() && !LockId::Mcs.is_numa_aware());
        assert!(!LockId::Hmcs.is_compact() && LockId::Hmcs.is_numa_aware());
        assert!(!LockId::CBoMcs.is_compact());
        assert!(LockId::QSpinCna.is_compact() && LockId::QSpinCna.is_numa_aware());
        for id in LockId::ALL {
            assert!(!id.description().is_empty());
        }
    }

    #[test]
    fn model_checked_set_matches_the_suite_coverage() {
        // The paper's algorithm and its main baseline are both checked.
        assert!(LockId::Cna.is_model_checked());
        assert!(LockId::Mcs.is_model_checked());
        // The hierarchical and backoff locks are wired through `Atomics`.
        assert!(LockId::CBoMcs.is_model_checked());
        assert!(LockId::Hmcs.is_model_checked());
        assert!(LockId::Hbo.is_model_checked());
        // The admission-family locks are generic over `Atomics` like the rest.
        assert!(LockId::Fissile.is_model_checked());
        assert!(LockId::Mcscr.is_model_checked());
        // The qspinlocks use a global per-CPU node table and cannot be
        // instantiated with an instrumented atomic family.
        assert!(!LockId::QSpinStock.is_model_checked());
        assert!(!LockId::QSpinCna.is_model_checked());
        assert_eq!(
            LockId::ALL
                .iter()
                .filter(|id| id.is_model_checked())
                .count(),
            15
        );
    }

    #[test]
    fn linted_set_covers_every_lock() {
        for id in LockId::ALL {
            assert!(id.is_linted(), "{id}: lint-audit coverage drifted");
        }
    }

    #[test]
    fn compactness_matches_the_built_lock_size() {
        for id in LockId::ALL {
            assert_eq!(
                id.compactness(),
                id.build().lock_size(),
                "{id}: registered compactness drifted from size_of"
            );
        }
    }

    #[test]
    fn compactness_agrees_with_the_compact_predicate() {
        for id in LockId::ALL {
            assert_eq!(
                id.is_compact(),
                id.compactness() <= std::mem::size_of::<usize>(),
                "{id}: is_compact() disagrees with compactness()"
            );
        }
    }

    #[test]
    fn fairness_classes_match_the_paper() {
        use FairnessClass::*;
        assert_eq!(LockId::Mcs.fairness_class(), Fifo);
        assert_eq!(LockId::QSpinStock.fairness_class(), Fifo);
        assert_eq!(LockId::Tas.fairness_class(), None);
        assert_eq!(LockId::Hbo.fairness_class(), None);
        assert_eq!(LockId::Hmcs.fairness_class(), CohortBounded);
        assert_eq!(LockId::Cna.fairness_class(), EpochBounded);
        assert_eq!(LockId::QSpinCna.fairness_class(), EpochBounded);
        // The admission family trades FIFO for throughput: Fissile barges
        // (unordered, starvation bounded only by the handoff bit), MCSCR
        // recirculates its passive list on a release cadence (epochal).
        assert_eq!(LockId::Fissile.fairness_class(), None);
        assert_eq!(LockId::Mcscr.fairness_class(), EpochBounded);
        // Every NUMA-aware lock trades strict FIFO away, and a FIFO class
        // always means a NUMA-oblivious lock. (The converse no longer holds:
        // MCSCR is NUMA-oblivious yet epoch-bounded by recirculation.)
        for id in LockId::ALL {
            if id.is_numa_aware() {
                assert_ne!(
                    id.fairness_class(),
                    Fifo,
                    "{id}: NUMA-aware locks cannot be strictly FIFO"
                );
            }
            if id.fairness_class() == Fifo {
                assert!(
                    !id.is_numa_aware(),
                    "{id}: FIFO admission precludes NUMA preference"
                );
            }
        }
        assert_eq!(FairnessClass::EpochBounded.to_string(), "epoch-bounded");
    }
}
