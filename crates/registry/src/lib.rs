//! The lock registry: every evaluated algorithm, addressable by name.
//!
//! This crate is the workspace's equivalent of LiTL's interposition table
//! (§7 of the paper): one [`LockId`] per evaluated algorithm and one row per
//! id in one table. A row holds what only a person can say about the
//! lock — its name, description, fairness class, NUMA-awareness, simulator
//! model and `parse` aliases — and the factory that builds it. Everything
//! the built lock knows itself (its plot label, its size, whether it has a
//! non-blocking path) is read off the [`DynLock`] the factory returns. The
//! harness, the kernel substrates, the storage substrates, the figure table
//! and the `lockbench` CLI all consume this table, so adding a lock
//! algorithm means adding **one row here** — every workload can then drive
//! it by name.
//!
//! * `LockId::ALL` — the canonical list, derived from the table (both
//!   qspinlock slow paths and the §6 "CNA (opt)" variant included).
//! * [`LockId::build`] — `LockId → DynLock` (the type-erased real lock).
//! * [`LockId::sim_algorithm`] — `LockId → LockAlgorithm` (the simulator
//!   policy model); total by construction.
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

/// One registered algorithm: the facts about it that its built lock cannot
/// report, and the factory that builds it.
struct Row {
    id: LockId,
    /// Canonical, unique, parseable name (the `lockbench --lock` token).
    name: &'static str,
    /// One line for `lockbench list`.
    description: &'static str,
    fairness: FairnessClass,
    /// Whether the hand-over policy prefers same-socket successors.
    numa_aware: bool,
    /// The simulator policy model. Algorithms whose *admission order*
    /// coincides share one: CLH and the stock qspinlock grant strictly FIFO
    /// like MCS, PTL admits like a ticket lock, TTAS-backoff races like TAS,
    /// and the CNA-slow-path qspinlock admits like CNA.
    sim: LockAlgorithm,
    /// Further names [`LockId::parse`] accepts, in its normalised form.
    aliases: &'static [&'static str],
    /// `DynLock::new_try::<T>` for a [`RawTryLock`](sync_core::RawTryLock),
    /// `DynLock::new::<T>` otherwise. Written out literally, so `cnalint`'s
    /// `lock-word-compactness` rule can find every registered type.
    build: fn() -> DynLock,
}

/// The registry, in `LockId` declaration order (asserted below).
static TABLE: [Row; 17] = [
    Row {
        id: LockId::Tas,
        name: "tas",
        description: "test-and-set spin lock (§2 baseline)",
        fairness: FairnessClass::None,
        numa_aware: false,
        sim: LockAlgorithm::Tas,
        aliases: &["test-and-set"],
        build: DynLock::new_try::<TestAndSetLock>,
    },
    Row {
        id: LockId::TtasBackoff,
        name: "ttas-bo",
        description: "test-and-test-and-set with exponential backoff",
        fairness: FairnessClass::None,
        numa_aware: false,
        sim: LockAlgorithm::Tas,
        aliases: &["ttas", "backoff"],
        build: DynLock::new_try::<TtasBackoffLock>,
    },
    Row {
        id: LockId::Ticket,
        name: "ticket",
        description: "ticket lock (FIFO, global spinning)",
        fairness: FairnessClass::Fifo,
        numa_aware: false,
        sim: LockAlgorithm::Ticket,
        aliases: &["tkt"],
        build: DynLock::new_try::<TicketLock>,
    },
    Row {
        id: LockId::PartitionedTicket,
        name: "ptl",
        description: "partitioned ticket lock (FIFO, distributed grants)",
        fairness: FairnessClass::Fifo,
        numa_aware: false,
        sim: LockAlgorithm::Ticket,
        aliases: &["partitioned-ticket"],
        build: DynLock::new::<PartitionedTicketLock>,
    },
    Row {
        id: LockId::Clh,
        name: "clh",
        description: "CLH queue lock (implicit predecessor queue)",
        fairness: FairnessClass::Fifo,
        numa_aware: false,
        sim: LockAlgorithm::Mcs,
        aliases: &[],
        build: DynLock::new::<ClhLock>,
    },
    Row {
        id: LockId::Mcs,
        name: "mcs",
        description: "MCS queue lock (the paper's main baseline)",
        fairness: FairnessClass::Fifo,
        numa_aware: false,
        sim: LockAlgorithm::Mcs,
        aliases: &[],
        build: DynLock::new::<McsLock>,
    },
    Row {
        id: LockId::Hbo,
        name: "hbo",
        description: "hierarchical backoff lock (NUMA-aware, unfair)",
        fairness: FairnessClass::None,
        numa_aware: true,
        sim: LockAlgorithm::Hbo,
        aliases: &[],
        build: DynLock::new_try::<HboLock>,
    },
    Row {
        id: LockId::CBoMcs,
        name: "c-bo-mcs",
        description: "cohort lock: backoff global / MCS locals",
        fairness: FairnessClass::CohortBounded,
        numa_aware: true,
        sim: LockAlgorithm::CBoMcs,
        aliases: &["cohort"],
        build: DynLock::new::<CBoMcsLock>,
    },
    Row {
        id: LockId::CTktTkt,
        name: "c-tkt-tkt",
        description: "cohort lock: ticket global / ticket locals",
        fairness: FairnessClass::CohortBounded,
        numa_aware: true,
        sim: LockAlgorithm::CTktTkt,
        aliases: &[],
        build: DynLock::new::<CTktTktLock>,
    },
    Row {
        id: LockId::CPtlTkt,
        name: "c-ptl-tkt",
        description: "cohort lock: partitioned-ticket global / ticket locals",
        fairness: FairnessClass::CohortBounded,
        numa_aware: true,
        sim: LockAlgorithm::CPtlTkt,
        aliases: &[],
        build: DynLock::new::<CPtlTktLock>,
    },
    Row {
        id: LockId::Hmcs,
        name: "hmcs",
        description: "two-level hierarchical MCS",
        fairness: FairnessClass::CohortBounded,
        numa_aware: true,
        sim: LockAlgorithm::Hmcs,
        aliases: &[],
        build: DynLock::new::<HmcsLock>,
    },
    Row {
        id: LockId::Cna,
        name: "cna",
        description: "compact NUMA-aware lock (the paper's algorithm)",
        fairness: FairnessClass::EpochBounded,
        numa_aware: true,
        sim: LockAlgorithm::Cna,
        aliases: &[],
        build: DynLock::new::<CnaLock>,
    },
    Row {
        id: LockId::CnaOpt,
        name: "cna-opt",
        description: "CNA with the §6 shuffle-reduction optimisation",
        fairness: FairnessClass::EpochBounded,
        numa_aware: true,
        sim: LockAlgorithm::CnaOpt,
        aliases: &["cna-sr", "cnaopt"],
        build: DynLock::new::<CnaLockOpt>,
    },
    Row {
        id: LockId::QSpinStock,
        name: "qspinlock-stock",
        description: "4-byte kernel qspinlock, stock MCS slow path",
        fairness: FairnessClass::Fifo,
        numa_aware: false,
        sim: LockAlgorithm::Mcs,
        aliases: &["stock", "qspinlock"],
        build: DynLock::new_try::<StockQSpinLock>,
    },
    Row {
        id: LockId::QSpinCna,
        name: "qspinlock-cna",
        description: "4-byte kernel qspinlock, CNA slow path (the paper's patch)",
        fairness: FairnessClass::EpochBounded,
        numa_aware: true,
        sim: LockAlgorithm::Cna,
        aliases: &["qspinlock-opt"],
        build: DynLock::new_try::<CnaQSpinLock>,
    },
    Row {
        id: LockId::Fissile,
        name: "fissile",
        description: "Fissile lock: TS fast path + MCS slow path, bounded barging",
        fairness: FairnessClass::None,
        numa_aware: false,
        sim: LockAlgorithm::Fissile,
        aliases: &[],
        build: DynLock::new_try::<FissileLock>,
    },
    // MCSCR recirculates passive waiters back into the active set on a fixed
    // release cadence — long-term (not short-term) fairness, structurally the
    // same guarantee CNA's epochs give.
    Row {
        id: LockId::Mcscr,
        name: "mcscr",
        description: "concurrency-restricting MCS (bounded active set, passive list)",
        fairness: FairnessClass::EpochBounded,
        numa_aware: false,
        sim: LockAlgorithm::Mcscr,
        aliases: &["cr", "mcs-cr"],
        build: DynLock::new::<McsCrLock>,
    },
];

// Row `i` is the row of the id whose discriminant is `i`, so a field read is
// one index and `LockId::ALL` lists the ids in declaration order.
const _: () = {
    let mut i = 0;
    while i < TABLE.len() {
        assert!(
            TABLE[i].id as usize == i,
            "registry rows out of LockId order"
        );
        i += 1;
    }
};

impl LockId {
    /// All registered algorithms, in the order `lockbench list` prints them:
    /// the ids of the table's rows.
    pub const ALL: [LockId; 17] = {
        let mut all = [LockId::Tas; TABLE.len()];
        let mut i = 0;
        while i < all.len() {
            all[i] = TABLE[i].id;
            i += 1;
        }
        all
    };

    const fn row(self) -> &'static Row {
        &TABLE[self as usize]
    }

    /// Canonical, unique, parseable name (the `lockbench --lock` token).
    pub const fn name(self) -> &'static str {
        self.row().name
    }

    /// One-line description for `lockbench list`.
    pub const fn description(self) -> &'static str {
        self.row().description
    }

    /// The long-term fairness guarantee of the hand-over policy (§4).
    pub const fn fairness_class(self) -> FairnessClass {
        self.row().fairness
    }

    /// Whether the hand-over policy prefers same-socket successors.
    pub const fn is_numa_aware(self) -> bool {
        self.row().numa_aware
    }

    /// The simulator policy model of this algorithm — the total mapping
    /// `LockId → LockAlgorithm`.
    pub const fn sim_algorithm(self) -> LockAlgorithm {
        self.row().sim
    }

    /// Builds the type-erased real lock — the `LockId → DynLock` factory.
    pub fn build(self) -> DynLock {
        (self.row().build)()
    }

    /// The [`RawLock::NAME`](sync_core::RawLock::NAME) of the built lock —
    /// the label used in the paper's plots. Not unique: both
    /// [`LockId::Cna`] and [`LockId::QSpinCna`] are plotted as "CNA".
    pub fn raw_name(self) -> &'static str {
        self.build().name()
    }

    /// `size_of` the built lock in bytes — the paper's compactness measure
    /// (see [`DynLock::lock_size`]). `tests/compactness.rs` pins the value
    /// for every registered type.
    pub fn compactness(self) -> usize {
        self.build().lock_size()
    }

    /// Whether the lock's shared state fits in a word independent of the
    /// socket count — the paper's compactness criterion. A compact lock is
    /// stored in place in the [`DynLock`] [`build`](Self::build) returns;
    /// the others are boxed.
    pub fn is_compact(self) -> bool {
        self.compactness() <= std::mem::size_of::<usize>()
    }

    /// Whether [`DynLock::try_lock`] has a real non-blocking path: the row
    /// builds its lock through `DynLock::new_try`.
    pub fn supports_try_lock(self) -> bool {
        self.build().supports_try_lock()
    }

    /// Parses a lock name (canonical names plus a few common aliases),
    /// case-insensitively.
    pub fn parse(name: &str) -> Result<LockId, UnknownLockError> {
        let normalized: String = name.trim().to_ascii_lowercase().replace(['_', ' '], "-");
        TABLE
            .iter()
            .find(|row| row.name == normalized || row.aliases.contains(&normalized.as_str()))
            .map(|row| row.id)
            .ok_or_else(|| UnknownLockError {
                name: name.to_string(),
            })
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

    /// `parse` takes the first row that matches, so no alias may shadow
    /// another row's name or alias.
    #[test]
    fn every_alias_parses_to_its_own_row() {
        let mut seen: HashSet<&str> = LockId::ALL.iter().map(|id| id.name()).collect();
        for row in &TABLE {
            for alias in row.aliases {
                assert!(seen.insert(*alias), "{alias:?} is claimed twice");
                assert_eq!(LockId::parse(alias).unwrap(), row.id);
            }
        }
        assert_eq!(LockId::parse("Mcs_CR").unwrap(), LockId::Mcscr);
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
    /// the omission. (The diagnostic-only always/never-flush CNA parameter
    /// types are deliberately not part of the evaluated set.)
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

    /// The plot labels are the built locks' `RawLock::NAME`s; pin them, so a
    /// renamed type constant cannot relabel a figure unnoticed.
    #[test]
    fn labels_are_the_papers_plot_labels() {
        assert_eq!(
            LockId::ALL.map(LockId::raw_name),
            [
                "TAS",
                "TTAS-BO",
                "Ticket",
                "PTL",
                "CLH",
                "MCS",
                "HBO",
                "C-BO-MCS",
                "C-TKT-TKT",
                "C-PTL-TKT",
                "HMCS",
                "CNA",
                "CNA (opt)",
                "stock",
                "CNA",
                "Fissile",
                "MCSCR",
            ]
        );
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
