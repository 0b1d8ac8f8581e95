//! The lock scenario suite: ready-made [`Scenario`]s for every generically
//! wired lock algorithm and for leveldb-lite's memtable publish protocol,
//! plus the ordering-mutation audit.
//!
//! Each scenario instantiates the *production lock source* with the
//! [`ModelAtomics`] family: `k` threads acquire the shared lock, enter a
//! [`CriticalSection`], bump a race-checked [`Data`] counter, and release; a
//! finale asserts no update was lost. Queue nodes live in the scenario state
//! (not on body stacks) so a violation-aborted execution cannot free memory
//! another thread still references.

use cna::raw::{AlwaysFlushParams, CnaLock, NeverFlushParams, PaperParams, ShuffleReductionParams};
use leveldb_lite::MemTable;
use locks::{
    CBoMcsLock, CPtlTktLock, CTktTktLock, ClhLock, FissileLock, HboLock, HmcsLock, McsCrLock,
    McsLock, PartitionedTicketLock, TestAndSetLock, TicketLock, TtasBackoffLock,
};
use numa_topology::SocketOverrideGuard;
use sync_core::erased::DynLock;
use sync_core::raw::{RawLock, RawTryLock};

use crate::atomic::ModelAtomics;
use crate::config::Config;
use crate::data::{CriticalSection, Data};
use crate::engine::{explore, Scenario, SiteInfo};

/// Shared state of a raw-lock scenario: the lock, one pinned queue node per
/// thread, and the checked critical region.
pub struct RawState<L: RawLock> {
    lock: L,
    nodes: Vec<L::Node>,
    cs: CriticalSection,
    counter: Data<usize>,
}

impl<L: RawLock> RawState<L> {
    fn new(lock: L, threads: usize) -> Self {
        RawState {
            lock,
            nodes: (0..threads).map(|_| L::Node::default()).collect(),
            cs: CriticalSection::new(),
            counter: Data::new(0),
        }
    }
}

/// A scenario where `threads` threads each perform `iters`
/// lock / critical-section / unlock cycles on the lock `new` builds.
///
/// Bodies reseed the `cna` thread-local RNG from the deterministic per-thread
/// seed and pin their NUMA socket to `tid % 2`, so CNA's socket decisions and
/// flush coin-flips replay identically across explorations.
pub fn raw_lock_scenario<L>(
    name: &str,
    new: fn() -> L,
    threads: usize,
    iters: usize,
) -> Scenario<'static, RawState<L>>
where
    L: RawLock + 'static,
{
    lock_cycles(name, new, threads, iters, |tid| tid % 2)
}

/// Like [`raw_lock_scenario`], but with every thread pinned to socket 0.
///
/// The cohort family's local layer (same-socket hand-off, the successor
/// spins in `cohort.rs` / the leaf level of `hmcs.rs`) is unreachable when
/// the default scenario spreads two model threads across two sockets; this
/// variant drives exactly those paths for the mutation audit.
pub fn raw_lock_scenario_same_socket<L>(
    name: &str,
    new: fn() -> L,
    threads: usize,
    iters: usize,
) -> Scenario<'static, RawState<L>>
where
    L: RawLock + 'static,
{
    lock_cycles(name, new, threads, iters, |_| 0)
}

/// The body of both raw-lock scenarios; `socket` maps a thread id to the
/// NUMA socket the thread runs on.
fn lock_cycles<L>(
    name: &str,
    new: fn() -> L,
    threads: usize,
    iters: usize,
    socket: fn(usize) -> usize,
) -> Scenario<'static, RawState<L>>
where
    L: RawLock + 'static,
{
    Scenario::new(name, move || RawState::new(new(), threads))
        .threads(threads, move |s: &RawState<L>, env| {
            cna::rng::reseed(env.seed);
            let _socket = SocketOverrideGuard::new(socket(env.tid));
            for _ in 0..iters {
                // SAFETY: the node is owned by the scenario state, pinned for
                // the whole execution, and used by this thread only.
                unsafe {
                    s.lock.lock(&s.nodes[env.tid]);
                    {
                        let _cs = s.cs.enter();
                        s.counter.with(|c| *c += 1);
                    }
                    s.lock.unlock(&s.nodes[env.tid]);
                }
            }
        })
        .finale(move |s| {
            s.counter.read(|c| {
                assert_eq!(*c, threads * iters, "critical-section update lost");
            })
        })
}

/// A scenario where each thread makes one `try_lock` attempt on the lock
/// `new` builds, entering the checked region only on success.
pub fn try_lock_scenario<L>(
    name: &str,
    new: fn() -> L,
    threads: usize,
) -> Scenario<'static, RawState<L>>
where
    L: RawTryLock + 'static,
{
    Scenario::new(name, move || RawState::new(new(), threads))
        .threads(threads, move |s: &RawState<L>, env| {
            cna::rng::reseed(env.seed);
            let _socket = SocketOverrideGuard::new(env.tid % 2);
            // SAFETY: as in `lock_cycles`.
            unsafe {
                if s.lock.try_lock(&s.nodes[env.tid]) {
                    {
                        let _cs = s.cs.enter();
                        s.counter.with(|c| *c += 1);
                    }
                    s.lock.unlock(&s.nodes[env.tid]);
                }
            }
        })
        .finale(move |s| {
            s.counter.read(|c| {
                // The lock starts free, so at least one attempt must succeed.
                assert!(
                    (1..=threads).contains(c),
                    "try_lock successes out of range: {c}"
                );
            })
        })
}

/// Shared state of the erased-lock (node-pool handoff) scenario.
pub struct DynState {
    lock: DynLock,
    cs: CriticalSection,
    counter: Data<usize>,
}

/// MCS behind [`DynLock`]: nodes come from the thread-local node pool and
/// each thread acquires twice, exercising pool handoff and reuse — the
/// lost-wakeup surface called out for the checker.
pub fn dyn_mcs_pool_scenario(threads: usize) -> Scenario<'static, DynState> {
    Scenario::new("dyn-mcs-pool", move || DynState {
        lock: DynLock::new::<McsLock<ModelAtomics>>(),
        cs: CriticalSection::new(),
        counter: Data::new(0),
    })
    .threads(threads, move |s: &DynState, env| {
        cna::rng::reseed(env.seed);
        let _socket = SocketOverrideGuard::new(env.tid % 2);
        for _ in 0..2 {
            // SAFETY: the token is released once, on this thread.
            unsafe {
                let token = s.lock.raw_lock();
                {
                    let _cs = s.cs.enter();
                    s.counter.with(|c| *c += 1);
                }
                s.lock.raw_unlock(token);
            }
        }
    })
    .finale(move |s| {
        s.counter
            .read(|c| assert_eq!(*c, threads * 2, "pool handoff lost an update"))
    })
}

/// leveldb-lite's memtable under the model family.
pub type ModelMemTable = MemTable<ModelAtomics>;

/// The memtable's publish protocol: one writer inserts `c` between the
/// prefilled `b` and `d`, then overwrites it, while one reader searches.
///
/// The reader must see `c` absent or with a value the writer wrote, and must
/// always find `d`. A half-linked `c` shows up as the second failure: its
/// links are set by `Relaxed` stores before the `Release` publish, so a
/// reader that reaches `c` without the publish edge may read a link still
/// null and lose every key behind it. The value cell's bytes are plain
/// memory the checker does not track (see "Limits of the audit" in
/// `docs/orderings.md`).
pub fn memtable_publish_scenario() -> Scenario<'static, ModelMemTable> {
    Scenario::new("memtable-publish", || {
        let mut table = ModelMemTable::new_in();
        table.put(b"b", b"b0");
        table.put(b"d", b"d0");
        table
    })
    .thread(|table: &ModelMemTable, _| {
        // SAFETY: this is the scenario's only writer, and nothing reclaims
        // while the reader runs.
        unsafe {
            table.insert(b"c", b"c1");
            table.insert(b"c", b"c2");
        }
    })
    .thread(|table: &ModelMemTable, _| {
        let c = table.get(b"c");
        assert!(
            matches!(c.as_deref(), None | Some(b"c1") | Some(b"c2")),
            "reader saw a value nobody wrote: {c:?}"
        );
        assert_eq!(
            table.get(b"d").as_deref(),
            Some(&b"d0"[..]),
            "a present key went missing behind a half-linked node"
        );
    })
    .finale(|table| {
        assert_eq!(table.len(), 3);
        assert_eq!(table.get(b"c").as_deref(), Some(&b"c2"[..]));
    })
}

/// MCS under the model family.
pub type ModelMcs = McsLock<ModelAtomics>;
/// CLH under the model family.
pub type ModelClh = ClhLock<ModelAtomics>;
/// Ticket lock under the model family.
pub type ModelTicket = TicketLock<ModelAtomics>;
/// Partitioned ticket lock under the model family.
pub type ModelPtl = PartitionedTicketLock<ModelAtomics>;
/// Test-and-set lock under the model family.
pub type ModelTas = TestAndSetLock<ModelAtomics>;
/// CNA (paper parameters) under the model family.
pub type ModelCna = CnaLock<PaperParams, ModelAtomics>;
/// CNA that always flushes the secondary queue.
pub type ModelCnaAlwaysFlush = CnaLock<AlwaysFlushParams, ModelAtomics>;
/// CNA that never flushes (starvation-prone variant).
pub type ModelCnaNeverFlush = CnaLock<NeverFlushParams, ModelAtomics>;
/// "CNA (opt)": CNA with the §6 shuffle reduction, under the model family.
pub type ModelCnaOpt = CnaLock<ShuffleReductionParams, ModelAtomics>;
/// TTAS backoff lock under the model family (the C-BO-MCS global layer).
pub type ModelTtasBackoff = TtasBackoffLock<ModelAtomics>;
/// HBO under the model family (single word, no per-socket allocation).
pub type ModelHbo = HboLock<ModelAtomics>;
/// Fissile under the model family (TS fast path + MCS slow path).
pub type ModelFissile = FissileLock<ModelAtomics>;

/// MCSCR under the model family, pinned to recirculate a passive waiter on
/// *every* release so exploration reaches the cull/promote/recirculate paths
/// within a handful of acquisitions (the production cadence of 64 would keep
/// the bounded tree on the plain-MCS paths only).
pub fn model_mcscr() -> McsCrLock<ModelAtomics> {
    McsCrLock::with_recirc_every(1)
}

// The topology-sized locks are pinned to two sockets and a fixed hand-over
// budget, so exploration is identical on any host (their `Default` sizes
// the lock from the machine's real topology). A budget of 1 reaches both
// the local-pass and the global-release paths within two acquisitions.

/// C-BO-MCS under the model family: 2 sockets, batch budget 1.
pub fn model_c_bo_mcs() -> CBoMcsLock<ModelAtomics> {
    CBoMcsLock::with_sockets_in(2, 1)
}

/// C-TKT-TKT under the model family: 2 sockets, batch budget 1.
pub fn model_c_tkt_tkt() -> CTktTktLock<ModelAtomics> {
    CTktTktLock::with_sockets_in(2, 1)
}

/// C-PTL-TKT under the model family: 2 sockets, batch budget 1.
pub fn model_c_ptl_tkt() -> CPtlTktLock<ModelAtomics> {
    CPtlTktLock::with_sockets_in(2, 1)
}

/// HMCS under the model family: 2 sockets, pass threshold 2.
pub fn model_hmcs() -> HmcsLock<ModelAtomics> {
    HmcsLock::with_sockets_in(2, 2)
}

/// Explores one smoke row: takes the row's name and a thread count, returns
/// the explored-schedule count.
pub type SmokeRun = fn(&str, usize) -> u64;

/// The smoke matrix: every lock [`run_smoke`] explores, each with the
/// function that explores it. `lockbench list` marks a registered lock
/// `checked` when its name has a row here.
pub const SMOKE: &[(&str, SmokeRun)] = &[
    ("tas", |n, t| smoke(n, ModelTas::default, t)),
    ("ticket", |n, t| smoke(n, ModelTicket::default, t)),
    ("ptl", |n, t| smoke(n, ModelPtl::default, t)),
    ("clh", |n, t| smoke(n, ModelClh::default, t)),
    ("mcs", |n, t| smoke(n, ModelMcs::default, t)),
    ("cna", |n, t| smoke(n, ModelCna::default, t)),
    ("cna-always-flush", |n, t| {
        smoke(n, ModelCnaAlwaysFlush::default, t)
    }),
    ("cna-never-flush", |n, t| {
        smoke(n, ModelCnaNeverFlush::default, t)
    }),
    ("cna-opt", |n, t| smoke(n, ModelCnaOpt::default, t)),
    ("ttas-bo", |n, t| smoke(n, ModelTtasBackoff::default, t)),
    ("hbo", |n, t| smoke(n, ModelHbo::default, t)),
    ("c-bo-mcs", |n, t| smoke(n, model_c_bo_mcs, t)),
    ("c-tkt-tkt", |n, t| smoke(n, model_c_tkt_tkt, t)),
    ("c-ptl-tkt", |n, t| smoke(n, model_c_ptl_tkt, t)),
    ("hmcs", |n, t| smoke(n, model_hmcs, t)),
    ("fissile", |n, t| smoke(n, ModelFissile::default, t)),
    ("mcscr", |n, t| smoke(n, model_mcscr, t)),
];

/// Runs the named [`SMOKE`] row (`threads` threads, one acquisition each)
/// under [`Config::from_env`] and panics with the counterexample on a
/// violation. Returns the explored-schedule count.
pub fn run_smoke(name: &str, threads: usize) -> u64 {
    let (name, run) = SMOKE
        .iter()
        .find(|(row, _)| *row == name)
        .unwrap_or_else(|| panic!("unknown smoke scenario {name:?}"));
    run(name, threads)
}

fn smoke<L: RawLock + 'static>(name: &str, new: fn() -> L, threads: usize) -> u64 {
    let report = explore(
        &Config::from_env(name),
        &raw_lock_scenario(name, new, threads, 1),
    );
    report.assert_ok();
    report.schedules
}

/// The verdict of mutating one ordering site to `Relaxed`.
#[derive(Debug, Clone)]
pub struct SiteVerdict {
    /// The mutated site.
    pub site: SiteInfo,
    /// `true` when the checker found a violation under the mutation — the
    /// declared ordering is load-bearing. `false` marks a candidate for a
    /// (model-level) relaxation, pending a C11-soundness argument.
    pub caught: bool,
    /// Schedules explored for this mutation.
    pub schedules: u64,
}

/// Mutation audit: explores `scenario` once cleanly, then re-explores with
/// each non-`Relaxed` ordering site individually weakened to `Relaxed`,
/// reporting which mutations the checkers catch. This is the evidence base
/// of `docs/orderings.md`.
pub fn audit<S: Send + Sync>(cfg: &Config, scenario: &Scenario<'_, S>) -> Vec<SiteVerdict> {
    let clean = explore(cfg, scenario);
    clean.assert_ok();
    clean
        .sites
        .iter()
        .filter(|s| s.ordering != "Relaxed")
        .map(|info| {
            let mcfg = cfg
                .clone()
                .with_mutation(crate::config::Mutation::at(info.file, info.line));
            let r = explore(&mcfg, scenario);
            SiteVerdict {
                site: info.clone(),
                caught: r.violation.is_some(),
                schedules: r.schedules,
            }
        })
        .collect()
}

/// The ordering site targeted by a seeded mutation self-test: the last
/// (largest-line) site in `file_suffix` with the given kind and ordering.
/// For `("mcs.rs", "store", "Release")` that is the unlock handoff store —
/// weakening it must produce a detectable violation.
pub fn find_site<'r>(
    sites: &'r [SiteInfo],
    file_suffix: &str,
    kind: &str,
    ordering: &str,
) -> Option<&'r SiteInfo> {
    sites
        .iter()
        .filter(|s| s.file.ends_with(file_suffix) && s.kind == kind && s.ordering == ordering)
        .max_by_key(|s| s.line)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Mutation;
    use crate::violation::Violation;
    use sync_core::atomics::{AtomicCell, Atomics};

    fn quick(name: &str) -> Config {
        let mut cfg = Config::smoke(name);
        cfg.max_schedules = 50_000;
        cfg.trace_dir = None;
        cfg
    }

    #[test]
    fn tas_two_threads_holds_mutual_exclusion() {
        let r = explore(
            &quick("tas2"),
            &raw_lock_scenario("tas", ModelTas::default, 2, 1),
        );
        r.assert_ok();
        assert!(r.schedules > 1, "explored more than one interleaving");
    }

    #[test]
    fn mcs_two_threads_holds_mutual_exclusion() {
        let r = explore(
            &quick("mcs2"),
            &raw_lock_scenario("mcs", ModelMcs::default, 2, 1),
        );
        r.assert_ok();
        assert!(!r.sites.is_empty(), "sites were recorded");
    }

    #[test]
    fn message_passing_litmus_without_release_is_a_race() {
        // Classic MP: relaxed flag handoff must race on the payload.
        struct Mp {
            flag: <ModelAtomics as Atomics>::Bool,
            payload: Data<u32>,
        }
        let scenario = Scenario::new("mp-relaxed", || Mp {
            flag: <ModelAtomics as Atomics>::Bool::new(false),
            payload: Data::new(0),
        })
        .thread(|s: &Mp, _| {
            s.payload.with(|p| *p = 42);
            s.flag.store(true, std::sync::atomic::Ordering::Relaxed);
        })
        .thread(|s: &Mp, _| {
            if s.flag.load(std::sync::atomic::Ordering::Relaxed) {
                s.payload.read(|p| {
                    let _ = *p;
                });
            }
        });
        let r = explore(&quick("mp"), &scenario);
        let v = r.expect_violation();
        assert!(
            matches!(v.violation, Violation::DataRace { .. }),
            "{}",
            v.trace
        );
    }

    #[test]
    fn deadlock_is_detected() {
        // Thread 0 locks and never unlocks; thread 1 parks forever.
        let scenario = Scenario::new("deadlock", || RawState::new(ModelTas::default(), 2))
            // SAFETY(test): pinned nodes; the unmatched lock is the point.
            .thread(|s: &RawState<ModelTas>, _| unsafe {
                s.lock.lock(&s.nodes[0]);
            })
            // SAFETY(test): pinned node, matched pair.
            .thread(|s: &RawState<ModelTas>, _| unsafe {
                s.lock.lock(&s.nodes[1]);
                s.lock.unlock(&s.nodes[1]);
            });
        let r = explore(&quick("dl"), &scenario);
        let v = r.expect_violation();
        assert!(
            matches!(v.violation, Violation::Deadlock { .. }),
            "{}",
            v.trace
        );
    }

    #[test]
    fn ttas_backoff_two_threads_holds_mutual_exclusion() {
        let r = explore(
            &quick("ttas2"),
            &raw_lock_scenario("ttas-bo", ModelTtasBackoff::default, 2, 1),
        );
        r.assert_ok();
        assert!(r.schedules > 1);
    }

    #[test]
    fn hbo_two_threads_holds_mutual_exclusion() {
        let r = explore(
            &quick("hbo2"),
            &raw_lock_scenario("hbo", ModelHbo::default, 2, 1),
        );
        r.assert_ok();
    }

    #[test]
    fn c_bo_mcs_two_threads_holds_mutual_exclusion() {
        let r = explore(
            &quick("cbomcs2"),
            &raw_lock_scenario("c-bo-mcs", model_c_bo_mcs, 2, 1),
        );
        r.assert_ok();
    }

    #[test]
    fn hmcs_two_threads_holds_mutual_exclusion() {
        let r = explore(
            &quick("hmcs2"),
            &raw_lock_scenario("hmcs", model_hmcs, 2, 1),
        );
        r.assert_ok();
    }

    #[test]
    fn fissile_two_threads_holds_mutual_exclusion() {
        let r = explore(
            &quick("fissile2"),
            &raw_lock_scenario("fissile", ModelFissile::default, 2, 1),
        );
        r.assert_ok();
        assert!(r.schedules > 1);
    }

    #[test]
    fn fissile_two_threads_two_iters_reaches_the_queue_paths() {
        // One acquisition each can resolve entirely on the TS fast path;
        // two iterations force queue traffic and the head handoff.
        let r = explore(
            &quick("fissile2x2"),
            &raw_lock_scenario("fissile", ModelFissile::default, 2, 2),
        );
        r.assert_ok();
    }

    #[test]
    fn mcscr_two_threads_holds_mutual_exclusion() {
        let r = explore(
            &quick("mcscr2"),
            &raw_lock_scenario("mcscr", model_mcscr, 2, 1),
        );
        r.assert_ok();
        assert!(r.schedules > 1);
    }

    #[test]
    fn mcscr_two_threads_two_iters_reaches_recirculation() {
        // recirc_every is pinned to 1 in model_mcscr, so repeated releases
        // drive the cull/promote/recirculate paths inside the bounded tree.
        let r = explore(
            &quick("mcscr2x2"),
            &raw_lock_scenario("mcscr", model_mcscr, 2, 2),
        );
        r.assert_ok();
    }

    #[test]
    fn memtable_readers_never_see_a_half_linked_node_unless_the_publish_is_relaxed() {
        let clean = explore(&quick("memtable"), &memtable_publish_scenario());
        clean.assert_ok();
        assert!(clean.schedules > 1, "explored more than one interleaving");
        // The last `Release` store in the file is the bottom-up publish.
        let site = find_site(&clean.sites, "memtable.rs", "store", "Release")
            .expect("memtable publish store site");
        let cfg = quick("memtable-mut").with_mutation(Mutation::at(site.file, site.line));
        let r = explore(&cfg, &memtable_publish_scenario());
        let v = r.expect_violation();
        assert!(v.trace.contains("MUTATED->Relaxed"), "{}", v.trace);
        assert!(
            matches!(v.violation, Violation::AssertFailed { .. }),
            "{}",
            v.trace
        );
    }

    #[test]
    fn mcs_handoff_weakened_to_relaxed_is_caught() {
        let clean = explore(
            &quick("mcs-a"),
            &raw_lock_scenario("mcs", ModelMcs::default, 2, 1),
        );
        clean.assert_ok();
        let site =
            find_site(&clean.sites, "mcs.rs", "store", "Release").expect("mcs handoff store site");
        let cfg = quick("mcs-mut").with_mutation(Mutation::at(site.file, site.line));
        let r = explore(&cfg, &raw_lock_scenario("mcs", ModelMcs::default, 2, 1));
        let v = r.expect_violation();
        assert!(v.trace.contains("MUTATED->Relaxed"), "{}", v.trace);
        assert!(v.minimized_events <= v.original_events);
    }
}
