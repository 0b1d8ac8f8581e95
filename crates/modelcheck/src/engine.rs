//! The exploration engine.
//!
//! One execution runs the scenario's thread bodies on pooled OS workers with
//! exactly one thread active at a time (a baton passed through a single
//! `Mutex<ExecCore>` + `Condvar`). Every instrumented operation acquires the
//! baton, applies its weak-memory semantics to the model state, records an
//! [`Event`], and asks the scheduler which thread runs next.
//!
//! Exploration is an explicit-stack DFS over *decisions*: scheduling picks
//! (which runnable thread steps next, subject to the preemption bound) and
//! value picks (which store in a cell's bounded history a relaxed load may
//! observe). After each execution the engine backtracks the deepest
//! non-exhausted decision and replays the prefix deterministically. State
//! hashing prunes scheduling decisions whose state was already fully explored
//! with at least as much preemption budget.
//!
//! The memory model is the usual vector-clock treatment of C11 (SC fences
//! approximated as `AcqRel`): stores carry a release clock (the writer's
//! clock for `Release`-or-stronger stores, its last release-fence snapshot
//! for `Relaxed` stores), acquire loads join the clock of the store they read
//! from, relaxed loads bank it until the next acquire fence, and RMWs always
//! read the newest store while extending its release sequence. A load may
//! read any store in the cell's bounded history that is neither older than
//! the newest happens-before-visible store nor older than a store the thread
//! already observed (per-thread coherence floors).

use std::collections::{BTreeMap, HashMap};
use std::panic::Location;
use std::sync::atomic::Ordering;

use crate::clock::{mix64, VClock, MAX_THREADS};
use crate::config::Config;
use crate::trace::{ordering_name, Event, OpKind};
use crate::violation::Violation;

/// Panic payload used to unwind a thread body when the execution aborts
/// (violation found elsewhere, or replay budget exhausted). Never shown.
pub(crate) struct AbortExec;

/// Sentinel writer id for a cell's initial value: happens-before-visible to
/// every thread.
const INIT_WRITER: usize = usize::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Status {
    Runnable,
    Parked,
    Finished,
}

/// One store in a cell's bounded modification-order window.
#[derive(Debug, Clone)]
struct StoreRec {
    val: u64,
    /// Release clock: joined into readers that synchronise with this store.
    rel: VClock,
    writer: usize,
    writer_ts: u32,
    /// Modification-order index (monotone per cell).
    mo: u64,
    site: &'static Location<'static>,
}

#[derive(Debug)]
struct CellState {
    site: &'static Location<'static>,
    /// Oldest-first window of the last `store_history` stores.
    stores: Vec<StoreRec>,
    next_mo: u64,
}

#[derive(Debug)]
struct ThreadState {
    status: Status,
    clock: VClock,
    ts: u32,
    /// Clock snapshot taken at the last Release(-or-stronger) fence.
    fence_rel: VClock,
    /// Release clocks of relaxed-read stores, joined at an Acquire fence.
    acq_pend: VClock,
    /// Per-cell coherence floor: smallest mo this thread may still read.
    floor: Vec<u64>,
    /// Rolling hash of this thread's observations (part of the state hash —
    /// threads that read different values are in different states).
    obs: u64,
    /// Inside a `spin_until` condition: loads observe only the newest store.
    in_spin: bool,
}

impl ThreadState {
    fn new() -> Self {
        ThreadState {
            status: Status::Runnable,
            clock: VClock::default(),
            ts: 0,
            fence_rel: VClock::default(),
            acq_pend: VClock::default(),
            floor: Vec::new(),
            obs: 0,
            in_spin: false,
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DecisionKind {
    /// Which runnable thread steps next.
    Sched,
    /// Which store in the history window a load observes.
    Value,
}

/// One node of the DFS decision stack.
#[derive(Debug, Clone)]
struct Decision {
    kind: DecisionKind,
    /// Number of alternatives (1 when pruned).
    n: usize,
    chosen: usize,
    /// State hash at the decision point (Sched nodes with n > 1 only).
    hash: u64,
    /// Preemption budget remaining when the decision was taken.
    budget_left: u32,
    /// `true` when visited-state pruning collapsed this node.
    pruned: bool,
}

#[derive(Debug)]
struct DataState {
    #[allow(dead_code)]
    site: &'static Location<'static>,
    /// Last write: (tid, ts, writer clock at the write, site).
    last_write: Option<(usize, u32, VClock, &'static Location<'static>)>,
    /// Reads since the last write: (tid, ts, site).
    reads: Vec<(usize, u32, &'static Location<'static>)>,
}

#[derive(Debug)]
struct RegionState {
    count: u32,
}

pub(crate) struct ExecCore {
    pub(crate) cfg: Config,
    // ---- persistent explorer state (one `explore` call) ----
    decisions: Vec<Decision>,
    visited: HashMap<u64, u32>,
    pub(crate) schedules: u64,
    total_steps: u64,
    pruned_hits: u64,
    sites: BTreeMap<(&'static str, u32), (&'static str, &'static str)>,
    // ---- per-execution state ----
    exec_id: u32,
    cursor: usize,
    /// `Some(cut)`: replay `decisions[..cut]`, defaults beyond — used by the
    /// minimizer; nothing is pushed or backtracked in this mode.
    replay_prefix: Option<usize>,
    active: usize,
    n_threads: usize,
    threads: Vec<ThreadState>,
    cells: Vec<CellState>,
    datas: Vec<DataState>,
    regions: Vec<RegionState>,
    events: Vec<Event>,
    steps: u64,
    /// Bumped by every store; spin parking re-polls when it advanced.
    store_seq: u64,
    preemptions: u32,
    violation: Option<Violation>,
    abort: bool,
    done: usize,
    /// Execution generation: workers start a new body when it advances.
    gen: u64,
}

impl ExecCore {
    pub(crate) fn new() -> Self {
        ExecCore {
            cfg: Config::smoke("idle"),
            decisions: Vec::new(),
            visited: HashMap::new(),
            schedules: 0,
            total_steps: 0,
            pruned_hits: 0,
            sites: BTreeMap::new(),
            exec_id: 0,
            cursor: 0,
            replay_prefix: None,
            active: usize::MAX,
            n_threads: 0,
            threads: Vec::new(),
            cells: Vec::new(),
            datas: Vec::new(),
            regions: Vec::new(),
            events: Vec::new(),
            steps: 0,
            store_seq: 0,
            preemptions: 0,
            violation: None,
            abort: false,
            done: 0,
            gen: 0,
        }
    }

    fn reset_for_execution(&mut self, n_threads: usize) {
        self.exec_id = self.exec_id.wrapping_add(1).max(1);
        self.cursor = 0;
        self.active = usize::MAX;
        self.n_threads = n_threads;
        self.threads = (0..n_threads).map(|_| ThreadState::new()).collect();
        self.cells.clear();
        self.datas.clear();
        self.regions.clear();
        self.events.clear();
        self.steps = 0;
        self.store_seq = 0;
        self.preemptions = 0;
        self.violation = None;
        self.abort = false;
        self.done = 0;
    }

    fn tick(&mut self, tid: usize) {
        let t = &mut self.threads[tid];
        t.ts += 1;
        t.clock.0[tid] = t.ts;
    }

    fn observe(&mut self, tid: usize, site: &'static Location<'static>, kind: u64, value: u64) {
        let t = &mut self.threads[tid];
        t.obs = mix64(t.obs ^ (site as *const _ as usize as u64) ^ value ^ (kind << 56));
    }

    fn push_event(&mut self, e: Event) {
        if self.events.len() < 1 << 20 {
            self.events.push(e);
        }
    }

    fn record_site(&mut self, site: &'static Location<'static>, kind: &'static str, o: Ordering) {
        self.sites
            .entry((site.file(), site.line()))
            .or_insert((kind, ordering_name(o)));
    }

    fn budget_left(&self) -> u32 {
        self.cfg
            .preemption_bound
            .map(|b| b.saturating_sub(self.preemptions))
            .unwrap_or(u32::MAX)
    }

    fn floor_of(&self, tid: usize, cell: usize) -> u64 {
        self.threads[tid].floor.get(cell).copied().unwrap_or(0)
    }

    fn set_floor(&mut self, tid: usize, cell: usize, mo: u64) {
        let f = &mut self.threads[tid].floor;
        if f.len() <= cell {
            f.resize(cell + 1, 0);
        }
        if mo > f[cell] {
            f[cell] = mo;
        }
    }

    /// Hash of the abstract execution state, used to prune scheduling
    /// decisions whose subtree was already fully explored.
    fn state_hash(&self) -> u64 {
        let mut h: u64 = 0x6d63_6865_636b; // "mcheck"
        for t in &self.threads {
            h = mix64(
                h ^ match t.status {
                    Status::Runnable => 1,
                    Status::Parked => 2,
                    Status::Finished => 3,
                },
            );
            t.clock.hash_into(&mut h);
            t.fence_rel.hash_into(&mut h);
            t.acq_pend.hash_into(&mut h);
            h = mix64(h ^ t.obs ^ u64::from(t.in_spin));
            for &f in &t.floor {
                h = mix64(h ^ f);
            }
        }
        for c in &self.cells {
            h = mix64(h ^ (c.site as *const _ as usize as u64));
            for s in &c.stores {
                h = mix64(h ^ s.val ^ ((s.writer as u64) << 32));
                h = mix64(h ^ s.mo ^ (u64::from(s.writer_ts) << 40));
                h = mix64(h ^ (s.site as *const _ as usize as u64));
                s.rel.hash_into(&mut h);
            }
        }
        for r in &self.regions {
            h = mix64(h ^ u64::from(r.count));
        }
        mix64(h ^ self.store_seq)
    }

    /// Takes (or replays) one decision with `n` alternatives; returns the
    /// chosen index. Index 0 is always the "preferred" alternative (stay on
    /// the current thread / read the newest store), so default-extending a
    /// replayed prefix yields the most sequential continuation.
    fn decide(&mut self, kind: DecisionKind, n: usize, budget_left: u32) -> usize {
        debug_assert!(n >= 1);
        if let Some(cut) = self.replay_prefix {
            let chosen = if self.cursor < cut && self.cursor < self.decisions.len() {
                self.decisions[self.cursor].chosen.min(n - 1)
            } else {
                0
            };
            self.cursor += 1;
            return chosen;
        }
        if self.cursor < self.decisions.len() {
            let chosen = self.decisions[self.cursor].chosen.min(n - 1);
            self.cursor += 1;
            return chosen;
        }
        let mut n_eff = n;
        let mut pruned = false;
        let mut hash = 0;
        if self.cfg.pruning && kind == DecisionKind::Sched && n > 1 {
            hash = self.state_hash();
            if let Some(&b) = self.visited.get(&hash) {
                if b >= budget_left {
                    n_eff = 1;
                    pruned = true;
                    self.pruned_hits += 1;
                }
            }
        }
        self.decisions.push(Decision {
            kind,
            n: n_eff,
            chosen: 0,
            hash,
            budget_left,
            pruned,
        });
        self.cursor += 1;
        0
    }

    /// Advances the DFS to the next unexplored schedule. Returns `false`
    /// when the decision tree is exhausted.
    fn backtrack(&mut self) -> bool {
        debug_assert!(self.replay_prefix.is_none());
        loop {
            let Some(last) = self.decisions.last_mut() else {
                return false;
            };
            if last.chosen + 1 < last.n {
                last.chosen += 1;
                return true;
            }
            let d = self.decisions.pop().expect("non-empty");
            // The popped node's subtree is fully explored: remember the
            // state hash with the budget it was explored under.
            if self.cfg.pruning && d.kind == DecisionKind::Sched && d.n > 1 && !d.pruned {
                let e = self.visited.entry(d.hash).or_insert(0);
                if d.budget_left > *e {
                    *e = d.budget_left;
                }
            }
        }
    }

    /// Picks the next active thread. `prev` is the thread that just stepped
    /// (staying on it is free; switching away while it remains runnable
    /// consumes preemption budget).
    fn schedule_next(&mut self, prev: Option<usize>) {
        let runnable: Vec<usize> = (0..self.n_threads)
            .filter(|&t| self.threads[t].status == Status::Runnable)
            .collect();
        if runnable.is_empty() {
            let waiting: Vec<usize> = (0..self.n_threads)
                .filter(|&t| self.threads[t].status == Status::Parked)
                .collect();
            if !waiting.is_empty() && self.violation.is_none() {
                self.violation = Some(Violation::Deadlock { waiting });
                self.abort = true;
            }
            self.active = usize::MAX;
            return;
        }
        let stay = prev.filter(|&p| self.threads[p].status == Status::Runnable);
        let budget_left = self.budget_left();
        let mut options: Vec<usize> = Vec::with_capacity(runnable.len());
        if let Some(s) = stay {
            options.push(s);
        }
        if stay.is_none() || budget_left > 0 {
            let mut others: Vec<usize> = runnable
                .iter()
                .copied()
                .filter(|&t| Some(t) != stay)
                .collect();
            if others.len() > 1 {
                // Seeded rotation: deterministic, but different seeds explore
                // the (bounded) tree in a different order.
                let rot = (mix64(self.cfg.seed ^ self.cursor as u64) as usize) % others.len();
                others.rotate_left(rot);
            }
            options.extend(others);
        }
        let idx = self.decide(DecisionKind::Sched, options.len(), budget_left);
        let chosen = options[idx.min(options.len() - 1)];
        if let Some(s) = stay {
            if chosen != s {
                self.preemptions += 1;
            }
        }
        self.active = chosen;
    }

    /// Bookkeeping after every modeled step: step budget, then scheduling.
    fn step_epilogue(&mut self, tid: usize) {
        self.steps += 1;
        self.total_steps += 1;
        if self.violation.is_none() && self.steps > self.cfg.max_steps {
            self.violation = Some(Violation::Livelock { steps: self.steps });
            self.abort = true;
        }
        if !self.abort {
            self.schedule_next(Some(tid));
        }
    }

    // ---- weak-memory model ----

    /// Lazily registers the cell behind `reg` (packed `exec_id << 32 | idx`)
    /// for this execution, seeding its history with the current mirror value.
    fn register_cell(
        &mut self,
        reg: &std::sync::atomic::AtomicU64,
        init: u64,
        ctor_site: &'static Location<'static>,
    ) -> usize {
        let packed = reg.load(Ordering::Relaxed);
        let (eid, idx) = ((packed >> 32) as u32, packed as u32 as usize);
        if eid == self.exec_id && idx < self.cells.len() {
            return idx;
        }
        let idx = self.cells.len();
        self.cells.push(CellState {
            site: ctor_site,
            stores: vec![StoreRec {
                val: init,
                rel: VClock::default(),
                writer: INIT_WRITER,
                writer_ts: 0,
                mo: 0,
                site: ctor_site,
            }],
            next_mo: 1,
        });
        reg.store(
            (u64::from(self.exec_id) << 32) | idx as u64,
            Ordering::Relaxed,
        );
        idx
    }

    fn register_data(
        &mut self,
        reg: &std::sync::atomic::AtomicU64,
        ctor_site: &'static Location<'static>,
    ) -> usize {
        let packed = reg.load(Ordering::Relaxed);
        let (eid, idx) = ((packed >> 32) as u32, packed as u32 as usize);
        if eid == self.exec_id && idx < self.datas.len() {
            return idx;
        }
        let idx = self.datas.len();
        self.datas.push(DataState {
            site: ctor_site,
            last_write: None,
            reads: Vec::new(),
        });
        reg.store(
            (u64::from(self.exec_id) << 32) | idx as u64,
            Ordering::Relaxed,
        );
        idx
    }

    fn register_region(&mut self, reg: &std::sync::atomic::AtomicU64) -> usize {
        let packed = reg.load(Ordering::Relaxed);
        let (eid, idx) = ((packed >> 32) as u32, packed as u32 as usize);
        if eid == self.exec_id && idx < self.regions.len() {
            return idx;
        }
        let idx = self.regions.len();
        self.regions.push(RegionState { count: 0 });
        reg.store(
            (u64::from(self.exec_id) << 32) | idx as u64,
            Ordering::Relaxed,
        );
        idx
    }

    /// Models a load: picks which store in the window the thread observes
    /// (a [`DecisionKind::Value`] decision when several are admissible) and
    /// applies the synchronises-with edge. Returns `(value, lag)`.
    fn model_load(&mut self, tid: usize, cell: usize, eff: Ordering) -> (u64, u32) {
        let acquire_like = matches!(eff, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst);
        let clock = self.threads[tid].clock;
        let floor = self.floor_of(tid, cell);
        let in_spin = self.threads[tid].in_spin;
        let (cands, latest_mo) = {
            let c = &self.cells[cell];
            let latest_mo = c.stores.last().map(|s| s.mo).unwrap_or(0);
            let mut newest_hb = 0;
            for s in &c.stores {
                if (s.writer == INIT_WRITER || clock.covers(s.writer, s.writer_ts))
                    && s.mo > newest_hb
                {
                    newest_hb = s.mo;
                }
            }
            let min_mo = newest_hb.max(floor);
            let cands: Vec<usize> = (0..c.stores.len())
                .rev()
                .filter(|&i| c.stores[i].mo >= min_mo)
                .collect();
            (cands, latest_mo)
        };
        debug_assert!(!cands.is_empty());
        let n = if in_spin { 1 } else { cands.len() };
        let budget = self.budget_left();
        let pick = if n > 1 {
            self.decide(DecisionKind::Value, n, budget)
        } else {
            0
        };
        let s = self.cells[cell].stores[cands[pick.min(cands.len() - 1)]].clone();
        self.set_floor(tid, cell, s.mo);
        let t = &mut self.threads[tid];
        if acquire_like {
            t.clock.join(&s.rel);
        } else {
            t.acq_pend.join(&s.rel);
        }
        (s.val, (latest_mo - s.mo) as u32)
    }

    /// Models a store. `prev_rel` carries the release clock of the store an
    /// RMW read from, extending its release sequence.
    fn model_store(
        &mut self,
        tid: usize,
        cell: usize,
        val: u64,
        eff: Ordering,
        site: &'static Location<'static>,
        prev_rel: Option<VClock>,
    ) {
        let release_like = matches!(eff, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst);
        let mut rel = if release_like {
            self.threads[tid].clock
        } else {
            self.threads[tid].fence_rel
        };
        if let Some(p) = prev_rel {
            rel.join(&p);
        }
        let ts = self.threads[tid].ts;
        let keep = self.cfg.store_history.max(1);
        let mo = {
            let c = &mut self.cells[cell];
            let mo = c.next_mo;
            c.next_mo += 1;
            c.stores.push(StoreRec {
                val,
                rel,
                writer: tid,
                writer_ts: ts,
                mo,
                site,
            });
            if c.stores.len() > keep {
                let n = c.stores.len() - keep;
                c.stores.drain(..n);
            }
            mo
        };
        self.set_floor(tid, cell, mo);
        self.store_seq += 1;
        for t in &mut self.threads {
            if t.status == Status::Parked {
                t.status = Status::Runnable;
            }
        }
    }

    /// Models an RMW: always reads the newest store (atomicity), optionally
    /// writes `new_val`. Returns the previous value.
    fn model_rmw(
        &mut self,
        tid: usize,
        cell: usize,
        new_val: Option<u64>,
        eff: Ordering,
        site: &'static Location<'static>,
    ) -> u64 {
        let acquire_like = matches!(eff, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst);
        let s = self.cells[cell].stores.last().expect("seeded").clone();
        self.set_floor(tid, cell, s.mo);
        {
            let t = &mut self.threads[tid];
            if acquire_like {
                t.clock.join(&s.rel);
            } else {
                t.acq_pend.join(&s.rel);
            }
        }
        if let Some(v) = new_val {
            self.model_store(tid, cell, v, eff, site, Some(s.rel));
        }
        s.val
    }

    fn model_fence(&mut self, tid: usize, eff: Ordering) {
        if matches!(eff, Ordering::Acquire | Ordering::AcqRel | Ordering::SeqCst) {
            let pend = self.threads[tid].acq_pend;
            self.threads[tid].clock.join(&pend);
        }
        if matches!(eff, Ordering::Release | Ordering::AcqRel | Ordering::SeqCst) {
            self.threads[tid].fence_rel = self.threads[tid].clock;
        }
    }
}

// ---- the global core, TLS context, and the baton protocol ----

use std::cell::Cell;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::Duration;

pub(crate) struct Core {
    mu: Mutex<ExecCore>,
    cv: Condvar,
}

fn core() -> &'static Core {
    static CORE: OnceLock<Core> = OnceLock::new();
    CORE.get_or_init(|| Core {
        mu: Mutex::new(ExecCore::new()),
        cv: Condvar::new(),
    })
}

thread_local! {
    /// The model thread id of this OS worker, inside an execution.
    static CTX: Cell<Option<usize>> = const { Cell::new(None) };
    /// Inside a scenario body / finale: suppresses the default panic print
    /// (assertion failures become [`Violation::AssertFailed`] instead).
    static IN_BODY: Cell<bool> = const { Cell::new(false) };
}

/// The calling thread's model tid, or `None` when the op should fall back to
/// the plain mirror (non-model thread, or unwinding after an abort — "ghost
/// mode": instrumented drops during unwind must not lock, block, or panic).
pub(crate) fn cur_tid() -> Option<usize> {
    if std::thread::panicking() {
        return None;
    }
    CTX.with(|c| c.get())
}

fn lock_core() -> MutexGuard<'static, ExecCore> {
    core().mu.lock().unwrap_or_else(|e| e.into_inner())
}

fn abort_unwind() -> ! {
    panic::panic_any(AbortExec)
}

/// Waits until this thread holds the baton (is the execution's active
/// thread). Panics with [`AbortExec`] when the execution aborted.
fn acquire_baton(tid: usize) -> MutexGuard<'static, ExecCore> {
    let mut g = lock_core();
    loop {
        if g.abort {
            drop(g);
            abort_unwind();
        }
        if g.active == tid {
            return g;
        }
        let (ng, to) = core()
            .cv
            .wait_timeout(g, Duration::from_secs(60))
            .unwrap_or_else(|e| e.into_inner());
        g = ng;
        if to.timed_out() && g.active != tid && !g.abort {
            panic!("modelcheck: scheduler stalled 60s waiting for baton (tid {tid})");
        }
    }
}

/// Releases the baton after an op: wakes whoever was scheduled, then unwinds
/// if the execution aborted (possibly by this very op's violation).
fn finish_op(g: MutexGuard<'static, ExecCore>) {
    let abort = g.abort;
    drop(g);
    core().cv.notify_all();
    if abort {
        abort_unwind();
    }
}

/// The atomic operations the instrumented cells forward here.
pub(crate) enum AtomicOp {
    Load,
    Store(u64),
    Swap(u64),
    Cas { current: u64, new: u64 },
    Add(u64),
}

pub(crate) struct OpOut {
    /// Loaded / previous value (observed value for a failed CAS).
    pub value: u64,
    /// `false` only for a failed compare-exchange.
    pub ok: bool,
}

/// Entry point for every instrumented atomic access. `reg` is the cell's
/// packed registration word, `mirror` its always-current fallback value.
pub(crate) fn atomic_op(
    reg: &AtomicU64,
    mirror: &AtomicU64,
    ctor_site: &'static Location<'static>,
    op: AtomicOp,
    order: Ordering,
    site: &'static Location<'static>,
) -> OpOut {
    let Some(tid) = cur_tid() else {
        // Ghost / non-model path: the mirror is the value.
        return match op {
            AtomicOp::Load => OpOut {
                value: mirror.load(Ordering::SeqCst),
                ok: true,
            },
            AtomicOp::Store(v) => {
                mirror.store(v, Ordering::SeqCst);
                OpOut { value: v, ok: true }
            }
            AtomicOp::Swap(v) => OpOut {
                value: mirror.swap(v, Ordering::SeqCst),
                ok: true,
            },
            AtomicOp::Cas { current, new } => {
                match mirror.compare_exchange(current, new, Ordering::SeqCst, Ordering::SeqCst) {
                    Ok(v) => OpOut { value: v, ok: true },
                    Err(v) => OpOut {
                        value: v,
                        ok: false,
                    },
                }
            }
            AtomicOp::Add(v) => OpOut {
                value: mirror.fetch_add(v, Ordering::SeqCst),
                ok: true,
            },
        };
    };
    let mut g = acquire_baton(tid);
    let cell = g.register_cell(reg, mirror.load(Ordering::Relaxed), ctor_site);
    let (eff, mutated) = g.cfg.effective_ordering(order, site.file(), site.line());
    g.tick(tid);
    let (kind, value, lag, ok) = match op {
        AtomicOp::Load => {
            g.record_site(site, "load", order);
            let (v, lag) = g.model_load(tid, cell, eff);
            (OpKind::Load, v, lag, true)
        }
        AtomicOp::Store(v) => {
            g.record_site(site, "store", order);
            g.model_store(tid, cell, v, eff, site, None);
            mirror.store(v, Ordering::SeqCst);
            (OpKind::Store, v, 0, true)
        }
        AtomicOp::Swap(v) => {
            g.record_site(site, "rmw", order);
            let prev = g.model_rmw(tid, cell, Some(v), eff, site);
            mirror.store(v, Ordering::SeqCst);
            (OpKind::Rmw, prev, 0, true)
        }
        AtomicOp::Cas { current, new } => {
            g.record_site(site, "rmw", order);
            let latest = g.cells[cell].stores.last().expect("seeded").val;
            if latest == current {
                let prev = g.model_rmw(tid, cell, Some(new), eff, site);
                mirror.store(new, Ordering::SeqCst);
                (OpKind::Rmw, prev, 0, true)
            } else {
                // Failed CAS: a read of the newest store (failure ordering is
                // at most Acquire in our locks; model it as the success
                // ordering's load half, conservatively Acquire-less when
                // relaxed — we reuse `eff`'s acquire half via model_rmw).
                let prev = g.model_rmw(tid, cell, None, Ordering::Acquire, site);
                (OpKind::RmwFail, prev, 0, false)
            }
        }
        AtomicOp::Add(v) => {
            g.record_site(site, "rmw", order);
            let prev = g.cells[cell].stores.last().expect("seeded").val;
            let new = prev.wrapping_add(v);
            let prev = g.model_rmw(tid, cell, Some(new), eff, site);
            mirror.store(new, Ordering::SeqCst);
            (OpKind::Rmw, prev, 0, true)
        }
    };
    g.observe(tid, site, kind.label().len() as u64, value);
    g.push_event(Event {
        tid,
        kind,
        site,
        cell: Some(cell as u32),
        value,
        ordering: Some(order),
        mutated,
        lag,
    });
    g.step_epilogue(tid);
    finish_op(g);
    OpOut { value, ok }
}

/// Instrumented memory fence.
pub(crate) fn fence_op(order: Ordering, site: &'static Location<'static>) {
    let Some(tid) = cur_tid() else {
        if order != Ordering::Relaxed {
            std::sync::atomic::fence(order);
        }
        return;
    };
    let mut g = acquire_baton(tid);
    let (eff, mutated) = g.cfg.effective_ordering(order, site.file(), site.line());
    g.record_site(site, "fence", order);
    g.tick(tid);
    if eff != Ordering::Relaxed {
        g.model_fence(tid, eff);
    }
    g.push_event(Event {
        tid,
        kind: OpKind::Fence,
        site,
        cell: None,
        value: 0,
        ordering: Some(order),
        mutated,
        lag: 0,
    });
    g.step_epilogue(tid);
    finish_op(g);
}

/// Instrumented `spin_until`: polls `cond` (whose instrumented loads pass
/// the baton normally), parking the thread when no store happened since the
/// last poll. Stores wake all parked threads; an execution where every
/// remaining thread is parked is a deadlock / lost wakeup.
pub(crate) fn spin_op(mut cond: impl FnMut() -> bool, site: &'static Location<'static>) {
    let Some(tid) = cur_tid() else {
        let mut spins: u64 = 0;
        while !cond() {
            std::thread::yield_now();
            spins += 1;
            assert!(spins < 1 << 32, "modelcheck: unmodeled spin diverged");
        }
        return;
    };
    loop {
        let seq0 = {
            let mut g = lock_core();
            g.threads[tid].in_spin = true;
            g.store_seq
        };
        let ok = cond();
        {
            let mut g = lock_core();
            g.threads[tid].in_spin = false;
        }
        if ok {
            return;
        }
        let mut g = acquire_baton(tid);
        if g.store_seq == seq0 {
            g.tick(tid);
            g.push_event(Event {
                tid,
                kind: OpKind::SpinPark,
                site,
                cell: None,
                value: 0,
                ordering: None,
                mutated: false,
                lag: 0,
            });
            g.threads[tid].status = Status::Parked;
            g.step_epilogue(tid);
        }
        // Store happened since the poll: keep the baton and re-poll.
        finish_op(g);
    }
}

/// Instrumented access to a non-atomic [`crate::Data`] cell. `access` runs
/// under the core lock (the model serialises real memory operations); a
/// conflicting access not ordered by happens-before is a data race.
pub(crate) fn data_access(
    reg: &AtomicU64,
    ctor_site: &'static Location<'static>,
    site: &'static Location<'static>,
    is_write: bool,
    access: &mut dyn FnMut(),
) {
    let Some(tid) = cur_tid() else {
        access();
        return;
    };
    let mut g = acquire_baton(tid);
    let idx = g.register_data(reg, ctor_site);
    g.tick(tid);
    let clock = g.threads[tid].clock;
    let mut race: Option<String> = None;
    {
        let d = &g.datas[idx];
        if let Some((wt, wts, _, wsite)) = d.last_write {
            if wt != tid && !clock.covers(wt, wts) {
                race = Some(format!(
                    "{} by t{tid} not ordered after write by t{wt} at {}:{}",
                    if is_write { "write" } else { "read" },
                    wsite.file(),
                    wsite.line()
                ));
            }
        }
        if is_write && race.is_none() {
            for &(rt, rts, rsite) in &d.reads {
                if rt != tid && !clock.covers(rt, rts) {
                    race = Some(format!(
                        "write by t{tid} not ordered after read by t{rt} at {}:{}",
                        rsite.file(),
                        rsite.line()
                    ));
                    break;
                }
            }
        }
    }
    if let Some(detail) = race {
        if g.violation.is_none() {
            g.violation = Some(Violation::DataRace {
                site: format!("{}:{}", site.file(), site.line()),
                detail,
            });
        }
        g.abort = true;
    } else {
        access();
        let ts = g.threads[tid].ts;
        let d = &mut g.datas[idx];
        if is_write {
            d.last_write = Some((tid, ts, clock, site));
            d.reads.clear();
        } else {
            d.reads.push((tid, ts, site));
        }
    }
    g.push_event(Event {
        tid,
        kind: if is_write {
            OpKind::DataWrite
        } else {
            OpKind::DataRead
        },
        site,
        cell: None,
        value: 0,
        ordering: None,
        mutated: false,
        lag: 0,
    });
    g.step_epilogue(tid);
    finish_op(g);
}

/// Critical-section enter: a second concurrent enter of the same region is a
/// mutual-exclusion violation.
pub(crate) fn region_enter(reg: &AtomicU64, site: &'static Location<'static>) {
    let Some(tid) = cur_tid() else { return };
    let mut g = acquire_baton(tid);
    let idx = g.register_region(reg);
    g.tick(tid);
    g.regions[idx].count += 1;
    let count = g.regions[idx].count;
    if count > 1 {
        if g.violation.is_none() {
            g.violation = Some(Violation::Mutex {
                site: format!("{}:{}", site.file(), site.line()),
            });
        }
        g.abort = true;
    }
    g.push_event(Event {
        tid,
        kind: OpKind::CsEnter,
        site,
        cell: None,
        value: u64::from(count),
        ordering: None,
        mutated: false,
        lag: 0,
    });
    g.step_epilogue(tid);
    finish_op(g);
}

/// Critical-section exit.
pub(crate) fn region_exit(reg: &AtomicU64, site: &'static Location<'static>) {
    let Some(tid) = cur_tid() else { return };
    let mut g = acquire_baton(tid);
    let idx = g.register_region(reg);
    g.tick(tid);
    g.regions[idx].count = g.regions[idx].count.saturating_sub(1);
    let count = g.regions[idx].count;
    g.push_event(Event {
        tid,
        kind: OpKind::CsExit,
        site,
        cell: None,
        value: u64::from(count),
        ordering: None,
        mutated: false,
        lag: 0,
    });
    g.step_epilogue(tid);
    finish_op(g);
}

/// Marks the calling model thread finished (its body returned).
fn thread_finished(tid: usize) {
    let mut g = acquire_baton(tid);
    g.tick(tid);
    let site = Location::caller();
    g.push_event(Event {
        tid,
        kind: OpKind::ThreadEnd,
        site,
        cell: None,
        value: 0,
        ordering: None,
        mutated: false,
        lag: 0,
    });
    g.threads[tid].status = Status::Finished;
    g.step_epilogue(tid);
    finish_op(g);
}

// ---- scenarios, workers, and the exploration driver ----

/// Per-thread environment handed to a scenario body: the model thread id and
/// a per-thread seed derived from the exploration seed (bodies reseed any
/// thread-local randomness from it so replays are deterministic).
#[derive(Debug, Clone, Copy)]
pub struct ThreadEnv {
    /// Model thread id, `0..n_threads`.
    pub tid: usize,
    /// Deterministic per-thread seed.
    pub seed: u64,
}

type Body<'a, S> = Box<dyn Fn(&S, ThreadEnv) + Send + Sync + 'a>;

/// A checkable scenario: shared state built by `setup`, 1–4 thread bodies,
/// and an optional `finale` assertion run after every non-violating
/// execution.
pub struct Scenario<'a, S> {
    name: String,
    setup: Box<dyn Fn() -> S + Sync + 'a>,
    bodies: Vec<Body<'a, S>>,
    finale: Option<Finale<'a, S>>,
}

type Finale<'a, S> = Box<dyn Fn(&S) + Sync + 'a>;

impl<'a, S: Send + Sync> Scenario<'a, S> {
    /// New scenario; `setup` runs once per explored schedule.
    pub fn new(name: impl Into<String>, setup: impl Fn() -> S + Sync + 'a) -> Self {
        Scenario {
            name: name.into(),
            setup: Box::new(setup),
            bodies: Vec::new(),
            finale: None,
        }
    }

    /// Adds one thread body.
    pub fn thread(mut self, body: impl Fn(&S, ThreadEnv) + Send + Sync + 'a) -> Self {
        self.bodies.push(Box::new(body));
        self
    }

    /// Adds `k` threads running the same body.
    pub fn threads(
        mut self,
        k: usize,
        body: impl Fn(&S, ThreadEnv) + Send + Sync + Clone + 'a,
    ) -> Self {
        for _ in 0..k {
            self.bodies.push(Box::new(body.clone()));
        }
        self
    }

    /// Sets the post-execution assertion (panics become
    /// [`Violation::AssertFailed`]).
    pub fn finale(mut self, f: impl Fn(&S) + Sync + 'a) -> Self {
        self.finale = Some(Box::new(f));
        self
    }

    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// One `Ordering` site observed during exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SiteInfo {
    /// Source file as reported by `#[track_caller]`.
    pub file: &'static str,
    /// Source line.
    pub line: u32,
    /// Access kind: `"load"`, `"store"`, `"rmw"`, or `"fence"`.
    pub kind: &'static str,
    /// Declared ordering at the site.
    pub ordering: &'static str,
}

/// A violation found by exploration, with its minimized counterexample.
#[derive(Debug)]
pub struct FoundViolation {
    /// The violated property.
    pub violation: Violation,
    /// Rendered numbered counterexample trace.
    pub trace: String,
    /// Where the trace was written, when `trace_dir` is configured.
    pub trace_path: Option<std::path::PathBuf>,
    /// Events in the minimized schedule.
    pub minimized_events: usize,
    /// Events in the originally-failing schedule.
    pub original_events: usize,
}

/// The result of one exploration.
#[derive(Debug)]
pub struct Report {
    /// Scenario name.
    pub name: String,
    /// Seed used for tie-breaks.
    pub seed: u64,
    /// Schedules executed (including minimizer replays).
    pub schedules: u64,
    /// Modeled steps across all schedules.
    pub steps: u64,
    /// Scheduling decisions collapsed by visited-state pruning.
    pub pruned_hits: u64,
    /// `true` when the bounded tree was exhausted (no schedule budget cut).
    pub complete: bool,
    /// Every `Ordering::` site the explored code touched.
    pub sites: Vec<SiteInfo>,
    /// The first violation found, if any.
    pub violation: Option<FoundViolation>,
}

impl Report {
    /// Panics with the rendered counterexample when a violation was found.
    pub fn assert_ok(&self) {
        if let Some(v) = &self.violation {
            panic!(
                "modelcheck: {} found a violation after {} schedules:\n{}",
                self.name, self.schedules, v.trace
            );
        }
    }

    /// Panics when NO violation was found (mutation self-tests); returns the
    /// violation otherwise.
    pub fn expect_violation(&self) -> &FoundViolation {
        match &self.violation {
            Some(v) => v,
            None => panic!(
                "modelcheck: {} expected a violation but {} schedules were clean (complete={})",
                self.name, self.schedules, self.complete
            ),
        }
    }
}

fn payload_str(p: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = p.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = p.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn install_panic_hook() {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(|| {
        let prev = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<AbortExec>().is_some() {
                return;
            }
            if IN_BODY.with(|c| c.get()) {
                return;
            }
            prev(info);
        }));
    });
}

fn worker_loop<S: Send + Sync>(
    tid: usize,
    seed: u64,
    body: &Body<'_, S>,
    slot: &Mutex<Option<Arc<S>>>,
    stop: &AtomicBool,
    mut my_gen: u64,
) {
    loop {
        {
            let mut g = lock_core();
            loop {
                if stop.load(Ordering::Acquire) {
                    return;
                }
                if g.gen != my_gen {
                    my_gen = g.gen;
                    break;
                }
                g = core().cv.wait(g).unwrap_or_else(|e| e.into_inner());
            }
        }
        let s = slot.lock().unwrap_or_else(|e| e.into_inner()).clone();
        let Some(s) = s else { continue };
        CTX.with(|c| c.set(Some(tid)));
        IN_BODY.with(|c| c.set(true));
        let env = ThreadEnv {
            tid,
            seed: mix64(seed ^ (tid as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        };
        let r = panic::catch_unwind(AssertUnwindSafe(|| body(&s, env)));
        if let Err(p) = r {
            if p.downcast_ref::<AbortExec>().is_none() {
                let msg = payload_str(p.as_ref());
                let mut g = lock_core();
                if g.violation.is_none() {
                    g.violation = Some(Violation::AssertFailed { message: msg });
                }
                g.abort = true;
            }
        } else {
            // Finishing is itself a scheduled step; it may abort-unwind.
            let _ = panic::catch_unwind(AssertUnwindSafe(|| thread_finished(tid)));
        }
        IN_BODY.with(|c| c.set(false));
        CTX.with(|c| c.set(None));
        drop(s);
        {
            let mut g = lock_core();
            if tid < g.threads.len() {
                g.threads[tid].status = Status::Finished;
            }
            g.done += 1;
        }
        core().cv.notify_all();
    }
}

fn wait_done(n: usize) {
    let mut g = lock_core();
    loop {
        if g.done == n {
            return;
        }
        let (ng, to) = core()
            .cv
            .wait_timeout(g, Duration::from_secs(120))
            .unwrap_or_else(|e| e.into_inner());
        g = ng;
        if to.timed_out() && g.done != n {
            panic!(
                "modelcheck: execution stalled; {}/{} threads done",
                g.done, n
            );
        }
    }
}

/// Runs one schedule: builds `S`, bumps the generation, waits for all
/// bodies, runs the finale. Returns `(violation, events)`; the shared state
/// is leaked when a violation aborted threads mid-operation.
fn run_one<S: Send + Sync>(
    scenario: &Scenario<'_, S>,
    slot: &Mutex<Option<Arc<S>>>,
    n: usize,
) -> (Option<Violation>, Vec<Event>) {
    let s = Arc::new((scenario.setup)());
    *slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(Arc::clone(&s));
    {
        let mut g = lock_core();
        g.reset_for_execution(n);
        g.schedules += 1;
        g.schedule_next(None);
        g.gen = g.gen.wrapping_add(1);
    }
    core().cv.notify_all();
    wait_done(n);
    *slot.lock().unwrap_or_else(|e| e.into_inner()) = None;
    let (mut violation, events) = {
        let mut g = lock_core();
        (g.violation.take(), std::mem::take(&mut g.events))
    };
    if violation.is_none() {
        if let Some(f) = &scenario.finale {
            IN_BODY.with(|c| c.set(true));
            let r = panic::catch_unwind(AssertUnwindSafe(|| f(&s)));
            IN_BODY.with(|c| c.set(false));
            if let Err(p) = r {
                violation = Some(Violation::AssertFailed {
                    message: payload_str(p.as_ref()),
                });
            }
        }
    }
    if violation.is_some() {
        // Threads may have been torn mid-lock-acquisition; dropping S could
        // free queue nodes another (aborted) path still references. Leak it.
        std::mem::forget(s);
    }
    (violation, events)
}

/// Greedy schedule shortening: replay progressively shorter decision
/// prefixes (defaults beyond the cut), keeping the first schedule that still
/// produces the same kind of violation with no more events.
fn minimize<S: Send + Sync>(
    scenario: &Scenario<'_, S>,
    slot: &Mutex<Option<Arc<S>>>,
    n: usize,
    original: (Violation, Vec<Event>),
) -> (Violation, Vec<Event>, usize) {
    let original_len = original.1.len();
    let dec_len = {
        let mut g = lock_core();
        g.replay_prefix = Some(usize::MAX); // replay mode from here on
        g.decisions.len()
    };
    let mut cuts: Vec<usize> = if dec_len <= 128 {
        (0..dec_len).collect()
    } else {
        (0..128).map(|i| i * dec_len / 128).collect()
    };
    cuts.dedup();
    let mut best = original;
    for cut in cuts {
        {
            let mut g = lock_core();
            g.replay_prefix = Some(cut);
        }
        let (v, events) = run_one(scenario, slot, n);
        if let Some(v) = v {
            if v.same_kind(&best.0) && events.len() <= best.1.len() {
                best = (v, events);
                break; // greedy: first (shortest-prefix) reproduction wins
            }
        }
    }
    {
        let mut g = lock_core();
        g.replay_prefix = None;
    }
    (best.0, best.1, original_len)
}

fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect()
}

/// Explores the scenario's interleavings under `cfg`. Deterministic given
/// (`cfg.seed`, config, code version); stops at the first violation, which
/// it minimizes and renders.
pub fn explore<S: Send + Sync>(cfg: &Config, scenario: &Scenario<'_, S>) -> Report {
    static EXPLORE_LOCK: Mutex<()> = Mutex::new(());
    let _serial = EXPLORE_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    install_panic_hook();
    let n = scenario.bodies.len();
    assert!(
        (1..=MAX_THREADS).contains(&n),
        "scenario must have 1..={MAX_THREADS} threads"
    );

    let slot: Mutex<Option<Arc<S>>> = Mutex::new(None);
    let stop = AtomicBool::new(false);

    {
        let mut g = lock_core();
        g.cfg = cfg.clone();
        g.cfg.name = format!("{}/{}", scenario.name, cfg.name);
        g.decisions.clear();
        g.visited.clear();
        g.sites.clear();
        g.schedules = 0;
        g.total_steps = 0;
        g.pruned_hits = 0;
        g.replay_prefix = None;
    }

    let mut found: Option<(Violation, Vec<Event>, usize)> = None;
    let mut complete = true;

    std::thread::scope(|scope| {
        let base_gen = lock_core().gen;
        for (tid, body) in scenario.bodies.iter().enumerate() {
            let slot = &slot;
            let stop = &stop;
            let seed = cfg.seed;
            scope.spawn(move || worker_loop(tid, seed, body, slot, stop, base_gen));
        }
        loop {
            let (violation, events) = run_one(scenario, &slot, n);
            if let Some(v) = violation {
                found = Some(minimize(scenario, &slot, n, (v, events)));
                break;
            }
            let mut g = lock_core();
            if g.schedules >= g.cfg.max_schedules {
                complete = false;
                break;
            }
            if !g.backtrack() {
                break;
            }
        }
        // Workers test `stop` and park under the core mutex; storing it
        // under the same mutex keeps the store from slipping between a
        // worker's test and its `wait`, which would lose this wake-up.
        {
            let _g = lock_core();
            stop.store(true, Ordering::Release);
        }
        core().cv.notify_all();
    });

    let (schedules, steps, pruned_hits, sites, full_name) = {
        let g = lock_core();
        (
            g.schedules,
            g.total_steps,
            g.pruned_hits,
            g.sites
                .iter()
                .map(|(&(file, line), &(kind, ordering))| SiteInfo {
                    file,
                    line,
                    kind,
                    ordering,
                })
                .collect::<Vec<_>>(),
            g.cfg.name.clone(),
        )
    };

    let violation = found.map(|(v, events, original_len)| {
        let trace = crate::trace::render(&full_name, cfg.seed, &events, &v, original_len);
        let trace_path = cfg.trace_dir.as_ref().and_then(|d| {
            std::fs::create_dir_all(d).ok()?;
            let p = d.join(format!("{}.trace.txt", sanitize(&full_name)));
            std::fs::write(&p, &trace).ok()?;
            Some(p)
        });
        FoundViolation {
            violation: v,
            minimized_events: events.len(),
            original_events: original_len,
            trace,
            trace_path,
        }
    });

    Report {
        name: full_name,
        seed: cfg.seed,
        schedules,
        steps,
        pruned_hits,
        complete,
        sites,
        violation,
    }
}
