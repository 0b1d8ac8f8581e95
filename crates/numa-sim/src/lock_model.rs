//! Lock policy models: the admission order of each evaluated algorithm.
//!
//! A policy model answers one question for the simulator: *given the set of
//! waiting threads and the socket of the releasing thread, who gets the lock
//! next (and at what queue-maintenance cost)?* This captures exactly the
//! dimension along which the evaluated locks differ:
//!
//! * MCS / ticket / CLH — strict FIFO.
//! * CNA — main/secondary queues, same-socket-first with probabilistic
//!   long-term fairness and the optional shuffle-reduction optimisation.
//! * Cohort locks / HMCS — per-socket queues with a hand-over budget,
//!   rotating between sockets FIFO (ticket/MCS global) or unfairly
//!   (backoff global).
//! * TAS / HBO — global spinning: grants are essentially a race, biased
//!   towards the releasing socket (HBO biases it deliberately), and the lock
//!   may sit free briefly while all waiters are backing off (which is what
//!   lets a just-released thread barge back in).

use std::collections::VecDeque;

use sync_core::rng::Rng;

use crate::cost::CostModel;

/// A thread waiting for a simulated lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Waiter {
    /// Simulated thread id.
    pub thread: usize,
    /// Socket the thread runs on.
    pub socket: usize,
    /// Simulated time at which the thread started waiting.
    pub arrival_ns: u64,
}

/// Outcome of a hand-over decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The waiter that receives the lock.
    pub waiter: Waiter,
    /// Extra queue-maintenance cost charged to this hand-over (e.g. CNA
    /// moving skipped waiters to the secondary queue).
    pub extra_ns: u64,
}

/// A lock admission policy.
pub trait LockModel: Send {
    /// Algorithm label used in experiment tables.
    fn name(&self) -> &'static str;

    /// Records a newly arrived waiter.
    fn on_arrival(&mut self, waiter: Waiter);

    /// Picks the next lock holder, or `None` if the policy currently grants
    /// nobody (either no waiters, or — for backoff-style locks — all waiters
    /// are backing off and the lock goes free for a moment).
    fn pick_next(&mut self, releaser_socket: usize, rng: &mut Rng) -> Option<Grant>;

    /// `true` when at least one thread is waiting.
    fn has_waiters(&self) -> bool;

    /// Number of waiting threads.
    fn waiting(&self) -> usize;

    /// Number of waiting threads that are *spinning hot* (burning a CPU
    /// while they wait). For every classic lock this is all of them; locks
    /// that restrict concurrency (MCSCR's passive list) report only their
    /// active set, which is what shields them from the oversubscription
    /// preemption penalty the engine charges when runnable threads exceed
    /// simulated CPUs.
    fn spinning(&self) -> usize {
        self.waiting()
    }

    /// Number of times the policy restructured its queues (CNA's "main queue
    /// alterations" statistic discussed with the shuffle-reduction
    /// optimisation).
    fn queue_alterations(&self) -> u64 {
        0
    }

    /// Delay before a declined grant should be retried (models the backoff
    /// window of global-spinning locks).
    fn recheck_delay_ns(&self) -> u64 {
        200
    }
}

/// The lock algorithms the simulator can model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockAlgorithm {
    /// MCS queue lock (strict FIFO) — also models ticket/CLH admission.
    Mcs,
    /// Ticket lock (FIFO admission, global spinning).
    Ticket,
    /// Test-and-set with backoff (unfair, global spinning).
    Tas,
    /// Hierarchical backoff lock (unfair, strongly socket-biased).
    Hbo,
    /// The paper's CNA lock with default parameters.
    Cna,
    /// CNA with the §6 shuffle-reduction optimisation ("CNA (opt)").
    CnaOpt,
    /// CNA with an explicit `keep_lock_local()` mask, for sweeping the
    /// fairness-vs-throughput knob the paper mentions (smaller mask = more
    /// frequent secondary-queue flushes = fairer).
    CnaThreshold(u64),
    /// Cohort lock with backoff global / MCS locals (C-BO-MCS).
    CBoMcs,
    /// Cohort lock with ticket global / ticket locals (C-TKT-TKT).
    CTktTkt,
    /// Cohort lock with partitioned-ticket global / ticket locals (C-PTL-TKT).
    CPtlTkt,
    /// Two-level hierarchical MCS (HMCS).
    Hmcs,
    /// Fissile lock (Dice & Kogan 2020): MCS queue with a TS fast path that
    /// lets arrivals barge past the queue.
    Fissile,
    /// Concurrency-restricting MCS (Dice & Kogan 2019): excess waiters are
    /// parked on a passive list and stop spinning.
    Mcscr,
}

impl LockAlgorithm {
    /// Label used in tables/plots (matches the paper's legends).
    pub fn name(self) -> &'static str {
        match self {
            LockAlgorithm::Mcs => "MCS",
            LockAlgorithm::Ticket => "Ticket",
            LockAlgorithm::Tas => "TAS",
            LockAlgorithm::Hbo => "HBO",
            LockAlgorithm::Cna => "CNA",
            LockAlgorithm::CnaOpt => "CNA (opt)",
            LockAlgorithm::CnaThreshold(_) => "CNA (tuned)",
            LockAlgorithm::CBoMcs => "C-BO-MCS",
            LockAlgorithm::CTktTkt => "C-TKT-TKT",
            LockAlgorithm::CPtlTkt => "C-PTL-TKT",
            LockAlgorithm::Hmcs => "HMCS",
            LockAlgorithm::Fissile => "Fissile",
            LockAlgorithm::Mcscr => "MCSCR",
        }
    }

    /// The set of algorithms shown in the paper's user-space figures.
    pub fn paper_user_space_set() -> Vec<LockAlgorithm> {
        vec![
            LockAlgorithm::Mcs,
            LockAlgorithm::Cna,
            LockAlgorithm::CBoMcs,
            LockAlgorithm::Hmcs,
        ]
    }

    /// Builds the policy model for a machine with `sockets` sockets and
    /// `cpus` logical CPUs in total (concurrency-restricting locks size
    /// their active set off the CPU count).
    pub fn build(self, sockets: usize, cpus: usize, cost: &CostModel) -> Box<dyn LockModel> {
        match self {
            LockAlgorithm::Mcs => Box::new(FifoModel::new("MCS")),
            LockAlgorithm::Ticket => Box::new(FifoModel::new("Ticket")),
            LockAlgorithm::Tas => Box::new(UnfairModel::new("TAS", 4.0, 0.55)),
            LockAlgorithm::Hbo => Box::new(UnfairModel::new("HBO", 24.0, 0.35)),
            LockAlgorithm::Cna => Box::new(CnaModel::new("CNA", false, cost.queue_shuffle_ns)),
            LockAlgorithm::CnaOpt => {
                Box::new(CnaModel::new("CNA (opt)", true, cost.queue_shuffle_ns))
            }
            LockAlgorithm::CnaThreshold(mask) => Box::new(
                CnaModel::new("CNA (tuned)", false, cost.queue_shuffle_ns)
                    .with_keep_local_mask(mask),
            ),
            LockAlgorithm::CBoMcs => Box::new(CohortModel::new(
                "C-BO-MCS",
                sockets,
                64,
                GlobalDiscipline::Unfair { local_bias: 0.80 },
            )),
            LockAlgorithm::CTktTkt => Box::new(CohortModel::new(
                "C-TKT-TKT",
                sockets,
                64,
                GlobalDiscipline::RoundRobin,
            )),
            LockAlgorithm::CPtlTkt => Box::new(CohortModel::new(
                "C-PTL-TKT",
                sockets,
                64,
                GlobalDiscipline::RoundRobin,
            )),
            LockAlgorithm::Hmcs => Box::new(CohortModel::new(
                "HMCS",
                sockets,
                64,
                GlobalDiscipline::RoundRobin,
            )),
            LockAlgorithm::Fissile => Box::new(FissileModel::new("Fissile", 0.2)),
            LockAlgorithm::Mcscr => Box::new(McscrModel::new(
                "MCSCR",
                cpus.saturating_sub(1).max(1),
                cost.queue_shuffle_ns,
            )),
        }
    }
}

// ---------------------------------------------------------------------------
// FIFO (MCS, ticket)
// ---------------------------------------------------------------------------

/// Strict FIFO admission.
#[derive(Debug)]
pub struct FifoModel {
    name: &'static str,
    queue: VecDeque<Waiter>,
}

impl FifoModel {
    /// Creates an empty FIFO model.
    pub fn new(name: &'static str) -> Self {
        FifoModel {
            name,
            queue: VecDeque::new(),
        }
    }
}

impl LockModel for FifoModel {
    fn name(&self) -> &'static str {
        self.name
    }
    fn on_arrival(&mut self, waiter: Waiter) {
        self.queue.push_back(waiter);
    }
    fn pick_next(&mut self, _releaser_socket: usize, _rng: &mut Rng) -> Option<Grant> {
        self.queue.pop_front().map(|waiter| Grant {
            waiter,
            extra_ns: 0,
        })
    }
    fn has_waiters(&self) -> bool {
        !self.queue.is_empty()
    }
    fn waiting(&self) -> usize {
        self.queue.len()
    }
}

// ---------------------------------------------------------------------------
// Unfair global-spinning locks (TAS, HBO)
// ---------------------------------------------------------------------------

/// Unfair admission: grants are a race biased towards the releasing socket;
/// with some probability nobody wins immediately (all waiters backing off),
/// which is what lets barging arrivals sneak in.
#[derive(Debug)]
pub struct UnfairModel {
    name: &'static str,
    waiters: Vec<Waiter>,
    /// Relative weight of a waiter on the releasing socket vs a remote one.
    local_weight: f64,
    /// Probability that no queued waiter wins the race at release time.
    decline_probability: f64,
}

impl UnfairModel {
    /// Creates an unfair model with the given local bias and decline rate.
    pub fn new(name: &'static str, local_weight: f64, decline_probability: f64) -> Self {
        UnfairModel {
            name,
            waiters: Vec::new(),
            local_weight,
            decline_probability,
        }
    }
}

impl LockModel for UnfairModel {
    fn name(&self) -> &'static str {
        self.name
    }
    fn on_arrival(&mut self, waiter: Waiter) {
        self.waiters.push(waiter);
    }
    fn pick_next(&mut self, releaser_socket: usize, rng: &mut Rng) -> Option<Grant> {
        if self.waiters.is_empty() {
            return None;
        }
        if rng.chance(self.decline_probability) {
            return None;
        }
        let total: f64 = self
            .waiters
            .iter()
            .map(|w| {
                if w.socket == releaser_socket {
                    self.local_weight
                } else {
                    1.0
                }
            })
            .sum();
        let mut pick = rng.next_f64() * total;
        let mut index = 0;
        for (i, w) in self.waiters.iter().enumerate() {
            let weight = if w.socket == releaser_socket {
                self.local_weight
            } else {
                1.0
            };
            if pick < weight {
                index = i;
                break;
            }
            pick -= weight;
            index = i;
        }
        let waiter = self.waiters.swap_remove(index);
        Some(Grant {
            waiter,
            extra_ns: 0,
        })
    }
    fn has_waiters(&self) -> bool {
        !self.waiters.is_empty()
    }
    fn waiting(&self) -> usize {
        self.waiters.len()
    }
    fn recheck_delay_ns(&self) -> u64 {
        300
    }
}

// ---------------------------------------------------------------------------
// CNA
// ---------------------------------------------------------------------------

/// The CNA admission policy: main + secondary queue, same-socket-first.
#[derive(Debug)]
pub struct CnaModel {
    name: &'static str,
    main: VecDeque<Waiter>,
    secondary: VecDeque<Waiter>,
    shuffle_reduction: bool,
    /// Per-moved-waiter cost of restructuring the queue.
    shuffle_ns: u64,
    /// `keep_lock_local()` mask (paper THRESHOLD).
    keep_local_mask: u64,
    /// Shuffle-reduction mask (paper THRESHOLD2).
    shuffle_mask: u64,
    alterations: u64,
}

impl CnaModel {
    /// Creates a CNA model; `shuffle_reduction` selects the §6 variant.
    pub fn new(name: &'static str, shuffle_reduction: bool, shuffle_ns: u64) -> Self {
        CnaModel {
            name,
            main: VecDeque::new(),
            secondary: VecDeque::new(),
            shuffle_reduction,
            shuffle_ns,
            keep_local_mask: 0xffff,
            shuffle_mask: 0xff,
            alterations: 0,
        }
    }

    /// Overrides the long-term fairness mask (for threshold-sweep benches).
    pub fn with_keep_local_mask(mut self, mask: u64) -> Self {
        self.keep_local_mask = mask;
        self
    }

    fn flush_grant(&mut self) -> Option<Grant> {
        if let Some(next) = self.secondary.pop_front() {
            // Splice the rest of the secondary queue in front of the main
            // queue, preserving its order (paper Fig. 1 (g)).
            while let Some(w) = self.secondary.pop_back() {
                self.main.push_front(w);
            }
            Some(Grant {
                waiter: next,
                extra_ns: self.shuffle_ns,
            })
        } else {
            self.main.pop_front().map(|waiter| Grant {
                waiter,
                extra_ns: 0,
            })
        }
    }
}

impl LockModel for CnaModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_arrival(&mut self, waiter: Waiter) {
        // Arrivals always join the main queue first.
        self.main.push_back(waiter);
    }

    fn pick_next(&mut self, releaser_socket: usize, rng: &mut Rng) -> Option<Grant> {
        if self.main.is_empty() && self.secondary.is_empty() {
            return None;
        }
        // Long-term fairness: flush the secondary queue with low probability.
        if rng.next_u64() & self.keep_local_mask == 0 {
            return self.flush_grant();
        }
        // Shuffle reduction: with an empty secondary queue, hand over to the
        // immediate successor with high probability, skipping the search.
        if self.shuffle_reduction
            && self.secondary.is_empty()
            && rng.next_u64() & self.shuffle_mask != 0
        {
            return self.main.pop_front().map(|waiter| Grant {
                waiter,
                extra_ns: 0,
            });
        }
        // Search the main queue for a waiter on the releasing socket, moving
        // the skipped prefix to the secondary queue.
        if let Some(pos) = self.main.iter().position(|w| w.socket == releaser_socket) {
            let moved = pos as u64;
            for _ in 0..pos {
                let skipped = self.main.pop_front().expect("skipped waiter");
                self.secondary.push_back(skipped);
            }
            if moved > 0 {
                self.alterations += 1;
            }
            let waiter = self.main.pop_front().expect("local successor");
            return Some(Grant {
                waiter,
                extra_ns: moved * self.shuffle_ns,
            });
        }
        // No local waiter in the main queue: flush the secondary queue (or
        // hand to the main head when it is empty).
        self.flush_grant()
    }

    fn has_waiters(&self) -> bool {
        !self.main.is_empty() || !self.secondary.is_empty()
    }

    fn waiting(&self) -> usize {
        self.main.len() + self.secondary.len()
    }

    fn queue_alterations(&self) -> u64 {
        self.alterations
    }
}

// ---------------------------------------------------------------------------
// Cohort / HMCS
// ---------------------------------------------------------------------------

/// How a cohort-style lock rotates between sockets when the hand-over budget
/// is exhausted (or the local queue empties).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GlobalDiscipline {
    /// FIFO across sockets by oldest waiter (ticket/MCS global layer).
    RoundRobin,
    /// Backoff global layer: biased towards the releasing socket, and may
    /// leave the lock free for a moment (C-BO-MCS's unfairness).
    Unfair {
        /// Probability that the releasing socket keeps the lock when it still
        /// has waiters, even though the budget expired.
        local_bias: f64,
    },
}

/// Cohort/HMCS admission: per-socket FIFO queues plus a hand-over budget.
#[derive(Debug)]
pub struct CohortModel {
    name: &'static str,
    per_socket: Vec<VecDeque<Waiter>>,
    batch: u64,
    max_batch: u64,
    owner_socket: Option<usize>,
    discipline: GlobalDiscipline,
}

impl CohortModel {
    /// Creates a cohort model for `sockets` sockets with the given budget.
    pub fn new(
        name: &'static str,
        sockets: usize,
        max_batch: u64,
        discipline: GlobalDiscipline,
    ) -> Self {
        CohortModel {
            name,
            per_socket: (0..sockets.max(1)).map(|_| VecDeque::new()).collect(),
            batch: 0,
            max_batch: max_batch.max(1),
            owner_socket: None,
            discipline,
        }
    }

    fn oldest_waiting_socket(&self) -> Option<usize> {
        self.per_socket
            .iter()
            .enumerate()
            .filter_map(|(s, q)| q.front().map(|w| (s, w.arrival_ns)))
            .min_by_key(|&(_, arrival)| arrival)
            .map(|(s, _)| s)
    }

    fn grant_from(&mut self, socket: usize) -> Option<Grant> {
        self.per_socket[socket].pop_front().map(|waiter| {
            self.owner_socket = Some(socket);
            Grant {
                waiter,
                extra_ns: 0,
            }
        })
    }
}

impl LockModel for CohortModel {
    fn name(&self) -> &'static str {
        self.name
    }

    fn on_arrival(&mut self, waiter: Waiter) {
        let socket = waiter.socket % self.per_socket.len();
        self.per_socket[socket].push_back(waiter);
    }

    fn pick_next(&mut self, releaser_socket: usize, rng: &mut Rng) -> Option<Grant> {
        if !self.has_waiters() {
            self.owner_socket = None;
            return None;
        }
        let owner = self
            .owner_socket
            .unwrap_or(releaser_socket % self.per_socket.len());
        let owner_has_waiters = !self.per_socket[owner].is_empty();

        // Within the budget, keep the lock on the owning socket.
        if owner_has_waiters && self.batch < self.max_batch {
            self.batch += 1;
            return self.grant_from(owner);
        }

        // Budget exhausted (or local queue empty): the global layer decides.
        match self.discipline {
            GlobalDiscipline::RoundRobin => {
                let next_socket = if owner_has_waiters {
                    // Prefer the oldest waiter on a *different* socket; fall
                    // back to the owner if it is the only one with waiters.
                    self.per_socket
                        .iter()
                        .enumerate()
                        .filter(|&(s, q)| s != owner && !q.is_empty())
                        .map(|(s, q)| (s, q.front().expect("non-empty").arrival_ns))
                        .min_by_key(|&(_, arrival)| arrival)
                        .map(|(s, _)| s)
                        .unwrap_or(owner)
                } else {
                    self.oldest_waiting_socket()?
                };
                self.batch = if next_socket == owner { self.batch } else { 0 };
                self.grant_from(next_socket)
            }
            GlobalDiscipline::Unfair { local_bias } => {
                if owner_has_waiters && rng.chance(local_bias) {
                    // The backoff global lock lets the same socket barge back
                    // in even though its budget expired.
                    self.batch += 1;
                    return self.grant_from(owner);
                }
                // Otherwise a socket wins the backoff race, biased by nothing
                // in particular — pick uniformly among non-empty sockets,
                // occasionally declining entirely (lock sits free briefly).
                if rng.chance(0.2) {
                    return None;
                }
                let candidates: Vec<usize> = self
                    .per_socket
                    .iter()
                    .enumerate()
                    .filter(|(_, q)| !q.is_empty())
                    .map(|(s, _)| s)
                    .collect();
                let socket = candidates[rng.next_below(candidates.len() as u64) as usize];
                self.batch = 0;
                self.grant_from(socket)
            }
        }
    }

    fn has_waiters(&self) -> bool {
        self.per_socket.iter().any(|q| !q.is_empty())
    }

    fn waiting(&self) -> usize {
        self.per_socket.iter().map(VecDeque::len).sum()
    }

    fn recheck_delay_ns(&self) -> u64 {
        250
    }
}

// ---------------------------------------------------------------------------
// Fissile (TS fast path over an MCS slow path)
// ---------------------------------------------------------------------------

/// Fissile admission: mostly FIFO (the MCS queue crowd-controls waiters),
/// but with some probability the *newest* arrival wins the TS race instead —
/// the barging fast path. Every waiter still spins (the queue spins locally,
/// the head and bargers spin on the TS word), so Fissile enjoys cheap
/// hand-overs but is not shielded from oversubscription.
#[derive(Debug)]
pub struct FissileModel {
    name: &'static str,
    queue: VecDeque<Waiter>,
    /// Probability that a barging arrival beats the queue head.
    barge_probability: f64,
}

impl FissileModel {
    /// Creates a Fissile model with the given barge probability.
    pub fn new(name: &'static str, barge_probability: f64) -> Self {
        FissileModel {
            name,
            queue: VecDeque::new(),
            barge_probability,
        }
    }
}

impl LockModel for FissileModel {
    fn name(&self) -> &'static str {
        self.name
    }
    fn on_arrival(&mut self, waiter: Waiter) {
        self.queue.push_back(waiter);
    }
    fn pick_next(&mut self, _releaser_socket: usize, rng: &mut Rng) -> Option<Grant> {
        if self.queue.len() > 1 && rng.chance(self.barge_probability) {
            // The newest arrival wins the TS race before the queue head
            // notices the word went free.
            return self.queue.pop_back().map(|waiter| Grant {
                waiter,
                extra_ns: 0,
            });
        }
        self.queue.pop_front().map(|waiter| Grant {
            waiter,
            extra_ns: 0,
        })
    }
    fn has_waiters(&self) -> bool {
        !self.queue.is_empty()
    }
    fn waiting(&self) -> usize {
        self.queue.len()
    }
}

// ---------------------------------------------------------------------------
// MCSCR (concurrency-restricting MCS)
// ---------------------------------------------------------------------------

/// MCSCR admission: FIFO over a bounded *active* set; arrivals beyond the
/// bound go to a passive list (they stop spinning) and are promoted back
/// into the active set one per grant, preserving overall FIFO order. The
/// promotion is the modelled cost of the real lock's cull/recirculate queue
/// surgery.
#[derive(Debug)]
pub struct McscrModel {
    name: &'static str,
    active: VecDeque<Waiter>,
    passive: VecDeque<Waiter>,
    max_active: usize,
    /// Queue-surgery cost charged when a passive waiter is promoted.
    promote_ns: u64,
}

impl McscrModel {
    /// Creates an MCSCR model admitting at most `max_active` hot spinners.
    pub fn new(name: &'static str, max_active: usize, promote_ns: u64) -> Self {
        McscrModel {
            name,
            active: VecDeque::new(),
            passive: VecDeque::new(),
            max_active: max_active.max(1),
            promote_ns,
        }
    }
}

impl LockModel for McscrModel {
    fn name(&self) -> &'static str {
        self.name
    }
    fn on_arrival(&mut self, waiter: Waiter) {
        if self.active.len() < self.max_active {
            self.active.push_back(waiter);
        } else {
            self.passive.push_back(waiter);
        }
    }
    fn pick_next(&mut self, _releaser_socket: usize, _rng: &mut Rng) -> Option<Grant> {
        let granted = self.active.pop_front().or_else(|| self.passive.pop_front());
        granted.map(|waiter| {
            // Refill the freed active slot from the passive list (FIFO), and
            // charge the hand-over for the queue surgery if we did.
            let mut extra_ns = 0;
            if self.active.len() < self.max_active {
                if let Some(promoted) = self.passive.pop_front() {
                    self.active.push_back(promoted);
                    extra_ns = self.promote_ns;
                }
            }
            Grant { waiter, extra_ns }
        })
    }
    fn has_waiters(&self) -> bool {
        !self.active.is_empty() || !self.passive.is_empty()
    }
    fn waiting(&self) -> usize {
        self.active.len() + self.passive.len()
    }
    fn spinning(&self) -> usize {
        self.active.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn waiter(thread: usize, socket: usize, arrival_ns: u64) -> Waiter {
        Waiter {
            thread,
            socket,
            arrival_ns,
        }
    }

    #[test]
    fn fifo_grants_in_arrival_order() {
        let mut m = FifoModel::new("MCS");
        let mut rng = Rng::new(1);
        for i in 0..4 {
            m.on_arrival(waiter(i, i % 2, i as u64));
        }
        let order: Vec<usize> = (0..4)
            .map(|_| m.pick_next(0, &mut rng).unwrap().waiter.thread)
            .collect();
        assert_eq!(order, vec![0, 1, 2, 3]);
        assert!(m.pick_next(0, &mut rng).is_none());
    }

    #[test]
    fn cna_prefers_local_waiters_and_parks_remote_ones() {
        let mut m = CnaModel::new("CNA", false, 10);
        let mut rng = Rng::new(3);
        // Queue: t0(s1), t1(s0), t2(s1), t3(s0); releaser on socket 0.
        m.on_arrival(waiter(0, 1, 0));
        m.on_arrival(waiter(1, 0, 1));
        m.on_arrival(waiter(2, 1, 2));
        m.on_arrival(waiter(3, 0, 3));
        let g1 = m.pick_next(0, &mut rng).unwrap();
        assert_eq!(g1.waiter.thread, 1, "skips the remote head");
        assert!(
            g1.extra_ns > 0,
            "charged for moving t0 to the secondary queue"
        );
        let g2 = m.pick_next(0, &mut rng).unwrap();
        assert_eq!(g2.waiter.thread, 3);
        // No socket-0 waiters left: the secondary queue is flushed in order.
        let g3 = m.pick_next(0, &mut rng).unwrap();
        assert_eq!(g3.waiter.thread, 0);
        let g4 = m.pick_next(0, &mut rng).unwrap();
        assert_eq!(g4.waiter.thread, 2);
        assert!(!m.has_waiters());
        assert!(m.queue_alterations() >= 1);
    }

    #[test]
    fn cna_flush_preserves_overall_order_of_parked_waiters() {
        let mut m = CnaModel::new("CNA", false, 0);
        let mut rng = Rng::new(9);
        // All remote except one local at the end; after serving the local
        // waiter, the parked remote waiters must come back in FIFO order.
        m.on_arrival(waiter(0, 1, 0));
        m.on_arrival(waiter(1, 1, 1));
        m.on_arrival(waiter(2, 0, 2));
        assert_eq!(m.pick_next(0, &mut rng).unwrap().waiter.thread, 2);
        assert_eq!(m.pick_next(0, &mut rng).unwrap().waiter.thread, 0);
        assert_eq!(m.pick_next(0, &mut rng).unwrap().waiter.thread, 1);
    }

    #[test]
    fn cna_opt_skips_restructuring_when_secondary_is_empty() {
        let mut m = CnaModel::new("CNA (opt)", true, 10);
        let mut rng = Rng::new(5);
        // With shuffle reduction and an empty secondary queue, the immediate
        // (remote) successor is normally granted directly.
        let mut direct = 0;
        let rounds = 200;
        for _ in 0..rounds {
            m.on_arrival(waiter(0, 1, 0));
            m.on_arrival(waiter(1, 0, 1));
            let g = m.pick_next(0, &mut rng).unwrap();
            if g.waiter.thread == 0 {
                direct += 1;
            }
            // Drain.
            while m.pick_next(0, &mut rng).is_some() {}
        }
        assert!(
            direct > rounds * 8 / 10,
            "shuffle reduction should usually grant the immediate successor (got {direct}/{rounds})"
        );
    }

    #[test]
    fn cohort_round_robin_respects_budget() {
        let mut m = CohortModel::new("HMCS", 2, 2, GlobalDiscipline::RoundRobin);
        let mut rng = Rng::new(2);
        // Two waiters per socket; budget 2 forces a rotation after two local
        // grants.
        m.on_arrival(waiter(0, 0, 0));
        m.on_arrival(waiter(1, 1, 1));
        m.on_arrival(waiter(2, 0, 2));
        m.on_arrival(waiter(3, 1, 3));
        let order: Vec<usize> = (0..4)
            .map(|_| m.pick_next(0, &mut rng).unwrap().waiter.thread)
            .collect();
        assert_eq!(order, vec![0, 2, 1, 3]);
    }

    #[test]
    fn unfair_model_can_decline_and_eventually_grants() {
        let mut m = UnfairModel::new("TAS", 4.0, 0.5);
        let mut rng = Rng::new(7);
        m.on_arrival(waiter(0, 0, 0));
        let mut granted = false;
        for _ in 0..64 {
            if m.pick_next(0, &mut rng).is_some() {
                granted = true;
                break;
            }
        }
        assert!(granted);
        assert!(!m.has_waiters());
    }

    #[test]
    fn mcscr_restricts_spinning_to_the_active_set_but_stays_fifo() {
        let mut m = McscrModel::new("MCSCR", 3, 12);
        let mut rng = Rng::new(11);
        for i in 0..8 {
            m.on_arrival(waiter(i, i % 2, i as u64));
        }
        assert_eq!(m.waiting(), 8);
        assert_eq!(m.spinning(), 3, "only the active set spins");
        let mut order = Vec::new();
        let mut promoted_cost = 0;
        while let Some(g) = m.pick_next(0, &mut rng) {
            order.push(g.waiter.thread);
            promoted_cost += g.extra_ns;
        }
        assert_eq!(order, vec![0, 1, 2, 3, 4, 5, 6, 7], "promotion keeps FIFO");
        assert!(promoted_cost > 0, "promotions charge queue-surgery cost");
        assert_eq!(m.spinning(), 0);
    }

    #[test]
    fn fissile_barges_sometimes_but_everyone_is_served() {
        let mut m = FissileModel::new("Fissile", 0.5);
        let mut rng = Rng::new(13);
        let mut barged = 0;
        for round in 0..200u64 {
            for i in 0..4 {
                m.on_arrival(waiter(i, 0, round * 10 + i as u64));
            }
            let first = m.pick_next(0, &mut rng).unwrap().waiter.thread;
            if first == 3 {
                barged += 1;
            }
            while m.pick_next(0, &mut rng).is_some() {}
            assert!(!m.has_waiters());
        }
        assert!(barged > 20, "barging path never taken ({barged}/200)");
        assert!(barged < 180, "FIFO path never taken ({barged}/200)");
    }

    #[test]
    fn every_algorithm_builds_and_reports_a_name() {
        let cost = CostModel::default();
        for algo in [
            LockAlgorithm::Mcs,
            LockAlgorithm::Ticket,
            LockAlgorithm::Tas,
            LockAlgorithm::Hbo,
            LockAlgorithm::Cna,
            LockAlgorithm::CnaOpt,
            LockAlgorithm::CBoMcs,
            LockAlgorithm::CTktTkt,
            LockAlgorithm::CPtlTkt,
            LockAlgorithm::Hmcs,
            LockAlgorithm::Fissile,
            LockAlgorithm::Mcscr,
        ] {
            let model = algo.build(4, 8, &cost);
            assert!(!model.name().is_empty());
            assert!(!model.has_waiters());
            assert_eq!(algo.name(), model.name());
        }
    }
}
