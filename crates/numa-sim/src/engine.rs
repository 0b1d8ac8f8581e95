//! The discrete-event simulation engine.
//!
//! One engine serves both load shapes; they differ only in the *arrival
//! process* that hands a simulated thread its next operation:
//!
//! * **closed** ([`Simulation::run`]) — a thread's next operation arrives
//!   the instant its last one completes, and the run stops at the virtual
//!   horizon. The paper's methodology; the observable is throughput.
//! * **scheduled** ([`Simulation::run_schedule`]) — request `i` arrives at a
//!   precomputed offset whatever the workers are doing, goes to an idle
//!   worker or waits in a FIFO, and the run drains every request. The
//!   observables are per-request sojourn and the queue depth at each
//!   arrival.
//!
//! Everything between arrival and completion — grant, data accesses,
//! release, hand-over, recheck, statistics — is the same code.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use sync_core::rng::Rng;

use crate::cost::CostModel;
use crate::lock_model::{Grant, LockAlgorithm, LockModel, Waiter};
use crate::machine::MachineConfig;
use crate::stats::{LockStats, SimResult};
use crate::workload::{Step, Workload};

/// A configured simulation run (builder style).
#[derive(Debug)]
pub struct Simulation {
    machine: MachineConfig,
    cost: CostModel,
    algorithm: LockAlgorithm,
    workload: Workload,
    threads: usize,
    duration_ns: u64,
    seed: u64,
}

impl Simulation {
    /// Creates a simulation of `algorithm` running `workload` on `machine`.
    pub fn new(
        machine: MachineConfig,
        cost: CostModel,
        algorithm: LockAlgorithm,
        workload: Workload,
    ) -> Self {
        Simulation {
            machine,
            cost,
            algorithm,
            workload,
            threads: 1,
            duration_ns: 10_000_000,
            seed: 1,
        }
    }

    /// Sets the number of simulated threads.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the simulated (virtual-time) duration in milliseconds.
    pub fn virtual_duration_ms(mut self, ms: u64) -> Self {
        self.duration_ns = ms.max(1) * 1_000_000;
        self
    }

    /// Sets the simulated duration in nanoseconds.
    pub fn virtual_duration_ns(mut self, ns: u64) -> Self {
        self.duration_ns = ns.max(1);
        self
    }

    /// Sets the RNG seed (runs with equal seeds are bit-identical).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Runs the simulation closed-loop — every thread starts its next
    /// operation the instant the last one completes — for the configured
    /// virtual duration, and returns its statistics.
    pub fn run(self) -> SimResult {
        Engine::new(&self, Arrivals::Closed).run()
    }

    /// Runs the simulation open-loop: request `i` arrives `arrivals[i]`
    /// nanoseconds after the start (offsets non-decreasing) and is served by
    /// the first idle thread, waiting in a FIFO while all are busy. The run
    /// ends when every request is served, so the configured virtual duration
    /// does not apply and [`SimResult::duration_ns`] is the makespan.
    ///
    /// [`SimResult::sojourn_ns`] and [`SimResult::depth_at_arrival`] are
    /// indexed like `arrivals`; a request's operation is drawn from the seed
    /// and its index alone, so every lock algorithm serves the same requests.
    pub fn run_schedule(self, arrivals: &[u64]) -> SimResult {
        Engine::new(&self, Arrivals::Scheduled(arrivals)).run()
    }
}

/// What hands a thread its next operation.
#[derive(Clone, Copy)]
enum Arrivals<'a> {
    /// The completion of its previous operation, until the horizon.
    Closed,
    /// A dispatcher serving requests that arrive at these offsets.
    Scheduled(&'a [u64]),
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    /// The thread is ready to execute its current step.
    ThreadReady(usize),
    /// The thread finishes the critical section it holds on `lock`.
    Release { thread: usize, lock: usize },
    /// A backoff-style lock re-checks whether a parked waiter can be granted.
    Recheck(usize),
}

#[derive(Debug, PartialEq, Eq)]
struct Scheduled {
    time: u64,
    seq: u64,
    event: Event,
}

impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

struct LockState {
    model: Box<dyn LockModel>,
    held: bool,
    holder_socket: usize,
    last_holder_socket: usize,
    line_owner: Vec<usize>,
    recheck_pending: bool,
    stats: LockStats,
}

struct ThreadState {
    socket: usize,
    steps: Vec<Step>,
    step_idx: usize,
    ops: u64,
    waiting_since: u64,
    /// Schedule index of the request being served (scheduled arrivals only).
    request: usize,
}

struct Engine<'a> {
    sim: &'a Simulation,
    arrivals: Arrivals<'a>,
    rng: Rng,
    heap: BinaryHeap<Reverse<Scheduled>>,
    seq: u64,
    locks: Vec<LockState>,
    threads: Vec<ThreadState>,
    remote_transfers: u64,
    local_accesses: u64,
    // The dispatcher of scheduled arrivals; untouched by closed runs.
    idle: Vec<usize>,
    pending: VecDeque<usize>,
    in_system: u64,
    sojourn_ns: Vec<u64>,
    depth_at_arrival: Vec<u64>,
    last_completion_ns: u64,
}

impl<'a> Engine<'a> {
    fn new(sim: &'a Simulation, arrivals: Arrivals<'a>) -> Self {
        let locks = sim
            .workload
            .locks()
            .iter()
            .map(|spec| LockState {
                model: sim.algorithm.build(
                    sim.machine.sockets,
                    sim.machine.logical_cpus(),
                    &sim.cost,
                ),
                held: false,
                holder_socket: 0,
                last_holder_socket: 0,
                line_owner: vec![0; spec.data_lines.max(1)],
                recheck_pending: false,
                stats: LockStats {
                    name: spec.name.clone(),
                    ..LockStats::default()
                },
            })
            .collect();
        let threads = (0..sim.threads)
            .map(|t| ThreadState {
                socket: sim.machine.socket_of_thread(t),
                steps: Vec::new(),
                step_idx: 0,
                ops: 0,
                waiting_since: 0,
                request: 0,
            })
            .collect();
        Engine {
            sim,
            arrivals,
            rng: Rng::new(sim.seed),
            heap: BinaryHeap::new(),
            seq: 0,
            locks,
            threads,
            remote_transfers: 0,
            local_accesses: 0,
            idle: Vec::new(),
            pending: VecDeque::new(),
            in_system: 0,
            sojourn_ns: Vec::new(),
            depth_at_arrival: Vec::new(),
            last_completion_ns: 0,
        }
    }

    fn schedule(&mut self, time: u64, event: Event) {
        self.seq += 1;
        self.heap.push(Reverse(Scheduled {
            time,
            seq: self.seq,
            event,
        }));
    }

    fn run(mut self) -> SimResult {
        let (schedule, horizon_ns): (&[u64], u64) = match self.arrivals {
            Arrivals::Closed => {
                for t in 0..self.sim.threads {
                    self.start_closed_op(t);
                    // Stagger starts by a few ns so thread 0 does not always
                    // win ties.
                    self.schedule(t as u64, Event::ThreadReady(t));
                }
                (&[], self.sim.duration_ns)
            }
            Arrivals::Scheduled(schedule) => {
                self.idle = (0..self.sim.threads).rev().collect();
                self.sojourn_ns = vec![0; schedule.len()];
                self.depth_at_arrival.reserve_exact(schedule.len());
                (schedule, u64::MAX)
            }
        };

        // The schedule is already in time order, so arrivals are merged
        // with the heap instead of travelling through it; an arrival due at
        // the same instant as a heap event goes first.
        let mut arrived = 0;
        loop {
            let next_event_ns = self.heap.peek().map_or(u64::MAX, |Reverse(e)| e.time);
            match schedule.get(arrived) {
                Some(&at) if at <= next_event_ns => {
                    self.handle_arrival(arrived, at);
                    arrived += 1;
                }
                _ => {
                    let Some(Reverse(next)) = self.heap.pop() else {
                        break;
                    };
                    if next.time > horizon_ns {
                        break;
                    }
                    let now = next.time;
                    match next.event {
                        Event::ThreadReady(t) => self.advance_thread(t, now),
                        Event::Release { thread, lock } => self.handle_release(thread, lock, now),
                        Event::Recheck(lock) => self.handle_recheck(lock, now),
                    }
                }
            }
        }
        debug_assert_eq!(self.in_system, 0, "a drained run leaves no request behind");

        let ops_per_thread: Vec<u64> = self.threads.iter().map(|t| t.ops).collect();
        SimResult {
            algorithm: self.sim.algorithm.name().to_string(),
            workload: self.sim.workload.name.clone(),
            machine: self.sim.machine.label.to_string(),
            threads: self.sim.threads,
            duration_ns: match self.arrivals {
                Arrivals::Closed => self.sim.duration_ns,
                Arrivals::Scheduled(_) => self.last_completion_ns.max(1),
            },
            total_ops: ops_per_thread.iter().sum(),
            ops_per_thread,
            remote_transfers: self.remote_transfers,
            local_accesses: self.local_accesses,
            locks: self
                .locks
                .iter()
                .map(|l| {
                    let mut s = l.stats.clone();
                    s.queue_alterations = l.model.queue_alterations();
                    s
                })
                .collect(),
            sojourn_ns: self.sojourn_ns,
            depth_at_arrival: self.depth_at_arrival,
        }
    }

    /// Instantiates thread `t`'s next operation from `op_seed`, reusing the
    /// thread's step buffer.
    fn start_op(&mut self, t: usize, op_seed: u64) {
        let mut rng = Rng::new(op_seed);
        let thread = &mut self.threads[t];
        self.sim
            .workload
            .generate_op_into(&mut rng, &mut thread.steps);
        thread.step_idx = 0;
    }

    /// Closed loop: the operation is a function of the thread and how many
    /// operations it has completed.
    fn start_closed_op(&mut self, t: usize) {
        let op_seed = self
            .sim
            .seed
            .wrapping_add(t as u64 * 7919)
            .wrapping_add(self.threads[t].ops.wrapping_mul(104_729));
        self.start_op(t, op_seed);
    }

    /// Scheduled arrivals: the operation is a function of the request, not
    /// of the worker that happens to serve it.
    fn assign(&mut self, t: usize, request: usize) {
        self.threads[t].request = request;
        let op_seed = self
            .sim
            .seed
            .wrapping_add((request as u64).wrapping_mul(104_729));
        self.start_op(t, op_seed);
    }

    fn handle_arrival(&mut self, i: usize, now: u64) {
        self.in_system += 1;
        self.depth_at_arrival.push(self.in_system);
        match self.idle.pop() {
            Some(t) => {
                self.assign(t, i);
                self.advance_thread(t, now);
            }
            None => self.pending.push_back(i),
        }
    }

    /// Thread `t` completed an operation at `now`: starts its next one and
    /// returns `true`, or parks the thread as idle and returns `false` when
    /// no request is waiting.
    fn next_op(&mut self, t: usize, now: u64) -> bool {
        self.threads[t].ops += 1;
        match self.arrivals {
            Arrivals::Closed => {
                self.start_closed_op(t);
                true
            }
            Arrivals::Scheduled(schedule) => {
                let served = self.threads[t].request;
                // From the scheduled arrival, not from dispatch: time spent
                // in the pending FIFO counts (no coordinated omission).
                self.sojourn_ns[served] = now - schedule[served];
                self.in_system -= 1;
                self.last_completion_ns = now;
                match self.pending.pop_front() {
                    Some(request) => {
                        self.assign(t, request);
                        true
                    }
                    None => {
                        self.idle.push(t);
                        false
                    }
                }
            }
        }
    }

    /// Executes the thread's current step (and, for zero-cost steps, keeps
    /// going) starting at time `now`.
    fn advance_thread(&mut self, t: usize, now: u64) {
        loop {
            if self.threads[t].step_idx >= self.threads[t].steps.len() && !self.next_op(t, now) {
                return;
            }
            let step = self.threads[t].steps[self.threads[t].step_idx].clone();
            match step {
                Step::Think { ns } => {
                    self.threads[t].step_idx += 1;
                    if ns == 0 {
                        continue;
                    }
                    self.schedule(now + ns, Event::ThreadReady(t));
                    return;
                }
                Step::Critical { lock, .. } => {
                    if !self.locks[lock].held {
                        self.grant(t, lock, now, None, 0);
                    } else {
                        let waiter = Waiter {
                            thread: t,
                            socket: self.threads[t].socket,
                            arrival_ns: now,
                        };
                        self.threads[t].waiting_since = now;
                        self.locks[lock].model.on_arrival(waiter);
                    }
                    return;
                }
            }
        }
    }

    /// Grants `lock` to thread `t` at time `now`. `handover_from` carries the
    /// releasing thread's socket for a contended hand-over; `extra_ns` is the
    /// queue-maintenance cost reported by the policy model.
    fn grant(
        &mut self,
        t: usize,
        lock: usize,
        now: u64,
        handover_from: Option<usize>,
        extra_ns: u64,
    ) {
        let socket = self.threads[t].socket;
        let (service_ns, reads, writes) = match self.threads[t].steps[self.threads[t].step_idx] {
            Step::Critical {
                service_ns,
                reads,
                writes,
                ..
            } => (service_ns, reads, writes),
            Step::Think { .. } => unreachable!("grant on a non-critical step"),
        };

        let cost = &self.sim.cost;
        let state = &mut self.locks[lock];

        let acquire_ns = match handover_from {
            Some(from) => {
                if from == socket {
                    state.stats.local_handovers += 1;
                    self.local_accesses += 1;
                } else {
                    state.stats.remote_handovers += 1;
                    self.remote_transfers += 1;
                }
                state.stats.wait_time_ns += now.saturating_sub(self.threads[t].waiting_since);
                // Oversubscription: the next holder may have been preempted
                // off-CPU while spinning. Only *hot* spinners (the model's
                // `spinning()` set) plus the new holder compete for CPUs;
                // admission-restricting policies keep this under the machine
                // size and never pay the penalty.
                let runnable = state.model.spinning() + 1;
                cost.handover_ns(from, socket)
                    + cost.contended_overhead_ns
                    + cost.oversubscription_penalty_ns(runnable, self.sim.machine.logical_cpus())
            }
            None => {
                state.stats.uncontended += 1;
                if cost.is_remote(state.last_holder_socket, socket) {
                    self.remote_transfers += 1;
                } else {
                    self.local_accesses += 1;
                }
                cost.uncontended_acquire_ns + cost.line_access_ns(state.last_holder_socket, socket)
            }
        } + extra_ns;

        // Critical-section data accesses against the lock's data region:
        // each touches a random line, remote if another socket owns it, and
        // a write migrates the line to this socket. Counted without a
        // per-line branch — which socket owns a random line is a coin toss
        // under FIFO hand-over.
        let lines = state.line_owner.len() as u64;
        let accesses = (reads + writes) as u64;
        let mut remote = 0;
        for i in 0..(reads + writes) {
            let line = self.rng.next_below(lines) as usize;
            remote += u64::from(cost.is_remote(state.line_owner[line], socket));
            if i >= reads {
                state.line_owner[line] = socket;
            }
        }
        let local = accesses - remote;
        let data_ns = remote * cost.remote_line_ns + local * cost.local_line_ns;
        self.remote_transfers += remote;
        self.local_accesses += local;

        state.held = true;
        state.holder_socket = socket;
        state.stats.acquisitions += 1;
        state.stats.hold_time_ns += service_ns + data_ns;

        let total = acquire_ns + service_ns + data_ns;
        self.schedule(now + total.max(1), Event::Release { thread: t, lock });
    }

    fn handle_release(&mut self, t: usize, lock: usize, now: u64) {
        {
            let state = &mut self.locks[lock];
            state.held = false;
            state.last_holder_socket = state.holder_socket;
        }
        // Hand the lock over first: a queue lock's waiters cannot be barged
        // by the releasing thread coming back around. (Barging for
        // backoff-style locks is still possible because their policy may
        // decline the grant, leaving the lock free during the recheck
        // window.)
        self.try_handover(lock, now);

        // Then the releasing thread moves on to its next step.
        self.threads[t].step_idx += 1;
        self.advance_thread(t, now);
    }

    fn try_handover(&mut self, lock: usize, now: u64) {
        if self.locks[lock].held {
            return;
        }
        let releaser_socket = self.locks[lock].last_holder_socket;
        let grant = self.locks[lock]
            .model
            .pick_next(releaser_socket, &mut self.rng);
        match grant {
            Some(Grant { waiter, extra_ns }) => {
                self.grant(waiter.thread, lock, now, Some(releaser_socket), extra_ns);
            }
            None => {
                if self.locks[lock].model.has_waiters() && !self.locks[lock].recheck_pending {
                    self.locks[lock].recheck_pending = true;
                    let delay = self.locks[lock].model.recheck_delay_ns();
                    self.schedule(now + delay, Event::Recheck(lock));
                }
            }
        }
    }

    fn handle_recheck(&mut self, lock: usize, now: u64) {
        self.locks[lock].recheck_pending = false;
        self.try_handover(lock, now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::Workload;

    fn run(algorithm: LockAlgorithm, threads: usize, machine: MachineConfig) -> SimResult {
        Simulation::new(
            machine,
            CostModel::two_socket_xeon(),
            algorithm,
            Workload::kv_map_no_external_work(),
        )
        .threads(threads)
        .virtual_duration_ms(5)
        .seed(42)
        .run()
    }

    #[test]
    fn single_thread_throughput_is_algorithm_independent() {
        let mcs = run(LockAlgorithm::Mcs, 1, MachineConfig::two_socket_paper());
        let cna = run(LockAlgorithm::Cna, 1, MachineConfig::two_socket_paper());
        let rel = (mcs.throughput_ops_per_us() - cna.throughput_ops_per_us()).abs()
            / mcs.throughput_ops_per_us();
        assert!(
            rel < 0.05,
            "CNA must match MCS with one thread (MCS {:.2}, CNA {:.2})",
            mcs.throughput_ops_per_us(),
            cna.throughput_ops_per_us()
        );
    }

    #[test]
    fn single_thread_throughput_is_near_the_paper_anchor() {
        let mcs = run(LockAlgorithm::Mcs, 1, MachineConfig::two_socket_paper());
        let tp = mcs.throughput_ops_per_us();
        assert!(tp > 2.5 && tp < 9.0, "throughput {tp:.2} ops/us");
    }

    #[test]
    fn mcs_collapses_between_one_and_two_threads() {
        let one = run(LockAlgorithm::Mcs, 1, MachineConfig::two_socket_paper());
        let two = run(LockAlgorithm::Mcs, 2, MachineConfig::two_socket_paper());
        assert!(
            two.throughput_ops_per_us() < one.throughput_ops_per_us() * 0.7,
            "expected a collapse: 1T {:.2} vs 2T {:.2}",
            one.throughput_ops_per_us(),
            two.throughput_ops_per_us()
        );
    }

    #[test]
    fn cna_outperforms_mcs_under_contention() {
        let mcs = run(LockAlgorithm::Mcs, 32, MachineConfig::two_socket_paper());
        let cna = run(LockAlgorithm::Cna, 32, MachineConfig::two_socket_paper());
        assert!(
            cna.throughput_ops_per_us() > mcs.throughput_ops_per_us() * 1.2,
            "CNA {:.2} should beat MCS {:.2} by a clear margin",
            cna.throughput_ops_per_us(),
            mcs.throughput_ops_per_us()
        );
    }

    #[test]
    fn cna_advantage_grows_on_the_four_socket_machine() {
        let m2 = MachineConfig::two_socket_paper();
        let m4 = MachineConfig::four_socket_paper();
        let speedup2 = run(LockAlgorithm::Cna, 32, m2.clone()).throughput_ops_per_us()
            / run(LockAlgorithm::Mcs, 32, m2).throughput_ops_per_us();
        let four_cost = CostModel::four_socket_xeon();
        let run4 = |algo| {
            Simulation::new(
                MachineConfig::four_socket_paper(),
                four_cost,
                algo,
                Workload::kv_map_no_external_work(),
            )
            .threads(32)
            .virtual_duration_ms(5)
            .seed(42)
            .run()
            .throughput_ops_per_us()
        };
        let speedup4 = run4(LockAlgorithm::Cna) / run4(LockAlgorithm::Mcs);
        let _ = m4;
        assert!(
            speedup4 > speedup2,
            "4-socket speedup {speedup4:.2} should exceed 2-socket speedup {speedup2:.2}"
        );
    }

    #[test]
    fn mcs_is_fair_and_cna_preserves_long_term_fairness() {
        let mcs = run(LockAlgorithm::Mcs, 16, MachineConfig::two_socket_paper());
        assert!(
            mcs.fairness_factor() < 0.55,
            "MCS fairness {:.3}",
            mcs.fairness_factor()
        );
        // The paper's THRESHOLD (0xffff) flushes the secondary queue roughly
        // once per 65k hand-overs — far less often than a short simulated
        // window contains, exactly like a short wall-clock sample of the real
        // lock. A faster-flushing configuration shows the long-term behaviour
        // within a small window.
        let fair_cna = Simulation::new(
            MachineConfig::two_socket_paper(),
            CostModel::two_socket_xeon(),
            LockAlgorithm::CnaThreshold(0x3ff),
            Workload::kv_map_no_external_work(),
        )
        .threads(16)
        .virtual_duration_ms(20)
        .seed(42)
        .run();
        assert!(
            fair_cna.fairness_factor() < 0.65,
            "CNA (1/1024 flushes) fairness {:.3}",
            fair_cna.fairness_factor()
        );
        // The unfair backoff-based cohort global shows the opposite extreme.
        let cbomcs = run(LockAlgorithm::CBoMcs, 16, MachineConfig::two_socket_paper());
        assert!(
            cbomcs.fairness_factor() > mcs.fairness_factor(),
            "C-BO-MCS ({:.3}) should be less fair than MCS ({:.3})",
            cbomcs.fairness_factor(),
            mcs.fairness_factor()
        );
    }

    #[test]
    fn cna_llc_miss_rate_is_lower_than_mcs() {
        let mcs = run(LockAlgorithm::Mcs, 32, MachineConfig::two_socket_paper());
        let cna = run(LockAlgorithm::Cna, 32, MachineConfig::two_socket_paper());
        assert!(
            cna.llc_misses_per_us() < mcs.llc_misses_per_us(),
            "CNA misses {:.2}/us vs MCS {:.2}/us",
            cna.llc_misses_per_us(),
            mcs.llc_misses_per_us()
        );
    }

    #[test]
    fn cna_keeps_most_handovers_local_under_contention() {
        let cna = run(LockAlgorithm::Cna, 32, MachineConfig::two_socket_paper());
        assert!(
            cna.local_handover_fraction() > 0.9,
            "local fraction {:.3}",
            cna.local_handover_fraction()
        );
        let mcs = run(LockAlgorithm::Mcs, 32, MachineConfig::two_socket_paper());
        assert!(mcs.local_handover_fraction() < 0.7);
    }

    #[test]
    fn single_socket_machine_removes_the_cna_advantage() {
        let machine = MachineConfig::single_socket(36);
        let mcs = run(LockAlgorithm::Mcs, 16, machine.clone());
        let cna = run(LockAlgorithm::Cna, 16, machine);
        let rel = (mcs.throughput_ops_per_us() - cna.throughput_ops_per_us()).abs()
            / mcs.throughput_ops_per_us();
        assert!(rel < 0.1, "on one socket CNA ≈ MCS (rel diff {rel:.3})");
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let a = run(LockAlgorithm::CBoMcs, 8, MachineConfig::two_socket_paper());
        let b = run(LockAlgorithm::CBoMcs, 8, MachineConfig::two_socket_paper());
        assert_eq!(a.total_ops, b.total_ops);
        assert_eq!(a.remote_transfers, b.remote_transfers);
    }

    #[test]
    fn every_algorithm_completes_work_under_contention() {
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
            let r = run(algo, 8, MachineConfig::two_socket_paper());
            assert!(
                r.total_ops > 1_000,
                "{} only completed {} ops",
                algo.name(),
                r.total_ops
            );
            // Nobody may be starved outright in 5 virtual ms except by the
            // explicitly unfair locks.
            if matches!(
                algo,
                LockAlgorithm::Mcs | LockAlgorithm::Cna | LockAlgorithm::Hmcs
            ) {
                assert!(r.ops_per_thread.iter().all(|&o| o > 0), "{}", algo.name());
            }
        }
    }

    #[test]
    fn oversubscription_collapses_mcs_but_not_the_culling_lock() {
        // 8x oversubscription of the 72-CPU paper machine: plain MCS keeps
        // every waiter spinning hot, so each hand-over pays the preemption
        // penalty; MCSCR parks excess waiters on the passive list and keeps
        // its runnable set below the CPU count.
        let machine = MachineConfig::two_socket_paper();
        let cpus = machine.logical_cpus();
        let tp = |algo, threads| run(algo, threads, machine.clone()).throughput_ops_per_us();

        let mcs_1x = tp(LockAlgorithm::Mcs, cpus);
        let mcs_8x = tp(LockAlgorithm::Mcs, cpus * 8);
        assert!(
            mcs_8x < mcs_1x * 0.25,
            "MCS should collapse under oversubscription: 1x {mcs_1x:.2}, 8x {mcs_8x:.2}"
        );

        let cr_1x = tp(LockAlgorithm::Mcscr, cpus);
        let cr_8x = tp(LockAlgorithm::Mcscr, cpus * 8);
        assert!(
            cr_8x > cr_1x * 0.9,
            "MCSCR should hold within 10% of its 1x throughput: 1x {cr_1x:.2}, 8x {cr_8x:.2}"
        );
        assert!(
            cr_8x > mcs_8x * 2.0,
            "MCSCR ({cr_8x:.2}) should clearly beat MCS ({mcs_8x:.2}) at 8x"
        );
    }

    #[test]
    fn at_or_below_the_cpu_count_the_penalty_changes_nothing() {
        // The oversubscription term must be exactly zero when the thread
        // count fits the machine, so all calibrated anchors are untouched.
        let machine = MachineConfig::two_socket_paper();
        let r = run(LockAlgorithm::Mcs, 32, machine.clone());
        let mut zero_penalty_cost = CostModel::two_socket_xeon();
        zero_penalty_cost.preemption_ns = 0;
        let baseline = Simulation::new(
            machine,
            zero_penalty_cost,
            LockAlgorithm::Mcs,
            Workload::kv_map_no_external_work(),
        )
        .threads(32)
        .virtual_duration_ms(5)
        .seed(42)
        .run();
        assert_eq!(r.total_ops, baseline.total_ops);
    }

    /// Fixed-rate arrivals every `gap_ns`.
    fn every(gap_ns: u64, requests: u64) -> Vec<u64> {
        (0..requests).map(|i| i * gap_ns).collect()
    }

    fn scheduled(algorithm: LockAlgorithm, workers: usize, arrivals: &[u64]) -> SimResult {
        Simulation::new(
            MachineConfig::two_socket_paper(),
            CostModel::two_socket_xeon(),
            algorithm,
            Workload::kv_map_no_external_work(),
        )
        .threads(workers)
        .seed(42)
        .run_schedule(arrivals)
    }

    /// One jitter-free critical section per request, so every cost the
    /// engine charges can be predicted exactly.
    fn fixed_cost_workload() -> Workload {
        use crate::workload::{LockChoice, LockSpec, OpTemplate, StepTemplate};
        Workload::new(
            "fixed",
            vec![LockSpec {
                name: "l".into(),
                data_lines: 16,
            }],
            vec![OpTemplate {
                weight: 1.0,
                label: "op",
                steps: vec![StepTemplate::Critical {
                    lock: LockChoice::Fixed(0),
                    service_ns: 100,
                    jitter: 0.0,
                    reads: 4,
                    writes: 2,
                }],
            }],
        )
    }

    /// What one uncontended, all-local `fixed_cost_workload` request costs.
    fn fixed_cost_ns(cost: &CostModel) -> u64 {
        cost.uncontended_acquire_ns + cost.local_line_ns + 100 + 6 * cost.local_line_ns
    }

    #[test]
    fn a_saturating_schedule_behaves_like_the_closed_loop() {
        // With arrivals far faster than service every worker always has a
        // request waiting — the closed loop, reached through the dispatcher.
        for algorithm in [LockAlgorithm::Mcs, LockAlgorithm::Cna] {
            let closed = run(algorithm, 8, MachineConfig::two_socket_paper());
            let open = scheduled(algorithm, 8, &every(10, closed.total_ops));
            assert_eq!(open.total_ops, closed.total_ops, "every request is served");
            assert_eq!(open.ops_per_thread.len(), 8);
            let within_10_percent = |open: f64, closed: f64| (open - closed).abs() <= closed * 0.1;
            assert!(
                within_10_percent(open.throughput_ops_per_us(), closed.throughput_ops_per_us()),
                "{}: open {:.3} vs closed {:.3} ops/us",
                algorithm.name(),
                open.throughput_ops_per_us(),
                closed.throughput_ops_per_us()
            );
            assert!(
                within_10_percent(
                    open.local_handover_fraction(),
                    closed.local_handover_fraction()
                ),
                "{}: open {:.3} vs closed {:.3} local hand-overs",
                algorithm.name(),
                open.local_handover_fraction(),
                closed.local_handover_fraction()
            );
            // The same engine keeps the same books in both modes.
            assert_eq!(open.locks[0].acquisitions, open.total_ops);
            assert!(open.remote_transfers > 0 && open.local_accesses > 0);
        }
    }

    #[test]
    fn far_below_capacity_a_request_costs_what_the_cost_model_predicts() {
        let cost = CostModel::two_socket_xeon();
        let arrivals = every(10_000, 200);
        let result = Simulation::new(
            MachineConfig::two_socket_paper(),
            cost,
            LockAlgorithm::Cna,
            fixed_cost_workload(),
        )
        .threads(4)
        .run_schedule(&arrivals);
        // The most recently idled worker takes each request, so one thread
        // on one socket serves them all: no waiting, no remote line.
        assert_eq!(result.ops_per_thread, vec![200, 0, 0, 0]);
        assert!(result.sojourn_ns.iter().all(|&s| s == fixed_cost_ns(&cost)));
        assert!(result.depth_at_arrival.iter().all(|&d| d == 1));
        assert_eq!(result.locks[0].uncontended, 200);
        assert_eq!(result.remote_transfers, 0);
        assert_eq!(result.duration_ns, 199 * 10_000 + fixed_cost_ns(&cost));
    }

    #[test]
    fn overload_is_charged_to_the_requests_that_waited() {
        // One worker, arrivals ten times faster than it can serve. Request
        // `i` arrives at `i·gap` and completes at `(i+1)·service`, so its
        // sojourn grows linearly with `i` — because it is measured from the
        // scheduled arrival. Measured from dispatch (coordinated omission)
        // every request would report the bare service time.
        let cost = CostModel::two_socket_xeon();
        let service = fixed_cost_ns(&cost);
        let gap = service / 10;
        let result = Simulation::new(
            MachineConfig::two_socket_paper(),
            cost,
            LockAlgorithm::Mcs,
            fixed_cost_workload(),
        )
        .run_schedule(&every(gap, 1_000));
        for (i, &sojourn) in result.sojourn_ns.iter().enumerate() {
            assert_eq!(sojourn, service + i as u64 * (service - gap), "request {i}");
        }
        assert_eq!(result.total_ops, 1_000, "overload delays, never drops");
        assert_eq!(result.duration_ns, 1_000 * service);
        assert!(result.depth_at_arrival.windows(2).all(|w| w[0] <= w[1]));
        assert!(*result.depth_at_arrival.last().unwrap() > 850);
    }
}
