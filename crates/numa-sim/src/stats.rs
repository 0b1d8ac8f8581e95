//! Simulation results and the statistics the paper reports.

/// Per-lock statistics accumulated by the engine.
#[derive(Debug, Clone, Default)]
pub struct LockStats {
    /// Lock name from the workload.
    pub name: String,
    /// Total acquisitions.
    pub acquisitions: u64,
    /// Acquisitions that found the lock free.
    pub uncontended: u64,
    /// Hand-overs that stayed within a socket.
    pub local_handovers: u64,
    /// Hand-overs that crossed sockets.
    pub remote_handovers: u64,
    /// Total simulated nanoseconds threads spent waiting for this lock.
    pub wait_time_ns: u64,
    /// Total simulated nanoseconds spent inside critical sections.
    pub hold_time_ns: u64,
    /// Queue restructurings reported by the policy model (CNA).
    pub queue_alterations: u64,
}

/// The result of one simulation run.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Algorithm label.
    pub algorithm: String,
    /// Workload label.
    pub workload: String,
    /// Machine label.
    pub machine: String,
    /// Number of simulated threads.
    pub threads: usize,
    /// Virtual duration of the measured interval, in nanoseconds.
    pub duration_ns: u64,
    /// Completed operations per thread.
    pub ops_per_thread: Vec<u64>,
    /// Total completed operations.
    pub total_ops: u64,
    /// Remote cache-line transfers (the simulator's LLC load-miss proxy).
    pub remote_transfers: u64,
    /// Local (on-socket) line accesses.
    pub local_accesses: u64,
    /// Per-lock statistics.
    pub locks: Vec<LockStats>,
    /// Per-request sojourn in nanoseconds, from the request's *scheduled*
    /// arrival to its completion, indexed like the arrival schedule. Empty
    /// for closed-loop runs, which have no requests.
    pub sojourn_ns: Vec<u64>,
    /// Requests in the system (arrived, not yet completed) at each arrival,
    /// the arriving one included; indexed like the arrival schedule. Empty
    /// for closed-loop runs.
    pub depth_at_arrival: Vec<u64>,
}

impl SimResult {
    /// Throughput in operations per microsecond (the y-axis of most figures).
    pub fn throughput_ops_per_us(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.total_ops as f64 / (self.duration_ns as f64 / 1_000.0)
    }

    /// LLC load-miss-rate proxy: remote transfers per microsecond of
    /// simulated time (Figure 7's metric).
    pub fn llc_misses_per_us(&self) -> f64 {
        if self.duration_ns == 0 {
            return 0.0;
        }
        self.remote_transfers as f64 / (self.duration_ns as f64 / 1_000.0)
    }

    /// Remote transfers per completed operation (a size-independent view of
    /// the same quantity).
    pub fn llc_misses_per_op(&self) -> f64 {
        if self.total_ops == 0 {
            return 0.0;
        }
        self.remote_transfers as f64 / self.total_ops as f64
    }

    /// The paper's long-term fairness factor (Figure 8): the fraction of all
    /// operations completed by the better-served half of the threads. 0.5 is
    /// perfectly fair, values near 1.0 indicate starvation.
    pub fn fairness_factor(&self) -> f64 {
        fairness_factor(&self.ops_per_thread)
    }

    /// Fraction of contended hand-overs that stayed on-socket.
    pub fn local_handover_fraction(&self) -> f64 {
        let local: u64 = self.locks.iter().map(|l| l.local_handovers).sum();
        let remote: u64 = self.locks.iter().map(|l| l.remote_handovers).sum();
        if local + remote == 0 {
            return 1.0;
        }
        local as f64 / (local + remote) as f64
    }

    /// Total queue alterations across locks (the statistic the paper uses to
    /// evaluate the shuffle-reduction optimisation).
    pub fn queue_alterations(&self) -> u64 {
        self.locks.iter().map(|l| l.queue_alterations).sum()
    }
}

/// Computes the paper's fairness factor from per-thread operation counts.
pub fn fairness_factor(ops_per_thread: &[u64]) -> f64 {
    if ops_per_thread.is_empty() {
        return 0.5;
    }
    let total: u64 = ops_per_thread.iter().sum();
    if total == 0 {
        return 0.5;
    }
    let mut sorted: Vec<u64> = ops_per_thread.to_vec();
    sorted.sort_unstable_by(|a, b| b.cmp(a));
    let half = sorted.len().div_ceil(2);
    let top: u64 = sorted.iter().take(half).sum();
    top as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result_with(ops: Vec<u64>, duration_ns: u64, remote: u64) -> SimResult {
        SimResult {
            algorithm: "X".into(),
            workload: "w".into(),
            machine: "m".into(),
            threads: ops.len(),
            duration_ns,
            total_ops: ops.iter().sum(),
            ops_per_thread: ops,
            remote_transfers: remote,
            local_accesses: 0,
            locks: vec![],
            sojourn_ns: vec![],
            depth_at_arrival: vec![],
        }
    }

    #[test]
    fn throughput_and_miss_rates() {
        let r = result_with(vec![500, 500], 1_000_000, 2_000);
        assert!((r.throughput_ops_per_us() - 1.0).abs() < 1e-9);
        assert!((r.llc_misses_per_us() - 2.0).abs() < 1e-9);
        assert!((r.llc_misses_per_op() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fairness_factor_bounds() {
        assert!((fairness_factor(&[100, 100, 100, 100]) - 0.5).abs() < 1e-9);
        assert!((fairness_factor(&[400, 0, 0, 0]) - 1.0).abs() < 1e-9);
        let skewed = fairness_factor(&[300, 100, 50, 50]);
        assert!(skewed > 0.5 && skewed < 1.0);
        assert_eq!(fairness_factor(&[]), 0.5);
        assert_eq!(fairness_factor(&[0, 0]), 0.5);
    }

    #[test]
    fn fairness_factor_odd_thread_count_takes_the_larger_half() {
        // 3 threads: the top 2 count as the "first half".
        let f = fairness_factor(&[100, 100, 100]);
        assert!((f - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn degenerate_results_do_not_divide_by_zero() {
        let r = result_with(vec![], 0, 0);
        assert_eq!(r.throughput_ops_per_us(), 0.0);
        assert_eq!(r.llc_misses_per_us(), 0.0);
        assert_eq!(r.llc_misses_per_op(), 0.0);
        assert_eq!(r.fairness_factor(), 0.5);
        assert_eq!(r.local_handover_fraction(), 1.0);
    }
}
