//! Workload descriptions: what a simulated thread does per operation.
//!
//! A workload names the locks (and the size of the shared data region each
//! lock protects, in cache lines) and a weighted set of operation templates.
//! Each template is a short program of steps — think (non-critical work) and
//! critical sections naming a lock, a service time, and how many cache lines
//! of the protected region the section reads and writes. The engine
//! instantiates templates with a deterministic RNG, resolving sharded lock
//! choices and jitter.

use sync_core::rng::Rng;

/// A lock (and the data region it protects) in a workload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LockSpec {
    /// Human-readable name (used by lockstat-style reports, e.g.
    /// `files_struct.file_lock`).
    pub name: String,
    /// Size of the protected shared data region, in cache lines.
    pub data_lines: usize,
}

/// How a critical-section step chooses its lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockChoice {
    /// Always the same lock.
    Fixed(usize),
    /// Uniformly one of `count` locks starting at `first` (e.g. a sharded
    /// LRU cache).
    UniformRange {
        /// First lock id of the range.
        first: usize,
        /// Number of locks in the range.
        count: usize,
    },
}

/// One step of an operation template.
#[derive(Debug, Clone, PartialEq)]
pub enum StepTemplate {
    /// Non-critical work of roughly `ns` nanoseconds (± `jitter` fraction).
    Think {
        /// Mean duration.
        ns: u64,
        /// Relative jitter in `[0, 1]`.
        jitter: f64,
    },
    /// A critical section.
    Critical {
        /// Which lock to take.
        lock: LockChoice,
        /// Mean service time inside the critical section (excluding the
        /// NUMA data-access costs the engine adds).
        service_ns: u64,
        /// Relative jitter in `[0, 1]`.
        jitter: f64,
        /// Cache lines of the protected region read.
        reads: usize,
        /// Cache lines of the protected region written.
        writes: usize,
    },
}

/// A weighted operation template.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTemplate {
    /// Relative weight with which this template is chosen.
    pub weight: f64,
    /// Label used in statistics (e.g. "lookup", "update").
    pub label: &'static str,
    /// The steps of the operation, executed in order.
    pub steps: Vec<StepTemplate>,
}

/// A concrete, instantiated step handed to the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Step {
    /// Non-critical work.
    Think {
        /// Duration in nanoseconds.
        ns: u64,
    },
    /// A critical section on a concrete lock.
    Critical {
        /// Lock id.
        lock: usize,
        /// Service time in nanoseconds.
        service_ns: u64,
        /// Cache lines read.
        reads: usize,
        /// Cache lines written.
        writes: usize,
    },
}

/// A complete workload description.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display name.
    pub name: String,
    /// The locks of the workload.
    pub locks: Vec<LockSpec>,
    /// Weighted operation templates.
    pub ops: Vec<OpTemplate>,
}

impl Workload {
    /// Builds a workload; panics if it has no locks or no operations (a
    /// configuration bug in a benchmark, not a runtime condition).
    pub fn new(name: impl Into<String>, locks: Vec<LockSpec>, ops: Vec<OpTemplate>) -> Self {
        assert!(!locks.is_empty(), "workload needs at least one lock");
        assert!(!ops.is_empty(), "workload needs at least one operation");
        Workload {
            name: name.into(),
            locks,
            ops,
        }
    }

    /// Number of locks.
    pub fn num_locks(&self) -> usize {
        self.locks.len()
    }

    /// Instantiates one operation for a thread.
    pub fn generate_op(&self, rng: &mut Rng) -> Vec<Step> {
        let mut steps = Vec::new();
        self.generate_op_into(rng, &mut steps);
        steps
    }

    /// [`Self::generate_op`] into a caller-owned buffer (cleared first), so a
    /// simulated thread reuses one allocation for all its operations.
    pub fn generate_op_into(&self, rng: &mut Rng, steps: &mut Vec<Step>) {
        let total: f64 = self.ops.iter().map(|t| t.weight).sum();
        let mut pick = rng.next_f64() * total;
        let mut template = &self.ops[self.ops.len() - 1];
        for t in &self.ops {
            if pick < t.weight {
                template = t;
                break;
            }
            pick -= t.weight;
        }
        steps.clear();
        steps.extend(template.steps.iter().map(|s| self.instantiate(s, rng)));
    }

    fn instantiate(&self, step: &StepTemplate, rng: &mut Rng) -> Step {
        match *step {
            StepTemplate::Think { ns, jitter } => Step::Think {
                ns: apply_jitter(ns, jitter, rng),
            },
            StepTemplate::Critical {
                lock,
                service_ns,
                jitter,
                reads,
                writes,
            } => {
                let lock = match lock {
                    LockChoice::Fixed(id) => id,
                    LockChoice::UniformRange { first, count } => {
                        first + rng.next_below(count.max(1) as u64) as usize
                    }
                };
                debug_assert!(lock < self.locks.len(), "lock id out of range");
                Step::Critical {
                    lock,
                    service_ns: apply_jitter(service_ns, jitter, rng),
                    reads,
                    writes,
                }
            }
        }
    }
}

fn apply_jitter(ns: u64, jitter: f64, rng: &mut Rng) -> u64 {
    if jitter <= 0.0 || ns == 0 {
        return ns;
    }
    let jitter = jitter.min(1.0);
    let low = (ns as f64 * (1.0 - jitter)).max(0.0);
    let high = ns as f64 * (1.0 + jitter);
    (low + rng.next_f64() * (high - low)).round() as u64
}

// Convenience constructors for the paper's workloads live in
// `crate::workloads`; the ones below are generic building blocks used by
// tests and by the key-value map benchmark.
impl Workload {
    /// The key-value map microbenchmark of §7.1.1 with no external work
    /// (Figure 6): one lock protecting an AVL tree, 80 % lookups / 20 %
    /// updates, empty non-critical sections.
    pub fn kv_map_no_external_work() -> Self {
        crate::workloads::kv_map(0, 0.2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_workload() -> Workload {
        Workload::new(
            "test",
            vec![
                LockSpec {
                    name: "a".into(),
                    data_lines: 8,
                },
                LockSpec {
                    name: "b".into(),
                    data_lines: 8,
                },
                LockSpec {
                    name: "c".into(),
                    data_lines: 8,
                },
            ],
            vec![
                OpTemplate {
                    weight: 1.0,
                    label: "fixed",
                    steps: vec![
                        StepTemplate::Think {
                            ns: 100,
                            jitter: 0.5,
                        },
                        StepTemplate::Critical {
                            lock: LockChoice::Fixed(0),
                            service_ns: 200,
                            jitter: 0.0,
                            reads: 3,
                            writes: 1,
                        },
                    ],
                },
                OpTemplate {
                    weight: 1.0,
                    label: "sharded",
                    steps: vec![StepTemplate::Critical {
                        lock: LockChoice::UniformRange { first: 1, count: 2 },
                        service_ns: 50,
                        jitter: 0.2,
                        reads: 1,
                        writes: 0,
                    }],
                },
            ],
        )
    }

    #[test]
    fn generates_steps_from_templates() {
        let w = tiny_workload();
        let mut rng = Rng::new(1);
        let mut saw_fixed = false;
        let mut saw_sharded = false;
        for _ in 0..100 {
            let op = w.generate_op(&mut rng);
            match op.last().unwrap() {
                Step::Critical {
                    lock: 0,
                    service_ns,
                    ..
                } => {
                    saw_fixed = true;
                    assert_eq!(*service_ns, 200, "no jitter requested");
                    assert_eq!(op.len(), 2);
                }
                Step::Critical { lock, .. } => {
                    saw_sharded = true;
                    assert!(*lock == 1 || *lock == 2);
                }
                other => panic!("unexpected step {other:?}"),
            }
        }
        assert!(saw_fixed && saw_sharded);
    }

    #[test]
    fn jitter_stays_within_bounds() {
        let mut rng = Rng::new(2);
        for _ in 0..1_000 {
            let v = apply_jitter(1_000, 0.3, &mut rng);
            assert!((700..=1_300).contains(&v), "v = {v}");
        }
        assert_eq!(apply_jitter(500, 0.0, &mut rng), 500);
        assert_eq!(apply_jitter(0, 0.5, &mut rng), 0);
    }

    #[test]
    fn think_jitter_is_applied() {
        let w = tiny_workload();
        let mut rng = Rng::new(3);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..200 {
            if let Some(Step::Think { ns }) = w
                .generate_op(&mut rng)
                .first()
                .filter(|s| matches!(s, Step::Think { .. }))
            {
                distinct.insert(*ns);
            }
        }
        assert!(distinct.len() > 5, "jittered think times should vary");
    }

    #[test]
    #[should_panic(expected = "at least one lock")]
    fn empty_lock_list_is_rejected() {
        let _ = Workload::new("bad", vec![], vec![]);
    }

    #[test]
    fn kv_map_preset_is_well_formed() {
        let w = Workload::kv_map_no_external_work();
        assert_eq!(w.num_locks(), 1);
        assert!(w.ops.len() >= 2);
    }
}
