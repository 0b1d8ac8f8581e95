//! Workload descriptions: what a simulated thread does per operation.
//!
//! A workload names the locks (and the size of the shared data region each
//! lock protects, in cache lines) and a weighted set of operation templates.
//! Each template is a short program of steps — think (non-critical work) and
//! critical sections naming a lock, a service time, and how many cache lines
//! of the protected region the section reads and writes. The engine draws
//! each operation from the templates with a deterministic RNG, resolving
//! sharded lock choices and jitter.
//!
//! # The draw table
//!
//! [`Workload::new`] validates the templates and compiles them once into a
//! private draw table, and [`Workload::generate_op_into`] reads only that
//! table. It has one row per template: the template's weight (with the
//! weight total summed once), and per step either a constant or the jitter
//! interval as `(low, span)`. A draw picks a row by walking the weights,
//! then draws each step in order: a sharded lock choice takes one
//! `next_below`, a jittered duration takes one `next_f64` and returns
//! `round(low + f·span)`, and a fixed lock or an unjittered duration takes
//! nothing.
//!
//! The streams are bit-identical to instantiating the templates directly.
//! The generator is called the same number of times in the same order, and
//! `low` and `span` come from the same float operations, in the same
//! order, as a direct instantiation performs per step, so every sum and
//! product is the same. The rounding is integer arithmetic instead of
//! `f64::round`, which is a libm call on the baseline x86-64 target (no
//! SSE4.1 `roundsd`); [`round_half_away`] equals `x.round() as u64` for
//! every `f64`, so one rounding serves every step, however large.

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
    locks: Box<[LockSpec]>,
    ops: Box<[OpTemplate]>,
    // Boxed, like the slices, to keep `Workload` (which experiment specs
    // embed by value) as small as a struct of three `Vec`s.
    table: Box<DrawTable>,
}

impl Workload {
    /// Builds a workload and its draw table. Panics if it has no locks or no
    /// operations, or if a template names a lock the workload does not have
    /// (configuration bugs in a benchmark, not runtime conditions).
    pub fn new(name: impl Into<String>, locks: Vec<LockSpec>, ops: Vec<OpTemplate>) -> Self {
        assert!(!locks.is_empty(), "workload needs at least one lock");
        assert!(!ops.is_empty(), "workload needs at least one operation");
        let table = Box::new(DrawTable::new(&ops, locks.len()));
        Workload {
            name: name.into(),
            locks: locks.into(),
            ops: ops.into(),
            table,
        }
    }

    /// The locks of the workload.
    pub fn locks(&self) -> &[LockSpec] {
        &self.locks
    }

    /// The weighted operation templates.
    pub fn ops(&self) -> &[OpTemplate] {
        &self.ops
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
        let row = self.table.pick(rng);
        steps.clear();
        steps.extend(row.steps.iter().map(|s| s.draw(rng)));
    }
}

/// The templates compiled for drawing; see the module docs.
#[derive(Debug, Clone, PartialEq)]
struct DrawTable {
    rows: Box<[OpRow]>,
    total_weight: f64,
}

#[derive(Debug, Clone, PartialEq)]
struct OpRow {
    weight: f64,
    steps: Box<[StepDraw]>,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum StepDraw {
    Think(Duration),
    Critical {
        lock: LockDraw,
        service: Duration,
        reads: usize,
        writes: usize,
    },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum LockDraw {
    Fixed(usize),
    Range { first: usize, count: u64 },
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Duration {
    Const(u64),
    /// `round(low + f·span)` for one uniform `f` in `[0, 1)`.
    Jitter {
        low: f64,
        span: f64,
    },
}

impl DrawTable {
    fn new(ops: &[OpTemplate], num_locks: usize) -> Self {
        let rows = ops
            .iter()
            .map(|op| OpRow {
                weight: op.weight,
                steps: op
                    .steps
                    .iter()
                    .map(|step| StepDraw::new(step, op.label, num_locks))
                    .collect(),
            })
            .collect();
        DrawTable {
            rows,
            total_weight: ops.iter().map(|t| t.weight).sum(),
        }
    }

    /// The weighted row choice: one `next_f64`, and the weights walked in
    /// template order, with the last row taking any remainder.
    #[inline]
    fn pick(&self, rng: &mut Rng) -> &OpRow {
        let mut pick = rng.next_f64() * self.total_weight;
        for row in &self.rows[..self.rows.len() - 1] {
            if pick < row.weight {
                return row;
            }
            pick -= row.weight;
        }
        &self.rows[self.rows.len() - 1]
    }
}

impl StepDraw {
    fn new(step: &StepTemplate, label: &str, num_locks: usize) -> Self {
        match *step {
            StepTemplate::Think { ns, jitter } => StepDraw::Think(Duration::new(ns, jitter)),
            StepTemplate::Critical {
                lock,
                service_ns,
                jitter,
                reads,
                writes,
            } => {
                // A zero-width range still draws, and always gives `first`.
                let (draw, last) = match lock {
                    LockChoice::Fixed(id) => (LockDraw::Fixed(id), Some(id)),
                    LockChoice::UniformRange { first, count } => (
                        LockDraw::Range {
                            first,
                            count: count.max(1) as u64,
                        },
                        first.checked_add(count.max(1) - 1),
                    ),
                };
                assert!(
                    last.is_some_and(|last| last < num_locks),
                    "operation template `{label}` takes {lock:?}, \
                     but the workload has {num_locks} locks"
                );
                StepDraw::Critical {
                    lock: draw,
                    service: Duration::new(service_ns, jitter),
                    reads,
                    writes,
                }
            }
        }
    }

    #[inline]
    fn draw(self, rng: &mut Rng) -> Step {
        match self {
            StepDraw::Think(ns) => Step::Think { ns: ns.draw(rng) },
            StepDraw::Critical {
                lock,
                service,
                reads,
                writes,
            } => Step::Critical {
                lock: match lock {
                    LockDraw::Fixed(id) => id,
                    LockDraw::Range { first, count } => first + rng.next_below(count) as usize,
                },
                service_ns: service.draw(rng),
                reads,
                writes,
            },
        }
    }
}

impl Duration {
    /// `ns` ± `jitter`, with the interval computed exactly as a per-draw
    /// `low + f·(high − low)` would compute it.
    fn new(ns: u64, jitter: f64) -> Self {
        if jitter <= 0.0 || ns == 0 {
            return Duration::Const(ns);
        }
        let jitter = jitter.min(1.0);
        let low = (ns as f64 * (1.0 - jitter)).max(0.0);
        let high = ns as f64 * (1.0 + jitter);
        Duration::Jitter {
            low,
            span: high - low,
        }
    }

    #[inline]
    fn draw(self, rng: &mut Rng) -> u64 {
        match self {
            Duration::Const(ns) => ns,
            Duration::Jitter { low, span } => round_half_away(low + rng.next_f64() * span),
        }
    }
}

/// `x.round() as u64` (half away from zero, saturating) with no libm call.
/// For `0 ≤ x < 2^52`, `x as u64` truncates to `⌊x⌋` exactly, `⌊x⌋`
/// converts back exactly, and the fraction `x − ⌊x⌋` is exact too (a
/// multiple of `x`'s ulp below 1). From 2^52 to 2^64 every `f64` is an
/// integer, so the fraction is 0. Above 2^64 (and at +∞) `x as u64`
/// saturates at `u64::MAX` and the add saturates with it; below 0 (and at
/// NaN) both sides give 0.
#[inline]
fn round_half_away(x: f64) -> u64 {
    let t = x as u64;
    t.saturating_add(u64::from(x - t as f64 >= 0.5))
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
            let v = Duration::new(1_000, 0.3).draw(&mut rng);
            assert!((700..=1_300).contains(&v), "v = {v}");
        }
        assert_eq!(Duration::new(500, 0.0), Duration::Const(500));
        assert_eq!(Duration::new(0, 0.5), Duration::Const(0));
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
        assert!(w.ops().len() >= 2);
    }

    #[test]
    #[should_panic(expected = "template `sharded` takes UniformRange { first: 1, count: 3 }")]
    fn an_out_of_range_lock_is_rejected_when_the_table_is_built() {
        let w = tiny_workload();
        let mut ops = w.ops().to_vec();
        ops[1].steps[0] = StepTemplate::Critical {
            lock: LockChoice::UniformRange { first: 1, count: 3 },
            service_ns: 50,
            jitter: 0.2,
            reads: 1,
            writes: 0,
        };
        let _ = Workload::new("bad", w.locks().to_vec(), ops);
    }

    #[test]
    #[should_panic(expected = "template `fixed` takes Fixed(3)")]
    fn an_out_of_range_fixed_lock_is_rejected() {
        let w = tiny_workload();
        let mut ops = w.ops().to_vec();
        ops[0].steps[1] = StepTemplate::Critical {
            lock: LockChoice::Fixed(3),
            service_ns: 200,
            jitter: 0.0,
            reads: 3,
            writes: 1,
        };
        let _ = Workload::new("bad", w.locks().to_vec(), ops);
    }

    fn same_as_round(x: f64) {
        assert_eq!(round_half_away(x), x.round() as u64, "x = {x:?}");
    }

    #[test]
    fn rounding_matches_f64_round_at_the_edges() {
        same_as_round(0.0);
        same_as_round(-0.0);
        same_as_round(0.49999999999999994);
        same_as_round(0.5f64.next_down());
        same_as_round(0.5f64.next_up());
        for k in [0u64, 1, 2, 3, 7, 1_000, 123_456_789, (1 << 51) - 1] {
            let half = k as f64 + 0.5;
            for x in [k as f64, half.next_down(), half, half.next_up()] {
                same_as_round(x);
            }
        }
        // 2^52 − 0.5 is the last half-integer; from 2^52 on every value is
        // an integer, and from 2^64 on both sides saturate.
        let limit = (1u64 << 52) as f64;
        assert_eq!(limit.next_down(), limit - 0.5);
        let top = 2f64.powi(64);
        for x in [
            limit.next_down().next_down(),
            limit.next_down(),
            limit,
            limit.next_up(),
            2f64.powi(53).next_up(),
            top.next_down(),
            top,
            top.next_up(),
            2f64.powi(70),
            f64::MAX,
            f64::INFINITY,
        ] {
            same_as_round(x);
        }
        // Below zero, and NaN, both give 0.
        for x in [-0.4, -0.5, -0.6, -1.5, -1e300, f64::NEG_INFINITY, f64::NAN] {
            same_as_round(x);
        }
    }

    #[test]
    fn rounding_matches_f64_round_on_random_values() {
        let mut rng = Rng::new(52);
        for i in 0..1_000_000u64 {
            // Uniform in [0, 1), scaled over every binade up to 2^70.
            same_as_round(rng.next_f64() * 2f64.powi((i % 71) as i32));
        }
    }

    /// Instantiation as it was before the draw table, kept word for word as
    /// the reference the table must reproduce.
    struct Reference<'a> {
        locks: &'a [LockSpec],
        ops: &'a [OpTemplate],
    }

    impl Reference<'_> {
        fn generate_op_into(&self, rng: &mut Rng, steps: &mut Vec<Step>) {
            let total: f64 = self.ops.iter().map(|t| t.weight).sum();
            let mut pick = rng.next_f64() * total;
            let mut template = &self.ops[self.ops.len() - 1];
            for t in self.ops {
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

    /// The table and the reference draw equal operations from `seeds`, and
    /// leave their generators in the same state.
    fn assert_draws_match_the_reference(w: &Workload, seeds: std::ops::Range<u64>) {
        let reference = Reference {
            locks: w.locks(),
            ops: w.ops(),
        };
        let (mut table_steps, mut reference_steps) = (Vec::new(), Vec::new());
        for seed in seeds {
            let (mut a, mut b) = (Rng::new(seed), Rng::new(seed));
            w.generate_op_into(&mut a, &mut table_steps);
            reference.generate_op_into(&mut b, &mut reference_steps);
            assert_eq!(table_steps, reference_steps, "{}, seed {seed}", w.name);
            assert_eq!(a.next_u64(), b.next_u64(), "{}, seed {seed}", w.name);
        }
    }

    #[test]
    fn the_table_draws_what_the_templates_did_for_every_preset() {
        use crate::workloads::*;
        let mut presets = vec![
            kv_map(0, 0.2),
            kv_map(1_800, 0.2),
            leveldb_readrandom(true),
            leveldb_readrandom(false),
            kyoto_wicked(),
            locktorture(false),
            locktorture(true),
            tiny_workload(),
        ];
        presets.extend(WillItScale::all().map(will_it_scale));
        for w in &presets {
            assert_draws_match_the_reference(w, 0..100_000);
        }
    }

    #[test]
    fn steps_that_can_reach_2_pow_52_and_beyond_draw_what_the_templates_did() {
        let lock = LockSpec {
            name: "a".into(),
            data_lines: 1,
        };
        let think = |ns, jitter| OpTemplate {
            weight: 1.0,
            label: "think",
            steps: vec![StepTemplate::Think { ns, jitter }],
        };
        // 2^51 ± 99.9 % stays below 2^52; 2^51 ± 100 % can reach it, and
        // u64::MAX ± 100 % reaches past 2^64.
        for (ns, jitter) in [
            (1 << 51, 0.999),
            (1 << 51, 1.0),
            (1 << 52, 0.1),
            (1 << 62, 0.5),
            (u64::MAX, 1.0),
        ] {
            let w = Workload::new("big", vec![lock.clone()], vec![think(ns, jitter)]);
            assert_draws_match_the_reference(&w, 0..10_000);
        }
    }
}
