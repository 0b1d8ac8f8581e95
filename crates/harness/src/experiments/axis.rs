//! The sweep axes of the experiment grid, as one table.
//!
//! Besides its lock and workload, every cell of an experiment sits at one
//! point on each [`Axis`]: a thread count, a shard count, a group-commit
//! batch limit and an offered rate. Each axis is one row of `ROWS` — its
//! flag, report column, table header, default point, diff-label suffix, the
//! workloads it applies to and the noun its errors use — and everything
//! else (the list grammar, validation, the cell expansion, the report
//! columns, the diff key) iterates [`Axis::ALL`]. Adding an axis is one row
//! here plus the runner code that consumes the new coordinate.

use std::collections::HashSet;
use std::fmt;
use std::ops::{Index, IndexMut};

use super::load::{Arrival, LoadMode};
use super::{ExperimentError, SubstrateWorkload, WorkloadSpec};

/// One sweep axis of the experiment grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Axis {
    /// Worker (or simulated) thread count.
    Threads,
    /// Shard count of the sharded kv-map (1 = one lock guards all state).
    Shards,
    /// Group-commit batch limit of leveldb writes (0 = the native path).
    Batch,
    /// Offered load in requests per second (0 = closed loop).
    Rate,
}

/// What one axis is, as data.
struct Row {
    /// Report column and JSON field.
    name: &'static str,
    /// The `lockbench` flags that set it.
    flags: &'static [&'static str],
    /// Column header of rendered tables.
    header: &'static str,
    /// What the errors about a list of this axis call it (`invalid thread
    /// list`).
    list: &'static str,
    /// What one point is called in error messages.
    noun: &'static str,
    /// Where cells sit when the spec does not sweep the axis; `None` lets
    /// the runner choose (the thread axis).
    default: Option<u64>,
    /// Diff-label suffix (`@4sh`).
    suffix: &'static str,
    /// Whether a workload has the axis, given what else the spec sweeps.
    applies_to: fn(&WorkloadSpec, &AxisLists) -> bool,
    /// The workloads it applies to, for error messages.
    workloads: &'static str,
}

const ROWS: [Row; Axis::COUNT] = [
    Row {
        name: "threads",
        flags: &["--threads"],
        header: "threads",
        list: "thread",
        noun: "thread count",
        default: None,
        suffix: "t",
        applies_to: |_, _| true,
        workloads: "every workload",
    },
    Row {
        name: "shards",
        flags: &["--shards"],
        header: "shards",
        list: "shard",
        noun: "shard count",
        default: Some(1),
        suffix: "sh",
        applies_to: |w, _| matches!(w, WorkloadSpec::Substrate(SubstrateWorkload::KvMap)),
        workloads: "kvmap",
    },
    Row {
        name: "batch",
        flags: &["--batch", "--batches"],
        header: "batch",
        list: "batch",
        noun: "batch limit",
        default: Some(0),
        suffix: "b",
        applies_to: |w, _| matches!(w, WorkloadSpec::Substrate(SubstrateWorkload::Leveldb)),
        workloads: "leveldb",
    },
    Row {
        name: "rate",
        flags: &["--rate", "--rates"],
        header: "rate/s",
        list: "rate",
        noun: "rate",
        default: Some(0),
        suffix: "/s",
        applies_to: |w, axes| w.supports_open_loop(axes.is_swept(Axis::Batch)),
        workloads: "kvmap and sim, and to leveldb with --batch",
    },
];

/// The most points one list may expand to. Ranges are counted before they
/// are expanded, so `--threads 1-4000000000` is an error, not an abort.
pub const MAX_POINTS: u64 = 4096;

impl Axis {
    /// Number of axes.
    pub(crate) const COUNT: usize = 4;

    /// Every axis, in report-column order.
    pub const ALL: [Axis; Axis::COUNT] = [Axis::Threads, Axis::Shards, Axis::Batch, Axis::Rate];

    fn row(self) -> &'static Row {
        &ROWS[self as usize]
    }

    /// The report column (`threads`, `shards`, `batch`, `rate`).
    pub fn name(self) -> &'static str {
        self.row().name
    }

    /// The axis a `lockbench` flag sets (`--threads`, `--batch`, ...).
    pub fn from_flag(flag: &str) -> Option<Axis> {
        Axis::ALL
            .into_iter()
            .find(|a| a.row().flags.contains(&flag))
    }

    /// Where cells sit when a spec does not sweep the axis; `None` for the
    /// thread axis, whose default is the runner's.
    pub(super) fn default_point(self) -> Option<u64> {
        self.row().default
    }

    /// The typed error about a list of this axis.
    pub(super) fn invalid(self, message: String) -> ExperimentError {
        ExperimentError::InvalidAxis {
            axis: self,
            message,
        }
    }

    /// The error about a list with no points: a swept axis must sweep
    /// something.
    fn selects_nothing(self) -> ExperimentError {
        self.invalid(format!("the list selects no {}s", self.row().noun))
    }

    /// Rejects zero and repeated points: a sweep that silently ran a point
    /// twice, or at nothing, would corrupt baseline comparisons.
    fn check(self, noun: &str, points: &[u64]) -> Result<(), ExperimentError> {
        if points.contains(&0) {
            return Err(self.invalid(format!("{noun}s must be at least 1")));
        }
        let mut seen = HashSet::new();
        match points.iter().find(|p| !seen.insert(**p)) {
            Some(p) => Err(self.invalid(format!("{noun} {p} appears twice"))),
            None => Ok(()),
        }
    }

    fn multiple_noun(self) -> String {
        format!("{} multiplier", self.row().list)
    }

    /// The header of the axis's column in rendered tables (`rate/s`).
    pub(super) fn header(self) -> &'static str {
        self.row().header
    }

    /// The text of [`ExperimentError::InvalidAxis`].
    pub(super) fn invalid_message(self, message: &str) -> String {
        format!("invalid {} list: {message}", self.row().list)
    }

    /// The text of [`ExperimentError::UnsupportedAxis`].
    pub(super) fn unsupported_message(self, workload: &str) -> String {
        let row = self.row();
        format!(
            "workload {workload:?} has no {self} axis ({} applies to {})",
            row.flags[0], row.workloads
        )
    }
}

impl fmt::Display for Axis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What a spec sweeps on each axis: the points of every [`Axis`] (`None` =
/// not swept: every cell sits at the axis's default point), plus the
/// CPU-count multiples of the thread axis. Indexing by an axis gives its
/// points, empty when it is not swept.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AxisLists {
    points: [Option<Vec<u64>>; Axis::COUNT],
    /// Multiples of the back-end's CPU count (`4x`): resolved at run time
    /// against the simulated machine's logical CPUs or the host's
    /// parallelism, and exempt from the scale's thread cap —
    /// oversubscription is the point.
    pub multiples: Vec<u64>,
}

impl Index<Axis> for AxisLists {
    type Output = [u64];

    fn index(&self, axis: Axis) -> &[u64] {
        self.points[axis as usize].as_deref().unwrap_or_default()
    }
}

impl AxisLists {
    /// Sweeps `axis` over `points`, or (`None`) stops sweeping it. A swept
    /// axis with no points fails validation, as an empty list does on the
    /// command line.
    pub fn set(&mut self, axis: Axis, points: Option<Vec<u64>>) {
        self.points[axis as usize] = points;
    }

    /// Whether the lists sweep `axis`.
    pub fn is_swept(&self, axis: Axis) -> bool {
        self.points[axis as usize].is_some()
    }

    /// Sets `axis` from a `lockbench` list: comma-separated points, each a
    /// number (`4`) or an inclusive range (`1-8`, optionally strided:
    /// `2-16/2`). On the thread axis an `x` on every range boundary makes
    /// the token a CPU-count multiple (`4x`, `1x-8x`, `2x-8x/2`). Zero,
    /// repeated points, an empty list and more than [`MAX_POINTS`] points
    /// are the axis's typed error.
    ///
    /// # Examples
    ///
    /// ```
    /// use harness::experiments::{Axis, AxisLists};
    /// let mut axes = AxisLists::default();
    /// axes.parse(Axis::Threads, "1,2-8/2,4x").unwrap();
    /// assert_eq!(axes[Axis::Threads], vec![1, 2, 4, 6, 8]);
    /// assert_eq!(axes.multiples, vec![4]);
    /// axes.parse(Axis::Rate, "1000-3000/1000").unwrap();
    /// assert_eq!(axes[Axis::Rate], vec![1_000, 2_000, 3_000]);
    /// assert!(axes.parse(Axis::Shards, "0").is_err());
    /// assert!(axes.parse(Axis::Batch, "1,1").is_err());
    /// ```
    pub fn parse(&mut self, axis: Axis, list: &str) -> Result<(), ExperimentError> {
        let row = axis.row();
        let (mut points, mut multiples) = (Vec::new(), Vec::new());
        let mut total: u64 = 0;
        for part in list.split(',').map(str::trim).filter(|p| !p.is_empty()) {
            let multiple = axis == Axis::Threads && part.contains(['x', 'X']);
            let noun = if multiple {
                axis.multiple_noun()
            } else {
                row.noun.to_string()
            };
            let number = |token: &str| match token.trim().parse::<u64>() {
                Ok(0) => Err(axis.invalid(format!("{noun}s must be at least 1"))),
                Ok(n) => Ok(n),
                Err(_) => Err(axis.invalid(format!("{token:?} is not a {noun}"))),
            };
            // In a multiple every range boundary carries the `x`; the
            // stride is a plain count.
            let boundary = |token: &str| match multiple {
                false => number(token),
                true => number(token.trim().strip_suffix(['x', 'X']).ok_or_else(|| {
                    axis.invalid(format!(
                        "{part:?}: multiplier tokens end in 'x' (e.g. 4x, 1x-8x)"
                    ))
                })?),
            };
            let (range, step) = match part.split_once('/') {
                Some((range, step)) => (range, number(step)?),
                None => (part, 1),
            };
            let (lo, hi) = match range.split_once('-') {
                Some((lo, hi)) => (boundary(lo)?, boundary(hi)?),
                None if part.contains('/') => {
                    return Err(
                        axis.invalid(format!("{part:?}: stride requires a range (lo-hi/step)"))
                    )
                }
                None => {
                    let n = boundary(range)?;
                    (n, n)
                }
            };
            if lo > hi {
                return Err(axis.invalid(format!("{part:?}: range is descending")));
            }
            total = total.saturating_add((hi - lo) / step + 1);
            if total > MAX_POINTS {
                return Err(axis.invalid(format!("the list has more than {MAX_POINTS} points")));
            }
            let dest = if multiple {
                &mut multiples
            } else {
                &mut points
            };
            dest.extend((lo..=hi).step_by(step as usize));
        }
        if points.is_empty() && multiples.is_empty() {
            return Err(axis.selects_nothing());
        }
        axis.check(row.noun, &points)?;
        axis.check(&axis.multiple_noun(), &multiples)?;
        // A list of multiples alone leaves the thread counts unswept.
        self.set(axis, (!points.is_empty()).then_some(points));
        if axis == Axis::Threads {
            self.multiples = multiples;
        }
        Ok(())
    }

    /// Rejects swept axes with no points, and zero and repeated points on
    /// any axis (lists set through the builder skip the grammar).
    pub(super) fn check(&self) -> Result<(), ExperimentError> {
        for axis in Axis::ALL {
            if self.is_swept(axis) && self[axis].is_empty() {
                return Err(axis.selects_nothing());
            }
            axis.check(axis.row().noun, &self[axis])?;
        }
        Axis::Threads.check(&Axis::Threads.multiple_noun(), &self.multiples)
    }

    /// Whether a spec with these lists may select `workload`: the first
    /// swept axis it lacks, if any.
    pub(super) fn missing_on(&self, workload: &WorkloadSpec) -> Option<Axis> {
        Axis::ALL
            .into_iter()
            .find(|&axis| self.is_swept(axis) && !(axis.row().applies_to)(workload, self))
    }
}

/// One cell's coordinate: a point on every [`Axis`], indexed by the axis.
/// Points order axis by axis in [`Axis::ALL`] order — the row order of
/// sweeps and diffs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GridPoint([u64; Axis::COUNT]);

impl Index<Axis> for GridPoint {
    type Output = u64;

    fn index(&self, axis: Axis) -> &u64 {
        &self.0[axis as usize]
    }
}

impl IndexMut<Axis> for GridPoint {
    fn index_mut(&mut self, axis: Axis) -> &mut u64 {
        &mut self.0[axis as usize]
    }
}

impl GridPoint {
    /// `threads` threads with every other axis at its default point:
    /// closed loop, unsharded, the native write path.
    pub fn closed(threads: usize) -> Self {
        GridPoint(Axis::ALL.map(|a| a.default_point().unwrap_or(threads as u64)))
    }

    /// The point with `axis` moved to `value`.
    pub fn with(mut self, axis: Axis, value: u64) -> Self {
        self[axis] = value;
        self
    }

    /// The thread count.
    pub fn threads(self) -> usize {
        self[Axis::Threads] as usize
    }

    /// The cell's load shape: closed loop at rate 0, open loop at the
    /// offered rate drawn from `arrival` otherwise.
    pub fn mode(self, arrival: Arrival) -> LoadMode {
        match self[Axis::Rate] {
            0 => LoadMode::Closed,
            rate_per_sec => LoadMode::Open {
                rate_per_sec,
                arrival,
            },
        }
    }

    /// The diff-key label of the point: `@<n><suffix>` for every axis off
    /// its default point (`@8t@4sh`, `@2t@1000/s`).
    pub(super) fn label(self) -> String {
        Axis::ALL
            .into_iter()
            .filter(|&a| Some(self[a]) != a.default_point())
            .map(|a| format!("@{}{}", self[a], a.row().suffix))
            .collect()
    }

    /// Every point of the grid the lists span, the first axis varying
    /// fastest. Every list must be non-empty.
    pub(super) fn grid(lists: &[Vec<u64>; Axis::COUNT]) -> impl Iterator<Item = GridPoint> + '_ {
        let mut index = Some([0; Axis::COUNT]);
        std::iter::from_fn(move || {
            let current = index?;
            index = (0..Axis::COUNT)
                .find(|&i| current[i] + 1 < lists[i].len())
                .map(|i| {
                    std::array::from_fn(|j| {
                        if j < i {
                            0
                        } else {
                            current[j] + usize::from(j == i)
                        }
                    })
                });
            Some(GridPoint(std::array::from_fn(|i| lists[i][current[i]])))
        })
    }
}

/// The axes a table over `points` shows a column for, in [`Axis::ALL`]
/// order: the thread axis always, any other once a point leaves its
/// default.
pub(super) fn shown_axes(points: impl Iterator<Item = GridPoint> + Clone) -> Vec<Axis> {
    Axis::ALL
        .into_iter()
        .filter(|&a| {
            a.default_point()
                .is_none_or(|d| points.clone().any(|p| p[a] != d))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(axis: Axis, list: &str) -> Result<AxisLists, ExperimentError> {
        let mut axes = AxisLists::default();
        axes.parse(axis, list).map(|()| axes)
    }

    #[test]
    fn lists_parse_counts_ranges_strides_and_multiples() {
        let threads = |list| parse(Axis::Threads, list).unwrap();
        assert_eq!(threads("1,2,4")[Axis::Threads], vec![1, 2, 4]);
        assert_eq!(threads(" 8 ")[Axis::Threads], vec![8]);
        assert_eq!(threads("1,4-6")[Axis::Threads], vec![1, 4, 5, 6]);
        assert_eq!(threads("2-8/2")[Axis::Threads], vec![2, 4, 6, 8]);
        let mixed = threads("1,2,4x,8x");
        assert_eq!(mixed[Axis::Threads], vec![1, 2]);
        assert_eq!(mixed.multiples, vec![4, 8]);
        assert_eq!(threads("1x-4x").multiples, vec![1, 2, 3, 4]);
        assert_eq!(threads("2x-8x/2").multiples, vec![2, 4, 6, 8]);
        assert_eq!(threads("2X").multiples, vec![2], "upper-case x");
        assert_eq!(
            parse(Axis::Shards, "1,2,4,8").unwrap()[Axis::Shards],
            vec![1, 2, 4, 8]
        );
        assert_eq!(
            parse(Axis::Batch, "1-4").unwrap()[Axis::Batch],
            vec![1, 2, 3, 4]
        );
        assert_eq!(
            parse(Axis::Rate, "1000,10000,100000").unwrap()[Axis::Rate],
            vec![1_000, 10_000, 100_000]
        );
        // Parsing one axis leaves the others alone.
        let mut axes = threads("4x");
        axes.parse(Axis::Shards, "2").unwrap();
        assert_eq!(axes.multiples, vec![4]);
    }

    #[test]
    fn every_axis_rejects_malformed_and_over_long_lists_with_its_own_error() {
        let rejected = [
            (
                Axis::Threads,
                vec!["0", "1,0,2", "1,1", "2,1-3", "", "four", "4-1", "4/2"],
            ),
            (
                Axis::Threads,
                vec!["x4", "1-8x", "1x-8", "0x", "2x,2x", "1x-5000x"],
            ),
            (
                Axis::Threads,
                vec!["1-4000000000", "1-4097", "1,1-18446744073709551615"],
            ),
            (Axis::Shards, vec!["0", "1,1", "junk", "1-5000"]),
            (Axis::Batch, vec!["0", "1,1", "junk", "1x", "1-5000"]),
            (
                Axis::Rate,
                vec!["", "0", "100,100", "5000-1000", "fast", "1-100000000"],
            ),
        ];
        for (axis, lists) in rejected {
            for list in lists {
                match parse(axis, list) {
                    Err(ExperimentError::InvalidAxis { axis: got, .. }) => {
                        assert_eq!(got, axis, "{list:?}")
                    }
                    other => panic!("{axis} {list:?}: expected InvalidAxis, got {other:?}"),
                }
            }
        }
        // The longest accepted list, and the wording of each axis's errors.
        assert_eq!(parse(Axis::Rate, "1-4096").unwrap()[Axis::Rate].len(), 4096);
        let message = |axis, list| parse(axis, list).unwrap_err().to_string();
        assert!(message(Axis::Threads, "1-4000000000").starts_with("invalid thread list"));
        assert!(message(Axis::Threads, "0x").contains("thread multiplier"));
        assert!(message(Axis::Shards, "0").contains("shard count"));
        assert!(message(Axis::Batch, "1,1").contains("batch limit"));
        assert!(message(Axis::Rate, "0").starts_with("invalid rate list"));
    }

    #[test]
    fn points_label_and_order_axis_by_axis() {
        let point = GridPoint::closed(8);
        assert_eq!(point.label(), "@8t");
        assert_eq!(point.mode(Arrival::Fixed), LoadMode::Closed);
        let open = point.with(Axis::Shards, 4).with(Axis::Rate, 1_000);
        assert_eq!(open.label(), "@8t@4sh@1000/s");
        assert!(open.mode(Arrival::Poisson).is_open());
        assert!(GridPoint::closed(2) < GridPoint::closed(8).with(Axis::Rate, 1));
        assert_eq!(
            shown_axes([point, open].into_iter()),
            vec![Axis::Threads, Axis::Shards, Axis::Rate]
        );
    }

    #[test]
    fn the_grid_varies_the_first_axis_fastest() {
        let lists = [vec![1, 2], vec![1], vec![0], vec![10, 20]];
        let cells: Vec<(u64, u64)> = GridPoint::grid(&lists)
            .map(|p| (p[Axis::Threads], p[Axis::Rate]))
            .collect();
        assert_eq!(cells, vec![(1, 10), (2, 10), (1, 20), (2, 20)]);
    }
}
