//! Baseline regression diffs: compare a fresh [`RunReport`] against a
//! stored one and flag cells that moved past a threshold in the bad
//! direction. This is what `lockbench diff` exits non-zero on, and what the
//! CI lock-matrix job can run against checked-in baselines.

use std::collections::BTreeMap;

use super::axis::shown_axes;
use super::report::RunReport;
use super::{GridPoint, Metric};
use crate::table::render_table;

/// Tolerance of a regression comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffThreshold {
    /// Maximum tolerated relative move in the bad direction (0.25 = 25 %).
    ///
    /// Wall-clock substrate runs on shared CI hosts are noisy; the default
    /// is deliberately loose so only real regressions trip it.
    pub max_regression: f64,
}

impl Default for DiffThreshold {
    fn default() -> Self {
        DiffThreshold {
            max_regression: 0.25,
        }
    }
}

/// One compared cell: a (workload, lock, grid point, metric) key present in
/// both reports, with repetitions averaged on each side.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffEntry {
    /// Workload label.
    pub workload: String,
    /// Canonical lock name.
    pub lock: String,
    /// The cell's coordinate on every axis.
    pub point: GridPoint,
    /// Metric token (decides the regression direction).
    pub metric: String,
    /// Mean value in the baseline report.
    pub baseline: f64,
    /// Mean value in the current report.
    pub current: f64,
    /// Signed relative change, `(current - baseline) / baseline`.
    pub change: f64,
    /// Whether the change exceeds the threshold in the bad direction (or
    /// either mean is not a finite number).
    pub regressed: bool,
}

/// The outcome of [`RunReport::diff_against`].
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// The threshold the comparison used.
    pub threshold: DiffThreshold,
    /// Every cell present in both reports, in sorted key order.
    pub entries: Vec<DiffEntry>,
    /// Cells in the baseline that the current report no longer measures
    /// (counted as failures: losing coverage hides regressions).
    pub missing_in_current: Vec<String>,
    /// Cells the current report added (informational only).
    pub missing_in_baseline: Vec<String>,
}

impl DiffReport {
    /// The entries that regressed past the threshold.
    pub fn regressions(&self) -> impl Iterator<Item = &DiffEntry> {
        self.entries.iter().filter(|e| e.regressed)
    }

    /// Whether the comparison should fail: any regressed entry, or any
    /// baseline cell the current report dropped.
    pub fn has_regressions(&self) -> bool {
        !self.missing_in_current.is_empty() || self.regressions().next().is_some()
    }

    /// Renders the comparison as an aligned text table plus a verdict line:
    /// a `threads` column, and a column for every other axis some compared
    /// cell leaves off its default point.
    pub fn render(&self) -> String {
        let axes = shown_axes(self.entries.iter().map(|e| e.point));
        let mut header: Vec<String> = vec!["workload".into(), "lock".into()];
        header.extend(axes.iter().map(|a| a.header().to_string()));
        header.extend(
            ["metric", "baseline", "current", "change", "verdict"]
                .iter()
                .map(|s| s.to_string()),
        );
        let rows: Vec<Vec<String>> = self
            .entries
            .iter()
            .map(|e| {
                let mut row = vec![e.workload.clone(), e.lock.clone()];
                row.extend(axes.iter().map(|&a| e.point[a].to_string()));
                row.extend([
                    e.metric.clone(),
                    format!("{:.3}", e.baseline),
                    format!("{:.3}", e.current),
                    format!("{:+.1}%", e.change * 100.0),
                    if e.regressed { "REGRESSED" } else { "ok" }.to_string(),
                ]);
                row
            })
            .collect();
        let mut out = render_table(
            &format!(
                "Baseline diff (tolerance {:.0}%)",
                self.threshold.max_regression * 100.0
            ),
            &header,
            &rows,
        );
        for key in &self.missing_in_current {
            out.push_str(&format!("MISSING in current run: {key}\n"));
        }
        for key in &self.missing_in_baseline {
            out.push_str(&format!("new (not in baseline): {key}\n"));
        }
        out.push_str(&format!(
            "\nverdict: {}\n",
            if self.has_regressions() {
                "REGRESSION"
            } else {
                "ok"
            }
        ));
        out
    }
}

type Key = (String, String, GridPoint, String);

fn cell_means(report: &RunReport) -> BTreeMap<Key, f64> {
    let mut acc: BTreeMap<Key, (f64, u32)> = BTreeMap::new();
    for s in &report.samples {
        let key = (
            s.workload.clone(),
            s.lock.clone(),
            s.point,
            s.metric.clone(),
        );
        let cell = acc.entry(key).or_insert((0.0, 0));
        cell.0 += s.value;
        cell.1 += 1;
    }
    acc.into_iter()
        .map(|(k, (sum, n))| (k, sum / n as f64))
        .collect()
}

fn key_label((workload, lock, point, metric): &Key) -> String {
    format!("{workload}/{lock}{} [{metric}]", point.label())
}

impl RunReport {
    /// Compares this (current) report against a stored `baseline`.
    ///
    /// Cells are keyed by (workload, lock, grid point, metric) with
    /// repetitions averaged. A cell regresses when it moves more than
    /// [`DiffThreshold::max_regression`] in the metric's bad direction —
    /// down for throughput, up for LLC misses, unfairness, sojourn
    /// percentiles and queue depth — or when either mean is not a finite
    /// number (no comparison can pass a `NaN`). Unknown metric tokens are
    /// treated as higher-is-better. Cells with a zero baseline are compared
    /// only for coverage (no finite relative change).
    pub fn diff_against(&self, baseline: &RunReport, threshold: DiffThreshold) -> DiffReport {
        let base = cell_means(baseline);
        let cur = cell_means(self);
        let mut entries = Vec::new();
        let mut missing_in_current = Vec::new();
        for (key, &base_value) in &base {
            let Some(&cur_value) = cur.get(key) else {
                missing_in_current.push(key_label(key));
                continue;
            };
            let higher_is_better = Metric::parse(&key.3)
                .ok()
                .map(Metric::higher_is_better)
                .unwrap_or(true);
            let (change, regressed) = if !(base_value.is_finite() && cur_value.is_finite()) {
                (f64::NAN, true)
            } else if base_value == 0.0 {
                (0.0, false)
            } else {
                let change = (cur_value - base_value) / base_value;
                let regressed = if higher_is_better {
                    change < -threshold.max_regression
                } else {
                    change > threshold.max_regression
                };
                (change, regressed)
            };
            entries.push(DiffEntry {
                workload: key.0.clone(),
                lock: key.1.clone(),
                point: key.2,
                metric: key.3.clone(),
                baseline: base_value,
                current: cur_value,
                change,
                regressed,
            });
        }
        let missing_in_baseline = cur
            .keys()
            .filter(|key| !base.contains_key(*key))
            .map(key_label)
            .collect();
        DiffReport {
            threshold,
            entries,
            missing_in_current,
            missing_in_baseline,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::report::Sample;
    use crate::experiments::Axis;

    fn sample(lock: &str, threads: usize, rep: usize, metric: &str, value: f64) -> Sample {
        Sample {
            workload: "kvmap".to_string(),
            lock: lock.to_string(),
            label: lock.to_uppercase(),
            point: GridPoint::closed(threads),
            rep,
            metric: metric.to_string(),
            unit: "u".to_string(),
            value,
            p50_us: 0.0,
            p99_us: 0.0,
            p999_us: 0.0,
            queue_depth: 0.0,
            total_ops: 1,
            elapsed_ms: 1.0,
        }
    }

    fn at(axis: Axis, p: u64, metric: &str, value: f64) -> Sample {
        let s = sample("cna", 8, 0, metric, value);
        Sample {
            point: s.point.with(axis, p),
            ..s
        }
    }

    fn report(samples: Vec<Sample>) -> RunReport {
        RunReport {
            id: "diff_test".to_string(),
            title: "diff test".to_string(),
            scale: "smoke".to_string(),
            samples,
        }
    }

    #[test]
    fn identical_reports_do_not_regress() {
        let base = report(vec![
            sample("cna", 2, 0, "throughput", 10.0),
            sample("mcs", 2, 0, "throughput", 8.0),
        ]);
        let diff = base.clone().diff_against(&base, DiffThreshold::default());
        assert!(!diff.has_regressions());
        assert_eq!(diff.entries.len(), 2);
        assert!(diff.entries.iter().all(|e| e.change == 0.0));
        assert!(diff.render().contains("verdict: ok"));
    }

    #[test]
    fn an_injected_throughput_drop_trips_the_threshold() {
        let base = report(vec![sample("cna", 2, 0, "throughput", 10.0)]);
        // 40 % drop against a 25 % tolerance.
        let cur = report(vec![sample("cna", 2, 0, "throughput", 6.0)]);
        let diff = cur.diff_against(&base, DiffThreshold::default());
        assert!(diff.has_regressions());
        let entry = diff.regressions().next().unwrap();
        assert_eq!(entry.lock, "cna");
        assert!((entry.change + 0.4).abs() < 1e-9);
        assert!(diff.render().contains("REGRESSED"));
    }

    #[test]
    fn drops_within_tolerance_pass() {
        let base = report(vec![sample("cna", 2, 0, "throughput", 10.0)]);
        let cur = report(vec![sample("cna", 2, 0, "throughput", 8.0)]);
        assert!(!cur
            .diff_against(&base, DiffThreshold::default())
            .has_regressions());
        // ... but a tighter threshold catches the same 20 % drop.
        assert!(cur
            .diff_against(
                &base,
                DiffThreshold {
                    max_regression: 0.1
                }
            )
            .has_regressions());
    }

    #[test]
    fn lower_is_better_metrics_regress_upward() {
        let base = report(vec![sample("cna", 2, 0, "llc-misses", 10.0)]);
        let improved = report(vec![sample("cna", 2, 0, "llc-misses", 5.0)]);
        let worse = report(vec![sample("cna", 2, 0, "llc-misses", 14.0)]);
        assert!(!improved
            .diff_against(&base, DiffThreshold::default())
            .has_regressions());
        assert!(worse
            .diff_against(&base, DiffThreshold::default())
            .has_regressions());
    }

    #[test]
    fn p99_regresses_upward_and_is_keyed_by_rate() {
        let base = report(vec![
            at(Axis::Rate, 1_000, "p99", 10.0),
            at(Axis::Rate, 10_000, "p99", 50.0),
        ]);
        // Same rate grid, p99 doubled at the high rate only.
        let cur = report(vec![
            at(Axis::Rate, 1_000, "p99", 10.5),
            at(Axis::Rate, 10_000, "p99", 100.0),
        ]);
        let diff = cur.diff_against(&base, DiffThreshold::default());
        assert!(diff.has_regressions());
        let regressed: Vec<_> = diff.regressions().collect();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].point[Axis::Rate], 10_000);
        let rendered = diff.render();
        assert!(rendered.contains("rate/s"), "{rendered}");
        // A p99 *improvement* never trips.
        let better = report(vec![
            at(Axis::Rate, 1_000, "p99", 5.0),
            at(Axis::Rate, 10_000, "p99", 25.0),
        ]);
        assert!(!better
            .diff_against(&base, DiffThreshold::default())
            .has_regressions());
    }

    #[test]
    fn same_cell_at_different_rates_are_distinct_keys() {
        let base = report(vec![at(Axis::Rate, 1_000, "p99", 10.0)]);
        let cur = report(vec![at(Axis::Rate, 2_000, "p99", 10.0)]);
        let diff = cur.diff_against(&base, DiffThreshold::default());
        // Different rate → coverage loss on one side, addition on the other.
        assert!(diff.has_regressions());
        assert_eq!(diff.missing_in_current.len(), 1);
        assert!(diff.missing_in_current[0].contains("@1000/s"));
        assert_eq!(diff.missing_in_baseline.len(), 1);
    }

    #[test]
    fn shard_and_batch_coordinates_are_distinct_keys() {
        let sharded = |shards, value| at(Axis::Shards, shards, "throughput", value);
        let base = report(vec![sharded(1, 10.0), sharded(4, 30.0)]);
        // shards=4 collapses to shards=1 performance: only that cell trips.
        let cur = report(vec![sharded(1, 10.0), sharded(4, 10.0)]);
        let diff = cur.diff_against(&base, DiffThreshold::default());
        let regressed: Vec<_> = diff.regressions().collect();
        assert_eq!(regressed.len(), 1);
        assert_eq!(regressed[0].point[Axis::Shards], 4);
        assert!(diff.render().contains("shards"), "{}", diff.render());

        // A batch cell and a native cell never alias each other.
        let batched = report(vec![at(Axis::Batch, 16, "throughput", 20.0)]);
        let native = report(vec![sample("cna", 8, 0, "throughput", 20.0)]);
        let diff = batched.diff_against(&native, DiffThreshold::default());
        assert!(diff.has_regressions(), "coverage moved between keys");
        assert_eq!(diff.missing_in_current.len(), 1);
        assert_eq!(diff.missing_in_baseline.len(), 1);
        assert!(diff.missing_in_baseline[0].contains("@16b"));
    }

    #[test]
    fn repetitions_are_averaged_before_comparing() {
        let base = report(vec![
            sample("cna", 2, 0, "throughput", 9.0),
            sample("cna", 2, 1, "throughput", 11.0),
        ]);
        let cur = report(vec![sample("cna", 2, 0, "throughput", 10.0)]);
        let diff = cur.diff_against(&base, DiffThreshold::default());
        assert_eq!(diff.entries[0].baseline, 10.0);
        assert!(!diff.has_regressions());
    }

    #[test]
    fn coverage_loss_fails_and_additions_do_not() {
        let base = report(vec![
            sample("cna", 2, 0, "throughput", 10.0),
            sample("mcs", 2, 0, "throughput", 8.0),
        ]);
        let cur = report(vec![
            sample("cna", 2, 0, "throughput", 10.0),
            sample("clh", 2, 0, "throughput", 7.0),
        ]);
        let diff = cur.diff_against(&base, DiffThreshold::default());
        assert!(diff.has_regressions(), "dropping mcs loses coverage");
        assert_eq!(diff.missing_in_current.len(), 1);
        assert!(diff.missing_in_current[0].contains("mcs"));
        assert_eq!(diff.missing_in_baseline.len(), 1);
        let additions_only = base.diff_against(&base, DiffThreshold::default());
        assert!(!additions_only.has_regressions());
    }

    #[test]
    fn a_nan_mean_on_either_side_regresses() {
        let finite = report(vec![sample("cna", 2, 0, "throughput", 10.0)]);
        let nan = report(vec![sample("cna", 2, 0, "throughput", f64::NAN)]);
        for (current, baseline) in [(&nan, &finite), (&finite, &nan)] {
            let diff = current.diff_against(baseline, DiffThreshold::default());
            assert!(diff.has_regressions());
            let rendered = diff.render();
            assert!(rendered.contains("REGRESSED"), "{rendered}");
            assert!(rendered.contains("verdict: REGRESSION"), "{rendered}");
        }
        // NaN read back from a report file is still caught.
        let csv = RunReport::from_csv(&nan.to_csv()).unwrap();
        assert!(csv
            .diff_against(&finite, DiffThreshold::default())
            .has_regressions());
    }

    #[test]
    fn zero_baselines_are_compared_for_coverage_only() {
        let base = report(vec![sample("cna", 2, 0, "throughput", 0.0)]);
        let cur = report(vec![sample("cna", 2, 0, "throughput", 5.0)]);
        assert!(!cur
            .diff_against(&base, DiffThreshold::default())
            .has_regressions());
    }
}
