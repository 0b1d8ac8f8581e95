//! Structured experiment results: raw samples, aggregated sweeps, and the
//! CSV/JSON report files under `target/experiments/`.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::str::FromStr;

use super::axis::shown_axes;
use super::{Axis, ExperimentError, GridPoint};
use crate::table::{experiments_dir, render_table, write_report_file};

/// One measured data point: a single repetition of one lock on one workload
/// at one grid point. Carries enough metadata to regenerate any figure
/// without consulting the spec that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Workload label (`kvmap`, `sim`, `wis/lock1`, ...).
    pub workload: String,
    /// Canonical registry name of the lock (`cna`, `qspinlock-stock`, ...).
    pub lock: String,
    /// Plot label (`CNA`, `MCS`, `CNA (opt)`, ...).
    pub label: String,
    /// The cell's coordinate on every [`Axis`].
    pub point: GridPoint,
    /// Repetition index within the cell.
    pub rep: usize,
    /// Metric token (`throughput`, `p99`, `queue-depth`, ...).
    pub metric: String,
    /// Unit of [`Sample::value`].
    pub unit: String,
    /// The measured value.
    pub value: f64,
    /// Median sojourn time in microseconds (0 for closed-loop cells, which
    /// have no arrival times and hence no sojourn distribution).
    pub p50_us: f64,
    /// 99th-percentile sojourn time in microseconds (0 when closed).
    pub p99_us: f64,
    /// 99.9th-percentile sojourn time in microseconds (0 when closed).
    pub p999_us: f64,
    /// Mean requests in system observed at arrival instants (0 when closed).
    pub queue_depth: f64,
    /// Completed operations (critical sections / benchmark iterations).
    pub total_ops: u64,
    /// Measurement interval in milliseconds (wall-clock or virtual).
    pub elapsed_ms: f64,
}

impl Sample {
    /// Load shape of the cell (`closed` / `open`), the report's `mode`
    /// column.
    pub fn mode(&self) -> &'static str {
        self.point.mode(Default::default()).name()
    }
}

/// One row of an aggregated sweep: mean metric per lock at one grid point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepRow {
    /// The row's coordinate on every [`Axis`].
    pub point: GridPoint,
    /// Mean value per lock, in [`SweepResult::locks`] order. `NaN` marks a
    /// cell with no samples.
    pub values: Vec<f64>,
}

/// The aggregated (mean-over-repetitions) table of one workload of a report
/// — rows by grid point, columns by lock; what a paper figure plots.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepResult {
    /// Workload label shared by the aggregated samples.
    pub workload: String,
    /// Metric token.
    pub metric: String,
    /// Value unit.
    pub unit: String,
    /// Canonical lock names (column keys).
    pub locks: Vec<String>,
    /// Plot labels, parallel to [`SweepResult::locks`].
    pub labels: Vec<String>,
    /// Rows in ascending grid-point order.
    pub rows: Vec<SweepRow>,
}

impl SweepResult {
    fn column(&self, lock: &str) -> Option<usize> {
        self.locks
            .iter()
            .position(|l| l == lock)
            .or_else(|| self.labels.iter().position(|l| l == lock))
    }

    /// The axes the sweep's table shows: threads, and every axis some row
    /// leaves off its default point.
    pub fn axes(&self) -> Vec<Axis> {
        shown_axes(self.rows.iter().map(|r| r.point))
    }

    /// Mean value for `lock` (canonical name or plot label) at the last
    /// (largest) swept grid point.
    pub fn final_value(&self, lock: &str) -> Option<f64> {
        let idx = self.column(lock)?;
        self.rows.last().map(|r| r.values[idx])
    }

    /// Mean value for `lock` at a specific thread count (first matching row
    /// — unambiguous when no other axis varies).
    pub fn value_at(&self, lock: &str, threads: usize) -> Option<f64> {
        self.value_where(lock, &[(Axis::Threads, threads as u64)])
    }

    /// Mean value for `lock` in the first row whose coordinates match every
    /// `(axis, point)` given.
    pub fn value_where(&self, lock: &str, coords: &[(Axis, u64)]) -> Option<f64> {
        let idx = self.column(lock)?;
        self.rows
            .iter()
            .find(|r| coords.iter().all(|&(axis, p)| r.point[axis] == p))
            .map(|r| r.values[idx])
    }

    /// Renders the sweep as an aligned text table: a column per shown axis
    /// (see [`SweepResult::axes`]), then one per lock.
    pub fn render(&self, title: &str) -> String {
        let axes = self.axes();
        let mut header: Vec<String> = axes.iter().map(|a| a.header().to_string()).collect();
        header.extend(self.labels.iter().map(|l| format!("{l} [{}]", self.unit)));
        let rows: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| {
                axes.iter()
                    .map(|&a| r.point[a].to_string())
                    .chain(r.values.iter().map(|v| format!("{v:.3}")))
                    .collect()
            })
            .collect();
        render_table(title, &header, &rows)
    }
}

/// The CSV columns before the axis columns.
const HEAD: [&str; 5] = ["id", "scale", "workload", "lock", "label"];
/// The CSV columns after the axis columns.
const TAIL: [&str; 10] = [
    "rep",
    "metric",
    "unit",
    "value",
    "p50_us",
    "p99_us",
    "p999_us",
    "queue_depth",
    "total_ops",
    "elapsed_ms",
];

/// One value of a report row.
enum Field<'a> {
    Text(&'a str),
    Int(u64),
    Float(f64),
}

/// A sample's values in column order, from `workload` on (`id` and
/// `scale` are the report's).
fn fields(s: &Sample) -> Vec<Field<'_>> {
    let mut fields = vec![
        Field::Text(&s.workload),
        Field::Text(&s.lock),
        Field::Text(&s.label),
    ];
    for axis in Axis::ALL {
        if axis == Axis::Rate {
            fields.push(Field::Text(s.mode()));
        }
        fields.push(Field::Int(s.point[axis]));
    }
    fields.extend([
        Field::Int(s.rep as u64),
        Field::Text(&s.metric),
        Field::Text(&s.unit),
        Field::Float(s.value),
        Field::Float(s.p50_us),
        Field::Float(s.p99_us),
        Field::Float(s.p999_us),
        Field::Float(s.queue_depth),
        Field::Int(s.total_ops),
        Field::Float(s.elapsed_ms),
    ]);
    fields
}

/// Parses field `at` of a CSV line (`line` for the error).
fn parse_field<T: FromStr>(fields: &[&str], at: usize, line: usize) -> Result<T, ExperimentError> {
    fields[at].parse().map_err(|_| ExperimentError::Parse {
        line,
        message: format!("{} {:?} is not a number", csv_columns()[at], fields[at]),
    })
}

/// The CSV column order (also the JSON field order of each sample): each
/// axis's column, the rate's preceded by the load `mode` it implies.
fn csv_columns() -> Vec<&'static str> {
    let axes = Axis::ALL.into_iter().flat_map(|a| {
        (a == Axis::Rate)
            .then_some("mode")
            .into_iter()
            .chain([a.name()])
    });
    HEAD.into_iter().chain(axes).chain(TAIL).collect()
}

/// A completed experiment: every raw [`Sample`] plus the identifying
/// metadata. Serializes losslessly to CSV (modulo the display title) and to
/// JSON, aggregates into [`SweepResult`]s, and diffs against stored
/// baselines (see [`RunReport::diff_against`]).
#[derive(Debug, Clone, PartialEq)]
pub struct RunReport {
    /// Report id; names the files under `target/experiments/`.
    pub id: String,
    /// Display title (not stored in the CSV; restored as the id on load).
    pub title: String,
    /// Scale token the experiment ran at (`smoke`, `ci`, `paper`).
    pub scale: String,
    /// Every measured data point, in execution order.
    pub samples: Vec<Sample>,
}

impl RunReport {
    /// Aggregates the samples into one [`SweepResult`] per workload label
    /// (first-seen order), averaging repetitions.
    pub fn sweeps(&self) -> Vec<SweepResult> {
        let mut order: Vec<&str> = Vec::new();
        for s in &self.samples {
            if !order.contains(&s.workload.as_str()) {
                order.push(&s.workload);
            }
        }
        order.iter().map(|w| self.sweep_for(w).unwrap()).collect()
    }

    /// Aggregates one workload's samples, or `None` if the label is absent.
    pub fn sweep_for(&self, workload: &str) -> Option<SweepResult> {
        let samples: Vec<&Sample> = self
            .samples
            .iter()
            .filter(|s| s.workload == workload)
            .collect();
        let first = samples.first()?;
        let (metric, unit) = (first.metric.clone(), first.unit.clone());
        let mut locks: Vec<String> = Vec::new();
        let mut labels: Vec<String> = Vec::new();
        let mut points: Vec<GridPoint> = Vec::new();
        for s in &samples {
            if !locks.contains(&s.lock) {
                locks.push(s.lock.clone());
                // Plot labels are not unique across the registry (`mcs` and
                // `qspinlock-stock` both plot as "MCS" on the simulator);
                // disambiguate colliding columns with the canonical name so
                // every series stays addressable and distinguishable.
                if labels.contains(&s.label) {
                    labels.push(format!("{} ({})", s.label, s.lock));
                } else {
                    labels.push(s.label.clone());
                }
            }
            if !points.contains(&s.point) {
                points.push(s.point);
            }
        }
        points.sort_unstable();
        let rows = points
            .into_iter()
            .map(|point| {
                let values = locks
                    .iter()
                    .map(|lock| {
                        let (mut sum, mut n) = (0.0, 0u32);
                        for s in &samples {
                            if s.point == point && &s.lock == lock {
                                sum += s.value;
                                n += 1;
                            }
                        }
                        if n == 0 {
                            f64::NAN
                        } else {
                            sum / n as f64
                        }
                    })
                    .collect();
                SweepRow { point, values }
            })
            .collect();
        Some(SweepResult {
            workload: workload.to_string(),
            metric,
            unit,
            locks,
            labels,
            rows,
        })
    }

    /// Serializes the report as long-form CSV (one line per sample).
    ///
    /// `f64` values use Rust's shortest round-trip formatting, so
    /// [`RunReport::from_csv`] reconstructs them exactly. The format has no
    /// field quoting: string fields must not contain commas or newlines.
    /// Reports produced by [`ExperimentSpec::run`](super::ExperimentSpec)
    /// uphold this (ids and labels are validated before anything runs, and
    /// registry names never contain commas); hand-built [`Sample`]s must
    /// uphold it themselves.
    pub fn to_csv(&self) -> String {
        let mut out = csv_columns().join(",");
        out.push('\n');
        for s in &self.samples {
            let _ = write!(out, "{},{}", self.id, self.scale);
            for field in fields(s) {
                let _ = match field {
                    Field::Text(text) => write!(out, ",{text}"),
                    Field::Int(n) => write!(out, ",{n}"),
                    Field::Float(v) => write!(out, ",{v}"),
                };
            }
            out.push('\n');
        }
        out
    }

    /// Parses a report back from [`RunReport::to_csv`] output.
    ///
    /// The display title is not stored in the CSV; it is restored as the id.
    pub fn from_csv(text: &str) -> Result<RunReport, ExperimentError> {
        let columns = csv_columns();
        let mut lines = text.lines().enumerate();
        let (_, header) = lines.next().ok_or(ExperimentError::Parse {
            line: 0,
            message: "empty file".to_string(),
        })?;
        if header.split(',').map(str::trim).ne(columns.iter().copied()) {
            return Err(ExperimentError::Parse {
                line: 1,
                message: format!("unexpected header {header:?}"),
            });
        }
        let mut report: Option<RunReport> = None;
        for (idx, line) in lines {
            let line_no = idx + 1;
            if line.trim().is_empty() {
                continue;
            }
            let bad = |message: String| ExperimentError::Parse {
                line: line_no,
                message,
            };
            let fields: Vec<&str> = line.split(',').collect();
            if fields.len() != columns.len() {
                return Err(bad(format!(
                    "expected {} fields, got {}",
                    columns.len(),
                    fields.len()
                )));
            }
            let mut at = HEAD.len();
            let mut next = || {
                at += 1;
                at - 1
            };
            let mut point = GridPoint::closed(0);
            for axis in Axis::ALL {
                let mode = (axis == Axis::Rate).then(|| fields[next()]);
                point[axis] = parse_field(&fields, next(), line_no)?;
                if let Some(mode) = mode.filter(|&m| m != point.mode(Default::default()).name()) {
                    return Err(bad(format!(
                        "mode {mode:?} contradicts rate {}",
                        point[axis]
                    )));
                }
            }
            let report = report.get_or_insert_with(|| RunReport {
                id: fields[0].to_string(),
                title: fields[0].to_string(),
                scale: fields[1].to_string(),
                samples: Vec::new(),
            });
            report.samples.push(Sample {
                workload: fields[2].to_string(),
                lock: fields[3].to_string(),
                label: fields[4].to_string(),
                point,
                rep: parse_field(&fields, next(), line_no)?,
                metric: fields[next()].to_string(),
                unit: fields[next()].to_string(),
                value: parse_field(&fields, next(), line_no)?,
                p50_us: parse_field(&fields, next(), line_no)?,
                p99_us: parse_field(&fields, next(), line_no)?,
                p999_us: parse_field(&fields, next(), line_no)?,
                queue_depth: parse_field(&fields, next(), line_no)?,
                total_ops: parse_field(&fields, next(), line_no)?,
                elapsed_ms: parse_field(&fields, next(), line_no)?,
            });
        }
        report.ok_or(ExperimentError::Parse {
            line: 0,
            message: "no samples".to_string(),
        })
    }

    /// Serializes the report as JSON (for plotting pipelines; the CSV is the
    /// round-trip format).
    pub fn to_json(&self) -> String {
        fn esc(s: &str) -> String {
            let mut out = String::with_capacity(s.len());
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    '\n' => out.push_str("\\n"),
                    '\r' => out.push_str("\\r"),
                    '\t' => out.push_str("\\t"),
                    c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out
        }
        fn fin(v: f64) -> String {
            if v.is_finite() {
                v.to_string()
            } else {
                "null".to_string()
            }
        }
        let mut out = format!(
            "{{\n  \"id\": \"{}\",\n  \"title\": \"{}\",\n  \"scale\": \"{}\",\n  \"samples\": [\n",
            esc(&self.id),
            esc(&self.title),
            esc(&self.scale)
        );
        // Every column but `id` and `scale`, which head the file.
        let names = &csv_columns()[2..];
        for (i, s) in self.samples.iter().enumerate() {
            let pairs: Vec<String> = names
                .iter()
                .zip(fields(s))
                .map(|(name, field)| match field {
                    Field::Text(text) => format!("\"{name}\": \"{}\"", esc(text)),
                    Field::Int(n) => format!("\"{name}\": {n}"),
                    Field::Float(v) => format!("\"{name}\": {}", fin(v)),
                })
                .collect();
            let comma = if i + 1 == self.samples.len() { "" } else { "," };
            let _ = writeln!(out, "    {{{}}}{comma}", pairs.join(", "));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes `<id>.csv` and `<id>.json` into `dir` (creating it if
    /// missing) and returns both paths.
    pub fn write_files_in(&self, dir: &Path) -> Result<(PathBuf, PathBuf), ExperimentError> {
        let csv_path = dir.join(format!("{}.csv", self.id));
        let json_path = dir.join(format!("{}.json", self.id));
        write_report_file(&csv_path, &self.to_csv())?;
        write_report_file(&json_path, &self.to_json())?;
        Ok((csv_path, json_path))
    }

    /// Writes the report under the standard `target/experiments/` directory
    /// (see [`experiments_dir`]).
    pub fn write_files(&self) -> Result<(PathBuf, PathBuf), ExperimentError> {
        self.write_files_in(&experiments_dir())
    }

    /// Loads a report from a CSV file previously written by
    /// [`RunReport::write_files`] (the baseline side of `lockbench diff`).
    pub fn load_csv(path: &Path) -> Result<RunReport, ExperimentError> {
        let text = std::fs::read_to_string(path).map_err(|source| ExperimentError::Read {
            path: path.to_path_buf(),
            source,
        })?;
        RunReport::from_csv(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(workload: &str, lock: &str, threads: usize, rep: usize, value: f64) -> Sample {
        Sample {
            workload: workload.to_string(),
            lock: lock.to_string(),
            label: lock.to_uppercase(),
            point: GridPoint::closed(threads),
            rep,
            metric: "throughput".to_string(),
            unit: "ops/us".to_string(),
            value,
            p50_us: 0.0,
            p99_us: 0.0,
            p999_us: 0.0,
            queue_depth: 0.0,
            total_ops: (value * 1000.0) as u64,
            elapsed_ms: 10.5,
        }
    }

    fn open_sample(lock: &str, rate: u64, value: f64) -> Sample {
        let base = sample("kvmap", lock, 2, 0, value);
        Sample {
            point: base.point.with(Axis::Rate, rate),
            metric: "p99".to_string(),
            unit: "us".to_string(),
            p50_us: value / 2.0,
            p99_us: value,
            p999_us: value * 2.0,
            queue_depth: 3.5,
            ..base
        }
    }

    fn report() -> RunReport {
        RunReport {
            id: "unit".to_string(),
            title: "unit test".to_string(),
            scale: "smoke".to_string(),
            samples: vec![
                sample("kvmap", "mcs", 1, 0, 4.0),
                sample("kvmap", "mcs", 1, 1, 6.0),
                sample("kvmap", "cna", 1, 0, 5.0),
                sample("kvmap", "mcs", 2, 0, 2.0),
                sample("kvmap", "cna", 2, 0, 3.0),
                sample("sim", "cna", 2, 0, 1.25),
            ],
        }
    }

    fn open_report() -> RunReport {
        RunReport {
            id: "open".to_string(),
            title: "open-loop".to_string(),
            scale: "smoke".to_string(),
            samples: vec![
                open_sample("mcs", 1_000, 10.0),
                open_sample("mcs", 10_000, 40.0),
                open_sample("cna", 1_000, 8.0),
                open_sample("cna", 10_000, 20.0),
            ],
        }
    }

    #[test]
    fn sweeps_group_by_workload_and_average_reps() {
        let sweeps = report().sweeps();
        assert_eq!(sweeps.len(), 2);
        let kv = &sweeps[0];
        assert_eq!(kv.workload, "kvmap");
        assert_eq!(kv.locks, vec!["mcs", "cna"]);
        assert_eq!(kv.labels, vec!["MCS", "CNA"]);
        assert_eq!(kv.rows.len(), 2);
        // The two rep-0/rep-1 MCS samples at 1 thread average to 5.0.
        assert_eq!(kv.value_at("mcs", 1), Some(5.0));
        assert_eq!(kv.value_at("MCS", 1), Some(5.0), "labels also address");
        assert_eq!(kv.final_value("cna"), Some(3.0));
        assert!(kv.value_at("mcs", 7).is_none());
        assert!(kv.final_value("nope").is_none());
        let sim = &sweeps[1];
        assert_eq!(sim.workload, "sim");
        assert_eq!(sim.rows.len(), 1);
    }

    #[test]
    fn open_sweeps_key_rows_by_rate_and_render_the_rate_column() {
        let sweep = open_report().sweep_for("kvmap").unwrap();
        assert_eq!(sweep.axes(), vec![Axis::Threads, Axis::Rate]);
        // Same thread count, two rates → two rows, ascending by rate.
        assert_eq!(sweep.rows.len(), 2);
        assert_eq!(sweep.rows[0].point[Axis::Rate], 1_000);
        assert_eq!(sweep.rows[1].point[Axis::Rate], 10_000);
        let at = |lock, rate| sweep.value_where(lock, &[(Axis::Threads, 2), (Axis::Rate, rate)]);
        assert_eq!(at("mcs", 10_000), Some(40.0));
        assert_eq!(at("cna", 1_000), Some(8.0));
        assert!(at("cna", 77).is_none());
        let table = sweep.render("open");
        assert!(table.contains("rate/s"), "{table}");
        assert!(table.contains("10000"), "{table}");
        // Closed sweeps keep the historical threads-only table.
        let closed = report().sweep_for("kvmap").unwrap();
        assert_eq!(closed.axes(), vec![Axis::Threads]);
        assert!(!closed.render("closed").contains("rate/s"));
    }

    #[test]
    fn scale_out_axes_key_rows_and_render_their_columns() {
        let at = |workload, axis, p, value| {
            let s = sample(workload, "cna", 8, 0, value);
            Sample {
                point: s.point.with(axis, p),
                ..s
            }
        };
        let r = RunReport {
            id: "axes".to_string(),
            title: "axes".to_string(),
            scale: "smoke".to_string(),
            samples: vec![
                at("kvmap", Axis::Shards, 1, 2.0),
                at("kvmap", Axis::Shards, 4, 6.0),
                at("leveldb", Axis::Batch, 16, 3.5),
            ],
        };
        let kv = r.sweep_for("kvmap").unwrap();
        assert_eq!(kv.axes(), vec![Axis::Threads, Axis::Shards]);
        assert_eq!(kv.rows.len(), 2, "one row per shard count");
        assert_eq!(kv.value_where("cna", &[(Axis::Shards, 4)]), Some(6.0));
        assert_eq!(kv.value_where("cna", &[(Axis::Shards, 1)]), Some(2.0));
        assert!(kv.value_where("cna", &[(Axis::Shards, 2)]).is_none());
        let table = kv.render("kv");
        assert!(table.contains("shards"), "{table}");
        assert!(!table.contains("batch"), "{table}");
        let ldb = r.sweep_for("leveldb").unwrap();
        assert_eq!(ldb.axes(), vec![Axis::Threads, Axis::Batch]);
        assert!(ldb.render("ldb").contains("batch"));
        // The unsharded, unbatched report keeps the historical table shape.
        let plain = report().sweep_for("kvmap").unwrap().render("plain");
        assert!(!plain.contains("shards") && !plain.contains("batch"));
    }

    #[test]
    fn colliding_plot_labels_are_disambiguated_per_column() {
        // mcs and qspinlock-stock both plot as "MCS" on the simulator.
        let mut r = report();
        r.samples = vec![
            sample("sim", "mcs", 1, 0, 4.0),
            Sample {
                label: "MCS".to_string(),
                ..sample("sim", "qspinlock-stock", 1, 0, 3.0)
            },
        ];
        r.samples[0].label = "MCS".to_string();
        let sweep = r.sweep_for("sim").unwrap();
        assert_eq!(sweep.labels, vec!["MCS", "MCS (qspinlock-stock)"]);
        assert_eq!(sweep.final_value("MCS"), Some(4.0));
        assert_eq!(sweep.final_value("qspinlock-stock"), Some(3.0));
        assert_eq!(sweep.final_value("MCS (qspinlock-stock)"), Some(3.0));
    }

    #[test]
    fn csv_round_trips_exactly() {
        let mut axes = report();
        let s = sample("kvmap", "cna", 4, 0, 7.5);
        axes.samples.push(Sample {
            point: s.point.with(Axis::Shards, 8).with(Axis::Batch, 32),
            ..s
        });
        for original in [report(), open_report(), axes] {
            let parsed = RunReport::from_csv(&original.to_csv()).unwrap();
            assert_eq!(parsed.id, original.id);
            assert_eq!(parsed.scale, original.scale);
            assert_eq!(parsed.samples, original.samples);
            // The title is the only lossy field (documented).
            assert_eq!(parsed.title, original.id);
        }
    }

    #[test]
    fn csv_round_trips_awkward_floats() {
        let mut r = report();
        r.samples[0].value = 1.000_000_000_000_1;
        r.samples[1].value = 1e-12;
        r.samples[2].value = 123_456_789.987_654_3;
        r.samples[3].p999_us = 0.333_333_333_333_333_3;
        let parsed = RunReport::from_csv(&r.to_csv()).unwrap();
        assert_eq!(parsed.samples, r.samples);
    }

    #[test]
    fn malformed_csv_is_rejected_with_line_numbers() {
        assert!(matches!(
            RunReport::from_csv(""),
            Err(ExperimentError::Parse { line: 0, .. })
        ));
        assert!(matches!(
            RunReport::from_csv("a,b,c\n"),
            Err(ExperimentError::Parse { line: 1, .. })
        ));
        let mut csv = report().to_csv();
        csv.push_str("short,row\n");
        match RunReport::from_csv(&csv) {
            Err(ExperimentError::Parse { line, .. }) => assert!(line > 1),
            other => panic!("expected parse error, got {other:?}"),
        }
        let bad_value = report().to_csv().replace("10.5", "ten-and-a-half");
        assert!(RunReport::from_csv(&bad_value).is_err());
        // The `mode` column must agree with the rate it tags.
        let contradiction = open_report().to_csv().replace(",open,", ",closed,");
        match RunReport::from_csv(&contradiction) {
            Err(ExperimentError::Parse { message, .. }) => {
                assert!(message.contains("contradicts rate"), "{message}")
            }
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn json_is_structurally_sound_and_escaped() {
        let mut r = open_report();
        r.title = "quote \" backslash \\ tab\t".to_string();
        let json = r.to_json();
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(json.contains("\\t"));
        assert!(json.contains("\"rate\": 10000"));
        assert!(json.contains("\"p999_us\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        // No trailing comma before the closing bracket.
        assert!(!json.contains(",\n  ]"));
    }

    #[test]
    fn write_files_create_missing_directories() {
        let dir = std::env::temp_dir()
            .join("cna-exp-report-test")
            .join("fresh");
        let _ = std::fs::remove_dir_all(&dir);
        let (csv, json) = report().write_files_in(&dir).unwrap();
        assert!(csv.ends_with("unit.csv") && csv.is_file());
        assert!(json.ends_with("unit.json") && json.is_file());
        let reloaded = RunReport::load_csv(&csv).unwrap();
        assert_eq!(reloaded.samples, report().samples);
        let _ = std::fs::remove_dir_all(dir.parent().unwrap());
    }

    #[test]
    fn loading_a_missing_file_is_a_read_error() {
        let err = RunReport::load_csv(Path::new("/no/such/file.csv")).unwrap_err();
        assert!(matches!(err, ExperimentError::Read { .. }));
        assert!(err.to_string().contains("/no/such/file.csv"));
    }
}
