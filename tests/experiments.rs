//! End-to-end tests of the unified experiment API: spec-driven grids over
//! both runners, report serialization round-trips, and baseline regression
//! diffs — the workflow `lockbench sweep` / `lockbench diff` and the CI
//! lock-matrix job drive.

use cna_locks::harness::experiments::{
    Arrival, Axis, DiffThreshold, ExperimentSpec, Metric, RunReport, WorkloadId,
};
use cna_locks::harness::Scale;
use cna_locks::registry::LockId;

/// A tiny 2-lock × 2-workload × 2-thread grid, smoke-sized.
fn smoke_spec() -> ExperimentSpec {
    ExperimentSpec::new("itest_experiments")
        .title("integration test grid")
        .locks(vec![LockId::Cna, LockId::Mcs])
        .workload(WorkloadId::Sim.to_spec())
        .workload(WorkloadId::KvMap.to_spec())
        .threads(vec![1, 2])
        .scale(Scale::Smoke)
        .repetitions(1)
        .duration_ms(5)
}

#[test]
fn a_spec_grid_runs_both_runners_and_aggregates() {
    let report = smoke_spec().run().expect("smoke grid runs");
    // 2 workloads × 2 threads × 2 locks × 1 rep.
    assert_eq!(report.samples.len(), 8);
    assert_eq!(report.scale, "smoke");
    assert!(report.samples.iter().all(|s| s.value > 0.0));
    assert!(report.samples.iter().all(|s| s.total_ops > 0));

    let sweeps = report.sweeps();
    assert_eq!(sweeps.len(), 2, "one aggregated sweep per workload");
    for sweep in &sweeps {
        assert_eq!(sweep.rows.len(), 2);
        assert_eq!(sweep.locks, vec!["cna", "mcs"]);
        assert_eq!(sweep.metric, "throughput");
        // Both the canonical name and the plot label address a column.
        assert_eq!(sweep.final_value("cna"), sweep.final_value("CNA"));
        assert!(sweep.value_at("mcs", 1).unwrap() > 0.0);
    }
}

#[test]
fn reports_round_trip_through_csv_and_write_both_formats() {
    let report = smoke_spec().run().expect("smoke grid runs");

    let parsed = RunReport::from_csv(&report.to_csv()).expect("csv parses back");
    assert_eq!(parsed.id, report.id);
    assert_eq!(parsed.scale, report.scale);
    assert_eq!(parsed.samples, report.samples, "samples survive exactly");

    // Writing creates missing directories (clean-checkout behaviour) and
    // the CSV loads back identically.
    let dir = std::env::temp_dir()
        .join("cna-itest-experiments")
        .join("nested");
    let _ = std::fs::remove_dir_all(&dir);
    let (csv, json) = report.write_files_in(&dir).expect("reports written");
    assert!(csv.is_file() && json.is_file());
    let reloaded = RunReport::load_csv(&csv).expect("written csv loads");
    assert_eq!(reloaded.samples, report.samples);
    let json_text = std::fs::read_to_string(&json).unwrap();
    assert!(json_text.contains("\"samples\""));
    let _ = std::fs::remove_dir_all(dir.parent().unwrap());
}

#[test]
fn an_injected_regression_trips_the_diff_threshold() {
    let baseline = smoke_spec().run().expect("baseline runs");

    // Unchanged: the self-diff must pass (what CI asserts).
    let clean = baseline.diff_against(&baseline, DiffThreshold::default());
    assert!(!clean.has_regressions(), "self-diff must be clean");
    assert_eq!(clean.entries.len(), 8, "every cell is compared");

    // Inject a 90 % throughput collapse into one cell of the current run.
    let mut regressed = baseline.clone();
    let victim = regressed
        .samples
        .iter_mut()
        .find(|s| s.workload == "kvmap" && s.lock == "cna")
        .expect("kvmap/cna cell exists");
    victim.value *= 0.1;
    let diff = regressed.diff_against(&baseline, DiffThreshold::default());
    assert!(diff.has_regressions(), "the injected drop must be flagged");
    let flagged: Vec<_> = diff.regressions().collect();
    assert_eq!(flagged.len(), 1);
    assert_eq!(flagged[0].lock, "cna");
    assert_eq!(flagged[0].workload, "kvmap");
    assert!(diff.render().contains("REGRESSED"));

    // The same comparison through the serialized form (what `lockbench
    // diff` does with two files).
    let baseline2 = RunReport::from_csv(&baseline.to_csv()).unwrap();
    let regressed2 = RunReport::from_csv(&regressed.to_csv()).unwrap();
    assert!(regressed2
        .diff_against(&baseline2, DiffThreshold::default())
        .has_regressions());
}

/// A small open-loop grid over both runners: both open-capable workloads,
/// two rates, p99 sojourn.
fn open_smoke_spec() -> ExperimentSpec {
    ExperimentSpec::new("itest_open_loop")
        .title("integration test open-loop grid")
        .locks(vec![LockId::Cna, LockId::Mcs])
        .workload(WorkloadId::Sim.to_spec())
        .workload(WorkloadId::KvMap.to_spec())
        .threads(vec![2])
        .open_rates(vec![50_000, 200_000], Arrival::Poisson)
        .scale(Scale::Smoke)
        .repetitions(1)
        .duration_ms(2)
        .metric(Metric::P99Sojourn)
}

#[test]
fn an_open_loop_grid_runs_both_runners_with_histograms() {
    let report = open_smoke_spec().run().expect("open grid runs");
    // 2 workloads × 2 rates × 1 thread count × 2 locks × 1 rep.
    assert_eq!(report.samples.len(), 8);
    for s in &report.samples {
        assert_eq!(s.mode(), "open");
        assert!([50_000, 200_000].contains(&s.point[Axis::Rate]));
        assert_eq!(s.metric, "p99");
        assert_eq!(s.unit, "us");
        assert_eq!(s.value, s.p99_us, "the p99 metric is the p99 column");
        // Percentiles are ordered and populated on both back-ends.
        assert!(s.p50_us > 0.0, "{}: empty p50", s.workload);
        assert!(s.p99_us >= s.p50_us && s.p999_us >= s.p99_us);
        assert!(s.queue_depth > 0.0, "{}: no queue observed", s.workload);
        assert!(
            s.total_ops >= 64,
            "{}: open runs drain every request",
            s.workload
        );
    }
    // Each workload aggregates into a rate-keyed sweep.
    for sweep in report.sweeps() {
        assert_eq!(sweep.axes(), vec![Axis::Threads, Axis::Rate]);
        assert_eq!(sweep.rows.len(), 2);
        let cell = [(Axis::Threads, 2), (Axis::Rate, 50_000)];
        assert!(sweep.value_where("cna", &cell).unwrap() > 0.0);
        assert!(sweep.render("t").contains("rate/s"));
    }
    // The CSV round-trips the histogram columns exactly.
    let parsed = RunReport::from_csv(&report.to_csv()).expect("open csv parses back");
    assert_eq!(parsed.samples, report.samples);
}

#[test]
fn an_injected_p99_regression_trips_the_diff() {
    let baseline = open_smoke_spec().run().expect("open baseline runs");
    let clean = baseline.diff_against(&baseline, DiffThreshold::default());
    assert!(!clean.has_regressions(), "open self-diff must be clean");
    assert_eq!(clean.entries.len(), 8, "every (cell, rate) is compared");

    // Inject a 3× p99 blow-up into one (lock, rate) cell — a latency
    // regression a throughput diff would never see.
    let mut regressed = baseline.clone();
    let victim = regressed
        .samples
        .iter_mut()
        .find(|s| s.workload == "kvmap" && s.lock == "cna" && s.point[Axis::Rate] == 200_000)
        .expect("kvmap/cna@200k cell exists");
    victim.value *= 3.0;
    victim.p99_us *= 3.0;
    let diff = regressed.diff_against(&baseline, DiffThreshold::default());
    assert!(diff.has_regressions(), "the p99 blow-up must be flagged");
    let flagged: Vec<_> = diff.regressions().collect();
    assert_eq!(flagged.len(), 1);
    assert_eq!(flagged[0].lock, "cna");
    assert_eq!(flagged[0].point[Axis::Rate], 200_000);
    assert!(diff.render().contains("REGRESSED"));

    // A p99 *improvement* must not trip the ratchet.
    let mut improved = baseline.clone();
    for s in &mut improved.samples {
        s.value *= 0.5;
        s.p99_us *= 0.5;
    }
    assert!(!improved
        .diff_against(&baseline, DiffThreshold::default())
        .has_regressions());

    // And through the serialized form (what `lockbench diff` does).
    let baseline2 = RunReport::from_csv(&baseline.to_csv()).unwrap();
    let regressed2 = RunReport::from_csv(&regressed.to_csv()).unwrap();
    assert!(regressed2
        .diff_against(&baseline2, DiffThreshold::default())
        .has_regressions());
}

#[test]
fn fairness_metric_runs_on_both_runners() {
    let report = ExperimentSpec::new("itest_fairness")
        .locks(vec![LockId::Mcs])
        .workload(WorkloadId::Sim.to_spec())
        .workload(WorkloadId::KvMap.to_spec())
        .threads(vec![2])
        .scale(Scale::Smoke)
        .repetitions(1)
        .duration_ms(5)
        .metric(Metric::FairnessFactor)
        .run()
        .expect("fairness grid runs");
    assert_eq!(report.samples.len(), 2);
    for s in &report.samples {
        assert!(
            (0.5..=1.0).contains(&s.value),
            "{}: fairness factor {} out of range",
            s.workload,
            s.value
        );
    }
}

#[test]
fn smoke_sim_sweep_matches_the_checked_in_baseline_byte_for_byte() {
    // The spec CI's `lockbench sweep --id smoke-sim …` builds. The simulator
    // is deterministic, so any difference from the stored report is an
    // engine or report-format drift, however small.
    let report = ExperimentSpec::new("smoke-sim")
        .locks(vec![
            LockId::Cna,
            LockId::Mcs,
            LockId::QSpinStock,
            LockId::QSpinCna,
            LockId::Fissile,
            LockId::Mcscr,
        ])
        .workload(WorkloadId::Sim.to_spec())
        .threads(vec![1, 2, 4, 8])
        .scale(Scale::Smoke)
        .run()
        .expect("smoke-sim sweep runs");
    let baseline = concat!(env!("CARGO_MANIFEST_DIR"), "/baselines/smoke-sim.csv");
    let expected = std::fs::read_to_string(baseline).expect("baseline is checked in");
    assert_eq!(report.to_csv(), expected, "drifted from {baseline}");
}
