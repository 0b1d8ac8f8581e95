//! The paper's evaluation as data: one row per reproduced figure.
//!
//! A [`Figure`] holds the [`ExperimentSpec`]s of its panels — simulator
//! sweeps on the paper's machines, then, where the figure has one, a short
//! wall-clock run of the real substrate — and a check carrying the shape
//! the paper reports. `cargo bench -p bench --bench figures [-- fig06 …]`
//! runs the table at the current `SCALE`; `lockbench sweep` runs any other
//! grid over the same API.

use harness::experiments::{
    ExperimentSpec, Metric, SimSweep, SweepResult, WorkloadId, WorkloadSpec,
};
use harness::Scale;
use numa_sim::workloads::{
    kv_map, kyoto_wicked, leveldb_readrandom, locktorture, will_it_scale, WillItScale,
};
use numa_sim::Workload;
use registry::LockId;

/// A figure's shape check.
type Check = fn(&[SweepResult]) -> Result<(), String>;

/// One reproduced figure.
pub struct Figure {
    /// Figure id (`fig06`); `cargo bench -- <filter>` runs the figures whose
    /// id contains the filter.
    pub id: &'static str,
    /// The simulator panels, whose reports are the figure's series, then
    /// any wall-clock substrate run.
    pub specs: Vec<ExperimentSpec>,
    /// The shape the paper reports, over the panels' sweeps in order.
    pub check: Check,
}

impl Figure {
    /// Runs every spec and prints its tables. A simulator panel's report is
    /// written under `target/experiments/` and its sweep goes to the check;
    /// a substrate run's numbers describe this host, not the paper's
    /// machine, so it only has to complete operations on every lock.
    pub fn run(&self) -> Result<(), String> {
        let mut panels = Vec::new();
        for spec in &self.specs {
            let report = spec.run().map_err(|e| format!("{}: {e}", spec.id))?;
            let simulated = matches!(spec.workloads[..], [WorkloadSpec::Sim(_)]);
            for sweep in report.sweeps() {
                println!("{}", sweep.render(&spec.title));
                if let Ok(gap) = ratio(&sweep) {
                    let gain = (gap - 1.0) * 100.0;
                    println!(
                        "[{}] CNA vs MCS at the largest thread count: {gain:+.1}%\n",
                        sweep.workload
                    );
                }
                let mut cells = sweep
                    .rows
                    .iter()
                    .flat_map(|r| sweep.labels.iter().zip(&r.values));
                if simulated {
                    panels.push(sweep);
                } else if let Some((lock, _)) = cells.find(|(_, &v)| v.is_nan() || v <= 0.0) {
                    return Err(format!(
                        "{}: {lock} made no progress on {}",
                        self.id, sweep.workload
                    ));
                }
            }
            if simulated {
                let (csv, json) = report.write_files().map_err(|e| e.to_string())?;
                println!(
                    "(reports written to {} and {})\n",
                    csv.display(),
                    json.display()
                );
            }
        }
        (self.check)(&panels).map_err(|e| format!("{}: {e}", self.id))
    }

    /// Adds a wall-clock run of the real `workload` substrate on `locks`.
    fn substrate(mut self, title: &str, workload: WorkloadId, locks: &[LockId]) -> Self {
        let spec = ExperimentSpec::new(format!("{}_substrate", self.id))
            .title(title)
            .locks(locks.to_vec())
            .workload(workload.to_spec());
        self.specs.push(spec);
        self
    }
}

/// The paper's user-space lock set.
const USER_SPACE: &[LockId] = &[LockId::Mcs, LockId::Cna, LockId::CBoMcs, LockId::Hmcs];
/// The user-space set plus the CNA (opt) shuffle-reduction variant.
const USER_SPACE_OPT: &[LockId] = &[
    LockId::Mcs,
    LockId::Cna,
    LockId::CnaOpt,
    LockId::CBoMcs,
    LockId::Hmcs,
];
/// The kernel comparison: stock qspinlock (plotted as "MCS" on the
/// simulator) vs the CNA slow path.
const KERNEL: &[LockId] = &[LockId::QSpinStock, LockId::QSpinCna];

type Machine = fn(&str, Workload) -> SimSweep;

/// The figure `id`: one simulator panel per `(report id, title,
/// workload)`, each running `locks` on `machine` and measuring `metric`.
fn figure(
    id: &'static str,
    (machine, locks, metric): (Machine, &[LockId], Metric),
    panels: Vec<(&str, &str, Workload)>,
    check: Check,
) -> Figure {
    let specs = panels
        .into_iter()
        .map(|(report, title, workload)| {
            ExperimentSpec::new(report)
                .title(title)
                .locks(locks.to_vec())
                .workload(WorkloadSpec::Sim(machine(report, workload)))
                .metric(metric)
        })
        .collect();
    Figure { id, specs, check }
}

/// Every reproduced figure, sized by `scale`.
pub fn figures(scale: Scale) -> Vec<Figure> {
    let two: Machine = |id, workload| SimSweep::two_socket(id, workload);
    let four: Machine = |id, workload| SimSweep::four_socket(id, workload);
    let throughput = Metric::ThroughputOpsPerUs;
    let wis = |id, bench: WillItScale| {
        let title = format!(
            "Figure 15: will-it-scale {} (ops/us), stock vs CNA",
            bench.name()
        );
        (id, title, will_it_scale(bench))
    };
    let fig15 = [
        wis("fig15a_lock1", WillItScale::Lock1),
        wis("fig15b_lock2", WillItScale::Lock2),
        wis("fig15c_open1", WillItScale::Open1),
        wis("fig15d_open2", WillItScale::Open2),
    ];
    let mut figures = vec![
        figure(
            "fig06",
            (two, USER_SPACE, throughput),
            vec![
                (
                    "fig06_kvmap_throughput",
                    "Figure 6: key-value map throughput (ops/us), 2-socket, no external work",
                    kv_map(0, 0.2),
                ),
                (
                    "fig06_kvmap_update_only",
                    "Figure 6 (text): update-only variant (100 % updates)",
                    kv_map(0, 1.0),
                ),
            ],
            |panels| cna_ahead(panels, 1.0),
        ),
        figure(
            "fig07",
            (two, USER_SPACE, Metric::LlcMissesPerUs),
            vec![(
                "fig07_kvmap_llc_misses",
                "Figure 7: LLC load-miss rate (remote transfers/us), key-value map, 2-socket",
                kv_map(0, 0.2),
            )],
            |panels| {
                for p in panels {
                    let (cna, mcs) = (at_max(p, "CNA")?, at_max(p, "MCS")?);
                    let fewer =
                        format!("CNA should miss the LLC less than MCS ({cna:.2} vs {mcs:.2})");
                    ensure(cna < mcs, fewer)?;
                }
                Ok(())
            },
        ),
        figure(
            "fig08",
            (two, USER_SPACE, Metric::FairnessFactor),
            vec![(
                "fig08_kvmap_fairness",
                "Figure 8: long-term fairness factor, key-value map, 2-socket",
                kv_map(0, 0.2),
            )],
            |panels| {
                // MCS is strictly FIFO (factor 0.5); the backoff-based
                // cohort lock is the unfair extreme.
                for p in panels {
                    let (mcs, cbo) = (at_max(p, "MCS")?, at_max(p, "C-BO-MCS")?);
                    ensure(
                        mcs < 0.55,
                        format!("MCS fairness factor should be ~0.5, got {mcs:.3}"),
                    )?;
                    ensure(cbo >= mcs, "C-BO-MCS should be no fairer than MCS".into())?;
                }
                Ok(())
            },
        ),
        figure(
            "fig09",
            (two, USER_SPACE_OPT, throughput),
            vec![(
                "fig09_kvmap_noncritical",
                "Figure 9: key-value map throughput with non-critical work (ops/us), 2-socket",
                kv_map(1_800, 0.2),
            )],
            |panels| {
                // With external work the benchmark scales before the lock
                // saturates; at the largest thread count the NUMA-aware
                // locks must still lead.
                cna_ahead(panels, 1.0)?;
                for p in panels {
                    let (opt, mcs) = (at_max(p, "CNA (opt)")?, at_max(p, "MCS")?);
                    ensure(
                        opt > mcs,
                        format!("CNA (opt) ({opt:.2}) should beat MCS ({mcs:.2})"),
                    )?;
                }
                Ok(())
            },
        ),
        figure(
            "fig10",
            (four, USER_SPACE, throughput),
            vec![(
                "fig10_kvmap_4socket",
                "Figure 10: key-value map throughput (ops/us), 4-socket machine",
                kv_map(0, 0.2),
            )],
            // Remote transfers cost more on 4 sockets: a larger advantage.
            |panels| cna_ahead(panels, 1.3),
        ),
        figure(
            "fig11",
            (two, USER_SPACE_OPT, throughput),
            vec![
                (
                    "fig11a_leveldb_prefilled",
                    "Figure 11 (a): leveldb readrandom, pre-filled DB (ops/us), 2-socket",
                    leveldb_readrandom(true),
                ),
                (
                    "fig11b_leveldb_empty",
                    "Figure 11 (b): leveldb readrandom, empty DB (ops/us), 2-socket",
                    leveldb_readrandom(false),
                ),
            ],
            |panels| cna_ahead(panels, 1.0),
        )
        .substrate(
            "leveldb-lite substrate check: readrandom on the real CNA lock",
            WorkloadId::Leveldb,
            &[LockId::Cna],
        ),
        figure(
            "fig12",
            (two, USER_SPACE_OPT, throughput),
            vec![(
                "fig12_kyotocabinet",
                "Figure 12: Kyoto Cabinet kccachetest wicked (ops/us), 2-socket",
                kyoto_wicked(),
            )],
            |panels| {
                // The benchmark does not scale: the peak is at one thread,
                // and CNA is the only NUMA-aware lock matching MCS there.
                for p in panels {
                    let one = |lock| {
                        p.value_at(lock, 1)
                            .ok_or(format!("no {lock} cell at 1 thread"))
                    };
                    let (cna, mcs) = (one("CNA")?, one("MCS")?);
                    ensure(
                        (cna - mcs).abs() / mcs < 0.05,
                        format!("CNA must match MCS at one thread ({cna:.2} vs {mcs:.2})"),
                    )?;
                }
                cna_ahead(panels, 1.0)
            },
        )
        .substrate(
            "kyoto-lite substrate check: wicked mix on the real CNA lock",
            WorkloadId::Kyoto,
            &[LockId::Cna],
        ),
        figure(
            "fig13",
            (two, KERNEL, throughput),
            vec![
                (
                    "fig13a_locktorture",
                    "Figure 13 (a): locktorture, 2-socket, lockstat disabled (ops/us)",
                    locktorture(false),
                ),
                (
                    "fig13b_locktorture_lockstat",
                    "Figure 13 (b): locktorture, 2-socket, lockstat enabled (ops/us)",
                    locktorture(true),
                ),
            ],
            |panels| {
                cna_ahead(panels, 1.0)?;
                // Lockstat adds shared data to the critical section, so the
                // gap must widen (32 % vs 14 % at 70 threads in the paper).
                let [off, on] = panels else {
                    return Err(format!("expected two panels, got {}", panels.len()));
                };
                ensure(
                    ratio(on)? > ratio(off)?,
                    "the lockstat configuration should widen the CNA advantage".into(),
                )
            },
        )
        .substrate(
            "qspinlock substrate check: locktorture on both real slow paths",
            WorkloadId::LockTorture,
            KERNEL,
        ),
        figure(
            "fig14",
            (four, KERNEL, throughput),
            vec![
                (
                    "fig14a_locktorture_4socket",
                    "Figure 14 (a): locktorture, 4-socket, lockstat disabled (ops/us)",
                    locktorture(false),
                ),
                (
                    "fig14b_locktorture_4socket_lockstat",
                    "Figure 14 (b): locktorture, 4-socket, lockstat enabled (ops/us)",
                    locktorture(true),
                ),
            ],
            |panels| cna_ahead(panels, 1.0),
        ),
        figure(
            "fig15",
            (two, KERNEL, throughput),
            fig15
                .iter()
                .map(|(id, title, w)| (*id, title.as_str(), w.clone()))
                .collect(),
            |panels| cna_ahead(panels, 1.0),
        )
        .substrate(
            "will-it-scale substrate check: the VFS benchmarks on the real CNA qspinlock",
            WorkloadId::Wis,
            &[LockId::QSpinCna],
        ),
    ];
    for spec in figures.iter_mut().flat_map(|f| &mut f.specs) {
        spec.scale = scale;
    }
    figures
}

fn ensure(holds: bool, message: String) -> Result<(), String> {
    if holds {
        Ok(())
    } else {
        Err(message)
    }
}

/// `lock`'s value at the sweep's largest grid point.
fn at_max(sweep: &SweepResult, lock: &str) -> Result<f64, String> {
    let missing = || format!("{} has no {lock} series", sweep.workload);
    sweep.final_value(lock).ok_or_else(missing)
}

/// CNA ÷ MCS at the sweep's largest grid point (the kernel panels plot
/// stock qspinlock as "MCS").
fn ratio(sweep: &SweepResult) -> Result<f64, String> {
    Ok(at_max(sweep, "CNA")? / at_max(sweep, "MCS")?)
}

/// CNA ahead of `factor` × MCS at the largest thread count of every panel.
fn cna_ahead(panels: &[SweepResult], factor: f64) -> Result<(), String> {
    for p in panels {
        let (cna, mcs) = (at_max(p, "CNA")?, at_max(p, "MCS")?);
        ensure(
            cna > mcs * factor,
            format!(
                "[{}] expected CNA to beat {factor} × MCS under contention ({cna:.3} vs {mcs:.3})",
                p.workload
            ),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use numa_sim::lock_model::LockAlgorithm;

    #[test]
    fn figure_ids_are_unique_and_panels_use_the_papers_machines() {
        let figures = figures(Scale::Smoke);
        let ids: std::collections::HashSet<&str> = figures.iter().map(|f| f.id).collect();
        assert_eq!(ids.len(), figures.len());
        let sockets = |id: &str| {
            let spec = figures.iter().flat_map(|f| &f.specs).find(|s| s.id == id);
            match &spec.unwrap().workloads[0] {
                WorkloadSpec::Sim(sweep) => sweep.machine.sockets,
                other => panic!("{id} is a simulator panel, got {other:?}"),
            }
        };
        assert_eq!(sockets("fig06_kvmap_throughput"), 2);
        assert_eq!(sockets("fig14b_locktorture_4socket_lockstat"), 4);
        // The kernel ids map onto the stock-vs-CNA simulator comparison.
        let models: Vec<LockAlgorithm> = KERNEL.iter().map(|id| id.sim_algorithm()).collect();
        assert_eq!(models, vec![LockAlgorithm::Mcs, LockAlgorithm::Cna]);
    }

    #[test]
    fn checks_reject_the_wrong_shape() {
        let fig06 = figures(Scale::Smoke).remove(0);
        let spec = fig06.specs[0].clone().threads(vec![1, 8]);
        let mut sweep = spec.run().unwrap().sweeps().remove(0);
        assert!((fig06.check)(std::slice::from_ref(&sweep)).is_ok());
        sweep.labels.swap(0, 1);
        let err = (fig06.check)(&[sweep]).unwrap_err();
        assert!(err.contains("expected CNA to beat"), "{err}");
    }
}
