//! End-to-end model-checking smoke: the production lock sources (MCS, CLH,
//! ticket, CNA slow path) hold mutual exclusion across every 2-thread
//! interleaving under the CI preemption bound, and a seeded ordering
//! mutation is detected with a printed, minimized counterexample.
//!
//! `SCALE=paper` lifts the preemption bound and deepens the stale-store
//! window; `MODELCHECK_SEED` changes the exploration seed.

use modelcheck::suite::{self, ModelClh, ModelCna, ModelMcs, ModelTicket};
use modelcheck::{explore, Config, Mutation, Violation};

fn checked(name: &str) -> Config {
    // Config::from_env: preemption bound 3 + 2-deep stale-store window in
    // smoke mode; unbounded under SCALE=paper. Counterexample traces land in
    // target/modelcheck for CI artifact upload.
    Config::from_env(name)
}

#[test]
fn mcs_two_threads_mutual_exclusion() {
    let r = explore(
        &checked("e2e-mcs"),
        &suite::raw_lock_scenario("mcs", ModelMcs::default, 2, 1),
    );
    r.assert_ok();
    assert!(r.complete, "bounded exploration should exhaust the tree");
    assert!(r.schedules > 100, "MCS 2-thread tree is non-trivial");
}

#[test]
fn clh_two_threads_mutual_exclusion() {
    let r = explore(
        &checked("e2e-clh"),
        &suite::raw_lock_scenario("clh", ModelClh::default, 2, 1),
    );
    r.assert_ok();
    assert!(r.complete);
}

#[test]
fn ticket_two_threads_mutual_exclusion() {
    let r = explore(
        &checked("e2e-ticket"),
        &suite::raw_lock_scenario("ticket", ModelTicket::default, 2, 1),
    );
    r.assert_ok();
    assert!(r.complete);
}

#[test]
fn cna_slow_path_two_threads_mutual_exclusion() {
    let r = explore(
        &checked("e2e-cna"),
        &suite::raw_lock_scenario("cna", ModelCna::default, 2, 1),
    );
    r.assert_ok();
    assert!(r.complete);
}

#[test]
fn node_pool_handoff_through_dynlock() {
    let r = explore(&checked("e2e-dyn-pool"), &suite::dyn_mcs_pool_scenario(2));
    r.assert_ok();
}

#[test]
fn seeded_mutation_of_mcs_handoff_must_fail() {
    // Locate the unlock handoff store from a clean run's site list, weaken
    // it to Relaxed, and require the checker to produce a counterexample.
    let clean = explore(
        &checked("e2e-mcs-sites"),
        &suite::raw_lock_scenario("mcs", ModelMcs::default, 2, 1),
    );
    clean.assert_ok();
    let site = suite::find_site(&clean.sites, "mcs.rs", "store", "Release")
        .expect("MCS unlock handoff store site");

    let cfg = checked("e2e-mcs-handoff-relaxed")
        .with_seed(modelcheck::seed_from_env())
        .with_mutation(Mutation::at(site.file, site.line));
    let r = explore(
        &cfg,
        &suite::raw_lock_scenario("mcs", ModelMcs::default, 2, 1),
    );
    let v = r.expect_violation();

    assert!(
        matches!(
            v.violation,
            Violation::DataRace { .. } | Violation::Mutex { .. }
        ),
        "expected a mutual-exclusion-class violation, got: {}",
        v.violation
    );
    assert!(v.trace.contains("MUTATED->Relaxed"), "{}", v.trace);
    assert!(
        v.minimized_events <= v.original_events,
        "minimizer must never grow the schedule"
    );
    // The counterexample was written for CI artifact upload.
    let path = v.trace_path.as_ref().expect("trace file written");
    assert!(path.exists(), "trace file {path:?} exists");
}
