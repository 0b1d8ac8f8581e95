use modelcheck::suite::{
    self, ModelClh, ModelCna, ModelCnaAlwaysFlush, ModelCnaNeverFlush, ModelCnaOpt, ModelFissile,
    ModelHbo, ModelMcs, ModelTicket,
};
use modelcheck::Config;

fn main() {
    let mut cfg = Config::smoke("audit");
    cfg.trace_dir = None;
    for (name, verdicts) in [
        (
            "mcs",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("mcs", ModelMcs::default, 2, 1),
            ),
        ),
        (
            "clh",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("clh", ModelClh::default, 2, 1),
            ),
        ),
        (
            "ticket",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("ticket", ModelTicket::default, 2, 1),
            ),
        ),
        (
            "cna",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("cna", ModelCna::default, 2, 1),
            ),
        ),
        // CNA's coin pinned both ways, and the shuffle reduction.
        (
            "cna-always-flush",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("cna-always-flush", ModelCnaAlwaysFlush::default, 2, 1),
            ),
        ),
        (
            "cna-never-flush",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("cna-never-flush", ModelCnaNeverFlush::default, 2, 1),
            ),
        ),
        (
            "cna-opt",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("cna-opt", ModelCnaOpt::default, 2, 1),
            ),
        ),
        // The cohort family: the shared MCS local layer (cohort.rs) under
        // C-BO-MCS, plus the fused hierarchical queue (hmcs.rs) and the
        // backoff word (hbo.rs). Two iterations reach the local-pass and
        // global-release arms, where the successor spin loads live.
        (
            "c-bo-mcs",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("c-bo-mcs", suite::model_c_bo_mcs, 2, 2),
            ),
        ),
        (
            "hmcs",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("hmcs", suite::model_hmcs, 2, 2),
            ),
        ),
        (
            "hbo",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("hbo", ModelHbo::default, 2, 1),
            ),
        ),
        // Same-socket runs: only these reach the cohort-family *local*
        // layer (successor spins under a same-socket hand-off).
        (
            "c-bo-mcs/local",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario_same_socket(
                    "c-bo-mcs-local",
                    suite::model_c_bo_mcs,
                    2,
                    2,
                ),
            ),
        ),
        (
            "hmcs/local",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario_same_socket("hmcs-local", suite::model_hmcs, 2, 2),
            ),
        ),
        // The admission-layer newcomers ride the same audit.
        (
            "fissile",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("fissile", ModelFissile::default, 2, 2),
            ),
        ),
        (
            "mcscr",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario("mcscr", suite::model_mcscr, 2, 2),
            ),
        ),
        // Not a lock: leveldb-lite's skiplist, one writer and one reader.
        (
            "memtable",
            suite::audit(&cfg, &suite::memtable_publish_scenario()),
        ),
    ] {
        println!("== {name}");
        for v in verdicts {
            println!(
                "  {}:{} {} {} -> {}",
                v.site.file,
                v.site.line,
                v.site.kind,
                v.site.ordering,
                if v.caught { "CAUGHT" } else { "not caught" }
            );
        }
    }
}
