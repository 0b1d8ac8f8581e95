use modelcheck::suite::{
    self, ModelCBoMcs, ModelClh, ModelCna, ModelCnaAlwaysFlush, ModelCnaNeverFlush, ModelCnaOpt,
    ModelFissile, ModelHbo, ModelHmcs, ModelMcs, ModelMcscr, ModelTicket,
};
use modelcheck::Config;

fn main() {
    let mut cfg = Config::smoke("audit");
    cfg.trace_dir = None;
    for (name, verdicts) in [
        (
            "mcs",
            suite::audit(&cfg, &suite::raw_lock_scenario::<ModelMcs>("mcs", 2, 1)),
        ),
        (
            "clh",
            suite::audit(&cfg, &suite::raw_lock_scenario::<ModelClh>("clh", 2, 1)),
        ),
        (
            "ticket",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario::<ModelTicket>("ticket", 2, 1),
            ),
        ),
        (
            "cna",
            suite::audit(&cfg, &suite::raw_lock_scenario::<ModelCna>("cna", 2, 1)),
        ),
        // CNA's coin pinned both ways, and the shuffle reduction.
        (
            "cna-always-flush",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario::<ModelCnaAlwaysFlush>("cna-always-flush", 2, 1),
            ),
        ),
        (
            "cna-never-flush",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario::<ModelCnaNeverFlush>("cna-never-flush", 2, 1),
            ),
        ),
        (
            "cna-opt",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario::<ModelCnaOpt>("cna-opt", 2, 1),
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
                &suite::raw_lock_scenario::<ModelCBoMcs>("c-bo-mcs", 2, 2),
            ),
        ),
        (
            "hmcs",
            suite::audit(&cfg, &suite::raw_lock_scenario::<ModelHmcs>("hmcs", 2, 2)),
        ),
        (
            "hbo",
            suite::audit(&cfg, &suite::raw_lock_scenario::<ModelHbo>("hbo", 2, 1)),
        ),
        // Same-socket runs: only these reach the cohort-family *local*
        // layer (successor spins under a same-socket hand-off).
        (
            "c-bo-mcs/local",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario_same_socket::<ModelCBoMcs>("c-bo-mcs-local", 2, 2),
            ),
        ),
        (
            "hmcs/local",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario_same_socket::<ModelHmcs>("hmcs-local", 2, 2),
            ),
        ),
        // The admission-layer newcomers ride the same audit.
        (
            "fissile",
            suite::audit(
                &cfg,
                &suite::raw_lock_scenario::<ModelFissile>("fissile", 2, 2),
            ),
        ),
        (
            "mcscr",
            suite::audit(&cfg, &suite::raw_lock_scenario::<ModelMcscr>("mcscr", 2, 2)),
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
