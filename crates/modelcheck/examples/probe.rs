//! Demo: explore every row of the smoke table (`suite::SMOKE`) at 2
//! threads, then show the counterexample the checker produces when the MCS
//! unlock handoff store is weakened to `Relaxed`.
//!
//! ```sh
//! cargo run -p modelcheck --example probe
//! MODELCHECK_SEED=0xfeed SCALE=paper cargo run -p modelcheck --example probe --release
//! ```

use modelcheck::suite::{self, ModelMcs};
use modelcheck::{explore, Config, Mutation};

fn main() {
    for (name, _) in suite::SMOKE {
        let t0 = std::time::Instant::now();
        let schedules = suite::run_smoke(name, 2);
        println!(
            "{name:18} 2 threads  {schedules:6} schedules  {:?}",
            t0.elapsed()
        );
    }

    let cfg = Config::from_env("dyn-mcs-pool");
    let r = explore(&cfg, &suite::dyn_mcs_pool_scenario(2));
    r.assert_ok();
    println!(
        "{:18} 2 threads  {:6} schedules",
        "dyn-mcs-pool", r.schedules
    );

    let mcs = || suite::raw_lock_scenario("mcs", ModelMcs::default, 2, 1);
    let clean = explore(&Config::from_env("clean"), &mcs());
    clean.assert_ok();
    let site = suite::find_site(&clean.sites, "mcs.rs", "store", "Release")
        .expect("the MCS unlock handoff store");
    println!("\nweakening {}:{} to Relaxed:", site.file, site.line);
    let mutated =
        Config::from_env("handoff-relaxed").with_mutation(Mutation::at(site.file, site.line));
    println!("{}", explore(&mutated, &mcs()).expect_violation().trace);
}
