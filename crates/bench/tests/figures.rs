//! Every row of the figure table runs at smoke scale, passes its check and
//! writes exactly the reports the figure benches always wrote.

use bench::figures::figures;
use harness::Scale;

#[test]
fn every_figure_passes_its_check_at_smoke_scale() {
    // This binary's only test, so setting the variable races nothing.
    let dir = std::env::temp_dir().join("cna-bench-figures-test");
    let _ = std::fs::remove_dir_all(&dir);
    std::env::set_var("EXPERIMENTS_DIR", &dir);
    for figure in figures(Scale::Smoke) {
        figure.run().unwrap_or_else(|err| panic!("{err}"));
    }
    let mut written: Vec<String> = std::fs::read_dir(&dir)
        .expect("reports written")
        .map(|entry| entry.unwrap().file_name().into_string().unwrap())
        .collect();
    written.sort();
    let mut expected = Vec::new();
    for id in [
        "fig06_kvmap_throughput",
        "fig06_kvmap_update_only",
        "fig07_kvmap_llc_misses",
        "fig08_kvmap_fairness",
        "fig09_kvmap_noncritical",
        "fig10_kvmap_4socket",
        "fig11a_leveldb_prefilled",
        "fig11b_leveldb_empty",
        "fig12_kyotocabinet",
        "fig13a_locktorture",
        "fig13b_locktorture_lockstat",
        "fig14a_locktorture_4socket",
        "fig14b_locktorture_4socket_lockstat",
        "fig15a_lock1",
        "fig15b_lock2",
        "fig15c_open1",
        "fig15d_open2",
    ] {
        expected.push(format!("{id}.csv"));
        expected.push(format!("{id}.json"));
    }
    assert_eq!(written, expected);
    let _ = std::fs::remove_dir_all(&dir);
}
