//! The paper's single-thread claim as an assertion: CNA keeps MCS's "single
//! atomic instruction in the acquisition path" and its single-thread cost.
//!
//! One thread doing one acquisition touches only the uncontended paths, and
//! `Report::sites` lists every `Ordering::` site it touched. Counting them
//! in each lock's own file pins what the fast paths do: CNA runs MCS's two
//! RMWs (tail swap, closing CAS) and exactly one store and one load more
//! (`socket = -1` and the release's `spin` check, Fig. 3 l. 8 and Fig. 4
//! l. 18), and none of the contended-only sites. The contended sites are
//! found by their source text, and the two-thread scenario must reach each
//! of them, so a stale needle fails here rather than passing vacuously.

use modelcheck::suite::{raw_lock_scenario, ModelCna, ModelCnaOpt, ModelMcs};
use modelcheck::{explore, Config, SiteInfo};
use sync_core::raw::RawLock;

const CNA_FILE: &str = "/core/src/raw.rs";
const CNA_SOURCE: &str = include_str!("../../core/src/raw.rs");
const MCS_FILE: &str = "/locks/src/mcs.rs";

/// The sites in `file` touched by `threads` threads doing one acquisition
/// each of `L`.
fn sites<L: RawLock + 'static>(name: &str, threads: usize, file: &str) -> Vec<SiteInfo> {
    let mut cfg = Config::smoke(name);
    cfg.trace_dir = None;
    let report = explore(&cfg, &raw_lock_scenario::<L>(name, threads, 1));
    report.assert_ok();
    report
        .sites
        .into_iter()
        .filter(|s| s.file.ends_with(file))
        .collect()
}

fn count(sites: &[SiteInfo], kind: &str) -> usize {
    sites.iter().filter(|s| s.kind == kind).count()
}

/// The line of the one statement in `raw.rs` that starts with `needle`.
fn cna_line(needle: &str) -> u32 {
    let lines: Vec<u32> = CNA_SOURCE
        .lines()
        .zip(1..)
        .filter(|(text, _)| text.trim_start().starts_with(needle))
        .map(|(_, line)| line)
        .collect();
    assert_eq!(lines.len(), 1, "{needle:?} must start exactly one line");
    lines[0]
}

fn touches(sites: &[SiteInfo], line: u32) -> bool {
    sites.iter().any(|s| s.line == line)
}

#[test]
fn one_uncontended_acquisition_costs_mcs_plus_one_store_and_one_load() {
    let mcs = sites::<ModelMcs>("mcs-1", 1, MCS_FILE);
    assert_eq!(count(&mcs, "rmw"), 2, "MCS: swap + close CAS: {mcs:?}");
    assert_eq!(count(&mcs, "fence"), 0, "{mcs:?}");

    for (name, cna) in [
        ("cna", sites::<ModelCna>("cna-1", 1, CNA_FILE)),
        ("cna-opt", sites::<ModelCnaOpt>("cna-opt-1", 1, CNA_FILE)),
    ] {
        assert_eq!(count(&cna, "rmw"), count(&mcs, "rmw"), "{name}: {cna:?}");
        assert_eq!(
            count(&cna, "store"),
            count(&mcs, "store") + 1,
            "{name}: one store beyond MCS (socket = -1): {cna:?}"
        );
        assert_eq!(
            count(&cna, "load"),
            count(&mcs, "load") + 1,
            "{name}: one load beyond MCS (spin at release): {cna:?}"
        );
        assert_eq!(count(&cna, "fence"), 0, "{name}: {cna:?}");
    }
}

#[test]
fn the_uncontended_path_touches_no_contended_site() {
    let socket_store = cna_line(".store(numa_topology::current_socket()");
    let waiting_store = cna_line("me.spin.store(SPIN_WAITING");
    let link_wait = cna_line("A::spin_until(|| !me.next.load(");
    let link_reread = cna_line("next = me.next.load(Ordering::Acquire)");

    let contended = sites::<ModelCna>("cna-2", 2, CNA_FILE);
    for (what, line) in [
        ("the current_socket store", socket_store),
        ("the WAITING store", waiting_store),
        ("the slow path's link-wait spin", link_wait),
        ("the slow path's Acquire re-read", link_reread),
    ] {
        assert!(
            touches(&contended, line),
            "two threads must reach {what} (raw.rs:{line}): {contended:?}"
        );
    }
    assert!(
        contended
            .iter()
            .any(|s| s.kind == "store" && s.ordering == "Release"),
        "two threads must reach a grant: {contended:?}"
    );

    for (name, one) in [
        ("cna", sites::<ModelCna>("cna-1", 1, CNA_FILE)),
        ("cna-opt", sites::<ModelCnaOpt>("cna-opt-1", 1, CNA_FILE)),
    ] {
        for (what, line) in [
            ("the current_socket store", socket_store),
            ("the WAITING store", waiting_store),
            ("the link-wait spin", link_wait),
            ("the link re-read", link_reread),
        ] {
            assert!(
                !touches(&one, line),
                "{name}: one thread reached {what} (raw.rs:{line})"
            );
        }
        // Grants, the link store and the splices are the only `Release`
        // stores; the uncontended path has none of them.
        assert!(
            !one.iter().any(|s| s.ordering == "Release"),
            "{name}: one thread reached a Release site: {one:?}"
        );
    }
}
