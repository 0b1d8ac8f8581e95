//! Which CNA sites each model-check scenario reaches, found by their source
//! text in `crates/core/src/raw.rs`.
//!
//! The paper's single-thread claim as an assertion: CNA keeps MCS's "single
//! atomic instruction in the acquisition path" and its single-thread cost.
//! One thread doing one acquisition touches only the uncontended paths, and
//! `Report::sites` lists every `Ordering::` site it touched. Counting them
//! in each lock's own file pins what the fast paths do: CNA runs MCS's two
//! RMWs (tail swap, closing CAS) and exactly one store and one load more
//! (`socket = -1` and the release's `spin` check, Fig. 3 l. 8 and Fig. 4
//! l. 18), and none of the contended-only sites. The contended sites are
//! found by their source text, and the two-thread scenario must reach each
//! of them, so a stale needle fails here rather than passing vacuously.
//!
//! Beyond two threads: `cna-opt` must reach the §6 shuffle-reduction grant,
//! and `cna-never-flush` with three threads must reach the secondary queue.
//! That hand-over is the one the kernel-style `qspinlock-cna` runs too.

use modelcheck::suite::{raw_lock_scenario, ModelCna, ModelCnaNeverFlush, ModelCnaOpt, ModelMcs};
use modelcheck::{explore, Config, SiteInfo};
use sync_core::raw::RawLock;

const CNA_FILE: &str = "/core/src/raw.rs";
const CNA_SOURCE: &str = include_str!("../../core/src/raw.rs");
const MCS_FILE: &str = "/locks/src/mcs.rs";

/// The sites in `file` touched by `threads` threads doing one acquisition
/// each of `L`, explored completely at preemption bound `bound`.
fn sites_at<L: RawLock + 'static>(
    name: &str,
    threads: usize,
    bound: u32,
    file: &str,
) -> Vec<SiteInfo> {
    let mut cfg = Config::smoke(name);
    cfg.trace_dir = None;
    cfg.preemption_bound = Some(bound);
    let report = explore(&cfg, &raw_lock_scenario(name, L::default, threads, 1));
    report.assert_ok();
    assert!(
        report.complete,
        "{name}: {threads} threads at bound {bound} did not complete in {} schedules",
        report.schedules
    );
    report
        .sites
        .into_iter()
        .filter(|s| s.file.ends_with(file))
        .collect()
}

/// [`sites_at`] at the smoke configuration's bound.
fn sites<L: RawLock + 'static>(name: &str, threads: usize, file: &str) -> Vec<SiteInfo> {
    let bound = Config::smoke(name)
        .preemption_bound
        .expect("smoke is bounded");
    sites_at::<L>(name, threads, bound, file)
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

/// The first line after the one statement starting with `anchor` that
/// starts with `needle` (for statements whose text occurs more than once).
fn cna_line_after(anchor: &str, needle: &str) -> u32 {
    let from = cna_line(anchor);
    CNA_SOURCE
        .lines()
        .zip(1..)
        .skip(from as usize)
        .find(|(text, _)| text.trim_start().starts_with(needle))
        .map(|(_, line)| line)
        .unwrap_or_else(|| panic!("no {needle:?} after raw.rs:{from}"))
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

#[test]
fn cna_opt_reaches_the_shuffle_reduction_grant_and_cna_does_not() {
    let shuffle_grant = cna_line_after(
        "&& pseudo_rand() & P::SHUFFLE_MASK != 0",
        "(*next).spin().store(SPIN_GRANTED",
    );
    let opt = sites::<ModelCnaOpt>("cna-opt-2", 2, CNA_FILE);
    assert!(
        touches(&opt, shuffle_grant),
        "cna-opt: two threads must reach the shuffle-reduction grant (raw.rs:{shuffle_grant}): {opt:?}"
    );
    let paper = sites::<ModelCna>("cna-2", 2, CNA_FILE);
    assert!(
        !touches(&paper, shuffle_grant),
        "cna: shuffle reduction is off, yet raw.rs:{shuffle_grant} was reached"
    );
}

/// Three threads on two sockets, one acquisition each, at preemption bound
/// 2: the smallest scenario that reaches the secondary queue (about 28 000
/// schedules). Two threads never leave the MCS-shaped paths.
#[test]
fn three_threads_reach_the_secondary_queue() {
    let stash = cna_line("me.spin().store(moved_head as usize");
    let retarget = cna_line("tail.compare_exchange(me_ptr, sec_tail,");
    let local_grant = cna_line("(*succ).spin().store(handoff");

    let three = sites_at::<ModelCnaNeverFlush>("cna-never-flush-3", 3, 2, CNA_FILE);
    for (what, line) in [
        ("the secondary-queue move (the moved_head stash)", stash),
        ("the tail-retarget CAS", retarget),
        ("the local grant", local_grant),
    ] {
        assert!(
            touches(&three, line),
            "three threads must reach {what} (raw.rs:{line}): {three:?}"
        );
    }
}
