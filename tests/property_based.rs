//! Property-based tests on the core data structures and invariants.

use proptest::prelude::*;

use cna_locks::cna::{CnaLock, CnaNode};
use cna_locks::kernel_sim::lockstat::LockStatRegistry;
use cna_locks::leveldb_lite::MemTable;
use cna_locks::locks::{McsLock, McsNode};
use cna_locks::numa_sim::lock_model::{LockAlgorithm, Waiter};
use cna_locks::numa_sim::stats::fairness_factor;
use cna_locks::numa_sim::CostModel;
use cna_locks::numa_topology::{format_cpulist, parse_cpulist, Placement, Topology};
use cna_locks::sync_core::rng::Rng;
use cna_locks::sync_core::RawLock;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The fairness factor is always in [0.5, 1.0] and equals 0.5 for equal
    /// per-thread counts.
    #[test]
    fn fairness_factor_is_bounded(counts in proptest::collection::vec(0u64..10_000, 1..64)) {
        let f = fairness_factor(&counts);
        prop_assert!((0.5..=1.0).contains(&f));
        let equal = vec![counts[0]; counts.len()];
        let fe = fairness_factor(&equal);
        if counts.len() % 2 == 0 {
            prop_assert!((fe - 0.5).abs() < 1e-9);
        } else {
            prop_assert!(fe >= 0.5);
        }
    }

    /// cpulist parsing and formatting round-trip for arbitrary CPU sets.
    #[test]
    fn cpulist_roundtrip(cpus in proptest::collection::btree_set(0usize..512, 0..64)) {
        let cpus: Vec<usize> = cpus.into_iter().collect();
        let formatted = format_cpulist(&cpus);
        let parsed = parse_cpulist(&formatted).unwrap();
        prop_assert_eq!(parsed, cpus);
    }

    /// Every placement policy maps every thread to a valid socket.
    #[test]
    fn placements_stay_within_the_topology(
        sockets in 1usize..8,
        cores in 1usize..8,
        threads in 1usize..64,
        explicit in proptest::collection::vec(0usize..16, 1..8),
    ) {
        let topo = Topology::virtual_topology(sockets, cores, 1);
        for policy in [Placement::Interleaved, Placement::Blocked, Placement::Explicit(explicit.clone())] {
            for i in 0..threads {
                prop_assert!(policy.socket_for_thread(&topo, i) < sockets);
            }
        }
    }

    /// The memtable agrees with a model BTreeMap under arbitrary operation
    /// sequences.
    #[test]
    fn memtable_matches_model(ops in proptest::collection::vec((0u16..256, 0u16..64), 1..200)) {
        let mut table = MemTable::new();
        let mut model = std::collections::BTreeMap::new();
        for (key, value) in ops {
            let k = key.to_be_bytes();
            let v = value.to_be_bytes();
            table.put(&k, &v);
            model.insert(k.to_vec(), v.to_vec());
        }
        prop_assert_eq!(table.len(), model.len());
        for (k, v) in &model {
            let got = table.get(k);
            prop_assert_eq!(got.as_deref(), Some(v.as_slice()));
        }
        // Iteration order matches the sorted model.
        let table_keys: Vec<Vec<u8>> = table.iter().map(|(k, _)| k.to_vec()).collect();
        let model_keys: Vec<Vec<u8>> = model.keys().cloned().collect();
        prop_assert_eq!(table_keys, model_keys);
    }

    /// The CNA policy model never loses or duplicates a waiter, whatever the
    /// socket mix and releaser sockets are.
    #[test]
    fn cna_policy_conserves_waiters(
        sockets in proptest::collection::vec(0usize..4, 1..40),
        releasers in proptest::collection::vec(0usize..4, 1..40),
    ) {
        let cost = CostModel::default();
        // 64 CPUs: enough for every generated waiter set, so the
        // oversubscription penalty never perturbs the policy under test.
        let mut model = LockAlgorithm::Cna.build(4, 64, &cost);
        let mut rng = Rng::new(99);
        for (i, &socket) in sockets.iter().enumerate() {
            model.on_arrival(Waiter { thread: i, socket, arrival_ns: i as u64 });
        }
        let mut served = Vec::new();
        let mut releaser_iter = releasers.iter().cycle();
        while model.has_waiters() {
            let releaser = *releaser_iter.next().unwrap();
            if let Some(grant) = model.pick_next(releaser, &mut rng) {
                served.push(grant.waiter.thread);
            }
        }
        let mut sorted = served.clone();
        sorted.sort_unstable();
        sorted.dedup();
        prop_assert_eq!(sorted.len(), sockets.len(), "every waiter served exactly once");
    }

    /// Lockstat counters never lose events.
    #[test]
    fn lockstat_accumulates_exactly(events in proptest::collection::vec(any::<bool>(), 0..200)) {
        let registry = LockStatRegistry::new();
        let site = registry.site("lock", "site");
        for &contended in &events {
            site.record(contended, 1);
        }
        let report = registry.report();
        if events.is_empty() {
            prop_assert!(report.rows.len() <= 1);
        } else {
            prop_assert_eq!(report.rows[0].acquisitions as usize, events.len());
            prop_assert_eq!(report.rows[0].contended as usize,
                            events.iter().filter(|&&c| c).count());
        }
    }

    /// Sequential lock/unlock sequences on the real locks never deadlock or
    /// corrupt state, whatever the interleaving of lock choices is.
    #[test]
    fn sequential_lock_sequences_are_safe(choices in proptest::collection::vec(any::<bool>(), 1..200)) {
        let cna: CnaLock = CnaLock::new();
        let mcs = McsLock::new();
        let cna_node = CnaNode::new();
        let mcs_node = McsNode::new();
        for pick_cna in choices {
            // SAFETY: nodes are pinned on this frame; acquisitions do not
            // overlap because each is released before the next begins.
            unsafe {
                if pick_cna {
                    cna.lock(&cna_node);
                    cna.unlock(&cna_node);
                } else {
                    mcs.lock(&mcs_node);
                    mcs.unlock(&mcs_node);
                }
            }
        }
        prop_assert!(!cna.is_contended_or_held());
        prop_assert!(!mcs.is_contended_or_held());
    }
}
