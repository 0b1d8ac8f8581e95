//! Sharded kv-map substrate: N independent shards, each guarded by its own
//! registry-selected [`DynLock`](sync_core::DynLock), keys routed by hash.
//!
//! This is the scale-out counterpart of the single-lock contention loop in
//! [`crate::real`]: instead of every thread hammering one lock, keys are
//! hashed over [`RunConfig::shards`] shards and only same-shard operations
//! contend. Shard count is a first-class sweep axis — `shards = 1` *is* the
//! single-lock kv-map, so a `--shards 1,2,4,8` sweep measures exactly how
//! much of the collapse a given lock algorithm was absorbing.
//!
//! The substrate consumes [`DynLock`](sync_core::DynLock) end to end: each
//! shard is a [`DynLockMutex`] built from [`LockId::build`], so per-shard
//! acquisitions go through the same type-erased path as every other
//! registry consumer (no ambient-lock interposition, no generics).

use std::collections::{BTreeMap, HashMap};

use numa_topology::SocketOverrideGuard;
use registry::LockId;
use sync_core::rng::mix64;
use sync_core::DynLockMutex;

use crate::experiments::openloop::run_wall_clock;
use crate::real::{spin_work, RunConfig, RunResult};

/// Number of distinct keys the benchmark loops touch. Small enough that
/// every shard count divides the key space into well-populated shards,
/// large enough that per-key entries stay cheap.
pub const KEY_SPACE: u64 = 1024;

/// One shard's protected state: the entries plus an op counter maintained
/// under the same lock, so `sum(entries) == ops` cross-checks mutual
/// exclusion per shard after a run.
#[derive(Debug, Default)]
struct ShardState {
    entries: HashMap<u64, u64>,
    ops: u64,
}

/// A hash-sharded counter map; each shard guarded by its own erased lock.
pub struct ShardedKvMap {
    algorithm: &'static str,
    shards: Vec<DynLockMutex<ShardState>>,
}

impl ShardedKvMap {
    /// Builds `shards` independent shards, each guarded by a fresh lock of
    /// the given algorithm.
    pub fn new(id: LockId, shards: usize) -> Self {
        let shards = shards.max(1);
        ShardedKvMap {
            algorithm: id.name(),
            shards: (0..shards)
                .map(|_| DynLockMutex::new(id.build(), ShardState::default()))
                .collect(),
        }
    }

    /// The lock algorithm guarding every shard.
    pub fn algorithm(&self) -> &'static str {
        self.algorithm
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard `key` routes to.
    pub fn shard_of(&self, key: u64) -> usize {
        (mix64(key) % self.shards.len() as u64) as usize
    }

    /// Increments `key` under its shard's lock, spinning `critical_work`
    /// iterations inside the critical section (the paper's critical-section
    /// length knob).
    pub fn incr(&self, key: u64, critical_work: u32) {
        let mut guard = self.shards[self.shard_of(key)].lock();
        *guard.entries.entry(key).or_insert(0) += 1;
        guard.ops += 1;
        let mut seed = key | 1;
        spin_work(critical_work, &mut seed);
    }

    /// Total operations across all shards.
    pub fn total_ops(&self) -> u64 {
        self.shards.iter().map(|s| s.lock().ops).sum()
    }

    /// The full final state, merged across shards and ordered by key.
    pub fn final_state(&self) -> BTreeMap<u64, u64> {
        let mut merged = BTreeMap::new();
        for shard in &self.shards {
            let guard = shard.lock();
            for (&k, &v) in &guard.entries {
                merged.insert(k, v);
            }
        }
        merged
    }

    /// Asserts per-shard consistency: every shard's entry total must equal
    /// its op counter (both maintained under the shard lock, so a mismatch
    /// means mutual exclusion broke within that shard).
    pub fn check_consistency(&self) {
        for (i, shard) in self.shards.iter().enumerate() {
            let guard = shard.lock();
            let entry_total: u64 = guard.entries.values().sum();
            assert_eq!(
                entry_total, guard.ops,
                "shard {i} inconsistent: entries diverged from op count"
            );
        }
    }

    /// Applies a deterministic key sequence with `threads` workers (worker
    /// `t` takes every `threads`-th key starting at `t`). Increments
    /// commute, so the final state depends only on the key multiset — the
    /// basis of the shard-equivalence property test.
    pub fn apply_keys(&self, keys: &[u64], threads: usize, critical_work: u32) {
        let threads = threads.max(1);
        std::thread::scope(|scope| {
            for t in 0..threads {
                let map = &self;
                scope.spawn(move || {
                    for key in keys.iter().skip(t).step_by(threads) {
                        map.incr(*key, critical_work);
                    }
                });
            }
        });
    }
}

/// Runs `config.threads` workers against a [`ShardedKvMap`] with
/// `config.shards` shards in the load shape `config.load` selects.
///
/// Same driver and worker shape as [`crate::run_real_contention`]; each
/// request increments the key its index hashes to in [`KEY_SPACE`], and the
/// shard consistency checks run after the workers joined.
pub fn run_sharded_kvmap(id: LockId, config: &RunConfig) -> RunResult {
    let map = ShardedKvMap::new(id, config.shards);
    let summary = run_wall_clock(
        config.threads,
        config.load,
        config.duration,
        |t| {
            let socket = SocketOverrideGuard::new(t % config.virtual_sockets.max(1));
            (socket, (t as u64 + 1) * 0x9E37_79B9)
        },
        |(_socket, seed), request| {
            map.incr(mix64(request as u64) % KEY_SPACE, config.critical_work);
            spin_work(config.non_critical_work, seed);
        },
    );
    let result = RunResult::from_driver(id.name(), config.load, summary);
    map.check_consistency();
    // Cross-shard mutual-exclusion check: per-shard op counters (maintained
    // under the shard locks) must account for every completed operation.
    assert_eq!(
        map.total_ops(),
        result.total_ops(),
        "sharded kv-map lost operations: shard counters diverged from worker counts"
    );
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiments::load::Arrival;
    use std::time::Duration;

    /// Shard routing is pinned key by key: the 16-shard route of every key in
    /// `KEY_SPACE`, one hex digit per key (every digit occurs, so every shard
    /// is reached). Coarser shard counts that divide 16 follow from it
    /// (`route % n`).
    #[test]
    fn keys_route_to_the_golden_shards() {
        const SIXTEEN: [&str; 16] = [
            "f1edaa0764ad3fe57324c7a649aac0ea18dbb70c2958367538b8a65c712c71a5",
            "3194a7ffabb421c3b5c528523662f77c115347c0632c4e79ac1c1e17624b9238",
            "e53038e21be31c178714f0892470168b06140779dda24210fd4f455f668b6155",
            "8d4979659c86dc4b009b5e998f71473217dc6f72ff1ab075ec56954b4acde514",
            "f448b25dd78f33ef04a04c5db1de53037e48d77be588248a761cc85ff54f1734",
            "0e9ac3f986db704e5fd7e341e0eeacc43789fc29f5403cf68c8328e063b65f50",
            "322de1dede51045b9ca61198c823da274e8338b7f76ef01c95c50b37a3db12a2",
            "5729d3e6c9badb44911628b4e523014aa0658d9bf41ee112845f93ea65e73ede",
            "69aacb28c5c253c8723f89e810de69fd6489eb127a91e937d8fbe427feca5650",
            "08231347dd9f0b256e604ca6f91d5fd374311dded22bae85715094970f0f44c5",
            "66b4c42c97b590830ba78a74b60080631411c6d581dc416973a13f81cbf2f8de",
            "e73959468ebc5acb2326f6feea9ac7673bdaf10d05761f3eb4262e101b306901",
            "73770700de6f1cf4c6c64d1c6694d99acf57113d373ecdc71826cb42eec3f80f",
            "c80b8a774cffc2e72b27d0ab55077edeb7e3e664b7ebba45fa2e6ff10ffc2b4d",
            "1662c089fd030880630ce871a73ccb80a213c3a8def8240566b0333c99551452",
            "ec8cec338c295b699392a29de29eb586f69c69ec84d863554a1eccfbefc15f2f",
        ];
        let routes: Vec<usize> = SIXTEEN
            .concat()
            .chars()
            .map(|c| c.to_digit(16).unwrap() as usize)
            .collect();
        assert_eq!(routes.len() as u64, KEY_SPACE);
        for shards in [1, 4, 16] {
            let map = ShardedKvMap::new(LockId::Mcs, shards);
            for (key, route) in routes.iter().enumerate() {
                assert_eq!(
                    map.shard_of(key as u64),
                    route % shards,
                    "key {key}, {shards} shards"
                );
            }
        }
    }

    #[test]
    fn increments_accumulate_and_stay_consistent() {
        let map = ShardedKvMap::new(LockId::Cna, 3);
        for key in 0..10 {
            map.incr(key, 0);
            map.incr(key, 0);
        }
        assert_eq!(map.total_ops(), 20);
        let state = map.final_state();
        assert_eq!(state.len(), 10);
        assert!(state.values().all(|&v| v == 2));
        map.check_consistency();
    }

    #[test]
    fn apply_keys_is_shard_count_invariant() {
        let keys: Vec<u64> = (0..500).map(|i| mix64(i) % 64).collect();
        let single = ShardedKvMap::new(LockId::Mcs, 1);
        single.apply_keys(&keys, 3, 2);
        let sharded = ShardedKvMap::new(LockId::Mcs, 4);
        sharded.apply_keys(&keys, 3, 2);
        assert_eq!(single.final_state(), sharded.final_state());
        assert_eq!(single.total_ops(), sharded.total_ops());
    }

    #[test]
    fn closed_loop_run_counts_operations() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(20),
            critical_work: 4,
            shards: 4,
            ..RunConfig::default()
        };
        let result = run_sharded_kvmap(LockId::Cna, &cfg);
        assert_eq!(result.algorithm, "cna");
        assert!(result.total_ops() > 0);
        assert!(result.open_loop.is_none());
    }

    #[test]
    fn open_loop_run_serves_every_scheduled_request() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(2),
            critical_work: 4,
            shards: 2,
            ..RunConfig::default()
        }
        .open(100_000, Arrival::Poisson);
        let result = run_sharded_kvmap(LockId::Mcs, &cfg);
        let summary = result.open_loop.as_ref().expect("open runs summarize");
        assert_eq!(summary.served(), result.total_ops());
        assert!(summary.histogram.count() >= 64);
    }
}
