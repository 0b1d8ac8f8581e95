//! The paper's key-value map microbenchmark (§7.1.1) run for real on this
//! machine, with the lock algorithms selected by name through the registry —
//! the same way LiTL swaps locks under an unchanged workload.
//!
//! Run with: `cargo run --release --example kv_map`

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use cna_locks::registry::LockId;
use cna_locks::sync_core::rng::Rng;
use cna_locks::sync_core::DynLockMutex;

const KEY_RANGE: u64 = 1024;
const THREADS: usize = 4;
const RUN: Duration = Duration::from_millis(300);

/// One benchmark run: a BTree map behind a single registry-selected lock,
/// 80 % lookups / 20 % updates, keys uniform in `0..KEY_RANGE`.
fn run(id: LockId) -> (LockId, u64) {
    let map: Arc<DynLockMutex<BTreeMap<u64, u64>>> = Arc::new(DynLockMutex::new(
        id.build(),
        (0..KEY_RANGE / 2).map(|k| (k * 2, k)).collect(),
    ));
    let stop = Arc::new(AtomicBool::new(false));
    let total = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let map = Arc::clone(&map);
            let stop = Arc::clone(&stop);
            let total = Arc::clone(&total);
            s.spawn(move || {
                let _socket = cna_locks::numa_topology::SocketOverrideGuard::new(t % 2);
                let mut rng = Rng::new(t as u64 + 1);
                let mut ops = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let key = rng.next_below(KEY_RANGE);
                    let update = rng.chance(0.2);
                    let mut guard = map.lock();
                    if update {
                        if rng.chance(0.5) {
                            guard.insert(key, ops);
                        } else {
                            guard.remove(&key);
                        }
                    } else {
                        let _ = guard.get(&key);
                    }
                    drop(guard);
                    ops += 1;
                }
                total.fetch_add(ops, Ordering::Relaxed);
            });
        }
        std::thread::sleep(RUN);
        stop.store(true, Ordering::Relaxed);
    });
    (id, total.load(Ordering::Relaxed))
}

fn main() {
    println!(
        "key-value map microbenchmark: {THREADS} threads, {KEY_RANGE}-key range, {:?} per lock\n",
        RUN
    );
    println!("(wall-clock numbers on this host; the NUMA figures come from `cargo bench`)\n");
    // The paper's user-space comparison set, addressed by registry name.
    let ids: Vec<LockId> = ["mcs", "cna", "c-bo-mcs", "hmcs"]
        .iter()
        .map(|name| name.parse().expect("registered lock name"))
        .collect();
    for (id, ops) in ids.into_iter().map(run) {
        println!(
            "{:>10}: {ops:>10} ops ({:.2} ops/us)",
            id.name(),
            ops as f64 / RUN.as_micros() as f64
        );
    }
}
