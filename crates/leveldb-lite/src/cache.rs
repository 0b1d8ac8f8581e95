//! A sharded LRU block cache, as used by leveldb (`util/cache.cc`).
//!
//! leveldb shards its LRU cache 16 ways and protects each shard with its own
//! mutex; `readrandom` touches one shard per read to record the accessed
//! block. Those per-shard mutexes are the secondary contention points the
//! paper mentions for the pre-filled-database experiment.
//!
//! Each shard is leveldb's `LRUCache`: a hash index from key to slot (its
//! `HandleTable`) over a slab of slots threaded on one recency list (its
//! `lru_` list). A hit moves its slot to the head of the list; a miss at
//! capacity reuses the tail's slot for the new key. So the work done under
//! the shard lock is O(1), and the slab and the index are sized once, when
//! the cache is built: a warm cache never allocates.

use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

use bytes::Bytes;
use sync_core::mutex::LockMutex;
use sync_core::raw::RawLock;

/// Number of shards, matching leveldb's `kNumShards = 1 << 4`.
pub const NUM_SHARDS: usize = 16;

/// The shard `key` belongs to.
pub(crate) fn shard_of(key: u64) -> usize {
    // leveldb uses the hash's top 4 bits; a multiplicative mix works the
    // same way here.
    ((key.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 60) as usize % NUM_SHARDS
}

/// Builds [`KeyHasher`]s for a shard's index.
#[derive(Clone, Copy, Default)]
struct KeyHash;

/// Hashes an index key with one shift and one multiply. The keys are
/// already hashes, so SipHash would be wasted work. The shift folds high
/// bits into the low ones the table picks buckets with; the multiply fills
/// the top bits its 7-bit tags come from. It is not [`shard_of`]'s
/// multiply, which leaves the top 4 bits equal within a shard.
struct KeyHasher(u64);

impl BuildHasher for KeyHash {
    type Hasher = KeyHasher;

    fn build_hasher(&self) -> KeyHasher {
        KeyHasher(0)
    }
}

impl Hasher for KeyHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a shard index hashes only u64 keys");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = (key ^ key >> 29).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
}

/// The end of the recency list.
const NIL: u32 = u32::MAX;

struct Slot {
    key: u64,
    value: Bytes,
    /// The next more recently used slot, `NIL` at the head.
    prev: u32,
    /// The next less recently used slot, `NIL` at the tail.
    next: u32,
}

struct Shard {
    /// Key → its slot in `slots`.
    index: HashMap<u64, u32, KeyHash>,
    slots: Vec<Slot>,
    /// The most recently used slot, `NIL` while empty.
    head: u32,
    /// The least recently used slot, the next to be reused.
    tail: u32,
    capacity: usize,
    hits: u64,
    misses: u64,
}

impl Shard {
    fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        assert!(capacity < NIL as usize, "shard capacity exceeds u32 slots");
        Shard {
            // Twice the capacity: every eviction removes one key and adds
            // another, and a table at most half full clears the tombstones
            // that leaves in place instead of growing.
            index: HashMap::with_capacity_and_hasher(2 * capacity, KeyHash),
            slots: Vec::with_capacity(capacity),
            head: NIL,
            tail: NIL,
            capacity,
            hits: 0,
            misses: 0,
        }
    }

    /// Marks `key` most recently used and returns its value, or counts a
    /// miss. Both [`ShardedLruCache::lookup`] and
    /// [`ShardedLruCache::refresh`] come through here.
    fn touch(&mut self, key: u64) -> Option<&Bytes> {
        match self.index.get(&key) {
            Some(&slot) => {
                self.hits += 1;
                self.move_to_head(slot);
                Some(&self.slots[slot as usize].value)
            }
            None => {
                self.misses += 1;
                None
            }
        }
    }

    fn insert(&mut self, key: u64, value: Bytes) {
        if let Some(&slot) = self.index.get(&key) {
            self.slots[slot as usize].value = value;
            self.move_to_head(slot);
            return;
        }
        let slot = if self.slots.len() < self.capacity {
            let slot = self.slots.len() as u32;
            self.slots.push(Slot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.push_head(slot);
            slot
        } else {
            // Evict the least recently used entry by reusing its slot.
            let slot = self.tail;
            let victim = &mut self.slots[slot as usize];
            let evicted = std::mem::replace(&mut victim.key, key);
            victim.value = value;
            self.index.remove(&evicted);
            self.move_to_head(slot);
            slot
        };
        self.index.insert(key, slot);
    }

    fn move_to_head(&mut self, slot: u32) {
        if slot != self.head {
            self.unlink(slot);
            self.push_head(slot);
        }
    }

    fn unlink(&mut self, slot: u32) {
        let Slot { prev, next, .. } = self.slots[slot as usize];
        match prev {
            NIL => self.head = next,
            prev => self.slots[prev as usize].next = next,
        }
        match next {
            NIL => self.tail = prev,
            next => self.slots[next as usize].prev = prev,
        }
    }

    fn push_head(&mut self, slot: u32) {
        let old_head = self.head;
        let entry = &mut self.slots[slot as usize];
        entry.prev = NIL;
        entry.next = old_head;
        match old_head {
            NIL => self.tail = slot,
            old_head => self.slots[old_head as usize].prev = slot,
        }
        self.head = slot;
    }
}

/// A 16-way sharded LRU cache whose shard mutexes are generic over the lock
/// algorithm.
pub struct ShardedLruCache<L: RawLock>
where
    L::Node: 'static,
{
    shards: Vec<LockMutex<Shard, L>>,
}

impl<L: RawLock> ShardedLruCache<L>
where
    L::Node: 'static,
{
    /// Creates a cache with `capacity` entries spread over the shards.
    pub fn new(capacity: usize) -> Self {
        let per_shard = (capacity / NUM_SHARDS).max(1);
        ShardedLruCache {
            shards: (0..NUM_SHARDS)
                .map(|_| LockMutex::new(Shard::new(per_shard)))
                .collect(),
        }
    }

    /// Looks up `key`, refreshing its LRU position.
    pub fn lookup(&self, key: u64) -> Option<Bytes> {
        self.shards[shard_of(key)].lock().touch(key).cloned()
    }

    /// Refreshes `key`'s LRU position as [`lookup`](Self::lookup) does and
    /// says whether it was cached. It does not clone the value, so a hit
    /// makes no reference-count traffic.
    pub fn refresh(&self, key: u64) -> bool {
        self.shards[shard_of(key)].lock().touch(key).is_some()
    }

    /// Inserts `key`, possibly evicting the least recently used entry of its
    /// shard.
    pub fn insert(&self, key: u64, value: Bytes) {
        self.shards[shard_of(key)].lock().insert(key, value);
    }

    /// (hits, misses) accumulated over all shards.
    pub fn hit_miss_counts(&self) -> (u64, u64) {
        let mut hits = 0;
        let mut misses = 0;
        for shard in &self.shards {
            let guard = shard.lock();
            hits += guard.hits;
            misses += guard.misses;
        }
        (hits, misses)
    }

    /// Total cached entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().index.len()).sum()
    }

    /// `true` when no entry is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cna::CnaLock;
    use sync_core::rng::Rng;
    use sync_core::spinlock::TestAndSetLock;

    /// The stamp-and-scan LRU: every entry carries a stamp from a per-shard
    /// clock, and an insert past capacity scans the whole map for the
    /// smallest stamp. Obviously exact and O(n), it is the reference model
    /// the recency list must agree with, victim for victim.
    struct StampShard {
        map: std::collections::HashMap<u64, (Bytes, u64)>,
        clock: u64,
        capacity: usize,
        hits: u64,
        misses: u64,
    }

    impl StampShard {
        fn new(capacity: usize) -> Self {
            StampShard {
                map: Default::default(),
                clock: 0,
                capacity: capacity.max(1),
                hits: 0,
                misses: 0,
            }
        }

        fn touch(&mut self, key: u64) -> Option<Bytes> {
            self.clock += 1;
            match self.map.get_mut(&key) {
                Some((value, stamp)) => {
                    *stamp = self.clock;
                    self.hits += 1;
                    Some(value.clone())
                }
                None => {
                    self.misses += 1;
                    None
                }
            }
        }

        fn insert(&mut self, key: u64, value: Bytes) {
            self.clock += 1;
            self.map.insert(key, (value, self.clock));
            if self.map.len() > self.capacity {
                let (&victim, _) = self
                    .map
                    .iter()
                    .min_by_key(|(_, (_, stamp))| *stamp)
                    .expect("over capacity, so not empty");
                self.map.remove(&victim);
            }
        }
    }

    /// Key → value of every resident entry, and the keys from the most to
    /// the least recently used, read by walking the list from the head and
    /// checking every back link and index entry on the way.
    fn contents(shard: &Shard) -> (Vec<(u64, Bytes)>, Vec<u64>) {
        let mut order = Vec::new();
        let mut slot = shard.head;
        let mut prev = NIL;
        while slot != NIL {
            let entry = &shard.slots[slot as usize];
            assert_eq!(entry.prev, prev, "the list's back link");
            assert_eq!(shard.index[&entry.key], slot, "the index points here");
            order.push(entry.key);
            prev = slot;
            slot = entry.next;
        }
        assert_eq!(shard.tail, prev, "the tail ends the list");
        assert_eq!(order.len(), shard.index.len(), "every key is on the list");
        let mut resident: Vec<(u64, Bytes)> = shard
            .index
            .iter()
            .map(|(&key, &slot)| (key, shard.slots[slot as usize].value.clone()))
            .collect();
        resident.sort();
        (resident, order)
    }

    #[test]
    fn the_list_evicts_exactly_what_the_stamp_scan_evicts() {
        for capacity in 1..=8usize {
            for seed in 0..16u64 {
                let mut rng = Rng::new(seed * 64 + capacity as u64);
                // Two to three times the capacity: most inserts evict, and
                // evicted keys come back.
                let key_space = (capacity * (2 + seed as usize % 2)) as u64;
                let mut list = Shard::new(capacity);
                let mut scan = StampShard::new(capacity);
                for step in 0..500u64 {
                    let key = rng.next_below(key_space);
                    match rng.next_below(3) {
                        // `ShardedLruCache::lookup`
                        0 => assert_eq!(list.touch(key).cloned(), scan.touch(key)),
                        // `ShardedLruCache::refresh`
                        1 => assert_eq!(list.touch(key).is_some(), scan.touch(key).is_some()),
                        _ => {
                            let value = Bytes::from(step.to_le_bytes().to_vec());
                            list.insert(key, value.clone());
                            scan.insert(key, value);
                        }
                    }
                    assert_eq!((list.hits, list.misses), (scan.hits, scan.misses));
                    let (resident, order) = contents(&list);
                    let mut expected: Vec<(u64, Bytes)> = scan
                        .map
                        .iter()
                        .map(|(&key, (value, _))| (key, value.clone()))
                        .collect();
                    expected.sort();
                    assert_eq!(
                        resident, expected,
                        "capacity {capacity}, seed {seed}, step {step}"
                    );
                    let mut by_stamp: Vec<(u64, u64)> = scan
                        .map
                        .iter()
                        .map(|(&key, &(_, stamp))| (stamp, key))
                        .collect();
                    by_stamp.sort_by(|a, b| b.cmp(a));
                    let stamp_order: Vec<u64> = by_stamp.into_iter().map(|(_, key)| key).collect();
                    assert_eq!(order, stamp_order, "the list is in stamp order");
                }
            }
        }
    }

    #[test]
    fn evictions_reuse_slots_and_never_grow_the_index() {
        let mut shard = Shard::new(256);
        let index_capacity = shard.index.capacity();
        let mut rng = Rng::new(7);
        for step in 0..20_000u64 {
            let key = rng.next_u64() % 768;
            if shard.touch(key).is_none() {
                shard.insert(key, Bytes::from(step.to_le_bytes().to_vec()));
            }
        }
        assert_eq!(shard.index.len(), 256);
        assert_eq!(shard.slots.capacity(), 256, "the slab never grew");
        assert_eq!(
            shard.index.capacity(),
            index_capacity,
            "the index never grew"
        );
    }

    #[test]
    fn insert_lookup_roundtrip() {
        let cache: ShardedLruCache<TestAndSetLock> = ShardedLruCache::new(64);
        assert!(cache.is_empty());
        cache.insert(7, Bytes::from_static(b"seven"));
        assert_eq!(cache.lookup(7).as_deref(), Some(&b"seven"[..]));
        assert_eq!(cache.lookup(8), None);
        let (hits, misses) = cache.hit_miss_counts();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn eviction_keeps_capacity_bounded() {
        let cache: ShardedLruCache<TestAndSetLock> = ShardedLruCache::new(NUM_SHARDS * 4);
        for k in 0..1_000u64 {
            cache.insert(k, Bytes::from_static(b"v"));
        }
        assert!(cache.len() <= NUM_SHARDS * 4);
    }

    #[test]
    fn lru_prefers_recently_touched_entries() {
        let cache: ShardedLruCache<TestAndSetLock> = ShardedLruCache::new(NUM_SHARDS * 2);
        // All keys in this test map to potentially different shards, so pick
        // keys that land in the same shard to exercise eviction order.
        let base = 0u64;
        let same_shard: Vec<u64> = (0..10_000u64)
            .filter(|k| shard_of(*k) == shard_of(base))
            .take(3)
            .collect();
        let (a, b, c) = (same_shard[0], same_shard[1], same_shard[2]);
        cache.insert(a, Bytes::from_static(b"a"));
        cache.insert(b, Bytes::from_static(b"b"));
        // Touch `a` so `b` is the LRU victim when `c` arrives.
        let _ = cache.lookup(a);
        cache.insert(c, Bytes::from_static(b"c"));
        assert!(cache.lookup(a).is_some());
        assert!(cache.lookup(c).is_some());
        assert!(
            cache.lookup(b).is_none(),
            "least recently used entry evicted"
        );
    }

    #[test]
    fn concurrent_use_with_cna_shard_locks() {
        let cache: std::sync::Arc<ShardedLruCache<CnaLock>> =
            std::sync::Arc::new(ShardedLruCache::new(256));
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let cache = std::sync::Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..2_000u64 {
                        let key = t * 10_000 + i % 200;
                        if i % 3 == 0 {
                            cache.insert(key, Bytes::from_static(b"value"));
                        } else {
                            let _ = cache.lookup(key);
                        }
                    }
                });
            }
        });
        let (hits, misses) = cache.hit_miss_counts();
        assert!(hits + misses > 0);
    }
}
