//! `leveldb-lite`: an in-memory key-value store that reproduces the locking
//! profile of leveldb 1.20 as exercised by `db_bench readrandom` (§7.1.2 of
//! the paper).
//!
//! What matters for the reproduction is *which locks a `Get` takes and for
//! how long*, not the SSTable format:
//!
//! * every `Get` briefly takes the **global DB mutex** to bump the
//!   memtable's reference count (and drops it again before the actual
//!   search), then takes it once more to drop the reference and count the
//!   read;
//! * the key search runs **outside** the DB mutex, concurrently with the one
//!   writer, which inserts into the skiplist in place under the DB mutex;
//! * a successful read then updates the **sharded LRU block cache**, taking
//!   the mutex of one shard.
//!
//! Both mutexes are generic over the lock algorithm (`L: RawLock`), so the
//! same store can run on MCS, CNA, a cohort lock, or the qspinlock — exactly
//! how LiTL interposes locks underneath unmodified applications.

#![warn(missing_docs)]

pub mod bench;
pub mod cache;
pub mod db;
pub mod memtable;

pub use bench::{
    readrandom, readrandom_dyn, writebatch, writebatch_dyn, ReadRandomConfig, ReadRandomReport,
    WriteBatchConfig, WriteBatchReport,
};
pub use cache::ShardedLruCache;
pub use db::{Db, DbStats};
pub use memtable::MemTable;
