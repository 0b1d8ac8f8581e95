//! A skiplist memtable, the in-memory sorted store leveldb searches first.
//!
//! This is leveldb's `SkipList` protocol: one writer at a time inserts in
//! place while any number of readers search, without a lock.
//!
//! * **Nodes** are single allocations with stable addresses: a header, an
//!   inline tower of `height` links, then the key bytes. A node is never
//!   moved or freed before the table drops, and nothing in it but its value
//!   pointer changes once it is reachable.
//! * **Links** are atomics. The writer builds a node completely (key, value,
//!   every link of its tower), then publishes it bottom level first with
//!   `Release` stores into its predecessors. Readers walk with `Acquire`
//!   loads, so a node they reach is complete; a reader may miss a node that
//!   is still being linked, but never sees half of one.
//! * **Values** are immutable cells behind an atomic pointer. An overwrite
//!   publishes a new cell with one `Release` store, so the node count stays
//!   the key count. A concurrent `get` may still be reading the superseded
//!   cell: the exclusive [`MemTable::put`] frees it at once, while the shared
//!   [`MemTable::insert`] retires it until [`MemTable::reclaim`] runs at a
//!   point where no reader can be inside the table (`Db` reclaims under its
//!   mutex when no `Get` holds a reference) or until the table drops.
//!
//! The atomics come from an [`Atomics`] family, so the model checker runs
//! this exact source (`modelcheck::suite::memtable_publish_scenario`), and
//! `docs/orderings.md` justifies every ordering.

use std::alloc::{self, Layout};
use std::cell::UnsafeCell;
use std::ptr::{self, NonNull};
use std::sync::atomic::Ordering;
use std::{mem, slice};

use bytes::Bytes;
use sync_core::atomics::{AtomicCell, Atomics, StdAtomics};

const MAX_HEIGHT: usize = 12;

/// A node's header. `height` links follow it inline, then `key_len` key
/// bytes, all in one allocation sized by [`Node::layout`].
#[repr(C)]
struct Node<A: Atomics> {
    /// The current value cell; null only in the head sentinel.
    value: A::Ptr<Bytes>,
    key_len: u32,
    height: u32,
    /// Marks where the inline links start.
    tower: [A::Ptr<Node<A>>; 0],
}

impl<A: Atomics> Node<A> {
    fn layout(height: usize, key_len: usize) -> Layout {
        let size = mem::size_of::<Self>() + height * mem::size_of::<A::Ptr<Self>>() + key_len;
        Layout::from_size_align(size, mem::align_of::<Self>()).expect("memtable node too large")
    }

    /// Allocates a node holding `key` and the value cell `value`, with every
    /// link null. The writer sets the links before it publishes the node.
    fn alloc(key: &[u8], value: *mut Bytes, height: usize) -> *mut Self {
        let key_len = u32::try_from(key.len()).expect("memtable key longer than 4 GiB");
        let layout = Self::layout(height, key.len());
        // SAFETY: the layout is never zero-sized (the header is not).
        let node = unsafe { alloc::alloc(layout) }.cast::<Self>();
        if node.is_null() {
            alloc::handle_alloc_error(layout);
        }
        // SAFETY: `node` is a fresh allocation of `layout`, which covers the
        // header, `height` links from the `tower` offset and then the key;
        // each is written exactly once here, before anything reads it.
        unsafe {
            node.write(Node {
                value: A::Ptr::new(value),
                key_len,
                height: height as u32,
                tower: [],
            });
            let tower = ptr::addr_of_mut!((*node).tower).cast::<A::Ptr<Self>>();
            for level in 0..height {
                tower.add(level).write(A::Ptr::new(ptr::null_mut()));
            }
            ptr::copy_nonoverlapping(key.as_ptr(), tower.add(height).cast::<u8>(), key.len());
        }
        node
    }

    /// Link `level` of the node at `this`.
    ///
    /// # Safety
    /// `this` is a live node (from [`Node::alloc`], not yet freed) taller
    /// than `level`, and the reference does not outlive it.
    unsafe fn next<'n>(this: *const Self, level: usize) -> &'n A::Ptr<Self> {
        // SAFETY: the caller's contract; the links follow the header inside
        // the node's own allocation.
        unsafe {
            &*ptr::addr_of!((*this).tower)
                .cast::<A::Ptr<Self>>()
                .add(level)
        }
    }

    /// The key of the node at `this`.
    ///
    /// # Safety
    /// `this` is a live node and the slice does not outlive it.
    unsafe fn key<'n>(this: *const Self) -> &'n [u8] {
        // SAFETY: the caller's contract; the key follows the last link and
        // is never written after `alloc`.
        unsafe {
            let start = ptr::addr_of!((*this).tower)
                .cast::<A::Ptr<Self>>()
                .add((*this).height as usize)
                .cast::<u8>();
            slice::from_raw_parts(start, (*this).key_len as usize)
        }
    }

    /// Frees the node at `this` and its current value cell.
    ///
    /// # Safety
    /// `this` came from [`Node::alloc`], nothing can reach it any more, and
    /// it is freed once.
    unsafe fn free(this: *mut Self) {
        // SAFETY: the caller's contract: we own the node outright.
        unsafe {
            let (height, key_len) = ((*this).height as usize, (*this).key_len as usize);
            let cell = (*this).value.load(Ordering::Relaxed);
            if !cell.is_null() {
                drop(Box::from_raw(cell));
            }
            let tower = ptr::addr_of_mut!((*this).tower).cast::<A::Ptr<Self>>();
            for level in 0..height {
                ptr::drop_in_place(tower.add(level));
            }
            ptr::drop_in_place(this);
            alloc::dealloc(this.cast(), Self::layout(height, key_len));
        }
    }
}

/// What only the writer touches.
struct Writer {
    rng_state: u64,
    /// Superseded value cells a reader may still be reading.
    retired: Vec<*mut Bytes>,
}

impl Writer {
    fn random_height(&mut self) -> usize {
        // Classic p = 1/4 geometric height distribution.
        let mut h = 1;
        let mut x = self.rng_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng_state = x;
        while h < MAX_HEIGHT && (x & 0x3) == 0 {
            h += 1;
            x >>= 2;
        }
        h
    }
}

/// A single-writer skiplist memtable that readers search concurrently.
pub struct MemTable<A: Atomics = StdAtomics> {
    /// Head sentinel: `MAX_HEIGHT` links, empty key, null value.
    head: NonNull<Node<A>>,
    /// Height of the tallest tower; searches start there.
    height: A::Usize,
    len: A::Usize,
    approximate_bytes: A::Usize,
    writer: UnsafeCell<Writer>,
}

// SAFETY: the table owns its nodes and value cells outright; moving it to
// another thread moves plain bytes, `Bytes` (which is `Send`) and the
// family's atomics.
unsafe impl<A: Atomics> Send for MemTable<A> {}
// SAFETY: shared access reads atomics and node fields that never change once
// a node is reachable. The writer state behind the `UnsafeCell` is touched
// only through `&mut self` or by `insert`/`reclaim`, whose callers serialise
// them.
unsafe impl<A: Atomics> Sync for MemTable<A> {}

impl MemTable {
    /// Creates an empty memtable.
    pub fn new() -> Self {
        Self::new_in()
    }
}

impl<A: Atomics> Default for MemTable<A> {
    fn default() -> Self {
        Self::new_in()
    }
}

impl<A: Atomics> MemTable<A> {
    /// Creates an empty memtable for any atomics family.
    pub fn new_in() -> Self {
        let head = Node::alloc(&[], ptr::null_mut(), MAX_HEIGHT);
        MemTable {
            head: NonNull::new(head).expect("allocation is non-null"),
            height: A::Usize::new(1),
            len: A::Usize::new(0),
            approximate_bytes: A::Usize::new(0),
            writer: UnsafeCell::new(Writer {
                rng_state: 0x1234_5678_9abc_def1,
                retired: Vec::new(),
            }),
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// `true` when the memtable holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate memory usage in bytes (keys + values).
    pub fn approximate_bytes(&self) -> usize {
        self.approximate_bytes.load(Ordering::Relaxed)
    }

    /// The first node whose key is `>= key` (null past the end). `preds`
    /// receives the last node before it at every level below the current
    /// height; the levels above keep what the caller put there.
    fn find_ge(&self, key: &[u8], preds: &mut [*mut Node<A>; MAX_HEIGHT]) -> *mut Node<A> {
        let mut node = self.head.as_ptr();
        let mut level = self.height.load(Ordering::Relaxed) - 1;
        loop {
            // SAFETY: nodes live until the table drops, and `node` is the
            // head (`MAX_HEIGHT` links) or was reached through a link at
            // `level` or above, so it is taller than `level`.
            let next = unsafe { Node::<A>::next(node, level) }.load(Ordering::Acquire);
            // SAFETY: a non-null link points to a live, published node.
            if !next.is_null() && unsafe { Node::<A>::key(next) } < key {
                node = next;
            } else {
                preds[level] = node;
                if level == 0 {
                    return next;
                }
                level -= 1;
            }
        }
    }

    /// Inserts or overwrites `key`, freeing a superseded value at once.
    pub fn put(&mut self, key: &[u8], value: &[u8]) {
        // SAFETY: `&mut self` excludes every reader and every other writer.
        unsafe {
            self.insert(key, value);
            self.reclaim();
        }
    }

    /// Inserts or overwrites `key` while readers may be searching. An
    /// overwrite retires the superseded value cell until [`Self::reclaim`].
    ///
    /// # Safety
    /// Calls to `insert` and `reclaim` on one table are serialised: at most
    /// one runs at a time (`Db` makes them under its mutex).
    pub unsafe fn insert(&self, key: &[u8], value: &[u8]) {
        // SAFETY: the caller serialises writers, so this is the only live
        // reference to the writer state.
        let writer = unsafe { &mut *self.writer.get() };
        let mut preds = [self.head.as_ptr(); MAX_HEIGHT];
        let found = self.find_ge(key, &mut preds);
        let cell = Box::into_raw(Box::new(Bytes::copy_from_slice(value)));
        let bytes = self.approximate_bytes.load(Ordering::Relaxed);

        // SAFETY: `found` is null or a live node.
        if !found.is_null() && unsafe { Node::<A>::key(found) } == key {
            // SAFETY: `found` is live; only this writer stores its value.
            let slot = unsafe { &(*found).value };
            let old = slot.load(Ordering::Relaxed);
            slot.store(cell, Ordering::Release);
            // SAFETY: a retired cell stays allocated until `reclaim`.
            let old_len = unsafe { (*old).len() };
            writer.retired.push(old);
            self.approximate_bytes
                .store(bytes + value.len() - old_len, Ordering::Relaxed);
            return;
        }

        let height = writer.random_height();
        if height > self.height.load(Ordering::Relaxed) {
            // `preds` above the old height still hold the head. A reader
            // that sees the new height before the links finds null there
            // and drops a level.
            self.height.store(height, Ordering::Relaxed);
        }
        let node = Node::alloc(key, cell, height);
        for (level, &pred) in preds.iter().enumerate().take(height) {
            // SAFETY: `pred` is the head or a live node taller than `level`,
            // and so is `node`; both live until the table drops.
            let (into, link) =
                unsafe { (Node::<A>::next(pred, level), Node::<A>::next(node, level)) };
            let successor = into.load(Ordering::Relaxed);
            link.store(successor, Ordering::Relaxed);
            into.store(node, Ordering::Release);
        }
        let len = self.len.load(Ordering::Relaxed);
        self.len.store(len + 1, Ordering::Relaxed);
        self.approximate_bytes
            .store(bytes + key.len() + value.len(), Ordering::Relaxed);
    }

    /// Frees the value cells that overwrites retired.
    ///
    /// # Safety
    /// No `insert` runs concurrently, no thread is inside [`Self::get`], and
    /// no slice from [`Self::iter`] is still alive.
    pub unsafe fn reclaim(&self) {
        // SAFETY: the caller excludes every other writer and reader.
        let writer = unsafe { &mut *self.writer.get() };
        for cell in writer.retired.drain(..) {
            // SAFETY: `cell` came from `Box::into_raw`, was unlinked by its
            // overwrite, and no reader can still hold it (caller's contract).
            drop(unsafe { Box::from_raw(cell) });
        }
    }

    /// Looks up `key`, returning a cheap clone of the value.
    pub fn get(&self, key: &[u8]) -> Option<Bytes> {
        let mut preds = [self.head.as_ptr(); MAX_HEIGHT];
        let node = self.find_ge(key, &mut preds);
        // SAFETY: `node` is null or a live, published node.
        if node.is_null() || unsafe { Node::<A>::key(node) } != key {
            return None;
        }
        // SAFETY: as above.
        let cell = unsafe { &(*node).value }.load(Ordering::Acquire);
        // SAFETY: a cell stays allocated until `reclaim`, which may not run
        // while this `get` is in progress.
        Some(unsafe { (*cell).clone() })
    }

    /// Iterates entries in key order (used by tests and compaction-style
    /// scans).
    pub fn iter(&self) -> impl Iterator<Item = (&[u8], &[u8])> + '_ {
        // SAFETY: the head lives as long as the table.
        let mut node = unsafe { Node::<A>::next(self.head.as_ptr(), 0) }.load(Ordering::Acquire);
        std::iter::from_fn(move || {
            if node.is_null() {
                return None;
            }
            // SAFETY: `node` is a live, published node; nodes live as long
            // as the table, and a value cell until `reclaim`, which may not
            // run while a slice from this iterator is alive.
            unsafe {
                let current = node;
                node = Node::<A>::next(current, 0).load(Ordering::Acquire);
                let cell = (*current).value.load(Ordering::Acquire);
                Some((Node::<A>::key(current), (*cell).as_ref()))
            }
        })
    }

    /// Superseded value cells not yet freed.
    #[cfg(test)]
    pub(crate) fn retired(&mut self) -> usize {
        self.writer.get_mut().retired.len()
    }
}

impl<A: Atomics> Drop for MemTable<A> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` excludes every reader and writer.
        unsafe { self.reclaim() };
        let mut node = self.head.as_ptr();
        while !node.is_null() {
            // SAFETY: level 0 links every node exactly once, and the table is
            // being dropped, so nothing reaches `node` after this.
            unsafe {
                let next = Node::<A>::next(node, 0).load(Ordering::Relaxed);
                Node::<A>::free(node);
                node = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn put_get_roundtrip() {
        let mut m = MemTable::new();
        assert!(m.is_empty());
        m.put(b"k1", b"v1");
        m.put(b"k2", b"v2");
        assert_eq!(m.get(b"k1").as_deref(), Some(&b"v1"[..]));
        assert_eq!(m.get(b"k2").as_deref(), Some(&b"v2"[..]));
        assert_eq!(m.get(b"missing"), None);
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn overwrite_updates_in_place() {
        let mut m = MemTable::new();
        m.put(b"k", b"a");
        m.put(b"k", b"bb");
        assert_eq!(m.get(b"k").as_deref(), Some(&b"bb"[..]));
        assert_eq!(m.len(), 1);
        assert_eq!(m.approximate_bytes(), 3);
        assert_eq!(m.retired(), 0, "the exclusive path frees at once");
    }

    #[test]
    fn shared_overwrites_wait_for_reclaim() {
        let mut m = MemTable::new();
        m.put(b"k", b"a");
        let held = m.get(b"k");
        // SAFETY: single-threaded: no other writer, and no reader is inside
        // the table (`held` is an owned clone).
        unsafe {
            m.insert(b"k", b"b");
            m.insert(b"k", b"c");
        }
        assert_eq!(m.retired(), 2);
        assert_eq!(m.get(b"k").as_deref(), Some(&b"c"[..]));
        // SAFETY: as above.
        unsafe { m.reclaim() };
        assert_eq!(m.retired(), 0);
        assert_eq!(
            held.as_deref(),
            Some(&b"a"[..]),
            "a clone outlives its cell"
        );
    }

    #[test]
    fn empty_keys_and_values_are_entries() {
        let mut m = MemTable::new();
        m.put(b"", b"");
        m.put(b"a", b"");
        assert_eq!(m.get(b"").as_deref(), Some(&b""[..]));
        assert_eq!(m.get(b"a").as_deref(), Some(&b""[..]));
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn iteration_is_sorted() {
        let mut m = MemTable::new();
        for k in [b"d".as_ref(), b"a".as_ref(), b"c".as_ref(), b"b".as_ref()] {
            m.put(k, b"x");
        }
        let keys: Vec<&[u8]> = m.iter().map(|(k, _)| k).collect();
        assert_eq!(
            keys,
            vec![b"a".as_ref(), b"b".as_ref(), b"c".as_ref(), b"d".as_ref()]
        );
    }

    #[test]
    fn many_keys_remain_retrievable() {
        let mut m = MemTable::new();
        for i in 0..2_000u32 {
            m.put(format!("key{i:06}").as_bytes(), &i.to_le_bytes());
        }
        assert_eq!(m.len(), 2_000);
        for i in (0..2_000u32).step_by(37) {
            assert_eq!(
                m.get(format!("key{i:06}").as_bytes()).as_deref(),
                Some(&i.to_le_bytes()[..])
            );
        }
        assert!(m.approximate_bytes() > 2_000 * 10);
    }

    #[test]
    fn readers_search_while_one_writer_inserts() {
        let table = MemTable::new();
        let keys: Vec<Vec<u8>> = (0..2_000u32)
            .map(|i| format!("key{i:06}").into_bytes())
            .collect();
        std::thread::scope(|s| {
            s.spawn(|| {
                for (i, key) in keys.iter().enumerate() {
                    // SAFETY: this thread is the only writer and nothing
                    // reclaims while the readers run.
                    unsafe { table.insert(key, &(i as u32).to_le_bytes()) };
                }
            });
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..20 {
                        let mut previous: Option<&[u8]> = None;
                        for (key, value) in table.iter() {
                            assert!(previous < Some(key), "iteration stays sorted");
                            assert!(keys.binary_search_by(|k| k[..].cmp(key)).is_ok());
                            assert_eq!(value.len(), 4);
                            previous = Some(key);
                        }
                        for (i, key) in keys.iter().enumerate().step_by(97) {
                            if let Some(v) = table.get(key) {
                                assert_eq!(&v[..], &(i as u32).to_le_bytes());
                            }
                        }
                    }
                });
            }
        });
        assert_eq!(table.len(), keys.len());
    }
}
