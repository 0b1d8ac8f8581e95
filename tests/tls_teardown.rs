//! Taking a lock inside a thread-local destructor must work whether that
//! destructor runs before or after the node pool's own thread-local is torn
//! down. With the pool reached through `LocalKey::with`, the late case
//! panicked inside a TLS destructor, which aborts the whole process.

use std::cell::RefCell;
use std::sync::Arc;

use cna_locks::CnaMutex;

/// Bumps the shared counter, under the lock, when its thread exits.
struct LocksOnDrop(Arc<CnaMutex<u64>>);

impl Drop for LocksOnDrop {
    fn drop(&mut self) {
        *self.0.lock() += 1;
    }
}

thread_local! {
    static BEFORE_POOL: RefCell<Option<LocksOnDrop>> = const { RefCell::new(None) };
    static AFTER_POOL: RefCell<Option<LocksOnDrop>> = const { RefCell::new(None) };
}

#[test]
fn locks_taken_in_tls_destructors_survive_pool_teardown() {
    let counter = Arc::new(CnaMutex::new(0u64));
    let in_thread = Arc::clone(&counter);
    std::thread::spawn(move || {
        // A thread-local's destructor is registered by its first access and
        // destructors run in reverse registration order: BEFORE_POOL outlives
        // the pool, AFTER_POOL does not.
        BEFORE_POOL.with(|slot| *slot.borrow_mut() = Some(LocksOnDrop(Arc::clone(&in_thread))));
        assert_eq!(*in_thread.lock(), 0, "the pool's first use on this thread");
        AFTER_POOL.with(|slot| *slot.borrow_mut() = Some(LocksOnDrop(Arc::clone(&in_thread))));
    })
    .join()
    .expect("the thread exits cleanly");
    assert_eq!(*counter.lock(), 2, "both destructors took the lock");
}
