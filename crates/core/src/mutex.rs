//! Safe RAII mutexes built on the CNA lock.

use sync_core::mutex::LockMutex;

use crate::raw::{CnaLock, CnaLockOpt};

/// A mutex protected by the CNA lock with the paper's default parameters.
///
/// This is the type most applications should use; it is the drop-in
/// equivalent of the paper's pthread-API library built with LiTL.
///
/// # Examples
///
/// ```
/// use cna::CnaMutex;
///
/// let m = CnaMutex::new(vec![1, 2, 3]);
/// m.lock().push(4);
/// assert_eq!(m.lock().len(), 4);
/// ```
pub type CnaMutex<T> = LockMutex<T, CnaLock>;

/// A mutex protected by the "CNA (opt)" lock (shuffle reduction enabled).
pub type CnaMutexOpt<T> = LockMutex<T, CnaLockOpt>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::raw::NeverFlushParams;
    use std::sync::Arc;

    #[test]
    fn cna_mutex_basic() {
        let m = CnaMutex::new(String::new());
        m.lock().push_str("cna");
        assert_eq!(&*m.lock(), "cna");
        assert_eq!(m.algorithm(), "CNA");
    }

    #[test]
    fn opt_mutex_reports_its_name() {
        let m = CnaMutexOpt::new(0u8);
        assert_eq!(m.algorithm(), "CNA (opt)");
    }

    #[test]
    fn parameter_types_configure_the_mutex() {
        let m: LockMutex<u64, CnaLock<NeverFlushParams>> = LockMutex::new(0);
        assert_eq!(m.algorithm(), "CNA (never-flush)");
        *m.lock() += 7;
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn contended_increments_are_not_lost() {
        const THREADS: usize = 4;
        const ITERS: u64 = 2_500;
        let m = Arc::new(CnaMutex::new(0u64));
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    let _socket = numa_topology::SocketOverrideGuard::new(t % 2);
                    for _ in 0..ITERS {
                        *m.lock() += 1;
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(*m.lock(), THREADS as u64 * ITERS);
    }

    #[test]
    fn nested_distinct_mutexes() {
        let outer = CnaMutex::new(1u32);
        let inner = CnaMutex::new(2u32);
        let a = outer.lock();
        let b = inner.lock();
        assert_eq!(*a + *b, 3);
    }
}
