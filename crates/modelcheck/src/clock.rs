//! Fixed-size vector clocks for happens-before tracking.

use sync_core::rng::mix64;

/// Maximum number of model threads per execution. Lock scenarios are 2–4
/// threads; the array stays small enough to copy freely.
pub const MAX_THREADS: usize = 4;

/// A vector clock over the execution's threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct VClock(pub [u32; MAX_THREADS]);

impl VClock {
    /// Component-wise maximum (the happens-before join).
    #[inline]
    pub fn join(&mut self, other: &VClock) {
        for i in 0..MAX_THREADS {
            if other.0[i] > self.0[i] {
                self.0[i] = other.0[i];
            }
        }
    }

    /// `true` when this clock has reached `(tid, ts)` — i.e. the event with
    /// timestamp `ts` on thread `tid` happens-before the holder of `self`.
    #[inline]
    pub fn covers(&self, tid: usize, ts: u32) -> bool {
        self.0[tid] >= ts
    }

    /// Feeds the clock into a rolling hash.
    pub fn hash_into(&self, h: &mut u64) {
        for &c in &self.0 {
            *h = mix64(*h ^ u64::from(c));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn join_is_componentwise_max() {
        let mut a = VClock([1, 5, 0, 2]);
        a.join(&VClock([3, 2, 0, 7]));
        assert_eq!(a, VClock([3, 5, 0, 7]));
    }

    #[test]
    fn covers_matches_components() {
        let c = VClock([2, 0, 0, 0]);
        assert!(c.covers(0, 2));
        assert!(c.covers(0, 1));
        assert!(!c.covers(0, 3));
        assert!(c.covers(1, 0));
    }
}
