//! Thread-local draws for CNA's hand-over coin.
//!
//! The paper's `keep_lock_local()` draws a pseudo-random number on every
//! hand-over and keeps the lock on the current socket unless
//! `rand & THRESHOLD == 0`. The generator therefore sits on the unlock fast
//! path and must be branch-light and allocation-free. Each thread holds the
//! workspace's shared generator, [`sync_core::rng::Rng`] (xorshift64*, the
//! same class of small xorshift the Linux kernel patch uses), seeded with
//! [`mix64`] of the thread index so different threads do not draw identical
//! sequences.

use std::cell::RefCell;

use sync_core::rng::{mix64, Rng};

thread_local! {
    static RNG: RefCell<Rng> =
        RefCell::new(Rng::new(mix64(numa_topology::current_thread_index() as u64)));
}

/// Returns the next pseudo-random 64-bit value for the calling thread.
#[inline]
pub fn pseudo_rand() -> u64 {
    RNG.with(|rng| rng.borrow_mut().next_u64())
}

/// Re-seeds the calling thread's generator (used by tests that need
/// reproducible draws).
pub fn reseed(seed: u64) {
    RNG.with(|rng| *rng.borrow_mut() = Rng::new(seed));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_nonzero_values() {
        for _ in 0..1_000 {
            assert_ne!(pseudo_rand(), 0);
        }
    }

    #[test]
    fn reseed_makes_sequences_reproducible() {
        reseed(42);
        let a: Vec<u64> = (0..8).map(|_| pseudo_rand()).collect();
        reseed(42);
        let b: Vec<u64> = (0..8).map(|_| pseudo_rand()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn low_bits_hit_zero_with_roughly_expected_frequency() {
        // With mask 0xff about 1/256 of draws should be zero; check we are
        // within a loose factor of four over 100k draws.
        reseed(7);
        let draws = 100_000;
        let zeros = (0..draws).filter(|_| pseudo_rand() & 0xff == 0).count();
        let expected = draws / 256;
        assert!(zeros > expected / 4, "too few zeros: {zeros}");
        assert!(zeros < expected * 4, "too many zeros: {zeros}");
    }

    #[test]
    fn different_threads_start_from_different_seeds() {
        let here = pseudo_rand();
        let there = std::thread::spawn(pseudo_rand).join().unwrap();
        // Not a strict requirement of the algorithm, but the streams should
        // not be in lockstep.
        assert_ne!(here, there);
    }
}
