//! The workspace's one pseudo-random generator and one 64-bit mixer.
//!
//! [`Rng`] is xorshift64*: one word of state, a three-shift xorshift step and
//! a multiply on output. It is small enough for CNA's per-hand-over coin
//! (`cna::rng`), deterministic per seed for the simulator (every figure must
//! regenerate bit for bit), and cheap enough for the substrates' key draws.
//! [`mix64`] is the SplitMix64 finaliser: it seeds generators from small
//! integers (thread indices) and routes keys to shards.

/// Deterministic xorshift64* generator.
#[derive(Debug, Clone)]
pub struct Rng {
    state: u64,
}

impl Rng {
    /// Creates a generator from a seed (0 is remapped to a non-zero state).
    pub fn new(seed: u64) -> Self {
        Rng {
            state: seed.max(1).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1,
        }
    }

    /// Next 64-bit value.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.state = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform value in `[0, bound)`; returns 0 for `bound == 0`.
    #[inline]
    pub fn next_below(&mut self, bound: u64) -> u64 {
        if bound == 0 {
            0
        } else {
            self.next_u64() % bound
        }
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// `true` with probability `p` (clamped to `[0, 1]`).
    #[inline]
    pub fn chance(&mut self, p: f64) -> bool {
        self.next_f64() < p.clamp(0.0, 1.0)
    }
}

/// The SplitMix64 finaliser: a full-avalanche bijection on `u64`, so
/// consecutive inputs give uncorrelated outputs.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Golden vectors: the generator and the mixer are pinned bit for bit,
    /// because the simulator baseline (`baselines/smoke-sim.csv`), the model
    /// checker's state hashes and the kv-map's shard routing are all
    /// functions of these streams.
    #[test]
    fn streams_match_the_golden_vectors() {
        let first_eight = [
            (
                0,
                [
                    0x0D83_B3E2_9A21_487A,
                    0x54C4_4C79_F1FE_9D67,
                    0xA845_F342_007A_0E78,
                    0x7D6E_0B87_8A79_4779,
                    0x90D8_D6E5_A10D_D485,
                    0x9DE6_CF0F_6D5A_586E,
                    0xD566_4048_40A2_AB9D,
                    0x674B_FECE_098C_4828,
                ],
            ),
            (
                1,
                [
                    0x0D83_B3E2_9A21_487A,
                    0x54C4_4C79_F1FE_9D67,
                    0xA845_F342_007A_0E78,
                    0x7D6E_0B87_8A79_4779,
                    0x90D8_D6E5_A10D_D485,
                    0x9DE6_CF0F_6D5A_586E,
                    0xD566_4048_40A2_AB9D,
                    0x674B_FECE_098C_4828,
                ],
            ),
            (
                42,
                [
                    0x7C3D_3DA7_30E9_FD2B,
                    0xBC66_74D0_9F2B_33FC,
                    0xC1CD_CC7E_2428_8D6F,
                    0x321E_8B4F_3807_4D7F,
                    0xECBE_A6CE_7F0D_88A0,
                    0x03A3_9AF9_D75E_D1B9,
                    0xC71A_D590_758F_19E2,
                    0xD74D_59ED_337E_A17C,
                ],
            ),
            (
                0xC0FFEE,
                [
                    0xFB08_DC04_F424_DD80,
                    0x5669_1F44_903C_44F5,
                    0x21E2_781B_356A_E058,
                    0x39E5_7D5C_8B35_0277,
                    0x8465_DB5C_FF51_E68B,
                    0xCA1C_AC92_7033_61FF,
                    0xEEBB_7555_C9CE_3C89,
                    0xFF67_136E_6D77_0701,
                ],
            ),
        ];
        for (seed, expected) in first_eight {
            let mut rng = Rng::new(seed);
            let drawn: Vec<u64> = (0..8).map(|_| rng.next_u64()).collect();
            assert_eq!(drawn, expected, "seed {seed:#x}");
        }

        let mut rng = Rng::new(7);
        let below: Vec<u64> = (0..16).map(|_| rng.next_below(1000)).collect();
        assert_eq!(
            below,
            [703, 604, 336, 83, 428, 872, 108, 815, 326, 479, 710, 117, 31, 940, 788, 530]
        );
        let mut rng = Rng::new(7);
        let floats: Vec<u64> = (0..8).map(|_| rng.next_f64().to_bits()).collect();
        assert_eq!(
            floats,
            [
                0x3FD9_C7B6_E77A_7A6A,
                0x3FD9_F94D_9A75_7EDA,
                0x3FE2_E9D4_0608_C2C3,
                0x3FB0_5A12_612E_6878,
                0x3FE8_6C57_7901_50FA,
                0x3FE6_D2D3_3E9E_C16C,
                0x3FED_48CD_6CDB_22F8,
                0x3FA7_4C92_66FD_BBC0,
            ]
        );

        assert_eq!(mix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(mix64(1), 0x910A_2DEC_8902_5CC1);
        assert_eq!(mix64(1 << 63), 0x481E_C0A2_12A9_F3DB);
        assert_eq!(mix64(u64::MAX), 0xE4D9_7177_1B65_2C20);
    }

    #[test]
    fn bounded_values_stay_in_range() {
        let mut rng = Rng::new(7);
        for _ in 0..10_000 {
            assert!(rng.next_below(13) < 13);
        }
        assert_eq!(rng.next_below(0), 0);
    }

    #[test]
    fn chance_is_roughly_calibrated() {
        let mut rng = Rng::new(11);
        let hits = (0..100_000).filter(|_| rng.chance(0.25)).count();
        assert!(hits > 23_000 && hits < 27_000, "hits = {hits}");
    }

    #[test]
    fn floats_are_in_unit_interval() {
        let mut rng = Rng::new(3);
        for _ in 0..1_000 {
            let f = rng.next_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }
}
