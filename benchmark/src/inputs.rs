//! Inputs generated from `--seed`: key streams and operation mixes. The
//! crates under test receive only these generated values, never the seed.

use kyoto_lite::WickedOp;

use crate::spec::Sizes;

/// Entries per stream. A trial walks its stream cyclically from where the
/// previous trial stopped; a power of two so the wrap is a mask.
pub const STREAM_LEN: usize = 1 << 16;
/// Distinct values `put_group` writes; which one a key got last is tracked
/// so the read-back check knows what to expect.
pub const VALUE_POOL: usize = 256;

/// SplitMix64: the one generator behind every stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (multiply-shift; the bias is below 2^-32 for
    /// every bound used here).
    pub fn below(&mut self, bound: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(bound)) >> 64) as u64
    }
}

/// Everything one run feeds the crates under test.
#[derive(Debug, Clone)]
pub struct Inputs {
    /// Which lock-bearing object each acquisition visits.
    pub lock_order: Vec<u32>,
    /// Keys for `ShardedKvMap::incr`.
    pub kv_keys: Vec<u64>,
    /// Indices of the (present) keys `Db::get` reads.
    pub db_get: Vec<u32>,
    /// Indices of the existing keys `Db::put_group` overwrites.
    pub db_put: Vec<u32>,
    /// Values `put_group` cycles through.
    pub values: Vec<Vec<u8>>,
    /// The kyoto operation stream, drawn with the wicked mix's weights.
    pub kyoto: Vec<(WickedOp, u64)>,
    /// Update share of the simulated kv-map mix: the paper's 20 % with a
    /// seed-drawn offset of at most ±1 point, so the simulator's exact
    /// outputs depend on the seed like every other input.
    pub sim_update_fraction: f64,
}

impl Inputs {
    pub fn generate(sizes: &Sizes, seed: u64) -> Inputs {
        // One sub-generator per stream, so resizing one stream leaves the
        // others as they were.
        let mut master = Rng::new(seed);
        let mut sub = || Rng::new(master.next_u64());
        let stream = |rng: &mut Rng, bound: u64| -> Vec<u64> {
            (0..STREAM_LEN).map(|_| rng.below(bound)).collect()
        };
        let narrow = |v: Vec<u64>| -> Vec<u32> { v.into_iter().map(|x| x as u32).collect() };

        let lock_order = narrow(stream(&mut sub(), sizes.lock_instances as u64));
        let kv_keys = stream(&mut sub(), sizes.kv_keys);
        let db_get = narrow(stream(&mut sub(), sizes.db_keys as u64));
        let db_put = narrow(stream(&mut sub(), sizes.db_keys as u64));
        let mut value_rng = sub();
        let values = (0..VALUE_POOL)
            .map(|i| format!("v{i:03}-{:016x}", value_rng.next_u64()).into_bytes())
            .collect();
        let mut kyoto_rng = sub();
        let kyoto = (0..STREAM_LEN)
            .map(|_| {
                let op = wicked_op(kyoto_rng.below(100));
                (op, kyoto_rng.below(sizes.kyoto_keys))
            })
            .collect();
        let sim_update_fraction = 0.19 + sub().below(2001) as f64 * 1e-5;
        Inputs {
            lock_order,
            kv_keys,
            db_get,
            db_put,
            values,
            kyoto,
            sim_update_fraction,
        }
    }

    /// FNV-1a over every stream: two runs fed the same inputs print the same
    /// digest in their provenance block.
    pub fn digest(&self) -> u64 {
        let mut hash = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |x: u64| {
            for byte in x.to_le_bytes() {
                hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        self.lock_order.iter().for_each(|&x| eat(u64::from(x)));
        self.kv_keys.iter().for_each(|&x| eat(x));
        self.db_get.iter().for_each(|&x| eat(u64::from(x)));
        self.db_put.iter().for_each(|&x| eat(u64::from(x)));
        for value in &self.values {
            value.iter().for_each(|&b| eat(u64::from(b)));
        }
        for &(op, key) in &self.kyoto {
            eat(op as u64);
            eat(key);
        }
        eat(self.sim_update_fraction.to_bits());
        hash
    }
}

/// The weights of `kyoto_lite::WickedOp::draw`, applied to this benchmark's
/// own generator so the mix comes from `--seed`.
fn wicked_op(percentile: u64) -> WickedOp {
    match percentile {
        0..=44 => WickedOp::Get,
        45..=74 => WickedOp::Set,
        75..=86 => WickedOp::Append,
        87..=96 => WickedOp::Remove,
        _ => WickedOp::Scan,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::WORKLOADS;

    #[test]
    fn the_same_seed_gives_the_same_streams_and_another_seed_changes_them() {
        for workload in &WORKLOADS {
            let a = Inputs::generate(&workload.sizes, 7);
            let b = Inputs::generate(&workload.sizes, 7);
            let c = Inputs::generate(&workload.sizes, 8);
            assert_eq!(a.digest(), b.digest());
            assert_eq!(a.kv_keys, b.kv_keys);
            assert_eq!(a.kyoto, b.kyoto);
            assert_ne!(a.digest(), c.digest());
            assert_ne!(a.kv_keys, c.kv_keys);
            assert_ne!(a.sim_update_fraction, c.sim_update_fraction);
        }
    }

    #[test]
    fn streams_stay_inside_their_key_spaces_and_follow_the_mix() {
        for workload in &WORKLOADS {
            let sizes = &workload.sizes;
            let inputs = Inputs::generate(sizes, 42);
            assert!(inputs
                .lock_order
                .iter()
                .all(|&i| (i as usize) < sizes.lock_instances));
            assert!(inputs.kv_keys.iter().all(|&k| k < sizes.kv_keys));
            assert!(inputs.db_get.iter().all(|&i| (i as usize) < sizes.db_keys));
            assert!(inputs.db_put.iter().all(|&i| (i as usize) < sizes.db_keys));
            assert!(inputs.kyoto.iter().all(|&(_, k)| k < sizes.kyoto_keys));
            assert!((0.19..=0.21).contains(&inputs.sim_update_fraction));
            let gets = inputs
                .kyoto
                .iter()
                .filter(|(op, _)| *op == WickedOp::Get)
                .count() as f64
                / STREAM_LEN as f64;
            assert!((gets - 0.45).abs() < 0.01, "get share {gets}");
        }
    }
}
