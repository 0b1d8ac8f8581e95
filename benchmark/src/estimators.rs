//! The estimators every reported number goes through, and the trial order.
//!
//! On a small shared VM interference only ever *adds* time to a single-thread
//! trial, so a series is read near its floor, not at its median — but not at
//! its minimum either: the single fastest of a hundred trials is the one
//! whose memory happened to be laid out best (leveldb `get`: the minimum
//! moved 6 % between runs where the low decile moved under 1 %). A series
//! reports its [`floor`]: the low-decile trial of each epoch, then the median
//! over the epochs, so neither a lucky nor an unlucky layout of one epoch
//! (nor a slow phase of the host covering two of them) moves it. Two series
//! are compared as per-round ratios of adjacent trials
//! ([`paired_ratio_median`]), which cancels whatever phase the round ran in.

/// The smallest value.
pub fn best(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The value a tenth of the way up the sorted values (the 3rd fastest of 25
/// trials); the fastest when there are fewer than eleven.
pub fn low_decile(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "low decile of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted[(sorted.len() - 1) / 10]
}

/// The floor of a single-thread series: median over epochs of each epoch's
/// low-decile trial. Epochs without a passing trial are left out.
pub fn floor(epochs: &[Vec<f64>]) -> f64 {
    let lows: Vec<f64> = epochs
        .iter()
        .filter(|trials| !trials.is_empty())
        .map(|trials| low_decile(trials))
        .collect();
    median(&lows)
}

/// The median (mean of the two middle values for an even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Median over rounds of `numerator[i] / denominator[i]`, the two trials of
/// round `i` having run back to back.
pub fn paired_ratio_median(numerator: &[f64], denominator: &[f64]) -> f64 {
    assert_eq!(numerator.len(), denominator.len(), "unpaired rounds");
    let ratios: Vec<f64> = numerator
        .iter()
        .zip(denominator)
        .map(|(n, d)| n / d)
        .collect();
    median(&ratios)
}

/// The `n - 1` cut points Python's `statistics.quantiles(values, n=n)` gives
/// (its default "exclusive" method), so spreads computed here match the
/// acceptance check.
pub fn quantiles(values: &[f64], n: usize) -> Vec<f64> {
    assert!(values.len() >= 2 && n >= 2, "quantiles need two values");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let m = sorted.len();
    (1..n)
        .map(|i| {
            let j = (i * (m + 1) / n).clamp(1, m - 1);
            let delta = (i * (m + 1)) as f64 - (j * n) as f64;
            (sorted[j - 1] * (n as f64 - delta) + sorted[j] * delta) / n as f64
        })
        .collect()
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let q = quantiles(values, 4);
    (q[2] - q[0]) / median(values)
}

/// Positions `0..len` starting at `round % len`: the order in which a round
/// visits its units, so no unit always runs first or always follows the
/// same neighbour's cache footprint.
pub fn rotation(round: usize, len: usize) -> impl Iterator<Item = usize> {
    (0..len).map(move |i| (round + i) % len)
}

/// Whether a pair runs second-member-first this round. Flips once per full
/// rotation as well as every round, so neither member is tied to a position.
pub fn pair_flipped(round: usize, len: usize) -> bool {
    (round + round / len.max(1)) % 2 == 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn best_is_the_minimum_and_ignores_outliers() {
        assert_eq!(best(&[21.0, 19.5, 80.0, 19.7]), 19.5);
    }

    #[test]
    fn low_decile_is_the_fastest_of_a_few_and_the_tenth_of_many() {
        assert_eq!(low_decile(&[5.0, 3.0, 4.0]), 3.0);
        let many: Vec<f64> = (1..=25).rev().map(f64::from).collect();
        assert_eq!(low_decile(&many), 3.0);
    }

    #[test]
    fn floor_shrugs_off_one_lucky_and_one_unlucky_epoch() {
        let typical = |base: f64| -> Vec<f64> { (0..20).map(|i| base + f64::from(i)).collect() };
        let steady = vec![typical(100.0); 5];
        let mut odd = steady.clone();
        // One epoch whose layout made every trial 15 % faster, one whose
        // layout made every trial 40 % slower, and one lucky trial.
        odd[1] = typical(85.0);
        odd[3] = typical(140.0);
        odd[4][7] = 60.0;
        assert_eq!(floor(&steady), 101.0);
        assert_eq!(floor(&odd), 101.0);
        assert_eq!(floor(&[Vec::new(), vec![7.0]]), 7.0);
    }

    #[test]
    fn median_handles_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn paired_ratio_cancels_a_slow_round() {
        // Round 2 ran during a slow host phase: both trials are 3x slower,
        // the ratio is unchanged.
        let cna = [22.0, 66.0, 22.0];
        let mcs = [20.0, 60.0, 20.0];
        assert!((paired_ratio_median(&cna, &mcs) - 1.1).abs() < 1e-12);
    }

    #[test]
    fn quantiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantiles(&v, 4), vec![2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quantiles(&[40.0, 10.0, 20.0], 4), vec![10.0, 20.0, 40.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rotation_visits_everything_and_moves_the_start() {
        for round in 0..7 {
            let order: Vec<usize> = rotation(round, 3).collect();
            assert_eq!(order[0], round % 3);
            let mut sorted = order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2]);
        }
    }

    #[test]
    fn pairs_flip_so_each_member_leads_equally_at_every_position() {
        let len = 4;
        let mut leads = [[0u32; 2]; 4];
        for round in 0..(2 * len * len) {
            let flipped = pair_flipped(round, len);
            leads[round % len][usize::from(flipped)] += 1;
        }
        for position in leads {
            assert_eq!(position[0], position[1]);
        }
    }
}
