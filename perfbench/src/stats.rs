//! Order statistics over repetitions and samples.

/// Nearest-rank percentile of `sorted` (ascending): the smallest value
/// with at least `p` percent of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice or `p` outside `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 100.0, "percentile {p} out of range");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Index of the repetition with the smallest `key`: interference on a
/// shared machine only ever slows a repetition down, so the fastest
/// one is the closest to the program's own cost.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn best_of<T>(reps: &[T], key: impl Fn(&T) -> f64) -> usize {
    assert!(!reps.is_empty(), "best of no repetitions");
    let mut best = 0;
    for (i, r) in reps.iter().enumerate() {
        if key(r) < key(&reps[best]) {
            best = i;
        }
    }
    best
}

/// Median of `values` (mean of the two middle ones for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_matches_hand_computed_ranks() {
        let s: Vec<u64> = (1..=10).map(|x| x * 10).collect();
        // n = 10: p50 -> rank 5, p90 -> rank 9, p99 -> rank 10,
        // p10 -> rank 1, p11 -> rank ceil(1.1) = 2.
        assert_eq!(percentile(&s, 50.0), 50);
        assert_eq!(percentile(&s, 90.0), 90);
        assert_eq!(percentile(&s, 99.0), 100);
        assert_eq!(percentile(&s, 10.0), 10);
        assert_eq!(percentile(&s, 11.0), 20);
        assert_eq!(percentile(&s, 100.0), 100);
        let big: Vec<u64> = (1..=1000).collect();
        assert_eq!(percentile(&big, 99.0), 990);
        assert_eq!(percentile(&big, 50.0), 500);
        assert_eq!(percentile(&[7], 1.0), 7);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn percentile_rejects_zero() {
        percentile(&[1, 2], 0.0);
    }

    #[test]
    fn best_of_picks_the_first_minimum() {
        let walls = [0.31, 0.27, 0.42, 0.27, 0.29];
        assert_eq!(best_of(&walls, |w| *w), 1);
        assert_eq!(best_of(&[5.0], |w: &f64| *w), 0);
        let reps = [(3, 9.0), (1, 4.0), (2, 8.0)];
        assert_eq!(best_of(&reps, |r| r.1), 1);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
