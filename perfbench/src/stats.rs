//! Order statistics with an explicit sample-size rule: a percentile is
//! reported only when at least [`MIN_TAIL`] samples lie beyond it, so a
//! p99 needs 1 000 samples and a p50 needs 20.

/// Fewest samples that must lie strictly beyond a reported percentile.
pub const MIN_TAIL: usize = 10;

/// The nearest-rank percentile `per_mille`/1000 of ascending `sorted`
/// samples, or `None` when fewer than [`MIN_TAIL`] samples lie beyond it.
pub fn percentile_sorted(sorted: &[f64], per_mille: usize) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || per_mille == 0 || per_mille >= 1000 {
        return None;
    }
    // 1-based nearest rank, ceil(n * p), in integer arithmetic so 0.99 × n
    // never rounds up past the rank it means.
    let rank = (n * per_mille).div_ceil(1000).max(1);
    if n - rank < MIN_TAIL {
        return None;
    }
    Some(sorted[rank - 1])
}

/// [`percentile_sorted`] over unsorted samples.
pub fn percentile(samples: &[f64], per_mille: usize) -> Option<f64> {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile_sorted(&sorted, per_mille)
}

/// Plain median (mean of the middle pair for even counts), for a handful
/// of repetitions where no tail is reported; `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Reversed so the estimator has to sort.
        (1..=n).rev().map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_on_a_ramp() {
        let s = ramp(1000);
        assert_eq!(percentile(&s, 500), Some(500.0));
        assert_eq!(percentile(&s, 990), Some(990.0));
        assert_eq!(percentile(&s, 900), Some(900.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 990), None);
        assert_eq!(percentile(&ramp(1000), 990), Some(990.0));
        assert_eq!(percentile(&ramp(1500), 990), Some(1485.0));
    }

    #[test]
    fn p50_needs_twenty_samples() {
        assert_eq!(percentile(&ramp(19), 500), None);
        assert_eq!(percentile(&ramp(20), 500), Some(10.0));
        assert_eq!(percentile(&ramp(21), 500), Some(11.0));
    }

    #[test]
    fn degenerate_inputs_report_nothing() {
        assert_eq!(percentile(&[], 500), None);
        assert_eq!(percentile(&ramp(100), 0), None);
        assert_eq!(percentile(&ramp(100), 1000), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }
}
