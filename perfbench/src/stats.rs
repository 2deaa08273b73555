//! Medians and the percentile rule: a percentile is reported only when
//! at least [`MIN_BEYOND`] samples lie beyond it.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// The median (mean of the two middle values for an even count);
/// `None` for no samples.
pub fn median(samples: &[f64]) -> Option<f64> {
    let v = sorted(samples);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// How many of `n` samples lie beyond the `pct`-th percentile.
fn beyond(n: usize, pct: u32) -> usize {
    n * (100 - pct.min(100) as usize) / 100
}

/// The nearest-rank `pct`-th percentile (`1..=99`), or `None` when
/// fewer than [`MIN_BEYOND`] samples lie beyond it — so a p99 needs at
/// least 1,000 samples and a p90 at least 100.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    if !(1..=99).contains(&pct) || beyond(samples.len(), pct) < MIN_BEYOND {
        return None;
    }
    let v = sorted(samples);
    let rank = (pct as usize * v.len()).div_ceil(100);
    Some(v[rank - 1])
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn no_p99_from_fewer_than_a_thousand_samples() {
        assert_eq!(percentile(&ramp(999), 99), None);
        assert_eq!(percentile(&ramp(1000), 99), Some(990.0));
    }

    #[test]
    fn p90_needs_a_hundred_and_p50_twenty() {
        assert_eq!(percentile(&ramp(99), 90), None);
        assert_eq!(percentile(&ramp(100), 90), Some(90.0));
        assert_eq!(percentile(&ramp(19), 50), None);
        assert_eq!(percentile(&ramp(20), 50), Some(10.0));
    }

    #[test]
    fn percentile_ignores_input_order() {
        let mut v = ramp(200);
        v.reverse();
        assert_eq!(percentile(&v, 90), Some(180.0));
    }

    #[test]
    fn out_of_range_percentiles_are_refused() {
        assert_eq!(percentile(&ramp(5000), 0), None);
        assert_eq!(percentile(&ramp(5000), 100), None);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
    }
}
