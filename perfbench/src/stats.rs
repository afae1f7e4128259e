//! Order statistics and ratios for the report.
//!
//! Timings are reported as a median plus a *tail*: the highest percentile
//! of [`TAIL_LADDER`] that still has at least [`MIN_BEYOND`] samples above
//! it, so a tail is never read off one or two outliers. Every ratio is
//! declared with its base in [`RATIOS`].

/// Candidate tail percentiles, highest first.
pub const TAIL_LADDER: [f64; 6] = [99.9, 99.0, 95.0, 90.0, 75.0, 50.0];

/// Samples a tail percentile needs strictly beyond its rank.
pub const MIN_BEYOND: usize = 10;

/// Median of `values` (mean of the two middle values for an even count);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile of an ascending slice: the value at 1-based
/// rank `ceil(p / 100 * n)` (at least 1), with the number of samples
/// ranked above it.
fn nearest_rank(sorted: &[f64], p: f64) -> (f64, usize) {
    let n = sorted.len();
    let rank = rank(p, n);
    (sorted[rank - 1], n - rank)
}

/// 1-based nearest rank of percentile `p` in `n > 0` samples.
fn rank(p: f64, n: usize) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// A tail percentile and the evidence behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Tail {
    /// The percentile chosen from [`TAIL_LADDER`].
    pub percentile: f64,
    /// The sample value at that percentile.
    pub value: f64,
    /// Total number of samples.
    pub samples: usize,
    /// Samples ranked strictly above the percentile.
    pub beyond: usize,
}

/// The highest percentile of [`TAIL_LADDER`] that leaves at least
/// [`MIN_BEYOND`] samples beyond it in a sample of `planned` values, read
/// off `values`; `None` when even the median leaves fewer or `values`
/// holds fewer than `planned`. Choosing the percentile from the planned
/// sample size, not the actual one, keeps a run that happens to fit one
/// more pass from jumping to a higher percentile.
pub fn tail(values: &[f64], planned: usize) -> Option<Tail> {
    if planned == 0 || values.len() < planned {
        return None;
    }
    let percentile = *TAIL_LADDER
        .iter()
        .find(|&&p| planned - rank(p, planned) >= MIN_BEYOND)?;
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let (value, beyond) = nearest_rank(&sorted, percentile);
    Some(Tail {
        percentile,
        value,
        samples: sorted.len(),
        beyond,
    })
}

/// `num / base`, or `0.0` when the base is zero (nothing attempted).
pub fn ratio(num: f64, base: f64) -> f64 {
    if base == 0.0 {
        0.0
    } else {
        num / base
    }
}

/// Every ratio the traced report derives: `(name, numerator, base)`, both
/// operands being counters of the same pass.
pub const RATIOS: [(&str, &str, &str); 5] = [
    (
        "explore.output_yield",
        "explore.outputs",
        "explore.end_states",
    ),
    (
        "history.check.incremental_share",
        "history.check.incremental_hits",
        "history.check.memo_misses",
    ),
    (
        "history.check.memo_hit_rate",
        "history.check.memo_hits",
        "history.check.checks",
    ),
    (
        "store.commit_yield",
        "store.committed",
        "store.commit_attempts",
    ),
    ("store.messages_per_s", "store.messages", "store.run_s"),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        // 1000 samples: p99 leaves exactly 10 beyond, p99.9 only 1.
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v, 1000).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (99.0, 990.0, 10));
        // 999 samples: p99 leaves 9, so the rule steps down to p95.
        let t = tail(&v[..999], 999).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 950.0, 49));
        // One sample more than planned keeps the planned percentile.
        let t = tail(&v, 999).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (95.0, 950.0, 50));
        assert_eq!(tail(&v[..500], 999), None);
        // 100 samples: p90 is the first with 10 beyond.
        let t = tail(&v[..100], 100).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
    }

    #[test]
    fn tail_ignores_sample_order_and_needs_enough_samples() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v, 100).unwrap().value, 90.0);
        // 20 samples: only the median leaves 10 beyond; 19 leave none.
        assert_eq!(tail(&v[..20], 20).unwrap().percentile, 50.0);
        assert_eq!(tail(&v[..19], 19), None);
        assert_eq!(tail(&[], 0), None);
    }

    #[test]
    fn ratio_with_zero_base_is_zero() {
        assert_eq!(ratio(3.0, 4.0), 0.75);
        assert_eq!(ratio(3.0, 0.0), 0.0);
    }

    #[test]
    fn every_ratio_states_a_distinct_base() {
        for (name, num, base) in RATIOS {
            assert!(!base.is_empty() && base != num, "{name} needs a base");
            assert_eq!(
                name.split('.').next(),
                base.split('.').next(),
                "{name}: base {base} is a counter of the same layer"
            );
        }
    }
}
