//! Summary statistics and failure accounting.

use std::collections::BTreeMap;

/// Median (mean of the middle two for an even count); `None` when empty.
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

/// Samples a reported tail percentile must have beyond it.
pub const TAIL_BEYOND: usize = 10;

/// The highest percentile with at least [`TAIL_BEYOND`] samples beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile, in `(0, 100]`.
    pub percentile: f64,
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    pub samples: usize,
}

/// With nearest-rank percentiles, percentile `p` of `n` samples is the
/// sample of rank `ceil(p·n/100)`, and `n − rank` samples lie beyond it.
/// The highest percentile that leaves ten beyond is therefore rank
/// `n − 10`, that is `p = 100·(n−10)/n`. With ten samples or fewer no
/// percentile qualifies; the maximum is reported, with fewer beyond.
pub fn tail(values: &[f64]) -> Option<Tail> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n == 0 {
        return None;
    }
    let rank = if n > TAIL_BEYOND { n - TAIL_BEYOND } else { n };
    Some(Tail {
        percentile: 100.0 * rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: n - rank,
        samples: n,
    })
}

/// Attempts and failures of a run, with the reason of each failure.
#[derive(Debug, Clone, Default)]
pub struct Tally {
    pub attempted: usize,
    pub failed: usize,
    pub reasons: BTreeMap<String, usize>,
}

impl Tally {
    pub fn success(&mut self) {
        self.attempted += 1;
    }

    pub fn failure(&mut self, reason: &str) {
        self.attempted += 1;
        self.failed += 1;
        // Group by the reason's leading words, not its varying details.
        let key: String = reason.split(':').next().unwrap_or(reason).to_string();
        *self.reasons.entry(key).or_default() += 1;
    }

    pub fn succeeded(&self) -> usize {
        self.attempted - self.failed
    }

    /// Failed over attempted (0 when nothing was attempted).
    pub fn error_rate(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_even_and_empty_sets() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn the_tail_keeps_ten_samples_beyond_it() {
        let values: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&values).unwrap();
        assert_eq!(
            (t.percentile, t.value, t.beyond, t.samples),
            (90.0, 90.0, 10, 100)
        );
        // Exactly ten beyond, whatever the count.
        for n in 11..300 {
            let values: Vec<f64> = (0..n).map(|i| f64::from(n - i)).collect();
            let t = tail(&values).unwrap();
            assert_eq!(t.beyond, 10, "n = {n}");
            assert_eq!(values.iter().filter(|&&v| v > t.value).count(), 10);
            let rank = (t.percentile * n as f64 / 100.0).round() as usize;
            assert_eq!(rank, n as usize - 10);
        }
        // 1000 samples: p99 is the highest percentile with ten beyond.
        let values: Vec<f64> = (0..1000).map(f64::from).collect();
        assert_eq!(tail(&values).unwrap().percentile, 99.0);
        // Ten or fewer samples: the maximum, flagged by `beyond`.
        let t = tail(&[5.0, 9.0, 7.0]).unwrap();
        assert_eq!((t.percentile, t.value, t.beyond), (100.0, 9.0, 0));
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn error_rate_counts_failures_against_attempts() {
        let mut tally = Tally::default();
        assert_eq!(tally.error_rate(), 0.0);
        tally.success();
        tally.success();
        tally.failure("status 503: shedding load");
        tally.failure("timeout: job 4 not terminal");
        assert_eq!(tally.attempted, 4);
        assert_eq!(tally.succeeded(), 2);
        assert_eq!(tally.error_rate(), 0.5);
        assert_eq!(tally.reasons["status 503"], 1);
        assert_eq!(tally.reasons["timeout"], 1);
    }
}
