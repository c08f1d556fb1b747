//! Sample summaries: nearest-rank percentiles and the tail rule.
//!
//! A timing is reported as its median plus the highest tail percentile
//! that still has at least [`TAIL_SAMPLES`] samples beyond it; with fewer
//! samples the tail is not reported at all.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SAMPLES: usize = 10;

/// Tail percentiles considered, highest first, in per-mille.
const TAILS: [u32; 3] = [999, 990, 900];

/// Nearest-rank percentile of ascending `sorted`, with `per_mille` in
/// `1..=1000` (500 is the median). Integer rank arithmetic, so p90 of
/// 100 samples is exactly the 90th value.
pub fn percentile(sorted: &[f64], per_mille: u32) -> f64 {
    sorted[rank(sorted.len(), per_mille) - 1]
}

fn rank(n: usize, per_mille: u32) -> usize {
    assert!(n > 0, "percentile of an empty sample");
    (per_mille as usize * n).div_ceil(1000).clamp(1, n)
}

/// The `per_mille` percentile when at least [`TAIL_SAMPLES`] samples lie
/// beyond it, otherwise `None`.
pub fn tail(sorted: &[f64], per_mille: u32) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let beyond = sorted.len() - rank(sorted.len(), per_mille);
    (beyond >= TAIL_SAMPLES).then(|| percentile(sorted, per_mille))
}

/// The highest tail percentile the sample supports, as
/// `(per_mille, value)`.
pub fn highest_tail(sorted: &[f64]) -> Option<(u32, f64)> {
    TAILS.iter().find_map(|&p| tail(sorted, p).map(|v| (p, v)))
}

/// A set of timing samples in one unit.
#[derive(Debug, Default, Clone)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

impl Samples {
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    fn sorted(&mut self) -> &[f64] {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        &self.values
    }

    pub fn median(&mut self) -> Option<f64> {
        let s = self.sorted();
        (!s.is_empty()).then(|| percentile(s, 500))
    }

    pub fn tail(&mut self, per_mille: u32) -> Option<f64> {
        tail(self.sorted(), per_mille)
    }

    pub fn highest_tail(&mut self) -> Option<(u32, f64)> {
        highest_tail(self.sorted())
    }
}

/// Median of a small set of values (setup repetitions).
pub fn median_of(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, 500)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn nearest_rank_percentiles() {
        let s = seq(100);
        assert_eq!(percentile(&s, 500), 50.0);
        assert_eq!(percentile(&s, 900), 90.0);
        assert_eq!(percentile(&s, 990), 99.0);
        assert_eq!(percentile(&[7.0], 500), 7.0);
        assert_eq!(percentile(&seq(3), 500), 2.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail(&seq(100), 900), Some(90.0));
        assert_eq!(tail(&seq(99), 900), None, "only 9 samples beyond p90");
        assert_eq!(tail(&seq(999), 990), None, "only 9 samples beyond p99");
        assert_eq!(tail(&seq(1000), 990), Some(990.0));
        assert_eq!(tail(&[], 900), None);
    }

    #[test]
    fn highest_supported_tail_is_chosen() {
        assert_eq!(highest_tail(&seq(50)), None);
        assert_eq!(highest_tail(&seq(100)), Some((900, 90.0)));
        assert_eq!(highest_tail(&seq(1500)), Some((990, 1485.0)));
        assert_eq!(highest_tail(&seq(10_000)), Some((999, 9990.0)));
    }

    #[test]
    fn samples_sort_lazily() {
        let mut s = Samples::default();
        for v in [5.0, 1.0, 3.0] {
            s.push(v);
        }
        assert_eq!(s.median(), Some(3.0));
        s.push(0.5);
        assert_eq!(s.median(), Some(1.0));
        assert_eq!(s.tail(900), None);
        assert_eq!(median_of(&[3.0, 1.0, 2.0]), 2.0);
    }
}
