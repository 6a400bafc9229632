//! Streaming and batch statistics used throughout the evaluation.

use std::fmt;

/// Streaming mean/variance accumulator (Welford's algorithm).
///
/// # Examples
///
/// ```
/// use ccdem_simkit::stats::RunningStats;
///
/// let mut s = RunningStats::new();
/// for v in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
///     s.push(v);
/// }
/// assert!((s.mean() - 5.0).abs() < 1e-12);
/// assert!((s.population_std_dev() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct RunningStats {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds a sample.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Number of samples seen.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sample mean, or 0 if empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population standard deviation, or 0 for fewer than one sample.
    pub fn population_std_dev(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            (self.m2 / self.count as f64).sqrt()
        }
    }

    /// Sample (Bessel-corrected) standard deviation, or 0 for fewer than
    /// two samples.
    pub fn sample_std_dev(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            (self.m2 / (self.count - 1) as f64).sqrt()
        }
    }

    /// Smallest sample, or `None` if empty.
    pub fn min(&self) -> Option<f64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest sample, or `None` if empty.
    pub fn max(&self) -> Option<f64> {
        (self.count > 0).then_some(self.max)
    }

    /// Folds another accumulator into this one (parallel Welford merge).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = self.count + other.count;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.count as f64 / total as f64;
        let m2 = self.m2
            + other.m2
            + delta * delta * self.count as f64 * other.count as f64 / total as f64;
        self.count = total;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

impl Extend<f64> for RunningStats {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.push(v);
        }
    }
}

impl FromIterator<f64> for RunningStats {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut s = RunningStats::new();
        s.extend(iter);
        s
    }
}

impl fmt::Display for RunningStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2} ± {:.2} (n={})",
            self.mean(),
            self.sample_std_dev(),
            self.count
        )
    }
}

/// The `q`-quantile of `values` using linear interpolation, matching the
/// paper's "for 80% of applications, X is less than …" statements
/// (which read off the 0.8 quantile of the per-app distribution).
///
/// Returns `None` if `values` is empty.
///
/// # Panics
///
/// Panics if `q` is not within `[0, 1]`.
///
/// # Examples
///
/// ```
/// use ccdem_simkit::stats::quantile;
///
/// let v = [1.0, 2.0, 3.0, 4.0, 5.0];
/// assert_eq!(quantile(&v, 0.5), Some(3.0));
/// assert_eq!(quantile(&v, 1.0), Some(5.0));
/// ```
pub fn quantile(values: &[f64], q: f64) -> Option<f64> {
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile must be in [0,1], got {q}"
    );
    if values.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    let (Some(&a), Some(&b)) = (sorted.get(lo), sorted.get(hi)) else {
        return None;
    };
    Some(a * (1.0 - frac) + b * frac)
}

/// A compact mean-and-spread summary of a batch of samples.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Summary {
    /// Sample mean.
    pub mean: f64,
    /// Sample standard deviation.
    pub std_dev: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Number of samples.
    pub count: u64,
}

impl Summary {
    /// Summarizes a slice of samples. Returns the zero summary when empty.
    pub fn of(values: &[f64]) -> Summary {
        let stats: RunningStats = values.iter().copied().collect();
        Summary {
            mean: stats.mean(),
            std_dev: stats.sample_std_dev(),
            min: stats.min().unwrap_or(0.0),
            max: stats.max().unwrap_or(0.0),
            count: stats.count(),
        }
    }
}

impl fmt::Display for Summary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.2} (±{:.2})", self.mean, self.std_dev)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_stats_are_zero() {
        let s = RunningStats::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.sample_std_dev(), 0.0);
        assert_eq!(s.min(), None);
        assert_eq!(s.max(), None);
    }

    #[test]
    fn merge_matches_sequential() {
        let data: Vec<f64> = (0..100).map(|i| (i as f64).sin() * 10.0).collect();
        let seq: RunningStats = data.iter().copied().collect();
        let mut a: RunningStats = data[..37].iter().copied().collect();
        let b: RunningStats = data[37..].iter().copied().collect();
        a.merge(&b);
        assert!((a.mean() - seq.mean()).abs() < 1e-9);
        assert!((a.sample_std_dev() - seq.sample_std_dev()).abs() < 1e-9);
        assert_eq!(a.count(), seq.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a: RunningStats = [1.0, 2.0, 3.0].into_iter().collect();
        let before = a;
        a.merge(&RunningStats::new());
        assert_eq!(a, before);
        let mut e = RunningStats::new();
        e.merge(&before);
        assert_eq!(e.mean(), before.mean());
    }

    #[test]
    fn quantile_interpolates() {
        let v = [10.0, 20.0];
        assert_eq!(quantile(&v, 0.25), Some(12.5));
        assert_eq!(quantile(&v, 0.0), Some(10.0));
        assert_eq!(quantile(&[], 0.5), None);
    }

    #[test]
    fn quantile_handles_unsorted_input() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&v, 0.5), Some(3.0));
    }

    #[test]
    #[should_panic(expected = "quantile must be in [0,1]")]
    fn quantile_rejects_out_of_range() {
        let _ = quantile(&[1.0], 1.5);
    }

    #[test]
    fn summary_of_slice() {
        let s = Summary::of(&[1.0, 3.0]);
        assert_eq!(s.mean, 2.0);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 3.0);
        assert_eq!(s.count, 2);
        assert!((s.std_dev - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn min_max_track_extremes() {
        let s: RunningStats = [3.0, -1.0, 7.5].into_iter().collect();
        assert_eq!(s.min(), Some(-1.0));
        assert_eq!(s.max(), Some(7.5));
    }
}
