//! Fixed-bin histograms for distribution reporting.
//!
//! The evaluation mostly reports means and quantiles, but distributions
//! (per-second savings, touch latencies) deserve a shape: a histogram
//! with an ASCII rendering drops straight into the text reports.

use std::fmt;

/// A histogram with uniform bins over `[lo, hi)`, plus underflow and
/// overflow counters.
///
/// # Examples
///
/// ```
/// use ccdem_simkit::histogram::Histogram;
///
/// let mut h = Histogram::new(0.0, 10.0, 5);
/// for v in [1.0, 1.5, 7.0, 11.0] {
///     h.record(v);
/// }
/// assert_eq!(h.bin_count(0), 2); // [0, 2)
/// assert_eq!(h.overflow(), 1);
/// assert_eq!(h.total(), 4);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    bins: Vec<u64>,
    underflow: u64,
    overflow: u64,
}

impl Histogram {
    /// Creates a histogram with `bins` uniform bins over `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `bins` is zero, the bounds are not finite, or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Histogram {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bounds must be finite with lo < hi"
        );
        Histogram {
            lo,
            hi,
            bins: vec![0; bins],
            underflow: 0,
            overflow: 0,
        }
    }

    /// Reassembles a histogram from externally accumulated counts, e.g.
    /// a snapshot of atomically maintained bins.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as [`Histogram::new`]: `bins`
    /// must be non-empty and the bounds finite with `lo < hi`.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccdem_simkit::histogram::Histogram;
    ///
    /// let h = Histogram::from_parts(0.0, 10.0, vec![3, 1], 0, 2);
    /// assert_eq!(h.bin_count(0), 3);
    /// assert_eq!(h.overflow(), 2);
    /// assert_eq!(h.total(), 6);
    /// ```
    pub fn from_parts(
        lo: f64,
        hi: f64,
        bins: Vec<u64>,
        underflow: u64,
        overflow: u64,
    ) -> Histogram {
        assert!(!bins.is_empty(), "histogram needs at least one bin");
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "bounds must be finite with lo < hi"
        );
        Histogram {
            lo,
            hi,
            bins,
            underflow,
            overflow,
        }
    }

    /// Records one sample.
    ///
    /// # Panics
    ///
    /// Panics if `value` is NaN.
    pub fn record(&mut self, value: f64) {
        assert!(!value.is_nan(), "cannot record NaN");
        if value < self.lo {
            self.underflow += 1;
        } else if value >= self.hi {
            self.overflow += 1;
        } else {
            let width = (self.hi - self.lo) / self.bins.len() as f64;
            let idx = ((value - self.lo) / width) as usize;
            // Guard the hi-boundary rounding case.
            let idx = idx.min(self.bins.len() - 1);
            if let Some(bin) = self.bins.get_mut(idx) {
                *bin += 1;
            }
        }
    }

    /// Count in bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_count(&self, i: usize) -> u64 {
        assert!(i < self.bins.len(), "bin {i} out of range");
        self.bins.get(i).copied().unwrap_or(0)
    }

    /// The `[lo, hi)` value range of bin `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn bin_range(&self, i: usize) -> (f64, f64) {
        assert!(i < self.bins.len(), "bin {i} out of range");
        let width = (self.hi - self.lo) / self.bins.len() as f64;
        (self.lo + width * i as f64, self.lo + width * (i + 1) as f64)
    }

    /// Number of bins.
    pub fn bins(&self) -> usize {
        self.bins.len()
    }

    /// Lower bound of the value range.
    pub fn lo(&self) -> f64 {
        self.lo
    }

    /// Upper bound (exclusive) of the value range.
    pub fn hi(&self) -> f64 {
        self.hi
    }

    /// Samples below the range.
    pub fn underflow(&self) -> u64 {
        self.underflow
    }

    /// Samples at or above the range's upper bound.
    pub fn overflow(&self) -> u64 {
        self.overflow
    }

    /// Total recorded samples, including under/overflow.
    pub fn total(&self) -> u64 {
        self.bins.iter().sum::<u64>() + self.underflow + self.overflow
    }

    /// Folds `other`'s counts into `self` bin-wise.
    ///
    /// Because both histograms place each sample by value into the same
    /// fixed bins, the merge is exact: merging per-worker histograms in
    /// any order yields the identical result as recording every sample
    /// into one histogram (it is commutative and associative).
    ///
    /// # Panics
    ///
    /// Panics if the shapes differ (`lo`, `hi`, or bin count) — merging
    /// across shapes would silently re-bucket samples.
    ///
    /// # Examples
    ///
    /// ```
    /// use ccdem_simkit::histogram::Histogram;
    ///
    /// let mut a = Histogram::new(0.0, 10.0, 5);
    /// let mut b = Histogram::new(0.0, 10.0, 5);
    /// a.record(1.0);
    /// b.record(1.5);
    /// b.record(11.0);
    /// a.merge(&b);
    /// assert_eq!(a.bin_count(0), 2);
    /// assert_eq!(a.overflow(), 1);
    /// assert_eq!(a.total(), 3);
    /// ```
    pub fn merge(&mut self, other: &Histogram) {
        assert!(
            self.lo == other.lo && self.hi == other.hi && self.bins.len() == other.bins.len(),
            "cannot merge histograms of different shape: [{}, {}) x{} vs [{}, {}) x{}",
            self.lo,
            self.hi,
            self.bins.len(),
            other.lo,
            other.hi,
            other.bins.len()
        );
        for (mine, theirs) in self.bins.iter_mut().zip(&other.bins) {
            *mine += theirs;
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
    }
}

impl Extend<f64> for Histogram {
    fn extend<I: IntoIterator<Item = f64>>(&mut self, iter: I) {
        for v in iter {
            self.record(v);
        }
    }
}

impl fmt::Display for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.bins.iter().copied().max().unwrap_or(0).max(1);
        for (i, &count) in self.bins.iter().enumerate() {
            let (lo, hi) = self.bin_range(i);
            let bar = "#".repeat((count * 40 / max) as usize);
            writeln!(f, "[{lo:>8.1}, {hi:>8.1})  {count:>6}  {bar}")?;
        }
        if self.underflow > 0 {
            writeln!(f, "  underflow: {}", self.underflow)?;
        }
        if self.overflow > 0 {
            writeln!(f, "  overflow:  {}", self.overflow)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bins_partition_the_range() {
        let mut h = Histogram::new(0.0, 100.0, 10);
        for i in 0..100 {
            h.record(f64::from(i));
        }
        for i in 0..10 {
            assert_eq!(h.bin_count(i), 10, "bin {i}");
        }
        assert_eq!(h.total(), 100);
        assert_eq!(h.underflow(), 0);
        assert_eq!(h.overflow(), 0);
    }

    #[test]
    fn boundaries_are_half_open() {
        let mut h = Histogram::new(0.0, 10.0, 2);
        h.record(5.0); // belongs to the second bin [5, 10)
        h.record(10.0); // overflow
        h.record(-0.1); // underflow
        assert_eq!(h.bin_count(0), 0);
        assert_eq!(h.bin_count(1), 1);
        assert_eq!(h.overflow(), 1);
        assert_eq!(h.underflow(), 1);
    }

    #[test]
    fn bin_ranges_are_uniform() {
        let h = Histogram::new(10.0, 30.0, 4);
        assert_eq!(h.bin_range(0), (10.0, 15.0));
        assert_eq!(h.bin_range(3), (25.0, 30.0));
    }

    #[test]
    fn display_scales_bars() {
        let mut h = Histogram::new(0.0, 2.0, 2);
        h.extend([0.5, 0.5, 0.5, 1.5]);
        let s = h.to_string();
        let lines: Vec<&str> = s.lines().collect();
        let hashes = |l: &str| l.matches('#').count();
        assert_eq!(hashes(lines[0]), 40);
        assert!(hashes(lines[1]) < 40 && hashes(lines[1]) > 0);
    }

    #[test]
    fn merge_matches_recording_everything_into_one() {
        let samples: Vec<f64> = (0..200).map(|i| f64::from(i) * 0.37 - 5.0).collect();
        let mut whole = Histogram::new(0.0, 50.0, 7);
        let mut left = Histogram::new(0.0, 50.0, 7);
        let mut right = Histogram::new(0.0, 50.0, 7);
        for (i, &v) in samples.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        let mut lr = left.clone();
        lr.merge(&right);
        let mut rl = right.clone();
        rl.merge(&left);
        assert_eq!(lr, whole);
        assert_eq!(rl, whole, "merge must be commutative");
    }

    #[test]
    #[should_panic(expected = "different shape")]
    fn merge_rejects_shape_mismatch() {
        let mut a = Histogram::new(0.0, 10.0, 5);
        a.merge(&Histogram::new(0.0, 10.0, 6));
    }

    #[test]
    #[should_panic(expected = "cannot record NaN")]
    fn nan_rejected() {
        Histogram::new(0.0, 1.0, 1).record(f64::NAN);
    }

    #[test]
    #[should_panic(expected = "at least one bin")]
    fn zero_bins_rejected() {
        let _ = Histogram::new(0.0, 1.0, 0);
    }
}
