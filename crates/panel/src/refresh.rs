//! Refresh rates and the discrete rate sets panels support.

use std::fmt;

use ccdem_simkit::time::SimDuration;

/// A display refresh rate in hertz.
///
/// # Examples
///
/// ```
/// use ccdem_panel::refresh::RefreshRate;
///
/// let r = RefreshRate::HZ_60;
/// assert_eq!(r.hz(), 60);
/// assert_eq!(r.period().as_micros(), 16_667);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RefreshRate(u32);

impl RefreshRate {
    /// 60 Hz — Android's fixed default.
    pub const HZ_60: RefreshRate = RefreshRate(60);
    /// 40 Hz.
    pub const HZ_40: RefreshRate = RefreshRate(40);
    /// 30 Hz.
    pub const HZ_30: RefreshRate = RefreshRate(30);
    /// 24 Hz.
    pub const HZ_24: RefreshRate = RefreshRate(24);
    /// 20 Hz — the Galaxy S3's floor.
    pub const HZ_20: RefreshRate = RefreshRate(20);

    /// Creates a refresh rate.
    ///
    /// # Panics
    ///
    /// Panics if `hz` is zero.
    pub const fn new(hz: u32) -> RefreshRate {
        assert!(hz > 0, "refresh rate must be non-zero");
        RefreshRate(hz)
    }

    /// The rate in hertz.
    pub const fn hz(self) -> u32 {
        self.0
    }

    /// The rate in hertz as a float.
    pub fn hz_f64(self) -> f64 {
        f64::from(self.0)
    }

    /// One refresh period, rounded to the nearest microsecond.
    pub fn period(self) -> SimDuration {
        SimDuration::from_hz(self.0)
    }
}

impl fmt::Display for RefreshRate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} Hz", self.0)
    }
}

/// Error building a [`RefreshRateSet`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildRateSetError {
    /// The rate list was empty.
    Empty,
    /// The rate list contained a duplicate.
    Duplicate(RefreshRate),
}

impl fmt::Display for BuildRateSetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildRateSetError::Empty => write!(f, "refresh rate set must not be empty"),
            BuildRateSetError::Duplicate(r) => {
                write!(f, "duplicate refresh rate {r} in rate set")
            }
        }
    }
}

impl std::error::Error for BuildRateSetError {}

/// The ordered set of refresh rates a panel supports.
///
/// Rates are stored in ascending order; the set is non-empty by
/// construction.
///
/// # Examples
///
/// ```
/// use ccdem_panel::refresh::{RefreshRate, RefreshRateSet};
///
/// let set = RefreshRateSet::galaxy_s3();
/// assert_eq!(set.len(), 5);
/// assert_eq!(set.max(), RefreshRate::HZ_60);
/// assert_eq!(set.min(), RefreshRate::HZ_20);
/// assert!(set.contains(RefreshRate::HZ_24));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct RefreshRateSet {
    rates: Vec<RefreshRate>,
}

impl RefreshRateSet {
    /// Builds a set from any iterable of rates.
    ///
    /// # Errors
    ///
    /// Returns [`BuildRateSetError::Empty`] for an empty input and
    /// [`BuildRateSetError::Duplicate`] if a rate repeats.
    pub fn new<I: IntoIterator<Item = RefreshRate>>(
        rates: I,
    ) -> Result<RefreshRateSet, BuildRateSetError> {
        let mut rates: Vec<RefreshRate> = rates.into_iter().collect();
        if rates.is_empty() {
            return Err(BuildRateSetError::Empty);
        }
        rates.sort();
        for pair in rates.windows(2) {
            if let [a, b] = pair {
                if a == b {
                    return Err(BuildRateSetError::Duplicate(*a));
                }
            }
        }
        Ok(RefreshRateSet { rates })
    }

    /// The Samsung Galaxy S3's five levels: 20, 24, 30, 40, 60 Hz
    /// (paper §3.2).
    pub fn galaxy_s3() -> RefreshRateSet {
        // Already sorted and distinct, as `new` would leave them.
        RefreshRateSet {
            rates: vec![
                RefreshRate::HZ_20,
                RefreshRate::HZ_24,
                RefreshRate::HZ_30,
                RefreshRate::HZ_40,
                RefreshRate::HZ_60,
            ],
        }
    }

    /// A single fixed rate (stock Android behaviour: 60 Hz only).
    pub fn fixed(rate: RefreshRate) -> RefreshRateSet {
        RefreshRateSet { rates: vec![rate] }
    }

    /// Number of supported rates.
    pub fn len(&self) -> usize {
        self.rates.len()
    }

    /// Whether the set holds exactly one rate.
    pub fn is_singleton(&self) -> bool {
        self.rates.len() == 1
    }

    /// Always `false`: the set is non-empty by construction.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The lowest supported rate.
    #[expect(clippy::indexing_slicing, reason = "non-empty by construction")]
    pub fn min(&self) -> RefreshRate {
        self.rates[0]
    }

    /// The highest supported rate.
    #[expect(clippy::expect_used, reason = "non-empty by construction")]
    pub fn max(&self) -> RefreshRate {
        *self.rates.last().expect("set is non-empty")
    }

    /// Whether `rate` is supported.
    pub fn contains(&self, rate: RefreshRate) -> bool {
        self.rates.binary_search(&rate).is_ok()
    }

    /// Ascending iterator over the supported rates.
    pub fn iter(&self) -> impl Iterator<Item = RefreshRate> + '_ {
        self.rates.iter().copied()
    }

    /// Ascending slice of the supported rates.
    pub fn as_slice(&self) -> &[RefreshRate] {
        &self.rates
    }

    /// The smallest supported rate that is ≥ `hz`, or the maximum if all
    /// rates are below `hz`.
    pub fn at_least(&self, hz: f64) -> RefreshRate {
        self.rates
            .iter()
            .copied()
            .find(|r| r.hz_f64() >= hz)
            .unwrap_or_else(|| self.max())
    }
}

impl fmt::Display for RefreshRateSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, r) in self.rates.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}", r.hz())?;
        }
        write!(f, "}} Hz")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_sorts_input() {
        let set = RefreshRateSet::new([RefreshRate::HZ_60, RefreshRate::HZ_20]).unwrap();
        assert_eq!(set.as_slice(), &[RefreshRate::HZ_20, RefreshRate::HZ_60]);
    }

    #[test]
    fn empty_set_rejected() {
        assert_eq!(RefreshRateSet::new([]), Err(BuildRateSetError::Empty));
    }

    #[test]
    fn duplicate_rejected() {
        let err = RefreshRateSet::new([RefreshRate::HZ_30, RefreshRate::HZ_30]);
        assert_eq!(err, Err(BuildRateSetError::Duplicate(RefreshRate::HZ_30)));
    }

    #[test]
    fn at_least_picks_ceiling_rate() {
        let set = RefreshRateSet::galaxy_s3();
        // The literal set is what `new` builds from the same rates.
        assert_eq!(
            RefreshRateSet::new(set.rates.iter().rev().copied()),
            Ok(set.clone())
        );
        assert_eq!(set.at_least(0.0), RefreshRate::HZ_20);
        assert_eq!(set.at_least(20.5), RefreshRate::HZ_24);
        assert_eq!(set.at_least(24.0), RefreshRate::HZ_24);
        assert_eq!(set.at_least(59.9), RefreshRate::HZ_60);
        assert_eq!(set.at_least(200.0), RefreshRate::HZ_60);
    }

    #[test]
    fn fixed_set_is_singleton() {
        let set = RefreshRateSet::fixed(RefreshRate::HZ_60);
        assert!(set.is_singleton());
        assert_eq!(set.min(), set.max());
    }

    #[test]
    fn display_formats() {
        assert_eq!(RefreshRate::HZ_24.to_string(), "24 Hz");
        assert_eq!(
            RefreshRateSet::galaxy_s3().to_string(),
            "{20, 24, 30, 40, 60} Hz"
        );
    }

    #[test]
    fn rate_error_displays() {
        assert_eq!(
            BuildRateSetError::Empty.to_string(),
            "refresh rate set must not be empty"
        );
    }
}
