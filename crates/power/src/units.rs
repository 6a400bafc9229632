//! Power and energy units.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

use ccdem_simkit::time::SimDuration;

/// Instantaneous power in milliwatts.
///
/// # Examples
///
/// ```
/// use ccdem_power::units::Milliwatts;
///
/// let p = Milliwatts::new(150.0) + Milliwatts::new(50.0);
/// assert_eq!(p.value(), 200.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Milliwatts(f64);

impl Milliwatts {
    /// Zero power.
    pub const ZERO: Milliwatts = Milliwatts(0.0);

    /// Creates a power value.
    ///
    /// # Panics
    ///
    /// Panics if `mw` is not finite.
    pub fn new(mw: f64) -> Milliwatts {
        assert!(mw.is_finite(), "power must be finite, got {mw}");
        Milliwatts(mw)
    }

    /// The value in milliwatts.
    pub fn value(self) -> f64 {
        self.0
    }

    /// Energy dissipated by holding this power for `duration`.
    pub fn for_duration(self, duration: SimDuration) -> Millijoules {
        Millijoules(self.0 * duration.as_secs_f64())
    }
}

impl Add for Milliwatts {
    type Output = Milliwatts;
    fn add(self, rhs: Milliwatts) -> Milliwatts {
        Milliwatts(self.0 + rhs.0)
    }
}

impl AddAssign for Milliwatts {
    fn add_assign(&mut self, rhs: Milliwatts) {
        self.0 += rhs.0;
    }
}

impl Sub for Milliwatts {
    type Output = Milliwatts;
    fn sub(self, rhs: Milliwatts) -> Milliwatts {
        Milliwatts(self.0 - rhs.0)
    }
}

impl Mul<f64> for Milliwatts {
    type Output = Milliwatts;
    fn mul(self, rhs: f64) -> Milliwatts {
        Milliwatts(self.0 * rhs)
    }
}

impl Div<f64> for Milliwatts {
    type Output = Milliwatts;
    fn div(self, rhs: f64) -> Milliwatts {
        Milliwatts(self.0 / rhs)
    }
}

impl Sum for Milliwatts {
    fn sum<I: Iterator<Item = Milliwatts>>(iter: I) -> Milliwatts {
        iter.fold(Milliwatts::ZERO, Add::add)
    }
}

impl fmt::Display for Milliwatts {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mW", self.0)
    }
}

/// Accumulated energy in millijoules.
#[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
pub struct Millijoules(f64);

impl Millijoules {
    /// Zero energy.
    pub const ZERO: Millijoules = Millijoules(0.0);

    /// Creates an energy value.
    ///
    /// # Panics
    ///
    /// Panics if `mj` is not finite.
    pub fn new(mj: f64) -> Millijoules {
        assert!(mj.is_finite(), "energy must be finite, got {mj}");
        Millijoules(mj)
    }

    /// The value in millijoules.
    pub fn value(self) -> f64 {
        self.0
    }
}

impl Add for Millijoules {
    type Output = Millijoules;
    fn add(self, rhs: Millijoules) -> Millijoules {
        Millijoules(self.0 + rhs.0)
    }
}

impl AddAssign for Millijoules {
    fn add_assign(&mut self, rhs: Millijoules) {
        self.0 += rhs.0;
    }
}

impl Sub for Millijoules {
    type Output = Millijoules;
    fn sub(self, rhs: Millijoules) -> Millijoules {
        Millijoules(self.0 - rhs.0)
    }
}

impl Sum for Millijoules {
    fn sum<I: Iterator<Item = Millijoules>>(iter: I) -> Millijoules {
        iter.fold(Millijoules::ZERO, Add::add)
    }
}

impl fmt::Display for Millijoules {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.1} mJ", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_times_time_is_energy() {
        let e = Milliwatts::new(100.0).for_duration(SimDuration::from_secs(2));
        assert_eq!(e, Millijoules::new(200.0));
    }

    #[test]
    fn arithmetic_and_sum() {
        let total: Milliwatts = [10.0, 20.0, 30.0].map(Milliwatts::new).into_iter().sum();
        assert_eq!(total.value(), 60.0);
        assert_eq!((total * 2.0).value(), 120.0);
        assert_eq!((total / 3.0).value(), 20.0);
        assert_eq!((total - Milliwatts::new(10.0)).value(), 50.0);
    }

    #[test]
    #[should_panic(expected = "must be finite")]
    fn non_finite_power_rejected() {
        let _ = Milliwatts::new(f64::NAN);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Milliwatts::new(123.45).to_string(), "123.5 mW");
        assert_eq!(Millijoules::new(7.0).to_string(), "7.0 mJ");
    }
}
