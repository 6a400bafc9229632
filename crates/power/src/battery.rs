//! Battery-life projection.
//!
//! The paper reports savings in milliwatts; what a user feels is screen-on
//! time. This module converts average device power into projected battery
//! life for a given cell, so experiment reports can state savings in
//! "extra minutes of use".

use std::fmt;

use ccdem_simkit::time::SimDuration;

use crate::units::Milliwatts;

/// A battery described by its nominal capacity and voltage.
///
/// # Examples
///
/// ```
/// use ccdem_power::battery::Battery;
/// use ccdem_power::units::Milliwatts;
///
/// let cell = Battery::galaxy_s3();
/// let life = cell.life_at(Milliwatts::new(1_000.0));
/// // 2100 mAh · 3.8 V = 7.98 Wh → ~8 h at 1 W.
/// assert!((life.as_secs_f64() / 3600.0 - 7.98).abs() < 0.01);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Battery {
    capacity_mah: f64,
    nominal_voltage: f64,
}

impl Battery {
    /// Creates a battery.
    ///
    /// # Panics
    ///
    /// Panics if capacity or voltage is not positive.
    pub fn new(capacity_mah: f64, nominal_voltage: f64) -> Battery {
        assert!(capacity_mah > 0.0, "capacity must be positive");
        assert!(nominal_voltage > 0.0, "voltage must be positive");
        Battery {
            capacity_mah,
            nominal_voltage,
        }
    }

    /// The Galaxy S3's 2100 mAh, 3.8 V cell.
    pub fn galaxy_s3() -> Battery {
        Battery::new(2_100.0, 3.8)
    }

    /// Capacity in milliamp-hours.
    pub fn capacity_mah(&self) -> f64 {
        self.capacity_mah
    }

    /// Nominal voltage in volts.
    pub fn nominal_voltage(&self) -> f64 {
        self.nominal_voltage
    }

    /// Total stored energy in milliwatt-hours.
    pub fn energy_mwh(&self) -> f64 {
        self.capacity_mah * self.nominal_voltage
    }

    /// Screen-on time at a constant average draw.
    ///
    /// # Panics
    ///
    /// Panics if `power` is not positive.
    pub fn life_at(&self, power: Milliwatts) -> SimDuration {
        assert!(power.value() > 0.0, "power draw must be positive");
        let hours = self.energy_mwh() / power.value();
        SimDuration::from_secs_f64(hours * 3_600.0)
    }

    /// Extra screen-on time gained by lowering the draw from `before` to
    /// `after`. Returns zero if `after` is not lower.
    pub fn life_gained(&self, before: Milliwatts, after: Milliwatts) -> SimDuration {
        if after >= before {
            return SimDuration::ZERO;
        }
        self.life_at(after) - self.life_at(before)
    }
}

impl fmt::Display for Battery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.0} mAh @ {:.1} V ({:.2} Wh)",
            self.capacity_mah,
            self.nominal_voltage,
            self.energy_mwh() / 1_000.0
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn life_inverse_to_power() {
        let b = Battery::galaxy_s3();
        let slow = b.life_at(Milliwatts::new(500.0));
        let fast = b.life_at(Milliwatts::new(1_000.0));
        assert!((slow.as_secs_f64() / fast.as_secs_f64() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn life_gained_zero_when_power_rises() {
        let b = Battery::galaxy_s3();
        assert_eq!(
            b.life_gained(Milliwatts::new(800.0), Milliwatts::new(900.0)),
            SimDuration::ZERO
        );
    }

    #[test]
    fn typical_saving_gains_tens_of_minutes() {
        // A 1.39 W game governed to 1.14 W on the S3 cell.
        let b = Battery::galaxy_s3();
        let gained = b.life_gained(Milliwatts::new(1_390.0), Milliwatts::new(1_140.0));
        let minutes = gained.as_secs_f64() / 60.0;
        assert!(
            (60.0..100.0).contains(&minutes),
            "gained {minutes:.0} minutes"
        );
    }

    #[test]
    fn display_shows_watt_hours() {
        assert_eq!(
            Battery::galaxy_s3().to_string(),
            "2100 mAh @ 3.8 V (7.98 Wh)"
        );
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = Battery::new(0.0, 3.8);
    }

    #[test]
    #[should_panic(expected = "power draw must be positive")]
    fn zero_power_life_rejected() {
        let _ = Battery::galaxy_s3().life_at(Milliwatts::ZERO);
    }
}
