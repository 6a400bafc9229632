//! The Monsoon-like power meter.
//!
//! The paper measures device power with a Monsoon Power Monitor (§4). The
//! simulated meter samples the power model at a fixed interval, adds
//! Gaussian measurement noise, and accumulates an energy integral and a
//! per-second power trace — enough to reproduce every power figure
//! (Figs. 8, 9 and Table 1).

use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_simkit::trace::Trace;

use crate::units::{Millijoules, Milliwatts};

/// Samples instantaneous power over a run and integrates energy.
///
/// # Examples
///
/// ```
/// use ccdem_power::meter::PowerMeter;
/// use ccdem_power::units::Milliwatts;
/// use ccdem_simkit::rng::SimRng;
/// use ccdem_simkit::time::{SimDuration, SimTime};
///
/// let mut meter = PowerMeter::noiseless(SimDuration::from_millis(100));
/// let mut rng = SimRng::seed_from_u64(1);
/// for i in 0..10u64 {
///     meter.sample(SimTime::from_millis(i * 100), Milliwatts::new(500.0), &mut rng);
/// }
/// let avg = meter.average_power(SimTime::ZERO, SimTime::from_secs(1));
/// assert!((avg.value() - 500.0).abs() < 1e-9);
/// ```
#[derive(Debug, Clone)]
pub struct PowerMeter {
    interval: SimDuration,
    noise_std_mw: f64,
    trace: Trace,
    energy: Millijoules,
    last_sample: Option<(SimTime, Milliwatts)>,
}

impl PowerMeter {
    /// Creates a meter sampling every `interval` with Gaussian noise of
    /// the given standard deviation (in mW) on each reading.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero or `noise_std_mw` is negative.
    pub fn new(interval: SimDuration, noise_std_mw: f64) -> PowerMeter {
        assert!(!interval.is_zero(), "sample interval must be non-zero");
        assert!(noise_std_mw >= 0.0, "noise must be non-negative");
        PowerMeter {
            interval,
            noise_std_mw,
            trace: Trace::new(),
            energy: Millijoules::ZERO,
            last_sample: None,
        }
    }

    /// A meter with no measurement noise.
    pub fn noiseless(interval: SimDuration) -> PowerMeter {
        PowerMeter::new(interval, 0.0)
    }

    /// The sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.interval
    }

    /// Records one reading of `true_power` at `now`, applying noise, and
    /// extends the energy integral from the previous sample
    /// (sample-and-hold).
    pub fn sample(&mut self, now: SimTime, true_power: Milliwatts, rng: &mut SimRng) {
        let measured = if self.noise_std_mw > 0.0 {
            Milliwatts::new(rng.normal(true_power.value(), self.noise_std_mw).max(0.0))
        } else {
            true_power
        };
        if let Some((prev_t, prev_p)) = self.last_sample {
            self.energy += prev_p.for_duration(now.saturating_since(prev_t));
        }
        self.trace.push(now, measured.value());
        self.last_sample = Some((now, measured));
    }

    /// The measured power trace (mW over time).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Total integrated energy up to the last sample.
    pub fn energy(&self) -> Millijoules {
        self.energy
    }

    /// Time-weighted average measured power over `[start, end)`.
    pub fn average_power(&self, start: SimTime, end: SimTime) -> Milliwatts {
        Milliwatts::new(self.trace.time_weighted_mean(start, end))
    }

    /// Per-second average power readings over `[0, duration)`.
    pub fn per_second(&self, duration: SimDuration) -> Vec<f64> {
        self.trace.per_second(duration)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_integrates_sample_and_hold() {
        let mut m = PowerMeter::noiseless(SimDuration::from_millis(500));
        let mut rng = SimRng::seed_from_u64(1);
        m.sample(SimTime::ZERO, Milliwatts::new(100.0), &mut rng);
        m.sample(SimTime::from_secs(1), Milliwatts::new(300.0), &mut rng);
        m.sample(SimTime::from_secs(2), Milliwatts::new(300.0), &mut rng);
        // 1 s at 100 mW + 1 s at 300 mW = 400 mJ.
        assert!((m.energy().value() - 400.0).abs() < 1e-9);
    }

    #[test]
    fn noise_is_zero_mean_ish() {
        let mut m = PowerMeter::new(SimDuration::from_millis(10), 20.0);
        let mut rng = SimRng::seed_from_u64(2);
        for i in 0..5_000u64 {
            m.sample(
                SimTime::from_millis(i * 10),
                Milliwatts::new(800.0),
                &mut rng,
            );
        }
        let avg = m.average_power(SimTime::ZERO, SimTime::from_secs(50));
        assert!((avg.value() - 800.0).abs() < 3.0, "avg {avg}");
    }

    #[test]
    fn noiseless_readings_exact() {
        let mut m = PowerMeter::noiseless(SimDuration::from_millis(100));
        let mut rng = SimRng::seed_from_u64(3);
        m.sample(SimTime::ZERO, Milliwatts::new(123.0), &mut rng);
        assert_eq!(m.trace().value_at(SimTime::ZERO), Some(123.0));
    }

    #[test]
    fn noise_never_reads_negative() {
        let mut m = PowerMeter::new(SimDuration::from_millis(10), 500.0);
        let mut rng = SimRng::seed_from_u64(4);
        for i in 0..1_000u64 {
            m.sample(
                SimTime::from_millis(i * 10),
                Milliwatts::new(10.0),
                &mut rng,
            );
        }
        assert!(m.trace().iter().all(|(_, v)| v >= 0.0));
    }

    #[test]
    #[should_panic(expected = "sample interval must be non-zero")]
    fn zero_interval_rejected() {
        let _ = PowerMeter::noiseless(SimDuration::ZERO);
    }
}
