//! Input-to-photon latency.
//!
//! The paper evaluates touch boosting through dropped frames and display
//! quality; the metric a user *feels* is how long a touch takes to
//! change the glass. At 20 Hz a response waits up to 50 ms for the next
//! scanout before the rate ladder even starts climbing; boosting to
//! 60 Hz cuts that to ≤16.7 ms. These helpers compute that latency from
//! the touch timestamps and the panel's content-scanout timestamps.

use std::fmt;

use ccdem_simkit::stats::quantile;
use ccdem_simkit::time::{SimDuration, SimTime};

/// For each touch, the delay until the first *content-carrying* scanout
/// at or after it — the first photons that can reflect the input.
///
/// Touches with no subsequent content scanout (end of run) are omitted.
/// Both inputs must be sorted ascending (they are, when taken from a
/// script and an event counter).
///
/// # Examples
///
/// ```
/// use ccdem_metrics::latency::input_to_photon;
/// use ccdem_simkit::time::SimTime;
///
/// let touches = [SimTime::from_millis(100)];
/// let scanouts = [SimTime::from_millis(90), SimTime::from_millis(130)];
/// let lat = input_to_photon(&touches, &scanouts);
/// assert_eq!(lat.len(), 1);
/// assert_eq!(lat[0].as_micros(), 30_000);
/// ```
pub fn input_to_photon(touches: &[SimTime], scanouts: &[SimTime]) -> Vec<SimDuration> {
    let mut out = Vec::with_capacity(touches.len());
    let mut cursor = 0usize;
    for &touch in touches {
        while scanouts.get(cursor).is_some_and(|&s| s < touch) {
            cursor += 1;
        }
        if let Some(&scanout) = scanouts.get(cursor) {
            out.push(scanout - touch);
        }
    }
    out
}

/// Distribution summary of a set of latencies.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Mean latency in milliseconds.
    pub mean_ms: f64,
    /// Median latency in milliseconds.
    pub p50_ms: f64,
    /// 95th-percentile latency in milliseconds.
    pub p95_ms: f64,
    /// Worst observed latency in milliseconds.
    pub max_ms: f64,
    /// Number of measured touches.
    pub samples: usize,
}

impl LatencySummary {
    /// Summarizes a latency set. Returns the zero summary when empty.
    pub fn of(latencies: &[SimDuration]) -> LatencySummary {
        if latencies.is_empty() {
            return LatencySummary::default();
        }
        let ms: Vec<f64> = latencies
            .iter()
            .map(|d| d.as_secs_f64() * 1_000.0)
            .collect();
        LatencySummary {
            mean_ms: ms.iter().sum::<f64>() / ms.len() as f64,
            p50_ms: quantile(&ms, 0.5).unwrap_or(0.0),
            p95_ms: quantile(&ms, 0.95).unwrap_or(0.0),
            max_ms: ms.iter().fold(0.0f64, |a, &b| a.max(b)),
            samples: ms.len(),
        }
    }
}

impl fmt::Display for LatencySummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} ms mean, {:.1} ms p50, {:.1} ms p95, {:.1} ms max (n={})",
            self.mean_ms, self.p50_ms, self.p95_ms, self.max_ms, self.samples
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn pairs_each_touch_with_next_scanout() {
        let touches = [ms(10), ms(100), ms(200)];
        let scanouts = [ms(5), ms(40), ms(110), ms(205)];
        let lat = input_to_photon(&touches, &scanouts);
        assert_eq!(
            lat,
            vec![
                SimDuration::from_millis(30),
                SimDuration::from_millis(10),
                SimDuration::from_millis(5),
            ]
        );
    }

    #[test]
    fn touch_exactly_at_scanout_has_zero_latency() {
        let lat = input_to_photon(&[ms(50)], &[ms(50)]);
        assert_eq!(lat, vec![SimDuration::ZERO]);
    }

    #[test]
    fn trailing_touches_without_scanout_dropped() {
        let lat = input_to_photon(&[ms(10), ms(500)], &[ms(20)]);
        assert_eq!(lat.len(), 1);
    }

    #[test]
    fn empty_inputs_yield_empty_output() {
        assert!(input_to_photon(&[], &[ms(5)]).is_empty());
        assert!(input_to_photon(&[ms(5)], &[]).is_empty());
    }

    #[test]
    fn summary_statistics() {
        let lat: Vec<SimDuration> = [10u64, 20, 30, 40].map(SimDuration::from_millis).to_vec();
        let s = LatencySummary::of(&lat);
        assert_eq!(s.mean_ms, 25.0);
        assert_eq!(s.p50_ms, 25.0);
        assert_eq!(s.max_ms, 40.0);
        assert_eq!(s.samples, 4);
    }

    #[test]
    fn empty_summary_is_zero() {
        let s = LatencySummary::of(&[]);
        assert_eq!(s.samples, 0);
        assert_eq!(s.mean_ms, 0.0);
    }

    #[test]
    fn display_renders() {
        let s = LatencySummary::of(&[SimDuration::from_millis(16)]);
        assert!(s.to_string().contains("16.0 ms mean"));
    }
}
