//! Content-rate smoothing (extension beyond the paper).
//!
//! The paper feeds the raw windowed content rate straight into the
//! section table. That makes the controller react within one window, but
//! it also means a single noisy window (a burst of coalesced frames, a
//! one-off animation) can flip the refresh rate. An exponentially
//! weighted moving average (EWMA) trades a little reaction latency for
//! stability; the smoothing ablation (`paper_report ablations`)
//! quantifies the trade.

use crate::content_rate::ContentRate;

/// An exponentially weighted moving average over content-rate samples.
///
/// `alpha` is the weight of the newest sample: `1.0` reproduces the
/// paper's unsmoothed behaviour, smaller values smooth harder.
///
/// # Examples
///
/// ```
/// use ccdem_core::content_rate::ContentRate;
/// use ccdem_core::smoothing::EwmaFilter;
///
/// let mut f = EwmaFilter::new(0.5);
/// f.update(ContentRate::from_fps(10.0));
/// f.update(ContentRate::from_fps(30.0));
/// assert_eq!(f.value().fps(), 20.0); // 0.5·30 + 0.5·10
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EwmaFilter {
    alpha: f64,
    value: Option<f64>,
}

impl EwmaFilter {
    /// Creates a filter with the given newest-sample weight.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is not within `(0, 1]`.
    pub fn new(alpha: f64) -> EwmaFilter {
        assert!(
            alpha > 0.0 && alpha <= 1.0,
            "alpha must be in (0, 1], got {alpha}"
        );
        EwmaFilter { alpha, value: None }
    }

    /// A pass-through filter (`alpha = 1`): the paper's behaviour.
    pub fn passthrough() -> EwmaFilter {
        EwmaFilter::new(1.0)
    }

    /// The smoothing weight.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Folds in a new sample and returns the smoothed value.
    pub fn update(&mut self, sample: ContentRate) -> ContentRate {
        let v = match self.value {
            // Seed with the first sample rather than decaying up from 0,
            // so startup behaviour matches the unsmoothed controller.
            None => sample.fps(),
            Some(prev) => self.alpha * sample.fps() + (1.0 - self.alpha) * prev,
        };
        self.value = Some(v);
        ContentRate::from_fps(v)
    }

    /// The current smoothed value (zero before any sample).
    pub fn value(&self) -> ContentRate {
        ContentRate::from_fps(self.value.unwrap_or(0.0))
    }

    /// Forgets all history.
    pub fn reset(&mut self) {
        self.value = None;
    }
}

impl Default for EwmaFilter {
    fn default() -> Self {
        EwmaFilter::passthrough()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn passthrough_returns_latest() {
        let mut f = EwmaFilter::passthrough();
        for fps in [5.0, 42.0, 13.5] {
            let out = f.update(ContentRate::from_fps(fps));
            assert_eq!(out.fps(), fps);
        }
    }

    #[test]
    fn first_sample_seeds_filter() {
        let mut f = EwmaFilter::new(0.1);
        let out = f.update(ContentRate::from_fps(40.0));
        assert_eq!(out.fps(), 40.0);
    }

    #[test]
    fn smoothing_lags_step_input() {
        let mut f = EwmaFilter::new(0.25);
        f.update(ContentRate::from_fps(0.0));
        let mut last = 0.0;
        for _ in 0..5 {
            last = f.update(ContentRate::from_fps(60.0)).fps();
        }
        assert!(last > 30.0 && last < 60.0, "after 5 steps: {last}");
    }

    #[test]
    fn converges_to_constant_input() {
        let mut f = EwmaFilter::new(0.3);
        for _ in 0..100 {
            f.update(ContentRate::from_fps(24.0));
        }
        assert!((f.value().fps() - 24.0).abs() < 1e-9);
    }

    #[test]
    fn reset_forgets_history() {
        let mut f = EwmaFilter::new(0.5);
        f.update(ContentRate::from_fps(60.0));
        f.reset();
        assert_eq!(f.value().fps(), 0.0);
        assert_eq!(f.update(ContentRate::from_fps(10.0)).fps(), 10.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn zero_alpha_rejected() {
        let _ = EwmaFilter::new(0.0);
    }

    #[test]
    #[should_panic(expected = "alpha must be in (0, 1]")]
    fn alpha_above_one_rejected() {
        let _ = EwmaFilter::new(1.5);
    }
}
