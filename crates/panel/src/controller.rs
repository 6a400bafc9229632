//! Runtime refresh-rate switching (the paper's "kernel modification to
//! enable refresh rate control at runtime", §4).

use std::fmt;

use ccdem_obs::Obs;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_simkit::trace::Trace;

use crate::refresh::{RefreshRate, RefreshRateSet};

/// Error returned when a rate change request is invalid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SetRateError {
    /// The requested rate is not in the panel's supported set.
    Unsupported {
        /// The rejected rate.
        requested: RefreshRate,
    },
}

impl fmt::Display for SetRateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SetRateError::Unsupported { requested } => {
                write!(f, "refresh rate {requested} is not supported by the panel")
            }
        }
    }
}

impl std::error::Error for SetRateError {}

/// The kernel-side refresh-rate controller: accepts rate-change requests,
/// applies them after the driver's switch latency, and records the applied
/// rate over time.
///
/// # Examples
///
/// ```
/// use ccdem_panel::controller::RefreshController;
/// use ccdem_panel::refresh::{RefreshRate, RefreshRateSet};
/// use ccdem_simkit::time::{SimDuration, SimTime};
///
/// let mut ctl = RefreshController::new(
///     RefreshRateSet::galaxy_s3(),
///     RefreshRate::HZ_60,
///     SimDuration::from_millis(16),
/// );
/// ctl.request(RefreshRate::HZ_20, SimTime::ZERO)?;
/// assert_eq!(ctl.current(), RefreshRate::HZ_60); // not applied yet
/// ctl.poll(SimTime::from_millis(16));
/// assert_eq!(ctl.current(), RefreshRate::HZ_20);
/// # Ok::<(), ccdem_panel::controller::SetRateError>(())
/// ```
#[derive(Debug, Clone)]
pub struct RefreshController {
    supported: RefreshRateSet,
    current: RefreshRate,
    pending: Option<(SimTime, RefreshRate)>,
    latency: SimDuration,
    switches: u64,
    history: Trace,
    obs: Obs,
}

impl RefreshController {
    /// Creates a controller.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is not in `supported`.
    pub fn new(
        supported: RefreshRateSet,
        initial: RefreshRate,
        latency: SimDuration,
    ) -> RefreshController {
        assert!(
            supported.contains(initial),
            "initial rate {initial} not in supported set {supported}"
        );
        let mut history = Trace::new();
        history.push(SimTime::ZERO, initial.hz_f64());
        RefreshController {
            supported,
            current: initial,
            pending: None,
            latency,
            switches: 0,
            history,
            obs: Obs::disabled(),
        }
    }

    /// Routes rate-switch telemetry through `obs`. Switching behaviour is
    /// unaffected; telemetry flows strictly outward.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The rate currently applied at the panel.
    pub fn current(&self) -> RefreshRate {
        self.current
    }

    /// The supported rate set.
    pub fn supported(&self) -> &RefreshRateSet {
        &self.supported
    }

    /// Number of applied rate switches so far.
    pub fn switches(&self) -> u64 {
        self.switches
    }

    /// The applied-rate history as a sample-and-hold trace (Hz).
    pub fn history(&self) -> &Trace {
        &self.history
    }

    /// Requests a rate change at time `now`; it is applied at
    /// `now + latency`. Requesting the already-current (and not pending-
    /// away) rate is a no-op. A newer request supersedes a pending one.
    ///
    /// # Errors
    ///
    /// Returns [`SetRateError::Unsupported`] if the rate is not in the
    /// supported set; the controller state is unchanged.
    pub fn request(&mut self, rate: RefreshRate, now: SimTime) -> Result<(), SetRateError> {
        if !self.supported.contains(rate) {
            return Err(SetRateError::Unsupported { requested: rate });
        }
        if rate == self.current && self.pending.is_none() {
            return Ok(());
        }
        if let Some((_, pending_rate)) = self.pending {
            if pending_rate == rate {
                return Ok(()); // same change already in flight
            }
        }
        if rate == self.current {
            // Cancel a pending change back to the current rate.
            self.pending = None;
            return Ok(());
        }
        self.pending = Some((now + self.latency, rate));
        Ok(())
    }

    /// Applies any pending change whose apply-time has arrived. Returns
    /// the newly applied rate, if a switch happened at this poll.
    pub fn poll(&mut self, now: SimTime) -> Option<RefreshRate> {
        match self.pending {
            Some((at, rate)) if now >= at => {
                let from = self.current;
                self.pending = None;
                self.current = rate;
                self.switches += 1;
                self.history.push(now, rate.hz_f64());
                self.obs.emit("panel.rate_switch", now, |event| {
                    event.field("from_hz", from.hz()).field("to_hz", rate.hz());
                });
                Some(rate)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn controller() -> RefreshController {
        RefreshController::new(
            RefreshRateSet::galaxy_s3(),
            RefreshRate::HZ_60,
            SimDuration::from_millis(16),
        )
    }

    #[test]
    fn unsupported_rate_rejected() {
        let mut ctl = controller();
        let err = ctl
            .request(RefreshRate::new(55), SimTime::ZERO)
            .unwrap_err();
        assert!(matches!(err, SetRateError::Unsupported { .. }));
        assert_eq!(ctl.current(), RefreshRate::HZ_60);
    }

    #[test]
    fn change_applies_after_latency() {
        let mut ctl = controller();
        ctl.request(RefreshRate::HZ_30, SimTime::ZERO).unwrap();
        assert_eq!(ctl.poll(SimTime::from_millis(15)), None);
        assert_eq!(ctl.poll(SimTime::from_millis(16)), Some(RefreshRate::HZ_30));
        assert_eq!(ctl.current(), RefreshRate::HZ_30);
        assert_eq!(ctl.switches(), 1);
    }

    #[test]
    fn newer_request_supersedes_pending() {
        let mut ctl = controller();
        ctl.request(RefreshRate::HZ_20, SimTime::ZERO).unwrap();
        ctl.request(RefreshRate::HZ_40, SimTime::from_millis(5))
            .unwrap();
        assert_eq!(ctl.poll(SimTime::from_millis(30)), Some(RefreshRate::HZ_40));
        assert_eq!(ctl.switches(), 1);
    }

    #[test]
    fn requesting_current_rate_is_noop() {
        let mut ctl = controller();
        ctl.request(RefreshRate::HZ_60, SimTime::ZERO).unwrap();
        assert_eq!(ctl.poll(SimTime::from_secs(1)), None);
        assert_eq!(ctl.switches(), 0);
    }

    #[test]
    fn request_back_to_current_cancels_pending() {
        let mut ctl = controller();
        ctl.request(RefreshRate::HZ_20, SimTime::ZERO).unwrap();
        ctl.request(RefreshRate::HZ_60, SimTime::from_millis(1))
            .unwrap();
        assert_eq!(ctl.poll(SimTime::from_secs(1)), None);
        assert_eq!(ctl.current(), RefreshRate::HZ_60);
    }

    #[test]
    fn history_records_switches() {
        let mut ctl = controller();
        ctl.request(RefreshRate::HZ_24, SimTime::ZERO).unwrap();
        ctl.poll(SimTime::from_millis(16));
        assert_eq!(ctl.history().value_at(SimTime::from_millis(20)), Some(24.0));
        assert_eq!(ctl.history().value_at(SimTime::ZERO), Some(60.0));
    }

    #[test]
    #[should_panic(expected = "not in supported set")]
    fn initial_rate_must_be_supported() {
        let _ = RefreshController::new(
            RefreshRateSet::fixed(RefreshRate::HZ_60),
            RefreshRate::HZ_20,
            SimDuration::ZERO,
        );
    }
}
