//! Device profiles: the display-facing description of a phone.

use std::fmt;

use ccdem_pixelbuf::geometry::Resolution;
use ccdem_simkit::time::SimDuration;

use crate::refresh::{RefreshRate, RefreshRateSet};

/// The panel technology, which determines how static panel power depends
/// on content (relevant for the OLED power extension).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum PanelKind {
    /// Backlit LCD: static power independent of content.
    Lcd,
    /// OLED: static power scales with emitted luminance.
    #[default]
    Oled,
}

impl fmt::Display for PanelKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PanelKind::Lcd => write!(f, "LCD"),
            PanelKind::Oled => write!(f, "OLED"),
        }
    }
}

/// A mobile device's display subsystem description.
///
/// # Examples
///
/// ```
/// use ccdem_panel::device::DeviceProfile;
///
/// let s3 = DeviceProfile::galaxy_s3();
/// assert_eq!(s3.rates().len(), 5);
/// assert_eq!(s3.resolution().pixel_count(), 921_600);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceProfile {
    name: String,
    resolution: Resolution,
    rates: RefreshRateSet,
    panel_kind: PanelKind,
    rate_switch_latency: SimDuration,
}

impl DeviceProfile {
    /// Creates a profile.
    pub fn new(
        name: impl Into<String>,
        resolution: Resolution,
        rates: RefreshRateSet,
        panel_kind: PanelKind,
        rate_switch_latency: SimDuration,
    ) -> DeviceProfile {
        DeviceProfile {
            name: name.into(),
            resolution,
            rates,
            panel_kind,
            rate_switch_latency,
        }
    }

    /// The paper's test device: Samsung Galaxy S3 LTE (SHV-E210S),
    /// 720×1280 Super AMOLED, refresh rates {20, 24, 30, 40, 60} Hz after
    /// the kernel modification, with a one-frame-ish rate-switch latency.
    pub fn galaxy_s3() -> DeviceProfile {
        DeviceProfile::new(
            "Galaxy S3 LTE (SHV-E210S)",
            Resolution::GALAXY_S3,
            RefreshRateSet::galaxy_s3(),
            PanelKind::Oled,
            SimDuration::from_millis(16),
        )
    }

    /// A stock (unmodified) Galaxy S3: fixed 60 Hz. This is the paper's
    /// baseline configuration.
    pub fn galaxy_s3_stock() -> DeviceProfile {
        DeviceProfile::new(
            "Galaxy S3 LTE (stock, fixed 60 Hz)",
            Resolution::GALAXY_S3,
            RefreshRateSet::fixed(RefreshRate::HZ_60),
            PanelKind::Oled,
            SimDuration::from_millis(16),
        )
    }

    /// A hypothetical LTPO-style panel with a wide ladder
    /// {10, 24, 30, 60, 90, 120} Hz, used by the generalization
    /// experiments ("thresholds should be redefined when the available
    /// refresh rates are changed", paper §3.2).
    pub fn ltpo_120() -> DeviceProfile {
        DeviceProfile::new(
            "LTPO 120 Hz concept",
            Resolution::new(1080, 2400),
            RefreshRateSet::new([10u32, 24, 30, 60, 90, 120].map(RefreshRate::new))
                .unwrap_or_else(|_| RefreshRateSet::fixed(RefreshRate::HZ_60)),
            PanelKind::Oled,
            SimDuration::from_millis(8),
        )
    }

    /// A mid-range LCD tablet with {30, 60, 90} Hz.
    pub fn tablet_90() -> DeviceProfile {
        DeviceProfile::new(
            "90 Hz LCD tablet",
            Resolution::new(1200, 2000),
            RefreshRateSet::new([30u32, 60, 90].map(RefreshRate::new))
                .unwrap_or_else(|_| RefreshRateSet::fixed(RefreshRate::HZ_60)),
            PanelKind::Lcd,
            SimDuration::from_millis(16),
        )
    }

    /// Human-readable device name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Native panel resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Supported refresh rates.
    pub fn rates(&self) -> &RefreshRateSet {
        &self.rates
    }

    /// Panel technology.
    pub fn panel_kind(&self) -> PanelKind {
        self.panel_kind
    }

    /// Latency between requesting a refresh-rate change and the panel
    /// applying it (the kernel/driver handshake).
    pub fn rate_switch_latency(&self) -> SimDuration {
        self.rate_switch_latency
    }

    /// Returns a copy of this profile with a reduced resolution, keeping
    /// everything else. Used by tests and long sweeps to cut pixel work
    /// without changing temporal behaviour.
    pub fn with_resolution(&self, resolution: Resolution) -> DeviceProfile {
        DeviceProfile {
            resolution,
            ..self.clone()
        }
    }
}

impl fmt::Display for DeviceProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} ({}, {}, {})",
            self.name, self.resolution, self.panel_kind, self.rates
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn galaxy_s3_matches_paper() {
        let d = DeviceProfile::galaxy_s3();
        assert_eq!(d.rates().min(), RefreshRate::HZ_20);
        assert_eq!(d.rates().max(), RefreshRate::HZ_60);
        assert_eq!(d.resolution(), Resolution::GALAXY_S3);
        assert_eq!(d.panel_kind(), PanelKind::Oled);
    }

    #[test]
    fn stock_profile_is_fixed_60() {
        let d = DeviceProfile::galaxy_s3_stock();
        assert!(d.rates().is_singleton());
        assert_eq!(d.rates().max(), RefreshRate::HZ_60);
    }

    #[test]
    fn alternative_profiles_have_wider_ladders() {
        assert_eq!(DeviceProfile::ltpo_120().rates().max().hz(), 120);
        assert_eq!(DeviceProfile::tablet_90().rates().len(), 3);
        assert_eq!(DeviceProfile::tablet_90().panel_kind(), PanelKind::Lcd);
    }

    #[test]
    fn with_resolution_keeps_rates() {
        let d = DeviceProfile::galaxy_s3().with_resolution(Resolution::QUARTER);
        assert_eq!(d.resolution(), Resolution::QUARTER);
        assert_eq!(d.rates(), DeviceProfile::galaxy_s3().rates());
    }

    #[test]
    fn display_mentions_panel_kind() {
        let s = DeviceProfile::galaxy_s3().to_string();
        assert!(s.contains("OLED"));
        assert!(s.contains("720x1280"));
    }
}
