//! Section-based refresh-rate selection (paper §3.2, Eq. 1).
//!
//! A naive controller would pick the smallest refresh rate at or above the
//! measured content rate. The paper rejects that rule: V-Sync clips the
//! measurable content rate at the refresh rate, so once the panel runs at
//! 20 Hz the meter can never read more than 20 fps and the controller
//! could never climb back up. (That rejected rule is kept here as
//! [`NaiveRateMapper`] for the mapping-rule ablation.)
//!
//! Instead, the *section table* splits the content-rate axis at the median
//! between adjacent refresh rates (with a virtual 0 Hz rate below the
//! floor). A content rate in the section `(θ_{i-1}, θ_i]`, where
//! `θ_i = (r_{i-1} + r_i) / 2`, selects rate `r_i` — which is always
//! strictly above the section's content rates, leaving headroom for the
//! meter to observe a rise and climb to the next section.
//!
//! For the Galaxy S3 ladder {20, 24, 30, 40, 60} Hz this reproduces the
//! paper's Fig. 5 table, one `(lower fps, upper fps, refresh rate)` row
//! per section:
//!
//! ```
//! use ccdem_core::section::SectionTable;
//! use ccdem_panel::refresh::{RefreshRate, RefreshRateSet};
//!
//! let fig5 = vec![
//!     (0.0, 10.0, RefreshRate::HZ_20),
//!     (10.0, 22.0, RefreshRate::HZ_24),
//!     (22.0, 27.0, RefreshRate::HZ_30),
//!     (27.0, 35.0, RefreshRate::HZ_40),
//!     (35.0, 60.0, RefreshRate::HZ_60),
//! ];
//! assert_eq!(SectionTable::new(RefreshRateSet::galaxy_s3()).sections(), fig5);
//! ```

use std::fmt;

use ccdem_panel::refresh::{RefreshRate, RefreshRateSet};

use crate::content_rate::ContentRate;

/// Maps a measured content rate to a refresh rate.
///
/// Implemented by the paper's [`SectionTable`] and the rejected
/// [`NaiveRateMapper`] baseline.
pub trait RateMapper {
    /// The refresh rate to apply for a measured content rate.
    fn rate_for(&self, content_rate: ContentRate) -> RefreshRate;

    /// The rate set the mapper selects from.
    fn rates(&self) -> &RefreshRateSet;
}

/// The paper's predefined section table (Eq. 1).
///
/// # Examples
///
/// ```
/// use ccdem_core::content_rate::ContentRate;
/// use ccdem_core::section::{RateMapper, SectionTable};
/// use ccdem_panel::refresh::{RefreshRate, RefreshRateSet};
///
/// let table = SectionTable::new(RefreshRateSet::galaxy_s3());
/// assert_eq!(table.rate_for(ContentRate::from_fps(8.0)), RefreshRate::HZ_20);
/// assert_eq!(table.rate_for(ContentRate::from_fps(33.0)), RefreshRate::HZ_40);
/// assert_eq!(table.rate_for(ContentRate::from_fps(55.0)), RefreshRate::HZ_60);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SectionTable {
    rates: RefreshRateSet,
    /// `thresholds[i]` is the inclusive upper content-rate bound of the
    /// section mapped to `rates.as_slice()[i]`.
    thresholds: Vec<f64>,
}

impl SectionTable {
    /// Builds the section table for a rate set, placing each threshold at
    /// the median between adjacent refresh rates (Eq. 1), with a virtual
    /// 0 Hz rate below the panel floor.
    pub fn new(rates: RefreshRateSet) -> SectionTable {
        let slice = rates.as_slice();
        let mut thresholds = Vec::with_capacity(slice.len());
        let mut prev_hz = 0.0;
        for r in slice {
            // ccdem-lint: allow(arith-cast) — f64 midpoint of two panel
            // rates (Eq. 1); not integer fixed-point math.
            thresholds.push((prev_hz + r.hz_f64()) / 2.0);
            prev_hz = r.hz_f64();
        }
        SectionTable { rates, thresholds }
    }

    /// The section thresholds, ascending, one per rate: `thresholds()[i]`
    /// is the largest content rate mapped to `rates().as_slice()[i]`.
    pub fn thresholds(&self) -> &[f64] {
        &self.thresholds
    }

    /// The `(lower, upper, rate)` sections, for display and tests. The
    /// last section's upper bound is the maximum rate itself (content
    /// rates cannot exceed it under V-Sync).
    pub fn sections(&self) -> Vec<(f64, f64, RefreshRate)> {
        let slice = self.rates.as_slice();
        let mut out = Vec::with_capacity(slice.len());
        let mut lower = 0.0;
        for (i, (&r, &theta)) in slice.iter().zip(&self.thresholds).enumerate() {
            let upper = if i + 1 < slice.len() {
                theta
            } else {
                r.hz_f64()
            };
            out.push((lower, upper, r));
            lower = upper;
        }
        out
    }
}

impl RateMapper for SectionTable {
    fn rate_for(&self, content_rate: ContentRate) -> RefreshRate {
        let cr = content_rate.fps();
        for (&r, &theta) in self.rates.as_slice().iter().zip(&self.thresholds) {
            if cr <= theta {
                return r;
            }
        }
        self.rates.max()
    }

    fn rates(&self) -> &RefreshRateSet {
        &self.rates
    }
}

impl fmt::Display for SectionTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (lo, hi, rate)) in self.sections().into_iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{lo:>5.1} – {hi:>5.1} fps  →  {rate}")?;
        }
        Ok(())
    }
}

/// The paper's rejected "initial attempt": pick the smallest supported
/// rate at or above the content rate. Kept for ablation — under V-Sync it
/// gets stuck at low rates because the measured content rate can never
/// exceed the applied refresh rate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NaiveRateMapper {
    rates: RefreshRateSet,
}

impl NaiveRateMapper {
    /// Creates the naive mapper over a rate set.
    pub fn new(rates: RefreshRateSet) -> NaiveRateMapper {
        NaiveRateMapper { rates }
    }
}

impl RateMapper for NaiveRateMapper {
    fn rate_for(&self, content_rate: ContentRate) -> RefreshRate {
        self.rates.at_least(content_rate.fps())
    }

    fn rates(&self) -> &RefreshRateSet {
        &self.rates
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> SectionTable {
        SectionTable::new(RefreshRateSet::galaxy_s3())
    }

    #[test]
    fn thresholds_match_paper_fig5() {
        assert_eq!(table().thresholds(), &[10.0, 22.0, 27.0, 35.0, 50.0]);
    }

    #[test]
    fn boundary_values_map_inclusively() {
        let t = table();
        assert_eq!(t.rate_for(ContentRate::from_fps(10.0)), RefreshRate::HZ_20);
        assert_eq!(t.rate_for(ContentRate::from_fps(10.1)), RefreshRate::HZ_24);
        assert_eq!(t.rate_for(ContentRate::from_fps(22.0)), RefreshRate::HZ_24);
        assert_eq!(t.rate_for(ContentRate::from_fps(35.0)), RefreshRate::HZ_40);
        assert_eq!(t.rate_for(ContentRate::from_fps(35.1)), RefreshRate::HZ_60);
    }

    #[test]
    fn zero_content_maps_to_floor() {
        assert_eq!(table().rate_for(ContentRate::ZERO), RefreshRate::HZ_20);
    }

    #[test]
    fn above_max_maps_to_max() {
        assert_eq!(
            table().rate_for(ContentRate::from_fps(120.0)),
            RefreshRate::HZ_60
        );
    }

    #[test]
    fn selected_rate_always_exceeds_in_section_content_rate() {
        // The headroom invariant that motivates Eq. 1: for any content
        // rate below the top section, the selected rate is strictly
        // higher than the content rate.
        let t = table();
        let mut cr = 0.0;
        while cr < 49.9 {
            let rate = t.rate_for(ContentRate::from_fps(cr));
            assert!(
                rate.hz_f64() > cr,
                "rate {rate} not above content rate {cr}"
            );
            cr += 0.25;
        }
    }

    #[test]
    fn naive_mapper_matches_ceiling() {
        let n = NaiveRateMapper::new(RefreshRateSet::galaxy_s3());
        assert_eq!(n.rate_for(ContentRate::from_fps(20.0)), RefreshRate::HZ_20);
        assert_eq!(n.rate_for(ContentRate::from_fps(20.5)), RefreshRate::HZ_24);
        assert_eq!(n.rate_for(ContentRate::from_fps(61.0)), RefreshRate::HZ_60);
    }

    #[test]
    fn naive_mapper_lacks_headroom_at_exact_rates() {
        // At a content rate exactly equal to a supported rate, the naive
        // rule leaves zero headroom — the flaw the section table fixes.
        let n = NaiveRateMapper::new(RefreshRateSet::galaxy_s3());
        let picked = n.rate_for(ContentRate::from_fps(20.0));
        assert_eq!(picked.hz_f64(), 20.0);
        let t = table();
        assert!(t.rate_for(ContentRate::from_fps(20.0)).hz_f64() > 20.0);
    }

    #[test]
    fn single_rate_ladder_degenerates_gracefully() {
        let t = SectionTable::new(RefreshRateSet::fixed(RefreshRate::HZ_60));
        assert_eq!(t.rate_for(ContentRate::ZERO), RefreshRate::HZ_60);
        assert_eq!(t.rate_for(ContentRate::from_fps(59.0)), RefreshRate::HZ_60);
    }

    #[test]
    fn ltpo_ladder_thresholds() {
        use ccdem_panel::device::DeviceProfile;
        let t = SectionTable::new(DeviceProfile::ltpo_120().rates().clone());
        // {10,24,30,60,90,120}: thresholds 5, 17, 27, 45, 75, 105.
        assert_eq!(t.thresholds(), &[5.0, 17.0, 27.0, 45.0, 75.0, 105.0]);
    }

    #[test]
    fn display_renders_all_sections() {
        let s = table().to_string();
        assert_eq!(s.lines().count(), 5);
        assert!(s.contains("60 Hz"));
    }
}
