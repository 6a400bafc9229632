//! Generalization beyond the Galaxy S3 (paper §3.2's closing note).
//!
//! The paper observes that the section thresholds "should be redefined
//! when the available refresh rates are changed" — Eq. 1 does so
//! mechanically from the rate list. This experiment runs a representative
//! app slice on three devices with different rate ladders and shows the
//! scheme transfers: savings and quality hold without per-device tuning.

use std::fmt;

use ccdem_core::governor::{GovernorConfig, Policy};
use ccdem_metrics::table::TextTable;
use ccdem_panel::device::DeviceProfile;
use ccdem_pixelbuf::geometry::Resolution;
use ccdem_simkit::parallel::ParallelRunner;
use ccdem_simkit::time::SimDuration;
use ccdem_workloads::catalog;

use crate::campaign::run_each;
use crate::scenario::{scaled_budget, Scenario, Workload};

/// Configuration for the generalization sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GeneralizeConfig {
    /// Per-(device, app) run length.
    pub duration: SimDuration,
    /// Root seed, shared by every (device, app) cell so behaviour differs
    /// only by device and app.
    pub seed: u64,
    /// Worker threads; `0` = all available cores, `1` = serial. Results
    /// are identical for every value.
    pub jobs: usize,
}

impl Default for GeneralizeConfig {
    fn default() -> Self {
        GeneralizeConfig {
            duration: SimDuration::from_secs(30),
            seed: 55,
            jobs: 0,
        }
    }
}

/// One (device, app) outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceRun {
    /// Device name.
    pub device: String,
    /// Application name.
    pub app: String,
    /// Maximum rate of the device's ladder. (Hz)
    pub max_hz: u32,
    /// Power saved vs the device's fixed-max baseline. (mW)
    pub saved_mw: f64,
    /// Saved as a fraction of baseline. [%]
    pub saved_pct: f64,
    /// Display quality. [%]
    pub quality_pct: f64,
    /// Time-weighted mean applied refresh rate. (Hz)
    pub avg_refresh_hz: f64,
}

/// The generalization data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Generalize {
    /// One row per (device, app).
    pub runs: Vec<DeviceRun>,
}

/// The app slice: one idle-ish app, one mid-rate game, one heavy game.
fn app_slice() -> Vec<ccdem_workloads::phased::AppSpec> {
    ["Facebook", "Everypong", "Asphalt 8"]
        .iter()
        .filter_map(|n| catalog::by_name(n))
        .collect()
}

/// The three evaluated devices.
pub fn devices() -> Vec<DeviceProfile> {
    vec![
        DeviceProfile::galaxy_s3(),
        DeviceProfile::ltpo_120(),
        DeviceProfile::tablet_90(),
    ]
}

/// Runs the sweep. Devices run at quarter-of-their-native resolution to
/// keep the pixel work bounded; temporal behaviour is unchanged.
pub fn run(config: &GeneralizeConfig) -> Generalize {
    let cells: Vec<(DeviceProfile, ccdem_workloads::phased::AppSpec)> = devices()
        .into_iter()
        .flat_map(|device| {
            app_slice()
                .into_iter()
                .map(move |spec| (device.clone(), spec))
        })
        .collect();
    let runs = run_each(
        &ParallelRunner::new(config.jobs),
        &cells,
        |scratch, (device, spec)| {
            let native = device.resolution();
            let quarter = Resolution::new((native.width / 4).max(32), (native.height / 4).max(32));
            let mut scenario = Scenario::new(Workload::App(spec.clone()), Policy::SectionWithBoost)
                .with_duration(config.duration)
                .with_seed(config.seed);
            scenario.device = device.clone().with_resolution(quarter);
            scenario.governor = GovernorConfig::new(Policy::SectionWithBoost)
                .with_grid_budget(scaled_budget(quarter, 9_216));
            let (governed, baseline) = scenario.run_with_baseline_scratch(scratch);
            DeviceRun {
                device: device.name().to_string(),
                app: spec.name.clone(),
                max_hz: device.rates().max().hz(),
                saved_mw: baseline.avg_power_mw - governed.avg_power_mw,
                saved_pct: (baseline.avg_power_mw - governed.avg_power_mw) / baseline.avg_power_mw
                    * 100.0,
                quality_pct: governed.quality_pct(),
                avg_refresh_hz: governed.avg_refresh_hz,
            }
        },
    );
    Generalize { runs }
}

impl Generalize {
    /// Rows for one device.
    pub fn device(&self, name: &str) -> Vec<&DeviceRun> {
        self.runs.iter().filter(|r| r.device == name).collect()
    }
}

impl fmt::Display for Generalize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Generalization: section table + boost across rate ladders"
        )?;
        let mut t = TextTable::new([
            "device",
            "app",
            "avg refresh (Hz)",
            "saved (mW)",
            "saved (%)",
            "quality (%)",
        ]);
        for r in &self.runs {
            t.row([
                r.device.clone(),
                r.app.clone(),
                format!("{:.1} / {}", r.avg_refresh_hz, r.max_hz),
                format!("{:.0}", r.saved_mw),
                format!("{:.1}", r.saved_pct),
                format!("{:.1}", r.quality_pct),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Generalize {
        run(&GeneralizeConfig {
            duration: SimDuration::from_secs(10),
            seed: 56,
            jobs: 0,
        })
    }

    #[test]
    fn covers_three_devices_by_three_apps() {
        let g = quick();
        assert_eq!(g.runs.len(), 9);
        assert_eq!(g.device("Galaxy S3 LTE (SHV-E210S)").len(), 3);
    }

    #[test]
    fn every_device_saves_on_the_idle_app() {
        // Facebook (mostly idle) must save on every ladder.
        let g = quick();
        for r in g.runs.iter().filter(|r| r.app == "Facebook") {
            assert!(
                r.saved_mw > 0.0,
                "{}: Facebook saved {:.0} mW",
                r.device,
                r.saved_mw
            );
        }
    }

    #[test]
    fn quality_holds_on_every_ladder() {
        let g = quick();
        for r in &g.runs {
            assert!(
                r.quality_pct > 90.0,
                "{} / {}: quality {:.1}%",
                r.device,
                r.app,
                r.quality_pct
            );
        }
    }

    #[test]
    fn heavy_game_pins_near_device_maximum() {
        // Asphalt 8 (~45 fps content) exceeds every S3 threshold but
        // sits comfortably inside the LTPO/tablet ladders: on the S3 it
        // must run at the 60 Hz ceiling, on wider ladders below their
        // maxima.
        let g = quick();
        let s3 = g
            .runs
            .iter()
            .find(|r| r.app == "Asphalt 8" && r.device.contains("S3"))
            .unwrap();
        assert!(
            s3.avg_refresh_hz > 55.0,
            "S3 ran Asphalt 8 at {:.1} Hz",
            s3.avg_refresh_hz
        );
        let ltpo = g
            .runs
            .iter()
            .find(|r| r.app == "Asphalt 8" && r.device.contains("LTPO"))
            .unwrap();
        assert!(
            ltpo.avg_refresh_hz < f64::from(ltpo.max_hz) - 10.0,
            "LTPO pinned its {}-Hz ceiling ({:.1} Hz) for a 45-fps game",
            ltpo.max_hz,
            ltpo.avg_refresh_hz
        );
    }

    #[test]
    fn report_renders_all_rows() {
        let g = quick();
        let s = g.to_string();
        assert_eq!(s.matches("Facebook").count(), 3);
        assert!(s.contains("LTPO"));
    }
}
