//! Figure 6 — content-rate metering accuracy and cost vs sampled pixels.
//!
//! The paper evaluates the grid-based comparison at five pixel budgets on
//! the Galaxy S3's 921 600-pixel screen: 2K (36×64), 4K (48×85), 9K
//! (72×128), 36K (144×256) and all 921K pixels. Accuracy is stressed with
//! the Nexus Revamped live wallpaper (small moving dots); cost is the
//! wall-clock time of one comparison.
//!
//! Expected shape: error ≈ 0 at ≥9K pixels and noticeable at 2K/4K; cost
//! grows with pixel count, with the full comparison far beyond the
//! 16.67 ms frame budget of 60 Hz (on the paper's 2012-era phone — a
//! modern host absorbs the same scan in well under a millisecond, so the
//! *ratios* are the reproduction target).

use std::fmt;
use std::time::Duration;

use ccdem_core::meter::{measure_metering_cost, ContentRateMeter};
use ccdem_metrics::table::TextTable;
use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::geometry::Resolution;
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_simkit::rng::SimRng;
use ccdem_simkit::time::SimTime;
use ccdem_workloads::app::{AppModel, ContentChange};
use ccdem_workloads::wallpaper::{DotsConfig, DotsWallpaper};

/// The paper's five pixel budgets for the Galaxy S3.
pub const PAPER_BUDGETS: [usize; 5] = [2_304, 4_080, 9_216, 36_864, 921_600];

/// Configuration for the Fig. 6 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Config {
    /// Wallpaper frames to meter per budget.
    pub frames: usize,
    /// Timing iterations per budget.
    pub timing_iterations: u32,
    /// The wallpaper stress configuration.
    pub wallpaper: DotsConfig,
    /// Root seed.
    pub seed: u64,
}

impl Default for Fig6Config {
    fn default() -> Self {
        Fig6Config {
            frames: 600, // 30 s at 20 fps
            timing_iterations: 30,
            wallpaper: DotsConfig::nexus_revamped(),
            seed: 6,
        }
    }
}

/// One budget's accuracy and cost.
#[derive(Debug, Clone, PartialEq)]
pub struct BudgetPoint {
    /// Sampled pixels per comparison.
    pub pixels: usize,
    /// Grid dimensions used.
    pub grid: (u32, u32),
    /// Content-rate error vs ground truth, percent.
    pub error_pct: f64,
    /// Mean wall-clock duration of one comparison step.
    pub duration: Duration,
}

/// The Fig. 6 data set.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig6 {
    /// One point per pixel budget, ascending.
    pub points: Vec<BudgetPoint>,
}

impl Fig6 {
    /// The point measured at (or nearest below) `pixels`.
    pub fn at_budget(&self, pixels: usize) -> Option<&BudgetPoint> {
        self.points.iter().find(|p| p.pixels == pixels)
    }
}

/// Runs the experiment at full Galaxy S3 resolution.
pub fn run(config: &Fig6Config) -> Fig6 {
    let resolution = Resolution::GALAXY_S3;
    let points = PAPER_BUDGETS
        .iter()
        .map(|&budget| run_budget(config, resolution, budget))
        .collect();
    Fig6 { points }
}

fn run_budget(config: &Fig6Config, resolution: Resolution, budget: usize) -> BudgetPoint {
    let sampler = GridSampler::for_pixel_budget(resolution, budget);
    let grid = (sampler.cols(), sampler.rows());
    let pixels = sampler.sample_count();

    // --- Accuracy: meter the dots wallpaper; every frame is meaningful
    // by construction, so any frame classified redundant is an error.
    let mut rng = SimRng::seed_from_u64(config.seed);
    let mut wallpaper = DotsWallpaper::new(config.wallpaper, resolution, &mut rng);
    let mut fb = FrameBuffer::new(resolution);
    let mut meter = ContentRateMeter::new(sampler.clone());
    let frame_period_us = (1e6 / config.wallpaper.update_fps) as u64;
    for i in 0..config.frames {
        wallpaper.render(ContentChange::Dots, &mut fb, &mut rng);
        meter.observe(&fb, SimTime::from_micros(i as u64 * frame_period_us));
    }
    let measured = meter.meaningful_frames().count();
    let error_pct = (config.frames - measured) as f64 / config.frames as f64 * 100.0;

    // --- Cost: wall-clock time of one compare+capture step, through
    // the scalar oracle over the whole screen.
    let duration = measure_metering_cost(&sampler, &fb, config.timing_iterations);

    BudgetPoint {
        pixels,
        grid,
        error_pct,
        duration,
    }
}

impl fmt::Display for Fig6 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6: metering accuracy and cost vs compared pixels (dots wallpaper)"
        )?;
        let mut t = TextTable::new(["pixels", "grid", "error rate (%)", "duration (µs)"]);
        for p in &self.points {
            t.row([
                format!("{}", p.pixels),
                format!("{}x{}", p.grid.0, p.grid.1),
                format!("{:.1}", p.error_pct),
                format!("{:.1}", p.duration.as_secs_f64() * 1e6),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Fig6 {
        run(&Fig6Config {
            frames: 150,
            timing_iterations: 5,
            ..Fig6Config::default()
        })
    }

    #[test]
    fn five_paper_budgets_measured() {
        let fig = quick();
        assert_eq!(fig.points.len(), 5);
        assert_eq!(fig.points[0].grid, (36, 64));
        assert_eq!(fig.points[2].grid, (72, 128));
        assert_eq!(fig.points[4].pixels, 921_600);
    }

    #[test]
    fn error_decreases_with_budget() {
        // Fig. 6: coarse grids miss dot movements; ≥9K is accurate.
        let fig = quick();
        let e2k = fig.at_budget(2_304).unwrap().error_pct;
        let e9k = fig.points[2].error_pct;
        let full = fig.points[4].error_pct;
        assert!(e2k > e9k, "2K error {e2k}% not above 9K error {e9k}%");
        assert!(e9k < 5.0, "9K error {e9k}% should be near zero");
        assert_eq!(full, 0.0, "full comparison must be exact");
    }

    #[test]
    fn coarse_grid_has_visible_error() {
        let fig = quick();
        let e2k = fig.at_budget(2_304).unwrap().error_pct;
        assert!(e2k > 5.0, "2K grid error {e2k}% too small for the stress case");
    }

    #[test]
    fn cost_grows_with_budget() {
        let fig = quick();
        let t9k = fig.points[2].duration;
        let t_full = fig.points[4].duration;
        assert!(
            t_full > t9k * 5,
            "full scan {t_full:?} should dwarf 9K scan {t9k:?}"
        );
    }

    #[test]
    fn display_renders_table() {
        let s = quick().to_string();
        assert!(s.contains("921600"));
        assert!(s.contains("error rate"));
    }
}
