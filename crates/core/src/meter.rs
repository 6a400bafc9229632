//! Content-rate metering (paper §3.1).
//!
//! The meter hooks the compositor's framebuffer writes. On every update it
//! compares a sparse grid of the new framebuffer against a snapshot of the
//! previous one and classifies the frame:
//!
//! * **meaningful** — at least one sampled pixel changed;
//! * **redundant** — every sampled pixel is identical.
//!
//! # The metering fast paths
//!
//! The classification is computed by the cheapest sound path available,
//! in order of preference:
//!
//! 1. **O(1) redundant**: if the framebuffer's
//!    [content generation](FrameBuffer::content_generation) is unchanged
//!    since the last observation, no pixel can have changed, so the frame
//!    is Redundant with *zero* pixel reads. Under CCDEM redundant frames
//!    dominate, so this inverts the cost profile — pre-optimisation a
//!    redundant frame was the *worst* case (full scan, no early exit).
//! 2. **Tile-gated, damage-restricted**
//!    ([`observe_damaged`](ContentRateMeter::observe_damaged)): the
//!    framebuffer's per-tile content signatures are consulted first
//!    ([`GridSampler::compare_and_capture_tiled`]); tiles unwritten
//!    since the last observation are skipped, provably-solid tiles are
//!    compared against their constant colour with zero framebuffer
//!    reads, and only unknown-content tiles descend to pixel compares —
//!    all restricted to the caller-supplied damage region, so both
//!    pruning mechanisms compose. Signatures gate descent only, never
//!    equality (DESIGN.md §12).
//! 3. **Tile-gated full scan**: without damage information the same
//!    tile-gated walk runs over the whole screen, which still resolves
//!    full-screen fills and unwritten regions without pixel reads.
//!
//! All paths maintain the same invariant — after every observation the
//! snapshot equals the framebuffer at every grid point — so they produce
//! bit-identical classifications and luminance estimates. The naive
//! mode, behind [`set_naive`](ContentRateMeter::set_naive), skips every
//! fast path: each frame is one call of the scalar oracle
//! [`GridSampler::reference_capture`] over the whole screen, which reads
//! every grid point once. It is the reference for equivalence tests and
//! benchmarks.
//!
//! Because the O(1) path keys on the content generation, one meter must
//! observe one logical framebuffer: alternating a single meter between
//! two different buffers that happen to share generation values would
//! defeat the check. (The simulator has exactly one framebuffer per
//! engine, owned by the compositor.)

use ccdem_obs::Obs;
use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::damage::DamageRegion;
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_simkit::trace::EventCounter;

use crate::content_rate::ContentRate;

/// Classification of one observed framebuffer update.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FrameClass {
    /// The frame carried new content at some sampled grid point.
    Meaningful,
    /// Every sampled pixel matched the previous frame.
    Redundant,
}

impl FrameClass {
    /// The class of a frame whose gather found a difference or not.
    fn of(differs: bool) -> FrameClass {
        if differs {
            FrameClass::Meaningful
        } else {
            FrameClass::Redundant
        }
    }

    /// Whether the frame was classified as meaningful.
    pub fn is_meaningful(self) -> bool {
        matches!(self, FrameClass::Meaningful)
    }

    /// Lower-case label used in telemetry events.
    pub fn name(self) -> &'static str {
        match self {
            FrameClass::Meaningful => "meaningful",
            FrameClass::Redundant => "redundant",
        }
    }
}

/// The runtime content-rate meter.
///
/// # Examples
///
/// ```
/// use ccdem_core::meter::{ContentRateMeter, FrameClass};
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::grid::GridSampler;
/// use ccdem_pixelbuf::pixel::Pixel;
/// use ccdem_simkit::time::SimTime;
///
/// let res = Resolution::new(72, 128);
/// let mut meter = ContentRateMeter::new(GridSampler::for_pixel_budget(res, 1024));
/// let mut fb = FrameBuffer::new(res);
///
/// // First frame establishes the baseline.
/// meter.observe(&fb, SimTime::from_millis(16));
/// // Unchanged resubmission: redundant.
/// assert_eq!(meter.observe(&fb, SimTime::from_millis(33)), FrameClass::Redundant);
/// // Real change: meaningful.
/// fb.fill(Pixel::WHITE);
/// assert_eq!(meter.observe(&fb, SimTime::from_millis(50)), FrameClass::Meaningful);
/// ```
#[derive(Debug, Clone)]
pub struct ContentRateMeter {
    sampler: GridSampler,
    snapshot: Vec<Pixel>,
    primed: bool,
    last_content_generation: u64,
    naive: bool,
    frames: EventCounter,
    meaningful: EventCounter,
    fast_path_frames: u64,
    points_compared_total: u64,
    points_read_total: u64,
    points_skipped_total: u64,
    tiles_checked_total: u64,
    tiles_descended_total: u64,
    obs: Obs,
}

impl ContentRateMeter {
    /// Creates a meter using `sampler` for grid-based comparison.
    pub fn new(sampler: GridSampler) -> ContentRateMeter {
        ContentRateMeter {
            sampler,
            snapshot: Vec::new(),
            primed: false,
            last_content_generation: 0,
            naive: false,
            frames: EventCounter::new(),
            meaningful: EventCounter::new(),
            fast_path_frames: 0,
            points_compared_total: 0,
            points_read_total: 0,
            points_skipped_total: 0,
            tiles_checked_total: 0,
            tiles_descended_total: 0,
            obs: Obs::disabled(),
        }
    }

    /// [`new`](Self::new), but seeding the snapshot buffer from recycled
    /// `pool` storage instead of allocating. The observable state is
    /// identical to a fresh meter: the snapshot is unprimed and fully
    /// overwritten on the first observation, so results cannot depend on
    /// where the storage came from. Pair with
    /// [`recycle`](Self::recycle).
    pub fn with_scratch(sampler: GridSampler, pool: &mut PixelPool) -> ContentRateMeter {
        let mut meter = ContentRateMeter::new(sampler);
        meter.snapshot = pool.take();
        meter
    }

    /// Consumes the meter, handing its snapshot storage back to `pool`.
    pub fn recycle(self, pool: &mut PixelPool) {
        pool.give(self.snapshot);
    }

    /// Switches the meter to naive mode: after the priming capture, every
    /// frame is one call of the scalar oracle
    /// [`GridSampler::reference_capture`] over the whole screen, ignoring
    /// generations, damage and tile signatures. It reads every grid point
    /// once per frame. The classifications are identical to the fast
    /// paths'; this exists as the reference behaviour for equivalence
    /// tests and benchmarks.
    pub fn set_naive(&mut self, naive: bool) {
        self.naive = naive;
    }

    /// Routes per-frame telemetry events through `obs`. Metering results
    /// are unaffected: the meter emits events about its classifications
    /// but never reads anything back from the sink.
    pub fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// The sampler in use.
    pub fn sampler(&self) -> &GridSampler {
        &self.sampler
    }

    /// Bounds (or unbounds, with `None`) the frame-timestamp memory of
    /// both internal counters. The meter's own rate queries look back at
    /// most one control window, so any horizon covering the caller's
    /// window keeps them exact; lifetime totals
    /// ([`EventCounter::count`]) are unaffected. Full per-second series
    /// ([`EventCounter::per_second`]) only cover the retained horizon.
    pub fn set_retention(&mut self, horizon: Option<SimDuration>) {
        self.frames.set_retention(horizon);
        self.meaningful.set_retention(horizon);
    }

    /// Observes one framebuffer update at `now` and classifies it.
    ///
    /// The very first observation has no previous frame to compare
    /// against and is classified as meaningful (the screen went from
    /// nothing to something).
    ///
    /// Without damage information the meter can still skip all pixel
    /// reads when the content generation is unchanged, and otherwise runs
    /// the tile-gated gather over the whole screen. When the caller knows
    /// which pixels could have changed, prefer
    /// [`observe_damaged`](Self::observe_damaged).
    ///
    /// # Panics
    ///
    /// Panics if the framebuffer resolution does not match the sampler's.
    pub fn observe(&mut self, framebuffer: &FrameBuffer, now: SimTime) -> FrameClass {
        self.observe_inner(framebuffer, None, now)
    }

    /// Observes one framebuffer update whose writes since the previous
    /// observation are covered by `damage`, and classifies it.
    ///
    /// The caller guarantees `damage` is a sound over-approximation of
    /// every pixel written since the last observation — exactly what the
    /// compositor hands out per composed frame (it takes
    /// [`FrameBuffer::take_damage`] once per compose). Only grid points
    /// inside the damage are read; the classification is identical to
    /// [`observe`](Self::observe)'s.
    ///
    /// # Panics
    ///
    /// Panics if the framebuffer resolution does not match the sampler's.
    pub fn observe_damaged(
        &mut self,
        framebuffer: &FrameBuffer,
        damage: &DamageRegion,
        now: SimTime,
    ) -> FrameClass {
        self.observe_inner(framebuffer, Some(damage), now)
    }

    fn observe_inner(
        &mut self,
        framebuffer: &FrameBuffer,
        damage: Option<&DamageRegion>,
        now: SimTime,
    ) -> FrameClass {
        self.frames.record(now);
        let grid_px = self.sampler.sample_count();
        // (class, points compared, points read, O(1) fast path taken,
        //  tiles checked, tiles descended)
        let (class, compared, read, fast, t_checked, t_descended) = if !self.primed {
            // Baseline capture: one full gather, no comparison.
            self.primed = true;
            self.sampler.sample_into(framebuffer, &mut self.snapshot);
            (FrameClass::Meaningful, 0, grid_px, false, 0, 0)
        } else if self.naive {
            // One oracle pass over the whole screen.
            let everything = DamageRegion::of(self.sampler.resolution().bounds());
            let result =
                self.sampler
                    .reference_capture(framebuffer, &everything, &mut self.snapshot);
            let class = FrameClass::of(result.differs);
            (
                class,
                result.points_compared,
                result.points_read,
                false,
                0,
                0,
            )
        } else if framebuffer.content_generation() == self.last_content_generation {
            // O(1): no draw op ran since the last capture, so no pixel —
            // sampled or not — can have changed.
            (FrameClass::Redundant, 0, 0, true, 0, 0)
        } else {
            // Tile-gated descent, restricted to the caller's damage when
            // available and to the whole screen otherwise. The snapshot
            // is current as of `last_content_generation` (every path
            // re-captures on every observation), which is exactly the
            // currency contract `compare_and_capture_tiled` requires.
            let full_bounds;
            let damage = match damage {
                Some(damage) => damage,
                None => {
                    full_bounds = DamageRegion::of(self.sampler.resolution().bounds());
                    &full_bounds
                }
            };
            let result = self.sampler.compare_and_capture_tiled(
                framebuffer,
                damage,
                self.last_content_generation,
                &mut self.snapshot,
            );
            (
                FrameClass::of(result.grid.differs),
                result.grid.points_compared,
                result.grid.points_read,
                false,
                result.tiles_checked,
                result.tiles_descended,
            )
        };
        self.last_content_generation = framebuffer.content_generation();
        let skipped = grid_px.saturating_sub(read);
        self.fast_path_frames += u64::from(fast);
        self.points_compared_total += compared as u64;
        self.points_read_total += read as u64;
        self.points_skipped_total += skipped as u64;
        self.tiles_checked_total += t_checked as u64;
        self.tiles_descended_total += t_descended as u64;
        if class.is_meaningful() {
            self.meaningful.record(now);
        }
        self.obs.emit("meter.frame", now, |event| {
            event
                .field("class", class.name())
                .field("sampled_px", grid_px)
                .field("compared_px", compared)
                .field("read_px", read)
                .field("skipped_px", skipped)
                .field("tiles_checked", t_checked)
                .field("tiles_descended", t_descended)
                .field("fast_path", fast);
        });
        class
    }

    /// Content rate measured over the window `[now - window, now)`.
    pub fn content_rate(&self, now: SimTime, window: SimDuration) -> ContentRate {
        // Clamp the window at the run start so early measurements divide
        // by the actually elapsed time.
        let start = if now.as_micros() >= window.as_micros() {
            now - window
        } else {
            SimTime::ZERO
        };
        let count = self.meaningful.count_in(start, now);
        ContentRate::from_count(count, (now - start).as_secs_f64())
    }

    /// Frame rate (all framebuffer updates) over `[now - window, now)`.
    pub fn frame_rate(&self, now: SimTime, window: SimDuration) -> f64 {
        let start = if now.as_micros() >= window.as_micros() {
            now - window
        } else {
            SimTime::ZERO
        };
        self.frames.rate_in(start, now)
    }

    /// Redundant frame rate over `[now - window, now)`.
    pub fn redundant_rate(&self, now: SimTime, window: SimDuration) -> f64 {
        (self.frame_rate(now, window) - self.content_rate(now, window).fps()).max(0.0)
    }

    /// Mean luminance of the most recent frame's sampled pixels, in
    /// `[0, 1]`, or `None` before the first observation.
    ///
    /// The grid samples are already in hand after every
    /// [`observe`](Self::observe), so this estimate costs one pass over
    /// the snapshot (a few thousand pixels) instead of a scan of the full
    /// framebuffer. It is how the OLED power extension tracks displayed
    /// brightness; the scenario engine calls it only for a power model
    /// that reads luminance (`PowerCoefficients::reads_luminance`).
    pub fn mean_sampled_luminance(&self) -> Option<f64> {
        if !self.primed || self.snapshot.is_empty() {
            return None;
        }
        let sum: f64 = self.snapshot.iter().map(|p| p.luminance()).sum();
        Some(sum / self.snapshot.len() as f64)
    }

    /// Every observed framebuffer update.
    pub fn frames(&self) -> &EventCounter {
        &self.frames
    }

    /// Updates classified as meaningful.
    pub fn meaningful_frames(&self) -> &EventCounter {
        &self.meaningful
    }

    /// Frames classified Redundant by the O(1) content-generation check,
    /// with zero pixel reads.
    pub fn fast_path_frames(&self) -> u64 {
        self.fast_path_frames
    }

    /// Total grid points compared against the snapshot across all
    /// observations (early exits make this smaller than
    /// [`points_read`](Self::points_read)).
    pub fn points_compared(&self) -> u64 {
        self.points_compared_total
    }

    /// Total framebuffer pixels read across all observations — the
    /// deterministic metering-cost measure the fast paths minimise. The
    /// naive mode reads `sample_count` per frame; the tile-gated paths
    /// only the damaged points under unknown-content tiles (clean and
    /// provably-solid tiles are resolved without reads); the O(1) path
    /// zero.
    pub fn points_read(&self) -> u64 {
        self.points_read_total
    }

    /// Total grid points *not* read relative to a full single-gather scan
    /// (`sample_count` per frame), summed across observations.
    pub fn points_skipped(&self) -> u64 {
        self.points_skipped_total
    }

    /// Total tile signatures examined by the tile-gated descent across
    /// all observations.
    pub fn tiles_checked(&self) -> u64 {
        self.tiles_checked_total
    }

    /// Total checked tiles whose stamp forced a descent (written since
    /// the previous observation). `tiles_checked - tiles_descended` is
    /// the pruning the signatures bought on top of the damage region.
    pub fn tiles_descended(&self) -> u64 {
        self.tiles_descended_total
    }
}

/// Wall-clock cost of one naive meter step — the scalar oracle
/// [`GridSampler::reference_capture`] over the whole screen, comparing
/// until the first difference and re-capturing every grid point — the
/// quantity on Fig. 6's right axis. Runs `iterations` steps against
/// `framebuffer` and returns the mean duration of one.
///
/// This measures *host* time, not simulated time: the paper's claim is
/// about the real computational cost of metering at different pixel
/// budgets, which transfers (up to a constant) to any machine.
///
/// # Panics
///
/// Panics if `iterations` is zero or the resolution mismatches.
#[expect(
    clippy::disallowed_types,
    reason = "micro-bench helper; host time is its output"
)]
pub fn measure_metering_cost(
    sampler: &GridSampler,
    framebuffer: &FrameBuffer,
    iterations: u32,
) -> std::time::Duration {
    assert!(iterations > 0, "iterations must be non-zero");
    // Prime outside the timed loop, through the non-allocating gather —
    // `GridSampler::sample` allocates per call and is not for hot paths.
    let mut snapshot = Vec::new();
    sampler.sample_into(framebuffer, &mut snapshot);
    let everything = DamageRegion::of(sampler.resolution().bounds());
    let start = std::time::Instant::now();
    for _ in 0..iterations {
        let result = sampler.reference_capture(framebuffer, &everything, &mut snapshot);
        std::hint::black_box(result.differs);
    }
    start.elapsed() / iterations
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_pixelbuf::geometry::{Rect, Resolution};
    use ccdem_pixelbuf::{TileMap, TILE_SIZE as T};

    fn meter_and_fb() -> (ContentRateMeter, FrameBuffer) {
        let res = Resolution::new(72, 128);
        (
            ContentRateMeter::new(GridSampler::for_pixel_budget(res, 1024)),
            FrameBuffer::new(res),
        )
    }

    #[test]
    fn first_frame_is_meaningful() {
        let (mut m, fb) = meter_and_fb();
        assert_eq!(m.observe(&fb, SimTime::ZERO), FrameClass::Meaningful);
    }

    #[test]
    fn meaningful_plus_redundant_equals_total() {
        let (mut m, mut fb) = meter_and_fb();
        for i in 0..60u64 {
            if i % 3 == 0 {
                fb.fill(Pixel::grey((i % 255) as u8));
            } else {
                fb.touch();
            }
            m.observe(&fb, SimTime::from_micros(i * 16_667));
        }
        assert_eq!(m.frames().count(), 60);
        assert_eq!(m.meaningful_frames().count(), 20);
    }

    #[test]
    fn content_rate_counts_only_meaningful() {
        let (mut m, mut fb) = meter_and_fb();
        // 1 second of 60 fps submissions, content changes on every 6th.
        for i in 0..60u64 {
            if i % 6 == 0 {
                fb.fill(Pixel::grey((i + 1) as u8));
            } else {
                fb.touch();
            }
            m.observe(&fb, SimTime::from_micros(i * 16_667));
        }
        let now = SimTime::from_secs(1);
        let cr = m.content_rate(now, SimDuration::from_secs(1));
        assert!((cr.fps() - 10.0).abs() < 1.0, "got {cr}");
        let fr = m.frame_rate(now, SimDuration::from_secs(1));
        assert!((fr - 60.0).abs() < 1.5, "got {fr}");
        let rr = m.redundant_rate(now, SimDuration::from_secs(1));
        assert!((rr - 50.0).abs() < 2.0, "got {rr}");
    }

    #[test]
    fn window_clamps_at_run_start() {
        let (mut m, fb) = meter_and_fb();
        m.observe(&fb, SimTime::from_millis(100));
        // Window longer than elapsed time: rate over [0, 0.5s).
        let cr = m.content_rate(SimTime::from_millis(500), SimDuration::from_secs(10));
        assert!((cr.fps() - 2.0).abs() < 1e-9, "got {cr}");
    }

    #[test]
    fn sub_cell_change_classified_redundant() {
        // A change smaller than one grid cell that misses every sample
        // point is (wrongly but by design) classified redundant; this is
        // the error source quantified in Fig. 6.
        let res = Resolution::new(100, 100);
        let mut m = ContentRateMeter::new(GridSampler::new(res, 2, 2));
        let mut fb = FrameBuffer::new(res);
        m.observe(&fb, SimTime::ZERO);
        fb.fill_rect(Rect::new(0, 0, 2, 2), Pixel::WHITE);
        assert_eq!(
            m.observe(&fb, SimTime::from_millis(16)),
            FrameClass::Redundant
        );
    }

    #[test]
    fn sampled_luminance_tracks_content() {
        let (mut m, mut fb) = meter_and_fb();
        assert_eq!(m.mean_sampled_luminance(), None);
        m.observe(&fb, SimTime::ZERO); // black
        assert!(m.mean_sampled_luminance().unwrap() < 0.01);
        fb.fill(Pixel::WHITE);
        m.observe(&fb, SimTime::from_millis(16));
        assert!(m.mean_sampled_luminance().unwrap() > 0.99);
    }

    #[test]
    fn metering_cost_scales_with_budget() {
        // The cost of one meter step is proportional to the pixels the
        // sampler touches, so assert on that deterministic quantity; the
        // wall-clock times are printed for inspection but not asserted —
        // on a loaded or virtualized host the full-grid timing can
        // spuriously dip below the sparse one for a 20-iteration sample.
        let res = Resolution::GALAXY_S3;
        let fb = FrameBuffer::new(res);
        let small = GridSampler::for_pixel_budget(res, 2_304);
        let full = GridSampler::full(res);
        assert!(
            full.sample_count() > small.sample_count() * 10,
            "full grid samples {} pixels, sparse grid {}",
            full.sample_count(),
            small.sample_count()
        );
        let t_small = measure_metering_cost(&small, &fb, 20);
        let t_full = measure_metering_cost(&full, &fb, 20);
        println!("metering cost: 2K grid {t_small:?}, full compare {t_full:?}");
    }

    #[test]
    fn points_read_accounting_covers_every_fast_path() {
        // Deterministic replacement for the old wall-clock scaling test:
        // assert on pixels actually read, which is what the wall clock
        // was a noisy proxy for. A 2×2 tile screen under an 8×8 sampler:
        // cells are T/4 wide, centred at T/8, 3T/8, ….
        let res = Resolution::new(2 * T, 2 * T);
        let grid = 64u64;
        let mut m = ContentRateMeter::new(GridSampler::new(res, 8, 8));
        let mut fb = FrameBuffer::new(res);

        // Priming capture: one full gather, no comparisons.
        m.observe(&fb, SimTime::ZERO);
        assert_eq!((m.points_read(), m.points_compared()), (grid, 0));

        // Redundant resubmission: O(1), zero reads, all points skipped.
        fb.touch();
        assert_eq!(
            m.observe(&fb, SimTime::from_millis(16)),
            FrameClass::Redundant
        );
        assert_eq!(m.points_read(), grid);
        assert_eq!(m.fast_path_frames(), 1);
        assert_eq!(m.points_skipped(), grid);

        // Small damage: reads exactly the damaged subset. The T/2 square
        // at (T/4, T/4) covers the 2×2 block of sample points
        // {3T/8, 5T/8}², all inside one partially-written
        // (unknown-content) tile.
        fb.fill_rect(Rect::new(T / 4, T / 4, T / 2, T / 2), Pixel::WHITE);
        let damage = fb.take_damage();
        assert_eq!(
            m.observe_damaged(&fb, &damage, SimTime::from_millis(33)),
            FrameClass::Meaningful
        );
        assert_eq!(m.points_read(), grid + 4);
        assert_eq!(m.points_skipped(), grid + (grid - 4));
        assert_eq!((m.tiles_checked(), m.tiles_descended()), (1, 1));

        // Full-screen fill without damage information: every tile is
        // provably solid, so the tile-gated scan classifies and
        // refreshes the snapshot with zero framebuffer reads.
        fb.fill(Pixel::grey(70));
        assert_eq!(
            m.observe(&fb, SimTime::from_millis(50)),
            FrameClass::Meaningful
        );
        assert_eq!(m.points_read(), grid + 4, "solid tiles read nothing");
        // The 8 sampled rows span both tile rows, and each tile-row
        // group checks (and descends) 2 tiles.
        assert_eq!((m.tiles_checked(), m.tiles_descended()), (1 + 4, 1 + 4));

        // The naive mode reads every point once per frame.
        let mut naive = ContentRateMeter::new(GridSampler::new(res, 8, 8));
        naive.set_naive(true);
        naive.observe(&fb, SimTime::ZERO);
        assert_eq!(naive.points_read(), grid); // priming: capture only
        fb.touch();
        naive.observe(&fb, SimTime::from_millis(16));
        assert_eq!(
            naive.points_read(),
            grid + grid,
            "a naive redundant frame is one oracle pass over the whole screen"
        );
    }

    #[test]
    fn bench_cases_read_exact_points_at_every_paper_budget() {
        // Four frame shapes on the S3 screen at Fig. 6's five pixel
        // budgets (`fig6::PAPER_BUDGETS`, defined in a crate above this
        // one), pinned as each frame's class and its exact grid points
        // read.
        let budgets = [2_304, 4_080, 9_216, 36_864, 921_600];
        let res = Resolution::GALAXY_S3;
        // The status-bar-sized patch the `small_damage` case redraws.
        let patch = Rect::new(
            res.width / 2,
            res.height / 2,
            res.width / 8,
            res.height / 32,
        );
        let tiles = TileMap::new(res);
        for budget in budgets {
            let sampler = GridSampler::for_pixel_budget(res, budget);
            let grid = sampler.sample_count() as u64;
            // Each redraw leaves a tile the patch covers fully solid, so
            // its points are compared read-free; a tile it covers only
            // partly is of unknown content, so its points are read.
            let in_patch: Vec<(u32, u32)> = sampler
                .positions()
                .filter(|&(x, y)| patch.contains(x, y))
                .collect();
            let partial = in_patch
                .iter()
                .filter(|&&(x, y)| {
                    let tile = tiles.tile_rect(x / T, y / T);
                    patch.intersection(tile) != Some(tile)
                })
                .count() as u64;
            assert!(
                partial > 0,
                "budget {budget}: no point in a partly covered tile"
            );
            assert!(
                partial < in_patch.len() as u64,
                "budget {budget}: no covered tile"
            );
            let cases = [
                ("redundant", false, 0, FrameClass::Redundant),
                ("small_damage", false, partial, FrameClass::Meaningful),
                ("full_change", false, 0, FrameClass::Meaningful),
                ("naive_redundant", true, grid, FrameClass::Redundant),
            ];
            for (case, naive, per_frame, expected) in cases {
                let mut fb = FrameBuffer::new(res);
                let mut m = ContentRateMeter::new(sampler.clone());
                m.set_naive(naive);
                fb.fill(Pixel::grey(10));
                fb.take_damage();
                m.observe(&fb, SimTime::ZERO);
                for i in 0..3u8 {
                    match case {
                        "small_damage" => fb.fill_rect(patch, Pixel::grey(i)),
                        "full_change" => fb.fill(Pixel::grey(i)),
                        _ => fb.touch(),
                    }
                    let damage = fb.take_damage();
                    let now = SimTime::from_micros(u64::from(i + 1) * 16_667);
                    let before = m.points_read();
                    let class = if naive {
                        m.observe(&fb, now)
                    } else {
                        m.observe_damaged(&fb, &damage, now)
                    };
                    assert_eq!(class, expected, "{case} at budget {budget}, frame {i}");
                    assert_eq!(
                        m.points_read() - before,
                        per_frame,
                        "{case} at budget {budget}, frame {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_and_naive_paths_classify_identically() {
        let res = Resolution::new(100, 100);
        let mut fast = ContentRateMeter::new(GridSampler::new(res, 10, 10));
        let mut naive = ContentRateMeter::new(GridSampler::new(res, 10, 10));
        naive.set_naive(true);
        let mut fb_fast = FrameBuffer::new(res);
        let mut fb_naive = FrameBuffer::new(res);

        for i in 0..40u64 {
            for fb in [&mut fb_fast, &mut fb_naive] {
                match i % 5 {
                    0 => fb.fill(Pixel::grey((i * 6 % 256) as u8)),
                    1 | 2 => fb.touch(),
                    3 => fb.fill_rect(Rect::new(4, 4, 9, 9), Pixel::grey((i * 11 % 256) as u8)),
                    _ => fb.set_pixel(55, 55, Pixel::grey((i * 17 % 256) as u8)),
                }
            }
            let now = SimTime::from_micros(i * 16_667);
            let damage = fb_fast.take_damage();
            let a = fast.observe_damaged(&fb_fast, &damage, now);
            fb_naive.take_damage();
            let b = naive.observe(&fb_naive, now);
            assert_eq!(a, b, "classification diverged at frame {i}");
            assert_eq!(
                fast.mean_sampled_luminance(),
                naive.mean_sampled_luminance(),
                "snapshot luminance diverged at frame {i}"
            );
        }
        assert!(fast.points_read() < naive.points_read() / 2);
        assert!(fast.fast_path_frames() > 0);
    }

    #[test]
    #[should_panic(expected = "iterations must be non-zero")]
    fn metering_cost_rejects_zero_iterations() {
        let res = Resolution::QUARTER;
        let fb = FrameBuffer::new(res);
        let s = GridSampler::full(res);
        let _ = measure_metering_cost(&s, &fb, 0);
    }
}
