//! The surface manager ("SurfaceFlinger").
//!
//! Applications submit frames whenever they like; the compositor latches
//! pending submissions and performs at most one framebuffer update per
//! V-Sync edge. That latching is V-Sync throttling: it is what caps the
//! frame rate at the refresh rate (paper §2.1), and what makes the content
//! rate unobservable above the refresh rate (paper §3.2) — the feedback
//! the section table is designed around.

use std::fmt;

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::damage::DamageRegion;
use ccdem_pixelbuf::geometry::Resolution;
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_simkit::time::SimTime;

use crate::stats::FrameStats;
use crate::surface::{Surface, SurfaceId};

/// Error returned for operations on an unknown surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnknownSurfaceError {
    /// The id that was not found.
    pub id: SurfaceId,
}

impl fmt::Display for UnknownSurfaceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "unknown {}", self.id)
    }
}

impl std::error::Error for UnknownSurfaceError {}

/// The result of one V-Sync composition opportunity.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ComposeOutcome {
    /// No submissions were pending; the framebuffer was left untouched.
    Idle,
    /// Pending submissions were composed into the framebuffer.
    Composed {
        /// Whether any coalesced submission carried changed content.
        content_changed: bool,
        /// How many submissions were coalesced into this frame.
        coalesced: usize,
        /// The framebuffer damage this composition produced — every pixel
        /// the compose wrote, taken from the framebuffer so the region
        /// always means "changed since the previous compose". Empty for
        /// redundant frames. The content-rate meter uses it to restrict
        /// its grid comparison to the pixels that could have changed.
        damage: DamageRegion,
    },
}

/// The surface manager: owns the surfaces and the hardware framebuffer,
/// latches submissions and composes on V-Sync.
///
/// # Examples
///
/// ```
/// use ccdem_compositor::flinger::{ComposeOutcome, SurfaceFlinger};
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pixel::Pixel;
/// use ccdem_simkit::time::SimTime;
///
/// let mut sf = SurfaceFlinger::new(Resolution::new(8, 8));
/// let app = sf.create_surface("demo app");
///
/// // The app draws and submits a frame…
/// sf.surface_mut(app)?.buffer_mut().fill(Pixel::WHITE);
/// sf.submit(app, SimTime::from_millis(5), true)?;
///
/// // …which reaches the framebuffer at the next V-Sync edge.
/// let outcome = sf.compose(SimTime::from_millis(16));
/// assert!(matches!(outcome, ComposeOutcome::Composed { content_changed: true, .. }));
/// assert_eq!(sf.framebuffer().pixel(0, 0), Pixel::WHITE);
/// # Ok::<(), ccdem_compositor::flinger::UnknownSurfaceError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SurfaceFlinger {
    resolution: Resolution,
    surfaces: Vec<Surface>,
    framebuffer: FrameBuffer,
    pending: usize,
    pending_content: bool,
    stats: FrameStats,
    /// The surface-list layout stamp observed at the last full recompose;
    /// `None` until the first compose.
    composed_layout: Option<(usize, u64)>,
    naive_compose: bool,
    /// Recycled pixel storage new surfaces draw from; empty unless
    /// constructed via [`with_pool`](Self::with_pool).
    pool: PixelPool,
    /// Scratch for the per-compose z-order sort, reused across frames so
    /// the compose path stays allocation-free in steady state.
    order_scratch: Vec<(i32, usize)>,
}

impl SurfaceFlinger {
    /// Creates a compositor with an empty surface list and a black
    /// framebuffer.
    pub fn new(resolution: Resolution) -> SurfaceFlinger {
        SurfaceFlinger::with_pool(resolution, PixelPool::new())
    }

    /// [`new`](Self::new), but drawing the framebuffer and all future
    /// surface buffers from recycled `pool` storage. Recycled buffers are
    /// reset to the freshly-constructed state, so behaviour is identical
    /// to a pool-less compositor; only allocations are saved. Harvest the
    /// storage back with [`into_pool`](Self::into_pool) when the run is
    /// over.
    pub fn with_pool(resolution: Resolution, mut pool: PixelPool) -> SurfaceFlinger {
        SurfaceFlinger {
            resolution,
            surfaces: Vec::new(),
            framebuffer: pool.take_framebuffer(resolution),
            pending: 0,
            pending_content: false,
            stats: FrameStats::new(),
            composed_layout: None,
            naive_compose: false,
            pool,
            order_scratch: Vec::new(),
        }
    }

    /// Consumes the compositor, returning its pool with the framebuffer's
    /// and every surface's storage recycled into it.
    pub fn into_pool(self) -> PixelPool {
        let mut pool = self.pool;
        pool.give_framebuffer(self.framebuffer);
        for surface in self.surfaces {
            pool.give_framebuffer(surface.into_buffer());
        }
        pool
    }

    /// Forces every composition to recompose the full screen, disabling
    /// the damage-limited incremental path. The pixel output is identical
    /// either way; this exists so equivalence tests and benchmarks can run
    /// the pre-optimisation reference behaviour.
    pub fn set_naive_compose(&mut self, naive: bool) {
        self.naive_compose = naive;
    }

    /// The screen resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Creates a new full-screen surface (from pooled storage when
    /// available) and returns its id.
    pub fn create_surface(&mut self, label: impl Into<String>) -> SurfaceId {
        let id = SurfaceId::new(self.surfaces.len());
        let buffer = self.pool.take_framebuffer(self.resolution);
        self.surfaces.push(Surface::with_buffer(id, label, buffer));
        id
    }

    /// Shared access to a surface.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSurfaceError`] if `id` was not created here.
    pub fn surface(&self, id: SurfaceId) -> Result<&Surface, UnknownSurfaceError> {
        self.surfaces
            .get(id.index())
            .ok_or(UnknownSurfaceError { id })
    }

    /// Mutable access to a surface (for the owning app to draw).
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSurfaceError`] if `id` was not created here.
    pub fn surface_mut(&mut self, id: SurfaceId) -> Result<&mut Surface, UnknownSurfaceError> {
        self.surfaces
            .get_mut(id.index())
            .ok_or(UnknownSurfaceError { id })
    }

    /// An application hands the compositor a finished frame at `now`.
    /// `content_changed` is the app's ground truth: did this frame's
    /// pixels differ from its previous frame? (Commercial apps submit
    /// plenty of unchanged frames — the paper's *redundant frames*.)
    ///
    /// The frame is latched; it reaches the framebuffer at the next
    /// [`compose`](Self::compose) call. Multiple submissions between
    /// edges coalesce into one composition.
    ///
    /// # Errors
    ///
    /// Returns [`UnknownSurfaceError`] if `id` was not created here.
    pub fn submit(
        &mut self,
        id: SurfaceId,
        now: SimTime,
        content_changed: bool,
    ) -> Result<(), UnknownSurfaceError> {
        let _ = self.surface(id)?;
        self.pending += 1;
        self.pending_content |= content_changed;
        self.stats.record_submission(now, content_changed);
        Ok(())
    }

    /// One V-Sync composition opportunity at `now`. If any submissions
    /// are pending, composes all visible surfaces into the framebuffer
    /// (one framebuffer write, regardless of how many submissions
    /// coalesced) and clears the latch.
    pub fn compose(&mut self, now: SimTime) -> ComposeOutcome {
        if self.pending == 0 {
            return ComposeOutcome::Idle;
        }
        let coalesced = self.pending;
        let content_changed = self.pending_content;
        self.pending = 0;
        self.pending_content = false;

        if content_changed {
            self.blit_surfaces();
        } else {
            // Redundant frame: the hardware still writes the framebuffer,
            // but the pixels are identical, so skip the copy and record
            // the write via the generation counter alone.
            self.framebuffer.touch();
        }
        self.stats.record_compose(now, content_changed);
        ComposeOutcome::Composed {
            content_changed,
            coalesced,
            damage: self.framebuffer.take_damage(),
        }
    }

    /// The hardware framebuffer (what the panel scans out and what the
    /// content-rate meter samples).
    pub fn framebuffer(&self) -> &FrameBuffer {
        &self.framebuffer
    }

    /// Frame accounting.
    pub fn stats(&self) -> &FrameStats {
        &self.stats
    }

    /// Whether a submission is waiting for the next V-Sync.
    pub fn has_pending(&self) -> bool {
        self.pending > 0
    }

    fn blit_surfaces(&mut self) {
        // Compose in ascending z-order; opaque surfaces copy, translucent
        // ones blend. Ties sort by surface slot, oldest underneath. The
        // sort scratch lives on the struct so steady-state composes do
        // not allocate (alloc-hot-path contract, DESIGN.md §10).
        self.order_scratch.clear();
        for (i, s) in self.surfaces.iter().enumerate() {
            if s.is_visible() {
                self.order_scratch.push((s.z_order(), i));
            }
        }
        self.order_scratch.sort_unstable();

        let stamp = (
            self.surfaces.len(),
            self.surfaces
                .iter()
                .map(Surface::layout_generation)
                .sum::<u64>(),
        );
        let full = self.naive_compose
            || self.composed_layout != Some(stamp)
            || !self.composition_is_pure(&self.order_scratch);
        self.composed_layout = Some(stamp);

        // Decide which screen region to recompose. While the layout is
        // stable and composition is a pure function of surface contents,
        // only the pixels the apps drew since the last compose can come
        // out different, so recomposing the z-stack restricted to that
        // accumulated damage reproduces the full recompose bit for bit.
        let region = if full {
            for s in &mut self.surfaces {
                s.buffer_mut().take_damage();
            }
            DamageRegion::of(self.resolution.bounds())
        } else {
            let mut region = DamageRegion::new();
            for s in &mut self.surfaces {
                let visible = s.is_visible();
                let bounds = s.bounds();
                let damage = s.buffer_mut().take_damage();
                if !visible {
                    continue;
                }
                for &r in damage.rects() {
                    if let Some(on_screen) = r.intersection(bounds) {
                        region.add(on_screen);
                    }
                }
            }
            region
        };

        if self.order_scratch.is_empty() || region.is_empty() {
            // No visible surfaces, or none of them drew anything new
            // on-screen: the hardware write still happens, with pixels
            // identical to the previous frame.
            self.framebuffer.touch();
            return;
        }
        for &(_, i) in &self.order_scratch {
            let Some(surface) = self.surfaces.get(i) else {
                continue;
            };
            let bounds = surface.bounds();
            for &rect in region.rects() {
                let Some(r) = rect.intersection(bounds) else {
                    continue;
                };
                if surface.is_opaque() {
                    if r == self.resolution.bounds() {
                        self.framebuffer.copy_from(surface.buffer());
                    } else {
                        self.framebuffer.copy_rect_from(surface.buffer(), r);
                    }
                } else {
                    self.framebuffer.blend_rect_from(surface.buffer(), r);
                }
            }
        }
    }

    /// Whether composing `order` (visible surfaces, ascending z) yields a
    /// framebuffer that depends only on surface contents, never on the
    /// previous framebuffer. True when every surface copies (opaque), or
    /// when the bottom layer is an opaque full-screen surface that every
    /// blend chain starts from. When false, translucent surfaces blend
    /// over leftover framebuffer state, so each compose feeds back on the
    /// last and only a full recompose is correct.
    fn composition_is_pure(&self, order: &[(i32, usize)]) -> bool {
        let Some(base) = order.first().and_then(|&(_, i)| self.surfaces.get(i)) else {
            return true;
        };
        (base.is_opaque() && base.bounds() == self.resolution.bounds())
            || order
                .iter()
                .all(|&(_, i)| self.surfaces.get(i).is_some_and(Surface::is_opaque))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_pixelbuf::pixel::Pixel;

    fn flinger() -> (SurfaceFlinger, SurfaceId) {
        let mut sf = SurfaceFlinger::new(Resolution::new(4, 4));
        let id = sf.create_surface("test");
        (sf, id)
    }

    #[test]
    fn idle_vsync_does_nothing() {
        let (mut sf, _) = flinger();
        let g = sf.framebuffer().generation();
        assert_eq!(sf.compose(SimTime::ZERO), ComposeOutcome::Idle);
        assert_eq!(sf.framebuffer().generation(), g);
        assert_eq!(sf.stats().composed().count(), 0);
    }

    #[test]
    fn submissions_coalesce_into_one_compose() {
        let (mut sf, id) = flinger();
        for ms in [1, 5, 9] {
            sf.submit(id, SimTime::from_millis(ms), false).unwrap();
        }
        match sf.compose(SimTime::from_millis(16)) {
            ComposeOutcome::Composed {
                content_changed,
                coalesced,
                damage,
            } => {
                assert!(!content_changed);
                assert_eq!(coalesced, 3);
                assert!(damage.is_empty(), "redundant frame carries no damage");
            }
            other => panic!("expected compose, got {other:?}"),
        }
        assert!(!sf.has_pending());
        assert_eq!(sf.stats().composed().count(), 1);
        assert_eq!(sf.stats().submissions().count(), 3);
    }

    #[test]
    fn content_flag_ors_across_coalesced_frames() {
        let (mut sf, id) = flinger();
        sf.submit(id, SimTime::from_millis(1), false).unwrap();
        sf.submit(id, SimTime::from_millis(2), true).unwrap();
        match sf.compose(SimTime::from_millis(16)) {
            ComposeOutcome::Composed {
                content_changed, ..
            } => assert!(content_changed),
            other => panic!("expected compose, got {other:?}"),
        }
    }

    #[test]
    fn redundant_frame_bumps_generation_without_pixel_change() {
        let (mut sf, id) = flinger();
        sf.surface_mut(id).unwrap().buffer_mut().fill(Pixel::WHITE);
        sf.submit(id, SimTime::from_millis(1), true).unwrap();
        sf.compose(SimTime::from_millis(16));
        let g1 = sf.framebuffer().generation();
        let px1 = sf.framebuffer().pixel(0, 0);

        sf.submit(id, SimTime::from_millis(20), false).unwrap();
        sf.compose(SimTime::from_millis(33));
        assert!(sf.framebuffer().generation() > g1);
        assert_eq!(sf.framebuffer().pixel(0, 0), px1);
    }

    #[test]
    fn hidden_surface_not_composed() {
        let (mut sf, id) = flinger();
        sf.surface_mut(id).unwrap().buffer_mut().fill(Pixel::WHITE);
        sf.surface_mut(id).unwrap().set_visible(false);
        sf.submit(id, SimTime::from_millis(1), true).unwrap();
        sf.compose(SimTime::from_millis(16));
        assert_eq!(sf.framebuffer().pixel(0, 0), Pixel::BLACK);
    }

    #[test]
    fn translucent_overlay_blends() {
        let mut sf = SurfaceFlinger::new(Resolution::new(2, 2));
        let base = sf.create_surface("base");
        let overlay = sf.create_surface("overlay");
        sf.surface_mut(base)
            .unwrap()
            .buffer_mut()
            .fill(Pixel::BLACK);
        {
            let s = sf.surface_mut(overlay).unwrap();
            s.set_z_order(1);
            s.set_opaque(false);
            s.buffer_mut().fill(Pixel::rgba(255, 255, 255, 128));
        }
        sf.submit(base, SimTime::from_millis(1), true).unwrap();
        sf.compose(SimTime::from_millis(16));
        let p = sf.framebuffer().pixel(0, 0);
        assert!(p.red() > 100 && p.red() < 160, "expected a blend, got {p}");
    }

    #[test]
    fn bounded_surface_composes_only_its_region() {
        use ccdem_pixelbuf::geometry::Rect;
        let mut sf = SurfaceFlinger::new(Resolution::new(8, 8));
        let app = sf.create_surface("app");
        let bar = sf.create_surface("status bar");
        sf.surface_mut(app)
            .unwrap()
            .buffer_mut()
            .fill(Pixel::grey(50));
        {
            let s = sf.surface_mut(bar).unwrap();
            s.set_z_order(1);
            s.set_bounds(Rect::new(0, 0, 8, 2));
            s.buffer_mut().fill(Pixel::WHITE);
        }
        sf.submit(app, SimTime::from_millis(1), true).unwrap();
        sf.compose(SimTime::from_millis(16));
        // Bar covers the top two rows only.
        assert_eq!(sf.framebuffer().pixel(4, 1), Pixel::WHITE);
        assert_eq!(sf.framebuffer().pixel(4, 2), Pixel::grey(50));
    }

    #[test]
    fn composed_damage_covers_drawn_region() {
        use ccdem_pixelbuf::geometry::Rect;
        let (mut sf, id) = flinger();
        // Prime: first compose is always a full recompose.
        sf.surface_mut(id)
            .unwrap()
            .buffer_mut()
            .fill(Pixel::grey(10));
        sf.submit(id, SimTime::from_millis(1), true).unwrap();
        match sf.compose(SimTime::from_millis(16)) {
            ComposeOutcome::Composed { damage, .. } => {
                assert_eq!(damage.bounding(), Rect::new(0, 0, 4, 4));
            }
            other => panic!("expected compose, got {other:?}"),
        }
        // Steady state: a small draw produces small damage.
        let drawn = Rect::new(1, 1, 2, 2);
        sf.surface_mut(id)
            .unwrap()
            .buffer_mut()
            .fill_rect(drawn, Pixel::WHITE);
        sf.submit(id, SimTime::from_millis(20), true).unwrap();
        match sf.compose(SimTime::from_millis(33)) {
            ComposeOutcome::Composed { damage, .. } => {
                assert_eq!(damage.bounding(), drawn);
            }
            other => panic!("expected compose, got {other:?}"),
        }
        assert_eq!(sf.framebuffer().pixel(2, 2), Pixel::WHITE);
        assert_eq!(sf.framebuffer().pixel(0, 0), Pixel::grey(10));
    }

    #[test]
    fn incremental_compose_matches_full_recompose() {
        use ccdem_pixelbuf::geometry::Rect;
        let res = Resolution::new(16, 16);
        let mut fast = SurfaceFlinger::new(res);
        let mut naive = SurfaceFlinger::new(res);
        naive.set_naive_compose(true);
        for sf in [&mut fast, &mut naive] {
            let app = sf.create_surface("app");
            let bar = sf.create_surface("bar");
            sf.surface_mut(app)
                .unwrap()
                .buffer_mut()
                .fill(Pixel::grey(30));
            let s = sf.surface_mut(bar).unwrap();
            s.set_z_order(1);
            s.set_bounds(Rect::new(0, 0, 16, 2));
            s.set_opaque(false);
            s.buffer_mut().fill(Pixel::rgba(255, 255, 255, 96));
        }

        let steps: [(usize, Rect, Pixel); 4] = [
            (0, Rect::new(2, 4, 5, 5), Pixel::WHITE),
            (0, Rect::new(0, 0, 16, 1), Pixel::grey(200)), // under the bar
            (1, Rect::new(3, 0, 4, 2), Pixel::rgba(0, 255, 0, 128)),
            (0, Rect::new(10, 10, 3, 3), Pixel::grey(99)),
        ];
        for (n, (surface, rect, colour)) in steps.iter().enumerate() {
            for sf in [&mut fast, &mut naive] {
                let id = SurfaceId::new(*surface);
                sf.surface_mut(id)
                    .unwrap()
                    .buffer_mut()
                    .fill_rect(*rect, *colour);
                sf.submit(id, SimTime::from_millis(n as u64 * 16), true)
                    .unwrap();
                sf.compose(SimTime::from_millis(n as u64 * 16 + 8));
            }
            assert!(
                fast.framebuffer().pixels().eq(naive.framebuffer().pixels()),
                "framebuffers diverged at step {n}"
            );
        }
    }

    #[test]
    fn layout_change_forces_full_recompose() {
        use ccdem_pixelbuf::geometry::Rect;
        let res = Resolution::new(8, 8);
        let mut sf = SurfaceFlinger::new(res);
        let app = sf.create_surface("app");
        let pip = sf.create_surface("pip");
        sf.surface_mut(app)
            .unwrap()
            .buffer_mut()
            .fill(Pixel::grey(20));
        {
            let s = sf.surface_mut(pip).unwrap();
            s.set_z_order(1);
            s.set_bounds(Rect::new(0, 0, 4, 4));
            s.buffer_mut().fill(Pixel::WHITE);
        }
        sf.submit(app, SimTime::from_millis(1), true).unwrap();
        sf.compose(SimTime::from_millis(8));
        assert_eq!(sf.framebuffer().pixel(1, 1), Pixel::WHITE);

        // Hiding the overlay must repaint its old pixels from the app
        // surface even though nobody drew anything new.
        sf.surface_mut(pip).unwrap().set_visible(false);
        sf.submit(app, SimTime::from_millis(20), true).unwrap();
        match sf.compose(SimTime::from_millis(24)) {
            ComposeOutcome::Composed { damage, .. } => {
                assert_eq!(damage.bounding(), res.bounds());
            }
            other => panic!("expected compose, got {other:?}"),
        }
        assert_eq!(sf.framebuffer().pixel(1, 1), Pixel::grey(20));
    }

    #[test]
    fn unknown_surface_errors() {
        let (mut sf, _) = flinger();
        let bogus = SurfaceId::new(99);
        assert!(sf.submit(bogus, SimTime::ZERO, true).is_err());
        assert!(sf.surface(bogus).is_err());
        let err = sf.surface_mut(bogus).unwrap_err();
        assert_eq!(err.to_string(), "unknown surface#99");
    }

    #[test]
    fn compose_propagates_tile_signatures() {
        use ccdem_pixelbuf::geometry::Rect;
        use ccdem_pixelbuf::TILE_SIZE as T;
        // The compositor's blits maintain the framebuffer's per-tile
        // content signatures for free: opaque copies inherit the source
        // surface's provable solidity, translucent blends degrade the
        // blended tiles to unknown.
        let res = Resolution::new(2 * T, 2 * T); // 2×2 tiles
        let mut sf = SurfaceFlinger::new(res);
        let base = sf.create_surface("base");
        sf.surface_mut(base)
            .unwrap()
            .buffer_mut()
            .fill(Pixel::grey(30));
        sf.submit(base, SimTime::ZERO, true).unwrap();
        sf.compose(SimTime::ZERO);
        let tiles = sf.framebuffer().tiles();
        for ty in 0..2 {
            for tx in 0..2 {
                assert_eq!(
                    tiles.tile(tx, ty).solid,
                    Some(Pixel::grey(30)),
                    "tile ({tx},{ty}) after opaque full-screen compose"
                );
            }
        }

        // A translucent overlay over the top-left tile degrades exactly
        // the blended tile; the copied tiles stay provably solid.
        let overlay = sf.create_surface("overlay");
        {
            let s = sf.surface_mut(overlay).unwrap();
            s.set_bounds(Rect::new(0, 0, T, T));
            s.set_opaque(false);
            s.set_z_order(1);
            s.buffer_mut().fill(Pixel::rgba(255, 255, 255, 128));
        }
        sf.submit(overlay, SimTime::from_millis(16), true).unwrap();
        sf.compose(SimTime::from_millis(16));
        let tiles = sf.framebuffer().tiles();
        assert_eq!(tiles.tile(0, 0).solid, None, "blended tile is unknown");
        for (tx, ty) in [(1, 0), (0, 1), (1, 1)] {
            assert_eq!(tiles.tile(tx, ty).solid, Some(Pixel::grey(30)));
        }

        // Incremental compose: a draw confined to the bottom-right tile
        // recomposes only that region, and the tile-covering copy
        // inherits the surface tile's new solid colour.
        sf.surface_mut(base)
            .unwrap()
            .buffer_mut()
            .fill_rect(Rect::new(T, T, T, T), Pixel::grey(55));
        sf.submit(base, SimTime::from_millis(33), true).unwrap();
        sf.compose(SimTime::from_millis(33));
        let tiles = sf.framebuffer().tiles();
        assert_eq!(tiles.tile(1, 1).solid, Some(Pixel::grey(55)));
        assert_eq!(tiles.tile(1, 0).solid, Some(Pixel::grey(30)));
        assert_eq!(tiles.tile(0, 0).solid, None);
    }

    #[test]
    fn vsync_caps_frame_rate_at_refresh_rate() {
        // 60 submissions in one second, composed on 20 Hz edges -> 20
        // composed frames. This is the V-Sync feedback the paper's
        // section table works around.
        let (mut sf, id) = flinger();
        let mut edges = 0;
        for ms in 0..1000u64 {
            if ms % 17 == 0 {
                sf.submit(id, SimTime::from_millis(ms), true).unwrap();
            }
            if ms % 50 == 49 {
                sf.compose(SimTime::from_millis(ms));
                edges += 1;
            }
        }
        assert_eq!(edges, 20);
        assert_eq!(sf.stats().composed().count(), 20);
        assert!(sf.stats().submissions().count() > 50);
    }
}
