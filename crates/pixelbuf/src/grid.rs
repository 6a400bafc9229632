//! Grid-based framebuffer comparison (paper §3.1).
//!
//! Comparing every pixel of a modern panel is too slow to run per frame
//! (Fig. 6: > 40 ms at 720×1280, against a 16.67 ms frame budget at 60 Hz).
//! The paper instead samples the *centre pixel of each cell* of a coarse
//! grid laid over the screen and treats that pixel as representative of the
//! cell.
//!
//! A meter step compares the grid points a frame may have changed with a
//! snapshot of the previous frame, stops comparing at the first
//! difference, and refreshes the snapshot. The sampler has one gather
//! that does this per frame and one oracle that defines it:
//!
//! * [`GridSampler::compare_and_capture_tiled`], the production gather,
//!   consults the buffer's tile signatures first. It skips tiles
//!   unwritten since the last observation, compares a provably solid
//!   tile's points against its colour (a `fill` refreshes them), and
//!   reads pixel storage only in tiles of unknown content: two pixels
//!   per `u64` word along consecutive columns (a `memcpy` refreshes
//!   them), one at a time along strided ones.
//! * [`GridSampler::reference_capture`], the scalar oracle, reads every
//!   grid point inside the damage through [`FrameBuffer::pixel`], one at
//!   a time in row-major order. The production gather is proptested
//!   against it: same verdict, same early-exit point, same snapshot.

use crate::buffer::FrameBuffer;
use crate::damage::DamageRegion;
use crate::geometry::Resolution;
use crate::pixel::Pixel;
use crate::tile::{TileMap, TILE_SIZE};

/// Outcome of one grid comparison: the verdict plus how much work it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridCompare {
    /// Whether any inspected grid point changed.
    pub differs: bool,
    /// Grid points compared against the snapshot before the early exit
    /// (equals the number of candidate points when nothing differed).
    pub points_compared: usize,
    /// Grid points whose framebuffer pixel was actually read, comparisons
    /// and snapshot refreshes combined. This is the per-frame gather cost:
    /// the oracle [`GridSampler::reference_capture`] reads every grid
    /// point inside the damage exactly once; the tiled gather reads only
    /// the points under tiles of unknown content.
    pub points_read: usize,
}

/// Outcome of a tile-gated comparison
/// ([`GridSampler::compare_and_capture_tiled`]): the grid verdict and
/// accounting plus how far the tile signatures pruned the descent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TileCompare {
    /// The verdict and accounting. `differs` and `points_compared` are
    /// bit-identical to what [`GridSampler::reference_capture`] reports
    /// for the same inputs; `points_read` counts only the framebuffer
    /// pixels actually read, which the clean- and solid-tile paths avoid
    /// entirely.
    pub grid: GridCompare,
    /// Tiles whose signature was examined (per damage rect and tile-row
    /// group, so a tile revisited for another rect counts again).
    pub tiles_checked: usize,
    /// Checked tiles whose stamp forced a descent (written since the
    /// last observation).
    pub tiles_descended: usize,
}

/// How a tile's signature resolves for one observation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TileKind {
    /// Stamp at most the last observed content generation: the tile's
    /// pixels are unchanged since the snapshot was captured.
    Clean,
    /// Written since, but provably this exact colour everywhere.
    Solid(Pixel),
    /// Written since, content unknown: descend to pixel compares.
    Unknown,
}

fn tile_kind(tiles: &TileMap, tx: u32, ty: u32, last_content_generation: u64) -> TileKind {
    let t = tiles.tile(tx, ty);
    if t.stamp <= last_content_generation {
        TileKind::Clean
    } else if let Some(c) = t.solid {
        TileKind::Solid(c)
    } else {
        TileKind::Unknown
    }
}

/// Packs two pixels into one comparison word: dense runs compare two
/// pixels per `u64` instead of one at a time. Only equality is ever
/// asked of the word, so byte order inside it is irrelevant.
fn word(pair: &[Pixel]) -> u64 {
    pair.iter()
        .fold(0u64, |w, p| (w << 32) | u64::from(p.to_bits()))
}

/// Index of the first differing sample between a dense (stride-1) window
/// and its snapshot slots. Compares two pixels per `u64` word via
/// `chunks_exact(2)`, handles the odd-length tail scalar, and locates
/// the exact first-differing pixel inside a mismatching word so early
/// exit accounting is bit-identical to a scalar sweep.
fn first_diff_dense(window: &[Pixel], prev: &[Pixel]) -> Option<usize> {
    debug_assert_eq!(window.len(), prev.len());
    if window == prev {
        // Bulk equality is the common (redundant-frame) case and
        // vectorizes to a plain memory compare.
        return None;
    }
    let mut cur = window.chunks_exact(2);
    let mut old = prev.chunks_exact(2);
    let mut n = 0usize;
    for (c, p) in cur.by_ref().zip(old.by_ref()) {
        if word(c) != word(p) {
            // If the words differ but their first pixels agree, the
            // difference sits at the second pixel of the word.
            return Some(n + usize::from(c.first() == p.first()));
        }
        n += 2;
    }
    cur.remainder()
        .iter()
        .zip(old.remainder())
        .position(|(a, b)| a != b)
        .map(|k| n + k)
}

/// Precomputed sample positions for grid-based comparison.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::damage::DamageRegion;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::grid::GridSampler;
/// use ccdem_pixelbuf::pixel::Pixel;
///
/// let res = Resolution::GALAXY_S3;
/// // The paper's 9K-pixel configuration: a 72×128 grid.
/// let sampler = GridSampler::new(res, 72, 128);
/// assert_eq!(sampler.sample_count(), 9216);
///
/// let mut fb = FrameBuffer::new(res);
/// let mut snapshot = sampler.sample(&fb);
/// fb.fill(Pixel::WHITE);
/// let everything = DamageRegion::of(res.bounds());
/// assert!(sampler.reference_capture(&fb, &everything, &mut snapshot).differs);
/// assert_eq!(snapshot, sampler.sample(&fb)); // refreshed
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GridSampler {
    resolution: Resolution,
    cols: u32,
    rows: u32,
    /// Sample x-coordinate of each grid column, strictly increasing.
    col_xs: Vec<u32>,
    /// Sample y-coordinate of each grid row, strictly increasing.
    row_ys: Vec<u32>,
}

impl GridSampler {
    /// Creates a sampler with a `cols`×`rows` grid over `resolution`,
    /// sampling the centre pixel of each cell.
    ///
    /// # Panics
    ///
    /// Panics if `cols`/`rows` is zero or exceeds the resolution.
    pub fn new(resolution: Resolution, cols: u32, rows: u32) -> GridSampler {
        assert!(cols > 0 && rows > 0, "grid dimensions must be non-zero");
        assert!(
            cols <= resolution.width && rows <= resolution.height,
            "grid {cols}x{rows} exceeds resolution {resolution}"
        );
        // Centre of each cell, in pixel coordinates. Both axes are
        // strictly increasing (the cell pitch is at least one pixel), so
        // damage rectangles map to grid index ranges by binary search.
        let col_xs: Vec<u32> = (0..cols)
            .map(|gx| ((2 * gx + 1) * resolution.width) / (2 * cols))
            .collect();
        let row_ys: Vec<u32> = (0..rows)
            .map(|gy| ((2 * gy + 1) * resolution.height) / (2 * rows))
            .collect();
        GridSampler {
            resolution,
            cols,
            rows,
            col_xs,
            row_ys,
        }
    }

    /// Creates a sampler that compares every pixel (the grid equals the
    /// resolution). This is the Fig. 6 "921K" configuration.
    pub fn full(resolution: Resolution) -> GridSampler {
        GridSampler::new(resolution, resolution.width, resolution.height)
    }

    /// Creates a sampler whose sample count is at most `budget` pixels,
    /// with the grid shaped to the screen's aspect ratio.
    ///
    /// For the Galaxy S3 (720×1280) the paper's budgets map to:
    /// 2304 → 36×64, 9216 → 72×128, 36864 → 144×256.
    ///
    /// Degenerate inputs are handled exactly rather than panicking: a
    /// zero budget yields the minimal 1×1 sampler (one centre point), a
    /// budget of at least the pixel count yields the full-resolution
    /// sampler, and single-row / single-column screens get `budget`
    /// samples along their one axis.
    pub fn for_pixel_budget(resolution: Resolution, budget: usize) -> GridSampler {
        if budget >= resolution.pixel_count() {
            return GridSampler::full(resolution);
        }
        // Even a zero budget needs a usable sampler: one centre point.
        let budget = budget.max(1);
        let aspect = f64::from(resolution.width) / f64::from(resolution.height);
        // Capping cols at the budget makes extreme aspect ratios exact
        // (a 1-pixel-tall screen gets `budget`×1) and guarantees the
        // rounding guard below can never underflow cols past 1.
        let mut cols = ((budget as f64 * aspect).sqrt().floor() as u32)
            .clamp(1, resolution.width)
            .min(budget.min(resolution.width as usize) as u32);
        let mut rows = ((budget / cols as usize) as u32).clamp(1, resolution.height);
        // Guard rounding: never exceed the budget.
        while (cols as usize) * (rows as usize) > budget {
            if rows > 1 {
                rows -= 1;
            } else {
                cols -= 1;
            }
        }
        GridSampler::new(resolution, cols, rows)
    }

    /// The resolution this sampler was built for.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// Grid width in cells.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Grid height in cells.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// Number of pixels compared per frame.
    pub fn sample_count(&self) -> usize {
        (self.cols as usize) * (self.rows as usize)
    }

    /// Gathers the sampled pixels of `buffer` into a new vector.
    ///
    /// **Allocation contract:** allocates a fresh vector on every call.
    /// That is fine for tests and one-off setup, but never for per-frame
    /// paths — hot callers hold a reusable scratch vector and call
    /// [`sample_into`](Self::sample_into) instead.
    ///
    /// # Panics
    ///
    /// Panics if the buffer resolution does not match the sampler's.
    pub fn sample(&self, buffer: &FrameBuffer) -> Vec<Pixel> {
        let mut out = Vec::new();
        self.sample_into(buffer, &mut out);
        out
    }

    /// Gathers the sampled pixels of `buffer` into `out`, in grid order,
    /// resizing it to [`sample_count`](Self::sample_count). Every slot of
    /// `out` is overwritten, so recycled storage needs no clearing first.
    /// The meter primes its snapshot with this, once per run.
    ///
    /// **Allocation contract:** allocation-free once `out` has reached
    /// capacity, so a recycled snapshot — the double-buffering "extra
    /// buffer" of §3.1 — is primed without allocating.
    ///
    /// # Panics
    ///
    /// Panics if the buffer resolution does not match the sampler's.
    pub fn sample_into(&self, buffer: &FrameBuffer, out: &mut Vec<Pixel>) {
        self.check_buffer(buffer);
        out.resize(self.sample_count(), Pixel::TRANSPARENT);
        for ((x, y), slot) in self.positions().zip(out.iter_mut()) {
            *slot = buffer.pixel(x, y);
        }
    }

    /// The scalar oracle of a meter step, which defines the verdict every
    /// gather must reproduce. For each rect of `damage` in order, it
    /// takes each grid point inside the rect in row-major order, reads it
    /// through [`FrameBuffer::pixel`], compares it with its `snapshot`
    /// slot until the first difference, and writes it back.
    ///
    /// `points_compared` counts the comparisons up to and including the
    /// first difference; `points_read` counts every point inside the
    /// damage. With the whole screen as damage this is the naive meter
    /// step: n reads per frame.
    ///
    /// **Soundness contract:** `damage` must cover every pixel of `buffer`
    /// written since `snapshot` was last captured (the guarantee
    /// [`FrameBuffer::take_damage`] provides). Points outside it are then
    /// unchanged, so skipping them cannot alter the verdict and the
    /// snapshot stays current everywhere.
    ///
    /// # Panics
    ///
    /// Panics if resolutions mismatch or `snapshot` has the wrong length.
    pub fn reference_capture(
        &self,
        buffer: &FrameBuffer,
        damage: &DamageRegion,
        snapshot: &mut [Pixel],
    ) -> GridCompare {
        self.check_snapshot(buffer, snapshot);
        let cols = self.cols as usize;
        let mut result = GridCompare {
            differs: false,
            points_compared: 0,
            points_read: 0,
        };
        for rect in damage.rects() {
            let (gx0, gx1) = Self::axis_range(&self.col_xs, rect.x, rect.right());
            let (gy0, gy1) = Self::axis_range(&self.row_ys, rect.y, rect.bottom());
            for (gy, &y) in self.row_ys.iter().enumerate().take(gy1).skip(gy0) {
                for (gx, &x) in self.col_xs.iter().enumerate().take(gx1).skip(gx0) {
                    let Some(slot) = snapshot.get_mut(gy * cols + gx) else {
                        continue;
                    };
                    let pixel = buffer.pixel(x, y);
                    result.points_read += 1;
                    if !result.differs {
                        result.points_compared += 1;
                        result.differs = pixel != *slot;
                    }
                    *slot = pixel;
                }
            }
        }
        result
    }

    /// The production meter step: [`reference_capture`][oracle]'s
    /// verdict, gated by the buffer's per-tile content signatures before
    /// it touches pixels. Tiles unwritten since the last observation are
    /// skipped outright and provably-solid tiles are compared against
    /// their constant colour with **zero framebuffer reads** (the
    /// snapshot refresh is a `fill`, not a gather). Only tiles with
    /// unknown content descend to the pixel storage. Both pruning
    /// mechanisms compose: the walk covers the intersection of the
    /// damage region with the dirty tiles.
    ///
    /// Signatures gate *descent only*, never equality: `differs`,
    /// `points_compared` (including the early-exit point), and the
    /// refreshed snapshot bytes are bit-identical to
    /// [`reference_capture`][oracle] on the same inputs. A stale or
    /// overly pessimistic signature can only cost an extra descent.
    /// Internally the per-rect walk is segment-major (each tile-row
    /// group classifies its tile columns once), so the row-major
    /// early-exit point is recovered as the lexicographically smallest
    /// `(row, column)` difference across segments — comparisons have no
    /// side effects, which makes the reordering observationally
    /// invisible.
    ///
    /// **Soundness contract:** in addition to the damage contract of
    /// [`reference_capture`][oracle], `snapshot` must be current as of
    /// `last_content_generation` — every grid point equal to the
    /// buffer's pixel as it stood at that content generation. The meter
    /// maintains exactly this by capturing on every observation; tiles
    /// stamped at or before that generation are then both unchanged and
    /// already correctly snapshotted.
    ///
    /// [oracle]: Self::reference_capture
    ///
    /// # Panics
    ///
    /// Panics if resolutions mismatch or `snapshot` has the wrong length.
    pub fn compare_and_capture_tiled(
        &self,
        buffer: &FrameBuffer,
        damage: &DamageRegion,
        last_content_generation: u64,
        snapshot: &mut [Pixel],
    ) -> TileCompare {
        self.check_snapshot(buffer, snapshot);
        let pixels = buffer.storage();
        let tiles = buffer.tiles();
        let w = self.resolution.width as usize;
        let cols = self.cols as usize;
        let mut differs = false;
        let mut points_compared = 0;
        let mut points_read = 0;
        let mut tiles_checked = 0;
        let mut tiles_descended = 0;
        for rect in damage.rects() {
            let (gx0, gx1) = Self::axis_range(&self.col_xs, rect.x, rect.right());
            let (gy0, gy1) = Self::axis_range(&self.row_ys, rect.y, rect.bottom());
            let Some(xs) = self.col_xs.get(gx0..gx1) else {
                continue;
            };
            if xs.is_empty() || gy0 >= gy1 {
                continue; // no sampled point inside this rect
            }
            let n_cols = xs.len();
            // The row-major first differing point of this rect as
            // (row offset within [gy0, gy1), column offset within xs) —
            // the lexicographic minimum over all segment candidates,
            // from which the early-exit accounting is reconstructed.
            let mut first: Option<(usize, usize)> = None;
            // Group consecutive grid rows sharing a tile row, so each
            // tile column is classified once per group, not per row.
            let mut g = gy0;
            while g < gy1 {
                // ccdem-lint: allow(panic) — g < gy1 ≤ row_ys.len() by
                // construction of the axis range.
                let ty = self.row_ys[g] / TILE_SIZE;
                let mut g_end = g + 1;
                // ccdem-lint: allow(panic) — same bound as above.
                while g_end < gy1 && self.row_ys[g_end] / TILE_SIZE == ty {
                    g_end += 1;
                }
                // Walk the sampled columns, coalescing runs of same-kind
                // tiles into segments handled in one sweep each.
                let mut s0 = 0usize;
                while s0 < n_cols {
                    // ccdem-lint: allow(panic) — s0 < n_cols = xs.len().
                    let mut last_tx = xs[s0] / TILE_SIZE;
                    let kind = tile_kind(tiles, last_tx, ty, last_content_generation);
                    let mut seg_tiles = 1usize;
                    let mut s1 = s0 + 1;
                    while s1 < n_cols {
                        // ccdem-lint: allow(panic) — s1 < n_cols.
                        let tx = xs[s1] / TILE_SIZE;
                        if tx != last_tx {
                            if tile_kind(tiles, tx, ty, last_content_generation) != kind {
                                break;
                            }
                            seg_tiles += 1;
                            last_tx = tx;
                        }
                        s1 += 1;
                    }
                    tiles_checked += seg_tiles;
                    match kind {
                        TileKind::Clean => {
                            // Unwritten since the last observation: the
                            // pixels are unchanged and the snapshot is
                            // still current here, so the (equal) outcome
                            // is known without reading or writing.
                        }
                        TileKind::Solid(c) => {
                            tiles_descended += seg_tiles;
                            // Every framebuffer pixel under this segment
                            // provably holds `c`: compare the snapshot
                            // slots against the constant and refresh
                            // with a fill — zero framebuffer reads.
                            for gy in g..g_end {
                                let snap_start = gy * cols + gx0 + s0;
                                // ccdem-lint: allow(panic) — snapshot
                                // length is checked against
                                // sample_count() and gx0 + s1 ≤ cols.
                                let snap = &mut snapshot[snap_start..snap_start + (s1 - s0)];
                                if !differs && first.is_none_or(|(r, _)| gy - gy0 < r) {
                                    if let Some(k) = snap.iter().position(|&s| s != c) {
                                        first = Some((gy - gy0, s0 + k));
                                        snap.fill(c);
                                    }
                                    // Equal: the slots already hold `c`.
                                } else {
                                    snap.fill(c);
                                }
                            }
                        }
                        TileKind::Unknown => {
                            tiles_descended += seg_tiles;
                            // Unknown content: descend to the pixel
                            // storage over this segment's columns.
                            // ccdem-lint: allow(panic) — s0 < s1 ≤
                            // n_cols = xs.len() (segment bounds).
                            let seg_xs = &xs[s0..s1];
                            let (Some(&first_x), Some(&last_x)) =
                                (seg_xs.first(), seg_xs.last())
                            else {
                                unreachable!("segments are non-empty");
                            };
                            let dense = (last_x - first_x) as usize == seg_xs.len() - 1;
                            for (gy, &y) in
                                self.row_ys.iter().enumerate().take(g_end).skip(g)
                            {
                                let row_start = (y as usize) * w + first_x as usize;
                                let row_end = (y as usize) * w + last_x as usize;
                                // ccdem-lint: allow(panic) — in-bounds:
                                // cell centres lie inside the buffer.
                                let window = &pixels[row_start..=row_end];
                                let snap_start = gy * cols + gx0 + s0;
                                // ccdem-lint: allow(panic) — see the
                                // solid-segment bound above.
                                let snap = &mut snapshot[snap_start..snap_start + seg_xs.len()];
                                points_read += seg_xs.len();
                                let live =
                                    !differs && first.is_none_or(|(r, _)| gy - gy0 < r);
                                if dense {
                                    if live {
                                        if let Some(k) = first_diff_dense(window, snap) {
                                            first = Some((gy - gy0, s0 + k));
                                            snap.copy_from_slice(window);
                                        }
                                        // Equal runs are not rewritten.
                                    } else {
                                        snap.copy_from_slice(window);
                                    }
                                } else if live {
                                    let hit = seg_xs.iter().zip(snap.iter()).position(
                                        |(&x, s)| {
                                            // ccdem-lint: allow(panic) — x ∈
                                            // [first_x, last_x] by
                                            // construction.
                                            window[(x - first_x) as usize] != *s
                                        },
                                    );
                                    if let Some(k) = hit {
                                        first = Some((gy - gy0, s0 + k));
                                        for (&x, slot) in seg_xs.iter().zip(snap.iter_mut())
                                        {
                                            // ccdem-lint: allow(panic) — see
                                            // above.
                                            *slot = window[(x - first_x) as usize];
                                        }
                                    }
                                } else {
                                    for (&x, slot) in seg_xs.iter().zip(snap.iter_mut()) {
                                        // ccdem-lint: allow(panic) — see
                                        // above.
                                        *slot = window[(x - first_x) as usize];
                                    }
                                }
                            }
                        }
                    }
                    s0 = s1;
                }
                g = g_end;
            }
            // Reconstruct the row-major early-exit accounting from the
            // lexicographically first difference, exactly as the
            // row-major walk would have charged it.
            if !differs {
                match first {
                    Some((r, k)) => {
                        differs = true;
                        points_compared += r * n_cols + k + 1;
                    }
                    None => points_compared += (gy1 - gy0) * n_cols,
                }
            }
        }
        TileCompare {
            grid: GridCompare {
                differs,
                points_compared,
                points_read,
            },
            tiles_checked,
            tiles_descended,
        }
    }

    /// The `(x, y)` screen position of each sample point, in grid order,
    /// without allocating.
    pub fn positions(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        let cols = &self.col_xs;
        self.row_ys
            .iter()
            .flat_map(move |&y| cols.iter().map(move |&x| (x, y)))
    }

    /// The half-open range of grid indices whose sample coordinate lies in
    /// `[lo, hi)`, on one strictly increasing axis.
    fn axis_range(coords: &[u32], lo: u32, hi: u32) -> (usize, usize) {
        let start = coords.partition_point(|&c| c < lo);
        let end = coords.partition_point(|&c| c < hi);
        (start, end)
    }

    fn check_buffer(&self, buffer: &FrameBuffer) {
        assert_eq!(
            buffer.resolution(),
            self.resolution,
            "buffer resolution does not match sampler"
        );
    }

    fn check_snapshot(&self, buffer: &FrameBuffer, snapshot: &[Pixel]) {
        self.check_buffer(buffer);
        assert_eq!(
            snapshot.len(),
            self.sample_count(),
            "previous sample has wrong length"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    /// The oracle with the whole screen as damage: the naive meter step.
    fn whole_screen(g: &GridSampler, fb: &FrameBuffer, snap: &mut [Pixel]) -> GridCompare {
        g.reference_capture(fb, &DamageRegion::of(g.resolution().bounds()), snap)
    }

    #[test]
    fn paper_grid_dimensions() {
        let res = Resolution::GALAXY_S3;
        assert_eq!(GridSampler::new(res, 36, 64).sample_count(), 2304);
        assert_eq!(GridSampler::new(res, 48, 85).sample_count(), 4080);
        assert_eq!(GridSampler::new(res, 72, 128).sample_count(), 9216);
        assert_eq!(GridSampler::new(res, 144, 256).sample_count(), 36864);
        assert_eq!(GridSampler::full(res).sample_count(), 921_600);
    }

    #[test]
    fn budget_sampler_respects_budget_and_aspect() {
        let res = Resolution::GALAXY_S3;
        for budget in [2304usize, 4080, 9216, 36864, 100_000] {
            let g = GridSampler::for_pixel_budget(res, budget);
            assert!(g.sample_count() <= budget, "budget {budget} exceeded");
            assert!(g.sample_count() * 2 > budget, "budget {budget} underused");
        }
        let full = GridSampler::for_pixel_budget(res, usize::MAX);
        assert_eq!(full.sample_count(), res.pixel_count());
    }

    #[test]
    fn budget_9216_matches_paper_grid() {
        let g = GridSampler::for_pixel_budget(Resolution::GALAXY_S3, 9216);
        assert_eq!((g.cols(), g.rows()), (72, 128));
    }

    #[test]
    fn gathers_read_solid_tiles_through_their_signature() {
        // Mixed storage on one row: a solid tile, a materialized
        // (unknown) tile and a solid edge tile. Every gather must see
        // the resolved colours, never the stale slots of a solid tile.
        let res = Resolution::new(150, 70); // 3×2 tiles, uneven edges
        for g in [GridSampler::full(res), GridSampler::new(res, 47, 13)] {
            let mut fb = FrameBuffer::new(res);
            fb.fill(Pixel::grey(90));
            fb.fill_rect(Rect::new(70, 5, 9, 9), Pixel::WHITE);
            fb.fill(Pixel::grey(30)); // every slot now stale
            fb.fill_rect(Rect::new(64, 0, 64, 64), Pixel::grey(60));
            fb.set_pixel(66, 33, Pixel::WHITE); // materializes tile (1, 0)
            let expected: Vec<Pixel> = g.positions().map(|(x, y)| fb.pixel(x, y)).collect();
            assert_eq!(g.sample(&fb), expected);
            let mut same = expected.clone();
            let r = whole_screen(&g, &fb, &mut same);
            assert!(!r.differs);
            assert_eq!(r.points_read, g.sample_count());
            // From a blank buffer's snapshot every tile has been written
            // since, so the tiled gather refreshes every slot.
            let blank = FrameBuffer::new(res);
            let mut tiled = g.sample(&blank);
            let all = DamageRegion::of(res.bounds());
            let r = g.compare_and_capture_tiled(&fb, &all, blank.content_generation(), &mut tiled);
            assert!(r.grid.differs);
            assert_eq!(r.grid.points_compared, 1);
            assert_eq!(tiled, expected);
        }
    }

    #[test]
    fn dense_compare_locates_every_first_diff_exactly() {
        // Odd width: every full-sampler row window has an odd tail after
        // the two-pixel words, and diffs land on both word halves.
        // The one set_pixel leaves the single tile of unknown content, so
        // the tiled gather descends into one dense window per row.
        let res = Resolution::new(7, 3);
        let g = GridSampler::full(res);
        let all = DamageRegion::of(res.bounds());
        let fb = FrameBuffer::new(res);
        let snap = g.sample(&fb);
        for p in 0..g.sample_count() {
            let (x, y) = ((p % 7) as u32, (p / 7) as u32);
            let mut fb2 = fb.clone();
            fb2.set_pixel(x, y, Pixel::WHITE);
            let mut tiled = snap.clone();
            let r = g.compare_and_capture_tiled(&fb2, &all, fb.content_generation(), &mut tiled);
            assert!(r.grid.differs);
            assert_eq!(r.grid.points_compared, p + 1, "first diff at point {p}");
            assert_eq!(r.grid.points_read, g.sample_count());
            let mut oracle = snap.clone();
            assert_eq!(whole_screen(&g, &fb2, &mut oracle), r.grid, "oracle at point {p}");
            assert_eq!(tiled, oracle, "snapshot bytes after {p}");
            assert_eq!(tiled, g.sample(&fb2), "snapshot current after {p}");
        }
    }

    #[test]
    fn positions_are_cell_centres_in_bounds() {
        let res = Resolution::new(100, 200);
        let g = GridSampler::new(res, 10, 20);
        for (x, y) in g.positions() {
            assert!(res.contains(x, y));
        }
        // First cell centre of a 10-col grid over 100px is pixel 5.
        assert_eq!(g.positions().next(), Some((5, 5)));
        assert_eq!(g.positions().count(), g.sample_count());
    }

    /// A buffer whose column `x` is filled with a colour encoding `x`.
    fn column_coded(res: Resolution) -> FrameBuffer {
        let mut fb = FrameBuffer::new(res);
        for x in 0..res.width {
            fb.fill_rect(Rect::new(x, 0, 1, res.height), Pixel::rgb(x as u8, (x >> 8) as u8, 1));
        }
        fb
    }

    /// The columns a gather actually read on its first sampled row.
    fn sampled_columns(g: &GridSampler, fb: &FrameBuffer) -> Vec<u32> {
        g.sample(fb)
            .iter()
            .take(g.cols as usize)
            .map(|p| u32::from(p.red()) | u32::from(p.green()) << 8)
            .collect()
    }

    #[test]
    fn divisor_grids_sample_equal_stride_columns() {
        // 720 divides evenly by every paper column count, so the S3's
        // 36 column centres sit 20 px apart from x = 10.
        let res = Resolution::GALAXY_S3;
        let g = GridSampler::new(res, 36, 64);
        let expected: Vec<u32> = (0..36).map(|k| 10 + 20 * k).collect();
        assert_eq!(g.col_xs, expected);
        assert_eq!(g.row_ys, (0..64).map(|k| 10 + 20 * k).collect::<Vec<u32>>());
        let fb = column_coded(res);
        assert_eq!(sampled_columns(&g, &fb), expected);
        // The full sampler reads every column.
        let full = GridSampler::full(res);
        let every: Vec<u32> = (0..720).collect();
        assert_eq!(full.col_xs, every);
        assert_eq!(sampled_columns(&full, &fb), every);
    }

    #[test]
    fn non_divisor_grids_sample_exact_cell_centres() {
        // 47 columns over 100 px: the pitch is not an integer, so the
        // centres ((2gx + 1)·W) / (2C) step by 2 or 3 pixels.
        let res = Resolution::new(100, 10);
        let g = GridSampler::new(res, 47, 5);
        let expected: Vec<u32> = (0..47).map(|gx| ((2 * gx + 1) * 100) / 94).collect();
        assert_eq!(g.col_xs, expected);
        assert_eq!(&expected[..6], &[1, 3, 5, 7, 9, 11]);
        assert_eq!(expected.last(), Some(&98));
        let steps: Vec<u32> = expected.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(steps.contains(&2) && steps.contains(&3));
        assert!(steps.iter().all(|s| (2..=3).contains(s)));
        assert_eq!(sampled_columns(&g, &column_coded(res)), expected);
        // Every sampled row walks the same columns, in grid order.
        let positions: Vec<(u32, u32)> = g.positions().collect();
        let grid: Vec<(u32, u32)> = g
            .row_ys
            .iter()
            .flat_map(|&y| expected.iter().map(move |&x| (x, y)))
            .collect();
        assert_eq!(positions, grid);
    }

    #[test]
    fn identical_buffers_do_not_differ() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 1000);
        let fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        let r = whole_screen(&g, &fb, &mut snap);
        assert!(!r.differs);
        assert_eq!(r.points_compared, g.sample_count(), "a redundant frame compares all");
    }

    #[test]
    fn full_screen_change_detected() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 1000);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        fb.fill(Pixel::WHITE);
        let r = whole_screen(&g, &fb, &mut snap);
        assert!(r.differs);
        assert_eq!(r.points_compared, 1, "the first point already differs");
        assert_eq!(r.points_read, g.sample_count(), "…but every point is refreshed");
        assert_eq!(snap, g.sample(&fb));
    }

    #[test]
    fn tiny_change_between_grid_points_is_missed() {
        // This is the Fig. 6 failure mode for coarse grids: a change
        // smaller than a grid cell that avoids every sample point.
        let res = Resolution::new(100, 100);
        let g = GridSampler::new(res, 2, 2); // samples at (25,25),(75,25),...
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        fb.fill_rect(Rect::new(0, 0, 3, 3), Pixel::WHITE);
        let coarse = whole_screen(&g, &fb, &mut snap);
        assert!(!coarse.differs, "coarse grid should miss a 3x3 change");
        // The full sampler never misses.
        let full = GridSampler::full(res);
        let mut fb2 = FrameBuffer::new(res);
        let mut snap2 = full.sample(&fb2);
        fb2.fill_rect(Rect::new(0, 0, 3, 3), Pixel::WHITE);
        assert!(whole_screen(&full, &fb2, &mut snap2).differs);
    }

    #[test]
    fn sample_into_reuses_allocation() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let fb = FrameBuffer::new(res);
        let mut buf = Vec::new();
        g.sample_into(&fb, &mut buf);
        assert_eq!(buf.len(), g.sample_count());
        let ptr = buf.as_ptr();
        g.sample_into(&fb, &mut buf);
        assert_eq!(buf.as_ptr(), ptr, "no reallocation expected");
    }

    #[test]
    fn damaged_capture_reads_only_damaged_points() {
        let res = Resolution::new(100, 100);
        let g = GridSampler::new(res, 10, 10); // samples at 5, 15, …, 95
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);

        let mut tiled = snap.clone();
        let lcg = fb.content_generation();

        // A 20×20 write covers exactly a 2×2 block of sample points.
        fb.fill_rect(Rect::new(10, 10, 20, 20), Pixel::WHITE);
        let damage = fb.take_damage();
        let r = g.reference_capture(&fb, &damage, &mut snap);
        assert!(r.differs);
        assert_eq!(r.points_read, 4);
        assert_eq!(r.points_compared, 1);
        assert_eq!(snap, g.sample(&fb), "snapshot must stay current");
        // The write leaves its tile unknown: the tiled gather reads the
        // same four points.
        assert_eq!(g.compare_and_capture_tiled(&fb, &damage, lcg, &mut tiled).grid, r);
        assert_eq!(tiled, snap);
    }

    #[test]
    fn damaged_capture_between_sample_points_reads_nothing() {
        let res = Resolution::new(100, 100);
        let g = GridSampler::new(res, 10, 10);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);

        // Damage that dodges every sample point: x in [6, 14), y in [6, 14).
        fb.fill_rect(Rect::new(6, 6, 8, 8), Pixel::WHITE);
        let damage = fb.take_damage();
        let r = g.reference_capture(&fb, &damage, &mut snap);
        assert!(!r.differs, "sub-cell change is invisible to the grid");
        assert_eq!(r.points_read, 0);
        // The full comparison agrees: no sampled point changed.
        assert!(!whole_screen(&g, &fb, &mut snap).differs);
    }

    #[test]
    fn damaged_capture_with_empty_damage_is_free() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        fb.touch();
        let r = g.reference_capture(&fb, &DamageRegion::new(), &mut snap);
        assert_eq!(
            r,
            GridCompare {
                differs: false,
                points_compared: 0,
                points_read: 0
            }
        );
    }

    #[test]
    fn damaged_capture_matches_full_capture_on_multiple_rects() {
        let res = Resolution::new(64, 64);
        let g = GridSampler::new(res, 8, 8);
        let mut fb_a = FrameBuffer::new(res);
        let mut fb_b = FrameBuffer::new(res);
        let mut snap_full = g.sample(&fb_a);
        let mut snap_damaged = snap_full.clone();

        let rects = [
            Rect::new(0, 0, 12, 12),
            Rect::new(30, 30, 9, 9),
            Rect::new(50, 2, 10, 60),
        ];
        let mut damage = DamageRegion::new();
        for r in rects {
            fb_a.fill_rect(r, Pixel::WHITE);
            fb_b.fill_rect(r, Pixel::WHITE);
            damage.add(r);
        }
        let full = whole_screen(&g, &fb_a, &mut snap_full);
        let restricted = g.reference_capture(&fb_b, &damage, &mut snap_damaged);
        assert_eq!(full.differs, restricted.differs);
        assert!(restricted.points_read < g.sample_count());
        assert_eq!(snap_full, snap_damaged);
    }

    #[test]
    fn damaged_capture_dense_rows_match_strided_reference() {
        // A full sampler sees every damaged column of the tiled gather's
        // unknown tiles as one dense row window; a 47-column sampler over
        // the same screen sees strided, split runs. Both must agree with
        // the oracle and the from-scratch sample.
        let res = Resolution::new(100, 40);
        for g in [GridSampler::full(res), GridSampler::new(res, 47, 13)] {
            let mut fb = FrameBuffer::new(res);
            let mut snap = g.sample(&fb);
            let mut oracle = snap.clone();
            let lcg = fb.content_generation();
            fb.fill_rect(Rect::new(13, 7, 61, 19), Pixel::grey(99));
            let damage = fb.take_damage();
            let r = g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap).grid;
            assert!(r.differs);
            assert_eq!(r, g.reference_capture(&fb, &damage, &mut oracle));
            assert_eq!(snap, oracle);
            assert_eq!(snap, g.sample(&fb), "snapshot current ({}x{})", g.cols(), g.rows());
        }
    }

    #[test]
    fn degenerate_budgets_and_resolutions_are_exact() {
        // Zero budget: panic-free, minimal one-point sampler.
        let g = GridSampler::for_pixel_budget(Resolution::new(100, 100), 0);
        assert_eq!((g.cols(), g.rows()), (1, 1));
        let g = GridSampler::for_pixel_budget(Resolution::new(1, 1), 0);
        assert_eq!(g.sample_count(), 1);
        // Budget of one: the single centre point.
        let g = GridSampler::for_pixel_budget(Resolution::GALAXY_S3, 1);
        assert_eq!((g.cols(), g.rows()), (1, 1));
        // Single-row screen: exactly `budget` samples along the row.
        let g = GridSampler::for_pixel_budget(Resolution::new(100, 1), 4);
        assert_eq!((g.cols(), g.rows()), (4, 1));
        // Single-column screen: exactly `budget` samples down the column.
        let g = GridSampler::for_pixel_budget(Resolution::new(1, 100), 4);
        assert_eq!((g.cols(), g.rows()), (1, 4));
        // Budget at or above the pixel count: the full sampler.
        for budget in [100usize, 101, usize::MAX] {
            let g = GridSampler::for_pixel_budget(Resolution::new(10, 10), budget);
            assert_eq!((g.cols(), g.rows()), (10, 10), "budget {budget}");
        }
        // The paper configuration is unchanged by the hardening.
        let g = GridSampler::for_pixel_budget(Resolution::GALAXY_S3, 9216);
        assert_eq!((g.cols(), g.rows()), (72, 128));
    }

    #[test]
    fn tiled_capture_matches_reference_capture() {
        let res = Resolution::new(200, 150); // 4×3 tiles with uneven edges
        for g in [GridSampler::full(res), GridSampler::new(res, 37, 29)] {
            let mut fb = FrameBuffer::new(res);
            fb.fill(Pixel::grey(20));
            let mut snap_ref = g.sample(&fb);
            let mut snap_tiled = snap_ref.clone();
            fb.take_damage();
            let lcg = fb.content_generation();

            // Mixed frame: a tile-covering solid fill, a small unknown
            // write, and a large untouched (clean) remainder.
            fb.fill_rect(Rect::new(0, 64, 64, 64), Pixel::grey(90));
            fb.fill_rect(Rect::new(130, 10, 17, 9), Pixel::WHITE);
            let damage = fb.take_damage();

            let reference = g.reference_capture(&fb, &damage, &mut snap_ref);
            let tiled =
                g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap_tiled);
            assert_eq!(tiled.grid.differs, reference.differs);
            assert_eq!(tiled.grid.points_compared, reference.points_compared);
            assert_eq!(snap_tiled, snap_ref, "snapshot bytes must match");
            assert!(tiled.grid.points_read <= reference.points_read);
            assert!(tiled.tiles_descended > 0);
            assert!(tiled.tiles_checked >= tiled.tiles_descended);
        }
    }

    #[test]
    fn tiled_capture_resolves_solid_tiles_with_zero_reads() {
        let res = Resolution::GALAXY_S3;
        let g = GridSampler::for_pixel_budget(res, 9216);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        fb.take_damage();
        let lcg = fb.content_generation();
        fb.fill(Pixel::grey(70));
        let damage = fb.take_damage();
        let r = g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap);
        assert!(r.grid.differs);
        assert_eq!(r.grid.points_read, 0, "solid tiles need no pixel reads");
        assert_eq!(r.grid.points_compared, 1, "first point already differs");
        assert_eq!(snap, g.sample(&fb), "snapshot must stay current");
        assert_eq!(r.tiles_checked, 240); // 12×20 tile grid, all checked
        assert_eq!(r.tiles_descended, 240); // … and all written
    }

    #[test]
    fn tiled_capture_skips_clean_tiles_inside_stale_damage() {
        // Damage may over-approximate (merged rects): tiles no write
        // ever touched stay clean and are skipped outright, so the two
        // pruning mechanisms compose instead of fighting.
        let res = Resolution::new(256, 64); // 4×1 tiles
        let g = GridSampler::full(res);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        fb.take_damage();
        let lcg = fb.content_generation();
        fb.set_pixel(0, 0, Pixel::WHITE);
        // Hand the comparator the whole screen as damage: only the one
        // written tile descends.
        let damage = DamageRegion::of(res.bounds());
        let r = g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap);
        assert!(r.grid.differs);
        assert_eq!(r.tiles_checked, 4);
        assert_eq!(r.tiles_descended, 1);
        assert_eq!(r.grid.points_read, 64 * 64, "one tile's points only");
        assert_eq!(snap, g.sample(&fb), "snapshot must stay current");
    }

    #[test]
    fn same_colour_refill_descends_but_stays_equal() {
        // The closest thing to a "signature collision" in this scheme:
        // the stamp says dirty while the content is identical. The cost
        // is a (read-free) descent; the verdict is still unchanged.
        let res = Resolution::new(128, 128); // 2×2 tiles
        let g = GridSampler::new(res, 16, 16);
        let mut fb = FrameBuffer::new(res);
        fb.fill(Pixel::grey(42));
        let mut snap = g.sample(&fb);
        fb.take_damage();
        let lcg = fb.content_generation();
        fb.fill(Pixel::grey(42)); // identical refill: stamps advance
        let damage = fb.take_damage();
        let r = g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap);
        assert!(!r.grid.differs, "identical content is never misclassified");
        assert_eq!(r.grid.points_compared, g.sample_count());
        assert_eq!(r.tiles_descended, 4, "the stamp forces a descent");
        assert_eq!(r.grid.points_read, 0, "…but a solid descent reads nothing");
    }

    #[test]
    fn tiled_capture_with_empty_damage_is_free() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let mut fb = FrameBuffer::new(res);
        let mut snap = g.sample(&fb);
        let lcg = fb.content_generation();
        fb.touch();
        let r = g.compare_and_capture_tiled(&fb, &DamageRegion::new(), lcg, &mut snap);
        assert_eq!(
            r,
            TileCompare {
                grid: GridCompare {
                    differs: false,
                    points_compared: 0,
                    points_read: 0
                },
                tiles_checked: 0,
                tiles_descended: 0,
            }
        );
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn reference_capture_rejects_bad_snapshot() {
        let res = Resolution::QUARTER;
        let g = GridSampler::for_pixel_budget(res, 500);
        let fb = FrameBuffer::new(res);
        let _ = whole_screen(&g, &fb, &mut []);
    }

    #[test]
    #[should_panic(expected = "exceeds resolution")]
    fn grid_larger_than_screen_rejected() {
        let _ = GridSampler::new(Resolution::new(10, 10), 11, 10);
    }
}
