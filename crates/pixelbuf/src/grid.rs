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
//!   steps from tile to tile and consults each tile's signature first.
//!   It skips tiles unwritten since the last observation, compares a
//!   provably solid tile's points against its colour, and reads pixels
//!   only from the blocks of tiles of unknown content.
//! * [`GridSampler::reference_capture`], the scalar oracle, reads every
//!   grid point inside the damage through [`FrameBuffer::pixel`], one at
//!   a time in row-major order. The production gather is proptested
//!   against it: same verdict, same early-exit point, same snapshot.

use std::ops::Range;

use crate::buffer::FrameBuffer;
use crate::damage::DamageRegion;
use crate::geometry::Resolution;
use crate::pixel::Pixel;
use crate::tile::TILE_SIZE;

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

/// One grid axis in one allocation (two would add one to every sampler
/// build): the sample coordinates, strictly increasing, then one entry
/// per tile along the axis and a last one, the index of the tile's first
/// sample, so the samples in tile `t` are `first(t)..first(t + 1)`.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Axis {
    samples: usize,
    data: Vec<u32>,
}

impl Axis {
    /// The centres of `n` cells along an axis `extent` pixels long.
    fn new(n: u32, extent: u32) -> Axis {
        let tiles = extent.div_ceil(TILE_SIZE);
        let mut data = Vec::with_capacity((n + tiles + 1) as usize);
        data.extend((0..n).map(|g| ((2 * g + 1) * extent) / (2 * n)));
        for t in 0..=tiles {
            let coords = data.get(..n as usize).unwrap_or_default();
            let first = coords.partition_point(|&c| c < t * TILE_SIZE);
            data.push(first as u32);
        }
        Axis {
            samples: n as usize,
            data,
        }
    }

    fn coords(&self) -> &[u32] {
        self.data.get(..self.samples).unwrap_or_default()
    }

    fn first(&self, t: usize) -> usize {
        let i = self.data.get(self.samples + t);
        i.map_or(self.samples, |&i| i as usize)
    }

    /// The half-open range of sample indices whose coordinate lies in
    /// `[lo, hi)`.
    fn range(&self, lo: u32, hi: u32) -> Range<usize> {
        let c = self.coords();
        c.partition_point(|&c| c < lo)..c.partition_point(|&c| c < hi)
    }

    /// The tiles holding samples `g`: the first one's through the last
    /// one's.
    fn tiles(&self, g: &Range<usize>) -> Range<usize> {
        let tile = |i: usize| {
            self.coords()
                .get(i)
                .map_or(0, |&c| (c / TILE_SIZE) as usize)
        };
        tile(g.start)..tile(g.end.saturating_sub(1)) + 1
    }

    /// The samples of `g` in tile `t`, empty when it holds none.
    fn in_tile(&self, t: usize, g: &Range<usize>) -> Range<usize> {
        self.first(t).max(g.start)..self.first(t + 1).min(g.end)
    }
}

/// Compares one grid row of side-by-side written tiles of unknown content,
/// sampled at every column from `x0` on, with its snapshot slots `snap`
/// when `live`, up to the first difference, and refreshes every slot from
/// there on (every slot when not `live`), one block row slice per tile:
/// the row at offset `at` of the blocks of tiles `tiles`. Slots that
/// compared equal are not rewritten. Returns the difference's index.
fn dense_row(
    buffer: &FrameBuffer,
    tiles: Range<usize>,
    (x0, at): (u32, usize),
    snap: &mut [Pixel],
    live: bool,
) -> Option<usize> {
    let (mut hit, mut lo, mut done) = (None, (x0 % TILE_SIZE) as usize, 0);
    for i in tiles {
        let n = (TILE_SIZE as usize - lo).min(snap.len() - done);
        let from = buffer.block(i).and_then(|b| b.get(at + lo..at + lo + n));
        let (Some(from), Some(to)) = (from, snap.get_mut(done..done + n)) else {
            break;
        };
        if live && hit.is_none() && from != to {
            let k = from.iter().zip(to.iter()).position(|(a, b)| a != b);
            hit = k.map(|k| done + k);
        }
        if !live || hit.is_some() {
            to.copy_from_slice(from);
        }
        (lo, done) = (0, done + n);
    }
    hit
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
    /// The grid columns' sample x-coordinates and tile table.
    xs: Axis,
    /// The grid rows' sample y-coordinates and tile table.
    ys: Axis,
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
        GridSampler {
            resolution,
            cols,
            rows,
            xs: Axis::new(cols, resolution.width),
            ys: Axis::new(rows, resolution.height),
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
            let gxs = self.xs.range(rect.x, rect.right());
            let gys = self.ys.range(rect.y, rect.bottom());
            for (gy, &y) in self
                .ys
                .coords()
                .iter()
                .enumerate()
                .take(gys.end)
                .skip(gys.start)
            {
                for (gx, &x) in self
                    .xs
                    .coords()
                    .iter()
                    .enumerate()
                    .take(gxs.end)
                    .skip(gxs.start)
                {
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
    /// it touches pixels. It steps from tile to tile through each axis's
    /// table of the grid points per tile. Tiles unwritten since the last
    /// observation are skipped outright and provably-solid tiles are
    /// compared against their constant colour with **zero framebuffer
    /// reads**. Only tiles with unknown content are read, from their
    /// blocks. The walk covers the intersection of the damage region
    /// with the dirty tiles.
    ///
    /// Signatures gate *descent only*, never equality: `differs`,
    /// `points_compared` (including the early-exit point), and the
    /// refreshed snapshot bytes are bit-identical to
    /// [`reference_capture`][oracle] on the same inputs. A stale or
    /// overly pessimistic signature can only cost an extra descent. Each
    /// tile row is walked run by run, so the row-major early-exit point
    /// is recovered as the lexicographically smallest `(row, column)`
    /// difference across runs — comparisons have no side effects, which
    /// makes the reordering observationally invisible.
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
        let tiles = buffer.tiles();
        let (cols, tile_cols) = (self.cols as usize, tiles.cols() as usize);
        let mut differs = false;
        let mut points_compared = 0;
        let mut points_read = 0;
        let mut tiles_checked = 0;
        let mut tiles_descended = 0;
        for rect in damage.rects() {
            let gxs = self.xs.range(rect.x, rect.right());
            let gys = self.ys.range(rect.y, rect.bottom());
            if gxs.is_empty() || gys.is_empty() {
                continue; // no sampled point inside this rect
            }
            // The row-major first differing point of this rect as (row,
            // column) offsets — the lexicographic minimum over the runs'
            // candidates, from which the early-exit accounting is
            // reconstructed.
            let mut first: Option<(usize, usize)> = None;
            for ty in self.ys.tiles(&gys) {
                let rows = self.ys.in_tile(ty, &gys);
                let ys = self.ys.coords().get(rows.clone()).unwrap_or_default();
                let base = ty * tile_cols;
                // Join side-by-side written tiles of one kind (solid tiles
                // of one colour, or unknown tiles) into runs, left to
                // right; tiles holding no sample are stepped over.
                let span = self.xs.tiles(&gxs);
                let mut tx = span.start;
                while tx < span.end {
                    let gcols = self.xs.in_tile(tx, &gxs);
                    let t0 = tx;
                    tx += 1;
                    if gcols.is_empty() {
                        continue;
                    }
                    tiles_checked += 1;
                    let dirty = |t: usize| {
                        tiles
                            .get(base + t)
                            .filter(|t| t.stamp > last_content_generation)
                    };
                    // Clean tiles are unchanged and already snapshotted.
                    let Some(solid) = dirty(t0).map(|t| t.solid) else {
                        continue;
                    };
                    tiles_descended += 1;
                    let mut end = gcols.end;
                    while tx < span.end {
                        let next = self.xs.in_tile(tx, &gxs);
                        if !next.is_empty() {
                            if dirty(tx).map(|t| t.solid) != Some(solid) {
                                break;
                            }
                            tiles_checked += 1;
                            tiles_descended += 1;
                            end = next.end;
                        }
                        tx += 1;
                    }
                    // Compare and refresh the run's grid columns row by
                    // row: solid tiles against their colour with zero
                    // reads, unknown ones from their blocks. Slots that
                    // compared equal are not rewritten. A difference found
                    // in a row is the leftmost one yet, so later rows of
                    // this rect only refresh.
                    let gcols = gcols.start..end;
                    let xs = self.xs.coords().get(gcols.clone()).unwrap_or_default();
                    // The run's snapshot slots in grid row `gy`, and
                    // whether a difference there can still be the first.
                    let slots = |gy: usize| gy * cols + gcols.start..gy * cols + gcols.end;
                    let live = |gy: usize, first: Option<(usize, usize)>| {
                        !differs && first.is_none_or(|(r, _)| gy - gys.start < r)
                    };
                    let found =
                        |gy: usize, k: usize| Some((gy - gys.start, gcols.start - gxs.start + k));
                    if let Some(c) = solid {
                        for gy in rows.clone() {
                            let Some(snap) = snapshot.get_mut(slots(gy)) else {
                                continue;
                            };
                            if !live(gy, first) {
                                snap.fill(c);
                            } else if let Some(k) = snap.iter().position(|&s| s != c) {
                                first = found(gy, k);
                                snap.fill(c);
                            }
                        }
                        continue;
                    }
                    points_read += xs.len() * rows.len();
                    let (Some(&x0), Some(&x1)) = (xs.first(), xs.last()) else {
                        continue;
                    };
                    for (gy, &y) in rows.clone().zip(ys) {
                        let Some(snap) = snapshot.get_mut(slots(gy)) else {
                            continue;
                        };
                        let (at, live) = (((y % TILE_SIZE) * TILE_SIZE) as usize, live(gy, first));
                        if ((x1 - x0) as usize) < xs.len() {
                            let tiles = base + t0..base + tx;
                            if let Some(k) = dense_row(buffer, tiles, (x0, at), snap, live) {
                                first = found(gy, k);
                            }
                            continue;
                        }
                        // Strided columns: one block read per point.
                        let pixel = |x: u32| {
                            buffer
                                .block(base + (x / TILE_SIZE) as usize)
                                .and_then(|b| b.get(at + (x % TILE_SIZE) as usize))
                                .copied()
                                .unwrap_or_default()
                        };
                        if live {
                            let Some(k) = xs
                                .iter()
                                .zip(snap.iter())
                                .position(|(&x, &s)| pixel(x) != s)
                            else {
                                continue;
                            };
                            first = found(gy, k);
                        }
                        for (&x, slot) in xs.iter().zip(snap.iter_mut()) {
                            *slot = pixel(x);
                        }
                    }
                }
            }
            // Reconstruct the row-major early-exit accounting from the
            // lexicographically first difference, exactly as the
            // row-major walk would have charged it.
            if !differs {
                match first {
                    Some((r, k)) => {
                        differs = true;
                        points_compared += r * gxs.len() + k + 1;
                    }
                    None => points_compared += gys.len() * gxs.len(),
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
        let cols = self.xs.coords();
        self.ys
            .coords()
            .iter()
            .flat_map(move |&y| cols.iter().map(move |&x| (x, y)))
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

    const T: u32 = TILE_SIZE;

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
        // the resolved colours, never an earlier write.
        let res = Resolution::new(2 * T + 22, T + 6); // 3×2 tiles, uneven edges
        for g in [GridSampler::full(res), GridSampler::new(res, 47, 13)] {
            let mut fb = FrameBuffer::new(res);
            fb.fill(Pixel::grey(90));
            fb.fill_rect(Rect::new(70, 5, 9, 9), Pixel::WHITE);
            fb.fill(Pixel::grey(30)); // every block released
            fb.fill_rect(Rect::new(T, 0, T, T), Pixel::grey(60));
            fb.set_pixel(T + 2, T / 2, Pixel::WHITE); // materializes tile (1, 0)
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
        // The one set_pixel leaves the single tile of unknown content, so
        // the tiled gather reads every point from its block.
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
            assert_eq!(
                whole_screen(&g, &fb2, &mut oracle),
                r.grid,
                "oracle at point {p}"
            );
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
            fb.fill_rect(
                Rect::new(x, 0, 1, res.height),
                Pixel::rgb(x as u8, (x >> 8) as u8, 1),
            );
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
        assert_eq!(g.xs.coords(), expected);
        assert_eq!(
            g.ys.coords(),
            (0..64).map(|k| 10 + 20 * k).collect::<Vec<u32>>()
        );
        let fb = column_coded(res);
        assert_eq!(sampled_columns(&g, &fb), expected);
        // The full sampler reads every column.
        let full = GridSampler::full(res);
        let every: Vec<u32> = (0..720).collect();
        assert_eq!(full.xs.coords(), every);
        assert_eq!(sampled_columns(&full, &fb), every);
    }

    #[test]
    fn non_divisor_grids_sample_exact_cell_centres() {
        // 47 columns over 100 px: the pitch is not an integer, so the
        // centres ((2gx + 1)·W) / (2C) step by 2 or 3 pixels.
        let res = Resolution::new(100, 10);
        let g = GridSampler::new(res, 47, 5);
        let expected: Vec<u32> = (0..47).map(|gx| ((2 * gx + 1) * 100) / 94).collect();
        assert_eq!(g.xs.coords(), expected);
        assert_eq!(&expected[..6], &[1, 3, 5, 7, 9, 11]);
        assert_eq!(expected.last(), Some(&98));
        let steps: Vec<u32> = expected.windows(2).map(|w| w[1] - w[0]).collect();
        assert!(steps.contains(&2) && steps.contains(&3));
        assert!(steps.iter().all(|s| (2..=3).contains(s)));
        assert_eq!(sampled_columns(&g, &column_coded(res)), expected);
        // Every sampled row walks the same columns, in grid order.
        let positions: Vec<(u32, u32)> = g.positions().collect();
        let grid: Vec<(u32, u32)> =
            g.ys.coords()
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
        assert_eq!(
            r.points_compared,
            g.sample_count(),
            "a redundant frame compares all"
        );
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
        assert_eq!(
            r.points_read,
            g.sample_count(),
            "…but every point is refreshed"
        );
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
        assert_eq!(
            g.compare_and_capture_tiled(&fb, &damage, lcg, &mut tiled)
                .grid,
            r
        );
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
            let r = g
                .compare_and_capture_tiled(&fb, &damage, lcg, &mut snap)
                .grid;
            assert!(r.differs);
            assert_eq!(r, g.reference_capture(&fb, &damage, &mut oracle));
            assert_eq!(snap, oracle);
            assert_eq!(
                snap,
                g.sample(&fb),
                "snapshot current ({}x{})",
                g.cols(),
                g.rows()
            );
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
        let res = Resolution::new(3 * T + 8, 2 * T + 22); // 4×3 tiles with uneven edges
        for g in [GridSampler::full(res), GridSampler::new(res, 37, 29)] {
            let mut fb = FrameBuffer::new(res);
            fb.fill(Pixel::grey(20));
            let mut snap_ref = g.sample(&fb);
            let mut snap_tiled = snap_ref.clone();
            fb.take_damage();
            let lcg = fb.content_generation();

            // Mixed frame: a tile-covering solid fill, a small unknown
            // write, and a large untouched (clean) remainder.
            fb.fill_rect(Rect::new(0, T, T, T), Pixel::grey(90));
            fb.fill_rect(Rect::new(2 * T + 2, 10, 17, 9), Pixel::WHITE);
            let damage = fb.take_damage();

            let reference = g.reference_capture(&fb, &damage, &mut snap_ref);
            let tiled = g.compare_and_capture_tiled(&fb, &damage, lcg, &mut snap_tiled);
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
        // Every tile holds a grid point: the whole tile grid is checked…
        let tiles = (fb.tiles().cols() * fb.tiles().rows()) as usize;
        assert_eq!(tiles, (720u32.div_ceil(T) * 1280u32.div_ceil(T)) as usize);
        assert_eq!(r.tiles_checked, tiles);
        assert_eq!(r.tiles_descended, tiles); // … and all written
    }

    #[test]
    fn tiled_capture_skips_clean_tiles_inside_stale_damage() {
        // Damage may over-approximate (merged rects): tiles no write
        // ever touched stay clean and are skipped outright, so the two
        // pruning mechanisms compose instead of fighting.
        let res = Resolution::new(4 * T, T); // 4×1 tiles
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
        assert_eq!(
            r.grid.points_read,
            (T * T) as usize,
            "one tile's points only"
        );
        assert_eq!(snap, g.sample(&fb), "snapshot must stay current");
    }

    #[test]
    fn same_colour_refill_descends_but_stays_equal() {
        // The closest thing to a "signature collision" in this scheme:
        // the stamp says dirty while the content is identical. The cost
        // is a (read-free) descent; the verdict is still unchanged.
        let res = Resolution::new(2 * T, 2 * T); // 2×2 tiles
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
