//! Per-tile content signatures for hierarchical metering.
//!
//! The framebuffer is partitioned into fixed [`TILE_SIZE`]² tiles (edge
//! tiles are smaller). Every draw op stamps the tiles its written rect
//! intersects with the buffer's new content generation and records what
//! it knows about the tile's content afterwards:
//!
//! * `solid: Some(c)` — **every** pixel of the tile provably holds the
//!   exact stored value `c`. Only a constant fill that fully covers the
//!   tile, or a copy from a source tile that is itself solid, can
//!   establish this; it is an exact content summary, not a hash.
//! * `solid: None` — the tile's content is unknown (partial writes,
//!   blends, scrolls, per-pixel stores).
//!
//! The signature is also the **storage**: a framebuffer keeps a solid
//! tile as its one colour and an unknown one as a block of pixels that
//! copies share (see [`FrameBuffer`](crate::buffer::FrameBuffer)), so
//! full-cover fills and copies cost O(tiles), not O(pixels). Writes and
//! gathers walk a rect's tiles one by one, with the touched and fully
//! covered tile range of each axis computed once. The map holds 920 tiles
//! for the Galaxy S3 framebuffer and 60 at quarter resolution.
//!
//! The content-rate meter uses the stamps to skip tiles untouched since
//! its last observation and the solid colours to compare and refresh its
//! snapshot without reading the framebuffer at all. Crucially the
//! signatures only gate *how* a tile is inspected, never whether its
//! grid points count as inspected — a wrong-but-sound `None` merely
//! costs a pixel descent (see `GridSampler::compare_and_capture_tiled`
//! and DESIGN.md §12).

use std::ops::Range;

use crate::geometry::{Rect, Resolution};
use crate::pixel::Pixel;

/// Tile edge length in pixels, one size for every resolution. 32 keeps
/// the map small (920 tiles for the Galaxy S3 framebuffer, 60 at quarter
/// resolution) while a 9×9 sprite dot leaves at most four 1 024-pixel
/// tiles of unknown content, where 64-pixel tiles made it as many
/// 4 096-pixel ones.
pub const TILE_SIZE: u32 = 32;

/// One tile's rolling content signature.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Tile {
    /// The buffer's content generation when a draw last intersected this
    /// tile. `stamp <= last_observed_generation` proves the tile's
    /// pixels are unchanged since that observation.
    pub stamp: u64,
    /// `Some(c)` iff every pixel of the tile provably equals `c` (the
    /// exact stored, format-quantized value).
    pub solid: Option<Pixel>,
}

/// The per-framebuffer grid of [`Tile`] signatures.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pixel::Pixel;
///
/// let mut fb = FrameBuffer::new(Resolution::GALAXY_S3);
/// // A fresh buffer is provably solid black everywhere.
/// assert_eq!(fb.tiles().tile(0, 0).solid, Some(Pixel::BLACK));
/// fb.fill(Pixel::WHITE);
/// assert_eq!(fb.tiles().tile(5, 7).solid, Some(Pixel::WHITE));
/// assert_eq!(fb.tiles().tile(5, 7).stamp, fb.content_generation());
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TileMap {
    resolution: Resolution,
    cols: u32,
    rows: u32,
    tiles: Vec<Tile>,
}

impl TileMap {
    /// A map for `resolution` with every tile stamped 0 and provably
    /// solid black — exactly the content of a fresh framebuffer.
    pub fn new(resolution: Resolution) -> TileMap {
        let mut map = TileMap {
            resolution,
            cols: 0,
            rows: 0,
            tiles: Vec::new(),
        };
        map.reset(resolution);
        map
    }

    /// Makes this the map [`new`](Self::new)`(resolution)` would build,
    /// reusing the allocation.
    pub(crate) fn reset(&mut self, resolution: Resolution) {
        let fresh = Tile {
            stamp: 0,
            solid: Some(Pixel::BLACK),
        };
        self.resolution = resolution;
        self.cols = resolution.width.div_ceil(TILE_SIZE);
        self.rows = resolution.height.div_ceil(TILE_SIZE);
        self.tiles.clear();
        self.tiles
            .resize(self.cols as usize * self.rows as usize, fresh);
    }

    /// Tile columns.
    pub fn cols(&self) -> u32 {
        self.cols
    }

    /// Tile rows.
    pub fn rows(&self) -> u32 {
        self.rows
    }

    /// The signature of tile `(tx, ty)`.
    ///
    /// # Panics
    ///
    /// Panics if the tile coordinate is out of range.
    pub fn tile(&self, tx: u32, ty: u32) -> Tile {
        assert!(
            tx < self.cols && ty < self.rows,
            "tile ({tx},{ty}) out of range"
        );
        // ccdem-lint: allow(panic) — bounds asserted on the line above.
        self.tiles[(ty * self.cols + tx) as usize]
    }

    /// The signature of the tile at index `i` (row-major tile order).
    pub(crate) fn get(&self, i: usize) -> Option<Tile> {
        self.tiles.get(i).copied()
    }

    /// The index of the tile holding the on-screen pixel `(x, y)`.
    pub(crate) fn index(&self, x: u32, y: u32) -> usize {
        (y / TILE_SIZE) as usize * self.cols as usize + (x / TILE_SIZE) as usize
    }

    /// Visits the tiles `rect` (clipped) touches, row by row, as `f(index,
    /// signature, whether rect covers it, its clipped pixel rect)`.
    pub(crate) fn for_each_tile(&self, rect: Rect, mut f: impl FnMut(usize, Tile, bool, Rect)) {
        let Some((xs, ys)) = self.spans(rect) else {
            return;
        };
        for ty in ys.tiles() {
            let range = self.row(ty, xs);
            let Some(row) = self.tiles.get(range.clone()) else {
                continue;
            };
            for ((i, tx), &tile) in range.zip(xs.tiles()).zip(row) {
                f(i, tile, ys.covers(ty) && xs.covers(tx), self.area(tx, ty));
            }
        }
    }

    /// The pixel rectangle covered by tile `(tx, ty)` (edge tiles are
    /// clipped to the resolution).
    ///
    /// # Panics
    ///
    /// Panics if the tile coordinate is out of range.
    pub fn tile_rect(&self, tx: u32, ty: u32) -> Rect {
        assert!(
            tx < self.cols && ty < self.rows,
            "tile ({tx},{ty}) out of range"
        );
        self.area(tx, ty)
    }

    /// Stamps every tile intersecting `written` with `stamp` and updates
    /// the solid signatures: when `solid` is `Some(c)` (the write was a
    /// constant fill of the exact stored value `c`), tiles fully covered
    /// by `written` become solid `c`; partially covered tiles keep their
    /// signature only if it already equals the write (filling part of an
    /// all-`c` tile with `c` leaves it all-`c`), and degrade to unknown
    /// otherwise.
    pub fn stamp_rect(&mut self, written: Rect, stamp: u64, solid: Option<Pixel>) {
        let Some((xs, ys)) = self.spans(written) else {
            return;
        };
        for ty in ys.tiles() {
            let row_covered = ys.covers(ty);
            let range = self.row(ty, xs);
            let Some(row) = self.tiles.get_mut(range) else {
                continue;
            };
            for (tx, tile) in xs.tiles().zip(row) {
                tile.stamp = stamp;
                if row_covered && xs.covers(tx) {
                    tile.solid = solid;
                } else if tile.solid != solid {
                    tile.solid = None;
                }
            }
        }
    }

    /// Stamps every tile intersecting `written` with `stamp`, inheriting
    /// solidity from the aligned source tile of a whole-region copy:
    /// tiles fully covered by `written` take `map(src_solid)` (`map` is
    /// the destination's pixel quantization), partially covered tiles
    /// degrade to unknown. The tile grids align because copies require
    /// matching resolutions.
    ///
    /// # Panics
    ///
    /// Panics if the source map's resolution differs.
    pub fn inherit_rect(
        &mut self,
        written: Rect,
        stamp: u64,
        src: &TileMap,
        map: impl Fn(Pixel) -> Pixel,
    ) {
        assert_eq!(
            self.resolution, src.resolution,
            "tile inheritance requires matching resolutions"
        );
        let Some((xs, ys)) = self.spans(written) else {
            return;
        };
        for ty in ys.tiles() {
            let row_covered = ys.covers(ty);
            let range = self.row(ty, xs);
            let (Some(row), Some(from)) = (self.tiles.get_mut(range.clone()), src.tiles.get(range))
            else {
                continue;
            };
            for ((tx, tile), source) in xs.tiles().zip(row).zip(from) {
                tile.stamp = stamp;
                tile.solid = if row_covered && xs.covers(tx) {
                    source.solid.map(&map)
                } else {
                    None
                };
            }
        }
    }

    /// `rect` clipped to the screen as a tile span per axis, `None` when
    /// none of it is on-screen.
    fn spans(&self, rect: Rect) -> Option<(TileSpan, TileSpan)> {
        let r = rect.clipped_to(self.resolution)?;
        Some((
            TileSpan::new(r.x, r.right(), self.resolution.width),
            TileSpan::new(r.y, r.bottom(), self.resolution.height),
        ))
    }

    /// The indices into `tiles` of tile row `ty`'s tiles in `xs`.
    fn row(&self, ty: u32, xs: TileSpan) -> Range<usize> {
        let start = ty as usize * self.cols as usize;
        start + xs.first as usize..start + xs.end as usize
    }

    /// The pixel rectangle of tile `(tx, ty)`, clipped to the
    /// resolution.
    fn area(&self, tx: u32, ty: u32) -> Rect {
        let (x, y) = (tx * TILE_SIZE, ty * TILE_SIZE);
        let Resolution { width, height } = self.resolution;
        Rect::new(x, y, TILE_SIZE.min(width - x), TILE_SIZE.min(height - y))
    }
}

/// A clipped rect's extent on one axis in tile indices: the tiles it
/// touches and, among them, the tiles it covers fully.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct TileSpan {
    /// The first touched tile.
    first: u32,
    /// One past the last touched tile.
    end: u32,
    /// The first fully covered tile.
    covered_first: u32,
    /// One past the last fully covered tile (`covered_first` when none).
    covered_end: u32,
}

impl TileSpan {
    /// The span of pixels `[lo, hi)` on an axis `extent` pixels long
    /// (`lo < hi <= extent`). A tile is covered when it starts at or
    /// after `lo` and ends at or before `hi`; the last tile ends at
    /// `extent`.
    fn new(lo: u32, hi: u32, extent: u32) -> TileSpan {
        let end = (hi - 1) / TILE_SIZE + 1;
        let covered_first = lo.div_ceil(TILE_SIZE);
        let covered_end = if hi == extent { end } else { hi / TILE_SIZE };
        TileSpan {
            first: lo / TILE_SIZE,
            end,
            covered_first,
            covered_end: covered_end.max(covered_first),
        }
    }

    fn tiles(self) -> Range<u32> {
        self.first..self.end
    }

    fn covers(self, t: u32) -> bool {
        (self.covered_first..self.covered_end).contains(&t)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u32 = TILE_SIZE;

    #[test]
    fn fresh_map_is_solid_black() {
        let m = TileMap::new(Resolution::GALAXY_S3);
        assert_eq!(
            (m.cols(), m.rows()),
            (720u32.div_ceil(T), 1280u32.div_ceil(T))
        );
        for ty in 0..m.rows() {
            for tx in 0..m.cols() {
                assert_eq!(
                    m.tile(tx, ty),
                    Tile {
                        stamp: 0,
                        solid: Some(Pixel::BLACK)
                    }
                );
            }
        }
    }

    #[test]
    fn edge_tiles_are_clipped() {
        let m = TileMap::new(Resolution::GALAXY_S3);
        // 720 is not a multiple of the tile size: the last tile column
        // holds the remainder.
        let (last, edge) = (720 / T, 720 % T);
        assert!(edge > 0);
        assert_eq!(m.cols(), last + 1);
        assert_eq!(m.tile_rect(last, 0), Rect::new(last * T, 0, edge, T));
        assert_eq!(m.tile_rect(0, 0), Rect::new(0, 0, T, T));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_rect_rejects_a_column_past_the_edge() {
        let m = TileMap::new(Resolution::GALAXY_S3);
        let _ = m.tile_rect(m.cols(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn tile_rect_rejects_a_row_past_the_edge() {
        let m = TileMap::new(Resolution::GALAXY_S3);
        let _ = m.tile_rect(0, m.rows());
    }

    #[test]
    fn full_cover_sets_solid_partial_degrades() {
        let mut m = TileMap::new(Resolution::new(2 * T, 2 * T));
        let c = Pixel::grey(9);
        m.stamp_rect(Rect::new(0, 0, 2 * T, T), 1, Some(c));
        assert_eq!(m.tile(0, 0).solid, Some(c));
        assert_eq!(m.tile(1, 0).solid, Some(c));
        // Untouched row keeps the fresh black signature and stamp 0.
        assert_eq!(
            m.tile(0, 1),
            Tile {
                stamp: 0,
                solid: Some(Pixel::BLACK)
            }
        );
        // A partial unknown write degrades only the tiles it touches.
        m.stamp_rect(Rect::new(T - 4, 0, 8, 8), 2, None);
        assert_eq!(
            m.tile(0, 0),
            Tile {
                stamp: 2,
                solid: None
            }
        );
        assert_eq!(
            m.tile(1, 0),
            Tile {
                stamp: 2,
                solid: None
            }
        );
    }

    #[test]
    fn same_colour_partial_fill_preserves_solidity() {
        let mut m = TileMap::new(Resolution::new(64, 64));
        // Part of an all-black tile filled with black stays all-black.
        m.stamp_rect(Rect::new(10, 10, 5, 5), 1, Some(Pixel::BLACK));
        assert_eq!(
            m.tile(0, 0),
            Tile {
                stamp: 1,
                solid: Some(Pixel::BLACK)
            }
        );
        // A different colour degrades it.
        m.stamp_rect(Rect::new(10, 10, 5, 5), 2, Some(Pixel::WHITE));
        assert_eq!(
            m.tile(0, 0),
            Tile {
                stamp: 2,
                solid: None
            }
        );
    }

    #[test]
    fn inherit_maps_source_solidity() {
        let res = Resolution::new(2 * T, T);
        let mut src = TileMap::new(res);
        src.stamp_rect(Rect::new(0, 0, T, T), 3, Some(Pixel::grey(200)));
        src.stamp_rect(Rect::new(T, 0, T, T), 4, None);
        let mut dst = TileMap::new(res);
        dst.inherit_rect(res.bounds(), 7, &src, |p| p);
        assert_eq!(
            dst.tile(0, 0),
            Tile {
                stamp: 7,
                solid: Some(Pixel::grey(200))
            }
        );
        assert_eq!(
            dst.tile(1, 0),
            Tile {
                stamp: 7,
                solid: None
            }
        );
        // A partial copy degrades the partially covered tile.
        let mut partial = TileMap::new(res);
        partial.inherit_rect(Rect::new(0, 0, T / 2, T), 9, &src, |p| p);
        assert_eq!(
            partial.tile(0, 0),
            Tile {
                stamp: 9,
                solid: None
            }
        );
        assert_eq!(partial.tile(1, 0).stamp, 0, "untouched tile not stamped");
    }

    #[test]
    fn empty_rect_changes_nothing() {
        let mut m = TileMap::new(Resolution::new(64, 64));
        let before = m.clone();
        m.stamp_rect(Rect::new(10, 10, 0, 5), 5, Some(Pixel::WHITE));
        assert_eq!(m, before);
    }

    #[test]
    fn spans_split_touched_from_covered_tiles() {
        // Inside one tile: touched, not covered.
        let s = TileSpan::new(1, T - 1, 3 * T);
        assert_eq!((s.tiles(), s.covers(0)), (0..1, false));
        // Straddling a boundary: two touched, neither covered.
        let s = TileSpan::new(T / 2, T + T / 2, 3 * T);
        assert_eq!(s.tiles(), 0..2);
        assert!(!s.covers(0) && !s.covers(1));
        // Tile-aligned: exactly the tiles in the range are covered.
        let s = TileSpan::new(T, 3 * T, 3 * T);
        assert_eq!(s.tiles(), 1..3);
        assert!(!s.covers(0) && s.covers(1) && s.covers(2));
        // The clipped last tile is covered when the range runs to the
        // axis's end.
        let s = TileSpan::new(T, 2 * T + 5, 2 * T + 5);
        assert_eq!(s.tiles(), 1..3);
        assert!(s.covers(1) && s.covers(2));
        let s = TileSpan::new(T, 2 * T + 4, 2 * T + 5);
        assert!(s.covers(1) && !s.covers(2));
    }

    #[test]
    fn walk_visits_touched_tiles_and_flags_covered_ones() {
        // 3×2 tiles, the last column a clipped edge tile.
        let mut m = TileMap::new(Resolution::new(2 * T + 5, 2 * T));
        m.stamp_rect(Rect::new(T, 0, T + 5, T), 1, Some(Pixel::WHITE));
        let mut seen = Vec::new();
        m.for_each_tile(
            Rect::new(1, 0, 2 * T + 4, T + 1),
            |i, tile, covered, area| {
                seen.push((i, tile.solid == Some(Pixel::WHITE), covered, area));
            },
        );
        let row = |y: u32, white: bool| {
            [
                (0, false, false, 0, T),
                (1, white, white, T, T),
                (2, white, white, 2 * T, 5),
            ]
            .map(|(tx, w, c, x, width)| (tx + 3 * y as usize, w, c, Rect::new(x, y * T, width, T)))
        };
        assert_eq!(seen, [row(0, true), row(1, false)].concat());
        assert_eq!(m.index(2 * T + 4, T + 1), 5);
    }
}
