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
//! tile as its one colour and leaves the tile's pixel slots stale, so
//! full-cover fills and copies of solid tiles cost O(tiles), not
//! O(pixels). Pixel storage is authoritative only in tiles with
//! `solid: None`, and every reader resolves solid tiles through the
//! signature (see [`FrameBuffer`](crate::buffer::FrameBuffer)).
//!
//! The content-rate meter uses the stamps to skip tiles untouched since
//! its last observation and the solid colours to compare and refresh its
//! snapshot without reading the framebuffer at all. Crucially the
//! signatures only gate *how* a tile is inspected, never whether its
//! grid points count as inspected — a wrong-but-sound `None` merely
//! costs a pixel descent (see `GridSampler::compare_and_capture_tiled`
//! and DESIGN.md §12).

use crate::geometry::{Rect, Resolution};
use crate::pixel::Pixel;

/// Tile edge length in pixels. 64 keeps the map tiny (240 tiles for the
/// Galaxy S3 framebuffer) while still splitting the screen finely enough
/// that typical partial redraws leave most tiles untouched.
pub const TILE_SIZE: u32 = 64;

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
        let cols = resolution.width.div_ceil(TILE_SIZE);
        let rows = resolution.height.div_ceil(TILE_SIZE);
        TileMap {
            resolution,
            cols,
            rows,
            tiles: vec![
                Tile {
                    stamp: 0,
                    solid: Some(Pixel::BLACK),
                };
                (cols as usize) * (rows as usize)
            ],
        }
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
        assert!(tx < self.cols && ty < self.rows, "tile ({tx},{ty}) out of range");
        // ccdem-lint: allow(panic) — bounds asserted on the line above.
        self.tiles[(ty * self.cols + tx) as usize]
    }

    /// The solid colour of the tile holding pixel `(x, y)`, `None` when
    /// its content is unknown (or the pixel is off-screen).
    pub(crate) fn solid_at(&self, x: u32, y: u32) -> Option<Pixel> {
        if !self.resolution.contains(x, y) {
            return None;
        }
        let i = (y / TILE_SIZE) as usize * self.cols as usize + (x / TILE_SIZE) as usize;
        self.tiles.get(i).and_then(|t| t.solid)
    }

    /// Whether any tile intersecting `r` is solid. While none is, every
    /// pixel slot under `r` holds its real value.
    pub(crate) fn any_solid(&self, r: Rect) -> bool {
        let Some(r) = r.clipped_to(self.resolution) else {
            return false;
        };
        let (tx0, tx1) = tile_span(r.x, r.right());
        let (ty0, ty1) = tile_span(r.y, r.bottom());
        let cols = self.cols as usize;
        (ty0..=ty1).any(|ty| {
            let row = ty as usize * cols;
            self.tiles
                .get(row + tx0 as usize..=row + tx1 as usize)
                .is_some_and(|tiles| tiles.iter().any(|t| t.solid.is_some()))
        })
    }

    /// Visits `written` (clipped) tile by tile: `f(rect, tile, covered)`
    /// gets each intersecting tile's pixel rectangle, its signature, and
    /// whether `written` covers it fully.
    pub(crate) fn for_each_tile(&self, written: Rect, mut f: impl FnMut(Rect, Tile, bool)) {
        let Some(written) = written.clipped_to(self.resolution) else {
            return;
        };
        let (tx0, tx1) = tile_span(written.x, written.right());
        let (ty0, ty1) = tile_span(written.y, written.bottom());
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                f(self.tile_rect(tx, ty), self.tile(tx, ty), self.covers(written, tx, ty));
            }
        }
    }

    /// The pixel rectangle covered by tile `(tx, ty)` (edge tiles are
    /// clipped to the resolution).
    pub fn tile_rect(&self, tx: u32, ty: u32) -> Rect {
        let x = tx * TILE_SIZE;
        let y = ty * TILE_SIZE;
        Rect::new(
            x,
            y,
            TILE_SIZE.min(self.resolution.width - x),
            TILE_SIZE.min(self.resolution.height - y),
        )
    }

    /// Stamps every tile intersecting `written` with `stamp` and updates
    /// the solid signatures: when `solid` is `Some(c)` (the write was a
    /// constant fill of the exact stored value `c`), tiles fully covered
    /// by `written` become solid `c`; partially covered tiles keep their
    /// signature only if it already equals the write (filling part of an
    /// all-`c` tile with `c` leaves it all-`c`), and degrade to unknown
    /// otherwise.
    pub fn stamp_rect(&mut self, written: Rect, stamp: u64, solid: Option<Pixel>) {
        self.update(written, stamp, |covered, old| {
            if covered {
                solid
            } else if old == solid {
                old
            } else {
                None
            }
        });
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
        let Some(written) = written.clipped_to(self.resolution) else {
            return;
        };
        let (tx0, tx1) = tile_span(written.x, written.right());
        let (ty0, ty1) = tile_span(written.y, written.bottom());
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let covered = self.covers(written, tx, ty);
                let i = (ty * self.cols + tx) as usize;
                // ccdem-lint: allow(panic) — identical grids: tile_span
                // clips to the shared resolution, so the index is in
                // range for both maps by construction.
                let solid = if covered { src.tiles[i].solid.map(&map) } else { None };
                // ccdem-lint: allow(panic) — same clipped index as above.
                let tile = &mut self.tiles[i];
                tile.solid = solid;
                tile.stamp = stamp;
            }
        }
    }

    fn update(
        &mut self,
        written: Rect,
        stamp: u64,
        solid_of: impl Fn(bool, Option<Pixel>) -> Option<Pixel>,
    ) {
        let Some(written) = written.clipped_to(self.resolution) else {
            return;
        };
        let (tx0, tx1) = tile_span(written.x, written.right());
        let (ty0, ty1) = tile_span(written.y, written.bottom());
        for ty in ty0..=ty1 {
            for tx in tx0..=tx1 {
                let covered = self.covers(written, tx, ty);
                let i = (ty * self.cols + tx) as usize;
                // ccdem-lint: allow(panic) — tile_span clips to the
                // resolution, so the index is in range by construction.
                let tile = &mut self.tiles[i];
                tile.solid = solid_of(covered, tile.solid);
                tile.stamp = stamp;
            }
        }
    }

    /// Does `written` fully cover tile `(tx, ty)`'s (clipped) rect?
    fn covers(&self, written: Rect, tx: u32, ty: u32) -> bool {
        let rect = self.tile_rect(tx, ty);
        written.x <= rect.x
            && written.y <= rect.y
            && written.right() >= rect.right()
            && written.bottom() >= rect.bottom()
    }
}

/// Inclusive tile-index span covering pixel range `[lo, hi)` (`hi > lo`).
fn tile_span(lo: u32, hi: u32) -> (u32, u32) {
    (lo / TILE_SIZE, (hi - 1) / TILE_SIZE)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_map_is_solid_black() {
        let m = TileMap::new(Resolution::GALAXY_S3);
        assert_eq!((m.cols(), m.rows()), (12, 20));
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
        let m = TileMap::new(Resolution::GALAXY_S3); // 720 = 11×64 + 16
        assert_eq!(m.tile_rect(11, 0), Rect::new(704, 0, 16, 64));
        assert_eq!(m.tile_rect(0, 0), Rect::new(0, 0, 64, 64));
    }

    #[test]
    fn full_cover_sets_solid_partial_degrades() {
        let mut m = TileMap::new(Resolution::new(128, 128));
        let c = Pixel::grey(9);
        m.stamp_rect(Rect::new(0, 0, 128, 64), 1, Some(c));
        assert_eq!(m.tile(0, 0).solid, Some(c));
        assert_eq!(m.tile(1, 0).solid, Some(c));
        // Untouched row keeps the fresh black signature and stamp 0.
        assert_eq!(m.tile(0, 1), Tile { stamp: 0, solid: Some(Pixel::BLACK) });
        // A partial unknown write degrades only the tiles it touches.
        m.stamp_rect(Rect::new(60, 0, 8, 8), 2, None);
        assert_eq!(m.tile(0, 0), Tile { stamp: 2, solid: None });
        assert_eq!(m.tile(1, 0), Tile { stamp: 2, solid: None });
    }

    #[test]
    fn same_colour_partial_fill_preserves_solidity() {
        let mut m = TileMap::new(Resolution::new(64, 64));
        // Part of an all-black tile filled with black stays all-black.
        m.stamp_rect(Rect::new(10, 10, 5, 5), 1, Some(Pixel::BLACK));
        assert_eq!(m.tile(0, 0), Tile { stamp: 1, solid: Some(Pixel::BLACK) });
        // A different colour degrades it.
        m.stamp_rect(Rect::new(10, 10, 5, 5), 2, Some(Pixel::WHITE));
        assert_eq!(m.tile(0, 0), Tile { stamp: 2, solid: None });
    }

    #[test]
    fn inherit_maps_source_solidity() {
        let res = Resolution::new(128, 64);
        let mut src = TileMap::new(res);
        src.stamp_rect(Rect::new(0, 0, 64, 64), 3, Some(Pixel::grey(200)));
        src.stamp_rect(Rect::new(64, 0, 64, 64), 4, None);
        let mut dst = TileMap::new(res);
        dst.inherit_rect(res.bounds(), 7, &src, |p| p);
        assert_eq!(dst.tile(0, 0), Tile { stamp: 7, solid: Some(Pixel::grey(200)) });
        assert_eq!(dst.tile(1, 0), Tile { stamp: 7, solid: None });
        // A partial copy degrades the partially covered tile.
        let mut partial = TileMap::new(res);
        partial.inherit_rect(Rect::new(0, 0, 32, 64), 9, &src, |p| p);
        assert_eq!(partial.tile(0, 0), Tile { stamp: 9, solid: None });
        assert_eq!(partial.tile(1, 0).stamp, 0, "untouched tile not stamped");
    }

    #[test]
    fn empty_rect_changes_nothing() {
        let mut m = TileMap::new(Resolution::new(64, 64));
        let before = m.clone();
        m.stamp_rect(Rect::new(10, 10, 0, 5), 5, Some(Pixel::WHITE));
        assert_eq!(m, before);
    }
}
