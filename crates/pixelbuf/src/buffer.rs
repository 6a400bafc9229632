//! The software framebuffer.

use std::fmt;
use std::ops::Range;

use crate::damage::DamageRegion;
use crate::geometry::{Rect, Resolution};
use crate::pixel::{Pixel, PixelFormat};
use crate::tile::{Tile, TileMap};

/// A software framebuffer: a row-major grid of [`Pixel`]s with two
/// monotonically increasing generation counters and a damage region.
///
/// The *write generation* bumps on every write batch, including
/// [`touch`](Self::touch) (a hardware write of identical pixels — the
/// paper's redundant frame). The *content generation* bumps only when a
/// draw op may actually have changed pixel values; those ops also record
/// the written rectangle in the buffer's [`DamageRegion`]. The two
/// counters let consumers distinguish "the framebuffer was updated" (the
/// panel's view) from "the pixels may have changed" (the content-rate
/// meter's view) without reading any pixels, and the damage region tells
/// the meter *where* to look when they did.
///
/// The damage region accumulates until [`take_damage`](Self::take_damage)
/// is called; a pixel outside every accumulated rect is guaranteed to
/// hold the same value it had at the last take.
///
/// Alongside the damage region, every draw op also maintains a
/// [`TileMap`] of per-tile content signatures (stamp + provable solid
/// colour) — see [`tiles`](Self::tiles) and the [`tile`](crate::tile)
/// module. The signatures are the storage of solid tiles: a tile whose
/// signature is `Some(c)` *is* the colour `c`, and its pixel slots are
/// stale and never read. So a full-screen fill, or a copy from a buffer
/// of solid tiles, only sets signatures; a partial write to a solid tile
/// first writes its colour into that one tile's slots (materializes it).
/// Every read — [`pixel`](Self::pixel), [`pixels`](Self::pixels), the
/// grid gathers, the blits, the diffs — resolves solid tiles through
/// the signature, so no caller can observe a stale slot.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pixel::Pixel;
///
/// let mut fb = FrameBuffer::new(Resolution::new(4, 4));
/// fb.fill(Pixel::WHITE);
/// assert_eq!(fb.pixel(2, 3), Pixel::WHITE);
/// assert_eq!(fb.content_generation(), 1);
///
/// fb.touch(); // identical resubmission: a write, but not new content
/// assert_eq!(fb.generation(), 2);
/// assert_eq!(fb.content_generation(), 1);
/// ```
#[derive(Clone)]
pub struct FrameBuffer {
    resolution: Resolution,
    format: PixelFormat,
    /// Row-major pixel slots, authoritative only inside tiles whose
    /// signature is `solid: None`.
    pixels: Vec<Pixel>,
    generation: u64,
    content_generation: u64,
    damage: DamageRegion,
    tiles: TileMap,
}

impl FrameBuffer {
    /// Creates a black framebuffer of the given resolution in RGBA8888.
    pub fn new(resolution: Resolution) -> FrameBuffer {
        FrameBuffer::with_format(resolution, PixelFormat::Rgba8888)
    }

    /// Creates a black framebuffer with an explicit pixel format.
    pub fn with_format(resolution: Resolution, format: PixelFormat) -> FrameBuffer {
        FrameBuffer {
            resolution,
            format,
            pixels: vec![Pixel::BLACK; resolution.pixel_count()],
            generation: 0,
            content_generation: 0,
            damage: DamageRegion::new(),
            tiles: TileMap::new(resolution),
        }
    }

    /// Rebuilds a framebuffer from recycled pixel `storage`: the
    /// observable state is identical to [`new`](Self::new) (black RGBA8888
    /// pixels, both generations zero, empty damage), but the storage's
    /// allocation is reused. Every tile starts solid black, so the
    /// surviving slots are not rewritten: only slots beyond the storage's
    /// current length are initialized. This is the steady-state path of
    /// scratch reuse across sweep runs, through
    /// [`PixelPool`](crate::pool::PixelPool).
    pub fn recycled(resolution: Resolution, mut storage: Vec<Pixel>) -> FrameBuffer {
        storage.resize(resolution.pixel_count(), Pixel::BLACK);
        FrameBuffer {
            resolution,
            format: PixelFormat::Rgba8888,
            pixels: storage,
            generation: 0,
            content_generation: 0,
            damage: DamageRegion::new(),
            tiles: TileMap::new(resolution),
        }
    }

    /// Consumes the buffer, handing its pixel storage back for recycling
    /// (see [`recycled`](Self::recycled)). The slots of solid tiles are
    /// stale, which is why only the pool sees the storage.
    pub(crate) fn into_storage(self) -> Vec<Pixel> {
        self.pixels
    }

    /// The buffer's resolution.
    pub fn resolution(&self) -> Resolution {
        self.resolution
    }

    /// The buffer's pixel format.
    pub fn format(&self) -> PixelFormat {
        self.format
    }

    /// The write-generation counter.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The content-generation counter: bumps only when a draw op may have
    /// changed pixel values. Unchanged content generation between two
    /// observations guarantees the pixels are bit-identical — the
    /// content-rate meter's O(1) redundant-frame fast path.
    pub fn content_generation(&self) -> u64 {
        self.content_generation
    }

    /// The per-tile content signatures, updated by every draw op. Tiles
    /// whose `stamp` is at most an observer's last seen content
    /// generation are provably unchanged since that observation; tiles
    /// with a `solid` colour are provably that exact colour everywhere.
    pub fn tiles(&self) -> &TileMap {
        &self.tiles
    }

    /// The damage accumulated since the last
    /// [`take_damage`](Self::take_damage): a sound over-approximation of
    /// every pixel written in between.
    pub fn damage(&self) -> &DamageRegion {
        &self.damage
    }

    /// Consumes the accumulated damage, resetting it to empty. The
    /// content-rate meter (via the compositor) calls this once per
    /// composed frame, so the region always describes "what changed since
    /// the meter last looked".
    pub fn take_damage(&mut self) -> DamageRegion {
        self.damage.take()
    }

    /// Marks the buffer as updated without changing pixels. The compositor
    /// calls this when an application submits a frame whose content is
    /// identical to the previous one (a *redundant frame*): the hardware
    /// still performs a framebuffer write. Bumps only the write
    /// generation, never the content generation.
    pub fn touch(&mut self) {
        self.generation += 1;
    }

    /// The pixel at `(x, y)`.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is off-screen.
    pub fn pixel(&self, x: u32, y: u32) -> Pixel {
        assert!(
            self.resolution.contains(x, y),
            "pixel ({x},{y}) out of bounds for {}",
            self.resolution
        );
        self.resolved(x, y)
    }

    /// Every pixel value in row-major order, solid tiles resolved through
    /// their signature. An O(pixels) walk for tests and ground-truth
    /// diffs, not for per-frame paths.
    pub fn pixels(&self) -> impl Iterator<Item = Pixel> + '_ {
        let Resolution { width, height } = self.resolution;
        (0..height).flat_map(move |y| (0..width).map(move |x| self.resolved(x, y)))
    }

    /// The raw pixel slots — stale inside solid tiles, so readers in this
    /// crate consult [`tiles`](Self::tiles) first.
    pub(crate) fn storage(&self) -> &[Pixel] {
        &self.pixels
    }

    /// Writes the pixel at `(x, y)` (quantized to the buffer format) and
    /// bumps the generation.
    ///
    /// Prefer the batch operations ([`fill`](Self::fill),
    /// [`fill_rect`](Self::fill_rect), [`copy_from`](Self::copy_from)) for
    /// anything larger than a few pixels: they bump the generation once.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is off-screen.
    pub fn set_pixel(&mut self, x: u32, y: u32, p: Pixel) {
        assert!(
            self.resolution.contains(x, y),
            "pixel ({x},{y}) out of bounds for {}",
            self.resolution
        );
        let q = self.format.quantize(p);
        let written = Rect::new(x, y, 1, 1);
        if self.tiles.solid_at(x, y).is_none() {
            let i = self.index(x, y);
            if let Some(slot) = self.pixels.get_mut(i) {
                *slot = q;
            }
        } else {
            self.store_fill(written, q);
        }
        self.mark(written, Some(q));
    }

    /// Fills the whole buffer with one colour: every tile becomes solid,
    /// so only the signatures change.
    pub fn fill(&mut self, p: Pixel) {
        let q = self.format.quantize(p);
        self.mark(self.resolution.bounds(), Some(q));
    }

    /// Fills `rect` (clipped to the screen) with one colour. A fully
    /// off-screen rect still counts as a write (generation bump), matching
    /// hardware behaviour where the draw call is issued regardless.
    pub fn fill_rect(&mut self, rect: Rect, p: Pixel) {
        let q = self.format.quantize(p);
        let clipped = rect.clipped_to(self.resolution);
        if let Some(r) = clipped {
            self.store_fill(r, q);
        }
        self.mark(clipped.unwrap_or_default(), Some(q));
    }

    /// Copies the entirety of `src` into this buffer. Solid source tiles
    /// copy as signatures; unknown ones copy their pixels row by row,
    /// merged into one `memcpy` wherever whole rows are unknown.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn copy_from(&mut self, src: &FrameBuffer) {
        assert_eq!(
            self.resolution, src.resolution,
            "copy_from requires matching resolutions"
        );
        let all = self.resolution.bounds();
        self.store_copy(src, all);
        self.mark_copied(all, src);
    }

    /// Copies `rect` (clipped) from `src` into the same position here.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn copy_rect_from(&mut self, src: &FrameBuffer, rect: Rect) {
        assert_eq!(
            self.resolution, src.resolution,
            "copy_rect_from requires matching resolutions"
        );
        let clipped = rect.clipped_to(self.resolution);
        if let Some(r) = clipped {
            self.store_copy(src, r);
        }
        self.mark_copied(clipped.unwrap_or_default(), src);
    }

    /// Alpha-blends `rect` (clipped) of `src` over the same position here,
    /// quantizing the blend result to this buffer's format. This is the
    /// compositor's translucent-surface path, expressed as one batch op so
    /// it costs a single generation bump and one damage rect instead of a
    /// per-pixel [`set_pixel`](Self::set_pixel) storm.
    ///
    /// # Panics
    ///
    /// Panics if resolutions differ.
    pub fn blend_rect_from(&mut self, src: &FrameBuffer, rect: Rect) {
        assert_eq!(
            self.resolution, src.resolution,
            "blend_rect_from requires matching resolutions"
        );
        let clipped = rect.clipped_to(self.resolution);
        if let Some(r) = clipped {
            // A blend reads every destination pixel it writes.
            self.materialize(r, |_, _| true);
            let (format, width) = (self.format, self.resolution.width);
            let pixels = &mut self.pixels;
            let mut blend = |block: Rect, solid: Option<Pixel>| {
                for range in rows(block, width) {
                    let Some(dst) = pixels.get_mut(range.clone()) else {
                        continue;
                    };
                    match solid {
                        Some(s) => {
                            for d in dst {
                                *d = format.quantize(s.over(*d));
                            }
                        }
                        None => {
                            let from = src.pixels.get(range).unwrap_or_default();
                            for (d, &s) in dst.iter_mut().zip(from) {
                                *d = format.quantize(s.over(*d));
                            }
                        }
                    }
                }
            };
            src.tiles.for_each_run(
                r,
                |tile, _| tile.solid,
                |run, solid| {
                    if let Some(part) = r.intersection(run) {
                        blend(part, solid);
                    }
                },
            );
        }
        // Blend results depend on prior destination pixels, so the tiles
        // degrade to unknown content.
        self.mark(clipped.unwrap_or_default(), None);
    }

    /// Shifts the buffer contents up by `dy` pixels (a scroll), filling the
    /// exposed bottom band with `fill`.
    pub fn scroll_up(&mut self, dy: u32, fill: Pixel) {
        let h = self.resolution.height;
        let w = self.resolution.width as usize;
        let dy = dy.min(h);
        let q = self.format.quantize(fill);
        if dy >= h {
            // The whole screen is the fill colour: a provably solid write.
            self.mark(self.resolution.bounds(), Some(q));
        } else if dy > 0 {
            // Every row moves and every tile ends unknown, so all slots
            // must hold real values before the shift.
            self.materialize(self.resolution.bounds(), |_, _| true);
            self.pixels.copy_within(dy as usize * w.., 0);
            if let Some(band) = self.pixels.get_mut((h - dy) as usize * w..) {
                band.fill(q);
            }
            self.mark(self.resolution.bounds(), None);
        } else {
            self.mark(Rect::default(), None);
        }
    }

    /// Mean luminance of the whole buffer in `[0, 1]`.
    ///
    /// This is an O(pixels) scan; it exists for the OLED power extension
    /// and for tests, not for the per-frame hot path.
    pub fn mean_luminance(&self) -> f64 {
        let n = self.resolution.pixel_count();
        if n == 0 {
            return 0.0;
        }
        self.pixels().map(|p| p.luminance()).sum::<f64>() / n as f64
    }

    /// The pixel at an on-screen `(x, y)`, through the tile signature.
    fn resolved(&self, x: u32, y: u32) -> Pixel {
        self.tiles.solid_at(x, y).unwrap_or_else(|| {
            self.pixels
                .get(self.index(x, y))
                .copied()
                .unwrap_or(Pixel::BLACK)
        })
    }

    fn index(&self, x: u32, y: u32) -> usize {
        (y as usize) * (self.resolution.width as usize) + x as usize
    }

    /// Materializes the solid tiles intersecting `rect` that
    /// `pick(tile, covered)` selects: writes each one's colour into all
    /// of its pixel slots, so storage holds real values there before a
    /// write that leaves the tile unknown. Side-by-side picked tiles of
    /// one colour fill as one span per pixel row. The signature is left
    /// for the write's `mark`.
    fn materialize(&mut self, rect: Rect, pick: impl Fn(Tile, bool) -> bool) {
        let width = self.resolution.width;
        let pixels = &mut self.pixels;
        self.tiles.for_each_run(
            rect,
            |tile, covered| tile.solid.filter(|_| pick(tile, covered)),
            |run, solid| {
                if let Some(c) = solid {
                    fill_block(pixels, run, width, c);
                }
            },
        );
    }

    /// Stores a constant fill of `q` over the on-screen `r`. The
    /// signature rules leave a covered tile solid `q`, and a partly
    /// covered one solid `q` when it already was; those need no slots
    /// written. Every other tile the fill touches degrades to unknown,
    /// so it is materialized and then written.
    fn store_fill(&mut self, r: Rect, q: Pixel) {
        let width = self.resolution.width;
        let pixels = &mut self.pixels;
        self.tiles.for_each_run(
            r,
            // `Some(solid)`: a tile the fill leaves unknown.
            |tile, covered| (!covered && tile.solid != Some(q)).then_some(tile.solid),
            |run, unknown| {
                let Some(solid) = unknown else {
                    return;
                };
                if let Some(c) = solid {
                    fill_block(pixels, run, width, c);
                }
                if let Some(part) = r.intersection(run) {
                    fill_block(pixels, part, width, q);
                }
            },
        );
    }

    /// Stores a copy of the on-screen `r` from `src`. A tile the copy
    /// covers inherits a solid source tile's colour through its signature
    /// alone; everywhere else the slots are written, with pixels from
    /// unknown source tiles and the colour of solid ones. Side-by-side
    /// source tiles of one colour, or all unknown, copy as one span per
    /// pixel row, so a full-width run is one `memcpy`. A partly covered
    /// destination tile degrades to unknown, so it is materialized first.
    fn store_copy(&mut self, src: &FrameBuffer, r: Rect) {
        if r != self.resolution.bounds() {
            self.materialize(r, |_, covered| !covered);
        }
        let (format, width) = (self.format, self.resolution.width);
        let convert = format != src.format;
        let pixels = &mut self.pixels;
        src.tiles.for_each_run(
            r,
            // `Some(solid)`: a tile whose slots the copy writes.
            |tile, covered| (!covered || tile.solid.is_none()).then_some(tile.solid),
            |run, written| {
                let (Some(solid), Some(block)) = (written, r.intersection(run)) else {
                    return;
                };
                if let Some(c) = solid {
                    let c = if convert { format.quantize(c) } else { c };
                    fill_block(pixels, block, width, c);
                    return;
                }
                for range in rows(block, width) {
                    let (Some(dst), Some(from)) =
                        (pixels.get_mut(range.clone()), src.pixels.get(range))
                    else {
                        continue;
                    };
                    if convert {
                        for (d, &s) in dst.iter_mut().zip(from) {
                            *d = format.quantize(s);
                        }
                    } else {
                        dst.copy_from_slice(from);
                    }
                }
            },
        );
    }

    /// Records one completed write batch: the write generation always
    /// bumps (the hardware write happened), while the content generation,
    /// damage, and tile signatures only advance when pixels may actually
    /// have changed — i.e. when the written region is non-empty. A fully
    /// clipped-out draw call therefore counts as a write but not as
    /// content. `solid` is `Some(q)` when the batch stored the exact
    /// value `q` (already format-quantized) at every written pixel.
    fn mark(&mut self, written: Rect, solid: Option<Pixel>) {
        self.generation += 1;
        if !written.is_empty() {
            self.content_generation += 1;
            self.damage.add(written);
            self.tiles
                .stamp_rect(written, self.content_generation, solid);
        }
    }

    /// [`mark`](Self::mark) variant for whole-region copies from `src`:
    /// the tile signatures inherit the source tiles' solidity (quantized
    /// when the formats differ) instead of degrading to unknown.
    fn mark_copied(&mut self, written: Rect, src: &FrameBuffer) {
        self.generation += 1;
        if !written.is_empty() {
            self.content_generation += 1;
            self.damage.add(written);
            let convert = self.format != src.format;
            let format = self.format;
            self.tiles
                .inherit_rect(written, self.content_generation, &src.tiles, |c| {
                    if convert {
                        format.quantize(c)
                    } else {
                        c
                    }
                });
        }
    }
}

/// The storage index ranges of `block`'s pixel rows in a buffer `width`
/// pixels wide: a single range when the block spans whole rows.
fn rows(block: Rect, width: u32) -> impl Iterator<Item = Range<usize>> {
    let w = width as usize;
    let (count, len) = if block.width == width {
        (1, block.height as usize * w)
    } else {
        (block.height, block.width as usize)
    };
    (block.y..block.y + count).map(move |y| {
        let start = y as usize * w + block.x as usize;
        start..start + len
    })
}

/// Fills `block` of a row-major storage `width` pixels wide with `c`.
fn fill_block(pixels: &mut [Pixel], block: Rect, width: u32, c: Pixel) {
    for range in rows(block, width) {
        if let Some(seg) = pixels.get_mut(range) {
            seg.fill(c);
        }
    }
}

/// Buffers are equal when everything observable is: resolution, format,
/// both generations, damage, signatures and every pixel value — never
/// the stale slots of solid tiles.
impl PartialEq for FrameBuffer {
    fn eq(&self, other: &FrameBuffer) -> bool {
        self.resolution == other.resolution
            && self.format == other.format
            && self.generation == other.generation
            && self.content_generation == other.content_generation
            && self.damage == other.damage
            && self.tiles == other.tiles
            && self.pixels().eq(other.pixels())
    }
}

/// Omits the pixel slots, which are stale inside solid tiles.
impl fmt::Debug for FrameBuffer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FrameBuffer")
            .field("resolution", &self.resolution)
            .field("format", &self.format)
            .field("generation", &self.generation)
            .field("content_generation", &self.content_generation)
            .field("damage", &self.damage)
            .field("tiles", &self.tiles)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tile::TILE_SIZE as T;

    #[test]
    fn new_buffer_is_black_generation_zero() {
        let fb = FrameBuffer::new(Resolution::new(3, 3));
        assert_eq!(fb.generation(), 0);
        assert!(fb.pixels().all(|p| p == Pixel::BLACK));
    }

    #[test]
    fn writes_bump_generation_once_per_batch() {
        let mut fb = FrameBuffer::new(Resolution::new(8, 8));
        fb.fill(Pixel::WHITE);
        assert_eq!(fb.generation(), 1);
        fb.fill_rect(Rect::new(0, 0, 4, 4), Pixel::BLACK);
        assert_eq!(fb.generation(), 2);
        fb.touch();
        assert_eq!(fb.generation(), 3);
    }

    #[test]
    fn fill_rect_clips_to_screen() {
        let mut fb = FrameBuffer::new(Resolution::new(4, 4));
        fb.fill_rect(Rect::new(2, 2, 10, 10), Pixel::WHITE);
        assert_eq!(fb.pixel(3, 3), Pixel::WHITE);
        assert_eq!(fb.pixel(1, 1), Pixel::BLACK);
    }

    #[test]
    fn copy_from_round_trips() {
        let mut a = FrameBuffer::new(Resolution::new(5, 5));
        a.fill_rect(Rect::new(1, 1, 2, 2), Pixel::rgb(9, 9, 9));
        let mut b = FrameBuffer::new(Resolution::new(5, 5));
        b.copy_from(&a);
        assert!(a.pixels().eq(b.pixels()));
    }

    #[test]
    #[should_panic(expected = "matching resolutions")]
    fn copy_from_rejects_mismatch() {
        let a = FrameBuffer::new(Resolution::new(2, 2));
        let mut b = FrameBuffer::new(Resolution::new(3, 3));
        b.copy_from(&a);
    }

    #[test]
    fn scroll_up_moves_rows() {
        let mut fb = FrameBuffer::new(Resolution::new(2, 4));
        fb.fill_rect(Rect::new(0, 0, 2, 1), Pixel::WHITE); // top row white
        fb.scroll_up(1, Pixel::grey(7));
        // White row moved off the top; bottom row filled with grey.
        let px: Vec<Pixel> = fb.pixels().collect();
        assert!(px[..6].iter().all(|&p| p == Pixel::BLACK));
        assert!(px[6..].iter().all(|&p| p == Pixel::grey(7)));
    }

    #[test]
    fn scroll_up_full_height_clears() {
        let mut fb = FrameBuffer::new(Resolution::new(2, 2));
        fb.fill(Pixel::WHITE);
        fb.scroll_up(5, Pixel::BLACK);
        assert!(fb.pixels().all(|p| p == Pixel::BLACK));
    }

    #[test]
    fn rgb565_buffer_quantizes_writes() {
        let mut fb = FrameBuffer::with_format(Resolution::new(2, 2), PixelFormat::Rgb565);
        fb.set_pixel(0, 0, Pixel::rgb(0xFF, 0xFF, 0xFF));
        assert_eq!(fb.pixel(0, 0), Pixel::rgb(0xF8, 0xFC, 0xF8));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn pixel_oob_panics() {
        let fb = FrameBuffer::new(Resolution::new(2, 2));
        let _ = fb.pixel(2, 0);
    }

    #[test]
    fn touch_bumps_write_generation_only() {
        let mut fb = FrameBuffer::new(Resolution::new(4, 4));
        fb.fill(Pixel::WHITE);
        assert_eq!((fb.generation(), fb.content_generation()), (1, 1));
        fb.touch();
        fb.touch();
        assert_eq!((fb.generation(), fb.content_generation()), (3, 1));
    }

    #[test]
    fn clipped_out_draw_is_a_write_but_not_content() {
        let mut fb = FrameBuffer::new(Resolution::new(4, 4));
        fb.fill_rect(Rect::new(10, 10, 3, 3), Pixel::WHITE);
        assert_eq!(fb.generation(), 1);
        assert_eq!(fb.content_generation(), 0);
        assert!(fb.damage().is_empty());
    }

    #[test]
    fn draw_ops_accumulate_damage_until_taken() {
        let mut fb = FrameBuffer::new(Resolution::new(8, 8));
        fb.set_pixel(1, 1, Pixel::WHITE);
        fb.fill_rect(Rect::new(4, 4, 2, 2), Pixel::WHITE);
        let damage = fb.take_damage();
        assert_eq!(damage.area(), 5);
        assert!(damage.contains(1, 1));
        assert!(damage.contains(5, 5));
        assert!(!damage.contains(2, 2));
        assert!(fb.damage().is_empty());
        // Taking damage does not disturb either generation.
        assert_eq!((fb.generation(), fb.content_generation()), (2, 2));
    }

    #[test]
    fn full_buffer_ops_damage_everything() {
        let res = Resolution::new(4, 4);
        let mut fb = FrameBuffer::new(res);
        fb.fill(Pixel::WHITE);
        assert_eq!(fb.take_damage().bounding(), res.bounds());
        fb.scroll_up(1, Pixel::BLACK);
        assert_eq!(fb.take_damage().bounding(), res.bounds());
        let src = FrameBuffer::new(res);
        fb.copy_from(&src);
        assert_eq!(fb.take_damage().bounding(), res.bounds());
    }

    #[test]
    fn scroll_by_zero_is_not_content() {
        let mut fb = FrameBuffer::new(Resolution::new(2, 2));
        fb.scroll_up(0, Pixel::WHITE);
        assert_eq!(fb.generation(), 1);
        assert_eq!(fb.content_generation(), 0);
    }

    #[test]
    fn blend_rect_from_matches_per_pixel_over() {
        let res = Resolution::new(4, 4);
        let mut overlay = FrameBuffer::new(res);
        overlay.fill(Pixel::rgba(255, 255, 255, 128));
        let mut dst = FrameBuffer::new(res);
        dst.fill(Pixel::BLACK);
        dst.take_damage();

        let mut reference = dst.clone();
        let rect = Rect::new(1, 1, 2, 2);
        for y in rect.y..rect.bottom() {
            for x in rect.x..rect.right() {
                let s = overlay.pixel(x, y);
                let d = reference.pixel(x, y);
                reference.set_pixel(x, y, s.over(d));
            }
        }

        dst.blend_rect_from(&overlay, rect);
        assert!(dst.pixels().eq(reference.pixels()));
        assert_eq!(dst.take_damage().bounding(), rect);
    }

    #[test]
    fn recycled_buffer_is_indistinguishable_from_new() {
        let res = Resolution::new(6, 5);
        let mut used = FrameBuffer::new(res);
        used.fill(Pixel::WHITE);
        used.set_pixel(1, 1, Pixel::grey(3));
        let storage = used.into_storage();
        let ptr = storage.as_ptr();
        let recycled = FrameBuffer::recycled(res, storage);
        assert_eq!(recycled, FrameBuffer::new(res));
        assert_eq!(recycled.storage().as_ptr(), ptr, "allocation reused");
        // A smaller target resolution also reuses the allocation.
        let shrunk = FrameBuffer::recycled(Resolution::new(2, 2), recycled.into_storage());
        assert_eq!(shrunk, FrameBuffer::new(Resolution::new(2, 2)));
    }

    #[test]
    fn draw_ops_maintain_tile_signatures() {
        let res = Resolution::new(2 * T, 2 * T); // 2×2 tiles
        let mut fb = FrameBuffer::new(res);
        assert_eq!(fb.tiles().tile(0, 0).solid, Some(Pixel::BLACK));

        fb.fill(Pixel::grey(40));
        assert_eq!(fb.tiles().tile(1, 1).solid, Some(Pixel::grey(40)));
        assert_eq!(fb.tiles().tile(1, 1).stamp, fb.content_generation());

        // Partial fill of one tile degrades only that tile.
        fb.fill_rect(Rect::new(10, 10, 8, 8), Pixel::WHITE);
        assert_eq!(fb.tiles().tile(0, 0).solid, None);
        assert_eq!(fb.tiles().tile(1, 0).solid, Some(Pixel::grey(40)));

        // A tile-covering fill restores solidity for covered tiles.
        fb.fill_rect(Rect::new(0, 0, T, T), Pixel::grey(80));
        assert_eq!(fb.tiles().tile(0, 0).solid, Some(Pixel::grey(80)));

        fb.set_pixel(T + T / 2, T + T / 2, Pixel::WHITE);
        assert_eq!(fb.tiles().tile(1, 1).solid, None);

        fb.scroll_up(3, Pixel::BLACK);
        for ty in 0..2 {
            for tx in 0..2 {
                assert_eq!(fb.tiles().tile(tx, ty).solid, None);
                assert_eq!(fb.tiles().tile(tx, ty).stamp, fb.content_generation());
            }
        }
        // Scrolling the full height is just a fill: provably solid again.
        fb.scroll_up(2 * T + 72, Pixel::grey(7));
        assert_eq!(fb.tiles().tile(0, 1).solid, Some(Pixel::grey(7)));
    }

    #[test]
    fn copies_inherit_tile_signatures() {
        let res = Resolution::new(2 * T, T); // 2×1 tiles
        let mut src = FrameBuffer::new(res);
        src.fill_rect(Rect::new(0, 0, T, T), Pixel::grey(200));
        src.fill_rect(Rect::new(T + 6, 3, 4, 4), Pixel::WHITE);
        assert_eq!(src.tiles().tile(0, 0).solid, Some(Pixel::grey(200)));
        assert_eq!(src.tiles().tile(1, 0).solid, None);

        let mut dst = FrameBuffer::new(res);
        dst.copy_from(&src);
        assert_eq!(dst.tiles().tile(0, 0).solid, Some(Pixel::grey(200)));
        assert_eq!(dst.tiles().tile(1, 0).solid, None);
        assert_eq!(dst.tiles().tile(0, 0).stamp, dst.content_generation());

        // A rect copy covering one tile inherits just that tile; a
        // partial copy degrades to unknown.
        let mut patch = FrameBuffer::new(res);
        patch.copy_rect_from(&src, Rect::new(0, 0, T, T));
        assert_eq!(patch.tiles().tile(0, 0).solid, Some(Pixel::grey(200)));
        patch.copy_rect_from(&src, Rect::new(T, 0, 10, 10));
        assert_eq!(patch.tiles().tile(1, 0).solid, None);

        // Format conversion quantizes the inherited solid colour.
        let mut lo = FrameBuffer::with_format(res, PixelFormat::Rgb565);
        let mut bright = FrameBuffer::new(res);
        bright.fill(Pixel::rgb(201, 117, 33));
        lo.copy_from(&bright);
        assert_eq!(
            lo.tiles().tile(0, 0).solid,
            Some(PixelFormat::Rgb565.quantize(Pixel::rgb(201, 117, 33)))
        );
        assert_eq!(lo.tiles().tile(0, 0).solid, Some(lo.pixel(0, 0)));
    }

    #[test]
    fn blends_degrade_tile_signatures() {
        let res = Resolution::new(64, 64);
        let mut overlay = FrameBuffer::new(res);
        overlay.fill(Pixel::rgba(255, 255, 255, 128));
        let mut fb = FrameBuffer::new(res);
        fb.fill(Pixel::grey(10));
        assert!(fb.tiles().tile(0, 0).solid.is_some());
        fb.blend_rect_from(&overlay, res.bounds());
        assert_eq!(fb.tiles().tile(0, 0).solid, None);
        assert_eq!(fb.tiles().tile(0, 0).stamp, fb.content_generation());
    }

    #[test]
    fn solid_tiles_are_truthful() {
        // Whenever a tile claims a solid colour, every pixel in it holds
        // exactly that value — spot-checked over a mixed op sequence.
        let res = Resolution::new(100, 70); // uneven edge tiles
        let mut fb = FrameBuffer::new(res);
        fb.fill(Pixel::grey(33));
        fb.fill_rect(Rect::new(60, 10, 30, 30), Pixel::WHITE);
        fb.set_pixel(5, 5, Pixel::grey(1));
        fb.fill_rect(Rect::new(64, 64, 100, 100), Pixel::grey(9));
        let tiles = fb.tiles();
        let mut solid_seen = 0;
        for ty in 0..tiles.rows() {
            for tx in 0..tiles.cols() {
                if let Some(c) = tiles.tile(tx, ty).solid {
                    solid_seen += 1;
                    let r = tiles.tile_rect(tx, ty);
                    for y in r.y..r.bottom() {
                        for x in r.x..r.right() {
                            assert_eq!(fb.pixel(x, y), c, "tile ({tx},{ty}) at ({x},{y})");
                        }
                    }
                }
            }
        }
        assert!(solid_seen > 0, "expected at least one solid tile");
    }

    #[test]
    fn mean_luminance_of_half_white() {
        let mut fb = FrameBuffer::new(Resolution::new(2, 2));
        fb.fill_rect(Rect::new(0, 0, 2, 1), Pixel::WHITE);
        assert!((fb.mean_luminance() - 0.5).abs() < 1e-9);
    }
}
