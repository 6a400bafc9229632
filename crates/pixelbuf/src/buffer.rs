//! The software framebuffer.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use crate::damage::DamageRegion;
use crate::geometry::{Rect, Resolution};
use crate::pixel::{Pixel, PixelFormat};
use crate::pool::{unique, Block, Blocks, Free};
use crate::tile::{TileMap, TILE_SIZE as T};

/// A software framebuffer: a grid of [`Pixel`]s stored per tile, with two
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
/// Every draw op also maintains a [`TileMap`] of per-tile content
/// signatures (see the [`tile`](crate::tile) module), which say how each
/// tile is stored: a tile whose signature is `Some(c)` *is* the colour
/// `c`, and an unknown one holds its pixels in a reference-counted block
/// of `TILE_SIZE`² pixels. A full-screen fill only sets signatures; a
/// copy shares the blocks of the unknown tiles it covers. A write to a
/// block another buffer also holds first takes a private copy
/// (copy-on-write), and a partial write to a solid tile first fills a
/// block with its colour (materializes it). Every read goes through the
/// signature.
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
    /// Each tile's block, in tile order: `Some` exactly when the tile's
    /// signature is `solid: None`.
    blocks: Vec<Option<Arc<Block>>>,
    /// The free list blocks come from and go back to.
    free: Blocks,
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
        let tiles = TileMap::new(resolution);
        FrameBuffer {
            resolution,
            format,
            blocks: vec![None; (tiles.cols() * tiles.rows()) as usize],
            free: Blocks::default(),
            generation: 0,
            content_generation: 0,
            damage: DamageRegion::new(),
            tiles,
        }
    }

    /// The pool's recycling step: returns every block to `blocks` and
    /// resets the buffer to [`new`](Self::new)`(resolution)` drawing on
    /// them, allocating nothing when the tile count does not grow.
    pub(crate) fn reset(&mut self, resolution: Resolution, blocks: &Blocks) {
        let mut free = Free::new(blocks);
        for block in self.blocks.iter_mut().filter_map(Option::take) {
            free.release(block);
        }
        self.tiles.reset(resolution);
        let tiles = self.tiles.cols() * self.tiles.rows();
        self.blocks.resize(tiles as usize, None);
        self.resolution = resolution;
        self.format = PixelFormat::Rgba8888;
        self.free = blocks.clone();
        (self.generation, self.content_generation) = (0, 0);
        self.damage = DamageRegion::new();
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

    /// The block of tile `i` (in [`TileMap`] order), `None` for a solid
    /// tile.
    pub(crate) fn block(&self, i: usize) -> Option<&Block> {
        self.blocks.get(i)?.as_deref()
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
        self.store_fill(written, q);
        self.mark(written, Some(q));
    }

    /// Fills the whole buffer with one colour: every tile becomes solid,
    /// so only the signatures change and every block is released.
    pub fn fill(&mut self, p: Pixel) {
        self.fill_rect(self.resolution.bounds(), p);
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
    /// copy as signatures; unknown ones share their blocks when the
    /// formats match and are converted pixel by pixel when they differ.
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
            let (format, mut free) = (self.format, Free::new(&self.free));
            let blocks = &mut self.blocks;
            self.tiles.for_each_tile(r, |i, tile, _, area| {
                // A blend reads every destination pixel it writes.
                let (solid, from) = (src.tiles.get(i).and_then(|t| t.solid), src.block(i));
                let blend = |dst: &mut [Pixel], range: Range<usize>| {
                    let from = from.and_then(|b| b.get(range)).unwrap_or_default();
                    for (k, d) in dst.iter_mut().enumerate() {
                        let s = solid.or_else(|| from.get(k).copied()).unwrap_or(*d);
                        *d = format.quantize(s.over(*d));
                    }
                };
                write(
                    blocks,
                    i,
                    tile.solid,
                    r.intersection(area),
                    &mut free,
                    blend,
                );
            });
        }
        // Blend results depend on prior destination pixels, so the tiles
        // degrade to unknown content.
        self.mark(clipped.unwrap_or_default(), None);
    }

    /// Shifts the buffer contents up by `dy` pixels (a scroll), filling the
    /// exposed bottom band with `fill`.
    pub fn scroll_up(&mut self, dy: u32, fill: Pixel) {
        let dy = dy.min(self.resolution.height);
        if dy == self.resolution.height {
            // The whole screen is the fill colour: a provably solid write.
            self.fill(fill);
        } else if dy > 0 {
            self.store_scroll(dy, self.format.quantize(fill));
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
        let (i, at) = (self.tiles.index(x, y), ((y % T) * T + x % T) as usize);
        let solid = self.tiles.get(i).and_then(|t| t.solid);
        solid
            .or_else(|| self.block(i)?.get(at).copied())
            .unwrap_or(Pixel::BLACK)
    }

    /// Stores a constant fill of `q` over the on-screen `r`. The
    /// signature rules leave a covered tile solid `q`, which releases its
    /// block, and a partly covered one solid `q` when it already was; the
    /// fill writes the blocks of every other tile it touches.
    fn store_fill(&mut self, r: Rect, q: Pixel) {
        let mut free = Free::new(&self.free);
        let blocks = &mut self.blocks;
        if r == self.resolution.bounds() {
            for block in blocks.iter_mut().filter_map(Option::take) {
                free.release(block);
            }
            return;
        }
        self.tiles.for_each_tile(r, |i, tile, covered, area| {
            if covered {
                if let Some(old) = blocks.get_mut(i).and_then(Option::take) {
                    free.release(old);
                }
            } else if tile.solid != Some(q) {
                let part = r.intersection(area);
                write(blocks, i, tile.solid, part, &mut free, |dst, _| dst.fill(q));
            }
        });
    }

    /// Stores a copy of the on-screen `r` from `src`. A covered tile
    /// takes a solid source tile's colour through its signature alone and,
    /// when the formats match, shares an unknown one's block; every other
    /// tile gets the source's pixels written in this buffer's format. A
    /// copy in the same format moves this buffer onto `src`'s free list.
    fn store_copy(&mut self, src: &FrameBuffer, r: Rect) {
        let (format, convert) = (self.format, self.format != src.format);
        if !convert {
            // The blocks this buffer drops after sharing them go back to
            // the list `src` takes its next blocks from.
            self.free.follow(&src.free);
        }
        let mut free = Free::new(&self.free);
        let blocks = &mut self.blocks;
        if r == self.resolution.bounds() && !convert {
            for (slot, from) in blocks.iter_mut().zip(&src.blocks) {
                adopt(slot, from, &mut free);
            }
            return;
        }
        self.tiles.for_each_tile(r, |i, tile, covered, area| {
            let solid = src.tiles.get(i).and_then(|t| t.solid);
            if covered && (solid.is_some() || !convert) {
                if let (Some(slot), Some(from)) = (blocks.get_mut(i), src.blocks.get(i)) {
                    adopt(slot, from, &mut free);
                }
                return;
            }
            let from = src.block(i);
            let copy = |dst: &mut [Pixel], range: Range<usize>| match (
                solid,
                from.and_then(|b| b.get(range)),
            ) {
                (Some(c), _) => dst.fill(format.quantize(c)),
                (None, Some(s)) if !convert => dst.copy_from_slice(s),
                (None, Some(s)) => dst
                    .iter_mut()
                    .zip(s)
                    .for_each(|(d, &p)| *d = format.quantize(p)),
                (None, None) => {}
            };
            write(blocks, i, tile.solid, r.intersection(area), &mut free, copy);
        });
    }

    /// Moves every pixel row up by `dy` (`0 < dy < height`) and fills the
    /// bottom `dy` rows with `q`. Tiles are rewritten top row first, so a
    /// tile reads its own old rows and those of the tile below it, which
    /// are still unwritten. A tile whose block no other buffer holds
    /// shifts its own rows in place; any other tile gets a new block.
    fn store_scroll(&mut self, dy: u32, q: Pixel) {
        let (h, cols) = (self.resolution.height, self.tiles.cols());
        let mut free = Free::new(&self.free);
        let (tiles, blocks) = (&self.tiles, &mut self.blocks);
        for i in 0..blocks.len() {
            let (tx, y0) = (i as u32 % cols, i as u32 / cols * T);
            // `own`: the tile's old block while it is read into a new one.
            let (mut block, own) = match blocks.get_mut(i).and_then(Option::take) {
                Some(b) if dy < T && unique(&b) => (b, None),
                Some(b) if dy < T => (free.take(), Some(b)),
                old => {
                    if let Some(b) = old {
                        free.release(b);
                    }
                    (free.take(), None)
                }
            };
            let Some(to) = Arc::get_mut(&mut block) else {
                continue;
            };
            // Tile rows `row..` take the source rows from `y0 + row + dy`
            // on, a run of `n` at a time from one source tile.
            let (th, mut row) = (T.min(h - y0), 0);
            while row < th {
                let (at, sy) = ((row * T) as usize, y0 + row + dy);
                if sy >= h {
                    if let Some(band) = to.get_mut(at..(th * T) as usize) {
                        band.fill(q);
                    }
                    break;
                }
                let n = (T - sy % T).min(th - row).min(h - sy);
                let (j, from) = ((sy / T * cols + tx) as usize, (sy % T * T) as usize);
                let run = from..from + (n * T) as usize;
                let solid = tiles.get(j).and_then(|t| t.solid);
                if solid.is_none() && j == i && own.is_none() {
                    to.copy_within(run, at);
                } else {
                    let src = if j == i {
                        own.as_deref()
                    } else {
                        blocks.get(j).and_then(|b| b.as_deref())
                    };
                    if let Some(dst) = to.get_mut(at..at + run.len()) {
                        match (solid, src.and_then(|b| b.get(run))) {
                            (Some(c), _) => dst.fill(c),
                            (None, Some(s)) => dst.copy_from_slice(s),
                            (None, None) => {}
                        }
                    }
                }
                row += n;
            }
            if let Some(b) = own {
                free.release(b);
            }
            if let Some(slot) = blocks.get_mut(i) {
                *slot = Some(block);
            }
        }
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
    /// to this buffer's format) instead of degrading to unknown.
    fn mark_copied(&mut self, written: Rect, src: &FrameBuffer) {
        self.generation += 1;
        if !written.is_empty() {
            self.content_generation += 1;
            self.damage.add(written);
            let format = self.format;
            self.tiles
                .inherit_rect(written, self.content_generation, &src.tiles, |c| {
                    format.quantize(c)
                });
        }
    }
}

/// Makes a tile covered by a copy hold what the source tile holds: no
/// block for a solid tile, else the source's block, shared.
fn adopt(slot: &mut Option<Arc<Block>>, from: &Option<Arc<Block>>, free: &mut Free<'_>) {
    if slot.as_ref().map(Arc::as_ptr) != from.as_ref().map(Arc::as_ptr) {
        if let Some(old) = std::mem::replace(slot, from.clone()) {
            free.release(old);
        }
    }
}

/// The block of tile `i` that a write may change, holding the tile's
/// pixels: its own block when no other buffer holds it, else a private
/// copy (copy-on-write), and for a solid tile a block filled with its
/// `solid` colour (materialized).
fn private<'b>(
    blocks: &'b mut [Option<Arc<Block>>],
    i: usize,
    solid: Option<Pixel>,
    free: &mut Free<'_>,
) -> Option<&'b mut Block> {
    let slot = blocks.get_mut(i)?;
    if slot.as_ref().is_some_and(unique) {
        return slot.as_mut().and_then(Arc::get_mut);
    }
    let old = slot.take();
    let to = Arc::get_mut(slot.insert(free.take()))?;
    match &old {
        Some(from) => to.copy_from_slice(&from[..]),
        None => to.fill(solid.unwrap_or_default()),
    }
    if let Some(old) = old {
        free.release(old);
    }
    Some(to)
}

/// Writes `part` of tile `i`, solid `solid` before the write, into its
/// private block, one block row range at a time: `op(dst, range)` gets
/// the range's slots, and a single range when `part` spans the tile's
/// full width.
fn write(
    blocks: &mut [Option<Arc<Block>>],
    i: usize,
    solid: Option<Pixel>,
    part: Option<Rect>,
    free: &mut Free<'_>,
    mut op: impl FnMut(&mut [Pixel], Range<usize>),
) {
    let (Some(part), Some(to)) = (part, private(blocks, i, solid, free)) else {
        return;
    };
    let (x, y, t) = ((part.x % T) as usize, (part.y % T) as usize, T as usize);
    let (count, len) = if part.width == T {
        (1, part.height as usize * t)
    } else {
        (part.height as usize, part.width as usize)
    };
    for range in (y..y + count).map(|r| r * t + x..r * t + x + len) {
        if let Some(dst) = to.get_mut(range.clone()) {
            op(dst, range);
        }
    }
}

/// Buffers are equal when everything observable is: resolution, format,
/// both generations, damage, signatures and every pixel value — never
/// how the pixels are stored.
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

/// Omits the blocks: the pixels are [`pixels`](FrameBuffer::pixels).
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
    fn copies_share_blocks_until_either_side_writes() {
        let res = Resolution::new(2 * T, T); // 2×1 tiles
        let mut src = FrameBuffer::new(res);
        src.fill_rect(Rect::new(3, 3, 4, 4), Pixel::WHITE);
        let mut dst = FrameBuffer::new(res);
        dst.copy_from(&src);
        let shared = |a: &FrameBuffer, b: &FrameBuffer| {
            std::ptr::eq(a.block(0).unwrap(), b.block(0).unwrap())
        };
        assert!(shared(&src, &dst), "a covering copy shares the block");
        assert_eq!(dst.block(1), None, "a solid tile holds no block");
        let before: Vec<Pixel> = src.pixels().collect();
        dst.set_pixel(0, 0, Pixel::grey(5)); // takes a private copy first
        assert!(!shared(&src, &dst) && src.pixels().eq(before.iter().copied()));
        assert_eq!(
            (dst.pixel(0, 0), dst.pixel(3, 3)),
            (Pixel::grey(5), Pixel::WHITE)
        );
        dst.copy_from(&src);
        src.scroll_up(2, Pixel::grey(9));
        assert!(dst.pixels().eq(before.iter().copied()));
        assert_eq!(src.pixel(3, 1), Pixel::WHITE);
    }

    #[test]
    fn blocks_a_copy_drops_return_to_the_source_list() {
        // Two buffers with lists of their own, in the engine's pattern:
        // the source redraws, then the copy shares its block and drops
        // the one it held, which the source takes for its next redraw.
        let res = Resolution::new(T, T);
        let (mut src, mut dst) = (FrameBuffer::new(res), FrameBuffer::new(res));
        for k in 0..100 {
            src.fill(Pixel::grey(k));
            src.set_pixel(1, 1, Pixel::WHITE);
            dst.copy_from(&src);
        }
        assert_eq!((src.free.len(), dst.free.len()), (1, 1));
        dst.set_pixel(0, 0, Pixel::BLACK); // unshares: takes the free block
        assert_eq!((src.free.len(), dst.free.len()), (0, 0));
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
