//! Recycled pixel storage: meter snapshots, framebuffers and the tile
//! blocks they share.
//!
//! [`PixelPool`] keeps framebuffers and meter snapshots alive between
//! runs: a finished run *gives* them back, the next run *takes* them, and
//! after a worker's first run the steady state allocates nothing. Every
//! framebuffer of one pool draws the blocks that hold its unknown tiles
//! (see [`FrameBuffer`]) from one shared free list: the compositor's
//! framebuffer shares the blocks of the surface it composes, so it
//! releases the blocks the surface takes for its next frame. A new
//! framebuffer stocks the list with a block per tile. A copy between
//! buffers on different lists moves the destination onto the source's.
//!
//! Recycling never leaks state: [`PixelPool::take`] hands out empty
//! vectors and [`PixelPool::take_framebuffer`] the state of
//! [`FrameBuffer::new`], so results are byte-identical with or without
//! a pool (`scratch_determinism` in `ccdem-experiments`).

use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use crate::buffer::FrameBuffer;
use crate::geometry::Resolution;
use crate::pixel::Pixel;
use crate::tile::TILE_SIZE;

/// One unknown tile's pixels, row-major at a stride of `TILE_SIZE`; an
/// edge tile uses the top-left part.
pub(crate) type Block = [Pixel; (TILE_SIZE * TILE_SIZE) as usize];

/// A free list of blocks, shared by the framebuffers holding it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Blocks(Arc<Mutex<Vec<Arc<Block>>>>);

/// A [`Blocks`] list for the length of one write, locked on first use.
pub(crate) struct Free<'a>(&'a Blocks, Option<MutexGuard<'a, Vec<Arc<Block>>>>);

impl<'a> Free<'a> {
    pub(crate) fn new(blocks: &'a Blocks) -> Free<'a> {
        Free(blocks, None)
    }

    fn list(&mut self) -> &mut Vec<Arc<Block>> {
        self.1.get_or_insert_with(|| self.0.lock())
    }

    /// A block no other buffer holds, its pixels arbitrary: a pooled one,
    /// or a new one from a dry list (a pool's warm-up;
    /// `alloc_free::engine_cycle_does_not_allocate` pins the steady state).
    pub(crate) fn take(&mut self) -> Arc<Block> {
        self.list().pop().unwrap_or_else(new_block)
    }

    /// Drops one holder of `block`; the last holder puts it on the list.
    pub(crate) fn release(&mut self, block: Arc<Block>) {
        if unique(&block) {
            self.list().push(block);
        }
    }
}

impl Blocks {
    fn lock(&self) -> MutexGuard<'_, Vec<Arc<Block>>> {
        // A panic mid-push or mid-pop leaves a valid list of free blocks.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Makes this handle name the list `other` names.
    pub(crate) fn follow(&mut self, other: &Blocks) {
        if !Arc::ptr_eq(&self.0, &other.0) {
            *self = other.clone();
        }
    }

    /// Number of blocks on the list.
    pub(crate) fn len(&self) -> usize {
        self.lock().len()
    }
}

fn new_block() -> Arc<Block> {
    Arc::new([Pixel::BLACK; (TILE_SIZE * TILE_SIZE) as usize])
}

/// Whether no other buffer holds `block` (blocks have no weak handles).
pub(crate) fn unique(block: &Arc<Block>) -> bool {
    Arc::strong_count(block) == 1
}

/// Reusable meter snapshots, framebuffers and their shared blocks.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pool::PixelPool;
///
/// let mut pool = PixelPool::new();
/// let fb = pool.take_framebuffer(Resolution::new(64, 32));
/// assert_eq!(pool.free_blocks(), 2); // one block per tile, stocked
/// pool.give_framebuffer(fb);
/// // The next take reuses the buffer instead of allocating.
/// let _fb = pool.take_framebuffer(Resolution::new(64, 32));
/// assert_eq!((pool.len(), pool.free_blocks()), (0, 2));
/// ```
#[derive(Debug, Clone, Default)]
pub struct PixelPool {
    /// Snapshot vectors, and framebuffers given back (holding no blocks).
    free: Vec<Vec<Pixel>>,
    frames: Vec<FrameBuffer>,
    /// The list this pool's framebuffers share, made on first use.
    blocks: Option<Blocks>,
}

impl PixelPool {
    /// Creates an empty pool.
    pub fn new() -> PixelPool {
        PixelPool::default()
    }

    /// Takes one snapshot vector from the pool (empty, capacity
    /// preserved), or a fresh empty vector when the pool has none.
    pub fn take(&mut self) -> Vec<Pixel> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a snapshot vector to the pool. Only the allocation is ever
    /// handed out again: [`take`](Self::take) empties it first.
    pub fn give(&mut self, buf: Vec<Pixel>) {
        self.free.push(buf);
    }

    /// A framebuffer in the state of [`FrameBuffer::new`] that draws its
    /// blocks from this pool: a recycled one, or a new one that stocks the
    /// pool with a block per tile and reserves its own place to return to.
    pub fn take_framebuffer(&mut self, resolution: Resolution) -> FrameBuffer {
        let blocks = self.blocks.get_or_insert_with(Blocks::default);
        let mut fb = self.frames.pop().unwrap_or_else(|| {
            let fb = FrameBuffer::new(resolution);
            let tiles = fb.tiles().cols() * fb.tiles().rows();
            blocks.lock().extend((0..tiles).map(|_| new_block()));
            self.frames.reserve(1);
            fb
        });
        fb.reset(resolution, blocks);
        fb
    }

    /// Recycles a framebuffer into the pool, its blocks onto the list.
    pub fn give_framebuffer(&mut self, mut buffer: FrameBuffer) {
        buffer.reset(
            buffer.resolution(),
            self.blocks.get_or_insert_with(Blocks::default),
        );
        self.frames.push(buffer);
    }

    /// Number of snapshot vectors and framebuffers currently pooled.
    pub fn len(&self) -> usize {
        self.free.len() + self.frames.len()
    }

    /// Whether the pool holds no snapshot vector and no framebuffer.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of tile blocks on the pool's free list.
    pub fn free_blocks(&self) -> usize {
        self.blocks.as_ref().map_or(0, Blocks::len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Rect;

    #[test]
    fn take_reuses_the_most_recent_allocation() {
        let mut pool = PixelPool::new();
        let mut buf = Vec::with_capacity(64);
        buf.push(Pixel::WHITE);
        let ptr = buf.as_ptr();
        pool.give(buf);
        let back = pool.take();
        assert_eq!(back.as_ptr(), ptr);
        assert!(back.is_empty(), "take must hand out an empty vector");
        assert!(back.capacity() >= 64);
        assert!(pool.is_empty());
    }

    #[test]
    fn dry_pool_hands_out_fresh_vectors() {
        let mut pool = PixelPool::new();
        assert_eq!(pool.len(), 0);
        assert!(pool.take().is_empty());
        let fb = pool.take_framebuffer(Resolution::new(4, 4));
        assert_eq!(fb, FrameBuffer::new(Resolution::new(4, 4)));
    }

    #[test]
    fn framebuffer_round_trip_returns_its_blocks() {
        let mut pool = PixelPool::new();
        let res = Resolution::new(3 * TILE_SIZE, 2 * TILE_SIZE); // 6 tiles
        let (mut fb, mut other) = (pool.take_framebuffer(res), pool.take_framebuffer(res));
        fb.fill_rect(Rect::new(3, 3, 5, 5), Pixel::WHITE);
        other.copy_from(&fb); // shares the block
        pool.give_framebuffer(fb);
        assert_eq!(pool.free_blocks(), 11, "a shared block stays out");
        pool.give_framebuffer(other);
        assert_eq!(pool.free_blocks(), 12);
        assert_eq!(pool.take_framebuffer(res), FrameBuffer::new(res));
        assert_eq!((pool.len(), pool.free_blocks()), (1, 12));
    }

    #[test]
    fn recycled_framebuffer_is_new_at_any_resolution() {
        // A used buffer taken back at a smaller, a larger and again a
        // smaller resolution equals a new one, before and after drawing.
        let draw = |fb: &mut FrameBuffer| {
            fb.fill(Pixel::grey(7));
            fb.fill_rect(Rect::new(1, 1, 40, 40), Pixel::WHITE);
            fb.scroll_up(1, Pixel::grey(3));
        };
        let mut pool = PixelPool::new();
        let mut fb = pool.take_framebuffer(Resolution::new(3 * TILE_SIZE, 2 * TILE_SIZE));
        for (w, h) in [(2, 2), (4 * TILE_SIZE, 3 * TILE_SIZE), (2, 2)] {
            draw(&mut fb);
            pool.give_framebuffer(fb);
            let res = Resolution::new(w, h);
            fb = pool.take_framebuffer(res);
            let mut new = FrameBuffer::new(res);
            assert_eq!(fb, new, "taken at {res}");
            draw(&mut fb);
            draw(&mut new);
            assert_eq!(fb, new, "drawn at {res}");
        }
    }
}
