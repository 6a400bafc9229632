//! Recycled pixel storage.
//!
//! A sweep runs thousands of scenarios, and each one historically
//! allocated (and memset) its own framebuffers, surface buffers, and
//! meter snapshots — several megabytes per run that the allocator handed
//! straight back. [`PixelPool`] keeps those `Vec<Pixel>` allocations
//! alive between runs: a finished run *gives* its buffers back, the next
//! run *takes* them, and after the first run on a worker the steady
//! state allocates nothing.
//!
//! Recycling never leaks state between runs: [`PixelPool::take`] hands
//! out empty vectors, and [`FrameBuffer::recycled`] resets generations,
//! damage and every tile signature to the freshly-constructed all-black
//! state — results are byte-identical with or without a pool (proven
//! end-to-end by `scratch_determinism` in `ccdem-experiments`). A pooled
//! vector keeps its length, so a recycled framebuffer reuses the
//! initialized slots without rewriting them: its solid-black tiles never
//! read them.

use crate::buffer::FrameBuffer;
use crate::geometry::Resolution;
use crate::pixel::Pixel;

/// A stack of reusable `Vec<Pixel>` allocations.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pool::PixelPool;
///
/// let mut pool = PixelPool::new();
/// let fb = pool.take_framebuffer(Resolution::new(8, 8));
/// pool.give_framebuffer(fb);
/// assert_eq!(pool.len(), 1);
/// // The next take reuses the allocation instead of allocating.
/// let _fb = pool.take_framebuffer(Resolution::new(8, 8));
/// assert_eq!(pool.len(), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct PixelPool {
    free: Vec<Vec<Pixel>>,
}

impl PixelPool {
    /// Creates an empty pool.
    pub fn new() -> PixelPool {
        PixelPool::default()
    }

    /// Takes one buffer from the pool (empty, capacity preserved), or a
    /// fresh empty vector when the pool is dry.
    pub fn take(&mut self) -> Vec<Pixel> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Returns a buffer to the pool. Only the allocation is ever handed
    /// out again: [`take`](Self::take) empties it first.
    pub fn give(&mut self, buf: Vec<Pixel>) {
        self.free.push(buf);
    }

    /// Takes a buffer and builds a fresh-state framebuffer from it (see
    /// [`FrameBuffer::recycled`]), keeping its initialized slots.
    pub fn take_framebuffer(&mut self, resolution: Resolution) -> FrameBuffer {
        FrameBuffer::recycled(resolution, self.free.pop().unwrap_or_default())
    }

    /// Recycles a framebuffer's storage back into the pool.
    pub fn give_framebuffer(&mut self, buffer: FrameBuffer) {
        self.give(buffer.into_storage());
    }

    /// Number of buffers currently pooled.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// Whether the pool holds no buffers.
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn framebuffer_round_trip_preserves_allocation() {
        let mut pool = PixelPool::new();
        let res = Resolution::new(16, 16);
        let mut fb = pool.take_framebuffer(res);
        fb.fill_rect(crate::geometry::Rect::new(3, 3, 5, 5), Pixel::WHITE);
        let ptr = fb.storage().as_ptr();
        pool.give_framebuffer(fb);
        let fb2 = pool.take_framebuffer(res);
        assert_eq!(fb2.storage().as_ptr(), ptr);
        assert_eq!(fb2, FrameBuffer::new(res));
    }
}
