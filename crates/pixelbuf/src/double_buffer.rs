//! Double buffering (paper §3.1).
//!
//! The content-rate meter needs the *previous* framebuffer contents to
//! compare against the current ones. Copying the framebuffer into a single
//! spare buffer would serialize the copy with the comparison; the paper
//! instead keeps two spare buffers and ping-pongs between them ("double
//! buffering with asynchronous I/O"), so the snapshot of frame *n* is
//! written while frame *n−1*'s snapshot is still being compared.
//!
//! In this simulator both operations run on one thread, so what the type
//! preserves is the *protocol*: the front snapshot is immutable while a new
//! back snapshot is captured, and a swap promotes back to front in O(1).

use crate::buffer::FrameBuffer;
use crate::geometry::Resolution;

/// A pair of snapshot buffers with O(1) front/back swap.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::double_buffer::DoubleBuffer;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pixel::Pixel;
///
/// let res = Resolution::new(4, 4);
/// let mut snaps = DoubleBuffer::new(res);
/// let mut fb = FrameBuffer::new(res);
///
/// snaps.capture(&fb);                 // frame 0 snapshot
/// fb.fill(Pixel::WHITE);              // frame 1 drawn
/// assert!(!snaps.front().pixels().eq(fb.pixels()));
/// snaps.capture(&fb);                 // frame 1 snapshot
/// assert!(snaps.front().pixels().eq(fb.pixels()));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DoubleBuffer {
    front: FrameBuffer,
    back: FrameBuffer,
    captures: u64,
}

impl DoubleBuffer {
    /// Creates a buffer pair for the given resolution, both initially
    /// black.
    pub fn new(resolution: Resolution) -> DoubleBuffer {
        DoubleBuffer {
            front: FrameBuffer::new(resolution),
            back: FrameBuffer::new(resolution),
            captures: 0,
        }
    }

    /// The most recently captured snapshot.
    pub fn front(&self) -> &FrameBuffer {
        &self.front
    }

    /// The snapshot captured before the front one (one frame older).
    pub fn back(&self) -> &FrameBuffer {
        &self.back
    }

    /// Number of captures performed so far.
    pub fn captures(&self) -> u64 {
        self.captures
    }

    /// Copies `source` into the back buffer, then swaps it to the front.
    ///
    /// After this call, [`front`](Self::front) holds `source`'s contents
    /// and [`back`](Self::back) holds the previous front.
    ///
    /// # Panics
    ///
    /// Panics if `source`'s resolution differs from the pair's.
    pub fn capture(&mut self, source: &FrameBuffer) {
        self.back.copy_from(source);
        std::mem::swap(&mut self.front, &mut self.back);
        self.captures += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Pixel;

    #[test]
    fn capture_promotes_back_to_front() {
        let res = Resolution::new(2, 2);
        let mut db = DoubleBuffer::new(res);
        let mut fb = FrameBuffer::new(res);

        fb.fill(Pixel::grey(1));
        db.capture(&fb);
        fb.fill(Pixel::grey(2));
        db.capture(&fb);

        assert_eq!(db.front().pixel(0, 0), Pixel::grey(2));
        assert_eq!(db.back().pixel(0, 0), Pixel::grey(1));
        assert_eq!(db.captures(), 2);
    }

    #[test]
    fn front_holds_latest_after_every_capture() {
        let res = Resolution::new(2, 2);
        let mut db = DoubleBuffer::new(res);
        let mut fb = FrameBuffer::new(res);
        for v in 1..=5u8 {
            fb.fill(Pixel::grey(v));
            db.capture(&fb);
            assert_eq!(db.front().pixel(1, 1), Pixel::grey(v));
        }
    }

    #[test]
    #[should_panic(expected = "matching resolutions")]
    fn capture_rejects_resolution_mismatch() {
        let mut db = DoubleBuffer::new(Resolution::new(2, 2));
        let fb = FrameBuffer::new(Resolution::new(3, 3));
        db.capture(&fb);
    }
}
