//! Exhaustive framebuffer comparison.
//!
//! These full-resolution comparisons are the *ground truth* the grid-based
//! scheme is evaluated against in Fig. 6: the full compare never misses a
//! change but costs O(pixels), which is why the paper rejects it for the
//! per-frame hot path. They compare pixel values
//! ([`FrameBuffer::pixels`]), so solid tiles count by their colour.

use crate::buffer::FrameBuffer;

/// Whether two buffers are pixel-for-pixel identical.
///
/// # Panics
///
/// Panics if resolutions differ.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::buffer::FrameBuffer;
/// use ccdem_pixelbuf::diff::buffers_equal;
/// use ccdem_pixelbuf::geometry::Resolution;
/// use ccdem_pixelbuf::pixel::Pixel;
///
/// let a = FrameBuffer::new(Resolution::new(4, 4));
/// let mut b = FrameBuffer::new(Resolution::new(4, 4));
/// assert!(buffers_equal(&a, &b));
/// b.set_pixel(0, 0, Pixel::WHITE);
/// assert!(!buffers_equal(&a, &b));
/// ```
pub fn buffers_equal(a: &FrameBuffer, b: &FrameBuffer) -> bool {
    assert_eq!(
        a.resolution(),
        b.resolution(),
        "buffers_equal requires matching resolutions"
    );
    a.pixels().eq(b.pixels())
}

/// Number of pixels that differ between two buffers.
///
/// # Panics
///
/// Panics if resolutions differ.
pub fn changed_pixel_count(a: &FrameBuffer, b: &FrameBuffer) -> usize {
    assert_eq!(
        a.resolution(),
        b.resolution(),
        "changed_pixel_count requires matching resolutions"
    );
    a.pixels().zip(b.pixels()).filter(|(x, y)| x != y).count()
}

/// Fraction of the screen that differs, in `[0, 1]`.
///
/// # Panics
///
/// Panics if resolutions differ.
pub fn changed_fraction(a: &FrameBuffer, b: &FrameBuffer) -> f64 {
    changed_pixel_count(a, b) as f64 / a.resolution().pixel_count() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::{Rect, Resolution};
    use crate::pixel::Pixel;

    #[test]
    fn counts_exact_changes() {
        let a = FrameBuffer::new(Resolution::new(10, 10));
        let mut b = FrameBuffer::new(Resolution::new(10, 10));
        b.fill_rect(Rect::new(0, 0, 3, 3), Pixel::WHITE);
        assert_eq!(changed_pixel_count(&a, &b), 9);
        assert!((changed_fraction(&a, &b) - 0.09).abs() < 1e-12);
    }

    #[test]
    fn identical_buffers_zero_changes() {
        let a = FrameBuffer::new(Resolution::new(5, 5));
        let b = a.clone();
        assert!(buffers_equal(&a, &b));
        assert_eq!(changed_pixel_count(&a, &b), 0);
        assert_eq!(changed_fraction(&a, &b), 0.0);
    }

    #[test]
    #[should_panic(expected = "matching resolutions")]
    fn mismatched_resolutions_rejected() {
        let a = FrameBuffer::new(Resolution::new(2, 2));
        let b = FrameBuffer::new(Resolution::new(3, 3));
        let _ = buffers_equal(&a, &b);
    }
}
