//! Screen geometry: resolutions and rectangles.

use std::fmt;

/// A display resolution in pixels.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::geometry::Resolution;
///
/// let r = Resolution::GALAXY_S3;
/// assert_eq!(r.pixel_count(), 921_600);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Resolution {
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Resolution {
    /// Samsung Galaxy S3 (SHV-E210S): 720×1280 HD, the paper's test device.
    pub const GALAXY_S3: Resolution = Resolution::new(720, 1280);

    /// A quarter-scale panel used to keep unit tests fast.
    pub const QUARTER: Resolution = Resolution::new(180, 320);

    /// Creates a resolution.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub const fn new(width: u32, height: u32) -> Resolution {
        assert!(
            width > 0 && height > 0,
            "resolution dimensions must be non-zero"
        );
        Resolution { width, height }
    }

    /// Total number of pixels.
    pub const fn pixel_count(self) -> usize {
        (self.width as usize) * (self.height as usize)
    }

    /// The full-screen rectangle at this resolution.
    pub const fn bounds(self) -> Rect {
        Rect {
            x: 0,
            y: 0,
            width: self.width,
            height: self.height,
        }
    }

    /// Whether `(x, y)` lies on the screen.
    pub const fn contains(self, x: u32, y: u32) -> bool {
        x < self.width && y < self.height
    }
}

impl fmt::Display for Resolution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}", self.width, self.height)
    }
}

/// An axis-aligned rectangle in screen coordinates.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::geometry::Rect;
///
/// let a = Rect::new(0, 0, 10, 10);
/// let b = Rect::new(5, 5, 10, 10);
/// assert_eq!(a.intersection(b), Some(Rect::new(5, 5, 5, 5)));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct Rect {
    /// Left edge.
    pub x: u32,
    /// Top edge.
    pub y: u32,
    /// Width in pixels.
    pub width: u32,
    /// Height in pixels.
    pub height: u32,
}

impl Rect {
    /// Creates a rectangle. Zero-sized rectangles are allowed and represent
    /// an empty region.
    pub const fn new(x: u32, y: u32, width: u32, height: u32) -> Rect {
        Rect {
            x,
            y,
            width,
            height,
        }
    }

    /// Area in pixels.
    pub const fn area(self) -> u64 {
        (self.width as u64) * (self.height as u64)
    }

    /// Whether the rectangle covers no pixels.
    pub const fn is_empty(self) -> bool {
        self.width == 0 || self.height == 0
    }

    /// Exclusive right edge.
    pub const fn right(self) -> u32 {
        self.x + self.width
    }

    /// Exclusive bottom edge.
    pub const fn bottom(self) -> u32 {
        self.y + self.height
    }

    /// Whether `(px, py)` lies inside.
    pub const fn contains(self, px: u32, py: u32) -> bool {
        px >= self.x && px < self.right() && py >= self.y && py < self.bottom()
    }

    /// The overlapping region of two rectangles, or `None` if disjoint or
    /// either is empty.
    pub fn intersection(self, other: Rect) -> Option<Rect> {
        if self.is_empty() || other.is_empty() {
            return None;
        }
        let x = self.x.max(other.x);
        let y = self.y.max(other.y);
        let right = self.right().min(other.right());
        let bottom = self.bottom().min(other.bottom());
        if x < right && y < bottom {
            Some(Rect::new(x, y, right - x, bottom - y))
        } else {
            None
        }
    }

    /// The smallest rectangle containing both inputs. An empty rectangle
    /// acts as the identity.
    pub fn union(self, other: Rect) -> Rect {
        if self.is_empty() {
            return other;
        }
        if other.is_empty() {
            return self;
        }
        let x = self.x.min(other.x);
        let y = self.y.min(other.y);
        let right = self.right().max(other.right());
        let bottom = self.bottom().max(other.bottom());
        Rect::new(x, y, right - x, bottom - y)
    }

    /// Clips this rectangle to the screen bounds of `resolution`.
    /// Returns `None` if nothing remains visible.
    pub fn clipped_to(self, resolution: Resolution) -> Option<Rect> {
        self.intersection(resolution.bounds())
    }
}

impl fmt::Display for Rect {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}x{}+{}+{}", self.width, self.height, self.x, self.y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resolution_bounds_and_counts() {
        let r = Resolution::new(4, 8);
        assert_eq!(r.pixel_count(), 32);
        assert_eq!(r.bounds(), Rect::new(0, 0, 4, 8));
        assert!(r.contains(3, 7));
        assert!(!r.contains(4, 0));
    }

    #[test]
    fn disjoint_rects_do_not_intersect() {
        let a = Rect::new(0, 0, 5, 5);
        let b = Rect::new(5, 0, 5, 5);
        assert_eq!(a.intersection(b), None);
    }

    #[test]
    fn intersection_commutes() {
        let a = Rect::new(2, 3, 10, 4);
        let b = Rect::new(5, 0, 4, 20);
        assert_eq!(a.intersection(b), b.intersection(a));
        assert_eq!(a.intersection(b), Some(Rect::new(5, 3, 4, 4)));
    }

    #[test]
    fn union_contains_both() {
        let a = Rect::new(0, 0, 2, 2);
        let b = Rect::new(10, 10, 2, 2);
        let u = a.union(b);
        assert!(u.contains(1, 1));
        assert!(u.contains(11, 11));
        assert_eq!(u, Rect::new(0, 0, 12, 12));
    }

    #[test]
    fn empty_rect_union_identity() {
        let a = Rect::new(3, 3, 4, 4);
        assert_eq!(a.union(Rect::default()), a);
        assert_eq!(Rect::default().union(a), a);
    }

    #[test]
    fn empty_rect_never_intersects() {
        let a = Rect::new(0, 0, 10, 10);
        assert_eq!(a.intersection(Rect::new(5, 5, 0, 3)), None);
    }

    #[test]
    fn clipping_to_screen() {
        let r = Resolution::new(100, 100);
        let partially_off = Rect::new(90, 90, 20, 20);
        assert_eq!(partially_off.clipped_to(r), Some(Rect::new(90, 90, 10, 10)));
        let fully_off = Rect::new(200, 0, 5, 5);
        assert_eq!(fully_off.clipped_to(r), None);
    }
}
