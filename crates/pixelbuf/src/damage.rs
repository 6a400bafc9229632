//! Damage regions: which pixels a frame's draw operations may have
//! changed.
//!
//! Every [`FrameBuffer`](crate::buffer::FrameBuffer) draw op records the
//! rectangle it wrote into a [`DamageRegion`]. The region is a *sound
//! over-approximation*: a pixel outside the region is guaranteed
//! unchanged since the region was last [taken](crate::buffer::FrameBuffer::take_damage),
//! while a pixel inside it may or may not have changed value. That
//! one-sided guarantee is exactly what the content-rate meter needs — it
//! only has to inspect grid points *inside* the damage to classify a
//! frame, because points outside cannot have changed (paper §3.1's
//! comparison, restricted by the simulator's own draw-op information).
//!
//! The region is a small fixed-capacity set of **disjoint** rectangles.
//! Overlapping inserts are merged by union; once the capacity is
//! exceeded, everything collapses into a single bounding rectangle. Both
//! rules keep the representation `Copy`, allocation-free and cheap to
//! update from per-pixel draw loops, at the cost of over-approximating
//! scattered damage — which only ever makes the meter inspect more
//! points, never fewer.

use crate::geometry::Rect;

/// Maximum number of disjoint rectangles tracked before the region
/// collapses to a single bounding box.
pub const MAX_DAMAGE_RECTS: usize = 8;

/// A sound over-approximation of the pixels written since the last
/// [`clear`](DamageRegion::clear) / take, as at most
/// [`MAX_DAMAGE_RECTS`] disjoint rectangles.
///
/// # Examples
///
/// ```
/// use ccdem_pixelbuf::damage::DamageRegion;
/// use ccdem_pixelbuf::geometry::Rect;
///
/// let mut damage = DamageRegion::new();
/// assert!(damage.is_empty());
///
/// damage.add(Rect::new(0, 0, 4, 4));
/// damage.add(Rect::new(2, 2, 4, 4)); // overlaps: merged by union
/// assert_eq!(damage.rects(), &[Rect::new(0, 0, 6, 6)]);
///
/// damage.add(Rect::new(100, 100, 1, 1)); // disjoint: kept separate
/// assert_eq!(damage.rects().len(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DamageRegion {
    rects: [Rect; MAX_DAMAGE_RECTS],
    len: u8,
}

impl DamageRegion {
    /// An empty region.
    pub const fn new() -> DamageRegion {
        DamageRegion {
            rects: [Rect::new(0, 0, 0, 0); MAX_DAMAGE_RECTS],
            len: 0,
        }
    }

    /// A region covering exactly `rect` (empty if `rect` is empty).
    pub fn of(rect: Rect) -> DamageRegion {
        let mut region = DamageRegion::new();
        region.add(rect);
        region
    }

    /// The disjoint damaged rectangles, in no particular order.
    pub fn rects(&self) -> &[Rect] {
        // `len ≤ MAX_DAMAGE_RECTS` is a struct invariant, so the prefix
        // lookup never misses.
        self.rects.get(..self.len as usize).unwrap_or(&[])
    }

    /// Whether no pixels are damaged.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether `(x, y)` lies inside the damaged region.
    pub fn contains(&self, x: u32, y: u32) -> bool {
        self.rects().iter().any(|r| r.contains(x, y))
    }

    /// The smallest rectangle covering the whole region (empty when the
    /// region is empty).
    pub fn bounding(&self) -> Rect {
        self.rects()
            .iter()
            .copied()
            .fold(Rect::default(), Rect::union)
    }

    /// Total damaged area in pixels (exact: the rectangles are disjoint).
    pub fn area(&self) -> u64 {
        self.rects().iter().map(|r| r.area()).sum()
    }

    /// Forgets all damage.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    /// Takes the accumulated damage, leaving the region empty.
    pub fn take(&mut self) -> DamageRegion {
        let taken = *self;
        self.clear();
        taken
    }

    /// Adds `rect` to the region. Empty rectangles are ignored; a
    /// rectangle already covered by the region is a cheap no-op (the
    /// common case for per-pixel draw loops); overlapping rectangles are
    /// merged; overflow beyond [`MAX_DAMAGE_RECTS`] collapses the whole
    /// region into its bounding box.
    pub fn add(&mut self, rect: Rect) {
        if rect.is_empty() {
            return;
        }
        // Fast path: already covered by one tracked rect. Sequential
        // pixel writes land here almost every time once a surrounding
        // rect (or the collapsed bounding box) exists.
        for r in self.rects() {
            if r.contains(rect.x, rect.y) && r.contains(rect.right() - 1, rect.bottom() - 1) {
                return;
            }
        }
        // Merge with every rect the new one overlaps, preserving the
        // disjointness invariant (a union can newly overlap a third
        // rect, so loop to a fixed point).
        let mut merged = rect;
        while let Some((i, r)) = self
            .rects()
            .iter()
            .enumerate()
            .find(|(_, r)| r.intersection(merged).is_some())
            .map(|(i, &r)| (i, r))
        {
            merged = merged.union(r);
            self.remove(i);
        }
        if (self.len as usize) == MAX_DAMAGE_RECTS {
            // Capacity reached: collapse everything into one box.
            merged = self.rects().iter().copied().fold(merged, Rect::union);
            self.len = 0;
        }
        // The collapse above guarantees `len < MAX_DAMAGE_RECTS` here.
        if let Some(slot) = self.rects.get_mut(self.len as usize) {
            *slot = merged;
            self.len += 1;
        }
    }

    /// Adds every rectangle of `other`.
    pub fn add_region(&mut self, other: &DamageRegion) {
        for &r in other.rects() {
            self.add(r);
        }
    }

    fn remove(&mut self, i: usize) {
        let last = self.len as usize - 1;
        self.rects.swap(i, last);
        self.len -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_region_reports_empty() {
        let d = DamageRegion::new();
        assert!(d.is_empty());
        assert_eq!(d.rects(), &[] as &[Rect]);
        assert_eq!(d.area(), 0);
        assert!(d.bounding().is_empty());
    }

    #[test]
    fn empty_rect_ignored() {
        let mut d = DamageRegion::new();
        d.add(Rect::new(5, 5, 0, 10));
        assert!(d.is_empty());
    }

    #[test]
    fn disjoint_rects_kept_separate() {
        let mut d = DamageRegion::new();
        d.add(Rect::new(0, 0, 2, 2));
        d.add(Rect::new(10, 10, 2, 2));
        assert_eq!(d.rects().len(), 2);
        assert_eq!(d.area(), 8);
    }

    #[test]
    fn overlapping_rects_merge_to_union() {
        let mut d = DamageRegion::new();
        d.add(Rect::new(0, 0, 4, 4));
        d.add(Rect::new(2, 2, 4, 4));
        assert_eq!(d.rects(), &[Rect::new(0, 0, 6, 6)]);
    }

    #[test]
    fn merge_chains_to_fixed_point() {
        let mut d = DamageRegion::new();
        d.add(Rect::new(0, 0, 2, 2));
        d.add(Rect::new(6, 0, 2, 2));
        // Bridges both: all three must end up as one rect.
        d.add(Rect::new(1, 0, 6, 2));
        assert_eq!(d.rects(), &[Rect::new(0, 0, 8, 2)]);
    }

    #[test]
    fn contained_rect_is_noop() {
        let mut d = DamageRegion::of(Rect::new(0, 0, 10, 10));
        d.add(Rect::new(3, 3, 2, 2));
        assert_eq!(d.rects(), &[Rect::new(0, 0, 10, 10)]);
    }

    #[test]
    fn overflow_collapses_to_bounding_box() {
        let mut d = DamageRegion::new();
        for i in 0..=MAX_DAMAGE_RECTS as u32 {
            d.add(Rect::new(i * 10, 0, 1, 1));
        }
        assert_eq!(d.rects().len(), 1);
        let expect_w = MAX_DAMAGE_RECTS as u32 * 10 + 1;
        assert_eq!(d.bounding(), Rect::new(0, 0, expect_w, 1));
    }

    #[test]
    fn rects_stay_disjoint() {
        let mut d = DamageRegion::new();
        for (x, y) in [(0, 0), (5, 5), (3, 3), (20, 0), (4, 4), (19, 1)] {
            d.add(Rect::new(x, y, 4, 4));
        }
        let rects = d.rects();
        for (i, a) in rects.iter().enumerate() {
            for b in &rects[i + 1..] {
                assert_eq!(a.intersection(*b), None, "{a} overlaps {b}");
            }
        }
    }

    #[test]
    fn take_resets() {
        let mut d = DamageRegion::of(Rect::new(1, 1, 2, 2));
        let taken = d.take();
        assert!(d.is_empty());
        assert_eq!(taken.rects(), &[Rect::new(1, 1, 2, 2)]);
    }

    #[test]
    fn contains_point_queries() {
        let mut d = DamageRegion::of(Rect::new(0, 0, 2, 2));
        d.add(Rect::new(8, 8, 2, 2));
        assert!(d.contains(1, 1));
        assert!(d.contains(9, 9));
        assert!(!d.contains(4, 4));
    }
}
