//! Application surfaces.
//!
//! In Android, every window renders into its own *surface*; Surface
//! Manager (SurfaceFlinger) combines the surfaces into the framebuffer
//! (paper §2.1). Here each surface owns a full-resolution buffer the
//! application draws into, plus a z-order and visibility flag.

use std::fmt;

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::geometry::{Rect, Resolution};

/// Identifies a surface within one compositor.
///
/// # Examples
///
/// ```
/// use ccdem_compositor::surface::SurfaceId;
///
/// let id = SurfaceId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SurfaceId(usize);

impl SurfaceId {
    /// Creates an id from a raw index.
    pub const fn new(index: usize) -> SurfaceId {
        SurfaceId(index)
    }

    /// The raw index.
    pub const fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for SurfaceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "surface#{}", self.0)
    }
}

/// One application window's rendering target.
#[derive(Debug, Clone)]
pub struct Surface {
    id: SurfaceId,
    label: String,
    buffer: FrameBuffer,
    bounds: Rect,
    z_order: i32,
    visible: bool,
    opaque: bool,
    layout_generation: u64,
}

impl Surface {
    /// Creates a visible, opaque, full-screen surface at z-order 0.
    pub fn new(id: SurfaceId, label: impl Into<String>, resolution: Resolution) -> Surface {
        Surface::with_buffer(id, label, FrameBuffer::new(resolution))
    }

    /// [`new`](Self::new) with a caller-provided buffer — typically one
    /// recycled through a [`PixelPool`](ccdem_pixelbuf::pool::PixelPool),
    /// which is indistinguishable from a fresh buffer. The surface covers
    /// the buffer's full resolution.
    pub fn with_buffer(id: SurfaceId, label: impl Into<String>, buffer: FrameBuffer) -> Surface {
        Surface {
            id,
            label: label.into(),
            bounds: buffer.resolution().bounds(),
            buffer,
            z_order: 0,
            visible: true,
            opaque: true,
            layout_generation: 0,
        }
    }

    /// Consumes the surface, returning its buffer for recycling.
    pub fn into_buffer(self) -> FrameBuffer {
        self.buffer
    }

    /// The surface id.
    pub fn id(&self) -> SurfaceId {
        self.id
    }

    /// Human-readable label (usually the app name).
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The surface's pixel buffer.
    pub fn buffer(&self) -> &FrameBuffer {
        &self.buffer
    }

    /// Mutable access for the owning application to draw into.
    pub fn buffer_mut(&mut self) -> &mut FrameBuffer {
        &mut self.buffer
    }

    /// The screen region this surface occupies; composition touches only
    /// these pixels. Defaults to the full screen.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// Restricts the surface to a screen region (a status bar, a
    /// picture-in-picture window). The region is clipped to the screen.
    ///
    /// # Panics
    ///
    /// Panics if `bounds` lies entirely off-screen.
    pub fn set_bounds(&mut self, bounds: Rect) {
        let clipped = bounds
            .clipped_to(self.buffer.resolution())
            // ccdem-lint: allow(panic) — documented `# Panics` contract
            .expect("surface bounds must intersect the screen");
        self.bounds = clipped;
        self.layout_generation += 1;
    }

    /// Composition order; higher z composes on top.
    pub fn z_order(&self) -> i32 {
        self.z_order
    }

    /// Sets the composition order.
    pub fn set_z_order(&mut self, z: i32) {
        self.z_order = z;
        self.layout_generation += 1;
    }

    /// Whether the surface participates in composition.
    pub fn is_visible(&self) -> bool {
        self.visible
    }

    /// Shows or hides the surface.
    pub fn set_visible(&mut self, visible: bool) {
        self.visible = visible;
        self.layout_generation += 1;
    }

    /// Whether composition may copy instead of alpha-blend this surface.
    pub fn is_opaque(&self) -> bool {
        self.opaque
    }

    /// Marks the surface as translucent (alpha-blended) or opaque.
    pub fn set_opaque(&mut self, opaque: bool) {
        self.opaque = opaque;
        self.layout_generation += 1;
    }

    /// Counts bounds/z-order/visibility/opacity changes. The compositor
    /// compares the sum across surfaces between composes: while it is
    /// stable, composition restricted to the surfaces' accumulated damage
    /// produces the same framebuffer as a full recompose, so the
    /// compositor may take the incremental path.
    pub fn layout_generation(&self) -> u64 {
        self.layout_generation
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_pixelbuf::pixel::Pixel;

    #[test]
    fn surface_defaults() {
        let s = Surface::new(SurfaceId::new(0), "app", Resolution::new(4, 4));
        assert!(s.is_visible());
        assert!(s.is_opaque());
        assert_eq!(s.z_order(), 0);
        assert_eq!(s.label(), "app");
    }

    #[test]
    fn drawing_goes_through_buffer_mut() {
        let mut s = Surface::new(SurfaceId::new(1), "app", Resolution::new(2, 2));
        s.buffer_mut().fill(Pixel::WHITE);
        assert_eq!(s.buffer().pixel(1, 1), Pixel::WHITE);
    }

    #[test]
    fn bounds_default_full_screen_and_clip() {
        let mut s = Surface::new(SurfaceId::new(0), "bar", Resolution::new(10, 20));
        assert_eq!(s.bounds(), Rect::new(0, 0, 10, 20));
        s.set_bounds(Rect::new(0, 0, 50, 3));
        assert_eq!(s.bounds(), Rect::new(0, 0, 10, 3));
    }

    #[test]
    #[should_panic(expected = "intersect the screen")]
    fn off_screen_bounds_rejected() {
        let mut s = Surface::new(SurfaceId::new(0), "bar", Resolution::new(10, 10));
        s.set_bounds(Rect::new(100, 100, 4, 4));
    }

    #[test]
    fn id_round_trips() {
        assert_eq!(SurfaceId::new(7).index(), 7);
        assert_eq!(SurfaceId::new(7).to_string(), "surface#7");
    }
}
