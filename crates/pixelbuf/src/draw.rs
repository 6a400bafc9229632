//! Drawing primitives used by the synthetic workloads.
//!
//! The workload models need to put *plausible* pixel churn on screen — full
//! redraws, scrolls, sprite-sized dots, UI-widget rectangles — so that the
//! grid-based comparison in `ccdem-core` sees the same kinds of spatial
//! change patterns the paper's commercial applications produced.

use ccdem_simkit::rng::SimRng;

use crate::buffer::FrameBuffer;
use crate::geometry::Rect;
use crate::pixel::Pixel;

/// Draws a filled square "dot" of side `2*radius + 1` centred at
/// `(cx, cy)`, clipped to the screen.
///
/// Used by the Nexus-Revamped-style live wallpaper, whose tiny moving dots
/// are the paper's worst case for grid sampling (Fig. 6).
pub fn draw_dot(fb: &mut FrameBuffer, cx: u32, cy: u32, radius: u32, colour: Pixel) {
    let side = 2 * radius + 1;
    let x = cx.saturating_sub(radius);
    let y = cy.saturating_sub(radius);
    // Shrink the extent by however much the square hung off the top/left,
    // so the dot is clipped rather than shifted.
    let w = side - (radius - (cx - x));
    let h = side - (radius - (cy - y));
    fb.fill_rect(Rect::new(x, y, w, h), colour);
}

/// Fills the buffer with a vertical luminance gradient between two greys.
///
/// A cheap stand-in for "a rendered app screen" that is spatially
/// non-uniform, so scrolls and partial updates produce detectable pixel
/// change at most grid points.
pub fn draw_gradient(fb: &mut FrameBuffer, top: u8, bottom: u8) {
    let h = fb.resolution().height;
    let w = fb.resolution().width;
    for y in 0..h {
        let t = f64::from(y) / f64::from(h.max(1));
        let v = (f64::from(top) * (1.0 - t) + f64::from(bottom) * t) as u8;
        fb.fill_rect(Rect::new(0, y, w, 1), Pixel::grey(v));
    }
}

/// Fills `rect` with per-pixel random noise from `rng`.
///
/// Models fully dynamic content (video, particle-heavy game scenes): every
/// pixel in the region changes on every call with high probability.
pub fn draw_noise(fb: &mut FrameBuffer, rect: Rect, rng: &mut SimRng) {
    if let Some(r) = rect.clipped_to(fb.resolution()) {
        for y in r.y..r.bottom() {
            for x in r.x..r.right() {
                let bits = rng.next_u64() as u32 | 0xFF00_0000;
                fb.set_pixel(x, y, Pixel::from_bits(bits));
            }
        }
    } else {
        fb.touch();
    }
}

/// Draws a row of alternating-colour "text line" blocks inside `rect`.
///
/// Models list/feed content: structured, mostly static rows whose pixels
/// change coherently when the list scrolls.
pub fn draw_text_rows(fb: &mut FrameBuffer, rect: Rect, row_height: u32, seed: u64) {
    if row_height == 0 {
        fb.touch();
        return;
    }
    let Some(r) = rect.clipped_to(fb.resolution()) else {
        fb.touch();
        return;
    };
    let mut y = r.y;
    let mut i = seed;
    while y < r.bottom() {
        let h = row_height.min(r.bottom() - y);
        // Alternate light rows with darker "text" bands; the seed shifts
        // the phase so consecutive frames of a scroll differ.
        let v = if i.is_multiple_of(2) {
            230
        } else {
            180u8.wrapping_add((i % 40) as u8)
        };
        fb.fill_rect(Rect::new(r.x, y, r.width, h), Pixel::grey(v));
        y += row_height;
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geometry::Resolution;

    #[test]
    fn dot_is_clipped_at_origin() {
        let mut fb = FrameBuffer::new(Resolution::new(10, 10));
        draw_dot(&mut fb, 0, 0, 2, Pixel::WHITE);
        assert_eq!(fb.pixel(0, 0), Pixel::WHITE);
        assert_eq!(fb.pixel(2, 2), Pixel::WHITE);
        assert_eq!(fb.pixel(3, 3), Pixel::BLACK);
    }

    #[test]
    fn gradient_monotone_in_y() {
        let mut fb = FrameBuffer::new(Resolution::new(4, 32));
        draw_gradient(&mut fb, 0, 255);
        let top = fb.pixel(0, 0).luminance();
        let mid = fb.pixel(0, 16).luminance();
        let bot = fb.pixel(0, 31).luminance();
        assert!(top < mid && mid < bot);
    }

    #[test]
    fn noise_changes_region_only() {
        let mut fb = FrameBuffer::new(Resolution::new(16, 16));
        let mut rng = SimRng::seed_from_u64(1);
        draw_noise(&mut fb, Rect::new(0, 0, 8, 8), &mut rng);
        assert_eq!(fb.pixel(12, 12), Pixel::BLACK);
        // 64 random pixels: overwhelmingly unlikely to all stay black.
        let changed = (0..8)
            .flat_map(|y| (0..8).map(move |x| (x, y)))
            .filter(|&(x, y)| fb.pixel(x, y) != Pixel::BLACK)
            .count();
        assert!(changed > 32);
    }

    #[test]
    fn noise_is_deterministic_per_seed() {
        let mut a = FrameBuffer::new(Resolution::new(8, 8));
        let mut b = FrameBuffer::new(Resolution::new(8, 8));
        draw_noise(&mut a, Rect::new(0, 0, 8, 8), &mut SimRng::seed_from_u64(7));
        draw_noise(&mut b, Rect::new(0, 0, 8, 8), &mut SimRng::seed_from_u64(7));
        assert!(a.pixels().eq(b.pixels()));
    }

    #[test]
    fn text_rows_alternate() {
        let mut fb = FrameBuffer::new(Resolution::new(8, 8));
        draw_text_rows(&mut fb, Rect::new(0, 0, 8, 8), 2, 0);
        assert_ne!(fb.pixel(0, 0), fb.pixel(0, 2));
    }

    #[test]
    fn text_rows_phase_shifts_with_seed() {
        let mut a = FrameBuffer::new(Resolution::new(8, 8));
        let mut b = FrameBuffer::new(Resolution::new(8, 8));
        draw_text_rows(&mut a, Rect::new(0, 0, 8, 8), 2, 0);
        draw_text_rows(&mut b, Rect::new(0, 0, 8, 8), 2, 1);
        assert!(!a.pixels().eq(b.pixels()));
    }

    #[test]
    fn degenerate_draws_still_touch() {
        let mut fb = FrameBuffer::new(Resolution::new(4, 4));
        let g0 = fb.generation();
        draw_text_rows(&mut fb, Rect::new(0, 0, 4, 4), 0, 0);
        draw_noise(
            &mut fb,
            Rect::new(100, 100, 2, 2),
            &mut SimRng::seed_from_u64(0),
        );
        assert!(fb.generation() > g0);
    }
}
