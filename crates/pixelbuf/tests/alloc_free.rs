//! The runtime twin of `ccdem-lint`'s `alloc-hot-path` family: a
//! std-only counting global allocator (`counting_alloc`) proves that the
//! steady-state draw ops, blits and the tile-gated meter gather never
//! touch the heap — including the paths that materialize a solid tile
//! before a partial write, and the copy-on-write of a block that a
//! composed framebuffer shares with the surface drawing its next frame.

mod counting_alloc;

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::draw::draw_dot;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pixel::{Pixel, PixelFormat};
use ccdem_pixelbuf::pool::PixelPool;
use ccdem_pixelbuf::TILE_SIZE;
use counting_alloc::allocations_in;

/// One steady-state frame: every tile goes solid, then partial writes
/// materialize tiles one by one, a scroll materializes the rest, and the
/// meter gathers after each half.
fn frame(
    fb: &mut FrameBuffer,
    src: &FrameBuffer,
    overlay: &FrameBuffer,
    sampler: &GridSampler,
    snapshot: &mut Vec<Pixel>,
    step: u8,
) {
    let mut lcg = fb.content_generation();
    fb.fill(Pixel::grey(step));
    fb.fill_rect(Rect::new(10, 10, 20, 20), Pixel::WHITE);
    fb.set_pixel(100, 100, Pixel::grey(step ^ 0x55));
    fb.copy_rect_from(src, Rect::new(30, 70, 90, 90));
    fb.blend_rect_from(overlay, Rect::new(0, 200, 180, 40));
    let damage = fb.take_damage();
    sampler.compare_and_capture_tiled(fb, &damage, lcg, snapshot);
    lcg = fb.content_generation();

    fb.scroll_up(7, Pixel::grey(step.wrapping_add(1)));
    fb.copy_from(src);
    fb.fill_rect(Rect::new(0, 0, 64, 64), Pixel::grey(step));
    let damage = fb.take_damage();
    sampler.compare_and_capture_tiled(fb, &damage, lcg, snapshot);
    sampler.sample_into(fb, snapshot);
}

#[test]
fn steady_state_draws_blits_and_gathers_do_not_allocate() {
    let res = Resolution::QUARTER; // 180×320: partial edge tiles
    for format in [PixelFormat::Rgba8888, PixelFormat::Rgb565] {
        // A source mixing solid and unknown tiles, and a translucent one.
        let mut src = FrameBuffer::new(res);
        src.fill(Pixel::rgb(200, 40, 90));
        src.fill_rect(Rect::new(50, 50, 30, 200), Pixel::grey(17));
        let mut overlay = FrameBuffer::new(res);
        overlay.fill(Pixel::rgba(255, 255, 255, 96));
        overlay.set_pixel(5, 210, Pixel::rgba(0, 0, 0, 200));

        let mut fb = FrameBuffer::with_format(res, format);
        for budget in [2_304, res.pixel_count()] {
            let sampler = GridSampler::for_pixel_budget(res, budget);
            let mut snapshot = Vec::new();
            sampler.sample_into(&fb, &mut snapshot);
            // Warm-up frame: any lazily sized state reaches capacity.
            frame(&mut fb, &src, &overlay, &sampler, &mut snapshot, 1);

            let n = allocations_in(|| {
                for step in 2..12 {
                    frame(&mut fb, &src, &overlay, &sampler, &mut snapshot, step);
                }
            });
            assert_eq!(n, 0, "{format:?} at budget {budget}: {n} heap allocations");
        }
    }
}

/// One engine-shaped cycle: the app surface draws a game frame (a fill
/// and three 9×9 sprite dots), then scrolls, and after each the
/// compositor copies it into the framebuffer and the meter gathers. In
/// RGBA8888 every copy shares the surface's blocks, so each next draw
/// writes blocks the framebuffer still holds.
fn engine_cycle(
    surface: &mut FrameBuffer,
    fb: &mut FrameBuffer,
    sampler: &GridSampler,
    snapshot: &mut [Pixel],
    step: u32,
) {
    let res = surface.resolution();
    surface.fill(Pixel::grey(step as u8));
    for k in 0..3 {
        let (x, y) = (
            (step * 37 + k * 61) % res.width,
            (step * 53 + k * 89) % res.height,
        );
        draw_dot(surface, x, y, 4, Pixel::WHITE);
    }
    for _ in 0..2 {
        let lcg = fb.content_generation();
        fb.copy_from(surface);
        let damage = fb.take_damage();
        sampler.compare_and_capture_tiled(fb, &damage, lcg, snapshot);
        surface.scroll_up(1 + step % 40, Pixel::grey(step as u8 ^ 0x5a));
    }
}

#[test]
fn engine_cycle_does_not_allocate() {
    let res = Resolution::QUARTER;
    let tiles = (res.width.div_ceil(TILE_SIZE) * res.height.div_ceil(TILE_SIZE)) as usize;
    for format in [PixelFormat::Rgba8888, PixelFormat::Rgb565] {
        // The engine's buffers come from one pool; a framebuffer of
        // another format never shares a block, so its own list serves it.
        let mut pool = PixelPool::new();
        let mut surface = pool.take_framebuffer(res);
        let mut fb = match format {
            PixelFormat::Rgba8888 => pool.take_framebuffer(res),
            other => FrameBuffer::with_format(res, other),
        };
        let sampler = GridSampler::for_pixel_budget(res, 576);
        let mut snapshot = sampler.sample(&fb);
        // Warm-up: the lists reach the cycle's peak.
        for step in 0..4 {
            engine_cycle(&mut surface, &mut fb, &sampler, &mut snapshot, step);
        }
        for round in 0..10 {
            let n = allocations_in(|| {
                for step in 0..100 {
                    engine_cycle(
                        &mut surface,
                        &mut fb,
                        &sampler,
                        &mut snapshot,
                        round * 100 + step,
                    );
                }
            });
            assert_eq!(n, 0, "{format:?}, round {round}: {n} heap allocations");
            assert!(
                pool.free_blocks() <= 3 * tiles,
                "{format:?}: {} pooled blocks for {tiles} tiles",
                pool.free_blocks()
            );
        }
    }
}
