//! The runtime twin of `ccdem-lint`'s `alloc-hot-path` family: a
//! std-only counting global allocator proves that the steady-state draw
//! ops, blits and the tile-gated meter gather never touch the heap —
//! including the paths that materialize a solid tile before a partial
//! write.
//!
//! The counter is per thread, so allocations by the test harness on its
//! own threads cannot leak into the measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pixel::{Pixel, PixelFormat};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with` never panics, even while the thread is being torn down.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Counts every allocation and reallocation of the calling thread, then
/// defers to [`System`].
struct CountingAlloc;

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter publishes no memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller's guarantees for `alloc` pass through as is.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` and `layout` come from this allocator, which is
        // `System` underneath; the caller guarantees the rest.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations the calling thread made while running `f`.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

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

#[test]
fn the_counter_sees_allocations() {
    let n = allocations_in(|| {
        std::hint::black_box(vec![Pixel::BLACK; 16]);
    });
    assert!(n >= 1, "counting allocator is not installed");
}
