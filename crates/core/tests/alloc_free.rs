//! The runtime twin of `ccdem-lint`'s `alloc-hot-path` proof for the
//! meter: the counting global allocator of `crates/pixelbuf/tests` shows
//! that `ContentRateMeter::observe_damaged` and `observe` allocate
//! nothing per steady-state frame — redundant, small-damage, full-fill
//! and scroll frames alike, on the paper's 9216-point grid and on the
//! full grid.
//!
//! Steady state needs a retention horizon. The meter records every
//! frame's timestamp in two `EventCounter`s; with
//! `set_retention(Some(..))` they drop timestamps older than the
//! horizon, so once a run is past it their storage stops growing.
//! Without a horizon, the default, they keep every timestamp and grow
//! for the whole run (the unbounded state ROADMAP's *Soak* item is
//! about); this test leaves that default alone.

#[path = "../../pixelbuf/tests/counting_alloc/mod.rs"]
mod counting_alloc;

use ccdem_core::meter::ContentRateMeter;
use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_simkit::time::{SimDuration, SimTime};
use counting_alloc::allocations_in;

/// The meter's timestamp horizon: one 500 ms control window.
const HORIZON: SimDuration = SimDuration::from_millis(500);

/// One 60 Hz frame period.
const FRAME_US: u64 = 16_667;

/// Frames `frames` of a cycle of the four steady-state frame kinds — a
/// redundant resubmission, a small damaged patch, a full-screen fill and
/// a scroll — each observed through `observe_damaged` (with the frame's
/// damage) or `observe`. Returns the allocations made inside the meter
/// calls alone.
fn run(
    meter: &mut ContentRateMeter,
    fb: &mut FrameBuffer,
    frames: std::ops::Range<u64>,
    damaged: bool,
) -> u64 {
    let mut allocations = 0;
    for frame in frames {
        let grey = Pixel::grey((frame % 200) as u8 + 1);
        match frame % 4 {
            0 => fb.touch(),
            1 => fb.fill_rect(Rect::new(40, 60, 90, 40), grey),
            2 => fb.fill(grey),
            _ => fb.scroll_up(7, grey),
        }
        let damage = fb.take_damage();
        let now = SimTime::from_micros(frame * FRAME_US);
        allocations += allocations_in(|| {
            if damaged {
                meter.observe_damaged(fb, &damage, now)
            } else {
                meter.observe(fb, now)
            }
        });
    }
    allocations
}

#[test]
fn steady_state_meter_frames_do_not_allocate() {
    let res = Resolution::GALAXY_S3;
    let warm_up = 2 * HORIZON.as_micros() / FRAME_US;
    for sampler in [
        GridSampler::for_pixel_budget(res, 9_216),
        GridSampler::full(res),
    ] {
        for damaged in [true, false] {
            let mut meter = ContentRateMeter::new(sampler.clone());
            meter.set_retention(Some(HORIZON));
            let mut fb = FrameBuffer::new(res);
            // Prime, then run past the horizon so the counters' storage
            // has reached its steady length.
            run(&mut meter, &mut fb, 0..warm_up, damaged);
            let read_before = meter.points_read();

            let n = run(&mut meter, &mut fb, warm_up..warm_up + 40, damaged);
            let grid = sampler.sample_count();
            assert_eq!(
                n, 0,
                "{grid}-point grid, damaged {damaged}: {n} heap allocations"
            );
            // Not vacuous: pixels were read, and the horizon pruned.
            assert!(meter.points_read() > read_before);
            assert!(meter.frames().retained_len() < meter.frames().count());
        }
    }
}
