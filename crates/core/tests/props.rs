//! Property-based tests for the paper's core mechanisms.

use ccdem_core::boost::TouchBooster;
use ccdem_core::content_rate::ContentRate;
use ccdem_core::meter::ContentRateMeter;
use ccdem_core::section::{NaiveRateMapper, RateMapper, SectionTable};
use ccdem_panel::refresh::{RefreshRate, RefreshRateSet};
use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::geometry::{Rect, Resolution};
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_simkit::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// One arbitrary per-frame framebuffer mutation.
#[derive(Debug, Clone, Copy)]
enum FrameOp {
    Touch,
    Fill(u8),
    FillRect(u32, u32, u32, u32, u8),
    SetPixel(u32, u32, u8),
}

fn arb_frame_op() -> impl Strategy<Value = FrameOp> {
    prop_oneof![
        Just(FrameOp::Touch),
        any::<u8>().prop_map(FrameOp::Fill),
        (0u32..48, 0u32..48, 1u32..24, 1u32..24, any::<u8>())
            .prop_map(|(x, y, w, h, g)| FrameOp::FillRect(x, y, w, h, g)),
        (0u32..48, 0u32..48, any::<u8>()).prop_map(|(x, y, g)| FrameOp::SetPixel(x, y, g)),
    ]
}

fn apply_frame_op(op: FrameOp, fb: &mut FrameBuffer) {
    match op {
        FrameOp::Touch => fb.touch(),
        FrameOp::Fill(g) => fb.fill(Pixel::grey(g)),
        FrameOp::FillRect(x, y, w, h, g) => fb.fill_rect(Rect::new(x, y, w, h), Pixel::grey(g)),
        FrameOp::SetPixel(x, y, g) => fb.set_pixel(x, y, Pixel::grey(g)),
    }
}

/// An arbitrary valid refresh-rate ladder: 1–8 distinct rates in 5..=240.
fn arb_ladder() -> impl Strategy<Value = RefreshRateSet> {
    proptest::collection::btree_set(5u32..=240, 1..8)
        .prop_map(|set| RefreshRateSet::new(set.into_iter().map(RefreshRate::new)).unwrap())
}

proptest! {
    /// Eq. 1 headroom: for any ladder, the selected rate strictly exceeds
    /// any content rate below the top threshold; above it, the maximum is
    /// selected.
    #[test]
    fn section_table_headroom(ladder in arb_ladder(), cr in 0.0f64..300.0) {
        let table = SectionTable::new(ladder.clone());
        let rate = table.rate_for(ContentRate::from_fps(cr));
        prop_assert!(ladder.contains(rate), "selected unsupported {rate}");
        let top_threshold = *table.thresholds().last().unwrap();
        if cr <= top_threshold {
            prop_assert!(
                rate.hz_f64() > cr || ladder.is_singleton() && cr > rate.hz_f64(),
                "rate {rate} lacks headroom over {cr} fps"
            );
        } else {
            prop_assert_eq!(rate, ladder.max());
        }
    }

    /// The selected rate is monotone non-decreasing in the content rate.
    #[test]
    fn section_table_monotone(ladder in arb_ladder(), a in 0.0f64..300.0, b in 0.0f64..300.0) {
        let table = SectionTable::new(ladder);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let r_lo = table.rate_for(ContentRate::from_fps(lo));
        let r_hi = table.rate_for(ContentRate::from_fps(hi));
        prop_assert!(r_lo <= r_hi, "rate_for not monotone: {r_lo} then {r_hi}");
    }

    /// Thresholds are strictly increasing and each sits strictly between
    /// its adjacent rates (the Eq. 1 median property).
    #[test]
    fn section_thresholds_are_medians(ladder in arb_ladder()) {
        let table = SectionTable::new(ladder.clone());
        let rates = ladder.as_slice();
        let thresholds = table.thresholds();
        prop_assert_eq!(thresholds.len(), rates.len());
        let mut prev_hz = 0.0;
        for (i, (&th, &r)) in thresholds.iter().zip(rates).enumerate() {
            prop_assert!((th - (prev_hz + r.hz_f64()) / 2.0).abs() < 1e-12);
            if i > 0 {
                prop_assert!(th > thresholds[i - 1]);
            }
            prev_hz = r.hz_f64();
        }
    }

    /// The section table never selects below the naive (ceiling) rule:
    /// headroom means at-or-above the minimal feasible rate.
    #[test]
    fn section_at_least_naive(ladder in arb_ladder(), cr in 0.0f64..300.0) {
        let section = SectionTable::new(ladder.clone());
        let naive = NaiveRateMapper::new(ladder);
        let cr = ContentRate::from_fps(cr);
        prop_assert!(section.rate_for(cr) >= naive.rate_for(cr));
    }

    /// Booster: active exactly within `hold` of the latest touch, and
    /// deadlines never move backwards.
    #[test]
    fn booster_deadline_monotone(
        touches in proptest::collection::vec(0u64..100_000_000, 1..50),
        hold_ms in 1u64..5_000,
        probe in 0u64..120_000_000,
    ) {
        let mut b = TouchBooster::new(SimDuration::from_millis(hold_ms));
        let mut deadline = None::<SimTime>;
        for &t in &touches {
            b.on_touch(SimTime::from_micros(t));
            let new = b.boosted_until().unwrap();
            if let Some(d) = deadline {
                prop_assert!(new >= d, "deadline moved backwards");
            }
            deadline = Some(new);
        }
        let latest = touches.iter().copied().max().unwrap();
        let expected_deadline = SimTime::from_micros(latest) + SimDuration::from_millis(hold_ms);
        prop_assert_eq!(b.boosted_until().unwrap(), expected_deadline);
        let probe_t = SimTime::from_micros(probe);
        prop_assert_eq!(b.is_active(probe_t), probe_t <= expected_deadline);
    }

    /// Meter conservation: every observed frame is classified exactly
    /// once, so meaningful + redundant = total, for any change pattern.
    #[test]
    fn meter_conserves_frames(pattern in proptest::collection::vec(any::<bool>(), 1..120)) {
        let res = Resolution::new(32, 32);
        let mut meter = ContentRateMeter::new(GridSampler::full(res));
        let mut fb = FrameBuffer::new(res);
        let mut grey = 0u8;
        let mut expected_meaningful = 0usize;
        for (i, &change) in pattern.iter().enumerate() {
            if change {
                grey = grey.wrapping_add(1);
                fb.fill(Pixel::grey(grey));
            } else {
                fb.touch();
            }
            let t = SimTime::from_micros(i as u64 * 16_667);
            let class = meter.observe(&fb, t);
            // With a full sampler the classification is exact, except the
            // priming frame which is always meaningful.
            let truly_meaningful = if i == 0 { true } else { change && grey != 0 };
            // grey wraps to 0 only after 256 changes; pattern < 256 so a
            // change is always a real pixel change here — except a change
            // to the same grey the buffer already has (cannot happen:
            // grey increments).
            prop_assert_eq!(class.is_meaningful(), truly_meaningful, "frame {}", i);
            if class.is_meaningful() {
                expected_meaningful += 1;
            }
        }
        prop_assert_eq!(meter.frames().count(), pattern.len());
        prop_assert_eq!(meter.meaningful_frames().count(), expected_meaningful);
        // Conservation of rates over the whole run.
        let end = SimTime::from_micros(pattern.len() as u64 * 16_667);
        let window = SimDuration::from_micros(pattern.len() as u64 * 16_667);
        let fr = meter.frame_rate(end, window);
        let cr = meter.content_rate(end, window).fps();
        let rr = meter.redundant_rate(end, window);
        prop_assert!((fr - cr - rr).abs() < 1e-9);
    }

    /// The damage-aware meter and the naive double-gather meter classify
    /// every frame of an arbitrary draw sequence identically (and agree
    /// on sampled luminance), while touch-only frames never cost the
    /// fast meter a single pixel read.
    #[test]
    fn damage_aware_meter_matches_naive(
        budget in 16usize..1_500,
        ops in proptest::collection::vec(arb_frame_op(), 1..60),
    ) {
        let res = Resolution::new(48, 48);
        let sampler = GridSampler::for_pixel_budget(res, budget);
        let mut fast = ContentRateMeter::new(sampler.clone());
        let mut naive = ContentRateMeter::new(sampler);
        naive.set_naive(true);
        let mut fb = FrameBuffer::new(res);
        // Prime both meters on the initial frame.
        let initial = fb.take_damage();
        fast.observe_damaged(&fb, &initial, SimTime::ZERO);
        naive.observe(&fb, SimTime::ZERO);
        for (i, &op) in ops.iter().enumerate() {
            apply_frame_op(op, &mut fb);
            let damage = fb.take_damage();
            let t = SimTime::from_micros((i as u64 + 1) * 16_667);
            let read_before = fast.points_read();
            let checked_before = fast.tiles_checked();
            let fast_class = fast.observe_damaged(&fb, &damage, t);
            if matches!(op, FrameOp::Touch) {
                prop_assert_eq!(
                    fast.points_read(), read_before,
                    "touch-only frame read pixels"
                );
                prop_assert_eq!(
                    fast.tiles_checked(), checked_before,
                    "touch-only frame consulted tile signatures"
                );
            }
            let naive_class = naive.observe(&fb, t);
            prop_assert_eq!(fast_class, naive_class, "frame {} diverged", i);
            prop_assert_eq!(
                fast.mean_sampled_luminance(),
                naive.mean_sampled_luminance(),
                "luminance diverged on frame {}", i
            );
        }
        prop_assert_eq!(fast.frames().count(), naive.frames().count());
        prop_assert_eq!(
            fast.meaningful_frames().count(),
            naive.meaningful_frames().count()
        );
        // The fast path never reads more than the naive oracle pass; the
        // exact reads per frame (zero on a redundant frame) are pinned in
        // the meter's `bench_cases_read_exact_points_at_every_paper_budget`.
        prop_assert!(fast.points_read() <= naive.points_read());
        // Tile accounting: only checked tiles descend, and the naive
        // reference never consults a signature.
        prop_assert!(fast.tiles_descended() <= fast.tiles_checked());
        prop_assert_eq!(naive.tiles_checked(), 0);
    }

    /// Content-rate arithmetic: subtraction saturates, addition is exact.
    #[test]
    fn content_rate_algebra(a in 0.0f64..1e6, b in 0.0f64..1e6) {
        let ca = ContentRate::from_fps(a);
        let cb = ContentRate::from_fps(b);
        prop_assert!((ca + cb).fps() >= ca.fps().max(cb.fps()));
        prop_assert!((ca - cb).fps() >= 0.0);
        prop_assert_eq!((ca + cb - cb).fps().min(a), a.min((ca + cb - cb).fps()));
    }
}
