//! Micro-benchmarks of the governor's per-frame and per-window hot paths.
//!
//! These bound the runtime overhead the scheme would add to a real
//! compositor: one meter observation per framebuffer write, one table
//! lookup per control window, one compose per V-Sync.
//!
//! Run with `cargo bench -p ccdem-bench --bench micro_core`.

use ccdem_compositor::flinger::SurfaceFlinger;
use ccdem_core::content_rate::ContentRate;
use ccdem_core::governor::{Governor, GovernorConfig, Policy};
use ccdem_core::meter::ContentRateMeter;
use ccdem_core::section::{RateMapper, SectionTable};
use ccdem_panel::refresh::RefreshRateSet;
use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::geometry::Resolution;
use ccdem_pixelbuf::grid::GridSampler;
use ccdem_pixelbuf::pixel::Pixel;
use ccdem_simkit::time::SimTime;
use criterion::{criterion_group, criterion_main, Criterion};

fn bench_meter_observe(c: &mut Criterion) {
    let res = Resolution::GALAXY_S3;
    let mut group = c.benchmark_group("core/meter_observe");

    // Redundant frame, fast path: the content generation is unchanged,
    // so classification is O(1) with zero pixel reads — the common
    // steady-state case on idle apps.
    group.bench_function("redundant_9k", |b| {
        let mut meter = ContentRateMeter::new(GridSampler::for_pixel_budget(res, 9_216));
        let fb = FrameBuffer::new(res);
        let mut t = 0u64;
        b.iter(|| {
            t += 16_667;
            meter.observe(&fb, SimTime::from_micros(t))
        });
    });

    // The same redundant frame in naive mode: one scalar-oracle pass
    // over the whole grid (9 216 reads).
    group.bench_function("redundant_9k_naive", |b| {
        let mut meter = ContentRateMeter::new(GridSampler::for_pixel_budget(res, 9_216));
        meter.set_naive(true);
        let fb = FrameBuffer::new(res);
        let mut t = 0u64;
        b.iter(|| {
            t += 16_667;
            meter.observe(&fb, SimTime::from_micros(t))
        });
    });

    // A small damaged region: the gather is restricted to the grid
    // points the damage intersects.
    group.bench_function("small_damage_9k", |b| {
        use ccdem_pixelbuf::geometry::Rect;
        let mut meter = ContentRateMeter::new(GridSampler::for_pixel_budget(res, 9_216));
        let mut fb = FrameBuffer::new(res);
        let patch = Rect::new(res.width / 2, res.height / 2, 90, 40);
        let mut t = 0u64;
        let mut grey = 0u8;
        b.iter(|| {
            t += 16_667;
            grey = grey.wrapping_add(1);
            fb.fill_rect(patch, Pixel::grey(grey));
            let damage = fb.take_damage();
            meter.observe_damaged(&fb, &damage, SimTime::from_micros(t))
        });
    });

    // Meaningful frame: early exit on the first differing pixel plus the
    // snapshot refresh.
    group.bench_function("meaningful_9k", |b| {
        let mut meter = ContentRateMeter::new(GridSampler::for_pixel_budget(res, 9_216));
        let mut fb = FrameBuffer::new(res);
        let mut t = 0u64;
        let mut grey = 0u8;
        b.iter(|| {
            t += 16_667;
            grey = grey.wrapping_add(1);
            fb.fill(Pixel::grey(grey.max(1)));
            meter.observe(&fb, SimTime::from_micros(t))
        });
    });

    // Full-screen fill at the full 921 600-px grid: every tile is
    // provably solid after the fill, so the tile-gated gather compares
    // snapshot slots against constants and refreshes them without
    // reading the framebuffer at all (DESIGN.md §12).
    group.bench_function("full_change_full_grid", |b| {
        let mut meter = ContentRateMeter::new(GridSampler::full(res));
        let mut fb = FrameBuffer::new(res);
        let mut t = 0u64;
        let mut grey = 0u8;
        b.iter(|| {
            t += 16_667;
            grey = grey.wrapping_add(1);
            fb.fill(Pixel::grey(grey.max(1)));
            meter.observe(&fb, SimTime::from_micros(t))
        });
    });
    group.finish();
}

fn bench_section_lookup(c: &mut Criterion) {
    let table = SectionTable::new(RefreshRateSet::galaxy_s3());
    let rates: Vec<ContentRate> = (0..64).map(|i| ContentRate::from_fps(i as f64)).collect();
    c.bench_function("core/section_rate_for_64_lookups", |b| {
        b.iter(|| {
            rates
                .iter()
                .map(|&cr| table.rate_for(cr).hz())
                .sum::<u32>()
        });
    });
}

fn bench_governor_window(c: &mut Criterion) {
    // A full control window at 60 fps: 30 observations + one decision.
    let res = Resolution::QUARTER;
    c.bench_function("core/governor_half_second_window", |b| {
        let mut gov = Governor::new(
            RefreshRateSet::galaxy_s3(),
            res,
            GovernorConfig::new(Policy::SectionWithBoost).with_grid_budget(576),
        );
        let mut fb = FrameBuffer::new(res);
        let mut t = 0u64;
        let mut grey = 0u8;
        b.iter(|| {
            for i in 0..30u64 {
                if i % 2 == 0 {
                    grey = grey.wrapping_add(1);
                    fb.fill(Pixel::grey(grey.max(1)));
                } else {
                    fb.touch();
                }
                gov.on_framebuffer_update(&fb, SimTime::from_micros(t + i * 16_667));
            }
            t += 500_000;
            gov.decide(SimTime::from_micros(t))
        });
    });
}

fn bench_compose(c: &mut Criterion) {
    let res = Resolution::GALAXY_S3;
    let mut group = c.benchmark_group("compositor/compose");
    group.bench_function("content_frame_full_res", |b| {
        let mut sf = SurfaceFlinger::new(res);
        let id = sf.create_surface("bench");
        sf.surface_mut(id).unwrap().buffer_mut().fill(Pixel::grey(1));
        let mut t = 0u64;
        b.iter(|| {
            t += 16_667;
            sf.submit(id, SimTime::from_micros(t), true).unwrap();
            sf.compose(SimTime::from_micros(t))
        });
    });
    group.bench_function("redundant_frame_full_res", |b| {
        let mut sf = SurfaceFlinger::new(res);
        let id = sf.create_surface("bench");
        let mut t = 0u64;
        b.iter(|| {
            t += 16_667;
            sf.submit(id, SimTime::from_micros(t), false).unwrap();
            sf.compose(SimTime::from_micros(t))
        });
    });
    group.finish();
}

fn bench_workload_tick(c: &mut Criterion) {
    use ccdem_simkit::rng::SimRng;
    use ccdem_workloads::app::{AppModel, InputContext};
    use ccdem_workloads::catalog;
    c.bench_function("workloads/jelly_splash_tick", |b| {
        let mut app = catalog::jelly_splash().instantiate();
        let mut rng = SimRng::seed_from_u64(1);
        let ctx = InputContext::default();
        let mut t = 0u64;
        b.iter(|| {
            t += 16_667;
            app.tick(SimTime::from_micros(t), &ctx, &mut rng)
        });
    });
}

fn bench_wallpaper_render(c: &mut Criterion) {
    use ccdem_simkit::rng::SimRng;
    use ccdem_workloads::app::{AppModel, ContentChange};
    use ccdem_workloads::wallpaper::{DotsConfig, DotsWallpaper};
    c.bench_function("workloads/dots_render_full_res", |b| {
        let mut rng = SimRng::seed_from_u64(2);
        let mut wp = DotsWallpaper::new(
            DotsConfig::nexus_revamped(),
            Resolution::GALAXY_S3,
            &mut rng,
        );
        let mut fb = FrameBuffer::new(Resolution::GALAXY_S3);
        b.iter(|| wp.render(ContentChange::Dots, &mut fb, &mut rng));
    });
}

criterion_group!(
    benches,
    bench_meter_observe,
    bench_section_lookup,
    bench_governor_window,
    bench_compose,
    bench_workload_tick,
    bench_wallpaper_render
);
criterion_main!(benches);
