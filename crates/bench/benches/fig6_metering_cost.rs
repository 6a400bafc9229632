//! Figure 6 (right axis): wall-clock cost of one content-rate metering
//! step vs the number of compared pixels.
//!
//! The paper's claim: at 9K–36K pixels the comparison is effectively
//! free, while comparing all 921K pixels blows the 16.67 ms frame budget
//! (on 2012 phone silicon). On a modern host the absolute numbers are
//! far smaller, but the growth with pixel count — and the full scan
//! costing orders of magnitude more than the 9K grid — reproduces.
//!
//! The step timed is the one `ccdem_core::meter::measure_metering_cost`
//! times for the figure: the scalar oracle over the whole screen, which
//! compares until the first difference and re-captures every grid point.
//! The production gather's own costs are in `micro_core` and
//! `ccdem bench`.
//!
//! Run with `cargo bench -p ccdem-bench --bench fig6_metering_cost`.

use ccdem_pixelbuf::buffer::FrameBuffer;
use ccdem_pixelbuf::damage::DamageRegion;
use ccdem_pixelbuf::geometry::Resolution;
use ccdem_pixelbuf::grid::GridSampler;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_reference_capture(c: &mut Criterion) {
    let resolution = Resolution::GALAXY_S3;
    let everything = DamageRegion::of(resolution.bounds());
    let mut group = c.benchmark_group("fig6/reference_capture");
    for budget in [2_304usize, 4_080, 9_216, 36_864, 921_600] {
        let sampler = GridSampler::for_pixel_budget(resolution, budget);
        let fb = FrameBuffer::new(resolution);
        let mut snapshot = sampler.sample(&fb);
        group.throughput(Throughput::Elements(sampler.sample_count() as u64));
        group.bench_with_input(
            BenchmarkId::from_parameter(sampler.sample_count()),
            &budget,
            |b, _| {
                b.iter(|| {
                    sampler.reference_capture(std::hint::black_box(&fb), &everything, &mut snapshot)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_reference_capture);
criterion_main!(benches);
