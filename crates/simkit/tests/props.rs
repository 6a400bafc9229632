//! Property-based tests for the simulation primitives.

use ccdem_simkit::event::EventQueue;
use ccdem_simkit::stats::{quantile, RunningStats};
use ccdem_simkit::time::{SimDuration, SimTime};
use ccdem_simkit::trace::{EventCounter, Trace};
use proptest::prelude::*;

/// Up to 16 `(µs, value)` samples in time order over `[0, 6 s)`, on a
/// quarter-second grid with jitter half the time: samples at 0, exactly
/// on a second boundary and at equal times are all common. About one
/// value in eleven is ±∞, so a zero-length hold (∞ · 0 = NaN) shows.
fn arb_samples() -> impl Strategy<Value = Vec<(SimTime, f64)>> {
    proptest::collection::vec(
        (0u64..24, any::<bool>(), 0u64..250_000, -1.1e3f64..1.1e3),
        0..16,
    )
    .prop_map(|points| {
        let mut samples: Vec<(SimTime, f64)> = points
            .into_iter()
            .map(|(quarter, exact, jitter, v)| {
                let t = quarter * 250_000 + if exact { 0 } else { jitter };
                let v = if v.abs() > 1e3 { v * f64::INFINITY } else { v };
                (SimTime::from_micros(t), v)
            })
            .collect();
        samples.sort_by_key(|&(t, _)| t);
        samples
    })
}

/// The sample-and-hold mean over `[start, end)` by definition: a walk
/// over every sample from the first, with the last sample at or before
/// `start` held at `start`.
fn reference_mean(samples: &[(SimTime, f64)], start: SimTime, end: SimTime) -> f64 {
    if end <= start || samples.is_empty() {
        return 0.0;
    }
    let mut current = samples
        .iter()
        .rev()
        .find(|&&(t, _)| t <= start)
        .map(|&(_, v)| v);
    let mut cursor = start;
    let mut acc = 0.0;
    for &(t, v) in samples {
        if t <= start {
            continue;
        }
        if t >= end {
            break;
        }
        if let Some(cur) = current {
            acc += cur * (t - cursor).as_secs_f64();
        }
        cursor = t;
        current = Some(v);
    }
    if let Some(cur) = current {
        acc += cur * (end - cursor).as_secs_f64();
    }
    acc / (end - start).as_secs_f64()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The one-pass `per_second` of a trace and of a counter give, bit for
    /// bit, second `s` as `time_weighted_mean(s, s + 1)` and as
    /// `count_in(s, s + 1)`, the counter with and without a retention
    /// horizon; `time_weighted_mean` (binary-searched start) matches the
    /// full-scan definition on any window. Every prefix of the drawn
    /// samples is checked, so empty and one-sample traces are always
    /// covered; durations run from under a second to short of the last
    /// sample or past it.
    #[test]
    fn per_second_matches_per_window_definitions(
        samples in arb_samples(),
        duration_us in 0u64..5_000_000,
        window in (0u64..6_500_000, 0u64..6_500_000),
        horizon_us in 1u64..3_000_000,
    ) {
        let duration = SimDuration::from_micros(duration_us);
        let secs = duration_us / 1_000_000;
        let (a, b) = (SimTime::from_micros(window.0), SimTime::from_micros(window.1));
        for n in 0..=samples.len() {
            let prefix = &samples[..n];
            let trace: Trace = prefix.iter().copied().collect();
            let per_sec = trace.per_second(duration);
            prop_assert_eq!(per_sec.len() as u64, secs);
            for (s, &mean) in (0u64..).zip(&per_sec) {
                let (start, end) = (SimTime::from_secs(s), SimTime::from_secs(s + 1));
                let windowed = trace.time_weighted_mean(start, end);
                prop_assert_eq!(mean.to_bits(), windowed.to_bits(), "second {} of {:?}", s, prefix);
                let reference = reference_mean(prefix, start, end);
                prop_assert_eq!(windowed.to_bits(), reference.to_bits(), "second {} of {:?}", s, prefix);
            }
            for (start, end) in [(a, b), (b, a)] {
                let reference = reference_mean(prefix, start, end);
                prop_assert_eq!(trace.time_weighted_mean(start, end).to_bits(), reference.to_bits());
            }
            for horizon in [None, Some(SimDuration::from_micros(horizon_us))] {
                let mut c = EventCounter::new();
                c.set_retention(horizon);
                prefix.iter().for_each(|&(t, _)| c.record(t));
                let per_sec = c.per_second(duration);
                prop_assert_eq!(per_sec.len() as u64, secs);
                for (s, &count) in (0u64..).zip(&per_sec) {
                    let windowed = c.count_in(SimTime::from_secs(s), SimTime::from_secs(s + 1));
                    prop_assert_eq!(count.to_bits(), (windowed as f64).to_bits(), "second {}", s);
                }
            }
        }
    }
}

proptest! {
    /// Popping the queue always yields events in non-decreasing time
    /// order, regardless of insertion order.
    #[test]
    fn queue_pops_sorted(times in proptest::collection::vec(0u64..1_000_000, 1..200)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_micros(t), i);
        }
        let mut prev = SimTime::ZERO;
        while let Some((t, _)) = q.pop() {
            prop_assert!(t >= prev);
            prev = t;
        }
    }

    /// Equal-time events pop in insertion (FIFO) order.
    #[test]
    fn queue_equal_times_fifo(n in 1usize..100, t in 0u64..1_000) {
        let mut q = EventQueue::new();
        for i in 0..n {
            q.schedule(SimTime::from_micros(t), i);
        }
        let popped: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        prop_assert_eq!(popped, (0..n).collect::<Vec<_>>());
    }

    /// Welford merge gives the same result as sequential accumulation.
    #[test]
    fn stats_merge_equals_sequential(
        a in proptest::collection::vec(-1e6f64..1e6, 0..100),
        b in proptest::collection::vec(-1e6f64..1e6, 0..100),
    ) {
        let mut merged: RunningStats = a.iter().copied().collect();
        let rhs: RunningStats = b.iter().copied().collect();
        merged.merge(&rhs);
        let seq: RunningStats = a.iter().chain(b.iter()).copied().collect();
        prop_assert_eq!(merged.count(), seq.count());
        prop_assert!((merged.mean() - seq.mean()).abs() <= 1e-6 * (1.0 + seq.mean().abs()));
        prop_assert!(
            (merged.sample_std_dev() - seq.sample_std_dev()).abs()
                <= 1e-6 * (1.0 + seq.sample_std_dev())
        );
    }

    /// A quantile always lies within the sample range and is monotone
    /// in `q`.
    #[test]
    fn quantile_bounded_and_monotone(
        mut values in proptest::collection::vec(-1e9f64..1e9, 1..80),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let (lo_q, hi_q) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        let lo = quantile(&values, lo_q).unwrap();
        let hi = quantile(&values, hi_q).unwrap();
        values.sort_by(|a, b| a.partial_cmp(b).unwrap());
        prop_assert!(lo >= values[0] - 1e-9);
        prop_assert!(hi <= values[values.len() - 1] + 1e-9);
        prop_assert!(lo <= hi + 1e-9);
    }

    /// The time-weighted mean of a sample-and-hold trace lies within the
    /// range of its sample values.
    #[test]
    fn trace_time_weighted_mean_bounded(
        samples in proptest::collection::vec((0u64..10_000_000, -1e3f64..1e3), 1..50),
    ) {
        let mut sorted = samples.clone();
        sorted.sort_by_key(|&(t, _)| t);
        let trace: Trace = sorted
            .iter()
            .map(|&(t, v)| (SimTime::from_micros(t), v))
            .collect();
        let start = SimTime::ZERO;
        let end = SimTime::from_micros(10_000_001);
        let mean = trace.time_weighted_mean(start, end);
        let min = sorted.iter().map(|&(_, v)| v).fold(f64::INFINITY, f64::min);
        let max = sorted.iter().map(|&(_, v)| v).fold(f64::NEG_INFINITY, f64::max);
        // The span before the first sample contributes zero, which can
        // pull the mean toward 0: widen the bound to include 0.
        prop_assert!(mean >= min.min(0.0) - 1e-9, "mean {mean} below {min}");
        prop_assert!(mean <= max.max(0.0) + 1e-9, "mean {mean} above {max}");
    }

    /// Per-second counts sum to the total count of in-range events.
    #[test]
    fn counter_per_second_partitions(
        mut times in proptest::collection::vec(0u64..5_000_000, 0..200),
    ) {
        times.sort_unstable();
        let mut c = EventCounter::new();
        for &t in &times {
            c.record(SimTime::from_micros(t));
        }
        let per_sec = c.per_second(SimDuration::from_secs(5));
        let sum: f64 = per_sec.iter().sum();
        prop_assert_eq!(sum as usize, times.len());
    }
}
