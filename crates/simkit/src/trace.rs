//! Time-series traces recorded during a simulation run.
//!
//! Two shapes cover everything the evaluation needs:
//!
//! * [`Trace`] — a timestamped sequence of sampled values (refresh rate,
//!   instantaneous power, content rate), resampled into per-second bins for
//!   plotting against the paper's figures.
//! * [`EventCounter`] — timestamps of discrete occurrences (frame updates,
//!   touches), binned into per-second rates.

use crate::time::{SimDuration, SimTime};

/// A timestamped series of `f64` samples.
///
/// Samples must be pushed in non-decreasing time order.
///
/// # Examples
///
/// ```
/// use ccdem_simkit::trace::Trace;
/// use ccdem_simkit::time::SimTime;
///
/// let mut t = Trace::new();
/// t.push(SimTime::from_millis(100), 60.0);
/// t.push(SimTime::from_millis(600), 40.0);
/// assert_eq!(t.len(), 2);
/// assert_eq!(t.value_at(SimTime::from_millis(300)), Some(60.0));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    samples: Vec<(SimTime, f64)>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace {
            samples: Vec::new(),
        }
    }

    /// Appends a sample.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous sample's time.
    pub fn push(&mut self, time: SimTime, value: f64) {
        if let Some(&(last, _)) = self.samples.last() {
            assert!(time >= last, "trace samples must be time-ordered");
        }
        self.samples.push((time, value));
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the trace holds no samples.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// Iterates over `(time, value)` samples.
    pub fn iter(&self) -> impl Iterator<Item = (SimTime, f64)> + '_ {
        self.samples.iter().copied()
    }

    /// The sample-and-hold value at `time`: the most recent sample at or
    /// before `time` (the last pushed, among samples at one time), or
    /// `None` if `time` precedes the first sample.
    pub fn value_at(&self, time: SimTime) -> Option<f64> {
        self.held_before(self.first_after(time))
    }

    /// Index of the first sample strictly after `time`.
    fn first_after(&self, time: SimTime) -> usize {
        self.samples.partition_point(|&(t, _)| t <= time)
    }

    /// The value of sample `next - 1`, the one held when sample `next`
    /// arrives.
    fn held_before(&self, next: usize) -> Option<f64> {
        next.checked_sub(1)
            .and_then(|i| self.samples.get(i))
            .map(|&(_, v)| v)
    }

    /// Time-weighted mean over `[start, end)` treating the trace as
    /// sample-and-hold, or 0 if the trace is empty or the span is empty.
    pub fn time_weighted_mean(&self, start: SimTime, end: SimTime) -> f64 {
        if end <= start || self.samples.is_empty() {
            return 0.0;
        }
        self.hold_mean(self.first_after(start), start, end).0
    }

    /// Per-second sample-and-hold averages over `[0, duration)`, one value
    /// per whole second; seconds before the first sample report 0.
    ///
    /// Second `s` equals `time_weighted_mean(s, s + 1)` bit for bit, but
    /// the whole series takes one forward pass over the samples.
    pub fn per_second(&self, duration: SimDuration) -> Vec<f64> {
        let secs = duration.as_micros() / 1_000_000;
        let mut next = 0;
        (0..secs)
            .map(|s| {
                let (mean, stop) =
                    self.hold_mean(next, SimTime::from_secs(s), SimTime::from_secs(s + 1));
                next = stop;
                mean
            })
            .collect()
    }

    /// [`hold`](Self::hold)'s stretches averaged over `[start, end)`,
    /// with the index `hold` returns.
    fn hold_mean(&self, next: usize, start: SimTime, end: SimTime) -> (f64, usize) {
        let mut acc = 0.0;
        let stop = self.hold(next, start, end, |value, seconds| acc += value * seconds);
        (acc / (end - start).as_secs_f64(), stop)
    }

    /// Walks `[start, end)` as sample-and-hold, calling `f(value, seconds)`
    /// for each held stretch in time order; time before the first sample
    /// holds nothing. The walk begins at sample index `next`, which must
    /// not be past the first sample after `start`, and returns the index
    /// of the first sample at or after `end`.
    fn hold(
        &self,
        mut next: usize,
        start: SimTime,
        end: SimTime,
        mut f: impl FnMut(f64, f64),
    ) -> usize {
        while self.samples.get(next).is_some_and(|&(t, _)| t <= start) {
            next += 1;
        }
        let mut cursor = start;
        let mut current = self.held_before(next);
        while let Some(&(t, v)) = self.samples.get(next).filter(|&&(t, _)| t < end) {
            if let Some(cur) = current {
                f(cur, (t - cursor).as_secs_f64());
            }
            cursor = t;
            current = Some(v);
            next += 1;
        }
        if let Some(cur) = current {
            f(cur, (end - cursor).as_secs_f64());
        }
        next
    }

    /// Time-weighted residency per distinct value over `[start, end)`,
    /// treating the trace as sample-and-hold: how long each value was
    /// held, ascending by value. Time before the first sample is not
    /// attributed to any value.
    ///
    /// For a refresh-rate trace this is "seconds spent at each rate".
    ///
    /// # Examples
    ///
    /// ```
    /// use ccdem_simkit::time::SimTime;
    /// use ccdem_simkit::trace::Trace;
    ///
    /// let mut t = Trace::new();
    /// t.push(SimTime::ZERO, 60.0);
    /// t.push(SimTime::from_secs(1), 20.0);
    /// let res = t.residency(SimTime::ZERO, SimTime::from_secs(4));
    /// assert_eq!(res, vec![(20.0, 3.0), (60.0, 1.0)]);
    /// ```
    pub fn residency(&self, start: SimTime, end: SimTime) -> Vec<(f64, f64)> {
        if end <= start || self.samples.is_empty() {
            return Vec::new();
        }
        let mut acc: Vec<(f64, f64)> = Vec::new();
        self.hold(self.first_after(start), start, end, |value, seconds| {
            if seconds <= 0.0 {
                return;
            }
            match acc.iter_mut().find(|(v, _)| *v == value) {
                Some((_, s)) => *s += seconds,
                None => acc.push((value, seconds)),
            }
        });
        acc.sort_by(|a, b| a.0.total_cmp(&b.0));
        acc
    }
}

impl FromIterator<(SimTime, f64)> for Trace {
    fn from_iter<I: IntoIterator<Item = (SimTime, f64)>>(iter: I) -> Self {
        let mut t = Trace::new();
        for (time, v) in iter {
            t.push(time, v);
        }
        t
    }
}

/// Timestamps of discrete events, binned into per-second rates.
///
/// By default every timestamp is kept, which is what run reports need
/// (full [`per_second`](Self::per_second) series) but grows without bound
/// on long or open-ended runs. A counter that is only ever queried over a
/// trailing window — like the governor's content-rate meter, which looks
/// back one control window — can bound its memory with
/// [`with_retention`](Self::with_retention).
///
/// # Retention-horizon semantics
///
/// A retention horizon splits the API into two families that answer
/// different questions:
///
/// * **Lifetime count** — [`count`](Self::count) is maintained as a
///   separate integer and reports every occurrence ever recorded,
///   *including* timestamps that retention has already pruned. It never
///   shrinks and is unaffected by the horizon.
/// * **Windowed queries** — [`count_in`](Self::count_in),
///   [`rate_in`](Self::rate_in), [`per_second`](Self::per_second) and
///   [`iter`](Self::iter) consult only the *retained* timestamps
///   ([`retained_len`](Self::retained_len) of them). A span that reaches
///   further back than the horizon silently undercounts — it is the
///   caller's responsibility never to query a wider window than it
///   retains.
///
/// Pruning happens on [`record`](Self::record): timestamps strictly older
/// than `latest - horizon` are dropped, so a timestamp exactly at the
/// horizon is still retained. Note the asymmetry against windowed
/// queries: retention keeps the *closed* interval
/// `[latest - horizon, latest]`, while [`count_in`](Self::count_in) is
/// half-open `[start, end)` — so `count_in(latest - horizon, latest)`
/// includes the exactly-horizon-old event at `start` but excludes the
/// newest event sitting at `end`; extend `end` past `latest` to count
/// every retained timestamp.
///
/// # Examples
///
/// Basic per-second binning:
///
/// ```
/// use ccdem_simkit::trace::EventCounter;
/// use ccdem_simkit::time::{SimTime, SimDuration};
///
/// let mut c = EventCounter::new();
/// c.record(SimTime::from_millis(100));
/// c.record(SimTime::from_millis(900));
/// c.record(SimTime::from_millis(1500));
/// assert_eq!(c.per_second(SimDuration::from_secs(2)), vec![2.0, 1.0]);
/// ```
///
/// Lifetime vs. windowed counts under a retention horizon:
///
/// ```
/// use ccdem_simkit::trace::EventCounter;
/// use ccdem_simkit::time::{SimTime, SimDuration};
///
/// // 10 events/s with a 1 s horizon.
/// let mut c = EventCounter::with_retention(SimDuration::from_secs(1));
/// for i in 0..30u64 {
///     c.record(SimTime::from_millis(i * 100));
/// }
///
/// // The lifetime count survives pruning...
/// assert_eq!(c.count(), 30);
/// // ...but only roughly one second of timestamps stays resident.
/// assert!(c.retained_len() <= 11);
///
/// // Windowed queries within the horizon are exact:
/// let now = SimTime::from_millis(2_900);
/// assert_eq!(c.count_in(now - SimDuration::from_secs(1), now), 10);
/// // Wider than the horizon they undercount — don't do this:
/// assert!(c.count_in(SimTime::ZERO, now) < 29);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventCounter {
    times: std::collections::VecDeque<SimTime>,
    total: usize,
    retention: Option<SimDuration>,
}

impl EventCounter {
    /// Creates an empty counter retaining every timestamp.
    pub fn new() -> Self {
        EventCounter::default()
    }

    /// Creates an empty counter that keeps only timestamps within
    /// `horizon` of the most recent [`record`](Self::record).
    ///
    /// Window queries ([`count_in`](Self::count_in),
    /// [`rate_in`](Self::rate_in)) silently return 0 for spans that fall
    /// entirely before the retained horizon; callers must not query
    /// further back than they retain.
    ///
    /// # Panics
    ///
    /// Panics if `horizon` is zero.
    pub fn with_retention(horizon: SimDuration) -> Self {
        let mut c = EventCounter::new();
        c.set_retention(Some(horizon));
        c
    }

    /// Changes the retention horizon (`None` = keep everything). Takes
    /// effect at the next [`record`](Self::record); already-pruned
    /// timestamps do not come back.
    ///
    /// # Panics
    ///
    /// Panics if the horizon is zero.
    pub fn set_retention(&mut self, horizon: Option<SimDuration>) {
        if let Some(h) = horizon {
            assert!(!h.is_zero(), "retention horizon must be non-zero");
        }
        self.retention = horizon;
    }

    /// Records one occurrence at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `time` precedes the previous recorded time.
    pub fn record(&mut self, time: SimTime) {
        if let Some(&last) = self.times.back() {
            assert!(time >= last, "events must be recorded in time order");
        }
        self.times.push_back(time);
        self.total += 1;
        if let Some(horizon) = self.retention {
            let cutoff_us = time.as_micros().saturating_sub(horizon.as_micros());
            while self
                .times
                .front()
                .is_some_and(|t| t.as_micros() < cutoff_us)
            {
                self.times.pop_front();
            }
        }
    }

    /// Total occurrences ever recorded, including pruned ones.
    pub fn count(&self) -> usize {
        self.total
    }

    /// Timestamps currently held in memory (= [`count`](Self::count)
    /// unless a retention horizon pruned some).
    pub fn retained_len(&self) -> usize {
        self.times.len()
    }

    /// Occurrences within `[start, end)`, counting only retained
    /// timestamps.
    pub fn count_in(&self, start: SimTime, end: SimTime) -> usize {
        let lo = self.times.partition_point(|&t| t < start);
        let hi = self.times.partition_point(|&t| t < end);
        // An inverted span (`end < start`) is empty.
        hi.saturating_sub(lo)
    }

    /// Mean events per second within `[start, end)`, or 0 for an empty span.
    pub fn rate_in(&self, start: SimTime, end: SimTime) -> f64 {
        if end <= start {
            return 0.0;
        }
        self.count_in(start, end) as f64 / (end - start).as_secs_f64()
    }

    /// Events per second for each whole second of `[0, duration)`:
    /// second `s` is `count_in(s, s + 1)`, binned in one walk over the
    /// retained timestamps.
    pub fn per_second(&self, duration: SimDuration) -> Vec<f64> {
        let secs = duration.as_micros() / 1_000_000;
        let mut times = self.times.iter().peekable();
        (1..=secs)
            .map(|s| {
                let end = SimTime::from_secs(s);
                let mut n = 0usize;
                while times.next_if(|&&t| t < end).is_some() {
                    n += 1;
                }
                n as f64
            })
            .collect()
    }

    /// Iterates over recorded timestamps.
    pub fn iter(&self) -> impl Iterator<Item = SimTime> + '_ {
        self.times.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_at_sample_and_hold() {
        let t: Trace = vec![(SimTime::from_secs(1), 10.0), (SimTime::from_secs(3), 30.0)]
            .into_iter()
            .collect();
        assert_eq!(t.value_at(SimTime::ZERO), None);
        assert_eq!(t.value_at(SimTime::from_secs(1)), Some(10.0));
        assert_eq!(t.value_at(SimTime::from_secs(2)), Some(10.0));
        assert_eq!(t.value_at(SimTime::from_secs(5)), Some(30.0));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn push_rejects_time_regression() {
        let mut t = Trace::new();
        t.push(SimTime::from_secs(2), 1.0);
        t.push(SimTime::from_secs(1), 2.0);
    }

    #[test]
    fn time_weighted_mean_weighs_holds() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, 60.0);
        t.push(SimTime::from_millis(500), 20.0);
        // 0.5s at 60 + 0.5s at 20 = mean 40 over [0, 1s).
        let m = t.time_weighted_mean(SimTime::ZERO, SimTime::from_secs(1));
        assert!((m - 40.0).abs() < 1e-9);
    }

    #[test]
    fn time_weighted_mean_before_first_sample_is_partial() {
        let mut t = Trace::new();
        t.push(SimTime::from_millis(500), 10.0);
        // Undefined for first half, 10 for second half -> 5.0.
        let m = t.time_weighted_mean(SimTime::ZERO, SimTime::from_secs(1));
        assert!((m - 5.0).abs() < 1e-9);
    }

    #[test]
    fn per_second_bins() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, 2.0);
        t.push(SimTime::from_secs(1), 4.0);
        assert_eq!(t.per_second(SimDuration::from_secs(2)), vec![2.0, 4.0]);
    }

    #[test]
    fn residency_partitions_the_span() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, 60.0);
        t.push(SimTime::from_millis(500), 20.0);
        t.push(SimTime::from_secs(2), 60.0);
        let res = t.residency(SimTime::ZERO, SimTime::from_secs(3));
        // 0.5 s at 60, 1.5 s at 20, 1 s at 60 again -> merged per value.
        assert_eq!(res, vec![(20.0, 1.5), (60.0, 1.5)]);
        let total: f64 = res.iter().map(|&(_, s)| s).sum();
        assert!((total - 3.0).abs() < 1e-9);
    }

    #[test]
    fn residency_ignores_time_before_first_sample() {
        let mut t = Trace::new();
        t.push(SimTime::from_secs(2), 30.0);
        let res = t.residency(SimTime::ZERO, SimTime::from_secs(5));
        assert_eq!(res, vec![(30.0, 3.0)]);
    }

    #[test]
    fn residency_of_empty_span_is_empty() {
        let mut t = Trace::new();
        t.push(SimTime::ZERO, 1.0);
        assert!(t
            .residency(SimTime::from_secs(1), SimTime::from_secs(1))
            .is_empty());
        assert!(Trace::new()
            .residency(SimTime::ZERO, SimTime::from_secs(1))
            .is_empty());
    }

    #[test]
    fn counter_rates() {
        let mut c = EventCounter::new();
        for i in 0..10 {
            c.record(SimTime::from_millis(i * 100));
        }
        assert_eq!(c.count(), 10);
        assert_eq!(c.count_in(SimTime::ZERO, SimTime::from_secs(1)), 10);
        assert!((c.rate_in(SimTime::ZERO, SimTime::from_millis(500)) - 10.0).abs() < 1e-9);
    }

    #[test]
    fn inverted_span_counts_nothing() {
        let mut c = EventCounter::new();
        for ms in [100, 500, 900] {
            c.record(SimTime::from_millis(ms));
        }
        // The events at 500 and 900 ms lie in [end, start).
        let (start, end) = (SimTime::from_secs(1), SimTime::from_millis(400));
        assert_eq!(c.count_in(start, end), 0);
        assert_eq!(c.rate_in(start, end), 0.0);
    }

    #[test]
    fn counter_empty_span_rate_zero() {
        let c = EventCounter::new();
        assert_eq!(c.rate_in(SimTime::from_secs(1), SimTime::from_secs(1)), 0.0);
    }

    #[test]
    #[should_panic(expected = "time order")]
    fn counter_rejects_regression() {
        let mut c = EventCounter::new();
        c.record(SimTime::from_secs(1));
        c.record(SimTime::ZERO);
    }

    #[test]
    fn retention_bounds_memory_but_not_lifetime_count() {
        let mut c = EventCounter::with_retention(SimDuration::from_secs(1));
        // 100 events/s for 6 s: only the trailing second stays resident.
        for i in 0..600u64 {
            c.record(SimTime::from_millis(i * 10));
        }
        assert_eq!(c.count(), 600);
        assert!(
            c.retained_len() <= 101,
            "retained {} timestamps for a 1 s horizon at 100 events/s",
            c.retained_len()
        );
        // Trailing-window queries still see everything they should:
        // [now - 500 ms, now) covers events i = 549..=598.
        let now = SimTime::from_millis(599 * 10);
        let window = SimDuration::from_millis(500);
        assert_eq!(c.count_in(now - window, now), 50);
    }

    #[test]
    fn unbounded_counter_retains_everything() {
        let mut c = EventCounter::new();
        for i in 0..100 {
            c.record(SimTime::from_millis(i * 10));
        }
        assert_eq!(c.count(), 100);
        assert_eq!(c.retained_len(), 100);
    }

    #[test]
    fn retention_keeps_events_exactly_at_horizon() {
        let horizon = SimDuration::from_secs(1);
        let mut c = EventCounter::with_retention(horizon);
        c.record(SimTime::ZERO);
        c.record(SimTime::from_secs(1)); // exactly horizon-old: kept
        assert_eq!(c.retained_len(), 2);

        // Retention keeps the closed interval [now - horizon, now];
        // count_in is half-open [start, end). The full trailing window
        // therefore counts the exactly-horizon-old event at `start` but
        // not the newest one at `end` — no off-by-one on either side.
        let now = SimTime::from_secs(1);
        assert_eq!(c.count_in(now - horizon, now), 1);
        let just_past = now + SimDuration::from_micros(1);
        assert_eq!(c.count_in(now - horizon, just_past), 2);

        c.record(SimTime::from_millis(1_001)); // now ZERO is 1 ms stale
        assert_eq!(c.retained_len(), 2);
        assert_eq!(c.count(), 3);
        // A window reaching past the horizon undercounts: the pruned
        // event at ZERO is gone even though `count` still includes it.
        assert_eq!(c.count_in(SimTime::ZERO, SimTime::from_secs(2)), 2);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_retention_rejected() {
        let _ = EventCounter::with_retention(SimDuration::from_micros(0));
    }
}
