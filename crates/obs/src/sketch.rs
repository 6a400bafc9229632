//! Mergeable quantile sketches with deterministic log-linear bucketing.
//!
//! A [`QuantileSketch`] summarises a distribution of non-negative integer
//! samples ("ticks" — the caller picks the unit, e.g. nanoseconds for
//! latencies or milli-milliwatts for power) in a **fixed, value-determined
//! bucket layout**: HDR-histogram-style log-linear buckets computed with
//! pure integer arithmetic, never a float logarithm. Because the bucket a
//! sample lands in depends only on its value (not on insertion order, the
//! host platform, or what was recorded before), two sketches over the same
//! precision can be [`merge`](QuantileSketch::merge)d by bucket-wise
//! addition — the merge is **exact** (no re-bucketing error) and therefore
//! commutative and associative, so a fleet of workers can each keep a
//! local sketch and fold them together in any order with an identical
//! result. Memory is O(buckets) — independent of sample count — which is
//! what lets a million-run campaign keep running percentiles without ever
//! materialising per-run samples.
//!
//! # Error bound
//!
//! With precision `p` bits, each octave `[2^k, 2^(k+1))` is split into
//! `2^p` equal-width sub-buckets, and values below `2^p` get exact
//! single-value buckets. A bucket spanning `[lo, lo + w)` has
//! `w / lo <= 2^-p`, and quantile queries return the bucket *midpoint*
//! clamped to the observed `[min, max]`, so any reported quantile is
//! within a **relative error of `2^-p`** of some true sample at that rank
//! (3.125 % at the default `p = 5`). `count`, `sum`, `min` and `max` are
//! tracked exactly.
//!
//! [`AtomicSketch`] is the concurrent recording variant registered in the
//! global [`metrics()`](crate::registry::metrics) registry; it snapshots
//! into a plain [`QuantileSketch`] for reports.
//!
//! # Examples
//!
//! ```
//! use ccdem_obs::sketch::QuantileSketch;
//!
//! let mut a = QuantileSketch::new();
//! let mut b = QuantileSketch::new();
//! for v in 1..=600u64 {
//!     if v % 2 == 0 { a.record(v) } else { b.record(v) }
//! }
//! a.merge(&b);
//! assert_eq!(a.count(), 600);
//! let p50 = a.quantile(0.5).unwrap() as f64;
//! assert!((p50 - 300.0).abs() / 300.0 <= a.relative_error());
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

use crate::json::Json;

/// Default precision bits: 32 sub-buckets per octave, ≤ 3.125 % relative
/// quantile error, 1920 buckets (15 KiB of counts) covering all of `u64`.
pub const DEFAULT_PRECISION: u32 = 5;

/// Number of buckets a precision-`p` sketch needs to cover `0..=u64::MAX`.
fn bucket_count(precision: u32) -> usize {
    // 2^p exact buckets below 2^p, then (64 - p) octaves of 2^p each; the
    // first octave's buckets coincide with values 2^p..2^(p+1) exactly.
    // ccdem-lint: allow(arith-cast) — p ≤ 12, so every term fits usize.
    (65 - precision as usize) << precision
}

/// The bucket index for value `v` at precision `p`.
///
/// Values below `2^p` get exact single-value buckets; larger values index
/// `((shift + 1) << p) + ((v >> shift) - 2^p)` where
/// `shift = msb(v) - p`. The layout is continuous across the boundary.
fn bucket_index(precision: u32, v: u64) -> usize {
    if v < (1u64 << precision) {
        // ccdem-lint: allow(arith-cast) — v < 2^p ≤ 4096 fits usize.
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - precision;
        // ccdem-lint: allow(arith-cast) — shift ≤ 63 - p, so both terms
        // stay below bucket_count(p) < 2^18 and the sum cannot wrap.
        (((shift as usize) + 1) << precision)
            // ccdem-lint: allow(arith-cast) — same bound as above.
            + ((v >> shift) as usize - (1usize << precision))
    }
}

/// The half-open value range `[lo, hi)` bucket `index` covers.
fn bucket_bounds(precision: u32, index: usize) -> (u64, u64) {
    let sub = 1usize << precision;
    if index < sub {
        // ccdem-lint: allow(arith-cast) — index < 2^p ≤ 4096 fits u64.
        (index as u64, index as u64 + 1)
    } else {
        let region = (index >> precision) as u32; // ≥ 1; ccdem-lint: allow(arith-cast) — ≤ 64 regions
        let offset = (index & (sub - 1)) as u64; // ccdem-lint: allow(arith-cast) — masked to < 2^p
        let shift = region - 1;
        // ccdem-lint: allow(arith-cast) — shift ≤ 63 - p keeps the
        // shifted sum below 2^64.
        let lo = ((1u64 << precision) + offset) << shift;
        (lo, lo.saturating_add(1u64 << shift))
    }
}

/// A mergeable quantile sketch over non-negative `u64` samples.
///
/// See the [module docs](self) for the bucket layout and error bound.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuantileSketch {
    precision: u32,
    buckets: Vec<u64>,
    count: u64,
    sum: u128,
    min: u64,
    max: u64,
}

impl Default for QuantileSketch {
    fn default() -> QuantileSketch {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    /// An empty sketch at [`DEFAULT_PRECISION`].
    pub fn new() -> QuantileSketch {
        QuantileSketch::with_precision(DEFAULT_PRECISION)
    }

    /// An empty sketch with `precision` sub-bucket bits per octave.
    ///
    /// # Panics
    ///
    /// Panics unless `1 <= precision <= 12` (beyond 12 the bucket array
    /// stops being "small" and the error bound stops being meaningful).
    pub fn with_precision(precision: u32) -> QuantileSketch {
        assert!(
            (1..=12).contains(&precision),
            "sketch precision must be in 1..=12, got {precision}"
        );
        QuantileSketch {
            precision,
            buckets: vec![0; bucket_count(precision)],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// The precision (sub-bucket bits per octave).
    pub fn precision(&self) -> u32 {
        self.precision
    }

    /// The guaranteed relative quantile error bound, `2^-precision`.
    pub fn relative_error(&self) -> f64 {
        1.0 / (1u64 << self.precision) as f64
    }

    /// Number of buckets (fixed at construction; memory is O(this)).
    pub fn bucket_len(&self) -> usize {
        self.buckets.len()
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        // ccdem-lint: allow(panic) — bucket_index is < the bucket count
        // fixed at construction for this precision, by construction.
        self.buckets[bucket_index(self.precision, v)] += 1;
        self.count += 1;
        // ccdem-lint: allow(arith-cast) — u128 accumulator: even 2^64
        // samples of u64::MAX cannot overflow it.
        self.sum += u128::from(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a float sample, rounding to the nearest tick. Non-finite
    /// samples are dropped and negative ones clamp to zero — telemetry
    /// must never panic.
    pub fn record_f64(&mut self, v: f64) {
        if !v.is_finite() {
            return;
        }
        // ccdem-lint: allow(arith-cast) — the clamp bounds the cast.
        self.record(v.round().clamp(0.0, u64::MAX as f64) as u64);
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of all recorded samples.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean, or `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        (self.count > 0).then(|| self.sum as f64 / self.count as f64)
    }

    /// Exact minimum recorded sample, or `None` if empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded sample, or `None` if empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Whether no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The `q`-quantile (`q` clamped to `[0, 1]`), or `None` if empty.
    ///
    /// Returns the midpoint of the bucket holding the sample of rank
    /// `ceil(q · count)`, clamped to the exact `[min, max]`; the result is
    /// within [`relative_error`](Self::relative_error) of a true sample at
    /// that rank.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = if q.is_nan() { 0.5 } else { q.clamp(0.0, 1.0) };
        // ccdem-lint: allow(arith-cast) — q ∈ [0, 1] bounds the product
        // by count, and the rank is clamped to [1, count] besides.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            // ccdem-lint: allow(arith-cast) — buckets sum to `count`.
            cumulative += n;
            if cumulative >= rank {
                let (lo, hi) = bucket_bounds(self.precision, i);
                // ccdem-lint: allow(arith-cast) — lo ≤ mid < hi ≤ 2^64.
                let mid = lo + (hi - 1 - lo) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max) // unreachable when counters are consistent
    }

    /// Folds `other` into `self` by bucket-wise addition.
    ///
    /// The merge is exact (samples keep their buckets), so it is
    /// commutative and associative: any merge order over any partition of
    /// a sample set yields the identical sketch.
    ///
    /// # Panics
    ///
    /// Panics if the precisions differ — merging across layouts would
    /// silently re-bucket.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.precision, other.precision,
            "cannot merge sketches of different precision"
        );
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            // ccdem-lint: allow(arith-cast) — bucket sums stay ≤ count.
            *mine += theirs;
        }
        // ccdem-lint: allow(arith-cast) — the combined sample count is
        // kept below u64 by the recorders this merges.
        self.count += other.count;
        self.sum += other.sum; // ccdem-lint: allow(arith-cast) — u128 accumulator
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// The samples recorded since `earlier` (which must be a snapshot of
    /// the same sketch's past — bucket counts subtract saturating).
    /// `min`/`max` of the delta are re-derived from its non-empty bucket
    /// bounds (the exact extremes of just-the-delta are not recoverable).
    pub fn delta_since(&self, earlier: &QuantileSketch) -> QuantileSketch {
        if self.precision != earlier.precision {
            return self.clone();
        }
        let buckets: Vec<u64> = self
            .buckets
            .iter()
            .zip(&earlier.buckets)
            .map(|(now, before)| now.saturating_sub(*before))
            .collect();
        let count = self.count.saturating_sub(earlier.count);
        let sum = self.sum.saturating_sub(earlier.sum);
        let first = buckets.iter().position(|&n| n > 0);
        let last = buckets.iter().rposition(|&n| n > 0);
        let (min, max) = match (first, last) {
            (Some(f), Some(l)) => (
                bucket_bounds(self.precision, f).0.max(self.min),
                (bucket_bounds(self.precision, l).1 - 1).min(self.max),
            ),
            _ => (u64::MAX, 0),
        };
        QuantileSketch {
            precision: self.precision,
            buckets,
            count,
            sum,
            min,
            max,
        }
    }

    /// Serializes the sketch as a JSON value: precision, exact summary
    /// stats, and the non-empty buckets as sparse `[index, count]` pairs.
    /// `sum` is stored as a float and may lose precision above 2^53; the
    /// buckets and count are exact.
    pub fn to_json(&self) -> Json {
        let buckets = self
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(i, &n)| Json::Arr(vec![Json::Num(i as f64), Json::Num(n as f64)]))
            .collect();
        let mut members = vec![
            (
                "precision".to_string(),
                Json::Num(f64::from(self.precision)),
            ),
            ("count".to_string(), Json::Num(self.count as f64)),
            ("sum".to_string(), Json::Num(self.sum as f64)),
        ];
        if self.count > 0 {
            members.push(("min".to_string(), Json::Num(self.min as f64)));
            members.push(("max".to_string(), Json::Num(self.max as f64)));
        }
        members.push(("buckets".to_string(), Json::Arr(buckets)));
        Json::Obj(members)
    }

    /// Reconstructs a sketch serialized by [`to_json`](Self::to_json).
    /// Returns `None` on any structural problem: a missing member; a
    /// precision, bucket index, bucket count, `count`, `min` or `max`
    /// that is not an integer in range (all below 2^53, see
    /// [`exact_u64`]); bucket counts whose sum overflows `u64` or
    /// differs from `count`; or a `min`/`max` pair with `min > max` or
    /// outside the value range of the non-empty buckets. Checkpoints and
    /// committed reports arrive from outside the program, so a hostile
    /// document must come back as `None`, never as a sketch whose
    /// [`quantile`](Self::quantile) could panic.
    pub fn from_json(doc: &Json) -> Option<QuantileSketch> {
        let precision = u32::try_from(exact_u64(doc.get("precision")?)?).ok()?;
        if !(1..=12).contains(&precision) {
            return None;
        }
        let mut sketch = QuantileSketch::with_precision(precision);
        let Json::Arr(pairs) = doc.get("buckets")? else {
            return None;
        };
        for pair in pairs {
            let Json::Arr(pair) = pair else { return None };
            let [index, count] = pair.as_slice() else {
                return None;
            };
            let index = usize::try_from(exact_u64(index)?).ok()?;
            let count = exact_u64(count)?;
            let bucket = sketch.buckets.get_mut(index)?;
            *bucket = bucket.checked_add(count)?;
            sketch.count = sketch.count.checked_add(count)?;
        }
        if sketch.count != exact_u64(doc.get("count")?)? {
            return None;
        }
        // ccdem-lint: allow(arith-cast) — sums beyond 2^53 lose low bits
        // to the f64 round trip; approximate totals are acceptable for
        // a deserialized telemetry sketch.
        sketch.sum = doc.get("sum")?.as_f64()? as u128;
        if sketch.count > 0 {
            sketch.min = exact_u64(doc.get("min")?)?;
            sketch.max = exact_u64(doc.get("max")?)?;
            // Exact extremes lie in the first and last non-empty buckets;
            // the inclusive upper bound admits a `max` that the f64 round
            // trip rounded up to its bucket's end.
            let first = sketch.buckets.iter().position(|&n| n > 0)?;
            let last = sketch.buckets.iter().rposition(|&n| n > 0)?;
            let lowest = bucket_bounds(precision, first).0;
            let highest = bucket_bounds(precision, last).1;
            if !(lowest <= sketch.min && sketch.min <= sketch.max && sketch.max <= highest) {
                return None;
            }
        }
        Some(sketch)
    }
}

/// A JSON number as an exact `u64`: integral, non-negative and below
/// 2^53, or `None`. JSON numbers are `f64`s, which hold every integer
/// only below 2^53; a larger member may have been rounded when it was
/// written, so it is rejected rather than trusted. Every integral sketch
/// member goes through this check, and so does the run count of a
/// campaign checkpoint.
pub fn exact_u64(value: &Json) -> Option<u64> {
    let v = value.as_f64()?;
    // ccdem-lint: allow(arith-cast) — range- and integrality-checked.
    (v >= 0.0 && v.fract() == 0.0 && v < 9_007_199_254_740_992.0).then_some(v as u64)
}

/// A concurrently recordable [`QuantileSketch`]: same bucket layout, all
/// counters relaxed atomics.
///
/// A snapshot taken while writers are active may tear between counters
/// (e.g. `count` momentarily behind a bucket increment) — fine for
/// telemetry, which only reads after workers quiesce or for progress
/// display. Recording never blocks and never panics.
#[derive(Debug)]
pub struct AtomicSketch {
    precision: u32,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    // 128-bit sum split across two words: `sum` wraps mod 2^64 and every
    // observed wrap bumps `sum_carry`, keeping the total exact.
    sum: AtomicU64,
    sum_carry: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
}

impl Default for AtomicSketch {
    fn default() -> AtomicSketch {
        AtomicSketch::new()
    }
}

impl AtomicSketch {
    /// An empty atomic sketch at [`DEFAULT_PRECISION`].
    pub fn new() -> AtomicSketch {
        AtomicSketch::with_precision(DEFAULT_PRECISION)
    }

    /// An empty atomic sketch with the given precision (see
    /// [`QuantileSketch::with_precision`] for the valid range).
    pub fn with_precision(precision: u32) -> AtomicSketch {
        assert!(
            (1..=12).contains(&precision),
            "sketch precision must be in 1..=12, got {precision}"
        );
        AtomicSketch {
            precision,
            buckets: (0..bucket_count(precision))
                .map(|_| AtomicU64::new(0))
                .collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            sum_carry: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample (relaxed atomics; wait-free).
    pub fn record(&self, v: u64) {
        // Every counter here is independently monotonic and snapshot()
        // tolerates cross-counter tearing by design, so each operation
        // uses relaxed ordering: no happens-before edge is needed.
        // ccdem-lint: allow(panic) — bucket_index is < the bucket count
        // fixed at construction for this precision, by construction.
        self.buckets[bucket_index(self.precision, v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed); // ordering: relaxed — see above
        let prev = self.sum.fetch_add(v, Ordering::Relaxed); // ordering: relaxed — see above
        if prev.checked_add(v).is_none() {
            // ordering: relaxed — the carry word is reassembled only by
            // the advisory snapshot; a torn read is acceptable there.
            self.sum_carry.fetch_add(1, Ordering::Relaxed);
        }
        self.min.fetch_min(v, Ordering::Relaxed); // ordering: relaxed — see above
        self.max.fetch_max(v, Ordering::Relaxed); // ordering: relaxed — see above
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        // ordering: relaxed — monotonic counter snapshot read.
        self.count.load(Ordering::Relaxed)
    }

    /// Materialises the current counts as a plain [`QuantileSketch`].
    pub fn snapshot(&self) -> QuantileSketch {
        // ordering: relaxed — the snapshot is advisory: loads may tear
        // across counters, which the sketch contract accepts.
        let count = self.count.load(Ordering::Relaxed);
        if count == 0 {
            return QuantileSketch::with_precision(self.precision);
        }
        let sum_lo = self.sum.load(Ordering::Relaxed); // ordering: relaxed — see above
        let sum_hi = self.sum_carry.load(Ordering::Relaxed); // ordering: relaxed — see above
        QuantileSketch {
            precision: self.precision,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed)) // ordering: relaxed — see above
                .collect(),
            count,
            // ccdem-lint: allow(arith-cast) — hi·2^64 + lo < 2^128.
            sum: u128::from(sum_lo) + (u128::from(sum_hi) << 64),
            min: self.min.load(Ordering::Relaxed), // ordering: relaxed — see above
            max: self.max.load(Ordering::Relaxed), // ordering: relaxed — see above
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_continuous_and_monotone() {
        for p in [1u32, 5, 12] {
            let mut last = None;
            // Every power-of-two boundary and its neighbours, plus small
            // values — sorted so index monotonicity can be checked.
            let mut probes: Vec<u64> = (0..200u64)
                .chain((5..64).flat_map(|k| {
                    let b = 1u64 << k;
                    [b - 1, b, b + 1]
                }))
                .chain([u64::MAX - 1, u64::MAX])
                .collect();
            probes.sort_unstable();
            probes.dedup();
            for v in probes {
                let idx = bucket_index(p, v);
                assert!(idx < bucket_count(p), "index {idx} out of range for p={p}");
                let (lo, hi) = bucket_bounds(p, idx);
                // The very top bucket's bound saturates at u64::MAX (the
                // true exclusive bound 2^64 is unrepresentable), making it
                // inclusive there.
                assert!(
                    lo <= v && (v < hi || hi == u64::MAX),
                    "v={v} not in [{lo},{hi}) p={p}"
                );
                if let Some(prev) = last {
                    assert!(idx >= prev, "index not monotone at v={v} p={p}");
                }
                last = Some(idx);
            }
        }
    }

    #[test]
    fn bucket_bounds_partition_small_values_exactly() {
        for v in 0..(1u64 << DEFAULT_PRECISION) * 4 {
            let idx = bucket_index(DEFAULT_PRECISION, v);
            let (lo, hi) = bucket_bounds(DEFAULT_PRECISION, idx);
            assert!(lo <= v && v < hi);
            // Below 2^(p+1) every bucket is a single value.
            if v < (1u64 << (DEFAULT_PRECISION + 1)) {
                assert_eq!((lo, hi), (v, v + 1));
            }
        }
    }

    #[test]
    fn quantiles_are_within_the_documented_error_bound() {
        let mut sketch = QuantileSketch::new();
        let samples: Vec<u64> = (0..10_000u64).map(|i| i * i % 777_777).collect();
        for &s in &samples {
            sketch.record(s);
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.95, 0.99, 1.0] {
            let approx = sketch.quantile(q).unwrap() as f64;
            let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
            let exact = sorted[rank - 1] as f64;
            let tolerance = sketch.relative_error() * exact.max(1.0);
            assert!(
                (approx - exact).abs() <= tolerance,
                "q={q}: approx {approx} vs exact {exact} (tol {tolerance})"
            );
        }
        assert_eq!(sketch.min(), sorted.first().copied());
        assert_eq!(sketch.max(), sorted.last().copied());
        assert_eq!(sketch.sum(), samples.iter().map(|&s| u128::from(s)).sum());
    }

    #[test]
    fn merge_equals_recording_everything_into_one() {
        let values: Vec<u64> = (0..500u64)
            .map(|i| i.wrapping_mul(2654435761) >> 20)
            .collect();
        let mut whole = QuantileSketch::new();
        let mut left = QuantileSketch::new();
        let mut right = QuantileSketch::new();
        for (i, &v) in values.iter().enumerate() {
            whole.record(v);
            if i % 3 == 0 {
                left.record(v)
            } else {
                right.record(v)
            }
        }
        let mut merged_lr = left.clone();
        merged_lr.merge(&right);
        let mut merged_rl = right.clone();
        merged_rl.merge(&left);
        assert_eq!(merged_lr, whole);
        assert_eq!(merged_rl, whole, "merge must be commutative");
    }

    #[test]
    fn empty_sketch_behaviour() {
        let sketch = QuantileSketch::new();
        assert!(sketch.is_empty());
        assert_eq!(sketch.quantile(0.5), None);
        assert_eq!(sketch.min(), None);
        assert_eq!(sketch.max(), None);
        assert_eq!(sketch.mean(), None);
        let mut merged = QuantileSketch::new();
        merged.merge(&sketch);
        assert_eq!(merged, QuantileSketch::new());
    }

    #[test]
    #[should_panic(expected = "different precision")]
    fn merge_rejects_mismatched_precision() {
        let mut a = QuantileSketch::with_precision(4);
        a.merge(&QuantileSketch::with_precision(5));
    }

    #[test]
    fn record_f64_drops_nonfinite_and_clamps_negatives() {
        let mut sketch = QuantileSketch::new();
        sketch.record_f64(f64::NAN);
        sketch.record_f64(f64::INFINITY);
        assert!(sketch.is_empty());
        sketch.record_f64(-3.5);
        sketch.record_f64(41.7);
        assert_eq!(sketch.count(), 2);
        assert_eq!(sketch.min(), Some(0));
        assert_eq!(sketch.max(), Some(42));
    }

    #[test]
    fn atomic_sketch_snapshot_matches_plain_recording() {
        let atomic = AtomicSketch::new();
        let mut plain = QuantileSketch::new();
        for v in [0u64, 1, 31, 32, 33, 1000, u64::MAX] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
        assert_eq!(atomic.count(), 7);
    }

    #[test]
    fn atomic_sketch_concurrent_records_all_land() {
        let sketch = AtomicSketch::new();
        std::thread::scope(|scope| {
            for t in 0..4u64 {
                let sketch = &sketch;
                scope.spawn(move || {
                    for i in 0..1000u64 {
                        sketch.record(t * 1000 + i);
                    }
                });
            }
        });
        let snap = sketch.snapshot();
        assert_eq!(snap.count(), 4000);
        assert_eq!(snap.min(), Some(0));
        assert_eq!(snap.max(), Some(3999));
    }

    #[test]
    fn delta_since_isolates_new_samples() {
        let mut sketch = QuantileSketch::new();
        sketch.record(10);
        sketch.record(20);
        let earlier = sketch.clone();
        sketch.record(1000);
        sketch.record(2000);
        let delta = sketch.delta_since(&earlier);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum(), 3000);
        let p50 = delta.quantile(0.5).unwrap() as f64;
        assert!((p50 - 1000.0).abs() <= 1000.0 * delta.relative_error());
        assert!(delta.min().unwrap() >= 960, "delta min from bucket bounds");
        assert!(delta.max().unwrap() <= 2047, "delta max from bucket bounds");
    }

    #[test]
    fn json_round_trip_preserves_the_sketch() {
        let mut sketch = QuantileSketch::new();
        for v in [0u64, 5, 31, 32, 100, 1_000_000, 123_456_789] {
            sketch.record(v);
        }
        let doc = sketch.to_json();
        let back = QuantileSketch::from_json(&doc).expect("round trip");
        assert_eq!(back, sketch);
        // And through the serialized text form.
        let mut text = String::new();
        crate::json::write_json(&mut text, &doc);
        let reparsed = crate::json::parse(&text).expect("sketch JSON parses");
        assert_eq!(QuantileSketch::from_json(&reparsed), Some(sketch));
    }

    /// Whether `from_json` rejects the JSON text `doc`.
    fn rejects(doc: &str) -> bool {
        let doc = crate::json::parse(doc).expect("test inputs are valid JSON");
        QuantileSketch::from_json(&doc).is_none()
    }

    #[test]
    fn from_json_accepts_extremes_inside_their_buckets() {
        // Bucket 7 holds exactly 7; values 80 and 81 share bucket 72.
        assert!(!rejects(
            r#"{"precision":5,"count":3,"sum":168,"min":7,"max":81,"buckets":[[7,1],[72,2]]}"#
        ));
    }

    #[test]
    fn from_json_rejects_min_above_max() {
        // `quantile` clamps to [min, max], which panics when min > max.
        assert!(rejects(
            r#"{"precision":5,"count":1,"sum":7,"min":10,"max":5,"buckets":[[7,1]]}"#
        ));
    }

    #[test]
    fn from_json_rejects_extremes_outside_the_buckets() {
        // One sample, the value 7 (bucket 7): a `min` below its bucket
        // or a `max` above it is rejected.
        assert!(rejects(
            r#"{"precision":5,"count":1,"sum":7,"min":0,"max":7,"buckets":[[7,1]]}"#
        ));
        assert!(rejects(
            r#"{"precision":5,"count":1,"sum":7,"min":7,"max":100,"buckets":[[7,1]]}"#
        ));
    }

    #[test]
    fn from_json_rejects_bucket_counts_whose_sum_overflows() {
        // 2^63 + 2^63 wraps to 0, which would match "count": 0 and give
        // an "empty" sketch with full buckets.
        assert!(rejects(
            r#"{"precision":5,"count":0,"sum":0,"buckets":[[1,9223372036854775808],[2,9223372036854775808]]}"#
        ));
        // The same wrap within one bucket.
        assert!(rejects(
            r#"{"precision":5,"count":0,"sum":0,"buckets":[[1,9223372036854775808],[1,9223372036854775808]]}"#
        ));
    }

    #[test]
    fn from_json_rejects_negative_or_fractional_bucket_indices() {
        // Both would otherwise truncate to bucket 0.
        assert!(rejects(
            r#"{"precision":5,"count":1,"sum":0,"min":0,"max":0,"buckets":[[-1,1]]}"#
        ));
        assert!(rejects(
            r#"{"precision":5,"count":1,"sum":0,"min":0,"max":0,"buckets":[[0.5,1]]}"#
        ));
    }

    #[test]
    fn from_json_rejects_non_integral_counts() {
        assert!(rejects(
            r#"{"precision":5,"count":1,"sum":3,"min":3,"max":3,"buckets":[[3,1.5]]}"#
        ));
        assert!(rejects(
            r#"{"precision":5,"count":-1,"sum":3,"min":3,"max":3,"buckets":[[3,-1]]}"#
        ));
        assert!(rejects(
            r#"{"precision":5,"count":1.5,"sum":3,"min":3,"max":3,"buckets":[[3,1]]}"#
        ));
        // 2^64 itself does not fit a u64 (a cast would saturate).
        assert!(rejects(
            r#"{"precision":5,"count":18446744073709551616,"sum":0,"buckets":[[1,18446744073709551616]]}"#
        ));
        // 2^53 is the first count an f64 may have rounded.
        assert!(rejects(
            r#"{"precision":5,"count":9007199254740992,"sum":0,"min":1,"max":1,"buckets":[[1,9007199254740992]]}"#
        ));
        assert!(!rejects(
            r#"{"precision":5,"count":9007199254740991,"sum":0,"min":1,"max":1,"buckets":[[1,9007199254740991]]}"#
        ));
    }

    #[test]
    fn from_json_rejects_fractional_precision() {
        assert!(rejects(
            r#"{"precision":5.5,"count":0,"sum":0,"buckets":[]}"#
        ));
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        use crate::json::parse;
        for bad in [
            r#"{"precision":99,"count":0,"sum":0,"buckets":[]}"#,
            r#"{"precision":5,"count":1,"sum":0,"buckets":[]}"#, // count mismatch
            r#"{"precision":5,"count":0,"sum":0}"#,              // missing buckets
            r#"{"precision":5,"count":1,"sum":0,"buckets":[[999999,1]]}"#, // index range
        ] {
            let doc = parse(bad).expect("test inputs are valid JSON");
            assert!(
                QuantileSketch::from_json(&doc).is_none(),
                "{bad} should be rejected"
            );
        }
    }
}
