//! Streaming campaign statistics: fleet-style aggregation over many runs.
//!
//! A sweep or fleet is a *campaign* of independent runs. Instead of
//! buffering every [`RunResult`] to compute percentiles at the end, a
//! [`CampaignStats`] folds each result into fixed-size
//! [`QuantileSketch`]es the moment it completes, so a campaign of any
//! length aggregates in O(buckets) memory and two half-finished
//! campaigns (e.g. per-worker or per-shard partials) merge exactly.
//!
//! [`run_each`] is the dispatch the sweep, the ablations and the
//! generalization grid share: an index → run map on
//! [`ParallelRunner::run_batches`] that returns results in index order.
//!
//! Two properties make this safe to run online under a parallel runner:
//!
//! * **Order independence** — sketches bucket by value with
//!   deterministic boundaries, so folding runs in completion order
//!   yields byte-identical statistics to folding them in input order
//!   (pinned by a proptest in `tests/`).
//! * **Outward-only** — statistics are derived from results; nothing
//!   flows back, so an aggregating campaign returns the same
//!   [`RunResult`]s as a silent one.
//!
//! Values are recorded in **milli-units** (×1000 fixed point): the
//! sketches store integers, and three decimal places comfortably covers
//! every campaign metric (mW, Hz, %, fps, switch counts). Quantiles come
//! back in natural units with the sketch's relative error
//! (≤ 2^−precision ≈ 3.1 % at the default precision) plus the half-tick
//! rounding of the scale.

use std::collections::BTreeMap;
use std::fmt;

use ccdem_metrics::table::TextTable;
use ccdem_obs::json::Json;
use ccdem_obs::sketch::exact_u64;
use ccdem_obs::{Obs, QuantileSketch};
use ccdem_simkit::parallel::ParallelRunner;
use ccdem_simkit::time::SimTime;

use crate::scenario::{RunResult, RunScratch};

/// Fixed-point ticks per natural unit.
const SCALE: f64 = 1000.0;

/// The metric names [`CampaignStats::observe_run`] records, in order.
/// [`CampaignStats::from_json`] accepts exactly this set, which is how
/// parsed names regain their `&'static str` identity.
pub const RUN_METRICS: [&str; 5] = [
    "avg_power_mw",
    "avg_refresh_hz",
    "quality_pct",
    "dropped_fps",
    "refresh_switches",
];

/// Maps a parsed metric name onto its `'static` counterpart, or `None`
/// for a name [`CampaignStats::observe_run`] does not record.
fn intern_metric(name: &str) -> Option<&'static str> {
    RUN_METRICS.iter().find(|&&known| known == name).copied()
}

/// Runs `run(scratch, item)` for every item of `items` on `runner` and
/// returns the results in item order.
///
/// Dispatch is [`ParallelRunner::run_batches`] over the item indices,
/// one index per claim: each item is a whole simulation, so claiming
/// them one at a time costs nothing measurable and leaves no worker idle
/// behind a claimed batch. Each worker's accumulator holds its own
/// [`RunScratch`] and its `(index, result)` pairs, which are sorted back
/// into index order here, so the output is identical for any worker
/// count as long as `run` derives everything from its item and resets
/// what it takes from the scratch (as
/// [`Scenario::run_with_scratch`](crate::Scenario::run_with_scratch)
/// does).
///
/// # Panics
///
/// Propagates the first panic raised by `run` (after all workers stop).
pub fn run_each<T, R, F>(runner: &ParallelRunner, items: &[T], run: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&mut RunScratch, &T) -> R + Sync,
{
    let partials = runner.run_batches(
        // ccdem-lint: allow(arith-cast) — usize → u64 widens.
        0..items.len() as u64,
        1,
        || (RunScratch::new(), Vec::new()),
        |(scratch, done), index| {
            // ccdem-lint: allow(arith-cast) — index < items.len(), a usize.
            let index = index as usize;
            // ccdem-lint: allow(panic) — run_batches yields only indices
            // of the range it was given, 0..items.len()
            let item = &items[index];
            done.push((index, run(scratch, item)));
        },
    );
    let mut done: Vec<(usize, R)> = partials.into_iter().flat_map(|(_, done)| done).collect();
    done.sort_unstable_by_key(|&(index, _)| index);
    done.into_iter().map(|(_, result)| result).collect()
}

/// Streaming aggregate over a campaign of runs.
///
/// # Examples
///
/// ```
/// use ccdem_experiments::campaign::CampaignStats;
///
/// let mut stats = CampaignStats::new();
/// for mw in [210.0, 230.0, 250.0] {
///     stats.observe("avg_power_mw", mw);
/// }
/// let p50 = stats.quantile("avg_power_mw", 0.5).unwrap();
/// assert!((p50 - 230.0).abs() < 230.0 * 0.04);
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CampaignStats {
    runs: u64,
    metrics: BTreeMap<&'static str, QuantileSketch>,
}

impl CampaignStats {
    /// An empty aggregate.
    pub fn new() -> CampaignStats {
        CampaignStats::default()
    }

    /// Records one sample of `metric` (natural units; values are stored
    /// at ×1000 fixed point, negatives clamp to zero). Does not bump the
    /// run count — use [`observe_run`](Self::observe_run) for whole
    /// results.
    pub fn observe(&mut self, metric: &'static str, value: f64) {
        self.metrics
            .entry(metric)
            .or_default()
            .record_f64(Self::scaled(value));
    }

    /// The one place natural units enter the ×1000 fixed-point domain.
    fn scaled(value: f64) -> f64 {
        // ccdem-lint: allow(arith-cast) — pure f64 scaling; rounding and
        // clamping into the integer domain happen in record_f64.
        value * SCALE
    }

    /// Folds one sweep run into the aggregate.
    pub fn observe_run(&mut self, result: &RunResult) {
        self.runs += 1;
        self.observe("avg_power_mw", result.avg_power_mw);
        self.observe("avg_refresh_hz", result.avg_refresh_hz);
        self.observe("quality_pct", result.quality_pct());
        self.observe("dropped_fps", result.dropped_fps());
        self.observe("refresh_switches", result.refresh_switches as f64);
    }

    /// Runs folded so far (via the whole-result observers).
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.runs == 0 && self.metrics.values().all(QuantileSketch::is_empty)
    }

    /// The underlying sketch for `metric`, if any sample was recorded.
    pub fn sketch(&self, metric: &str) -> Option<&QuantileSketch> {
        self.metrics.get(metric)
    }

    /// The `q`-quantile of `metric` in natural units, within the
    /// sketch's documented error bound.
    pub fn quantile(&self, metric: &str, q: f64) -> Option<f64> {
        let sketch = self.metrics.get(metric)?;
        if sketch.is_empty() {
            return None;
        }
        Some(sketch.quantile(q)? as f64 / SCALE)
    }

    /// The mean of `metric` in natural units (exact: sketches carry an
    /// exact sum and count).
    pub fn mean(&self, metric: &str) -> Option<f64> {
        let sketch = self.metrics.get(metric)?;
        Some(sketch.mean()? / SCALE)
    }

    /// Total sketch buckets held — the memory footprint driver. Constant
    /// in the number of runs; grows only with the set of metric names.
    pub fn bucket_footprint(&self) -> usize {
        self.metrics.values().map(QuantileSketch::bucket_len).sum()
    }

    /// Folds `other` into `self`. Exact and order-independent: merging
    /// per-shard partials in any order equals observing every run into
    /// one aggregate.
    ///
    /// # Panics
    ///
    /// Panics if a shared metric was recorded at different sketch
    /// precisions (not possible via this type's own observers).
    pub fn merge(&mut self, other: &CampaignStats) {
        // ccdem-lint: allow(arith-cast) — run counts are bounded by the
        // fleet size, far below u64::MAX.
        self.runs += other.runs;
        for (name, sketch) in &other.metrics {
            match self.metrics.entry(name) {
                std::collections::btree_map::Entry::Occupied(mut e) => e.get_mut().merge(sketch),
                std::collections::btree_map::Entry::Vacant(e) => {
                    e.insert(sketch.clone());
                }
            }
        }
    }

    /// Emits a `campaign.progress` event with the running run count and
    /// headline percentiles. Called after each completed run of a live
    /// campaign; with a disabled handle this is free. The values reflect
    /// whichever runs happen to have completed, so progress lines are
    /// *not* deterministic under a parallel runner — only the final
    /// aggregate is.
    pub fn emit_progress(&self, obs: &Obs, total: usize) {
        let runs = self.runs;
        obs.emit("campaign.progress", SimTime::ZERO, |event| {
            // ccdem-lint: allow(arith-cast) — usize → u64 widens.
            event.field("runs", runs).field("total", total as u64);
            for (key, metric, q) in Self::HEADLINES {
                if let Some(v) = self.quantile(metric, q) {
                    event.field(key, v);
                }
            }
        });
    }

    /// Emits the final `campaign.end` event with the same headline
    /// percentiles as [`emit_progress`](Self::emit_progress). Unlike
    /// progress lines, this one is deterministic: every run has folded
    /// in, and folding is order-independent.
    pub fn emit_end(&self, obs: &Obs) {
        let runs = self.runs;
        obs.emit("campaign.end", SimTime::ZERO, |event| {
            event.field("runs", runs);
            for (key, metric, q) in Self::HEADLINES {
                if let Some(v) = self.quantile(metric, q) {
                    event.field(key, v);
                }
            }
        });
    }

    /// Serializes the full aggregate — run count plus every metric's
    /// sparse sketch (via [`QuantileSketch::to_json`]) — for checkpoints
    /// and external tooling. Metric order is the `BTreeMap`'s sorted
    /// order, so equal aggregates serialize to byte-identical documents.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, sketch)| ((*name).to_string(), sketch.to_json()))
            .collect();
        Json::Obj(vec![
            ("runs".into(), Json::Num(self.runs as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Rebuilds an aggregate from [`to_json`](Self::to_json) output.
    /// The round trip is **exact**: every bucket count, sum, min, max
    /// and the run count survive, so a resumed campaign continues to
    /// byte-identical final statistics (pinned by a proptest in
    /// `tests/`). Returns `None` on a malformed document, a run count
    /// that is not an exact integer below 2^53 ([`exact_u64`]), an
    /// unknown metric name (see [`RUN_METRICS`]), or a malformed
    /// sketch.
    pub fn from_json(doc: &Json) -> Option<CampaignStats> {
        let runs = exact_u64(doc.get("runs")?)?;
        let Json::Obj(members) = doc.get("metrics")? else {
            return None;
        };
        let mut metrics = BTreeMap::new();
        for (name, sketch) in members {
            metrics.insert(intern_metric(name)?, QuantileSketch::from_json(sketch)?);
        }
        Some(CampaignStats { runs, metrics })
    }

    /// Headline (field, metric, quantile) triples shared by progress and
    /// end events. Fields for metrics a campaign never recorded are
    /// simply absent.
    const HEADLINES: [(&'static str, &'static str, f64); 6] = [
        ("power_p50_mw", "avg_power_mw", 0.5),
        ("power_p95_mw", "avg_power_mw", 0.95),
        ("power_p99_mw", "avg_power_mw", 0.99),
        ("quality_p50_pct", "quality_pct", 0.5),
        ("quality_p05_pct", "quality_pct", 0.05),
        ("dropped_p95_fps", "dropped_fps", 0.95),
    ];
}

impl fmt::Display for CampaignStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return writeln!(f, "campaign: no runs recorded");
        }
        writeln!(f, "campaign percentiles over {} runs:", self.runs)?;
        let mut t = TextTable::new(["metric", "samples", "mean", "p50", "p95", "p99", "max"]);
        for (name, sketch) in &self.metrics {
            let q = |q: f64| format!("{:.3}", sketch.quantile(q).unwrap_or(0) as f64 / SCALE);
            t.row([
                (*name).to_string(),
                format!("{}", sketch.count()),
                format!("{:.3}", sketch.mean().unwrap_or(0.0) / SCALE),
                q(0.5),
                q(0.95),
                q(0.99),
                format!("{:.3}", sketch.max().unwrap_or(0) as f64 / SCALE),
            ]);
        }
        write!(f, "{t}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccdem_obs::RingSink;
    use ccdem_simkit::parallel::derive_seed;
    use ccdem_simkit::rng::SimRng;
    use std::sync::Arc;

    #[test]
    fn run_each_returns_every_result_once_in_item_order() {
        let items: Vec<u64> = (0..257).map(|i| i * 7).collect();
        let serial: Vec<u64> = items.iter().map(|&x| derive_seed(x, 99)).collect();
        for jobs in [1, 2, 3, 8] {
            let runner = ParallelRunner::new(jobs);
            let out = run_each(&runner, &items, |_, &x| derive_seed(x, 99));
            assert_eq!(out, serial, "jobs={jobs}");
            assert!(run_each(&runner, &[] as &[u64], |_, &x| x).is_empty());
        }
    }

    #[test]
    fn run_metrics_cover_the_documented_set() {
        // The RUN_METRICS list is what observe_run actually records.
        let mut stats = CampaignStats::new();
        stats.observe("avg_power_mw", 1.0); // placeholder to seed the map
        for m in RUN_METRICS {
            stats.observe(m, 1.0);
        }
        for m in RUN_METRICS {
            assert!(stats.sketch(m).is_some(), "{m} missing");
        }
    }

    #[test]
    fn streamed_percentiles_match_exact_within_error_bound() {
        // A 10 000-run synthetic campaign: streamed percentiles must
        // match exact offline percentiles within the sketch's relative
        // error (≤ 2^-5) plus one fixed-point tick, while memory stays
        // O(buckets) regardless of run count.
        let mut rng = SimRng::seed_from_u64(0xCA3_3A16);
        let mut stats = CampaignStats::new();
        let mut exact: Vec<f64> = Vec::new();
        let footprint_after_first = {
            stats.observe("avg_power_mw", 300.0);
            exact.push(300.0);
            stats.bucket_footprint()
        };
        for _ in 0..10_000 {
            // Log-uniform-ish spread over [50, 1650) mW.
            let v = 50.0 + rng.range_f64(0.0, 1.0) * rng.range_f64(0.0, 1600.0);
            stats.observe("avg_power_mw", v);
            exact.push(v);
        }
        assert_eq!(
            stats.bucket_footprint(),
            footprint_after_first,
            "memory grew with run count"
        );
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.95, 0.99] {
            let streamed = stats.quantile("avg_power_mw", q).unwrap();
            let rank = ((exact.len() - 1) as f64 * q).round() as usize;
            let true_value = exact[rank];
            let bound = true_value * QuantileSketch::new().relative_error() + 1.0 / SCALE;
            assert!(
                (streamed - true_value).abs() <= bound,
                "q{q}: streamed {streamed:.3} vs exact {true_value:.3} (bound {bound:.3})"
            );
        }
    }

    #[test]
    fn merge_of_shards_equals_one_aggregate() {
        let mut rng = SimRng::seed_from_u64(7);
        let samples: Vec<f64> = (0..500).map(|_| rng.range_f64(0.0, 900.0)).collect();
        let mut whole = CampaignStats::new();
        let mut shards = vec![CampaignStats::new(); 4];
        for (i, &v) in samples.iter().enumerate() {
            whole.observe("avg_power_mw", v);
            whole.observe("quality_pct", 100.0 - v / 20.0);
            shards[i % 4].observe("avg_power_mw", v);
            shards[i % 4].observe("quality_pct", 100.0 - v / 20.0);
        }
        // Fold the shards in a scrambled order.
        let mut merged = CampaignStats::new();
        for i in [2usize, 0, 3, 1] {
            merged.merge(&shards[i]);
        }
        assert_eq!(merged, whole);
    }

    #[test]
    fn progress_and_end_events_carry_percentiles() {
        let sink = Arc::new(RingSink::new(16));
        let obs = Obs::to_sink(sink.clone());
        let mut stats = CampaignStats::new();
        for v in [100.0, 200.0, 300.0] {
            stats.observe("avg_power_mw", v);
        }
        stats.emit_progress(&obs, 90);
        stats.emit_end(&obs);
        let events = sink.events();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].name, "campaign.progress");
        assert_eq!(events[1].name, "campaign.end");
        assert!(events[0].get("power_p50_mw").is_some());
        assert!(events[0].get("total").is_some());
        // Metrics never recorded stay absent rather than defaulting.
        assert!(events[0].get("quality_p50_pct").is_none());
        assert!(events[1].get("power_p99_mw").is_some());
    }

    #[test]
    fn display_renders_a_table() {
        let mut stats = CampaignStats::new();
        stats.runs = 2;
        stats.observe("avg_power_mw", 250.0);
        stats.observe("avg_power_mw", 350.0);
        let text = stats.to_string();
        assert!(text.contains("campaign percentiles over 2 runs"));
        assert!(text.contains("avg_power_mw"));
        assert!(CampaignStats::new().to_string().contains("no runs"));
    }

    #[test]
    fn negative_samples_clamp_to_zero() {
        let mut stats = CampaignStats::new();
        stats.observe("dropped_fps", -12.0);
        assert_eq!(stats.quantile("dropped_fps", 0.5), Some(0.0));
    }

    #[test]
    fn json_round_trip_is_exact() {
        let mut rng = SimRng::seed_from_u64(0xF1EE7);
        let mut stats = CampaignStats::new();
        stats.runs = 321;
        for _ in 0..500 {
            stats.observe("avg_power_mw", rng.range_f64(0.0, 900.0));
            stats.observe("quality_pct", rng.range_f64(0.0, 100.0));
            stats.observe("dropped_fps", rng.range_f64(-5.0, 80.0));
        }
        let doc = stats.to_json();
        let back = CampaignStats::from_json(&doc).expect("own document parses");
        assert_eq!(back, stats);
        // And through the textual writer/parser as well.
        let text = doc.to_string();
        let reparsed = ccdem_obs::json::parse(&text).expect("valid JSON");
        assert_eq!(CampaignStats::from_json(&reparsed), Some(stats));
    }

    #[test]
    fn empty_stats_round_trip() {
        let stats = CampaignStats::new();
        assert_eq!(CampaignStats::from_json(&stats.to_json()), Some(stats));
    }

    #[test]
    fn from_json_rejects_malformed_documents() {
        use ccdem_obs::json::parse;
        // Unknown metric names cannot regain a 'static identity.
        let unknown = parse(r#"{"runs": 1, "metrics": {"bogus_metric": {}}}"#).unwrap();
        assert_eq!(CampaignStats::from_json(&unknown), None);
        // Fractional or negative run counts are nonsense.
        let fractional = parse(r#"{"runs": 1.5, "metrics": {}}"#).unwrap();
        assert_eq!(CampaignStats::from_json(&fractional), None);
        let negative = parse(r#"{"runs": -2, "metrics": {}}"#).unwrap();
        assert_eq!(CampaignStats::from_json(&negative), None);
        // So are counts an f64 cannot hold exactly: a resume would add
        // its runs to a saturated or rounded total.
        for huge in ["1e30", "9007199254740992"] {
            let doc = parse(&format!(r#"{{"runs": {huge}, "metrics": {{}}}}"#)).unwrap();
            assert_eq!(CampaignStats::from_json(&doc), None, "runs {huge}");
        }
        let below = parse(r#"{"runs": 9007199254740991, "metrics": {}}"#).unwrap();
        assert_eq!(
            CampaignStats::from_json(&below).map(|s| s.runs),
            Some((1 << 53) - 1)
        );
        // Missing members.
        let empty = parse("{}").unwrap();
        assert_eq!(CampaignStats::from_json(&empty), None);
        // A malformed sketch inside a known metric.
        let bad_sketch =
            parse(r#"{"runs": 0, "metrics": {"avg_power_mw": {"precision": "x"}}}"#).unwrap();
        assert_eq!(CampaignStats::from_json(&bad_sketch), None);
    }

    #[test]
    fn known_metrics_cover_every_observer() {
        for m in RUN_METRICS {
            assert_eq!(intern_metric(m), Some(m));
        }
        assert!(intern_metric("saved_mw").is_none());
        assert!(intern_metric("not_a_metric").is_none());
    }
}
