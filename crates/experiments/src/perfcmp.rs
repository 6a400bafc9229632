//! Comparing two benchmark reports — the delta table behind
//! `ccdem bench --compare` and the regression gate behind
//! `ccdem bench --check <new> --baseline <old>`.
//!
//! [`perf::validate`] checks one report in isolation (structure plus the
//! deterministic points-read criteria). This module reads *two* reports
//! and reasons about their timing columns:
//!
//! * [`compare`] renders a per-(budget, case) table of baseline vs new
//!   ns/frame with the speedup factor — the human-facing diff between,
//!   say, the committed `BENCH_PR3.json` and `BENCH_PR5.json` — plus,
//!   when both reports embed decision-tick sketches, the p50/p99 tick
//!   latency deltas **recomputed from the committed sketches** (never
//!   the stored headline numbers), and the fleet devices/sec table.
//! * [`check`] additionally enforces the regression gate, the same for
//!   every baseline: every timed fast-path case must stay within a noise
//!   margin of the baseline. Both files are committed artifacts measured
//!   on possibly different hosts, so the margin absorbs clock jitter
//!   without letting an algorithmic regression through.
//!
//! Timing gates on freshly measured numbers would be flaky; CI therefore
//! runs [`check`] on the two *committed* reports, which is deterministic.

use std::fmt;

use ccdem_metrics::table::TextTable;
use ccdem_obs::json::{self, Json};
use ccdem_obs::QuantileSketch;

use crate::perf;

/// Allowed ratio of new/baseline ns/frame on the cases that must not
/// regress (`redundant`, `small_damage` and `full_change`, at every
/// budget). Committed reports come from real hosts
/// in different sessions, so exact equality is unattainable: the
/// microsecond-scale L1-resident cases scatter up to ~1.35× between
/// sessions of the same unchanged binary (the memory-bound full-grid
/// case stays within a few percent, confirming the scatter is host
/// state, not code). 1.5× absorbs that while still failing hard on any
/// algorithmic regression — reintroducing an O(pixels) path moves
/// these cases by 10× or more, never 1.5×.
pub const REGRESSION_MARGIN: f64 = 1.5;

/// Absolute slack added on top of [`REGRESSION_MARGIN`]: a case only
/// counts as regressed when it exceeds the relative margin *and* is at
/// least this many ns/frame over the baseline. The O(1) `redundant` and
/// tiny `small_damage` cases complete in ~100–600 ns, where a single
/// scheduler hiccup moves the 200-frame mean by a factor of 2; a purely
/// relative margin would flag that noise. The floor is two orders of
/// magnitude below any microsecond-scale case, so for every measurement
/// large enough to be stable the relative margin still governs.
pub const NOISE_FLOOR_NS: f64 = 500.0;

/// The per-case mean timings of one budget row, by name (no positional
/// indexing anywhere downstream).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetTimings {
    /// Sampled pixels per full comparison.
    pub pixels: f64,
    /// Mean ns/frame for the O(1)-classified redundant frame.
    pub redundant_ns: f64,
    /// Mean ns/frame for the status-bar-sized damage frame.
    pub small_damage_ns: f64,
    /// Mean ns/frame for the every-pixel-changed frame.
    pub full_change_ns: f64,
    /// Mean ns/frame for the naive double-gather reference.
    pub naive_redundant_ns: f64,
}

impl BudgetTimings {
    /// The timed cases as `(name, ns_per_frame)` pairs, in report order.
    pub fn cases(&self) -> [(&'static str, f64); 4] {
        [
            ("redundant", self.redundant_ns),
            ("small_damage", self.small_damage_ns),
            ("full_change", self.full_change_ns),
            ("naive_redundant", self.naive_redundant_ns),
        ]
    }
}

/// One baseline-vs-new budget pairing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BudgetPair {
    /// The older report's timings.
    pub baseline: BudgetTimings,
    /// The newer report's timings.
    pub new: BudgetTimings,
}

/// Decision-tick latency percentiles recomputed from a report's
/// embedded sketch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TickStats {
    /// Control ticks the sketch holds.
    pub ticks: u64,
    /// Median tick latency. (µs)
    pub p50_us: f64,
    /// 99th-percentile tick latency. (µs)
    pub p99_us: f64,
}

/// The parsed comparison of two reports, budgets ascending.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// The baseline report's `"bench"` marker.
    pub baseline_marker: String,
    /// The new report's `"bench"` marker.
    pub new_marker: String,
    /// Paired budget rows, ascending by pixel count.
    pub pairs: Vec<BudgetPair>,
    /// `(baseline, new)` decision-tick stats, present only when *both*
    /// reports embed a non-empty tick sketch (pre-PR 7 baselines don't).
    pub ticks: Option<(TickStats, TickStats)>,
    /// `(baseline, new)` fleet throughput, each present when the
    /// respective report embeds the measurement (pre-PR 8 baselines
    /// don't).
    pub fleet: (Option<perf::FleetThroughput>, Option<perf::FleetThroughput>),
}

/// Extracts the timing columns of a validated report document.
///
/// # Errors
///
/// Anything [`perf::validate`] rejects, plus missing timing members.
pub fn parse_timings(document: &str) -> Result<(String, Vec<BudgetTimings>), String> {
    perf::validate(document)?;
    let doc = json::parse(document)?;
    let marker = doc
        .get("bench")
        .and_then(Json::as_str)
        .ok_or("missing \"bench\" marker")?
        .to_string();
    let Some(Json::Arr(budgets)) = doc.get("budgets") else {
        return Err("missing \"budgets\" array".into());
    };
    let mut rows = Vec::with_capacity(budgets.len());
    for b in budgets {
        let pixels = b
            .get("pixels")
            .and_then(Json::as_f64)
            .ok_or("budget entry missing \"pixels\"")?;
        let ns = |name: &str| -> Result<f64, String> {
            b.get("cases")
                .and_then(|cases| cases.get(name))
                .and_then(|case| case.get("ns_per_frame"))
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("budget {pixels}: missing ns_per_frame for {name:?}"))
        };
        rows.push(BudgetTimings {
            pixels,
            redundant_ns: ns("redundant")?,
            small_damage_ns: ns("small_damage")?,
            full_change_ns: ns("full_change")?,
            naive_redundant_ns: ns("naive_redundant")?,
        });
    }
    Ok((marker, rows))
}

/// Recomputes decision-tick percentiles from the sketch a (pre-parsed,
/// already-validated) report document embeds; `None` when the document
/// predates the member or recorded no ticks.
fn parse_tick_stats(document: &str) -> Option<TickStats> {
    let doc = json::parse(document).ok()?;
    let sketch = QuantileSketch::from_json(doc.get("decision_tick")?.get("sketch")?)?;
    let us = |q: f64| sketch.quantile(q).unwrap_or(0) as f64 / 1e3;
    (!sketch.is_empty()).then(|| TickStats {
        ticks: sketch.count(),
        p50_us: us(0.5),
        p99_us: us(0.99),
    })
}

/// Extracts the fleet throughput measurement from an already-validated
/// report document; `None` when the document predates the member.
fn parse_fleet_member(document: &str) -> Option<perf::FleetThroughput> {
    let doc = json::parse(document).ok()?;
    let fleet = doc.get("fleet")?;
    if matches!(fleet, Json::Null) {
        return None;
    }
    perf::parse_fleet(fleet).ok()
}

/// Parses both documents and pairs their budget rows.
///
/// # Errors
///
/// Either document failing [`parse_timings`], or the two reports not
/// measuring the same pixel budgets.
pub fn compare(new_document: &str, baseline_document: &str) -> Result<Comparison, String> {
    let (new_marker, new_rows) = parse_timings(new_document)?;
    let (baseline_marker, baseline_rows) = parse_timings(baseline_document)?;
    if new_rows.len() != baseline_rows.len() {
        return Err(format!(
            "budget count mismatch: new has {}, baseline has {}",
            new_rows.len(),
            baseline_rows.len()
        ));
    }
    let pairs = baseline_rows
        .into_iter()
        .zip(new_rows)
        .map(|(baseline, new)| {
            if (baseline.pixels - new.pixels).abs() > 0.5 {
                return Err(format!(
                    "budget mismatch: baseline measured {} pixels where new measured {}",
                    baseline.pixels, new.pixels
                ));
            }
            Ok(BudgetPair { baseline, new })
        })
        .collect::<Result<Vec<_>, _>>()?;
    let ticks = match (
        parse_tick_stats(baseline_document),
        parse_tick_stats(new_document),
    ) {
        (Some(baseline), Some(new)) => Some((baseline, new)),
        _ => None,
    };
    let fleet = (
        parse_fleet_member(baseline_document),
        parse_fleet_member(new_document),
    );
    Ok(Comparison {
        baseline_marker,
        new_marker,
        pairs,
        ticks,
        fleet,
    })
}

/// [`compare`], then enforces the regression gate: at every budget,
/// `redundant`, `small_damage` and `full_change` must stay within
/// [`REGRESSION_MARGIN`]× of the baseline, with [`NOISE_FLOOR_NS`] of
/// absolute slack for the sub-microsecond cases. `naive_redundant` is
/// the reference path and is not gated.
///
/// # Errors
///
/// Parse failures from [`compare`], or a description of the first gate
/// violation.
pub fn check(new_document: &str, baseline_document: &str) -> Result<Comparison, String> {
    let comparison = compare(new_document, baseline_document)?;
    for pair in &comparison.pairs {
        for ((name, new_ns), (_, baseline_ns)) in
            pair.new.cases().into_iter().zip(pair.baseline.cases())
        {
            if name == "naive_redundant" {
                continue; // reference only
            }
            if new_ns > baseline_ns * REGRESSION_MARGIN && new_ns > baseline_ns + NOISE_FLOOR_NS {
                return Err(format!(
                    "{name} at {} px regressed: {new_ns:.1} ns/frame vs baseline \
                     {baseline_ns:.1} (margin {REGRESSION_MARGIN}x + {NOISE_FLOOR_NS} ns)",
                    pair.new.pixels
                ));
            }
        }
    }
    Ok(comparison)
}

impl fmt::Display for Comparison {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "benchmark comparison: {} (baseline) vs {} (new); speedup = baseline / new",
            self.baseline_marker, self.new_marker
        )?;
        let mut t = TextTable::new(["pixels", "case", "baseline ns", "new ns", "speedup"]);
        for pair in &self.pairs {
            for ((name, new_ns), (_, baseline_ns)) in
                pair.new.cases().into_iter().zip(pair.baseline.cases())
            {
                t.row([
                    format!("{:.0}", pair.new.pixels),
                    name.to_string(),
                    format!("{baseline_ns:.1}"),
                    format!("{new_ns:.1}"),
                    format!("{:.2}x", baseline_ns / new_ns.max(f64::MIN_POSITIVE)),
                ]);
            }
        }
        write!(f, "{t}")?;
        if let Some((baseline, new)) = &self.ticks {
            write!(
                f,
                "\ndecision tick (recomputed from committed sketches): \
                 p50 {:.1} → {:.1} µs, p99 {:.1} → {:.1} µs \
                 ({} → {} ticks)",
                baseline.p50_us, new.p50_us, baseline.p99_us, new.p99_us, baseline.ticks, new.ticks,
            )?;
        }
        if let (baseline, Some(new)) = &self.fleet {
            writeln!(
                f,
                "\n\nfleet dispatch ({} devices, {} ms simulated each); \
                 rates recomputed from committed wall-clock samples",
                new.devices, new.sim_ms_per_device
            )?;
            let mut t = TextTable::new(["path", "baseline dev/s", "new dev/s", "new wall s"]);
            t.row([
                "streaming".into(),
                baseline.map_or_else(
                    || "-".into(),
                    |b| format!("{:.0}", b.streaming_devices_per_sec()),
                ),
                format!("{:.0}", new.streaming_devices_per_sec()),
                format!("{:.3}", new.streaming_wall_secs),
            ]);
            write!(f, "{t}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig6::PAPER_BUDGETS;
    use crate::perf::{BudgetResult, CaseResult, DecisionTick, FleetThroughput, PerfReport};

    /// A structurally valid report whose ns/frame for `(budget index,
    /// case index)` comes from `ns_of`. Points-read columns satisfy the
    /// PR 3 criteria by construction, a small fixed tick sketch
    /// (10/20/30 µs) satisfies the PR 7 budget, and a fixed fleet
    /// measurement (10 s for 1000 devices) satisfies the PR 8 schema.
    fn synthetic_report(ns_of: impl Fn(usize, usize) -> f64) -> PerfReport {
        let budgets = PAPER_BUDGETS
            .iter()
            .enumerate()
            .map(|(bi, &pixels)| BudgetResult {
                pixels,
                grid: (1, 1),
                cases: [
                    CaseResult {
                        ns_per_frame: ns_of(bi, 0),
                        points_read_per_frame: 0.0,
                    },
                    CaseResult {
                        ns_per_frame: ns_of(bi, 1),
                        points_read_per_frame: 1.0,
                    },
                    CaseResult {
                        ns_per_frame: ns_of(bi, 2),
                        points_read_per_frame: pixels as f64,
                    },
                    CaseResult {
                        ns_per_frame: ns_of(bi, 3),
                        points_read_per_frame: 2.0 * pixels as f64,
                    },
                ],
            })
            .collect();
        let mut sketch = QuantileSketch::new();
        for ns in [10_000, 20_000, 30_000] {
            sketch.record(ns);
        }
        PerfReport {
            frames: 1,
            budgets,
            sweep: None,
            decision_tick: Some(DecisionTick::from_sketch(sketch)),
            fleet: Some(FleetThroughput {
                devices: 1000,
                sim_ms_per_device: 31,
                streaming_wall_secs: 10.0,
            }),
        }
    }

    fn synthetic(ns_of: impl Fn(usize, usize) -> f64) -> String {
        synthetic_report(ns_of).to_json()
    }

    #[test]
    fn self_comparison_is_unit_speedup_and_passes_the_regression_gate() {
        let doc = synthetic(|_, _| 100.0);
        let cmp = check(&doc, &doc).expect("self compare must pass the regression gate");
        assert_eq!(cmp.pairs.len(), PAPER_BUDGETS.len());
        for pair in &cmp.pairs {
            assert_eq!(pair.baseline, pair.new);
        }
    }

    #[test]
    fn every_baseline_gates_full_change_regressions_only() {
        for marker in [
            perf::MARKER,
            perf::MARKER_PR7,
            perf::MARKER_PR6,
            perf::MARKER_PR5,
            perf::MARKER_PR3,
        ] {
            let baseline = synthetic(|_, _| 1000.0).replace(perf::MARKER, marker);
            // Unchanged full_change passes — no speedup is owed…
            check(&synthetic(|_, _| 1000.0), &baseline)
                .unwrap_or_else(|e| panic!("{marker}: equal timings must pass: {e}"));
            // …but a real slowdown is a regression.
            let slow = synthetic(|_, case| if case == 2 { 2000.0 } else { 1000.0 });
            let err = check(&slow, &baseline).unwrap_err();
            assert!(
                err.contains("full_change"),
                "{marker}: wrong violation: {err}"
            );
            assert!(
                err.contains("regressed"),
                "{marker}: wrong violation: {err}"
            );
        }
    }

    #[test]
    fn tick_stats_are_recomputed_from_embedded_sketches() {
        let doc = synthetic(|_, _| 100.0);
        let cmp = compare(&doc, &doc).expect("self compare parses");
        let (baseline, new) = cmp.ticks.expect("both reports embed tick sketches");
        assert_eq!(baseline, new);
        assert_eq!(baseline.ticks, 3);
        // p50 of {10, 20, 30} µs resolves to ~20 µs within sketch error.
        assert!(
            (baseline.p50_us - 20.0).abs() <= 20.0 * 0.04,
            "p50 {} µs",
            baseline.p50_us
        );
        assert!(cmp.to_string().contains("decision tick"), "delta line missing");

        // A baseline predating the tick sketch yields no delta.
        let mut old = synthetic_report(|_, _| 100.0);
        old.decision_tick = None;
        let old = old.to_json().replace(perf::MARKER, perf::MARKER_PR6);
        let cmp = compare(&doc, &old).expect("pre-PR 7 baseline parses");
        assert!(cmp.ticks.is_none());
        assert!(!cmp.to_string().contains("decision tick"));
    }

    #[test]
    fn halved_full_change_passes_the_gate() {
        let baseline = synthetic(|_, _| 1000.0);
        // 2.5x faster on full_change, slightly faster elsewhere.
        let new = synthetic(|_, case| if case == 2 { 400.0 } else { 900.0 });
        let cmp = check(&new, &baseline).expect("a 2.5x speedup must pass");
        let top = cmp.pairs.last().unwrap();
        assert_eq!(top.new.full_change_ns, 400.0);
    }

    #[test]
    fn small_damage_regression_fails_the_gate() {
        let baseline = synthetic(|_, _| 1000.0);
        let new = synthetic(|_, case| match case {
            2 => 100.0,   // huge full_change win…
            1 => 2000.0,  // …but small_damage doubled
            _ => 1000.0,
        });
        let err = check(&new, &baseline).unwrap_err();
        assert!(err.contains("small_damage"), "wrong violation: {err}");
    }

    #[test]
    fn regression_margin_absorbs_noise() {
        let baseline = synthetic(|_, _| 1000.0);
        let new = synthetic(|_, case| if case == 2 { 400.0 } else { 1200.0 });
        check(&new, &baseline).expect("a 1.2x wobble is within the margin");
    }

    #[test]
    fn noise_floor_absorbs_sub_microsecond_jitter() {
        // 150 ns → 450 ns is a 3x ratio but only 300 ns of drift — pure
        // scheduler noise at this scale, inside the absolute floor.
        let baseline = synthetic(|_, _| 150.0);
        let new = synthetic(|_, case| if case == 2 { 60.0 } else { 450.0 });
        check(&new, &baseline).expect("sub-floor drift must not fail the gate");
        // The same ratio above the floor is a real regression.
        let slow = synthetic(|_, case| if case == 2 { 60.0 } else { 900.0 });
        let err = check(&slow, &baseline).unwrap_err();
        assert!(err.contains("regressed"), "wrong violation: {err}");
    }

    #[test]
    fn fleet_table_shows_the_streaming_rate_only() {
        // The fleet table's one row, split into its cells.
        fn fleet_row(cmp: &Comparison) -> Vec<String> {
            let rendered = cmp.to_string();
            assert!(
                rendered.contains("fleet dispatch"),
                "no fleet table: {rendered}"
            );
            assert!(
                !rendered.contains("materialized"),
                "retired path: {rendered}"
            );
            let row = rendered.lines().find(|l| l.starts_with("streaming"));
            row.expect("streaming row")
                .split_whitespace()
                .map(String::from)
                .collect()
        }

        // 1000 devices in 10 s on both sides: path, baseline dev/s, new
        // dev/s, new wall seconds.
        let good = synthetic(|_, _| 100.0);
        let cmp = check(&good, &good).expect("self compare must pass");
        assert!(cmp.fleet.0.is_some() && cmp.fleet.1.is_some());
        assert_eq!(fleet_row(&cmp), ["streaming", "100", "100", "10.000"]);

        // Fleet throughput is reported, not gated: a slower fleet passes
        // when every metering case does.
        let mut slower = synthetic_report(|_, _| 100.0);
        slower.fleet = Some(FleetThroughput {
            devices: 1000,
            sim_ms_per_device: 31,
            streaming_wall_secs: 40.0,
        });
        let cmp = check(&slower.to_json(), &good).expect("fleet throughput is not gated");
        assert_eq!(fleet_row(&cmp), ["streaming", "100", "25", "40.000"]);

        // A pre-PR 8 baseline has no fleet member; its column shows "-".
        let mut old = synthetic_report(|_, _| 100.0);
        old.fleet = None;
        let old = old.to_json().replace(perf::MARKER, perf::MARKER_PR7);
        let cmp = check(&good, &old).expect("fleet-less baseline must still pass");
        assert!(cmp.fleet.0.is_none() && cmp.fleet.1.is_some());
        assert_eq!(fleet_row(&cmp), ["streaming", "-", "100", "10.000"]);
    }

    #[test]
    fn malformed_documents_are_rejected() {
        let good = synthetic(|_, _| 100.0);
        assert!(compare(&good, "{not json").is_err());
        assert!(compare("{}", &good).is_err());
    }

    #[test]
    fn display_renders_every_budget_and_case() {
        let doc = synthetic(|bi, ci| (bi * 4 + ci + 1) as f64);
        let rendered = compare(&doc, &doc).unwrap().to_string();
        assert!(rendered.contains("921600"));
        assert!(rendered.contains("naive_redundant"));
        assert!(rendered.contains("1.00x"));
    }
}
