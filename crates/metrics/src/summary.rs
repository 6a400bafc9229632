//! Per-application and per-class result summaries (Table 1).

use std::fmt;

use ccdem_simkit::stats::Summary;

/// The outcome of running one application under one policy, compared
/// against its fixed-60 Hz baseline run.
#[derive(Debug, Clone, PartialEq)]
pub struct AppRunSummary {
    /// Application name.
    pub app: String,
    /// `"general"` or `"game"` (the paper's Table 1 rows).
    pub class: String,
    /// Policy label.
    pub policy: String,
    /// Average device power of the fixed-60 Hz baseline run. (mW)
    pub baseline_power_mw: f64,
    /// Average device power under the policy. (mW)
    pub power_mw: f64,
    /// Mean displayed content rate. (fps)
    pub displayed_content_fps: f64,
    /// Mean actual (intended) content rate. (fps)
    pub actual_content_fps: f64,
    /// Mean dropped content frames per second. (fps)
    pub dropped_fps: f64,
    /// Display quality. [%]
    pub quality_pct: f64,
}

impl AppRunSummary {
    /// Absolute power saved versus the baseline. (mW)
    pub fn saved_mw(&self) -> f64 {
        self.baseline_power_mw - self.power_mw
    }

    /// Power saved as a percentage of the baseline, the paper's Table 1
    /// unit. Zero if the baseline is zero.
    pub fn saved_pct(&self) -> f64 {
        if self.baseline_power_mw <= 0.0 {
            0.0
        } else {
            self.saved_mw() / self.baseline_power_mw * 100.0
        }
    }
}

impl fmt::Display for AppRunSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<16} [{}] {:>7.1} mW saved ({:>5.2}%), quality {:>5.1}%, dropped {:>4.1} fps",
            self.app,
            self.policy,
            self.saved_mw(),
            self.saved_pct(),
            self.quality_pct,
            self.dropped_fps,
        )
    }
}

/// Mean ± std aggregates over one application class under one policy —
/// one row of the paper's Table 1.
#[derive(Debug, Clone, PartialEq)]
pub struct ClassAggregate {
    /// `"general"` or `"game"`.
    pub class: String,
    /// Policy label.
    pub policy: String,
    /// Saved power (% of baseline) across apps.
    pub saved_pct: Summary,
    /// Saved power (mW) across apps.
    pub saved_mw: Summary,
    /// Display quality (%) across apps.
    pub quality_pct: Summary,
    /// Dropped frames per second across apps.
    pub dropped_fps: Summary,
}

impl ClassAggregate {
    /// Aggregates the given runs. Runs whose class or policy differ from
    /// `class`/`policy` are ignored, so callers can pass the full result
    /// set.
    pub fn of(runs: &[AppRunSummary], class: &str, policy: &str) -> ClassAggregate {
        let selected: Vec<&AppRunSummary> = runs
            .iter()
            .filter(|r| r.class == class && r.policy == policy)
            .collect();
        let col = |f: &dyn Fn(&AppRunSummary) -> f64| -> Summary {
            Summary::of(&selected.iter().map(|r| f(r)).collect::<Vec<_>>())
        };
        ClassAggregate {
            class: class.to_string(),
            policy: policy.to_string(),
            saved_pct: col(&AppRunSummary::saved_pct),
            saved_mw: col(&AppRunSummary::saved_mw),
            quality_pct: col(&|r| r.quality_pct),
            dropped_fps: col(&|r| r.dropped_fps),
        }
    }
}

impl fmt::Display for ClassAggregate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<8} {:<40} saved {:>5.2}% (±{:.2}), quality {:>5.1}% (±{:.1})",
            self.class,
            self.policy,
            self.saved_pct.mean,
            self.saved_pct.std_dev,
            self.quality_pct.mean,
            self.quality_pct.std_dev,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(
        app: &str,
        class: &str,
        policy: &str,
        baseline: f64,
        power: f64,
        q: f64,
    ) -> AppRunSummary {
        AppRunSummary {
            app: app.into(),
            class: class.into(),
            policy: policy.into(),
            baseline_power_mw: baseline,
            power_mw: power,
            displayed_content_fps: 20.0,
            actual_content_fps: 22.0,
            dropped_fps: 2.0,
            quality_pct: q,
        }
    }

    #[test]
    fn saved_metrics() {
        let r = run("A", "general", "p", 1000.0, 850.0, 95.0);
        assert_eq!(r.saved_mw(), 150.0);
        assert_eq!(r.saved_pct(), 15.0);
    }

    #[test]
    fn zero_baseline_saves_zero_pct() {
        let r = run("A", "general", "p", 0.0, 0.0, 100.0);
        assert_eq!(r.saved_pct(), 0.0);
    }

    #[test]
    fn aggregate_filters_class_and_policy() {
        let runs = vec![
            run("A", "general", "p", 1000.0, 900.0, 90.0),
            run("B", "general", "p", 1000.0, 800.0, 80.0),
            run("C", "game", "p", 1000.0, 500.0, 70.0),
            run("A", "general", "q", 1000.0, 999.0, 99.0),
        ];
        let agg = ClassAggregate::of(&runs, "general", "p");
        assert_eq!(agg.saved_pct.count, 2);
        assert!((agg.saved_pct.mean - 15.0).abs() < 1e-9);
        assert!((agg.quality_pct.mean - 85.0).abs() < 1e-9);
    }

    #[test]
    fn aggregate_of_empty_selection_is_zeroed() {
        let agg = ClassAggregate::of(&[], "general", "p");
        assert_eq!(agg.saved_pct.count, 0);
        assert_eq!(agg.saved_pct.mean, 0.0);
    }

    #[test]
    fn display_formats_contain_key_numbers() {
        let r = run("Facebook", "general", "section", 1000.0, 850.0, 95.5);
        let s = r.to_string();
        assert!(s.contains("Facebook"));
        assert!(s.contains("150.0 mW"));
        let agg = ClassAggregate::of(&[r], "general", "section");
        assert!(agg.to_string().contains("15.00%"));
    }
}
