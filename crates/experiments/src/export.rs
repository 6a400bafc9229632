//! CSV export of run results.
//!
//! Every per-second series of a [`crate::scenario::RunResult`]
//! can be written as one CSV for plotting in any external tool (the
//! paper's figures are time-series and bar charts; these files carry the
//! same columns).

use std::io::{self, Write};

use crate::scenario::RunResult;

/// Writes the per-second time series of `run` as CSV to `out`.
///
/// Columns: `second, power_mw, refresh_hz, frame_rate_fps,
/// actual_content_fps, displayed_content_fps, measured_content_fps,
/// submissions_fps`.
///
/// # Errors
///
/// Propagates any I/O error from `out`. A mutable reference to a writer
/// can be passed (`&mut Vec<u8>`, `&mut File`, …).
///
/// # Examples
///
/// ```
/// use ccdem_core::governor::Policy;
/// use ccdem_experiments::export::write_timeseries_csv;
/// use ccdem_experiments::{Scenario, Workload};
/// use ccdem_simkit::time::SimDuration;
/// use ccdem_workloads::catalog;
///
/// # fn main() -> std::io::Result<()> {
/// let run = Scenario::new(Workload::App(catalog::facebook()), Policy::SectionOnly)
///     .at_quarter_resolution()
///     .with_duration(SimDuration::from_secs(3))
///     .run();
/// let mut csv = Vec::new();
/// write_timeseries_csv(&run, &mut csv)?;
/// let text = String::from_utf8(csv).expect("CSV is UTF-8");
/// assert!(text.starts_with("second,power_mw,refresh_hz"));
/// assert_eq!(text.lines().count(), 4); // header + 3 seconds
/// # Ok(())
/// # }
/// ```
pub fn write_timeseries_csv<W: Write>(run: &RunResult, mut out: W) -> io::Result<()> {
    writeln!(
        out,
        "second,power_mw,refresh_hz,frame_rate_fps,actual_content_fps,\
         displayed_content_fps,measured_content_fps,submissions_fps"
    )?;
    let refresh = run.refresh_trace.per_second(run.duration);
    let secs = run.power_per_second.len();
    for sec in 0..secs {
        let col = |v: &Vec<f64>| v.get(sec).copied().unwrap_or(0.0);
        writeln!(
            out,
            "{sec},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3},{:.3}",
            col(&run.power_per_second),
            refresh.get(sec).copied().unwrap_or(0.0),
            col(&run.frame_rate_per_second),
            col(&run.actual_content_per_second),
            col(&run.displayed_content_per_second),
            col(&run.measured_content_per_second),
            col(&run.submissions_per_second),
        )?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Scenario, Workload};
    use ccdem_core::governor::Policy;
    use ccdem_simkit::time::SimDuration;
    use ccdem_workloads::catalog;

    fn run() -> RunResult {
        Scenario::new(Workload::App(catalog::facebook()), Policy::SectionOnly)
            .at_quarter_resolution()
            .with_duration(SimDuration::from_secs(5))
            .with_seed(3)
            .run()
    }

    #[test]
    fn timeseries_has_one_row_per_second_plus_header() {
        let r = run();
        let mut buf = Vec::new();
        write_timeseries_csv(&r, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 6);
        // Every data row has 8 comma-separated fields.
        for line in text.lines().skip(1) {
            assert_eq!(line.split(',').count(), 8, "bad row: {line}");
        }
    }

    #[test]
    fn timeseries_numbers_match_run() {
        let r = run();
        let mut buf = Vec::new();
        write_timeseries_csv(&r, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let first_row: Vec<&str> = text.lines().nth(1).unwrap().split(',').collect();
        let power: f64 = first_row[1].parse().unwrap();
        assert!((power - r.power_per_second[0]).abs() < 1e-3);
    }
}
