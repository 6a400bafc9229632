//! The command line both benchmark binaries share, and their result line.

use std::fmt::Write as _;

use crate::Bench;

/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Args {
    /// The workload to run.
    pub bench: Bench,
    /// The workload seed.
    pub seed: u64,
    /// How long the closed loop runs. (s)
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

impl Args {
    /// Parses the arguments after the program name.
    ///
    /// # Errors
    ///
    /// Describes the first missing, unknown or malformed argument.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let (mut bench, mut seed, mut seconds, mut trace) = (None, None, None, false);
        let mut args = args.into_iter();
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    bench = Some(
                        Bench::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value:?}"))?,
                    )
                }
                "--seed" => {
                    seed = Some(
                        value
                            .parse()
                            .map_err(|e| format!("--seed {value:?}: {e}"))?,
                    )
                }
                "--seconds" => {
                    let s: f64 = value
                        .parse()
                        .map_err(|e| format!("--seconds {value:?}: {e}"))?;
                    if !(s.is_finite() && s > 0.0) {
                        return Err(format!("--seconds must be positive, got {value}"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                    }
                }
                _ => return Err(format!("unknown argument {flag:?}")),
            }
        }
        Ok(Args {
            bench: bench.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace,
        })
    }
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric called `name`.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit,
        }
    }
}

/// Prints `metrics` one per line by name and unit.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "{:<34} {:>18} {}",
            m.name,
            format!("{:.6}", m.value),
            m.unit
        );
    }
}

/// The result line: `{"correct", "attempted", "failed", "metrics"}`.
/// A non-finite value makes the result incorrect and is written as 0.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let finite = metrics.iter().all(|m| m.value.is_finite());
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{",
        correct && finite
    );
    for (i, m) in metrics.iter().enumerate() {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        let sep = if i == 0 { "" } else { ", " };
        // `{:?}` keeps every digit and always writes a decimal point.
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}
