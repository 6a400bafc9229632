//! # ccdem-experiments
//!
//! The evaluation harness: reproduces every figure and table of the DAC
//! 2014 paper on the simulated display stack.
//!
//! | module | reproduces |
//! |---|---|
//! | [`scenario`] | the full-stack runner every experiment builds on |
//! | [`fig2`] | Fig. 2 — frame-rate traces (Facebook, Jelly Splash) |
//! | [`fig3`] | Fig. 3 — meaningful vs redundant rates, 30 apps |
//! | [`fig6`] | Fig. 6 — metering accuracy & cost vs sampled pixels |
//! | [`fig7`] | Fig. 7 — content/refresh-rate traces under control |
//! | [`fig8`] | Fig. 8 — saved-power traces (Facebook, Jelly Splash) |
//! | [`sweep`] | Figs. 9–11 and Table 1 — the 30-app × policy sweep |
//! | [`fleet`] | population-scale device campaigns with checkpoint/resume |
//! | [`campaign`] | streaming campaign statistics and the shared batch dispatch |
//! | [`profile`] | the engine's probe hooks and the layer profiler behind `ccdem profile` |
//! | [`ablation`] | design-knob sweeps beyond the paper |
//! | [`generalize`] | the section table on 90/120 Hz rate ladders |
//! | [`certificate`] | all headline claims, re-derived and checked mechanically |
//!
//! Each module exposes a `run(...)` returning a plain data struct with a
//! `Display` impl that prints the paper-style table, so the binary in
//! `examples/paper_report.rs` is a thin dispatcher. [`export`] writes any
//! run's time series or a batch of summaries as CSV.

pub mod ablation;
pub mod campaign;
pub mod certificate;
pub mod export;
pub mod fig2;
pub mod fig3;
pub mod fig6;
pub mod fig7;
pub mod fig8;
pub mod fleet;
pub mod generalize;
pub mod profile;
pub mod scenario;
pub mod sweep;

pub use scenario::{scaled_budget, RunResult, Scenario, Workload};
