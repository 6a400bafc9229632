//! # ccdem-simkit
//!
//! Deterministic discrete-event simulation primitives for the `ccdem`
//! display-energy-management simulator: a microsecond simulation clock
//! ([`time`]), a FIFO-stable future-event queue ([`event`]), seeded and
//! forkable randomness ([`rng`]), streaming statistics and batch
//! quantiles ([`stats`]), time-series traces ([`trace`]) and a
//! deterministic worker pool for independent runs ([`parallel`]), whose
//! one dispatch loop (`ParallelRunner::run_batches`) hands item indices
//! to workers that fold results into per-worker accumulators without
//! ever materializing the full work list — the substrate for every
//! campaign, from a 30-app sweep to a million-device fleet.
//! Distributions that must stream or merge (telemetry, campaign
//! percentiles) live in `ccdem-obs`'s quantile sketch.
//!
//! Everything here is independent of the display domain; the display stack
//! (panel, compositor, workloads) is built on top of these primitives in the
//! sibling crates.
//!
//! # Examples
//!
//! ```
//! use ccdem_simkit::event::EventQueue;
//! use ccdem_simkit::time::{SimDuration, SimTime};
//!
//! // A tiny hand-rolled simulation loop: tick at 10 Hz for one second.
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO, ());
//! let mut ticks = 0;
//! while let Some((now, ())) = queue.pop() {
//!     ticks += 1;
//!     let next = now + SimDuration::from_hz(10);
//!     if next < SimTime::from_secs(1) {
//!         queue.schedule(next, ());
//!     }
//! }
//! assert_eq!(ticks, 10);
//! ```

pub mod event;
pub mod parallel;
pub mod rng;
pub mod stats;
pub mod time;
pub mod trace;

pub use event::EventQueue;
pub use parallel::{derive_seed, ParallelRunner};
pub use rng::SimRng;
pub use stats::{quantile, RunningStats, Summary};
pub use time::{SimDuration, SimTime};
pub use trace::{EventCounter, Trace};
