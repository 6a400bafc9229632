//! # ccdem-core
//!
//! The primary contribution of *"Content-centric Display Energy Management
//! for Mobile Devices"* (Kim, Jung & Cha, DAC 2014), implemented as a
//! library:
//!
//! * [`content_rate`] — the **content rate** metric: meaningful (content-
//!   changing) frames per second, i.e. frame rate minus redundant frame
//!   rate.
//! * [`meter`] — low-cost runtime metering of the content rate via a
//!   grid snapshot compared point by point with the next frame (paper
//!   §3.1).
//! * [`section`] — the **section table** (Eq. 1) mapping a measured
//!   content rate to a panel refresh rate with headroom, plus the rejected
//!   naive rate-matching rule for ablation.
//! * [`boost`] — **touch boosting**: force the maximum rate on user input
//!   so quality survives sudden content-rate spikes.
//! * [`governor`] — the integrated governor combining all of the above
//!   behind a policy switch (fixed-60 baseline / naive / section-only /
//!   section + boost).
//!
//! The governor is deliberately I/O-free: the embedding feeds it
//! framebuffer updates and touch events and forwards its decisions to a
//! panel refresh controller. `ccdem-experiments` wires it into the full
//! simulated Android display stack.
//!
//! # Examples
//!
//! The full control loop in miniature:
//!
//! ```
//! use ccdem_core::governor::{Governor, GovernorConfig, Policy};
//! use ccdem_panel::refresh::{RefreshRate, RefreshRateSet};
//! use ccdem_pixelbuf::buffer::FrameBuffer;
//! use ccdem_pixelbuf::geometry::Resolution;
//! use ccdem_pixelbuf::pixel::Pixel;
//! use ccdem_simkit::time::{SimDuration, SimTime};
//!
//! let res = Resolution::new(72, 128);
//! let mut gov = Governor::new(
//!     RefreshRateSet::galaxy_s3(),
//!     res,
//!     GovernorConfig::new(Policy::SectionWithBoost),
//! );
//! let mut fb = FrameBuffer::new(res);
//!
//! // A game pushing ~32 meaningful fps for half a second…
//! for i in 0..16u64 {
//!     fb.fill(Pixel::grey(i as u8 + 1));
//!     gov.on_framebuffer_update(&fb, SimTime::from_micros(i * 31_250));
//! }
//! // …lands in the 27–35 fps section → 40 Hz.
//! assert_eq!(gov.decide(SimTime::from_millis(500)), RefreshRate::HZ_40);
//!
//! // A touch forces 60 Hz instantly.
//! assert_eq!(gov.on_touch(SimTime::from_millis(600)), Some(RefreshRate::HZ_60));
//! ```

pub mod boost;
pub mod content_rate;
pub mod governor;
pub mod hysteresis;
pub mod meter;
pub mod section;
pub mod smoothing;

pub use boost::TouchBooster;
pub use content_rate::ContentRate;
pub use governor::{Governor, GovernorConfig, Policy};
pub use meter::{measure_metering_cost, ContentRateMeter, FrameClass};
pub use hysteresis::SwitchDamper;
pub use section::{NaiveRateMapper, RateMapper, SectionTable};
pub use smoothing::EwmaFilter;
