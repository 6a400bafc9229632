//! # ccdem-panel
//!
//! The display-hardware model for the `ccdem` simulator:
//!
//! * [`refresh`] — refresh rates and the discrete rate sets panels expose.
//! * [`device`] — device profiles (Galaxy S3 and generalization targets).
//! * [`vsync`] — V-Sync edge generation, including rate-change semantics.
//! * [`controller`] — runtime refresh-rate switching with driver latency
//!   (the paper's kernel modification).
//! * [`panel`] — scanout bookkeeping: every refresh costs energy, whether
//!   or not the framebuffer changed.
//!
//! # Examples
//!
//! ```
//! use ccdem_panel::controller::RefreshController;
//! use ccdem_panel::device::DeviceProfile;
//! use ccdem_panel::refresh::RefreshRate;
//! use ccdem_panel::vsync::VsyncScheduler;
//! use ccdem_simkit::time::SimTime;
//!
//! let device = DeviceProfile::galaxy_s3();
//! let mut ctl = RefreshController::new(
//!     device.rates().clone(),
//!     device.rates().max(),
//!     device.rate_switch_latency(),
//! );
//! let mut vsync = VsyncScheduler::new(ctl.current(), SimTime::ZERO);
//!
//! // Drop to the panel floor; the change lands after the driver latency.
//! ctl.request(RefreshRate::HZ_20, SimTime::ZERO)?;
//! let edge = vsync.advance();
//! if let Some(rate) = ctl.poll(edge) {
//!     vsync.set_rate(rate);
//! }
//! assert_eq!(vsync.rate(), RefreshRate::HZ_20);
//! # Ok::<(), ccdem_panel::controller::SetRateError>(())
//! ```

pub mod controller;
pub mod device;
pub mod panel;
pub mod refresh;
pub mod vsync;

pub use controller::{RefreshController, SetRateError};
pub use device::{DeviceProfile, PanelKind};
pub use panel::Panel;
pub use refresh::{BuildRateSetError, RefreshRate, RefreshRateSet};
pub use vsync::VsyncScheduler;
