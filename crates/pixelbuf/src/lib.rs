//! # ccdem-pixelbuf
//!
//! Framebuffers and pixel machinery for the `ccdem` display-energy
//! simulator:
//!
//! * [`pixel`] — RGBA pixels and pixel formats.
//! * [`geometry`] — resolutions and rectangles.
//! * [`buffer`] — the software framebuffer with write- and
//!   content-generation counters.
//! * [`damage`] — damage regions: which pixels the draw ops may have
//!   changed, consumed by the meter's damage-restricted fast path.
//! * [`grid`] — grid-based sparse comparison (paper §3.1, "grid-based
//!   comparison"), including the exact Galaxy S3 grid configurations of
//!   Fig. 6: the tile-gated production gather and the scalar oracle it
//!   is tested against.
//! * [`tile`] — per-tile content signatures maintained by the draw ops,
//!   letting the meter skip or constant-compare whole tiles without
//!   reading framebuffer pixels.
//! * [`pool`] — recycled pixel storage, the allocation-free steady state
//!   of repeated scenario runs.
//! * [`diff`] — exhaustive ground-truth comparison.
//! * [`draw`] — drawing primitives for the synthetic workloads.
//!
//! # Examples
//!
//! Detecting a redundant frame with a sparse grid, exactly as the paper's
//! meter does:
//!
//! ```
//! use ccdem_pixelbuf::buffer::FrameBuffer;
//! use ccdem_pixelbuf::damage::DamageRegion;
//! use ccdem_pixelbuf::geometry::Resolution;
//! use ccdem_pixelbuf::grid::GridSampler;
//! use ccdem_pixelbuf::pixel::Pixel;
//!
//! let res = Resolution::GALAXY_S3;
//! let sampler = GridSampler::for_pixel_budget(res, 9216);
//! let everything = DamageRegion::of(res.bounds());
//! let mut fb = FrameBuffer::new(res);
//! let mut snapshot = sampler.sample(&fb);
//!
//! fb.touch(); // app re-submitted identical content
//! let step = sampler.reference_capture(&fb, &everything, &mut snapshot);
//! assert!(!step.differs); // redundant frame
//!
//! fb.fill(Pixel::WHITE); // real content change
//! let step = sampler.reference_capture(&fb, &everything, &mut snapshot);
//! assert!(step.differs); // meaningful frame
//! ```

pub mod buffer;
pub mod damage;
pub mod diff;
pub mod draw;
pub mod geometry;
pub mod grid;
pub mod pixel;
pub mod pool;
pub mod tile;

pub use buffer::FrameBuffer;
pub use damage::DamageRegion;
pub use geometry::{Rect, Resolution};
pub use grid::GridSampler;
pub use pixel::{Pixel, PixelFormat};
pub use pool::PixelPool;
pub use tile::{Tile, TileMap, TILE_SIZE};
