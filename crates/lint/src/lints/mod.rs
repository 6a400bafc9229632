//! The lint families.

pub mod alloc_hot_path;
pub mod arith_cast;
pub mod atomics_ordering;
pub mod determinism;
pub mod panic;
pub mod taxonomy;
