//! The traced run of the ccdem benchmark: the same scenarios as the
//! end-to-end runner, re-driven from each layer's public functions with a
//! span around every call (see `engine`), aggregated per run and layer
//! (see `tracer`), with heap allocations counted by a std-only global
//! allocator (see `alloc`).

pub mod alloc;
pub mod engine;
pub mod tracer;
