//! # dmx — facade over the DATE 2006 allocator-exploration workspace
//!
//! This thin top-level crate exists to (a) host the repository's
//! cross-crate integration tests (`tests/`) and runnable examples
//! (`examples/`), and (b) re-export every member crate under one roof so
//! `cargo doc` presents the whole system in a single tree.
//!
//! The actual functionality lives in the member crates:
//!
//! * [`alloc`] — parameterized allocator building blocks and the simulator;
//! * [`memhier`] — the embedded memory-hierarchy (platform) model;
//! * [`trace`] — allocation traces and workload generators;
//! * [`profile`] — profiling-record format and its fast parser;
//! * [`core`] — parameter-space enumeration, exhaustive and guided
//!   exploration (genetic search and subsampling with a memoized
//!   evaluation cache), Pareto filtering and reporting.
//!
//! For the end-to-end picture — how a trace flows through profiling,
//! exploration, simulation and reporting, and where to extend the system —
//! see `docs/ARCHITECTURE.md` at the repository root.

pub use dmx_alloc as alloc;
pub use dmx_core as core;
pub use dmx_memhier as memhier;
pub use dmx_profile as profile;
pub use dmx_trace as trace;
