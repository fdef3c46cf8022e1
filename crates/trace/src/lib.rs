//! # dmx-trace — dynamic-memory allocation traces and workload generators
//!
//! The exploration tool of the DATE 2006 paper replays the *allocation
//! behaviour* of an application (Infineon Easyport, MPEG-4 VTC) against
//! thousands of candidate allocator configurations. This crate provides that
//! workload substrate:
//!
//! * [`TraceEvent`] / [`Trace`] — a validated sequence of
//!   allocate / free / access / compute-tick events;
//! * [`CompiledTrace`] — the replay-optimized lowering (dense recycled
//!   block slots, baked-in sizes, hoisted access totals) the simulation
//!   kernel consumes; built once per workload and `Arc`-shared;
//! * [`TraceStats`] — profiled statistics (dominant block sizes, peak live
//!   footprint, lifetimes) that seed the exploration's parameter space;
//! * [`textfmt`] / [`binfmt`] — line-oriented and compact binary
//!   serialization, both round-trip safe;
//! * [`gen`] — deterministic workload generators: an Easyport-like wireless
//!   packet workload, an MPEG-4 VTC-like still-texture-decoding workload,
//!   and configurable synthetic mixtures. Real traces from the paper are
//!   proprietary; the generators reproduce the distributional properties
//!   the paper reports (see `DESIGN.md` §2).
//!
//!
//! **Paper mapping:** the §2 workloads — the Easyport generator behind
//! Figure 1 / Table 2 and the MPEG-4 VTC generator behind Table 3 — plus
//! the synthetic mixtures the ablation (`tab6_ablation`) sweeps.
//!
//! # Example
//!
//! ```
//! use dmx_trace::gen::{EasyportConfig, TraceGenerator};
//! use dmx_trace::TraceStats;
//!
//! let trace = EasyportConfig::small().generate(42);
//! let stats = TraceStats::compute(&trace);
//! // The wireless workload is dominated by a few hot block sizes
//! // (the paper names 74-byte and 1500-byte blocks).
//! let hot = stats.dominant_sizes(4);
//! assert!(hot.contains(&74));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binfmt;
mod compiled;
mod error;
mod event;
pub mod gen;
pub mod ops;
mod stats;
pub mod textfmt;
mod trace;

pub use compiled::CompiledTrace;
pub use error::{CompileError, ParseError, TraceError};
pub use event::{BlockId, ThreadId, TraceEvent};
pub use stats::{SizeStat, TraceStats};
pub use trace::Trace;
