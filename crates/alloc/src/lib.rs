//! # dmx-alloc — composable, parameterized dynamic-memory allocators
//!
//! This crate is the Rust counterpart of the paper's C++ template/mixin
//! allocator library ("more than 50 modules, which can be linked in any way
//! ... to create custom DM allocators"): a toolbox of allocator building
//! blocks that the exploration tool instantiates by the thousands.
//!
//! The allocators run over a *simulated* embedded platform
//! ([`dmx_memhier`]): every pool owns a placed region on one memory level,
//! and every metadata touch (free-list walk step, header update, bitmap
//! probe) is charged as a read/write at that level — exactly the accounting
//! the paper's profiling step performs on an instrumented platform.
//!
//! Building blocks:
//!
//! * **Pools** — [`pool::FixedBlockPool`] (dedicated, O(1)),
//!   [`pool::GeneralPool`] (parameterized free-list allocator),
//!   [`pool::SegregatedPool`] (size classes), [`pool::BuddyPool`],
//!   [`pool::RegionPool`] (arena);
//! * **Policies** — [`FitPolicy`], [`FreeOrder`], [`CoalescePolicy`],
//!   [`SplitPolicy`];
//! * **Configuration** — [`AllocatorConfig`] / [`PoolSpec`]: the flat
//!   parameter vector that one point of the exploration space denotes,
//!   and the one way to build an allocator;
//! * **Composition** — [`AllocatorConfig::build`] yields a
//!   [`CompositeAllocator`] that routes request sizes to pools (dedicated
//!   pools for hot sizes, a fallback general pool), each pool placed on
//!   its own memory level; pool `i` is `config.pools[i]`, and that index
//!   is the [`PoolId`] every allocation reports;
//! * **Simulation** — [`Simulator`] replays a [`dmx_trace::Trace`] (or,
//!   on the hot path, a pre-lowered [`dmx_trace::CompiledTrace`] through a
//!   reusable [`SimArena`]) and produces [`SimMetrics`]: per-level
//!   accesses, peak footprint, energy and execution time.
//!
//!
//! **Paper mapping:** the parameterized pool/policy library of §2 (the
//! "more than 50 modules"); per-op access costs are quantified by the
//! `tab5_allocator_ops` bench, and the simulator's metrics feed every
//! figure and table downstream.
//!
//! # Example
//!
//! ```
//! use dmx_alloc::{AllocatorConfig, Simulator};
//! use dmx_memhier::presets;
//! use dmx_trace::gen::{EasyportConfig, TraceGenerator};
//!
//! let hier = presets::sp64k_dram4m();
//! let trace = EasyportConfig::small().generate(7);
//!
//! // The paper's example: dedicated pool for 74-byte blocks on the
//! // scratchpad, dedicated 1500-byte pool and general pool in main memory.
//! let config = AllocatorConfig::paper_example(&hier);
//! let metrics = Simulator::new(&hier).run(&config, &trace)?;
//! assert!(metrics.counters.total_accesses() > 0);
//! assert_eq!(metrics.failures, 0);
//! # Ok::<(), dmx_alloc::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
mod composite;
mod config;
mod ctx;
mod error;
mod freelist;
mod freemap;
mod policy;
pub mod pool;
mod sim;

pub use block::BlockInfo;
pub use composite::{CompositeAllocator, PoolId};
pub use config::{AllocatorConfig, PoolKind, PoolSpec, Route};
pub use ctx::{AllocCtx, FootprintTracker};
pub use error::{AllocError, BuildError};
pub use freelist::FreeList;
pub use freemap::FreeMap;
pub use policy::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
pub use pool::{MetaFloor, PoolStats};
pub use sim::{ContentionParams, ReplayState, SimArena, SimMetrics, Simulator};
