//! # dmx-memhier — embedded memory-hierarchy model
//!
//! This crate models the *platform side* of the exploration tool from
//! "Automated Exploration of Pareto-optimal Configurations in Parameterized
//! Dynamic Memory Allocation for Embedded Systems" (DATE 2006): a small set
//! of on-chip/off-chip memory levels (e.g. a 64 KB L1 scratchpad and a 4 MB
//! main memory) onto which dynamic-memory allocator *pools* are mapped.
//!
//! It provides:
//!
//! * [`MemoryLevel`] / [`MemoryHierarchy`] — the platform description:
//!   capacity, per-access read/write energy, and access latency per level;
//! * [`CounterSet`] — per-level read/write access counters that the
//!   allocator simulator charges while replaying a trace;
//! * [`CostModel`] — turns access counters into the paper's derived metrics
//!   (energy in picojoules, access time in cycles);
//! * [`RegionTable`] — carves each level's address space into disjoint
//!   regions so every pool owns a placed, bounded address range.
//!
//!
//! **Paper mapping:** the §2 platform model (64 KB scratchpad + 4 MB
//! DRAM preset) whose per-level access counts become the energy and
//! execution-time columns of Tables 2–3.
//!
//! # Example
//!
//! ```
//! use dmx_memhier::{presets, CounterSet, CostModel, RegionTable};
//!
//! let hier = presets::sp64k_dram4m();
//! let sp = hier.id_by_name("L1-scratchpad").unwrap();
//!
//! // Reserve a 4 KB pool region on the scratchpad.
//! let mut regions = RegionTable::new(&hier);
//! let region = regions.reserve(sp, 4096)?;
//! assert_eq!(region.size, 4096);
//!
//! // Charge a few accesses and derive energy/time.
//! let mut counters = CounterSet::new(hier.len());
//! counters.record_reads(sp, 10);
//! counters.record_writes(sp, 5);
//! let cost = CostModel::new(&hier);
//! assert!(cost.energy_pj(&counters) > 0);
//! assert!(cost.access_cycles(&counters) > 0);
//! # Ok::<(), dmx_memhier::RegionError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cost;
mod counters;
mod error;
mod hierarchy;
mod level;
pub mod presets;
mod region;

pub use cost::{CostModel, CPU_CYCLES_PER_OP};
pub use counters::{AccessCounts, CounterSet};
pub use error::{HierarchyError, RegionError};
pub use hierarchy::{LevelChoice, LevelId, MemoryHierarchy};
pub use level::{LevelKind, MemoryLevel, MemoryLevelBuilder};
pub use region::{Region, RegionTable};
