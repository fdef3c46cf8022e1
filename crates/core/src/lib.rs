//! # dmx-core — automated exploration of Pareto-optimal DM allocators
//!
//! The primary contribution of the DATE 2006 paper, as a library: give it a
//! workload trace, a platform description and "the list of arrays with the
//! parameter values to be explored", and it
//!
//! 1. **enumerates** every allocator configuration in the parameter space
//!    ([`ParamSpace`], [`ConfigIter`]);
//! 2. **simulates** the workload against each configuration in parallel,
//!    collecting memory accesses, footprint, energy and execution time per
//!    memory level ([`Explorer`], [`Exploration`]) — either exhaustively
//!    or through a guided [`search`] strategy (genetic or subsampling)
//!    that recovers the front at a fraction of the evaluations;
//! 3. **selects the Pareto-optimal configurations** over any choice of
//!    metrics ([`pareto_front`], [`ParetoSet`]);
//! 4. **reports** the trade-off space the way the paper does: range
//!    factors over the full space, the Pareto curve, and within-Pareto
//!    improvement factors ([`StudySummary`]), plus CSV / Gnuplot exports
//!    ([`export`]);
//! 5. **checks robustness** across whole [`scenario`] suites — many
//!    workloads × platforms at once, folded through worst-case / mean /
//!    weighted aggregation into robust fronts plus per-scenario fronts
//!    and a commonality report ([`MultiScenarioEvaluator`]).
//!
//! The two case studies of the paper are packaged in [`study`]:
//! [`study::easyport_study`] (wireless network) and [`study::vtc_study`]
//! (MPEG-4 still-texture decoding).
//!
//! # Example
//!
//! ```
//! use dmx_core::{Explorer, Objective, ParamSpace};
//! use dmx_memhier::presets;
//! use dmx_trace::gen::{EasyportConfig, TraceGenerator};
//! use dmx_trace::TraceStats;
//!
//! let hier = presets::sp64k_dram4m();
//! let trace = EasyportConfig::small().generate(7);
//!
//! // Derive a parameter space from the profiled workload, then shrink it
//! // for this doc test.
//! let stats = TraceStats::compute(&trace);
//! let mut space = ParamSpace::suggest(&stats, &hier);
//! space.fits.truncate(1);
//! space.orders.truncate(1);
//!
//! let exploration = Explorer::new(&hier).run(&space, &trace);
//! let pareto = exploration.pareto(&[Objective::Footprint, Objective::Accesses]);
//! assert!(!pareto.indices.is_empty());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod constraint;
mod enumerate;
pub mod export;
mod objective;
mod param;
mod pareto;
mod report;
mod runner;
mod sample;
pub mod scenario;
pub mod search;
pub mod space;
pub mod study;

pub use compare::{Comparison, ComparisonRow};
pub use constraint::{Constraint, ConstraintSet};
pub use enumerate::ConfigIter;
pub use objective::Objective;
pub use param::{Genome, ParamSpace, PlacementStrategy};
pub use pareto::{dominates, knee_point, pareto_front, range_factor, ParetoSet};
pub use report::StudySummary;
pub use runner::{Exploration, Explorer, RunResult};
pub use sample::{front_coverage_pct, hypervolume_2d};
pub use scenario::{
    Aggregate, CommonalityReport, MultiScenarioEvaluator, RobustOutcome, Scenario, ScenarioSuite,
};
pub use search::{
    thread_budget, ExhaustiveSearch, FidelityPlan, FidelityStats, GeneticSearch, PrunedConfig,
    RungStats, SearchOutcome, SearchStrategy, SimStats, StrategyError, SubsampleSearch,
};
pub use space::{GenomeSpace, GrammarSpace};
