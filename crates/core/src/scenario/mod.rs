//! Scenario suites: named (workload, platform) pairs for cross-workload
//! robust exploration.
//!
//! The paper explores allocator configurations against *one* application
//! at a time. A deployed allocator, though, must hold up across every
//! workload and platform it will meet — the question is not "which
//! configuration is Pareto-optimal on Easyport" but "which configuration
//! stays on (or near) the front **everywhere**". This module adds that
//! missing layer:
//!
//! * [`Scenario`] — a named workload ([`WorkloadSpec`]: any trace
//!   generator + seed) paired with a platform ([`PlatformSpec`]: a
//!   memory-hierarchy preset), a weight, and optional admissibility
//!   [`ConstraintSet`];
//! * [`ScenarioSuite`] (in [`suite`]) — a registry of scenarios with
//!   ≥ 6 built-ins spanning bursty networking, phase-structured decoding,
//!   Markov-modulated load, mid-run distribution shifts, scratchpad-rich
//!   and DRAM-only platforms;
//! * [`Aggregate`] (in [`aggregate`]) — worst-case / mean / weighted
//!   folding of per-scenario metrics into robust objective vectors;
//! * [`MultiScenarioEvaluator`] (in [`robust`]) — runs any
//!   [`SearchStrategy`](crate::search::SearchStrategy) with every genome
//!   evaluated on the whole suite in parallel (memoized once per
//!   genome, with one result per scenario), and reports the robust
//!   front, per-scenario fronts, and the commonality between them.
//!
//! # Example
//!
//! ```
//! use dmx_core::scenario::{Aggregate, MultiScenarioEvaluator, ScenarioSuite};
//! use dmx_core::search::SubsampleSearch;
//!
//! let suite = ScenarioSuite::builtin("quick").expect("built-in suite");
//! let robust = MultiScenarioEvaluator::new(&suite)
//!     .with_aggregate(Aggregate::WorstCase)
//!     .run(&SubsampleSearch { n: 8, seed: 1 });
//! assert_eq!(robust.scenarios.len(), suite.scenarios.len());
//! assert!(!robust.outcome.front.is_empty());
//! ```

pub mod aggregate;
pub mod robust;
pub mod suite;

pub use aggregate::{aggregate_metrics, Aggregate, ScenarioMetrics};
pub use robust::{CommonalityReport, CommonalityRow, MultiScenarioEvaluator, RobustOutcome};
pub use suite::ScenarioSuite;

use std::sync::Arc;

use dmx_memhier::MemoryHierarchy;
use dmx_trace::gen::{
    EasyportConfig, MmppConfig, PhaseShiftConfig, ServerMixConfig, SyntheticConfig, TraceGenerator,
    VtcConfig,
};
use dmx_trace::{CompiledTrace, Trace};

use crate::constraint::ConstraintSet;

/// A workload: one of the deterministic trace generators plus its
/// configuration. The scenario's seed (xor'd with the run seed) drives
/// generation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum WorkloadSpec {
    /// Bursty packet processing (wireless network, paper case study 1).
    Easyport(EasyportConfig),
    /// Phase-structured still-texture decoding (paper case study 2).
    Vtc(VtcConfig),
    /// Markov-modulated ON/OFF allocation bursts.
    Mmpp(MmppConfig),
    /// Configurable synthetic size/lifetime mixture.
    Synthetic(SyntheticConfig),
    /// Synthetic phases concatenated — the mixture shifts mid-run.
    PhaseShift(PhaseShiftConfig),
    /// Threaded server traffic: request/connection pools, diurnal +
    /// flash-crowd load, cross-thread response frees.
    ServerMix(ServerMixConfig),
}

impl WorkloadSpec {
    /// Generates the workload trace (deterministic in `seed`).
    pub fn generate(&self, seed: u64) -> Trace {
        match self {
            WorkloadSpec::Easyport(cfg) => cfg.generate(seed),
            WorkloadSpec::Vtc(cfg) => cfg.generate(seed),
            WorkloadSpec::Mmpp(cfg) => cfg.generate(seed),
            WorkloadSpec::Synthetic(cfg) => cfg.generate(seed),
            WorkloadSpec::PhaseShift(cfg) => cfg.generate(seed),
            WorkloadSpec::ServerMix(cfg) => cfg.generate(seed),
        }
    }

    /// Short generator-kind tag for listings.
    pub fn kind(&self) -> &'static str {
        match self {
            WorkloadSpec::Easyport(_) => "easyport",
            WorkloadSpec::Vtc(_) => "vtc",
            WorkloadSpec::Mmpp(_) => "mmpp",
            WorkloadSpec::Synthetic(_) => "synthetic",
            WorkloadSpec::PhaseShift(_) => "phase-shift",
            WorkloadSpec::ServerMix(_) => "server-mix",
        }
    }
}

/// A platform: one of the ready-made memory-hierarchy presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum PlatformSpec {
    /// 64 KB scratchpad + 4 MB DRAM (the paper's platform).
    Sp64kDram4m,
    /// 32 KB scratchpad + 256 KB SRAM + 8 MB DRAM.
    Sp32kSram256kDram8m,
    /// 256 KB scratchpad + 4 MB DRAM (scratchpad-rich).
    Sp256kDram4m,
    /// 4 MB DRAM only (placement degenerates).
    DramOnly4m,
}

impl PlatformSpec {
    /// Builds the hierarchy.
    pub fn build(&self) -> MemoryHierarchy {
        match self {
            PlatformSpec::Sp64kDram4m => dmx_memhier::presets::sp64k_dram4m(),
            PlatformSpec::Sp32kSram256kDram8m => dmx_memhier::presets::sp32k_sram256k_dram8m(),
            PlatformSpec::Sp256kDram4m => dmx_memhier::presets::sp256k_dram4m(),
            PlatformSpec::DramOnly4m => dmx_memhier::presets::dram_only_4m(),
        }
    }

    /// Preset name for listings.
    pub fn name(&self) -> &'static str {
        match self {
            PlatformSpec::Sp64kDram4m => "sp64k+dram4m",
            PlatformSpec::Sp32kSram256kDram8m => "sp32k+sram256k+dram8m",
            PlatformSpec::Sp256kDram4m => "sp256k+dram4m",
            PlatformSpec::DramOnly4m => "dram4m-only",
        }
    }
}

/// One named (workload, platform) pair of a suite.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Unique name within its suite.
    pub name: String,
    /// The workload generator configuration.
    pub workload: WorkloadSpec,
    /// Scenario-local seed, xor'd with the run seed at materialization.
    pub seed: u64,
    /// The platform the workload runs on.
    pub platform: PlatformSpec,
    /// Weight under [`Aggregate::Weighted`] folding (> 0).
    pub weight: f64,
    /// Admissibility constraints; configurations rejected here count as
    /// infeasible *in this scenario* when folding robust metrics.
    pub constraints: ConstraintSet,
}

impl Scenario {
    /// A scenario with weight 1 and no constraints.
    pub fn new(
        name: impl Into<String>,
        workload: WorkloadSpec,
        seed: u64,
        platform: PlatformSpec,
    ) -> Self {
        Scenario {
            name: name.into(),
            workload,
            seed,
            platform,
            weight: 1.0,
            constraints: ConstraintSet::new(),
        }
    }

    /// Builds the platform and generates the trace for one run.
    /// Deterministic in `run_seed`.
    pub fn materialize(&self, run_seed: u64) -> MaterializedScenario<'_> {
        let hierarchy = self.platform.build();
        let trace = self.workload.generate(self.seed ^ run_seed);
        let compiled = CompiledTrace::compile_shared(&trace);
        MaterializedScenario {
            scenario: self,
            hierarchy,
            trace,
            compiled,
        }
    }
}

/// A scenario with its platform built and trace generated — what the
/// evaluator actually consumes.
#[derive(Debug, Clone)]
pub struct MaterializedScenario<'a> {
    /// The defining scenario.
    pub scenario: &'a Scenario,
    /// The built platform.
    pub hierarchy: MemoryHierarchy,
    /// The generated workload trace (kept for profiling — space
    /// suggestion reads [`dmx_trace::TraceStats`] off it).
    pub trace: Trace,
    /// The compiled lowering the evaluation workers replay, shared with
    /// every worker behind the `Arc` (cloning a materialized scenario or
    /// building per-scenario [`EvalInstance`](crate::search::EvalInstance)s
    /// never copies the event stream).
    pub compiled: Arc<CompiledTrace>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_specs_generate_deterministically() {
        let specs = [
            WorkloadSpec::Easyport(EasyportConfig::small()),
            WorkloadSpec::Vtc(VtcConfig::small()),
            WorkloadSpec::Mmpp(MmppConfig::bursty(200)),
            WorkloadSpec::Synthetic(SyntheticConfig::bimodal(200)),
            WorkloadSpec::PhaseShift(PhaseShiftConfig::churn_to_frag(200)),
            WorkloadSpec::ServerMix(ServerMixConfig::small()),
        ];
        for spec in &specs {
            let a = spec.generate(3);
            let b = spec.generate(3);
            assert_eq!(a.events(), b.events(), "{} not deterministic", spec.kind());
            assert!(!a.is_empty());
        }
    }

    #[test]
    fn platforms_build() {
        for p in [
            PlatformSpec::Sp64kDram4m,
            PlatformSpec::Sp32kSram256kDram8m,
            PlatformSpec::Sp256kDram4m,
            PlatformSpec::DramOnly4m,
        ] {
            assert!(!p.build().is_empty(), "{} must build", p.name());
        }
    }

    #[test]
    fn materialization_mixes_run_seed() {
        let s = Scenario::new(
            "mix",
            WorkloadSpec::Synthetic(SyntheticConfig::uniform_churn(100)),
            7,
            PlatformSpec::Sp64kDram4m,
        );
        let a = s.materialize(0);
        let b = s.materialize(1);
        assert_ne!(a.trace.events(), b.trace.events());
        assert_eq!(
            a.trace.events(),
            s.materialize(0).trace.events(),
            "same run seed, same trace"
        );
    }
}
