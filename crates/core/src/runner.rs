//! Exploration driver: simulate every configuration of a space against
//! one workload trace, or search it with a guided strategy. Both
//! evaluate through the search layer's [`crate::search::Evaluator`].

use dmx_alloc::{AllocatorConfig, SimMetrics};
use dmx_memhier::MemoryHierarchy;
use dmx_profile::ProfileRecord;
use dmx_trace::Trace;

use crate::objective::Objective;
use crate::pareto::{pareto_front, ParetoSet};
use crate::search::{
    unpruned_sweep, EvalInstance, FidelityPlan, SearchContext, SearchOutcome, SearchStrategy,
};
use crate::space::GenomeSpace;

/// One explored configuration with its measured metrics.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// The configuration that was simulated.
    pub config: AllocatorConfig,
    /// Its label (cached from [`AllocatorConfig::label`]).
    pub label: String,
    /// The measured metrics.
    pub metrics: SimMetrics,
}

/// The complete result of one exploration run.
#[derive(Debug, Clone)]
pub struct Exploration {
    /// Workload name (from the trace).
    pub workload: String,
    /// One result per simulated configuration, in genome order: for a
    /// sweep of the whole space that is enumeration order (see
    /// [`GenomeSpace::genome_at`]).
    pub results: Vec<RunResult>,
}

impl Exploration {
    /// Results whose configuration served every allocation.
    pub fn feasible(&self) -> Vec<&RunResult> {
        self.results
            .iter()
            .filter(|r| r.metrics.feasible())
            .collect()
    }

    /// Extracts `objectives` for every *feasible* result, with the indices
    /// (into `results`) they correspond to.
    pub fn objective_points(&self, objectives: &[Objective]) -> (Vec<usize>, Vec<Vec<u64>>) {
        let mut indices = Vec::new();
        let mut points = Vec::new();
        for (i, r) in self.results.iter().enumerate() {
            if r.metrics.feasible() {
                indices.push(i);
                points.push(objectives.iter().map(|o| o.extract(&r.metrics)).collect());
            }
        }
        (indices, points)
    }

    /// The Pareto-optimal subset over `objectives` (feasible results only).
    /// The returned set's `indices` refer to `self.results`.
    pub fn pareto(&self, objectives: &[Objective]) -> ParetoSet {
        let (indices, points) = self.objective_points(objectives);
        let front = pareto_front(&points);
        ParetoSet {
            indices: front.indices.iter().map(|&k| indices[k]).collect(),
            points: front.points,
        }
    }

    /// Converts every result into a profile record (for the
    /// `dmx-profile` pipeline and the CLI).
    pub fn to_records(&self) -> Vec<ProfileRecord> {
        self.results.iter().map(record_from_result).collect()
    }
}

/// Builds the profile record for one run result.
fn record_from_result(result: &RunResult) -> ProfileRecord {
    let m = &result.metrics;
    let mut rec = ProfileRecord::new(result.label.clone());
    rec.allocs = m.allocs;
    rec.frees = m.frees;
    rec.failures = m.failures;
    rec.footprint = m.footprint;
    rec.footprint_per_level = m.footprint_per_level.clone();
    rec.energy_pj = m.energy_pj;
    rec.cycles = m.cycles;
    rec.accesses = m
        .counters
        .iter()
        .map(|(_, c)| (c.reads, c.writes))
        .collect();
    rec.meta_accesses = m
        .meta_counters
        .iter()
        .map(|(_, c)| (c.reads, c.writes))
        .collect();
    rec
}

/// Runs explorations over one workload trace: every configuration of a
/// space, or the configurations a search strategy picks, simulated in
/// parallel through the search layer's evaluator.
#[derive(Debug, Clone, Copy)]
pub struct Explorer<'h> {
    hierarchy: &'h MemoryHierarchy,
    threads: usize,
    /// Multi-fidelity screening schedule for guided searches; `None`
    /// (the default) evaluates everything at full fidelity.
    fidelity: Option<FidelityPlan>,
}

impl<'h> Explorer<'h> {
    /// An explorer over `hierarchy` using the process thread budget: all
    /// available CPUs, or the `DMX_THREADS` override (see
    /// [`crate::thread_budget`]).
    pub fn new(hierarchy: &'h MemoryHierarchy) -> Self {
        Explorer {
            hierarchy,
            threads: crate::search::thread_budget(),
            fidelity: None,
        }
    }

    /// Overrides the worker-thread count (1 = fully sequential).
    ///
    /// # Panics
    ///
    /// Panics if `threads` is zero.
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        self.threads = threads;
        self
    }

    /// Switches guided [`Explorer::search`] runs to multi-fidelity
    /// screening under `plan` (see [`crate::search`]'s fidelity module):
    /// fresh genomes are ranked on cheap trace prefixes and only the
    /// best of them reach the full simulator.
    pub fn with_fidelity(mut self, plan: FidelityPlan) -> Self {
        self.fidelity = Some(plan);
        self
    }

    /// Enumerates `space` — the odometer [`crate::ParamSpace`], the
    /// [`crate::GrammarSpace`], … — and simulates every configuration to
    /// the end of `trace`: exact metrics for every configuration, in
    /// enumeration order. This is [`Self::sweep`]'s exploration, with no
    /// front computed. [`crate::ExhaustiveSearch`] finds the same front
    /// faster, but stops replaying configurations it proves dominated.
    pub fn run(&self, space: &dyn GenomeSpace, trace: &Trace) -> Exploration {
        self.sweep(space, trace, &[]).exploration
    }

    /// [`Self::run`] as a [`SearchOutcome`] under the strategy name
    /// `exhaustive`: every configuration of `space` in `exploration`
    /// (none pruned), its genome, and the front on `objectives`. It is
    /// the branch [`crate::ExhaustiveSearch`] takes when it cannot prune.
    pub fn sweep(
        &self,
        space: &dyn GenomeSpace,
        trace: &Trace,
        objectives: &[Objective],
    ) -> SearchOutcome {
        let instance = EvalInstance::single(self.hierarchy, trace);
        let ctx = self.context(space, &instance, objectives);
        unpruned_sweep(&SearchContext {
            fidelity: None,
            ..ctx
        })
    }

    /// Explores `space` — any [`GenomeSpace`]: the odometer
    /// [`crate::ParamSpace`], the [`crate::GrammarSpace`], … — with a guided
    /// [`SearchStrategy`] (genetic, subsampled, or the
    /// exhaustive baseline), minimizing `objectives`. The strategy
    /// evaluates through a memoized cache and this explorer's
    /// worker-thread budget; see [`crate::search`].
    pub fn search(
        &self,
        strategy: &dyn SearchStrategy,
        space: &dyn GenomeSpace,
        trace: &Trace,
        objectives: &[Objective],
    ) -> SearchOutcome {
        let instance = EvalInstance::single(self.hierarchy, trace);
        strategy.search(&self.context(space, &instance, objectives))
    }

    /// The classic single-workload context over `instance`, with this
    /// explorer's worker budget and fidelity plan.
    fn context<'a>(
        &self,
        space: &'a dyn GenomeSpace,
        instance: &'a EvalInstance<'a>,
        objectives: &'a [Objective],
    ) -> SearchContext<'a>
    where
        'h: 'a,
    {
        SearchContext {
            space,
            instances: std::slice::from_ref(instance),
            aggregate: None,
            objectives,
            threads: self.threads,
            fidelity: self.fidelity,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{ParamSpace, PlacementStrategy};
    use dmx_alloc::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
    use dmx_memhier::presets;
    use dmx_trace::gen::{EasyportConfig, TraceGenerator};

    fn small_space(hier: &MemoryHierarchy) -> ParamSpace {
        ParamSpace {
            dedicated_size_sets: vec![vec![], vec![28, 74]],
            placements: vec![
                PlacementStrategy::AllOn(hier.slowest().into()),
                PlacementStrategy::SmallOnFastest { max_size: 512 },
            ],
            fits: vec![FitPolicy::FirstFit, FitPolicy::BestFit],
            orders: vec![FreeOrder::Lifo],
            coalesces: vec![CoalescePolicy::Never, CoalescePolicy::Immediate],
            splits: vec![SplitPolicy::MinRemainder(16)],
            general_levels: vec![hier.slowest().into()],
            general_chunks: vec![8192],
        }
    }

    #[test]
    fn exploration_covers_the_space() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig {
            packets: 400,
            ..EasyportConfig::paper()
        }
        .generate(1);
        let space = small_space(&hier);
        let exp = Explorer::new(&hier).run(&space, &trace);
        assert_eq!(exp.results.len(), space.len());
        assert_eq!(exp.workload, "easyport");
        // Labels unique.
        let mut labels: Vec<&str> = exp.results.iter().map(|r| r.label.as_str()).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), space.len());
    }

    #[test]
    fn sweep_is_run_with_genomes_front_and_counts() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig {
            packets: 200,
            ..EasyportConfig::paper()
        }
        .generate(6);
        let space = crate::GrammarSpace::covering(&small_space(&hier));
        let every = Explorer::new(&hier).run(&space, &trace);
        let outcome = Explorer::new(&hier).sweep(&space, &trace, &Objective::FIG1);
        assert_eq!(outcome.strategy, "exhaustive");
        assert_eq!(outcome.evaluations, space.len());
        assert_eq!(outcome.simulations, space.len());
        assert_eq!(outcome.sim_stats.runs as usize, space.len());
        assert!(outcome.pruned.is_empty());
        for (i, (a, b)) in every
            .results
            .iter()
            .zip(&outcome.exploration.results)
            .enumerate()
        {
            assert_eq!((&a.label, &a.metrics), (&b.label, &b.metrics));
            assert_eq!(outcome.genomes[i], space.genome_at(i));
        }
        assert_eq!(outcome.front, every.pareto(&Objective::FIG1));
    }

    #[test]
    fn parallel_equals_sequential() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig {
            packets: 200,
            ..EasyportConfig::paper()
        }
        .generate(2);
        let space = small_space(&hier);
        let seq = Explorer::new(&hier).with_threads(1).run(&space, &trace);
        let par = Explorer::new(&hier).with_threads(4).run(&space, &trace);
        for (a, b) in seq.results.iter().zip(&par.results) {
            assert_eq!(a.label, b.label);
            assert_eq!(a.metrics, b.metrics);
        }
    }

    #[test]
    fn pareto_set_is_nonempty_and_feasible() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig {
            packets: 300,
            ..EasyportConfig::paper()
        }
        .generate(3);
        let exp = Explorer::new(&hier).run(&small_space(&hier), &trace);
        let front = exp.pareto(&Objective::FIG1);
        assert!(!front.is_empty());
        for &i in &front.indices {
            assert!(exp.results[i].metrics.feasible());
        }
        // Every feasible non-front point is dominated by some front point.
        let (indices, points) = exp.objective_points(&Objective::FIG1);
        for (k, p) in points.iter().enumerate() {
            if !front.indices.contains(&indices[k]) {
                assert!(
                    front.points.iter().any(|f| crate::pareto::dominates(f, p)),
                    "non-front point {p:?} must be dominated"
                );
            }
        }
    }

    #[test]
    fn records_roundtrip_through_profile_format() {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig {
            packets: 150,
            ..EasyportConfig::paper()
        }
        .generate(4);
        let mut space = small_space(&hier);
        space.dedicated_size_sets.truncate(1);
        space.placements.truncate(1);
        let exp = Explorer::new(&hier).run(&space, &trace);
        let records = exp.to_records();
        let text = dmx_profile::records_to_string(&records);
        let back = dmx_profile::parse_records(&text).unwrap();
        assert_eq!(back, records);
    }

    #[test]
    #[should_panic(expected = "at least one worker")]
    fn zero_threads_rejected() {
        let hier = presets::sp64k_dram4m();
        let _ = Explorer::new(&hier).with_threads(0);
    }
}
