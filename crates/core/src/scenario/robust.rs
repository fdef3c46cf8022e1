//! Robust exploration across a scenario suite.
//!
//! [`MultiScenarioEvaluator`] turns a [`ScenarioSuite`] into a
//! multi-instance [`SearchContext`], so any [`SearchStrategy`] —
//! exhaustive, subsampled, genetic, hill-climbing — optimizes *robust*
//! objectives unchanged: every genome a strategy asks about is simulated
//! on every scenario (in parallel, memoized in the
//! [`Evaluator`](crate::search::Evaluator)'s table with one result per
//! scenario), and the per-scenario metrics fold through the chosen
//! [`Aggregate`] before the strategy sees them. The result carries three views:
//!
//! 1. the **robust front** — Pareto-optimal on aggregated objectives;
//! 2. **per-scenario fronts** — Pareto-optimal within each scenario, over
//!    the same evaluated set;
//! 3. the **commonality report** — which configurations sit on several
//!    (ideally all) scenario fronts: the all-rounders a designer can ship
//!    without knowing the deployment mix.

use std::fmt::Write as _;
use std::sync::Arc;

use crate::objective::Objective;
use crate::param::{Genome, ParamSpace};
use crate::pareto::ParetoSet;
use crate::runner::Exploration;
use crate::scenario::{Aggregate, ScenarioSuite};
use crate::search::{EvalInstance, FidelityPlan, SearchContext, SearchOutcome, SearchStrategy};
use crate::space::GenomeSpace;

/// Runs search strategies against a whole scenario suite.
///
/// Builder-style configuration; [`Self::run`] does the work. Deterministic
/// in `seed` (which both perturbs the scenario trace generation and
/// should match the strategy's own seed for fully reproducible runs).
#[derive(Debug, Clone)]
pub struct MultiScenarioEvaluator<'a> {
    suite: &'a ScenarioSuite,
    aggregate: Aggregate,
    objectives: Vec<Objective>,
    threads: usize,
    seed: u64,
    space: Option<Arc<dyn GenomeSpace>>,
    /// Multi-fidelity screening schedule; `None` (the default) evaluates
    /// every candidate at full fidelity on every scenario.
    fidelity: Option<FidelityPlan>,
    /// Memoized materialization for the current seed, so callers that
    /// need the space before running (e.g. to size a strategy) do not pay
    /// for trace generation twice. Reset whenever the seed changes.
    materialized: std::cell::OnceCell<Vec<crate::scenario::MaterializedScenario<'a>>>,
}

impl<'a> MultiScenarioEvaluator<'a> {
    /// An evaluator over `suite` with worst-case folding, the Figure-1
    /// objective pair, the process thread budget (all CPUs, or the
    /// `DMX_THREADS` override — see [`crate::thread_budget`]), seed 42,
    /// and the suite-derived space.
    pub fn new(suite: &'a ScenarioSuite) -> Self {
        MultiScenarioEvaluator {
            suite,
            aggregate: Aggregate::WorstCase,
            objectives: Objective::FIG1.to_vec(),
            threads: crate::search::thread_budget(),
            seed: 42,
            space: None,
            fidelity: None,
            materialized: std::cell::OnceCell::new(),
        }
    }

    /// The suite materialized for the current seed (platforms built,
    /// traces generated), computed once.
    fn materialized(&self) -> &[crate::scenario::MaterializedScenario<'a>] {
        self.materialized
            .get_or_init(|| self.suite.materialize(self.seed))
    }

    /// The genome space this evaluator will search: the explicit
    /// override if one was set, the suite-derived odometer space
    /// otherwise.
    pub fn space(&self) -> Arc<dyn GenomeSpace> {
        self.space
            .clone()
            .unwrap_or_else(|| Arc::new(self.suite.suggest_space(self.materialized())))
    }

    /// Sets the fold policy.
    #[must_use]
    pub fn with_aggregate(mut self, aggregate: Aggregate) -> Self {
        self.aggregate = aggregate;
        self
    }

    /// Sets the objectives (≥ 1).
    #[must_use]
    pub fn with_objectives(mut self, objectives: &[Objective]) -> Self {
        assert!(!objectives.is_empty(), "need at least one objective");
        self.objectives = objectives.to_vec();
        self
    }

    /// Sets the worker-thread count (≥ 1).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        assert!(threads > 0, "need at least one worker");
        self.threads = threads;
        self
    }

    /// Switches the run to multi-fidelity screening under `plan`: fresh
    /// genomes are ranked on cheap prefix replays of every scenario
    /// trace (robust-folded like the full evaluation) and only the
    /// plan's keep-fraction is simulated in full. The robust front stays
    /// full-fidelity-only by construction.
    ///
    /// # Panics
    ///
    /// Panics if the plan fails [`FidelityPlan::validate`].
    #[must_use]
    pub fn with_fidelity(mut self, plan: FidelityPlan) -> Self {
        if let Err(err) = plan.validate() {
            panic!("invalid fidelity plan: {err}");
        }
        self.fidelity = Some(plan);
        self
    }

    /// Sets the run seed (perturbs scenario trace generation).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        if seed != self.seed {
            self.seed = seed;
            self.materialized = std::cell::OnceCell::new();
        }
        self
    }

    /// Overrides the suite-derived space with any shared [`GenomeSpace`]
    /// handle (the odometer [`crate::ParamSpace`], the
    /// [`crate::GrammarSpace`], …, or the one [`Self::space`] returned).
    #[must_use]
    pub fn with_space_arc(mut self, space: Arc<dyn GenomeSpace>) -> Self {
        self.space = Some(space);
        self
    }

    /// The suite-derived odometer [`ParamSpace`], ignoring any
    /// [`Self::with_space_arc`] override — the base other spaces (e.g.
    /// [`crate::GrammarSpace::covering`]) are built from.
    pub fn odometer_space(&self) -> ParamSpace {
        self.suite.suggest_space(self.materialized())
    }

    /// Materializes the suite (reusing the memoized materialization if
    /// [`Self::space`] already triggered it), runs `strategy` with robust
    /// evaluation, and assembles the three result views.
    pub fn run(&self, strategy: &dyn SearchStrategy) -> RobustOutcome {
        let materialized = self.materialized();
        let space = self.space();

        let instances: Vec<EvalInstance<'_>> = materialized
            .iter()
            .map(|m| EvalInstance {
                name: m.scenario.name.as_str(),
                hierarchy: &m.hierarchy,
                // An `Arc` handle onto the memoized compiled trace — the
                // only per-run copy cost is the pointer.
                trace: Arc::clone(&m.compiled),
                weight: m.scenario.weight,
                constraints: Some(&m.scenario.constraints),
            })
            .collect();
        let ctx = SearchContext {
            space: &*space,
            instances: &instances,
            aggregate: Some(self.aggregate),
            objectives: &self.objectives,
            threads: self.threads,
            fidelity: self.fidelity.as_ref(),
        };
        let mut outcome = strategy.search(&ctx);

        // Move the per-scenario result sets out of the outcome instead of
        // cloning them — they live on as `ScenarioResult.exploration`, and
        // keeping a second copy inside `outcome` would double the memory
        // of every robust run.
        let scenarios: Vec<ScenarioResult> = std::mem::take(&mut outcome.scenario_explorations)
            .into_iter()
            .map(|exploration| ScenarioResult {
                name: exploration.workload.clone(),
                front: exploration.pareto(&self.objectives),
                exploration,
            })
            .collect();
        let commonality = CommonalityReport::compute(&outcome, &scenarios);

        RobustOutcome {
            suite: self.suite.name.clone(),
            aggregate: self.aggregate,
            objectives: self.objectives.clone(),
            space,
            outcome,
            scenarios,
            commonality,
        }
    }
}

/// One scenario's view of the shared evaluated set.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// Scenario name.
    pub name: String,
    /// The scenario-local Pareto front over the evaluated set; indices
    /// refer to the *shared* genome order (the robust exploration's
    /// results), so the same index means the same configuration across
    /// all scenarios and the robust view.
    pub front: ParetoSet,
    /// The full per-scenario result set, in shared genome order.
    pub exploration: Exploration,
}

/// Everything a robust exploration produces.
#[derive(Debug, Clone)]
pub struct RobustOutcome {
    /// Suite name.
    pub suite: String,
    /// The fold policy used.
    pub aggregate: Aggregate,
    /// The objectives optimized.
    pub objectives: Vec<Objective>,
    /// The shared genome space that was searched.
    pub space: Arc<dyn GenomeSpace>,
    /// The strategy outcome on robust objectives: evaluated set (robust
    /// metrics), genomes, robust front, cache statistics. Its
    /// `scenario_explorations` are drained into [`Self::scenarios`].
    pub outcome: SearchOutcome,
    /// Per-scenario fronts and result sets, parallel to the suite's
    /// scenarios.
    pub scenarios: Vec<ScenarioResult>,
    /// Which configurations sit on several scenario fronts.
    pub commonality: CommonalityReport,
}

impl RobustOutcome {
    /// Renders the text report (robust summary, per-scenario fronts, and
    /// the commonality table).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(
            s,
            "=== robust exploration: suite `{}`, aggregate `{}` ===",
            self.suite, self.aggregate
        );
        let _ = writeln!(
            s,
            "objectives: ({})",
            self.objectives
                .iter()
                .map(|o| o.name())
                .collect::<Vec<_>>()
                .join(", ")
        );
        let _ = writeln!(
            s,
            "evaluated {} configurations of {} ({} simulations, {} cache hits)",
            self.outcome.evaluations,
            self.space.len(),
            self.outcome.simulations,
            self.outcome.cache_hits
        );
        let _ = writeln!(
            s,
            "robust front: {} configurations",
            self.outcome.front.len()
        );
        for (k, &i) in self.outcome.front.indices.iter().enumerate() {
            let vals: Vec<String> = self.outcome.front.points[k]
                .iter()
                .map(|v| v.to_string())
                .collect();
            let _ = writeln!(
                s,
                "  {:>14}  {}",
                vals.join(" "),
                self.outcome.exploration.results[i].label
            );
        }
        let _ = writeln!(s, "-- per-scenario fronts --");
        for sc in &self.scenarios {
            let _ = writeln!(s, "  {:<18} {} Pareto points", sc.name, sc.front.len());
        }
        let _ = writeln!(
            s,
            "-- commonality ({} configurations on at least one scenario front) --",
            self.commonality.rows.len()
        );
        for row in self.commonality.rows.iter().take(10) {
            let _ = writeln!(
                s,
                "  on {}/{} fronts{}  {}",
                row.scenario_front_count,
                self.scenarios.len(),
                if row.on_robust_front { " [robust]" } else { "" },
                row.label
            );
        }
        if let Some(first) = self.commonality.common.first() {
            let _ = writeln!(
                s,
                "on EVERY scenario front: {} configuration(s), e.g. {}",
                self.commonality.common.len(),
                first
            );
        }
        s
    }
}

/// One evaluated configuration's cross-scenario front membership.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommonalityRow {
    /// Label of the configuration (materialized on the first scenario's
    /// platform — the genome is the cross-platform identity).
    pub label: String,
    /// The configuration's genome.
    pub genome: Genome,
    /// How many scenario fronts it sits on (≥ 1 for report rows).
    pub scenario_front_count: usize,
    /// Whether it is also on the robust front.
    pub on_robust_front: bool,
}

/// Which configurations are Pareto-optimal in several scenarios at once.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommonalityReport {
    /// Every configuration on ≥ 1 scenario front, sorted by front count
    /// (descending), then genome.
    pub rows: Vec<CommonalityRow>,
    /// Labels of configurations on *every* scenario front — the
    /// deployment-mix-proof all-rounders. May be empty for very diverse
    /// suites.
    pub common: Vec<String>,
}

impl CommonalityReport {
    /// Computes the report from the shared-order outcome and per-scenario
    /// fronts.
    pub fn compute(outcome: &SearchOutcome, scenarios: &[ScenarioResult]) -> CommonalityReport {
        let n = outcome.exploration.results.len();
        let mut counts = vec![0usize; n];
        for sc in scenarios {
            for &i in &sc.front.indices {
                counts[i] += 1;
            }
        }
        let mut rows: Vec<CommonalityRow> = (0..n)
            .filter(|&i| counts[i] > 0)
            .map(|i| CommonalityRow {
                label: outcome.exploration.results[i].label.clone(),
                genome: outcome.genomes[i].clone(),
                scenario_front_count: counts[i],
                on_robust_front: outcome.front.indices.contains(&i),
            })
            .collect();
        rows.sort_by(|a, b| {
            b.scenario_front_count
                .cmp(&a.scenario_front_count)
                .then(a.genome.cmp(&b.genome))
        });
        let common = rows
            .iter()
            .filter(|r| r.scenario_front_count == scenarios.len() && !scenarios.is_empty())
            .map(|r| r.label.clone())
            .collect();
        CommonalityReport { rows, common }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto::dominates;
    use crate::search::{GeneticSearch, SubsampleSearch};

    fn quick_robust(seed: u64) -> RobustOutcome {
        let suite = ScenarioSuite::builtin("quick").expect("built-in");
        MultiScenarioEvaluator::new(&suite)
            .with_seed(seed)
            .with_threads(4)
            .run(&SubsampleSearch { n: 24, seed })
    }

    #[test]
    fn robust_run_produces_all_three_views() {
        let r = quick_robust(42);
        assert_eq!(r.scenarios.len(), 4);
        assert_eq!(r.outcome.evaluations, 24);
        assert_eq!(r.outcome.simulations, 24 * 4);
        assert!(!r.outcome.front.is_empty(), "robust front non-empty");
        for sc in &r.scenarios {
            assert_eq!(sc.exploration.results.len(), 24);
            assert!(!sc.front.is_empty(), "{} front empty", sc.name);
        }
        assert!(!r.commonality.rows.is_empty());
        let text = r.render();
        assert!(text.contains("robust front"));
        assert!(text.contains("per-scenario fronts"));
    }

    #[test]
    fn robust_front_never_contains_a_scenario_wise_dominated_config() {
        // Worst-case folding is monotone: a configuration dominated by
        // another one in *every* scenario cannot enter the robust front.
        let r = quick_robust(7);
        let per_scenario_points: Vec<Vec<Option<Vec<u64>>>> = r
            .scenarios
            .iter()
            .map(|sc| {
                sc.exploration
                    .results
                    .iter()
                    .map(|res| {
                        res.metrics.feasible().then(|| {
                            r.objectives
                                .iter()
                                .map(|o| o.extract(&res.metrics))
                                .collect::<Vec<u64>>()
                        })
                    })
                    .collect()
            })
            .collect();
        let robust_point = |i: usize| -> Vec<u64> {
            let m = &r.outcome.exploration.results[i].metrics;
            r.objectives.iter().map(|o| o.extract(m)).collect()
        };
        let n = r.outcome.exploration.results.len();
        for (k, &f) in r.outcome.front.indices.iter().enumerate() {
            for rival in 0..n {
                if rival == f {
                    continue;
                }
                let dominated_everywhere =
                    per_scenario_points
                        .iter()
                        .all(|points| match (&points[rival], &points[f]) {
                            (Some(a), Some(b)) => dominates(a, b),
                            _ => false,
                        });
                // Monotone worst-case folding: if a rival dominates `f` in
                // every scenario, the rival's robust point is at least as
                // good everywhere — `f` can only stay on the front as an
                // exact robust tie, never with a strictly worse point.
                if dominated_everywhere {
                    assert_eq!(
                        r.outcome.front.points[k],
                        robust_point(rival),
                        "front config {f} is dominated by {rival} in every \
                         scenario yet differs robustly"
                    );
                }
            }
        }
    }

    #[test]
    fn robust_runs_are_deterministic_per_seed() {
        let suite = ScenarioSuite::builtin("quick").expect("built-in");
        let ga = GeneticSearch {
            population: 10,
            generations: 3,
            seed: 5,
            ..GeneticSearch::default()
        };
        let a = MultiScenarioEvaluator::new(&suite).with_seed(5).run(&ga);
        let b = MultiScenarioEvaluator::new(&suite).with_seed(5).run(&ga);
        assert_eq!(a.outcome.genomes, b.outcome.genomes);
        assert_eq!(a.outcome.front.points, b.outcome.front.points);
        assert_eq!(a.commonality, b.commonality);
        let c = MultiScenarioEvaluator::new(&suite).with_seed(6).run(&ga);
        assert_ne!(
            a.outcome.genomes, c.outcome.genomes,
            "a different run seed regenerates traces and shifts the search"
        );
    }

    /// The island model plugs into robust (suite) mode unchanged: every
    /// genome any island asks about is simulated on every scenario, the
    /// shared cache still guarantees one simulation per (scenario,
    /// genome), and the run stays deterministic.
    #[test]
    fn island_strategy_runs_robustly_and_deterministically() {
        use crate::search::{IslandSearch, Migration};
        let suite = ScenarioSuite::builtin("quick").expect("built-in");
        let island = IslandSearch {
            islands: 2,
            migration: Migration::Ring,
            migrate_every: 1,
            population: 6,
            generations: 3,
            seed: 5,
            ..IslandSearch::default()
        };
        let a = MultiScenarioEvaluator::new(&suite)
            .with_seed(5)
            .run(&island);
        let b = MultiScenarioEvaluator::new(&suite)
            .with_seed(5)
            .run(&island);
        assert_eq!(a.outcome.genomes, b.outcome.genomes);
        assert_eq!(a.outcome.front.points, b.outcome.front.points);
        assert_eq!(a.outcome.islands, b.outcome.islands);
        assert_eq!(a.outcome.islands.len(), 2);
        assert_eq!(
            a.outcome.simulations,
            a.outcome.evaluations * suite.scenarios.len(),
            "one simulation per (scenario, genome), islands notwithstanding"
        );
        assert!(!a.outcome.front.is_empty());
        assert_eq!(a.scenarios.len(), suite.scenarios.len());
    }

    #[test]
    fn aggregates_differ_on_the_same_evaluated_set() {
        let suite = ScenarioSuite::builtin("quick").expect("built-in");
        let s = SubsampleSearch { n: 16, seed: 3 };
        let worst = MultiScenarioEvaluator::new(&suite)
            .with_aggregate(Aggregate::WorstCase)
            .run(&s);
        let mean = MultiScenarioEvaluator::new(&suite)
            .with_aggregate(Aggregate::Mean)
            .run(&s);
        assert_eq!(worst.outcome.genomes, mean.outcome.genomes);
        // Same configs evaluated, different robust values: worst-case is an
        // upper bound on the mean, component-wise.
        for (w, m) in worst
            .outcome
            .exploration
            .results
            .iter()
            .zip(&mean.outcome.exploration.results)
        {
            assert!(w.metrics.footprint >= m.metrics.footprint);
            assert!(w.metrics.total_accesses() >= m.metrics.total_accesses());
        }
    }
}
