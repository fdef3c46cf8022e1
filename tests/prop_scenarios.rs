//! Property tests for the scenario layer: whatever strategy and seed a
//! robust exploration runs with, the robust front must stay inside the
//! evaluated set, worst-case folding must be monotone (a configuration
//! dominated in every scenario never earns a strictly better robust
//! point), and same-seed runs must be byte-identical down to the exported
//! JSON.

use std::collections::HashSet;

use proptest::prelude::*;

use dmx_core::export::robust_to_json;
use dmx_core::scenario::{Aggregate, MultiScenarioEvaluator, RobustOutcome, ScenarioSuite};
use dmx_core::search::{GeneticSearch, SearchStrategy, SubsampleSearch};
use dmx_core::{dominates, Objective};
use dmx_profile::records_to_string;

fn strategies(seed: u64) -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(SubsampleSearch { n: 14, seed }),
        Box::new(GeneticSearch {
            population: 8,
            generations: 2,
            seed,
        }),
    ]
}

fn run(suite: &ScenarioSuite, strategy: &dyn SearchStrategy, seed: u64) -> RobustOutcome {
    MultiScenarioEvaluator::new(suite)
        .with_aggregate(Aggregate::WorstCase)
        .with_seed(seed)
        .run(strategy)
}

proptest! {
    // Robust runs simulate every genome on four scenarios, so keep the
    // case count low; the seeds are the only varied input.
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// The robust front is a subset of the evaluated set, and every
    /// evaluated configuration is a genuine member of the shared space
    /// (checked by genome, the cross-platform identity).
    #[test]
    fn robust_front_is_a_subset_of_evaluated_configs(seed in 0u64..500) {
        let suite = ScenarioSuite::builtin("quick").expect("built-in");
        for strategy in strategies(seed) {
            let r = run(&suite, strategy.as_ref(), seed);
            let space_genomes: HashSet<_> =
                (0..r.space.len()).map(|i| r.space.genome_at(i)).collect();
            prop_assert_eq!(r.outcome.genomes.len(), r.outcome.exploration.results.len());
            for g in &r.outcome.genomes {
                prop_assert!(space_genomes.contains(g), "genome {g:?} not in the space");
            }
            // Front indices refer into the evaluated set, for the robust
            // front and for every scenario front alike.
            for &i in &r.outcome.front.indices {
                prop_assert!(i < r.outcome.exploration.results.len());
            }
            for sc in &r.scenarios {
                prop_assert_eq!(sc.exploration.results.len(), r.outcome.genomes.len());
                for &i in &sc.front.indices {
                    prop_assert!(i < sc.exploration.results.len());
                }
            }
        }
    }

    /// Worst-case folding is monotone: a configuration dominated by a
    /// rival in *every* scenario can never have a strictly worse robust
    /// point on the robust front — it either leaves the front or ties the
    /// rival exactly.
    #[test]
    fn worst_case_aggregation_is_monotone(seed in 0u64..500) {
        let suite = ScenarioSuite::builtin("quick").expect("built-in");
        let strategy = SubsampleSearch { n: 20, seed };
        let r = run(&suite, &strategy, seed);

        let point = |res: &dmx_core::RunResult| -> Option<Vec<u64>> {
            res.metrics.feasible().then(|| {
                r.objectives.iter().map(|o| o.extract(&res.metrics)).collect()
            })
        };
        let per_scenario: Vec<Vec<Option<Vec<u64>>>> = r
            .scenarios
            .iter()
            .map(|sc| sc.exploration.results.iter().map(point).collect())
            .collect();
        let robust: Vec<Option<Vec<u64>>> =
            r.outcome.exploration.results.iter().map(point).collect();

        let n = r.outcome.genomes.len();
        for f in 0..n {
            for rival in 0..n {
                if f == rival {
                    continue;
                }
                let dominated_everywhere = per_scenario.iter().all(|points| {
                    matches!(
                        (&points[rival], &points[f]),
                        (Some(a), Some(b)) if dominates(a, b)
                    )
                });
                if !dominated_everywhere {
                    continue;
                }
                // The rival's robust point must be at least as good in
                // every objective — so `f` cannot be on the robust front
                // with a point the rival's robust point doesn't match.
                let (Some(rf), Some(rr)) = (&robust[f], &robust[rival]) else {
                    // A scenario-wise dominated config can only be robust-
                    // infeasible if the dominator is too (same scenarios).
                    continue;
                };
                for (d, (a, b)) in rr.iter().zip(rf).enumerate() {
                    prop_assert!(
                        a <= b,
                        "objective {d}: rival folds to {a} > dominated config's {b}"
                    );
                }
                if r.outcome.front.indices.contains(&f) {
                    prop_assert_eq!(
                        rf, rr,
                        "dominated-everywhere config may only stay on the \
                         robust front as an exact tie"
                    );
                }
            }
        }
    }

    /// Same seed ⇒ byte-identical robust runs: profile records and the
    /// full JSON export (robust front, per-scenario fronts, commonality).
    #[test]
    fn same_seed_suite_runs_are_byte_identical(seed in 0u64..500) {
        let suite = ScenarioSuite::builtin("quick").expect("built-in");
        for strategy in strategies(seed) {
            let a = run(&suite, strategy.as_ref(), seed);
            let b = run(&suite, strategy.as_ref(), seed);
            prop_assert_eq!(
                records_to_string(&a.outcome.exploration.to_records()),
                records_to_string(&b.outcome.exploration.to_records())
            );
            prop_assert_eq!(robust_to_json(&a), robust_to_json(&b));
            for (x, y) in a.scenarios.iter().zip(&b.scenarios) {
                prop_assert_eq!(
                    records_to_string(&x.exploration.to_records()),
                    records_to_string(&y.exploration.to_records())
                );
            }
        }
    }

    /// The aggregated objective values are exactly the fold of the
    /// per-scenario values — the robust record never invents numbers.
    #[test]
    fn robust_values_are_exact_folds(seed in 0u64..500) {
        let suite = ScenarioSuite::builtin("quick").expect("built-in");
        let r = run(&suite, &SubsampleSearch { n: 10, seed }, seed);
        for (i, robust_result) in r.outcome.exploration.results.iter().enumerate() {
            for o in [Objective::Footprint, Objective::Accesses, Objective::EnergyPj, Objective::Cycles] {
                let per: Vec<u64> = r
                    .scenarios
                    .iter()
                    .map(|sc| o.extract(&sc.exploration.results[i].metrics))
                    .collect();
                prop_assert_eq!(
                    o.extract(&robust_result.metrics),
                    *per.iter().max().expect("non-empty"),
                    "objective {} of config {} is not the worst case",
                    o.name(),
                    i
                );
            }
        }
    }
}
