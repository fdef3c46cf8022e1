//! Property tests for the guided-search layer: whatever a strategy does,
//! its results must stay inside the space, be byte-identical across
//! same-seed runs and worker counts, and never get mismatched metrics out
//! of the memoized evaluation cache.

use std::collections::HashSet;

use proptest::prelude::*;

use dmx_core::search::{
    EvalInstance, Evaluator, GeneticSearch, HillClimbSearch, IslandSearch, SearchContext,
    SearchStrategy, SubsampleSearch,
};
use dmx_core::study::{easyport_space, easyport_trace, StudyScale};
use dmx_core::{Explorer, GenomeSpace, GrammarSpace, Objective, ParamSpace, SearchOutcome};
use dmx_memhier::MemoryHierarchy;
use dmx_profile::records_to_string;
use dmx_trace::Trace;

/// One shared quick-scale fixture: an 80-configuration Easyport space.
fn fixture() -> (MemoryHierarchy, ParamSpace, Trace) {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    let space = easyport_space(&hierarchy, StudyScale::Quick);
    let trace = easyport_trace(StudyScale::Quick, 42);
    (hierarchy, space, trace)
}

/// The label set of the whole space — membership oracle for "is a real
/// configuration of this space".
fn space_labels(space: &ParamSpace, hierarchy: &MemoryHierarchy) -> HashSet<String> {
    space.iter_configs(hierarchy).map(|c| c.label()).collect()
}

fn strategies(seed: u64) -> Vec<Box<dyn SearchStrategy>> {
    vec![
        Box::new(GeneticSearch {
            population: 8,
            generations: 3,
            seed,
            ..GeneticSearch::default()
        }),
        Box::new(HillClimbSearch {
            restarts: 3,
            max_steps: 16,
            seed,
        }),
        Box::new(SubsampleSearch { n: 11, seed }),
        Box::new(IslandSearch {
            islands: 2,
            population: 6,
            generations: 3,
            migrate_every: 1,
            seed,
            ..IslandSearch::default()
        }),
    ]
}

/// A fixed-seed genetic search on the quick fixture at `threads`
/// evaluation workers.
fn genetic_with_threads(seed: u64, threads: usize) -> SearchOutcome {
    let (hierarchy, space, trace) = fixture();
    let strategy = GeneticSearch {
        population: 16,
        generations: 4,
        seed,
        ..GeneticSearch::default()
    };
    Explorer::new(&hierarchy).with_threads(threads).search(
        &strategy,
        &space,
        &trace,
        &Objective::FIG1,
    )
}

proptest! {
    // 4 cases keeps this suite from dominating the tier-1 wall clock; the
    // only thing the cases vary is the seed, and 4 seeds × 3 strategies
    // already exercise every code path.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Every configuration a guided strategy evaluates — front or not —
    /// is a genuine member of the space it searched.
    #[test]
    fn search_results_are_a_subset_of_the_space(seed in 0u64..1000) {
        let (hierarchy, space, trace) = fixture();
        let labels = space_labels(&space, &hierarchy);
        let explorer = Explorer::new(&hierarchy);
        for strategy in strategies(seed) {
            let outcome = explorer.search(strategy.as_ref(), &space, &trace, &Objective::FIG1);
            prop_assert!(outcome.evaluations <= space.len());
            prop_assert_eq!(outcome.exploration.results.len(), outcome.evaluations);
            for r in &outcome.exploration.results {
                prop_assert!(
                    labels.contains(&r.label),
                    "strategy {} evaluated `{}` which is not in the space",
                    strategy.name(),
                    r.label
                );
            }
            // The front refers back into the evaluated set.
            for &i in &outcome.front.indices {
                prop_assert!(i < outcome.exploration.results.len());
            }
        }
    }

    /// Same seed, same strategy ⇒ byte-identical results, down to the
    /// serialized profile records.
    #[test]
    fn search_is_byte_identical_across_runs(seed in 0u64..1000) {
        let (hierarchy, space, trace) = fixture();
        let explorer = Explorer::new(&hierarchy);
        for strategy in strategies(seed) {
            let a = explorer.search(strategy.as_ref(), &space, &trace, &Objective::FIG1);
            let b = explorer.search(strategy.as_ref(), &space, &trace, &Objective::FIG1);
            prop_assert_eq!(
                records_to_string(&a.exploration.to_records()),
                records_to_string(&b.exploration.to_records()),
                "strategy {} is not reproducible for seed {}",
                strategy.name(),
                seed
            );
            prop_assert_eq!(a.front.points, b.front.points);
            prop_assert_eq!(a.evaluations, b.evaluations);
        }
    }

    /// The evaluation cache always hands back the metrics of exactly the
    /// configuration that was asked for: for every cached genome, the
    /// stored label equals the label of the config the genome
    /// materializes to, and repeated requests return the same entry.
    #[test]
    fn eval_cache_never_mismatches_configs(
        seed in 0u64..1000,
        picks in prop::collection::vec(0usize..80, 1..24),
    ) {
        let (hierarchy, space, trace) = fixture();
        let instance = EvalInstance::single(&hierarchy, &trace);
        let ctx = SearchContext {
            space: &space,
            instances: std::slice::from_ref(&instance),
            aggregate: None,
            objectives: &Objective::FIG1,
            threads: 4,
            fidelity: None,
        };
        let mut evaluator = Evaluator::new(&ctx);

        // Random batch (with repeats) drawn from the space, plus a guided
        // run's worth of traffic through the same evaluator.
        let genomes: Vec<_> = picks.iter().map(|&i| space.genome_at(i % space.len())).collect();
        let results = evaluator.eval_batch(&genomes);
        for (genome, result) in genomes.iter().zip(&results) {
            prop_assert_eq!(
                &result.label,
                &space.config_at(&hierarchy, genome).label(),
                "cache returned metrics for a mismatched config"
            );
        }

        // Second pass: everything is a hit, and the entries agree.
        let before = evaluator.evaluations();
        let again = evaluator.eval_batch(&genomes);
        prop_assert_eq!(evaluator.evaluations(), before, "second pass must be all hits");
        for (a, b) in results.iter().zip(&again) {
            prop_assert!(std::sync::Arc::ptr_eq(a, b));
        }

        // And every entry of the outcome keys back to its own config.
        let outcome = evaluator.into_outcome("test");
        for (genome, result) in outcome.genomes.iter().zip(&outcome.exploration.results) {
            prop_assert_eq!(
                &result.label,
                &space.config_at(&hierarchy, genome).label(),
                "cached entry mismatches its genome (seed {})",
                seed
            );
        }
    }

    /// The strategies are space-generic: driven over the grammar space
    /// through the same `&dyn GenomeSpace` machinery, every evaluated
    /// configuration is a valid derivation of the grammar, and same-seed
    /// runs stay byte-identical.
    #[test]
    fn strategies_generalize_to_the_grammar_space(seed in 0u64..1000) {
        let (hierarchy, odometer, trace) = fixture();
        let grammar = GrammarSpace::covering(&odometer);
        let explorer = Explorer::new(&hierarchy);
        for strategy in strategies(seed) {
            let a = explorer.search(strategy.as_ref(), &grammar, &trace, &Objective::FIG1);
            prop_assert!(a.evaluations <= GenomeSpace::len(&grammar));
            prop_assert_eq!(a.exploration.results.len(), a.evaluations);
            for (genome, r) in a.genomes.iter().zip(&a.exploration.results) {
                prop_assert_eq!(
                    genome.clone(),
                    grammar.canonicalize(genome.clone()),
                    "strategy {} evaluated a non-canonical derivation",
                    strategy.name()
                );
                r.config
                    .validate(&hierarchy)
                    .expect("every evaluated derivation builds a valid config");
                prop_assert_eq!(
                    &r.label,
                    &GenomeSpace::config_at(&grammar, &hierarchy, genome).label(),
                    "evaluated metrics must belong to the genome's own config"
                );
            }
            let b = explorer.search(strategy.as_ref(), &grammar, &trace, &Objective::FIG1);
            prop_assert_eq!(
                records_to_string(&a.exploration.to_records()),
                records_to_string(&b.exploration.to_records()),
                "strategy {} is not reproducible on the grammar space (seed {})",
                strategy.name(),
                seed
            );
            prop_assert_eq!(a.front.points, b.front.points);
        }
    }

    /// Same seed ⇒ identical search output and identical logical kernel
    /// counters at 1 and 8 workers. Jobs are indexed before workers
    /// start, so scheduling only changes who replays a genome, never what
    /// it computes; only the physical counters (arena reuse pattern, wall
    /// clock) may depend on the worker count.
    #[test]
    fn batched_evaluation_is_thread_invariant(seed in 0u64..1000) {
        let a = genetic_with_threads(seed, 1);
        let b = genetic_with_threads(seed, 8);
        prop_assert_eq!(&a.genomes, &b.genomes);
        prop_assert_eq!(&a.front.points, &b.front.points);
        prop_assert_eq!(a.evaluations, b.evaluations);
        prop_assert_eq!(a.simulations, b.simulations);
        prop_assert_eq!(a.cache_hits, b.cache_hits);
        let la: Vec<&str> = a.exploration.results.iter().map(|r| r.label.as_str()).collect();
        let lb: Vec<&str> = b.exploration.results.iter().map(|r| r.label.as_str()).collect();
        prop_assert_eq!(la, lb);
        prop_assert_eq!(a.sim_stats.events, b.sim_stats.events);
        prop_assert_eq!(a.sim_stats.runs, b.sim_stats.runs);
        prop_assert_eq!(a.sim_stats.runs, a.simulations as u64, "one run per simulation");
    }
}

/// A small space of each kind over `trace`: the odometer space derived
/// from the trace, cut to 120 configurations, or the grammar covering a
/// one-policy odometer (its structural nodes give 176 configurations).
/// Either holds more than one pruning wave.
fn pruning_space(
    trace: &Trace,
    hierarchy: &MemoryHierarchy,
    grammar: bool,
) -> Box<dyn GenomeSpace> {
    let mut space = ParamSpace::suggest(&dmx_trace::TraceStats::compute(trace), hierarchy);
    space.dedicated_size_sets.truncate(3);
    space.orders.truncate(3);
    space.coalesces.truncate(2);
    space.splits.truncate(1);
    if !grammar {
        return Box::new(space);
    }
    space.dedicated_size_sets.truncate(1);
    space.fits.truncate(1);
    space.orders.truncate(1);
    space.coalesces.truncate(1);
    Box::new(GrammarSpace::covering(&space))
}

proptest! {
    // Each case runs four sweeps of a 120- or 176-config space plus a
    // reference replay of every pruned configuration.
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The pruning contract of the exhaustive sweep, over random small
    /// traces, both genome spaces and three objective sets: the pruned
    /// sweep finds the front of the every-config sweep, reports exact
    /// results for every configuration it ran to the end, prunes only
    /// configurations whose reference metrics are either strictly
    /// dominated by the named front point or infeasible, and prunes the
    /// same set at 1 and 3 workers. With a p99 objective in the set it
    /// prunes nothing.
    #[test]
    fn pruned_sweep_keeps_the_exact_front(
        seed in 0u64..1000,
        easyport in proptest::bool::ANY,
        grammar in proptest::bool::ANY,
        set in 0usize..3,
    ) {
        use dmx_alloc::Simulator;
        use dmx_core::{dominates, ExhaustiveSearch};
        use dmx_trace::gen::{EasyportConfig, SyntheticConfig, TraceGenerator};

        let hierarchy = dmx_memhier::presets::sp64k_dram4m();
        let trace = if easyport {
            EasyportConfig { packets: 500, ..EasyportConfig::paper() }.generate(seed)
        } else {
            SyntheticConfig::bimodal(1500).generate(seed)
        };
        let space = pruning_space(&trace, &hierarchy, grammar);
        let objectives = [
            Objective::FIG1.to_vec(),
            vec![Objective::EnergyPj, Objective::Cycles],
            vec![Objective::Footprint, Objective::ContentionStalls],
        ][set].clone();
        let point = |m: &dmx_alloc::SimMetrics| -> Vec<u64> {
            objectives.iter().map(|o| o.extract(m)).collect()
        };

        let every = Explorer::new(&hierarchy).run(space.as_ref(), &trace);
        let exact: std::collections::HashMap<&str, &dmx_alloc::SimMetrics> = every
            .results
            .iter()
            .map(|r| (r.label.as_str(), &r.metrics))
            .collect();
        let mut pruned_sets = Vec::new();
        for threads in [1, 3] {
            let outcome = Explorer::new(&hierarchy).with_threads(threads).search(
                &ExhaustiveSearch,
                space.as_ref(),
                &trace,
                &objectives,
            );
            prop_assert_eq!(outcome.evaluations, space.len());
            prop_assert_eq!(outcome.simulations + outcome.pruned.len(), space.len());
            prop_assert_eq!(&outcome.front.points, &every.pareto(&objectives).points);
            for r in &outcome.exploration.results {
                prop_assert_eq!(&r.metrics, exact[r.label.as_str()], "{}", &r.label);
            }
            for p in &outcome.pruned {
                let config = space.config_at(&hierarchy, &p.genome);
                prop_assert_eq!(&config.label(), &p.label);
                let reference = Simulator::new(&hierarchy).run_reference(&config, &trace).unwrap();
                // The bound a pruned replay lost to holds for replays that
                // end feasible; one that fails an allocation later may end
                // below it, and is off the front for being infeasible.
                prop_assert!(
                    !reference.feasible()
                        || dominates(&point(exact[p.dominated_by.as_str()]), &point(&reference)),
                    "{} is feasible and not dominated by {}",
                    &p.label,
                    &p.dominated_by
                );
            }
            pruned_sets.push(outcome.pruned);
        }
        prop_assert_eq!(&pruned_sets[0], &pruned_sets[1]);

        let with_tail = [objectives[0], Objective::TailLatency];
        let outcome = Explorer::new(&hierarchy).search(
            &ExhaustiveSearch,
            space.as_ref(),
            &trace,
            &with_tail,
        );
        prop_assert!(outcome.pruned.is_empty());
        prop_assert_eq!(outcome.simulations, space.len());
    }
}
