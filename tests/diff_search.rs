//! Differential tests over the guided-search layer.
//!
//! The exhaustive sweep is the oracle: on the full 6912-configuration
//! convergence space (the `search_convergence` / `island_scaling` bench
//! space), every guided strategy's front must be *consistent* with the
//! true front — a guided front point can never dominate a true front
//! point, and every guided front point must be dominated-or-equaled by
//! some true front point (a guided search sees a subset of the space, so
//! its front can sit behind the truth, never ahead of it).
//!
//! The second half pins the island model's degenerate case: one island,
//! no migration edges, must be **byte-identical** — down to the exported
//! JSON and serialized profile records — to a plain `GeneticSearch` with
//! the same seed. That equivalence is what makes island results
//! comparable with the sequential baseline at all.

use dmx_core::export::pareto_to_json;
use dmx_core::search::{GeneticSearch, HillClimbSearch, IslandSearch, SubsampleSearch};
use dmx_core::study::{convergence_space, easyport_space, StudyScale};
use dmx_core::{dominates, Explorer, Migration, Objective, SearchStrategy};
use dmx_profile::records_to_string;
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::Trace;

/// A shortened paper-profile Easyport trace: the *space* is what is under
/// test; a compact trace keeps the 6912-simulation oracle affordable in
/// debug builds.
fn oracle_trace() -> Trace {
    EasyportConfig {
        packets: 100,
        ..EasyportConfig::paper()
    }
    .generate(42)
}

/// Every guided front must be consistent with the exhaustive oracle's
/// front: dominated-or-equaled point for point, and never dominating.
#[test]
fn guided_fronts_are_consistent_with_the_exhaustive_oracle() {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    // The shared 6912-configuration space (`dmx_core::study`): the same
    // one the `search_convergence` and `island_scaling` benches use, so
    // the oracle and the benches can never drift apart.
    let space = convergence_space(&hierarchy);
    let trace = oracle_trace();
    let explorer = Explorer::new(&hierarchy);

    let truth = explorer
        .search(
            &dmx_core::ExhaustiveSearch,
            &space,
            &trace,
            &Objective::FIG1,
        )
        .front;
    assert!(!truth.points.is_empty());

    let strategies: Vec<(&str, Box<dyn SearchStrategy>)> = vec![
        (
            "genetic",
            Box::new(GeneticSearch {
                population: 32,
                generations: 10,
                seed: 42,
                ..GeneticSearch::default()
            }),
        ),
        (
            "hillclimb",
            Box::new(HillClimbSearch {
                restarts: 8,
                seed: 42,
                ..HillClimbSearch::default()
            }),
        ),
        (
            "island",
            Box::new(IslandSearch {
                islands: 4,
                migration: Migration::Ring,
                migrate_every: 2,
                population: 8,
                generations: 10,
                seed: 42,
                ..IslandSearch::default()
            }),
        ),
        ("sample", Box::new(SubsampleSearch { n: 400, seed: 42 })),
    ];

    for (name, strategy) in &strategies {
        let outcome = explorer.search(strategy.as_ref(), &space, &trace, &Objective::FIG1);
        assert!(
            !outcome.front.points.is_empty(),
            "{name}: guided front must not be empty"
        );
        for p in &outcome.front.points {
            assert!(
                !truth.points.iter().any(|t| dominates(p, t)),
                "{name}: guided front point {p:?} dominates a true front point — \
                 the oracle missed a configuration or the strategy left the space"
            );
            assert!(
                truth.points.iter().any(|t| t == p || dominates(t, p)),
                "{name}: guided front point {p:?} is not covered by the true front"
            );
        }
    }
}

/// `IslandSearch` with one island is `GeneticSearch`, byte for byte: same
/// evaluated set, same serialized records, same exported JSON front.
#[test]
fn one_island_is_byte_identical_to_plain_genetic_search() {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    let space = easyport_space(&hierarchy, StudyScale::Quick);
    let trace = EasyportConfig::small().generate(42);
    let explorer = Explorer::new(&hierarchy);

    for seed in [1u64, 42, 977] {
        let ga = GeneticSearch {
            population: 16,
            generations: 6,
            mutation: 0.2,
            seed,
        };
        let island = IslandSearch {
            islands: 1,
            population: 16,
            generations: 6,
            mutation: 0.2,
            seed,
            // Aggressive migration settings must be inert with one island.
            migration: Migration::Full,
            migrate_every: 1,
            migrants: 4,
        };
        let a = explorer.search(&ga, &space, &trace, &Objective::FIG1);
        let b = explorer.search(&island, &space, &trace, &Objective::FIG1);

        assert_eq!(a.genomes, b.genomes, "seed {seed}: evaluated sets differ");
        assert_eq!(
            records_to_string(&a.exploration.to_records()),
            records_to_string(&b.exploration.to_records()),
            "seed {seed}: serialized records differ"
        );
        assert_eq!(
            pareto_to_json(&a.exploration, &a.front, &Objective::FIG1),
            pareto_to_json(&b.exploration, &b.front, &Objective::FIG1),
            "seed {seed}: exported JSON fronts differ"
        );
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.simulations, b.simulations);
        assert_eq!(a.cache_hits, b.cache_hits);
        assert_eq!(b.islands.len(), 1, "island stats present");
        assert_eq!(b.islands[0].migrants_received, 0, "no edges, no migrants");
    }
}
