//! Property tests for the island-model search engine.
//!
//! Four invariants, each a hard requirement of the design:
//!
//! 1. **Thread invariance** — the same seed produces identical output for
//!    1, 2 and 8 evaluation workers over every migration topology (the
//!    determinism contract: merge by island id, never by completion
//!    order).
//! 2. **Migrant validity** — migration can only move *evaluated* genomes,
//!    so everything the search ever touches is a canonical member of the
//!    space.
//! 3. **Front merging** — the merged front dominates-or-equals every
//!    per-island front (it is computed over the union of what the islands
//!    evaluated).
//! 4. **No double counting** — islands share one evaluation cache, so
//!    simulations equal distinct-genome evaluations exactly, no matter
//!    how much the island populations overlap.

use proptest::prelude::*;

use dmx_core::search::{EvalInstance, IslandSearch, Migration, SearchContext};
use dmx_core::study::{easyport_space, easyport_trace, StudyScale};
use dmx_core::{dominates, Objective, SearchOutcome, SearchStrategy};

/// Runs one island search over the quick fixture with an explicit worker
/// count.
fn run_with_threads(strategy: &IslandSearch, threads: usize) -> SearchOutcome {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    let space = easyport_space(&hierarchy, StudyScale::Quick);
    let trace = easyport_trace(StudyScale::Quick, 42);
    let instance = EvalInstance::single(&hierarchy, &trace);
    let ctx = SearchContext {
        space: &space,
        instances: std::slice::from_ref(&instance),
        aggregate: None,
        objectives: &Objective::FIG1,
        threads,
        fidelity: None,
    };
    strategy.search(&ctx)
}

fn strategy(seed: u64, islands: usize, migration: Migration) -> IslandSearch {
    IslandSearch {
        islands,
        migration,
        migrate_every: 1, // migrate as aggressively as possible
        migrants: 3,
        population: 8,
        generations: 5,
        seed,
        ..IslandSearch::default()
    }
}

proptest! {
    // 3 cases × 3 topologies × 3 thread counts × multi-generation
    // searches: enough to exercise every topology without dominating the
    // tier-1 wall clock.
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Same seed + same island count ⇒ identical output for 1, 2 and 8
    /// evaluation workers under every migration topology — down to
    /// labels, fronts, per-island stats and even the cache accounting.
    #[test]
    fn island_search_is_thread_invariant(seed in 0u64..1000) {
        for topo in [Migration::Ring, Migration::Full, Migration::Star] {
            let s = strategy(seed, 3, topo);
            let baseline = run_with_threads(&s, 1);
            for threads in [2usize, 8] {
                let other = run_with_threads(&s, threads);
                prop_assert_eq!(&baseline.genomes, &other.genomes, "{} threads={}", topo, threads);
                prop_assert_eq!(&baseline.front.points, &other.front.points);
                prop_assert_eq!(baseline.evaluations, other.evaluations);
                prop_assert_eq!(baseline.simulations, other.simulations);
                prop_assert_eq!(baseline.cache_hits, other.cache_hits);
                prop_assert_eq!(&baseline.islands, &other.islands, "island stats must merge by id");
                let la: Vec<&str> = baseline.exploration.results.iter().map(|r| r.label.as_str()).collect();
                let lb: Vec<&str> = other.exploration.results.iter().map(|r| r.label.as_str()).collect();
                prop_assert_eq!(la, lb);
            }
        }
    }

    /// Every genome the search evaluates — including every migrant, which
    /// by construction is an evaluated elite — is a canonical member of
    /// the space.
    #[test]
    fn migration_preserves_genome_validity(
        seed in 0u64..1000,
        topo in prop_oneof![
            Just(Migration::Ring),
            Just(Migration::Full),
            Just(Migration::Star),
        ],
    ) {
        let hierarchy = dmx_memhier::presets::sp64k_dram4m();
        let space = easyport_space(&hierarchy, StudyScale::Quick);
        let lens = space.axis_lens();
        let outcome = run_with_threads(&strategy(seed, 4, topo), 4);
        prop_assert!(
            outcome.islands.iter().map(|s| s.migrants_received).sum::<usize>() > 0,
            "per-generation migration over 4 islands must actually move elites"
        );
        for g in &outcome.genomes {
            for (d, len) in lens.iter().enumerate() {
                prop_assert!(g[d] < *len, "axis {} out of range in {:?}", d, g);
            }
            prop_assert_eq!(&space.canonicalize(g.clone()), g, "non-canonical genome evaluated");
        }
    }

    /// The merged front dominates-or-equals every per-island front point,
    /// and never the other way around.
    #[test]
    fn merged_front_dominates_or_equals_every_island_front(seed in 0u64..1000) {
        let outcome = run_with_threads(&strategy(seed, 3, Migration::Star), 4);
        prop_assert_eq!(outcome.islands.len(), 3);
        for island in &outcome.islands {
            for p in &island.front {
                prop_assert!(
                    outcome.front.points.iter().any(|m| m == p || dominates(m, p)),
                    "island {} point {:?} not covered by the merged front",
                    island.island, p
                );
                prop_assert!(
                    !outcome.front.points.iter().any(|m| dominates(p, m)),
                    "island {} point {:?} dominates the merged front",
                    island.island, p
                );
            }
        }
    }

    /// Islands share the evaluation cache: however much their populations
    /// overlap, each distinct genome is simulated exactly once.
    #[test]
    fn simulations_equal_unique_genome_evaluations(seed in 0u64..1000) {
        let outcome = run_with_threads(&strategy(seed, 4, Migration::Full), 4);
        prop_assert_eq!(outcome.simulations, outcome.evaluations,
            "a genome evaluated on any island must be a cache hit everywhere else");
        prop_assert_eq!(outcome.exploration.results.len(), outcome.evaluations);
        // The union of per-island evaluated sets is the outcome itself.
        let union_at_least = outcome.islands.iter().map(|s| s.genomes).max().unwrap_or(0);
        prop_assert!(outcome.evaluations >= union_at_least);
        let sum: usize = outcome.islands.iter().map(|s| s.genomes).sum();
        prop_assert!(sum >= outcome.evaluations, "island views must cover the evaluated set");
        // And the kernel agrees: one simulator run per distinct genome
        // (single instance), regardless of cross-island overlap.
        prop_assert_eq!(outcome.sim_stats.runs as usize, outcome.evaluations);
    }
}
