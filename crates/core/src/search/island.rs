//! Island-model parallel search with elite migration.
//!
//! The exploration problem is embarrassingly parallel at the *population*
//! level: N islands each run an independent [`GeneticSearch`] over the
//! same space, and every K generations the islands exchange their best
//! individuals over a migration topology (ring / fully-connected / star),
//! so a front region discovered on one island seeds the neighbors without
//! collapsing the populations into one gene pool. All islands evaluate
//! through one [`Evaluator`] — its memo table is the cross-island sharing
//! medium: a genome simulated on *any* island is a cache hit everywhere,
//! so the model never pays twice for convergent evolution.
//!
//! # Determinism
//!
//! Same seed + same island count ⇒ byte-identical output, regardless of
//! worker-thread count or interleaving. Three rules make that hold:
//!
//! 1. **Lockstep generations.** Every generation, all island populations
//!    are concatenated — in island-id order — into *one* evaluation batch.
//!    The batch planner (dedup, hit/miss accounting) is sequential; only
//!    the simulations fan out to worker threads, whose results come back
//!    in job order, so scheduling cannot change any result.
//! 2. **Barrier migration.** Migration happens between generations, after
//!    all islands have advanced, and edges are walked in a fixed order —
//!    merge by island id, never by completion order.
//! 3. **Private RNG streams.** Island `i` derives its seed as
//!    `seed + i · φ` (golden-ratio stride), so island 0 of a 1-island run
//!    replays a plain [`GeneticSearch`] with the same seed byte for byte —
//!    the differential tests pin exactly that equivalence.
//!
//! Islands advance (selection and breeding — the cheap, CPU-only part) in
//! island order on the calling thread between evaluation barriers; the
//! expensive part, simulation, fans out through the one job counter
//! under [`Evaluator::eval_batch`].

use std::collections::BTreeSet;
use std::fmt;
use std::str::FromStr;
use std::sync::Arc;

use rand::rngs::StdRng;

use crate::param::Genome;
use crate::pareto::dominates;
use crate::runner::RunResult;

use super::genetic::GeneticSearch;
use super::{Evaluator, SearchContext, SearchOutcome, SearchStrategy, StrategyError};

/// How migrating elites travel between islands.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Migration {
    /// Island `i` sends to island `i+1 (mod N)` — the slowest, most
    /// diversity-preserving topology.
    #[default]
    Ring,
    /// Every island sends to every other island — fastest convergence,
    /// least diversity.
    Full,
    /// Island 0 is the hub: spokes send to the hub, the hub to every
    /// spoke.
    Star,
}

impl Migration {
    /// The directed migration edges `(source, destination)` for `n`
    /// islands, in deterministic order. Empty for a single island.
    pub fn edges(&self, n: usize) -> Vec<(usize, usize)> {
        if n < 2 {
            return Vec::new();
        }
        match self {
            Migration::Ring => (0..n).map(|i| (i, (i + 1) % n)).collect(),
            Migration::Full => (0..n)
                .flat_map(|i| (0..n).filter(move |&j| j != i).map(move |j| (i, j)))
                .collect(),
            Migration::Star => (1..n).flat_map(|i| [(i, 0), (0, i)]).collect(),
        }
    }
}

impl fmt::Display for Migration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Migration::Ring => "ring",
            Migration::Full => "full",
            Migration::Star => "star",
        })
    }
}

impl FromStr for Migration {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "ring" => Ok(Migration::Ring),
            "full" | "fully-connected" => Ok(Migration::Full),
            "star" => Ok(Migration::Star),
            other => Err(format!(
                "unknown migration topology `{other}` (expected ring, full or star)"
            )),
        }
    }
}

/// Per-island convergence and migration statistics, reported on
/// [`SearchOutcome::islands`].
#[derive(Debug, Clone, PartialEq)]
pub struct IslandStats {
    /// Island id (0-based; also its position in every merge order).
    pub island: usize,
    /// The island's search kind (always "genetic").
    pub kind: String,
    /// Distinct genomes this island requested (its share of the search;
    /// islands overlap, so these sum to ≥ the outcome's `evaluations`).
    pub genomes: usize,
    /// The island-local Pareto front over everything *this island*
    /// evaluated, as objective points in sorted order. The outcome's
    /// merged front dominates-or-equals every point here.
    pub front: Vec<Vec<u64>>,
    /// Elites this island offered along outgoing migration edges.
    pub migrants_sent: usize,
    /// Migrants this island actually installed (duplicates of residents
    /// are not re-installed and do not count).
    pub migrants_received: usize,
    /// The last generation at which this island's local front improved —
    /// a plateau long before the end means the island had converged.
    pub last_improved_generation: usize,
    /// Generations this island ran (same for all islands of a run).
    pub generations: usize,
}

/// Island-model parallel search. Deterministic in `seed` for a fixed
/// island count — worker threads and interleaving never change the
/// output.
///
/// With `islands: 1` (and therefore no migration edges) this is exactly
/// [`GeneticSearch`] with the same seed, population and mutation — the
/// differential test suite pins the equivalence byte for byte.
#[derive(Debug, Clone, PartialEq)]
pub struct IslandSearch {
    /// Number of islands (≥ 1).
    pub islands: usize,
    /// Migration topology.
    pub migration: Migration,
    /// Exchange elites every this many generations (≥ 1).
    pub migrate_every: usize,
    /// Elites offered per migration edge (0 disables migration).
    pub migrants: usize,
    /// Individuals per island generation (≥ 2).
    pub population: usize,
    /// Breeding cycles; every island evaluates `generations + 1` batches.
    pub generations: usize,
    /// Per-axis mutation probability of every island, in `[0, 1]`.
    pub mutation: f64,
    /// RNG seed; island `i` runs the stream `seed + i·φ`.
    pub seed: u64,
}

impl Default for IslandSearch {
    fn default() -> Self {
        IslandSearch {
            islands: 4,
            migration: Migration::Ring,
            migrate_every: 4,
            migrants: 2,
            population: 16,
            generations: 16,
            mutation: 0.2,
            seed: 42,
        }
    }
}

/// Golden-ratio seed stride: island 0 keeps the base seed (the 1-island
/// equivalence depends on it), every further island gets a decorrelated
/// stream.
fn island_seed(seed: u64, island: usize) -> u64 {
    seed.wrapping_add((island as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

impl IslandSearch {
    /// Checks the parameters a run needs: at least one island, a
    /// migration interval of at least one generation, `population >= 2`,
    /// and a mutation probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// The first parameter out of range.
    pub fn validate(&self) -> Result<(), StrategyError> {
        if self.islands == 0 {
            return Err(StrategyError::NoIslands);
        }
        if self.migrate_every == 0 {
            return Err(StrategyError::NoMigrationInterval);
        }
        if self.population < 2 {
            return Err(StrategyError::PopulationTooSmall(self.population));
        }
        if !(0.0..=1.0).contains(&self.mutation) {
            return Err(StrategyError::MutationOutOfRange(self.mutation));
        }
        Ok(())
    }
}

/// One island: the exact [`GeneticSearch`] breeding step with a private
/// RNG stream, plus the statistics it reports.
struct Island {
    params: GeneticSearch,
    rng: StdRng,
    lens: Vec<usize>,
    /// The genomes to evaluate this generation.
    population: Vec<Genome>,
    /// The current non-dominated individuals, best-spread first (valid
    /// after [`Self::advance`]).
    elites: Vec<Genome>,
    /// Next tail slot migrants overwrite (resets each generation;
    /// migrants only ever replace offspring, never carried elites).
    recv_cursor: usize,
    evaluated: BTreeSet<Genome>,
    front: Vec<Vec<u64>>,
    last_improved: usize,
    sent: usize,
    received: usize,
}

impl Island {
    fn new(params: GeneticSearch, ctx: &SearchContext<'_>) -> Self {
        let mut rng = params.rng();
        let population = params.initial_population(&mut rng, ctx);
        let recv_cursor = population.len();
        Island {
            params,
            rng,
            lens: ctx.space.axis_lens(),
            population,
            elites: Vec::new(),
            recv_cursor,
            evaluated: BTreeSet::new(),
            front: Vec::new(),
            last_improved: 0,
            sent: 0,
            received: 0,
        }
    }

    /// Consumes this generation's results (aligned with `population`) and
    /// breeds the next population and the current elite list.
    fn advance(&mut self, ctx: &SearchContext<'_>, results: &[Arc<RunResult>]) {
        let bred = self
            .params
            .breed(&mut self.rng, ctx, &self.lens, &self.population, results);
        self.population = bred.next;
        self.elites = bred.elites;
        self.recv_cursor = self.population.len();
    }

    /// Installs migrants into the next population, skipping genomes the
    /// island already carries. Returns how many were actually installed.
    fn receive(&mut self, migrants: &[Genome]) -> usize {
        let protected = self.population.len() / 2;
        let mut installed = 0;
        for m in migrants {
            if self.recv_cursor <= protected {
                break; // keep at least half the population home-grown
            }
            if self.population.contains(m) {
                continue;
            }
            self.recv_cursor -= 1;
            self.population[self.recv_cursor] = m.clone();
            installed += 1;
        }
        installed
    }
}

/// Inserts a point into a running non-dominated set. Returns `true` iff
/// the set changed (the point was new and not dominated).
fn front_insert(front: &mut Vec<Vec<u64>>, p: &[u64]) -> bool {
    if front.iter().any(|q| q == p || dominates(q, p)) {
        return false;
    }
    front.retain(|q| !dominates(p, q));
    front.push(p.to_vec());
    true
}

impl SearchStrategy for IslandSearch {
    fn name(&self) -> &'static str {
        "island"
    }

    fn search(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        // Out-of-range parameters fail here, at the input barrier, not deep
        // inside a breeding generation.
        if let Err(err) = self.validate() {
            panic!("invalid island search: {err}");
        }
        assert!(!ctx.space.is_empty(), "cannot search an empty space");

        let mut evaluator = Evaluator::new(ctx);
        let mut islands: Vec<Island> = (0..self.islands)
            .map(|i| {
                let params = GeneticSearch {
                    population: self.population,
                    generations: self.generations,
                    mutation: self.mutation,
                    seed: island_seed(self.seed, i),
                };
                Island::new(params, ctx)
            })
            .collect();
        let edges = self.migration.edges(self.islands);

        for generation in 0..=self.generations {
            let _span = dmx_obs::span(dmx_obs::names::ISLAND_STEP, generation as u64);
            // One lockstep batch: all island populations, in island order.
            let mut spans: Vec<(usize, usize)> = Vec::with_capacity(self.islands);
            let mut batch: Vec<Genome> = Vec::new();
            for island in &islands {
                spans.push((batch.len(), island.population.len()));
                batch.extend_from_slice(&island.population);
            }
            let results = evaluator.eval_batch(&batch);
            super::record_generation_obs(
                generation as u64,
                self.generations as u64,
                &results,
                ctx.objectives,
            );

            // Sequential per-island tracking (deterministic).
            for (island, &(start, len)) in islands.iter_mut().zip(&spans) {
                for k in start..start + len {
                    let canonical = ctx.space.canonicalize(batch[k].clone());
                    if !island.evaluated.insert(canonical) {
                        continue;
                    }
                    let m = &results[k].metrics;
                    if m.feasible() {
                        let p: Vec<u64> = ctx.objectives.iter().map(|o| o.extract(m)).collect();
                        if front_insert(&mut island.front, &p) {
                            island.last_improved = generation;
                        }
                    }
                }
            }

            if generation == self.generations {
                break; // final populations evaluated; no more breeding
            }

            // Breeding is cheap index arithmetic on a private RNG, so the
            // islands advance in island order on this thread.
            for (island, &(start, len)) in islands.iter_mut().zip(&spans) {
                island.advance(ctx, &results[start..start + len]);
            }

            // Barrier migration on the configured cadence.
            if self.migrants > 0 && (generation + 1) % self.migrate_every == 0 {
                let mut total_installed = 0u64;
                {
                    let _span = dmx_obs::span(dmx_obs::names::MIGRATION, generation as u64);
                    let offers: Vec<Vec<Genome>> = islands
                        .iter()
                        .map(|s| s.elites.iter().take(self.migrants).cloned().collect())
                        .collect();
                    for &(src, dst) in &edges {
                        let installed = islands[dst].receive(&offers[src]);
                        islands[src].sent += offers[src].len();
                        islands[dst].received += installed;
                        total_installed += installed as u64;
                    }
                }
                dmx_obs::metrics().migrations.incr();
                dmx_obs::metrics().migrants_installed.add(total_installed);
            }
        }

        let mut outcome = evaluator.into_outcome(self.name());
        outcome.islands = islands
            .into_iter()
            .enumerate()
            .map(|(i, mut island)| {
                island.front.sort_unstable();
                IslandStats {
                    island: i,
                    kind: "genetic".to_owned(),
                    genomes: island.evaluated.len(),
                    front: island.front,
                    migrants_sent: island.sent,
                    migrants_received: island.received,
                    last_improved_generation: island.last_improved,
                    generations: self.generations,
                }
            })
            .collect();
        outcome
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::objective::Objective;
    use crate::study::{easyport_space, easyport_trace, StudyScale};
    use crate::Explorer;
    use dmx_memhier::presets;

    #[test]
    fn topologies_enumerate_expected_edges() {
        assert!(Migration::Ring.edges(1).is_empty());
        assert_eq!(Migration::Ring.edges(3), vec![(0, 1), (1, 2), (2, 0)]);
        assert_eq!(Migration::Ring.edges(2), vec![(0, 1), (1, 0)]);
        let full = Migration::Full.edges(3);
        assert_eq!(full.len(), 6);
        assert!(full.contains(&(2, 0)) && full.contains(&(0, 2)));
        assert_eq!(
            Migration::Star.edges(3),
            vec![(1, 0), (0, 1), (2, 0), (0, 2)]
        );
    }

    #[test]
    fn migration_parses_and_displays() {
        for m in [Migration::Ring, Migration::Full, Migration::Star] {
            assert_eq!(m.to_string().parse::<Migration>().unwrap(), m);
        }
        assert!("mesh".parse::<Migration>().is_err());
    }

    #[test]
    fn island_seeds_decorrelate_but_keep_island_zero() {
        assert_eq!(island_seed(42, 0), 42);
        assert_ne!(island_seed(42, 1), island_seed(42, 2));
    }

    #[test]
    fn front_insert_keeps_a_minimal_non_dominated_set() {
        let mut front = Vec::new();
        assert!(front_insert(&mut front, &[5, 5]));
        assert!(!front_insert(&mut front, &[5, 5]), "duplicate is no change");
        assert!(!front_insert(&mut front, &[6, 6]), "dominated is no change");
        assert!(front_insert(&mut front, &[1, 9]));
        assert!(front_insert(&mut front, &[4, 4]), "dominator replaces");
        assert!(!front.iter().any(|p| p == &vec![5, 5]));
        assert_eq!(front.len(), 2);
    }

    #[test]
    fn single_island_matches_plain_genetic_search() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);
        let ga = GeneticSearch {
            population: 12,
            generations: 5,
            mutation: 0.2,
            seed: 9,
        };
        let island = IslandSearch {
            islands: 1,
            population: 12,
            generations: 5,
            mutation: 0.2,
            seed: 9,
            ..IslandSearch::default()
        };
        let a = explorer.search(&ga, &space, &trace, &Objective::FIG1);
        let b = explorer.search(&island, &space, &trace, &Objective::FIG1);
        assert_eq!(a.genomes, b.genomes, "identical evaluated sets");
        assert_eq!(a.front.points, b.front.points);
        assert_eq!(a.evaluations, b.evaluations);
        assert_eq!(a.cache_hits, b.cache_hits, "even the planner accounting");
        assert_eq!(b.islands.len(), 1);
        assert_eq!(b.islands[0].migrants_sent, 0, "one island, no edges");
    }

    #[test]
    fn islands_migrate_and_report_stats() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);
        let island = IslandSearch {
            islands: 3,
            migration: Migration::Ring,
            migrate_every: 1,
            migrants: 2,
            population: 8,
            generations: 6,
            seed: 3,
            ..IslandSearch::default()
        };
        let outcome = explorer.search(&island, &space, &trace, &Objective::FIG1);
        assert_eq!(outcome.islands.len(), 3);
        assert!(
            outcome.islands.iter().any(|s| s.migrants_sent > 0),
            "ring edges with 6 migration rounds must offer elites"
        );
        let union: usize = outcome.islands.iter().map(|s| s.genomes).sum();
        assert!(
            union >= outcome.evaluations,
            "island genome counts cover the evaluated set"
        );
        for s in &outcome.islands {
            assert!(s.genomes > 0);
            assert!(s.last_improved_generation <= s.generations);
            assert!(!s.front.is_empty(), "island {} found nothing", s.island);
        }
    }

    #[test]
    fn out_of_range_island_parameters_fail_at_the_input_barrier() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);
        let bad = IslandSearch {
            islands: 2,
            mutation: 1.5,
            ..IslandSearch::default()
        };
        let result =
            std::panic::catch_unwind(|| explorer.search(&bad, &space, &trace, &Objective::FIG1));
        assert!(result.is_err(), "the mutation rate must be validated");
    }
}
