//! Elitist multi-objective genetic search over a genome space.
//!
//! An NSGA-style loop stripped to what the allocator-exploration problem
//! needs: non-dominated sorting plus crowding distance for selection
//! pressure, uniform per-axis crossover and ±1-step / uniform-redraw
//! mutation as the variation operators (all plain index arithmetic on the
//! [`Genome`], whatever its length — odometer indices and grammar codons
//! breed identically), and elitism by carrying the current non-dominated
//! individuals into the next generation unchanged. The
//! [`super::Evaluator`]'s memo table makes the elitist revisits free.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::param::Genome;
use crate::pareto::dominates;

use super::{Evaluator, SearchContext, SearchOutcome, SearchStrategy, StrategyError};

/// Genetic (evolutionary) exploration. Deterministic in `seed`.
#[derive(Debug, Clone, Copy)]
pub struct GeneticSearch {
    /// Individuals per generation (≥ 2).
    pub population: usize,
    /// Breeding cycles; the search evaluates `generations + 1` batches.
    pub generations: usize,
    /// Per-axis mutation probability in `[0, 1]`.
    pub mutation: f64,
    /// RNG seed; the whole run is a pure function of it.
    pub seed: u64,
}

impl Default for GeneticSearch {
    fn default() -> Self {
        GeneticSearch {
            population: 32,
            generations: 16,
            mutation: 0.2,
            seed: 42,
        }
    }
}

impl GeneticSearch {
    /// Checks the parameters a run needs: `population >= 2` and a
    /// mutation probability in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// The first parameter out of range.
    pub fn validate(&self) -> Result<(), StrategyError> {
        if self.population < 2 {
            return Err(StrategyError::PopulationTooSmall(self.population));
        }
        if !(0.0..=1.0).contains(&self.mutation) {
            return Err(StrategyError::MutationOutOfRange(self.mutation));
        }
        Ok(())
    }
}

/// Peels Pareto fronts off the point set: rank 0 is the non-dominated
/// front, rank 1 the front after removing rank 0, and so on. Infeasible
/// individuals (`None`) get `usize::MAX`. Shared with the island-model
/// steppers in [`super::island`].
fn non_dominated_ranks(points: &[Option<Vec<u64>>]) -> Vec<usize> {
    let mut ranks = vec![usize::MAX; points.len()];
    let mut assigned = points.iter().filter(|p| p.is_none()).count();
    let mut rank = 0;
    while assigned < points.len() {
        let mut this_front = Vec::new();
        'candidate: for (i, p) in points.iter().enumerate() {
            let Some(p) = p else { continue };
            if ranks[i] != usize::MAX {
                continue;
            }
            for (j, q) in points.iter().enumerate() {
                let Some(q) = q else { continue };
                if i != j && ranks[j] == usize::MAX && dominates(q, p) {
                    continue 'candidate;
                }
            }
            this_front.push(i);
        }
        for &i in &this_front {
            ranks[i] = rank;
        }
        assigned += this_front.len();
        rank += 1;
    }
    ranks
}

/// Crowding distance per individual, computed within each rank: boundary
/// points of a front get `f64::INFINITY`, interior points the sum of
/// normalized neighbor gaps per objective. Infeasible individuals get 0.
fn crowding_distances(points: &[Option<Vec<u64>>], ranks: &[usize]) -> Vec<f64> {
    let mut crowding = vec![0.0f64; points.len()];
    let max_rank = ranks
        .iter()
        .filter(|&&r| r != usize::MAX)
        .max()
        .copied()
        .unwrap_or(0);
    let dims = points.iter().flatten().map(Vec::len).next().unwrap_or(0);
    for rank in 0..=max_rank {
        let members: Vec<usize> = (0..points.len()).filter(|&i| ranks[i] == rank).collect();
        if members.len() <= 2 {
            for &i in &members {
                crowding[i] = f64::INFINITY;
            }
            continue;
        }
        for d in 0..dims {
            let mut order = members.clone();
            order.sort_by_key(|&i| points[i].as_ref().expect("ranked ⇒ feasible")[d]);
            let lo = points[order[0]].as_ref().expect("feasible")[d];
            let hi = points[*order.last().expect("non-empty")]
                .as_ref()
                .expect("feasible")[d];
            let span = (hi - lo) as f64;
            crowding[order[0]] = f64::INFINITY;
            crowding[*order.last().expect("non-empty")] = f64::INFINITY;
            if span == 0.0 {
                continue;
            }
            for w in order.windows(3) {
                let prev = points[w[0]].as_ref().expect("feasible")[d];
                let next = points[w[2]].as_ref().expect("feasible")[d];
                crowding[w[1]] += (next - prev) as f64 / span;
            }
        }
    }
    crowding
}

/// Binary tournament: lower rank wins; ties go to the larger crowding
/// distance, then to the lower index (for determinism).
fn tournament(rng: &mut StdRng, ranks: &[usize], crowding: &[f64]) -> usize {
    let n = ranks.len();
    let a = rng.gen_range(0..n);
    let b = rng.gen_range(0..n);
    if ranks[a] != ranks[b] {
        return if ranks[a] < ranks[b] { a } else { b };
    }
    if crowding[a] != crowding[b] {
        return if crowding[a] > crowding[b] { a } else { b };
    }
    a.min(b)
}

/// One generation's breeding output: the next population to evaluate and
/// the current non-dominated individuals (deduplicated, ordered by
/// crowding distance descending — the "elites" the island model migrates).
pub(crate) struct BreedOutcome {
    /// The next generation's population, canonical.
    pub next: Vec<Genome>,
    /// The current generation's rank-0 genomes, best-spread first.
    pub elites: Vec<Genome>,
}

impl GeneticSearch {
    fn random_genome(rng: &mut StdRng, ctx: &SearchContext<'_>) -> Genome {
        ctx.space.genome_at(rng.gen_range(0..ctx.space.len()))
    }

    /// The strategy's seeded RNG stream — one deterministic stream per
    /// seed, shared between [`Self::search`] and the island-model stepper
    /// so a 1-island run replays this strategy exactly.
    pub(crate) fn rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ 0x6E55_4741_5F64_6D78)
    }

    /// Draws the initial population (uniform over the space, clamped to
    /// the space size).
    pub(crate) fn initial_population(
        &self,
        rng: &mut StdRng,
        ctx: &SearchContext<'_>,
    ) -> Vec<Genome> {
        let pop_size = self.population.min(ctx.space.len());
        (0..pop_size)
            .map(|_| Self::random_genome(rng, ctx))
            .collect()
    }

    /// One generation of elitist NSGA-lite breeding over an evaluated
    /// population: rank + crowd, carry the non-dominated individuals,
    /// inject immigrants, fill with tournament-selected offspring. This is
    /// the exact loop body of [`Self::search`], extracted so the island
    /// model steps islands with byte-identical arithmetic.
    pub(crate) fn breed(
        &self,
        rng: &mut StdRng,
        ctx: &SearchContext<'_>,
        lens: &[usize],
        population: &[Genome],
        results: &[std::sync::Arc<crate::runner::RunResult>],
    ) -> BreedOutcome {
        let pop_size = population.len();
        let points: Vec<Option<Vec<u64>>> = results
            .iter()
            .map(|r| {
                r.metrics.feasible().then(|| {
                    ctx.objectives
                        .iter()
                        .map(|o| o.extract(&r.metrics))
                        .collect()
                })
            })
            .collect();
        let ranks = non_dominated_ranks(&points);
        let crowding = crowding_distances(&points, &ranks);

        // Elites: the current non-dominated individuals (deduplicated),
        // capped at half the population to keep exploring.
        let mut next: Vec<Genome> = Vec::with_capacity(pop_size);
        for i in 0..population.len() {
            if ranks[i] == 0 && !next.contains(&population[i]) && next.len() < pop_size / 2 {
                next.push(population[i].clone());
            }
        }

        // The full elite list for migration: every distinct rank-0 genome,
        // widest-spread first (deterministic tie-break on the genome).
        let mut elite_idx: Vec<usize> = (0..population.len()).filter(|&i| ranks[i] == 0).collect();
        elite_idx.sort_by(|&a, &b| {
            crowding[b]
                .partial_cmp(&crowding[a])
                .expect("crowding distances are never NaN")
                .then(population[a].cmp(&population[b]))
        });
        let mut elites: Vec<Genome> = Vec::new();
        for i in elite_idx {
            if !elites.contains(&population[i]) {
                elites.push(population[i].clone());
            }
        }

        // Immigrants: a few uniform random genomes per generation keep
        // the gene pool from collapsing around one front region.
        let immigrants = (pop_size / 8).max(1).min(pop_size - next.len());
        for _ in 0..immigrants {
            next.push(Self::random_genome(rng, ctx));
        }

        // Offspring: tournament-selected parents, uniform crossover,
        // mutation, canonicalization.
        while next.len() < pop_size {
            let pa = &population[tournament(rng, &ranks, &crowding)];
            let pb = &population[tournament(rng, &ranks, &crowding)];
            let mut child: Genome = vec![0; lens.len()];
            for d in 0..lens.len() {
                child[d] = if rng.gen_bool(0.5) { pa[d] } else { pb[d] };
            }
            self.mutate(rng, &mut child, lens);
            next.push(ctx.space.canonicalize(child));
        }
        BreedOutcome { next, elites }
    }

    /// Mutates one genome in place: each axis independently, with
    /// probability `self.mutation`, either steps ±1 (wrapping) along its
    /// axis or redraws uniformly — index arithmetic only.
    fn mutate(&self, rng: &mut StdRng, genome: &mut Genome, lens: &[usize]) {
        for (d, len) in lens.iter().enumerate() {
            if *len <= 1 || !rng.gen_bool(self.mutation) {
                continue;
            }
            if rng.gen_bool(0.5) {
                // ±1 odometer step with wraparound — neighboring values on
                // ordered axes (sizes, chunks) are usually similar.
                let step = if rng.gen_bool(0.5) { 1 } else { *len - 1 };
                genome[d] = (genome[d] + step) % len;
            } else {
                genome[d] = rng.gen_range(0..*len);
            }
        }
    }
}

impl SearchStrategy for GeneticSearch {
    fn name(&self) -> &'static str {
        "genetic"
    }

    fn search(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        if let Err(err) = self.validate() {
            panic!("invalid genetic search: {err}");
        }
        assert!(!ctx.space.is_empty(), "cannot search an empty space");

        let mut rng = self.rng();
        let mut evaluator = Evaluator::new(ctx);
        let lens = ctx.space.axis_lens();
        let mut population = self.initial_population(&mut rng, ctx);

        for generation in 0..=self.generations {
            let _span = dmx_obs::span(dmx_obs::names::GA_GENERATION, generation as u64);
            let results = evaluator.eval_batch(&population);
            super::record_generation_obs(
                generation as u64,
                self.generations as u64,
                &results,
                ctx.objectives,
            );
            if generation == self.generations {
                break; // final population evaluated; no more breeding
            }
            population = self.breed(&mut rng, ctx, &lens, &population, &results).next;
        }

        evaluator.into_outcome(self.name())
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
    fn rank_peeling_orders_fronts() {
        let points = vec![
            Some(vec![1, 10]),
            Some(vec![10, 1]),
            Some(vec![5, 5]),
            Some(vec![6, 6]), // dominated by [5,5]
            None,             // infeasible
        ];
        let ranks = non_dominated_ranks(&points);
        assert_eq!(ranks[0], 0);
        assert_eq!(ranks[1], 0);
        assert_eq!(ranks[2], 0);
        assert_eq!(ranks[3], 1);
        assert_eq!(ranks[4], usize::MAX);
    }

    #[test]
    fn crowding_prefers_spread() {
        let points = vec![
            Some(vec![0, 100]),
            Some(vec![50, 50]),
            Some(vec![55, 45]),
            Some(vec![100, 0]),
        ];
        let ranks = non_dominated_ranks(&points);
        assert!(ranks.iter().all(|&r| r == 0));
        let crowding = crowding_distances(&points, &ranks);
        assert_eq!(crowding[0], f64::INFINITY);
        assert_eq!(crowding[3], f64::INFINITY);
        // The isolated interior point beats the clustered one.
        assert!(crowding[1] > crowding[2]);
    }

    #[test]
    fn ga_is_deterministic_in_seed() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);
        let ga = GeneticSearch {
            population: 12,
            generations: 4,
            ..GeneticSearch::default()
        };
        let a = explorer.search(&ga, &space, &trace, &Objective::FIG1);
        let b = explorer.search(&ga, &space, &trace, &Objective::FIG1);
        let la: Vec<&str> = a
            .exploration
            .results
            .iter()
            .map(|r| r.label.as_str())
            .collect();
        let lb: Vec<&str> = b
            .exploration
            .results
            .iter()
            .map(|r| r.label.as_str())
            .collect();
        assert_eq!(la, lb, "same seed ⇒ identical evaluated set");
        assert_eq!(a.front.points, b.front.points);

        let c = explorer.search(
            &GeneticSearch { seed: 43, ..ga },
            &space,
            &trace,
            &Objective::FIG1,
        );
        let lc: Vec<&str> = c
            .exploration
            .results
            .iter()
            .map(|r| r.label.as_str())
            .collect();
        assert_ne!(la, lc, "different seed ⇒ different trajectory");
    }

    #[test]
    fn ga_recovers_most_of_the_quick_front_cheaply() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);

        let exhaustive = explorer.run(&space, &trace);
        let full_front = exhaustive.pareto(&Objective::FIG1);

        let ga = GeneticSearch {
            population: 16,
            generations: 6,
            ..GeneticSearch::default()
        };
        let outcome = explorer.search(&ga, &space, &trace, &Objective::FIG1);
        assert!(
            outcome.evaluations < space.len(),
            "GA must not degenerate into an exhaustive sweep ({} of {})",
            outcome.evaluations,
            space.len()
        );

        // Front recovery by hypervolume: the GA front must cover most of
        // the area the true front dominates (exact-membership counting is
        // too brittle on a tiny 80-config space; the `search_convergence`
        // bench enforces ≥90 % on a ≥5k-config space).
        let to_2d = |points: &[Vec<u64>]| -> Vec<(u64, u64)> {
            points.iter().map(|p| (p[0], p[1])).collect()
        };
        let coverage =
            crate::front_coverage_pct(&to_2d(&outcome.front.points), &to_2d(&full_front.points));
        assert!(
            coverage <= 100.0,
            "a guided front cannot beat the exhaustive one"
        );
        assert!(
            coverage >= 70.0,
            "GA should recover ≥70% of the front hypervolume, got {coverage:.1}%"
        );
    }
}
