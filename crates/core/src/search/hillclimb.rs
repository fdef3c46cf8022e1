//! Multi-restart hill-climbing over a genome space.
//!
//! Each restart draws a random weight vector over the objectives (so
//! different restarts walk toward different regions of the front), starts
//! from a random genome, and repeatedly moves to the best-scoring
//! neighbor. The neighborhood comes from the space itself
//! ([`GenomeSpace::neighbors`](crate::GenomeSpace::neighbors) — by
//! default every genome one ±1 axis step away, pure index arithmetic), so
//! each step examines at most `2 × axes` candidates, all evaluated as one
//! parallel, memoized batch. The outcome's front is computed over
//! *everything* any restart evaluated.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::param::Genome;
use crate::runner::RunResult;

use super::{Evaluator, SearchContext, SearchOutcome, SearchStrategy, StrategyError};

/// Weighted-scalarization hill climbing with random restarts.
/// Deterministic in `seed`.
#[derive(Debug, Clone, Copy)]
pub struct HillClimbSearch {
    /// Independent climbs, each with its own weight vector and start.
    pub restarts: usize,
    /// Step cap per climb (a safety bound; climbs usually converge first).
    pub max_steps: usize,
    /// RNG seed; the whole run is a pure function of it.
    pub seed: u64,
}

impl Default for HillClimbSearch {
    fn default() -> Self {
        HillClimbSearch {
            restarts: 8,
            max_steps: 64,
            seed: 42,
        }
    }
}

impl HillClimbSearch {
    /// Checks the parameters a run needs: at least one restart.
    ///
    /// # Errors
    ///
    /// [`StrategyError::NoRestarts`] when `restarts` is zero.
    pub fn validate(&self) -> Result<(), StrategyError> {
        if self.restarts == 0 {
            return Err(StrategyError::NoRestarts);
        }
        Ok(())
    }

    /// Weighted sum of the objectives, each normalized by the restart's
    /// starting value so no objective's magnitude dominates the blend.
    /// Infeasible configurations score `+inf` and are never moved to.
    fn score(result: &RunResult, ctx: &SearchContext<'_>, weights: &[f64], scales: &[f64]) -> f64 {
        if !result.metrics.feasible() {
            return f64::INFINITY;
        }
        ctx.objectives
            .iter()
            .zip(weights)
            .zip(scales)
            .map(|((o, w), s)| w * (o.extract(&result.metrics) as f64 / s))
            .sum()
    }
}

impl SearchStrategy for HillClimbSearch {
    fn name(&self) -> &'static str {
        "hillclimb"
    }

    fn search(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        if let Err(err) = self.validate() {
            panic!("invalid hill-climb search: {err}");
        }
        assert!(!ctx.space.is_empty(), "cannot search an empty space");

        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x6863_5F64_6D78_2B31);
        let mut evaluator = Evaluator::new(ctx);

        for _restart in 0..self.restarts {
            // A fresh direction: random positive weights per objective.
            let weights: Vec<f64> = ctx
                .objectives
                .iter()
                .map(|_| rng.gen_range(0.1..1.0))
                .collect();

            let mut current = ctx.space.genome_at(rng.gen_range(0..ctx.space.len()));
            let start = &evaluator.eval_batch(std::slice::from_ref(&current))[0];
            // Normalize by the starting point so objectives with larger raw
            // magnitudes (accesses vs. footprint) do not drown the rest.
            let scales: Vec<f64> = if start.metrics.feasible() {
                ctx.objectives
                    .iter()
                    .map(|o| (o.extract(&start.metrics) as f64).max(1.0))
                    .collect()
            } else {
                vec![1.0; ctx.objectives.len()]
            };
            let mut current_score = Self::score(start, ctx, &weights, &scales);

            for _step in 0..self.max_steps {
                let neighborhood = ctx.space.neighbors(&current);
                if neighborhood.is_empty() {
                    break;
                }
                let results = evaluator.eval_batch(&neighborhood);
                // Best neighbor; ties go to the lexicographically smallest
                // genome so the climb is deterministic.
                let mut best: Option<(f64, Genome)> = None;
                for (g, r) in neighborhood.iter().zip(&results) {
                    let s = Self::score(r, ctx, &weights, &scales);
                    let better = match &best {
                        None => true,
                        Some((bs, bg)) => s < *bs || (s == *bs && g < bg),
                    };
                    if better {
                        best = Some((s, g.clone()));
                    }
                }
                let (best_score, best_genome) = best.expect("non-empty neighborhood");
                if best_score < current_score {
                    current = best_genome;
                    current_score = best_score;
                } else {
                    break; // local optimum under this weight vector
                }
            }
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
    fn neighbors_differ_in_one_axis() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let inst = crate::search::EvalInstance::single(&hier, &trace);
        let ctx = SearchContext {
            space: &space,
            instances: std::slice::from_ref(&inst),
            aggregate: None,
            objectives: &Objective::FIG1,
            threads: 1,
            fidelity: None,
        };
        let g = space.genome_at(space.len() / 2);
        for n in ctx.space.neighbors(&g) {
            let diff: usize = g.iter().zip(&n).filter(|(a, b)| a != b).count();
            // Canonicalization may fold the placement axis along with the
            // stepped axis, so a neighbor differs in one or two coordinates.
            assert!((1..=2).contains(&diff), "{g:?} -> {n:?}");
        }
    }

    #[test]
    fn hillclimb_is_deterministic_and_cheap() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);
        let hc = HillClimbSearch {
            restarts: 4,
            ..HillClimbSearch::default()
        };
        let a = explorer.search(&hc, &space, &trace, &Objective::FIG1);
        let b = explorer.search(&hc, &space, &trace, &Objective::FIG1);
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
        assert_eq!(la, lb);
        assert!(!a.front.is_empty());
        assert!(
            a.evaluations < space.len(),
            "climbing must stay below the exhaustive sweep"
        );
    }

    #[test]
    fn hillclimb_improves_over_its_starts() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);
        let outcome = explorer.search(
            &HillClimbSearch::default(),
            &space,
            &trace,
            &Objective::FIG1,
        );
        // The front over everything evaluated must be real: no evaluated
        // point may dominate a front point.
        let (_, points) = outcome.exploration.objective_points(&Objective::FIG1);
        for f in &outcome.front.points {
            assert!(
                !points.iter().any(|p| crate::pareto::dominates(p, f)),
                "front point {f:?} is dominated"
            );
        }
    }
}
