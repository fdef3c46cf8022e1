//! Multi-fidelity screening: successive-halving prefix rungs plus an
//! optional k-NN surrogate in front of the full-fidelity evaluator.
//!
//! The paper's spaces explode combinatorially while the interesting
//! region — the Pareto front — stays tiny, so most full-trace
//! simulations are spent confirming that a candidate is mediocre. This
//! module cuts that cost the way successive halving does: every fresh
//! genome of a batch first replays only a *prefix* of the workload
//! ([`dmx_trace::CompiledTrace::prefix`]) on the cheapest rung of a
//! [`FidelityPlan`], the candidates are ranked Pareto-aware on their
//! prefix metrics (domination count first, a normalized scalarized score
//! as the tie-break), and only the best 40% are promoted to the next rung
//! (and eventually to the full-trace simulation). Once enough
//! full-fidelity results accumulate, an optional k-nearest-neighbor
//! surrogate over normalized genome distance short-circuits the lowest
//! rung entirely — ranking costs a lookup, not a replay.
//!
//! Two structural guarantees keep this safe:
//!
//! * **fronts are full-fidelity-only** — every rung has its own memo
//!   table, keyed on the genome; prefix results live in the screening
//!   rungs' tables and never reach the full-trace rung's table, which is
//!   the only source [`super::Evaluator::into_outcome`] drains; a
//!   screened-out candidate can bias *where* the search looks next, but
//!   never what the outcome reports;
//! * **screened-out candidates are visibly worse** — the stand-in
//!   results handed back to the strategy are marked infeasible, so
//!   selection (NSGA ranks) treats them exactly as
//!   "do not pursue", rather than comparing prefix-scale metrics
//!   against full-trace ones.

use std::collections::HashMap;
use std::sync::Arc;

use dmx_trace::CompiledTrace;

use crate::objective::Objective;
use crate::param::Genome;
use crate::runner::RunResult;

use super::{eval_rung, RunKind, RungTable, SearchContext, SimStats};

/// The screening rungs' trace fractions, lowest first; the full-trace
/// rung the [`super::Evaluator`] itself runs follows them.
const SCREENING_FRACTIONS: [f64; 2] = [0.2, 0.5];

/// Fraction of candidates promoted past each screening rung.
const KEEP: f64 = 0.4;

/// Neighbors the k-NN surrogate consults per prediction; it stays silent
/// until it has observed this many full results.
const KNN_K: usize = 8;

/// The successive-halving schedule of a multi-fidelity search: every
/// fresh genome first replays the 20% and then the 50% prefix of each
/// workload, and after each screening rung only the best
/// `ceil(0.4 × candidates)` genomes are promoted. Tuned on the
/// 6912-config convergence space (the `search_efficiency` bench): ≥5x
/// fewer full-trace simulations than the all-full GA at ≥99% of its
/// front hypervolume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FidelityPlan {
    /// Whether an 8-neighbor k-NN surrogate over observed full results
    /// may short-circuit the lowest rung once it has seen 8 of them.
    pub surrogate: bool,
}

impl FidelityPlan {
    /// The schedule with the k-NN surrogate on.
    pub fn halving() -> Self {
        FidelityPlan { surrogate: true }
    }

    /// The screening fractions: every rung below the full-fidelity 1.0.
    pub fn screening_fractions(&self) -> &'static [f64] {
        &SCREENING_FRACTIONS
    }
}

/// Screening statistics for one rung of a [`FidelityPlan`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RungStats {
    /// Candidates that entered this rung (summed over batches; a genome
    /// screened out and re-proposed later counts again).
    pub screened: usize,
    /// Candidates promoted past this rung.
    pub promoted: usize,
    /// Candidates ranked by the surrogate instead of a prefix replay.
    pub surrogate_hits: usize,
}

/// What the multi-fidelity layer did during one search — attached to
/// [`super::SearchOutcome::fidelity`] when a [`FidelityPlan`] was active.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FidelityStats {
    /// The screening fractions, lowest first (parallel to `rungs`).
    pub fractions: Vec<f64>,
    /// Per-screening-rung counts, lowest fraction first.
    pub rungs: Vec<RungStats>,
    /// Total candidates ranked by the surrogate across all batches.
    pub surrogate_hits: usize,
    /// Full-trace simulator entries in the outcome (distinct genomes ×
    /// instances) — the cost the screening rungs existed to shrink.
    pub full_simulations: usize,
    /// Workload instances every promoted genome is simulated on.
    pub instances: usize,
}

impl FidelityStats {
    /// Full-trace simulations the screening rungs avoided: the genomes
    /// that entered the first rung minus those promoted past the last,
    /// times the instances each would have been simulated on. The same
    /// unit as [`Self::full_simulations`].
    pub fn avoided(&self) -> usize {
        match (self.rungs.first(), self.rungs.last()) {
            (Some(first), Some(last)) => {
                first.screened.saturating_sub(last.promoted) * self.instances
            }
            _ => 0,
        }
    }
}

/// k-nearest-neighbor surrogate: a cheap stand-in model over observed
/// full-fidelity results that ranks candidates before any simulation.
/// It predicts each objective of a candidate as the mean over its
/// [`KNN_K`] closest observed genomes, with per-axis distances normalized by the
/// space's axis lengths so wide axes do not dominate narrow ones.
///
/// Predictions only order candidates; they never produce metrics that
/// reach an outcome. Deterministic: same observation sequence, same
/// predictions, and ties in distance break on the genome ordering.
#[derive(Debug)]
pub(crate) struct KnnSurrogate {
    /// Per-axis domain sizes of the genome space (distance normalizer).
    axis_lens: Vec<f64>,
    /// Observations in arrival order (arrival order is deterministic:
    /// the evaluator observes survivors in batch order).
    points: Vec<(Genome, Arc<RunResult>)>,
}

impl KnnSurrogate {
    /// A fresh model over a space with the given per-axis domain sizes.
    pub(crate) fn new(axis_lens: &[usize]) -> Self {
        KnnSurrogate {
            axis_lens: axis_lens.iter().map(|&n| (n as f64).max(1.0)).collect(),
            points: Vec::new(),
        }
    }

    /// Squared normalized distance between two genomes (monotone in the
    /// true distance, so the `sqrt` is skipped).
    fn distance(&self, a: &[usize], b: &[usize]) -> f64 {
        a.iter()
            .zip(b)
            .zip(&self.axis_lens)
            .map(|((&x, &y), &n)| {
                let d = (x as f64 - y as f64) / n;
                d * d
            })
            .sum()
    }

    /// Indices of the [`KNN_K`] observations nearest to `genome`, closest
    /// first, ties broken on the observed genome.
    fn neighbors(&self, genome: &[usize]) -> Vec<usize> {
        let mut order: Vec<(f64, usize)> = self
            .points
            .iter()
            .enumerate()
            .map(|(i, (g, _))| (self.distance(genome, g), i))
            .collect();
        order.sort_by(|a, b| {
            a.0.total_cmp(&b.0)
                .then_with(|| self.points[a.1].0.cmp(&self.points[b.1].0))
        });
        order.truncate(KNN_K);
        order.into_iter().map(|(_, i)| i).collect()
    }

    /// Records one full-fidelity observation (called once per distinct
    /// genome that completed a full simulation, in deterministic order).
    pub(crate) fn observe(&mut self, genome: &Genome, result: &Arc<RunResult>) {
        if self.points.iter().any(|(g, _)| g == genome) {
            return;
        }
        self.points.push((genome.clone(), result.clone()));
    }

    /// `true` once the model has enough observations to rank a batch.
    pub(crate) fn ready(&self) -> bool {
        self.points.len() >= KNN_K
    }

    /// Predicted objective values of `genome` (one per objective, lower
    /// is better; `f64::INFINITY` entries flag predicted-infeasible), or
    /// `None` while the model is not [`Self::ready`]. Per-objective
    /// vectors — rather than one scalar — let the screener rank by
    /// Pareto dominance, so candidates that are extreme on one objective
    /// are not culled for being mediocre on a weighted sum.
    pub(crate) fn predict(&self, genome: &Genome, objectives: &[Objective]) -> Option<Vec<f64>> {
        if !self.ready() {
            return None;
        }
        let mut totals = vec![0.0f64; objectives.len()];
        for i in self.neighbors(genome) {
            let r = &self.points[i].1;
            if !r.metrics.feasible() {
                // An infeasible neighborhood predicts an infeasible
                // candidate: rank it last.
                return Some(vec![f64::INFINITY; objectives.len()]);
            }
            for (t, o) in totals.iter_mut().zip(objectives) {
                *t += o.extract(&r.metrics) as f64;
            }
        }
        Some(totals.into_iter().map(|t| t / KNN_K as f64).collect())
    }

    /// The observed result nearest to `genome` — the stand-in base for
    /// surrogate-screened candidates. `None` while not ready.
    pub(crate) fn nearest(&self, genome: &Genome) -> Option<Arc<RunResult>> {
        if !self.ready() {
            return None;
        }
        self.neighbors(genome)
            .first()
            .map(|&i| self.points[i].1.clone())
    }
}

/// One screening rung: every context instance's trace cut to the rung's
/// fraction, in instance order, and the rung's memo table.
#[derive(Debug)]
struct PrefixRung {
    traces: Vec<CompiledTrace>,
    table: RungTable,
}

/// The screening engine the [`super::Evaluator`] drives when its context
/// carries a [`FidelityPlan`]: it owns the prefix rungs, the optional
/// [`KnnSurrogate`], and the running [`FidelityStats`]. Strategies never
/// see this type — screening is invisible except through the stand-in
/// results and the outcome stats.
#[derive(Debug)]
pub(crate) struct MultiFidelityEvaluator {
    /// One rung per screening fraction, lowest first.
    rungs: Vec<PrefixRung>,
    surrogate: Option<KnnSurrogate>,
    stats: FidelityStats,
}

impl MultiFidelityEvaluator {
    /// Builds the screening engine for a context: cuts every instance
    /// trace once per screening rung (O(events) each, paid once per
    /// search) and instantiates the plan's surrogate.
    pub(crate) fn new(plan: FidelityPlan, ctx: &SearchContext<'_>) -> Self {
        let rungs = SCREENING_FRACTIONS
            .iter()
            .map(|&fraction| PrefixRung {
                traces: ctx
                    .instances
                    .iter()
                    .map(|inst| {
                        inst.trace
                            .prefix(fraction)
                            .expect("screening fractions are in (0, 1]")
                    })
                    .collect(),
                table: RungTable::new(),
            })
            .collect();
        MultiFidelityEvaluator {
            rungs,
            surrogate: plan
                .surrogate
                .then(|| KnnSurrogate::new(&ctx.space.axis_lens())),
            stats: FidelityStats {
                fractions: SCREENING_FRACTIONS.to_vec(),
                rungs: vec![RungStats::default(); SCREENING_FRACTIONS.len()],
                surrogate_hits: 0,
                full_simulations: 0,
                instances: ctx.instances.len(),
            },
        }
    }

    /// The statistics of the whole search, completed with the
    /// full-simulation count only the [`super::Evaluator`] knows.
    pub(super) fn into_stats(self, full_simulations: usize) -> FidelityStats {
        FidelityStats {
            full_simulations,
            ..self.stats
        }
    }

    /// Feeds the full-trace rung's results for `genomes` to the
    /// surrogate, in the (deterministic) order the batch promoted them.
    pub(super) fn observe_full(&mut self, genomes: &[Genome], full: &RungTable) {
        if let Some(surrogate) = &mut self.surrogate {
            for g in genomes {
                surrogate.observe(g, &full[g].folded);
            }
        }
    }

    /// Screens a batch of fresh genomes down the plan's rungs. Returns
    /// the survivors (in their original relative order — promotion must
    /// not reorder what the evaluator simulates) and an
    /// infeasible-marked stand-in result for every screened-out genome.
    pub(super) fn screen(
        &mut self,
        ctx: &SearchContext<'_>,
        fresh: Vec<Genome>,
        sim_stats: &mut SimStats,
    ) -> (Vec<Genome>, HashMap<Genome, Arc<RunResult>>) {
        let mut candidates = fresh;
        let mut stand_ins: HashMap<Genome, Arc<RunResult>> = HashMap::new();
        for r in 0..self.rungs.len() {
            let entered = candidates.len();
            let keep_n = ((entered as f64 * KEEP).ceil() as usize).max(1);
            if keep_n >= entered {
                // Nothing would be cut — promote everyone without
                // spending a single prefix replay.
                self.stats.rungs[r].screened += entered;
                self.stats.rungs[r].promoted += entered;
                dmx_obs::metrics().fidelity_screened.add(entered as u64);
                dmx_obs::metrics().fidelity_promoted.add(entered as u64);
                continue;
            }
            let _span = dmx_obs::span(dmx_obs::names::EVAL_SCREEN, entered as u64);

            // The surrogate may take over the lowest rung once ready —
            // all-or-nothing per batch, so one ranking never mixes
            // surrogate predictions with prefix measurements.
            let predictions: Option<Vec<Vec<f64>>> = match &self.surrogate {
                Some(s) if r == 0 && s.ready() => Some(
                    candidates
                        .iter()
                        .map(|g| {
                            s.predict(g, ctx.objectives)
                                .expect("ready surrogate always predicts")
                        })
                        .collect(),
                ),
                _ => None,
            };
            let (values, replayed): (Vec<Vec<f64>>, Option<Vec<Arc<RunResult>>>) = match predictions
            {
                Some(values) => {
                    self.stats.rungs[r].surrogate_hits += entered;
                    self.stats.surrogate_hits += entered;
                    dmx_obs::metrics()
                        .fidelity_surrogate_hits
                        .add(entered as u64);
                    (values, None)
                }
                None => {
                    let results = self.rungs[r].replay(ctx, &candidates, sim_stats);
                    let values = objective_values(&results, ctx.objectives);
                    (values, Some(results))
                }
            };

            let order = screening_order(&values, &candidates);
            let mut kept = vec![false; entered];
            for &i in &order[..keep_n] {
                kept[i] = true;
            }
            let mut survivors = Vec::with_capacity(keep_n);
            for (i, g) in candidates.into_iter().enumerate() {
                if kept[i] {
                    survivors.push(g);
                    continue;
                }
                let base = match &replayed {
                    Some(results) => results[i].clone(),
                    None => self.surrogate_nearest(ctx, &g),
                };
                stand_ins.insert(g, stand_in(&base));
            }
            self.stats.rungs[r].screened += entered;
            self.stats.rungs[r].promoted += survivors.len();
            dmx_obs::metrics().fidelity_screened.add(entered as u64);
            dmx_obs::metrics()
                .fidelity_promoted
                .add(survivors.len() as u64);
            candidates = survivors;
        }
        (candidates, stand_ins)
    }

    /// The nearest observed full result, as the stand-in base for a
    /// surrogate-screened genome.
    fn surrogate_nearest(&self, ctx: &SearchContext<'_>, genome: &Genome) -> Arc<RunResult> {
        let neighbor = self
            .surrogate
            .as_ref()
            .and_then(|s| s.nearest(genome))
            .expect("surrogate scored this batch, so it is ready");
        // The neighbor's metrics under this genome's own identity: the
        // stand-in must label the candidate, not its neighbor.
        let config = ctx.space.config_at(ctx.instances[0].hierarchy, genome);
        let label = config.label();
        Arc::new(RunResult {
            config,
            label,
            metrics: neighbor.metrics.clone(),
        })
    }
}

impl PrefixRung {
    /// Replays `candidates` on this rung — those not in its table yet —
    /// and returns one (robust-folded) prefix result per candidate, in
    /// candidate order.
    fn replay(
        &mut self,
        ctx: &SearchContext<'_>,
        candidates: &[Genome],
        sim_stats: &mut SimStats,
    ) -> Vec<Arc<RunResult>> {
        for trace in &self.traces {
            dmx_obs::metrics()
                .fidelity_prefix_events
                .record(trace.len() as u64);
        }
        let todo: Vec<Genome> = candidates
            .iter()
            .filter(|g| !self.table.contains_key(*g))
            .cloned()
            .collect();
        let traces: Vec<&CompiledTrace> = self.traces.iter().collect();
        *sim_stats += eval_rung(ctx, &traces, &mut self.table, &todo, RunKind::Screening);
        candidates
            .iter()
            .map(|g| Arc::clone(&self.table[g].folded))
            .collect()
    }
}

/// Extracts a rung's per-candidate objective vectors (lower is better);
/// infeasible candidates get all-`+∞` vectors and always rank last.
fn objective_values(results: &[Arc<RunResult>], objectives: &[Objective]) -> Vec<Vec<f64>> {
    results
        .iter()
        .map(|r| {
            if !r.metrics.feasible() {
                return vec![f64::INFINITY; objectives.len()];
            }
            objectives
                .iter()
                .map(|o| o.extract(&r.metrics) as f64)
                .collect()
        })
        .collect()
}

/// The promotion order of one screening rung: candidate indices from
/// most to least promising, deterministically.
///
/// Primary key is the *domination count* (how many other candidates
/// Pareto-dominate this one) rather than a weighted sum: a multi-objective
/// front needs its extremes, and a candidate that is excellent on one
/// objective but mediocre on another would be culled by any
/// scalarization while no other candidate actually dominates it.
/// Ties break on an equal-weight scalarized score (normalized by the
/// rung's per-objective feasible minimum), then
/// on the genome so the promotion set never depends on arrival order.
fn screening_order(values: &[Vec<f64>], candidates: &[Genome]) -> Vec<usize> {
    let n = values.len();
    let feasible = |v: &[f64]| v.iter().all(|x| x.is_finite());
    let mut dominated_by = vec![0usize; n];
    for (i, a) in values.iter().enumerate() {
        if !feasible(a) {
            dominated_by[i] = usize::MAX;
            continue;
        }
        for b in values.iter() {
            if feasible(b)
                && a.iter().zip(b).all(|(x, y)| y <= x)
                && a.iter().zip(b).any(|(x, y)| y < x)
            {
                dominated_by[i] += 1;
            }
        }
    }
    let scales: Vec<f64> = (0..values.first().map_or(0, Vec::len))
        .map(|o| {
            let min = values
                .iter()
                .filter(|v| feasible(v))
                .map(|v| v[o])
                .fold(f64::INFINITY, f64::min);
            if min.is_finite() {
                min.max(1.0)
            } else {
                1.0
            }
        })
        .collect();
    let score = |v: &[f64]| -> f64 {
        if !feasible(v) {
            return f64::INFINITY;
        }
        v.iter().zip(&scales).map(|(x, s)| x / s).sum()
    };
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&i, &j| {
        dominated_by[i]
            .cmp(&dominated_by[j])
            .then_with(|| score(&values[i]).total_cmp(&score(&values[j])))
            .then_with(|| candidates[i].cmp(&candidates[j]))
    });
    order
}

/// A screened-out candidate's stand-in: the best low-fidelity estimate
/// available, marked infeasible so no selection operator prefers it over
/// a fully simulated survivor (prefix-scale metrics are not comparable
/// with full-trace ones). Stand-ins are returned from
/// [`super::Evaluator::eval_batch`] but never stored, so they cannot
/// reach an outcome or a front.
fn stand_in(base: &RunResult) -> Arc<RunResult> {
    let mut metrics = base.metrics.clone();
    metrics.failures = metrics.failures.max(1);
    Arc::new(RunResult {
        config: base.config.clone(),
        label: base.label.clone(),
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSpace;
    use crate::search::{EvalInstance, Evaluator, GeneticSearch, SearchStrategy};
    use crate::study::{easyport_space, easyport_trace, StudyScale};
    use dmx_memhier::presets;

    fn quick_ctx<'a>(
        space: &'a ParamSpace,
        inst: &'a EvalInstance<'a>,
        plan: Option<FidelityPlan>,
    ) -> SearchContext<'a> {
        SearchContext {
            space,
            instances: std::slice::from_ref(inst),
            aggregate: None,
            objectives: &Objective::FIG1,
            threads: 4,
            fidelity: plan,
        }
    }

    #[test]
    fn one_genome_batch_skips_screening() {
        // ceil(0.4 × 1) keeps the only candidate, so neither rung cuts
        // anything: no prefix replay runs and the batch returns the
        // exact result of a fidelity-off evaluator.
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let inst = EvalInstance::single(&hier, &trace);
        let batch = [space.genome_at(5)];
        let off_ctx = quick_ctx(&space, &inst, None);
        let mut off = Evaluator::new(&off_ctx);
        let on_ctx = quick_ctx(&space, &inst, Some(FidelityPlan::halving()));
        let mut on = Evaluator::new(&on_ctx);
        let want = off.eval_batch(&batch);
        let got = on.eval_batch(&batch);
        assert_eq!(got[0].label, want[0].label);
        assert_eq!(got[0].metrics, want[0].metrics);
        let (on_sim, off_sim) = (on.sim_stats(), off.sim_stats());
        assert_eq!(on_sim.screen_runs, 0, "no prefix replay");
        assert_eq!(on_sim.screen_events, 0);
        assert_eq!((on_sim.runs, on_sim.events), (off_sim.runs, off_sim.events));
        let outcome = on.into_outcome("subsample");
        let stats = outcome.fidelity.expect("plan was active");
        let pass = RungStats {
            screened: 1,
            promoted: 1,
            surrogate_hits: 0,
        };
        assert_eq!(stats.rungs, vec![pass; 2]);
        assert_eq!(stats.full_simulations, 1);
        assert_eq!(stats.avoided(), 0);
    }

    #[test]
    fn screening_cuts_full_simulations_and_returns_infeasible_stand_ins() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let inst = EvalInstance::single(&hier, &trace);
        let ctx = quick_ctx(&space, &inst, Some(FidelityPlan { surrogate: false }));
        let mut evaluator = Evaluator::new(&ctx);
        let genomes: Vec<Genome> = (0..40.min(space.len()))
            .map(|i| space.genome_at(i))
            .collect();
        let results = evaluator.eval_batch(&genomes);
        assert_eq!(results.len(), genomes.len());
        // 40 → ceil(16) → ceil(7): only ~7 candidates reach the full
        // simulator; everything else comes back as an infeasible stand-in
        // and is never stored.
        let full = evaluator.evaluations();
        assert!(
            full < genomes.len() / 2,
            "screening kept {full} of {}",
            genomes.len()
        );
        let stand_ins = results.iter().filter(|r| !r.metrics.feasible()).count();
        assert!(stand_ins >= genomes.len() - full);
        let outcome = evaluator.into_outcome("subsample");
        assert_eq!(outcome.evaluations, full);
        // The kernel counters keep full simulations and prefix replays
        // apart: each screened genome is one run per rung.
        let sim = outcome.sim_stats;
        assert_eq!(sim.runs, outcome.simulations as u64);
        assert_eq!(sim.events, sim.runs * inst.trace.len() as u64);
        let prefix_len = |f: f64| inst.trace.prefix(f).expect("valid rung").len() as u64;
        // Everything the outcome reports really ran at full fidelity.
        assert!(outcome
            .exploration
            .results
            .iter()
            .all(|r| r.metrics.feasible()));
        let stats = outcome.fidelity.expect("plan was active");
        assert_eq!(stats.fractions, vec![0.2, 0.5]);
        assert_eq!(stats.rungs[0].screened, genomes.len());
        assert_eq!(stats.rungs[1].screened, stats.rungs[0].promoted);
        assert_eq!(stats.full_simulations, full);
        assert_eq!(stats.avoided(), genomes.len() - full, "one instance");
        let (s0, s1) = (
            stats.rungs[0].screened as u64,
            stats.rungs[1].screened as u64,
        );
        assert_eq!(sim.screen_runs, s0 + s1);
        assert_eq!(
            sim.screen_events,
            s0 * prefix_len(0.2) + s1 * prefix_len(0.5)
        );
    }

    #[test]
    fn avoided_counts_screened_out_genomes_in_simulation_units() {
        // The embedded-mix genetic halving run: 373 genomes enter the 20%
        // rung, 70 survive the 50% rung, and each survivor costs 6
        // scenario simulations.
        let rung = |screened, promoted| RungStats {
            screened,
            promoted,
            surrogate_hits: 0,
        };
        let stats = FidelityStats {
            fractions: vec![0.2, 0.5],
            rungs: vec![rung(373, 158), rung(158, 70)],
            surrogate_hits: 0,
            full_simulations: 420,
            instances: 6,
        };
        assert_eq!(stats.avoided(), 1818);
        let unscreened = FidelityStats {
            instances: 6,
            ..FidelityStats::default()
        };
        assert_eq!(unscreened.avoided(), 0, "no screening rungs");
    }

    #[test]
    fn screening_is_deterministic_across_thread_counts() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let inst = EvalInstance::single(&hier, &trace);
        let ga = GeneticSearch {
            population: 16,
            generations: 6,
            ..GeneticSearch::default()
        };
        let run = |threads: usize| {
            let mut ctx = quick_ctx(&space, &inst, Some(FidelityPlan::halving()));
            ctx.threads = threads;
            ga.search(&ctx)
        };
        let one = run(1);
        let eight = run(8);
        assert_eq!(one.genomes, eight.genomes);
        assert_eq!(one.front.points, eight.front.points);
        assert_eq!(one.simulations, eight.simulations);
        assert_eq!(one.fidelity, eight.fidelity);
    }

    #[test]
    fn surrogate_takes_over_the_lowest_rung_once_warm() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let inst = EvalInstance::single(&hier, &trace);
        let ga = GeneticSearch {
            population: 16,
            generations: 6,
            ..GeneticSearch::default()
        };
        let outcome = ga.search(&quick_ctx(&space, &inst, Some(FidelityPlan::halving())));
        let stats = outcome.fidelity.expect("plan was active");
        assert!(
            stats.surrogate_hits > 0,
            "k={KNN_K} must warm up within 6 generations: {stats:?}"
        );
        assert_eq!(stats.rungs[0].surrogate_hits, stats.surrogate_hits);
        assert_eq!(stats.rungs[1].surrogate_hits, 0, "only the lowest rung");
    }

    #[test]
    fn knn_score_is_independent_of_observation_order() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let inst = EvalInstance::single(&hier, &trace);
        let ctx = quick_ctx(&space, &inst, None);
        let mut evaluator = Evaluator::new(&ctx);
        let genomes: Vec<Genome> = (0..KNN_K + 4).map(|i| space.genome_at(i)).collect();
        let results = evaluator.eval_batch(&genomes);

        let axis_lens = space.axis_lens();
        let mut forward = KnnSurrogate::new(&axis_lens);
        let mut backward = KnnSurrogate::new(&axis_lens);
        let probe = space.genome_at(40.min(space.len() - 1));
        for (seen, (g, r)) in genomes.iter().zip(&results).enumerate() {
            // Silent until it has observed k results.
            let ready = forward.predict(&probe, &Objective::FIG1).is_some();
            assert_eq!(ready, seen >= KNN_K, "after {seen} observations");
            forward.observe(g, r);
        }
        for (g, r) in genomes.iter().zip(&results).rev() {
            backward.observe(g, r);
        }
        let a = forward.predict(&probe, &Objective::FIG1);
        let b = backward.predict(&probe, &Objective::FIG1);
        assert!(a.is_some());
        assert_eq!(a, b);
        assert_eq!(
            forward.nearest(&probe).map(|r| r.label.clone()),
            backward.nearest(&probe).map(|r| r.label.clone())
        );
    }
}
