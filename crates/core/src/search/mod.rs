//! Guided exploration of the configuration space.
//!
//! The paper's spaces reach tens of thousands of configurations; an
//! exhaustive sweep ([`crate::Explorer::run`]) scales linearly with the
//! space while the Pareto front it is after stays tiny. This module adds
//! *guided* search: strategies that decide which configurations to
//! simulate next based on what they have already seen, unified behind one
//! [`SearchStrategy`] trait so exhaustive, subsampled and genetic
//! exploration are interchangeable at every call site (CLI, studies,
//! benches).
//!
//! The genotype is a plain coordinate vector ([`Genome`]) addressed
//! through a [`crate::GenomeSpace`]: crossover and mutation
//! are plain index arithmetic, and
//! [`crate::GenomeSpace::genome_at`] /
//! [`crate::GenomeSpace::config_at`] convert
//! between index and configuration — the paper's 8-axis odometer space
//! ([`crate::ParamSpace`]) and the grammar-derivation space
//! ([`crate::GrammarSpace`]) run through identical strategy code. All
//! evaluations go through one [`Evaluator`], which keeps a private memo
//! table per fidelity rung keyed on the canonical genome, so revisits —
//! the common case in GA populations — cost a hash lookup instead of a
//! simulation, and each batch evaluates in parallel through one fan-out.
//! The exhaustive sweeps evaluate through it too.
//!
//! A [`SearchContext`] carries one *or several* [`EvalInstance`]s.
//! Without an [`Aggregate`] policy this is the classic single-workload
//! exploration. With one (set by the [`crate::scenario`] layer from a
//! scenario suite — whatever the suite's size) every genome is simulated
//! on **every** instance, instance constraints apply, and the
//! per-scenario metrics fold through the policy into one robust result —
//! the strategies optimize robust objectives without knowing scenarios
//! exist.
//!
//! Every strategy is deterministic in its seed: same seed, same space,
//! same workloads → byte-identical results.
//!
//! # Example
//!
//! ```
//! use dmx_core::search::{GeneticSearch, SearchStrategy};
//! use dmx_core::{Explorer, Objective, ParamSpace};
//! use dmx_memhier::presets;
//! use dmx_trace::gen::{EasyportConfig, TraceGenerator};
//! use dmx_trace::TraceStats;
//!
//! let hier = presets::sp64k_dram4m();
//! let trace = EasyportConfig::small().generate(7);
//! let stats = TraceStats::compute(&trace);
//! let space = ParamSpace::suggest(&stats, &hier);
//!
//! let ga = GeneticSearch {
//!     population: 16,
//!     generations: 4,
//!     ..GeneticSearch::default()
//! };
//! let outcome = Explorer::new(&hier).search(&ga, &space, &trace, &Objective::FIG1);
//! assert!(!outcome.front.is_empty());
//! // The GA simulated only a fraction of the space…
//! assert!(outcome.evaluations <= space.len());
//! // …and every result it reports really is a configuration of the space.
//! assert_eq!(outcome.exploration.results.len(), outcome.evaluations);
//! ```

mod fidelity;
mod genetic;
mod queue;

pub use fidelity::{FidelityPlan, FidelityStats, RungStats};
pub use genetic::GeneticSearch;

use queue::simulate_jobs;

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::ops::AddAssign;
use std::sync::Arc;

use dmx_alloc::Simulator;
use dmx_memhier::MemoryHierarchy;
use dmx_trace::{CompiledTrace, OpSizeIndex, Trace};

use crate::constraint::ConstraintSet;
use crate::objective::Objective;
use crate::param::Genome;
use crate::pareto::{dominates, pareto_front, ParetoSet};
use crate::runner::{Exploration, RunResult};
use crate::sample::sample_indices;
use crate::scenario::{aggregate_metrics, Aggregate, ScenarioMetrics};
use crate::space::GenomeSpace;

use fidelity::MultiFidelityEvaluator;

/// Updates the per-generation observability gauges: the generation
/// counter/gauges plus — when the context has at least two objectives —
/// the current non-dominated count and a hypervolume proxy (‰ of the
/// bounding box spanned by the generation's points). Read by the CLI's
/// `--progress` reporter; never read by any search decision, so it
/// cannot perturb results (the zero-perturbation rule).
pub(crate) fn record_generation_obs(
    generation: u64,
    total: u64,
    results: &[Arc<RunResult>],
    objectives: &[Objective],
) {
    let m = dmx_obs::metrics();
    m.search_generations.incr();
    m.generation.set(generation as i64);
    m.generations_total.set(total as i64);
    if objectives.len() < 2 || results.is_empty() {
        return;
    }
    let points: Vec<Vec<u64>> = results
        .iter()
        .map(|r| {
            objectives[..2]
                .iter()
                .map(|o| o.extract(&r.metrics))
                .collect()
        })
        .collect();
    let front: Vec<(u64, u64)> = pareto_front(&points)
        .points
        .iter()
        .map(|p| (p[0], p[1]))
        .collect();
    m.front_size.set(front.len() as i64);
    let bound = |k: usize| {
        points
            .iter()
            .map(|p| p[k])
            .max()
            .unwrap_or(0)
            .saturating_add(1)
    };
    let reference = (bound(0), bound(1));
    let volume = crate::sample::hypervolume_2d(&front, reference);
    let bbox = u128::from(reference.0) * u128::from(reference.1);
    m.hv_permille.set((volume * 1000 / bbox.max(1)) as i64);
}

/// The evaluation worker-thread budget for this process: the
/// `DMX_THREADS` environment variable when set to a positive integer,
/// otherwise the machine's available parallelism. [`crate::Explorer::new`]
/// and [`crate::MultiScenarioEvaluator::new`] size their
/// [`SearchContext::threads`] with this, so one variable pins the whole
/// pipeline to a thread count — CI runs the suite at 1 and 8 workers to
/// prove results never depend on it.
///
/// An unparseable or zero `DMX_THREADS` falls back to the core count and
/// warns **once** on stderr — silently ignoring it would let a CI-matrix
/// typo change the worker count without a trace.
pub fn thread_budget() -> usize {
    let raw = std::env::var("DMX_THREADS").ok();
    let (budget, rejected) = parse_thread_budget(raw.as_deref());
    if let Some(bad) = rejected {
        static WARNED: std::sync::Once = std::sync::Once::new();
        WARNED.call_once(|| {
            eprintln!(
                "warning: ignoring invalid DMX_THREADS={bad:?} \
                 (expected a positive integer); using {budget} threads"
            );
        });
    }
    budget
}

/// The pure half of [`thread_budget`]: the budget for a raw
/// `DMX_THREADS` value, plus the rejected value when it was set but not
/// a positive integer (the caller warns about it).
fn parse_thread_budget(raw: Option<&str>) -> (usize, Option<&str>) {
    let fallback = || {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    };
    match raw {
        None => (fallback(), None),
        Some(v) => match v.parse::<usize>() {
            Ok(n) if n >= 1 => (n, None),
            _ => (fallback(), Some(v)),
        },
    }
}

/// One (platform, workload) pair a configuration is evaluated on.
///
/// Single-workload search uses exactly one instance
/// ([`EvalInstance::single`]); the scenario layer builds one per scenario
/// of a suite, with the scenario's weight and optional admissibility
/// constraints.
///
/// The workload is carried as an [`Arc<CompiledTrace>`]: compiled once
/// (per workload, per run) and shared by reference with every evaluation
/// worker — cloning an instance clones a pointer, never the event stream.
#[derive(Debug, Clone)]
pub struct EvalInstance<'a> {
    /// Display name (the trace name, or the scenario name in suites).
    pub name: &'a str,
    /// The platform configurations are simulated on.
    pub hierarchy: &'a MemoryHierarchy,
    /// The compiled workload every configuration replays, shared across
    /// workers.
    pub trace: Arc<CompiledTrace>,
    /// Weight under [`Aggregate::Weighted`] folding (> 0).
    pub weight: f64,
    /// Scenario admissibility constraints; a configuration rejected here
    /// counts as infeasible *in this instance* when folding.
    pub constraints: Option<&'a ConstraintSet>,
}

impl<'a> EvalInstance<'a> {
    /// The classic single-workload instance: named after the trace,
    /// weight 1, no constraints. Compiles the trace (one O(events) pass).
    pub fn single(hierarchy: &'a MemoryHierarchy, trace: &'a Trace) -> Self {
        EvalInstance {
            name: trace.name(),
            hierarchy,
            trace: CompiledTrace::compile_shared(trace),
            weight: 1.0,
            constraints: None,
        }
    }
}

/// Which kind of replay a simulation fan-out runs, so [`SimStats`] can
/// report full simulations and screening replays apart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum RunKind {
    /// Whole-trace simulations: the results outcomes and fronts hold.
    Full,
    /// Prefix replays of the multi-fidelity screening rungs.
    Screening,
}

/// Aggregate simulation-kernel statistics for one search run, reported by
/// `dmx explore --sim-stats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// Trace events replayed by full simulations.
    pub events: u64,
    /// Full simulations: one per genome × instance simulated on the
    /// whole trace (equals [`SearchOutcome::simulations`]).
    pub runs: u64,
    /// Trace events replayed by pruned replays before they stopped.
    pub pruned_events: u64,
    /// Pruned replays: one per configuration the pruned
    /// [`ExhaustiveSearch`] stopped once a front point dominated it (one
    /// per [`SearchOutcome::pruned`] entry).
    pub pruned_runs: u64,
    /// Trace events pruned replays skipped: each one's events after the
    /// point where it stopped.
    pub skipped_events: u64,
    /// Trace events replayed by screening runs.
    pub screen_events: u64,
    /// Screening runs: one per genome × prefix instance replayed by a
    /// multi-fidelity rung. 0 without a [`FidelityPlan`].
    pub screen_runs: u64,
    /// Runs of either kind that reused an existing
    /// [`dmx_alloc::SimArena`] slab instead of allocating a fresh one.
    pub arena_reuses: u64,
    /// Wall-clock nanoseconds spent inside simulation fan-outs of either
    /// kind.
    pub nanos: u64,
}

impl AddAssign for SimStats {
    fn add_assign(&mut self, other: SimStats) {
        self.events += other.events;
        self.runs += other.runs;
        self.pruned_events += other.pruned_events;
        self.pruned_runs += other.pruned_runs;
        self.skipped_events += other.skipped_events;
        self.screen_events += other.screen_events;
        self.screen_runs += other.screen_runs;
        self.arena_reuses += other.arena_reuses;
        self.nanos += other.nanos;
    }
}

impl SimStats {
    /// Replay throughput in events per second over replays of every kind
    /// (0 when nothing ran).
    pub fn events_per_sec(&self) -> f64 {
        if self.nanos == 0 {
            0.0
        } else {
            (self.events + self.pruned_events + self.screen_events) as f64 * 1e9 / self.nanos as f64
        }
    }

    /// Renders the one-line `--sim-stats` report. Lives here — not in
    /// the CLI — so every explore path (single-workload, robust-suite,
    /// any future consumer) prints the *same* format and CI can grep
    /// both with one pattern. Cache hits ride along from the search
    /// outcome because the kernel cannot see them.
    pub fn render(&self, cache_hits: usize) -> String {
        format!(
            "sim stats: {} events replayed in {} full simulations, \
             {} events in {} pruned replays ({} events skipped), \
             {} events in {} screening runs, {:.0} events/sec, \
             {} arena reuses, {} cache hits",
            self.events,
            self.runs,
            self.pruned_events,
            self.pruned_runs,
            self.skipped_events,
            self.screen_events,
            self.screen_runs,
            self.events_per_sec(),
            self.arena_reuses,
            cache_hits,
        )
    }
}

/// Everything a strategy needs to explore: the space, the workload
/// instance(s) to evaluate on, how per-instance metrics fold, the
/// objectives to optimize, and how many evaluation workers it may use.
#[derive(Debug, Clone, Copy)]
pub struct SearchContext<'a> {
    /// The genome space under exploration (the odometer [`crate::ParamSpace`],
    /// the [`crate::GrammarSpace`], or any other [`GenomeSpace`]).
    pub space: &'a dyn GenomeSpace,
    /// The workload instances every configuration is evaluated on
    /// (non-empty; one for classic search, one per scenario for suites).
    pub instances: &'a [EvalInstance<'a>],
    /// `Some` switches on robust (scenario) mode: per-instance metrics
    /// fold through the policy — applying instance constraints — and the
    /// outcome carries per-instance explorations. `None` is the classic
    /// single-workload mode (exactly one instance, raw results).
    pub aggregate: Option<Aggregate>,
    /// The objectives the search minimizes (also used for the outcome's
    /// Pareto front).
    pub objectives: &'a [Objective],
    /// Worker threads for batch evaluation (≥ 1).
    pub threads: usize,
    /// `Some` switches on multi-fidelity screening: fresh genomes are
    /// first ranked on cheap trace prefixes (and, once warm, a
    /// surrogate), and only the best 40% of each rung reach the next.
    /// `None` evaluates everything at full fidelity.
    pub fidelity: Option<FidelityPlan>,
}

/// What a search run produces.
#[derive(Debug, Clone)]
pub struct SearchOutcome {
    /// Strategy name (for reports).
    pub strategy: String,
    /// Every *distinct* configuration the search evaluated, in
    /// deterministic (genome) order — a drop-in [`Exploration`] for the
    /// existing reporting/export pipeline. In multi-instance contexts the
    /// metrics are the *robust* (aggregated) ones.
    pub exploration: Exploration,
    /// The canonical genome behind each `exploration.results` entry, in
    /// the same order — the cross-scenario identity of a configuration
    /// (labels are per-platform and may differ between scenarios).
    pub genomes: Vec<Genome>,
    /// Distinct configurations the search settled: those simulated to
    /// the end plus those [`Self::pruned`] proved off the front. An
    /// exhaustive search therefore reports the whole space.
    pub evaluations: usize,
    /// Simulator runs to the end of the trace: one per
    /// `exploration.results` entry and instance (pruned replays are not
    /// counted).
    pub simulations: usize,
    /// Evaluation requests served from the evaluator's memo table instead
    /// of the simulator.
    pub cache_hits: usize,
    /// The Pareto front over everything evaluated, on the context's
    /// objectives (robust objectives in multi-instance contexts). Indices
    /// refer to `exploration.results`. Empty when the context has no
    /// objectives.
    pub front: ParetoSet,
    /// Per-instance result sets for multi-instance contexts, parallel to
    /// the context's instances; each exploration's results are in the same
    /// genome order as the robust `exploration`. Empty for single-instance
    /// search.
    pub scenario_explorations: Vec<Exploration>,
    /// Simulation-kernel statistics (events replayed, throughput, arena
    /// reuse) accumulated over every batch of the search.
    pub sim_stats: SimStats,
    /// What the multi-fidelity layer did, when the context carried a
    /// [`FidelityPlan`]. `None` for full-fidelity searches.
    pub fidelity: Option<FidelityStats>,
    /// The configurations the pruned [`ExhaustiveSearch`] stopped
    /// replaying because a finished front point already dominated a
    /// lower bound on their final metrics, in genome order. None of them
    /// is in `exploration.results`. Empty for every other strategy.
    pub pruned: Vec<PrunedConfig>,
}

/// A configuration whose replay the pruned [`ExhaustiveSearch`] stopped
/// early: the lower bound on its final objective vector
/// ([`dmx_alloc::ReplayState::bound`]: the metrics so far plus the
/// application accesses, the allocator-metadata floor and the CPU cost
/// of the pool ops still to come, at the cheapest level's figures) was
/// strictly dominated by a feasible front point of an earlier wave.
///
/// The bound holds for every replay that ends feasible, so if this
/// configuration's full replay is feasible, [`Self::dominated_by`]
/// strictly dominates its final metrics. A replay that would later have
/// failed an allocation charges no metadata or accesses for that block
/// and can end below the bound; such a configuration is infeasible and
/// cannot be on the front either, but it need not be dominated by the
/// named point.
#[derive(Debug, Clone, PartialEq)]
pub struct PrunedConfig {
    /// The configuration's canonical genome.
    pub genome: Genome,
    /// Its label.
    pub label: String,
    /// Pool ops replayed when the replay stopped: a positive multiple of
    /// the sweep's check stride, [`prune_check_ops`] of the trace's pool
    /// op count.
    pub stopped_at_op: usize,
    /// Fraction of the trace's events replayed when the replay stopped.
    pub trace_fraction: f64,
    /// Label of the front point that dominated its bound — and its
    /// final metrics, if its full replay is feasible.
    pub dominated_by: String,
}

/// Pool ops a pruned replay runs between two dominance checks on a trace
/// of `pool_ops` pool ops: 1/256 of the trace, clamped to 64..=1024
/// (194 on the full-length Easyport trace, 64 on short ones). A check
/// prices a whole [`dmx_alloc::ReplayState::bound`], so it is not free;
/// scaling with the trace keeps the checks per replay near 256, where a
/// fixed stride would check a short trace only a few times.
pub fn prune_check_ops(pool_ops: usize) -> usize {
    (pool_ops / 256).clamp(64, 1024)
}

/// Configurations per wave of the pruned exhaustive sweep: the first
/// waves double in size, and every later wave is as large as the last
/// entry. Small first waves give the sweep front points to prune
/// against sooner — the first wave is never checked, so it starts at 2:
/// a larger one can hold an infeasible configuration with a large free
/// list that then replays nearly to the end. Full-size waves leave the
/// fan-out work to balance. A constant, not a function of the worker
/// count: the waves, like the [`spread_order`] they cut and the
/// [`prune_check_ops`] stride, depend only on the space size and the
/// trace, so the incumbents every wave is checked against — and with
/// them the pruned set — are the same at any `DMX_THREADS`.
const PRUNE_WAVES: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Splits `len` configurations into the consecutive index ranges of the
/// [`PRUNE_WAVES`] schedule.
fn prune_waves(len: usize) -> impl Iterator<Item = std::ops::Range<usize>> {
    let sizes = PRUNE_WAVES
        .iter()
        .copied()
        .chain(std::iter::repeat(PRUNE_WAVES[PRUNE_WAVES.len() - 1]));
    let mut start = 0;
    sizes.map_while(move |size| {
        (start < len).then(|| {
            let wave = start..(start + size).min(len);
            start = wave.end;
            wave
        })
    })
}

/// The order in which the pruned sweep settles a space of `n`
/// configurations: the `i`-th one settled is enumeration index
/// `(i·p) mod n`, where `p` is the first integer at or above
/// ⌊0.618·n⌋ that is coprime to `n`. A golden-ratio stride spreads every
/// run of consecutive visits over the whole space, so the first waves
/// find incumbents across it instead of in one corner; being coprime to
/// `n`, it visits every index exactly once.
fn spread_order(n: usize) -> impl Iterator<Item = usize> {
    let stride = (n * 618 / 1000..)
        .find(|&p| gcd(p, n) == 1)
        .expect("a stride coprime to n exists");
    std::iter::successors(Some(0), move |&i| Some((i + stride) % n)).take(n)
}

/// The greatest common divisor of `a` and `b` (`gcd(a, 0) == a`).
fn gcd(mut a: usize, mut b: usize) -> usize {
    while b != 0 {
        (a, b) = (b, a % b);
    }
    a
}

/// Where the replays of one pruned sweep check their bound, and what
/// they price it with. Built once per sweep from its trace.
struct PruneChecks {
    /// Pool ops between two checks ([`prune_check_ops`]).
    stride: usize,
    /// The events consumed at each check
    /// ([`CompiledTrace::events_at_op_strides`]).
    events: Vec<usize>,
    /// The trace's per-size op index the bound's floors are priced with.
    sizes: OpSizeIndex,
}

impl PruneChecks {
    fn new(trace: &CompiledTrace) -> Self {
        let stride = prune_check_ops(trace.pool_ops().len());
        PruneChecks {
            stride,
            events: trace.events_at_op_strides(stride),
            sizes: OpSizeIndex::new(trace),
        }
    }
}

/// An incumbent of the pruned sweep: a feasible non-dominated result of
/// an earlier wave, with its objective vector and the label a pruned
/// configuration names as its dominator.
#[derive(Debug)]
struct Incumbent {
    point: Vec<u64>,
    label: String,
}

/// How one replay of the pruned sweep ended.
enum Settled {
    /// Ran to the end of the trace.
    Full(RunResult),
    /// Stopped early, with the events it had replayed.
    Pruned(PrunedConfig, usize),
}

/// Why a strategy's parameters cannot run, as reported by
/// [`GeneticSearch::validate`]. Callers that take parameters from users
/// (the CLI) validate first; the strategy's `search` panics on the same
/// conditions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StrategyError {
    /// Fewer than two individuals per generation.
    PopulationTooSmall(usize),
}

impl fmt::Display for StrategyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StrategyError::PopulationTooSmall(n) => {
                write!(f, "population must be at least 2, got {n}")
            }
        }
    }
}

impl std::error::Error for StrategyError {}

/// A pluggable exploration strategy over a [`GenomeSpace`].
///
/// Implementations decide *which* configurations to simulate;
/// [`Evaluator`] decides *how* (parallel, memoized, robust-folded). All
/// three built-in strategies — [`ExhaustiveSearch`], [`SubsampleSearch`]
/// and [`GeneticSearch`] — are deterministic in their seed.
///
/// # Example
///
/// A trivial custom strategy that only looks at the first `n`
/// configurations of the space:
///
/// ```
/// use dmx_core::search::{SearchContext, SearchOutcome, SearchStrategy, Evaluator};
/// use dmx_core::{Explorer, Objective, ParamSpace};
/// use dmx_memhier::presets;
/// use dmx_trace::gen::{EasyportConfig, TraceGenerator};
/// use dmx_trace::TraceStats;
///
/// struct FirstN(usize);
///
/// impl SearchStrategy for FirstN {
///     fn name(&self) -> &'static str {
///         "first-n"
///     }
///     fn search(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
///         let mut evaluator = Evaluator::new(ctx);
///         let genomes: Vec<_> = (0..self.0.min(ctx.space.len()))
///             .map(|i| ctx.space.genome_at(i))
///             .collect();
///         evaluator.eval_batch(&genomes);
///         evaluator.into_outcome(self.name())
///     }
/// }
///
/// let hier = presets::sp64k_dram4m();
/// let trace = EasyportConfig::small().generate(1);
/// let stats = TraceStats::compute(&trace);
/// let space = ParamSpace::suggest(&stats, &hier);
/// let outcome = Explorer::new(&hier).search(&FirstN(5), &space, &trace, &Objective::FIG1);
/// assert_eq!(outcome.evaluations, 5);
/// ```
pub trait SearchStrategy {
    /// Short strategy name for reports ("exhaustive", "genetic", …).
    fn name(&self) -> &'static str;

    /// Runs the search over `ctx` and returns everything it evaluated
    /// plus the resulting front.
    fn search(&self, ctx: &SearchContext<'_>) -> SearchOutcome;
}

/// One genome evaluated on one fidelity rung.
#[derive(Debug)]
struct Entry {
    /// One result per context instance, in instance order.
    parts: Vec<Arc<RunResult>>,
    /// What the strategy sees: the parts folded through the context's
    /// [`Aggregate`] in robust mode, the single part itself (the same
    /// `Arc`) in classic mode.
    folded: Arc<RunResult>,
}

/// The memo table of one fidelity rung, keyed on the canonical genome.
type RungTable = HashMap<Genome, Entry>;

/// Evaluates `genomes` — canonical, distinct and not yet in `table` — on
/// one fidelity rung: simulates each on every trace of the rung (one per
/// context instance, in instance order) through one instance-major
/// fan-out, folds each genome's per-instance results, and stores both in
/// `table`. Returns the fan-out's kernel counters, booked as `kind`.
fn eval_rung(
    ctx: &SearchContext<'_>,
    traces: &[&CompiledTrace],
    table: &mut RungTable,
    genomes: &[Genome],
    kind: RunKind,
) -> SimStats {
    // Instance-major jobs, so a worker's contiguous chunk stays on one
    // trace. The traces are borrowed — no worker ever clones an event
    // stream.
    let n = genomes.len();
    let (results, stats) = simulate_jobs(kind, traces.len() * n, ctx.threads, |j, arena| {
        let hierarchy = ctx.instances[j / n].hierarchy;
        let config = ctx.space.config_at(hierarchy, &genomes[j % n]);
        let metrics = Simulator::new(hierarchy)
            .run_in_arena(&config, traces[j / n], arena)
            .expect("space genomes materialize to valid configurations");
        RunResult {
            label: config.label(),
            config,
            metrics,
        }
    });
    let mut parts: Vec<Vec<Arc<RunResult>>> = vec![Vec::new(); n];
    for (j, result) in results.into_iter().enumerate() {
        parts[j % n].push(Arc::new(result));
    }
    for (genome, parts) in genomes.iter().zip(parts) {
        // The fold runs even for a one-scenario suite so that scenario
        // constraints apply. The representative config and label come
        // from the first instance; the genome is the cross-platform
        // identity (see `SearchOutcome::genomes`).
        let folded = match ctx.aggregate {
            None => Arc::clone(&parts[0]),
            Some(aggregate) => {
                let scenarios: Vec<ScenarioMetrics<'_>> = ctx
                    .instances
                    .iter()
                    .zip(&parts)
                    .map(|(inst, r)| ScenarioMetrics {
                        metrics: &r.metrics,
                        weight: inst.weight,
                        admissible: inst.constraints.is_none_or(|c| c.accepts(&r.metrics)),
                    })
                    .collect();
                Arc::new(RunResult {
                    config: parts[0].config.clone(),
                    label: parts[0].label.clone(),
                    metrics: aggregate_metrics(aggregate, &scenarios),
                })
            }
        };
        table.insert(genome.clone(), Entry { parts, folded });
    }
    stats
}

/// Memoized, parallel batch evaluator — the engine under every strategy.
///
/// Each [`Self::eval_batch`] call canonicalizes the genomes, simulates the
/// not-yet-seen ones on every instance in parallel (through
/// `simulate_jobs`, the one fan-out), folds them through the context's
/// [`Aggregate`] in robust (scenario) mode, and returns one result per
/// input genome in input order. Every genome is simulated at most once:
/// the evaluator keeps one private memo table per fidelity rung, and the
/// full-trace rung's table is the only source of the outcome.
#[derive(Debug)]
pub struct Evaluator<'a> {
    ctx: SearchContext<'a>,
    /// The full-trace rung: every genome simulated on the whole traces.
    table: RungTable,
    /// Evaluation requests served from `table` (or by an earlier
    /// duplicate in the same batch) instead of the simulator.
    cache_hits: usize,
    /// Kernel counters summed over every fan-out so far.
    sim_stats: SimStats,
    /// The multi-fidelity screening engine, when the context carries a
    /// [`FidelityPlan`]. Screens fresh genomes *before* they reach the
    /// full-trace rung; its prefix rungs keep their own tables, so
    /// fronts stay full-fidelity-only.
    screener: Option<MultiFidelityEvaluator>,
    /// Configurations the pruned sweep stopped early, in settle order.
    pruned: Vec<PrunedConfig>,
    /// The pruned sweep's incumbents: the feasible non-dominated points
    /// among the results of the waves settled so far, in settle order.
    incumbents: Vec<Incumbent>,
}

impl<'a> Evaluator<'a> {
    /// A fresh evaluator (empty tables) over the context's space and
    /// workload instances.
    ///
    /// # Panics
    ///
    /// Panics if the context has no instances, or several instances were
    /// given without an [`Aggregate`] to fold them.
    pub fn new(ctx: &SearchContext<'a>) -> Self {
        assert!(!ctx.instances.is_empty(), "need at least one instance");
        assert!(
            ctx.aggregate.is_some() || ctx.instances.len() == 1,
            "multiple instances need an aggregate policy to fold them"
        );
        Evaluator {
            ctx: *ctx,
            table: RungTable::new(),
            cache_hits: 0,
            sim_stats: SimStats::default(),
            screener: ctx
                .fidelity
                .map(|plan| MultiFidelityEvaluator::new(plan, ctx)),
            pruned: Vec::new(),
            incumbents: Vec::new(),
        }
    }

    /// Aggregate simulation-kernel statistics so far.
    pub fn sim_stats(&self) -> SimStats {
        self.sim_stats
    }

    /// Evaluation requests served without a simulation so far.
    pub fn cache_hits(&self) -> usize {
        self.cache_hits
    }

    /// Distinct configurations settled so far: simulated to the end or
    /// pruned.
    pub fn evaluations(&self) -> usize {
        self.table.len() + self.pruned.len()
    }

    /// Settles one wave of the pruned exhaustive sweep: `genomes` are
    /// canonical, distinct and fresh. Every replay checks after each
    /// `checks.stride` pool ops whether the objective vector of its
    /// [`dmx_alloc::ReplayState::bound`] is strictly dominated by a
    /// point of the incumbents the earlier waves left, and stops if it
    /// is. The incumbents change only between waves, so the outcome does
    /// not depend on which worker ran which replay.
    fn eval_wave(&mut self, genomes: &[Genome], checks: &PruneChecks) {
        let _span = dmx_obs::span(dmx_obs::names::EVAL_BATCH, genomes.len() as u64);
        dmx_obs::metrics().eval_batches.incr();
        dmx_obs::metrics().eval_fresh.add(genomes.len() as u64);
        let ctx = self.ctx;
        let hierarchy = ctx.instances[0].hierarchy;
        let trace: &CompiledTrace = &ctx.instances[0].trace;
        let sim = Simulator::new(hierarchy);
        let incumbents = &self.incumbents;
        // With nothing to compare against, checking would be wasted work.
        let checkpoints = if incumbents.is_empty() {
            &[][..]
        } else {
            &checks.events[..]
        };
        let (settled, mut stats) =
            simulate_jobs(RunKind::Full, genomes.len(), ctx.threads, |j, arena| {
                let config = ctx.space.config_at(hierarchy, &genomes[j]);
                let mut replay = sim
                    .start(&config, trace, arena)
                    .expect("space genomes materialize to valid configurations");
                for (m, &events) in checkpoints.iter().enumerate() {
                    replay.advance((m + 1) * checks.stride);
                    let bound = replay.bound(&checks.sizes);
                    let point: Vec<u64> =
                        ctx.objectives.iter().map(|o| o.extract(&bound)).collect();
                    if let Some(dominator) = incumbents.iter().find(|b| dominates(&b.point, &point))
                    {
                        let pruned = PrunedConfig {
                            genome: genomes[j].clone(),
                            label: config.label(),
                            stopped_at_op: replay.position(),
                            trace_fraction: events as f64 / trace.len() as f64,
                            dominated_by: dominator.label.clone(),
                        };
                        return Settled::Pruned(pruned, events);
                    }
                }
                Settled::Full(RunResult {
                    label: config.label(),
                    metrics: replay.finish(),
                    config,
                })
            });
        for (genome, settled) in genomes.iter().zip(settled) {
            match settled {
                Settled::Full(result) => {
                    let result = Arc::new(result);
                    if result.metrics.feasible() {
                        self.add_incumbent(&result);
                    }
                    let entry = Entry {
                        parts: vec![Arc::clone(&result)],
                        folded: result,
                    };
                    self.table.insert(genome.clone(), entry);
                }
                Settled::Pruned(pruned, events) => {
                    stats.pruned_runs += 1;
                    stats.pruned_events += events as u64;
                    stats.skipped_events += (trace.len() - events) as u64;
                    self.pruned.push(pruned);
                }
            }
        }
        self.sim_stats += stats;
    }

    /// Adds a feasible full result to the incumbents, unless one
    /// dominates or equals it, and drops the incumbents it dominates.
    fn add_incumbent(&mut self, result: &RunResult) {
        let point: Vec<u64> = self
            .ctx
            .objectives
            .iter()
            .map(|o| o.extract(&result.metrics))
            .collect();
        if self
            .incumbents
            .iter()
            .any(|b| b.point == point || dominates(&b.point, &point))
        {
            return;
        }
        self.incumbents.retain(|b| !dominates(&point, &b.point));
        self.incumbents.push(Incumbent {
            point,
            label: result.label.clone(),
        });
    }

    /// Evaluates a batch of genomes, returning one shared result per
    /// genome in input order. Already-seen configurations come out of the
    /// table; new ones are simulated in parallel — on every workload
    /// instance — and folded into robust results.
    pub fn eval_batch(&mut self, genomes: &[Genome]) -> Vec<Arc<RunResult>> {
        let _span = dmx_obs::span(dmx_obs::names::EVAL_BATCH, genomes.len() as u64);
        dmx_obs::metrics().eval_batches.incr();
        let canonical: Vec<Genome> = genomes
            .iter()
            .map(|g| self.ctx.space.canonicalize(g.clone()))
            .collect();

        // Collect the distinct genomes this batch sees for the first time.
        // A duplicate of a genome already scheduled in this batch counts as
        // a cache hit: one simulation serves both requests.
        let mut fresh: Vec<Genome> = Vec::new();
        let mut seen: HashSet<Genome> = HashSet::new();
        for g in &canonical {
            if seen.contains(g) || self.table.contains_key(g) {
                dmx_obs::metrics().cache_hits.incr();
                dmx_obs::instant(dmx_obs::names::CACHE_HIT, 0);
                self.cache_hits += 1;
            } else {
                dmx_obs::metrics().cache_misses.incr();
                dmx_obs::instant(dmx_obs::names::CACHE_MISS, 0);
                seen.insert(g.clone());
                fresh.push(g.clone());
            }
        }

        // Multi-fidelity screening: rank the fresh genomes on cheap
        // prefix rungs (or the surrogate) and let only the survivors
        // reach the full-trace rung below. Screened-out genomes get an
        // infeasible-marked stand-in that is returned to the strategy
        // but never stored — outcomes stay full-fidelity-only.
        let (fresh, stand_ins) = match &mut self.screener {
            Some(mf) if !fresh.is_empty() => mf.screen(&self.ctx, fresh, &mut self.sim_stats),
            _ => (fresh, HashMap::new()),
        };

        dmx_obs::metrics().eval_fresh.add(fresh.len() as u64);
        dmx_obs::metrics().batch_fresh.record(fresh.len() as u64);
        let traces: Vec<&CompiledTrace> = self.ctx.instances.iter().map(|i| &*i.trace).collect();
        self.sim_stats += eval_rung(&self.ctx, &traces, &mut self.table, &fresh, RunKind::Full);

        // Feed the surrogate with the survivors' full-fidelity results,
        // in batch order (deterministic, so predictions are too).
        if let Some(mf) = &mut self.screener {
            mf.observe_full(&fresh, &self.table);
        }

        canonical
            .iter()
            .map(|g| {
                self.table
                    .get(g)
                    .map(|e| Arc::clone(&e.folded))
                    .or_else(|| stand_ins.get(g).cloned())
                    .expect("batch member was just evaluated or screened")
            })
            .collect()
    }

    /// Consumes the evaluator into a [`SearchOutcome`]: every distinct
    /// evaluated configuration in deterministic genome order, plus the
    /// Pareto front on the context's objectives. Robust (scenario) mode
    /// additionally gets one per-instance [`Exploration`] each, in the
    /// same genome order as the robust one.
    pub fn into_outcome(self, strategy: &str) -> SearchOutcome {
        let ctx = self.ctx;
        let simulations = self.table.len() * ctx.instances.len();
        let fidelity = self.screener.map(|mf| mf.into_stats(simulations));
        let mut entries: Vec<(Genome, Entry)> = self.table.into_iter().collect();
        entries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));

        // The strategies have dropped their batch results by now, so the
        // folded `Arc`s are usually unique and move out without cloning —
        // the exhaustive sweep's result set is large enough that a
        // transient second copy would matter.
        let mut columns: Vec<Vec<RunResult>> = match ctx.aggregate {
            None => Vec::new(),
            Some(_) => ctx.instances.iter().map(|_| Vec::new()).collect(),
        };
        let mut genomes = Vec::with_capacity(entries.len());
        let mut results = Vec::with_capacity(entries.len());
        for (genome, Entry { parts, folded }) in entries {
            // The loop consumes `parts`: in classic mode (no columns) its
            // one part is `folded` itself, which is then unique. Robust
            // per-instance results are copied rather than moved out: the
            // copies are compact, and freeing the originals with the table
            // measured a lower peak RSS on suite searches.
            for (column, part) in columns.iter_mut().zip(parts) {
                column.push(RunResult::clone(&part));
            }
            genomes.push(genome);
            results.push(Arc::unwrap_or_clone(folded));
        }
        let workload = match ctx.aggregate {
            None => ctx.instances[0].name.to_owned(),
            Some(aggregate) => {
                let names: Vec<&str> = ctx.instances.iter().map(|i| i.name).collect();
                format!("robust[{aggregate}]({})", names.join("+"))
            }
        };
        let scenario_explorations: Vec<Exploration> = ctx
            .instances
            .iter()
            .zip(columns)
            .map(|(inst, results)| Exploration {
                workload: inst.name.to_owned(),
                results,
            })
            .collect();
        let mut pruned = self.pruned;
        pruned.sort_unstable_by(|a, b| a.genome.cmp(&b.genome));
        let evaluations = results.len() + pruned.len();
        let exploration = Exploration { workload, results };
        // No objectives, nothing to rank on; and a front pass over points
        // that cannot dominate each other would cost O(n²).
        let front = if ctx.objectives.is_empty() {
            ParetoSet::default()
        } else {
            exploration.pareto(ctx.objectives)
        };
        SearchOutcome {
            strategy: strategy.to_owned(),
            evaluations,
            simulations,
            cache_hits: self.cache_hits,
            exploration,
            genomes,
            front,
            scenario_explorations,
            sim_stats: self.sim_stats,
            fidelity,
            pruned,
        }
    }
}

/// The exhaustive baseline behind the [`SearchStrategy`] interface: every
/// configuration of the space is settled once, and the front is exactly
/// the front of [`crate::Explorer::run`] plus a Pareto pass — the
/// reference when measuring how much of the front a guided strategy
/// recovers.
///
/// In classic mode, at full fidelity and on objectives that only grow
/// during a replay ([`Objective::monotone`]), the sweep prunes. It
/// visits the space in a golden-ratio stride order (the `i`-th
/// configuration settled is index `(i·p) mod n`, `p` the first integer
/// at or above ⌊0.618·n⌋ coprime to `n`), so every wave samples the
/// whole space. It settles the configurations in waves of 2, 4, 8, 16,
/// 32 and then 64. Every [`prune_check_ops`] pool ops (1/256 of the
/// trace's, at least 64, at most 1024) each replay checks a lower bound
/// on its final objective vector: its metrics so far plus the
/// application accesses, the per-pool metadata floors and the CPU cost
/// of the pool ops still to come. It stops as soon as a feasible front
/// point of an earlier wave strictly dominates that bound. Such a configuration cannot reach the front: it
/// is dominated if it ends feasible, and excluded if it does not. It is
/// listed in [`SearchOutcome::pruned`] instead of in the results, which
/// hold exact metrics only; both lists are in genome order, whatever the
/// visit order. The per-size op index the floors are priced with
/// ([`OpSizeIndex`]) is built once per pruned sweep. Use
/// [`crate::Explorer::run`] when every configuration's metrics are
/// needed.
#[derive(Debug, Clone, Copy, Default)]
pub struct ExhaustiveSearch;

impl SearchStrategy for ExhaustiveSearch {
    fn name(&self) -> &'static str {
        "exhaustive"
    }

    fn search(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        // Prune only in classic mode, at full fidelity, and on objectives
        // a mid-replay snapshot bounds from below (`Objective::monotone`).
        let can_prune = ctx.aggregate.is_none()
            && ctx.fidelity.is_none()
            && !ctx.objectives.is_empty()
            && ctx.objectives.iter().all(|o| o.monotone());
        if !can_prune {
            return unpruned_sweep(ctx);
        }
        let mut evaluator = Evaluator::new(ctx);
        let genomes: Vec<Genome> = spread_order(ctx.space.len())
            .map(|i| ctx.space.genome_at(i))
            .collect();
        let checks = PruneChecks::new(&ctx.instances[0].trace);
        for wave in prune_waves(genomes.len()) {
            evaluator.eval_wave(&genomes[wave], &checks);
        }
        evaluator.into_outcome(self.name())
    }
}

/// The exhaustive sweep without pruning: every configuration of the
/// space simulated to the end of every trace, as the
/// [`ExhaustiveSearch`] outcome. Its results are in enumeration order,
/// because [`GenomeSpace::genome_at`] increases with the index.
/// [`ExhaustiveSearch`] takes this branch when it cannot prune, and
/// [`crate::Explorer::sweep`] always does.
pub(crate) fn unpruned_sweep(ctx: &SearchContext<'_>) -> SearchOutcome {
    let mut evaluator = Evaluator::new(ctx);
    let genomes: Vec<Genome> = (0..ctx.space.len())
        .map(|i| ctx.space.genome_at(i))
        .collect();
    evaluator.eval_batch(&genomes);
    evaluator.into_outcome(ExhaustiveSearch.name())
}

/// Uniform random subsampling behind the [`SearchStrategy`] interface:
/// `n` distinct configurations drawn by rejection sampling as sorted
/// indices, so the results come in enumeration order. Deterministic in
/// `seed`.
#[derive(Debug, Clone, Copy)]
pub struct SubsampleSearch {
    /// Number of distinct configurations to draw (clamped to the space).
    pub n: usize,
    /// RNG seed.
    pub seed: u64,
}

impl SearchStrategy for SubsampleSearch {
    fn name(&self) -> &'static str {
        "sample"
    }

    fn search(&self, ctx: &SearchContext<'_>) -> SearchOutcome {
        let mut evaluator = Evaluator::new(ctx);
        let genomes: Vec<Genome> = sample_indices(ctx.space.len(), self.n, self.seed)
            .into_iter()
            .map(|i| ctx.space.genome_at(i))
            .collect();
        evaluator.eval_batch(&genomes);
        evaluator.into_outcome(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamSpace;
    use crate::study::{easyport_space, easyport_trace, StudyScale};
    use crate::Explorer;
    use dmx_alloc::{SimArena, SimMetrics};
    use dmx_memhier::{presets, LevelKind, MemoryLevel};
    use dmx_trace::gen::{SyntheticConfig, TraceGenerator};

    fn quick_ctx<'a>(space: &'a ParamSpace, inst: &'a EvalInstance<'a>) -> SearchContext<'a> {
        SearchContext {
            space,
            instances: std::slice::from_ref(inst),
            aggregate: None,
            objectives: &Objective::FIG1,
            threads: 4,
            fidelity: None,
        }
    }

    #[test]
    fn thread_budget_accepts_positive_integers_and_rejects_garbage() {
        assert_eq!(parse_thread_budget(Some("1")), (1, None));
        assert_eq!(parse_thread_budget(Some("8")), (8, None));
        let cores = parse_thread_budget(None).0;
        assert!(cores >= 1);
        // Zero and garbage fall back to the core count — and surface the
        // rejected value so the caller can warn instead of silently
        // absorbing a CI-matrix typo.
        assert_eq!(parse_thread_budget(Some("0")), (cores, Some("0")));
        assert_eq!(parse_thread_budget(Some("-3")), (cores, Some("-3")));
        assert_eq!(parse_thread_budget(Some("eight")), (cores, Some("eight")));
        assert_eq!(parse_thread_budget(Some("")), (cores, Some("")));
    }

    /// The pruning contract on one fixture: the pruned sweep settles
    /// every configuration once, finds the front of the every-config
    /// [`Explorer::run`] sweep, reports exact metrics for every
    /// configuration it ran to the end, and prunes the same set at any
    /// worker count. A pruned configuration whose full replay is
    /// feasible is strictly dominated by the front point it names; every
    /// other pruned configuration is infeasible. Returns how many pruned
    /// configurations had failed no allocation where they stopped but
    /// fail one later.
    fn check_pruning_contract(hier: &MemoryHierarchy, space: &ParamSpace, trace: &Trace) -> usize {
        let inst = EvalInstance::single(hier, trace);
        let classic = Explorer::new(hier).run(space, trace);
        let metrics: HashMap<&str, &SimMetrics> = classic
            .results
            .iter()
            .map(|r| (r.label.as_str(), &r.metrics))
            .collect();
        let point =
            |m: &SimMetrics| -> Vec<u64> { Objective::FIG1.iter().map(|o| o.extract(m)).collect() };
        let all: Vec<Genome> = (0..space.len()).map(|i| space.genome_at(i)).collect();
        let events = inst.trace.len() as u64;
        let sim = Simulator::new(hier);

        let mut pruned_sets = Vec::new();
        let mut fail_later = 0;
        for threads in [1, 4] {
            let ctx = SearchContext {
                threads,
                ..quick_ctx(space, &inst)
            };
            let outcome = ExhaustiveSearch.search(&ctx);
            let results = &outcome.exploration.results;
            assert_eq!(outcome.evaluations, space.len());
            assert_eq!(outcome.simulations, results.len());
            assert_eq!(outcome.genomes.len(), results.len());
            assert_eq!(outcome.simulations + outcome.pruned.len(), space.len());
            assert!(outcome.scenario_explorations.is_empty());
            let mut settled: Vec<Genome> = outcome.genomes.clone();
            settled.extend(outcome.pruned.iter().map(|p| p.genome.clone()));
            settled.sort();
            assert_eq!(settled, all, "every configuration settled exactly once");

            // Same front as the classic exhaustive runner (indices may
            // differ, the point sets must not), exact results throughout.
            assert_eq!(
                outcome.front.points,
                classic.pareto(&Objective::FIG1).points
            );
            for r in results {
                assert_eq!(&r.metrics, metrics[r.label.as_str()], "{}", r.label);
            }
            fail_later = 0;
            for p in &outcome.pruned {
                let dominator = metrics[p.dominated_by.as_str()];
                assert!(
                    dominator.feasible(),
                    "{} names an infeasible point",
                    p.label
                );
                let config = space.config_at(hier, &p.genome);
                let reference = sim.run_reference(&config, trace).unwrap();
                if reference.feasible() {
                    assert!(
                        crate::pareto::dominates(&point(dominator), &point(&reference)),
                        "{} is not dominated by {}",
                        p.label,
                        p.dominated_by
                    );
                } else {
                    let mut arena = SimArena::new();
                    let mut replay = sim.start(&config, &inst.trace, &mut arena).unwrap();
                    replay.advance(p.stopped_at_op);
                    if replay.snapshot().feasible() {
                        fail_later += 1;
                    }
                }
                assert!(p.trace_fraction > 0.0 && p.trace_fraction < 1.0);
                let stride = prune_check_ops(inst.trace.pool_ops().len());
                assert!(p.stopped_at_op > 0 && p.stopped_at_op % stride == 0);
            }

            let stats = outcome.sim_stats;
            assert_eq!(stats.runs as usize, outcome.simulations);
            assert_eq!(stats.events, stats.runs * events, "only full replays");
            assert_eq!(stats.pruned_runs as usize, outcome.pruned.len());
            assert_eq!(
                stats.pruned_events + stats.skipped_events,
                stats.pruned_runs * events
            );
            pruned_sets.push(outcome.pruned);
        }
        assert!(!pruned_sets[0].is_empty(), "the fixture must prune");
        assert_eq!(
            pruned_sets[0], pruned_sets[1],
            "worker count changed the pruned set"
        );
        fail_later
    }

    #[test]
    fn exhaustive_search_matches_explorer_run() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        check_pruning_contract(&hier, &space, &trace);

        // Main memory cut to 3/2 of the trace's peak live bytes: the
        // configurations that fragment past it fail allocations, some of
        // them after the sweep has already pruned them.
        let tight = MemoryHierarchy::new(vec![
            hier.level(hier.fastest()).clone(),
            MemoryLevel::builder("main-dram", LevelKind::Dram)
                .capacity(trace.peak_live_bytes() * 3 / 2)
                .read_energy_pj(1480)
                .write_energy_pj(1620)
                .read_latency(18)
                .write_latency(20)
                .leakage_pj_per_kcycle(24)
                .build(),
        ])
        .unwrap();
        let fail_later = check_pruning_contract(&tight, &space, &trace);
        assert!(
            fail_later > 0,
            "the tight fixture must prune a configuration before it fails"
        );

        let inst = EvalInstance::single(&hier, &trace);
        // A p99 objective can fall during a replay: nothing is pruned.
        let objectives = [Objective::Footprint, Objective::TailLatency];
        let ctx = SearchContext {
            objectives: &objectives,
            ..quick_ctx(&space, &inst)
        };
        let outcome = ExhaustiveSearch.search(&ctx);
        assert!(outcome.pruned.is_empty());
        assert_eq!(outcome.simulations, space.len());
        assert_eq!(outcome.exploration.results.len(), space.len());
    }

    /// The wave schedule doubles from 2 to 64 and then repeats 64,
    /// covering the space once in order. It reads no worker count, so a
    /// sweep runs the same waves at any `DMX_THREADS`;
    /// `exhaustive_search_matches_explorer_run` checks that 1 and 4
    /// workers prune the same configurations at the same ops.
    #[test]
    fn prune_waves_double_then_cover_the_space_once() {
        let sizes = |len| prune_waves(len).map(|w| w.len()).collect::<Vec<_>>();
        assert_eq!(sizes(0), Vec::<usize>::new());
        assert_eq!(sizes(5), [2, 3]);
        assert_eq!(sizes(24), [2, 4, 8, 10]);
        assert_eq!(sizes(200), [2, 4, 8, 16, 32, 64, 64, 10]);
        for len in [1, 7, 8, 9, 120, 864, 6912] {
            let mut next = 0;
            for wave in prune_waves(len) {
                assert_eq!(wave.start, next, "waves are consecutive");
                assert!(!wave.is_empty() && wave.len() <= 64);
                next = wave.end;
            }
            assert_eq!(next, len, "waves cover all {len} configurations");
        }
    }

    /// The visit order is a permutation of the space's indices, for
    /// sizes with and without a coprime ⌊0.618·n⌋, and it spreads: the
    /// first two visits of a large space lie far apart.
    #[test]
    fn spread_order_visits_every_index_once() {
        for n in [0, 1, 2, 3, 7, 8, 864, 6912, 20394] {
            let mut order: Vec<usize> = spread_order(n).collect();
            assert_eq!(order.len(), n);
            order.sort_unstable();
            assert!(order.iter().copied().eq(0..n), "not a bijection on 0..{n}");
        }
        assert_eq!(
            spread_order(8).collect::<Vec<_>>(),
            [0, 5, 2, 7, 4, 1, 6, 3]
        );
        assert_eq!(spread_order(864).nth(1), Some(533));
    }

    #[test]
    fn prune_check_stride_scales_with_the_trace() {
        assert_eq!(prune_check_ops(0), 64);
        assert_eq!(prune_check_ops(49_796), 194);
        assert_eq!(prune_check_ops(256 * 1024), 1024);
        assert_eq!(prune_check_ops(usize::MAX), 1024);
    }

    #[test]
    fn evaluator_memoizes_repeats() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let inst = EvalInstance::single(&hier, &trace);
        let ctx = quick_ctx(&space, &inst);
        let mut evaluator = Evaluator::new(&ctx);
        let g = space.genome_at(3);
        let first = evaluator.eval_batch(&[g.clone(), g.clone(), g.clone()]);
        assert_eq!(evaluator.evaluations(), 1, "one distinct genome, one sim");
        let again = evaluator.eval_batch(&[g]);
        assert_eq!(evaluator.evaluations(), 1);
        assert!(Arc::ptr_eq(&first[0], &again[0]), "same shared entry");
        assert_eq!(evaluator.cache_hits(), 3, "two in-batch + one re-request");
    }

    #[test]
    fn subsample_search_is_deterministic() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let inst = EvalInstance::single(&hier, &trace);
        let ctx = quick_ctx(&space, &inst);
        let s = SubsampleSearch { n: 13, seed: 5 };
        let a = s.search(&ctx);
        let b = s.search(&ctx);
        assert_eq!(a.evaluations, 13);
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
        assert_eq!(a.front.points, b.front.points);
    }

    /// Regression test for the stale-cache bug: one evaluator over two
    /// workloads must keep the workloads' results apart — keyed on the
    /// genome alone, the second workload once inherited the first one's
    /// metrics.
    #[test]
    fn multi_instance_evaluator_never_mixes_workloads() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace_a = easyport_trace(StudyScale::Quick, 42);
        let trace_b = SyntheticConfig::uniform_churn(400).generate(7);
        let instances = [
            EvalInstance {
                name: "a",
                hierarchy: &hier,
                trace: CompiledTrace::compile_shared(&trace_a),
                weight: 1.0,
                constraints: None,
            },
            EvalInstance {
                name: "b",
                hierarchy: &hier,
                trace: CompiledTrace::compile_shared(&trace_b),
                weight: 1.0,
                constraints: None,
            },
        ];
        let ctx = SearchContext {
            space: &space,
            instances: &instances,
            aggregate: Some(Aggregate::WorstCase),
            objectives: &Objective::FIG1,
            threads: 4,
            fidelity: None,
        };
        let mut evaluator = Evaluator::new(&ctx);
        let g = space.genome_at(5);
        let robust = evaluator.eval_batch(std::slice::from_ref(&g));

        // Per-workload results must match fresh, independent simulations.
        let sim = Simulator::new(&hier);
        let config = space.config_at(&hier, &g);
        let on_a = sim.run(&config, &trace_a).unwrap();
        let on_b = sim.run(&config, &trace_b).unwrap();
        assert_ne!(
            on_a, on_b,
            "fixture traces must measure differently for the test to bite"
        );
        let outcome = evaluator.into_outcome("test");
        let per_instance: Vec<&SimMetrics> = outcome
            .scenario_explorations
            .iter()
            .map(|e| &e.results[0].metrics)
            .collect();
        assert_eq!(per_instance, [&on_a, &on_b]);

        // And the folded result is the worst case of the two, exactly.
        assert_eq!(
            robust[0].metrics.footprint,
            on_a.footprint.max(on_b.footprint)
        );
        assert_eq!(
            robust[0].metrics.total_accesses(),
            on_a.total_accesses().max(on_b.total_accesses())
        );
    }

    /// The trace-duplication regression guard: workloads are shared with
    /// evaluation workers behind `Arc`s, so running batches must never
    /// clone a compiled trace — the `Arc` strong count is identical
    /// before and after every batch.
    #[test]
    fn eval_batches_never_clone_traces() {
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let inst = EvalInstance::single(&hier, &trace);
        let handle = Arc::clone(&inst.trace);
        let baseline = Arc::strong_count(&handle);
        let ctx = quick_ctx(&space, &inst);
        let mut evaluator = Evaluator::new(&ctx);
        for start in [0usize, 4, 8] {
            let genomes: Vec<Genome> = (start..start + 4).map(|i| space.genome_at(i)).collect();
            evaluator.eval_batch(&genomes);
            assert_eq!(
                Arc::strong_count(&handle),
                baseline,
                "a batch cloned the compiled trace"
            );
        }
        // The kernel statistics account for exactly those batches.
        let stats = evaluator.sim_stats();
        assert_eq!(stats.runs, 12, "one simulator run per fresh genome");
        assert_eq!(
            stats.events,
            12 * handle.len() as u64,
            "every run replays the whole compiled trace"
        );
        assert!(stats.nanos > 0, "batch time must be recorded");
        let outcome = evaluator.into_outcome("test");
        assert_eq!(outcome.sim_stats, stats, "stats carried into the outcome");
    }

    /// Multi-instance (robust) evaluation shares per-scenario compiled
    /// traces the same way: `Arc` handles all the way down, zero
    /// per-batch clones.
    #[test]
    fn robust_batches_never_clone_scenario_traces() {
        let suite = crate::scenario::ScenarioSuite::builtin("quick").expect("built-in");
        let mats = suite.materialize(42);
        let space = suite.suggest_space(&mats);
        let instances: Vec<EvalInstance<'_>> = mats
            .iter()
            .map(|m| EvalInstance {
                name: m.scenario.name.as_str(),
                hierarchy: &m.hierarchy,
                trace: Arc::clone(&m.compiled),
                weight: m.scenario.weight,
                constraints: Some(&m.scenario.constraints),
            })
            .collect();
        let baseline: Vec<usize> = mats
            .iter()
            .map(|m| Arc::strong_count(&m.compiled))
            .collect();
        let ctx = SearchContext {
            space: &space,
            instances: &instances,
            aggregate: Some(Aggregate::WorstCase),
            objectives: &Objective::FIG1,
            threads: 4,
            fidelity: None,
        };
        let mut evaluator = Evaluator::new(&ctx);
        for start in [0usize, 3] {
            let genomes: Vec<Genome> = (start..start + 3).map(|i| space.genome_at(i)).collect();
            evaluator.eval_batch(&genomes);
            let counts: Vec<usize> = mats
                .iter()
                .map(|m| Arc::strong_count(&m.compiled))
                .collect();
            assert_eq!(counts, baseline, "a robust batch cloned a scenario trace");
        }
        let stats = evaluator.sim_stats();
        assert_eq!(
            stats.runs,
            6 * mats.len() as u64,
            "genomes × scenarios runs"
        );
        assert!(
            stats.arena_reuses > 0,
            "worker arenas must be reused across jobs"
        );
    }

    #[test]
    fn strategy_validation_rejects_unrunnable_parameters() {
        let ga = |population| GeneticSearch {
            population,
            ..GeneticSearch::default()
        };
        assert_eq!(ga(0).validate(), Err(StrategyError::PopulationTooSmall(0)));
        assert_eq!(ga(1).validate(), Err(StrategyError::PopulationTooSmall(1)));
        assert_eq!(ga(2).validate(), Ok(()));
    }

    /// Out-of-range genetic parameters are refused twice: by `validate`,
    /// which the CLI calls first, and by `search` itself at its input
    /// barrier.
    #[test]
    fn out_of_range_genetic_parameters_fail_at_the_input_barrier() {
        let wild = GeneticSearch {
            population: 1,
            ..GeneticSearch::default()
        };
        assert_eq!(wild.validate(), Err(StrategyError::PopulationTooSmall(1)));
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);
        let result =
            std::panic::catch_unwind(|| explorer.search(&wild, &space, &trace, &Objective::FIG1));
        assert!(result.is_err(), "the population must be validated");
    }

    #[test]
    fn robust_mode_with_one_instance_still_folds_and_constrains() {
        // A one-scenario suite is robust mode, not classic mode: scenario
        // constraints must apply and the per-scenario view must exist.
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        // A constraint nothing satisfies: zero bytes of footprint.
        let constraints =
            crate::ConstraintSet::new().and(crate::Constraint::Max(Objective::Footprint, 0));
        let mut inst = EvalInstance::single(&hier, &trace);
        inst.constraints = Some(&constraints);
        let ctx = SearchContext {
            space: &space,
            instances: std::slice::from_ref(&inst),
            aggregate: Some(Aggregate::WorstCase),
            objectives: &Objective::FIG1,
            threads: 2,
            fidelity: None,
        };
        let outcome = SubsampleSearch { n: 6, seed: 1 }.search(&ctx);
        assert_eq!(outcome.scenario_explorations.len(), 1, "per-scenario view");
        assert!(
            outcome
                .exploration
                .results
                .iter()
                .all(|r| !r.metrics.feasible()),
            "constraint-rejected configs must be robust-infeasible"
        );
        assert!(outcome.front.is_empty(), "nothing admissible, empty front");
        // The raw per-scenario view keeps the unconstrained metrics.
        assert!(outcome.scenario_explorations[0]
            .results
            .iter()
            .any(|r| r.metrics.feasible()));
    }
}
