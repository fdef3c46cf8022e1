//! `dmx` — command-line front-end for the exploration tool.
//!
//! Subcommands mirror the paper's tool flow (Figure 1):
//!
//! ```text
//! dmx gen-trace <easyport|vtc|synthetic|server> --out FILE [--seed N] [--paper]
//! dmx profile   --trace FILE
//! dmx explore   --trace FILE --out-records FILE [--csv FILE] [--gnuplot FILE]
//!               [--json FILE] [--objectives footprint,accesses]
//!               [--space odometer|grammar]
//!               [--strategy exhaustive|sample|genetic|hillclimb|island]
//!               [--generations N] [--population N] [--restarts N]
//!               [--islands N] [--migration ring|full|star] [--migrate-every K]
//!               [--sample-n N] [--seed N]
//!               [--obs-trace FILE] [--obs-metrics FILE] [--progress]
//! dmx explore   --suite NAME [--aggregate worst|mean|weighted] [--json FILE]
//!               [--out-records FILE] [--objectives ...] [--space ...]
//!               [--strategy ...]
//!               [--obs-trace FILE] [--obs-metrics FILE] [--progress]
//! dmx scenarios list [SUITE]
//! dmx pareto    --records FILE [--objectives footprint,accesses]
//! dmx report    --records FILE
//! ```
//!
//! `explore` defaults to the exhaustive sweep; `--strategy
//! genetic|hillclimb|sample` switches to guided search (see
//! `dmx_core::search`), which recovers the Pareto front at a fraction of
//! the simulations on large spaces, and `--strategy island` runs the
//! island-model parallel search (N independent islands exchanging elites
//! over `--migration ring|full|star` every `--migrate-every`
//! generations, merged deterministically). `--space grammar` searches
//! the grammar-derivation space (codon vectors deriving allocator pool
//! trees from a small BNF-style grammar — see `dmx_core::space`) instead
//! of the default odometer index space. `--suite` switches to *robust*
//! exploration: every configuration is evaluated across a whole scenario
//! suite (see `dmx_core::scenario`) and the chosen strategy optimizes
//! worst-case / mean / weighted aggregated objectives. The threaded
//! `server-mix` suite pairs naturally with the contention-model
//! objectives `tail_latency` and `contention_stalls` (both stay 0 on
//! single-threaded traces). All modes are deterministic in `--seed`.
//!
//! Observability (see `dmx_obs`): `--obs-trace FILE` records a span
//! timeline and writes a Chrome/Perfetto-compatible `trace.json`,
//! `--obs-metrics FILE` snapshots the metric catalog as flat JSON, and
//! `--progress` prints a live status line (generation, front size,
//! hypervolume proxy, cache hit rate, events/sec) to stderr during long
//! runs. None of these perturb results — obs data goes to separate
//! files, never into the byte-deterministic result exports.

use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::process::ExitCode;

use std::sync::Arc;

use dmx_core::export::{gnuplot_script, robust_to_json, search_to_json, to_csv};
use dmx_core::{
    Aggregate, ExhaustiveSearch, Explorer, FidelityPlan, FidelityStats, GeneticSearch, GenomeSpace,
    GrammarSpace, HillClimbSearch, IslandSearch, MultiScenarioEvaluator, Objective, ParamSpace,
    ScenarioSuite, SearchStrategy, StudySummary, SubsampleSearch, SurrogateKind,
};
use dmx_memhier::presets;
use dmx_profile::{parse_records, records_to_string, ProfileRecord};
use dmx_trace::gen::{EasyportConfig, ServerMixConfig, SyntheticConfig, TraceGenerator, VtcConfig};
use dmx_trace::{binfmt, textfmt, Trace, TraceStats};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("dmx: {msg}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    };
    // Downstream tools (`head`, `less`) may close stdout early; flush and
    // swallow the broken pipe rather than panicking mid-report.
    let _ = std::io::stdout().flush();
    code
}

/// `println!` that ignores a closed stdout (SIGPIPE-friendly).
macro_rules! outln {
    ($($arg:tt)*) => {
        if writeln!(std::io::stdout(), $($arg)*).is_err() {
            return Ok(());
        }
    };
}

const USAGE: &str = "usage:
  dmx gen-trace <easyport|vtc|synthetic|server> --out FILE [--seed N] [--paper]
  dmx profile   --trace FILE
  dmx explore   --trace FILE --out-records FILE [--csv FILE] [--gnuplot FILE]
                [--json FILE] [--objectives footprint,accesses]
                [--space odometer|grammar]
                [--strategy exhaustive|sample|genetic|hillclimb|island]
                [--generations N] [--population N] [--restarts N]
                [--islands N] [--migration ring|full|star] [--migrate-every K]
                [--migrants M] [--sample-n N] [--seed N] [--sim-stats]
                [--fidelity off|halving] [--rungs 0.2,0.5,1.0] [--keep 0.4]
                [--surrogate knn|off] [--knn-k K]
                [--obs-trace FILE] [--obs-metrics FILE] [--progress]
  dmx explore   --suite NAME [--aggregate worst|mean|weighted] [--json FILE]
                [--out-records FILE] [--objectives ...] [--space ...]
                [--strategy ...] [--seed N] [--sim-stats]
                [--fidelity off|halving] [--rungs 0.2,0.5,1.0] [--keep 0.4]
                [--surrogate knn|off] [--knn-k K]
                [--obs-trace FILE] [--obs-metrics FILE] [--progress]
  dmx scenarios list [SUITE]
  dmx pareto    --records FILE [--objectives footprint,accesses,energy,cycles]
  dmx report    --records FILE
  dmx study     <easyport|vtc> [--seed N] [--paper]";

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter();
    let cmd = it.next().ok_or("missing subcommand")?;
    let rest: Vec<&String> = it.collect();
    match cmd.as_str() {
        "gen-trace" => gen_trace(&rest),
        "profile" => profile(&rest),
        "explore" => explore(&rest),
        "scenarios" => scenarios(&rest),
        "pareto" => pareto(&rest),
        "report" => report(&rest),
        "study" => study(&rest),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// Fetches the value following a `--flag`.
fn opt<'a>(rest: &'a [&String], flag: &str) -> Option<&'a str> {
    rest.iter()
        .position(|a| a.as_str() == flag)
        .and_then(|i| rest.get(i + 1))
        .map(|s| s.as_str())
}

fn has_flag(rest: &[&String], flag: &str) -> bool {
    rest.iter().any(|a| a.as_str() == flag)
}

/// Loads the `--trace` file: the binary format when it starts with the
/// `DMXT` magic (v1 or v2), the text format otherwise.
fn load_trace(rest: &[&String]) -> Result<Trace, String> {
    let path = opt(rest, "--trace").ok_or("missing --trace FILE")?;
    let bytes = fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    let parsed = if bytes.starts_with(b"DMXT") {
        binfmt::from_bytes(&bytes).map_err(|e| e.to_string())
    } else {
        std::str::from_utf8(&bytes)
            .map_err(|e| e.to_string())
            .and_then(|text| textfmt::from_str(text).map_err(|e| e.to_string()))
    };
    parsed.map_err(|e| format!("parsing {path}: {e}"))
}

fn load_records(rest: &[&String]) -> Result<Vec<ProfileRecord>, String> {
    let path = opt(rest, "--records").ok_or("missing --records FILE")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_records(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn gen_trace(rest: &[&String]) -> Result<(), String> {
    let kind = rest.first().ok_or("missing generator kind")?;
    let out = opt(rest, "--out").ok_or("missing --out FILE")?;
    let seed: u64 = opt(rest, "--seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "bad --seed")?;
    let paper = has_flag(rest, "--paper");
    let trace = match kind.as_str() {
        "easyport" => {
            let cfg = if paper {
                EasyportConfig::paper()
            } else {
                EasyportConfig::small()
            };
            cfg.generate(seed)
        }
        "vtc" => {
            let cfg = if paper {
                VtcConfig::paper()
            } else {
                VtcConfig::small()
            };
            cfg.generate(seed)
        }
        "synthetic" => {
            SyntheticConfig::uniform_churn(if paper { 50_000 } else { 5_000 }).generate(seed)
        }
        "server" => {
            let cfg = if paper {
                ServerMixConfig::paper()
            } else {
                ServerMixConfig::small()
            };
            cfg.generate(seed)
        }
        other => return Err(format!("unknown generator `{other}`")),
    };
    fs::write(out, textfmt::to_string(&trace)).map_err(|e| format!("writing {out}: {e}"))?;
    eprintln!("wrote {} events to {out}", trace.len());
    Ok(())
}

fn profile(rest: &[&String]) -> Result<(), String> {
    let trace = load_trace(rest)?;
    let stats = TraceStats::compute(&trace);
    outln!("trace `{}`", trace.name());
    outln!("  events          : {}", stats.events);
    outln!("  allocs / frees  : {} / {}", stats.allocs, stats.frees);
    outln!(
        "  peak live       : {} B in {} blocks",
        stats.peak_live_bytes,
        stats.peak_live_blocks
    );
    outln!(
        "  sizes           : {}..{} B",
        stats.min_size,
        stats.max_size
    );
    outln!(
        "  mean lifetime   : {:.1} events",
        stats.mean_lifetime_events
    );
    outln!(
        "  app accesses    : {} r / {} w",
        stats.app_reads,
        stats.app_writes
    );
    outln!("  compute         : {} cycles", stats.tick_cycles);
    outln!("  hot sizes (top 8 by allocation count):");
    for s in stats.per_size.iter().take(8) {
        outln!(
            "    {:>7} B  x{:<8} peak live {:<6} accesses {}",
            s.size,
            s.allocs,
            s.peak_live,
            s.accesses
        );
    }
    Ok(())
}

/// Parses an integer flag with a default.
fn num_opt(rest: &[&String], flag: &str, default: usize) -> Result<usize, String> {
    match opt(rest, flag) {
        None => Ok(default),
        Some(v) => v.parse().map_err(|_| format!("bad {flag}")),
    }
}

/// Builds the guided-search strategy from the common flags.
/// `space_len` sizes the default subsample.
fn build_strategy(
    rest: &[&String],
    seed: u64,
    space_len: usize,
) -> Result<Box<dyn SearchStrategy>, String> {
    let strategy_name = opt(rest, "--strategy").unwrap_or("exhaustive");
    Ok(match strategy_name {
        "exhaustive" => Box::new(ExhaustiveSearch),
        "sample" => Box::new(SubsampleSearch {
            n: num_opt(rest, "--sample-n", space_len.div_ceil(4))?,
            seed,
        }),
        "genetic" => {
            let ga = GeneticSearch {
                population: num_opt(rest, "--population", 32)?,
                generations: num_opt(rest, "--generations", 16)?,
                seed,
                ..GeneticSearch::default()
            };
            ga.validate().map_err(|e| e.to_string())?;
            Box::new(ga)
        }
        "hillclimb" => {
            let hc = HillClimbSearch {
                restarts: num_opt(rest, "--restarts", 8)?,
                seed,
                ..HillClimbSearch::default()
            };
            hc.validate().map_err(|e| e.to_string())?;
            Box::new(hc)
        }
        "island" => {
            let island = IslandSearch {
                islands: num_opt(rest, "--islands", 4)?,
                migration: opt(rest, "--migration").unwrap_or("ring").parse()?,
                migrate_every: num_opt(rest, "--migrate-every", 4)?,
                migrants: num_opt(rest, "--migrants", 2)?,
                population: num_opt(rest, "--population", 16)?,
                generations: num_opt(rest, "--generations", 16)?,
                seed,
                ..IslandSearch::default()
            };
            island.validate().map_err(|e| e.to_string())?;
            Box::new(island)
        }
        other => return Err(format!("unknown strategy `{other}`")),
    })
}

/// Renders the per-island statistics lines for island-model runs.
fn render_island_stats(islands: &[dmx_core::IslandStats]) -> String {
    let mut out = String::new();
    for s in islands {
        out.push_str(&format!(
            "island {}: {:<9} {} genomes, {} front points, sent {} / installed {} migrants, last improved gen {}/{}\n",
            s.island,
            s.kind,
            s.genomes,
            s.front.len(),
            s.migrants_sent,
            s.migrants_received,
            s.last_improved_generation,
            s.generations,
        ));
    }
    out
}

/// The `--objectives` list (default: the paper's Figure-1 pair).
fn objectives_opt(rest: &[&String]) -> Result<Vec<Objective>, String> {
    match opt(rest, "--objectives") {
        None => Ok(Objective::FIG1.to_vec()),
        Some(spec) => parse_objectives(spec),
    }
}

/// Gnuplot wants exactly two axes: the first two requested objectives, or
/// the Figure-1 pair when fewer were given.
fn objective_pair(objectives: &[Objective]) -> [Objective; 2] {
    if objectives.len() >= 2 {
        [objectives[0], objectives[1]]
    } else {
        Objective::FIG1
    }
}

/// Everything the observability flags ask for around one explore run:
/// span recording switched on up front when a trace is wanted, a live
/// `--progress` reporter thread during the search, and the Perfetto
/// trace / flat metrics snapshots written afterwards. Observability
/// artifacts are deliberately *separate files* from the result exports:
/// obs values are timing-dependent (nanoseconds, span lanes), and the
/// result exports are byte-compared across runs and thread counts in CI.
struct ObsSession {
    trace_path: Option<String>,
    metrics_path: Option<String>,
    progress: Option<ProgressReporter>,
}

impl ObsSession {
    /// Parses the obs flags and starts recording/reporting as requested
    /// for a search over `instances` workloads.
    fn start(rest: &[&String], instances: u64) -> Self {
        let trace_path = opt(rest, "--obs-trace").map(str::to_owned);
        let metrics_path = opt(rest, "--obs-metrics").map(str::to_owned);
        let progress = has_flag(rest, "--progress");
        if (trace_path.is_some() || metrics_path.is_some() || progress) && !dmx_obs::compiled() {
            eprintln!(
                "note: this build has observability compiled out; \
                 --obs-trace/--obs-metrics/--progress will report nothing"
            );
        }
        if trace_path.is_some() {
            dmx_obs::set_recording(true);
        }
        ObsSession {
            trace_path,
            metrics_path,
            progress: progress.then(|| ProgressReporter::start(instances)),
        }
    }

    /// Stops the reporter and writes the requested obs artifacts.
    fn finish(self) -> Result<(), String> {
        if let Some(reporter) = self.progress {
            reporter.finish();
        }
        if let Some(path) = self.trace_path {
            dmx_obs::set_recording(false);
            fs::write(&path, dmx_obs::perfetto_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote Perfetto trace to {path} (load at https://ui.perfetto.dev)");
        }
        if let Some(path) = self.metrics_path {
            fs::write(&path, dmx_obs::metrics_json())
                .map_err(|e| format!("writing {path}: {e}"))?;
            eprintln!("wrote obs metrics snapshot to {path}");
        }
        Ok(())
    }
}

/// The `--progress` live reporter: a background thread sampling the obs
/// metric catalog twice a second and printing one status line per tick
/// to stderr — per-generation front size, hypervolume proxy, cache hit
/// rate, and replay throughput — plus a last line once the search ends.
/// Reads gauges the search layer updates; never feeds anything back, so
/// it cannot perturb the search.
struct ProgressReporter {
    stop: Arc<std::sync::atomic::AtomicBool>,
    handle: std::thread::JoinHandle<()>,
}

impl ProgressReporter {
    /// Starts reporting on a search that simulates each genome on
    /// `instances` workloads (1, or the scenario count of a suite).
    fn start(instances: u64) -> Self {
        use std::sync::atomic::{AtomicBool, Ordering};
        let stop = Arc::new(AtomicBool::new(false));
        let stop_seen = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut last_events = dmx_obs::metrics().kernel_events.value();
            let mut last_tick = std::time::Instant::now();
            loop {
                std::thread::sleep(std::time::Duration::from_millis(500));
                let last = stop_seen.load(Ordering::Relaxed);
                let m = dmx_obs::metrics();
                let events = m.kernel_events.value();
                let now = std::time::Instant::now();
                let rate =
                    (events - last_events) as f64 / now.duration_since(last_tick).as_secs_f64();
                last_events = events;
                last_tick = now;
                let hits = m.cache_hits.value();
                let lookups = hits + m.cache_misses.value();
                let hit_pct = if lookups == 0 {
                    0.0
                } else {
                    hits as f64 * 100.0 / lookups as f64
                };
                // Full simulations avoided so far by multi-fidelity
                // screening (zero, and omitted, when fidelity is off).
                // Each rung promotes exactly what the next one screens,
                // so screened minus promoted over all rungs is the
                // genomes screened out; like `FidelityStats::avoided`,
                // count each as one simulation per instance.
                let screened = m.fidelity_screened.value();
                let avoided = screened.saturating_sub(m.fidelity_promoted.value()) * instances;
                let fidelity = if screened == 0 {
                    String::new()
                } else {
                    format!(", {avoided} full sims avoided")
                };
                eprintln!(
                    "progress: gen {}/{}, front {}, hv {}‰, cache {:.1}% hit, {:.2}M events/sec{}",
                    m.generation.value(),
                    m.generations_total.value(),
                    m.front_size.value(),
                    m.hv_permille.value(),
                    hit_pct,
                    rate / 1e6,
                    fidelity,
                );
                if last {
                    break;
                }
            }
        });
        ProgressReporter { stop, handle }
    }

    fn finish(self) {
        self.stop.store(true, std::sync::atomic::Ordering::Relaxed);
        let _ = self.handle.join();
    }
}

/// Resolves `--space odometer|grammar` against the derived odometer
/// space: `odometer` searches the paper's 8-axis index space itself,
/// `grammar` the grammar-derivation space covering it (codon vectors
/// deriving allocator pool trees; see `dmx_core::space`).
fn build_space(rest: &[&String], odometer: ParamSpace) -> Result<Arc<dyn GenomeSpace>, String> {
    match opt(rest, "--space").unwrap_or("odometer") {
        "odometer" => Ok(Arc::new(odometer)),
        "grammar" => Ok(Arc::new(GrammarSpace::covering(&odometer))),
        other => Err(format!(
            "unknown space `{other}` (expected odometer or grammar)"
        )),
    }
}

/// Builds the multi-fidelity plan from `--fidelity off|halving` plus the
/// optional `--rungs`/`--keep`/`--surrogate`/`--knn-k` overrides.
/// `None` (the default) means full-fidelity evaluation.
fn build_fidelity(rest: &[&String]) -> Result<Option<FidelityPlan>, String> {
    let mut plan = match opt(rest, "--fidelity").unwrap_or("off") {
        "off" => return Ok(None),
        "halving" => FidelityPlan::halving(),
        other => {
            return Err(format!(
                "unknown fidelity mode `{other}` (expected off or halving)"
            ))
        }
    };
    if let Some(list) = opt(rest, "--rungs") {
        plan.rungs = list
            .split(',')
            .map(|s| {
                s.trim()
                    .parse::<f64>()
                    .map_err(|_| format!("bad rung `{s}`"))
            })
            .collect::<Result<_, _>>()?;
    }
    if let Some(keep) = opt(rest, "--keep") {
        plan.keep = keep.parse().map_err(|_| "bad --keep")?;
    }
    plan.surrogate = match opt(rest, "--surrogate").unwrap_or("knn") {
        "off" => SurrogateKind::Off,
        "knn" => SurrogateKind::Knn {
            k: num_opt(rest, "--knn-k", 8)?,
        },
        other => return Err(format!("unknown surrogate `{other}` (expected knn or off)")),
    };
    plan.validate()?;
    Ok(Some(plan))
}

/// One stderr summary line for a multi-fidelity run: what each rung
/// screened and how many full simulations the schedule avoided.
fn render_fidelity(stats: &FidelityStats) -> String {
    let mut line = String::from("fidelity:");
    for (fraction, rung) in stats.fractions.iter().zip(&stats.rungs) {
        let _ = write!(
            line,
            " rung {:.0}% {} -> {},",
            fraction * 100.0,
            rung.screened,
            rung.promoted
        );
    }
    let _ = write!(
        line,
        " {} surrogate hits, {} full sims ({} avoided)",
        stats.surrogate_hits,
        stats.full_simulations,
        stats.avoided()
    );
    line
}

/// Looks a built-in suite up by name, listing the registry on failure.
fn lookup_suite(name: &str) -> Result<ScenarioSuite, String> {
    ScenarioSuite::builtin(name).ok_or_else(|| {
        format!(
            "unknown suite `{name}` (built-ins: {})",
            dmx_core::scenario::suite::BUILTIN_SUITES.join(", ")
        )
    })
}

fn explore(rest: &[&String]) -> Result<(), String> {
    if let Some(suite_name) = opt(rest, "--suite") {
        return explore_suite(rest, suite_name);
    }
    let trace = load_trace(rest)?;
    let out_records = opt(rest, "--out-records").ok_or("missing --out-records FILE")?;
    let hier = presets::sp64k_dram4m();
    let stats = TraceStats::compute(&trace);
    let space = build_space(rest, ParamSpace::suggest(&stats, &hier))?;
    let objectives = objectives_opt(rest)?;

    let seed: u64 = opt(rest, "--seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "bad --seed")?;
    let strategy = build_strategy(rest, seed, space.len())?;
    let fidelity = build_fidelity(rest)?;

    eprintln!(
        "exploring {} configurations of the `{}` space over trace `{}` ({} events) with strategy `{}`...",
        space.len(),
        space.name(),
        trace.name(),
        trace.len(),
        strategy.name(),
    );
    let obs = ObsSession::start(rest, 1);
    let mut explorer = Explorer::new(&hier);
    if let Some(plan) = &fidelity {
        explorer = explorer.with_fidelity(plan);
    }
    // The default sweep lists every configuration with exact metrics: the
    // records, the CSV and the summary's range factors cover the whole
    // space, so it never prunes.
    let outcome = if strategy.name() == ExhaustiveSearch.name() && fidelity.is_none() {
        explorer.sweep(&*space, &trace, &objectives)
    } else {
        explorer.search(strategy.as_ref(), &*space, &trace, &objectives)
    };
    obs.finish()?;
    eprintln!(
        "strategy `{}`: {} configurations evaluated ({} simulations, {} cache hits), {} Pareto points",
        outcome.strategy,
        outcome.evaluations,
        outcome.simulations,
        outcome.cache_hits,
        outcome.front.len(),
    );
    if let Some(stats) = &outcome.fidelity {
        eprintln!("{}", render_fidelity(stats));
    }
    if !outcome.islands.is_empty() {
        eprint!("{}", render_island_stats(&outcome.islands));
    }
    if has_flag(rest, "--sim-stats") {
        outln!("{}", outcome.sim_stats.render(outcome.cache_hits));
    }
    if let Some(path) = opt(rest, "--json") {
        let json = search_to_json(&outcome, &objectives);
        fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote search outcome JSON to {path}");
    }
    let exploration = outcome.exploration;
    let records = exploration.to_records();
    fs::write(out_records, records_to_string(&records))
        .map_err(|e| format!("writing {out_records}: {e}"))?;
    eprintln!("wrote {} records to {out_records}", records.len());

    if let Some(path) = opt(rest, "--csv") {
        fs::write(path, to_csv(&exploration)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote CSV to {path}");
    }
    if let Some(path) = opt(rest, "--gnuplot") {
        let pair = objective_pair(&objectives);
        let front = exploration.pareto(&pair);
        let script = gnuplot_script(&exploration, &front, pair, trace.name());
        fs::write(path, script).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote Gnuplot script to {path}");
    }
    let _ = write!(
        std::io::stdout(),
        "{}",
        StudySummary::compute(&exploration).render()
    );
    Ok(())
}

/// Robust exploration across a scenario suite (`dmx explore --suite`).
fn explore_suite(rest: &[&String], suite_name: &str) -> Result<(), String> {
    let suite = lookup_suite(suite_name)?;
    let aggregate: Aggregate = opt(rest, "--aggregate").unwrap_or("worst").parse()?;
    let objectives = objectives_opt(rest)?;
    let seed: u64 = opt(rest, "--seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "bad --seed")?;

    let mut evaluator = MultiScenarioEvaluator::new(&suite)
        .with_aggregate(aggregate)
        .with_objectives(&objectives)
        .with_seed(seed);
    if let Some(plan) = build_fidelity(rest)? {
        evaluator = evaluator.with_fidelity(plan);
    }
    // The shared space sizes strategy defaults; the evaluator memoizes
    // the materialization, so this costs one trace-generation pass total,
    // and handing the space back avoids deriving it a second time in run.
    let space = build_space(rest, evaluator.odometer_space())?;
    let space_len = space.len();
    let strategy = build_strategy(rest, seed, space_len)?;

    eprintln!(
        "robust exploration: suite `{}` ({} scenarios), {} configurations of the `{}` space, strategy `{}`, aggregate `{}`...",
        suite.name,
        suite.scenarios.len(),
        space_len,
        space.name(),
        strategy.name(),
        aggregate,
    );
    let obs = ObsSession::start(rest, suite.scenarios.len() as u64);
    let robust = evaluator.with_space_arc(space).run(strategy.as_ref());
    obs.finish()?;
    eprintln!(
        "strategy `{}`: {} configurations evaluated ({} simulations, {} cache hits), robust front {}",
        robust.outcome.strategy,
        robust.outcome.evaluations,
        robust.outcome.simulations,
        robust.outcome.cache_hits,
        robust.outcome.front.len(),
    );
    if let Some(stats) = &robust.outcome.fidelity {
        eprintln!("{}", render_fidelity(stats));
    }
    if !robust.outcome.islands.is_empty() {
        eprint!("{}", render_island_stats(&robust.outcome.islands));
    }
    if has_flag(rest, "--sim-stats") {
        outln!(
            "{}",
            robust.outcome.sim_stats.render(robust.outcome.cache_hits)
        );
    }

    if let Some(path) = opt(rest, "--out-records") {
        let records = robust.outcome.exploration.to_records();
        fs::write(path, records_to_string(&records)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} robust records to {path}", records.len());
    }
    if let Some(path) = opt(rest, "--csv") {
        fs::write(path, to_csv(&robust.outcome.exploration))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote robust CSV to {path}");
    }
    if let Some(path) = opt(rest, "--gnuplot") {
        let pair = objective_pair(&objectives);
        let front = robust.outcome.exploration.pareto(&pair);
        let title = format!("robust[{}] {}", robust.aggregate, robust.suite);
        let script = gnuplot_script(&robust.outcome.exploration, &front, pair, &title);
        fs::write(path, script).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote robust Gnuplot script to {path}");
    }
    if let Some(path) = opt(rest, "--json") {
        fs::write(path, robust_to_json(&robust)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote robust + per-scenario fronts JSON to {path}");
    }
    let _ = write!(std::io::stdout(), "{}", robust.render());
    Ok(())
}

/// `dmx scenarios list [SUITE]` — the built-in suite registry.
fn scenarios(rest: &[&String]) -> Result<(), String> {
    let action = rest.first().map(|s| s.as_str()).unwrap_or("list");
    if action != "list" {
        return Err(format!("unknown scenarios action `{action}` (try `list`)"));
    }
    let filter = rest.get(1).map(|s| s.as_str());
    let suites: Vec<ScenarioSuite> = match filter {
        None => ScenarioSuite::builtins(),
        Some(name) => vec![lookup_suite(name)?],
    };
    for suite in &suites {
        outln!("suite `{}` — {}", suite.name, suite.description);
        for s in &suite.scenarios {
            outln!(
                "  {:<18} workload={:<11} platform={:<22} weight={:<4} constraints={}",
                s.name,
                s.workload.kind(),
                s.platform.name(),
                s.weight,
                s.constraints.constraints().len()
            );
        }
        outln!();
    }
    Ok(())
}

fn parse_objectives(spec: &str) -> Result<Vec<Objective>, String> {
    // `split(',')` yields at least one item, so an empty spec fails in
    // `Objective::from_str` — the result is always non-empty.
    let objectives: Vec<Objective> = spec.split(',').map(str::parse).collect::<Result<_, _>>()?;
    for (i, o) in objectives.iter().enumerate() {
        if objectives[..i].contains(o) {
            return Err(format!(
                "objective `{o}` is listed twice in `--objectives {spec}`"
            ));
        }
    }
    Ok(objectives)
}

/// Pulls one objective value out of a stored record. Contention-model
/// objectives are not persisted in the record format — `dmx pareto`
/// re-ranks stored records, it cannot re-simulate; use `dmx explore
/// --objectives tail_latency,...` (and its `--json` export) for those.
fn extract(record: &ProfileRecord, objective: Objective) -> Result<u64, String> {
    match objective {
        Objective::Footprint => Ok(record.footprint),
        Objective::Accesses => Ok(record.total_accesses()),
        Objective::EnergyPj => Ok(record.energy_pj),
        Objective::Cycles => Ok(record.cycles),
        Objective::TailLatency | Objective::ContentionStalls => Err(format!(
            "objective `{objective}` is not stored in record files; \
             rank it at exploration time with `dmx explore --objectives {objective},...`"
        )),
        _ => Err(format!(
            "objective `{objective}` is not stored in record files"
        )),
    }
}

fn pareto(rest: &[&String]) -> Result<(), String> {
    let records = load_records(rest)?;
    let objectives = parse_objectives(opt(rest, "--objectives").unwrap_or("footprint,accesses"))?;
    let feasible: Vec<&ProfileRecord> = records.iter().filter(|r| r.feasible()).collect();
    let points: Vec<Vec<u64>> = feasible
        .iter()
        .map(|r| objectives.iter().map(|o| extract(r, *o)).collect())
        .collect::<Result<_, _>>()?;
    let front = dmx_core::pareto_front(&points);
    outln!(
        "{} records, {} feasible, {} Pareto-optimal on ({})",
        records.len(),
        feasible.len(),
        front.len(),
        objectives
            .iter()
            .map(|o| o.name())
            .collect::<Vec<_>>()
            .join(", ")
    );
    for (k, &i) in front.indices.iter().enumerate() {
        let vals: Vec<String> = front.points[k].iter().map(|v| v.to_string()).collect();
        outln!("{:<60} {}", feasible[i].label, vals.join(" "));
    }
    Ok(())
}

fn study(rest: &[&String]) -> Result<(), String> {
    use dmx_core::study::{easyport_study, vtc_study, StudyScale};
    let which = rest.first().ok_or("missing study name")?;
    let seed: u64 = opt(rest, "--seed")
        .unwrap_or("42")
        .parse()
        .map_err(|_| "bad --seed")?;
    let scale = if has_flag(rest, "--paper") {
        StudyScale::Paper
    } else {
        StudyScale::Quick
    };
    let study = match which.as_str() {
        "easyport" => easyport_study(scale, seed),
        "vtc" => vtc_study(scale, seed),
        other => return Err(format!("unknown study `{other}`")),
    };
    let _ = write!(std::io::stdout(), "{}", study.summary.render());
    Ok(())
}

fn report(rest: &[&String]) -> Result<(), String> {
    let records = load_records(rest)?;
    let feasible: Vec<&ProfileRecord> = records.iter().filter(|r| r.feasible()).collect();
    outln!(
        "records: {} total, {} feasible",
        records.len(),
        feasible.len()
    );
    if feasible.is_empty() {
        return Ok(());
    }
    let by = |f: fn(&ProfileRecord) -> u64| {
        let min = feasible.iter().map(|r| f(r)).min().expect("non-empty");
        let max = feasible.iter().map(|r| f(r)).max().expect("non-empty");
        (min, max)
    };
    let (fp_min, fp_max) = by(|r| r.footprint);
    let (ac_min, ac_max) = by(|r| r.total_accesses());
    let (en_min, en_max) = by(|r| r.energy_pj);
    let (cy_min, cy_max) = by(|r| r.cycles);
    outln!(
        "footprint : {fp_min} .. {fp_max} B (x{:.1})",
        fp_max as f64 / fp_min as f64
    );
    outln!(
        "accesses  : {ac_min} .. {ac_max} (x{:.1})",
        ac_max as f64 / ac_min as f64
    );
    outln!(
        "energy    : {en_min} .. {en_max} pJ (x{:.1})",
        en_max as f64 / en_min as f64
    );
    outln!(
        "cycles    : {cy_min} .. {cy_max} (x{:.1})",
        cy_max as f64 / cy_min as f64
    );
    Ok(())
}
