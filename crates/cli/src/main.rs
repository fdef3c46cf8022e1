//! `dmx` — command-line front-end for the exploration tool.
//!
//! Subcommands mirror the paper's tool flow (Figure 1); [`USAGE`] lists
//! each one with every flag it accepts. A flag a subcommand does not read
//! (or that the chosen `--strategy` or `--fidelity` mode does not read),
//! or a value flag without its value, is an error (exit 1), never skipped.
//!
//! `explore` defaults to the exhaustive sweep; `--strategy
//! genetic|sample` switches to guided search (see `dmx_core::search`),
//! which recovers the Pareto front at a fraction of the simulations on
//! large spaces. `--space grammar` searches
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
    range_factor, Aggregate, ExhaustiveSearch, Explorer, FidelityPlan, GeneticSearch, GenomeSpace,
    GrammarSpace, MultiScenarioEvaluator, Objective, ParamSpace, ScenarioSuite, SearchOutcome,
    SearchStrategy, StudySummary, SubsampleSearch,
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

/// Every subcommand with the flags it accepts; [`Args::parse`] rejects any
/// other flag, so the tables below and this text list the same flags.
const USAGE: &str = "usage:
  dmx gen-trace <easyport|vtc|synthetic|server> --out FILE [--seed N] [--paper]
  dmx profile   --trace FILE
  dmx explore   --trace FILE --out-records FILE [--csv FILE] [--gnuplot FILE]
                [--json FILE] [--objectives footprint,accesses]
                [--space odometer|grammar] [--seed N] [--sim-stats]
                [STRATEGY] [FIDELITY] [OBS]
  dmx explore   --suite NAME [--aggregate worst|mean|weighted]
                [--out-records FILE] [--csv FILE] [--gnuplot FILE] [--json FILE]
                [--objectives ...] [--space ...] [--seed N] [--sim-stats]
                [STRATEGY] [FIDELITY] [OBS]
  dmx scenarios list [SUITE]
  dmx pareto    --records FILE [--objectives footprint,accesses,energy,cycles]
  dmx report    --records FILE
  dmx study     <easyport|vtc> [--seed N] [--paper]
where
  STRATEGY = [--strategy exhaustive|sample|genetic]
             [--sample-n N] [--generations N] [--population N]
  FIDELITY = [--fidelity off|halving] [--surrogate knn|off]
  OBS      = [--obs-trace FILE] [--obs-metrics FILE] [--progress]";

/// The flags `build_strategy` reads.
const STRATEGY_FLAGS: &[&str] = &["--strategy", "--sample-n", "--generations", "--population"];

/// The flags `build_fidelity` reads.
const FIDELITY_FLAGS: &[&str] = &["--fidelity", "--surrogate"];

/// The value flags both explore modes read besides their input.
const EXPLORE_FLAGS: &[&str] = &[
    "--out-records",
    "--csv",
    "--gnuplot",
    "--json",
    "--objectives",
    "--space",
    "--seed",
    "--obs-trace",
    "--obs-metrics",
];

/// The switches both explore modes read.
const EXPLORE_SWITCHES: &[&str] = &["--sim-stats", "--progress"];

fn run(words: &[String]) -> Result<(), String> {
    let (cmd, rest) = words.split_first().ok_or("missing subcommand")?;
    let args = parse_args(cmd, rest)?;
    match cmd.as_str() {
        "gen-trace" => gen_trace(&args),
        "profile" => profile(&args),
        "explore" => explore(&args),
        "scenarios" => scenarios(&args),
        "pareto" => pareto(&args),
        "report" => report(&args),
        "study" => study(&args),
        _ => unreachable!("parse_args rejects unknown subcommands"),
    }
}

/// Parses `rest` against the flags and positional words `cmd` accepts.
fn parse_args<'a>(cmd: &str, rest: &'a [String]) -> Result<Args<'a>, String> {
    match cmd {
        "gen-trace" => Args::parse(cmd, rest, &[&["--out", "--seed"]], &["--paper"], 1),
        "profile" => Args::parse(cmd, rest, &[&["--trace"]], &[], 0),
        "explore" => {
            let input: &[&str] = if rest.iter().any(|a| a == "--suite") {
                &["--suite", "--aggregate"]
            } else {
                &["--trace"]
            };
            let flags = [input, EXPLORE_FLAGS, STRATEGY_FLAGS, FIDELITY_FLAGS];
            Args::parse(cmd, rest, &flags, EXPLORE_SWITCHES, 0)
        }
        "scenarios" => Args::parse(cmd, rest, &[], &[], 2),
        "pareto" => Args::parse(cmd, rest, &[&["--records", "--objectives"]], &[], 0),
        "report" => Args::parse(cmd, rest, &[&["--records"]], &[], 0),
        "study" => Args::parse(cmd, rest, &[&["--seed"]], &["--paper"], 1),
        other => Err(format!("unknown subcommand `{other}`")),
    }
}

/// One subcommand's command line, checked against the flags it reads.
struct Args<'a> {
    /// Words that are neither flags nor flag values, in order.
    positional: Vec<&'a str>,
    /// `(flag, value)` pairs in command-line order.
    values: Vec<(&'a str, &'a str)>,
    /// Switches present.
    switches: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Splits `words` into positional words, value flags (each flag in
    /// `value_flags` takes the next word, which must not be a flag) and
    /// `switches`; any other `--flag`, a flag given twice and more than
    /// `max_positional` positional words are errors.
    fn parse(
        cmd: &str,
        words: &'a [String],
        value_flags: &[&[&str]],
        switches: &[&str],
        max_positional: usize,
    ) -> Result<Self, String> {
        let mut args = Args {
            positional: Vec::new(),
            values: Vec::new(),
            switches: Vec::new(),
        };
        let mut it = words.iter().map(String::as_str);
        while let Some(word) = it.next() {
            if args.switches.contains(&word) || args.values.iter().any(|&(f, _)| f == word) {
                return Err(format!("flag `{word}` given more than once"));
            }
            if !word.starts_with("--") {
                if args.positional.len() == max_positional {
                    return Err(format!("unexpected argument `{word}` for `dmx {cmd}`"));
                }
                args.positional.push(word);
            } else if value_flags.iter().any(|group| group.contains(&word)) {
                match it.next() {
                    Some(value) if !value.starts_with("--") => args.values.push((word, value)),
                    _ => return Err(format!("flag `{word}` needs a value")),
                }
            } else if switches.contains(&word) {
                args.switches.push(word);
            } else {
                return Err(format!("unknown flag `{word}` for `dmx {cmd}`"));
            }
        }
        Ok(args)
    }

    /// The value of `flag`, if it was given.
    fn opt(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    fn has(&self, switch: &str) -> bool {
        self.switches.contains(&switch)
    }

    /// Fails naming the first of `flags` that was given: flags that
    /// `mode`, the mode the command line chose, does not read.
    fn reject(&self, flags: &[&str], mode: &str) -> Result<(), String> {
        match flags.iter().find(|&&flag| self.opt(flag).is_some()) {
            Some(flag) => Err(format!("flag `{flag}` is not read by `{mode}`")),
            None => Ok(()),
        }
    }

    /// Parses `flag`'s value, or returns `default` when it is absent.
    fn parse_or<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        self.opt(flag).map_or(Ok(default), |v| {
            v.parse().map_err(|_| format!("bad {flag}"))
        })
    }
}

/// Loads the `--trace` file: the binary format when it starts with the
/// `DMXT` magic (v1 or v2), the text format otherwise.
fn load_trace(args: &Args) -> Result<Trace, String> {
    let path = args.opt("--trace").ok_or("missing --trace FILE")?;
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

fn load_records(args: &Args) -> Result<Vec<ProfileRecord>, String> {
    let path = args.opt("--records").ok_or("missing --records FILE")?;
    let text = fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    parse_records(&text).map_err(|e| format!("parsing {path}: {e}"))
}

fn gen_trace(args: &Args) -> Result<(), String> {
    let kind = *args.positional.first().ok_or("missing generator kind")?;
    let out = args.opt("--out").ok_or("missing --out FILE")?;
    let seed: u64 = args.parse_or("--seed", 42)?;
    let paper = args.has("--paper");
    let trace = match kind {
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

fn profile(args: &Args) -> Result<(), String> {
    let trace = load_trace(args)?;
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

/// Builds the guided-search strategy from the common flags.
/// `space_len` sizes the default subsample.
fn build_strategy(
    args: &Args,
    seed: u64,
    space_len: usize,
) -> Result<Box<dyn SearchStrategy>, String> {
    Ok(match args.opt("--strategy").unwrap_or("exhaustive") {
        "exhaustive" => {
            let unread = ["--sample-n", "--generations", "--population"];
            args.reject(&unread, "--strategy exhaustive")?;
            Box::new(ExhaustiveSearch)
        }
        "sample" => {
            args.reject(&["--generations", "--population"], "--strategy sample")?;
            Box::new(SubsampleSearch {
                n: args.parse_or("--sample-n", space_len.div_ceil(4))?,
                seed,
            })
        }
        "genetic" => {
            args.reject(&["--sample-n"], "--strategy genetic")?;
            let ga = GeneticSearch {
                population: args.parse_or("--population", 32)?,
                generations: args.parse_or("--generations", 16)?,
                seed,
            };
            ga.validate().map_err(|e| e.to_string())?;
            Box::new(ga)
        }
        other => return Err(format!("unknown strategy `{other}`")),
    })
}

/// The `--objectives` list (default: the paper's Figure-1 pair).
fn objectives_opt(args: &Args) -> Result<Vec<Objective>, String> {
    match args.opt("--objectives") {
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
    fn start(args: &Args, instances: u64) -> Self {
        let trace_path = args.opt("--obs-trace").map(str::to_owned);
        let metrics_path = args.opt("--obs-metrics").map(str::to_owned);
        let progress = args.has("--progress");
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
fn build_space(args: &Args, odometer: ParamSpace) -> Result<Arc<dyn GenomeSpace>, String> {
    match args.opt("--space").unwrap_or("odometer") {
        "odometer" => Ok(Arc::new(odometer)),
        "grammar" => Ok(Arc::new(GrammarSpace::covering(&odometer))),
        other => Err(format!(
            "unknown space `{other}` (expected odometer or grammar)"
        )),
    }
}

/// Builds the multi-fidelity plan from `--fidelity off|halving` and,
/// under `halving`, `--surrogate knn|off`. `None` (the default) means
/// full-fidelity evaluation.
fn build_fidelity(args: &Args) -> Result<Option<FidelityPlan>, String> {
    match args.opt("--fidelity").unwrap_or("off") {
        "off" => {
            args.reject(&["--surrogate"], "--fidelity off")?;
            Ok(None)
        }
        "halving" => {
            let surrogate = match args.opt("--surrogate").unwrap_or("knn") {
                "knn" => true,
                "off" => false,
                other => return Err(format!("unknown surrogate `{other}` (expected knn or off)")),
            };
            Ok(Some(FidelityPlan { surrogate }))
        }
        other => Err(format!(
            "unknown fidelity mode `{other}` (expected off or halving)"
        )),
    }
}

/// Prints what a search did, the same way for every explore mode. On
/// stderr: the strategy line (ending in `front`, the front's size); for a
/// multi-fidelity run, what each rung screened and how many full
/// simulations the schedule avoided. On stdout under `--sim-stats`: the
/// kernel counters. Fails only if stdout is closed.
fn print_outcome(args: &Args, outcome: &SearchOutcome, front: &str) -> std::io::Result<()> {
    eprintln!(
        "strategy `{}`: {} configurations evaluated ({} simulations, {} cache hits), {front}",
        outcome.strategy, outcome.evaluations, outcome.simulations, outcome.cache_hits,
    );
    if let Some(stats) = &outcome.fidelity {
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
        eprintln!(
            "{line} {} surrogate hits, {} full sims ({} avoided)",
            stats.surrogate_hits,
            stats.full_simulations,
            stats.avoided()
        );
    }
    if args.has("--sim-stats") {
        writeln!(
            std::io::stdout(),
            "{}",
            outcome.sim_stats.render(outcome.cache_hits)
        )?;
    }
    Ok(())
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

fn explore(args: &Args) -> Result<(), String> {
    if let Some(suite_name) = args.opt("--suite") {
        return explore_suite(args, suite_name);
    }
    let trace = load_trace(args)?;
    let out_records = args
        .opt("--out-records")
        .ok_or("missing --out-records FILE")?;
    let hier = presets::sp64k_dram4m();
    let stats = TraceStats::compute(&trace);
    let space = build_space(args, ParamSpace::suggest(&stats, &hier))?;
    let objectives = objectives_opt(args)?;

    let seed: u64 = args.parse_or("--seed", 42)?;
    let strategy = build_strategy(args, seed, space.len())?;
    let fidelity = build_fidelity(args)?;

    eprintln!(
        "exploring {} configurations of the `{}` space over trace `{}` ({} events) with strategy `{}`...",
        space.len(),
        space.name(),
        trace.name(),
        trace.len(),
        strategy.name(),
    );
    let obs = ObsSession::start(args, 1);
    let mut explorer = Explorer::new(&hier);
    if let Some(plan) = fidelity {
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
    let front = format!("{} Pareto points", outcome.front.len());
    if print_outcome(args, &outcome, &front).is_err() {
        return Ok(());
    }
    if let Some(path) = args.opt("--json") {
        let json = search_to_json(&outcome, &objectives);
        fs::write(path, json).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote search outcome JSON to {path}");
    }
    let exploration = outcome.exploration;
    let records = exploration.to_records();
    fs::write(out_records, records_to_string(&records))
        .map_err(|e| format!("writing {out_records}: {e}"))?;
    eprintln!("wrote {} records to {out_records}", records.len());

    if let Some(path) = args.opt("--csv") {
        fs::write(path, to_csv(&exploration)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote CSV to {path}");
    }
    if let Some(path) = args.opt("--gnuplot") {
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
fn explore_suite(args: &Args, suite_name: &str) -> Result<(), String> {
    let suite = lookup_suite(suite_name)?;
    let aggregate: Aggregate = args.opt("--aggregate").unwrap_or("worst").parse()?;
    let objectives = objectives_opt(args)?;
    let seed: u64 = args.parse_or("--seed", 42)?;

    let mut evaluator = MultiScenarioEvaluator::new(&suite)
        .with_aggregate(aggregate)
        .with_objectives(&objectives)
        .with_seed(seed);
    if let Some(plan) = build_fidelity(args)? {
        evaluator = evaluator.with_fidelity(plan);
    }
    // The shared space sizes strategy defaults; the evaluator memoizes
    // the materialization, so this costs one trace-generation pass total,
    // and handing the space back avoids deriving it a second time in run.
    let space = build_space(args, evaluator.odometer_space())?;
    let space_len = space.len();
    let strategy = build_strategy(args, seed, space_len)?;

    eprintln!(
        "robust exploration: suite `{}` ({} scenarios), {} configurations of the `{}` space, strategy `{}`, aggregate `{}`...",
        suite.name,
        suite.scenarios.len(),
        space_len,
        space.name(),
        strategy.name(),
        aggregate,
    );
    let obs = ObsSession::start(args, suite.scenarios.len() as u64);
    let robust = evaluator.with_space_arc(space).run(strategy.as_ref());
    obs.finish()?;
    let front = format!("robust front {}", robust.outcome.front.len());
    if print_outcome(args, &robust.outcome, &front).is_err() {
        return Ok(());
    }

    if let Some(path) = args.opt("--out-records") {
        let records = robust.outcome.exploration.to_records();
        fs::write(path, records_to_string(&records)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote {} robust records to {path}", records.len());
    }
    if let Some(path) = args.opt("--csv") {
        fs::write(path, to_csv(&robust.outcome.exploration))
            .map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote robust CSV to {path}");
    }
    if let Some(path) = args.opt("--gnuplot") {
        let pair = objective_pair(&objectives);
        let front = robust.outcome.exploration.pareto(&pair);
        let title = format!("robust[{}] {}", robust.aggregate, robust.suite);
        let script = gnuplot_script(&robust.outcome.exploration, &front, pair, &title);
        fs::write(path, script).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote robust Gnuplot script to {path}");
    }
    if let Some(path) = args.opt("--json") {
        fs::write(path, robust_to_json(&robust)).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("wrote robust + per-scenario fronts JSON to {path}");
    }
    let _ = write!(std::io::stdout(), "{}", robust.render());
    Ok(())
}

/// `dmx scenarios list [SUITE]` — the built-in suite registry.
fn scenarios(args: &Args) -> Result<(), String> {
    let action = args.positional.first().copied().unwrap_or("list");
    if action != "list" {
        return Err(format!("unknown scenarios action `{action}` (try `list`)"));
    }
    let filter = args.positional.get(1).copied();
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

fn pareto(args: &Args) -> Result<(), String> {
    let records = load_records(args)?;
    let objectives = parse_objectives(args.opt("--objectives").unwrap_or("footprint,accesses"))?;
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

fn study(args: &Args) -> Result<(), String> {
    use dmx_core::study::{easyport_study, vtc_study, StudyScale};
    let which = *args.positional.first().ok_or("missing study name")?;
    let seed: u64 = args.parse_or("--seed", 42)?;
    let scale = if args.has("--paper") {
        StudyScale::Paper
    } else {
        StudyScale::Quick
    };
    let study = match which {
        "easyport" => easyport_study(scale, seed),
        "vtc" => vtc_study(scale, seed),
        other => return Err(format!("unknown study `{other}`")),
    };
    let _ = write!(std::io::stdout(), "{}", study.summary.render());
    Ok(())
}

fn report(args: &Args) -> Result<(), String> {
    let records = load_records(args)?;
    let feasible: Vec<&ProfileRecord> = records.iter().filter(|r| r.feasible()).collect();
    outln!(
        "records: {} total, {} feasible",
        records.len(),
        feasible.len()
    );
    if feasible.is_empty() {
        return Ok(());
    }
    let column = |metric: fn(&ProfileRecord) -> u64| feasible.iter().map(move |r| metric(r));
    for (name, unit, values) in [
        ("footprint", " B", column(|r| r.footprint)),
        ("accesses ", "", column(ProfileRecord::total_accesses)),
        ("energy   ", " pJ", column(|r| r.energy_pj)),
        ("cycles   ", "", column(|r| r.cycles)),
    ] {
        let min = values.clone().min().expect("non-empty");
        let max = values.clone().max().expect("non-empty");
        let factor = match range_factor(values) {
            Some(f) => format!("x{f:.1}"),
            None => "no factor: the minimum is 0".to_owned(),
        };
        outln!("{name} : {min} .. {max}{unit} ({factor})");
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `--flag` words in `text`.
    fn flags_in(text: &str) -> Vec<&str> {
        text.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect()
    }

    /// Each `dmx` entry of [`USAGE`], with the `where` groups expanded,
    /// lists exactly the flags [`parse_args`] accepts for that line.
    #[test]
    fn usage_lists_exactly_the_accepted_flags() {
        let (commands, groups) = USAGE.split_once("\nwhere\n").expect("a where section");
        let mut group_flags: Vec<(String, Vec<&str>)> = Vec::new();
        for line in groups.lines() {
            match line.split_once(" = ") {
                Some((name, text)) => {
                    group_flags.push((format!("[{}]", name.trim()), flags_in(text)))
                }
                None => group_flags
                    .last_mut()
                    .expect("a group")
                    .1
                    .extend(flags_in(line)),
            }
        }
        let mut entries: Vec<String> = Vec::new();
        for line in commands.lines().skip(1) {
            match line.trim_start().strip_prefix("dmx ") {
                Some(entry) => entries.push(entry.to_owned()),
                None => entries.last_mut().expect("an entry").push_str(line),
            }
        }
        let listed: Vec<Vec<&str>> = entries
            .iter()
            .map(|entry| {
                let mut flags = flags_in(entry);
                for (name, group) in &group_flags {
                    if entry.contains(name.as_str()) {
                        flags.extend(group);
                    }
                }
                flags
            })
            .collect();
        let every_flag: Vec<&str> = listed.iter().flatten().copied().collect();
        for (entry, flags) in entries.iter().zip(&listed) {
            let cmd = entry.split_whitespace().next().expect("a subcommand");
            // `--suite NAME` picks the suite entry of `explore`.
            let context: &[&str] = if flags.contains(&"--suite") {
                &["--suite", "S"]
            } else {
                &[]
            };
            for &flag in every_flag.iter().filter(|&&f| f != "--suite") {
                let accepts = |tail: &[&str]| {
                    let words: Vec<String> =
                        context.iter().chain(tail).map(|w| w.to_string()).collect();
                    parse_args(cmd, &words).is_ok()
                };
                assert_eq!(
                    accepts(&[flag]) || accepts(&[flag, "V"]),
                    flags.contains(&flag),
                    "`dmx {entry}` and `{flag}`"
                );
            }
        }
    }
}
