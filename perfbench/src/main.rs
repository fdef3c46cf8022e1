//! End-to-end exploration benchmark for dmx.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-sweep|robust-ga|server-screen --seed N --seconds S --trace 0|1
//! ```
//!
//! `--trace 0` times whole explorations with nothing recorded and prints
//! the end-to-end metrics. `--trace 1` records spans around the calls into
//! each layer and prints the per-layer metrics. Both print a readable
//! report, then one JSON object as the last line of standard output, and
//! exit non-zero when any correctness check fails. See `README.md`.

mod check;
mod layers;
mod spans;
mod workload;

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use dmx_core::front_coverage_pct;

use check::{check_exploration, digest, Checks};
use spans::Recorder;
use workload::{explore, reference_front, Kind, Prepared, Searched, Tool};

/// Set-ups per untraced run: at least `SETUP_MIN_REPS`, and more until
/// `SETUP_BUDGET_S` has passed; `setup_s` is their median.
const SETUP_MIN_REPS: usize = 5;
const SETUP_MAX_REPS: usize = 200;
const SETUP_BUDGET_S: f64 = 1.0;
/// Fewest timed explorations per untraced run.
const MIN_SAMPLES: usize = 3;

const USAGE: &str = "usage: dmx-perfbench --workload paper-sweep|robust-ga|server-screen \
                     [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
        };
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = || format!("bad value `{value}` for {flag}");
            match flag.as_str() {
                "--workload" => args.workload = value.clone(),
                "--seed" => args.seed = value.parse().map_err(|_| bad())?,
                "--seconds" => {
                    args.seconds = value.parse().map_err(|_| bad())?;
                    if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                        return Err(bad());
                    }
                }
                "--trace" => {
                    args.trace = match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(bad()),
                    }
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(args)
    }
}

fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Peak resident set size of this process, in MiB.
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// One metric of the report: value, unit, samples behind it.
struct Metric {
    value: f64,
    unit: &'static str,
    samples: usize,
}

/// Prints the readable table and the final JSON line.
fn emit(metrics: &BTreeMap<String, Metric>, checks: &Checks) {
    println!(
        "{:<36} {:>18} {:<6} {:>7}",
        "metric", "value", "unit", "samples"
    );
    for (name, m) in metrics {
        println!(
            "{:<36} {:>18.6} {:<6} {:>7}",
            name, m.value, m.unit, m.samples
        );
    }
    println!(
        "{:<36} {:>18.6} {:<6} {:>7}",
        "failed_frac",
        checks.failed_frac(),
        "ratio",
        checks.attempted
    );
    for note in &checks.notes {
        println!("check failed: {note}");
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, m)| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        body.join(", ")
    );
}

/// One exploration, with a panic counted as a failed check. Returns the
/// results and each search call's seconds.
fn explore_checked(
    tool: &Tool<'_>,
    p: &Prepared,
    rec: &mut Recorder,
    checks: &mut Checks,
) -> Option<(Vec<Searched>, Vec<f64>)> {
    let result = catch_unwind(AssertUnwindSafe(|| explore(tool, p, rec)));
    checks.check(result.is_ok(), || "an exploration panicked".to_owned());
    result.ok()
}

fn main() {
    let args = match Args::parse() {
        Ok(a) if Kind::parse(&a.workload).is_some() => a,
        Ok(a) => {
            eprintln!("dmx-perfbench: unknown workload `{}`\n{USAGE}", a.workload);
            std::process::exit(2);
        }
        Err(e) => {
            eprintln!("dmx-perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let kind = Kind::parse(&args.workload).expect("checked above");
    let suite = kind.suite();
    let threads = dmx_core::thread_budget();
    println!(
        "workload {} seed {} workers {} (available parallelism {})",
        args.workload,
        args.seed,
        threads,
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut checks = Checks::default();
    let metrics = if args.trace {
        traced(&args, kind, suite.as_ref(), threads, &mut checks)
    } else {
        untraced(&args, kind, suite.as_ref(), threads, &mut checks)
    };
    emit(&metrics, &checks);
    std::process::exit(if checks.failed == 0 { 0 } else { 1 });
}

fn consistent_space(tool: &Tool<'_>, p: &Prepared, checks: &mut Checks) {
    checks.check(
        tool.space().len() == p.space.len() && tool.space().space_id() == p.space.space_id(),
        || "the benchmark's own space differs from the tool's".to_owned(),
    );
}

/// The end-to-end run: set-up several times, then whole explorations
/// back to back for `--seconds`, then the reference front and the
/// correctness gate outside the timed region.
fn untraced(
    args: &Args,
    kind: Kind,
    suite: Option<&dmx_core::ScenarioSuite>,
    threads: usize,
    checks: &mut Checks,
) -> BTreeMap<String, Metric> {
    let mut metrics = BTreeMap::new();
    let mut rec = Recorder::new(false);
    let mut setup_s = Vec::new();
    let mut tool = None;
    let budget = Instant::now();
    while setup_s.len() < SETUP_MIN_REPS
        || (setup_s.len() < SETUP_MAX_REPS && budget.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        let start = Instant::now();
        let t = Tool::setup(kind, suite, args.seed, threads);
        setup_s.push(start.elapsed().as_secs_f64());
        tool = Some(t);
    }
    let tool = tool.expect("at least one set-up");
    let p = Prepared::new(kind, suite, args.seed, &mut rec);
    consistent_space(&tool, &p, checks);

    // The first exploration warms caches up and is the one checked in
    // full; every later one must repeat it exactly.
    let start = Instant::now();
    let Some((first, _)) = explore_checked(&tool, &p, &mut rec, checks) else {
        return metrics;
    };
    let expected = digest(&first);
    // `per_search[j]` holds every timing of search call `j`.
    let mut per_search: Vec<Vec<f64>> = vec![Vec::new(); first.len()];
    let mut explore_s = Vec::new();
    while explore_s.len() < MIN_SAMPLES || start.elapsed() < Duration::from_secs_f64(args.seconds) {
        let Some((again, secs)) = explore_checked(&tool, &p, &mut rec, checks) else {
            break;
        };
        checks.check(digest(&again) == expected, || {
            "an exploration did not repeat the first one exactly".to_owned()
        });
        explore_s.push(secs.iter().sum::<f64>());
        for (times, s) in per_search.iter_mut().zip(secs) {
            times.push(s);
        }
    }
    let peak_rss = peak_rss_mb();

    // The exploration's fronts merged, against the best front known for
    // the seed: the reference front merged with the exploration's own.
    let front: Vec<(u64, u64)> = first
        .iter()
        .flat_map(|s| s.outcome.front.points.iter().map(|v| (v[0], v[1])))
        .collect();
    let mut best_known = reference_front(&tool, suite, args.seed, &p);
    best_known.extend_from_slice(&front);
    let front_hv_pct = front_coverage_pct(&front, &best_known);
    check_exploration(&p, &first, &mut rec, checks);

    let evaluations: usize = first.iter().map(|s| s.outcome.evaluations).sum();
    let full_sims: usize = first.iter().map(|s| s.outcome.simulations).sum();
    // Each search call's median, summed: a noisy stretch of host time then
    // skews one call's samples, not the whole exploration's.
    let explore_med: f64 = per_search.iter().map(|t| median(t)).sum();
    let n = explore_s.len();
    let mut put = |name: &str, value: f64, unit: &'static str, samples: usize| {
        metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    };
    put("setup_s", median(&setup_s), "s", setup_s.len());
    put("explore_s", explore_med, "s", n);
    put(
        "events_per_s",
        (evaluations as u64 * p.events_per_genome()) as f64 / explore_med,
        "ev/s",
        n,
    );
    put("full_sims", full_sims as f64, "count", first.len());
    put("front_hv_pct", front_hv_pct, "%", first.len());
    put("peak_rss_mb", peak_rss, "MB", 1);
    let mut sorted = explore_s.clone();
    sorted.sort_by(f64::total_cmp);
    println!(
        "explore_s samples {:.4?}; {} evaluations, {} searches, space {}, digest {:016x}",
        sorted,
        evaluations,
        first.len(),
        p.space.len(),
        expected
    );
    metrics
}

/// The traced run: set-up and explorations with spans around every
/// layer call, a determinism self-check at one worker, and the per-layer
/// replays. Only per-layer metrics come out of it.
fn traced(
    args: &Args,
    kind: Kind,
    suite: Option<&dmx_core::ScenarioSuite>,
    threads: usize,
    checks: &mut Checks,
) -> BTreeMap<String, Metric> {
    let mut metrics = BTreeMap::new();
    let mut rec = Recorder::new(true);
    let mut quiet = Recorder::new(false);
    let tool = rec.span("setup", |_| Tool::setup(kind, suite, args.seed, threads));
    let p = rec.span("prepare", |rec| Prepared::new(kind, suite, args.seed, rec));
    consistent_space(&tool, &p, checks);

    // Untraced and traced explorations alternate; their medians give the
    // tracing overhead.
    let start = Instant::now();
    let mut plain_s = Vec::new();
    let mut traced_s = Vec::new();
    let mut first: Option<Vec<Searched>> = None;
    while plain_s.len() < 2 || start.elapsed() < Duration::from_secs_f64(args.seconds / 2.0) {
        let Some((plain, secs)) = explore_checked(&tool, &p, &mut quiet, checks) else {
            return metrics;
        };
        plain_s.push(secs.iter().sum::<f64>());
        let Some((searched, secs)) =
            rec.span("explore", |rec| explore_checked(&tool, &p, rec, checks))
        else {
            return metrics;
        };
        traced_s.push(secs.iter().sum::<f64>());
        checks.check(digest(&plain) == digest(&searched), || {
            "traced and untraced explorations differ".to_owned()
        });
        first.get_or_insert(searched);
    }
    let first = first.expect("at least one exploration");
    let expected = digest(&first);

    let single = tool.with_threads(1);
    let one_worker = rec.span("determinism", |_| {
        explore_checked(&single, &p, &mut quiet, checks)
    });
    let same = one_worker.is_some_and(|(s, _)| digest(&s) == expected);
    checks.check(same, || {
        format!("1 worker and {threads} workers give different explorations")
    });
    println!(
        "determinism: 1 worker vs {threads} workers {} (digest {expected:016x})",
        if same { "identical" } else { "DIFFERENT" }
    );

    let report = rec.span("layers", |rec| layers::measure(&p, &first, rec, checks));
    rec.span("check", |rec| check_exploration(&p, &first, rec, checks));

    let plain_med = median(&plain_s);
    for (name, (value, unit)) in report.metrics {
        metrics.insert(
            name,
            Metric {
                value,
                unit,
                samples: 1,
            },
        );
    }
    let mut put = |name: &str, value: f64, unit: &'static str, samples: usize| {
        metrics.insert(
            name.to_owned(),
            Metric {
                value,
                unit,
                samples,
            },
        );
    };
    put(
        "core.export.json_s",
        rec.total_s("core.export.json") / traced_s.len() as f64,
        "s",
        traced_s.len(),
    );
    put(
        "core.eval.parallel_efficiency",
        report.weighted_replay_s / (threads as f64 * plain_med),
        "ratio",
        plain_s.len(),
    );
    put(
        "bench.trace_overhead_pct",
        (median(&traced_s) - plain_med) / plain_med * 100.0,
        "%",
        traced_s.len(),
    );

    println!("\nper-layer self time ({})", args.workload);
    print!("{}", rec.self_time_table());
    if let Some((label, inst, ns)) = &report.slowest {
        println!("slowest replay: {ns:.1} ns/event on {inst}: {label}");
    }
    let replay_share = rec.total_s("alloc.replay") / (threads as f64 * plain_med);
    println!(
        "untraced explore_s median {plain_med:.6} over {} runs; single-threaded replay of the evaluated set {:.6} s ({:.1}% of {threads} x explore_s)",
        plain_s.len(),
        rec.total_s("alloc.replay"),
        replay_share * 100.0
    );
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/spans-{}-seed{}.json", args.workload, args.seed);
    match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, rec.to_chrome_json())) {
        Ok(()) => println!("wrote spans to {path}"),
        Err(e) => eprintln!("dmx-perfbench: could not write {path}: {e}"),
    }
    metrics
}
