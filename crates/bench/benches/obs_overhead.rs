//! Observability overhead: kernel replay throughput with span recording
//! switched on versus off, in the same process.
//!
//! The `dmx-obs` contract is *zero perturbation, near-zero cost*: the
//! metric counters are always live, and turning span recording on must
//! not slow the hot replay path measurably. This bench is the
//! regression gate for that promise:
//!
//! * the same compiled trace is replayed through the slab kernel in
//!   interleaved timed windows — alternating which of recording-off /
//!   recording-on goes first each round — so slow drift (thermal,
//!   scheduler) hits both sides equally;
//! * each side's throughput is taken as its **fastest window** (noise
//!   only ever slows a window down), and recording-on must stay within
//!   **3%** of recording-off (asserted — a regression fails the CI
//!   bench smoke run);
//! * the headline numbers are recorded to `BENCH_obs_overhead.json` at
//!   the workspace root, validated by CI against the checked-in floor
//!   in `crates/bench/floors/obs_overhead.json` (an `overhead_pct`
//!   ceiling of 3, plus an absolute events/sec floor on the recording
//!   side).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

use dmx_alloc::{SimArena, Simulator};
use dmx_bench::{json_num, json_str, write_bench_json};
use dmx_core::scenario::ScenarioSuite;

/// Per-window measurement time. Interleaved over [`ROUNDS`] rounds, so
/// each side accumulates `ROUNDS × WINDOW` of kernel time; the headline
/// overhead compares the **fastest window** of each side. Scheduler
/// interference is one-sided — it can only slow a window down, never
/// speed it up — so best-of-N converges on each side's true throughput
/// ceiling and a hiccup in any one window cannot fail the gate.
const WINDOW: Duration = Duration::from_millis(60);
const ROUNDS: usize = 16;

fn bench_obs_overhead(c: &mut Criterion) {
    let suite = ScenarioSuite::builtin("embedded-mix").expect("built-in suite");
    let mats = suite.materialize(42);
    let space = suite.suggest_space(&mats);
    let m = &mats[0];
    let sim = Simulator::new(&m.hierarchy);
    // The pool-rich extreme of the suite space: the config with the most
    // per-replay obs activity (one arena lease + one replay span each).
    let config = space.config_at(&m.hierarchy, &space.genome_at(space.len() - 1));
    let mut arena = SimArena::new();

    // Warm-up: populate the arena slab and fault in both paths.
    dmx_obs::reset();
    for _ in 0..3 {
        sim.run_in_arena(&config, &m.compiled, &mut arena)
            .expect("valid config");
    }

    // One timed window at the given recording setting; returns
    // (events, nanos).
    let mut window = |recording: bool| {
        dmx_obs::set_recording(recording);
        let mut events = 0u64;
        let t0 = Instant::now();
        while t0.elapsed() < WINDOW {
            std::hint::black_box(
                sim.run_in_arena(&config, &m.compiled, &mut arena)
                    .expect("valid"),
            );
            events += m.compiled.len() as u64;
        }
        (events, t0.elapsed().as_nanos() as u64)
    };

    let mut idle_events = 0u64;
    let mut idle_nanos = 0u64;
    let mut rec_events = 0u64;
    let mut rec_nanos = 0u64;
    let mut idle_best_eps = 0.0f64;
    let mut rec_best_eps = 0.0f64;
    for round in 0..ROUNDS {
        // Alternate which side goes first: within a round the second
        // window tends to run warmer (frequency ramp, cache state), so
        // a fixed order would bias the ratio one way.
        let idle_first = round % 2 == 0;
        let (first, second) = (window(!idle_first), window(idle_first));
        let ((ie, inan), (re, rn)) = if idle_first {
            (first, second)
        } else {
            (second, first)
        };
        idle_events += ie;
        idle_nanos += inan;
        rec_events += re;
        rec_nanos += rn;
        idle_best_eps = idle_best_eps.max(ie as f64 * 1e9 / inan as f64);
        rec_best_eps = rec_best_eps.max(re as f64 * 1e9 / rn as f64);
    }
    dmx_obs::set_recording(false);

    // The recording side must actually have recorded — otherwise the
    // comparison is vacuous.
    let recorded: usize = dmx_obs::drain_timelines()
        .iter()
        .map(|t| t.events.len() + t.dropped as usize)
        .sum();
    assert!(
        recorded > 0,
        "no spans captured during the recording windows"
    );
    dmx_obs::reset();

    let idle_eps = idle_events as f64 * 1e9 / idle_nanos as f64;
    let rec_eps = rec_events as f64 * 1e9 / rec_nanos as f64;
    // Best window per side: each side's least-disturbed sample.
    let overhead_pct = (idle_best_eps / rec_best_eps - 1.0) * 100.0;
    println!(
        "\n==== obs overhead: `{}` × {}, {} rounds × {}ms windows ====",
        m.scenario.name,
        config.label(),
        ROUNDS,
        WINDOW.as_millis()
    );
    println!(
        "recording off: {:>10.0} events/sec mean, {:>10.0} best ({} events)",
        idle_eps, idle_best_eps, idle_events
    );
    println!(
        "recording on : {:>10.0} events/sec mean, {:>10.0} best ({} events, {} span events)",
        rec_eps, rec_best_eps, rec_events, recorded
    );
    println!("overhead     : {overhead_pct:+.2}% best-window  (ceiling 3%)");

    let path = write_bench_json(
        "obs_overhead",
        &[
            ("bench", json_str("obs_overhead")),
            ("suite", json_str(&suite.name)),
            ("scenario", json_str(&m.scenario.name)),
            ("events_replayed", (idle_events + rec_events).to_string()),
            ("span_events", recorded.to_string()),
            ("events_per_sec_idle", json_num(idle_eps)),
            ("events_per_sec_recording", json_num(rec_eps)),
            ("overhead_pct", json_num(overhead_pct)),
        ],
    );
    println!("recorded {}", path.display());

    // Acceptance bar: span recording may cost at most 3% of replay
    // throughput (negative overhead = noise in recording's favor).
    assert!(
        overhead_pct <= 3.0,
        "span recording costs {overhead_pct:.2}% replay throughput, ceiling is 3% \
         (best windows: {rec_best_eps:.0} vs {idle_best_eps:.0} events/sec)"
    );

    // Measured unit for the harness: one recorded replay.
    dmx_obs::set_recording(true);
    c.bench_function("obs_overhead/kernel_one_scenario_recording", |b| {
        b.iter(|| {
            sim.run_in_arena(std::hint::black_box(&config), &m.compiled, &mut arena)
                .expect("valid")
        })
    });
    dmx_obs::set_recording(false);
    dmx_obs::reset();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_secs(1));
    targets = bench_obs_overhead
}
criterion_main!(benches);
