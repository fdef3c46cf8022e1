//! Observability overhead: kernel replay throughput with span recording
//! switched on versus off, in the same process.
//!
//! The `dmx-obs` contract is *zero perturbation, near-zero cost*: the
//! metric counters are always live, and turning span recording on must
//! not slow the hot replay path measurably. This bench is the
//! regression gate for that promise:
//!
//! * the same compiled trace is replayed through the slab kernel in
//!   **pairs** of back-to-back timed windows, one recording-off and one
//!   recording-on, alternating which goes first each pair, so slow drift
//!   (thermal, scheduler, a neighbour's load) hits both halves of a pair
//!   alike;
//! * each pair yields one overhead (off throughput over on throughput),
//!   and the **median pair** must stay within **3%** (asserted — a
//!   regression fails the CI bench smoke run). A burst of noise spoils
//!   the pairs it lands in, not the median, whereas comparing each
//!   side's best window would let two unrelated lucky windows decide
//!   the sign;
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

/// Per-window measurement time. Each of the [`PAIRS`] pairs runs one
/// window per side, so each side accumulates `PAIRS × WINDOW` of kernel
/// time; the headline overhead is the median of the per-pair overheads.
const WINDOW: Duration = Duration::from_millis(20);
const PAIRS: usize = 48;

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
    let mut pair_pcts = Vec::with_capacity(PAIRS);
    for pair in 0..PAIRS {
        // Alternate which side goes first: within a pair the second
        // window tends to run warmer (frequency ramp, cache state), so
        // a fixed order would bias the ratio one way.
        let idle_first = pair % 2 == 0;
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
        let (idle_pair_eps, rec_pair_eps) = (ie as f64 / inan as f64, re as f64 / rn as f64);
        pair_pcts.push((idle_pair_eps / rec_pair_eps - 1.0) * 100.0);
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
    pair_pcts.sort_unstable_by(f64::total_cmp);
    let overhead_pct = (pair_pcts[(PAIRS - 1) / 2] + pair_pcts[PAIRS / 2]) / 2.0;
    println!(
        "\n==== obs overhead: `{}` × {}, {} pairs × {}ms windows ====",
        m.scenario.name,
        config.label(),
        PAIRS,
        WINDOW.as_millis()
    );
    println!("recording off: {idle_eps:>10.0} events/sec mean ({idle_events} events)");
    println!(
        "recording on : {rec_eps:>10.0} events/sec mean ({rec_events} events, {recorded} span events)"
    );
    println!(
        "overhead     : {overhead_pct:+.2}% median pair, pairs {:+.2}%..{:+.2}%  (ceiling 3%)",
        pair_pcts[0],
        pair_pcts[PAIRS - 1]
    );

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
        "span recording costs {overhead_pct:.2}% replay throughput in the median pair, \
         ceiling is 3% (pairs: {pair_pcts:.2?})"
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
