//! Simulation-kernel throughput: the compiled-trace slab kernel versus
//! the retained hash-map reference interpreter, on the `embedded-mix`
//! scenario suite.
//!
//! Replay is the dominant cost of every search strategy (robust runs
//! multiply it by the suite size), so this bench is the regression gate
//! for the kernel refactor:
//!
//! * both paths replay every suite scenario under several representative
//!   configurations (general-only, dedicated-pool genomes, the paper's
//!   worked example) and must produce **byte-identical metrics**;
//! * the slab kernel must sustain **≥ 2× the reference events/sec**
//!   (asserted — a regression fails the CI bench smoke run);
//! * on the paper's Easyport trace, a worst-fit general pool with no
//!   coalescing builds free lists thousands of entries long; its ns/event
//!   over first-fit's on the same list order is recorded as `wf_over_ff`
//!   and capped by the floor, so a return to linear worst-fit scans fails
//!   on any host (the ratio does not depend on the host's speed);
//! * the headline numbers are recorded to `BENCH_sim_throughput.json` at
//!   the workspace root, validated by CI against the checked-in floor in
//!   `crates/bench/floors/sim_throughput.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, SimArena, Simulator, SplitPolicy,
};
use dmx_bench::{json_num, json_str, write_bench_json};
use dmx_core::scenario::ScenarioSuite;
use dmx_memhier::MemoryHierarchy;
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::CompiledTrace;

/// Per-(path, scenario, config) measurement window. Large enough to damp
/// scheduler noise, small enough for the CI smoke run.
const WINDOW: Duration = Duration::from_millis(120);

/// Best-of-window ns/event of `gen(<fit>,addr,co-no,sp-16)` on `trace`
/// (at least 3 timed replays after one warm-up).
fn general_ns_per_event(
    hier: &MemoryHierarchy,
    fit: FitPolicy,
    trace: &CompiledTrace,
    arena: &mut SimArena,
) -> f64 {
    let sim = Simulator::new(hier);
    let config = AllocatorConfig::general_only(
        hier.slowest(),
        fit,
        FreeOrder::AddressOrdered,
        CoalescePolicy::Never,
        SplitPolicy::MinRemainder(16),
    );
    let mut replay = || {
        let t = Instant::now();
        std::hint::black_box(sim.run_in_arena(&config, trace, arena).expect("valid"));
        t.elapsed()
    };
    replay();
    let (mut best, mut runs, t0) = (Duration::MAX, 0, Instant::now());
    while runs < 3 || t0.elapsed() < WINDOW {
        best = best.min(replay());
        runs += 1;
    }
    best.as_nanos() as f64 / trace.len() as f64
}

fn bench_sim_throughput(c: &mut Criterion) {
    let suite = ScenarioSuite::builtin("embedded-mix").expect("built-in suite");
    let mats = suite.materialize(42);
    assert!(mats.len() >= 6, "embedded-mix must stay broad");
    let space = suite.suggest_space(&mats);

    // Representative configurations: the suite space's two extremes (a
    // general-only baseline and the most pool-rich genome), plus the
    // paper's worked example.
    let configs: Vec<AllocatorConfig> = vec![
        space.config_at(&mats[0].hierarchy, &space.genome_at(0)),
        space.config_at(&mats[0].hierarchy, &space.genome_at(space.len() - 1)),
        AllocatorConfig::paper_example(&mats[0].hierarchy),
    ];

    let mut ref_events = 0u64;
    let mut ref_nanos = 0u64;
    let mut kernel_events = 0u64;
    let mut kernel_nanos = 0u64;
    let mut arena = SimArena::new();

    for config in &configs {
        for m in &mats {
            if config.validate(&m.hierarchy).is_err() {
                // A config naming a level a platform lacks is skipped for
                // that platform (the suite space itself is always valid).
                continue;
            }
            let sim = Simulator::new(&m.hierarchy);

            // Warm-up doubles as the equivalence gate: both interpreters
            // must agree byte-for-byte before anything is timed.
            let reference = sim.run_reference(config, &m.trace).expect("valid config");
            let kernel = sim
                .run_in_arena(config, &m.compiled, &mut arena)
                .expect("valid config");
            assert_eq!(
                reference,
                kernel,
                "kernel diverges from the reference on `{}` × {}",
                m.scenario.name,
                config.label()
            );

            let t0 = Instant::now();
            while t0.elapsed() < WINDOW {
                std::hint::black_box(sim.run_reference(config, &m.trace).expect("valid"));
                ref_events += m.trace.len() as u64;
            }
            ref_nanos += t0.elapsed().as_nanos() as u64;

            let t1 = Instant::now();
            while t1.elapsed() < WINDOW {
                std::hint::black_box(
                    sim.run_in_arena(config, &m.compiled, &mut arena)
                        .expect("valid"),
                );
                kernel_events += m.compiled.len() as u64;
            }
            kernel_nanos += t1.elapsed().as_nanos() as u64;
        }
    }

    let ref_eps = ref_events as f64 * 1e9 / ref_nanos as f64;
    let kernel_eps = kernel_events as f64 * 1e9 / kernel_nanos as f64;
    let speedup = kernel_eps / ref_eps;
    let total_secs = (ref_nanos + kernel_nanos) as f64 / 1e9;
    println!(
        "\n==== sim throughput: suite `{}`, {} scenarios × {} configs ====",
        suite.name,
        mats.len(),
        configs.len()
    );
    println!(
        "reference (hash-map): {:>10.0} events/sec ({} events)",
        ref_eps, ref_events
    );
    println!(
        "slab kernel         : {:>10.0} events/sec ({} events, {} arena reuses)",
        kernel_eps,
        kernel_events,
        arena.reuses()
    );
    println!("speedup             : {speedup:.2}x  (target ≥ 2.0x)");

    // Worst-fit versus first-fit on the paper trace's long free lists.
    let hier = dmx_memhier::presets::sp64k_dram4m();
    let paper = CompiledTrace::compile(&EasyportConfig::paper().generate(1));
    let wf_ns = general_ns_per_event(&hier, FitPolicy::WorstFit, &paper, &mut arena);
    let ff_ns = general_ns_per_event(&hier, FitPolicy::FirstFit, &paper, &mut arena);
    let wf_over_ff = wf_ns / ff_ns;
    println!(
        "paper easyport, gen(·,addr,co-no,sp-16): wf {wf_ns:.1} ns/ev, \
         ff {ff_ns:.1} ns/ev, wf/ff {wf_over_ff:.2}x  (ceiling 20x)"
    );

    let path = write_bench_json(
        "sim_throughput",
        &[
            ("bench", json_str("sim_throughput")),
            ("suite", json_str(&suite.name)),
            ("scenarios", mats.len().to_string()),
            ("configs", configs.len().to_string()),
            ("events_replayed", (ref_events + kernel_events).to_string()),
            ("baseline_events_per_sec", json_num(ref_eps)),
            ("events_per_sec", json_num(kernel_eps)),
            ("speedup", json_num(speedup)),
            ("total_sim_seconds", json_num(total_secs)),
            ("arena_reuses", arena.reuses().to_string()),
            ("wf_ns_per_event", json_num(wf_ns)),
            ("ff_ns_per_event", json_num(ff_ns)),
            ("wf_over_ff", json_num(wf_over_ff)),
        ],
    );
    println!("recorded {}", path.display());

    // Acceptance bar: the slab kernel must at least double replay
    // throughput over the hash-map reference on the embedded-mix suite.
    assert!(
        speedup >= 2.0,
        "slab kernel speedup {speedup:.2}x fell below the 2.0x floor \
         ({kernel_eps:.0} vs {ref_eps:.0} events/sec)"
    );

    // Measured unit for the harness: one kernel replay of the first
    // scenario under the pool-rich configuration.
    let m = &mats[0];
    let sim = Simulator::new(&m.hierarchy);
    let config = &configs[1];
    c.bench_function("sim_throughput/kernel_one_scenario", |b| {
        b.iter(|| {
            sim.run_in_arena(std::hint::black_box(config), &m.compiled, &mut arena)
                .expect("valid")
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_secs(1));
    targets = bench_sim_throughput
}
criterion_main!(benches);
