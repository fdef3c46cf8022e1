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
//! * on a threaded server-mix trace, a segregated-tier configuration is
//!   replayed with the default contention model and with it switched
//!   off; ns/event with over without is recorded as
//!   `contention_over_off` and capped by the floor, so contention
//!   bookkeeping that turns expensive again (per-op hashing roughly
//!   doubled threaded replay) fails on any host;
//! * the headline numbers are recorded to `BENCH_sim_throughput.json` at
//!   the workspace root, validated by CI against the checked-in floor in
//!   `crates/bench/floors/sim_throughput.json`.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, ContentionParams, FitPolicy, FreeOrder, PoolKind, PoolSpec,
    Route, SimArena, Simulator, SplitPolicy,
};
use dmx_bench::{json_num, json_str, write_bench_json};
use dmx_core::scenario::ScenarioSuite;
use dmx_memhier::MemoryHierarchy;
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::CompiledTrace;

/// Per-(path, scenario, config) measurement window. Large enough to damp
/// scheduler noise, small enough for the CI smoke run.
const WINDOW: Duration = Duration::from_millis(120);

/// Best-of-window ns/event of each `(sim, config)` job replayed on
/// `trace`. The jobs are timed in turns (at least 3 rounds after one
/// warm-up round), so a drift in host load hits each of them alike and
/// their ratios stay steady.
fn ns_per_event(
    jobs: &[(&Simulator<'_>, &AllocatorConfig)],
    trace: &CompiledTrace,
    arena: &mut SimArena,
) -> Vec<f64> {
    let mut replay = |(sim, config): (&Simulator<'_>, &AllocatorConfig)| {
        let t = Instant::now();
        std::hint::black_box(sim.run_in_arena(config, trace, arena).expect("valid"));
        t.elapsed()
    };
    for &job in jobs {
        replay(job);
    }
    let mut best = vec![Duration::MAX; jobs.len()];
    let (mut rounds, t0) = (0, Instant::now());
    while rounds < 3 || t0.elapsed() < WINDOW * jobs.len() as u32 {
        for (b, &job) in best.iter_mut().zip(jobs) {
            *b = (*b).min(replay(job));
        }
        rounds += 1;
    }
    best.iter()
        .map(|b| b.as_nanos() as f64 / trace.len() as f64)
        .collect()
}

/// `gen(<fit>,addr,co-no,sp-16)` on the hierarchy's slowest level.
fn general(hier: &MemoryHierarchy, fit: FitPolicy) -> AllocatorConfig {
    AllocatorConfig::general_only(
        hier.slowest(),
        fit,
        FreeOrder::AddressOrdered,
        CoalescePolicy::Never,
        SplitPolicy::MinRemainder(16),
    )
}

/// Requests up to 1 KiB on a segregated tier, the rest on a first-fit
/// general fallback, all on the hierarchy's slowest level.
fn segregated_tier(hier: &MemoryHierarchy) -> AllocatorConfig {
    AllocatorConfig {
        pools: vec![
            PoolSpec {
                route: Route::Range { min: 1, max: 1024 },
                kind: PoolKind::Segregated {
                    min_class: 16,
                    max_class: 1024,
                    chunk_bytes: 4096,
                },
                level: hier.slowest(),
            },
            PoolSpec::general(
                hier.slowest(),
                FitPolicy::FirstFit,
                FreeOrder::Lifo,
                CoalescePolicy::Never,
                SplitPolicy::Never,
            ),
        ],
    }
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
    let sim = Simulator::new(&hier);
    let (wf, ff) = (
        general(&hier, FitPolicy::WorstFit),
        general(&hier, FitPolicy::FirstFit),
    );
    let ns = ns_per_event(&[(&sim, &wf), (&sim, &ff)], &paper, &mut arena);
    let (wf_ns, ff_ns) = (ns[0], ns[1]);
    let wf_over_ff = wf_ns / ff_ns;
    println!(
        "paper easyport, gen(·,addr,co-no,sp-16): wf {wf_ns:.1} ns/ev, \
         ff {ff_ns:.1} ns/ev, wf/ff {wf_over_ff:.2}x  (ceiling 20x)"
    );

    // Threaded replay: one server-mix trace × a segregated-tier
    // configuration, with the contention model at its defaults and
    // switched off. The ratio prices the contention bookkeeping per
    // event, independently of the host's speed.
    let server_suite = ScenarioSuite::builtin("server-mix").expect("built-in suite");
    let server = server_suite.materialize(42).swap_remove(0);
    assert!(server.compiled.is_threaded(), "server-mix must be threaded");
    let tier = segregated_tier(&server.hierarchy);
    let on = Simulator::new(&server.hierarchy);
    let off = on.with_contention(ContentionParams {
        window: 0,
        ..ContentionParams::default()
    });
    let ns = ns_per_event(&[(&on, &tier), (&off, &tier)], &server.compiled, &mut arena);
    let (threaded_ns, off_ns) = (ns[0], ns[1]);
    let contention_over_off = threaded_ns / off_ns;
    println!(
        "server-mix `{}`, segregated tier: {threaded_ns:.1} ns/ev with contention, \
         {off_ns:.1} ns/ev without, ratio {contention_over_off:.2}x  (ceiling 1.4x)",
        server.scenario.name
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
            ("threaded_ns_per_event", json_num(threaded_ns)),
            ("contention_over_off", json_num(contention_over_off)),
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
