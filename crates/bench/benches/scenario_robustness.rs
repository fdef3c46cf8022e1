//! Scenario-suite robustness: determinism and commonality of the robust
//! front, plus the cost of one robust genetic run.
//!
//! The robust pipeline multiplies every evaluation by the suite size, so
//! its invariants are enforced where the budget is visible:
//!
//! * the robust front of the built-in `embedded-mix` suite is
//!   **deterministic per seed** (two runs, byte-identical fronts);
//! * the **commonality report is non-empty** — at least one evaluated
//!   configuration is Pareto-optimal in more than one scenario, i.e. the
//!   suite is diverse but not disjoint;
//! * the scenario-keyed cache shows **cross-generation hits but zero
//!   cross-scenario collisions** (`simulations == evaluations × scenarios`);
//! * the threaded `server-mix` suite, ranked on the contention-model
//!   objectives, charges **nonzero tail latency and stalls on every
//!   robust front point** and stays deterministic per seed.
//!
//! A regression in any of these fails the CI bench smoke run.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use dmx_core::scenario::{Aggregate, MultiScenarioEvaluator, ScenarioSuite};
use dmx_core::search::GeneticSearch;
use dmx_core::Objective;

fn bench_scenario_robustness(c: &mut Criterion) {
    let suite = ScenarioSuite::builtin("embedded-mix").expect("built-in suite");
    assert!(suite.scenarios.len() >= 6, "embedded-mix must stay broad");
    let ga = GeneticSearch {
        population: 24,
        generations: 8,
        seed: 42,
    };
    let evaluator = MultiScenarioEvaluator::new(&suite)
        .with_aggregate(Aggregate::WorstCase)
        .with_seed(42);

    let robust = evaluator.run(&ga);
    println!(
        "\n==== scenario robustness: suite `{}`, {} scenarios ====",
        robust.suite,
        robust.scenarios.len()
    );
    println!(
        "{} configs evaluated of {} ({} simulations, {} cache hits), robust front {}",
        robust.outcome.evaluations,
        robust.space.len(),
        robust.outcome.simulations,
        robust.outcome.cache_hits,
        robust.outcome.front.len(),
    );
    for sc in &robust.scenarios {
        println!("  {:<18} {} Pareto points", sc.name, sc.front.len());
    }
    let best = robust.commonality.rows.first();
    println!(
        "commonality: {} configs on ≥1 front, best on {}/{} fronts, {} on all",
        robust.commonality.rows.len(),
        best.map_or(0, |r| r.scenario_front_count),
        robust.scenarios.len(),
        robust.commonality.common.len(),
    );

    // Acceptance bars.
    assert!(!robust.outcome.front.is_empty(), "robust front empty");
    assert!(
        !robust.commonality.rows.is_empty(),
        "commonality report must be non-empty on the built-in suite"
    );
    assert!(
        best.is_some_and(|r| r.scenario_front_count >= 2),
        "at least one configuration must be Pareto-optimal in ≥2 scenarios"
    );
    assert_eq!(
        robust.outcome.simulations,
        robust.outcome.evaluations * suite.scenarios.len(),
        "every evaluation must simulate each scenario exactly once \
         (a mismatch means cross-scenario cache collisions)"
    );
    assert!(
        robust.outcome.cache_hits > 0,
        "an elitist GA must revisit configurations across generations"
    );
    let again = evaluator.run(&ga);
    assert_eq!(
        again.outcome.front.points, robust.outcome.front.points,
        "robust front must be deterministic per seed"
    );
    assert_eq!(again.outcome.genomes, robust.outcome.genomes);

    // The threaded server suite, ranked on the contention-model
    // objectives: every robust front point must carry nonzero charges
    // (the suite is threaded by construction), and the run must stay
    // deterministic per seed — contention is a function of the trace,
    // never of evaluation parallelism.
    let server = ScenarioSuite::builtin("server-mix").expect("built-in suite");
    let server_objectives = [Objective::TailLatency, Objective::ContentionStalls];
    let server_eval = MultiScenarioEvaluator::new(&server)
        .with_aggregate(Aggregate::WorstCase)
        .with_objectives(&server_objectives)
        .with_seed(42);
    let server_ga = GeneticSearch {
        population: 16,
        generations: 4,
        seed: 42,
    };
    let server_robust = server_eval.run(&server_ga);
    println!(
        "server-mix: {} configs evaluated, robust front {} (tail_latency × contention_stalls)",
        server_robust.outcome.evaluations,
        server_robust.outcome.front.len(),
    );
    assert!(
        !server_robust.outcome.front.is_empty(),
        "server-mix robust front empty"
    );
    let contention_nonzero = server_robust
        .outcome
        .front
        .points
        .iter()
        .all(|p| p.iter().all(|&v| v > 0));
    assert!(
        contention_nonzero,
        "a threaded suite must charge nonzero tail latency and stalls \
         on every robust front point"
    );
    assert_eq!(
        server_robust.outcome.simulations,
        server_robust.outcome.evaluations * server.scenarios.len(),
        "server-mix: cross-scenario cache collision"
    );
    let server_again = server_eval.run(&server_ga);
    assert_eq!(
        server_again.outcome.front.points, server_robust.outcome.front.points,
        "server-mix robust front must be deterministic per seed"
    );

    // Record the headline numbers so the perf trajectory is tracked
    // across PRs.
    dmx_bench::write_bench_json(
        "scenario_robustness",
        &[
            ("bench", dmx_bench::json_str("scenario_robustness")),
            ("suite", dmx_bench::json_str(&robust.suite)),
            ("evaluations", robust.outcome.evaluations.to_string()),
            ("simulations", robust.outcome.simulations.to_string()),
            ("cache_hits", robust.outcome.cache_hits.to_string()),
            ("robust_front", robust.outcome.front.len().to_string()),
            (
                "events_per_sec",
                dmx_bench::json_num(robust.outcome.sim_stats.events_per_sec()),
            ),
            (
                "server_scenarios",
                server_robust.scenarios.len().to_string(),
            ),
            (
                "server_robust_front",
                server_robust.outcome.front.len().to_string(),
            ),
            ("server_contention_nonzero", contention_nonzero.to_string()),
            (
                "server_deterministic",
                (server_again.outcome.front.points == server_robust.outcome.front.points)
                    .to_string(),
            ),
        ],
    );

    // Measured unit: one robust GA run on the reduced `quick` suite.
    let quick = ScenarioSuite::builtin("quick").expect("built-in suite");
    let quick_eval = MultiScenarioEvaluator::new(&quick)
        .with_aggregate(Aggregate::WorstCase)
        .with_seed(42);
    let quick_ga = GeneticSearch {
        population: 12,
        generations: 4,
        seed: 42,
    };
    c.bench_function("scenario_robustness/quick_robust_ga_run", |b| {
        b.iter(|| quick_eval.run(std::hint::black_box(&quick_ga)))
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_secs(1));
    targets = bench_scenario_robustness
}
criterion_main!(benches);
