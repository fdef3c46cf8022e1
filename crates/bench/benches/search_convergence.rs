//! Guided-search convergence: evaluations-to-front-coverage versus the
//! exhaustive baseline.
//!
//! The paper sweeps its spaces exhaustively; the `dmx_core::search`
//! strategies claim to recover the Pareto front at a fraction of the
//! simulations. This bench quantifies that on a ≥5k-configuration
//! Easyport-derived space: it runs the every-config sweep
//! (`Explorer::run`) and the pruned `ExhaustiveSearch`, which must find
//! the same front, then each guided strategy, and reports
//!
//! * **evals** — distinct configurations simulated (the real cost),
//! * **hv%** — 2-D hypervolume of the strategy's front relative to the
//!   exhaustive front (front coverage),
//! * **member%** — exact front points recovered.
//!
//! The acceptance bar (genetic: ≥90 % hypervolume at ≤20 % of the
//! evaluations, deterministic in the seed) is asserted, so a regression
//! fails the CI bench smoke run.
//!
//! Pruning pays where replays differ in cost, so the sweep speedup is
//! timed on the paper's own sweep (the full-length Easyport trace): on
//! the short trace above every replay is cheap and a pruned replay only
//! stops late in it.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

use dmx_core::search::{ExhaustiveSearch, GeneticSearch, HillClimbSearch, SubsampleSearch};
use dmx_core::study::{convergence_space, easyport_space, StudyScale};
use dmx_core::{front_coverage_pct, Explorer, Objective, ParamSpace, SearchOutcome};
use dmx_memhier::{presets, MemoryHierarchy};
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::TraceStats;

fn front_2d(outcome_points: &[Vec<u64>]) -> Vec<(u64, u64)> {
    outcome_points.iter().map(|p| (p[0], p[1])).collect()
}

fn report_row(name: &str, outcome: &SearchOutcome, space_len: usize, full: &[(u64, u64)]) -> f64 {
    let front = front_2d(&outcome.front.points);
    let hv = front_coverage_pct(&front, full);
    let members = full.iter().filter(|p| front.contains(p)).count();
    println!(
        "{:<12} {:>7} {:>7.1}% {:>7.1}% {:>8.1}% {:>9}/{}",
        name,
        outcome.evaluations,
        outcome.evaluations as f64 / space_len as f64 * 100.0,
        hv,
        members as f64 / full.len().max(1) as f64 * 100.0,
        members,
        full.len(),
    );
    hv
}

/// The paper's own flow (Figure 1): the full-length Easyport trace and
/// the space `ParamSpace::suggest` derives from it, swept every-config
/// (`Explorer::run`) and pruned (`ExhaustiveSearch`). The long trace
/// grows the free lists that make the worst- and next-fit
/// configurations slow, and those are the replays pruning stops. The
/// two sweeps alternate three times and each keeps its best time, so a
/// stall on a shared runner cannot decide the speedup. Returns the
/// speedup, the replays stopped early, and whether both sweeps found the
/// same front.
fn paper_sweep_speedup(hierarchy: &MemoryHierarchy) -> (f64, usize, bool) {
    let explorer = Explorer::new(hierarchy);
    let trace = EasyportConfig::paper().generate(42);
    let space = ParamSpace::suggest(&TraceStats::compute(&trace), hierarchy);
    let mut best = [f64::INFINITY; 2];
    let mut last = None;
    for _ in 0..3 {
        let start = Instant::now();
        let every = explorer.run(&space, &trace);
        best[0] = best[0].min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        let pruned = explorer.search(&ExhaustiveSearch, &space, &trace, &Objective::FIG1);
        best[1] = best[1].min(start.elapsed().as_secs_f64());
        last = Some((every, pruned));
    }
    let (every, pruned) = last.expect("three timed sweeps");
    let identical = pruned.front.points == every.pareto(&Objective::FIG1).points;
    (best[0] / best[1].max(1e-9), pruned.pruned.len(), identical)
}

fn bench_search_convergence(c: &mut Criterion) {
    let hierarchy = presets::sp64k_dram4m();
    // The shared 6912-configuration space (`dmx_core::study`) — the
    // paper's "tens of thousands" regime, scaled to keep the exhaustive
    // reference affordable in CI.
    let space = convergence_space(&hierarchy);
    // A reduced-length Easyport trace keeps the 6912-config exhaustive
    // reference tractable; the space (not the trace) is what's under test.
    let trace = EasyportConfig {
        packets: 300,
        ..EasyportConfig::paper()
    }
    .generate(42);
    let explorer = Explorer::new(&hierarchy);

    let exhaustive = explorer.run(&space, &trace);
    let full_front = exhaustive.pareto(&Objective::FIG1);
    let full = front_2d(&full_front.points);

    // The pruned exhaustive search must settle the same space to exactly
    // the every-config front.
    let pruned = explorer.search(&ExhaustiveSearch, &space, &trace, &Objective::FIG1);
    assert_eq!(pruned.evaluations, space.len(), "every config settled");
    let (paper_speedup, paper_pruned, paper_identical) = paper_sweep_speedup(&hierarchy);
    let sweep_front_identical = pruned.front.points == full_front.points && paper_identical;
    assert!(
        sweep_front_identical,
        "the pruned sweep must find exactly the every-config front"
    );

    println!(
        "\n==== search convergence: {} configurations ====",
        space.len()
    );
    println!(
        "{:<12} {:>7} {:>8} {:>8} {:>9} {:>11}",
        "strategy", "evals", "of space", "hv", "members", "front pts"
    );
    println!(
        "{:<12} {:>7} {:>7.1}% {:>7.1}% {:>8.1}% {:>9}/{}",
        "exhaustive",
        space.len(),
        100.0,
        100.0,
        100.0,
        full.len(),
        full.len()
    );

    println!(
        "{:<12} {:>7} {:>7.1}% {:>7.1}% {:>8.1}% {:>9}/{}  ({} replays stopped early)",
        "pruned",
        pruned.evaluations,
        100.0,
        100.0,
        100.0,
        pruned.front.len(),
        full.len(),
        pruned.pruned.len(),
    );
    println!(
        "paper sweep: pruning stopped {paper_pruned} replays early, {paper_speedup:.2}x faster \
         than simulating every configuration"
    );

    let ga = GeneticSearch {
        population: 64,
        generations: 20,
        seed: 42,
        ..GeneticSearch::default()
    };
    let ga_outcome = explorer.search(&ga, &space, &trace, &Objective::FIG1);
    let ga_hv = report_row("genetic", &ga_outcome, space.len(), &full);

    let hc = HillClimbSearch {
        restarts: 24,
        seed: 42,
        ..HillClimbSearch::default()
    };
    let hc_outcome = explorer.search(&hc, &space, &trace, &Objective::FIG1);
    report_row("hillclimb", &hc_outcome, space.len(), &full);

    // A uniform sample with the same budget as the GA, for contrast.
    let sample = SubsampleSearch {
        n: ga_outcome.evaluations,
        seed: 42,
    };
    let sample_outcome = explorer.search(&sample, &space, &trace, &Objective::FIG1);
    report_row("sample", &sample_outcome, space.len(), &full);

    // The acceptance bar: ≥90 % front coverage at ≤20 % of the
    // evaluations, reproducible for the fixed seed.
    assert!(
        ga_outcome.evaluations * 5 <= space.len(),
        "genetic search used {} of {} evaluations (> 20%)",
        ga_outcome.evaluations,
        space.len()
    );
    assert!(
        ga_hv >= 90.0,
        "genetic search covered only {ga_hv:.1}% of the exhaustive front"
    );
    let again = explorer.search(&ga, &space, &trace, &Objective::FIG1);
    assert_eq!(
        again.front.points, ga_outcome.front.points,
        "genetic search must be deterministic in its seed"
    );

    // Record the headline numbers so the perf trajectory is tracked
    // across PRs.
    dmx_bench::write_bench_json(
        "search_convergence",
        &[
            ("bench", dmx_bench::json_str("search_convergence")),
            ("space", space.len().to_string()),
            ("genetic_evaluations", ga_outcome.evaluations.to_string()),
            ("genetic_simulations", ga_outcome.simulations.to_string()),
            ("genetic_cache_hits", ga_outcome.cache_hits.to_string()),
            ("genetic_hypervolume_pct", dmx_bench::json_num(ga_hv)),
            (
                "genetic_events_per_sec",
                dmx_bench::json_num(ga_outcome.sim_stats.events_per_sec()),
            ),
            (
                "genetic_arena_reuses",
                ga_outcome.sim_stats.arena_reuses.to_string(),
            ),
            ("sweep_front_identical", sweep_front_identical.to_string()),
            ("sweep_pruned_configs", pruned.pruned.len().to_string()),
            ("paper_sweep_pruned_configs", paper_pruned.to_string()),
            ("sweep_speedup", dmx_bench::json_num(paper_speedup)),
        ],
    );

    // Measured unit: one full GA run on the quick-scale space.
    let quick = easyport_space(&hierarchy, StudyScale::Quick);
    let quick_ga = GeneticSearch {
        population: 16,
        generations: 6,
        seed: 42,
        ..GeneticSearch::default()
    };
    c.bench_function("search_convergence/quick_genetic_run", |b| {
        b.iter(|| {
            explorer.search(
                std::hint::black_box(&quick_ga),
                std::hint::black_box(&quick),
                std::hint::black_box(&trace),
                &Objective::FIG1,
            )
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).measurement_time(Duration::from_secs(5)).warm_up_time(Duration::from_secs(1));
    targets = bench_search_convergence
}
criterion_main!(benches);
