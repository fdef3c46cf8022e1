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
//! Both sweeps are timed against each other twice: on the 6912-config
//! space above (`sweep_6912_speedup`, recorded without a floor) and on
//! the paper's own sweep, the full-length Easyport trace
//! (`sweep_speedup`, floored). On the short trace every replay is cheap,
//! so pruning saves less there. The paper sweep's full simulations
//! (`paper_sweep_full_sims`) are floored too: they count the replays the
//! remaining-work bound could not stop.

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::{Duration, Instant};

use dmx_core::search::{ExhaustiveSearch, GeneticSearch, HillClimbSearch, SubsampleSearch};
use dmx_core::study::{convergence_space, easyport_space, StudyScale};
use dmx_core::{front_coverage_pct, Exploration, Explorer, Objective, ParamSpace, SearchOutcome};
use dmx_memhier::presets;
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::{Trace, TraceStats};

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

/// Both exhaustive sweeps of one space on one trace: the every-config
/// `Explorer::run` and the pruned `ExhaustiveSearch`, with the speedup
/// of the second over the first.
struct Sweeps {
    every: Exploration,
    pruned: SearchOutcome,
    speedup: f64,
}

impl Sweeps {
    /// Runs the two sweeps alternately `rounds` times and keeps each
    /// one's best time, so a stall on a shared runner cannot decide the
    /// speedup.
    fn time(explorer: &Explorer<'_>, space: &ParamSpace, trace: &Trace, rounds: usize) -> Self {
        let mut best = [f64::INFINITY; 2];
        let mut last = None;
        for _ in 0..rounds {
            let start = Instant::now();
            let every = explorer.run(space, trace);
            best[0] = best[0].min(start.elapsed().as_secs_f64());
            let start = Instant::now();
            let pruned = explorer.search(&ExhaustiveSearch, space, trace, &Objective::FIG1);
            best[1] = best[1].min(start.elapsed().as_secs_f64());
            last = Some((every, pruned));
        }
        let (every, pruned) = last.expect("at least one timed round");
        Sweeps {
            every,
            pruned,
            speedup: best[0] / best[1].max(1e-9),
        }
    }

    /// Whether the pruned sweep found exactly the every-config front.
    fn identical(&self) -> bool {
        self.pruned.front.points == self.every.pareto(&Objective::FIG1).points
    }
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

    // The pruned exhaustive search must settle the same space to exactly
    // the every-config front.
    let sweeps = Sweeps::time(&explorer, &space, &trace, 3);
    let full_front = sweeps.every.pareto(&Objective::FIG1);
    let full = front_2d(&full_front.points);
    let pruned = &sweeps.pruned;
    assert_eq!(pruned.evaluations, space.len(), "every config settled");
    // The paper's own flow (Figure 1): the full-length Easyport trace
    // and the space `ParamSpace::suggest` derives from it. The long
    // trace grows the free lists that make the worst- and next-fit
    // configurations slow, and those are the replays pruning stops.
    let paper_trace = EasyportConfig::paper().generate(42);
    let paper_space = ParamSpace::suggest(&TraceStats::compute(&paper_trace), &hierarchy);
    let paper = Sweeps::time(&explorer, &paper_space, &paper_trace, 3);
    let sweep_front_identical = sweeps.identical() && paper.identical();
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
        "6912-config sweep: {:.2}x faster than simulating every configuration",
        sweeps.speedup
    );
    println!(
        "paper sweep: pruning stopped {} replays early and ran {} to the end, {:.2}x faster \
         than simulating every configuration",
        paper.pruned.pruned.len(),
        paper.pruned.simulations,
        paper.speedup
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
            ("sweep_6912_speedup", dmx_bench::json_num(sweeps.speedup)),
            (
                "paper_sweep_pruned_configs",
                paper.pruned.pruned.len().to_string(),
            ),
            (
                "paper_sweep_full_sims",
                paper.pruned.simulations.to_string(),
            ),
            ("sweep_speedup", dmx_bench::json_num(paper.speedup)),
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
