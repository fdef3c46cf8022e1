//! Multi-fidelity search efficiency: full-trace simulations saved by
//! prefix-replay screening + the k-NN surrogate, at equal front quality.
//!
//! The `search_convergence` bench shows the GA needs a fraction of the
//! space; this one shows the multi-fidelity layer needs a fraction of
//! the *GA's own* full-trace simulations. On the shared 6912-config
//! space it runs the same fixed-seed GA twice — all-full-fidelity
//! baseline vs `FidelityPlan::halving()` (20% → 50% → 100% prefixes,
//! keep 0.4, k-NN surrogate) — and reports
//!
//! * **full sims** — full-trace simulator entries (the real cost),
//! * **reduction** — baseline full sims / multi-fidelity full sims,
//! * **hv%** — 2-D hypervolume of the multi-fidelity front relative to
//!   the baseline front.
//!
//! The acceptance bar (≥5x fewer full simulations at ≥99 % of the
//! baseline front hypervolume, byte-identical outcomes at 1 and 8
//! workers) is asserted and floor-checked in CI
//! (`crates/bench/floors/search_efficiency.json`).

use criterion::{criterion_group, criterion_main, Criterion};
use std::time::Duration;

use dmx_core::export::search_to_json;
use dmx_core::search::GeneticSearch;
use dmx_core::study::{convergence_space, easyport_space, StudyScale};
use dmx_core::{front_coverage_pct, Explorer, FidelityPlan, Objective};
use dmx_memhier::presets;
use dmx_trace::gen::{EasyportConfig, TraceGenerator};

fn front_2d(outcome_points: &[Vec<u64>]) -> Vec<(u64, u64)> {
    outcome_points.iter().map(|p| (p[0], p[1])).collect()
}

fn bench_search_efficiency(c: &mut Criterion) {
    let hierarchy = presets::sp64k_dram4m();
    let space = convergence_space(&hierarchy);
    let trace = EasyportConfig {
        packets: 300,
        ..EasyportConfig::paper()
    }
    .generate(42);
    let explorer = Explorer::new(&hierarchy);
    let ga = GeneticSearch {
        population: 64,
        generations: 20,
        seed: 42,
    };

    // All-full-fidelity baseline: every fresh genome pays a full replay.
    let baseline = explorer.search(&ga, &space, &trace, &Objective::FIG1);
    let baseline_front = front_2d(&baseline.front.points);

    // The same GA behind the successive-halving screen + k-NN surrogate.
    let plan = FidelityPlan::halving();
    let mf = explorer
        .with_fidelity(plan)
        .search(&ga, &space, &trace, &Objective::FIG1);
    let stats = mf.fidelity.clone().expect("fidelity plan was active");
    let mf_front = front_2d(&mf.front.points);

    let reduction = baseline.simulations as f64 / mf.simulations.max(1) as f64;
    let hv = front_coverage_pct(&mf_front, &baseline_front);
    println!(
        "\n==== search efficiency: {} configurations ====",
        space.len()
    );
    println!(
        "{:<16} {:>10} {:>10} {:>7}",
        "mode", "full sims", "reduction", "hv"
    );
    println!(
        "{:<16} {:>10} {:>10} {:>6.1}%",
        "all-full", baseline.simulations, "1.0x", 100.0
    );
    println!(
        "{:<16} {:>10} {:>9.1}x {:>6.1}%",
        "halving+knn", mf.simulations, reduction, hv
    );
    for (fraction, rung) in stats.fractions.iter().zip(&stats.rungs) {
        println!(
            "  rung {:>3.0}%: screened {:>5}, promoted {:>5}, surrogate hits {:>5}",
            fraction * 100.0,
            rung.screened,
            rung.promoted,
            rung.surrogate_hits
        );
    }

    // Determinism across worker counts: the screened search must stay
    // byte-identical (front, stats, exported JSON) at 1 and 8 workers.
    let at = |threads: usize| {
        Explorer::new(&hierarchy)
            .with_threads(threads)
            .with_fidelity(plan)
            .search(&ga, &space, &trace, &Objective::FIG1)
    };
    let one = at(1);
    let eight = at(8);
    let deterministic = one.front.points == eight.front.points
        && one.genomes == eight.genomes
        && one.fidelity == eight.fidelity
        && search_to_json(&one, &Objective::FIG1) == search_to_json(&eight, &Objective::FIG1);
    assert!(
        deterministic,
        "multi-fidelity search must not depend on DMX_THREADS"
    );

    // The acceptance bar: ≥5x fewer full-trace simulations at ≥99 % of
    // the baseline front hypervolume.
    assert!(
        reduction >= 5.0,
        "multi-fidelity used {} full sims vs baseline {} ({reduction:.1}x < 5x)",
        mf.simulations,
        baseline.simulations
    );
    assert!(
        hv >= 99.0,
        "multi-fidelity front holds only {hv:.1}% of the baseline hypervolume"
    );

    dmx_bench::write_bench_json(
        "search_efficiency",
        &[
            ("bench", dmx_bench::json_str("search_efficiency")),
            ("space", space.len().to_string()),
            (
                "baseline_full_simulations",
                baseline.simulations.to_string(),
            ),
            ("fidelity_full_simulations", mf.simulations.to_string()),
            ("full_sim_reduction", dmx_bench::json_num(reduction)),
            ("front_hypervolume_pct", dmx_bench::json_num(hv)),
            ("surrogate_hits", stats.surrogate_hits.to_string()),
            (
                "screened",
                stats
                    .rungs
                    .first()
                    .map(|r| r.screened)
                    .unwrap_or(0)
                    .to_string(),
            ),
            ("deterministic_across_workers", deterministic.to_string()),
        ],
    );

    // Measured unit: one screened GA run on the quick-scale space.
    let quick = easyport_space(&hierarchy, StudyScale::Quick);
    let quick_ga = GeneticSearch {
        population: 16,
        generations: 6,
        seed: 42,
    };
    c.bench_function("search_efficiency/quick_screened_run", |b| {
        b.iter(|| {
            explorer.with_fidelity(plan).search(
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
    targets = bench_search_efficiency
}
criterion_main!(benches);
