//! Guided search: recover the Easyport Pareto front with a genetic
//! algorithm, at a fraction of the exhaustive sweep's simulations, and
//! compare it with a random subsample of the same size.
//!
//! ```sh
//! cargo run --release --example guided_search [-- --paper]
//! ```
//!
//! The example runs the exhaustive sweep once as the reference, then each
//! guided strategy, and prints evaluations, front coverage (2-D
//! hypervolume) and the configurations each strategy puts on its front.
//! Every strategy is deterministic in its seed — re-running reproduces
//! the numbers exactly.

use dmx_core::search::{GeneticSearch, SubsampleSearch};
use dmx_core::study::{easyport_space, easyport_trace, StudyScale};
use dmx_core::{front_coverage_pct, Explorer, Objective, SearchOutcome};
use dmx_memhier::presets;

fn front_points(points: &[Vec<u64>]) -> Vec<(u64, u64)> {
    points.iter().map(|p| (p[0], p[1])).collect()
}

fn describe(outcome: &SearchOutcome, full: &[(u64, u64)], space_len: usize) {
    let front = front_points(&outcome.front.points);
    println!(
        "{:<10}: {:>5} of {} simulations ({:>4.1}%), {} cache hits, front coverage {:.1}%",
        outcome.strategy,
        outcome.evaluations,
        space_len,
        outcome.evaluations as f64 / space_len as f64 * 100.0,
        outcome.cache_hits,
        front_coverage_pct(&front, full),
    );
}

fn main() {
    let paper = std::env::args().any(|a| a == "--paper");
    let scale = if paper {
        StudyScale::Paper
    } else {
        StudyScale::Quick
    };
    let hierarchy = presets::sp64k_dram4m();
    let space = easyport_space(&hierarchy, scale);
    let trace = easyport_trace(scale, 42);
    let explorer = Explorer::new(&hierarchy);
    eprintln!(
        "guided search over {} configurations ({scale:?} scale)...",
        space.len()
    );

    // The reference: sweep everything, Pareto-filter on Figure 1's axes.
    let exhaustive = explorer.run(&space, &trace);
    let full = front_points(&exhaustive.pareto(&Objective::FIG1).points);
    println!(
        "exhaustive: {:>5} simulations, {} Pareto-optimal configurations",
        space.len(),
        full.len()
    );

    // Guided strategies, all deterministic in the seed.
    let ga = GeneticSearch {
        population: 24,
        generations: 8,
        seed: 42,
    };
    let ga_outcome = explorer.search(&ga, &space, &trace, &Objective::FIG1);
    describe(&ga_outcome, &full, space.len());

    let sample = SubsampleSearch {
        n: ga_outcome.evaluations,
        seed: 42,
    };
    describe(
        &explorer.search(&sample, &space, &trace, &Objective::FIG1),
        &full,
        space.len(),
    );

    // What the designer actually gets: the GA's trade-off curve.
    println!("\ngenetic front (footprint B, accesses):");
    for (k, &i) in ga_outcome.front.indices.iter().enumerate() {
        let r = &ga_outcome.exploration.results[i];
        println!(
            "  {:>8} B {:>10}  {}",
            ga_outcome.front.points[k][0], ga_outcome.front.points[k][1], r.label
        );
    }
}
