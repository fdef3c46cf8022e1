//! Robust exploration: find the allocator configurations that hold up
//! across a whole scenario suite, not just one workload.
//!
//! ```sh
//! cargo run --release --example robust_exploration [-- --full]
//! ```
//!
//! The example runs a genetic search against the built-in `quick` suite
//! (`--full` switches to the six-scenario `embedded-mix`), optimizing the
//! *worst-case* (footprint, accesses) across every scenario, then shows
//! how the robust front differs from each scenario's own front and which
//! configurations are Pareto-optimal everywhere. Deterministic in the
//! hard-coded seed — re-running reproduces the numbers exactly.

use dmx_core::scenario::{Aggregate, MultiScenarioEvaluator, ScenarioSuite};
use dmx_core::search::GeneticSearch;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let suite_name = if full { "embedded-mix" } else { "quick" };
    let suite = ScenarioSuite::builtin(suite_name).expect("built-in suite");
    eprintln!(
        "robust exploration over suite `{}` ({} scenarios)...",
        suite.name,
        suite.scenarios.len()
    );

    let ga = GeneticSearch {
        population: 24,
        generations: 8,
        seed: 42,
    };

    // Worst-case aggregation: the front of "how bad does it ever get".
    let robust = MultiScenarioEvaluator::new(&suite)
        .with_aggregate(Aggregate::WorstCase)
        .with_seed(42)
        .run(&ga);
    print!("{}", robust.render());

    // The same evaluated set folded by mean instead: a configuration that
    // is excellent on average can still be fragile in its worst scenario —
    // comparing the two fronts shows which configs buy robustness and
    // what they pay for it on average.
    let mean = MultiScenarioEvaluator::new(&suite)
        .with_aggregate(Aggregate::Mean)
        .with_seed(42)
        .run(&ga);
    println!(
        "\nworst-case front: {} configs; mean front: {} configs",
        robust.outcome.front.len(),
        mean.outcome.front.len()
    );
    let worst_genomes: Vec<_> = robust
        .outcome
        .front
        .indices
        .iter()
        .map(|&i| robust.outcome.genomes[i].clone())
        .collect();
    let on_both = mean
        .outcome
        .front
        .indices
        .iter()
        .filter(|&&i| worst_genomes.contains(&mean.outcome.genomes[i]))
        .count();
    println!("configs on both fronts: {on_both} (robust AND efficient on average)");

    // The headline answer: what should a designer ship without knowing
    // the deployment mix?
    match robust.commonality.common.first() {
        Some(label) => println!("\nPareto-optimal in EVERY scenario: {label}"),
        None => println!(
            "\nno single configuration is Pareto-optimal in every scenario — \
             the worst-case front above is the robust compromise"
        ),
    }
}
