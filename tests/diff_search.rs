//! Differential tests over the guided-search layer.
//!
//! The exhaustive sweep is the oracle: on the full 6912-configuration
//! convergence space (the `search_convergence` / `eval_scaling` bench
//! space), every guided strategy's front must be *consistent* with the
//! true front — a guided front point can never dominate a true front
//! point, and every guided front point must be dominated-or-equaled by
//! some true front point (a guided search sees a subset of the space, so
//! its front can sit behind the truth, never ahead of it).

use dmx_core::search::{GeneticSearch, SubsampleSearch};
use dmx_core::study::convergence_space;
use dmx_core::{dominates, Explorer, Objective, SearchStrategy};
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::Trace;

/// A shortened paper-profile Easyport trace: the *space* is what is under
/// test; a compact trace keeps the 6912-simulation oracle affordable in
/// debug builds.
fn oracle_trace() -> Trace {
    EasyportConfig {
        packets: 100,
        ..EasyportConfig::paper()
    }
    .generate(42)
}

/// Every guided front must be consistent with the exhaustive oracle's
/// front: dominated-or-equaled point for point, and never dominating.
#[test]
fn guided_fronts_are_consistent_with_the_exhaustive_oracle() {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    // The shared 6912-configuration space (`dmx_core::study`): the same
    // one the `search_convergence` and `eval_scaling` benches use, so
    // the oracle and the benches can never drift apart.
    let space = convergence_space(&hierarchy);
    let trace = oracle_trace();
    let explorer = Explorer::new(&hierarchy);

    let truth = explorer
        .search(
            &dmx_core::ExhaustiveSearch,
            &space,
            &trace,
            &Objective::FIG1,
        )
        .front;
    assert!(!truth.points.is_empty());

    let strategies: Vec<(&str, Box<dyn SearchStrategy>)> = vec![
        (
            "genetic",
            Box::new(GeneticSearch {
                population: 32,
                generations: 10,
                seed: 42,
            }),
        ),
        ("sample", Box::new(SubsampleSearch { n: 400, seed: 42 })),
    ];

    for (name, strategy) in &strategies {
        let outcome = explorer.search(strategy.as_ref(), &space, &trace, &Objective::FIG1);
        assert!(
            !outcome.front.points.is_empty(),
            "{name}: guided front must not be empty"
        );
        for p in &outcome.front.points {
            assert!(
                !truth.points.iter().any(|t| dominates(p, t)),
                "{name}: guided front point {p:?} dominates a true front point — \
                 the oracle missed a configuration or the strategy left the space"
            );
            assert!(
                truth.points.iter().any(|t| t == p || dominates(t, p)),
                "{name}: guided front point {p:?} is not covered by the true front"
            );
        }
    }
}
