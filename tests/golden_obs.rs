//! Golden zero-perturbation suite for the observability layer.
//!
//! `dmx-obs` must never perturb a search: no RNG draw, no genome
//! ordering, no charged `SimMetrics` may depend on whether metrics are
//! being counted or spans recorded. These tests pin that guarantee at
//! the strongest observable boundary — the exported `SearchOutcome` and
//! `RobustOutcome` JSON must be **byte-identical** with span recording
//! on vs. off, for every search strategy, at both extreme worker
//! counts. (`crates/cli/tests/cli_integration.rs` and CI make the same
//! comparison on the `dmx` binary itself.)
//!
//! The tests share the process-global recording flag, so they serialize
//! on one gate mutex rather than trusting the harness scheduler.

use std::sync::{Mutex, MutexGuard};

use dmx_core::export::{robust_to_json, search_to_json};
use dmx_core::scenario::{Aggregate, MultiScenarioEvaluator, ScenarioSuite};
use dmx_core::search::{GeneticSearch, SearchStrategy, SubsampleSearch};
use dmx_core::study::{easyport_space, easyport_trace, StudyScale};
use dmx_core::{Explorer, Objective};

fn gate() -> MutexGuard<'static, ()> {
    static GATE: Mutex<()> = Mutex::new(());
    GATE.lock().unwrap_or_else(|e| e.into_inner())
}

fn strategies() -> Vec<(&'static str, Box<dyn SearchStrategy>)> {
    vec![
        (
            "genetic",
            Box::new(GeneticSearch {
                population: 10,
                generations: 3,
                seed: 2006,
            }) as Box<dyn SearchStrategy>,
        ),
        ("sample", Box::new(SubsampleSearch { n: 11, seed: 2006 })),
    ]
}

fn search_export(strategy: &dyn SearchStrategy, threads: usize) -> String {
    let hier = dmx_memhier::presets::sp64k_dram4m();
    let space = easyport_space(&hier, StudyScale::Quick);
    let trace = easyport_trace(StudyScale::Quick, 42);
    let outcome = Explorer::new(&hier).with_threads(threads).search(
        strategy,
        &space,
        &trace,
        &Objective::FIG1,
    );
    search_to_json(&outcome, &Objective::FIG1)
}

/// The tentpole guarantee: for every strategy and both extreme worker
/// counts, the exported search JSON is byte-identical whether span
/// recording was on or off for the whole run.
#[test]
fn search_export_is_byte_identical_with_recording_on_vs_off() {
    let _gate = gate();
    for (name, strategy) in strategies() {
        for threads in [1usize, 8] {
            dmx_obs::reset();
            dmx_obs::set_recording(false);
            let off = search_export(strategy.as_ref(), threads);

            dmx_obs::reset();
            dmx_obs::set_recording(true);
            let on = search_export(strategy.as_ref(), threads);
            dmx_obs::set_recording(false);

            // The instrumented run must actually have observed work —
            // otherwise this test would pass vacuously.
            let trace = dmx_obs::perfetto_json();
            assert!(
                trace.contains("eval.batch"),
                "{name} (threads={threads}): no spans recorded"
            );
            let snap = dmx_obs::metrics().snapshot();
            let generations = snap
                .iter()
                .find(|s| s.name == "search.generations")
                .expect("catalog metric");
            if name != "sample" {
                assert!(
                    matches!(generations.value, dmx_obs::MetricValue::Counter(n) if n > 0),
                    "{name} (threads={threads}): generation counter never moved"
                );
            }

            assert_eq!(
                on, off,
                "{name} (threads={threads}): recording perturbed the exported outcome"
            );
        }
    }
}

/// Same guarantee over the scenario layer: a robust exploration's
/// export (robust front, per-scenario fronts, commonality report) is
/// untouched by recording.
#[test]
fn robust_export_is_byte_identical_with_recording_on_vs_off() {
    let _gate = gate();
    let suite = ScenarioSuite::builtin("quick").expect("built-in suite");
    let strategy = GeneticSearch {
        population: 8,
        generations: 2,
        seed: 2006,
    };
    for threads in [1usize, 8] {
        let run = |recording: bool| {
            dmx_obs::reset();
            dmx_obs::set_recording(recording);
            let robust = MultiScenarioEvaluator::new(&suite)
                .with_aggregate(Aggregate::WorstCase)
                .with_threads(threads)
                .with_seed(2006)
                .run(&strategy);
            dmx_obs::set_recording(false);
            robust_to_json(&robust)
        };
        let off = run(false);
        let on = run(true);
        assert_eq!(
            on, off,
            "threads={threads}: recording perturbed the robust export"
        );
    }
}

/// The runtime toggle itself: recording leaves timeline events behind,
/// not recording leaves none. Guards against the flag silently becoming
/// a no-op (which would make the byte-compare tests vacuous).
#[test]
fn recording_flag_gates_span_capture() {
    let _gate = gate();

    dmx_obs::reset();
    dmx_obs::set_recording(false);
    let _ = search_export(&SubsampleSearch { n: 4, seed: 1 }, 1);
    let silent: usize = dmx_obs::drain_timelines()
        .iter()
        .map(|t| t.events.len())
        .sum();
    assert_eq!(silent, 0, "spans recorded while the flag was off");

    dmx_obs::reset();
    dmx_obs::set_recording(true);
    let _ = search_export(&SubsampleSearch { n: 4, seed: 1 }, 1);
    dmx_obs::set_recording(false);
    let recorded: usize = dmx_obs::drain_timelines()
        .iter()
        .map(|t| t.events.len())
        .sum();
    assert!(recorded > 0, "no spans recorded while the flag was on");
}
