//! Property tests for the evaluator's batched fan-out.
//!
//! Fresh genomes of a generation become one batch of (instance, genome)
//! jobs that worker threads claim one by one, each replaying through its
//! own `SimArena`. Two invariants pin that design down:
//!
//! 1. **Thread invariance** — a robust genetic search over two workload
//!    instances produces byte-identical results (genomes, fronts, labels,
//!    cache accounting) and identical *logical* kernel counters (events,
//!    runs) at 1 and 8 evaluation workers. Jobs are indexed before
//!    workers are spawned, so scheduling can only change who runs a job,
//!    never what it computes or where its result lands.
//! 2. **Every fresh genome is replayed once** — the kernel's run count is
//!    the exploration's simulation count, each run replays the whole
//!    compiled trace, and workers reuse their arenas across jobs.

use proptest::prelude::*;

use dmx_core::search::{EvalInstance, GeneticSearch, SearchContext};
use dmx_core::study::{easyport_space, easyport_trace, vtc_trace, StudyScale};
use dmx_core::{Aggregate, Explorer, Objective, SearchOutcome, SearchStrategy};
use dmx_trace::CompiledTrace;

fn strategy(seed: u64) -> GeneticSearch {
    GeneticSearch {
        population: 16,
        generations: 4,
        seed,
    }
}

/// A worst-case robust search over an easyport and a VTC instance.
fn robust_with_threads(seed: u64, threads: usize) -> SearchOutcome {
    let hierarchy = dmx_memhier::presets::sp64k_dram4m();
    let space = easyport_space(&hierarchy, StudyScale::Quick);
    let traces = [
        easyport_trace(StudyScale::Quick, 42),
        vtc_trace(StudyScale::Quick, 42),
    ];
    let instances: Vec<EvalInstance> = traces
        .iter()
        .map(|trace| EvalInstance::single(&hierarchy, trace))
        .collect();
    let ctx = SearchContext {
        space: &space,
        instances: &instances,
        aggregate: Some(Aggregate::WorstCase),
        objectives: &Objective::FIG1,
        threads,
        fidelity: None,
    };
    strategy(seed).search(&ctx)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    /// Same seed ⇒ identical search output and identical logical kernel
    /// counters at 1 and 8 workers, across a multi-instance job batch.
    /// Only the physical counters (arena reuse pattern, wall clock) may
    /// depend on the worker count.
    #[test]
    fn batched_evaluation_is_thread_invariant(seed in 0u64..1000) {
        let a = robust_with_threads(seed, 1);
        let b = robust_with_threads(seed, 8);
        prop_assert_eq!(&a.genomes, &b.genomes);
        prop_assert_eq!(&a.front.points, &b.front.points);
        prop_assert_eq!(a.evaluations, b.evaluations);
        prop_assert_eq!(a.simulations, b.simulations);
        prop_assert_eq!(a.simulations, 2 * a.evaluations, "one job per genome × instance");
        prop_assert_eq!(a.cache_hits, b.cache_hits);
        let la: Vec<&str> = a.exploration.results.iter().map(|r| r.label.as_str()).collect();
        let lb: Vec<&str> = b.exploration.results.iter().map(|r| r.label.as_str()).collect();
        prop_assert_eq!(la, lb);
        // Logical kernel counters: what was replayed, not who replayed it.
        prop_assert_eq!(a.sim_stats.events, b.sim_stats.events);
        prop_assert_eq!(a.sim_stats.runs, b.sim_stats.runs);
    }

    /// Every simulation is exactly one kernel run over the whole compiled
    /// trace, and workers keep their arenas across the jobs they claim.
    #[test]
    fn fresh_genomes_flow_through_the_batch_kernel(seed in 0u64..1000) {
        let hierarchy = dmx_memhier::presets::sp64k_dram4m();
        let space = easyport_space(&hierarchy, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let outcome = Explorer::new(&hierarchy).with_threads(4).search(
            &strategy(seed),
            &space,
            &trace,
            &Objective::FIG1,
        );
        let stats = &outcome.sim_stats;
        let events_per_run = CompiledTrace::compile(&trace).len() as u64;
        prop_assert!(outcome.simulations > 0);
        prop_assert_eq!(stats.runs, outcome.simulations as u64);
        prop_assert_eq!(stats.events, stats.runs * events_per_run);
        prop_assert!(
            stats.arena_reuses > 0 && stats.arena_reuses < stats.runs,
            "workers must reuse arenas across jobs ({} reuses in {} runs)",
            stats.arena_reuses,
            stats.runs
        );
    }
}
