//! The one parallel fan-out for simulations: [`simulate_jobs`] over a
//! single shared job counter.
//!
//! Workers claim job indices with one atomic increment each until the
//! counter runs past the batch. Uneven job costs — a scenario suite mixes
//! traces whose replay times differ by an order of magnitude — even out
//! on their own: a worker that finishes early simply claims the next
//! index.
//!
//! Results land by job index, so the assignment of jobs to workers can
//! never change a result — only the wall clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dmx_alloc::SimArena;

use super::{RunKind, SimStats};

/// Runs jobs `0..jobs` on up to `threads` scoped workers and returns
/// their results in job order, plus the kernel counters of every worker
/// arena summed into one [`SimStats`] (with the fan-out's wall time),
/// booked as runs of `kind`.
///
/// This is the only place dmx-core spawns threads: the
/// exhaustive runner, the evaluator's full-fidelity batches and the
/// multi-fidelity screening rungs all fan out through it. Workers claim
/// job indices from one shared counter, and each owns a plain
/// [`SimArena`] that `run(job, arena)` replays through, so the live-block
/// slab is reset in place across a worker's jobs.
pub(crate) fn simulate_jobs<R, F>(
    kind: RunKind,
    jobs: usize,
    threads: usize,
    run: F,
) -> (Vec<R>, SimStats)
where
    R: Send,
    F: Fn(usize, &mut SimArena) -> R + Sync,
{
    let mut stats = SimStats::default();
    if jobs == 0 {
        return (Vec::new(), stats);
    }
    let workers = threads.clamp(1, jobs);
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    let outputs: Vec<(Vec<(usize, R)>, SimArena)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut arena = SimArena::new();
                    let mut done = Vec::new();
                    loop {
                        let j = next.fetch_add(1, Ordering::Relaxed);
                        if j >= jobs {
                            break;
                        }
                        let _span = dmx_obs::span(dmx_obs::names::EVAL_JOB, j as u64);
                        dmx_obs::metrics().eval_jobs.incr();
                        done.push((j, run(j, &mut arena)));
                    }
                    (done, arena)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
            .collect()
    });
    stats.nanos = start.elapsed().as_nanos() as u64;

    let mut results: Vec<Option<R>> = (0..jobs).map(|_| None).collect();
    let (mut events, mut runs) = (0, 0);
    for (done, arena) in outputs {
        events += arena.events_replayed();
        runs += arena.runs();
        stats.arena_reuses += arena.reuses();
        for (j, r) in done {
            results[j] = Some(r);
        }
    }
    match kind {
        RunKind::Full => (stats.events, stats.runs) = (events, runs),
        RunKind::Screening => (stats.screen_events, stats.screen_runs) = (events, runs),
    }
    let results = results
        .into_iter()
        .map(|r| r.expect("the counter issues every job exactly once"))
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny fixture replay so the arena counters move: `ramp(n, 16)`
    /// replayed through the worker's arena.
    fn replay_ramp(n: usize, arena: &mut SimArena) -> u64 {
        let hier = dmx_memhier::presets::sp64k_dram4m();
        let trace = dmx_trace::CompiledTrace::compile(&dmx_trace::gen::ramp(n, 16));
        let config = dmx_alloc::AllocatorConfig::paper_example(&hier);
        dmx_alloc::Simulator::new(&hier)
            .run_in_arena(&config, &trace, arena)
            .expect("valid config")
            .allocs
    }

    #[test]
    fn simulate_jobs_runs_every_job_once_in_job_order() {
        // The last case has more workers than jobs.
        for (jobs, threads) in [(37, 1), (37, 2), (37, 8), (2, 16)] {
            let calls: Vec<AtomicUsize> = (0..jobs).map(|_| AtomicUsize::new(0)).collect();
            let expected: Vec<usize> = (0..jobs).map(|j| j * j).collect();
            let (out, _) = simulate_jobs(RunKind::Full, jobs, threads, |j, _| {
                calls[j].fetch_add(1, Ordering::Relaxed);
                j * j
            });
            assert_eq!(
                out, expected,
                "{jobs} jobs, threads={threads}: results in job order"
            );
            assert!(
                calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "{jobs} jobs, threads={threads}: every job runs exactly once"
            );
        }
        let (empty, stats) = simulate_jobs(RunKind::Full, 0, 4, |j, _| j);
        assert!(empty.is_empty());
        assert_eq!(stats, SimStats::default());
    }

    #[test]
    fn simulate_jobs_output_is_identical_across_worker_counts() {
        let sizes: Vec<usize> = (0..12).map(|j| 5 + (j * 7) % 23).collect();
        let run = |threads| {
            simulate_jobs(RunKind::Full, sizes.len(), threads, |j, arena| {
                replay_ramp(sizes[j], arena)
            })
        };
        let (one, stats_one) = run(1);
        assert_eq!(one, sizes.iter().map(|&n| n as u64).collect::<Vec<_>>());
        for threads in [2, 8] {
            let (out, stats) = run(threads);
            assert_eq!(out, one, "threads={threads}");
            assert_eq!(stats.runs, stats_one.runs);
            assert_eq!(stats.events, stats_one.events);
        }
    }

    #[test]
    fn simulate_jobs_sums_the_worker_arena_counters() {
        let events_per_run = 2 * 10; // ramp(10, _): 10 allocs + 10 frees
        for threads in [1, 2, 8] {
            let (_, stats) = simulate_jobs(RunKind::Full, 16, threads, |_, arena| {
                replay_ramp(10, arena)
            });
            assert_eq!(stats.runs, 16, "threads={threads}");
            assert_eq!(stats.events, 16 * events_per_run, "threads={threads}");
            // Each worker's first run allocates its slab; every later run
            // on that worker reuses it.
            let workers = threads.min(16) as u64;
            assert!(
                stats.arena_reuses >= 16 - workers && stats.arena_reuses <= 15,
                "threads={threads}: {} reuses",
                stats.arena_reuses
            );
            assert!(stats.nanos > 0);
        }
        // Screening fan-outs book into the screening counters only.
        let (_, stats) =
            simulate_jobs(RunKind::Screening, 16, 2, |_, arena| replay_ramp(10, arena));
        assert_eq!((stats.runs, stats.events), (0, 0));
        assert_eq!(stats.screen_runs, 16);
        assert_eq!(stats.screen_events, 16 * events_per_run);
    }
}
