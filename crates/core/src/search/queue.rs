//! The one parallel fan-out for simulations: [`simulate_jobs`] over a
//! work-stealing job queue.
//!
//! A batch of simulation jobs (genome × instance) is split into one
//! contiguous chunk per worker. Each worker drains its own chunk with a
//! single uncontended atomic increment per job, and only when its chunk is
//! empty does it scan the other chunks and *steal* their remaining jobs.
//! Compared to one global shared counter this keeps workers on disjoint
//! cache lines for the common balanced case, while uneven job costs — a
//! scenario suite mixes traces whose replay times differ by an order of
//! magnitude — still even out through stealing instead of leaving the
//! unlucky worker to finish alone.
//!
//! The queue hands out *indices* and [`simulate_jobs`] returns results in
//! job order, so the assignment of jobs to workers can never change a
//! result — only the wall clock.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use dmx_alloc::SimArena;

use super::{RunKind, SimStats};

/// Cache-line padding so per-chunk heads do not false-share.
#[repr(align(64))]
struct Head(AtomicUsize);

/// A fixed batch of `jobs` indices, split into per-worker chunks with
/// stealing. Every index in `0..jobs` is handed out exactly once across
/// all concurrent callers of [`Self::pop`].
pub(crate) struct StealQueue {
    /// Next un-issued index per chunk (monotone; may run past `end`).
    heads: Vec<Head>,
    /// Half-open `[start, end)` index range per chunk.
    ranges: Vec<(usize, usize)>,
}

impl StealQueue {
    /// Splits `jobs` indices into `workers` chunks (at most one chunk per
    /// job, so no empty chunks unless `jobs == 0`).
    pub(crate) fn new(jobs: usize, workers: usize) -> Self {
        let chunks = workers.max(1).min(jobs.max(1));
        let base = jobs / chunks;
        let extra = jobs % chunks;
        let mut ranges = Vec::with_capacity(chunks);
        let mut start = 0;
        for c in 0..chunks {
            let len = base + usize::from(c < extra);
            ranges.push((start, start + len));
            start += len;
        }
        debug_assert_eq!(start, jobs);
        StealQueue {
            heads: ranges.iter().map(|r| Head(AtomicUsize::new(r.0))).collect(),
            ranges,
        }
    }

    /// Takes the next index of chunk `c`, if any is left.
    fn take(&self, c: usize) -> Option<usize> {
        let (_, end) = self.ranges[c];
        // Opportunistic check keeps exhausted chunks from being bumped
        // forever while workers poll for leftovers.
        if self.heads[c].0.load(Ordering::Relaxed) >= end {
            return None;
        }
        let i = self.heads[c].0.fetch_add(1, Ordering::Relaxed);
        (i < end).then_some(i)
    }

    /// Pops the next job for `worker`: its own chunk first, then the other
    /// chunks in round-robin order (stealing). Returns `None` only when
    /// every chunk is drained.
    pub(crate) fn pop(&self, worker: usize) -> Option<usize> {
        let n = self.ranges.len();
        let own = worker % n;
        for off in 0..n {
            if let Some(i) = self.take((own + off) % n) {
                if off > 0 {
                    dmx_obs::metrics().queue_steals.incr();
                }
                return Some(i);
            }
        }
        None
    }
}

/// Runs jobs `0..jobs` on up to `threads` scoped workers and returns
/// their results in job order, plus the kernel counters of every worker
/// arena summed into one [`SimStats`] (with the fan-out's wall time),
/// booked as runs of `kind`.
///
/// This is the only place dmx-core spawns simulation threads: the
/// exhaustive runner, the evaluator's full-fidelity batches and the
/// multi-fidelity screening rungs all fan out through it. Workers pull
/// job indices from a [`StealQueue`], and each owns a plain [`SimArena`]
/// that `run(job, arena)` replays through, so the live-block slab is
/// reset in place across a worker's jobs.
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
    let queue = StealQueue::new(jobs, workers);
    let start = Instant::now();
    let outputs: Vec<(Vec<(usize, R)>, SimArena)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let (queue, run) = (&queue, &run);
                scope.spawn(move || {
                    let mut arena = SimArena::new();
                    let mut done = Vec::new();
                    while let Some(j) = queue.pop(w) {
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
        .map(|r| r.expect("the queue issues every job exactly once"))
        .collect();
    (results, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::Mutex;

    #[test]
    fn every_job_issued_exactly_once_single_worker() {
        let q = StealQueue::new(10, 4);
        let mut seen = Vec::new();
        while let Some(i) = q.pop(0) {
            seen.push(i);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..10).collect::<Vec<_>>());
        assert_eq!(q.pop(0), None, "drained queue stays drained");
    }

    #[test]
    fn chunks_cover_the_range_without_overlap() {
        for (jobs, workers) in [(0, 3), (1, 8), (7, 3), (16, 4), (5, 5), (3, 1)] {
            let q = StealQueue::new(jobs, workers);
            let mut covered = 0;
            for (i, &(s, e)) in q.ranges.iter().enumerate() {
                assert!(s <= e, "jobs={jobs} workers={workers} chunk {i}");
                covered += e - s;
            }
            assert_eq!(covered, jobs, "jobs={jobs} workers={workers}");
        }
    }

    #[test]
    fn stealing_drains_other_workers_chunks() {
        // Worker 1 never pops; worker 0 must steal chunk 1's jobs.
        let q = StealQueue::new(8, 2);
        let mut seen = HashSet::new();
        while let Some(i) = q.pop(0) {
            assert!(seen.insert(i), "job {i} issued twice");
        }
        assert_eq!(seen.len(), 8, "worker 0 stole the idle worker's chunk");
    }

    #[test]
    fn concurrent_pops_issue_each_job_exactly_once() {
        let jobs = 10_000;
        let workers = 8;
        let q = StealQueue::new(jobs, workers);
        let seen = Mutex::new(vec![0u32; jobs]);
        std::thread::scope(|scope| {
            for w in 0..workers {
                let q = &q;
                let seen = &seen;
                scope.spawn(move || {
                    let mut local = Vec::new();
                    while let Some(i) = q.pop(w) {
                        local.push(i);
                    }
                    let mut counts = seen.lock().unwrap();
                    for i in local {
                        counts[i] += 1;
                    }
                });
            }
        });
        assert!(
            seen.into_inner().unwrap().iter().all(|&c| c == 1),
            "every job must be issued exactly once"
        );
    }

    #[test]
    fn more_workers_than_jobs_is_fine() {
        let q = StealQueue::new(2, 16);
        let a = q.pop(7);
        let b = q.pop(13);
        let mut got = [a, b].map(|x| x.expect("two jobs available"));
        got.sort_unstable();
        assert_eq!(got, [0, 1]);
        assert_eq!(q.pop(0), None);
    }

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
        let calls: Vec<AtomicUsize> = (0..37).map(|_| AtomicUsize::new(0)).collect();
        let expected: Vec<usize> = (0..37).map(|j| j * j).collect();
        for threads in [1, 2, 8] {
            for c in &calls {
                c.store(0, Ordering::Relaxed);
            }
            let (out, _) = simulate_jobs(RunKind::Full, 37, threads, |j, _| {
                calls[j].fetch_add(1, Ordering::Relaxed);
                j * j
            });
            assert_eq!(out, expected, "threads={threads}: results in job order");
            assert!(
                calls.iter().all(|c| c.load(Ordering::Relaxed) == 1),
                "threads={threads}: every job runs exactly once"
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
