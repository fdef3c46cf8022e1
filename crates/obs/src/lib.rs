//! `dmx-obs` — zero-perturbation observability for the dmx workspace.
//!
//! Three pieces:
//!
//! 1. **Metric registry** ([`registry`]) — lock-free [`Counter`]s,
//!    [`Gauge`]s and log₂-bucketed [`Histogram`]s, declared in groups
//!    via the [`metrics!`] macro and readable as a point-in-time
//!    snapshot at any moment.
//! 2. **Span timeline** ([`span`](mod@span)) — cheap begin/end
//!    instrumentation recorded into per-thread ring buffers with
//!    monotonic timestamps, gated at runtime by [`set_recording`].
//! 3. **Exporters** ([`export`]) — a Chrome/Perfetto-compatible
//!    `trace.json` writer and a flat metrics JSON snapshot.
//!
//! # Zero perturbation
//!
//! Instrumented code must behave identically whether span recording is
//! on or off. There is one build: metrics are always live, and spans
//! cost one relaxed load each until [`set_recording`] switches them
//! on. The rules:
//!
//! - obs state never feeds back into search decisions: no RNG draws, no
//!   genome ordering, no charged `SimMetrics` may depend on a metric or
//!   span;
//! - obs data is exported to *separate* artifacts (`--obs-trace`,
//!   `--obs-metrics`), never merged into result exports, because
//!   timing- and interleaving-dependent values (nanos, span lanes)
//!   would break the byte-determinism CI asserts on results.
//!
//! The golden tests in `tests/golden_obs.rs` (workspace root) pin the
//! guarantee: `SearchOutcome` exports are byte-identical with recording
//! on vs. off, at 1 and 8 evaluation workers, and the CLI integration
//! tests and CI byte-compare a recording `dmx` run against a plain one.

pub mod export;
pub mod registry;
pub mod span;

pub use export::{metrics_to_json, timelines_to_trace_json};
pub use registry::{
    bucket_bounds, bucket_index, Counter, Gauge, Histogram, HistogramSnapshot, MetricSample,
    MetricValue, HIST_BUCKETS,
};
pub use span::{
    clear_timelines, drain_timelines, instant, span, SpanEvent, SpanGuard, SpanKind, ThreadEvents,
};

static RECORDING: std::sync::atomic::AtomicBool = std::sync::atomic::AtomicBool::new(false);

/// Switches span recording on or off at runtime. Metrics (counters,
/// gauges, histograms) are always live — only the timeline rings are
/// gated, since they are the part with a per-event
/// allocation-free-but-nonzero cost.
pub fn set_recording(on: bool) {
    RECORDING.store(on, std::sync::atomic::Ordering::Relaxed);
}

/// Whether span recording is currently on.
#[inline]
pub fn recording() -> bool {
    RECORDING.load(std::sync::atomic::Ordering::Relaxed)
}

/// Span names used across the workspace, so exporters and tests can
/// refer to one canonical taxonomy. Dotted `layer.operation` style.
pub mod names {
    /// One `Evaluator::eval_batch` call (arg: genomes requested).
    pub const EVAL_BATCH: &str = "eval.batch";
    /// One simulation job on a worker (arg: job index).
    pub const EVAL_JOB: &str = "eval.job";
    /// One genetic-search generation (arg: generation index).
    pub const GA_GENERATION: &str = "search.generation";
    /// One kernel replay pass (arg: trace events).
    pub const KERNEL_REPLAY: &str = "kernel.replay";
    /// Cache hit marker (instant).
    pub const CACHE_HIT: &str = "cache.hit";
    /// Cache miss marker (instant).
    pub const CACHE_MISS: &str = "cache.miss";
    /// One multi-fidelity screening rung over a batch (arg: candidates
    /// entering the rung).
    pub const EVAL_SCREEN: &str = "eval.screen";
}

metrics! {
    /// The workspace-wide metric catalog. One static instance lives in
    /// this crate ([`metrics()`]); instrumented layers update it
    /// directly and exporters snapshot it.
    pub struct DmxMetrics {
        /// Genetic-search generations completed.
        pub search_generations: Counter = "search.generations",
        /// Evaluation-cache hits (lookups + batch-planner accounting).
        pub cache_hits: Counter = "search.cache.hits",
        /// Evaluation-cache misses.
        pub cache_misses: Counter = "search.cache.misses",
        /// `eval_batch` calls.
        pub eval_batches: Counter = "eval.batches",
        /// Genomes simulated fresh (cache misses that ran the kernel).
        pub eval_fresh: Counter = "eval.fresh",
        /// Simulation jobs executed by workers.
        pub eval_jobs: Counter = "eval.jobs",
        /// Kernel replay passes.
        pub kernel_replays: Counter = "kernel.replays",
        /// Logical trace events of kernel replays run to the end.
        pub kernel_events: Counter = "kernel.events",
        /// Candidates that entered a multi-fidelity screening rung.
        pub fidelity_screened: Counter = "fidelity.screened",
        /// Candidates promoted past a screening rung.
        pub fidelity_promoted: Counter = "fidelity.promoted",
        /// Candidates ranked by a surrogate instead of a prefix replay.
        pub fidelity_surrogate_hits: Counter = "fidelity.surrogate_hits",
        /// Current generation of the most recent search.
        pub generation: Gauge = "search.generation.current",
        /// Total generations the current search will run.
        pub generations_total: Gauge = "search.generation.total",
        /// Pareto-front size after the latest generation.
        pub front_size: Gauge = "search.front.size",
        /// Hypervolume proxy (‰ of the reference box) after the latest
        /// generation.
        pub hv_permille: Gauge = "search.front.hv_permille",
        /// Fresh genomes per `eval_batch` call.
        pub batch_fresh: Histogram = "eval.batch.fresh",
        /// Prefix lengths (trace events) replayed by screening rungs.
        pub fidelity_prefix_events: Histogram = "fidelity.prefix.events",
    }
}

static METRICS: DmxMetrics = DmxMetrics::new();

/// The workspace-wide metric catalog.
pub fn metrics() -> &'static DmxMetrics {
    &METRICS
}

/// Zeroes every catalog metric and clears every span ring. Intended
/// for tests and benches that measure from a clean slate.
pub fn reset() {
    metrics().reset();
    clear_timelines();
}

/// Snapshots the catalog as flat metrics JSON (see
/// [`metrics_to_json`]).
pub fn metrics_json() -> String {
    metrics_to_json(&metrics().snapshot())
}

/// Snapshots every thread timeline as a Perfetto trace-event document
/// (see [`timelines_to_trace_json`]).
pub fn perfetto_json() -> String {
    timelines_to_trace_json(&drain_timelines())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_snapshot_has_every_metric() {
        let snap = metrics().snapshot();
        assert_eq!(snap.len(), 17);
        assert_eq!(snap[0].name, "search.generations");
        assert!(snap.iter().any(|s| s.name == "kernel.replays"));
        assert!(snap.iter().any(|s| s.name == "fidelity.prefix.events"));
    }

    #[test]
    fn catalog_counters_accumulate() {
        // Other tests share the static catalog, so assert on deltas of
        // a metric nothing else in this crate touches.
        let before = metrics().fidelity_surrogate_hits.value();
        metrics().fidelity_surrogate_hits.add(5);
        assert_eq!(metrics().fidelity_surrogate_hits.value() - before, 5);
    }
}
