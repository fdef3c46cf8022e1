//! The lock-free metric registry: counters, gauges and log₂-bucketed
//! histograms.
//!
//! All metric types are plain atomics with relaxed ordering — an update
//! is one `fetch_add` (or `store`/`fetch_max`). Every instrumented site
//! moves a metric at most once per replay, job, genome or batch, never
//! once per pool op, so one atomic per counter sees no contention worth
//! sharding. A snapshot ([`Counter::value`], [`Histogram::read`], …) is
//! a *point-in-time* view: concurrent updates may or may not be
//! included, but once all writers are quiescent the snapshot equals the
//! exact sum of every update ever made (the property the registry
//! proptests pin under 8 threads).

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Histogram bucket count: bucket 0 holds exact zeros, bucket `k ≥ 1`
/// holds values in `[2^(k-1), 2^k - 1]`, up to bucket 64 for the top of
/// the `u64` range.
pub const HIST_BUCKETS: usize = 65;

/// A monotone event counter.
#[derive(Debug)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter (usable in `static` position).
    pub const fn new() -> Self {
        Counter {
            value: AtomicU64::new(0),
        }
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds one.
    #[inline]
    pub fn incr(&self) {
        self.add(1);
    }

    /// Point-in-time total.
    pub fn value(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the counter.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    /// The metric's current value for snapshots.
    pub fn read(&self) -> MetricValue {
        MetricValue::Counter(self.value())
    }
}

/// A signed instantaneous value (current generation, live front size).
#[derive(Debug)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// A zeroed gauge (usable in `static` position).
    pub const fn new() -> Self {
        Gauge {
            value: AtomicI64::new(0),
        }
    }

    /// Sets the gauge.
    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    /// Current value.
    pub fn value(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }

    /// Zeroes the gauge.
    pub fn reset(&self) {
        self.value.store(0, Ordering::Relaxed);
    }

    /// The metric's current value for snapshots.
    pub fn read(&self) -> MetricValue {
        MetricValue::Gauge(self.value())
    }
}

/// A log₂-bucketed histogram over `u64` samples.
///
/// `record(v)` lands in bucket 0 for `v == 0` and in bucket
/// `64 - v.leading_zeros()` otherwise, i.e. bucket `k ≥ 1` spans
/// `[2^(k-1), 2^k - 1]`. Buckets are independent atomics, so concurrent
/// recorders only contend when they hit the *same* power-of-two band.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    sum: AtomicU64,
    max: AtomicU64,
}

/// The bucket index a value lands in (shared with the proptests).
pub fn bucket_index(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        64 - v.leading_zeros() as usize
    }
}

/// The inclusive `[lo, hi]` range of values bucket `k` covers.
pub fn bucket_bounds(k: usize) -> (u64, u64) {
    assert!(k < HIST_BUCKETS, "bucket index out of range");
    if k == 0 {
        (0, 0)
    } else if k == 64 {
        (1u64 << 63, u64::MAX)
    } else {
        (1u64 << (k - 1), (1u64 << k) - 1)
    }
}

impl Histogram {
    /// An empty histogram (usable in `static` position).
    pub const fn new() -> Self {
        Histogram {
            buckets: [const { AtomicU64::new(0) }; HIST_BUCKETS],
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }

    /// Records one sample.
    #[inline]
    pub fn record(&self, v: u64) {
        self.buckets[bucket_index(v)].fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(v, Ordering::Relaxed);
        self.max.fetch_max(v, Ordering::Relaxed);
    }

    /// Point-in-time snapshot: total count, sum, max, and every
    /// non-empty bucket as `(lo, hi, count)`.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = Vec::new();
        let mut count = 0u64;
        for (k, b) in self.buckets.iter().enumerate() {
            let c = b.load(Ordering::Relaxed);
            if c > 0 {
                let (lo, hi) = bucket_bounds(k);
                buckets.push((lo, hi, c));
                count += c;
            }
        }
        HistogramSnapshot {
            count,
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
            buckets,
        }
    }

    /// Zeroes every bucket.
    pub fn reset(&self) {
        for b in &self.buckets {
            b.store(0, Ordering::Relaxed);
        }
        self.sum.store(0, Ordering::Relaxed);
        self.max.store(0, Ordering::Relaxed);
    }

    /// The metric's current value for snapshots.
    pub fn read(&self) -> MetricValue {
        MetricValue::Histogram(self.snapshot())
    }
}

impl Default for Counter {
    fn default() -> Self {
        Self::new()
    }
}
impl Default for Gauge {
    fn default() -> Self {
        Self::new()
    }
}
impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// A histogram's point-in-time state.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Samples recorded.
    pub count: u64,
    /// Sum of all samples.
    pub sum: u64,
    /// Largest sample seen (0 when empty).
    pub max: u64,
    /// Non-empty buckets as `(lo, hi, count)`, ascending.
    pub buckets: Vec<(u64, u64, u64)>,
}

/// A metric's snapshot value, tagged by kind.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// Monotone counter total.
    Counter(u64),
    /// Instantaneous gauge value.
    Gauge(i64),
    /// Histogram state.
    Histogram(HistogramSnapshot),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricSample {
    /// The metric's dotted registry name (e.g. `search.cache.hits`).
    pub name: &'static str,
    /// Its value at snapshot time.
    pub value: MetricValue,
}

/// Declares a metric-group struct, pelikan-style: each field is a
/// [`Counter`], [`Gauge`] or [`Histogram`] with a dotted registry name,
/// and the group gains `const fn new()`, `fn snapshot()` (every metric in
/// declaration order) and `fn reset()`.
///
/// ```
/// dmx_obs::metrics! {
///     /// Metrics of some subsystem.
///     pub struct MyMetrics {
///         /// Things that happened.
///         pub things: Counter = "my.things",
///         /// Current backlog depth.
///         pub depth: Gauge = "my.depth",
///         /// Request sizes.
///         pub sizes: Histogram = "my.sizes",
///     }
/// }
///
/// static M: MyMetrics = MyMetrics::new();
/// M.things.incr();
/// M.sizes.record(100);
/// let snap = M.snapshot();
/// assert_eq!(snap.len(), 3);
/// assert_eq!(snap[0].name, "my.things");
/// ```
#[macro_export]
macro_rules! metrics {
    (
        $(#[$smeta:meta])*
        $vis:vis struct $name:ident {
            $(
                $(#[$fmeta:meta])*
                $fvis:vis $field:ident : $kind:ident = $mname:literal
            ),+ $(,)?
        }
    ) => {
        $(#[$smeta])*
        #[derive(Debug)]
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field : $crate::$kind, )+
        }

        impl $name {
            /// A group with every metric zeroed (usable in `static`
            /// position).
            $vis const fn new() -> Self {
                Self { $( $field : $crate::$kind::new(), )+ }
            }

            /// Point-in-time snapshot of every metric, in declaration
            /// order.
            $vis fn snapshot(&self) -> Vec<$crate::MetricSample> {
                vec![ $( $crate::MetricSample {
                    name: $mname,
                    value: self.$field.read(),
                }, )+ ]
            }

            /// Zeroes every metric in the group.
            $vis fn reset(&self) {
                $( self.$field.reset(); )+
            }
        }

        impl Default for $name {
            fn default() -> Self {
                Self::new()
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_sums_across_threads() {
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    for _ in 0..1000 {
                        c.incr();
                    }
                });
            }
        });
        assert_eq!(c.value(), 8000);
        c.reset();
        assert_eq!(c.value(), 0);
    }

    #[test]
    fn gauge_set_and_reset() {
        let g = Gauge::new();
        g.set(5);
        g.set(-3);
        assert_eq!(g.value(), -3);
        g.reset();
        assert_eq!(g.value(), 0);
    }

    #[test]
    fn histogram_bucket_boundaries() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(u64::MAX), 64);
        assert_eq!(bucket_bounds(0), (0, 0));
        assert_eq!(bucket_bounds(1), (1, 1));
        assert_eq!(bucket_bounds(2), (2, 3));
        assert_eq!(bucket_bounds(64), (1u64 << 63, u64::MAX));
    }

    #[test]
    fn histogram_snapshot_counts() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 3, 1000] {
            h.record(v);
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 5);
        assert_eq!(snap.sum, 1005);
        assert_eq!(snap.max, 1000);
        assert_eq!(
            snap.buckets,
            vec![(0, 0, 1), (1, 1, 2), (2, 3, 1), (512, 1023, 1)]
        );
    }
}
