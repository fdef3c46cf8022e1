//! Property tests for the metric registry: concurrent counter and
//! histogram updates must fold to exactly the sum of every delta once
//! the writers are quiescent, and the log₂ bucket layout must place
//! every value in the one bucket whose bounds contain it.

use dmx_obs::{bucket_bounds, bucket_index, Counter, Histogram, HIST_BUCKETS};
use proptest::prelude::*;

const THREADS: usize = 8;

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Snapshot == sum of deltas: 8 threads each add their own slice of
    /// deltas; once joined, the counter's value is the exact total.
    #[test]
    fn counter_snapshot_equals_sum_of_deltas(
        deltas in prop::collection::vec(0u64..10_000, THREADS * 4),
    ) {
        let c = Counter::new();
        let cref = &c;
        std::thread::scope(|s| {
            for chunk in deltas.chunks(deltas.len() / THREADS) {
                s.spawn(move || {
                    for &d in chunk {
                        cref.add(d);
                    }
                });
            }
        });
        prop_assert_eq!(c.value(), deltas.iter().sum::<u64>());
    }

    /// Histograms under 8 concurrent recorders: total count, sum and
    /// per-bucket counts all match a sequential reference fold.
    #[test]
    fn histogram_concurrent_matches_reference(
        values in prop::collection::vec(any::<u64>(), THREADS * 4),
    ) {
        let h = Histogram::new();
        let href = &h;
        std::thread::scope(|s| {
            for chunk in values.chunks(values.len() / THREADS) {
                s.spawn(move || {
                    for &v in chunk {
                        href.record(v);
                    }
                });
            }
        });
        let snap = h.snapshot();
        prop_assert_eq!(snap.count, values.len() as u64);
        prop_assert_eq!(snap.sum, values.iter().fold(0u64, |a, &v| a.wrapping_add(v)));
        prop_assert_eq!(snap.max, values.iter().copied().max().unwrap_or(0));

        let mut expected = [0u64; HIST_BUCKETS];
        for &v in &values {
            expected[bucket_index(v)] += 1;
        }
        for &(lo, hi, count) in &snap.buckets {
            let k = bucket_index(lo);
            prop_assert_eq!(bucket_bounds(k), (lo, hi));
            prop_assert_eq!(count, expected[k]);
        }
        let nonzero = expected.iter().filter(|&&c| c > 0).count();
        prop_assert_eq!(snap.buckets.len(), nonzero);
    }

    /// Every value lands in exactly the bucket whose `[lo, hi]` range
    /// contains it, and the bucket layout tiles the `u64` range.
    #[test]
    fn bucket_index_matches_bounds(v in any::<u64>()) {
        let k = bucket_index(v);
        let (lo, hi) = bucket_bounds(k);
        prop_assert!(lo <= v && v <= hi, "v={} outside bucket {} [{}, {}]", v, k, lo, hi);
    }
}

/// The boundary cases that matter: zeros get their own bucket, powers
/// of two open a new bucket, and `2^k - 1` closes the previous one.
#[test]
fn bucket_boundary_edges() {
    assert_eq!(bucket_index(0), 0);
    assert_eq!(bucket_index(1), 1);
    for k in 1..64 {
        let pow = 1u64 << k;
        assert_eq!(bucket_index(pow), k + 1, "2^{k} must open bucket {}", k + 1);
        assert_eq!(bucket_index(pow - 1), k, "2^{k}-1 must stay in bucket {k}");
    }
    assert_eq!(bucket_index(u64::MAX), 64);

    // Bucket bounds tile the range with no gaps or overlaps.
    assert_eq!(bucket_bounds(0), (0, 0));
    let mut prev_hi = 0u64;
    for k in 1..HIST_BUCKETS {
        let (lo, hi) = bucket_bounds(k);
        assert_eq!(
            lo,
            prev_hi + 1,
            "bucket {k} must start after bucket {}",
            k - 1
        );
        assert!(hi >= lo);
        prev_hi = hi;
    }
    assert_eq!(prev_hi, u64::MAX);
}
