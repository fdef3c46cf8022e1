//! Trace profiling statistics.
//!
//! These statistics are what the paper's profiling step extracts from an
//! instrumented application run; the exploration tool uses them to seed the
//! parameter space (e.g. which block sizes deserve a dedicated pool).

use std::collections::HashMap;

use crate::event::{BlockId, TraceEvent};
use crate::trace::Trace;

/// Aggregate statistics for one requested block size.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SizeStat {
    /// The requested size in bytes.
    pub size: u32,
    /// Number of allocations of this size.
    pub allocs: u64,
    /// Peak number of simultaneously live blocks of this size.
    pub peak_live: u64,
    /// Total application accesses (reads + writes) to blocks of this size.
    pub accesses: u64,
}

/// Statistics computed over a whole [`Trace`].
#[derive(Debug, Clone, PartialEq)]
pub struct TraceStats {
    /// Number of events in the trace.
    pub events: usize,
    /// Number of `Alloc` events.
    pub allocs: u64,
    /// Number of `Free` events.
    pub frees: u64,
    /// Total application read accesses.
    pub app_reads: u64,
    /// Total application write accesses.
    pub app_writes: u64,
    /// Total compute cycles from `Tick` events.
    pub tick_cycles: u64,
    /// Total bytes requested over all allocations.
    pub total_alloc_bytes: u64,
    /// Peak live bytes (requested sizes, no allocator overhead).
    pub peak_live_bytes: u64,
    /// Peak number of simultaneously live blocks.
    pub peak_live_blocks: u64,
    /// Smallest requested size (0 for an empty trace).
    pub min_size: u32,
    /// Largest requested size (0 for an empty trace).
    pub max_size: u32,
    /// Mean block lifetime, measured in events between alloc and free,
    /// over blocks that were freed within the trace.
    pub mean_lifetime_events: f64,
    /// Per-size statistics, sorted by allocation count (descending).
    pub per_size: Vec<SizeStat>,
}

impl TraceStats {
    /// Profiles `trace` in one pass.
    pub fn compute(trace: &Trace) -> Self {
        let mut allocs = 0u64;
        let mut frees = 0u64;
        let mut app_reads = 0u64;
        let mut app_writes = 0u64;
        let mut tick_cycles = 0u64;
        let mut total_alloc_bytes = 0u64;
        let mut live_bytes = 0u64;
        let mut peak_live_bytes = 0u64;
        let mut live_blocks = 0u64;
        let mut peak_live_blocks = 0u64;
        let mut min_size = u32::MAX;
        let mut max_size = 0u32;
        let mut lifetime_sum = 0u64;
        let mut lifetime_count = 0u64;

        // id -> (size, alloc event index)
        let mut live: HashMap<BlockId, (u32, usize)> = HashMap::new();
        // size -> (allocs, live_now, peak_live, accesses)
        let mut per_size: HashMap<u32, (u64, u64, u64, u64)> = HashMap::new();

        for (idx, ev) in trace.iter().enumerate() {
            match *ev {
                TraceEvent::Alloc { id, size, .. } => {
                    allocs += 1;
                    total_alloc_bytes += u64::from(size);
                    live_bytes += u64::from(size);
                    live_blocks += 1;
                    peak_live_bytes = peak_live_bytes.max(live_bytes);
                    peak_live_blocks = peak_live_blocks.max(live_blocks);
                    min_size = min_size.min(size);
                    max_size = max_size.max(size);
                    live.insert(id, (size, idx));
                    let e = per_size.entry(size).or_insert((0, 0, 0, 0));
                    e.0 += 1;
                    e.1 += 1;
                    e.2 = e.2.max(e.1);
                }
                TraceEvent::Free { id, .. } => {
                    frees += 1;
                    if let Some((size, born)) = live.remove(&id) {
                        live_bytes -= u64::from(size);
                        live_blocks -= 1;
                        lifetime_sum += (idx - born) as u64;
                        lifetime_count += 1;
                        if let Some(e) = per_size.get_mut(&size) {
                            e.1 -= 1;
                        }
                    }
                }
                TraceEvent::Access {
                    id, reads, writes, ..
                } => {
                    app_reads += u64::from(reads);
                    app_writes += u64::from(writes);
                    if let Some((size, _)) = live.get(&id) {
                        if let Some(e) = per_size.get_mut(size) {
                            e.3 += u64::from(reads) + u64::from(writes);
                        }
                    }
                }
                TraceEvent::Tick { cycles } => {
                    tick_cycles += u64::from(cycles);
                }
            }
        }

        let mut per_size: Vec<SizeStat> = per_size
            .into_iter()
            .map(|(size, (allocs, _, peak_live, accesses))| SizeStat {
                size,
                allocs,
                peak_live,
                accesses,
            })
            .collect();
        per_size.sort_by(|a, b| b.allocs.cmp(&a.allocs).then(a.size.cmp(&b.size)));

        TraceStats {
            events: trace.len(),
            allocs,
            frees,
            app_reads,
            app_writes,
            tick_cycles,
            total_alloc_bytes,
            peak_live_bytes,
            peak_live_blocks,
            min_size: if min_size == u32::MAX { 0 } else { min_size },
            max_size,
            mean_lifetime_events: if lifetime_count == 0 {
                0.0
            } else {
                lifetime_sum as f64 / lifetime_count as f64
            },
            per_size,
        }
    }

    /// The `k` most frequently allocated block sizes, most frequent first.
    ///
    /// These are the natural candidates for dedicated pools — the paper's
    /// example dedicates pools to its hot 74-byte and 1500-byte blocks.
    pub fn dominant_sizes(&self, k: usize) -> Vec<u32> {
        self.per_size.iter().take(k).map(|s| s.size).collect()
    }

    /// Statistics for one specific size, if it occurs in the trace.
    pub fn size_stat(&self, size: u32) -> Option<&SizeStat> {
        self.per_size.iter().find(|s| s.size == size)
    }

    /// Fraction of all allocations covered by the `k` dominant sizes
    /// (1.0 when the trace has at most `k` distinct sizes).
    pub fn dominant_coverage(&self, k: usize) -> f64 {
        if self.allocs == 0 {
            return 1.0;
        }
        let covered: u64 = self.per_size.iter().take(k).map(|s| s.allocs).sum();
        covered as f64 / self.allocs as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BlockId, TraceEvent};

    fn trace() -> Trace {
        Trace::from_events(
            "t",
            vec![
                TraceEvent::Alloc {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(1),
                    size: 74,
                },
                TraceEvent::Alloc {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(2),
                    size: 74,
                },
                TraceEvent::Access {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(1),
                    reads: 5,
                    writes: 3,
                },
                TraceEvent::Alloc {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(3),
                    size: 1500,
                },
                TraceEvent::Tick { cycles: 100 },
                TraceEvent::Free {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(1),
                },
                TraceEvent::Free {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(2),
                },
                TraceEvent::Alloc {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(4),
                    size: 74,
                },
                TraceEvent::Free {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(3),
                },
                TraceEvent::Free {
                    tid: crate::event::ThreadId::MAIN,
                    id: BlockId(4),
                },
            ],
        )
        .unwrap()
    }

    #[test]
    fn counts_and_totals() {
        let s = TraceStats::compute(&trace());
        assert_eq!(s.allocs, 4);
        assert_eq!(s.frees, 4);
        assert_eq!(s.app_reads, 5);
        assert_eq!(s.app_writes, 3);
        assert_eq!(s.tick_cycles, 100);
        assert_eq!(s.total_alloc_bytes, 74 * 3 + 1500);
        assert_eq!(s.min_size, 74);
        assert_eq!(s.max_size, 1500);
    }

    #[test]
    fn peaks_track_live_set() {
        let s = TraceStats::compute(&trace());
        assert_eq!(s.peak_live_bytes, 74 + 74 + 1500);
        assert_eq!(s.peak_live_blocks, 3);
    }

    #[test]
    fn per_size_sorted_by_popularity() {
        let s = TraceStats::compute(&trace());
        assert_eq!(s.per_size[0].size, 74);
        assert_eq!(s.per_size[0].allocs, 3);
        assert_eq!(s.per_size[0].peak_live, 2);
        assert_eq!(s.per_size[1].size, 1500);
        assert_eq!(s.dominant_sizes(1), vec![74]);
    }

    #[test]
    fn size_stat_lookup() {
        let s = TraceStats::compute(&trace());
        assert_eq!(s.size_stat(1500).unwrap().allocs, 1);
        assert!(s.size_stat(9).is_none());
    }

    #[test]
    fn accesses_attributed_to_size() {
        let s = TraceStats::compute(&trace());
        assert_eq!(s.size_stat(74).unwrap().accesses, 8);
        assert_eq!(s.size_stat(1500).unwrap().accesses, 0);
    }

    #[test]
    fn lifetime_is_event_distance() {
        let s = TraceStats::compute(&trace());
        // lifetimes: id1: 5-0=5, id2: 6-1=5, id3: 8-3=5, id4: 9-7=2
        assert!((s.mean_lifetime_events - 4.25).abs() < 1e-9);
    }

    #[test]
    fn dominant_coverage_fraction() {
        let s = TraceStats::compute(&trace());
        assert!((s.dominant_coverage(1) - 0.75).abs() < 1e-9);
        assert!((s.dominant_coverage(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_trace_stats() {
        let t = Trace::new("empty");
        let s = TraceStats::compute(&t);
        assert_eq!(s.allocs, 0);
        assert_eq!(s.min_size, 0);
        assert_eq!(s.mean_lifetime_events, 0.0);
        assert_eq!(s.dominant_coverage(3), 1.0);
        assert!(s.dominant_sizes(3).is_empty());
    }
}
