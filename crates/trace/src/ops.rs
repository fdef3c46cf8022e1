//! Trace transformations: composing workloads.
//!
//! Embedded designs often run several dynamic applications on one platform
//! (the paper's domain pairs a network stack with multimedia codecs);
//! these helpers build such combined workloads from individual traces.

use std::collections::HashMap;

use crate::error::TraceError;
use crate::event::{BlockId, TraceEvent};
use crate::trace::Trace;

/// Interleaves several traces round-robin (one event from each in turn)
/// into a single well-formed trace, remapping block ids so the inputs
/// cannot collide.
///
/// The result models concurrent applications sharing one allocator. Input
/// order is preserved within each trace.
///
/// # Errors
///
/// Returns [`TraceError`] if a combined event sequence is ill-formed —
/// impossible for well-formed inputs, since ids are remapped into disjoint
/// ranges.
pub fn merge_round_robin(name: impl Into<String>, traces: &[&Trace]) -> Result<Trace, TraceError> {
    let mut merged = Trace::new(name);
    let mut cursors = vec![0usize; traces.len()];
    // Disjoint id spaces: trace i's ids are offset into its own window.
    let mut remap: Vec<HashMap<BlockId, BlockId>> = vec![HashMap::new(); traces.len()];
    let mut next_id = 1u64;

    loop {
        let mut progressed = false;
        for (ti, trace) in traces.iter().enumerate() {
            let Some(event) = trace.events().get(cursors[ti]) else {
                continue;
            };
            cursors[ti] += 1;
            progressed = true;
            let mapped = match *event {
                TraceEvent::Alloc { id, size, .. } => {
                    let new = BlockId(next_id);
                    next_id += 1;
                    remap[ti].insert(id, new);
                    TraceEvent::Alloc {
                        tid: crate::event::ThreadId::MAIN,
                        id: new,
                        size,
                    }
                }
                TraceEvent::Free { id, .. } => {
                    let new = remap[ti].remove(&id).expect("input trace is well-formed");
                    TraceEvent::Free {
                        tid: crate::event::ThreadId::MAIN,
                        id: new,
                    }
                }
                TraceEvent::Access {
                    id, reads, writes, ..
                } => {
                    let new = *remap[ti].get(&id).expect("input trace is well-formed");
                    TraceEvent::Access {
                        tid: crate::event::ThreadId::MAIN,
                        id: new,
                        reads,
                        writes,
                    }
                }
                tick @ TraceEvent::Tick { .. } => tick,
            };
            merged.push(mapped)?;
        }
        if !progressed {
            return Ok(merged);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{ramp, EasyportConfig, TraceGenerator, VtcConfig};
    use crate::stats::TraceStats;

    #[test]
    fn merge_preserves_event_totals() {
        let a = ramp(10, 64);
        let b = ramp(5, 128);
        let m = merge_round_robin("both", &[&a, &b]).unwrap();
        assert_eq!(m.len(), a.len() + b.len());
        let stats = TraceStats::compute(&m);
        assert_eq!(stats.allocs, 15);
        assert_eq!(stats.frees, 15);
        assert_eq!(m.final_live_bytes(), 0);
    }

    #[test]
    fn merge_remaps_colliding_ids() {
        // Both ramps use ids 1..=10 — the merge must keep them apart.
        let a = ramp(10, 64);
        let b = ramp(10, 128);
        let m = merge_round_robin("collide", &[&a, &b]).unwrap();
        let stats = TraceStats::compute(&m);
        assert_eq!(stats.peak_live_bytes, 10 * 64 + 10 * 128);
    }

    #[test]
    fn merge_of_real_workloads_is_well_formed() {
        let net = EasyportConfig {
            packets: 200,
            ..EasyportConfig::paper()
        }
        .generate(1);
        let video = VtcConfig::small().generate(2);
        let m = merge_round_robin("net+video", &[&net, &video]).unwrap();
        assert_eq!(m.len(), net.len() + video.len());
        // Hot sizes of both workloads coexist.
        let stats = TraceStats::compute(&m);
        assert!(stats.size_stat(74).is_some(), "network headers present");
        assert!(stats.size_stat(32).is_some(), "zerotree nodes present");
    }
}
