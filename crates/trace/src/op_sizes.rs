//! The block size behind every pool op of a compiled trace.

use crate::compiled::CompiledTrace;

/// Allocation and free counts of one distinct size.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SizeOps {
    /// Allocations of this size.
    pub allocs: u64,
    /// Frees of blocks of this size.
    pub frees: u64,
}

/// Which allocation size each pool op of a [`CompiledTrace`] allocates or
/// frees, as an index into the trace's distinct sizes, with the op counts
/// of each size.
///
/// A composite allocator's per-op costs depend on the request size only
/// through its routing, so a per-size table of one configuration's costs
/// prices every op of the trace. The pruned exhaustive sweep builds one
/// index per sweep to bound the allocator work a paused replay has left;
/// [`CompiledTrace::compile`] does not build it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpSizeIndex {
    /// Distinct allocation sizes, ascending.
    sizes: Vec<u32>,
    /// Per pool op: the index into `sizes` of the block it allocates or
    /// frees.
    op_sizes: Vec<u32>,
    /// Per distinct size: its allocs and frees over the whole trace.
    counts: Vec<SizeOps>,
}

impl OpSizeIndex {
    /// Indexes `trace` in one pass over its pool ops.
    pub fn new(trace: &CompiledTrace) -> Self {
        let mut sizes = trace.alloc_sizes().to_vec();
        sizes.sort_unstable();
        sizes.dedup();
        let mut counts = vec![SizeOps::default(); sizes.len()];
        let mut op_sizes = Vec::with_capacity(trace.pool_ops().len());
        // The size index of the block live in each slot.
        let mut in_slot = vec![0u32; trace.max_live_slots() as usize];
        let mut alloc_sizes = trace.alloc_sizes().iter();
        for op in trace.pool_ops() {
            let slot = op.slot() as usize;
            let class = if op.is_free() {
                counts[in_slot[slot] as usize].frees += 1;
                in_slot[slot]
            } else {
                let size = alloc_sizes.next().expect("one size per alloc op");
                let class = sizes.binary_search(size).expect("every size is indexed") as u32;
                counts[class as usize].allocs += 1;
                in_slot[slot] = class;
                class
            };
            op_sizes.push(class);
        }
        OpSizeIndex {
            sizes,
            op_sizes,
            counts,
        }
    }

    /// The trace's distinct allocation sizes, ascending.
    pub fn sizes(&self) -> &[u32] {
        &self.sizes
    }

    /// Per pool op, parallel to [`CompiledTrace::pool_ops`]: the index
    /// into [`Self::sizes`] of the block the op allocates or frees.
    pub fn op_sizes(&self) -> &[u32] {
        &self.op_sizes
    }

    /// Per distinct size, parallel to [`Self::sizes`]: its allocs and
    /// frees over the whole trace.
    pub fn counts(&self) -> &[SizeOps] {
        &self.counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{BlockId, TraceEvent};
    use crate::gen::{EasyportConfig, TraceGenerator};
    use crate::trace::Trace;

    #[test]
    fn frees_carry_the_size_of_the_block_they_free() {
        let t = Trace::from_events(
            "t",
            vec![
                TraceEvent::alloc(BlockId(1), 64),
                TraceEvent::alloc(BlockId(2), 16),
                TraceEvent::free(BlockId(1)),
                TraceEvent::alloc(BlockId(3), 64),
                TraceEvent::free(BlockId(2)),
            ],
        )
        .unwrap();
        let index = OpSizeIndex::new(&CompiledTrace::compile(&t));
        assert_eq!(index.sizes(), [16, 64]);
        assert_eq!(index.op_sizes(), [1, 0, 1, 1, 0]);
        assert_eq!(
            index.counts(),
            [
                SizeOps {
                    allocs: 1,
                    frees: 1
                },
                SizeOps {
                    allocs: 2,
                    frees: 1
                }
            ]
        );
    }

    #[test]
    fn counts_sum_to_the_trace_op_totals() {
        let c = CompiledTrace::compile(&EasyportConfig::small().generate(3));
        let index = OpSizeIndex::new(&c);
        assert_eq!(index.op_sizes().len(), c.pool_ops().len());
        let allocs: u64 = index.counts().iter().map(|n| n.allocs).sum();
        let frees: u64 = index.counts().iter().map(|n| n.frees).sum();
        assert_eq!((allocs, frees), (c.allocs(), c.frees()));
        let mut ordinal = 0;
        for (op, &class) in c.pool_ops().iter().zip(index.op_sizes()) {
            if !op.is_free() {
                assert_eq!(index.sizes()[class as usize], c.alloc_sizes()[ordinal]);
                ordinal += 1;
            }
        }
    }
}
