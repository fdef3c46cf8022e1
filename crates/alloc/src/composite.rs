//! Composition of pools into one allocator.
//!
//! A composite allocator routes each request size to a pool — dedicated
//! pools for hot sizes, optional range pools, and exactly one fallback —
//! and owns the shared [`RegionTable`] through which every pool reserves
//! placed memory. This mirrors the paper's custom allocators: "a dedicated
//! pool for 74-byte blocks ... onto the L1 scratchpad, while a general pool
//! and a dedicated pool for 1500-byte blocks use the 4 MB main memory".

use dmx_memhier::{MemoryHierarchy, RegionTable};

use crate::block::BlockInfo;
use crate::ctx::AllocCtx;
use crate::error::AllocError;
use crate::pool::{MetaFloor, Pool};

/// Identifies the pool that served an allocation: its index in the
/// [`AllocatorConfig::pools`](crate::AllocatorConfig::pools) the composite
/// was built from. The caller keeps it with its block record and hands it
/// back to [`CompositeAllocator::free`].
pub type PoolId = u32;

/// A size-routed set of pools acting as one allocator, built by
/// [`AllocatorConfig::build`](crate::AllocatorConfig::build).
pub struct CompositeAllocator {
    pools: Vec<Box<dyn Pool>>,
    /// Exact routes, sorted by size for binary search (few entries).
    exact: Vec<(u32, usize)>,
    ranges: Vec<(u32, u32, usize)>,
    fallback: usize,
    live: u64,
    regions: RegionTable,
}

impl std::fmt::Debug for CompositeAllocator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeAllocator")
            .field("pools", &self.pools.len())
            .field("exact_routes", &self.exact.len())
            .field("range_routes", &self.ranges.len())
            .field("live", &self.live)
            .finish()
    }
}

impl CompositeAllocator {
    /// Composes `pools` over `hierarchy`. Routes hold pool indices;
    /// `exact` may come in any order and is sorted here.
    ///
    /// The caller has validated the configuration the pools come from
    /// ([`AllocatorConfig::validate`](crate::AllocatorConfig::validate)):
    /// `fallback` is its one fallback pool and the exact sizes are
    /// distinct.
    pub(crate) fn new(
        hierarchy: &MemoryHierarchy,
        pools: Vec<Box<dyn Pool>>,
        mut exact: Vec<(u32, usize)>,
        ranges: Vec<(u32, u32, usize)>,
        fallback: usize,
    ) -> Self {
        exact.sort_unstable_by_key(|&(size, _)| size);
        CompositeAllocator {
            pools,
            exact,
            ranges,
            fallback,
            live: 0,
            regions: RegionTable::new(hierarchy),
        }
    }

    /// Serves an allocation, routing by request size, and returns the
    /// serving pool's [`PoolId`] alongside the placement.
    ///
    /// Dedicated (exact/range) pools that cannot serve — out of memory on
    /// their level, or the request exceeds their limits — overflow to the
    /// fallback pool, as the paper's custom allocators do.
    ///
    /// # Errors
    ///
    /// Returns the fallback pool's error when even the fallback cannot
    /// serve.
    pub fn alloc(
        &mut self,
        size: u32,
        ctx: &mut AllocCtx,
    ) -> Result<(BlockInfo, PoolId), AllocError> {
        ctx.count_op();
        let primary = self.route(size);
        let attempt = self.pools[primary].alloc(size, &mut self.regions, ctx);
        let (info, served_by) = match attempt {
            Ok(info) => (info, primary),
            Err(_) if primary != self.fallback => {
                let info = self.pools[self.fallback].alloc(size, &mut self.regions, ctx)?;
                (info, self.fallback)
            }
            Err(e) => return Err(e),
        };
        self.live += 1;
        Ok((info, served_by as PoolId))
    }

    /// Frees the block at `addr`, routing straight to the pool that
    /// [`Self::alloc`] reported for it.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is out of range or does not own `addr`.
    pub fn free(&mut self, addr: u64, pool: PoolId, ctx: &mut AllocCtx) {
        ctx.count_op();
        self.pools[pool as usize].free(addr, ctx);
        debug_assert!(self.live > 0, "free with no live blocks");
        self.live -= 1;
    }

    /// Number of pools composed.
    pub fn pool_count(&self) -> usize {
        self.pools.len()
    }

    /// Number of currently live blocks across all pools.
    pub fn live_blocks(&self) -> u64 {
        self.live
    }

    /// The fewest metadata accesses an alloc of `size` bytes that gets
    /// served and a free of such a block can charge. A dedicated pool may
    /// overflow to the fallback, so a served alloc's floor is the smaller
    /// of the routed pool's and the fallback's; the block lands in one of
    /// the two, so the same holds for its free.
    pub fn meta_floor(&self, size: u32) -> MetaFloor {
        let routed = self.pools[self.route(size)].meta_floor();
        let fallback = self.pools[self.fallback].meta_floor();
        MetaFloor {
            alloc: routed.alloc.min(fallback.alloc),
            free: routed.free.min(fallback.free),
        }
    }

    /// The pool index a request of `size` bytes routes to first.
    fn route(&self, size: u32) -> usize {
        if let Ok(i) = self.exact.binary_search_by_key(&size, |&(s, _)| s) {
            return self.exact[i].1;
        }
        for &(min, max, idx) in &self.ranges {
            if (min..=max).contains(&size) {
                return idx;
            }
        }
        self.fallback
    }

    /// Validates every pool's internal invariants plus the live-block
    /// accounting.
    ///
    /// # Panics
    ///
    /// Panics with a diagnostic on any violation.
    pub fn validate(&self) {
        for pool in &self.pools {
            pool.validate();
        }
        let live_in_pools: u64 = self.pools.iter().map(|p| p.live_blocks()).sum();
        assert_eq!(
            live_in_pools, self.live,
            "live counter disagrees with pool live counts"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{AllocatorConfig, PoolKind, PoolSpec, Route};
    use crate::error::BuildError;
    use crate::policy::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
    use dmx_memhier::{presets, LevelId};

    /// A first-fit general fallback on L1.
    fn general_fallback() -> PoolSpec {
        PoolSpec::general(
            LevelId(1),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Immediate,
            SplitPolicy::MinRemainder(16),
        )
    }

    /// Builds `pools` followed by [`general_fallback`].
    fn build(hier: &MemoryHierarchy, mut pools: Vec<PoolSpec>) -> CompositeAllocator {
        pools.push(general_fallback());
        AllocatorConfig { pools }.build(hier).unwrap()
    }

    fn fixed(route: Route, block_size: u32, chunk_blocks: u32) -> PoolSpec {
        PoolSpec {
            route,
            kind: PoolKind::Fixed {
                block_size,
                chunk_blocks,
            },
            level: LevelId(0),
        }
    }

    #[test]
    fn routes_exact_then_fallback() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        let mut a = build(&hier, vec![PoolSpec::fixed(74, LevelId(0))]);
        let (hot, hot_pool) = a.alloc(74, &mut ctx).unwrap();
        assert_eq!(hot.level, LevelId(0), "74 B routed to the scratchpad pool");
        assert_eq!(hot_pool, 0, "served by spec 0");
        let (cold, cold_pool) = a.alloc(75, &mut ctx).unwrap();
        assert_eq!(cold.level, LevelId(1), "75 B routed to the fallback");
        assert_eq!(cold_pool, 1, "served by spec 1, the fallback");
        a.free(hot.addr, hot_pool, &mut ctx);
        a.free(cold.addr, cold_pool, &mut ctx);
        a.validate();
        assert_eq!(a.live_blocks(), 0);
    }

    #[test]
    fn range_routing() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        let mut a = build(&hier, vec![fixed(Route::Range { min: 1, max: 64 }, 64, 32)]);
        let (small, _) = a.alloc(10, &mut ctx).unwrap();
        assert_eq!(small.level, LevelId(0));
        assert_eq!(small.occupied, 64, "range pool serves its block size");
        let (big, _) = a.alloc(100, &mut ctx).unwrap();
        assert_eq!(big.level, LevelId(1));
        a.validate();
    }

    #[test]
    fn dedicated_overflows_to_fallback() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        // 1500-byte pool on the 64 KB scratchpad: ~43 blocks fit.
        let mut a = build(&hier, vec![fixed(Route::Exact(1500), 1500, 16)]);
        let mut spilled = false;
        for _ in 0..100 {
            let (b, pool) = a.alloc(1500, &mut ctx).unwrap();
            if b.level == LevelId(1) {
                assert_eq!(pool, 1, "an overflowed request reports the fallback");
                spilled = true;
            } else {
                assert_eq!(pool, 0, "a served request reports the dedicated pool");
            }
        }
        assert!(spilled, "overflow must reach the fallback pool");
        a.validate();
    }

    #[test]
    fn build_requires_exactly_one_fallback() {
        let hier = presets::sp64k_dram4m();
        let err = AllocatorConfig {
            pools: vec![PoolSpec::fixed(74, LevelId(0))],
        }
        .build(&hier)
        .unwrap_err();
        assert_eq!(err, BuildError::NoFallbackPool);

        let err = AllocatorConfig {
            pools: vec![general_fallback(), general_fallback()],
        }
        .build(&hier)
        .unwrap_err();
        assert_eq!(err, BuildError::MultipleFallbackPools);
    }

    #[test]
    #[should_panic(expected = "not owned by this pool")]
    fn free_of_unknown_address_panics() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        let mut a = build(&hier, Vec::new());
        a.free(0x999, 0, &mut ctx);
    }

    #[test]
    fn ops_are_counted() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        let mut a = build(&hier, Vec::new());
        let (b, pool) = a.alloc(10, &mut ctx).unwrap();
        a.free(b.addr, pool, &mut ctx);
        assert_eq!(ctx.ops, 2);
    }
}
