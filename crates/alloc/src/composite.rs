//! Composition of pools into one allocator.
//!
//! A composite allocator routes each request size to a pool — dedicated
//! pools for hot sizes, optional range pools, and exactly one fallback —
//! and owns the shared [`RegionTable`] through which every pool reserves
//! placed memory. This mirrors the paper's custom allocators: "a dedicated
//! pool for 74-byte blocks ... onto the L1 scratchpad, while a general pool
//! and a dedicated pool for 1500-byte blocks use the 4 MB main memory".

use std::collections::HashMap;

use dmx_memhier::{MemoryHierarchy, RegionTable};

use crate::block::BlockInfo;
use crate::ctx::AllocCtx;
use crate::error::{AllocError, BuildError};
use crate::pool::Pool;

/// Identifies the pool that served an allocation, for hash-free routing
/// of the matching free (see [`CompositeAllocator::alloc_traced`]).
pub type PoolId = u32;

/// A size-routed set of pools acting as one allocator.
pub struct CompositeAllocator {
    pools: Vec<Box<dyn Pool>>,
    /// Exact routes, sorted by size for binary search (few entries).
    exact: Vec<(u32, usize)>,
    ranges: Vec<(u32, u32, usize)>,
    fallback: usize,
    /// addr → serving pool, maintained only by the untraced
    /// [`Self::alloc`]/[`Self::free`] pair; the traced pair hands the
    /// [`PoolId`] back to the caller instead.
    owner: HashMap<u64, usize>,
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
    /// Starts building a composite over `hierarchy`.
    pub fn builder(hierarchy: &MemoryHierarchy) -> CompositeBuilder {
        CompositeBuilder {
            regions: RegionTable::new(hierarchy),
            pools: Vec::new(),
            exact: Vec::new(),
            ranges: Vec::new(),
            fallback: None,
        }
    }

    /// Serves an allocation, routing by request size.
    ///
    /// Dedicated (exact/range) pools that cannot serve — out of memory on
    /// their level, or the request exceeds their limits — overflow to the
    /// fallback pool, as the paper's custom allocators do.
    ///
    /// # Errors
    ///
    /// Returns the fallback pool's error when even the fallback cannot
    /// serve.
    pub fn alloc(&mut self, size: u32, ctx: &mut AllocCtx) -> Result<BlockInfo, AllocError> {
        let (info, served_by) = self.alloc_traced(size, ctx)?;
        let prev = self.owner.insert(info.addr, served_by as usize);
        debug_assert!(prev.is_none(), "two live blocks at one address");
        Ok(info)
    }

    /// Serves an allocation and returns the serving pool's [`PoolId`]
    /// alongside the placement — the hash-free entry point: the caller
    /// keeps the id with its own block record and hands it back to
    /// [`Self::free_traced`], so no addr → pool map is maintained.
    ///
    /// # Errors
    ///
    /// As [`Self::alloc`].
    pub fn alloc_traced(
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

    /// Frees the block starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` is not a live block of this allocator (only
    /// blocks served by [`Self::alloc`] are tracked here; traced blocks
    /// must go through [`Self::free_traced`]).
    pub fn free(&mut self, addr: u64, ctx: &mut AllocCtx) {
        let idx = self
            .owner
            .remove(&addr)
            .unwrap_or_else(|| panic!("free of unknown address {addr:#x}"));
        self.free_traced(addr, idx as PoolId, ctx);
    }

    /// Frees a block served by [`Self::alloc_traced`], routing straight
    /// to the pool identified at allocation time.
    ///
    /// # Panics
    ///
    /// Panics if `pool` is out of range or does not own `addr`.
    pub fn free_traced(&mut self, addr: u64, pool: PoolId, ctx: &mut AllocCtx) {
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

    /// Read access to the shared region table (placement accounting).
    pub fn regions(&self) -> &RegionTable {
        &self.regions
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
    /// accounting (and, when the untraced API is in use, the ownership
    /// map).
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
        if !self.owner.is_empty() {
            assert_eq!(
                self.owner.len() as u64,
                self.live,
                "ownership map disagrees with pool live counts"
            );
        }
    }
}

/// Builder for [`CompositeAllocator`]; see
/// [`CompositeAllocator::builder`].
pub struct CompositeBuilder {
    regions: RegionTable,
    pools: Vec<Box<dyn Pool>>,
    exact: Vec<(u32, usize)>,
    ranges: Vec<(u32, u32, usize)>,
    fallback: Option<usize>,
}

impl std::fmt::Debug for CompositeBuilder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompositeBuilder")
            .field("pools", &self.pools.len())
            .finish()
    }
}

impl CompositeBuilder {
    /// Adds a pool serving exactly `size`-byte requests.
    pub fn dedicated(mut self, size: u32, pool: impl Pool + 'static) -> Self {
        let idx = self.pools.len();
        self.pools.push(Box::new(pool));
        self.exact.push((size, idx));
        self
    }

    /// Adds a pool serving requests in `min..=max` bytes.
    pub fn ranged(mut self, min: u32, max: u32, pool: impl Pool + 'static) -> Self {
        let idx = self.pools.len();
        self.pools.push(Box::new(pool));
        self.ranges.push((min, max, idx));
        self
    }

    /// Sets the fallback pool serving everything not otherwise routed.
    pub fn fallback(mut self, pool: impl Pool + 'static) -> Self {
        let idx = self.pools.len();
        self.pools.push(Box::new(pool));
        self.fallback = Some(idx);
        self
    }

    /// Finishes the composite.
    ///
    /// # Errors
    ///
    /// [`BuildError::NoFallbackPool`] /
    /// [`BuildError::MultipleFallbackPools`] if not exactly one fallback
    /// was added, [`BuildError::DuplicateExactRoute`] if two dedicated
    /// pools claim the same size.
    pub fn build(mut self) -> Result<CompositeAllocator, BuildError> {
        // `fallback` is a single Option: calling fallback() twice keeps the
        // later pool but leaks the earlier one into the pool list unrouted —
        // detect that instead of silently accepting it.
        let fallback = self.fallback.ok_or(BuildError::NoFallbackPool)?;
        let routed = self.exact.len() + self.ranges.len() + 1;
        if routed != self.pools.len() {
            return Err(BuildError::MultipleFallbackPools);
        }
        self.exact.sort_unstable_by_key(|&(size, _)| size);
        if let Some(w) = self.exact.windows(2).find(|w| w[0].0 == w[1].0) {
            return Err(BuildError::DuplicateExactRoute(w[0].0));
        }
        Ok(CompositeAllocator {
            pools: self.pools,
            exact: self.exact,
            ranges: self.ranges,
            fallback,
            owner: HashMap::new(),
            live: 0,
            regions: self.regions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
    use crate::pool::{FixedBlockPool, GeneralPool};
    use dmx_memhier::{presets, LevelId};

    fn general(level: LevelId) -> GeneralPool {
        GeneralPool::new(
            level,
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Immediate,
            SplitPolicy::MinRemainder(16),
            8,
            8192,
        )
    }

    #[test]
    fn routes_exact_then_fallback() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        let mut a = CompositeAllocator::builder(&hier)
            .dedicated(74, FixedBlockPool::new(LevelId(0), 74, 32))
            .fallback(general(LevelId(1)))
            .build()
            .unwrap();
        let hot = a.alloc(74, &mut ctx).unwrap();
        assert_eq!(hot.level, LevelId(0), "74 B routed to the scratchpad pool");
        let cold = a.alloc(75, &mut ctx).unwrap();
        assert_eq!(cold.level, LevelId(1), "75 B routed to the fallback");
        a.free(hot.addr, &mut ctx);
        a.free(cold.addr, &mut ctx);
        a.validate();
        assert_eq!(a.live_blocks(), 0);
    }

    #[test]
    fn range_routing() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        let mut a = CompositeAllocator::builder(&hier)
            .ranged(1, 64, FixedBlockPool::new(LevelId(0), 64, 32))
            .fallback(general(LevelId(1)))
            .build()
            .unwrap();
        let small = a.alloc(10, &mut ctx).unwrap();
        assert_eq!(small.level, LevelId(0));
        assert_eq!(small.occupied, 64, "range pool serves its block size");
        let big = a.alloc(100, &mut ctx).unwrap();
        assert_eq!(big.level, LevelId(1));
        a.validate();
    }

    #[test]
    fn dedicated_overflows_to_fallback() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        // 1500-byte pool on the 64 KB scratchpad: ~43 blocks fit.
        let mut a = CompositeAllocator::builder(&hier)
            .dedicated(1500, FixedBlockPool::new(LevelId(0), 1500, 16))
            .fallback(general(LevelId(1)))
            .build()
            .unwrap();
        let mut spilled = false;
        for _ in 0..100 {
            let b = a.alloc(1500, &mut ctx).unwrap();
            if b.level == LevelId(1) {
                spilled = true;
            }
        }
        assert!(spilled, "overflow must reach the fallback pool");
        a.validate();
    }

    #[test]
    fn build_requires_exactly_one_fallback() {
        let hier = presets::sp64k_dram4m();
        let err = CompositeAllocator::builder(&hier)
            .dedicated(74, FixedBlockPool::new(LevelId(0), 74, 32))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::NoFallbackPool);

        let err = CompositeAllocator::builder(&hier)
            .fallback(general(LevelId(1)))
            .fallback(general(LevelId(1)))
            .build()
            .unwrap_err();
        assert_eq!(err, BuildError::MultipleFallbackPools);
    }

    #[test]
    #[should_panic(expected = "unknown address")]
    fn free_of_unknown_address_panics() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        let mut a = CompositeAllocator::builder(&hier)
            .fallback(general(LevelId(1)))
            .build()
            .unwrap();
        a.free(0x999, &mut ctx);
    }

    #[test]
    fn ops_are_counted() {
        let hier = presets::sp64k_dram4m();
        let mut ctx = AllocCtx::new(hier.len());
        let mut a = CompositeAllocator::builder(&hier)
            .fallback(general(LevelId(1)))
            .build()
            .unwrap();
        let b = a.alloc(10, &mut ctx).unwrap();
        a.free(b.addr, &mut ctx);
        assert_eq!(ctx.ops, 2);
    }
}
