//! Pool implementations — the building blocks of composed allocators.
//!
//! | Pool | Serves | Cost profile |
//! |------|--------|--------------|
//! | [`FixedBlockPool`] | one block size | O(1), no header |
//! | [`GeneralPool`] | any size | parameterized free-list search |
//! | [`SegregatedPool`] | any size via classes | O(1), internal fragmentation |
//! | [`BuddyPool`] | any size up to a max order | O(log n) split/merge |
//! | [`RegionPool`] | any size, arena lifetime | O(1) bump, bulk reset |
//!
//! Every pool lives on one memory level and charges its metadata traffic
//! there through [`AllocCtx`]. Each also declares a [`MetaFloor`]: the
//! fewest metadata accesses one served alloc and one free can charge on
//! any of its code paths, which bounds the work a paused replay has left.
//!
//! | Pool | alloc floor | free floor |
//! |------|-------------|------------|
//! | fixed | 3 | 3 |
//! | general | 3 + header writes (4, or 5 with a footer) | 4, or 6 under immediate coalescing |
//! | segregated | 2 (large objects) | 3 |
//! | buddy | 4 | 3 |
//! | region | 2 | 2 |

mod buddy;
mod fixed;
mod general;
mod region_pool;
mod segregated;
mod stats;

pub use buddy::BuddyPool;
pub use fixed::FixedBlockPool;
pub use general::GeneralPool;
pub use region_pool::RegionPool;
pub use segregated::SegregatedPool;
pub use stats::PoolStats;

use dmx_memhier::{LevelId, RegionTable};

use crate::block::BlockInfo;
use crate::ctx::AllocCtx;
use crate::error::AllocError;

/// The fewest metadata accesses (reads plus writes) a pool charges for
/// one served allocation and for one free, on any of its code paths.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetaFloor {
    /// Floor of an allocation the pool serves.
    pub alloc: u64,
    /// Floor of a free.
    pub free: u64,
}

/// A memory pool: the unit of placement and the unit of composition.
///
/// Pools are driven by a [`CompositeAllocator`](crate::CompositeAllocator),
/// which owns the shared [`RegionTable`]. Standalone use passes a
/// [`RegionTable`] of its own, as the pool property tests and the
/// `tab5_allocator_ops` bench do.
pub trait Pool {
    /// Serves an allocation of `size` bytes.
    ///
    /// # Errors
    ///
    /// [`AllocError::OutOfMemory`] when the pool cannot grow on its level,
    /// [`AllocError::Unservable`] when the size exceeds what the pool can
    /// ever serve.
    fn alloc(
        &mut self,
        size: u32,
        regions: &mut RegionTable,
        ctx: &mut AllocCtx,
    ) -> Result<BlockInfo, AllocError>;

    /// Frees the block starting at `addr`.
    ///
    /// # Panics
    ///
    /// Panics if `addr` was not returned by a previous [`Pool::alloc`] on
    /// this pool (routing blocks to their owning pool is the composite's
    /// job; a miss is a logic error).
    fn free(&mut self, addr: u64, ctx: &mut AllocCtx);

    /// The memory level this pool is placed on.
    fn level(&self) -> LevelId;

    /// The fewest metadata accesses a served [`Pool::alloc`] and a
    /// [`Pool::free`] charge on this pool, on any code path. An alloc that
    /// fails may charge less; it is not served.
    fn meta_floor(&self) -> MetaFloor;

    /// Number of currently live blocks.
    fn live_blocks(&self) -> u64;

    /// A point-in-time occupancy snapshot.
    fn stats(&self) -> PoolStats;

    /// Checks internal invariants; panics with a diagnostic on violation.
    ///
    /// Intended for tests and debugging, not for per-operation use.
    fn validate(&self);
}
