//! Binary-buddy pool: power-of-two blocks, O(log n) split and merge.

use dmx_memhier::{LevelId, RegionTable};

use crate::block::BlockInfo;
use crate::ctx::AllocCtx;
use crate::error::AllocError;
use crate::pool::{MetaFloor, Pool, PoolStats};

/// Simulated per-block header holding the order and status.
const HEADER_BYTES: u32 = 8;

/// One chunk-sized arena with its order map: one byte per minimum-order
/// unit across the chunk span, `0` = no allocated block starts here,
/// `k` = a live block of order `min_order + k - 1` starts here. This is
/// the hash-free replacement for the old `order_of: HashMap<u64, u32>`.
#[derive(Debug, Clone)]
struct BuddyChunk {
    base: u64,
    orders: Vec<u8>,
}

/// A binary-buddy allocator over chunk-sized arenas.
///
/// Blocks are powers of two between `2^min_order` and `2^max_order`
/// (the chunk size). Freeing merges buddies upward as far as possible —
/// bounded external fragmentation at the cost of power-of-two internal
/// fragmentation.
#[derive(Debug, Clone)]
pub struct BuddyPool {
    level: LevelId,
    min_order: u32,
    max_order: u32,
    /// Free lists per order, `min_order..=max_order`.
    free: Vec<Vec<u64>>,
    /// Chunk arenas with their order maps, sorted by base (per-level
    /// regions are carved in ascending address order).
    chunks: Vec<BuddyChunk>,
    live: u64,
    live_bytes: u64,
}

impl BuddyPool {
    /// A buddy pool on `level` with blocks from `2^min_order` to
    /// `2^max_order` bytes (the latter is also the chunk size).
    ///
    /// # Panics
    ///
    /// Panics unless `4 <= min_order <= max_order <= 31`.
    pub fn new(level: LevelId, min_order: u32, max_order: u32) -> Self {
        assert!((4..=31).contains(&min_order), "min order out of range");
        assert!(
            min_order <= max_order && max_order <= 31,
            "max order out of range"
        );
        BuddyPool {
            level,
            min_order,
            max_order,
            free: vec![Vec::new(); (max_order - min_order + 1) as usize],
            chunks: Vec::new(),
            live: 0,
            live_bytes: 0,
        }
    }

    /// The largest request (payload bytes) this pool can serve.
    #[cfg(test)]
    fn max_request(&self) -> u32 {
        (1u32 << self.max_order) - HEADER_BYTES
    }

    fn order_for(&self, size: u32) -> Option<u32> {
        let total = size.checked_add(HEADER_BYTES)?;
        let order = total
            .next_power_of_two()
            .trailing_zeros()
            .max(self.min_order);
        (order <= self.max_order).then_some(order)
    }

    fn slot(&self, order: u32) -> usize {
        (order - self.min_order) as usize
    }

    /// Index of the chunk owning `addr`.
    fn chunk_index(&self, addr: u64) -> usize {
        let i = self.chunks.partition_point(|c| c.base <= addr);
        i.checked_sub(1).expect("address belongs to a chunk")
    }

    /// Records a live block of `order` starting at `addr`.
    fn mark_live(&mut self, addr: u64, order: u32) {
        let ci = self.chunk_index(addr);
        let unit = ((addr - self.chunks[ci].base) >> self.min_order) as usize;
        self.chunks[ci].orders[unit] = (order - self.min_order + 1) as u8;
        self.live += 1;
        self.live_bytes += 1u64 << order;
    }
}

impl Pool for BuddyPool {
    fn alloc(
        &mut self,
        size: u32,
        regions: &mut RegionTable,
        ctx: &mut AllocCtx,
    ) -> Result<BlockInfo, AllocError> {
        let Some(order) = self.order_for(size) else {
            return Err(AllocError::Unservable { requested: size });
        };
        // Find the smallest order with a free block, charging one head
        // probe per examined order.
        let mut found = None;
        for o in order..=self.max_order {
            ctx.meta_read(self.level, 1);
            if !self.free[self.slot(o)].is_empty() {
                found = Some(o);
                break;
            }
        }
        let found = match found {
            Some(o) => o,
            None => {
                // Grow by one chunk.
                let chunk = 1u64 << self.max_order;
                let region = regions.reserve(self.level, chunk)?;
                ctx.footprint.grow(self.level, chunk);
                ctx.meta_write(self.level, 2);
                let units = 1usize << (self.max_order - self.min_order);
                // Ascending reserve order keeps `chunks` base-sorted.
                self.chunks.push(BuddyChunk {
                    base: region.base,
                    orders: vec![0; units],
                });
                let top = self.slot(self.max_order);
                self.free[top].push(region.base);
                self.max_order
            }
        };
        // Pop and split down to the target order.
        let found_slot = self.slot(found);
        let addr = self.free[found_slot].pop().expect("found non-empty");
        ctx.meta_read(self.level, 1); // next pointer
        ctx.meta_write(self.level, 1); // head update
        let mut o = found;
        while o > order {
            o -= 1;
            let half = 1u64 << o;
            let buddy = addr + half;
            let slot = self.slot(o);
            self.free[slot].push(buddy);
            // Write the buddy's header and its list link.
            ctx.meta_write(self.level, 2);
        }
        ctx.meta_write(self.level, 1); // allocated header
        self.mark_live(addr, order);
        Ok(BlockInfo {
            addr,
            level: self.level,
            requested: size,
            occupied: 1u32 << order,
        })
    }

    fn free(&mut self, addr: u64, ctx: &mut AllocCtx) {
        let ci = self
            .chunks
            .partition_point(|c| c.base <= addr)
            .checked_sub(1)
            .unwrap_or_else(|| panic!("free of address {addr:#x} not owned by this buddy pool"));
        let base = self.chunks[ci].base;
        let unit = ((addr - base) >> self.min_order) as usize;
        let tag = self.chunks[ci].orders.get(unit).copied().unwrap_or(0);
        if tag == 0 {
            panic!("free of address {addr:#x} not owned by this buddy pool");
        }
        let mut order = self.min_order + u32::from(tag) - 1;
        self.chunks[ci].orders[unit] = 0;
        assert!(self.live > 0, "free with no live blocks");
        self.live -= 1;
        self.live_bytes -= 1u64 << order;
        ctx.meta_read(self.level, 1); // own header

        let mut addr = addr;
        while order < self.max_order {
            let buddy = base + ((addr - base) ^ (1u64 << order));
            // Probe the buddy's header for "free at same order".
            ctx.meta_read(self.level, 1);
            let list = &mut self.free[(order - self.min_order) as usize];
            match list.iter().position(|a| *a == buddy) {
                Some(i) => {
                    list.swap_remove(i);
                    // Unlink the buddy (doubly-linked), write merged header.
                    ctx.meta_write(self.level, 3);
                    addr = addr.min(buddy);
                    order += 1;
                }
                None => break,
            }
        }
        self.free[(order - self.min_order) as usize].push(addr);
        ctx.meta_write(self.level, 2); // freed header + list head
    }

    fn level(&self) -> LevelId {
        self.level
    }

    fn meta_floor(&self) -> MetaFloor {
        // Alloc: at least one order probe, the pop (read + write) and the
        // allocated header. Free: own header read and the final 2 writes;
        // a block below the top order also probes its buddy.
        MetaFloor { alloc: 4, free: 3 }
    }

    fn live_blocks(&self) -> u64 {
        self.live
    }

    fn stats(&self) -> PoolStats {
        PoolStats {
            reserved_bytes: self.chunks.len() as u64 * (1u64 << self.max_order),
            live_bytes: self.live_bytes,
            live_blocks: self.live,
            free_blocks: self.free.iter().map(|l| l.len() as u64).sum(),
        }
    }

    fn validate(&self) {
        // Free blocks must lie in chunks and not duplicate.
        let mut seen = Vec::new();
        for (i, list) in self.free.iter().enumerate() {
            let order = self.min_order + i as u32;
            for addr in list {
                assert!(
                    self.chunks
                        .iter()
                        .any(|c| *addr >= c.base && *addr < c.base + (1u64 << self.max_order)),
                    "free block outside chunks"
                );
                seen.push((*addr, order));
            }
        }
        seen.sort_unstable();
        for w in seen.windows(2) {
            assert!(
                w[0].0 + (1u64 << w[0].1) <= w[1].0,
                "free buddy blocks overlap"
            );
        }
        // Live blocks must not appear free, and must account for `live`.
        let mut live_found = 0u64;
        let mut live_bytes = 0u64;
        for chunk in &self.chunks {
            for (unit, &tag) in chunk.orders.iter().enumerate() {
                if tag == 0 {
                    continue;
                }
                let order = self.min_order + u32::from(tag) - 1;
                let addr = chunk.base + ((unit as u64) << self.min_order);
                assert!(
                    !self.free[(order - self.min_order) as usize].contains(&addr),
                    "block both live and free"
                );
                live_found += 1;
                live_bytes += 1u64 << order;
            }
        }
        assert_eq!(live_found, self.live, "live count mismatch");
        assert_eq!(live_bytes, self.live_bytes, "live bytes mismatch");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_memhier::presets;

    const L1: LevelId = LevelId(1);

    fn setup() -> (RegionTable, AllocCtx) {
        let hier = presets::sp64k_dram4m();
        (RegionTable::new(&hier), AllocCtx::new(hier.len()))
    }

    #[test]
    fn rounds_to_power_of_two() {
        let (mut regions, mut ctx) = setup();
        let mut p = BuddyPool::new(L1, 5, 16);
        let b = p.alloc(100, &mut regions, &mut ctx).unwrap();
        assert_eq!(b.occupied, 128, "100+8 rounds to 128");
        let c = p.alloc(120, &mut regions, &mut ctx).unwrap();
        assert_eq!(c.occupied, 128);
        let d = p.alloc(121, &mut regions, &mut ctx).unwrap();
        assert_eq!(d.occupied, 256, "121+8 > 128");
        p.validate();
    }

    #[test]
    fn split_and_full_merge_roundtrip() {
        let (mut regions, mut ctx) = setup();
        let mut p = BuddyPool::new(L1, 5, 12); // 4 KB chunks
        let blocks: Vec<_> = (0..8)
            .map(|_| p.alloc(200, &mut regions, &mut ctx).unwrap())
            .collect();
        p.validate();
        for b in &blocks {
            p.free(b.addr, &mut ctx);
        }
        p.validate();
        // Everything merged back: one max-order free block per chunk.
        let top = p.free.last().expect("top order list");
        assert_eq!(top.len(), p.chunks.len());
        for list in &p.free[..p.free.len() - 1] {
            assert!(list.is_empty(), "lower orders fully merged");
        }
    }

    #[test]
    fn buddies_merge_only_with_their_buddy() {
        let (mut regions, mut ctx) = setup();
        let mut p = BuddyPool::new(L1, 5, 12);
        // Fill the first 512 bytes completely: a|b|c|d at 0,128,256,384.
        let a = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let b = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let c = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let d = p.alloc(100, &mut regions, &mut ctx).unwrap();
        assert_eq!(b.addr, a.addr + 128);
        assert_eq!(d.addr, c.addr + 128);
        // Free a and c: their buddies (b, d) are live → no merge.
        p.free(a.addr, &mut ctx);
        p.free(c.addr, &mut ctx);
        p.validate();
        let order128 = (7 - p.min_order) as usize;
        assert_eq!(p.free[order128].len(), 2, "two separate 128 B blocks");
        // Free b: a+b merge to one 256 B block; c stays at 128 B.
        p.free(b.addr, &mut ctx);
        p.validate();
        assert_eq!(p.free[order128].len(), 1, "only c's block remains at 128 B");
        let order256 = (8 - p.min_order) as usize;
        assert_eq!(p.free[order256].len(), 1, "a+b merged to 256 B");
        p.free(d.addr, &mut ctx);
        p.validate();
    }

    #[test]
    fn oversize_is_unservable() {
        let (mut regions, mut ctx) = setup();
        let mut p = BuddyPool::new(L1, 5, 12);
        let err = p.alloc(5000, &mut regions, &mut ctx).unwrap_err();
        assert_eq!(err, AllocError::Unservable { requested: 5000 });
        assert!(p.max_request() >= 4000);
    }

    #[test]
    fn reuses_freed_block() {
        let (mut regions, mut ctx) = setup();
        let mut p = BuddyPool::new(L1, 5, 12);
        let a = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let fp = ctx.footprint.peak_total();
        p.free(a.addr, &mut ctx);
        let b = p.alloc(100, &mut regions, &mut ctx).unwrap();
        assert_eq!(a.addr, b.addr);
        assert_eq!(ctx.footprint.peak_total(), fp);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn foreign_free_panics() {
        let (_regions, mut ctx) = setup();
        let mut p = BuddyPool::new(L1, 5, 12);
        p.free(0x1000, &mut ctx);
    }

    #[test]
    #[should_panic(expected = "not owned")]
    fn double_free_panics() {
        let (mut regions, mut ctx) = setup();
        let mut p = BuddyPool::new(L1, 5, 12);
        let a = p.alloc(100, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        p.free(a.addr, &mut ctx);
    }
}
