//! The parameterized general-purpose pool.
//!
//! This is the configurable core of the allocator library: a free-list
//! allocator whose fit policy, list order, coalescing and splitting
//! behaviour are all exploration parameters. Its cost profile spans the
//! whole spectrum the paper explores — from "fast but fragmenting" (LIFO +
//! first-fit + never coalesce) to "compact but expensive" (address-ordered
//! + best-fit + immediate coalescing).
//!
//! Block layout (simulated): an 8-byte header (size + status + link) in
//! front of every block, plus a 4-byte boundary-tag footer when immediate
//! coalescing runs on a non-address-ordered list (the tags are what make
//! O(1) neighbour lookup possible there).
//!
//! Host-side, the carved blocks live in a [`BlockStore`]: an index-linked
//! record slab mirroring the simulated block layout. Each chunk's blocks
//! tile it contiguously, so address-adjacent neighbours are maintained as
//! direct links, and every split, merge and grow is O(1) — replay mutates
//! blocks on almost every pool op, and a sorted map would pay a node
//! allocation or a memmove each time. The *charged* costs are unchanged:
//! they follow the simulated header/footer/link structure, not the host
//! containers.

use dmx_memhier::{LevelId, RegionTable};

use crate::block::{align_up, BlockInfo};
use crate::ctx::AllocCtx;
use crate::error::AllocError;
use crate::freelist::FreeList;
use crate::policy::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
use crate::pool::{MetaFloor, Pool, PoolStats};

/// Simulated per-block header: size, status bit, free-list link.
pub const HEADER_BYTES: u32 = 8;
/// Simulated boundary-tag footer (only when the configuration needs it).
pub const FOOTER_BYTES: u32 = 4;

/// Sentinel record index: no neighbour (block starts or ends its chunk).
const NONE_IDX: u32 = u32::MAX;
/// Sentinel key for empty index slots (no block lives at `u64::MAX`).
const EMPTY_KEY: u64 = u64::MAX;

/// One carved block: its placement plus the address-adjacency links
/// within its chunk.
#[derive(Debug, Clone, Copy)]
struct BlockRec {
    addr: u64,
    /// Total size including header/footer.
    size: u32,
    free: bool,
    /// Record index of the address-adjacent predecessor in the same
    /// chunk (`NONE_IDX` at a chunk start).
    prev: u32,
    /// Record index of the address-adjacent successor in the same chunk
    /// (`NONE_IDX` at a chunk end).
    next: u32,
}

/// The pool's carved blocks: a record slab linked in address order per
/// chunk, with an open-addressed address→record index.
///
/// Every operation the replay hot path performs is O(1): lookup is one
/// multiplicative-hash probe chain, neighbour queries follow a link, and
/// split/merge/grow rewrite a couple of records. Record slots freed by
/// merges are recycled, so a steady-state replay allocates nothing.
#[derive(Debug, Clone, Default)]
struct BlockStore {
    recs: Vec<BlockRec>,
    /// Recycled record slots.
    spare: Vec<u32>,
    /// Open-addressed `(addr, record index)` pairs; linear probing with
    /// backward-shift deletion; capacity is a power of two, load ≤ 1/2.
    index: Vec<(u64, u32)>,
    items: usize,
}

impl BlockStore {
    fn len(&self) -> usize {
        self.items
    }

    /// Fibonacci hashing: block addresses are aligned multiples within a
    /// few chunks, and the multiplicative mix spreads that low entropy.
    fn home_slot(&self, addr: u64) -> usize {
        (addr.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize & (self.index.len() - 1)
    }

    /// The index slot holding `addr`, if present.
    fn find_slot(&self, addr: u64) -> Option<usize> {
        if self.index.is_empty() {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut i = self.home_slot(addr);
        loop {
            let (key, _) = self.index[i];
            if key == addr {
                return Some(i);
            }
            if key == EMPTY_KEY {
                return None;
            }
            i = (i + 1) & mask;
        }
    }

    fn idx_of(&self, addr: u64) -> Option<u32> {
        self.find_slot(addr).map(|s| self.index[s].1)
    }

    fn rec(&self, idx: u32) -> &BlockRec {
        &self.recs[idx as usize]
    }

    fn rec_mut(&mut self, idx: u32) -> &mut BlockRec {
        &mut self.recs[idx as usize]
    }

    /// Adds a record (recycling a spare slot) and indexes its address.
    fn insert(&mut self, rec: BlockRec) -> u32 {
        let addr = rec.addr;
        let idx = match self.spare.pop() {
            Some(i) => {
                self.recs[i as usize] = rec;
                i
            }
            None => {
                self.recs.push(rec);
                u32::try_from(self.recs.len() - 1).expect("block count fits u32")
            }
        };
        self.index_insert(addr, idx);
        self.items += 1;
        idx
    }

    /// Drops a record: unindexes the address and recycles the slot.
    fn remove(&mut self, idx: u32) {
        let addr = self.recs[idx as usize].addr;
        let slot = self.find_slot(addr).expect("record is indexed");
        self.index_delete(slot);
        self.recs[idx as usize].addr = EMPTY_KEY;
        self.spare.push(idx);
        self.items -= 1;
    }

    fn index_insert(&mut self, addr: u64, idx: u32) {
        if self.index.len() < 2 * (self.items + 1) {
            self.grow_index();
        }
        let mask = self.index.len() - 1;
        let mut i = self.home_slot(addr);
        while self.index[i].0 != EMPTY_KEY {
            debug_assert_ne!(self.index[i].0, addr, "duplicate block address");
            i = (i + 1) & mask;
        }
        self.index[i] = (addr, idx);
    }

    fn grow_index(&mut self) {
        let cap = (self.index.len() * 2).max(64);
        let old = std::mem::replace(&mut self.index, vec![(EMPTY_KEY, 0); cap]);
        let mask = cap - 1;
        for (key, idx) in old {
            if key != EMPTY_KEY {
                let mut i = self.home_slot(key);
                while self.index[i].0 != EMPTY_KEY {
                    i = (i + 1) & mask;
                }
                self.index[i] = (key, idx);
            }
        }
    }

    /// Backward-shift deletion: keeps every probe chain contiguous so
    /// lookups never need tombstones.
    fn index_delete(&mut self, mut i: usize) {
        let mask = self.index.len() - 1;
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let (key, idx) = self.index[j];
            if key == EMPTY_KEY {
                break;
            }
            let home = self.home_slot(key);
            // The entry at `j` may fill the hole at `i` unless its home
            // slot lies cyclically within (i, j] — moving it would then
            // place it before its probe chain starts.
            let home_in_gap = if i <= j {
                home > i && home <= j
            } else {
                home > i || home <= j
            };
            if !home_in_gap {
                self.index[i] = (key, idx);
                i = j;
            }
        }
        self.index[i] = (EMPTY_KEY, 0);
    }
}

/// Chunk base addresses, kept as a small sorted vector (the chain heads
/// for address-ordered block walks; pools grow a handful of chunks per
/// run).
#[derive(Debug, Clone, Default)]
struct ChunkStarts {
    starts: Vec<u64>,
}

impl ChunkStarts {
    fn insert(&mut self, addr: u64) {
        if let Err(i) = self.starts.binary_search(&addr) {
            self.starts.insert(i, addr);
        }
    }

    fn contains(&self, addr: u64) -> bool {
        self.starts.binary_search(&addr).is_ok()
    }

    fn iter(&self) -> impl Iterator<Item = u64> + '_ {
        self.starts.iter().copied()
    }
}

/// A general-purpose pool with parameterized policies.
#[derive(Debug, Clone)]
pub struct GeneralPool {
    level: LevelId,
    coalesce: CoalescePolicy,
    split: SplitPolicy,
    align: u32,
    chunk_bytes: u64,
    footer: u32,
    min_block: u32,
    blocks: BlockStore,
    free_list: FreeList,
    /// First address of every chunk: blocks never merge across chunk
    /// boundaries (chunks are independent platform reservations).
    chunk_starts: ChunkStarts,
    frees_since_sweep: u32,
    live: u64,
    reserved_bytes: u64,
}

impl GeneralPool {
    /// A general pool on `level` with the given policies.
    ///
    /// `align` is the payload alignment (power of two), `chunk_bytes` the
    /// growth granularity when the pool asks its level for more memory.
    ///
    /// # Panics
    ///
    /// Panics if `align` is not a power of two, `chunk_bytes` is zero or
    /// larger than 4 GiB, or a deferred-coalescing period is zero.
    pub fn new(
        level: LevelId,
        fit: FitPolicy,
        order: FreeOrder,
        coalesce: CoalescePolicy,
        split: SplitPolicy,
        align: u32,
        chunk_bytes: u64,
    ) -> Self {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        assert!(chunk_bytes > 0, "chunk must be non-zero");
        assert!(
            chunk_bytes <= u64::from(u32::MAX),
            "chunk exceeds block-size domain"
        );
        if let CoalescePolicy::DeferredEvery(n) = coalesce {
            assert!(n > 0, "deferred coalescing period must be >= 1");
        }
        // Boundary tags are required for O(1) neighbour lookup unless the
        // address-ordered insertion walk provides the neighbours anyway.
        let footer = match (coalesce, order) {
            (CoalescePolicy::Immediate, o) if o != FreeOrder::AddressOrdered => FOOTER_BYTES,
            _ => 0,
        };
        let min_block = align_up(HEADER_BYTES + footer + 8, align.max(4));
        GeneralPool {
            level,
            coalesce,
            split,
            align,
            chunk_bytes,
            footer,
            min_block,
            blocks: BlockStore::default(),
            free_list: FreeList::new(order, fit),
            chunk_starts: ChunkStarts::default(),
            frees_since_sweep: 0,
            live: 0,
            reserved_bytes: 0,
        }
    }

    /// The fit policy in use.
    pub fn fit(&self) -> FitPolicy {
        self.free_list.fit()
    }

    /// The free-list order in use.
    pub fn order(&self) -> FreeOrder {
        self.free_list.order()
    }

    /// Number of blocks (free and live) currently carved in the pool.
    #[cfg(test)]
    fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of free blocks (the free-list length).
    pub fn free_blocks(&self) -> usize {
        self.free_list.len()
    }

    /// Calls `f` for every carved block in ascending address order
    /// (chunks ascend, and each chunk's chain tiles it in order).
    fn each_block(&self, mut f: impl FnMut(&BlockRec)) {
        for base in self.chunk_starts.iter() {
            let mut idx = self.blocks.idx_of(base).expect("chunk head exists");
            loop {
                let rec = self.blocks.rec(idx);
                f(rec);
                if rec.next == NONE_IDX {
                    break;
                }
                idx = rec.next;
            }
        }
    }

    /// External fragmentation: free bytes that exist but sit in blocks, as
    /// a fraction of all carved bytes. 0.0 for an empty pool.
    #[cfg(test)]
    fn external_fragmentation(&self) -> f64 {
        let mut total = 0u64;
        let mut free = 0u64;
        self.each_block(|b| {
            total += u64::from(b.size);
            if b.free {
                free += u64::from(b.size);
            }
        });
        if total == 0 {
            return 0.0;
        }
        free as f64 / total as f64
    }

    /// Total block size needed for a request, including metadata.
    fn alloc_size(&self, size: u32) -> u32 {
        align_up(size + HEADER_BYTES + self.footer, self.align).max(self.min_block)
    }

    fn writes_per_header(&self) -> u64 {
        if self.footer > 0 {
            2 // header + footer
        } else {
            1
        }
    }

    fn serve_from_free(
        &mut self,
        idx: usize,
        asize: u32,
        requested: u32,
        ctx: &mut AllocCtx,
    ) -> BlockInfo {
        let (addr, bsize) = self.free_list.get(idx);
        debug_assert!(bsize >= asize);
        let bidx = self.blocks.idx_of(addr).expect("free-list block exists");
        let do_split = match self.split {
            SplitPolicy::Never => false,
            SplitPolicy::MinRemainder(m) => {
                let remainder_min = self.min_block.max(m + HEADER_BYTES + self.footer);
                bsize - asize >= remainder_min
            }
        };
        if do_split {
            let remainder = bsize - asize;
            let rem_addr = addr + u64::from(asize);
            let next = self.blocks.rec(bidx).next;
            {
                let b = self.blocks.rec_mut(bidx);
                b.size = asize;
                b.free = false;
            }
            let rem_idx = self.blocks.insert(BlockRec {
                addr: rem_addr,
                size: remainder,
                free: true,
                prev: bidx,
                next,
            });
            self.blocks.rec_mut(bidx).next = rem_idx;
            if next != NONE_IDX {
                self.blocks.rec_mut(next).prev = rem_idx;
            }
            self.free_list
                .replace(idx, rem_addr, remainder, self.level, ctx);
            // Write allocated header (+footer) and the remainder header.
            ctx.meta_write(self.level, self.writes_per_header() + 1);
            BlockInfo {
                addr,
                level: self.level,
                requested,
                occupied: asize,
            }
        } else {
            self.free_list.take(idx, self.level, ctx);
            self.blocks.rec_mut(bidx).free = false;
            ctx.meta_write(self.level, self.writes_per_header());
            BlockInfo {
                addr,
                level: self.level,
                requested,
                occupied: bsize,
            }
        }
    }

    fn grow_and_serve(
        &mut self,
        asize: u32,
        requested: u32,
        regions: &mut RegionTable,
        ctx: &mut AllocCtx,
    ) -> Result<BlockInfo, AllocError> {
        let chunk = self.chunk_bytes.max(u64::from(asize));
        let region = regions.reserve(self.level, chunk)?;
        ctx.footprint.grow(self.level, chunk);
        self.chunk_starts.insert(region.base);
        self.reserved_bytes += chunk;
        // Pool descriptor update: chunk list + limits.
        ctx.meta_write(self.level, 2);

        let remainder = chunk - u64::from(asize);
        let occupied = if remainder >= u64::from(self.min_block) {
            let rem_addr = region.base + u64::from(asize);
            let bidx = self.blocks.insert(BlockRec {
                addr: region.base,
                size: asize,
                free: false,
                prev: NONE_IDX,
                next: NONE_IDX,
            });
            let rem_idx = self.blocks.insert(BlockRec {
                addr: rem_addr,
                size: remainder as u32,
                free: true,
                prev: bidx,
                next: NONE_IDX,
            });
            self.blocks.rec_mut(bidx).next = rem_idx;
            self.free_list
                .insert(rem_addr, remainder as u32, self.level, ctx);
            ctx.meta_write(self.level, self.writes_per_header() + 1);
            asize
        } else {
            // Too small to split off: the whole chunk is the block.
            self.blocks.insert(BlockRec {
                addr: region.base,
                size: chunk as u32,
                free: false,
                prev: NONE_IDX,
                next: NONE_IDX,
            });
            ctx.meta_write(self.level, self.writes_per_header());
            chunk as u32
        };
        Ok(BlockInfo {
            addr: region.base,
            level: self.level,
            requested,
            occupied,
        })
    }

    /// Merges the block at `cidx` into its linked predecessor `pidx`
    /// (both records already adjacent by chain construction).
    fn merge_into_prev(&mut self, pidx: u32, cidx: u32) {
        let (csize, cnext) = {
            let c = self.blocks.rec(cidx);
            (c.size, c.next)
        };
        {
            let p = self.blocks.rec_mut(pidx);
            p.size += csize;
            p.next = cnext;
        }
        if cnext != NONE_IDX {
            self.blocks.rec_mut(cnext).prev = pidx;
        }
        self.blocks.remove(cidx);
    }

    /// Immediate coalescing on an address-ordered list: the insertion walk
    /// has already located the list position; neighbours are checked there.
    fn coalesce_addr_ordered(&mut self, addr: u64, size: u32, ctx: &mut AllocCtx) {
        let mut pos = self.free_list.insert(addr, size, self.level, ctx);
        let mut addr = addr;
        let mut size = size;
        // Adjacency probes: previous block's end, next block's start.
        ctx.meta_read(self.level, 2);
        if pos > 0 {
            let (paddr, psize) = self.free_list.get(pos - 1);
            let cidx = self.blocks.idx_of(addr).expect("freed block exists");
            // Adjacent on the list AND linked in the same chunk (a chunk
            // start has no predecessor link even when the previous chunk
            // ends exactly at `addr`).
            if paddr + u64::from(psize) == addr && self.blocks.rec(cidx).prev != NONE_IDX {
                let pidx = self.blocks.rec(cidx).prev;
                let merged = psize + size;
                self.merge_into_prev(pidx, cidx);
                self.free_list.take(pos, self.level, ctx);
                self.free_list
                    .replace(pos - 1, paddr, merged, self.level, ctx);
                pos -= 1;
                addr = paddr;
                size = merged;
            }
        }
        if pos + 1 < self.free_list.len() {
            let (naddr, nsize) = self.free_list.get(pos + 1);
            let cidx = self.blocks.idx_of(addr).expect("merged block exists");
            if addr + u64::from(size) == naddr && self.blocks.rec(cidx).next != NONE_IDX {
                let nidx = self.blocks.rec(cidx).next;
                let merged = size + nsize;
                self.merge_into_prev(cidx, nidx);
                self.blocks.rec_mut(cidx).size = merged;
                self.free_list.take(pos + 1, self.level, ctx);
                self.free_list.replace(pos, addr, merged, self.level, ctx);
            }
        }
    }

    /// Immediate coalescing with boundary tags: O(1) neighbour lookup via
    /// the previous block's footer and the next block's header (host-side,
    /// the chunk chain links are those tags).
    fn coalesce_tagged(&mut self, cidx: u32, ctx: &mut AllocCtx) {
        ctx.meta_read(self.level, 2);
        let mut cidx = cidx;
        // Merge with the previous block if it is free (links only exist
        // within a chunk, so adjacency and the chunk guard are built in).
        let pidx = self.blocks.rec(cidx).prev;
        if pidx != NONE_IDX && self.blocks.rec(pidx).free {
            let paddr = self.blocks.rec(pidx).addr;
            self.free_list.remove_addr_direct(paddr, self.level, ctx);
            self.merge_into_prev(pidx, cidx);
            ctx.meta_write(self.level, 2); // rewritten header + footer
            cidx = pidx;
        }
        // Merge with the next block if it is free.
        let nidx = self.blocks.rec(cidx).next;
        if nidx != NONE_IDX && self.blocks.rec(nidx).free {
            let naddr = self.blocks.rec(nidx).addr;
            self.free_list.remove_addr_direct(naddr, self.level, ctx);
            self.merge_into_prev(cidx, nidx);
            ctx.meta_write(self.level, 2);
        }
        let rec = self.blocks.rec(cidx);
        self.free_list.insert(rec.addr, rec.size, self.level, ctx);
    }

    /// Deferred sweep: walk every block in address order, merge adjacent
    /// free runs, relink the free list.
    fn sweep(&mut self, ctx: &mut AllocCtx) {
        // Examination cost: header of every block.
        ctx.meta_read(self.level, 2 * self.blocks.len() as u64);
        let mut free_entries: Vec<(u64, u32)> = Vec::with_capacity(self.free_list.len());
        for base in self.chunk_starts.iter().collect::<Vec<_>>() {
            let mut idx = self.blocks.idx_of(base).expect("chunk head exists");
            loop {
                // Merge the run of free blocks starting here, if any.
                while self.blocks.rec(idx).free {
                    let next = self.blocks.rec(idx).next;
                    if next == NONE_IDX || !self.blocks.rec(next).free {
                        break;
                    }
                    self.merge_into_prev(idx, next);
                    ctx.meta_write(self.level, 2); // merged header rewrite
                }
                let rec = self.blocks.rec(idx);
                if rec.free {
                    free_entries.push((rec.addr, rec.size));
                }
                if rec.next == NONE_IDX {
                    break;
                }
                idx = rec.next;
            }
        }
        // Relink cost: one write per surviving free block.
        ctx.meta_write(self.level, free_entries.len() as u64);
        self.free_list.rebuild(free_entries);
    }
}

impl Pool for GeneralPool {
    fn alloc(
        &mut self,
        size: u32,
        regions: &mut RegionTable,
        ctx: &mut AllocCtx,
    ) -> Result<BlockInfo, AllocError> {
        let asize = self.alloc_size(size);
        let found = self.free_list.find(asize, self.level, ctx);
        let info = match found {
            Some(idx) => self.serve_from_free(idx, asize, size, ctx),
            None => self.grow_and_serve(asize, size, regions, ctx)?,
        };
        self.live += 1;
        Ok(info)
    }

    fn free(&mut self, addr: u64, ctx: &mut AllocCtx) {
        let cidx = self
            .blocks
            .idx_of(addr)
            .unwrap_or_else(|| panic!("free of address {addr:#x} not owned by this pool"));
        let block = *self.blocks.rec(cidx);
        assert!(!block.free, "double free of {addr:#x}");
        // Read the header, mark the block free.
        ctx.meta_read(self.level, 1);
        ctx.meta_write(self.level, 1);
        self.blocks.rec_mut(cidx).free = true;
        self.live -= 1;

        match self.coalesce {
            CoalescePolicy::Never => {
                self.free_list.insert(addr, block.size, self.level, ctx);
            }
            CoalescePolicy::Immediate => {
                if self.free_list.order() == FreeOrder::AddressOrdered {
                    self.coalesce_addr_ordered(addr, block.size, ctx);
                } else {
                    self.coalesce_tagged(cidx, ctx);
                }
            }
            CoalescePolicy::DeferredEvery(n) => {
                self.free_list.insert(addr, block.size, self.level, ctx);
                self.frees_since_sweep += 1;
                if self.frees_since_sweep >= n {
                    self.sweep(ctx);
                    self.frees_since_sweep = 0;
                }
            }
        }
    }

    fn level(&self) -> LevelId {
        self.level
    }

    fn meta_floor(&self) -> MetaFloor {
        // Alloc: the search reads at least 1 (an empty list's head) or 2
        // (one probe); a hit unlinks or rewrites its node (>= 1 write), a
        // miss grows (2 writes); both then write the header (+ footer).
        // Free: header read + write and a free-list insert (2 writes);
        // immediate coalescing adds 2 neighbour reads.
        let free = match self.coalesce {
            CoalescePolicy::Immediate => 6,
            CoalescePolicy::Never | CoalescePolicy::DeferredEvery(_) => 4,
        };
        MetaFloor {
            alloc: 3 + self.writes_per_header(),
            free,
        }
    }

    fn live_blocks(&self) -> u64 {
        self.live
    }

    fn stats(&self) -> PoolStats {
        let mut live_bytes = 0u64;
        self.each_block(|b| {
            if !b.free {
                live_bytes += u64::from(b.size);
            }
        });
        PoolStats {
            reserved_bytes: self.reserved_bytes,
            live_bytes,
            live_blocks: self.live,
            free_blocks: self.free_list.len() as u64,
        }
    }

    fn validate(&self) {
        // Each chunk's chain tiles it: blocks are adjacent, non-zero, and
        // the chain starts at the chunk base with no predecessor.
        let mut seen = 0usize;
        let mut live = 0u64;
        for base in self.chunk_starts.iter() {
            let head = self
                .blocks
                .idx_of(base)
                .unwrap_or_else(|| panic!("chunk at {base:#x} has no head block"));
            assert_eq!(
                self.blocks.rec(head).prev,
                NONE_IDX,
                "chunk head has a predecessor"
            );
            let mut idx = head;
            loop {
                let rec = self.blocks.rec(idx);
                assert!(rec.size > 0, "zero-size block at {:#x}", rec.addr);
                seen += 1;
                if !rec.free {
                    live += 1;
                }
                if rec.next == NONE_IDX {
                    break;
                }
                let next = self.blocks.rec(rec.next);
                assert_eq!(
                    rec.addr + u64::from(rec.size),
                    next.addr,
                    "blocks are not adjacent at {:#x}",
                    next.addr
                );
                assert_eq!(next.prev, idx, "broken back-link at {:#x}", next.addr);
                assert!(
                    !self.chunk_starts.contains(next.addr),
                    "chunk start {:#x} linked into a chain",
                    next.addr
                );
                idx = rec.next;
            }
        }
        assert_eq!(seen, self.blocks.len(), "chain walk missed blocks");
        // The free list and the block store agree exactly.
        let mut map_free = 0usize;
        self.each_block(|b| {
            if b.free {
                map_free += 1;
            }
        });
        assert_eq!(
            map_free,
            self.free_list.len(),
            "free-list length disagrees with free blocks"
        );
        for (addr, size) in self.free_list.iter() {
            let idx = self
                .blocks
                .idx_of(addr)
                .unwrap_or_else(|| panic!("free-list entry {addr:#x} has no block"));
            let b = self.blocks.rec(idx);
            assert!(b.free, "free-list entry {addr:#x} is not free");
            assert_eq!(b.size, size, "free-list size mismatch at {addr:#x}");
        }
        // Live accounting.
        assert_eq!(live, self.live, "live-block count mismatch");
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

    fn pool(
        fit: FitPolicy,
        order: FreeOrder,
        coalesce: CoalescePolicy,
        split: SplitPolicy,
    ) -> GeneralPool {
        GeneralPool::new(L1, fit, order, coalesce, split, 8, 4096)
    }

    #[test]
    fn alloc_roundtrip_and_validate() {
        let (mut regions, mut ctx) = setup();
        let mut p = pool(
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::MinRemainder(16),
        );
        let a = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let b = p.alloc(200, &mut regions, &mut ctx).unwrap();
        assert_ne!(a.addr, b.addr);
        assert_eq!(p.live_blocks(), 2);
        p.validate();
        p.free(a.addr, &mut ctx);
        p.validate();
        p.free(b.addr, &mut ctx);
        p.validate();
        assert_eq!(p.live_blocks(), 0);
    }

    #[test]
    fn freed_block_is_reused() {
        let (mut regions, mut ctx) = setup();
        let mut p = pool(
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let a = p.alloc(128, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        let before = ctx.footprint.peak_total();
        let b = p.alloc(120, &mut regions, &mut ctx).unwrap();
        assert_eq!(b.addr, a.addr, "first fit reuses the freed block");
        assert_eq!(ctx.footprint.peak_total(), before, "no growth needed");
        p.validate();
    }

    #[test]
    fn split_carves_remainder() {
        let (mut regions, mut ctx) = setup();
        let mut p = pool(
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::MinRemainder(16),
        );
        let a = p.alloc(1000, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        let b = p.alloc(100, &mut regions, &mut ctx).unwrap();
        assert_eq!(b.addr, a.addr);
        assert!(b.occupied < a.occupied, "block was split");
        assert!(p.free_blocks() >= 1, "remainder is free");
        p.validate();
    }

    #[test]
    fn no_split_hands_out_whole_block() {
        let (mut regions, mut ctx) = setup();
        let mut p = pool(
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let a = p.alloc(1000, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        let b = p.alloc(10, &mut regions, &mut ctx).unwrap();
        assert_eq!(b.addr, a.addr);
        assert_eq!(b.occupied, a.occupied, "whole block handed out");
        assert!(b.internal_fragmentation() > 900);
        p.validate();
    }

    #[test]
    fn immediate_coalescing_merges_neighbours_tagged() {
        let (mut regions, mut ctx) = setup();
        let mut p = pool(
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Immediate,
            SplitPolicy::MinRemainder(16),
        );
        let a = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let b = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let c = p.alloc(100, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        p.free(c.addr, &mut ctx);
        p.validate();
        let free_before = p.free_blocks();
        p.free(b.addr, &mut ctx);
        p.validate();
        // b merged with both neighbours (and the chunk remainder beyond c).
        assert!(
            p.free_blocks() < free_before + 1,
            "coalescing must reduce free-block count: {} -> {}",
            free_before,
            p.free_blocks()
        );
    }

    #[test]
    fn immediate_coalescing_merges_neighbours_addr_ordered() {
        let (mut regions, mut ctx) = setup();
        let mut p = pool(
            FitPolicy::FirstFit,
            FreeOrder::AddressOrdered,
            CoalescePolicy::Immediate,
            SplitPolicy::MinRemainder(16),
        );
        let a = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let b = p.alloc(100, &mut regions, &mut ctx).unwrap();
        let c = p.alloc(100, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        p.free(c.addr, &mut ctx);
        p.free(b.addr, &mut ctx);
        p.validate();
        // Everything merged back into one free region.
        assert_eq!(p.free_blocks(), 1);
        assert_eq!(p.block_count(), 1);
    }

    #[test]
    fn deferred_coalescing_sweeps_on_period() {
        let (mut regions, mut ctx) = setup();
        let mut p = GeneralPool::new(
            L1,
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::DeferredEvery(4),
            SplitPolicy::MinRemainder(16),
            8,
            4096,
        );
        let blocks: Vec<_> = (0..4)
            .map(|_| p.alloc(64, &mut regions, &mut ctx).unwrap())
            .collect();
        for b in &blocks[..3] {
            p.free(b.addr, &mut ctx);
        }
        assert!(p.free_blocks() >= 3, "no sweep yet");
        p.free(blocks[3].addr, &mut ctx); // 4th free triggers the sweep
        p.validate();
        assert_eq!(p.free_blocks(), 1, "sweep merged everything");
    }

    #[test]
    fn never_coalescing_accumulates_free_blocks() {
        let (mut regions, mut ctx) = setup();
        let mut p = pool(
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let blocks: Vec<_> = (0..8)
            .map(|_| p.alloc(64, &mut regions, &mut ctx).unwrap())
            .collect();
        for b in &blocks {
            p.free(b.addr, &mut ctx);
        }
        assert!(p.free_blocks() >= 8, "fragmentation persists");
        assert!(p.external_fragmentation() > 0.9);
        p.validate();
    }

    #[test]
    fn fragmentation_forces_growth_without_coalescing() {
        let (mut regions, mut ctx) = setup();
        let mut p = GeneralPool::new(
            L1,
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::MinRemainder(16),
            8,
            1024,
        );
        // Fill a chunk with small blocks, free them, then ask for a block
        // that only a merged region could serve.
        let blocks: Vec<_> = (0..8)
            .map(|_| p.alloc(100, &mut regions, &mut ctx).unwrap())
            .collect();
        for b in &blocks {
            p.free(b.addr, &mut ctx);
        }
        let before = ctx.footprint.peak_total();
        let _big = p.alloc(800, &mut regions, &mut ctx).unwrap();
        assert!(
            ctx.footprint.peak_total() > before,
            "fragmented pool must grow for the big request"
        );
        p.validate();
    }

    #[test]
    fn coalescing_avoids_growth_where_fragmentation_forces_it() {
        let run = |coalesce: CoalescePolicy| {
            let (mut regions, mut ctx) = setup();
            let mut p = GeneralPool::new(
                L1,
                FitPolicy::FirstFit,
                FreeOrder::AddressOrdered,
                coalesce,
                SplitPolicy::MinRemainder(16),
                8,
                1024,
            );
            let blocks: Vec<_> = (0..8)
                .map(|_| p.alloc(100, &mut regions, &mut ctx).unwrap())
                .collect();
            for b in &blocks {
                p.free(b.addr, &mut ctx);
            }
            let _big = p.alloc(800, &mut regions, &mut ctx).unwrap();
            p.validate();
            ctx.footprint.peak_total()
        };
        let never = run(CoalescePolicy::Never);
        let immediate = run(CoalescePolicy::Immediate);
        assert!(
            immediate < never,
            "coalescing footprint {immediate} must beat fragmented {never}"
        );
    }

    #[test]
    fn best_fit_reduces_internal_frag_vs_worst_fit() {
        let run = |fit: FitPolicy| {
            let (mut regions, mut ctx) = setup();
            let mut p = GeneralPool::new(
                L1,
                fit,
                FreeOrder::Lifo,
                CoalescePolicy::Never,
                SplitPolicy::Never,
                8,
                8192,
            );
            // Create free blocks of diverse sizes.
            let sizes = [64u32, 512, 128, 1024, 256];
            let blocks: Vec<_> = sizes
                .iter()
                .map(|s| p.alloc(*s, &mut regions, &mut ctx).unwrap())
                .collect();
            for b in &blocks {
                p.free(b.addr, &mut ctx);
            }
            let got = p.alloc(100, &mut regions, &mut ctx).unwrap();
            got.internal_fragmentation()
        };
        assert!(run(FitPolicy::BestFit) < run(FitPolicy::WorstFit));
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let (mut regions, mut ctx) = setup();
        let mut p = pool(
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let a = p.alloc(64, &mut regions, &mut ctx).unwrap();
        p.free(a.addr, &mut ctx);
        p.free(a.addr, &mut ctx);
    }

    #[test]
    fn all_policy_combinations_stay_consistent() {
        // A smoke sweep over the full policy cross-product.
        for fit in FitPolicy::ALL {
            for order in FreeOrder::ALL {
                for coalesce in CoalescePolicy::COMMON {
                    for split in SplitPolicy::COMMON {
                        let (mut regions, mut ctx) = setup();
                        let mut p = GeneralPool::new(L1, fit, order, coalesce, split, 8, 2048);
                        let mut live = Vec::new();
                        for i in 0..40u32 {
                            let size = 16 + (i * 37) % 300;
                            let b = p.alloc(size, &mut regions, &mut ctx).unwrap();
                            live.push(b.addr);
                            if i % 3 == 0 {
                                let addr = live.remove((i as usize / 3) % live.len());
                                p.free(addr, &mut ctx);
                            }
                        }
                        p.validate();
                        for addr in live {
                            p.free(addr, &mut ctx);
                        }
                        p.validate();
                        assert_eq!(p.live_blocks(), 0, "{fit} {order} {coalesce} {split}");
                    }
                }
            }
        }
    }
}
