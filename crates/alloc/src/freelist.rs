//! The parameterized free list of a general pool.
//!
//! The host-side container is a `VecDeque` of `(address, size)` entries,
//! but the *charged* cost model follows the simulated data structure the
//! configuration denotes:
//!
//! * `Lifo`/`Fifo` — a singly-linked list with head (and tail) pointers:
//!   O(1) insertion (2 writes), searches walk from the head at 2 reads per
//!   examined node (size word + next pointer);
//! * `AddressOrdered`/`SizeOrdered` — a sorted singly-linked list:
//!   insertion additionally walks to its position (2 reads per examined
//!   node);
//! * direct removals (used by boundary-tag coalescing) are charged as
//!   doubly-linked unlinking: 2 writes, no walk.
//!
//! The host container and the charged structure agree on *order*, so fit
//! searches pick exactly the block the simulated list would pick and
//! charge exactly the nodes it would examine. *How* the host finds that
//! block is free to differ:
//!
//! * on a size-ordered list, first-, next- and best-fit binary-search for
//!   the first fitting entry (`partition_point`) instead of walking to it;
//! * worst-fit on any other order consults a size index: every entry gets
//!   a `u64` order key that rises in list order (its address on an
//!   address-ordered list, a falling counter for `push_front` and a
//!   rising one for `push_back`), kept in a deque parallel to the entries,
//!   plus a `BTreeSet<(size, key)>`. The set's last element is the largest
//!   size, the first key of that size is the leftmost such block, and a
//!   binary search over the keys turns it back into a list position — the
//!   block the charged full walk would keep, found in O(log n). A list
//!   gets its index at 256 entries and drops it below 64: on shorter
//!   lists, keeping the index current costs more than the walks it saves.
//!
//! The simulated worst-fit walk still examines all `n` nodes, so it is
//! still charged `n` probes. Best-fit is not indexed: exact fits end its
//! walk early, and keeping an index current costs more than those short
//! walks save. The entries stay in a `VecDeque` rather than a tree: on a
//! size-ordered list `VecDeque::binary_search_by` places an insert among
//! equal sizes at an index that depends on where the ring buffer wraps,
//! and the charged insertion walk is that index — any other container
//! would move those inserts and change the charged probes.

use std::collections::{BTreeSet, VecDeque};

use dmx_memhier::LevelId;

use crate::ctx::AllocCtx;
use crate::policy::{FitPolicy, FreeOrder};

/// Cost of examining one list node during a walk (read size, read next).
const READS_PER_PROBE: u64 = 2;

/// How [`FreeList::find`] locates its block. Every variant picks the same
/// block and charges the same probes; they differ only in host time.
#[derive(Debug, Clone)]
enum Search {
    /// Walk the entries in list order, as the simulated list does.
    Walk,
    /// Size-ordered list: binary-search for the first fitting entry.
    Sorted,
    /// Worst-fit on a list not sorted by size: ask the size index while
    /// the list is long (`Some`), walk while it is short (`None`).
    Indexed(Option<SizeIndex>),
}

/// The worst-fit size index (see the module docs).
#[derive(Debug, Clone)]
struct SizeIndex {
    /// Order key of every entry, parallel to the list and strictly rising
    /// in list order.
    keys: VecDeque<u64>,
    /// `(size, key)` of every entry.
    by_size: BTreeSet<(u32, u64)>,
    /// Key of the next `push_front` (below every key on the list).
    front: u64,
    /// Key of the next `push_back` (above every key on the list).
    back: u64,
}

/// Where LIFO/FIFO counters start: room for 2^63 pushes either way.
const KEY_ORIGIN: u64 = 1 << 63;

/// A worst-fit list gets its size index once it holds this many entries.
/// Below it, keeping the index current costs more host time than the
/// walks it saves. Unit tests index tiny lists, so that scripts cross
/// both thresholds often.
const INDEX_FROM: usize = if cfg!(test) { 8 } else { 256 };

/// An indexed list drops its index once it shrinks below this: the gap to
/// [`INDEX_FROM`] keeps a list hovering near one threshold from being
/// re-indexed on every insert.
const INDEX_UNTIL: usize = INDEX_FROM / 4;

impl SizeIndex {
    /// The index of `items`, keyed by address when `address_keys` and
    /// numbered in list order otherwise.
    fn of(items: &VecDeque<(u64, u32)>, address_keys: bool) -> Self {
        let mut index = SizeIndex {
            keys: VecDeque::with_capacity(items.len()),
            by_size: BTreeSet::new(),
            front: KEY_ORIGIN - 1,
            back: KEY_ORIGIN + items.len() as u64,
        };
        for (i, &(addr, size)) in items.iter().enumerate() {
            let key = if address_keys {
                addr
            } else {
                KEY_ORIGIN + i as u64
            };
            index.insert(i, key, size);
        }
        index
    }

    fn insert(&mut self, pos: usize, key: u64, size: u32) {
        self.keys.insert(pos, key);
        self.by_size.insert((size, key));
    }

    fn push_front(&mut self, size: u32) {
        let key = self.front;
        self.front -= 1;
        self.insert(0, key, size);
    }

    fn push_back(&mut self, size: u32) {
        let key = self.back;
        self.back += 1;
        self.insert(self.keys.len(), key, size);
    }

    fn remove(&mut self, pos: usize, size: u32) {
        let key = self.keys.remove(pos).expect("index in range");
        self.by_size.remove(&(size, key));
    }

    /// Resizes the entry at `pos`, re-keying it when keyed by address.
    fn replace(&mut self, pos: usize, old_size: u32, size: u32, address_key: Option<u64>) {
        let old_key = self.keys[pos];
        let key = address_key.unwrap_or(old_key);
        self.by_size.remove(&(old_size, old_key));
        self.keys[pos] = key;
        self.by_size.insert((size, key));
    }

    /// Position of the leftmost largest entry, if it fits `need`.
    fn worst_fit(&self, need: u32) -> Option<usize> {
        let &(max, _) = self.by_size.last()?;
        if max < need {
            return None;
        }
        let &(_, key) = self.by_size.range((max, 0)..).next()?;
        let pos = self
            .keys
            .binary_search(&key)
            .expect("indexed key is listed");
        Some(pos)
    }
}

/// A free list of `(address, size)` entries kept in a configured order
/// and searched under a configured fit policy.
#[derive(Debug, Clone)]
pub struct FreeList {
    order: FreeOrder,
    fit: FitPolicy,
    items: VecDeque<(u64, u32)>,
    rover: usize,
    search: Search,
}

impl FreeList {
    /// An empty list with the given order discipline, searched under `fit`.
    pub fn new(order: FreeOrder, fit: FitPolicy) -> Self {
        let search = match (order, fit) {
            // Worst-fit on a size-ordered list reads only the tail.
            (FreeOrder::SizeOrdered, FitPolicy::WorstFit) => Search::Walk,
            (FreeOrder::SizeOrdered, _) => Search::Sorted,
            (_, FitPolicy::WorstFit) => Search::Indexed(None),
            _ => Search::Walk,
        };
        FreeList {
            order,
            fit,
            items: VecDeque::new(),
            rover: 0,
            search,
        }
    }

    /// The same list, but every search walks the entries in list order:
    /// the reference the binary searches and the size index must match.
    #[cfg(test)]
    fn walking(order: FreeOrder, fit: FitPolicy) -> Self {
        FreeList {
            search: Search::Walk,
            ..FreeList::new(order, fit)
        }
    }

    /// The configured order discipline.
    pub fn order(&self) -> FreeOrder {
        self.order
    }

    /// The configured fit policy.
    pub fn fit(&self) -> FitPolicy {
        self.fit
    }

    /// Number of free blocks on the list.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// `true` if the list holds no blocks.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The entry at `idx` (list order).
    pub fn get(&self, idx: usize) -> (u64, u32) {
        self.items[idx]
    }

    /// Iterates over `(address, size)` entries in list order.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u32)> + '_ {
        self.items.iter().copied()
    }

    /// Inserts a freed block, charging the order's insertion cost.
    /// Returns the index at which the block now sits.
    pub fn insert(&mut self, addr: u64, size: u32, level: LevelId, ctx: &mut AllocCtx) -> usize {
        ctx.meta_write(level, 2);
        let pos = match self.order {
            FreeOrder::Lifo => {
                self.items.push_front((addr, size));
                if let Search::Indexed(Some(index)) = &mut self.search {
                    index.push_front(size);
                }
                0
            }
            FreeOrder::Fifo => {
                self.items.push_back((addr, size));
                if let Search::Indexed(Some(index)) = &mut self.search {
                    index.push_back(size);
                }
                self.items.len() - 1
            }
            FreeOrder::AddressOrdered => {
                let pos = self
                    .items
                    .binary_search_by(|(a, _)| a.cmp(&addr))
                    .unwrap_or_else(|p| p);
                ctx.meta_read(level, READS_PER_PROBE * pos as u64);
                self.items.insert(pos, (addr, size));
                if let Search::Indexed(Some(index)) = &mut self.search {
                    index.insert(pos, addr, size);
                }
                pos
            }
            FreeOrder::SizeOrdered => {
                let pos = self
                    .items
                    .binary_search_by(|(_, s)| s.cmp(&size))
                    .unwrap_or_else(|p| p);
                ctx.meta_read(level, READS_PER_PROBE * pos as u64);
                self.items.insert(pos, (addr, size));
                pos
            }
        };
        self.bump_rover_on_insert(pos);
        self.update_index();
        pos
    }

    /// Searches for a block of at least `need` bytes under the list's fit
    /// policy, charging the walk. Returns the index of the chosen block.
    ///
    /// The walk cost is accumulated host-side and charged in one call per
    /// search (same totals as charging every probe individually): the
    /// per-probe `meta_read` call was the hottest line of the whole replay
    /// path, and hoisting it lets the scan run branch-tight over the
    /// deque's contiguous slices.
    pub fn find(&mut self, need: u32, level: LevelId, ctx: &mut AllocCtx) -> Option<usize> {
        let n = self.items.len();
        if n == 0 {
            // Reading the (null) head pointer still costs one access.
            ctx.meta_read(level, 1);
            return None;
        }
        let (probes, found) = match &self.search {
            // The simulated worst-fit walk examines every node.
            Search::Indexed(Some(index)) => (n, index.worst_fit(need)),
            Search::Sorted => self.find_sorted(need),
            Search::Walk | Search::Indexed(None) => self.walk(need),
        };
        ctx.meta_read(level, READS_PER_PROBE * probes as u64);
        found
    }

    /// `(probes, hit)` of a first-, next- or best-fit search on a
    /// size-ordered list, by binary search.
    fn find_sorted(&mut self, need: u32) -> (usize, Option<usize>) {
        let n = self.items.len();
        // Every entry from `p` on fits; none before it does.
        let p = self.items.partition_point(|&(_, s)| s < need);
        if p == n {
            return (n, None);
        }
        match self.fit {
            FitPolicy::NextFit => {
                let start = self.rover.min(n - 1);
                let k = start.max(p);
                self.rover = k;
                (k - start + 1, Some(k))
            }
            // The first fitting block is also the smallest fitting one.
            _ => (p + 1, Some(p)),
        }
    }

    /// `(probes, hit)` of a search that walks the list in order.
    fn walk(&mut self, need: u32) -> (usize, Option<usize>) {
        let n = self.items.len();
        let sorted = self.order == FreeOrder::SizeOrdered;
        match self.fit {
            FitPolicy::FirstFit => match self.scan_first_fit(0, need) {
                Some(k) => (k + 1, Some(k)),
                None => (n, None),
            },
            FitPolicy::NextFit => {
                let start = self.rover.min(n - 1);
                // One wrapped scan: rover→end, then head→rover.
                let hit = match self.scan_first_fit(start, need) {
                    Some(k) => Some((k - start + 1, k)),
                    None => self
                        .scan_first_fit(0, need)
                        .filter(|&k| k < start)
                        .map(|k| ((n - start) + k + 1, k)),
                };
                match hit {
                    Some((probes, k)) => {
                        self.rover = k;
                        (probes, Some(k))
                    }
                    None => (n, None),
                }
            }
            // Sorted by size: the first fitting block is the best.
            FitPolicy::BestFit if sorted => match self.scan_first_fit(0, need) {
                Some(k) => (k + 1, Some(k)),
                None => (n, None),
            },
            FitPolicy::BestFit => {
                let mut best: Option<(usize, u32)> = None;
                let mut probes = n;
                for (k, &(_, size)) in self.items.iter().enumerate() {
                    if size >= need && best.is_none_or(|(_, bs)| size < bs) {
                        best = Some((k, size));
                        if size == need {
                            // Exact fit: searches stop early.
                            probes = k + 1;
                            break;
                        }
                    }
                }
                (probes, best.map(|(k, _)| k))
            }
            // Sorted ascending: the tail is the largest block.
            FitPolicy::WorstFit if sorted => (1, (self.items[n - 1].1 >= need).then_some(n - 1)),
            FitPolicy::WorstFit => {
                let mut worst: Option<(usize, u32)> = None;
                for (k, &(_, size)) in self.items.iter().enumerate() {
                    if size >= need && worst.is_none_or(|(_, ws)| size > ws) {
                        worst = Some((k, size));
                    }
                }
                (n, worst.map(|(k, _)| k))
            }
        }
    }

    /// Index of the first entry at or after `start` whose size fits `need`
    /// (list order, no wrap, no charging — callers account the walk).
    fn scan_first_fit(&self, start: usize, need: u32) -> Option<usize> {
        let (a, b) = self.items.as_slices();
        if start < a.len() {
            if let Some(k) = a[start..].iter().position(|&(_, s)| s >= need) {
                return Some(start + k);
            }
            b.iter().position(|&(_, s)| s >= need).map(|k| a.len() + k)
        } else {
            b[start - a.len()..]
                .iter()
                .position(|&(_, s)| s >= need)
                .map(|k| start + k)
        }
    }

    /// Removes the entry at `idx` without charging anything.
    fn unlink(&mut self, idx: usize) -> (u64, u32) {
        let entry = self.items.remove(idx).expect("index in range");
        if let Search::Indexed(Some(index)) = &mut self.search {
            index.remove(idx, entry.1);
        }
        self.fix_rover_on_remove(idx);
        self.update_index();
        entry
    }

    /// Removes the entry at `idx` after a charged walk reached it (the
    /// walk retained the predecessor, so unlinking is one pointer write).
    pub fn take(&mut self, idx: usize, level: LevelId, ctx: &mut AllocCtx) -> (u64, u32) {
        ctx.meta_write(level, 1);
        self.unlink(idx)
    }

    /// Removes the entry holding `addr` by direct (doubly-linked) unlink:
    /// charged 2 writes, no walk. Returns the entry if present.
    ///
    /// The host-side position scan is *not* charged — the simulated
    /// structure reaches the node through the block's boundary tags.
    pub fn remove_addr_direct(
        &mut self,
        addr: u64,
        level: LevelId,
        ctx: &mut AllocCtx,
    ) -> Option<(u64, u32)> {
        let idx = self.items.iter().position(|(a, _)| *a == addr)?;
        ctx.meta_write(level, 2);
        Some(self.unlink(idx))
    }

    /// Replaces the entry at `idx` with a split remainder (or a merged
    /// block), charging the in-place node rewrite (or a reposition for a
    /// size-ordered list). On an address-ordered list `addr` must keep the
    /// entry between its neighbours.
    pub fn replace(
        &mut self,
        idx: usize,
        addr: u64,
        size: u32,
        level: LevelId,
        ctx: &mut AllocCtx,
    ) {
        if self.order == FreeOrder::SizeOrdered {
            // The node must be repositioned.
            ctx.meta_write(level, 1);
            self.unlink(idx);
            self.insert(addr, size, level, ctx);
            return;
        }
        ctx.meta_write(level, 2);
        let (_, old_size) = std::mem::replace(&mut self.items[idx], (addr, size));
        if let Search::Indexed(Some(index)) = &mut self.search {
            let address_key = (self.order == FreeOrder::AddressOrdered).then_some(addr);
            index.replace(idx, old_size, size, address_key);
        }
    }

    /// Clears the list without charging (used when a sweep rebuilds the
    /// list; the sweep itself is charged by the caller).
    pub fn rebuild<I: IntoIterator<Item = (u64, u32)>>(&mut self, entries: I) {
        self.items.clear();
        self.rover = 0;
        self.items.extend(entries);
        match self.order {
            FreeOrder::AddressOrdered => {
                self.items.make_contiguous().sort_by_key(|(a, _)| *a);
            }
            FreeOrder::SizeOrdered => {
                self.items.make_contiguous().sort_by_key(|(_, s)| *s);
            }
            FreeOrder::Lifo | FreeOrder::Fifo => {}
        }
        if let Search::Indexed(index) = &mut self.search {
            *index = None;
        }
        self.update_index();
    }

    /// Builds the worst-fit size index once the list is long, and drops it
    /// once the list is short again.
    fn update_index(&mut self) {
        if let Search::Indexed(index) = &mut self.search {
            let n = self.items.len();
            if index.is_none() && n >= INDEX_FROM {
                *index = Some(SizeIndex::of(
                    &self.items,
                    self.order == FreeOrder::AddressOrdered,
                ));
            } else if index.is_some() && n < INDEX_UNTIL {
                *index = None;
            }
        }
    }

    fn bump_rover_on_insert(&mut self, pos: usize) {
        if pos <= self.rover && !self.items.is_empty() {
            self.rover = (self.rover + 1).min(self.items.len() - 1);
        }
    }

    fn fix_rover_on_remove(&mut self, pos: usize) {
        if self.items.is_empty() {
            self.rover = 0;
        } else {
            if pos < self.rover {
                self.rover -= 1;
            }
            self.rover = self.rover.min(self.items.len() - 1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn ctx() -> AllocCtx {
        AllocCtx::new(1)
    }
    const L: LevelId = LevelId(0);

    #[test]
    fn lifo_inserts_at_head() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo, FitPolicy::FirstFit);
        fl.insert(100, 32, L, &mut c);
        fl.insert(200, 64, L, &mut c);
        assert_eq!(fl.get(0), (200, 64));
        assert_eq!(fl.get(1), (100, 32));
        // Two O(1) insertions: 4 writes, no reads.
        assert_eq!(c.meta_counters.total_writes(), 4);
        assert_eq!(c.meta_counters.total_reads(), 0);
    }

    #[test]
    fn fifo_appends_at_tail() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo, FitPolicy::FirstFit);
        fl.insert(100, 32, L, &mut c);
        fl.insert(200, 64, L, &mut c);
        assert_eq!(fl.get(0), (100, 32));
        assert_eq!(fl.get(1), (200, 64));
    }

    #[test]
    fn address_order_is_sorted_and_charged() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::AddressOrdered, FitPolicy::FirstFit);
        fl.insert(300, 8, L, &mut c);
        fl.insert(100, 8, L, &mut c);
        let reads_before = c.meta_counters.total_reads();
        fl.insert(200, 8, L, &mut c); // walks past 100 → 2 reads
        assert_eq!(c.meta_counters.total_reads() - reads_before, 2);
        let addrs: Vec<u64> = fl.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, [100, 200, 300]);
    }

    #[test]
    fn size_order_is_sorted() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::SizeOrdered, FitPolicy::FirstFit);
        fl.insert(1, 64, L, &mut c);
        fl.insert(2, 16, L, &mut c);
        fl.insert(3, 32, L, &mut c);
        let sizes: Vec<u32> = fl.iter().map(|(_, s)| s).collect();
        assert_eq!(sizes, [16, 32, 64]);
    }

    #[test]
    fn first_fit_takes_first_fitting() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo, FitPolicy::FirstFit);
        fl.insert(1, 16, L, &mut c);
        fl.insert(2, 64, L, &mut c);
        fl.insert(3, 128, L, &mut c);
        let idx = fl.find(32, L, &mut c).unwrap();
        assert_eq!(fl.get(idx), (2, 64));
    }

    #[test]
    fn first_fit_charges_walk_length() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo, FitPolicy::FirstFit);
        for i in 0..10 {
            fl.insert(i, 8, L, &mut c);
        }
        fl.insert(99, 100, L, &mut c);
        let reads_before = c.meta_counters.total_reads();
        let idx = fl.find(50, L, &mut c).unwrap();
        assert_eq!(fl.get(idx).0, 99);
        // Walked all 11 nodes at 2 reads each.
        assert_eq!(c.meta_counters.total_reads() - reads_before, 22);
    }

    #[test]
    fn best_fit_picks_tightest() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo, FitPolicy::BestFit);
        fl.insert(1, 128, L, &mut c);
        fl.insert(2, 40, L, &mut c);
        fl.insert(3, 64, L, &mut c);
        let idx = fl.find(33, L, &mut c).unwrap();
        assert_eq!(fl.get(idx), (2, 40));
    }

    #[test]
    fn best_fit_on_size_ordered_stops_early() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::SizeOrdered, FitPolicy::BestFit);
        for (a, s) in [(1, 16), (2, 32), (3, 64), (4, 128), (5, 256)] {
            fl.insert(a, s, L, &mut c);
        }
        let reads_before = c.meta_counters.total_reads();
        let idx = fl.find(33, L, &mut c).unwrap();
        assert_eq!(fl.get(idx), (3, 64));
        // Examined 16, 32, 64 → 3 probes.
        assert_eq!(c.meta_counters.total_reads() - reads_before, 6);
    }

    #[test]
    fn worst_fit_picks_largest() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo, FitPolicy::WorstFit);
        fl.insert(1, 64, L, &mut c);
        fl.insert(2, 256, L, &mut c);
        fl.insert(3, 128, L, &mut c);
        let idx = fl.find(10, L, &mut c).unwrap();
        assert_eq!(fl.get(idx), (2, 256));
    }

    #[test]
    fn next_fit_resumes_from_rover() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo, FitPolicy::NextFit);
        for i in 0..4 {
            fl.insert(i, 32, L, &mut c);
        }
        let first = fl.find(16, L, &mut c).unwrap();
        assert_eq!(fl.get(first).0, 0);
        // Rover stays at the hit; next search starts there, not at head.
        let second = fl.find(16, L, &mut c).unwrap();
        assert_eq!(fl.get(second).0, 0);
        fl.take(second, L, &mut c);
        let third = fl.find(16, L, &mut c).unwrap();
        assert_eq!(fl.get(third).0, 1);
    }

    #[test]
    fn miss_returns_none_but_charges() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo, FitPolicy::FirstFit);
        fl.insert(1, 8, L, &mut c);
        let reads_before = c.meta_counters.total_reads();
        assert!(fl.find(64, L, &mut c).is_none());
        assert_eq!(c.meta_counters.total_reads() - reads_before, 2);
        // Empty list: head read still charged.
        let mut empty = FreeList::new(FreeOrder::Lifo, FitPolicy::FirstFit);
        assert!(empty.find(1, L, &mut c).is_none());
    }

    #[test]
    fn take_unlinks_with_one_write() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo, FitPolicy::FirstFit);
        fl.insert(1, 8, L, &mut c);
        fl.insert(2, 8, L, &mut c);
        let writes_before = c.meta_counters.total_writes();
        let (addr, _) = fl.take(0, L, &mut c);
        assert_eq!(addr, 1);
        assert_eq!(c.meta_counters.total_writes() - writes_before, 1);
        assert_eq!(fl.len(), 1);
    }

    #[test]
    fn remove_addr_direct_charges_two_writes() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo, FitPolicy::FirstFit);
        fl.insert(1, 8, L, &mut c);
        fl.insert(2, 8, L, &mut c);
        let writes_before = c.meta_counters.total_writes();
        assert_eq!(fl.remove_addr_direct(1, L, &mut c), Some((1, 8)));
        assert_eq!(c.meta_counters.total_writes() - writes_before, 2);
        assert_eq!(fl.remove_addr_direct(42, L, &mut c), None);
    }

    #[test]
    fn replace_keeps_sorted_orders_sorted() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::SizeOrdered, FitPolicy::FirstFit);
        fl.insert(1, 64, L, &mut c);
        fl.insert(2, 128, L, &mut c);
        // Split the 128 block down to 24 bytes: must re-sort ahead of 64.
        let idx = fl.iter().position(|(a, _)| a == 2).unwrap();
        fl.replace(idx, 90, 24, L, &mut c);
        let sizes: Vec<u32> = fl.iter().map(|(_, s)| s).collect();
        assert_eq!(sizes, [24, 64]);
    }

    #[test]
    fn rover_survives_heavy_churn() {
        // Regression guard: the next-fit rover must stay in range through
        // arbitrary interleavings of inserts and removals.
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Fifo, FitPolicy::NextFit);
        for i in 0..12u64 {
            fl.insert(i * 16, 32, L, &mut c);
        }
        for round in 0..40u64 {
            let _ = fl.find(16, L, &mut c);
            if fl.len() > 1 && round % 3 == 0 {
                fl.take((round as usize) % fl.len(), L, &mut c);
            }
            fl.insert(1000 + round * 8, 24, L, &mut c);
            // The next search must not panic and must find something.
            assert!(fl.find(8, L, &mut c).is_some());
        }
    }

    #[test]
    fn take_last_element_resets_rover() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::Lifo, FitPolicy::NextFit);
        fl.insert(1, 8, L, &mut c);
        let idx = fl.find(8, L, &mut c).unwrap();
        fl.take(idx, L, &mut c);
        assert!(fl.is_empty());
        assert!(fl.find(8, L, &mut c).is_none());
        fl.insert(2, 8, L, &mut c);
        assert!(fl.find(8, L, &mut c).is_some());
    }

    #[test]
    fn rebuild_restores_order_invariant() {
        let mut fl = FreeList::new(FreeOrder::AddressOrdered, FitPolicy::FirstFit);
        fl.rebuild(vec![(300, 8), (100, 8), (200, 8)]);
        let addrs: Vec<u64> = fl.iter().map(|(a, _)| a).collect();
        assert_eq!(addrs, [100, 200, 300]);
        assert_eq!(fl.len(), 3);
    }

    #[test]
    fn indexed_worst_fit_takes_leftmost_largest_and_charges_full_walk() {
        for order in [FreeOrder::Lifo, FreeOrder::Fifo, FreeOrder::AddressOrdered] {
            let mut c = ctx();
            let mut fl = FreeList::new(order, FitPolicy::WorstFit);
            let sizes = [64, 256, 128, 256, 32, 16, 48, 96];
            for (a, s) in (10..).step_by(10).zip(sizes) {
                fl.insert(a, s, L, &mut c);
            }
            assert!(matches!(fl.search, Search::Indexed(Some(_))), "{order}");
            let reads_before = c.meta_counters.total_reads();
            let idx = fl.find(100, L, &mut c).unwrap();
            let leftmost = fl.iter().position(|(_, s)| s == 256).unwrap();
            assert_eq!(idx, leftmost, "{order}");
            // The simulated walk still examines all 8 nodes.
            assert_eq!(c.meta_counters.total_reads() - reads_before, 16);
            fl.replace(idx, fl.get(idx).0 + 1, 300, L, &mut c);
            assert_eq!(fl.find(100, L, &mut c), Some(idx), "{order}: grown block");
            fl.take(idx, L, &mut c);
            let next = fl.find(100, L, &mut c).unwrap();
            assert_eq!(fl.get(next).1, 256, "{order}");
            assert_eq!(fl.find(257, L, &mut c), None, "{order}: nothing fits");
        }
    }

    #[test]
    fn next_fit_on_size_ordered_resumes_past_the_rover() {
        let mut c = ctx();
        let mut fl = FreeList::new(FreeOrder::SizeOrdered, FitPolicy::NextFit);
        for (a, s) in [(1, 16), (2, 32), (3, 64), (4, 128)] {
            fl.insert(a, s, L, &mut c);
        }
        fl.rover = 2;
        let reads_before = c.meta_counters.total_reads();
        // 32 fits from index 1, but the walk starts at the rover.
        assert_eq!(fl.find(20, L, &mut c), Some(2));
        assert_eq!(c.meta_counters.total_reads() - reads_before, 2);
        // 100 fits from index 3 on: two nodes examined from the rover.
        assert_eq!(fl.find(100, L, &mut c), Some(3));
        assert_eq!(c.meta_counters.total_reads() - reads_before, 6);
        assert_eq!(fl.rover, 3);
    }

    /// One step of a free-list script, as a general pool drives the list.
    #[derive(Debug, Clone)]
    enum Op {
        /// Free a block of `size` at an address derived from the seed.
        Insert { seed: u32, size: u32 },
        /// Search for `need`; on a hit, take the block or replace it in
        /// place with a block of `resize` bytes (a split or a merge).
        Find { need: u32, resize: Option<u32> },
        /// Direct unlink of the `n`-th entry (an absent address when the
        /// list is shorter).
        RemoveDirect { n: usize },
        /// Rebuild from the current entries minus every `n + 2`-th one,
        /// rotated by `n`.
        Rebuild { n: usize },
    }

    fn arb_script() -> impl Strategy<Value = Vec<Op>> {
        // Few distinct sizes, so the largest block is often tied.
        let size = || (1u32..9).prop_map(|k| k * 16);
        prop::collection::vec(
            prop_oneof![
                6 => (any::<u32>(), size()).prop_map(|(seed, size)| Op::Insert { seed, size }),
                4 => (1u32..150, any::<bool>(), size())
                    .prop_map(|(need, split, s)| Op::Find { need, resize: split.then_some(s) }),
                1 => (0usize..48).prop_map(|n| Op::RemoveDirect { n }),
                1 => (0usize..6).prop_map(|n| Op::Rebuild { n }),
            ],
            1..400,
        )
    }

    /// Applies `op` at script position `step`; returns the list position
    /// the operation reported (insert slot, search hit, unlinked entry).
    fn apply(fl: &mut FreeList, op: &Op, step: usize, c: &mut AllocCtx) -> Option<usize> {
        match *op {
            Op::Insert { seed, size } => {
                // Distinct for every step, 256 bytes apart at least.
                let addr = (u64::from(seed) << 24) | ((step as u64) << 8);
                Some(fl.insert(addr, size, L, c))
            }
            Op::Find { need, resize } => {
                let k = fl.find(need, L, c)?;
                match resize {
                    None => {
                        fl.take(k, L, c);
                    }
                    Some(size) => {
                        // Move the start up, but stay below the next
                        // address so an address-ordered list stays sorted.
                        let addr = fl.get(k).0;
                        let next = fl.iter().map(|(a, _)| a).filter(|&a| a > addr).min();
                        let gap = next.map_or(256, |n| n - addr);
                        fl.replace(k, addr + gap / 2, size, L, c);
                    }
                }
                Some(k)
            }
            Op::RemoveDirect { n } => {
                let addr = if n < fl.len() { fl.get(n).0 } else { u64::MAX };
                fl.remove_addr_direct(addr, L, c).map(|_| n)
            }
            Op::Rebuild { n } => {
                let mut entries: Vec<(u64, u32)> = fl
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| i % (n + 2) != 0)
                    .map(|(_, e)| e)
                    .collect();
                let by = n.min(entries.len());
                entries.rotate_left(by);
                fl.rebuild(entries);
                None
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

        /// For every (fit, order) pair, the list as built (binary searches
        /// on size-ordered lists, the size index for worst-fit) and the
        /// same list walking in list order agree step for step: positions,
        /// entries, rover and every charged read and write.
        #[test]
        fn fast_searches_match_the_walking_list(script in arb_script()) {
            for fit in FitPolicy::ALL {
                for order in FreeOrder::ALL {
                    let mut fast = FreeList::new(order, fit);
                    let mut walk = FreeList::walking(order, fit);
                    let (mut cf, mut cw) = (ctx(), ctx());
                    for (step, op) in script.iter().enumerate() {
                        let at = format!("{fit}/{order} step {step} {op:?}");
                        let got = apply(&mut fast, op, step, &mut cf);
                        let want = apply(&mut walk, op, step, &mut cw);
                        prop_assert_eq!(got, want, "{}: position", at);
                        prop_assert!(fast.iter().eq(walk.iter()), "{}: entries", at);
                        prop_assert_eq!(fast.rover, walk.rover, "{}: rover", at);
                        prop_assert_eq!(&cf, &cw, "{}: charged accesses", at);
                    }
                }
            }
        }
    }
}
