//! Property tests: every pool kind survives arbitrary alloc/free sequences
//! with its internal invariants intact, its accounting stays consistent
//! with ground truth, and no served op charges less metadata than the
//! pool's declared floor.

use proptest::prelude::*;

use dmx_alloc::pool::{BuddyPool, FixedBlockPool, GeneralPool, Pool, RegionPool, SegregatedPool};
use dmx_alloc::{
    AllocCtx, AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, MetaFloor, PoolKind, PoolSpec,
    Route, SplitPolicy,
};
use dmx_memhier::{presets, LevelId, RegionTable};

/// A miniature op script: sizes to allocate, interleaved with frees picked
/// by index into the live set.
#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    FreeNth(usize),
}

fn arb_ops(max_size: u32) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..max_size).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::FreeNth),
        ],
        1..120,
    )
}

/// Drives a pool with the script, validating after every step; returns
/// (live_count, total_allocs).
fn drive(pool: &mut dyn Pool, ops: &[Op]) -> (u64, u64) {
    let hier = presets::sp64k_dram4m();
    let mut regions = RegionTable::new(&hier);
    let mut ctx = AllocCtx::new(hier.len());
    let mut live: Vec<(u64, u32)> = Vec::new();
    let mut allocs = 0u64;
    for op in ops {
        match op {
            Op::Alloc(size) => {
                if let Ok(b) = pool.alloc(*size, &mut regions, &mut ctx) {
                    assert!(b.occupied >= *size || b.requested == *size);
                    live.push((b.addr, *size));
                    allocs += 1;
                }
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let (addr, _) = live.remove(n % live.len());
                    pool.free(addr, &mut ctx);
                }
            }
        }
        pool.validate();
        assert_eq!(pool.live_blocks(), live.len() as u64, "live count drifted");
        let stats = pool.stats();
        assert_eq!(stats.live_blocks, live.len() as u64);
        assert!(
            stats.live_bytes <= stats.reserved_bytes,
            "live {} exceeds reserved {}",
            stats.live_bytes,
            stats.reserved_bytes
        );
    }
    // Tear down everything and re-validate.
    for (addr, _) in live.drain(..) {
        pool.free(addr, &mut ctx);
    }
    pool.validate();
    assert_eq!(pool.live_blocks(), 0);
    (0, allocs)
}

/// Metadata accesses charged so far.
fn meta(ctx: &AllocCtx) -> u64 {
    ctx.meta_counters.total_accesses()
}

/// Runs the script twice on `pool`, freeing every live block after each
/// pass (so the second pass starts from recycled state: region resets,
/// merged buddies, refilled free lists), and asserts that every served
/// alloc and every free charges at least the pool's [`MetaFloor`].
fn assert_meta_floors(pool: &mut dyn Pool, ops: &[Op]) {
    let MetaFloor { alloc, free } = pool.meta_floor();
    let hier = presets::sp64k_dram4m();
    let mut regions = RegionTable::new(&hier);
    let mut ctx = AllocCtx::new(hier.len());
    let mut live: Vec<u64> = Vec::new();
    let free_one = |addr: u64, pool: &mut dyn Pool, ctx: &mut AllocCtx| {
        let before = meta(ctx);
        pool.free(addr, ctx);
        let charged = meta(ctx) - before;
        assert!(charged >= free, "free charged {charged} < floor {free}");
    };
    for _pass in 0..2 {
        for op in ops {
            match op {
                Op::Alloc(size) => {
                    let before = meta(&ctx);
                    if let Ok(b) = pool.alloc(*size, &mut regions, &mut ctx) {
                        let charged = meta(&ctx) - before;
                        assert!(
                            charged >= alloc,
                            "alloc of {size} charged {charged} < floor {alloc}"
                        );
                        live.push(b.addr);
                    }
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let addr = live.remove(n % live.len());
                        free_one(addr, pool, &mut ctx);
                    }
                }
            }
        }
        for addr in live.drain(..) {
            free_one(addr, pool, &mut ctx);
        }
    }
}

/// A composite whose dedicated pools sit on the 64 KiB scratchpad, so
/// the 1500-byte fixed pool and the range pools overflow to `fallback` on
/// main memory. The small-block general pool grows 512 bytes at a time,
/// so it overflows soon after the scratchpad fills.
fn overflowing_composite(fallback: PoolKind) -> AllocatorConfig {
    let sp = LevelId(0);
    AllocatorConfig {
        pools: vec![
            PoolSpec::fixed(1500, sp),
            PoolSpec {
                route: Route::Range { min: 1, max: 64 },
                kind: PoolKind::General {
                    fit: FitPolicy::FirstFit,
                    order: FreeOrder::Lifo,
                    coalesce: CoalescePolicy::Immediate,
                    split: SplitPolicy::MinRemainder(16),
                    align: 8,
                    chunk_bytes: 512,
                },
                level: sp,
            },
            PoolSpec {
                route: Route::Range { min: 65, max: 256 },
                kind: PoolKind::Buddy {
                    min_order: 5,
                    max_order: 12,
                },
                level: sp,
            },
            PoolSpec {
                route: Route::Range {
                    min: 257,
                    max: 1024,
                },
                kind: PoolKind::Segregated {
                    min_class: 16,
                    max_class: 512,
                    chunk_bytes: 4096,
                },
                level: sp,
            },
            PoolSpec {
                route: Route::Fallback,
                kind: fallback,
                level: LevelId(1),
            },
        ],
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// Every pool kind: each served alloc and each free charges at least
    /// its declared floor, on every general policy combination (with and
    /// without a footer), segregated large objects, buddy splits and
    /// merges, and region resets.
    #[test]
    fn every_pool_op_charges_at_least_its_meta_floor(
        ops in arb_ops(3000),
        fit_idx in 0usize..4,
        order_idx in 0usize..4,
        coalesce_idx in 0usize..3,
        split in prop::bool::ANY,
    ) {
        let general = GeneralPool::new(
            LevelId(1),
            FitPolicy::ALL[fit_idx],
            FreeOrder::ALL[order_idx],
            CoalescePolicy::COMMON[coalesce_idx],
            if split { SplitPolicy::MinRemainder(16) } else { SplitPolicy::Never },
            8,
            4096,
        );
        let mut pools: Vec<Box<dyn Pool>> = vec![
            Box::new(general),
            Box::new(FixedBlockPool::new(LevelId(1), 3000, 4)),
            Box::new(SegregatedPool::new(LevelId(1), 16, 1024, 4096)),
            // Requests above 1024 bytes take a whole top-order block,
            // whose free has no buddy to probe.
            Box::new(BuddyPool::new(LevelId(1), 5, 11)),
            Box::new(RegionPool::new(LevelId(1), 4096)),
        ];
        for pool in &mut pools {
            assert_meta_floors(pool.as_mut(), &ops);
        }
    }

    /// Through a composite: each served alloc and each free charges at
    /// least [`dmx_alloc::CompositeAllocator::meta_floor`] for its size,
    /// also when a dedicated pool overflows to a fallback with lower
    /// floors than its own.
    #[test]
    fn composite_ops_charge_at_least_their_routed_floor(
        sizes in prop::collection::vec(
            prop_oneof![3 => Just(1500u32), 2 => 1u32..64, 2 => 65u32..2000],
            1..200,
        ),
        frees in prop::collection::vec(0usize..8, 1..200),
        fallback_idx in 0usize..4,
    ) {
        let hier = presets::sp64k_dram4m();
        let fallback = match CoalescePolicy::COMMON.get(fallback_idx) {
            Some(&coalesce) => PoolKind::General {
                fit: FitPolicy::BestFit,
                order: FreeOrder::Lifo,
                coalesce,
                split: SplitPolicy::MinRemainder(16),
                align: 8,
                chunk_bytes: 8192,
            },
            None => PoolKind::Region { chunk_bytes: 8192 },
        };
        let config = overflowing_composite(fallback);
        let mut allocator = config.build(&hier).unwrap();
        let mut ctx = AllocCtx::new(hier.len());
        let mut live: Vec<(u64, u32, u32)> = Vec::new();
        let (mut overflowed, mut most_live_1500) = (false, 0);
        for (i, &size) in sizes.iter().enumerate() {
            let floor = allocator.meta_floor(size);
            let before = meta(&ctx);
            let (block, pool) = allocator.alloc(size, &mut ctx).unwrap();
            prop_assert!(meta(&ctx) - before >= floor.alloc);
            overflowed |= size == 1500 && pool == 4;
            live.push((block.addr, pool, size));
            let live_1500 = live.iter().filter(|b| b.2 == 1500).count();
            most_live_1500 = most_live_1500.max(live_1500);
            // Free one block in eight, so the dedicated pools fill up.
            if frees[i % frees.len()] == 0 {
                let (addr, pool, size) = live.swap_remove(i % live.len());
                let before = meta(&ctx);
                allocator.free(addr, pool, &mut ctx);
                prop_assert!(meta(&ctx) - before >= allocator.meta_floor(size).free);
            }
        }
        for (addr, pool, size) in live {
            let before = meta(&ctx);
            allocator.free(addr, pool, &mut ctx);
            prop_assert!(meta(&ctx) - before >= allocator.meta_floor(size).free);
        }
        allocator.validate();
        // At most 43 slots of 1500 bytes fit the scratchpad.
        if most_live_1500 > 43 {
            prop_assert!(overflowed, "the fixed pool never overflowed");
        }
    }

    #[test]
    fn fixed_pool_invariants(ops in arb_ops(74)) {
        let mut pool = FixedBlockPool::new(LevelId(1), 74, 8);
        drive(&mut pool, &ops);
    }

    #[test]
    fn segregated_pool_invariants(ops in arb_ops(3000)) {
        let mut pool = SegregatedPool::new(LevelId(1), 16, 1024, 4096);
        drive(&mut pool, &ops);
    }

    #[test]
    fn buddy_pool_invariants(ops in arb_ops(4000)) {
        let mut pool = BuddyPool::new(LevelId(1), 5, 13);
        drive(&mut pool, &ops);
    }

    #[test]
    fn region_pool_invariants(ops in arb_ops(2000)) {
        let mut pool = RegionPool::new(LevelId(1), 4096);
        drive(&mut pool, &ops);
    }

    #[test]
    fn general_pool_invariants(
        ops in arb_ops(2000),
        fit_idx in 0usize..4,
        order_idx in 0usize..4,
        coalesce_idx in 0usize..3,
        split in prop::bool::ANY,
    ) {
        let mut pool = GeneralPool::new(
            LevelId(1),
            FitPolicy::ALL[fit_idx],
            FreeOrder::ALL[order_idx],
            CoalescePolicy::COMMON[coalesce_idx],
            if split { SplitPolicy::MinRemainder(16) } else { SplitPolicy::Never },
            8,
            4096,
        );
        drive(&mut pool, &ops);
    }

    /// The segregated pool's bitset free-map against a plain
    /// `Vec<bool>` + linear-scan reference model: set/clear/take-first
    /// agree on membership, count, and — the part the bitset
    /// accelerates with trailing-zero scans — *which* slot is lowest.
    #[test]
    fn freemap_matches_vector_scan_model(
        ops in prop::collection::vec((0u32..600, prop::bool::ANY), 1..400),
        takes in prop::collection::vec(prop::bool::ANY, 1..400),
    ) {
        let mut map = dmx_alloc::FreeMap::new();
        let mut model: Vec<bool> = vec![false; 600];
        map.ensure_slots(model.len());
        let mut take_iter = takes.iter();
        for &(slot, set) in &ops {
            if set {
                if !model[slot as usize] {
                    map.set(slot);
                    model[slot as usize] = true;
                }
            } else if model[slot as usize] {
                map.clear(slot);
                model[slot as usize] = false;
            }
            if *take_iter.next().unwrap_or(&false) {
                let expected = model.iter().position(|&b| b);
                let got = map.take_first();
                prop_assert_eq!(got, expected.map(|i| i as u32));
                if let Some(i) = expected {
                    model[i] = false;
                }
            }
            let count = model.iter().filter(|&&b| b).count() as u64;
            prop_assert_eq!(map.count(), count);
            prop_assert_eq!(map.is_empty(), count == 0);
            prop_assert_eq!(map.contains(slot), model[slot as usize]);
        }
        // Iteration order is ascending and complete.
        let from_map: Vec<u32> = map.iter().collect();
        let from_model: Vec<u32> =
            (0..model.len() as u32).filter(|&i| model[i as usize]).collect();
        prop_assert_eq!(from_map, from_model);
    }

    /// Address uniqueness: live blocks from any pool never overlap.
    #[test]
    fn general_pool_blocks_never_overlap(ops in arb_ops(1500), order_idx in 0usize..4) {
        let hier = presets::sp64k_dram4m();
        let mut regions = RegionTable::new(&hier);
        let mut ctx = AllocCtx::new(hier.len());
        let mut pool = GeneralPool::new(
            LevelId(1),
            FitPolicy::FirstFit,
            FreeOrder::ALL[order_idx],
            CoalescePolicy::Immediate,
            SplitPolicy::MinRemainder(16),
            8,
            4096,
        );
        let mut live: Vec<(u64, u64)> = Vec::new(); // (start, end)
        for op in &ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(b) = pool.alloc(*size, &mut regions, &mut ctx) {
                        let end = b.addr + u64::from(b.occupied);
                        for &(s, e) in &live {
                            prop_assert!(end <= s || b.addr >= e,
                                "block [{}, {}) overlaps [{s}, {e})", b.addr, end);
                        }
                        live.push((b.addr, end));
                    }
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let (addr, _) = live.remove(n % live.len());
                        pool.free(addr, &mut ctx);
                    }
                }
            }
        }
    }

    /// Footprint accounting in the context always matches what the pools
    /// actually reserved.
    #[test]
    fn footprint_matches_reservations(ops in arb_ops(1000)) {
        let hier = presets::sp64k_dram4m();
        let mut regions = RegionTable::new(&hier);
        let mut ctx = AllocCtx::new(hier.len());
        let mut pool = SegregatedPool::new(LevelId(1), 16, 512, 2048);
        let mut live: Vec<u64> = Vec::new();
        for op in &ops {
            match op {
                Op::Alloc(size) => {
                    if let Ok(b) = pool.alloc(*size, &mut regions, &mut ctx) {
                        live.push(b.addr);
                    }
                }
                Op::FreeNth(n) => {
                    if !live.is_empty() {
                        let addr = live.remove(n % live.len());
                        pool.free(addr, &mut ctx);
                    }
                }
            }
        }
        prop_assert_eq!(ctx.footprint.reserved(LevelId(1)), regions.used(LevelId(1)));
        prop_assert_eq!(ctx.footprint.reserved(LevelId(1)), pool.stats().reserved_bytes);
    }
}
