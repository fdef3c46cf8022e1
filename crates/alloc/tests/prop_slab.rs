//! Property tests for the hash-free bookkeeping refactor.
//!
//! Two families:
//!
//! 1. **Pool model equivalence** — every pool's slab/sorted-list
//!    bookkeeping is driven side by side with a plain `HashMap`
//!    reference model (addr → occupied bytes); live accounting, stats
//!    and address reuse must agree at every step.
//! 2. **Kernel equivalence** — random well-formed traces replayed with
//!    the replay kernel produce byte-identical [`SimMetrics`] to
//!    the retained hash-map reference interpreter
//!    ([`Simulator::run_reference`]), across pool kinds and including
//!    infeasible (allocation-failing) runs.

use std::collections::HashMap;

use proptest::prelude::*;

use dmx_alloc::pool::{BuddyPool, Pool, RegionPool, SegregatedPool};
use dmx_alloc::{
    AllocCtx, AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, PoolKind, PoolSpec, Route,
    SimArena, Simulator, SplitPolicy,
};
use dmx_memhier::{presets, LevelId, RegionTable};
use dmx_trace::{BlockId, CompiledTrace, Trace, TraceEvent};

#[derive(Debug, Clone)]
enum Op {
    Alloc(u32),
    FreeNth(usize),
}

fn arb_ops(max_size: u32, len: usize) -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        prop_oneof![
            (1u32..max_size).prop_map(Op::Alloc),
            (0usize..64).prop_map(Op::FreeNth),
        ],
        1..len,
    )
}

/// Drives `pool` and a `HashMap` reference model in lockstep: the model
/// records every live block by address; the pool's slot-indexed /
/// sorted-list bookkeeping must agree with it on liveness, bytes, and
/// non-overlap at every step.
fn check_against_hashmap_model(pool: &mut dyn Pool, ops: &[Op], occupied_counts: bool) {
    let hier = presets::sp64k_dram4m();
    let mut regions = RegionTable::new(&hier);
    let mut ctx = AllocCtx::new(hier.len());
    let mut model: HashMap<u64, u32> = HashMap::new();
    let mut order: Vec<u64> = Vec::new();
    for op in ops {
        match op {
            Op::Alloc(size) => {
                if let Ok(b) = pool.alloc(*size, &mut regions, &mut ctx) {
                    assert!(
                        !model.contains_key(&b.addr),
                        "pool handed out a live address twice: {:#x}",
                        b.addr
                    );
                    model.insert(b.addr, b.occupied);
                    order.push(b.addr);
                }
            }
            Op::FreeNth(n) => {
                if !order.is_empty() {
                    let addr = order.remove(n % order.len());
                    model.remove(&addr).expect("model tracks every live block");
                    pool.free(addr, &mut ctx);
                }
            }
        }
        pool.validate();
        let stats = pool.stats();
        assert_eq!(
            stats.live_blocks,
            model.len() as u64,
            "live blocks diverge from the hash-map model"
        );
        if occupied_counts {
            let model_bytes: u64 = model.values().map(|&s| u64::from(s)).sum();
            assert_eq!(
                stats.live_bytes, model_bytes,
                "live bytes diverge from the hash-map model"
            );
        }
    }
    for addr in order.drain(..) {
        pool.free(addr, &mut ctx);
    }
    pool.validate();
    assert_eq!(pool.live_blocks(), 0);
}

/// Lowers a random op script into a well-formed trace (every block gets
/// accesses and ticks sprinkled in; a tail of frees is appended so the
/// trace exercises both freed and leaked blocks).
fn trace_from_ops(ops: &[Op]) -> Trace {
    let mut t = Trace::new("prop");
    let mut next_id = 0u64;
    let mut live: Vec<u64> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        match op {
            Op::Alloc(size) => {
                let id = next_id;
                next_id += 1;
                t.push(TraceEvent::Alloc {
                    tid: dmx_trace::ThreadId::MAIN,
                    id: BlockId(id),
                    size: *size,
                })
                .unwrap();
                live.push(id);
                if i % 3 == 0 {
                    t.push(TraceEvent::Access {
                        tid: dmx_trace::ThreadId::MAIN,
                        id: BlockId(id),
                        reads: (*size % 7) + 1,
                        writes: *size % 5,
                    })
                    .unwrap();
                }
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let id = live.remove(n % live.len());
                    t.push(TraceEvent::Free {
                        tid: dmx_trace::ThreadId::MAIN,
                        id: BlockId(id),
                    })
                    .unwrap();
                } else {
                    t.push(TraceEvent::Tick { cycles: 17 }).unwrap();
                }
            }
        }
    }
    // Free half of what is left so the trace ends with some leaked blocks.
    for id in live.iter().step_by(2) {
        t.push(TraceEvent::Free {
            tid: dmx_trace::ThreadId::MAIN,
            id: BlockId(*id),
        })
        .unwrap();
    }
    t
}

/// Like [`trace_from_ops`], but events carry thread ids from a rotating
/// set of `tids` threads, and every free deliberately lands on a
/// *different* thread than the alloc — the cross-thread
/// producer/consumer pattern the contention model charges for.
fn threaded_trace_from_ops(ops: &[Op], tids: u32) -> Trace {
    use dmx_trace::ThreadId;
    let mut t = Trace::new("prop-threaded");
    let mut next_id = 0u64;
    // Each live entry remembers its allocating thread.
    let mut live: Vec<(u64, u32)> = Vec::new();
    for (i, op) in ops.iter().enumerate() {
        let tid = i as u32 % tids;
        match op {
            Op::Alloc(size) => {
                let id = next_id;
                next_id += 1;
                t.push(TraceEvent::Alloc {
                    tid: ThreadId(tid),
                    id: BlockId(id),
                    size: *size,
                })
                .unwrap();
                live.push((id, tid));
                if i % 3 == 0 {
                    t.push(TraceEvent::Access {
                        tid: ThreadId(tid),
                        id: BlockId(id),
                        reads: (*size % 7) + 1,
                        writes: *size % 5,
                    })
                    .unwrap();
                }
            }
            Op::FreeNth(n) => {
                if !live.is_empty() {
                    let (id, owner) = live.remove(n % live.len());
                    t.push(TraceEvent::Free {
                        tid: ThreadId((owner + 1) % tids),
                        id: BlockId(id),
                    })
                    .unwrap();
                } else {
                    t.push(TraceEvent::Tick { cycles: 17 }).unwrap();
                }
            }
        }
    }
    for (id, owner) in live.iter().step_by(2) {
        t.push(TraceEvent::Free {
            tid: ThreadId((owner + 1) % tids),
            id: BlockId(*id),
        })
        .unwrap();
    }
    t
}

fn kernel_configs(hier: &dmx_memhier::MemoryHierarchy) -> Vec<AllocatorConfig> {
    let main = hier.slowest();
    vec![
        AllocatorConfig::general_only(
            main,
            FitPolicy::BestFit,
            FreeOrder::AddressOrdered,
            CoalescePolicy::Immediate,
            SplitPolicy::MinRemainder(16),
        ),
        AllocatorConfig::paper_example(hier),
        AllocatorConfig {
            pools: vec![
                PoolSpec {
                    route: Route::Range { min: 1, max: 256 },
                    kind: PoolKind::Segregated {
                        min_class: 16,
                        max_class: 256,
                        chunk_bytes: 2048,
                    },
                    level: main,
                },
                PoolSpec {
                    route: Route::Range {
                        min: 257,
                        max: 2048,
                    },
                    kind: PoolKind::Buddy {
                        min_order: 5,
                        max_order: 13,
                    },
                    level: main,
                },
                PoolSpec {
                    route: Route::Fallback,
                    kind: PoolKind::Region { chunk_bytes: 4096 },
                    level: main,
                },
            ],
        },
        // Everything forced onto the tiny scratchpad: exercises the
        // allocation-failure path (failed blocks leave empty slots).
        AllocatorConfig::general_only(
            hier.fastest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// Segregated slot-indexed vectors vs the hash-map model.
    #[test]
    fn segregated_slab_matches_hashmap_model(ops in arb_ops(3000, 120)) {
        let mut pool = SegregatedPool::new(LevelId(1), 16, 512, 2048);
        check_against_hashmap_model(&mut pool, &ops, true);
    }

    /// Buddy order-map vs the hash-map model.
    #[test]
    fn buddy_order_map_matches_hashmap_model(ops in arb_ops(4000, 120)) {
        let mut pool = BuddyPool::new(LevelId(1), 5, 13);
        check_against_hashmap_model(&mut pool, &ops, true);
    }

    /// Region size tables vs the hash-map model.
    #[test]
    fn region_size_table_matches_hashmap_model(ops in arb_ops(1500, 120)) {
        let mut pool = RegionPool::new(LevelId(1), 4096);
        check_against_hashmap_model(&mut pool, &ops, true);
    }

    /// The replay kernel and the hash-map reference interpreter
    /// agree byte-for-byte on arbitrary well-formed traces, across pool
    /// kinds, with and without arena reuse — including infeasible runs.
    #[test]
    fn slab_kernel_matches_reference_interpreter(ops in arb_ops(2500, 200)) {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = trace_from_ops(&ops);
        let compiled = CompiledTrace::compile(&trace);
        let mut arena = SimArena::new();
        for config in kernel_configs(&hier) {
            let reference = sim.run_reference(&config, &trace).unwrap();
            let kernel = sim.run_in_arena(&config, &compiled, &mut arena).unwrap();
            prop_assert_eq!(&reference, &kernel, "kernel diverges for {}", config.label());
        }
    }

    /// A worker's batch of (instance, genome) jobs: one arena replays
    /// configurations against two unrelated traces in interleaved order —
    /// batches of 1, 2 and 5 jobs, repeating configurations — and every
    /// job agrees with the reference interpreter, whatever slab size the
    /// previous job left behind.
    #[test]
    fn batch_kernel_matches_reference_interpreter(
        ops_a in arb_ops(2500, 200),
        ops_b in arb_ops(600, 60),
    ) {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let traces = [trace_from_ops(&ops_a), trace_from_ops(&ops_b)];
        let compiled = [CompiledTrace::compile(&traces[0]), CompiledTrace::compile(&traces[1])];
        let configs = kernel_configs(&hier);
        for k in [1usize, 2, 5] {
            let mut arena = SimArena::new();
            for job in 0..k {
                let (t, config) = (job % 2, &configs[job % configs.len()]);
                let reference = sim.run_reference(config, &traces[t]).unwrap();
                let got = sim.run_in_arena(config, &compiled[t], &mut arena).unwrap();
                prop_assert_eq!(
                    &reference,
                    &got,
                    "job {} of a {}-job batch diverges for {} on trace {}",
                    job,
                    k,
                    config.label(),
                    t
                );
            }
            prop_assert_eq!(arena.runs(), k as u64);
        }
    }

    /// Concurrent replay threads sharing one simulator and one compiled
    /// trace, each through its own arena: every thread's metrics must
    /// equal the single-threaded reference (no cross-thread state bleed).
    #[test]
    fn concurrent_replay_matches_reference(ops in arb_ops(1500, 120)) {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = trace_from_ops(&ops);
        let compiled = CompiledTrace::compile(&trace);
        let configs = kernel_configs(&hier);
        let expected: Vec<_> = configs
            .iter()
            .map(|c| sim.run_reference(c, &trace).unwrap())
            .collect();

        let threads = 8;
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|t| {
                    let (sim, configs, compiled) = (&sim, &configs, &compiled);
                    scope.spawn(move || {
                        let mut arena = SimArena::new();
                        let mut out = Vec::new();
                        // Stagger the config order per thread so the
                        // threads replay different configs at once.
                        for i in 0..configs.len() {
                            let config = &configs[(i + t) % configs.len()];
                            out.push((
                                (i + t) % configs.len(),
                                sim.run_in_arena(config, compiled, &mut arena).unwrap(),
                            ));
                        }
                        out
                    })
                })
                .collect();
            for handle in handles {
                for (i, got) in handle.join().expect("replay thread") {
                    assert_eq!(
                        &expected[i], &got,
                        "concurrent replay diverges for {}",
                        configs[i].label()
                    );
                }
            }
        });
    }

    /// Threaded traces with cross-thread frees: the replay kernel and the
    /// reference interpreter agree byte-for-byte — including the
    /// contention-stall and tail-latency charges, which both paths must
    /// derive from the same per-pool op windows.
    #[test]
    fn kernels_match_reference_on_threaded_traces(
        ops in arb_ops(2500, 150),
        tids in 2u32..5,
    ) {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = threaded_trace_from_ops(&ops, tids);
        let compiled = CompiledTrace::compile(&trace);
        let mut arena = SimArena::new();
        for config in kernel_configs(&hier) {
            let reference = sim.run_reference(&config, &trace).unwrap();
            let kernel = sim.run_in_arena(&config, &compiled, &mut arena).unwrap();
            prop_assert_eq!(
                &reference,
                &kernel,
                "kernel diverges on a {}-thread trace for {}",
                tids,
                config.label()
            );
        }
    }

    /// Compiling is structurally sound on arbitrary scripts: dense slots,
    /// exact peak-concurrency slab bound, a hoisted size for every alloc.
    #[test]
    fn compiled_trace_slots_are_dense_and_bounded(ops in arb_ops(500, 150)) {
        let trace = trace_from_ops(&ops);
        let compiled = CompiledTrace::compile(&trace);
        prop_assert_eq!(compiled.len(), trace.len());
        prop_assert_eq!(compiled.alloc_sizes().len() as u64, compiled.allocs());
        let stats = dmx_trace::TraceStats::compute(&trace);
        prop_assert_eq!(u64::from(compiled.max_live_slots()), stats.peak_live_blocks);
    }
}
