//! Cross-crate property tests: allocator/simulator invariants over random
//! workloads and configurations, and Pareto-filter laws over random point
//! sets.

use proptest::prelude::*;

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, PoolKind, PoolSpec, Route, Simulator,
    SplitPolicy,
};
use dmx_core::{dominates, pareto_front, GenomeSpace, GrammarSpace, ParamSpace};
use dmx_memhier::presets;
use dmx_trace::gen::{LifetimeDist, SizeDist, SyntheticConfig, TraceGenerator};
use dmx_trace::TraceStats;

fn arb_fit() -> impl Strategy<Value = FitPolicy> {
    prop_oneof![
        Just(FitPolicy::FirstFit),
        Just(FitPolicy::NextFit),
        Just(FitPolicy::BestFit),
        Just(FitPolicy::WorstFit),
    ]
}

fn arb_order() -> impl Strategy<Value = FreeOrder> {
    prop_oneof![
        Just(FreeOrder::Lifo),
        Just(FreeOrder::Fifo),
        Just(FreeOrder::AddressOrdered),
        Just(FreeOrder::SizeOrdered),
    ]
}

fn arb_coalesce() -> impl Strategy<Value = CoalescePolicy> {
    prop_oneof![
        Just(CoalescePolicy::Never),
        Just(CoalescePolicy::Immediate),
        (1u32..128).prop_map(CoalescePolicy::DeferredEvery),
    ]
}

fn arb_split() -> impl Strategy<Value = SplitPolicy> {
    prop_oneof![
        Just(SplitPolicy::Never),
        (8u32..64).prop_map(SplitPolicy::MinRemainder),
    ]
}

fn arb_config() -> impl Strategy<Value = AllocatorConfig> {
    (
        arb_fit(),
        arb_order(),
        arb_coalesce(),
        arb_split(),
        prop::bool::ANY, // dedicated pool for the hot size?
        prop::bool::ANY, // dedicated pool on the scratchpad?
        1u64..4,         // chunk kilobytes
    )
        .prop_map(
            |(fit, order, coalesce, split, dedicated, on_sp, chunk_kb)| {
                let hier = presets::sp64k_dram4m();
                let mut pools = Vec::new();
                if dedicated {
                    let level = if on_sp {
                        hier.fastest()
                    } else {
                        hier.slowest()
                    };
                    pools.push(PoolSpec::fixed(64, level));
                }
                pools.push(PoolSpec {
                    route: Route::Fallback,
                    kind: PoolKind::General {
                        fit,
                        order,
                        coalesce,
                        split,
                        align: 8,
                        chunk_bytes: chunk_kb * 1024,
                    },
                    level: hier.slowest(),
                });
                AllocatorConfig { pools }
            },
        )
}

fn arb_workload() -> impl Strategy<Value = SyntheticConfig> {
    (
        100usize..600,
        prop_oneof![
            Just(SizeDist::Constant(64)),
            Just(SizeDist::Uniform { min: 8, max: 512 }),
            Just(SizeDist::Choice(vec![(64, 0.6), (256, 0.3), (1024, 0.1)])),
            Just(SizeDist::Exponential {
                mean: 120.0,
                min: 8,
                max: 2048
            }),
        ],
        prop_oneof![
            Just(LifetimeDist::Constant(8)),
            Just(LifetimeDist::Geometric { mean: 24.0 }),
            Just(LifetimeDist::Uniform { min: 1, max: 64 }),
        ],
        0u32..2,
    )
        .prop_map(|(allocs, sizes, lifetimes, tickiness)| SyntheticConfig {
            name: "prop".to_owned(),
            allocs,
            sizes,
            lifetimes,
            accesses_per_word: 1.0,
            tick_cycles: tickiness * 40,
            tick_every: 8,
        })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    /// The keystone invariant chain: for any workload and configuration,
    /// a feasible simulation (a) serves everything, (b) reserves at least
    /// the application's peak live bytes, (c) derives energy/cycles
    /// consistently from its own counters.
    #[test]
    fn sim_invariants_hold(config in arb_config(), workload in arb_workload(), seed in 0u64..1000) {
        let hier = presets::sp64k_dram4m();
        let trace = workload.generate(seed);
        let stats = TraceStats::compute(&trace);
        let m = Simulator::new(&hier).run(&config, &trace).expect("config valid");

        if m.feasible() {
            prop_assert_eq!(m.allocs, stats.allocs);
            prop_assert_eq!(m.frees, stats.frees);
            prop_assert!(m.footprint >= stats.peak_live_bytes,
                "footprint {} < peak live {}", m.footprint, stats.peak_live_bytes);
        }
        // Energy equals the counter-weighted sum plus leakage over the
        // run's cycles, regardless of feasibility.
        let cost = dmx_memhier::CostModel::new(&hier);
        prop_assert_eq!(m.energy_pj, cost.total_energy_pj(&m.counters, m.cycles));
        // Cycles include at least the tick cycles and the access time.
        prop_assert!(m.cycles >= stats.tick_cycles + cost.access_cycles(&m.counters));
        // Meta accesses are a subset of all accesses.
        prop_assert!(m.meta_counters.total_accesses() <= m.counters.total_accesses());
        // Footprint never exceeds the platform.
        prop_assert!(m.footprint <= hier.total_capacity());
    }

    /// The same invariant chain over grammar-space configurations, whose
    /// mid-tier and fallback nodes add segregated, buddy and region pools
    /// to the general and fixed pools above; the kernel also matches the
    /// reference simulator exactly. Codons are drawn uniformly and folded
    /// by `canonicalize`, so each pool kind appears in about a quarter of
    /// the mid-tier and fallback draws.
    #[test]
    fn grammar_sim_invariants_hold(
        workload in arb_workload(),
        seed in 0u64..1000,
        codons in prop::collection::vec(0usize..64, 12),
    ) {
        let hier = presets::sp64k_dram4m();
        let trace = workload.generate(seed);
        let stats = TraceStats::compute(&trace);
        let space = GrammarSpace::covering(&ParamSpace::suggest(&stats, &hier));
        let config = space.config_at(&hier, &space.canonicalize(codons));
        let sim = Simulator::new(&hier);
        let m = sim.run(&config, &trace).expect("config valid");
        prop_assert_eq!(&m, &sim.run_reference(&config, &trace).expect("config valid"));

        if m.feasible() {
            prop_assert_eq!(m.allocs, stats.allocs);
            prop_assert_eq!(m.frees, stats.frees);
            prop_assert!(m.footprint >= stats.peak_live_bytes,
                "footprint {} < peak live {}", m.footprint, stats.peak_live_bytes);
        }
        let cost = dmx_memhier::CostModel::new(&hier);
        prop_assert_eq!(m.energy_pj, cost.total_energy_pj(&m.counters, m.cycles));
        prop_assert!(m.cycles >= stats.tick_cycles + cost.access_cycles(&m.counters));
        prop_assert!(m.meta_counters.total_accesses() <= m.counters.total_accesses());
        prop_assert!(m.footprint <= hier.total_capacity());
    }

    /// Simulation is a pure function of (config, trace).
    #[test]
    fn sim_is_deterministic(config in arb_config(), seed in 0u64..100) {
        let hier = presets::sp64k_dram4m();
        let trace = SyntheticConfig::bimodal(300).generate(seed);
        let sim = Simulator::new(&hier);
        let a = sim.run(&config, &trace).expect("valid");
        let b = sim.run(&config, &trace).expect("valid");
        prop_assert_eq!(a, b);
    }

    /// Pareto front laws over arbitrary point sets.
    #[test]
    fn pareto_front_laws(points in prop::collection::vec((0u64..1000, 0u64..1000), 1..120)) {
        let as_vecs: Vec<Vec<u64>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
        let front = pareto_front(&as_vecs);

        // Non-empty input → non-empty front.
        prop_assert!(!front.is_empty());
        // No front point dominates another front point.
        for a in &front.points {
            for b in &front.points {
                prop_assert!(!dominates(a, b) || a == b);
            }
        }
        // Every input point is on the front or dominated by a front point.
        for p in &as_vecs {
            let on_front = front.points.iter().any(|f| f == p);
            let dominated = front.points.iter().any(|f| dominates(f, p));
            prop_assert!(on_front || dominated);
        }
    }

    /// Pareto filtering is idempotent.
    #[test]
    fn pareto_is_idempotent(points in prop::collection::vec((0u64..100, 0u64..100), 1..60)) {
        let as_vecs: Vec<Vec<u64>> = points.iter().map(|&(x, y)| vec![x, y]).collect();
        let once = pareto_front(&as_vecs);
        let twice = pareto_front(&once.points);
        prop_assert_eq!(once.points, twice.points);
    }

    /// Trace serialization round-trips for arbitrary synthetic workloads.
    #[test]
    fn trace_formats_roundtrip(workload in arb_workload(), seed in 0u64..500) {
        let trace = workload.generate(seed);
        let text = dmx_trace::textfmt::to_string(&trace);
        let back = dmx_trace::textfmt::from_str(&text).expect("parses");
        prop_assert_eq!(back.events(), trace.events());
        let bytes = dmx_trace::binfmt::to_bytes(&trace);
        let back = dmx_trace::binfmt::from_bytes(&bytes).expect("parses");
        prop_assert_eq!(back.events(), trace.events());
    }

    /// More coalescing never increases the final footprint (for the same
    /// fit/order/split and workload).
    #[test]
    fn coalescing_never_hurts_footprint(
        fit in arb_fit(),
        order in arb_order(),
        seed in 0u64..200,
    ) {
        let hier = presets::sp64k_dram4m();
        let trace = SyntheticConfig::fragmenter(400).generate(seed);
        let sim = Simulator::new(&hier);
        let run = |coalesce| {
            let cfg = AllocatorConfig::general_only(
                hier.slowest(), fit, order, coalesce, SplitPolicy::MinRemainder(16));
            sim.run(&cfg, &trace).expect("valid")
        };
        let never = run(CoalescePolicy::Never);
        let immediate = run(CoalescePolicy::Immediate);
        prop_assert!(immediate.footprint <= never.footprint,
            "immediate {} > never {}", immediate.footprint, never.footprint);
    }
}
