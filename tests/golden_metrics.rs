//! Golden-metrics suite: pins [`SimMetrics`] byte-for-byte across the
//! slab-kernel refactor.
//!
//! The expected values below were captured by running the **pre-refactor**
//! hash-map simulator (the implementation now preserved as
//! [`Simulator::run_reference`]) on three fixed-seed workloads against one
//! configuration per pool kind — fixed, segregated, buddy, region,
//! general, and a five-pool composite. Every replay path must keep
//! reproducing them exactly: the compiled-trace slab kernel is a pure
//! performance refactor, not a modeling change.

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, PoolKind, PoolSpec, Route, SimArena,
    SimMetrics, Simulator, SplitPolicy,
};
use dmx_memhier::MemoryHierarchy;
use dmx_trace::gen::{EasyportConfig, ServerMixConfig, SyntheticConfig, TraceGenerator, VtcConfig};
use dmx_trace::{CompiledTrace, Trace};

/// The pinned digest of one (workload, configuration) simulation.
struct Golden {
    case: &'static str,
    allocs: u64,
    frees: u64,
    failures: u64,
    ops: u64,
    footprint: u64,
    footprint_per_level: [u64; 2],
    energy_pj: u64,
    cycles: u64,
    peak_internal_frag: u64,
    counters: [(u64, u64); 2],
    meta_counters: [(u64, u64); 2],
}

impl Golden {
    fn assert_matches(&self, m: &SimMetrics, path: &str) {
        let ctx = format!("{} via {path}", self.case);
        assert_eq!(m.allocs, self.allocs, "{ctx}: allocs");
        assert_eq!(m.frees, self.frees, "{ctx}: frees");
        assert_eq!(m.failures, self.failures, "{ctx}: failures");
        assert_eq!(m.ops, self.ops, "{ctx}: ops");
        assert_eq!(m.footprint, self.footprint, "{ctx}: footprint");
        assert_eq!(
            m.footprint_per_level, self.footprint_per_level,
            "{ctx}: footprint per level"
        );
        assert_eq!(m.energy_pj, self.energy_pj, "{ctx}: energy");
        assert_eq!(m.cycles, self.cycles, "{ctx}: cycles");
        assert_eq!(
            m.peak_internal_frag, self.peak_internal_frag,
            "{ctx}: internal fragmentation"
        );
        let counters: Vec<(u64, u64)> = m
            .counters
            .iter()
            .map(|(_, c)| (c.reads, c.writes))
            .collect();
        assert_eq!(counters, self.counters, "{ctx}: per-level accesses");
        let meta: Vec<(u64, u64)> = m
            .meta_counters
            .iter()
            .map(|(_, c)| (c.reads, c.writes))
            .collect();
        assert_eq!(meta, self.meta_counters, "{ctx}: per-level meta accesses");
    }
}

/// Captured from the pre-refactor simulator; see the module docs.
const GOLDENS: &[Golden] = &[
    Golden {
        case: "easyport/general",
        allocs: 6259,
        frees: 6259,
        failures: 0,
        ops: 12518,
        footprint: 1040384,
        footprint_per_level: [0, 1040384],
        energy_pj: 473908236,
        cycles: 14334482,
        peak_internal_frag: 991018,
        counters: [(0, 0), (195327, 113859)],
        meta_counters: [(0, 0), (19709, 31803)],
    },
    Golden {
        case: "easyport/fixed+general",
        allocs: 6259,
        frees: 6259,
        failures: 0,
        ops: 12518,
        footprint: 93824,
        footprint_per_level: [4864, 88960],
        energy_pj: 387394857,
        cycles: 13308656,
        peak_internal_frag: 1872,
        counters: [(70000, 38004), (173022, 77242)],
        meta_counters: [(6000, 6004), (61404, 27186)],
    },
    Golden {
        case: "easyport/segregated",
        allocs: 6259,
        frees: 6259,
        failures: 0,
        ops: 12518,
        footprint: 131208,
        footprint_per_level: [0, 131208],
        energy_pj: 450628617,
        cycles: 14047594,
        peak_internal_frag: 10082,
        counters: [(0, 0), (193771, 100915)],
        meta_counters: [(0, 0), (18153, 18859)],
    },
    Golden {
        case: "easyport/buddy",
        allocs: 6259,
        frees: 6259,
        failures: 0,
        ops: 12518,
        footprint: 262144,
        footprint_per_level: [0, 262144],
        energy_pj: 476837891,
        cycles: 14368898,
        peak_internal_frag: 37826,
        counters: [(0, 0), (201739, 109809)],
        meta_counters: [(0, 0), (26121, 27753)],
    },
    Golden {
        case: "easyport/region",
        allocs: 6259,
        frees: 6259,
        failures: 0,
        ops: 12518,
        footprint: 1630208,
        footprint_per_level: [0, 1630208],
        energy_pj: 432657050,
        cycles: 13827324,
        peak_internal_frag: 566,
        counters: [(0, 0), (188136, 94973)],
        meta_counters: [(0, 0), (12518, 12917)],
    },
    Golden {
        case: "easyport/composite",
        allocs: 6259,
        frees: 6259,
        failures: 0,
        ops: 12518,
        footprint: 338688,
        footprint_per_level: [4864, 333824],
        energy_pj: 325467671,
        cycles: 12552284,
        peak_internal_frag: 19282,
        counters: [(70000, 38004), (143868, 65662)],
        meta_counters: [(6000, 6004), (32250, 15606)],
    },
    Golden {
        case: "vtc/general",
        allocs: 272,
        frees: 272,
        failures: 0,
        ops: 544,
        footprint: 1097728,
        footprint_per_level: [0, 1097728],
        energy_pj: 60765509,
        cycles: 6579614,
        peak_internal_frag: 1078200,
        counters: [(0, 0), (30167, 9844)],
        meta_counters: [(0, 0), (691, 1896)],
    },
    Golden {
        case: "vtc/fixed+general",
        allocs: 272,
        frees: 272,
        failures: 0,
        ops: 544,
        footprint: 24576,
        footprint_per_level: [0, 24576],
        energy_pj: 64389762,
        cycles: 6623924,
        peak_internal_frag: 2128,
        counters: [(0, 0), (31712, 10669)],
        meta_counters: [(0, 0), (2236, 2721)],
    },
    Golden {
        case: "vtc/segregated",
        allocs: 272,
        frees: 272,
        failures: 0,
        ops: 544,
        footprint: 34816,
        footprint_per_level: [0, 34816],
        energy_pj: 59220413,
        cycles: 6560512,
        peak_internal_frag: 104,
        counters: [(0, 0), (30288, 8780)],
        meta_counters: [(0, 0), (812, 832)],
    },
    Golden {
        case: "vtc/buddy",
        allocs: 272,
        frees: 272,
        failures: 0,
        ops: 544,
        footprint: 262144,
        footprint_per_level: [0, 262144],
        energy_pj: 63110235,
        cycles: 6608294,
        peak_internal_frag: 18664,
        counters: [(0, 0), (31117, 10423)],
        meta_counters: [(0, 0), (1641, 2475)],
    },
    Golden {
        case: "vtc/region",
        allocs: 272,
        frees: 272,
        failures: 0,
        ops: 544,
        footprint: 24576,
        footprint_per_level: [0, 24576],
        energy_pj: 58368281,
        cycles: 6550068,
        peak_internal_frag: 0,
        counters: [(0, 0), (30020, 8499)],
        meta_counters: [(0, 0), (544, 551)],
    },
    Golden {
        case: "vtc/composite",
        allocs: 272,
        frees: 272,
        failures: 0,
        ops: 544,
        footprint: 32768,
        footprint_per_level: [0, 32768],
        energy_pj: 59429860,
        cycles: 6563082,
        peak_internal_frag: 1648,
        counters: [(0, 0), (30343, 8859)],
        meta_counters: [(0, 0), (867, 911)],
    },
    Golden {
        case: "churn/general",
        allocs: 800,
        frees: 800,
        failures: 0,
        ops: 1600,
        footprint: 204800,
        footprint_per_level: [0, 204800],
        energy_pj: 111329420,
        cycles: 1386184,
        peak_internal_frag: 189827,
        counters: [(0, 0), (35008, 36717)],
        meta_counters: [(0, 0), (2706, 4100)],
    },
    Golden {
        case: "churn/fixed+general",
        allocs: 800,
        frees: 800,
        failures: 0,
        ops: 1600,
        footprint: 10624,
        footprint_per_level: [2432, 8192],
        energy_pj: 138866074,
        cycles: 1721852,
        peak_internal_frag: 519,
        counters: [(25, 27), (50470, 39582)],
        meta_counters: [(3, 5), (18190, 6987)],
    },
    Golden {
        case: "churn/segregated",
        allocs: 800,
        frees: 800,
        failures: 0,
        ops: 1600,
        footprint: 24576,
        footprint_per_level: [0, 24576],
        energy_pj: 108140959,
        cycles: 1346916,
        peak_internal_frag: 2003,
        counters: [(0, 0), (34702, 35029)],
        meta_counters: [(0, 0), (2400, 2412)],
    },
    Golden {
        case: "churn/buddy",
        allocs: 800,
        frees: 800,
        failures: 0,
        ops: 1600,
        footprint: 262144,
        footprint_per_level: [0, 262144],
        energy_pj: 112540183,
        cycles: 1400898,
        peak_internal_frag: 2920,
        counters: [(0, 0), (35851, 36694)],
        meta_counters: [(0, 0), (3549, 4077)],
    },
    Golden {
        case: "churn/region",
        allocs: 800,
        frees: 800,
        failures: 0,
        ops: 1600,
        footprint: 114688,
        footprint_per_level: [0, 114688],
        energy_pj: 105687718,
        cycles: 1316856,
        peak_internal_frag: 139,
        counters: [(0, 0), (33902, 34246)],
        meta_counters: [(0, 0), (1600, 1629)],
    },
    Golden {
        case: "churn/composite",
        allocs: 800,
        frees: 800,
        failures: 0,
        ops: 1600,
        footprint: 18816,
        footprint_per_level: [2432, 16384],
        energy_pj: 111150726,
        cycles: 1383860,
        peak_internal_frag: 2882,
        counters: [(25, 27), (35506, 36150)],
        meta_counters: [(3, 5), (3226, 3555)],
    },
];

fn fixture_trace(name: &str) -> Trace {
    match name {
        "easyport" => EasyportConfig::small().generate(11),
        "vtc" => VtcConfig::small().generate(3),
        "churn" => SyntheticConfig::uniform_churn(800).generate(9),
        "server" => ServerMixConfig::small().generate(17),
        other => panic!("unknown fixture trace `{other}`"),
    }
}

fn fixture_config(name: &str, hier: &MemoryHierarchy) -> AllocatorConfig {
    let main = hier.slowest();
    match name {
        "general" => AllocatorConfig::general_only(
            main,
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        ),
        "fixed+general" => AllocatorConfig::paper_example(hier),
        "segregated" => AllocatorConfig {
            pools: vec![PoolSpec {
                route: Route::Fallback,
                kind: PoolKind::Segregated {
                    min_class: 16,
                    max_class: 1024,
                    chunk_bytes: 4096,
                },
                level: main,
            }],
        },
        "buddy" => AllocatorConfig {
            pools: vec![PoolSpec {
                route: Route::Fallback,
                kind: PoolKind::Buddy {
                    min_order: 5,
                    max_order: 18,
                },
                level: main,
            }],
        },
        "region" => AllocatorConfig {
            pools: vec![PoolSpec {
                route: Route::Fallback,
                kind: PoolKind::Region { chunk_bytes: 8192 },
                level: main,
            }],
        },
        "composite" => AllocatorConfig {
            pools: vec![
                PoolSpec::fixed(74, hier.fastest()),
                PoolSpec {
                    route: Route::Range { min: 1, max: 64 },
                    kind: PoolKind::Segregated {
                        min_class: 8,
                        max_class: 64,
                        chunk_bytes: 2048,
                    },
                    level: main,
                },
                PoolSpec {
                    route: Route::Range { min: 65, max: 512 },
                    kind: PoolKind::Buddy {
                        min_order: 5,
                        max_order: 12,
                    },
                    level: main,
                },
                PoolSpec {
                    route: Route::Range {
                        min: 513,
                        max: 1024,
                    },
                    kind: PoolKind::Region { chunk_bytes: 8192 },
                    level: main,
                },
                PoolSpec::general(
                    main,
                    FitPolicy::BestFit,
                    FreeOrder::SizeOrdered,
                    CoalescePolicy::DeferredEvery(32),
                    SplitPolicy::MinRemainder(16),
                ),
            ],
        },
        other => panic!("unknown fixture config `{other}`"),
    }
}

/// Every golden case, via every replay path: the replay kernel (fresh
/// arena and reused arena) and the retained hash-map reference
/// interpreter both reproduce the pre-refactor numbers exactly.
#[test]
fn all_pool_kinds_reproduce_pre_refactor_metrics_on_every_path() {
    let hier = dmx_memhier::presets::sp64k_dram4m();
    let sim = Simulator::new(&hier);
    let mut arena = SimArena::new();
    for golden in GOLDENS {
        let (trace_name, config_name) = golden.case.split_once('/').expect("case format");
        let trace = fixture_trace(trace_name);
        let config = fixture_config(config_name, &hier);
        let compiled = CompiledTrace::compile(&trace);

        let reference = sim.run_reference(&config, &trace).unwrap();
        golden.assert_matches(&reference, "run_reference (hash-map oracle)");

        let arena_run = sim.run_in_arena(&config, &compiled, &mut arena).unwrap();
        golden.assert_matches(&arena_run, "run_in_arena (reused worker arena)");

        let convenience = sim.run(&config, &trace).unwrap();
        golden.assert_matches(&convenience, "run (compile-and-replay, fresh arena)");
    }
    assert_eq!(
        arena.runs(),
        GOLDENS.len() as u64,
        "every golden case replayed through the reused arena"
    );
    assert!(
        arena.reuses() > 0,
        "the reused arena must actually reuse its slab"
    );
}

/// The pinned digest of one (threaded workload, configuration)
/// simulation, including the contention-model outputs. Kept as a
/// separate table from [`GOLDENS`]: those pin the *pre-refactor,
/// single-threaded* numbers (where both contention fields must stay 0),
/// while these pin the threaded server-mix behaviour — per-pool stall
/// charges and the p99 tail-latency proxy — per pool kind.
struct ServerGolden {
    case: &'static str,
    allocs: u64,
    frees: u64,
    failures: u64,
    ops: u64,
    footprint: u64,
    footprint_per_level: [u64; 2],
    energy_pj: u64,
    cycles: u64,
    peak_internal_frag: u64,
    contention_stalls: u64,
    tail_latency: u64,
    counters: [(u64, u64); 2],
    meta_counters: [(u64, u64); 2],
}

impl ServerGolden {
    fn assert_matches(&self, m: &SimMetrics, path: &str) {
        let ctx = format!("{} via {path}", self.case);
        assert_eq!(m.allocs, self.allocs, "{ctx}: allocs");
        assert_eq!(m.frees, self.frees, "{ctx}: frees");
        assert_eq!(m.failures, self.failures, "{ctx}: failures");
        assert_eq!(m.ops, self.ops, "{ctx}: ops");
        assert_eq!(m.footprint, self.footprint, "{ctx}: footprint");
        assert_eq!(
            m.footprint_per_level, self.footprint_per_level,
            "{ctx}: footprint per level"
        );
        assert_eq!(m.energy_pj, self.energy_pj, "{ctx}: energy");
        assert_eq!(m.cycles, self.cycles, "{ctx}: cycles");
        assert_eq!(
            m.peak_internal_frag, self.peak_internal_frag,
            "{ctx}: internal fragmentation"
        );
        assert_eq!(
            m.contention_stalls, self.contention_stalls,
            "{ctx}: contention stalls"
        );
        assert_eq!(m.tail_latency, self.tail_latency, "{ctx}: tail latency");
        let counters: Vec<(u64, u64)> = m
            .counters
            .iter()
            .map(|(_, c)| (c.reads, c.writes))
            .collect();
        assert_eq!(counters, self.counters, "{ctx}: per-level accesses");
        let meta: Vec<(u64, u64)> = m
            .meta_counters
            .iter()
            .map(|(_, c)| (c.reads, c.writes))
            .collect();
        assert_eq!(meta, self.meta_counters, "{ctx}: per-level meta accesses");
    }
}

/// Captured from `Simulator::run_reference` on the server-mix fixture
/// (`ServerMixConfig::small()`, seed 17) when the contention model
/// landed; one case per pool kind. Note the composite case: routing
/// splits ops across five pools, so its per-pool contention windows see
/// different thread interleavings and charge *fewer* stalls than the
/// single-pool configurations — the signal the contention objectives
/// exist to expose.
const SERVER_GOLDENS: &[ServerGolden] = &[
    ServerGolden {
        case: "server/general",
        allocs: 6123,
        frees: 6123,
        failures: 0,
        ops: 12246,
        footprint: 622880,
        footprint_per_level: [0, 622880],
        energy_pj: 372250120,
        cycles: 10639260,
        peak_internal_frag: 420880,
        contention_stalls: 1903960,
        tail_latency: 212,
        counters: [(0, 0), (96896, 141091)],
        meta_counters: [(0, 0), (19340, 30811)],
    },
    ServerGolden {
        case: "server/fixed+general",
        allocs: 6123,
        frees: 6123,
        failures: 0,
        ops: 12246,
        footprint: 155744,
        footprint_per_level: [0, 155744],
        energy_pj: 471590082,
        cycles: 11854696,
        peak_internal_frag: 680,
        contention_stalls: 1903960,
        tail_latency: 212,
        counters: [(0, 0), (135898, 166761)],
        meta_counters: [(0, 0), (58342, 56481)],
    },
    ServerGolden {
        case: "server/segregated",
        allocs: 6123,
        frees: 6123,
        failures: 0,
        ops: 12246,
        footprint: 167936,
        footprint_per_level: [0, 167936],
        energy_pj: 349688072,
        cycles: 10361262,
        peak_internal_frag: 6240,
        contention_stalls: 1903960,
        tail_latency: 212,
        counters: [(0, 0), (95215, 128704)],
        meta_counters: [(0, 0), (17659, 18424)],
    },
    ServerGolden {
        case: "server/buddy",
        allocs: 6123,
        frees: 6123,
        failures: 0,
        ops: 12246,
        footprint: 524288,
        footprint_per_level: [0, 524288],
        energy_pj: 439153143,
        cycles: 11460148,
        peak_internal_frag: 116448,
        contention_stalls: 1903960,
        tail_latency: 212,
        counters: [(0, 0), (114612, 166191)],
        meta_counters: [(0, 0), (37056, 55911)],
    },
    ServerGolden {
        case: "server/region",
        allocs: 6123,
        frees: 6123,
        failures: 0,
        ops: 12246,
        footprint: 3989504,
        footprint_per_level: [0, 3989504],
        energy_pj: 333242733,
        cycles: 10159768,
        peak_internal_frag: 0,
        contention_stalls: 1903960,
        tail_latency: 212,
        counters: [(0, 0), (89802, 123501)],
        meta_counters: [(0, 0), (12246, 13221)],
    },
    ServerGolden {
        case: "server/composite",
        allocs: 6123,
        frees: 6123,
        failures: 0,
        ops: 12246,
        footprint: 184408,
        footprint_per_level: [0, 184408],
        energy_pj: 430523014,
        cycles: 11330566,
        peak_internal_frag: 16608,
        contention_stalls: 1884320,
        tail_latency: 212,
        counters: [(0, 0), (127273, 149299)],
        meta_counters: [(0, 0), (49717, 39019)],
    },
];

/// Every server-mix golden case via every replay path: the threaded
/// contention charges — not just the classic counters — reproduce
/// exactly through the replay kernel and the hash-map reference
/// interpreter.
#[test]
fn server_mix_reproduces_pinned_threaded_metrics_on_every_path() {
    let hier = dmx_memhier::presets::sp64k_dram4m();
    let sim = Simulator::new(&hier);
    let mut arena = SimArena::new();
    let trace = fixture_trace("server");
    let compiled = CompiledTrace::compile(&trace);
    assert!(
        compiled.is_threaded(),
        "the server fixture must be threaded"
    );
    for golden in SERVER_GOLDENS {
        let (_, config_name) = golden.case.split_once('/').expect("case format");
        let config = fixture_config(config_name, &hier);

        let reference = sim.run_reference(&config, &trace).unwrap();
        golden.assert_matches(&reference, "run_reference (hash-map oracle)");

        let arena_run = sim.run_in_arena(&config, &compiled, &mut arena).unwrap();
        golden.assert_matches(&arena_run, "run_in_arena (reused worker arena)");

        let fresh = sim.run(&config, &trace).unwrap();
        golden.assert_matches(&fresh, "run (compile-and-replay, fresh arena)");
    }
}

/// A guided search over the threaded server-mix trace, ranked on the
/// contention-model objectives, must be byte-identical at both extreme
/// worker counts (what `DMX_THREADS=1` and `DMX_THREADS=8` select): the
/// contention charges are a pure function of the trace's op/tid streams,
/// never of the evaluation parallelism.
#[test]
fn threaded_trace_search_is_deterministic_across_worker_counts() {
    use dmx_core::export::search_to_json;
    use dmx_core::search::GeneticSearch;
    use dmx_core::{Explorer, Objective, ParamSpace};
    use dmx_trace::TraceStats;

    let hier = dmx_memhier::presets::sp64k_dram4m();
    let trace = fixture_trace("server");
    let space = ParamSpace::suggest(&TraceStats::compute(&trace), &hier);
    let strategy = GeneticSearch {
        population: 8,
        generations: 2,
        seed: 2006,
    };
    let objectives = [Objective::TailLatency, Objective::ContentionStalls];

    let mut runs = Vec::new();
    for threads in [1usize, 8] {
        let outcome = Explorer::new(&hier).with_threads(threads).search(
            &strategy,
            &space,
            &trace,
            &objectives,
        );
        assert!(
            outcome.front.points.iter().all(|p| p[0] > 0 && p[1] > 0),
            "threads={threads}: a threaded trace must charge nonzero \
             tail latency and stalls on every front point"
        );
        runs.push((
            outcome.genomes.clone(),
            outcome.front.points.clone(),
            search_to_json(&outcome, &objectives),
        ));
    }
    assert_eq!(
        runs[0], runs[1],
        "threaded-trace search drifted between 1 and 8 workers"
    );
}

/// The golden table must cover every pool kind — a regression guard so a
/// future pool addition extends this suite.
#[test]
fn golden_suite_covers_every_pool_kind() {
    for kind in [
        "general",
        "fixed+general",
        "segregated",
        "buddy",
        "region",
        "composite",
    ] {
        assert!(
            GOLDENS.iter().any(|g| g.case.ends_with(kind)),
            "no golden case for pool kind `{kind}`"
        );
    }
    for workload in ["easyport", "vtc", "churn"] {
        assert!(
            GOLDENS.iter().any(|g| g.case.starts_with(workload)),
            "no golden case for workload `{workload}`"
        );
    }
    // The threaded table mirrors the pool-kind coverage.
    for kind in [
        "general",
        "fixed+general",
        "segregated",
        "buddy",
        "region",
        "composite",
    ] {
        assert!(
            SERVER_GOLDENS.iter().any(|g| g.case.ends_with(kind)),
            "no server golden case for pool kind `{kind}`"
        );
    }
}

/// The pinned digest of one pre-refactor guided-search run.
struct SearchGolden {
    strategy: &'static str,
    /// `(evaluations, simulations, cache_hits)`.
    counts: (usize, usize, usize),
    /// FNV-1a of `format!("{:?}", outcome.genomes)`.
    genomes_debug_fnv: u64,
    /// FNV-1a of the serialized profile records.
    records_fnv: u64,
    /// The exported Pareto front: `(label, footprint, accesses)` per
    /// point, in front order.
    front: &'static [(&'static str, u64, u64)],
}

/// Captured from the pre-refactor search layer (fixed-axis genomes,
/// `ParamSpace`-only strategies) on the quick Easyport fixture at seed
/// 2006; see [`search_strategies_reproduce_pre_refactor_outcomes`].
const SEARCH_GOLDENS: &[SearchGolden] = &[
    SearchGolden {
        strategy: "genetic",
        counts: (18, 18, 22),
        genomes_debug_fnv: 0xcabac67e06f16ae0,
        records_fnv: 0x90b027ebba154f1d,
        front: &[
            (
                "fix28@L1+fix74@L1+gen(bf,lifo,co-im,sp-16,a8,c8192)@L1",
                80384,
                269215,
            ),
            (
                "fix28@L0+fix74@L0+gen(bf,lifo,co-im,sp-16,a8,c8192)@L1",
                80384,
                269215,
            ),
            (
                "fix28@L0+fix74@L0+gen(ff,lifo,co-im,sp-16,a8,c8192)@L1",
                88576,
                241645,
            ),
            (
                "fix28@L1+fix74@L1+fix1500@L1+gen(ff,addr,co-no,sp-no,a8,c8192)@L1",
                611712,
                235223,
            ),
            (
                "fix28@L0+fix74@L0+fix1500@L1+gen(ff,lifo,co-no,sp-no,a8,c8192)@L1",
                628096,
                225291,
            ),
        ],
    },
    SearchGolden {
        strategy: "sample",
        counts: (11, 11, 0),
        genomes_debug_fnv: 0x03743059cb4f97e3,
        records_fnv: 0xf78954b96516638f,
        front: &[
            ("gen(bf,addr,co-no,sp-16,a8,c8192)@L1", 90112, 567506),
            (
                "fix28@L0+fix74@L0+fix1500@L1+gen(bf,lifo,co-im,sp-16,a8,c8192)@L1",
                95616,
                250216,
            ),
            (
                "fix28@L1+fix74@L1+gen(ff,lifo,co-no,sp-no,a8,c8192)@L1",
                645632,
                226162,
            ),
        ],
    },
];

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Rebuilds the exact `pareto_to_json` output for a pinned front.
fn front_json(front: &[(&str, u64, u64)]) -> String {
    let mut s = String::from("[");
    for (k, (label, footprint, accesses)) in front.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str(&format!(
            "\n  {{\"label\": \"{label}\", \"footprint_bytes\": {footprint}, \
             \"accesses\": {accesses}}}"
        ));
    }
    if !front.is_empty() {
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

/// Golden fixed-seed searches across every strategy: pins the
/// `GenomeSpace`-trait refactor byte for byte. The expected digests were
/// captured from the **pre-refactor** search layer, whose strategies
/// held `ParamSpace` directly and bred fixed-size `[usize; 8]` genomes.
/// Driving the same strategies through `&dyn GenomeSpace` over
/// `Vec<usize>` genomes must not perturb a single RNG draw: the
/// evaluated genome sequence, the serialized profile records, the
/// exported JSON front and the planner accounting all stay identical, at
/// both extreme worker counts.
#[test]
fn search_strategies_reproduce_pre_refactor_outcomes() {
    use dmx_core::export::{pareto_to_json, search_to_json};
    use dmx_core::search::{GeneticSearch, SearchStrategy, SubsampleSearch};
    use dmx_core::study::{easyport_space, easyport_trace, StudyScale};
    use dmx_core::{Explorer, Objective};
    use dmx_profile::records_to_string;

    let hier = dmx_memhier::presets::sp64k_dram4m();
    let space = easyport_space(&hier, StudyScale::Quick);
    let trace = easyport_trace(StudyScale::Quick, 42);

    for golden in SEARCH_GOLDENS {
        let strategy: Box<dyn SearchStrategy> = match golden.strategy {
            "genetic" => Box::new(GeneticSearch {
                population: 10,
                generations: 3,
                seed: 2006,
            }),
            "sample" => Box::new(SubsampleSearch { n: 11, seed: 2006 }),
            other => panic!("unknown golden strategy `{other}`"),
        };
        for threads in [1usize, 8] {
            let ctx = format!("{} (threads={threads})", golden.strategy);
            let outcome = Explorer::new(&hier).with_threads(threads).search(
                strategy.as_ref(),
                &space,
                &trace,
                &Objective::FIG1,
            );
            assert_eq!(
                (outcome.evaluations, outcome.simulations, outcome.cache_hits),
                golden.counts,
                "{ctx}: planner accounting drifted"
            );
            assert_eq!(
                fnv1a(format!("{:?}", outcome.genomes).as_bytes()),
                golden.genomes_debug_fnv,
                "{ctx}: the evaluated genome sequence drifted"
            );
            assert_eq!(
                fnv1a(records_to_string(&outcome.exploration.to_records()).as_bytes()),
                golden.records_fnv,
                "{ctx}: serialized profile records drifted"
            );
            assert_eq!(
                pareto_to_json(&outcome.exploration, &outcome.front, &Objective::FIG1),
                front_json(golden.front),
                "{ctx}: exported JSON front drifted"
            );
            // Multi-fidelity screening is opt-in: a default run must
            // carry no fidelity statistics and export no fidelity block,
            // so these pre-screening goldens stay byte-identical.
            assert!(
                outcome.fidelity.is_none(),
                "{ctx}: fidelity stats appeared on a fidelity-off run"
            );
            assert!(
                !search_to_json(&outcome, &Objective::FIG1).contains("\"fidelity\""),
                "{ctx}: fidelity block leaked into a fidelity-off export"
            );
        }
    }
}

/// Multi-fidelity screening golden: a fixed-seed halving+k-NN genetic
/// search must produce byte-identical outcomes at both extreme worker
/// counts — the same exported JSON (front, accounting *and* the fidelity
/// block), the same evaluated genome sequence, and fewer full-trace
/// simulations than candidates screened. Pins the prefix-replay
/// screening pipeline the way the other goldens pin the kernels.
#[test]
fn multi_fidelity_search_is_deterministic_across_worker_counts() {
    use dmx_core::export::search_to_json;
    use dmx_core::search::GeneticSearch;
    use dmx_core::study::{easyport_space, easyport_trace, StudyScale};
    use dmx_core::{Explorer, FidelityPlan, Objective};

    let hier = dmx_memhier::presets::sp64k_dram4m();
    let space = easyport_space(&hier, StudyScale::Quick);
    let trace = easyport_trace(StudyScale::Quick, 42);
    let strategy = GeneticSearch {
        population: 10,
        generations: 3,
        seed: 2006,
    };
    let plan = FidelityPlan::halving();

    let mut runs = Vec::new();
    for threads in [1usize, 8] {
        let outcome = Explorer::new(&hier)
            .with_threads(threads)
            .with_fidelity(plan)
            .search(&strategy, &space, &trace, &Objective::FIG1);
        let stats = outcome
            .fidelity
            .clone()
            .expect("a fidelity plan was active");
        assert!(
            stats.rungs[0].screened > 0,
            "threads={threads}: the lowest rung never screened a candidate"
        );
        assert!(
            stats.full_simulations < stats.rungs[0].screened + outcome.cache_hits,
            "threads={threads}: screening saved no full-trace simulations"
        );
        let json = search_to_json(&outcome, &Objective::FIG1);
        assert!(
            json.contains("\"fidelity\""),
            "threads={threads}: fidelity block missing from the export"
        );
        runs.push((outcome.genomes, outcome.front.points, stats, json));
    }
    assert_eq!(
        runs[0], runs[1],
        "multi-fidelity run drifted between 1 and 8 workers"
    );
}

/// Fixed-seed byte digests of the two screening paths: a halving + k-NN
/// genetic search on easyport (`search_to_json`) and a robust,
/// multi-fidelity genetic search over a two-scenario suite
/// (`robust_to_json`). The worker-count test above only compares runs
/// with each other; these pin the absolute exported bytes — front,
/// accounting, fidelity block and per-scenario fronts — at 1 and 8
/// workers.
#[test]
fn multi_fidelity_and_robust_exports_reproduce_pinned_digests() {
    use dmx_core::export::{robust_to_json, search_to_json};
    use dmx_core::scenario::{Aggregate, MultiScenarioEvaluator, ScenarioSuite};
    use dmx_core::search::GeneticSearch;
    use dmx_core::study::{easyport_space, easyport_trace, StudyScale};
    use dmx_core::{Explorer, FidelityPlan, Objective};

    const FIDELITY_JSON_FNV: u64 = 0x111d_0bd9_2dc8_7c44;
    const ROBUST_JSON_FNV: u64 = 0xa10e_d250_3d62_fabd;

    let strategy = GeneticSearch {
        population: 10,
        generations: 3,
        seed: 2006,
    };
    let hier = dmx_memhier::presets::sp64k_dram4m();
    let space = easyport_space(&hier, StudyScale::Quick);
    let trace = easyport_trace(StudyScale::Quick, 42);
    let quick = ScenarioSuite::builtin("quick").expect("built-in suite");
    let pair = ScenarioSuite::new(
        "quick-pair",
        "the first two scenarios of the quick suite",
        quick.scenarios[..2].to_vec(),
    );

    for threads in [1usize, 8] {
        let outcome = Explorer::new(&hier)
            .with_threads(threads)
            .with_fidelity(FidelityPlan::halving())
            .search(&strategy, &space, &trace, &Objective::FIG1);
        let json = search_to_json(&outcome, &Objective::FIG1);
        assert!(json.contains("\"fidelity\""), "fidelity block missing");
        assert_eq!(
            fnv1a(json.as_bytes()),
            FIDELITY_JSON_FNV,
            "threads={threads}: multi-fidelity export drifted"
        );

        let robust = MultiScenarioEvaluator::new(&pair)
            .with_aggregate(Aggregate::WorstCase)
            .with_threads(threads)
            .with_fidelity(FidelityPlan::halving())
            .with_seed(2006)
            .run(&strategy);
        let json = robust_to_json(&robust);
        assert_eq!(robust.scenarios.len(), 2, "two-scenario suite");
        assert!(json.contains("\"fidelity\""), "fidelity block missing");
        assert_eq!(
            fnv1a(json.as_bytes()),
            ROBUST_JSON_FNV,
            "threads={threads}: robust multi-fidelity export drifted"
        );
    }
}

/// The `custom_allocator` example's composite as an [`AllocatorConfig`]:
/// a dedicated 64-byte pool on the L1 scratchpad, segregated classes and a
/// buddy pool on the L2 SRAM, and a best-fit coalescing general fallback
/// in main memory — three levels, four pool kinds.
fn custom_allocator_config(hier: &MemoryHierarchy) -> AllocatorConfig {
    let l1 = hier.fastest();
    let l2 = hier.id_by_name("L2-sram").expect("preset has an L2");
    let main = hier.slowest();
    AllocatorConfig {
        pools: vec![
            PoolSpec {
                route: Route::Exact(64),
                kind: PoolKind::Fixed {
                    block_size: 64,
                    chunk_blocks: 64,
                },
                level: l1,
            },
            PoolSpec {
                route: Route::Range { min: 1, max: 256 },
                kind: PoolKind::Segregated {
                    min_class: 16,
                    max_class: 256,
                    chunk_bytes: 4096,
                },
                level: l2,
            },
            PoolSpec {
                route: Route::Range {
                    min: 257,
                    max: 4096,
                },
                kind: PoolKind::Buddy {
                    min_order: 6,
                    max_order: 14,
                },
                level: l2,
            },
            PoolSpec {
                route: Route::Fallback,
                kind: PoolKind::General {
                    fit: FitPolicy::BestFit,
                    order: FreeOrder::AddressOrdered,
                    coalesce: CoalescePolicy::Immediate,
                    split: SplitPolicy::MinRemainder(16),
                    align: 8,
                    chunk_bytes: 16 * 1024,
                },
                level: main,
            },
        ],
    }
}

#[test]
fn custom_allocator_example_reproduces_pinned_metrics() {
    let hier = dmx_memhier::presets::sp32k_sram256k_dram8m();
    let sim = Simulator::new(&hier);
    let trace = SyntheticConfig::bimodal(20_000).generate(7);
    let config = custom_allocator_config(&hier);

    let reference = sim.run_reference(&config, &trace).unwrap();
    let run = sim.run(&config, &trace).unwrap();
    assert_eq!(run, reference, "Simulator::run vs run_reference");
    assert_eq!(run.failures, 0);
    assert_eq!(run.total_accesses(), 2_239_835);
    assert_eq!(run.footprint, 36_864);
    assert_eq!(run.energy_pj, 377_964_816);
    assert_eq!(run.cycles, 8_435_509);
}
