//! Free-list goldens: pins [`SimMetrics`] of every general-pool-only
//! configuration — 4 fits × 4 free orders × 3 coalescing policies, split
//! at 16 bytes, 8-byte alignment, 8 KiB chunks — on a short Easyport
//! trace.
//!
//! The rows were captured with the plain linear-scan free list, before
//! `FreeList` gained its worst-fit size index and its size-ordered
//! binary searches. Those are host-side speedups only: every fit search
//! must still pick the same block and charge the same probes, so each
//! row must stay byte-identical. `run_reference` builds the same pools as
//! the replay kernel, so it is no oracle for the free list — only pinned
//! numbers are.
//!
//! On this trace the worst-fit lists without coalescing grow to 6,408
//! entries and get the size index, while those with coalescing stay
//! near 100–200 entries and are walked, so both worst-fit paths are
//! pinned.

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, SimArena, SimMetrics, Simulator,
    SplitPolicy,
};
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::CompiledTrace;

/// One row per configuration, in `FitPolicy::ALL × FreeOrder::ALL ×
/// CoalescePolicy::COMMON` order. Columns: label, allocs, frees,
/// failures, ops, footprint, energy (pJ), cycles, peak internal
/// fragmentation, then reads and writes of all accesses and of metadata
/// accesses on the main level. Every count on the scratchpad level is 0.
const GOLDEN_ROWS: &str = "\
gen(ff,lifo,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 745472 698033231 17060448 2918 343094 117167 167476 35111
gen(ff,lifo,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 90112 555805659 15340756 3514 211830 149320 36212 67264
gen(ff,lifo,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 122880 665353147 16666424 2926 308826 128307 133208 46251
gen(ff,fifo,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 147456 2902157018 43858420 2856 1833608 115603 1657990 33547
gen(ff,fifo,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 90112 687754402 16944724 3978 302086 148288 126468 66232
gen(ff,fifo,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 791328938 18199956 2772 387000 134627 211382 52571
gen(ff,addr,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 122880 1782608461 30246230 2782 1078733 114381 903115 32325
gen(ff,addr,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 73728 679965797 16843754 2726 319931 127179 144313 45123
gen(ff,addr,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 807416174 18391322 2762 413437 120402 237819 38346
gen(ff,size,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 98304 2061269991 33634302 2634 1266897 114437 1091279 32381
gen(ff,size,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 763964763 17866272 4070 372132 131324 196514 49268
gen(ff,size,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 1033781725 21143274 2698 567341 119486 391723 37430
gen(nf,lifo,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 458752 2243651702 35853940 2546 1382048 121783 1206430 39727
gen(nf,lifo,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 114688 585439754 15702856 3578 225220 155374 49602 73318
gen(nf,lifo,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 106496 638033778 16338416 2548 275090 142269 99472 60213
gen(nf,fifo,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 696320 1354438867 25043376 2506 778590 124367 602972 42311
gen(nf,fifo,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 122880 563789713 15439748 3478 210154 155778 34536 73722
gen(nf,fifo,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 114688 637615929 16333448 2582 274394 142647 98776 60591
gen(nf,addr,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 360448 25369030637 317019120 2594 17004278 120035 16828660 37979
gen(nf,addr,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 106496 1201090337 23184536 2534 654310 143277 478692 61221
gen(nf,addr,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 106496 1667519084 28854780 2534 972108 140771 796490 58715
gen(nf,size,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 1261568 92797479359 1136839226 2466 62536315 132207 62360697 50151
gen(nf,size,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 147456 3051311037 45686060 3434 1882138 163308 1706520 81252
gen(nf,size,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 163840 3431955249 50311118 2506 2150059 153432 1974441 71376
gen(bf,lifo,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 98304 713569279 17248426 2634 356955 114091 181337 32035
gen(bf,lifo,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 649411458 16473024 4026 296496 129734 120878 47678
gen(bf,lifo,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 684696788 16898798 2682 332249 118845 156631 36789
gen(bf,fifo,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 98304 1962832591 32437366 2634 1200785 114091 1025167 32035
gen(bf,fifo,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 791278666 18197928 4062 392184 129860 216566 47804
gen(bf,fifo,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 1013448991 20895814 2738 554521 118651 378903 36595
gen(bf,addr,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 98304 1540546860 27303082 2634 915547 114091 739929 32035
gen(bf,addr,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 73728 841623487 18807966 2894 433815 122894 258197 40838
gen(bf,addr,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 997700694 20704406 2706 543645 118869 368027 36813
gen(bf,size,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 98304 2061269991 33634302 2634 1266897 114437 1091279 32381
gen(bf,size,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 763964763 17866272 4070 372132 131324 196514 49268
gen(bf,size,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 81920 1033781725 21143274 2698 567341 119486 391723 37430
gen(wf,lifo,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 1441792 55976954586 689161800 2466 37672058 126167 37496440 44111
gen(wf,lifo,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 147456 1972448263 32567060 3454 1160198 157104 984580 75048
gen(wf,lifo,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 172032 2953912388 44497244 2466 1833336 147789 1657718 65733
gen(wf,fifo,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 1441792 55976954586 689161800 2466 37672058 126167 37496440 44111
gen(wf,fifo,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 147456 1954106065 32344064 3434 1147756 157152 972138 75096
gen(wf,fifo,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 172032 2922076343 44110124 2486 1812006 147630 1636388 65574
gen(wf,addr,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 1441792 113428040208 1387670340 2466 76478088 126167 76302470 44111
gen(wf,addr,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 147456 2958905521 44556996 2466 1840230 144572 1664612 62516
gen(wf,addr,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 180224 4365691275 61662116 2466 2786880 147843 2611262 65787
gen(wf,size,co-no,sp-16,a8,c8192)@L1 6259 6259 0 12518 1441792 91724351046 1123791796 2466 61811440 132223 61635822 50167
gen(wf,size,co-im,sp-16,a8,c8192)@L1 6259 6259 0 12518 139264 2565102459 39774596 3434 1553670 163356 1378052 81300
gen(wf,size,co-d64,sp-16,a8,c8192)@L1 6259 6259 0 12518 180224 3400800564 49932484 2470 2128446 153952 1952828 71896
";

/// The golden row of one simulation (see [`GOLDEN_ROWS`] for columns).
fn row(label: &str, m: &SimMetrics) -> String {
    let per_level = |c: &dmx_memhier::CounterSet| -> Vec<(u64, u64)> {
        c.iter().map(|(_, c)| (c.reads, c.writes)).collect()
    };
    let all = per_level(&m.counters);
    let meta = per_level(&m.meta_counters);
    assert_eq!(all[0], (0, 0), "{label}: scratchpad accesses");
    assert_eq!(meta[0], (0, 0), "{label}: scratchpad meta accesses");
    assert_eq!(
        m.footprint_per_level,
        [0, m.footprint],
        "{label}: footprint"
    );
    assert_eq!((m.contention_stalls, m.tail_latency), (0, 0), "{label}");
    format!(
        "{label} {} {} {} {} {} {} {} {} {} {} {} {}",
        m.allocs,
        m.frees,
        m.failures,
        m.ops,
        m.footprint,
        m.energy_pj,
        m.cycles,
        m.peak_internal_frag,
        all[1].0,
        all[1].1,
        meta[1].0,
        meta[1].1,
    )
}

#[test]
fn general_pool_configs_reproduce_linear_scan_metrics() {
    let hier = dmx_memhier::presets::sp64k_dram4m();
    let sim = Simulator::new(&hier);
    let trace = CompiledTrace::compile(&EasyportConfig::small().generate(11));
    let mut arena = SimArena::new();
    let mut rows = Vec::new();
    for fit in FitPolicy::ALL {
        for order in FreeOrder::ALL {
            for coalesce in CoalescePolicy::COMMON {
                let config = AllocatorConfig::general_only(
                    hier.slowest(),
                    fit,
                    order,
                    coalesce,
                    SplitPolicy::MinRemainder(16),
                );
                let m = sim.run_in_arena(&config, &trace, &mut arena).unwrap();
                rows.push(row(&config.label(), &m));
            }
        }
    }
    let expected: Vec<&str> = GOLDEN_ROWS.lines().collect();
    assert_eq!(rows.len(), 48, "4 fits × 4 orders × 3 coalescing policies");
    assert_eq!(expected.len(), rows.len(), "one golden row per config");
    for (actual, expected) in rows.iter().zip(expected) {
        assert_eq!(actual, expected);
    }
}
