//! Composing a custom allocator from the pool building blocks — the
//! "library user" view of `dmx-alloc`, analogous to writing a custom
//! mixin stack in the paper's C++ library. Each [`PoolSpec`] names a
//! route, a pool kind with its parameters, and a memory level; the
//! [`AllocatorConfig`] is the one description every exploration builds
//! allocators from.
//!
//! ```sh
//! cargo run --release --example custom_allocator
//! ```

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, PoolKind, PoolSpec, Route, Simulator,
    SplitPolicy,
};
use dmx_memhier::presets;
use dmx_trace::gen::{SyntheticConfig, TraceGenerator};

fn main() {
    let hier = presets::sp32k_sram256k_dram8m();
    let l1 = hier.fastest();
    let l2 = hier.id_by_name("L2-sram").expect("preset has an L2");
    let main = hier.slowest();

    // A four-pool custom allocator:
    //   - 64-byte hot objects in a dedicated pool on the L1 scratchpad,
    //   - small objects (<= 256 B) in segregated classes on L2,
    //   - mid-size objects in a buddy pool on L2,
    //   - everything else in a coalescing general pool in main memory.
    let config = AllocatorConfig {
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
    };
    config.validate(&hier).expect("composition is valid");
    println!("composed allocator with {} pools", config.pools.len());
    println!("  {config}");

    // Drive it with a churny synthetic workload.
    let trace = SyntheticConfig::bimodal(20_000).generate(7);
    let metrics = Simulator::new(&hier)
        .run(&config, &trace)
        .expect("composition is valid");

    println!("workload `{}`:", trace.name());
    println!("  accesses : {}", metrics.total_accesses());
    println!("  footprint: {} B", metrics.footprint);
    for (i, fp) in metrics.footprint_per_level.iter().enumerate() {
        println!(
            "    {:<16} {fp:>8} B",
            hier.level(dmx_memhier::LevelId(i as u16)).name()
        );
    }
    println!("  energy   : {:.3} uJ", metrics.energy_pj as f64 / 1e6);
    println!("  time     : {} cycles", metrics.cycles);
    assert_eq!(metrics.failures, 0);
}
