//! Property tests for the multi-fidelity screening layer's trace side:
//! a prefix view of a compiled trace must be indistinguishable — both
//! structurally and under replay — from compiling the truncated source
//! trace, so the screening rungs measure exactly what a shorter workload
//! would have measured.

use proptest::prelude::*;

use dmx_alloc::{
    AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, SimArena, Simulator, SplitPolicy,
};
use dmx_trace::gen::{EasyportConfig, SyntheticConfig, TraceGenerator, VtcConfig};
use dmx_trace::{CompiledTrace, Trace};

/// One workload per generator family, varied by seed.
fn workload(which: usize, seed: u64) -> Trace {
    match which % 3 {
        0 => EasyportConfig::small().generate(seed),
        1 => VtcConfig::small().generate(seed),
        _ => SyntheticConfig::uniform_churn(200).generate(seed),
    }
}

proptest! {
    // Each case compiles + replays a full fixture trace; 8 cases keep
    // the suite inside the tier-1 wall-clock budget while covering all
    // three generator families and the fraction range.
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// `prefix(1.0)` is the identity: byte-identical to the compiled
    /// trace it came from, for any workload.
    #[test]
    fn prefix_of_full_fraction_is_the_identity(which in 0usize..3, seed in 0u64..1000) {
        let trace = workload(which, seed);
        let compiled = CompiledTrace::compile(&trace);
        prop_assert_eq!(compiled.prefix(1.0).unwrap(), compiled);
    }

    /// A prefix view equals a fresh compile of the truncated source
    /// trace — same slots, same hoisted access totals, same thread ranks —
    /// for any fraction. This is what lets the screening rungs reuse the
    /// replay kernel unchanged.
    #[test]
    fn prefix_equals_compile_of_truncated_generation(
        which in 0usize..3,
        seed in 0u64..1000,
        pct in 5u32..=100,
    ) {
        let fraction = f64::from(pct) / 100.0;
        let trace = workload(which, seed);
        let compiled = CompiledTrace::compile(&trace);
        let cut = ((trace.len() as f64 * fraction).ceil() as usize).min(trace.len());
        let truncated = Trace::from_events(trace.name(), trace.events()[..cut].to_vec())
            .expect("a prefix of a valid trace is a valid trace");
        prop_assert_eq!(
            compiled.prefix(fraction).unwrap(),
            CompiledTrace::compile(&truncated),
            "fraction {} of `{}`",
            fraction,
            trace.name()
        );
    }

    /// Replaying a prefix produces exactly the metrics of the truncated
    /// workload: every counter a screening rung ranks on (footprint,
    /// accesses, energy, cycles, fragmentation) agrees with a ground-up
    /// simulation of the shorter trace.
    #[test]
    fn prefix_replay_metrics_match_the_truncated_workload(
        which in 0usize..3,
        seed in 0u64..1000,
        pct in 5u32..100,
    ) {
        let fraction = f64::from(pct) / 100.0;
        let hier = dmx_memhier::presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = workload(which, seed);
        let compiled = CompiledTrace::compile(&trace);
        let cut = ((trace.len() as f64 * fraction).ceil() as usize).min(trace.len());
        let truncated = Trace::from_events(trace.name(), trace.events()[..cut].to_vec())
            .expect("a prefix of a valid trace is a valid trace");
        for config in [
            AllocatorConfig::paper_example(&hier),
            AllocatorConfig::general_only(
                hier.slowest(),
                FitPolicy::FirstFit,
                FreeOrder::Lifo,
                CoalescePolicy::Never,
                SplitPolicy::Never,
            ),
        ] {
            let via_prefix = sim
                .run_in_arena(&config, &compiled.prefix(fraction).unwrap(), &mut SimArena::new())
                .unwrap();
            let via_truncated = sim.run(&config, &truncated).unwrap();
            prop_assert_eq!(
                via_prefix,
                via_truncated,
                "fraction {} of `{}`: prefix replay drifted from the truncated workload",
                fraction,
                trace.name()
            );
        }
    }
}
