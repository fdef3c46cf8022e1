//! Deterministic workload generators.
//!
//! The paper evaluates on two proprietary applications: the Infineon
//! **Easyport** wireless-network application and the **MPEG-4 Visual
//! Texture deCoder (VTC)**. Their traces are not public, so this module
//! synthesizes workloads that reproduce the *distributional properties*
//! that drive allocator behaviour (see `DESIGN.md` §2 for the substitution
//! argument):
//!
//! * [`EasyportConfig`] — bursty packet processing with a few dominant
//!   block sizes (the paper names 74-byte and 1500-byte blocks), short
//!   pipeline lifetimes and a long-lived control plane;
//! * [`VtcConfig`] — phase-structured still-texture decoding: many small
//!   zerotree nodes, large per-level coefficient buffers, compute-heavy
//!   phases;
//! * [`SyntheticConfig`] — fully configurable size/lifetime mixtures for
//!   stress tests and ablations;
//! * [`MmppConfig`] — Markov-modulated burstiness sweeps;
//! * [`PhaseShiftConfig`] — synthetic phases concatenated so the
//!   allocation mixture shifts mid-run (the robustness stressor behind
//!   the scenario suites);
//! * [`ServerMixConfig`] — threaded server traffic: request/connection
//!   scoped pools, diurnal + flash-crowd load, and responses freed by a
//!   different thread than allocated them (the contention stressor).
//!
//! All generators are deterministic in their seed.

mod dist;
mod easyport;
mod mmpp;
mod phase;
mod server;
mod synthetic;
mod vtc;

pub use dist::{LifetimeDist, SizeDist};
pub use easyport::EasyportConfig;
pub use mmpp::MmppConfig;
pub use phase::PhaseShiftConfig;
pub use server::ServerMixConfig;
pub use synthetic::{ramp, SyntheticConfig};
pub use vtc::VtcConfig;

use crate::trace::Trace;

/// A reproducible workload generator.
pub trait TraceGenerator {
    /// Generates the workload trace; the same seed yields the same trace.
    fn generate(&self, seed: u64) -> Trace;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    /// Generators must be deterministic in their seed — exploration results
    /// are only comparable if every configuration replays the same trace.
    #[test]
    fn generators_are_seed_deterministic() {
        let e1 = EasyportConfig::small().generate(7);
        let e2 = EasyportConfig::small().generate(7);
        assert_eq!(e1.events(), e2.events());

        let v1 = VtcConfig::small().generate(7);
        let v2 = VtcConfig::small().generate(7);
        assert_eq!(v1.events(), v2.events());
    }

    #[test]
    fn different_seeds_differ() {
        let a = EasyportConfig::small().generate(1);
        let b = EasyportConfig::small().generate(2);
        assert_ne!(a.events(), b.events());
    }

    #[test]
    fn generated_traces_are_well_formed() {
        // Trace::push validates as events are appended; reaching here with
        // non-trivial content proves well-formedness.
        let t = EasyportConfig::small().generate(3);
        assert!(t.len() > 100);
        let s = TraceStats::compute(&t);
        assert!(s.allocs > 0);
        assert_eq!(
            s.allocs, s.frees,
            "generators free everything they allocate"
        );
    }
}
