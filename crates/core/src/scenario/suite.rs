//! Built-in scenario suites and the suite registry.
//!
//! A suite is the unit of robust exploration: "which configuration holds
//! up across *these* deployments". Three suites ship built in:
//!
//! * **embedded-mix** — the full cross-domain mix: bursty networking,
//!   phase-structured decoding, Markov-modulated load, a mid-run
//!   distribution shift, a scratchpad-rich platform and a DRAM-only
//!   platform (six scenarios, four distinct platforms);
//! * **network** — the networking-centric subset, with the Easyport-like
//!   workload weighted double;
//! * **server-mix** — threaded server traffic at three pool-kind
//!   emphases (request-scoped churn, connection-scoped sessions, and
//!   flash-crowd spikes), exercising the contention-cost model and the
//!   tail-latency / contention-stall objectives;
//! * **quick** — four small scenarios for tests, smoke runs and benches.
//!
//! Suites also know how to derive a *shared* parameter space: the
//! profiles of all member traces are merged, and every level axis uses
//! hierarchy-relative [`LevelChoice`]s so one genome materializes validly
//! on every member platform.

use dmx_alloc::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
use dmx_memhier::{LevelChoice, LevelId};
use dmx_trace::gen::{
    EasyportConfig, MmppConfig, PhaseShiftConfig, ServerMixConfig, SizeDist, SyntheticConfig,
    VtcConfig,
};
use dmx_trace::TraceStats;

use crate::constraint::{Constraint, ConstraintSet};
use crate::param::{ParamSpace, PlacementStrategy};
use crate::scenario::{MaterializedScenario, PlatformSpec, Scenario, WorkloadSpec};

/// A named, ordered collection of scenarios.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSuite {
    /// Suite name (the `--suite` argument).
    pub name: String,
    /// One-line description for listings.
    pub description: String,
    /// The member scenarios (names unique within the suite).
    pub scenarios: Vec<Scenario>,
}

/// The names of the built-in suites, in listing order.
pub const BUILTIN_SUITES: &[&str] = &["embedded-mix", "network", "server-mix", "quick"];

impl ScenarioSuite {
    /// Builds a suite, checking that scenario names are unique.
    ///
    /// # Panics
    ///
    /// Panics if two scenarios share a name (names key the cache and the
    /// reports) or the suite is empty.
    pub fn new(
        name: impl Into<String>,
        description: impl Into<String>,
        scenarios: Vec<Scenario>,
    ) -> Self {
        assert!(!scenarios.is_empty(), "a suite needs at least one scenario");
        let mut names: Vec<&str> = scenarios.iter().map(|s| s.name.as_str()).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(
            names.len(),
            scenarios.len(),
            "scenario names must be unique within a suite"
        );
        ScenarioSuite {
            name: name.into(),
            description: description.into(),
            scenarios,
        }
    }

    /// Looks a built-in suite up by name ([`BUILTIN_SUITES`]).
    pub fn builtin(name: &str) -> Option<ScenarioSuite> {
        match name {
            "embedded-mix" => Some(embedded_mix()),
            "network" => Some(network()),
            "server-mix" => Some(server_mix()),
            "quick" => Some(quick()),
            _ => None,
        }
    }

    /// All built-in suites, in [`BUILTIN_SUITES`] order.
    pub fn builtins() -> Vec<ScenarioSuite> {
        BUILTIN_SUITES
            .iter()
            .map(|n| ScenarioSuite::builtin(n).expect("registered name"))
            .collect()
    }

    /// Materializes every scenario (platform built, trace generated).
    /// Deterministic in `run_seed`.
    pub fn materialize(&self, run_seed: u64) -> Vec<MaterializedScenario<'_>> {
        self.scenarios
            .iter()
            .map(|s| s.materialize(run_seed))
            .collect()
    }

    /// Derives the shared parameter space for robust exploration: the
    /// dominant block sizes of *all* member traces merged into prefix
    /// candidate sets (the paper's profile-then-explore flow, once per
    /// scenario), hierarchy-relative placements so one genome is valid on
    /// every member platform, and the full general-pool policy
    /// cross-product.
    pub fn suggest_space(&self, materialized: &[MaterializedScenario<'_>]) -> ParamSpace {
        // Merge dominant sizes across scenarios, keeping each scenario's
        // hottest sizes first (round-robin over the per-trace rankings so
        // no single workload monopolizes the candidate sets).
        let rankings: Vec<Vec<u32>> = materialized
            .iter()
            .map(|m| TraceStats::compute(&m.trace).dominant_sizes(3))
            .collect();
        let mut hot: Vec<u32> = Vec::new();
        for rank in 0..3 {
            for ranking in &rankings {
                if let Some(&size) = ranking.get(rank) {
                    if !hot.contains(&size) {
                        hot.push(size);
                    }
                }
            }
        }
        hot.truncate(4);

        let mut dedicated_size_sets: Vec<Vec<u32>> = vec![vec![]];
        for k in 1..=hot.len() {
            let mut set = hot[..k].to_vec();
            set.sort_unstable();
            if !dedicated_size_sets.contains(&set) {
                dedicated_size_sets.push(set);
            }
        }

        ParamSpace {
            dedicated_size_sets,
            placements: vec![
                PlacementStrategy::AllOn(LevelChoice::Slowest),
                PlacementStrategy::SmallOnFastest { max_size: 512 },
            ],
            fits: FitPolicy::ALL.to_vec(),
            orders: FreeOrder::ALL.to_vec(),
            coalesces: CoalescePolicy::COMMON.to_vec(),
            splits: SplitPolicy::COMMON.to_vec(),
            general_levels: vec![LevelChoice::Slowest],
            general_chunks: vec![8192],
        }
    }
}

/// The full cross-domain mix: six scenarios over four distinct platforms.
fn embedded_mix() -> ScenarioSuite {
    ScenarioSuite::new(
        "embedded-mix",
        "cross-domain robustness: networking, decoding, bursty load, \
         phase shift, scratchpad-rich and DRAM-only platforms",
        vec![
            easyport_bursty(),
            vtc_decode(),
            mmpp_bursty(),
            phase_shift(),
            scratchpad_rich(),
            dram_only(),
        ],
    )
}

/// The networking-centric subset; Easyport weighted double.
fn network() -> ScenarioSuite {
    let mut easyport = easyport_bursty();
    easyport.weight = 2.0;
    ScenarioSuite::new(
        "network",
        "packet-processing deployments: bursty traffic, modulated load, \
         and a mid-run mixture shift",
        vec![easyport, mmpp_bursty(), phase_shift()],
    )
}

/// Four small scenarios for tests, CI smoke runs and benches.
fn quick() -> ScenarioSuite {
    let mut easyport = easyport_bursty();
    easyport.workload = WorkloadSpec::Easyport(EasyportConfig {
        packets: 500,
        ..EasyportConfig::paper()
    });
    let mut shift = phase_shift();
    shift.workload = WorkloadSpec::PhaseShift(PhaseShiftConfig::churn_to_frag(300));
    ScenarioSuite::new(
        "quick",
        "reduced four-scenario mix for tests and smoke runs",
        vec![easyport, shift, scratchpad_rich(), dram_only()],
    )
}

/// Threaded server deployments, one scenario per dominant pool kind.
/// Every member trace is threaded, so replay charges contention stalls
/// and the [`tail_latency`](crate::Objective::TailLatency) /
/// [`contention_stalls`](crate::Objective::ContentionStalls) objectives
/// discriminate between configurations.
fn server_mix() -> ScenarioSuite {
    ScenarioSuite::new(
        "server-mix",
        "threaded server traffic: request-scoped churn, connection-scoped \
         sessions, and flash-crowd spikes over shared pools",
        vec![
            server_request_heavy(),
            server_session_heavy(),
            server_spiky(),
        ],
    )
}

/// Request-scoped pools dominate: many small parse nodes per request,
/// few connections, no churn.
fn server_request_heavy() -> Scenario {
    Scenario::new(
        "server-request-heavy",
        WorkloadSpec::ServerMix(ServerMixConfig {
            requests: 900,
            objects_per_request: 6,
            connections: 8,
            connection_churn_every: 0,
            ..ServerMixConfig::paper()
        }),
        17,
        PlatformSpec::Sp64kDram4m,
    )
}

/// Connection-scoped pools dominate: many sessions, aggressive churn,
/// lean requests.
fn server_session_heavy() -> Scenario {
    Scenario::new(
        "server-session-heavy",
        WorkloadSpec::ServerMix(ServerMixConfig {
            requests: 900,
            objects_per_request: 1,
            connections: 96,
            connection_churn_every: 2,
            ..ServerMixConfig::paper()
        }),
        18,
        PlatformSpec::Sp32kSram256kDram8m,
    )
}

/// Flash-crowd emphasis: flat diurnal baseline punctuated by frequent
/// large spikes of big response buffers.
fn server_spiky() -> Scenario {
    Scenario::new(
        "server-spiky",
        WorkloadSpec::ServerMix(ServerMixConfig {
            requests: 900,
            diurnal_amplitude: 0.0,
            spike_every: 5,
            spike_multiplier: 6.0,
            response_sizes: SizeDist::Choice(vec![(2_048, 0.5), (8_192, 0.5)]),
            ..ServerMixConfig::paper()
        }),
        19,
        PlatformSpec::DramOnly4m,
    )
}

fn easyport_bursty() -> Scenario {
    Scenario::new(
        "easyport-bursty",
        WorkloadSpec::Easyport(EasyportConfig {
            packets: 1_200,
            ..EasyportConfig::paper()
        }),
        11,
        PlatformSpec::Sp64kDram4m,
    )
}

fn vtc_decode() -> Scenario {
    Scenario::new(
        "vtc-decode",
        WorkloadSpec::Vtc(VtcConfig::small()),
        12,
        PlatformSpec::Sp64kDram4m,
    )
}

fn mmpp_bursty() -> Scenario {
    Scenario::new(
        "mmpp-bursty",
        WorkloadSpec::Mmpp(MmppConfig::bursty(900)),
        13,
        PlatformSpec::Sp64kDram4m,
    )
}

fn phase_shift() -> Scenario {
    Scenario::new(
        "phase-shift",
        WorkloadSpec::PhaseShift(PhaseShiftConfig::churn_to_frag(700)),
        14,
        PlatformSpec::Sp32kSram256kDram8m,
    )
}

/// Scratchpad-rich platform with a shared-scratchpad budget: only half of
/// the 256 KB scratchpad may be claimed (the other half belongs to a
/// co-resident task) — the built-in example of scenario constraints.
fn scratchpad_rich() -> Scenario {
    let mut s = Scenario::new(
        "scratchpad-rich",
        WorkloadSpec::Synthetic(SyntheticConfig::bimodal(700)),
        15,
        PlatformSpec::Sp256kDram4m,
    );
    s.constraints = ConstraintSet::new().and(Constraint::MaxLevelFootprint(LevelId(0), 128 * 1024));
    s
}

fn dram_only() -> Scenario {
    Scenario::new(
        "dram-only",
        WorkloadSpec::Synthetic(SyntheticConfig::uniform_churn(600)),
        16,
        PlatformSpec::DramOnly4m,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtin_registry_is_consistent() {
        for name in BUILTIN_SUITES {
            let suite = ScenarioSuite::builtin(name).expect("registered");
            assert_eq!(&suite.name, name);
            assert!(!suite.description.is_empty());
        }
        assert!(ScenarioSuite::builtin("nope").is_none());
        assert_eq!(ScenarioSuite::builtins().len(), BUILTIN_SUITES.len());
    }

    #[test]
    fn embedded_mix_spans_workloads_and_platforms() {
        let suite = ScenarioSuite::builtin("embedded-mix").unwrap();
        assert!(suite.scenarios.len() >= 6);
        let kinds: std::collections::HashSet<&str> =
            suite.scenarios.iter().map(|s| s.workload.kind()).collect();
        assert!(kinds.len() >= 4, "workload diversity: {kinds:?}");
        let platforms: std::collections::HashSet<&str> =
            suite.scenarios.iter().map(|s| s.platform.name()).collect();
        assert!(platforms.len() >= 4, "platform diversity: {platforms:?}");
        // Scenario names are distinct.
        let names: std::collections::HashSet<&str> =
            suite.scenarios.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names.len(), suite.scenarios.len());
    }

    #[test]
    fn shared_space_is_valid_on_every_member_platform() {
        let suite = ScenarioSuite::builtin("embedded-mix").unwrap();
        let mats = suite.materialize(42);
        let space = suite.suggest_space(&mats);
        assert!(space.len() > 50, "space of {} too small", space.len());
        // The first and last genome materialize on every platform without
        // panicking, and the general pool always lands on a real level.
        for m in &mats {
            for idx in [0, space.len() - 1] {
                let g = space.genome_at(idx);
                let config = space.config_at(&m.hierarchy, &g);
                for pool in &config.pools {
                    assert!(
                        m.hierarchy.contains(pool.level),
                        "{}: pool level {:?} outside platform",
                        m.scenario.name,
                        pool.level
                    );
                }
            }
        }
    }

    #[test]
    fn server_mix_members_are_all_threaded() {
        let suite = ScenarioSuite::builtin("server-mix").unwrap();
        assert_eq!(suite.scenarios.len(), 3);
        for m in suite.materialize(42) {
            assert!(
                m.compiled.is_threaded(),
                "{} must be threaded for contention to charge",
                m.scenario.name
            );
            assert_eq!(m.scenario.workload.kind(), "server-mix");
        }
    }

    #[test]
    fn suite_materialization_is_deterministic() {
        let suite = ScenarioSuite::builtin("quick").unwrap();
        let a = suite.materialize(7);
        let b = suite.materialize(7);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.trace.events(), y.trace.events());
        }
        let c = suite.materialize(8);
        assert!(a
            .iter()
            .zip(&c)
            .any(|(x, y)| x.trace.events() != y.trace.events()));
    }

    #[test]
    #[should_panic(expected = "unique")]
    fn duplicate_scenario_names_rejected() {
        let s = dram_only();
        let _ = ScenarioSuite::new("dup", "", vec![s.clone(), s]);
    }
}
