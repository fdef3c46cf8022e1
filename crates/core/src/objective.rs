//! Exploration objectives: which measured metric to minimize.

use std::fmt;

use dmx_alloc::SimMetrics;

/// A metric the Pareto selection minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Objective {
    /// Total memory accesses over all levels.
    Accesses,
    /// Peak memory footprint (bytes reserved from the platform).
    Footprint,
    /// Total access energy in picojoules.
    EnergyPj,
    /// Execution time in cycles.
    Cycles,
    /// The p99 of per-op charged cycles under the shared-pool contention
    /// model — the server-workload tail-latency proxy. 0 for
    /// single-threaded traces.
    TailLatency,
    /// Total shared-pool contention stall cycles. 0 for single-threaded
    /// traces.
    ContentionStalls,
}

impl Objective {
    /// The canonical objective pair of the paper's Figure 1.
    pub const FIG1: [Objective; 2] = [Objective::Footprint, Objective::Accesses];

    /// Extracts this objective's value from measured metrics.
    pub fn extract(self, metrics: &SimMetrics) -> u64 {
        match self {
            Objective::Accesses => metrics.total_accesses(),
            Objective::Footprint => metrics.footprint,
            Objective::EnergyPj => metrics.energy_pj,
            Objective::Cycles => metrics.cycles,
            Objective::TailLatency => metrics.tail_latency,
            Objective::ContentionStalls => metrics.contention_stalls,
        }
    }

    /// `true` if this objective can only grow while a trace is replayed,
    /// so a mid-replay [`dmx_alloc::ReplayState::snapshot`] is a lower
    /// bound on its final value. Footprint is a peak, accesses and
    /// contention stalls are running sums, and cycles and energy are
    /// increasing functions of those sums. The tail latency is a p99 of
    /// per-op charges and can fall as more ops are observed.
    pub fn monotone(self) -> bool {
        !matches!(self, Objective::TailLatency)
    }

    /// Column/axis name for exports.
    pub fn name(self) -> &'static str {
        match self {
            Objective::Accesses => "accesses",
            Objective::Footprint => "footprint_bytes",
            Objective::EnergyPj => "energy_pj",
            Objective::Cycles => "cycles",
            Objective::TailLatency => "tail_latency",
            Objective::ContentionStalls => "contention_stalls",
        }
    }
}

impl fmt::Display for Objective {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl std::str::FromStr for Objective {
    type Err = String;

    /// Parses an objective from its canonical [`Objective::name`] or the
    /// short CLI aliases (`footprint`, `energy`, `time`). Round-trips with
    /// [`fmt::Display`]: `o.to_string().parse() == Ok(o)`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim() {
            "accesses" => Ok(Objective::Accesses),
            "footprint" | "footprint_bytes" => Ok(Objective::Footprint),
            "energy" | "energy_pj" => Ok(Objective::EnergyPj),
            "cycles" | "time" => Ok(Objective::Cycles),
            "tail_latency" | "tail-latency" | "p99" => Ok(Objective::TailLatency),
            "contention_stalls" | "contention-stalls" | "contention" => {
                Ok(Objective::ContentionStalls)
            }
            other => Err(format!(
                "unknown objective `{other}` (expected footprint, accesses, energy, cycles, \
                 tail_latency, contention_stalls)"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmx_memhier::CounterSet;

    fn metrics() -> SimMetrics {
        let mut counters = CounterSet::new(1);
        counters.record_reads(dmx_memhier::LevelId(0), 10);
        counters.record_writes(dmx_memhier::LevelId(0), 5);
        SimMetrics {
            counters,
            meta_counters: CounterSet::new(1),
            footprint: 4096,
            footprint_per_level: vec![4096],
            energy_pj: 777,
            cycles: 999,
            allocs: 1,
            frees: 1,
            failures: 0,
            peak_internal_frag: 0,
            ops: 2,
            contention_stalls: 123,
            tail_latency: 52,
        }
    }

    #[test]
    fn extraction_matches_fields() {
        let m = metrics();
        assert_eq!(Objective::Accesses.extract(&m), 15);
        assert_eq!(Objective::Footprint.extract(&m), 4096);
        assert_eq!(Objective::EnergyPj.extract(&m), 777);
        assert_eq!(Objective::Cycles.extract(&m), 999);
        assert_eq!(Objective::TailLatency.extract(&m), 52);
        assert_eq!(Objective::ContentionStalls.extract(&m), 123);
    }

    #[test]
    fn only_the_tail_latency_can_fall_during_a_replay() {
        let all = [
            Objective::Accesses,
            Objective::Footprint,
            Objective::EnergyPj,
            Objective::Cycles,
            Objective::TailLatency,
            Objective::ContentionStalls,
        ];
        let falling: Vec<Objective> = all.into_iter().filter(|o| !o.monotone()).collect();
        assert_eq!(falling, [Objective::TailLatency]);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(Objective::Footprint.to_string(), "footprint_bytes");
        assert_eq!(Objective::FIG1[1].name(), "accesses");
    }

    #[test]
    fn display_from_str_round_trip() {
        for o in [
            Objective::Accesses,
            Objective::Footprint,
            Objective::EnergyPj,
            Objective::Cycles,
            Objective::TailLatency,
            Objective::ContentionStalls,
        ] {
            assert_eq!(o.to_string().parse::<Objective>(), Ok(o));
        }
    }

    #[test]
    fn from_str_accepts_aliases_and_whitespace() {
        assert_eq!("footprint".parse::<Objective>(), Ok(Objective::Footprint));
        assert_eq!(" energy ".parse::<Objective>(), Ok(Objective::EnergyPj));
        assert_eq!("time".parse::<Objective>(), Ok(Objective::Cycles));
        assert_eq!("p99".parse::<Objective>(), Ok(Objective::TailLatency));
        assert_eq!(
            "contention".parse::<Objective>(),
            Ok(Objective::ContentionStalls)
        );
        assert!("frobs".parse::<Objective>().is_err());
    }
}
