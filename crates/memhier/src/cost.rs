//! Derived cost metrics: energy and access time from raw access counters.

use crate::counters::CounterSet;
use crate::hierarchy::MemoryHierarchy;

/// CPU cycles one allocator entry (`malloc` or `free`) consumes before
/// any memory access is issued: call, dispatch, size classing in a
/// trimmed embedded allocator.
///
/// The paper reports *execution time* alongside memory metrics; time is
/// modeled as memory-access stall cycles plus this fixed per-operation CPU
/// cost for each allocator call.
pub const CPU_CYCLES_PER_OP: u64 = 12;

/// Maps per-level access counters to energy (picojoules) and time (cycles)
/// using the per-access figures of a [`MemoryHierarchy`].
#[derive(Debug, Clone, Copy)]
pub struct CostModel<'h> {
    hierarchy: &'h MemoryHierarchy,
}

impl<'h> CostModel<'h> {
    /// A cost model over `hierarchy`.
    pub fn new(hierarchy: &'h MemoryHierarchy) -> Self {
        CostModel { hierarchy }
    }

    /// Total access energy in picojoules.
    ///
    /// # Panics
    ///
    /// Panics if `counters` tracks a different number of levels than the
    /// hierarchy this model was built over.
    pub fn energy_pj(&self, counters: &CounterSet) -> u64 {
        self.check(counters);
        let mut pj = 0u64;
        for (id, c) in counters.iter() {
            let level = self.hierarchy.level(id);
            pj += c.reads * level.read_energy_pj() + c.writes * level.write_energy_pj();
        }
        pj
    }

    /// Total memory-access time in cycles (no CPU op cost).
    ///
    /// # Panics
    ///
    /// Panics if `counters` does not match the hierarchy (see
    /// [`CostModel::energy_pj`]).
    pub fn access_cycles(&self, counters: &CounterSet) -> u64 {
        self.check(counters);
        let mut cycles = 0u64;
        for (id, c) in counters.iter() {
            let level = self.hierarchy.level(id);
            cycles += c.reads * u64::from(level.read_latency())
                + c.writes * u64::from(level.write_latency());
        }
        cycles
    }

    /// Total execution time in cycles: access stalls plus the fixed CPU cost
    /// ([`CPU_CYCLES_PER_OP`]) of `ops` allocator operations.
    pub fn total_cycles(&self, counters: &CounterSet, ops: u64) -> u64 {
        self.access_cycles(counters) + ops * CPU_CYCLES_PER_OP
    }

    /// Static (leakage/refresh) energy over `cycles` of execution, summed
    /// over every level of the hierarchy, in picojoules.
    pub fn static_energy_pj(&self, cycles: u64) -> u64 {
        let per_kcycle: u64 = self
            .hierarchy
            .iter()
            .map(|(_, l)| l.leakage_pj_per_kcycle())
            .sum();
        per_kcycle * cycles / 1000
    }

    /// Total energy: dynamic access energy plus static energy over the
    /// run's `cycles`.
    pub fn total_energy_pj(&self, counters: &CounterSet, cycles: u64) -> u64 {
        self.energy_pj(counters) + self.static_energy_pj(cycles)
    }

    fn check(&self, counters: &CounterSet) {
        assert_eq!(
            counters.len(),
            self.hierarchy.len(),
            "counter set does not match hierarchy level count"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hierarchy::LevelId;
    use crate::level::{LevelKind, MemoryLevel};

    fn two_level() -> MemoryHierarchy {
        MemoryHierarchy::new(vec![
            MemoryLevel::builder("sp", LevelKind::Scratchpad)
                .capacity(64 << 10)
                .read_energy_pj(50)
                .write_energy_pj(60)
                .read_latency(1)
                .write_latency(1)
                .build(),
            MemoryLevel::builder("main", LevelKind::Dram)
                .capacity(4 << 20)
                .read_energy_pj(1000)
                .write_energy_pj(1200)
                .read_latency(20)
                .write_latency(25)
                .build(),
        ])
        .unwrap()
    }

    #[test]
    fn energy_weights_levels() {
        let h = two_level();
        let cost = CostModel::new(&h);
        let mut c = CounterSet::new(2);
        c.record_reads(LevelId(0), 10); // 10 * 50
        c.record_writes(LevelId(1), 2); // 2 * 1200
        assert_eq!(cost.energy_pj(&c), 500 + 2400);
    }

    #[test]
    fn cycles_weight_latencies() {
        let h = two_level();
        let cost = CostModel::new(&h);
        let mut c = CounterSet::new(2);
        c.record_reads(LevelId(1), 3); // 3 * 20
        c.record_writes(LevelId(0), 4); // 4 * 1
        assert_eq!(cost.access_cycles(&c), 64);
    }

    #[test]
    fn total_cycles_adds_cpu_cost() {
        let h = two_level();
        let cost = CostModel::new(&h);
        let c = CounterSet::new(2);
        assert_eq!(cost.total_cycles(&c, 5), 5 * CPU_CYCLES_PER_OP);
    }

    #[test]
    fn zero_counters_zero_cost() {
        let h = two_level();
        let cost = CostModel::new(&h);
        let c = CounterSet::new(2);
        assert_eq!(cost.energy_pj(&c), 0);
        assert_eq!(cost.access_cycles(&c), 0);
    }

    #[test]
    #[should_panic(expected = "does not match hierarchy")]
    fn mismatched_counters_panic() {
        let h = two_level();
        let cost = CostModel::new(&h);
        let c = CounterSet::new(3);
        let _ = cost.energy_pj(&c);
    }

    #[test]
    fn static_energy_scales_with_cycles() {
        let h = MemoryHierarchy::new(vec![
            MemoryLevel::builder("a", LevelKind::Sram)
                .capacity(1)
                .leakage_pj_per_kcycle(10)
                .build(),
            MemoryLevel::builder("b", LevelKind::Dram)
                .capacity(1)
                .leakage_pj_per_kcycle(30)
                .build(),
        ])
        .unwrap();
        let cost = CostModel::new(&h);
        assert_eq!(cost.static_energy_pj(1000), 40);
        assert_eq!(cost.static_energy_pj(500), 20);
        assert_eq!(cost.static_energy_pj(0), 0);
        let c = CounterSet::new(2);
        assert_eq!(cost.total_energy_pj(&c, 2000), 80);
    }

    #[test]
    fn zero_leakage_means_zero_static_energy() {
        let h = two_level();
        let cost = CostModel::new(&h);
        assert_eq!(cost.static_energy_pj(1_000_000), 0);
    }
}
