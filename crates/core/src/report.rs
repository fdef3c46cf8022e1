//! Paper-style study summaries.
//!
//! Section 3 of the paper reports, per case study: the metric ranges over
//! *all* configurations, the number of Pareto-optimal configurations, and
//! the improvement factors *within* the Pareto-optimal set. This module
//! computes exactly those numbers from an [`Exploration`].

use std::fmt::Write as _;

use crate::objective::Objective;
use crate::pareto::{knee_point, range_factor};
use crate::runner::Exploration;

/// The Section-3 numbers for one case study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudySummary {
    /// Workload name.
    pub workload: String,
    /// Configurations explored.
    pub total_configs: usize,
    /// Configurations that served every allocation.
    pub feasible_configs: usize,
    /// Footprint max/min over all feasible configurations
    /// (paper, Easyport: "a factor 11").
    pub footprint_range_factor: f64,
    /// Accesses max/min over all feasible configurations
    /// (paper, Easyport: "a factor 54").
    pub access_range_factor: f64,
    /// Number of Pareto-optimal configurations on (footprint, accesses)
    /// (paper, Easyport: 15).
    pub pareto_count: usize,
    /// Footprint max/min within the Pareto set (paper: "up to a factor
    /// of 2.9").
    pub pareto_footprint_factor: f64,
    /// Accesses max/min within the Pareto set (paper: "up to a factor
    /// of 4.1").
    pub pareto_access_factor: f64,
    /// Energy saving (max−min)/max within the Pareto set, percent
    /// (paper, Easyport: 71.74 %; VTC: 82.4 %).
    pub energy_saving_pct: f64,
    /// Execution-time saving within the Pareto set, percent
    /// (paper, Easyport: 27.92 %; VTC: 5.4 %).
    pub exec_time_saving_pct: f64,
    /// The Pareto curve: `(label, footprint, accesses, energy_pj, cycles)`
    /// sorted by footprint — the series behind the paper's Figure 1.
    pub pareto_curve: Vec<(String, u64, u64, u64, u64)>,
    /// Label of the knee-point configuration, if the front has one.
    pub knee: Option<String>,
}

impl StudySummary {
    /// Computes the summary of an exploration.
    pub fn compute(exploration: &Exploration) -> StudySummary {
        let feasible = exploration.feasible();

        let front = exploration.pareto(&Objective::FIG1);
        let pareto_curve: Vec<(String, u64, u64, u64, u64)> = front
            .indices
            .iter()
            .map(|&i| {
                let r = &exploration.results[i];
                (
                    r.label.clone(),
                    r.metrics.footprint,
                    r.metrics.total_accesses(),
                    r.metrics.energy_pj,
                    r.metrics.cycles,
                )
            })
            .collect();

        let energy: Vec<u64> = pareto_curve.iter().map(|p| p.3).collect();
        let cycles: Vec<u64> = pareto_curve.iter().map(|p| p.4).collect();
        let knee = knee_point(&front).map(|i| exploration.results[i].label.clone());

        StudySummary {
            workload: exploration.workload.clone(),
            total_configs: exploration.results.len(),
            feasible_configs: feasible.len(),
            footprint_range_factor: range_factor(feasible.iter().map(|r| r.metrics.footprint))
                .unwrap_or(0.0),
            access_range_factor: range_factor(feasible.iter().map(|r| r.metrics.total_accesses()))
                .unwrap_or(0.0),
            pareto_count: front.len(),
            pareto_footprint_factor: front.range_factor(0).unwrap_or(0.0),
            pareto_access_factor: front.range_factor(1).unwrap_or(0.0),
            energy_saving_pct: saving_pct(&energy),
            exec_time_saving_pct: saving_pct(&cycles),
            pareto_curve,
            knee,
        }
    }

    /// Renders the summary as the text report the tool prints (the
    /// headless stand-in for the paper's GUI).
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "=== dmx exploration summary: {} ===", self.workload);
        let _ = writeln!(
            s,
            "configurations: {} explored, {} feasible",
            self.total_configs, self.feasible_configs
        );
        let _ = writeln!(
            s,
            "explored-space ranges: footprint x{:.1}, accesses x{:.1}",
            self.footprint_range_factor, self.access_range_factor
        );
        let _ = writeln!(s, "Pareto-optimal configurations: {}", self.pareto_count);
        let _ = writeln!(
            s,
            "within Pareto set: footprint /{:.1}, accesses /{:.1}, energy -{:.2}%, exec time -{:.2}%",
            self.pareto_footprint_factor,
            self.pareto_access_factor,
            self.energy_saving_pct,
            self.exec_time_saving_pct
        );
        if let Some(knee) = &self.knee {
            let _ = writeln!(s, "knee point: {knee}");
        }
        let _ = writeln!(
            s,
            "-- Pareto curve (footprint bytes, accesses, energy pJ, cycles) --"
        );
        for (label, fp, acc, en, cy) in &self.pareto_curve {
            let _ = writeln!(s, "{fp:>12} {acc:>14} {en:>16} {cy:>14}  {label}");
        }
        s
    }
}

fn saving_pct(values: &[u64]) -> f64 {
    match (values.iter().min(), values.iter().max()) {
        (Some(&min), Some(&max)) if max > 0 => (max - min) as f64 / max as f64 * 100.0,
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{ParamSpace, PlacementStrategy};
    use crate::runner::Explorer;
    use dmx_alloc::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
    use dmx_memhier::presets;
    use dmx_trace::gen::{EasyportConfig, TraceGenerator};

    fn exploration() -> Exploration {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig {
            packets: 250,
            ..EasyportConfig::paper()
        }
        .generate(5);
        let space = ParamSpace {
            dedicated_size_sets: vec![vec![], vec![28, 74]],
            placements: vec![
                PlacementStrategy::AllOn(hier.slowest().into()),
                PlacementStrategy::SmallOnFastest { max_size: 512 },
            ],
            fits: vec![FitPolicy::FirstFit, FitPolicy::BestFit],
            orders: vec![FreeOrder::Lifo, FreeOrder::Fifo],
            coalesces: vec![CoalescePolicy::Never, CoalescePolicy::Immediate],
            splits: vec![SplitPolicy::MinRemainder(16)],
            general_levels: vec![hier.slowest().into()],
            general_chunks: vec![8192],
        };
        Explorer::new(&hier).run(&space, &trace)
    }

    #[test]
    fn summary_fields_are_consistent() {
        let exp = exploration();
        let s = StudySummary::compute(&exp);
        // Sets: empty (collapsed placement) + [28,74] × 2 placements = 3;
        // general pool: 2 fits × 2 orders × 2 coalesces = 8.
        assert_eq!(s.total_configs, 24);
        assert!(s.feasible_configs > 0);
        assert!(s.pareto_count >= 1);
        assert!(s.pareto_count <= s.feasible_configs);
        assert!(s.footprint_range_factor >= 1.0);
        assert!(s.access_range_factor >= 1.0);
        assert!(s.pareto_footprint_factor >= 1.0);
        assert!(s.pareto_access_factor >= 1.0);
        assert!((0.0..100.0).contains(&s.energy_saving_pct));
        assert!((0.0..100.0).contains(&s.exec_time_saving_pct));
        assert_eq!(s.pareto_curve.len(), s.pareto_count);
    }

    #[test]
    fn pareto_curve_is_sorted_by_footprint() {
        let exp = exploration();
        let s = StudySummary::compute(&exp);
        let fps: Vec<u64> = s.pareto_curve.iter().map(|p| p.1).collect();
        let mut sorted = fps.clone();
        sorted.sort_unstable();
        assert_eq!(fps, sorted);
    }

    #[test]
    fn render_contains_the_key_numbers() {
        let exp = exploration();
        let s = StudySummary::compute(&exp);
        let text = s.render();
        assert!(text.contains("easyport"));
        assert!(text.contains("Pareto-optimal configurations:"));
        assert!(text.contains("within Pareto set"));
        assert!(text.lines().count() >= 6 + s.pareto_count);
    }

    #[test]
    fn dedicated_pools_reach_the_pareto_front() {
        // The paper's premise: customized allocators (with dedicated
        // pools) dominate parts of the trade-off space. At least one
        // Pareto point must use a dedicated pool.
        let exp = exploration();
        let s = StudySummary::compute(&exp);
        assert!(
            s.pareto_curve
                .iter()
                .any(|(label, ..)| label.contains("fix")),
            "front: {:?}",
            s.pareto_curve.iter().map(|p| &p.0).collect::<Vec<_>>()
        );
    }
}
