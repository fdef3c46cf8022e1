//! The paper's two case studies, packaged end to end.
//!
//! Each study builds its workload trace (deterministic in the seed),
//! derives the parameter space, runs the exploration and computes the
//! Section-3 summary. Examples, integration tests and the benchmark
//! harness all call into here so that every artifact reports on the same
//! pipeline.

use dmx_alloc::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
use dmx_memhier::{presets, MemoryHierarchy};
use dmx_trace::gen::{EasyportConfig, TraceGenerator, VtcConfig};
use dmx_trace::Trace;

use crate::param::{ParamSpace, PlacementStrategy};
use crate::report::StudySummary;
use crate::runner::{Exploration, Explorer};

/// How large a study to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StudyScale {
    /// Reduced trace and space — seconds, for tests and doc examples.
    Quick,
    /// The full case-study scale used by the benchmark harness.
    Paper,
}

/// Everything a case study produces.
#[derive(Debug, Clone)]
pub struct Study {
    /// The workload trace that was replayed.
    pub trace: Trace,
    /// The platform modeled.
    pub hierarchy: MemoryHierarchy,
    /// Every configuration with its metrics.
    pub exploration: Exploration,
    /// The Section-3 numbers.
    pub summary: StudySummary,
}

/// The Easyport parameter space: dedicated-pool candidates around the
/// paper's named sizes (74-byte headers, 1500-byte frames, plus the
/// 28-byte descriptors the profile surfaces), both placement strategies,
/// and the full general-pool policy cross-product.
pub fn easyport_space(hierarchy: &MemoryHierarchy, scale: StudyScale) -> ParamSpace {
    let main = hierarchy.slowest();
    let full = ParamSpace {
        dedicated_size_sets: vec![
            vec![],
            vec![74],
            vec![28, 74],
            vec![28, 74, 1500],
            vec![28, 40, 74, 1500],
        ],
        placements: vec![
            PlacementStrategy::AllOn(main.into()),
            PlacementStrategy::SmallOnFastest { max_size: 512 },
        ],
        fits: FitPolicy::ALL.to_vec(),
        orders: FreeOrder::ALL.to_vec(),
        coalesces: CoalescePolicy::COMMON.to_vec(),
        splits: SplitPolicy::COMMON.to_vec(),
        general_levels: vec![main.into()],
        general_chunks: vec![2048, 8192],
    };
    match scale {
        StudyScale::Paper => full,
        StudyScale::Quick => ParamSpace {
            dedicated_size_sets: vec![vec![], vec![28, 74], vec![28, 74, 1500]],
            general_chunks: vec![8192],
            fits: vec![FitPolicy::FirstFit, FitPolicy::BestFit],
            orders: vec![FreeOrder::Lifo, FreeOrder::AddressOrdered],
            coalesces: vec![CoalescePolicy::Never, CoalescePolicy::Immediate],
            ..full
        },
    }
}

/// The 6912-configuration convergence space: the paper-scale Easyport
/// space widened along the general-pool axes (two placement levels × four
/// growth chunks) — the paper's "tens of thousands" regime, scaled to
/// keep an exhaustive reference affordable. One definition shared by the
/// `search_convergence` and `eval_scaling` benches and the
/// differential-test oracle (`tests/diff_search.rs`), so the space those
/// three compare against can never silently drift apart.
pub fn convergence_space(hierarchy: &MemoryHierarchy) -> ParamSpace {
    let base = easyport_space(hierarchy, StudyScale::Paper);
    let space = ParamSpace {
        general_levels: vec![hierarchy.fastest().into(), hierarchy.slowest().into()],
        general_chunks: vec![1024, 2048, 4096, 8192],
        ..base
    };
    assert_eq!(space.len(), 6912, "the convergence space must stay pinned");
    space
}

/// The VTC parameter space: dedicated-pool candidates around the zerotree
/// node size (32 bytes) and the small parser blocks; otherwise analogous
/// to [`easyport_space`].
pub fn vtc_space(hierarchy: &MemoryHierarchy, scale: StudyScale) -> ParamSpace {
    let main = hierarchy.slowest();
    let full = ParamSpace {
        dedicated_size_sets: vec![vec![], vec![32], vec![24, 32, 40], vec![24, 32, 40, 64, 96]],
        placements: vec![
            PlacementStrategy::AllOn(main.into()),
            PlacementStrategy::SmallOnFastest { max_size: 128 },
        ],
        fits: FitPolicy::ALL.to_vec(),
        orders: FreeOrder::ALL.to_vec(),
        coalesces: CoalescePolicy::COMMON.to_vec(),
        splits: SplitPolicy::COMMON.to_vec(),
        general_levels: vec![main.into()],
        general_chunks: vec![16384],
    };
    match scale {
        StudyScale::Paper => full,
        StudyScale::Quick => ParamSpace {
            dedicated_size_sets: vec![vec![], vec![32]],
            fits: vec![FitPolicy::FirstFit, FitPolicy::BestFit],
            orders: vec![FreeOrder::Lifo, FreeOrder::AddressOrdered],
            coalesces: vec![CoalescePolicy::Never, CoalescePolicy::Immediate],
            ..full
        },
    }
}

/// The Easyport trace at a given scale.
pub fn easyport_trace(scale: StudyScale, seed: u64) -> Trace {
    let cfg = match scale {
        StudyScale::Quick => EasyportConfig {
            packets: 1_500,
            ..EasyportConfig::paper()
        },
        StudyScale::Paper => EasyportConfig::paper(),
    };
    cfg.generate(seed)
}

/// The VTC trace at a given scale.
pub fn vtc_trace(scale: StudyScale, seed: u64) -> Trace {
    let cfg = match scale {
        StudyScale::Quick => VtcConfig {
            images: 1,
            ..VtcConfig::paper()
        },
        StudyScale::Paper => VtcConfig::paper(),
    };
    cfg.generate(seed)
}

/// Runs the Easyport (wireless network) case study.
pub fn easyport_study(scale: StudyScale, seed: u64) -> Study {
    let hierarchy = presets::sp64k_dram4m();
    let trace = easyport_trace(scale, seed);
    let space = easyport_space(&hierarchy, scale);
    let exploration = Explorer::new(&hierarchy).run(&space, &trace);
    let summary = StudySummary::compute(&exploration);
    Study {
        trace,
        hierarchy,
        exploration,
        summary,
    }
}

/// Runs the MPEG-4 VTC (multimedia) case study.
pub fn vtc_study(scale: StudyScale, seed: u64) -> Study {
    let hierarchy = presets::sp64k_dram4m();
    let trace = vtc_trace(scale, seed);
    let space = vtc_space(&hierarchy, scale);
    let exploration = Explorer::new(&hierarchy).run(&space, &trace);
    let summary = StudySummary::compute(&exploration);
    Study {
        trace,
        hierarchy,
        exploration,
        summary,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_easyport_study_has_pareto_tradeoff() {
        let study = easyport_study(StudyScale::Quick, 42);
        let s = &study.summary;
        assert!(s.feasible_configs > 10);
        assert!(s.pareto_count >= 2, "a trade-off needs at least two points");
        // The paper's qualitative claims at reduced scale: a wide spread
        // across the space, and meaningful spread within the Pareto set.
        assert!(
            s.access_range_factor > 2.0,
            "access range {:.2}",
            s.access_range_factor
        );
        assert!(
            s.energy_saving_pct > 10.0,
            "energy saving {:.2}",
            s.energy_saving_pct
        );
    }

    #[test]
    fn quick_vtc_study_energy_moves_more_than_time() {
        let study = vtc_study(StudyScale::Quick, 42);
        let s = &study.summary;
        assert!(s.pareto_count >= 1);
        // VTC is compute-dominated: energy savings far exceed
        // execution-time savings (paper: 82.4 % vs 5.4 %).
        assert!(
            s.energy_saving_pct > s.exec_time_saving_pct,
            "energy {:.2}% vs time {:.2}%",
            s.energy_saving_pct,
            s.exec_time_saving_pct
        );
        assert!(
            s.exec_time_saving_pct < 30.0,
            "VTC time saving must be modest"
        );
    }

    #[test]
    fn paper_spaces_are_larger_than_quick() {
        let hier = presets::sp64k_dram4m();
        assert!(
            easyport_space(&hier, StudyScale::Paper).len()
                > easyport_space(&hier, StudyScale::Quick).len()
        );
        assert!(
            vtc_space(&hier, StudyScale::Paper).len() > vtc_space(&hier, StudyScale::Quick).len()
        );
        // The full Easyport space is in the "hundreds to thousands" regime.
        assert!(easyport_space(&hier, StudyScale::Paper).len() >= 800);
    }

    #[test]
    fn paper_space_labels_are_unique() {
        // Every enumerated configuration must have a distinct label — the
        // profile pipeline joins results by label.
        let hier = presets::sp64k_dram4m();
        for space in [
            easyport_space(&hier, StudyScale::Paper),
            vtc_space(&hier, StudyScale::Paper),
        ] {
            let mut labels: Vec<String> = space.iter_configs(&hier).map(|c| c.label()).collect();
            assert_eq!(labels.len(), space.len());
            labels.sort();
            let before = labels.len();
            labels.dedup();
            assert_eq!(labels.len(), before, "duplicate labels in space");
        }
    }

    #[test]
    fn studies_are_deterministic_in_seed() {
        let a = easyport_study(StudyScale::Quick, 7);
        let b = easyport_study(StudyScale::Quick, 7);
        assert_eq!(a.summary, b.summary);
    }
}
