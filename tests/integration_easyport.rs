//! End-to-end integration: the Easyport case study across every crate —
//! trace generation, allocator simulation, exploration, Pareto selection,
//! reporting, exports.

use dmx_alloc::{AllocatorConfig, CoalescePolicy, FitPolicy, FreeOrder, Simulator, SplitPolicy};
use dmx_core::export::{gnuplot_script, pareto_to_csv, to_csv};
use dmx_core::study::{easyport_study, StudyScale};
use dmx_core::{dominates, Objective};
use dmx_memhier::presets;

#[test]
fn full_pipeline_runs_and_reports() {
    let study = easyport_study(StudyScale::Quick, 42);
    let s = &study.summary;

    assert_eq!(s.workload, "easyport");
    assert!(s.total_configs >= 80, "quick space has dozens of configs");
    assert!(s.feasible_configs > 0);
    assert_eq!(s.pareto_curve.len(), s.pareto_count);

    let text = s.render();
    assert!(text.contains("Pareto-optimal configurations"));
}

#[test]
fn pareto_front_is_actually_optimal() {
    let study = easyport_study(StudyScale::Quick, 7);
    let front = study.exploration.pareto(&Objective::FIG1);
    let (indices, points) = study.exploration.objective_points(&Objective::FIG1);

    // No front point is dominated by any feasible point.
    for fp in &front.points {
        for p in &points {
            assert!(!dominates(p, fp), "front point {fp:?} dominated by {p:?}");
        }
    }
    // Every non-front feasible point is dominated by some front point.
    for (k, p) in points.iter().enumerate() {
        if !front.indices.contains(&indices[k]) {
            assert!(
                front.points.iter().any(|f| dominates(f, p)),
                "point {p:?} neither on front nor dominated"
            );
        }
    }
}

#[test]
fn dedicated_scratchpad_pools_win_on_energy() {
    // The paper's central qualitative claim: customized allocators with
    // hot pools on the scratchpad beat the OS-style general allocator.
    let hier = presets::sp64k_dram4m();
    let trace = dmx_core::study::easyport_trace(StudyScale::Quick, 42);
    let sim = Simulator::new(&hier);

    let naive = AllocatorConfig::general_only(
        hier.slowest(),
        FitPolicy::FirstFit,
        FreeOrder::Lifo,
        CoalescePolicy::Never,
        SplitPolicy::Never,
    );
    // The study's knee configuration: descriptor and header pools on the
    // scratchpad, frame pool and general pool in main memory.
    let mut tuned = AllocatorConfig::paper_example(&hier);
    tuned
        .pools
        .insert(0, dmx_alloc::PoolSpec::fixed(28, hier.fastest()));

    let m_naive = sim.run(&naive, &trace).unwrap();
    let m_tuned = sim.run(&tuned, &trace).unwrap();
    assert!(m_naive.feasible() && m_tuned.feasible());
    assert!(
        m_tuned.energy_pj < m_naive.energy_pj * 3 / 4,
        "tuned {} vs naive {} pJ — expected >25% energy win",
        m_tuned.energy_pj,
        m_naive.energy_pj
    );
    assert!(m_tuned.cycles < m_naive.cycles, "and faster");
}

#[test]
fn summary_factors_match_exploration_extremes() {
    let study = easyport_study(StudyScale::Quick, 3);
    let feasible = study.exploration.feasible();
    let fp_min = feasible.iter().map(|r| r.metrics.footprint).min().unwrap();
    let fp_max = feasible.iter().map(|r| r.metrics.footprint).max().unwrap();
    let expect = fp_max as f64 / fp_min as f64;
    assert!(
        (study.summary.footprint_range_factor - expect).abs() < 1e-9,
        "summary factor {} vs recomputed {expect}",
        study.summary.footprint_range_factor
    );
}

#[test]
fn exports_are_consistent_with_results() {
    let study = easyport_study(StudyScale::Quick, 5);
    let exploration = &study.exploration;
    let front = exploration.pareto(&Objective::FIG1);

    let csv = to_csv(exploration);
    assert_eq!(csv.lines().count(), 1 + exploration.results.len());

    let pcsv = pareto_to_csv(exploration, &front, &Objective::FIG1);
    assert_eq!(pcsv.lines().count(), 1 + front.len());

    let gp = gnuplot_script(exploration, &front, Objective::FIG1, "t");
    // The gnuplot data blocks carry one line per feasible point and per
    // front point.
    let all_lines = gp
        .split("$all << EOD")
        .nth(1)
        .and_then(|s| s.split("EOD").next())
        .map(|s| s.trim().lines().count())
        .unwrap_or(0);
    assert_eq!(all_lines, exploration.feasible().len());
}

#[test]
fn knee_point_is_on_the_front() {
    let study = easyport_study(StudyScale::Quick, 11);
    if let Some(knee) = &study.summary.knee {
        assert!(
            study
                .summary
                .pareto_curve
                .iter()
                .any(|(label, ..)| label == knee),
            "knee {knee} not on the Pareto curve"
        );
    }
}

#[test]
fn different_seeds_same_qualitative_story() {
    for seed in [1u64, 99, 12345] {
        let study = easyport_study(StudyScale::Quick, seed);
        let s = &study.summary;
        assert!(s.pareto_count >= 2, "seed {seed}: front collapsed");
        assert!(
            s.energy_saving_pct > 10.0,
            "seed {seed}: energy lever vanished ({:.1}%)",
            s.energy_saving_pct
        );
        assert!(
            s.access_range_factor > 1.5,
            "seed {seed}: access spread vanished ({:.1})",
            s.access_range_factor
        );
    }
}
