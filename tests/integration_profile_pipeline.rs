//! Profile-pipeline integration: exploration results → profile records →
//! serialized text → parsed back → summarized — the paper's
//! "simulate, write profiles, parse, Pareto-filter" loop.

use dmx_core::study::{easyport_study, StudyScale};
use dmx_profile::{parse_records, records_to_string, ProfileRecord};

#[test]
fn records_roundtrip_from_real_exploration() {
    let study = easyport_study(StudyScale::Quick, 42);
    let records = study.exploration.to_records();
    assert_eq!(records.len(), study.exploration.results.len());

    let text = records_to_string(&records);
    let parsed = parse_records(&text).expect("self-produced profiles parse");
    assert_eq!(parsed, records);
}

#[test]
fn record_metrics_match_sim_metrics() {
    let study = easyport_study(StudyScale::Quick, 42);
    let records = study.exploration.to_records();
    for (rec, res) in records.iter().zip(&study.exploration.results) {
        assert_eq!(rec.label, res.label);
        assert_eq!(rec.footprint, res.metrics.footprint);
        assert_eq!(rec.energy_pj, res.metrics.energy_pj);
        assert_eq!(rec.cycles, res.metrics.cycles);
        assert_eq!(rec.total_accesses(), res.metrics.total_accesses());
        assert_eq!(rec.feasible(), res.metrics.feasible());
    }
}

#[test]
fn aggregation_matches_summary() {
    let study = easyport_study(StudyScale::Quick, 42);
    let records = study.exploration.to_records();
    let feasible: Vec<&ProfileRecord> = records.iter().filter(|r| r.feasible()).collect();
    assert_eq!(feasible.len(), study.summary.feasible_configs);

    let footprints = || feasible.iter().map(|r| r.footprint);
    let (min_fp, max_fp) = (footprints().min().unwrap(), footprints().max().unwrap());
    let factor = max_fp as f64 / min_fp as f64;
    assert!((factor - study.summary.footprint_range_factor).abs() < 1e-9);

    let best_fp = study
        .exploration
        .feasible()
        .iter()
        .map(|r| r.metrics.footprint)
        .min()
        .unwrap();
    assert_eq!(min_fp, best_fp);
}

#[test]
fn cli_objectives_can_be_recomputed_from_records() {
    // The `dmx pareto` path: recompute the front purely from parsed
    // records and check it matches the in-memory front.
    let study = easyport_study(StudyScale::Quick, 42);
    let records = study.exploration.to_records();
    let text = records_to_string(&records);
    let parsed = parse_records(&text).unwrap();

    let points: Vec<Vec<u64>> = parsed
        .iter()
        .filter(|r| r.feasible())
        .map(|r| vec![r.footprint, r.total_accesses()])
        .collect();
    let front_from_records = dmx_core::pareto_front(&points);
    let front_in_memory = study.exploration.pareto(&dmx_core::Objective::FIG1);
    assert_eq!(front_from_records.len(), front_in_memory.len());
    assert_eq!(front_from_records.points, front_in_memory.points);
}
