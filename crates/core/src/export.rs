//! Result exports: CSV, Gnuplot and JSON — the paper's "results are
//! provided either on a GUI or in a format easy to import to Excel or
//! Gnuplot".

use std::fmt::Write as _;

use crate::objective::Objective;
use crate::pareto::ParetoSet;
use crate::runner::Exploration;

/// Serializes a full exploration as CSV: one row per configuration with
/// every metric (spreadsheet import path).
pub fn to_csv(exploration: &Exploration) -> String {
    let mut out = String::new();
    out.push_str(
        "label,feasible,allocs,frees,failures,footprint_bytes,energy_pj,cycles,accesses,meta_accesses",
    );
    let levels = exploration
        .results
        .first()
        .map_or(0, |r| r.metrics.footprint_per_level.len());
    for l in 0..levels {
        let _ = write!(out, ",fp_l{l},reads_l{l},writes_l{l}");
    }
    out.push('\n');
    for r in &exploration.results {
        let m = &r.metrics;
        let _ = write!(
            out,
            "\"{}\",{},{},{},{},{},{},{},{},{}",
            r.label,
            m.feasible(),
            m.allocs,
            m.frees,
            m.failures,
            m.footprint,
            m.energy_pj,
            m.cycles,
            m.total_accesses(),
            m.meta_counters.total_accesses(),
        );
        for (l, fp) in m.footprint_per_level.iter().enumerate() {
            let c = m.counters.level(dmx_memhier::LevelId(l as u16));
            let _ = write!(out, ",{fp},{},{}", c.reads, c.writes);
        }
        out.push('\n');
    }
    out
}

/// Serializes a Pareto front as CSV with objective columns.
pub fn pareto_to_csv(
    exploration: &Exploration,
    front: &ParetoSet,
    objectives: &[Objective],
) -> String {
    let mut out = String::from("label");
    for o in objectives {
        let _ = write!(out, ",{}", o.name());
    }
    out.push('\n');
    for (k, &i) in front.indices.iter().enumerate() {
        let _ = write!(out, "\"{}\"", exploration.results[i].label);
        for v in &front.points[k] {
            let _ = write!(out, ",{v}");
        }
        out.push('\n');
    }
    out
}

/// Emits a self-contained Gnuplot script plotting every feasible
/// configuration (dots) and the Pareto front (line+points), reproducing
/// the paper's Figure 1 curve for the chosen objective pair.
pub fn gnuplot_script(
    exploration: &Exploration,
    front: &ParetoSet,
    objectives: [Objective; 2],
    title: &str,
) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "# dmx exploration plot — {title}");
    let _ = writeln!(s, "set title \"{title}\"");
    let _ = writeln!(s, "set xlabel \"{}\"", objectives[0].name());
    let _ = writeln!(s, "set ylabel \"{}\"", objectives[1].name());
    let _ = writeln!(s, "set logscale xy");
    let _ = writeln!(s, "set key top right");
    s.push_str("$all << EOD\n");
    let (_, points) = exploration.objective_points(&objectives);
    for p in &points {
        let _ = writeln!(s, "{} {}", p[0], p[1]);
    }
    s.push_str("EOD\n$pareto << EOD\n");
    for p in &front.points {
        let _ = writeln!(s, "{} {}", p[0], p[1]);
    }
    s.push_str("EOD\n");
    s.push_str(
        "plot $all with points pt 7 ps 0.4 lc rgb \"gray\" title \"all configurations\", \\\n     $pareto with linespoints pt 5 ps 1 lc rgb \"red\" title \"Pareto-optimal\"\n",
    );
    s
}

/// Escapes a string for a JSON string literal (quotes, backslashes,
/// control characters — the only things configuration labels can need).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serializes a Pareto front as a JSON array of objects, one per front
/// configuration with its label and one field per objective — the
/// machine-readable export for downstream tooling (no serde; the format
/// is simple enough to emit by hand).
///
/// ```
/// # use dmx_core::export::pareto_to_json;
/// # use dmx_core::{Exploration, Objective};
/// # let exploration = Exploration { workload: "w".into(), results: vec![] };
/// # let front = exploration.pareto(&Objective::FIG1);
/// let json = pareto_to_json(&exploration, &front, &Objective::FIG1);
/// assert_eq!(json.trim(), "[]");
/// ```
pub fn pareto_to_json(
    exploration: &Exploration,
    front: &ParetoSet,
    objectives: &[Objective],
) -> String {
    let mut s = String::from("[");
    for (k, &i) in front.indices.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        s.push_str("\n  {");
        let _ = write!(
            s,
            "\"label\": \"{}\"",
            json_escape(&exploration.results[i].label)
        );
        for (o, v) in objectives.iter().zip(&front.points[k]) {
            let _ = write!(s, ", \"{}\": {v}", o.name());
        }
        s.push('}');
    }
    if !front.indices.is_empty() {
        s.push('\n');
    }
    s.push_str("]\n");
    s
}

/// Serializes one front as a JSON array (shared helper for the robust
/// export): one object per point with the label, genome, and one field
/// per objective.
fn front_to_json(
    exploration: &Exploration,
    genomes: &[crate::Genome],
    front: &ParetoSet,
    objectives: &[Objective],
    indent: &str,
) -> String {
    let mut s = String::from("[");
    for (k, &i) in front.indices.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n{indent}  {{\"label\": \"{}\", \"genome\": {:?}",
            json_escape(&exploration.results[i].label),
            genomes[i].to_vec()
        );
        for (o, v) in objectives.iter().zip(&front.points[k]) {
            let _ = write!(s, ", \"{}\": {v}", o.name());
        }
        s.push('}');
    }
    if !front.indices.is_empty() {
        let _ = write!(s, "\n{indent}");
    }
    s.push(']');
    s
}

/// Serializes multi-fidelity screening statistics as a JSON object
/// (shared by [`search_to_json`] and [`robust_to_json`]): one entry per
/// screening rung plus the surrogate, full-simulation and avoided
/// totals (the last as [`FidelityStats::avoided`]). Only
/// emitted when a run actually carried a fidelity plan, so `--fidelity
/// off` exports stay byte-identical to pre-fidelity ones.
///
/// [`FidelityStats::avoided`]: crate::search::FidelityStats::avoided
fn fidelity_json(stats: &crate::search::FidelityStats, indent: &str) -> String {
    let mut s = String::from("{");
    let _ = write!(s, "\n{indent}  \"rungs\": [");
    for (k, (fraction, rung)) in stats.fractions.iter().zip(&stats.rungs).enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n{indent}    {{\"fraction\": {fraction}, \"screened\": {}, \
             \"promoted\": {}, \"surrogate_hits\": {}}}",
            rung.screened, rung.promoted, rung.surrogate_hits
        );
    }
    if !stats.rungs.is_empty() {
        let _ = write!(s, "\n{indent}  ");
    }
    let _ = write!(s, "],");
    let _ = write!(
        s,
        "\n{indent}  \"surrogate_hits\": {},",
        stats.surrogate_hits
    );
    let _ = write!(
        s,
        "\n{indent}  \"full_simulations\": {},",
        stats.full_simulations
    );
    let _ = write!(s, "\n{indent}  \"avoided\": {}", stats.avoided());
    let _ = write!(s, "\n{indent}}}");
    s
}

/// Serializes a single-workload [`SearchOutcome`] as one JSON object:
/// the workload, strategy, evaluation/cache statistics, the Pareto
/// front (with genomes), and the configurations a pruned exhaustive
/// sweep stopped early (when it stopped any). This is the `--json`
/// export for classic (non-suite) exploration.
///
/// [`SearchOutcome`]: crate::search::SearchOutcome
pub fn search_to_json(outcome: &crate::search::SearchOutcome, objectives: &[Objective]) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(
        s,
        "  \"workload\": \"{}\",",
        json_escape(&outcome.exploration.workload)
    );
    let _ = writeln!(s, "  \"strategy\": \"{}\",", json_escape(&outcome.strategy));
    let names: Vec<String> = objectives
        .iter()
        .map(|o| format!("\"{}\"", o.name()))
        .collect();
    let _ = writeln!(s, "  \"objectives\": [{}],", names.join(", "));
    let _ = writeln!(s, "  \"evaluations\": {},", outcome.evaluations);
    let _ = writeln!(s, "  \"simulations\": {},", outcome.simulations);
    let _ = writeln!(s, "  \"cache_hits\": {},", outcome.cache_hits);
    if let Some(stats) = &outcome.fidelity {
        let _ = writeln!(s, "  \"fidelity\": {},", fidelity_json(stats, "  "));
    }
    let front = front_to_json(
        &outcome.exploration,
        &outcome.genomes,
        &outcome.front,
        objectives,
        "  ",
    );
    if outcome.pruned.is_empty() {
        let _ = writeln!(s, "  \"front\": {front}");
    } else {
        let _ = writeln!(s, "  \"front\": {front},");
        let _ = writeln!(s, "  \"pruned\": {}", pruned_json(&outcome.pruned, "  "));
    }
    s.push_str("}\n");
    s
}

/// Serializes the configurations a pruned exhaustive sweep stopped
/// early as a JSON array: label, genome, the pool op and trace fraction
/// where the replay stopped, and the label of the front point that
/// dominated its bound (see [`crate::search::PrunedConfig`]). Only emitted when the sweep pruned something, so every
/// other export stays byte-identical.
fn pruned_json(pruned: &[crate::search::PrunedConfig], indent: &str) -> String {
    let mut s = String::from("[");
    for (k, p) in pruned.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n{indent}  {{\"label\": \"{}\", \"genome\": {:?}, \"stopped_at_op\": {}, \
             \"trace_fraction\": {}, \"dominated_by\": \"{}\"}}",
            json_escape(&p.label),
            p.genome,
            p.stopped_at_op,
            p.trace_fraction,
            json_escape(&p.dominated_by)
        );
    }
    let _ = write!(s, "\n{indent}]");
    s
}

/// Serializes a robust exploration as one JSON object: the robust front,
/// every per-scenario front, cache/evaluation statistics, and the
/// commonality report.
/// Genomes identify configurations across scenarios (labels are
/// per-platform). Hand-emitted like [`pareto_to_json`] — no serde.
pub fn robust_to_json(robust: &crate::scenario::RobustOutcome) -> String {
    let mut s = String::from("{\n");
    let _ = writeln!(s, "  \"suite\": \"{}\",", json_escape(&robust.suite));
    let _ = writeln!(s, "  \"aggregate\": \"{}\",", robust.aggregate);
    let _ = writeln!(
        s,
        "  \"strategy\": \"{}\",",
        json_escape(&robust.outcome.strategy)
    );
    let names: Vec<String> = robust
        .objectives
        .iter()
        .map(|o| format!("\"{}\"", o.name()))
        .collect();
    let _ = writeln!(s, "  \"objectives\": [{}],", names.join(", "));
    let _ = writeln!(s, "  \"space_size\": {},", robust.space.len());
    let _ = writeln!(s, "  \"evaluations\": {},", robust.outcome.evaluations);
    let _ = writeln!(s, "  \"simulations\": {},", robust.outcome.simulations);
    let _ = writeln!(s, "  \"cache_hits\": {},", robust.outcome.cache_hits);
    if let Some(stats) = &robust.outcome.fidelity {
        let _ = writeln!(s, "  \"fidelity\": {},", fidelity_json(stats, "  "));
    }
    let _ = writeln!(
        s,
        "  \"robust_front\": {},",
        front_to_json(
            &robust.outcome.exploration,
            &robust.outcome.genomes,
            &robust.outcome.front,
            &robust.objectives,
            "  ",
        )
    );
    s.push_str("  \"scenarios\": [");
    for (k, sc) in robust.scenarios.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"name\": \"{}\", \"front\": {}}}",
            json_escape(&sc.name),
            front_to_json(
                &sc.exploration,
                &robust.outcome.genomes,
                &sc.front,
                &robust.objectives,
                "    ",
            )
        );
    }
    s.push_str("\n  ],\n");
    s.push_str("  \"commonality\": {\"common\": [");
    for (k, label) in robust.commonality.common.iter().enumerate() {
        if k > 0 {
            s.push_str(", ");
        }
        let _ = write!(s, "\"{}\"", json_escape(label));
    }
    s.push_str("], \"rows\": [");
    for (k, row) in robust.commonality.rows.iter().enumerate() {
        if k > 0 {
            s.push(',');
        }
        let _ = write!(
            s,
            "\n    {{\"label\": \"{}\", \"genome\": {:?}, \"scenario_fronts\": {}, \"on_robust_front\": {}}}",
            json_escape(&row.label),
            row.genome.to_vec(),
            row.scenario_front_count,
            row.on_robust_front
        );
    }
    if !robust.commonality.rows.is_empty() {
        s.push_str("\n  ");
    }
    s.push_str("]}\n");
    s.push_str("}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::{ParamSpace, PlacementStrategy};
    use crate::runner::Explorer;
    use dmx_alloc::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
    use dmx_memhier::presets;
    use dmx_trace::gen::{EasyportConfig, TraceGenerator};

    fn tiny_exploration() -> Exploration {
        let hier = presets::sp64k_dram4m();
        let trace = EasyportConfig {
            packets: 120,
            ..EasyportConfig::paper()
        }
        .generate(1);
        let space = ParamSpace {
            dedicated_size_sets: vec![vec![], vec![74]],
            placements: vec![PlacementStrategy::SmallOnFastest { max_size: 512 }],
            fits: vec![FitPolicy::FirstFit],
            orders: vec![FreeOrder::Lifo],
            coalesces: vec![CoalescePolicy::Never],
            splits: vec![SplitPolicy::Never],
            general_levels: vec![hier.slowest().into()],
            general_chunks: vec![8192],
        };
        Explorer::new(&hier).with_threads(1).run(&space, &trace)
    }

    #[test]
    fn csv_has_header_and_all_rows() {
        let exp = tiny_exploration();
        let csv = to_csv(&exp);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 1 + exp.results.len());
        assert!(lines[0].starts_with("label,feasible"));
        assert!(lines[0].contains("fp_l0"), "per-level columns present");
        // Labels are quoted (they contain commas); the remaining fields of
        // every row must match the header's column count.
        let commas = lines[0].matches(',').count();
        for row in &lines[1..] {
            assert!(row.starts_with('"'), "label must be quoted: {row}");
            let after_label = row.rsplit('"').next().expect("closing quote");
            assert_eq!(
                after_label.matches(',').count(),
                commas,
                "ragged row: {row}"
            );
        }
    }

    #[test]
    fn pareto_csv_lists_front_in_order() {
        let exp = tiny_exploration();
        let front = exp.pareto(&Objective::FIG1);
        let csv = pareto_to_csv(&exp, &front, &Objective::FIG1);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "label,footprint_bytes,accesses");
        assert_eq!(lines.len(), 1 + front.len());
        for row in &lines[1..] {
            assert!(row.starts_with('"'), "label must be quoted: {row}");
        }
    }

    #[test]
    fn gnuplot_script_is_self_contained() {
        let exp = tiny_exploration();
        let front = exp.pareto(&Objective::FIG1);
        let script = gnuplot_script(&exp, &front, Objective::FIG1, "Easyport");
        assert!(script.contains("$all << EOD"));
        assert!(script.contains("$pareto << EOD"));
        assert!(script.contains("set xlabel \"footprint_bytes\""));
        assert!(script.contains("plot $all"));
    }

    #[test]
    fn json_front_is_well_formed() {
        let exp = tiny_exploration();
        let front = exp.pareto(&Objective::FIG1);
        let json = pareto_to_json(&exp, &front, &Objective::FIG1);
        assert!(json.starts_with('['));
        assert!(json.trim_end().ends_with(']'));
        assert_eq!(json.matches("\"label\"").count(), front.len());
        assert_eq!(json.matches("\"footprint_bytes\"").count(), front.len());
        // Balanced braces, one object per front point.
        assert_eq!(json.matches('{').count(), front.len());
        assert_eq!(json.matches('}').count(), front.len());
    }

    #[test]
    fn search_json_explains_each_pruned_config() {
        use crate::study::{easyport_space, easyport_trace, StudyScale};
        let hier = presets::sp64k_dram4m();
        let space = easyport_space(&hier, StudyScale::Quick);
        let trace = easyport_trace(StudyScale::Quick, 42);
        let explorer = Explorer::new(&hier);
        let outcome = explorer.search(&crate::ExhaustiveSearch, &space, &trace, &Objective::FIG1);
        assert!(!outcome.pruned.is_empty(), "the fixture must prune");
        let json = search_to_json(&outcome, &Objective::FIG1);
        assert!(json.contains("\"pruned\": ["), "{json}");
        assert!(
            json.ends_with("\n  ]\n}\n"),
            "pruned is the last key: {json}"
        );
        assert_eq!(
            json.matches("\"stopped_at_op\"").count(),
            outcome.pruned.len()
        );
        for p in &outcome.pruned {
            assert!(json.contains(&format!(
                "\"label\": \"{}\", \"genome\": {:?}, \"stopped_at_op\": {}, \
                 \"trace_fraction\": {}, \"dominated_by\": \"{}\"",
                p.label, p.genome, p.stopped_at_op, p.trace_fraction, p.dominated_by
            )));
            // Exact results only: a pruned config never shows up with
            // partial metrics.
            assert!(outcome
                .exploration
                .results
                .iter()
                .all(|r| r.label != p.label));
        }
        // Strategies that never prune export no list at all.
        let sampled = explorer.search(
            &crate::SubsampleSearch { n: 8, seed: 1 },
            &space,
            &trace,
            &Objective::FIG1,
        );
        let json = search_to_json(&sampled, &Objective::FIG1);
        assert!(!json.contains("\"pruned\""));
        assert!(
            json.ends_with("\n  ]\n}\n"),
            "front is the last key: {json}"
        );
    }

    #[test]
    fn robust_json_has_all_sections() {
        let suite = crate::ScenarioSuite::builtin("quick").unwrap();
        let robust = crate::MultiScenarioEvaluator::new(&suite)
            .with_threads(4)
            .run(&crate::SubsampleSearch { n: 10, seed: 2 });
        let json = robust_to_json(&robust);
        assert!(json.contains("\"suite\": \"quick\""));
        assert!(json.contains("\"aggregate\": \"worst\""));
        assert!(json.contains("\"robust_front\": ["));
        assert_eq!(
            json.matches("\"name\":").count(),
            suite.scenarios.len(),
            "one front per scenario"
        );
        assert!(json.contains("\"commonality\""));
        assert!(json.contains("\"genome\": ["));
        // Structural sanity: brackets and braces balance.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn fidelity_block_only_appears_when_screening_ran() {
        let suite = crate::ScenarioSuite::builtin("quick").unwrap();
        let strategy = crate::SubsampleSearch { n: 24, seed: 2 };
        let off = crate::MultiScenarioEvaluator::new(&suite)
            .with_threads(4)
            .run(&strategy);
        let off_json = robust_to_json(&off);
        assert!(
            !off_json.contains("\"fidelity\""),
            "off stays pre-PR shaped"
        );

        let plan = crate::FidelityPlan { surrogate: false };
        let on = crate::MultiScenarioEvaluator::new(&suite)
            .with_threads(4)
            .with_fidelity(plan)
            .run(&strategy);
        let on_json = robust_to_json(&on);
        assert!(on_json.contains("\"fidelity\": {"));
        assert!(on_json.contains("\"rungs\": ["));
        assert!(on_json.contains("\"fraction\": 0.2"));
        assert!(on_json.contains("\"surrogate_hits\""));
        assert!(on_json.contains("\"full_simulations\""));
        assert_eq!(on_json.matches('{').count(), on_json.matches('}').count());
        assert_eq!(on_json.matches('[').count(), on_json.matches(']').count());
    }

    #[test]
    fn json_escaping_covers_specials() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("tab\tend"), "tab\\u0009end");
        assert_eq!(json_escape("plain<=74@L1"), "plain<=74@L1");
    }
}
