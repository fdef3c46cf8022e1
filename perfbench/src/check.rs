//! The correctness gate: every front point re-simulated on every instance
//! through the reference interpreter, plus structural checks on each
//! front. A speed-only change to the library must pass it unchanged,
//! because every simulated statistic is compared exactly.

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

use dmx_alloc::{SimMetrics, Simulator};
use dmx_core::scenario::{aggregate_metrics, ScenarioMetrics};
use dmx_core::{dominates, Genome};

use crate::spans::Recorder;
use crate::workload::{Prepared, Searched};

/// Checks attempted and failed, with a note per failure.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.notes.len() < 20 {
                self.notes.push(what());
            }
        }
    }

    pub fn failed_frac(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}

/// A digest of everything a search reports that must repeat exactly:
/// the JSON export (front, genomes, counts, fidelity statistics) plus
/// the evaluated set.
pub fn digest(searched: &[Searched]) -> u64 {
    let mut h = DefaultHasher::new();
    for s in searched {
        let o = &s.outcome;
        o.genomes.hash(&mut h);
        o.evaluations.hash(&mut h);
        o.simulations.hash(&mut h);
        o.cache_hits.hash(&mut h);
        o.front.indices.hash(&mut h);
        o.front.points.hash(&mut h);
        format!("{:?}", o.fidelity).hash(&mut h);
        s.json_bytes.hash(&mut h);
        for r in &o.exploration.results {
            r.label.hash(&mut h);
            format!("{:?}", r.metrics).hash(&mut h);
        }
    }
    h.finish()
}

/// Checks one exploration: each front is non-dominated, a subset of the
/// evaluated set and complete over it; every front point matches a
/// reference re-simulation on every instance; robust points match the
/// fold of those re-simulations.
pub fn check_exploration(p: &Prepared, searched: &[Searched], rec: &mut Recorder, c: &mut Checks) {
    let mut reference: HashMap<(Genome, usize), SimMetrics> = HashMap::new();
    for s in searched {
        let o = &s.outcome;
        let results = &o.exploration.results;
        let extract = |m: &SimMetrics| -> Vec<u64> {
            p.objectives.iter().map(|obj| obj.extract(m)).collect()
        };

        let pts = &o.front.points;
        let non_dominated = pts.iter().all(|a| pts.iter().all(|b| !dominates(a, b)));
        c.check(non_dominated, || {
            format!("front of `{}` is not non-dominated", o.strategy)
        });
        c.check(
            o.front.indices.len() == pts.len() && !pts.is_empty(),
            || "front is empty or its indices and points disagree".to_owned(),
        );
        for (&i, point) in o.front.indices.iter().zip(pts) {
            let ok = i < results.len()
                && results[i].metrics.feasible()
                && extract(&results[i].metrics) == *point;
            c.check(ok, || {
                format!("front point {point:?} is not an evaluated feasible result")
            });
        }
        let complete = results
            .iter()
            .filter(|r| r.metrics.feasible())
            .map(|r| extract(&r.metrics))
            .all(|q| pts.iter().any(|f| *f == q || dominates(f, &q)));
        c.check(complete, || {
            "an evaluated feasible point is neither on nor dominated by the front".to_owned()
        });

        for &i in &o.front.indices {
            let Some(genome) = o.genomes.get(i) else {
                c.check(false, || format!("front index {i} has no genome"));
                continue;
            };
            let mut parts = Vec::with_capacity(p.insts.len());
            for (k, inst) in p.insts.iter().enumerate() {
                let config = p.space.config_at(&inst.hierarchy, genome);
                let metrics = reference
                    .entry((genome.clone(), k))
                    .or_insert_with(|| {
                        rec.span("alloc.run_reference", |_| {
                            Simulator::new(&inst.hierarchy).run_reference(&config, &inst.trace)
                        })
                        .expect("space genomes build valid configurations")
                    })
                    .clone();
                let reported = s.instance_result(k, i);
                c.check(
                    reported.metrics == metrics && reported.label == config.label(),
                    || {
                        format!(
                            "front point {} differs from its reference re-simulation on instance {k}",
                            reported.label
                        )
                    },
                );
                parts.push(metrics);
            }
            if let Some(aggregate) = p.kind.aggregate() {
                let folded: Vec<ScenarioMetrics<'_>> = p
                    .insts
                    .iter()
                    .zip(&parts)
                    .map(|(inst, m)| ScenarioMetrics {
                        metrics: m,
                        weight: inst.weight,
                        admissible: inst.constraints.accepts(m),
                    })
                    .collect();
                c.check(
                    aggregate_metrics(aggregate, &folded) == results[i].metrics,
                    || {
                        format!(
                            "robust metrics of {} differ from the fold of its re-simulations",
                            results[i].label
                        )
                    },
                );
            }
        }
    }
}
