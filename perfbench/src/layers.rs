//! Per-layer measurements for the traced run: every evaluated (genome,
//! instance) pair re-replayed once, single-threaded, and the scenario
//! fold, Pareto filter and trace-prefix cuts re-run over the evaluated
//! set, each call inside its own span.

use std::collections::BTreeMap;

use dmx_alloc::{AllocatorConfig, FitPolicy, PoolKind, SimArena, Simulator};
use dmx_core::scenario::{aggregate_metrics, ScenarioMetrics};
use dmx_core::{pareto_front, FidelityPlan, Genome};

use crate::check::Checks;
use crate::spans::Recorder;
use crate::workload::{Kind, Prepared, Searched};

/// One traced replay.
struct Replay {
    ns: u64,
    events: u64,
    pool_ops: u64,
    /// How many search calls of the exploration evaluated this genome.
    multiplicity: u64,
    fit: Option<FitPolicy>,
    kind: &'static str,
    label: String,
}

/// The per-layer figures of one traced run, keyed by metric name.
pub struct LayerReport {
    pub metrics: BTreeMap<String, (f64, &'static str)>,
    /// Slowest replay: configuration label, instance name, ns per event.
    pub slowest: Option<(String, String, f64)>,
    /// Σ replay time weighted by how often the exploration paid it, s.
    pub weighted_replay_s: f64,
}

/// The general pool's fit policy, if the configuration has one.
fn fit_of(config: &AllocatorConfig) -> Option<FitPolicy> {
    config.pools.iter().find_map(|p| match p.kind {
        PoolKind::General { fit, .. } => Some(fit),
        _ => None,
    })
}

/// The configuration's replay class by its non-general pools: the first
/// segregated, buddy or region pool in routing order, else `fixed` when
/// it has dedicated fixed pools, else `none` (general pool only).
fn kind_of(config: &AllocatorConfig) -> &'static str {
    let mid = config.pools.iter().find_map(|p| match p.kind {
        PoolKind::Segregated { .. } => Some("segregated"),
        PoolKind::Buddy { .. } => Some("buddy"),
        PoolKind::Region { .. } => Some("region"),
        _ => None,
    });
    mid.unwrap_or_else(|| {
        if config
            .pools
            .iter()
            .any(|p| matches!(p.kind, PoolKind::Fixed { .. }))
        {
            "fixed"
        } else {
            "none"
        }
    })
}

/// Nearest-rank percentile of sorted values.
fn percentile(sorted: &[f64], pct: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((pct / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn measure(
    p: &Prepared,
    searched: &[Searched],
    rec: &mut Recorder,
    c: &mut Checks,
) -> LayerReport {
    // Distinct evaluated genomes, with how many search calls paid for
    // each and where one of its results sits.
    let mut evaluated: BTreeMap<Genome, (u64, usize, usize)> = BTreeMap::new();
    for (si, s) in searched.iter().enumerate() {
        for (i, g) in s.outcome.genomes.iter().enumerate() {
            evaluated.entry(g.clone()).or_insert((0, si, i)).0 += 1;
        }
    }

    let mut replays: Vec<Replay> = Vec::new();
    let mut arena = SimArena::new();
    let sims: Vec<Simulator<'_>> = p
        .insts
        .iter()
        .map(|i| Simulator::new(&i.hierarchy))
        .collect();
    rec.span("alloc.replays", |rec| {
        for (genome, &(multiplicity, si, i)) in &evaluated {
            for (k, inst) in p.insts.iter().enumerate() {
                let config = rec.span("core.space.config_at", |_| {
                    p.space.config_at(&inst.hierarchy, genome)
                });
                let (metrics, ns) = rec.span_timed("alloc.replay", |_| {
                    sims[k].run_in_arena(&config, &inst.compiled, &mut arena)
                });
                let metrics = metrics.expect("space genomes build valid configurations");
                let reported = searched[si].instance_result(k, i);
                c.check(reported.metrics == metrics, || {
                    format!(
                        "replay of {} on instance {k} differs from the search's result",
                        reported.label
                    )
                });
                replays.push(Replay {
                    ns,
                    events: inst.compiled.len() as u64,
                    pool_ops: inst.compiled.pool_ops().len() as u64,
                    multiplicity,
                    fit: fit_of(&config),
                    kind: kind_of(&config),
                    label: config.label(),
                });
            }
        }
    });

    if let Some(aggregate) = p.kind.aggregate() {
        rec.span("core.scenario.folds", |rec| {
            for s in searched {
                for (i, robust) in s.outcome.exploration.results.iter().enumerate() {
                    let parts: Vec<ScenarioMetrics<'_>> = p
                        .insts
                        .iter()
                        .enumerate()
                        .map(|(k, inst)| {
                            let m = &s.instance_result(k, i).metrics;
                            ScenarioMetrics {
                                metrics: m,
                                weight: inst.weight,
                                admissible: inst.constraints.accepts(m),
                            }
                        })
                        .collect();
                    let folded = rec.span("core.scenario.fold", |_| {
                        aggregate_metrics(aggregate, &parts)
                    });
                    c.check(folded == robust.metrics, || {
                        format!(
                            "fold of {} differs from the search's robust result",
                            robust.label
                        )
                    });
                }
            }
        });
    }

    for s in searched {
        let points: Vec<Vec<u64>> = s
            .outcome
            .exploration
            .results
            .iter()
            .filter(|r| r.metrics.feasible())
            .map(|r| p.objectives.iter().map(|o| o.extract(&r.metrics)).collect())
            .collect();
        let front = rec.span("core.pareto.front", |_| pareto_front(&points));
        let mut got = front.points.clone();
        let mut want = s.outcome.front.points.clone();
        got.sort();
        want.sort();
        c.check(got == want, || {
            "re-ranked front differs from the search's front".to_owned()
        });
    }

    if p.kind == Kind::ServerScreen {
        let plan = FidelityPlan::halving();
        for _ in searched {
            for inst in &p.insts {
                for &fraction in plan.screening_fractions() {
                    let prefix = rec.span("trace.prefix", |_| inst.compiled.prefix(fraction));
                    c.check(prefix.is_ok(), || format!("prefix({fraction}) failed"));
                }
            }
        }
    }

    report(p, searched, rec, &replays)
}

fn report(p: &Prepared, searched: &[Searched], rec: &Recorder, replays: &[Replay]) -> LayerReport {
    let mut m: BTreeMap<String, (f64, &'static str)> = BTreeMap::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        m.insert(name.to_owned(), (value, unit));
    };
    let layers = rec.layers();
    let count = |name: &str| layers.get(name).map_or(0, |t| t.count);

    let events: u64 = p.insts.iter().map(|i| i.compiled.len() as u64).sum();
    let pool_ops: u64 = p
        .insts
        .iter()
        .map(|i| i.compiled.pool_ops().len() as u64)
        .sum();
    put("trace.generate_s", rec.total_s("trace.generate"), "s");
    put("trace.events", events as f64, "count");
    put("trace.compile_s", rec.total_s("trace.compile"), "s");
    put(
        "trace.compile_ns_per_event",
        rec.total_s("trace.compile") * 1e9 / events.max(1) as f64,
        "ns",
    );
    put("trace.pool_ops", pool_ops as f64, "count");
    put("trace.prefix_s", rec.total_s("trace.prefix"), "s");
    put("core.space.derive_s", rec.total_s("core.space.derive"), "s");
    put(
        "core.space.config_at_ns",
        rec.total_s("core.space.config_at") * 1e9 / count("core.space.config_at").max(1) as f64,
        "ns",
    );

    let mut per_event: Vec<f64> = replays
        .iter()
        .map(|r| r.ns as f64 / r.events.max(1) as f64)
        .collect();
    let mut per_op: Vec<f64> = replays
        .iter()
        .map(|r| r.ns as f64 / r.pool_ops.max(1) as f64)
        .collect();
    per_event.sort_by(f64::total_cmp);
    per_op.sort_by(f64::total_cmp);
    for pct in [10.0, 50.0, 90.0, 99.0] {
        put(
            &format!("alloc.replay_ns_per_event.p{pct}"),
            percentile(&per_event, pct),
            "ns",
        );
    }
    put(
        "alloc.replay_ns_per_event.max",
        per_event.last().copied().unwrap_or(0.0),
        "ns",
    );
    put(
        "alloc.replay_ns_per_pool_op.p50",
        percentile(&per_op, 50.0),
        "ns",
    );
    put(
        "alloc.replay_ns_per_pool_op.p99",
        percentile(&per_op, 99.0),
        "ns",
    );
    let replay_ns: u64 = replays.iter().map(|r| r.ns).sum();
    let replay_ops: u64 = replays.iter().map(|r| r.pool_ops).sum();
    put(
        "alloc.pool_ops_per_s",
        replay_ops as f64 * 1e9 / replay_ns.max(1) as f64,
        "ops/s",
    );
    for (name, fit) in [
        ("first", FitPolicy::FirstFit),
        ("next", FitPolicy::NextFit),
        ("best", FitPolicy::BestFit),
        ("worst", FitPolicy::WorstFit),
    ] {
        let ns: u64 = replays
            .iter()
            .filter(|r| r.fit == Some(fit))
            .map(|r| r.ns)
            .sum();
        put(&format!("alloc.replay_s.fit.{name}"), ns as f64 / 1e9, "s");
    }
    for kind in ["none", "fixed", "segregated", "buddy", "region"] {
        let ns: u64 = replays
            .iter()
            .filter(|r| r.kind == kind)
            .map(|r| r.ns)
            .sum();
        put(&format!("alloc.replay_s.kind.{kind}"), ns as f64 / 1e9, "s");
    }

    let hits: usize = searched.iter().map(|s| s.outcome.cache_hits).sum();
    // A lookup that misses the cache is a fresh genome: simulated in full
    // or, under a fidelity plan, sent to the first screening rung.
    let misses: usize = searched
        .iter()
        .map(|s| match &s.outcome.fidelity {
            Some(f) => f
                .rungs
                .first()
                .map_or(s.outcome.evaluations, |r| r.screened),
            None => s.outcome.evaluations,
        })
        .sum();
    put(
        "core.eval.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
        "ratio",
    );
    let fid = |f: &dyn Fn(&dmx_core::FidelityStats) -> usize| -> f64 {
        searched
            .iter()
            .filter_map(|s| s.outcome.fidelity.as_ref())
            .map(f)
            .sum::<usize>() as f64
    };
    put(
        "core.fidelity.screened",
        fid(&|f| f.rungs.first().map_or(0, |r| r.screened)),
        "count",
    );
    put(
        "core.fidelity.promoted",
        fid(&|f| f.rungs.last().map_or(0, |r| r.promoted)),
        "count",
    );
    put(
        "core.fidelity.surrogate_hits",
        fid(&|f| f.surrogate_hits),
        "count",
    );
    put(
        "core.scenario.fold_s",
        rec.total_s("core.scenario.fold"),
        "s",
    );
    put("core.pareto.front_s", rec.total_s("core.pareto.front"), "s");
    let json_bytes: usize = searched.iter().map(|s| s.json_bytes).sum();
    put("core.export.json_bytes", json_bytes as f64, "B");

    let slowest = replays
        .iter()
        .enumerate()
        .max_by(|a, b| {
            let x = a.1.ns as f64 / a.1.events.max(1) as f64;
            let y = b.1.ns as f64 / b.1.events.max(1) as f64;
            x.total_cmp(&y)
        })
        .map(|(j, r)| {
            let inst = p.insts[j % p.insts.len()].name.clone();
            (r.label.clone(), inst, r.ns as f64 / r.events.max(1) as f64)
        });
    let weighted_replay_s = replays
        .iter()
        .map(|r| (r.ns * r.multiplicity) as f64)
        .sum::<f64>()
        / 1e9;
    LayerReport {
        metrics: m,
        slowest,
        weighted_replay_s,
    }
}
