//! The three benchmark workloads: how each is set up, how one exploration
//! runs, and the reference front its quality is measured against.

use std::sync::Arc;

use dmx_core::export::{robust_to_json, search_to_json};
use dmx_core::scenario::{MaterializedScenario, RobustOutcome, ScenarioSuite};
use dmx_core::{
    Aggregate, ConstraintSet, ExhaustiveSearch, Exploration, Explorer, FidelityPlan, GeneticSearch,
    GenomeSpace, GrammarSpace, MultiScenarioEvaluator, Objective, ParamSpace, SearchOutcome,
};
use dmx_memhier::{presets, MemoryHierarchy};
use dmx_trace::gen::{EasyportConfig, TraceGenerator};
use dmx_trace::{CompiledTrace, Trace, TraceStats};

use crate::spans::Recorder;

/// Genetic searches run back to back in one `robust-ga` exploration.
const ROBUST_GA_SEARCHES: u64 = 8;
/// Genetic searches run back to back in one `server-screen` exploration.
const SERVER_SCREEN_SEARCHES: u64 = 16;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Exhaustive odometer sweep of one paper-scale Easyport trace.
    PaperSweep,
    /// Worst-case robust GA over the `embedded-mix` suite.
    RobustGa,
    /// Multi-fidelity GA over the grammar space of the `server-mix` suite.
    ServerScreen,
}

impl Kind {
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "paper-sweep" => Some(Kind::PaperSweep),
            "robust-ga" => Some(Kind::RobustGa),
            "server-screen" => Some(Kind::ServerScreen),
            _ => None,
        }
    }

    pub fn suite(self) -> Option<ScenarioSuite> {
        let name = match self {
            Kind::PaperSweep => return None,
            Kind::RobustGa => "embedded-mix",
            Kind::ServerScreen => "server-mix",
        };
        Some(ScenarioSuite::builtin(name).expect("a built-in suite"))
    }

    pub fn objectives(self) -> Vec<Objective> {
        match self {
            Kind::PaperSweep | Kind::RobustGa => Objective::FIG1.to_vec(),
            Kind::ServerScreen => vec![Objective::Footprint, Objective::TailLatency],
        }
    }

    /// `Some` for robust (suite) workloads: how per-scenario metrics fold.
    pub fn aggregate(self) -> Option<Aggregate> {
        match self {
            Kind::PaperSweep => None,
            Kind::RobustGa | Kind::ServerScreen => Some(Aggregate::WorstCase),
        }
    }

    /// The GA seeds one exploration runs back to back, derived from the
    /// workload seed (empty for the exhaustive sweep).
    pub fn ga_seeds(self, seed: u64) -> Vec<u64> {
        let n = match self {
            Kind::PaperSweep => 0,
            Kind::RobustGa => ROBUST_GA_SEARCHES,
            Kind::ServerScreen => SERVER_SCREEN_SEARCHES,
        };
        (0..n)
            .map(|j| seed.wrapping_mul(1000).wrapping_add(j))
            .collect()
    }

    fn fidelity(self) -> Option<FidelityPlan> {
        (self == Kind::ServerScreen).then(FidelityPlan::halving)
    }
}

/// What the tool holds after set-up: everything a search call needs.
#[derive(Clone)]
pub enum Tool<'s> {
    Sweep {
        hierarchy: MemoryHierarchy,
        trace: Trace,
        space: ParamSpace,
        threads: usize,
    },
    Suite {
        evaluator: MultiScenarioEvaluator<'s>,
        space: Arc<dyn GenomeSpace>,
        threads: usize,
    },
}

impl<'s> Tool<'s> {
    /// The tool's set-up, as `dmx explore` pays it: spec plus seed to a
    /// searchable instance (trace generation, compile, space derivation).
    /// For the sweep the trace is compiled inside `Explorer::search`.
    pub fn setup(kind: Kind, suite: Option<&'s ScenarioSuite>, seed: u64, threads: usize) -> Self {
        match suite {
            None => {
                let hierarchy = presets::sp64k_dram4m();
                let trace = EasyportConfig::paper().generate(seed);
                let space = ParamSpace::suggest(&TraceStats::compute(&trace), &hierarchy);
                Tool::Sweep {
                    hierarchy,
                    trace,
                    space,
                    threads,
                }
            }
            Some(suite) => {
                let mut evaluator = MultiScenarioEvaluator::new(suite)
                    .with_seed(seed)
                    .with_threads(threads)
                    .with_objectives(&kind.objectives());
                if let Some(plan) = kind.fidelity() {
                    evaluator = evaluator.with_fidelity(plan);
                }
                // Materializes the suite once; `run` reuses it.
                let odometer = evaluator.odometer_space();
                let space: Arc<dyn GenomeSpace> = match kind {
                    Kind::ServerScreen => Arc::new(GrammarSpace::covering(&odometer)),
                    _ => Arc::new(odometer),
                };
                Tool::Suite {
                    evaluator: evaluator.with_space_arc(Arc::clone(&space)),
                    space,
                    threads,
                }
            }
        }
    }

    pub fn space(&self) -> &dyn GenomeSpace {
        match self {
            Tool::Sweep { space, .. } => space,
            Tool::Suite { space, .. } => &**space,
        }
    }

    pub fn threads(&self) -> usize {
        match self {
            Tool::Sweep { threads, .. } | Tool::Suite { threads, .. } => *threads,
        }
    }

    /// The same tool with a different evaluation worker count.
    pub fn with_threads(&self, threads: usize) -> Self {
        match self.clone() {
            Tool::Sweep {
                hierarchy,
                trace,
                space,
                ..
            } => Tool::Sweep {
                hierarchy,
                trace,
                space,
                threads,
            },
            Tool::Suite {
                evaluator, space, ..
            } => Tool::Suite {
                evaluator: evaluator.with_threads(threads),
                space,
                threads,
            },
        }
    }
}

/// One workload instance (platform plus compiled trace), built by the
/// benchmark itself for checking and for the traced per-layer replays.
pub struct Inst {
    pub name: String,
    pub hierarchy: MemoryHierarchy,
    pub trace: Trace,
    pub compiled: Arc<CompiledTrace>,
    pub constraints: ConstraintSet,
    pub weight: f64,
}

/// The benchmark's own view of a workload: its instances and space,
/// built call by call so the traced run can time each layer.
pub struct Prepared {
    pub kind: Kind,
    pub insts: Vec<Inst>,
    pub space: Arc<dyn GenomeSpace>,
    pub objectives: Vec<Objective>,
    pub ga_seeds: Vec<u64>,
}

impl Prepared {
    pub fn new(
        kind: Kind,
        suite: Option<&ScenarioSuite>,
        seed: u64,
        rec: &mut Recorder,
    ) -> Prepared {
        let (insts, space): (Vec<Inst>, Arc<dyn GenomeSpace>) = match suite {
            None => {
                let hierarchy = presets::sp64k_dram4m();
                let trace = rec.span("trace.generate", |_| EasyportConfig::paper().generate(seed));
                let compiled = rec.span("trace.compile", |_| CompiledTrace::compile(&trace));
                let space = rec.span("core.space.derive", |_| {
                    ParamSpace::suggest(&TraceStats::compute(&trace), &hierarchy)
                });
                let inst = Inst {
                    name: trace.name().to_owned(),
                    hierarchy,
                    trace,
                    compiled: Arc::new(compiled),
                    constraints: ConstraintSet::new(),
                    weight: 1.0,
                };
                (vec![inst], Arc::new(space))
            }
            Some(suite) => {
                // `ScenarioSuite::materialize`, one call at a time.
                let mats: Vec<MaterializedScenario<'_>> = suite
                    .scenarios
                    .iter()
                    .map(|s| {
                        let hierarchy = s.platform.build();
                        let trace =
                            rec.span("trace.generate", |_| s.workload.generate(s.seed ^ seed));
                        let compiled =
                            rec.span("trace.compile", |_| CompiledTrace::compile_shared(&trace));
                        MaterializedScenario {
                            scenario: s,
                            hierarchy,
                            trace,
                            compiled,
                        }
                    })
                    .collect();
                let space = rec.span("core.space.derive", |_| -> Arc<dyn GenomeSpace> {
                    let odometer = suite.suggest_space(&mats);
                    match kind {
                        Kind::ServerScreen => Arc::new(GrammarSpace::covering(&odometer)),
                        _ => Arc::new(odometer),
                    }
                });
                let insts = mats
                    .into_iter()
                    .map(|m| Inst {
                        name: m.scenario.name.clone(),
                        hierarchy: m.hierarchy,
                        trace: m.trace,
                        compiled: m.compiled,
                        constraints: m.scenario.constraints.clone(),
                        weight: m.scenario.weight,
                    })
                    .collect();
                (insts, space)
            }
        };
        Prepared {
            kind,
            insts,
            space,
            objectives: kind.objectives(),
            ga_seeds: kind.ga_seeds(seed),
        }
    }

    /// Logical events one full-fidelity evaluation of a genome replays
    /// (its trace on every instance).
    pub fn events_per_genome(&self) -> u64 {
        self.insts.iter().map(|i| i.compiled.len() as u64).sum()
    }
}

/// The result of one search call.
pub struct Searched {
    pub outcome: SearchOutcome,
    /// Per-instance result sets in the outcome's genome order (robust
    /// workloads only; the sweep's one instance is `outcome.exploration`).
    pub per_instance: Vec<Exploration>,
    pub json_bytes: usize,
}

impl Searched {
    /// The raw metrics of evaluated result `i` on instance `k`.
    pub fn instance_result(&self, k: usize, i: usize) -> &dmx_core::RunResult {
        match self.per_instance.get(k) {
            Some(exploration) => &exploration.results[i],
            None => &self.outcome.exploration.results[i],
        }
    }
}

/// Runs one exploration: the workload's search calls, each through front
/// and JSON export. Returns the results and the wall time of each search
/// call plus its export, in seconds.
pub fn explore(tool: &Tool<'_>, p: &Prepared, rec: &mut Recorder) -> (Vec<Searched>, Vec<f64>) {
    let mut out = Vec::new();
    let mut secs = Vec::new();
    match tool {
        Tool::Sweep {
            hierarchy,
            trace,
            space,
            threads,
        } => {
            let ((outcome, json), ns) = rec.span_timed("explore.search", |rec| {
                let outcome = rec.span("core.search", |_| {
                    Explorer::new(hierarchy).with_threads(*threads).search(
                        &ExhaustiveSearch,
                        space,
                        trace,
                        &p.objectives,
                    )
                });
                let json = rec.span("core.export.json", |_| {
                    search_to_json(&outcome, &p.objectives)
                });
                (outcome, json)
            });
            secs.push(ns as f64 / 1e9);
            out.push(Searched {
                outcome,
                per_instance: Vec::new(),
                json_bytes: json.len(),
            });
        }
        Tool::Suite { evaluator, .. } => {
            for &seed in &p.ga_seeds {
                let ga = GeneticSearch {
                    seed,
                    ..GeneticSearch::default()
                };
                let ((robust, json), ns) = rec.span_timed("explore.search", |rec| {
                    let robust = rec.span("core.search", |_| evaluator.run(&ga));
                    let json = rec.span("core.export.json", |_| robust_to_json(&robust));
                    (robust, json)
                });
                secs.push(ns as f64 / 1e9);
                let RobustOutcome {
                    outcome, scenarios, ..
                } = robust;
                out.push(Searched {
                    outcome,
                    per_instance: scenarios.into_iter().map(|s| s.exploration).collect(),
                    json_bytes: json.len(),
                });
            }
        }
    }
    (out, secs)
}

/// The reference front the exploration's merged front is scored
/// against, as 2-D points (dominated points add no area).
/// `paper-sweep` and `robust-ga`: the exhaustive front of the same space
/// and seed, through a different code path than the timed search
/// (`Explorer::run` for the sweep). `server-screen`: the fronts of the
/// same GA searches at full fidelity, merged.
pub fn reference_front(
    tool: &Tool<'_>,
    suite: Option<&ScenarioSuite>,
    seed: u64,
    p: &Prepared,
) -> Vec<(u64, u64)> {
    let pairs =
        |points: &[Vec<u64>]| -> Vec<(u64, u64)> { points.iter().map(|v| (v[0], v[1])).collect() };
    match (tool, p.kind) {
        (
            Tool::Sweep {
                hierarchy,
                trace,
                space,
                threads,
            },
            _,
        ) => {
            let exploration = Explorer::new(hierarchy)
                .with_threads(*threads)
                .run(space, trace);
            pairs(&exploration.pareto(&p.objectives).points)
        }
        (Tool::Suite { evaluator, .. }, Kind::RobustGa) => {
            pairs(&evaluator.run(&ExhaustiveSearch).outcome.front.points)
        }
        (Tool::Suite { space, .. }, _) => {
            let suite = suite.expect("suite workloads carry their suite");
            let full = MultiScenarioEvaluator::new(suite)
                .with_seed(seed)
                .with_threads(tool.threads())
                .with_objectives(&p.objectives)
                .with_space_arc(Arc::clone(space));
            p.ga_seeds
                .iter()
                .flat_map(|&s| {
                    let ga = GeneticSearch {
                        seed: s,
                        ..GeneticSearch::default()
                    };
                    pairs(&full.run(&ga).outcome.front.points)
                })
                .collect()
        }
    }
}
