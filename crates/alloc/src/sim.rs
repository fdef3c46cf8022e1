//! Trace-driven simulation: replay a workload against a configuration and
//! collect the paper's four metrics.
//!
//! # The replay kernel
//!
//! Replay is the hot path of every exploration: each objective the search
//! strategies optimize comes from a full trace replay, and robust
//! (scenario-suite) evaluation multiplies replay volume by the suite
//! size. The one kernel, behind [`Simulator::run_in_arena`], therefore
//! runs on a [`CompiledTrace`] — block ids pre-renamed to dense recycled
//! slots, accesses and ticks hoisted out of the op stream — so per-op
//! bookkeeping is a flat slab index instead of a hash lookup, and on a
//! reusable [`SimArena`] so the slab is allocated once per worker, not
//! once per genome. [`Simulator::start`] exposes the same replay as a
//! [`ReplayState`] that can pause between pool ops and report metrics
//! so far and a lower bound on its final metrics (the application
//! accesses and the allocator work still to come), which the exhaustive
//! sweep uses to stop dominated replays.
//!
//! [`Simulator::run_reference`] keeps the original hash-map interpreter
//! (over the uncompiled [`Trace`]) as a correctness oracle and throughput
//! baseline: the golden-metrics tests and proptests pin the two paths to
//! byte-identical [`SimMetrics`], and the `sim_throughput` bench reports
//! the kernel's speedup over it.

use std::collections::HashMap;

use dmx_memhier::{CostModel, CounterSet, MemoryHierarchy, MemoryLevel, CPU_CYCLES_PER_OP};
use dmx_trace::{BlockId, CompiledTrace, OpSizeIndex, Trace, TraceEvent};

use crate::block::BlockInfo;
use crate::composite::{CompositeAllocator, PoolId};
use crate::config::AllocatorConfig;
use crate::ctx::AllocCtx;
use crate::error::BuildError;
use crate::pool::MetaFloor;

/// Everything measured during one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// All memory accesses (allocator metadata + application data),
    /// per level.
    pub counters: CounterSet,
    /// Allocator-metadata accesses only, per level.
    pub meta_counters: CounterSet,
    /// Peak bytes reserved from the platform across all levels.
    pub footprint: u64,
    /// Peak bytes reserved per level.
    pub footprint_per_level: Vec<u64>,
    /// Total energy (dynamic access energy + static leakage over the
    /// run's cycles), picojoules.
    pub energy_pj: u64,
    /// Execution time, cycles: memory stalls + allocator CPU cost +
    /// application compute ticks.
    pub cycles: u64,
    /// Allocations served.
    pub allocs: u64,
    /// Frees served.
    pub frees: u64,
    /// Allocations that could not be served (platform exhausted). A
    /// configuration with failures is infeasible for this workload.
    pub failures: u64,
    /// Peak bytes of internal fragmentation across live blocks.
    pub peak_internal_frag: u64,
    /// Allocator operations executed (allocs + frees that reached a pool).
    pub ops: u64,
    /// Total shared-pool contention stall cycles charged (see
    /// [`ContentionParams`]). Provably 0 for single-threaded traces: the
    /// contention model is gated on more than one distinct thread id in
    /// the pool-op stream.
    pub contention_stalls: u64,
    /// Tail-latency proxy: the p99 of per-op charged cycles
    /// (`CPU_CYCLES_PER_OP + stall`). 0 for single-threaded traces,
    /// where no per-op stalls are observed.
    pub tail_latency: u64,
}

impl SimMetrics {
    /// Total accesses over all levels.
    pub fn total_accesses(&self) -> u64 {
        self.counters.total_accesses()
    }

    /// `true` if every allocation was served.
    pub fn feasible(&self) -> bool {
        self.failures == 0
    }

    /// Fraction of all accesses spent on allocator metadata.
    pub fn meta_overhead(&self) -> f64 {
        let total = self.counters.total_accesses();
        if total == 0 {
            return 0.0;
        }
        self.meta_counters.total_accesses() as f64 / total as f64
    }
}

/// Parameters of the shared-pool contention cost model.
///
/// Replay charges contention only for *threaded* traces (more than one
/// distinct thread id over the pool-op stream — single-threaded replays
/// take the original hot path and charge exactly zero). Every operation
/// that reaches a pool pays `stall_cycles` for each **distinct other
/// thread** that touched the same pool within the last `window` pool
/// operations on that pool. Per-thread-cache hits are free: a pool
/// touched by one thread only never stalls, and neither do operations on
/// different pools — only genuine sharing of a pool across threads pays.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ContentionParams {
    /// Stall cycles charged per distinct other thread sharing the pool
    /// within the sliding window.
    pub stall_cycles: u32,
    /// Sliding-window length in pool operations over which sharing is
    /// observed. 0 disables the model entirely.
    pub window: u32,
}

impl Default for ContentionParams {
    fn default() -> Self {
        // A cache-line ping-pong plus a short lock handoff per
        // contending thread, observed over a window about one request
        // burst long.
        ContentionParams {
            stall_cycles: 40,
            window: 64,
        }
    }
}

/// Sliding window of the last `window` ops on one pool, by thread rank
/// (see [`CompiledTrace::op_thread_ranks`]), with a per-rank count and a
/// running total of ranks present, so "distinct other threads" is O(1)
/// per op with plain array reads.
struct PoolWindow {
    ring: Vec<u32>,
    head: usize,
    filled: usize,
    /// `counts[rank]` = ops by `rank` in the window.
    counts: Vec<u32>,
    /// Ranks with a non-zero count.
    present: u32,
}

impl PoolWindow {
    /// A window of `window` ops (≥ 1) over thread ranks `0..threads`.
    fn new(window: usize, threads: usize) -> Self {
        PoolWindow {
            ring: vec![0; window],
            head: 0,
            filled: 0,
            counts: vec![0; threads],
            present: 0,
        }
    }

    /// Records thread `rank` touching the pool and returns the number of
    /// distinct *other* threads present in the window before this op.
    fn observe(&mut self, rank: u32) -> u32 {
        let r = rank as usize;
        let others = self.present - u32::from(self.counts[r] > 0);
        if self.filled == self.ring.len() {
            let old = self.ring[self.head] as usize;
            self.counts[old] -= 1;
            if self.counts[old] == 0 {
                self.present -= 1;
            }
        } else {
            self.filled += 1;
        }
        self.ring[self.head] = rank;
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        if self.counts[r] == 0 {
            self.present += 1;
        }
        self.counts[r] += 1;
        others
    }
}

/// Per-replay contention accounting: one sliding window per pool and a
/// histogram of ops by distinct-other count, from which the stall total
/// and the exact p99 per-op charge are recovered.
struct ContentionState {
    params: ContentionParams,
    pools: Vec<PoolWindow>,
    /// `dist[d]` = pool ops that observed `d` distinct other threads
    /// (`d < threads`, so the histogram never grows).
    dist: Vec<u64>,
}

impl ContentionState {
    fn new(params: ContentionParams, pool_count: usize, threads: usize) -> Self {
        ContentionState {
            params,
            pools: (0..pool_count)
                .map(|_| PoolWindow::new(params.window as usize, threads))
                .collect(),
            dist: vec![0; threads],
        }
    }

    /// Charges one successful pool op issued by thread `rank` against
    /// `pool`.
    fn charge(&mut self, pool: PoolId, rank: u32) {
        let d = self.pools[pool as usize].observe(rank);
        self.dist[d as usize] += 1;
    }

    /// Total stall cycles: every op pays `stall_cycles` per distinct
    /// other thread it observed.
    fn stalls(&self) -> u64 {
        let others: u64 = self
            .dist
            .iter()
            .enumerate()
            .map(|(d, &n)| d as u64 * n)
            .sum();
        u64::from(self.params.stall_cycles) * others
    }

    /// The p99 of per-op charged cycles, computed exactly from the
    /// distinct-count histogram: the charge is monotone in `d`, so the
    /// p99 op is the one at the `ceil(0.99 n)`-th position when ops are
    /// ordered by `d`.
    fn tail_latency(&self) -> u64 {
        let n: u64 = self.dist.iter().sum();
        if n == 0 {
            return 0;
        }
        let target = (99 * n).div_ceil(100);
        let mut cum = 0u64;
        let mut d99 = 0usize;
        for (d, &count) in self.dist.iter().enumerate() {
            cum += count;
            if cum >= target {
                d99 = d;
                break;
            }
        }
        CPU_CYCLES_PER_OP + u64::from(self.params.stall_cycles) * d99 as u64
    }
}

/// A live-block slab entry: where the block landed and which pool served
/// it (so the free routes back without an address map).
type SlabEntry = Option<(BlockInfo, PoolId)>;

/// Reusable per-worker simulation scratch state.
///
/// The only allocation the slab kernel needs that scales with the
/// workload is the live-block slab (`max_live_slots` entries). A worker
/// keeps one arena across all the genomes it evaluates; each replay
/// resets the slab in place instead of reallocating, and the arena counts
/// the replays run to the end, slab reuses and events for the
/// `--sim-stats` report.
#[derive(Debug, Default)]
pub struct SimArena {
    slab: Vec<SlabEntry>,
    /// Whether any replay has started on this arena (the first start is
    /// never a reuse).
    started: bool,
    runs: u64,
    reuses: u64,
    events: u64,
}

impl SimArena {
    /// A fresh, empty arena.
    pub fn new() -> Self {
        SimArena::default()
    }

    /// Replays run to the end ([`ReplayState::finish`]) through this
    /// arena. A replay dropped before its end is not counted.
    pub fn runs(&self) -> u64 {
        self.runs
    }

    /// Replays that reused the existing slab allocation instead of growing
    /// it — the arena's whole point; the first replay is never a reuse.
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// Total logical trace events of the replays counted by
    /// [`Self::runs`].
    pub fn events_replayed(&self) -> u64 {
        self.events
    }

    /// Readies the slab for a replay needing `slots` entries, reusing the
    /// existing allocation when it is big enough.
    fn prepare(&mut self, slots: usize) {
        if self.slab.len() >= slots {
            if self.started {
                self.reuses += 1;
            }
            self.slab[..slots].fill(None);
        } else {
            self.slab.clear();
            self.slab.resize(slots, None);
        }
        self.started = true;
    }
}

/// Scalar tallies a replay folds into [`SimMetrics`].
struct OpTallies {
    allocs: u64,
    frees: u64,
    failures: u64,
    tick_cycles: u64,
    peak_internal_frag: u64,
}

/// One kernel replay of a compiled trace, paused between pool ops.
///
/// [`Simulator::start`] builds the allocator and readies the arena;
/// [`Self::advance`] replays pool ops up to a cursor; [`Self::snapshot`]
/// reads the metrics as if the trace ended at the cursor;
/// [`Self::bound`] adds the application accesses and the allocator work
/// still to come; and
/// [`Self::finish`] replays the rest and returns the final metrics.
/// [`Simulator::run_in_arena`] is `start` then `finish`, so a replay
/// advanced in steps and one run straight through walk the same op loop
/// and end with byte-identical metrics.
///
/// Footprint (a peak), accesses, contention stalls, cycles and energy
/// only grow as the cursor moves, and a snapshot charges the whole
/// trace's compute ticks, so every snapshot is a lower bound on the
/// final value of each of them. [`Self::bound`] is a tighter lower bound
/// for replays that end feasible. The tail latency is a p99 and has no
/// such bound.
pub struct ReplayState<'a> {
    sim: Simulator<'a>,
    allocator: CompositeAllocator,
    trace: &'a CompiledTrace,
    arena: &'a mut SimArena,
    ctx: AllocCtx,
    tallies: OpTallies,
    live: LiveState,
    contention: Option<ContentionState>,
    /// The metadata floor of the pool ops not yet replayed, set up by the
    /// first [`Self::bound`].
    floors: Option<FloorsLeft>,
    /// Pool ops replayed so far.
    cursor: usize,
    _span: dmx_obs::SpanGuard,
}

/// The metadata floor of the pool ops a replay has not run yet, priced
/// per distinct size of an [`OpSizeIndex`] under one allocator's routing
/// ([`CompositeAllocator::meta_floor`]).
struct FloorsLeft {
    /// Per distinct size of the index: its alloc and free floors.
    per_size: Vec<MetaFloor>,
    /// Sum of the floors of pool ops `at..`.
    left: u64,
    at: usize,
}

impl FloorsLeft {
    /// The floors of every pool op of the trace `sizes` indexes.
    fn new(allocator: &CompositeAllocator, sizes: &OpSizeIndex) -> Self {
        let per_size: Vec<MetaFloor> = sizes
            .sizes()
            .iter()
            .map(|&size| allocator.meta_floor(size))
            .collect();
        let left = per_size
            .iter()
            .zip(sizes.counts())
            .map(|(floor, n)| n.allocs * floor.alloc + n.frees * floor.free)
            .sum();
        FloorsLeft {
            per_size,
            left,
            at: 0,
        }
    }

    /// The floor sum of pool ops `cursor..`, dropping the floors of the
    /// ops replayed since the last call.
    fn left_from(&mut self, cursor: usize, trace: &CompiledTrace, sizes: &OpSizeIndex) -> u64 {
        let done = self.at..cursor;
        let ops = &trace.pool_ops()[done.clone()];
        for (op, &size) in ops.iter().zip(&sizes.op_sizes()[done]) {
            let floor = self.per_size[size as usize];
            self.left -= if op.is_free() {
                floor.free
            } else {
                floor.alloc
            };
        }
        self.at = cursor;
        self.left
    }
}

impl ReplayState<'_> {
    /// Pool ops replayed so far.
    pub fn position(&self) -> usize {
        self.cursor
    }

    /// Replays pool ops up to (not including) op `to_op`, clamped to the
    /// trace's op count; a cursor already past `to_op` stays put.
    ///
    /// The loop walks only the allocator-visible pool-op stream
    /// ([`CompiledTrace::pool_ops`]); every op costs a slab index, never
    /// a hash lookup. Work that does not depend on allocator state is
    /// hoisted out of it: a block's lifetime application accesses
    /// ([`CompiledTrace::alloc_reads`] / [`CompiledTrace::alloc_writes`])
    /// are charged when it is placed, and the trace's compute ticks
    /// ([`CompiledTrace::total_tick_cycles`]) once per replay. Both are
    /// pure additive sums, so the metrics are byte-identical to charging
    /// each event in order. A block whose allocation failed leaves its
    /// slot empty, so its accesses are never charged and its free falls
    /// through, exactly as in the reference interpreter.
    pub fn advance(&mut self, to_op: usize) {
        let end = to_op.min(self.trace.pool_ops().len());
        if end > self.cursor {
            let slots = self.trace.max_live_slots() as usize;
            replay_ops(
                self.trace,
                self.cursor..end,
                &mut self.allocator,
                &mut self.ctx,
                &mut self.arena.slab[..slots],
                self.contention.as_mut(),
                &mut self.tallies,
                &mut self.live,
            );
            self.cursor = end;
        }
    }

    /// The metrics as if the trace ended at the cursor, with the whole
    /// trace's compute ticks charged: a lower bound on the final value of
    /// every metric except [`SimMetrics::tail_latency`].
    pub fn snapshot(&self) -> SimMetrics {
        self.sim
            .metrics(&self.ctx, &self.tallies, self.contention.as_ref())
    }

    /// A lower bound on the final metrics of this replay if every
    /// remaining allocation succeeds: the [`Self::snapshot`] plus the
    /// work still to come, each part at the cheapest figure any level
    /// offers for it:
    ///
    /// * the application reads `R` and writes `W` of the allocations not
    ///   yet replayed ([`CompiledTrace::reads_from`] /
    ///   [`CompiledTrace::writes_from`]);
    /// * the metadata floor `M` of the pool ops not yet replayed: each op
    ///   priced by [`CompositeAllocator::meta_floor`] for its size, read
    ///   off `sizes`, which must index this replay's trace;
    /// * the CPU cost of those `N` pool ops.
    ///
    /// So accesses get `+ R + W + M`, booked on the fastest level's
    /// counters (a bound's per-level split is not a placement); cycles
    /// get `+ R·min read latency + W·min write latency + M·min access
    /// latency + N·CPU_CYCLES_PER_OP`; and dynamic energy gets `+ R·min
    /// read energy + W·min write energy + M·min access energy`, with
    /// static energy recomputed over the bounded cycles. Every minimum is
    /// taken per figure over all levels, since a hierarchy's first level
    /// need not be its cheapest, and `M` is charged at the smaller of the
    /// read and write figures. Footprint and contention stalls are the
    /// snapshot's.
    ///
    /// A replay that later fails an allocation charges nothing for that
    /// block (no metadata floor, no accesses, and no free), so its final
    /// metrics can fall below this bound.
    ///
    /// # Panics
    ///
    /// Panics if `sizes` indexes a trace with another pool-op count.
    pub fn bound(&mut self, sizes: &OpSizeIndex) -> SimMetrics {
        let trace = self.trace;
        assert_eq!(
            sizes.op_sizes().len(),
            trace.pool_ops().len(),
            "the size index belongs to another trace"
        );
        let allocator = &self.allocator;
        let meta = self
            .floors
            .get_or_insert_with(|| FloorsLeft::new(allocator, sizes))
            .left_from(self.cursor, trace, sizes);
        let ops = (trace.pool_ops().len() - self.cursor) as u64;
        let hierarchy = self.sim.hierarchy;
        let ordinal = self.live.ordinal;
        let reads = trace.reads_from()[ordinal];
        let writes = trace.writes_from()[ordinal];
        let min = |figure: fn(&MemoryLevel) -> u64| {
            hierarchy
                .iter()
                .map(|(_, level)| figure(level))
                .min()
                .unwrap_or(0)
        };
        let (read_latency, write_latency) = (
            min(|l| u64::from(l.read_latency())),
            min(|l| u64::from(l.write_latency())),
        );
        let (read_pj, write_pj) = (
            min(MemoryLevel::read_energy_pj),
            min(MemoryLevel::write_energy_pj),
        );
        let cost = CostModel::new(hierarchy);
        let cycles = reads * read_latency
            + writes * write_latency
            + meta * read_latency.min(write_latency)
            + ops * CPU_CYCLES_PER_OP;
        let energy_pj = reads * read_pj + writes * write_pj + meta * read_pj.min(write_pj);

        let mut bound = self.snapshot();
        let dynamic_pj = bound.energy_pj - cost.static_energy_pj(bound.cycles);
        bound.cycles += cycles;
        bound.energy_pj = dynamic_pj + energy_pj + cost.static_energy_pj(bound.cycles);
        let fastest = hierarchy.fastest();
        bound.counters.record_reads(fastest, reads + meta);
        bound.counters.record_writes(fastest, writes);
        bound.meta_counters.record_reads(fastest, meta);
        bound.ops += ops;
        bound
    }

    /// Replays the rest of the trace and returns the final metrics,
    /// counting the replay and its events on the arena.
    pub fn finish(mut self) -> SimMetrics {
        self.advance(usize::MAX);
        let events = self.trace.len() as u64;
        self.arena.runs += 1;
        self.arena.events += events;
        dmx_obs::metrics().kernel_events.add(events);
        self.snapshot()
    }
}

/// Where a replay stands between two [`ReplayState::advance`] calls.
#[derive(Default)]
struct LiveState {
    /// Allocations replayed so far (the index into the per-alloc
    /// streams).
    ordinal: usize,
    /// Internal fragmentation of the blocks live now.
    internal_frag: u64,
}

/// The kernel loop: replays pool ops `ops` of `trace`. Every piece of
/// state it mutates arrives as its own `&mut`, so the compiler knows
/// none of them aliases another across the allocator calls.
#[allow(clippy::too_many_arguments)]
fn replay_ops(
    trace: &CompiledTrace,
    ops: std::ops::Range<usize>,
    allocator: &mut CompositeAllocator,
    ctx: &mut AllocCtx,
    slab: &mut [SlabEntry],
    mut contention: Option<&mut ContentionState>,
    tallies: &mut OpTallies,
    live: &mut LiveState,
) {
    let sizes = trace.alloc_sizes();
    let reads = trace.alloc_reads();
    let writes = trace.alloc_writes();
    let ranks = trace.op_thread_ranks();
    let pool_ops = &trace.pool_ops()[ops.clone()];
    for (op_idx, &op) in ops.zip(pool_ops) {
        let slot = op.slot() as usize;
        if op.is_free() {
            if let Some((info, pool)) = slab[slot].take() {
                live.internal_frag -= u64::from(info.internal_fragmentation());
                allocator.free(info.addr, pool, ctx);
                if let Some(c) = contention.as_deref_mut() {
                    c.charge(pool, ranks[op_idx]);
                }
                tallies.frees += 1;
            }
            continue;
        }
        let ordinal = live.ordinal;
        live.ordinal += 1;
        match allocator.alloc(sizes[ordinal], ctx) {
            Ok((info, pool)) => {
                tallies.allocs += 1;
                live.internal_frag += u64::from(info.internal_fragmentation());
                tallies.peak_internal_frag = tallies.peak_internal_frag.max(live.internal_frag);
                ctx.app_access(info.level, reads[ordinal], writes[ordinal]);
                if let Some(c) = contention.as_deref_mut() {
                    c.charge(pool, ranks[op_idx]);
                }
                debug_assert!(slab[slot].is_none(), "slot already live");
                slab[slot] = Some((info, pool));
            }
            // The block never materializes, and no pool was touched, so
            // no contention is charged.
            Err(_) => tallies.failures += 1,
        }
    }
}

/// Replays traces against allocator configurations over a fixed platform.
#[derive(Debug, Clone, Copy)]
pub struct Simulator<'h> {
    hierarchy: &'h MemoryHierarchy,
    contention: ContentionParams,
}

impl<'h> Simulator<'h> {
    /// A simulator over `hierarchy` with default CPU cost parameters.
    pub fn new(hierarchy: &'h MemoryHierarchy) -> Self {
        Simulator {
            hierarchy,
            contention: ContentionParams::default(),
        }
    }

    /// Overrides the shared-pool contention parameters (only observable
    /// on threaded traces; see [`ContentionParams`]).
    pub fn with_contention(mut self, params: ContentionParams) -> Self {
        self.contention = params;
        self
    }

    /// Contention accounting for one replay over `threads` distinct
    /// pool-op threads, or `None` when the trace is single-threaded or
    /// the model is disabled — the gate that keeps tid-0-only replays on
    /// the original hot path with provably zero contention cycles.
    fn contention_state(&self, threads: u32, pool_count: usize) -> Option<ContentionState> {
        (threads > 1 && self.contention.window > 0)
            .then(|| ContentionState::new(self.contention, pool_count, threads as usize))
    }

    /// The platform this simulator models.
    pub fn hierarchy(&self) -> &MemoryHierarchy {
        self.hierarchy
    }

    /// Builds `config` and replays `trace` against it.
    ///
    /// Compiles the trace first; callers replaying one workload against
    /// many configurations should compile once and use
    /// [`Self::run_in_arena`] with one arena per worker instead.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError`] if the configuration is invalid; runtime
    /// allocation failures are *not* errors — they are counted in
    /// [`SimMetrics::failures`] (the configuration is infeasible, which is
    /// itself an exploration result).
    pub fn run(&self, config: &AllocatorConfig, trace: &Trace) -> Result<SimMetrics, BuildError> {
        self.run_in_arena(config, &CompiledTrace::compile(trace), &mut SimArena::new())
    }

    /// Builds `config` and replays the compiled `trace` through a
    /// caller-owned [`SimArena`] — the evaluator hot path: one arena per
    /// worker, reused across genomes.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_in_arena(
        &self,
        config: &AllocatorConfig,
        trace: &CompiledTrace,
        arena: &mut SimArena,
    ) -> Result<SimMetrics, BuildError> {
        Ok(self.start(config, trace, arena)?.finish())
    }

    /// Builds `config` and readies a replay of the compiled `trace`
    /// through `arena`, with the cursor before the first pool op.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn start<'a>(
        &self,
        config: &AllocatorConfig,
        trace: &'a CompiledTrace,
        arena: &'a mut SimArena,
    ) -> Result<ReplayState<'a>, BuildError>
    where
        'h: 'a,
    {
        let allocator = config.build(self.hierarchy)?;
        let span = dmx_obs::span(dmx_obs::names::KERNEL_REPLAY, trace.len() as u64);
        dmx_obs::metrics().kernel_replays.incr();
        arena.prepare(trace.max_live_slots() as usize);
        Ok(ReplayState {
            sim: *self,
            contention: self.contention_state(trace.distinct_op_tids(), allocator.pool_count()),
            allocator,
            trace,
            arena,
            ctx: AllocCtx::new(self.hierarchy.len()),
            tallies: OpTallies {
                allocs: 0,
                frees: 0,
                failures: 0,
                tick_cycles: trace.total_tick_cycles(),
                peak_internal_frag: 0,
            },
            live: LiveState::default(),
            floors: None,
            cursor: 0,
            _span: span,
        })
    }

    /// The original hash-map interpreter over the uncompiled trace, kept
    /// as the correctness oracle (golden tests and proptests pin it
    /// byte-identical to the kernel behind [`Self::run_in_arena`]) and as
    /// the `sim_throughput` bench baseline.
    ///
    /// # Errors
    ///
    /// As [`Self::run`].
    pub fn run_reference(
        &self,
        config: &AllocatorConfig,
        trace: &Trace,
    ) -> Result<SimMetrics, BuildError> {
        let mut allocator = config.build(self.hierarchy)?;
        let mut ctx = AllocCtx::new(self.hierarchy.len());
        let mut placed: HashMap<BlockId, (BlockInfo, PoolId)> = HashMap::new();
        let mut allocs = 0u64;
        let mut frees = 0u64;
        let mut failures = 0u64;
        let mut tick_cycles = 0u64;
        let mut live_internal_frag = 0u64;
        let mut peak_internal_frag = 0u64;
        // Re-derive the thread ranks from the raw events (the kernel
        // reads them off the compiled rank stream): first-appearance
        // order among allocator ops. Contention only applies when more
        // than one distinct thread issues allocator ops.
        let mut rank_of: HashMap<u32, u32> = HashMap::new();
        for tid in trace
            .iter()
            .filter(|ev| ev.is_allocator_op())
            .filter_map(|ev| ev.thread_id())
        {
            let next = rank_of.len() as u32;
            rank_of.entry(tid.0).or_insert(next);
        }
        let mut contention = self.contention_state(rank_of.len() as u32, allocator.pool_count());

        for event in trace {
            match *event {
                TraceEvent::Alloc { id, size, tid } => match allocator.alloc(size, &mut ctx) {
                    Ok((info, pool)) => {
                        allocs += 1;
                        live_internal_frag += u64::from(info.internal_fragmentation());
                        peak_internal_frag = peak_internal_frag.max(live_internal_frag);
                        if let Some(c) = contention.as_mut() {
                            c.charge(pool, rank_of[&tid.0]);
                        }
                        placed.insert(id, (info, pool));
                    }
                    Err(_) => {
                        failures += 1;
                    }
                },
                TraceEvent::Free { id, tid } => {
                    if let Some((info, pool)) = placed.remove(&id) {
                        live_internal_frag -= u64::from(info.internal_fragmentation());
                        allocator.free(info.addr, pool, &mut ctx);
                        if let Some(c) = contention.as_mut() {
                            c.charge(pool, rank_of[&tid.0]);
                        }
                        frees += 1;
                    }
                }
                TraceEvent::Access {
                    id, reads, writes, ..
                } => {
                    if let Some((info, _)) = placed.get(&id) {
                        ctx.app_access(info.level, u64::from(reads), u64::from(writes));
                    }
                }
                TraceEvent::Tick { cycles } => {
                    tick_cycles += u64::from(cycles);
                }
            }
        }

        Ok(self.metrics(
            &ctx,
            &OpTallies {
                allocs,
                frees,
                failures,
                tick_cycles,
                peak_internal_frag,
            },
            contention.as_ref(),
        ))
    }

    /// Folds the accounting context into metrics (shared by the kernel
    /// and the reference interpreter). `contention` is `None` for
    /// single-threaded replays, which therefore report zero
    /// stalls/tail-latency and the exact pre-threading cycle count.
    fn metrics(
        &self,
        ctx: &AllocCtx,
        tallies: &OpTallies,
        contention: Option<&ContentionState>,
    ) -> SimMetrics {
        let cost = CostModel::new(self.hierarchy);
        let (contention_stalls, tail_latency) = match contention {
            Some(c) => (c.stalls(), c.tail_latency()),
            None => (0, 0),
        };
        let cycles =
            cost.total_cycles(&ctx.counters, ctx.ops) + tallies.tick_cycles + contention_stalls;
        let energy_pj = cost.total_energy_pj(&ctx.counters, cycles);
        SimMetrics {
            footprint: ctx.footprint.peak_total(),
            footprint_per_level: ctx.footprint.peaks().to_vec(),
            energy_pj,
            cycles,
            allocs: tallies.allocs,
            frees: tallies.frees,
            failures: tallies.failures,
            peak_internal_frag: tallies.peak_internal_frag,
            ops: ctx.ops,
            counters: ctx.counters.clone(),
            meta_counters: ctx.meta_counters.clone(),
            contention_stalls,
            tail_latency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{CoalescePolicy, FitPolicy, FreeOrder, SplitPolicy};
    use dmx_memhier::presets;
    use dmx_trace::gen::{ramp, EasyportConfig, TraceGenerator, VtcConfig};

    fn baseline(hier: &MemoryHierarchy) -> AllocatorConfig {
        AllocatorConfig::general_only(
            hier.slowest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        )
    }

    #[test]
    fn ramp_trace_metrics_are_sane() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = ramp(100, 64);
        let m = sim.run(&baseline(&hier), &trace).unwrap();
        assert_eq!(m.allocs, 100);
        assert_eq!(m.frees, 100);
        assert_eq!(m.ops, 200);
        assert!(m.feasible());
        assert!(m.footprint >= 100 * 64, "footprint covers live peak");
        assert!(m.total_accesses() > 0);
        assert!(m.energy_pj > 0);
        assert!(m.cycles > 0);
    }

    #[test]
    fn footprint_at_least_peak_live_bytes() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(11);
        let m = sim.run(&baseline(&hier), &trace).unwrap();
        assert!(m.feasible());
        assert!(
            m.footprint >= trace.peak_live_bytes(),
            "footprint {} < peak live {}",
            m.footprint,
            trace.peak_live_bytes()
        );
    }

    #[test]
    fn paper_example_beats_naive_baseline_on_easyport() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(5);
        let naive = sim.run(&baseline(&hier), &trace).unwrap();
        let tuned = sim
            .run(&AllocatorConfig::paper_example(&hier), &trace)
            .unwrap();
        assert!(tuned.feasible() && naive.feasible());
        assert!(
            tuned.energy_pj < naive.energy_pj,
            "scratchpad placement must reduce energy: {} vs {}",
            tuned.energy_pj,
            naive.energy_pj
        );
        // Against a scan-heavy general pool the dedicated pools must also
        // win on raw accesses (LIFO first-fit happens to suit a pipelined
        // packet workload, so that baseline is compared on energy only).
        let scanning = sim
            .run(
                &AllocatorConfig::general_only(
                    hier.slowest(),
                    FitPolicy::BestFit,
                    FreeOrder::Fifo,
                    CoalescePolicy::Never,
                    SplitPolicy::Never,
                ),
                &trace,
            )
            .unwrap();
        assert!(
            tuned.total_accesses() < scanning.total_accesses(),
            "dedicated pools must reduce accesses: {} vs {}",
            tuned.total_accesses(),
            scanning.total_accesses()
        );
    }

    #[test]
    fn ticks_contribute_to_cycles_only() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = VtcConfig::small().generate(3);
        let m = sim.run(&baseline(&hier), &trace).unwrap();
        let stats = dmx_trace::TraceStats::compute(&trace);
        assert!(
            m.cycles > stats.tick_cycles,
            "cycles include ticks + stalls"
        );
    }

    #[test]
    fn infeasible_config_counts_failures() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        // Everything forced onto the 64 KB scratchpad; VTC needs far more.
        let cfg = AllocatorConfig::general_only(
            hier.fastest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let trace = VtcConfig::paper().generate(1);
        let m = sim.run(&cfg, &trace).unwrap();
        assert!(!m.feasible());
        assert!(m.failures > 0);
    }

    #[test]
    fn meta_overhead_is_a_fraction() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(2);
        let m = sim.run(&baseline(&hier), &trace).unwrap();
        let f = m.meta_overhead();
        assert!(f > 0.0 && f < 1.0, "meta overhead {f}");
    }

    #[test]
    fn invalid_config_is_a_build_error() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let cfg = AllocatorConfig { pools: vec![] };
        assert!(sim.run(&cfg, &ramp(1, 8)).is_err());
    }

    #[test]
    fn determinism_same_inputs_same_metrics() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(9);
        let cfg = AllocatorConfig::paper_example(&hier);
        let a = sim.run(&cfg, &trace).unwrap();
        let b = sim.run(&cfg, &trace).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn kernel_matches_reference_interpreter() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        for seed in [1, 7, 23] {
            let trace = EasyportConfig::small().generate(seed);
            for cfg in [baseline(&hier), AllocatorConfig::paper_example(&hier)] {
                let reference = sim.run_reference(&cfg, &trace).unwrap();
                let compiled = sim.run(&cfg, &trace).unwrap();
                assert_eq!(reference, compiled, "seed {seed} cfg {}", cfg.label());
            }
        }
    }

    #[test]
    fn kernel_matches_reference_on_infeasible_configs() {
        // Failed allocations leave their slot empty; later frees/accesses
        // on that block must be dropped in both interpreters.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let cfg = AllocatorConfig::general_only(
            hier.fastest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let trace = VtcConfig::small().generate(4);
        let reference = sim.run_reference(&cfg, &trace).unwrap();
        let compiled = sim.run(&cfg, &trace).unwrap();
        assert!(!reference.feasible(), "fixture must exercise failures");
        assert_eq!(reference, compiled);
    }

    #[test]
    fn arena_reuse_preserves_metrics_and_counts() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(9);
        let compiled = CompiledTrace::compile(&trace);
        let cfg = AllocatorConfig::paper_example(&hier);
        let fresh = sim
            .run_in_arena(&cfg, &compiled, &mut SimArena::new())
            .unwrap();

        let mut arena = SimArena::new();
        let a = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
        let b = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
        let c = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
        assert_eq!(a, fresh);
        assert_eq!(b, fresh, "slab reuse must not leak state between runs");
        assert_eq!(c, fresh);
        assert_eq!(arena.runs(), 3);
        assert_eq!(arena.reuses(), 2, "every run after the first reuses");
        assert_eq!(arena.events_replayed(), 3 * compiled.len() as u64);
    }

    #[test]
    fn batch_replay_matches_singles_byte_for_byte() {
        // A worker's batch: different configurations replayed back to
        // back through one arena must each match a standalone run.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = EasyportConfig::small().generate(9);
        let compiled = CompiledTrace::compile(&trace);
        let configs = vec![
            baseline(&hier),
            AllocatorConfig::paper_example(&hier),
            AllocatorConfig::general_only(
                hier.slowest(),
                FitPolicy::BestFit,
                FreeOrder::SizeOrdered,
                CoalescePolicy::Never,
                SplitPolicy::Never,
            ),
        ];
        let mut arena = SimArena::new();
        for cfg in &configs {
            let got = sim.run_in_arena(cfg, &compiled, &mut arena).unwrap();
            let single = sim.run_reference(cfg, &trace).unwrap();
            assert_eq!(got, single, "batched run diverges on {}", cfg.label());
        }
        assert_eq!(arena.runs(), 3);
        assert_eq!(arena.reuses(), 2);
        assert_eq!(arena.events_replayed(), 3 * compiled.len() as u64);
    }

    #[test]
    fn batch_replay_handles_failing_lanes() {
        // One configuration is infeasible (everything forced onto the
        // scratchpad); its failures must not leak into the runs that
        // share its arena, in either order.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = VtcConfig::small().generate(4);
        let compiled = CompiledTrace::compile(&trace);
        let tight = AllocatorConfig::general_only(
            hier.fastest(),
            FitPolicy::FirstFit,
            FreeOrder::Lifo,
            CoalescePolicy::Never,
            SplitPolicy::Never,
        );
        let roomy = baseline(&hier);
        let expect_tight = sim.run_reference(&tight, &trace).unwrap();
        let expect_roomy = sim.run_reference(&roomy, &trace).unwrap();
        assert!(!expect_tight.feasible(), "fixture must exercise failures");
        assert!(expect_roomy.feasible());
        let mut arena = SimArena::new();
        let jobs = [
            (&tight, &expect_tight),
            (&roomy, &expect_roomy),
            (&tight, &expect_tight),
            (&roomy, &expect_roomy),
        ];
        for (cfg, want) in jobs {
            let got = sim.run_in_arena(cfg, &compiled, &mut arena).unwrap();
            assert_eq!(&got, want, "state leaked into {}", cfg.label());
        }
    }

    #[test]
    fn batch_of_one_matches_single_kernel_and_reuses_arena() {
        // One arena serving jobs over traces of different sizes, as a
        // worker does across suite instances: the slab sized for the
        // larger trace is reset, not reallocated, for the smaller one.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let cfg = AllocatorConfig::paper_example(&hier);
        let large = EasyportConfig::small().generate(2);
        let small = ramp(40, 24);
        let (large_c, small_c) = (
            CompiledTrace::compile(&large),
            CompiledTrace::compile(&small),
        );
        let mut arena = SimArena::new();
        let a = sim.run_in_arena(&cfg, &large_c, &mut arena).unwrap();
        let b = sim.run_in_arena(&cfg, &small_c, &mut arena).unwrap();
        let c = sim.run_in_arena(&cfg, &large_c, &mut arena).unwrap();
        assert_eq!(a, sim.run(&cfg, &large).unwrap());
        assert_eq!(b, sim.run(&cfg, &small).unwrap());
        assert_eq!(c, a, "slab reuse must not leak state across traces");
        assert_eq!(arena.runs(), 3);
        assert_eq!(arena.reuses(), 2);
        assert_eq!(
            arena.events_replayed(),
            (2 * large_c.len() + small_c.len()) as u64
        );
    }

    /// A producer/consumer trace: even blocks are allocated on t1 and
    /// freed on t2, odd blocks the other way around, with accesses mixed
    /// in — every free crosses threads.
    fn cross_thread_trace() -> Trace {
        use dmx_trace::ThreadId;
        let mut events = Vec::new();
        for i in 0u64..60 {
            let (a, f) = if i % 2 == 0 {
                (ThreadId(1), ThreadId(2))
            } else {
                (ThreadId(2), ThreadId(1))
            };
            events.push(TraceEvent::alloc_on(
                a,
                BlockId(i),
                32 + (i as u32 % 5) * 16,
            ));
            events.push(TraceEvent::access_on(a, BlockId(i), 4, 2));
            if i >= 8 {
                events.push(TraceEvent::free_on(f, BlockId(i - 8)));
            }
            if i % 7 == 0 {
                events.push(TraceEvent::tick(13));
            }
        }
        for i in 52u64..60 {
            events.push(TraceEvent::free_on(ThreadId(1), BlockId(i)));
        }
        Trace::from_events("cross-thread", events).unwrap()
    }

    #[test]
    fn single_threaded_replay_charges_zero_contention() {
        let hier = presets::sp64k_dram4m();
        // Even with an aggressive contention model configured, a
        // tid-0-only trace must charge nothing and keep every metric at
        // its pre-threading value.
        let sim = Simulator::new(&hier);
        let loud = Simulator::new(&hier).with_contention(ContentionParams {
            stall_cycles: 10_000,
            window: 256,
        });
        let trace = EasyportConfig::small().generate(11);
        let base = sim.run(&baseline(&hier), &trace).unwrap();
        let m = loud.run(&baseline(&hier), &trace).unwrap();
        assert_eq!(m.contention_stalls, 0);
        assert_eq!(m.tail_latency, 0);
        assert_eq!(m, base);
    }

    #[test]
    fn threaded_replay_charges_contention_into_cycles() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let off = Simulator::new(&hier).with_contention(ContentionParams {
            stall_cycles: 40,
            window: 0,
        });
        let trace = cross_thread_trace();
        let cfg = baseline(&hier);
        let m = sim.run(&cfg, &trace).unwrap();
        let quiet = off.run(&cfg, &trace).unwrap();
        assert!(
            m.contention_stalls > 0,
            "two threads sharing one pool must stall"
        );
        assert!(m.tail_latency > CPU_CYCLES_PER_OP);
        assert_eq!(quiet.contention_stalls, 0, "window 0 disables the model");
        assert_eq!(
            m.cycles,
            quiet.cycles + m.contention_stalls,
            "stalls are charged on top of the base cycle count"
        );
    }

    #[test]
    fn kernels_match_reference_on_cross_thread_frees() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = cross_thread_trace();
        let compiled = CompiledTrace::compile(&trace);
        assert!(compiled.is_threaded());
        let mut arena = SimArena::new();
        for cfg in [baseline(&hier), AllocatorConfig::paper_example(&hier)] {
            let reference = sim.run_reference(&cfg, &trace).unwrap();
            let kernel = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
            assert_eq!(reference, kernel, "kernel diverges on {}", cfg.label());
            assert!(reference.contention_stalls > 0);
        }
    }

    #[test]
    fn contention_scales_with_stall_cycles() {
        let hier = presets::sp64k_dram4m();
        let trace = cross_thread_trace();
        let cfg = baseline(&hier);
        let one = Simulator::new(&hier)
            .with_contention(ContentionParams {
                stall_cycles: 1,
                window: 64,
            })
            .run(&cfg, &trace)
            .unwrap();
        let forty = Simulator::new(&hier)
            .with_contention(ContentionParams {
                stall_cycles: 40,
                window: 64,
            })
            .run(&cfg, &trace)
            .unwrap();
        assert_eq!(forty.contention_stalls, 40 * one.contention_stalls);
    }

    #[test]
    fn pool_window_counts_distinct_other_threads() {
        let mut w = PoolWindow::new(4, 4);
        assert_eq!(w.observe(1), 0, "empty window: nobody else");
        assert_eq!(w.observe(1), 0, "same thread again: still nobody else");
        assert_eq!(w.observe(2), 1, "t1 is in the window");
        assert_eq!(w.observe(3), 2, "t1 and t2 are in the window");
        // The count is taken over the last 4 ops *before* the new one
        // lands, so the full window [1, 1, 2, 3] still shows t1 and t2.
        assert_eq!(w.observe(3), 2);
        assert_eq!(w.observe(3), 2, "window [1, 2, 3, 3]: t1 and t2 remain");
        assert_eq!(w.observe(3), 1, "window [2, 3, 3, 3]: only t2 left");
        assert_eq!(w.observe(3), 0, "window [3, 3, 3, 3]: t3 all alone");
    }

    proptest::proptest! {
        /// The incremental window equals its definition: the number of
        /// distinct ranks other than the op's own among the pool's last
        /// `window` ops.
        #[test]
        fn pool_window_matches_brute_force_count(
            threads in 1u32..40,
            window in 1usize..=130,
            ops in proptest::collection::vec((0usize..3, 0u32..1000), 0..600),
        ) {
            let mut windows: Vec<PoolWindow> =
                (0..3).map(|_| PoolWindow::new(window, threads as usize)).collect();
            let mut history: Vec<Vec<u32>> = vec![Vec::new(); 3];
            for (pool, raw) in ops {
                let rank = raw % threads;
                let past = &history[pool];
                let mut others: Vec<u32> = past[past.len().saturating_sub(window)..]
                    .iter()
                    .copied()
                    .filter(|&r| r != rank)
                    .collect();
                others.sort_unstable();
                others.dedup();
                proptest::prop_assert_eq!(windows[pool].observe(rank), others.len() as u32);
                history[pool].push(rank);
            }
        }
    }

    /// Requests up to 1 KiB on a segregated tier, the rest on a general
    /// fallback.
    fn segregated_tier(hier: &MemoryHierarchy) -> AllocatorConfig {
        use crate::config::{PoolKind, PoolSpec, Route};
        AllocatorConfig {
            pools: vec![
                PoolSpec {
                    route: Route::Range { min: 1, max: 1024 },
                    kind: PoolKind::Segregated {
                        min_class: 16,
                        max_class: 1024,
                        chunk_bytes: 4096,
                    },
                    level: hier.slowest(),
                },
                PoolSpec::general(
                    hier.slowest(),
                    FitPolicy::FirstFit,
                    FreeOrder::Lifo,
                    CoalescePolicy::Never,
                    SplitPolicy::Never,
                ),
            ],
        }
    }

    #[test]
    fn contention_depends_on_thread_identity_not_tid_values() {
        use dmx_trace::gen::ServerMixConfig;
        use dmx_trace::ThreadId;
        // Relabel every thread id bijectively to sparse values, including
        // 0 and `u32::MAX`: both replay paths must charge exactly as on
        // the original trace.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let trace = ServerMixConfig::small().generate(17);
        let mut tids: Vec<u32> = trace
            .iter()
            .filter_map(|ev| ev.thread_id())
            .map(|t| t.0)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        let sparse = |i: usize| match i {
            0 => u32::MAX,
            1 => 0,
            _ => 0x9E37_79B9u32.wrapping_mul(i as u32) | 1,
        };
        let to: HashMap<u32, u32> = tids
            .iter()
            .enumerate()
            .map(|(i, &t)| (t, sparse(i)))
            .collect();
        let mut images: Vec<u32> = to.values().copied().collect();
        images.sort_unstable();
        images.dedup();
        assert_eq!(images.len(), tids.len(), "relabelling must be a bijection");
        assert!(tids.len() > 2 && to[&tids[0]] == u32::MAX && to[&tids[1]] == 0);
        let relabel = |t: ThreadId| ThreadId(to[&t.0]);
        let events = trace
            .iter()
            .map(|ev| match *ev {
                TraceEvent::Alloc { id, size, tid } => TraceEvent::alloc_on(relabel(tid), id, size),
                TraceEvent::Free { id, tid } => TraceEvent::free_on(relabel(tid), id),
                TraceEvent::Access {
                    id,
                    reads,
                    writes,
                    tid,
                } => TraceEvent::access_on(relabel(tid), id, reads, writes),
                TraceEvent::Tick { cycles } => TraceEvent::tick(cycles),
            })
            .collect();
        let sparse_trace = Trace::from_events(trace.name(), events).unwrap();
        let configs = [
            baseline(&hier),
            AllocatorConfig::paper_example(&hier),
            segregated_tier(&hier),
        ];
        for cfg in configs {
            let want = sim.run(&cfg, &trace).unwrap();
            assert!(want.contention_stalls > 0, "{} must contend", cfg.label());
            assert_eq!(
                sim.run(&cfg, &sparse_trace).unwrap(),
                want,
                "{}",
                cfg.label()
            );
            assert_eq!(
                sim.run_reference(&cfg, &sparse_trace).unwrap(),
                want,
                "{}",
                cfg.label()
            );
        }
    }

    #[test]
    fn tail_latency_is_p99_of_charged_cycles() {
        let params = ContentionParams {
            stall_cycles: 40,
            window: 8,
        };
        let mut c = ContentionState::new(params, 1, 2);
        c.dist = vec![99, 1];
        assert_eq!(
            c.tail_latency(),
            CPU_CYCLES_PER_OP,
            "p99 op saw 0 others at 99/100"
        );
        c.dist = vec![98, 2];
        assert_eq!(
            c.tail_latency(),
            CPU_CYCLES_PER_OP + 40,
            "p99 op saw 1 other"
        );
        c.dist = vec![];
        assert_eq!(c.tail_latency(), 0, "no ops observed");
    }

    /// Every metric a snapshot bounds: all but the p99 tail latency.
    fn bounded(m: &SimMetrics) -> [u64; 5] {
        [
            m.footprint,
            m.total_accesses(),
            m.cycles,
            m.energy_pj,
            m.contention_stalls,
        ]
    }

    #[test]
    fn stepped_replay_matches_straight_run_and_snapshots_bound_it() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let server = dmx_trace::gen::ServerMixConfig::small().generate(5);
        for (trace, cfg) in [
            (EasyportConfig::small().generate(3), baseline(&hier)),
            (
                EasyportConfig::small().generate(4),
                AllocatorConfig::paper_example(&hier),
            ),
            (cross_thread_trace(), segregated_tier(&hier)),
            (server, baseline(&hier)),
        ] {
            let compiled = CompiledTrace::compile(&trace);
            let want = sim.run_reference(&cfg, &trace).unwrap();
            let ops = compiled.pool_ops().len();
            let mut arena = SimArena::new();
            let mut replay = sim.start(&cfg, &compiled, &mut arena).unwrap();
            let mut prev = [0u64; 5];
            for to_op in [1, 7, 7, 3, 250, ops / 2, ops + 9] {
                let was_at = replay.position();
                replay.advance(to_op);
                assert_eq!(replay.position(), to_op.min(ops).max(was_at));
                let now = bounded(&replay.snapshot());
                for (k, ((&p, &n), &end)) in prev.iter().zip(&now).zip(&bounded(&want)).enumerate()
                {
                    assert!(p <= n, "{}: metric {k} fell from {p} to {n}", cfg.label());
                    assert!(
                        n <= end,
                        "{}: metric {k} snapshot above its final value",
                        cfg.label()
                    );
                }
                prev = now;
            }
            assert_eq!(replay.finish(), want, "stepped replay of {}", cfg.label());
            assert_eq!(arena.runs(), 1);
            assert_eq!(arena.events_replayed(), compiled.len() as u64);
        }
    }

    /// Two levels where neither is cheapest at everything: `near` has
    /// the lower read latency and write energy, `far` the lower write
    /// latency and read energy.
    fn crossed_costs() -> MemoryHierarchy {
        use dmx_memhier::LevelKind;
        MemoryHierarchy::new(vec![
            MemoryLevel::builder("near", LevelKind::Sram)
                .capacity(4 << 20)
                .read_latency(1)
                .write_latency(6)
                .read_energy_pj(90)
                .write_energy_pj(20)
                .leakage_pj_per_kcycle(300)
                .build(),
            MemoryLevel::builder("far", LevelKind::Dram)
                .capacity(4 << 20)
                .read_latency(4)
                .write_latency(2)
                .read_energy_pj(30)
                .write_energy_pj(80)
                .leakage_pj_per_kcycle(700)
                .build(),
        ])
        .unwrap()
    }

    /// One configuration per pool kind on the [`crossed_costs`] levels:
    /// each kind serves most requests, as the fallback or on a wide
    /// range, and the general fallbacks cover the footer and coalescing
    /// variants of its floors.
    fn one_config_per_pool_kind(hier: &MemoryHierarchy) -> Vec<AllocatorConfig> {
        use crate::config::{PoolKind, PoolSpec, Route};
        let (near, far) = (hier.fastest(), hier.slowest());
        let fallback = |kind| PoolSpec {
            route: Route::Fallback,
            kind,
            level: far,
        };
        let mut near_only = baseline(hier);
        near_only.pools[0].level = near;
        let tagged = AllocatorConfig::general_only(
            far,
            FitPolicy::BestFit,
            FreeOrder::Lifo,
            CoalescePolicy::Immediate,
            SplitPolicy::MinRemainder(16),
        );
        let region = AllocatorConfig {
            pools: vec![
                PoolSpec {
                    route: Route::Range { min: 1, max: 128 },
                    kind: PoolKind::Region { chunk_bytes: 8192 },
                    level: near,
                },
                baseline(hier).pools.remove(0),
            ],
        };
        vec![
            baseline(hier),
            near_only,
            tagged,
            AllocatorConfig::paper_example(hier),
            AllocatorConfig {
                pools: vec![fallback(PoolKind::Segregated {
                    min_class: 16,
                    max_class: 256,
                    chunk_bytes: 4096,
                })],
            },
            AllocatorConfig {
                pools: vec![fallback(PoolKind::Buddy {
                    min_order: 4,
                    max_order: 14,
                })],
            },
            region,
        ]
    }

    #[test]
    fn bound_stays_below_the_final_metrics_of_feasible_replays() {
        let hier = crossed_costs();
        let sim = Simulator::new(&hier);
        let trace = CompiledTrace::compile(&EasyportConfig::small().generate(6));
        let sizes = OpSizeIndex::new(&trace);
        let ops = trace.pool_ops().len();
        assert!(ops > 2 * 1024, "the fixture must cross several strides");
        for cfg in one_config_per_pool_kind(&hier) {
            let mut arena = SimArena::new();
            let want = sim.run_in_arena(&cfg, &trace, &mut arena).unwrap();
            assert!(want.feasible(), "{}", cfg.label());
            let mut replay = sim.start(&cfg, &trace, &mut arena).unwrap();
            let mut tighter = false;
            for to_op in (1024..ops).step_by(1024) {
                replay.advance(to_op);
                let (snapshot, bound) = (replay.snapshot(), replay.bound(&sizes));
                let meta_added =
                    bound.meta_counters.total_accesses() > snapshot.meta_counters.total_accesses();
                let (snapshot, bound) = (bounded(&snapshot), bounded(&bound));
                for (k, ((&s, &b), &end)) in
                    snapshot.iter().zip(&bound).zip(&bounded(&want)).enumerate()
                {
                    assert!(
                        s <= b,
                        "{}: metric {k} bound below the snapshot",
                        cfg.label()
                    );
                    assert!(
                        b <= end,
                        "{}: metric {k} bound {b} above {end}",
                        cfg.label()
                    );
                }
                tighter |= meta_added && bound[2] > snapshot[2] && bound[3] > snapshot[3];
            }
            assert!(tighter, "{}: the bound never added work", cfg.label());
            replay.advance(ops);
            assert_eq!(
                bounded(&replay.bound(&sizes)),
                bounded(&want),
                "with nothing left the bound is the final value"
            );
        }
    }

    #[test]
    fn abandoned_replays_count_as_started_not_run() {
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let compiled = CompiledTrace::compile(&EasyportConfig::small().generate(9));
        let cfg = baseline(&hier);
        let mut arena = SimArena::new();
        let mut replay = sim.start(&cfg, &compiled, &mut arena).unwrap();
        replay.advance(100);
        drop(replay);
        let full = sim.run_in_arena(&cfg, &compiled, &mut arena).unwrap();
        assert_eq!(
            full,
            sim.run_in_arena(&cfg, &compiled, &mut SimArena::new())
                .unwrap()
        );
        assert_eq!(arena.runs(), 1, "only the replay run to the end counts");
        assert_eq!(arena.reuses(), 1, "the second start reused the slab");
        assert_eq!(arena.events_replayed(), compiled.len() as u64);
    }

    #[test]
    fn arena_shrinking_and_growing_workloads() {
        // A big trace then a small one then the big one again: the slab
        // must shrink/grow transparently with identical metrics.
        let hier = presets::sp64k_dram4m();
        let sim = Simulator::new(&hier);
        let big = CompiledTrace::compile(&EasyportConfig::small().generate(3));
        let small = CompiledTrace::compile(&ramp(5, 32));
        let cfg = baseline(&hier);
        let mut arena = SimArena::new();
        let b1 = sim.run_in_arena(&cfg, &big, &mut arena).unwrap();
        let s1 = sim.run_in_arena(&cfg, &small, &mut arena).unwrap();
        let b2 = sim.run_in_arena(&cfg, &big, &mut arena).unwrap();
        assert_eq!(b1, b2);
        assert_eq!(s1, sim.run(&cfg, &ramp(5, 32)).unwrap());
        assert_eq!(arena.reuses(), 2, "small + repeat big reuse the slab");
    }
}
