//! The compiled, replay-optimized trace representation.
//!
//! A [`Trace`](crate::Trace) is the *validated* event stream: block ids
//! are arbitrary `u64`s (real applications reuse pointer values), so a
//! replayer must keep an id → block map — a hash lookup on every event.
//! A [`CompiledTrace`] is the same stream lowered into the form the
//! simulation kernel actually wants, as **structure-of-arrays** event
//! streams:
//!
//! * every block id is renamed to a **dense slot index** assigned by a
//!   free-slot stack, so the peak slot count equals the trace's maximum
//!   number of concurrently live blocks ([`Self::max_live_slots`]) and a
//!   replayer can use a flat slab instead of a hash map;
//! * events are stored as parallel dense arrays — opcodes, slots and
//!   arguments — instead of an array of enum structs; they are what
//!   [`CompiledTrace::prefix`] cuts;
//! * a second, shorter stream carries **only the allocator-visible
//!   operations** ([`CompiledTrace::pool_ops`]: allocs and frees) with
//!   the work that does not depend on allocator state hoisted out of
//!   replay entirely: per-allocation sizes
//!   ([`CompiledTrace::alloc_sizes`]), lifetime application-access
//!   totals ([`CompiledTrace::alloc_reads`] /
//!   [`CompiledTrace::alloc_writes`] — applied once at placement time,
//!   since access charging is a pure per-level sum), their suffix sums
//!   ([`CompiledTrace::reads_from`] / [`CompiledTrace::writes_from`] —
//!   the application accesses still to come after any allocation,
//!   which bound a paused replay's remaining work) and the trace's
//!   total compute ticks ([`CompiledTrace::total_tick_cycles`]). This
//!   is the stream the replay kernel walks;
//! * the issuing thread of each pool op is lowered to a dense
//!   **rank** — its first-appearance order
//!   ([`CompiledTrace::op_thread_ranks`]) — so the contention model keeps
//!   per-thread state in flat arrays instead of maps keyed by raw ids
//!   (the raw thread ids stay on the source [`Trace`](crate::Trace));
//! * the compile is one O(events) pass, done **once per workload** and
//!   shared between workers behind an `Arc` — workers never clone the
//!   event streams.
//!
//! Compiling is lossless for replay purposes: replaying a compiled trace
//! visits the same operations, in the same order, with the same sizes and
//! access counts as replaying the original trace — and replaying only the
//! pool-op stream produces byte-identical metrics, because access and
//! tick charges are additive (order never affects the totals the cost
//! model consumes).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::error::CompileError;
use crate::event::TraceEvent;
use crate::trace::Trace;

/// Opcode stream entry of the full SoA lowering (one per source event).
#[repr(u8)]
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpCode {
    /// Allocate into the event's slot; the argument is the size.
    Alloc = 0,
    /// Free the event's slot.
    Free = 1,
    /// Application accesses; arguments are reads and writes.
    Access = 2,
    /// Pure computation; the argument is the cycle count.
    Tick = 3,
}

/// One entry of the allocator-op stream: a slot index with the free bit
/// in the top bit. Allocs appear in allocation order, so the n-th alloc
/// op indexes [`CompiledTrace::alloc_sizes`] (and the hoisted access
/// totals) with a running counter — no per-op side lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PoolOp(u32);

impl PoolOp {
    const FREE_BIT: u32 = 1 << 31;

    /// An allocation into `slot`.
    fn alloc(slot: u32) -> Self {
        PoolOp(slot)
    }

    /// A free of `slot`.
    fn free(slot: u32) -> Self {
        PoolOp(slot | Self::FREE_BIT)
    }

    /// `true` for a free, `false` for an alloc.
    #[inline]
    pub fn is_free(self) -> bool {
        self.0 & Self::FREE_BIT != 0
    }

    /// The slot the op targets.
    #[inline]
    pub fn slot(self) -> u32 {
        self.0 & !Self::FREE_BIT
    }
}

/// A flat, replay-ready SoA lowering of one workload trace.
///
/// Built once per workload with [`CompiledTrace::compile`] and shared
/// across simulation workers as an [`Arc<CompiledTrace>`].
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledTrace {
    name: String,
    /// Full event stream, SoA: opcode per event…
    kinds: Vec<OpCode>,
    /// …slot per event (0 for ticks)…
    slots: Vec<u32>,
    /// …first argument (alloc size / access reads / tick cycles)…
    args: Vec<u32>,
    /// …second argument (access writes; 0 otherwise).
    args2: Vec<u32>,
    /// Allocator-op stream: allocs and frees only, in event order.
    pool_ops: Vec<PoolOp>,
    /// Dense rank of each pool op's issuing thread, parallel to
    /// [`Self::pool_ops`]: a thread's rank is its first-appearance order
    /// among pool ops, in `0..distinct_op_tids`. What the contention
    /// model consumes.
    op_thread_ranks: Vec<u32>,
    /// Number of distinct thread ids over the pool-op stream. 1 (or 0
    /// for op-free traces) means single-threaded: the kernels skip
    /// contention bookkeeping entirely.
    distinct_op_tids: u32,
    /// Requested size of each allocation, in allocation order.
    alloc_sizes: Vec<u32>,
    /// Lifetime application reads of each allocation, in allocation
    /// order (hoisted out of the event stream for the replay kernel).
    alloc_reads: Vec<u64>,
    /// Lifetime application writes, in allocation order.
    alloc_writes: Vec<u64>,
    /// Suffix sums of `alloc_reads`: entry `n` is the reads of
    /// allocations `n..`, so it has `allocs + 1` entries and ends in 0.
    reads_from: Vec<u64>,
    /// Suffix sums of `alloc_writes`, laid out like `reads_from`.
    writes_from: Vec<u64>,
    /// Sum of all `Tick` cycles (allocator-independent, charged once).
    total_tick_cycles: u64,
    max_live_slots: u32,
    allocs: u64,
    frees: u64,
    peak_live_bytes: u64,
}

impl CompiledTrace {
    /// Lowers `trace` into the compiled form: one O(events) pass that
    /// renames ids to dense recycled slots, splits the stream into SoA
    /// arrays, and precomputes sizes, per-allocation access totals and
    /// their suffix sums, total tick cycles and the peak live-slot count.
    pub fn compile(trace: &Trace) -> CompiledTrace {
        let len = trace.len();
        let mut kinds = Vec::with_capacity(len);
        let mut slots = Vec::with_capacity(len);
        let mut args = Vec::with_capacity(len);
        let mut args2 = Vec::with_capacity(len);
        let mut pool_ops = Vec::new();
        let mut op_thread_ranks = Vec::new();
        // tid → first-appearance rank among pool ops. Runs of ops by one
        // thread reuse the last lookup, so a single-threaded trace hashes
        // once.
        let mut rank_of: HashMap<u32, u32> = HashMap::new();
        let mut last: Option<(u32, u32)> = None;
        let mut rank = |tid: u32| match last {
            Some((t, r)) if t == tid => r,
            _ => {
                let next = rank_of.len() as u32;
                let r = *rank_of.entry(tid).or_insert(next);
                last = Some((tid, r));
                r
            }
        };
        let mut alloc_sizes = Vec::new();
        let mut alloc_reads: Vec<u64> = Vec::new();
        let mut alloc_writes: Vec<u64> = Vec::new();
        let mut total_tick_cycles = 0u64;
        // id → (slot, alloc ordinal) for live blocks.
        let mut live: HashMap<u64, (u32, usize)> = HashMap::new();
        let mut free_slots: Vec<u32> = Vec::new();
        let mut next_slot: u32 = 0;
        let mut allocs = 0u64;
        let mut frees = 0u64;

        for event in trace {
            match *event {
                TraceEvent::Alloc { id, size, tid } => {
                    let slot = free_slots.pop().unwrap_or_else(|| {
                        let s = next_slot;
                        next_slot += 1;
                        assert!(s < PoolOp::FREE_BIT, "slot index overflows the op encoding");
                        s
                    });
                    live.insert(id.0, (slot, alloc_sizes.len()));
                    alloc_sizes.push(size);
                    alloc_reads.push(0);
                    alloc_writes.push(0);
                    allocs += 1;
                    kinds.push(OpCode::Alloc);
                    slots.push(slot);
                    args.push(size);
                    args2.push(0);
                    pool_ops.push(PoolOp::alloc(slot));
                    op_thread_ranks.push(rank(tid.0));
                }
                TraceEvent::Free { id, tid } => {
                    let (slot, _) = live.remove(&id.0).expect("validated trace frees live ids");
                    free_slots.push(slot);
                    frees += 1;
                    kinds.push(OpCode::Free);
                    slots.push(slot);
                    args.push(0);
                    args2.push(0);
                    pool_ops.push(PoolOp::free(slot));
                    op_thread_ranks.push(rank(tid.0));
                }
                TraceEvent::Access {
                    id, reads, writes, ..
                } => {
                    let (slot, ordinal) = live[&id.0];
                    alloc_reads[ordinal] += u64::from(reads);
                    alloc_writes[ordinal] += u64::from(writes);
                    kinds.push(OpCode::Access);
                    slots.push(slot);
                    args.push(reads);
                    args2.push(writes);
                }
                TraceEvent::Tick { cycles } => {
                    total_tick_cycles += u64::from(cycles);
                    kinds.push(OpCode::Tick);
                    slots.push(0);
                    args.push(cycles);
                    args2.push(0);
                }
            }
        }

        let distinct_op_tids = rank_of.len() as u32;
        CompiledTrace {
            name: trace.name().to_owned(),
            kinds,
            slots,
            args,
            args2,
            pool_ops,
            op_thread_ranks,
            distinct_op_tids,
            reads_from: suffix_sums(&alloc_reads),
            writes_from: suffix_sums(&alloc_writes),
            alloc_sizes,
            alloc_reads,
            alloc_writes,
            total_tick_cycles,
            max_live_slots: next_slot,
            allocs,
            frees,
            peak_live_bytes: trace.peak_live_bytes(),
        }
    }

    /// Compiles and wraps in an [`Arc`] in one step (the shape every
    /// multi-worker consumer wants).
    pub fn compile_shared(trace: &Trace) -> Arc<CompiledTrace> {
        Arc::new(CompiledTrace::compile(trace))
    }

    /// A replayable prefix of this trace: the first
    /// `ceil(fraction × len)` events, re-lowered as a standalone
    /// [`CompiledTrace`] that every replay kernel accepts unchanged —
    /// the low-fidelity rungs of a multi-fidelity search screen
    /// candidates on these.
    ///
    /// The SoA event streams are a plain cut, but the hoisted
    /// per-allocation data is rebuilt over the window: access totals are
    /// re-accumulated from in-window `Access` events only (a lifetime
    /// total would charge accesses that happen after the cut), and the
    /// tick/peak/slot summaries and the access suffix sums are
    /// recomputed. Because the dense-slot
    /// and thread-rank assignments of a compile depend only on the event
    /// prefix already consumed, the result is **identical** to compiling
    /// the truncated source trace; `prefix(1.0)` returns a clone of
    /// `self`.
    ///
    /// # Errors
    ///
    /// [`CompileError::PrefixFractionOutOfRange`] unless
    /// `0 < fraction <= 1` (NaN included), so a malformed fidelity rung
    /// surfaces as a typed error instead of aborting the run.
    pub fn prefix(&self, fraction: f64) -> Result<CompiledTrace, CompileError> {
        if !(fraction > 0.0 && fraction <= 1.0) {
            return Err(CompileError::PrefixFractionOutOfRange { fraction });
        }
        let len = self.kinds.len();
        let cut = ((len as f64 * fraction).ceil() as usize).min(len);
        if cut == len {
            return Ok(self.clone());
        }

        let mut pool_ops = Vec::new();
        let mut alloc_sizes = Vec::new();
        let mut alloc_reads: Vec<u64> = Vec::new();
        let mut alloc_writes: Vec<u64> = Vec::new();
        let mut total_tick_cycles = 0u64;
        let mut allocs = 0u64;
        let mut frees = 0u64;
        // slot → alloc ordinal of its in-window live block. Slots are
        // already dense, so a flat table replaces the id map that
        // `compile` needs.
        let mut owner: Vec<usize> = vec![0; self.max_live_slots as usize];
        let mut live_bytes = 0u64;
        let mut peak_live_bytes = 0u64;
        let mut max_live_slots = 0u32;

        for at in 0..cut {
            let slot = self.slots[at];
            match self.kinds[at] {
                OpCode::Alloc => {
                    let size = self.args[at];
                    owner[slot as usize] = alloc_sizes.len();
                    alloc_sizes.push(size);
                    alloc_reads.push(0);
                    alloc_writes.push(0);
                    allocs += 1;
                    pool_ops.push(PoolOp::alloc(slot));
                    live_bytes += u64::from(size);
                    peak_live_bytes = peak_live_bytes.max(live_bytes);
                    // The free-slot stack hands out the same slots for
                    // the same event prefix, so the window's peak slab
                    // is the highest slot an in-window alloc touches.
                    max_live_slots = max_live_slots.max(slot + 1);
                }
                OpCode::Free => {
                    let ordinal = owner[slot as usize];
                    frees += 1;
                    pool_ops.push(PoolOp::free(slot));
                    live_bytes -= u64::from(alloc_sizes[ordinal]);
                }
                OpCode::Access => {
                    let ordinal = owner[slot as usize];
                    alloc_reads[ordinal] += u64::from(self.args[at]);
                    alloc_writes[ordinal] += u64::from(self.args2[at]);
                }
                OpCode::Tick => total_tick_cycles += u64::from(self.args[at]),
            }
        }
        // First-appearance ranks depend only on the ops already seen, so
        // the window's ranks are the first ones of the full stream and
        // its distinct count is one past the highest rank among them.
        let op_thread_ranks = self.op_thread_ranks[..pool_ops.len()].to_vec();
        let distinct_op_tids = op_thread_ranks.iter().max().map_or(0, |&r| r + 1);
        Ok(CompiledTrace {
            name: self.name.clone(),
            kinds: self.kinds[..cut].to_vec(),
            slots: self.slots[..cut].to_vec(),
            args: self.args[..cut].to_vec(),
            args2: self.args2[..cut].to_vec(),
            pool_ops,
            op_thread_ranks,
            distinct_op_tids,
            reads_from: suffix_sums(&alloc_reads),
            writes_from: suffix_sums(&alloc_writes),
            alloc_sizes,
            alloc_reads,
            alloc_writes,
            total_tick_cycles,
            max_live_slots,
            allocs,
            frees,
            peak_live_bytes,
        })
    }

    /// The workload name, carried over from the source trace.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The allocator-op stream (allocs and frees only, in event order) —
    /// what the replay kernel walks. Access and tick work is hoisted
    /// into [`Self::alloc_reads`] / [`Self::alloc_writes`] /
    /// [`Self::total_tick_cycles`].
    pub fn pool_ops(&self) -> &[PoolOp] {
        &self.pool_ops
    }

    /// Events consumed at each `stride`-th pool-op boundary inside the
    /// op stream: entry `m` is the number of events up to and including
    /// pool op `(m + 1) * stride - 1`, which is where a replay that has
    /// run `(m + 1) * stride` pool ops stands in the event stream. Only
    /// boundaries before the last pool op are listed.
    ///
    /// # Panics
    ///
    /// Panics if `stride` is zero.
    pub fn events_at_op_strides(&self, stride: usize) -> Vec<usize> {
        assert!(stride > 0, "stride must be positive");
        let total = self.pool_ops.len();
        let mut out = Vec::with_capacity(total.saturating_sub(1) / stride);
        let mut ops = 0usize;
        for (at, kind) in self.kinds.iter().enumerate() {
            if matches!(kind, OpCode::Alloc | OpCode::Free) {
                ops += 1;
                if ops == total {
                    break;
                }
                if ops.is_multiple_of(stride) {
                    out.push(at + 1);
                }
            }
        }
        out
    }

    /// Dense rank of each pool op's issuing thread, parallel to
    /// [`Self::pool_ops`] — the stream the contention model consumes. A
    /// thread's rank is the order in which it first issues a pool op, so
    /// ranks lie in `0..`[`Self::distinct_op_tids`] and a replayer can
    /// keep per-thread state in a flat array. The raw thread ids stay
    /// on the source [`Trace`].
    pub fn op_thread_ranks(&self) -> &[u32] {
        &self.op_thread_ranks
    }

    /// Number of distinct thread ids over the pool-op stream.
    pub fn distinct_op_tids(&self) -> u32 {
        self.distinct_op_tids
    }

    /// `true` when more than one thread issues allocator operations —
    /// the gate for all contention bookkeeping (single-threaded replays
    /// take the original hot path and charge zero contention).
    pub fn is_threaded(&self) -> bool {
        self.distinct_op_tids > 1
    }

    /// Requested size of the n-th allocation (allocation order, aligned
    /// with the alloc entries of [`Self::pool_ops`]).
    pub fn alloc_sizes(&self) -> &[u32] {
        &self.alloc_sizes
    }

    /// Lifetime application reads of the n-th allocation. Charging these
    /// once at placement time is metric-identical to charging each
    /// `Access` event: access counts are pure per-level sums.
    pub fn alloc_reads(&self) -> &[u64] {
        &self.alloc_reads
    }

    /// Lifetime application writes of the n-th allocation.
    pub fn alloc_writes(&self) -> &[u64] {
        &self.alloc_writes
    }

    /// Application reads of allocations `ordinal..`: entry `n` is the sum
    /// of [`Self::alloc_reads`] from the n-th allocation on, so entry 0
    /// is the trace's total and entry [`Self::allocs`] is 0. A replay
    /// paused before allocation `n` has exactly these reads still to
    /// charge if every remaining allocation succeeds.
    pub fn reads_from(&self) -> &[u64] {
        &self.reads_from
    }

    /// Application writes of allocations `ordinal..`, laid out like
    /// [`Self::reads_from`].
    pub fn writes_from(&self) -> &[u64] {
        &self.writes_from
    }

    /// Total `Tick` cycles in the trace — allocator-independent, so the
    /// replay kernel charges them once per run instead of per event.
    pub fn total_tick_cycles(&self) -> u64 {
        self.total_tick_cycles
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.kinds.len()
    }

    /// `true` if the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.kinds.is_empty()
    }

    /// The maximum number of concurrently live blocks — the exact slab
    /// size a replayer needs.
    pub fn max_live_slots(&self) -> u32 {
        self.max_live_slots
    }

    /// Total allocations in the trace.
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Total frees in the trace.
    pub fn frees(&self) -> u64 {
        self.frees
    }

    /// Peak of the application's requested live bytes (carried over from
    /// the source trace — the lower bound on any allocator's footprint).
    pub fn peak_live_bytes(&self) -> u64 {
        self.peak_live_bytes
    }
}

/// Suffix sums of `values`, with a trailing 0: entry `n` is the sum of
/// `values[n..]`.
fn suffix_sums(values: &[u64]) -> Vec<u64> {
    let mut sums = vec![0; values.len() + 1];
    for (n, &v) in values.iter().enumerate().rev() {
        sums[n] = sums[n + 1] + v;
    }
    sums
}

impl fmt::Display for CompiledTrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "compiled trace `{}`: {} events ({} pool ops), {} slots",
            self.name,
            self.kinds.len(),
            self.pool_ops.len(),
            self.max_live_slots
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::BlockId;
    use crate::gen::{ramp, EasyportConfig, TraceGenerator};

    fn alloc(id: u64, size: u32) -> TraceEvent {
        TraceEvent::alloc(BlockId(id), size)
    }
    fn free(id: u64) -> TraceEvent {
        TraceEvent::free(BlockId(id))
    }

    /// One lowered event (slots are dense indices in
    /// `0..max_live_slots`).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum CompiledEvent {
        Alloc { slot: u32, size: u32 },
        Free { slot: u32 },
        Access { slot: u32, reads: u32, writes: u32 },
        Tick { cycles: u32 },
    }

    impl CompiledTrace {
        /// The lowered events in replay order, zipped back out of the
        /// SoA streams.
        fn iter_events(&self) -> impl Iterator<Item = CompiledEvent> + '_ {
            self.kinds
                .iter()
                .zip(&self.slots)
                .zip(&self.args)
                .zip(&self.args2)
                .map(|(((&kind, &slot), &arg), &arg2)| match kind {
                    OpCode::Alloc => CompiledEvent::Alloc { slot, size: arg },
                    OpCode::Free => CompiledEvent::Free { slot },
                    OpCode::Access => CompiledEvent::Access {
                        slot,
                        reads: arg,
                        writes: arg2,
                    },
                    OpCode::Tick => CompiledEvent::Tick { cycles: arg },
                })
        }
    }

    #[test]
    fn slots_are_dense_and_recycled() {
        // 1 and 2 overlap; 3 starts after 1 dies and reuses its slot.
        let t = Trace::from_events(
            "t",
            vec![alloc(10, 8), alloc(20, 8), free(10), alloc(30, 8)],
        )
        .unwrap();
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.max_live_slots(), 2, "peak concurrency is 2");
        assert_eq!(
            c.iter_events().collect::<Vec<_>>(),
            [
                CompiledEvent::Alloc { slot: 0, size: 8 },
                CompiledEvent::Alloc { slot: 1, size: 8 },
                CompiledEvent::Free { slot: 0 },
                CompiledEvent::Alloc { slot: 0, size: 8 },
            ]
        );
    }

    #[test]
    fn counts_cover_freed_and_leaked_blocks() {
        let t = Trace::from_events(
            "t",
            vec![alloc(1, 8), TraceEvent::tick(5), free(1), alloc(2, 8)],
        )
        .unwrap();
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.allocs(), 2);
        assert_eq!(c.frees(), 1);
        assert_eq!(c.total_tick_cycles(), 5);
    }

    #[test]
    fn compile_preserves_event_semantics() {
        let t = Trace::from_events(
            "t",
            vec![
                alloc(7, 100),
                TraceEvent::access(BlockId(7), 3, 2),
                TraceEvent::tick(11),
                free(7),
            ],
        )
        .unwrap();
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.len(), t.len());
        let events: Vec<CompiledEvent> = c.iter_events().collect();
        assert_eq!(
            events[1],
            CompiledEvent::Access {
                slot: 0,
                reads: 3,
                writes: 2
            }
        );
        assert_eq!(events[2], CompiledEvent::Tick { cycles: 11 });
        assert_eq!(c.peak_live_bytes(), t.peak_live_bytes());
        assert_eq!(c.name(), "t");
    }

    #[test]
    fn pool_op_stream_hoists_accesses_and_ticks() {
        let t = Trace::from_events(
            "t",
            vec![
                alloc(1, 64),
                TraceEvent::access(BlockId(1), 3, 2),
                alloc(2, 128),
                TraceEvent::tick(9),
                TraceEvent::access(BlockId(1), 4, 0),
                free(1),
                TraceEvent::access(BlockId(2), 1, 1),
                TraceEvent::tick(2),
            ],
        )
        .unwrap();
        let c = CompiledTrace::compile(&t);
        // The op stream carries only the three allocator-visible events.
        let ops = c.pool_ops();
        assert_eq!(ops.len(), 3);
        assert!(!ops[0].is_free() && ops[0].slot() == 0);
        assert!(!ops[1].is_free() && ops[1].slot() == 1);
        assert!(ops[2].is_free() && ops[2].slot() == 0);
        // Sizes in allocation order; access totals folded per allocation.
        assert_eq!(c.alloc_sizes(), [64, 128]);
        assert_eq!(c.alloc_reads(), [7, 1], "3+4 reads on #1, 1 on leaked #2");
        assert_eq!(c.alloc_writes(), [2, 1]);
        assert_eq!(c.total_tick_cycles(), 11);
    }

    #[test]
    fn access_suffix_sums_cover_the_allocations_still_to_come() {
        let c = CompiledTrace::compile(&EasyportConfig::small().generate(3));
        let allocs = c.allocs() as usize;
        assert_eq!(c.reads_from().len(), allocs + 1);
        assert_eq!(c.writes_from().len(), allocs + 1);
        let total: u64 = c.alloc_reads().iter().chain(c.alloc_writes()).sum();
        assert_eq!(c.reads_from()[0] + c.writes_from()[0], total);
        assert_eq!(c.reads_from()[0], c.alloc_reads().iter().sum::<u64>());
        assert_eq!((c.reads_from()[allocs], c.writes_from()[allocs]), (0, 0));
        for n in [1, allocs / 3, allocs - 1] {
            assert_eq!(c.reads_from()[n], c.alloc_reads()[n..].iter().sum::<u64>());
            assert_eq!(
                c.writes_from()[n],
                c.alloc_writes()[n..].iter().sum::<u64>()
            );
        }
        // A prefix sums its own in-window accesses, not the full trace's.
        let p = c.prefix(0.4).unwrap();
        let window: u64 = p.alloc_reads().iter().chain(p.alloc_writes()).sum();
        assert_eq!(p.reads_from().len(), p.allocs() as usize + 1);
        assert_eq!(p.reads_from()[0] + p.writes_from()[0], window);
        assert!(window < total);
        assert_eq!(p.reads_from().last(), Some(&0));
    }

    #[test]
    fn op_stride_boundaries_count_the_events_consumed() {
        let t = Trace::from_events(
            "t",
            vec![
                alloc(1, 64),
                TraceEvent::access(BlockId(1), 3, 2),
                alloc(2, 128),
                TraceEvent::tick(9),
                free(1),
                TraceEvent::access(BlockId(2), 1, 1),
                alloc(3, 8),
                free(2),
                TraceEvent::tick(2),
            ],
        )
        .unwrap();
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.pool_ops().len(), 5);
        assert_eq!(c.events_at_op_strides(1), [1, 3, 5, 7]);
        assert_eq!(c.events_at_op_strides(2), [3, 7]);
        assert_eq!(c.events_at_op_strides(4), [7]);
        assert!(c.events_at_op_strides(5).is_empty(), "op 5 is the last one");
        // Each boundary is where the prefix holding that many ops ends.
        let big = CompiledTrace::compile(&EasyportConfig::small().generate(2));
        for (m, &events) in big.events_at_op_strides(100).iter().enumerate() {
            let ops = big.kinds[..events]
                .iter()
                .filter(|k| matches!(k, OpCode::Alloc | OpCode::Free))
                .count();
            assert_eq!(ops, (m + 1) * 100);
            assert!(matches!(
                big.kinds[events - 1],
                OpCode::Alloc | OpCode::Free
            ));
        }
    }

    #[test]
    fn generated_traces_compile_consistently() {
        let t = EasyportConfig::small().generate(5);
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.len(), t.len());
        let stats = crate::TraceStats::compute(&t);
        assert_eq!(u64::from(c.max_live_slots()), stats.peak_live_blocks);
        assert_eq!(c.allocs(), stats.allocs);
        assert_eq!(c.frees(), stats.frees);
        assert_eq!(c.alloc_sizes().len() as u64, c.allocs());
        assert_eq!(c.pool_ops().len() as u64, c.allocs() + c.frees());
        // The hoisted totals must cover exactly the stream's accesses
        // and ticks.
        let mut reads = 0u64;
        let mut writes = 0u64;
        let mut ticks = 0u64;
        for e in c.iter_events() {
            match e {
                CompiledEvent::Access {
                    reads: r,
                    writes: w,
                    ..
                } => {
                    reads += u64::from(r);
                    writes += u64::from(w);
                }
                CompiledEvent::Tick { cycles } => ticks += u64::from(cycles),
                _ => {}
            }
        }
        assert_eq!(c.alloc_reads().iter().sum::<u64>(), reads);
        assert_eq!(c.alloc_writes().iter().sum::<u64>(), writes);
        assert_eq!(c.total_tick_cycles(), ticks);
        // Replaying the compiled events with a slab must mirror the live
        // set of the original trace: no slot is double-occupied.
        let mut occupied = vec![false; c.max_live_slots() as usize];
        for e in c.iter_events() {
            match e {
                CompiledEvent::Alloc { slot, .. } => {
                    assert!(!occupied[slot as usize], "slot reused while live");
                    occupied[slot as usize] = true;
                }
                CompiledEvent::Free { slot } => {
                    assert!(occupied[slot as usize], "free of an empty slot");
                    occupied[slot as usize] = false;
                }
                CompiledEvent::Access { slot, .. } => {
                    assert!(occupied[slot as usize], "access to an empty slot");
                }
                CompiledEvent::Tick { .. } => {}
            }
        }
        // The pool-op stream is the same sequence with accesses/ticks
        // dropped.
        let pool_view: Vec<PoolOp> = c
            .iter_events()
            .filter_map(|e| match e {
                CompiledEvent::Alloc { slot, .. } => Some(PoolOp::alloc(slot)),
                CompiledEvent::Free { slot } => Some(PoolOp::free(slot)),
                _ => None,
            })
            .collect();
        assert_eq!(c.pool_ops(), pool_view);
    }

    #[test]
    fn compile_shared_and_display() {
        let c = CompiledTrace::compile_shared(&ramp(10, 16));
        assert_eq!(Arc::strong_count(&c), 1);
        assert!(c.to_string().contains("compiled trace"));
        assert!(!c.is_empty());
    }

    #[test]
    fn prefix_of_full_fraction_is_identical() {
        let t = EasyportConfig::small().generate(7);
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.prefix(1.0).unwrap(), c);
    }

    #[test]
    fn prefix_equals_compile_of_truncated_trace() {
        let t = EasyportConfig::small().generate(5);
        let c = CompiledTrace::compile(&t);
        for fraction in [0.1, 0.25, 0.5, 0.75, 0.9] {
            let cut = ((t.len() as f64 * fraction).ceil() as usize).min(t.len());
            let truncated =
                Trace::from_events(t.name(), t.events()[..cut].to_vec()).expect("valid prefix");
            assert_eq!(
                c.prefix(fraction).unwrap(),
                CompiledTrace::compile(&truncated),
                "fraction {fraction}: prefix view must equal a fresh compile of the \
                 truncated source trace"
            );
        }
    }

    #[test]
    fn prefix_adjusts_hoisted_totals_at_the_cut() {
        // Block 1 lives across the cut: only its in-window accesses may
        // be charged, and it stays live in the window's slab.
        let t = Trace::from_events(
            "t",
            vec![
                alloc(1, 64),
                TraceEvent::access(BlockId(1), 3, 2),
                TraceEvent::tick(9),
                TraceEvent::access(BlockId(1), 40, 50),
                free(1),
                TraceEvent::tick(100),
            ],
        )
        .unwrap();
        let c = CompiledTrace::compile(&t);
        let p = c.prefix(0.5).unwrap(); // first 3 of 6 events
        assert_eq!(p.len(), 3);
        assert_eq!(
            p.alloc_reads(),
            [3],
            "post-cut accesses must not be charged"
        );
        assert_eq!(p.alloc_writes(), [2]);
        assert_eq!(p.total_tick_cycles(), 9);
        assert_eq!(p.max_live_slots(), 1, "live-at-cut block keeps its slot");
        assert_eq!(p.allocs(), 1);
        assert_eq!(p.frees(), 0);
        assert_eq!(p.pool_ops().len(), 1);
        assert_eq!(p.peak_live_bytes(), 64);
        assert_eq!(p.name(), c.name());
    }

    #[test]
    fn prefix_rejects_out_of_range_fractions() {
        use crate::error::CompileError;
        let c = CompiledTrace::compile(&ramp(4, 16));
        for bad in [0.0, -0.5, 1.5, f64::NAN, f64::INFINITY] {
            match c.prefix(bad) {
                Err(CompileError::PrefixFractionOutOfRange { fraction }) => {
                    assert!(fraction.is_nan() == bad.is_nan() || fraction == bad);
                }
                other => panic!("prefix({bad}) should fail, got {other:?}"),
            }
        }
    }

    #[test]
    fn tid_lowering_preserves_thread_identity() {
        use crate::event::ThreadId;
        // Producer thread 1 allocates, consumer thread 2 frees; a tick
        // separates them. Pool ops carry the threads' first-appearance
        // ranks.
        let t = Trace::from_events(
            "t",
            vec![
                TraceEvent::alloc_on(ThreadId(1), BlockId(1), 64),
                TraceEvent::access_on(ThreadId(2), BlockId(1), 3, 1),
                TraceEvent::tick(9),
                TraceEvent::free_on(ThreadId(2), BlockId(1)),
            ],
        )
        .unwrap();
        let c = CompiledTrace::compile(&t);
        assert_eq!(c.op_thread_ranks(), [0, 1]);
        assert_eq!(c.distinct_op_tids(), 2);
        assert!(c.is_threaded());
        // Single-threaded traces gate contention off.
        let s = CompiledTrace::compile(&ramp(4, 16));
        assert_eq!(s.distinct_op_tids(), 1);
        assert!(!s.is_threaded());
    }

    #[test]
    fn prefix_rederives_op_tids() {
        use crate::event::ThreadId;
        let mut events = Vec::new();
        for i in 0..10u64 {
            events.push(TraceEvent::alloc_on(
                ThreadId((i % 3) as u32),
                BlockId(i),
                32,
            ));
        }
        for i in 0..10u64 {
            events.push(TraceEvent::free_on(
                ThreadId(((i + 1) % 3) as u32),
                BlockId(i),
            ));
        }
        let t = Trace::from_events("t", events).unwrap();
        let c = CompiledTrace::compile(&t);
        for fraction in [0.2, 0.5, 0.8] {
            let cut = ((t.len() as f64 * fraction).ceil() as usize).min(t.len());
            let truncated =
                Trace::from_events(t.name(), t.events()[..cut].to_vec()).expect("valid prefix");
            let p = c.prefix(fraction).unwrap();
            assert_eq!(p, CompiledTrace::compile(&truncated));
            assert_eq!(p.op_thread_ranks().len(), p.pool_ops().len());
        }
    }

    #[test]
    fn prefix_ranks_equal_compile_of_truncated_server_trace() {
        use crate::gen::ServerMixConfig;
        let t = ServerMixConfig::small().generate(17);
        let c = CompiledTrace::compile(&t);
        assert!(c.distinct_op_tids() > 2, "fixture must be multi-threaded");
        for fraction in [0.001, 0.01, 0.1, 0.25, 0.5, 0.75, 0.9] {
            let cut = ((t.len() as f64 * fraction).ceil() as usize).min(t.len());
            let truncated =
                Trace::from_events(t.name(), t.events()[..cut].to_vec()).expect("valid prefix");
            let fresh = CompiledTrace::compile(&truncated);
            let p = c.prefix(fraction).unwrap();
            assert_eq!(
                p.op_thread_ranks(),
                fresh.op_thread_ranks(),
                "fraction {fraction}"
            );
            assert_eq!(
                p.distinct_op_tids(),
                fresh.distinct_op_tids(),
                "fraction {fraction}"
            );
        }
    }
}
