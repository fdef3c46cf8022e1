//! Trace event model.

use std::fmt;

/// Identity of a dynamically allocated block within a trace.
///
/// Ids take the role of the pointer returned by `malloc`: an id is *live*
/// between its `Alloc` and its `Free` event, and may be reused afterwards
/// (as real applications reuse addresses).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u64);

impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "#{}", self.0)
    }
}

/// Identity of the application thread issuing a trace event.
///
/// Single-threaded traces use `ThreadId::MAIN` (tid 0) throughout; threaded
/// server traces carry the issuing thread on every `Alloc`/`Free`/`Access`
/// so the simulator can charge shared-pool contention. A block allocated on
/// one thread may legally be freed on another (producer/consumer handoff).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct ThreadId(pub u32);

impl ThreadId {
    /// The implicit thread of single-threaded traces.
    pub const MAIN: ThreadId = ThreadId(0);
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// One event of an allocation trace.
///
/// `Access` events aggregate the application's reads/writes to a block
/// between allocator calls, so traces stay compact (the paper's raw profile
/// data reaches gigabytes; aggregation is what keeps replay tractable).
/// `Tick` events model application compute time in which no dynamic-memory
/// activity happens; they contribute to execution time but not to memory
/// metrics. `Alloc`/`Free`/`Access` carry the issuing thread; `Tick` models
/// whole-application compute and is thread-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TraceEvent {
    /// The application allocates `size` bytes under identity `id`.
    Alloc {
        /// Block identity; must not currently be live.
        id: BlockId,
        /// Requested size in bytes (non-zero).
        size: u32,
        /// Thread issuing the allocation.
        tid: ThreadId,
    },
    /// The application frees block `id`.
    Free {
        /// Block identity; must be live.
        id: BlockId,
        /// Thread issuing the free (may differ from the allocating thread).
        tid: ThreadId,
    },
    /// The application performs `reads`/`writes` word accesses to block `id`.
    Access {
        /// Block identity; must be live.
        id: BlockId,
        /// Number of read accesses.
        reads: u32,
        /// Number of write accesses.
        writes: u32,
        /// Thread issuing the accesses.
        tid: ThreadId,
    },
    /// `cycles` of pure computation pass (no memory-allocator activity).
    Tick {
        /// CPU cycles of computation.
        cycles: u32,
    },
}

impl TraceEvent {
    /// An `Alloc` on the main thread (tid 0).
    pub fn alloc(id: BlockId, size: u32) -> Self {
        TraceEvent::Alloc {
            id,
            size,
            tid: ThreadId::MAIN,
        }
    }

    /// An `Alloc` on an explicit thread.
    pub fn alloc_on(tid: ThreadId, id: BlockId, size: u32) -> Self {
        TraceEvent::Alloc { id, size, tid }
    }

    /// A `Free` on the main thread (tid 0).
    pub fn free(id: BlockId) -> Self {
        TraceEvent::Free {
            id,
            tid: ThreadId::MAIN,
        }
    }

    /// A `Free` on an explicit thread.
    pub fn free_on(tid: ThreadId, id: BlockId) -> Self {
        TraceEvent::Free { id, tid }
    }

    /// An `Access` on the main thread (tid 0).
    pub fn access(id: BlockId, reads: u32, writes: u32) -> Self {
        TraceEvent::Access {
            id,
            reads,
            writes,
            tid: ThreadId::MAIN,
        }
    }

    /// An `Access` on an explicit thread.
    pub fn access_on(tid: ThreadId, id: BlockId, reads: u32, writes: u32) -> Self {
        TraceEvent::Access {
            id,
            reads,
            writes,
            tid,
        }
    }

    /// A compute `Tick`.
    pub fn tick(cycles: u32) -> Self {
        TraceEvent::Tick { cycles }
    }

    /// The issuing thread, if the event has one (`Tick` does not).
    pub fn thread_id(&self) -> Option<ThreadId> {
        match self {
            TraceEvent::Alloc { tid, .. }
            | TraceEvent::Free { tid, .. }
            | TraceEvent::Access { tid, .. } => Some(*tid),
            TraceEvent::Tick { .. } => None,
        }
    }

    /// `true` for `Alloc` and `Free` events (allocator entries).
    pub fn is_allocator_op(&self) -> bool {
        matches!(self, TraceEvent::Alloc { .. } | TraceEvent::Free { .. })
    }
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Alloc { id, size, tid } if tid.0 == 0 => write!(f, "alloc {id} {size}B"),
            TraceEvent::Alloc { id, size, tid } => write!(f, "alloc {id} {size}B @{tid}"),
            TraceEvent::Free { id, tid } if tid.0 == 0 => write!(f, "free {id}"),
            TraceEvent::Free { id, tid } => write!(f, "free {id} @{tid}"),
            TraceEvent::Access {
                id,
                reads,
                writes,
                tid,
            } if tid.0 == 0 => {
                write!(f, "access {id} r{reads} w{writes}")
            }
            TraceEvent::Access {
                id,
                reads,
                writes,
                tid,
            } => {
                write!(f, "access {id} r{reads} w{writes} @{tid}")
            }
            TraceEvent::Tick { cycles } => write!(f, "tick {cycles}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn allocator_op_classification() {
        assert!(TraceEvent::alloc(BlockId(0), 1).is_allocator_op());
        assert!(TraceEvent::free(BlockId(0)).is_allocator_op());
        assert!(!TraceEvent::access(BlockId(0), 0, 0).is_allocator_op());
        assert!(!TraceEvent::tick(1).is_allocator_op());
    }

    #[test]
    fn thread_id_extraction() {
        assert_eq!(
            TraceEvent::alloc(BlockId(1), 8).thread_id(),
            Some(ThreadId::MAIN)
        );
        assert_eq!(
            TraceEvent::free_on(ThreadId(3), BlockId(1)).thread_id(),
            Some(ThreadId(3))
        );
        assert_eq!(TraceEvent::tick(5).thread_id(), None);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(
            TraceEvent::alloc(BlockId(7), 74).to_string(),
            "alloc #7 74B"
        );
        assert_eq!(
            TraceEvent::alloc_on(ThreadId(2), BlockId(7), 74).to_string(),
            "alloc #7 74B @t2"
        );
    }
}
