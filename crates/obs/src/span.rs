//! The span timeline: begin/end instrumentation recorded into
//! per-thread ring buffers with monotonic timestamps.
//!
//! Recording a span is two pushes into a thread-owned ring — no
//! cross-thread synchronisation on the hot path beyond the one-time
//! registration of the thread's timeline. Timestamps come from a single
//! process-wide [`std::time::Instant`] epoch so events from different
//! threads land on one comparable axis.
//!
//! Span recording is gated at runtime by [`crate::set_recording`]: the
//! CLI only switches it on when the user asked for a trace, so plain
//! runs skip even the (cheap) ring push.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Ring capacity per thread. At ~24 bytes/event this is well under a
/// megabyte per worker; a long run overwrites nothing — events past the
/// cap are counted in `dropped` instead, so the exporter can say so.
const RING_CAP: usize = 32 * 1024;

/// What a timeline event marks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SpanKind {
    /// A span opened here.
    Begin,
    /// The most recent unmatched `Begin` on this thread closed here.
    End,
    /// A zero-duration marker.
    Instant,
}

/// One timeline event.
#[derive(Debug, Clone, Copy)]
pub struct SpanEvent {
    /// Static span name from [`crate::names`].
    pub name: &'static str,
    /// Begin / end / instant.
    pub kind: SpanKind,
    /// Nanoseconds since the process-wide epoch.
    pub t_ns: u64,
    /// A free-form argument (batch size, generation index, …).
    pub arg: u64,
}

/// A thread's recorded events, drained by the exporter.
#[derive(Debug, Clone)]
pub struct ThreadEvents {
    /// Dense per-process thread id (registration order).
    pub tid: u64,
    /// Recorded events in timestamp order.
    pub events: Vec<SpanEvent>,
    /// Events discarded because the ring was full.
    pub dropped: u64,
}

#[derive(Debug)]
struct ThreadTimeline {
    tid: u64,
    // The owning thread pushes; the exporter locks to read. Contention
    // is nil: the exporter only runs at end-of-run or on the progress
    // tick, and `try-push` from the owner is a plain uncontended lock.
    events: Mutex<Vec<SpanEvent>>,
    dropped: AtomicU64,
}

fn registry() -> &'static Mutex<Vec<Arc<ThreadTimeline>>> {
    static REGISTRY: OnceLock<Mutex<Vec<Arc<ThreadTimeline>>>> = OnceLock::new();
    REGISTRY.get_or_init(|| Mutex::new(Vec::new()))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn now_ns() -> u64 {
    epoch().elapsed().as_nanos() as u64
}

fn with_local<R>(f: impl FnOnce(&ThreadTimeline) -> R) -> R {
    thread_local! {
        static LOCAL: RefCell<Option<Arc<ThreadTimeline>>> = const { RefCell::new(None) };
    }
    LOCAL.with(|slot| {
        let mut slot = slot.borrow_mut();
        if slot.is_none() {
            let mut reg = registry().lock().unwrap();
            let tl = Arc::new(ThreadTimeline {
                tid: reg.len() as u64,
                events: Mutex::new(Vec::new()),
                dropped: AtomicU64::new(0),
            });
            reg.push(Arc::clone(&tl));
            *slot = Some(tl);
        }
        f(slot.as_ref().unwrap())
    })
}

fn push(name: &'static str, kind: SpanKind, arg: u64) {
    let t_ns = now_ns();
    with_local(|tl| {
        let mut events = tl.events.lock().unwrap();
        if events.len() < RING_CAP {
            events.push(SpanEvent {
                name,
                kind,
                t_ns,
                arg,
            });
        } else {
            tl.dropped.fetch_add(1, Ordering::Relaxed);
        }
    });
}

/// Records a zero-duration marker on the calling thread's timeline.
#[inline]
pub fn instant(name: &'static str, arg: u64) {
    if crate::recording() {
        push(name, SpanKind::Instant, arg);
    }
}

/// Opens a span; the returned guard closes it on drop. When recording
/// is off (or the guard's begin raced recording being switched off) the
/// guard is inert.
#[inline]
pub fn span(name: &'static str, arg: u64) -> SpanGuard {
    if crate::recording() {
        push(name, SpanKind::Begin, arg);
        SpanGuard {
            name: Some(name),
            arg,
        }
    } else {
        SpanGuard { name: None, arg: 0 }
    }
}

/// RAII guard that records the matching `End` event when dropped.
#[derive(Debug)]
pub struct SpanGuard {
    name: Option<&'static str>,
    arg: u64,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            push(name, SpanKind::End, self.arg);
        }
    }
}

/// Snapshots every thread's recorded events, in thread-registration
/// order. Events within a thread are already timestamp-ordered.
pub fn drain_timelines() -> Vec<ThreadEvents> {
    let reg = registry().lock().unwrap();
    reg.iter()
        .map(|tl| ThreadEvents {
            tid: tl.tid,
            events: tl.events.lock().unwrap().clone(),
            dropped: tl.dropped.load(Ordering::Relaxed),
        })
        .collect()
}

/// Clears every thread's ring (timelines stay registered).
pub fn clear_timelines() {
    let reg = registry().lock().unwrap();
    for tl in reg.iter() {
        tl.events.lock().unwrap().clear();
        tl.dropped.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Both tests toggle the global recording flag; serialize them so the
    // parallel test runner can't interleave the toggles.
    fn lock() -> std::sync::MutexGuard<'static, ()> {
        static GATE: Mutex<()> = Mutex::new(());
        GATE.lock().unwrap()
    }

    #[test]
    fn spans_record_when_enabled() {
        let _gate = lock();
        crate::set_recording(true);
        {
            let _g = span("test.outer", 7);
            instant("test.mark", 1);
        }
        crate::set_recording(false);
        let mine: Vec<SpanEvent> = drain_timelines()
            .into_iter()
            .flat_map(|t| t.events)
            .filter(|e| e.name.starts_with("test."))
            .collect();
        let begins = mine
            .iter()
            .filter(|e| e.name == "test.outer" && e.kind == SpanKind::Begin)
            .count();
        let ends = mine
            .iter()
            .filter(|e| e.name == "test.outer" && e.kind == SpanKind::End)
            .count();
        let marks = mine
            .iter()
            .filter(|e| e.name == "test.mark" && e.kind == SpanKind::Instant)
            .count();
        assert_eq!(begins, 1);
        assert_eq!(ends, 1);
        assert_eq!(marks, 1);
    }

    #[test]
    fn recording_off_records_nothing() {
        let _gate = lock();
        crate::set_recording(false);
        {
            let _g = span("test.silent", 0);
            instant("test.silent.mark", 0);
        }
        let silent = drain_timelines()
            .into_iter()
            .flat_map(|t| t.events)
            .filter(|e| e.name.starts_with("test.silent"))
            .count();
        assert_eq!(silent, 0);
    }
}
