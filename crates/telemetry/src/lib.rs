//! Telemetry for the DLA confidential-auditing stack: hierarchical
//! span tracing over virtual time, crypto/network cost accounting, and
//! the stack's one CRC-32.
//!
//! # Model
//!
//! A [`Recorder`] owns one merged [`Trace`]. Code opts in by
//! [`Recorder::install`]ing it on the current thread; instrumentation
//! sites throughout `bigint`, `crypto`, `net`, `mpc` and `audit` then
//! report through the free functions [`span`], [`session_span`],
//! [`event`] and [`record`]. A span is the unit of cost: every
//! [`record`] charges the innermost open span, so a closed span carries
//! its own exclusive [`CostVector`]. All records land in a **lock-cheap
//! per-thread buffer** and are merged into the recorder's trace when
//! the install guard drops (or on [`Recorder::snapshot`]).
//!
//! Telemetry is **off by default**: with no recorder installed
//! anywhere, every instrumentation site costs one relaxed atomic load
//! and returns. With a recorder installed on *some other* thread, the
//! cost is one thread-local lookup. No instrumentation path allocates,
//! blocks or sends messages when disabled, so instrumented and plain
//! runs are behaviourally identical (see the equivalence test in
//! `dla-audit`).
//!
//! A recorder is installed per thread, and a spawned thread does not
//! inherit it: whoever spawns one hands it a clone of the [`Recorder`]
//! to install there. The executor in `dla-audit` spawns none: it runs
//! every subquery on the thread that asks the query.
//!
//! Timestamps are virtual nanoseconds supplied by the caller — the
//! tracer never reads a wall clock, keeping traces deterministic under
//! a fixed seed.

#![deny(rust_2018_idioms)]
#![warn(missing_docs)]

pub mod cost;
pub mod crc;
pub mod export;
pub mod trace;

pub use cost::{CostKind, CostVector};
pub use crc::crc32;
pub use export::chrome_trace_json;
pub use trace::{EventRecord, SpanRecord, Trace};

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of live installs across all threads — the fast disabled
/// gate. Zero means every instrumentation call returns immediately.
static ACTIVE_INSTALLS: AtomicUsize = AtomicUsize::new(0);

#[derive(Default)]
struct Shared {
    trace: Mutex<Trace>,
    /// Spans opened so far: the next span's id is one more (0 is
    /// reserved for "no span"), so each recorder numbers its own spans
    /// 1, 2, 3, … whatever other recorders do.
    spans_opened: AtomicU64,
}

/// Handle to one telemetry capture. Clones share the same trace.
#[derive(Clone, Default)]
pub struct Recorder {
    shared: Arc<Shared>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder").finish_non_exhaustive()
    }
}

impl Recorder {
    /// Fresh recorder with an empty trace.
    #[must_use]
    pub fn new() -> Self {
        Recorder::default()
    }

    /// Makes this recorder the destination for telemetry emitted by
    /// the **current thread** until the returned guard drops. Installs
    /// nest; the previous destination is restored on drop.
    #[must_use = "telemetry is captured only while the guard is alive"]
    pub fn install(&self) -> InstallGuard {
        let previous = TLS.with(|tls| {
            let mut state = tls.borrow_mut();
            state.recorder.replace(self.clone())
        });
        ACTIVE_INSTALLS.fetch_add(1, Ordering::Relaxed);
        InstallGuard { previous }
    }

    /// Flushes the current thread's buffer and returns a copy of the
    /// merged trace so far.
    #[must_use]
    pub fn snapshot(&self) -> Trace {
        flush_current_thread();
        self.shared
            .trace
            .lock()
            .expect("telemetry trace lock")
            .clone()
    }

    /// Flushes the current thread's buffer and takes the merged trace,
    /// leaving the recorder empty.
    #[must_use]
    pub fn take(&self) -> Trace {
        flush_current_thread();
        std::mem::take(&mut *self.shared.trace.lock().expect("telemetry trace lock"))
    }

    fn next_span_id(&self) -> u64 {
        self.shared.spans_opened.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn absorb(&self, buf: Trace) {
        if !buf.is_empty() {
            self.shared
                .trace
                .lock()
                .expect("telemetry trace lock")
                .merge(buf);
        }
    }
}

/// Restores the previously installed recorder (if any) when dropped,
/// flushing the thread buffer first.
pub struct InstallGuard {
    previous: Option<Recorder>,
}

impl Drop for InstallGuard {
    fn drop(&mut self) {
        flush_current_thread();
        TLS.with(|tls| {
            let mut state = tls.borrow_mut();
            state.recorder = self.previous.take();
        });
        ACTIVE_INSTALLS.fetch_sub(1, Ordering::Relaxed);
    }
}

/// True when at least one recorder is installed on *some* thread.
/// This is the one branch hot paths pay when telemetry is off.
#[inline]
#[must_use]
pub fn is_active() -> bool {
    ACTIVE_INSTALLS.load(Ordering::Relaxed) > 0
}

struct OpenSpan {
    id: u64,
    parent: u64,
    category: &'static str,
    name: String,
    session: u64,
    start_ns: u64,
    costs: CostVector,
}

#[derive(Default)]
struct ThreadState {
    recorder: Option<Recorder>,
    open_spans: Vec<OpenSpan>,
    buf: Trace,
    /// Latest virtual timestamp observed on this thread; used as the
    /// implicit end time of spans closed by guard drop.
    last_ns: u64,
}

impl ThreadState {
    fn observe(&mut self, at_ns: u64) {
        if at_ns > self.last_ns {
            self.last_ns = at_ns;
        }
    }
}

thread_local! {
    static TLS: RefCell<ThreadState> = RefCell::new(ThreadState::default());
}

fn flush_current_thread() {
    TLS.with(|tls| {
        let mut state = tls.borrow_mut();
        if let Some(recorder) = state.recorder.clone() {
            let buf = std::mem::take(&mut state.buf);
            drop(state);
            recorder.absorb(buf);
        }
    });
}

/// Records `amount` operations of class `kind`, charged to the
/// innermost open span on this thread (or, outside every span, to the
/// trace's unattributed bucket). A single-branch no-op when telemetry
/// is off.
#[inline]
pub fn record(kind: CostKind, amount: u64) {
    if !is_active() {
        return;
    }
    record_slow(kind, amount);
}

#[cold]
fn record_slow(kind: CostKind, amount: u64) {
    TLS.with(|tls| {
        let mut state = tls.borrow_mut();
        if state.recorder.is_none() {
            return;
        }
        match state.open_spans.last_mut() {
            Some(open) => open.costs.add(kind, amount),
            None => state.buf.unattributed.add(kind, amount),
        }
    });
}

/// Opens a hierarchical span starting at virtual time `start_ns`, in
/// the session of its parent span (0 at the root). Close it explicitly
/// with [`SpanGuard::end`] to supply the end timestamp, or let the
/// guard drop to close at the latest timestamp this thread has
/// observed. Returns an inert guard when telemetry is off.
#[must_use = "the span closes when the guard drops"]
pub fn span(category: &'static str, name: &str, start_ns: u64) -> SpanGuard {
    open_span(category, name, None, start_ns)
}

/// [`span`] for the work of one protocol or subquery session: the span,
/// and every plain [`span`] opened inside it, is attributed to
/// `session`, so [`Trace::cost_by_session`] bills that session for what
/// they record.
#[must_use = "the span closes when the guard drops"]
pub fn session_span(category: &'static str, name: &str, session: u64, start_ns: u64) -> SpanGuard {
    open_span(category, name, Some(session), start_ns)
}

fn open_span(category: &'static str, name: &str, session: Option<u64>, start_ns: u64) -> SpanGuard {
    if !is_active() {
        return SpanGuard { id: 0 };
    }
    TLS.with(|tls| {
        let mut state = tls.borrow_mut();
        let Some(recorder) = &state.recorder else {
            return SpanGuard { id: 0 };
        };
        let id = recorder.next_span_id();
        let parent = state.open_spans.last();
        let session = session.unwrap_or_else(|| parent.map_or(0, |s| s.session));
        let parent = parent.map_or(0, |s| s.id);
        state.observe(start_ns);
        state.open_spans.push(OpenSpan {
            id,
            parent,
            category,
            name: name.to_string(),
            session,
            start_ns,
            costs: CostVector::default(),
        });
        SpanGuard { id }
    })
}

/// Guard for an open span; closing pops it (and any unclosed children)
/// off the thread's span stack.
pub struct SpanGuard {
    id: u64,
}

impl SpanGuard {
    /// True when this guard refers to a real span (telemetry was
    /// active at open time).
    #[must_use]
    pub fn is_recording(&self) -> bool {
        self.id != 0
    }

    /// Closes the span at virtual time `end_ns`.
    pub fn end(self, end_ns: u64) {
        if self.id != 0 {
            close_span(self.id, Some(end_ns));
        }
        std::mem::forget(self);
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.id != 0 {
            close_span(self.id, None);
        }
    }
}

fn close_span(id: u64, end_ns: Option<u64>) {
    TLS.with(|tls| {
        let mut state = tls.borrow_mut();
        if let Some(at) = end_ns {
            state.observe(at);
        }
        let Some(pos) = state.open_spans.iter().rposition(|s| s.id == id) else {
            return;
        };
        // Children left open (guards leaked across an early return)
        // close at the same time as the span being ended.
        while state.open_spans.len() > pos {
            let open = state.open_spans.pop().expect("len > pos");
            let end = end_ns.unwrap_or(state.last_ns).max(open.start_ns);
            state.buf.spans.push(SpanRecord {
                id: open.id,
                parent: open.parent,
                category: open.category,
                name: open.name,
                session: open.session,
                start_ns: open.start_ns,
                end_ns: end,
                costs: open.costs,
            });
        }
    });
}

/// Records a structured point event at virtual time `at_ns`, attached
/// to the innermost open span. A no-op when telemetry is off.
pub fn event(name: &str, at_ns: u64, kvs: &[(&str, &str)]) {
    if !is_active() {
        return;
    }
    TLS.with(|tls| {
        let mut state = tls.borrow_mut();
        if state.recorder.is_none() {
            return;
        }
        state.observe(at_ns);
        let span = state.open_spans.last().map_or(0, |s| s.id);
        state.buf.events.push(EventRecord {
            span,
            name: name.to_string(),
            at_ns,
            kvs: kvs
                .iter()
                .map(|(k, v)| ((*k).to_string(), (*v).to_string()))
                .collect(),
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_by_default_records_nothing() {
        record(CostKind::ModExp, 5);
        event("ignored", 10, &[("k", "v")]);
        let g = span("phase", "ignored", 0);
        assert!(!g.is_recording());
        drop(g);
        // A recorder created *afterwards* sees none of it.
        let recorder = Recorder::new();
        let _install = recorder.install();
        assert!(recorder.snapshot().is_empty());
    }

    #[test]
    fn spans_nest_and_carry_sessions() {
        let recorder = Recorder::new();
        {
            let _install = recorder.install();
            let outer = span("query", "q1", 0);
            let inner = session_span("protocol", "ssi", 42, 100);
            let hop = span("hop", "relay", 120);
            event("relay-hop", 150, &[("from", "0"), ("to", "1")]);
            hop.end(180);
            inner.end(200);
            outer.end(300);
        }
        let mut trace = recorder.take();
        trace.normalize();
        assert_eq!(trace.spans.len(), 3);
        let outer = &trace.spans[0];
        let inner = &trace.spans[1];
        let hop = &trace.spans[2];
        assert_eq!(outer.name, "q1");
        assert_eq!(outer.parent, 0);
        assert_eq!(outer.session, 0);
        assert_eq!(outer.start_ns, 0);
        assert_eq!(outer.end_ns, 300);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.session, 42);
        assert_eq!((inner.start_ns, inner.end_ns), (100, 200));
        // A plain span takes its parent's session.
        assert_eq!((hop.parent, hop.session), (inner.id, 42));
        assert_eq!(trace.events.len(), 1);
        assert_eq!(trace.events[0].span, hop.id);
        assert_eq!(
            trace.events[0].kvs[0],
            ("from".to_string(), "0".to_string())
        );
    }

    #[test]
    fn dropped_span_ends_at_latest_observed_time() {
        let recorder = Recorder::new();
        {
            let _install = recorder.install();
            let s = span("phase", "implicit", 50);
            event("tick", 400, &[]);
            drop(s);
        }
        let trace = recorder.take();
        assert_eq!(trace.spans[0].end_ns, 400);
    }

    #[test]
    fn a_span_is_charged_its_exclusive_costs() {
        let recorder = Recorder::new();
        {
            let _install = recorder.install();
            record(CostKind::ModExp, 1); // before any span
            let outer = session_span("subquery", "query", 1, 0);
            record(CostKind::ModExp, 10);
            {
                let _inner = session_span("protocol", "ssi", 7, 5);
                record(CostKind::ModExp, 100);
                record(CostKind::BytesSent, 64);
            }
            record(CostKind::Round, 2);
            drop(outer);
        }
        let trace = recorder.take();
        assert_eq!(trace.unattributed.modexp, 1);
        let by_label = trace.cost_by_label();
        assert_eq!(by_label["ssi"].modexp, 100);
        assert_eq!(by_label["ssi"].bytes_sent, 64);
        assert_eq!(by_label["query"].modexp, 10);
        assert_eq!(by_label["query"].rounds, 2);
        assert_eq!(trace.cost_by_session()[&7].modexp, 100);
        assert_eq!(trace.total_cost().modexp, 111);
    }

    #[test]
    fn worker_threads_merge_via_handle_propagation() {
        let recorder = Recorder::new();
        let _install = recorder.install();
        std::thread::scope(|scope_| {
            for worker in 0..4u64 {
                let handle = recorder.clone();
                scope_.spawn(move || {
                    let _install = handle.install();
                    let _span = session_span("worker", "worker", worker, 0);
                    record(CostKind::ModExp, worker + 1);
                });
            }
        });
        let trace = recorder.snapshot();
        let by_session = trace.cost_by_session();
        assert_eq!(by_session.len(), 4);
        assert_eq!(trace.total_cost().modexp, 1 + 2 + 3 + 4);
        // Clones share one numbering: four spans, four distinct ids.
        let mut ids: Vec<u64> = trace.spans.iter().map(|s| s.id).collect();
        ids.sort_unstable();
        assert_eq!(ids, vec![1, 2, 3, 4]);
    }

    #[test]
    fn each_recorder_numbers_its_own_spans() {
        let ids: Vec<Vec<u64>> = std::thread::scope(|scope_| {
            let threads: Vec<_> = (0..2)
                .map(|_| {
                    scope_.spawn(|| {
                        let recorder = Recorder::new();
                        {
                            let _install = recorder.install();
                            for start in 0..3 {
                                span("phase", "step", start).end(start + 1);
                            }
                        }
                        let trace = recorder.take();
                        trace.spans.iter().map(|s| s.id).collect::<Vec<u64>>()
                    })
                })
                .collect();
            threads
                .into_iter()
                .map(|t| t.join().expect("recording thread"))
                .collect()
        });
        assert_eq!(ids, vec![vec![1, 2, 3], vec![1, 2, 3]]);
    }

    #[test]
    fn uninstalled_thread_records_nothing_while_another_is_active() {
        let recorder = Recorder::new();
        let _install = recorder.install();
        std::thread::scope(|scope_| {
            scope_.spawn(|| {
                // No install on this thread: active globally, but this
                // thread has no destination.
                record(CostKind::ModExp, 99);
                assert!(!span("phase", "orphan", 0).is_recording());
            });
        });
        assert!(recorder.snapshot().is_empty());
    }

    #[test]
    fn install_nests_and_restores_previous_recorder() {
        let a = Recorder::new();
        let b = Recorder::new();
        let _ga = a.install();
        {
            let _gb = b.install();
            record(CostKind::ModExp, 2);
        }
        record(CostKind::ModExp, 3);
        drop(_ga);
        assert_eq!(b.take().total_cost().modexp, 2);
        assert_eq!(a.take().total_cost().modexp, 3);
    }

    #[test]
    fn take_drains_the_trace() {
        let recorder = Recorder::new();
        {
            let _install = recorder.install();
            record(CostKind::Round, 1);
        }
        assert_eq!(recorder.take().total_cost().rounds, 1);
        assert!(recorder.take().is_empty());
    }
}
