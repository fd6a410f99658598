//! The traced pass's recorder: the existing `dla_telemetry::Recorder`
//! installed on the client thread for exact op counts, plus the
//! harness's own wall-clock spans (see [`crate::stages::span`]), kept
//! in memory and written out as one Chrome trace per workload.

use crate::stages::HARNESS_SPANS;
use dla_telemetry::{chrome_trace_json, CostVector, InstallGuard, Recorder, SpanRecord, Trace};

pub struct Tracer {
    recorder: Recorder,
    _installed: InstallGuard,
    spans: Vec<SpanRecord>,
}

impl Tracer {
    pub fn install() -> Tracer {
        let recorder = Recorder::new();
        let installed = recorder.install();
        Tracer {
            recorder,
            _installed: installed,
            spans: Vec::new(),
        }
    }

    /// Takes what was recorded since the last drain: the op counts are
    /// returned, the harness's spans kept for the Chrome trace. (The
    /// program's own spans carry virtual timestamps and are dropped.)
    pub fn drain(&mut self) -> CostVector {
        let trace = self.recorder.take();
        let cost = trace.total_cost();
        self.spans.extend(
            trace
                .spans
                .into_iter()
                .filter(|s| s.category == HARNESS_SPANS),
        );
        cost
    }

    /// The harness spans so far, in the Chrome trace-event format.
    pub fn chrome_json(&mut self) -> String {
        self.drain();
        chrome_trace_json(&Trace {
            spans: std::mem::take(&mut self.spans),
            ..Trace::default()
        })
    }
}

/// Drains `tracer` (when tracing) into `into`.
pub fn drain_into(tracer: &mut Option<Tracer>, into: &mut CostVector) {
    if let Some(tracer) = tracer {
        into.merge(&tracer.drain());
    }
}

/// Drains `tracer` (when tracing) and drops the counts: work that is no
/// op's own (set-up, restores, integrity checks).
pub fn discard(tracer: &mut Option<Tracer>) {
    drain_into(tracer, &mut CostVector::default());
}
