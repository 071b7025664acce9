//! The [`Tracer`] handle and [`SpanGuard`] builder.

use std::sync::Arc;

use mlscore_sim::{SimDuration, SimInstant, Stage};
use parking_lot::Mutex;

use crate::span::{Scope, SpanEvent, Trace, Track};

/// Shared buffer the tracer appends completed spans to.
#[derive(Debug, Default)]
struct TraceSink {
    events: Mutex<Vec<SpanEvent>>,
}

/// A cloneable handle that records spans into a shared trace buffer.
///
/// Cost models take a `&Tracer` and open spans as they account simulated
/// time. A disabled tracer ([`Tracer::disabled`]) records nothing and makes
/// every span operation a no-op, so un-instrumented call paths (`estimate`
/// without tracing) pay only an `Option` check.
///
/// Clones share the same buffer; the tracer is `Send + Sync`, so parallel
/// CPU scoring workers can record detail spans concurrently.
#[derive(Debug, Clone, Default)]
pub struct Tracer {
    sink: Option<Arc<TraceSink>>,
}

impl Tracer {
    /// A tracer that records into a fresh buffer.
    pub fn new() -> Self {
        Tracer {
            sink: Some(Arc::new(TraceSink::default())),
        }
    }

    /// A tracer that records nothing; all span operations are no-ops.
    pub fn disabled() -> Self {
        Tracer { sink: None }
    }

    /// Returns `true` if spans are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Opens a span starting at `start`; finish it with
    /// [`SpanGuard::finish`] or [`SpanGuard::finish_after`] to record it.
    pub fn span(&self, name: impl Into<String>, start: SimInstant) -> SpanGuard<'_> {
        SpanGuard {
            tracer: self,
            start,
            event: self.sink.as_ref().map(|_| SpanEvent {
                name: name.into(),
                stage: None,
                scope: Scope::Detail,
                start,
                dur: SimDuration::ZERO,
                track: Track::default(),
                metadata: Vec::new(),
                flows_out: Vec::new(),
                flows_in: Vec::new(),
            }),
        }
    }

    /// Takes the recorded spans, leaving the buffer empty.
    pub fn take(&self) -> Trace {
        match &self.sink {
            Some(sink) => Trace::from_events(std::mem::take(&mut sink.events.lock())),
            None => Trace::new(),
        }
    }

    fn record(&self, event: SpanEvent) {
        if let Some(sink) = &self.sink {
            sink.events.lock().push(event);
        }
    }
}

/// An in-flight span: a builder for one [`SpanEvent`].
///
/// Configure it with the chaining methods, then call [`finish`]
/// (explicit end instant) or [`finish_after`] (duration relative to the
/// start). A guard from a disabled tracer skips all work. Dropping a guard
/// without finishing discards the span — spans in simulated time have no
/// meaningful implicit end, so nothing sensible could be recorded.
///
/// [`finish`]: SpanGuard::finish
/// [`finish_after`]: SpanGuard::finish_after
#[must_use = "a span records nothing until finish()/finish_after() is called"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    start: SimInstant,
    event: Option<SpanEvent>,
}

impl SpanGuard<'_> {
    /// Attributes the span's time to a pipeline/offload stage.
    pub fn stage(mut self, stage: Stage) -> Self {
        if let Some(ev) = &mut self.event {
            ev.stage = Some(stage);
        }
        self
    }

    /// Sets the accounting scope (default: [`Scope::Detail`]).
    pub fn scope(mut self, scope: Scope) -> Self {
        if let Some(ev) = &mut self.event {
            ev.scope = scope;
        }
        self
    }

    /// Places the span on a timeline row.
    pub fn track(mut self, process: &str, lane: impl Into<String>) -> Self {
        if let Some(ev) = &mut self.event {
            ev.track = Track::new(process, lane);
        }
        self
    }

    /// Attaches a key/value annotation.
    pub fn meta(mut self, key: &str, value: impl Into<String>) -> Self {
        if let Some(ev) = &mut self.event {
            ev.metadata.push((key.to_string(), value.into()));
        }
        self
    }

    /// Marks this span as the *origin* of causal flow `id` (the exporter
    /// emits a Perfetto flow-start step bound to the span's end).
    pub fn flow_out(mut self, id: u64) -> Self {
        if let Some(ev) = &mut self.event {
            ev.flows_out.push(id);
        }
        self
    }

    /// Marks this span as the *terminus* of causal flow `id` (the exporter
    /// emits a Perfetto flow-end step bound to the span's start).
    pub fn flow_in(mut self, id: u64) -> Self {
        if let Some(ev) = &mut self.event {
            ev.flows_in.push(id);
        }
        self
    }

    /// Records the span as ending at `end`, returning `end` so callers can
    /// thread the simulated clock through consecutive spans.
    pub fn finish(mut self, end: SimInstant) -> SimInstant {
        if let Some(mut ev) = self.event.take() {
            ev.dur = end - ev.start;
            self.tracer.record(ev);
        }
        end
    }

    /// Records the span with an explicit duration (preserved bit-exactly —
    /// preferred whenever the cost model computed the duration directly),
    /// returning the resulting end instant.
    pub fn finish_after(mut self, dur: SimDuration) -> SimInstant {
        if let Some(mut ev) = self.event.take() {
            ev.dur = dur;
            self.tracer.record(ev);
        }
        // Advance the caller's clock whether or not tracing is enabled.
        self.start + dur
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_spans_in_order() {
        let tracer = Tracer::new();
        let t0 = SimInstant::ZERO;
        let t1 = tracer
            .span("setup", t0)
            .stage(Stage::AcceleratorSetup)
            .scope(Scope::Offload)
            .track("fpga", "query")
            .meta("backend", "fpga")
            .finish_after(SimDuration::from_micros(3.0));
        tracer
            .span("score", t1)
            .stage(Stage::Scoring)
            .scope(Scope::Offload)
            .finish(t1 + SimDuration::from_millis(1.0));

        let trace = tracer.take();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.events()[0].name, "setup");
        assert_eq!(trace.events()[0].metadata[0].1, "fpga");
        assert_eq!(trace.events()[1].start, t1);
        assert_eq!(trace.events()[1].dur, SimDuration::from_millis(1.0));
        // take() drained the buffer.
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let tracer = Tracer::disabled();
        assert!(!tracer.is_enabled());
        tracer
            .span("ghost", SimInstant::ZERO)
            .stage(Stage::Scoring)
            .finish(SimInstant::from_secs(1.0));
        // The clock still advances correctly through a disabled span.
        let t0 = SimInstant::from_secs(2.0);
        let t1 = tracer
            .span("ghost2", t0)
            .finish_after(SimDuration::from_secs(0.5));
        assert_eq!(t1, SimInstant::from_secs(2.5));
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn clones_share_the_buffer() {
        let tracer = Tracer::new();
        let clone = tracer.clone();
        clone
            .span("from-clone", SimInstant::ZERO)
            .finish_after(SimDuration::from_nanos(1.0));
        assert_eq!(tracer.take().len(), 1);
    }

    #[test]
    fn dropping_an_unfinished_span_discards_it() {
        let tracer = Tracer::new();
        {
            let _g = tracer.span("abandoned", SimInstant::ZERO);
        }
        assert!(tracer.take().is_empty());
    }

    #[test]
    fn finish_returns_end_for_clock_threading() {
        let tracer = Tracer::new();
        let t0 = SimInstant::from_secs(1.0);
        let t1 = tracer
            .span("a", t0)
            .finish_after(SimDuration::from_secs(0.5));
        assert_eq!(t1, SimInstant::from_secs(1.5));
        let t2 = tracer
            .span("b", t1)
            .finish(t1 + SimDuration::from_secs(0.25));
        assert_eq!(t2, SimInstant::from_secs(1.75));
    }
}
