//! Span events, traces, and the exact-split arithmetic helper.

use std::fmt;

use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};

/// Which accounting level a span belongs to.
///
/// Spans at different scopes intentionally overlap in time (a backend's
/// offload spans nest inside the pipeline's `Scoring` span), so exporters
/// and [`Trace::breakdown`] must never sum across scopes — that would
/// double-count. The taxonomy:
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scope {
    /// Stages of the end-to-end query pipeline (Fig. 11): summing the
    /// `Query` spans of a trace reproduces the pipeline's breakdown.
    Query,
    /// Stages of a backend's offload cost model (Fig. 6/7): summing the
    /// `Offload` spans reproduces the backend's scoring breakdown.
    Offload,
    /// One-time model compilation (deserialize + lower) charged on a cold
    /// artifact-cache miss. Measured wall-clock, not simulated — kept out of
    /// the `Query` fold so warm/cold query breakdowns stay comparable.
    Compile,
    /// Purely visual detail — per-pass engine activity, overlapped PCIe
    /// streaming, per-chunk CPU workers. Never summed into a breakdown.
    Detail,
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Scope::Query => "query",
            Scope::Offload => "offload",
            Scope::Compile => "compile",
            Scope::Detail => "detail",
        })
    }
}

/// The timeline row a span is drawn on.
///
/// Maps onto Perfetto's process/thread hierarchy: `process` becomes a
/// `pid` (one per backend — "pipeline", "fpga", "gpu-fil", ...) and `lane`
/// a `tid` within it (one per query, engine pass, or worker), so spans on
/// different lanes render as parallel tracks and overlap is visible.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Track {
    /// Process-level grouping (one per backend or pipeline).
    pub process: String,
    /// Thread-level row within the process.
    pub lane: String,
}

impl Track {
    /// Creates a track from process and lane names.
    pub fn new(process: impl Into<String>, lane: impl Into<String>) -> Self {
        Track {
            process: process.into(),
            lane: lane.into(),
        }
    }
}

impl Default for Track {
    fn default() -> Self {
        Track::new("mlscore", "main")
    }
}

/// One completed span on the simulated timeline.
///
/// Stores `start + dur` (not `start + end`) so stage durations survive
/// export/reconstruction bit-exactly; the end instant is derived.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEvent {
    /// Human-readable span name (e.g. `"fpga/pass2/stream"`).
    pub name: String,
    /// The pipeline/offload stage this span's time is attributed to, if any.
    pub stage: Option<Stage>,
    /// Accounting level; see [`Scope`].
    pub scope: Scope,
    /// When the span started.
    pub start: SimInstant,
    /// How long it lasted.
    pub dur: SimDuration,
    /// Timeline row.
    pub track: Track,
    /// Free-form key/value annotations (backend name, pass index, policy...).
    pub metadata: Vec<(String, String)>,
    /// Causal-flow ids this span *originates* (Perfetto `ph:"s"` steps):
    /// e.g. a request's queue-wait span starts flow `request.id`.
    pub flows_out: Vec<u64>,
    /// Causal-flow ids this span *terminates* (Perfetto `ph:"f"` steps):
    /// e.g. a device-pass span ends the flow of every request it scored.
    pub flows_in: Vec<u64>,
}

impl SpanEvent {
    /// The instant the span ended.
    pub fn end(&self) -> SimInstant {
        self.start + self.dur
    }
}

/// An ordered collection of completed spans.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    events: Vec<SpanEvent>,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Wraps a recorded event list.
    pub fn from_events(events: Vec<SpanEvent>) -> Self {
        Trace { events }
    }

    /// The recorded spans, in recording order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Appends another trace's events after this one's.
    pub fn extend(&mut self, other: Trace) {
        self.events.extend(other.events);
    }

    /// The latest end instant across all spans (epoch for an empty trace).
    pub fn end(&self) -> SimInstant {
        self.events
            .iter()
            .map(SpanEvent::end)
            .max()
            .unwrap_or(SimInstant::ZERO)
    }

    /// Reconstructs the [`TimingBreakdown`] for one accounting scope by
    /// folding staged spans in recording order.
    ///
    /// Cost models state each stage once: a backend's `Offload` stages go
    /// through a [`StageRecorder`](crate::StageRecorder), which charges a
    /// span's duration as it records it, and the pipeline's `Query` spans
    /// are its stage list recorded in order. Multi-span stages are cut
    /// with [`ExactSplit`]. So the reconstruction is equal — not
    /// approximately, but `==` on the `f64` sums and the stage order — to
    /// the breakdown the model returns. The integration tests assert this.
    pub fn breakdown(&self, scope: Scope) -> TimingBreakdown {
        let mut b = TimingBreakdown::new();
        for ev in &self.events {
            if ev.scope == scope {
                if let Some(stage) = ev.stage {
                    b.add(stage, ev.dur);
                }
            }
        }
        b
    }
}

/// Splits a stage total across `k` spans such that re-accumulating the
/// parts left-to-right recovers the total **bit-exactly**.
///
/// The first `k - 1` parts are `total / k`; the last part is
/// `total - (sum of the first k - 1)`, where the sum is tracked with the
/// same left-to-right fold that [`TimingBreakdown::add`] performs. Since
/// the running sum `a` of the first `k - 1` parts lies in `[total / 2,
/// total]`, Sterbenz's lemma makes `total - a` exact, and therefore
/// `a + (total - a)` rounds to exactly `total`.
///
/// # Example
///
/// ```
/// use mlscore_sim::SimDuration;
/// use mlscore_telemetry::ExactSplit;
///
/// let total = SimDuration::from_nanos(10.0) / 3.0; // not representable nicely
/// let parts: Vec<_> = ExactSplit::new(total, 7).collect();
/// assert_eq!(parts.len(), 7);
/// let refold: SimDuration = parts.into_iter().sum();
/// assert_eq!(refold, total); // bit-exact
/// ```
#[derive(Debug, Clone)]
pub struct ExactSplit {
    total: SimDuration,
    part: SimDuration,
    acc: SimDuration,
    emitted: usize,
    k: usize,
}

impl ExactSplit {
    /// Splits `total` into `k` parts.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    pub fn new(total: SimDuration, k: usize) -> Self {
        assert!(k > 0, "cannot split a duration into 0 parts");
        ExactSplit {
            total,
            part: total / k as f64,
            acc: SimDuration::ZERO,
            emitted: 0,
            k,
        }
    }
}

impl Iterator for ExactSplit {
    type Item = SimDuration;

    fn next(&mut self) -> Option<SimDuration> {
        if self.emitted >= self.k {
            return None;
        }
        self.emitted += 1;
        if self.emitted < self.k {
            self.acc += self.part;
            Some(self.part)
        } else {
            // Exact by Sterbenz: acc is within [total/2, total].
            Some(self.total - self.acc)
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.k - self.emitted;
        (left, Some(left))
    }
}

impl ExactSizeIterator for ExactSplit {}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(name: &str, scope: Scope, stage: Option<Stage>, start_us: f64, dur_us: f64) -> SpanEvent {
        SpanEvent {
            name: name.into(),
            stage,
            scope,
            start: SimInstant::from_secs(start_us * 1e-6),
            dur: SimDuration::from_micros(dur_us),
            track: Track::default(),
            metadata: vec![],
            flows_out: vec![],
            flows_in: vec![],
        }
    }

    #[test]
    fn breakdown_folds_only_matching_scope() {
        let trace = Trace::from_events(vec![
            ev("a", Scope::Query, Some(Stage::Scoring), 0.0, 10.0),
            ev("b", Scope::Offload, Some(Stage::Scoring), 0.0, 7.0),
            ev("c", Scope::Detail, None, 0.0, 99.0),
            ev("d", Scope::Query, Some(Stage::Scoring), 10.0, 5.0),
        ]);
        let q = trace.breakdown(Scope::Query);
        assert_eq!(q.get(Stage::Scoring), SimDuration::from_micros(15.0));
        let o = trace.breakdown(Scope::Offload);
        assert_eq!(o.get(Stage::Scoring), SimDuration::from_micros(7.0));
    }

    #[test]
    fn trace_end_is_latest_span_end() {
        let trace = Trace::from_events(vec![
            ev("a", Scope::Detail, None, 0.0, 100.0),
            ev("b", Scope::Detail, None, 50.0, 10.0),
        ]);
        assert_eq!(
            trace.end(),
            SimInstant::ZERO + SimDuration::from_micros(100.0)
        );
        assert_eq!(Trace::new().end(), SimInstant::ZERO);
    }

    #[test]
    fn exact_split_refolds_bit_exactly() {
        // Awkward totals that do not divide evenly in binary.
        for (raw, k) in [
            (1.0 / 3.0, 2),
            (0.1, 3),
            (6.9e-4, 7),
            (1.234_567_89e-2, 13),
            (4e-9, 128),
        ] {
            let total = SimDuration::from_secs(raw);
            let refold: SimDuration = ExactSplit::new(total, k).sum();
            assert_eq!(refold, total, "k={k} raw={raw}");
            assert_eq!(ExactSplit::new(total, k).count(), k);
        }
    }

    #[test]
    fn exact_split_of_one_is_identity() {
        let total = SimDuration::from_micros(123.456);
        let parts: Vec<_> = ExactSplit::new(total, 1).collect();
        assert_eq!(parts, vec![total]);
    }

    #[test]
    #[should_panic(expected = "0 parts")]
    fn exact_split_zero_parts_panics() {
        let _ = ExactSplit::new(SimDuration::ZERO, 0);
    }
}
