//! The discrete-event serving engine.
//!
//! One event loop, simulated time only: arrivals enter the admission
//! queue, dispatch opportunities (arrivals and device completions) pull
//! FIFO batches of same-model requests off the queue, an
//! eligibility-masked arbitration picks the backend whose device has a
//! free slot and whose amortized cost is lowest, and a
//! [`DeviceLedger`] per device serializes the passes. Every duration is a
//! cost-model output — the engine never calls a wall clock, so a run is a
//! pure function of `(workload, config)`.
//!
//! One [`EngineSession`], borrowed from its [`ServeEngine`], holds a run's
//! state and drives the loop:
//!
//! - [`ServeEngine::run`] seeds a whole [`WorkloadSpec`]'s arrivals into
//!   a session and finishes it.
//! - A caller holding a session ([`ServeEngine::session`]) injects
//!   arrivals one by one ([`EngineSession::inject`]) and advances the
//!   engine to horizon instants ([`EngineSession::step_until`]). Fed a
//!   spec's arrival stream, it reproduces `run` exactly.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mlscore_backend::{artifact_key, ArtifactKey, CacheStats, ScoringBackend};
use mlscore_forest::ModelStats;
use mlscore_pipeline::PipelineParams;
use mlscore_sched::{choose_amortized_eligible, Choice};
use mlscore_sim::{DeviceLedger, LruCacheModel, SimDuration, SimInstant, StageClass};
use mlscore_telemetry::{TimeSeriesRecorder, Tracer};

use crate::coalesce::batch_caps;
use crate::device::{DeviceRoster, CPU_SEATS, GPU_STREAMS};
use crate::error::ServeError;
use crate::journal::{JournalKind, RequestJournal, ShedReason};
use crate::queue::AdmissionQueue;
use crate::report::{DeviceReport, ServingReport};
use crate::request::{QueryClass, RequestId, ServeRequest};
use crate::slo::{SloMonitor, WINDOW_MS};
use crate::workload::{ModelCatalog, WorkloadSpec};

/// Compiled artifacts the simulated artifact cache holds, across all
/// backends. On a miss a pass pays
/// `PipelineParams::model_preprocess_time`, on a hit
/// `PipelineParams::cache_lookup`.
const CACHE_ENTRIES: usize = 32;

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission-queue capacity (`None`: unbounded). A request arriving at
    /// a full queue is rejected.
    pub capacity: Option<usize>,
    /// Target end-to-end latency of an interactive request; completions
    /// above it count as SLO violations (`None`: untracked). Violations
    /// are counted, never enforced, so SLOs do not perturb scheduling.
    pub interactive_slo: Option<SimDuration>,
    /// Target end-to-end latency of an analytical request (see
    /// `interactive_slo`).
    pub analytical_slo: Option<SimDuration>,
    /// Micro-batch coalescing: merge up to 64 queued same-model requests
    /// (1 M records) into one device pass. Off, every pass scores one
    /// request.
    pub coalesce: bool,
    /// Concurrent passes on the shared CPU device (executor-pool seats).
    pub cpu_seats: usize,
    /// Concurrent passes on the shared GPU device (streams).
    pub gpu_streams: usize,
}

impl ServeConfig {
    /// Whether a `class` request that took `latency` from arrival to
    /// completion violated its class's SLO (never, for an untracked
    /// class). The windowed series and the report's fold both count
    /// violations with this one test.
    pub(crate) fn misses_slo(&self, class: QueryClass, latency: SimDuration) -> bool {
        let slo = match class {
            QueryClass::Interactive => self.interactive_slo,
            QueryClass::Analytical => self.analytical_slo,
        };
        slo.is_some_and(|slo| latency > slo)
    }
}

impl Default for ServeConfig {
    /// Unbounded queue, no SLOs, coalescing on, and the paper topology
    /// ([`CPU_SEATS`], [`GPU_STREAMS`]) whatever host simulates it.
    fn default() -> Self {
        Self {
            capacity: None,
            interactive_slo: None,
            analytical_slo: None,
            coalesce: true,
            cpu_seats: CPU_SEATS,
            gpu_streams: GPU_STREAMS,
        }
    }
}

/// The serving engine: a backend roster, a model catalog, and a
/// configuration, run against workloads.
///
/// # Example
///
/// ```
/// use mlscore_sched::paper_backends;
/// use mlscore_serve::{ModelCatalog, ServeConfig, ServeEngine, WorkloadSpec};
/// use mlscore_telemetry::Tracer;
///
/// let engine = ServeEngine::new(
///     paper_backends(),
///     ModelCatalog::paper_mix(),
///     ServeConfig::default(),
/// );
/// let spec = WorkloadSpec {
///     queries: 30,
///     seed: 7,
///     rate_qps: 50.0,
/// };
/// let report = engine.run(&spec, &Tracer::disabled()).expect("servable spec");
/// assert!(report.is_conserved());
/// assert_eq!(report.completed + report.shed() + report.unservable, 30);
/// ```
pub struct ServeEngine {
    backends: Vec<Box<dyn ScoringBackend>>,
    catalog: ModelCatalog,
    config: ServeConfig,
    params: PipelineParams,
}

impl ServeEngine {
    /// Builds an engine over `backends` and `catalog`.
    ///
    /// # Panics
    ///
    /// Panics on an empty roster or catalog.
    pub fn new(
        backends: Vec<Box<dyn ScoringBackend>>,
        catalog: ModelCatalog,
        config: ServeConfig,
    ) -> Self {
        assert!(
            !backends.is_empty(),
            "the engine needs at least one backend"
        );
        assert!(!catalog.is_empty(), "the engine needs at least one model");
        Self {
            backends,
            catalog,
            config,
            params: PipelineParams::default(),
        }
    }

    /// Runs `spec` to completion, recording spans on `tracer` (pass
    /// [`Tracer::disabled`] to skip telemetry).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidWorkload`] — before any event runs —
    /// for a spec [`WorkloadSpec::validate`] rejects; a malformed spec is
    /// load a serving endpoint refuses, not a panic.
    pub fn run(&self, spec: &WorkloadSpec, tracer: &Tracer) -> Result<ServingReport, ServeError> {
        let mut session = self.session(tracer);
        session.seed_arrivals(spec)?;
        Ok(session.finish())
    }

    /// Starts an externally-stepped [`EngineSession`] on this engine,
    /// recording spans on `tracer`.
    pub fn session<'e>(&'e self, tracer: &'e Tracer) -> EngineSession<'e> {
        let roster = DeviceRoster::paper_default(
            &self.backends,
            self.config.cpu_seats,
            self.config.gpu_streams,
        );
        let ledgers = roster
            .devices()
            .iter()
            .map(|d| DeviceLedger::new(d.slots))
            .collect();
        EngineSession {
            engine: self,
            tracer,
            roster,
            ledgers,
            queue: AdmissionQueue::new(self.config.capacity),
            events: BinaryHeap::new(),
            seq: 0,
            draws: Vec::new(),
            next_batch: 0,
            stepped_to: SimInstant::ZERO,
            cache: LruCacheModel::new(CACHE_ENTRIES),
            series: TimeSeriesRecorder::new(SimDuration::from_millis(WINDOW_MS)),
            journal: RequestJournal::new(),
        }
    }

    /// The one-time prepare charge of a pass of `model`: a warm lookup if
    /// its artifact is resident (`hit`), a full model pre-processing pass
    /// if not. Arbitration predicts with it, and a dispatch charges it.
    fn prepare(&self, hit: bool, model: usize) -> SimDuration {
        if hit {
            self.params.cache_lookup
        } else {
            self.params
                .model_preprocess_time(self.catalog.model_bytes(model))
        }
    }
}

/// Heap events, ordered by `(instant, insertion sequence)` — insertion
/// order breaks simultaneous-event ties deterministically, and the
/// sequence is unique, so `kind` never decides.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum EventKind {
    Arrival { draw: usize },
    DeviceFree,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Event {
    at: SimInstant,
    seq: u64,
    kind: EventKind,
}

/// One run of a [`ServeEngine`]: the engine it borrows, the tracer, and
/// everything the event loop touches, advanced by [`ServeEngine::run`]
/// or by its caller instead of a workload spec. It keeps no per-request
/// count: each lifecycle transition is written once, to the journal, and
/// the report is folded from that.
///
/// A session executes exactly the code `ServeEngine::run` does, event for
/// event — feeding a spec's arrival stream through
/// [`EngineSession::inject`] and calling [`EngineSession::finish`]
/// reproduces the standalone report bit for bit.
///
/// # Example
///
/// ```
/// use mlscore_sched::paper_backends;
/// use mlscore_serve::{ModelCatalog, ServeConfig, ServeEngine};
/// use mlscore_sim::SimInstant;
/// use mlscore_telemetry::Tracer;
///
/// let engine = ServeEngine::new(
///     paper_backends(),
///     ModelCatalog::paper_mix(),
///     ServeConfig::default(),
/// );
/// let tracer = Tracer::disabled();
/// let mut session = engine.session(&tracer);
/// session.inject(SimInstant::ZERO, 0, 100);
/// let report = session.finish();
/// assert!(report.is_conserved());
/// assert_eq!(report.completed, 1);
/// ```
pub struct EngineSession<'e> {
    engine: &'e ServeEngine,
    tracer: &'e Tracer,
    roster: DeviceRoster,
    ledgers: Vec<DeviceLedger>,
    queue: AdmissionQueue,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// `(model, records)` of every seeded or injected arrival. Arrivals
    /// run in this order (non-decreasing instants, ties broken by
    /// insertion), so a request's id is its index here.
    draws: Vec<(usize, u64)>,
    /// The sequence number the next device pass takes.
    next_batch: u64,
    /// High-water mark of event processing and injections; guards
    /// [`EngineSession::inject`] against scheduling in the already-stepped
    /// past.
    stepped_to: SimInstant,
    cache: LruCacheModel<ArtifactKey>,
    series: TimeSeriesRecorder,
    journal: RequestJournal,
}

impl EngineSession<'_> {
    /// Appends one arrival at `at` (must be non-decreasing across
    /// injections and not before any stepped horizon) and returns the
    /// request id it will carry. Together with the heap's `(at, seq)`
    /// order, that makes processing order equal injection order, so the
    /// returned id is exact.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of catalog range or `at` lies in the
    /// already-stepped past — both are caller bugs, not load.
    pub fn inject(&mut self, at: SimInstant, model: usize, n_records: u64) -> RequestId {
        assert!(
            model < self.engine.catalog.len(),
            "inject: model index out of catalog range"
        );
        assert!(
            at >= self.stepped_to,
            "inject: arrivals must not land in the already-stepped past"
        );
        self.stepped_to = at;
        let draw = self.draws.len();
        self.draws.push((model, n_records));
        self.push_event(at, EventKind::Arrival { draw });
        draw as RequestId
    }

    /// Processes every pending event at or before `horizon`, then marks
    /// the session as stepped to `horizon`.
    pub fn step_until(&mut self, horizon: SimInstant) {
        while let Some(&Reverse(event)) = self.events.peek() {
            if event.at > horizon {
                break;
            }
            self.events.pop();
            self.handle(event);
        }
        if horizon > self.stepped_to {
            self.stepped_to = horizon;
        }
    }

    /// Runs every remaining event to completion and returns the report.
    pub fn finish(mut self) -> ServingReport {
        self.step_all();
        // Scan the finished series for budget-burn alerts; each one lands
        // in the trace (a span covering the offending window on an
        // `slo {class}` lane) and in the journal, the report's one copy.
        for alert in SloMonitor::scan(&self.series) {
            self.tracer
                .span("slo alert", alert.at)
                .track("serve", format_args!("slo {}", alert.class))
                .meta("window", alert.window)
                .meta("attainment", format_args!("{:.6}", alert.attainment))
                .meta("burn rate", format_args!("{:.6}", alert.burn_rate))
                .finish(alert.at + self.series.window_len());
            self.journal.alert(alert);
        }
        let (roster, ledgers) = (&self.roster, &self.ledgers);
        ServingReport::fold(
            self.journal,
            &self.engine.config,
            CacheStats::of(&self.cache),
            self.series,
            |makespan| {
                roster
                    .devices()
                    .iter()
                    .zip(ledgers)
                    .map(|(spec, ledger)| DeviceReport {
                        name: spec.name.clone(),
                        slots: spec.slots,
                        passes: ledger.reservations(),
                        busy: ledger.busy_time(),
                        utilization: ledger.utilization(makespan),
                    })
                    .collect()
            },
        )
    }

    fn push_event(&mut self, at: SimInstant, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.events.push(Reverse(Event { at, seq, kind }));
    }

    /// Seeds every arrival of `spec`. Unlike [`EngineSession::inject`] it
    /// asserts nothing: a spec is load, checked by its own validation.
    fn seed_arrivals(&mut self, spec: &WorkloadSpec) -> Result<(), ServeError> {
        let times = spec.arrival_times()?;
        self.draws = spec.draws(self.engine.catalog.len());
        for (draw, at) in times.into_iter().enumerate() {
            self.push_event(at, EventKind::Arrival { draw });
        }
        Ok(())
    }

    /// Processes one popped event.
    fn handle(&mut self, event: Event) {
        let now = event.at;
        if now > self.stepped_to {
            self.stepped_to = now;
        }
        if let EventKind::Arrival { draw } = event.kind {
            self.arrive(now, draw);
        }
        // DeviceFree carries no state of its own: it exists to create the
        // dispatch opportunity below.
        self.try_dispatch(now);
    }

    /// Drains the heap completely.
    fn step_all(&mut self) {
        while let Some(Reverse(event)) = self.events.pop() {
            self.handle(event);
        }
    }

    fn arrive(&mut self, now: SimInstant, draw: usize) {
        // analyze: allow(P001, reason="arrival events only carry draw indices seed_arrivals/inject generated below draws.len()")
        let (model, n_records) = self.draws[draw];
        let id = draw as RequestId;
        let request = ServeRequest {
            id,
            class: QueryClass::of(n_records),
            model,
            n_records,
            arrival: now,
        };
        self.journal.emit(
            now,
            id,
            JournalKind::Arrival {
                class: request.class,
                model,
                records: n_records,
            },
        );
        self.series.record_arrival(now, request.class.name());
        match self.queue.offer(request) {
            Ok(()) => self.journal.emit(now, id, JournalKind::Admitted),
            Err(victim) => self.shed(now, &victim, "shed reject", ShedReason::Rejected),
        }
        self.series.record_queue_depth(now, self.queue.len() as u64);
    }

    /// Records one shed: a span on the victim's class lane, a journal
    /// entry, and the time-series shed counter.
    fn shed(&mut self, now: SimInstant, victim: &ServeRequest, what: &str, reason: ShedReason) {
        self.tracer
            .span(what, victim.arrival)
            .track("serve", format_args!("class {}", victim.class.name()))
            .meta("request", victim.id)
            .meta("records", victim.n_records)
            .finish(now);
        self.journal
            .emit(now, victim.id, JournalKind::Shed { reason });
        self.series.record_shed(now, victim.class.name());
    }

    /// The backend at roster index `i`.
    fn backend(&self, i: usize) -> &dyn ScoringBackend {
        // analyze: allow(P001, reason="arbitration only yields indices obtained by enumerating this roster")
        self.engine.backends[i].as_ref()
    }

    /// The artifact backend `i` compiles `model` into.
    fn artifact(&self, backend: usize, model: usize) -> ArtifactKey {
        artifact_key(self.backend(backend), self.engine.catalog.bundle(model))
    }

    /// Whether backend `i`'s device has a free slot at `now`.
    fn eligible(&self, i: usize, now: SimInstant) -> bool {
        self.ledgers
            .get(self.roster.device_of(i))
            .is_some_and(|l| l.has_free_slot(now))
    }

    /// The amortized-cost argmin over the backends that support `stats`
    /// and whose device is free at `now`.
    fn arbitrate(
        &self,
        stats: &ModelStats,
        n_records: u64,
        model: usize,
        now: SimInstant,
    ) -> Option<Choice> {
        choose_amortized_eligible(
            stats,
            n_records,
            CacheStats::of(&self.cache).expected_reuse(),
            &self.engine.backends,
            &|i| {
                let hit = self.cache.would_hit(&self.artifact(i, model));
                self.engine.prepare(hit, model)
            },
            &|i| self.eligible(i, now),
        )
    }

    /// `(some backend supports the model, one of those has a free device
    /// at now)`. Arbitration finds a pick exactly when both hold, so a
    /// batch is only taken off the queue once it can leave.
    fn servability(&self, stats: &ModelStats, now: SimInstant) -> (bool, bool) {
        let mut supported = false;
        for (i, b) in self.engine.backends.iter().enumerate() {
            if b.supports(stats).is_ok() {
                supported = true;
                if self.eligible(i, now) {
                    return (true, true);
                }
            }
        }
        (supported, false)
    }

    /// Drains every dispatch opportunity available at `now`: repeatedly
    /// take the queue's per-model heads in FIFO order and dispatch the
    /// first batch whose model has a free supporting device (or shed it,
    /// if no backend supports the model at all). A head whose devices are
    /// all busy does not block other models (no cross-model head-of-line
    /// blocking), but same-model requests only ever leave in FIFO order.
    /// Each turn looks once at each model's FIFO, however long the queue.
    fn try_dispatch(&mut self, now: SimInstant) {
        let (max_requests, max_records) = batch_caps(self.engine.config.coalesce);
        // A head whose supporting devices are all busy waits for a
        // DeviceFree event.
        while let Some(model) = self.queue.heads().into_iter().find(|&model| {
            let (supported, free) = self.servability(self.engine.catalog.stats(model), now);
            free || !supported
        }) {
            let batch = self.queue.take_batch(model, max_requests, max_records);
            let records = batch.iter().map(|r| r.n_records).sum();
            let stats = *self.engine.catalog.stats(model);
            match self.arbitrate(&stats, records, model, now) {
                Some(choice) => self.dispatch(now, batch, choice),
                None => {
                    for victim in batch {
                        self.shed(now, &victim, "unservable", ShedReason::Unservable);
                    }
                    self.series.record_queue_depth(now, self.queue.len() as u64);
                }
            }
        }
    }

    /// Executes one device pass for `batch` on `choice`. An empty batch is
    /// a no-op — `try_dispatch` only hands over non-empty FIFO batches.
    fn dispatch(&mut self, now: SimInstant, batch: Vec<ServeRequest>, choice: Choice) {
        let Some(head) = batch.first() else { return };
        let model = head.model;
        let stats = *self.engine.catalog.stats(model);
        let total_records: u64 = batch.iter().map(|r| r.n_records).sum();

        // Compile charge through the cache model.
        let hit = self.cache.probe(self.artifact(choice.index, model));
        let prepare = self.engine.prepare(hit, model);

        let breakdown = self.backend(choice.index).estimate(
            &stats,
            total_records,
            &Tracer::disabled(),
            SimInstant::ZERO,
        );
        let score_time = breakdown.total();

        let device = self.roster.device_of(choice.index);
        // analyze: allow(P001, reason="ledgers are built one-to-one from roster devices, so device_of indices cannot miss")
        let (start, end) = self.ledgers[device].reserve(now, prepare + score_time);
        debug_assert_eq!(start, now, "arbitration only admits free devices");
        self.series.record_queue_depth(now, self.queue.len() as u64);

        let batch_seq = self.next_batch;
        self.next_batch += 1;

        // Telemetry: per-request queue-wait on the class lanes (each
        // originating its request's causal flow), then the pass phases on
        // the device lane.
        let device_name = self
            .roster
            .devices()
            .get(device)
            .map_or_else(|| "?".to_string(), |d| d.name.clone());
        for r in &batch {
            self.tracer
                .span("queue wait", r.arrival)
                .track("serve", format_args!("class {}", r.class.name()))
                .meta("request", r.id)
                .meta("records", r.n_records)
                .flow_out(r.id)
                .finish(start);
        }
        // One "device pass" span covering the whole reservation terminates
        // the flow of every request the pass scored: the Perfetto arrow
        // crosses from each class lane to this device lane.
        let mut pass_span = self
            .tracer
            .span("device pass", start)
            .track("serve", format_args!("device {device_name}"))
            .meta("backend", choice.name.as_str())
            .meta("batch", batch_seq)
            .meta("requests", batch.len())
            .meta("records", total_records);
        // Cache-resident models dispatch through the fused streaming path —
        // chunks pulled straight off the coalesced request frames (see
        // `score_merged_stream`) — while cold passes marshal a materialized
        // batch first.
        pass_span = pass_span.meta("path", if hit { "fused" } else { "staged" });
        for r in &batch {
            pass_span = pass_span.flow_in(r.id);
        }
        pass_span.finish(end);
        self.tracer
            .span("coalesce", start)
            .track("serve", format_args!("device {device_name}"))
            .meta("backend", choice.name.as_str())
            .meta("requests", batch.len())
            .meta("records", total_records)
            .finish(start);
        let mut cursor = self
            .tracer
            .span(if hit { "cache hit" } else { "compile model" }, start)
            .track("serve", format_args!("device {device_name}"))
            .meta("backend", choice.name.as_str())
            .finish_after(prepare);
        for (name, class) in [
            ("setup", StageClass::Overhead),
            ("transfer", StageClass::Transfer),
            ("compute", StageClass::Compute),
            ("drain", StageClass::Pipeline),
        ] {
            let dur = breakdown.total_class(class);
            if !dur.is_zero() {
                cursor = self
                    .tracer
                    .span(name, cursor)
                    .track("serve", format_args!("device {device_name}"))
                    .meta("backend", choice.name.as_str())
                    .meta("records", total_records)
                    .finish_after(dur);
            }
        }
        // The phase spans re-sum the breakdown per class, so the cursor can
        // differ from `end` by float-addition-order ulps — never more.
        debug_assert!(
            (cursor.duration_since(SimInstant::ZERO).as_secs()
                - end.duration_since(SimInstant::ZERO).as_secs())
            .abs()
                <= 1e-9 * end.duration_since(SimInstant::ZERO).as_secs().max(1.0),
            "span phases must cover the reservation: {cursor:?} vs {end:?}"
        );
        let _ = cursor;

        self.series
            .record_busy(&device_name, start, prepare + score_time);
        for r in &batch {
            let latency = end - r.arrival;
            if batch.len() > 1 {
                self.journal.emit(
                    start,
                    r.id,
                    JournalKind::Coalesced {
                        batch: batch_seq,
                        size: batch.len(),
                    },
                );
            }
            self.journal.emit(
                start,
                r.id,
                JournalKind::Dispatched {
                    batch: batch_seq,
                    backend: choice.name.clone(),
                    device: device_name.clone(),
                },
            );
            self.journal.emit(
                end,
                r.id,
                JournalKind::Completed {
                    latency,
                    queue_wait: start - r.arrival,
                    prepare,
                    setup: breakdown.total_class(StageClass::Overhead),
                    transfer: breakdown.total_class(StageClass::Transfer),
                    compute: breakdown.total_class(StageClass::Compute),
                    drain: breakdown.total_class(StageClass::Pipeline),
                },
            );
            let violated = self.engine.config.misses_slo(r.class, latency);
            self.series.record_completion(end, r.class.name(), violated);
        }
        self.push_event(end, EventKind::DeviceFree);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::JournalEntry;
    use mlscore_sched::paper_backends;
    use mlscore_telemetry::Histogram;
    use std::collections::BTreeSet;

    fn fpga_only() -> Vec<Box<dyn ScoringBackend>> {
        paper_backends()
            .into_iter()
            .filter(|b| b.name() == "FPGA")
            .collect()
    }

    fn spec(queries: usize, rate_qps: f64) -> WorkloadSpec {
        WorkloadSpec {
            queries,
            seed: 42,
            rate_qps,
        }
    }

    #[test]
    fn open_loop_run_is_conserved_and_deterministic() {
        let engine = ServeEngine::new(
            paper_backends(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let w = spec(60, 40.0);
        let a = engine.run(&w, &Tracer::disabled()).unwrap();
        let b = engine.run(&w, &Tracer::disabled()).unwrap();
        assert!(a.is_conserved());
        assert_eq!(a.offered, 60);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.picks, b.picks);
        assert_eq!(a.journal, b.journal);
        assert!(a.makespan > SimDuration::ZERO);
        // The mixed trace should use more than one backend.
        assert!(a.picks.len() >= 2, "picks {:?}", a.picks);
    }

    #[test]
    fn overload_with_bounded_queue_sheds() {
        let config = ServeConfig {
            capacity: Some(4),
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(fpga_only(), ModelCatalog::paper_mix(), config);
        let report = engine
            .run(&spec(200, 5_000.0), &Tracer::disabled())
            .unwrap();
        assert!(report.is_conserved());
        assert!(report.rejected > 0, "queue of 4 at 5k qps must shed");
        assert_eq!(report.shed(), report.rejected);
    }

    #[test]
    fn coalescing_merges_under_overload_and_disabled_never_does() {
        let mk = |enabled| {
            let config = ServeConfig {
                coalesce: enabled,
                ..ServeConfig::default()
            };
            let engine = ServeEngine::new(fpga_only(), ModelCatalog::paper_mix(), config);
            engine
                .run(&spec(300, 3_000.0), &Tracer::disabled())
                .unwrap()
        };
        let on = mk(true);
        let off = mk(false);
        assert!(on.is_conserved() && off.is_conserved());
        assert!(
            on.coalesced_batches > 0,
            "overload must build mergeable queues"
        );
        assert!(on.max_batch() > 1);
        assert_eq!(off.coalesced_batches, 0);
        assert_eq!(off.max_batch(), 1);
        assert!(off.batches >= on.batches, "merging cannot add passes");
        // Fewer fixed per-pass overheads: the merged run finishes no later.
        assert!(on.makespan <= off.makespan);
    }

    #[test]
    fn compile_charging_populates_the_cache_model() {
        let engine = ServeEngine::new(
            fpga_only(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let report = engine.run(&spec(100, 100.0), &Tracer::disabled()).unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.cache.lookups(), report.batches);
        assert!(
            report.cache.hits > 0,
            "12 models over 100 queries must re-hit"
        );
        // At most one artifact per (model, backend) pair.
        assert!(report.cache.entries <= 12);
    }

    #[test]
    fn observability_feeds_journal_series_and_flows() {
        use crate::journal::JournalKind;
        let config = ServeConfig {
            capacity: Some(32),
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(fpga_only(), ModelCatalog::paper_mix(), config);
        let tracer = Tracer::new();
        let report = engine.run(&spec(200, 2_000.0), &tracer).unwrap();
        let trace = tracer.take();
        assert!(report.is_conserved());

        // Journal: one lifecycle entry per transition, ids everywhere.
        let count = |name: &str| {
            report
                .journal
                .entries()
                .iter()
                .filter(|e| e.kind.name() == name)
                .count() as u64
        };
        assert_eq!(count("arrival"), report.offered);
        assert_eq!(count("admitted"), report.admitted);
        assert_eq!(count("shed"), report.shed() + report.unservable);
        assert_eq!(count("completed"), report.completed);
        // Refolding journaled latencies in emission order reproduces the
        // report's overall histogram bit-exactly.
        let mut refold = Histogram::new();
        for entry in report.journal.entries() {
            if let JournalKind::Completed { latency, .. } = entry.kind {
                refold.record(latency);
            }
        }
        assert_eq!(refold, report.latency);

        // Series: windowed counters sum back to the run totals.
        assert!(report.series.len() >= 2, "overload run spans windows");
        let arrivals: u64 = report.series.windows().map(|(_, w)| w.arrivals).sum();
        assert_eq!(arrivals, report.offered);
        let completions: u64 = report.series.windows().map(|(_, w)| w.completions()).sum();
        assert_eq!(completions, report.completed);
        assert!(report.series.peak_queue_depth() > 0);

        // Flows: every completed request's queue-wait span originates its
        // flow, and some coalesced device pass terminates several.
        let out_ids: Vec<u64> = trace
            .events()
            .iter()
            .filter(|e| e.name == "queue wait")
            .flat_map(|e| e.flows_out.clone())
            .collect();
        assert_eq!(out_ids.len() as u64, report.completed);
        let in_ids: Vec<u64> = trace
            .events()
            .iter()
            .filter(|e| e.name == "device pass")
            .flat_map(|e| e.flows_in.clone())
            .collect();
        let outs: BTreeSet<u64> = out_ids.into_iter().collect();
        let ins: BTreeSet<u64> = in_ids.into_iter().collect();
        assert_eq!(outs, ins, "every flow started is terminated");
        assert!(
            trace
                .events()
                .iter()
                .any(|e| e.name == "device pass" && e.flows_in.len() > 1),
            "2k qps on one FPGA must coalesce"
        );
    }

    #[test]
    fn cache_resident_passes_dispatch_fused() {
        let engine = ServeEngine::new(
            fpga_only(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let tracer = Tracer::new();
        let report = engine.run(&spec(100, 100.0), &tracer).unwrap();
        let trace = tracer.take();
        let path_of = |e: &mlscore_telemetry::SpanEvent| {
            e.metadata
                .iter()
                .find(|(k, _)| k == "path")
                .map(|(_, v)| v.clone())
        };
        let passes: Vec<_> = trace
            .events()
            .iter()
            .filter(|e| e.name == "device pass")
            .collect();
        assert_eq!(passes.len() as u64, report.batches);
        // Every pass is tagged, and warm (cache-hit) passes go fused: the
        // fused count matches the cache model's hit count exactly.
        assert!(passes.iter().all(|e| path_of(e).is_some()));
        let fused = passes
            .iter()
            .filter(|e| path_of(e).as_deref() == Some("fused"))
            .count() as u64;
        assert_eq!(fused, report.cache.hits);
        assert!(fused > 0, "12 models over 100 queries must re-hit");
        assert!(
            passes
                .iter()
                .any(|e| path_of(e).as_deref() == Some("staged")),
            "cold compiles stay on the staged path"
        );
    }

    #[test]
    fn serving_spans_land_on_device_and_class_lanes() {
        let engine = ServeEngine::new(
            paper_backends(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let tracer = Tracer::new();
        let report = engine.run(&spec(40, 200.0), &tracer).unwrap();
        let trace = tracer.take();
        assert!(!trace.is_empty());
        let lanes: BTreeSet<String> = trace
            .events()
            .iter()
            .map(|e| e.track.lane.clone())
            .collect();
        assert!(lanes.iter().any(|l| l.starts_with("device ")), "{lanes:?}");
        assert!(lanes.contains("class interactive") || lanes.contains("class analytical"));
        let queue_waits = trace
            .events()
            .iter()
            .filter(|e| e.name == "queue wait")
            .count() as u64;
        assert_eq!(queue_waits, report.completed);
        let computes = trace
            .events()
            .iter()
            .filter(|e| e.name == "compute")
            .count() as u64;
        assert_eq!(computes, report.batches);
    }

    // --- EngineSession (externally-stepped) tests ---

    /// Replays a spec's arrival stream through the session API; the
    /// resulting report must match `ServeEngine::run` on every counter,
    /// every dispatch, the series, the alerts and the full journal — the
    /// refactor's ground truth. Two inputs: the full roster at moderate
    /// load, and the run-report overload point (`bench::run_report`:
    /// FPGA-only, capacity 32, coalescing on, the benchmark's latency SLOs,
    /// 2000 qps), where shedding and coalescing actually happen.
    #[test]
    fn session_replay_of_a_spec_matches_run_exactly() {
        let overload = ServeConfig {
            capacity: Some(32),
            interactive_slo: Some(SimDuration::from_millis(50.0)),
            analytical_slo: Some(SimDuration::from_secs(2.0)),
            coalesce: true,
            cpu_seats: CPU_SEATS,
            gpu_streams: GPU_STREAMS,
        };
        type Roster = fn() -> Vec<Box<dyn ScoringBackend>>;
        let inputs: [(Roster, ServeConfig, WorkloadSpec, bool); 2] = [
            (
                paper_backends,
                ServeConfig::default(),
                spec(80, 500.0),
                false,
            ),
            (fpga_only, overload, spec(150, 2_000.0), true),
        ];
        for (roster, config, w, overloaded) in inputs {
            let engine = ServeEngine::new(roster(), ModelCatalog::paper_mix(), config);
            let batch_report = engine.run(&w, &Tracer::disabled()).unwrap();
            if overloaded {
                assert!(batch_report.shed() > 0, "the overload input must shed");
                assert!(batch_report.coalesced_batches > 0, "...and coalesce");
                assert!(
                    !batch_report.journal.alerts().is_empty(),
                    "...and burn SLO budget"
                );
            }

            let times = w.arrival_times().unwrap();
            let draws = w.draws(ModelCatalog::paper_mix().len());
            let tracer = Tracer::disabled();
            let mut session = engine.session(&tracer);
            for (at, &(model, n_records)) in times.iter().zip(&draws) {
                let _ = session.inject(*at, model, n_records);
            }
            let replay = session.finish();
            assert!(replay.is_conserved());
            assert_eq!(replay.offered, batch_report.offered);
            assert_eq!(replay.completed, batch_report.completed);
            assert_eq!(replay.rejected, batch_report.rejected);
            assert_eq!(replay.coalesced_batches, batch_report.coalesced_batches);
            assert_eq!(replay.makespan, batch_report.makespan);
            assert_eq!(replay.picks, batch_report.picks);
            // Every arrival and dispatch, in order: request, class,
            // model, records, pass, backend and device.
            let dispatch_log = |r: &ServingReport| -> Vec<JournalEntry> {
                r.journal
                    .entries()
                    .iter()
                    .filter(|e| {
                        matches!(
                            e.kind,
                            JournalKind::Arrival { .. } | JournalKind::Dispatched { .. }
                        )
                    })
                    .cloned()
                    .collect()
            };
            assert!(!dispatch_log(&batch_report).is_empty());
            assert_eq!(dispatch_log(&replay), dispatch_log(&batch_report));
            assert_eq!(replay.latency, batch_report.latency);
            assert_eq!(replay.series, batch_report.series);
            assert_eq!(replay.journal, batch_report.journal);
        }
    }

    #[test]
    fn session_steps_in_bounded_horizons_and_reports_progress() {
        let engine = ServeEngine::new(
            fpga_only(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let tracer = Tracer::disabled();
        let mut session = engine.session(&tracer);
        let step = SimDuration::from_millis(10.0);
        for i in 0..20u64 {
            let at = SimInstant::ZERO + step * i as f64;
            session.step_until(at);
            session.inject(at, (i % 3) as usize, 100);
        }
        session.step_until(SimInstant::ZERO + step * 19.0);
        let report = session.finish();
        assert!(report.is_conserved());
        assert_eq!(report.offered, 20);
        assert_eq!(report.completed, 20);
        // Every arrival was processed at the instant it was injected.
        let arrivals: Vec<(RequestId, SimInstant)> = report
            .journal
            .entries()
            .iter()
            .filter(|e| e.kind.name() == "arrival")
            .map(|e| (e.id, e.at))
            .collect();
        let injected: Vec<(RequestId, SimInstant)> = (0..20u64)
            .map(|i| (i, SimInstant::ZERO + step * i as f64))
            .collect();
        assert_eq!(arrivals, injected);
    }

    #[test]
    #[should_panic(expected = "already-stepped past")]
    fn session_rejects_injection_into_the_past() {
        let engine = ServeEngine::new(
            fpga_only(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let tracer = Tracer::disabled();
        let mut session = engine.session(&tracer);
        session.step_until(SimInstant::from_secs(1.0));
        session.inject(SimInstant::ZERO, 0, 10);
    }
}
