//! The discrete-event serving engine.
//!
//! One event loop, simulated time only: arrivals enter the admission
//! queue, dispatch opportunities (arrivals, device completions, hold
//! expiries) pull FIFO batches of same-model requests off the queue, an
//! eligibility-masked arbitration picks the backend whose device has a
//! free slot and whose amortized cost is lowest, and a
//! [`DeviceLedger`] per device serializes the passes. Every duration is a
//! cost-model output — the engine never calls a wall clock, so a run is a
//! pure function of `(workload, config)`.
//!
//! Two driving modes share the same event loop:
//!
//! - [`ServeEngine::run`] — the standalone mode: seed a whole
//!   [`WorkloadSpec`], drain the heap, return the report.
//! - [`EngineSession`] — the externally-stepped mode: the caller injects
//!   arrivals one by one ([`EngineSession::inject`]) and advances the
//!   engine to horizon instants ([`EngineSession::step_until`]). Both
//!   modes execute identical per-event code, so a session fed a spec's
//!   arrival stream reproduces `run` exactly.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap};

use rand::rngs::StdRng;

use mlscore_backend::{artifact_key, ArtifactKey, CacheStats, ScoringBackend};
use mlscore_forest::ModelStats;
use mlscore_pipeline::PipelineParams;
use mlscore_sched::{choose_amortized_eligible, AdaptiveScheduler, Choice, Policy};
use mlscore_sim::{DeviceLedger, LruCacheModel, SimDuration, SimInstant, StageClass};
use mlscore_telemetry::{Histogram, TimeSeriesRecorder, Tracer};

use crate::coalesce::CoalesceConfig;
use crate::device::DeviceRoster;
use crate::error::ServeError;
use crate::journal::{JournalKind, RequestJournal, ShedReason};
use crate::queue::{Admission, AdmissionQueue, QueueConfig};
use crate::report::{ClassReport, DeviceReport, DispatchRecord, ServingReport};
use crate::request::{QueryClass, RequestId, ServeRequest};
use crate::slo::{ObserveConfig, SloMonitor};
use crate::workload::{exponential, ArrivalProcess, ModelCatalog, WorkloadSpec};

/// How dispatch picks a backend for each batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServePolicy {
    /// Arbitrate on the backends' own cost models
    /// ([`choose_amortized_eligible`]) — the planning upper bound.
    Oracle,
    /// Arbitrate on an online [`AdaptiveScheduler`] that learns costs from
    /// the runs it dispatches (`alpha` is its smoothing factor).
    Adaptive {
        /// Smoothing factor in `(0, 1]`.
        alpha: f64,
    },
}

/// Engine configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeConfig {
    /// Admission-queue capacity, shed policy, and per-class SLOs.
    pub queue: QueueConfig,
    /// Micro-batch coalescing.
    pub coalesce: CoalesceConfig,
    /// Dispatch arbitration.
    pub policy: ServePolicy,
    /// Concurrent passes on the shared CPU device (executor-pool seats).
    pub cpu_seats: usize,
    /// Concurrent passes on the shared GPU device (streams).
    pub gpu_streams: usize,
    /// Model compile charging: on a simulated artifact-cache miss a pass
    /// additionally pays `PipelineParams::model_preprocess_time`, on a hit
    /// `PipelineParams::cache_lookup`. Off, compiles are free and the
    /// cache model is bypassed entirely.
    pub charge_compile: bool,
    /// Capacity of the simulated artifact cache (compiled artifacts
    /// resident across all backends), when `charge_compile` is on.
    pub cache_entries: usize,
    /// Metrics-window length and SLO alerting thresholds.
    pub observe: ObserveConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            queue: QueueConfig::default(),
            coalesce: CoalesceConfig::default(),
            policy: ServePolicy::Oracle,
            cpu_seats: mlscore_exec::pool::default_threads(),
            gpu_streams: 4,
            charge_compile: true,
            cache_entries: 32,
            observe: ObserveConfig::default(),
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
/// use mlscore_serve::{
///     ArrivalProcess, ModelCatalog, ServeConfig, ServeEngine, WorkloadSpec,
/// };
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
///     arrivals: ArrivalProcess::OpenPoisson { rate_qps: 50.0 },
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

    /// Replaces the pipeline cost parameters (compile and cache-lookup
    /// charges).
    pub fn with_params(mut self, params: PipelineParams) -> Self {
        self.params = params;
        self
    }

    /// The device topology this configuration induces.
    pub fn roster(&self) -> DeviceRoster {
        DeviceRoster::paper_default(
            &self.backends,
            self.config.cpu_seats,
            self.config.gpu_streams,
        )
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
        let mut state = SessionState::new(self);
        {
            let mut run = Run {
                engine: self,
                tracer,
                s: &mut state,
            };
            run.seed_arrivals(spec)?;
            run.step_all();
        }
        Ok(state.into_report(self, tracer))
    }

    /// Consumes the engine into an externally-stepped [`EngineSession`].
    pub fn into_session(self, tracer: &Tracer) -> EngineSession {
        let state = SessionState::new(&self);
        EngineSession {
            engine: self,
            tracer: tracer.clone(),
            state,
        }
    }
}

/// Heap events, ordered by `(instant, insertion sequence)` — insertion
/// order breaks simultaneous-event ties deterministically.
#[derive(Debug, Clone, Copy)]
enum EventKind {
    Arrival { draw: usize, client: Option<usize> },
    DeviceFree,
    HoldExpired,
}

#[derive(Debug, Clone, Copy)]
struct Event {
    at: SimInstant,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl Eq for Event {}

impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at.cmp(&other.at).then(self.seq.cmp(&other.seq))
    }
}

/// Maps the shared [`LruCacheModel`]'s counters into the backend-facing
/// [`CacheStats`] record reports carry.
fn cache_stats(cache: &LruCacheModel<ArtifactKey>) -> CacheStats {
    CacheStats {
        hits: cache.hits(),
        misses: cache.misses(),
        evictions: cache.evictions(),
        entries: cache.len(),
    }
}

/// A zeroed per-class accounting slice.
fn empty_class(class: QueryClass) -> ClassReport {
    ClassReport {
        class,
        completed: 0,
        rejected: 0,
        dropped: 0,
        timed_out: 0,
        slo_violations: 0,
        latency: Histogram::new(),
    }
}

/// Mutable state of one run or session — everything the event loop
/// touches, owned so an [`EngineSession`] can hold it across stepping
/// calls.
struct SessionState {
    roster: DeviceRoster,
    ledgers: Vec<DeviceLedger>,
    queue: AdmissionQueue,
    events: BinaryHeap<Reverse<Event>>,
    seq: u64,
    draws: Vec<(usize, u64)>,
    /// The id the next arrival takes; also the count of requests that
    /// entered (`offered` in the report).
    next_id: RequestId,
    /// High-water mark of event processing and injections; guards the
    /// session API against scheduling in the already-stepped past.
    stepped_to: SimInstant,
    // Closed-loop state.
    next_draw: usize,
    think_rng: Option<StdRng>,
    think_mean: f64,
    // Arbitration state.
    adaptive: Option<AdaptiveScheduler>,
    cache: Option<LruCacheModel<ArtifactKey>>,
    holds: BTreeSet<RequestId>,
    // Accounting.
    admitted: u64,
    completed: u64,
    rejected: u64,
    dropped: u64,
    timed_out: u64,
    unservable: u64,
    records_scored: u64,
    batches: u64,
    coalesced_batches: u64,
    batch_sizes: BTreeMap<usize, u64>,
    latency: Histogram,
    /// Per-class accounting as named fields — `class_mut` is a total
    /// match over [`QueryClass`], so no lookup can miss.
    interactive: ClassReport,
    analytical: ClassReport,
    picks: BTreeMap<String, u64>,
    dispatches: Vec<DispatchRecord>,
    last_completion: SimInstant,
    // Observability.
    series: TimeSeriesRecorder,
    journal: RequestJournal,
}

impl SessionState {
    fn new(engine: &ServeEngine) -> Self {
        let roster = engine.roster();
        let ledgers = roster
            .devices()
            .iter()
            .map(|d| DeviceLedger::new(d.slots))
            .collect();
        let adaptive = match engine.config.policy {
            ServePolicy::Oracle => None,
            ServePolicy::Adaptive { alpha } => Some(AdaptiveScheduler::new(alpha)),
        };
        let cache = engine
            .config
            .charge_compile
            .then(|| LruCacheModel::new(engine.config.cache_entries));
        Self {
            roster,
            ledgers,
            queue: AdmissionQueue::new(engine.config.queue),
            events: BinaryHeap::new(),
            seq: 0,
            draws: Vec::new(),
            next_id: 0,
            stepped_to: SimInstant::ZERO,
            next_draw: 0,
            think_rng: None,
            think_mean: 0.0,
            adaptive,
            cache,
            holds: BTreeSet::new(),
            admitted: 0,
            completed: 0,
            rejected: 0,
            dropped: 0,
            timed_out: 0,
            unservable: 0,
            records_scored: 0,
            batches: 0,
            coalesced_batches: 0,
            batch_sizes: BTreeMap::new(),
            latency: Histogram::new(),
            interactive: empty_class(QueryClass::Interactive),
            analytical: empty_class(QueryClass::Analytical),
            picks: BTreeMap::new(),
            dispatches: Vec::new(),
            last_completion: SimInstant::ZERO,
            series: TimeSeriesRecorder::new(engine.config.observe.window),
            journal: RequestJournal::new(),
        }
    }

    fn into_report(mut self, engine: &ServeEngine, tracer: &Tracer) -> ServingReport {
        // Scan the finished series for budget-burn alerts; each one lands
        // in the trace (a span covering the offending window on an
        // `slo {class}` lane) and in the journal.
        let alerts = SloMonitor::scan(&self.series, engine.config.observe);
        for alert in &alerts {
            tracer
                .span("slo alert", alert.at)
                .track("serve", format!("slo {}", alert.class))
                .meta("window", alert.window.to_string())
                .meta("attainment", format!("{:.6}", alert.attainment))
                .meta("burn rate", format!("{:.6}", alert.burn_rate))
                .finish(alert.at + self.series.window_len());
            self.journal.alert(alert.clone());
        }
        let makespan = self.last_completion.duration_since(SimInstant::ZERO);
        let devices = self
            .roster
            .devices()
            .iter()
            .zip(&self.ledgers)
            .map(|(spec, ledger)| DeviceReport {
                name: spec.name.clone(),
                slots: spec.slots,
                passes: ledger.reservations(),
                busy: ledger.busy_time(),
                utilization: ledger.utilization(makespan),
            })
            .collect();
        ServingReport {
            offered: self.next_id,
            admitted: self.admitted,
            completed: self.completed,
            rejected: self.rejected,
            dropped: self.dropped,
            timed_out: self.timed_out,
            unservable: self.unservable,
            records_scored: self.records_scored,
            makespan,
            batches: self.batches,
            coalesced_batches: self.coalesced_batches,
            batch_sizes: self.batch_sizes,
            latency: self.latency,
            classes: vec![self.interactive, self.analytical],
            picks: self.picks,
            devices,
            cache: self.cache.as_ref().map(cache_stats).unwrap_or_default(),
            expected_reuse: self
                .cache
                .as_ref()
                .map_or(1, |c| cache_stats(c).expected_reuse()),
            dispatches: self.dispatches,
            series: self.series,
            journal: self.journal,
            alerts,
        }
    }
}

/// The event loop as a borrowed view: the engine's immutable configuration
/// and backends, the tracer, and the owned [`SessionState`] being
/// advanced. `ServeEngine::run` and [`EngineSession`] both drive this.
struct Run<'a> {
    engine: &'a ServeEngine,
    tracer: &'a Tracer,
    s: &'a mut SessionState,
}

impl Run<'_> {
    fn push_event(&mut self, at: SimInstant, kind: EventKind) {
        let seq = self.s.seq;
        self.s.seq += 1;
        self.s.events.push(Reverse(Event { at, seq, kind }));
    }

    fn seed_arrivals(&mut self, spec: &WorkloadSpec) -> Result<(), ServeError> {
        spec.validate()?;
        self.s.draws = spec.draws(self.engine.catalog.len());
        match spec.arrivals {
            ArrivalProcess::Batch | ArrivalProcess::OpenPoisson { .. } => {
                for (draw, at) in spec.open_arrival_times()?.into_iter().enumerate() {
                    self.push_event(at, EventKind::Arrival { draw, client: None });
                }
                self.s.next_draw = spec.queries;
            }
            ArrivalProcess::ClosedLoop { clients, think } => {
                let first = clients.min(spec.queries);
                for client in 0..first {
                    self.push_event(
                        SimInstant::ZERO,
                        EventKind::Arrival {
                            draw: client,
                            client: Some(client),
                        },
                    );
                }
                self.s.next_draw = first;
                self.s.think_rng = Some(spec.think_rng());
                self.s.think_mean = think.as_secs();
            }
        }
        Ok(())
    }

    /// Processes one popped event.
    fn handle(&mut self, event: Event) {
        let now = event.at;
        if now > self.s.stepped_to {
            self.s.stepped_to = now;
        }
        if let EventKind::Arrival { draw, client } = event.kind {
            self.arrive(now, draw, client);
        }
        // DeviceFree and HoldExpired carry no state of their own: they
        // exist to create the dispatch opportunity below.
        self.try_dispatch(now);
    }

    /// Drains the heap completely.
    fn step_all(&mut self) {
        while let Some(Reverse(event)) = self.s.events.pop() {
            self.handle(event);
        }
    }

    /// Processes every event at or before `horizon`, then marks the engine
    /// as stepped to `horizon`.
    fn step_until(&mut self, horizon: SimInstant) {
        while self
            .s
            .events
            .peek()
            .is_some_and(|Reverse(e)| e.at <= horizon)
        {
            let Some(Reverse(event)) = self.s.events.pop() else {
                break;
            };
            self.handle(event);
        }
        if horizon > self.s.stepped_to {
            self.s.stepped_to = horizon;
        }
    }

    /// Appends one externally-driven arrival at `at` and returns the id
    /// the request will carry. Injections must be non-decreasing in time
    /// (asserted), which — together with the heap's `(at, seq)` order —
    /// makes processing order equal injection order, so the returned id is
    /// exact.
    fn inject(&mut self, at: SimInstant, model: usize, n_records: u64) -> RequestId {
        assert!(
            model < self.engine.catalog.len(),
            "inject: model index out of catalog range"
        );
        assert!(
            at >= self.s.stepped_to,
            "inject: arrivals must not land in the already-stepped past"
        );
        self.s.stepped_to = at;
        let draw = self.s.draws.len();
        let id = draw as RequestId;
        self.s.draws.push((model, n_records));
        self.push_event(at, EventKind::Arrival { draw, client: None });
        id
    }

    fn arrive(&mut self, now: SimInstant, draw: usize, client: Option<usize>) {
        // analyze: allow(P001, reason="arrival events only carry draw indices seed_arrivals/request_left/inject generated below draws.len()")
        let (model, n_records) = self.s.draws[draw];
        let id = self.s.next_id;
        self.s.next_id += 1;
        let request = ServeRequest {
            id,
            class: QueryClass::of(n_records),
            model,
            n_records,
            arrival: now,
            client,
        };
        self.s.journal.emit(
            now,
            id,
            JournalKind::Arrival {
                class: request.class,
                model,
                records: n_records,
            },
        );
        self.s.series.record_arrival(now, request.class.name());
        match self.s.queue.offer(request) {
            Admission::Admitted => {
                self.s.admitted += 1;
                self.s.journal.emit(now, id, JournalKind::Admitted);
            }
            Admission::Rejected(victim) => {
                self.s.rejected += 1;
                self.class_mut(victim.class).rejected += 1;
                self.shed(now, &victim, "shed reject", ShedReason::Rejected);
                self.request_left(now, victim.client);
            }
            Admission::DroppedOldest(victim) => {
                self.s.admitted += 1;
                self.s.journal.emit(now, id, JournalKind::Admitted);
                self.s.dropped += 1;
                self.class_mut(victim.class).dropped += 1;
                self.shed(now, &victim, "shed drop-oldest", ShedReason::DroppedOldest);
                self.request_left(now, victim.client);
            }
        }
        self.s
            .series
            .record_queue_depth(now, self.s.queue.len() as u64);
    }

    /// A request left the system without completing (shed) or completed;
    /// for closed loops, its client thinks and then issues the next query.
    fn request_left(&mut self, at: SimInstant, client: Option<usize>) {
        let Some(client) = client else { return };
        let Some(rng) = self.s.think_rng.as_mut() else {
            return;
        };
        if self.s.next_draw >= self.s.draws.len() {
            return;
        }
        let draw = self.s.next_draw;
        self.s.next_draw += 1;
        let think = exponential(rng, self.s.think_mean);
        self.push_event(
            at + think,
            EventKind::Arrival {
                draw,
                client: Some(client),
            },
        );
    }

    /// Records one shed: a span on the victim's class lane, a journal
    /// entry, and the time-series shed counter.
    fn shed(&mut self, now: SimInstant, victim: &ServeRequest, what: &str, reason: ShedReason) {
        self.tracer
            .span(what, victim.arrival)
            .track("serve", format!("class {}", victim.class.name()))
            .meta("request", victim.id.to_string())
            .meta("records", victim.n_records.to_string())
            .finish(now);
        self.s
            .journal
            .emit(now, victim.id, JournalKind::Shed { reason });
        self.s.series.record_shed(now, victim.class.name());
    }

    fn class_mut(&mut self, class: QueryClass) -> &mut ClassReport {
        match class {
            QueryClass::Interactive => &mut self.s.interactive,
            QueryClass::Analytical => &mut self.s.analytical,
        }
    }

    /// The backend at roster index `i`.
    fn backend(&self, i: usize) -> &dyn ScoringBackend {
        // analyze: allow(P001, reason="arbitration only yields indices obtained by enumerating this roster")
        self.engine.backends[i].as_ref()
    }

    /// The predicted one-time prepare charge arbitration folds in for
    /// backend `i` on `model`: a warm lookup if the artifact is resident,
    /// a full model pre-processing pass if not, nothing when compile
    /// charging is off.
    fn predict_prepare(&self, backend: usize, model: usize) -> SimDuration {
        let Some(cache) = &self.s.cache else {
            return SimDuration::ZERO;
        };
        let key = artifact_key(self.backend(backend), self.engine.catalog.bundle(model));
        if cache.would_hit(&key) {
            self.engine.params.cache_lookup
        } else {
            self.engine
                .params
                .model_preprocess_time(self.engine.catalog.model_bytes(model))
        }
    }

    fn arbitrate(
        &self,
        stats: &ModelStats,
        n_records: u64,
        model: usize,
        now: SimInstant,
    ) -> Option<Choice> {
        let eligible = |i: usize| {
            self.s
                .ledgers
                .get(self.s.roster.device_of(i))
                .is_some_and(|l| l.has_free_slot(now))
        };
        let reuse = self
            .s
            .cache
            .as_ref()
            .map_or(1, |c| cache_stats(c).expected_reuse());
        match &self.s.adaptive {
            None => choose_amortized_eligible(
                stats,
                n_records,
                reuse,
                &self.engine.backends,
                &|i| self.predict_prepare(i, model),
                &eligible,
            ),
            Some(scheduler) => scheduler.choose_amortized_among(
                stats,
                n_records,
                reuse,
                &self.engine.backends,
                &eligible,
            ),
        }
    }

    fn supported_at_all(&self, stats: &ModelStats) -> bool {
        self.engine
            .backends
            .iter()
            .any(|b| b.supports(stats).is_ok())
    }

    /// Drains every dispatch opportunity available at `now`: expire lapsed
    /// deadlines, then repeatedly scan the queue's per-model heads in FIFO
    /// order and dispatch the first batch whose arbitration finds an
    /// eligible backend. A head whose devices are all busy does not block
    /// other models (no cross-model head-of-line blocking), but same-model
    /// requests only ever leave in FIFO order.
    fn try_dispatch(&mut self, now: SimInstant) {
        let expired = self.s.queue.expire(now);
        let any_expired = !expired.is_empty();
        for victim in expired {
            self.s.timed_out += 1;
            self.class_mut(victim.class).timed_out += 1;
            self.shed(now, &victim, "deadline timeout", ShedReason::TimedOut);
            self.request_left(now, victim.client);
        }
        if any_expired {
            self.s
                .series
                .record_queue_depth(now, self.s.queue.len() as u64);
        }
        let max_requests = self.engine.config.coalesce.effective_max_requests();
        let max_records = self.engine.config.coalesce.effective_max_records();
        let hold = if self.engine.config.coalesce.enabled {
            self.engine.config.coalesce.hold
        } else {
            SimDuration::ZERO
        };
        loop {
            let mut seen = BTreeSet::new();
            let heads: Vec<ServeRequest> = self
                .s
                .queue
                .iter()
                .filter(|r| seen.insert(r.model))
                .copied()
                .collect();
            let mut dispatched = false;
            for head in heads {
                let (batch_requests, batch_records) =
                    self.s
                        .queue
                        .preview_batch(head.model, max_requests, max_records);
                // Hold back a partial batch while the coalescing window is
                // open — more same-model arrivals may still merge in.
                if !hold.is_zero()
                    && batch_requests < max_requests
                    && batch_records < max_records
                    && now < head.arrival + hold
                {
                    if self.s.holds.insert(head.id) {
                        self.push_event(head.arrival + hold, EventKind::HoldExpired);
                    }
                    continue;
                }
                let stats = *self.engine.catalog.stats(head.model);
                match self.arbitrate(&stats, batch_records, head.model, now) {
                    Some(choice) => {
                        let batch = self
                            .s
                            .queue
                            .take_batch(head.model, max_requests, max_records);
                        self.dispatch(now, batch, choice);
                        dispatched = true;
                        break; // the queue changed: rescan heads
                    }
                    None if !self.supported_at_all(&stats) => {
                        let batch = self
                            .s
                            .queue
                            .take_batch(head.model, max_requests, max_records);
                        for victim in batch {
                            self.s.unservable += 1;
                            self.shed(now, &victim, "unservable", ShedReason::Unservable);
                            self.request_left(now, victim.client);
                        }
                        self.s
                            .series
                            .record_queue_depth(now, self.s.queue.len() as u64);
                        dispatched = true; // the queue changed: rescan heads
                        break;
                    }
                    // Supported but every eligible device is busy: wait for
                    // a DeviceFree event.
                    None => {}
                }
            }
            if !dispatched {
                break;
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
        let (prepare, prepare_span) = if self.s.cache.is_some() {
            let key = artifact_key(
                self.backend(choice.index),
                self.engine.catalog.bundle(model),
            );
            let hit = self.s.cache.as_mut().is_some_and(|cache| cache.probe(key));
            if hit {
                (self.engine.params.cache_lookup, Some("cache hit"))
            } else {
                let cost = self
                    .engine
                    .params
                    .model_preprocess_time(self.engine.catalog.model_bytes(model));
                (cost, Some("compile model"))
            }
        } else {
            (SimDuration::ZERO, None)
        };
        if prepare_span == Some("compile model") {
            if let Some(scheduler) = &mut self.s.adaptive {
                scheduler.observe_prepare(&stats, choice.index, prepare);
            }
        }

        let breakdown = self.backend(choice.index).estimate(
            &stats,
            total_records,
            &Tracer::disabled(),
            SimInstant::ZERO,
        );
        let score_time = breakdown.total();
        if let Some(scheduler) = &mut self.s.adaptive {
            scheduler.observe(&stats, choice.index, total_records, score_time);
        }

        let device = self.s.roster.device_of(choice.index);
        // analyze: allow(P001, reason="ledgers are built one-to-one from roster devices, so device_of indices cannot miss")
        let (start, end) = self.s.ledgers[device].reserve(now, prepare + score_time);
        debug_assert_eq!(start, now, "arbitration only admits free devices");
        self.s
            .series
            .record_queue_depth(now, self.s.queue.len() as u64);

        let batch_seq = self.s.batches;
        self.s.batches += 1;
        if batch.len() > 1 {
            self.s.coalesced_batches += 1;
        }

        // Telemetry: per-request queue-wait on the class lanes (each
        // originating its request's causal flow), then the pass phases on
        // the device lane.
        let device_name = self
            .s
            .roster
            .devices()
            .get(device)
            .map_or_else(|| "?".to_string(), |d| d.name.clone());
        let lane = format!("device {device_name}");
        for r in &batch {
            self.tracer
                .span("queue wait", r.arrival)
                .track("serve", format!("class {}", r.class.name()))
                .meta("request", r.id.to_string())
                .meta("records", r.n_records.to_string())
                .flow_out(r.id)
                .finish(start);
        }
        // One "device pass" span covering the whole reservation terminates
        // the flow of every request the pass scored: the Perfetto arrow
        // crosses from each class lane to this device lane.
        let mut pass_span = self
            .tracer
            .span("device pass", start)
            .track("serve", lane.as_str())
            .meta("backend", choice.name.as_str())
            .meta("batch", batch_seq.to_string())
            .meta("requests", batch.len().to_string())
            .meta("records", total_records.to_string());
        // Cache-resident models dispatch through the fused streaming path —
        // chunks pulled straight off the coalesced request frames (see
        // `score_merged_stream`) — while cold or uncached passes marshal a
        // materialized batch first.
        pass_span = pass_span.meta(
            "path",
            if prepare_span == Some("cache hit") {
                "fused"
            } else {
                "staged"
            },
        );
        for r in &batch {
            pass_span = pass_span.flow_in(r.id);
        }
        pass_span.finish(end);
        self.tracer
            .span("coalesce", start)
            .track("serve", lane.as_str())
            .meta("backend", choice.name.as_str())
            .meta("requests", batch.len().to_string())
            .meta("records", total_records.to_string())
            .finish(start);
        let mut cursor = start;
        if let Some(name) = prepare_span {
            cursor = self
                .tracer
                .span(name, cursor)
                .track("serve", lane.as_str())
                .meta("backend", choice.name.as_str())
                .finish_after(prepare);
        }
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
                    .track("serve", lane.as_str())
                    .meta("backend", choice.name.as_str())
                    .meta("records", total_records.to_string())
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

        // Accounting.
        *self.s.batch_sizes.entry(batch.len()).or_default() += 1;
        *self.s.picks.entry(choice.name.clone()).or_default() += batch.len() as u64;
        self.s
            .series
            .record_busy(&device_name, start, prepare + score_time);
        for r in &batch {
            let latency = end - r.arrival;
            self.s.latency.record(latency);
            let violated = self
                .engine
                .config
                .queue
                .slo(r.class)
                .latency_slo
                .is_some_and(|slo| latency > slo);
            let class = self.class_mut(r.class);
            class.completed += 1;
            class.latency.record(latency);
            if violated {
                class.slo_violations += 1;
            }
            self.s.completed += 1;
            self.s.records_scored += r.n_records;
            self.s.dispatches.push(DispatchRecord {
                id: r.id,
                class: r.class,
                model,
                backend: choice.name.clone(),
                batch: batch_seq,
                dispatched_at: start,
            });
            if batch.len() > 1 {
                self.s.journal.emit(
                    start,
                    r.id,
                    JournalKind::Coalesced {
                        batch: batch_seq,
                        size: batch.len(),
                    },
                );
            }
            self.s.journal.emit(
                start,
                r.id,
                JournalKind::Dispatched {
                    batch: batch_seq,
                    backend: choice.name.clone(),
                    device: device_name.clone(),
                },
            );
            // Completions are journaled in the same order the latency
            // histograms fold them, so refolding the journal reproduces
            // the report's distributions bit-exactly.
            self.s.journal.emit(
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
            self.s
                .series
                .record_completion(end, r.class.name(), latency, violated);
        }
        if end > self.s.last_completion {
            self.s.last_completion = end;
        }
        for r in batch {
            self.request_left(end, r.client);
        }
        self.push_event(end, EventKind::DeviceFree);
    }
}

/// One externally-stepped serving engine: an owned [`ServeEngine`] plus
/// the live event-loop state, advanced by its caller instead of a
/// workload spec.
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
/// let mut session = engine.into_session(&tracer);
/// session.inject(SimInstant::ZERO, 0, 100);
/// let report = session.finish();
/// assert!(report.is_conserved());
/// assert_eq!(report.completed, 1);
/// ```
pub struct EngineSession {
    engine: ServeEngine,
    tracer: Tracer,
    state: SessionState,
}

impl EngineSession {
    fn view(&mut self) -> Run<'_> {
        Run {
            engine: &self.engine,
            tracer: &self.tracer,
            s: &mut self.state,
        }
    }

    /// Appends one arrival at `at` (must be non-decreasing across
    /// injections and not before any stepped horizon) and returns the
    /// request id it will carry.
    ///
    /// # Panics
    ///
    /// Panics if `model` is out of catalog range or `at` lies in the
    /// already-stepped past — both are caller bugs, not load.
    pub fn inject(&mut self, at: SimInstant, model: usize, n_records: u64) -> RequestId {
        self.view().inject(at, model, n_records)
    }

    /// Processes every pending event at or before `horizon`.
    pub fn step_until(&mut self, horizon: SimInstant) {
        self.view().step_until(horizon);
    }

    /// Runs every remaining event to completion and returns the report.
    pub fn finish(mut self) -> ServingReport {
        self.view().step_all();
        let EngineSession {
            engine,
            tracer,
            state,
        } = self;
        state.into_report(&engine, &tracer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::queue::ShedPolicy;
    use crate::request::ClassSlo;
    use mlscore_sched::paper_backends;

    fn fpga_only() -> Vec<Box<dyn ScoringBackend>> {
        paper_backends()
            .into_iter()
            .filter(|b| b.name() == "FPGA")
            .collect()
    }

    fn spec(queries: usize, arrivals: ArrivalProcess) -> WorkloadSpec {
        WorkloadSpec {
            queries,
            seed: 42,
            arrivals,
        }
    }

    #[test]
    fn open_loop_run_is_conserved_and_deterministic() {
        let engine = ServeEngine::new(
            paper_backends(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let w = spec(60, ArrivalProcess::OpenPoisson { rate_qps: 40.0 });
        let a = engine.run(&w, &Tracer::disabled()).unwrap();
        let b = engine.run(&w, &Tracer::disabled()).unwrap();
        assert!(a.is_conserved());
        assert_eq!(a.offered, 60);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.makespan, b.makespan);
        assert_eq!(a.picks, b.picks);
        assert_eq!(a.dispatches, b.dispatches);
        assert!(a.makespan > SimDuration::ZERO);
        // The mixed trace should use more than one backend.
        assert!(a.picks.len() >= 2, "picks {:?}", a.picks);
    }

    #[test]
    fn overload_with_bounded_queue_sheds() {
        let config = ServeConfig {
            queue: QueueConfig {
                capacity: Some(4),
                shed: ShedPolicy::RejectNew,
                ..QueueConfig::default()
            },
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(fpga_only(), ModelCatalog::paper_mix(), config);
        let report = engine
            .run(
                &spec(200, ArrivalProcess::OpenPoisson { rate_qps: 5_000.0 }),
                &Tracer::disabled(),
            )
            .unwrap();
        assert!(report.is_conserved());
        assert!(report.rejected > 0, "queue of 4 at 5k qps must shed");
        assert_eq!(report.shed(), report.rejected);
    }

    #[test]
    fn drop_oldest_evicts_instead_of_rejecting() {
        let config = ServeConfig {
            queue: QueueConfig {
                capacity: Some(4),
                shed: ShedPolicy::DropOldest,
                ..QueueConfig::default()
            },
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(fpga_only(), ModelCatalog::paper_mix(), config);
        let report = engine
            .run(
                &spec(200, ArrivalProcess::OpenPoisson { rate_qps: 5_000.0 }),
                &Tracer::disabled(),
            )
            .unwrap();
        assert!(report.is_conserved());
        assert!(report.dropped > 0);
        assert_eq!(report.rejected, 0);
    }

    #[test]
    fn deadlines_time_out_queued_requests() {
        let slo = ClassSlo {
            queue_deadline: Some(SimDuration::from_millis(1.0)),
            latency_slo: Some(SimDuration::from_millis(2.0)),
        };
        let config = ServeConfig {
            queue: QueueConfig {
                interactive: slo,
                analytical: slo,
                ..QueueConfig::default()
            },
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(fpga_only(), ModelCatalog::paper_mix(), config);
        let report = engine
            .run(
                &spec(150, ArrivalProcess::OpenPoisson { rate_qps: 5_000.0 }),
                &Tracer::disabled(),
            )
            .unwrap();
        assert!(report.is_conserved());
        assert!(report.timed_out > 0, "1 ms deadlines at 5k qps must lapse");
        let per_class: u64 = report.classes.iter().map(|c| c.timed_out).sum();
        assert_eq!(per_class, report.timed_out);
        // With latency SLOs this tight, queued completions violate them.
        let violations: u64 = report.classes.iter().map(|c| c.slo_violations).sum();
        assert!(violations > 0);
    }

    #[test]
    fn closed_loop_issues_every_query_and_self_throttles() {
        let engine = ServeEngine::new(
            paper_backends(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let report = engine
            .run(
                &spec(
                    80,
                    ArrivalProcess::ClosedLoop {
                        clients: 4,
                        think: SimDuration::from_millis(5.0),
                    },
                ),
                &Tracer::disabled(),
            )
            .unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.offered, 80);
        // Nothing sheds in a closed loop with an unbounded queue.
        assert_eq!(report.completed, 80);
        // At most `clients` requests are ever in flight, so no pass can
        // merge more than that.
        assert!(report.max_batch() <= 4);
    }

    #[test]
    fn coalescing_merges_under_overload_and_disabled_never_does() {
        let mk = |enabled| {
            let config = ServeConfig {
                coalesce: if enabled {
                    CoalesceConfig::default()
                } else {
                    CoalesceConfig::disabled()
                },
                ..ServeConfig::default()
            };
            let engine = ServeEngine::new(fpga_only(), ModelCatalog::paper_mix(), config);
            engine
                .run(
                    &spec(300, ArrivalProcess::OpenPoisson { rate_qps: 3_000.0 }),
                    &Tracer::disabled(),
                )
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
    fn hold_window_builds_bigger_batches_at_moderate_load() {
        let mk = |hold| {
            let config = ServeConfig {
                coalesce: CoalesceConfig {
                    hold,
                    ..CoalesceConfig::default()
                },
                ..ServeConfig::default()
            };
            let engine = ServeEngine::new(fpga_only(), ModelCatalog::paper_mix(), config);
            engine
                .run(
                    &spec(200, ArrivalProcess::OpenPoisson { rate_qps: 300.0 }),
                    &Tracer::disabled(),
                )
                .unwrap()
        };
        let eager = mk(SimDuration::ZERO);
        let held = mk(SimDuration::from_millis(50.0));
        assert!(held.is_conserved());
        assert!(
            held.mean_batch() > eager.mean_batch(),
            "holding {:.3} vs eager {:.3}",
            held.mean_batch(),
            eager.mean_batch()
        );
    }

    #[test]
    fn adaptive_policy_serves_the_whole_workload() {
        let config = ServeConfig {
            policy: ServePolicy::Adaptive { alpha: 0.4 },
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(paper_backends(), ModelCatalog::paper_mix(), config);
        let w = spec(120, ArrivalProcess::OpenPoisson { rate_qps: 60.0 });
        let report = engine.run(&w, &Tracer::disabled()).unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.completed, 120);
        // Exploration probes several backends.
        assert!(report.picks.len() >= 3, "picks {:?}", report.picks);
        // Determinism holds for the learner too.
        let again = engine.run(&w, &Tracer::disabled()).unwrap();
        assert_eq!(report.dispatches, again.dispatches);
    }

    #[test]
    fn compile_charging_populates_the_cache_model() {
        let engine = ServeEngine::new(
            fpga_only(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let report = engine
            .run(
                &spec(100, ArrivalProcess::OpenPoisson { rate_qps: 100.0 }),
                &Tracer::disabled(),
            )
            .unwrap();
        assert!(report.is_conserved());
        assert_eq!(report.cache.lookups(), report.batches);
        assert!(
            report.cache.hits > 0,
            "12 models over 100 queries must re-hit"
        );
        // At most one artifact per (model, backend) pair.
        assert!(report.cache.entries <= 12);
        assert_eq!(report.expected_reuse, report.cache.expected_reuse());
        // Compile charging off: the cache is bypassed entirely.
        let free = ServeEngine::new(
            fpga_only(),
            ModelCatalog::paper_mix(),
            ServeConfig {
                charge_compile: false,
                ..ServeConfig::default()
            },
        );
        let free_report = free
            .run(
                &spec(100, ArrivalProcess::OpenPoisson { rate_qps: 100.0 }),
                &Tracer::disabled(),
            )
            .unwrap();
        assert_eq!(free_report.cache, CacheStats::default());
        assert!(free_report.makespan <= report.makespan);
    }

    #[test]
    fn observability_feeds_journal_series_and_flows() {
        use crate::journal::JournalKind;
        let config = ServeConfig {
            queue: QueueConfig {
                capacity: Some(32),
                shed: ShedPolicy::RejectNew,
                ..QueueConfig::default()
            },
            ..ServeConfig::default()
        };
        let engine = ServeEngine::new(fpga_only(), ModelCatalog::paper_mix(), config);
        let tracer = Tracer::new();
        let report = engine
            .run(
                &spec(200, ArrivalProcess::OpenPoisson { rate_qps: 2_000.0 }),
                &tracer,
            )
            .unwrap();
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
        let report = engine
            .run(
                &spec(100, ArrivalProcess::OpenPoisson { rate_qps: 100.0 }),
                &tracer,
            )
            .unwrap();
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
        let report = engine
            .run(
                &spec(40, ArrivalProcess::OpenPoisson { rate_qps: 200.0 }),
                &tracer,
            )
            .unwrap();
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
    /// every dispatch, and the full journal — the refactor's ground truth.
    #[test]
    fn session_replay_of_a_spec_matches_run_exactly() {
        let mk = || {
            ServeEngine::new(
                paper_backends(),
                ModelCatalog::paper_mix(),
                ServeConfig::default(),
            )
        };
        let w = spec(80, ArrivalProcess::OpenPoisson { rate_qps: 500.0 });
        let batch_report = mk().run(&w, &Tracer::disabled()).unwrap();

        let engine = mk();
        let times = w.open_arrival_times().unwrap();
        let draws = w.draws(ModelCatalog::paper_mix().len());
        let tracer = Tracer::disabled();
        let mut session = engine.into_session(&tracer);
        for (at, &(model, n_records)) in times.iter().zip(&draws) {
            let _ = session.inject(*at, model, n_records);
        }
        let replay = session.finish();
        assert!(replay.is_conserved());
        assert_eq!(replay.offered, batch_report.offered);
        assert_eq!(replay.completed, batch_report.completed);
        assert_eq!(replay.makespan, batch_report.makespan);
        assert_eq!(replay.picks, batch_report.picks);
        assert_eq!(replay.dispatches, batch_report.dispatches);
        assert_eq!(replay.latency, batch_report.latency);
        assert_eq!(replay.journal, batch_report.journal);
    }

    #[test]
    fn session_steps_in_bounded_horizons_and_reports_progress() {
        let engine = ServeEngine::new(
            fpga_only(),
            ModelCatalog::paper_mix(),
            ServeConfig::default(),
        );
        let tracer = Tracer::disabled();
        let mut session = engine.into_session(&tracer);
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
        let mut session = engine.into_session(&tracer);
        session.step_until(SimInstant::from_secs(1.0));
        session.inject(SimInstant::ZERO, 0, 10);
    }
}
