//! The structured request-lifecycle journal.
//!
//! The engine emits one [`JournalEntry`] per lifecycle transition —
//! arrival, admission, shed, coalesce, dispatch, completion — each
//! stamped with its simulated instant and the [`RequestId`] it concerns
//! (lint T002 enforces that no emit site drops the id). The journal is
//! the engine's only per-request ledger: [`ServingReport`]'s counters,
//! latency histograms and picks are one fold over it when the run ends,
//! and a `completed` entry carries the request's full stage split, so a
//! run report reconstructs stage breakdowns from it too.
//!
//! [`ServingReport`]: crate::ServingReport
//!
//! [`RequestJournal::to_jsonl`] renders the journal as JSON Lines with
//! fixed-width timestamps, so the same run always serializes to the same
//! bytes.

use mlscore_sim::{SimDuration, SimInstant};
use mlscore_telemetry::json::JsonWriter;

use crate::request::{QueryClass, RequestId};
use crate::slo::SloAlert;

/// Why a request was shed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// Bounced at a full queue.
    Rejected,
    /// No backend in the roster supports the model.
    Unservable,
}

impl ShedReason {
    /// Stable journal name.
    pub fn name(self) -> &'static str {
        match self {
            ShedReason::Rejected => "rejected",
            ShedReason::Unservable => "unservable",
        }
    }
}

/// One lifecycle transition.
#[derive(Debug, Clone, PartialEq)]
pub enum JournalKind {
    /// The request entered the system.
    Arrival {
        /// Its query class.
        class: QueryClass,
        /// Its model (catalog index).
        model: usize,
        /// Records it carries.
        records: u64,
    },
    /// The admission queue accepted it.
    Admitted,
    /// It left without completing.
    Shed {
        /// Why.
        reason: ShedReason,
    },
    /// It merged into a multi-request micro-batch.
    Coalesced {
        /// Engine-global batch sequence number.
        batch: u64,
        /// Requests merged into the batch.
        size: usize,
    },
    /// Its batch started a device pass.
    Dispatched {
        /// Engine-global batch sequence number.
        batch: u64,
        /// Backend that runs the pass.
        backend: String,
        /// Device the pass reserved.
        device: String,
    },
    /// It finished scoring, with the full stage split of its sojourn.
    Completed {
        /// Arrival-to-completion latency.
        latency: SimDuration,
        /// Arrival to device-pass start.
        queue_wait: SimDuration,
        /// Compile / cache-lookup charge of its pass.
        prepare: SimDuration,
        /// Overhead stages of its pass.
        setup: SimDuration,
        /// Transfer stages of its pass.
        transfer: SimDuration,
        /// Compute stages of its pass.
        compute: SimDuration,
        /// Pipeline-drain stages of its pass.
        drain: SimDuration,
    },
}

impl JournalKind {
    /// Stable journal event name.
    pub fn name(&self) -> &'static str {
        match self {
            JournalKind::Arrival { .. } => "arrival",
            JournalKind::Admitted => "admitted",
            JournalKind::Shed { .. } => "shed",
            JournalKind::Coalesced { .. } => "coalesced",
            JournalKind::Dispatched { .. } => "dispatched",
            JournalKind::Completed { .. } => "completed",
        }
    }
}

/// One journal line: an instant, a request, a transition.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEntry {
    /// Simulated instant of the transition (completions are stamped with
    /// the completion instant, which lies past the dispatch instant that
    /// emitted them — the journal is emission-ordered, not time-sorted).
    pub at: SimInstant,
    /// The request the transition concerns.
    pub id: RequestId,
    /// What happened.
    pub kind: JournalKind,
}

/// An append-only journal of request-lifecycle events plus the run's SLO
/// alerts, in deterministic emission order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RequestJournal {
    entries: Vec<JournalEntry>,
    alerts: Vec<SloAlert>,
}

impl RequestJournal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends one lifecycle transition for request `id` at instant `at`.
    pub fn emit(&mut self, at: SimInstant, id: RequestId, kind: JournalKind) {
        self.entries.push(JournalEntry { at, id, kind });
    }

    /// Appends one SLO alert (rendered after the lifecycle entries).
    pub fn alert(&mut self, alert: SloAlert) {
        self.alerts.push(alert);
    }

    /// The lifecycle entries, in emission order.
    pub fn entries(&self) -> &[JournalEntry] {
        &self.entries
    }

    /// The SLO alerts, in scan order.
    pub fn alerts(&self) -> &[SloAlert] {
        &self.alerts
    }

    /// Number of lifecycle entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if no lifecycle entry was emitted.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Renders the journal as JSON Lines: one object per lifecycle entry
    /// in emission order, then one per SLO alert. Timestamps are seconds
    /// with nine fixed decimals, so equal runs serialize byte-identically.
    pub fn to_jsonl(&self) -> String {
        let mut w = JsonWriter::compact();
        for entry in &self.entries {
            w.begin_object();
            w.key("t").fixed(entry.at.as_secs(), 9);
            w.key("id").uint(entry.id);
            w.key("event").str(entry.kind.name());
            match &entry.kind {
                JournalKind::Arrival {
                    class,
                    model,
                    records,
                } => {
                    w.key("class").str(class.name());
                    w.key("model").uint(*model as u64);
                    w.key("records").uint(*records);
                }
                JournalKind::Admitted => {}
                JournalKind::Shed { reason } => {
                    w.key("reason").str(reason.name());
                }
                JournalKind::Coalesced { batch, size } => {
                    w.key("batch").uint(*batch).key("size").uint(*size as u64);
                }
                JournalKind::Dispatched {
                    batch,
                    backend,
                    device,
                } => {
                    w.key("batch").uint(*batch);
                    w.key("backend").str(backend).key("device").str(device);
                }
                JournalKind::Completed {
                    latency,
                    queue_wait,
                    prepare,
                    setup,
                    transfer,
                    compute,
                    drain,
                } => {
                    for (key, v) in [
                        ("latency", latency),
                        ("queue_wait", queue_wait),
                        ("prepare", prepare),
                        ("setup", setup),
                        ("transfer", transfer),
                        ("compute", compute),
                        ("drain", drain),
                    ] {
                        w.key(key).fixed(v.as_secs(), 9);
                    }
                }
            }
            w.end().end_line();
        }
        for alert in &self.alerts {
            w.begin_object();
            w.key("t").fixed(alert.at.as_secs(), 9);
            w.key("event")
                .str("slo_alert")
                .key("class")
                .str(&alert.class);
            w.key("window").uint(alert.window);
            w.key("attainment").fixed(alert.attainment, 6);
            w.key("burn_rate").fixed(alert.burn_rate, 6);
            w.end().end_line();
        }
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: f64) -> SimDuration {
        SimDuration::from_millis(v)
    }

    fn at_ms(v: f64) -> SimInstant {
        SimInstant::ZERO + ms(v)
    }

    fn sample() -> RequestJournal {
        let mut journal = RequestJournal::new();
        let id = 3;
        journal.emit(
            at_ms(1.0),
            id,
            JournalKind::Arrival {
                class: QueryClass::Interactive,
                model: 2,
                records: 10,
            },
        );
        journal.emit(at_ms(1.0), id, JournalKind::Admitted);
        journal.emit(
            at_ms(2.0),
            id,
            JournalKind::Dispatched {
                batch: 0,
                backend: "FPGA".into(),
                device: "fpga".into(),
            },
        );
        journal.emit(
            at_ms(2.0),
            id,
            JournalKind::Completed {
                latency: ms(4.0),
                queue_wait: ms(1.0),
                prepare: ms(0.5),
                setup: ms(0.5),
                transfer: ms(1.0),
                compute: ms(0.75),
                drain: ms(0.25),
            },
        );
        journal
    }

    #[test]
    fn jsonl_lines_parse_and_carry_ids() {
        let journal = sample();
        assert_eq!(journal.len(), 4);
        let jsonl = journal.to_jsonl();
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 4);
        for line in &lines {
            let doc = mlscore_telemetry::json::parse(line).expect("valid JSON line");
            assert_eq!(doc.get("id").and_then(|v| v.as_f64()), Some(3.0));
            assert!(doc.get("t").is_some());
            assert!(doc.get("event").is_some());
        }
        assert!(lines[0].contains("\"event\":\"arrival\""));
        assert!(lines[0].contains("\"class\":\"interactive\""));
        assert!(lines[3].contains("\"latency\":0.004000000"));
        assert!(lines[3].contains("\"queue_wait\":0.001000000"));
    }

    #[test]
    fn rendering_is_deterministic() {
        assert_eq!(sample().to_jsonl(), sample().to_jsonl());
    }

    #[test]
    fn alerts_render_after_lifecycle_entries() {
        let mut journal = sample();
        journal.alert(SloAlert {
            window: 7,
            at: at_ms(700.0),
            class: "interactive".into(),
            attainment: 0.5,
            burn_rate: 50.0,
        });
        let jsonl = journal.to_jsonl();
        let last = jsonl.lines().last().expect("lines");
        assert!(last.contains("\"event\":\"slo_alert\""));
        assert!(last.contains("\"window\":7"));
        assert!(last.contains("\"burn_rate\":50.000000"));
        let doc = mlscore_telemetry::json::parse(last).expect("valid JSON");
        assert_eq!(doc.get("attainment").and_then(|v| v.as_f64()), Some(0.5));
    }

    #[test]
    fn shed_reasons_have_stable_names() {
        let mut journal = RequestJournal::new();
        for (id, reason) in [ShedReason::Rejected, ShedReason::Unservable]
            .into_iter()
            .enumerate()
        {
            journal.emit(at_ms(0.0), id as u64, JournalKind::Shed { reason });
        }
        let jsonl = journal.to_jsonl();
        for name in ["rejected", "unservable"] {
            assert!(jsonl.contains(&format!("\"reason\":\"{name}\"")), "{name}");
        }
    }
}
