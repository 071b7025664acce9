//! What a serving run produces: conservation counters, latency
//! distributions, device utilization, batch-size distribution, cache
//! behavior, and the per-dispatch log the property tests audit.

use std::collections::BTreeMap;

use mlscore_backend::CacheStats;
use mlscore_sim::{SimDuration, SimInstant};
use mlscore_telemetry::{Histogram, TimeSeriesRecorder};

use crate::journal::RequestJournal;
use crate::request::{QueryClass, RequestId};
use crate::slo::SloAlert;

/// Per-class slice of the outcome.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// The class.
    pub class: QueryClass,
    /// Completions.
    pub completed: u64,
    /// Requests of this class bounced at a full queue.
    pub rejected: u64,
    /// Requests of this class evicted by `ShedPolicy::DropOldest`.
    pub dropped: u64,
    /// Requests shed by queue-deadline expiry.
    pub timed_out: u64,
    /// Completions that exceeded the class's latency SLO.
    pub slo_violations: u64,
    /// Sojourn-latency distribution (arrival to completion).
    pub latency: Histogram,
}

impl ClassReport {
    /// Requests of this class shed for any reason.
    pub fn shed(&self) -> u64 {
        self.rejected + self.dropped + self.timed_out
    }

    /// Fraction of completions that met the latency SLO (`1.0` with no
    /// completions — no budget was burned).
    pub fn attainment(&self) -> f64 {
        if self.completed == 0 {
            1.0
        } else {
            1.0 - self.slo_violations as f64 / self.completed as f64
        }
    }
}

/// Busy accounting for one device.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceReport {
    /// Device name.
    pub name: String,
    /// Concurrent-pass slots.
    pub slots: usize,
    /// Passes the device ran.
    pub passes: u64,
    /// Slot-seconds of busy time.
    pub busy: SimDuration,
    /// Busy fraction of `slots x makespan`, in `[0, 1]`.
    pub utilization: f64,
}

/// One request's dispatch, in dispatch order — the audit trail for the
/// FIFO-within-class property.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchRecord {
    /// The request.
    pub id: RequestId,
    /// Its class.
    pub class: QueryClass,
    /// Its model (catalog index).
    pub model: usize,
    /// The backend that served its batch.
    pub backend: String,
    /// Which device pass (engine-global batch sequence number) carried it.
    pub batch: u64,
    /// When its batch started on the device.
    pub dispatched_at: SimInstant,
}

/// The full outcome of one serving run.
#[derive(Debug, Clone)]
pub struct ServingReport {
    /// Requests the workload offered.
    pub offered: u64,
    /// Requests the queue admitted.
    pub admitted: u64,
    /// Requests scored to completion.
    pub completed: u64,
    /// Requests bounced at a full queue (`ShedPolicy::RejectNew`).
    pub rejected: u64,
    /// Queued requests evicted by `ShedPolicy::DropOldest`.
    pub dropped: u64,
    /// Queued requests shed by class deadline expiry.
    pub timed_out: u64,
    /// Requests no backend in the roster supports.
    pub unservable: u64,
    /// Records actually scored (completed requests only).
    pub records_scored: u64,
    /// Simulated time from the first arrival to the last completion event.
    pub makespan: SimDuration,
    /// Device passes executed.
    pub batches: u64,
    /// Passes that merged more than one request.
    pub coalesced_batches: u64,
    /// Batch-size distribution: requests-per-pass -> passes.
    pub batch_sizes: BTreeMap<usize, u64>,
    /// Overall sojourn-latency distribution.
    pub latency: Histogram,
    /// Per-class slices, in `QueryClass::all()` order.
    pub classes: Vec<ClassReport>,
    /// Completed requests per backend name.
    pub picks: BTreeMap<String, u64>,
    /// Per-device accounting, in roster order.
    pub devices: Vec<DeviceReport>,
    /// Artifact-cache counters from the compile model (all zero when
    /// compile charging is off).
    pub cache: CacheStats,
    /// The final measured queries-per-compile arbitration used.
    pub expected_reuse: u64,
    /// Every dispatched request, in dispatch order.
    pub dispatches: Vec<DispatchRecord>,
    /// Windowed time series of the run's metrics.
    pub series: TimeSeriesRecorder,
    /// The request-lifecycle journal.
    pub journal: RequestJournal,
    /// SLO budget-burn alerts, in window-then-class order.
    pub alerts: Vec<SloAlert>,
}

impl ServingReport {
    /// Completed queries per second of makespan (0 for an empty run).
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.makespan.as_secs()
        }
    }

    /// Scored records per second of makespan.
    pub fn records_per_sec(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.records_scored as f64 / self.makespan.as_secs()
        }
    }

    /// Requests shed for any reason (rejected + dropped + timed out).
    pub fn shed(&self) -> u64 {
        self.rejected + self.dropped + self.timed_out
    }

    /// Largest number of requests merged into one pass (0 for no passes).
    pub fn max_batch(&self) -> usize {
        self.batch_sizes.keys().next_back().copied().unwrap_or(0)
    }

    /// Mean requests per pass (0 for no passes).
    pub fn mean_batch(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.completed as f64 / self.batches as f64
        }
    }

    /// The class slice for `class`.
    ///
    /// # Panics
    ///
    /// Panics if the report is missing the class (never true for
    /// engine-produced reports).
    pub fn class(&self, class: QueryClass) -> &ClassReport {
        self.classes
            .iter()
            .find(|c| c.class == class)
            // analyze: allow(P001, reason="documented panic: the engine emits one ClassReport per QueryClass::all() entry; absence is a construction bug, not load")
            .expect("engine reports carry every class")
    }

    /// Checks the request-conservation invariant: every offered request is
    /// accounted for exactly once as completed, rejected, dropped, timed
    /// out, or unservable; admission splits
    /// offered against rejected; and the per-class slices sum back to
    /// every global counter they shard.
    pub fn is_conserved(&self) -> bool {
        let sum = |f: fn(&ClassReport) -> u64| self.classes.iter().map(f).sum::<u64>();
        self.offered == self.admitted + self.rejected
            && self.admitted == self.completed + self.dropped + self.timed_out + self.unservable
            && self.completed == self.dispatches.len() as u64
            && self.completed == self.picks.values().sum::<u64>()
            && self.batch_sizes.values().sum::<u64>() == self.batches
            && self
                .batch_sizes
                .iter()
                .map(|(size, n)| *size as u64 * n)
                .sum::<u64>()
                == self.completed
            && sum(|c| c.completed) == self.completed
            && sum(|c| c.rejected) == self.rejected
            && sum(|c| c.dropped) == self.dropped
            && sum(|c| c.timed_out) == self.timed_out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty_report() -> ServingReport {
        ServingReport {
            offered: 0,
            admitted: 0,
            completed: 0,
            rejected: 0,
            dropped: 0,
            timed_out: 0,
            unservable: 0,
            records_scored: 0,
            makespan: SimDuration::ZERO,
            batches: 0,
            coalesced_batches: 0,
            batch_sizes: BTreeMap::new(),
            latency: Histogram::new(),
            classes: QueryClass::all()
                .into_iter()
                .map(|class| ClassReport {
                    class,
                    completed: 0,
                    rejected: 0,
                    dropped: 0,
                    timed_out: 0,
                    slo_violations: 0,
                    latency: Histogram::new(),
                })
                .collect(),
            picks: BTreeMap::new(),
            devices: Vec::new(),
            cache: CacheStats::default(),
            expected_reuse: 1,
            dispatches: Vec::new(),
            series: TimeSeriesRecorder::new(SimDuration::from_millis(100.0)),
            journal: RequestJournal::new(),
            alerts: Vec::new(),
        }
    }

    #[test]
    fn empty_report_is_conserved_with_zero_rates() {
        let r = empty_report();
        assert!(r.is_conserved());
        assert_eq!(r.throughput_qps(), 0.0);
        assert_eq!(r.records_per_sec(), 0.0);
        assert_eq!(r.shed(), 0);
        assert_eq!(r.max_batch(), 0);
        assert_eq!(r.mean_batch(), 0.0);
    }

    #[test]
    fn conservation_catches_a_lost_request() {
        let mut r = empty_report();
        r.offered = 3;
        r.admitted = 2;
        r.rejected = 1;
        r.completed = 1; // one admitted request vanished
        assert!(!r.is_conserved());
    }

    #[test]
    fn conservation_catches_unattributed_shed_classes() {
        let mut r = empty_report();
        r.offered = 1;
        r.admitted = 0;
        r.rejected = 1; // globally counted, but no class owns it
        assert!(!r.is_conserved());
        r.classes[0].rejected = 1;
        assert!(r.is_conserved());
    }

    #[test]
    fn class_shed_and_attainment_derive_from_counters() {
        let mut c = empty_report().classes[0].clone();
        assert_eq!(c.shed(), 0);
        assert_eq!(c.attainment(), 1.0);
        c.rejected = 2;
        c.dropped = 1;
        c.timed_out = 3;
        assert_eq!(c.shed(), 6);
        c.completed = 4;
        c.slo_violations = 1;
        assert_eq!(c.attainment(), 0.75);
    }

    #[test]
    fn batch_stats_derive_from_the_distribution() {
        let mut r = empty_report();
        r.offered = 5;
        r.admitted = 5;
        r.completed = 5;
        r.classes[0].completed = 5;
        r.batches = 2;
        r.batch_sizes.insert(1, 1);
        r.batch_sizes.insert(4, 1);
        r.picks.insert("FPGA".to_string(), 5);
        r.dispatches = (0..5)
            .map(|id| DispatchRecord {
                id,
                class: QueryClass::Interactive,
                model: 0,
                backend: "FPGA".to_string(),
                batch: u64::from(id > 0),
                dispatched_at: SimInstant::ZERO,
            })
            .collect();
        r.makespan = SimDuration::from_secs(2.0);
        assert!(r.is_conserved());
        assert_eq!(r.max_batch(), 4);
        assert_eq!(r.mean_batch(), 2.5);
        assert_eq!(r.throughput_qps(), 2.5);
    }
}
