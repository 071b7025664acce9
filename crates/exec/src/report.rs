//! Wall-clock occupancy reports for one executor run.
//!
//! Everything in this module is *measured* time (`std::time`), not the
//! simulated time the cost models account in. The bridge between the two
//! is [`RunReport::record_spans`]: it replays the measured per-worker busy
//! intervals as [`Scope::Detail`] spans at a caller-chosen simulated
//! anchor, so a Perfetto trace of a simulated query can carry the real
//! pool occupancy underneath the modelled scoring span. Detail spans are
//! ignored by breakdown folds, so the modelled `Query`/`Offload`
//! accounting stays bit-exact.

use std::time::Duration;

use mlscore_sim::{SimDuration, SimInstant};
use mlscore_telemetry::{Scope, Tracer};

/// Per-worker measurements for one [`ExecPool::run`](crate::ExecPool::run).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WorkerReport {
    /// Rows this worker executed.
    pub rows: usize,
    /// Blocks this worker claimed.
    pub chunks: usize,
    /// Total time spent inside the task closure.
    pub busy: Duration,
    /// Offset of the worker's first block start from the job start, or
    /// `None` if the worker never claimed a block.
    pub first_start: Option<Duration>,
    /// Offset of the worker's last block end from the job start.
    pub last_end: Duration,
}

impl WorkerReport {
    /// Fraction of the worker's active window spent inside the task.
    pub fn occupancy(&self) -> f64 {
        match self.first_start {
            Some(start) => {
                let window = self.last_end.saturating_sub(start);
                if window.is_zero() {
                    1.0
                } else {
                    self.busy.as_secs_f64() / window.as_secs_f64()
                }
            }
            None => 0.0,
        }
    }
}

/// Wall-clock summary of one executor run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    rows: usize,
    elapsed: Duration,
    workers: Vec<WorkerReport>,
}

impl RunReport {
    pub(crate) fn new(rows: usize, elapsed: Duration, workers: Vec<WorkerReport>) -> Self {
        Self {
            rows,
            elapsed,
            workers,
        }
    }

    pub(crate) fn empty() -> Self {
        Self::new(0, Duration::ZERO, Vec::new())
    }

    pub(crate) fn single(rows: usize, elapsed: Duration) -> Self {
        Self::new(
            rows,
            elapsed,
            vec![WorkerReport {
                rows,
                chunks: 1,
                busy: elapsed,
                first_start: Some(Duration::ZERO),
                last_end: elapsed,
            }],
        )
    }

    /// Rows the run executed.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Wall-clock duration of the whole run.
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Per-worker measurements, indexed by worker id.
    pub fn workers(&self) -> &[WorkerReport] {
        &self.workers
    }

    /// Records one wall-clock busy span per worker on `tracer`, anchored at
    /// the simulated instant `base` (1 ns of measured time maps to 1 ns of
    /// simulated time). Spans are [`Scope::Detail`] on lanes
    /// `process/worker{i}`, so Perfetto shows the pool's real occupancy
    /// without perturbing any breakdown fold.
    pub fn record_spans(&self, tracer: &Tracer, base: SimInstant, process: &str) {
        if !tracer.is_enabled() {
            return;
        }
        for (i, w) in self.workers.iter().enumerate() {
            let Some(first) = w.first_start else {
                continue;
            };
            let start = base + SimDuration::from_secs(first.as_secs_f64());
            tracer
                .span(format_args!("exec worker {i}"), start)
                .scope(Scope::Detail)
                .track(process, format_args!("worker{i}"))
                .meta("rows", w.rows)
                .meta("chunks", w.chunks)
                .meta("occupancy", format_args!("{:.3}", w.occupancy()))
                .finish(base + SimDuration::from_secs(w.last_end.as_secs_f64()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_of_idle_worker_is_zero() {
        assert_eq!(WorkerReport::default().occupancy(), 0.0);
    }

    #[test]
    fn single_report_is_fully_busy() {
        let r = RunReport::single(100, Duration::from_millis(10));
        assert_eq!(r.rows(), 100);
        assert_eq!(r.workers().len(), 1);
        assert!((r.workers()[0].occupancy() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn record_spans_emits_detail_lanes() {
        let r = RunReport::new(
            10,
            Duration::from_millis(2),
            vec![
                WorkerReport {
                    rows: 6,
                    chunks: 2,
                    busy: Duration::from_millis(1),
                    first_start: Some(Duration::ZERO),
                    last_end: Duration::from_millis(1),
                },
                WorkerReport::default(),
            ],
        );
        let tracer = Tracer::new();
        r.record_spans(&tracer, SimInstant::ZERO, "exec");
        let trace = tracer.take();
        // The idle worker records nothing.
        assert_eq!(trace.len(), 1);
        assert_eq!(trace.events()[0].scope, Scope::Detail);
        assert_eq!(trace.events()[0].name, "exec worker 0");
    }

    #[test]
    fn empty_report_records_nothing() {
        let tracer = Tracer::new();
        RunReport::empty().record_spans(&tracer, SimInstant::ZERO, "exec");
        assert!(tracer.take().is_empty());
    }
}
