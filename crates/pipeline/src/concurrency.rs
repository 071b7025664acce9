//! Multi-query consolidation analysis.
//!
//! The paper motivates accelerators partly by noting they "free up
//! processor cores for other work". This module makes that claim
//! measurable: given `q` concurrent scoring queries, it compares the
//! makespan of running everything on the host against offloading the
//! scoring stage to a single accelerator card (which serializes scoring
//! across queries while the host handles the pipeline stages in parallel).

use mlscore_backend::ScoringBackend;
use mlscore_forest::ModelStats;
use mlscore_sim::{DeviceLedger, SimDuration, SimInstant, Stage, StageClass};
use mlscore_telemetry::Tracer;

use crate::params::PipelineParams;

/// Host resources available to concurrent queries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostResources {
    /// Hardware threads shared by all queries.
    pub threads: usize,
}

impl Default for HostResources {
    fn default() -> Self {
        Self { threads: 52 }
    }
}

/// Outcome of a consolidation comparison.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConsolidationReport {
    /// Queries analyzed.
    pub queries: u32,
    /// Makespan with scoring on the host.
    pub host_only: SimDuration,
    /// Makespan with scoring offloaded to one accelerator.
    pub offloaded: SimDuration,
    /// Host core-seconds of scoring work the accelerator absorbed — the
    /// "freed up" processor resource.
    pub core_seconds_freed: f64,
}

impl ConsolidationReport {
    /// Consolidation speedup (`host_only / offloaded`).
    pub fn speedup(&self) -> f64 {
        self.host_only.ratio(self.offloaded)
    }
}

/// Analyzes `queries` identical concurrent queries, each scoring
/// `n_records` with the given model, comparing a host-only backend against
/// the paper's single accelerator card.
///
/// The host-only makespan divides total core-seconds (pipeline stages plus
/// single-thread-equivalent scoring) across the host's threads, floored by
/// one query's critical path. The offloaded makespan reserves each query's
/// device pass on a one-slot [`DeviceLedger`] — the same reservation model
/// the serving engine arbitrates with, so the offline analysis and the
/// simulator agree on device occupancy by construction — and takes the
/// maximum of the card's completion time, the host-side pipeline work, and
/// a single query's critical path.
#[allow(clippy::too_many_arguments)] // a deliberate flat API: workload x resources x backends
pub fn consolidate(
    host: &HostResources,
    params: &PipelineParams,
    cpu_backend: &dyn ScoringBackend,
    accel_backend: &dyn ScoringBackend,
    stats: &ModelStats,
    model_bytes: u64,
    n_records: u64,
    queries: u32,
) -> ConsolidationReport {
    let q = queries.max(1) as f64;
    // Per-query host pipeline work (marshal, pre/post-processing). Python
    // invocation burns a core for its duration as well.
    let data_bytes = n_records * stats.row_bytes() as u64;
    let pipeline_work = params.python_invocation
        + params.marshal_time(n_records, data_bytes + model_bytes)
        + params.marshal_results_time(n_records)
        + params.model_preprocess_time(model_bytes)
        + params.data_preprocess_per_byte * data_bytes as f64
        + params.postprocess_per_record * n_records as f64;

    // CPU scoring in core-seconds: the backend models a parallel run, so
    // rescale its compute component back to single-thread-equivalents via
    // the overhead-free scoring stage.
    let cpu_breakdown =
        cpu_backend.estimate(stats, n_records, &Tracer::disabled(), SimInstant::ZERO);
    let cpu_scoring_wall = cpu_breakdown.get(Stage::Scoring);
    // Treat the backend's wall-clock scoring as having used all host
    // threads (true for the 52-thread engines at large batches).
    let cpu_scoring_core_seconds = cpu_scoring_wall.as_secs() * host.threads as f64;

    let threads = host.threads as f64;
    let critical_path_host = pipeline_work + cpu_breakdown.total();
    let host_only = SimDuration::from_secs(
        ((pipeline_work.as_secs() + cpu_scoring_core_seconds) * q / threads)
            .max(critical_path_host.as_secs()),
    );

    // Offloaded: each query's device pass (compute + transfer) occupies the
    // card on the shared reservation ledger; the host-side overhead class
    // of the offload still burns host time.
    let accel_breakdown =
        accel_backend.estimate(stats, n_records, &Tracer::disabled(), SimInstant::ZERO);
    let device_busy = accel_breakdown.total_class(StageClass::Compute)
        + accel_breakdown.total_class(StageClass::Transfer);
    let mut ledger = DeviceLedger::new(1);
    for _ in 0..queries.max(1) {
        ledger.reserve(SimInstant::ZERO, device_busy);
    }
    let device_completion = ledger.completion() - SimInstant::ZERO;
    let host_side_offload = accel_breakdown.total_class(StageClass::Overhead)
        + accel_breakdown.total_class(StageClass::Pipeline);
    let critical_path_accel = pipeline_work + accel_breakdown.total();
    let offloaded = SimDuration::from_secs(
        device_completion
            .as_secs()
            .max((pipeline_work.as_secs() + host_side_offload.as_secs()) * q / threads)
            .max(critical_path_accel.as_secs()),
    );

    ConsolidationReport {
        queries,
        host_only,
        offloaded,
        core_seconds_freed: cpu_scoring_core_seconds * q,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_backend::SklearnCpu;
    use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};

    fn heavy() -> (ModelStats, u64) {
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(128, 28, 2).with_depth(10),
            1,
        );
        let bytes = ModelBundle::serialize(&forest).len() as u64;
        (ModelStats::of(&forest), bytes)
    }

    fn fpga() -> mlscore_fpga_shim::Fpga {
        mlscore_fpga_shim::Fpga
    }

    // A tiny in-crate accelerator stand-in so pipeline unit tests do not
    // depend on the fpga crate (integration tests cover the real one):
    // fixed 2 ms overhead + 10 ns/record of device time.
    mod mlscore_fpga_shim {
        use mlscore_backend::{
            score_whole_batch, BackendError, ModelRef, ScoringBackend, StreamOutcome,
        };
        use mlscore_data::RecordStream;
        use mlscore_forest::ModelStats;
        use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};
        use mlscore_telemetry::Tracer;

        pub struct Fpga;

        impl ScoringBackend for Fpga {
            fn name(&self) -> &str {
                "accel-shim"
            }
            fn score(
                &self,
                model: ModelRef<'_>,
                stream: &mut dyn RecordStream,
                _tracer: &Tracer,
                _start: SimInstant,
            ) -> Result<StreamOutcome, BackendError> {
                score_whole_batch(stream, |frame| {
                    Ok(model.forest().predict_batch(frame.as_slice()))
                })
            }
            fn estimate(
                &self,
                _stats: &ModelStats,
                n_records: u64,
                _tracer: &Tracer,
                _start: SimInstant,
            ) -> TimingBreakdown {
                let mut b = TimingBreakdown::new();
                b.add(Stage::SoftwareOverhead, SimDuration::from_millis(2.0));
                b.add(
                    Stage::Scoring,
                    SimDuration::from_nanos(10.0) * n_records as f64,
                );
                b
            }
        }
    }

    #[test]
    fn offloading_heavy_queries_wins_and_frees_cores() {
        let (stats, bytes) = heavy();
        let cpu = SklearnCpu::paper_default();
        let report = consolidate(
            &HostResources::default(),
            &PipelineParams::default(),
            &cpu,
            &fpga(),
            &stats,
            bytes,
            1_000_000,
            8,
        );
        assert!(report.speedup() > 1.0, "speedup {}", report.speedup());
        assert!(report.core_seconds_freed > 0.0);
    }

    #[test]
    fn single_query_matches_critical_path_floor() {
        let (stats, bytes) = heavy();
        let cpu = SklearnCpu::paper_default();
        let report = consolidate(
            &HostResources::default(),
            &PipelineParams::default(),
            &cpu,
            &fpga(),
            &stats,
            bytes,
            1_000,
            1,
        );
        // One query cannot beat its own critical path.
        assert!(report.host_only >= SimDuration::from_millis(100.0)); // python invocation
        assert!(report.offloaded >= SimDuration::from_millis(100.0));
    }

    #[test]
    fn accelerator_serialization_eventually_binds() {
        // With enough concurrent queries, the single accelerator becomes
        // the bottleneck and makespan grows linearly in q.
        let (stats, bytes) = heavy();
        let cpu = SklearnCpu::paper_default();
        // Tight (in-engine) integration keeps the per-query critical path
        // small so the device's serialized busy time is what binds.
        let run = |q| {
            consolidate(
                &HostResources { threads: 10_000 }, // host never binds
                &crate::integration::IntegrationMode::InEngine.params(),
                &cpu,
                &fpga(),
                &stats,
                bytes,
                1_000_000,
                q,
            )
            .offloaded
        };
        let m64 = run(64);
        let m128 = run(128);
        let ratio = m128.ratio(m64);
        assert!(
            (1.8..2.2).contains(&ratio),
            "serialized scaling ratio {ratio}"
        );
    }

    #[test]
    fn report_speedup_is_ratio() {
        let r = ConsolidationReport {
            queries: 2,
            host_only: SimDuration::from_secs(10.0),
            offloaded: SimDuration::from_secs(2.0),
            core_seconds_freed: 1.0,
        };
        assert_eq!(r.speedup(), 5.0);
    }
}
