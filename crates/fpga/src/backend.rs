//! [`ScoringBackend`] implementation for the FPGA engine.

use std::sync::Arc;

use mlscore_backend::{
    score_whole_batch, BackendError, Lowered, ModelRef, ScoringBackend, StreamOutcome,
};
use mlscore_data::RecordStream;
use mlscore_forest::{ModelStats, RandomForest};
use mlscore_sim::{SimInstant, Stage, TimingBreakdown};
use mlscore_telemetry::{ExactSplit, Scope, StageRecorder, Tracer};

use crate::device::FpgaDevice;
use crate::engine::{EngineConfig, InferenceEngine, LoadedModel};
use crate::error::FpgaError;

/// The "FPGA" backend of the paper's figures: the inference engine plus the
/// full offload path (model transfer, CSR setup, overlapped record
/// streaming, interrupt completion, result transfer, host software).
#[derive(Debug, Clone, PartialEq)]
pub struct FpgaBackend {
    engine: InferenceEngine,
}

impl FpgaBackend {
    /// The paper's configuration (Stratix 10, 128 PEs, depth 10, BRAM).
    pub fn paper_default() -> Self {
        Self::new(InferenceEngine::paper_default())
    }

    /// Wraps an engine.
    pub fn new(engine: InferenceEngine) -> Self {
        Self { engine }
    }

    /// A backend with a custom device and engine configuration.
    pub fn with_config(device: FpgaDevice, config: EngineConfig) -> Self {
        Self::new(InferenceEngine::new(device, config))
    }

    /// The underlying engine.
    pub fn engine(&self) -> &InferenceEngine {
        &self.engine
    }

    fn to_backend_error(e: FpgaError) -> BackendError {
        match e {
            FpgaError::Forest(fe) => fe.into(),
            other => BackendError::unsupported("FPGA", other.to_string()),
        }
    }
}

impl ScoringBackend for FpgaBackend {
    fn name(&self) -> &str {
        "FPGA"
    }

    fn supports(&self, stats: &ModelStats) -> Result<(), BackendError> {
        let cfg = self.engine.config();
        if stats.n_trees == 0 {
            return Err(BackendError::unsupported(
                "FPGA",
                "a model with no trees has no pass to run",
            ));
        }
        if stats.max_depth > cfg.max_depth {
            return Err(BackendError::unsupported(
                "FPGA",
                format!(
                    "tree depth {} exceeds engine capacity of {} levels",
                    stats.max_depth, cfg.max_depth
                ),
            ));
        }
        Ok(())
    }

    /// Lowering depends on the engine's tree-memory shape: the flat-image
    /// depth capacity, the PE count (pass plan), and the memory backend
    /// (BRAM placement), so all three key the artifact cache.
    fn cache_config(&self) -> String {
        let cfg = self.engine.config();
        format!(
            "depth{}-pe{}-{:?}-rb{}",
            cfg.max_depth, cfg.pe_count, cfg.memory, cfg.result_buffer_records
        )
    }

    // Lowering is the engine's load step: flat-encode the forest at the
    // engine's depth capacity, plan the pass schedule, and place tree
    // memories in BRAM — exactly what the seed redid on every `score`.
    fn lower(&self, forest: &RandomForest) -> Result<Lowered, BackendError> {
        let model = self.engine.load(forest).map_err(Self::to_backend_error)?;
        Ok(Lowered::Custom(Arc::new(model)))
    }

    fn score(
        &self,
        model: ModelRef<'_>,
        stream: &mut dyn RecordStream,
        _tracer: &Tracer,
        _start: SimInstant,
    ) -> Result<StreamOutcome, BackendError> {
        let loaded = model.custom::<LoadedModel>(self.name())?;
        score_whole_batch(stream, |frame| {
            Ok(self.engine.execute(loaded, frame.as_slice()).predictions)
        })
    }

    fn estimate(
        &self,
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        let engine = &self.engine;
        let device = engine.device();
        let link = &device.link;
        let name = <Self as ScoringBackend>::name(self);
        let passes = engine.passes(stats.n_trees);

        // Input transfer: the model image into the tree memories, one DMA
        // per pass. Record streaming overlaps scoring (§IV-B), so it is
        // charged inside the scoring component instead.
        let trees_per_pass = (stats.n_trees as u64).div_ceil(passes as u64);
        let input_total =
            link.transfer(trees_per_pass * engine.tree_memory_bytes()) * passes as f64;
        // FPGA setup: the CSR driver sequence that arms each pass.
        let setup_total = crate::csr::setup_time(device.csr_write) * passes as f64;
        // Scoring: pipeline cycles, rate-limited by the overlapped PCIe
        // record stream when records arrive slower than 1/cycle.
        let pass = engine.pass_time(n_records, stats.row_bytes() as u64);
        let scoring_total = pass.scoring() * passes as f64;
        // Completion: the paper's interrupt, once per pass.
        let completion_total = device.interrupt * passes as f64;
        let bound = if pass.stream > pass.compute {
            "pcie-stream"
        } else {
            "compute"
        };

        // Each pass's stages are cut with `ExactSplit`, so the per-pass
        // spans fold back to every stage total bit-exactly. The host
        // spans come last (SoftwareOverhead is the breakdown's last stage)
        // but sit where the host spends the time: the driver call before
        // pass 0, the inter-pass driver work in the gap after pass 0.
        let mut rec = StageRecorder::new(tracer, name, Scope::Offload);
        let mut cursor = start + device.software_overhead;
        let mut first_gap = cursor;
        let per_pass = ExactSplit::new(input_total, passes)
            .zip(ExactSplit::new(setup_total, passes))
            .zip(ExactSplit::new(scoring_total, passes))
            .zip(ExactSplit::new(completion_total, passes));
        for (i, (((inp, set), sco), com)) in per_pass.enumerate() {
            cursor = rec
                .span(
                    format_args!("model dma pass {i}"),
                    Stage::InputTransfer,
                    cursor,
                )
                .meta("pass", i)
                .finish_after(inp);
            cursor = rec
                .span(
                    format_args!("csr setup pass {i}"),
                    Stage::AcceleratorSetup,
                    cursor,
                )
                .meta("pass", i)
                .finish_after(set);
            if i < MAX_PASS_LANES {
                // Detail lanes: the engine pipeline and the overlapped PCIe
                // record stream run concurrently; scoring is the max.
                tracer
                    .span(format_args!("engine compute pass {i}"), cursor)
                    .track(name, format_args!("pass{i}"))
                    .finish_after(pass.compute);
                tracer
                    .span(format_args!("record stream pass {i}"), cursor)
                    .track(name, "pcie")
                    .finish_after(pass.stream);
            }
            cursor = rec
                .span(format_args!("scoring pass {i}"), Stage::Scoring, cursor)
                .meta("pass", i)
                .meta("bound", bound)
                .finish_after(sco);
            cursor = rec
                .span(
                    format_args!("completion pass {i}"),
                    Stage::CompletionSignal,
                    cursor,
                )
                .meta("pass", i)
                .finish_after(com);
            if i == 0 {
                first_gap = cursor;
            }
            if i + 1 < passes {
                cursor += device.per_pass_software;
            }
        }

        // Result transfer: one DMA per result-memory flush.
        let flushes = engine.result_flushes(n_records) as u64;
        rec.span("result dma", Stage::ResultTransfer, cursor)
            .meta("flushes", flushes)
            .finish_after(link.transfer(n_records * 4 / flushes) * flushes as f64);
        // Host software overhead: fixed per call plus per extra pass.
        rec.span("driver call", Stage::SoftwareOverhead, start)
            .lane("host")
            .meta("backend", name)
            .finish_after(device.software_overhead);
        if passes > 1 {
            rec.span("inter-pass driver", Stage::SoftwareOverhead, first_gap)
                .lane("host")
                .meta("passes", passes)
                .finish_after(device.per_pass_software * (passes - 1) as f64);
        }
        rec.into_breakdown()
    }
}

/// Cap on per-pass detail lanes so very wide models stay readable.
const MAX_PASS_LANES: usize = 8;

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_backend::{compile, score_once};
    use mlscore_data::{Dataset, FrameScanner};
    use mlscore_forest::ForestConfig;

    fn stats(n_trees: usize, depth: usize, n_features: usize) -> ModelStats {
        ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(n_trees, n_features, 2).with_depth(depth),
            1,
        ))
    }

    #[test]
    fn scoring_matches_reference() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(16, 28, 2).with_depth(7), 9);
        let data = Dataset::higgs(150, 3).normalized();
        let preds = score_once(&FpgaBackend::paper_default(), &forest, data.frame()).unwrap();
        assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
    }

    #[test]
    fn prepared_scoring_reuses_loaded_model() {
        use mlscore_forest::ModelBundle;
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(16, 28, 2).with_depth(7), 9);
        let data = Dataset::higgs(150, 3).normalized();
        let backend = FpgaBackend::paper_default();
        let model = compile(&backend, &ModelBundle::serialize(&forest)).unwrap();
        // The cache key carries the engine's compile-relevant knobs.
        assert!(
            model.key().config.contains("depth10-pe128"),
            "{:?}",
            model.key()
        );
        let warm = backend
            .score(
                model.bind(backend.name(), 28).unwrap(),
                &mut FrameScanner::whole(data.frame()),
                &Tracer::disabled(),
                SimInstant::ZERO,
            )
            .unwrap();
        assert_eq!(
            warm.predictions,
            score_once(&backend, &forest, data.frame()).unwrap()
        );
        // A foreign artifact is rejected, naming the mismatch.
        let skl = mlscore_backend::SklearnCpu::with_threads(1);
        let foreign = compile(&skl, &ModelBundle::serialize(&forest)).unwrap();
        let err = foreign.bind(backend.name(), 28).unwrap_err();
        assert!(matches!(err, BackendError::Artifact { .. }));
    }

    #[test]
    fn supports_rejects_deep_trees() {
        let s = stats(1, 10, 4);
        assert!(FpgaBackend::paper_default().supports(&s).is_ok());
        let deep = stats(1, 11, 4);
        assert!(FpgaBackend::paper_default().supports(&deep).is_err());
    }

    #[test]
    fn one_record_is_overhead_dominated() {
        // Fig. 7a: for 1 record, input transfer and software overhead
        // dominate; scoring itself is nanoseconds.
        let b = FpgaBackend::paper_default().estimate(
            &stats(128, 10, 4),
            1,
            &Tracer::disabled(),
            SimInstant::ZERO,
        );
        let scoring = b.get(Stage::Scoring);
        assert!(scoring.as_micros() < 1.0, "scoring {scoring}");
        assert!(b.total().as_micros() > 500.0, "total {}", b.total());
        let (dominant, _) = b.dominant().unwrap();
        assert!(
            dominant == Stage::InputTransfer || dominant == Stage::SoftwareOverhead,
            "dominant stage {dominant}"
        );
    }

    #[test]
    fn million_records_are_scoring_dominated() {
        // Fig. 7b: at 1M records the scoring component dominates.
        let b = FpgaBackend::paper_default().estimate(
            &stats(128, 10, 4),
            1_000_000,
            &Tracer::disabled(),
            SimInstant::ZERO,
        );
        assert_eq!(b.dominant().unwrap().0, Stage::Scoring);
        // ~1M cycles at 250 MHz = 4 ms.
        assert!((3.9..6.0).contains(&b.get(Stage::Scoring).as_millis()));
    }

    #[test]
    fn wide_rows_become_pcie_stream_bound() {
        // HIGGS rows (112 B) need 28 GB/s at one record/cycle — more than
        // PCIe 3.0 x16 provides, so scoring is stream-bound and slower than
        // the 4 ms compute floor.
        let b = FpgaBackend::paper_default().estimate(
            &stats(128, 10, 28),
            1_000_000,
            &Tracer::disabled(),
            SimInstant::ZERO,
        );
        let scoring = b.get(Stage::Scoring).as_millis();
        assert!((8.0..12.0).contains(&scoring), "scoring {scoring} ms");
    }

    #[test]
    fn multi_pass_models_cost_proportionally_more() {
        let backend = FpgaBackend::paper_default();
        let one_pass = backend.estimate(
            &stats(128, 10, 4),
            1_000_000,
            &Tracer::disabled(),
            SimInstant::ZERO,
        );
        let two_pass = backend.estimate(
            &stats(256, 10, 4),
            1_000_000,
            &Tracer::disabled(),
            SimInstant::ZERO,
        );
        let ratio = two_pass
            .get(Stage::Scoring)
            .ratio(one_pass.get(Stage::Scoring));
        assert!((1.9..2.1).contains(&ratio), "ratio {ratio}");
        assert!(two_pass.get(Stage::CompletionSignal) > one_pass.get(Stage::CompletionSignal));
    }

    #[test]
    fn traced_estimate_reconstructs_exactly() {
        let backend = FpgaBackend::paper_default();
        // Single-pass tiny batch, multi-pass stream-bound HIGGS-size batch.
        for (s, n) in [
            (stats(128, 10, 4), 1u64),
            (stats(256, 10, 28), 1_000_000),
            (stats(300, 9, 12), 77_777),
        ] {
            let tracer = Tracer::new();
            let traced = backend.estimate(&s, n, &tracer, SimInstant::ZERO);
            assert_eq!(
                traced,
                backend.estimate(&s, n, &Tracer::disabled(), SimInstant::ZERO)
            );
            let trace = tracer.take();
            assert_eq!(trace.breakdown(Scope::Offload), traced);
        }
    }

    #[test]
    fn traced_two_pass_span_inventory() {
        let backend = FpgaBackend::paper_default();
        let tracer = Tracer::new();
        backend.estimate(&stats(256, 10, 4), 1000, &tracer, SimInstant::ZERO);
        let trace = tracer.take();
        // 4 offload spans per pass x 2 passes + result dma + driver call +
        // inter-pass driver = 11 offload; 2 detail lanes per pass = 4.
        assert_eq!(trace.len(), 15);
        let details = trace
            .events()
            .iter()
            .filter(|e| e.scope == Scope::Detail)
            .count();
        assert_eq!(details, 4);
        // The driver call sits at the very start of the timeline.
        let driver = trace
            .events()
            .iter()
            .find(|e| e.name == "driver call")
            .unwrap();
        assert_eq!(driver.start, SimInstant::ZERO);
        // Compute and stream detail spans for a pass start together.
        let compute = trace
            .events()
            .iter()
            .find(|e| e.name == "engine compute pass 0")
            .unwrap();
        let stream = trace
            .events()
            .iter()
            .find(|e| e.name == "record stream pass 0")
            .unwrap();
        assert_eq!(compute.start, stream.start);
    }

    #[test]
    fn overheads_independent_of_model_complexity() {
        // Fig. 7a: FPGA setup, completion signal, and software overhead are
        // the same for 1 tree and 128 trees (both are single-pass).
        let backend = FpgaBackend::paper_default();
        let small = backend.estimate(&stats(1, 10, 4), 1, &Tracer::disabled(), SimInstant::ZERO);
        let big = backend.estimate(&stats(128, 10, 4), 1, &Tracer::disabled(), SimInstant::ZERO);
        assert_eq!(
            small.get(Stage::AcceleratorSetup),
            big.get(Stage::AcceleratorSetup)
        );
        assert_eq!(
            small.get(Stage::CompletionSignal),
            big.get(Stage::CompletionSignal)
        );
        assert_eq!(
            small.get(Stage::SoftwareOverhead),
            big.get(Stage::SoftwareOverhead)
        );
        // But input transfer grows with the model.
        assert!(big.get(Stage::InputTransfer) > small.get(Stage::InputTransfer));
    }
}
