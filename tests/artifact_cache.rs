//! Two-phase compile/score integration: the artifact cache must be purely
//! an *amortization* — a cached, prepared model scores bit-for-bit the same
//! records as the compile-per-call `score_once` path on every backend in the study, a
//! second pipeline execution of the same bundle is a cache hit whose
//! backend-side breakdown is unchanged, and the warm/cold split is visible
//! in the exported Perfetto timeline.

use std::sync::Arc;

use proptest::prelude::*;

use mlscore::prelude::*;
use mlscore_backend::{ArtifactCache, CacheOutcome, CompiledModel, OnnxCpu, SklearnCpu};
use mlscore_forest::ModelBundle;
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};
use mlscore_pipeline::{QueryPipeline, Records};
use mlscore_sim::SimInstant;
use mlscore_telemetry::{perfetto, Scope, Tracer};

/// All six backends of the study. Binary classification keeps the
/// RAPIDS-FIL backend (binary-only) in the roster.
fn all_backends() -> Vec<Box<dyn ScoringBackend>> {
    vec![
        Box::new(SklearnCpu::with_threads(2)),
        Box::new(OnnxCpu::single_thread()),
        Box::new(OnnxCpu::with_threads(4)),
        Box::new(HummingbirdGpu::p100()),
        Box::new(RapidsFil::p100()),
        Box::new(FpgaBackend::paper_default()),
    ]
}

/// Scores `frame` against a compiled `model` as one staged chunk.
fn score_compiled(
    backend: &dyn ScoringBackend,
    model: &CompiledModel,
    frame: &TabularFrame,
) -> Vec<u32> {
    let bound = model.bind(backend.name(), frame.n_features()).unwrap();
    backend
        .score(
            bound,
            &mut FrameScanner::whole(frame),
            &Tracer::disabled(),
            SimInstant::ZERO,
        )
        .unwrap()
        .predictions
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn cached_prepared_scoring_is_bit_exact_on_every_backend(
        n_trees in 1usize..10,
        depth in 1usize..8,
        n_features in 1usize..8,
        seed in any::<u64>(),
    ) {
        let cfg = ForestConfig::classification(n_trees, n_features, 2).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let bundle = ModelBundle::serialize(&forest);
        let data: Vec<f32> = (0..48 * n_features)
            .map(|i| (i as f32 * 0.43 + seed as f32 * 1e-3) % 1.0)
            .collect();
        let frame = TabularFrame::from_rows(data, n_features).unwrap();
        let cache = ArtifactCache::new(16);
        for backend in all_backends() {
            let fresh = score_once(&backend, &forest, &frame).unwrap();
            let (model, o1, _) = cache.get_or_prepare(&backend, &bundle).unwrap();
            prop_assert_eq!(o1, CacheOutcome::Miss, "{}", backend.name());
            let cold = score_compiled(&backend, &model, &frame);
            let (model, o2, _) = cache.get_or_prepare(&backend, &bundle).unwrap();
            prop_assert_eq!(o2, CacheOutcome::Hit, "{}", backend.name());
            let warm = score_compiled(&backend, &model, &frame);
            prop_assert_eq!(&cold, &fresh, "cold prepared disagrees on {}", backend.name());
            prop_assert_eq!(&warm, &fresh, "warm prepared disagrees on {}", backend.name());
        }
    }
}

#[test]
fn second_execute_is_a_hit_with_identical_scoring_breakdown() {
    let forest =
        RandomForest::synthetic_full(&ForestConfig::classification(16, 8, 2).with_depth(6), 11);
    let bundle = ModelBundle::serialize(&forest);
    let data: Vec<f32> = (0..200 * 8).map(|i| (i as f32 * 0.37) % 1.0).collect();
    let frame = TabularFrame::from_rows(data, 8).unwrap();
    for backend in all_backends() {
        let name = backend.name().to_string();
        let pipeline = QueryPipeline::new(backend).with_cache(Arc::new(ArtifactCache::new(4)));
        let query = || {
            let records = Records::Staged(&frame);
            pipeline.execute(&bundle, records, &Tracer::disabled(), SimInstant::ZERO)
        };
        let cold = query().unwrap();
        let warm = query().unwrap();
        assert_eq!(cold.cache, CacheOutcome::Miss, "{name}");
        assert_eq!(warm.cache, CacheOutcome::Hit, "{name}");
        assert_eq!(warm.predictions, cold.predictions, "{name}");
        // The cache only amortizes compile: the backend-side scoring
        // breakdown is identical, while the end-to-end query gets cheaper.
        assert_eq!(warm.scoring_breakdown, cold.scoring_breakdown, "{name}");
        assert!(warm.total() < cold.total(), "{name}");
        let stats = pipeline.cache().unwrap().stats();
        assert_eq!((stats.hits, stats.misses), (1, 1), "{name}");
    }
}

#[test]
fn warm_cold_split_is_visible_in_perfetto_export() {
    let forest =
        RandomForest::synthetic_full(&ForestConfig::classification(32, 28, 2).with_depth(10), 5);
    let bundle = ModelBundle::serialize(&forest);
    let data: Vec<f32> = (0..64 * 28).map(|i| (i as f32 * 0.21) % 1.0).collect();
    let frame = TabularFrame::from_rows(data, 28).unwrap();
    let pipeline = QueryPipeline::new(FpgaBackend::paper_default())
        .with_cache(Arc::new(ArtifactCache::new(4)));

    let tracer = Tracer::new();
    pipeline
        .execute(&bundle, Records::Staged(&frame), &tracer, SimInstant::ZERO)
        .unwrap();
    let cold_trace = tracer.take();
    assert!(cold_trace
        .events()
        .iter()
        .any(|e| e.scope == Scope::Compile));
    let cold_json = perfetto::to_json(&cold_trace);
    assert!(
        cold_json.contains("deserialize bundle"),
        "compile spans missing"
    );
    assert!(cold_json.contains("lower model"), "compile spans missing");
    assert!(cold_json.contains("marshal model + records"));

    let tracer = Tracer::new();
    pipeline
        .execute(&bundle, Records::Staged(&frame), &tracer, SimInstant::ZERO)
        .unwrap();
    let warm_trace = tracer.take();
    assert!(!warm_trace
        .events()
        .iter()
        .any(|e| e.scope == Scope::Compile));
    let warm_json = perfetto::to_json(&warm_trace);
    assert!(
        warm_json.contains("artifact cache hit"),
        "warm marker missing"
    );
    assert!(
        !warm_json.contains("deserialize bundle"),
        "warm query re-compiled"
    );
    assert!(warm_json.contains("marshal records"));
}
