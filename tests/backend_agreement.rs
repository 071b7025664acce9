//! Cross-backend functional agreement: every backend in the study — both
//! CPU engines, both GPU strategies, and the FPGA engine — must produce
//! bit-for-bit identical predictions to reference tree traversal, for any
//! model shape and any data. This is the core correctness property of the
//! reproduction: the backends differ only in *how long* the models say they
//! take, never in *what* they compute.

use proptest::prelude::*;

use mlscore::prelude::*;
use mlscore_backend::{compile, BackendError, OnnxCpu, SklearnCpu};
use mlscore_forest::ModelBundle;
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};

/// All backends that support arbitrary classification models.
fn universal_backends() -> Vec<Box<dyn ScoringBackend>> {
    vec![
        Box::new(SklearnCpu::with_threads(4)),
        Box::new(SklearnCpu::with_threads(1)),
        Box::new(OnnxCpu::single_thread()),
        Box::new(OnnxCpu::with_threads(4)),
        Box::new(HummingbirdGpu::p100()),
        Box::new(FpgaBackend::paper_default()),
    ]
}

fn arb_frame(n_features: usize) -> impl Strategy<Value = TabularFrame> {
    proptest::collection::vec(0.0f32..1.0, n_features..=n_features * 40).prop_map(move |mut v| {
        v.truncate(v.len() / n_features * n_features);
        TabularFrame::from_rows(v, n_features).expect("length is a multiple of n_features")
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_backends_agree_on_full_forests(
        n_trees in 1usize..12,
        depth in 0usize..8,
        n_features in 1usize..10,
        n_classes in 2u32..5,
        seed in any::<u64>(),
        frame in (2usize..8).prop_flat_map(arb_frame),
    ) {
        // Regenerate the frame at the forest's width.
        let cfg = ForestConfig::classification(n_trees, n_features, n_classes)
            .with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let rows = frame.n_rows().max(1);
        let data: Vec<f32> = (0..rows * n_features)
            .map(|i| frame.as_slice()[i % frame.as_slice().len().max(1)])
            .collect();
        let frame = TabularFrame::from_rows(data, n_features).unwrap();
        let reference = forest.predict_batch(frame.as_slice());
        for backend in universal_backends() {
            let preds = score_once(&backend, &forest, &frame).unwrap();
            prop_assert_eq!(
                &preds,
                &reference,
                "backend {} disagrees with reference",
                backend.name()
            );
        }
    }

    #[test]
    fn all_backends_agree_on_capped_forests(
        n_trees in 1usize..10,
        max_leaves in 1usize..200,
        n_features in 1usize..8,
        seed in any::<u64>(),
    ) {
        let cfg = ForestConfig::classification(n_trees, n_features, 3).with_depth(10);
        let forest = RandomForest::synthetic_capped(&cfg, max_leaves, seed);
        let data: Vec<f32> = (0..64 * n_features)
            .map(|i| ((i as f32 * 0.618) + seed as f32 * 1e-3) % 1.0)
            .collect();
        let frame = TabularFrame::from_rows(data, n_features).unwrap();
        let reference = forest.predict_batch(frame.as_slice());
        for backend in universal_backends() {
            let preds = score_once(&backend, &forest, &frame).unwrap();
            prop_assert_eq!(
                &preds,
                &reference,
                "backend {} disagrees with reference",
                backend.name()
            );
        }
    }

    #[test]
    fn rapids_agrees_on_binary_models(
        n_trees in 1usize..10,
        depth in 1usize..8,
        seed in any::<u64>(),
    ) {
        let cfg = ForestConfig::classification(n_trees, 6, 2).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let data: Vec<f32> = (0..50 * 6).map(|i| (i as f32 * 0.37) % 1.0).collect();
        let frame = TabularFrame::from_rows(data, 6).unwrap();
        let preds = score_once(&RapidsFil::p100(), &forest, &frame).unwrap();
        prop_assert_eq!(preds, forest.predict_batch(frame.as_slice()));
    }
}

#[test]
fn empty_batch_agreement() {
    let cfg = ForestConfig::classification(3, 4, 2).with_depth(4);
    let forest = RandomForest::synthetic_full(&cfg, 1);
    let frame = TabularFrame::from_rows(vec![], 4).unwrap();
    for backend in universal_backends() {
        let preds = score_once(&backend, &forest, &frame).unwrap();
        assert!(preds.is_empty(), "{}", backend.name());
    }
}

/// A frame narrower than the model is refused with the same error variant
/// on every backend, whether the model is lowered per call (`score_once`)
/// or bound from a compiled artifact.
#[test]
fn width_mismatch_is_one_artifact_error_on_every_route() {
    let cfg = ForestConfig::classification(3, 4, 2).with_depth(4);
    let forest = RandomForest::synthetic_full(&cfg, 1);
    let bundle = ModelBundle::serialize(&forest);
    let narrow = TabularFrame::from_rows(vec![0.5; 9], 3).unwrap();
    let backends: [Box<dyn ScoringBackend>; 5] = [
        Box::new(SklearnCpu::with_threads(2)),
        Box::new(OnnxCpu::single_thread()),
        Box::new(HummingbirdGpu::p100()),
        Box::new(RapidsFil::p100()),
        Box::new(FpgaBackend::paper_default()),
    ];
    for backend in &backends {
        let once = score_once(backend, &forest, &narrow).unwrap_err();
        let bound = compile(backend, &bundle)
            .unwrap()
            .bind(backend.name(), narrow.n_features())
            .unwrap_err();
        for (route, err) in [("score_once", once), ("bind", bound)] {
            assert!(
                matches!(err, BackendError::Artifact { .. }),
                "{} via {route}: {err:?}",
                backend.name()
            );
        }
    }
}

/// Hand-built stats with no trees (`ModelStats::of` never yields them, but
/// the fields are public): every backend answers `supports` and prices
/// `estimate` without panicking, and the FPGA engine, which plans one pass
/// per `pe_count` trees, refuses the model.
#[test]
fn zero_tree_stats_are_refused_by_fpga_and_priced_by_every_backend() {
    let stats = ModelStats {
        n_trees: 0,
        n_features: 4,
        n_classes: 2,
        max_depth: 0,
        total_nodes: 0,
        total_leaves: 0,
        mean_path_nodes: 0.0,
    };
    let backends: [Box<dyn ScoringBackend>; 5] = [
        Box::new(SklearnCpu::with_threads(2)),
        Box::new(OnnxCpu::single_thread()),
        Box::new(HummingbirdGpu::p100()),
        Box::new(RapidsFil::p100()),
        Box::new(FpgaBackend::paper_default()),
    ];
    for backend in &backends {
        let supported = backend.supports(&stats);
        if backend.name() == "FPGA" {
            assert!(
                matches!(supported, Err(BackendError::Unsupported { .. })),
                "{supported:?}"
            );
        }
        for tracer in [Tracer::disabled(), Tracer::new()] {
            let total = backend
                .estimate(&stats, 1_000, &tracer, SimInstant::ZERO)
                .total()
                .as_secs();
            assert!(
                total.is_finite() && total >= 0.0,
                "{}: {total}",
                backend.name()
            );
        }
    }
}
