//! End-to-end query pipeline integration: train a model on synthetic data,
//! store it as a bundle, run the full T-SQL-style pipeline over every
//! backend, and check both functional results and breakdown structure.

use mlscore::prelude::*;
use mlscore_backend::{OnnxCpu, SklearnCpu};
use mlscore_forest::{metrics::accuracy, ForestBuilder, ModelBundle, TrainOptions};
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};
use mlscore_pipeline::{PipelineError, QueryPipeline, QueryRun, Records};

/// Runs one untraced staged query on a fresh pipeline over `backend`.
fn query<B: ScoringBackend>(
    backend: B,
    bundle: &ModelBundle,
    frame: &TabularFrame,
) -> Result<QueryRun, PipelineError> {
    let untraced = Tracer::disabled();
    QueryPipeline::new(backend).execute(bundle, Records::Staged(frame), &untraced, SimInstant::ZERO)
}

/// Trains a small classifier on IRIS-like data and returns (bundle, test
/// set, expected accuracy floor already verified).
fn trained_iris() -> (ModelBundle, Dataset) {
    let data = Dataset::iris(600, 42);
    let (train, test) = mlscore_data::train_test_split(&data, 0.8, 7).unwrap();
    let forest = ForestBuilder::new(
        20,
        TrainOptions {
            max_depth: 8,
            seed: 3,
        },
    )
    .train_classifier(
        train.frame().as_slice(),
        train.frame().n_features(),
        train.labels(),
        train.n_classes(),
    )
    .unwrap();
    // The model must actually have learned the task.
    let preds = forest.predict_batch(test.frame().as_slice());
    let acc = accuracy(&preds, test.labels());
    assert!(acc > 0.85, "trained IRIS accuracy {acc}");
    (ModelBundle::serialize(&forest), test)
}

#[test]
fn trained_model_flows_through_every_backend() {
    let (bundle, test) = trained_iris();
    let reference = query(SklearnCpu::with_threads(1), &bundle, test.frame())
        .unwrap()
        .predictions;
    let backends: Vec<Box<dyn ScoringBackend>> = vec![
        Box::new(SklearnCpu::with_threads(4)),
        Box::new(OnnxCpu::single_thread()),
        Box::new(HummingbirdGpu::p100()),
        Box::new(FpgaBackend::paper_default()),
    ];
    for backend in backends {
        let name = backend.name().to_string();
        let run = query(backend, &bundle, test.frame()).unwrap();
        assert_eq!(run.predictions, reference, "{name}");
        // Every Fig. 11 stage must be present.
        for stage in Stage::query_breakdown_order() {
            assert!(
                !run.breakdown.get(stage).is_zero(),
                "{name}: missing {stage}"
            );
        }
    }
}

#[test]
fn rapids_pipeline_rejects_multiclass_model() {
    let (bundle, test) = trained_iris(); // 3 classes
    let err = query(RapidsFil::p100(), &bundle, test.frame()).unwrap_err();
    assert!(matches!(err, PipelineError::Backend(_)));
}

#[test]
fn trained_higgs_binary_model_works_on_rapids() {
    let data = Dataset::higgs(1_500, 5);
    let (train, test) = mlscore_data::train_test_split(&data, 0.8, 9).unwrap();
    let forest = ForestBuilder::new(
        10,
        TrainOptions {
            max_depth: 6,
            seed: 11,
        },
    )
    .train_classifier(train.frame().as_slice(), 28, train.labels(), 2)
    .unwrap();
    let preds = forest.predict_batch(test.frame().as_slice());
    let acc = accuracy(&preds, test.labels());
    // Synthetic HIGGS is noisy by construction; the model must still beat
    // the majority-class baseline.
    let majority = {
        let ones = test.labels().iter().filter(|&&c| c == 1).count();
        (ones.max(test.labels().len() - ones)) as f64 / test.labels().len() as f64
    };
    assert!(
        acc > majority + 0.02,
        "accuracy {acc} vs majority {majority}"
    );

    let bundle = ModelBundle::serialize(&forest);
    let run = query(RapidsFil::p100(), &bundle, test.frame()).unwrap();
    assert_eq!(run.predictions, preds);
}

#[test]
fn scoring_breakdown_is_a_component_of_the_query_breakdown() {
    let (bundle, test) = trained_iris();
    let run = query(FpgaBackend::paper_default(), &bundle, test.frame()).unwrap();
    assert_eq!(
        run.breakdown.get(Stage::Scoring),
        run.scoring_breakdown.total(),
        "query scoring stage must equal the backend's total"
    );
    assert!(run.total() > run.scoring_breakdown.total());
}

#[test]
fn deep_model_is_rejected_by_fpga_but_accepted_by_cpu() {
    let cfg = ForestConfig::classification(4, 4, 3).with_depth(12);
    let forest = RandomForest::synthetic_full(&cfg, 8);
    let bundle = ModelBundle::serialize(&forest);
    let data = Dataset::iris(50, 2).normalized();
    assert!(query(FpgaBackend::paper_default(), &bundle, data.frame()).is_err());
    assert!(query(SklearnCpu::with_threads(2), &bundle, data.frame()).is_ok());
}

#[test]
fn bundle_survives_storage_roundtrip_through_pipeline() {
    // Simulate "model stored in a database table": raw bytes out, raw bytes
    // back in, then scored.
    let (bundle, test) = trained_iris();
    let stored: Vec<u8> = bundle.as_bytes().to_vec();
    let restored = ModelBundle::from_bytes(stored);
    let a = query(OnnxCpu::single_thread(), &bundle, test.frame()).unwrap();
    let b = query(OnnxCpu::single_thread(), &restored, test.frame()).unwrap();
    assert_eq!(a.predictions, b.predictions);
}
