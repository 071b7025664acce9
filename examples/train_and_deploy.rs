//! Train a random forest on synthetic HIGGS data, store it as a binary
//! model bundle (as the DBMS would), then run the full T-SQL-style query
//! pipeline over every hardware backend and compare end-to-end breakdowns.
//!
//! ```text
//! cargo run --release --example train_and_deploy
//! ```

use mlscore::prelude::*;
use mlscore_backend::{OnnxCpu, SklearnCpu};
use mlscore_data::train_test_split;
use mlscore_forest::{metrics::accuracy, ForestBuilder, ModelBundle, TrainOptions};
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};
use mlscore_pipeline::{QueryPipeline, QueryPlan, Records};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Training: a real CART forest on synthetic HIGGS (binary task).
    let data = Dataset::higgs(4_000, 11);
    let (train, test) = train_test_split(&data, 0.8, 3)?;
    let forest = ForestBuilder::new(
        32,
        TrainOptions {
            max_depth: 10,
            seed: 5,
        },
    )
    .train_classifier(
        train.frame().as_slice(),
        train.frame().n_features(),
        train.labels(),
        train.n_classes(),
    )?;
    let preds = forest.predict_batch(test.frame().as_slice());
    println!(
        "trained {} trees (max depth {}, {} nodes); test accuracy {:.3}",
        forest.n_trees(),
        forest.max_depth(),
        forest.n_nodes(),
        accuracy(&preds, test.labels()),
    );

    // 2. Storage: serialize to the binary bundle a model table would hold.
    let bundle = ModelBundle::serialize(&forest);
    println!("model bundle: {} bytes\n", bundle.len());

    // 3. Deployment: run the query pipeline on every backend.
    let backends: Vec<Box<dyn ScoringBackend>> = vec![
        Box::new(SklearnCpu::paper_default()),
        Box::new(OnnxCpu::single_thread()),
        Box::new(HummingbirdGpu::p100()),
        Box::new(RapidsFil::p100()),
        Box::new(FpgaBackend::paper_default()),
    ];
    for backend in backends {
        let name = backend.name().to_string();
        let pipeline = QueryPipeline::new(backend);
        let records = Records::Staged(test.frame());
        let run = pipeline.execute(&bundle, records, &Tracer::disabled(), SimInstant::ZERO)?;
        println!(
            "{name:<18} end-to-end {:>12} (scoring {:>12})",
            run.total().to_string(),
            run.scoring_breakdown.total().to_string(),
        );
    }

    // 4. The Fig. 11 story at scale: estimate the same query at 1M records.
    println!("\nend-to-end breakdown at 1M records, FPGA-offloaded scoring:");
    let stats = ModelStats::of(&forest);
    let pipeline = QueryPipeline::new(FpgaBackend::paper_default());
    let cold = QueryPlan::Staged { warm: false };
    println!(
        "{}",
        pipeline.estimate(
            cold,
            &stats,
            bundle.len() as u64,
            1_000_000,
            &Tracer::disabled(),
            SimInstant::ZERO
        )
    );
    Ok(())
}
