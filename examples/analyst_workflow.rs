//! An end-to-end analyst workflow: export data to CSV, re-import it, train
//! with feature importances, let the adaptive scheduler learn where to run
//! the scoring, and estimate how much host capacity offloading frees up
//! under concurrent queries.
//!
//! ```text
//! cargo run --release --example analyst_workflow
//! ```

use mlscore::prelude::*;
use mlscore_backend::SklearnCpu;
use mlscore_data::csv;
use mlscore_forest::{ForestBuilder, ModelBundle, TrainOptions};
use mlscore_fpga::FpgaBackend;
use mlscore_pipeline::{consolidate, HostResources, IntegrationMode, PipelineParams};
use mlscore_sched::{paper_backends, replay, AdaptiveScheduler, Policy, QueryTrace, TraceQuery};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Round-trip the dataset through CSV, as an analyst would stage it.
    let original = Dataset::higgs(3_000, 21);
    let mut staged = Vec::new();
    csv::write_dataset(&original, &mut staged)?;
    let data = csv::read_dataset(staged.as_slice(), true, "HIGGS")?;
    println!(
        "staged {} rows x {} features through CSV ({} bytes)",
        data.frame().n_rows(),
        data.frame().n_features(),
        staged.len()
    );

    // 2. Train with importances.
    let trained = ForestBuilder::new(
        24,
        TrainOptions {
            max_depth: 10,
            seed: 9,
        },
    )
    .train_classifier_detailed(
        data.frame().as_slice(),
        data.frame().n_features(),
        data.labels(),
        data.n_classes(),
    )?;
    let top: Vec<usize> = trained.ranked_features().into_iter().take(5).collect();
    println!("top-5 features by importance: {top:?}");

    // 3. Let the adaptive scheduler learn the best backend from observed
    //    runs (observations come from the calibrated cost models).
    let stats = ModelStats::of(&trained.forest);
    let backends = paper_backends();
    let mut scheduler = AdaptiveScheduler::new(0.4);
    let query = QueryTrace::new(vec![TraceQuery {
        stats,
        n_records: 1_000_000,
    }]);
    for round in 1..=8 {
        let run = replay(&mut scheduler, &query, &backends);
        let ran_on = run.picks.keys().next().expect("one query, one pick");
        println!("  round {round}: ran on {ran_on} ({})", run.total);
    }
    let settled = scheduler.choose(&stats, 1_000_000, &backends).unwrap();
    println!("scheduler settled on {}", settled.name);

    // 4. Consolidation: 16 concurrent 1M-record queries — what does the
    //    accelerator free up, under loose and tight DBMS integration?
    let bundle = ModelBundle::serialize(&trained.forest);
    for (label, params) in [
        ("external-process", PipelineParams::default()),
        ("in-engine", IntegrationMode::InEngine.params()),
    ] {
        let report = consolidate(
            &HostResources::default(),
            &params,
            &SklearnCpu::paper_default(),
            &FpgaBackend::paper_default(),
            &stats,
            bundle.len() as u64,
            1_000_000,
            16,
        );
        println!(
            "16 queries, {label:>16}: host-only {} -> offloaded {} ({:.1}x, {:.0} core-seconds freed)",
            report.host_only,
            report.offloaded,
            report.speedup(),
            report.core_seconds_freed
        );
    }
    Ok(())
}
