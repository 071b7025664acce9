//! Trace one simulated scoring query end to end: record spans across the
//! pipeline and the FPGA offload path, reconstruct the Fig. 11 breakdown
//! from the spans, and export Perfetto JSON plus folded flamegraph stacks.
//!
//! ```text
//! cargo run --example trace_query
//! ```

use mlscore::prelude::*;
use mlscore_forest::ModelBundle;
use mlscore_fpga::FpgaBackend;
use mlscore_pipeline::{QueryPipeline, QueryPlan};
use mlscore_telemetry::{folded, perfetto};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's heavyweight point: HIGGS, 128 trees, 10 levels, 1M rows.
    let forest =
        RandomForest::synthetic_full(&ForestConfig::classification(128, 28, 2).with_depth(10), 42);
    let stats = ModelStats::of(&forest);
    let bundle = ModelBundle::serialize(&forest);

    let pipeline = QueryPipeline::new(FpgaBackend::paper_default());
    let tracer = Tracer::new();
    let breakdown = pipeline.estimate(
        QueryPlan::Staged { warm: false },
        &stats,
        bundle.len() as u64,
        1_000_000,
        &tracer,
        SimInstant::ZERO,
    );
    let trace = tracer.take();

    println!("recorded {} spans:", trace.len());
    for ev in trace.events() {
        println!(
            "  [{:<7}] {:<24} {:>16} +{:<14} on {}/{}",
            ev.scope.to_string(),
            ev.name,
            ev.start.to_string(),
            ev.dur.to_string(),
            ev.track.process,
            ev.track.lane,
        );
    }

    // The span fold reproduces the directly computed breakdown exactly —
    // same stages, same order, same f64 sums.
    assert_eq!(trace.breakdown(Scope::Query), breakdown);
    println!("\nFig. 11 breakdown, reconstructed from Query spans:");
    println!("{breakdown}");

    let path = std::env::temp_dir().join("mlscore_trace.json");
    std::fs::write(&path, perfetto::to_json(&trace))?;
    println!(
        "Perfetto trace written to {} — load it at ui.perfetto.dev",
        path.display()
    );

    println!("\nFolded stacks (pipe into a flamegraph renderer):");
    print!("{}", folded::to_folded(&trace));
    Ok(())
}
