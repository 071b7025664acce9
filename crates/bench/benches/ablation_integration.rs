//! Ablation A7: DBMS↔ML integration tightness (§IV-E). How much of the
//! end-to-end query time is the *pipeline's own* software overhead, and
//! what a tighter integration (resident runtime, in-engine scoring) buys
//! once the scoring stage itself has been accelerated.

use criterion::{criterion_group, Criterion};
use mlscore_data::DatasetSpec;
use mlscore_forest::{ModelBundle, ModelStats};
use mlscore_fpga::FpgaBackend;
use mlscore_pipeline::{IntegrationMode, QueryPipeline, QueryPlan};
use mlscore_sim::SimInstant;
use mlscore_telemetry::Tracer;

fn print_ablation() {
    println!(
        "\n--- Ablation A7: integration modes (HIGGS, 128 trees, 1M records, FPGA scoring) ---"
    );
    let model = mlscore_core::calibration::paper_model(DatasetSpec::Higgs, 128, 10);
    let stats = ModelStats::of(&model);
    let model_bytes = ModelBundle::serialize(&model).len() as u64;
    println!(
        "{:<18} {:>14} {:>18} {:>24}",
        "mode", "query total", "scoring fraction", "speedup vs external"
    );
    let mut baseline = None;
    for mode in IntegrationMode::all() {
        let pipeline = QueryPipeline::with_params(FpgaBackend::paper_default(), mode.params());
        let b = pipeline.estimate(
            QueryPlan::Staged { warm: false },
            &stats,
            model_bytes,
            1_000_000,
            &Tracer::disabled(),
            SimInstant::ZERO,
        );
        let total = b.total();
        let baseline_total = *baseline.get_or_insert(total);
        println!(
            "{:<18} {:>14} {:>17.1}% {:>23.1}x",
            mode.name(),
            total.to_string(),
            b.fraction(mlscore_sim::Stage::Scoring) * 100.0,
            baseline_total.ratio(total)
        );
    }
}

fn bench(c: &mut Criterion) {
    let model = mlscore_core::calibration::paper_model(DatasetSpec::Higgs, 128, 10);
    let stats = ModelStats::of(&model);
    let model_bytes = ModelBundle::serialize(&model).len() as u64;
    let mut g = c.benchmark_group("ablation_integration");
    for mode in IntegrationMode::all() {
        let pipeline = QueryPipeline::with_params(FpgaBackend::paper_default(), mode.params());
        g.bench_function(mode.name(), |b| {
            b.iter(|| {
                pipeline.estimate(
                    QueryPlan::Staged { warm: false },
                    std::hint::black_box(&stats),
                    model_bytes,
                    1_000_000,
                    &Tracer::disabled(),
                    SimInstant::ZERO,
                )
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    print_ablation();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
