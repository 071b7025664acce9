//! Fig. 7: FPGA scoring-time breakdown regeneration (panels a and b), plus
//! the per-estimate cost of the FPGA timing model.

use criterion::{criterion_group, Criterion};
use mlscore_backend::ScoringBackend;
use mlscore_core::{figures, report};
use mlscore_data::DatasetSpec;
use mlscore_forest::ModelStats;
use mlscore_fpga::FpgaBackend;
use mlscore_sim::SimInstant;
use mlscore_telemetry::Tracer;

fn print_figure() {
    println!("\n--- Fig. 7a (1 record) ---");
    println!("{}", report::render_fig7(&figures::fig7a()));
    println!("--- Fig. 7b (1M records) ---");
    println!("{}", report::render_fig7(&figures::fig7b()));
}

fn bench(c: &mut Criterion) {
    let backend = FpgaBackend::paper_default();
    let stats = ModelStats::of(&mlscore_core::calibration::paper_model(
        DatasetSpec::Higgs,
        128,
        10,
    ));
    c.bench_function("fig7/panel_a", |b| b.iter(figures::fig7a));
    c.bench_function("fig7/panel_b", |b| b.iter(figures::fig7b));
    c.bench_function("fig7/single_estimate", |b| {
        b.iter(|| {
            backend.estimate(
                std::hint::black_box(&stats),
                1_000_000,
                &Tracer::disabled(),
                SimInstant::ZERO,
            )
        })
    });
}

criterion_group!(benches, bench);

fn main() {
    print_figure();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
