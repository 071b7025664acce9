//! Ablation A2: BRAM-resident vs DDR-backed tree memories. The paper's
//! design keeps everything on chip ("we only used the on-chip BRAM and thus
//! avoided the high cost of cache misses"); this ablation quantifies what
//! that choice buys by re-running the engine with a DDR initiation
//! interval.

use criterion::{criterion_group, Criterion};
use mlscore_backend::ScoringBackend;
use mlscore_data::DatasetSpec;
use mlscore_forest::ModelStats;
use mlscore_fpga::{EngineConfig, FpgaBackend, FpgaDevice, MemoryBackend};
use mlscore_sim::SimInstant;
use mlscore_telemetry::Tracer;

fn backend(memory: MemoryBackend) -> FpgaBackend {
    FpgaBackend::with_config(
        FpgaDevice::stratix10_gx2800(),
        EngineConfig {
            memory,
            ..EngineConfig::default()
        },
    )
}

fn print_ablation() {
    println!("\n--- Ablation A2: BRAM vs DDR tree memories ---");
    println!(
        "{:<8} {:>12} {:>12} {:>12}",
        "memory", "IRIS 128t", "HIGGS 128t", "HIGGS 1t"
    );
    for (name, mem) in [("BRAM", MemoryBackend::Bram), ("DDR", MemoryBackend::Ddr)] {
        let b = backend(mem);
        let cell = |ds, trees| {
            let stats = ModelStats::of(&mlscore_core::calibration::paper_model(ds, trees, 10));
            b.estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
                .total()
                .to_string()
        };
        println!(
            "{:<8} {:>12} {:>12} {:>12}",
            name,
            cell(DatasetSpec::Iris, 128),
            cell(DatasetSpec::Higgs, 128),
            cell(DatasetSpec::Higgs, 1),
        );
    }
}

fn print_quantized_capacity() {
    use mlscore_forest::{FlatForest, ForestConfig, QuantScheme, QuantizedForest, RandomForest};
    println!("\n    quantized (16-bit) layout vs the Fig. 4b f32 layout:");
    let forest =
        RandomForest::synthetic_full(&ForestConfig::classification(128, 28, 2).with_depth(10), 3);
    let flat = FlatForest::from_forest(&forest, 10).unwrap();
    let quant = QuantizedForest::from_forest(&forest, QuantScheme::unit(28)).unwrap();
    let data = mlscore_data::Dataset::higgs(2_000, 9).normalized();
    let rate = quant.mismatch_rate(&forest, data.frame().as_slice());
    println!(
        "      f32 image {} KiB (padded), quantized {} KiB (live), mismatch rate {:.4}%",
        flat.footprint_bytes() / 1024,
        quant.footprint_bytes() / 1024,
        rate * 100.0
    );
    println!("      -> the same 28.6 MB BRAM holds ~2x the trees (or one more tree level)");
}

fn bench(c: &mut Criterion) {
    let stats = ModelStats::of(&mlscore_core::calibration::paper_model(
        DatasetSpec::Iris,
        128,
        10,
    ));
    let mut g = c.benchmark_group("ablation_fpga_mem");
    for (name, mem) in [("bram", MemoryBackend::Bram), ("ddr", MemoryBackend::Ddr)] {
        let b_ = backend(mem);
        g.bench_function(name, |b| {
            b.iter(|| {
                b_.estimate(
                    std::hint::black_box(&stats),
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
    print_quantized_capacity();
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
