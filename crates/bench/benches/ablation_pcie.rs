//! Ablation A1: how the PCIe generation moves the FPGA's costs and the
//! offload crossover. The paper (§IV-E) flags link bandwidth as an
//! intrinsic hardware limit; gen4/gen5 relax the record-streaming bound
//! that caps HIGGS scoring at one record per link-delivered row.

use criterion::{criterion_group, Criterion};
use mlscore_backend::{OnnxCpu, ScoringBackend};
use mlscore_data::DatasetSpec;
use mlscore_forest::ModelStats;
use mlscore_fpga::{EngineConfig, FpgaBackend, FpgaDevice};
use mlscore_offload::PcieLink;
use mlscore_sim::SimInstant;
use mlscore_telemetry::Tracer;

fn backend_with_link(link: PcieLink) -> FpgaBackend {
    let device = FpgaDevice {
        link,
        ..FpgaDevice::stratix10_gx2800()
    };
    FpgaBackend::with_config(device, EngineConfig::default())
}

fn print_ablation() {
    println!("\n--- Ablation A1: PCIe generation sweep (HIGGS, 128 trees, depth 10) ---");
    let stats = ModelStats::of(&mlscore_core::calibration::paper_model(
        DatasetSpec::Higgs,
        128,
        10,
    ));
    let cpu = OnnxCpu::paper_52th();
    println!(
        "{:<10} {:>14} {:>14} {:>18}",
        "link", "FPGA @1M", "speedup vs CPU", "crossover (records)"
    );
    for (name, link) in [
        ("gen3 x16", PcieLink::gen3_x16()),
        ("gen4 x16", PcieLink::gen4_x16()),
        ("gen5 x16", PcieLink::gen5_x16()),
    ] {
        let fpga = backend_with_link(link);
        let t = fpga
            .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        let cpu_t = cpu
            .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        let crossover = mlscore_core::headline::DENSE_SWEEP
            .iter()
            .copied()
            .find(|&n| {
                fpga.estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
                    .total()
                    < cpu
                        .estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
                        .total()
            });
        println!(
            "{:<10} {:>14} {:>13.1}x {:>18}",
            name,
            t.to_string(),
            cpu_t.ratio(t),
            crossover
                .map(|n| n.to_string())
                .unwrap_or_else(|| "never".into())
        );
    }
}

fn bench(c: &mut Criterion) {
    let stats = ModelStats::of(&mlscore_core::calibration::paper_model(
        DatasetSpec::Higgs,
        128,
        10,
    ));
    let mut g = c.benchmark_group("ablation_pcie");
    for (name, link) in [
        ("gen3", PcieLink::gen3_x16()),
        ("gen4", PcieLink::gen4_x16()),
        ("gen5", PcieLink::gen5_x16()),
    ] {
        let backend = backend_with_link(link);
        g.bench_function(name, |b| {
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
