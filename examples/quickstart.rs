//! Quickstart: build a model, score a batch on the CPU and on the FPGA
//! model, and compare the modelled scoring times.
//!
//! ```text
//! cargo run --example quickstart
//! ```

use mlscore::prelude::*;
use mlscore_backend::SklearnCpu;
use mlscore_fpga::FpgaBackend;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's heavyweight configuration: 128 trees, 10 levels, on
    // HIGGS-shaped data (28 features, binary labels).
    let forest =
        RandomForest::synthetic_full(&ForestConfig::classification(128, 28, 2).with_depth(10), 42);
    let data = Dataset::higgs(10_000, 7).normalized();

    let cpu = SklearnCpu::paper_default();
    let fpga = FpgaBackend::paper_default();

    // Functional scoring: both backends compute real predictions, and they
    // agree exactly.
    let cpu_preds = score_once(&cpu, &forest, data.frame())?;
    let fpga_preds = score_once(&fpga, &forest, data.frame())?;
    assert_eq!(cpu_preds, fpga_preds);
    println!(
        "scored {} records; first ten classes: {:?}",
        cpu_preds.len(),
        &cpu_preds[..10]
    );

    // Modelled timing: where does the time go on each backend?
    let stats = ModelStats::of(&forest);
    for n_records in [100u64, 10_000, 1_000_000] {
        let cpu_t = cpu
            .estimate(&stats, n_records, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        let fpga_b = fpga.estimate(&stats, n_records, &Tracer::disabled(), SimInstant::ZERO);
        let fpga_t = fpga_b.total();
        let verdict = if fpga_t < cpu_t {
            "offload"
        } else {
            "stay on CPU"
        };
        println!("{n_records:>9} records: CPU {cpu_t:>12}  FPGA {fpga_t:>12}  -> {verdict}");
    }

    println!("\nFPGA breakdown at 1M records (the Fig. 7b decomposition):");
    println!(
        "{}",
        fpga.estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
    );
    Ok(())
}
