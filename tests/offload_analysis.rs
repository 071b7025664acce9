//! Integration of the Fig. 6 offload decomposition and LogCA with the real
//! backends: the analytic models must tell the same story as the full cost
//! models they summarize.

use mlscore::prelude::*;
use mlscore_backend::OnnxCpu;
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};
use mlscore_offload::{LogCa, OffloadCosts, OffloadSummary};

fn heavy_stats() -> ModelStats {
    ModelStats::of(&RandomForest::synthetic_full(
        &ForestConfig::classification(128, 28, 2).with_depth(10),
        3,
    ))
}

#[test]
fn every_accelerator_decomposes_into_o_l_c() {
    let stats = heavy_stats();
    let accelerators: Vec<Box<dyn ScoringBackend>> = vec![
        Box::new(FpgaBackend::paper_default()),
        Box::new(HummingbirdGpu::p100()),
        Box::new(RapidsFil::p100()),
    ];
    for accel in accelerators {
        let b = accel.estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO);
        let costs = OffloadCosts::from_breakdown(&b);
        // Compute dominates at 1M records for every accelerator.
        assert!(
            costs.compute > costs.overhead,
            "{}: compute should exceed overhead at 1M records",
            accel.name()
        );
        // O + L + C_A accounts for the entire offload-level breakdown
        // (up to float summation order).
        let accounted =
            (costs.total() + b.total_class(mlscore_sim::StageClass::Pipeline)).as_secs();
        let total = b.total().as_secs();
        assert!(
            (accounted - total).abs() <= 1e-12 * total.max(1e-30),
            "{}: O+L+C+pipeline {accounted} != total {total}",
            accel.name()
        );
    }
}

#[test]
fn kernel_speedup_always_exceeds_end_to_end_speedup() {
    // The paper's core critique of prior work, asserted over a grid.
    let stats = heavy_stats();
    let cpu = OnnxCpu::paper_52th();
    let fpga = FpgaBackend::paper_default();
    for n in [1_000u64, 100_000, 1_000_000] {
        let host = cpu
            .estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        let summary = OffloadSummary::new(
            host,
            &fpga.estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO),
        );
        assert!(
            summary.kernel_speedup() >= summary.speedup(),
            "at {n} records: kernel {} < end-to-end {}",
            summary.kernel_speedup(),
            summary.speedup()
        );
    }
}

#[test]
fn logca_break_even_brackets_the_measured_crossover() {
    // Fit LogCA from the FPGA's own cost structure at 1M records and check
    // its predicted break-even against a direct scan of the cost models.
    let stats = heavy_stats();
    let cpu = OnnxCpu::paper_52th();
    let fpga = FpgaBackend::paper_default();
    let n_ref = 1_000_000u64;
    let host = cpu
        .estimate(&stats, n_ref, &Tracer::disabled(), SimInstant::ZERO)
        .total();
    let breakdown = fpga.estimate(&stats, n_ref, &Tracer::disabled(), SimInstant::ZERO);
    let costs = OffloadCosts::from_breakdown(&breakdown);

    let model = LogCa::new(
        costs.overhead
            + fpga
                .estimate(&stats, 1, &Tracer::disabled(), SimInstant::ZERO)
                .total_class_transfer(),
        (costs.transfer
            - fpga
                .estimate(&stats, 1, &Tracer::disabled(), SimInstant::ZERO)
                .total_class_transfer())
            / n_ref as f64,
        host / n_ref as f64,
        host.ratio(costs.compute),
    );
    let g1 = model.break_even().expect("offload is worth it at scale");

    // Direct scan of the real models.
    let mut measured = None;
    for exp in 0..21 {
        let n = 1u64 << exp;
        if fpga
            .estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
            .total()
            < cpu
                .estimate(&stats, n, &Tracer::disabled(), SimInstant::ZERO)
                .total()
        {
            measured = Some(n);
            break;
        }
    }
    let measured = measured.expect("crossover exists") as f64;
    assert!(
        g1 / measured < 30.0 && measured / g1 < 30.0,
        "LogCA break-even {g1} vs measured {measured}"
    );
}

/// Helper: transfer-class total of a breakdown (extension trait style,
/// local to the test).
trait TransferTotal {
    fn total_class_transfer(&self) -> SimDuration;
}

impl TransferTotal for TimingBreakdown {
    fn total_class_transfer(&self) -> SimDuration {
        self.total_class(mlscore_sim::StageClass::Transfer)
    }
}

#[test]
fn offload_summaries_flip_with_batch_size() {
    // One record: bad offload. One million: great offload. The same model.
    let stats = heavy_stats();
    let cpu = OnnxCpu::paper_52th();
    let fpga = FpgaBackend::paper_default();
    let tiny = OffloadSummary::new(
        cpu.estimate(&stats, 1, &Tracer::disabled(), SimInstant::ZERO)
            .total(),
        &fpga.estimate(&stats, 1, &Tracer::disabled(), SimInstant::ZERO),
    );
    let huge = OffloadSummary::new(
        cpu.estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
            .total(),
        &fpga.estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO),
    );
    assert!(!tiny.beneficial());
    assert!(tiny.mispick_penalty() > 1.0);
    assert!(huge.beneficial());
    assert!(huge.speedup() > 30.0);
}
