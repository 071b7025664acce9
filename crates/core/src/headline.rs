//! The §IV headline numbers, computed from the models — the quantities
//! EXPERIMENTS.md compares against the paper.

use std::fmt;

use mlscore_data::DatasetSpec;

use crate::experiment::{crossover_records, SweepPoint};
use crate::figures::fig11;

/// A dense record sweep for locating crossover points between decades.
pub const DENSE_SWEEP: [u64; 17] = [
    1, 10, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000, 200_000, 500_000,
    700_000, 850_000, 1_000_000,
];

/// Every headline ratio from §IV, as computed by this reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct HeadlineReport {
    /// FPGA speedup over the best CPU, IRIS, 128 trees, 10 levels, 1M
    /// records (paper: 54x).
    pub iris_fpga_speedup: f64,
    /// Best-GPU speedup over the best CPU, same point (paper: 7.5x).
    pub iris_gpu_speedup: f64,
    /// FPGA speedup over the best CPU, HIGGS, 128 trees, 10 levels, 1M
    /// records (paper: 69.7x).
    pub higgs_fpga_speedup: f64,
    /// Best-GPU speedup over the best CPU, same point (paper: 16.5x).
    pub higgs_gpu_speedup: f64,
    /// FPGA speedup over the best CPU, IRIS, 1 tree, 6 levels, 1M records
    /// (paper: 2.9x).
    pub iris_small_fpga_speedup: f64,
    /// Best-GPU speedup over the best CPU, IRIS, 1 tree, 10 levels, 1M
    /// records (paper: 6.7x, GPU-HB).
    pub iris_small_gpu_speedup: f64,
    /// First record count where an accelerator beats the best CPU — IRIS,
    /// 1 tree, 10 levels (paper: ~10K).
    pub iris_crossover_1_tree: Option<u64>,
    /// Same for IRIS, 128 trees (paper: ~1K).
    pub iris_crossover_128_trees: Option<u64>,
    /// Same for HIGGS, 1 tree (paper: ~5K).
    pub higgs_crossover_1_tree: Option<u64>,
    /// Same for HIGGS, 128 trees (paper: ~500).
    pub higgs_crossover_128_trees: Option<u64>,
    /// First record count where GPU-RAPIDS beats GPU-HB — HIGGS, 128
    /// trees, 10 levels (paper: ~700K).
    pub rapids_beats_hb_at: Option<u64>,
    /// Latency penalty of wrongly offloading a tiny job (1 record, 1 tree,
    /// IRIS) to the FPGA (paper: ~10x).
    pub wrong_offload_penalty: f64,
    /// Throughput forfeited by wrongly staying on the CPU for the heavy job
    /// (HIGGS, 128 trees, 1M records) (paper: ~70x).
    pub wrong_stay_penalty: f64,
    /// End-to-end T-SQL query speedup from offloading scoring to the FPGA,
    /// HIGGS, 128 trees, 1M records, vs. a single-threaded CPU
    /// (paper: ~2.6x).
    pub query_speedup_higgs: f64,
}

impl HeadlineReport {
    /// Computes every headline quantity from the calibrated models.
    pub fn compute() -> Self {
        let accel_crossover = |dataset, trees| {
            // First batch size where the overall winner is not a CPU.
            DENSE_SWEEP.iter().copied().find(|&n| {
                !SweepPoint::evaluate(dataset, trees, 10, n)
                    .best()
                    .backend
                    .starts_with("CPU")
            })
        };
        let speedups = |dataset, trees: usize, depth: usize| {
            let p = SweepPoint::evaluate(dataset, trees, depth, 1_000_000);
            let cpu = p.best_cpu().total();
            let fpga = p
                .result("FPGA")
                .map(|r| cpu.ratio(r.total()))
                .unwrap_or(0.0);
            let gpu = p.best_gpu().map(|r| cpu.ratio(r.total())).unwrap_or(0.0);
            (fpga, gpu)
        };
        let (iris_fpga_speedup, iris_gpu_speedup) = speedups(DatasetSpec::Iris, 128, 10);
        let (higgs_fpga_speedup, higgs_gpu_speedup) = speedups(DatasetSpec::Higgs, 128, 10);
        let (iris_small_fpga_speedup, _) = speedups(DatasetSpec::Iris, 1, 6);
        let (_, iris_small_gpu_speedup) = speedups(DatasetSpec::Iris, 1, 10);

        // Wrong offload: tiny job forced onto the FPGA.
        let tiny = SweepPoint::evaluate(DatasetSpec::Iris, 1, 10, 1);
        let wrong_offload_penalty = tiny
            .result("FPGA")
            .expect("FPGA present")
            .total()
            .ratio(tiny.best_cpu().total());

        // Wrong stay: heavy job kept on the CPU (throughput factor = time
        // factor at fixed records).
        let heavy = SweepPoint::evaluate(DatasetSpec::Higgs, 128, 10, 1_000_000);
        let wrong_stay_penalty = heavy.best_cpu().total().ratio(heavy.best().total());

        let fig11_rows = fig11(DatasetSpec::Higgs, 128, 10, 1_000_000);
        let cpu_total = fig11_rows[0].breakdown.total();
        let fpga_total = fig11_rows
            .last()
            .expect("fig11 includes the FPGA row")
            .breakdown
            .total();

        Self {
            iris_fpga_speedup,
            iris_gpu_speedup,
            higgs_fpga_speedup,
            higgs_gpu_speedup,
            iris_small_fpga_speedup,
            iris_small_gpu_speedup,
            iris_crossover_1_tree: accel_crossover(DatasetSpec::Iris, 1),
            iris_crossover_128_trees: accel_crossover(DatasetSpec::Iris, 128),
            higgs_crossover_1_tree: accel_crossover(DatasetSpec::Higgs, 1),
            higgs_crossover_128_trees: accel_crossover(DatasetSpec::Higgs, 128),
            rapids_beats_hb_at: crossover_records(
                DatasetSpec::Higgs,
                128,
                10,
                "GPU-HB",
                "GPU-RAPIDS",
                &DENSE_SWEEP,
            ),
            wrong_offload_penalty,
            wrong_stay_penalty,
            query_speedup_higgs: cpu_total.ratio(fpga_total),
        }
    }
}

impl fmt::Display for HeadlineReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn x(v: Option<u64>) -> String {
            v.map(|n| n.to_string()).unwrap_or_else(|| "never".into())
        }
        writeln!(f, "headline ratios (paper -> measured):")?;
        writeln!(
            f,
            "  IRIS  128t/10l/1M : FPGA 54x    -> {:6.1}x   GPU 7.5x  -> {:6.1}x",
            self.iris_fpga_speedup, self.iris_gpu_speedup
        )?;
        writeln!(
            f,
            "  HIGGS 128t/10l/1M : FPGA 69.7x  -> {:6.1}x   GPU 16.5x -> {:6.1}x",
            self.higgs_fpga_speedup, self.higgs_gpu_speedup
        )?;
        writeln!(
            f,
            "  IRIS  1t/6l/1M    : FPGA 2.9x   -> {:6.1}x",
            self.iris_small_fpga_speedup
        )?;
        writeln!(
            f,
            "  IRIS  1t/10l/1M   : GPU  6.7x   -> {:6.1}x",
            self.iris_small_gpu_speedup
        )?;
        writeln!(
            f,
            "  crossovers (records): IRIS 1t ~10K -> {}, IRIS 128t ~1K -> {}, HIGGS 1t ~5K -> {}, HIGGS 128t ~500 -> {}",
            x(self.iris_crossover_1_tree),
            x(self.iris_crossover_128_trees),
            x(self.higgs_crossover_1_tree),
            x(self.higgs_crossover_128_trees)
        )?;
        writeln!(
            f,
            "  RAPIDS beats HB past ~700K -> {}",
            x(self.rapids_beats_hb_at)
        )?;
        writeln!(
            f,
            "  wrong offload ~10x -> {:.1}x    wrong stay ~70x -> {:.1}x",
            self.wrong_offload_penalty, self.wrong_stay_penalty
        )?;
        write!(
            f,
            "  end-to-end query speedup (HIGGS 1M) ~2.6x -> {:.1}x",
            self.query_speedup_higgs
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_computes_and_displays() {
        let r = HeadlineReport::compute();
        let s = format!("{r}");
        assert!(s.contains("headline ratios"));
        assert!(r.higgs_fpga_speedup > 1.0);
    }
}
