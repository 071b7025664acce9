//! The Fig. 1 / Fig. 8 "shmoo" grids: best backend per (trees × records)
//! cell, with the best speedup over the CPU.

use mlscore_data::DatasetSpec;

use crate::calibration::{RECORD_SWEEP, TREE_SWEEP};
use crate::experiment::SweepPoint;

/// One shmoo cell.
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooCell {
    /// Winning backend's figure-legend name.
    pub winner: String,
    /// Best achievable speedup over the best CPU backend (1.0 when the CPU
    /// wins the cell).
    pub speedup: f64,
}

impl ShmooCell {
    /// Coarse backend family of the winner: `"CPU"`, `"GPU"`, or `"FPGA"` —
    /// what Fig. 1 prints in each cell.
    pub fn family(&self) -> &str {
        if self.winner.starts_with("CPU") {
            "CPU"
        } else if self.winner.starts_with("GPU") {
            "GPU"
        } else {
            "FPGA"
        }
    }
}

/// A full shmoo grid for one dataset (Fig. 8 left or right panel).
#[derive(Debug, Clone, PartialEq)]
pub struct ShmooTable {
    /// Dataset family.
    pub dataset: DatasetSpec,
    /// Tree depth used throughout (10 in Fig. 8).
    pub depth: usize,
    /// Column axis: tree counts.
    pub tree_counts: Vec<usize>,
    /// Row axis: record counts.
    pub record_counts: Vec<u64>,
    /// `cells[row][col]` for `record_counts[row]` × `tree_counts[col]`.
    pub cells: Vec<Vec<ShmooCell>>,
    /// The bottom "1M, GPU" row: best-GPU speedup over the CPU at 1M
    /// records per tree count (absent entries mean no GPU supports the
    /// model).
    pub gpu_row: Vec<Option<f64>>,
}

impl ShmooTable {
    /// Builds the Fig. 8 grid for `dataset` at depth 10 over the paper's
    /// sweeps.
    pub fn paper_grid(dataset: DatasetSpec) -> Self {
        Self::build(dataset, 10, &TREE_SWEEP, &RECORD_SWEEP)
    }

    /// Builds a grid over explicit axes.
    pub fn build(
        dataset: DatasetSpec,
        depth: usize,
        tree_counts: &[usize],
        record_counts: &[u64],
    ) -> Self {
        let cells = record_counts
            .iter()
            .map(|&n| {
                tree_counts
                    .iter()
                    .map(|&t| {
                        let point = SweepPoint::evaluate(dataset, t, depth, n);
                        ShmooCell {
                            winner: point.best().backend.clone(),
                            speedup: point.best_speedup_vs_cpu(),
                        }
                    })
                    .collect()
            })
            .collect();
        let gpu_row = tree_counts
            .iter()
            .map(|&t| {
                let point = SweepPoint::evaluate(dataset, t, depth, 1_000_000);
                point
                    .best_gpu()
                    .map(|gpu| point.best_cpu().total().ratio(gpu.total()))
            })
            .collect();
        Self {
            dataset,
            depth,
            tree_counts: tree_counts.to_vec(),
            record_counts: record_counts.to_vec(),
            cells,
            gpu_row,
        }
    }

    /// The cell for a given (records, trees) pair, if on the grid.
    pub fn cell(&self, n_records: u64, n_trees: usize) -> Option<&ShmooCell> {
        let row = self.record_counts.iter().position(|&r| r == n_records)?;
        let col = self.tree_counts.iter().position(|&t| t == n_trees)?;
        Some(&self.cells[row][col])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_grid(dataset: DatasetSpec) -> ShmooTable {
        ShmooTable::build(dataset, 10, &[1, 128], &[1, 1_000, 1_000_000])
    }

    #[test]
    fn top_rows_are_cpu_bottom_right_is_fpga() {
        for dataset in DatasetSpec::all() {
            let t = small_grid(dataset);
            assert_eq!(t.cell(1, 1).unwrap().family(), "CPU", "{dataset:?} 1x1");
            assert_eq!(t.cell(1, 128).unwrap().family(), "CPU", "{dataset:?} 1x128");
            assert_eq!(
                t.cell(1_000_000, 128).unwrap().family(),
                "FPGA",
                "{dataset:?} 1Mx128"
            );
        }
    }

    #[test]
    fn cpu_cells_have_unit_speedup() {
        let t = small_grid(DatasetSpec::Iris);
        assert_eq!(t.cell(1, 1).unwrap().speedup, 1.0);
    }

    #[test]
    fn heavy_cells_have_large_speedup() {
        let t = small_grid(DatasetSpec::Higgs);
        let s = t.cell(1_000_000, 128).unwrap().speedup;
        assert!(s > 20.0, "1M x 128 speedup {s}");
    }

    #[test]
    fn gpu_row_present_for_both_datasets() {
        let iris = small_grid(DatasetSpec::Iris);
        let higgs = small_grid(DatasetSpec::Higgs);
        // HB supports IRIS multi-class, so the GPU row exists there too.
        assert!(iris.gpu_row.iter().all(Option::is_some));
        assert!(higgs.gpu_row.iter().all(Option::is_some));
    }

    #[test]
    fn off_grid_lookup_is_none() {
        let t = small_grid(DatasetSpec::Iris);
        assert!(t.cell(5, 1).is_none());
        assert!(t.cell(1, 5).is_none());
    }
}
