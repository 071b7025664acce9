//! Split execution for trees deeper than the engine supports (§III-B's
//! proposed extension): the FPGA evaluates the first `max_depth` levels and
//! hands the frontier back to the CPU, which finishes the traversal.

use mlscore_backend::CpuSpec;
use mlscore_data::TabularFrame;
use mlscore_forest::{Node, RandomForest};
use mlscore_sim::{SimDuration, Stage, TimingBreakdown};

use crate::engine::InferenceEngine;

/// Statistics from a split-execution run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SplitReport {
    /// (record, tree) traversals finished on the FPGA (reached a leaf
    /// within the depth budget).
    pub finished_on_fpga: u64,
    /// (record, tree) traversals continued on the CPU.
    pub continued_on_cpu: u64,
    /// Total node visits performed by the CPU continuation.
    pub cpu_visits: u64,
}

impl SplitReport {
    /// Fraction of traversals the FPGA finished alone.
    pub fn fpga_fraction(&self) -> f64 {
        let total = self.finished_on_fpga + self.continued_on_cpu;
        if total == 0 {
            0.0
        } else {
            self.finished_on_fpga as f64 / total as f64
        }
    }
}

/// Walks `x` down a tree for at most `depth_budget` levels; returns either
/// the leaf's class or the frontier node index where the budget ran out.
fn walk_to_depth(nodes: &[Node], x: &[f32], depth_budget: usize) -> Result<u32, usize> {
    let mut idx = 0usize;
    for _ in 0..=depth_budget {
        match nodes[idx] {
            Node::Leaf(v) => return Ok(v),
            Node::Decision {
                feature,
                threshold,
                left,
                right,
            } => {
                idx = if x[feature as usize] <= threshold {
                    left as usize
                } else {
                    right as usize
                };
            }
        }
    }
    Err(idx)
}

/// Continues a traversal from `start` to a leaf, counting visits.
fn finish_on_cpu(nodes: &[Node], x: &[f32], start: usize) -> (u32, u64) {
    let mut idx = start;
    let mut visits = 0u64;
    loop {
        visits += 1;
        match nodes[idx] {
            Node::Leaf(v) => return (v, visits),
            Node::Decision {
                feature,
                threshold,
                left,
                right,
            } => {
                idx = if x[feature as usize] <= threshold {
                    left as usize
                } else {
                    right as usize
                };
            }
        }
    }
}

/// Scores `frame` with split execution: the engine covers the first
/// `engine.config().max_depth` levels, the CPU finishes deeper paths.
/// Predictions are identical to pure CPU scoring; the report quantifies how
/// much work each side did.
///
/// # Panics
///
/// Panics if the frame width differs from the model's feature count.
pub fn split_score(
    engine: &InferenceEngine,
    forest: &RandomForest,
    frame: &TabularFrame,
) -> (Vec<u32>, SplitReport) {
    assert_eq!(
        forest.n_features(),
        frame.n_features(),
        "frame width must match the model"
    );
    let budget = engine.config().max_depth;
    let mut report = SplitReport {
        finished_on_fpga: 0,
        continued_on_cpu: 0,
        cpu_visits: 0,
    };
    let mut leaf_for = |row: &[f32], tree: &mlscore_forest::DecisionTree| -> u32 {
        match walk_to_depth(tree.nodes(), row, budget) {
            Ok(v) => {
                report.finished_on_fpga += 1;
                v
            }
            Err(frontier) => {
                report.continued_on_cpu += 1;
                let (v, visits) = finish_on_cpu(tree.nodes(), row, frontier);
                report.cpu_visits += visits;
                v
            }
        }
    };
    let predictions = frame
        .rows()
        .map(|row| {
            let mut counts = vec![0u32; forest.n_classes() as usize];
            for tree in forest.trees() {
                counts[leaf_for(row, tree) as usize] += 1;
            }
            RandomForest::majority(&counts)
        })
        .collect();
    (predictions, report)
}

/// Estimates the time of a split-execution run: the normal engine pass plus
/// the CPU continuation for the expected below-budget visits, plus one extra
/// frontier transfer (the engine must return per-tree frontier indices, not
/// just final classes).
pub fn split_estimate(
    engine: &InferenceEngine,
    cpu: &CpuSpec,
    stats: &mlscore_forest::ModelStats,
    n_records: u64,
    report: &SplitReport,
) -> TimingBreakdown {
    let device = engine.device();
    let cfg = engine.config();
    let passes = stats.n_trees.div_ceil(cfg.pe_count) as u64;
    let mut b = TimingBreakdown::new();
    let fill = cfg.max_depth as u64 + (cfg.pe_count as u64).ilog2() as u64 + 2;
    let per_pass = device
        .clock
        .cycles(fill + n_records * cfg.memory.initiation_interval())
        .max(device.link.stream(n_records * stats.row_bytes() as u64));
    b.add(Stage::Scoring, per_pass * passes as f64);
    // Frontier transfer: one index per (record, tree) that continued.
    b.add(
        Stage::ResultTransfer,
        device
            .link
            .transfer(report.continued_on_cpu * 4 + n_records * 4),
    );
    b.add(Stage::CompletionSignal, device.interrupt * passes as f64);
    b.add(Stage::SoftwareOverhead, device.software_overhead);
    // CPU continuation, parallel across the host's threads.
    let visit = cpu.visit_cost(stats);
    let cpu_time = visit * report.cpu_visits as f64
        / mlscore_backend::cost::effective_parallelism(cpu.threads, n_records);
    b.add(Stage::Scoring, SimDuration::from_secs(cpu_time.as_secs()));
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_data::Dataset;
    use mlscore_forest::ForestConfig;

    #[test]
    fn split_matches_reference_for_deep_trees() {
        // Depth 14 exceeds the engine's 10 levels.
        let forest = RandomForest::synthetic_capped(
            &ForestConfig::classification(6, 4, 3).with_depth(14),
            500,
            7,
        );
        assert!(forest.max_depth() > 10);
        let data = Dataset::iris(120, 4).normalized();
        let engine = InferenceEngine::paper_default();
        let (preds, report) = split_score(&engine, &forest, data.frame());
        assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
        assert!(report.continued_on_cpu > 0, "deep paths must hit the CPU");
        assert!(report.cpu_visits >= report.continued_on_cpu);
    }

    #[test]
    fn shallow_trees_never_touch_cpu() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(4, 4, 2).with_depth(6), 3);
        let data = Dataset::iris(40, 5).normalized();
        let engine = InferenceEngine::paper_default();
        let (preds, report) = split_score(&engine, &forest, data.frame());
        assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
        assert_eq!(report.continued_on_cpu, 0);
        assert_eq!(report.fpga_fraction(), 1.0);
    }

    #[test]
    fn split_estimate_includes_cpu_and_fpga_work() {
        let forest = RandomForest::synthetic_capped(
            &ForestConfig::classification(6, 4, 3).with_depth(14),
            500,
            7,
        );
        let data = Dataset::iris(100, 4).normalized();
        let engine = InferenceEngine::paper_default();
        let (_, report) = split_score(&engine, &forest, data.frame());
        let stats = mlscore_forest::ModelStats::of(&forest);
        let b = split_estimate(&engine, &CpuSpec::xeon_8171m(), &stats, 100, &report);
        assert!(b.get(Stage::Scoring) > SimDuration::ZERO);
        assert!(b.get(Stage::ResultTransfer) > SimDuration::ZERO);
    }

    #[test]
    fn empty_report_fraction_is_zero() {
        let r = SplitReport {
            finished_on_fpga: 0,
            continued_on_cpu: 0,
            cpu_visits: 0,
        };
        assert_eq!(r.fpga_fraction(), 0.0);
    }
}
