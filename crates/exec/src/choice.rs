//! Per-call kernel selection: blocked walk vs SIMD walk vs QuickScorer.
//!
//! The three CPU kernels have sharply different cost shapes:
//!
//! * the blocked walk pays ~constant time per `(tree, depth-step, record)`;
//! * the SIMD walk pays the same shape at a smaller constant (amortized
//!   over 8–16 lanes), plus it degenerates to the scalar tail for batches
//!   shorter than a lane group;
//! * QuickScorer pays per *false decision node* × bitvector words plus a
//!   per-tree scan — independent of depth, but the word count grows with
//!   `2^depth`, so it only wins on wide, shallow ensembles.
//!
//! [`KernelChoice::choose`] evaluates closed-form per-record estimates of
//! all three, with constants calibrated against the committed
//! `BENCH_cpu_scoring.json` sweeps on the reference host (see
//! `DESIGN.md` §12), and picks the minimum. The estimates are *relative*
//! prices for ranking, not absolute latency predictions — the scheduler
//! keeps its own measured affine models per backend and simply reports
//! which kernel the executor will run
//! ([`Choice::kernel`](../../mlscore_sched/policy/struct.Choice.html)).

use mlscore_forest::ModelStats;

use crate::kernel;
use crate::kernel::FlatImage;
use crate::kernel::LANES;
use crate::kernel_simd::{score_simd_batch, SimdLevel};
use crate::pool::{ExecPool, RunConfig};
use crate::quickscorer::score_quickscorer_batch;
use crate::report::RunReport;

use mlscore_data::TabularFrame;
use mlscore_forest::Predictions;

/// The CPU scoring kernels the executor can dispatch a batch to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kernel {
    /// Blocked scalar lockstep walk ([`kernel::score_image_batch`]).
    Blocked,
    /// Explicit-SIMD lane walk ([`score_simd_batch`]).
    Simd,
    /// QuickScorer bitvector traversal ([`score_quickscorer_batch`]).
    Quickscorer,
}

impl Kernel {
    /// Stable lower-case name, used by `repro bench --kernel` and the
    /// scheduler's choice reporting.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Blocked => "blocked",
            Kernel::Simd => "simd",
            Kernel::Quickscorer => "quickscorer",
        }
    }

    /// Parses a kernel name as accepted by `repro bench --kernel`.
    pub fn parse(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "blocked" => Some(Kernel::Blocked),
            "simd" => Some(Kernel::Simd),
            "quickscorer" | "qs" => Some(Kernel::Quickscorer),
            _ => None,
        }
    }
}

/// Model-shape inputs to the cost model, computed once per [`FlatImage`]
/// (or approximated from a [`ModelStats`] when no image is at hand).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ImageStats {
    /// Trees in the forest.
    pub n_trees: usize,
    /// Feature columns.
    pub n_features: usize,
    /// Fixed lockstep step count: the maximum encoded capacity depth.
    pub steps: usize,
    /// Live decision nodes across all trees.
    pub internal_nodes: usize,
    /// Live leaves in the widest tree — determines QuickScorer's
    /// bitvector word count.
    pub max_leaves: usize,
}

impl ImageStats {
    /// Approximates image stats from backend-level model statistics.
    ///
    /// `total_leaves / n_trees` stands in for the widest tree's leaf
    /// count; for the near-uniform synthetic and trained forests in this
    /// repro the approximation is tight.
    pub fn from_model_stats(stats: &ModelStats) -> Self {
        let n_trees = stats.n_trees.max(1);
        Self {
            n_trees: stats.n_trees,
            n_features: stats.n_features,
            steps: stats.max_depth,
            internal_nodes: stats.total_nodes.saturating_sub(stats.total_leaves),
            max_leaves: (stats.total_leaves / n_trees).max(1),
        }
    }

    /// QuickScorer bitvector words per tree for this shape.
    pub fn qs_words(&self) -> usize {
        self.max_leaves.div_ceil(64)
    }
}

// Calibrated per-unit costs, in nanoseconds, measured on the reference
// host (1-socket Xeon, AVX2; see BENCH_cpu_scoring.json `host`). Only the
// *ratios* matter for ranking; rescaling all constants together changes
// nothing.
/// Blocked walk: per (tree × step × record) lane-step.
const BLOCKED_NS_PER_TREE_STEP: f64 = 1.75;
/// SIMD walk lane-step at each tier (amortized per record).
const SIMD_NS_PER_TREE_STEP_AVX512: f64 = 0.80;
const SIMD_NS_PER_TREE_STEP_AVX2: f64 = 0.87;
const SIMD_NS_PER_TREE_STEP_SSE2: f64 = 1.55;
const SIMD_NS_PER_TREE_STEP_PORTABLE: f64 = 1.05;
/// QuickScorer: per mask word ANDed (half the internal nodes are false on
/// average), per scan word, and per-record fixed cost.
const QS_NS_PER_AND_WORD: f64 = 0.55;
const QS_NS_PER_SCAN_WORD: f64 = 0.9;
const QS_NS_PER_RECORD: f64 = 6.0;

/// The cost model's verdict for one `(model shape, batch size)` call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelChoice {
    /// The kernel to dispatch.
    pub kernel: Kernel,
    /// The SIMD tier the walker would run at (hardware/override pick).
    pub level: SimdLevel,
    /// Estimated ns/record for the blocked walk.
    pub blocked_ns: f64,
    /// Estimated ns/record for the SIMD walk.
    pub simd_ns: f64,
    /// Estimated ns/record for QuickScorer.
    pub quickscorer_ns: f64,
}

impl KernelChoice {
    /// Ranks the three kernels for a batch of `records` over this shape.
    pub fn choose(stats: &ImageStats, records: usize, level: SimdLevel) -> Self {
        let tree_steps = (stats.n_trees * stats.steps) as f64;
        let blocked_ns = tree_steps * BLOCKED_NS_PER_TREE_STEP;
        let simd_step = match level {
            SimdLevel::Avx512 => SIMD_NS_PER_TREE_STEP_AVX512,
            SimdLevel::Avx2 => SIMD_NS_PER_TREE_STEP_AVX2,
            SimdLevel::Sse2 => SIMD_NS_PER_TREE_STEP_SSE2,
            SimdLevel::Portable => SIMD_NS_PER_TREE_STEP_PORTABLE,
        };
        let simd_ns = tree_steps * simd_step;
        let words = stats.qs_words() as f64;
        let quickscorer_ns = (stats.internal_nodes as f64 / 2.0) * words * QS_NS_PER_AND_WORD
            + stats.n_trees as f64 * words * QS_NS_PER_SCAN_WORD
            + QS_NS_PER_RECORD;
        // Batches shorter than one lane group never reach the vector loop
        // — the SIMD path would just run the blocked kernel's scalar tail.
        let kernel = if records < LANES {
            if quickscorer_ns < blocked_ns {
                Kernel::Quickscorer
            } else {
                Kernel::Blocked
            }
        } else {
            let mut best = (blocked_ns, Kernel::Blocked);
            if simd_ns < best.0 {
                best = (simd_ns, Kernel::Simd);
            }
            if quickscorer_ns < best.0 {
                best = (quickscorer_ns, Kernel::Quickscorer);
            }
            best.1
        };
        Self {
            kernel,
            level,
            blocked_ns,
            simd_ns,
            quickscorer_ns,
        }
    }

    /// Convenience: rank from backend-level model stats at the detected
    /// SIMD tier (what `ScoringBackend::kernel_choice` reports).
    pub fn from_model_stats(stats: &ModelStats, records: usize) -> Self {
        Self::choose(
            &ImageStats::from_model_stats(stats),
            records,
            SimdLevel::detect(),
        )
    }
}

/// Scores a frame with whichever kernel the cost model picks for this
/// image and batch size, returning the verdict alongside the predictions.
///
/// All three kernels are bit-exact with each other, so the pick affects
/// throughput only.
///
/// # Panics
///
/// Panics if the frame's feature count differs from the model's.
pub fn score_auto_batch(
    image: &FlatImage,
    frame: &TabularFrame,
    pool: &ExecPool,
    cfg: &RunConfig,
) -> (Predictions, RunReport, KernelChoice) {
    score_auto_batch_at(SimdLevel::detect(), image, frame, pool, cfg)
}

/// [`score_auto_batch`] at an already-detected SIMD tier, so a caller
/// scoring many chunks reads the `MLSCORE_SIMD` override only once.
pub fn score_auto_batch_at(
    level: SimdLevel,
    image: &FlatImage,
    frame: &TabularFrame,
    pool: &ExecPool,
    cfg: &RunConfig,
) -> (Predictions, RunReport, KernelChoice) {
    let choice = KernelChoice::choose(image.stats(), frame.n_rows(), level);
    let (preds, report) = match choice.kernel {
        Kernel::Blocked => kernel::score_image_batch(image, frame, pool, cfg),
        Kernel::Simd => score_simd_batch(image, frame, pool, cfg, choice.level),
        Kernel::Quickscorer => score_quickscorer_batch(image, frame, pool, cfg),
    };
    (preds, report, choice)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn shape(n_trees: usize, steps: usize, nf: usize) -> ImageStats {
        // Full binary trees of the given depth.
        let leaves = 1usize << steps;
        ImageStats {
            n_trees,
            n_features: nf,
            steps,
            internal_nodes: n_trees * (leaves - 1),
            max_leaves: leaves,
        }
    }

    #[test]
    fn deep_full_forests_never_pick_quickscorer() {
        // 128 trees × depth 10: the paper's standard shape. 16 mask words
        // per AND make QuickScorer ~2 orders slower than the walkers.
        let c = KernelChoice::choose(&shape(128, 10, 28), 100_000, SimdLevel::Avx2);
        assert_eq!(c.kernel, Kernel::Simd);
        assert!(c.quickscorer_ns > c.blocked_ns);
    }

    #[test]
    fn sparse_deep_forests_pick_quickscorer() {
        // Leaf-capped trained trees: 8 leaves (one bitvector word, 7
        // internal nodes) but encoded at depth 8. The walkers still pay
        // all 8 capacity steps per tree; QuickScorer pays ~3.5 mask ANDs.
        let sparse = ImageStats {
            n_trees: 128,
            n_features: 28,
            steps: 8,
            internal_nodes: 128 * 7,
            max_leaves: 8,
        };
        let c = KernelChoice::choose(&sparse, 100_000, SimdLevel::Avx2);
        assert_eq!(c.kernel, Kernel::Quickscorer);
        // Without SIMD hardware the crossover widens further.
        let c = KernelChoice::choose(&sparse, 100_000, SimdLevel::Portable);
        assert_eq!(c.kernel, Kernel::Quickscorer);
    }

    #[test]
    fn tiny_batches_avoid_the_simd_tail() {
        let c = KernelChoice::choose(&shape(128, 10, 28), LANES - 1, SimdLevel::Avx2);
        assert_eq!(c.kernel, Kernel::Blocked);
        let c = KernelChoice::choose(&shape(128, 10, 28), LANES, SimdLevel::Avx2);
        assert_eq!(c.kernel, Kernel::Simd);
    }

    #[test]
    fn kernel_names_round_trip() {
        for k in [Kernel::Blocked, Kernel::Simd, Kernel::Quickscorer] {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        assert_eq!(Kernel::parse("qs"), Some(Kernel::Quickscorer));
        assert_eq!(Kernel::parse("auto"), None);
    }
}
