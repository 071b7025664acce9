//! The record-block loop both CPU kernels share, plus the pointer-tree
//! batch kernel.
//!
//! Each kernel runs on an [`ExecPool`]: the pool hands a task contiguous
//! row ranges, and the task tiles them into blocks of
//! [`RunConfig::record_block`] rows × [`RunConfig::tree_block`] trees so a
//! tree's node image stays cache-resident while a whole record block
//! traverses it — the opposite loop order from the seed's record-at-a-time
//! `score_one`, which streamed every tree's nodes past every record.
//!
//! That tiling exists once, in `score_blocks`: the feature-width check,
//! the per-thread vote scratch, the record- and tree-block runs, and the
//! majority write into a disjoint-write output slice. A kernel only says
//! how one tree block votes for one record block:
//! [`score_forest_batch`] (the scikit-learn-like backend) walks the pointer
//! trees row by row, and the flat-image kernel
//! ([`kernel_simd`](crate::kernel_simd), the ONNX-like backend) walks
//! [`LANES`]-row groups in SIMD lockstep.
//!
//! All scratch is thread-local and reused across blocks and calls: the hot
//! loops allocate nothing.
//!
//! # Bit-exactness
//!
//! Every kernel reproduces its sequential reference exactly: votes are
//! commutative `u32` increments combined with [`RandomForest::majority`] —
//! the same tie-breaking rule every backend uses.

use std::cell::RefCell;
use std::ops::Range;

use mlscore_data::TabularFrame;
use mlscore_forest::RandomForest;

use crate::pool::{ExecPool, RunConfig};
use crate::report::RunReport;

/// Records one SIMD lane group walks through a flat tree in lockstep;
/// shorter batches (and every batch's tail) take the scalar
/// `FlatTree::score` path.
pub const LANES: usize = 8;

/// A shared output slice that parallel tasks write disjoint indices of.
///
/// # Safety
///
/// [`ExecPool::run`] invokes the task with disjoint ranges (covering
/// `0..n` exactly once unless a task panics) and neither returns nor
/// unwinds before every invocation has ended, so every index is written by
/// at most one worker while the owning `Vec` is borrowed, and the buffer
/// is only read or dropped after `run` is done with it.
struct SharedOut<T>(*mut T, usize);

#[allow(unsafe_code)]
// SAFETY: workers write disjoint indices of a `T: Send` buffer; see above.
unsafe impl<T: Send> Send for SharedOut<T> {}
#[allow(unsafe_code)]
// SAFETY: as above — sharing `&SharedOut` only exposes disjoint writes.
unsafe impl<T: Send> Sync for SharedOut<T> {}

impl<T> SharedOut<T> {
    fn new(buf: &mut [T]) -> Self {
        Self(buf.as_mut_ptr(), buf.len())
    }

    /// Writes `val` at index `i`.
    ///
    /// Callers must write each index from at most one thread at a time —
    /// the pool's disjoint-range contract.
    #[allow(unsafe_code)]
    #[inline]
    fn write(&self, i: usize, val: T) {
        debug_assert!(i < self.1);
        // SAFETY: `i` is in bounds and, per the range contract, no other
        // thread writes it; the pointee stays alive for the whole run.
        unsafe { *self.0.add(i) = val };
    }
}

thread_local! {
    /// Reusable per-thread kernel scratch: per-(row, class) vote counts
    /// for one record block. Grown on first use, then reused across
    /// blocks, runs, and scoring calls.
    static VOTES: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Splits `range` into sub-blocks of at most `block` items.
fn blocks(range: Range<usize>, block: usize) -> impl Iterator<Item = Range<usize>> {
    let block = block.max(1);
    range
        .clone()
        .step_by(block)
        .map(move |lo| lo..(lo + block).min(range.end))
}

/// The record-block loop both CPU kernels run: scores `frame` on the pool
/// into one class id per row.
///
/// Each task's rows are tiled into [`RunConfig::record_block`]-row blocks;
/// for each block, `vote(rows, trees, votes)` tallies one class vote per
/// (row, tree) for every [`RunConfig::tree_block`]-tree run in order, into
/// `votes[(row - rows.start) * n_classes + class]` (zeroed per block), and
/// each row's [`RandomForest::majority`] is written to the output.
///
/// # Panics
///
/// Panics if the frame's feature count differs from `n_features`.
pub(crate) fn score_blocks(
    frame: &TabularFrame,
    n_features: usize,
    n_trees: usize,
    n_classes: usize,
    pool: &ExecPool,
    cfg: &RunConfig,
    vote: impl Fn(Range<usize>, Range<usize>, &mut [u32]) + Sync,
) -> (Vec<u32>, RunReport) {
    assert_eq!(
        frame.n_features(),
        n_features,
        "frame/model feature width mismatch: frame has {} features, model expects {}",
        frame.n_features(),
        n_features
    );
    let n = frame.n_rows();
    let mut out = vec![0u32; n];
    let shared = SharedOut::new(&mut out);
    let report = pool.run(n, cfg, &|_w, range| {
        VOTES.with(|v| {
            let votes = &mut *v.borrow_mut();
            for rows in blocks(range, cfg.record_block) {
                votes.clear();
                votes.resize(rows.len() * n_classes, 0);
                for trees in blocks(0..n_trees, cfg.tree_block) {
                    vote(rows.clone(), trees, votes);
                }
                for r in 0..rows.len() {
                    let counts = &votes[r * n_classes..(r + 1) * n_classes];
                    shared.write(rows.start + r, RandomForest::majority(counts));
                }
            }
        });
    });
    (out, report)
}

/// Scores a frame against a pointer-tree forest on the pool into one class
/// id per row.
///
/// Bit-exact with [`RandomForest::predict_batch`]: votes are commutative.
///
/// # Panics
///
/// Panics if the frame's feature count differs from the model's.
pub fn score_forest_batch(
    forest: &RandomForest,
    frame: &TabularFrame,
    pool: &ExecPool,
    cfg: &RunConfig,
) -> (Vec<u32>, RunReport) {
    let n_classes = forest.n_classes() as usize;
    let (nf, nt) = (forest.n_features(), forest.n_trees());
    score_blocks(frame, nf, nt, n_classes, pool, cfg, |rows, trees, votes| {
        for tree in &forest.trees()[trees] {
            for (r, row) in rows.clone().enumerate() {
                let c = tree.predict(frame.row(row));
                votes[r * n_classes + c as usize] += 1;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_forest::ForestConfig;

    fn frame(rows: usize, nf: usize, seed: u64) -> TabularFrame {
        let data: Vec<f32> = (0..rows * nf)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed)) % 1000) as f32 / 1000.0
            })
            .collect();
        TabularFrame::from_rows(data, nf).unwrap()
    }

    fn pool() -> ExecPool {
        ExecPool::new(4)
    }

    #[test]
    fn forest_kernel_matches_predict_batch() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(9, 6, 4).with_depth(5), 3);
        let f = frame(150, 6, 2);
        let pool = pool();
        let cfg = RunConfig::for_threads(4).with_record_block(8);
        let (preds, _) = score_forest_batch(&forest, &f, &pool, &cfg);
        assert_eq!(preds, forest.predict_batch(f.as_slice()));
    }

    #[test]
    fn empty_and_single_record_batches() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(4, 3, 2).with_depth(4), 1);
        let pool = pool();
        let cfg = RunConfig::default();
        let empty = TabularFrame::from_rows(vec![], 3).unwrap();
        let (preds, report) = score_forest_batch(&forest, &empty, &pool, &cfg);
        assert!(preds.is_empty());
        assert_eq!(report.rows(), 0);
        let one = frame(1, 3, 4);
        let (preds, report) = score_forest_batch(&forest, &one, &pool, &cfg);
        assert_eq!(preds, forest.predict_batch(one.as_slice()));
        assert_eq!(report.rows(), 1);
    }
}
