//! Shared kernel plumbing plus the pointer-tree batch kernel.
//!
//! Each kernel runs on an [`ExecPool`]: the pool hands a task contiguous
//! row ranges, and the task tiles them into blocks of
//! [`RunConfig::record_block`] rows × [`RunConfig::tree_block`] trees so a
//! tree's node image stays cache-resident while a whole record block
//! traverses it — the opposite loop order from the seed's record-at-a-time
//! `score_one`, which streamed every tree's nodes past every record.
//!
//! This module holds what both CPU kernels share — the disjoint-write
//! output slice, the per-thread vote scratch, block tiling,
//! and the [`LANES`] width — plus [`score_forest_batch`], the pointer-tree
//! kernel the scikit-learn-like backend runs. The flat-image kernel is the
//! SIMD lane walker in [`kernel_simd`](crate::kernel_simd).
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
pub(crate) struct SharedOut<T>(*mut T, usize);

#[allow(unsafe_code)]
// SAFETY: workers write disjoint indices of a `T: Send` buffer; see above.
unsafe impl<T: Send> Send for SharedOut<T> {}
#[allow(unsafe_code)]
// SAFETY: as above — sharing `&SharedOut` only exposes disjoint writes.
unsafe impl<T: Send> Sync for SharedOut<T> {}

impl<T> SharedOut<T> {
    pub(crate) fn new(buf: &mut [T]) -> Self {
        Self(buf.as_mut_ptr(), buf.len())
    }

    /// Writes `val` at index `i`.
    ///
    /// Callers must write each index from at most one thread at a time —
    /// the pool's disjoint-range contract.
    #[allow(unsafe_code)]
    #[inline]
    pub(crate) fn write(&self, i: usize, val: T) {
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
    pub(crate) static VOTES: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
}

/// Splits `range` into sub-blocks of at most `block` rows.
pub(crate) fn blocks(range: Range<usize>, block: usize) -> impl Iterator<Item = Range<usize>> {
    let block = block.max(1);
    range
        .clone()
        .step_by(block)
        .map(move |lo| lo..(lo + block).min(range.end))
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
    assert_eq!(
        frame.n_features(),
        forest.n_features(),
        "frame/model feature width mismatch: frame has {} features, model expects {}",
        frame.n_features(),
        forest.n_features()
    );
    let n = frame.n_rows();
    let n_classes = forest.n_classes() as usize;
    let mut out = vec![0u32; n];
    let shared = SharedOut::new(&mut out);
    let report = pool.run(n, cfg, &|_w, range| {
        VOTES.with(|v| {
            let votes = &mut *v.borrow_mut();
            for rows in blocks(range.clone(), cfg.record_block) {
                let blen = rows.len();
                votes.clear();
                votes.resize(blen * n_classes, 0);
                for chunk in forest.trees().chunks(cfg.tree_block) {
                    for tree in chunk {
                        for r in 0..blen {
                            let c = tree.predict(frame.row(rows.start + r));
                            votes[r * n_classes + c as usize] += 1;
                        }
                    }
                }
                for r in 0..blen {
                    let counts = &votes[r * n_classes..(r + 1) * n_classes];
                    shared.write(rows.start + r, RandomForest::majority(counts));
                }
            }
        });
    });
    (out, report)
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
