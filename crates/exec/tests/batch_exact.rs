//! Property tests: both parallel batch kernels — the SIMD walker over a
//! flat image and the blocked pointer-tree kernel — are bit-exact with
//! their sequential references across thread counts (1, 2, 7, and the
//! paper's 52), record/tree block sizes, class counts (including
//! majority-vote tie-breaking), and degenerate batches (empty and
//! single-record frames).

use std::sync::OnceLock;

use proptest::prelude::*;

use mlscore_data::TabularFrame;
use mlscore_exec::{kernel, score_simd_batch, ExecPool, FlatImage, RunConfig, SimdLevel};
use mlscore_forest::{ForestConfig, RandomForest};

/// Thread counts exercised for every case: serial, small, odd (uneven
/// sharding), and the paper's 52-thread Xeon configuration.
const THREADS: [usize; 4] = [1, 2, 7, 52];

/// One pool per sweep width, spawned once for the whole test binary.
fn pools() -> &'static [ExecPool] {
    static POOLS: OnceLock<Vec<ExecPool>> = OnceLock::new();
    POOLS.get_or_init(|| THREADS.into_iter().map(ExecPool::new).collect())
}

/// Deterministic pseudo-random frame; `rows` may be zero.
fn frame(rows: usize, n_features: usize, seed: u64) -> TabularFrame {
    let data: Vec<f32> = (0..rows * n_features)
        .map(|i| {
            let h = (i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(seed)
                .rotate_left(17);
            (h % 1000) as f32 / 1000.0
        })
        .collect();
    TabularFrame::from_rows(data, n_features).unwrap()
}

/// Each pool paired with a matching-width run configuration.
fn sweep(
    record_block: usize,
    tree_block: usize,
) -> impl Iterator<Item = (&'static ExecPool, RunConfig)> {
    pools().iter().zip(THREADS).map(move |(pool, t)| {
        let cfg = RunConfig::for_threads(t)
            .with_record_block(record_block)
            .with_tree_block(tree_block);
        (pool, cfg)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Both the SIMD flat-image kernel and the blocked pointer-tree kernel
    /// reproduce the sequential result exactly. Few
    /// trees and classes make vote ties common, so the shared
    /// lowest-class-id tie-break is genuinely exercised.
    #[test]
    fn classification_kernels_bit_exact(
        trees in 1usize..6,
        depth in 0usize..6,
        n_features in 2usize..6,
        n_classes in 2u32..4,
        rows in 0usize..34,
        record_block in 1usize..70,
        tree_block in 1usize..6,
        model_seed in any::<u64>(),
        data_seed in any::<u64>(),
    ) {
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(trees, n_features, n_classes).with_depth(depth),
            model_seed,
        );
        let image = FlatImage::from_forest(&forest, forest.max_depth()).unwrap();
        let flat = image.flat();
        let f = frame(rows, n_features, data_seed);
        let forest_ref = forest.predict_batch(f.as_slice());
        let flat_ref: Vec<u32> = f.rows().map(|r| flat.score_one(r)).collect();
        for (pool, cfg) in sweep(record_block, tree_block) {
            let (preds, report) = kernel::score_forest_batch(&forest, &f, pool, &cfg);
            prop_assert_eq!(&preds, &forest_ref, "forest kernel, {} threads", cfg.threads);
            prop_assert_eq!(report.rows(), rows);
            let (preds, _) = score_simd_batch(&image, &f, pool, &cfg, SimdLevel::detect());
            prop_assert_eq!(&preds, &flat_ref);
        }
    }
}

/// Non-property spot checks for the batch edges proptest ranges reach only
/// probabilistically: exactly-empty and exactly-one-record frames at the
/// widest pool.
#[test]
fn empty_and_single_record_at_every_width() {
    let forest =
        RandomForest::synthetic_full(&ForestConfig::classification(3, 4, 3).with_depth(5), 99);
    let image = FlatImage::from_forest(&forest, 5).unwrap();
    let empty = TabularFrame::from_rows(vec![], 4).unwrap();
    let one = frame(1, 4, 5);
    for (pool, threads) in pools().iter().zip(THREADS) {
        let cfg = RunConfig::for_threads(threads);
        let (preds, report) = score_simd_batch(&image, &empty, pool, &cfg, SimdLevel::detect());
        assert!(preds.is_empty());
        assert_eq!(report.rows(), 0);
        let want = forest.predict_batch(one.as_slice());
        let (preds, _) = kernel::score_forest_batch(&forest, &one, pool, &cfg);
        assert_eq!(preds, want);
        let (preds, _) = score_simd_batch(&image, &one, pool, &cfg, SimdLevel::detect());
        assert_eq!(preds, want);
    }
}
