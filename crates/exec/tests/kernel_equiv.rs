//! Flat-kernel equivalence: the explicit-SIMD lane walker — the only
//! kernel that scores a `FlatImage` — must be bit-exact with the
//! sequential pointer-tree reference at every tier the host supports,
//! over the paper's dataset shapes (iris-like and HIGGS-like), forest
//! sizes {1, 8, 128}, batch-edge record counts (0, 1, odd, ±1 around
//! each lane-group stride — 1, 4 and 8 groups of `LANES` rows — one
//! block that takes every stride and the scalar tail, and two record
//! blocks with a tail), record blocks of the default size and of 128
//! rows, multiple pool widths, and the `MLSCORE_SIMD` env-forced
//! fallback tiers.

use std::sync::OnceLock;

use proptest::prelude::*;

use mlscore_data::{Dataset, TabularFrame};
use mlscore_exec::pool::DEFAULT_RECORD_BLOCK;
use mlscore_exec::{kernel, score_simd_batch, ExecPool, FlatImage, RunConfig, SimdLevel};
use mlscore_forest::{ForestConfig, RandomForest};

/// Pool widths: serial, small, and wider than any sweep batch shard.
const THREADS: [usize; 3] = [1, 4, 13];

/// One pool per width, spawned once for the whole test binary.
fn pools() -> &'static [ExecPool] {
    static POOLS: OnceLock<Vec<ExecPool>> = OnceLock::new();
    POOLS.get_or_init(|| THREADS.into_iter().map(ExecPool::new).collect())
}

/// Every SIMD tier the host can actually run, weakest first.
fn levels() -> Vec<SimdLevel> {
    [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512]
        .into_iter()
        .filter(|&l| l <= SimdLevel::supported())
        .collect()
}

/// Record counts at the walker's batch edges: empty, one, odd, one either
/// side of every stride (1, 4 and 8 lane groups), 127 rows (one 8-group
/// stride, one 4-group stride, three 1-group strides and a 7-row scalar
/// tail: every stride in one block once blocks hold 128 rows), plus two
/// full default record blocks with a sub-lane tail.
const EDGE_RECORDS: [usize; 11] = [
    0,
    1,
    37,
    kernel::LANES - 1,
    kernel::LANES + 1,
    4 * kernel::LANES - 1,
    4 * kernel::LANES + 1,
    8 * kernel::LANES - 1,
    8 * kernel::LANES + 1,
    8 * kernel::LANES + 4 * kernel::LANES + 3 * kernel::LANES + 7,
    2 * DEFAULT_RECORD_BLOCK + 3,
];

/// A frame in one of the paper's two shapes; `rows` may be zero.
fn shaped_frame(dataset: &str, rows: usize) -> TabularFrame {
    let n_features = if dataset == "iris" { 4 } else { 28 };
    if rows == 0 {
        return TabularFrame::from_rows(vec![], n_features).unwrap();
    }
    let data = if dataset == "iris" {
        Dataset::iris(rows, 3).normalized()
    } else {
        Dataset::higgs(rows, 3).normalized()
    };
    data.frame().clone()
}

/// Runs the SIMD walker on `(forest, frame)` at every tier, pool width and
/// record block size (the default, and 128 rows so one block runs the
/// 8-group stride, then the 4-group stride) and asserts each run
/// reproduces the sequential reference bit for bit.
fn assert_every_tier_exact(forest: &RandomForest, frame: &TabularFrame, what: &str) {
    let image = FlatImage::from_forest(forest, forest.max_depth()).unwrap();
    let reference = forest.predict_batch(frame.as_slice());
    for (pool, threads) in pools().iter().zip(THREADS) {
        for record_block in [DEFAULT_RECORD_BLOCK, 128] {
            let cfg = RunConfig::for_threads(threads).with_record_block(record_block);
            for level in levels() {
                let (preds, _) = score_simd_batch(&image, frame, pool, &cfg, level);
                assert_eq!(
                    preds,
                    reference,
                    "{what}: simd/{} @{threads}th, {record_block}-row blocks",
                    level.name()
                );
            }
        }
    }
}

/// The deterministic grid: {iris, higgs} shapes × {1, 8, 128} trees ×
/// batch-edge record counts.
#[test]
fn grid_simd_tiers_bit_exact() {
    for dataset in ["iris", "higgs"] {
        let (n_features, n_classes) = if dataset == "iris" { (4, 3) } else { (28, 2) };
        for trees in [1usize, 8, 128] {
            let forest = RandomForest::synthetic_full(
                &ForestConfig::classification(trees, n_features, n_classes).with_depth(6),
                11,
            );
            for records in EDGE_RECORDS {
                let frame = shaped_frame(dataset, records);
                let what = format!("{dataset} x{trees} trees @{records} records");
                assert_every_tier_exact(&forest, &frame, &what);
            }
        }
    }
}

/// `MLSCORE_SIMD` forces the fallback tiers: every forced level must (a)
/// actually take effect in [`SimdLevel::detect`], (b) never exceed the
/// hardware, and (c) stay bit-exact with the reference. This test owns
/// the env var; no other test in this binary reads it.
#[test]
fn env_forced_fallback_levels_stay_bit_exact() {
    let forest =
        RandomForest::synthetic_full(&ForestConfig::classification(8, 4, 3).with_depth(6), 31);
    let image = FlatImage::from_forest(&forest, forest.max_depth()).unwrap();
    let frame = shaped_frame("iris", 2 * kernel::LANES + 5);
    let reference = forest.predict_batch(frame.as_slice());
    let pool = ExecPool::new(2);
    let cfg = RunConfig::for_threads(2);

    let hw = SimdLevel::supported();
    for forced in ["portable", "avx2", "avx512"] {
        std::env::set_var("MLSCORE_SIMD", forced);
        let detected = SimdLevel::detect();
        // The override can only lower the tier, never raise it.
        assert!(detected <= hw, "forced {forced} exceeded hardware");
        assert_eq!(detected, SimdLevel::parse(forced).unwrap().min(hw));
        let (preds, _) = score_simd_batch(&image, &frame, &pool, &cfg, detected);
        assert_eq!(preds, reference, "forced {forced}");
    }
    // Unknown values, `sse2` among them, are ignored,
    // not errors.
    for unknown in ["quantum", "sse2"] {
        std::env::set_var("MLSCORE_SIMD", unknown);
        assert_eq!(SimdLevel::detect(), hw, "{unknown}");
    }
    std::env::remove_var("MLSCORE_SIMD");
    assert_eq!(SimdLevel::detect(), hw);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Random shapes: every SIMD tier at every pool width agrees with the
    /// sequential reference, including vote
    /// ties (few trees and classes make them common), NaN-free random
    /// frames, and batches long enough to reach the 64-lane stride.
    #[test]
    fn random_classification_all_tiers_agree(
        trees in 1usize..10,
        depth in 0usize..7,
        n_features in 2usize..6,
        n_classes in 2u32..4,
        rows in 0usize..140,
        model_seed in any::<u64>(),
    ) {
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(trees, n_features, n_classes).with_depth(depth),
            model_seed,
        );
        let data: Vec<f32> = (0..rows * n_features)
            .map(|i| {
                let h = (i as u64)
                    .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                    .wrapping_add(model_seed)
                    .rotate_left(21);
                (h % 1000) as f32 / 1000.0
            })
            .collect();
        let frame = TabularFrame::from_rows(data, n_features).unwrap();
        let image = FlatImage::from_forest(&forest, forest.max_depth()).unwrap();
        let reference = forest.predict_batch(frame.as_slice());
        for (pool, threads) in pools().iter().zip(THREADS) {
            let cfg = RunConfig::for_threads(threads);
            for level in levels() {
                let (preds, _) = score_simd_batch(&image, &frame, pool, &cfg, level);
                prop_assert_eq!(
                    &preds,
                    &reference,
                    "simd/{} @{}th",
                    level.name(),
                    threads
                );
            }
        }
    }
}
