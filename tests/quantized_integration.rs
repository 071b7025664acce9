//! Quantized-layout integration: fidelity across the paper's model shapes
//! and the BRAM-capacity arithmetic the A10 ablation relies on.

use mlscore::prelude::*;
use mlscore_forest::{FlatForest, QuantScheme, QuantizedForest};

#[test]
fn quantized_fidelity_across_paper_shapes() {
    for (n_trees, depth, n_features, n_classes) in [
        (1usize, 6usize, 4usize, 3u32),
        (16, 10, 4, 3),
        (128, 10, 28, 2),
    ] {
        let cfg = ForestConfig::classification(n_trees, n_features, n_classes).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, 5);
        let quant = QuantizedForest::from_forest(&forest, QuantScheme::unit(n_features)).unwrap();
        let records: Vec<f32> = (0..800 * n_features)
            .map(|i| (i as f32 * 0.317) % 1.0)
            .collect();
        let rate = quant.mismatch_rate(&forest, &records);
        assert!(
            rate < 0.02,
            "{n_trees}t/{depth}l/{n_features}f: mismatch rate {rate}"
        );
    }
}

#[test]
fn quantization_halves_live_bytes_for_every_shape() {
    for depth in [4usize, 8, 10] {
        let cfg = ForestConfig::classification(8, 6, 3).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, 7);
        let quant = QuantizedForest::from_forest(&forest, QuantScheme::unit(6)).unwrap();
        let flat = FlatForest::from_forest(&forest, depth).unwrap();
        let live: usize = flat.trees().iter().map(|t| t.live_bytes()).sum();
        assert_eq!(quant.footprint_bytes() * 2, live, "depth {depth}");
    }
}

#[test]
fn quantized_capacity_doubles_resident_trees() {
    // The A10 claim: within the Stratix-10's ~28.6 MB BRAM budget reserved
    // for tree memories (4 MiB in the paper's 128-PE configuration), the
    // quantized layout fits twice the trees.
    let budget_bytes = 128usize * 2048 * 16; // the paper's f32 tree memories
    let f32_tree_bytes = 2048 * 16; // padded depth-10 tree, Fig. 4b layout
    let quant_tree_bytes = 2047 * 8; // live records, 8 B each
    let f32_capacity = budget_bytes / f32_tree_bytes;
    let quant_capacity = budget_bytes / quant_tree_bytes;
    assert_eq!(f32_capacity, 128);
    assert!(quant_capacity >= 256, "quantized capacity {quant_capacity}");
}

#[test]
fn data_driven_scheme_beats_unit_scheme_on_raw_features() {
    // On *unnormalized* IRIS data (sepal lengths up to ~8 cm), a unit
    // scheme saturates every comparison; a scheme built from the real
    // feature ranges preserves fidelity.
    let data = Dataset::iris(400, 9); // raw, not normalized
    let mut mins = vec![f32::INFINITY; 4];
    let mut maxs = vec![f32::NEG_INFINITY; 4];
    for row in data.frame().rows() {
        for (j, &v) in row.iter().enumerate() {
            mins[j] = mins[j].min(v);
            maxs[j] = maxs[j].max(v);
        }
    }
    // A model whose thresholds live in raw feature units.
    let trained = mlscore_forest::ForestBuilder::new(
        9,
        mlscore_forest::TrainOptions {
            max_depth: 6,
            seed: 2,
        },
    )
    .train_classifier(data.frame().as_slice(), 4, data.labels(), 3)
    .unwrap();

    let ranged =
        QuantizedForest::from_forest(&trained, QuantScheme::from_ranges(&mins, &maxs)).unwrap();
    let unit = QuantizedForest::from_forest(&trained, QuantScheme::unit(4)).unwrap();
    let ranged_rate = ranged.mismatch_rate(&trained, data.frame().as_slice());
    let unit_rate = unit.mismatch_rate(&trained, data.frame().as_slice());
    assert!(ranged_rate < 0.02, "ranged scheme mismatch {ranged_rate}");
    assert!(
        unit_rate > ranged_rate,
        "unit scheme ({unit_rate}) should be worse than ranged ({ranged_rate}) on raw data"
    );
}
