//! Property tests on the model representations: serialization and the flat
//! layout must both roundtrip losslessly, and flat-layout scoring must
//! agree with tree scoring on arbitrary inputs. The paper models' bundle
//! bytes are pinned: their lengths feed the modelled transfer and
//! deserialization costs, and their hashes key the artifact cache. So are
//! the bundles of every model a test or example trains.

use proptest::prelude::*;

use mlscore::prelude::*;
use mlscore_core::calibration::paper_model;
use mlscore_forest::{FlatForest, FlatTree, ForestBuilder, ForestError, ModelBundle, TrainOptions};

fn arb_config() -> impl Strategy<Value = ForestConfig> {
    (1usize..10, 0usize..9, 1usize..12, 2u32..6).prop_map(
        |(n_trees, depth, n_features, n_classes)| {
            ForestConfig::classification(n_trees, n_features, n_classes).with_depth(depth)
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bundle_roundtrip_full(config in arb_config(), seed in any::<u64>()) {
        let forest = RandomForest::synthetic_full(&config, seed);
        let bundle = ModelBundle::serialize(&forest);
        prop_assert_eq!(bundle.deserialize().unwrap(), forest);
    }

    #[test]
    fn bundle_roundtrip_capped(
        config in arb_config(),
        max_leaves in 1usize..300,
        seed in any::<u64>(),
    ) {
        let forest = RandomForest::synthetic_capped(&config, max_leaves, seed);
        let bundle = ModelBundle::serialize(&forest);
        prop_assert_eq!(bundle.deserialize().unwrap(), forest);
    }

    #[test]
    fn truncated_bundles_never_panic(
        config in arb_config(),
        seed in any::<u64>(),
        cut_fraction in 0.0f64..1.0,
    ) {
        let forest = RandomForest::synthetic_full(&config, seed);
        let raw = ModelBundle::serialize(&forest).as_bytes().to_vec();
        let cut = ((raw.len() as f64) * cut_fraction) as usize;
        if cut < raw.len() {
            let bundle = ModelBundle::from_bytes(&raw[..cut]);
            prop_assert!(bundle.deserialize().is_err());
        }
    }

    #[test]
    fn corrupted_bundles_never_roundtrip_silently_wrong(
        config in arb_config(),
        seed in any::<u64>(),
        flip_byte in any::<usize>(),
        flip_bits in 1u8..=255,
    ) {
        // Flipping bits may or may not produce a parseable bundle, but it
        // must never panic, and if it parses the result must still be a
        // structurally valid forest (from_trees validation holds).
        let forest = RandomForest::synthetic_full(&config, seed);
        let mut raw = ModelBundle::serialize(&forest).as_bytes().to_vec();
        let idx = flip_byte % raw.len();
        raw[idx] ^= flip_bits;
        let bundle = ModelBundle::from_bytes(raw);
        if let Ok(parsed) = bundle.deserialize() {
            // Structural invariants held by construction.
            prop_assert!(parsed.n_trees() > 0);
            for tree in parsed.trees() {
                prop_assert!(tree.validate(parsed.n_features(), parsed.n_classes()).is_ok());
            }
        }
    }

    #[test]
    fn flat_layout_roundtrips_and_scores_identically(
        config in arb_config(),
        seed in any::<u64>(),
        xs in proptest::collection::vec(0.0f32..1.0, 12),
    ) {
        let forest = RandomForest::synthetic_full(&config, seed);
        let flat = FlatForest::from_forest(&forest, config.depth).unwrap();
        // Roundtrip each tree.
        for (flat_tree, tree) in flat.trees().iter().zip(forest.trees()) {
            prop_assert_eq!(&flat_tree.to_tree().unwrap(), tree);
        }
        // Score an arbitrary record.
        let row = &xs[..config.n_features.min(xs.len())];
        if row.len() == config.n_features {
            prop_assert_eq!(flat.score_one(row), forest.predict_one(row));
        }
    }

    #[test]
    fn flat_tree_path_never_exceeds_capacity_depth(
        depth in 0usize..10,
        seed in any::<u64>(),
        xs in proptest::collection::vec(0.0f32..1.0, 6),
    ) {
        let cfg = ForestConfig::classification(1, 6, 2).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let flat = FlatTree::from_tree(&forest.trees()[0], 10).unwrap();
        let (_, visited) = flat.score_counting(&xs);
        prop_assert!(visited <= 11, "visited {} records", visited);
    }
}

#[test]
fn bundle_len_matches_bytes() {
    let cfg = ForestConfig::classification(2, 3, 2).with_depth(3);
    let forest = RandomForest::synthetic_full(&cfg, 1);
    let bundle = ModelBundle::serialize(&forest);
    assert_eq!(bundle.len(), bundle.as_bytes().len());
}

/// The paper models' bundles, byte for byte: length and FNV-1a hash of
/// `ModelBundle::serialize` for the four shapes the figures sweep.
#[test]
fn paper_model_bundles_are_pinned() {
    for (dataset, trees, depth, len, hash) in [
        (
            DatasetSpec::Iris,
            128,
            10,
            241_811,
            0xe5b3_e10c_b7d7_5846u64,
        ),
        (
            DatasetSpec::Higgs,
            128,
            10,
            2_620_051,
            0x7797_c3b4_ffd5_e2cd,
        ),
        (DatasetSpec::Iris, 1, 6, 1_288, 0x742f_f7c8_ccd6_291c),
        (DatasetSpec::Higgs, 1, 6, 1_288, 0xb442_f836_9f89_22d8),
    ] {
        let bundle = ModelBundle::serialize(&paper_model(dataset, trees, depth));
        let what = format!("{dataset:?} {trees}x{depth}");
        assert_eq!(bundle.len(), len, "{what}");
        assert_eq!(bundle.content_hash(), hash, "{what}");
    }
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// The traced query timelines, byte for byte: length and FNV-1a of the
/// Perfetto export of `QueryPipeline::estimate` for every backend on the
/// HIGGS 128x10 paper model at 1M records, staged cold and fused warm,
/// plus the 3-pass FPGA HIGGS 300x10 model (the only case with an
/// inter-pass driver span). Span names, lanes, metadata, placement and
/// the recording order all feed these bytes.
#[test]
fn traced_query_estimates_are_pinned() {
    use mlscore::backend::{OnnxCpu, SklearnCpu};
    use mlscore::fpga::FpgaBackend;
    use mlscore::gpu::{HummingbirdGpu, RapidsFil};
    use mlscore::pipeline::{QueryPipeline, QueryPlan};
    use mlscore::telemetry::perfetto;

    let backend = |name: &str| -> Box<dyn ScoringBackend> {
        match name {
            "onnx52" => Box::new(OnnxCpu::paper_52th()),
            "onnx1" => Box::new(OnnxCpu::single_thread()),
            "sklearn" => Box::new(SklearnCpu::paper_default()),
            "hummingbird" => Box::new(HummingbirdGpu::p100()),
            "rapids" => Box::new(RapidsFil::p100()),
            _ => Box::new(FpgaBackend::paper_default()),
        }
    };
    let staged = QueryPlan::Staged { warm: false };
    let fused = QueryPlan::Fused {
        chunk_rows: DEFAULT_CHUNK_ROWS,
        warm: true,
    };
    let pins: [(&str, usize, QueryPlan, usize, u64); 13] = [
        ("onnx52", 128, staged, 1_875, 0x658a_2d44_6843_b9f3),
        ("onnx52", 128, fused, 288_137, 0xaded_e2c8_b252_7a7a),
        ("onnx1", 128, staged, 1_703, 0x7b46_5bff_4c91_6469),
        ("onnx1", 128, fused, 290_154, 0x1a10_41b8_5000_74e8),
        ("sklearn", 128, staged, 3_401, 0xbd48_5fa4_d3b7_8ce2),
        ("sklearn", 128, fused, 291_464, 0xd907_16b0_5ec5_3e3d),
        ("hummingbird", 128, staged, 3_286, 0xced4_9398_3aff_105b),
        ("hummingbird", 128, fused, 289_859, 0x8f03_845e_660a_7796),
        ("rapids", 128, staged, 3_269, 0x9d23_ce53_ad15_7b2b),
        ("rapids", 128, fused, 289_725, 0xbb62_820a_9b2c_7c1b),
        ("fpga", 128, staged, 2_804, 0xbc46_13d1_6778_c3d6),
        ("fpga", 128, fused, 286_728, 0x9e36_1038_f952_6daf),
        ("fpga", 300, staged, 4_986, 0xd106_a513_373e_09ae),
    ];
    for (name, trees, plan, len, hash) in pins {
        let forest = paper_model(DatasetSpec::Higgs, trees, 10);
        let stats = ModelStats::of(&forest);
        let bundle_len = ModelBundle::serialize(&forest).len() as u64;
        let tracer = Tracer::new();
        QueryPipeline::new(backend(name)).estimate(
            plan,
            &stats,
            bundle_len,
            1_000_000,
            &tracer,
            SimInstant::ZERO,
        );
        let json = perfetto::to_json(&tracer.take());
        let what = format!("{name} {trees}x10 {plan:?}");
        assert_eq!(json.len(), len, "{what}");
        assert_eq!(fnv1a(json.as_bytes()), hash, "{what}");
    }
}

/// A bundle with task tag 1 (a one-leaf regression tree predicting 1.0)
/// no longer decodes: every model is a classifier.
#[test]
fn regression_bundle_is_rejected() {
    let raw = [
        77, 76, 83, 66, 1, 0, 1, 0, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 1, 0, 0, 128, 63,
    ];
    let err = ModelBundle::from_bytes(&raw[..]).deserialize().unwrap_err();
    assert!(matches!(err, ForestError::Corrupt(_)), "{err:?}");
}

/// Trains `trees` trees of depth `max_depth` from `seed` on row-major `x`.
fn train(
    trees: usize,
    max_depth: usize,
    seed: u64,
    x: &[f32],
    n_features: usize,
    y: &[u32],
    n_classes: u32,
) -> TrainedModel {
    ForestBuilder::new(trees, TrainOptions { max_depth, seed })
        .train_classifier_detailed(x, n_features, y, n_classes)
        .unwrap()
}

/// Trains on a whole dataset.
fn train_on(trees: usize, max_depth: usize, seed: u64, data: &Dataset) -> TrainedModel {
    train(
        trees,
        max_depth,
        seed,
        data.frame().as_slice(),
        data.frame().n_features(),
        data.labels(),
        data.n_classes(),
    )
}

/// Every model a test or example trains, byte for byte: length and
/// FNV-1a of its bundle (and, for the example that reports them, of its
/// feature importances' bits). Training is a pure function of the data
/// and the options, so any change to the split search that moves a
/// threshold, a feature pick or an RNG draw moves these hashes.
#[test]
fn trained_model_bundles_are_pinned() {
    use mlscore::data::{csv, train_test_split};

    let split = |data: Dataset, seed| train_test_split(&data, 0.8, seed).unwrap().0;
    let iris_e2e = split(Dataset::iris(600, 42), 7);
    let higgs_e2e = split(Dataset::higgs(1_500, 5), 9);
    let iris_raw = Dataset::iris(400, 9);
    let higgs_deploy = split(Dataset::higgs(4_000, 11), 3);
    let higgs_csv = {
        let mut staged = Vec::new();
        csv::write_dataset(&Dataset::higgs(3_000, 21), &mut staged).unwrap();
        csv::read_dataset(staged.as_slice(), true, "HIGGS").unwrap()
    };
    let higgs_8k = Dataset::higgs(8_000, 1);
    // The SIMD kernel's sparse-tree test frame: 300 rows x 5 hashed
    // features, labels hashed into 3 classes.
    let sparse_x: Vec<f32> = (0..300 * 5u64)
        .map(|i| (i.wrapping_mul(2654435761).wrapping_add(17) % 1000) as f32 / 1000.0)
        .collect();
    let sparse_y: Vec<u32> = (0..300usize)
        .map(|i| ((i * 2654435761usize) >> 7) as u32 % 3)
        .collect();

    let pins: [(&str, TrainedModel, usize, u64, u64); 7] = [
        (
            "end_to_end IRIS 20x8",
            train_on(20, 8, 3, &iris_e2e),
            5_259,
            0xff0f_454f_d5e7_9c28,
            0xc0ef_10ea_8478_42e2,
        ),
        (
            "end_to_end HIGGS 10x6",
            train_on(10, 6, 11, &higgs_e2e),
            6_829,
            0xc9d2_779d_fc87_aeb3,
            0xa8bf_9a52_11b8_c458,
        ),
        (
            "quantized IRIS 9x6",
            train_on(9, 6, 2, &iris_raw),
            1_960,
            0x0c5b_6589_52a2_ffdc,
            0x35c1_cd09_3fcd_1c47,
        ),
        (
            "kernel_simd sparse 9x6",
            train(9, 6, 0, &sparse_x, 5, &sparse_y, 3),
            3_300,
            0x92f7_e35d_cf2c_a7b5,
            0xf280_664f_3f13_3643,
        ),
        (
            "train_and_deploy 32x10",
            train_on(32, 10, 5, &higgs_deploy),
            83_747,
            0xe0c5_c6f9_a85c_a6bc,
            0x7272_234b_077f_ffc8,
        ),
        (
            "analyst_workflow 24x10",
            train_on(24, 10, 9, &higgs_csv),
            58_415,
            0x823c_0fb8_60ba_276d,
            0xff63_aa31_65a7_6468,
        ),
        (
            "HIGGS 8k 4x10",
            train_on(4, 10, 1, &higgs_8k),
            17_595,
            0x04d9_4678_5b69_ded5,
            0x4bb7_acc5_2dcf_eccf,
        ),
    ];
    for (what, model, len, hash, importances_hash) in pins {
        let bundle = ModelBundle::serialize(&model.forest);
        assert_eq!(bundle.len(), len, "{what}");
        assert_eq!(bundle.content_hash(), hash, "{what}");
        let importances: Vec<u8> = model
            .feature_importances
            .iter()
            .flat_map(|v| v.to_bits().to_le_bytes())
            .collect();
        assert_eq!(fnv1a(&importances), importances_hash, "{what}");
    }
}
