//! Property tests on the FPGA inference engine: multi-pass voting, cycle
//! accounting, the backend's scoring time against that accounting, and
//! BRAM-driven capacity boundaries for arbitrary model shapes.

use proptest::prelude::*;

use mlscore::prelude::*;
use mlscore_backend::ScoringBackend;
use mlscore_fpga::{EngineConfig, FpgaBackend, FpgaDevice, InferenceEngine, MemoryBackend};
use mlscore_sim::{SimInstant, Stage};
use mlscore_telemetry::Tracer;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn multi_pass_equals_reference_for_any_tree_count(
        n_trees in 1usize..400,
        depth in 0usize..7,
        n_classes in 2u32..5,
        seed in any::<u64>(),
    ) {
        let cfg = ForestConfig::classification(n_trees, 4, n_classes).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let data: Vec<f32> = (0..24 * 4).map(|i| (i as f32 * 0.173) % 1.0).collect();
        let engine = InferenceEngine::paper_default();
        let model = engine.load(&forest).unwrap();
        prop_assert_eq!(model.passes(), n_trees.div_ceil(128));
        let run = engine.execute(&model, &data);
        prop_assert_eq!(run.predictions, forest.predict_batch(&data));
        // Cycle accounting scales with passes.
        prop_assert_eq!(run.report.passes, model.passes());
        prop_assert_eq!(
            run.report.streaming_cycles,
            24 * model.passes() as u64
        );
    }

    #[test]
    fn cycle_reports_are_data_independent(
        n_trees in 1usize..64,
        depth in 1usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = ForestConfig::classification(n_trees, 3, 2).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let engine = InferenceEngine::paper_default();
        let model = engine.load(&forest).unwrap();
        let a: Vec<f32> = vec![0.0; 30];
        let b: Vec<f32> = (0..30).map(|i| (i as f32 * 0.777) % 1.0).collect();
        let run_a = engine.execute(&model, &a);
        let run_b = engine.execute(&model, &b);
        // The pipeline is data-oblivious: identical cycle accounting for
        // any record values.
        prop_assert_eq!(run_a.report, run_b.report);
    }

    #[test]
    fn estimate_scoring_is_the_cycle_report_at_the_clock_or_the_stream(
        n_trees in 1usize..400,
        depth in 0usize..6,
        n_features in 1usize..40,
        n_records in 1u64..5_000_000,
        seed in any::<u64>(),
    ) {
        let cfg = ForestConfig::classification(n_trees, n_features, 2).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let stats = ModelStats::of(&forest);
        let backend = FpgaBackend::paper_default();
        let engine = backend.engine();
        let report = engine.cycle_report(&engine.load(&forest).unwrap(), n_records);
        let passes = report.passes as u64;
        let device = engine.device();
        // Each pass runs the pipeline and the overlapped record stream side
        // by side, so it takes the longer of the two.
        let per_pass = device
            .clock
            .cycles(report.total_cycles / passes)
            .max(device.link.stream(n_records * stats.row_bytes() as u64));
        let breakdown =
            backend.estimate(&stats, n_records, &Tracer::disabled(), SimInstant::ZERO);
        prop_assert_eq!(breakdown.get(Stage::Scoring), per_pass * passes as f64);
    }

    #[test]
    fn pe_count_determines_pass_count(
        pe_count in 1usize..200,
        n_trees in 1usize..200,
        seed in any::<u64>(),
    ) {
        let cfg = ForestConfig::classification(n_trees, 3, 2).with_depth(4);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let engine = InferenceEngine::new(
            FpgaDevice::stratix10_gx2800(),
            EngineConfig {
                pe_count,
                ..EngineConfig::default()
            },
        );
        let model = engine.load(&forest).unwrap();
        prop_assert_eq!(model.passes(), n_trees.div_ceil(pe_count));
        let data: Vec<f32> = (0..15).map(|i| (i as f32 * 0.41) % 1.0).collect();
        let run = engine.execute(&model, &data);
        prop_assert_eq!(run.predictions, forest.predict_batch(&data));
    }

    #[test]
    fn ddr_backend_matches_bram_functionally(
        n_trees in 1usize..32,
        depth in 0usize..6,
        seed in any::<u64>(),
    ) {
        let cfg = ForestConfig::classification(n_trees, 4, 3).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let data: Vec<f32> = (0..20 * 4).map(|i| (i as f32 * 0.59) % 1.0).collect();
        let bram = InferenceEngine::paper_default();
        let ddr = InferenceEngine::new(
            FpgaDevice::stratix10_gx2800(),
            EngineConfig {
                memory: MemoryBackend::Ddr,
                ..EngineConfig::default()
            },
        );
        let run_bram = bram.execute(&bram.load(&forest).unwrap(), &data);
        let run_ddr = ddr.execute(&ddr.load(&forest).unwrap(), &data);
        // Memory placement changes timing, never results.
        prop_assert_eq!(run_bram.predictions, run_ddr.predictions);
        prop_assert!(run_ddr.report.total_cycles >= run_bram.report.total_cycles);
    }
}
