//! Property tests for the serving engine: request conservation under
//! arbitrary configurations, bit-exactness of coalesced scoring, and the
//! FIFO-within-model dispatch guarantee under batch stealing.

use proptest::prelude::*;

use mlscore_backend::{compile, OnnxCpu, ScoringBackend, SklearnCpu};
use mlscore_data::TabularFrame;
use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};
use mlscore_sched::paper_backends;
use mlscore_serve::{
    score_merged_stream, JournalKind, ModelCatalog, ServeConfig, ServeEngine, WorkloadSpec,
};
use mlscore_telemetry::Tracer;

fn arb_rate() -> impl Strategy<Value = f64> {
    20.0f64..5_000.0
}

fn arb_config() -> impl Strategy<Value = ServeConfig> {
    (
        prop_oneof![Just(None::<usize>), (0usize..12).prop_map(Some)],
        any::<bool>(),
    )
        .prop_map(|(capacity, coalesce)| ServeConfig {
            capacity,
            interactive_slo: None,
            analytical_slo: None,
            coalesce,
            cpu_seats: 4,
            gpu_streams: 2,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every offered request is accounted for exactly once — completed,
    /// rejected, or unservable — no matter the queue bound, coalescing, or
    /// offered rate.
    #[test]
    fn requests_are_conserved_under_any_configuration(
        config in arb_config(),
        rate_qps in arb_rate(),
        queries in 1usize..60,
        seed in 0u64..1 << 16,
    ) {
        let coalesce = config.coalesce;
        let engine = ServeEngine::new(paper_backends(), ModelCatalog::paper_mix(), config);
        let spec = WorkloadSpec { queries, seed, rate_qps };
        let report = engine.run(&spec, &Tracer::disabled()).unwrap();
        prop_assert!(report.is_conserved());
        prop_assert_eq!(report.offered, queries as u64);
        prop_assert_eq!(
            report.completed + report.shed() + report.unservable,
            queries as u64
        );
        // Coalescing off means strictly one request per pass.
        if !coalesce {
            prop_assert_eq!(report.coalesced_batches, 0);
            prop_assert!(
                report.batch_sizes.keys().all(|&size| size == 1),
                "batch sizes {:?} without coalescing",
                report.batch_sizes
            );
        }
        // The run is deterministic: a rerun writes the same journal.
        let rerun = engine.run(&spec, &Tracer::disabled()).unwrap();
        prop_assert_eq!(rerun.journal.to_jsonl(), report.journal.to_jsonl());
    }

    /// Scoring `k` same-model requests as one concatenated pass and
    /// splitting the predictions is bit-identical to scoring each request
    /// alone — on both a single- and a multi-threaded CPU backend.
    #[test]
    fn coalesced_scoring_is_bit_exact(
        row_counts in proptest::collection::vec(1usize..24, 1..6),
        trees in 1usize..24,
        depth in 2usize..7,
        seed in 0u64..1 << 16,
        multi_class in any::<bool>(),
    ) {
        let n_features = 4;
        let n_classes = if multi_class { 3 } else { 2 };
        let cfg = ForestConfig::classification(trees, n_features, n_classes).with_depth(depth);
        let forest = RandomForest::synthetic_full(&cfg, seed);
        let frames: Vec<TabularFrame> = row_counts
            .iter()
            .enumerate()
            .map(|(i, &rows)| {
                let data = (0..rows * n_features)
                    .map(|j| {
                        let x = (j as u64)
                            .wrapping_mul(2_654_435_761)
                            .wrapping_add(seed ^ i as u64);
                        (x % 1_000) as f32 / 1_000.0
                    })
                    .collect();
                TabularFrame::from_rows(data, n_features).unwrap()
            })
            .collect();
        let refs: Vec<&TabularFrame> = frames.iter().collect();
        let backends: [Box<dyn ScoringBackend>; 2] = [
            Box::new(SklearnCpu::with_threads(1)),
            Box::new(OnnxCpu::with_threads(4)),
        ];
        let bundle = ModelBundle::serialize(&forest);
        for backend in &backends {
            let model = compile(backend, &bundle).unwrap();
            let split = score_merged_stream(backend.as_ref(), &model, &refs, 8).unwrap();
            prop_assert_eq!(split.len(), frames.len());
            for (frame, got) in frames.iter().zip(&split) {
                let solo = forest.predict_batch(frame.as_slice());
                prop_assert_eq!(got, &solo);
            }
        }
    }

    /// The coalescer may steal later same-model requests past earlier
    /// other-model ones, but two requests for the same model always
    /// dispatch in arrival order, and requests inside one pass are
    /// contiguous among the journal's dispatch entries.
    #[test]
    fn same_model_dispatch_order_is_fifo_under_stealing(
        config in arb_config(),
        rate_qps in arb_rate(),
        queries in 2usize..60,
        seed in 0u64..1 << 16,
    ) {
        let engine = ServeEngine::new(paper_backends(), ModelCatalog::paper_mix(), config);
        let spec = WorkloadSpec { queries, seed, rate_qps };
        let report = engine.run(&spec, &Tracer::disabled()).unwrap();
        let mut model_of = std::collections::HashMap::new();
        let mut last_id_for_model = std::collections::HashMap::new();
        let mut last_batch = None;
        let mut dispatched = 0;
        for entry in report.journal.entries() {
            let batch = match entry.kind {
                JournalKind::Arrival { model, .. } => {
                    model_of.insert(entry.id, model);
                    continue;
                }
                JournalKind::Dispatched { batch, .. } => batch,
                _ => continue,
            };
            dispatched += 1;
            let model = model_of[&entry.id];
            // Request ids are issued in arrival order, so FIFO-within-model
            // means ids strictly increase per model across dispatches.
            if let Some(prev) = last_id_for_model.insert(model, entry.id) {
                prop_assert!(prev < entry.id, "model {} dispatched {} after {}", model, entry.id, prev);
            }
            // Batch sequence numbers never interleave: dispatches are
            // grouped by pass, in dispatch order.
            if let Some(prev) = last_batch {
                prop_assert!(batch >= prev);
            }
            last_batch = Some(batch);
        }
        prop_assert_eq!(dispatched, report.completed);
        prop_assert!(report.is_conserved());
    }
}
