//! Property tests for the fused scan→featurize→score path: streaming
//! chunks through `ScoringBackend::score` must be bit-exact with scoring
//! the staged (materialized, pre-normalized) frame — across backends,
//! chunk sizes, and executor thread counts.

use proptest::prelude::*;

use mlscore::backend::{compile, CompiledModel, OnnxCpu, SklearnCpu, StreamOutcome};
use mlscore::forest::ModelBundle;
use mlscore::prelude::*;
use mlscore::sched::paper_backends;

/// The chunk sizes the contract must hold at: degenerate single-row
/// chunks, a sub-lane tail on every chunk, exactly one SIMD lane group,
/// and a chunk bigger than any test frame (one pull).
const CHUNK_SIZES: [usize; 4] = [
    1,
    mlscore::exec::kernel::LANES - 1,
    mlscore::exec::kernel::LANES,
    4096,
];

/// Scores `stream` against the compiled `model` on `backend`, untraced.
fn score_stream(
    backend: &dyn ScoringBackend,
    model: &CompiledModel,
    stream: &mut dyn RecordStream,
) -> StreamOutcome {
    let bound = model
        .bind(backend.name(), stream.n_features())
        .expect("compiled for this backend");
    backend
        .score(bound, stream, &Tracer::disabled(), SimInstant::ZERO)
        .expect("fused scoring")
}

fn arb_frame() -> impl Strategy<Value = TabularFrame> {
    (1usize..6).prop_flat_map(|n_features| {
        proptest::collection::vec(-1e6f32..1e6, n_features..n_features * 40).prop_map(
            move |mut v| {
                v.truncate(v.len() / n_features * n_features);
                TabularFrame::from_rows(v, n_features).expect("shape consistent")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Fused == staged on both CPU backends at every chunk size and two
    /// executor widths. The staged reference materializes the normalized
    /// copy and scores it whole; the fused side streams normalized chunks
    /// off the raw frame.
    #[test]
    fn fused_matches_staged_across_backends_chunks_and_threads(
        frame in arb_frame(),
        seed in 0u64..512,
    ) {
        prop_assume!(!frame.is_empty());
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(12, frame.n_features(), 3).with_depth(6),
            seed,
        );
        let bundle = ModelBundle::serialize(&forest);
        for threads in [1usize, 4] {
            let backends: [Box<dyn ScoringBackend>; 2] = [
                Box::new(SklearnCpu::with_threads(threads)),
                Box::new(OnnxCpu::with_threads(threads)),
            ];
            for backend in &backends {
                let model = compile(&**backend, &bundle).expect("compile");
                let staged = score_once(backend, &forest, &frame.normalized())
                    .expect("staged scoring");
                for chunk_rows in CHUNK_SIZES {
                    let mut stream = NormalizeStream::new(
                        FrameScanner::new(&frame, chunk_rows),
                        NormParams::fit(&frame),
                    );
                    let out = score_stream(backend.as_ref(), &model, &mut stream);
                    prop_assert_eq!(out.rows, frame.n_rows());
                    prop_assert_eq!(
                        &out.predictions,
                        &staged,
                        "fused diverged on {} at chunk_rows={} threads={}",
                        backend.name(),
                        chunk_rows,
                        threads
                    );
                }
            }
        }
    }
}

/// Every paper backend — including the offload devices that gather the
/// stream into one batch — honours the fused
/// bit-exactness contract at every chunk size.
#[test]
fn fused_matches_staged_on_every_paper_backend() {
    let raw = Dataset::higgs(700, 11);
    let frame = raw.frame();
    let forest = RandomForest::synthetic_full(
        &ForestConfig::classification(16, frame.n_features(), 2).with_depth(7),
        3,
    );
    let bundle = ModelBundle::serialize(&forest);
    for backend in paper_backends() {
        let model = compile(&*backend, &bundle).expect("compile");
        let staged = score_once(&backend, &forest, &frame.normalized()).expect("staged scoring");
        for chunk_rows in CHUNK_SIZES {
            let mut stream =
                NormalizeStream::new(FrameScanner::new(frame, chunk_rows), NormParams::fit(frame));
            let out = score_stream(backend.as_ref(), &model, &mut stream);
            assert_eq!(out.rows, frame.n_rows());
            assert_eq!(
                out.predictions,
                staged,
                "fused diverged on {} at chunk_rows={chunk_rows}",
                backend.name()
            );
            // Chunk accounting partitions the rows exactly.
            assert_eq!(
                out.chunks.iter().map(|c| c.rows).sum::<usize>(),
                frame.n_rows()
            );
        }
    }
}
