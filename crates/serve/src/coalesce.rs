//! Micro-batch coalescing: merging queued requests for the same compiled
//! model into one device pass.
//!
//! Accelerator scoring pays large fixed per-call costs (CSR setup, model
//! DMA, completion signalling, driver overhead — the paper's `O` and part
//! of `L`), so `k` small same-model requests scored as one merged batch
//! cost one set of fixed overheads instead of `k`. The merge is
//! *bit-exact*: scoring the merged batch and splitting the predictions
//! back per request yields exactly what scoring each request alone would
//! (forest inference is row-independent).

use mlscore_backend::{BackendError, CompiledModel, ScoringBackend};
use mlscore_data::{FrameScanner, RecordStream, TabularFrame};
use mlscore_sim::SimInstant;
use mlscore_telemetry::Tracer;

use crate::error::ServeError;

/// Most requests merged into one device pass.
const MAX_REQUESTS: usize = 64;

/// Most merged records per pass. The first request always fits, so an
/// oversized single request still dispatches (as a batch of one).
const MAX_RECORDS: u64 = 1_000_000;

/// The `(requests, records)` caps on one device pass: with coalescing
/// off, one request of any size.
pub(crate) fn batch_caps(coalesce: bool) -> (usize, u64) {
    if coalesce {
        (MAX_REQUESTS, MAX_RECORDS)
    } else {
        (1, u64::MAX)
    }
}

/// Functionally scores `frames` as one coalesced device pass on `backend`
/// and splits the predictions back per input frame. A chained
/// [`FrameScanner`] pulls cache-sized chunks straight off the request
/// frames (lending each one that fits in a chunk whole) — never
/// materializing a concatenated copy — and the warm `model` scores them.
/// Bit-exact with scoring each frame alone: chunks never span frame
/// boundaries and forest inference is row-independent, so the folded
/// predictions split back per request on the same row counts.
///
/// # Errors
///
/// Returns [`ServeError::EmptyBatch`] for zero frames; mixed feature
/// widths among `frames` surface as [`BackendError::Unsupported`] and
/// backend scoring errors propagate as [`ServeError::Backend`].
pub fn score_merged_stream(
    backend: &dyn ScoringBackend,
    model: &CompiledModel,
    frames: &[&TabularFrame],
    chunk_rows: usize,
) -> Result<Vec<Vec<u32>>, ServeError> {
    if frames.is_empty() {
        return Err(ServeError::EmptyBatch);
    }
    let mut scanner = FrameScanner::chain(frames, chunk_rows)
        .map_err(|e| BackendError::unsupported(backend.name(), format!("chained frames: {e}")))?;
    let bound = model.bind(backend.name(), scanner.n_features())?;
    let out = backend.score(bound, &mut scanner, &Tracer::disabled(), SimInstant::ZERO)?;
    Ok(split_predictions(
        out.predictions,
        frames.iter().map(|f| f.n_rows()),
    ))
}

/// Splits one class-id vector back into per-request vectors by row count.
fn split_predictions(merged: Vec<u32>, counts: impl Iterator<Item = usize>) -> Vec<Vec<u32>> {
    let mut rest = merged.as_slice();
    let out = counts
        .map(|n| {
            let (head, tail) = rest.split_at(n);
            rest = tail;
            head.to_vec()
        })
        .collect();
    debug_assert!(rest.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_backend::{compile, SklearnCpu};
    use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};

    fn frame(seed: u64, rows: usize, n_features: usize) -> TabularFrame {
        let data = (0..rows * n_features)
            .map(|i| ((i as u64 * 2_654_435_761 + seed * 97) % 1_000) as f32 / 1_000.0)
            .collect();
        TabularFrame::from_rows(data, n_features).unwrap()
    }

    #[test]
    fn merged_scoring_is_bit_exact_per_request() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(16, 4, 3).with_depth(6), 21);
        let backend = SklearnCpu::with_threads(2);
        let model = compile(&backend, &ModelBundle::serialize(&forest)).unwrap();
        let frames = [frame(1, 13, 4), frame(2, 1, 4), frame(3, 40, 4)];
        let refs: Vec<&TabularFrame> = frames.iter().collect();
        for chunk_rows in [1, 8, 512] {
            let split = score_merged_stream(&backend, &model, &refs, chunk_rows).unwrap();
            assert_eq!(split.len(), 3);
            for (frame, got) in frames.iter().zip(&split) {
                let solo = forest.predict_batch(frame.as_slice());
                assert_eq!(got, &solo, "chunk_rows={chunk_rows}");
            }
        }
    }

    #[test]
    fn fused_merge_rejects_empty_and_mixed_widths() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(4, 3, 2).with_depth(4), 1);
        let backend = SklearnCpu::with_threads(1);
        let model = compile(&backend, &ModelBundle::serialize(&forest)).unwrap();
        assert!(matches!(
            score_merged_stream(&backend, &model, &[], 64),
            Err(ServeError::EmptyBatch)
        ));
        let a = frame(1, 4, 3);
        let b = frame(2, 4, 5);
        assert!(matches!(
            score_merged_stream(&backend, &model, &[&a, &b], 64),
            Err(ServeError::Backend(_))
        ));
    }

    #[test]
    fn disabled_config_caps_batches_at_one() {
        let (on_requests, on_records) = batch_caps(true);
        assert!(on_requests > 1);
        assert!(on_records < u64::MAX);
        assert_eq!(batch_caps(false), (1, u64::MAX));
    }
}
