//! Chunked scoring off a [`RecordStream`]: the executor end of the fused
//! scan→featurize→score path.
//!
//! [`score_stream`] is the one chunk loop both CPU backends share: it pulls
//! cache-sized chunks from a scanner and hands each one to the caller's
//! per-chunk kernel — the SIMD lane walker over a
//! [`FlatImage`](crate::FlatImage) for the ONNX-like backend, the
//! pointer-tree kernel for the scikit-learn-like one.
//!
//! Per-chunk predictions are folded deterministically: every record is
//! fully scored within exactly one chunk, and both kernels are bit-exact at
//! any batch size, so appending chunk predictions in pull order
//! reproduces the whole-frame result bit for bit (pinned by
//! `tests/fused_stream.rs`).

use mlscore_data::{RecordStream, TabularFrame};

use crate::report::RunReport;

/// One scored chunk: its row count and the executor's wall-clock report
/// for the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRun {
    /// Rows in the chunk.
    pub rows: usize,
    /// Measured per-worker occupancy of the chunk's executor run.
    pub run: RunReport,
}

/// Summary of one [`score_stream`] run.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct StreamReport {
    rows: usize,
    chunks: Vec<ChunkRun>,
}

impl StreamReport {
    /// Total rows scored.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Per-chunk rows and executor runs, in pull order.
    pub fn chunks(&self) -> &[ChunkRun] {
        &self.chunks
    }
}

/// Scores every non-empty chunk of `stream` with `score_chunk`, appending
/// per-chunk class ids in pull order. A stream that yields no rows returns
/// no class ids and never calls `score_chunk`.
///
/// # Panics
///
/// Propagates `score_chunk`'s panics — the kernels panic if the stream's
/// feature count differs from the model's.
pub fn score_stream(
    stream: &mut dyn RecordStream,
    mut score_chunk: impl FnMut(&TabularFrame) -> (Vec<u32>, RunReport),
) -> (Vec<u32>, StreamReport) {
    let mut report = StreamReport::default();
    let mut out = Vec::new();
    while let Some(chunk) = stream.next_chunk() {
        if chunk.is_empty() {
            continue;
        }
        let (preds, run) = score_chunk(chunk);
        report.rows += chunk.n_rows();
        report.chunks.push(ChunkRun {
            rows: chunk.n_rows(),
            run,
        });
        out.extend_from_slice(&preds);
    }
    (out, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::score_forest_batch;
    use crate::kernel_simd::{score_simd_batch, FlatImage, SimdLevel};
    use crate::pool::{ExecPool, RunConfig};
    use mlscore_data::{Dataset, FrameScanner};
    use mlscore_forest::{ForestConfig, RandomForest};
    use mlscore_sim::SimInstant;
    use mlscore_telemetry::Tracer;

    fn image(trees: usize, depth: usize, classes: u32, seed: u64) -> (RandomForest, FlatImage) {
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(trees, 4, classes).with_depth(depth),
            seed,
        );
        let image = FlatImage::from_forest(&forest, depth).unwrap();
        (forest, image)
    }

    /// Streams `frame` through the SIMD walker at the detected tier.
    fn simd_stream(image: &FlatImage, stream: &mut dyn RecordStream) -> (Vec<u32>, StreamReport) {
        let level = SimdLevel::detect();
        let cfg = RunConfig::default();
        score_stream(stream, |chunk| {
            score_simd_batch(image, chunk, ExecPool::global(), &cfg, level)
        })
    }

    #[test]
    fn stream_scoring_matches_whole_frame() {
        let (forest, image) = image(16, 6, 3, 7);
        let data = Dataset::iris(333, 9).normalized();
        let want = forest.predict_batch(data.frame().as_slice());
        let cfg = RunConfig::default();
        for chunk_rows in [1, 7, 64, 1000] {
            let mut scanner = FrameScanner::new(data.frame(), chunk_rows);
            let (got, report) = simd_stream(&image, &mut scanner);
            assert_eq!(got, want, "simd chunk_rows={chunk_rows}");
            assert_eq!(report.rows(), 333);
            assert_eq!(report.chunks().len(), 333usize.div_ceil(chunk_rows));
            let mut scanner = FrameScanner::new(data.frame(), chunk_rows);
            let (got, report) = score_stream(&mut scanner, |chunk| {
                score_forest_batch(&forest, chunk, ExecPool::global(), &cfg)
            });
            assert_eq!(got, want, "forest chunk_rows={chunk_rows}");
            assert_eq!(report.chunks().len(), 333usize.div_ceil(chunk_rows));
        }
    }

    #[test]
    fn every_chunk_records_measured_worker_spans() {
        let (_, image) = image(8, 5, 2, 4);
        let data = Dataset::iris(200, 3).normalized();
        let mut scanner = FrameScanner::new(data.frame(), 64);
        let (_, report) = simd_stream(&image, &mut scanner);
        let tracer = Tracer::new();
        crate::report::record_sequential_spans(
            report.chunks().iter().map(|c| &c.run),
            &tracer,
            SimInstant::ZERO,
            "exec",
        );
        let trace = tracer.take();
        let workers = trace
            .events()
            .iter()
            .filter(|e| e.name.starts_with("exec worker"))
            .count();
        assert!(workers >= report.chunks().len(), "{workers} worker spans");
    }

    #[test]
    fn empty_stream_yields_empty_predictions_of_the_right_kind() {
        let (_, image) = image(4, 4, 3, 1);
        let frame = TabularFrame::from_rows(vec![], 4).unwrap();
        let mut scanner = FrameScanner::new(&frame, 8);
        let (preds, report) = simd_stream(&image, &mut scanner);
        assert!(preds.is_empty());
        assert_eq!(report.rows(), 0);
        assert_eq!(report.chunks().len(), 0);
    }
}
