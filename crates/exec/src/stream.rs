//! Chunked scoring off a [`RecordStream`]: the executor end of the fused
//! scan→featurize→score path.
//!
//! [`score_stream`] pulls cache-sized chunks from a scanner and feeds each
//! one to whichever kernel the [`KernelChoice`] cost model picks for that
//! chunk's row count — the same dispatch
//! [`score_auto_batch`](crate::choice::score_auto_batch) performs for a
//! whole frame, re-ranked per chunk (a short final chunk may fall back to
//! the blocked walker where the full batch would have gone SIMD).
//!
//! Per-chunk predictions are folded deterministically: every record is
//! fully scored within exactly one chunk, and all kernels are bit-exact at
//! any batch size, so appending chunk predictions in pull order
//! reproduces the whole-frame result bit for bit (pinned by
//! `tests/fused_stream.rs`).

use mlscore_data::{RecordStream, TabularFrame};
use mlscore_forest::Predictions;

use crate::choice::{score_auto_batch_at, Kernel, KernelChoice};
use crate::kernel::{self, FlatImage};
use crate::kernel_simd::SimdLevel;
use crate::pool::{ExecPool, RunConfig};
use crate::report::RunReport;

/// One scored chunk: its row count, the kernel the cost model picked for
/// it, and the executor's wall-clock report for the run.
#[derive(Debug, Clone, PartialEq)]
pub struct ChunkRun {
    /// Rows in the chunk.
    pub rows: usize,
    /// The cost model's verdict for this chunk.
    pub choice: KernelChoice,
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

    /// Number of chunks pulled.
    pub fn n_chunks(&self) -> usize {
        self.chunks.len()
    }

    /// Per-chunk rows and kernel picks, in pull order.
    pub fn chunks(&self) -> &[ChunkRun] {
        &self.chunks
    }

    /// Distinct kernels dispatched across the run, in first-use order.
    pub fn kernels(&self) -> Vec<Kernel> {
        let mut out: Vec<Kernel> = Vec::new();
        for c in &self.chunks {
            if !out.contains(&c.choice.kernel) {
                out.push(c.choice.kernel);
            }
        }
        out
    }
}

/// Scores every chunk of `stream` against `image`, folding per-chunk
/// predictions in pull order.
///
/// # Panics
///
/// Panics if the stream's feature count differs from the model's (same
/// contract as the whole-frame kernels).
pub fn score_stream(
    image: &FlatImage,
    stream: &mut dyn RecordStream,
    pool: &ExecPool,
    cfg: &RunConfig,
) -> (Predictions, StreamReport) {
    let level = SimdLevel::detect();
    let mut report = StreamReport::default();
    let mut out: Option<Predictions> = None;
    while let Some(chunk) = stream.next_chunk() {
        if chunk.is_empty() {
            continue;
        }
        let (preds, run, choice) = score_auto_batch_at(level, image, chunk, pool, cfg);
        report.rows += chunk.n_rows();
        report.chunks.push(ChunkRun {
            rows: chunk.n_rows(),
            choice,
            run,
        });
        match &mut out {
            None => out = Some(preds),
            Some(acc) => acc.append(&preds),
        }
    }
    let preds = out.unwrap_or_else(|| empty_predictions(image, pool, cfg));
    (preds, report)
}

/// A zero-record prediction batch of the image's task kind.
fn empty_predictions(image: &FlatImage, pool: &ExecPool, cfg: &RunConfig) -> Predictions {
    let empty = TabularFrame::with_capacity(0, image.stats().n_features);
    kernel::score_image_batch(image, &empty, pool, cfg).0
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn stream_scoring_matches_whole_frame() {
        let (forest, image) = image(16, 6, 3, 7);
        let data = Dataset::iris(333, 9).normalized();
        let want = forest.predict_batch(data.frame().as_slice());
        for chunk_rows in [1, 7, 64, 1000] {
            let mut scanner = FrameScanner::new(data.frame(), chunk_rows);
            let (got, report) = score_stream(
                &image,
                &mut scanner,
                ExecPool::global(),
                &RunConfig::default(),
            );
            assert_eq!(got, want, "chunk_rows={chunk_rows}");
            assert_eq!(report.rows(), 333);
            assert_eq!(report.n_chunks(), 333usize.div_ceil(chunk_rows));
        }
    }

    #[test]
    fn every_chunk_records_measured_worker_spans() {
        let (_, image) = image(8, 5, 2, 4);
        let data = Dataset::iris(200, 3).normalized();
        let mut scanner = FrameScanner::new(data.frame(), 64);
        let (_, report) = score_stream(
            &image,
            &mut scanner,
            ExecPool::global(),
            &RunConfig::default(),
        );
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
        assert!(workers >= report.n_chunks(), "{workers} worker spans");
    }

    #[test]
    fn empty_stream_yields_empty_predictions_of_the_right_kind() {
        let (_, image) = image(4, 4, 3, 1);
        let frame = TabularFrame::from_rows(vec![], 4).unwrap();
        let mut scanner = FrameScanner::new(&frame, 8);
        let (preds, report) = score_stream(
            &image,
            &mut scanner,
            ExecPool::global(),
            &RunConfig::default(),
        );
        assert_eq!(preds, Predictions::Classes(vec![]));
        assert_eq!(report.rows(), 0);
        assert_eq!(report.n_chunks(), 0);
    }

    #[test]
    fn per_chunk_choices_rerank_short_tails() {
        // 128×10 picks SIMD for large chunks but the blocked walker for
        // sub-lane tails — the report records both.
        let (_, image) = image(128, 10, 2, 3);
        let data = Dataset::iris(crate::kernel::LANES * 4 + 3, 5).normalized();
        let mut scanner = FrameScanner::new(data.frame(), crate::kernel::LANES * 4);
        let (_, report) = score_stream(
            &image,
            &mut scanner,
            ExecPool::global(),
            &RunConfig::default(),
        );
        assert_eq!(report.n_chunks(), 2);
        let kernels: Vec<Kernel> = report.chunks().iter().map(|c| c.choice.kernel).collect();
        assert_eq!(
            kernels[1],
            Kernel::Blocked,
            "3-row tail avoids the SIMD path"
        );
        assert_eq!(report.kernels(), vec![Kernel::Simd, Kernel::Blocked]);
    }
}
