//! Pull-based record streaming: the fused scan→featurize→score input path.
//!
//! The paper's core finding is that handing a scoring batch across the
//! SQL↔Python boundary (invocation, marshaling, data pre-processing)
//! dominates end-to-end latency. [`RecordStream`] is the abstraction that
//! *eliminates* those stages in-process instead of simulating them: a
//! pull-based lending iterator yielding cache-sized chunks of feature rows
//! from reusable scratch, so a scanner can walk storage (a frame, several
//! frames back to back, a CSV reader) straight into the executor without
//! ever materializing a full marshaled copy.
//!
//! Scanners allocate their scratch once at construction; refilling a chunk
//! is a plain copy into that scratch — the hot regions carry
//! `// analyze: hot` markers so the workspace H001 lint keeps them
//! allocation-free.
//!
//! # Example
//!
//! ```
//! use mlscore_data::{FrameScanner, RecordStream, TabularFrame};
//!
//! let frame = TabularFrame::from_rows((0..12).map(|i| i as f32).collect(), 3)?;
//! let mut scanner = FrameScanner::new(&frame, 2);
//! let mut rows = 0;
//! while let Some(chunk) = scanner.next_chunk() {
//!     assert!(chunk.n_rows() <= 2);
//!     rows += chunk.n_rows();
//! }
//! assert_eq!(rows, 4);
//! # Ok::<(), mlscore_data::DataError>(())
//! ```

use std::io::BufRead;

use crate::csv::CsvError;
use crate::error::DataError;
use crate::frame::TabularFrame;

/// Default chunk size in rows. 512 rows × 28 HIGGS features × 4 bytes is
/// ~57 KiB — the chunk plus the scoring scratch stays L2-resident on the
/// reference host while still amortizing per-chunk dispatch overhead.
pub const DEFAULT_CHUNK_ROWS: usize = 512;

/// A pull-based stream of feature-row chunks.
///
/// `next_chunk` lends a reference into the stream's own reusable scratch:
/// the chunk is valid until the next `next_chunk` call, and no full copy
/// of the underlying records is ever materialized. Every yielded chunk is
/// non-empty and carries exactly [`n_features`](RecordStream::n_features)
/// columns; records are yielded in source order and each record belongs to
/// exactly one chunk — which is why per-chunk scoring concatenated in
/// chunk order is bit-exact with scoring the whole input at once.
pub trait RecordStream {
    /// Number of feature columns every chunk carries.
    fn n_features(&self) -> usize;

    /// Bounds on the number of *rows* remaining, `(lower, upper)` — same
    /// contract as [`Iterator::size_hint`].
    fn size_hint(&self) -> (usize, Option<usize>);

    /// Yields the next chunk, or `None` when the stream is exhausted (or,
    /// for fallible sources, stopped on an error the scanner exposes
    /// separately).
    fn next_chunk(&mut self) -> Option<&TabularFrame>;
}

/// Streams in-memory [`TabularFrame`]s in row-order chunks: one frame, or
/// several same-width frames back to back (the coalescing path's scanner:
/// `k` queued requests score as one fused pass without ever concatenating
/// their frames).
///
/// Each refill copies one cache-sized row range into the scanner's
/// reusable scratch — the stand-in for a storage engine handing over one
/// page worth of rows. A frame that fits in one chunk (a staged, one-chunk
/// scan — see [`FrameScanner::whole`]) is lent out itself: nothing is
/// copied, and when every frame fits no scratch is allocated. Chunks never
/// span a frame boundary, so splitting the predictions back per frame is a
/// plain row count walk.
#[derive(Debug)]
pub struct FrameScanner<'a> {
    frames: Vec<&'a TabularFrame>,
    n_features: usize,
    chunk_rows: usize,
    frame_idx: usize,
    cursor: usize,
    scratch: TabularFrame,
}

impl<'a> FrameScanner<'a> {
    /// A scanner over `frame` yielding up to `chunk_rows` rows per chunk.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows == 0`.
    pub fn new(frame: &'a TabularFrame, chunk_rows: usize) -> Self {
        Self::over(vec![frame], frame.n_features(), chunk_rows)
    }

    /// A scanner yielding all of `frame` as a single borrowed chunk — how
    /// a staged (whole-batch) call is expressed as a stream.
    pub fn whole(frame: &'a TabularFrame) -> Self {
        Self::new(frame, frame.n_rows().max(1))
    }

    /// A scanner over `frames` back to back, in order.
    ///
    /// # Errors
    ///
    /// Returns [`DataError::ZeroFeatures`] for an empty frame list and
    /// [`DataError::WidthMismatch`] when the frames disagree on column
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows == 0`.
    pub fn chain(frames: &[&'a TabularFrame], chunk_rows: usize) -> Result<Self, DataError> {
        let n_features = frames.first().ok_or(DataError::ZeroFeatures)?.n_features();
        if let Some(odd) = frames.iter().find(|f| f.n_features() != n_features) {
            return Err(DataError::WidthMismatch {
                expected: n_features,
                got: odd.n_features(),
            });
        }
        Ok(Self::over(frames.to_vec(), n_features, chunk_rows))
    }

    /// Builds the scanner over `frames`, which all have `n_features`
    /// columns.
    fn over(frames: Vec<&'a TabularFrame>, n_features: usize, chunk_rows: usize) -> Self {
        assert!(chunk_rows > 0, "chunks must hold at least one row");
        let scratch_rows = if frames.iter().any(|f| f.n_rows() > chunk_rows) {
            chunk_rows
        } else {
            0
        };
        Self {
            frames,
            n_features,
            chunk_rows,
            frame_idx: 0,
            cursor: 0,
            scratch: TabularFrame::with_capacity(scratch_rows, n_features),
        }
    }
}

impl RecordStream for FrameScanner<'_> {
    fn n_features(&self) -> usize {
        self.n_features
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.frames[self.frame_idx..]
            .iter()
            .map(|f| f.n_rows())
            .sum::<usize>()
            - self.cursor;
        (left, Some(left))
    }

    fn next_chunk(&mut self) -> Option<&TabularFrame> {
        // Skip exhausted (or empty) frames.
        while self.frame_idx < self.frames.len()
            && self.cursor >= self.frames[self.frame_idx].n_rows()
        {
            self.frame_idx += 1;
            self.cursor = 0;
        }
        let frame = *self.frames.get(self.frame_idx)?;
        let end = (self.cursor + self.chunk_rows).min(frame.n_rows());
        if self.cursor == 0 && end == frame.n_rows() {
            self.cursor = end;
            return Some(frame);
        }
        let f = self.n_features;
        self.scratch.clear();
        // analyze: hot
        {
            self.scratch
                .extend_rows(&frame.as_slice()[self.cursor * f..end * f]);
        }
        self.cursor = end;
        Some(&self.scratch)
    }
}

/// Streams rows straight off a CSV reader (the [`crate::csv`] dialect:
/// comma-separated numeric fields, optional header, blank lines skipped)
/// without ever holding more than one chunk of parsed rows.
///
/// This is the crate's one CSV parser: [`crate::csv::read_frame`] drains
/// a scanner. Each row's fields parse left to right before its width is
/// checked, so a bad field in a short row reports as
/// [`CsvError::BadField`], not [`CsvError::RaggedRow`].
///
/// The column width is learned from the first data row at construction.
/// Parse or I/O errors *during* streaming end the stream (`next_chunk`
/// returns `None`, dropping the partial chunk); [`CsvScanner::error`]
/// tells a truncated scan from a clean one.
#[derive(Debug)]
pub struct CsvScanner<R: BufRead> {
    reader: R,
    line_no: usize,
    n_features: usize,
    chunk_rows: usize,
    pending: Vec<f32>,
    line: String,
    scratch: TabularFrame,
    error: Option<CsvError>,
    done: bool,
}

impl<R: BufRead> CsvScanner<R> {
    /// Opens a streaming scanner, reading (and validating) the first data
    /// row eagerly so the column width is known up front.
    ///
    /// # Errors
    ///
    /// Returns [`CsvError::Empty`] when there are no data rows, plus any
    /// parse/I/O error of the first row.
    ///
    /// # Panics
    ///
    /// Panics if `chunk_rows == 0`.
    pub fn new(reader: R, has_header: bool, chunk_rows: usize) -> Result<Self, CsvError> {
        assert!(chunk_rows > 0, "chunks must hold at least one row");
        let mut scanner = Self {
            reader,
            line_no: 0,
            n_features: 0,
            chunk_rows,
            pending: Vec::new(),
            line: String::new(),
            scratch: TabularFrame::with_capacity(0, 1),
            error: None,
            done: false,
        };
        if has_header {
            // Consume the header line; the width comes from the first
            // data row.
            let _ = scanner.read_line()?;
        }
        let first = loop {
            match scanner.read_line()? {
                None => return Err(CsvError::Empty),
                Some(()) if scanner.trimmed().is_empty() => continue,
                Some(()) => break scanner.parse_row(None)?,
            }
        };
        scanner.n_features = first;
        scanner.scratch = TabularFrame::with_capacity(chunk_rows, first);
        Ok(scanner)
    }

    /// The error that truncated the stream, if any.
    pub fn error(&self) -> Option<&CsvError> {
        self.error.as_ref()
    }

    /// The 1-based physical line last read: with one-row chunks, the line
    /// of the row just yielded.
    pub(crate) fn line_no(&self) -> usize {
        self.line_no
    }

    /// Reads one raw line into the line buffer. `Ok(None)` at EOF.
    fn read_line(&mut self) -> Result<Option<()>, CsvError> {
        self.line.clear();
        let n = self.reader.read_line(&mut self.line)?;
        if n == 0 {
            return Ok(None);
        }
        self.line_no += 1;
        Ok(Some(()))
    }

    /// The current line without the trailing newline / carriage return.
    fn trimmed(&self) -> &str {
        self.line.trim_end_matches(['\n', '\r'])
    }

    /// Parses the current line into `pending`, checking the field count
    /// against `expected` (None on the width-defining first row). Returns
    /// the field count.
    fn parse_row(&mut self, expected: Option<usize>) -> Result<usize, CsvError> {
        self.pending.clear();
        let line_no = self.line_no;
        let trimmed = self.line.trim_end_matches(['\n', '\r']);
        let mut count = 0usize;
        for (column, field) in trimmed.split(',').enumerate() {
            let value: f32 = field.trim().parse().map_err(|_| CsvError::BadField {
                line: line_no,
                column,
                text: field.to_string(),
            })?;
            self.pending.push(value);
            count += 1;
        }
        if let Some(expected) = expected {
            if count != expected {
                return Err(CsvError::RaggedRow {
                    line: line_no,
                    got: count,
                    expected,
                });
            }
        }
        Ok(count)
    }
}

impl<R: BufRead> RecordStream for CsvScanner<R> {
    fn n_features(&self) -> usize {
        self.n_features
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        if self.done {
            (0, Some(0))
        } else {
            (usize::from(!self.pending.is_empty()), None)
        }
    }

    fn next_chunk(&mut self) -> Option<&TabularFrame> {
        if self.done {
            return None;
        }
        self.scratch.clear();
        if !self.pending.is_empty() {
            self.scratch.extend_rows(&self.pending);
            self.pending.clear();
        }
        while self.scratch.n_rows() < self.chunk_rows {
            match self.read_line() {
                Ok(None) => {
                    self.done = true;
                    break;
                }
                Ok(Some(())) => {
                    if self.trimmed().is_empty() {
                        continue;
                    }
                    match self.parse_row(Some(self.n_features)) {
                        Ok(_) => {
                            self.scratch.extend_rows(&self.pending);
                            self.pending.clear();
                        }
                        Err(e) => {
                            self.error = Some(e);
                            self.done = true;
                            return None;
                        }
                    }
                }
                Err(e) => {
                    self.error = Some(e);
                    self.done = true;
                    return None;
                }
            }
        }
        if self.scratch.is_empty() {
            self.done = true;
            None
        } else {
            Some(&self.scratch)
        }
    }
}

/// Per-column min-max normalization parameters — the featurization the
/// staged pipeline's "data preprocessing" stage stands for, factored out
/// so the chunked [`NormalizeStream`] and the staged
/// [`TabularFrame::normalized`] materialization share one arithmetic
/// (and are therefore bit-exact with each other).
#[derive(Debug, Clone, PartialEq)]
pub struct NormParams {
    min: Vec<f32>,
    max: Vec<f32>,
}

impl NormParams {
    /// Fits per-column min/max over a whole frame (one read pass — the
    /// fused path's only look at the data before streaming begins).
    ///
    /// # Panics
    ///
    /// Panics if the frame is empty.
    pub fn fit(frame: &TabularFrame) -> Self {
        assert!(!frame.is_empty(), "cannot fit NormParams on an empty frame");
        let f = frame.n_features();
        let mut min = vec![f32::INFINITY; f];
        let mut max = vec![f32::NEG_INFINITY; f];
        for row in frame.rows() {
            for (j, &v) in row.iter().enumerate() {
                min[j] = min[j].min(v);
                max[j] = max[j].max(v);
            }
        }
        Self { min, max }
    }

    /// Number of feature columns the parameters cover.
    pub fn n_features(&self) -> usize {
        self.min.len()
    }

    /// Normalizes one value from column `j`: `(v - min) / (max - min)`
    /// into `[0, 1]`, constant columns (and all-NaN columns, whose fitted
    /// bounds never satisfy `max > min`) mapping to 0.5.
    #[inline]
    pub fn apply(&self, j: usize, v: f32) -> f32 {
        if self.max[j] > self.min[j] {
            (v - self.min[j]) / (self.max[j] - self.min[j])
        } else {
            0.5
        }
    }

    /// Normalizes a row-major block `src` into `dst` (equal lengths, both
    /// a whole number of rows). This is the chunked featurizer's kernel.
    ///
    /// # Panics
    ///
    /// Panics if the slice lengths differ or are not a multiple of the
    /// column count.
    pub fn apply_slice(&self, src: &[f32], dst: &mut [f32]) {
        let f = self.n_features();
        assert_eq!(src.len(), dst.len(), "src/dst length mismatch");
        assert!(
            src.len().is_multiple_of(f),
            "block of {} values is not a multiple of {} columns",
            src.len(),
            f
        );
        // analyze: hot
        {
            for (srow, drow) in src.chunks_exact(f).zip(dst.chunks_exact_mut(f)) {
                for j in 0..f {
                    drow[j] = self.apply(j, srow[j]);
                }
            }
        }
    }
}

/// A chunked featurizer: normalizes every chunk of an inner stream into
/// its own reusable scratch — the fused replacement for the staged
/// pipeline's materialize-then-preprocess step.
#[derive(Debug)]
pub struct NormalizeStream<S> {
    inner: S,
    params: NormParams,
    scratch: TabularFrame,
}

impl<S: RecordStream> NormalizeStream<S> {
    /// Wraps `inner`, normalizing with `params`.
    ///
    /// # Panics
    ///
    /// Panics if `params` and the inner stream disagree on column count.
    pub fn new(inner: S, params: NormParams) -> Self {
        assert_eq!(
            params.n_features(),
            inner.n_features(),
            "NormParams width must match the stream"
        );
        let f = inner.n_features();
        Self {
            inner,
            params,
            scratch: TabularFrame::with_capacity(0, f),
        }
    }
}

impl<S: RecordStream> RecordStream for NormalizeStream<S> {
    fn n_features(&self) -> usize {
        self.inner.n_features()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }

    fn next_chunk(&mut self) -> Option<&TabularFrame> {
        let chunk = self.inner.next_chunk()?;
        // First refill grows the scratch to the inner chunk size; steady
        // state resizes within capacity (no allocation).
        self.scratch.resize_rows(chunk.n_rows());
        self.params
            .apply_slice(chunk.as_slice(), self.scratch.as_mut_slice());
        Some(&self.scratch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(rows: usize, f: usize) -> TabularFrame {
        TabularFrame::from_rows((0..rows * f).map(|i| (i as f32).sin() * 100.0).collect(), f)
            .unwrap()
    }

    /// Drains a stream into one owned frame (test helper — the real fused
    /// consumers never do this).
    fn drain(stream: &mut dyn RecordStream) -> TabularFrame {
        let mut out = TabularFrame::with_capacity(0, stream.n_features());
        while let Some(chunk) = stream.next_chunk() {
            assert!(!chunk.is_empty(), "streams never yield empty chunks");
            out.extend_rows(chunk.as_slice());
        }
        out
    }

    #[test]
    fn frame_scanner_reassembles_exactly() {
        for chunk_rows in [1, 3, 7, 64] {
            let f = frame(23, 4);
            let mut s = FrameScanner::new(&f, chunk_rows);
            assert_eq!(s.size_hint(), (23, Some(23)));
            assert_eq!(drain(&mut s), f);
            assert_eq!(s.size_hint(), (0, Some(0)));
        }
    }

    #[test]
    fn one_chunk_scan_lends_the_frame_itself() {
        let f = frame(23, 4);
        for mut s in [
            FrameScanner::new(&f, 23),
            FrameScanner::new(&f, 64),
            FrameScanner::whole(&f),
        ] {
            let chunk = s.next_chunk().unwrap();
            assert_eq!(chunk.as_slice().as_ptr(), f.as_slice().as_ptr());
            assert_eq!(chunk.n_rows(), 23);
            assert!(s.next_chunk().is_none());
        }
    }

    #[test]
    fn frame_scanner_on_empty_frame_yields_nothing() {
        let f = TabularFrame::from_rows(vec![], 3).unwrap();
        let mut s = FrameScanner::new(&f, 8);
        assert!(s.next_chunk().is_none());
    }

    #[test]
    fn chain_scanner_concatenates_in_order() {
        let a = frame(5, 3);
        let b = frame(1, 3);
        let c = frame(9, 3);
        let mut s = FrameScanner::chain(&[&a, &b, &c], 4).unwrap();
        assert_eq!(s.size_hint(), (15, Some(15)));
        let got = drain(&mut s);
        let mut want = TabularFrame::with_capacity(15, 3);
        for f in [&a, &b, &c] {
            want.extend_rows(f.as_slice());
        }
        assert_eq!(got, want);
    }

    #[test]
    fn chain_scanner_chunks_never_span_frames() {
        let a = frame(3, 2);
        let b = frame(3, 2);
        let mut s = FrameScanner::chain(&[&a, &b], 4).unwrap();
        // 3-row frames under a 4-row cap: each frame yields one chunk.
        assert_eq!(s.next_chunk().unwrap().n_rows(), 3);
        assert_eq!(s.next_chunk().unwrap().n_rows(), 3);
        assert!(s.next_chunk().is_none());
    }

    #[test]
    fn chain_scanner_rejects_mixed_widths_and_empty_lists() {
        let a = frame(2, 2);
        let b = frame(2, 3);
        assert_eq!(
            FrameScanner::chain(&[&a, &b], 4).unwrap_err(),
            DataError::WidthMismatch {
                expected: 2,
                got: 3
            }
        );
        assert_eq!(
            FrameScanner::chain(&[], 4).unwrap_err(),
            DataError::ZeroFeatures
        );
    }

    #[test]
    fn chain_scanner_lends_every_frame_that_fits_a_chunk() {
        let a = frame(3, 2);
        let b = frame(9, 2);
        let c = frame(4, 2);
        let mut s = FrameScanner::chain(&[&a, &b, &c], 4).unwrap();
        let ptr = |chunk: &TabularFrame| chunk.as_slice().as_ptr();
        assert_eq!(ptr(s.next_chunk().unwrap()), a.as_slice().as_ptr());
        for rows in [4, 4, 1] {
            let chunk = s.next_chunk().unwrap();
            assert_eq!(chunk.n_rows(), rows);
            assert_ne!(ptr(chunk), b.as_slice().as_ptr());
        }
        assert_eq!(ptr(s.next_chunk().unwrap()), c.as_slice().as_ptr());
        assert!(s.next_chunk().is_none());
        assert_eq!(s.size_hint(), (0, Some(0)));
    }

    #[test]
    fn csv_scanner_streams_the_read_frame_dialect() {
        let text = "h1,h2\n1,2\r\n\r\n3,4\n5,6\n";
        let mut s = CsvScanner::new(text.as_bytes(), true, 2).unwrap();
        assert_eq!(s.n_features(), 2);
        let got = drain(&mut s);
        assert!(s.error().is_none());
        let want = crate::csv::read_frame(text.as_bytes(), true).unwrap();
        assert_eq!(got, want);
    }

    #[test]
    fn csv_scanner_surfaces_errors_and_truncates() {
        let text = "1,2\n3,4\nx,6\n7,8\n";
        let mut s = CsvScanner::new(text.as_bytes(), false, 10).unwrap();
        assert!(s.next_chunk().is_none());
        assert!(matches!(
            s.error(),
            Some(CsvError::BadField { line: 3, .. })
        ));
        // The stream stays ended.
        assert!(s.next_chunk().is_none());
    }

    #[test]
    fn csv_scanner_ragged_rows_truncate_too() {
        let text = "1,2\n3\n";
        let mut s = CsvScanner::new(text.as_bytes(), false, 10).unwrap();
        assert!(s.next_chunk().is_none());
        assert_eq!(
            s.error(),
            Some(&CsvError::RaggedRow {
                line: 2,
                got: 1,
                expected: 2
            })
        );
    }

    #[test]
    fn csv_scanner_empty_input_errors_like_read_frame() {
        assert_eq!(
            CsvScanner::new("".as_bytes(), false, 4).unwrap_err(),
            CsvError::Empty
        );
        assert_eq!(
            CsvScanner::new("h1,h2\n".as_bytes(), true, 4).unwrap_err(),
            CsvError::Empty
        );
    }

    #[test]
    fn normalize_stream_matches_staged_normalized_bit_exactly() {
        let f = frame(100, 4);
        let staged = f.normalized();
        let params = NormParams::fit(&f);
        for chunk_rows in [1, 7, 64, 4096] {
            let mut s = NormalizeStream::new(FrameScanner::new(&f, chunk_rows), params.clone());
            let fused = drain(&mut s);
            assert_eq!(fused.as_slice(), staged.as_slice());
        }
    }

    #[test]
    fn nan_columns_normalize_to_half() {
        // A column that is all-NaN never satisfies `max > min`, so every
        // value (including the NaNs) maps to the constant-column 0.5.
        let f = TabularFrame::from_rows(vec![f32::NAN, 1.0, f32::NAN, 3.0], 2).unwrap();
        let n = f.normalized();
        assert_eq!(n.row(0), &[0.5, 0.0]);
        assert_eq!(n.row(1), &[0.5, 1.0]);
    }
}
