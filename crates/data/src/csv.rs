//! Minimal CSV reading/writing for frames and labeled datasets.
//!
//! A deliberately small, dependency-free dialect: comma-separated numeric
//! fields, optional single header line, `\n` or `\r\n` line endings, no
//! quoting (the data is purely numeric). Enough to round-trip any
//! [`TabularFrame`] and to import externally prepared scoring batches.

use std::io::{BufRead, Write};

use crate::dataset::Dataset;
use crate::error::DataError;
use crate::frame::TabularFrame;
use crate::stream::{CsvScanner, RecordStream, DEFAULT_CHUNK_ROWS};

/// Errors from CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CsvError {
    /// A line had a different number of fields than the first line.
    RaggedRow {
        /// 1-based line number.
        line: usize,
        /// Fields found.
        got: usize,
        /// Fields expected.
        expected: usize,
    },
    /// A field failed to parse as a number.
    BadField {
        /// 1-based line number.
        line: usize,
        /// 0-based column.
        column: usize,
        /// The offending text.
        text: String,
    },
    /// The input had no data rows.
    Empty,
    /// An I/O error (stored as its message for `Eq`).
    Io(String),
    /// The parsed shape was rejected by the frame constructor.
    Shape(DataError),
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::RaggedRow {
                line,
                got,
                expected,
            } => {
                write!(f, "line {line}: {got} fields, expected {expected}")
            }
            CsvError::BadField { line, column, text } => {
                write!(f, "line {line}, column {column}: cannot parse {text:?}")
            }
            CsvError::Empty => write!(f, "no data rows"),
            CsvError::Io(msg) => write!(f, "i/o error: {msg}"),
            CsvError::Shape(e) => write!(f, "bad shape: {e}"),
        }
    }
}

impl std::error::Error for CsvError {}

impl From<std::io::Error> for CsvError {
    fn from(e: std::io::Error) -> Self {
        CsvError::Io(e.to_string())
    }
}

impl From<DataError> for CsvError {
    fn from(e: DataError) -> Self {
        CsvError::Shape(e)
    }
}

/// Most classes a model bundle can carry; a label at or above it is
/// rejected.
const MAX_CLASSES: u32 = 65_536;

/// Reads a frame from CSV by draining a [`CsvScanner`]. When `has_header`
/// is set the first line is skipped.
///
/// # Errors
///
/// Returns [`CsvError`] for ragged rows, unparseable fields, or empty
/// input.
///
/// # Example
///
/// ```
/// use mlscore_data::csv::read_frame;
///
/// let frame = read_frame("a,b\n1.0,2.0\n3.0,4.0\n".as_bytes(), true)?;
/// assert_eq!(frame.n_rows(), 2);
/// assert_eq!(frame.row(1), &[3.0, 4.0]);
/// # Ok::<(), mlscore_data::csv::CsvError>(())
/// ```
pub fn read_frame<R: BufRead>(reader: R, has_header: bool) -> Result<TabularFrame, CsvError> {
    let mut scanner = CsvScanner::new(reader, has_header, DEFAULT_CHUNK_ROWS)?;
    let mut frame = TabularFrame::with_capacity(0, scanner.n_features());
    while let Some(chunk) = scanner.next_chunk() {
        frame.extend_rows(chunk.as_slice());
    }
    match scanner.error() {
        Some(e) => Err(e.clone()),
        None => Ok(frame),
    }
}

/// Reads a labeled dataset: the **last** column is the integer class label.
///
/// # Errors
///
/// Same as [`read_frame`], plus [`CsvError::BadField`] (at the label's
/// line) for a label that is not an integer in `0..65_536`.
pub fn read_dataset<R: BufRead>(
    reader: R,
    has_header: bool,
    name: &str,
) -> Result<Dataset, CsvError> {
    // One-row chunks, so the scanner's line is the current row's line.
    let mut scanner = CsvScanner::new(reader, has_header, 1)?;
    let f = scanner.n_features();
    let mut data = Vec::new();
    let mut labels = Vec::new();
    let mut bad_label = None;
    while let Some(row) = scanner.next_chunk() {
        let (features, label) = row.as_slice().split_at(f - 1);
        data.extend_from_slice(features);
        let raw = label[0];
        if raw < 0.0 || raw.fract() != 0.0 || raw >= MAX_CLASSES as f32 {
            bad_label.get_or_insert(CsvError::BadField {
                line: scanner.line_no(),
                column: f - 1,
                text: raw.to_string(),
            });
        } else {
            labels.push(raw as u32);
        }
    }
    // A parse error anywhere outranks the shape, which outranks a label.
    if let Some(e) = scanner.error() {
        return Err(e.clone());
    }
    if f < 2 {
        return Err(CsvError::Shape(DataError::ZeroFeatures));
    }
    if let Some(e) = bad_label {
        return Err(e);
    }
    let n_classes = labels.iter().max().map_or(0, |&class| class + 1);
    let frame = TabularFrame::from_rows(data, f - 1)?;
    Ok(Dataset::new(name, frame, labels, n_classes)?)
}

/// Writes a frame as CSV with generated `f0..fN` headers.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_frame<W: Write>(frame: &TabularFrame, writer: W) -> Result<(), CsvError> {
    write_rows(frame, None, writer)
}

/// Writes a labeled dataset as CSV, label in the last column.
///
/// # Errors
///
/// Propagates I/O errors from `writer`.
pub fn write_dataset<W: Write>(dataset: &Dataset, writer: W) -> Result<(), CsvError> {
    write_rows(dataset.frame(), Some(dataset.labels()), writer)
}

/// The one row writer: a `f0..fN` header (plus `label` when `labels` is
/// given), then one line per row with its label last. Every value reads
/// back to the same bits: `Display` round-trips every `f32` but drops a
/// NaN's sign, which is spelled out instead.
fn write_rows<W: Write>(
    frame: &TabularFrame,
    labels: Option<&[u32]>,
    mut writer: W,
) -> Result<(), CsvError> {
    let headers: Vec<String> = (0..frame.n_features()).map(|i| format!("f{i}")).collect();
    let label_header = if labels.is_some() { ",label" } else { "" };
    writeln!(writer, "{}{label_header}", headers.join(","))?;
    for (i, row) in frame.rows().enumerate() {
        for (j, v) in row.iter().enumerate() {
            let sep = if j == 0 { "" } else { "," };
            if v.is_nan() && v.is_sign_negative() {
                write!(writer, "{sep}-NaN")?;
            } else {
                write!(writer, "{sep}{v}")?;
            }
        }
        match labels {
            Some(labels) => writeln!(writer, ",{}", labels[i])?,
            None => writeln!(writer)?,
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_roundtrip() {
        let frame = TabularFrame::from_rows(vec![1.5, -2.0, 0.25, 4.0], 2).unwrap();
        let mut buf = Vec::new();
        write_frame(&frame, &mut buf).unwrap();
        let back = read_frame(buf.as_slice(), true).unwrap();
        assert_eq!(back, frame);
    }

    #[test]
    fn dataset_roundtrip() {
        let d = Dataset::iris(30, 4);
        let mut buf = Vec::new();
        write_dataset(&d, &mut buf).unwrap();
        let back = read_dataset(buf.as_slice(), true, "IRIS").unwrap();
        assert_eq!(back.frame(), d.frame());
        assert_eq!(back.labels(), d.labels());
        assert_eq!(back.n_classes(), d.n_classes());
    }

    #[test]
    fn headerless_and_crlf_and_blank_lines() {
        let frame = read_frame("1,2\r\n\r\n3,4\n".as_bytes(), false).unwrap();
        assert_eq!(frame.n_rows(), 2);
        assert_eq!(frame.row(1), &[3.0, 4.0]);
    }

    #[test]
    fn ragged_rows_rejected_with_location() {
        let err = read_frame("1,2\n3\n".as_bytes(), false).unwrap_err();
        assert_eq!(
            err,
            CsvError::RaggedRow {
                line: 2,
                got: 1,
                expected: 2
            }
        );
    }

    #[test]
    fn bad_fields_rejected_with_location() {
        let err = read_frame("1,x\n".as_bytes(), false).unwrap_err();
        assert!(matches!(
            err,
            CsvError::BadField {
                line: 1,
                column: 1,
                ..
            }
        ));
    }

    #[test]
    fn empty_inputs_rejected() {
        assert_eq!(
            read_frame("".as_bytes(), false).unwrap_err(),
            CsvError::Empty
        );
        assert_eq!(
            read_frame("h1,h2\n".as_bytes(), true).unwrap_err(),
            CsvError::Empty
        );
    }

    #[test]
    fn dataset_rejects_fractional_or_negative_labels() {
        assert!(matches!(
            read_dataset("1,0.5\n".as_bytes(), false, "x").unwrap_err(),
            CsvError::BadField { .. }
        ));
        assert!(matches!(
            read_dataset("1,-1\n".as_bytes(), false, "x").unwrap_err(),
            CsvError::BadField { .. }
        ));
    }

    #[test]
    fn dataset_needs_at_least_one_feature_and_a_label() {
        assert!(matches!(
            read_dataset("1\n2\n".as_bytes(), false, "x").unwrap_err(),
            CsvError::Shape(_)
        ));
    }

    #[test]
    fn class_count_is_max_label_plus_one() {
        let d = read_dataset("0.1,0\n0.2,3\n".as_bytes(), false, "x").unwrap();
        assert_eq!(d.n_classes(), 4);
    }

    #[test]
    fn fields_parse_before_the_width_check() {
        let want = CsvError::BadField {
            line: 2,
            column: 0,
            text: "x".to_string(),
        };
        assert_eq!(read_frame("1,2\nx\n".as_bytes(), false).unwrap_err(), want);
        let mut s = CsvScanner::new("1,2\nx\n".as_bytes(), false, 4).unwrap();
        assert!(s.next_chunk().is_none());
        assert_eq!(s.error(), Some(&want));
    }

    #[test]
    fn dataset_rejects_labels_beyond_the_class_cap() {
        for text in ["1,4294967296\n", "1,65536\n"] {
            assert!(matches!(
                read_dataset(text.as_bytes(), false, "x").unwrap_err(),
                CsvError::BadField {
                    line: 1,
                    column: 1,
                    ..
                }
            ));
        }
        let d = read_dataset("1,65535\n".as_bytes(), false, "x").unwrap();
        assert_eq!(d.n_classes(), 65_536);
    }

    #[test]
    fn bad_label_reports_its_physical_line() {
        let err = read_dataset("f,l\n1,0\n\n2,0.5\n".as_bytes(), true, "x").unwrap_err();
        assert_eq!(
            err,
            CsvError::BadField {
                line: 4,
                column: 1,
                text: "0.5".to_string()
            }
        );
        // A parse error anywhere still outranks an earlier bad label.
        let err = read_dataset("1,0.5\n2,x\n".as_bytes(), false, "x").unwrap_err();
        assert!(matches!(err, CsvError::BadField { line: 2, .. }));
    }

    #[test]
    fn negative_nan_keeps_its_sign_through_a_roundtrip() {
        let frame = TabularFrame::from_rows(vec![-f32::NAN, f32::NAN], 2).unwrap();
        let mut buf = Vec::new();
        write_frame(&frame, &mut buf).unwrap();
        assert_eq!(buf, b"f0,f1\n-NaN,NaN\n");
        let back = read_frame(buf.as_slice(), true).unwrap();
        let bits = |f: &TabularFrame| f.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&back), bits(&frame));
    }
}
