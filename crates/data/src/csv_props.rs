//! Hostile-input properties of the one CSV parser: arbitrary bytes and
//! byte mutations of a valid CSV go through [`read_frame`],
//! [`CsvScanner`] and [`read_dataset`] without a panic, every frame read
//! back writes and re-reads to the same bits, and a drained scanner agrees
//! with `read_frame` at every chunk size.

use proptest::prelude::*;

use crate::csv::{read_dataset, read_frame, write_frame, CsvError};
use crate::frame::TabularFrame;
use crate::stream::{CsvScanner, RecordStream};

/// Bytes a CSV of numbers is made of, so random input reaches the field
/// parser rather than stopping at the first invalid UTF-8 byte.
const ALPHABET: &[u8] = b"0123456789.,,,-+eE\n\n\r \tnNaAiIfFyY";

/// A frame as its width and value bits, so NaNs compare equal.
type Bits = (usize, Vec<u32>);

fn bits(read: &Result<TabularFrame, CsvError>) -> Result<Bits, CsvError> {
    read.clone().map(|frame| {
        let values = frame.as_slice().iter().map(|v| v.to_bits()).collect();
        (frame.n_features(), values)
    })
}

fn drain(bytes: &[u8], has_header: bool, chunk_rows: usize) -> Result<TabularFrame, CsvError> {
    let mut scanner = CsvScanner::new(bytes, has_header, chunk_rows)?;
    let mut out = TabularFrame::with_capacity(0, scanner.n_features());
    while let Some(chunk) = scanner.next_chunk() {
        assert!(!chunk.is_empty(), "streams never yield empty chunks");
        out.extend_rows(chunk.as_slice());
    }
    match scanner.error() {
        Some(e) => Err(e.clone()),
        None => Ok(out),
    }
}

fn check(bytes: &[u8]) {
    for has_header in [false, true] {
        let read = read_frame(bytes, has_header);
        for chunk_rows in [1, 7, 512] {
            assert_eq!(
                bits(&drain(bytes, has_header, chunk_rows)),
                bits(&read),
                "chunk_rows={chunk_rows} has_header={has_header} input={:?}",
                String::from_utf8_lossy(bytes)
            );
        }
        let _ = read_dataset(bytes, has_header, "fuzz");
        if let Ok(frame) = &read {
            let mut buf = Vec::new();
            write_frame(frame, &mut buf).unwrap();
            let back = read_frame(buf.as_slice(), true);
            assert_eq!(bits(&back), bits(&read), "written as {buf:?}");
        }
    }
}

fn arb_byte() -> impl Strategy<Value = u8> {
    (0u8..4, any::<u8>(), 0..ALPHABET.len()).prop_map(
        |(pick, raw, i)| {
            if pick == 0 {
                raw
            } else {
                ALPHABET[i]
            }
        },
    )
}

/// Values across every `f32` class: specials, signed zeros, subnormals
/// and raw bit patterns.
fn arb_value() -> impl Strategy<Value = f32> {
    (0u8..8, any::<u32>(), -1e6f32..1e6).prop_map(|(kind, raw, x)| match kind {
        0 => f32::from_bits(raw),
        1 => [f32::NAN, -f32::NAN, f32::INFINITY, f32::NEG_INFINITY][raw as usize % 4],
        2 => [0.0, -0.0, f32::MIN_POSITIVE, f32::MAX, f32::MIN][raw as usize % 5],
        3 => f32::from_bits(raw % 0x0080_0000),
        _ => x,
    })
}

fn arb_frame() -> impl Strategy<Value = TabularFrame> {
    (1usize..6).prop_flat_map(|n_features| {
        proptest::collection::vec(arb_value(), n_features..n_features * 8).prop_map(move |mut v| {
            v.truncate(v.len() / n_features * n_features);
            TabularFrame::from_rows(v, n_features).unwrap()
        })
    })
}

fn csv_of(frame: &TabularFrame) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(frame, &mut buf).unwrap();
    buf
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in proptest::collection::vec(arb_byte(), 0..96)) {
        check(&bytes);
    }

    #[test]
    fn mutated_csv_never_panics(
        frame in arb_frame(),
        edits in proptest::collection::vec((0u8..3, any::<usize>(), arb_byte()), 0..5),
    ) {
        let mut bytes = csv_of(&frame);
        for (op, at, byte) in edits {
            let at = at % (bytes.len() + 1);
            match op {
                0 if at < bytes.len() => bytes[at] = byte,
                1 => bytes.insert(at, byte),
                _ if at < bytes.len() => {
                    bytes.remove(at);
                }
                _ => {}
            }
        }
        check(&bytes);
    }

    #[test]
    fn written_frames_read_back_bit_exactly(frame in arb_frame()) {
        let bytes = csv_of(&frame);
        check(&bytes);
        // Parsing canonicalizes a NaN's payload but keeps its sign.
        let want = frame.as_slice().iter().map(|v| match v.is_nan() {
            true => v.to_bits() & 0x8000_0000 | 0x7fc0_0000,
            false => v.to_bits(),
        });
        match read_frame(bytes.as_slice(), true) {
            Ok(back) => prop_assert!(back.as_slice().iter().map(|v| v.to_bits()).eq(want)),
            Err(e) => prop_assert!(frame.is_empty() && e == CsvError::Empty, "{e}"),
        }
    }
}
