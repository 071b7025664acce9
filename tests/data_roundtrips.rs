//! Property tests on the data layer: CSV must round-trip losslessly, and
//! normalization must be idempotent and bounded.

use proptest::prelude::*;

use mlscore::prelude::*;
use mlscore_data::csv;

fn arb_frame() -> impl Strategy<Value = TabularFrame> {
    (1usize..8).prop_flat_map(|n_features| {
        proptest::collection::vec(-1e6f32..1e6, n_features..n_features * 30).prop_map(
            move |mut v| {
                v.truncate(v.len() / n_features * n_features);
                TabularFrame::from_rows(v, n_features).expect("shape consistent")
            },
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn csv_roundtrip_preserves_frames(frame in arb_frame()) {
        prop_assume!(!frame.is_empty());
        let mut buf = Vec::new();
        csv::write_frame(&frame, &mut buf).unwrap();
        let back = csv::read_frame(buf.as_slice(), true).unwrap();
        prop_assert_eq!(back.n_rows(), frame.n_rows());
        prop_assert_eq!(back.n_features(), frame.n_features());
        for (a, b) in back.as_slice().iter().zip(frame.as_slice()) {
            // `{}` formatting of f32 round-trips exactly through parse.
            prop_assert_eq!(a, b);
        }
    }

    #[test]
    fn normalization_is_bounded_and_idempotent(frame in arb_frame()) {
        let once = frame.normalized();
        for &v in once.as_slice() {
            prop_assert!((0.0..=1.0).contains(&v), "value {v} out of bounds");
        }
        let twice = once.normalized();
        for (a, b) in once.as_slice().iter().zip(twice.as_slice()) {
            prop_assert!((a - b).abs() < 1e-5, "{a} vs {b}");
        }
    }

    #[test]
    fn dataset_csv_roundtrip(n_rows in 1usize..50, seed in any::<u64>()) {
        let d = Dataset::higgs(n_rows, seed);
        let mut buf = Vec::new();
        csv::write_dataset(&d, &mut buf).unwrap();
        let back = csv::read_dataset(buf.as_slice(), true, d.name()).unwrap();
        prop_assert_eq!(back.labels(), d.labels());
        prop_assert_eq!(back.frame().n_rows(), d.frame().n_rows());
        for (a, b) in back.frame().as_slice().iter().zip(d.frame().as_slice()) {
            prop_assert_eq!(a, b);
        }
    }
}
