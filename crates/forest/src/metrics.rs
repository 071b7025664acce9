//! Quality metrics for model evaluation in examples and tests.

/// Fraction of predictions equal to the ground truth.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
///
/// # Example
///
/// ```
/// use mlscore_forest::metrics::accuracy;
///
/// assert_eq!(accuracy(&[0, 1, 1, 0], &[0, 1, 0, 0]), 0.75);
/// ```
pub fn accuracy(predicted: &[u32], truth: &[u32]) -> f64 {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    assert!(!predicted.is_empty(), "empty prediction set");
    let correct = predicted.iter().zip(truth).filter(|(p, t)| p == t).count();
    correct as f64 / predicted.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 1, 1], &[1, 1, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[2], &[2]), 1.0);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn accuracy_length_mismatch_panics() {
        accuracy(&[0], &[0, 1]);
    }
}
