//! Error types for model construction, validation, and serialization.

use std::error::Error;
use std::fmt;

/// Errors produced while building, validating, or (de)serializing forests.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ForestError {
    /// A node references a child index outside the tree.
    ChildOutOfRange {
        /// Index of the offending node.
        node: usize,
        /// The out-of-range child index.
        child: usize,
        /// Number of nodes in the tree.
        len: usize,
    },
    /// A node references a child at or before itself, which would allow
    /// cycles; trees must be stored in topological (parent-before-child)
    /// order.
    NonTopological {
        /// Index of the offending node.
        node: usize,
        /// The offending child index.
        child: usize,
    },
    /// A decision node references a feature outside the model's feature
    /// count.
    FeatureOutOfRange {
        /// Index of the offending node.
        node: usize,
        /// The referenced feature.
        feature: usize,
        /// Number of features in the model.
        n_features: usize,
    },
    /// A classification leaf holds a class outside `0..n_classes`.
    ClassOutOfRange {
        /// The offending class id.
        class: u32,
        /// Number of classes in the model.
        n_classes: u32,
    },
    /// The tree is empty.
    EmptyTree,
    /// The forest holds no trees.
    EmptyForest,
    /// A tree is deeper than a layout or engine capacity allows.
    DepthExceeded {
        /// Observed depth (root = depth 0... counted in levels).
        depth: usize,
        /// Maximum representable depth.
        max_depth: usize,
    },
    /// Training input shape was inconsistent (row count vs. labels, or zero
    /// features/rows).
    InvalidTrainingData(String),
    /// Serialized bytes did not start with the expected magic.
    BadMagic,
    /// Serialized bytes use an unsupported format version.
    UnsupportedVersion(u16),
    /// Serialized bytes ended prematurely or contained an invalid field.
    Corrupt(String),
    /// A scoring request's feature width does not match the model.
    FeatureWidthMismatch {
        /// Features expected by the model.
        expected: usize,
        /// Features provided by the caller.
        got: usize,
    },
}

impl fmt::Display for ForestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ForestError::ChildOutOfRange { node, child, len } => {
                write!(
                    f,
                    "node {node} references child {child} beyond tree length {len}"
                )
            }
            ForestError::NonTopological { node, child } => {
                write!(f, "node {node} references non-forward child {child}")
            }
            ForestError::FeatureOutOfRange {
                node,
                feature,
                n_features,
            } => write!(
                f,
                "node {node} tests feature {feature} but model has {n_features} features"
            ),
            ForestError::ClassOutOfRange { class, n_classes } => {
                write!(f, "leaf class {class} outside 0..{n_classes}")
            }
            ForestError::EmptyTree => write!(f, "tree has no nodes"),
            ForestError::EmptyForest => write!(f, "forest has no trees"),
            ForestError::DepthExceeded { depth, max_depth } => {
                write!(f, "tree depth {depth} exceeds maximum {max_depth}")
            }
            ForestError::InvalidTrainingData(msg) => {
                write!(f, "invalid training data: {msg}")
            }
            ForestError::BadMagic => write!(f, "not a model bundle (bad magic)"),
            ForestError::UnsupportedVersion(v) => {
                write!(f, "unsupported model bundle version {v}")
            }
            ForestError::Corrupt(msg) => write!(f, "corrupt model bundle: {msg}"),
            ForestError::FeatureWidthMismatch { expected, got } => {
                write!(f, "record has {got} features but model expects {expected}")
            }
        }
    }
}

impl Error for ForestError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_lowercase_and_informative() {
        let e = ForestError::FeatureWidthMismatch {
            expected: 28,
            got: 4,
        };
        let msg = format!("{e}");
        assert!(msg.contains("28"));
        assert!(msg.contains("4"));
        assert!(msg.chars().next().unwrap().is_lowercase());
    }

    #[test]
    fn error_trait_object_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<ForestError>();
    }
}
