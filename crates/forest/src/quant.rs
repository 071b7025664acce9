//! Fixed-point quantized node layout.
//!
//! The paper's engine stores each node as four 32-bit words and notes that
//! "as the model gets more complex ... the FPGA memory resources becomes
//! the limiting factor". Real FPGA inference engines shrink tree memories
//! by quantizing thresholds to fixed point. This module provides a 16-bit
//! quantized layout — 8 bytes per node, half the Fig. 4b footprint — plus a
//! fidelity metric, enabling the capacity-vs-accuracy ablation: with
//! quantized nodes the same BRAM holds twice the trees (or one more level
//! of depth).

use crate::error::ForestError;
use crate::forest::RandomForest;
use crate::node::Node;
use crate::tree::DecisionTree;

/// Per-feature affine quantization ranges.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantScheme {
    mins: Vec<f32>,
    maxs: Vec<f32>,
}

impl QuantScheme {
    /// Builds a scheme from explicit per-feature `[min, max]` ranges.
    ///
    /// # Panics
    ///
    /// Panics if the slices differ in length or any range is inverted.
    pub fn from_ranges(mins: &[f32], maxs: &[f32]) -> Self {
        assert_eq!(mins.len(), maxs.len(), "range arrays must align");
        for (lo, hi) in mins.iter().zip(maxs) {
            assert!(lo <= hi, "inverted range [{lo}, {hi}]");
        }
        Self {
            mins: mins.to_vec(),
            maxs: maxs.to_vec(),
        }
    }

    /// The unit scheme (`[0, 1]` for every feature) — matches the
    /// synthetic forests' threshold domain and normalized frames.
    pub fn unit(n_features: usize) -> Self {
        Self {
            mins: vec![0.0; n_features],
            maxs: vec![1.0; n_features],
        }
    }

    /// Number of features covered.
    pub fn n_features(&self) -> usize {
        self.mins.len()
    }

    /// Quantizes a feature value into its 16-bit bucket (saturating).
    pub fn quantize(&self, feature: usize, value: f32) -> u16 {
        let lo = self.mins[feature];
        let hi = self.maxs[feature];
        if hi <= lo {
            return 0;
        }
        let normalized = ((value - lo) / (hi - lo)).clamp(0.0, 1.0);
        (normalized * u16::MAX as f32).round() as u16
    }
}

/// A node in the 8-byte quantized format.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct QuantNode {
    /// Left child index, or the class id for leaves.
    left: u16,
    /// Right child index (unused for leaves).
    right: u16,
    /// Comparison attribute; `u16::MAX` marks a leaf.
    feature: u16,
    /// Quantized comparison value.
    threshold_q: u16,
}

const LEAF_MARKER: u16 = u16::MAX;

/// Bytes per quantized node record.
pub const QUANT_NODE_BYTES: usize = 8;

/// A tree in the quantized layout.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedTree {
    nodes: Vec<QuantNode>,
}

impl QuantizedTree {
    /// Quantizes a tree.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::DepthExceeded`] when the tree has more nodes
    /// than 16-bit indices address, and [`ForestError::ClassOutOfRange`]
    /// for class ids that do not fit in 16 bits.
    pub fn from_tree(tree: &DecisionTree, scheme: &QuantScheme) -> Result<Self, ForestError> {
        if tree.len() >= LEAF_MARKER as usize {
            return Err(ForestError::DepthExceeded {
                depth: tree.depth(),
                max_depth: 15,
            });
        }
        let nodes = tree
            .nodes()
            .iter()
            .map(|node| match *node {
                Node::Decision {
                    feature,
                    threshold,
                    left,
                    right,
                } => Ok(QuantNode {
                    left: left as u16,
                    right: right as u16,
                    feature,
                    threshold_q: scheme.quantize(feature as usize, threshold),
                }),
                Node::Leaf(c) => {
                    let class = u16::try_from(c).map_err(|_| ForestError::ClassOutOfRange {
                        class: c,
                        n_classes: u16::MAX as u32,
                    })?;
                    Ok(QuantNode {
                        left: class,
                        right: 0,
                        feature: LEAF_MARKER,
                        threshold_q: 0,
                    })
                }
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self { nodes })
    }

    /// Scores one pre-quantized record.
    pub fn score_quantized(&self, xq: &[u16]) -> u16 {
        let mut idx = 0usize;
        loop {
            let node = self.nodes[idx];
            if node.feature == LEAF_MARKER {
                return node.left;
            }
            idx = if xq[node.feature as usize] <= node.threshold_q {
                node.left as usize
            } else {
                node.right as usize
            };
        }
    }

    /// Live footprint in bytes (half the Fig. 4b f32 layout).
    pub fn footprint_bytes(&self) -> usize {
        self.nodes.len() * QUANT_NODE_BYTES
    }
}

/// A whole forest in the quantized layout.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedForest {
    trees: Vec<QuantizedTree>,
    scheme: QuantScheme,
    n_classes: u32,
    n_features: usize,
}

impl QuantizedForest {
    /// Quantizes a forest.
    ///
    /// # Errors
    ///
    /// Propagates per-tree errors.
    pub fn from_forest(forest: &RandomForest, scheme: QuantScheme) -> Result<Self, ForestError> {
        let trees = forest
            .trees()
            .iter()
            .map(|t| QuantizedTree::from_tree(t, &scheme))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            trees,
            scheme,
            n_classes: forest.n_classes(),
            n_features: forest.n_features(),
        })
    }

    /// Scores one record: quantize the features once, then vote.
    ///
    /// # Panics
    ///
    /// Panics if `x` is shorter than the feature count.
    pub fn score_one(&self, x: &[f32]) -> u32 {
        let xq: Vec<u16> = (0..self.n_features)
            .map(|j| self.scheme.quantize(j, x[j]))
            .collect();
        let mut counts = vec![0u32; self.n_classes as usize];
        for tree in &self.trees {
            counts[tree.score_quantized(&xq) as usize] += 1;
        }
        RandomForest::majority(&counts)
    }

    /// The quantized trees.
    pub fn trees(&self) -> &[QuantizedTree] {
        &self.trees
    }

    /// The quantization scheme records must be bucketed with.
    pub fn scheme(&self) -> &QuantScheme {
        &self.scheme
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Number of features the model expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Total live footprint in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.trees.iter().map(QuantizedTree::footprint_bytes).sum()
    }

    /// Fraction of records whose quantized prediction differs from the
    /// exact forest's — the fidelity cost of halving the memory footprint.
    ///
    /// # Panics
    ///
    /// Panics if `records` is not a multiple of the feature count.
    pub fn mismatch_rate(&self, forest: &RandomForest, records: &[f32]) -> f64 {
        let rows: Vec<&[f32]> = records.chunks_exact(self.n_features).collect();
        if rows.is_empty() {
            return 0.0;
        }
        let mismatches = rows
            .iter()
            .filter(|row| self.score_one(row) != forest.predict_one(row))
            .count();
        mismatches as f64 / rows.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;
    use crate::layout::FlatForest;

    fn forest(n_trees: usize, depth: usize) -> RandomForest {
        RandomForest::synthetic_full(
            &ForestConfig::classification(n_trees, 6, 3).with_depth(depth),
            31,
        )
    }

    fn unit_records(n: usize) -> Vec<f32> {
        (0..n * 6).map(|i| (i as f32 * 0.237) % 1.0).collect()
    }

    #[test]
    fn footprint_is_half_of_f32_layout_live_bytes() {
        let f = forest(8, 8);
        let q = QuantizedForest::from_forest(&f, QuantScheme::unit(6)).unwrap();
        let flat = FlatForest::from_forest(&f, 8).unwrap();
        let live: usize = flat.trees().iter().map(|t| t.live_bytes()).sum();
        assert_eq!(q.footprint_bytes() * 2, live);
    }

    #[test]
    fn quantized_predictions_mostly_match() {
        let f = forest(16, 9);
        let q = QuantizedForest::from_forest(&f, QuantScheme::unit(6)).unwrap();
        let rate = q.mismatch_rate(&f, &unit_records(500));
        // 16-bit buckets over [0,1] leave ~1.5e-5 resolution; mismatches
        // should be very rare.
        assert!(rate < 0.02, "mismatch rate {rate}");
    }

    #[test]
    fn exact_on_bucket_aligned_thresholds() {
        // A stump whose threshold is exactly representable: quantized and
        // exact predictions agree everywhere except the knife edge.
        let tree = DecisionTree::from_nodes(vec![
            Node::decision(0, 0.5, 1, 2),
            Node::Leaf(0),
            Node::Leaf(1),
        ])
        .unwrap();
        let f = RandomForest::from_trees(vec![tree], 1, 2).unwrap();
        let q = QuantizedForest::from_forest(&f, QuantScheme::unit(1)).unwrap();
        for x in [0.0f32, 0.1, 0.25, 0.49, 0.51, 0.75, 1.0] {
            assert_eq!(q.score_one(&[x]), f.predict_one(&[x]), "at {x}");
        }
    }

    #[test]
    fn saturation_outside_ranges() {
        let s = QuantScheme::from_ranges(&[0.0], &[1.0]);
        assert_eq!(s.quantize(0, -5.0), 0);
        assert_eq!(s.quantize(0, 9.0), u16::MAX);
        assert_eq!(s.quantize(0, 0.5), 32768);
    }

    #[test]
    fn degenerate_range_quantizes_to_zero() {
        let s = QuantScheme::from_ranges(&[2.0], &[2.0]);
        assert_eq!(s.quantize(0, 2.0), 0);
        assert_eq!(s.quantize(0, 99.0), 0);
    }

    #[test]
    fn oversized_trees_rejected() {
        // Depth 16 full tree: 131071 nodes > u16 addressing.
        let f =
            RandomForest::synthetic_full(&ForestConfig::classification(1, 4, 2).with_depth(16), 1);
        assert!(matches!(
            QuantizedForest::from_forest(&f, QuantScheme::unit(4)).unwrap_err(),
            ForestError::DepthExceeded { .. }
        ));
    }

    #[test]
    fn empty_record_set_has_zero_mismatch() {
        let f = forest(2, 3);
        let q = QuantizedForest::from_forest(&f, QuantScheme::unit(6)).unwrap();
        assert_eq!(q.mismatch_rate(&f, &[]), 0.0);
    }
}
