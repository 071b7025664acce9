//! The paper's flat node memory layout (Fig. 4b).
//!
//! Each node is stored as four 32-bit words. For a decision node the words
//! are `[left, right, attribute, value]`; for a leaf node the first word is
//! negative and the second holds the leaf's class id as an `f32`. The FPGA inference engine reads trees in exactly this format
//! from its per-PE tree memories, and the ONNX-like CPU backend scores over
//! it directly.
//!
//! The paper sizes each tree memory for a *full* binary tree with no missing
//! nodes ("each tree consumes a memory footprint equaling 2^10 words" for
//! depth-10 trees). We follow Fig. 4b exactly — leaves are real records —
//! so a tree of depth `d` is padded to `2^(d+1)` four-word records (2047
//! live records for a full depth-10 tree, rounded to a power of two for
//! indexing); BRAM accounting in `mlscore-fpga` uses this capacity.

use crate::error::ForestError;
use crate::forest::RandomForest;
use crate::node::Node;
use crate::tree::DecisionTree;

/// Number of 32-bit words per node record.
pub const NODE_WORDS: usize = 4;

/// Bytes per node record.
pub const NODE_BYTES: usize = NODE_WORDS * 4;

/// One flat node record decoded from its four-word encoding — the typed
/// view layout builders (the executor's SIMD image) consume instead of
/// re-parsing the raw words themselves.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NodeRecord {
    /// A decision record: `x[feature] <= threshold` selects `left`,
    /// otherwise `right`.
    Decision {
        /// Left-child record index.
        left: u32,
        /// Right-child record index.
        right: u32,
        /// Feature column tested.
        feature: u32,
        /// Split threshold.
        threshold: f32,
    },
    /// A leaf record carrying its raw outcome word, the class id as `f32`.
    Leaf {
        /// The outcome word.
        payload: f32,
    },
}

/// A decision tree encoded in the Fig. 4b flat format, padded to a
/// power-of-two record capacity.
///
/// # Example
///
/// ```
/// use mlscore_forest::{DecisionTree, FlatTree, Node};
///
/// let tree = DecisionTree::from_nodes(vec![
///     Node::decision(0, 0.5, 1, 2),
///     Node::Leaf(0),
///     Node::Leaf(1),
/// ])?;
/// let flat = FlatTree::from_tree(&tree, 10)?;
/// assert_eq!(flat.score(&[0.7]), 1.0);
/// assert_eq!(flat.capacity_records(), 2048); // 2^(10+1)
/// # Ok::<(), mlscore_forest::ForestError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FlatTree {
    words: Vec<f32>,
    live_records: usize,
    max_depth: usize,
}

impl FlatTree {
    /// Record capacity for a given maximum depth: `2^(depth+1)`.
    pub fn capacity_for_depth(max_depth: usize) -> usize {
        1usize << (max_depth + 1)
    }

    /// Encodes `tree` into the flat format with capacity for `max_depth`
    /// levels.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::DepthExceeded`] if the tree is deeper than
    /// `max_depth` (the FPGA engine's limit is 10; deeper trees must stay on
    /// the CPU or use split execution).
    pub fn from_tree(tree: &DecisionTree, max_depth: usize) -> Result<Self, ForestError> {
        let depth = tree.depth();
        if depth > max_depth {
            return Err(ForestError::DepthExceeded { depth, max_depth });
        }
        let capacity = Self::capacity_for_depth(max_depth);
        debug_assert!(tree.len() <= capacity);
        let mut words = Vec::with_capacity(capacity * NODE_WORDS);
        for node in tree.nodes() {
            match *node {
                Node::Decision {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    words.push(left as f32);
                    words.push(right as f32);
                    words.push(feature as f32);
                    words.push(threshold);
                }
                Node::Leaf(c) => {
                    words.extend_from_slice(&[-1.0, c as f32, 0.0, 0.0]);
                }
            }
        }
        // Pad to capacity with sentinel leaves so the memory image is the
        // full-tree footprint the paper assumes.
        words.resize(capacity * NODE_WORDS, 0.0);
        for i in tree.len()..capacity {
            words[i * NODE_WORDS] = -1.0;
        }
        Ok(Self {
            words,
            live_records: tree.len(),
            max_depth,
        })
    }

    /// Total record capacity including padding.
    pub fn capacity_records(&self) -> usize {
        self.words.len() / NODE_WORDS
    }

    /// The maximum depth this encoding supports.
    pub fn max_depth(&self) -> usize {
        self.max_depth
    }

    /// Memory footprint of the padded image in bytes.
    pub fn footprint_bytes(&self) -> usize {
        self.words.len() * 4
    }

    /// Memory footprint of only the live records in bytes (what a non-padded
    /// software scorer touches).
    pub fn live_bytes(&self) -> usize {
        self.live_records * NODE_BYTES
    }

    /// Decodes one node record (live or padding) into its typed view.
    ///
    /// Padding records decode as sentinel leaves, exactly as the PE
    /// datapath would read them.
    ///
    /// # Panics
    ///
    /// Panics if `i >= capacity_records()`.
    pub fn record(&self, i: usize) -> NodeRecord {
        let w = &self.words[i * NODE_WORDS..(i + 1) * NODE_WORDS];
        if w[0] < 0.0 {
            NodeRecord::Leaf { payload: w[1] }
        } else {
            NodeRecord::Decision {
                left: w[0] as u32,
                right: w[1] as u32,
                feature: w[2] as u32,
                threshold: w[3],
            }
        }
    }

    /// Scores one record, returning the raw outcome word (the class id as
    /// `f32`).
    ///
    /// This mirrors the PE datapath: repeatedly read a 4-word record, test
    /// the attribute, and branch, until the first word is negative.
    ///
    /// # Panics
    ///
    /// Panics if a decision record references a feature beyond `x.len()`.
    // analyze: hot
    pub fn score(&self, x: &[f32]) -> f32 {
        let mut idx = 0usize;
        loop {
            let base = idx * NODE_WORDS;
            let w0 = self.words[base];
            if w0 < 0.0 {
                return self.words[base + 1];
            }
            let right = self.words[base + 1];
            let feature = self.words[base + 2] as usize;
            let threshold = self.words[base + 3];
            idx = if x[feature] <= threshold {
                w0 as usize
            } else {
                right as usize
            };
        }
    }

    /// Scores one record, counting node records visited (used by cycle
    /// models).
    // analyze: hot
    pub fn score_counting(&self, x: &[f32]) -> (f32, usize) {
        let mut idx = 0usize;
        let mut visited = 1usize;
        loop {
            let base = idx * NODE_WORDS;
            let w0 = self.words[base];
            if w0 < 0.0 {
                return (self.words[base + 1], visited);
            }
            let right = self.words[base + 1];
            let feature = self.words[base + 2] as usize;
            let threshold = self.words[base + 3];
            idx = if x[feature] <= threshold {
                w0 as usize
            } else {
                right as usize
            };
            visited += 1;
        }
    }

    /// Decodes the live records back into a [`DecisionTree`].
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::Corrupt`] if record fields are not decodable
    /// (only possible for hand-built images).
    pub fn to_tree(&self) -> Result<DecisionTree, ForestError> {
        let mut nodes = Vec::with_capacity(self.live_records);
        for i in 0..self.live_records {
            let base = i * NODE_WORDS;
            let w0 = self.words[base];
            if w0 < 0.0 {
                let outcome = self.words[base + 1];
                if outcome < 0.0 || outcome.fract() != 0.0 {
                    return Err(ForestError::Corrupt(format!(
                        "record {i}: non-integer class {outcome}"
                    )));
                }
                nodes.push(Node::Leaf(outcome as u32));
            } else {
                let left = self.words[base];
                let right = self.words[base + 1];
                let feature = self.words[base + 2];
                if left.fract() != 0.0 || right.fract() != 0.0 || feature.fract() != 0.0 {
                    return Err(ForestError::Corrupt(format!(
                        "record {i}: non-integer index field"
                    )));
                }
                nodes.push(Node::decision(
                    feature as u16,
                    self.words[base + 3],
                    left as u32,
                    right as u32,
                ));
            }
        }
        DecisionTree::from_nodes(nodes)
    }
}

/// A whole forest in the flat format — the model image transferred to the
/// FPGA's tree memories.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatForest {
    trees: Vec<FlatTree>,
    n_features: usize,
    n_classes: u32,
}

impl FlatForest {
    /// Encodes every tree of `forest` at the given capacity depth.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::DepthExceeded`] if any tree is deeper than
    /// `max_depth`.
    pub fn from_forest(forest: &RandomForest, max_depth: usize) -> Result<Self, ForestError> {
        let trees = forest
            .trees()
            .iter()
            .map(|t| FlatTree::from_tree(t, max_depth))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Self {
            trees,
            n_features: forest.n_features(),
            n_classes: forest.n_classes(),
        })
    }

    /// The encoded trees.
    pub fn trees(&self) -> &[FlatTree] {
        &self.trees
    }

    /// Number of trees.
    pub fn n_trees(&self) -> usize {
        self.trees.len()
    }

    /// Number of features the model expects.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of classes.
    pub fn n_classes(&self) -> u32 {
        self.n_classes
    }

    /// Total padded model image size in bytes (what is DMA'd to the
    /// accelerator).
    pub fn footprint_bytes(&self) -> usize {
        self.trees.iter().map(FlatTree::footprint_bytes).sum()
    }

    /// Scores one record into its class id: majority vote over all trees,
    /// using the same rule as [`RandomForest`].
    ///
    /// Vote counting reuses a thread-local scratch buffer, so repeated
    /// calls allocate nothing; batch callers that manage their own scratch
    /// should use [`FlatForest::score_one_with`] directly.
    pub fn score_one(&self, x: &[f32]) -> u32 {
        VOTE_SCRATCH.with(|s| self.score_one_with(x, &mut s.borrow_mut()))
    }

    /// Scores one record using a caller-provided vote scratch buffer. The
    /// buffer is cleared and resized to the class count on every call, so
    /// a loop can pass the same `Vec` for every record and never
    /// reallocate.
    // analyze: hot
    pub fn score_one_with(&self, x: &[f32], votes: &mut Vec<u32>) -> u32 {
        votes.clear();
        votes.resize(self.n_classes as usize, 0);
        for tree in &self.trees {
            votes[tree.score(x) as usize] += 1;
        }
        RandomForest::majority(votes)
    }
}

thread_local! {
    static VOTE_SCRATCH: std::cell::RefCell<Vec<u32>> = const { std::cell::RefCell::new(Vec::new()) };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;

    fn stump() -> DecisionTree {
        DecisionTree::from_nodes(vec![
            Node::decision(0, 0.5, 1, 2),
            Node::Leaf(0),
            Node::Leaf(1),
        ])
        .unwrap()
    }

    #[test]
    fn capacity_is_power_of_two() {
        assert_eq!(FlatTree::capacity_for_depth(10), 2048);
        assert_eq!(FlatTree::capacity_for_depth(0), 2);
    }

    #[test]
    fn flat_scoring_matches_tree() {
        let tree = stump();
        let flat = FlatTree::from_tree(&tree, 4).unwrap();
        for x in [0.0f32, 0.25, 0.5, 0.75, 1.0] {
            assert_eq!(flat.score(&[x]) as u32, tree.predict(&[x]));
        }
    }

    #[test]
    fn depth_limit_enforced() {
        let cfg = ForestConfig::classification(1, 4, 2).with_depth(11);
        let forest = RandomForest::synthetic_full(&cfg, 5);
        let err = FlatForest::from_forest(&forest, 10).unwrap_err();
        assert!(matches!(
            err,
            ForestError::DepthExceeded {
                depth: 11,
                max_depth: 10
            }
        ));
    }

    #[test]
    fn padding_fills_to_capacity_with_sentinels() {
        let flat = FlatTree::from_tree(&stump(), 3).unwrap();
        assert_eq!(flat.capacity_records(), 16);
        assert_eq!(flat.live_records, 3);
        assert_eq!(flat.footprint_bytes(), 16 * NODE_BYTES);
        assert_eq!(flat.live_bytes(), 3 * NODE_BYTES);
        // Padding records are leaves.
        for i in 3..16 {
            assert!(flat.words[i * NODE_WORDS] < 0.0);
        }
    }

    #[test]
    fn roundtrip_to_tree() {
        let cfg = ForestConfig::classification(1, 5, 3).with_depth(6);
        let forest = RandomForest::synthetic_full(&cfg, 21);
        let tree = &forest.trees()[0];
        let flat = FlatTree::from_tree(tree, 8).unwrap();
        let back = flat.to_tree().unwrap();
        assert_eq!(&back, tree);
    }

    #[test]
    fn forest_votes_match_reference() {
        let cfg = ForestConfig::classification(16, 4, 3).with_depth(7);
        let forest = RandomForest::synthetic_full(&cfg, 33);
        let flat = FlatForest::from_forest(&forest, 10).unwrap();
        for i in 0..50 {
            let x: Vec<f32> = (0..4)
                .map(|j| ((i * 7 + j * 13) % 100) as f32 / 100.0)
                .collect();
            assert_eq!(flat.score_one(&x), forest.predict_one(&x), "record {i}");
        }
    }

    #[test]
    fn reused_scratch_and_fresh_scoring_agree() {
        let cfg = ForestConfig::classification(12, 4, 3).with_depth(6);
        let forest = RandomForest::synthetic_full(&cfg, 17);
        let flat = FlatForest::from_forest(&forest, 6).unwrap();
        let records: Vec<f32> = (0..40).map(|i| (i as f32 * 0.173) % 1.0).collect();
        let mut votes = Vec::new();
        for row in records.chunks_exact(4) {
            assert_eq!(flat.score_one_with(row, &mut votes), flat.score_one(row));
        }
    }

    #[test]
    fn footprint_scales_with_trees_and_depth() {
        let small = FlatForest::from_forest(
            &RandomForest::synthetic_full(&ForestConfig::classification(1, 4, 2).with_depth(6), 1),
            6,
        )
        .unwrap();
        let big = FlatForest::from_forest(
            &RandomForest::synthetic_full(
                &ForestConfig::classification(128, 4, 2).with_depth(10),
                1,
            ),
            10,
        )
        .unwrap();
        assert_eq!(small.footprint_bytes(), 128 * NODE_BYTES);
        assert_eq!(big.footprint_bytes(), 128 * 2048 * NODE_BYTES);
    }

    #[test]
    fn record_view_matches_raw_words() {
        let cfg = ForestConfig::classification(1, 5, 3).with_depth(6);
        let forest = RandomForest::synthetic_full(&cfg, 21);
        let flat = FlatTree::from_tree(&forest.trees()[0], 7).unwrap();
        let mut leaves = 0usize;
        for i in 0..flat.capacity_records() {
            let base = i * NODE_WORDS;
            match flat.record(i) {
                NodeRecord::Decision {
                    left,
                    right,
                    feature,
                    threshold,
                } => {
                    assert_eq!(left as f32, flat.words[base]);
                    assert_eq!(right as f32, flat.words[base + 1]);
                    assert_eq!(feature as f32, flat.words[base + 2]);
                    assert_eq!(threshold.to_bits(), flat.words[base + 3].to_bits());
                }
                NodeRecord::Leaf { payload } => {
                    assert!(flat.words[base] < 0.0);
                    assert_eq!(payload.to_bits(), flat.words[base + 1].to_bits());
                    if i < flat.live_records {
                        leaves += 1;
                    }
                }
            }
        }
        // A full depth-6 tree has 64 leaves and 63 decisions.
        assert_eq!(leaves, 64);
        assert_eq!(flat.live_records, 127);
    }

    #[test]
    fn score_counting_path_length_bounded_by_depth() {
        let cfg = ForestConfig::classification(1, 4, 2).with_depth(9);
        let forest = RandomForest::synthetic_full(&cfg, 2);
        let flat = FlatTree::from_tree(&forest.trees()[0], 10).unwrap();
        let (_, visited) = flat.score_counting(&[0.3, 0.6, 0.1, 0.9]);
        assert_eq!(visited, 10); // full tree: depth+1 records on every path
    }
}
