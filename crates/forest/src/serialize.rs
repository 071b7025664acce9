//! The binary model-bundle format.
//!
//! In the paper, models live in database tables in serialized binary form
//! (ONNX or a custom format) and the Python script deserializes them before
//! scoring — the "model pre-processing" stage of Fig. 11. This module is our
//! custom format: a small, versioned, length-checked binary encoding whose
//! deserialization cost is what the pipeline simulator charges to that stage.
//!
//! Layout (all little-endian):
//!
//! ```text
//! magic  b"MLSB"        4 bytes
//! version u16           currently 1
//! task    u8            always 0; any other value is rejected
//! n_classes u32         1..=65_536
//! n_features u32
//! n_trees u32
//! per tree:
//!   n_nodes u32
//!   per node:
//!     tag u8            0 = decision, 1 = leaf
//!     decision: feature u16, threshold f32, left u32, right u32
//!     leaf:     class u32
//! ```

use std::sync::Arc;

use crate::error::ForestError;
use crate::forest::RandomForest;
use crate::node::Node;
use crate::tree::DecisionTree;

const MAGIC: &[u8; 4] = b"MLSB";
const VERSION: u16 = 1;
/// Smallest encoded tree: its `n_nodes` count.
const MIN_TREE_BYTES: usize = 4;
/// Smallest encoded node: a leaf's tag plus its 4-byte payload.
const MIN_NODE_BYTES: usize = 5;
/// Largest class count a bundle may declare: the 16-bit class-id space
/// the quantized layout assumes. Every scorer sizes a vote vector from the
/// class count, so an unchecked header could request gigabytes.
pub(crate) const MAX_CLASSES: u32 = 1 << 16;

/// A serialized random forest — the bytes a DBMS would store in a model
/// table.
///
/// # Example
///
/// ```
/// use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};
///
/// let forest = RandomForest::synthetic_full(
///     &ForestConfig::classification(4, 4, 3).with_depth(5),
///     7,
/// );
/// let bundle = ModelBundle::serialize(&forest);
/// let restored = bundle.deserialize()?;
/// assert_eq!(restored, forest);
/// # Ok::<(), mlscore_forest::ForestError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ModelBundle {
    // Shared so clones (one per artifact-cache entry) stay cheap.
    bytes: Arc<[u8]>,
    // Computed once at construction: artifact caches probe the hash on
    // every lookup, so re-walking the bytes each call would make cache
    // probes O(model size).
    hash: u64,
}

/// 64-bit FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = FNV_OFFSET;
    for &b in bytes.iter() {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

impl ModelBundle {
    /// Serializes a forest into a bundle.
    pub fn serialize(forest: &RandomForest) -> Self {
        let mut buf = Vec::with_capacity(64 + forest.n_nodes() * 16);
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(0); // task tag: classification
        buf.extend_from_slice(&forest.n_classes().to_le_bytes());
        buf.extend_from_slice(&(forest.n_features() as u32).to_le_bytes());
        buf.extend_from_slice(&(forest.n_trees() as u32).to_le_bytes());
        for tree in forest.trees() {
            buf.extend_from_slice(&(tree.len() as u32).to_le_bytes());
            for node in tree.nodes() {
                match *node {
                    Node::Decision {
                        feature,
                        threshold,
                        left,
                        right,
                    } => {
                        buf.push(0);
                        buf.extend_from_slice(&feature.to_le_bytes());
                        buf.extend_from_slice(&threshold.to_le_bytes());
                        buf.extend_from_slice(&left.to_le_bytes());
                        buf.extend_from_slice(&right.to_le_bytes());
                    }
                    Node::Leaf(c) => {
                        buf.push(1);
                        buf.extend_from_slice(&c.to_le_bytes());
                    }
                }
            }
        }
        Self::from_bytes(buf)
    }

    /// Wraps raw bytes (e.g. read from storage) as a bundle without
    /// validating them; validation happens at [`ModelBundle::deserialize`].
    pub fn from_bytes(bytes: impl Into<Arc<[u8]>>) -> Self {
        let bytes = bytes.into();
        let hash = fnv1a(&bytes);
        Self { bytes, hash }
    }

    /// The serialized bytes.
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Serialized size in bytes — the "model size" the pipeline simulator
    /// charges for SQL-to-Python transfer and deserialization.
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// Returns `true` if the bundle holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Content hash of the serialized bytes (64-bit FNV-1a).
    ///
    /// This is the content-addressing half of an artifact-cache key: two
    /// bundles with identical bytes — and therefore identical deserialized
    /// models — hash equal, so a compiled artifact can be reused without
    /// re-parsing the bundle. The hash is deterministic across processes
    /// (unlike `std`'s seeded hashers). Memoized at construction, so
    /// calling this is free.
    pub fn content_hash(&self) -> u64 {
        self.hash
    }

    /// Parses the bundle back into a forest, validating structure.
    ///
    /// Counts in the header are untrusted: no vector is pre-sized beyond
    /// what the remaining bytes could encode.
    ///
    /// # Errors
    ///
    /// Returns [`ForestError::BadMagic`], [`ForestError::UnsupportedVersion`],
    /// or [`ForestError::Corrupt`] for malformed input, and any structural
    /// validation error from [`RandomForest::from_trees`].
    pub fn deserialize(&self) -> Result<RandomForest, ForestError> {
        let mut buf: &[u8] = &self.bytes;
        if take::<4>(&mut buf, "magic").ok() != Some(*MAGIC) {
            return Err(ForestError::BadMagic);
        }
        let version = u16::from_le_bytes(take(&mut buf, "version")?);
        if version != VERSION {
            return Err(ForestError::UnsupportedVersion(version));
        }
        let [task_tag] = take(&mut buf, "task")?;
        if task_tag != 0 {
            return Err(ForestError::Corrupt(format!("unknown task tag {task_tag}")));
        }
        let n_classes = u32::from_le_bytes(take(&mut buf, "n_classes")?);
        if !(1..=MAX_CLASSES).contains(&n_classes) {
            return Err(ForestError::Corrupt(format!(
                "class count {n_classes} outside 1..={MAX_CLASSES}"
            )));
        }
        let n_features = u32::from_le_bytes(take(&mut buf, "n_features")?) as usize;
        let n_trees = u32::from_le_bytes(take(&mut buf, "n_trees")?) as usize;
        let mut trees = Vec::with_capacity(n_trees.min(buf.len() / MIN_TREE_BYTES));
        for t in 0..n_trees {
            let n_nodes = u32::from_le_bytes(take(&mut buf, "n_nodes")?) as usize;
            let mut nodes = Vec::with_capacity(n_nodes.min(buf.len() / MIN_NODE_BYTES));
            for n in 0..n_nodes {
                let [tag] = take(&mut buf, "node tag")?;
                match tag {
                    0 => {
                        let feature = u16::from_le_bytes(take(&mut buf, "feature")?);
                        let threshold = f32::from_le_bytes(take(&mut buf, "threshold")?);
                        let left = u32::from_le_bytes(take(&mut buf, "left")?);
                        let right = u32::from_le_bytes(take(&mut buf, "right")?);
                        nodes.push(Node::decision(feature, threshold, left, right));
                    }
                    1 => {
                        let class = u32::from_le_bytes(take(&mut buf, "class")?);
                        nodes.push(Node::Leaf(class));
                    }
                    other => {
                        return Err(ForestError::Corrupt(format!(
                            "tree {t} node {n}: unknown node tag {other}"
                        )))
                    }
                }
            }
            trees.push(DecisionTree::from_nodes(nodes)?);
        }
        if !buf.is_empty() {
            return Err(ForestError::Corrupt(format!(
                "{} trailing bytes",
                buf.len()
            )));
        }
        RandomForest::from_trees(trees, n_features, n_classes)
    }
}

/// Splits the next `N` bytes off the cursor.
fn take<const N: usize>(buf: &mut &[u8], what: &str) -> Result<[u8; N], ForestError> {
    let (head, rest) = buf
        .split_first_chunk::<N>()
        .ok_or_else(|| ForestError::Corrupt(format!("truncated at {what}")))?;
    *buf = rest;
    Ok(*head)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::ForestConfig;

    fn sample_forest() -> RandomForest {
        RandomForest::synthetic_full(&ForestConfig::classification(3, 5, 4).with_depth(4), 17)
    }

    #[test]
    fn roundtrip_classifier() {
        let forest = sample_forest();
        let bundle = ModelBundle::serialize(&forest);
        assert_eq!(bundle.deserialize().unwrap(), forest);
    }

    #[test]
    fn bad_magic_rejected() {
        let bundle = ModelBundle::from_bytes(&b"NOPE\x01\x00"[..]);
        assert_eq!(bundle.deserialize().unwrap_err(), ForestError::BadMagic);
    }

    #[test]
    fn unsupported_version_rejected() {
        let forest = sample_forest();
        let mut raw = ModelBundle::serialize(&forest).as_bytes().to_vec();
        raw[4] = 99;
        let err = ModelBundle::from_bytes(raw).deserialize().unwrap_err();
        assert_eq!(err, ForestError::UnsupportedVersion(99));
    }

    #[test]
    fn truncation_rejected_everywhere() {
        let forest = sample_forest();
        let raw = ModelBundle::serialize(&forest).as_bytes().to_vec();
        // Cut at a sampling of prefixes; all must fail cleanly, never panic.
        for cut in [0, 3, 5, 7, 11, 15, 16, raw.len() / 2, raw.len() - 1] {
            let bundle = ModelBundle::from_bytes(&raw[..cut]);
            assert!(bundle.deserialize().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let forest = sample_forest();
        let mut raw = ModelBundle::serialize(&forest).as_bytes().to_vec();
        raw.push(0xAB);
        let err = ModelBundle::from_bytes(raw).deserialize().unwrap_err();
        assert!(matches!(err, ForestError::Corrupt(_)));
    }

    #[test]
    fn unknown_node_tag_rejected() {
        let forest = sample_forest();
        let mut raw = ModelBundle::serialize(&forest).as_bytes().to_vec();
        // First node tag lives right after the 19-byte header + 4-byte node count.
        raw[23] = 7;
        let err = ModelBundle::from_bytes(raw).deserialize().unwrap_err();
        assert!(matches!(err, ForestError::Corrupt(_)));
    }

    #[test]
    fn content_hash_is_deterministic_and_content_addressed() {
        let forest = sample_forest();
        let a = ModelBundle::serialize(&forest);
        let b = ModelBundle::serialize(&forest);
        assert_eq!(a.content_hash(), b.content_hash());
        // FNV-1a of the empty input is the offset basis.
        assert_eq!(
            ModelBundle::from_bytes(Vec::new()).content_hash(),
            0xcbf2_9ce4_8422_2325
        );
        // A different model hashes differently; so does a single flipped bit.
        let other =
            RandomForest::synthetic_full(&ForestConfig::classification(3, 5, 4).with_depth(4), 18);
        assert_ne!(
            a.content_hash(),
            ModelBundle::serialize(&other).content_hash()
        );
        let mut raw = a.as_bytes().to_vec();
        raw[10] ^= 1;
        assert_ne!(
            a.content_hash(),
            ModelBundle::from_bytes(raw).content_hash()
        );
    }

    #[test]
    fn zero_class_classifier_rejected() {
        let mut buf = MAGIC.to_vec();
        buf.extend_from_slice(&VERSION.to_le_bytes());
        buf.push(0); // classification
        buf.extend_from_slice(&0u32.to_le_bytes()); // zero classes
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = ModelBundle::from_bytes(buf).deserialize().unwrap_err();
        assert!(matches!(err, ForestError::Corrupt(_)));
    }

    #[test]
    fn size_grows_with_model() {
        let small = ModelBundle::serialize(&RandomForest::synthetic_full(
            &ForestConfig::classification(1, 4, 2).with_depth(3),
            1,
        ));
        let big = ModelBundle::serialize(&RandomForest::synthetic_full(
            &ForestConfig::classification(128, 4, 2).with_depth(10),
            1,
        ));
        assert!(big.len() > 100 * small.len());
        assert!(!small.is_empty());
    }
}
