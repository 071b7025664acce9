//! The CPU flat-image kernel: an explicit-SIMD lockstep lane walker over a
//! heap-indexed tree image.
//!
//! [`FlatImage`] is what the ONNX-like backend lowers a forest to: the
//! Fig. 4b flat layout plus each tree re-encoded into an implicit binary
//! heap, which removes the child-pointer loads from the traversal:
//!
//! ```text
//!   FlatTree (explicit children)        SimdTree (heap re-encode)
//!   ┌────┬────┬────┬────┐               ft:      [feat, thr] per slot
//!   │left│rght│feat│ thr│  node i  ==>  payload: f32 per slot
//!   └────┴────┴────┴────┘               slot i children = 2i+1 / 2i+2
//! ```
//!
//! so one traversal step per lane is: gather `feat`, gather `thr`, gather
//! `x[feat]`, compare, and the pure-ALU update `idx = 2·idx + 2 + mask`
//! (`mask` is −1 when `x ≤ thr`, picking the left child `2·idx + 1`).
//! Leaves have their payload *propagated down* into every heap slot of
//! their would-be subtree, so all lanes run the same fixed `steps`
//! iterations with no self-loop bookkeeping and land on the correct
//! payload wherever they exit — the same trick the Fig. 4b capacity
//! padding plays, applied to the payload table.
//!
//! Three instruction tiers implement the identical step ([`SimdLevel`]),
//! one walker each, generic over `G`, the number of 8-lane groups walked
//! in one call: `x86::walk_avx512` (`G / 2` chains of 16 lanes per
//! gather), `x86::walk_avx2` (`G` chains of 8 lanes via
//! `vpgatherdd`/`vgatherdps`), and `walk_portable`, a hand-unrolled u32
//! fallback over one group that compiles to baseline code on any target.
//! Within each record block `walk::<G>` runs the strides `G` = 8, 4 and 1
//! and picks the walker:
//!
//! ```text
//!   stride G   avx512            avx2            portable
//!   8          walk_avx512::<8>  walk_avx2::<8>  8 × walk_portable
//!   4          walk_avx512::<4>  walk_avx2::<4>  4 × walk_portable
//!   1          walk_avx2::<1>    walk_avx2::<1>  walk_portable
//! ```
//!
//! Rows past the last whole group take the scalar `FlatTree::score` path.
//! The tier is picked at runtime ([`SimdLevel::detect`]) and can be forced
//! down with the `MLSCORE_SIMD` environment override; all tiers are
//! bit-exact with each other and with the sequential
//! `FlatForest::score_one`, because the compare (`x <= thr`,
//! ordered-quiet, NaN → right child) and the vote counts are identical.
//!
//! Build-time validation (every decision node's feature is in range, heap
//! arithmetic cannot leave the capacity array) is what licenses the
//! unchecked loads and gathers in the hot loops.

use std::ops::Range;

use mlscore_data::TabularFrame;
use mlscore_forest::{FlatForest, FlatTree, ForestError, NodeRecord, RandomForest};

use crate::kernel::{score_blocks, LANES};
use crate::pool::{ExecPool, RunConfig};
use crate::report::RunReport;

/// Instruction tier used by the SIMD lane walker. Ordered weakest→strongest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SimdLevel {
    /// Hand-unrolled u32-lane scalar code: no `std::arch`, any target.
    Portable,
    /// AVX2: 8-wide gathers and compares, up to 64 lanes in flight per tree.
    Avx2,
    /// AVX-512F: 16-wide gathers and mask compares, 64 lanes in flight.
    Avx512,
}

impl SimdLevel {
    /// The strongest tier this host can execute.
    pub fn supported() -> SimdLevel {
        #[cfg(target_arch = "x86_64")]
        {
            // The AVX-512 tier's tail strides reuse the AVX2 walkers, so
            // it requires both feature bits (every avx512f part ships
            // avx2, but detection is cheap and makes the dependency
            // explicit).
            if std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx2")
            {
                return SimdLevel::Avx512;
            } else if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
        }
        SimdLevel::Portable
    }

    /// Runtime pick: hardware detection, capped by the `MLSCORE_SIMD`
    /// environment override (`portable`, `avx2`, or `avx512`).
    ///
    /// The override can only *lower* the tier — requesting an unsupported
    /// one keeps the strongest the host actually has — and unknown values
    /// are ignored. Tests use it to force the fallback paths; since every
    /// tier is bit-exact, a stale read is harmless.
    pub fn detect() -> SimdLevel {
        let hw = Self::supported();
        match std::env::var("MLSCORE_SIMD") {
            Ok(v) => match Self::parse(&v) {
                Some(forced) => forced.min(hw),
                None => hw,
            },
            Err(_) => hw,
        }
    }

    /// Parses a tier name as accepted by the `MLSCORE_SIMD` override.
    pub fn parse(s: &str) -> Option<SimdLevel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "portable" | "scalar" => Some(SimdLevel::Portable),
            "avx2" => Some(SimdLevel::Avx2),
            "avx512" | "avx512f" => Some(SimdLevel::Avx512),
            _ => None,
        }
    }

    /// Stable lower-case name (matches what [`SimdLevel::parse`] accepts).
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Portable => "portable",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Avx512 => "avx512",
        }
    }
}

/// A flat forest bundled with its heap-indexed SIMD traversal image.
///
/// Re-encoding the Fig. 4b `f32`-word layout into `SimdTree`s is the
/// ONNX-like backend's model-lowering step: it costs one pass over every
/// node array, so it happens once per model — the artifact cache stores
/// the image per bundle — and every [`score_simd_batch`] call pays only
/// the traversal.
pub struct FlatImage {
    flat: FlatForest,
    /// One heap image per tree of `flat`, index for index.
    trees: Vec<SimdTree>,
}

impl FlatImage {
    /// Re-encodes an already-flattened forest into a reusable image.
    ///
    /// # Panics
    ///
    /// Panics if a decision node references a feature outside
    /// `0..n_features` — corrupt node tables would already panic the
    /// bounds-checked scalar walker; here the check runs once at build
    /// time and licenses the walkers' unchecked loads.
    pub fn from_flat(flat: FlatForest) -> Self {
        let trees = flat
            .trees()
            .iter()
            .map(|t| SimdTree::build(t, flat.n_features()))
            .collect();
        Self { flat, trees }
    }

    /// Flattens a pointer-tree forest at `max_depth` capacity and
    /// re-encodes it in one step.
    pub fn from_forest(forest: &RandomForest, max_depth: usize) -> Result<Self, ForestError> {
        Ok(Self::from_flat(FlatForest::from_forest(forest, max_depth)?))
    }

    /// The underlying flat forest (node tables, class count, feature width).
    pub fn flat(&self) -> &FlatForest {
        &self.flat
    }
}

impl std::fmt::Debug for FlatImage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlatImage")
            .field("n_trees", &self.flat.n_trees())
            .field("n_features", &self.flat.n_features())
            .finish_non_exhaustive()
    }
}

/// One tree re-encoded as an implicit heap for the SIMD walker.
///
/// Slot `i`'s children live at `2i + 1` and `2i + 2`; the arrays span the
/// full capacity `2^(steps+1) − 1` so `steps` descents from the root can
/// never index out of bounds. Decision slots carry `[feature,
/// threshold.to_bits()]` in `ft`; every slot under a leaf carries the
/// leaf's payload in `payload` (see the module docs for why).
struct SimdTree {
    /// Interleaved `[feature, threshold_bits]` per heap slot (`2 × cap`).
    /// Slots that are not live decision nodes keep `feature = 0` — an
    /// always-in-bounds column — and an arbitrary threshold.
    ft: Vec<u32>,
    /// Exit payload per heap slot (`cap`), leaf values propagated down.
    payload: Vec<f32>,
    /// Fixed descent count — the encoded capacity depth.
    steps: usize,
}

impl SimdTree {
    fn build(tree: &FlatTree, n_features: usize) -> Self {
        assert!(
            n_features > 0,
            "SIMD image requires at least one feature column"
        );
        let steps = tree.max_depth();
        let cap = (1usize << (steps + 1)) - 1;
        let mut ft = vec![0u32; 2 * cap];
        let mut payload = vec![0f32; cap];
        // Re-index from the flat encoding (whatever its node order) into
        // heap slots by walking the structure: (flat index, heap slot,
        // depth). Every heap slot is reachable from slot 0, so this visits
        // and initializes the entire capacity.
        let mut stack = vec![(0u32, 0usize, 0usize)];
        while let Some((fi, h, d)) = stack.pop() {
            match tree.record(fi as usize) {
                NodeRecord::Leaf { payload: v } => fill_subtree(&mut payload, h, d, steps, v),
                // Capacity exhausted at a decision node (impossible for
                // well-formed encodings, where every path fits in `steps`
                // levels): exit with the node's word 1, as a fixed-step
                // walk of the flat words would.
                NodeRecord::Decision { right, .. } if d == steps => payload[h] = right as f32,
                NodeRecord::Decision {
                    left,
                    right,
                    feature,
                    threshold,
                } => {
                    assert!(
                        (feature as usize) < n_features,
                        "decision node feature {feature} out of range (model has {n_features})"
                    );
                    ft[2 * h] = feature;
                    ft[2 * h + 1] = threshold.to_bits();
                    stack.push((left, 2 * h + 1, d + 1));
                    stack.push((right, 2 * h + 2, d + 1));
                }
            }
        }
        Self { ft, payload, steps }
    }
}

/// Writes `v` into every heap slot of the subtree rooted at `h` (at depth
/// `d`), down to depth `steps`: a lane that reaches this leaf early keeps
/// descending — the heap walker has no self-loops — and must read the same
/// payload wherever it exits.
fn fill_subtree(payload: &mut [f32], h: usize, d: usize, steps: usize, v: f32) {
    let (mut lo, mut hi) = (h, h);
    for _ in d..=steps {
        for slot in payload.iter_mut().take(hi + 1).skip(lo) {
            *slot = v;
        }
        lo = 2 * lo + 1;
        hi = 2 * hi + 2;
    }
}

/// Tallies `trees`' votes for every whole stride of `G` lane groups
/// (`G × LANES` rows) of the record block `rows` from its `k`-th row on,
/// walking each stride at `level`'s tier; returns the first row index
/// (block-relative) left unscored. `votes` holds `n_classes` counters per
/// row of the block.
///
/// The block loop runs the strides 8, 4 and 1; every tier's walker is
/// bit-exact with [`FlatTree::score`] on each of its lanes' rows.
// analyze: hot
#[allow(unsafe_code)]
#[inline]
fn walk<const G: usize>(
    trees: &[SimdTree],
    frame: &TabularFrame,
    rows: &Range<usize>,
    mut k: usize,
    level: SimdLevel,
    n_classes: usize,
    votes: &mut [u32],
) -> usize {
    let (data, nf) = (frame.as_slice(), frame.n_features());
    while k + G * LANES <= rows.len() {
        let row0 = rows.start + k;
        for tree in trees {
            // SAFETY: `score_blocks` asserted the frame's width equals the
            // forest's, the loop condition keeps `G × LANES` whole rows at
            // `row0` inside `rows` (a sub-range of the frame), tree
            // invariants are established by `SimdTree::build`, and
            // `score_simd_batch` clamped `level` to `SimdLevel::supported()`
            // so every `#[target_feature]` walker runs on a host that has
            // the feature.
            let leaves: [[f32; LANES]; G] = unsafe {
                match level {
                    // A single 8-lane group can't fill a 512-bit gather;
                    // the AVX2 walker takes that stride.
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx512 if G.is_multiple_of(2) => {
                        x86::walk_avx512::<G>(tree, data, nf, row0)
                    }
                    #[cfg(target_arch = "x86_64")]
                    SimdLevel::Avx512 | SimdLevel::Avx2 => {
                        x86::walk_avx2::<G>(tree, data, nf, row0)
                    }
                    _ => std::array::from_fn(|g| walk_portable(tree, data, nf, row0 + g * LANES)),
                }
            };
            for (l, &leaf) in leaves.as_flattened().iter().enumerate() {
                votes[(k + l) * n_classes + leaf as usize] += 1;
            }
        }
        k += G * LANES;
    }
    k
}

/// Hand-unrolled u32-lane portable walker over one `LANES`-row group: no
/// `std::arch`, same unchecked loads as the vector tiers.
///
/// # Safety
///
/// `data` must hold at least `(row0 + LANES) * nf` elements and `nf` must
/// equal the feature width the tree was built against.
// analyze: hot
#[allow(unsafe_code)]
#[inline]
unsafe fn walk_portable(tree: &SimdTree, data: &[f32], nf: usize, row0: usize) -> [f32; LANES] {
    let ft = tree.ft.as_slice();
    let base = row0 * nf;
    let mut idx = [0u32; LANES];
    for _ in 0..tree.steps {
        macro_rules! lane {
            ($l:literal) => {{
                // SAFETY: heap indices stay below capacity by arithmetic
                // (`2i + 2` from depth < steps), features were validated
                // against `nf` at build, and the caller guarantees `data`
                // covers rows `row0 .. row0 + LANES`.
                unsafe {
                    let h = idx[$l] as usize * 2;
                    let f = *ft.get_unchecked(h);
                    let t = f32::from_bits(*ft.get_unchecked(h + 1));
                    let x = *data.get_unchecked(base + $l * nf + f as usize);
                    idx[$l] = 2 * idx[$l] + 2 - (x <= t) as u32;
                }
            }};
        }
        lane!(0);
        lane!(1);
        lane!(2);
        lane!(3);
        lane!(4);
        lane!(5);
        lane!(6);
        lane!(7);
    }
    let mut out = [0f32; LANES];
    for l in 0..LANES {
        // SAFETY: final heap indices are below capacity (see above).
        out[l] = unsafe { *tree.payload.get_unchecked(idx[l] as usize) };
    }
    out
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! `std::arch` walkers. All `unsafe` here is (a) intrinsics gated by
    //! `#[target_feature]` — the only caller, [`super::walk`], routes to a
    //! tier no stronger than `SimdLevel::supported()` — and (b) unchecked
    //! loads/gathers licensed by `SimdTree::build`'s validation plus the
    //! caller's row-coverage contract.
    #![allow(unsafe_code)]

    use std::arch::x86_64::*;

    use super::{SimdTree, LANES};

    /// AVX2 walker over `G` lane groups: `G` independent 8-lane chains
    /// interleaved in one loop body, so while one chain waits on its
    /// dependent `feature → x[feature]` gather pair the others issue
    /// theirs. The per-step critical path is two gather latencies
    /// (~40 cycles); four chains keep the gather ports saturated.
    ///
    /// # Safety
    ///
    /// Requires AVX2; `data` must hold `(row0 + G × LANES) * nf` elements
    /// and `nf` must equal the tree's build-time feature width.
    // analyze: hot
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn walk_avx2<const G: usize>(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [[f32; LANES]; G] {
        let ft = tree.ft.as_ptr() as *const i32;
        let row = data.as_ptr().add(row0 * nf);
        let nf = nf as i32;
        let lane0 = _mm256_setr_epi32(0, nf, 2 * nf, 3 * nf, 4 * nf, 5 * nf, 6 * nf, 7 * nf);
        let one = _mm256_set1_epi32(1);
        let two = _mm256_set1_epi32(2);
        let mut lane_off = [lane0; G];
        for (g, off) in lane_off.iter_mut().enumerate() {
            *off = _mm256_add_epi32(lane0, _mm256_set1_epi32(8 * nf * g as i32));
        }
        let mut idx = [_mm256_setzero_si256(); G];
        for _ in 0..tree.steps {
            let mut h2 = [_mm256_setzero_si256(); G];
            let mut feat = h2;
            let mut thr = [_mm256_setzero_ps(); G];
            let mut x = thr;
            for g in 0..G {
                h2[g] = _mm256_slli_epi32::<1>(idx[g]);
            }
            for g in 0..G {
                feat[g] = _mm256_i32gather_epi32::<4>(ft, h2[g]);
            }
            for g in 0..G {
                thr[g] = _mm256_i32gather_ps::<4>(ft as *const f32, _mm256_add_epi32(h2[g], one));
            }
            for g in 0..G {
                x[g] = _mm256_i32gather_ps::<4>(row, _mm256_add_epi32(lane_off[g], feat[g]));
            }
            for g in 0..G {
                // Ordered-quiet `x <= thr`: NaN compares false → right
                // child, exactly the scalar walkers' `if x <= t` semantics.
                let go_left = _mm256_castps_si256(_mm256_cmp_ps::<_CMP_LE_OQ>(x[g], thr[g]));
                // left = 2i+1, right = 2i+2; `go_left` lanes are −1.
                idx[g] = _mm256_add_epi32(
                    _mm256_add_epi32(idx[g], idx[g]),
                    _mm256_add_epi32(two, go_left),
                );
            }
        }
        let mut out = [[0f32; LANES]; G];
        for g in 0..G {
            let leaf = _mm256_i32gather_ps::<4>(tree.payload.as_ptr(), idx[g]);
            _mm256_storeu_ps(out[g].as_mut_ptr(), leaf);
        }
        out
    }

    /// AVX-512 walker over `G` lane groups: the same step as
    /// [`walk_avx2`] on 512-bit registers, `G / 2` independent 16-lane
    /// chains — 16 lanes per gather halve the instruction count, the mask
    /// compare (`_mm512_cmp_ps_mask`, ordered-quiet, NaN → right) replaces
    /// the blend arithmetic with a masked subtract, and 32 zmm registers
    /// keep the chains live without spills.
    ///
    /// # Safety
    ///
    /// Requires AVX-512F and an even `G`; `data` must hold
    /// `(row0 + G × LANES) * nf` elements and `nf` must equal the tree's
    /// build-time feature width.
    // analyze: hot
    #[target_feature(enable = "avx512f")]
    pub(super) unsafe fn walk_avx512<const G: usize>(
        tree: &SimdTree,
        data: &[f32],
        nf: usize,
        row0: usize,
    ) -> [[f32; LANES]; G] {
        debug_assert!(
            G.is_multiple_of(2),
            "a 16-lane chain covers two lane groups"
        );
        let ft = tree.ft.as_ptr() as *const i32;
        let row = data.as_ptr().add(row0 * nf);
        let nf = nf as i32;
        #[rustfmt::skip]
        let lane0 = _mm512_setr_epi32(
            0, nf, 2 * nf, 3 * nf, 4 * nf, 5 * nf, 6 * nf, 7 * nf,
            8 * nf, 9 * nf, 10 * nf, 11 * nf, 12 * nf, 13 * nf, 14 * nf, 15 * nf,
        );
        let one = _mm512_set1_epi32(1);
        let two = _mm512_set1_epi32(2);
        // Chain `c` walks groups `2c` and `2c + 1`; only the first `G / 2`
        // slots of each array are live.
        let chains = G / 2;
        let mut lane_off = [lane0; G];
        for (c, off) in lane_off.iter_mut().enumerate().take(chains) {
            *off = _mm512_add_epi32(lane0, _mm512_set1_epi32(16 * nf * c as i32));
        }
        let mut idx = [_mm512_setzero_si512(); G];
        for _ in 0..tree.steps {
            let mut h2 = [_mm512_setzero_si512(); G];
            let mut feat = h2;
            let mut thr = [_mm512_setzero_ps(); G];
            let mut x = thr;
            for c in 0..chains {
                h2[c] = _mm512_slli_epi32::<1>(idx[c]);
            }
            for c in 0..chains {
                feat[c] = _mm512_i32gather_epi32::<4>(h2[c], ft);
            }
            for c in 0..chains {
                thr[c] = _mm512_i32gather_ps::<4>(_mm512_add_epi32(h2[c], one), ft as *const f32);
            }
            for c in 0..chains {
                x[c] = _mm512_i32gather_ps::<4>(_mm512_add_epi32(lane_off[c], feat[c]), row);
            }
            for c in 0..chains {
                // Ordered-quiet `x <= thr`: NaN compares false → right
                // child, matching every scalar walker.
                let go_left = _mm512_cmp_ps_mask::<_CMP_LE_OQ>(x[c], thr[c]);
                let right = _mm512_add_epi32(_mm512_add_epi32(idx[c], idx[c]), two);
                // left = right − 1 on the lanes whose compare succeeded.
                idx[c] = _mm512_mask_sub_epi32(right, go_left, right, one);
            }
        }
        let mut out = [[0f32; LANES]; G];
        let dst = out.as_mut_ptr() as *mut f32;
        for (c, &i) in idx.iter().take(chains).enumerate() {
            let leaf = _mm512_i32gather_ps::<4>(i, tree.payload.as_ptr());
            _mm512_storeu_ps(dst.add(2 * LANES * c), leaf);
        }
        out
    }
}

/// Scores a frame against a prepared [`FlatImage`] with the explicit-SIMD
/// lane walker at the given tier, into one class id per row.
///
/// `level` is capped at [`SimdLevel::supported`], so a tier the host
/// cannot execute runs as the strongest one it can.
///
/// Bit-exact with the sequential [`FlatForest::score_one`] on every row at
/// every tier: the traversal decisions and vote counts are identical.
///
/// # Panics
///
/// Panics if the frame's feature count differs from the model's.
pub fn score_simd_batch(
    image: &FlatImage,
    frame: &TabularFrame,
    pool: &ExecPool,
    cfg: &RunConfig,
    level: SimdLevel,
) -> (Vec<u32>, RunReport) {
    let level = level.min(SimdLevel::supported());
    let forest = image.flat();
    let n_classes = forest.n_classes() as usize;
    let (nf, nt) = (forest.n_features(), forest.n_trees());
    score_blocks(frame, nf, nt, n_classes, pool, cfg, |rows, trees, votes| {
        let simd = &image.trees[trees.clone()];
        let k = walk::<8>(simd, frame, &rows, 0, level, n_classes, votes);
        let k = walk::<4>(simd, frame, &rows, k, level, n_classes, votes);
        let k = walk::<1>(simd, frame, &rows, k, level, n_classes, votes);
        for tree in &forest.trees()[trees] {
            for r in k..rows.len() {
                let c = tree.score(frame.row(rows.start + r)) as usize;
                votes[r * n_classes + c] += 1;
            }
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_forest::{ForestConfig, RandomForest};

    fn frame(rows: usize, nf: usize, seed: u64) -> TabularFrame {
        let data: Vec<f32> = (0..rows * nf)
            .map(|i| {
                (((i as u64).wrapping_mul(2654435761).wrapping_add(seed)) % 1000) as f32 / 1000.0
            })
            .collect();
        TabularFrame::from_rows(data, nf).unwrap()
    }

    fn levels() -> Vec<SimdLevel> {
        [SimdLevel::Portable, SimdLevel::Avx2, SimdLevel::Avx512]
            .into_iter()
            .filter(|&l| l <= SimdLevel::supported())
            .collect()
    }

    /// The sequential reference: [`FlatForest::score_one`] on every row.
    fn sequential(image: &FlatImage, f: &TabularFrame) -> Vec<u32> {
        f.rows().map(|r| image.flat().score_one(r)).collect()
    }

    #[test]
    fn every_level_matches_sequential_classification() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(24, 5, 3).with_depth(7), 42);
        let image = FlatImage::from_forest(&forest, 7).unwrap();
        let f = frame(333, 5, 1);
        let pool = ExecPool::new(4);
        let cfg = RunConfig::for_threads(4)
            .with_record_block(32)
            .with_tree_block(5);
        let want = forest.predict_batch(f.as_slice());
        // `Avx512` on every host: a tier above `SimdLevel::supported()`
        // must run as the strongest supported one, never fault.
        for level in levels().into_iter().chain([SimdLevel::Avx512]) {
            let (simd, report) = score_simd_batch(&image, &f, &pool, &cfg, level);
            assert_eq!(simd, want, "level {level:?}");
            assert_eq!(report.rows(), 333);
        }
    }

    #[test]
    fn sparse_trained_tree_heap_reencode_matches_scalar() {
        // Trained (non-full) trees exercise the leaf payload propagation:
        // most leaves sit far above the capacity depth.
        use mlscore_forest::{ForestBuilder, TrainOptions};
        let nf = 5usize;
        let train = frame(300, nf, 17);
        let y: Vec<u32> = (0..300)
            .map(|i| ((i * 2654435761usize) >> 7) as u32 % 3)
            .collect();
        let forest = ForestBuilder::new(
            9,
            TrainOptions {
                max_depth: 6,
                ..Default::default()
            },
        )
        .train_classifier(train.as_slice(), nf, &y, 3)
        .unwrap();
        let image = FlatImage::from_forest(&forest, 6).unwrap();
        let f = frame(100, nf, 3);
        let pool = ExecPool::new(2);
        let cfg = RunConfig::for_threads(2);
        let want = forest.predict_batch(f.as_slice());
        for level in levels() {
            let (simd, _) = score_simd_batch(&image, &f, &pool, &cfg, level);
            assert_eq!(simd, want, "level {level:?}");
        }
    }

    #[test]
    fn spare_capacity_steps_land_on_the_leaf_payload() {
        // Encode with extra capacity so every lane runs more steps than
        // the tree is deep: the propagated payload must hold the result.
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(3, 4, 3).with_depth(8), 77);
        let image = FlatImage::from_forest(&forest, 10).unwrap();
        let f = frame(8 * LANES + 3, 4, 6);
        let pool = ExecPool::new(2);
        let cfg = RunConfig::for_threads(2);
        let want = forest.predict_batch(f.as_slice());
        for level in levels() {
            let (simd, _) = score_simd_batch(&image, &f, &pool, &cfg, level);
            assert_eq!(simd, want, "level {level:?}");
        }
    }

    #[test]
    fn short_and_empty_batches() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(4, 3, 2).with_depth(4), 1);
        let image = FlatImage::from_forest(&forest, 4).unwrap();
        let pool = ExecPool::new(2);
        let cfg = RunConfig::default();
        for rows in [0usize, 1, 7, 8, 9, 15, 16, 17] {
            let f = frame(rows, 3, rows as u64);
            let want = forest.predict_batch(f.as_slice());
            for level in levels() {
                let (simd, report) = score_simd_batch(&image, &f, &pool, &cfg, level);
                assert_eq!(simd, want, "rows {rows} level {level:?}");
                assert_eq!(report.rows(), rows);
            }
        }
    }

    #[test]
    fn depth_zero_forest() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(3, 2, 3).with_depth(0), 2);
        let image = FlatImage::from_forest(&forest, 0).unwrap();
        let f = frame(33, 2, 8);
        let pool = ExecPool::new(2);
        let cfg = RunConfig::for_threads(2);
        let want = sequential(&image, &f);
        for level in levels() {
            let (simd, _) = score_simd_batch(&image, &f, &pool, &cfg, level);
            assert_eq!(simd, want, "level {level:?}");
        }
    }

    #[test]
    fn nan_features_follow_scalar_semantics() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(6, 4, 3).with_depth(5), 13);
        let image = FlatImage::from_forest(&forest, 5).unwrap();
        let mut data = vec![0.4f32; 24 * 4];
        for (i, v) in data.iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = f32::NAN;
            }
        }
        let f = TabularFrame::from_rows(data, 4).unwrap();
        let pool = ExecPool::new(2);
        let cfg = RunConfig::for_threads(2);
        let want = sequential(&image, &f);
        for level in levels() {
            let (simd, _) = score_simd_batch(&image, &f, &pool, &cfg, level);
            assert_eq!(simd, want, "level {level:?}");
        }
    }

    #[test]
    #[ignore = "timing probe, run manually with --release"]
    fn throughput_probe_128_trees_depth10() {
        use std::time::Instant;
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(128, 4, 3).with_depth(10),
            42,
        );
        let image = FlatImage::from_forest(&forest, 10).unwrap();
        let f = frame(100_000, 4, 1);
        let pool = ExecPool::new(1);
        let cfg = RunConfig::for_threads(1);
        for level in levels() {
            score_simd_batch(&image, &f, &pool, &cfg, level); // warm
            let t0 = Instant::now();
            score_simd_batch(&image, &f, &pool, &cfg, level);
            let dt = t0.elapsed().as_secs_f64();
            println!("{:>10}: {:>10.0} rec/s", level.name(), 100_000.0 / dt);
        }
    }

    #[test]
    fn level_parse_and_detect_override() {
        assert_eq!(SimdLevel::parse("avx2"), Some(SimdLevel::Avx2));
        assert_eq!(SimdLevel::parse(" AVX512 "), Some(SimdLevel::Avx512));
        assert_eq!(SimdLevel::parse("portable"), Some(SimdLevel::Portable));
        assert_eq!(SimdLevel::parse("scalar"), Some(SimdLevel::Portable));
        // `sse2` names no tier: x86-64 hosts without AVX2 run `portable`.
        assert_eq!(SimdLevel::parse("sse2"), None);
        assert_eq!(SimdLevel::parse("avx1024"), None);
        for l in levels() {
            assert_eq!(SimdLevel::parse(l.name()), Some(l));
        }
        // The override can only lower the tier.
        assert!(SimdLevel::detect() <= SimdLevel::supported());
    }
}
