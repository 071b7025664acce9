//! The Hummingbird-like backend ("GPU-HB").
//!
//! Hummingbird compiles tree ensembles into tensor programs. For shallow
//! trees it uses a GEMM formulation; for deeper trees a (perfect) tree
//! traversal over gather tensors. Either way every record evaluates a
//! *fixed* amount of work per tree — no data-dependent branching, so SM and
//! warp efficiency stay near 100% (matching the paper's nvprof analysis) at
//! the price of redundant computation and more memory traffic.
//!
//! The functional scorer here mirrors the GEMM semantics: [`lower`] compiles
//! each tree into flat per-node tensors (feature, threshold, children, leaf
//! payload), and scoring evaluates every internal-node predicate, then
//! selects the unique leaf whose root-to-leaf path agrees with all its
//! predicates. Property tests assert this agrees bit-for-bit with plain
//! traversal.
//!
//! [`lower`]: ScoringBackend::lower

use std::sync::Arc;

use mlscore_backend::{
    score_whole_batch, BackendError, Lowered, ModelRef, ScoringBackend, StreamOutcome,
};
use mlscore_data::RecordStream;
use mlscore_forest::{DecisionTree, ModelStats, Node, RandomForest};
use mlscore_sim::{SimDuration, SimInstant, Stage, TimingBreakdown};
use mlscore_telemetry::{Scope, StageRecorder, Tracer};

use crate::device::GpuDevice;
use crate::MAX_LAUNCH_LANES;

/// Timing-model constants for the Hummingbird strategy.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HummingbirdCostParams {
    /// Fixed per-call framework overhead (tensor runtime dispatch).
    pub framework_overhead: SimDuration,
    /// Effective node-visit-equivalents retired per SM per cycle for the
    /// tensorized traversal. Instruction- and traffic-bound well below the
    /// device's FLOP peak — the paper observed "more instructions executed
    /// and more L2/DRAM traffic" than RAPIDS despite full SM efficiency.
    /// (0.134 on the P100 ≈ 10G visits/s across 56 SMs at 1.33 GHz.)
    pub visits_per_sm_cycle: f64,
    /// Extra memory-traffic multiplier from index/gather tensors relative
    /// to raw node records.
    pub traffic_factor: f64,
    /// Tree depth at or below which the GEMM formulation is used instead of
    /// tensor traversal (Hummingbird's heuristic).
    pub gemm_max_depth: usize,
}

impl Default for HummingbirdCostParams {
    fn default() -> Self {
        Self {
            framework_overhead: SimDuration::from_millis(1.6),
            visits_per_sm_cycle: 0.134,
            traffic_factor: 1.5,
            gemm_max_depth: 3,
        }
    }
}

/// The "GPU-HB" backend.
///
/// # Example
///
/// ```
/// use mlscore_backend::score_once;
/// use mlscore_data::Dataset;
/// use mlscore_forest::{ForestConfig, RandomForest};
/// use mlscore_gpu::HummingbirdGpu;
///
/// let forest = RandomForest::synthetic_full(
///     &ForestConfig::classification(4, 4, 3).with_depth(5),
///     9,
/// );
/// let data = Dataset::iris(30, 2).normalized();
/// // Unlike RAPIDS, Hummingbird handles multi-class models.
/// let preds = score_once(&HummingbirdGpu::p100(), &forest, data.frame())?;
/// assert_eq!(preds.len(), 30);
/// # Ok::<(), mlscore_backend::BackendError>(())
/// ```
#[derive(Debug, Clone)]
pub struct HummingbirdGpu {
    device: GpuDevice,
    params: HummingbirdCostParams,
}

impl HummingbirdGpu {
    /// Hummingbird on the paper's Tesla P100.
    pub fn p100() -> Self {
        Self::new(GpuDevice::tesla_p100(), HummingbirdCostParams::default())
    }

    /// Fully custom construction.
    pub fn new(device: GpuDevice, params: HummingbirdCostParams) -> Self {
        Self { device, params }
    }

    /// The device model.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }
}

/// One tree compiled to the Hummingbird tensor layout: flat per-node arrays
/// (feature, threshold, children, leaf class) that the GEMM / traversal
/// formulations gather from. Node order is preserved from the source tree so
/// the path-match semantics are identical to scoring the pointer tree.
#[derive(Debug, Clone, PartialEq)]
struct TreeTensors {
    /// Split feature per node; unused (zero) for leaves.
    feature: Vec<u16>,
    /// Split threshold per node; unused (zero) for leaves.
    threshold: Vec<f32>,
    /// Left / right child indices per node; unused (zero) for leaves.
    left: Vec<u32>,
    right: Vec<u32>,
    /// Leaf class per node; `None` for internal nodes.
    leaf: Vec<Option<u32>>,
}

impl TreeTensors {
    fn from_tree(tree: &DecisionTree) -> Self {
        let nodes = tree.nodes();
        let mut t = Self {
            feature: Vec::with_capacity(nodes.len()),
            threshold: Vec::with_capacity(nodes.len()),
            left: Vec::with_capacity(nodes.len()),
            right: Vec::with_capacity(nodes.len()),
            leaf: Vec::with_capacity(nodes.len()),
        };
        for node in nodes {
            match node {
                Node::Decision {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    t.feature.push(*feature);
                    t.threshold.push(*threshold);
                    t.left.push(*left);
                    t.right.push(*right);
                    t.leaf.push(None);
                }
                Node::Leaf(v) => {
                    t.feature.push(0);
                    t.threshold.push(0.0);
                    t.left.push(0);
                    t.right.push(0);
                    t.leaf.push(Some(*v));
                }
            }
        }
        t
    }

    /// Scores one record by the GEMM semantics: evaluate all predicates,
    /// then find the leaf whose path matches them all.
    fn score(&self, x: &[f32]) -> u32 {
        let n = self.leaf.len();
        // Predicate tensor: outcome of every internal node's comparison
        // (leaves contribute `false`, matching a zero row in the matrix).
        let predicates: Vec<bool> = (0..n)
            .map(|i| self.leaf[i].is_none() && x[self.feature[i] as usize] <= self.threshold[i])
            .collect();
        // Path-match: the live leaf is the one reachable when every decision
        // on its path agrees with the predicate tensor. Walk all paths
        // breadth-first carrying agreement, like the path matrix product.
        let mut matched = vec![false; n];
        matched[0] = true;
        for i in 0..n {
            if !matched[i] || self.leaf[i].is_some() {
                continue;
            }
            if predicates[i] {
                matched[self.left[i] as usize] = true;
            } else {
                matched[self.right[i] as usize] = true;
            }
        }
        (0..n)
            .find_map(|i| if matched[i] { self.leaf[i] } else { None })
            .expect("exactly one leaf matches the predicate tensor")
    }
}

/// The whole forest compiled to tensors — Hummingbird's "compiled tensor
/// program". Produced by [`ScoringBackend::lower`] and cached across queries
/// by the artifact cache.
#[derive(Debug, Clone, PartialEq)]
pub struct HbTensors {
    trees: Vec<TreeTensors>,
}

impl HbTensors {
    fn from_forest(forest: &RandomForest) -> Self {
        Self {
            trees: forest.trees().iter().map(TreeTensors::from_tree).collect(),
        }
    }
}

impl ScoringBackend for HummingbirdGpu {
    fn name(&self) -> &str {
        "GPU-HB"
    }

    fn lower(&self, forest: &RandomForest) -> Result<Lowered, BackendError> {
        Ok(Lowered::Custom(Arc::new(HbTensors::from_forest(forest))))
    }

    fn score(
        &self,
        model: ModelRef<'_>,
        stream: &mut dyn RecordStream,
        _tracer: &Tracer,
        _start: SimInstant,
    ) -> Result<StreamOutcome, BackendError> {
        let forest = model.forest();
        let tensors = model.custom::<HbTensors>(self.name())?;
        score_whole_batch(stream, |frame| {
            let classes = frame
                .rows()
                .map(|row| {
                    let mut counts = vec![0u32; forest.n_classes() as usize];
                    for tree in &tensors.trees {
                        counts[tree.score(row) as usize] += 1;
                    }
                    RandomForest::majority(&counts)
                })
                .collect();
            Ok(classes)
        })
    }

    fn estimate(
        &self,
        stats: &ModelStats,
        n_records: u64,
        tracer: &Tracer,
        start: SimInstant,
    ) -> TimingBreakdown {
        let d = &self.device;
        let p = &self.params;
        let name = <Self as ScoringBackend>::name(self);
        let mut rec = StageRecorder::new(tracer, name, Scope::Offload);

        // Transfers: model tensors (~5 words per node: feature, threshold,
        // left, right, value) plus records in, results back.
        let model_bytes = (stats.total_nodes * 20) as u64;
        let input_bytes = n_records * stats.row_bytes() as u64;

        // Kernel: fixed work per record per tree — the full depth is always
        // walked (perfect-tree traversal), or the full node set evaluated
        // (GEMM) for shallow trees.
        let gemm = stats.max_depth <= p.gemm_max_depth;
        let per_tree_visits = if gemm {
            // GEMM evaluates every node once.
            (stats.total_nodes as f64 / stats.n_trees as f64).max(1.0)
        } else {
            (stats.max_depth + 1) as f64
        };
        let visits = n_records as f64 * stats.n_trees as f64 * per_tree_visits;
        let visit_rate = d.sms as f64 * d.clock.hz() * p.visits_per_sm_cycle;
        let compute = SimDuration::from_secs(visits / visit_rate);
        let miss = d.l2_miss_fraction((stats.total_nodes * 20) as u64);
        let traffic =
            visits * 16.0 * p.traffic_factor * miss + (input_bytes + n_records * 4) as f64;
        let memory = d.memory_time(traffic);
        let kernel = compute.max(memory);

        let t = rec
            .span("model tensors h2d", Stage::InputTransfer, start)
            .meta("bytes", model_bytes)
            .finish_after(d.link.transfer(model_bytes));
        let t_kernel = rec
            .span("records h2d", Stage::InputTransfer, t)
            .meta("bytes", input_bytes)
            .finish_after(d.link.transfer(input_bytes));
        // The result copy is recorded before the kernel (the breakdown's
        // stage order) but placed after it.
        let t_results = rec
            .span("results d2h", Stage::ResultTransfer, t_kernel + kernel)
            .finish_after(d.link.transfer(n_records * 4));
        let kernel_name = if gemm {
            "gemm kernel"
        } else {
            "tensor traversal kernel"
        };
        rec.span(kernel_name, Stage::Scoring, t_kernel)
            .meta(
                "bound",
                if memory > compute {
                    "memory"
                } else {
                    "compute"
                },
            )
            .finish_after(kernel);

        let n_launches = stats.max_depth as f64 + 2.0;
        let t_fw = rec
            .span("framework dispatch", Stage::SoftwareOverhead, t_results)
            .lane("host")
            .finish_after(p.framework_overhead);
        rec.span("kernel launches", Stage::SoftwareOverhead, t_fw)
            .lane("host")
            .meta("kernels", n_launches)
            .finish_after(d.kernel_launch * n_launches);
        // Detail: one span per launch, capped.
        let mut tl = t_fw;
        for k in 0..(n_launches as usize).min(MAX_LAUNCH_LANES) {
            tl = tracer
                .span(format_args!("launch {k}"), tl)
                .track(name, "launches")
                .finish_after(d.kernel_launch);
        }
        rec.into_breakdown()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_backend::{compile, score_once};
    use mlscore_data::{Dataset, FrameScanner};
    use mlscore_forest::ForestConfig;

    #[test]
    fn prepared_scoring_matches_fresh_and_rejects_foreign_artifacts() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(10, 4, 3).with_depth(6), 3);
        let bundle = mlscore_forest::ModelBundle::serialize(&forest);
        let data = Dataset::iris(64, 7).normalized();
        let hb = HummingbirdGpu::p100();

        let model = compile(&hb, &bundle).unwrap();
        let warm = hb
            .score(
                model.bind(hb.name(), 4).unwrap(),
                &mut FrameScanner::whole(data.frame()),
                &Tracer::disabled(),
                SimInstant::ZERO,
            )
            .unwrap();
        let fresh = score_once(&hb, &forest, data.frame()).unwrap();
        assert_eq!(warm.predictions, fresh);

        // An artifact compiled by another backend must be rejected, not
        // silently rescored.
        let foreign = compile(&mlscore_backend::SklearnCpu::with_threads(1), &bundle).unwrap();
        assert!(matches!(
            foreign.bind(hb.name(), 4),
            Err(BackendError::Artifact { .. })
        ));
    }

    #[test]
    fn gemm_semantics_match_traversal_full_trees() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(10, 4, 3).with_depth(7), 21);
        let data = Dataset::iris(150, 5).normalized();
        let preds = score_once(&HummingbirdGpu::p100(), &forest, data.frame()).unwrap();
        assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
    }

    #[test]
    fn gemm_semantics_match_traversal_capped_trees() {
        let forest = RandomForest::synthetic_capped(
            &ForestConfig::classification(8, 28, 2).with_depth(10),
            100,
            4,
        );
        let data = Dataset::higgs(120, 8).normalized();
        let preds = score_once(&HummingbirdGpu::p100(), &forest, data.frame()).unwrap();
        assert_eq!(preds, forest.predict_batch(data.frame().as_slice()));
    }

    #[test]
    fn multiclass_supported_unlike_rapids() {
        let iris_model =
            RandomForest::synthetic_full(&ForestConfig::classification(4, 4, 3).with_depth(4), 1);
        assert!(HummingbirdGpu::p100()
            .supports(&ModelStats::of(&iris_model))
            .is_ok());
    }

    #[test]
    fn no_cudf_floor_at_small_batches() {
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(1, 28, 2).with_depth(6), 1);
        let stats = ModelStats::of(&forest);
        let hb = HummingbirdGpu::p100()
            .estimate(&stats, 1, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        let fil = crate::fil::RapidsFil::p100()
            .estimate(&stats, 1, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        // Fig. 9e: HB is far cheaper than RAPIDS at tiny batches.
        assert!(fil.ratio(hb) > 10.0, "fil {fil} hb {hb}");
    }

    #[test]
    fn rapids_overtakes_hb_at_large_batches() {
        // Fig. 10g-h: past ~700K records the cuDF fixed cost amortizes and
        // RAPIDS wins for the big HIGGS model.
        let forest = RandomForest::synthetic_full(
            &ForestConfig::classification(128, 28, 2).with_depth(10),
            1,
        );
        let stats = ModelStats::of(&forest);
        let hb = HummingbirdGpu::p100();
        let fil = crate::fil::RapidsFil::p100();
        assert!(
            hb.estimate(&stats, 10_000, &Tracer::disabled(), SimInstant::ZERO)
                .total()
                < fil
                    .estimate(&stats, 10_000, &Tracer::disabled(), SimInstant::ZERO)
                    .total()
        );
        assert!(
            hb.estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
                .total()
                > fil
                    .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
                    .total()
        );
    }

    #[test]
    fn traced_estimate_reconstructs_exactly() {
        let hb = HummingbirdGpu::p100();
        let shallow = ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(32, 4, 2).with_depth(3),
            2,
        ));
        let deep = ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(128, 28, 2).with_depth(10),
            1,
        ));
        for (s, n) in [(shallow, 1u64), (deep, 1_000_000)] {
            let tracer = Tracer::new();
            let traced = hb.estimate(&s, n, &tracer, SimInstant::ZERO);
            assert_eq!(
                traced,
                hb.estimate(&s, n, &Tracer::disabled(), SimInstant::ZERO)
            );
            let trace = tracer.take();
            assert_eq!(trace.breakdown(Scope::Offload), traced);
        }
    }

    #[test]
    fn traced_kernel_named_by_strategy() {
        let hb = HummingbirdGpu::p100();
        let shallow = ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(32, 4, 2).with_depth(3),
            2,
        ));
        let tracer = Tracer::new();
        hb.estimate(&shallow, 100, &tracer, SimInstant::ZERO);
        assert!(tracer
            .take()
            .events()
            .iter()
            .any(|e| e.name == "gemm kernel"));
    }

    #[test]
    fn shallow_trees_use_gemm_costing() {
        let hb = HummingbirdGpu::p100();
        let shallow = ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(32, 4, 2).with_depth(3),
            2,
        ));
        let deep = ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(32, 4, 2).with_depth(10),
            2,
        ));
        // GEMM on a depth-3 tree evaluates 15 nodes vs 4 levels of
        // traversal; deep trees only walk depth+1 despite 2047 nodes.
        let t_shallow = hb
            .estimate(&shallow, 1 << 20, &Tracer::disabled(), SimInstant::ZERO)
            .get(Stage::Scoring);
        let t_deep = hb
            .estimate(&deep, 1 << 20, &Tracer::disabled(), SimInstant::ZERO)
            .get(Stage::Scoring);
        let ratio = t_deep.ratio(t_shallow);
        assert!(ratio < 3.0, "deep/shallow scoring ratio {ratio}");
    }
}
