//! Scheduling policies over a set of backends.

use mlscore_backend::{OnnxCpu, ScoringBackend, SklearnCpu};
use mlscore_forest::ModelStats;
use mlscore_fpga::FpgaBackend;
use mlscore_gpu::{HummingbirdGpu, RapidsFil};
use mlscore_sim::{SimDuration, SimInstant};
use mlscore_telemetry::Tracer;

/// The paper's full backend roster: both CPU engines (sklearn 52-thread,
/// ONNX 1- and 52-thread), both GPU strategies, and the FPGA engine.
pub fn paper_backends() -> Vec<Box<dyn ScoringBackend>> {
    vec![
        Box::new(SklearnCpu::paper_default()),
        Box::new(OnnxCpu::single_thread()),
        Box::new(OnnxCpu::paper_52th()),
        Box::new(HummingbirdGpu::p100()),
        Box::new(RapidsFil::p100()),
        Box::new(FpgaBackend::paper_default()),
    ]
}

/// The one argmin over a backend roster: among backends that support the
/// model and pass `eligible`, the one with the smallest `cost` (seconds),
/// ties going to the lowest index. Every policy in this crate picks through
/// it; they differ only in what "eligible" and "cost" mean.
pub(crate) fn argmin(
    stats: &ModelStats,
    backends: &[Box<dyn ScoringBackend>],
    eligible: impl Fn(usize) -> bool,
    cost: impl Fn(usize, &dyn ScoringBackend) -> f64,
) -> Option<Choice> {
    backends
        .iter()
        .enumerate()
        .filter(|(i, b)| b.supports(stats).is_ok() && eligible(*i))
        .map(|(i, b)| (i, cost(i, b.as_ref())))
        .min_by(|a, b| a.1.total_cmp(&b.1))
        .map(|(index, secs)| Choice::new(index, SimDuration::from_secs(secs.max(0.0)), backends))
}

/// The backend's modelled end-to-end time for `n_records` records.
pub(crate) fn modelled(
    backend: &dyn ScoringBackend,
    stats: &ModelStats,
    n_records: u64,
) -> SimDuration {
    backend
        .estimate(stats, n_records, &Tracer::disabled(), SimInstant::ZERO)
        .total()
}

/// Cost-model (oracle) arbitration with amortized compile charging and an
/// eligibility mask — the serving engine's dispatch rule. Picks the argmin
/// of `estimate(stats, n).total() + prepare(i) / expected_reuse` over
/// backends that (a) support the model and (b) pass `eligible` (the engine
/// passes "this backend's device has a free slot right now"). With every
/// backend eligible and zero prepare costs this reduces to [`OraclePolicy`].
pub fn choose_amortized_eligible(
    stats: &ModelStats,
    n_records: u64,
    expected_reuse: u64,
    backends: &[Box<dyn ScoringBackend>],
    prepare: &dyn Fn(usize) -> SimDuration,
    eligible: &dyn Fn(usize) -> bool,
) -> Option<Choice> {
    let reuse = expected_reuse.max(1) as f64;
    argmin(stats, backends, eligible, |i, b| {
        (modelled(b, stats, n_records) + prepare(i) / reuse).as_secs()
    })
}

/// A scheduling decision.
#[derive(Debug, Clone, PartialEq)]
pub struct Choice {
    /// Index into the backend slice.
    pub index: usize,
    /// The chosen backend's name.
    pub name: String,
    /// The time the policy predicted for its choice.
    pub predicted: SimDuration,
}

impl Choice {
    /// Builds the decision record for `backends[index]`.
    pub fn new(index: usize, predicted: SimDuration, backends: &[Box<dyn ScoringBackend>]) -> Self {
        Self {
            index,
            name: backends[index].name().to_string(),
            predicted,
        }
    }
}

/// A backend-selection policy.
pub trait Policy {
    /// Human-readable policy name.
    fn name(&self) -> &str;

    /// Picks a backend for the given model shape and batch size.
    ///
    /// Backends whose [`ScoringBackend::supports`] rejects the model are
    /// never chosen. Returns `None` only if no backend supports the model.
    fn choose(
        &self,
        stats: &ModelStats,
        n_records: u64,
        backends: &[Box<dyn ScoringBackend>],
    ) -> Option<Choice>;

    /// Folds the observed time of a run on `backend_index` back into the
    /// policy. Fixed policies ignore it (the default); an online learner
    /// updates its estimates.
    fn observe(
        &mut self,
        _stats: &ModelStats,
        _backend_index: usize,
        _n_records: u64,
        _observed: SimDuration,
    ) {
    }
}

/// Picks the backend with the smallest modelled total time — the best any
/// scheduler could do if the cost models are exact.
#[derive(Debug, Clone, Copy, Default)]
pub struct OraclePolicy;

impl Policy for OraclePolicy {
    fn name(&self) -> &str {
        "oracle"
    }

    fn choose(
        &self,
        stats: &ModelStats,
        n_records: u64,
        backends: &[Box<dyn ScoringBackend>],
    ) -> Option<Choice> {
        argmin(
            stats,
            backends,
            |_| true,
            |_, b| modelled(b, stats, n_records).as_secs(),
        )
    }
}

/// The Fig. 1 static rule: small batches stay on the CPU; large batches
/// with simple models go to the GPU; everything else goes to the FPGA.
#[derive(Debug, Clone, Copy)]
pub struct HeuristicPolicy {
    /// Batches strictly below this record count stay on the CPU.
    pub cpu_max_records: u64,
    /// Models with at most this many trees count as "simple" (GPU column
    /// of Fig. 1).
    pub simple_max_trees: usize,
}

impl Default for HeuristicPolicy {
    fn default() -> Self {
        Self {
            cpu_max_records: 5_000,
            simple_max_trees: 1,
        }
    }
}

impl Policy for HeuristicPolicy {
    fn name(&self) -> &str {
        "static-heuristic"
    }

    fn choose(
        &self,
        stats: &ModelStats,
        n_records: u64,
        backends: &[Box<dyn ScoringBackend>],
    ) -> Option<Choice> {
        let is_cpu = |n: &str| n.starts_with("CPU");
        let is_gpu = |n: &str| n.starts_with("GPU");
        let is_fpga = |n: &str| n == "FPGA";
        let preference: [fn(&str) -> bool; 3] = if n_records < self.cpu_max_records {
            [is_cpu, is_fpga, is_gpu]
        } else if stats.n_trees <= self.simple_max_trees {
            [is_gpu, is_fpga, is_cpu]
        } else {
            [is_fpga, is_gpu, is_cpu]
        };
        preference.iter().find_map(|kind| {
            argmin(
                stats,
                backends,
                |i| kind(backends[i].name()),
                |_, b| modelled(b, stats, n_records).as_secs(),
            )
        })
    }
}

/// Fits each backend's cost as an affine function `t(n) = a + b*n` from two
/// probe points (a LogCA-style linear model) and picks the argmin. Cheaper
/// to evaluate than the full cost models at schedule time, but mispredicts
/// where real costs are nonlinear (cache cliffs, multi-pass boundaries).
#[derive(Debug, Clone, Copy)]
pub struct AffineFitPolicy {
    /// Small-probe batch size.
    pub probe_small: u64,
    /// Large-probe batch size.
    pub probe_large: u64,
}

impl Default for AffineFitPolicy {
    fn default() -> Self {
        Self {
            probe_small: 1,
            probe_large: 100_000,
        }
    }
}

impl Policy for AffineFitPolicy {
    fn name(&self) -> &str {
        "affine-fit"
    }

    fn choose(
        &self,
        stats: &ModelStats,
        n_records: u64,
        backends: &[Box<dyn ScoringBackend>],
    ) -> Option<Choice> {
        argmin(
            stats,
            backends,
            |_| true,
            |_, b| {
                let t0 = modelled(b, stats, self.probe_small).as_secs();
                let t1 = modelled(b, stats, self.probe_large).as_secs();
                let slope = (t1 - t0) / (self.probe_large - self.probe_small) as f64;
                let predicted = t0 + slope * (n_records.saturating_sub(self.probe_small)) as f64;
                predicted.max(0.0)
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_forest::{ForestConfig, RandomForest};

    fn stats(n_trees: usize, depth: usize, n_features: usize, n_classes: u32) -> ModelStats {
        ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(n_trees, n_features, n_classes).with_depth(depth),
            1,
        ))
    }

    #[test]
    fn oracle_picks_cpu_for_tiny_batches() {
        let backends = paper_backends();
        let s = stats(128, 10, 4, 3);
        let c = OraclePolicy.choose(&s, 1, &backends).unwrap();
        assert!(c.name.starts_with("CPU"), "chose {}", c.name);
    }

    #[test]
    fn oracle_picks_fpga_for_big_model_big_batch() {
        let backends = paper_backends();
        let s = stats(128, 10, 28, 2);
        let c = OraclePolicy.choose(&s, 1_000_000, &backends).unwrap();
        assert_eq!(c.name, "FPGA");
    }

    #[test]
    fn oracle_never_picks_unsupported() {
        let backends = paper_backends();
        // 3-class model: RAPIDS unsupported; depth 11: FPGA unsupported.
        let s = ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(64, 4, 3).with_depth(11),
            1,
        ));
        let c = OraclePolicy.choose(&s, 1_000_000, &backends).unwrap();
        assert_ne!(c.name, "GPU-RAPIDS");
        assert_ne!(c.name, "FPGA");
    }

    #[test]
    fn heuristic_follows_fig1_regions() {
        let backends = paper_backends();
        let h = HeuristicPolicy::default();
        // Small batch: CPU.
        let c = h.choose(&stats(128, 10, 4, 3), 100, &backends).unwrap();
        assert!(c.name.starts_with("CPU"));
        // Large batch, simple model: GPU.
        let c = h.choose(&stats(1, 10, 4, 3), 1_000_000, &backends).unwrap();
        assert!(c.name.starts_with("GPU"), "chose {}", c.name);
        // Large batch, complex model: FPGA.
        let c = h
            .choose(&stats(128, 10, 28, 2), 1_000_000, &backends)
            .unwrap();
        assert_eq!(c.name, "FPGA");
    }

    #[test]
    fn heuristic_falls_back_when_preferred_kind_unsupported() {
        let backends = paper_backends();
        let h = HeuristicPolicy::default();
        // Deep model: FPGA unsupported; must fall back to GPU.
        let s = ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(128, 4, 3).with_depth(12),
            1,
        ));
        let c = h.choose(&s, 1_000_000, &backends).unwrap();
        assert!(c.name.starts_with("GPU"), "chose {}", c.name);
    }

    #[test]
    fn affine_fit_agrees_with_oracle_in_linear_regions() {
        let backends = paper_backends();
        let s = stats(128, 10, 28, 2);
        let oracle = OraclePolicy.choose(&s, 1_000_000, &backends).unwrap();
        let fitted = AffineFitPolicy::default()
            .choose(&s, 1_000_000, &backends)
            .unwrap();
        assert_eq!(oracle.name, fitted.name);
    }

    #[test]
    fn empty_backend_set_yields_none() {
        let s = stats(1, 4, 4, 2);
        assert!(OraclePolicy.choose(&s, 10, &[]).is_none());
        assert!(HeuristicPolicy::default().choose(&s, 10, &[]).is_none());
        assert!(AffineFitPolicy::default().choose(&s, 10, &[]).is_none());
        assert!(
            choose_amortized_eligible(&s, 10, 1, &[], &|_| SimDuration::ZERO, &|_| true).is_none()
        );
    }

    #[test]
    fn amortized_eligible_reduces_to_oracle_and_respects_the_mask() {
        let backends = paper_backends();
        let s = stats(128, 10, 28, 2);
        let n = 1_000_000u64;
        let zero = |_: usize| SimDuration::ZERO;
        let oracle = OraclePolicy.choose(&s, n, &backends).unwrap();
        let open = choose_amortized_eligible(&s, n, 1, &backends, &zero, &|_| true).unwrap();
        assert_eq!(open, oracle);
        // Mask out the winner: the choice must move, never violate the mask.
        let masked =
            choose_amortized_eligible(&s, n, 1, &backends, &zero, &|i| i != oracle.index).unwrap();
        assert_ne!(masked.index, oracle.index);
        assert!(masked.predicted >= oracle.predicted);
        // Mask everything out: no choice.
        assert!(choose_amortized_eligible(&s, n, 1, &backends, &zero, &|_| false).is_none());
    }

    #[test]
    fn amortized_eligible_charges_prepare_per_reuse() {
        let backends = paper_backends();
        let s = stats(128, 10, 28, 2);
        let n = 1_000_000u64;
        let oracle = OraclePolicy.choose(&s, n, &backends).unwrap();
        assert_eq!(oracle.name, "FPGA");
        // A monster one-time compile on the winner flips a one-shot query...
        let prepare = |i: usize| {
            if backends[i].name() == "FPGA" {
                SimDuration::from_secs(100.0)
            } else {
                SimDuration::ZERO
            }
        };
        let once = choose_amortized_eligible(&s, n, 1, &backends, &prepare, &|_| true).unwrap();
        assert_ne!(once.name, "FPGA");
        // ...but washes out at high reuse.
        let amortized =
            choose_amortized_eligible(&s, n, 1_000_000, &backends, &prepare, &|_| true).unwrap();
        assert_eq!(amortized.name, "FPGA");
    }
}
