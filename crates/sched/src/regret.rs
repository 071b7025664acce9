//! Regret analysis: how much a policy loses to the oracle over a workload
//! grid — the quantitative version of the paper's mispick warnings.

use mlscore_backend::ScoringBackend;
use mlscore_forest::ModelStats;

use crate::policy::{modelled, OraclePolicy, Policy};

/// Aggregate regret of a policy across a workload grid.
#[derive(Debug, Clone, PartialEq)]
pub struct RegretReport {
    /// Policy name.
    pub policy: String,
    /// Number of (model, batch) points evaluated.
    pub points: usize,
    /// Points where the policy picked a different backend than the oracle.
    pub mispicks: usize,
    /// Worst `policy_time / oracle_time` factor observed.
    pub worst_factor: f64,
    /// Mean `policy_time / oracle_time` factor.
    pub mean_factor: f64,
}

impl RegretReport {
    /// Fraction of points where the policy matched the oracle's pick.
    pub fn agreement(&self) -> f64 {
        if self.points == 0 {
            1.0
        } else {
            1.0 - self.mispicks as f64 / self.points as f64
        }
    }
}

/// Evaluates `policy` against the oracle over every `(stats, n_records)`
/// point, charging each point the modelled time of the backend the policy
/// picked.
///
/// # Panics
///
/// Panics if `backends` is empty or no backend supports some model.
pub fn evaluate_policy(
    policy: &dyn Policy,
    grid: &[(ModelStats, u64)],
    backends: &[Box<dyn ScoringBackend>],
) -> RegretReport {
    assert!(!backends.is_empty(), "need at least one backend");
    let oracle = OraclePolicy;
    let mut mispicks = 0usize;
    let mut worst = 1.0f64;
    let mut sum = 0.0f64;
    for (stats, n) in grid {
        let best = oracle
            .choose(stats, *n, backends)
            .expect("some backend must support the model");
        let picked = policy
            .choose(stats, *n, backends)
            .expect("some backend must support the model");
        if picked.index != best.index {
            mispicks += 1;
        }
        let actual = modelled(backends[picked.index].as_ref(), stats, *n);
        let factor = actual.ratio(best.predicted);
        worst = worst.max(factor);
        sum += factor;
    }
    RegretReport {
        policy: policy.name().to_string(),
        points: grid.len(),
        mispicks,
        worst_factor: worst,
        mean_factor: if grid.is_empty() {
            1.0
        } else {
            sum / grid.len() as f64
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{paper_backends, AffineFitPolicy, HeuristicPolicy};
    use mlscore_forest::{ForestConfig, RandomForest};

    fn grid() -> Vec<(ModelStats, u64)> {
        let mut g = Vec::new();
        for &(trees, features, classes) in &[(1usize, 4usize, 3u32), (32, 4, 3), (128, 28, 2)] {
            let stats = ModelStats::of(&RandomForest::synthetic_full(
                &ForestConfig::classification(trees, features, classes).with_depth(10),
                5,
            ));
            for &n in &[1u64, 1_000, 100_000, 1_000_000] {
                g.push((stats, n));
            }
        }
        g
    }

    #[test]
    fn oracle_has_zero_regret() {
        let backends = paper_backends();
        let r = evaluate_policy(&OraclePolicy, &grid(), &backends);
        assert_eq!(r.mispicks, 0);
        assert_eq!(r.worst_factor, 1.0);
        assert_eq!(r.mean_factor, 1.0);
        assert_eq!(r.agreement(), 1.0);
    }

    #[test]
    fn heuristic_regret_is_bounded_but_nonzero_sometimes() {
        let backends = paper_backends();
        let r = evaluate_policy(&HeuristicPolicy::default(), &grid(), &backends);
        assert_eq!(r.points, 12);
        assert!(r.worst_factor >= 1.0);
        assert!(r.mean_factor >= 1.0);
        // The static rule should still be sane: within ~20x of oracle.
        assert!(r.worst_factor < 20.0, "worst factor {}", r.worst_factor);
    }

    #[test]
    fn affine_fit_close_to_oracle() {
        let backends = paper_backends();
        let r = evaluate_policy(&AffineFitPolicy::default(), &grid(), &backends);
        assert!(r.mean_factor < 2.0, "mean factor {}", r.mean_factor);
    }

    #[test]
    fn never_offloading_costs_the_paper_penalty() {
        // A "CPU-only" policy: the paper says not offloading a heavy job
        // forfeits up to ~70x.
        struct CpuOnly;
        impl Policy for CpuOnly {
            fn name(&self) -> &str {
                "cpu-only"
            }
            fn choose(
                &self,
                stats: &ModelStats,
                n_records: u64,
                backends: &[Box<dyn ScoringBackend>],
            ) -> Option<crate::policy::Choice> {
                crate::policy::argmin(
                    stats,
                    backends,
                    |i| backends[i].name().starts_with("CPU"),
                    |_, b| modelled(b, stats, n_records).as_secs(),
                )
            }
        }
        let backends = paper_backends();
        let heavy = ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(128, 28, 2).with_depth(10),
            5,
        ));
        let r = evaluate_policy(&CpuOnly, &[(heavy, 1_000_000)], &backends);
        assert!(
            r.worst_factor > 20.0,
            "staying on CPU should cost dearly, factor {}",
            r.worst_factor
        );
    }
}
