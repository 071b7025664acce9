//! An online scheduler that learns per-backend costs from observed runs.
//!
//! The paper's Fig. 1 scheduler must decide "dynamically" because models
//! and data arrive with the query. A production scheduler cannot probe the
//! true cost models; it can only observe the runs it actually executed.
//! [`AdaptiveScheduler`] does that: it keeps a per-(backend, model-class)
//! affine estimate `t(n) = a + b*n`, fitted by exponential smoothing over
//! observations, explores unobserved backends first, and then exploits the
//! learned estimates.

use std::collections::HashMap;

use mlscore_backend::ScoringBackend;
use mlscore_forest::ModelStats;
use mlscore_sim::SimDuration;

use crate::policy::{argmin, Choice, Policy};

/// Coarse model class used as the learning key: backends behave affinely in
/// records within a (tree-count, depth, feature-width) bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ModelClass {
    /// log2 bucket of tree count.
    pub trees_log2: u32,
    /// Tree depth.
    pub depth: usize,
    /// log2 bucket of feature count.
    pub features_log2: u32,
}

impl ModelClass {
    /// The bucket for a model.
    pub fn of(stats: &ModelStats) -> Self {
        Self {
            trees_log2: (stats.n_trees.max(1) as u32).ilog2(),
            depth: stats.max_depth,
            features_log2: (stats.n_features.max(1) as u32).ilog2(),
        }
    }
}

/// A smoothed affine cost estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct AffineEstimate {
    /// Fixed cost in seconds.
    intercept: f64,
    /// Per-record cost in seconds.
    slope: f64,
}

impl AffineEstimate {
    fn predict(&self, n_records: u64) -> f64 {
        self.intercept + self.slope * n_records as f64
    }
}

/// An online learner over a fixed backend roster.
///
/// # Example
///
/// ```
/// use mlscore_forest::{ForestConfig, ModelStats, RandomForest};
/// use mlscore_sched::{paper_backends, replay, AdaptiveScheduler, Policy, QueryTrace, TraceQuery};
///
/// let backends = paper_backends();
/// let mut sched = AdaptiveScheduler::new(0.3);
/// let stats = ModelStats::of(&RandomForest::synthetic_full(
///     &ForestConfig::classification(128, 28, 2).with_depth(10), 1));
/// // Feed it a few observed runs, then it schedules from experience.
/// let query = TraceQuery { stats, n_records: 1_000_000 };
/// replay(&mut sched, &QueryTrace::new(vec![query; 8]), &backends);
/// let settled = sched.choose(&stats, 1_000_000, &backends).unwrap();
/// assert_eq!(settled.name, "FPGA");
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveScheduler {
    estimates: HashMap<(ModelClass, usize), AffineEstimate>,
    /// Smoothing factor in `(0, 1]`: weight of the newest observation.
    alpha: f64,
}

impl AdaptiveScheduler {
    /// Creates a scheduler with smoothing factor `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < alpha <= 1`.
    pub fn new(alpha: f64) -> Self {
        assert!(alpha > 0.0 && alpha <= 1.0, "alpha must be in (0, 1]");
        Self {
            estimates: HashMap::new(),
            alpha,
        }
    }
}

/// The online learner as a [`Policy`]: `choose` schedules a batch from
/// its learned estimates (exploring unobserved backends first) and
/// `observe` folds each run back in, so [`crate::trace::replay`] drives it
/// like any fixed policy.
impl Policy for AdaptiveScheduler {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn choose(
        &self,
        stats: &ModelStats,
        n_records: u64,
        backends: &[Box<dyn ScoringBackend>],
    ) -> Option<Choice> {
        // Unobserved supported backends are explored first (round-robin
        // by index), then the learned estimates are exploited.
        let class = ModelClass::of(stats);
        if let Some(index) = (0..backends.len()).find(|&i| {
            backends[i].supports(stats).is_ok() && !self.estimates.contains_key(&(class, i))
        }) {
            return Some(Choice::new(index, SimDuration::ZERO, backends));
        }
        argmin(
            stats,
            backends,
            |_| true,
            |i, _| self.estimates[&(class, i)].predict(n_records),
        )
    }

    /// Folds one observed run into the estimates.
    fn observe(
        &mut self,
        stats: &ModelStats,
        backend_index: usize,
        n_records: u64,
        observed: SimDuration,
    ) {
        let key = (ModelClass::of(stats), backend_index);
        let t = observed.as_secs();
        let n = n_records.max(1) as f64;
        let entry = self.estimates.entry(key).or_insert(AffineEstimate {
            // First sight: attribute everything to the intercept for tiny
            // batches, to the slope for big ones.
            intercept: t.min(0.005),
            slope: (t / n).min(t),
        });
        // Residual update: split the error between intercept (for small
        // batches) and slope (for large ones), smoothing by alpha.
        let predicted = entry.predict(n_records);
        let error = t - predicted;
        let batch_weight = n / (n + 10_000.0); // big batches inform the slope
        entry.slope += self.alpha * error * batch_weight / n;
        entry.intercept += self.alpha * error * (1.0 - batch_weight);
        entry.slope = entry.slope.max(0.0);
        entry.intercept = entry.intercept.max(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{modelled, paper_backends, OraclePolicy};
    use crate::trace::{replay, QueryTrace, TraceQuery};
    use mlscore_forest::{ForestConfig, RandomForest};

    /// Runs `rounds` observe-choose rounds at one fixed workload.
    fn warm(
        sched: &mut AdaptiveScheduler,
        stats: &ModelStats,
        n_records: u64,
        backends: &[Box<dyn ScoringBackend>],
        rounds: usize,
    ) {
        let query = TraceQuery {
            stats: *stats,
            n_records,
        };
        replay(sched, &QueryTrace::new(vec![query; rounds]), backends);
    }

    fn stats(trees: usize, depth: usize, features: usize, classes: u32) -> ModelStats {
        ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(trees, features, classes).with_depth(depth),
            3,
        ))
    }

    #[test]
    fn explores_every_supported_backend_first() {
        let backends = paper_backends();
        let s = stats(16, 10, 28, 2);
        let mut sched = AdaptiveScheduler::new(0.5);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..backends.len() {
            let c = sched.choose(&s, 1_000, &backends).unwrap();
            assert!(
                seen.insert(c.index),
                "revisited {} during exploration",
                c.name
            );
            let t = modelled(backends[c.index].as_ref(), &s, 1_000);
            sched.observe(&s, c.index, 1_000, t);
        }
        assert_eq!(seen.len(), backends.len());
    }

    #[test]
    fn converges_to_oracle_choice_for_fixed_workload() {
        let backends = paper_backends();
        for (s, n) in [
            (stats(128, 10, 28, 2), 1_000_000u64),
            (stats(128, 10, 4, 3), 100u64),
        ] {
            let oracle = OraclePolicy.choose(&s, n, &backends).unwrap();
            let mut sched = AdaptiveScheduler::new(0.4);
            warm(&mut sched, &s, n, &backends, 20);
            let settled = sched.choose(&s, n, &backends).unwrap();
            assert_eq!(settled.name, oracle.name, "at {n} records");
        }
    }

    #[test]
    fn model_classes_are_bucketed() {
        let a = ModelClass::of(&stats(128, 10, 28, 2));
        let b = ModelClass::of(&stats(130, 10, 28, 2));
        let c = ModelClass::of(&stats(1, 10, 28, 2));
        assert_eq!(a, b, "128 and 130 trees share a log2 bucket");
        assert_ne!(a, c);
    }

    #[test]
    fn learned_counts_estimates() {
        let backends = paper_backends();
        let s = stats(4, 6, 4, 3);
        let mut sched = AdaptiveScheduler::new(0.3);
        assert_eq!(sched.estimates.len(), 0);
        warm(&mut sched, &s, 1_000, &backends, 10);
        assert!(!sched.estimates.is_empty());
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        AdaptiveScheduler::new(0.0);
    }

    #[test]
    fn interleaved_workloads_learn_independently() {
        // Learning the heavy workload must not corrupt the tiny workload's
        // decision (different model classes).
        let backends = paper_backends();
        let heavy = stats(128, 10, 28, 2);
        let tiny = stats(1, 6, 4, 3);
        let mut sched = AdaptiveScheduler::new(0.4);
        for _ in 0..15 {
            for (s, n) in [(&heavy, 1_000_000u64), (&tiny, 10u64)] {
                if let Some(c) = sched.choose(s, n, &backends) {
                    let t = modelled(backends[c.index].as_ref(), s, n);
                    sched.observe(s, c.index, n, t);
                }
            }
        }
        let heavy_pick = sched.choose(&heavy, 1_000_000, &backends).unwrap();
        let tiny_pick = sched.choose(&tiny, 10, &backends).unwrap();
        assert_eq!(heavy_pick.name, "FPGA");
        assert!(
            tiny_pick.name.starts_with("CPU"),
            "tiny pick {}",
            tiny_pick.name
        );
    }
}
