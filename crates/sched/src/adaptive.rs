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

use mlscore_backend::{score_once, BackendError, ScoringBackend};
use mlscore_data::TabularFrame;
use mlscore_forest::{ModelStats, Predictions, RandomForest};
use mlscore_sim::{Clock, SimDuration, SimInstant};
use mlscore_telemetry::Tracer;

use crate::policy::Choice;

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
    /// Observations folded in.
    observations: u32,
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
/// use mlscore_sched::{paper_backends, AdaptiveScheduler};
/// use mlscore_sim::SimInstant;
/// use mlscore_telemetry::Tracer;
///
/// let backends = paper_backends();
/// let mut sched = AdaptiveScheduler::new(0.3);
/// let stats = ModelStats::of(&RandomForest::synthetic_full(
///     &ForestConfig::classification(128, 28, 2).with_depth(10), 1));
/// // Feed it a few observed runs, then it schedules from experience.
/// for _ in 0..8 {
///     let choice = sched.choose(&stats, 1_000_000, &backends).unwrap();
///     let observed = backends[choice.index]
///         .estimate(&stats, 1_000_000, &Tracer::disabled(), SimInstant::ZERO)
///         .total();
///     sched.observe(&stats, choice.index, 1_000_000, observed);
/// }
/// let settled = sched.choose(&stats, 1_000_000, &backends).unwrap();
/// assert_eq!(settled.name, "FPGA");
/// ```
#[derive(Debug, Clone)]
pub struct AdaptiveScheduler {
    estimates: HashMap<(ModelClass, usize), AffineEstimate>,
    /// Smoothed one-time prepare (compile) cost in seconds, learned from
    /// observed artifact-cache misses.
    prepare_costs: HashMap<(ModelClass, usize), f64>,
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
            prepare_costs: HashMap::new(),
            alpha,
        }
    }

    /// Number of distinct (model-class, backend) estimates learned.
    pub fn learned(&self) -> usize {
        self.estimates.len()
    }

    /// Folds one observed run into the estimates.
    pub fn observe(
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
            observations: 0,
        });
        entry.observations += 1;
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

    /// Folds one observed prepare (compile) cost into the amortization
    /// table — typically the wall-clock of an artifact-cache miss
    /// (`PrepareTiming::deserialize + lower`), smoothed like the scoring
    /// estimates.
    pub fn observe_prepare(&mut self, stats: &ModelStats, backend_index: usize, cost: SimDuration) {
        let key = (ModelClass::of(stats), backend_index);
        let c = cost.as_secs();
        let entry = self.prepare_costs.entry(key).or_insert(c);
        *entry += self.alpha * (c - *entry);
    }

    /// The learned prepare cost for a (model-class, backend), if observed.
    pub fn prepare_cost(&self, stats: &ModelStats, backend_index: usize) -> Option<SimDuration> {
        self.prepare_costs
            .get(&(ModelClass::of(stats), backend_index))
            .map(|&s| SimDuration::from_secs(s))
    }

    /// Scores `frame` with `forest` on `backends[backend_index]` *for real*
    /// (a compile-per-call [`score_once`]), measures
    /// the scoring time on the injected `clock`, and folds the measurement
    /// into the estimates — the calibration path for functionally real
    /// backends (the CPU engines running on the executor pool), where
    /// modelled cost and achieved cost can drift.
    ///
    /// The scheduler itself never touches the wall clock: the
    /// `repro`/bench boundary injects [`mlscore_sim::WallClock`], tests
    /// inject a [`mlscore_sim::ManualClock`].
    ///
    /// Returns the predictions and the measured duration (1 s measured ↦
    /// 1 s simulated).
    ///
    /// # Errors
    ///
    /// Propagates the backend's scoring error; nothing is folded in on
    /// failure.
    ///
    /// # Panics
    ///
    /// Panics if `backend_index` is out of range.
    pub fn observe_measured(
        &mut self,
        stats: &ModelStats,
        backend_index: usize,
        backends: &[Box<dyn ScoringBackend>],
        forest: &RandomForest,
        frame: &TabularFrame,
        clock: &dyn Clock,
    ) -> Result<(Predictions, SimDuration), BackendError> {
        let t0 = clock.now();
        let predictions = score_once(&backends[backend_index], forest, frame)?;
        let measured = clock.now().duration_since(t0);
        self.observe(stats, backend_index, frame.n_rows() as u64, measured);
        Ok((predictions, measured))
    }

    /// Schedules a batch: unobserved supported backends are explored first
    /// (round-robin by index), then the learned estimates are exploited.
    pub fn choose(
        &self,
        stats: &ModelStats,
        n_records: u64,
        backends: &[Box<dyn ScoringBackend>],
    ) -> Option<Choice> {
        let class = ModelClass::of(stats);
        let supported: Vec<usize> = (0..backends.len())
            .filter(|&i| backends[i].supports(stats).is_ok())
            .collect();
        // Exploration: any supported backend we have never run?
        if let Some(&index) = supported
            .iter()
            .find(|&&i| !self.estimates.contains_key(&(class, i)))
        {
            return Some(Choice::new(index, SimDuration::ZERO, backends));
        }
        // Exploitation: argmin of learned estimates.
        supported
            .into_iter()
            .map(|i| {
                let est = self.estimates[&(class, i)];
                (i, est.predict(n_records))
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(index, predicted)| {
                Choice::new(index, SimDuration::from_secs(predicted.max(0.0)), backends)
            })
    }

    /// Like [`AdaptiveScheduler::choose`], but charges each backend its
    /// *amortized* compile cost: `t(n) + prepare / expected_reuse`, where
    /// `expected_reuse` is how many queries are expected to share the
    /// compiled artifact before it leaves the cache. With a reuse of 1
    /// every query pays its full compile (the cold regime, which penalizes
    /// backends with expensive lowering like the FPGA's BRAM placement);
    /// as reuse grows the compile term washes out and the decision
    /// converges to [`AdaptiveScheduler::choose`]. Backends with no
    /// observed prepare cost are charged nothing.
    pub fn choose_amortized(
        &self,
        stats: &ModelStats,
        n_records: u64,
        expected_reuse: u64,
        backends: &[Box<dyn ScoringBackend>],
    ) -> Option<Choice> {
        self.choose_amortized_among(stats, n_records, expected_reuse, backends, &|_| true)
    }

    /// [`AdaptiveScheduler::choose_amortized`] restricted to backends the
    /// `eligible` mask admits. The serving engine passes "this backend's
    /// device has a free slot right now", so arbitration never parks a
    /// query on a busy device while an idle one could serve it. Exploration
    /// also honours the mask: an unobserved backend is only probed when it
    /// is currently eligible.
    pub fn choose_amortized_among(
        &self,
        stats: &ModelStats,
        n_records: u64,
        expected_reuse: u64,
        backends: &[Box<dyn ScoringBackend>],
        eligible: &dyn Fn(usize) -> bool,
    ) -> Option<Choice> {
        let class = ModelClass::of(stats);
        let reuse = expected_reuse.max(1) as f64;
        let supported: Vec<usize> = (0..backends.len())
            .filter(|&i| backends[i].supports(stats).is_ok() && eligible(i))
            .collect();
        // Exploration first, exactly as in `choose`.
        if let Some(&index) = supported
            .iter()
            .find(|&&i| !self.estimates.contains_key(&(class, i)))
        {
            return Some(Choice::new(index, SimDuration::ZERO, backends));
        }
        supported
            .into_iter()
            .map(|i| {
                let est = self.estimates[&(class, i)];
                let prepare = self.prepare_costs.get(&(class, i)).copied().unwrap_or(0.0);
                (i, est.predict(n_records) + prepare / reuse)
            })
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .map(|(index, predicted)| {
                Choice::new(index, SimDuration::from_secs(predicted.max(0.0)), backends)
            })
    }

    /// Runs a full observe-choose loop against the backends' own cost
    /// models for `rounds` rounds at a fixed workload, returning the final
    /// choice. Convenience for simulations and tests.
    pub fn converge(
        &mut self,
        stats: &ModelStats,
        n_records: u64,
        backends: &[Box<dyn ScoringBackend>],
        rounds: usize,
    ) -> Option<Choice> {
        for _ in 0..rounds {
            let choice = self.choose(stats, n_records, backends)?;
            let observed = backends[choice.index]
                .estimate(stats, n_records, &Tracer::disabled(), SimInstant::ZERO)
                .total();
            self.observe(stats, choice.index, n_records, observed);
        }
        self.choose(stats, n_records, backends)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{paper_backends, OraclePolicy, Policy};
    use mlscore_forest::{ForestConfig, RandomForest};

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
            let t = backends[c.index]
                .estimate(&s, 1_000, &Tracer::disabled(), SimInstant::ZERO)
                .total();
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
            let settled = sched.converge(&s, n, &backends, 20).unwrap();
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
        assert_eq!(sched.learned(), 0);
        sched.converge(&s, 1_000, &backends, 10);
        assert!(sched.learned() > 0);
    }

    #[test]
    fn observe_measured_runs_for_real_and_learns() {
        use mlscore_backend::{OnnxCpu, SklearnCpu};
        let forest =
            RandomForest::synthetic_full(&ForestConfig::classification(8, 4, 3).with_depth(6), 5);
        let s = ModelStats::of(&forest);
        let frame = mlscore_data::TabularFrame::from_rows(
            (0..400).map(|i| (i as f32 * 0.29) % 1.0).collect(),
            4,
        )
        .unwrap();
        let backends: Vec<Box<dyn ScoringBackend>> = vec![
            Box::new(SklearnCpu::with_threads(2)),
            Box::new(OnnxCpu::single_thread()),
        ];
        let mut sched = AdaptiveScheduler::new(0.5);
        // Calibration against the host is the point here, so this test IS
        // the measurement boundary: inject the real clock.
        let clock = mlscore_sim::WallClock::new();
        for i in 0..backends.len() {
            let (preds, measured) = sched
                .observe_measured(&s, i, &backends, &forest, &frame, &clock)
                .unwrap();
            assert_eq!(preds, forest.predict_batch(frame.as_slice()));
            assert!(measured > SimDuration::ZERO);
        }
        assert_eq!(sched.learned(), 2);
        // With every backend observed, the scheduler now exploits.
        let pick = sched.choose(&s, 100, &backends).unwrap();
        assert!(pick.predicted >= SimDuration::ZERO);
    }

    #[test]
    fn amortized_choice_accounts_for_compile_cost() {
        let backends = paper_backends();
        let s = stats(128, 10, 28, 2);
        let n = 1_000_000u64;
        let mut sched = AdaptiveScheduler::new(0.4);
        sched.converge(&s, n, &backends, 20);
        // Steady state (infinite reuse) favors the FPGA for the heavy
        // HIGGS-like workload...
        assert_eq!(sched.choose(&s, n, &backends).unwrap().name, "FPGA");
        // ...but charge it a monster one-time compile (BRAM placement) and
        // a one-shot query should flee to a backend with free lowering.
        for (i, b) in backends.iter().enumerate() {
            let cost = if b.name() == "FPGA" {
                SimDuration::from_secs(100.0)
            } else {
                SimDuration::ZERO
            };
            sched.observe_prepare(&s, i, cost);
        }
        assert_eq!(
            sched.prepare_cost(&s, 0).unwrap(),
            SimDuration::from_secs(if backends[0].name() == "FPGA" {
                100.0
            } else {
                0.0
            })
        );
        let once = sched.choose_amortized(&s, n, 1, &backends).unwrap();
        assert_ne!(
            once.name, "FPGA",
            "one-shot query must not pay 100 s of compile"
        );
        let amortized = sched.choose_amortized(&s, n, 1_000_000, &backends).unwrap();
        assert_eq!(amortized.name, "FPGA", "compile cost amortizes away");
    }

    #[test]
    fn amortized_matches_plain_choice_without_prepare_observations() {
        let backends = paper_backends();
        for (s, n) in [
            (stats(128, 10, 28, 2), 1_000_000u64),
            (stats(4, 6, 4, 3), 100u64),
        ] {
            let mut sched = AdaptiveScheduler::new(0.4);
            sched.converge(&s, n, &backends, 20);
            let plain = sched.choose(&s, n, &backends).unwrap();
            let amortized = sched.choose_amortized(&s, n, 1, &backends).unwrap();
            assert_eq!(plain.name, amortized.name);
            assert_eq!(plain.predicted, amortized.predicted);
        }
    }

    #[test]
    #[should_panic(expected = "alpha")]
    fn rejects_bad_alpha() {
        AdaptiveScheduler::new(0.0);
    }

    #[test]
    fn amortized_among_respects_the_eligibility_mask() {
        let backends = paper_backends();
        let s = stats(128, 10, 28, 2);
        let n = 1_000_000u64;
        let mut sched = AdaptiveScheduler::new(0.4);
        sched.converge(&s, n, &backends, 20);
        let open = sched
            .choose_amortized_among(&s, n, 1, &backends, &|_| true)
            .unwrap();
        assert_eq!(
            open.name,
            sched.choose_amortized(&s, n, 1, &backends).unwrap().name
        );
        // Mask out the winner: the pick must move elsewhere.
        let masked = sched
            .choose_amortized_among(&s, n, 1, &backends, &|i| i != open.index)
            .unwrap();
        assert_ne!(masked.index, open.index);
        // Nothing eligible: no pick, even though everything is supported.
        assert!(sched
            .choose_amortized_among(&s, n, 1, &backends, &|_| false)
            .is_none());
        // Exploration honours the mask too: a fresh scheduler restricted to
        // one backend explores exactly that backend.
        let fresh = AdaptiveScheduler::new(0.4);
        let probe = fresh
            .choose_amortized_among(&s, n, 1, &backends, &|i| i == 4)
            .unwrap();
        assert_eq!(probe.index, 4);
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
                    let t = backends[c.index]
                        .estimate(s, n, &Tracer::disabled(), SimInstant::ZERO)
                        .total();
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
