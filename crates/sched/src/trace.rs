//! Trace-driven scheduling simulation.
//!
//! Fig. 1's premise is that queries arrive with *mixed* models and batch
//! sizes, so the offload decision must be made per query. This module
//! generates synthetic query traces (a skewed mix of the paper's model
//! shapes and batch sizes) and [`replay`]s them serially through any
//! [`Policy`] — a fixed policy or the online
//! [`AdaptiveScheduler`](crate::AdaptiveScheduler). `mlscore-serve`'s
//! `ServeEngine` layers queueing, coalescing, compile charging and device
//! contention on top; on one exclusive single-slot device with every
//! arrival at t = 0 and coalescing off, its makespan is this replay's total
//! plus the compile charges.

use std::collections::BTreeMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mlscore_backend::ScoringBackend;
use mlscore_data::DatasetSpec;
use mlscore_forest::{ForestConfig, ModelStats, RandomForest};
use mlscore_sim::SimDuration;
use mlscore_telemetry::Histogram;

use crate::policy::{modelled, Policy};

/// One query in a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceQuery {
    /// Model shape.
    pub stats: ModelStats,
    /// Batch size.
    pub n_records: u64,
}

/// A sequence of scoring queries.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    queries: Vec<TraceQuery>,
}

/// The paper's model-shape grid used by the synthetic traces: both
/// datasets x {1, 16, 128} trees x depths {6, 10}, each materialized as a
/// full synthetic forest with a shape-derived seed. The serving engine's
/// model catalog is built from this same function, so a trace shape index
/// identifies a concrete scorable model, not just its statistics.
pub fn paper_shape_forests() -> Vec<RandomForest> {
    let mut shapes = Vec::new();
    for dataset in DatasetSpec::all() {
        for trees in [1usize, 16, 128] {
            for depth in [6usize, 10] {
                let cfg =
                    ForestConfig::classification(trees, dataset.n_features(), dataset.n_classes())
                        .with_depth(depth);
                shapes.push(RandomForest::synthetic_full(
                    &cfg,
                    0xFEED ^ trees as u64 ^ (depth as u64) << 8,
                ));
            }
        }
    }
    shapes
}

impl QueryTrace {
    /// Wraps explicit queries.
    pub fn new(queries: Vec<TraceQuery>) -> Self {
        Self { queries }
    }

    /// The raw `(shape index, batch size)` draws behind
    /// [`QueryTrace::synthetic`]: shape indices are uniform over
    /// `0..n_shapes` and batch sizes are log-uniform over `1..10^6` (heavy
    /// small-query tail with occasional large scans). Exposed so workload
    /// generators that need the *model identity* (the serving engine keys
    /// its coalescer and artifact cache on the concrete bundle) can share
    /// the exact query mix with the stats-only trace.
    pub fn synthetic_draws(n: usize, seed: u64, n_shapes: usize) -> Vec<(usize, u64)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                let shape = rng.gen_range(0..n_shapes);
                let exponent: f64 = rng.gen_range(0.0..6.0);
                (shape, 10f64.powf(exponent).round() as u64)
            })
            .collect()
    }

    /// Generates `n` queries mixing the paper's model shapes
    /// ([`paper_shape_forests`]) with a heavy-tailed batch-size
    /// distribution: mostly small interactive lookups, occasionally huge
    /// analytical scans — the regime where static placement loses.
    pub fn synthetic(n: usize, seed: u64) -> Self {
        let shapes: Vec<ModelStats> = paper_shape_forests().iter().map(ModelStats::of).collect();
        let queries = Self::synthetic_draws(n, seed, shapes.len())
            .into_iter()
            .map(|(shape, n_records)| TraceQuery {
                stats: shapes[shape],
                n_records,
            })
            .collect();
        Self { queries }
    }

    /// The queries.
    pub fn queries(&self) -> &[TraceQuery] {
        &self.queries
    }

    /// Number of queries.
    pub fn len(&self) -> usize {
        self.queries.len()
    }

    /// Returns `true` if the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.queries.is_empty()
    }
}

/// The result of replaying a trace through a policy.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceOutcome {
    /// Policy name.
    pub policy: String,
    /// Sum of per-query scoring times under the chosen backends.
    pub total: SimDuration,
    /// Per-query latencies, in trace order.
    pub latencies: Vec<SimDuration>,
    /// How many queries each backend received.
    pub picks: BTreeMap<String, usize>,
}

impl TraceOutcome {
    /// The latency distribution folded into the shared telemetry
    /// [`Histogram`] — the one `repro scheduler` renders per policy.
    pub fn latency_histogram(&self) -> Histogram {
        let mut h = Histogram::new();
        for &latency in &self.latencies {
            h.record(latency);
        }
        h
    }

    /// The `p`-th latency percentile (`0 < p <= 100`), from the
    /// log-bucketed [`Histogram`] (nearest-rank bucket upper bound, clamped
    /// to the observed min/max).
    ///
    /// # Panics
    ///
    /// Panics on an empty outcome or `p` outside `(0, 100]`.
    pub fn percentile(&self, p: f64) -> SimDuration {
        assert!(p > 0.0 && p <= 100.0, "percentile out of range");
        self.latency_histogram().quantile(p / 100.0)
    }
}

/// Replays a trace serially: each query runs on the backend `policy`
/// picks and is charged that backend's modelled time, which is fed back
/// through [`Policy::observe`] (a no-op for fixed policies, the learning
/// step for the online scheduler).
///
/// # Panics
///
/// Panics if no backend supports some trace query.
pub fn replay(
    policy: &mut dyn Policy,
    trace: &QueryTrace,
    backends: &[Box<dyn ScoringBackend>],
) -> TraceOutcome {
    let mut total = SimDuration::ZERO;
    let mut latencies = Vec::with_capacity(trace.len());
    let mut picks: BTreeMap<String, usize> = BTreeMap::new();
    for q in trace.queries() {
        let choice = policy
            .choose(&q.stats, q.n_records, backends)
            .expect("some backend must support every trace query");
        let latency = modelled(backends[choice.index].as_ref(), &q.stats, q.n_records);
        policy.observe(&q.stats, choice.index, q.n_records, latency);
        total += latency;
        latencies.push(latency);
        *picks.entry(choice.name).or_default() += 1;
    }
    TraceOutcome {
        policy: policy.name().to_string(),
        total,
        latencies,
        picks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adaptive::AdaptiveScheduler;
    use crate::policy::{paper_backends, HeuristicPolicy, OraclePolicy};

    #[test]
    fn synthetic_draws_back_the_same_trace() {
        let shapes = paper_shape_forests();
        assert_eq!(shapes.len(), 12, "2 datasets x 3 tree counts x 2 depths");
        let stats: Vec<ModelStats> = shapes.iter().map(ModelStats::of).collect();
        let trace = QueryTrace::synthetic(50, 13);
        let draws = QueryTrace::synthetic_draws(50, 13, shapes.len());
        for (q, (shape, n_records)) in trace.queries().iter().zip(&draws) {
            assert_eq!(q.stats, stats[*shape]);
            assert_eq!(q.n_records, *n_records);
        }
    }

    #[test]
    fn synthetic_trace_is_deterministic_and_mixed() {
        let a = QueryTrace::synthetic(100, 5);
        let b = QueryTrace::synthetic(100, 5);
        assert_eq!(a, b);
        assert_eq!(a.len(), 100);
        assert!(!a.is_empty());
        // Batch sizes span several orders of magnitude.
        let min = a.queries().iter().map(|q| q.n_records).min().unwrap();
        let max = a.queries().iter().map(|q| q.n_records).max().unwrap();
        assert!(
            max / min.max(1) > 1_000,
            "trace not heavy-tailed: {min}..{max}"
        );
    }

    #[test]
    fn oracle_replay_lower_bounds_other_policies() {
        let backends = paper_backends();
        let trace = QueryTrace::synthetic(60, 9);
        let oracle = replay(&mut OraclePolicy, &trace, &backends);
        let heuristic = replay(&mut HeuristicPolicy::default(), &trace, &backends);
        assert!(oracle.total <= heuristic.total);
        assert_eq!(oracle.latencies.len(), 60);
    }

    #[test]
    fn oracle_uses_multiple_backends_on_a_mixed_trace() {
        let backends = paper_backends();
        let trace = QueryTrace::synthetic(120, 2);
        let outcome = replay(&mut OraclePolicy, &trace, &backends);
        assert!(
            outcome.picks.len() >= 2,
            "a mixed trace needs a mixed placement: {:?}",
            outcome.picks
        );
        let assigned: usize = outcome.picks.values().sum();
        assert_eq!(assigned, 120);
    }

    #[test]
    fn percentiles_are_ordered() {
        let backends = paper_backends();
        let trace = QueryTrace::synthetic(80, 4);
        let outcome = replay(&mut OraclePolicy, &trace, &backends);
        let p50 = outcome.percentile(50.0);
        let p95 = outcome.percentile(95.0);
        let p99 = outcome.percentile(99.0);
        assert!(p50 <= p95);
        assert!(p95 <= p99);
        assert!(p99 <= outcome.percentile(100.0));
    }

    #[test]
    fn adaptive_replay_approaches_oracle_on_repeated_mix() {
        let backends = paper_backends();
        // Repeat the same short mix many times so the learner converges.
        let base = QueryTrace::synthetic(10, 7);
        let repeated = QueryTrace::new((0..12).flat_map(|_| base.queries().to_vec()).collect());
        let oracle = replay(&mut OraclePolicy, &repeated, &backends);
        let mut sched = AdaptiveScheduler::new(0.4);
        // First pass pays the exploration bill (every backend gets probed,
        // including slow ones, on whatever batch arrives).
        let exploration = replay(&mut sched, &repeated, &backends);
        assert!(exploration.total >= oracle.total);
        // Second pass runs on learned estimates and must sit close to the
        // oracle.
        let learned = replay(&mut sched, &repeated, &backends);
        let factor = learned.total.ratio(oracle.total);
        assert!(factor < 1.5, "learned pass {factor}x oracle");
        assert!(learned.total <= exploration.total);
    }

    #[test]
    fn percentile_comes_from_the_shared_histogram() {
        let backends = paper_backends();
        let trace = QueryTrace::synthetic(50, 11);
        let outcome = replay(&mut OraclePolicy, &trace, &backends);
        let h = outcome.latency_histogram();
        assert_eq!(h.count(), 50);
        for p in [50.0, 95.0, 99.0, 100.0] {
            assert_eq!(outcome.percentile(p), h.quantile(p / 100.0));
        }
        assert_eq!(outcome.percentile(100.0), h.max());
    }

    #[test]
    #[should_panic(expected = "empty outcome")]
    fn percentile_of_empty_outcome_panics() {
        let outcome = TraceOutcome {
            policy: "x".into(),
            total: SimDuration::ZERO,
            latencies: vec![],
            picks: BTreeMap::new(),
        };
        outcome.percentile(50.0);
    }
}
