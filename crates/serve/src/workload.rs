//! Model catalogs and open-loop Poisson arrivals.
//!
//! The workload half of the serving simulation: *which* concrete models
//! queries reference (so the coalescer and artifact cache can key on real
//! bundle content hashes) and *when* queries arrive. Everything is seeded
//! and draws from the vendored [`StdRng`]; no wall clock anywhere.

use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mlscore_forest::{ModelBundle, ModelStats, RandomForest};
use mlscore_sched::{paper_shape_forests, QueryTrace};
use mlscore_sim::{SimDuration, SimInstant};

use crate::error::ServeError;

/// The concrete models a workload's queries reference.
///
/// Each entry holds the forest (for functional scoring), its serialized
/// bundle (for content hashing and byte-size-driven compile costs), and its
/// shape statistics (for cost models and arbitration).
#[derive(Debug, Clone)]
pub struct ModelCatalog {
    forests: Vec<Arc<RandomForest>>,
    bundles: Vec<ModelBundle>,
    stats: Vec<ModelStats>,
}

impl ModelCatalog {
    /// Builds a catalog from explicit forests.
    pub fn from_forests(forests: Vec<RandomForest>) -> Self {
        let bundles: Vec<ModelBundle> = forests.iter().map(ModelBundle::serialize).collect();
        let stats: Vec<ModelStats> = forests.iter().map(ModelStats::of).collect();
        Self {
            forests: forests.into_iter().map(Arc::new).collect(),
            bundles,
            stats,
        }
    }

    /// The paper's 12-shape model grid ([`paper_shape_forests`]) — the same
    /// forests behind `QueryTrace::synthetic`, so a synthetic trace's shape
    /// index addresses this catalog directly.
    pub fn paper_mix() -> Self {
        Self::from_forests(paper_shape_forests())
    }

    /// Number of models.
    pub fn len(&self) -> usize {
        self.forests.len()
    }

    /// Returns `true` if the catalog has no models.
    pub fn is_empty(&self) -> bool {
        self.forests.is_empty()
    }

    /// Shape statistics of model `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range — model indices come from
    /// [`WorkloadSpec::draws`] over this catalog's length.
    pub fn stats(&self, i: usize) -> &ModelStats {
        // analyze: allow(P001, reason="model indices are drawn modulo this catalog's length; a miss is an engine bug, not load")
        &self.stats[i]
    }

    /// The deserialized model `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (see [`ModelCatalog::stats`]).
    pub fn forest(&self, i: usize) -> &Arc<RandomForest> {
        // analyze: allow(P001, reason="model indices are drawn modulo this catalog's length; a miss is an engine bug, not load")
        &self.forests[i]
    }

    /// The serialized bundle of model `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (see [`ModelCatalog::stats`]).
    pub fn bundle(&self, i: usize) -> &ModelBundle {
        // analyze: allow(P001, reason="model indices are drawn modulo this catalog's length; a miss is an engine bug, not load")
        &self.bundles[i]
    }

    /// Serialized size of model `i`, in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (see [`ModelCatalog::stats`]).
    pub fn model_bytes(&self, i: usize) -> u64 {
        // analyze: allow(P001, reason="model indices are drawn modulo this catalog's length; a miss is an engine bug, not load")
        self.bundles[i].len() as u64
    }
}

/// A complete workload: how many queries, which seed, and the offered
/// rate. Queries arrive open loop, with exponential interarrival times at
/// `rate_qps`; arrivals do not react to system state, so queues can grow
/// without bound. The query *content* (model index, batch size) comes from
/// [`QueryTrace::synthetic_draws`] under the same seed, so a workload and a
/// stats-only trace with equal `(queries, seed)` carry the identical mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Total queries to issue.
    pub queries: usize,
    /// Master seed; query content and arrival times derive from it.
    pub seed: u64,
    /// Offered load in queries per second.
    pub rate_qps: f64,
}

/// Seed offset separating the arrival-time stream from the query-content
/// stream (content must match `QueryTrace::synthetic(queries, seed)`
/// exactly, so arrivals may not consume from the same RNG).
const ARRIVAL_STREAM: u64 = 0x5EED_AA77;

impl WorkloadSpec {
    /// The `(model index, batch size)` content of each query, in issue
    /// order.
    pub fn draws(&self, n_models: usize) -> Vec<(usize, u64)> {
        QueryTrace::synthetic_draws(self.queries, self.seed, n_models)
    }

    /// Checks that the specification is servable: the rate must be
    /// positive and finite.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidWorkload`] describing the problem.
    pub fn validate(&self) -> Result<(), ServeError> {
        if self.rate_qps > 0.0 && self.rate_qps.is_finite() {
            Ok(())
        } else {
            Err(ServeError::workload(format!(
                "Poisson rate must be positive and finite, got {}",
                self.rate_qps
            )))
        }
    }

    /// Arrival instants, one per query, in issue order: cumulative
    /// exponential gaps at the offered rate.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidWorkload`] on a non-positive or
    /// non-finite rate.
    pub fn arrival_times(&self) -> Result<Vec<SimInstant>, ServeError> {
        self.validate()?;
        let mut rng = StdRng::seed_from_u64(self.seed ^ ARRIVAL_STREAM);
        let mut t = SimInstant::ZERO;
        Ok((0..self.queries)
            .map(|_| {
                t += exponential(&mut rng, 1.0 / self.rate_qps);
                t
            })
            .collect())
    }
}

/// One exponential draw with the given mean.
fn exponential(rng: &mut StdRng, mean_secs: f64) -> SimDuration {
    let u: f64 = rng.gen(); // [0, 1)
    SimDuration::from_secs(-(1.0 - u).ln() * mean_secs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_mix_matches_the_trace_shapes() {
        let catalog = ModelCatalog::paper_mix();
        assert_eq!(catalog.len(), 12);
        assert!(!catalog.is_empty());
        let shapes: Vec<ModelStats> = paper_shape_forests().iter().map(ModelStats::of).collect();
        assert_eq!(shapes.len(), catalog.len());
        for (i, shape) in shapes.iter().enumerate() {
            assert_eq!(catalog.stats(i), shape);
            assert_eq!(
                catalog.bundle(i).content_hash(),
                ModelBundle::serialize(catalog.forest(i)).content_hash(),
                "bundle must hash the stored forest"
            );
            assert!(catalog.model_bytes(i) > 0);
        }
    }

    #[test]
    fn draws_match_the_synthetic_trace() {
        let catalog = ModelCatalog::paper_mix();
        let spec = WorkloadSpec {
            queries: 40,
            seed: 17,
            rate_qps: 100.0,
        };
        let draws = spec.draws(catalog.len());
        let trace = QueryTrace::synthetic(40, 17);
        for ((model, n_records), q) in draws.iter().zip(trace.queries()) {
            assert_eq!(catalog.stats(*model), &q.stats);
            assert_eq!(*n_records, q.n_records);
        }
    }

    #[test]
    fn poisson_arrivals_are_increasing_and_rate_scaled() {
        let spec = |rate_qps| WorkloadSpec {
            queries: 2_000,
            seed: 3,
            rate_qps,
        };
        let slow = spec(10.0).arrival_times().unwrap();
        let fast = spec(100.0).arrival_times().unwrap();
        assert!(slow.windows(2).all(|w| w[0] <= w[1]));
        // Same seed, 10x the rate: the same exponential draws shrink 10x.
        let ratio = slow
            .last()
            .unwrap()
            .duration_since(SimInstant::ZERO)
            .as_secs()
            / fast
                .last()
                .unwrap()
                .duration_since(SimInstant::ZERO)
                .as_secs();
        assert!((9.99..10.01).contains(&ratio), "rate scaling ratio {ratio}");
        // The empirical mean gap sits near 1/rate.
        let mean_gap = slow
            .last()
            .unwrap()
            .duration_since(SimInstant::ZERO)
            .as_secs()
            / 2_000.0;
        assert!((0.08..0.12).contains(&mean_gap), "mean gap {mean_gap}");
    }

    #[test]
    fn arrival_and_content_streams_are_decorrelated() {
        let spec = WorkloadSpec {
            queries: 10,
            seed: 9,
            rate_qps: 50.0,
        };
        // Same draws regardless of the offered rate...
        let faster = WorkloadSpec {
            rate_qps: 5_000.0,
            ..spec
        };
        assert_eq!(spec.draws(12), faster.draws(12));
        assert_ne!(
            spec.arrival_times().unwrap(),
            faster.arrival_times().unwrap()
        );
        // ...and deterministic arrival times.
        assert_eq!(spec.arrival_times().unwrap(), spec.arrival_times().unwrap());
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let spec = |rate_qps| WorkloadSpec {
            queries: 4,
            seed: 0,
            rate_qps,
        };
        for rate_qps in [0.0, -3.0, f64::INFINITY, f64::NAN] {
            let err = spec(rate_qps).validate().unwrap_err();
            assert!(
                matches!(err, ServeError::InvalidWorkload { .. }),
                "{rate_qps} must be rejected, got {err:?}"
            );
            assert!(spec(rate_qps).arrival_times().is_err());
        }
        assert!(spec(50.0).validate().is_ok());
    }
}
