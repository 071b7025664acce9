//! Model catalogs and arrival processes.
//!
//! The workload half of the serving simulation: *which* concrete models
//! queries reference (so the coalescer and artifact cache can key on real
//! bundle content hashes) and *when* queries arrive (open-loop Poisson,
//! closed-loop clients with think time, or everything-at-once batch).
//! Everything is seeded and draws from the vendored [`StdRng`]; no wall
//! clock anywhere.

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

/// When queries arrive.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Every query is present at time zero, in trace order — the
    /// `sched::trace::replay` setting.
    Batch,
    /// Open loop: exponential interarrival times at the offered rate;
    /// arrivals do not react to system state (the overload-capable
    /// setting — queues can grow without bound).
    OpenPoisson {
        /// Offered load in queries per second.
        rate_qps: f64,
    },
    /// Closed loop: `clients` concurrent clients, each issuing its next
    /// query an exponential think time after its previous one completes
    /// (arrivals self-throttle to the system's speed).
    ClosedLoop {
        /// Concurrent clients.
        clients: usize,
        /// Mean think time between a completion and the client's next
        /// query.
        think: SimDuration,
    },
}

/// A complete workload: how many queries, which seed, and the arrival
/// process. The query *content* (model index, batch size) comes from
/// [`QueryTrace::synthetic_draws`] under the same seed, so a workload and a
/// stats-only trace with equal `(queries, seed)` carry the identical mix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    /// Total queries to issue.
    pub queries: usize,
    /// Master seed; query content and arrival times derive from it.
    pub seed: u64,
    /// The arrival process.
    pub arrivals: ArrivalProcess,
}

/// Seed offset separating the arrival-time stream from the query-content
/// stream (content must match `QueryTrace::synthetic(queries, seed)`
/// exactly, so arrivals may not consume from the same RNG).
const ARRIVAL_STREAM: u64 = 0x5EED_AA77;
/// Seed offset for closed-loop think-time draws.
const THINK_STREAM: u64 = 0x7417_C0DE;

impl WorkloadSpec {
    /// The `(model index, batch size)` content of each query, in issue
    /// order.
    pub fn draws(&self, n_models: usize) -> Vec<(usize, u64)> {
        QueryTrace::synthetic_draws(self.queries, self.seed, n_models)
    }

    /// Checks that the specification is servable: an open Poisson process
    /// needs a positive finite rate, and a closed loop needs at least one
    /// client and a non-negative finite think time.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidWorkload`] describing the first
    /// problem found.
    pub fn validate(&self) -> Result<(), ServeError> {
        match self.arrivals {
            ArrivalProcess::Batch => Ok(()),
            ArrivalProcess::OpenPoisson { rate_qps } => {
                if rate_qps > 0.0 && rate_qps.is_finite() {
                    Ok(())
                } else {
                    Err(ServeError::workload(format!(
                        "Poisson rate must be positive and finite, got {rate_qps}"
                    )))
                }
            }
            ArrivalProcess::ClosedLoop { clients, think } => {
                if clients == 0 {
                    Err(ServeError::workload(
                        "a closed loop needs at least one client",
                    ))
                } else if !think.as_secs().is_finite() || think.as_secs() < 0.0 {
                    Err(ServeError::workload(format!(
                        "closed-loop think time must be finite and non-negative, got {} s",
                        think.as_secs()
                    )))
                } else {
                    Ok(())
                }
            }
        }
    }

    /// Arrival instants for the open processes, one per query, in issue
    /// order ([`ArrivalProcess::Batch`]: all zero;
    /// [`ArrivalProcess::OpenPoisson`]: cumulative exponential gaps).
    ///
    /// # Errors
    ///
    /// Returns [`ServeError::InvalidWorkload`] on a non-positive or
    /// non-finite Poisson rate, and on [`ArrivalProcess::ClosedLoop`],
    /// whose arrivals depend on completions and exist only inside the
    /// engine.
    pub fn open_arrival_times(&self) -> Result<Vec<SimInstant>, ServeError> {
        self.validate()?;
        match self.arrivals {
            ArrivalProcess::Batch => Ok(vec![SimInstant::ZERO; self.queries]),
            ArrivalProcess::OpenPoisson { rate_qps } => {
                let mut rng = StdRng::seed_from_u64(self.seed ^ ARRIVAL_STREAM);
                let mut t = SimInstant::ZERO;
                Ok((0..self.queries)
                    .map(|_| {
                        t += exponential(&mut rng, 1.0 / rate_qps);
                        t
                    })
                    .collect())
            }
            ArrivalProcess::ClosedLoop { .. } => Err(ServeError::workload(
                "closed-loop arrivals are completion-driven; the engine generates them",
            )),
        }
    }

    /// A fresh think-time RNG for closed-loop runs, decorrelated from the
    /// content and arrival streams.
    pub fn think_rng(&self) -> StdRng {
        StdRng::seed_from_u64(self.seed ^ THINK_STREAM)
    }
}

/// One exponential draw with the given mean.
pub fn exponential(rng: &mut StdRng, mean_secs: f64) -> SimDuration {
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
            arrivals: ArrivalProcess::Batch,
        };
        let draws = spec.draws(catalog.len());
        let trace = QueryTrace::synthetic(40, 17);
        for ((model, n_records), q) in draws.iter().zip(trace.queries()) {
            assert_eq!(catalog.stats(*model), &q.stats);
            assert_eq!(*n_records, q.n_records);
        }
    }

    #[test]
    fn batch_arrivals_are_all_at_zero() {
        let spec = WorkloadSpec {
            queries: 5,
            seed: 1,
            arrivals: ArrivalProcess::Batch,
        };
        assert_eq!(
            spec.open_arrival_times().unwrap(),
            vec![SimInstant::ZERO; 5]
        );
    }

    #[test]
    fn poisson_arrivals_are_increasing_and_rate_scaled() {
        let spec = |rate_qps| WorkloadSpec {
            queries: 2_000,
            seed: 3,
            arrivals: ArrivalProcess::OpenPoisson { rate_qps },
        };
        let slow = spec(10.0).open_arrival_times().unwrap();
        let fast = spec(100.0).open_arrival_times().unwrap();
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
            arrivals: ArrivalProcess::OpenPoisson { rate_qps: 50.0 },
        };
        // Same draws regardless of the arrival process...
        let batch = WorkloadSpec {
            arrivals: ArrivalProcess::Batch,
            ..spec
        };
        assert_eq!(spec.draws(12), batch.draws(12));
        // ...and deterministic arrival times.
        assert_eq!(
            spec.open_arrival_times().unwrap(),
            spec.open_arrival_times().unwrap()
        );
    }

    #[test]
    fn closed_loop_has_no_open_arrival_times() {
        let err = WorkloadSpec {
            queries: 4,
            seed: 0,
            arrivals: ArrivalProcess::ClosedLoop {
                clients: 2,
                think: SimDuration::from_millis(1.0),
            },
        }
        .open_arrival_times()
        .unwrap_err();
        assert!(format!("{err}").contains("completion-driven"), "{err}");
    }

    #[test]
    fn validation_rejects_malformed_specs() {
        let spec = |arrivals| WorkloadSpec {
            queries: 4,
            seed: 0,
            arrivals,
        };
        for arrivals in [
            ArrivalProcess::OpenPoisson { rate_qps: 0.0 },
            ArrivalProcess::OpenPoisson { rate_qps: -3.0 },
            ArrivalProcess::OpenPoisson {
                rate_qps: f64::INFINITY,
            },
            ArrivalProcess::OpenPoisson { rate_qps: f64::NAN },
            ArrivalProcess::ClosedLoop {
                clients: 0,
                think: SimDuration::from_millis(1.0),
            },
        ] {
            let err = spec(arrivals).validate().unwrap_err();
            assert!(
                matches!(err, ServeError::InvalidWorkload { .. }),
                "{arrivals:?} must be rejected, got {err:?}"
            );
        }
        assert!(spec(ArrivalProcess::Batch).validate().is_ok());
        assert!(spec(ArrivalProcess::OpenPoisson { rate_qps: 50.0 })
            .validate()
            .is_ok());
    }
}
