//! Compiled-model artifacts and the content-addressed artifact cache.
//!
//! The paper's Fig. 11 breakdown treats model pre-processing
//! (deserialization plus backend-specific lowering) as a first-class
//! overhead — and it amortizes: a model is immutable once trained, so its
//! lowered form can be compiled once and scored many times. This module is
//! the compile half of that split:
//!
//! * [`CompiledModel`] — a bundle deserialized, validated against a
//!   backend, and lowered into that backend's scoring representation
//!   ([`Lowered`]), tagged with the [`ArtifactKey`] it was compiled under;
//! * [`compile`] / [`compile_timed`] — the prepare pass itself
//!   (deserialize → stats → `supports` → `lower`);
//! * [`ArtifactCache`] — a content-hash-keyed cache of compiled models, so
//!   repeated queries against the same bundle skip the whole pass. Which
//!   models stay resident, and the hit/miss/eviction counters, come from
//!   the same [`LruCacheModel`] the serving engine charges compiles with.
//!
//! The cache key is *content-addressed*: [`ModelBundle::content_hash`] over
//! the serialized bytes, crossed with the backend's name and its
//! [`cache_config`](crate::ScoringBackend::cache_config) fingerprint. Two
//! byte-identical bundles share an artifact; a backend configured
//! differently (say, a different FPGA tree-depth capacity) gets its own.

use std::any::{type_name, Any};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use mlscore_exec::FlatImage;
use mlscore_forest::{ModelBundle, ModelStats, RandomForest};
use mlscore_sim::{Clock, LruCacheModel, SimDuration, WallClock};

use crate::error::BackendError;
use crate::traits::ScoringBackend;

/// The identity a compiled model was built under: which bytes, which
/// backend, which backend configuration.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ArtifactKey {
    /// FNV-1a content hash of the serialized bundle bytes.
    pub content_hash: u64,
    /// [`ScoringBackend::name`] of the compiling backend.
    pub backend: String,
    /// [`ScoringBackend::cache_config`] fingerprint of the compiling
    /// backend (empty when the backend has no compile-relevant knobs).
    pub config: String,
}

/// Builds the cache identity `backend` would compile `bundle` under,
/// without compiling anything — the hook callers (the serving engine's
/// cache model, cache-warming tools) use to reason about hits and misses
/// up front. [`compile_timed`] and [`ArtifactCache::get_or_prepare`]
/// derive their keys through this same function, so a key predicted here
/// is exactly the key the cache will use.
pub fn artifact_key<B: ScoringBackend + ?Sized>(backend: &B, bundle: &ModelBundle) -> ArtifactKey {
    ArtifactKey {
        content_hash: bundle.content_hash(),
        backend: backend.name().to_string(),
        config: backend.cache_config(),
    }
}

impl fmt::Display for ArtifactKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}×{}", self.content_hash, self.backend)?;
        if !self.config.is_empty() {
            write!(f, "×{}", self.config)?;
        }
        Ok(())
    }
}

/// A backend's lowered scoring representation of one model.
///
/// The common CPU forms get first-class variants so the exec kernels can
/// consume them without downcasts; accelerator backends carry their own
/// device-shaped layouts (FPGA node table + BRAM plan, GPU tensor arrays)
/// behind [`Lowered::Custom`], which keeps this crate free of dependencies
/// on the accelerator crates.
#[derive(Clone)]
pub enum Lowered {
    /// Score the pointer trees directly — no lowering (CPU_SKLearn).
    Reference,
    /// The Fig. 4b flat node image, re-encoded for the SIMD lane walker
    /// (CPU_ONNX).
    Flat(Arc<FlatImage>),
    /// A backend-private layout; the owning backend downcasts it back.
    Custom(Arc<dyn Any + Send + Sync>),
}

impl fmt::Debug for Lowered {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Lowered::Reference => f.write_str("Reference"),
            Lowered::Flat(img) => f.debug_tuple("Flat").field(img).finish(),
            Lowered::Custom(_) => f.write_str("Custom(..)"),
        }
    }
}

/// A model compiled for one backend: the prepare-phase output that
/// [`CompiledModel::bind`] hands to [`ScoringBackend::score`].
#[derive(Debug, Clone)]
pub struct CompiledModel {
    key: ArtifactKey,
    forest: Arc<RandomForest>,
    stats: ModelStats,
    lowered: Lowered,
    model_bytes: usize,
}

impl CompiledModel {
    /// The cache identity this artifact was compiled under.
    pub fn key(&self) -> &ArtifactKey {
        &self.key
    }

    /// The deserialized source model.
    pub fn forest(&self) -> &RandomForest {
        &self.forest
    }

    /// Shape statistics of the source model (what
    /// [`ScoringBackend::estimate`] prices).
    pub fn stats(&self) -> &ModelStats {
        &self.stats
    }

    /// The backend-lowered scoring form.
    pub fn lowered(&self) -> &Lowered {
        &self.lowered
    }

    /// Serialized size of the source bundle, in bytes.
    pub fn model_bytes(&self) -> usize {
        self.model_bytes
    }

    /// Borrows this artifact for [`ScoringBackend::score`] on the backend
    /// named `backend_name` against `n_features`-wide records.
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Artifact`] naming the expected and actual
    /// backend or feature width — the debugging breadcrumb for cache-keyed
    /// misconfigurations.
    pub fn bind(
        &self,
        backend_name: &str,
        n_features: usize,
    ) -> Result<ModelRef<'_>, BackendError> {
        ModelRef::bind(
            &self.key.backend,
            &self.forest,
            &self.lowered,
            backend_name,
            n_features,
        )
    }
}

/// A lowered model checked against the backend and record width it is
/// about to score: the model argument of [`ScoringBackend::score`]. Only
/// [`CompiledModel::bind`] and [`score_once`](crate::score_once) make one,
/// so every scoring call has passed the same check.
#[derive(Debug, Clone, Copy)]
pub struct ModelRef<'a> {
    forest: &'a RandomForest,
    lowered: &'a Lowered,
}

impl<'a> ModelRef<'a> {
    /// Pairs `forest`, lowered by the backend named `compiled_for`, with
    /// the backend named `backend_name` and `n_features`-wide records.
    pub(crate) fn bind(
        compiled_for: &str,
        forest: &'a RandomForest,
        lowered: &'a Lowered,
        backend_name: &str,
        n_features: usize,
    ) -> Result<Self, BackendError> {
        if compiled_for != backend_name {
            return Err(BackendError::artifact(
                backend_name,
                format!("model was compiled for backend {compiled_for}, not {backend_name}"),
            ));
        }
        if forest.n_features() != n_features {
            return Err(BackendError::artifact(
                backend_name,
                format!(
                    "feature width mismatch: model expects {} features, frame has {}",
                    forest.n_features(),
                    n_features
                ),
            ));
        }
        Ok(Self { forest, lowered })
    }

    /// The source model.
    pub fn forest(&self) -> &'a RandomForest {
        self.forest
    }

    /// The backend-lowered scoring form.
    pub fn lowered(&self) -> &'a Lowered {
        self.lowered
    }

    /// The backend-private artifact the backend named `backend` lowered,
    /// as the `T` it stored in [`Lowered::Custom`].
    ///
    /// # Errors
    ///
    /// Returns [`BackendError::Artifact`] when the lowered form is not a
    /// [`Lowered::Custom`] holding a `T`.
    pub fn custom<T: Any>(&self, backend: &str) -> Result<&'a T, BackendError> {
        let found = match self.lowered {
            Lowered::Custom(any) => any.downcast_ref::<T>(),
            _ => None,
        };
        found.ok_or_else(|| {
            BackendError::artifact(
                backend,
                format!(
                    "expected a custom {} artifact, got {:?}",
                    type_name::<T>(),
                    self.lowered
                ),
            )
        })
    }
}

/// Measured cost of the two compile sub-steps, on the timeline of the
/// [`Clock`] that timed them. Zero on a cache hit.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PrepareTiming {
    /// Time spent in [`ModelBundle::deserialize`].
    pub deserialize: SimDuration,
    /// Time spent in [`ScoringBackend::lower`] (plus `supports`).
    pub lower: SimDuration,
}

/// How a query's model was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// No cache configured — compiled inline, artifact discarded.
    Bypass,
    /// Cache consulted, artifact absent — compiled and inserted (cold).
    Miss,
    /// Cache consulted, artifact present — compile skipped (warm).
    Hit,
}

/// Runs the full prepare pass for `backend`: deserialize the bundle,
/// validate support, lower, and tag with the artifact key.
///
/// # Errors
///
/// Propagates deserialization failures as [`BackendError::Forest`] and
/// `supports`/`lower` failures unchanged.
pub fn compile<B: ScoringBackend + ?Sized>(
    backend: &B,
    bundle: &ModelBundle,
) -> Result<Arc<CompiledModel>, BackendError> {
    compile_timed(backend, bundle).map(|(model, _)| model)
}

/// [`compile`], additionally reporting how long each sub-step took so the
/// pipeline can attribute cold-path compile spans. Timing comes from
/// [`WallClock`] — call this only at the `repro`/bench measurement
/// boundary; everything else should inject a clock via
/// [`compile_timed_with`].
///
/// # Errors
///
/// Fails exactly when [`compile`] fails.
pub fn compile_timed<B: ScoringBackend + ?Sized>(
    backend: &B,
    bundle: &ModelBundle,
) -> Result<(Arc<CompiledModel>, PrepareTiming), BackendError> {
    compile_timed_with(backend, bundle, &WallClock::new())
}

/// [`compile_timed`] with an injected time source, so callers that must
/// stay deterministic (tests, the serving simulation) can time the pass on
/// a [`ManualClock`](mlscore_sim::ManualClock).
///
/// # Errors
///
/// Fails exactly when [`compile`] fails.
pub fn compile_timed_with<B: ScoringBackend + ?Sized>(
    backend: &B,
    bundle: &ModelBundle,
    clock: &dyn Clock,
) -> Result<(Arc<CompiledModel>, PrepareTiming), BackendError> {
    let t0 = clock.now();
    let forest = bundle.deserialize().map_err(BackendError::from)?;
    let deserialize = clock.now().duration_since(t0);
    let stats = ModelStats::of(&forest);
    let t1 = clock.now();
    backend.supports(&stats)?;
    let lowered = backend.lower(&forest)?;
    let lower = clock.now().duration_since(t1);
    let model = Arc::new(CompiledModel {
        key: artifact_key(backend, bundle),
        forest: Arc::new(forest),
        stats,
        lowered,
        model_bytes: bundle.len(),
    });
    Ok((model, PrepareTiming { deserialize, lower }))
}

/// A point-in-time copy of the cache's counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a compiled artifact.
    pub hits: u64,
    /// Lookups that had to compile.
    pub misses: u64,
    /// Artifacts evicted to stay within capacity.
    pub evictions: u64,
    /// Artifacts currently resident.
    pub entries: usize,
}

impl CacheStats {
    /// A snapshot of `lru`'s counters: the one mapping both
    /// [`ArtifactCache::stats`] and the serving engine's compile model
    /// report through.
    pub fn of(lru: &LruCacheModel<ArtifactKey>) -> Self {
        Self {
            hits: lru.hits(),
            misses: lru.misses(),
            evictions: lru.evictions(),
            entries: lru.len(),
        }
    }

    /// Total lookups served (hits plus misses).
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Measured queries-per-compile: how many lookups each compiled
    /// artifact served on average (`lookups / misses`, at least 1). This is
    /// the `expected_reuse` input to `choose_amortized_eligible` — a cache
    /// that hits often amortizes each compile over many queries.
    pub fn expected_reuse(&self) -> u64 {
        self.lookups().checked_div(self.misses).unwrap_or(1).max(1)
    }
}

struct CacheInner {
    /// Residency: decides every hit, miss and eviction.
    lru: LruCacheModel<ArtifactKey>,
    /// The compiled models `lru` holds resident, and no others.
    models: BTreeMap<ArtifactKey, Arc<CompiledModel>>,
}

/// A content-addressed cache of [`CompiledModel`]s with LRU eviction.
///
/// Keyed by [`ArtifactKey`] (bundle content hash × backend name × backend
/// config), so a bundle re-submitted byte-for-byte is a hit and skips
/// deserialize + lower entirely. Residency is an [`LruCacheModel`], the
/// policy the serving engine uses to charge compiles, so the real cache
/// and the modelled one agree on every lookup sequence. Thread-safe;
/// compiled artifacts are shared out as `Arc`s, so an eviction never
/// invalidates an in-flight query.
///
/// # Example
///
/// ```
/// use mlscore_backend::{ArtifactCache, CacheOutcome, OnnxCpu};
/// use mlscore_forest::{ForestConfig, ModelBundle, RandomForest};
///
/// let forest = RandomForest::synthetic_full(
///     &ForestConfig::classification(8, 4, 3).with_depth(6),
///     11,
/// );
/// let bundle = ModelBundle::serialize(&forest);
/// let backend = OnnxCpu::single_thread();
/// let cache = ArtifactCache::new(4);
/// let (_, outcome, _) = cache.get_or_prepare(&backend, &bundle).unwrap();
/// assert_eq!(outcome, CacheOutcome::Miss);
/// let (model, outcome, _) = cache.get_or_prepare(&backend, &bundle).unwrap();
/// assert_eq!(outcome, CacheOutcome::Hit);
/// assert_eq!(model.stats().n_trees, 8);
/// assert_eq!(cache.stats().hits, 1);
/// ```
pub struct ArtifactCache {
    inner: Mutex<CacheInner>,
}

impl fmt::Debug for ArtifactCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ArtifactCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` compiled artifacts.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        Self {
            inner: Mutex::new(CacheInner {
                lru: LruCacheModel::new(capacity),
                models: BTreeMap::new(),
            }),
        }
    }

    fn inner(&self) -> MutexGuard<'_, CacheInner> {
        // Poison recovery: every critical section leaves the LRU and the
        // models consistent, so a payload panic on another thread must not
        // cascade into the serving path.
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats::of(&self.inner().lru)
    }

    /// Looks up the artifact for (`bundle`, `backend`), compiling and
    /// inserting it on a miss. Also reports the compile sub-step timing,
    /// measured on the wall clock ([`PrepareTiming::default`] on a hit).
    ///
    /// # Errors
    ///
    /// Fails exactly when [`compile`] fails; failures are not cached.
    pub fn get_or_prepare<B: ScoringBackend + ?Sized>(
        &self,
        backend: &B,
        bundle: &ModelBundle,
    ) -> Result<(Arc<CompiledModel>, CacheOutcome, PrepareTiming), BackendError> {
        let key = artifact_key(backend, bundle);
        {
            let mut inner = self.inner();
            if let Some(model) = inner.models.get(&key).map(Arc::clone) {
                inner.lru.probe(key);
                return Ok((model, CacheOutcome::Hit, PrepareTiming::default()));
            }
        }
        // Compile outside the lock: misses on distinct bundles proceed in
        // parallel. A racing miss on the same key wastes one compile but
        // stays correct: the loser's probe counts as a hit, last insert
        // wins and both callers hold valid Arcs.
        let (model, timing) = compile_timed(backend, bundle)?;
        let mut inner = self.inner();
        let CacheInner { lru, models } = &mut *inner;
        lru.probe(key.clone());
        models.retain(|k, _| lru.would_hit(k));
        models.insert(key, Arc::clone(&model));
        Ok((model, CacheOutcome::Miss, timing))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{OnnxCpu, SklearnCpu};
    use mlscore_forest::ForestConfig;

    fn bundle(seed: u64) -> ModelBundle {
        ModelBundle::serialize(&RandomForest::synthetic_full(
            &ForestConfig::classification(6, 4, 3).with_depth(5),
            seed,
        ))
    }

    #[test]
    fn compile_tags_key_and_shape() {
        let b = bundle(3);
        let backend = OnnxCpu::single_thread();
        let model = compile(&backend, &b).unwrap();
        assert_eq!(model.key().content_hash, b.content_hash());
        assert_eq!(model.key().backend, "CPU_ONNX");
        assert_eq!(model.stats().n_trees, 6);
        assert_eq!(model.model_bytes(), b.len());
        assert!(matches!(model.lowered(), Lowered::Flat(_)));
    }

    #[test]
    fn hit_and_miss() {
        let cache = ArtifactCache::new(4);
        let backend = OnnxCpu::single_thread();
        let b = bundle(1);
        let (first, o1, _) = cache.get_or_prepare(&backend, &b).unwrap();
        let (second, o2, _) = cache.get_or_prepare(&backend, &b).unwrap();
        assert_eq!((o1, o2), (CacheOutcome::Miss, CacheOutcome::Hit));
        assert!(Arc::ptr_eq(&first, &second));
        // A byte-identical re-serialization is still a hit.
        let again = ModelBundle::from_bytes(b.as_bytes());
        let (_, o3, _) = cache.get_or_prepare(&backend, &again).unwrap();
        assert_eq!(o3, CacheOutcome::Hit);
        assert_eq!(
            cache.stats(),
            CacheStats {
                hits: 2,
                misses: 1,
                evictions: 0,
                entries: 1
            }
        );
    }

    #[test]
    fn distinct_backends_and_bundles_get_distinct_artifacts() {
        let cache = ArtifactCache::new(8);
        let b = bundle(1);
        let (onnx_model, ..) = cache.get_or_prepare(&OnnxCpu::single_thread(), &b).unwrap();
        let (skl_model, o, _) = cache
            .get_or_prepare(&SklearnCpu::with_threads(1), &b)
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_ne!(onnx_model.key(), skl_model.key());
        let (_, o, _) = cache
            .get_or_prepare(&OnnxCpu::single_thread(), &bundle(2))
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(cache.stats().entries, 3);
    }

    #[test]
    fn lru_eviction_drops_least_recent() {
        let cache = ArtifactCache::new(2);
        let backend = OnnxCpu::single_thread();
        let (a, b, c) = (bundle(1), bundle(2), bundle(3));
        cache.get_or_prepare(&backend, &a).unwrap();
        cache.get_or_prepare(&backend, &b).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        let (_, o, _) = cache.get_or_prepare(&backend, &a).unwrap();
        assert_eq!(o, CacheOutcome::Hit);
        cache.get_or_prepare(&backend, &c).unwrap();
        assert_eq!(cache.stats().evictions, 1);
        let (_, o, _) = cache.get_or_prepare(&backend, &a).unwrap();
        assert_eq!(o, CacheOutcome::Hit);
        let (_, o, _) = cache.get_or_prepare(&backend, &b).unwrap();
        assert_eq!(o, CacheOutcome::Miss, "b should have been evicted");
    }

    #[test]
    fn mismatched_artifact_is_rejected_with_counts() {
        let b = bundle(1);
        let skl = SklearnCpu::with_threads(1);
        let model = compile(&skl, &b).unwrap();
        let err = model.bind("CPU_ONNX", 4).unwrap_err();
        assert!(matches!(err, BackendError::Artifact { .. }));
        let err = model.bind(skl.name(), 7).unwrap_err();
        let msg = format!("{err}");
        assert!(msg.contains("expects 4"), "{msg}");
        assert!(msg.contains("frame has 7"), "{msg}");
    }

    #[test]
    fn miss_timing_is_populated_and_hit_timing_is_zero() {
        let cache = ArtifactCache::new(2);
        let backend = OnnxCpu::single_thread();
        let b = bundle(5);
        let (_, outcome, _miss_timing) = cache.get_or_prepare(&backend, &b).unwrap();
        assert_eq!(outcome, CacheOutcome::Miss);
        let (_, outcome, hit_timing) = cache.get_or_prepare(&backend, &b).unwrap();
        assert_eq!(outcome, CacheOutcome::Hit);
        assert_eq!(hit_timing, PrepareTiming::default());
    }

    #[test]
    #[should_panic(expected = "capacity must be non-zero")]
    fn zero_capacity_rejected() {
        let _ = ArtifactCache::new(0);
    }

    #[test]
    fn artifact_key_predicts_the_cache_key() {
        let b = bundle(9);
        let backend = OnnxCpu::single_thread();
        let predicted = artifact_key(&backend, &b);
        let model = compile(&backend, &b).unwrap();
        assert_eq!(&predicted, model.key());
        // Different backend, different key; same bytes, same hash.
        let other = artifact_key(&SklearnCpu::with_threads(1), &b);
        assert_ne!(predicted, other);
        assert_eq!(predicted.content_hash, other.content_hash);
    }

    #[test]
    fn cache_stats_lookups_and_reuse() {
        let empty = CacheStats::default();
        assert_eq!(empty.lookups(), 0);
        assert_eq!(empty.expected_reuse(), 1);

        let warm = CacheStats {
            hits: 9,
            misses: 3,
            evictions: 0,
            entries: 3,
        };
        assert_eq!(warm.lookups(), 12);
        assert_eq!(warm.expected_reuse(), 4);

        // All-hit steady state still reports a sane reuse.
        let perfect = CacheStats {
            hits: 10,
            misses: 0,
            evictions: 0,
            entries: 1,
        };
        assert_eq!(perfect.expected_reuse(), 1);
    }

    /// A cache and a bare `LruCacheModel` fed the same seeded lookups agree
    /// at every step: the cache decides residency with the model alone.
    #[test]
    fn residency_matches_the_lru_model_step_for_step() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        let bundles: Vec<ModelBundle> = (1..=5).map(bundle).collect();
        let (onnx, skl) = (OnnxCpu::single_thread(), SklearnCpu::with_threads(1));
        let backends: [&dyn ScoringBackend; 2] = [&onnx, &skl];
        let cache = ArtifactCache::new(3);
        let mut lru = LruCacheModel::new(3);
        let mut rng = StdRng::seed_from_u64(30);
        for step in 0..300 {
            let backend = backends[rng.gen_range(0..backends.len())];
            let b = &bundles[rng.gen_range(0..bundles.len())];
            let (_, outcome, _) = cache.get_or_prepare(backend, b).unwrap();
            let hit = lru.probe(artifact_key(backend, b));
            assert_eq!(outcome == CacheOutcome::Hit, hit, "step {step}");
            let stats = cache.stats();
            assert_eq!(stats, CacheStats::of(&lru), "step {step}");
            assert_eq!(cache.inner().models.len(), stats.entries, "step {step}");
        }
        assert!(lru.hits() > 0 && lru.evictions() > 0);
    }
}
