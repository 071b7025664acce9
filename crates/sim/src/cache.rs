//! Cache models shared across the simulation.
//!
//! Two distinct effects live here:
//!
//! - [`CacheHierarchy`] — the *hardware* working-set model. The paper
//!   attributes the CPU's and GPU's falling behind at large model / record
//!   sizes to cache misses and memory traffic (§IV-C, citing forest
//!   packing \[40\] and runtime tree optimizations \[41\]). An access to a
//!   working set that fits in level *i* costs that level's latency;
//!   between levels the cost is interpolated smoothly so sweeps do not
//!   produce artificial cliffs.
//! - [`LruCacheModel`] — the *residency* model: a deterministic LRU set
//!   over arbitrary ordered keys, used by the serving engine to decide
//!   whether a compiled-artifact lookup hits (charge a warm lookup) or
//!   misses (charge a full compile).

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::time::SimDuration;

/// A deterministic LRU residency model over ordered keys.
///
/// Tracks *which* entries are resident and how often lookups hit — never
/// the entries' contents; callers charge modelled costs on the outcome.
/// Keys must be `Ord` because eviction ties (equal last-use ticks) break
/// on the smallest key, making the model a pure function of the probe
/// sequence.
///
/// # Example
///
/// ```
/// use mlscore_sim::LruCacheModel;
///
/// let mut cache: LruCacheModel<&str> = LruCacheModel::new(2);
/// assert!(!cache.probe("a")); // cold
/// assert!(!cache.probe("b"));
/// assert!(cache.probe("a")); // warm
/// assert!(!cache.probe("c")); // evicts the LRU entry "b"
/// assert!(!cache.would_hit(&"b"));
/// assert_eq!(cache.hits(), 1);
/// assert_eq!(cache.evictions(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LruCacheModel<K: Ord + Clone> {
    capacity: usize,
    /// `BTreeMap`, not `HashMap`: residency feeds reports and the LRU
    /// scan, so iteration order must be a function of content alone.
    resident: BTreeMap<K, u64>,
    tick: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl<K: Ord + Clone> LruCacheModel<K> {
    /// An empty model holding at most `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics on a zero capacity — a cache that can hold nothing models
    /// nothing.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache model capacity must be non-zero");
        Self {
            capacity,
            resident: BTreeMap::new(),
            tick: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Would a lookup hit right now? (No counters touched — callers may
    /// peek at many candidate keys per decision.)
    pub fn would_hit(&self, key: &K) -> bool {
        self.resident.contains_key(key)
    }

    /// One lookup: bumps counters, inserts on miss, evicts LRU at
    /// capacity. Returns `true` on a hit.
    pub fn probe(&mut self, key: K) -> bool {
        self.tick += 1;
        if let Some(last_used) = self.resident.get_mut(&key) {
            *last_used = self.tick;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        while self.resident.len() >= self.capacity {
            // min_by_key keeps the first minimum in iteration order, and
            // BTreeMap iterates in key order — last-used ties break on the
            // smallest key, deterministically.
            let lru = self
                .resident
                .iter()
                .min_by_key(|&(_, &t)| t)
                .map(|(k, _)| k.clone());
            let Some(lru) = lru else { break };
            self.resident.remove(&lru);
            self.evictions += 1;
        }
        self.resident.insert(key, self.tick);
        false
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.resident.len()
    }

    /// Returns `true` if nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.resident.is_empty()
    }

    /// Lookups that hit.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that missed.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Entries evicted (LRU pressure plus invalidations).
    pub fn evictions(&self) -> u64 {
        self.evictions
    }
}

/// One level of a cache hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CacheLevel {
    /// Capacity in bytes.
    pub capacity_bytes: u64,
    /// Average access latency when the working set fits in this level.
    pub access: SimDuration,
}

impl CacheLevel {
    /// Creates a level with the given capacity (bytes) and access latency.
    pub fn new(capacity_bytes: u64, access: SimDuration) -> Self {
        Self {
            capacity_bytes,
            access,
        }
    }
}

/// A multi-level cache hierarchy ending in main memory.
///
/// # Example
///
/// ```
/// use mlscore_sim::{CacheHierarchy, CacheLevel, SimDuration};
///
/// let xeon = CacheHierarchy::new(
///     vec![
///         CacheLevel::new(32 * 1024, SimDuration::from_nanos(1.5)),
///         CacheLevel::new(1024 * 1024, SimDuration::from_nanos(5.0)),
///         CacheLevel::new(36 * 1024 * 1024, SimDuration::from_nanos(18.0)),
///     ],
///     SimDuration::from_nanos(90.0),
/// );
/// // A tiny model scores out of L1:
/// assert_eq!(xeon.access_cost(16 * 1024), SimDuration::from_nanos(1.5));
/// // A model far larger than LLC pays memory latency:
/// assert_eq!(xeon.access_cost(1 << 30), SimDuration::from_nanos(90.0));
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CacheHierarchy {
    levels: Vec<CacheLevel>,
    memory_access: SimDuration,
}

impl CacheHierarchy {
    /// Creates a hierarchy from innermost-to-outermost `levels` plus the main
    /// memory access latency.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty or capacities are not strictly increasing.
    pub fn new(levels: Vec<CacheLevel>, memory_access: SimDuration) -> Self {
        assert!(
            !levels.is_empty(),
            "cache hierarchy needs at least one level"
        );
        for pair in levels.windows(2) {
            assert!(
                pair[0].capacity_bytes < pair[1].capacity_bytes,
                "cache capacities must be strictly increasing"
            );
        }
        Self {
            levels,
            memory_access,
        }
    }

    /// The cache levels, innermost first.
    pub fn levels(&self) -> &[CacheLevel] {
        &self.levels
    }

    /// Expected cost of one access given a resident working set of
    /// `working_set_bytes`.
    ///
    /// If the working set fits in level *i* the cost is that level's latency.
    /// When it spills past a level, the cost blends between the two
    /// neighbouring levels in proportion to the fraction of the working set
    /// that still fits (a standard capacity-miss approximation), reaching the
    /// next level's latency when the set is 4x the smaller capacity.
    pub fn access_cost(&self, working_set_bytes: u64) -> SimDuration {
        let ws = working_set_bytes.max(1) as f64;
        let mut prev = self.levels[0];
        if ws <= prev.capacity_bytes as f64 {
            return prev.access;
        }
        for level in self.levels.iter().skip(1).copied() {
            if ws <= level.capacity_bytes as f64 {
                return Self::blend(prev, level.access, ws);
            }
            prev = level;
        }
        Self::blend(prev, self.memory_access, ws)
    }

    /// Blend between `inner`'s latency and `outer_access` as the working set
    /// grows past `inner`'s capacity; saturation at 4x the inner capacity.
    fn blend(inner: CacheLevel, outer_access: SimDuration, ws: f64) -> SimDuration {
        let cap = inner.capacity_bytes as f64;
        let frac = ((ws / cap).log2() / 2.0).clamp(0.0, 1.0);
        inner.access * (1.0 - frac) + outer_access * frac
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recently_probed_with_key_order_ties() {
        let mut cache: LruCacheModel<u32> = LruCacheModel::new(2);
        assert!(!cache.probe(1));
        assert!(!cache.probe(2));
        assert!(cache.probe(1)); // 2 is now the LRU entry
        assert!(!cache.probe(3)); // evicts 2
        assert!(cache.would_hit(&1));
        assert!(!cache.would_hit(&2));
        assert!(cache.would_hit(&3));
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses(), cache.evictions()), (1, 3, 1));
    }

    #[test]
    fn lru_would_hit_touches_no_counters() {
        let mut cache: LruCacheModel<u8> = LruCacheModel::new(1);
        cache.probe(7);
        for _ in 0..10 {
            assert!(cache.would_hit(&7));
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    #[should_panic(expected = "must be non-zero")]
    fn lru_rejects_zero_capacity() {
        let _ = LruCacheModel::<u64>::new(0);
    }

    fn three_level() -> CacheHierarchy {
        CacheHierarchy::new(
            vec![
                CacheLevel::new(32 << 10, SimDuration::from_nanos(1.0)),
                CacheLevel::new(1 << 20, SimDuration::from_nanos(4.0)),
                CacheLevel::new(32 << 20, SimDuration::from_nanos(16.0)),
            ],
            SimDuration::from_nanos(80.0),
        )
    }

    #[test]
    fn fits_in_l1() {
        let h = three_level();
        assert_eq!(h.access_cost(1), SimDuration::from_nanos(1.0));
        assert_eq!(h.access_cost(32 << 10), SimDuration::from_nanos(1.0));
    }

    #[test]
    fn monotone_in_working_set() {
        let h = three_level();
        let mut prev = SimDuration::ZERO;
        for shift in 10..32 {
            let cost = h.access_cost(1u64 << shift);
            assert!(cost >= prev, "cost must be non-decreasing (shift {shift})");
            prev = cost;
        }
    }

    #[test]
    fn saturates_at_memory_latency() {
        let h = three_level();
        assert_eq!(h.access_cost(16 << 30), SimDuration::from_nanos(80.0));
    }

    #[test]
    fn blending_between_levels_is_partial() {
        let h = three_level();
        // 2x L1 capacity: halfway in log2 terms towards saturation at 4x.
        let c = h.access_cost(64 << 10);
        assert!(c > SimDuration::from_nanos(1.0));
        assert!(c < SimDuration::from_nanos(4.0));
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_non_increasing_capacities() {
        CacheHierarchy::new(
            vec![
                CacheLevel::new(1 << 20, SimDuration::from_nanos(4.0)),
                CacheLevel::new(1 << 20, SimDuration::from_nanos(8.0)),
            ],
            SimDuration::from_nanos(80.0),
        );
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn rejects_empty_hierarchy() {
        CacheHierarchy::new(vec![], SimDuration::from_nanos(80.0));
    }
}
