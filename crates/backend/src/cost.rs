//! The CPU specification and shared cost-model helpers.
//!
//! Calibration notes: the per-visit cost combines a pipeline base cost with
//! the cache model from `mlscore-sim`, evaluated at the model's live node
//! footprint inflated by a locality penalty (tree traversal is a
//! pointer-chase with poor spatial locality, and with many trees per record
//! the touched lines spread across the whole model image). The paper's
//! measured CPU numbers imply ~17–22 ns per node visit for multi-megabyte
//! models and a ~0.5 µs fixed per-record cost in scikit-learn (vote
//! aggregation and output assembly) — see DESIGN.md §5.

use mlscore_forest::ModelStats;
use mlscore_sim::{CacheHierarchy, CacheLevel, ClockRate, SimDuration};

/// A host CPU description used by the CPU backends' timing models.
#[derive(Debug, Clone, PartialEq)]
pub struct CpuSpec {
    /// Core clock.
    pub clock: ClockRate,
    /// Hardware thread count available to scoring.
    pub threads: usize,
    /// Cache hierarchy (per-core L1/L2 plus shared LLC).
    pub caches: CacheHierarchy,
    /// Multiplier applied to the model footprint before the cache lookup,
    /// accounting for pointer-chase locality and auxiliary structures.
    pub locality_penalty: f64,
    /// Per-byte cost of streaming a record row through the core.
    pub row_stream_per_byte: SimDuration,
}

impl CpuSpec {
    /// The paper's host: dual-socket Intel Xeon Platinum 8171M, 26 cores /
    /// 52 threads per socket at 2.6 GHz (the paper uses up to 52 threads,
    /// i.e. one socket). Cache latencies are typical Skylake-SP values.
    pub fn xeon_8171m() -> Self {
        Self {
            clock: ClockRate::from_ghz(2.6),
            threads: 52,
            caches: CacheHierarchy::new(
                vec![
                    CacheLevel::new(32 << 10, SimDuration::from_nanos(1.5)),
                    CacheLevel::new(1 << 20, SimDuration::from_nanos(5.0)),
                    CacheLevel::new(36308992, SimDuration::from_nanos(20.0)), // 34.6 MB LLC
                ],
                SimDuration::from_nanos(90.0),
            ),
            locality_penalty: 4.0,
            row_stream_per_byte: SimDuration::from_nanos(0.15),
        }
    }

    /// Expected cost of one decision-node visit for a model of the given
    /// shape: a base ALU/branch cost plus the cache access implied by the
    /// model's (locality-inflated) working set.
    pub fn visit_cost(&self, stats: &ModelStats) -> SimDuration {
        let base = self.clock.cycles(3);
        let working_set = (stats.live_layout_bytes() as f64 * self.locality_penalty) as u64;
        base + self.caches.access_cost(working_set)
    }

    /// Per-record cost of loading the feature row.
    pub fn row_load_cost(&self, stats: &ModelStats) -> SimDuration {
        self.row_stream_per_byte * stats.row_bytes() as f64
    }
}

/// Parallel scaling efficiency for `threads` software threads: linear
/// speedup derated by a per-thread coherence/imbalance tax (52 threads reach
/// ~75% efficiency, matching the paper's best-case CPU scaling).
pub fn parallel_efficiency(threads: usize) -> f64 {
    if threads <= 1 {
        return 1.0;
    }
    (1.0 - 0.005 * (threads as f64 - 1.0)).max(0.3)
}

/// Effective parallelism for a batch: you cannot use more threads than
/// records, and scaling is derated by [`parallel_efficiency`].
pub fn effective_parallelism(threads: usize, n_records: u64) -> f64 {
    let usable = (threads as u64).min(n_records.max(1)) as usize;
    usable as f64 * parallel_efficiency(usable)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlscore_forest::{ForestConfig, RandomForest};

    fn stats(n_trees: usize, depth: usize, n_features: usize) -> ModelStats {
        ModelStats::of(&RandomForest::synthetic_full(
            &ForestConfig::classification(n_trees, n_features, 2).with_depth(depth),
            1,
        ))
    }

    #[test]
    fn visit_cost_grows_with_model_size() {
        let cpu = CpuSpec::xeon_8171m();
        let small = cpu.visit_cost(&stats(1, 6, 4));
        let big = cpu.visit_cost(&stats(128, 10, 28));
        assert!(big > small * 2.0, "small {small}, big {big}");
    }

    #[test]
    fn big_model_visit_cost_matches_paper_implied_range() {
        // 128 trees x depth 10 => ~4.2 MB live; paper-implied visits cost
        // ~17-25 ns on the Xeon.
        let cpu = CpuSpec::xeon_8171m();
        let v = cpu.visit_cost(&stats(128, 10, 28)).as_nanos();
        assert!((14.0..30.0).contains(&v), "visit cost {v} ns");
    }

    #[test]
    fn row_load_scales_with_features() {
        let cpu = CpuSpec::xeon_8171m();
        let iris = cpu.row_load_cost(&stats(1, 4, 4));
        let higgs = cpu.row_load_cost(&stats(1, 4, 28));
        assert_eq!(higgs, iris * 7.0);
    }

    #[test]
    fn parallel_efficiency_bounds() {
        assert_eq!(parallel_efficiency(1), 1.0);
        let e52 = parallel_efficiency(52);
        assert!((0.7..0.8).contains(&e52), "e52 {e52}");
        assert!(parallel_efficiency(1000) >= 0.3);
    }

    #[test]
    fn effective_parallelism_caps_at_records() {
        assert_eq!(effective_parallelism(52, 1), 1.0);
        assert!(effective_parallelism(52, 10) <= 10.0);
        assert!(effective_parallelism(52, 1_000_000) > 35.0);
    }
}
