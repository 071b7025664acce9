//! Benchmark regression diffing (`repro bench --diff`).
//!
//! Compares two `mlscore/bench-cpu-scoring/v1` documents
//! (`BENCH_cpu_scoring.json`) cell by cell. Each is flattened into one map
//! of labelled cells, and one loop compares the maps: each case is a cell
//! keyed by `(dataset, trees, depth, records)`; its metrics are every
//! run's `*_records_per_sec` numbers, named by thread count. The simulated
//! serving report needs no diff: it is a pure function of its seed, so CI
//! regenerates it and compares the bytes.
//!
//! Each gated number in the new report must come within a relative
//! tolerance of the old one. Missing cases or runs are
//! regressions too — a report cannot "improve" by silently dropping the
//! slow cells. The comparison is keyed on the metrics the *old* report
//! carries: cells or per-run metrics that only exist in the new report
//! (a freshly landed kernel tier, a schema bump that adds a block) are
//! informational, never regressions. Improvements are
//! never flagged; the diff is a one-sided perf gate, wired into CI as a
//! self-diff smoke.

use std::collections::BTreeMap;

use mlscore_telemetry::json::{self, JsonValue};

/// Default relative tolerance: a cell may lose up to 25% throughput
/// before the diff calls it a regression. Wall-clock benchmarks on shared
/// CI hosts jitter; a quarter is far outside noise for the blocked
/// kernels this gate protects.
pub const DEFAULT_TOLERANCE: f64 = 0.25;

const CPU_SCHEMA: &str = "mlscore/bench-cpu-scoring/v1";

/// Per-run metric suffix every compared CPU throughput key shares.
const METRIC_SUFFIX: &str = "_records_per_sec";

/// A report flattened for comparison: `cell label -> { metric -> value }`.
type Cells = BTreeMap<String, BTreeMap<String, f64>>;

/// Flattens a CPU scoring report into labelled cells: a case is one cell
/// whose metrics are its runs' `*_records_per_sec` numbers, named by
/// thread count (`"4-thread simd_records_per_sec"`).
fn flatten(doc: &JsonValue, label: &str) -> Result<Cells, String> {
    let schema: &str = doc.field("schema", label)?;
    if schema != CPU_SCHEMA {
        return Err(format!("{label}: unexpected schema {schema:?}"));
    }
    let mut cells = Cells::new();
    let cases: &[JsonValue] = doc.field("cases", label)?;
    for (i, case) in cases.iter().enumerate() {
        let what = format!("{label}: case {i}");
        let num = |key| case.field::<f64>(key, &what).map(|v| v as u64);
        let dataset: &str = case.field("dataset", &what)?;
        let cell = format!(
            "{dataset} x{} trees depth {} @{}",
            num("trees")?,
            num("depth")?,
            num("records")?
        );
        let mut metrics = BTreeMap::new();
        for run in case.field::<&[JsonValue]>("runs", &what)? {
            let threads = run.field::<f64>("threads", &what)? as u64;
            let JsonValue::Object(fields) = run else {
                return Err(format!("{what}: run is not an object"));
            };
            let mut any = false;
            for (name, value) in fields {
                if !name.ends_with(METRIC_SUFFIX) {
                    continue;
                }
                let v = value
                    .as_f64()
                    .ok_or_else(|| format!("{what}: non-numeric \"{name}\""))?;
                metrics.insert(format!("{threads}-thread {name}"), v);
                any = true;
            }
            if !any {
                return Err(format!("{what}: run has no {METRIC_SUFFIX} metrics"));
            }
        }
        cells.insert(cell, metrics);
    }
    Ok(cells)
}

/// Compares `new_text` against `old_text` with relative `tolerance`.
///
/// Both documents must be CPU scoring reports (see the module docs).
/// Returns one human-readable line per regression
/// (empty: the gate passes). A metric regresses when its new value falls
/// below `old * (1 - tolerance)`; cells or metrics present in the old
/// report but absent from the new one regress unconditionally. The
/// reverse is informational: cells and metrics that only the *new*
/// report carries (e.g. a kernel tier that just landed)
/// are never regressions.
///
/// # Errors
///
/// Returns a description of the first structural problem in either
/// document (bad JSON, a wrong schema, missing fields).
pub fn diff(old_text: &str, new_text: &str, tolerance: f64) -> Result<Vec<String>, String> {
    if !(0.0..1.0).contains(&tolerance) {
        return Err(format!("tolerance {tolerance} outside [0, 1)"));
    }
    let old_doc = json::parse(old_text).map_err(|e| format!("old: {e}"))?;
    let new_doc = json::parse(new_text).map_err(|e| format!("new: {e}"))?;
    let old = flatten(&old_doc, "old")?;
    let new = flatten(&new_doc, "new")?;
    let mut regressions = Vec::new();
    for (label, old_metrics) in &old {
        let Some(new_metrics) = new.get(label) else {
            regressions.push(format!("{label}: case missing from new report"));
            continue;
        };
        // Only the old report's metrics gate; new-only metrics are
        // additions, not comparables.
        for (metric, &old_v) in old_metrics {
            let Some(&new_v) = new_metrics.get(metric) else {
                regressions.push(format!("{label}: {metric} missing from new report"));
                continue;
            };
            if new_v < old_v * (1.0 - tolerance) {
                regressions.push(format!(
                    "{label}: {metric} regressed {old_v:.0} -> {new_v:.0} \
                     ({:+.1}%, tolerance {:.0}%)",
                    (new_v / old_v - 1.0) * 100.0,
                    tolerance * 100.0,
                ));
            }
        }
    }
    Ok(regressions)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(flat: f64, forest: f64) -> String {
        format!(
            "{{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"schema_version\": 2,\n\
             \"cases\": [\n\
               {{\"dataset\": \"higgs\", \"trees\": 128, \"depth\": 10, \"records\": 10000,\n\
                \"runs\": [{{\"threads\": 1, \"flat_records_per_sec\": {flat},\n\
                            \"forest_records_per_sec\": {forest}}}]}}\n\
             ]}}"
        )
    }

    #[test]
    fn self_diff_is_clean() {
        let text = report(1e6, 2e6);
        assert_eq!(diff(&text, &text, DEFAULT_TOLERANCE), Ok(vec![]));
    }

    #[test]
    fn losses_beyond_tolerance_regress_and_gains_never_do() {
        let old = report(1e6, 2e6);
        // 10% flat loss: inside the 25% tolerance.
        assert_eq!(diff(&old, &report(0.9e6, 2e6), 0.25), Ok(vec![]));
        // 30% flat loss: regression.
        let r = diff(&old, &report(0.7e6, 2e6), 0.25).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("flat_records_per_sec"), "{r:?}");
        assert!(r[0].contains("-30.0%"), "{r:?}");
        // Both metrics can regress independently.
        assert_eq!(diff(&old, &report(0.1e6, 0.1e6), 0.25).unwrap().len(), 2);
        // Improvement is never flagged.
        assert_eq!(diff(&old, &report(9e6, 9e6), 0.25), Ok(vec![]));
    }

    /// A v3-style report: same cell as [`report`] plus the vector-tier
    /// metrics and an extra case the old report never had.
    fn report_with_kernel_tier(flat: f64, simd: f64) -> String {
        format!(
            "{{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"schema_version\": 3,\n\
             \"cases\": [\n\
               {{\"dataset\": \"higgs\", \"trees\": 128, \"depth\": 10, \"records\": 10000,\n\
                \"chosen_kernel\": \"simd\",\n\
                \"runs\": [{{\"threads\": 1, \"flat_records_per_sec\": {flat},\n\
                            \"forest_records_per_sec\": 2e6,\n\
                            \"simd_records_per_sec\": {simd},\n\
                            \"quickscorer_records_per_sec\": 1700}}]}},\n\
               {{\"dataset\": \"iris\", \"trees\": 8, \"depth\": 10, \"records\": 500,\n\
                \"chosen_kernel\": \"blocked\",\n\
                \"runs\": [{{\"threads\": 1, \"flat_records_per_sec\": 5e6}}]}}\n\
             ]}}"
        )
    }

    #[test]
    fn missing_cases_and_runs_regress() {
        let old = report(1e6, 2e6);
        let empty = "{\"schema\": \"mlscore/bench-cpu-scoring/v1\", \"cases\": []}";
        let r = diff(&old, empty, 0.25).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("case missing"), "{r:?}");
        // New cases appearing is fine.
        assert_eq!(diff(empty, &old, 0.25), Ok(vec![]));
    }

    #[test]
    fn added_cells_and_metrics_are_informational() {
        // A schema-bumped report that adds a whole kernel tier (new
        // per-run metrics) and a whole new case must diff clean against
        // the old two-metric report: additions are not regressions.
        let old = report(1e6, 2e6);
        let new = report_with_kernel_tier(1e6, 9e5);
        assert_eq!(diff(&old, &new, 0.25), Ok(vec![]));

        // But once the old report carries the new metrics, they gate like
        // any other: dropping one or regressing it fails.
        let newer_slow = report_with_kernel_tier(1e6, 1e5);
        let r = diff(&new, &newer_slow, 0.25).unwrap();
        assert_eq!(r.len(), 1);
        assert!(r[0].contains("simd_records_per_sec regressed"), "{r:?}");
        let r = diff(&new, &old, 0.25).unwrap();
        assert!(
            r.iter().any(|l| l.contains("simd_records_per_sec missing")),
            "{r:?}"
        );
        assert!(r.iter().any(|l| l.contains("case missing")), "{r:?}");
    }

    #[test]
    fn structural_problems_are_errors_not_regressions() {
        assert!(diff("not json", "not json", 0.25).is_err());
        assert!(diff(&report(1.0, 1.0), "{\"schema\": \"wrong\"}", 0.25).is_err());
        assert!(diff(&report(1.0, 1.0), &report(1.0, 1.0), 1.5).is_err());
    }
}
