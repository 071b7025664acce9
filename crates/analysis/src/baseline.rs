//! The committed-findings baseline.
//!
//! `analysis-baseline.json` records, per `(lint, file)`, how many findings
//! CI tolerates. The check fails in **both** directions: a count above the
//! baseline means new findings crept in; a count below (or a file that no
//! longer fires at all) means the baseline has gone stale and must be
//! regenerated — it only ever shrinks. The goal state, which this
//! workspace is committed at, is an empty baseline: every legitimate site
//! carries an inline `allow` with a reason instead.
//!
//! # Format versions
//!
//! v1 entries are `{lint, file, count}`. v2 entries additionally carry
//! `lint_version`: the schema version of the lint (see
//! [`crate::LintInfo::version`]) the entry was recorded under. The
//! version is checked *per entry* — introducing a new lint neither
//! invalidates unrelated entries (they simply don't mention it) nor lets
//! stale ones hide (an entry recorded under an older lint version fails
//! on its own, without dragging the rest of the baseline with it).
//! Legacy entries without `lint_version` are accepted as current.

use std::collections::BTreeMap;

use mlscore_telemetry::json::{self, JsonValue};

use crate::{lint_info, Finding};

/// Tolerated findings for one `(lint, file)` pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaselineEntry {
    /// Lint code.
    pub lint: String,
    /// Workspace-relative file.
    pub file: String,
    /// Findings tolerated there.
    pub count: usize,
    /// The lint schema version the entry was recorded under. `None` for
    /// legacy v1 baselines (accepted as current).
    pub lint_version: Option<u32>,
}

/// Aggregates findings into deterministic `(lint, file) -> count` form.
pub fn aggregate(findings: &[Finding]) -> BTreeMap<(String, String), usize> {
    let mut counts = BTreeMap::new();
    for f in findings {
        *counts.entry((f.lint.clone(), f.file.clone())).or_insert(0) += 1;
    }
    counts
}

/// Serializes a baseline (sorted, stable formatting — safe to commit).
/// Every entry is stamped with its lint's current schema version.
pub fn to_json(counts: &BTreeMap<(String, String), usize>) -> String {
    let mut out = String::from("{\n  \"version\": 2,\n  \"findings\": [");
    for (i, ((lint, file), count)) in counts.iter().enumerate() {
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        out.push_str("    { \"lint\": ");
        json::write_escaped(&mut out, lint);
        out.push_str(", \"file\": ");
        json::write_escaped(&mut out, file);
        let lv = lint_info(lint).map_or(1, |l| l.version);
        out.push_str(", \"count\": ");
        json::write_uint(&mut out, *count as u64);
        out.push_str(", \"lint_version\": ");
        json::write_uint(&mut out, u64::from(lv));
        out.push_str(" }");
    }
    if !counts.is_empty() {
        out.push_str("\n  ");
    }
    out.push_str("]\n}\n");
    out
}

/// Parses a baseline document (v1 or v2).
///
/// # Errors
///
/// Returns a description of the first structural problem.
pub fn parse(input: &str) -> Result<Vec<BaselineEntry>, String> {
    let doc = json::parse(input).map_err(|e| e.to_string())?;
    let findings = doc
        .get("findings")
        .and_then(JsonValue::as_array)
        .ok_or("baseline is missing the `findings` array")?;
    let mut entries = Vec::new();
    for item in findings {
        let field = |key: &str| {
            item.get(key)
                .and_then(JsonValue::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("baseline entry is missing `{key}`"))
        };
        let count = item
            .get("count")
            .and_then(JsonValue::as_f64)
            .filter(|c| c.fract() == 0.0 && *c >= 0.0)
            .ok_or("baseline entry is missing a whole-number `count`")?;
        let lint_version = match item.get("lint_version") {
            None => None,
            Some(v) => Some(
                v.as_f64()
                    .filter(|n| n.fract() == 0.0 && *n >= 1.0)
                    .ok_or("baseline entry has a malformed `lint_version`")? as u32,
            ),
        };
        entries.push(BaselineEntry {
            lint: field("lint")?,
            file: field("file")?,
            count: count as usize,
            lint_version,
        });
    }
    Ok(entries)
}

/// Compares current findings against the baseline. Empty result = pass.
pub fn check(findings: &[Finding], baseline: &[BaselineEntry]) -> Vec<String> {
    let current = aggregate(findings);
    let allowed: BTreeMap<(String, String), usize> = baseline
        .iter()
        .map(|e| ((e.lint.clone(), e.file.clone()), e.count))
        .collect();

    let mut errors = Vec::new();
    // Per-entry lint-version staleness: checked independently of counts
    // so one out-of-date entry never masks (or is masked by) the rest.
    for e in baseline {
        match (lint_info(&e.lint), e.lint_version) {
            (None, _) => errors.push(format!(
                "{}: baseline entry references unknown lint {} — \
                 remove it or regenerate with --write-baseline",
                e.file, e.lint
            )),
            (Some(info), Some(v)) if info.version != v => errors.push(format!(
                "{}: baseline entry for {} was recorded under lint version {v} but \
                 the lint is now version {} — re-audit and regenerate with --write-baseline",
                e.file, e.lint, info.version
            )),
            _ => {}
        }
    }
    for ((lint, file), &n) in &current {
        let tolerated = allowed
            .get(&(lint.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if n > tolerated {
            errors.push(format!(
                "{file}: {n} {lint} finding(s), baseline tolerates {tolerated} — \
                 fix the new findings or suppress them with a reason"
            ));
        }
    }
    for ((lint, file), &tolerated) in &allowed {
        let n = current
            .get(&(lint.clone(), file.clone()))
            .copied()
            .unwrap_or(0);
        if n < tolerated {
            errors.push(format!(
                "{file}: baseline tolerates {tolerated} {lint} finding(s) but only {n} fire — \
                 the baseline is stale, regenerate it with --write-baseline"
            ));
        }
    }
    errors.sort();
    errors
}

#[cfg(test)]
mod tests {
    use super::*;

    fn finding(lint: &str, file: &str, line: u32) -> Finding {
        Finding {
            lint: lint.to_string(),
            file: file.to_string(),
            line,
            offset: 0,
            message: String::new(),
            suppressed: None,
        }
    }

    #[test]
    fn json_roundtrips() {
        let findings = vec![
            finding("D001", "crates/a/src/x.rs", 3),
            finding("D001", "crates/a/src/x.rs", 9),
            finding("P001", "crates/b/src/y.rs", 1),
        ];
        let counts = aggregate(&findings);
        let entries = parse(&to_json(&counts)).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].count, 2);
        assert_eq!(entries[0].lint_version, Some(1));
        assert!(check(&findings, &entries).is_empty());
    }

    #[test]
    fn empty_baseline_serializes_and_passes_on_clean_tree() {
        let counts = aggregate(&[]);
        let entries = parse(&to_json(&counts)).unwrap();
        assert!(entries.is_empty());
        assert!(check(&[], &entries).is_empty());
    }

    #[test]
    fn new_findings_fail_the_check() {
        let baseline = vec![BaselineEntry {
            lint: "D001".to_string(),
            file: "crates/a/src/x.rs".to_string(),
            count: 1,
            lint_version: Some(1),
        }];
        let findings = vec![
            finding("D001", "crates/a/src/x.rs", 3),
            finding("D001", "crates/a/src/x.rs", 9),
        ];
        let errors = check(&findings, &baseline);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("baseline tolerates 1"), "{errors:?}");
    }

    #[test]
    fn stale_baseline_entries_fail_the_check() {
        let baseline = vec![BaselineEntry {
            lint: "D001".to_string(),
            file: "crates/a/src/x.rs".to_string(),
            count: 2,
            lint_version: Some(1),
        }];
        let errors = check(&[finding("D001", "crates/a/src/x.rs", 3)], &baseline);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("stale"), "{errors:?}");
        // ...and an entry for a file that stopped firing entirely.
        let errors = check(&[], &baseline);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("stale"), "{errors:?}");
    }

    #[test]
    fn legacy_v1_entries_without_lint_version_are_accepted() {
        let v1 = "{\"version\": 1, \"findings\": [\
                  {\"lint\": \"D001\", \"file\": \"crates/a/src/x.rs\", \"count\": 1}]}";
        let entries = parse(v1).unwrap();
        assert_eq!(entries[0].lint_version, None);
        assert!(check(&[finding("D001", "crates/a/src/x.rs", 3)], &entries).is_empty());
    }

    #[test]
    fn lint_version_mismatch_fails_only_that_entry() {
        let baseline = vec![
            BaselineEntry {
                lint: "D001".to_string(),
                file: "crates/a/src/x.rs".to_string(),
                count: 1,
                lint_version: Some(99),
            },
            BaselineEntry {
                lint: "P001".to_string(),
                file: "crates/b/src/y.rs".to_string(),
                count: 1,
                lint_version: Some(1),
            },
        ];
        let findings = vec![
            finding("D001", "crates/a/src/x.rs", 3),
            finding("P001", "crates/b/src/y.rs", 1),
        ];
        let errors = check(&findings, &baseline);
        assert_eq!(errors.len(), 1, "{errors:?}");
        assert!(errors[0].contains("lint version 99"), "{errors:?}");
        assert!(errors[0].contains("D001"), "{errors:?}");
    }

    #[test]
    fn unknown_lints_in_the_baseline_are_flagged() {
        let baseline = vec![BaselineEntry {
            lint: "Z999".to_string(),
            file: "crates/a/src/x.rs".to_string(),
            count: 0,
            lint_version: Some(1),
        }];
        let errors = check(&[], &baseline);
        assert_eq!(errors.len(), 1);
        assert!(errors[0].contains("unknown lint"), "{errors:?}");
    }

    #[test]
    fn malformed_baselines_are_rejected() {
        for bad in [
            "[]",
            "{\"version\": 1}",
            "{\"findings\": [{\"lint\": \"D001\"}]}",
            "{\"findings\": [{\"lint\": \"D001\", \"file\": \"f\", \"count\": 1.5}]}",
            "{\"findings\": [{\"lint\": \"D001\", \"file\": \"f\", \"count\": 1, \
              \"lint_version\": 0.5}]}",
            "not json",
        ] {
            assert!(parse(bad).is_err(), "should reject {bad:?}");
        }
    }
}
