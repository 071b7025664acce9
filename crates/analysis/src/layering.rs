//! The workspace crate-layering table.
//!
//! One table, two consumers: the A001 lint (a crate may only *mention*
//! `mlscore_*` crates the table allows — see [`crate::interproc`]) and
//! call-graph edge resolution (a name-based candidate in a crate the
//! caller cannot depend on is not a real callee — see [`crate::graph`]).
//! Using the dependency structure to prune resolution is what keeps the
//! conservative name matcher from linking, say, a `tree.score(...)` call
//! inside an `exec` kernel to every `score` method in every backend.

/// For each crate under `crates/`, the workspace crates it may reference
/// (its own name is always allowed). Mirrors the actual `Cargo.toml`
/// dependency edges; a crate missing from this table may reference
/// nothing, and new crates must be added here deliberately.
pub const LAYERING: &[(&str, &[&str])] = &[
    ("sim", &[]),
    ("forest", &[]),
    ("data", &[]),
    ("telemetry", &["sim"]),
    ("offload", &["sim"]),
    ("analysis", &["telemetry"]),
    ("exec", &["sim", "telemetry", "forest", "data"]),
    ("backend", &["sim", "telemetry", "forest", "data", "exec"]),
    (
        "pipeline",
        &["sim", "telemetry", "forest", "data", "backend"],
    ),
    (
        "gpu",
        &["sim", "telemetry", "forest", "data", "offload", "backend"],
    ),
    (
        "fpga",
        &["sim", "telemetry", "forest", "data", "offload", "backend"],
    ),
    (
        "sched",
        &[
            "sim",
            "telemetry",
            "forest",
            "data",
            "backend",
            "gpu",
            "fpga",
        ],
    ),
    (
        "serve",
        &[
            "sim",
            "telemetry",
            "forest",
            "data",
            "backend",
            "exec",
            "pipeline",
            "sched",
        ],
    ),
    ("fleet", &["sim", "telemetry", "sched", "serve"]),
    (
        "core",
        &[
            "sim",
            "telemetry",
            "forest",
            "data",
            "offload",
            "backend",
            "gpu",
            "fpga",
            "pipeline",
            "sched",
        ],
    ),
    (
        "bench",
        &[
            "sim",
            "exec",
            "telemetry",
            "forest",
            "data",
            "backend",
            "gpu",
            "fpga",
            "pipeline",
            "sched",
            "serve",
            "fleet",
            "core",
            "analysis",
        ],
    ),
];

/// The crates `krate` may reference, or `None` when `krate` is not in
/// the table (out of layering scope — e.g. test fixture crates).
pub fn allowed_of(krate: &str) -> Option<&'static [&'static str]> {
    LAYERING
        .iter()
        .find(|(c, _)| *c == krate)
        .map(|(_, deps)| *deps)
}

/// Whether code in crate `from` may reference crate `to`. Crates outside
/// the table are unrestricted (so fixture workspaces resolve freely);
/// self-references are always allowed.
pub fn may_reference(from: &str, to: &str) -> bool {
    if from == to {
        return true;
    }
    match allowed_of(from) {
        Some(allowed) => allowed.contains(&to),
        None => true,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn layering_table_is_acyclic_and_self_consistent() {
        // Every allowed dep must itself be in the table, and following
        // allowed edges must never return to the start (no cycles).
        for (krate, allowed) in LAYERING {
            for dep in *allowed {
                assert!(
                    LAYERING.iter().any(|(c, _)| c == dep),
                    "{krate} allows unknown crate {dep}"
                );
                assert_ne!(krate, dep, "{krate} lists itself");
            }
            let mut stack: Vec<&str> = allowed.to_vec();
            let mut seen: Vec<&str> = Vec::new();
            while let Some(next) = stack.pop() {
                assert_ne!(&next, krate, "layering cycle through {krate}");
                if seen.contains(&next) {
                    continue;
                }
                seen.push(next);
                if let Some(deps) = allowed_of(next) {
                    stack.extend(deps.iter().copied());
                }
            }
        }
    }

    #[test]
    fn may_reference_enforces_the_table_for_known_crates() {
        assert!(may_reference("serve", "backend"));
        assert!(may_reference("serve", "serve"));
        assert!(!may_reference("serve", "fleet"));
        assert!(!may_reference("serve", "bench"));
        assert!(!may_reference("exec", "backend"));
        assert!(!may_reference("data", "exec"));
        assert!(!may_reference("telemetry", "serve"));
        assert!(!may_reference("bench", "offload"));
        // Unknown (fixture) crates are unrestricted.
        assert!(may_reference("appa", "appb"));
    }
}
