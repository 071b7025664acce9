//! Requests and query classes.

use mlscore_sim::SimInstant;

/// Engine-assigned request identifier, dense and increasing in arrival
/// order (ties broken by arrival-event order), so id order *is* arrival
/// order.
pub type RequestId = u64;

/// Batch size at or above which a query counts as analytical.
pub const ANALYTICAL_MIN_RECORDS: u64 = 10_000;

/// The two service classes the admission queue distinguishes — the paper's
/// Fig. 1 regimes: small interactive lookups with tight latency
/// expectations, and large analytical scans that tolerate queueing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryClass {
    /// Small batch; latency-sensitive.
    Interactive,
    /// Large scan ([`ANALYTICAL_MIN_RECORDS`] records or more);
    /// throughput-oriented.
    Analytical,
}

impl QueryClass {
    /// Classifies a batch size.
    pub fn of(n_records: u64) -> Self {
        if n_records >= ANALYTICAL_MIN_RECORDS {
            QueryClass::Analytical
        } else {
            QueryClass::Interactive
        }
    }

    /// Stable lowercase name (used for telemetry lanes and JSON keys).
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Interactive => "interactive",
            QueryClass::Analytical => "analytical",
        }
    }

    /// Both classes, in report order.
    pub fn all() -> [QueryClass; 2] {
        [QueryClass::Interactive, QueryClass::Analytical]
    }
}

/// One scoring request inside the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeRequest {
    /// Engine-assigned id (arrival order).
    pub id: RequestId,
    /// Service class, derived from `n_records`.
    pub class: QueryClass,
    /// Index into the engine's model catalog — the coalescing key resolves
    /// through this to the bundle's content hash.
    pub model: usize,
    /// Records to score.
    pub n_records: u64,
    /// When the request entered the system.
    pub arrival: SimInstant,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classifies_by_batch_size() {
        assert_eq!(QueryClass::of(1), QueryClass::Interactive);
        assert_eq!(
            QueryClass::of(ANALYTICAL_MIN_RECORDS - 1),
            QueryClass::Interactive
        );
        assert_eq!(
            QueryClass::of(ANALYTICAL_MIN_RECORDS),
            QueryClass::Analytical
        );
        assert_eq!(QueryClass::of(1_000_000), QueryClass::Analytical);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(QueryClass::Interactive.name(), "interactive");
        assert_eq!(QueryClass::Analytical.name(), "analytical");
        assert_eq!(
            QueryClass::all().map(|c| c.name()),
            ["interactive", "analytical"]
        );
    }
}
