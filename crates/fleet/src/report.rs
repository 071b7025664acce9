//! Fleet-wide outcome: per-node reports merged counter-wise, plus the
//! fleet-only dimensions — re-routes, scaling trajectory, and provisioned
//! cost in device-seconds.

use mlscore_serve::{ClassReport, QueryClass, ServingReport};
use mlscore_sim::{SimDuration, SimInstant};
use mlscore_telemetry::json::JsonWriter;
use mlscore_telemetry::{Histogram, TimeSeriesRecorder};

use crate::scale::ScaleDecision;

/// One node's slice of the fleet outcome.
#[derive(Debug, Clone)]
pub struct NodeSummary {
    /// The node's fleet-wide id.
    pub node: usize,
    /// When the node joined the routable set.
    pub commissioned_at: SimInstant,
    /// When the node left it (failure or scale-down); `None` if it served
    /// to the end.
    pub decommissioned_at: Option<SimInstant>,
    /// Whether the node was commissioned with degraded hardware.
    pub straggler: bool,
    /// Whether the node left the fleet by failure (vs. scale-down).
    pub failed: bool,
    /// Devices the node provisioned.
    pub devices: usize,
    /// The node's own serving report.
    pub report: ServingReport,
}

/// One autoscaler action, in boundary order.
#[derive(Debug, Clone, PartialEq)]
pub struct ScaleEvent {
    /// The window boundary at which the action fired.
    pub at: SimInstant,
    /// The boundary's window index.
    pub window: u64,
    /// What the autoscaler did.
    pub decision: ScaleDecision,
    /// Routable nodes after the action.
    pub nodes_after: usize,
}

/// The merged outcome of one fleet run.
#[derive(Debug, Clone)]
pub struct FleetReport {
    /// Router policy name.
    pub policy: String,
    /// Scale policy name.
    pub scale: String,
    /// Scenario name.
    pub scenario: String,
    /// Unique requests the scenario offered the fleet.
    pub offered: u64,
    /// Requests completed somewhere in the fleet.
    pub completed: u64,
    /// Requests bounced at a full node queue.
    pub rejected: u64,
    /// Requests evicted by drop-oldest shedding.
    pub dropped: u64,
    /// Requests shed by deadline expiry.
    pub timed_out: u64,
    /// Requests no backend supports.
    pub unservable: u64,
    /// Drain-and-re-inject hops (a request re-routed twice counts twice).
    pub rerouted: u64,
    /// Records scored fleet-wide.
    pub records_scored: u64,
    /// First arrival to last completion, fleet-wide.
    pub makespan: SimDuration,
    /// Merged sojourn-latency distribution.
    pub latency: Histogram,
    /// Per-class slices merged counter-wise, in `QueryClass::all()` order.
    pub classes: Vec<ClassReport>,
    /// Per-node series merged window-by-window.
    pub series: TimeSeriesRecorder,
    /// Artifact-cache hits summed over nodes.
    pub cache_hits: u64,
    /// Artifact-cache misses summed over nodes.
    pub cache_misses: u64,
    /// Provisioned cost: for each node, its routable lifetime in seconds
    /// times the devices it held.
    pub device_seconds: f64,
    /// Most nodes ever routable at once.
    pub peak_nodes: usize,
    /// The autoscaler's actions, in boundary order.
    pub scale_events: Vec<ScaleEvent>,
    /// Per-node slices, in node-id order.
    pub nodes: Vec<NodeSummary>,
}

impl FleetReport {
    /// Completed queries per second of fleet makespan.
    pub fn throughput_qps(&self) -> f64 {
        if self.makespan.is_zero() {
            0.0
        } else {
            self.completed as f64 / self.makespan.as_secs()
        }
    }

    /// Requests shed fleet-wide for any reason.
    pub fn shed(&self) -> u64 {
        self.rejected + self.dropped + self.timed_out
    }

    /// The merged class slice for `class`.
    ///
    /// # Panics
    ///
    /// Panics if the report is missing the class (never true for
    /// driver-produced reports).
    pub fn class(&self, class: QueryClass) -> &ClassReport {
        self.classes
            .iter()
            .find(|c| c.class == class)
            // analyze: allow(P001, reason="documented panic: the driver emits one ClassReport per QueryClass::all() entry; absence is a construction bug, not load")
            .expect("fleet reports carry every class")
    }

    /// Fleet-wide interactive SLO attainment.
    pub fn interactive_attainment(&self) -> f64 {
        self.class(QueryClass::Interactive).attainment()
    }

    /// Fraction of artifact-cache lookups that hit, fleet-wide (`1.0`
    /// with no lookups).
    pub fn cache_hit_rate(&self) -> f64 {
        let lookups = self.cache_hits + self.cache_misses;
        if lookups == 0 {
            1.0
        } else {
            self.cache_hits as f64 / lookups as f64
        }
    }

    /// Checks fleet-wide request conservation: every node report conserves
    /// locally; every offered request terminates exactly once somewhere
    /// (completed, shed, or unservable); node admissions exceed unique
    /// offers by exactly the re-route hops; and the merged class slices
    /// sum back to the fleet counters.
    pub fn is_conserved(&self) -> bool {
        let sum = |f: fn(&ClassReport) -> u64| self.classes.iter().map(f).sum::<u64>();
        let node = |f: &dyn Fn(&ServingReport) -> u64| {
            self.nodes.iter().map(|n| f(&n.report)).sum::<u64>()
        };
        self.nodes.iter().all(|n| n.report.is_conserved())
            && self.offered + self.rerouted == node(&|r| r.offered)
            && self.rerouted == node(&|r| r.drained)
            && self.offered
                == self.completed + self.rejected + self.dropped + self.timed_out + self.unservable
            && self.completed == node(&|r| r.completed)
            && self.rejected == node(&|r| r.rejected)
            && self.dropped == node(&|r| r.dropped)
            && self.timed_out == node(&|r| r.timed_out)
            && self.unservable == node(&|r| r.unservable)
            && sum(|c| c.completed) == self.completed
            && sum(|c| c.drained) == self.rerouted
    }

    /// Renders the report as deterministic JSON: fixed-precision numbers,
    /// `BTreeMap`-ordered keys, no wall-clock anywhere — two identical
    /// runs serialize byte-identically.
    pub fn to_json(&self) -> String {
        let q_ms = |q: f64| {
            if self.latency.count() == 0 {
                0.0
            } else {
                self.latency.quantile(q).as_millis()
            }
        };
        let mut w = JsonWriter::pretty();
        w.begin_object();
        w.key("policy").str(&self.policy);
        w.key("scale").str(&self.scale);
        w.key("scenario").str(&self.scenario);
        for (key, v) in [
            ("offered", self.offered),
            ("completed", self.completed),
            ("rejected", self.rejected),
            ("dropped", self.dropped),
            ("timed_out", self.timed_out),
            ("unservable", self.unservable),
            ("rerouted", self.rerouted),
            ("records_scored", self.records_scored),
        ] {
            w.key(key).uint(v);
        }
        w.key("makespan_s").fixed(self.makespan.as_secs(), 6);
        w.key("throughput_qps").fixed(self.throughput_qps(), 3);
        w.key("latency_p50_ms").fixed(q_ms(0.5), 3);
        w.key("latency_p99_ms").fixed(q_ms(0.99), 3);
        w.key("cache_hits").uint(self.cache_hits);
        w.key("cache_misses").uint(self.cache_misses);
        w.key("cache_hit_rate").fixed(self.cache_hit_rate(), 6);
        w.key("device_seconds").fixed(self.device_seconds, 3);
        w.key("peak_nodes").uint(self.peak_nodes as u64);
        w.key("classes").begin_array();
        for c in &self.classes {
            w.begin_object();
            w.key("class").str(c.class.name());
            w.key("completed").uint(c.completed);
            w.key("shed").uint(c.shed());
            w.key("drained").uint(c.drained);
            w.key("attainment").fixed(c.attainment(), 6);
            w.end();
        }
        w.end();
        w.key("scale_events").begin_array();
        for e in &self.scale_events {
            w.begin_object();
            w.key("window").uint(e.window);
            w.key("at_s").fixed(e.at.as_secs(), 6);
            w.key("decision").str(match e.decision {
                ScaleDecision::Hold => "hold",
                ScaleDecision::Up => "up",
                ScaleDecision::Down => "down",
            });
            w.key("nodes").uint(e.nodes_after as u64);
            w.end();
        }
        w.end();
        w.key("nodes").begin_array();
        for n in &self.nodes {
            w.begin_object();
            w.key("node").uint(n.node as u64);
            w.key("commissioned_s")
                .fixed(n.commissioned_at.as_secs(), 6);
            w.key("decommissioned_s");
            match n.decommissioned_at {
                Some(at) => w.fixed(at.as_secs(), 6),
                None => w.null(),
            };
            w.key("straggler").bool(n.straggler);
            w.key("failed").bool(n.failed);
            w.key("devices").uint(n.devices as u64);
            w.key("offered").uint(n.report.offered);
            w.key("completed").uint(n.report.completed);
            w.key("drained").uint(n.report.drained);
            w.key("cache_hits").uint(n.report.cache.hits);
            w.end();
        }
        w.end().end();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn empty() -> FleetReport {
        FleetReport {
            policy: "least-loaded".to_string(),
            scale: "static".to_string(),
            scenario: "steady".to_string(),
            offered: 0,
            completed: 0,
            rejected: 0,
            dropped: 0,
            timed_out: 0,
            unservable: 0,
            rerouted: 0,
            records_scored: 0,
            makespan: SimDuration::ZERO,
            latency: Histogram::new(),
            classes: QueryClass::all()
                .into_iter()
                .map(|class| ClassReport {
                    class,
                    completed: 0,
                    rejected: 0,
                    dropped: 0,
                    timed_out: 0,
                    drained: 0,
                    slo_violations: 0,
                    latency: Histogram::new(),
                })
                .collect(),
            series: TimeSeriesRecorder::new(SimDuration::from_millis(100.0)),
            cache_hits: 0,
            cache_misses: 0,
            device_seconds: 0.0,
            peak_nodes: 0,
            scale_events: Vec::new(),
            nodes: Vec::new(),
        }
    }

    #[test]
    fn empty_fleet_report_is_conserved_and_renders() {
        let r = empty();
        assert!(r.is_conserved());
        assert_eq!(r.throughput_qps(), 0.0);
        assert_eq!(r.cache_hit_rate(), 1.0);
        assert_eq!(r.interactive_attainment(), 1.0);
        let json = r.to_json();
        assert!(json.contains("\"policy\": \"least-loaded\""));
        assert!(json.contains("\"rerouted\": 0"));
        let doc = mlscore_telemetry::json::parse(&json).expect("valid JSON");
        assert_eq!(doc.get("offered").and_then(|v| v.as_f64()), Some(0.0));
        // Deterministic bytes.
        assert_eq!(json, empty().to_json());
    }

    #[test]
    fn conservation_catches_a_request_lost_between_nodes() {
        let mut r = empty();
        r.offered = 1; // offered once, but no node terminated it
        assert!(!r.is_conserved());
    }
}
