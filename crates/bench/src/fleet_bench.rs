//! Fleet-scale serving benchmark (`repro fleet`).
//!
//! Runs the router-policy × traffic-scenario shmoo through
//! [`mlscore_fleet::run_fleet`] — every routing policy against steady
//! load, a flash crowd, and a model-release storm on a fixed fleet — plus
//! a diurnal autoscaling pair (static provisioning vs. the queue-depth
//! autoscaler under the same day/night curve). The cells feed the
//! `"fleet"` block of `BENCH_serving.json` (schema v3).
//!
//! The two effects the block exists to demonstrate, and which
//! [`crate::serve_bench::validate`] enforces on every committed report:
//!
//! 1. **Affinity beats load-spread under a model-release storm**:
//!    consistent-hash routing concentrates each model's compiled artifact
//!    on one node, so after a mass cache flush the fleet re-pays each
//!    compile once — least-loaded re-pays it once *per node*, and its
//!    warm-cache interactive attainment and hit rate sit lower.
//! 2. **Deterministic autoscaling buys the diurnal SLO cheaper**: the
//!    queue-depth scaler drains nodes through the troughs and re-grows
//!    for the peaks, holding interactive attainment at or above the
//!    statically provisioned fleet while consuming fewer device-seconds.
//!
//! Like every harness here, the whole shmoo runs in simulated time: the
//! block is a pure function of the seed and byte-identical across hosts.

use mlscore_fleet::{
    run_fleet, FleetConfig, FleetReport, NodeSpec, RouterKind, ScalePolicy, ScenarioKind,
    ScenarioSpec,
};
use mlscore_sched::paper_backends;
use mlscore_serve::{ClassSlo, ModelCatalog, QueueConfig, ServeConfig, ServeEngine};
use mlscore_sim::SimDuration;
use mlscore_telemetry::json::JsonWriter;
use mlscore_telemetry::Tracer;

use crate::serve_bench::SEED;

/// Executor seats per fleet node — deliberately smaller than the 52-seat
/// single-server sweep so a few hundred qps saturates a node and the
/// router's choices matter.
pub const NODE_CPU_SEATS: usize = 8;

/// Concurrent GPU streams per fleet node.
pub const NODE_GPU_STREAMS: usize = 2;

/// Artifact-cache entries per node — tight enough that one node cannot
/// hold the whole catalog warm, which is what makes routing affinity
/// visible.
pub const NODE_CACHE_ENTRIES: usize = 8;

/// Nodes in the fixed (static-scale) shmoo fleet.
pub const SHMOO_NODES: usize = 3;

/// Options for one fleet harness run.
#[derive(Debug, Clone, Copy)]
pub struct FleetBenchOptions {
    /// Shrink horizons to a CI smoke run.
    pub quick: bool,
}

impl FleetBenchOptions {
    /// Scenario horizon for the policy × scenario shmoo.
    fn horizon(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 2.0 } else { 6.0 })
    }

    /// Scenario horizon for the diurnal autoscaling pair (long enough for
    /// two full day/night cycles to play out).
    fn diurnal_horizon(&self) -> SimDuration {
        SimDuration::from_secs(if self.quick { 4.0 } else { 12.0 })
    }
}

/// One fleet run folded down to the numbers the report keeps.
#[derive(Debug, Clone)]
pub struct FleetCell {
    /// Router policy name.
    pub policy: String,
    /// Scale policy name.
    pub scale: String,
    /// Scenario name.
    pub scenario: String,
    /// Unique requests offered.
    pub offered: u64,
    /// Requests completed fleet-wide.
    pub completed: u64,
    /// Requests shed fleet-wide.
    pub shed: u64,
    /// Drain-and-re-inject hops.
    pub rerouted: u64,
    /// Completed queries per second of fleet makespan.
    pub throughput_qps: f64,
    /// Interactive latency-SLO attainment, in `[0, 1]`.
    pub interactive_attainment: f64,
    /// Fleet-wide artifact-cache hit rate, in `[0, 1]`.
    pub cache_hit_rate: f64,
    /// Provisioned cost in device-seconds.
    pub device_seconds: f64,
    /// Most nodes ever routable at once.
    pub peak_nodes: usize,
}

impl FleetCell {
    fn of(report: &FleetReport) -> Self {
        Self {
            policy: report.policy.clone(),
            scale: report.scale.clone(),
            scenario: report.scenario.clone(),
            offered: report.offered,
            completed: report.completed,
            shed: report.shed(),
            rerouted: report.rerouted,
            throughput_qps: report.throughput_qps(),
            interactive_attainment: report.interactive_attainment(),
            cache_hit_rate: report.cache_hit_rate(),
            device_seconds: report.device_seconds,
            peak_nodes: report.peak_nodes,
        }
    }
}

/// A full `repro fleet` result: the policy × scenario shmoo plus the
/// diurnal autoscaling pair, all as uniform cells.
#[derive(Debug, Clone)]
pub struct FleetBenchReport {
    /// Nodes in the fixed shmoo fleet.
    pub nodes: usize,
    /// Every cell, shmoo order then the diurnal pair.
    pub cells: Vec<FleetCell>,
}

/// The pinned per-node engine every fleet cell uses. Seats, streams, and
/// cache size are constants (not host-derived) so the report is
/// byte-identical across machines.
pub fn node_engine(spec: &NodeSpec) -> ServeEngine {
    let (cpu_seats, gpu_streams) = if spec.straggler {
        (NODE_CPU_SEATS / 2, 1)
    } else {
        (NODE_CPU_SEATS, NODE_GPU_STREAMS)
    };
    ServeEngine::new(
        paper_backends(),
        ModelCatalog::paper_mix(),
        ServeConfig {
            queue: QueueConfig {
                capacity: Some(64),
                interactive: ClassSlo {
                    latency_slo: Some(SimDuration::from_millis(50.0)),
                    ..ClassSlo::default()
                },
                analytical: ClassSlo {
                    latency_slo: Some(SimDuration::from_secs(2.0)),
                    ..ClassSlo::default()
                },
                ..QueueConfig::default()
            },
            cpu_seats,
            gpu_streams,
            cache_entries: NODE_CACHE_ENTRIES,
            ..ServeConfig::default()
        },
    )
}

/// The shmoo's three traffic scenarios, rates sized against
/// [`SHMOO_NODES`] nodes of [`node_engine`] capacity.
fn shmoo_scenarios(opts: &FleetBenchOptions) -> Vec<ScenarioSpec> {
    let horizon = opts.horizon();
    vec![
        ScenarioSpec::new(ScenarioKind::Steady { rate_qps: 900.0 }, horizon, SEED),
        ScenarioSpec::new(
            ScenarioKind::FlashCrowd {
                base_qps: 200.0,
                peak_qps: 3_000.0,
                start_frac: 0.3,
                len_frac: 0.2,
            },
            horizon,
            SEED,
        ),
        // Near the fixed fleet's saturation point: after the mass cache
        // flush, the recompile burden decides who keeps the SLO.
        ScenarioSpec::new(
            ScenarioKind::ModelReleaseStorm {
                rate_qps: 1_800.0,
                release_frac: 0.5,
            },
            horizon,
            SEED,
        ),
    ]
}

/// The diurnal day/night curve both provisioning strategies face.
fn diurnal_scenario(opts: &FleetBenchOptions) -> ScenarioSpec {
    ScenarioSpec::new(
        ScenarioKind::Diurnal {
            trough_qps: 60.0,
            peak_qps: 600.0,
            cycles: 2,
        },
        opts.diurnal_horizon(),
        SEED,
    )
}

fn run_cell(config: &FleetConfig, scenario: &ScenarioSpec) -> FleetCell {
    let report = run_fleet(config, scenario, &node_engine, &Tracer::disabled())
        .expect("bench scenarios are valid and fault-free by construction");
    assert!(report.is_conserved(), "fleet lost requests");
    FleetCell::of(&report)
}

/// Runs the full shmoo, printing one progress line per cell.
pub fn run(opts: &FleetBenchOptions) -> FleetBenchReport {
    let mut cells = Vec::new();
    for scenario in shmoo_scenarios(opts) {
        for router in RouterKind::all() {
            let config = FleetConfig {
                initial_nodes: SHMOO_NODES,
                router,
                scale: ScalePolicy::Static,
                seed: SEED,
            };
            let cell = run_cell(&config, &scenario);
            println!(
                "{:<19} x {:<15} | {:>7.1} qps | attain {:.4} | cache {:.3} | \
                 shed {:>4} | {:.0} device-s",
                cell.scenario,
                cell.policy,
                cell.throughput_qps,
                cell.interactive_attainment,
                cell.cache_hit_rate,
                cell.shed,
                cell.device_seconds,
            );
            cells.push(cell);
        }
    }

    // The diurnal pair: same curve, same router, static max-size fleet
    // vs. the queue-depth autoscaler breathing between 1 and the same
    // max.
    let diurnal = diurnal_scenario(opts);
    let static_config = FleetConfig {
        initial_nodes: 4,
        router: RouterKind::ConsistentHash,
        scale: ScalePolicy::Static,
        seed: SEED,
    };
    let scaled_config = FleetConfig {
        initial_nodes: 4,
        router: RouterKind::ConsistentHash,
        scale: ScalePolicy::QueueDepthTarget {
            target: 1.0,
            cooldown_windows: 0,
            min_nodes: 2,
            max_nodes: 4,
        },
        seed: SEED,
    };
    for config in [&static_config, &scaled_config] {
        let cell = run_cell(config, &diurnal);
        println!(
            "{:<19} x {:<15} | {:>7.1} qps | attain {:.4} | peak {} node(s) | \
             {:.0} device-s ({})",
            cell.scenario,
            cell.policy,
            cell.throughput_qps,
            cell.interactive_attainment,
            cell.peak_nodes,
            cell.device_seconds,
            cell.scale,
        );
        cells.push(cell);
    }
    FleetBenchReport {
        nodes: SHMOO_NODES,
        cells,
    }
}

/// Writes the `"fleet"` block (the value after the key) of a
/// `BENCH_serving.json` document under construction.
pub fn write_json(w: &mut JsonWriter, report: &FleetBenchReport) {
    w.begin_object();
    w.key("nodes").uint(report.nodes as u64);
    w.key("cells").begin_array();
    for c in &report.cells {
        w.begin_object();
        w.key("policy").str(&c.policy);
        w.key("scale").str(&c.scale);
        w.key("scenario").str(&c.scenario);
        w.key("offered").uint(c.offered);
        w.key("completed").uint(c.completed);
        w.key("shed").uint(c.shed);
        w.key("rerouted").uint(c.rerouted);
        w.key("throughput_qps").fixed(c.throughput_qps, 3);
        w.key("interactive_attainment")
            .fixed(c.interactive_attainment, 6);
        w.key("cache_hit_rate").fixed(c.cache_hit_rate, 6);
        w.key("device_seconds").fixed(c.device_seconds, 3);
        w.key("peak_nodes").uint(c.peak_nodes as u64);
        w.end();
    }
    w.end().end();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_shmoo_covers_the_grid_and_shows_both_effects() {
        let opts = FleetBenchOptions { quick: true };
        let report = run(&opts);
        // 4 policies x 3 scenarios + the diurnal pair.
        assert_eq!(report.cells.len(), RouterKind::all().len() * 3 + 2);

        let cell = |policy: &str, scale: &str, scenario: &str| {
            report
                .cells
                .iter()
                .find(|c| c.policy == policy && c.scale == scale && c.scenario == scenario)
                .unwrap_or_else(|| panic!("missing cell {policy}/{scale}/{scenario}"))
        };
        // Effect 1: affinity survives the storm better than load-spread.
        let ch = cell("consistent-hash", "static", "model-release-storm");
        let ll = cell("least-loaded", "static", "model-release-storm");
        assert!(
            ch.interactive_attainment >= ll.interactive_attainment
                && ch.cache_hit_rate > ll.cache_hit_rate,
            "consistent-hash {:.4}/{:.3} vs least-loaded {:.4}/{:.3}",
            ch.interactive_attainment,
            ch.cache_hit_rate,
            ll.interactive_attainment,
            ll.cache_hit_rate,
        );
        // Effect 2: the autoscaler matches static attainment for fewer
        // device-seconds on the diurnal curve.
        let fixed = cell("consistent-hash", "static", "diurnal");
        let scaled = cell("consistent-hash", "queue-depth", "diurnal");
        assert!(
            scaled.interactive_attainment >= fixed.interactive_attainment
                && scaled.device_seconds < fixed.device_seconds,
            "autoscaled {:.4} @ {:.0} device-s vs static {:.4} @ {:.0} device-s",
            scaled.interactive_attainment,
            scaled.device_seconds,
            fixed.interactive_attainment,
            fixed.device_seconds,
        );
    }

    #[test]
    fn fleet_cells_are_deterministic() {
        let opts = FleetBenchOptions { quick: true };
        let render = || {
            let mut w = JsonWriter::compact();
            write_json(&mut w, &run(&opts));
            w.finish()
        };
        assert_eq!(
            render(),
            render(),
            "byte-identical fleet block across reruns"
        );
    }
}
