//! Property tests for the request-lifecycle observability layer: window
//! rotation at exact edges, bit-exact reconstruction of the engine's
//! latency distributions from the journal, and byte-identical
//! journal/alert output across reruns.

use std::collections::BTreeMap;

use proptest::prelude::*;

use mlscore_sched::paper_backends;
use mlscore_serve::{
    ArrivalProcess, ClassSlo, CoalesceConfig, JournalKind, ModelCatalog, ObserveConfig,
    QueueConfig, ServeConfig, ServeEngine, ShedPolicy, WorkloadSpec,
};
use mlscore_sim::{SimDuration, SimInstant};
use mlscore_telemetry::{Histogram, TimeSeriesRecorder, Tracer};

/// One synthetic series event (no busy time: float-sum order would make
/// exact equality too strong; busy smearing has its own deterministic
/// test below).
#[derive(Debug, Clone)]
enum Ev {
    Arrival {
        t: f64,
        interactive: bool,
    },
    Completion {
        t: f64,
        interactive: bool,
        latency_ms: f64,
        violated: bool,
    },
    Shed {
        t: f64,
        interactive: bool,
    },
    Depth {
        t: f64,
        depth: u64,
    },
}

impl Ev {
    fn apply(&self, rec: &mut TimeSeriesRecorder) {
        let class = |i: bool| if i { "interactive" } else { "analytical" };
        match *self {
            Ev::Arrival { t, interactive } => {
                rec.record_arrival(SimInstant::from_secs(t), class(interactive));
            }
            Ev::Completion {
                t,
                interactive,
                latency_ms,
                violated,
            } => rec.record_completion(
                SimInstant::from_secs(t),
                class(interactive),
                SimDuration::from_millis(latency_ms),
                violated,
            ),
            Ev::Shed { t, interactive } => {
                rec.record_shed(SimInstant::from_secs(t), class(interactive));
            }
            Ev::Depth { t, depth } => rec.record_queue_depth(SimInstant::from_secs(t), depth),
        }
    }
}

fn arb_event() -> impl Strategy<Value = Ev> {
    let t = 0.0f64..8.0;
    prop_oneof![
        (t.clone(), any::<bool>()).prop_map(|(t, interactive)| Ev::Arrival { t, interactive }),
        (t.clone(), any::<bool>(), 0.01f64..500.0, any::<bool>()).prop_map(
            |(t, interactive, latency_ms, violated)| Ev::Completion {
                t,
                interactive,
                latency_ms,
                violated,
            }
        ),
        (t.clone(), any::<bool>()).prop_map(|(t, interactive)| Ev::Shed { t, interactive }),
        (t, 0u64..64).prop_map(|(t, depth)| Ev::Depth { t, depth }),
    ]
}

fn record_all(window: SimDuration, events: &[Ev]) -> TimeSeriesRecorder {
    let mut rec = TimeSeriesRecorder::new(window);
    for ev in events {
        ev.apply(&mut rec);
    }
    rec
}

fn serve_spec(queries: usize, seed: u64, rate_qps: f64) -> WorkloadSpec {
    WorkloadSpec {
        queries,
        seed,
        arrivals: ArrivalProcess::OpenPoisson { rate_qps },
    }
}

/// An overload-ish engine so journals exercise shed paths too.
fn engine(capacity: Option<usize>, shed: ShedPolicy, coalesce: bool) -> ServeEngine {
    ServeEngine::new(
        paper_backends(),
        ModelCatalog::paper_mix(),
        ServeConfig {
            queue: QueueConfig {
                capacity,
                shed,
                interactive: ClassSlo {
                    latency_slo: Some(SimDuration::from_millis(50.0)),
                    ..ClassSlo::default()
                },
                analytical: ClassSlo {
                    latency_slo: Some(SimDuration::from_secs(2.0)),
                    ..ClassSlo::default()
                },
            },
            coalesce: CoalesceConfig {
                enabled: coalesce,
                ..CoalesceConfig::default()
            },
            observe: ObserveConfig::default(),
            ..ServeConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// With an integer-second window every edge instant `k * w` is exactly
    /// representable, so the half-open `[k*w, (k+1)*w)` semantics is exact:
    /// an event precisely on the edge opens window `k`, and the midpoint
    /// of the previous window stays in `k - 1`.
    #[test]
    fn edge_events_open_the_new_window(
        window_secs in 1u64..10,
        k in 0u64..1_000,
    ) {
        let w = SimDuration::from_secs(window_secs as f64);
        let rec = TimeSeriesRecorder::new(w);
        let edge = rec.window_start(k);
        prop_assert_eq!(rec.window_index(edge), k);
        let mut rec = rec;
        rec.record_completion(edge, "interactive", SimDuration::from_millis(1.0), false);
        let touched: Vec<u64> = rec.windows().map(|(i, _)| i).collect();
        prop_assert_eq!(touched, vec![k]);
        if k > 0 {
            // Half a window before the edge: exactly representable too
            // (integer-seconds window halves without rounding).
            let inside_prev = SimInstant::from_secs(edge.as_secs() - window_secs as f64 * 0.5);
            prop_assert_eq!(rec.window_index(inside_prev), k - 1);
        }
    }

    /// Every event lands in exactly one window — even for adversarial
    /// float instants sitting on (or a rounding error away from) an edge —
    /// and window assignment is monotone in time.
    #[test]
    fn events_land_in_exactly_one_window(
        window_ms in 1u64..500,
        events in proptest::collection::vec(arb_event(), 1..80),
        edge_multiples in proptest::collection::vec(0u64..1_000, 0..20),
    ) {
        let w = SimDuration::from_millis(window_ms as f64);
        let mut all = events;
        // Adversarial edges: `k * w` products that float rounding may pin
        // to either side of the boundary. Whichever side they land on,
        // they must be counted exactly once.
        for k in edge_multiples {
            all.push(Ev::Completion {
                t: w.as_secs() * k as f64,
                interactive: true,
                latency_ms: 1.0,
                violated: false,
            });
        }
        let rec = record_all(w, &all);
        let completions: u64 = rec.windows().map(|(_, win)| win.completions()).sum();
        let arrivals: u64 = rec.windows().map(|(_, win)| win.arrivals).sum();
        let shed: u64 = rec.windows().map(|(_, win)| win.shed()).sum();
        let want = |f: &dyn Fn(&Ev) -> bool| all.iter().filter(|e| f(e)).count() as u64;
        prop_assert_eq!(completions, want(&|e| matches!(e, Ev::Completion { .. })));
        prop_assert_eq!(arrivals, want(&|e| matches!(e, Ev::Arrival { .. })));
        prop_assert_eq!(shed, want(&|e| matches!(e, Ev::Shed { .. })));
        // Monotone: sorting instants sorts their window indices.
        let mut instants: Vec<f64> = all
            .iter()
            .map(|e| match *e {
                Ev::Arrival { t, .. }
                | Ev::Completion { t, .. }
                | Ev::Shed { t, .. }
                | Ev::Depth { t, .. } => t,
            })
            .collect();
        instants.sort_by(f64::total_cmp);
        let indices: Vec<u64> = instants
            .iter()
            .map(|&t| rec.window_index(SimInstant::from_secs(t)))
            .collect();
        prop_assert!(indices.windows(2).all(|p| p[0] <= p[1]));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Refolding the journal's `completed` entries reproduces the engine's
    /// latency histograms bit-exactly — overall and per class — and the
    /// journal's lifecycle counts match the report's conservation
    /// counters.
    #[test]
    fn journal_reconstructs_engine_latencies_bit_exactly(
        queries in 1usize..60,
        seed in 0u64..1 << 16,
        rate_qps in 100.0f64..4_000.0,
        capacity in prop_oneof![Just(None::<usize>), (1usize..24).prop_map(Some)],
        drop_oldest in any::<bool>(),
        coalesce in any::<bool>(),
    ) {
        let shed = if drop_oldest { ShedPolicy::DropOldest } else { ShedPolicy::RejectNew };
        let report = engine(capacity, shed, coalesce)
            .run(&serve_spec(queries, seed, rate_qps), &Tracer::disabled())
            .unwrap();
        let mut overall = Histogram::new();
        let mut by_class: BTreeMap<String, Histogram> = BTreeMap::new();
        let mut arrival_class: BTreeMap<u64, String> = BTreeMap::new();
        let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
        for entry in report.journal.entries() {
            *counts.entry(entry.kind.name()).or_insert(0) += 1;
            match &entry.kind {
                JournalKind::Arrival { class, .. } => {
                    arrival_class.insert(entry.id, class.name().to_string());
                }
                JournalKind::Completed { latency, .. } => {
                    overall.record(*latency);
                    let class = arrival_class.get(&entry.id).unwrap().clone();
                    by_class.entry(class).or_default().record(*latency);
                }
                _ => {}
            }
        }
        // Bit-exact: same records folded in the same order.
        prop_assert_eq!(&overall, &report.latency);
        for cr in &report.classes {
            let refolded = by_class.remove(cr.class.name()).unwrap_or_default();
            prop_assert_eq!(&refolded, &cr.latency);
        }
        // Lifecycle counts tie back to the conservation counters.
        let count = |k: &str| counts.get(k).copied().unwrap_or(0);
        prop_assert_eq!(count("arrival"), report.offered);
        prop_assert_eq!(count("admitted"), report.admitted);
        prop_assert_eq!(count("completed"), report.completed);
        prop_assert_eq!(count("shed"), report.shed() + report.unservable);
        prop_assert_eq!(count("dispatched"), report.completed);
        // The series saw the same totals the report counted.
        let series_completions: u64 =
            report.series.windows().map(|(_, w)| w.completions()).sum();
        prop_assert_eq!(series_completions, report.completed);
        // Every alert the monitor raised names a real budget burn.
        for alert in &report.alerts {
            prop_assert!(alert.attainment < 0.99);
            prop_assert!(alert.burn_rate > 2.0);
        }
    }

    /// The journal (and its JSONL rendering, alerts included) is
    /// byte-identical across reruns of the same `(spec, config)`.
    #[test]
    fn journal_jsonl_is_byte_identical_across_reruns(
        queries in 1usize..50,
        seed in 0u64..1 << 16,
        rate_qps in 100.0f64..4_000.0,
    ) {
        let spec = serve_spec(queries, seed, rate_qps);
        let a = engine(Some(16), ShedPolicy::RejectNew, true)
            .run(&spec, &Tracer::disabled())
            .unwrap();
        let b = engine(Some(16), ShedPolicy::RejectNew, true)
            .run(&spec, &Tracer::disabled())
            .unwrap();
        prop_assert_eq!(a.journal.to_jsonl(), b.journal.to_jsonl());
        prop_assert_eq!(&a.alerts, &b.alerts);
    }
}

/// Busy time recorded across several windows is smeared, not duplicated:
/// the per-window slices sum back to the full duration.
#[test]
fn busy_time_smears_across_windows_without_loss() {
    let mut rec = TimeSeriesRecorder::new(SimDuration::from_millis(100.0));
    // 0.25 s of busy time starting at 0.05 s: covers windows 0..=3.
    rec.record_busy(
        "FPGA",
        SimInstant::from_secs(0.05),
        SimDuration::from_secs(0.25),
    );
    let total: f64 = rec
        .windows()
        .flat_map(|(_, w)| w.busy.values())
        .map(|d| d.as_secs())
        .sum();
    assert!((total - 0.25).abs() < 1e-12, "smeared busy sums to {total}");
    assert_eq!(rec.len(), 3, "0.05..0.30 touches windows 0, 1, 2");
}
