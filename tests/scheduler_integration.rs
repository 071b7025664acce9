//! Scheduler integration: policies over the full paper grid, the Fig. 1
//! narrative expressed as assertions on the oracle's decisions, and pins on
//! the trace replay `repro scheduler` prints.

use std::collections::BTreeMap;

use mlscore_backend::ScoringBackend;
use mlscore_core::calibration::{paper_model, RECORD_SWEEP, TREE_SWEEP};
use mlscore_data::DatasetSpec;
use mlscore_forest::ModelStats;
use mlscore_sched::{
    evaluate_policy, paper_backends, replay, AdaptiveScheduler, AffineFitPolicy, HeuristicPolicy,
    OraclePolicy, Policy, QueryTrace,
};
use mlscore_sim::{SimDuration, SimInstant};
use mlscore_telemetry::Tracer;

fn paper_grid() -> Vec<(ModelStats, u64)> {
    let mut grid = Vec::new();
    for dataset in DatasetSpec::all() {
        for &trees in &TREE_SWEEP {
            let stats = ModelStats::of(&paper_model(dataset, trees, 10));
            for &n in &RECORD_SWEEP {
                grid.push((stats, n));
            }
        }
    }
    grid
}

#[test]
fn oracle_decisions_partition_like_fig1() {
    // Fig. 1: CPU in the top (small-data) region, GPU bottom-left (simple
    // models, big data), FPGA bottom-right (complex models, big data).
    let backends = paper_backends();
    let mut cpu_cells = 0;
    let mut gpu_cells = 0;
    let mut fpga_cells = 0;
    for (stats, n) in paper_grid() {
        let c = OraclePolicy.choose(&stats, n, &backends).unwrap();
        if c.name.starts_with("CPU") {
            cpu_cells += 1;
            assert!(
                n <= 100_000,
                "CPU should not win huge batches ({} trees, {n} records)",
                stats.n_trees
            );
        } else if c.name.starts_with("GPU") {
            gpu_cells += 1;
        } else {
            fpga_cells += 1;
            assert!(
                n >= 1_000,
                "FPGA should not win tiny batches ({} trees, {n} records)",
                stats.n_trees
            );
        }
    }
    assert!(cpu_cells > 0, "some cells must stay on the CPU");
    assert!(gpu_cells > 0, "some cells must go to the GPU");
    assert!(fpga_cells > 0, "some cells must go to the FPGA");
    // The small-data region dominates the grid (5 of 7 sweep decades are
    // below the crossovers).
    assert!(cpu_cells > fpga_cells);
}

#[test]
fn policies_rank_oracle_heuristic_affine() {
    let backends = paper_backends();
    let grid = paper_grid();
    let oracle = evaluate_policy(&OraclePolicy, &grid, &backends);
    let heuristic = evaluate_policy(&HeuristicPolicy::default(), &grid, &backends);
    let affine = evaluate_policy(&AffineFitPolicy::default(), &grid, &backends);
    assert_eq!(oracle.mean_factor, 1.0);
    assert!(heuristic.mean_factor >= 1.0);
    assert!(affine.mean_factor >= 1.0);
    // The affine fit probes the real cost models, so it should track the
    // oracle more closely than a static threshold rule on average.
    assert!(
        affine.mean_factor <= heuristic.mean_factor + 0.25,
        "affine {} vs heuristic {}",
        affine.mean_factor,
        heuristic.mean_factor
    );
}

#[test]
fn heuristic_agreement_is_high_on_the_paper_grid() {
    let backends = paper_backends();
    let grid = paper_grid();
    let heuristic = evaluate_policy(&HeuristicPolicy::default(), &grid, &backends);
    assert!(
        heuristic.agreement() > 0.5,
        "heuristic agreement {}",
        heuristic.agreement()
    );
    assert!(
        heuristic.worst_factor < 50.0,
        "heuristic worst-case {}x",
        heuristic.worst_factor
    );
}

#[test]
fn oracle_respects_support_constraints_across_grid() {
    // Deep models exclude the FPGA; multi-class excludes RAPIDS; the oracle
    // must still produce a valid choice everywhere.
    let backends = paper_backends();
    for depth in [11usize, 14] {
        for dataset in DatasetSpec::all() {
            let stats = ModelStats::of(&paper_model(dataset, 64, depth));
            for &n in &RECORD_SWEEP {
                let c = OraclePolicy.choose(&stats, n, &backends).unwrap();
                assert_ne!(c.name, "FPGA", "depth {depth} must exclude the FPGA");
            }
        }
    }
}

#[test]
fn choices_are_stable_across_repeated_evaluation() {
    let backends = paper_backends();
    let stats = ModelStats::of(&paper_model(DatasetSpec::Higgs, 128, 10));
    let a = OraclePolicy.choose(&stats, 123_456, &backends).unwrap();
    let b = OraclePolicy.choose(&stats, 123_456, &backends).unwrap();
    assert_eq!(a, b);
}

/// The exact replay totals (f64 bits) and pick maps of the 200-query,
/// seed-42 synthetic trace that `repro scheduler` renders, per policy; the
/// adaptive row is the learner's second pass over the trace.
#[test]
fn trace_replay_totals_and_picks_are_pinned() {
    let backends = paper_backends();
    let trace = QueryTrace::synthetic(200, 42);
    let mut adaptive = AdaptiveScheduler::new(0.4);
    replay(&mut adaptive, &trace, &backends);
    let outcomes = [
        replay(&mut OraclePolicy, &trace, &backends),
        replay(&mut HeuristicPolicy::default(), &trace, &backends),
        replay(&mut AffineFitPolicy::default(), &trace, &backends),
        replay(&mut adaptive, &trace, &backends),
    ];
    type PickCounts = &'static [(&'static str, usize)];
    let expected: [(&str, u64, PickCounts); 4] = [
        (
            "oracle",
            0x3fd4_7e33_9d3c_d305,
            &[
                ("CPU_ONNX", 89),
                ("CPU_ONNX_52th", 6),
                ("CPU_SKLearn_52th", 22),
                ("FPGA", 80),
                ("GPU-HB", 3),
            ],
        ),
        (
            "static-heuristic",
            0x3fd5_b41e_166d_4da1,
            &[
                ("CPU_ONNX", 89),
                ("CPU_ONNX_52th", 12),
                ("CPU_SKLearn_52th", 15),
                ("FPGA", 64),
                ("GPU-HB", 20),
            ],
        ),
        (
            "affine-fit",
            0x3fd4_7e33_9d3c_d305,
            &[
                ("CPU_ONNX", 89),
                ("CPU_ONNX_52th", 6),
                ("CPU_SKLearn_52th", 22),
                ("FPGA", 80),
                ("GPU-HB", 3),
            ],
        ),
        (
            "adaptive",
            0x4000_d0c5_6b13_ab15,
            &[
                ("CPU_ONNX", 34),
                ("CPU_ONNX_52th", 25),
                ("CPU_SKLearn_52th", 52),
                ("FPGA", 53),
                ("GPU-HB", 33),
                ("GPU-RAPIDS", 3),
            ],
        ),
    ];
    for (outcome, (policy, total_bits, picks)) in outcomes.iter().zip(expected) {
        assert_eq!(outcome.policy, policy);
        assert_eq!(
            outcome.total.as_secs().to_bits(),
            total_bits,
            "{policy} total {}",
            outcome.total.as_secs()
        );
        let picks: BTreeMap<String, usize> =
            picks.iter().map(|&(n, c)| (n.to_string(), c)).collect();
        assert_eq!(outcome.picks, picks, "{policy} picks");
        assert_eq!(outcome.latencies.len(), 200);
    }
}

fn modelled(backend: &dyn ScoringBackend, stats: &ModelStats, n: u64) -> SimDuration {
    backend
        .estimate(stats, n, &Tracer::disabled(), SimInstant::ZERO)
        .total()
}

/// A pick: backend index and predicted time.
type Pick = Option<(usize, SimDuration)>;

/// A brute-force argmin: the first backend that supports the model, passes
/// `eligible`, and has a strictly smaller cost than every earlier one.
fn brute_argmin(
    stats: &ModelStats,
    backends: &[Box<dyn ScoringBackend>],
    eligible: impl Fn(&str) -> bool,
    cost: impl Fn(&dyn ScoringBackend) -> SimDuration,
) -> Pick {
    let mut best: Pick = None;
    for (i, b) in backends.iter().enumerate() {
        if b.supports(stats).is_err() || !eligible(b.name()) {
            continue;
        }
        let c = cost(b.as_ref());
        if best.is_none_or(|(_, best_cost)| c < best_cost) {
            best = Some((i, c));
        }
    }
    best
}

/// Each fixed policy picks the brute-force argmin of its own cost, with
/// ties going to the lowest index — checked on the paper grid plus deep
/// models the FPGA rejects, over the paper roster and over the roster
/// listed twice (every backend tied with its copy, so every pick must land
/// in the first half).
#[test]
fn fixed_policies_pick_the_brute_force_argmin_of_their_cost() {
    let single = paper_backends();
    let doubled: Vec<Box<dyn ScoringBackend>> = paper_backends()
        .into_iter()
        .chain(paper_backends())
        .collect();
    let mut grid = paper_grid();
    for dataset in DatasetSpec::all() {
        let stats = ModelStats::of(&paper_model(dataset, 64, 11));
        grid.extend(RECORD_SWEEP.iter().map(|&n| (stats, n)));
    }
    let heuristic = HeuristicPolicy::default();
    let affine = AffineFitPolicy::default();
    for backends in [&single, &doubled] {
        for &(stats, n) in &grid {
            let oracle = brute_argmin(&stats, backends, |_| true, |b| modelled(b, &stats, n));
            let is_cpu = |name: &str| name.starts_with("CPU");
            let is_gpu = |name: &str| name.starts_with("GPU");
            let is_fpga = |name: &str| name == "FPGA";
            let kinds: [&dyn Fn(&str) -> bool; 3] = if n < heuristic.cpu_max_records {
                [&is_cpu, &is_fpga, &is_gpu]
            } else if stats.n_trees <= heuristic.simple_max_trees {
                [&is_gpu, &is_fpga, &is_cpu]
            } else {
                [&is_fpga, &is_gpu, &is_cpu]
            };
            let static_rule = kinds
                .iter()
                .find_map(|kind| brute_argmin(&stats, backends, kind, |b| modelled(b, &stats, n)));
            let fitted = brute_argmin(
                &stats,
                backends,
                |_| true,
                |b| {
                    let t0 = modelled(b, &stats, affine.probe_small).as_secs();
                    let t1 = modelled(b, &stats, affine.probe_large).as_secs();
                    let slope = (t1 - t0) / (affine.probe_large - affine.probe_small) as f64;
                    let t = t0 + slope * n.saturating_sub(affine.probe_small) as f64;
                    SimDuration::from_secs(t.max(0.0))
                },
            );
            let policies: [(&dyn Policy, Pick); 3] = [
                (&OraclePolicy, oracle),
                (&heuristic, static_rule),
                (&affine, fitted),
            ];
            for (policy, expected) in policies {
                let pick = policy
                    .choose(&stats, n, backends)
                    .map(|c| (c.index, c.predicted));
                assert_eq!(
                    pick,
                    expected,
                    "{} at {} trees, depth {}, {n} records, {} backends",
                    policy.name(),
                    stats.n_trees,
                    stats.max_depth,
                    backends.len()
                );
                assert!(pick.is_some_and(|(i, _)| i < single.len()));
            }
        }
    }
}
