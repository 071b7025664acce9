//! Shape bands for the ablation studies (EXPERIMENTS.md A1–A3, A5–A7 and
//! A10): each claim the document makes about `repro ablations` holds here.

use mlscore_core::ablations;
use mlscore_sim::SimDuration;

/// `actual` within `tol` of `expected`.
fn near(actual: f64, expected: f64, tol: f64) -> bool {
    (actual - expected).abs() <= tol
}

fn ms(d: SimDuration) -> f64 {
    d.as_secs() * 1e3
}

#[test]
fn a1_gen4_nearly_halves_fpga_time_and_gen5_adds_little() {
    let rows = ablations::pcie_sweep();
    let links: Vec<&str> = rows.iter().map(|r| r.link).collect();
    assert_eq!(links, ["gen3 x16", "gen4 x16", "gen5 x16"]);
    let (gen3, gen4, gen5) = (rows[0].fpga_1m, rows[1].fpga_1m, rows[2].fpga_1m);
    assert!(near(ms(gen3), 11.2, 0.05), "gen3 {gen3}");
    assert!(near(ms(gen4), 6.3, 0.05), "gen4 {gen4}");
    assert!(gen5 <= gen4, "gen5 {gen5} slower than gen4 {gen4}");
    assert!(
        gen4.ratio(gen5) < 1.15,
        "gen5 gains {:.3}x over gen4",
        gen4.ratio(gen5)
    );
    for r in &rows {
        assert!(r.speedup_vs_cpu > 1.0, "{}: FPGA loses at 1M", r.link);
        assert!(r.crossover.is_some(), "{}: FPGA never wins", r.link);
    }
}

#[test]
fn a2_ddr_costs_at_least_half_again_on_higgs() {
    let rows = ablations::fpga_memory();
    assert_eq!(rows[0].memory, "BRAM");
    assert_eq!(rows[1].memory, "DDR");
    let (bram, ddr) = (&rows[0], &rows[1]);
    let ratio = ddr.higgs_128t.ratio(bram.higgs_128t);
    assert!(ratio >= 1.5, "DDR/BRAM on HIGGS 128t = {ratio:.2}");
    assert!(ddr.iris_128t > bram.iris_128t);
    assert!(ddr.higgs_1t > bram.higgs_1t);
}

#[test]
fn a3_divergence_penalty_is_about_2_2x_at_depth_10() {
    let g = ablations::gpu_mechanisms();
    let kernel = g.divergence_kernel_ratio();
    assert!(near(kernel, 2.2, 0.05), "kernel ratio {kernel:.3}");
    assert!(near(1.0 / g.analytic_warp_efficiency, 2.2, 0.05));
    assert!(g.rapids.total() > g.rapids_divergence_free.total());
    assert!(g.hummingbird.total() >= g.hummingbird_lean.total());
    assert!(g.measured_lane_activity > 0.0 && g.measured_lane_activity <= 1.0);
}

#[test]
fn a5_fpga_finishes_the_majority_at_depth_14() {
    let rows = ablations::split_depth();
    assert_eq!(
        rows.iter().map(|r| r.depth).collect::<Vec<_>>(),
        [8, 10, 12, 14, 16]
    );
    for r in &rows {
        assert!(r.bit_exact, "split scoring diverged at depth {}", r.depth);
        if r.depth <= 10 {
            assert_eq!(
                (r.fpga_fraction, r.cpu_visits),
                (1.0, 0),
                "depth {}",
                r.depth
            );
        }
    }
    let d14 = &rows[3];
    assert!(d14.fpga_fraction > 0.5, "depth 14: {}", d14.fpga_fraction);
    assert!(d14.cpu_visits > 0, "depth 14 leaves no tail for the CPU");
}

#[test]
fn a6_larger_caches_lift_the_best_gpu_speedup() {
    let rows = ablations::gpu_generations();
    assert_eq!(
        rows.iter().map(|r| r.gpu).collect::<Vec<_>>(),
        ["P100", "V100", "A100"]
    );
    assert!(
        near(rows[0].best_speedup, 5.9, 0.05),
        "P100 {}",
        rows[0].best_speedup
    );
    assert!(
        near(rows[2].best_speedup, 10.2, 0.05),
        "A100 {}",
        rows[2].best_speedup
    );
    assert!(rows[0].best_speedup < rows[1].best_speedup);
    assert!(rows[1].best_speedup < rows[2].best_speedup);
}

#[test]
fn a7_in_engine_scoring_is_23_7x_external_process() {
    let rows = ablations::integration_modes();
    assert_eq!(
        rows.iter().map(|r| r.mode).collect::<Vec<_>>(),
        ["external-process", "resident-runtime", "in-engine"]
    );
    let (external, in_engine) = (&rows[0], &rows[2]);
    assert_eq!(external.speedup_vs_external, 1.0);
    assert!(
        near(external.total.as_secs(), 14.9, 0.05),
        "{}",
        external.total
    );
    assert!(
        near(in_engine.total.as_secs(), 0.63, 0.005),
        "{}",
        in_engine.total
    );
    assert!(
        near(in_engine.speedup_vs_external, 23.7, 0.05),
        "in-engine {:.2}x",
        in_engine.speedup_vs_external
    );
}

#[test]
fn a10_quantization_halves_the_footprint_without_mismatches() {
    let q = ablations::quantized_capacity();
    let mib = |b: usize| b as f64 / (1u64 << 20) as f64;
    assert!(near(mib(q.f32_bytes), 4.0, 0.05), "f32 {} B", q.f32_bytes);
    assert!(
        near(mib(q.quantized_bytes), 2.0, 0.05),
        "quantized {} B",
        q.quantized_bytes
    );
    assert!(q.mismatch_rate < 0.001, "mismatch {}", q.mismatch_rate);
}
