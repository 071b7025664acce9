//! Offload advisor: given a model shape and batch size, report what every
//! backend would cost, what the scheduling policies pick, and the Fig. 6
//! offload decomposition plus LogCA break-even analysis for the FPGA.
//!
//! ```text
//! cargo run --release --example offload_advisor -- [trees] [depth] [features] [records]
//! cargo run --release --example offload_advisor -- 128 10 28 1000000
//! ```

use mlscore::prelude::*;
use mlscore_offload::{LogCa, OffloadSummary};
use mlscore_sched::{paper_backends, AffineFitPolicy, HeuristicPolicy, OraclePolicy, Policy};

fn arg(n: usize, default: u64) -> u64 {
    std::env::args()
        .nth(n)
        .and_then(|s| s.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let n_trees = arg(1, 128) as usize;
    let depth = (arg(2, 10) as usize).min(24);
    let n_features = arg(3, 28) as usize;
    let n_records = arg(4, 1_000_000);

    let forest = RandomForest::synthetic_full(
        &ForestConfig::classification(n_trees, n_features, 2).with_depth(depth),
        1,
    );
    let stats = ModelStats::of(&forest);
    println!(
        "model: {n_trees} trees x {depth} levels, {n_features} features, {} nodes; batch {n_records} records\n",
        stats.total_nodes
    );

    let backends = paper_backends();
    println!("{:<18} {:>14}", "backend", "modelled time");
    let mut cpu_best: Option<(String, SimDuration)> = None;
    let mut fpga_breakdown: Option<TimingBreakdown> = None;
    for b in &backends {
        match b.supports(&stats) {
            Ok(()) => {
                let breakdown =
                    b.estimate(&stats, n_records, &Tracer::disabled(), SimInstant::ZERO);
                println!("{:<18} {:>14}", b.name(), breakdown.total().to_string());
                if b.name().starts_with("CPU")
                    && cpu_best
                        .as_ref()
                        .is_none_or(|(_, t)| breakdown.total() < *t)
                {
                    cpu_best = Some((b.name().to_string(), breakdown.total()));
                }
                if b.name() == "FPGA" {
                    fpga_breakdown = Some(breakdown);
                }
            }
            Err(e) => println!("{:<18} {:>14}  ({e})", b.name(), "unsupported"),
        }
    }

    println!("\npolicy decisions:");
    let policies: [&dyn Policy; 3] = [
        &OraclePolicy,
        &HeuristicPolicy::default(),
        &AffineFitPolicy::default(),
    ];
    for p in policies {
        match p.choose(&stats, n_records, &backends) {
            Some(c) => println!(
                "  {:<16} -> {:<16} (predicted {})",
                p.name(),
                c.name,
                c.predicted
            ),
            None => println!("  {:<16} -> no supported backend", p.name()),
        }
    }

    if let (Some((cpu_name, cpu_time)), Some(fpga)) = (cpu_best, fpga_breakdown) {
        let summary = OffloadSummary::new(cpu_time, &fpga);
        println!("\nFig. 6 decomposition for the FPGA offload (host = {cpu_name}):");
        println!(
            "  O (overhead) {}   L (transfer) {}   C_A (compute) {}",
            summary.offload.overhead, summary.offload.transfer, summary.offload.compute
        );
        println!(
            "  kernel-only speedup {:.1}x, end-to-end speedup {:.2}x -> {}",
            summary.kernel_speedup(),
            summary.speedup(),
            if summary.beneficial() {
                "offload is worth it"
            } else {
                "offloading would LOSE"
            }
        );

        // LogCA view: per-record granularity analysis.
        let per_record_host = cpu_time / n_records as f64;
        let overhead = summary.offload.overhead + summary.offload.transfer;
        let per_record_accel = summary.offload.compute / n_records as f64;
        if !per_record_accel.is_zero() {
            let model = LogCa::new(
                overhead,
                SimDuration::ZERO,
                per_record_host,
                per_record_host.ratio(per_record_accel),
            );
            match model.break_even() {
                Some(g1) => println!(
                    "  LogCA: break-even at ~{:.0} records, peak speedup {:.1}x",
                    g1,
                    model.peak_speedup()
                ),
                None => println!("  LogCA: this offload never breaks even"),
            }
        }
    }
}
