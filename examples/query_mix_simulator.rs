//! Query-mix simulation: replay a heavy-tailed trace of mixed scoring
//! queries through every scheduling policy and compare makespan, latency
//! percentiles, and backend placement — the capacity-planning view of
//! Fig. 1's "the decision must be dynamic" argument.
//!
//! ```text
//! cargo run --release --example query_mix_simulator -- [n_queries] [seed]
//! ```

use mlscore_sched::{
    paper_backends, replay, AdaptiveScheduler, AffineFitPolicy, HeuristicPolicy, OraclePolicy,
    Policy, QueryTrace,
};

fn main() {
    let n: usize = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    let seed: u64 = std::env::args()
        .nth(2)
        .and_then(|s| s.parse().ok())
        .unwrap_or(7);

    let backends = paper_backends();
    let trace = QueryTrace::synthetic(n, seed);
    println!("replaying {n} mixed queries (seed {seed})\n");
    println!(
        "{:<18} {:>12} {:>12} {:>12} {:>12}",
        "policy", "total", "p50", "p95", "p99"
    );

    let policies: [&mut dyn Policy; 3] = [
        &mut OraclePolicy,
        &mut HeuristicPolicy::default(),
        &mut AffineFitPolicy::default(),
    ];
    let mut outcomes = Vec::new();
    for p in policies {
        outcomes.push(replay(p, &trace, &backends));
    }
    let mut adaptive = AdaptiveScheduler::new(0.4);
    // Warm the learner on one pass, then report the learned behaviour.
    replay(&mut adaptive, &trace, &backends);
    outcomes.push(replay(&mut adaptive, &trace, &backends));

    for o in &outcomes {
        println!(
            "{:<18} {:>12} {:>12} {:>12} {:>12}",
            o.policy,
            o.total.to_string(),
            o.percentile(50.0).to_string(),
            o.percentile(95.0).to_string(),
            o.percentile(99.0).to_string(),
        );
    }

    println!("\nbackend placement per policy:");
    for o in &outcomes {
        let mix: Vec<String> = o
            .picks
            .iter()
            .map(|(name, count)| format!("{name}:{count}"))
            .collect();
        println!("  {:<18} {}", o.policy, mix.join("  "));
    }
}
