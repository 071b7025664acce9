//! Query-mix simulation: replay a heavy-tailed trace of mixed scoring
//! queries through every scheduling policy and compare makespan, latency
//! percentiles, and backend placement — the capacity-planning view of
//! Fig. 1's "the decision must be dynamic" argument.
//!
//! ```text
//! cargo run --release --example query_mix_simulator -- [n_queries] [seed]
//! ```

use std::collections::BTreeMap;

use mlscore::backend::ScoringBackend;
use mlscore::sim::SimDuration;
use mlscore_sched::{
    paper_backends, replay_adaptive, AdaptiveScheduler, AffineFitPolicy, HeuristicPolicy,
    OraclePolicy, Policy, QueryTrace, TraceOutcome,
};
use mlscore_sim::SimInstant;
use mlscore_telemetry::Tracer;

/// Serial fixed-policy replay: each trace query is charged the modelled
/// time of the backend the policy picks. (`repro serve` layers queueing,
/// coalescing, and device contention on top of this simple loop.)
fn replay_policy(
    policy: &dyn Policy,
    trace: &QueryTrace,
    backends: &[Box<dyn ScoringBackend>],
) -> TraceOutcome {
    let mut total = SimDuration::ZERO;
    let mut latencies = Vec::with_capacity(trace.len());
    let mut picks: BTreeMap<String, usize> = BTreeMap::new();
    for q in trace.queries() {
        let choice = policy
            .choose(&q.stats, q.n_records, backends)
            .expect("every trace query has a supporting backend");
        let latency = backends[choice.index]
            .estimate(&q.stats, q.n_records, &Tracer::disabled(), SimInstant::ZERO)
            .total();
        total += latency;
        latencies.push(latency);
        *picks.entry(choice.name).or_default() += 1;
    }
    TraceOutcome {
        policy: policy.name().to_string(),
        total,
        latencies,
        picks,
    }
}

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

    let policies: [&dyn Policy; 3] = [
        &OraclePolicy,
        &HeuristicPolicy::default(),
        &AffineFitPolicy::default(),
    ];
    let mut outcomes = Vec::new();
    for p in policies {
        outcomes.push(replay_policy(p, &trace, &backends));
    }
    let mut adaptive = AdaptiveScheduler::new(0.4);
    // Warm the learner on one pass, then report the learned behaviour.
    replay_adaptive(&mut adaptive, &trace, &backends);
    outcomes.push(replay_adaptive(&mut adaptive, &trace, &backends));

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
