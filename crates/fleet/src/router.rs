//! The router tier: which node gets the next request.
//!
//! Routers see only what a real front-end load balancer would — per-node
//! instantaneous queue depth and whether the target model's compiled
//! artifact is resident on the node ([`NodeView`]) — and return a choice
//! among the currently routable nodes. All randomness is seeded, so a
//! routing sequence is a pure function of `(policy, seed, request
//! stream)`.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What a router may observe about one routable node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeView {
    /// The node's fleet-wide id.
    pub node: usize,
    /// Requests currently waiting in the node's admission queue.
    pub queue_depth: usize,
    /// Whether the target model's compiled artifact is resident in the
    /// node's cache for at least one backend (the affinity signal).
    pub warm: bool,
}

/// A routing policy: picks one of the offered nodes for each request.
pub trait Router {
    /// Stable policy name (bench JSON key).
    fn name(&self) -> &'static str;

    /// Chooses a position in `nodes` (never empty) for a request that
    /// scores `n_records` records of `model`.
    fn route(&mut self, model: usize, n_records: u64, nodes: &[NodeView]) -> usize;
}

/// The built-in routing policies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouterKind {
    /// Cycle through the routable nodes in order — the no-information
    /// baseline.
    RoundRobin,
    /// Send to the node with the shallowest queue (ties to the lowest
    /// node id) — the full-information load baseline.
    LeastLoaded,
    /// Power of two choices: sample two nodes (seeded), keep the
    /// shallower queue. Near-optimal load spread at O(1) state.
    PowerOfTwo,
    /// Rendezvous (highest-random-weight) hashing on `(model, node)`:
    /// every request for a model lands on the same node while that node
    /// lives, maximizing artifact-cache affinity. Node arrivals and
    /// departures only remap the models whose champion changed.
    ConsistentHash,
}

impl RouterKind {
    /// Every built-in policy, in bench shmoo order.
    pub fn all() -> [RouterKind; 4] {
        [
            RouterKind::RoundRobin,
            RouterKind::LeastLoaded,
            RouterKind::PowerOfTwo,
            RouterKind::ConsistentHash,
        ]
    }

    /// Stable policy name (bench JSON key).
    pub fn name(self) -> &'static str {
        match self {
            RouterKind::RoundRobin => "round-robin",
            RouterKind::LeastLoaded => "least-loaded",
            RouterKind::PowerOfTwo => "power-of-two",
            RouterKind::ConsistentHash => "consistent-hash",
        }
    }

    /// Parses a [`RouterKind::name`] back into the policy.
    pub fn parse(name: &str) -> Option<RouterKind> {
        RouterKind::all().into_iter().find(|k| k.name() == name)
    }

    /// Instantiates the policy (the seed only matters for
    /// [`RouterKind::PowerOfTwo`]).
    pub fn build(self, seed: u64) -> Box<dyn Router> {
        match self {
            RouterKind::RoundRobin => Box::new(RoundRobin { next: 0 }),
            RouterKind::LeastLoaded => Box::new(LeastLoaded),
            RouterKind::PowerOfTwo => Box::new(PowerOfTwo {
                rng: StdRng::seed_from_u64(seed ^ 0x9027_0F2C),
            }),
            RouterKind::ConsistentHash => Box::new(ConsistentHash),
        }
    }
}

struct RoundRobin {
    next: usize,
}

impl Router for RoundRobin {
    fn name(&self) -> &'static str {
        "round-robin"
    }

    fn route(&mut self, _model: usize, _n_records: u64, nodes: &[NodeView]) -> usize {
        let pick = self.next % nodes.len().max(1);
        self.next = self.next.wrapping_add(1);
        pick
    }
}

struct LeastLoaded;

impl Router for LeastLoaded {
    fn name(&self) -> &'static str {
        "least-loaded"
    }

    fn route(&mut self, _model: usize, _n_records: u64, nodes: &[NodeView]) -> usize {
        argmin_depth(nodes.iter().enumerate())
    }
}

struct PowerOfTwo {
    rng: StdRng,
}

impl Router for PowerOfTwo {
    fn name(&self) -> &'static str {
        "power-of-two"
    }

    fn route(&mut self, _model: usize, _n_records: u64, nodes: &[NodeView]) -> usize {
        let n = nodes.len().max(1);
        let a = sample_index(&mut self.rng, n);
        let b = sample_index(&mut self.rng, n);
        argmin_depth(nodes.iter().enumerate().filter(|(i, _)| *i == a || *i == b))
    }
}

struct ConsistentHash;

impl Router for ConsistentHash {
    fn name(&self) -> &'static str {
        "consistent-hash"
    }

    fn route(&mut self, model: usize, _n_records: u64, nodes: &[NodeView]) -> usize {
        nodes
            .iter()
            .enumerate()
            .max_by_key(|(_, v)| rendezvous_weight(model, v.node))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }
}

/// The position of the shallowest queue among `candidates` (ties to the
/// lowest node id, so routing never depends on iteration accidents).
fn argmin_depth<'a>(candidates: impl Iterator<Item = (usize, &'a NodeView)>) -> usize {
    candidates
        .min_by_key(|(_, v)| (v.queue_depth, v.node))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// One uniform index draw in `[0, n)`.
fn sample_index(rng: &mut StdRng, n: usize) -> usize {
    let u: f64 = rng.gen();
    ((u * n as f64) as usize).min(n - 1)
}

/// The rendezvous weight of `(model, node)`: a splitmix64 finalizer over
/// the pair, giving every pair an independent uniform weight. The model's
/// champion is the live node with the highest weight.
fn rendezvous_weight(model: usize, node: usize) -> u64 {
    let mut z = (model as u64)
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((node as u64).wrapping_mul(0xBF58_476D_1CE4_E5B9))
        .wrapping_add(0x94D0_49BB_1331_11EB);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn views(depths: &[usize]) -> Vec<NodeView> {
        depths
            .iter()
            .enumerate()
            .map(|(node, &queue_depth)| NodeView {
                node,
                queue_depth,
                warm: false,
            })
            .collect()
    }

    #[test]
    fn round_robin_cycles() {
        let mut r = RouterKind::RoundRobin.build(0);
        let nodes = views(&[5, 0, 9]);
        let picks: Vec<usize> = (0..6).map(|_| r.route(0, 10, &nodes)).collect();
        assert_eq!(picks, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn least_loaded_takes_the_shallowest_queue_ties_to_lowest_id() {
        let mut r = RouterKind::LeastLoaded.build(0);
        assert_eq!(r.route(0, 10, &views(&[4, 1, 3])), 1);
        assert_eq!(r.route(0, 10, &views(&[2, 2, 2])), 0);
    }

    #[test]
    fn power_of_two_is_seeded_and_never_picks_the_deeper_of_its_pair() {
        let nodes = views(&[0, 100, 100, 0]);
        let run = |seed| {
            let mut r = RouterKind::PowerOfTwo.build(seed);
            (0..32).map(|_| r.route(0, 10, &nodes)).collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7), "same seed, same choices");
        // Whenever a shallow node (0 or 3) is in the sampled pair, it wins.
        let mut r = RouterKind::PowerOfTwo.build(7);
        for _ in 0..64 {
            let pick = r.route(0, 10, &nodes);
            assert!(pick < nodes.len());
        }
    }

    #[test]
    fn consistent_hash_is_stable_and_spreads_models() {
        let mut r = RouterKind::ConsistentHash.build(0);
        let nodes = views(&[0, 0, 0, 0]);
        let champions: Vec<usize> = (0..12).map(|m| r.route(m, 10, &nodes)).collect();
        // Same model, same champion, regardless of load.
        let loaded = views(&[50, 50, 50, 50]);
        for (m, &champion) in champions.iter().enumerate() {
            assert_eq!(r.route(m, 10, &loaded), champion);
        }
        // The 12-model paper mix spreads over more than one node.
        let distinct: std::collections::BTreeSet<usize> = champions.iter().copied().collect();
        assert!(distinct.len() > 1, "champions {champions:?}");
    }

    #[test]
    fn consistent_hash_only_remaps_models_whose_champion_left() {
        let mut r = RouterKind::ConsistentHash.build(0);
        let full = views(&[0, 0, 0, 0]);
        // Node 2 leaves: the survivors keep their ids.
        let survivors: Vec<NodeView> = full.iter().copied().filter(|v| v.node != 2).collect();
        for m in 0..12 {
            let before = full[r.route(m, 10, &full)].node;
            let after = survivors[r.route(m, 10, &survivors)].node;
            if before != 2 {
                assert_eq!(before, after, "model {m} must not remap");
            } else {
                assert_ne!(after, 2);
            }
        }
    }

    #[test]
    fn names_round_trip() {
        for kind in RouterKind::all() {
            assert_eq!(RouterKind::parse(kind.name()), Some(kind));
            assert_eq!(kind.build(0).name(), kind.name());
        }
        assert_eq!(RouterKind::parse("nope"), None);
    }
}
