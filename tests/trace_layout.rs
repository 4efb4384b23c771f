//! Layout-independence pins for recorded topology traces.
//!
//! One trace per [`DynamicModel`] variant is recorded under each RNG
//! contract at fixed seeds, and its step count plus an FNV-1a digest of
//! the initial graph and the canonical step stream are pinned. The pins
//! were computed when a trace was still a `Vec` of per-step diff lists
//! recorded on a sorted graph; they hold for the flat column layout and
//! for the order-relaxed v2 recording, so neither changed a realization.

use rumor_spreading::core::dynamic::{
    Adversary, DynamicModel, EdgeMarkov, Mobility, NodeChurn, RandomWalk, Rewire, SnapshotFamily,
};
use rumor_spreading::core::{RngContract, TopologyTrace};
use rumor_spreading::graph::dynamic::GraphChange;
use rumor_spreading::graph::{generators, Graph, Node};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

fn rng(seed: u64) -> Xoshiro256PlusPlus {
    Xoshiro256PlusPlus::seed_from(seed)
}

fn all_models() -> Vec<(&'static str, DynamicModel)> {
    vec![
        ("static", DynamicModel::Static),
        ("markov", DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0))),
        ("rewire", DynamicModel::Rewire(Rewire::new(2.0, SnapshotFamily::Gnp { p: 0.12 }))),
        ("node-churn", DynamicModel::NodeChurn(NodeChurn::new(0.3, 1.0, 2))),
        ("walk", DynamicModel::RandomWalk(RandomWalk::new(1.0))),
        ("mobility", DynamicModel::Mobility(Mobility::new(1.0, 0.3, 0.15))),
        ("adversary", DynamicModel::Adversary(Adversary::new(1.0, 3, 1.0))),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn op(&mut self, tag: u8, nodes: &[Node]) {
        self.bytes(&[tag]);
        for v in nodes {
            self.bytes(&v.to_le_bytes());
        }
    }
}

/// Digest of the initial graph's edges, then of every step: its time
/// bits, its op count, and each op as a tag (0 removed, 1 deactivated,
/// 2 activated, 3 added) plus its nodes, in apply order.
fn digest(trace: &TopologyTrace) -> u64 {
    let mut h = Fnv::new();
    for (u, v) in trace.initial().edges() {
        h.op(4, &[u, v]);
    }
    for step in trace.steps() {
        h.bytes(&step.time.to_bits().to_le_bytes());
        h.bytes(&(step.ops.len() as u32).to_le_bytes());
        for &op in step.ops {
            match op {
                GraphChange::EdgeRemoved(u, v) => h.op(0, &[u, v]),
                GraphChange::NodeDeactivated(v) => h.op(1, &[v]),
                GraphChange::NodeActivated(v) => h.op(2, &[v]),
                GraphChange::EdgeAdded(u, v) => h.op(3, &[u, v]),
            }
        }
    }
    h.0
}

fn base() -> Graph {
    generators::gnp_connected(64, 0.12, &mut rng(1), 100)
}

/// `(model, contract, len, digest)` per recorded trace.
const PINS: [(&str, RngContract, usize, u64); 14] = [
    ("static", RngContract::V1, 0, 0xd2610fca7e316169),
    ("markov", RngContract::V1, 3089, 0x864f3542594801d0),
    ("rewire", RngContract::V1, 6, 0xd81126b899d09467),
    ("node-churn", RngContract::V1, 340, 0xcb3241c1e7cdecc9),
    ("walk", RngContract::V1, 2525, 0x6e360ef5903d8efc),
    ("mobility", RngContract::V1, 719, 0xd3f266457b16fb18),
    ("adversary", RngContract::V1, 52, 0xe0130b0c730feda6),
    ("static", RngContract::V2, 0, 0xd2610fca7e316169),
    ("markov", RngContract::V2, 3150, 0x54556df38e578d0c),
    ("rewire", RngContract::V2, 6, 0xd81126b899d09467),
    ("node-churn", RngContract::V2, 351, 0x4c7d57580f7729ea),
    ("walk", RngContract::V2, 2551, 0x74998285ab762956),
    ("mobility", RngContract::V2, 721, 0x00cad03410e24bfb),
    ("adversary", RngContract::V2, 52, 0xe0130b0c730feda6),
];

#[test]
fn recorded_realizations_match_the_pins() {
    let g = base();
    let mut pins = PINS.iter();
    for contract in [RngContract::V1, RngContract::V2] {
        for (i, (name, model)) in all_models().into_iter().enumerate() {
            let trace = TopologyTrace::record_under(
                contract,
                &g,
                0,
                &model,
                &mut rng(100 + i as u64),
                12.0,
            );
            let &(pin_name, pin_contract, len, hash) = pins.next().expect("one pin per trace");
            assert_eq!((name, contract), (pin_name, pin_contract), "pin table out of order");
            assert_eq!(trace.len(), len, "{name} {contract:?}: step count moved");
            assert_eq!(trace.steps().len(), len, "{name} {contract:?}: step view count");
            assert_eq!(digest(&trace), hash, "{name} {contract:?}: realization moved");
        }
    }
}
