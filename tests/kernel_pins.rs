//! Stream pins for the topology kernels that do work proportional to
//! what changed: the lazy edge-Markov engine (dense per-edge clock
//! table, flat CSR-aligned edge ids) and sequential geometric mobility
//! (one-pass `MutableGraph::replace_neighbors` rewiring fed by the
//! branch-free `GridIndex::within_radius`).
//!
//! Every expected value was computed with the previous implementations
//! (a SipHash map of clocks, per-node edge-id vectors, per-edge
//! `remove_edge`/`add_edge` mobility diffs, a branching grid scan), so
//! these pins prove the rewrites replay the old streams bit for bit:
//! run time bits, protocol steps, and the bookkeeping counters. The
//! lazy stream was otherwise pinned only by the benchmark digests, and
//! sequential mobility ran only through trace recording.

use rumor_spreading::core::dynamic::{run_dynamic_under, DynamicModel, EdgeMarkov, Mobility};
use rumor_spreading::core::engine::run_edge_markov_lazy;
use rumor_spreading::core::{Mode, RngContract};
use rumor_spreading::graph::{generators, Graph};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

/// The two lazy-engine graphs with their step budgets: a connected
/// G(256, 0.04) run to completion (every edge gets touched), and the
/// 8-cube cut off after 400 steps (only some clocks materialize, so
/// the count-at-creation rule is exercised).
fn lazy_graphs() -> [(Graph, u64); 2] {
    let gnp = generators::gnp_connected(256, 0.04, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    [(gnp, u64::MAX), (generators::hypercube(8), 400)]
}

/// `(graph, seed, time bits, steps, clocks_touched, completed)`.
const LAZY_PINS: [(usize, u64, u64, u64, usize, bool); 6] = [
    (0, 1, 0x4021533afadad029, 2245, 1275, true),
    (0, 2, 0x40205cd5fdf6ee9f, 2133, 1275, true),
    (0, 3, 0x402f6dae81e63774, 3979, 1275, true),
    (1, 1, 0x3ff7cfb09df2cf0d, 400, 975, false),
    (1, 2, 0x3ff7042129fe74bf, 400, 984, false),
    (1, 3, 0x3ff7de80a40255c7, 400, 972, false),
];

/// `(contract, seed, time bits, steps, topology_events, completed)` for
/// mobility on 200 nodes (radius 0.12, step 0.05, unit move rate). V1
/// rewires sorted adjacency, V2 relaxed (insertion-order) adjacency.
const MOBILITY_PINS: [(RngContract, u64, u64, u64, u64, bool); 6] = [
    (RngContract::V1, 1, 0x4028d2cafc407d01, 2494, 2525, true),
    (RngContract::V1, 2, 0x4025e2454d556aff, 2151, 2238, true),
    (RngContract::V1, 3, 0x402595c6f791b2a9, 2165, 2061, true),
    (RngContract::V2, 1, 0x402a571ea69f172d, 2608, 2625, true),
    (RngContract::V2, 2, 0x4026122e72fa07b7, 2237, 2222, true),
    (RngContract::V2, 3, 0x402a7af6dbe86e9f, 2589, 2614, true),
];

#[test]
fn lazy_edge_markov_streams_are_pinned() {
    let graphs = lazy_graphs();
    let model = EdgeMarkov { off_rate: 2.0, on_rate: 1.0 };
    for (gi, seed, time_bits, steps, touched, completed) in LAZY_PINS {
        let (g, budget) = &graphs[gi];
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        let out = run_edge_markov_lazy(g, 0, Mode::PushPull, model, &mut rng, *budget);
        let label = format!("graph {gi} seed {seed}");
        assert_eq!(out.time.to_bits(), time_bits, "{label}: time {}", out.time);
        assert_eq!(out.steps, steps, "{label}");
        assert_eq!(out.clocks_touched, touched, "{label}");
        assert_eq!(out.completed, completed, "{label}");
        assert_eq!(out.base_edges, g.edge_count(), "{label}");
    }
}

#[test]
fn sequential_mobility_streams_are_pinned() {
    // Mobility discards the base topology (it only fixes n).
    let g = generators::cycle(200);
    let model = DynamicModel::Mobility(Mobility::new(1.0, 0.12, 0.05));
    for (contract, seed, time_bits, steps, events, completed) in MOBILITY_PINS {
        let mut rng = Xoshiro256PlusPlus::seed_from(seed);
        let out = run_dynamic_under(contract, &g, 0, Mode::PushPull, &model, &mut rng, 10_000_000);
        let label = format!("{contract:?} seed {seed}");
        assert_eq!(out.time.to_bits(), time_bits, "{label}: time {}", out.time);
        assert_eq!(out.steps, steps, "{label}");
        assert_eq!(out.topology_events, events, "{label}");
        assert_eq!(out.completed, completed, "{label}");
    }
}
