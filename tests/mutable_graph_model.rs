//! Model-based equivalence of the flat-memory `MutableGraph` (CSR
//! base plus delta overlay plus compaction) against a naive
//! `Vec<Vec<Node>>` reference under random operation sequences.
//!
//! The reference is the pre-refactor representation: per-node sorted
//! adjacency vectors plus activation flags, mutated the obvious way.
//! Every property drives both structures through the same sequence of
//! add/remove/activate/deactivate (and compaction-threshold changes,
//! which must be invisible) and then demands identical observable
//! state — including identical `random_neighbor` selections from the
//! same RNG state, which is the replay contract the golden tests pin.

use proptest::prelude::*;
use rumor_spreading::graph::dynamic::MutableGraph;
use rumor_spreading::graph::{generators, Graph, Node};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;

/// Naive reference model: sorted `Vec<Vec<Node>>` adjacency + flags.
struct Reference {
    adj: Vec<Vec<Node>>,
    active: Vec<bool>,
    edge_count: usize,
}

impl Reference {
    fn from_graph(g: &Graph) -> Self {
        Self {
            adj: g.nodes().map(|v| g.neighbors(v).to_vec()).collect(),
            active: vec![true; g.node_count()],
            edge_count: g.edge_count(),
        }
    }

    fn degree(&self, v: Node) -> usize {
        if self.active[v as usize] {
            self.adj[v as usize].len()
        } else {
            0
        }
    }

    fn neighbors(&self, v: Node) -> &[Node] {
        if self.active[v as usize] {
            &self.adj[v as usize]
        } else {
            &[]
        }
    }

    fn has_edge(&self, u: Node, v: Node) -> bool {
        self.active[u as usize] && self.adj[u as usize].binary_search(&v).is_ok()
    }

    fn add_edge(&mut self, u: Node, v: Node) -> bool {
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => false,
            Err(i) => {
                self.adj[u as usize].insert(i, v);
                let j = self.adj[v as usize].binary_search(&u).unwrap_err();
                self.adj[v as usize].insert(j, u);
                self.edge_count += 1;
                true
            }
        }
    }

    fn remove_edge(&mut self, u: Node, v: Node) -> bool {
        match self.adj[u as usize].binary_search(&v) {
            Err(_) => false,
            Ok(i) => {
                self.adj[u as usize].remove(i);
                let j = self.adj[v as usize].binary_search(&u).expect("symmetric");
                self.adj[v as usize].remove(j);
                self.edge_count -= 1;
                true
            }
        }
    }

    fn deactivate(&mut self, v: Node) -> usize {
        if !self.active[v as usize] {
            return 0;
        }
        let nbrs = std::mem::take(&mut self.adj[v as usize]);
        for &w in &nbrs {
            let j = self.adj[w as usize].binary_search(&v).expect("symmetric");
            self.adj[w as usize].remove(j);
        }
        self.edge_count -= nbrs.len();
        self.active[v as usize] = false;
        nbrs.len()
    }

    fn activate(&mut self, v: Node) {
        self.active[v as usize] = true;
    }

    /// The reference neighbor draw: one `range_usize(deg)` selecting
    /// the k-th sorted neighbor — what the CSR graph does, and what the
    /// overlay graph must reproduce exactly.
    fn random_neighbor(&self, v: Node, rng: &mut Xoshiro256PlusPlus) -> Node {
        let nbrs = &self.adj[v as usize];
        nbrs[rng.range_usize(nbrs.len())]
    }
}

/// One random mutation; fields are interpreted modulo the node count.
#[derive(Debug, Clone, Copy)]
enum Op {
    Add(usize, usize),
    Remove(usize, usize),
    Deactivate(usize),
    Activate(usize),
    /// Re-tune compaction: 0 = always, 1 = default-ish, 2 = never.
    Threshold(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    (0usize..8, 0usize..64, 0usize..64).prop_map(|(kind, a, b)| match kind {
        0..=2 => Op::Add(a, b),
        3..=4 => Op::Remove(a, b),
        5 => Op::Deactivate(a),
        6 => Op::Activate(a),
        _ => Op::Threshold(a % 3),
    })
}

fn apply_op(net: &mut MutableGraph, reference: &mut Reference, op: Op, n: usize) {
    match op {
        Op::Add(a, b) => {
            let (u, v) = ((a % n) as Node, (b % n) as Node);
            if u != v && reference.active[u as usize] && reference.active[v as usize] {
                assert_eq!(net.add_edge(u, v), reference.add_edge(u, v), "add ({u}, {v})");
            }
        }
        Op::Remove(a, b) => {
            let (u, v) = ((a % n) as Node, (b % n) as Node);
            if u != v {
                assert_eq!(net.remove_edge(u, v), reference.remove_edge(u, v), "remove ({u}, {v})");
            }
        }
        Op::Deactivate(a) => {
            let v = (a % n) as Node;
            assert_eq!(net.deactivate(v), reference.deactivate(v), "deactivate {v}");
        }
        Op::Activate(a) => {
            let v = (a % n) as Node;
            net.activate(v);
            reference.activate(v);
        }
        Op::Threshold(which) => {
            net.set_compaction_threshold(match which {
                0 => 0,
                1 => 32,
                _ => usize::MAX,
            });
        }
    }
}

fn assert_equivalent(net: &MutableGraph, reference: &Reference, n: usize) {
    assert_eq!(net.edge_count(), reference.edge_count, "edge count");
    for v in 0..n as Node {
        assert_eq!(net.is_active(v), reference.active[v as usize], "active {v}");
        assert_eq!(net.degree(v), reference.degree(v), "degree {v}");
        assert_eq!(net.neighbors(v), reference.neighbors(v), "neighbors {v}");
        for w in 0..n as Node {
            assert_eq!(net.has_edge(v, w), reference.has_edge(v, w), "has_edge ({v}, {w})");
        }
    }
}

/// The replay contract: from the same RNG state, both structures must
/// consume one draw per call and select the identical neighbor.
fn assert_identical_draws(net: &MutableGraph, reference: &Reference, n: usize, seed: u64) {
    let mut a = Xoshiro256PlusPlus::seed_from(seed);
    let mut b = Xoshiro256PlusPlus::seed_from(seed);
    for v in 0..n as Node {
        if net.degree(v) == 0 {
            continue;
        }
        for _ in 0..8 {
            assert_eq!(
                net.random_neighbor(v, &mut a),
                reference.random_neighbor(v, &mut b),
                "draw at {v}"
            );
        }
    }
    assert_eq!(a.next_u64(), b.next_u64(), "RNG streams diverged");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Overlay graph == naive model after any operation sequence
    /// starting from a connected G(n, p) snapshot, at every compaction
    /// tuning the sequence visits.
    #[test]
    fn overlay_matches_reference_from_snapshot(
        n in 8usize..24,
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(), 0..120),
    ) {
        let p = 2.5 * (n as f64).ln() / n as f64;
        let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(seed), 200);
        let mut net = MutableGraph::from_graph(&g);
        let mut reference = Reference::from_graph(&g);
        for &op in &ops {
            apply_op(&mut net, &mut reference, op, n);
        }
        assert_equivalent(&net, &reference, n);
        assert_identical_draws(&net, &reference, n, seed ^ 0xD1CE);
        // Freezing to CSR agrees with the reference too.
        let frozen = net.to_graph();
        for v in 0..n as Node {
            prop_assert_eq!(frozen.neighbors(v), reference.neighbors(v));
        }
    }

    /// Same equivalence starting from an edgeless graph (`empty` is the
    /// construction path the node-churn bugfix regression lives on).
    #[test]
    fn overlay_matches_reference_from_empty(
        n in 4usize..16,
        seed in 0u64..1_000,
        ops in proptest::collection::vec(op_strategy(), 0..160),
    ) {
        let mut net = MutableGraph::empty(n);
        let mut reference = Reference {
            adj: vec![Vec::new(); n],
            active: vec![true; n],
            edge_count: 0,
        };
        for &op in &ops {
            apply_op(&mut net, &mut reference, op, n);
        }
        assert_equivalent(&net, &reference, n);
        assert_identical_draws(&net, &reference, n, seed ^ 0xBEEF);
    }
}

// ---- one-pass rewiring --------------------------------------------------

/// The per-edge sequence `replace_neighbors(v, new)` must be equivalent
/// to: remove every current neighbor not in `new` (in current row
/// order), then add every entry of `new` (a no-op where present).
fn rewire_per_edge(net: &mut MutableGraph, v: Node, new: &[Node]) {
    let old = net.neighbors(v).to_vec();
    for &w in old.iter().filter(|w| !new.contains(w)) {
        net.remove_edge(v, w);
    }
    for &w in new {
        net.add_edge(v, w);
    }
}

/// A random ascending target set for `v`: each other active node joins
/// with probability `density / 8`.
fn random_targets(
    net: &MutableGraph,
    v: Node,
    density: u64,
    rng: &mut Xoshiro256PlusPlus,
) -> Vec<Node> {
    (0..net.node_count() as Node)
        .filter(|&w| w != v && net.is_active(w) && (rng.next_u64() % 8) < density)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// `replace_neighbors` is observably identical to the per-edge
    /// remove/add sequence on a clone — every row (order included),
    /// `edge_count`, the change journal, and later neighbor draws — in
    /// sorted and relaxed mode, at compaction thresholds 0, 64, and the
    /// default, with inactive nodes in the graph.
    #[test]
    fn replace_neighbors_matches_per_edge_rewiring(
        n in 6usize..28,
        seed in 0u64..1_000,
        relaxed in 0usize..2,
        threshold in 0usize..3,
        moves in proptest::collection::vec((0usize..64, 0u64..9), 1..40),
    ) {
        let p = 3.0 * (n as f64).ln() / n as f64;
        let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(seed), 200);
        let mut fast = MutableGraph::from_graph(&g);
        if relaxed == 1 {
            fast.relax_neighbor_order();
        }
        match threshold {
            0 => fast.set_compaction_threshold(0),
            1 => fast.set_compaction_threshold(64),
            _ => {}
        }
        // Two departed nodes: targets must skip them, and rewiring a
        // departed node to nothing is a no-op.
        fast.deactivate((seed % n as u64) as Node);
        fast.deactivate(((seed / 7) % n as u64) as Node);
        fast.track_changes(true);
        let mut slow = fast.clone();
        let mut rng = Xoshiro256PlusPlus::seed_from(seed ^ 0x5EED);
        for (step, &(a, density)) in moves.iter().enumerate() {
            let v = (a % n) as Node;
            let new = if fast.is_active(v) {
                random_targets(&fast, v, density, &mut rng)
            } else {
                Vec::new()
            };
            fast.replace_neighbors(v, &new);
            rewire_per_edge(&mut slow, v, &new);
            prop_assert_eq!(fast.edge_count(), slow.edge_count(), "step {} edge count", step);
            prop_assert_eq!(fast.changes(), slow.changes(), "step {} journal", step);
            for u in 0..n as Node {
                prop_assert_eq!(fast.neighbors(u), slow.neighbors(u), "step {} row {}", step, u);
            }
            fast.clear_changes();
            slow.clear_changes();
        }
        let mut a = Xoshiro256PlusPlus::seed_from(seed ^ 0xD1CE);
        let mut b = Xoshiro256PlusPlus::seed_from(seed ^ 0xD1CE);
        for v in (0..n as Node).filter(|&v| fast.degree(v) > 0) {
            for _ in 0..8 {
                prop_assert_eq!(fast.random_neighbor(v, &mut a), slow.random_neighbor(v, &mut b));
            }
        }
        prop_assert_eq!(a.next_u64(), b.next_u64(), "RNG streams diverged");
    }
}

#[test]
#[should_panic(expected = "self-loop at node 2")]
fn replace_neighbors_rejects_a_self_loop() {
    let mut net = MutableGraph::from_graph(&generators::cycle(6));
    net.replace_neighbors(2, &[1, 2, 3]);
}

#[test]
#[should_panic(expected = "touches an inactive node")]
fn replace_neighbors_rejects_an_inactive_target() {
    let mut net = MutableGraph::from_graph(&generators::cycle(6));
    net.deactivate(4);
    net.replace_neighbors(2, &[1, 4]);
}
