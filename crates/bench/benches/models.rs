//! Criterion benchmarks of the pluggable topology-model layer: one
//! full dynamic run per model at matched expected churn volume
//! (`m·ν` edge changes per unit time, the E22 parameterization), so
//! regressions in any model's event scheduling or apply path — or in
//! the trait dispatch the engines now route every model through — show
//! up as per-model wall-clock drift against the committed baseline.
//!
//! Since PR 8 the full-run groups execute under `RngContract::V2` (the
//! superposition scheduler — the default contract for new specs), so
//! the committed BENCH_PR8.json baseline prices the engine as shipped;
//! compare against BENCH_PR7.json for the eager-queue (v1) numbers on
//! identical labels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
// The benched suite IS the E22 suite: importing it keeps the committed
// BENCH_PR3.json baseline tracking exactly the models the experiment
// measures, parameter drift included.
use rumor_analysis::experiments::e22_models::matched_models;
use rumor_core::Mode;
use rumor_core::{
    run_dynamic_lazy, run_dynamic_sharded_under, run_dynamic_under, DynamicModel, RngContract,
};
use rumor_graph::dynamic::MutableGraph;
use rumor_graph::geometry::GridIndex;
use rumor_graph::{generators, GraphBuilder, Node};
use rumor_sim::rng::Xoshiro256PlusPlus;

fn bench_models_sequential(c: &mut Criterion) {
    let mut group = c.benchmark_group("topology_models_gnp_256");
    group.sample_size(20);
    let n = 256;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    for (name, model) in matched_models(&g) {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, model| {
            b.iter(|| {
                run_dynamic_under(
                    RngContract::V2,
                    &g,
                    0,
                    Mode::PushPull,
                    model,
                    &mut rng,
                    100_000_000,
                )
            })
        });
    }
    group.finish();
}

fn bench_models_sharded(c: &mut Criterion) {
    // The same suite through the sharded engine at K = 4: prices the
    // per-model rate-impact path (incremental for flips/walks/heals,
    // global recompute for snapshots/moves/strikes).
    let mut group = c.benchmark_group("topology_models_sharded_k4_gnp_256");
    group.sample_size(10);
    let n = 256;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    for (name, model) in matched_models(&g) {
        let mut rng = Xoshiro256PlusPlus::seed_from(9);
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, model| {
            b.iter(|| {
                run_dynamic_sharded_under(
                    RngContract::V2,
                    &g,
                    0,
                    Mode::PushPull,
                    model,
                    4,
                    &mut rng,
                    100_000_000,
                )
            })
        });
    }
    group.finish();
}

fn bench_models_sequential_1024(c: &mut Criterion) {
    // The scale row the flat-memory core is for: 4x the nodes, ~5x the
    // edges of the 256 group. Per-trial setup (graph adoption, model
    // buffers) is pooled, so this prices the steady-state hot path.
    let mut group = c.benchmark_group("topology_models_gnp_1024");
    // 40 samples (the 3s shim budget still bounds slow rows): medians
    // on this group feed the BENCH_PR* baselines, and 10 samples let a
    // single scheduler-noise spike drag the median by tens of percent.
    group.sample_size(40);
    let n = 1024;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    for (name, model) in matched_models(&g) {
        let mut rng = Xoshiro256PlusPlus::seed_from(7);
        group.bench_with_input(BenchmarkId::from_parameter(name), &model, |b, model| {
            b.iter(|| {
                run_dynamic_under(
                    RngContract::V2,
                    &g,
                    0,
                    Mode::PushPull,
                    model,
                    &mut rng,
                    100_000_000,
                )
            })
        });
    }
    group.finish();
}

fn bench_compaction_threshold_sweep(c: &mut Criterion) {
    // Drives the MutableGraph directly (no engine) through a fixed
    // random churn + neighbor-draw mix at different compaction
    // thresholds: 0 compacts after every mutation, `usize::MAX` lets
    // the overlay grow without bound, `auto` is the default 2x-base
    // policy. The sweep prices the policy itself; the engines always
    // run `auto`.
    let mut group = c.benchmark_group("compaction_threshold_gnp_256");
    group.sample_size(20);
    let n = 256usize;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    let edges: Vec<(Node, Node)> = g.edges().collect();
    for (label, threshold) in [
        ("eager-0", Some(0)),
        ("t-64", Some(64)),
        ("t-1024", Some(1024)),
        ("never", Some(usize::MAX)),
        ("auto", None),
    ] {
        let mut rng = Xoshiro256PlusPlus::seed_from(11);
        group.bench_function(label, |b| {
            b.iter(|| {
                let mut net = MutableGraph::from_graph(&g);
                if let Some(t) = threshold {
                    net.set_compaction_threshold(t);
                }
                let mut touched = 0u32;
                for _ in 0..20_000 {
                    let (u, v) = edges[rng.range_usize(edges.len())];
                    if net.has_edge(u, v) {
                        net.remove_edge(u, v);
                    } else {
                        net.add_edge(u, v);
                    }
                    let q = rng.range_usize(n) as Node;
                    if net.degree(q) > 0 {
                        touched ^= net.random_neighbor(q, &mut rng);
                    }
                }
                touched
            })
        });
    }
    group.finish();
}

fn bench_hotpath_components(c: &mut Criterion) {
    // Isolates the three cost centers a dynamic-model event pays —
    // graph mutation, neighbor draw, event-queue churn — so a model
    // bench regression can be attributed without profiling.
    let mut group = c.benchmark_group("hotpath_components_gnp_256");
    group.sample_size(20);
    let n = 256usize;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    let edges: Vec<(Node, Node)> = g.edges().collect();
    let mut setup = Xoshiro256PlusPlus::seed_from(13);
    let flip_seq: Vec<(Node, Node)> =
        (0..20_000).map(|_| edges[setup.range_usize(edges.len())]).collect();
    let draw_seq: Vec<Node> = (0..20_000).map(|_| setup.range_usize(n) as Node).collect();

    group.bench_function("flips", |b| {
        b.iter(|| {
            let mut net = MutableGraph::from_graph(&g);
            let mut count = 0usize;
            for &(u, v) in &flip_seq {
                if !net.remove_edge(u, v) {
                    net.add_edge(u, v);
                    count += 1;
                }
            }
            count
        })
    });

    group.bench_function("draws", |b| {
        // Draws on a churned graph: half the flip sequence applied, so
        // a realistic share of nodes reads through the overlay.
        let mut net = MutableGraph::from_graph(&g);
        for &(u, v) in &flip_seq[..10_000] {
            if !net.remove_edge(u, v) {
                net.add_edge(u, v);
            }
        }
        let mut rng = Xoshiro256PlusPlus::seed_from(17);
        b.iter(|| {
            let mut acc = 0 as Node;
            for &v in &draw_seq {
                if net.degree(v) > 0 {
                    acc ^= net.random_neighbor(v, &mut rng);
                }
            }
            acc
        })
    });

    group.bench_function("queue", |b| {
        // The engine-side cost per topology event: one heap pop + one
        // exp draw + one push, at the markov model's pending-event count.
        use rumor_sim::events::EventQueue;
        let mut rng = Xoshiro256PlusPlus::seed_from(19);
        b.iter(|| {
            let mut q: EventQueue<u32> = EventQueue::new();
            for i in 0..edges.len() as u32 {
                q.push(rng.exp(1.0), i);
            }
            let mut acc = 0u32;
            for _ in 0..20_000 {
                let (t, i) = q.pop().expect("queue stays full");
                acc ^= i;
                q.push(t + rng.exp(1.0), i);
            }
            acc
        })
    });

    group.bench_function("superposition", |b| {
        // The v2 counterpart of the `queue` row: one Exp(total) draw +
        // one thinning draw + a markov-shaped two-channel reweight per
        // event, with no per-edge pending state at all. The gap between
        // this row and `queue` is the per-event scheduling win the
        // full-run groups realize under `RngContract::V2`.
        use rumor_sim::events::{Fired, Superposition};
        let mut rng = Xoshiro256PlusPlus::seed_from(19);
        let m = edges.len() as f64;
        b.iter(|| {
            let mut sup: Superposition<u32> = Superposition::new(2);
            let (mut off_pop, mut on_pop) = (m, 0.0);
            sup.set_weight(0.0, 0, off_pop);
            sup.set_weight(0.0, 1, on_pop);
            let mut acc = 0usize;
            for _ in 0..20_000 {
                let (t, fired) = sup.pop(&mut rng).expect("populations stay live");
                let ch = match fired {
                    Fired::Channel(ch) => ch,
                    Fired::Event(_) => unreachable!("no queued events"),
                };
                // One edge migrates between the off/on populations,
                // moving both channel weights — the markov fire shape.
                if ch == 0 {
                    off_pop -= 1.0;
                    on_pop += 1.0;
                } else {
                    off_pop += 1.0;
                    on_pop -= 1.0;
                }
                sup.set_weight(t, 0, off_pop);
                sup.set_weight(t, 1, on_pop);
                acc ^= ch;
            }
            acc
        })
    });
    group.finish();
}

fn bench_topology_kernels_1024(c: &mut Criterion) {
    // The kernels under the gnp_1024 `mobility` and lazy `markov` rows.
    // One geometric-mobility move is split into its grid query (rebucket
    // + radius scan) and its rewire (`replace_neighbors`, relaxed
    // adjacency as under v2); `mobility_move` runs both, as the engine
    // does. Each mobility row replays the same MOVES-step walk from the
    // matched suite's starting positions, so a row's time / MOVES is
    // the per-move cost.
    const MOVES: usize = 10_000;
    let mut group = c.benchmark_group("topology_kernels_gnp_1024");
    group.sample_size(20);
    let n = 1024;
    let p = 2.0 * (n as f64).ln() / n as f64;
    let g = generators::gnp_connected(n, p, &mut Xoshiro256PlusPlus::seed_from(42), 200);
    let models = matched_models(&g);
    let model = |name: &str| models.iter().find(|(m, _)| *m == name).expect("matched suite").1;
    let DynamicModel::Mobility(mobility) = model("mobility") else {
        unreachable!("the matched suite's mobility entry");
    };

    // Starting positions and a bounded random walk drawn the way the
    // mobility model draws its moves.
    let mut setup = Xoshiro256PlusPlus::seed_from(23);
    let start: Vec<(f64, f64)> = (0..n).map(|_| (setup.f64_unit(), setup.f64_unit())).collect();
    let mut pos = start.clone();
    let walk: Vec<(Node, f64, f64)> = (0..MOVES)
        .map(|_| {
            let v = setup.range_usize(n);
            let (x, y) = pos[v];
            let step = mobility.step;
            pos[v] = (
                (x + (2.0 * setup.f64_unit() - 1.0) * step).clamp(0.0, 1.0),
                (y + (2.0 * setup.f64_unit() - 1.0) * step).clamp(0.0, 1.0),
            );
            (v as Node, pos[v].0, pos[v].1)
        })
        .collect();
    let mut b = GraphBuilder::new(n);
    for (u, v) in GridIndex::new(start.clone(), mobility.radius).proximity_edges() {
        b.add_edge(u, v);
    }
    let start_graph = b.build().expect("proximity edges are simple");
    // The rewire row replays the neighborhoods the query row computes.
    let mut grid = GridIndex::new(start.clone(), mobility.radius);
    let targets: Vec<(Node, Vec<Node>)> = walk
        .iter()
        .map(|&(v, x, y)| {
            let mut near = Vec::new();
            grid.move_to(v, x, y);
            grid.within_radius(v, &mut near);
            (v, near)
        })
        .collect();
    drop(grid);

    group.bench_function("mobility_query", |b| {
        b.iter(|| {
            let mut grid = GridIndex::new(start.clone(), mobility.radius);
            let mut near = Vec::new();
            let mut found = 0usize;
            for &(v, x, y) in &walk {
                grid.move_to(v, x, y);
                grid.within_radius(v, &mut near);
                found += near.len();
            }
            found
        })
    });
    group.bench_function("mobility_rewire", |b| {
        b.iter(|| {
            let mut net = MutableGraph::from_graph(&start_graph);
            net.relax_neighbor_order();
            for (v, near) in &targets {
                net.replace_neighbors(*v, near);
            }
            net.edge_count()
        })
    });
    group.bench_function("mobility_move", |b| {
        b.iter(|| {
            let mut grid = GridIndex::new(start.clone(), mobility.radius);
            let mut net = MutableGraph::from_graph(&start_graph);
            net.relax_neighbor_order();
            let mut near = Vec::new();
            for &(v, x, y) in &walk {
                grid.move_to(v, x, y);
                grid.within_radius(v, &mut near);
                net.replace_neighbors(v, &near);
            }
            net.edge_count()
        })
    });

    // A whole run on the lazy-clock engine (dense per-edge clock table).
    let markov = model("markov");
    let mut rng = Xoshiro256PlusPlus::seed_from(7);
    group.bench_function("markov_lazy", |b| {
        b.iter(|| run_dynamic_lazy(&g, 0, Mode::PushPull, &markov, &mut rng, 100_000_000))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_models_sequential,
    bench_models_sharded,
    bench_models_sequential_1024,
    bench_compaction_threshold_sweep,
    bench_hotpath_components,
    bench_topology_kernels_1024
);
criterion_main!(benches);
