//! End-to-end miniatures of the paper's two main theorems, run across a
//! matrix of graph families. These are the headline claims; the full
//! sweeps live in the experiment binaries (`exp_t1`, `exp_t2`).

use rumor_spreading::core::runner::high_probability_time;
use rumor_spreading::core::spec::{Protocol, SimSpec};
use rumor_spreading::core::{AsyncView, Mode};
use rumor_spreading::graph::{generators, Graph, Node};
use rumor_spreading::sim::rng::Xoshiro256PlusPlus;
use rumor_spreading::sim::stats::OnlineStats;

fn threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Synchronous push–pull spreading times through the unified run API.
fn sync_times(g: &Graph, source: Node, trials: usize, seed: u64, max_rounds: u64) -> Vec<f64> {
    SimSpec::on_graph(g)
        .source(source)
        .protocol(Protocol::Sync { mode: Mode::PushPull })
        .trials(trials)
        .seed(seed)
        .threads(threads())
        .max_rounds(max_rounds)
        .build()
        .expect("valid sync spec")
        .run()
        .values()
}

/// Asynchronous push–pull (global clock) spreading times.
fn async_times(g: &Graph, source: Node, trials: usize, seed: u64, max_steps: u64) -> Vec<f64> {
    SimSpec::on_graph(g)
        .source(source)
        .protocol(Protocol::Async { mode: Mode::PushPull, view: AsyncView::GlobalClock })
        .trials(trials)
        .seed(seed)
        .threads(threads())
        .max_steps(max_steps)
        .build()
        .expect("valid async spec")
        .run()
        .values()
}

fn suite() -> Vec<(&'static str, Graph, Node)> {
    let mut rng = Xoshiro256PlusPlus::seed_from(99);
    vec![
        ("star", generators::star(48), 1),
        ("path", generators::path(32), 0),
        ("cycle", generators::cycle(32), 0),
        ("hypercube", generators::hypercube(5), 0),
        ("complete", generators::complete(32), 0),
        ("gnp", generators::gnp_connected(48, 0.2, &mut rng, 200), 0),
        ("double-star", generators::double_star(20, 20), 2),
        ("diamonds", generators::string_of_diamonds(3, 16), 0),
        ("binary-tree", generators::complete_binary_tree(31), 0),
        ("pref-attach", generators::preferential_attachment(48, 2, &mut rng), 47),
    ]
}

/// Theorem 1: `T_hp(pp-a) = O(T_hp(pp) + log n)`. With small sizes and
/// moderate trials the constant is generous but the *shape* must hold on
/// every family simultaneously.
#[test]
fn theorem1_upper_bound_shape() {
    let trials = 150;
    for (name, g, source) in suite() {
        let n = g.node_count();
        let sync = sync_times(&g, source, trials, 1, 100_000);
        let asy = async_times(&g, source, trials, 2, 100_000_000);
        let t_sync = high_probability_time(&sync, n);
        let t_async = high_probability_time(&asy, n);
        let bound = t_sync + (n as f64).ln();
        assert!(
            t_async <= 7.0 * bound,
            "{name}: T_async_hp = {t_async:.2} vs 7*(T_sync_hp + ln n) = {:.2}",
            7.0 * bound
        );
    }
}

/// Theorem 2: `E[T(pp)] = O(√n · E[T(pp-a)] + √n)`.
#[test]
fn theorem2_lower_bound_shape() {
    let trials = 150;
    for (name, g, source) in suite() {
        let n = g.node_count() as f64;
        let sync: OnlineStats = sync_times(&g, source, trials, 3, 100_000).into_iter().collect();
        let asy: OnlineStats =
            async_times(&g, source, trials, 4, 100_000_000).into_iter().collect();
        let bound = n.sqrt() * asy.mean() + n.sqrt();
        assert!(
            sync.mean() <= 3.0 * bound,
            "{name}: E[T_sync] = {:.2} vs 3*(sqrt(n)*E[T_async] + sqrt(n)) = {:.2}",
            sync.mean(),
            3.0 * bound
        );
    }
}

/// The star example behind Theorem 1's additive term: sync ≤ 2 rounds
/// always; async mean grows with n like log n.
#[test]
fn star_separation() {
    let trials = 120;
    let mut means = Vec::new();
    for n in [64usize, 256, 1024] {
        let g = generators::star(n);
        let sync = sync_times(&g, 1, trials, 5, 100);
        assert!(sync.iter().all(|&r| r <= 2.0), "sync star exceeded 2 rounds at n={n}");
        let asy = async_times(&g, 1, trials, 6, 1_000_000_000);
        means.push(asy.iter().copied().collect::<OnlineStats>().mean());
    }
    assert!(
        means[0] < means[1] && means[1] < means[2],
        "async star time should grow with n: {means:?}"
    );
    // Quadrupling n adds ~ ln 4 per doubling pair; the increments should
    // be comparable (log growth, not linear).
    let inc1 = means[1] - means[0];
    let inc2 = means[2] - means[1];
    assert!(
        inc2 < 3.0 * inc1 + 1.0,
        "growth looks super-logarithmic: increments {inc1:.2}, {inc2:.2}"
    );
}

/// The diamond separation (Acan et al.): sync grows polynomially while
/// async barely moves — the witness for Theorem 2's near-tightness.
#[test]
fn diamond_separation_widens() {
    let trials = 100;
    let mut ratios = Vec::new();
    for (k, m) in [(5usize, 25usize), (10, 100)] {
        let g = generators::string_of_diamonds(k, m);
        let sync: OnlineStats = sync_times(&g, 0, trials, 7, 1_000_000).into_iter().collect();
        let asy: OnlineStats = async_times(&g, 0, trials, 8, 1_000_000_000).into_iter().collect();
        ratios.push(sync.mean() / asy.mean());
    }
    assert!(ratios[1] > ratios[0], "sync/async gap should widen with size: {ratios:?}");
    assert!(ratios[1] > 1.5, "async should clearly win on diamonds: {ratios:?}");
}
