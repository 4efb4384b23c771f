//! Every input the benchmark feeds the program, generated from the
//! workload seed: spec texts for the batch workloads, the `rumor serve`
//! request pool and stream, and the sweep file.
//!
//! Every spec pins `rng_contract = v2` and `threads = 1`.

use crate::util::{zipf_cdf, Rng};

/// Input scale: `Full` is what the benchmark measures, `Tiny` the
/// self-test's seconds-long variant of the same shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Tiny,
}

impl Size {
    pub fn name(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Tiny => "tiny",
        }
    }
}

/// Committed-digest variants per batch family; the workload seed picks
/// one per family.
pub const VARIANTS: u64 = 8;

/// One generated spec of a batch workload.
#[derive(Debug, Clone)]
pub struct BatchSpec {
    /// Family label (`engine.run_s.<label>`).
    pub label: &'static str,
    pub variant: u64,
    pub text: String,
}

/// The canonical spec text the generators fill in.
#[allow(clippy::too_many_arguments)]
pub fn spec_text(
    graph: &str,
    protocol: &str,
    topology: &str,
    engine: &str,
    trials: usize,
    seed: u64,
    coupled: bool,
) -> String {
    format!(
        "spec = v1\ngraph = {graph}\nsource = 0\nprotocol = {protocol}\ntopology = {topology}\n\
         engine = {engine}\ntrials = {trials}\nseed = {seed}\nthreads = 1\nloss = 0\n\
         max_steps = auto\nmax_rounds = auto\ncoupled = {coupled}\nhorizon = auto\n\
         antithetic = false\nrng_contract = v2\nmetrics = off\n"
    )
}

const SYNC: &str = "sync mode=push-pull";
const ASYNC: &str = "async mode=push-pull view=global-clock";

/// `2 ln n / n`: above the connectivity threshold, the density the
/// repository's experiments and benches use for G(n, p).
fn gnp_p(n: usize) -> f64 {
    2.0 * (n as f64).ln() / n as f64
}

fn gnp(n: usize, seed: u64) -> String {
    format!("gnp n={n} p={:.6} seed={seed} attempts=200", gnp_p(n))
}

/// A family of a batch workload: `make(variant)` yields its spec text.
struct Family {
    label: &'static str,
    make: Box<dyn Fn(u64) -> String>,
}

fn family(label: &'static str, make: impl Fn(u64) -> String + 'static) -> Family {
    Family { label, make: Box::new(make) }
}

/// Graph seed and trial seed of a variant (fixed, so digests can be
/// committed for every variant).
fn variant_seeds(family: usize, v: u64) -> (u64, u64) {
    let mut r = Rng::new(0xB0_0000 + v);
    let graph_seed = r.next_u64() >> 16;
    let mut t = Rng::new(((family as u64) << 32) | v);
    (graph_seed, t.next_u64() >> 16)
}

fn families(workload: &str, size: Size) -> Vec<Family> {
    let tiny = size == Size::Tiny;
    match workload {
        // Panagiotou–Speidel: sync vs async push-pull on G(n, p), plus
        // the hypercube, all on the sequential engine.
        "static_pushpull" => {
            let (n, dim) = if tiny { (128, 7) } else { (4096, 12) };
            // Trials per spec equalize the cost of one spec run (~15 ms
            // at full size), so request latencies form one mode.
            let t = move |sync: bool| match (tiny, sync) {
                (true, _) => 4,
                (false, true) => 28,
                (false, false) => 14,
            };
            vec![
                family("gnp_sync", move |v| {
                    let (g, s) = variant_seeds(0, v);
                    spec_text(&gnp(n, g), SYNC, "static", "sequential", t(true), s, false)
                }),
                family("gnp_async", move |v| {
                    let (g, s) = variant_seeds(1, v);
                    spec_text(&gnp(n, g), ASYNC, "static", "sequential", t(false), s, false)
                }),
                family("hypercube_sync", move |v| {
                    let (_, s) = variant_seeds(2, v);
                    spec_text(
                        &format!("hypercube dim={dim}"),
                        SYNC,
                        "static",
                        "sequential",
                        t(true),
                        s,
                        false,
                    )
                }),
                family("hypercube_async", move |v| {
                    let (_, s) = variant_seeds(3, v);
                    spec_text(
                        &format!("hypercube dim={dim}"),
                        ASYNC,
                        "static",
                        "sequential",
                        t(false),
                        s,
                        false,
                    )
                }),
            ]
        }
        // Pourmiri–Mans: asynchronous spreading on dynamic networks, one
        // spec per topology model, plus the lazy engine and a coupled
        // (trace record + replay) run.
        "dynamic_churn" => {
            let (n, nc) = if tiny { (64, 32) } else { (1024, 256) };
            // Churn as in the repository's E22 model comparison (nu = 1,
            // mobility radius at the base graph's mean degree), except
            // the adversary: rate 100 at n = 1024, not E22's matched
            // m * nu / (2 * budget) (~890), which stalls spreading ~60x.
            let mean_degree = gnp_p(n) * (n - 1) as f64;
            let radius = (mean_degree / (std::f64::consts::PI * n as f64)).sqrt();
            let adversary_rate = 100.0 * n as f64 / 1024.0;
            let trials = move |full: usize| if tiny { 2 } else { full };
            let dynamic = move |fam: usize, topology: String, engine: &'static str, t: usize| {
                move |v| {
                    let (g, s) = variant_seeds(fam, v);
                    spec_text(&gnp(n, g), ASYNC, &topology, engine, t, s, false)
                }
            };
            vec![
                family("markov", dynamic(4, "markov off=1 on=1".into(), "sequential", trials(8))),
                family("walk", dynamic(5, "walk rate=1".into(), "sequential", trials(6))),
                family(
                    "mobility",
                    dynamic(
                        6,
                        format!("mobility move=0.5 radius={radius:.6} step=0.1"),
                        "sequential",
                        trials(3),
                    ),
                ),
                family(
                    "adversary",
                    dynamic(
                        7,
                        format!("adversary rate={adversary_rate} budget=4 heal=1"),
                        "sequential",
                        trials(5),
                    ),
                ),
                family("markov_lazy", dynamic(8, "markov off=1 on=1".into(), "lazy", trials(7))),
                family("markov_coupled", move |v| {
                    let (g, s) = variant_seeds(9, v);
                    spec_text(
                        &gnp(nc, g),
                        ASYNC,
                        "markov off=1 on=1",
                        "sequential",
                        trials(1),
                        s,
                        true,
                    )
                }),
            ]
        }
        other => panic!("no batch families for workload `{other}`"),
    }
}

/// The batch workload's specs for `seed`: one variant per family.
pub fn batch_specs(workload: &str, size: Size, seed: u64) -> Vec<BatchSpec> {
    let mut rng = Rng::new(seed);
    families(workload, size)
        .into_iter()
        .map(|f| {
            let variant = rng.next_u64() % VARIANTS;
            BatchSpec { label: f.label, variant, text: (f.make)(variant) }
        })
        .collect()
}

/// Every variant of every family (digest generation).
pub fn all_batch_specs(workload: &str, size: Size) -> Vec<BatchSpec> {
    families(workload, size)
        .into_iter()
        .flat_map(|f| {
            (0..VARIANTS).map(move |v| BatchSpec { label: f.label, variant: v, text: (f.make)(v) })
        })
        .collect()
}

/// Every spec label that runs the engine (`engine.run_s.<label>`): the
/// batch families and the serve kinds that produce reports.
pub fn engine_labels() -> Vec<&'static str> {
    let batch = ["static_pushpull", "dynamic_churn"]
        .into_iter()
        .flat_map(|w| families(w, Size::Tiny).into_iter().map(|f| f.label));
    let serve = SERVE_MIX.iter().map(|m| m.0).filter(|k| *k != ServeKind::Invalid);
    batch.chain(serve.map(ServeKind::label)).collect()
}

// ---------------------------------------------------------------------------
// serve_mixed
// ---------------------------------------------------------------------------

/// Kind of a serve pool entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeKind {
    Static,
    Dynamic,
    Coupled,
    /// A spec the service must answer with an error frame.
    Invalid,
}

impl ServeKind {
    pub fn label(self) -> &'static str {
        match self {
            ServeKind::Static => "serve_static",
            ServeKind::Dynamic => "serve_dynamic",
            ServeKind::Coupled => "serve_coupled",
            ServeKind::Invalid => "serve_invalid",
        }
    }
}

#[derive(Debug, Clone)]
pub struct ServeSpec {
    pub kind: ServeKind,
    pub text: String,
}

/// Per kind: share of the request stream in percent, and pool entries
/// (full size).
///
/// The mix is set so that per-request overhead (parse, JSON, frames,
/// `RunCaches`) outweighs engine time: in the traced run's in-process
/// replay, `engine.run_s` must stay a minority of `serve.roundtrip_s`
/// (the run prints that share). Static specs are the cheap bulk of the
/// stream. Dynamic and coupled specs run at small n, because a trial of
/// either costs several static requests' overhead.
/// Coupled requests are as frequent as one lap needs to see more
/// distinct trace keys than the service's trace cache retains (1024),
/// so the cache both hits and misses. A few invalid specs exercise the
/// error frame.
const SERVE_MIX: [(ServeKind, usize, usize); 4] = [
    (ServeKind::Static, 65, 300),
    (ServeKind::Dynamic, 15, 120),
    (ServeKind::Coupled, 15, 2000),
    (ServeKind::Invalid, 5, 12),
];

/// Trials per serve spec: one, so that no request's engine time dwarfs
/// the overhead the workload prices.
const SERVE_TRIALS: usize = 1;

/// The serve pool: small specs (n <= 128), grouped by kind in
/// [`SERVE_MIX`] order.
pub fn serve_pool(size: Size, seed: u64) -> Vec<ServeSpec> {
    let mut rng = Rng::new(seed ^ 0x5E_7E);
    let (shrink, scale) = if size == Size::Tiny { (10, 2) } else { (1, 1) };
    // A handful of shared base graphs, so distinct specs hit the graph
    // cache.
    let graph_seeds: Vec<u64> = (0..6).map(|_| rng.next_u64() >> 20).collect();
    let mut pool = Vec::new();
    for (kind, _, entries) in SERVE_MIX {
        let trials = SERVE_TRIALS;
        // Shapes cycle with the rank, so every popularity band holds the
        // same mix and the seed changes seeds, not the cost profile.
        for i in 0..entries.div_ceil(shrink) {
            let seed = rng.next_u64() >> 16;
            let mut g = |n: usize| gnp(n, graph_seeds[rng.below(graph_seeds.len())]);
            let text = match kind {
                ServeKind::Static => {
                    let (graph, protocol) = match (i / 3) % 4 {
                        0 => (g([64, 96, 128][i % 3] / scale), SYNC),
                        1 => (g([64, 96, 128][i % 3] / scale), ASYNC),
                        2 => (format!("hypercube dim={}", 7 - scale), ASYNC),
                        _ => (format!("complete n={}", 64 / scale), SYNC),
                    };
                    spec_text(&graph, protocol, "static", "sequential", trials, seed, false)
                }
                ServeKind::Dynamic => {
                    let topology =
                        ["markov off=1 on=1", "walk rate=1", "markov off=0.5 on=2"][(i / 3) % 3];
                    let graph = g([24, 32, 48][i % 3] / scale);
                    spec_text(&graph, ASYNC, topology, "sequential", trials, seed, false)
                }
                // Coupled runs at n = 16 with distinct seeds: each trial
                // is one trace-cache key. A short horizon and slow churn
                // keep each recording small; spreading still finishes
                // well inside the horizon, so no trial censors.
                ServeKind::Coupled => spec_text(
                    &g(16),
                    ASYNC,
                    "markov off=0.25 on=0.75",
                    "sequential",
                    trials,
                    seed,
                    true,
                )
                .replace("horizon = auto", "horizon = 12"),
                ServeKind::Invalid => {
                    let graph = g(64);
                    match i % 3 {
                        0 => spec_text(&graph, ASYNC, "static", "sequential", 0, seed, false),
                        1 => spec_text(&graph, SYNC, "static", "lazy", 4, seed, false),
                        _ => spec_text(&graph, ASYNC, "static", "sequential", 4, seed, false)
                            .replace("threads = 1", "threads = 0"),
                    }
                }
            };
            pool.push(ServeSpec { kind, text });
        }
    }
    pool
}

/// Zipf exponent of the popularity skew within each kind.
const ZIPF_S: f64 = 0.6;

/// The request stream: pool indices. Each request draws its kind with
/// the fixed [`SERVE_MIX`] shares, then an entry of that kind skewed
/// toward low ranks (so popular specs repeat and hit the caches).
pub fn serve_stream(pool: &[ServeSpec], seed: u64, len: usize) -> Vec<usize> {
    let groups: Vec<(usize, usize, Vec<f64>)> = SERVE_MIX
        .iter()
        .map(|&(kind, share, _)| {
            let first = pool.iter().position(|s| s.kind == kind).expect("every kind is pooled");
            let count = pool.iter().filter(|s| s.kind == kind).count();
            (share, first, zipf_cdf(count, ZIPF_S))
        })
        .collect();
    let mut rng = Rng::new(seed ^ 0x57_4EA3);
    (0..len)
        .map(|_| {
            let mut roll = rng.below(100);
            let (_, first, cdf) = groups
                .iter()
                .find(|(share, _, _)| {
                    let hit = roll < *share;
                    roll = roll.saturating_sub(*share);
                    hit
                })
                .expect("shares sum to 100");
            first + rng.zipf(cdf)
        })
        .collect()
}

// ---------------------------------------------------------------------------
// sweep_workers
// ---------------------------------------------------------------------------

/// The 16-child sweep: 4 graph seeds x 4 topologies.
pub fn sweep_text(size: Size, seed: u64) -> String {
    let mut rng = Rng::new(seed ^ 0x5_3EE9);
    let (n, trials) = if size == Size::Tiny { (64, 2) } else { (1024, 12) };
    let seeds: Vec<String> = (0..4).map(|_| (rng.next_u64() >> 20).to_string()).collect();
    let mean_degree = gnp_p(n) * (n - 1) as f64;
    let radius = (mean_degree / (std::f64::consts::PI * n as f64)).sqrt();
    let base =
        spec_text(&gnp(n, 1), ASYNC, "static", "sequential", trials, rng.next_u64() >> 16, false);
    format!(
        "# perfbench sweep_workers grid\n{base}sweep.graph.seed = [{}]\n\
         sweep.topology = [static, markov off=1 on=1, walk rate=1, mobility move=0.5 radius={radius:.6} step=0.1]\n",
        seeds.join(", ")
    )
}
