//! Seeded Monte-Carlo trial running, serial or parallel.
//!
//! Every quantity in the paper is a functional of the spreading-time law:
//! `E[T]` (Theorem 2), the high-probability quantile `T₁/ₙ` (Theorem 1),
//! or a fraction-of-nodes stopping time (the social-network discussion).
//! This module estimates them from independent trials. Trial `i` always
//! uses the `i`-th seed of a [`SeedStream`], so a run is reproducible
//! regardless of thread count or scheduling.
//!
//! The combinatorially named sampling helpers (`sync_spreading_times`,
//! `dynamic_spreading_outcomes_sharded`, …) are **deprecated**: they
//! are thin wrappers over the unified [`SimSpec`]
//! builder, kept seed-for-seed identical for migration (pinned in
//! `tests/spec_wrappers.rs`). New code should compose a `SimSpec`
//! directly — one typed builder instead of a free function per
//! protocol × topology × engine combination. Unlike `SimSpec`'s
//! [`RunReport`], the time-only wrappers cannot
//! report censoring; they log to stderr when it occurred.

use rumor_graph::{Graph, Node};
use rumor_sim::rng::{SeedStream, Xoshiro256PlusPlus};
use rumor_sim::stats::quantile;

use crate::asynchronous::AsyncView;
use crate::dynamic::{DynamicModel, EdgeMarkov};
use crate::mode::Mode;
use crate::spec::{Engine, Protocol, RunReport, SimSpec, Topology};

pub use crate::spec::{CoupledEngine, CoupledOutcome};

/// Runs `trials` independent trials of `f` sequentially.
///
/// `f` receives the trial index and a fresh RNG seeded from the trial's
/// own seed.
///
/// # Example
///
/// ```
/// use rumor_core::runner::run_trials;
/// let xs = run_trials(5, 42, |i, rng| (i, rng.f64_unit()));
/// assert_eq!(xs.len(), 5);
/// let ys = run_trials(5, 42, |i, rng| (i, rng.f64_unit()));
/// assert_eq!(xs, ys); // reproducible
/// ```
pub fn run_trials<T, F>(trials: usize, master_seed: u64, f: F) -> Vec<T>
where
    F: Fn(usize, &mut Xoshiro256PlusPlus) -> T,
{
    SeedStream::new(master_seed)
        .take(trials)
        .enumerate()
        .map(|(i, seed)| {
            let mut rng = Xoshiro256PlusPlus::seed_from(seed);
            f(i, &mut rng)
        })
        .collect()
}

/// Runs `trials` independent trials of `f` on `threads` worker threads.
///
/// Produces exactly the same output as [`run_trials`] with the same
/// `master_seed` — per-trial seeding makes the result independent of the
/// thread count.
///
/// # Panics
///
/// Panics if `threads == 0` or a worker thread panics.
pub fn run_trials_parallel<T, F>(trials: usize, master_seed: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, &mut Xoshiro256PlusPlus) -> T + Sync,
{
    assert!(threads > 0, "need at least one thread");
    if threads == 1 || trials <= 1 {
        return run_trials(trials, master_seed, f);
    }
    let seeds: Vec<u64> = SeedStream::new(master_seed).take(trials).collect();
    let mut results: Vec<Option<T>> = Vec::with_capacity(trials);
    results.resize_with(trials, || None);

    let chunk = trials.div_ceil(threads);
    std::thread::scope(|scope| {
        for (c, out_chunk) in results.chunks_mut(chunk).enumerate() {
            let seeds = &seeds;
            let f = &f;
            scope.spawn(move || {
                let base = c * chunk;
                for (j, slot) in out_chunk.iter_mut().enumerate() {
                    let i = base + j;
                    let mut rng = Xoshiro256PlusPlus::seed_from(seeds[i]);
                    *slot = Some(f(i, &mut rng));
                }
            });
        }
    });

    results.into_iter().map(|r| r.expect("every slot filled")).collect()
}

/// Builds and runs a wrapper's spec, panicking on the (historically
/// panicking) invalid-argument cases. `trials == 0` was historically
/// NOT one of them — the wrappers returned an empty sample — so it is
/// short-circuited before `SimSpec::build`'s stricter `ZeroTrials`
/// rule; `run_spec` returns `None` exactly then.
fn run_spec(spec: SimSpec) -> Option<RunReport> {
    if spec.plan.trials == 0 {
        return None;
    }
    Some(spec.build().unwrap_or_else(|e| panic!("invalid run: {e}")).run())
}

/// The deprecated time-only wrappers cannot carry a censoring flag per
/// trial; disclose on stderr instead of silently biasing downstream
/// statistics (the PR 3 `CensoredSamples` contract lives in
/// [`RunReport::censored`](crate::spec::RunReport::censored)).
fn warn_censored(what: &str, report: &RunReport) {
    let censored = report.censored();
    if censored > 0 {
        let trials = report.trials();
        let message = format!(
            "warning: {what}: {censored}/{trials} trials exhausted their budget before informing \
             every node; their times are lower bounds and bias statistics downward — prefer \
             rumor_core::spec::SimSpec, whose RunReport counts censored trials explicitly"
        );
        crate::obs::emit_warning(&crate::obs::Warning {
            what: what.to_owned(),
            censored,
            trials,
            message,
        });
    }
}

/// Samples the synchronous spreading time (in rounds) over `trials`
/// independent runs.
///
/// Budget-exhausted runs are reported as `max_rounds` (a lower bound)
/// and disclosed on stderr.
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
pub fn sync_spreading_times(
    g: &Graph,
    source: Node,
    mode: Mode,
    trials: usize,
    master_seed: u64,
    max_rounds: u64,
) -> Vec<f64> {
    #[allow(deprecated)]
    sync_spreading_times_parallel(g, source, mode, trials, master_seed, max_rounds, 1)
}

/// Parallel version of [`sync_spreading_times`].
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
pub fn sync_spreading_times_parallel(
    g: &Graph,
    source: Node,
    mode: Mode,
    trials: usize,
    master_seed: u64,
    max_rounds: u64,
    threads: usize,
) -> Vec<f64> {
    let Some(report) = run_spec(
        SimSpec::on_graph(g)
            .source(source)
            .protocol(Protocol::Sync { mode })
            .trials(trials)
            .seed(master_seed)
            .threads(threads)
            .max_rounds(max_rounds),
    ) else {
        return Vec::new();
    };
    warn_censored("sync_spreading_times", &report);
    report.values()
}

/// Samples the asynchronous spreading time (in time units) over `trials`
/// independent runs.
///
/// Budget-exhausted runs are reported at their last-step time (a lower
/// bound) and disclosed on stderr.
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
pub fn async_spreading_times(
    g: &Graph,
    source: Node,
    mode: Mode,
    view: AsyncView,
    trials: usize,
    master_seed: u64,
    max_steps: u64,
) -> Vec<f64> {
    #[allow(deprecated)]
    async_spreading_times_parallel(g, source, mode, view, trials, master_seed, max_steps, 1)
}

/// Parallel version of [`async_spreading_times`].
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
#[allow(clippy::too_many_arguments)]
pub fn async_spreading_times_parallel(
    g: &Graph,
    source: Node,
    mode: Mode,
    view: AsyncView,
    trials: usize,
    master_seed: u64,
    max_steps: u64,
    threads: usize,
) -> Vec<f64> {
    let Some(report) = run_spec(
        SimSpec::on_graph(g)
            .source(source)
            .protocol(Protocol::Async { mode, view })
            .trials(trials)
            .seed(master_seed)
            .threads(threads)
            .max_steps(max_steps),
    ) else {
        return Vec::new();
    };
    warn_censored("async_spreading_times", &report);
    report.values()
}

/// Samples `(spreading_time, completed)` pairs over `trials`
/// independent runs of [`crate::run_dynamic`].
///
/// The `completed` flag is the **censoring indicator**: a `false` trial
/// exhausted its step budget, so its time is a lower bound on the true
/// spreading time, not a sample of it. Aggregations must not average
/// censored times as if complete — count and report them separately
/// (see `rumor_analysis`'s censoring-aware summaries).
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
pub fn dynamic_spreading_outcomes(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    trials: usize,
    master_seed: u64,
    max_steps: u64,
) -> Vec<(f64, bool)> {
    #[allow(deprecated)]
    dynamic_spreading_outcomes_parallel(g, source, mode, model, trials, master_seed, max_steps, 1)
}

/// Parallel version of [`dynamic_spreading_outcomes`]; identical output
/// for any thread count.
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
#[allow(clippy::too_many_arguments)]
pub fn dynamic_spreading_outcomes_parallel(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    trials: usize,
    master_seed: u64,
    max_steps: u64,
    threads: usize,
) -> Vec<(f64, bool)> {
    run_spec(
        SimSpec::on_graph(g)
            .source(source)
            .protocol(Protocol::Async { mode, view: AsyncView::GlobalClock })
            .topology(Topology::Model(*model))
            .trials(trials)
            .seed(master_seed)
            .threads(threads)
            .max_steps(max_steps),
    )
    .map_or_else(Vec::new, |report| report.outcome_pairs())
}

/// Samples `(spreading_time, completed)` pairs from the **sharded**
/// engine, trial-serially (each trial parallelizes internally). See
/// [`dynamic_spreading_outcomes`] for the censoring contract.
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
#[allow(clippy::too_many_arguments)]
pub fn dynamic_spreading_outcomes_sharded(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    shards: usize,
    trials: usize,
    master_seed: u64,
    max_steps: u64,
) -> Vec<(f64, bool)> {
    run_spec(
        SimSpec::on_graph(g)
            .source(source)
            .protocol(Protocol::Async { mode, view: AsyncView::GlobalClock })
            .topology(Topology::Model(*model))
            .engine(Engine::Sharded { shards })
            .trials(trials)
            .seed(master_seed)
            .max_steps(max_steps),
    )
    .map_or_else(Vec::new, |report| report.outcome_pairs())
}

/// Samples the dynamic-network spreading time (in time units) over
/// `trials` independent runs of [`crate::run_dynamic`].
///
/// Budget-exhausted trials contribute the time of their last step — a
/// lower bound, disclosed on stderr. Prefer a
/// [`SimSpec`] run, whose report carries the
/// censoring flags.
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
pub fn dynamic_spreading_times(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    trials: usize,
    master_seed: u64,
    max_steps: u64,
) -> Vec<f64> {
    #[allow(deprecated)]
    dynamic_spreading_times_parallel(g, source, mode, model, trials, master_seed, max_steps, 1)
}

/// Parallel version of [`dynamic_spreading_times`]; identical output for
/// any thread count thanks to per-trial [`SeedStream`] seeding.
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
#[allow(clippy::too_many_arguments)]
pub fn dynamic_spreading_times_parallel(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    trials: usize,
    master_seed: u64,
    max_steps: u64,
    threads: usize,
) -> Vec<f64> {
    let Some(report) = run_spec(
        SimSpec::on_graph(g)
            .source(source)
            .protocol(Protocol::Async { mode, view: AsyncView::GlobalClock })
            .topology(Topology::Model(*model))
            .trials(trials)
            .seed(master_seed)
            .threads(threads)
            .max_steps(max_steps),
    ) else {
        return Vec::new();
    };
    warn_censored("dynamic_spreading_times", &report);
    report.values()
}

/// Samples spreading times from the **sharded** dynamic engine over
/// `trials` independent runs.
///
/// Trials run serially: each trial already spreads one run across
/// `shards` worker threads (within-trial parallelism), which composes
/// poorly with trial-level thread fan-out. With `shards == 1` every
/// trial is bit-identical to [`dynamic_spreading_times`]'s — the K = 1
/// replay invariant lifted to the trial level.
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
#[allow(clippy::too_many_arguments)]
pub fn dynamic_spreading_times_sharded(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    shards: usize,
    trials: usize,
    master_seed: u64,
    max_steps: u64,
) -> Vec<f64> {
    let Some(report) = run_spec(
        SimSpec::on_graph(g)
            .source(source)
            .protocol(Protocol::Async { mode, view: AsyncView::GlobalClock })
            .topology(Topology::Model(*model))
            .engine(Engine::Sharded { shards })
            .trials(trials)
            .seed(master_seed)
            .max_steps(max_steps),
    ) else {
        return Vec::new();
    };
    warn_censored("dynamic_spreading_times_sharded", &report);
    report.values()
}

/// Samples spreading times from the **lazy per-edge-clock** edge-Markov
/// engine over `trials` independent runs.
#[deprecated(note = "compose a rumor_core::spec::SimSpec instead")]
pub fn lazy_spreading_times(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: EdgeMarkov,
    trials: usize,
    master_seed: u64,
    max_steps: u64,
) -> Vec<f64> {
    let Some(report) = run_spec(
        SimSpec::on_graph(g)
            .source(source)
            .protocol(Protocol::Async { mode, view: AsyncView::GlobalClock })
            .topology(Topology::Model(DynamicModel::EdgeMarkov(model)))
            .engine(Engine::Lazy)
            .trials(trials)
            .seed(master_seed)
            .max_steps(max_steps),
    ) else {
        return Vec::new();
    };
    warn_censored("lazy_spreading_times", &report);
    report.values()
}

fn coupled_spec(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    engine: CoupledEngine,
) -> SimSpec {
    let engine = match engine {
        CoupledEngine::Sequential => Engine::Sequential,
        CoupledEngine::Sharded(shards) => Engine::Sharded { shards },
        CoupledEngine::Lazy => Engine::Lazy,
    };
    SimSpec::on_graph(g)
        .source(source)
        .protocol(Protocol::Async { mode, view: AsyncView::GlobalClock })
        .topology(Topology::Model(*model))
        .engine(engine)
        .coupled(true)
}

/// Runs `trials` coupled sync/async trials: per trial, one topology
/// trace is recorded over `[0, horizon]` and both protocols run on it
/// with a shared protocol seed. Beyond the horizon the topology
/// freezes; pick `horizon` comfortably above the expected spreading
/// time and round count.
///
/// Censoring contract: either run exhausting its budget flags its
/// `*_completed` field; paired aggregation must drop such trials from
/// the pairing rather than average them (see `rumor_analysis`'s
/// `PairedSamples`).
#[deprecated(note = "compose a rumor_core::spec::SimSpec with .coupled(true) instead")]
#[allow(clippy::too_many_arguments)]
pub fn coupled_dynamic_outcomes(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    engine: CoupledEngine,
    trials: usize,
    master_seed: u64,
    horizon: f64,
    max_steps: u64,
    max_rounds: u64,
) -> Vec<CoupledOutcome> {
    #[allow(deprecated)]
    coupled_dynamic_outcomes_parallel(
        g,
        source,
        mode,
        model,
        engine,
        trials,
        master_seed,
        horizon,
        max_steps,
        max_rounds,
        1,
    )
}

/// Parallel version of [`coupled_dynamic_outcomes`]; identical output
/// for any thread count.
#[deprecated(note = "compose a rumor_core::spec::SimSpec with .coupled(true) instead")]
#[allow(clippy::too_many_arguments)]
pub fn coupled_dynamic_outcomes_parallel(
    g: &Graph,
    source: Node,
    mode: Mode,
    model: &DynamicModel,
    engine: CoupledEngine,
    trials: usize,
    master_seed: u64,
    horizon: f64,
    max_steps: u64,
    max_rounds: u64,
    threads: usize,
) -> Vec<CoupledOutcome> {
    let Some(report) = run_spec(
        coupled_spec(g, source, mode, model, engine)
            .trials(trials)
            .seed(master_seed)
            .threads(threads)
            .horizon(horizon)
            .max_steps(max_steps)
            .max_rounds(max_rounds),
    ) else {
        return Vec::new();
    };
    report.coupled.expect("coupled plan reports coupled outcomes")
}

/// A generous default step budget for asynchronous runs: enough for any
/// graph whose spreading time is polynomial in `n` at the scales used in
/// this workspace.
pub fn default_max_steps(g: &Graph) -> u64 {
    let n = g.node_count() as u64;
    // E[steps] = n · E[T]; spreading times here are ≤ O(n log n), so n² log n
    // steps with a fat constant is beyond safe.
    (200 * n * n * (64 - n.leading_zeros() as u64 + 1)).max(100_000)
}

/// The empirical high-probability spreading time `T̂₁/ₙ`: the
/// `(1 − 1/n)`-quantile of the sampled spreading times.
///
/// With `N` trials the estimate is meaningful when `N ≫ n`; for `N ≲ n`
/// it degrades gracefully to the sample maximum. The experiments use it
/// with the paper's `q = 1/n` but also report more robust quantiles.
///
/// # Panics
///
/// Panics if `samples` is empty or `n == 0`.
pub fn high_probability_time(samples: &[f64], n: usize) -> f64 {
    assert!(n > 0, "n must be positive");
    quantile(samples, 1.0 - 1.0 / n as f64)
}

#[cfg(test)]
#[allow(deprecated)]
mod tests {
    use super::*;
    use rumor_graph::generators;

    #[test]
    fn serial_and_parallel_agree_exactly() {
        let g = generators::hypercube(4);
        let serial = sync_spreading_times(&g, 0, Mode::PushPull, 40, 7, 10_000);
        let parallel = sync_spreading_times_parallel(&g, 0, Mode::PushPull, 40, 7, 10_000, 4);
        assert_eq!(serial, parallel);

        let a_serial =
            async_spreading_times(&g, 0, Mode::PushPull, AsyncView::GlobalClock, 40, 7, 1_000_000);
        let a_parallel = async_spreading_times_parallel(
            &g,
            0,
            Mode::PushPull,
            AsyncView::GlobalClock,
            40,
            7,
            1_000_000,
            3,
        );
        assert_eq!(a_serial, a_parallel);
    }

    #[test]
    fn parallel_handles_uneven_chunks() {
        let out = run_trials_parallel(10, 1, 3, |i, _| i);
        assert_eq!(out, (0..10).collect::<Vec<_>>());
        let out = run_trials_parallel(1, 1, 8, |i, _| i);
        assert_eq!(out, vec![0]);
        let out = run_trials_parallel(0, 1, 2, |i, _| i);
        assert!(out.is_empty());
    }

    #[test]
    fn outcome_samples_flag_censoring() {
        let g = generators::path(64);
        let model = DynamicModel::Static;
        // A 10-step budget cannot inform a 64-path: every trial censors.
        let tiny = dynamic_spreading_outcomes(&g, 0, Mode::PushPull, &model, 8, 3, 10);
        assert!(tiny.iter().all(|&(t, completed)| !completed && t.is_finite()));
        // A generous budget completes every trial, and the time column
        // matches the time-only helper bit-for-bit.
        let full = dynamic_spreading_outcomes(&g, 0, Mode::PushPull, &model, 8, 3, 100_000_000);
        assert!(full.iter().all(|&(_, completed)| completed));
        let times = dynamic_spreading_times(&g, 0, Mode::PushPull, &model, 8, 3, 100_000_000);
        assert_eq!(full.iter().map(|&(t, _)| t).collect::<Vec<_>>(), times);
        // Parallel fan-out is bit-identical.
        let par = dynamic_spreading_outcomes_parallel(&g, 0, Mode::PushPull, &model, 8, 3, 10, 4);
        assert_eq!(tiny, par);
    }

    #[test]
    fn sharded_one_shard_trials_match_sequential() {
        let g = generators::gnp_connected(32, 0.2, &mut Xoshiro256PlusPlus::seed_from(1), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(0.5));
        let sequential = dynamic_spreading_times(&g, 0, Mode::PushPull, &model, 20, 5, 10_000_000);
        let sharded =
            dynamic_spreading_times_sharded(&g, 0, Mode::PushPull, &model, 1, 20, 5, 10_000_000);
        assert_eq!(sequential, sharded);
    }

    #[test]
    fn lazy_trials_are_reproducible() {
        let g = generators::hypercube(4);
        let a = lazy_spreading_times(
            &g,
            0,
            Mode::PushPull,
            EdgeMarkov::symmetric(1.0),
            10,
            3,
            1_000_000,
        );
        let b = lazy_spreading_times(
            &g,
            0,
            Mode::PushPull,
            EdgeMarkov::symmetric(1.0),
            10,
            3,
            1_000_000,
        );
        assert_eq!(a, b);
        assert!(a.iter().all(|t| t.is_finite() && *t > 0.0));
    }

    #[test]
    fn coupled_trials_share_the_trace_and_replay_across_engines() {
        let g = generators::gnp_connected(32, 0.2, &mut Xoshiro256PlusPlus::seed_from(2), 100);
        let model = DynamicModel::EdgeMarkov(EdgeMarkov::symmetric(1.0));
        let seq = coupled_dynamic_outcomes(
            &g,
            0,
            Mode::PushPull,
            &model,
            CoupledEngine::Sequential,
            8,
            11,
            60.0,
            10_000_000,
            100_000,
        );
        assert!(seq.iter().all(|o| o.sync_completed && o.async_completed));
        assert!(seq.iter().all(|o| o.trace_steps > 0));
        // K = 1 sharded and the lazy cursor replay the sequential
        // coupled run seed-for-seed.
        for engine in [CoupledEngine::Sharded(1), CoupledEngine::Lazy] {
            let other = coupled_dynamic_outcomes(
                &g,
                0,
                Mode::PushPull,
                &model,
                engine,
                8,
                11,
                60.0,
                10_000_000,
                100_000,
            );
            assert_eq!(other, seq, "{engine:?}");
        }
        // Parallel fan-out is bit-identical.
        let par = coupled_dynamic_outcomes_parallel(
            &g,
            0,
            Mode::PushPull,
            &model,
            CoupledEngine::Sequential,
            8,
            11,
            60.0,
            10_000_000,
            100_000,
            4,
        );
        assert_eq!(par, seq);
    }

    #[test]
    fn trials_are_independent_of_each_other() {
        // Different trials use different seeds: times should not all
        // coincide on a graph with randomness.
        let g = generators::complete(16);
        let times = sync_spreading_times(&g, 0, Mode::PushPull, 30, 3, 10_000);
        let first = times[0];
        assert!(times.iter().any(|&t| t != first));
    }

    #[test]
    fn high_probability_time_is_a_high_quantile() {
        let samples: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let hp = high_probability_time(&samples, 50);
        assert!(hp >= 98.0, "expected a near-max quantile, got {hp}");
        // n = 1: the 0-quantile is the minimum.
        assert_eq!(high_probability_time(&samples, 1), 1.0);
    }

    #[test]
    fn default_max_steps_scales_with_n() {
        let small = default_max_steps(&generators::path(4));
        let large = default_max_steps(&generators::path(64));
        assert!(large > small);
        assert!(small >= 100_000);
    }

    #[test]
    #[should_panic(expected = "at least one thread")]
    fn zero_threads_rejected() {
        run_trials_parallel(4, 1, 0, |i, _| i);
    }

    #[test]
    fn censoring_warnings_route_through_the_sink() {
        use crate::obs::{set_warning_sink, Warning, WarningSink};
        use std::sync::{Arc, Mutex};
        let seen: Arc<Mutex<Vec<Warning>>> = Arc::new(Mutex::new(Vec::new()));
        let sink_seen = Arc::clone(&seen);
        let prev = set_warning_sink(WarningSink::Custom(Box::new(move |w| {
            sink_seen.lock().unwrap().push(w.clone());
        })));
        // A 2-round budget censors every trial on a 64-path.
        let g = generators::path(64);
        let times = sync_spreading_times(&g, 0, Mode::PushPull, 4, 7, 2);
        set_warning_sink(prev);
        assert_eq!(times.len(), 4);
        let seen = seen.lock().unwrap();
        // Other tests may warn concurrently through the same global
        // sink; find ours by its `what` tag.
        let w = seen
            .iter()
            .find(|w| w.what == "sync_spreading_times")
            .expect("censored wrapper run emits a warning");
        assert_eq!(w.censored, 4);
        assert_eq!(w.trials, 4);
        assert!(w.message.contains("4/4 trials exhausted their budget"), "{}", w.message);
    }
}
