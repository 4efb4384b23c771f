//! Shared experiment infrastructure: configuration, the graph suite, and
//! sampling helpers.

use rumor_core::asynchronous::AsyncView;
use rumor_core::runner;
use rumor_core::spec::{Protocol, RunReport, SimSpec};
use rumor_core::Mode;
use rumor_graph::{generators, Graph, Node};
use rumor_sim::rng::Xoshiro256PlusPlus;

/// Controls how much work an experiment does.
///
/// `quick()` keeps every experiment under a few seconds for tests;
/// `full()` uses the full-scale trial counts, the configuration behind
/// the committed tables in EXPERIMENTS_DYNAMIC.md and EXPERIMENTS_ENGINE.md.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExperimentConfig {
    /// Monte-Carlo trials per configuration.
    pub trials: usize,
    /// Master seed; every trial derives its own seed from it.
    pub master_seed: u64,
    /// Worker threads for parallel trial running.
    pub threads: usize,
    /// Scale factor applied to the graph sizes of each experiment
    /// (1 = the full-scale sizes; quick configs shrink).
    pub full_scale: bool,
}

impl ExperimentConfig {
    /// Full-scale configuration (the one behind the committed tables).
    pub fn full() -> Self {
        Self { trials: 400, master_seed: 0xC0FFEE, threads: default_threads(), full_scale: true }
    }

    /// Reduced configuration for tests and smoke runs.
    pub fn quick() -> Self {
        Self { trials: 60, master_seed: 0xC0FFEE, threads: default_threads(), full_scale: false }
    }

    /// Replaces the master seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.master_seed = seed;
        self
    }

    /// Replaces the trial count (builder style).
    pub fn with_trials(mut self, trials: usize) -> Self {
        self.trials = trials;
        self
    }
}

impl Default for ExperimentConfig {
    fn default() -> Self {
        Self::full()
    }
}

/// Number of worker threads: the machine's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map(|p| p.get()).unwrap_or(1)
}

/// Censoring-aware trial aggregation (PR 3 satellite).
///
/// A budget-exhausted (`completed == false`) trial reports the time of
/// its *last step*, which is a **lower bound** on the true spreading
/// time — averaging it as if complete silently biases `E[T]` downward,
/// worst exactly where the dynamics are most hostile (heavy churn,
/// adversarial cuts). `CensoredSamples` separates the two populations:
/// statistics come from completed trials only, and the censored count
/// is carried alongside so tables can disclose it.
#[derive(Debug, Clone, PartialEq)]
pub struct CensoredSamples {
    /// Spreading times of the trials that informed every node.
    pub completed: Vec<f64>,
    /// Number of trials that exhausted their budget first.
    pub censored: usize,
}

impl CensoredSamples {
    /// Splits `(time, completed)` trial outcomes (the shape of
    /// [`RunReport::outcome_pairs`]) into completed samples and a
    /// censored count.
    pub fn from_outcomes(outcomes: &[(f64, bool)]) -> Self {
        let completed =
            outcomes.iter().filter(|&&(_, done)| done).map(|&(t, _)| t).collect::<Vec<_>>();
        let censored = outcomes.len() - completed.len();
        Self { completed, censored }
    }

    /// Censoring-aware view of a [`SimSpec`] run's report.
    pub fn from_report(report: &RunReport) -> Self {
        Self::from_outcomes(&report.outcome_pairs())
    }

    /// Total trials observed.
    pub fn trials(&self) -> usize {
        self.completed.len() + self.censored
    }

    /// Mean spreading time over **completed** trials, or `None` when
    /// every trial was censored (there is no unbiased estimate to
    /// report).
    pub fn mean_completed(&self) -> Option<f64> {
        if self.completed.is_empty() {
            return None;
        }
        Some(self.completed.iter().copied().collect::<rumor_sim::stats::OnlineStats>().mean())
    }

    /// The mean formatted for a table cell: the completed-trials mean,
    /// or `"-"` when all trials censored.
    pub fn mean_cell(&self, decimals: usize) -> String {
        match self.mean_completed() {
            Some(m) => crate::table::fmt_f(m, decimals),
            None => "-".to_owned(),
        }
    }
}

/// A ratio cell between two (possibly missing) censoring-aware means:
/// `"-"` when either side has no completed trials, following the same
/// disclosed-censoring convention as [`CensoredSamples::mean_cell`]
/// (never a literal `NaN` in the table).
pub fn ratio_cell(numerator: Option<f64>, denominator: Option<f64>, decimals: usize) -> String {
    match (numerator, denominator) {
        (Some(n), Some(d)) => crate::table::fmt_f(n / d, decimals),
        _ => "-".to_owned(),
    }
}

/// A named graph instance with a designated rumor source.
#[derive(Debug, Clone)]
pub struct SuiteEntry {
    /// Family name (stable across sizes, used as a table key).
    pub name: &'static str,
    /// The instance.
    pub graph: Graph,
    /// Source vertex `u` for the spreading-time measurements.
    pub source: Node,
}

/// The standard graph suite at target size `n`: every family the paper
/// names, instantiated as close to `n` nodes as the family permits.
///
/// Random families are drawn from `rng` (one instance per call); the
/// spreading-time randomness is separate, so experiments measure
/// `T(α, G, u)` on a fixed `G` exactly as the paper defines it.
///
/// Sources are chosen adversarially where the paper does: the star
/// spreads from a *leaf* (the slow case for asynchrony), the diamond
/// chain from the first hub, the double star from a leaf of the first
/// center.
pub fn standard_suite(n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<SuiteEntry> {
    assert!(n >= 16, "suite sizes start at 16");
    let dim = (n as f64).log2().round().max(2.0) as u32;
    let (k, m) = generators::diamond_parameters(n);
    let p_conn = 2.0 * (n as f64).ln() / n as f64;
    vec![
        SuiteEntry { name: "star", graph: generators::star(n), source: 1 },
        SuiteEntry { name: "path", graph: generators::path(n), source: 0 },
        SuiteEntry { name: "cycle", graph: generators::cycle(n), source: 0 },
        SuiteEntry { name: "hypercube", graph: generators::hypercube(dim), source: 0 },
        SuiteEntry { name: "complete", graph: generators::complete(n), source: 0 },
        SuiteEntry {
            name: "gnp",
            graph: generators::gnp_connected(n, p_conn, rng, 200),
            source: 0,
        },
        SuiteEntry {
            name: "random-regular-6",
            graph: generators::random_regular_connected(n - n % 2, 6, rng, 500),
            source: 0,
        },
        SuiteEntry {
            name: "chung-lu-2.5",
            graph: generators::chung_lu_giant(n, 2.5, 8.0, 0.7, rng),
            source: 0,
        },
        SuiteEntry {
            name: "pref-attach-2",
            graph: generators::preferential_attachment(n, 2, rng),
            source: (n - 1) as Node,
        },
        SuiteEntry {
            name: "double-star",
            graph: generators::double_star(n / 2 - 1, n - n / 2 - 1),
            source: 2,
        },
        SuiteEntry { name: "diamonds", graph: generators::string_of_diamonds(k, m), source: 0 },
    ]
}

/// The regular-graph suite for Corollary 3 and the push-doubling claim.
pub fn regular_suite(n: usize, rng: &mut Xoshiro256PlusPlus) -> Vec<SuiteEntry> {
    assert!(n >= 16, "suite sizes start at 16");
    let dim = (n as f64).log2().round().max(2.0) as u32;
    let side = (n as f64).sqrt().round().max(3.0) as usize;
    vec![
        SuiteEntry { name: "cycle", graph: generators::cycle(n), source: 0 },
        SuiteEntry { name: "torus", graph: generators::torus(side, side), source: 0 },
        SuiteEntry { name: "hypercube", graph: generators::hypercube(dim), source: 0 },
        SuiteEntry {
            name: "random-regular-3",
            graph: generators::random_regular_connected(n - n % 2, 3, rng, 500),
            source: 0,
        },
        SuiteEntry {
            name: "random-regular-8",
            graph: generators::random_regular_connected(n - n % 2, 8, rng, 500),
            source: 0,
        },
        SuiteEntry { name: "complete", graph: generators::complete(n), source: 0 },
    ]
}

/// Graph sizes for suite-sweep experiments under the given config.
pub fn sweep_sizes(cfg: &ExperimentConfig) -> Vec<usize> {
    if cfg.full_scale {
        vec![64, 256, 1024]
    } else {
        vec![32, 64]
    }
}

/// Derives an experiment-local master seed so different experiments (and
/// different sampling passes within one experiment) read independent
/// randomness from one user-facing seed.
pub fn mix_seed(cfg: &ExperimentConfig, salt: u64) -> u64 {
    cfg.master_seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(13)
        ^ salt.wrapping_mul(0xD134_2543_DE82_EF95)
}

/// A generous synchronous round budget for the graphs in this workspace.
pub fn sync_round_budget(g: &Graph) -> u64 {
    1_000 * g.node_count() as u64 + 10_000
}

/// A [`SimSpec`] pre-filled with an experiment's trial plan (trials,
/// mixed seed, threads) for a suite entry — the one builder every
/// experiment driver composes its runs from.
pub fn suite_spec(entry: &SuiteEntry, cfg: &ExperimentConfig, salt: u64) -> SimSpec {
    SimSpec::on_graph(&entry.graph)
        .source(entry.source)
        .trials(cfg.trials)
        .seed(mix_seed(cfg, salt))
        .threads(cfg.threads)
}

/// Samples `cfg.trials` synchronous spreading times on a suite entry.
pub fn sample_sync(entry: &SuiteEntry, mode: Mode, cfg: &ExperimentConfig, salt: u64) -> Vec<f64> {
    suite_spec(entry, cfg, salt)
        .protocol(Protocol::Sync { mode })
        .max_rounds(sync_round_budget(&entry.graph))
        .build()
        .expect("suite specs are valid")
        .run()
        .values()
}

/// Samples `cfg.trials` asynchronous spreading times on a suite entry.
pub fn sample_async(
    entry: &SuiteEntry,
    mode: Mode,
    view: AsyncView,
    cfg: &ExperimentConfig,
    salt: u64,
) -> Vec<f64> {
    suite_spec(entry, cfg, salt)
        .protocol(Protocol::Async { mode, view })
        .max_steps(runner::default_max_steps(&entry.graph))
        .build()
        .expect("suite specs are valid")
        .run()
        .values()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rumor_graph::props;

    /// The PR 3 censoring regression: with a tiny budget every trial is
    /// censored and the aggregation must say so instead of averaging
    /// the truncated times.
    #[test]
    fn censored_trials_are_counted_not_averaged() {
        let g = generators::path(64);
        let report = SimSpec::on_graph(&g)
            .protocol(Protocol::push_pull_async())
            .trials(10)
            .seed(7)
            .max_steps(5) // 5 steps cannot inform a 64-node path
            .build()
            .unwrap()
            .run();
        let samples = CensoredSamples::from_report(&report);
        assert_eq!(samples.censored, 10);
        assert!(samples.completed.is_empty());
        assert_eq!(samples.mean_completed(), None, "no unbiased estimate exists");
        assert_eq!(samples.mean_cell(3), "-");
        assert_eq!(samples.trials(), 10);

        // Mixed population: only the completed times enter the mean.
        let mixed = CensoredSamples::from_outcomes(&[(2.0, true), (1.0, false), (4.0, true)]);
        assert_eq!(mixed.censored, 1);
        assert_eq!(mixed.mean_completed(), Some(3.0));
        assert_eq!(mixed.mean_cell(1), "3.0");

        // Ratio cells inherit the "-" convention instead of printing NaN.
        assert_eq!(ratio_cell(Some(6.0), Some(3.0), 1), "2.0");
        assert_eq!(ratio_cell(None, Some(3.0), 1), "-");
        assert_eq!(ratio_cell(Some(6.0), None, 1), "-");
    }

    #[test]
    fn configs_differ_in_scale() {
        let q = ExperimentConfig::quick();
        let f = ExperimentConfig::full();
        assert!(q.trials < f.trials);
        assert!(!q.full_scale && f.full_scale);
        assert_eq!(q.with_trials(5).trials, 5);
        assert_eq!(q.with_seed(9).master_seed, 9);
    }

    #[test]
    fn standard_suite_is_connected_and_sized() {
        let mut rng = Xoshiro256PlusPlus::seed_from(1);
        let suite = standard_suite(64, &mut rng);
        assert!(suite.len() >= 10);
        for entry in &suite {
            assert!(props::is_connected(&entry.graph), "{} disconnected", entry.name);
            assert!(
                (entry.source as usize) < entry.graph.node_count(),
                "{} source out of range",
                entry.name
            );
            let n = entry.graph.node_count();
            assert!((32..=128).contains(&n), "{} size {n} too far from target 64", entry.name);
        }
    }

    #[test]
    fn regular_suite_is_regular() {
        let mut rng = Xoshiro256PlusPlus::seed_from(2);
        for entry in regular_suite(64, &mut rng) {
            assert!(entry.graph.regular_degree().is_some(), "{} is not regular", entry.name);
            assert!(props::is_connected(&entry.graph), "{} disconnected", entry.name);
        }
    }

    #[test]
    fn sweep_sizes_scale_with_config() {
        assert!(
            sweep_sizes(&ExperimentConfig::quick()).len()
                < sweep_sizes(&ExperimentConfig::full()).len()
                || sweep_sizes(&ExperimentConfig::quick()).iter().max()
                    < sweep_sizes(&ExperimentConfig::full()).iter().max()
        );
    }
}
