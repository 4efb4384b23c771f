//! perfbench: the repository benchmark harness.
//!
//! One process drives the workspace crates through their public API
//! (`SimSpec::parse`/`build`/`build_cached`, `Simulation::run`,
//! `rumor_fleet::report_to_json` + `Json::render`, `SweepSpec::parse`,
//! `rumor_fleet::dispatch`) and, for `serve_mixed`, the real `rumor
//! serve` binary as a stdio child. Each layer is timed from outside by
//! bracketing the calls into it.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --rumor <path to the rumor binary> [--size full|tiny]
//!           [--digests <file>]
//! perfbench --describe --workload <name> --seed <n> [--size ...]
//! perfbench --write-digests <file>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed`, and `metrics` (the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`).

mod batch;
mod pools;
mod serve;
mod sweep;
mod trace;
mod util;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use pools::Size;
use trace::Tracer;

/// The end-to-end metrics every workload reports with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("trials_per_s", "1/s"),
    ("requests_per_s", "1/s"),
    ("request_p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
];

/// Printed with the end-to-end metrics but left out of the JSON result:
/// on a shared 2-core machine the tail moves 15-30% between runs of
/// identical inputs, more than any regression bound could absorb.
const PRINTED_ONLY: &[(&str, &str)] = &[("request_p99_ms", "ms")];

/// The per-layer metrics every workload reports with `--trace 1`
/// (zero where the workload leaves the layer idle).
pub const PER_LAYER: &[(&str, &str)] = &[
    ("spec.parse_s", "s"),
    ("spec.parse_calls", "count"),
    ("spec.build_s", "s"),
    ("spec.build_calls", "count"),
    ("graph.edges_built", "count"),
    ("cache.graph_hits", "count"),
    ("cache.graph_misses", "count"),
    ("cache.trace_hits", "count"),
    ("cache.trace_misses", "count"),
    ("cache.graph_hit_ratio", "ratio"),
    ("cache.trace_hit_ratio", "ratio"),
    ("engine.run_s", "s"),
    ("engine.run_calls", "count"),
    ("engine.steps", "count"),
    ("engine.topology_events", "count"),
    ("engine.trace_steps", "count"),
    ("engine.censored_trials", "count"),
    ("report.serialize_s", "s"),
    ("report.bytes", "bytes"),
    ("serve.requests", "count"),
    ("serve.error_frames", "count"),
    ("frame.bytes_in", "bytes"),
    ("frame.bytes_out", "bytes"),
    ("dispatch.calls", "count"),
    ("sweep.children", "count"),
    ("dispatch.retries", "count"),
    ("dispatch.jobs_spread", "count"),
    ("harness.check_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.uncovered_s", "s"),
    ("trace.coverage_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Per-layer timings that only one workload exercises: printed by name
/// with `--trace 1`, but kept out of the JSON result, where they would
/// read exactly 0 on every run of the other workloads. Beside these,
/// `engine.run_s.<label>` is printed for every label of
/// [`pools::engine_labels`].
pub const PER_LAYER_PRINTED_ONLY: &[(&str, &str)] = &[
    ("engine.ns_per_step", "ns"),
    ("engine.ns_per_topology_event", "ns"),
    ("serve.roundtrip_s", "s"),
    ("serve.transport_s", "s"),
    ("serve.engine_share", "ratio"),
    ("dispatch.s", "s"),
    ("sweep.expand_s", "s"),
];

pub const WORKLOADS: &[&str] =
    &["static_pushpull", "dynamic_churn", "serve_mixed", "sweep_workers"];

/// Shared state of one benchmark run.
pub struct Ctx {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub size: Size,
    pub rumor: PathBuf,
    pub digests: PathBuf,
    pub tracer: Tracer,
    /// Metric values by name, with the line of context printed beside
    /// them (base, sample count, percentile used).
    pub values: BTreeMap<String, (f64, String)>,
    pub attempted: u64,
    pub failed: u64,
    /// Peak RSS (KiB) of the largest set of children alive at once.
    pub child_rss_kib: u64,
    /// Human-readable lines printed before the metrics.
    pub info: Vec<String>,
}

impl Ctx {
    pub fn set(&mut self, name: impl Into<String>, value: f64, note: impl Into<String>) {
        self.values.insert(name.into(), (value, note.into()));
    }

    /// Counts one checked operation; prints why when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("perfbench: check failed: {}", what());
            }
        }
    }

    /// Records request latencies (seconds, in order, `per_rep` requests
    /// to each repetition of the fixed work). `request_p50_ms` is the
    /// sustained median: the median latency of each repetition, taken at
    /// the slow-end decile over repetitions, as the rates are.
    /// `request_p99_ms` is the p99 of all samples; the note gives the
    /// sample count and the highest percentile with at least ten samples
    /// beyond it.
    pub fn latencies(&mut self, unit_of_work: &str, samples_s: &[f64], per_rep: usize) {
        let ms: Vec<f64> = samples_s.iter().map(|s| s * 1e3).collect();
        let reps: Vec<f64> = ms.chunks(per_rep).map(util::median).collect();
        let n = ms.len();
        let tail = util::tail_percentile(n)
            .map_or("none (fewer than 11 samples)".to_owned(), |p| format!("p{p}"));
        self.set(
            "request_p50_ms",
            util::sustained_time(&reps),
            format!(
                "median of each of {} repetitions of {per_rep} x {unit_of_work}, 90th percentile over them; \
                 over all {n} samples p50 {:.6} ms",
                reps.len(),
                util::median(&ms)
            ),
        );
        self.set(
            "request_p99_ms",
            util::quantile(&ms, 0.99),
            format!("{n} samples of one {unit_of_work}; highest percentile with >= 10 samples beyond it: {tail}"),
        );
    }

    /// `trace.*`: wall time of the traced phase, the part no layer span
    /// covers, and the traced/untraced wall ratio.
    pub fn trace_summary(&mut self, from: u64, to: u64, wall_t: f64, wall_u: f64) {
        let covered = self.tracer.covered_ns(from, to) as f64 / 1e9;
        let wall = (to - from) as f64 / 1e9;
        self.set("trace.wall_s", wall, "traced phase wall time");
        self.set("trace.uncovered_s", wall - covered, "traced wall time outside every layer span");
        self.set(
            "trace.coverage_ratio",
            covered / wall,
            format!("base: {covered:.3} s in root spans / {wall:.3} s wall"),
        );
        self.set(
            "trace.overhead_ratio",
            wall_t / wall_u,
            format!("base: traced {wall_t:.3} s / untraced {wall_u:.3} s over the same work"),
        );
        let mut lines = Vec::new();
        for (name, t) in self.tracer.layers(from, u64::MAX) {
            lines.push(format!(
                "layer {name:<18} self {:>10.6} s  count {:>7}",
                t.self_ns as f64 / 1e9,
                t.count
            ));
        }
        self.info.extend(lines);
    }

    /// `engine.run_s.<label>`: engine time of each spec family, from the
    /// `engine.run` spans.
    pub fn engine_by_label(&mut self, what: &str) {
        for (label, ns) in self.tracer.by_label("engine.run") {
            if !label.is_empty() {
                let note = format!("Simulation::run of {label} {what}");
                self.set(format!("engine.run_s.{label}"), ns as f64 / 1e9, note);
            }
        }
    }

    /// Records `setup_s` as the median of the set-up repetitions.
    pub fn setup(&mut self, what: &str, samples_s: &[f64]) {
        self.set(
            "setup_s",
            util::median(samples_s),
            format!("median of {} set-ups: {what}", samples_s.len()),
        );
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
    rumor: PathBuf,
    digests: PathBuf,
    describe: bool,
    write_digests: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        size: Size::Full,
        rumor: PathBuf::new(),
        digests: PathBuf::from("perfbench/digests.txt"),
        describe: false,
        write_digests: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--describe" {
            a.describe = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => a.workload = value,
            "--seed" => a.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => a.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => a.trace = value == "1",
            "--size" => {
                a.size = match value.as_str() {
                    "full" => Size::Full,
                    "tiny" => Size::Tiny,
                    _ => return Err(bad(&"expected full or tiny")),
                }
            }
            "--rumor" => a.rumor = value.into(),
            "--digests" => a.digests = value.into(),
            "--write-digests" => a.write_digests = Some(value.into()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if a.write_digests.is_none() && !WORKLOADS.contains(&a.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    if !a.seconds.is_finite() || a.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(a)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(path) = &args.write_digests {
        return match batch::write_digests(path) {
            Ok(n) => {
                eprintln!("perfbench: wrote {n} digests to {}", path.display());
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if args.describe {
        println!("{}", describe(&args.workload, args.size, args.seed));
        return ExitCode::SUCCESS;
    }
    let mut ctx = Ctx {
        workload: args.workload.clone(),
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        size: args.size,
        rumor: args.rumor,
        digests: args.digests,
        tracer: Tracer::new(),
        values: BTreeMap::new(),
        attempted: 0,
        failed: 0,
        child_rss_kib: 0,
        info: Vec::new(),
    };
    let result = match ctx.workload.as_str() {
        "static_pushpull" | "dynamic_churn" => batch::run(&mut ctx),
        "serve_mixed" => serve::run(&mut ctx),
        _ => sweep::run(&mut ctx),
    };
    if let Err(e) = result {
        eprintln!("perfbench: {} failed: {e}", ctx.workload);
        return ExitCode::FAILURE;
    }
    finish(&mut ctx)
}

/// A digest of the generated inputs (the self-test compares seeds).
fn describe(workload: &str, size: Size, seed: u64) -> String {
    let texts: Vec<String> = match workload {
        "static_pushpull" | "dynamic_churn" => {
            pools::batch_specs(workload, size, seed).into_iter().map(|s| s.text).collect()
        }
        "serve_mixed" => {
            let pool = pools::serve_pool(size, seed);
            pools::serve_stream(&pool, seed, 2000)
                .into_iter()
                .map(|i| pool[i].text.clone())
                .collect()
        }
        _ => vec![pools::sweep_text(size, seed)],
    };
    format!(
        "{{\"workload\":\"{workload}\",\"inputs\":{},\"digest\":\"{:016x}\"}}",
        texts.len(),
        util::fnv(texts.concat().as_bytes())
    )
}

fn finish(ctx: &mut Ctx) -> ExitCode {
    if let Ok(stat) = std::fs::read_to_string("/proc/thread-self/schedstat") {
        let f: Vec<f64> = stat.split_whitespace().filter_map(|v| v.parse().ok()).collect();
        if f.len() >= 2 {
            ctx.info.push(format!(
                "main thread on cpu {:.3} s, waiting for a cpu {:.3} s",
                f[0] / 1e9,
                f[1] / 1e9
            ));
        }
    }
    let harness_kib = util::vm_hwm_kib("self").unwrap_or(0);
    let mb = |kib: u64| kib as f64 / 1024.0;
    ctx.set(
        "peak_rss_mb",
        mb(harness_kib + ctx.child_rss_kib),
        format!(
            "VmHWM: harness {:.1} MB + children alive at once {:.1} MB",
            mb(harness_kib),
            mb(ctx.child_rss_kib)
        ),
    );
    if ctx.trace {
        let build = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".to_owned());
        let path = PathBuf::from(build)
            .join("perfbench")
            .join(format!("spans-{}-{}.jsonl", ctx.workload, ctx.seed));
        match ctx.tracer.write_jsonl(&path) {
            Ok(()) => ctx.info.push(format!(
                "{} spans written to {}",
                ctx.tracer.spans().len(),
                path.display()
            )),
            Err(e) => eprintln!("perfbench: writing spans: {e}"),
        }
    }
    println!(
        "perfbench workload={} seed={} seconds={} trace={} size={}",
        ctx.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        ctx.size.name()
    );
    for line in &ctx.info {
        println!("  {line}");
    }
    let names: &[(&str, &str)] = if ctx.trace { PER_LAYER } else { END_TO_END };
    let mut json = Vec::new();
    let mut missing = Vec::new();
    for &(name, unit) in names {
        // An idle layer reads 0; an end-to-end metric must be measured.
        let (value, note) = match ctx.values.get(name) {
            Some(v) => v.clone(),
            None if ctx.trace => (0.0, "idle on this workload".to_owned()),
            None => (f64::NAN, String::new()),
        };
        if !value.is_finite() {
            missing.push(name);
            continue;
        }
        println!("  {name:<30} {value:>16.6} {unit:<6} {note}");
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    let mut printed_only: Vec<(String, &str)> = if ctx.trace {
        PER_LAYER_PRINTED_ONLY.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    } else {
        PRINTED_ONLY.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
    };
    if ctx.trace {
        // Every label pools.rs defines, and any other label a span carried.
        let mut labels: Vec<String> =
            pools::engine_labels().into_iter().map(|l| format!("engine.run_s.{l}")).collect();
        for name in ctx.values.keys().filter(|n| n.starts_with("engine.run_s.")) {
            if !labels.contains(name) {
                labels.push(name.clone());
            }
        }
        printed_only.extend(labels.into_iter().map(|l| (l, "s")));
    }
    for (name, unit) in printed_only {
        let (value, note) =
            ctx.values.get(&name).cloned().unwrap_or((0.0, "idle on this workload".to_owned()));
        println!("  {name:<30} {value:>16.6} {unit:<6} {note} (printed only)");
    }
    println!(
        "  {:<30} {:>16.6} {:<6} {} of {} checked operations failed",
        "failed_ratio",
        ctx.failed as f64 / ctx.attempted.max(1) as f64,
        "ratio",
        ctx.failed,
        ctx.attempted
    );
    if !missing.is_empty() {
        eprintln!("perfbench: no finite value for {missing:?}");
        return ExitCode::FAILURE;
    }
    if ctx.attempted == 0 {
        eprintln!("perfbench: nothing was attempted");
        return ExitCode::FAILURE;
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ctx.failed == 0,
        ctx.attempted,
        ctx.failed,
        json.join(", ")
    );
    ExitCode::SUCCESS
}
