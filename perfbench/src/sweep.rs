//! `sweep_workers`: `rumor_fleet::dispatch` with 2 `rumor worker`
//! processes over a 16-child grid. Every merged `FleetReport` must be
//! byte-identical to the in-process (`workers = 0`) dispatch.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

use rumor_core::obs::json::Json;
use rumor_core::SweepSpec;
use rumor_fleet::{dispatch, DispatchOptions, FleetOutcome};

use crate::pools;
use crate::util::{child_pids, median, quantile, sustained, vm_hwm_kib};
use crate::Ctx;

const WORKERS: usize = 2;

/// Runs one dispatch while a sampler thread polls the peak RSS of the
/// worker processes; returns the outcome and the summed worker peaks
/// (KiB).
fn dispatch_sampled(
    sweep: &SweepSpec,
    options: &DispatchOptions,
) -> (Result<FleetOutcome, String>, u64) {
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let mut peaks: HashMap<u32, u64> = HashMap::new();
            loop {
                let last = done.load(Ordering::SeqCst);
                for pid in child_pids() {
                    if let Some(kib) = vm_hwm_kib(&pid.to_string()) {
                        let p = peaks.entry(pid).or_insert(0);
                        *p = (*p).max(kib);
                    }
                }
                if last {
                    return peaks.values().sum::<u64>();
                }
                std::thread::sleep(Duration::from_millis(5));
            }
        });
        let outcome = dispatch(sweep, options).map_err(|e| e.to_string());
        done.store(true, Ordering::SeqCst);
        (outcome, sampler.join().expect("RSS sampler panicked"))
    })
}

fn summary(doc: &Json, key: &str) -> f64 {
    doc.get("summary").and_then(|s| s.get(key)).and_then(Json::as_num).unwrap_or(0.0)
}

/// One timed dispatch: the merged document, rendered to artifact bytes.
struct Done {
    latency_s: f64,
    text: String,
    trials: f64,
    jobs_spread: usize,
    retries: usize,
}

/// One dispatch of the grid, rendered to its artifact bytes.
fn once(
    ctx: &mut Ctx,
    sweep: &SweepSpec,
    options: &DispatchOptions,
    op: u64,
) -> Result<Done, String> {
    ctx.tracer.op(op);
    let t0 = Instant::now();
    let open = ctx.tracer.begin("dispatch", "");
    let (outcome, workers_kib) = dispatch_sampled(sweep, options);
    ctx.tracer.end(open);
    let outcome = outcome?;
    let text = ctx.tracer.span("report.serialize", "", || outcome.doc.render());
    let latency_s = t0.elapsed().as_secs_f64();
    ctx.child_rss_kib = ctx.child_rss_kib.max(workers_kib);
    let jobs = &outcome.jobs_per_worker;
    Ok(Done {
        latency_s,
        trials: summary(&outcome.doc, "trials"),
        jobs_spread: jobs.iter().max().unwrap_or(&0) - jobs.iter().min().unwrap_or(&0),
        retries: outcome.retries,
        text,
    })
}

fn timed(
    ctx: &mut Ctx,
    sweep: &SweepSpec,
    options: &DispatchOptions,
    seconds: f64,
    exact: Option<usize>,
) -> Result<Vec<Done>, String> {
    let start = Instant::now();
    let mut out = Vec::new();
    loop {
        out.push(once(ctx, sweep, options, out.len() as u64)?);
        let done = match exact {
            Some(n) => out.len() >= n,
            None => start.elapsed().as_secs_f64() >= seconds,
        };
        if done {
            return Ok(out);
        }
    }
}

fn verify(ctx: &mut Ctx, runs: &[Done], reference: &str) {
    for (i, d) in runs.iter().enumerate() {
        let ok = ctx.tracer.span("harness.check", "", || d.text == reference);
        ctx.check(ok, || {
            format!("dispatch {i} with {WORKERS} workers differs from the in-process FleetReport")
        });
    }
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let text = pools::sweep_text(ctx.size, ctx.seed);
    let options = DispatchOptions {
        workers: WORKERS,
        worker_cmd: vec![ctx.rumor.to_string_lossy().into_owned(), "worker".to_owned()],
        ..DispatchOptions::default()
    };
    let parse = |t: &str| SweepSpec::parse(t).map_err(|e| format!("sweep does not parse: {e}"));
    let sweep = parse(&text)?;
    let reference = || -> Result<String, String> {
        let local = DispatchOptions { workers: 0, ..DispatchOptions::default() };
        Ok(dispatch(&sweep, &local).map_err(|e| e.to_string())?.doc.render())
    };
    ctx.info.push(format!(
        "{} workers ({}), grid of {} children",
        WORKERS,
        ctx.rumor.display(),
        sweep.axes().iter().map(|a| a.values.len()).product::<usize>()
    ));

    if !ctx.trace {
        // Parse alone takes a few microseconds and its timing is bimodal
        // between runs; reading and validating the sweep (expand builds
        // every child) is a set-up long enough to time. It is redone
        // before every dispatch, so the median of the set-ups samples
        // the whole run rather than one moment of it.
        let (mut setups, mut runs) = (Vec::new(), Vec::new());
        let start = Instant::now();
        while runs.is_empty() || start.elapsed().as_secs_f64() < ctx.seconds {
            let t = Instant::now();
            let children = parse(&text)?.expand().map_err(|e| e.to_string())?;
            setups.push(t.elapsed().as_secs_f64());
            drop(children);
            runs.push(once(ctx, &sweep, &options, runs.len() as u64)?);
        }
        ctx.setup(
            "SweepSpec::parse + SweepSpec::expand (validates every child), one before each dispatch",
            &setups,
        );
        verify(ctx, &runs, &reference()?);
        let rates: Vec<f64> = runs.iter().map(|d| d.trials / d.latency_s).collect();
        ctx.info.push(format!(
            "dispatch trial rates p10 {:.1} p50 {:.1} max {:.1}",
            sustained(&rates),
            median(&rates),
            quantile(&rates, 1.0)
        ));
        let note = format!(
            "sustained rate (10th percentile) over {} dispatches of the 16-child grid",
            runs.len()
        );
        ctx.set("trials_per_s", sustained(&rates), note.clone());
        let per_s: Vec<f64> = runs.iter().map(|d| 1.0 / d.latency_s).collect();
        ctx.set(
            "requests_per_s",
            sustained(&per_s),
            format!("{note}; a request is one dispatch to a rendered FleetReport"),
        );
        let lat: Vec<f64> = runs.iter().map(|d| d.latency_s).collect();
        ctx.latencies("dispatch to rendered FleetReport", &lat, 1);
        return Ok(());
    }

    // Untraced reference phase, then the same work traced.
    let t = Instant::now();
    let sweep_u = parse(&text)?;
    let children = sweep_u.expand().map_err(|e| e.to_string())?.len();
    let untraced = timed(ctx, &sweep_u, &options, ctx.seconds / 2.0, None)?;
    let wall_u = t.elapsed().as_secs_f64();
    ctx.tracer.enable(true);
    let from = ctx.tracer.now_ns();
    let t = Instant::now();
    let sweep_t = ctx.tracer.span("spec.parse", "sweep", || parse(&text))?;
    let expanded =
        ctx.tracer.span("sweep.expand", "", || sweep_t.expand()).map_err(|e| e.to_string())?;
    let runs = timed(ctx, &sweep_t, &options, 0.0, Some(untraced.len()))?;
    let wall_t = t.elapsed().as_secs_f64();
    let to = ctx.tracer.now_ns();
    // Price one build and one run of every child in-process, outside the
    // window: the workers do this work where no span can see it (and the
    // dispatcher builds each child twice, once in expand and once in the
    // worker).
    let mut edges = 0u64;
    let mut engine = (0u64, 0u64, 0u64, 0u64);
    for c in &expanded {
        let sim =
            ctx.tracer.span("spec.build", "", || c.spec.build()).map_err(|e| e.to_string())?;
        edges += sim.graph().edge_count() as u64;
        let report = ctx.tracer.span("engine.run", "", || sim.run());
        engine.0 += report.telemetry.steps;
        engine.1 += report.telemetry.topology_events;
        engine.2 += report.telemetry.trace_steps;
        engine.3 += report.censored() as u64;
    }
    let reference = reference()?;
    verify(ctx, &untraced, &reference);
    verify(ctx, &runs, &reference);
    ctx.tracer.enable(false);

    let layers = ctx.tracer.layers(from, u64::MAX);
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let s = |ns: u64| ns as f64 / 1e9;
    let (p, b, x, d, r) = (
        get("spec.parse"),
        get("spec.build"),
        get("sweep.expand"),
        get("dispatch"),
        get("report.serialize"),
    );
    ctx.set("spec.parse_s", s(p.self_ns), "SweepSpec::parse of the sweep file");
    ctx.set("spec.parse_calls", p.count as f64, "SweepSpec::parse calls");
    ctx.set(
        "spec.build_s",
        s(b.self_ns),
        format!("one build of each of {} children, priced outside the dispatch", b.count),
    );
    ctx.set("spec.build_calls", b.count as f64, "SimSpec::build calls (pricing probe)");
    ctx.set("graph.edges_built", edges as f64, format!("edges over {} child builds", b.count));
    ctx.set(
        "sweep.expand_s",
        s(x.self_ns),
        format!("one SweepSpec::expand ({children} children, each built)"),
    );
    ctx.set("sweep.children", children as f64, "children per dispatch");
    ctx.set(
        "dispatch.s",
        s(d.self_ns),
        format!("{} dispatch calls with {WORKERS} workers", d.count),
    );
    ctx.set("dispatch.calls", d.count as f64, "dispatch calls");
    ctx.set(
        "dispatch.retries",
        runs.iter().map(|r| r.retries).sum::<usize>() as f64,
        "crashed-worker retries",
    );
    ctx.set(
        "dispatch.jobs_spread",
        runs.iter().map(|r| r.jobs_spread).max().unwrap_or(0) as f64,
        "max - min jobs per worker, worst dispatch",
    );
    ctx.set("report.serialize_s", s(r.self_ns), format!("{} FleetReport renders", r.count));
    ctx.set(
        "report.bytes",
        runs.iter().map(|r| r.text.len()).sum::<usize>() as f64,
        "rendered FleetReport bytes",
    );
    let e = get("engine.run");
    let probe = "one in-process run of each child, outside the dispatch";
    ctx.set("engine.run_s", s(e.self_ns), format!("{} calls: {probe}", e.count));
    ctx.set("engine.run_calls", e.count as f64, probe);
    ctx.set("engine.steps", engine.0 as f64, format!("protocol steps (telemetry), {probe}"));
    ctx.set("engine.topology_events", engine.1 as f64, format!("topology events, {probe}"));
    ctx.set("engine.trace_steps", engine.2 as f64, format!("coupled trace steps, {probe}"));
    ctx.set("engine.censored_trials", engine.3 as f64, probe);
    ctx.set("harness.check_s", s(get("harness.check").self_ns), "FleetReport byte comparisons");
    ctx.trace_summary(from, to, wall_t, wall_u);
    Ok(())
}
