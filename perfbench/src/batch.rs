//! `static_pushpull` and `dynamic_churn`: a fixed set of specs, parsed
//! and built (the set-up), then run to rendered reports over and over
//! for the timed phase, one pass over all specs at a time. Every report
//! is checked against the digest committed for its spec in
//! `digests.txt`.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::time::Instant;

use rumor_core::spec::{SimSpec, Simulation};
use rumor_fleet::report_to_json;

use crate::pools::{self, BatchSpec, Size};
use crate::util::{fnv, median, quantile, sustained};
use crate::Ctx;

struct Built {
    label: &'static str,
    /// Static topology, uncoupled: engine time is protocol steps only.
    steps_only: bool,
    sim: Simulation,
    expected: Option<u64>,
}

/// Counts accumulated per spec family over a phase.
#[derive(Default, Clone, Copy)]
struct FamilyCounts {
    steps_only: bool,
    steps: u64,
    topology_events: u64,
    engine_ns: u64,
}

#[derive(Default)]
struct Phase {
    passes: u64,
    trial_rates: Vec<f64>,
    request_rates: Vec<f64>,
    latencies: Vec<f64>,
    trials: u64,
    trace_steps: u64,
    censored: u64,
    report_bytes: u64,
    families: BTreeMap<&'static str, FamilyCounts>,
}

fn load_digests(path: &Path) -> Result<HashMap<u64, u64>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading digests {}: {e}", path.display()))?;
    let mut out = HashMap::new();
    for line in text.lines().filter(|l| !l.starts_with('#') && !l.trim().is_empty()) {
        let mut f = line.split_whitespace();
        let hex = |s: Option<&str>| {
            s.and_then(|s| u64::from_str_radix(s, 16).ok())
                .ok_or_else(|| format!("bad digest line `{line}`"))
        };
        out.insert(hex(f.next())?, hex(f.next())?);
    }
    Ok(out)
}

fn report_digest(sim: &Simulation) -> u64 {
    fnv(report_to_json(&sim.run()).render().as_bytes())
}

/// Regenerates the committed digest file: every variant of every batch
/// family, at both sizes.
pub fn write_digests(path: &Path) -> Result<usize, String> {
    let mut lines = vec![
        "# perfbench expected report digests: <fnv64 of spec text> <fnv64 of rendered report> <workload> <size> <label> <variant>".to_owned(),
        "# Regenerate with: perfbench --write-digests perfbench/digests.txt".to_owned(),
    ];
    for workload in ["static_pushpull", "dynamic_churn"] {
        for size in [Size::Full, Size::Tiny] {
            for s in pools::all_batch_specs(workload, size) {
                let spec = SimSpec::parse(&s.text).map_err(|e| format!("{}: {e}", s.label))?;
                let sim = spec.build().map_err(|e| format!("{}: {e}", s.label))?;
                lines.push(format!(
                    "{:016x} {:016x} {workload} {} {} {}",
                    fnv(s.text.as_bytes()),
                    report_digest(&sim),
                    size.name(),
                    s.label,
                    s.variant
                ));
            }
        }
    }
    std::fs::write(path, lines.join("\n") + "\n").map_err(|e| e.to_string())?;
    Ok(lines.len() - 2)
}

/// Parses and builds every spec (one set-up).
fn setup(ctx: &mut Ctx, specs: &[BatchSpec], digests: &HashMap<u64, u64>) -> (Vec<Built>, u64) {
    let mut built = Vec::with_capacity(specs.len());
    let mut edges = 0u64;
    for s in specs {
        let parsed = ctx.tracer.span("spec.parse", s.label, || SimSpec::parse(&s.text));
        let sim = match parsed {
            Ok(spec) => ctx.tracer.span("spec.build", s.label, || spec.build()),
            Err(e) => Err(e),
        };
        match sim {
            Ok(sim) => {
                edges += sim.graph().edge_count() as u64;
                built.push(Built {
                    label: s.label,
                    steps_only: s.text.contains("topology = static\n")
                        && s.text.contains("coupled = false\n"),
                    sim,
                    expected: digests.get(&fnv(s.text.as_bytes())).copied(),
                });
            }
            Err(e) => ctx.check(false, || format!("{} failed to build: {e}", s.label)),
        }
    }
    (built, edges)
}

/// Runs every built spec once to its rendered report (one pass) and
/// adds the counts to `ph`.
fn pass(ctx: &mut Ctx, built: &[Built], ph: &mut Phase) {
    let pass_start = Instant::now();
    let mut pass_trials = 0u64;
    for (i, b) in built.iter().enumerate() {
        ctx.tracer.op(ph.passes * built.len() as u64 + i as u64 + 1);
        let t0 = Instant::now();
        let report = ctx.tracer.span("engine.run", b.label, || b.sim.run());
        let t1 = Instant::now();
        let text = ctx.tracer.span("report.serialize", "", || report_to_json(&report).render());
        ph.latencies.push(t0.elapsed().as_secs_f64());
        let ok = ctx.tracer.span("harness.check", "", || Some(fnv(text.as_bytes())) == b.expected);
        ctx.check(ok, || match b.expected {
            Some(_) => format!("{} report does not match its committed digest", b.label),
            None => format!("{} has no committed digest", b.label),
        });
        pass_trials += report.trials() as u64;
        ph.trace_steps += report.telemetry.trace_steps;
        ph.censored += report.censored() as u64;
        ph.report_bytes += text.len() as u64;
        let fam = ph.families.entry(b.label).or_default();
        fam.steps_only = b.steps_only;
        fam.steps += report.telemetry.steps;
        fam.topology_events += report.telemetry.topology_events;
        fam.engine_ns += (t1 - t0).as_nanos() as u64;
    }
    let pass_s = pass_start.elapsed().as_secs_f64();
    ph.passes += 1;
    ph.trials += pass_trials;
    ph.trial_rates.push(pass_trials as f64 / pass_s);
    ph.request_rates.push(built.len() as f64 / pass_s);
}

/// Runs passes over `built` until `seconds` have elapsed, or exactly
/// `exact_passes` passes.
fn timed(ctx: &mut Ctx, built: &[Built], seconds: f64, exact_passes: Option<u64>) -> Phase {
    let mut ph = Phase::default();
    let start = Instant::now();
    loop {
        pass(ctx, built, &mut ph);
        let done = match exact_passes {
            Some(n) => ph.passes >= n,
            None => start.elapsed().as_secs_f64() >= seconds,
        };
        if done || built.is_empty() {
            return ph;
        }
    }
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let specs = pools::batch_specs(&ctx.workload, ctx.size, ctx.seed);
    let digests = load_digests(&ctx.digests)?;
    for s in &specs {
        let graph = s.text.lines().find_map(|l| l.strip_prefix("graph = ")).unwrap_or("");
        ctx.info.push(format!("spec {} variant {} ({graph})", s.label, s.variant));
    }
    if !ctx.trace {
        // The set-up is redone before every pass, so the median of the
        // set-ups samples the whole run rather than one moment of it on
        // a host whose speed drifts. The passes are timed without it.
        let (mut setups, mut ph) = (Vec::new(), Phase::default());
        let start = Instant::now();
        loop {
            let t = Instant::now();
            let built = setup(ctx, &specs, &digests).0;
            setups.push(t.elapsed().as_secs_f64());
            pass(ctx, &built, &mut ph);
            if built.is_empty() || start.elapsed().as_secs_f64() >= ctx.seconds {
                break;
            }
        }
        ctx.setup("parse + build of every spec (graph generation), one before each pass", &setups);
        let note = format!(
            "sustained rate (10th percentile) over {} passes of the fixed trial set ({} trials per pass)",
            ph.passes,
            ph.trials / ph.passes.max(1)
        );
        ctx.info.push(format!(
            "pass trial rates p10 {:.1} p50 {:.1} p90 {:.1} max {:.1}",
            quantile(&ph.trial_rates, 0.1),
            median(&ph.trial_rates),
            quantile(&ph.trial_rates, 0.9),
            quantile(&ph.trial_rates, 1.0)
        ));
        ctx.set("trials_per_s", sustained(&ph.trial_rates), note.clone());
        ctx.set(
            "requests_per_s",
            sustained(&ph.request_rates),
            format!("{note}; a request is one spec run to its rendered report"),
        );
        ctx.latencies("spec run to rendered report", &ph.latencies, specs.len().max(1));
        return Ok(());
    }

    // Untraced reference phase, then the same work traced.
    let t = Instant::now();
    let (built, _) = setup(ctx, &specs, &digests);
    let untraced = timed(ctx, &built, ctx.seconds / 2.0, None);
    let wall_u = t.elapsed().as_secs_f64();
    drop(built);
    ctx.tracer.enable(true);
    let from = ctx.tracer.now_ns();
    let t = Instant::now();
    let (built, edges) = setup(ctx, &specs, &digests);
    let ph = timed(ctx, &built, 0.0, Some(untraced.passes));
    let wall_t = t.elapsed().as_secs_f64();
    let to = ctx.tracer.now_ns();
    ctx.tracer.enable(false);
    layer_metrics(ctx, &ph, edges, from, to, wall_t, wall_u);
    Ok(())
}

fn layer_metrics(
    ctx: &mut Ctx,
    ph: &Phase,
    edges: u64,
    from: u64,
    to: u64,
    wall_t: f64,
    wall_u: f64,
) {
    let layers = ctx.tracer.layers(from, to);
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let s = |ns: u64| ns as f64 / 1e9;
    let parse = get("spec.parse");
    let build = get("spec.build");
    let run = get("engine.run");
    let ser = get("report.serialize");
    let check = get("harness.check");
    ctx.set("spec.parse_s", s(parse.self_ns), format!("{} calls", parse.count));
    ctx.set("spec.parse_calls", parse.count as f64, "SimSpec::parse calls");
    ctx.set(
        "spec.build_s",
        s(build.self_ns),
        format!("{} calls (graph generation included)", build.count),
    );
    ctx.set("spec.build_calls", build.count as f64, "SimSpec::build calls");
    ctx.set("graph.edges_built", edges as f64, format!("edges over {} builds", build.count));
    ctx.set(
        "engine.run_s",
        s(run.self_ns),
        format!("{} calls over {} passes", run.count, ph.passes),
    );
    ctx.set("engine.run_calls", run.count as f64, "Simulation::run calls");
    ctx.engine_by_label("spec");
    let (mut steps, mut topo, mut static_ns, mut static_steps, mut dyn_ns) = (0, 0, 0, 0, 0);
    for c in ph.families.values() {
        steps += c.steps;
        topo += c.topology_events;
        if c.steps_only {
            static_ns += c.engine_ns;
            static_steps += c.steps;
        } else if c.topology_events > 0 {
            dyn_ns += c.engine_ns;
        }
    }
    ctx.set("engine.steps", steps as f64, "protocol steps (telemetry)");
    ctx.set("engine.topology_events", topo as f64, "topology events (telemetry)");
    ctx.set("engine.trace_steps", ph.trace_steps as f64, "coupled trace steps (telemetry)");
    ctx.set("engine.censored_trials", ph.censored as f64, format!("of {} trials", ph.trials));
    if static_steps > 0 {
        ctx.set(
            "engine.ns_per_step",
            static_ns as f64 / static_steps as f64,
            format!(
                "base: {:.3} s engine time of static-topology specs / {static_steps} steps",
                s(static_ns)
            ),
        );
    }
    if topo > 0 {
        ctx.set(
            "engine.ns_per_topology_event",
            dyn_ns as f64 / topo as f64,
            format!(
                "base: {:.3} s engine time of dynamic specs / {topo} topology events",
                s(dyn_ns)
            ),
        );
    }
    ctx.set(
        "report.serialize_s",
        s(ser.self_ns),
        format!("{} report_to_json + render calls", ser.count),
    );
    ctx.set(
        "report.bytes",
        ph.report_bytes as f64,
        format!("rendered bytes over {} reports", ser.count),
    );
    ctx.set("harness.check_s", s(check.self_ns), format!("{} digest checks", check.count));
    ctx.trace_summary(from, to, wall_t, wall_u);
}
