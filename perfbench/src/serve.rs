//! `serve_mixed`: one closed-loop client sends frames over stdio to a
//! `rumor serve` child. Requests are drawn, seeded, from a skewed pool
//! of small static, dynamic, coupled, and invalid specs. Every response
//! must equal the uncached in-process report of its spec, or the error
//! the service gives for an invalid one.

use std::collections::HashMap;
use std::io::{self, BufReader};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Instant;

use rumor_core::obs::json::Json;
use rumor_core::spec::SimSpec;
use rumor_core::RunCaches;
use rumor_fleet::frame::{read_frame, write_frame};
use rumor_fleet::report_to_json;

use crate::pools::{self, ServeKind, ServeSpec, Size};
use crate::util::{median, quantile, sustained, vm_hwm_kib};
use crate::Ctx;

/// Requests of one lap's timed range at full size. Every lap spawns a
/// fresh server, sends the same warm-up prefix, then times the same
/// fixed range of the stream, so every lap (and every commit) serves
/// the same requests against the same cache history. The range is long
/// enough to see more distinct coupled trace keys than the service's
/// trace cache retains.
const LAP: usize = 16000;

/// Laps per run at least; `setup_s` is the median of their set-ups.
const MIN_LAPS: usize = 5;

struct Server {
    child: Child,
    /// `None` once closed.
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    bytes_in: u64,
    bytes_out: u64,
}

impl Server {
    fn spawn(rumor: &Path) -> io::Result<Server> {
        let mut child = Command::new(rumor)
            .arg("serve")
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| io::Error::new(e.kind(), format!("spawning {}: {e}", rumor.display())))?;
        let stdin = child.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        Ok(Server { child, stdin: Some(stdin), stdout, bytes_in: 0, bytes_out: 0 })
    }

    fn request(&mut self, payload: &[u8]) -> io::Result<Vec<u8>> {
        let stdin = self.stdin.as_mut().ok_or_else(|| io::Error::other("server is closed"))?;
        write_frame(stdin, payload)?;
        let response = read_frame(&mut self.stdout)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed its output")
        })?;
        self.bytes_out += payload.len() as u64 + 4;
        self.bytes_in += response.len() as u64 + 4;
        Ok(response)
    }

    fn counters(&mut self) -> io::Result<HashMap<String, f64>> {
        let doc = parse(&self.request(b"{\"id\": -1, \"stats\": true}")?)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let fields = doc.get("counters").and_then(Json::as_obj).unwrap_or(&[]);
        Ok(fields.iter().filter_map(|(k, v)| Some((k.clone(), v.as_num()?))).collect())
    }

    /// Reads the child's peak RSS, closes its input, and waits for it.
    fn close(mut self) -> io::Result<u64> {
        let hwm = vm_hwm_kib(&self.child.id().to_string()).unwrap_or(0);
        drop(self.stdin.take());
        let status = self.child.wait()?;
        if !status.success() {
            return Err(io::Error::other(format!("rumor serve exited with {status}")));
        }
        Ok(hwm)
    }
}

impl Drop for Server {
    /// On an error path the server may still be running: stop it and
    /// reap it, so the benchmark never leaves a process behind.
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

fn parse(bytes: &[u8]) -> Result<Json, String> {
    Json::parse(std::str::from_utf8(bytes).map_err(|e| e.to_string())?)
}

fn payload(id: usize, spec: &ServeSpec) -> Vec<u8> {
    Json::Obj(vec![
        ("id".to_owned(), Json::Num(id as f64)),
        ("spec".to_owned(), Json::Str(spec.text.clone())),
    ])
    .render()
    .into_bytes()
}

/// What the service must answer for a spec, computed in-process and
/// uncached: the rendered report, or the error message.
fn expected(spec: &ServeSpec) -> (Result<String, String>, u64) {
    match SimSpec::parse(&spec.text).and_then(|s| s.build()) {
        Ok(sim) => {
            let report = sim.run();
            (Ok(report_to_json(&report).render()), report.trials() as u64)
        }
        Err(e) => (Err(format!("bad spec: {e}")), 0),
    }
}

/// The rendered report of a response frame, or its error message.
fn response_body(response: &[u8]) -> Result<String, String> {
    let doc = parse(response).map_err(|e| format!("unparseable response: {e}"))?;
    match (doc.get("report"), doc.get("error").and_then(Json::as_str)) {
        (Some(r), _) => Ok(r.render()),
        (None, Some(e)) => Err(e.to_owned()),
        _ => Err("response has neither report nor error".to_owned()),
    }
}

/// One answered request: which pool entry, how long, and the raw
/// response.
struct Answer {
    entry: usize,
    latency_s: f64,
    response: Vec<u8>,
}

/// Sends `stream[range]` and records the answers.
fn send(
    ctx: &mut Ctx,
    server: &mut Server,
    pool: &[ServeSpec],
    stream: &[usize],
    range: std::ops::Range<usize>,
) -> io::Result<Vec<Answer>> {
    let mut out = Vec::with_capacity(range.len());
    for i in range {
        let entry = stream[i];
        let bytes = payload(i, &pool[entry]);
        ctx.tracer.op(i as u64);
        let t0 = Instant::now();
        let response = ctx
            .tracer
            .span("serve.roundtrip", pool[entry].kind.label(), || server.request(&bytes))?;
        out.push(Answer { entry, latency_s: t0.elapsed().as_secs_f64(), response });
    }
    Ok(out)
}

/// Checks every answer against the in-process expectation; returns the
/// error-frame count.
fn verify(
    ctx: &mut Ctx,
    pool: &[ServeSpec],
    answers: &[Answer],
    cache: &mut HashMap<usize, (Result<String, String>, u64)>,
) -> u64 {
    let mut errors = 0;
    for a in answers {
        let (want, _) = cache.entry(a.entry).or_insert_with(|| expected(&pool[a.entry]));
        let got = ctx.tracer.span("harness.check", "", || response_body(&a.response));
        errors += u64::from(got.is_err());
        let ok = &got == want;
        ctx.check(ok, || {
            format!(
                "serve response for pool entry {} ({}) differs from the in-process result",
                a.entry,
                pool[a.entry].kind.label()
            )
        });
    }
    errors
}

/// Counters of one timed lap, kept from the first lap for the report
/// (every lap serves the same requests, so they repeat).
struct LapStats {
    answers: Vec<Answer>,
    errors: u64,
    before: HashMap<String, f64>,
    after: HashMap<String, f64>,
}

/// Pins this process, and with it the server it spawns, to one CPU (the
/// last one it may use): a round trip then switches between client and
/// server on that CPU with no cross-CPU wakeup, whose cost on a virtual
/// machine swings with the host's load. Returns the CPU, or why the
/// process is not pinned.
fn pin_to_one_cpu() -> Result<String, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    let allowed = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
        .ok_or("no Cpus_allowed_list in /proc/self/status")?;
    let cpu = allowed.trim().rsplit([',', '-']).next().unwrap_or("0").to_owned();
    let out = Command::new("taskset")
        .args(["-a", "-c", "-p", &cpu, &std::process::id().to_string()])
        .output()
        .map_err(|e| format!("running taskset: {e}"))?;
    if !out.status.success() {
        return Err(format!("taskset exited with {}", out.status));
    }
    Ok(cpu)
}

pub fn run(ctx: &mut Ctx) -> Result<(), String> {
    let io = |e: io::Error| e.to_string();
    ctx.info.push(match pin_to_one_cpu() {
        Ok(cpu) => format!("client and server pinned to cpu {cpu}"),
        Err(e) => format!("client and server not pinned: {e}"),
    });
    let tiny = ctx.size == Size::Tiny;
    let (warmup, lap) = if tiny { (10, 100) } else { (100, LAP) };
    let pool = pools::serve_pool(ctx.size, ctx.seed);
    let stream = pools::serve_stream(&pool, ctx.seed, warmup + lap);
    let mut expect = HashMap::new();
    let rumor = ctx.rumor.clone();
    ctx.info.push(format!(
        "pool of {} specs, stream drawn with Zipf skew; closed loop, one client; \
         each lap: fresh server, {warmup} warm-up requests, then requests {warmup}..{} timed",
        pool.len(),
        warmup + lap
    ));

    if !ctx.trace {
        let (mut setups, mut walls, mut latencies) = (Vec::new(), Vec::new(), Vec::new());
        let mut first: Option<LapStats> = None;
        while walls.len() < MIN_LAPS || walls.iter().sum::<f64>() < ctx.seconds {
            let t = Instant::now();
            let mut server = Server::spawn(&rumor).map_err(io)?;
            let warm = send(ctx, &mut server, &pool, &stream, 0..warmup).map_err(io)?;
            setups.push(t.elapsed().as_secs_f64());
            let before = server.counters().map_err(io)?;
            let t = Instant::now();
            let answers =
                send(ctx, &mut server, &pool, &stream, warmup..warmup + lap).map_err(io)?;
            walls.push(t.elapsed().as_secs_f64());
            let after = server.counters().map_err(io)?;
            ctx.child_rss_kib = ctx.child_rss_kib.max(server.close().map_err(io)?);
            verify(ctx, &pool, &warm, &mut expect);
            let errors = verify(ctx, &pool, &answers, &mut expect);
            latencies.extend(answers.iter().map(|a| a.latency_s));
            first.get_or_insert(LapStats { answers, errors, before, after });
        }
        ctx.setup(&format!("spawn rumor serve + {warmup} warm-up requests"), &setups);
        end_to_end(ctx, &pool, first.as_ref().expect("a lap ran"), &expect, &walls, &latencies);
        return Ok(());
    }

    // Untraced reference lap on a fresh server.
    let t = Instant::now();
    let mut server = Server::spawn(&rumor).map_err(io)?;
    let untraced = send(ctx, &mut server, &pool, &stream, 0..warmup + lap).map_err(io)?;
    let wall_u = t.elapsed().as_secs_f64();
    ctx.child_rss_kib = ctx.child_rss_kib.max(server.close().map_err(io)?);
    verify(ctx, &pool, &untraced, &mut expect);
    let count = untraced.len();

    // The same lap traced, on another fresh server.
    ctx.tracer.enable(true);
    let from = ctx.tracer.now_ns();
    let t = Instant::now();
    let spawned = ctx.tracer.span("serve.spawn", "", || Server::spawn(&rumor));
    let mut server = spawned.map_err(io)?;
    let answers = send(ctx, &mut server, &pool, &stream, 0..count).map_err(io)?;
    let wall_t = t.elapsed().as_secs_f64();
    let to = ctx.tracer.now_ns();
    let (bytes_in, bytes_out) = (server.bytes_in, server.bytes_out);
    ctx.child_rss_kib = ctx.child_rss_kib.max(server.close().map_err(io)?);
    let errors = verify(ctx, &pool, &answers, &mut expect);
    ctx.tracer.enable(false);

    // The server-side split: replay the stream in-process through the
    // calls the service handler makes, on one shared cache.
    ctx.tracer.enable(true);
    let replay_from = ctx.tracer.now_ns();
    let caches = Arc::new(RunCaches::new());
    let mut engine = (0u64, 0u64, 0u64, 0u64);
    let mut report_bytes = 0u64;
    let mut edges_built = 0u64;
    for (i, &entry) in stream[..count].iter().enumerate() {
        let spec = &pool[entry];
        let label = spec.kind.label();
        ctx.tracer.op(i as u64);
        let parsed = ctx.tracer.span("spec.parse", label, || SimSpec::parse(&spec.text));
        let misses_before = graph_misses(&caches);
        let built = match parsed {
            Ok(s) => ctx.tracer.span("spec.build", label, || s.build_cached(&caches)),
            Err(e) => Err(e),
        };
        let got = match built {
            Ok(sim) => {
                if graph_misses(&caches) > misses_before {
                    edges_built += sim.graph().edge_count() as u64;
                }
                let report = ctx.tracer.span("engine.run", label, || sim.run());
                engine.0 += report.telemetry.steps;
                engine.1 += report.telemetry.topology_events;
                engine.2 += report.telemetry.trace_steps;
                engine.3 += report.censored() as u64;
                let text =
                    ctx.tracer.span("report.serialize", "", || report_to_json(&report).render());
                report_bytes += text.len() as u64;
                Ok(text)
            }
            Err(e) => Err(format!("bad spec: {e}")),
        };
        let want = &expect.entry(entry).or_insert_with(|| expected(spec)).0;
        ctx.check(&got == want, || {
            format!("in-process cached replay of pool entry {entry} differs")
        });
    }
    let replay_to = ctx.tracer.now_ns();
    ctx.tracer.enable(false);

    let layers = ctx.tracer.layers(replay_from, replay_to);
    let get = |name: &str| layers.get(name).copied().unwrap_or_default();
    let s = |ns: u64| ns as f64 / 1e9;
    let (parse_t, build_t, run_t, ser_t) =
        (get("spec.parse"), get("spec.build"), get("engine.run"), get("report.serialize"));
    ctx.set(
        "spec.parse_s",
        s(parse_t.self_ns),
        format!("{} calls, in-process replay", parse_t.count),
    );
    ctx.set("spec.parse_calls", parse_t.count as f64, "SimSpec::parse calls, in-process replay");
    ctx.set(
        "spec.build_s",
        s(build_t.self_ns),
        format!("{} build_cached calls, in-process replay", build_t.count),
    );
    ctx.set(
        "spec.build_calls",
        build_t.count as f64,
        "SimSpec::build_cached calls, in-process replay",
    );
    ctx.set("engine.run_s", s(run_t.self_ns), format!("{} calls, in-process replay", run_t.count));
    ctx.set("engine.run_calls", run_t.count as f64, "Simulation::run calls, in-process replay");
    ctx.engine_by_label("requests, in-process replay");
    ctx.set("engine.steps", engine.0 as f64, "protocol steps (telemetry), in-process replay");
    ctx.set(
        "engine.topology_events",
        engine.1 as f64,
        "topology events (telemetry), in-process replay",
    );
    ctx.set(
        "engine.trace_steps",
        engine.2 as f64,
        "coupled trace steps (telemetry), in-process replay",
    );
    ctx.set("engine.censored_trials", engine.3 as f64, "in-process replay");
    ctx.set(
        "report.serialize_s",
        s(ser_t.self_ns),
        format!("{} calls, in-process replay", ser_t.count),
    );
    ctx.set("report.bytes", report_bytes as f64, "rendered report bytes, in-process replay");
    ctx.set(
        "graph.edges_built",
        edges_built as f64,
        "edges of graphs built on a cache miss, in-process replay",
    );
    let c: HashMap<String, u64> = caches.counters().into_iter().collect();
    cache_metrics(ctx, &c);

    // Client-side view of the traced phase.
    let mut server_side: HashMap<u64, u64> = HashMap::new();
    for sp in
        ctx.tracer.spans().iter().filter(|sp| sp.start_ns >= replay_from && sp.parent.is_none())
    {
        *server_side.entry(sp.op).or_insert(0) += sp.end_ns - sp.start_ns;
    }
    let roundtrips: Vec<(u64, u64)> = ctx
        .tracer
        .spans()
        .iter()
        .filter(|sp| sp.name == "serve.roundtrip" && sp.start_ns >= from && sp.start_ns < to)
        .map(|sp| (sp.op, sp.end_ns - sp.start_ns))
        .collect();
    let roundtrip_ns: u64 = roundtrips.iter().map(|r| r.1).sum();
    let inside_ns: u64 =
        roundtrips.iter().map(|(op, _)| server_side.get(op).copied().unwrap_or(0)).sum();
    ctx.set(
        "serve.roundtrip_s",
        s(roundtrip_ns),
        format!("{} frame round trips", roundtrips.len()),
    );
    ctx.set(
        "serve.transport_s",
        s(roundtrip_ns.saturating_sub(inside_ns)),
        format!(
            "base: {:.3} s round trips - {:.3} s in-process layer sum of the same requests",
            s(roundtrip_ns),
            s(inside_ns)
        ),
    );
    ctx.set(
        "serve.engine_share",
        s(run_t.self_ns) / s(roundtrip_ns),
        format!(
            "base: {:.3} s engine.run_s (in-process replay) / {:.3} s round trips of the same requests",
            s(run_t.self_ns),
            s(roundtrip_ns)
        ),
    );
    ctx.set("serve.requests", answers.len() as f64, "requests in the traced phase");
    ctx.set("serve.error_frames", errors as f64, format!("of {} requests", answers.len()));
    ctx.set("frame.bytes_in", bytes_in as f64, "response bytes read, headers included");
    ctx.set("frame.bytes_out", bytes_out as f64, "request bytes written, headers included");
    ctx.trace_summary(from, to, wall_t, wall_u);
    Ok(())
}

fn graph_misses(caches: &RunCaches) -> u64 {
    caches.counters().into_iter().find(|(k, _)| k == "graph_cache_misses").map_or(0, |(_, v)| v)
}

fn cache_metrics(ctx: &mut Ctx, c: &HashMap<String, u64>) {
    let get = |k: &str| c.get(k).copied().unwrap_or(0);
    let (gh, gm, th, tm) = (
        get("graph_cache_hits"),
        get("graph_cache_misses"),
        get("trace_cache_hits"),
        get("trace_cache_misses"),
    );
    ctx.set("cache.graph_hits", gh as f64, "RunCaches counter");
    ctx.set("cache.graph_misses", gm as f64, "RunCaches counter");
    ctx.set("cache.trace_hits", th as f64, "RunCaches counter");
    ctx.set("cache.trace_misses", tm as f64, "RunCaches counter");
    ctx.set(
        "cache.graph_hit_ratio",
        gh as f64 / (gh + gm).max(1) as f64,
        format!("base: {gh} hits / {} graph lookups", gh + gm),
    );
    ctx.set(
        "cache.trace_hit_ratio",
        th as f64 / (th + tm).max(1) as f64,
        format!("base: {th} hits / {} trace lookups", th + tm),
    );
}

fn end_to_end(
    ctx: &mut Ctx,
    pool: &[ServeSpec],
    lap: &LapStats,
    expect: &HashMap<usize, (Result<String, String>, u64)>,
    walls: &[f64],
    latencies: &[f64],
) {
    let answers = &lap.answers;
    let n = answers.len();
    let trials: u64 = answers.iter().map(|a| expect[&a.entry].1).sum();
    let laps = walls.len();
    // Every lap does the same work, so the trial rate is a fixed
    // multiple of the request rate.
    let rates: Vec<f64> = walls.iter().map(|w| n as f64 / w).collect();
    let per_trial = trials as f64 / n as f64;
    ctx.info.push(format!(
        "lap request rates p10 {:.1} p50 {:.1} max {:.1}",
        sustained(&rates),
        median(&rates),
        quantile(&rates, 1.0)
    ));
    ctx.set(
        "requests_per_s",
        sustained(&rates),
        format!(
            "sustained rate (10th percentile) over {laps} laps of the same {n} requests; \
             closed loop, one client"
        ),
    );
    ctx.set(
        "trials_per_s",
        sustained(&rates) * per_trial,
        format!("trials served per second, sustained rate over {laps} laps of {trials} trials"),
    );
    ctx.latencies("frame round trip", latencies, n);
    let share =
        |k: ServeKind| answers.iter().filter(|a| pool[a.entry].kind == k).count() as f64 / n as f64;
    let delta = |k: &str| {
        lap.after.get(k).copied().unwrap_or(0.0) - lap.before.get(k).copied().unwrap_or(0.0)
    };
    let (gh, gm, th, tm) = (
        delta("graph_cache_hits"),
        delta("graph_cache_misses"),
        delta("trace_cache_hits"),
        delta("trace_cache_misses"),
    );
    let mut coupled: Vec<usize> = answers
        .iter()
        .filter(|a| pool[a.entry].kind == ServeKind::Coupled)
        .map(|a| a.entry)
        .collect();
    coupled.sort_unstable();
    coupled.dedup();
    let keys: u64 = coupled.iter().map(|e| expect[e].1).sum();
    ctx.info.push(format!(
        "timed requests per lap {n}: coupled share {:.3}, dynamic {:.3}, static {:.3}, error frames {:.3} ({})",
        share(ServeKind::Coupled),
        share(ServeKind::Dynamic),
        share(ServeKind::Static),
        lap.errors as f64 / n as f64,
        lap.errors
    ));
    ctx.info.push(format!(
        "cache over a lap's timed range: graph hits {gh} / {} lookups ({:.3}), trace hits {th} / {} lookups ({:.3}); \
         distinct coupled trace keys in the range {keys} (the service retains 1024)",
        gh + gm,
        gh / (gh + gm).max(1.0),
        th + tm,
        th / (th + tm).max(1.0),
    ));
}
