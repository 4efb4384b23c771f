//! End-to-end process-dispatch tests for `rumor sweep` / `rumor
//! worker`: the determinism contract (multi-process artifact ==
//! in-process artifact, byte for byte) and crash recovery (a worker
//! that dies mid-queue is respawned and its child retried, without
//! perturbing the artifact).
//!
//! These run the real binary (`CARGO_BIN_EXE_rumor`), not the library —
//! the self-exec worker default and the stdin/stdout frame protocol
//! only exist at the process boundary.

use std::path::PathBuf;
use std::process::Command;

fn rumor() -> Command {
    Command::new(env!("CARGO_BIN_EXE_rumor"))
}

fn write_sweep(stamp: &str) -> PathBuf {
    let text = "\
spec = v1
graph = complete n=10
source = 0
protocol = async mode=push-pull view=global-clock
topology = static
engine = sequential
trials = 4
seed = 7
threads = 1
loss = 0
max_steps = auto
max_rounds = auto
coupled = false
horizon = auto
antithetic = false
rng_contract = v2
metrics = off
sweep.graph.n = [10, 14]
sweep.protocol.mode = [push, push-pull]
";
    let path =
        std::env::temp_dir().join(format!("rumor_fleet_proc_{}_{stamp}.spec", std::process::id()));
    std::fs::write(&path, text).unwrap();
    path
}

fn run_sweep(spec: &PathBuf, out: &PathBuf, extra: &[&str]) -> std::process::Output {
    rumor()
        .arg("sweep")
        .arg(spec)
        .arg("--out")
        .arg(out)
        .args(extra)
        .output()
        .expect("rumor sweep runs")
}

#[test]
fn two_workers_match_sequential_byte_for_byte() {
    let spec = write_sweep("bytes");
    let seq = spec.with_extension("seq.json");
    let par = spec.with_extension("par.json");

    let out = run_sweep(&spec, &seq, &[]);
    assert!(out.status.success(), "sequential sweep failed: {out:?}");
    let out = run_sweep(&spec, &par, &["--workers", "2"]);
    assert!(out.status.success(), "2-worker sweep failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("workers: 2"), "{stdout}");

    let seq_bytes = std::fs::read(&seq).unwrap();
    let par_bytes = std::fs::read(&par).unwrap();
    assert!(!seq_bytes.is_empty());
    assert_eq!(seq_bytes, par_bytes, "artifact depends on worker count");

    for p in [spec, seq, par] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn killed_workers_are_retried_and_leave_no_trace_in_the_artifact() {
    let spec = write_sweep("crash");
    let clean = spec.with_extension("clean.json");
    let crashy = spec.with_extension("crashy.json");

    let out = run_sweep(&spec, &clean, &[]);
    assert!(out.status.success(), "sequential sweep failed: {out:?}");

    // Every worker serves one request and aborts on its second, so with
    // four children and two slots the dispatcher must respawn and retry
    // (a retried child always lands on a fresh worker, so the sweep
    // still completes).
    let crash_cmd = format!("{} worker --exit-after 1", env!("CARGO_BIN_EXE_rumor"));
    let out = run_sweep(&spec, &crashy, &["--workers", "2", "--worker-cmd", &crash_cmd]);
    assert!(out.status.success(), "crashy sweep failed: {out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stdout.contains("retries 0"), "expected retries, got: {stdout}");
    assert!(stderr.contains("worker crashed"), "expected crash warnings, got: {stderr}");

    assert_eq!(
        std::fs::read(&clean).unwrap(),
        std::fs::read(&crashy).unwrap(),
        "crash recovery leaked into the artifact"
    );

    for p in [spec, clean, crashy] {
        std::fs::remove_file(&p).ok();
    }
}

#[test]
fn worker_speaks_frames_on_stdio() {
    use std::io::{Read, Write};

    // One well-formed request, then EOF: the worker answers one report
    // frame and exits 0.
    let spec_text = "\
spec = v1
graph = complete n=6
source = 0
protocol = async mode=push-pull view=global-clock
topology = static
engine = sequential
trials = 2
seed = 3
threads = 1
loss = 0
max_steps = auto
max_rounds = auto
coupled = false
horizon = auto
antithetic = false
rng_contract = v2
metrics = off
";
    let escaped = spec_text.replace('\n', "\\n");
    let request = format!("{{\"id\": 1, \"spec\": \"{escaped}\"}}");
    let mut frame = (request.len() as u32).to_be_bytes().to_vec();
    frame.extend(request.as_bytes());

    let mut child = rumor()
        .arg("worker")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&frame).unwrap();
    let mut response = Vec::new();
    child.stdout.take().unwrap().read_to_end(&mut response).unwrap();
    assert!(child.wait().unwrap().success());

    let len = u32::from_be_bytes(response[..4].try_into().unwrap()) as usize;
    let body = std::str::from_utf8(&response[4..4 + len]).unwrap();
    assert!(body.contains("\"id\": 1"), "{body}");
    assert!(body.contains("\"report\""), "{body}");
    assert!(body.contains("\"unit\": \"time units\""), "{body}");
}

#[test]
fn serve_answers_a_too_deep_frame_with_an_error_and_keeps_serving() {
    use std::io::{Read, Write};

    fn frame(payload: &str) -> Vec<u8> {
        let mut out = (payload.len() as u32).to_be_bytes().to_vec();
        out.extend(payload.as_bytes());
        out
    }

    // 100k nested arrays: an unbounded recursive parser overflows the
    // stack on this and takes the whole service down with it.
    let deep = "[".repeat(100_000) + &"]".repeat(100_000);
    let spec_text = "\
spec = v1
graph = complete n=6
source = 0
protocol = async mode=push-pull view=global-clock
topology = static
engine = sequential
trials = 2
seed = 3
threads = 1
loss = 0
max_steps = auto
max_rounds = auto
coupled = false
horizon = auto
antithetic = false
rng_contract = v2
metrics = off
";
    let valid = format!("{{\"id\": 2, \"spec\": \"{}\"}}", spec_text.replace('\n', "\\n"));
    let mut input = frame(&deep);
    input.extend(frame(&valid));

    let mut child = rumor()
        .arg("serve")
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .unwrap();
    child.stdin.take().unwrap().write_all(&input).unwrap();
    let mut output = Vec::new();
    child.stdout.take().unwrap().read_to_end(&mut output).unwrap();
    assert!(child.wait().unwrap().success(), "serve must survive the deep frame");

    let mut bodies = Vec::new();
    let mut rest = output.as_slice();
    while !rest.is_empty() {
        let len = u32::from_be_bytes(rest[..4].try_into().unwrap()) as usize;
        bodies.push(std::str::from_utf8(&rest[4..4 + len]).unwrap().to_owned());
        rest = &rest[4 + len..];
    }
    assert_eq!(bodies.len(), 2, "{bodies:?}");
    assert!(bodies[0].contains("\"error\"") && bodies[0].contains("nesting"), "{}", bodies[0]);
    assert!(bodies[1].contains("\"id\": 2") && bodies[1].contains("\"report\""), "{}", bodies[1]);
}
