//! `rumor sweep`, `rumor worker`, and `rumor serve` — the fleet
//! commands.
//!
//! * `sweep file.spec [--workers N] [--pilot true] [--out PATH]` —
//!   expand the sweep, execute it (in-process, or across `N` worker
//!   processes), write the merged `FleetReport` artifact, and print a
//!   summary table. The artifact is byte-identical for every worker
//!   count; scheduling facts (jobs per worker, retries) go to stdout
//!   only.
//! * `worker [--exit-after N]` — the child-process end of the
//!   dispatcher protocol: length-prefixed JSON frames on stdin/stdout.
//!   Not for interactive use.
//! * `serve [--socket PATH] [--max-conn N]` — the long-running
//!   service: same protocol, with graph and topology-trace caches
//!   shared across requests.

use std::path::Path;
use std::sync::Arc;

use rumor_core::{RunCaches, SweepSpec};
use rumor_fleet::{
    dispatch, run_frames, serve_socket, DispatchOptions, ServiceConfig, ServiceExit,
};

use crate::args::Args;
use crate::error::CliError;

/// Runs the `sweep` subcommand.
pub fn sweep(tokens: &[String]) -> Result<String, CliError> {
    let args = Args::parse(tokens)?;
    let extra = args.keys_outside(&["workers", "pilot", "pilot-trials", "out", "worker-cmd"]);
    if !extra.is_empty() {
        return Err(CliError::Usage(format!("unknown sweep options: --{}", extra.join(" --"))));
    }
    let path = args.require(0, "sweep.spec")?;
    let options = DispatchOptions {
        workers: args.opt_parsed("workers", 0)?,
        worker_cmd: args.opt_str("worker-cmd", "").split_whitespace().map(str::to_owned).collect(),
        pilot: args.opt_parsed("pilot", false)?,
        pilot_trials: args.opt_parsed("pilot-trials", 4)?,
    };
    let text = std::fs::read_to_string(path)?;
    let sweep = SweepSpec::parse(&text)?;
    let outcome = dispatch(&sweep, &options)?;

    let artifact = match args.opt_str("out", "").as_str() {
        "" => default_artifact_path(path),
        out => out.to_owned(),
    };
    std::fs::write(&artifact, outcome.doc.render())?;

    let table = rumor_analysis::fleet_summary_table(&outcome.doc).map_err(CliError::Usage)?;
    let mut out = table.to_text();
    out.push_str(&format!("\nwrote {artifact}\n"));
    out.push_str(&format!(
        "workers: {} (jobs per worker {:?}, retries {})\n",
        outcome.jobs_per_worker.len(),
        outcome.jobs_per_worker,
        outcome.retries
    ));
    Ok(out)
}

/// The artifact path beside the spec: `x.spec` → `x.fleet.json`.
fn default_artifact_path(spec_path: &str) -> String {
    let stem = spec_path.strip_suffix(".spec").unwrap_or(spec_path);
    format!("{stem}.fleet.json")
}

/// Runs the `worker` subcommand (frames on stdin/stdout until EOF).
pub fn worker(tokens: &[String]) -> Result<String, CliError> {
    let args = Args::parse(tokens)?;
    let exit_after = match args.opt_str("exit-after", "").as_str() {
        "" => None,
        raw => Some(
            raw.parse()
                .map_err(|_| CliError::Usage(format!("cannot parse --exit-after from `{raw}`")))?,
        ),
    };
    let config = ServiceConfig { exit_after, ..ServiceConfig::default() };
    let exit = run_frames(&mut std::io::stdin().lock(), &mut std::io::stdout().lock(), &config)?;
    match exit {
        ServiceExit::Eof(_) => Ok(String::new()),
        ServiceExit::Aborted(n) => Err(CliError::Io(std::io::Error::other(format!(
            "worker aborted after {n} requests (--exit-after)"
        )))),
    }
}

/// Runs the `serve` subcommand: frames on stdin/stdout, or on a unix
/// socket with `--socket`; either way one [`RunCaches`] is shared
/// across every request served.
pub fn serve(tokens: &[String]) -> Result<String, CliError> {
    let args = Args::parse(tokens)?;
    let caches = Arc::new(RunCaches::default());
    let socket = args.opt_str("socket", "");
    if socket.is_empty() {
        let config = ServiceConfig { caches: Some(caches), ..ServiceConfig::default() };
        run_frames(&mut std::io::stdin().lock(), &mut std::io::stdout().lock(), &config)?;
        return Ok(String::new());
    }
    let max_conn = match args.opt_str("max-conn", "").as_str() {
        "" => None,
        raw => Some(
            raw.parse()
                .map_err(|_| CliError::Usage(format!("cannot parse --max-conn from `{raw}`")))?,
        ),
    };
    serve_socket(Path::new(&socket), caches, max_conn)?;
    Ok(String::new())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn write_sweep(stamp: &str) -> std::path::PathBuf {
        let text = "\
spec = v1
graph = complete n=6
source = 0
protocol = async mode=push-pull view=global-clock
topology = static
engine = sequential
trials = 3
seed = 5
threads = 1
loss = 0
max_steps = auto
max_rounds = auto
coupled = false
horizon = auto
antithetic = false
rng_contract = v2
metrics = off
sweep.graph.n = [6, 8]
";
        let path = std::env::temp_dir()
            .join(format!("rumor_fleet_cli_{}_{stamp}.spec", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn sweep_writes_the_artifact_beside_the_spec() {
        let spec = write_sweep("beside");
        let out = sweep(&[spec.to_str().unwrap().to_owned()]).unwrap();
        assert!(out.contains("fleet summary"), "{out}");
        assert!(out.contains("graph.n=6"), "{out}");
        let artifact = default_artifact_path(spec.to_str().unwrap());
        let text = std::fs::read_to_string(&artifact).unwrap();
        assert!(text.contains("\"schema\": \"rumor-fleet v1\""), "{text}");
        std::fs::remove_file(&spec).ok();
        std::fs::remove_file(&artifact).ok();
    }

    #[test]
    fn unknown_sweep_flags_are_rejected() {
        let err = sweep(&["x.spec".to_owned(), "--bogus".to_owned(), "1".to_owned()]).unwrap_err();
        assert!(err.to_string().contains("--bogus"), "{err}");
    }

    #[test]
    fn artifact_path_swaps_the_extension() {
        assert_eq!(default_artifact_path("a/b.spec"), "a/b.fleet.json");
        assert_eq!(default_artifact_path("noext"), "noext.fleet.json");
    }
}
