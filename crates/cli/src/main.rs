//! The `univsa` command-line tool (see the library crate for the
//! subcommand documentation).

use std::process::ExitCode;

use univsa_cli::{run, Command};

fn main() -> ExitCode {
    // Fleet workers are this same binary re-executed with the worker
    // environment variable set; they never parse arguments — stdout is
    // reserved for IPC frames.
    if univsa_dist::worker_env_requested() {
        return match univsa_dist::worker_main(&univsa_dist::standard_registry()) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("worker error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let command = match Command::parse_os(std::env::args_os().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("run `univsa help` for usage");
            return ExitCode::FAILURE;
        }
    };
    // the UNIVSA_METRICS_ADDR environment variable serves live metrics
    // for any subcommand; when unset this spawns no thread and opens no
    // socket. The guard holds the endpoint open for the whole run.
    let metrics = match univsa_telemetry::exporter_from_env() {
        Ok(server) => server,
        Err(e) => {
            eprintln!(
                "error: cannot serve metrics ({}): {e}",
                univsa_telemetry::METRICS_ENV_VAR
            );
            return ExitCode::FAILURE;
        }
    };
    if let Some(server) = &metrics {
        eprintln!(
            "metrics: serving http://{}/metrics (also /snapshot.json, /healthz)",
            server.local_addr()
        );
    }
    let mut stdout = std::io::stdout().lock();
    let outcome = run(command, &mut stdout);
    drop(metrics);
    if let Err(e) = univsa_telemetry::flush() {
        eprintln!("warning: telemetry flush failed: {e}");
    }
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
