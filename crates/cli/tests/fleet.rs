//! End-to-end fleet tests against the real `univsa` binary.
//!
//! Two layers are exercised here and nowhere else:
//!
//! * the worker-mode hook in `main.rs` — these tests spawn the compiled
//!   CLI binary (`CARGO_BIN_EXE_univsa`) either directly as a subcommand
//!   (whose supervisor then re-executes *itself* as workers) or as an
//!   explicit `worker_exe`, and
//! * real crash/hang/corruption recovery across process boundaries,
//!   driven by the seeded chaos harness.
//!
//! Everything asserts the robustness contract: worker failures cost
//! retries, never results — stdout stays bit-identical.

use std::collections::HashMap;
use std::process::Command;
use std::time::Duration;

use univsa::ChaosSpec;
use univsa_dist::{standard_registry, Job, Supervisor, SupervisorOptions, ECHO_KIND, FAIL_KIND};

const EXE: &str = env!("CARGO_BIN_EXE_univsa");

fn fleet_options(workers: usize) -> SupervisorOptions {
    SupervisorOptions {
        workers,
        worker_exe: Some(EXE.into()),
        // tight deadlines keep the failure-path tests fast; generous
        // retry budget keeps them deterministic under load
        task_deadline: Duration::from_secs(10),
        spawn_deadline: Duration::from_secs(20),
        max_attempts: 6,
        backoff_base: Duration::from_millis(5),
        backoff_cap: Duration::from_millis(50),
        seed: 7,
        ..SupervisorOptions::default()
    }
}

fn echo_jobs(n: usize) -> Vec<Job> {
    (0..n)
        .map(|i| Job::new(ECHO_KIND, format!("payload-{i}").into_bytes()))
        .collect()
}

fn expected_echoes(n: usize) -> Vec<Vec<u8>> {
    (0..n)
        .map(|i| format!("payload-{i}").into_bytes())
        .collect()
}

#[test]
fn process_workers_echo_in_job_order() {
    let supervisor = Supervisor::new(fleet_options(2), standard_registry());
    let (results, report) = supervisor.run_jobs(&echo_jobs(8)).unwrap();
    assert_eq!(results, expected_echoes(8));
    assert_eq!(report.workers, 2);
    assert!(report.spawned >= 2, "{report:?}");
    assert_eq!(report.fallback_jobs, 0, "{report:?}");
}

/// Satellite regression test: a worker crashing on task 0 (every
/// attempt on one slot) still lets the whole sweep finish — surviving
/// workers and retries absorb the failure.
#[test]
fn crash_on_task_zero_is_absorbed_by_retries() {
    let mut options = fleet_options(2);
    options.chaos = ChaosSpec {
        // kill_task crashes only (task 0, attempt 0); the retry rolls a
        // fresh attempt and survives
        kill_task: Some(0),
        seed: 11,
        ..ChaosSpec::default()
    };
    let supervisor = Supervisor::new(options, standard_registry());
    let (results, report) = supervisor.run_jobs(&echo_jobs(6)).unwrap();
    assert_eq!(results, expected_echoes(6));
    assert!(report.crashes >= 1, "{report:?}");
    assert!(report.retries >= 1, "{report:?}");
    // the crashed slot was respawned
    assert!(report.spawned >= 3, "{report:?}");
}

#[test]
fn sustained_crash_and_corruption_chaos_yields_identical_results() {
    let baseline = {
        let supervisor = Supervisor::new(fleet_options(0), standard_registry());
        supervisor.run_jobs(&echo_jobs(12)).unwrap().0
    };
    let mut options = fleet_options(3);
    options.chaos = ChaosSpec {
        crash: 0.3,
        corrupt: 0.2,
        slow_start: 0.5,
        slow_start_ms: 20,
        seed: 13,
        ..ChaosSpec::default()
    };
    let supervisor = Supervisor::new(options, standard_registry());
    let (results, report) = supervisor.run_jobs(&echo_jobs(12)).unwrap();
    assert_eq!(results, baseline);
    assert!(
        report.crashes + report.corrupt_frames >= 1,
        "chaos at these rates must fire at least once: {report:?}"
    );
}

#[test]
fn hang_chaos_is_reaped_by_the_deadline() {
    let mut options = fleet_options(2);
    options.task_deadline = Duration::from_millis(1500);
    options.chaos = ChaosSpec {
        hang: 0.35,
        seed: 17,
        ..ChaosSpec::default()
    };
    let supervisor = Supervisor::new(options, standard_registry());
    let (results, report) = supervisor.run_jobs(&echo_jobs(6)).unwrap();
    assert_eq!(results, expected_echoes(6));
    assert!(report.timeouts >= 1, "{report:?}");
}

#[test]
fn task_error_aborts_with_the_message_verbatim() {
    let supervisor = Supervisor::new(fleet_options(2), standard_registry());
    let jobs = vec![
        Job::new(ECHO_KIND, b"ok".to_vec()),
        Job::new(FAIL_KIND, b"exact failure text".to_vec()),
    ];
    let err = supervisor.run_jobs(&jobs).unwrap_err();
    assert_eq!(
        err.to_string(),
        "worker failed: exact failure text",
        "first worker error must propagate verbatim"
    );
}

fn run_cli(args: &[&str], envs: &[(&str, &str)]) -> (String, String, bool) {
    let mut cmd = Command::new(EXE);
    cmd.args(args)
        .env_remove("UNIVSA_WORKERS")
        .env_remove("UNIVSA_CHAOS")
        .env_remove("UNIVSA_TELEMETRY");
    for (k, v) in envs {
        cmd.env(k, v);
    }
    let output = cmd.output().expect("spawn univsa CLI");
    (
        String::from_utf8_lossy(&output.stdout).into_owned(),
        String::from_utf8_lossy(&output.stderr).into_owned(),
        output.status.success(),
    )
}

/// Satellite determinism matrix: `univsa search` stdout is bit-identical
/// across worker counts {0, 2, 4} × crash rates {0, 0.2} (plus a 30%
/// cell for the acceptance bar). The surrogate objective keeps the cost
/// at fleet overhead only.
#[test]
fn search_stdout_is_bit_identical_across_workers_and_chaos() {
    let base = [
        "search",
        "--task",
        "bci3v",
        "--population",
        "6",
        "--generations",
        "2",
        "--seed",
        "21",
        "--surrogate",
    ];
    let mut outputs: HashMap<String, Vec<String>> = HashMap::new();
    for (workers, chaos) in [
        ("0", None),
        ("2", None),
        ("4", None),
        ("2", Some("crash=0.2,seed=5")),
        ("4", Some("crash=0.2,corrupt=0.1,seed=5")),
        ("2", Some("crash=0.3,seed=9")),
    ] {
        let mut args: Vec<&str> = base.to_vec();
        args.extend(["--workers", workers]);
        if let Some(spec) = chaos {
            args.extend(["--chaos", spec]);
        }
        let (stdout, stderr, ok) = run_cli(&args, &[]);
        assert!(ok, "workers={workers} chaos={chaos:?} failed: {stderr}");
        outputs
            .entry(stdout)
            .or_default()
            .push(format!("workers={workers} chaos={chaos:?}"));
    }
    assert_eq!(
        outputs.len(),
        1,
        "stdout diverged between cells: {:?}",
        outputs.values().collect::<Vec<_>>()
    );
}

#[test]
fn workers_env_var_drives_the_fleet() {
    let args = [
        "search",
        "--task",
        "bci3v",
        "--population",
        "4",
        "--generations",
        "1",
        "--surrogate",
    ];
    let (baseline, _, ok) = run_cli(&args, &[]);
    assert!(ok);
    let (stdout, stderr, ok) = run_cli(&args, &[("UNIVSA_WORKERS", "2")]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, baseline);
    // the fleet actually ran: its counters go to stderr only
    assert!(stderr.contains("fleet:"), "{stderr}");
    assert!(!baseline.contains("fleet:"));
}

#[test]
fn seu_campaign_is_identical_in_and_out_of_process() {
    let args = [
        "seu",
        "--task",
        "bci3v",
        "--trials",
        "3",
        "--samples",
        "8",
        "--seed",
        "4",
    ];
    let with = |workers: &str| {
        let mut a: Vec<&str> = args.to_vec();
        a.extend(["--workers", workers]);
        let (stdout, stderr, ok) = run_cli(&a, &[]);
        assert!(ok, "workers={workers}: {stderr}");
        stdout
    };
    let solo = with("0");
    assert!(solo.contains("tmr"), "{solo}");
    assert_eq!(with("2"), solo);
}

#[test]
fn seu_samples_wider_than_their_job_field_are_refused() {
    // `--samples` travels as a u32 job field: 2^32 + 1 must be refused
    // by name, not run as the 1 sample its low 32 bits spell
    let (stdout, stderr, ok) = run_cli(
        &[
            "seu",
            "--task",
            "bci3v",
            "--trials",
            "2",
            "--samples",
            "4294967297",
            "--workers",
            "0",
            "--seed",
            "3",
        ],
        &[],
    );
    assert!(!ok, "{stdout}");
    assert!(stderr.contains("samples = 4294967297"), "{stderr}");
}

/// Tentpole: the cross-process trace merges every worker's spans into
/// one timeline — one Chrome-trace pid per worker slot (100 + slot),
/// every worker span re-parented under a supervisor `dist.task` dispatch
/// region — and the causal *shape* is deterministic: the edge multiset
/// (parent `cat.name` → child `cat.name`) is identical at any worker
/// count even though ids and timings differ run to run.
#[test]
fn fleet_trace_merges_worker_spans_under_dispatch_regions() {
    let edges_for = |workers: &str| {
        let path = std::env::temp_dir().join(format!(
            "univsa_fleet_trace_{}_{workers}.json",
            std::process::id()
        ));
        let (_, stderr, ok) = run_cli(
            &[
                "profile",
                "--task",
                "bci3v",
                "--epochs",
                "1",
                "--samples",
                "2",
                "--seed",
                "9",
                "--workers",
                workers,
                "--trace",
                &path.to_string_lossy(),
            ],
            &[],
        );
        assert!(ok, "workers={workers}: {stderr}");
        let json = std::fs::read_to_string(&path).expect("trace written");
        std::fs::remove_file(&path).ok();
        let doc = univsa::json::parse(json.as_bytes()).expect("valid trace JSON");
        let events = doc
            .get("traceEvents")
            .and_then(univsa::json::Json::as_arr)
            .expect("traceEvents array");
        let str_of = |e: &univsa::json::Json, key: &str| match e.get(key) {
            Some(univsa::json::Json::Str(s)) => s.clone(),
            _ => String::new(),
        };
        let num_of = |e: &univsa::json::Json, key: &str| e.get(key).and_then(|v| v.as_f64());
        // span id → "cat.name" over the complete (X) events of every pid
        let mut names: HashMap<u64, String> = HashMap::new();
        for e in events {
            if str_of(e, "ph") == "X" {
                if let Some(id) = e
                    .get("args")
                    .and_then(|a| a.get("id"))
                    .and_then(|v| v.as_f64())
                {
                    names.insert(
                        id as u64,
                        format!("{}.{}", str_of(e, "cat"), str_of(e, "name")),
                    );
                }
            }
        }
        let mut edges: Vec<(String, String)> = Vec::new();
        for e in events {
            let pid = num_of(e, "pid").unwrap_or(0.0) as u64;
            if str_of(e, "ph") != "X" || pid < 100 {
                continue;
            }
            let parent = e
                .get("args")
                .and_then(|a| a.get("parent"))
                .and_then(|v| v.as_f64())
                .expect("worker spans are re-parented under a dispatch region")
                as u64;
            edges.push((
                names.get(&parent).expect("parent span exists").clone(),
                format!("{}.{}", str_of(e, "cat"), str_of(e, "name")),
            ));
        }
        edges.sort();
        edges
    };
    let single = edges_for("1");
    let double = edges_for("2");
    assert!(!single.is_empty(), "fleet phase must forward worker spans");
    assert!(
        single
            .iter()
            .all(|(p, c)| p == "dist.task" && c == "worker.task"),
        "{single:?}"
    );
    assert_eq!(
        single, double,
        "causal shape must not depend on fleet width"
    );
}

/// `profile --workers N` prints one row per worker slot, the rows' jobs
/// add up to the probe jobs dispatched, and the fleet rollup follows —
/// with telemetry off, because the fleet phase records on its own.
#[test]
fn profile_workers_prints_the_per_slot_fleet_table() {
    let args = "profile --task bci3v --epochs 1 --samples 4 --workers 2";
    let (stdout, stderr, ok) = run_cli(&args.split(' ').collect::<Vec<_>>(), &[]);
    assert!(ok, "{stderr}");
    // 2 workers dispatch max(2 * 2, 4) probe jobs
    assert!(
        stdout.contains("fleet: 4 probe job(s) over 2 worker slot(s)"),
        "{stdout}"
    );
    let rows: Vec<Vec<&str>> = stdout
        .lines()
        .skip_while(|line| !line.trim_start().starts_with("slot"))
        .skip(1)
        .take_while(|line| !line.starts_with("fleet rollup"))
        .map(|row| row.split_whitespace().collect())
        .collect();
    assert_eq!(rows.len(), 2, "one row per slot: {stdout}");
    let jobs: u64 = rows
        .iter()
        .map(|cells| cells[1].parse::<u64>().unwrap())
        .sum();
    assert_eq!(jobs, 4, "{stdout}");
    assert!(stdout.contains("\nfleet rollup: 4 job(s), "), "{stdout}");
    // recording was scoped to the fleet phase: the run still reports
    // telemetry off, as it does without --workers
    assert!(stdout.contains("telemetry: off"), "{stdout}");
}

/// Satellite: `UNIVSA_TELEMETRY=summary` surfaces the dist-layer and
/// forwarded per-worker/fleet counters in the summary table on stderr.
#[test]
fn summary_mode_reports_fleet_and_worker_counters() {
    let (_, stderr, ok) = run_cli(
        &[
            "search",
            "--task",
            "bci3v",
            "--population",
            "4",
            "--generations",
            "1",
            "--surrogate",
            "--workers",
            "2",
        ],
        &[("UNIVSA_TELEMETRY", "summary")],
    );
    assert!(ok, "{stderr}");
    assert!(stderr.contains("--- telemetry summary ---"), "{stderr}");
    assert!(stderr.contains("dist.workers"), "{stderr}");
    assert!(stderr.contains("fleet.jobs"), "{stderr}");
    assert!(stderr.contains("worker.0.jobs"), "{stderr}");
}

/// Chaos safety: with every telemetry batch scrambled in flight, the
/// corrupt frames are dropped and counted on stderr while stdout stays
/// bit-identical to the fleet-less baseline.
#[test]
fn corrupt_telemetry_chaos_never_perturbs_results() {
    let base = [
        "search",
        "--task",
        "bci3v",
        "--population",
        "4",
        "--generations",
        "1",
        "--seed",
        "33",
        "--surrogate",
    ];
    let (baseline, _, ok) = run_cli(&base, &[]);
    assert!(ok);
    let mut args: Vec<&str> = base.to_vec();
    args.extend(["--workers", "2", "--chaos", "corrupt-telemetry=1.0,seed=5"]);
    let (stdout, stderr, ok) = run_cli(&args, &[("UNIVSA_TELEMETRY", "summary")]);
    assert!(ok, "{stderr}");
    assert_eq!(stdout, baseline, "telemetry loss must never change results");
    let dropped: u64 = stderr
        .lines()
        .find_map(|line| {
            let rest = line.strip_suffix(" telemetry batches dropped")?;
            rest.rsplit(' ').next()?.parse().ok()
        })
        .expect("fleet line reports dropped batches");
    assert!(dropped >= 1, "every batch was scrambled: {stderr}");
}

#[test]
fn cli_errors_exit_nonzero_with_one_line_message() {
    // argument-parse failure
    let (_, stderr, ok) = run_cli(&["search"], &[]);
    assert!(!ok);
    assert!(stderr.contains("missing required --task"), "{stderr}");
    // typed I/O failure with the offending path in the message
    let (_, stderr, ok) = run_cli(&["info", "--model", "/nonexistent/model.uvsa"], &[]);
    assert!(!ok);
    assert!(stderr.contains("/nonexistent/model.uvsa"), "{stderr}");
}

#[cfg(unix)]
#[test]
fn non_utf8_argument_exits_1_with_a_typed_error() {
    use std::ffi::OsStr;
    use std::os::unix::ffi::OsStrExt;
    let output = Command::new(EXE)
        .args(["info", "--model"])
        .arg(OsStr::from_bytes(b"\xff.uvsa"))
        .output()
        .expect("spawn univsa CLI");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(stderr.contains("argument 3 is not valid UTF-8"), "{stderr}");
}
