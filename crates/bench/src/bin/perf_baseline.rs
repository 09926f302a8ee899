//! Records the performance baseline for all paper configurations into a
//! machine-readable report (`BENCH_univsa.json` at the repo root), schema
//! `univsa-perf-baseline/v7`.
//!
//! Top level: `schema`, `quick` (whether `UNIVSA_QUICK=1` produced it),
//! `seed`, the worker-pool width and where it came from
//! (`threads`/`threads_source`), the SIMD `kernel_tier` active while
//! measuring, `total_seconds`, the process `peak_rss_bytes` (`VmHWM` from
//! `/proc/self/status`, `null` off Linux), the `git_commit` when run in a
//! git checkout, the `trace` path when `--trace PATH` captured a Chrome
//! trace-event JSON of the whole sweep, per-stage pool utilization
//! (`pool`, from [`univsa_par::stats`], also bridged into telemetry
//! counters), and — with `--workers N` — a `fleet` block from a probe-job
//! sweep over the supervised worker fleet (slot count, spawns, retries,
//! crashes, forwarded `fleet.*` job and allocation counters, dropped
//! telemetry batches).
//!
//! One row per Table I task:
//!
//! * `train_seconds`/`epochs` — training wall time with the harness
//!   epoch budget, and `train_speedup` against the report previously at
//!   the output path, when there is one;
//! * `test_accuracy` — held-out accuracy;
//! * `latency_us` — exact per-sample latency percentiles
//!   (mean/p50/p90/p99) of the compiled [`univsa::PackedModel`], the
//!   engine every surface deploys (compiled once, outside the timed loop);
//! * `hw_cycles` — simulated single-sample latency, initiation interval
//!   and streamed-schedule makespan;
//! * `mem` — the counting allocator's peak heap bytes and allocation
//!   count over the task's measurement window;
//! * `footprint` — the trained model's Eq. 5 bits against its resident
//!   bits, per component ([`univsa::FootprintAudit`]);
//! * `quality` — the winner/runner-up similarity margin over the held-out
//!   split (exact integers, so deterministic for a seeded model) and a
//!   seeded drift-injection probe: the task's
//!   [`univsa_data::tasks::drift_stream`] with a fixed mid-stream
//!   corruption replayed into a [`univsa_telemetry::DriftDetector`],
//!   recording the detection latency in samples after onset (`null` when
//!   undetected).
//!
//! Accuracy, cycle, footprint and quality figures depend only on the
//! seed and configuration, so regenerating the report leaves them
//! bit-identical; `univsa bench-diff` gates them and reads this schema
//! only.
//!
//! The per-sample latency loop stays strictly serial: it times individual
//! `infer` calls, and sharing cores with other samples would corrupt the
//! percentiles. Accuracy evaluation and training fan out to the pool.
//!
//! Usage: `cargo run -p univsa-bench --release --bin perf_baseline
//! [--out PATH] [--seed S] [--trace PATH] [--workers N] [--quiet]`.
//! Honours `UNIVSA_QUICK=1` for a reduced-budget smoke run and
//! `UNIVSA_THREADS=N` for the pool width.

use std::time::Instant;

use univsa::json::Json;
use univsa::{FootprintAudit, PackedModel, UniVsaError, UniVsaTrainer};
use univsa_bench::{
    all_tasks, finish_telemetry, harness_train_options_for, paper_config, progress, quick_mode,
};
use univsa_hw::{HwConfig, Pipeline};

/// Streamed samples for the hardware schedule replay.
const HW_STREAM_SAMPLES: usize = 64;

/// Drift-probe stream geometry: `QUALITY_STREAM_SAMPLES` samples with a
/// full-strength corruption switched on at `QUALITY_DRIFT_AT`, watched by
/// a detector with window `QUALITY_DRIFT_WINDOW`. Fixed so detection
/// latencies are comparable across reports.
const QUALITY_STREAM_SAMPLES: usize = 256;
const QUALITY_DRIFT_AT: usize = 128;
const QUALITY_DRIFT_STRENGTH: f32 = 1.0;
const QUALITY_DRIFT_WINDOW: usize = 32;

fn num_u(v: u64) -> Json {
    Json::Num(v as f64, Some(v))
}

fn num_f(v: f64) -> Json {
    // keep the report readable: microsecond/second values to 3 decimals
    Json::Num((v * 1e3).round() / 1e3, None)
}

fn percentile(sorted_ns: &[u64], q: f64) -> u64 {
    sorted_ns[((sorted_ns.len() - 1) as f64 * q).round() as usize]
}

/// Per-task `train_seconds` from a previously written report, if one is
/// readable at `path` (any schema version: only `train_seconds` is read).
fn previous_train_seconds(path: &str) -> Vec<(String, f64)> {
    let Ok(bytes) = std::fs::read(path) else {
        return Vec::new();
    };
    let Ok(doc) = univsa::json::parse(&bytes) else {
        return Vec::new();
    };
    let schema = match doc.get("schema") {
        Some(Json::Str(s)) if s.starts_with("univsa-perf-baseline/") => s.clone(),
        _ => return Vec::new(),
    };
    progress(
        "perf_baseline",
        &format!("previous report at {path} ({schema}) — recording speedups"),
    );
    let mut out = Vec::new();
    for row in doc.get("tasks").and_then(Json::as_arr).unwrap_or(&[]) {
        let (Some(Json::Str(name)), Some(secs)) = (
            row.get("task"),
            row.get("train_seconds").and_then(Json::as_f64),
        ) else {
            continue;
        };
        if secs > 0.0 {
            out.push((name.clone(), secs));
        }
    }
    out
}

/// Serializes the worker-pool stage statistics and mirrors them into
/// telemetry counters (`par.<stage>.busy_ns` etc.), so JSONL traces carry
/// the same utilization picture as the report.
fn pool_stats_json() -> Json {
    let mut stages = Vec::new();
    for (stage, s) in univsa_par::stats() {
        univsa_telemetry::counter(&format!("par.{stage}.regions"), s.regions);
        univsa_telemetry::counter(&format!("par.{stage}.chunks"), s.chunks);
        univsa_telemetry::counter(&format!("par.{stage}.busy_ns"), s.busy_ns);
        univsa_telemetry::counter(&format!("par.{stage}.wall_ns"), s.wall_ns);
        stages.push((
            stage.to_string(),
            Json::Obj(vec![
                ("regions".into(), num_u(s.regions)),
                ("chunks".into(), num_u(s.chunks)),
                ("busy_ns".into(), num_u(s.busy_ns)),
                ("wall_ns".into(), num_u(s.wall_ns)),
                ("max_workers".into(), num_u(s.max_workers)),
                (
                    "occupancy".into(),
                    Json::Num((s.occupancy() * 1e4).round() / 1e4, None),
                ),
            ]),
        ));
    }
    Json::Obj(stages)
}

/// Process peak RSS in bytes, read from `VmHWM` in `/proc/self/status`.
/// Linux-only: other platforms (and unreadable procfs) yield `Json::Null`
/// so the field is always present in the report.
fn peak_rss_bytes() -> Json {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return Json::Null;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
            {
                return num_u(kb * 1024);
            }
        }
    }
    Json::Null
}

/// The per-task `quality` block: winner/runner-up margin statistics over
/// the held-out split through the packed engine, and the seeded
/// drift-injection probe. Margins are exact integers from the same totals
/// the accuracy figures come from, so the block is deterministic for a
/// seeded model.
fn quality_json(
    task: &univsa_data::Task,
    packed: &PackedModel,
    seed: u64,
) -> Result<Json, UniVsaError> {
    let mut margins: Vec<u64> = Vec::with_capacity(task.test.len());
    for sample in task.test.samples() {
        let detail = packed.infer_detailed(&sample.values)?;
        margins.push(univsa::similarity_margin(&detail.totals));
    }
    margins.sort_unstable();
    let mean = margins.iter().sum::<u64>() as f64 / margins.len() as f64;

    let drift = univsa_data::DriftSpec {
        at: QUALITY_DRIFT_AT,
        strength: QUALITY_DRIFT_STRENGTH,
    };
    let stream = univsa_data::tasks::drift_stream(
        &task.spec.name,
        seed,
        QUALITY_STREAM_SAMPLES,
        Some(drift),
    )
    .expect("every Table I task has a stream generator");
    let mut detector = univsa_telemetry::DriftDetector::new(univsa_telemetry::DriftConfig {
        window: QUALITY_DRIFT_WINDOW,
        seed,
        ..univsa_telemetry::DriftConfig::default()
    });
    for sample in &stream {
        let detail = packed.infer_detailed(&sample.values)?;
        detector.observe(
            detail.label as u32,
            univsa::similarity_margin(&detail.totals),
        );
    }
    let latency = detector
        .first_detection()
        .map(|at| at.saturating_sub(QUALITY_DRIFT_AT as u64));
    Ok(Json::Obj(vec![
        ("mean_margin".into(), num_f(mean)),
        ("margin_p50".into(), num_u(percentile(&margins, 0.50))),
        ("margin_p99".into(), num_u(percentile(&margins, 0.99))),
        (
            "drift".into(),
            Json::Obj(vec![
                (
                    "stream_samples".into(),
                    num_u(QUALITY_STREAM_SAMPLES as u64),
                ),
                ("at".into(), num_u(QUALITY_DRIFT_AT as u64)),
                (
                    "strength".into(),
                    Json::Num(f64::from(QUALITY_DRIFT_STRENGTH), None),
                ),
                ("window".into(), num_u(QUALITY_DRIFT_WINDOW as u64)),
                (
                    "detection_latency".into(),
                    latency.map(num_u).unwrap_or(Json::Null),
                ),
            ]),
        ),
    ]))
}

fn measure_task(task: &univsa_data::Task, seed: u64) -> Result<(Json, f64), UniVsaError> {
    let _span = univsa_telemetry::span("bench", "perf_task").field("task", task.spec.name.clone());
    // counting-allocator window for this task: collapse the peak to the
    // current live set, then measure everything the task does
    univsa_telemetry::reset_peak();
    let mem_before = univsa_telemetry::mem_stats();
    let options = harness_train_options_for(task.spec.features());
    let epochs = options.epochs;
    let trainer = UniVsaTrainer::new(paper_config(task), options);
    let t = Instant::now();
    let outcome = trainer.fit(&task.train, seed)?;
    let train_seconds = t.elapsed().as_secs_f64();
    // compile cost is paid once, outside the timed loop — deployment
    // amortizes it too
    let packed = PackedModel::compile(&outcome.model);
    let accuracy = packed.evaluate(&task.test)?;
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(task.test.len());
    for sample in task.test.samples() {
        let t = Instant::now();
        let _ = packed.infer(&sample.values)?;
        latencies_ns.push(t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    latencies_ns.sort_unstable();
    let mean_ns = latencies_ns.iter().sum::<u64>() as f64 / latencies_ns.len() as f64;

    let quality = quality_json(task, &packed, seed)?;

    let pipeline = Pipeline::new(HwConfig::new(outcome.model.config()));
    let trace = pipeline.schedule(HW_STREAM_SAMPLES);

    let mem_after = univsa_telemetry::mem_stats();
    let audit = FootprintAudit::of_model(&outcome.model);
    audit.emit_gauges();
    let components: Vec<(String, Json)> = audit
        .components
        .iter()
        .map(|c| (format!("{}_bits", c.name), num_u(c.actual_bits as u64)))
        .collect();

    let row = Json::Obj(vec![
        ("task".into(), Json::Str(task.spec.name.clone())),
        ("train_seconds".into(), num_f(train_seconds)),
        ("epochs".into(), num_u(epochs as u64)),
        ("train_samples".into(), num_u(task.train.len() as u64)),
        ("test_samples".into(), num_u(task.test.len() as u64)),
        ("test_accuracy".into(), Json::Num(accuracy, None)),
        (
            "latency_us".into(),
            Json::Obj(vec![
                ("mean".into(), num_f(mean_ns / 1e3)),
                (
                    "p50".into(),
                    num_f(percentile(&latencies_ns, 0.50) as f64 / 1e3),
                ),
                (
                    "p90".into(),
                    num_f(percentile(&latencies_ns, 0.90) as f64 / 1e3),
                ),
                (
                    "p99".into(),
                    num_f(percentile(&latencies_ns, 0.99) as f64 / 1e3),
                ),
            ]),
        ),
        (
            "hw_cycles".into(),
            Json::Obj(vec![
                (
                    "sample_latency".into(),
                    num_u(pipeline.sample_latency_cycles()),
                ),
                (
                    "initiation_interval".into(),
                    num_u(pipeline.initiation_interval_cycles()),
                ),
                ("streamed_samples".into(), num_u(HW_STREAM_SAMPLES as u64)),
                ("makespan".into(), num_u(trace.makespan)),
            ]),
        ),
        (
            "mem".into(),
            Json::Obj(vec![
                ("peak_alloc_bytes".into(), num_u(mem_after.peak_bytes)),
                (
                    "alloc_count".into(),
                    num_u(mem_after.alloc_count - mem_before.alloc_count),
                ),
            ]),
        ),
        (
            "footprint".into(),
            Json::Obj(
                [
                    (
                        "modeled_bits".to_string(),
                        num_u(audit.modeled_total_bits() as u64),
                    ),
                    (
                        "actual_bits".to_string(),
                        num_u(audit.actual_total_bits() as u64),
                    ),
                    (
                        "ratio".to_string(),
                        Json::Num((audit.ratio() * 1e4).round() / 1e4, None),
                    ),
                ]
                .into_iter()
                .chain(components)
                .collect(),
            ),
        ),
        ("quality".into(), quality),
    ]);
    Ok((row, train_seconds))
}

/// The short hash of the checked-out git commit, when the report is
/// produced inside a git work tree with git on PATH (best effort — the
/// field is simply absent otherwise, and `bench-diff` treats it as
/// optional).
fn git_commit() -> Option<String> {
    let out = std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let hash = String::from_utf8(out.stdout).ok()?.trim().to_string();
    (!hash.is_empty()).then_some(hash)
}

/// Runs the fleet probe sweep (`2 × workers` one-epoch fitness probes per
/// Table I task's smallest configuration is overkill here — one probe per
/// slot pair suffices to exercise forwarding) and serializes the fleet
/// incident counters plus the `fleet.*` telemetry rollups.
fn fleet_phase(workers: usize, seed: u64) -> Result<Json, UniVsaError> {
    use univsa_dist::{FitnessJob, Job, Supervisor, SupervisorOptions, PROBE_KIND};
    // forwarding rides on the flight recorder; make sure it is on even
    // when --trace was not given
    univsa_telemetry::enable_tracing(univsa_telemetry::DEFAULT_TRACE_CAPACITY);
    let task = all_tasks(seed).into_iter().next().expect("tasks exist");
    let (d_h, d_l, d_k, out_channels, voters) =
        univsa_data::tasks::paper_config_tuple(&task.spec.name).expect("paper config exists");
    let genome = univsa_search::Genome {
        d_h,
        d_l,
        d_k,
        out_channels,
        voters,
    };
    let jobs: Vec<Job> = (0..(workers * 2).max(4))
        .map(|i| {
            Ok(Job::new(
                PROBE_KIND,
                FitnessJob {
                    task: task.spec.name.clone(),
                    data_seed: seed + i as u64,
                    train_seed: seed,
                    epochs: 1,
                    genome,
                }
                .encode()?,
            ))
        })
        .collect::<Result<_, UniVsaError>>()?;
    let supervisor = Supervisor::new(
        SupervisorOptions {
            workers,
            seed,
            ..SupervisorOptions::default()
        },
        univsa_dist::standard_registry(),
    );
    let (_, report) = supervisor.run_jobs(&jobs)?;
    let counter = univsa_telemetry::counter_value;
    Ok(Json::Obj(vec![
        ("workers".into(), num_u(report.workers as u64)),
        ("probe_jobs".into(), num_u(jobs.len() as u64)),
        ("spawned".into(), num_u(report.spawned)),
        ("retries".into(), num_u(report.retries)),
        ("timeouts".into(), num_u(report.timeouts)),
        ("crashes".into(), num_u(report.crashes)),
        ("corrupt_frames".into(), num_u(report.corrupt_frames)),
        ("fallback_jobs".into(), num_u(report.fallback_jobs)),
        ("telemetry_dropped".into(), num_u(report.telemetry_dropped)),
        ("fleet_jobs".into(), num_u(counter("fleet.jobs"))),
        ("fleet_busy_ns".into(), num_u(counter("fleet.busy_ns"))),
        (
            "fleet_alloc_count".into(),
            num_u(counter("fleet.alloc_count")),
        ),
        (
            "fleet_peak_alloc_bytes".into(),
            num_u(counter("fleet.peak_alloc_bytes")),
        ),
    ]))
}

fn main() {
    // Fleet workers are this same binary re-executed with the worker
    // environment variable set; they never parse arguments — stdout is
    // reserved for IPC frames.
    if univsa_dist::worker_env_requested() {
        match univsa_dist::worker_main(&univsa_dist::standard_registry()) {
            Ok(()) => return,
            Err(e) => {
                eprintln!("worker error: {e}");
                std::process::exit(1);
            }
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut out_path = "BENCH_univsa.json".to_string();
    let mut trace_path: Option<String> = None;
    let mut seed = 42u64;
    let mut workers = 0usize;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--out" => out_path = it.next().expect("--out needs a path").clone(),
            "--trace" => trace_path = Some(it.next().expect("--trace needs a path").clone()),
            "--seed" => {
                seed = it
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("bad --seed");
            }
            "--workers" => {
                workers = it
                    .next()
                    .expect("--workers needs a value")
                    .parse()
                    .expect("bad --workers");
            }
            "--quiet" | "-q" => {} // consumed by univsa_bench::quiet_mode
            other => panic!(
                "unknown argument {other:?} (expected --out/--seed/--trace/--workers/--quiet)"
            ),
        }
    }
    if trace_path.is_some() {
        univsa_telemetry::enable_tracing(univsa_telemetry::DEFAULT_TRACE_CAPACITY);
    }
    // per-task mem.* figures need the counting allocator regardless of
    // whether tracing or telemetry sinks are on
    univsa_telemetry::enable_mem_tracking();

    let previous = previous_train_seconds(&out_path);
    let (threads, source) = univsa_par::threads_and_source();
    progress(
        "perf_baseline",
        &format!("worker pool: {threads} thread(s) ({})", source.describe()),
    );
    univsa_par::reset_stats();

    let total = Instant::now();
    let mut rows = Vec::new();
    let mut prev_total = 0.0f64;
    let mut new_total = 0.0f64;
    for task in all_tasks(seed) {
        progress("perf_baseline", &format!("measuring {}", task.spec.name));
        let (row, train_seconds) = measure_task(&task, seed).expect("paper configurations train");
        let mut fields = match row {
            Json::Obj(fields) => fields,
            _ => unreachable!("measure_task returns an object"),
        };
        if let Some(&(_, prev_secs)) = previous.iter().find(|(name, _)| *name == task.spec.name) {
            prev_total += prev_secs;
            new_total += train_seconds;
            if train_seconds > 0.0 {
                fields.push((
                    "train_speedup".into(),
                    Json::Num(((prev_secs / train_seconds) * 1e3).round() / 1e3, None),
                ));
            }
        }
        rows.push(Json::Obj(fields));
    }
    let mut fields = vec![
        ("schema".into(), Json::Str("univsa-perf-baseline/v7".into())),
        ("quick".into(), Json::Bool(quick_mode())),
        ("seed".into(), num_u(seed)),
        ("threads".into(), num_u(threads as u64)),
        ("threads_source".into(), Json::Str(source.describe().into())),
        (
            "kernel_tier".into(),
            Json::Str(univsa_bits::kernels::active().name().into()),
        ),
        ("total_seconds".into(), num_f(total.elapsed().as_secs_f64())),
        ("peak_rss_bytes".into(), peak_rss_bytes()),
    ];
    if let Some(hash) = git_commit() {
        fields.push(("git_commit".into(), Json::Str(hash)));
    }
    if let Some(path) = &trace_path {
        fields.push(("trace".into(), Json::Str(path.clone())));
    }
    if prev_total > 0.0 && new_total > 0.0 {
        fields.push((
            "train_speedup".into(),
            Json::Num(((prev_total / new_total) * 1e3).round() / 1e3, None),
        ));
    }
    fields.push(("pool".into(), pool_stats_json()));
    if workers > 0 {
        progress(
            "perf_baseline",
            &format!("fleet probe sweep over {workers} worker slot(s)"),
        );
        let fleet = fleet_phase(workers, seed).expect("fleet probe sweep runs");
        fields.push(("fleet".into(), fleet));
    }
    fields.push(("tasks".into(), Json::Arr(rows)));
    let report = Json::Obj(fields);
    let mut text = String::new();
    univsa::json::write(&report, &mut text);
    text.push('\n');
    std::fs::write(&out_path, &text).expect("write report");
    progress(
        "perf_baseline",
        &format!(
            "wrote {out_path} ({} tasks, {:.1} s total, {threads} thread(s))",
            report.get("tasks").unwrap().as_arr().unwrap().len(),
            total.elapsed().as_secs_f64()
        ),
    );
    if let Some(path) = &trace_path {
        let recorder = univsa_telemetry::take_recorder();
        std::fs::write(path, univsa_telemetry::chrome_trace_json(&recorder)).expect("write trace");
        progress(
            "perf_baseline",
            &format!(
                "wrote trace {path} ({} spans on {} lane(s), {} hw events{})",
                recorder.events.len(),
                recorder.lanes.len(),
                recorder.virtual_events.len(),
                if recorder.dropped > 0 {
                    format!(", {} dropped", recorder.dropped)
                } else {
                    String::new()
                }
            ),
        );
    }
    finish_telemetry();
}
