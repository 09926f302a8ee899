//! Subcommand implementations.

use std::error::Error;
use std::path::Path;
use std::time::{Duration, Instant};

use univsa::{
    is_packed_artifact, load_model, load_packed, save_model, save_packed, ChaosSpec, EpochStats,
    FaultModel, FaultSpec, FaultTarget, FootprintAudit, PackedModel, TrainOptions, UniVsaConfig,
    UniVsaError, UniVsaModel, UniVsaTrainer,
};
use univsa_bench::diff;
use univsa_data::{csv, Dataset, DriftSpec, TaskSpec};
use univsa_dist::{
    decode_fitness, decode_quality_results, decode_seu_outcome, standard_registry, FitnessJob,
    FleetReport, Job, QualityJob, SeuTrialJob, Supervisor, SupervisorOptions, FITNESS_KIND,
    PROBE_KIND, QUALITY_KIND, SEU_TRIAL_KIND,
};
use univsa_hw::{
    export_weights, CostModel, HwConfig, HwReport, Pipeline, Protection, RtlGenerator, SeuOutcome,
};
use univsa_search::{EvolutionarySearch, Genome, SearchOptions, SearchSpace};

use crate::args::usage;
use crate::Command;

/// Runs a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns a boxed error with a user-facing message on any I/O, parsing,
/// training, or inference failure.
pub fn run(command: Command, out: &mut dyn std::io::Write) -> Result<(), Box<dyn Error>> {
    match command {
        Command::Help => {
            writeln!(out, "{}", usage())?;
            Ok(())
        }
        Command::Tasks => {
            writeln!(out, "built-in synthetic tasks (paper Table I geometry):")?;
            for task in univsa_data::tasks::all(1) {
                writeln!(
                    out,
                    "  {:10} {} classes, grid ({}, {}), {} train / {} test samples",
                    task.spec.name,
                    task.spec.classes,
                    task.spec.width,
                    task.spec.length,
                    task.train.len(),
                    task.test.len()
                )?;
            }
            Ok(())
        }
        Command::Train {
            task,
            csv: csv_path,
            geometry,
            config,
            epochs,
            seed,
            out: out_path,
        } => {
            let (train, test) = load_training_data(task.as_deref(), csv_path.as_deref(), geometry)?;
            let (d_h, d_l, d_k, o, theta) = config;
            let cfg = UniVsaConfig::for_task(train.spec())
                .d_h(d_h)
                .d_l(d_l)
                .d_k(d_k)
                .out_channels(o)
                .voters(theta)
                .build()?;
            writeln!(
                out,
                "training UniVSA {:?} on {} ({} samples, {} epochs, seed {seed}) ...",
                cfg.tuple(),
                train.spec().name,
                train.len(),
                epochs
            )?;
            let trainer = UniVsaTrainer::new(
                cfg,
                TrainOptions {
                    epochs,
                    ..TrainOptions::default()
                },
            );
            let outcome = trainer.fit(&train, seed)?;
            if let Some(test) = test {
                let acc = outcome.model.evaluate(&test)?;
                writeln!(out, "held-out accuracy: {acc:.4}")?;
            }
            let bytes = save_model(&outcome.model)?;
            write_bytes(Path::new(&out_path), &bytes)?;
            writeln!(
                out,
                "saved {} ({} bytes, {:.2} KiB model memory)",
                out_path,
                bytes.len(),
                outcome.model.memory_report().total_kib()
            )?;
            Ok(())
        }
        Command::Infer { model, csv: path } => {
            let bytes = read_bytes(&model)?;
            // a packed artifact is already lowered; a model file is
            // compiled ahead of time
            let packed = if is_packed_artifact(&bytes) {
                load_packed(&bytes)?
            } else {
                PackedModel::compile(&load_model(&bytes)?)
            };
            writeln!(out, "engine: packed ({} kernels)", packed.tier())?;
            let spec = TaskSpec {
                name: "csv".into(),
                width: packed.width(),
                length: packed.length(),
                classes: packed.classes(),
                levels: packed.levels(),
            };
            let data = csv::from_csv(&read_text(&path)?, spec)?;
            let mut correct = 0usize;
            for (i, sample) in data.samples().iter().enumerate() {
                let label = packed.infer(&sample.values)?;
                writeln!(out, "{i}: predicted {label} (true {})", sample.label)?;
                if label == sample.label {
                    correct += 1;
                }
            }
            if !data.is_empty() {
                writeln!(
                    out,
                    "accuracy: {:.4} ({correct}/{})",
                    correct as f64 / data.len() as f64,
                    data.len()
                )?;
            }
            Ok(())
        }
        Command::Compile {
            model,
            out: out_path,
        } => {
            let model = load_model(&read_bytes(&model)?)?;
            let packed = PackedModel::compile(&model);
            let bytes = save_packed(&packed)?;
            write_bytes(Path::new(&out_path), &bytes)?;
            writeln!(
                out,
                "compiled packed artifact {} ({} bytes, {} slab bits, {} kernels)",
                out_path,
                bytes.len(),
                packed.storage_bits(),
                packed.tier()
            )?;
            Ok(())
        }
        Command::Info { model } => {
            let model = load_model(&read_bytes(&model)?)?;
            let cfg = model.config();
            writeln!(out, "UniVSA model")?;
            writeln!(
                out,
                "  geometry : grid ({}, {}), {} classes, {} levels",
                cfg.width, cfg.length, cfg.classes, cfg.levels
            )?;
            writeln!(
                out,
                "  config   : (D_H, D_L, D_K, O, Θ) = {:?}",
                cfg.tuple()
            )?;
            writeln!(
                out,
                "  enhancements: dvp={} biconv={} soft_voting={}",
                cfg.enhancements.dvp, cfg.enhancements.biconv, cfg.enhancements.soft_voting
            )?;
            let mem = model.memory_report();
            writeln!(
                out,
                "  memory   : {:.2} KiB (V {} + K {} + F {} + C {} bits)",
                mem.total_kib(),
                mem.value_bits,
                mem.kernel_bits,
                mem.feature_bits,
                mem.class_bits
            )?;
            let report = HwReport::for_config(&HwConfig::new(cfg));
            writeln!(out, "  FPGA estimate (Zynq-ZU3EG @ 250 MHz):")?;
            write!(out, "{report}")?;
            Ok(())
        }
        Command::Rtl { model, out_dir } => {
            let model = load_model(&read_bytes(&model)?)?;
            let dir = Path::new(&out_dir);
            std::fs::create_dir_all(dir)
                .map_err(|e| UniVsaError::Io(format!("cannot create {out_dir:?}: {e}")))?;
            let bundle = RtlGenerator::new(HwConfig::new(model.config())).emit();
            let weights = export_weights(&model);
            let mut count = 0;
            for f in bundle.files.iter().chain(&weights) {
                write_bytes(&dir.join(&f.name), f.contents.as_bytes())?;
                count += 1;
            }
            writeln!(out, "wrote {count} files to {out_dir}/")?;
            Ok(())
        }
        Command::Robustness {
            model,
            csv: path,
            rates,
            seed,
        } => {
            let model = load_model(&read_bytes(&model)?)?;
            let cfg = model.config();
            let spec = TaskSpec {
                name: "csv".into(),
                width: cfg.width,
                length: cfg.length,
                classes: cfg.classes,
                levels: cfg.levels,
            };
            let data = csv::from_csv(&read_text(&path)?, spec)?;
            run_robustness(&model, &data, &rates, seed, out)
        }
        Command::Profile {
            task,
            seed,
            epochs,
            samples,
            threads,
            trace,
            mem,
            workers,
            listen,
        } => run_profile(
            &task,
            seed,
            epochs,
            samples,
            threads,
            trace.as_deref(),
            mem,
            workers,
            listen.as_deref(),
            out,
        ),
        Command::Search {
            task,
            workers,
            population,
            generations,
            epochs,
            seed,
            chaos,
            surrogate,
            listen,
        } => run_search(
            &task,
            workers,
            population,
            generations,
            epochs,
            seed,
            chaos,
            surrogate,
            listen.as_deref(),
            out,
        ),
        Command::Seu {
            task,
            workers,
            rate,
            trials,
            samples,
            seed,
            chaos,
            listen,
        } => run_seu(
            &task,
            workers,
            rate,
            trials,
            samples,
            seed,
            chaos,
            listen.as_deref(),
            out,
        ),
        Command::Quality {
            task,
            seed,
            epochs,
            samples,
            drift_at,
            strength,
            window,
            workers,
            listen,
        } => run_quality(
            &task,
            seed,
            epochs,
            samples,
            drift_at,
            strength,
            window,
            workers,
            listen.as_deref(),
            out,
        ),
        Command::Top {
            addr,
            interval_ms,
            refreshes,
        } => run_top(&addr, interval_ms, refreshes, out),
        Command::BenchDiff {
            old,
            new,
            thresholds,
        } => run_bench_diff(&old, &new, &thresholds, out),
    }
}

/// Compares two perf_baseline reports and errors (→ nonzero process exit)
/// when any regression gate fires.
fn run_bench_diff(
    old_path: &str,
    new_path: &str,
    thresholds: &diff::Thresholds,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    let old = diff::load_report(old_path)?;
    let new = diff::load_report(new_path)?;
    writeln!(out, "comparing {old_path} → {new_path} ({})", diff::SCHEMA)?;
    let outcome = diff::diff(&old, &new, thresholds);
    write!(out, "{}", outcome.render())?;
    if outcome.regressed() {
        return Err(format!(
            "performance regression detected ({} gate(s) fired)",
            outcome.rows.iter().filter(|r| r.regressed).count() + outcome.missing_tasks.len()
        )
        .into());
    }
    Ok(())
}

/// Builds the fleet supervisor the `search`, `seu`, `quality`, and
/// `profile` subcommands share: explicit `--workers` wins, then the
/// `UNIVSA_WORKERS` environment variable, then in-process execution.
fn fleet_supervisor(workers: Option<usize>, seed: u64, chaos: ChaosSpec) -> Supervisor {
    let workers = workers.or_else(univsa_dist::workers_from_env).unwrap_or(0);
    let defaults = SupervisorOptions::default();
    // hangs only exist when injected deliberately; a short deadline keeps
    // that recovery path fast without risking false kills in real runs
    let task_deadline = if chaos.hang > 0.0 {
        Duration::from_secs(30)
    } else {
        defaults.task_deadline
    };
    Supervisor::new(
        SupervisorOptions {
            workers,
            seed,
            chaos,
            task_deadline,
            ..defaults
        },
        standard_registry(),
    )
}

/// Starts the `--listen` metrics endpoint for a long-running subcommand.
/// Must run **before** the fleet supervisor spawns workers: it switches
/// the registry into aggregation mode, which is what turns on worker-side
/// telemetry forwarding, so the `worker.<slot>.*` counters flow into the
/// endpoint mid-run. Returns a guard that keeps the endpoint alive (and
/// the port held) until the subcommand finishes.
fn start_metrics(
    listen: Option<&str>,
) -> Result<Option<univsa_telemetry::MetricsServer>, UniVsaError> {
    let Some(addr) = listen else { return Ok(None) };
    let server = univsa_telemetry::start_exporter(addr)
        .map_err(|e| UniVsaError::Io(format!("cannot serve metrics on {addr:?}: {e}")))?;
    eprintln!(
        "metrics: serving http://{}/metrics (also /snapshot.json, /healthz)",
        server.local_addr()
    );
    Ok(Some(server))
}

fn accumulate(total: &mut FleetReport, part: FleetReport) {
    total.workers = total.workers.max(part.workers);
    total.spawned += part.spawned;
    total.retries += part.retries;
    total.timeouts += part.timeouts;
    total.crashes += part.crashes;
    total.corrupt_frames += part.corrupt_frames;
    total.fallback_jobs += part.fallback_jobs;
    total.telemetry_dropped += part.telemetry_dropped;
    if total.slots.len() < part.slots.len() {
        total
            .slots
            .resize(part.slots.len(), univsa_dist::SlotStats::default());
    }
    for (acc, slot) in total.slots.iter_mut().zip(&part.slots) {
        acc.spawned += slot.spawned;
        acc.jobs += slot.jobs;
        acc.retries += slot.retries;
        acc.telemetry_dropped += slot.telemetry_dropped;
    }
}

/// Prints the fleet's robustness counters to **stderr** — stdout carries
/// only the deterministic results, so it stays bit-identical across
/// worker counts and chaos histories. The same totals are mirrored into
/// the telemetry registry, so `UNIVSA_TELEMETRY=summary` shows the
/// `dist.*` rows in its counter table alongside the worker rollups.
fn report_fleet(report: &FleetReport) {
    if report.workers == 0 {
        return;
    }
    // the per-event dist.* counters (spawns, retries, crashes, …) are
    // recorded at their increment sites in the supervisor; the fleet
    // width is a level, not an event, so it lands here as a high-water
    // mark
    univsa_telemetry::counter_max("dist.workers", report.workers as u64);
    eprintln!(
        "fleet: {} worker slot(s), {} spawned, {} retries, {} timeouts, \
         {} crashes, {} corrupt frames, {} fallback jobs, \
         {} telemetry batches dropped",
        report.workers,
        report.spawned,
        report.retries,
        report.timeouts,
        report.crashes,
        report.corrupt_frames,
        report.fallback_jobs,
        report.telemetry_dropped
    );
}

fn lookup_task(name: &str, seed: u64) -> Result<univsa_data::Task, UniVsaError> {
    univsa_data::tasks::by_name(name, seed)
        .ok_or_else(|| UniVsaError::Config(format!("unknown task {name:?}; run `univsa tasks`")))
}

/// A built-in task's paper (Table I) configuration, as a genome.
fn paper_genome(spec: &TaskSpec) -> Result<Genome, UniVsaError> {
    let (d_h, d_l, d_k, out_channels, voters) = univsa_data::tasks::paper_config_tuple(&spec.name)
        .ok_or_else(|| {
            UniVsaError::Config(format!("no paper configuration for task {:?}", spec.name))
        })?;
    Ok(Genome {
        d_h,
        d_l,
        d_k,
        out_channels,
        voters,
    })
}

/// Runs the paper's evolutionary configuration search with fitness
/// evaluations fanned out over the worker fleet. Everything written to
/// `out` (stdout) is a pure function of the parsed arguments — worker
/// count, crashes, and retries can never change it.
#[allow(clippy::too_many_arguments)]
fn run_search(
    task_name: &str,
    workers: Option<usize>,
    population: usize,
    generations: usize,
    epochs: usize,
    seed: u64,
    chaos: ChaosSpec,
    surrogate: bool,
    listen: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    // bind before the fleet spawns so worker telemetry forwarding is on
    let _metrics = start_metrics(listen)?;
    let task = lookup_task(task_name, seed)?;
    let kind = if surrogate { PROBE_KIND } else { FITNESS_KIND };
    let supervisor = fleet_supervisor(workers, seed, chaos);
    let options = SearchOptions {
        population,
        generations,
        elites: (population / 4).max(1),
        ..SearchOptions::default()
    };
    let search = EvolutionarySearch::new(SearchSpace::for_task(&task.spec), options);
    // the fleet's robustness counters, summed over every generation
    let mut report = FleetReport::default();
    let result = search.try_run_batched(seed, |pending| {
        let jobs: Vec<Job> = pending
            .iter()
            .map(|genome| {
                Ok(Job::new(
                    kind,
                    FitnessJob {
                        task: task.spec.name.clone(),
                        data_seed: seed,
                        train_seed: seed,
                        epochs,
                        genome: *genome,
                    }
                    .encode()?,
                ))
            })
            .collect::<Result<_, UniVsaError>>()?;
        let (results, part) = supervisor.run_jobs(&jobs)?;
        accumulate(&mut report, part);
        results.iter().map(|bytes| decode_fitness(bytes)).collect()
    })?;
    writeln!(
        out,
        "search {}: population {population}, {generations} generation(s), \
         {epochs} epoch(s)/eval, seed {seed}{}",
        task.spec.name,
        if surrogate {
            ", surrogate objective"
        } else {
            ""
        }
    )?;
    writeln!(
        out,
        "best genome : (D_H, D_L, D_K, O, Θ) = {:?}",
        (
            result.genome.d_h,
            result.genome.d_l,
            result.genome.d_k,
            result.genome.out_channels,
            result.genome.voters
        )
    )?;
    // `{:?}` prints the shortest decimal that round-trips, so the line is
    // a bit-exact witness for the determinism gate
    writeln!(out, "best fitness: {:?}", result.fitness)?;
    writeln!(out, "curve       : {:?}", result.curve)?;
    writeln!(out, "evaluations : {}", result.evaluations)?;
    report_fleet(&report);
    Ok(())
}

/// Runs seeded SEU campaigns for every protection scheme, one fleet job
/// per trial (trial `i` of a sweep is `SeuCampaign::new(rate, seed + i)`,
/// so sharding them is exact, not approximate).
#[allow(clippy::too_many_arguments)]
fn run_seu(
    task_name: &str,
    workers: Option<usize>,
    rate: f64,
    trials: usize,
    samples: usize,
    seed: u64,
    chaos: ChaosSpec,
    listen: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    // bind before the fleet spawns so worker telemetry forwarding is on
    let _metrics = start_metrics(listen)?;
    let task = lookup_task(task_name, seed)?;
    let genome = paper_genome(&task.spec)?;
    let jobs: Vec<Job> = Protection::ALL
        .iter()
        .flat_map(|&protection| (0..trials).map(move |trial| (protection, trial)))
        .map(|(protection, trial)| {
            Ok(Job::new(
                SEU_TRIAL_KIND,
                SeuTrialJob {
                    spec: task.spec.clone(),
                    genome,
                    protection,
                    rate,
                    seed: seed + trial as u64,
                    samples,
                }
                .encode()?,
            ))
        })
        .collect::<Result<_, UniVsaError>>()?;
    let supervisor = fleet_supervisor(workers, seed, chaos);
    let (results, report) = supervisor.run_jobs(&jobs)?;
    let outcomes = results
        .iter()
        .map(|bytes| decode_seu_outcome(bytes))
        .collect::<Result<Vec<SeuOutcome>, _>>()?;
    writeln!(
        out,
        "SEU campaign {}: paper config {:?}, rate {rate:e}, \
         {trials} trial(s) × {samples} sample(s), seed {seed}",
        task.spec.name,
        (
            genome.d_h,
            genome.d_l,
            genome.d_k,
            genome.out_channels,
            genome.voters
        )
    )?;
    writeln!(
        out,
        "{:>15}  {:>8}  {:>8}  {:>9}  {:>8}",
        "protection", "upsets", "detected", "corrected", "silent"
    )?;
    for (i, &protection) in Protection::ALL.iter().enumerate() {
        let per = &outcomes[i * trials..(i + 1) * trials];
        let sum = |f: fn(&SeuOutcome) -> u64| per.iter().map(f).sum::<u64>();
        writeln!(
            out,
            "{:>15}  {:>8}  {:>8}  {:>9}  {:>8}",
            protection.name(),
            sum(|o| o.upsets),
            sum(|o| o.detected),
            sum(|o| o.corrected),
            sum(|o| o.silent)
        )?;
    }
    report_fleet(&report);
    Ok(())
}

/// Trains a built-in task with its paper configuration and reports timing
/// for all three layers: per-epoch training progress, per-sample inference
/// latency percentiles, and the simulated hardware pipeline schedule —
/// plus the worker-pool width and per-stage pool occupancy.
#[allow(clippy::too_many_arguments)]
fn run_profile(
    task: &str,
    seed: u64,
    epochs: Option<usize>,
    samples: usize,
    threads: Option<usize>,
    trace_path: Option<&str>,
    mem: bool,
    workers: Option<usize>,
    listen: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    // bind before anything runs so the endpoint sees the whole profile
    let _metrics = start_metrics(listen)?;
    if let Some(t) = threads {
        univsa_par::set_threads(t);
    }
    if trace_path.is_some() || mem {
        // --mem rides on the flight recorder too: enabling tracing turns
        // the registry (and the counting allocator) on, so spans carry
        // and aggregate their allocation deltas even when the
        // UNIVSA_TELEMETRY sink is off
        univsa_telemetry::enable_tracing(univsa_telemetry::DEFAULT_TRACE_CAPACITY);
    }
    univsa_par::reset_stats();
    let task = lookup_task(task, seed)?;
    let genome = paper_genome(&task.spec)?;
    let cfg = genome.to_config(&task.spec)?;
    let epochs = epochs.unwrap_or(if task.spec.features() <= 128 { 60 } else { 20 });
    let (pool_threads, source) = univsa_par::threads_and_source();
    writeln!(
        out,
        "profiling {} — config {:?}, {} epochs, seed {seed}",
        task.spec.name,
        cfg.tuple(),
        epochs
    )?;
    writeln!(
        out,
        "worker pool: {pool_threads} thread(s) ({})",
        source.describe()
    )?;

    // training layer
    let mut epoch_lines: Vec<String> = Vec::new();
    let mut observer = |stats: &EpochStats| {
        epoch_lines.push(format!(
            "  epoch {:>3}/{}: loss {:.4}, train accuracy {:.4}, {:.1} ms",
            stats.epoch + 1,
            stats.epochs,
            stats.loss,
            stats.accuracy,
            stats.duration.as_secs_f64() * 1e3
        ));
    };
    let trainer = UniVsaTrainer::new(
        cfg,
        TrainOptions {
            epochs,
            ..TrainOptions::default()
        },
    );
    let fit_start = Instant::now();
    let outcome = trainer.fit_observed(&task.train, seed, &mut observer)?;
    let fit_time = fit_start.elapsed();
    for line in &epoch_lines {
        writeln!(out, "{line}")?;
    }
    writeln!(
        out,
        "train: {} samples, {} epochs in {:.2} s ({:.1} ms/epoch)",
        task.train.len(),
        epochs,
        fit_time.as_secs_f64(),
        fit_time.as_secs_f64() * 1e3 / epochs.max(1) as f64
    )?;
    // the model compiles once, up front, so the latency loop below
    // measures steady-state per-sample cost
    let packed = PackedModel::compile(&outcome.model);
    let accuracy = packed.evaluate(&task.test)?;
    writeln!(out, "test accuracy: {accuracy:.4}")?;

    // inference layer: exact per-sample latencies over the test split
    let mut latencies_ns: Vec<u64> = Vec::with_capacity(task.test.len());
    for sample in task.test.samples() {
        let t = Instant::now();
        let _ = packed.infer(&sample.values)?;
        latencies_ns.push(t.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64);
    }
    latencies_ns.sort_unstable();
    let pct = |q: f64| latencies_ns[((latencies_ns.len() - 1) as f64 * q).round() as usize];
    let mean = latencies_ns.iter().sum::<u64>() as f64 / latencies_ns.len() as f64;
    writeln!(
        out,
        "inference (packed ({} kernels)): {} samples — mean {:.1} µs, p50 {:.1} µs, \
         p90 {:.1} µs, p99 {:.1} µs",
        packed.tier(),
        latencies_ns.len(),
        mean / 1e3,
        pct(0.50) as f64 / 1e3,
        pct(0.90) as f64 / 1e3,
        pct(0.99) as f64 / 1e3
    )?;

    // hardware layer: streamed pipeline schedule with stage occupancy
    let pipeline = Pipeline::new(HwConfig::new(outcome.model.config()));
    let trace = pipeline.schedule(samples);
    writeln!(
        out,
        "hardware: {} cycles/sample, initiation interval {} cycles, \
         {} streamed samples in {} cycles",
        pipeline.sample_latency_cycles(),
        pipeline.initiation_interval_cycles(),
        samples,
        trace.makespan
    )?;
    for u in trace.stage_utilization() {
        writeln!(
            out,
            "  {:>10}: {:>8} busy cycles ({:>5.1}% occupancy)",
            u.stage.to_string(),
            u.busy_cycles,
            100.0 * u.utilization
        )?;
    }
    // worker-pool layer: per-stage occupancy across the whole profile run
    let stats = univsa_par::stats();
    if stats.is_empty() {
        writeln!(
            out,
            "worker pool: no parallel regions recorded (all stages ran serial)"
        )?;
    } else {
        writeln!(out, "worker pool stages:")?;
        for (stage, s) in &stats {
            writeln!(
                out,
                "  {:>16}: {:>5} regions, {:>6} chunks, {:>8.1} ms busy ({:>5.1}% occupancy)",
                stage,
                s.regions,
                s.chunks,
                s.busy_ns as f64 / 1e6,
                100.0 * s.occupancy()
            )?;
        }
    }
    if mem {
        // memory layer: per-span allocation attribution from the
        // counting allocator, aggregated over the whole run
        let stats = univsa_telemetry::mem_stats();
        writeln!(
            out,
            "memory: peak heap {:.2} MiB, {} allocations ({} freed), {:.2} MiB live",
            stats.peak_bytes as f64 / (1024.0 * 1024.0),
            stats.alloc_count,
            stats.dealloc_count,
            stats.live_bytes as f64 / (1024.0 * 1024.0)
        )?;
        let aggregates = univsa_telemetry::mem_aggregates();
        if aggregates.is_empty() {
            writeln!(out, "  (no per-span attribution recorded)")?;
        } else {
            writeln!(
                out,
                "  {:<22} {:>7} {:>14} {:>10} {:>14}",
                "span", "count", "net bytes", "allocs", "max peak"
            )?;
            for (name, agg) in &aggregates {
                writeln!(
                    out,
                    "  {:<22} {:>7} {:>14} {:>10} {:>14}",
                    name, agg.spans, agg.net_bytes, agg.alloc_count, agg.max_peak_bytes
                )?;
            }
        }
        let audit = FootprintAudit::of_model(&outcome.model);
        audit.emit_gauges();
        writeln!(out, "footprint audit (Eq. 5 vs. resident bits):")?;
        for line in audit.render().lines() {
            writeln!(out, "  {line}")?;
        }
        let cost = CostModel::calibrated();
        let hw = HwConfig::new(outcome.model.config());
        writeln!(
            out,
            "  BRAM: {} block(s) for {:.2} KiB stored (calibrated cost model)",
            cost.brams(&hw),
            hw.stored_memory_kib()
        )?;
    }
    // fleet layer: probe jobs sharded over worker processes; each worker
    // forwards its spans/counters/allocation stats over the IPC pipe and
    // they merge into this process's recorder before the trace is written
    let fleet_workers = workers.unwrap_or(0);
    if fleet_workers > 0 {
        // forwarding rides on the flight recorder: with telemetry off,
        // record for this phase only, after the latency loop, so the
        // per-slot table is populated and the percentiles stay unperturbed
        let scoped_tracing = !univsa_telemetry::enabled();
        if scoped_tracing {
            univsa_telemetry::enable_tracing(univsa_telemetry::DEFAULT_TRACE_CAPACITY);
        }
        let probe_jobs = (fleet_workers * 2).max(4);
        let jobs: Vec<Job> = (0..probe_jobs)
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
        let supervisor = fleet_supervisor(Some(fleet_workers), seed, ChaosSpec::default());
        let (_, report) = supervisor.run_jobs(&jobs)?;
        writeln!(
            out,
            "fleet: {probe_jobs} probe job(s) over {fleet_workers} worker slot(s) \
             (telemetry forwarded per slot)"
        )?;
        write_fleet_table(&report, fleet_workers, out)?;
        report_fleet(&report);
        if scoped_tracing {
            drop(univsa_telemetry::take_recorder());
        }
    }
    if let Some(path) = trace_path {
        let recorder = univsa_telemetry::take_recorder();
        std::fs::write(path, univsa_telemetry::chrome_trace_json(&recorder))
            .map_err(|e| format!("cannot write trace {path:?}: {e}"))?;
        writeln!(
            out,
            "trace: wrote {path} ({} spans on {} lane(s), {} hw events, \
             {} worker span(s){}) — open in https://ui.perfetto.dev or chrome://tracing",
            recorder.events.len(),
            recorder.lanes.len(),
            recorder.virtual_events.len(),
            recorder.worker_events.len(),
            if recorder.dropped > 0 {
                format!(", {} dropped", recorder.dropped)
            } else {
                String::new()
            }
        )?;
    }
    if univsa_telemetry::enabled() {
        writeln!(out, "telemetry: captured (flushed at exit)")?;
    } else {
        writeln!(
            out,
            "telemetry: off — set {}=summary or {}=jsonl:<path> to capture spans",
            univsa_telemetry::ENV_VAR,
            univsa_telemetry::ENV_VAR
        )?;
    }
    Ok(())
}

/// Prints the fleet's per-slot table and rollup line. Jobs, retries and
/// dropped telemetry batches are the supervisor's own per-slot counters
/// (`report.slots`); busy time and allocation figures are forwarded
/// worker telemetry, so they read 0 when forwarding is off. Timings and
/// allocations vary run to run: this is observability, not results.
fn write_fleet_table(
    report: &FleetReport,
    workers: usize,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    writeln!(
        out,
        "{:>5}  {:>6}  {:>8}  {:>8}  {:>10}  {:>10}  {:>14}",
        "slot", "jobs", "retries", "tlm-drop", "busy ms", "allocs", "peak alloc B"
    )?;
    let slot_counter =
        |slot: usize, name: &str| univsa_telemetry::counter_value(&format!("worker.{slot}.{name}"));
    for slot in 0..workers {
        let stats = report.slots.get(slot).copied().unwrap_or_default();
        writeln!(
            out,
            "{:>5}  {:>6}  {:>8}  {:>8}  {:>10.1}  {:>10}  {:>14}",
            slot,
            stats.jobs,
            stats.retries,
            stats.telemetry_dropped,
            slot_counter(slot, "busy_ns") as f64 / 1e6,
            slot_counter(slot, "alloc_count"),
            slot_counter(slot, "peak_alloc_bytes")
        )?;
    }
    writeln!(
        out,
        "fleet rollup: {} job(s), {} retries, {:.1} ms busy, {} alloc(s), peak {} B, \
         {} telemetry batch(es) dropped",
        report.slots.iter().map(|s| s.jobs).sum::<u64>(),
        report.retries,
        univsa_telemetry::counter_value("fleet.busy_ns") as f64 / 1e6,
        univsa_telemetry::counter_value("fleet.alloc_count"),
        univsa_telemetry::counter_value("fleet.peak_alloc_bytes"),
        report.telemetry_dropped
    )?;
    Ok(())
}

/// One polled `/snapshot.json` frame, reduced to what the `top` table
/// renders.
struct TopFrame {
    uptime_ns: u64,
    live_bytes: u64,
    peak_bytes: u64,
    alloc_count: u64,
    counters: Vec<(String, u64)>,
    spans: Vec<(String, SpanRow)>,
    quality: Option<QualityRow>,
}

/// The prediction-quality block of one frame (schema v2 `quality`
/// section), present when the polled process recorded any predictions.
struct QualityRow {
    task: Option<String>,
    count: u64,
    mean: f64,
    p50: u64,
    p99: u64,
    accuracy: Option<f64>,
    predictions: Vec<(String, u64)>,
}

/// Latency statistics for one span name, as served by the endpoint.
struct SpanRow {
    count: u64,
    p50_ns: u64,
    p99_ns: u64,
    max_ns: u64,
}

/// Blocking HTTP/1.1 GET against a metrics endpoint (`:PORT` shorthand
/// means loopback, mirroring `--listen`). Returns the response body.
fn metrics_http_get(addr: &str, path: &str) -> Result<String, UniVsaError> {
    use std::io::{Read as _, Write as _};
    let addr = addr.trim();
    let full = if addr.starts_with(':') {
        format!("127.0.0.1{addr}")
    } else {
        addr.to_string()
    };
    let err = |stage: &str, e: std::io::Error| {
        UniVsaError::Io(format!("metrics endpoint {full}: {stage}: {e}"))
    };
    let mut stream = std::net::TcpStream::connect(&full).map_err(|e| err("cannot connect", e))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .map_err(|e| err("cannot set timeout", e))?;
    write!(
        stream,
        "GET {path} HTTP/1.1\r\nHost: {full}\r\nConnection: close\r\n\r\n"
    )
    .map_err(|e| err("cannot send request", e))?;
    let mut response = String::new();
    stream
        .read_to_string(&mut response)
        .map_err(|e| err("cannot read response", e))?;
    let (head, body) = response.split_once("\r\n\r\n").ok_or_else(|| {
        UniVsaError::Io(format!("metrics endpoint {full}: malformed HTTP response"))
    })?;
    let status = head.lines().next().unwrap_or("");
    if !status.contains(" 200 ") {
        return Err(UniVsaError::Io(format!(
            "metrics endpoint {full}: {path} returned {status:?}"
        )));
    }
    Ok(body.to_string())
}

/// Parses one `/snapshot.json` body into a [`TopFrame`].
fn parse_top_frame(body: &str) -> Result<TopFrame, UniVsaError> {
    use univsa::json::Json;
    let doc = univsa::json::parse(body.as_bytes())
        .map_err(|e| UniVsaError::Io(format!("bad snapshot JSON: {e}")))?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == univsa_telemetry::SNAPSHOT_SCHEMA => {}
        other => {
            return Err(UniVsaError::Io(format!(
                "unexpected snapshot schema {other:?} (want {:?})",
                univsa_telemetry::SNAPSHOT_SCHEMA
            )))
        }
    }
    let u64_at = |value: &Json, key: &str| value.get(key).and_then(Json::as_u64).unwrap_or(0);
    let mem = doc.get("mem");
    let mem_field = |key: &str| mem.map(|m| u64_at(m, key)).unwrap_or(0);
    let mut counters = Vec::new();
    if let Some(Json::Obj(fields)) = doc.get("counters") {
        for (name, value) in fields {
            counters.push((name.clone(), value.as_u64().unwrap_or(0)));
        }
    }
    let mut spans = Vec::new();
    if let Some(Json::Obj(fields)) = doc.get("histograms") {
        for (name, value) in fields {
            spans.push((
                name.clone(),
                SpanRow {
                    count: u64_at(value, "count"),
                    p50_ns: u64_at(value, "p50_ns"),
                    p99_ns: u64_at(value, "p99_ns"),
                    max_ns: u64_at(value, "max_ns"),
                },
            ));
        }
    }
    let quality = doc.get("quality").and_then(|q| {
        let margin = q.get("margin")?;
        let count = u64_at(margin, "count");
        if count == 0 {
            return None;
        }
        let mut predictions = Vec::new();
        if let Some(Json::Obj(fields)) = q.get("predictions") {
            for (class, value) in fields {
                predictions.push((class.clone(), value.as_u64().unwrap_or(0)));
            }
        }
        Some(QualityRow {
            task: match q.get("task") {
                Some(Json::Str(s)) => Some(s.clone()),
                _ => None,
            },
            count,
            mean: margin.get("mean").and_then(Json::as_f64).unwrap_or(0.0),
            p50: u64_at(margin, "p50"),
            p99: u64_at(margin, "p99"),
            accuracy: q
                .get("confusion")
                .and_then(|c| c.get("accuracy"))
                .and_then(Json::as_f64),
            predictions,
        })
    });
    Ok(TopFrame {
        uptime_ns: doc.get("uptime_ns").and_then(Json::as_u64).unwrap_or(0),
        live_bytes: mem_field("live_bytes"),
        peak_bytes: mem_field("peak_bytes"),
        alloc_count: mem_field("alloc_count"),
        counters,
        spans,
        quality,
    })
}

/// Renders one `top` frame: per-span throughput (events/s between polls)
/// and latency percentiles, heap figures, and every counter with its
/// rate — fleet `worker.<slot>.*` rows included.
fn render_top_frame(
    addr: &str,
    frame: &TopFrame,
    prev: Option<&TopFrame>,
    frame_no: u64,
    refreshes: Option<u64>,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    // live mode repaints in place; bounded mode (--refreshes, used by
    // scripts and CI) appends plain frames instead
    if refreshes.is_none() {
        write!(out, "\x1b[2J\x1b[H")?;
    }
    let dt_s = prev
        .map(|p| frame.uptime_ns.saturating_sub(p.uptime_ns) as f64 / 1e9)
        .filter(|dt| *dt > 0.0);
    let rate = |now: u64, before: Option<u64>| match (dt_s, before) {
        (Some(dt), Some(b)) => format!("{:.1}", now.saturating_sub(b) as f64 / dt),
        _ => "-".to_string(),
    };
    let total_frames = match refreshes {
        Some(n) => format!("/{n}"),
        None => String::new(),
    };
    writeln!(
        out,
        "univsa top — {addr} — up {:.1} s — refresh {frame_no}{total_frames}",
        frame.uptime_ns as f64 / 1e9
    )?;
    let mib = |bytes: u64| bytes as f64 / (1024.0 * 1024.0);
    writeln!(
        out,
        "heap: {:.2} MiB live, {:.2} MiB peak, {} allocs",
        mib(frame.live_bytes),
        mib(frame.peak_bytes),
        frame.alloc_count
    )?;
    if let Some(q) = &frame.quality {
        let drift = frame
            .counters
            .iter()
            .find(|(n, _)| n == "quality.drift_detected")
            .map_or(0, |(_, v)| *v);
        let task = q.task.as_deref().unwrap_or("?");
        let accuracy = match q.accuracy {
            Some(a) => format!("{a:.4}"),
            None => "-".to_string(),
        };
        writeln!(
            out,
            "quality [{task}]: {} predictions, margin mean {:.1} p50 {} p99 {}, \
             accuracy {accuracy}, drift events {drift}",
            q.count, q.mean, q.p50, q.p99
        )?;
        let classes: Vec<String> = q
            .predictions
            .iter()
            .map(|(class, n)| format!("{class}:{n}"))
            .collect();
        writeln!(out, "  class counts: {}", classes.join(" "))?;
    }
    writeln!(out)?;
    if frame.spans.is_empty() {
        writeln!(out, "  (no spans recorded yet)")?;
    } else {
        writeln!(
            out,
            "  {:<26} {:>10} {:>9} {:>10} {:>10} {:>10}",
            "span", "count", "rate/s", "p50 µs", "p99 µs", "max µs"
        )?;
        for (name, row) in &frame.spans {
            let before = prev
                .and_then(|p| p.spans.iter().find(|(n, _)| n == name))
                .map(|(_, r)| r.count);
            writeln!(
                out,
                "  {:<26} {:>10} {:>9} {:>10.1} {:>10.1} {:>10.1}",
                name,
                row.count,
                rate(row.count, before),
                row.p50_ns as f64 / 1e3,
                row.p99_ns as f64 / 1e3,
                row.max_ns as f64 / 1e3
            )?;
        }
    }
    writeln!(out)?;
    if frame.counters.is_empty() {
        writeln!(out, "  (no counters recorded yet)")?;
    } else {
        writeln!(out, "  {:<26} {:>10} {:>9}", "counter", "total", "rate/s")?;
        for (name, total) in &frame.counters {
            let before = prev
                .and_then(|p| p.counters.iter().find(|(n, _)| n == name))
                .map(|(_, v)| *v);
            writeln!(
                out,
                "  {:<26} {:>10} {:>9}",
                name,
                total,
                rate(*total, before)
            )?;
        }
    }
    out.flush()?;
    Ok(())
}

/// `univsa top ADDR`: polls a live process's `/snapshot.json` endpoint
/// and renders a refreshing table of per-stage throughput and latency,
/// heap figures, and fleet counters. `--refreshes N` exits after N
/// frames; otherwise it runs until interrupted.
fn run_top(
    addr: &str,
    interval_ms: u64,
    refreshes: Option<u64>,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    let mut prev: Option<TopFrame> = None;
    let mut frame_no = 0u64;
    loop {
        frame_no += 1;
        // a first-poll failure is a plain I/O error (wrong address, not
        // yet listening); losing an endpoint we already polled is the
        // typed ConnectionLost, so callers stop cleanly instead of
        // treating a finished run as a failure
        let body = match metrics_http_get(addr, "/snapshot.json") {
            Ok(body) => body,
            Err(e) if prev.is_some() => {
                return Err(Box::new(UniVsaError::ConnectionLost(format!(
                    "metrics endpoint {addr} went away after {} frame(s): {e}",
                    frame_no - 1
                ))));
            }
            Err(e) => return Err(e.into()),
        };
        let frame = parse_top_frame(&body)?;
        render_top_frame(addr, &frame, prev.as_ref(), frame_no, refreshes, out)?;
        prev = Some(frame);
        if refreshes.is_some_and(|n| frame_no >= n) {
            break;
        }
        std::thread::sleep(Duration::from_millis(interval_ms));
    }
    Ok(())
}

/// Samples per [`QualityJob`] shard. Fixed (never derived from the
/// worker count) so the job list — and therefore every result byte — is
/// identical for any `--workers` value.
const QUALITY_SHARD: usize = 64;

/// `univsa quality TASK`: trains the task's paper configuration,
/// streams a seeded (optionally drifting) prediction sequence through
/// the packed engine — sharded over the fleet when `--workers` is set —
/// and reports margin, confusion, calibration, and drift statistics.
/// Stdout carries no wall-clock figures: it is bit-identical for every
/// worker count and thread width.
#[allow(clippy::too_many_arguments)]
fn run_quality(
    task_name: &str,
    seed: u64,
    epochs: usize,
    samples: usize,
    drift_at: Option<usize>,
    strength: f32,
    window: usize,
    workers: Option<usize>,
    listen: Option<&str>,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    // bind before the fleet spawns so worker telemetry forwarding is on
    let _metrics = start_metrics(listen)?;
    let task = lookup_task(task_name, seed)?;
    let name = task.spec.name.clone();
    univsa_telemetry::set_quality_task(&name);
    let config = univsa_data::tasks::paper_config_tuple(&name)
        .ok_or_else(|| UniVsaError::Config(format!("no paper configuration for task {name:?}")))?;
    let drift = drift_at.map(|at| DriftSpec { at, strength });
    let jobs: Vec<Job> = (0..samples)
        .step_by(QUALITY_SHARD)
        .map(|start| {
            Ok(Job::new(
                QUALITY_KIND,
                QualityJob {
                    task: name.clone(),
                    seed,
                    epochs,
                    total: samples,
                    drift,
                    start,
                    len: QUALITY_SHARD.min(samples - start),
                }
                .encode()?,
            ))
        })
        .collect::<Result<_, UniVsaError>>()?;
    let supervisor = fleet_supervisor(workers, seed, ChaosSpec::default());
    let (results, report) = supervisor.run_jobs(&jobs)?;
    // shards come back in job order, so this is the sequential stream
    let rows = results
        .iter()
        .map(|bytes| decode_quality_results(bytes))
        .collect::<Result<Vec<_>, _>>()?
        .concat();

    let mut observer = univsa_telemetry::QualityObserver::new(univsa_telemetry::DriftConfig {
        window,
        seed,
        ..univsa_telemetry::DriftConfig::default()
    });
    for &(truth, predicted, margin) in &rows {
        univsa_telemetry::record_outcome(truth, predicted, margin);
        if let Some(event) = observer.observe(Some(truth), predicted, margin) {
            univsa_telemetry::drift_detected(&event);
        }
    }

    writeln!(
        out,
        "quality {name}: paper config {config:?}, {epochs} epoch(s), seed {seed}"
    )?;
    match drift {
        Some(d) => writeln!(
            out,
            "stream: {samples} sample(s), drift injected at {} (strength {})",
            d.at, d.strength
        )?,
        None => writeln!(out, "stream: {samples} sample(s), stationary")?,
    }
    let confusion = &observer.confusion;
    match confusion.accuracy() {
        Some(a) => writeln!(
            out,
            "accuracy: {a:.4} ({}/{} correct)",
            confusion.correct(),
            confusion.labeled()
        )?,
        None => writeln!(out, "accuracy: - (no labeled samples)")?,
    }
    let margins = &observer.margins;
    if margins.count() > 0 {
        writeln!(
            out,
            "margin: mean {:.1}, p50 {}, p90 {}, p99 {}, min {}, max {}",
            margins.mean(),
            margins.quantile(0.5).unwrap_or(0),
            margins.quantile(0.9).unwrap_or(0),
            margins.quantile(0.99).unwrap_or(0),
            margins.min().unwrap_or(0),
            margins.max().unwrap_or(0),
        )?;
    }
    match confusion.calibration_gap() {
        Some(gap) => writeln!(out, "calibration gap: {gap:.4}")?,
        None => writeln!(out, "calibration gap: -")?,
    }
    let counts: Vec<String> = observer
        .predictions
        .iter()
        .map(|(class, n)| format!("{class}:{n}"))
        .collect();
    writeln!(out, "predicted class counts: {}", counts.join(" "))?;
    let misses: Vec<String> = confusion
        .pairs()
        .iter()
        .filter(|((truth, predicted), _)| truth != predicted)
        .map(|((truth, predicted), n)| format!("{truth}\u{2192}{predicted} \u{00d7}{n}"))
        .collect();
    if !misses.is_empty() {
        writeln!(out, "misclassified: {}", misses.join(", "))?;
    }
    writeln!(
        out,
        "drift detector: window {window}, threshold {:.4}",
        observer.drift.threshold()
    )?;
    let events = observer.drift.events();
    if events.is_empty() {
        writeln!(out, "drift: none detected")?;
    } else {
        for event in events {
            let latency = drift_at
                .filter(|&at| event.sample_index >= at as u64)
                .map(|at| {
                    format!(
                        ", latency {} after onset {at}",
                        event.sample_index - at as u64
                    )
                })
                .unwrap_or_default();
            writeln!(
                out,
                "drift: detected at sample {} (divergence {:.4}{latency})",
                event.sample_index, event.divergence
            )?;
        }
    }
    report_fleet(&report);
    Ok(())
}

/// Sweeps bit-flip fault rates over a loaded model and reports the
/// accuracy of the unprotected, detect-and-reload, and TMR strategies,
/// plus the hardware price of each protection scheme.
fn run_robustness(
    model: &UniVsaModel,
    data: &Dataset,
    rates: &[f64],
    seed: u64,
    out: &mut dyn std::io::Write,
) -> Result<(), Box<dyn Error>> {
    let clean_acc = model.evaluate(data)?;
    let integrity = model.integrity();
    writeln!(
        out,
        "clean accuracy: {clean_acc:.4} ({} samples)",
        data.len()
    )?;
    writeln!(out)?;
    writeln!(
        out,
        "{:>8}  {:>12}  {:>10}  {:>10}",
        "rate", "unprotected", "detected", "tmr"
    )?;
    for &rate in rates {
        let spec = |s| FaultSpec {
            model: FaultModel::BitFlip { rate },
            target: FaultTarget::All,
            seed: s,
        };
        let corrupted = spec(seed).inject(model)?.model;
        let unprotected = corrupted.evaluate(data)?;
        let detected = !corrupted.verify_integrity(&integrity).is_clean();
        let copies: Vec<UniVsaModel> = (1..=3)
            .map(|c| Ok(spec(seed + 100 * c).inject(model)?.model))
            .collect::<Result<_, univsa::UniVsaError>>()?;
        let tmr = UniVsaModel::repair_from_copies(&copies)?.evaluate(data)?;
        writeln!(
            out,
            "{rate:>8.4}  {unprotected:>12.4}  {:>10}  {tmr:>10.4}",
            if detected { "yes" } else { "no" }
        )?;
    }
    writeln!(out)?;
    writeln!(out, "protection cost (Zynq-ZU3EG @ 250 MHz):")?;
    let cost = CostModel::calibrated();
    for protection in Protection::ALL {
        let hw = HwConfig::new(model.config()).with_protection(protection);
        writeln!(
            out,
            "  {:>13}: {:.2}k LUTs | {:.2}k FFs | {} BRAM | {:.3} W | {:.2} KiB stored",
            protection.name(),
            cost.luts_k(&hw),
            cost.ffs_k(&hw),
            cost.brams(&hw),
            cost.power_w(&hw),
            hw.stored_memory_kib()
        )?;
    }
    Ok(())
}

/// Loads the training (and optional held-out) split from a built-in task or
/// a CSV file.
fn load_training_data(
    task: Option<&str>,
    csv_path: Option<&str>,
    geometry: Option<(usize, usize, usize)>,
) -> Result<(Dataset, Option<Dataset>), Box<dyn Error>> {
    if let Some(name) = task {
        let task = univsa_data::tasks::by_name(name, 2025)
            .ok_or_else(|| format!("unknown task {name:?}; run `univsa tasks`"))?;
        return Ok((task.train, Some(task.test)));
    }
    // the parser enforces both of these, but a typed error beats a panic
    // if a Command is ever constructed by hand
    let path = csv_path
        .ok_or_else(|| UniVsaError::Config("train needs a data source: --task or --csv".into()))?;
    let (w, l, c) = geometry
        .ok_or_else(|| UniVsaError::Config("--csv training needs --geometry W,L,C".into()))?;
    let spec = TaskSpec {
        name: path.to_string(),
        width: w,
        length: l,
        classes: c,
        levels: 256,
    };
    let data = csv::from_csv(&read_text(path)?, spec)?;
    Ok((data, None))
}

/// `std::fs::read` with the offending path in the error message, mapped
/// to a typed [`UniVsaError::Io`].
fn read_bytes(path: &str) -> Result<Vec<u8>, UniVsaError> {
    std::fs::read(path).map_err(|e| UniVsaError::Io(format!("cannot read {path:?}: {e}")))
}

/// `std::fs::read_to_string` with the offending path in the error message.
fn read_text(path: &str) -> Result<String, UniVsaError> {
    std::fs::read_to_string(path).map_err(|e| UniVsaError::Io(format!("cannot read {path:?}: {e}")))
}

/// `std::fs::write` with the offending path in the error message.
fn write_bytes(path: &Path, bytes: &[u8]) -> Result<(), UniVsaError> {
    std::fs::write(path, bytes).map_err(|e| UniVsaError::Io(format!("cannot write {path:?}: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(cmd: Command) -> Result<String, Box<dyn Error>> {
        let mut buf = Vec::new();
        run(cmd, &mut buf)?;
        Ok(String::from_utf8(buf).expect("utf8 output"))
    }

    #[test]
    fn help_prints_usage() {
        let text = run_to_string(Command::Help).unwrap();
        assert!(text.contains("USAGE"));
        assert!(text.contains("univsa train"));
    }

    #[test]
    fn tasks_lists_all_six() {
        let text = run_to_string(Command::Tasks).unwrap();
        for name in ["EEGMMI", "BCI-III-V", "CHB-B", "CHB-IB", "ISOLET", "HAR"] {
            assert!(text.contains(name), "missing {name}");
        }
    }

    #[test]
    fn full_train_infer_info_rtl_flow() {
        let dir = std::env::temp_dir().join(format!("univsa_cli_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let csv_path = dir.join("train.csv");
        let model_path = dir.join("model.uvsa");
        let rtl_dir = dir.join("rtl");

        // tiny two-class CSV dataset: class 0 low levels, class 1 high
        let mut csv_text = String::new();
        for i in 0..24 {
            let label = i % 2;
            let value = if label == 0 { 40 + i } else { 200 + i };
            let row: Vec<String> = std::iter::once(label.to_string())
                .chain((0..12).map(|j| ((value + j) % 256).to_string()))
                .collect();
            csv_text.push_str(&row.join(","));
            csv_text.push('\n');
        }
        std::fs::write(&csv_path, &csv_text).unwrap();

        // train
        let text = run_to_string(Command::Train {
            task: None,
            csv: Some(csv_path.to_string_lossy().into_owned()),
            geometry: Some((3, 4, 2)),
            config: (4, 2, 3, 4, 1),
            epochs: 3,
            seed: 1,
            out: model_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(text.contains("saved"), "{text}");

        // infer on the same file, from the model and from its compiled
        // artifact: every row must carry the reference engine's label
        let infer_rows = |model: &std::path::Path| {
            let text = run_to_string(Command::Infer {
                model: model.to_string_lossy().into_owned(),
                csv: csv_path.to_string_lossy().into_owned(),
            })
            .unwrap();
            assert!(text.starts_with("engine: packed ("), "{text}");
            assert!(text.contains("accuracy:"), "{text}");
            text
        };
        let model = load_model(&std::fs::read(&model_path).unwrap()).unwrap();
        let data = csv::from_csv(&csv_text, {
            let cfg = model.config();
            TaskSpec {
                name: "csv".into(),
                width: cfg.width,
                length: cfg.length,
                classes: cfg.classes,
                levels: cfg.levels,
            }
        })
        .unwrap();
        let reference_rows: Vec<String> = data
            .samples()
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let label = model.trace(&s.values).unwrap().label;
                format!("{i}: predicted {label} (true {})", s.label)
            })
            .collect();
        let predicted_rows = |text: &str| -> Vec<String> {
            text.lines()
                .filter(|l| l.contains(": predicted "))
                .map(str::to_string)
                .collect()
        };
        assert_eq!(predicted_rows(&infer_rows(&model_path)), reference_rows);

        // compile to a packed artifact and infer straight from it
        let artifact_path = dir.join("model.uvsap");
        let compiled = run_to_string(Command::Compile {
            model: model_path.to_string_lossy().into_owned(),
            out: artifact_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(compiled.contains("compiled packed artifact"), "{compiled}");
        assert_eq!(predicted_rows(&infer_rows(&artifact_path)), reference_rows);

        // info
        let text = run_to_string(Command::Info {
            model: model_path.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(text.contains("memory"), "{text}");
        assert!(text.contains("FPGA estimate"), "{text}");

        // rtl emission
        let text = run_to_string(Command::Rtl {
            model: model_path.to_string_lossy().into_owned(),
            out_dir: rtl_dir.to_string_lossy().into_owned(),
        })
        .unwrap();
        assert!(text.contains("wrote"), "{text}");
        assert!(rtl_dir.join("univsa_top.v").exists());
        assert!(rtl_dir.join("vb_h.hex").exists());

        // robustness sweep on the same data
        let text = run_to_string(Command::Robustness {
            model: model_path.to_string_lossy().into_owned(),
            csv: csv_path.to_string_lossy().into_owned(),
            rates: vec![0.0, 0.05],
            seed: 3,
        })
        .unwrap();
        assert!(text.contains("clean accuracy"), "{text}");
        assert!(text.contains("unprotected"), "{text}");
        assert!(text.contains("tmr"), "{text}");
        assert!(text.contains("parity-detect"), "{text}");
        // rate 0 must leave the model untouched and undetected
        let zero_line = text
            .lines()
            .find(|l| l.trim_start().starts_with("0.0000"))
            .expect("rate-0 row");
        assert!(zero_line.contains("no"), "{zero_line}");

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_reports_all_three_layers() {
        let text = run_to_string(Command::Profile {
            task: "bci3v".into(),
            seed: 3,
            epochs: Some(2),
            samples: 4,
            threads: None,
            trace: None,
            mem: false,
            workers: None,
            listen: None,
        })
        .unwrap();
        assert!(text.contains("epoch   1/2"), "{text}");
        assert!(text.contains("test accuracy"), "{text}");
        assert!(text.contains("p99"), "{text}");
        assert!(text.contains("occupancy"), "{text}");
        assert!(text.contains("worker pool"), "{text}");
    }

    #[test]
    fn profile_trace_writes_chrome_json_with_all_three_layers() {
        let path =
            std::env::temp_dir().join(format!("univsa_cli_trace_{}.json", std::process::id()));
        let text = run_to_string(Command::Profile {
            task: "bci3v".into(),
            seed: 5,
            epochs: Some(2),
            samples: 4,
            threads: Some(2),
            trace: Some(path.to_string_lossy().into_owned()),
            mem: false,
            workers: None,
            listen: None,
        })
        .unwrap();
        assert!(text.contains("trace: wrote"), "{text}");
        let json = std::fs::read_to_string(&path).unwrap();
        let doc = univsa::json::parse(json.as_bytes()).expect("trace is valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(univsa::json::Json::as_arr)
            .expect("traceEvents array");
        let cat = |e: &univsa::json::Json| match e.get("cat") {
            Some(univsa::json::Json::Str(s)) => s.clone(),
            _ => String::new(),
        };
        // all three layers share the one timeline
        assert!(events.iter().any(|e| cat(e) == "train"), "{json}");
        assert!(events.iter().any(|e| cat(e) == "infer"), "{json}");
        assert!(events.iter().any(|e| cat(e) == "hw"), "{json}");
        // causal parenting made it into the export
        assert!(
            events
                .iter()
                .any(|e| e.get("args").and_then(|a| a.get("parent")).is_some()),
            "{json}"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bench_diff_passes_identical_and_fails_regressed_reports() {
        let dir = std::env::temp_dir().join(format!("univsa_bdiff_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let base = r#"{"schema":"univsa-perf-baseline/v7","quick":false,"threads":1,
            "tasks":[{"task":"HAR","train_seconds":10.0,"test_accuracy":0.95,
            "latency_us":{"mean":10.0,"p50":9.0,"p90":11.0,"p99":12.0},
            "hw_cycles":{"sample_latency":100,"initiation_interval":40,
            "streamed_samples":64,"makespan":2620},
            "mem":{"peak_alloc_bytes":1000000,"alloc_count":5000},
            "footprint":{"modeled_bits":66840,"actual_bits":66840,"ratio":1.0},
            "quality":{"mean_margin":500.0,"margin_p50":480,"margin_p99":1210,
            "drift":{"stream_samples":256,"at":128,"strength":1.0,"window":32,
            "detection_latency":null}}}]}"#;
        let regressed = base.replace("\"makespan\":2620", "\"makespan\":2621");
        let old_path = dir.join("old.json");
        let same_path = dir.join("same.json");
        let bad_path = dir.join("bad.json");
        std::fs::write(&old_path, base).unwrap();
        std::fs::write(&same_path, base).unwrap();
        std::fs::write(&bad_path, regressed).unwrap();

        let diff_cmd = |new: &std::path::Path| Command::BenchDiff {
            old: old_path.to_string_lossy().into_owned(),
            new: new.to_string_lossy().into_owned(),
            thresholds: diff::Thresholds::default(),
        };
        let text = run_to_string(diff_cmd(&same_path)).unwrap();
        assert!(text.contains("no regression"), "{text}");

        let err = run_to_string(diff_cmd(&bad_path)).unwrap_err();
        assert!(err.to_string().contains("regression detected"), "{err}");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn profile_unknown_task_is_an_error() {
        let err = run_to_string(Command::Profile {
            task: "MNIST".into(),
            seed: 1,
            epochs: Some(1),
            samples: 1,
            threads: None,
            trace: None,
            mem: false,
            workers: None,
            listen: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown task"));
    }

    #[test]
    fn profile_mem_reports_allocation_and_footprint() {
        let text = run_to_string(Command::Profile {
            task: "bci3v".into(),
            seed: 11,
            epochs: Some(2),
            samples: 4,
            threads: None,
            trace: None,
            mem: true,
            workers: None,
            listen: None,
        })
        .unwrap();
        assert!(text.contains("memory: peak heap"), "{text}");
        // per-span attribution table carries the training/inference spans
        assert!(text.contains("net bytes"), "{text}");
        assert!(text.contains("train.epoch"), "{text}");
        assert!(text.contains("infer.similarity"), "{text}");
        // footprint audit lists every Eq. 5 component with its ratio
        assert!(text.contains("footprint audit"), "{text}");
        for component in ["value", "kernel", "feature", "class", "total"] {
            assert!(text.contains(component), "missing {component}: {text}");
        }
        assert!(text.contains("BRAM"), "{text}");
    }

    #[test]
    fn search_runs_in_process_and_is_deterministic() {
        // the surrogate objective keeps this a fleet-machinery test, not
        // a debug-profile training marathon
        let cmd = || Command::Search {
            task: "bci3v".into(),
            workers: Some(0),
            population: 6,
            generations: 2,
            epochs: 1,
            seed: 9,
            chaos: ChaosSpec::default(),
            surrogate: true,
            listen: None,
        };
        let text = run_to_string(cmd()).unwrap();
        assert!(text.contains("best genome"), "{text}");
        assert!(text.contains("best fitness"), "{text}");
        assert!(text.contains("evaluations"), "{text}");
        // stdout is a pure function of the arguments
        assert_eq!(text, run_to_string(cmd()).unwrap());
    }

    #[test]
    fn search_unknown_task_is_an_error() {
        let err = run_to_string(Command::Search {
            task: "MNIST".into(),
            workers: Some(0),
            population: 4,
            generations: 1,
            epochs: 1,
            seed: 9,
            chaos: ChaosSpec::default(),
            surrogate: true,
            listen: None,
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown task"));
    }

    #[test]
    fn seu_reports_every_protection_scheme() {
        let text = run_to_string(Command::Seu {
            task: "bci3v".into(),
            workers: Some(0),
            rate: 1e-6,
            trials: 2,
            samples: 4,
            seed: 5,
            chaos: ChaosSpec::default(),
            listen: None,
        })
        .unwrap();
        assert!(text.contains("SEU campaign"), "{text}");
        for name in ["unprotected", "parity-detect", "tmr"] {
            assert!(text.contains(name), "missing {name}: {text}");
        }
    }

    #[test]
    fn top_renders_refreshing_frames_against_a_live_endpoint() {
        // a real exporter on the global registry, ephemeral port
        let server = univsa_telemetry::start_exporter("127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        univsa_telemetry::counter("worker.0.jobs", 3);
        univsa_telemetry::record_duration("top.test.span", Duration::from_micros(120));

        let text = run_to_string(Command::Top {
            addr: addr.clone(),
            interval_ms: 10,
            refreshes: Some(2),
        })
        .unwrap();
        // two successive frames rendered
        assert!(text.contains("refresh 1/2"), "{text}");
        assert!(text.contains("refresh 2/2"), "{text}");
        // fleet counters and span stats made the table
        assert!(text.contains("worker.0.jobs"), "{text}");
        assert!(text.contains("top.test.span"), "{text}");
        assert!(text.contains("p99"), "{text}");
        // totals are non-decreasing across frames (counters are monotonic)
        let totals: Vec<u64> = text
            .lines()
            .filter(|l| l.trim_start().starts_with("worker.0.jobs"))
            .map(|l| l.split_whitespace().nth(1).unwrap().parse().unwrap())
            .collect();
        assert_eq!(totals.len(), 2, "{text}");
        assert!(totals[1] >= totals[0], "{text}");
        server.shutdown();
    }

    #[test]
    fn top_against_a_dead_endpoint_is_a_typed_error() {
        // a port we just bound and released — nothing is listening
        let server = univsa_telemetry::start_exporter("127.0.0.1:0").unwrap();
        let addr = server.local_addr().to_string();
        server.shutdown();
        let err = run_to_string(Command::Top {
            addr,
            interval_ms: 10,
            refreshes: Some(1),
        })
        .unwrap_err();
        assert!(err.to_string().contains("cannot connect"), "{err}");
    }

    #[test]
    fn unknown_task_is_an_error() {
        let err = run_to_string(Command::Train {
            task: Some("MNIST".into()),
            csv: None,
            geometry: None,
            config: (4, 2, 3, 4, 1),
            epochs: 1,
            seed: 1,
            out: "/tmp/never.uvsa".into(),
        })
        .unwrap_err();
        assert!(err.to_string().contains("unknown task"));
    }
}
