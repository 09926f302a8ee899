//! The four workloads. Each is a closed loop with one client in this
//! process: the next call starts only when the previous one returned.
//! Work is split into short per-task blocks interleaved round-robin over
//! the six task models, so a phase of host contention hits every task
//! alike instead of one task's whole sample.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use univsa::{load_packed, PackedModel, TrainOptions, UniVsaModel, UniVsaTrainer};

use crate::cli::{expected_stdout, run_compile, run_infer};
use crate::inputs::{self, fit_seed, Deployed, TaskInput, CLI_ROWS, STREAM_SAMPLES};
use crate::layers::{self, InferLedger, TrainLedger, BATCH};
use crate::stats::{geomean, highest_tail, median, percentile, work_weighted};
use crate::{Checks, Metric, Workload};

const TASKS: usize = 6;
/// Epochs of each `train` fit.
const TRAIN_EPOCHS: usize = 3;
/// Held-out accuracy floors after `TRAIN_EPOCHS` epochs, in Table I task
/// order, with the floor on their mean. Accuracy depends on `--seed`, so
/// each floor is the lowest value seen over 30 seeds (1001–1010,
/// 2001–2010, 3001–3010) less 0.05, rounded down: minima 0.5125, 0.5167,
/// 0.600, 0.685, 0.3308, 0.5167 and 0.5928 for the mean. The mean floor
/// is the check that matters: a model that learned nothing scores a mean
/// of at most 0.39 (chance, or the majority class). EEGMMI's floor sits
/// below its binary chance level, as its lowest value sits barely above.
const ACCURACY_FLOORS: [f64; TASKS] = [0.46, 0.46, 0.55, 0.63, 0.28, 0.46];
const MEAN_ACCURACY_FLOOR: f64 = 0.54;
/// Set-ups per untraced run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Samples whose packed totals are compared with the reference engine.
const TOTALS_CHECKED: usize = 64;
/// Throughput is read from the fastest tenth of blocks (of epochs, of
/// invocations). Another tenant taking a CPU only ever slows a block
/// down, and how much of a run it does so varies from run to run: on a
/// shared 2-vCPU host the median block rate of `batch` spread 22% across
/// eight runs where the fast decile of the same blocks spread 5%.
const FAST: f64 = 0.9;

/// What a run needs to know about its host and arguments.
pub struct Ctx {
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
    pub nproc: usize,
    pub univsa: PathBuf,
    pub out: PathBuf,
}

/// A finished run: operation counts, correctness checks, and either the
/// end-to-end metrics (untraced) or the per-layer metrics (traced).
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub checks: Checks,
    pub metrics: Vec<Metric>,
}

/// One `univsa infer` fixture: the CLI-compiled artifact, its CSV, and
/// where the predictions go.
struct CliFixture {
    pk: PathBuf,
    csv: PathBuf,
    preds: PathBuf,
}

enum Prepared {
    Train(Vec<TaskInput>),
    Serve(Vec<Deployed>),
    Cli(Vec<Deployed>, Vec<CliFixture>),
}

/// The workload's set-up, returning it with the data-generation time.
fn setup(w: Workload, ctx: &Ctx, ledger: &mut TrainLedger) -> Result<(Prepared, f64), String> {
    let _span = univsa_telemetry::span("bench", "setup");
    univsa_par::set_threads(ctx.nproc);
    let t0 = Instant::now();
    let tasks = inputs::tasks(ctx.seed);
    let generate_ms = t0.elapsed().as_secs_f64() * 1e3;
    let prepared = match w {
        Workload::Train => Prepared::Train(tasks),
        Workload::Stream | Workload::Batch => {
            Prepared::Serve(inputs::deploy(tasks, ctx.seed, STREAM_SAMPLES, ledger)?)
        }
        Workload::Cli => {
            let deployed = inputs::deploy(tasks, ctx.seed, CLI_ROWS, ledger)?;
            let dir = ctx.out.join("cli");
            std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
            let mut fixtures = Vec::new();
            for d in &deployed {
                let (model, csv) = inputs::write_fixtures(d, &dir)?;
                let pk = dir.join(format!("{}.pk", d.name()));
                run_compile(&ctx.univsa, &model, &pk)?;
                let preds = dir.join(format!("{}.preds.txt", d.name()));
                fixtures.push(CliFixture { pk, csv, preds });
            }
            Prepared::Cli(deployed, fixtures)
        }
    };
    Ok((prepared, generate_ms))
}

/// Per-task samples of one serving workload.
struct Serving {
    /// Samples/s of each block (one task's share of a round).
    rates: Vec<Vec<f64>>,
    /// Latency of each timed call, µs.
    latency_us: Vec<Vec<f64>>,
    attempted: u64,
    failed: u64,
}

impl Serving {
    fn new() -> Self {
        Self {
            rates: vec![Vec::new(); TASKS],
            latency_us: vec![Vec::new(); TASKS],
            attempted: 0,
            failed: 0,
        }
    }
}

fn elapsed_us(t0: Instant) -> f64 {
    t0.elapsed().as_secs_f64() * 1e6
}

/// `stream`: one sample per `PackedModel::infer` call on one thread.
fn stream_loop(
    deployed: &[Deployed],
    expected: &[Vec<usize>],
    ctx: &Ctx,
    ledger: &mut InferLedger,
) -> Serving {
    univsa_par::set_threads(1);
    let mut out = Serving::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < ctx.seconds {
        for (t, d) in deployed.iter().enumerate() {
            let _span = univsa_telemetry::span("bench", "stream_block");
            ledger.block(t, || {
                let block = Instant::now();
                for (s, &want) in d.samples.iter().zip(&expected[t]) {
                    let t0 = Instant::now();
                    let got = black_box(d.packed.infer(black_box(&s.values)));
                    out.latency_us[t].push(elapsed_us(t0));
                    out.attempted += 1;
                    out.failed += u64::from(got.ok() != Some(want));
                }
                out.rates[t].push(d.samples.len() as f64 / block.elapsed().as_secs_f64());
            });
        }
        rounds += 1;
    }
    out
}

/// `batch`: `infer_batch` over 128-sample batches at pool width `nproc`.
fn batch_loop(
    deployed: &[Deployed],
    expected: &[Vec<usize>],
    ctx: &Ctx,
    ledger: &mut InferLedger,
) -> Serving {
    univsa_par::set_threads(ctx.nproc);
    let batches: Vec<Vec<Vec<&[u8]>>> = deployed
        .iter()
        .map(|d| {
            d.samples
                .chunks(BATCH)
                .map(|c| c.iter().map(|s| s.values.as_slice()).collect())
                .collect()
        })
        .collect();
    let mut out = Serving::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < ctx.seconds {
        for (t, d) in deployed.iter().enumerate() {
            ledger.block(t, || {
                let block = Instant::now();
                for (b, values) in batches[t].iter().enumerate() {
                    let _span = univsa_telemetry::span("bench", "infer_batch");
                    let t0 = Instant::now();
                    let got = black_box(d.packed.infer_batch(black_box(values)));
                    out.latency_us[t].push(elapsed_us(t0));
                    out.attempted += 1;
                    let want = &expected[t][b * BATCH..b * BATCH + values.len()];
                    out.failed += u64::from(got.ok().as_deref() != Some(want));
                }
                out.rates[t].push(d.samples.len() as f64 / block.elapsed().as_secs_f64());
            });
        }
        rounds += 1;
    }
    out
}

/// `cli`: `univsa infer --model T.pk --csv T.csv > T.preds.txt` as a
/// child process, every output compared byte for byte.
fn cli_loop(fixtures: &[CliFixture], expected: &[String], ctx: &Ctx) -> Serving {
    let mut out = Serving::new();
    let start = Instant::now();
    let mut rounds = 0;
    while rounds == 0 || start.elapsed() < ctx.seconds {
        for (t, f) in fixtures.iter().enumerate() {
            let _span = univsa_telemetry::span("bench", "cli_infer");
            out.attempted += 1;
            match run_infer(&ctx.univsa, &f.pk, &f.csv, &f.preds) {
                Ok(elapsed) => {
                    out.latency_us[t].push(elapsed.as_secs_f64() * 1e6);
                    let printed = std::fs::read_to_string(&f.preds).unwrap_or_default();
                    out.failed += u64::from(printed != expected[t]);
                }
                Err(e) => {
                    eprintln!("{e}");
                    out.failed += 1;
                }
            }
        }
        rounds += 1;
    }
    out
}

/// Per-task epoch times plus the round-0 models and accuracies.
struct Training {
    models: Vec<UniVsaModel>,
    accuracy: Vec<f64>,
    attempted: u64,
    failed: u64,
}

/// `train`: every paper config fitted for `TRAIN_EPOCHS` epochs on one
/// thread, round-robin. After the first full round a fit starts only if
/// its previous duration still ends within `--seconds`.
fn train_loop(inputs: &[TaskInput], ctx: &Ctx, ledger: &mut TrainLedger) -> Training {
    univsa_par::set_threads(1);
    let mut out = Training {
        models: Vec::new(),
        accuracy: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let start = Instant::now();
    let mut fit_time = [Duration::ZERO; TASKS];
    for round in 0.. {
        let mut fits = 0;
        for (t, input) in inputs.iter().enumerate() {
            if round > 0 && start.elapsed() + fit_time[t] > ctx.seconds {
                continue;
            }
            fits += 1;
            let trainer = UniVsaTrainer::new(
                input.config.clone(),
                TrainOptions {
                    epochs: TRAIN_EPOCHS,
                    ..TrainOptions::default()
                },
            );
            out.attempted += 1;
            let t0 = Instant::now();
            let fitted = ledger.fit(t, &trainer, &input.task.train, fit_seed(ctx.seed, t, round));
            fit_time[t] = t0.elapsed();
            match fitted {
                Ok(model) if round == 0 => {
                    let acc = PackedModel::compile(&model).evaluate(&input.task.test);
                    out.accuracy.push(acc.unwrap_or(0.0));
                    out.models.push(model);
                }
                Ok(_) => {}
                Err(e) => {
                    eprintln!("fit {} failed: {e}", input.name());
                    out.failed += 1;
                    if round == 0 {
                        return out;
                    }
                }
            }
        }
        if fits == 0 {
            break;
        }
    }
    out
}

/// Untimed: labels from single calls must equal `infer_batch` labels, and
/// packed similarity totals must equal the reference engine's. Returns
/// the labels every timed call is compared with.
fn serve_checks(deployed: &[Deployed], nproc: usize, checks: &mut Checks) -> Vec<Vec<usize>> {
    univsa_par::set_threads(nproc);
    let mut expected = Vec::new();
    for d in deployed {
        let single: Vec<usize> = d
            .samples
            .iter()
            .map(|s| d.packed.infer(&s.values).unwrap_or(usize::MAX))
            .collect();
        let values: Vec<&[u8]> = d.samples.iter().map(|s| s.values.as_slice()).collect();
        let batched = d.packed.infer_batch(&values).unwrap_or_default();
        checks.record(
            &format!("{}: infer labels == infer_batch labels", d.name()),
            single == batched,
            format!("{} samples", single.len()),
        );
        let same_totals = d.samples[..TOTALS_CHECKED].iter().all(|s| {
            match (d.packed.infer_detailed(&s.values), d.model.trace(&s.values)) {
                (Ok(p), Ok(r)) => p.totals == r.totals && p.label == r.label,
                _ => false,
            }
        });
        checks.record(
            &format!("{}: infer_detailed totals == trace totals", d.name()),
            same_totals,
            format!("{TOTALS_CHECKED} samples"),
        );
        expected.push(single);
    }
    expected
}

/// Prints one task's latency distribution: the median and the highest
/// percentile with at least ten samples beyond it, with the sample count.
fn print_latency(name: &str, fast_rate: f64, latency_us: &[f64]) {
    let tail = match highest_tail(latency_us.len()) {
        Some(q) => format!("p{} {:.1}", q * 100.0, percentile(latency_us, q)),
        None => "no supported tail".into(),
    };
    println!(
        "  {:<10} {:>12.1} {:>7} {:>12.1}   {tail}",
        name,
        fast_rate,
        latency_us.len(),
        percentile(latency_us, 0.5)
    );
}

fn print_latency_header(rate: &str, unit: &str) {
    println!(
        "  {:<10} {:>12} {:>7} {:>12}   tail, latency per {unit}",
        "task", rate, "n", "p50 us"
    );
}

/// Serving throughput: each task's fast-decile block rate, combined by
/// geometric mean so each deployed model counts equally.
fn serving_throughput(deployed: &[Deployed], s: &Serving, unit: &str) -> f64 {
    print_latency_header("fast rate/s", unit);
    let rates: Vec<f64> = deployed
        .iter()
        .zip(s.rates.iter().zip(&s.latency_us))
        .map(|(d, (r, lat))| {
            let rate = percentile(r, FAST);
            print_latency(d.name(), rate, lat);
            rate
        })
        .collect();
    geomean(&rates)
}

/// `cli` throughput: rows per second including process start, Σ rows over
/// Σ per-task fast-decile invocation time. A task none of whose
/// invocations ran contributes nothing; with none at all it is 0, and the
/// failed invocations mark the run incorrect.
fn cli_throughput(names: &[&str], run: &Serving) -> f64 {
    print_latency_header("fast rows/s", "invocation");
    let mut work = Vec::new();
    for (name, lat) in names.iter().zip(&run.latency_us) {
        if lat.is_empty() {
            println!("  {name:<10} no invocation succeeded");
            continue;
        }
        let fast = percentile(lat, 1.0 - FAST) / 1e6;
        print_latency(name, CLI_ROWS as f64 / fast, lat);
        work.push((CLI_ROWS as f64, fast));
    }
    if work.is_empty() {
        0.0
    } else {
        work_weighted(&work)
    }
}

/// Runs one workload end to end: set-up (repeated when untraced), the
/// untimed checks, the measured loop, and in a traced run the probe and
/// per-layer metrics.
pub fn run(w: Workload, ctx: &Ctx) -> Result<Outcome, String> {
    let reps = if ctx.trace { 1 } else { SETUP_REPS };
    let mut setup_s = Vec::new();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let mut ledger = TrainLedger::new(TASKS);
        let t0 = Instant::now();
        let (prepared, generate_ms) = setup(w, ctx, &mut ledger)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        last = Some((prepared, generate_ms, ledger));
    }
    let (prepared, generate_ms, setup_ledger) = last.expect("at least one set-up");
    let each: Vec<String> = setup_s.iter().map(|s| format!("{s:.3}")).collect();
    println!("set-up, s: {}", each.join(" "));

    let mut checks = Checks::default();
    let mut infer = InferLedger::new(TASKS, ctx.trace);
    let mut train = setup_ledger;
    let (throughput, attempted, failed, deployed) = match prepared {
        Prepared::Train(tasks) => {
            let mut ledger = TrainLedger::new(TASKS);
            let run = train_loop(&tasks, ctx, &mut ledger);
            if run.models.len() < TASKS {
                return Err("a round-0 fit failed; see above".into());
            }
            println!(
                "  {:<10} {:>7} {:>12} {:>12} {:>12} {:>9}",
                "task", "epochs", "fast ms", "median ms", "max ms", "accuracy"
            );
            let mut work = Vec::new();
            for ((input, task), (acc, floor)) in tasks
                .iter()
                .zip(&ledger.tasks)
                .zip(run.accuracy.iter().zip(ACCURACY_FLOORS))
            {
                let fast = percentile(&task.epoch_s, 1.0 - FAST);
                println!(
                    "  {:<10} {:>7} {:>12.1} {:>12.1} {:>12.1} {:>9.4}",
                    input.name(),
                    task.epoch_s.len(),
                    fast * 1e3,
                    median(&task.epoch_s) * 1e3,
                    percentile(&task.epoch_s, 1.0) * 1e3,
                    acc
                );
                work.push((task.samples as f64, fast));
                checks.record(
                    &format!("{}: held-out accuracy >= {floor}", input.name()),
                    *acc >= floor,
                    format!("{acc:.4}"),
                );
            }
            let mean = run.accuracy.iter().sum::<f64>() / TASKS as f64;
            checks.record(
                &format!("mean held-out accuracy >= {MEAN_ACCURACY_FLOOR}"),
                mean >= MEAN_ACCURACY_FLOOR,
                format!("{mean:.4}"),
            );
            let deployed: Vec<Deployed> = tasks
                .into_iter()
                .zip(run.models)
                .map(|(input, model)| Deployed::new(input, model, ctx.seed, STREAM_SAMPLES))
                .collect();
            train = ledger;
            (work_weighted(&work), run.attempted, run.failed, deployed)
        }
        Prepared::Serve(deployed) => {
            let expected = serve_checks(&deployed, ctx.nproc, &mut checks);
            let (run, unit) = if w == Workload::Stream {
                (stream_loop(&deployed, &expected, ctx, &mut infer), "call")
            } else {
                (
                    batch_loop(&deployed, &expected, ctx, &mut infer),
                    "128-sample batch",
                )
            };
            let throughput = serving_throughput(&deployed, &run, unit);
            (throughput, run.attempted, run.failed, deployed)
        }
        Prepared::Cli(deployed, fixtures) => {
            let expected_labels = serve_checks(&deployed, ctx.nproc, &mut checks);
            let mut expected = Vec::new();
            for ((d, f), labels) in deployed.iter().zip(&fixtures).zip(&expected_labels) {
                let bytes = std::fs::read(&f.pk).map_err(|e| format!("{}: {e}", f.pk.display()))?;
                let artifact = load_packed(&bytes).map_err(|e| e.to_string())?;
                checks.record(
                    &format!(
                        "{}: univsa compile artifact == PackedModel::compile",
                        d.name()
                    ),
                    artifact == d.packed,
                    String::new(),
                );
                let rows = &d.samples[..CLI_ROWS];
                let text = expected_stdout(&artifact, rows).map_err(|e| e.to_string())?;
                let in_process: Vec<String> = rows
                    .iter()
                    .zip(labels)
                    .enumerate()
                    .map(|(i, (s, l))| format!("{i}: predicted {l} (true {})", s.label))
                    .collect();
                checks.record(
                    &format!("{}: expected CLI rows == in-process labels", d.name()),
                    text.lines()
                        .skip(1)
                        .take(CLI_ROWS)
                        .eq(in_process.iter().map(String::as_str)),
                    format!("{CLI_ROWS} rows"),
                );
                expected.push(text);
            }
            let run = cli_loop(&fixtures, &expected, ctx);
            let names: Vec<&str> = deployed.iter().map(Deployed::name).collect();
            let throughput = cli_throughput(&names, &run);
            (throughput, run.attempted, run.failed, deployed)
        }
    };

    let e2e = vec![
        Metric::new("setup_s", "s", median(&setup_s)),
        Metric::new("throughput_sps", "samples/s", throughput),
    ];
    if !ctx.trace {
        return Ok(Outcome {
            attempted,
            failed,
            checks,
            metrics: e2e,
        });
    }
    println!("traced end-to-end, for the tracing-overhead comparison only:");
    for m in &e2e {
        println!("  {:<18} {:>16.4} {}", m.name, m.value, m.unit);
    }
    univsa_par::set_threads(ctx.nproc);
    let mut accuracy = 0.0;
    for d in &deployed {
        accuracy += d
            .packed
            .evaluate(&d.input.task.test)
            .map_err(|e| e.to_string())?
            / TASKS as f64;
    }
    let probe = layers::probe(
        &deployed,
        &mut infer,
        &ctx.univsa,
        &ctx.out.join("probe"),
        ctx.nproc,
        &mut checks,
    )?;
    let metrics = layers::metrics(&deployed, &infer, &train, probe, generate_ms, accuracy);
    Ok(Outcome {
        attempted,
        failed,
        checks,
        metrics,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A `univsa` that cannot run: every invocation fails, and the run
    /// still yields a throughput (0) instead of panicking on a task with
    /// no latency samples.
    #[test]
    fn cli_with_a_failing_binary_counts_failures_and_reports_zero() {
        let dir = std::env::temp_dir().join(format!("univsa-bench-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let fixtures: Vec<CliFixture> = (0..TASKS)
            .map(|t| CliFixture {
                pk: dir.join(format!("{t}.pk")),
                csv: dir.join(format!("{t}.csv")),
                preds: dir.join(format!("{t}.preds.txt")),
            })
            .collect();
        let ctx = Ctx {
            seed: 1,
            seconds: Duration::ZERO,
            trace: false,
            nproc: 1,
            univsa: dir.join("no-such-univsa"),
            out: dir.clone(),
        };
        let run = cli_loop(&fixtures, &vec![String::new(); TASKS], &ctx);
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!((run.attempted, run.failed), (TASKS as u64, TASKS as u64));
        let names = ["a", "b", "c", "d", "e", "f"];
        assert_eq!(cli_throughput(&names, &run), 0.0);
    }
}
