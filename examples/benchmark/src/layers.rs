//! Per-layer accounting for the traced run.
//!
//! Every per-layer number is a difference of the program's own aggregates
//! taken around a call the benchmark made: `univsa_par::stats()` for the
//! pool stages (`train.*`, `tensor.*`, `infer.batch`) and the telemetry
//! registry's histogram sums/counts and allocation aggregates for the
//! packed engine's `infer.{dvp,biconv,encode,similarity}` stage spans.
//! Nothing is read from the bounded flight recorder, which only feeds the
//! span file.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::{Duration, Instant};

use univsa::{load_packed, save_packed, EpochStats, PackedModel, UniVsaModel, UniVsaTrainer};
use univsa_data::{csv, Dataset, Sample};
use univsa_hw::{HwConfig, Pipeline};

use crate::cli::{expected_stdout, run_infer};
use crate::inputs::{csv_text, Deployed, STREAM_SAMPLES};
use crate::{Checks, Metric};

/// Packed-engine stages, in dataflow order (the span names
/// `PackedModel::infer_detailed` records, and the `univsa-hw` stages).
pub const STAGES: [&str; 4] = ["dvp", "biconv", "encode", "similarity"];
/// Training stages the pool records (`train.<stage>`).
const TRAIN_STAGES: [&str; 5] = [
    "value_maps",
    "conv_fwd",
    "conv_bwd",
    "encode_fwd",
    "encode_bwd",
];
/// GEMM regions (`tensor.<kernel>`); they nest inside the conv stages and
/// also run in the ValueBox MLPs and similarity heads.
const TENSOR_STAGES: [&str; 2] = ["gemm", "gemm_nt"];
/// Samples per `infer_batch` call, here and in the `batch` workload.
pub const BATCH: usize = 128;
/// Repetitions behind each probe timing (the median is kept).
const PROBE_REPS: usize = 5;
/// Passes over every task's batches in the pool probe.
const POOL_PASSES: usize = 2;
/// Samples of the simulated hardware schedule.
const HW_SAMPLES: usize = 64;

/// The samples the probe serves: the first `STREAM_SAMPLES` of the
/// workload's own, so every workload's probe does the same work.
fn probed(d: &Deployed) -> &[Sample] {
    &d.samples[..STREAM_SAMPLES]
}

fn pool_stats() -> BTreeMap<&'static str, univsa_par::StageStats> {
    univsa_par::stats().into_iter().collect()
}

fn epoch_allocs() -> u64 {
    univsa_telemetry::mem_aggregates()
        .into_iter()
        .find(|(name, _)| name == "train.epoch")
        .map_or(0, |(_, agg)| agg.alloc_count)
}

/// Training work of one task: epoch wall times plus the pool-stage and
/// allocation deltas of the fits that produced them.
#[derive(Default)]
pub struct TrainTask {
    pub epoch_s: Vec<f64>,
    pub samples: usize,
    stage_ns: BTreeMap<&'static str, u64>,
    allocs: u64,
}

/// Per-task training accounting. Every fit the benchmark makes goes
/// through [`TrainLedger::fit`].
pub struct TrainLedger {
    pub tasks: Vec<TrainTask>,
}

impl TrainLedger {
    pub fn new(tasks: usize) -> Self {
        Self {
            tasks: (0..tasks).map(|_| TrainTask::default()).collect(),
        }
    }

    /// Fits task `t` and books its epoch times and stage deltas.
    pub fn fit(
        &mut self,
        t: usize,
        trainer: &UniVsaTrainer,
        data: &Dataset,
        seed: u64,
    ) -> Result<UniVsaModel, String> {
        let _span = univsa_telemetry::span("bench", "fit");
        let stages = pool_stats();
        let allocs = epoch_allocs();
        let mut epochs = Vec::new();
        let outcome = trainer
            .fit_observed(data, seed, &mut |s: &EpochStats| {
                epochs.push(s.duration.as_secs_f64());
            })
            .map_err(|e| e.to_string())?;
        let task = &mut self.tasks[t];
        for (name, after) in pool_stats() {
            let before = stages.get(name).map_or(0, |s| s.wall_ns);
            *task.stage_ns.entry(name).or_default() += after.wall_ns - before;
        }
        task.allocs += epoch_allocs() - allocs;
        task.samples = data.len();
        task.epoch_s.extend(epochs);
        Ok(outcome.model)
    }
}

/// Summed packed-engine stage time, sample count and allocations.
#[derive(Default, Clone, Copy)]
pub struct InferTotals {
    stage_ns: [u128; 4],
    samples: u64,
    allocs: u64,
}

fn infer_totals() -> InferTotals {
    let snap = univsa_telemetry::snapshot();
    let hist = |name: &str| snap.histograms.get(&format!("infer.{name}"));
    let mut totals = InferTotals::default();
    for (slot, stage) in totals.stage_ns.iter_mut().zip(STAGES) {
        *slot = hist(stage).map_or(0, |h| h.sum_ns());
    }
    totals.samples = hist("sample").map_or(0, |h| h.count());
    totals.allocs = snap
        .mem_aggregates
        .get("infer.sample")
        .map_or(0, |a| a.alloc_count);
    totals
}

/// Attributes packed-engine stage time to tasks by differencing the
/// registry around each per-task block. Inert when tracing is off.
pub struct InferLedger {
    on: bool,
    tasks: Vec<InferTotals>,
}

impl InferLedger {
    pub fn new(tasks: usize, on: bool) -> Self {
        Self {
            on,
            tasks: vec![InferTotals::default(); tasks],
        }
    }

    pub fn block<R>(&mut self, t: usize, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let before = infer_totals();
        let out = f();
        let after = infer_totals();
        let task = &mut self.tasks[t];
        for s in 0..STAGES.len() {
            task.stage_ns[s] += after.stage_ns[s] - before.stage_ns[s];
        }
        task.samples += after.samples - before.samples;
        task.allocs += after.allocs - before.allocs;
        out
    }
}

fn median_duration(mut f: impl FnMut() -> Duration) -> Duration {
    let mut times: Vec<Duration> = (0..PROBE_REPS).map(|_| f()).collect();
    times.sort();
    times[PROBE_REPS / 2]
}

fn elapsed<R>(f: impl FnOnce() -> R) -> Duration {
    let t0 = Instant::now();
    black_box(f());
    t0.elapsed()
}

/// Runs the 128-sample batches of every task `POOL_PASSES` times at
/// `threads` pool width; returns the `infer.batch` pool delta.
fn pool_pass(deployed: &[Deployed], threads: usize) -> univsa_par::StageStats {
    univsa_par::set_threads(threads);
    let before = pool_stats().remove("infer.batch").unwrap_or_default();
    for _ in 0..POOL_PASSES {
        for d in deployed {
            for chunk in probed(d).chunks(BATCH) {
                let values: Vec<&[u8]> = chunk.iter().map(|s| s.values.as_slice()).collect();
                let _ = black_box(d.packed.infer_batch(&values));
            }
        }
    }
    let after = pool_stats().remove("infer.batch").unwrap_or_default();
    univsa_par::StageStats {
        regions: after.regions - before.regions,
        chunks: after.chunks - before.chunks,
        busy_ns: after.busy_ns - before.busy_ns,
        wall_ns: after.wall_ns - before.wall_ns,
        max_workers: after.max_workers,
    }
}

/// The cross-layer probe every traced run ends with, so that each
/// per-layer metric is measured whatever the workload exercised:
/// single-sample inference per task, the pool at 1 and `nproc` threads,
/// compile/save/load, CSV parsing and `univsa infer` invocations.
pub fn probe(
    deployed: &[Deployed],
    ledger: &mut InferLedger,
    univsa: &Path,
    dir: &Path,
    nproc: usize,
    checks: &mut Checks,
) -> Result<Vec<Metric>, String> {
    let _span = univsa_telemetry::span("bench", "probe");
    univsa_par::set_threads(1);
    for (t, d) in deployed.iter().enumerate() {
        ledger.block(t, || {
            for s in probed(d) {
                let _ = black_box(d.packed.infer(black_box(&s.values)));
            }
        });
    }

    let wide = pool_pass(deployed, nproc);
    let serial = pool_pass(deployed, 1);
    let passes = POOL_PASSES as f64;
    let mut out = vec![
        Metric::new(
            "par.infer_batch.occupancy",
            "ratio",
            wide.busy_ns as f64 / (wide.wall_ns as f64 * nproc as f64),
        ),
        Metric::new(
            "par.infer_batch.busy_ms",
            "ms",
            wide.busy_ns as f64 / 1e6 / passes,
        ),
        Metric::new(
            "par.infer_batch.wall_ms",
            "ms",
            wide.wall_ns as f64 / 1e6 / passes,
        ),
        Metric::new(
            "par.infer_batch.speedup",
            "x",
            serial.wall_ns as f64 / wide.wall_ns as f64,
        ),
    ];

    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let (mut compile_us, mut load_us, mut bytes_total) = (0.0, 0.0, 0usize);
    let (mut parse_ns, mut parse_rows) = (0.0, 0usize);
    let mut parse_ms = Vec::new();
    let mut fixtures = Vec::new();
    for d in deployed {
        compile_us +=
            median_duration(|| elapsed(|| PackedModel::compile(&d.model))).as_secs_f64() * 1e6;
        let bytes = save_packed(&d.packed).map_err(|e| e.to_string())?;
        bytes_total += bytes.len();
        load_us += median_duration(|| elapsed(|| load_packed(&bytes))).as_secs_f64() * 1e6;
        let loaded = load_packed(&bytes).map_err(|e| e.to_string())?;
        checks.record(
            &format!("probe {}: load_packed(save_packed(m)) == m", d.name()),
            loaded == d.packed,
            String::new(),
        );

        let text = csv_text(d, STREAM_SAMPLES);
        let parse = median_duration(|| elapsed(|| csv::from_csv(&text, d.input.task.spec.clone())));
        parse_ns += parse.as_secs_f64() * 1e9;
        parse_rows += STREAM_SAMPLES;
        parse_ms.push(parse.as_secs_f64() * 1e3);

        let pk = dir.join(format!("{}.pk", d.name()));
        let csv_path = dir.join(format!("{}.csv", d.name()));
        std::fs::write(&pk, &bytes).map_err(|e| format!("{}: {e}", pk.display()))?;
        std::fs::write(&csv_path, &text).map_err(|e| format!("{}: {e}", csv_path.display()))?;
        fixtures.push((pk, csv_path, text));
    }
    out.push(Metric::new("compile.compile_us", "us", compile_us));
    out.push(Metric::new("compile.load_packed_us", "us", load_us));
    out.push(Metric::new(
        "compile.artifact_bytes",
        "bytes",
        bytes_total as f64,
    ));
    out.push(Metric::new(
        "data.csv_parse_ns_per_row",
        "ns",
        parse_ns / parse_rows as f64,
    ));

    // start-up: an invocation with nothing to classify
    let header_only = dir.join("header-only.csv");
    let header = fixtures[0].2.lines().next().unwrap_or("#");
    std::fs::write(&header_only, format!("{header}\n"))
        .map_err(|e| format!("{}: {e}", header_only.display()))?;
    let preds = dir.join("preds.txt");
    let mut failures = 0;
    let startup =
        median_duration(
            || match run_infer(univsa, &fixtures[0].0, &header_only, &preds) {
                Ok(elapsed) => elapsed,
                Err(_) => {
                    failures += 1;
                    Duration::ZERO
                }
            },
        );
    // output and exit: whatever an invocation spends beyond start-up,
    // parsing and classifying
    let mut output_ms = 0.0;
    for ((d, (pk, csv_path, _)), parse) in deployed.iter().zip(&fixtures).zip(&parse_ms) {
        let rows = probed(d);
        let expected = expected_stdout(&d.packed, rows).map_err(|e| e.to_string())?;
        let invoke = median_duration(|| match run_infer(univsa, pk, csv_path, &preds) {
            Ok(elapsed) if std::fs::read_to_string(&preds).ok().as_ref() == Some(&expected) => {
                elapsed
            }
            _ => {
                failures += 1;
                Duration::ZERO
            }
        });
        let classify = median_duration(|| {
            elapsed(|| {
                for s in rows {
                    let _ = black_box(d.packed.infer(black_box(&s.values)));
                }
            })
        });
        output_ms +=
            (invoke.as_secs_f64() - startup.as_secs_f64() - classify.as_secs_f64()) * 1e3 - parse;
    }
    checks.record(
        "probe: every univsa infer invocation matched the in-process labels",
        failures == 0,
        format!("{failures} failed"),
    );
    out.push(Metric::new(
        "cli.startup_ms",
        "ms",
        startup.as_secs_f64() * 1e3,
    ));
    out.push(Metric::new("cli.output_ms", "ms", output_ms));
    Ok(out)
}

/// Busy cycles per sample of each simulated hardware stage, from the
/// streaming schedule of the paper's accelerator.
fn hw_cycles(d: &Deployed) -> [f64; 4] {
    let util = Pipeline::new(HwConfig::new(&d.input.config))
        .schedule(HW_SAMPLES)
        .stage_utilization();
    let mut out = [0.0; 4];
    for (slot, u) in out.iter_mut().zip(util) {
        *slot = u.busy_cycles as f64 / HW_SAMPLES as f64;
    }
    out
}

/// 64-bit words the similarity stage XORs and popcounts per sample:
/// `Θ·C·⌈D/64⌉` with `D = W·L`.
fn similarity_words(d: &Deployed) -> f64 {
    let c = &d.input.config;
    (c.effective_voters() * c.classes * c.vsa_dim().div_ceil(64)) as f64
}

/// 64-bit words the byte-lane SWAR BiConv loads, XORs and byte-popcounts
/// per sample: one per kernel tap per group of 8 grid positions per row
/// per output channel, `O·W·⌈L/8⌉·D_K²`.
fn biconv_words(d: &Deployed) -> f64 {
    let c = &d.input.config;
    (c.encoding_channels() * c.width * c.length.div_ceil(8) * c.d_k * c.d_k) as f64
}

/// Assembles the per-layer metrics and prints the cross-layer table.
pub fn metrics(
    deployed: &[Deployed],
    infer: &InferLedger,
    train: &TrainLedger,
    probe: Vec<Metric>,
    generate_ms: f64,
    accuracy: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();
    println!("cross-layer, per sample: packed-engine ns next to simulated accelerator busy cycles");
    println!(
        "  {:<10} {:>18} {:>18} {:>18} {:>18}",
        "task", "dvp ns/cyc", "biconv ns/cyc", "encode ns/cyc", "similarity ns/cyc"
    );
    for (d, totals) in deployed.iter().zip(&infer.tasks) {
        let n = totals.samples.max(1) as f64;
        let ns: Vec<f64> = totals.stage_ns.iter().map(|&s| s as f64 / n).collect();
        let cycles = hw_cycles(d);
        let cells: Vec<String> = ns
            .iter()
            .zip(cycles)
            .map(|(ns, cyc)| format!("{ns:.0}/{cyc:.0}"))
            .collect();
        println!(
            "  {:<10} {:>18} {:>18} {:>18} {:>18}",
            d.name(),
            cells[0],
            cells[1],
            cells[2],
            cells[3]
        );
        for (stage, v) in STAGES.iter().zip(&ns) {
            out.push(Metric::new(
                &format!("infer.{stage}_ns.{}", d.name()),
                "ns",
                *v,
            ));
        }
        out.push(Metric::new(
            &format!("infer.allocs_per_sample.{}", d.name()),
            "count",
            totals.allocs as f64 / n,
        ));
        let sim_words = similarity_words(d);
        out.push(Metric::new(
            &format!("bits.similarity_words.{}", d.name()),
            "count",
            sim_words,
        ));
        out.push(Metric::new(
            &format!("bits.biconv_words.{}", d.name()),
            "count",
            biconv_words(d),
        ));
        out.push(Metric::new(
            &format!("bits.similarity_ns_per_word.{}", d.name()),
            "ns",
            ns[3] / sim_words,
        ));
        for (stage, cyc) in STAGES.iter().zip(cycles) {
            out.push(Metric::new(
                &format!("hw.{stage}_cycles.{}", d.name()),
                "cycles",
                cyc,
            ));
        }
    }
    out.extend(probe);

    // training, per epoch and summed over tasks
    let per_epoch = |f: &dyn Fn(&TrainTask) -> f64| -> f64 {
        train
            .tasks
            .iter()
            .filter(|t| !t.epoch_s.is_empty())
            .map(|t| f(t) / t.epoch_s.len() as f64)
            .sum()
    };
    let stage_ms = |t: &TrainTask, name: &str| -> f64 {
        t.stage_ns.get(name).copied().unwrap_or(0) as f64 / 1e6
    };
    for stage in TRAIN_STAGES {
        let name = format!("train.{stage}");
        out.push(Metric::new(
            &format!("{name}_ms"),
            "ms",
            per_epoch(&|t| stage_ms(t, &name)),
        ));
    }
    out.push(Metric::new(
        "train.other_ms",
        "ms",
        per_epoch(&|t| {
            t.epoch_s.iter().sum::<f64>() * 1e3
                - TRAIN_STAGES
                    .iter()
                    .map(|s| stage_ms(t, &format!("train.{s}")))
                    .sum::<f64>()
        }),
    ));
    for kernel in TENSOR_STAGES {
        let name = format!("tensor.{kernel}");
        out.push(Metric::new(
            &format!("{name}_ms"),
            "ms",
            per_epoch(&|t| stage_ms(t, &name)),
        ));
    }
    for (d, t) in deployed.iter().zip(&train.tasks) {
        out.push(Metric::new(
            &format!("train.epoch_ms.{}", d.name()),
            "ms",
            crate::stats::median(&t.epoch_s) * 1e3,
        ));
    }
    out.push(Metric::new(
        "train.allocs_per_epoch",
        "count",
        per_epoch(&|t| t.allocs as f64),
    ));
    out.push(Metric::new("train.accuracy", "ratio", accuracy));
    out.push(Metric::new("data.generate_ms", "ms", generate_ms));
    out
}
