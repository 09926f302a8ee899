//! Hand-rolled argument parsing (no external dependencies).

use std::error::Error;
use std::fmt;

use univsa_bench::diff::Thresholds;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `univsa train …`
    Train {
        /// Built-in task name (`--task`) — mutually exclusive with `csv`.
        task: Option<String>,
        /// CSV dataset path (`--csv`) with `--geometry W,L,C`.
        csv: Option<String>,
        /// Geometry for CSV input: `(W, L, classes)`.
        geometry: Option<(usize, usize, usize)>,
        /// Model tuple `(D_H, D_L, D_K, O, Θ)` (`--config`).
        config: (usize, usize, usize, usize, usize),
        /// Training epochs.
        epochs: usize,
        /// RNG seed.
        seed: u64,
        /// Output model path.
        out: String,
    },
    /// `univsa infer --model m.uvsa --csv data.csv`
    Infer {
        /// Saved model path (`.uvsa` model or `.uvsap` packed artifact).
        model: String,
        /// CSV dataset to classify.
        csv: String,
    },
    /// `univsa compile --model m.uvsa --out m.uvsap`
    Compile {
        /// Saved model path.
        model: String,
        /// Output packed-artifact path.
        out: String,
    },
    /// `univsa info --model m.uvsa`
    Info {
        /// Saved model path.
        model: String,
    },
    /// `univsa rtl --model m.uvsa --out-dir rtl/`
    Rtl {
        /// Saved model path.
        model: String,
        /// Directory for the Verilog + hex files.
        out_dir: String,
    },
    /// `univsa robustness --model m.uvsa --csv data.csv [--rates R,…] [--seed S]`
    Robustness {
        /// Saved model path.
        model: String,
        /// CSV dataset to evaluate fault tolerance on.
        csv: String,
        /// Per-bit flip rates to sweep.
        rates: Vec<f64>,
        /// RNG seed for the fault draws.
        seed: u64,
    },
    /// `univsa profile --task <NAME> [--seed S] [--epochs N] [--samples N]
    /// [--threads T]`
    Profile {
        /// Built-in task name.
        task: String,
        /// RNG seed.
        seed: u64,
        /// Training epochs (`None` = harness default for the task size).
        epochs: Option<usize>,
        /// Samples streamed through the simulated hardware pipeline.
        samples: usize,
        /// Worker-pool width override (`None` = `UNIVSA_THREADS` or
        /// available parallelism).
        threads: Option<usize>,
        /// Chrome trace-event JSON output path (`--trace out.json`).
        trace: Option<String>,
        /// Memory observability (`--mem`): per-stage allocation table and
        /// footprint audit.
        mem: bool,
        /// Also run a fleet phase: probe jobs sharded over this many
        /// worker processes, their telemetry forwarded and merged into
        /// the trace/summary (`--workers N`).
        workers: Option<usize>,
        /// Serve live metrics over HTTP while the run is in flight
        /// (`--listen HOST:PORT` or `:PORT`).
        listen: Option<String>,
    },
    /// `univsa fleet-report --task <NAME> [--workers N] [--jobs N]
    /// [--seed S] [--chaos SPEC]` — run probe jobs through the fleet and
    /// print the per-slot telemetry table.
    FleetReport {
        /// Built-in task name for the probe jobs.
        task: String,
        /// Worker-process count (`None` = `UNIVSA_WORKERS` or 2).
        workers: Option<usize>,
        /// Probe jobs to dispatch.
        jobs: usize,
        /// Seed for the probe genomes.
        seed: u64,
        /// Fault-injection spec forwarded to the fleet.
        chaos: univsa::ChaosSpec,
    },
    /// `univsa memsnap <TASK> [--seed S]`
    Memsnap {
        /// Built-in task name.
        task: String,
        /// RNG seed for the model weights.
        seed: u64,
    },
    /// `univsa search --task <NAME> [--workers N] [--population P]
    /// [--generations G] [--epochs E] [--seed S] [--chaos SPEC]`
    Search {
        /// Built-in task name.
        task: String,
        /// Worker-process count (`None` = `UNIVSA_WORKERS` or in-process).
        workers: Option<usize>,
        /// Population size.
        population: usize,
        /// Number of generations.
        generations: usize,
        /// Training epochs per fitness evaluation.
        epochs: usize,
        /// Seed for data generation, training, and evolution.
        seed: u64,
        /// Fault-injection spec forwarded to the fleet.
        chaos: univsa::ChaosSpec,
        /// Score genomes with the training-free surrogate objective
        /// (`--surrogate`) instead of real training runs.
        surrogate: bool,
        /// Serve live metrics over HTTP while the run is in flight
        /// (`--listen HOST:PORT` or `:PORT`).
        listen: Option<String>,
    },
    /// `univsa seu --task <NAME> [--workers N] [--rate R] [--trials T]
    /// [--samples N] [--seed S] [--chaos SPEC]`
    Seu {
        /// Built-in task name (paper configuration is used).
        task: String,
        /// Worker-process count (`None` = `UNIVSA_WORKERS` or in-process).
        workers: Option<usize>,
        /// Upset probability per stored bit per cycle.
        rate: f64,
        /// Campaign trials per protection scheme.
        trials: usize,
        /// Streamed samples per trial (the exposure window).
        samples: usize,
        /// Base campaign seed (trial `i` uses `seed + i`).
        seed: u64,
        /// Fault-injection spec forwarded to the fleet.
        chaos: univsa::ChaosSpec,
        /// Serve live metrics over HTTP while the run is in flight
        /// (`--listen HOST:PORT` or `:PORT`).
        listen: Option<String>,
    },
    /// `univsa chaos --task <NAME> [--workers N1,N2,…] [--crash R1,R2,…]
    /// [--corrupt R] [--hang R] [--population P] [--generations G]
    /// [--epochs E] [--seed S]` — fleet determinism self-check.
    Chaos {
        /// Built-in task name.
        task: String,
        /// Worker counts to sweep.
        workers: Vec<usize>,
        /// Chaos crash rates to sweep.
        crash: Vec<f64>,
        /// Reply-frame corruption rate applied to every chaotic cell.
        corrupt: f64,
        /// Task hang rate applied to every chaotic cell.
        hang: f64,
        /// Population size for the probe search.
        population: usize,
        /// Generations for the probe search.
        generations: usize,
        /// Training epochs per fitness evaluation.
        epochs: usize,
        /// Seed for data generation, training, evolution, and chaos.
        seed: u64,
        /// Score genomes with the training-free surrogate objective.
        surrogate: bool,
        /// Serve live metrics over HTTP while the run is in flight
        /// (`--listen HOST:PORT` or `:PORT`).
        listen: Option<String>,
    },
    /// `univsa bench-diff <old> <new> [--max-train-regress P|none] …`
    BenchDiff {
        /// Baseline report path.
        old: String,
        /// Candidate report path.
        new: String,
        /// Per-metric regression gates.
        thresholds: Thresholds,
    },
    /// `univsa quality <TASK> [--seed S] [--epochs N] [--samples N]
    /// [--drift-at I] [--strength P] [--window W] [--workers N]
    /// [--listen ADDR]` — stream a seeded prediction sequence through the
    /// task's paper-configured model and report margin/confusion/drift
    /// statistics.
    Quality {
        /// Built-in task name.
        task: String,
        /// Seed for data generation, training, and the stream.
        seed: u64,
        /// Training epochs for the evaluated model.
        epochs: usize,
        /// Stream length.
        samples: usize,
        /// Sample index at which injected drift switches on (`None` =
        /// stationary stream).
        drift_at: Option<usize>,
        /// Per-cell corruption probability once drift is active.
        strength: f32,
        /// Drift-detector window length.
        window: usize,
        /// Worker-process count (`None` = `UNIVSA_WORKERS` or in-process).
        workers: Option<usize>,
        /// Serve live metrics over HTTP while the run is in flight
        /// (`--listen HOST:PORT` or `:PORT`).
        listen: Option<String>,
    },
    /// `univsa top <ADDR> [--interval MS] [--refreshes N]` — live
    /// terminal view of a running process's metrics endpoint.
    Top {
        /// Metrics endpoint address (`HOST:PORT`, or `:PORT` for
        /// loopback) of a process started with `--listen` or
        /// `UNIVSA_METRICS_ADDR`.
        addr: String,
        /// Poll interval in milliseconds.
        interval_ms: u64,
        /// Stop after this many refreshes (`None` = run until ^C).
        refreshes: Option<u64>,
    },
    /// `univsa tasks`
    Tasks,
    /// `univsa help` (or `--help`)
    Help,
}

/// An argument error with a user-facing message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseArgsError {}

/// Usage text shown by `help` and on errors.
pub const USAGE: &str = "\
univsa — binary vector symbolic architecture toolkit

USAGE:
  univsa train --task <NAME> --config DH,DL,DK,O,THETA --out MODEL
               [--epochs N] [--seed S]
  univsa train --csv DATA.csv --geometry W,L,C --config DH,DL,DK,O,THETA
               --out MODEL [--epochs N] [--seed S]
  univsa infer --model MODEL --csv DATA.csv
  univsa compile --model MODEL --out ARTIFACT
  univsa info  --model MODEL
  univsa rtl   --model MODEL --out-dir DIR
  univsa robustness --model MODEL --csv DATA.csv [--rates R1,R2,…] [--seed S]
  univsa profile --task <NAME> [--seed S] [--epochs N] [--samples N]
                 [--threads T] [--trace OUT.json] [--mem] [--workers N]
                 [--listen ADDR]
  univsa fleet-report --task <NAME> [--workers N] [--jobs N] [--seed S]
                 [--chaos SPEC]
  univsa search --task <NAME> [--workers N] [--population P] [--generations G]
                 [--epochs E] [--seed S] [--chaos SPEC] [--surrogate]
                 [--listen ADDR]
  univsa seu    --task <NAME> [--workers N] [--rate R] [--trials T]
                 [--samples N] [--seed S] [--chaos SPEC] [--listen ADDR]
  univsa chaos  --task <NAME> [--workers N1,N2,…] [--crash R1,R2,…]
                 [--corrupt R] [--hang R] [--population P] [--generations G]
                 [--epochs E] [--seed S] [--surrogate] [--listen ADDR]
  univsa quality <TASK> [--seed S] [--epochs N] [--samples N] [--drift-at I]
                 [--strength P] [--window W] [--workers N] [--listen ADDR]
  univsa top    ADDR [--interval MS] [--refreshes N]
  univsa memsnap <TASK> [--seed S]
  univsa bench-diff OLD.json NEW.json [--max-train-regress PCT|none]
                 [--max-latency-regress PCT|none] [--max-cycles-regress PCT|none]
                 [--max-accuracy-drop ABS|none] [--max-peak-alloc-regress PCT|none]
                 [--max-alloc-count-regress PCT|none] [--max-footprint-drift BITS|none]
                 [--max-margin-drop PCT|none] [--max-detect-latency-regress PCT|none]
  univsa tasks
  univsa help

`infer` runs the packed engine: the model is compiled ahead of time
into level-indexed LUT rows, channel-masked kernel planes, and
bit-sliced majority counters, and each sample is classified with
straight-line XNOR+popcount kernels (AVX2/NEON when available —
selectable with the UNIVSA_KERNELS environment variable: `portable`,
`native`, or an explicit tier). `compile` saves the lowered model as a standalone checksummed artifact
(magic UNIVSAPK) that `infer` accepts directly in place of a model.

`profile` trains the task's paper configuration, reports per-epoch
progress, measures per-sample inference latency percentiles, replays the
simulated hardware pipeline, and reports the effective worker-pool
thread count plus per-stage pool occupancy. `--threads T` (or the
UNIVSA_THREADS environment variable) sets the pool width; results are
bit-identical at every width. Set UNIVSA_TELEMETRY=summary or
UNIVSA_TELEMETRY=jsonl:<path> to capture the underlying spans.
`--trace OUT.json` additionally records a causal trace of the whole run
(training epochs, per-sample inference stages, per-worker pool lanes,
and the cycle-level hardware schedule on a virtual-time track) and
writes it as Chrome trace-event JSON, viewable at https://ui.perfetto.dev
or chrome://tracing. `profile --workers N` appends a fleet phase: probe
fitness jobs are sharded over N worker processes, each worker captures
its own spans/counters/allocation stats and forwards them over the IPC
pipe, and the merged trace shows one Chrome-trace process per worker
slot with its spans re-parented under the supervisor's dispatching
`dist.task` regions (worker clocks are aligned to the supervisor
timeline via the ping/pong handshake).

`fleet-report` runs probe jobs through the fleet with telemetry
forwarding on and prints a per-slot summary table — jobs served, busy
time, retries, allocations, peak heap — plus the fleet-wide rollups.

`profile --mem` turns on the counting allocator and appends a per-stage
allocation table (net bytes, allocation count, peak heap per span name),
the trained model's footprint audit (modeled Eq. 5 bits vs. actual
word-padded resident bits per weight store), and the BRAM count the
calibrated cost model assigns the deployment.

`search` runs the paper's evolutionary configuration search (objective
Acc − L_HW) and `seu` runs seeded single-event-upset campaigns for every
protection scheme. Both shard their work over a supervised fleet of
worker processes when --workers N (or the UNIVSA_WORKERS environment
variable) is set: the same binary is re-executed N times and spoken to
over a CRC32-framed stdin/stdout protocol with per-task deadlines,
liveness pings, and bounded retries with exponential backoff. Results
are keyed by job index, so stdout is bit-identical for every worker
count — including zero, which runs in-process. Worker crashes, hangs,
corrupt reply frames, and slow starts can be injected deterministically
with --chaos (or UNIVSA_CHAOS), e.g.
`--chaos crash=0.2,corrupt=0.05,seed=7`; the fleet recovers by
re-dispatching, and falls back to the in-process pool if spawning fails
outright. Retry/timeout/crash counts go to stderr, never stdout.

`chaos` is the fleet's own regression gate: it runs the identical probe
search across a worker-count × crash-rate matrix and exits nonzero
unless every cell reproduces the single-process baseline bit for bit.
`--surrogate` (search and chaos) swaps real training runs for a
training-free deterministic objective — same fleet, same framing, same
retry machinery, none of the cost — which is what quick self-checks and
the CI chaos matrix use.

Long-running subcommands (profile, search, seu, chaos) accept
`--listen HOST:PORT` (or `:PORT` for loopback; port 0 picks an ephemeral
port) to serve live metrics over HTTP while the run is in flight:
`/metrics` is Prometheus text exposition, `/snapshot.json` is the full
registry snapshot, `/healthz` is a readiness probe. The same endpoint
starts on ANY subcommand when the UNIVSA_METRICS_ADDR environment
variable is set; when neither is given, no thread is spawned and no
socket is opened. `univsa top ADDR` is the matching client: it polls
`/snapshot.json`, computes rates between polls, and renders a live
refreshing table of per-stage throughput and latency percentiles, heap
figures, and per-slot fleet counters. `--refreshes N` exits after N
frames (for scripting); `--interval MS` sets the poll period.

`quality` is the prediction-quality observability surface: it trains the
task's paper configuration, regenerates a seeded prediction stream from
the same synthetic generator (optionally with drift injected from
`--drift-at` onward at per-cell corruption probability `--strength`),
classifies every sample with the packed engine, and reports the margin
sketch (count/mean/p50/p90/p99), per-class prediction counts, online
confusion/accuracy, the calibration gap, and every drift event the
windowed detector fired with its detection latency in samples. The
stream, the model, and therefore every number printed are pure functions
of `(task, seed, epochs, samples, drift)`: output is bit-identical for
any `--workers` count and any UNIVSA_THREADS width. Drift events also
increment the `quality.drift_detected` counter, so a paired `--listen`
endpoint shows them as `univsa_drift_events_total` on `/metrics`.

`memsnap` builds the task's paper configuration from seeded random
weights (no training) and prints the Eq. 5 memory breakdown next to the
footprint audit and BRAM reconciliation — the Table II memory column,
component by component.

`bench-diff` compares two perf_baseline reports (BENCH_univsa.json,
schema univsa-perf-baseline/v7) metric by metric and exits nonzero when
any gate fires: train wall time and packed-engine p50/p99 latency
(percent increase, default 25), hardware cycles (percent increase,
default 0 — cycle counts are deterministic), accuracy (absolute drop,
default 0.02), peak heap allocation and allocation count (percent
increase, default 10), the model's resident footprint bits (absolute
drift, default 0), the mean winner/runner-up margin on the held-out
split (percent *drop*, default 5, `--max-margin-drop`), and the seeded
drift probe's detection latency (percent increase, default 0 — the probe
is deterministic, `--max-detect-latency-regress`); when the probe went
undetected on one side that row renders `n/a`. Pass `none` to disable a
gate.

Built-in tasks: EEGMMI, BCI-III-V, CHB-B, CHB-IB, ISOLET, HAR (synthetic,
with the paper's Table I geometry). CSV format: one sample per line,
`label,v0,v1,…` with values in 0..=255; `#` lines are ignored.
";

impl Command {
    /// Parses a full argument list (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] with a user-facing message on unknown
    /// subcommands, missing/duplicate flags, or malformed values.
    pub fn parse(args: &[String]) -> Result<Self, ParseArgsError> {
        let Some((sub, rest)) = args.split_first() else {
            return Ok(Command::Help);
        };
        match sub.as_str() {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "tasks" => {
                expect_no_extra(rest)?;
                Ok(Command::Tasks)
            }
            "train" => parse_train(rest),
            "infer" => {
                let flags = parse_flags(rest)?;
                reject_unknown(&flags, &["model", "csv"], "infer")?;
                Ok(Command::Infer {
                    model: required(&flags, "model")?,
                    csv: required(&flags, "csv")?,
                })
            }
            "compile" => {
                let flags = parse_flags(rest)?;
                reject_unknown(&flags, &["model", "out"], "compile")?;
                Ok(Command::Compile {
                    model: required(&flags, "model")?,
                    out: required(&flags, "out")?,
                })
            }
            "info" => {
                let flags = parse_flags(rest)?;
                Ok(Command::Info {
                    model: required(&flags, "model")?,
                })
            }
            "rtl" => {
                let flags = parse_flags(rest)?;
                Ok(Command::Rtl {
                    model: required(&flags, "model")?,
                    out_dir: required(&flags, "out-dir")?,
                })
            }
            "robustness" => {
                let flags = parse_flags(rest)?;
                let rates = match flags_get(&flags, "rates") {
                    Some(r) => parse_rates(&r)?,
                    None => vec![0.001, 0.01, 0.05],
                };
                let seed = match flags_get(&flags, "seed") {
                    Some(s) => s
                        .parse()
                        .map_err(|_| ParseArgsError(format!("bad --seed {s:?}")))?,
                    None => 42,
                };
                Ok(Command::Robustness {
                    model: required(&flags, "model")?,
                    csv: required(&flags, "csv")?,
                    rates,
                    seed,
                })
            }
            "memsnap" => {
                // one positional task name, then flags
                let Some((task, rest)) = rest.split_first() else {
                    return Err(ParseArgsError(
                        "memsnap needs a task name: univsa memsnap <TASK> [--seed S]".into(),
                    ));
                };
                if task.starts_with("--") {
                    return Err(ParseArgsError(
                        "memsnap needs a task name before flags: univsa memsnap <TASK>".into(),
                    ));
                }
                let flags = parse_flags(rest)?;
                for (name, _) in &flags {
                    if name != "seed" {
                        return Err(ParseArgsError(format!(
                            "unknown memsnap flag --{name} (expected --seed)"
                        )));
                    }
                }
                let seed = match flags_get(&flags, "seed") {
                    Some(s) => s
                        .parse()
                        .map_err(|_| ParseArgsError(format!("bad --seed {s:?}")))?,
                    None => 42,
                };
                Ok(Command::Memsnap {
                    task: task.clone(),
                    seed,
                })
            }
            "profile" => {
                // `--mem` is a boolean switch; everything else is
                // flag+value pairs
                let (rest, mem) = take_switch(rest, "mem");
                let flags = parse_flags(&rest)?;
                reject_unknown(
                    &flags,
                    &[
                        "task", "seed", "epochs", "samples", "threads", "trace", "workers",
                        "listen",
                    ],
                    "profile",
                )?;
                let seed = match flags_get(&flags, "seed") {
                    Some(s) => s
                        .parse()
                        .map_err(|_| ParseArgsError(format!("bad --seed {s:?}")))?,
                    None => 42,
                };
                let epochs = match flags_get(&flags, "epochs") {
                    Some(e) => Some(
                        e.parse()
                            .map_err(|_| ParseArgsError(format!("bad --epochs {e:?}")))?,
                    ),
                    None => None,
                };
                let samples = match flags_get(&flags, "samples") {
                    Some(s) => s
                        .parse()
                        .map_err(|_| ParseArgsError(format!("bad --samples {s:?}")))?,
                    None => 64,
                };
                if samples == 0 {
                    return Err(ParseArgsError("--samples must be at least 1".into()));
                }
                let threads = match flags_get(&flags, "threads") {
                    Some(t) => {
                        let t: usize = t
                            .parse()
                            .map_err(|_| ParseArgsError(format!("bad --threads {t:?}")))?;
                        if t == 0 {
                            return Err(ParseArgsError("--threads must be at least 1".into()));
                        }
                        Some(t)
                    }
                    None => None,
                };
                Ok(Command::Profile {
                    task: required(&flags, "task")?,
                    seed,
                    epochs,
                    samples,
                    threads,
                    trace: flags_get(&flags, "trace"),
                    mem,
                    workers: parse_fleet_workers(&flags)?,
                    listen: parse_listen(&flags)?,
                })
            }
            "quality" => parse_quality(rest),
            "fleet-report" => parse_fleet_report(rest),
            "search" => parse_search(rest),
            "seu" => parse_seu(rest),
            "chaos" => parse_chaos(rest),
            "top" => parse_top(rest),
            "bench-diff" => parse_bench_diff(rest),
            other => Err(ParseArgsError(format!(
                "unknown subcommand {other:?}; run `univsa help`"
            ))),
        }
    }
}

/// The threshold flags `bench-diff` accepts (everything else is a typo).
const BENCH_DIFF_FLAGS: [&str; 9] = [
    "max-train-regress",
    "max-latency-regress",
    "max-cycles-regress",
    "max-accuracy-drop",
    "max-peak-alloc-regress",
    "max-alloc-count-regress",
    "max-footprint-drift",
    "max-margin-drop",
    "max-detect-latency-regress",
];

fn parse_bench_diff(rest: &[String]) -> Result<Command, ParseArgsError> {
    // two positional report paths, then threshold flags in any position
    let mut positionals = Vec::new();
    let mut flag_args = Vec::new();
    let mut it = rest.iter();
    while let Some(arg) = it.next() {
        if arg.starts_with("--") {
            flag_args.push(arg.clone());
            match it.next() {
                Some(v) => flag_args.push(v.clone()),
                None => return Err(ParseArgsError(format!("{arg} needs a value"))),
            }
        } else {
            positionals.push(arg.clone());
        }
    }
    if positionals.len() != 2 {
        return Err(ParseArgsError(
            "bench-diff needs exactly two report paths: univsa bench-diff <old> <new>".into(),
        ));
    }
    let flags = parse_flags(&flag_args)?;
    for (name, _) in &flags {
        if !BENCH_DIFF_FLAGS.contains(&name.as_str()) {
            return Err(ParseArgsError(format!(
                "unknown bench-diff flag --{name} (expected one of --{})",
                BENCH_DIFF_FLAGS.join(" --")
            )));
        }
    }
    let defaults = Thresholds::default();
    let thresholds = Thresholds {
        train_pct: parse_threshold(&flags, "max-train-regress", defaults.train_pct)?,
        latency_pct: parse_threshold(&flags, "max-latency-regress", defaults.latency_pct)?,
        cycles_pct: parse_threshold(&flags, "max-cycles-regress", defaults.cycles_pct)?,
        accuracy_drop: parse_threshold(&flags, "max-accuracy-drop", defaults.accuracy_drop)?,
        peak_alloc_pct: parse_threshold(&flags, "max-peak-alloc-regress", defaults.peak_alloc_pct)?,
        alloc_count_pct: parse_threshold(
            &flags,
            "max-alloc-count-regress",
            defaults.alloc_count_pct,
        )?,
        footprint_bits: parse_threshold(&flags, "max-footprint-drift", defaults.footprint_bits)?,
        margin_drop_pct: parse_threshold(&flags, "max-margin-drop", defaults.margin_drop_pct)?,
        detect_latency_pct: parse_threshold(
            &flags,
            "max-detect-latency-regress",
            defaults.detect_latency_pct,
        )?,
    };
    let [old, new]: [String; 2] = positionals
        .try_into()
        .map_err(|_| ParseArgsError("bench-diff needs exactly two report paths".into()))?;
    Ok(Command::BenchDiff {
        old,
        new,
        thresholds,
    })
}

/// Parses a `--flag` value with a typed per-flag error, falling back to
/// `default` when the flag is absent.
fn parse_value<T: std::str::FromStr>(
    flags: &Flags,
    name: &str,
    default: T,
) -> Result<T, ParseArgsError> {
    match flags_get(flags, name) {
        Some(v) => v
            .parse()
            .map_err(|_| ParseArgsError(format!("bad --{name} {v:?}"))),
        None => Ok(default),
    }
}

/// Parses a `--flag` that must be ≥ 1 when present.
fn parse_at_least_one(flags: &Flags, name: &str, default: usize) -> Result<usize, ParseArgsError> {
    let value: usize = parse_value(flags, name, default)?;
    if value == 0 {
        return Err(ParseArgsError(format!("--{name} must be at least 1")));
    }
    Ok(value)
}

/// Parses the optional fleet width (`--workers N`; 0 = in-process).
fn parse_fleet_workers(flags: &Flags) -> Result<Option<usize>, ParseArgsError> {
    match flags_get(flags, "workers") {
        Some(w) => {
            Ok(Some(w.parse().map_err(|_| {
                ParseArgsError(format!("bad --workers {w:?}"))
            })?))
        }
        None => Ok(None),
    }
}

/// Parses the optional `--listen` metrics-endpoint address. The value
/// is validated when the exporter binds; here it only has to be
/// non-empty.
fn parse_listen(flags: &Flags) -> Result<Option<String>, ParseArgsError> {
    match flags_get(flags, "listen") {
        Some(addr) if addr.trim().is_empty() => {
            Err(ParseArgsError("--listen needs HOST:PORT or :PORT".into()))
        }
        other => Ok(other),
    }
}

/// Parses the optional `--chaos` fault-injection spec.
fn parse_chaos_spec(flags: &Flags) -> Result<univsa::ChaosSpec, ParseArgsError> {
    match flags_get(flags, "chaos") {
        Some(spec) => univsa::ChaosSpec::parse(&spec)
            .map_err(|e| ParseArgsError(format!("bad --chaos {spec:?}: {e}"))),
        None => Ok(univsa::ChaosSpec::default()),
    }
}

fn reject_unknown(flags: &Flags, known: &[&str], sub: &str) -> Result<(), ParseArgsError> {
    for (name, _) in flags {
        if !known.contains(&name.as_str()) {
            return Err(ParseArgsError(format!(
                "unknown {sub} flag --{name} (expected one of --{})",
                known.join(" --")
            )));
        }
    }
    Ok(())
}

/// Strips a boolean `--name` switch out of the argument list (the
/// remaining arguments are `--flag value` pairs).
fn take_switch(rest: &[String], name: &str) -> (Vec<String>, bool) {
    let switch = format!("--{name}");
    let mut present = false;
    let rest = rest
        .iter()
        .filter(|a| {
            if a.as_str() == switch {
                present = true;
                false
            } else {
                true
            }
        })
        .cloned()
        .collect();
    (rest, present)
}

fn parse_fleet_report(rest: &[String]) -> Result<Command, ParseArgsError> {
    let flags = parse_flags(rest)?;
    reject_unknown(
        &flags,
        &["task", "workers", "jobs", "seed", "chaos"],
        "fleet-report",
    )?;
    Ok(Command::FleetReport {
        task: required(&flags, "task")?,
        workers: parse_fleet_workers(&flags)?,
        jobs: parse_at_least_one(&flags, "jobs", 8)?,
        seed: parse_value(&flags, "seed", 42)?,
        chaos: parse_chaos_spec(&flags)?,
    })
}

fn parse_search(rest: &[String]) -> Result<Command, ParseArgsError> {
    let (rest, surrogate) = take_switch(rest, "surrogate");
    let flags = parse_flags(&rest)?;
    reject_unknown(
        &flags,
        &[
            "task",
            "workers",
            "population",
            "generations",
            "epochs",
            "seed",
            "chaos",
            "listen",
        ],
        "search",
    )?;
    let population = parse_at_least_one(&flags, "population", 10)?;
    if population < 2 {
        return Err(ParseArgsError("--population must be at least 2".into()));
    }
    Ok(Command::Search {
        task: required(&flags, "task")?,
        workers: parse_fleet_workers(&flags)?,
        population,
        generations: parse_at_least_one(&flags, "generations", 4)?,
        epochs: parse_at_least_one(&flags, "epochs", 3)?,
        seed: parse_value(&flags, "seed", 42)?,
        chaos: parse_chaos_spec(&flags)?,
        surrogate,
        listen: parse_listen(&flags)?,
    })
}

fn parse_seu(rest: &[String]) -> Result<Command, ParseArgsError> {
    let flags = parse_flags(rest)?;
    reject_unknown(
        &flags,
        &[
            "task", "workers", "rate", "trials", "samples", "seed", "chaos", "listen",
        ],
        "seu",
    )?;
    let rate: f64 = parse_value(&flags, "rate", 1e-7)?;
    if !(0.0..=1.0).contains(&rate) {
        return Err(ParseArgsError(format!(
            "--rate must be a probability in [0, 1] — got {rate}"
        )));
    }
    Ok(Command::Seu {
        task: required(&flags, "task")?,
        workers: parse_fleet_workers(&flags)?,
        rate,
        trials: parse_at_least_one(&flags, "trials", 8)?,
        samples: parse_at_least_one(&flags, "samples", 32)?,
        seed: parse_value(&flags, "seed", 42)?,
        chaos: parse_chaos_spec(&flags)?,
        listen: parse_listen(&flags)?,
    })
}

fn parse_quality(rest: &[String]) -> Result<Command, ParseArgsError> {
    // one positional task name, then flags
    let Some((task, rest)) = rest.split_first() else {
        return Err(ParseArgsError(
            "quality needs a task name: univsa quality <TASK> [--seed S] [--samples N]".into(),
        ));
    };
    if task.starts_with("--") {
        return Err(ParseArgsError(
            "quality needs a task name before flags: univsa quality <TASK>".into(),
        ));
    }
    let flags = parse_flags(rest)?;
    reject_unknown(
        &flags,
        &[
            "seed", "epochs", "samples", "drift-at", "strength", "window", "workers", "listen",
        ],
        "quality",
    )?;
    let samples = parse_at_least_one(&flags, "samples", 512)?;
    let drift_at = match flags_get(&flags, "drift-at") {
        Some(v) => {
            let at: usize = v
                .parse()
                .map_err(|_| ParseArgsError(format!("bad --drift-at {v:?}")))?;
            if at >= samples {
                return Err(ParseArgsError(format!(
                    "--drift-at {at} is past the end of a {samples}-sample stream"
                )));
            }
            Some(at)
        }
        None => None,
    };
    let strength: f32 = parse_value(&flags, "strength", 0.5)?;
    if !(0.0..=1.0).contains(&strength) {
        return Err(ParseArgsError(format!(
            "--strength must be a probability in [0, 1] — got {strength}"
        )));
    }
    let window = parse_at_least_one(&flags, "window", 128)?;
    if window < 2 {
        return Err(ParseArgsError("--window must be at least 2".into()));
    }
    Ok(Command::Quality {
        task: task.clone(),
        seed: parse_value(&flags, "seed", 42)?,
        epochs: parse_at_least_one(&flags, "epochs", 3)?,
        samples,
        drift_at,
        strength,
        window,
        workers: parse_fleet_workers(&flags)?,
        listen: parse_listen(&flags)?,
    })
}

fn parse_top(rest: &[String]) -> Result<Command, ParseArgsError> {
    // one positional endpoint address, then flags
    let Some((addr, rest)) = rest.split_first() else {
        return Err(ParseArgsError(
            "top needs an endpoint address: univsa top HOST:PORT [--interval MS] [--refreshes N]"
                .into(),
        ));
    };
    if addr.starts_with("--") {
        return Err(ParseArgsError(
            "top needs the endpoint address before flags: univsa top HOST:PORT".into(),
        ));
    }
    let flags = parse_flags(rest)?;
    reject_unknown(&flags, &["interval", "refreshes"], "top")?;
    let interval_ms = parse_value(&flags, "interval", 1000u64)?;
    if interval_ms == 0 {
        return Err(ParseArgsError("--interval must be at least 1 ms".into()));
    }
    let refreshes = match flags_get(&flags, "refreshes") {
        Some(n) => {
            let n: u64 = n
                .parse()
                .map_err(|_| ParseArgsError(format!("bad --refreshes {n:?}")))?;
            if n == 0 {
                return Err(ParseArgsError("--refreshes must be at least 1".into()));
            }
            Some(n)
        }
        None => None,
    };
    Ok(Command::Top {
        addr: addr.clone(),
        interval_ms,
        refreshes,
    })
}

fn parse_chaos(rest: &[String]) -> Result<Command, ParseArgsError> {
    let (rest, surrogate) = take_switch(rest, "surrogate");
    let flags = parse_flags(&rest)?;
    reject_unknown(
        &flags,
        &[
            "task",
            "workers",
            "crash",
            "corrupt",
            "hang",
            "population",
            "generations",
            "epochs",
            "seed",
            "listen",
        ],
        "chaos",
    )?;
    let workers = match flags_get(&flags, "workers") {
        Some(list) => {
            let counts: Result<Vec<usize>, _> = list
                .split(',')
                .map(|part| {
                    part.trim().parse::<usize>().map_err(|_| {
                        ParseArgsError(format!("bad worker count {part:?} in {list:?}"))
                    })
                })
                .collect();
            let counts = counts?;
            if counts.is_empty() {
                return Err(ParseArgsError("--workers needs at least one count".into()));
            }
            counts
        }
        None => vec![0, 2, 4],
    };
    let crash = match flags_get(&flags, "crash") {
        Some(list) => parse_rates(&list).map_err(|e| ParseArgsError(format!("--crash: {e}")))?,
        None => vec![0.0, 0.2],
    };
    let corrupt: f64 = parse_value(&flags, "corrupt", 0.05)?;
    let hang: f64 = parse_value(&flags, "hang", 0.0)?;
    for (name, value) in [("corrupt", corrupt), ("hang", hang)] {
        if !(0.0..=1.0).contains(&value) {
            return Err(ParseArgsError(format!(
                "--{name} must be a probability in [0, 1] — got {value}"
            )));
        }
    }
    let population = parse_at_least_one(&flags, "population", 6)?;
    if population < 2 {
        return Err(ParseArgsError("--population must be at least 2".into()));
    }
    Ok(Command::Chaos {
        task: required(&flags, "task")?,
        workers,
        crash,
        corrupt,
        hang,
        population,
        generations: parse_at_least_one(&flags, "generations", 2)?,
        epochs: parse_at_least_one(&flags, "epochs", 1)?,
        seed: parse_value(&flags, "seed", 42)?,
        surrogate,
        listen: parse_listen(&flags)?,
    })
}

/// Parses a gate value: a non-negative number, or `none`/`off` to disable.
fn parse_threshold(
    flags: &Flags,
    name: &str,
    default: Option<f64>,
) -> Result<Option<f64>, ParseArgsError> {
    match flags_get(flags, name) {
        None => Ok(default),
        Some(v) if v.eq_ignore_ascii_case("none") || v.eq_ignore_ascii_case("off") => Ok(None),
        Some(v) => match v.parse::<f64>() {
            Ok(x) if x >= 0.0 && x.is_finite() => Ok(Some(x)),
            _ => Err(ParseArgsError(format!(
                "bad --{name} {v:?} (want a non-negative number or `none`)"
            ))),
        },
    }
}

fn parse_train(rest: &[String]) -> Result<Command, ParseArgsError> {
    let flags = parse_flags(rest)?;
    let task = flags_get(&flags, "task");
    let csv = flags_get(&flags, "csv");
    if task.is_some() == csv.is_some() {
        return Err(ParseArgsError(
            "train needs exactly one of --task or --csv".into(),
        ));
    }
    let geometry = match flags_get(&flags, "geometry") {
        Some(g) => Some(parse_triple(&g)?),
        None => None,
    };
    if csv.is_some() && geometry.is_none() {
        return Err(ParseArgsError("--csv requires --geometry W,L,C".into()));
    }
    let config = parse_tuple5(&required(&flags, "config")?)?;
    let epochs = match flags_get(&flags, "epochs") {
        Some(e) => e
            .parse()
            .map_err(|_| ParseArgsError(format!("bad --epochs {e:?}")))?,
        None => 20,
    };
    let seed = match flags_get(&flags, "seed") {
        Some(s) => s
            .parse()
            .map_err(|_| ParseArgsError(format!("bad --seed {s:?}")))?,
        None => 42,
    };
    Ok(Command::Train {
        task,
        csv,
        geometry,
        config,
        epochs,
        seed,
        out: required(&flags, "out")?,
    })
}

type Flags = Vec<(String, String)>;

fn parse_flags(args: &[String]) -> Result<Flags, ParseArgsError> {
    let mut flags = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(name) = arg.strip_prefix("--") else {
            return Err(ParseArgsError(format!(
                "unexpected positional argument {arg:?}"
            )));
        };
        let value = it
            .next()
            .ok_or_else(|| ParseArgsError(format!("--{name} needs a value")))?;
        if flags.iter().any(|(n, _)| n == name) {
            return Err(ParseArgsError(format!("duplicate flag --{name}")));
        }
        flags.push((name.to_string(), value.clone()));
    }
    Ok(flags)
}

fn flags_get(flags: &Flags, name: &str) -> Option<String> {
    flags
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v.clone())
}

fn required(flags: &Flags, name: &str) -> Result<String, ParseArgsError> {
    flags_get(flags, name).ok_or_else(|| ParseArgsError(format!("missing required --{name}")))
}

fn expect_no_extra(rest: &[String]) -> Result<(), ParseArgsError> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(ParseArgsError(format!(
            "unexpected arguments: {}",
            rest.join(" ")
        )))
    }
}

fn parse_triple(s: &str) -> Result<(usize, usize, usize), ParseArgsError> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 3 {
        return Err(ParseArgsError(format!("expected W,L,C — got {s:?}")));
    }
    let mut nums = [0usize; 3];
    for (slot, part) in nums.iter_mut().zip(&parts) {
        *slot = part
            .trim()
            .parse()
            .map_err(|_| ParseArgsError(format!("bad number {part:?} in {s:?}")))?;
    }
    Ok((nums[0], nums[1], nums[2]))
}

fn parse_rates(s: &str) -> Result<Vec<f64>, ParseArgsError> {
    let rates: Result<Vec<f64>, _> = s
        .split(',')
        .map(|part| {
            part.trim()
                .parse::<f64>()
                .map_err(|_| ParseArgsError(format!("bad rate {part:?} in {s:?}")))
        })
        .collect();
    let rates = rates?;
    if rates.is_empty() || rates.iter().any(|r| !(0.0..=1.0).contains(r)) {
        return Err(ParseArgsError(format!(
            "--rates needs comma-separated probabilities in [0, 1] — got {s:?}"
        )));
    }
    Ok(rates)
}

fn parse_tuple5(s: &str) -> Result<(usize, usize, usize, usize, usize), ParseArgsError> {
    let parts: Vec<&str> = s.split(',').collect();
    if parts.len() != 5 {
        return Err(ParseArgsError(format!(
            "expected DH,DL,DK,O,THETA — got {s:?}"
        )));
    }
    let mut nums = [0usize; 5];
    for (slot, part) in nums.iter_mut().zip(&parts) {
        *slot = part
            .trim()
            .parse()
            .map_err(|_| ParseArgsError(format!("bad number {part:?} in {s:?}")))?;
    }
    Ok((nums[0], nums[1], nums[2], nums[3], nums[4]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn empty_is_help() {
        assert_eq!(Command::parse(&[]).unwrap(), Command::Help);
        assert_eq!(Command::parse(&argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn train_with_task() {
        let cmd = Command::parse(&argv(
            "train --task ISOLET --config 4,4,3,22,3 --out m.uvsa --epochs 5 --seed 7",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Train {
                task: Some("ISOLET".into()),
                csv: None,
                geometry: None,
                config: (4, 4, 3, 22, 3),
                epochs: 5,
                seed: 7,
                out: "m.uvsa".into(),
            }
        );
    }

    #[test]
    fn train_with_csv_needs_geometry() {
        let err = Command::parse(&argv("train --csv d.csv --config 4,4,3,22,3 --out m.uvsa"))
            .unwrap_err();
        assert!(err.0.contains("--geometry"));
        let ok = Command::parse(&argv(
            "train --csv d.csv --geometry 4,8,2 --config 4,2,3,8,1 --out m.uvsa",
        ))
        .unwrap();
        match ok {
            Command::Train { geometry, .. } => assert_eq!(geometry, Some((4, 8, 2))),
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn train_rejects_both_sources() {
        let err = Command::parse(&argv(
            "train --task HAR --csv d.csv --geometry 1,1,2 --config 4,2,3,8,1 --out m",
        ))
        .unwrap_err();
        assert!(err.0.contains("exactly one"));
    }

    #[test]
    fn defaults_applied() {
        let cmd = Command::parse(&argv("train --task HAR --config 8,4,3,18,3 --out m")).unwrap();
        match cmd {
            Command::Train { epochs, seed, .. } => {
                assert_eq!(epochs, 20);
                assert_eq!(seed, 42);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn infer_info_rtl() {
        assert_eq!(
            Command::parse(&argv("infer --model m --csv d.csv")).unwrap(),
            Command::Infer {
                model: "m".into(),
                csv: "d.csv".into(),
            }
        );
        assert_eq!(
            Command::parse(&argv("info --model m")).unwrap(),
            Command::Info { model: "m".into() }
        );
        assert_eq!(
            Command::parse(&argv("rtl --model m --out-dir rtl")).unwrap(),
            Command::Rtl {
                model: "m".into(),
                out_dir: "rtl".into()
            }
        );
    }

    #[test]
    fn removed_engine_flag_is_an_unknown_flag() {
        for cmd in [
            "infer --model m --csv d.csv --engine reference",
            "infer --model m --csv d.csv --engine packed",
            "profile --task eegmmi --engine reference",
        ] {
            let err = Command::parse(&argv(cmd)).unwrap_err();
            assert!(
                err.0.contains("unknown") && err.0.contains("--engine"),
                "{cmd}: {err}"
            );
        }
        assert!(Command::parse(&argv("infer --model m --csv d.csv --bogus 1")).is_err());
        let err =
            Command::parse(&argv("bench-diff a b --max-packed-over-reference 5")).unwrap_err();
        assert!(err.0.contains("unknown bench-diff flag"), "{err}");
    }

    #[test]
    fn compile_parses() {
        assert_eq!(
            Command::parse(&argv("compile --model m.uvsa --out m.uvsap")).unwrap(),
            Command::Compile {
                model: "m.uvsa".into(),
                out: "m.uvsap".into(),
            }
        );
        assert!(Command::parse(&argv("compile --model m.uvsa")).is_err());
        assert!(Command::parse(&argv("compile --out m.uvsap")).is_err());
        assert!(Command::parse(&argv("compile --model m --out o --bogus 1")).is_err());
    }

    #[test]
    fn robustness_parses_with_defaults() {
        let cmd = Command::parse(&argv("robustness --model m --csv d.csv")).unwrap();
        assert_eq!(
            cmd,
            Command::Robustness {
                model: "m".into(),
                csv: "d.csv".into(),
                rates: vec![0.001, 0.01, 0.05],
                seed: 42,
            }
        );
        let cmd = Command::parse(&argv(
            "robustness --model m --csv d.csv --rates 0.1,0.25 --seed 7",
        ))
        .unwrap();
        match cmd {
            Command::Robustness { rates, seed, .. } => {
                assert_eq!(rates, vec![0.1, 0.25]);
                assert_eq!(seed, 7);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn robustness_rejects_bad_rates() {
        let err =
            Command::parse(&argv("robustness --model m --csv d.csv --rates 1.5")).unwrap_err();
        assert!(err.0.contains("[0, 1]"));
        let err = Command::parse(&argv("robustness --model m --csv d.csv --rates x")).unwrap_err();
        assert!(err.0.contains("bad rate"));
        assert!(Command::parse(&argv("robustness --csv d.csv")).is_err());
    }

    #[test]
    fn profile_parses_with_defaults() {
        let cmd = Command::parse(&argv("profile --task eegmmi")).unwrap();
        assert_eq!(
            cmd,
            Command::Profile {
                task: "eegmmi".into(),
                seed: 42,
                epochs: None,
                samples: 64,
                threads: None,
                trace: None,
                mem: false,
                workers: None,
                listen: None,
            }
        );
        let cmd = Command::parse(&argv(
            "profile --task ISOLET --seed 7 --epochs 5 --samples 16 --threads 4 \
             --trace out.json --workers 4 --mem",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Profile {
                task: "ISOLET".into(),
                seed: 7,
                epochs: Some(5),
                samples: 16,
                threads: Some(4),
                trace: Some("out.json".into()),
                mem: true,
                workers: Some(4),
                listen: None,
            }
        );
    }

    #[test]
    fn fleet_report_parses_with_defaults() {
        assert_eq!(
            Command::parse(&argv("fleet-report --task bci3v")).unwrap(),
            Command::FleetReport {
                task: "bci3v".into(),
                workers: None,
                jobs: 8,
                seed: 42,
                chaos: univsa::ChaosSpec::default(),
            }
        );
        match Command::parse(&argv(
            "fleet-report --task HAR --workers 3 --jobs 12 --seed 7 --chaos crash=0.2",
        ))
        .unwrap()
        {
            Command::FleetReport {
                workers,
                jobs,
                chaos,
                ..
            } => {
                assert_eq!(workers, Some(3));
                assert_eq!(jobs, 12);
                assert_eq!(chaos.crash, 0.2);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert!(Command::parse(&argv("fleet-report")).is_err());
        assert!(Command::parse(&argv("fleet-report --task T --jobs 0")).is_err());
        assert!(Command::parse(&argv("fleet-report --task T --bogus 1")).is_err());
    }

    #[test]
    fn profile_mem_switch_parses_in_any_position() {
        for line in [
            "profile --task HAR --mem",
            "profile --mem --task HAR",
            "profile --task HAR --mem --seed 42",
        ] {
            match Command::parse(&argv(line)).unwrap() {
                Command::Profile { mem, task, .. } => {
                    assert!(mem, "{line}");
                    assert_eq!(task, "HAR");
                }
                other => panic!("wrong parse for {line}: {other:?}"),
            }
        }
    }

    #[test]
    fn memsnap_parses_task_and_seed() {
        assert_eq!(
            Command::parse(&argv("memsnap ISOLET")).unwrap(),
            Command::Memsnap {
                task: "ISOLET".into(),
                seed: 42,
            }
        );
        assert_eq!(
            Command::parse(&argv("memsnap HAR --seed 7")).unwrap(),
            Command::Memsnap {
                task: "HAR".into(),
                seed: 7,
            }
        );
        assert!(Command::parse(&argv("memsnap")).is_err());
        assert!(Command::parse(&argv("memsnap --seed 7")).is_err());
        assert!(Command::parse(&argv("memsnap HAR --bogus 1")).is_err());
        assert!(Command::parse(&argv("memsnap HAR --seed x")).is_err());
    }

    #[test]
    fn bench_diff_parses_positionals_and_thresholds() {
        let cmd = Command::parse(&argv("bench-diff old.json new.json")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchDiff {
                old: "old.json".into(),
                new: "new.json".into(),
                thresholds: Thresholds::default(),
            }
        );
        let cmd = Command::parse(&argv(
            "bench-diff old.json new.json --max-train-regress none \
             --max-latency-regress 50 --max-cycles-regress 0 --max-accuracy-drop 0.01 \
             --max-peak-alloc-regress 20 --max-alloc-count-regress none \
             --max-footprint-drift 64 \
             --max-margin-drop 10 --max-detect-latency-regress none",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::BenchDiff {
                old: "old.json".into(),
                new: "new.json".into(),
                thresholds: Thresholds {
                    train_pct: None,
                    latency_pct: Some(50.0),
                    cycles_pct: Some(0.0),
                    accuracy_drop: Some(0.01),
                    peak_alloc_pct: Some(20.0),
                    alloc_count_pct: None,
                    footprint_bits: Some(64.0),
                    margin_drop_pct: Some(10.0),
                    detect_latency_pct: None,
                },
            }
        );
    }

    #[test]
    fn bench_diff_rejects_bad_input() {
        assert!(Command::parse(&argv("bench-diff old.json")).is_err());
        assert!(Command::parse(&argv("bench-diff a b c")).is_err());
        assert!(Command::parse(&argv("bench-diff a b --max-train-regress")).is_err());
        assert!(Command::parse(&argv("bench-diff a b --max-train-regress -5")).is_err());
        assert!(Command::parse(&argv("bench-diff a b --max-train-regress x")).is_err());
        assert!(Command::parse(&argv("bench-diff a b --bogus 1")).is_err());
    }

    #[test]
    fn profile_rejects_bad_values() {
        assert!(Command::parse(&argv("profile")).is_err());
        assert!(Command::parse(&argv("profile --task T --samples 0")).is_err());
        assert!(Command::parse(&argv("profile --task T --epochs x")).is_err());
        assert!(Command::parse(&argv("profile --task T --seed x")).is_err());
        assert!(Command::parse(&argv("profile --task T --threads 0")).is_err());
        assert!(Command::parse(&argv("profile --task T --threads x")).is_err());
    }

    #[test]
    fn search_parses_with_defaults() {
        assert_eq!(
            Command::parse(&argv("search --task bci3v")).unwrap(),
            Command::Search {
                task: "bci3v".into(),
                workers: None,
                population: 10,
                generations: 4,
                epochs: 3,
                seed: 42,
                chaos: univsa::ChaosSpec::default(),
                surrogate: false,
                listen: None,
            }
        );
        let cmd = Command::parse(&argv(
            "search --task HAR --workers 4 --population 8 --generations 2 \
             --epochs 1 --seed 7 --chaos crash=0.2,seed=3 --surrogate",
        ))
        .unwrap();
        match cmd {
            Command::Search {
                workers,
                population,
                chaos,
                surrogate,
                ..
            } => {
                assert_eq!(workers, Some(4));
                assert_eq!(population, 8);
                assert_eq!(chaos.crash, 0.2);
                assert_eq!(chaos.seed, 3);
                assert!(surrogate);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn search_rejects_bad_values() {
        assert!(Command::parse(&argv("search")).is_err());
        assert!(Command::parse(&argv("search --task T --workers x")).is_err());
        assert!(Command::parse(&argv("search --task T --population 1")).is_err());
        assert!(Command::parse(&argv("search --task T --generations 0")).is_err());
        assert!(Command::parse(&argv("search --task T --chaos crash=2.0")).is_err());
        assert!(Command::parse(&argv("search --task T --bogus 1")).is_err());
    }

    #[test]
    fn seu_parses_with_defaults() {
        assert_eq!(
            Command::parse(&argv("seu --task bci3v")).unwrap(),
            Command::Seu {
                task: "bci3v".into(),
                workers: None,
                rate: 1e-7,
                trials: 8,
                samples: 32,
                seed: 42,
                chaos: univsa::ChaosSpec::default(),
                listen: None,
            }
        );
        match Command::parse(&argv(
            "seu --task HAR --workers 2 --rate 1e-6 --trials 3 --samples 8 --seed 9",
        ))
        .unwrap()
        {
            Command::Seu {
                workers,
                rate,
                trials,
                ..
            } => {
                assert_eq!(workers, Some(2));
                assert_eq!(rate, 1e-6);
                assert_eq!(trials, 3);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn seu_rejects_bad_values() {
        assert!(Command::parse(&argv("seu")).is_err());
        assert!(Command::parse(&argv("seu --task T --rate 2")).is_err());
        assert!(Command::parse(&argv("seu --task T --trials 0")).is_err());
        assert!(Command::parse(&argv("seu --task T --samples 0")).is_err());
    }

    #[test]
    fn chaos_parses_matrix_with_defaults() {
        assert_eq!(
            Command::parse(&argv("chaos --task bci3v")).unwrap(),
            Command::Chaos {
                task: "bci3v".into(),
                workers: vec![0, 2, 4],
                crash: vec![0.0, 0.2],
                corrupt: 0.05,
                hang: 0.0,
                population: 6,
                generations: 2,
                epochs: 1,
                seed: 42,
                surrogate: false,
                listen: None,
            }
        );
        match Command::parse(&argv(
            "chaos --task HAR --workers 0,3 --crash 0,0.1,0.3 --corrupt 0 --hang 0.1",
        ))
        .unwrap()
        {
            Command::Chaos {
                workers,
                crash,
                corrupt,
                hang,
                ..
            } => {
                assert_eq!(workers, vec![0, 3]);
                assert_eq!(crash, vec![0.0, 0.1, 0.3]);
                assert_eq!(corrupt, 0.0);
                assert_eq!(hang, 0.1);
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn chaos_rejects_bad_values() {
        assert!(Command::parse(&argv("chaos")).is_err());
        assert!(Command::parse(&argv("chaos --task T --workers x")).is_err());
        assert!(Command::parse(&argv("chaos --task T --crash 1.5")).is_err());
        assert!(Command::parse(&argv("chaos --task T --corrupt 2")).is_err());
        assert!(Command::parse(&argv("chaos --task T --hang -1")).is_err());
    }

    #[test]
    fn listen_flag_parses_on_long_running_subcommands() {
        match Command::parse(&argv("search --task HAR --listen :9188")).unwrap() {
            Command::Search { listen, .. } => assert_eq!(listen.as_deref(), Some(":9188")),
            other => panic!("wrong parse: {other:?}"),
        }
        match Command::parse(&argv("seu --task HAR --listen 127.0.0.1:9188")).unwrap() {
            Command::Seu { listen, .. } => assert_eq!(listen.as_deref(), Some("127.0.0.1:9188")),
            other => panic!("wrong parse: {other:?}"),
        }
        match Command::parse(&argv("profile --task HAR --listen :0")).unwrap() {
            Command::Profile { listen, .. } => assert_eq!(listen.as_deref(), Some(":0")),
            other => panic!("wrong parse: {other:?}"),
        }
        match Command::parse(&argv("chaos --task HAR --listen :0")).unwrap() {
            Command::Chaos { listen, .. } => assert_eq!(listen.as_deref(), Some(":0")),
            other => panic!("wrong parse: {other:?}"),
        }
        // the value is required and must be non-empty; `infer` stays
        // listen-free
        assert!(Command::parse(&argv("search --task HAR --listen")).is_err());
        assert!(Command::parse(&argv("infer --model m --csv d.csv --listen :1")).is_err());
    }

    #[test]
    fn quality_parses_with_defaults() {
        assert_eq!(
            Command::parse(&argv("quality bci3v")).unwrap(),
            Command::Quality {
                task: "bci3v".into(),
                seed: 42,
                epochs: 3,
                samples: 512,
                drift_at: None,
                strength: 0.5,
                window: 128,
                workers: None,
                listen: None,
            }
        );
        match Command::parse(&argv(
            "quality HAR --seed 7 --epochs 2 --samples 256 --drift-at 128 \
             --strength 0.8 --window 32 --workers 2 --listen :0",
        ))
        .unwrap()
        {
            Command::Quality {
                task,
                seed,
                drift_at,
                strength,
                window,
                workers,
                listen,
                ..
            } => {
                assert_eq!(task, "HAR");
                assert_eq!(seed, 7);
                assert_eq!(drift_at, Some(128));
                assert_eq!(strength, 0.8);
                assert_eq!(window, 32);
                assert_eq!(workers, Some(2));
                assert_eq!(listen.as_deref(), Some(":0"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn quality_rejects_bad_values() {
        assert!(Command::parse(&argv("quality")).is_err());
        assert!(Command::parse(&argv("quality --seed 7")).is_err());
        assert!(Command::parse(&argv("quality T --samples 0")).is_err());
        assert!(Command::parse(&argv("quality T --strength 1.5")).is_err());
        assert!(Command::parse(&argv("quality T --window 1")).is_err());
        assert!(Command::parse(&argv("quality T --samples 64 --drift-at 64")).is_err());
        assert!(Command::parse(&argv("quality T --bogus 1")).is_err());
    }

    #[test]
    fn top_parses_addr_and_flags() {
        assert_eq!(
            Command::parse(&argv("top 127.0.0.1:9188")).unwrap(),
            Command::Top {
                addr: "127.0.0.1:9188".into(),
                interval_ms: 1000,
                refreshes: None,
            }
        );
        assert_eq!(
            Command::parse(&argv("top :9188 --interval 250 --refreshes 3")).unwrap(),
            Command::Top {
                addr: ":9188".into(),
                interval_ms: 250,
                refreshes: Some(3),
            }
        );
        assert!(Command::parse(&argv("top")).is_err());
        assert!(Command::parse(&argv("top --interval 100")).is_err());
        assert!(Command::parse(&argv("top :9188 --interval 0")).is_err());
        assert!(Command::parse(&argv("top :9188 --refreshes 0")).is_err());
        assert!(Command::parse(&argv("top :9188 --bogus 1")).is_err());
    }

    #[test]
    fn error_cases() {
        assert!(Command::parse(&argv("frobnicate")).is_err());
        assert!(Command::parse(&argv("info")).is_err());
        assert!(Command::parse(&argv("info --model")).is_err());
        assert!(Command::parse(&argv("info --model a --model b")).is_err());
        assert!(Command::parse(&argv("tasks extra")).is_err());
        assert!(Command::parse(&argv("train --task T --config 1,2,3 --out m")).is_err());
        assert!(Command::parse(&argv("infer positional")).is_err());
    }
}
