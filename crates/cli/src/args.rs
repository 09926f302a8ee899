//! Argument parsing (no external dependencies).
//!
//! One declarative table, [`SUBCOMMANDS`], is the only description of the
//! command line: each entry names a subcommand's positionals and flags
//! (metavar, default or required, switch, value check) and builds its
//! [`Command`]. The generic parser and the usage synopsis both come from
//! it, so every subcommand rejects the same malformed input the same way.

use std::error::Error;
use std::ffi::OsString;
use std::fmt;
use std::str::FromStr;

use univsa_bench::diff::Thresholds;
use univsa_bits::KernelTier;

/// A parsed CLI invocation; its flags and usage are in `SUBCOMMANDS`.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `univsa train`
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
    /// `univsa infer`
    Infer {
        /// Saved model path (`.uvsa` model or `.uvsap` packed artifact).
        model: String,
        /// CSV dataset to classify.
        csv: String,
    },
    /// `univsa compile`
    Compile {
        /// Saved model path.
        model: String,
        /// Output packed-artifact path.
        out: String,
    },
    /// `univsa info`
    Info {
        /// Saved model path.
        model: String,
    },
    /// `univsa rtl`
    Rtl {
        /// Saved model path.
        model: String,
        /// Directory for the Verilog + hex files.
        out_dir: String,
    },
    /// `univsa robustness`
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
    /// `univsa profile`
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
        /// the trace/summary, and a per-slot table printed (`--workers N`).
        workers: Option<usize>,
        /// Serve live metrics over HTTP while the run is in flight
        /// (`--listen HOST:PORT` or `:PORT`).
        listen: Option<String>,
    },
    /// `univsa search`
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
    /// `univsa seu`
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
    /// `univsa bench-diff`
    BenchDiff {
        /// Baseline report path.
        old: String,
        /// Candidate report path.
        new: String,
        /// Per-metric regression gates.
        thresholds: Thresholds,
    },
    /// `univsa quality` — stream a seeded prediction sequence through the
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
    /// `univsa top` — live terminal view of a running process's metrics
    /// endpoint.
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

/// How a flag appears on the command line.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Arity {
    /// `--name VALUE`, must be given.
    Required,
    /// `--name VALUE`, this value when absent.
    Default(&'static str),
    /// `--name VALUE`, `None` when absent.
    Optional,
    /// `--name` alone: a boolean switch.
    Switch,
}

/// What a flag's value must satisfy beyond parsing as its type (for a
/// comma list, what each element must satisfy).
#[derive(Debug, Clone, Copy, PartialEq)]
enum Check {
    /// Nothing beyond the type.
    Any,
    /// A number no smaller than this.
    AtLeast(u32),
    /// A probability in [0, 1].
    Probability,
    /// Not blank.
    NonEmpty,
}

/// One `--name` flag of a subcommand.
#[derive(Debug, Clone, Copy)]
struct Flag {
    name: &'static str,
    /// Value placeholder in the usage line (empty for a switch).
    metavar: &'static str,
    arity: Arity,
    check: Check,
}

const fn flag(name: &'static str, metavar: &'static str, arity: Arity) -> Flag {
    Flag {
        name,
        metavar,
        arity,
        check: Check::Any,
    }
}

const fn required(name: &'static str, metavar: &'static str) -> Flag {
    flag(name, metavar, Arity::Required)
}

const fn optional(name: &'static str, metavar: &'static str) -> Flag {
    flag(name, metavar, Arity::Optional)
}

const fn default(name: &'static str, metavar: &'static str, value: &'static str) -> Flag {
    flag(name, metavar, Arity::Default(value))
}

const fn switch(name: &'static str) -> Flag {
    flag(name, "", Arity::Switch)
}

impl Flag {
    const fn check(self, check: Check) -> Flag {
        Flag { check, ..self }
    }
}

/// One subcommand: its name, positional placeholders, flags, and the
/// function that builds its [`Command`] from the parsed arguments.
struct Spec {
    name: &'static str,
    positionals: &'static [&'static str],
    flags: &'static [Flag],
    build: fn(&Parsed<'_>) -> Result<Command, ParseArgsError>,
}

const TASK: Flag = required("task", "<NAME>");
const MODEL: Flag = required("model", "MODEL");
const CSV: Flag = required("csv", "DATA.csv");
const SEED: Flag = default("seed", "S", "42");
const WORKERS: Flag = optional("workers", "N");
const CHAOS: Flag = optional("chaos", "SPEC");
const LISTEN: Flag = optional("listen", "ADDR").check(Check::NonEmpty);

/// Every subcommand, in `univsa help` order.
const SUBCOMMANDS: &[Spec] = &[
    Spec {
        name: "train",
        positionals: &[],
        flags: &[
            optional("task", "<NAME>"),
            optional("csv", "DATA.csv"),
            optional("geometry", "W,L,C"),
            required("config", "DH,DL,DK,O,THETA"),
            required("out", "MODEL"),
            default("epochs", "N", "20"),
            SEED,
        ],
        build: |p| {
            let task: Option<String> = p.opt("task")?;
            let csv: Option<String> = p.opt("csv")?;
            if task.is_some() == csv.is_some() {
                return Err(ParseArgsError(
                    "train needs exactly one of --task or --csv".into(),
                ));
            }
            let geometry = p.counts("geometry")?.map(|[w, l, c]| (w, l, c));
            if csv.is_some() && geometry.is_none() {
                return Err(ParseArgsError("--csv requires --geometry W,L,C".into()));
            }
            let [d_h, d_l, d_k, o, theta] = p.counts("config")?.ok_or_else(|| missing("config"))?;
            Ok(Command::Train {
                task,
                csv,
                geometry,
                config: (d_h, d_l, d_k, o, theta),
                epochs: p.get("epochs")?,
                seed: p.get("seed")?,
                out: p.get("out")?,
            })
        },
    },
    Spec {
        name: "infer",
        positionals: &[],
        flags: &[MODEL, CSV],
        build: |p| {
            Ok(Command::Infer {
                model: p.get("model")?,
                csv: p.get("csv")?,
            })
        },
    },
    Spec {
        name: "compile",
        positionals: &[],
        flags: &[MODEL, required("out", "ARTIFACT")],
        build: |p| {
            Ok(Command::Compile {
                model: p.get("model")?,
                out: p.get("out")?,
            })
        },
    },
    Spec {
        name: "info",
        positionals: &[],
        flags: &[MODEL],
        build: |p| {
            Ok(Command::Info {
                model: p.get("model")?,
            })
        },
    },
    Spec {
        name: "rtl",
        positionals: &[],
        flags: &[MODEL, required("out-dir", "DIR")],
        build: |p| {
            Ok(Command::Rtl {
                model: p.get("model")?,
                out_dir: p.get("out-dir")?,
            })
        },
    },
    Spec {
        name: "robustness",
        positionals: &[],
        flags: &[
            MODEL,
            CSV,
            default("rates", "R1,R2,…", "0.001,0.01,0.05").check(Check::Probability),
            SEED,
        ],
        build: |p| {
            Ok(Command::Robustness {
                model: p.get("model")?,
                csv: p.get("csv")?,
                rates: p.list("rates")?.ok_or_else(|| missing("rates"))?,
                seed: p.get("seed")?,
            })
        },
    },
    Spec {
        name: "profile",
        positionals: &[],
        flags: &[
            TASK,
            SEED,
            optional("epochs", "N"),
            default("samples", "N", "64").check(Check::AtLeast(1)),
            optional("threads", "T").check(Check::AtLeast(1)),
            optional("trace", "OUT.json"),
            switch("mem"),
            WORKERS,
            LISTEN,
        ],
        build: |p| {
            Ok(Command::Profile {
                task: p.get("task")?,
                seed: p.get("seed")?,
                epochs: p.opt("epochs")?,
                samples: p.get("samples")?,
                threads: p.opt("threads")?,
                trace: p.opt("trace")?,
                mem: p.switch("mem"),
                workers: p.opt("workers")?,
                listen: p.opt("listen")?,
            })
        },
    },
    Spec {
        name: "search",
        positionals: &[],
        flags: &[
            TASK,
            WORKERS,
            default("population", "P", "10").check(Check::AtLeast(2)),
            default("generations", "G", "4").check(Check::AtLeast(1)),
            default("epochs", "E", "3").check(Check::AtLeast(1)),
            SEED,
            CHAOS,
            switch("surrogate"),
            LISTEN,
        ],
        build: |p| {
            Ok(Command::Search {
                task: p.get("task")?,
                workers: p.opt("workers")?,
                population: p.get("population")?,
                generations: p.get("generations")?,
                epochs: p.get("epochs")?,
                seed: p.get("seed")?,
                chaos: p.chaos()?,
                surrogate: p.switch("surrogate"),
                listen: p.opt("listen")?,
            })
        },
    },
    Spec {
        name: "seu",
        positionals: &[],
        flags: &[
            TASK,
            WORKERS,
            default("rate", "R", "1e-7").check(Check::Probability),
            default("trials", "T", "8").check(Check::AtLeast(1)),
            default("samples", "N", "32").check(Check::AtLeast(1)),
            SEED,
            CHAOS,
            LISTEN,
        ],
        build: |p| {
            Ok(Command::Seu {
                task: p.get("task")?,
                workers: p.opt("workers")?,
                rate: p.get("rate")?,
                trials: p.get("trials")?,
                samples: p.get("samples")?,
                seed: p.get("seed")?,
                chaos: p.chaos()?,
                listen: p.opt("listen")?,
            })
        },
    },
    Spec {
        name: "quality",
        positionals: &["<TASK>"],
        flags: &[
            SEED,
            default("epochs", "N", "3").check(Check::AtLeast(1)),
            default("samples", "N", "512").check(Check::AtLeast(1)),
            optional("drift-at", "I"),
            default("strength", "P", "0.5").check(Check::Probability),
            default("window", "W", "128").check(Check::AtLeast(2)),
            WORKERS,
            LISTEN,
        ],
        build: |p| {
            let samples: usize = p.get("samples")?;
            let drift_at: Option<usize> = p.opt("drift-at")?;
            if let Some(at) = drift_at.filter(|&at| at >= samples) {
                return Err(ParseArgsError(format!(
                    "--drift-at {at} is past the end of a {samples}-sample stream"
                )));
            }
            Ok(Command::Quality {
                task: p.positional(0),
                seed: p.get("seed")?,
                epochs: p.get("epochs")?,
                samples,
                drift_at,
                strength: p.get("strength")?,
                window: p.get("window")?,
                workers: p.opt("workers")?,
                listen: p.opt("listen")?,
            })
        },
    },
    Spec {
        name: "top",
        positionals: &["ADDR"],
        flags: &[
            default("interval", "MS", "1000").check(Check::AtLeast(1)),
            optional("refreshes", "N").check(Check::AtLeast(1)),
        ],
        build: |p| {
            Ok(Command::Top {
                addr: p.positional(0),
                interval_ms: p.get("interval")?,
                refreshes: p.opt("refreshes")?,
            })
        },
    },
    Spec {
        name: "bench-diff",
        positionals: &["OLD.json", "NEW.json"],
        flags: &[
            optional("max-train-regress", "PCT|none"),
            optional("max-latency-regress", "PCT|none"),
            optional("max-cycles-regress", "PCT|none"),
            optional("max-accuracy-drop", "ABS|none"),
            optional("max-peak-alloc-regress", "PCT|none"),
            optional("max-alloc-count-regress", "PCT|none"),
            optional("max-footprint-drift", "BITS|none"),
            optional("max-margin-drop", "PCT|none"),
            optional("max-detect-latency-regress", "PCT|none"),
        ],
        build: |p| {
            let d = Thresholds::default();
            Ok(Command::BenchDiff {
                old: p.positional(0),
                new: p.positional(1),
                thresholds: Thresholds {
                    train_pct: p.gate("max-train-regress", d.train_pct)?,
                    latency_pct: p.gate("max-latency-regress", d.latency_pct)?,
                    cycles_pct: p.gate("max-cycles-regress", d.cycles_pct)?,
                    accuracy_drop: p.gate("max-accuracy-drop", d.accuracy_drop)?,
                    peak_alloc_pct: p.gate("max-peak-alloc-regress", d.peak_alloc_pct)?,
                    alloc_count_pct: p.gate("max-alloc-count-regress", d.alloc_count_pct)?,
                    footprint_bits: p.gate("max-footprint-drift", d.footprint_bits)?,
                    margin_drop_pct: p.gate("max-margin-drop", d.margin_drop_pct)?,
                    detect_latency_pct: p
                        .gate("max-detect-latency-regress", d.detect_latency_pct)?,
                },
            })
        },
    },
    Spec {
        name: "tasks",
        positionals: &[],
        flags: &[],
        build: |_| Ok(Command::Tasks),
    },
];

impl Command {
    /// Parses a full argument list (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] with a user-facing message on unknown
    /// subcommands, unknown/missing/duplicate flags, stray positionals,
    /// or malformed values.
    pub fn parse(args: &[String]) -> Result<Self, ParseArgsError> {
        let Some((sub, rest)) = args.split_first() else {
            return Ok(Command::Help);
        };
        if matches!(sub.as_str(), "help" | "--help" | "-h") {
            return Ok(Command::Help);
        }
        let spec = SUBCOMMANDS
            .iter()
            .find(|spec| spec.name == sub)
            .ok_or_else(|| {
                ParseArgsError(format!("unknown subcommand {sub:?}; run `univsa help`"))
            })?;
        (spec.build)(&spec.parse(rest)?)
    }

    /// Parses the process's arguments (excluding the program name), as
    /// [`Command::parse`] does.
    ///
    /// # Errors
    ///
    /// Also returns [`ParseArgsError`], naming its position, for an
    /// argument that is not valid UTF-8.
    pub fn parse_os(args: impl IntoIterator<Item = OsString>) -> Result<Self, ParseArgsError> {
        let args = args
            .into_iter()
            .enumerate()
            .map(|(i, arg)| {
                arg.into_string().map_err(|arg| {
                    ParseArgsError(format!("argument {} is not valid UTF-8: {arg:?}", i + 1))
                })
            })
            .collect::<Result<Vec<_>, _>>()?;
        Self::parse(&args)
    }
}

/// The usage text `univsa help` prints: the synopsis of every
/// subcommand, rendered from [`SUBCOMMANDS`], then the prose.
pub(crate) fn usage() -> String {
    let mut text = String::from("univsa — binary vector symbolic architecture toolkit\n\nUSAGE:\n");
    for spec in SUBCOMMANDS {
        wrap_synopsis(&mut text, &spec.synopsis());
    }
    text.push_str("  univsa help\n");
    text.push_str(PROSE);
    let tiers: Vec<&str> = KernelTier::ALL.iter().map(|tier| tier.name()).collect();
    text.push_str(&format!(
        "Kernel tiers, best first: {}.\n",
        tiers.join(", ")
    ));
    text
}

/// Appends one synopsis to the usage text, wrapped at 78 columns with
/// every flag kept on one line.
fn wrap_synopsis(text: &mut String, words: &[String]) {
    const INDENT: &str = "                 ";
    let mut line = String::from("  univsa");
    for word in words {
        if line.chars().count() + 1 + word.chars().count() > 78 {
            text.push_str(&line);
            text.push('\n');
            line = String::from(INDENT);
        } else {
            line.push(' ');
        }
        line.push_str(word);
    }
    text.push_str(&line);
    text.push('\n');
}

/// The hand-written part of the usage text, between the synopsis and
/// the kernel tier list.
const PROSE: &str = "
`infer` runs the packed engine: the model is compiled ahead of time
into level-indexed LUT rows, channel-masked kernel planes, and
bit-sliced majority counters, and each sample is classified with
straight-line XNOR+popcount kernels of the best tier the CPU supports
(listed below) unless the UNIVSA_KERNELS environment variable selects
`portable`, `native`, or an explicit tier. `compile` saves the lowered
model as a standalone checksummed artifact (magic UNIVSAPK) that
`infer` accepts directly in place of a model.

`train` takes exactly one of --task or --csv; --csv also needs
--geometry W,L,C. `info` prints a saved model's Eq. 5 memory breakdown.

`profile` trains the task's paper configuration and times every layer:
per-epoch training, per-sample inference latency percentiles, the
simulated hardware pipeline, and worker-pool occupancy. `--threads T`
(or UNIVSA_THREADS) sets the pool width; results are bit-identical at
every width. UNIVSA_TELEMETRY=summary or UNIVSA_TELEMETRY=jsonl:<path>
captures the underlying spans. `--trace OUT.json` writes a causal
Chrome trace of the whole run (view it at https://ui.perfetto.dev).
`--mem` adds a per-span allocation table, the trained model's footprint
audit (Eq. 5 bits vs. word-padded resident bits per weight store) and
the BRAM count of the calibrated cost model. `--workers N` appends a
fleet phase: probe jobs sharded over N worker processes, whose forwarded
telemetry fills a per-slot table (jobs, retries, dropped telemetry
batches, busy time, allocations, peak heap) and the fleet rollup; in the
trace each worker slot is its own process, its spans parented under the
supervisor's `dist.task` regions.

`search` runs the paper's evolutionary configuration search (objective
Acc − L_HW) and `seu` runs seeded single-event-upset campaigns for every
protection scheme. Both shard their work over a supervised fleet of
worker processes with --workers N (or UNIVSA_WORKERS): the same binary,
re-executed and spoken to over a CRC32-framed stdin/stdout protocol with
deadlines, liveness pings and bounded retries. Results are keyed by job
index, so stdout is bit-identical for every worker count, including 0
(in-process). --chaos (or UNIVSA_CHAOS) injects seeded worker faults,
e.g. `--chaos crash=0.2,corrupt=0.05,seed=7`; they may cost retries
(counted on stderr), never results, so diffing a chaotic run's stdout
against `--workers 0` checks the fleet end to end. `--surrogate` swaps
training for a deterministic training-free objective.

`quality` trains the task's paper configuration, replays a seeded
prediction stream (with drift injected from `--drift-at` on at per-cell
corruption probability `--strength`) through the packed engine, and
reports the margin sketch, per-class predictions, online accuracy, the
calibration gap, and every drift event with its detection latency. The
output is bit-identical for any --workers and UNIVSA_THREADS.

`--listen HOST:PORT` (or `:PORT`; port 0 picks one) on profile, search,
seu and quality, or UNIVSA_METRICS_ADDR on any subcommand, serves live
metrics while the run is in flight: `/metrics` (Prometheus text),
`/snapshot.json`, `/healthz`. Without either no thread or socket is
opened. `univsa top ADDR` renders a refreshing view of such an endpoint;
`--refreshes N` exits after N frames, `--interval MS` sets the period.

`bench-diff` compares two perf_baseline reports (schema
univsa-perf-baseline/v7) and exits nonzero when a gate fires. Defaults:
train time and p50/p99 latency +25%, hardware cycles +0%, accuracy drop
0.02 (absolute), peak heap and allocation count +10%, footprint drift 0
bits, mean margin drop 5%, drift-probe detection latency +0% (`n/a` when
the probe went undetected). Pass `none` to disable a gate.

Built-in tasks: EEGMMI, BCI-III-V, CHB-B, CHB-IB, ISOLET, HAR (synthetic,
with the paper's Table I geometry). CSV format: one sample per line,
`label,v0,v1,…` with values in 0..=255; `#` lines are ignored.

";

impl Spec {
    /// The synopsis words after `univsa`: the name, the positionals,
    /// then one word per flag (`--req M`, `[--opt M]`, `[--switch]`).
    fn synopsis(&self) -> Vec<String> {
        let flags = self.flags.iter().map(|f| match f.arity {
            Arity::Required => format!("--{} {}", f.name, f.metavar),
            Arity::Switch => format!("[--{}]", f.name),
            Arity::Default(_) | Arity::Optional => format!("[--{} {}]", f.name, f.metavar),
        });
        std::iter::once(self.name)
            .chain(self.positionals.iter().copied())
            .map(str::to_string)
            .chain(flags)
            .collect()
    }

    /// Matches `args` against this subcommand: every `--name` must be one
    /// of its flags and appear once, every valued flag needs a value,
    /// positionals fill the declared slots exactly, and required flags
    /// must be present. Values are checked when they are read.
    fn parse<'a>(&'static self, args: &'a [String]) -> Result<Parsed<'a>, ParseArgsError> {
        let mut parsed = Parsed {
            spec: self,
            positionals: Vec::new(),
            given: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let Some(name) = arg.strip_prefix("--") else {
                if parsed.positionals.len() == self.positionals.len() {
                    return Err(ParseArgsError(format!(
                        "unexpected positional argument {arg:?}"
                    )));
                }
                parsed.positionals.push(arg);
                continue;
            };
            let flag = self.flags.iter().find(|f| f.name == name).ok_or_else(|| {
                let known: Vec<&str> = self.flags.iter().map(|f| f.name).collect();
                ParseArgsError(format!(
                    "unknown {} flag --{name} (expected one of --{})",
                    self.name,
                    known.join(" --")
                ))
            })?;
            if parsed.given.iter().any(|(f, _)| f.name == name) {
                return Err(ParseArgsError(format!("duplicate flag --{name}")));
            }
            let value = if flag.arity == Arity::Switch {
                ""
            } else {
                it.next()
                    .map(String::as_str)
                    .ok_or_else(|| ParseArgsError(format!("--{name} needs a value")))?
            };
            parsed.given.push((flag, value));
        }
        if parsed.positionals.len() < self.positionals.len() {
            return Err(ParseArgsError(format!(
                "{} needs {}: univsa {}",
                self.name,
                self.positionals.join(" "),
                self.synopsis().join(" ")
            )));
        }
        for f in self.flags {
            if f.arity == Arity::Required && parsed.raw(f.name).is_none() {
                return Err(missing(f.name));
            }
        }
        Ok(parsed)
    }
}

/// One subcommand's arguments, matched against its [`Spec`]; the typed
/// getters apply each flag's default and [`Check`].
struct Parsed<'a> {
    spec: &'static Spec,
    positionals: Vec<&'a str>,
    /// Every flag given, with its value (empty for a switch).
    given: Vec<(&'static Flag, &'a str)>,
}

impl Parsed<'_> {
    fn flag(&self, name: &str) -> &'static Flag {
        self.spec
            .flags
            .iter()
            .find(|f| f.name == name)
            .unwrap_or_else(|| panic!("{} has no --{name} in the flag table", self.spec.name))
    }

    /// The given value, else the default.
    fn raw(&self, name: &str) -> Option<&str> {
        let given = self.given.iter().find(|(f, _)| f.name == name);
        match (given, self.flag(name).arity) {
            (Some(&(_, value)), _) => Some(value),
            (None, Arity::Default(value)) => Some(value),
            (None, _) => None,
        }
    }

    fn positional(&self, index: usize) -> String {
        self.positionals[index].to_string()
    }

    fn switch(&self, name: &str) -> bool {
        self.raw(name).is_some()
    }

    /// A valued flag that is required or has a default.
    fn get<T: FromStr>(&self, name: &str) -> Result<T, ParseArgsError> {
        self.opt(name)?.ok_or_else(|| missing(name))
    }

    /// A valued flag, `None` when absent and without a default.
    fn opt<T: FromStr>(&self, name: &str) -> Result<Option<T>, ParseArgsError> {
        let Some(raw) = self.raw(name) else {
            return Ok(None);
        };
        let value = raw
            .parse()
            .map_err(|_| ParseArgsError(format!("bad --{name} {raw:?}")))?;
        check(self.flag(name), raw)?;
        Ok(Some(value))
    }

    /// A comma list; the flag's [`Check`] applies to every element.
    fn list<T: FromStr>(&self, name: &str) -> Result<Option<Vec<T>>, ParseArgsError> {
        let Some(raw) = self.raw(name) else {
            return Ok(None);
        };
        let flag = self.flag(name);
        let noun = if flag.check == Check::Probability {
            "rate"
        } else {
            "number"
        };
        raw.split(',')
            .map(|part| {
                let part = part.trim();
                let value = part
                    .parse()
                    .map_err(|_| ParseArgsError(format!("bad {noun} {part:?} in {raw:?}")))?;
                check(flag, part)?;
                Ok(value)
            })
            .collect::<Result<_, _>>()
            .map(Some)
    }

    /// A comma list of exactly `N` counts, spelled out by the metavar.
    fn counts<const N: usize>(&self, name: &str) -> Result<Option<[usize; N]>, ParseArgsError> {
        let Some(list) = self.list::<usize>(name)? else {
            return Ok(None);
        };
        list.try_into().map(Some).map_err(|_| {
            ParseArgsError(format!(
                "expected {} — got {:?}",
                self.flag(name).metavar,
                self.raw(name).unwrap_or_default()
            ))
        })
    }

    /// The `--chaos` fault-injection spec (no faults when absent).
    fn chaos(&self) -> Result<univsa::ChaosSpec, ParseArgsError> {
        match self.raw("chaos") {
            Some(spec) => univsa::ChaosSpec::parse(spec)
                .map_err(|e| ParseArgsError(format!("bad --chaos {spec:?}: {e}"))),
            None => Ok(univsa::ChaosSpec::default()),
        }
    }

    /// A regression gate: a non-negative number, or `none`/`off` to
    /// disable it; `default` when absent.
    fn gate(&self, name: &str, default: Option<f64>) -> Result<Option<f64>, ParseArgsError> {
        match self.raw(name) {
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
}

/// Applies `flag`'s [`Check`] to a value that already parsed as its type.
fn check(flag: &Flag, raw: &str) -> Result<(), ParseArgsError> {
    let name = flag.name;
    let number = || raw.parse::<f64>().unwrap_or(f64::NAN);
    let fail = |message: String| Err(ParseArgsError(message));
    match flag.check {
        Check::Any => Ok(()),
        Check::AtLeast(min) if number() < f64::from(min) => {
            fail(format!("--{name} must be at least {min}"))
        }
        Check::Probability if !(0.0..=1.0).contains(&number()) => fail(format!(
            "--{name} must be a probability in [0, 1] — got {}",
            number()
        )),
        Check::NonEmpty if raw.trim().is_empty() => {
            fail(format!("--{name} needs a non-empty {}", flag.metavar))
        }
        Check::AtLeast(_) | Check::Probability | Check::NonEmpty => Ok(()),
    }
}

fn missing(name: &str) -> ParseArgsError {
    ParseArgsError(format!("missing required --{name}"))
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

    /// The usage synopsis entries, joined across wrapped lines:
    /// subcommand name → its full synopsis line.
    fn usage_entries() -> Vec<(String, String)> {
        let text = usage();
        let mut entries: Vec<(String, String)> = Vec::new();
        for line in text.lines().skip_while(|l| *l != "USAGE:").skip(1) {
            if line.is_empty() {
                break;
            }
            match line.strip_prefix("  univsa ") {
                Some(entry) => {
                    let name = entry.split_whitespace().next().unwrap_or_default();
                    entries.push((name.to_string(), entry.to_string()));
                }
                None => {
                    let (_, synopsis) = entries.last_mut().expect("continuation line");
                    synopsis.push(' ');
                    synopsis.push_str(line.trim());
                }
            }
        }
        entries
    }

    #[test]
    fn every_subcommand_in_the_table_rejects_unknown_flags_and_documents_its_own() {
        let entries = usage_entries();
        for spec in SUBCOMMANDS {
            let mut line = vec![spec.name.to_string()];
            line.extend(spec.positionals.iter().map(|_| "x".to_string()));
            for f in spec.flags.iter().filter(|f| f.arity == Arity::Required) {
                line.extend([format!("--{}", f.name), "x".into()]);
            }
            line.extend(["--bogus".into(), "1".into()]);
            let err = Command::parse(&line).unwrap_err();
            let expected = format!("unknown {} flag --bogus (expected one of", spec.name);
            assert!(err.0.starts_with(&expected), "{line:?}: {err}");

            let (_, synopsis) = entries
                .iter()
                .find(|(name, _)| name == spec.name)
                .unwrap_or_else(|| panic!("no usage line for {}", spec.name));
            let words: Vec<&str> = synopsis.split([' ', '[', ']']).collect();
            for f in spec.flags {
                let flag = format!("--{}", f.name);
                assert!(words.contains(&flag.as_str()), "{flag} missing: {synopsis}");
            }
        }
        // `univsa help` lists exactly the table's subcommands, plus help
        let listed: Vec<&str> = entries.iter().map(|(name, _)| name.as_str()).collect();
        let table: Vec<&str> = SUBCOMMANDS
            .iter()
            .map(|spec| spec.name)
            .chain(["help"])
            .collect();
        assert_eq!(listed, table);
    }

    #[test]
    fn usage_lists_every_kernel_tier() {
        let text = usage();
        for tier in KernelTier::ALL {
            assert!(text.contains(tier.name()), "{}", tier.name());
        }
    }

    #[cfg(unix)]
    #[test]
    fn non_utf8_argument_is_an_error_naming_its_position() {
        use std::os::unix::ffi::OsStringExt;
        let args = [
            OsString::from("info"),
            OsString::from("--model"),
            OsString::from_vec(b"\xff.uvsa".to_vec()),
        ];
        let err = Command::parse_os(args).unwrap_err();
        assert!(err.0.contains("argument 3 is not valid UTF-8"), "{err}");
        let ok = Command::parse_os(["info", "--model", "m"].map(OsString::from)).unwrap();
        assert_eq!(ok, Command::Info { model: "m".into() });
    }
}
