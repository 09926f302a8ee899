//! The UniVSA benchmark: end-to-end metrics of four workloads (untraced)
//! and per-layer metrics of the same workloads (traced).
//!
//! ```text
//! univsa-benchmark --workload <train|stream|batch|cli|all> [--seed N]
//!                  [--seconds S] [--trace 0|1] [--out DIR] [--repeat N]
//! ```
//!
//! The last line of standard output of a single-workload run is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. See README.md.

mod calibrate;
mod cli;
mod inputs;
mod layers;
mod stats;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Duration;

use univsa::json::{self, Json};

/// Flight-recorder capacity of a traced run (events kept for the span
/// file; the per-layer numbers never depend on it).
const TRACE_CAPACITY: usize = 1 << 16;

const USAGE: &str = "usage: univsa-benchmark --workload <train|stream|batch|cli|all> \
[--seed N] [--seconds S] [--trace 0|1] [--out DIR] [--repeat N]";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Train,
    Stream,
    Batch,
    Cli,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Train,
        Workload::Stream,
        Workload::Batch,
        Workload::Cli,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Train => "train",
            Workload::Stream => "stream",
            Workload::Batch => "batch",
            Workload::Cli => "cli",
        }
    }
}

/// One named measurement.
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

impl Metric {
    pub fn new(name: &str, unit: &'static str, value: f64) -> Self {
        Self {
            name: name.to_string(),
            unit,
            value,
        }
    }
}

/// Correctness checks of one run, each with a one-line detail.
#[derive(Default)]
pub struct Checks {
    items: Vec<(String, bool, String)>,
}

impl Checks {
    pub fn record(&mut self, name: &str, ok: bool, detail: String) {
        self.items.push((name.to_string(), ok, detail));
    }

    fn all_ok(&self) -> bool {
        self.items.iter().all(|(_, ok, _)| *ok)
    }
}

struct Args {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: Option<PathBuf>,
    repeat: Option<usize>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workloads: Vec::new(),
        seed: 42,
        seconds: 20,
        trace: false,
        out: None,
        repeat: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                parsed.workloads = match value {
                    "all" => Workload::ALL.to_vec(),
                    name => vec![*Workload::ALL
                        .iter()
                        .find(|w| w.name() == name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?],
                }
            }
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.max(1),
            "--trace" => {
                parsed.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                }
            }
            "--out" => parsed.out = Some(PathBuf::from(value)),
            "--repeat" => parsed.repeat = Some(number()?.max(1) as usize),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if parsed.workloads.is_empty() {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// The commit of the checkout in the working directory, read from `.git`
/// without spawning a process.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(Path::new(".git").join(p)).ok();
    let Some(head) = read("HEAD") else {
        return "unknown (not a git checkout)".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    read(reference)
        .map(|h| h.trim().to_string())
        .or_else(|| {
            read("packed-refs")?
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| format!("unknown ({reference})"))
}

fn print_report(outcome: &workloads::Outcome) {
    for m in &outcome.metrics {
        println!("  {:<38} {:>16.4} {}", m.name, m.value, m.unit);
    }
    println!("checks:");
    for (name, ok, detail) in &outcome.checks.items {
        let verdict = if *ok { "ok    " } else { "FAILED" };
        println!("  {verdict} {name} {detail}");
    }
    println!(
        "ops: attempted {} failed {}",
        outcome.attempted, outcome.failed
    );
}

fn result_json(outcome: &workloads::Outcome, correct: bool) -> String {
    let count = |n: u64| Json::Num(n as f64, Some(n));
    let metrics = outcome
        .metrics
        .iter()
        .map(|m| {
            let entry = Json::Obj(vec![
                ("value".into(), Json::Num(m.value, None)),
                ("unit".into(), Json::Str(m.unit.into())),
            ]);
            (m.name.clone(), entry)
        })
        .collect();
    let doc = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), count(outcome.attempted)),
        ("failed".into(), count(outcome.failed)),
        ("metrics".into(), Json::Obj(metrics)),
    ]);
    let mut out = String::new();
    json::write(&doc, &mut out);
    out
}

fn run(args: Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate this executable: {e}"))?;
    let univsa = exe.with_file_name("univsa");
    if !univsa.is_file() {
        return Err(format!(
            "the univsa CLI is missing at {}; build it into the same target directory \
             (cargo build --release -p univsa-cli), as run.sh does",
            univsa.display()
        ));
    }
    let out = args
        .out
        .clone()
        .unwrap_or_else(|| exe.with_file_name("benchmark-out"));
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;

    if args.repeat.is_some() || args.workloads.len() > 1 {
        return calibrate::run(
            &exe,
            &args.workloads,
            args.repeat.unwrap_or(1),
            args.seed,
            args.seconds,
            args.trace,
            &out,
        );
    }
    let workload = args.workloads[0];
    if args.trace {
        univsa_telemetry::enable_tracing(TRACE_CAPACITY);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "univsa benchmark: workload={} seed={} seconds={} trace={}",
        workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "host: nproc={nproc} kernels={} commit={} univsa={}",
        univsa_bits::kernels::active(),
        git_commit(),
        univsa.display()
    );
    let ctx = workloads::Ctx {
        seed: args.seed,
        seconds: Duration::from_secs(args.seconds),
        trace: args.trace,
        nproc,
        univsa,
        out: out.clone(),
    };
    let outcome = workloads::run(workload, &ctx)?;
    if let Some(m) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} is not finite", m.name));
    }
    println!(
        "{} metrics:",
        if args.trace {
            "per-layer"
        } else {
            "end-to-end"
        }
    );
    print_report(&outcome);
    if args.trace {
        let spans = out.join("spans.json");
        univsa_telemetry::export_chrome_trace(&spans.to_string_lossy())
            .map_err(|e| format!("{}: {e}", spans.display()))?;
        println!("spans: wrote {}", spans.display());
    }
    let correct = outcome.checks.all_ok() && outcome.failed == 0;
    println!("{}", result_json(&outcome, correct));
    Ok(correct)
}

fn main() -> ExitCode {
    // Environment hygiene, before any thread exists: no telemetry sink,
    // metrics endpoint, fleet, chaos, kernel or pool override may leak
    // into this process or the `univsa` children it starts.
    let inherited: Vec<_> = std::env::vars_os()
        .map(|(k, _)| k)
        .filter(|k| k.to_string_lossy().starts_with("UNIVSA_"))
        .collect();
    for key in inherited {
        std::env::remove_var(key);
    }
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(&s.split_whitespace().map(String::from).collect::<Vec<_>>())
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = args("--workload stream --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workloads, vec![Workload::Stream]);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3, true));
        assert_eq!(args("--workload all").unwrap().workloads.len(), 4);
        assert!(args("--workload nope").is_err());
        assert!(args("--workload cli --trace 2").is_err());
        assert!(args("--seed 1").is_err(), "workload is required");
        assert!(args("--workload cli --bogus 1").is_err());
    }

    #[test]
    fn result_line_is_json_with_the_four_keys() {
        let outcome = workloads::Outcome {
            attempted: 3,
            failed: 0,
            checks: Checks::default(),
            metrics: vec![Metric::new("setup_s", "s", 0.8125)],
        };
        let line = result_json(&outcome, true);
        assert_eq!(
            line,
            r#"{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":0.8125,"unit":"s"}}}"#
        );
        json::parse(line.as_bytes()).unwrap();
    }
}
