//! `--repeat N` (and `--workload all`): runs each workload N times as a
//! child process of this binary, one child at a time, alternating the
//! workload order between repetitions and giving repetition `i` the seed
//! `seed + i`. It prints each metric's median, quartiles, extremes and
//! relative spreads: the table the bounds in `BENCHMARK.json` are set
//! from.

use std::path::Path;
use std::process::{Command, Stdio};

use univsa::json::{self, Json};

use crate::stats::{median, quartiles};
use crate::Workload;

/// Every value one metric took over the repetitions of a workload.
struct Series {
    workload: Workload,
    name: String,
    unit: String,
    values: Vec<f64>,
}

/// A run's metrics as `(name, unit, value)`.
type Measured = Vec<(String, String, f64)>;

/// Parses a run's final JSON line into its `correct` flag and metrics.
fn parse_result(line: &str) -> Option<(bool, Measured)> {
    let doc = json::parse(line.as_bytes()).ok()?;
    let correct = doc.get("correct")?.as_bool()?;
    let Json::Obj(fields) = doc.get("metrics")? else {
        return None;
    };
    let metrics = fields
        .iter()
        .map(|(name, m)| {
            let unit = match m.get("unit")? {
                Json::Str(u) => u.clone(),
                _ => return None,
            };
            Some((name.clone(), unit, m.get("value")?.as_f64()?))
        })
        .collect::<Option<_>>()?;
    Some((correct, metrics))
}

pub fn run(
    exe: &Path,
    workloads: &[Workload],
    repeat: usize,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: &Path,
) -> Result<bool, String> {
    let mut series: Vec<Series> = Vec::new();
    let mut all_ok = true;
    for i in 0..repeat {
        let mut order = workloads.to_vec();
        if i % 2 == 1 {
            order.reverse();
        }
        let run_seed = seed + i as u64;
        for w in order {
            println!(
                "== {} run {}/{repeat} (seed {run_seed}) ==",
                w.name(),
                i + 1
            );
            let output = Command::new(exe)
                .args(["--workload", w.name()])
                .args(["--seed", &run_seed.to_string()])
                .args(["--seconds", &seconds.to_string()])
                .args(["--trace", if trace { "1" } else { "0" }])
                .arg("--out")
                .arg(out)
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .output()
                .map_err(|e| format!("cannot run {}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&output.stdout);
            let mut lines: Vec<&str> = stdout.lines().collect();
            let last = lines.pop().unwrap_or_default();
            for line in lines {
                println!("{line}");
            }
            let Some((correct, metrics)) = parse_result(last) else {
                println!("no result line ({})", output.status);
                all_ok = false;
                continue;
            };
            all_ok &= correct && output.status.success();
            for (name, unit, value) in metrics {
                match series
                    .iter_mut()
                    .find(|s| s.workload == w && s.name == name)
                {
                    Some(s) => s.values.push(value),
                    None => series.push(Series {
                        workload: w,
                        name,
                        unit,
                        values: vec![value],
                    }),
                }
            }
        }
    }
    for &w in workloads {
        println!(
            "== {}: {repeat} run(s), seeds {seed}..{} ==",
            w.name(),
            seed + repeat as u64 - 1
        );
        println!(
            "  {:<38} {:<9} {:>12} {:>12} {:>12} {:>12} {:>12} {:>8} {:>8}",
            "metric", "unit", "median", "q1", "q3", "min", "max", "iqr/med", "rng/med"
        );
        for s in series.iter().filter(|s| s.workload == w) {
            let med = median(&s.values);
            let [q1, _, q3] = if s.values.len() >= 2 {
                quartiles(&s.values)
            } else {
                [med; 3]
            };
            let min = s.values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = s.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "  {:<38} {:<9} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>7.1}% {:>7.1}%",
                s.name,
                s.unit,
                med,
                q1,
                q3,
                min,
                max,
                100.0 * (q3 - q1) / med.abs(),
                100.0 * (max - min) / med.abs()
            );
        }
    }
    Ok(all_ok)
}
