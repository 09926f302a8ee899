//! Driving the `univsa` binary: one child process at a time, stdout to a
//! file exactly as `univsa infer … > preds.txt` would.

use std::ffi::OsStr;
use std::fmt::Write as _;
use std::fs::File;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use univsa::{PackedModel, UniVsaError};
use univsa_data::Sample;

/// Runs `univsa <args>` with stdout sent to `stdout`, returning the wall
/// time from spawn to reap (process start, the command, exit).
fn run(univsa: &Path, args: &[&OsStr], stdout: Stdio) -> Result<Duration, String> {
    let t0 = Instant::now();
    let out = Command::new(univsa)
        .args(args)
        .stdout(stdout)
        .stderr(Stdio::piped())
        .output()
        .map_err(|e| format!("cannot run {}: {e}", univsa.display()))?;
    let elapsed = t0.elapsed();
    if out.status.success() {
        Ok(elapsed)
    } else {
        Err(format!(
            "univsa {args:?} failed ({}): {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ))
    }
}

/// `univsa infer --model <pk> --csv <csv> > <preds>`.
pub fn run_infer(univsa: &Path, pk: &Path, csv: &Path, preds: &Path) -> Result<Duration, String> {
    let file = File::create(preds).map_err(|e| format!("{}: {e}", preds.display()))?;
    let args = [
        OsStr::new("infer"),
        OsStr::new("--model"),
        pk.as_os_str(),
        OsStr::new("--csv"),
        csv.as_os_str(),
    ];
    run(univsa, &args, Stdio::from(file))
}

/// `univsa compile --model <uvsa> --out <pk>`.
pub fn run_compile(univsa: &Path, model: &Path, pk: &Path) -> Result<Duration, String> {
    let args = [
        OsStr::new("compile"),
        OsStr::new("--model"),
        model.as_os_str(),
        OsStr::new("--out"),
        pk.as_os_str(),
    ];
    run(univsa, &args, Stdio::null())
}

/// The exact stdout `univsa infer` must print for these rows: the engine
/// banner, one line per row, and the accuracy line.
pub fn expected_stdout(packed: &PackedModel, rows: &[Sample]) -> Result<String, UniVsaError> {
    let mut out = format!("engine: packed ({} kernels)\n", packed.tier());
    let mut correct = 0usize;
    for (i, s) in rows.iter().enumerate() {
        let label = packed.infer(&s.values)?;
        correct += usize::from(label == s.label);
        let _ = writeln!(out, "{i}: predicted {label} (true {})", s.label);
    }
    if !rows.is_empty() {
        let _ = writeln!(
            out,
            "accuracy: {:.4} ({correct}/{})",
            correct as f64 / rows.len() as f64,
            rows.len()
        );
    }
    Ok(out)
}
