//! The perf-regression sentinel: compares two `perf_baseline` reports
//! (`BENCH_univsa.json`) metric by metric against configurable thresholds.
//!
//! [`parse_report`] reads schema `univsa-perf-baseline/v7` only — the
//! schema `perf_baseline` writes — and rejects any other. [`diff`] pairs
//! tasks by name and checks:
//!
//! | metric | gate | meaning |
//! |---|---|---|
//! | `train_seconds` | `train_pct` | % wall-time increase |
//! | `latency_us.p50` / `.p99` | `latency_pct` | % packed-engine latency increase |
//! | `hw_cycles.*` | `cycles_pct` | % cycle increase (deterministic — default 0) |
//! | `test_accuracy` | `accuracy_drop` | absolute accuracy decrease |
//! | `mem.peak_alloc_bytes` | `peak_alloc_pct` | % peak-allocation increase |
//! | `mem.alloc_count` | `alloc_count_pct` | % allocation-count increase |
//! | `footprint.actual_bits` | `footprint_bits` | absolute resident-bit drift |
//! | `quality.mean_margin` | `margin_drop_pct` | % mean-margin *decrease* |
//! | `quality.drift.detection_latency` | `detect_latency_pct` | % detection-latency increase |
//!
//! A task present in the old report but missing from the new one is
//! always a regression; a brand-new task is informational. Each gate can
//! be disabled (`None`) — CI uses this to compare a quick-mode run
//! against the committed full-mode baseline, where wall-clock and
//! accuracy figures are not commensurable but the hardware cycle counts
//! (derived from the configuration alone) must match exactly.
//!
//! Margins and drift-detection latencies are deterministic integers for
//! a seeded model, so a *drop* in mean margin (the model got less
//! confident) or an *increase* in detection latency (drift takes longer
//! to notice) gates. An undetected drift probe writes `null` latency;
//! against a detected probe on the other side that row renders `n/a`
//! rather than firing a gate.

use std::fmt::Write as _;

use univsa::json::{self, Json};

/// The only report schema this sentinel reads.
pub const SCHEMA: &str = "univsa-perf-baseline/v7";

/// Per-metric regression gates. `None` disables a gate entirely.
#[derive(Debug, Clone, PartialEq)]
pub struct Thresholds {
    /// Maximum tolerated `train_seconds` increase, in percent.
    pub train_pct: Option<f64>,
    /// Maximum tolerated p50/p99 latency increase, in percent.
    pub latency_pct: Option<f64>,
    /// Maximum tolerated hardware-cycle increase, in percent (cycles are
    /// deterministic, so the default tolerates none).
    pub cycles_pct: Option<f64>,
    /// Maximum tolerated absolute `test_accuracy` drop.
    pub accuracy_drop: Option<f64>,
    /// Maximum tolerated `mem.peak_alloc_bytes` increase, in percent.
    pub peak_alloc_pct: Option<f64>,
    /// Maximum tolerated `mem.alloc_count` increase, in percent.
    pub alloc_count_pct: Option<f64>,
    /// Maximum tolerated absolute drift (either direction) of the
    /// model's resident `footprint.actual_bits`. The footprint is derived
    /// from the configuration alone, so the default tolerates none.
    pub footprint_bits: Option<f64>,
    /// Maximum tolerated percent *decrease* of `quality.mean_margin`: a
    /// shrinking winner/runner-up margin means the model's decisions got
    /// less confident even where accuracy held.
    pub margin_drop_pct: Option<f64>,
    /// Maximum tolerated percent increase of the drift probe's detection
    /// latency. The probe is fully seeded, so the default tolerates none.
    pub detect_latency_pct: Option<f64>,
}

impl Default for Thresholds {
    fn default() -> Self {
        Self {
            train_pct: Some(25.0),
            latency_pct: Some(25.0),
            cycles_pct: Some(0.0),
            accuracy_drop: Some(0.02),
            peak_alloc_pct: Some(10.0),
            alloc_count_pct: Some(10.0),
            footprint_bits: Some(0.0),
            margin_drop_pct: Some(5.0),
            detect_latency_pct: Some(0.0),
        }
    }
}

/// The metrics extracted for one task row of a report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TaskMetrics {
    /// Task name (`HAR`, `ISOLET`, …).
    pub name: String,
    /// Training wall time in seconds.
    pub train_seconds: f64,
    /// Held-out accuracy in `[0, 1]`.
    pub accuracy: f64,
    /// Median packed-engine per-sample latency, microseconds.
    pub p50_us: f64,
    /// 99th-percentile packed-engine per-sample latency, microseconds.
    pub p99_us: f64,
    /// Single-sample hardware latency, cycles.
    pub sample_latency_cycles: f64,
    /// Pipeline initiation interval, cycles.
    pub initiation_interval_cycles: f64,
    /// Streamed-schedule makespan, cycles.
    pub makespan_cycles: f64,
    /// Peak heap allocation while measuring the task, bytes.
    pub peak_alloc_bytes: f64,
    /// Heap allocations performed while measuring the task.
    pub alloc_count: f64,
    /// Word-padded resident bits of the trained model.
    pub footprint_bits: f64,
    /// Mean winner/runner-up similarity margin on the held-out split.
    pub mean_margin: f64,
    /// Drift-probe detection latency in samples after onset (`None` when
    /// the probe went undetected).
    pub drift_detect_latency: Option<f64>,
}

/// A parsed `perf_baseline` report.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Report {
    /// Whether the report came from a `UNIVSA_QUICK=1` run.
    pub quick: bool,
    /// Per-task metric rows.
    pub tasks: Vec<TaskMetrics>,
}

/// The number at `path` (a chain of object keys) inside `row`, or an
/// error naming the task and the missing field.
fn field(row: &Json, task: &str, path: &[&str]) -> Result<f64, String> {
    path.iter()
        .try_fold(row, |node, key| node.get(key))
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("task {task:?}: missing number {}", path.join(".")))
}

/// Parses a `univsa-perf-baseline/v7` report.
///
/// # Errors
///
/// Returns a user-facing message when the bytes are not JSON, the
/// document carries another schema, or a task row lacks a metric.
pub fn parse_report(bytes: &[u8]) -> Result<Report, String> {
    let doc = json::parse(bytes).map_err(|e| format!("not valid JSON: {e}"))?;
    match doc.get("schema") {
        Some(Json::Str(s)) if s == SCHEMA => {}
        Some(Json::Str(s)) => {
            return Err(format!(
                "unsupported report schema {s:?} (bench-diff reads {SCHEMA} only; \
                 regenerate the report with perf_baseline)"
            ))
        }
        _ => return Err("missing \"schema\" field (not a perf_baseline report)".into()),
    }
    let quick = doc
        .get("quick")
        .and_then(Json::as_bool)
        .ok_or("missing boolean \"quick\" field")?;
    let rows = doc
        .get("tasks")
        .and_then(Json::as_arr)
        .ok_or("missing \"tasks\" array")?;
    let tasks = rows
        .iter()
        .map(|row| {
            let Some(Json::Str(name)) = row.get("task") else {
                return Err("task row without a \"task\" name".to_string());
            };
            let get = |path: &[&str]| field(row, name, path);
            Ok(TaskMetrics {
                name: name.clone(),
                train_seconds: get(&["train_seconds"])?,
                accuracy: get(&["test_accuracy"])?,
                p50_us: get(&["latency_us", "p50"])?,
                p99_us: get(&["latency_us", "p99"])?,
                sample_latency_cycles: get(&["hw_cycles", "sample_latency"])?,
                initiation_interval_cycles: get(&["hw_cycles", "initiation_interval"])?,
                makespan_cycles: get(&["hw_cycles", "makespan"])?,
                peak_alloc_bytes: get(&["mem", "peak_alloc_bytes"])?,
                alloc_count: get(&["mem", "alloc_count"])?,
                footprint_bits: get(&["footprint", "actual_bits"])?,
                mean_margin: get(&["quality", "mean_margin"])?,
                // the one nullable metric: an undetected probe writes null
                drift_detect_latency: match row
                    .get("quality")
                    .and_then(|q| q.get("drift"))
                    .and_then(|d| d.get("detection_latency"))
                {
                    Some(Json::Null) => None,
                    _ => Some(get(&["quality", "drift", "detection_latency"])?),
                },
            })
        })
        .collect::<Result<_, _>>()?;
    Ok(Report { quick, tasks })
}

/// Reads and parses a report file.
///
/// # Errors
///
/// Returns a user-facing message for unreadable files or malformed
/// reports (prefixed with the path).
pub fn load_report(path: &str) -> Result<Report, String> {
    let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
    parse_report(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// How a metric delta is judged against its threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Percentage increase over the old value.
    PctIncrease,
    /// Percentage decrease below the old value (mean margin).
    PctDecrease,
    /// Absolute decrease from the old value (accuracy).
    AbsDecrease,
    /// Absolute drift in either direction (footprint bits).
    AbsDrift,
}

/// One compared metric of one task.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricDelta {
    /// Task name.
    pub task: String,
    /// Metric label (`train_seconds`, `latency_p50_us`, …).
    pub metric: &'static str,
    /// Value in the old report.
    pub old: f64,
    /// Value in the new report.
    pub new: f64,
    /// Percent change for [`Gate::PctIncrease`] metrics, absolute change
    /// (`new - old`) for [`Gate::AbsDecrease`] metrics.
    pub delta: f64,
    /// How the delta is gated.
    pub gate: Gate,
    /// The configured threshold, if this gate is enabled.
    pub threshold: Option<f64>,
    /// Whether the delta breaches the threshold.
    pub regressed: bool,
    /// The metric exists on only one side (a drift probe that went
    /// undetected in one report): rendered `n/a`, never gated. The absent
    /// side is carried as NaN.
    pub skipped: bool,
}

/// The result of diffing two reports.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DiffOutcome {
    /// Every compared metric, in report order.
    pub rows: Vec<MetricDelta>,
    /// Tasks present in the old report but missing from the new one
    /// (always a regression).
    pub missing_tasks: Vec<String>,
    /// Tasks only present in the new report (informational).
    pub added_tasks: Vec<String>,
    /// Human-readable notes (mode mismatch etc.).
    pub notes: Vec<String>,
}

impl DiffOutcome {
    /// Whether any gate fired (including missing tasks).
    pub fn regressed(&self) -> bool {
        !self.missing_tasks.is_empty() || self.rows.iter().any(|r| r.regressed)
    }

    /// Renders the delta table (plus notes and the verdict line).
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "note: {note}");
        }
        let _ = writeln!(
            out,
            "{:<10} {:<26} {:>12} {:>12} {:>10} {:>10}  status",
            "task", "metric", "old", "new", "delta", "limit"
        );
        let val = |v: f64| {
            if v.is_nan() {
                "n/a".to_string()
            } else {
                format!("{v:.3}")
            }
        };
        for r in &self.rows {
            let (delta, limit) = if r.skipped {
                ("n/a".to_string(), "n/a".to_string())
            } else {
                match r.gate {
                    Gate::PctIncrease => (
                        format!("{:+.2}%", r.delta),
                        r.threshold
                            .map(|t| format!("+{t:.2}%"))
                            .unwrap_or_else(|| "off".into()),
                    ),
                    Gate::PctDecrease => (
                        format!("{:+.2}%", r.delta),
                        r.threshold
                            .map(|t| format!("-{t:.2}%"))
                            .unwrap_or_else(|| "off".into()),
                    ),
                    Gate::AbsDecrease => (
                        format!("{:+.4}", r.delta),
                        r.threshold
                            .map(|t| format!("-{t:.4}"))
                            .unwrap_or_else(|| "off".into()),
                    ),
                    Gate::AbsDrift => (
                        format!("{:+.0}", r.delta),
                        r.threshold
                            .map(|t| format!("±{t:.0}"))
                            .unwrap_or_else(|| "off".into()),
                    ),
                }
            };
            let _ = writeln!(
                out,
                "{:<10} {:<26} {:>12} {:>12} {:>10} {:>10}  {}",
                r.task,
                r.metric,
                val(r.old),
                val(r.new),
                delta,
                limit,
                if r.regressed {
                    "REGRESSED"
                } else if r.skipped {
                    "n/a"
                } else {
                    "ok"
                }
            );
        }
        for task in &self.missing_tasks {
            let _ = writeln!(out, "{task:<10} (task missing from new report)  REGRESSED");
        }
        for task in &self.added_tasks {
            let _ = writeln!(out, "{task:<10} (new task, no baseline)");
        }
        let _ = writeln!(
            out,
            "verdict: {}",
            if self.regressed() {
                "REGRESSION"
            } else {
                "no regression"
            }
        );
        out
    }
}

/// Pushes one compared metric. A metric absent on both sides adds no
/// row; absent on one side it adds an informational `n/a` row that never
/// fires.
fn push(
    rows: &mut Vec<MetricDelta>,
    task: &str,
    metric: &'static str,
    gate: Gate,
    old: Option<f64>,
    new: Option<f64>,
    threshold: Option<f64>,
) {
    let row = |old: f64, new: f64, delta: f64, regressed: bool, skipped: bool| MetricDelta {
        task: task.to_string(),
        metric,
        old,
        new,
        delta,
        gate,
        threshold,
        regressed,
        skipped,
    };
    match (old, new) {
        (None, None) => {}
        (Some(old), Some(new)) => {
            let delta = match gate {
                Gate::PctIncrease | Gate::PctDecrease => {
                    if old <= 0.0 {
                        return;
                    }
                    (new - old) / old * 100.0
                }
                Gate::AbsDecrease | Gate::AbsDrift => new - old,
            };
            // strict comparisons, so a 0% threshold passes identical values
            let regressed = threshold.is_some_and(|t| match gate {
                Gate::PctIncrease => delta > t,
                Gate::PctDecrease | Gate::AbsDecrease => -delta > t,
                Gate::AbsDrift => delta.abs() > t,
            });
            rows.push(row(old, new, delta, regressed, false));
        }
        (old, new) => rows.push(row(
            old.unwrap_or(f64::NAN),
            new.unwrap_or(f64::NAN),
            0.0,
            false,
            true,
        )),
    }
}

/// One compared metric: its row label, how its delta is gated, its value
/// in a task row, and the threshold that applies to it.
type Metric = (
    &'static str,
    Gate,
    fn(&TaskMetrics) -> Option<f64>,
    fn(&Thresholds) -> Option<f64>,
);

/// Every compared metric, in row order.
#[rustfmt::skip]
const METRICS: [Metric; 12] = [
    ("train_seconds", Gate::PctIncrease, |m| Some(m.train_seconds), |t| t.train_pct),
    ("latency_p50_us", Gate::PctIncrease, |m| Some(m.p50_us), |t| t.latency_pct),
    ("latency_p99_us", Gate::PctIncrease, |m| Some(m.p99_us), |t| t.latency_pct),
    ("hw_sample_latency_cycles", Gate::PctIncrease, |m| Some(m.sample_latency_cycles), |t| t.cycles_pct),
    ("hw_initiation_interval", Gate::PctIncrease, |m| Some(m.initiation_interval_cycles), |t| t.cycles_pct),
    ("hw_makespan_cycles", Gate::PctIncrease, |m| Some(m.makespan_cycles), |t| t.cycles_pct),
    ("test_accuracy", Gate::AbsDecrease, |m| Some(m.accuracy), |t| t.accuracy_drop),
    ("mem_peak_alloc_bytes", Gate::PctIncrease, |m| Some(m.peak_alloc_bytes), |t| t.peak_alloc_pct),
    ("mem_alloc_count", Gate::PctIncrease, |m| Some(m.alloc_count), |t| t.alloc_count_pct),
    ("footprint_actual_bits", Gate::AbsDrift, |m| Some(m.footprint_bits), |t| t.footprint_bits),
    ("quality_mean_margin", Gate::PctDecrease, |m| Some(m.mean_margin), |t| t.margin_drop_pct),
    ("quality_drift_latency", Gate::PctIncrease, |m| m.drift_detect_latency, |t| t.detect_latency_pct),
];

/// Compares `new` against `old` under the given thresholds.
pub fn diff(old: &Report, new: &Report, thresholds: &Thresholds) -> DiffOutcome {
    let mut out = DiffOutcome::default();
    if old.quick != new.quick {
        out.notes.push(format!(
            "mode mismatch (old quick={}, new quick={}): wall-clock and accuracy \
             comparisons are not commensurable; consider gating cycles only",
            old.quick, new.quick
        ));
    }
    for o in &old.tasks {
        let Some(n) = new.tasks.iter().find(|t| t.name == o.name) else {
            out.missing_tasks.push(o.name.clone());
            continue;
        };
        for (metric, gate, value, threshold) in METRICS {
            let threshold = threshold(thresholds);
            push(
                &mut out.rows,
                &o.name,
                metric,
                gate,
                value(o),
                value(n),
                threshold,
            );
        }
    }
    for n in &new.tasks {
        if !old.tasks.iter().any(|t| t.name == n.name) {
            out.added_tasks.push(n.name.clone());
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One v7 report row; `edit` rewrites the JSON text before parsing.
    fn v7(edit: impl Fn(String) -> String) -> Report {
        let text = r#"{"schema":"univsa-perf-baseline/v7","quick":false,"threads":4,
            "kernel_tier":"avx2",
            "tasks":[{"task":"HAR","train_seconds":10.0,"test_accuracy":0.95,
            "latency_us":{"mean":2.0,"p50":1.8,"p90":2.4,"p99":3.0},
            "hw_cycles":{"sample_latency":100,"initiation_interval":40,
            "streamed_samples":64,"makespan":2620},
            "mem":{"peak_alloc_bytes":1000000,"alloc_count":5000},
            "footprint":{"modeled_bits":66840,"actual_bits":66840,"ratio":1.0},
            "quality":{"mean_margin":500.0,"margin_p50":480,"margin_p99":1210,
            "drift":{"stream_samples":256,"at":128,"strength":1.0,"window":32,
            "detection_latency":31}}}]}"#;
        parse_report(edit(text.to_string()).as_bytes()).unwrap()
    }

    fn base() -> Report {
        v7(|t| t)
    }

    fn with(from: &'static str, to: &'static str) -> Report {
        v7(|t| {
            assert!(t.contains(from), "{from} not in the base report");
            t.replace(from, to)
        })
    }

    fn fired(old: &Report, new: &Report, metric: &str) -> bool {
        diff(old, new, &Thresholds::default())
            .rows
            .iter()
            .any(|r| r.metric == metric && r.regressed)
    }

    #[test]
    fn every_v7_field_is_read() {
        let r = base();
        assert!(!r.quick);
        let t = &r.tasks[0];
        assert_eq!(t.name, "HAR");
        assert_eq!((t.train_seconds, t.accuracy), (10.0, 0.95));
        assert_eq!((t.p50_us, t.p99_us), (1.8, 3.0));
        assert_eq!(t.makespan_cycles, 2620.0);
        assert_eq!((t.peak_alloc_bytes, t.alloc_count), (1e6, 5000.0));
        assert_eq!(t.footprint_bits, 66840.0);
        assert_eq!(t.mean_margin, 500.0);
        assert_eq!(t.drift_detect_latency, Some(31.0));
        // an undetected probe writes null
        let lost = with("\"detection_latency\":31", "\"detection_latency\":null");
        assert_eq!(lost.tasks[0].drift_detect_latency, None);
    }

    #[test]
    fn identical_reports_pass_even_with_zero_cycle_tolerance() {
        let outcome = diff(&base(), &base(), &Thresholds::default());
        assert!(!outcome.regressed(), "{}", outcome.render());
        assert_eq!(outcome.rows.len(), 12);
    }

    #[test]
    fn train_time_regression_fires() {
        let new = with("\"train_seconds\":10.0", "\"train_seconds\":14.0");
        let outcome = diff(&base(), &new, &Thresholds::default());
        let row = outcome
            .rows
            .iter()
            .find(|r| r.metric == "train_seconds")
            .unwrap();
        assert!(row.regressed);
        assert!((row.delta - 40.0).abs() < 1e-9);
        assert!(outcome.render().contains("REGRESSED"));
    }

    #[test]
    fn latency_regression_fires_past_threshold() {
        let ok = with("\"p99\":3.0", "\"p99\":3.6");
        let bad = with("\"p99\":3.0", "\"p99\":4.0");
        assert!(!fired(&base(), &ok, "latency_p99_us"));
        assert!(fired(&base(), &bad, "latency_p99_us"));
    }

    #[test]
    fn cycle_regression_fires_at_zero_tolerance() {
        let new = with("\"makespan\":2620", "\"makespan\":2621");
        assert!(fired(&base(), &new, "hw_makespan_cycles"));
    }

    #[test]
    fn accuracy_drop_fires_only_past_threshold() {
        let ok = with("\"test_accuracy\":0.95", "\"test_accuracy\":0.94");
        let bad = with("\"test_accuracy\":0.95", "\"test_accuracy\":0.90");
        assert!(!diff(&base(), &ok, &Thresholds::default()).regressed());
        assert!(fired(&base(), &bad, "test_accuracy"));
        // accuracy *improvement* never fires
        assert!(!diff(&bad, &base(), &Thresholds::default()).regressed());
    }

    #[test]
    fn memory_gates_fire_past_ten_percent() {
        let ok = with(
            "\"peak_alloc_bytes\":1000000",
            "\"peak_alloc_bytes\":1050000",
        );
        let bad = with(
            "\"peak_alloc_bytes\":1000000",
            "\"peak_alloc_bytes\":1200000",
        );
        assert!(!diff(&base(), &ok, &Thresholds::default()).regressed());
        assert!(fired(&base(), &bad, "mem_peak_alloc_bytes"));
        let more = with("\"alloc_count\":5000", "\"alloc_count\":6000");
        assert!(fired(&base(), &more, "mem_alloc_count"));
    }

    #[test]
    fn footprint_drift_fires_in_both_directions() {
        let grew = with("\"actual_bits\":66840", "\"actual_bits\":66904");
        let shrank = with("\"actual_bits\":66840", "\"actual_bits\":66776");
        assert!(fired(&base(), &grew, "footprint_actual_bits"));
        assert!(fired(&base(), &shrank, "footprint_actual_bits"));
    }

    #[test]
    fn margin_drop_fires_only_past_five_percent_and_never_on_growth() {
        let ok = with("\"mean_margin\":500.0", "\"mean_margin\":480.0"); // -4%
        let bad = with("\"mean_margin\":500.0", "\"mean_margin\":470.0"); // -6%
        let grew = with("\"mean_margin\":500.0", "\"mean_margin\":600.0");
        assert!(!diff(&base(), &ok, &Thresholds::default()).regressed());
        assert!(!diff(&base(), &grew, &Thresholds::default()).regressed());
        let outcome = diff(&base(), &bad, &Thresholds::default());
        assert!(fired(&base(), &bad, "quality_mean_margin"));
        assert!(outcome.render().contains("-5.00%"), "{}", outcome.render());
    }

    #[test]
    fn detection_latency_increase_fires_at_zero_tolerance() {
        let slower = with("\"detection_latency\":31", "\"detection_latency\":32");
        let faster = with("\"detection_latency\":31", "\"detection_latency\":15");
        assert!(!diff(&base(), &faster, &Thresholds::default()).regressed());
        assert!(fired(&base(), &slower, "quality_drift_latency"));
    }

    #[test]
    fn undetected_probe_renders_na_and_never_fires() {
        let lost = with("\"detection_latency\":31", "\"detection_latency\":null");
        for (old, new) in [(&base(), &lost), (&lost, &base())] {
            let outcome = diff(old, new, &Thresholds::default());
            assert!(!outcome.regressed(), "{}", outcome.render());
            let row = outcome
                .rows
                .iter()
                .find(|r| r.metric == "quality_drift_latency")
                .unwrap();
            assert!(row.skipped);
            assert!(outcome.render().contains("n/a"));
        }
        // undetected on both sides: nothing to compare, no row
        let outcome = diff(&lost, &lost, &Thresholds::default());
        assert!(!outcome
            .rows
            .iter()
            .any(|r| r.metric == "quality_drift_latency"));
    }

    #[test]
    fn disabled_gates_never_fire() {
        let new = v7(|t| {
            t.replace("\"train_seconds\":10.0", "\"train_seconds\":99.0")
                .replace("\"makespan\":2620", "\"makespan\":9999")
                .replace("\"test_accuracy\":0.95", "\"test_accuracy\":0.10")
        });
        let off = Thresholds {
            train_pct: None,
            latency_pct: None,
            cycles_pct: None,
            accuracy_drop: None,
            peak_alloc_pct: None,
            alloc_count_pct: None,
            footprint_bits: None,
            margin_drop_pct: None,
            detect_latency_pct: None,
        };
        assert!(!diff(&base(), &new, &off).regressed());
    }

    #[test]
    fn missing_task_is_a_regression() {
        let mut new = base();
        new.tasks.clear();
        let outcome = diff(&base(), &new, &Thresholds::default());
        assert!(outcome.regressed());
        assert_eq!(outcome.missing_tasks, vec!["HAR".to_string()]);
    }

    #[test]
    fn other_schemas_and_incomplete_rows_are_rejected() {
        assert!(parse_report(b"not json").is_err());
        assert!(parse_report(b"{}").is_err());
        assert!(parse_report(br#"{"schema":"other/v1"}"#).is_err());
        for old in ["v1", "v5", "v6"] {
            let text =
                format!(r#"{{"schema":"univsa-perf-baseline/{old}","quick":false,"tasks":[]}}"#);
            let err = parse_report(text.as_bytes()).unwrap_err();
            assert!(err.contains(SCHEMA), "{err}");
        }
        let text = r#"{"schema":"univsa-perf-baseline/v7","quick":false,
            "tasks":[{"task":"HAR","train_seconds":10.0}]}"#;
        let err = parse_report(text.as_bytes()).unwrap_err();
        assert!(
            err.contains("HAR") && err.contains("test_accuracy"),
            "{err}"
        );
    }

    #[test]
    fn mode_mismatch_is_noted() {
        let mut new = base();
        new.quick = true;
        let outcome = diff(&base(), &new, &Thresholds::default());
        assert!(outcome.notes.iter().any(|n| n.contains("mode mismatch")));
    }
}
