//! Prometheus text exposition (version 0.0.4) encoding of a registry
//! [`Snapshot`], plus a tiny parser for the same format so tests (and
//! future multi-replica scrapers) can round-trip the output without an
//! external dependency.
//!
//! Metric names are fixed families with the UniVSA-specific identity in
//! labels, so one scrape config covers every counter and span:
//!
//! | family | type | labels |
//! |---|---|---|
//! | `univsa_counter_total` | counter | `name` (raw registry key, e.g. `worker.0.jobs`) |
//! | `univsa_latency_ns` | histogram | `span` (`layer.name`); buckets are **cumulative** with nanosecond `le` bounds ending in `+Inf` |
//! | `univsa_mem_live_bytes` / `univsa_mem_peak_bytes` | gauge | — |
//! | `univsa_mem_alloc_total` / `univsa_mem_dealloc_total` | counter | — |
//! | `univsa_uptime_seconds` | gauge | — |
//! | `univsa_drift_events_total` | counter | — (mirrors the `quality.drift_detected` registry counter) |
//! | `univsa_predictions_total` | counter | `task`, `class` |
//! | `univsa_margin` | histogram | `task`; cumulative `le` bounds in raw similarity units ending in `+Inf` |

use std::fmt::Write as _;

use crate::histogram::BUCKET_BOUNDS_NS;
use crate::quality::MARGIN_BUCKET_BOUNDS;
use crate::snapshot::Snapshot;

/// Escapes a label value per the exposition format: backslash, double
/// quote, and newline.
fn write_label_value(out: &mut String, value: &str) {
    out.push('"');
    for ch in value.chars() {
        match ch {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Renders a snapshot as Prometheus text exposition. Output order is
/// deterministic (families in a fixed order, series sorted by the
/// snapshot's `BTreeMap` keys).
pub fn encode_text(snap: &Snapshot) -> String {
    let mut out = String::with_capacity(2048);
    out.push_str(
        "# HELP univsa_uptime_seconds Seconds since the telemetry registry was created.\n",
    );
    out.push_str("# TYPE univsa_uptime_seconds gauge\n");
    let _ = writeln!(out, "univsa_uptime_seconds {}", snap.uptime_ns as f64 / 1e9);
    out.push_str("# HELP univsa_mem_live_bytes Heap bytes currently live.\n");
    out.push_str("# TYPE univsa_mem_live_bytes gauge\n");
    let _ = writeln!(out, "univsa_mem_live_bytes {}", snap.mem.live_bytes);
    out.push_str("# HELP univsa_mem_peak_bytes High-water mark of live heap bytes.\n");
    out.push_str("# TYPE univsa_mem_peak_bytes gauge\n");
    let _ = writeln!(out, "univsa_mem_peak_bytes {}", snap.mem.peak_bytes);
    out.push_str("# HELP univsa_mem_alloc_total Heap allocations observed.\n");
    out.push_str("# TYPE univsa_mem_alloc_total counter\n");
    let _ = writeln!(out, "univsa_mem_alloc_total {}", snap.mem.alloc_count);
    out.push_str("# HELP univsa_mem_dealloc_total Heap deallocations observed.\n");
    out.push_str("# TYPE univsa_mem_dealloc_total counter\n");
    let _ = writeln!(out, "univsa_mem_dealloc_total {}", snap.mem.dealloc_count);
    out.push_str("# HELP univsa_drift_events_total Prediction-quality drift detections.\n");
    out.push_str("# TYPE univsa_drift_events_total counter\n");
    let _ = writeln!(
        out,
        "univsa_drift_events_total {}",
        snap.counters.get("quality.drift_detected").unwrap_or(&0)
    );
    let task = snap.quality.task.as_deref().unwrap_or("");
    if !snap.quality.predictions.is_empty() {
        out.push_str("# HELP univsa_predictions_total Predictions per winning class.\n");
        out.push_str("# TYPE univsa_predictions_total counter\n");
        for (class, value) in &snap.quality.predictions {
            out.push_str("univsa_predictions_total{task=");
            write_label_value(&mut out, task);
            out.push_str(",class=");
            write_label_value(&mut out, class);
            let _ = writeln!(out, "}} {value}");
        }
    }
    if snap.quality.margins.count() > 0 {
        out.push_str(
            "# HELP univsa_margin Winning-vs-runner-up similarity margin of predictions.\n",
        );
        out.push_str("# TYPE univsa_margin histogram\n");
        let m = &snap.quality.margins;
        let mut cumulative = 0u64;
        for (i, &count) in m.bucket_counts().iter().enumerate() {
            cumulative += count;
            out.push_str("univsa_margin_bucket{task=");
            write_label_value(&mut out, task);
            match MARGIN_BUCKET_BOUNDS.get(i) {
                Some(bound) => {
                    let _ = writeln!(out, ",le=\"{bound}\"}} {cumulative}");
                }
                None => {
                    let _ = writeln!(out, ",le=\"+Inf\"}} {cumulative}");
                }
            }
        }
        out.push_str("univsa_margin_sum{task=");
        write_label_value(&mut out, task);
        let _ = writeln!(out, "}} {}", m.sum());
        out.push_str("univsa_margin_count{task=");
        write_label_value(&mut out, task);
        let _ = writeln!(out, "}} {}", m.count());
    }
    if !snap.counters.is_empty() {
        out.push_str("# HELP univsa_counter_total Registry counters, one series per name.\n");
        out.push_str("# TYPE univsa_counter_total counter\n");
        for (name, value) in &snap.counters {
            out.push_str("univsa_counter_total{name=");
            write_label_value(&mut out, name);
            let _ = writeln!(out, "}} {value}");
        }
    }
    if !snap.histograms.is_empty() {
        out.push_str(
            "# HELP univsa_latency_ns Span latency histograms in nanoseconds, one series per span.\n",
        );
        out.push_str("# TYPE univsa_latency_ns histogram\n");
        for (span, h) in &snap.histograms {
            // the exposition format wants cumulative bucket counts; the
            // registry stores per-bucket counts, so accumulate here
            let mut cumulative = 0u64;
            for (i, &count) in h.bucket_counts().iter().enumerate() {
                cumulative += count;
                out.push_str("univsa_latency_ns_bucket{span=");
                write_label_value(&mut out, span);
                match BUCKET_BOUNDS_NS.get(i) {
                    Some(bound) => {
                        let _ = writeln!(out, ",le=\"{bound}\"}} {cumulative}");
                    }
                    None => {
                        let _ = writeln!(out, ",le=\"+Inf\"}} {cumulative}");
                    }
                }
            }
            out.push_str("univsa_latency_ns_sum{span=");
            write_label_value(&mut out, span);
            let _ = writeln!(out, "}} {}", h.sum_ns());
            out.push_str("univsa_latency_ns_count{span=");
            write_label_value(&mut out, span);
            let _ = writeln!(out, "}} {}", h.count());
        }
    }
    out
}

/// One parsed sample line: metric name, labels in source order, value.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Metric name (including any `_bucket`/`_sum`/`_count` suffix).
    pub name: String,
    /// Label pairs in the order they appeared.
    pub labels: Vec<(String, String)>,
    /// The sample value.
    pub value: f64,
}

impl Sample {
    /// The value of a label, if present.
    pub fn label(&self, key: &str) -> Option<&str> {
        self.labels
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// Parses Prometheus text exposition into samples. Comment (`#`) and
/// blank lines are skipped; anything else must be a well-formed
/// `name{labels} value` or `name value` line.
///
/// # Errors
///
/// Returns a message naming the first malformed line.
pub fn parse_text(text: &str) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        samples.push(parse_sample(line).map_err(|e| format!("line {}: {e}", lineno + 1))?);
    }
    Ok(samples)
}

fn parse_sample(line: &str) -> Result<Sample, String> {
    let (name_end, labels, rest) = match line.find('{') {
        Some(brace) => {
            let (labels, after) = parse_labels(&line[brace + 1..])?;
            (brace, labels, after)
        }
        None => {
            let space = line
                .find(char::is_whitespace)
                .ok_or("missing value after metric name")?;
            (space, Vec::new(), &line[space..])
        }
    };
    let name = line[..name_end].trim().to_string();
    if name.is_empty()
        || !name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    {
        return Err(format!("invalid metric name {name:?}"));
    }
    let value_text = rest.trim();
    let value = match value_text {
        "+Inf" => f64::INFINITY,
        "-Inf" => f64::NEG_INFINITY,
        "NaN" => f64::NAN,
        v => v
            .parse::<f64>()
            .map_err(|_| format!("invalid sample value {v:?}"))?,
    };
    Ok(Sample {
        name,
        labels,
        value,
    })
}

/// Parses `key="value",…}` (the text after the opening brace), returning
/// the pairs and the remainder of the line after the closing brace.
#[allow(clippy::type_complexity)]
fn parse_labels(mut text: &str) -> Result<(Vec<(String, String)>, &str), String> {
    let mut labels = Vec::new();
    loop {
        text = text.trim_start();
        if let Some(rest) = text.strip_prefix('}') {
            return Ok((labels, rest));
        }
        let eq = text.find('=').ok_or("label missing '='")?;
        let key = text[..eq].trim().to_string();
        text = text[eq + 1..]
            .strip_prefix('"')
            .ok_or("label value missing opening quote")?;
        let mut value = String::new();
        let mut chars = text.char_indices();
        let after_quote = loop {
            let (i, ch) = chars.next().ok_or("unterminated label value")?;
            match ch {
                '"' => break i + 1,
                '\\' => {
                    let (_, esc) = chars.next().ok_or("dangling escape")?;
                    match esc {
                        'n' => value.push('\n'),
                        '\\' => value.push('\\'),
                        '"' => value.push('"'),
                        other => return Err(format!("unknown escape \\{other}")),
                    }
                }
                c => value.push(c),
            }
        };
        labels.push((key, value));
        text = text[after_quote..].trim_start();
        if let Some(rest) = text.strip_prefix(',') {
            text = rest;
        } else if !text.starts_with('}') {
            return Err("expected ',' or '}' after label".into());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::histogram::Histogram;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::empty();
        snap.uptime_ns = 2_000_000_000;
        snap.mem.live_bytes = 1024;
        snap.mem.peak_bytes = 4096;
        snap.mem.alloc_count = 10;
        snap.mem.dealloc_count = 7;
        snap.counters.insert("worker.0.jobs".into(), 5);
        snap.counters.insert("fleet.jobs".into(), 5);
        let mut h = Histogram::new();
        h.record(1_500);
        h.record(1_500);
        h.record(7_000);
        snap.histograms.insert("infer.encode".into(), h);
        snap
    }

    #[test]
    fn buckets_are_cumulative_and_end_in_inf() {
        let text = encode_text(&sample_snapshot());
        let samples = parse_text(&text).unwrap();
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "univsa_latency_ns_bucket")
            .collect();
        assert_eq!(buckets.len(), BUCKET_BOUNDS_NS.len() + 1);
        // cumulative counts never decrease
        let counts: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        // the +Inf bucket equals the count series
        let last = buckets.last().unwrap();
        assert_eq!(last.label("le"), Some("+Inf"));
        let count = samples
            .iter()
            .find(|s| s.name == "univsa_latency_ns_count")
            .unwrap();
        assert_eq!(last.value, count.value);
        assert_eq!(count.value, 3.0);
        // the 2µs bucket holds both 1.5µs observations cumulatively
        let two_us = buckets
            .iter()
            .find(|s| s.label("le") == Some("2000"))
            .unwrap();
        assert_eq!(two_us.value, 2.0);
        let sum = samples
            .iter()
            .find(|s| s.name == "univsa_latency_ns_sum")
            .unwrap();
        assert_eq!(sum.value, 10_000.0);
    }

    #[test]
    fn counters_and_gauges_round_trip() {
        let snap = sample_snapshot();
        let samples = parse_text(&encode_text(&snap)).unwrap();
        let find = |name: &str, label: Option<(&str, &str)>| {
            samples
                .iter()
                .find(|s| s.name == name && label.is_none_or(|(k, v)| s.label(k) == Some(v)))
                .unwrap_or_else(|| panic!("missing {name} {label:?}"))
                .value
        };
        assert_eq!(
            find("univsa_counter_total", Some(("name", "worker.0.jobs"))),
            5.0
        );
        assert_eq!(
            find("univsa_counter_total", Some(("name", "fleet.jobs"))),
            5.0
        );
        assert_eq!(find("univsa_mem_live_bytes", None), 1024.0);
        assert_eq!(find("univsa_mem_peak_bytes", None), 4096.0);
        assert_eq!(find("univsa_mem_alloc_total", None), 10.0);
        assert_eq!(find("univsa_mem_dealloc_total", None), 7.0);
        assert_eq!(find("univsa_uptime_seconds", None), 2.0);
    }

    #[test]
    fn label_values_escape_and_unescape() {
        let mut snap = Snapshot::empty();
        snap.counters.insert("weird\"name\\with\nstuff".into(), 1);
        let text = encode_text(&snap);
        let samples = parse_text(&text).unwrap();
        let s = samples
            .iter()
            .find(|s| s.name == "univsa_counter_total")
            .unwrap();
        assert_eq!(s.label("name"), Some("weird\"name\\with\nstuff"));
    }

    #[test]
    fn quality_families_encode_margins_predictions_and_drift() {
        let mut snap = sample_snapshot();
        snap.quality.task = Some("bci3v".into());
        snap.quality.record_prediction(0, 7);
        snap.quality.record_prediction(2, 7);
        snap.quality.record_prediction(2, 90);
        snap.counters.insert("quality.drift_detected".into(), 3);
        let samples = parse_text(&encode_text(&snap)).unwrap();
        let drift = samples
            .iter()
            .find(|s| s.name == "univsa_drift_events_total")
            .unwrap();
        assert_eq!(drift.value, 3.0);
        let class2 = samples
            .iter()
            .find(|s| s.name == "univsa_predictions_total" && s.label("class") == Some("2"))
            .unwrap();
        assert_eq!(class2.value, 2.0);
        assert_eq!(class2.label("task"), Some("bci3v"));
        let buckets: Vec<&Sample> = samples
            .iter()
            .filter(|s| s.name == "univsa_margin_bucket")
            .collect();
        assert_eq!(buckets.len(), MARGIN_BUCKET_BOUNDS.len() + 1);
        let counts: Vec<f64> = buckets.iter().map(|s| s.value).collect();
        assert!(counts.windows(2).all(|w| w[0] <= w[1]), "{counts:?}");
        assert_eq!(buckets.last().unwrap().label("le"), Some("+Inf"));
        assert_eq!(buckets.last().unwrap().value, 3.0);
        // both 7s land cumulatively at the le="10" bound
        let ten = buckets
            .iter()
            .find(|s| s.label("le") == Some("10"))
            .unwrap();
        assert_eq!(ten.value, 2.0);
        let sum = samples
            .iter()
            .find(|s| s.name == "univsa_margin_sum")
            .unwrap();
        assert_eq!(sum.value, 104.0);
    }

    #[test]
    fn drift_counter_is_emitted_even_when_zero() {
        let samples = parse_text(&encode_text(&Snapshot::empty())).unwrap();
        let drift = samples
            .iter()
            .find(|s| s.name == "univsa_drift_events_total")
            .unwrap();
        assert_eq!(drift.value, 0.0);
    }

    #[test]
    fn hostile_task_and_class_labels_round_trip() {
        // label values exercising every escape the 0.0.4 text format
        // defines: backslash, double quote, and newline
        let task = "task\\with\"quotes\"\nand newline";
        let class = "cls\"0\\end\n";
        let mut snap = Snapshot::empty();
        snap.quality.task = Some(task.into());
        snap.quality.predictions.insert(class.into(), 4);
        snap.quality.margins.record(11);
        let text = encode_text(&snap);
        assert!(text.contains("task\\\\with\\\"quotes\\\"\\nand newline"));
        let samples = parse_text(&text).unwrap();
        let pred = samples
            .iter()
            .find(|s| s.name == "univsa_predictions_total")
            .unwrap();
        assert_eq!(pred.label("task"), Some(task));
        assert_eq!(pred.label("class"), Some(class));
        let margin_count = samples
            .iter()
            .find(|s| s.name == "univsa_margin_count")
            .unwrap();
        assert_eq!(margin_count.label("task"), Some(task));
        assert_eq!(margin_count.value, 1.0);
    }

    #[test]
    fn every_type_line_names_an_emitted_family() {
        let text = encode_text(&sample_snapshot());
        for line in text.lines().filter(|l| l.starts_with("# TYPE")) {
            let family = line.split_whitespace().nth(2).unwrap();
            assert!(
                text.lines()
                    .any(|l| !l.starts_with('#') && l.starts_with(family)),
                "family {family} declared but never emitted"
            );
        }
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(parse_text("metric_without_value").is_err());
        assert!(parse_text("bad name 1").is_err());
        assert!(parse_text("m{unterminated=\"x} 1").is_err());
        assert!(parse_text("m{k=\"v\"} notanumber").is_err());
        // special values parse
        let inf = parse_text("m +Inf").unwrap();
        assert!(inf[0].value.is_infinite());
    }
}
