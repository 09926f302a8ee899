//! Point-in-time registry snapshots and their JSON rendering — the body
//! the live exporter serves at `/snapshot.json` and the wire format
//! `univsa top` polls.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::histogram::Histogram;
use crate::mem::MemStats;
use crate::quality::QualityStats;
use crate::registry::{write_json_string, MemAgg};

/// Schema identifier embedded in every snapshot JSON document, bumped on
/// breaking layout changes so pollers can refuse mismatched servers.
/// v2 added the `quality` section (margin sketch, per-class prediction
/// counts, confusion/calibration).
pub const SNAPSHOT_SCHEMA: &str = "univsa-metrics/v2";

/// A consistent point-in-time copy of a registry's aggregates, taken
/// under one lock acquisition by [`crate::Registry::snapshot`]. All maps
/// are `BTreeMap`s, so iteration (and the JSON rendering) is
/// deterministic.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Nanoseconds since the registry was created.
    pub uptime_ns: u64,
    /// The process-global allocation ledger, sampled with the aggregates.
    pub mem: MemStats,
    /// All monotonic counters, including the fleet's `worker.<slot>.*`
    /// and `fleet.*` rollups.
    pub counters: BTreeMap<String, u64>,
    /// All latency histograms, keyed `layer.name`.
    pub histograms: BTreeMap<String, Histogram>,
    /// Per-span allocation aggregates (empty unless memory tracking was
    /// on while spans closed).
    pub mem_aggregates: BTreeMap<String, MemAgg>,
    /// Prediction-quality aggregates (margin sketch, per-class counts,
    /// confusion), including fleet-merged worker contributions.
    pub quality: QualityStats,
}

impl Snapshot {
    /// An empty snapshot (what a just-created registry would return).
    pub fn empty() -> Self {
        Self {
            uptime_ns: 0,
            mem: MemStats::default(),
            counters: BTreeMap::new(),
            histograms: BTreeMap::new(),
            mem_aggregates: BTreeMap::new(),
            quality: QualityStats::default(),
        }
    }

    /// Renders the snapshot as one JSON document (schema
    /// [`SNAPSHOT_SCHEMA`]). Histograms carry exact count/sum/min/max,
    /// the bucket-resolution p50/p90/p99 estimates, and the raw
    /// per-bucket counts (overflow last) so pollers can compute their own
    /// delta percentiles via [`Histogram::merge`]-style arithmetic.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        let _ = write!(
            out,
            "{{\"schema\":\"{SNAPSHOT_SCHEMA}\",\"uptime_ns\":{},",
            self.uptime_ns
        );
        let _ = write!(
            out,
            "\"mem\":{{\"live_bytes\":{},\"peak_bytes\":{},\"alloc_count\":{},\"dealloc_count\":{}}},",
            self.mem.live_bytes, self.mem.peak_bytes, self.mem.alloc_count, self.mem.dealloc_count
        );
        out.push_str("\"counters\":{");
        for (i, (name, value)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, name);
            let _ = write!(out, ":{value}");
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, name);
            let _ = write!(
                out,
                ":{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":{},\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{},\"buckets\":[",
                h.count(),
                h.sum_ns(),
                h.min_ns().unwrap_or(0),
                h.max_ns().unwrap_or(0),
                h.mean_ns() as u64,
                h.percentile_ns(0.5).unwrap_or(0),
                h.percentile_ns(0.9).unwrap_or(0),
                h.percentile_ns(0.99).unwrap_or(0),
            );
            for (j, c) in h.bucket_counts().iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{c}");
            }
            out.push_str("]}");
        }
        out.push_str("},\"mem_spans\":{");
        for (i, (name, agg)) in self.mem_aggregates.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, name);
            let _ = write!(
                out,
                ":{{\"spans\":{},\"net_bytes\":{},\"alloc_count\":{},\"max_peak_bytes\":{}}}",
                agg.spans, agg.net_bytes, agg.alloc_count, agg.max_peak_bytes
            );
        }
        out.push_str("},\"quality\":{\"task\":");
        match &self.quality.task {
            Some(task) => write_json_string(&mut out, task),
            None => out.push_str("null"),
        }
        let m = &self.quality.margins;
        let _ = write!(
            out,
            ",\"margin\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"buckets\":[",
            m.count(),
            m.sum(),
            m.min().unwrap_or(0),
            m.max().unwrap_or(0),
            m.mean() as u64,
            m.quantile(0.5).unwrap_or(0),
            m.quantile(0.9).unwrap_or(0),
            m.quantile(0.99).unwrap_or(0),
        );
        for (j, c) in m.bucket_counts().iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            let _ = write!(out, "{c}");
        }
        out.push_str("]},\"predictions\":{");
        for (i, (class, n)) in self.quality.predictions.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_string(&mut out, class);
            let _ = write!(out, ":{n}");
        }
        let c = &self.quality.confusion;
        let _ = write!(
            out,
            "}},\"confusion\":{{\"labeled\":{},\"correct\":{},\"accuracy\":",
            c.labeled(),
            c.correct()
        );
        match c.accuracy() {
            Some(acc) => {
                let _ = write!(out, "{acc}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"calibration_gap\":");
        match c.calibration_gap() {
            Some(gap) => {
                let _ = write!(out, "{gap}");
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"pairs\":[");
        for (i, (&(truth, predicted), &n)) in c.pairs().iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(out, "[{truth},{predicted},{n}]");
        }
        out.push_str("]}}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_snapshot_renders_schema_and_empty_maps() {
        let json = Snapshot::empty().to_json();
        assert!(json.contains("\"schema\":\"univsa-metrics/v2\""), "{json}");
        assert!(json.contains("\"counters\":{}"), "{json}");
        assert!(json.contains("\"histograms\":{}"), "{json}");
        assert!(json.contains("\"mem_spans\":{}"), "{json}");
        assert!(json.contains("\"quality\":{\"task\":null"), "{json}");
        assert!(json.contains("\"predictions\":{}"), "{json}");
        assert!(json.contains("\"accuracy\":null"), "{json}");
    }

    #[test]
    fn quality_section_renders_sketch_predictions_and_confusion() {
        let mut snap = Snapshot::empty();
        snap.quality.task = Some("har".into());
        snap.quality.record_prediction(1, 40);
        snap.quality.record_prediction(1, 60);
        snap.quality.record_prediction(0, 0);
        snap.quality.record_outcome(1, 1, 40);
        snap.quality.record_outcome(0, 1, 60);
        let json = snap.to_json();
        assert!(json.contains("\"task\":\"har\""), "{json}");
        assert!(
            json.contains("\"margin\":{\"count\":3,\"sum\":100"),
            "{json}"
        );
        assert!(json.contains("\"predictions\":{\"0\":1,\"1\":2}"), "{json}");
        assert!(json.contains("\"labeled\":2,\"correct\":1"), "{json}");
        assert!(json.contains("\"accuracy\":0.5"), "{json}");
        assert!(json.contains("[0,1,1]"), "{json}");
        // 18 margin bucket entries: 17 bounds + overflow
        let buckets = json
            .split("\"margin\":")
            .nth(1)
            .unwrap()
            .split("\"buckets\":[")
            .nth(1)
            .unwrap();
        let list = &buckets[..buckets.find(']').unwrap()];
        assert_eq!(list.split(',').count(), crate::MARGIN_BUCKETS);
    }

    #[test]
    fn snapshot_json_carries_counters_and_histogram_stats() {
        let mut snap = Snapshot::empty();
        snap.uptime_ns = 42;
        snap.counters.insert("fleet.jobs".into(), 9);
        let mut h = Histogram::new();
        h.record(1_500);
        h.record(7_000);
        snap.histograms.insert("train.epoch".into(), h);
        snap.mem_aggregates.insert(
            "train.epoch".into(),
            MemAgg {
                spans: 2,
                net_bytes: -64,
                alloc_count: 5,
                max_peak_bytes: 4096,
            },
        );
        let json = snap.to_json();
        assert!(json.contains("\"uptime_ns\":42"), "{json}");
        assert!(json.contains("\"fleet.jobs\":9"), "{json}");
        assert!(json.contains("\"count\":2"), "{json}");
        assert!(json.contains("\"sum_ns\":8500"), "{json}");
        assert!(json.contains("\"min_ns\":1500"), "{json}");
        assert!(json.contains("\"max_ns\":7000"), "{json}");
        assert!(json.contains("\"net_bytes\":-64"), "{json}");
        // 25 bucket entries: 24 bounds + overflow
        let buckets = json.split("\"buckets\":[").nth(1).unwrap();
        let list = &buckets[..buckets.find(']').unwrap()];
        assert_eq!(list.split(',').count(), crate::BUCKET_BOUNDS_NS.len() + 1);
    }

    #[test]
    fn snapshot_json_is_deterministic() {
        let mut a = Snapshot::empty();
        a.counters.insert("zulu".into(), 1);
        a.counters.insert("alpha".into(), 2);
        let mut b = Snapshot::empty();
        b.counters.insert("alpha".into(), 2);
        b.counters.insert("zulu".into(), 1);
        assert_eq!(a.to_json(), b.to_json());
        let alpha = a.to_json().find("alpha").unwrap();
        let zulu = a.to_json().find("zulu").unwrap();
        assert!(alpha < zulu, "keys render sorted");
    }
}
