//! Compact binary codec for worker-side telemetry batches.
//!
//! A fleet worker accumulates spans, counters, and allocation deltas in
//! its own (process-local) registry and periodically drains them into a
//! [`WorkerBatch`], which travels back to the supervisor as an opaque
//! byte string inside one IPC message. The codec mirrors the dist
//! crate's framing discipline: fixed-width little-endian fields,
//! `u32`-length-prefixed strings, and a **total** decoder — every
//! malformed input maps to `Err(String)`, never a panic or an oversized
//! allocation — because the batch crosses the same untrusted pipe the
//! chaos harness corrupts.
//!
//! Timestamps in a batch are nanoseconds since the *worker's* registry
//! epoch; the supervisor aligns them onto its own timeline using the
//! clock offset it estimated during the ping/pong handshake (see the
//! dist crate's supervisor).

use crate::quality::{CalibrationBin, QualityStats};

/// Codec version stamped on every encoded batch. The supervisor and its
/// workers are the same binary, so a decoder only ever meets its own
/// version.
const VERSION: u8 = 2;

/// One completed span captured inside a worker process.
///
/// Ids (and parent ids) are only unique within the worker's own
/// registry; the supervisor re-maps them into its id space when
/// absorbing the batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkerSpan {
    /// Span id in the worker's id space.
    pub id: u64,
    /// Causal parent in the worker's id space, if any.
    pub parent: Option<u64>,
    /// Lane label the span was recorded on (usually `main`).
    pub lane: String,
    /// Layer label (`worker`, `infer`, …).
    pub layer: String,
    /// Span name within the layer.
    pub name: String,
    /// Nanoseconds since the worker's registry epoch at span start.
    pub start_ns: u64,
    /// Span duration in nanoseconds.
    pub dur_ns: u64,
}

/// Everything a worker forwards in one flush: spans, counters, and
/// allocation statistics since the previous flush.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerBatch {
    /// Nanoseconds since the worker's registry epoch when the batch was
    /// drained (lets the supervisor sanity-check its offset estimate).
    pub clock_ns: u64,
    /// Events the worker's flight recorder dropped after filling up.
    pub dropped: u64,
    /// Net heap bytes (allocated − freed) since the previous flush.
    pub net_bytes: i64,
    /// Allocations made since the previous flush.
    pub alloc_count: u64,
    /// The worker process's peak live heap bytes so far (absolute, not
    /// a delta — the supervisor folds it in with `max`).
    pub peak_bytes: u64,
    /// Counter deltas accumulated since the previous flush.
    pub counters: Vec<(String, u64)>,
    /// Spans completed since the previous flush.
    pub spans: Vec<WorkerSpan>,
    /// Prediction-quality stats accumulated since the previous flush.
    pub quality: QualityStats,
}

impl WorkerBatch {
    /// Whether the batch carries any information worth shipping.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
            && self.spans.is_empty()
            && self.dropped == 0
            && self.net_bytes == 0
            && self.alloc_count == 0
            && self.peak_bytes == 0
            && self.quality.is_empty()
    }

    /// Serializes the batch into its compact binary form.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.counters.len() * 24 + self.spans.len() * 64);
        out.push(VERSION);
        out.extend_from_slice(&self.clock_ns.to_le_bytes());
        out.extend_from_slice(&self.dropped.to_le_bytes());
        out.extend_from_slice(&self.net_bytes.to_le_bytes());
        out.extend_from_slice(&self.alloc_count.to_le_bytes());
        out.extend_from_slice(&self.peak_bytes.to_le_bytes());
        out.extend_from_slice(&(self.counters.len() as u32).to_le_bytes());
        for (name, value) in &self.counters {
            put_str(&mut out, name);
            out.extend_from_slice(&value.to_le_bytes());
        }
        out.extend_from_slice(&(self.spans.len() as u32).to_le_bytes());
        for span in &self.spans {
            out.extend_from_slice(&span.id.to_le_bytes());
            match span.parent {
                Some(parent) => {
                    out.push(1);
                    out.extend_from_slice(&parent.to_le_bytes());
                }
                None => out.push(0),
            }
            put_str(&mut out, &span.lane);
            put_str(&mut out, &span.layer);
            put_str(&mut out, &span.name);
            out.extend_from_slice(&span.start_ns.to_le_bytes());
            out.extend_from_slice(&span.dur_ns.to_le_bytes());
        }
        // quality section
        let q = &self.quality;
        match &q.task {
            Some(task) => {
                out.push(1);
                put_str(&mut out, task);
            }
            None => out.push(0),
        }
        out.extend_from_slice(&q.margins.count.to_le_bytes());
        out.extend_from_slice(&q.margins.sum.to_le_bytes());
        out.extend_from_slice(&q.margins.min.to_le_bytes());
        out.extend_from_slice(&q.margins.max.to_le_bytes());
        for c in &q.margins.counts {
            out.extend_from_slice(&c.to_le_bytes());
        }
        out.extend_from_slice(&(q.predictions.len() as u32).to_le_bytes());
        for (class, n) in &q.predictions {
            put_str(&mut out, class);
            out.extend_from_slice(&n.to_le_bytes());
        }
        out.extend_from_slice(&q.confusion.labeled.to_le_bytes());
        out.extend_from_slice(&q.confusion.correct.to_le_bytes());
        for bin in &q.confusion.bins {
            out.extend_from_slice(&bin.total.to_le_bytes());
            out.extend_from_slice(&bin.correct.to_le_bytes());
        }
        out.extend_from_slice(&(q.confusion.pairs.len() as u32).to_le_bytes());
        for (&(truth, predicted), &n) in &q.confusion.pairs {
            out.extend_from_slice(&truth.to_le_bytes());
            out.extend_from_slice(&predicted.to_le_bytes());
            out.extend_from_slice(&n.to_le_bytes());
        }
        out
    }

    /// Deserializes a batch.
    ///
    /// # Errors
    ///
    /// A human-readable message for any malformed input: wrong version,
    /// truncated field, element count exceeding the remaining bytes
    /// (rejected *before* allocating), invalid UTF-8, or trailing
    /// garbage.
    pub fn decode(bytes: &[u8]) -> Result<WorkerBatch, String> {
        let mut r = Reader { bytes, pos: 0 };
        let version = r.u8()?;
        if version != VERSION {
            return Err(format!("unsupported telemetry batch version {version}"));
        }
        let clock_ns = r.u64()?;
        let dropped = r.u64()?;
        let net_bytes = r.i64()?;
        let alloc_count = r.u64()?;
        let peak_bytes = r.u64()?;
        // smallest possible encodings: an empty-named counter is 4+8
        // bytes, a parentless span with three empty strings is
        // 8+1+4+4+4+8+8 bytes
        let n_counters = r.count("counters", 12)?;
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            let name = r.string("counter name")?;
            counters.push((name, r.u64()?));
        }
        let n_spans = r.count("spans", 37)?;
        let mut spans = Vec::with_capacity(n_spans);
        for _ in 0..n_spans {
            let id = r.u64()?;
            let parent = match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                other => return Err(format!("invalid parent flag {other}")),
            };
            spans.push(WorkerSpan {
                id,
                parent,
                lane: r.string("span lane")?,
                layer: r.string("span layer")?,
                name: r.string("span name")?,
                start_ns: r.u64()?,
                dur_ns: r.u64()?,
            });
        }
        let task = match r.u8()? {
            0 => None,
            1 => Some(r.string("quality task")?),
            other => return Err(format!("invalid quality task flag {other}")),
        };
        let mut margins = crate::quality::MarginSketch::new();
        margins.count = r.u64()?;
        margins.sum = r.u128()?;
        margins.min = r.u64()?;
        margins.max = r.u64()?;
        for c in margins.counts.iter_mut() {
            *c = r.u64()?;
        }
        let n_classes = r.count("quality classes", 12)?;
        let mut predictions = std::collections::BTreeMap::new();
        for _ in 0..n_classes {
            let class = r.string("quality class")?;
            predictions.insert(class, r.u64()?);
        }
        let mut confusion = crate::quality::Confusion::new();
        confusion.labeled = r.u64()?;
        confusion.correct = r.u64()?;
        for bin in confusion.bins.iter_mut() {
            *bin = CalibrationBin {
                total: r.u64()?,
                correct: r.u64()?,
            };
        }
        let n_pairs = r.count("confusion pairs", 16)?;
        for _ in 0..n_pairs {
            let truth = r.u32()?;
            let predicted = r.u32()?;
            confusion.pairs.insert((truth, predicted), r.u64()?);
        }
        let quality = QualityStats {
            task,
            margins,
            predictions,
            confusion,
        };
        if r.pos != r.bytes.len() {
            return Err(format!(
                "{} trailing bytes after telemetry batch",
                r.bytes.len() - r.pos
            ));
        }
        Ok(WorkerBatch {
            clock_ns,
            dropped,
            net_bytes,
            alloc_count,
            peak_bytes,
            counters,
            spans,
            quality,
        })
    }
}

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn take(&mut self, n: usize) -> Result<&[u8], String> {
        if self.bytes.len() - self.pos < n {
            return Err(format!(
                "telemetry batch truncated: needed {n} bytes at offset {}, have {}",
                self.pos,
                self.bytes.len() - self.pos
            ));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    fn u128(&mut self) -> Result<u128, String> {
        Ok(u128::from_le_bytes(
            self.take(16)?.try_into().expect("16 bytes"),
        ))
    }

    fn i64(&mut self) -> Result<i64, String> {
        Ok(i64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads an element count and rejects it if even minimally-sized
    /// elements could not fit in the remaining bytes — so a corrupted
    /// count cannot drive a huge `Vec::with_capacity`.
    fn count(&mut self, what: &str, min_element_bytes: usize) -> Result<usize, String> {
        let n = self.u32()? as usize;
        let remaining = self.bytes.len() - self.pos;
        if n.saturating_mul(min_element_bytes) > remaining {
            return Err(format!(
                "telemetry batch claims {n} {what} but only {remaining} bytes remain"
            ));
        }
        Ok(n)
    }

    fn string(&mut self, what: &str) -> Result<String, String> {
        let len = self.u32()? as usize;
        let raw = self.take(len)?.to_vec();
        String::from_utf8(raw).map_err(|_| format!("{what} field is not valid UTF-8"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn example() -> WorkerBatch {
        WorkerBatch {
            clock_ns: 123_456_789,
            dropped: 2,
            net_bytes: -4096,
            alloc_count: 17,
            peak_bytes: 1 << 20,
            counters: vec![("jobs".into(), 3), ("busy_ns".into(), 9_999)],
            spans: vec![
                WorkerSpan {
                    id: 1,
                    parent: None,
                    lane: "main".into(),
                    layer: "worker".into(),
                    name: "task".into(),
                    start_ns: 10,
                    dur_ns: 500,
                },
                WorkerSpan {
                    id: 2,
                    parent: Some(1),
                    lane: "main".into(),
                    layer: "infer".into(),
                    name: "encoding".into(),
                    start_ns: 20,
                    dur_ns: 100,
                },
            ],
            quality: {
                let mut q = QualityStats {
                    task: Some("bci3v".into()),
                    ..QualityStats::default()
                };
                q.record_prediction(0, 12);
                q.record_prediction(2, 0);
                q.record_prediction(2, 70_000);
                q.record_outcome(2, 2, 70_000);
                q.record_outcome(1, 2, 0);
                q
            },
        }
    }

    #[test]
    fn batches_round_trip() {
        for batch in [WorkerBatch::default(), example()] {
            assert_eq!(WorkerBatch::decode(&batch.encode()).unwrap(), batch);
        }
    }

    #[test]
    fn empty_batch_knows_it_is_empty() {
        assert!(WorkerBatch::default().is_empty());
        assert!(!example().is_empty());
        let mem_only = WorkerBatch {
            alloc_count: 1,
            ..WorkerBatch::default()
        };
        assert!(!mem_only.is_empty());
    }

    #[test]
    fn every_truncation_is_an_error() {
        let full = example().encode();
        for cut in 0..full.len() {
            assert!(
                WorkerBatch::decode(&full[..cut]).is_err(),
                "cut to {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = example().encode();
        bytes.push(0);
        let err = WorkerBatch::decode(&bytes).unwrap_err();
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = example().encode();
        bytes[0] = 99;
        let err = WorkerBatch::decode(&bytes).unwrap_err();
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        // header + a counter count of u32::MAX and nothing else
        let mut bytes = vec![VERSION];
        bytes.extend_from_slice(&[0u8; 40]); // clock/dropped/net/alloc/peak
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = WorkerBatch::decode(&bytes).unwrap_err();
        assert!(err.contains("bytes remain"), "{err}");
    }

    #[test]
    fn invalid_parent_flag_is_rejected() {
        let batch = WorkerBatch {
            spans: vec![WorkerSpan {
                id: 1,
                parent: None,
                lane: String::new(),
                layer: String::new(),
                name: String::new(),
                start_ns: 0,
                dur_ns: 0,
            }],
            ..WorkerBatch::default()
        };
        let mut bytes = batch.encode();
        // the parent flag sits after the 41-byte header, the (empty)
        // counter section's count, the span count, and the span id
        let flag_pos = 41 + 4 + 4 + 8;
        assert_eq!(bytes[flag_pos], 0);
        bytes[flag_pos] = 7;
        let err = WorkerBatch::decode(&bytes).unwrap_err();
        assert!(err.contains("parent flag"), "{err}");
    }

    #[test]
    fn other_versions_are_rejected() {
        let mut bytes = example().encode();
        for version in [0, 1, VERSION + 1] {
            bytes[0] = version;
            let err = WorkerBatch::decode(&bytes).unwrap_err();
            assert!(err.contains("unsupported telemetry batch version"), "{err}");
        }
    }

    #[test]
    fn quality_section_round_trips_exactly() {
        let batch = example();
        let decoded = WorkerBatch::decode(&batch.encode()).unwrap();
        assert_eq!(decoded.quality, batch.quality);
        assert_eq!(decoded.quality.task.as_deref(), Some("bci3v"));
        assert_eq!(decoded.quality.margins.count(), 3);
        assert_eq!(decoded.quality.confusion.labeled(), 2);
        assert_eq!(decoded.quality.confusion.pairs()[&(1, 2)], 1);
    }

    #[test]
    fn invalid_quality_task_flag_is_rejected() {
        let batch = WorkerBatch::default();
        let mut bytes = batch.encode();
        // the task flag is the first byte of the quality section, right
        // after the header and the two (empty) counter/span counts
        let flag_pos = 41 + 4 + 4;
        assert_eq!(bytes[flag_pos], 0);
        bytes[flag_pos] = 9;
        let err = WorkerBatch::decode(&bytes).unwrap_err();
        assert!(err.contains("task flag"), "{err}");
    }
}
