//! The byte codec for forwarded worker telemetry.
//!
//! A worker drains its registry into a [`WorkerBatch`] and ships it as
//! the opaque `batch` of a [`Message::Telemetry`](crate::Message). The
//! batch format is fixed-width little-endian fields, `u32` element
//! counts and `u32`-length-prefixed strings, written and read with the
//! shared [`univsa::codec`]. The decoder is total — every malformed input
//! maps to [`UniVsaError::Ipc`], never a panic or an oversized allocation
//! — because the batch crosses the same untrusted pipe the chaos harness
//! corrupts. It also rejects a quality section no recorder could have
//! produced (see [`MarginSketch::from_parts`] and
//! [`Confusion::from_parts`]).

use std::collections::BTreeMap;

use univsa::codec::{Reader, Writer};
use univsa::UniVsaError;
use univsa_telemetry::{
    CalibrationBin, Confusion, MarginSketch, QualityStats, WorkerBatch, WorkerSpan, MARGIN_BUCKETS,
};

use crate::proto::{decode_payload, encode_payload};

/// Codec version stamped on every encoded batch. The supervisor and its
/// workers are the same binary, so a decoder only ever meets its own
/// version.
const VERSION: u8 = 2;

// Smallest possible element encodings, for the count guards: a counter
// or prediction class with an empty name is 4+8 bytes, a parentless span
// with three empty strings 8+1+4+4+4+8+8, a confusion pair 4+4+8.
const MIN_COUNTER: usize = 12;
const MIN_SPAN: usize = 37;
const MIN_PAIR: usize = 16;

/// Serializes a worker batch.
///
/// # Errors
///
/// [`UniVsaError::Ipc`] if a string or element count does not fit its
/// `u32` field.
pub fn encode_worker_batch(batch: &WorkerBatch) -> Result<Vec<u8>, UniVsaError> {
    encode_payload(|w| {
        w.u8(VERSION);
        w.u64(batch.clock_ns);
        w.u64(batch.dropped);
        w.i64(batch.net_bytes);
        w.u64(batch.alloc_count);
        w.u64(batch.peak_bytes);
        w.len(batch.counters.len(), "counters")?;
        for (name, value) in &batch.counters {
            w.str(name, "counter name")?;
            w.u64(*value);
        }
        w.len(batch.spans.len(), "spans")?;
        for span in &batch.spans {
            w.u64(span.id);
            match span.parent {
                Some(parent) => {
                    w.u8(1);
                    w.u64(parent);
                }
                None => w.u8(0),
            }
            w.str(&span.lane, "span lane")?;
            w.str(&span.layer, "span layer")?;
            w.str(&span.name, "span name")?;
            w.u64(span.start_ns);
            w.u64(span.dur_ns);
        }
        write_quality(w, &batch.quality)
    })
}

fn write_quality(w: &mut Writer, q: &QualityStats) -> Result<(), UniVsaError> {
    match &q.task {
        Some(task) => {
            w.u8(1);
            w.str(task, "quality task")?;
        }
        None => w.u8(0),
    }
    let m = &q.margins;
    w.u64(m.count());
    w.u128(m.sum());
    w.u64(m.min().unwrap_or(u64::MAX));
    w.u64(m.max().unwrap_or(0));
    for &c in m.bucket_counts() {
        w.u64(c);
    }
    w.len(q.predictions.len(), "quality classes")?;
    for (class, n) in &q.predictions {
        w.str(class, "quality class")?;
        w.u64(*n);
    }
    let c = &q.confusion;
    w.u64(c.labeled());
    w.u64(c.correct());
    for bin in c.bins() {
        w.u64(bin.total);
        w.u64(bin.correct);
    }
    w.len(c.pairs().len(), "confusion pairs")?;
    for (&(truth, predicted), &n) in c.pairs() {
        w.u32(truth);
        w.u32(predicted);
        w.u64(n);
    }
    Ok(())
}

/// An optional field: flag byte `0`, or flag `1` and the value; `what`
/// names the flag in errors.
fn read_flagged<'a, T>(
    r: &mut Reader<'a>,
    what: &str,
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, UniVsaError>,
) -> Result<Option<T>, UniVsaError> {
    match r.u8()? {
        0 => Ok(None),
        1 => read(r).map(Some),
        other => Err(UniVsaError::Ipc(format!("invalid {what} flag {other}"))),
    }
}

/// Deserializes a worker batch.
///
/// # Errors
///
/// [`UniVsaError::Ipc`] for any malformed input: wrong version,
/// truncated field, element count exceeding the remaining bytes
/// (rejected *before* allocating), invalid UTF-8, an inconsistent
/// quality section, or trailing garbage.
pub fn decode_worker_batch(bytes: &[u8]) -> Result<WorkerBatch, UniVsaError> {
    decode_payload(bytes, |r| {
        let version = r.u8()?;
        if version != VERSION {
            return Err(UniVsaError::Ipc(format!(
                "unsupported telemetry batch version {version}"
            )));
        }
        let clock_ns = r.u64()?;
        let dropped = r.u64()?;
        let net_bytes = r.i64()?;
        let alloc_count = r.u64()?;
        let peak_bytes = r.u64()?;
        let n_counters = r.count(MIN_COUNTER)?;
        let mut counters = Vec::with_capacity(n_counters);
        for _ in 0..n_counters {
            counters.push((r.string("counter name")?, r.u64()?));
        }
        let n_spans = r.count(MIN_SPAN)?;
        let mut spans = Vec::with_capacity(n_spans);
        for _ in 0..n_spans {
            spans.push(WorkerSpan {
                id: r.u64()?,
                parent: read_flagged(r, "parent", Reader::u64)?,
                lane: r.string("span lane")?,
                layer: r.string("span layer")?,
                name: r.string("span name")?,
                start_ns: r.u64()?,
                dur_ns: r.u64()?,
            });
        }
        Ok(WorkerBatch {
            clock_ns,
            dropped,
            net_bytes,
            alloc_count,
            peak_bytes,
            counters,
            spans,
            quality: read_quality(r)?,
        })
    })
}

fn read_quality(r: &mut Reader<'_>) -> Result<QualityStats, UniVsaError> {
    let task = read_flagged(r, "quality task", |r| r.string("quality task"))?;
    let (count, sum, min, max) = (r.u64()?, r.u128()?, r.u64()?, r.u64()?);
    let mut counts = [0; MARGIN_BUCKETS];
    for c in &mut counts {
        *c = r.u64()?;
    }
    let margins =
        MarginSketch::from_parts(counts, count, sum, min, max).map_err(UniVsaError::Ipc)?;
    let n_classes = r.count(MIN_COUNTER)?;
    let mut predictions = BTreeMap::new();
    for _ in 0..n_classes {
        predictions.insert(r.string("quality class")?, r.u64()?);
    }
    let (labeled, correct) = (r.u64()?, r.u64()?);
    let mut bins = [CalibrationBin::default(); MARGIN_BUCKETS];
    for bin in &mut bins {
        *bin = CalibrationBin {
            total: r.u64()?,
            correct: r.u64()?,
        };
    }
    let n_pairs = r.count(MIN_PAIR)?;
    let mut pairs = BTreeMap::new();
    for _ in 0..n_pairs {
        pairs.insert((r.u32()?, r.u32()?), r.u64()?);
    }
    let confusion =
        Confusion::from_parts(labeled, correct, bins, pairs).map_err(UniVsaError::Ipc)?;
    Ok(QualityStats {
        task,
        margins,
        predictions,
        confusion,
    })
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

    fn encode(batch: &WorkerBatch) -> Vec<u8> {
        encode_worker_batch(batch).unwrap()
    }

    fn decode_err(bytes: &[u8]) -> String {
        match decode_worker_batch(bytes) {
            Err(UniVsaError::Ipc(m)) => m,
            other => panic!("expected an IPC error, got {other:?}"),
        }
    }

    #[test]
    fn batches_round_trip() {
        for batch in [WorkerBatch::default(), example()] {
            assert_eq!(decode_worker_batch(&encode(&batch)).unwrap(), batch);
        }
    }

    #[test]
    fn every_truncation_is_an_error() {
        let full = encode(&example());
        for cut in 0..full.len() {
            decode_err(&full[..cut]);
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = encode(&example());
        bytes.push(0);
        let err = decode_err(&bytes);
        assert!(err.contains("trailing"), "{err}");
    }

    #[test]
    fn wrong_version_is_rejected() {
        let mut bytes = encode(&example());
        bytes[0] = 99;
        let err = decode_err(&bytes);
        assert!(err.contains("version"), "{err}");
    }

    #[test]
    fn absurd_counts_are_rejected_before_allocating() {
        // header + a counter count of u32::MAX and nothing else
        let mut bytes = vec![VERSION];
        bytes.extend_from_slice(&[0u8; 40]); // clock/dropped/net/alloc/peak
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        let err = decode_err(&bytes);
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
        let mut bytes = encode(&batch);
        // the parent flag sits after the 41-byte header, the (empty)
        // counter section's count, the span count, and the span id
        let flag_pos = 41 + 4 + 4 + 8;
        assert_eq!(bytes[flag_pos], 0);
        bytes[flag_pos] = 7;
        let err = decode_err(&bytes);
        assert!(err.contains("parent flag"), "{err}");
    }

    #[test]
    fn other_versions_are_rejected() {
        let mut bytes = encode(&example());
        for version in [0, 1, VERSION + 1] {
            bytes[0] = version;
            let err = decode_err(&bytes);
            assert!(err.contains("unsupported telemetry batch version"), "{err}");
        }
    }

    #[test]
    fn quality_section_round_trips_exactly() {
        let batch = example();
        let decoded = decode_worker_batch(&encode(&batch)).unwrap();
        assert_eq!(decoded.quality, batch.quality);
        assert_eq!(decoded.quality.task.as_deref(), Some("bci3v"));
        assert_eq!(decoded.quality.margins.count(), 3);
        assert_eq!(decoded.quality.confusion.labeled(), 2);
        assert_eq!(decoded.quality.confusion.pairs()[&(1, 2)], 1);
    }

    #[test]
    fn invalid_quality_task_flag_is_rejected() {
        let mut bytes = encode(&WorkerBatch::default());
        // the task flag is the first byte of the quality section, right
        // after the header and the two (empty) counter/span counts
        let flag_pos = 41 + 4 + 4;
        assert_eq!(bytes[flag_pos], 0);
        bytes[flag_pos] = 9;
        let err = decode_err(&bytes);
        assert!(err.contains("task flag"), "{err}");
    }

    #[test]
    fn inconsistent_quality_sections_are_rejected() {
        // the margin count follows the empty quality task flag; bumping
        // it breaks the sum of the (all-zero) bucket counts
        let mut bytes = encode(&WorkerBatch::default());
        let count_pos = 41 + 4 + 4 + 1;
        bytes[count_pos] = 1;
        let err = decode_err(&bytes);
        assert!(err.contains("margin buckets"), "{err}");

        // the confusion `labeled` field follows the margin sketch and the
        // (empty) prediction-class count
        let mut bytes = encode(&WorkerBatch::default());
        let labeled_pos = count_pos + 8 + 16 + 8 + 8 + 8 * MARGIN_BUCKETS + 4;
        bytes[labeled_pos] = 1;
        let err = decode_err(&bytes);
        assert!(err.contains("calibration bins"), "{err}");
    }
}
