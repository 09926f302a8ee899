//! The worker-side telemetry batch: what a fleet worker forwards to its
//! supervisor.
//!
//! A fleet worker accumulates spans, counters, allocation deltas and
//! prediction-quality stats in its own (process-local) registry and
//! periodically drains them into a [`WorkerBatch`]. The batch travels
//! back to the supervisor inside one IPC message; its byte codec lives
//! with that message in `univsa-dist`, which builds on the `univsa`
//! codec this crate sits below.
//!
//! Timestamps in a batch are nanoseconds since the *worker's* registry
//! epoch; the supervisor aligns them onto its own timeline using the
//! clock offset it estimated during the ping/pong handshake (see the
//! dist crate's supervisor).

use crate::quality::QualityStats;

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_batch_knows_it_is_empty() {
        assert!(WorkerBatch::default().is_empty());
        let counters = WorkerBatch {
            counters: vec![("jobs".into(), 3)],
            ..WorkerBatch::default()
        };
        assert!(!counters.is_empty());
        let mem_only = WorkerBatch {
            alloc_count: 1,
            ..WorkerBatch::default()
        };
        assert!(!mem_only.is_empty());
        let mut quality_only = WorkerBatch::default();
        quality_only.quality.record_prediction(0, 1);
        assert!(!quality_only.is_empty());
    }
}
