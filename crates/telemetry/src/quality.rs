//! Prediction-quality streaming structures: a mergeable fixed-bucket
//! margin sketch, an online confusion/calibration accumulator, and a
//! windowed drift detector.
//!
//! In a binary VSA the native quality signal is the *similarity margin* —
//! the gap between the winning and runner-up class similarity totals. The
//! structures here observe that signal (and the predicted class stream)
//! with the same discipline as the latency histograms: fixed compile-time
//! bucket layouts so merging is index-wise addition, exact integer
//! side-stats, `BTreeMap` keying so every rendering is deterministic, and
//! no dependencies. Sketches recorded on fleet workers travel inside a
//! [`crate::WorkerBatch`] (its byte codec lives in `univsa-dist`, which
//! rebuilds them through the validating `from_parts` constructors) and
//! merge supervisor-side exactly like counters; the merged result is
//! what `/snapshot.json` and `/metrics` serve.
//!
//! The [`DriftDetector`] is deliberately *not* part of the global
//! registry: divergence between a reference window and the current window
//! is order-sensitive, so the detector is owned by whoever can feed it
//! predictions in sample order (the `univsa quality` CLI, perf_baseline).
//! Its threshold is derived deterministically from a seed, so a drift
//! event fires at the same sample index on every thread count and fleet
//! width.

use std::collections::BTreeMap;

/// Upper bucket bounds (inclusive) for similarity margins, in raw
/// similarity units (the same integer scale as the voter-summed class
/// totals), covering 0 … 10⁵ in a 1-2-5 progression; larger margins land
/// in the overflow bucket. A dedicated `0` bucket keeps exact ties
/// distinguishable from near-ties.
pub const MARGIN_BUCKET_BOUNDS: [u64; 17] = [
    0, 1, 2, 5, 10, 20, 50, 100, 200, 500, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
];

/// Number of buckets in every margin sketch (bounds plus overflow).
pub const MARGIN_BUCKETS: usize = MARGIN_BUCKET_BOUNDS.len() + 1;

/// A mergeable fixed-bucket quantile sketch of similarity margins.
/// Mirrors [`crate::Histogram`]: every sketch shares the
/// [`MARGIN_BUCKET_BOUNDS`] layout, so merging is index-wise addition and
/// is associative and commutative; exact `count`/`sum`/`min`/`max` ride
/// alongside so means stay precise while quantiles are bucket-resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MarginSketch {
    pub(crate) counts: [u64; MARGIN_BUCKETS],
    pub(crate) count: u64,
    pub(crate) sum: u128,
    pub(crate) min: u64,
    pub(crate) max: u64,
}

impl Default for MarginSketch {
    fn default() -> Self {
        Self::new()
    }
}

impl MarginSketch {
    /// An empty sketch.
    pub fn new() -> Self {
        Self {
            counts: [0; MARGIN_BUCKETS],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Rebuilds a sketch from its raw parts, as a forwarded worker batch
    /// carries them (an empty sketch has min `u64::MAX`, max and sum 0).
    /// Parts no recorder could produce are an error: bucket counts that
    /// do not sum to `count`, or an empty sketch without its sentinels.
    pub fn from_parts(
        counts: [u64; MARGIN_BUCKETS],
        count: u64,
        sum: u128,
        min: u64,
        max: u64,
    ) -> Result<Self, String> {
        let bucketed: u128 = counts.iter().map(|&c| u128::from(c)).sum();
        if bucketed != u128::from(count) {
            return Err(format!(
                "margin buckets hold {bucketed} observations but the sketch counts {count}"
            ));
        }
        if count == 0 && (sum, min, max) != (0, u64::MAX, 0) {
            return Err(format!(
                "empty margin sketch carries sum {sum}, min {min}, max {max}"
            ));
        }
        Ok(Self {
            counts,
            count,
            sum,
            min,
            max,
        })
    }

    /// Index of the bucket a margin falls into (last index = overflow).
    pub fn bucket_index(margin: u64) -> usize {
        MARGIN_BUCKET_BOUNDS
            .iter()
            .position(|&bound| margin <= bound)
            .unwrap_or(MARGIN_BUCKET_BOUNDS.len())
    }

    /// Records one margin observation.
    pub fn record(&mut self, margin: u64) {
        self.counts[Self::bucket_index(margin)] += 1;
        self.count += 1;
        self.sum += u128::from(margin);
        self.min = self.min.min(margin);
        self.max = self.max.max(margin);
    }

    /// Total recorded observations.
    #[inline]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Per-bucket observation counts (overflow last).
    #[inline]
    pub fn bucket_counts(&self) -> &[u64] {
        &self.counts
    }

    /// Exact sum of all observed margins.
    #[inline]
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// Exact mean margin (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest observed margin (`None` when empty).
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Largest observed margin (`None` when empty).
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Merges another sketch into this one: buckets add index-wise,
    /// exact stats add, `min`/`max` fold. Merging an empty sketch is a
    /// no-op (the `u64::MAX` min sentinel folds away).
    pub fn merge(&mut self, other: &MarginSketch) {
        for (mine, theirs) in self.counts.iter_mut().zip(other.counts.iter()) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Bucket-resolution quantile estimate: the upper bound of the bucket
    /// holding the `q`-quantile observation, clamped to the exact max.
    /// `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        assert!((0.0..=1.0).contains(&q), "quantile {q} outside [0, 1]");
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let bound = MARGIN_BUCKET_BOUNDS.get(i).copied().unwrap_or(self.max);
                return Some(bound.min(self.max));
            }
        }
        Some(self.max)
    }
}

/// One calibration bin: predictions whose margin fell in this margin
/// bucket, and how many of them were correct.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CalibrationBin {
    /// Labelled predictions in this margin bucket.
    pub total: u64,
    /// Correct predictions in this margin bucket.
    pub correct: u64,
}

/// Online per-class confusion and ECE-style calibration accumulator, fed
/// only when true labels are available. Confusion pairs are keyed
/// `(true, predicted)`; calibration bins share the margin sketch's bucket
/// layout, so "is a big margin actually more trustworthy?" is answerable
/// from the same stream.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Confusion {
    pub(crate) labeled: u64,
    pub(crate) correct: u64,
    pub(crate) pairs: BTreeMap<(u32, u32), u64>,
    pub(crate) bins: [CalibrationBin; MARGIN_BUCKETS],
}

impl Confusion {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Rebuilds an accumulator from its raw parts, as a forwarded worker
    /// batch carries them. Parts no recorder could produce are an error:
    /// `correct > labeled`, or bin totals or pair counts that do not sum
    /// to `labeled`.
    pub fn from_parts(
        labeled: u64,
        correct: u64,
        bins: [CalibrationBin; MARGIN_BUCKETS],
        pairs: BTreeMap<(u32, u32), u64>,
    ) -> Result<Self, String> {
        if correct > labeled {
            return Err(format!(
                "confusion counts {correct} correct of {labeled} labelled"
            ));
        }
        let binned: u128 = bins.iter().map(|b| u128::from(b.total)).sum();
        let paired: u128 = pairs.values().map(|&n| u128::from(n)).sum();
        for (sum, what) in [(binned, "calibration bins"), (paired, "confusion pairs")] {
            if sum != u128::from(labeled) {
                return Err(format!(
                    "{what} hold {sum} predictions but {labeled} were labelled"
                ));
            }
        }
        Ok(Self {
            labeled,
            correct,
            pairs,
            bins,
        })
    }

    /// Records one labelled prediction with its margin.
    pub fn record(&mut self, truth: u32, predicted: u32, margin: u64) {
        self.labeled += 1;
        let hit = truth == predicted;
        if hit {
            self.correct += 1;
        }
        *self.pairs.entry((truth, predicted)).or_insert(0) += 1;
        let bin = &mut self.bins[MarginSketch::bucket_index(margin)];
        bin.total += 1;
        bin.correct += u64::from(hit);
    }

    /// Labelled predictions observed.
    #[inline]
    pub fn labeled(&self) -> u64 {
        self.labeled
    }

    /// Correct predictions observed.
    #[inline]
    pub fn correct(&self) -> u64 {
        self.correct
    }

    /// Accuracy over the labelled stream (`None` when nothing labelled).
    pub fn accuracy(&self) -> Option<f64> {
        (self.labeled > 0).then(|| self.correct as f64 / self.labeled as f64)
    }

    /// `(true, predicted) → count` confusion pairs, deterministically
    /// ordered.
    pub fn pairs(&self) -> &BTreeMap<(u32, u32), u64> {
        &self.pairs
    }

    /// Calibration bins, indexed like the margin sketch's buckets.
    pub fn bins(&self) -> &[CalibrationBin] {
        &self.bins
    }

    /// ECE-style calibration gap: the bin-population-weighted mean
    /// absolute deviation of per-margin-bucket accuracy from the overall
    /// accuracy. 0 means the margin carries no miscalibration signal;
    /// large values mean some margin range is much less trustworthy than
    /// the aggregate accuracy suggests. `None` when nothing labelled.
    pub fn calibration_gap(&self) -> Option<f64> {
        let overall = self.accuracy()?;
        let mut gap = 0.0;
        for bin in &self.bins {
            if bin.total == 0 {
                continue;
            }
            let acc = bin.correct as f64 / bin.total as f64;
            gap += (bin.total as f64 / self.labeled as f64) * (acc - overall).abs();
        }
        Some(gap)
    }

    /// Merges another accumulator into this one (all counts add).
    pub fn merge(&mut self, other: &Confusion) {
        self.labeled += other.labeled;
        self.correct += other.correct;
        for (&key, &n) in &other.pairs {
            *self.pairs.entry(key).or_insert(0) += n;
        }
        for (mine, theirs) in self.bins.iter_mut().zip(other.bins.iter()) {
            mine.total += theirs.total;
            mine.correct += theirs.correct;
        }
    }

    /// Whether nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.labeled == 0
    }
}

/// Everything the registry aggregates about prediction quality: the
/// margin sketch, per-class prediction counts, the labelled confusion
/// accumulator, and the task name the stream belongs to. This is the unit
/// that drains into a [`crate::WorkerBatch`] and merges supervisor-side.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct QualityStats {
    /// Task the predictions belong to, when a caller declared one (first
    /// writer wins on merge).
    pub task: Option<String>,
    /// Similarity-margin sketch over every observed prediction.
    pub margins: MarginSketch,
    /// Predictions per class label (keys are decimal class indices for
    /// engine-tapped streams, but arbitrary labels are representable).
    pub predictions: BTreeMap<String, u64>,
    /// Labelled confusion/calibration accumulator.
    pub confusion: Confusion,
}

impl QualityStats {
    /// Records one prediction (class index + margin) from an engine tap.
    pub fn record_prediction(&mut self, class: u32, margin: u64) {
        self.margins.record(margin);
        *self.predictions.entry(class.to_string()).or_insert(0) += 1;
    }

    /// Records one labelled outcome.
    pub fn record_outcome(&mut self, truth: u32, predicted: u32, margin: u64) {
        self.confusion.record(truth, predicted, margin);
    }

    /// Merges another stats block into this one (sketches and counts add;
    /// the first non-empty task name wins).
    pub fn merge(&mut self, other: &QualityStats) {
        if self.task.is_none() {
            self.task.clone_from(&other.task);
        }
        self.margins.merge(&other.margins);
        for (class, n) in &other.predictions {
            *self.predictions.entry(class.clone()).or_insert(0) += n;
        }
        self.confusion.merge(&other.confusion);
    }

    /// Whether the block carries any information worth shipping.
    pub fn is_empty(&self) -> bool {
        self.task.is_none()
            && self.margins.count() == 0
            && self.predictions.is_empty()
            && self.confusion.is_empty()
    }
}

/// Drift-detector configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftConfig {
    /// Samples per window. The first `window` samples freeze the
    /// reference; each subsequent full window is compared against it.
    pub window: usize,
    /// Seed the detection threshold is derived from (a deterministic
    /// jitter on top of `sensitivity`, so reruns and re-deployments can
    /// de-correlate thresholds without losing reproducibility).
    pub seed: u64,
    /// Base divergence threshold in `[0, 2]` (the L1 range). The
    /// effective threshold is `sensitivity + jitter(seed)` with jitter in
    /// `[0, 0.05)`.
    pub sensitivity: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        Self {
            window: 128,
            seed: 0,
            sensitivity: 0.75,
        }
    }
}

/// One detected drift event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftEvent {
    /// 0-based index of the sample whose arrival completed the diverging
    /// window.
    pub sample_index: u64,
    /// The measured divergence (max of margin-histogram L1 and
    /// class-frequency L1 between reference and current window).
    pub divergence: f64,
}

fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

#[derive(Debug, Clone, Default, PartialEq)]
struct Window {
    margin_buckets: [u64; MARGIN_BUCKETS],
    classes: BTreeMap<u32, u64>,
    n: u64,
}

impl Window {
    fn observe(&mut self, class: u32, margin: u64) {
        self.margin_buckets[MarginSketch::bucket_index(margin)] += 1;
        *self.classes.entry(class).or_insert(0) += 1;
        self.n += 1;
    }
}

/// L1 distance between two normalized count distributions over the union
/// of their supports. Both iterations are over deterministic layouts, so
/// the float accumulation order (and therefore the result) is identical
/// on every run.
fn l1(a_counts: impl Iterator<Item = (u64, u64)>, a_n: u64, b_n: u64) -> f64 {
    let mut dist = 0.0;
    for (a, b) in a_counts {
        dist += (a as f64 / a_n as f64 - b as f64 / b_n as f64).abs();
    }
    dist
}

/// Reference-window vs current-window drift detector over the
/// (margin, predicted class) stream. Feed it predictions **in sample
/// order**; it is a pure function of the fed sequence and its config, so
/// detection indices are reproducible across thread counts and fleet
/// widths as long as the sequence itself is.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftDetector {
    config: DriftConfig,
    threshold: f64,
    reference: Option<Window>,
    current: Window,
    seen: u64,
    events: Vec<DriftEvent>,
}

impl DriftDetector {
    /// Creates a detector; the effective threshold is fixed here from the
    /// config's seed.
    pub fn new(config: DriftConfig) -> Self {
        let window = config.window.max(2);
        let jitter = (splitmix64(config.seed) >> 11) as f64 / (1u64 << 53) as f64 * 0.05;
        Self {
            config: DriftConfig { window, ..config },
            threshold: config.sensitivity + jitter,
            reference: None,
            current: Window::default(),
            seen: 0,
            events: Vec::new(),
        }
    }

    /// The effective (seed-jittered) divergence threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Samples observed so far.
    pub fn samples_seen(&self) -> u64 {
        self.seen
    }

    /// Every drift event fired so far, in order.
    pub fn events(&self) -> &[DriftEvent] {
        &self.events
    }

    /// Index of the first drift event, if any — the "samples-to-detect"
    /// figure detection-latency reporting is built on.
    pub fn first_detection(&self) -> Option<u64> {
        self.events.first().map(|e| e.sample_index)
    }

    /// Feeds one prediction; returns the drift event if this sample
    /// completed a window that diverged from the reference.
    pub fn observe(&mut self, class: u32, margin: u64) -> Option<DriftEvent> {
        let index = self.seen;
        self.seen += 1;
        let window = self.config.window as u64;
        match &mut self.reference {
            None => {
                self.current.observe(class, margin);
                if self.current.n == window {
                    self.reference = Some(std::mem::take(&mut self.current));
                }
                None
            }
            Some(reference) => {
                self.current.observe(class, margin);
                if self.current.n < window {
                    return None;
                }
                let margin_l1 = l1(
                    reference
                        .margin_buckets
                        .iter()
                        .zip(self.current.margin_buckets.iter())
                        .map(|(&a, &b)| (a, b)),
                    reference.n,
                    self.current.n,
                );
                // union of class supports, in sorted order
                let mut keys: Vec<u32> = reference.classes.keys().copied().collect();
                for k in self.current.classes.keys() {
                    if !reference.classes.contains_key(k) {
                        keys.push(*k);
                    }
                }
                keys.sort_unstable();
                let class_l1 = l1(
                    keys.iter().map(|k| {
                        (
                            reference.classes.get(k).copied().unwrap_or(0),
                            self.current.classes.get(k).copied().unwrap_or(0),
                        )
                    }),
                    reference.n,
                    self.current.n,
                );
                let divergence = margin_l1.max(class_l1);
                self.current = Window::default();
                if divergence > self.threshold {
                    let event = DriftEvent {
                        sample_index: index,
                        divergence,
                    };
                    self.events.push(event);
                    Some(event)
                } else {
                    None
                }
            }
        }
    }
}

/// The sequential quality-observation layer: a local margin sketch,
/// confusion accumulator, and drift detector fed together, one prediction
/// at a time, in sample order. This is what `univsa quality` and
/// perf_baseline fold the (deterministically ordered) engine output into;
/// the global registry's [`QualityStats`] is fed separately by the engine
/// taps.
#[derive(Debug, Clone)]
pub struct QualityObserver {
    /// Margin sketch over the observed stream.
    pub margins: MarginSketch,
    /// Labelled confusion accumulator.
    pub confusion: Confusion,
    /// Per-predicted-class counts.
    pub predictions: BTreeMap<u32, u64>,
    /// The windowed drift detector.
    pub drift: DriftDetector,
}

impl QualityObserver {
    /// Creates an observer with the given drift configuration.
    pub fn new(drift: DriftConfig) -> Self {
        Self {
            margins: MarginSketch::new(),
            confusion: Confusion::new(),
            predictions: BTreeMap::new(),
            drift: DriftDetector::new(drift),
        }
    }

    /// Observes one prediction (with its true label when known);
    /// returns a drift event if this sample triggered one.
    pub fn observe(
        &mut self,
        truth: Option<u32>,
        predicted: u32,
        margin: u64,
    ) -> Option<DriftEvent> {
        self.margins.record(margin);
        *self.predictions.entry(predicted).or_insert(0) += 1;
        if let Some(truth) = truth {
            self.confusion.record(truth, predicted, margin);
        }
        self.drift.observe(predicted, margin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margin_bucket_boundaries_are_inclusive_upper_bounds() {
        assert_eq!(MarginSketch::bucket_index(0), 0);
        assert_eq!(MarginSketch::bucket_index(1), 1);
        assert_eq!(MarginSketch::bucket_index(2), 2);
        assert_eq!(MarginSketch::bucket_index(3), 3);
        assert_eq!(MarginSketch::bucket_index(5), 3);
        assert_eq!(MarginSketch::bucket_index(100_000), 16);
        assert_eq!(MarginSketch::bucket_index(100_001), 17);
        assert_eq!(MarginSketch::bucket_index(u64::MAX), 17);
        for pair in MARGIN_BUCKET_BOUNDS.windows(2) {
            assert!(pair[0] < pair[1], "bounds must increase: {pair:?}");
        }
    }

    #[test]
    fn sketch_records_exact_stats_and_quantiles() {
        let mut s = MarginSketch::new();
        assert_eq!(s.quantile(0.5), None);
        for m in [0, 3, 3, 40, 700] {
            s.record(m);
        }
        assert_eq!(s.count(), 5);
        assert_eq!(s.sum(), 746);
        assert_eq!(s.min(), Some(0));
        assert_eq!(s.max(), Some(700));
        assert!((s.mean() - 149.2).abs() < 1e-9);
        // rank 3 of 5 at q=0.5 → the two 3s live in bucket (2,5]
        assert_eq!(s.quantile(0.5), Some(5));
        assert_eq!(s.quantile(1.0), Some(700));
    }

    #[test]
    fn sketch_merge_equals_direct_recording_and_is_commutative() {
        let values_a = [0u64, 7, 7, 900];
        let values_b = [2u64, 2_000_000, 15];
        let mut a = MarginSketch::new();
        let mut b = MarginSketch::new();
        for v in values_a {
            a.record(v);
        }
        for v in values_b {
            b.record(v);
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, ba);
        let mut direct = MarginSketch::new();
        for v in values_a.iter().chain(values_b.iter()) {
            direct.record(*v);
        }
        assert_eq!(ab, direct);
        // empty-merge identity both ways
        let mut with_empty = ab.clone();
        with_empty.merge(&MarginSketch::new());
        assert_eq!(with_empty, ab);
        let mut empty = MarginSketch::new();
        empty.merge(&ab);
        assert_eq!(empty, ab);
        assert_eq!(ab.min(), Some(0));
        assert_eq!(ab.quantile(1.0), Some(2_000_000));
    }

    #[test]
    fn confusion_tracks_accuracy_pairs_and_calibration() {
        let mut c = Confusion::new();
        assert!(c.is_empty());
        assert_eq!(c.accuracy(), None);
        assert_eq!(c.calibration_gap(), None);
        // big margins always right, tiny margins always wrong
        for _ in 0..8 {
            c.record(1, 1, 400);
        }
        for _ in 0..2 {
            c.record(1, 0, 0);
        }
        assert_eq!(c.labeled(), 10);
        assert_eq!(c.correct(), 8);
        assert_eq!(c.accuracy(), Some(0.8));
        assert_eq!(c.pairs()[&(1, 1)], 8);
        assert_eq!(c.pairs()[&(1, 0)], 2);
        // gap = 0.8·|1.0−0.8| + 0.2·|0.0−0.8| = 0.32
        assert!((c.calibration_gap().unwrap() - 0.32).abs() < 1e-12);
        let mut d = Confusion::new();
        d.record(0, 0, 400);
        c.merge(&d);
        assert_eq!(c.labeled(), 11);
        assert_eq!(c.pairs()[&(0, 0)], 1);
    }

    #[test]
    fn quality_stats_merge_and_emptiness() {
        let mut a = QualityStats::default();
        assert!(a.is_empty());
        a.record_prediction(2, 40);
        a.record_outcome(2, 2, 40);
        assert!(!a.is_empty());
        let mut b = QualityStats {
            task: Some("HAR".into()),
            ..QualityStats::default()
        };
        b.record_prediction(2, 10);
        b.record_prediction(0, 3);
        a.merge(&b);
        assert_eq!(a.task.as_deref(), Some("HAR"));
        assert_eq!(a.margins.count(), 3);
        assert_eq!(a.predictions["2"], 2);
        assert_eq!(a.predictions["0"], 1);
        // first task wins over later merges
        let c = QualityStats {
            task: Some("other".into()),
            ..QualityStats::default()
        };
        a.merge(&c);
        assert_eq!(a.task.as_deref(), Some("HAR"));
    }

    #[test]
    fn drift_threshold_is_seeded_and_deterministic() {
        let a = DriftDetector::new(DriftConfig {
            seed: 7,
            ..DriftConfig::default()
        });
        let b = DriftDetector::new(DriftConfig {
            seed: 7,
            ..DriftConfig::default()
        });
        let c = DriftDetector::new(DriftConfig {
            seed: 8,
            ..DriftConfig::default()
        });
        assert_eq!(a.threshold(), b.threshold());
        assert_ne!(a.threshold(), c.threshold());
        let base = DriftConfig::default().sensitivity;
        for d in [&a, &c] {
            assert!(d.threshold() >= base && d.threshold() < base + 0.05);
        }
    }

    #[test]
    fn stationary_stream_never_fires_and_shifted_stream_fires_once_per_window() {
        let config = DriftConfig {
            window: 32,
            seed: 1,
            sensitivity: 0.75,
        };
        // stationary: a fixed repeating pattern of classes and margins
        let mut detector = DriftDetector::new(config);
        for i in 0..512u64 {
            let class = (i % 3) as u32;
            let margin = 40 + (i % 5) * 3;
            assert_eq!(detector.observe(class, margin), None, "sample {i}");
        }
        assert!(detector.events().is_empty());
        // drifted: margins collapse to ~0 and classes collapse to one
        let mut detector = DriftDetector::new(config);
        let mut fired_at = None;
        for i in 0..512u64 {
            let (class, margin) = if i < 200 {
                ((i % 3) as u32, 40 + (i % 5) * 3)
            } else {
                (0, i % 2)
            };
            if let Some(e) = detector.observe(class, margin) {
                fired_at.get_or_insert(e.sample_index);
                assert!(e.divergence > detector.threshold());
            }
        }
        let fired_at = fired_at.expect("drift must be detected");
        assert!(fired_at >= 200, "cannot fire before the drift point");
        assert!(
            fired_at < 200 + 2 * 32,
            "detection latency {} exceeds two windows",
            fired_at - 200
        );
        assert_eq!(detector.first_detection(), Some(fired_at));
        // identical feed → identical event indices
        let mut replay = DriftDetector::new(config);
        for i in 0..512u64 {
            let (class, margin) = if i < 200 {
                ((i % 3) as u32, 40 + (i % 5) * 3)
            } else {
                (0, i % 2)
            };
            replay.observe(class, margin);
        }
        assert_eq!(replay.events(), detector.events());
    }

    #[test]
    fn observer_combines_sketch_confusion_and_drift() {
        let mut obs = QualityObserver::new(DriftConfig {
            window: 8,
            seed: 0,
            sensitivity: 0.75,
        });
        for i in 0..32u64 {
            obs.observe(Some((i % 2) as u32), (i % 2) as u32, 25);
        }
        assert_eq!(obs.margins.count(), 32);
        assert_eq!(obs.confusion.accuracy(), Some(1.0));
        assert_eq!(obs.predictions[&0], 16);
        assert!(obs.drift.events().is_empty());
        // unlabelled observations skip confusion
        obs.observe(None, 1, 25);
        assert_eq!(obs.confusion.labeled(), 32);
        assert_eq!(obs.margins.count(), 33);
    }

    #[test]
    fn sketch_from_parts_accepts_recorded_parts_and_rejects_impossible_ones() {
        let mut recorded = MarginSketch::new();
        for m in [0, 3, 70_000] {
            recorded.record(m);
        }
        let parts = |s: &MarginSketch| (s.counts, s.count, s.sum, s.min, s.max);
        for s in [MarginSketch::new(), recorded.clone()] {
            let (counts, count, sum, min, max) = parts(&s);
            assert_eq!(
                MarginSketch::from_parts(counts, count, sum, min, max),
                Ok(s)
            );
        }

        let (counts, count, sum, min, max) = parts(&recorded);
        let err = MarginSketch::from_parts(counts, count + 1, sum, min, max).unwrap_err();
        assert!(err.contains("buckets hold 3"), "{err}");
        let mut more = counts;
        more[0] = u64::MAX;
        assert!(MarginSketch::from_parts(more, count, sum, min, max).is_err());

        let empty = [0; MARGIN_BUCKETS];
        for (sum, min, max) in [(1, u64::MAX, 0), (0, 5, 0), (0, u64::MAX, 9)] {
            let err = MarginSketch::from_parts(empty, 0, sum, min, max).unwrap_err();
            assert!(err.contains("empty margin sketch"), "{err}");
        }
    }

    #[test]
    fn confusion_from_parts_accepts_recorded_parts_and_rejects_impossible_ones() {
        let mut recorded = Confusion::new();
        recorded.record(2, 2, 70_000);
        recorded.record(1, 2, 0);
        recorded.record(0, 0, 12);
        let rebuild =
            |labeled, correct, bins, pairs| Confusion::from_parts(labeled, correct, bins, pairs);
        let (bins, pairs) = (recorded.bins, recorded.pairs.clone());
        for c in [Confusion::new(), recorded.clone()] {
            assert_eq!(
                rebuild(c.labeled, c.correct, c.bins, c.pairs.clone()),
                Ok(c)
            );
        }

        let err = rebuild(3, 4, bins, pairs.clone()).unwrap_err();
        assert!(err.contains("4 correct of 3"), "{err}");

        let mut short_bins = bins;
        short_bins[0].total -= 1;
        let err = rebuild(3, 2, short_bins, pairs.clone()).unwrap_err();
        assert!(err.contains("calibration bins hold 2"), "{err}");

        let mut extra_pair = pairs.clone();
        extra_pair.insert((5, 6), 1);
        let err = rebuild(3, 2, bins, extra_pair).unwrap_err();
        assert!(err.contains("confusion pairs hold 4"), "{err}");
    }
}
