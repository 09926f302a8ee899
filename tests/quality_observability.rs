//! Quality-plane invariants the fleet merge path depends on: the margin
//! sketch must be a CRDT-style mergeable summary (merge order, chunking,
//! and shard width must not change any reported statistic), the drift
//! detector must be a pure function of its input stream and seed, and a
//! named task's drift stream must be reproducible and prefix-stable.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use univsa_data::tasks;
use univsa_data::DriftSpec;
use univsa_telemetry::{DriftConfig, DriftDetector, MarginSketch, QualityStats};

/// Every statistic a sketch reports, as one comparable value: count,
/// bucket counts, min, max and a fixed set of quantiles.
type Fingerprint = (u64, Vec<u64>, Option<u64>, Option<u64>, Vec<Option<u64>>);

fn fingerprint(sketch: &MarginSketch) -> Fingerprint {
    let quantiles = [0.0, 0.25, 0.5, 0.9, 0.99, 1.0]
        .iter()
        .map(|&q| sketch.quantile(q))
        .collect();
    (
        sketch.count(),
        sketch.bucket_counts().to_vec(),
        sketch.min(),
        sketch.max(),
        quantiles,
    )
}

fn sequential(margins: &[u64]) -> MarginSketch {
    let mut sketch = MarginSketch::new();
    for &m in margins {
        sketch.record(m);
    }
    sketch
}

proptest! {
    #[test]
    fn sketch_merge_is_order_and_width_independent(
        margins in proptest::collection::vec(0u64..200_000, 1usize..400),
        width in 1usize..9,
        swap in any::<u64>(),
    ) {
        let reference = fingerprint(&sequential(&margins));

        // shard round-robin over `width` lanes — the exact split
        // `univsa_par` produces for a parallel evaluate — and merge
        let mut lanes = vec![MarginSketch::new(); width];
        for (i, &m) in margins.iter().enumerate() {
            lanes[i % width].record(m);
        }
        let mut merged = MarginSketch::new();
        for lane in &lanes {
            merged.merge(lane);
        }
        prop_assert_eq!(&fingerprint(&merged), &reference);

        // merging in a different order must not change anything either
        let mut reversed = MarginSketch::new();
        let a = (swap as usize) % width;
        let b = (swap as usize / 7) % width;
        lanes.swap(a, b);
        for lane in lanes.iter().rev() {
            reversed.merge(lane);
        }
        prop_assert_eq!(&fingerprint(&reversed), &reference);
    }

    #[test]
    fn sketch_merge_is_associative(
        margins in proptest::collection::vec(0u64..200_000, 3usize..300),
        cut_a in any::<u64>(),
        cut_b in any::<u64>(),
    ) {
        // split into three chunks at arbitrary points
        let i = 1 + (cut_a as usize) % (margins.len() - 1);
        let j = i + (cut_b as usize) % (margins.len() - i);
        let (x, y, z) = (
            sequential(&margins[..i]),
            sequential(&margins[i..j]),
            sequential(&margins[j..]),
        );
        // (x ∪ y) ∪ z == x ∪ (y ∪ z)
        let mut left = x.clone();
        left.merge(&y);
        left.merge(&z);
        let mut yz = y.clone();
        yz.merge(&z);
        let mut right = x.clone();
        right.merge(&yz);
        prop_assert_eq!(fingerprint(&left), fingerprint(&right));
        prop_assert_eq!(fingerprint(&left), fingerprint(&sequential(&margins)));
    }

    #[test]
    fn quality_stats_merge_matches_sequential_recording(
        rows in proptest::collection::vec(
            (0u32..5, 0u32..5, 0u64..100_000),
            1usize..200,
        ),
        width in 1usize..5,
    ) {
        let mut reference = QualityStats::default();
        for &(truth, predicted, margin) in &rows {
            reference.record_prediction(predicted, margin);
            reference.record_outcome(truth, predicted, margin);
        }
        let mut shards = vec![QualityStats::default(); width];
        for (i, &(truth, predicted, margin)) in rows.iter().enumerate() {
            shards[i % width].record_prediction(predicted, margin);
            shards[i % width].record_outcome(truth, predicted, margin);
        }
        let mut merged = QualityStats::default();
        for shard in &shards {
            merged.merge(shard);
        }
        prop_assert_eq!(merged, reference);
    }
}

#[test]
fn drift_detector_is_a_pure_function_of_stream_and_seed() {
    let config = DriftConfig {
        window: 16,
        seed: 9,
        ..DriftConfig::default()
    };
    let mut rng = StdRng::seed_from_u64(3);
    let stream: Vec<(u32, u64)> = (0..600)
        .map(|i| {
            if i < 300 {
                (rng.gen_range(0..3u32), 40 + rng.gen_range(0..10) as u64)
            } else {
                // post-drift: collapsed class mix, collapsed margins
                (0, rng.gen_range(0..3) as u64)
            }
        })
        .collect();

    let run = || {
        let mut detector = DriftDetector::new(config);
        let mut first = None;
        for (i, &(class, margin)) in stream.iter().enumerate() {
            if let Some(event) = detector.observe(class, margin) {
                first.get_or_insert((i, event.sample_index, event.divergence));
            }
        }
        (first, detector.threshold())
    };
    let (first_a, threshold_a) = run();
    let (first_b, threshold_b) = run();
    assert_eq!(first_a, first_b, "replay diverged");
    assert_eq!(threshold_a, threshold_b);
    let (detected_at, _, _) = first_a.expect("a collapsed stream must be detected");
    assert!(
        (300..300 + 2 * 16).contains(&detected_at),
        "detection at {detected_at}, expected within two windows of onset 300"
    );

    // a different seed moves only the threshold jitter, never by more
    // than the documented 0.05 band
    let other = DriftDetector::new(DriftConfig { seed: 10, ..config });
    assert!((other.threshold() - threshold_a).abs() < 0.05);
}

#[test]
fn named_task_drift_streams_are_reproducible_across_shard_boundaries() {
    let drift = Some(DriftSpec {
        at: 40,
        strength: 0.9,
    });
    let full = tasks::drift_stream("har", 5, 96, drift).unwrap();
    // a worker that regenerates the stream for its own shard sees exactly
    // the same samples at the same indices
    let again = tasks::drift_stream("HAR", 5, 96, drift).unwrap();
    assert_eq!(full, again);
    // drift only perturbs the tail; the prefix equals the stationary stream
    let stationary = tasks::drift_stream("har", 5, 96, None).unwrap();
    assert_eq!(full[..40], stationary[..40]);
    assert_ne!(full[40..], stationary[40..]);
}
