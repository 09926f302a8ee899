//! The six benchmark tasks of the paper's Table I, as seeded synthetic
//! generators with matched geometry.
//!
//! | Task      | Domain    | Classes | `(W, L)` | Character tuned into the generator |
//! |-----------|-----------|---------|----------|------------------------------------|
//! | EEGMMI    | time      | 2       | (16, 64) | strongly interaction-coded (SVM ≫ LDA; BiConv pays off) |
//! | BCI-III-V | frequency | 3       | (16, 6)  | clean but multi-modal (local methods excel) |
//! | CHB-B     | frequency | 2       | (23, 64) | easy, well separated |
//! | CHB-IB    | frequency | 2       | (23, 64) | same signal, 4:1 class imbalance |
//! | ISOLET    | time      | 26      | (16, 40) | largely linearly separable, many classes |
//! | HAR       | time      | 6       | (16, 36) | noisy with many irrelevant features (distance-based methods suffer) |

use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::dataset::Task;
use crate::{DriftSpec, GeneratorParams, Sample, SyntheticGenerator, TaskSpec};

fn spec(name: &str, width: usize, length: usize, classes: usize) -> TaskSpec {
    TaskSpec {
        name: name.to_string(),
        width,
        length,
        classes,
        levels: 256,
    }
}

fn build(
    params: GeneratorParams,
    train_per_class: &[usize],
    test_per_class: &[usize],
    seed: u64,
) -> Task {
    let mut rng = StdRng::seed_from_u64(seed);
    let generator = SyntheticGenerator::new(params.clone(), &mut rng);
    let train = generator.dataset(train_per_class, &mut rng);
    let test = generator.dataset(test_per_class, &mut rng);
    Task {
        spec: params.spec,
        train,
        test,
    }
}

const EEGMMI_SALT: u64 = 0xEE61;
const BCI3V_SALT: u64 = 0xBC13;
const CHB_B_SALT: u64 = 0xC4BB;
const CHB_IB_SALT: u64 = 0xC41B;
const ISOLET_SALT: u64 = 0x1501;
const HAR_SALT: u64 = 0x4A12;

fn eegmmi_params() -> GeneratorParams {
    let mut p = GeneratorParams::new(spec("EEGMMI", 16, 64, 2));
    p.interaction = 1.0;
    p.linear_bias = 0.12;
    p.noise = 0.45;
    p.irrelevant_rows = 0.25;
    p.modes = 2;
    p.informative_fraction = 0.15;
    p.texture = 1.0;
    p
}

fn bci3v_params() -> GeneratorParams {
    let mut p = GeneratorParams::new(spec("BCI-III-V", 16, 6, 3));
    p.interaction = 0.15;
    p.linear_bias = 0.2;
    p.noise = 0.45;
    p.irrelevant_rows = 0.1;
    p.modes = 4;
    p.informative_fraction = 0.5;
    p.texture = 0.35;
    p.cluster_spread = 0.6;
    p.label_noise = 0.01;
    p
}

fn chb_b_params() -> GeneratorParams {
    let mut p = GeneratorParams::new(spec("CHB-B", 23, 64, 2));
    p.interaction = 0.35;
    p.linear_bias = 0.09;
    p.noise = 0.35;
    p.irrelevant_rows = 0.2;
    p.informative_fraction = 0.45;
    p.texture = 0.25;
    p.class_gain = 0.25;
    p.modes = 2;
    p.cluster_spread = 0.35;
    p
}

fn chb_ib_params() -> GeneratorParams {
    let mut p = chb_b_params();
    p.spec = spec("CHB-IB", 23, 64, 2);
    p
}

fn isolet_params() -> GeneratorParams {
    let mut p = GeneratorParams::new(spec("ISOLET", 16, 40, 26));
    p.interaction = 0.2;
    p.linear_bias = 0.3;
    p.noise = 0.55;
    p.irrelevant_rows = 0.12;
    p.informative_fraction = 0.85;
    p.texture = 0.25;
    p.label_noise = 0.05;
    p
}

fn har_params() -> GeneratorParams {
    let mut p = GeneratorParams::new(spec("HAR", 16, 36, 6));
    p.interaction = 0.8;
    p.linear_bias = 0.3;
    p.noise = 0.6;
    p.irrelevant_rows = 0.4;
    p.jitter = 0.3;
    p.informative_fraction = 0.7;
    p.texture = 0.6;
    p.label_noise = 0.05;
    p
}

/// EEGMMI-like motor-imagery task: 2 classes, `(16, 64)` windows, class
/// information mostly in cross-feature interactions.
pub fn eegmmi(seed: u64) -> Task {
    build(
        eegmmi_params(),
        &[240, 240],
        &[120, 120],
        seed ^ EEGMMI_SALT,
    )
}

/// BCI-III-V-like mental-imagery task: 3 classes, `(16, 6)` frequency
/// features, clean but multi-modal.
pub fn bci3v(seed: u64) -> Task {
    build(
        bci3v_params(),
        &[160, 160, 160],
        &[80, 80, 80],
        seed ^ BCI3V_SALT,
    )
}

/// CHB-B-like balanced seizure detection: 2 classes, `(23, 64)`.
pub fn chb_b(seed: u64) -> Task {
    build(chb_b_params(), &[200, 200], &[100, 100], seed ^ CHB_B_SALT)
}

/// CHB-IB-like imbalanced seizure detection: the CHB-B signal with a 4:1
/// class ratio.
pub fn chb_ib(seed: u64) -> Task {
    build(chb_ib_params(), &[320, 80], &[160, 40], seed ^ CHB_IB_SALT)
}

/// ISOLET-like spoken-letter task: 26 classes, `(16, 40)`, largely
/// linearly separable.
pub fn isolet(seed: u64) -> Task {
    build(
        isolet_params(),
        &vec![40; 26],
        &vec![15; 26],
        seed ^ ISOLET_SALT,
    )
}

/// HAR-like activity-recognition task: 6 classes, `(16, 36)`, noisy with
/// many irrelevant features.
pub fn har(seed: u64) -> Task {
    build(har_params(), &[170; 6], &[40; 6], seed ^ HAR_SALT)
}

/// The generator parameters and seed salt behind a named task
/// (case-insensitive, accepting the same aliases as [`by_name`]).
fn stream_setup(name: &str) -> Option<(GeneratorParams, u64)> {
    match name.to_ascii_uppercase().as_str() {
        "EEGMMI" => Some((eegmmi_params(), EEGMMI_SALT)),
        "BCI-III-V" | "BCI3V" => Some((bci3v_params(), BCI3V_SALT)),
        "CHB-B" => Some((chb_b_params(), CHB_B_SALT)),
        "CHB-IB" => Some((chb_ib_params(), CHB_IB_SALT)),
        "ISOLET" => Some((isolet_params(), ISOLET_SALT)),
        "HAR" => Some((har_params(), HAR_SALT)),
        _ => None,
    }
}

/// Generates a labelled prediction stream for a named task: the same
/// frozen class profiles a model trained via [`by_name`] with the same
/// `seed` learned from, but fresh sample draws (decoupled from the
/// train/test draws), with optional seeded drift injection. The whole
/// stream is a pure function of `(name, seed, total, drift)`, so fleet
/// workers can regenerate it independently and evaluate disjoint shards
/// that concatenate into exactly this sequence.
pub fn drift_stream(
    name: &str,
    seed: u64,
    total: usize,
    drift: Option<DriftSpec>,
) -> Option<Vec<Sample>> {
    let (params, salt) = stream_setup(name)?;
    // identical construction to `build`, so the profiles match training
    let mut grng = StdRng::seed_from_u64(seed ^ salt);
    let generator = SyntheticGenerator::new(params, &mut grng);
    // a salted fresh RNG: stream draws never replay train/test samples
    let mut srng = StdRng::seed_from_u64((seed ^ salt).wrapping_add(0x5EED_57EA));
    Some(generator.stream(total, drift, &mut srng))
}

/// All six benchmark tasks in the paper's Table I order.
pub fn all(seed: u64) -> Vec<Task> {
    vec![
        eegmmi(seed),
        bci3v(seed),
        chb_b(seed),
        chb_ib(seed),
        isolet(seed),
        har(seed),
    ]
}

/// A `(D_H, D_L, D_K, O, Θ)` model tuple.
pub type ConfigTuple = (usize, usize, usize, usize, usize);

/// The paper's Table I: per-task `(D_H, D_L, D_K, O, Θ)` configurations,
/// in the same order as [`all`].
pub const PAPER_CONFIGS: [(&str, ConfigTuple); 6] = [
    ("EEGMMI", (8, 2, 3, 95, 1)),
    ("BCI-III-V", (8, 1, 3, 151, 3)),
    ("CHB-B", (8, 2, 3, 16, 3)),
    ("CHB-IB", (4, 1, 5, 16, 1)),
    ("ISOLET", (4, 4, 3, 22, 3)),
    ("HAR", (8, 4, 3, 18, 3)),
];

/// Looks up a task's Table I configuration tuple by name
/// (case-insensitive, accepting the same aliases as [`by_name`]).
pub fn paper_config_tuple(name: &str) -> Option<ConfigTuple> {
    let upper = name.to_ascii_uppercase();
    let canon = if upper == "BCI3V" {
        "BCI-III-V"
    } else {
        &upper
    };
    PAPER_CONFIGS
        .iter()
        .find(|(n, _)| *n == canon)
        .map(|(_, tuple)| *tuple)
}

/// Looks a task up by its Table I name (case-insensitive).
pub fn by_name(name: &str, seed: u64) -> Option<Task> {
    match name.to_ascii_uppercase().as_str() {
        "EEGMMI" => Some(eegmmi(seed)),
        "BCI-III-V" | "BCI3V" => Some(bci3v(seed)),
        "CHB-B" => Some(chb_b(seed)),
        "CHB-IB" => Some(chb_ib(seed)),
        "ISOLET" => Some(isolet(seed)),
        "HAR" => Some(har(seed)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometries_match_table1() {
        let cases = [
            ("EEGMMI", 16, 64, 2),
            ("BCI-III-V", 16, 6, 3),
            ("CHB-B", 23, 64, 2),
            ("CHB-IB", 23, 64, 2),
            ("ISOLET", 16, 40, 26),
            ("HAR", 16, 36, 6),
        ];
        for (name, w, l, c) in cases {
            let t = by_name(name, 1).unwrap();
            assert_eq!(t.spec.name, name);
            assert_eq!(t.spec.width, w);
            assert_eq!(t.spec.length, l);
            assert_eq!(t.spec.classes, c);
            assert_eq!(t.spec.levels, 256);
        }
    }

    #[test]
    fn chb_ib_is_imbalanced() {
        let t = chb_ib(3);
        let counts = t.train.class_counts();
        assert!(counts[0] >= 3 * counts[1]);
    }

    #[test]
    fn all_returns_six() {
        assert_eq!(all(0).len(), 6);
    }

    #[test]
    fn by_name_unknown_is_none() {
        assert!(by_name("MNIST", 0).is_none());
    }

    #[test]
    fn paper_config_tuple_covers_every_task() {
        for task in all(0) {
            assert!(paper_config_tuple(&task.spec.name).is_some());
        }
        assert_eq!(paper_config_tuple("eegmmi"), Some((8, 2, 3, 95, 1)));
        assert_eq!(paper_config_tuple("bci3v"), paper_config_tuple("BCI-III-V"));
        assert!(paper_config_tuple("MNIST").is_none());
    }

    #[test]
    fn deterministic() {
        let a = eegmmi(9);
        let b = eegmmi(9);
        assert_eq!(a.train, b.train);
        assert_eq!(a.test, b.test);
    }

    #[test]
    fn drift_stream_is_deterministic_and_drift_only_touches_the_tail() {
        let a = drift_stream("bci3v", 7, 60, None).unwrap();
        let b = drift_stream("BCI-III-V", 7, 60, None).unwrap();
        assert_eq!(a, b);
        let drifted = drift_stream(
            "bci3v",
            7,
            60,
            Some(DriftSpec {
                at: 30,
                strength: 1.0,
            }),
        )
        .unwrap();
        assert_eq!(a[..30], drifted[..30]);
        assert_ne!(a[30..], drifted[30..]);
        // fresh draws: the stream must not replay the training set
        let task = bci3v(7);
        assert_ne!(task.train.samples()[0].values, a[0].values);
        assert!(drift_stream("MNIST", 7, 10, None).is_none());
    }

    #[test]
    fn train_and_test_disjoint_draws() {
        // not literally disjoint sets (both are fresh draws), but they must
        // differ — a degenerate generator would emit identical data
        let t = bci3v(2);
        assert_ne!(t.train.samples()[0].values, t.test.samples()[0].values);
    }
}
