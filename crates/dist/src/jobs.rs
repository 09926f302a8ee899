//! Job payloads and the handler registry.
//!
//! Closures cannot cross a process boundary, so distributable work is
//! expressed as `(kind, payload bytes) → result bytes` pairs: the
//! supervisor ships opaque payloads, and both sides agree on the named
//! handlers registered here. Handlers must be **pure functions of their
//! payload** — that is the whole determinism argument: any schedule, any
//! worker count, any crash/retry history produces the same result bytes
//! for the same payload.

use std::collections::HashMap;
use std::sync::Mutex;

use univsa::codec::{Reader, Writer};
use univsa::{
    similarity_margin, PackedModel, TrainOptions, UniVsaConfig, UniVsaError, UniVsaTrainer,
};
use univsa_data::DriftSpec;
use univsa_hw::{HwConfig, Pipeline, Protection, SeuCampaign, SeuOutcome};
use univsa_search::{AccuracyHardwareObjective, Genome};

use crate::proto::{decode_payload, encode_payload};

/// Job kind for one genome fitness evaluation (see [`FitnessJob`]).
pub const FITNESS_KIND: &str = "search.fitness";
/// Job kind for a training-free surrogate fitness evaluation: the same
/// [`FitnessJob`] payload scored by [`probe_fitness`]. Exists so fleet
/// determinism can be exercised cheaply (debug-mode tests, the CI chaos
/// matrix) without paying for real training runs.
pub const PROBE_KIND: &str = "search.probe";
/// Job kind for one SEU campaign trial (see [`SeuTrialJob`]).
pub const SEU_TRIAL_KIND: &str = "seu.trial";
/// Job kind for one prediction-quality stream shard (see [`QualityJob`]).
pub const QUALITY_KIND: &str = "quality.eval";
/// Diagnostic job: echoes its payload back.
pub const ECHO_KIND: &str = "dist.echo";
/// Diagnostic job: fails with its payload as the error message.
pub const FAIL_KIND: &str = "dist.fail";

type Handler = Box<dyn Fn(&[u8]) -> Result<Vec<u8>, String> + Send + Sync>;

/// Named byte-level job handlers, shared by worker processes and the
/// in-process fallback path.
#[derive(Default)]
pub struct JobRegistry {
    handlers: HashMap<&'static str, Handler>,
}

impl JobRegistry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a handler under `kind` (replacing any previous one).
    ///
    /// The handler must be a pure function of the payload; anything else
    /// breaks the fleet's bit-identical-results contract.
    pub fn register(
        &mut self,
        kind: &'static str,
        handler: impl Fn(&[u8]) -> Result<Vec<u8>, String> + Send + Sync + 'static,
    ) {
        self.handlers.insert(kind, Box::new(handler));
    }

    /// Runs the handler registered under `kind`.
    ///
    /// # Errors
    ///
    /// The handler's own error, or a synthesized one for an unknown kind
    /// (both travel back as a `TaskErr` and abort the batch).
    pub fn run(&self, kind: &str, payload: &[u8]) -> Result<Vec<u8>, String> {
        match self.handlers.get(kind) {
            Some(handler) => handler(payload),
            None => Err(format!("no job handler registered for kind \"{kind}\"")),
        }
    }
}

/// The registry every `univsa` process agrees on: real workloads
/// ([`FITNESS_KIND`], [`SEU_TRIAL_KIND`]) plus the cheap diagnostic jobs
/// the fleet tests exercise.
pub fn standard_registry() -> JobRegistry {
    let mut registry = JobRegistry::new();
    registry.register(ECHO_KIND, |payload| Ok(payload.to_vec()));
    registry.register(FAIL_KIND, |payload| {
        Err(String::from_utf8_lossy(payload).into_owned())
    });

    // The objective is rebuilt from (task, seeds, epochs) and cached so a
    // worker regenerates its datasets once, not once per genome.
    let cache: Mutex<HashMap<(String, u64, u64, usize), AccuracyHardwareObjective>> =
        Mutex::new(HashMap::new());
    registry.register(FITNESS_KIND, move |payload| {
        let job = FitnessJob::decode(payload).map_err(|e| e.to_string())?;
        let key = (job.task.clone(), job.data_seed, job.train_seed, job.epochs);
        let objective = {
            let mut cache = cache.lock().expect("fitness cache lock");
            if !cache.contains_key(&key) {
                let task = univsa_data::tasks::by_name(&job.task, job.data_seed)
                    .ok_or_else(|| format!("unknown task \"{}\"", job.task))?;
                let options = TrainOptions {
                    epochs: job.epochs,
                    ..TrainOptions::default()
                };
                cache.insert(
                    key.clone(),
                    AccuracyHardwareObjective::new(task.train, task.test, options, job.train_seed),
                );
            }
            cache[&key].clone()
        };
        Ok(encode_fitness(objective.evaluate(&job.genome)))
    });

    registry.register(PROBE_KIND, |payload| {
        let job = FitnessJob::decode(payload).map_err(|e| e.to_string())?;
        Ok(encode_fitness(probe_fitness(&job)))
    });

    // The paper-configured model is rebuilt from (task, seed, epochs) and
    // cached so a worker trains once per stream, not once per shard.
    let quality_cache: Mutex<HashMap<(String, u64, usize), PackedModel>> =
        Mutex::new(HashMap::new());
    registry.register(QUALITY_KIND, move |payload| {
        let job = QualityJob::decode(payload).map_err(|e| e.to_string())?;
        if job.start + job.len > job.total {
            return Err(format!(
                "quality shard [{}, {}) exceeds stream length {}",
                job.start,
                job.start + job.len,
                job.total
            ));
        }
        let key = (job.task.clone(), job.seed, job.epochs);
        let packed = {
            let mut cache = quality_cache.lock().expect("quality cache lock");
            if !cache.contains_key(&key) {
                let task = univsa_data::tasks::by_name(&job.task, job.seed)
                    .ok_or_else(|| format!("unknown task \"{}\"", job.task))?;
                let (d_h, d_l, d_k, o, theta) =
                    univsa_data::tasks::paper_config_tuple(&task.spec.name)
                        .ok_or_else(|| format!("no paper configuration for \"{}\"", job.task))?;
                let cfg = UniVsaConfig::for_task(&task.spec)
                    .d_h(d_h)
                    .d_l(d_l)
                    .d_k(d_k)
                    .out_channels(o)
                    .voters(theta)
                    .build()
                    .map_err(|e| e.to_string())?;
                let options = TrainOptions {
                    epochs: job.epochs,
                    ..TrainOptions::default()
                };
                let outcome = UniVsaTrainer::new(cfg, options)
                    .fit(&task.train, job.seed)
                    .map_err(|e| e.to_string())?;
                cache.insert(key.clone(), PackedModel::compile(&outcome.model));
            }
            cache[&key].clone()
        };
        let stream = univsa_data::tasks::drift_stream(&job.task, job.seed, job.total, job.drift)
            .ok_or_else(|| format!("unknown task \"{}\"", job.task))?;
        let mut rows = Vec::with_capacity(job.len);
        for sample in &stream[job.start..job.start + job.len] {
            let detail = packed
                .infer_detailed(&sample.values)
                .map_err(|e| e.to_string())?;
            rows.push((
                sample.label as u32,
                detail.label as u32,
                similarity_margin(&detail.totals),
            ));
        }
        Ok(encode_quality_results(&rows))
    });

    registry.register(SEU_TRIAL_KIND, |payload| {
        let job = SeuTrialJob::decode(payload).map_err(|e| e.to_string())?;
        let config = job.genome.to_config(&job.spec).map_err(|e| e.to_string())?;
        let pipeline = Pipeline::new(HwConfig::new(&config).with_protection(job.protection));
        let outcome = SeuCampaign::new(job.rate, job.seed).run(&pipeline, job.samples);
        Ok(encode_seu_outcome(&outcome))
    });

    registry
}

/// One genome evaluation of the paper's `Acc − L_HW` search objective.
/// The worker regenerates the task's synthetic splits from
/// `(task, data_seed)`, so the payload stays a few dozen bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FitnessJob {
    /// Task name resolvable by `univsa_data::tasks::by_name`.
    pub task: String,
    /// Seed the task's synthetic splits are generated from.
    pub data_seed: u64,
    /// Seed for the candidate's training run.
    pub train_seed: u64,
    /// Training epochs per evaluation.
    pub epochs: usize,
    /// The candidate configuration.
    pub genome: Genome,
}

impl FitnessJob {
    /// Serializes the job into a payload.
    ///
    /// # Errors
    ///
    /// [`UniVsaError::Ipc`] naming the field when a `usize` field does
    /// not fit its `u32` slot.
    pub fn encode(&self) -> Result<Vec<u8>, UniVsaError> {
        encode_payload(|w| {
            w.str(&self.task, "task name")?;
            w.u64(self.data_seed);
            w.u64(self.train_seed);
            w.len(self.epochs, "epochs")?;
            write_genome(w, &self.genome)
        })
    }

    /// Inverse of [`FitnessJob::encode`].
    ///
    /// # Errors
    ///
    /// [`UniVsaError::Ipc`] on truncated or malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, UniVsaError> {
        decode_payload(bytes, |r| {
            Ok(Self {
                task: r.string("task name")?,
                data_seed: r.u64()?,
                train_seed: r.u64()?,
                epochs: r.u32()? as usize,
                genome: read_genome(r)?,
            })
        })
    }
}

/// One shard of a prediction-quality stream evaluation. The worker
/// retrains the task's paper-configured model from `(task, seed, epochs)`
/// and regenerates the full drift stream, then evaluates only its
/// `[start, start + len)` slice — so shards from any worker mix
/// concatenate into exactly the sequential evaluation of the stream.
#[derive(Debug, Clone, PartialEq)]
pub struct QualityJob {
    /// Task name resolvable by `univsa_data::tasks::by_name`.
    pub task: String,
    /// Seed for the task's data, the training run, and the stream.
    pub seed: u64,
    /// Training epochs for the evaluated model.
    pub epochs: usize,
    /// Total stream length (every shard must agree on it).
    pub total: usize,
    /// Optional drift injection applied to the stream tail.
    pub drift: Option<DriftSpec>,
    /// First stream index this shard evaluates.
    pub start: usize,
    /// Number of samples this shard evaluates.
    pub len: usize,
}

impl QualityJob {
    /// Serializes the job into a payload.
    ///
    /// # Errors
    ///
    /// [`UniVsaError::Ipc`] naming the field when a `usize` field does
    /// not fit its `u32` slot.
    pub fn encode(&self) -> Result<Vec<u8>, UniVsaError> {
        encode_payload(|w| {
            w.str(&self.task, "task name")?;
            w.u64(self.seed);
            w.len(self.epochs, "epochs")?;
            w.len(self.total, "total")?;
            match self.drift {
                Some(d) => {
                    w.u8(1);
                    w.len(d.at, "drift.at")?;
                    w.f32(d.strength);
                }
                None => w.u8(0),
            }
            w.len(self.start, "start")?;
            w.len(self.len, "len")
        })
    }

    /// Inverse of [`QualityJob::encode`].
    ///
    /// # Errors
    ///
    /// [`UniVsaError::Ipc`] on truncated or malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, UniVsaError> {
        decode_payload(bytes, |r| {
            Ok(Self {
                task: r.string("task name")?,
                seed: r.u64()?,
                epochs: r.u32()? as usize,
                total: r.u32()? as usize,
                drift: match r.u8()? {
                    0 => None,
                    1 => Some(DriftSpec {
                        at: r.u32()? as usize,
                        strength: r.f32()?,
                    }),
                    flag => {
                        return Err(UniVsaError::Ipc(format!("invalid drift flag {flag}")));
                    }
                },
                start: r.u32()? as usize,
                len: r.u32()? as usize,
            })
        })
    }
}

/// Serializes [`QUALITY_KIND`] result rows: per evaluated sample, the
/// `(truth, predicted, margin)` triple as fixed-width little-endian
/// `(u32, u32, u64)`.
pub fn encode_quality_results(rows: &[(u32, u32, u64)]) -> Vec<u8> {
    let mut w = Writer::default();
    for &(truth, predicted, margin) in rows {
        w.u32(truth);
        w.u32(predicted);
        w.u64(margin);
    }
    w.into_bytes()
}

/// Inverse of [`encode_quality_results`].
///
/// # Errors
///
/// [`UniVsaError::Ipc`] unless the payload is a whole number of 16-byte
/// rows.
pub fn decode_quality_results(bytes: &[u8]) -> Result<Vec<(u32, u32, u64)>, UniVsaError> {
    decode_payload(bytes, |r| {
        (0..bytes.len() / 16)
            .map(|_| Ok((r.u32()?, r.u32()?, r.u64()?)))
            .collect()
    })
}

/// One trial of a seeded SEU campaign over a configuration's pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct SeuTrialJob {
    /// Geometry the configuration is built for.
    pub spec: univsa_data::TaskSpec,
    /// The configuration under irradiation.
    pub genome: Genome,
    /// Memory protection scheme.
    pub protection: Protection,
    /// Upset probability per stored bit per cycle.
    pub rate: f64,
    /// This trial's campaign seed (the sweep uses `base + trial`).
    pub seed: u64,
    /// Streamed batch size defining the exposure window.
    pub samples: usize,
}

impl SeuTrialJob {
    /// Serializes the job into a payload.
    ///
    /// # Errors
    ///
    /// [`UniVsaError::Ipc`] naming the field when a `usize` field does
    /// not fit its `u32` slot.
    pub fn encode(&self) -> Result<Vec<u8>, UniVsaError> {
        encode_payload(|w| {
            w.str(&self.spec.name, "task name")?;
            w.len(self.spec.width, "spec.width")?;
            w.len(self.spec.length, "spec.length")?;
            w.len(self.spec.classes, "spec.classes")?;
            w.len(self.spec.levels, "spec.levels")?;
            write_genome(w, &self.genome)?;
            w.u8(self.protection.tag());
            w.f64(self.rate);
            w.u64(self.seed);
            w.len(self.samples, "samples")
        })
    }

    /// Inverse of [`SeuTrialJob::encode`].
    ///
    /// # Errors
    ///
    /// [`UniVsaError::Ipc`] on truncated or malformed payloads.
    pub fn decode(bytes: &[u8]) -> Result<Self, UniVsaError> {
        decode_payload(bytes, |r| {
            Ok(Self {
                spec: univsa_data::TaskSpec {
                    name: r.string("task name")?,
                    width: r.u32()? as usize,
                    length: r.u32()? as usize,
                    classes: r.u32()? as usize,
                    levels: r.u32()? as usize,
                },
                genome: read_genome(r)?,
                protection: read_protection(r)?,
                rate: r.f64()?,
                seed: r.u64()?,
                samples: r.u32()? as usize,
            })
        })
    }
}

/// The [`PROBE_KIND`] surrogate objective: a pure hash of the job's
/// fields mapped into `[0, 1)`. Worthless as a search signal, but it has
/// exactly the property the fleet's determinism gate needs — the same
/// payload always scores the same, on any process, at zero cost.
pub fn probe_fitness(job: &FitnessJob) -> f64 {
    let mut h = univsa::crc32(job.task.as_bytes()) as u64;
    h ^= job.data_seed.rotate_left(17) ^ job.train_seed.rotate_left(31);
    h ^= (job.epochs as u64).rotate_left(47);
    for v in [
        job.genome.d_h,
        job.genome.d_l,
        job.genome.d_k,
        job.genome.out_channels,
        job.genome.voters,
    ] {
        h = splitmix(h ^ v as u64);
    }
    (h >> 11) as f64 / (1u64 << 53) as f64
}

fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Serializes a [`FITNESS_KIND`] or [`PROBE_KIND`] result: the score's
/// little-endian `f64` bits, so NaN payloads and `−∞` survive the round
/// trip exactly.
pub fn encode_fitness(score: f64) -> Vec<u8> {
    let mut w = Writer::default();
    w.f64(score);
    w.into_bytes()
}

/// Inverse of [`encode_fitness`].
///
/// # Errors
///
/// [`UniVsaError::Ipc`] unless the payload is exactly 8 bytes.
pub fn decode_fitness(bytes: &[u8]) -> Result<f64, UniVsaError> {
    decode_payload(bytes, Reader::f64)
}

/// Serializes a [`SeuOutcome`] as a [`SEU_TRIAL_KIND`] result payload.
pub fn encode_seu_outcome(outcome: &SeuOutcome) -> Vec<u8> {
    let mut w = Writer::default();
    w.u8(outcome.protection.tag());
    for v in [
        outcome.cycles,
        outcome.stored_bits,
        outcome.upsets,
        outcome.detected,
        outcome.corrected,
        outcome.silent,
    ] {
        w.u64(v);
    }
    w.into_bytes()
}

/// Inverse of [`encode_seu_outcome`].
///
/// # Errors
///
/// [`UniVsaError::Ipc`] on truncated payloads or unknown protection tags.
pub fn decode_seu_outcome(bytes: &[u8]) -> Result<SeuOutcome, UniVsaError> {
    decode_payload(bytes, |r| {
        Ok(SeuOutcome {
            protection: read_protection(r)?,
            cycles: r.u64()?,
            stored_bits: r.u64()?,
            upsets: r.u64()?,
            detected: r.u64()?,
            corrected: r.u64()?,
            silent: r.u64()?,
        })
    })
}

fn write_genome(w: &mut Writer, g: &Genome) -> Result<(), UniVsaError> {
    w.len(g.d_h, "genome.d_h")?;
    w.len(g.d_l, "genome.d_l")?;
    w.len(g.d_k, "genome.d_k")?;
    w.len(g.out_channels, "genome.out_channels")?;
    w.len(g.voters, "genome.voters")
}

fn read_genome(r: &mut Reader<'_>) -> Result<Genome, UniVsaError> {
    Ok(Genome {
        d_h: r.u32()? as usize,
        d_l: r.u32()? as usize,
        d_k: r.u32()? as usize,
        out_channels: r.u32()? as usize,
        voters: r.u32()? as usize,
    })
}

fn read_protection(r: &mut Reader<'_>) -> Result<Protection, UniVsaError> {
    let tag = r.u8()?;
    Protection::from_tag(tag)
        .ok_or_else(|| UniVsaError::Ipc(format!("unknown protection tag {tag}")))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn genome() -> Genome {
        Genome {
            d_h: 8,
            d_l: 2,
            d_k: 3,
            out_channels: 16,
            voters: 3,
        }
    }

    #[test]
    fn fitness_job_round_trips() {
        let job = FitnessJob {
            task: "BCI3V".into(),
            data_seed: 7,
            train_seed: 42,
            epochs: 3,
            genome: genome(),
        };
        assert_eq!(FitnessJob::decode(&job.encode().unwrap()).unwrap(), job);
    }

    #[test]
    fn seu_trial_job_round_trips() {
        for protection in Protection::ALL {
            let job = SeuTrialJob {
                spec: univsa_data::TaskSpec {
                    name: "BCI3V".into(),
                    width: 16,
                    length: 6,
                    classes: 3,
                    levels: 256,
                },
                genome: genome(),
                protection,
                rate: 1e-9,
                seed: 11,
                samples: 32,
            };
            assert_eq!(SeuTrialJob::decode(&job.encode().unwrap()).unwrap(), job);
        }
    }

    #[test]
    fn truncated_job_payloads_are_typed_errors() {
        let full = FitnessJob {
            task: "BCI3V".into(),
            data_seed: 1,
            train_seed: 2,
            epochs: 3,
            genome: genome(),
        }
        .encode()
        .unwrap();
        for cut in 0..full.len() {
            assert!(matches!(
                FitnessJob::decode(&full[..cut]).unwrap_err(),
                UniVsaError::Ipc(_)
            ));
        }
        let mut extended = full;
        extended.push(0);
        assert!(FitnessJob::decode(&extended).is_err());
    }

    #[test]
    fn fitness_result_preserves_every_f64_bit_pattern() {
        for value in [0.0, -0.75, f64::NEG_INFINITY, f64::MAX, f64::NAN] {
            let bytes = encode_fitness(value);
            assert_eq!(bytes, value.to_le_bytes());
            assert_eq!(decode_fitness(&bytes).unwrap().to_bits(), value.to_bits());
        }
        assert!(decode_fitness(&[0; 7]).is_err());
        assert!(decode_fitness(&[0; 9]).is_err());
    }

    #[test]
    fn seu_outcome_round_trips() {
        let outcome = SeuOutcome {
            protection: Protection::Tmr,
            cycles: 123_456,
            stored_bits: 98_304,
            upsets: 17,
            detected: 0,
            corrected: 15,
            silent: 2,
        };
        assert_eq!(
            decode_seu_outcome(&encode_seu_outcome(&outcome)).unwrap(),
            outcome
        );
        assert!(decode_seu_outcome(&[9]).is_err());
    }

    #[test]
    fn registry_runs_diagnostic_jobs() {
        let registry = standard_registry();
        assert_eq!(registry.run(ECHO_KIND, b"abc").unwrap(), b"abc");
        assert_eq!(
            registry.run(FAIL_KIND, b"boom").unwrap_err(),
            "boom".to_string()
        );
        let err = registry.run("no.such.kind", b"").unwrap_err();
        assert!(err.contains("no job handler"));
    }

    #[test]
    fn registry_evaluates_seu_trial() {
        let registry = standard_registry();
        let job = SeuTrialJob {
            spec: univsa_data::TaskSpec {
                name: "BCI3V".into(),
                width: 16,
                length: 6,
                classes: 3,
                levels: 256,
            },
            genome: genome(),
            protection: Protection::ParityDetect,
            rate: 1e-9,
            seed: 11,
            samples: 8,
        };
        let bytes = registry
            .run(SEU_TRIAL_KIND, &job.encode().unwrap())
            .unwrap();
        let outcome = decode_seu_outcome(&bytes).unwrap();
        assert_eq!(outcome.protection, Protection::ParityDetect);
        assert_eq!(
            outcome.detected + outcome.corrected + outcome.silent,
            outcome.upsets
        );
    }

    #[test]
    fn probe_fitness_is_deterministic_and_sensitive() {
        let registry = standard_registry();
        let job = FitnessJob {
            task: "BCI3V".into(),
            data_seed: 1,
            train_seed: 2,
            epochs: 3,
            genome: genome(),
        };
        let a = registry.run(PROBE_KIND, &job.encode().unwrap()).unwrap();
        assert_eq!(a, registry.run(PROBE_KIND, &job.encode().unwrap()).unwrap());
        let score = decode_fitness(&a).unwrap();
        assert!((0.0..1.0).contains(&score));
        let mut other = job.clone();
        other.genome.d_h = 16;
        assert_ne!(
            registry.run(PROBE_KIND, &other.encode().unwrap()).unwrap(),
            a
        );
    }

    #[test]
    fn registry_rejects_malformed_payloads_without_panicking() {
        let registry = standard_registry();
        for kind in [FITNESS_KIND, SEU_TRIAL_KIND, QUALITY_KIND] {
            assert!(registry.run(kind, b"junk").is_err());
        }
    }

    #[test]
    fn quality_job_round_trips_with_and_without_drift() {
        let mut job = QualityJob {
            task: "BCI3V".into(),
            seed: 7,
            epochs: 2,
            total: 256,
            drift: None,
            start: 64,
            len: 64,
        };
        assert_eq!(QualityJob::decode(&job.encode().unwrap()).unwrap(), job);
        job.drift = Some(DriftSpec {
            at: 128,
            strength: 0.35,
        });
        assert_eq!(QualityJob::decode(&job.encode().unwrap()).unwrap(), job);

        let full = job.encode().unwrap();
        for cut in 0..full.len() {
            assert!(matches!(
                QualityJob::decode(&full[..cut]).unwrap_err(),
                UniVsaError::Ipc(_)
            ));
        }
        let mut bad_flag = job.encode().unwrap();
        let flag_pos = 4 + 5 + 8 + 4 + 4;
        assert_eq!(bad_flag[flag_pos], 1);
        bad_flag[flag_pos] = 9;
        assert!(matches!(
            QualityJob::decode(&bad_flag).unwrap_err(),
            UniVsaError::Ipc(m) if m.contains("drift flag")
        ));
    }

    #[test]
    fn quality_results_round_trip_and_reject_ragged_payloads() {
        let rows = vec![(0, 1, 42u64), (2, 2, 0), (1, 0, u64::MAX)];
        let bytes = encode_quality_results(&rows);
        assert_eq!(decode_quality_results(&bytes).unwrap(), rows);
        assert!(decode_quality_results(&bytes[..17]).is_err());
        assert_eq!(decode_quality_results(&[]).unwrap(), Vec::new());
    }

    #[test]
    fn quality_handler_rejects_out_of_range_shards() {
        let registry = standard_registry();
        let job = QualityJob {
            task: "BCI3V".into(),
            seed: 1,
            epochs: 1,
            total: 16,
            drift: None,
            start: 8,
            len: 9,
        };
        let err = registry
            .run(QUALITY_KIND, &job.encode().unwrap())
            .unwrap_err();
        assert!(err.contains("exceeds stream length"), "{err}");
    }

    /// Encodes `job` after `set` writes `1 << 32` into one `usize` field:
    /// the encoder must refuse and name the field instead of writing its
    /// low 32 bits, and `u32::MAX` in the same field must round-trip.
    fn assert_wide_field_rejected<J: Clone + PartialEq + std::fmt::Debug>(
        job: &J,
        field: &str,
        set: impl Fn(&mut J, usize),
        encode: impl Fn(&J) -> Result<Vec<u8>, UniVsaError>,
        decode: impl Fn(&[u8]) -> Result<J, UniVsaError>,
    ) {
        let mut wide = job.clone();
        set(&mut wide, 1 << 32);
        match encode(&wide) {
            Err(UniVsaError::Ipc(m)) => assert!(m.contains(field), "{field}: {m}"),
            other => panic!("{field} = 2^32 encoded as {other:?}"),
        }
        let mut max = job.clone();
        set(&mut max, u32::MAX as usize);
        assert_eq!(decode(&encode(&max).unwrap()).unwrap(), max, "{field}");
    }

    #[test]
    fn fitness_job_refuses_fields_wider_than_u32() {
        let job = FitnessJob {
            task: "BCI3V".into(),
            data_seed: 1,
            train_seed: 2,
            epochs: 3,
            genome: genome(),
        };
        let (enc, dec) = (FitnessJob::encode, FitnessJob::decode);
        assert_wide_field_rejected(&job, "epochs", |j, v| j.epochs = v, enc, dec);
        assert_wide_field_rejected(
            &job,
            "genome.out_channels",
            |j, v| j.genome.out_channels = v,
            enc,
            dec,
        );
    }

    #[test]
    fn quality_job_refuses_fields_wider_than_u32() {
        let job = QualityJob {
            task: "BCI3V".into(),
            seed: 7,
            epochs: 2,
            total: 256,
            drift: Some(DriftSpec {
                at: 128,
                strength: 0.35,
            }),
            start: 64,
            len: 64,
        };
        let (enc, dec) = (QualityJob::encode, QualityJob::decode);
        assert_wide_field_rejected(&job, "total", |j, v| j.total = v, enc, dec);
        assert_wide_field_rejected(
            &job,
            "drift.at",
            |j, v| j.drift.as_mut().unwrap().at = v,
            enc,
            dec,
        );
        assert_wide_field_rejected(&job, "start", |j, v| j.start = v, enc, dec);
    }

    #[test]
    fn seu_trial_job_refuses_fields_wider_than_u32() {
        let job = SeuTrialJob {
            spec: univsa_data::TaskSpec {
                name: "BCI3V".into(),
                width: 16,
                length: 6,
                classes: 3,
                levels: 256,
            },
            genome: genome(),
            protection: Protection::Tmr,
            rate: 1e-9,
            seed: 11,
            samples: 32,
        };
        let (enc, dec) = (SeuTrialJob::encode, SeuTrialJob::decode);
        assert_wide_field_rejected(&job, "samples", |j, v| j.samples = v, enc, dec);
        assert_wide_field_rejected(&job, "spec.levels", |j, v| j.spec.levels = v, enc, dec);
    }
}
