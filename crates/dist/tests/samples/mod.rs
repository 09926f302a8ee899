//! Fixed instances of every IPC byte format, shared by the golden-bytes
//! check and the hostile-input property.

use univsa_data::DriftSpec;
use univsa_dist::{
    encode_fitness, encode_quality_results, encode_seu_outcome, encode_worker_batch, FitnessJob,
    Message, QualityJob, SeuTrialJob,
};
use univsa_hw::{Protection, SeuOutcome};
use univsa_search::Genome;
use univsa_telemetry::{QualityStats, WorkerBatch, WorkerSpan};

fn genome() -> Genome {
    Genome {
        d_h: 8,
        d_l: 2,
        d_k: 3,
        out_channels: 16,
        voters: 3,
    }
}

fn batch() -> WorkerBatch {
    let mut quality = QualityStats {
        task: Some("bci3v".into()),
        ..QualityStats::default()
    };
    quality.record_prediction(0, 12);
    quality.record_prediction(2, 0);
    quality.record_prediction(2, 70_000);
    quality.record_outcome(2, 2, 70_000);
    quality.record_outcome(1, 2, 0);
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
        quality,
    }
}

/// One fixed encoding of each IPC format, by name.
pub fn encodings() -> Vec<(&'static str, Vec<u8>)> {
    let messages = [
        (
            "ping",
            Message::Ping {
                nonce: 0x0123_4567_89ab_cdef,
            },
        ),
        (
            "pong",
            Message::Pong {
                nonce: 7,
                clock_ns: 1_234_567_890,
            },
        ),
        (
            "task",
            Message::Task {
                id: 3,
                attempt: 2,
                kind: "search.fitness".into(),
                payload: vec![1, 2, 3, 0, 255],
            },
        ),
        (
            "task_ok",
            Message::TaskOk {
                id: 9,
                payload: b"ok-bytes".to_vec(),
            },
        ),
        (
            "task_err",
            Message::TaskErr {
                id: 4,
                message: "invalid configuration: D_H too small".into(),
            },
        ),
        ("shutdown", Message::Shutdown),
        (
            "telemetry",
            Message::Telemetry {
                slot: 3,
                batch: vec![1, 0, 255, 42],
            },
        ),
    ];
    let mut out: Vec<(&str, Vec<u8>)> = messages
        .into_iter()
        .map(|(name, m)| (name, m.encode().unwrap()))
        .collect();
    let fitness_job = FitnessJob {
        task: "BCI-III-V".into(),
        data_seed: 2025,
        train_seed: 42,
        epochs: 3,
        genome: genome(),
    };
    out.push(("fitness_job", fitness_job.encode().unwrap()));
    let mut quality_job = QualityJob {
        task: "CHB-B".into(),
        seed: 7,
        epochs: 2,
        total: 256,
        drift: None,
        start: 64,
        len: 64,
    };
    out.push(("quality_job", quality_job.encode().unwrap()));
    quality_job.drift = Some(DriftSpec {
        at: 128,
        strength: 0.35,
    });
    out.push(("quality_job_drift", quality_job.encode().unwrap()));
    let seu_job = SeuTrialJob {
        spec: univsa_data::TaskSpec {
            name: "BCI-III-V".into(),
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
    out.push(("seu_trial_job", seu_job.encode().unwrap()));
    let outcome = SeuOutcome {
        protection: Protection::Tmr,
        cycles: 123_456,
        stored_bits: 98_304,
        upsets: 17,
        detected: 0,
        corrected: 15,
        silent: 2,
    };
    out.push(("seu_outcome", encode_seu_outcome(&outcome)));
    out.push((
        "quality_rows",
        encode_quality_results(&[(0, 1, 42), (2, 2, u64::MAX)]),
    ));
    out.push(("fitness", encode_fitness(-0.75)));
    out.push(("worker_batch", encode_worker_batch(&batch()).unwrap()));
    out
}
