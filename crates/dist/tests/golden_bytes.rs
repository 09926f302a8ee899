//! Every IPC byte format of the worker fleet — the seven `Message`
//! variants, each job payload, each job result and a worker telemetry
//! batch — pinned by CRC-32 and length. The checksums were taken from the
//! hand-rolled encoders before the formats moved onto the shared
//! `univsa::codec`, so any change to the bytes on the wire fails here.

mod samples;

use univsa::crc32;

/// `(name, crc32, length)` of each encoding in `samples::encodings`.
const GOLDEN: [(&str, u32, usize); 15] = [
    ("ping", 0xd06b_3dc3, 9),
    ("pong", 0xad51_3621, 17),
    ("task", 0xc5b8_e918, 40),
    ("task_ok", 0xe1be_5209, 21),
    ("task_err", 0x06be_91cc, 49),
    ("shutdown", 0x3b61_4ab8, 1),
    ("telemetry", 0x71f0_cf11, 13),
    ("fitness_job", 0xc8ce_4393, 53),
    ("quality_job", 0x8e95_8a22, 34),
    ("quality_job_drift", 0x97a8_9903, 42),
    ("seu_trial_job", 0xd93b_8202, 70),
    ("seu_outcome", 0xa96c_e602, 49),
    ("quality_rows", 0xc2a2_1df2, 32),
    ("fitness", 0xa85b_0890, 8),
    ("worker_batch", 0x4ca3_c844, 761),
];

#[test]
fn ipc_bytes_match_the_golden_checksums() {
    let got: Vec<(&str, u32, usize)> = samples::encodings()
        .iter()
        .map(|(name, bytes)| (*name, crc32(bytes), bytes.len()))
        .collect();
    assert_eq!(got, GOLDEN);
}
