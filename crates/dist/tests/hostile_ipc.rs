//! Hostile input for every IPC decoder of the worker fleet, all of which
//! read through the shared `univsa::codec::Reader`: arbitrary bytes, and
//! valid encodings with one `u32` field — every count and length prefix
//! among them — rewritten. Each decoder must answer with a value or a
//! typed [`UniVsaError::Ipc`], never a panic, and its peak heap use must
//! stay within `SLOPE · input length + SLACK` bytes, measured with the
//! counting allocator.
//!
//! The allocation ledger is process-global, so this binary holds exactly
//! one test: no concurrent test can allocate inside a measurement.

mod samples;

use std::io::Cursor;

use proptest::prelude::*;
use univsa::UniVsaError;
use univsa_dist::{
    decode_fitness, decode_quality_results, decode_seu_outcome, decode_worker_batch, read_frame,
    write_frame, FitnessJob, Message, QualityJob, SeuTrialJob,
};

/// Peak heap bytes a decoder may use per input byte, plus a constant.
/// The largest legitimate ratio is a worker batch of minimal-size
/// elements decoding into `Vec`/`BTreeMap` entries several times wider.
const SLOPE: u64 = 32;
const SLACK: u64 = 4096;

type Decoder = fn(&[u8]) -> Result<(), UniVsaError>;

/// Every IPC decoder, by name, with its value discarded.
const DECODERS: [(&str, Decoder); 9] = [
    ("frame", |b| read_frame(&mut Cursor::new(b)).map(drop)),
    ("message", |b| Message::decode(b).map(drop)),
    ("fitness_job", |b| FitnessJob::decode(b).map(drop)),
    ("quality_job", |b| QualityJob::decode(b).map(drop)),
    ("seu_trial_job", |b| SeuTrialJob::decode(b).map(drop)),
    ("seu_outcome", |b| decode_seu_outcome(b).map(drop)),
    ("quality_rows", |b| decode_quality_results(b).map(drop)),
    ("fitness", |b| decode_fitness(b).map(drop)),
    ("worker_batch", |b| decode_worker_batch(b).map(drop)),
];

/// Runs `decode` on `bytes` and checks the outcome and the peak heap use.
fn check(name: &str, decode: Decoder, bytes: &[u8]) {
    univsa_telemetry::reset_peak();
    let live = univsa_telemetry::mem_stats().live_bytes;
    let outcome = decode(bytes);
    let peak = univsa_telemetry::mem_stats()
        .peak_bytes
        .saturating_sub(live);
    match outcome {
        Ok(()) | Err(UniVsaError::Ipc(_)) => {}
        Err(other) => panic!("{name}: {bytes:02x?} gave an untyped error {other:?}"),
    }
    let bound = SLOPE * bytes.len() as u64 + SLACK;
    assert!(
        peak <= bound,
        "{name}: {} input bytes peaked at {peak} heap bytes (bound {bound})",
        bytes.len()
    );
}

/// Every fixed encoding, plus each message inside its frame, paired with
/// the decoder that reads it.
fn valid_inputs() -> Vec<(&'static str, Decoder, Vec<u8>)> {
    let decoder = |name: &str| DECODERS.iter().find(|(n, _)| *n == name).unwrap().1;
    let mut inputs = Vec::new();
    for (name, bytes) in samples::encodings() {
        let kind = if Message::decode(&bytes).is_ok() {
            let mut framed = Vec::new();
            write_frame(&mut framed, &bytes).unwrap();
            inputs.push(("frame", decoder("frame"), framed));
            "message"
        } else {
            name.trim_end_matches("_drift")
        };
        assert!(
            decoder(kind)(&bytes).is_ok(),
            "{name} must decode as {kind}"
        );
        inputs.push((kind, decoder(kind), bytes));
    }
    inputs
}

fn arb_bytes() -> impl Strategy<Value = Vec<u8>> {
    (0usize..800).prop_flat_map(|n| proptest::collection::vec(any::<u8>(), n))
}

proptest! {
    #[test]
    fn ipc_decoders_answer_hostile_bytes_with_typed_errors_in_bounded_memory(
        junk in arb_bytes(),
        lead in 0u8..8,
        hostile in prop_oneof![
            Just(0u32),
            Just(1u32),
            Just(0x7FFF_FFFFu32),
            Just(u32::MAX),
            any::<u32>(),
        ],
    ) {
        univsa_telemetry::enable_mem_tracking();
        // arbitrary bytes, and the same bytes behind a valid message tag
        // or batch version so the decoders get past their first byte
        let mut led = junk.clone();
        led.insert(0, lead);
        for (name, decode) in DECODERS {
            check(name, decode, &junk);
            check(name, decode, &led);
        }
        // each valid encoding with one u32 field rewritten: at every
        // offset, to the hostile value and to its neighbours
        for (name, decode, bytes) in valid_inputs() {
            for pos in 0..bytes.len().saturating_sub(3) {
                let field = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
                for value in [hostile, field.wrapping_add(1), field.wrapping_sub(1)] {
                    let mut mutated = bytes.clone();
                    mutated[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
                    check(name, decode, &mutated);
                }
            }
        }
    }
}
