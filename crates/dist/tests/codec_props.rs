//! Property-based tests for the IPC frame and message codecs: arbitrary
//! payloads round-trip exactly, and every corruption the chaos harness
//! can inflict — truncation, flipped payload bytes, flipped CRC bytes,
//! mangled headers — surfaces as a typed [`UniVsaError::Ipc`], never a
//! panic or a silently-wrong payload.

use std::io::Cursor;

use proptest::prelude::*;
use univsa::UniVsaError;
use univsa_dist::{
    decode_worker_batch, encode_worker_batch, read_frame, write_corrupt_frame, write_frame,
    FitnessJob, Frame, Message, SeuTrialJob, HEADER_LEN,
};
use univsa_search::Genome;
use univsa_telemetry::{QualityStats, WorkerBatch, WorkerSpan};

fn arb_payload() -> impl Strategy<Value = Vec<u8>> {
    (0usize..600).prop_flat_map(|n| proptest::collection::vec(any::<u8>(), n))
}

fn arb_genome() -> impl Strategy<Value = Genome> {
    (1usize..64, 1usize..64, 1usize..8, 1usize..256, 1usize..8).prop_map(
        |(d_h, d_l, d_k, out_channels, voters)| Genome {
            d_h,
            d_l,
            d_k,
            out_channels,
            voters,
        },
    )
}

fn encode(payload: &[u8]) -> Vec<u8> {
    let mut buf = Vec::new();
    write_frame(&mut buf, payload).unwrap();
    buf
}

proptest! {
    #[test]
    fn frame_round_trips_arbitrary_payloads(payload in arb_payload()) {
        let buf = encode(&payload);
        prop_assert_eq!(buf.len(), HEADER_LEN + payload.len());
        let mut cursor = Cursor::new(buf);
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), Frame::Payload(payload));
        prop_assert_eq!(read_frame(&mut cursor).unwrap(), Frame::Eof);
    }

    #[test]
    fn any_truncation_is_a_typed_error(payload in arb_payload(), cut in 0usize..600) {
        let buf = encode(&payload);
        // cut strictly inside the frame (cutting at full length is the
        // round-trip case; cutting at 0 is clean EOF)
        let cut = 1 + cut % (buf.len() - 1);
        match read_frame(&mut Cursor::new(&buf[..cut])) {
            Err(UniVsaError::Ipc(_)) => {}
            other => panic!("cut at {cut}/{} gave {other:?}", buf.len()),
        }
    }

    #[test]
    fn any_single_byte_flip_is_a_typed_error(
        payload in (1usize..600).prop_flat_map(|n| proptest::collection::vec(any::<u8>(), n)),
        position in any::<u64>(),
        bit in 0u32..8,
    ) {
        let mut buf = encode(&payload);
        let position = (position % buf.len() as u64) as usize;
        buf[position] ^= 1 << bit;
        // a flipped length prefix either overruns the buffer (truncated)
        // or shortens the payload (checksum mismatch); a flipped CRC or
        // payload byte is always a checksum mismatch
        match read_frame(&mut Cursor::new(buf)) {
            Err(UniVsaError::Ipc(_)) => {}
            other => panic!("flip at byte {position} bit {bit} gave {other:?}"),
        }
    }

    #[test]
    fn corrupt_frame_helper_always_trips_the_checksum(payload in arb_payload()) {
        let mut buf = Vec::new();
        write_corrupt_frame(&mut buf, &payload).unwrap();
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        prop_assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn task_messages_round_trip(
        id in any::<u64>(),
        attempt in 0u32..1000,
        payload in arb_payload(),
    ) {
        let message = Message::Task {
            id,
            attempt,
            kind: "search.fitness".into(),
            payload,
        };
        prop_assert_eq!(Message::decode(&message.encode().unwrap()).unwrap(), message);
    }

    #[test]
    fn result_messages_round_trip(id in any::<u64>(), payload in arb_payload()) {
        let ok = Message::TaskOk { id, payload };
        prop_assert_eq!(Message::decode(&ok.encode().unwrap()).unwrap(), ok);
        let err = Message::TaskErr {
            id,
            message: format!("task {id} exploded"),
        };
        prop_assert_eq!(Message::decode(&err.encode().unwrap()).unwrap(), err);
    }

    #[test]
    fn message_decode_never_panics_on_garbage(bytes in arb_payload()) {
        // decoding arbitrary bytes must return, not panic
        let _ = Message::decode(&bytes);
    }

    #[test]
    fn telemetry_messages_round_trip(slot in any::<u32>(), batch in arb_payload()) {
        let message = Message::Telemetry { slot, batch };
        prop_assert_eq!(Message::decode(&message.encode().unwrap()).unwrap(), message);
    }

    #[test]
    fn telemetry_message_corruption_is_a_typed_error(
        slot in any::<u32>(),
        batch in (1usize..300).prop_flat_map(|n| proptest::collection::vec(any::<u8>(), n)),
        cut in any::<u64>(),
    ) {
        let full = Message::Telemetry { slot, batch }.encode().unwrap();
        let cut = (cut % full.len() as u64) as usize;
        match Message::decode(&full[..cut]) {
            Err(UniVsaError::Ipc(_)) => {}
            other => panic!("cut at {cut}/{} gave {other:?}", full.len()),
        }
    }

    #[test]
    fn worker_batch_round_trips(
        dropped in any::<u64>(),
        net_bytes in any::<i64>(),
        alloc_count in any::<u64>(),
        peak_bytes in any::<u64>(),
        counters in proptest::collection::vec((any::<u8>(), any::<u64>()), 0usize..8),
        spans in proptest::collection::vec(
            (any::<u64>(), any::<bool>(), any::<u64>(), any::<u64>(), any::<u64>()),
            0usize..8,
        ),
        task in prop_oneof![
            Just(None),
            (0u8..26).prop_map(|n| Some(format!("task-{n}"))),
        ],
        predictions in proptest::collection::vec((any::<u8>(), any::<u32>()), 0usize..8),
        outcomes in proptest::collection::vec(
            (any::<u8>(), any::<u8>(), any::<u32>()),
            0usize..8,
        ),
    ) {
        let mut quality = QualityStats {
            task,
            ..QualityStats::default()
        };
        for (class, margin) in predictions {
            quality.record_prediction(class as u32, margin as u64);
        }
        for (truth, predicted, margin) in outcomes {
            quality.record_outcome(truth as u32, predicted as u32, margin as u64);
        }
        let batch = WorkerBatch {
            clock_ns: 42,
            dropped,
            net_bytes,
            alloc_count,
            peak_bytes,
            counters: counters
                .into_iter()
                .map(|(tag, value)| (format!("counter.{tag}"), value))
                .collect(),
            spans: spans
                .into_iter()
                .map(|(id, has_parent, parent, start_ns, dur_ns)| WorkerSpan {
                    id,
                    parent: has_parent.then_some(parent),
                    lane: "main".into(),
                    layer: "worker".into(),
                    name: "task".into(),
                    start_ns,
                    dur_ns,
                })
                .collect(),
            quality,
        };
        prop_assert_eq!(decode_worker_batch(&encode_worker_batch(&batch).unwrap()).unwrap(), batch);
    }

    #[test]
    fn worker_batch_decode_never_panics_on_garbage(bytes in arb_payload()) {
        // the supervisor feeds untrusted worker bytes straight into this
        // decoder; every outcome must be a value, never a panic
        let _ = decode_worker_batch(&bytes);
    }

    #[test]
    fn fitness_jobs_round_trip(
        genome in arb_genome(),
        data_seed in any::<u64>(),
        train_seed in any::<u64>(),
        epochs in 1usize..100,
    ) {
        let job = FitnessJob {
            task: "BCI3V".into(),
            data_seed,
            train_seed,
            epochs,
            genome,
        };
        prop_assert_eq!(FitnessJob::decode(&job.encode().unwrap()).unwrap(), job);
    }

    #[test]
    fn seu_trial_jobs_round_trip(
        genome in arb_genome(),
        seed in any::<u64>(),
        samples in 1usize..1000,
        protection_tag in 0u8..3,
    ) {
        let job = SeuTrialJob {
            spec: univsa_data::TaskSpec {
                name: "BCI3V".into(),
                width: 16,
                length: 6,
                classes: 3,
                levels: 256,
            },
            genome,
            protection: univsa_hw::Protection::from_tag(protection_tag).unwrap(),
            rate: 1e-9,
            seed,
            samples,
        };
        prop_assert_eq!(SeuTrialJob::decode(&job.encode().unwrap()).unwrap(), job);
    }
}
