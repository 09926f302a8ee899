//! The supervisor ↔ worker message vocabulary.
//!
//! Each message is encoded into one [frame](crate::frame) payload: a
//! single tag byte followed by fixed-width little-endian fields and
//! `u32`-length-prefixed byte strings. Every IPC format of the fleet —
//! these messages, frame headers, job payloads and results, worker
//! telemetry batches — is written and read with the shared
//! [`univsa::codec`], through `encode_payload` and `decode_payload`.
//! Decoding is total — every malformed input maps to
//! [`UniVsaError::Ipc`], never a panic — because worker stdout is an
//! untrusted channel once the chaos harness starts flipping bytes on it.

use univsa::codec::{Reader, Writer};
use univsa::UniVsaError;

/// One IPC message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Liveness probe (supervisor → worker).
    Ping {
        /// Echo token: the matching [`Message::Pong`] must return it.
        nonce: u64,
    },
    /// Liveness reply (worker → supervisor).
    Pong {
        /// The nonce from the [`Message::Ping`] being answered.
        nonce: u64,
        /// Nanoseconds on the worker's telemetry clock when the pong was
        /// written — the supervisor pairs it with its own send/receive
        /// instants to estimate the clock offset that aligns forwarded
        /// worker spans onto its timeline.
        clock_ns: u64,
    },
    /// A job dispatch (supervisor → worker).
    Task {
        /// Stable job index; results are keyed by it.
        id: u64,
        /// Zero-based delivery attempt (drives chaos decisions, so a
        /// retry of a crashed task rolls fresh fault dice).
        attempt: u32,
        /// Registered handler name, e.g. `"search.fitness"`.
        kind: String,
        /// Handler-specific input bytes.
        payload: Vec<u8>,
    },
    /// A successful job result (worker → supervisor).
    TaskOk {
        /// The id of the completed [`Message::Task`].
        id: u64,
        /// Handler-specific output bytes.
        payload: Vec<u8>,
    },
    /// A definitive job failure (worker → supervisor). The worker stays
    /// alive; the supervisor aborts the batch with this message.
    TaskErr {
        /// The id of the failed [`Message::Task`].
        id: u64,
        /// Human-readable cause, propagated verbatim to the caller.
        message: String,
    },
    /// Orderly shutdown request (supervisor → worker); the worker exits
    /// 0 after reading it.
    Shutdown,
    /// A worker-side telemetry batch (worker → supervisor), flushed
    /// ahead of each task reply and before shutdown. The payload is a
    /// [`univsa_telemetry::WorkerBatch`] encoded by
    /// [`encode_worker_batch`](crate::encode_worker_batch), kept opaque
    /// here so a batch that fails *its* decode is dropped and counted by
    /// the supervisor, never an IPC error.
    Telemetry {
        /// The sending worker's fleet slot.
        slot: u32,
        /// Encoded [`univsa_telemetry::WorkerBatch`] bytes.
        batch: Vec<u8>,
    },
}

const TAG_PING: u8 = 1;
const TAG_PONG: u8 = 2;
const TAG_TASK: u8 = 3;
const TAG_TASK_OK: u8 = 4;
const TAG_TASK_ERR: u8 = 5;
const TAG_SHUTDOWN: u8 = 6;
const TAG_TELEMETRY: u8 = 7;

impl Message {
    /// Serializes the message into a frame payload.
    ///
    /// # Errors
    ///
    /// [`UniVsaError::Ipc`] if a string or byte field is longer than its
    /// `u32` length prefix can express.
    pub fn encode(&self) -> Result<Vec<u8>, UniVsaError> {
        encode_payload(|w| {
            match self {
                Message::Ping { nonce } => {
                    w.u8(TAG_PING);
                    w.u64(*nonce);
                }
                Message::Pong { nonce, clock_ns } => {
                    w.u8(TAG_PONG);
                    w.u64(*nonce);
                    w.u64(*clock_ns);
                }
                Message::Task {
                    id,
                    attempt,
                    kind,
                    payload,
                } => {
                    w.u8(TAG_TASK);
                    w.u64(*id);
                    w.u32(*attempt);
                    w.str(kind, "task kind")?;
                    w.bytes(payload, "task payload")?;
                }
                Message::TaskOk { id, payload } => {
                    w.u8(TAG_TASK_OK);
                    w.u64(*id);
                    w.bytes(payload, "result payload")?;
                }
                Message::TaskErr { id, message } => {
                    w.u8(TAG_TASK_ERR);
                    w.u64(*id);
                    w.str(message, "error message")?;
                }
                Message::Shutdown => w.u8(TAG_SHUTDOWN),
                Message::Telemetry { slot, batch } => {
                    w.u8(TAG_TELEMETRY);
                    w.u32(*slot);
                    w.bytes(batch, "telemetry batch")?;
                }
            }
            Ok(())
        })
    }

    /// Deserializes a frame payload.
    ///
    /// # Errors
    ///
    /// [`UniVsaError::Ipc`] on an empty payload, unknown tag, truncated
    /// field, invalid UTF-8 in a string field, or trailing garbage.
    pub fn decode(bytes: &[u8]) -> Result<Message, UniVsaError> {
        decode_payload(bytes, |r| {
            Ok(match r.u8()? {
                TAG_PING => Message::Ping { nonce: r.u64()? },
                TAG_PONG => Message::Pong {
                    nonce: r.u64()?,
                    clock_ns: r.u64()?,
                },
                TAG_TASK => Message::Task {
                    id: r.u64()?,
                    attempt: r.u32()?,
                    kind: r.string("task kind")?,
                    payload: r.bytes()?.to_vec(),
                },
                TAG_TASK_OK => Message::TaskOk {
                    id: r.u64()?,
                    payload: r.bytes()?.to_vec(),
                },
                TAG_TASK_ERR => Message::TaskErr {
                    id: r.u64()?,
                    message: r.string("error message")?,
                },
                TAG_SHUTDOWN => Message::Shutdown,
                TAG_TELEMETRY => Message::Telemetry {
                    slot: r.u32()?,
                    batch: r.bytes()?.to_vec(),
                },
                other => {
                    return Err(UniVsaError::Ipc(format!("unknown message tag {other}")));
                }
            })
        })
    }
}

/// Runs `write` against a fresh [`Writer`] and returns its bytes. The
/// codec's errors (a `usize` too large for its `u32` field) come back as
/// [`UniVsaError::Ipc`], like every other IPC failure.
pub(crate) fn encode_payload(
    write: impl FnOnce(&mut Writer) -> Result<(), UniVsaError>,
) -> Result<Vec<u8>, UniVsaError> {
    let mut w = Writer::default();
    write(&mut w).map_err(ipc)?;
    Ok(w.into_bytes())
}

/// Runs `read` over `bytes`, requires it to consume every byte, and
/// reports the codec's errors as [`UniVsaError::Ipc`] — the one place an
/// IPC decoder translates them.
pub(crate) fn decode_payload<'a, T>(
    bytes: &'a [u8],
    read: impl FnOnce(&mut Reader<'a>) -> Result<T, UniVsaError>,
) -> Result<T, UniVsaError> {
    let mut r = Reader::new(bytes);
    read(&mut r)
        .and_then(|value| r.finish().map(|()| value))
        .map_err(ipc)
}

/// Reports a codec error as an IPC error; other kinds pass through.
fn ipc(e: UniVsaError) -> UniVsaError {
    match e {
        UniVsaError::Serialize(m) => UniVsaError::Ipc(m),
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn examples() -> Vec<Message> {
        vec![
            Message::Ping { nonce: 7 },
            Message::Pong {
                nonce: u64::MAX,
                clock_ns: 1_234_567,
            },
            Message::Task {
                id: 3,
                attempt: 2,
                kind: "search.fitness".into(),
                payload: vec![1, 2, 3, 0, 255],
            },
            Message::Task {
                id: 0,
                attempt: 0,
                kind: String::new(),
                payload: Vec::new(),
            },
            Message::TaskOk {
                id: 9,
                payload: vec![0; 64],
            },
            Message::TaskErr {
                id: 4,
                message: "invalid configuration: D_H too small".into(),
            },
            Message::Shutdown,
            Message::Telemetry {
                slot: 3,
                batch: vec![1, 0, 255, 42],
            },
            Message::Telemetry {
                slot: 0,
                batch: Vec::new(),
            },
        ]
    }

    #[test]
    fn messages_round_trip() {
        for m in examples() {
            assert_eq!(Message::decode(&m.encode().unwrap()).unwrap(), m, "{m:?}");
        }
    }

    #[test]
    fn empty_and_unknown_tags_are_typed_errors() {
        assert!(matches!(
            Message::decode(&[]).unwrap_err(),
            UniVsaError::Ipc(_)
        ));
        let err = Message::decode(&[0xEE]).unwrap_err();
        assert!(err.to_string().contains("unknown message tag"));
    }

    #[test]
    fn every_truncation_is_a_typed_error() {
        for m in examples() {
            let full = m.encode().unwrap();
            for cut in 0..full.len() {
                match Message::decode(&full[..cut]) {
                    Err(UniVsaError::Ipc(_)) => {}
                    other => panic!("{m:?} cut to {cut} bytes gave {other:?}"),
                }
            }
        }
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = Message::Shutdown.encode().unwrap();
        bytes.push(0);
        let err = Message::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("trailing"));
    }

    #[test]
    fn bad_utf8_in_kind_is_rejected() {
        let mut bytes = Vec::new();
        bytes.push(3); // Task tag
        bytes.extend_from_slice(&1u64.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        bytes.extend_from_slice(&2u32.to_le_bytes());
        bytes.extend_from_slice(&[0xFF, 0xFE]);
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let err = Message::decode(&bytes).unwrap_err();
        assert!(err.to_string().contains("UTF-8"));
    }
}
