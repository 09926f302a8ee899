//! The worker side of the fleet: a frame-pump over stdin/stdout.
//!
//! A worker is the same `univsa` binary re-executed with
//! [`WORKER_ENV_VAR`] set; the CLI checks that before argument parsing
//! and hands control to [`worker_main`]. The loop reads framed
//! [`Message`]s from stdin, runs [`Message::Task`]s through the shared
//! [`JobRegistry`](crate::JobRegistry), and writes the replies to
//! stdout. Anything nondeterministic (logging, panics) goes to stderr —
//! stdout carries only frames.
//!
//! Fault injection lives here too: when [`univsa::CHAOS_ENV_VAR`] is
//! set, the worker consults the parsed [`ChaosSpec`] before and after
//! each task and may crash, hang, corrupt its reply frame, or delay its
//! startup handshake. The decisions are pure functions of
//! `(seed, task, attempt)`, so a chaos run is exactly reproducible.

use std::io::{Read, Write};
use std::time::{Duration, Instant};

use univsa::{ChaosSpec, UniVsaError};
use univsa_telemetry::{MemStats, DEFAULT_TRACE_CAPACITY};

use crate::forward::encode_worker_batch;
use crate::frame::{read_frame, write_corrupt_frame, write_frame, Frame};
use crate::proto::Message;
use crate::JobRegistry;

/// Set (to any value) in a spawned worker's environment; the CLI enters
/// [`worker_main`] instead of parsing arguments when it sees this.
pub const WORKER_ENV_VAR: &str = "UNIVSA_WORKER_JOBS";
/// The worker's slot index in the fleet (feeds slow-start decisions).
pub const SLOT_ENV_VAR: &str = "UNIVSA_WORKER_SLOT";
/// The slot's respawn generation (0 for the first process in a slot).
pub const GEN_ENV_VAR: &str = "UNIVSA_WORKER_GEN";
/// Set by the supervisor (only when its own telemetry is enabled) to
/// make the worker capture spans/counters/allocation stats locally and
/// forward them as [`Message::Telemetry`] batches. Absent ⇒ the worker
/// records nothing and no telemetry frames cross the pipe.
pub const TELEMETRY_ENV_VAR: &str = "UNIVSA_WORKER_TELEMETRY";

/// Process exit code for a chaos-injected crash (distinct from the
/// panic runtime's 101 so logs can tell them apart).
pub const CHAOS_CRASH_EXIT: i32 = 86;

/// Whether this process was spawned as a fleet worker.
pub fn worker_env_requested() -> bool {
    std::env::var_os(WORKER_ENV_VAR).is_some()
}

/// Runs the worker loop over this process's stdin/stdout until the
/// supervisor sends [`Message::Shutdown`] or closes the pipe.
///
/// # Errors
///
/// [`UniVsaError::Ipc`] on a malformed inbound frame or an unexpected
/// message, [`UniVsaError::Io`] when a pipe breaks mid-write, and
/// [`UniVsaError::Config`] for an unparsable [`univsa::CHAOS_ENV_VAR`].
/// Handler-level failures are **not** errors here — they travel back as
/// [`Message::TaskErr`] and the loop keeps serving.
pub fn worker_main(registry: &JobRegistry) -> Result<(), UniVsaError> {
    let chaos = match std::env::var(univsa::CHAOS_ENV_VAR) {
        Ok(spec) => ChaosSpec::parse(&spec)?,
        Err(_) => ChaosSpec::default(),
    };
    let slot = env_u64(SLOT_ENV_VAR);
    let generation = env_u64(GEN_ENV_VAR);
    if let Some(delay) = chaos.slow_start_delay(slot, generation) {
        std::thread::sleep(delay);
    }
    let forward = std::env::var_os(TELEMETRY_ENV_VAR).is_some();
    if forward {
        // the worker's own registry is mode-off (the supervisor strips
        // UNIVSA_TELEMETRY so stderr stays clean); the flight recorder
        // alone collects spans and counters for forwarding
        univsa_telemetry::enable_tracing(DEFAULT_TRACE_CAPACITY);
    }
    let stdin = std::io::stdin();
    let stdout = std::io::stdout();
    serve_worker(
        &mut stdin.lock(),
        &mut stdout.lock(),
        registry,
        &chaos,
        slot as u32,
        forward,
    )
}

/// The transport-agnostic worker loop without telemetry forwarding
/// ([`serve_worker`] with forwarding off; tests drive it over in-memory
/// pipes).
pub fn serve(
    input: &mut impl Read,
    output: &mut impl Write,
    registry: &JobRegistry,
    chaos: &ChaosSpec,
) -> Result<(), UniVsaError> {
    serve_worker(input, output, registry, chaos, 0, false)
}

/// The transport-agnostic worker loop. With `forward` set, each task
/// runs inside a `worker.task` span, `jobs`/`busy_ns` counters
/// accumulate, and everything captured since the previous flush ships
/// as a [`Message::Telemetry`] frame **before** the task's reply frame
/// (so the supervisor absorbs it while the dispatching task region is
/// still open) and once more at shutdown.
pub fn serve_worker(
    input: &mut impl Read,
    output: &mut impl Write,
    registry: &JobRegistry,
    chaos: &ChaosSpec,
    slot: u32,
    forward: bool,
) -> Result<(), UniVsaError> {
    let mut flusher = forward.then(TelemetryFlusher::new);
    loop {
        let payload = match read_frame(input)? {
            Frame::Eof => return Ok(()),
            Frame::Payload(payload) => payload,
        };
        match Message::decode(&payload)? {
            Message::Ping { nonce } => {
                let pong = Message::Pong {
                    nonce,
                    clock_ns: univsa_telemetry::clock_ns(),
                };
                write_frame(output, &pong.encode()?)?;
            }
            Message::Shutdown => {
                // last chance to ship whatever accumulated since the
                // final task; best-effort — the supervisor may already
                // have dropped the pipe
                if let Some(f) = flusher.as_mut() {
                    let _ = f.flush(output, slot, false);
                }
                return Ok(());
            }
            Message::Task {
                id,
                attempt,
                kind,
                payload,
            } => {
                if chaos.crash_task(id, u64::from(attempt)) {
                    std::process::exit(CHAOS_CRASH_EXIT);
                }
                if chaos.hang_task(id, u64::from(attempt)) {
                    // simulate a wedged worker: never reply, never exit —
                    // the supervisor's deadline has to reap this process
                    loop {
                        std::thread::sleep(Duration::from_secs(3600));
                    }
                }
                let started = Instant::now();
                let reply = {
                    let _task_span = forward.then(|| {
                        univsa_telemetry::span("worker", "task")
                            .field("job", id)
                            .field("attempt", u64::from(attempt))
                    });
                    match registry.run(&kind, &payload) {
                        Ok(result) => Message::TaskOk {
                            id,
                            payload: result,
                        },
                        Err(message) => Message::TaskErr { id, message },
                    }
                };
                if forward {
                    univsa_telemetry::counter("jobs", 1);
                    univsa_telemetry::counter(
                        "busy_ns",
                        u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX),
                    );
                }
                // telemetry first: the supervisor's dispatching task
                // region is open until the *reply* frame arrives, so the
                // batch lands under the correct causal parent
                if let Some(f) = flusher.as_mut() {
                    f.flush(
                        output,
                        slot,
                        chaos.corrupt_telemetry_batch(id, u64::from(attempt)),
                    )?;
                }
                if chaos.corrupt_result(id, u64::from(attempt)) {
                    write_corrupt_frame(output, &reply.encode()?)?;
                } else {
                    write_frame(output, &reply.encode()?)?;
                }
            }
            unexpected @ (Message::Pong { .. }
            | Message::TaskOk { .. }
            | Message::TaskErr { .. }
            | Message::Telemetry { .. }) => {
                return Err(UniVsaError::Ipc(format!(
                    "worker received a worker-to-supervisor message: {unexpected:?}"
                )));
            }
        }
    }
}

/// Drains the worker's registry into telemetry frames, tracking
/// allocator-ledger deltas between flushes so each batch reports only
/// its own window's allocations (peak stays absolute).
struct TelemetryFlusher {
    prev: MemStats,
}

impl TelemetryFlusher {
    fn new() -> Self {
        Self {
            prev: univsa_telemetry::mem_stats(),
        }
    }

    fn flush(
        &mut self,
        output: &mut impl Write,
        slot: u32,
        scramble: bool,
    ) -> Result<(), UniVsaError> {
        let mut batch = univsa_telemetry::take_worker_batch();
        let cur = univsa_telemetry::mem_stats();
        batch.net_bytes = cur.live_bytes as i64 - self.prev.live_bytes as i64;
        batch.alloc_count = cur.alloc_count.saturating_sub(self.prev.alloc_count);
        batch.peak_bytes = cur.peak_bytes;
        self.prev = cur;
        if batch.is_empty() {
            return Ok(());
        }
        let mut bytes = encode_worker_batch(&batch)?;
        if scramble {
            // chaos: break the batch codec (the version byte), not the
            // frame CRC — the supervisor must drop and count this batch
            // without treating the pipe as broken
            bytes[0] ^= 0xFF;
        }
        let message = Message::Telemetry { slot, batch: bytes };
        write_frame(output, &message.encode()?)
    }
}

fn env_u64(var: &str) -> u64 {
    std::env::var(var)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{standard_registry, ECHO_KIND, FAIL_KIND};
    use std::io::Cursor;

    fn frames(messages: &[Message]) -> Vec<u8> {
        let mut buf = Vec::new();
        for m in messages {
            write_frame(&mut buf, &m.encode().unwrap()).unwrap();
        }
        buf
    }

    fn replies(output: &[u8]) -> Vec<Message> {
        let mut cursor = Cursor::new(output);
        let mut out = Vec::new();
        loop {
            match read_frame(&mut cursor).unwrap() {
                Frame::Eof => return out,
                Frame::Payload(p) => out.push(Message::decode(&p).unwrap()),
            }
        }
    }

    #[test]
    fn serves_ping_task_and_shutdown() {
        let registry = standard_registry();
        let input = frames(&[
            Message::Ping { nonce: 5 },
            Message::Task {
                id: 0,
                attempt: 0,
                kind: ECHO_KIND.into(),
                payload: b"payload".to_vec(),
            },
            Message::Task {
                id: 1,
                attempt: 0,
                kind: FAIL_KIND.into(),
                payload: b"cause".to_vec(),
            },
            Message::Shutdown,
        ]);
        let mut output = Vec::new();
        serve(
            &mut Cursor::new(input),
            &mut output,
            &registry,
            &ChaosSpec::default(),
        )
        .unwrap();
        let replies = replies(&output);
        assert!(
            matches!(replies[0], Message::Pong { nonce: 5, .. }),
            "{replies:?}"
        );
        assert_eq!(
            replies[1..],
            vec![
                Message::TaskOk {
                    id: 0,
                    payload: b"payload".to_vec()
                },
                Message::TaskErr {
                    id: 1,
                    message: "cause".into()
                },
            ]
        );
    }

    #[test]
    fn clean_eof_ends_the_loop() {
        let registry = standard_registry();
        let mut output = Vec::new();
        serve(
            &mut Cursor::new(Vec::new()),
            &mut output,
            &registry,
            &ChaosSpec::default(),
        )
        .unwrap();
        assert!(output.is_empty());
    }

    #[test]
    fn corrupt_inbound_frame_is_a_typed_error() {
        let registry = standard_registry();
        let mut input = Vec::new();
        write_corrupt_frame(&mut input, &Message::Shutdown.encode().unwrap()).unwrap();
        let err = serve(
            &mut Cursor::new(input),
            &mut Vec::new(),
            &registry,
            &ChaosSpec::default(),
        )
        .unwrap_err();
        assert!(matches!(err, UniVsaError::Ipc(_)));
    }

    #[test]
    fn supervisor_bound_messages_are_rejected() {
        let registry = standard_registry();
        let input = frames(&[Message::Pong {
            nonce: 1,
            clock_ns: 0,
        }]);
        let err = serve(
            &mut Cursor::new(input),
            &mut Vec::new(),
            &registry,
            &ChaosSpec::default(),
        )
        .unwrap_err();
        assert!(err.to_string().contains("worker-to-supervisor"));
    }

    #[test]
    fn forwarding_emits_telemetry_frames_and_chaos_scrambles_them() {
        let registry = standard_registry();
        // one-way process-global switch; other tests in this binary only
        // run with forwarding off, so they never see telemetry frames
        univsa_telemetry::enable_tracing(DEFAULT_TRACE_CAPACITY);
        let chaos = ChaosSpec {
            corrupt_telemetry: 1.0,
            ..ChaosSpec::default()
        };
        let input = frames(&[
            Message::Task {
                id: 0,
                attempt: 0,
                kind: ECHO_KIND.into(),
                payload: b"x".to_vec(),
            },
            Message::Shutdown,
        ]);
        let mut output = Vec::new();
        serve_worker(
            &mut Cursor::new(input),
            &mut output,
            &registry,
            &chaos,
            3,
            true,
        )
        .unwrap();
        let replies = replies(&output);
        let batches: Vec<&Vec<u8>> = replies
            .iter()
            .filter_map(|m| match m {
                Message::Telemetry { slot: 3, batch } => Some(batch),
                _ => None,
            })
            .collect();
        assert!(!batches.is_empty(), "{replies:?}");
        // the scramble breaks the batch codec, not the message codec
        assert!(crate::decode_worker_batch(batches[0]).is_err());
        // and the task reply itself is untouched
        assert!(replies
            .iter()
            .any(|m| matches!(m, Message::TaskOk { id: 0, .. })));
    }

    #[test]
    fn corrupt_result_chaos_writes_a_bad_frame() {
        let registry = standard_registry();
        let chaos = ChaosSpec {
            corrupt: 1.0,
            ..ChaosSpec::default()
        };
        let input = frames(&[
            Message::Task {
                id: 0,
                attempt: 0,
                kind: ECHO_KIND.into(),
                payload: b"x".to_vec(),
            },
            Message::Shutdown,
        ]);
        let mut output = Vec::new();
        serve(&mut Cursor::new(input), &mut output, &registry, &chaos).unwrap();
        let err = read_frame(&mut Cursor::new(output)).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"));
    }
}
