//! # univsa-dist
//!
//! Fault-tolerant process-sharded execution for the UniVSA workloads: a
//! supervised worker fleet built entirely on `std::process`.
//!
//! The [`Supervisor`] spawns N copies of the current binary as worker
//! processes (the CLI re-enters [`worker_main`] when it sees
//! [`WORKER_ENV_VAR`]) and speaks a length-prefixed, CRC32-framed
//! protocol over their stdin/stdout pipes — the checksum is the same
//! [`univsa::crc32`] the weight-memory integrity layer uses. Work is
//! expressed as named byte-level jobs (see [`jobs`]) because closures
//! cannot cross a process boundary; the handlers are pure functions of
//! their payloads, which is what makes the whole fleet deterministic:
//! results are keyed by job index, so any worker count, schedule, or
//! crash/retry history yields **bit-identical output**.
//!
//! Robustness machinery, per worker slot:
//!
//! * liveness handshake (ping/pong) after every spawn,
//! * a per-task deadline — hung workers are killed and reaped,
//! * bounded retries with exponential backoff and deterministic jitter,
//! * respawn + re-dispatch of in-flight work after a crash or a corrupt
//!   reply frame,
//! * graceful degradation to the in-process [`univsa_par`] pool when
//!   spawning fails outright.
//!
//! The seeded chaos harness ([`univsa::ChaosSpec`], forwarded via
//! [`univsa::CHAOS_ENV_VAR`]) injects worker crashes, hangs, frame
//! corruption, and slow starts deterministically, so every recovery
//! path above is exercised by ordinary tests and CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod forward;
pub mod frame;
pub mod jobs;
pub mod proto;
pub mod supervisor;
pub mod worker;

pub use forward::{decode_worker_batch, encode_worker_batch};
pub use frame::{read_frame, write_corrupt_frame, write_frame, Frame, HEADER_LEN, MAX_FRAME};
pub use jobs::{
    decode_fitness, decode_quality_results, decode_seu_outcome, encode_fitness,
    encode_quality_results, encode_seu_outcome, probe_fitness, standard_registry, FitnessJob,
    JobRegistry, QualityJob, SeuTrialJob, ECHO_KIND, FAIL_KIND, FITNESS_KIND, PROBE_KIND,
    QUALITY_KIND, SEU_TRIAL_KIND,
};
pub use proto::Message;
pub use supervisor::{
    backoff_delay, parse_workers, workers_from_env, FleetReport, Job, SlotStats, Supervisor,
    SupervisorOptions, WORKERS_ENV_VAR,
};
pub use worker::{
    serve_worker, worker_env_requested, worker_main, CHAOS_CRASH_EXIT, GEN_ENV_VAR, SLOT_ENV_VAR,
    TELEMETRY_ENV_VAR, WORKER_ENV_VAR,
};
