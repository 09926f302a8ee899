//! The supervisor: spawns and babysits the worker fleet.
//!
//! One manager thread per worker slot pulls tasks from a shared queue
//! (work stealing), ships each over the slot's framed stdin pipe, and
//! waits on a per-task deadline. A worker that crashes, hangs past the
//! deadline, or corrupts a reply frame is killed, reaped, and respawned,
//! and the in-flight task is retried with exponential backoff — bounded
//! by [`SupervisorOptions::max_attempts`], after which the batch aborts
//! with the last cause. A worker that *answers* with a task error aborts
//! the batch immediately, propagating the first such message verbatim.
//!
//! ## Determinism
//!
//! Results are keyed by job index, never by completion order, and every
//! handler is a pure function of its payload (see [`crate::jobs`]). So
//! the result vector is bit-identical for any worker count, any
//! interleaving, and any crash/retry history — the chaos tests assert
//! exactly this. Jobs that cannot be placed on a worker (spawn failure,
//! every slot dead) degrade to the in-process [`univsa_par`] pool, which
//! runs the same handlers on the same payloads.

use std::collections::VecDeque;
use std::path::PathBuf;
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use univsa::{ChaosSpec, UniVsaError, CHAOS_ENV_VAR};

use crate::forward::decode_worker_batch;
use crate::frame::{read_frame, write_frame, Frame};
use crate::proto::Message;
use crate::worker::{GEN_ENV_VAR, SLOT_ENV_VAR, TELEMETRY_ENV_VAR, WORKER_ENV_VAR};
use crate::JobRegistry;

/// Environment variable the CLI reads for a default fleet size
/// (`--workers` wins over it; absent/unparsable means in-process).
pub const WORKERS_ENV_VAR: &str = "UNIVSA_WORKERS";

/// The fleet size requested via [`WORKERS_ENV_VAR`], if any.
pub fn workers_from_env() -> Option<usize> {
    parse_workers(&std::env::var(WORKERS_ENV_VAR).ok()?)
}

/// Parses a fleet-size spelling (a non-negative integer).
pub fn parse_workers(s: &str) -> Option<usize> {
    s.trim().parse().ok()
}

/// One unit of distributable work: a registered handler name plus its
/// opaque payload (see [`crate::jobs`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Job {
    /// Handler name, e.g. [`crate::jobs::FITNESS_KIND`].
    pub kind: String,
    /// Handler input bytes.
    pub payload: Vec<u8>,
}

impl Job {
    /// Convenience constructor.
    pub fn new(kind: &str, payload: Vec<u8>) -> Self {
        Self {
            kind: kind.to_string(),
            payload,
        }
    }
}

/// Fleet configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorOptions {
    /// Worker processes to run (`0` = stay in-process on `univsa-par`).
    pub workers: usize,
    /// Worker binary; `None` re-executes the current executable.
    pub worker_exe: Option<PathBuf>,
    /// Per-attempt deadline: a worker silent for this long is presumed
    /// hung, killed, and its task retried.
    pub task_deadline: Duration,
    /// Deadline for a fresh worker's liveness handshake (ping → pong).
    pub spawn_deadline: Duration,
    /// Maximum delivery attempts per task before the batch aborts.
    pub max_attempts: u32,
    /// First-retry backoff; doubles per attempt.
    pub backoff_base: Duration,
    /// Ceiling on the exponential backoff.
    pub backoff_cap: Duration,
    /// Seed for the deterministic backoff jitter.
    pub seed: u64,
    /// Fault injection forwarded to workers via [`CHAOS_ENV_VAR`]
    /// (no-op specs are stripped from the worker environment).
    pub chaos: ChaosSpec,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        Self {
            workers: 0,
            worker_exe: None,
            task_deadline: Duration::from_secs(120),
            spawn_deadline: Duration::from_secs(20),
            max_attempts: 4,
            backoff_base: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
            seed: 0,
            chaos: ChaosSpec::default(),
        }
    }
}

/// What the fleet went through while running a batch (nondeterministic
/// under chaos — never mix this into deterministic output).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FleetReport {
    /// Worker slots the batch ran with (`0` = pure in-process).
    pub workers: usize,
    /// Processes spawned, including respawns after failures.
    pub spawned: u64,
    /// Task attempts redelivered after a failure.
    pub retries: u64,
    /// Attempts abandoned because the task deadline passed.
    pub timeouts: u64,
    /// Worker processes that died (or broke their pipe) mid-task.
    pub crashes: u64,
    /// Reply frames rejected for framing/checksum/protocol errors.
    pub corrupt_frames: u64,
    /// Jobs that degraded to the in-process pool.
    pub fallback_jobs: u64,
    /// Forwarded telemetry batches that failed to decode and were
    /// dropped (chaos-scrambled or truncated; never fails the job).
    pub telemetry_dropped: u64,
    /// Per-slot tallies, indexed by slot. These are the supervisor's own
    /// observations, so they are populated even when telemetry (and
    /// therefore worker-side forwarding) is off.
    pub slots: Vec<SlotStats>,
}

/// Supervisor-side tallies for one worker slot over a batch.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SlotStats {
    /// Processes spawned into this slot, including respawns.
    pub spawned: u64,
    /// Tasks this slot completed successfully.
    pub jobs: u64,
    /// Task attempts this slot's workers failed and had redelivered.
    pub retries: u64,
    /// Forwarded telemetry batches from this slot dropped as undecodable.
    pub telemetry_dropped: u64,
}

/// Owns the fleet configuration and the job handlers; see
/// [`Supervisor::run_jobs`].
pub struct Supervisor {
    options: SupervisorOptions,
    registry: JobRegistry,
}

impl Supervisor {
    /// Creates a supervisor over a handler registry.
    pub fn new(options: SupervisorOptions, registry: JobRegistry) -> Self {
        Self { options, registry }
    }

    /// The configured options.
    pub fn options(&self) -> &SupervisorOptions {
        &self.options
    }

    /// Runs a batch of jobs to completion and returns one result per
    /// job, **in job order**, plus the fleet's incident report.
    ///
    /// # Errors
    ///
    /// [`UniVsaError::Worker`] carrying the first definitive failure:
    /// either a handler error (propagated verbatim) or a task that
    /// exhausted [`SupervisorOptions::max_attempts`].
    pub fn run_jobs(&self, jobs: &[Job]) -> Result<(Vec<Vec<u8>>, FleetReport), UniVsaError> {
        let _span = univsa_telemetry::span("dist", "run_jobs").field("jobs", jobs.len() as u64);
        let mut report = FleetReport::default();
        if jobs.is_empty() {
            return Ok((Vec::new(), report));
        }
        let fleet = self.options.workers.min(jobs.len());
        let mut results: Vec<Option<Vec<u8>>> = vec![None; jobs.len()];

        if fleet > 0 {
            let exe = match &self.options.worker_exe {
                Some(path) => path.clone(),
                None => std::env::current_exe().map_err(|e| {
                    UniVsaError::Io(format!("cannot locate the worker executable: {e}"))
                })?,
            };
            let state = FleetState {
                options: &self.options,
                jobs,
                exe,
                queue: Mutex::new(
                    (0..jobs.len())
                        .map(|job| Attempt { job, attempt: 0 })
                        .collect(),
                ),
                results: Mutex::new(std::mem::take(&mut results)),
                first_error: Mutex::new(None),
                abort: AtomicBool::new(false),
                counters: Counters::with_slots(fleet),
            };
            let tracing = univsa_telemetry::trace_enabled();
            let ctx = univsa_telemetry::current_context();
            std::thread::scope(|scope| {
                for slot in 0..fleet {
                    let state = &state;
                    scope.spawn(move || {
                        let _lane =
                            tracing.then(|| univsa_telemetry::enter_lane(format!("fleet-{slot}")));
                        let _ctx = tracing.then(|| univsa_telemetry::enter_context(ctx));
                        state.manager(slot);
                    });
                }
            });
            report.workers = fleet;
            // Relaxed everywhere on the incident counters: they are
            // monotonic statistics, never control flow, and the scope
            // join above already orders these loads after every manager
            // thread's stores (only `abort` gates behaviour and keeps
            // SeqCst).
            report.spawned = state.counters.spawned.load(Ordering::Relaxed);
            report.retries = state.counters.retries.load(Ordering::Relaxed);
            report.timeouts = state.counters.timeouts.load(Ordering::Relaxed);
            report.crashes = state.counters.crashes.load(Ordering::Relaxed);
            report.corrupt_frames = state.counters.corrupt_frames.load(Ordering::Relaxed);
            report.telemetry_dropped = state.counters.telemetry_dropped.load(Ordering::Relaxed);
            report.slots = state
                .counters
                .slots
                .iter()
                .map(|slot| SlotStats {
                    spawned: slot.spawned.load(Ordering::Relaxed),
                    jobs: slot.jobs.load(Ordering::Relaxed),
                    retries: slot.retries.load(Ordering::Relaxed),
                    telemetry_dropped: slot.telemetry_dropped.load(Ordering::Relaxed),
                })
                .collect();
            if let Some(message) = state.first_error.into_inner().expect("error lock") {
                return Err(UniVsaError::Worker(message));
            }
            results = state.results.into_inner().expect("results lock");
        }

        // Degradation path: jobs no worker slot could serve (spawn
        // failure, all slots dead) — and the whole batch when
        // `workers == 0` — run in-process through the same handlers.
        let missing: Vec<usize> = results
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.is_none().then_some(i))
            .collect();
        if !missing.is_empty() {
            if fleet > 0 {
                report.fallback_jobs = missing.len() as u64;
                univsa_telemetry::counter("dist.fallback_jobs", missing.len() as u64);
            }
            let computed = univsa_par::map_indexed("dist.jobs", missing.len(), |i| {
                let job = &jobs[missing[i]];
                self.registry.run(&job.kind, &job.payload)
            });
            for (&index, outcome) in missing.iter().zip(computed) {
                match outcome {
                    Ok(bytes) => results[index] = Some(bytes),
                    Err(message) => return Err(UniVsaError::Worker(message)),
                }
            }
        }

        let resolved = results
            .into_iter()
            .map(|r| r.expect("every job resolved or errored"))
            .collect();
        Ok((resolved, report))
    }
}

/// Backoff before delivery `attempt` (0-based; attempt 0 is free): the
/// exponential `base · 2^(attempt−1)` capped at `cap`, then jittered
/// deterministically into `[exp/2, exp]` by `(seed, job, attempt)` so
/// identical runs sleep identically but sibling retries desynchronize.
pub fn backoff_delay(base: Duration, cap: Duration, seed: u64, job: u64, attempt: u32) -> Duration {
    if attempt == 0 {
        return Duration::ZERO;
    }
    let shift = (attempt - 1).min(20);
    let exp = base
        .as_nanos()
        .saturating_mul(1u128 << shift)
        .min(cap.as_nanos());
    let half = exp / 2;
    let jitter = if half == 0 {
        0
    } else {
        u128::from(mix(seed ^ job.rotate_left(32) ^ u64::from(attempt))) % (half + 1)
    };
    Duration::from_nanos((half + jitter) as u64)
}

/// splitmix64 finalizer (same construction the chaos spec uses).
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A task delivery: which job, and how many failures preceded it.
#[derive(Debug, Clone, Copy)]
struct Attempt {
    job: usize,
    attempt: u32,
}

struct Counters {
    spawned: AtomicU64,
    retries: AtomicU64,
    timeouts: AtomicU64,
    crashes: AtomicU64,
    corrupt_frames: AtomicU64,
    telemetry_dropped: AtomicU64,
    /// One tally block per worker slot (each manager thread writes only
    /// its own, but atomics keep the whole struct shareable by `&`).
    slots: Vec<SlotCounters>,
}

#[derive(Default)]
struct SlotCounters {
    spawned: AtomicU64,
    jobs: AtomicU64,
    retries: AtomicU64,
    telemetry_dropped: AtomicU64,
}

impl Counters {
    fn with_slots(fleet: usize) -> Self {
        Self {
            spawned: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            crashes: AtomicU64::new(0),
            corrupt_frames: AtomicU64::new(0),
            telemetry_dropped: AtomicU64::new(0),
            slots: (0..fleet).map(|_| SlotCounters::default()).collect(),
        }
    }
}

/// Shared state the manager threads operate on.
struct FleetState<'a> {
    options: &'a SupervisorOptions,
    jobs: &'a [Job],
    exe: PathBuf,
    queue: Mutex<VecDeque<Attempt>>,
    results: Mutex<Vec<Option<Vec<u8>>>>,
    first_error: Mutex<Option<String>>,
    abort: AtomicBool,
    counters: Counters,
}

/// How one task delivery ended.
enum Delivery {
    /// The worker answered with a result.
    Done(Vec<u8>),
    /// The worker answered with a definitive error — abort the batch.
    Fatal(String),
    /// The worker crashed/hung/corrupted; kill it and retry the task.
    Retry(String),
}

impl FleetState<'_> {
    /// Records the batch's first definitive error and tells every
    /// manager to stand down.
    fn fail(&self, message: String) {
        let mut slot = self.first_error.lock().expect("error lock");
        if slot.is_none() {
            *slot = Some(message);
        }
        drop(slot);
        self.abort.store(true, Ordering::SeqCst);
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::SeqCst)
    }

    /// The manager loop for one worker slot: steal a task, deliver it
    /// (respawning and retrying as needed), repeat until the queue
    /// drains, the batch aborts, or this slot can no longer spawn.
    fn manager(&self, slot: usize) {
        let tracing = univsa_telemetry::trace_enabled();
        let mut worker: Option<WorkerHandle> = None;
        let mut generation: u64 = 0;
        'steal: while !self.aborted() {
            let Some(mut attempt) = self.queue.lock().expect("queue lock").pop_front() else {
                break;
            };
            'deliver: loop {
                if self.aborted() {
                    break 'steal;
                }
                if attempt.attempt > 0 {
                    std::thread::sleep(backoff_delay(
                        self.options.backoff_base,
                        self.options.backoff_cap,
                        self.options.seed,
                        attempt.job as u64,
                        attempt.attempt,
                    ));
                }
                if worker.is_none() {
                    let _spawn_region =
                        tracing.then(|| univsa_telemetry::trace_region("dist", "spawn"));
                    match self.spawn_worker(slot, generation) {
                        Ok(handle) => {
                            generation += 1;
                            // Relaxed: monotonic statistic, see run_jobs
                            self.counters.spawned.fetch_add(1, Ordering::Relaxed);
                            self.counters.slots[slot]
                                .spawned
                                .fetch_add(1, Ordering::Relaxed);
                            univsa_telemetry::counter("dist.spawns", 1);
                            worker = Some(handle);
                        }
                        Err(_) => {
                            // this slot is unusable: hand the task back for
                            // surviving slots or the in-process fallback
                            self.queue.lock().expect("queue lock").push_front(attempt);
                            break 'steal;
                        }
                    }
                }
                let handle = worker.as_mut().expect("spawned above");
                let job = &self.jobs[attempt.job];
                let task_region = tracing.then(|| {
                    univsa_telemetry::trace_region("dist", "task")
                        .field("job", attempt.job as u64)
                        .field("attempt", u64::from(attempt.attempt))
                });
                // forwarded worker spans re-parent under this open
                // dispatch region in the merged timeline
                let parent = task_region.as_ref().and_then(|r| r.trace_id());
                let delivery = self.deliver(slot, handle, attempt, job, parent);
                drop(task_region);
                match delivery {
                    Delivery::Done(bytes) => {
                        self.results.lock().expect("results lock")[attempt.job] = Some(bytes);
                        self.counters.slots[slot]
                            .jobs
                            .fetch_add(1, Ordering::Relaxed);
                        break 'deliver;
                    }
                    Delivery::Fatal(message) => {
                        self.fail(message);
                        break 'steal;
                    }
                    Delivery::Retry(cause) => {
                        kill_and_reap(worker.take().expect("worker present"));
                        if attempt.attempt + 1 >= self.options.max_attempts {
                            self.fail(format!(
                                "task {} ({}) failed after {} attempts: {cause}",
                                attempt.job,
                                job.kind,
                                attempt.attempt + 1
                            ));
                            break 'steal;
                        }
                        // Relaxed: monotonic statistic, see run_jobs
                        self.counters.retries.fetch_add(1, Ordering::Relaxed);
                        self.counters.slots[slot]
                            .retries
                            .fetch_add(1, Ordering::Relaxed);
                        univsa_telemetry::counter("dist.retries", 1);
                        // retries are a supervisor-side observation (the
                        // worker that caused one may be dead), so the
                        // per-slot lane is charged here rather than in
                        // the worker's own forwarded batch
                        univsa_telemetry::counter(&format!("worker.{slot}.retries"), 1);
                        attempt.attempt += 1;
                    }
                }
            }
        }
        if let Some(handle) = worker.take() {
            if self.aborted() {
                kill_and_reap(handle);
            } else {
                self.shutdown_worker(slot, handle);
            }
        }
    }

    /// Ships one task to a live worker and waits for its fate,
    /// absorbing any [`Message::Telemetry`] batches the worker flushes
    /// ahead of its reply (they re-parent under `parent`, the open
    /// `dist.task` region).
    fn deliver(
        &self,
        slot: usize,
        handle: &mut WorkerHandle,
        attempt: Attempt,
        job: &Job,
        parent: Option<u64>,
    ) -> Delivery {
        let message = Message::Task {
            id: attempt.job as u64,
            attempt: attempt.attempt,
            kind: job.kind.clone(),
            payload: job.payload.clone(),
        };
        if message
            .encode()
            .and_then(|bytes| write_frame(&mut handle.stdin, &bytes))
            .is_err()
        {
            // Relaxed (here and below): monotonic statistics, see run_jobs
            self.counters.crashes.fetch_add(1, Ordering::Relaxed);
            univsa_telemetry::counter("dist.crashes", 1);
            return Delivery::Retry("worker pipe closed before dispatch".into());
        }
        let deadline = Instant::now() + self.options.task_deadline;
        loop {
            let wait = deadline.saturating_duration_since(Instant::now());
            return match handle.replies.recv_timeout(wait) {
                Ok(Ok(Message::Telemetry { batch, .. })) => {
                    // telemetry never consumes the task deadline budget
                    // beyond the time it took to arrive
                    self.absorb_telemetry(slot, &batch, handle.clock_offset_ns, parent);
                    continue;
                }
                Ok(Ok(Message::TaskOk { id, payload })) if id == attempt.job as u64 => {
                    Delivery::Done(payload)
                }
                Ok(Ok(Message::TaskErr { message, .. })) => Delivery::Fatal(message),
                Ok(Ok(unexpected)) => {
                    self.counters.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                    univsa_telemetry::counter("dist.corrupt_frames", 1);
                    Delivery::Retry(format!("protocol violation: unexpected {unexpected:?}"))
                }
                Ok(Err(frame_error)) => {
                    self.counters.corrupt_frames.fetch_add(1, Ordering::Relaxed);
                    univsa_telemetry::counter("dist.corrupt_frames", 1);
                    Delivery::Retry(frame_error.to_string())
                }
                Err(RecvTimeoutError::Timeout) => {
                    self.counters.timeouts.fetch_add(1, Ordering::Relaxed);
                    univsa_telemetry::counter("dist.timeouts", 1);
                    Delivery::Retry(format!(
                        "no reply within the {:?} task deadline",
                        self.options.task_deadline
                    ))
                }
                Err(RecvTimeoutError::Disconnected) => {
                    self.counters.crashes.fetch_add(1, Ordering::Relaxed);
                    univsa_telemetry::counter("dist.crashes", 1);
                    Delivery::Retry("worker exited before replying".into())
                }
            };
        }
    }

    /// Decodes and merges one forwarded telemetry batch; a batch that
    /// fails its codec is dropped and counted, never an error — the
    /// job's fate is decided solely by its reply frame.
    fn absorb_telemetry(
        &self,
        slot: usize,
        batch_bytes: &[u8],
        clock_offset_ns: i64,
        parent: Option<u64>,
    ) {
        match decode_worker_batch(batch_bytes) {
            Ok(batch) => {
                univsa_telemetry::absorb_worker_batch(slot as u32, &batch, clock_offset_ns, parent);
            }
            Err(_) => {
                // Relaxed: monotonic statistic, see run_jobs
                self.counters
                    .telemetry_dropped
                    .fetch_add(1, Ordering::Relaxed);
                self.counters.slots[slot]
                    .telemetry_dropped
                    .fetch_add(1, Ordering::Relaxed);
                univsa_telemetry::counter("dist.telemetry_dropped", 1);
            }
        }
    }

    /// Asks a worker to exit, absorbing the final telemetry batch it
    /// flushes on shutdown, then reaps it (escalating to a kill if it
    /// lingers past a short grace period).
    fn shutdown_worker(&self, slot: usize, handle: WorkerHandle) {
        let WorkerHandle {
            mut child,
            mut stdin,
            replies,
            reader,
            clock_offset_ns,
        } = handle;
        let _ = Message::Shutdown
            .encode()
            .and_then(|bytes| write_frame(&mut stdin, &bytes));
        drop(stdin);
        // drain until the worker closes its pipe (bounded by the reaper
        // below): the shutdown-flush telemetry batch arrives here
        while let Ok(Ok(message)) = replies.recv_timeout(Duration::from_secs(2)) {
            if let Message::Telemetry { batch, .. } = message {
                self.absorb_telemetry(slot, &batch, clock_offset_ns, None);
            }
        }
        drop(replies);
        let grace_until = Instant::now() + Duration::from_secs(2);
        loop {
            match child.try_wait() {
                Ok(Some(_)) => break,
                Ok(None) if Instant::now() < grace_until => {
                    std::thread::sleep(Duration::from_millis(5));
                }
                _ => {
                    let _ = child.kill();
                    let _ = child.wait();
                    break;
                }
            }
        }
        let _ = reader.join();
    }

    /// Spawns a worker for `slot`, wires up its reader thread, and
    /// confirms liveness with a ping/pong handshake.
    fn spawn_worker(&self, slot: usize, generation: u64) -> Result<WorkerHandle, UniVsaError> {
        let mut command = Command::new(&self.exe);
        command
            .env(WORKER_ENV_VAR, "1")
            .env(SLOT_ENV_VAR, slot.to_string())
            .env(GEN_ENV_VAR, generation.to_string())
            // one thread per worker process: the fleet is the parallelism
            .env(univsa_par::ENV_VAR, "1")
            // keep worker stderr free of telemetry flushes
            .env_remove(univsa_telemetry::ENV_VAR)
            // and never let a worker try to bind the parent's metrics
            // port — the supervisor is the only exporter in the fleet
            .env_remove(univsa_telemetry::METRICS_ENV_VAR)
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if univsa_telemetry::enabled() {
            // our telemetry is on: have the worker capture and forward
            command.env(TELEMETRY_ENV_VAR, "1");
        } else {
            // zero-overhead-off: no capture, no telemetry frames at all
            command.env_remove(TELEMETRY_ENV_VAR);
        }
        if self.options.chaos.is_noop() {
            command.env_remove(CHAOS_ENV_VAR);
        } else {
            command.env(CHAOS_ENV_VAR, self.options.chaos.render());
        }
        let mut child = command.spawn().map_err(|e| {
            UniVsaError::Io(format!("cannot spawn worker {}: {e}", self.exe.display()))
        })?;
        let stdin = child.stdin.take().expect("stdin piped");
        let mut stdout = child.stdout.take().expect("stdout piped");
        let (sender, replies) = mpsc::channel();
        let reader = std::thread::spawn(move || loop {
            match read_frame(&mut stdout) {
                Ok(Frame::Eof) => break,
                Ok(Frame::Payload(payload)) => match Message::decode(&payload) {
                    Ok(message) => {
                        if sender.send(Ok(message)).is_err() {
                            break;
                        }
                    }
                    Err(e) => {
                        let _ = sender.send(Err(e));
                        break;
                    }
                },
                Err(e) => {
                    let _ = sender.send(Err(e));
                    break;
                }
            }
        });
        let mut handle = WorkerHandle {
            child,
            stdin,
            replies,
            reader,
            clock_offset_ns: 0,
        };
        let nonce = mix(generation ^ (slot as u64).rotate_left(48));
        // the ping doubles as a clock-alignment probe: assume the pong's
        // worker timestamp was taken at the midpoint of our round trip,
        // so offset = our midpoint − worker clock (add it to a worker
        // timestamp to land on the supervisor timeline)
        let t0 = univsa_telemetry::clock_ns();
        let handshake = Message::Ping { nonce }
            .encode()
            .and_then(|bytes| write_frame(&mut handle.stdin, &bytes))
            .is_ok()
            && match handle.replies.recv_timeout(self.options.spawn_deadline) {
                Ok(Ok(Message::Pong {
                    nonce: echoed,
                    clock_ns,
                })) if echoed == nonce => {
                    let t1 = univsa_telemetry::clock_ns();
                    let midpoint = t0 + (t1 - t0) / 2;
                    handle.clock_offset_ns = midpoint as i64 - clock_ns as i64;
                    true
                }
                _ => false,
            };
        if !handshake {
            kill_and_reap(handle);
            return Err(UniVsaError::Io(format!(
                "worker slot {slot} failed its liveness handshake within {:?}",
                self.options.spawn_deadline
            )));
        }
        Ok(handle)
    }
}

/// A live worker process and its plumbing.
struct WorkerHandle {
    child: Child,
    stdin: ChildStdin,
    replies: Receiver<Result<Message, UniVsaError>>,
    reader: std::thread::JoinHandle<()>,
    /// Supervisor-clock minus worker-clock estimate from the handshake;
    /// added to forwarded span timestamps to merge the timelines.
    clock_offset_ns: i64,
}

/// Hard-stops a worker and collects every resource: pipe, process
/// table entry (no zombies), and reader thread.
fn kill_and_reap(handle: WorkerHandle) {
    let WorkerHandle {
        mut child,
        stdin,
        replies,
        reader,
        ..
    } = handle;
    drop(stdin);
    drop(replies);
    let _ = child.kill();
    let _ = child.wait();
    let _ = reader.join();
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::{standard_registry, ECHO_KIND, FAIL_KIND};

    fn echo_jobs(n: usize) -> Vec<Job> {
        (0..n)
            .map(|i| Job::new(ECHO_KIND, vec![i as u8; i + 1]))
            .collect()
    }

    #[test]
    fn in_process_results_are_in_job_order() {
        let supervisor = Supervisor::new(SupervisorOptions::default(), standard_registry());
        let jobs = echo_jobs(5);
        let (results, report) = supervisor.run_jobs(&jobs).unwrap();
        let expected: Vec<Vec<u8>> = jobs.iter().map(|j| j.payload.clone()).collect();
        assert_eq!(results, expected);
        assert_eq!(report, FleetReport::default());
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let supervisor = Supervisor::new(SupervisorOptions::default(), standard_registry());
        let (results, report) = supervisor.run_jobs(&[]).unwrap();
        assert!(results.is_empty());
        assert_eq!(report.spawned, 0);
    }

    #[test]
    fn in_process_error_is_first_by_job_order() {
        let supervisor = Supervisor::new(SupervisorOptions::default(), standard_registry());
        let jobs = vec![
            Job::new(ECHO_KIND, b"ok".to_vec()),
            Job::new(FAIL_KIND, b"first cause".to_vec()),
            Job::new(FAIL_KIND, b"second cause".to_vec()),
        ];
        let err = supervisor.run_jobs(&jobs).unwrap_err();
        assert!(matches!(err, UniVsaError::Worker(_)));
        assert_eq!(err.to_string(), "worker failed: first cause");
    }

    #[test]
    fn spawn_failure_degrades_to_in_process() {
        let options = SupervisorOptions {
            workers: 2,
            worker_exe: Some(PathBuf::from("/nonexistent/univsa-worker-binary")),
            ..SupervisorOptions::default()
        };
        let supervisor = Supervisor::new(options, standard_registry());
        let jobs = echo_jobs(3);
        let (results, report) = supervisor.run_jobs(&jobs).unwrap();
        let expected: Vec<Vec<u8>> = jobs.iter().map(|j| j.payload.clone()).collect();
        assert_eq!(
            results, expected,
            "degraded results must stay bit-identical"
        );
        assert_eq!(report.workers, 2);
        assert_eq!(report.spawned, 0);
        assert_eq!(report.fallback_jobs, 3);
        // per-slot rows exist for every slot even when nothing spawned
        assert_eq!(report.slots.len(), 2);
        assert!(report.slots.iter().all(|s| *s == SlotStats::default()));
    }

    #[test]
    fn in_process_report_has_no_slot_rows() {
        let supervisor = Supervisor::new(SupervisorOptions::default(), standard_registry());
        let (_, report) = supervisor.run_jobs(&echo_jobs(2)).unwrap();
        assert!(report.slots.is_empty());
    }

    #[test]
    fn backoff_is_zero_for_the_first_attempt() {
        let base = Duration::from_millis(25);
        let cap = Duration::from_secs(1);
        assert_eq!(backoff_delay(base, cap, 0, 0, 0), Duration::ZERO);
    }

    #[test]
    fn backoff_grows_exponentially_and_caps() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(1);
        for attempt in 1..10 {
            let exp = Duration::from_millis(100 * (1 << (attempt - 1))).min(cap);
            let d = backoff_delay(base, cap, 7, 3, attempt as u32);
            assert!(d >= exp / 2, "attempt {attempt}: {d:?} below {:?}", exp / 2);
            assert!(d <= exp, "attempt {attempt}: {d:?} above {exp:?}");
        }
        assert!(backoff_delay(base, cap, 7, 3, 30) <= cap);
    }

    #[test]
    fn backoff_jitter_is_deterministic_and_spread() {
        let base = Duration::from_millis(100);
        let cap = Duration::from_secs(10);
        let a = backoff_delay(base, cap, 42, 5, 3);
        let b = backoff_delay(base, cap, 42, 5, 3);
        assert_eq!(a, b);
        // different jobs (and seeds) land on different points in the window
        let spread: std::collections::HashSet<Duration> = (0..16)
            .map(|job| backoff_delay(base, cap, 42, job, 3))
            .collect();
        assert!(spread.len() > 8, "jitter collapsed: {spread:?}");
    }

    #[test]
    fn parse_workers_accepts_integers_only() {
        assert_eq!(parse_workers("4"), Some(4));
        assert_eq!(parse_workers(" 0 "), Some(0));
        assert_eq!(parse_workers("many"), None);
        assert_eq!(parse_workers("-1"), None);
        assert_eq!(parse_workers(""), None);
    }
}
