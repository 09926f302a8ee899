//! # univsa-cli
//!
//! Library backing the `univsa` command-line tool: argument parsing and the
//! subcommands —
//!
//! * `train`  — train a UniVSA model on a built-in synthetic task or a CSV
//!   dataset and save the packed model.
//! * `infer`  — classify a CSV dataset with a saved model (reports
//!   accuracy when labels are present).
//! * `info`   — print a saved model's configuration, Eq. 5 memory
//!   breakdown, and estimated FPGA deployment cost.
//! * `rtl`    — emit the parameterized Verilog bundle plus `$readmemh`
//!   weight files for a saved model.
//! * `compile` — lower a saved model into a standalone packed artifact.
//! * `robustness` — sweep bit-flip fault rates over a saved model.
//! * `profile` — train a task's paper configuration and time every layer
//!   (training, inference, hardware, worker pool; `--mem` adds the
//!   allocation table and footprint audit, `--workers N` a fleet phase
//!   with a per-slot table).
//! * `search` — run the paper's evolutionary configuration search, fanned
//!   out over a supervised worker-process fleet (`--workers N` or the
//!   `UNIVSA_WORKERS` environment variable); `--chaos` injects seeded
//!   worker faults, and stdout stays bit-identical to `--workers 0`.
//! * `seu`    — run seeded single-event-upset campaigns per protection
//!   scheme, one fleet job per trial.
//! * `quality` — train a task's paper configuration and replay a seeded
//!   (optionally drift-injected) prediction stream through the fleet,
//!   reporting online accuracy, margin quantiles, calibration gap, and
//!   windowed drift detections — bit-identical for any worker count.
//! * `top`    — live terminal view of a running process's metrics
//!   endpoint (started with `--listen` on the long-running subcommands
//!   or the `UNIVSA_METRICS_ADDR` environment variable): per-stage
//!   throughput and latency percentiles, heap figures, and per-slot
//!   fleet counters, refreshed between polls of `/snapshot.json`.
//! * `bench-diff` — compare two perf_baseline reports and fail on a
//!   regression.
//! * `tasks`  — list the built-in synthetic benchmark tasks.
//!
//! One flag table in `args.rs` drives both the parser and the usage
//! synopsis. The parsing layer is exposed for testing; `main.rs` is a
//! thin shim.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;

pub use args::{Command, ParseArgsError};
pub use commands::run;
