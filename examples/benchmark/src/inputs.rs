//! Workload inputs, all a pure function of the `--seed` argument.
//!
//! The code under test only ever sees the generated samples: the six
//! Table I tasks from `tasks::all(seed)`, their paper configurations, and
//! fresh labelled samples from `tasks::drift_stream(name, seed + 1, ..)`
//! (the same class profiles, new draws, no drift).

use std::path::{Path, PathBuf};

use univsa::{save_model, PackedModel, TrainOptions, UniVsaConfig, UniVsaModel, UniVsaTrainer};
use univsa_data::{csv, tasks, Dataset, Sample, Task};

use crate::layers::TrainLedger;

/// Fresh samples per task for `stream` and `batch`: the `stream` block,
/// two `batch` batches. The traced probe uses the first this many of any
/// workload's samples.
pub const STREAM_SAMPLES: usize = 256;
/// Rows of each `univsa infer` CSV, and fresh samples per task on `cli`.
pub const CLI_ROWS: usize = 1024;
/// Training samples the inference workloads' set-up models see. Packed
/// inference cost depends only on the artifact geometry, which the
/// Table I config fixes, so these models need not be accurate; a small
/// stratified subset keeps set-up short enough to repeat.
const SETUP_TRAIN_SAMPLES: usize = 64;

/// One Table I task with its paper configuration.
pub struct TaskInput {
    pub task: Task,
    pub config: UniVsaConfig,
}

impl TaskInput {
    pub fn name(&self) -> &str {
        &self.task.spec.name
    }
}

/// The six tasks of `tasks::all(seed)` with their Table I configurations.
pub fn tasks(seed: u64) -> Vec<TaskInput> {
    tasks::all(seed)
        .into_iter()
        .map(|task| {
            let (d_h, d_l, d_k, o, theta) = tasks::paper_config_tuple(&task.spec.name)
                .expect("every Table I task has a paper config");
            let config = UniVsaConfig::for_task(&task.spec)
                .d_h(d_h)
                .d_l(d_l)
                .d_k(d_k)
                .out_channels(o)
                .voters(theta)
                .build()
                .expect("paper configurations are valid");
            TaskInput { task, config }
        })
        .collect()
}

/// `n` fresh labelled samples for a task, independent of its train/test
/// draws.
pub fn stream(task: &TaskInput, seed: u64, n: usize) -> Vec<Sample> {
    tasks::drift_stream(task.name(), seed.wrapping_add(1), n, None)
        .expect("drift streams exist for every Table I task")
}

/// A deterministic per-fit training seed.
pub fn fit_seed(seed: u64, task: usize, fit: usize) -> u64 {
    seed.wrapping_mul(1_000_003)
        .wrapping_add((fit * 16 + task) as u64)
}

/// A task model ready to serve, with the fresh samples it serves.
pub struct Deployed {
    pub input: TaskInput,
    pub model: UniVsaModel,
    pub packed: PackedModel,
    pub samples: Vec<Sample>,
}

impl Deployed {
    /// Pairs a trained model with its task and `n` fresh samples,
    /// compiling it to the packed engine.
    pub fn new(input: TaskInput, model: UniVsaModel, seed: u64, n: usize) -> Self {
        let samples = stream(&input, seed, n);
        let packed = PackedModel::compile(&model);
        Self {
            input,
            model,
            packed,
            samples,
        }
    }

    pub fn name(&self) -> &str {
        self.input.name()
    }
}

/// Set-up of the inference workloads: a one-epoch model per task, trained
/// on a stratified subset of its training split, with `n` fresh samples.
pub fn deploy(
    inputs: Vec<TaskInput>,
    seed: u64,
    n: usize,
    ledger: &mut TrainLedger,
) -> Result<Vec<Deployed>, String> {
    inputs
        .into_iter()
        .enumerate()
        .map(|(t, input)| {
            let train = &input.task.train;
            let step = (train.len() / SETUP_TRAIN_SAMPLES).max(1);
            let subset = Dataset::new(
                train.spec().clone(),
                train.samples().iter().step_by(step).cloned().collect(),
            )?;
            let trainer = UniVsaTrainer::new(
                input.config.clone(),
                TrainOptions {
                    epochs: 1,
                    ..TrainOptions::default()
                },
            );
            let model = ledger.fit(t, &trainer, &subset, fit_seed(seed, t, 0))?;
            Ok(Deployed::new(input, model, seed, n))
        })
        .collect()
}

/// The first `rows` served samples of a task as `univsa infer` CSV text.
pub fn csv_text(d: &Deployed, rows: usize) -> String {
    let data = Dataset::new(d.input.task.spec.clone(), d.samples[..rows].to_vec())
        .expect("generated samples fit their own task geometry");
    csv::to_csv(&data)
}

/// Writes `d`'s model container (`<name>.uvsa`) and a CSV of all its
/// samples (`<name>.csv`) into `dir`, returning both paths.
pub fn write_fixtures(d: &Deployed, dir: &Path) -> Result<(PathBuf, PathBuf), String> {
    let model = dir.join(format!("{}.uvsa", d.name()));
    let csv = dir.join(format!("{}.csv", d.name()));
    let bytes = save_model(&d.model).map_err(|e| e.to_string())?;
    std::fs::write(&model, bytes).map_err(|e| format!("{}: {e}", model.display()))?;
    std::fs::write(&csv, csv_text(d, d.samples.len()))
        .map_err(|e| format!("{}: {e}", csv.display()))?;
    Ok((model, csv))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every byte the workloads feed the program, rendered as CSV.
    fn input_bytes(seed: u64) -> String {
        let mut out = String::new();
        for input in tasks(seed) {
            out.push_str(&format!("{:?}\n", input.config.tuple()));
            out.push_str(&csv::to_csv(&input.task.train));
            out.push_str(&csv::to_csv(&input.task.test));
            let fresh = stream(&input, seed, CLI_ROWS);
            let fresh = Dataset::new(input.task.spec.clone(), fresh).unwrap();
            out.push_str(&csv::to_csv(&fresh));
        }
        out
    }

    #[test]
    fn inputs_are_a_pure_function_of_the_seed() {
        let a = input_bytes(42);
        assert_eq!(a, input_bytes(42), "same seed, same bytes");
        assert_ne!(a, input_bytes(43), "another seed, other inputs");
    }

    #[test]
    fn fit_seeds_are_distinct_per_task_and_fit() {
        let mut seen = std::collections::BTreeSet::new();
        for fit in 0..8 {
            for task in 0..6 {
                assert!(seen.insert(fit_seed(42, task, fit)));
            }
        }
    }
}
