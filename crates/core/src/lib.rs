//! # univsa
//!
//! A from-scratch reproduction of **UniVSA** — *Holistic Design towards
//! Resource-Stringent Binary Vector Symbolic Architecture* (DAC 2025) — a
//! co-optimized binary vector symbolic architecture (VSA) framework for
//! ultra-lightweight classification on resource-stringent devices such as
//! implanted brain–computer interfaces.
//!
//! ## The model
//!
//! A classical binary VSA encodes a sample `x` of `N` discretized features
//! as `s = sgn(Σᵢ fᵢ ∘ v_{xᵢ})` and classifies by nearest class vector.
//! UniVSA extends it with three enhancements:
//!
//! 1. **Discriminated value projection (DVP)** — a feature-importance mask
//!    routes low-importance features through a narrower ValueBox (`D_L`
//!    instead of `D_H` bits), shrinking memory with negligible accuracy
//!    cost. See [`Mask`].
//! 2. **Binary feature extraction (BiConv)** — a binary convolution over
//!    the value-vector map introduces the cross-feature interactions that
//!    per-feature encodings cannot express.
//! 3. **Soft voting (SV)** — `Θ` parallel similarity heads whose averaged
//!    scores counteract the underfitting of very low dimensions.
//!
//! Training follows the low-dimensional-computing (LDC) strategy: the model
//! is trained as a tiny partial BNN with straight-through estimators, then
//! only the *binarized* weight sets — value boxes **V**, kernels **K**,
//! feature vectors **F**, and class vectors **C** — are exported into a
//! [`UniVsaModel`] that performs inference purely with packed bitwise
//! operations (XNOR + popcount), exactly like the paper's hardware.
//!
//! ## Quickstart
//!
//! ```no_run
//! use univsa::{Enhancements, TrainOptions, UniVsaConfig, UniVsaTrainer};
//! use univsa_data::tasks;
//!
//! # fn main() -> Result<(), univsa::UniVsaError> {
//! let task = tasks::bci3v(7);
//! let config = UniVsaConfig::for_task(&task.spec)
//!     .d_h(8).d_l(2).d_k(3).out_channels(16).voters(3)
//!     .build()?;
//! let trainer = UniVsaTrainer::new(config, TrainOptions::default());
//! let outcome = trainer.fit(&task.train, 42)?;
//! let accuracy = outcome.model.evaluate(&task.test)?;
//! println!("accuracy {accuracy:.4}, memory {:.2} KB",
//!          outcome.model.memory_report().total_kib());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
pub mod codec;
mod compile;
mod config;
mod dvp;
mod encoding;
mod error;
mod export;
mod fault;
mod infer;
mod integrity;
pub mod json;
mod mask;
mod memory;
mod model;
mod observe;
mod train;
mod valuebox;

pub use audit::{ComponentAudit, FootprintAudit};
pub use compile::{is_packed_artifact, load_packed, save_packed, PackedInference, PackedModel};
pub use config::{ConfigBuilder, Enhancements, UniVsaConfig};
pub use dvp::ValueMap;
pub use encoding::EncodingLayer;
pub use error::UniVsaError;
pub use export::{load_model, save_model};
pub use fault::{
    ChaosSpec, FaultModel, FaultOutcome, FaultSpec, FaultTarget, SensorFault, SensorFaultSpec,
    CHAOS_ENV_VAR,
};
pub use infer::{similarity_margin, InferenceTrace};
pub use integrity::{crc32, IntegrityReport, ModelIntegrity};
pub use mask::Mask;
pub use memory::{resource_estimate, HardwareLoss, MemoryReport};
pub use model::UniVsaModel;
pub use observe::{EpochObserver, EpochStats};
pub use train::{TrainHistory, TrainOptions, TrainOutcome, UniVsaTrainer};
pub use valuebox::ValueBox;
