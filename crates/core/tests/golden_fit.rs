//! Golden fit: one seeded epoch of the BCI-III-V paper configuration must
//! export byte-identical model bytes. Training runs every float kernel of
//! the partial BNN (value boxes, BiConv forward and both gradients, the
//! encoding layer and the heads), so any change to a per-element
//! accumulation order shows up here as a different checksum.

use univsa::{crc32, save_model, TrainOptions, UniVsaConfig, UniVsaTrainer};

/// Checksum of the exported model container, pinned before the BiConv
/// gradient kernels were rewritten.
const FIT_CRC: u32 = 0xed25_c8b5;

#[test]
fn one_epoch_of_the_bci3v_paper_config_exports_golden_bytes() {
    let task = univsa_data::tasks::bci3v(2025);
    let (d_h, d_l, d_k, o, theta) =
        univsa_data::tasks::paper_config_tuple("BCI-III-V").expect("paper config");
    let cfg = UniVsaConfig::for_task(&task.spec)
        .d_h(d_h)
        .d_l(d_l)
        .d_k(d_k)
        .out_channels(o)
        .voters(theta)
        .build()
        .expect("paper configuration is valid");
    let trainer = UniVsaTrainer::new(
        cfg,
        TrainOptions {
            epochs: 1,
            ..TrainOptions::default()
        },
    );
    let model = trainer.fit(&task.train, 42).expect("fit").model;
    let crc = crc32(&save_model(&model).expect("save"));
    assert_eq!(crc, FIT_CRC, "fit checksum {crc:#010x}");
}
