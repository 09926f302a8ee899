//! Packed-engine equality on the six Table I benchmark tasks: a seeded
//! model at each task's paper geometry must produce bit-identical labels
//! and similarity totals through [`PackedModel`] at every SIMD dispatch
//! tier the host can run, and the batch API must preserve sample order.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use univsa::{Enhancements, Mask, PackedModel, UniVsaConfig, UniVsaModel};
use univsa_bits::kernels::KernelTier;
use univsa_bits::BitMatrix;
use univsa_data::tasks;
use univsa_data::Task;

/// Samples checked per (task, tier) pair; enough to cover every class and
/// the full level range without making the debug-profile run crawl.
const SAMPLES_PER_TIER: usize = 48;

fn paper_config(task: &Task) -> UniVsaConfig {
    let (d_h, d_l, d_k, o, theta) =
        tasks::paper_config_tuple(&task.spec.name).expect("paper config exists");
    UniVsaConfig::for_task(&task.spec)
        .d_h(d_h)
        .d_l(d_l)
        .d_k(d_k)
        .out_channels(o)
        .voters(theta)
        .enhancements(Enhancements {
            dvp: true,
            biconv: true,
            soft_voting: true,
        })
        .build()
        .expect("paper configurations are valid")
}

/// A deterministic untrained model at the task's paper geometry. Training
/// is irrelevant here: the equality gate is about lowering, so arbitrary
/// (but reproducible) codebooks exercise it just as hard as fitted ones.
fn seeded_model(task: &Task, seed: u64) -> UniVsaModel {
    let cfg = paper_config(task);
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = Mask::from_bits((0..cfg.features()).map(|_| rng.gen::<bool>()).collect());
    let v_h = BitMatrix::random(cfg.levels, cfg.d_h, &mut rng);
    let v_l = BitMatrix::random(cfg.levels, cfg.effective_d_l(), &mut rng);
    let kernel = (0..cfg.out_channels * cfg.d_k * cfg.d_k)
        .map(|_| rng.gen::<u64>())
        .collect();
    let f = BitMatrix::random(cfg.encoding_channels(), cfg.vsa_dim(), &mut rng);
    let c = (0..cfg.effective_voters())
        .map(|_| BitMatrix::random(cfg.classes, cfg.vsa_dim(), &mut rng))
        .collect();
    UniVsaModel::from_parts(cfg, mask, v_h, v_l, kernel, f, c).expect("parts are consistent")
}

#[test]
fn packed_engine_matches_reference_on_all_six_tasks() {
    let tiers: Vec<KernelTier> = KernelTier::ALL
        .iter()
        .copied()
        .filter(|t| t.is_available())
        .collect();
    assert!(tiers.contains(&KernelTier::Portable));
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    {
        assert!(tiers.contains(&KernelTier::Avx512), "avx512 must run here");
    }

    for (i, task) in tasks::all(7).iter().enumerate() {
        let model = seeded_model(task, 0xC0DE + i as u64);
        for &tier in &tiers {
            let packed = PackedModel::compile_with_kernel(&model, tier);
            for sample in task.test.samples().iter().take(SAMPLES_PER_TIER) {
                let reference = model.trace(&sample.values).unwrap();
                let lowered = packed.infer_detailed(&sample.values).unwrap();
                assert_eq!(
                    lowered.label, reference.label,
                    "label diverged on {} at tier {tier}",
                    task.spec.name
                );
                assert_eq!(
                    lowered.totals, reference.totals,
                    "similarity totals diverged on {} at tier {tier}",
                    task.spec.name
                );
                // the quality plane records this margin from both engines;
                // it must be the same u64 bit for bit
                assert_eq!(
                    univsa::similarity_margin(&lowered.totals),
                    univsa::similarity_margin(&reference.totals),
                    "winner/runner-up margin diverged on {} at tier {tier}",
                    task.spec.name
                );
            }
        }
    }
}

#[test]
fn batch_inference_preserves_order_on_all_six_tasks() {
    for (i, task) in tasks::all(11).iter().enumerate() {
        let model = seeded_model(task, 0xBEEF + i as u64);
        let packed = PackedModel::compile(&model);
        let inputs: Vec<&[u8]> = task
            .test
            .samples()
            .iter()
            .take(96)
            .map(|s| s.values.as_slice())
            .collect();
        let batch = packed.infer_batch(&inputs).unwrap();
        assert_eq!(batch.len(), inputs.len());
        for (values, &label) in inputs.iter().zip(&batch) {
            assert_eq!(
                label,
                model.infer(values).unwrap(),
                "batch order broken on {}",
                task.spec.name
            );
        }
    }
}
