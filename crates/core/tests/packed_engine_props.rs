//! Property-based bit-identity suite for the compiled packed inference
//! engine: on arbitrary models and inputs, [`PackedModel`] must produce
//! the same predictions *and* the same summed similarity totals as the
//! reference stage-by-stage path — at every SIMD dispatch tier the host
//! can run, not just the one `kernels::active()` picked.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use univsa::{Enhancements, Mask, PackedModel, UniVsaConfig, UniVsaModel};
use univsa_bits::{kernels::KernelTier, BitMatrix};
use univsa_data::TaskSpec;

#[derive(Debug, Clone)]
struct Case {
    config: UniVsaConfig,
    seed: u64,
    samples: Vec<Vec<u8>>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    // grids up to 7×9 so a 5×5 window has interior positions and W·L is
    // not a multiple of 4 or 64; up to 40 channels so channel and
    // position blocks leave tails; D_H across the whole 1..=64 range so
    // patches span 1 to 25 words
    (
        2usize..8,     // width
        3usize..10,    // length
        2usize..5,     // classes
        1usize..=64,   // d_h
        1usize..5,     // voters
        2usize..=40,   // out_channels
        0usize..3,     // d_k pick among {1, 3, 5}
        0u64..1000,    // seed
        any::<bool>(), // dvp
        any::<bool>(), // biconv
        any::<bool>(), // soft voting
    )
        .prop_flat_map(|(w, l, c, d_h, voters, o, k_pick, seed, dvp, biconv, sv)| {
            let levels = 8usize;
            let spec = TaskSpec {
                name: "prop".into(),
                width: w,
                length: l,
                classes: c,
                levels,
            };
            let kernels: Vec<usize> = [1, 3, 5].into_iter().filter(|&k| k <= w.min(l)).collect();
            let d_k = kernels[k_pick % kernels.len()];
            let config = UniVsaConfig::for_task(&spec)
                .d_h(d_h)
                .d_l(1.max(d_h / 2))
                .d_k(d_k)
                .out_channels(o)
                .voters(voters)
                .enhancements(Enhancements {
                    dvp,
                    biconv,
                    soft_voting: sv,
                })
                .build()
                .expect("generated config is valid");
            let n = w * l;
            proptest::collection::vec(proptest::collection::vec(0u8..levels as u8, n), 1usize..5)
                .prop_map(move |samples| Case {
                    config: config.clone(),
                    seed,
                    samples,
                })
        })
}

fn random_model(case: &Case) -> UniVsaModel {
    let cfg = &case.config;
    let mut rng = StdRng::seed_from_u64(case.seed);
    let mask = if cfg.enhancements.dvp {
        Mask::from_bits((0..cfg.features()).map(|_| rng.gen::<bool>()).collect())
    } else {
        Mask::all_high(cfg.features())
    };
    let v_h = BitMatrix::random(cfg.levels, cfg.d_h, &mut rng);
    let v_l = BitMatrix::random(cfg.levels, cfg.effective_d_l(), &mut rng);
    let kernel = if cfg.enhancements.biconv {
        // deliberately unmasked words: the compiler must absorb the
        // channel mask without changing any decision
        (0..cfg.out_channels * cfg.d_k * cfg.d_k)
            .map(|_| rng.gen::<u64>())
            .collect()
    } else {
        vec![]
    };
    let f = BitMatrix::random(cfg.encoding_channels(), cfg.vsa_dim(), &mut rng);
    let c = (0..cfg.effective_voters())
        .map(|_| BitMatrix::random(cfg.classes, cfg.vsa_dim(), &mut rng))
        .collect();
    UniVsaModel::from_parts(cfg.clone(), mask, v_h, v_l, kernel, f, c)
        .expect("random parts are consistent")
}

/// Every tier the host CPU can actually execute (portable always can),
/// `avx512` included on a host with AVX512F and AVX512_VPOPCNTDQ.
fn runnable_tiers() -> Vec<KernelTier> {
    let tiers: Vec<KernelTier> = KernelTier::ALL
        .iter()
        .copied()
        .filter(|t| t.is_available())
        .collect();
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx512f")
        && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    {
        assert!(tiers.contains(&KernelTier::Avx512), "avx512 must run here");
    }
    tiers
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_engine_is_bit_identical_at_every_tier(case in arb_case()) {
        let model = random_model(&case);
        for tier in runnable_tiers() {
            let packed = PackedModel::compile_with_kernel(&model, tier);
            for values in &case.samples {
                let reference = model.trace(values).unwrap();
                let lowered = packed.infer_detailed(values).unwrap();
                prop_assert_eq!(
                    lowered.label, reference.label,
                    "label diverged at tier {}", tier
                );
                prop_assert_eq!(
                    &lowered.totals, &reference.totals,
                    "similarity totals diverged at tier {}", tier
                );
            }
        }
    }

    #[test]
    fn batch_api_matches_serial_inference(case in arb_case()) {
        let model = random_model(&case);
        let packed = PackedModel::compile(&model);
        let batch = packed.infer_batch(&case.samples).unwrap();
        prop_assert_eq!(batch.len(), case.samples.len());
        for (values, label) in case.samples.iter().zip(&batch) {
            prop_assert_eq!(*label, model.infer(values).unwrap());
        }
    }

    #[test]
    fn artifact_round_trip_preserves_predictions(case in arb_case()) {
        let model = random_model(&case);
        let packed = PackedModel::compile(&model);
        let bytes = univsa::save_packed(&packed).unwrap();
        prop_assert!(univsa::is_packed_artifact(&bytes));
        let restored = univsa::load_packed(&bytes).unwrap();
        for values in &case.samples {
            prop_assert_eq!(
                restored.infer(values).unwrap(),
                model.infer(values).unwrap()
            );
        }
    }
}
