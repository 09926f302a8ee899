//! Property-based tests of the packed UniVSA model: the packed inference
//! pipeline must agree with naive ±1 integer arithmetic on arbitrary
//! models and inputs, and model invariants must hold across random
//! configurations.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use univsa::{
    Enhancements, FaultModel, FaultSpec, FaultTarget, Mask, MemoryReport, UniVsaConfig, UniVsaModel,
};
use univsa_bits::BitMatrix;
use univsa_data::TaskSpec;

#[derive(Debug, Clone)]
struct Case {
    config: UniVsaConfig,
    seed: u64,
    values: Vec<u8>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    (
        2usize..6,     // width
        3usize..7,     // length
        2usize..5,     // classes
        1usize..9,     // d_h
        1usize..5,     // voters
        2usize..9,     // out_channels
        0u64..1000,    // seed
        any::<bool>(), // dvp
        any::<bool>(), // biconv
        any::<bool>(), // soft voting
    )
        .prop_flat_map(|(w, l, c, d_h, voters, o, seed, dvp, biconv, sv)| {
            let levels = 8usize;
            let spec = TaskSpec {
                name: "prop".into(),
                width: w,
                length: l,
                classes: c,
                levels,
            };
            let d_k = if w.min(l) >= 3 { 3 } else { 1 };
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
            proptest::collection::vec(0u8..levels as u8, n).prop_map(move |values| Case {
                config: config.clone(),
                seed,
                values,
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

/// Naive reference implementation of the whole pipeline in ±1 integers.
fn naive_infer(model: &UniVsaModel, values: &[u8]) -> usize {
    let cfg = model.config();
    let (w, l, d_h) = (cfg.width, cfg.length, cfg.d_h);
    let d = cfg.vsa_dim();
    // 1. value map
    let mut x = vec![vec![0i64; d]; d_h];
    for pos in 0..d {
        let level = values[pos] as usize;
        for (c, row) in x.iter_mut().enumerate() {
            row[pos] = if model.mask().is_high(pos) {
                if model.v_h().row(level).get(c) == Some(true) {
                    1
                } else {
                    -1
                }
            } else if c < model.v_l().dim() {
                if model.v_l().row(level).get(c) == Some(true) {
                    1
                } else {
                    -1
                }
            } else {
                1 // constant fill
            };
        }
    }
    // 2. conv (or passthrough)
    let channels = cfg.encoding_channels();
    let mut a = vec![vec![0i64; d]; channels];
    if cfg.enhancements.biconv {
        let k = cfg.d_k;
        let pad = (k / 2) as isize;
        for (o, arow) in a.iter_mut().enumerate() {
            for y in 0..w {
                for xx in 0..l {
                    let mut acc = 0i64;
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = y as isize + ky as isize - pad;
                            let ix = xx as isize + kx as isize - pad;
                            if iy < 0 || ix < 0 || iy >= w as isize || ix >= l as isize {
                                continue;
                            }
                            let pos = iy as usize * l + ix as usize;
                            let kw = model.kernel_word(o, ky, kx);
                            for (c, xrow) in x.iter().enumerate().take(d_h) {
                                let kv = if (kw >> c) & 1 == 1 { 1 } else { -1 };
                                acc += xrow[pos] * kv;
                            }
                        }
                    }
                    arow[y * l + xx] = if acc >= 0 { 1 } else { -1 };
                }
            }
        }
    } else {
        for (c, arow) in a.iter_mut().enumerate() {
            arow.copy_from_slice(&x[c]);
        }
    }
    // 3. encoding
    let mut s = vec![0i64; d];
    for (pos, slot) in s.iter_mut().enumerate() {
        let mut acc = 0i64;
        for (o, arow) in a.iter().enumerate() {
            let fv = if model.f().row(o).get(pos) == Some(true) {
                1
            } else {
                -1
            };
            acc += arow[pos] * fv;
        }
        *slot = if acc >= 0 { 1 } else { -1 };
    }
    // 4. similarity
    let mut totals = vec![0i64; cfg.classes];
    for set in model.class_sets() {
        for (j, total) in totals.iter_mut().enumerate() {
            let mut dot = 0i64;
            for (pos, &sv) in s.iter().enumerate().take(d) {
                let cv = if set.row(j).get(pos) == Some(true) {
                    1
                } else {
                    -1
                };
                dot += cv * sv;
            }
            *total += dot;
        }
    }
    totals
        .iter()
        .enumerate()
        .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
        .map(|(i, _)| i)
        .expect("classes nonempty")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn packed_pipeline_matches_naive_reference(case in arb_case()) {
        let model = random_model(&case);
        let packed = model.infer(&case.values).unwrap();
        let naive = naive_infer(&model, &case.values);
        prop_assert_eq!(packed, naive);
    }

    #[test]
    fn inference_is_deterministic(case in arb_case()) {
        let model = random_model(&case);
        prop_assert_eq!(
            model.infer(&case.values).unwrap(),
            model.infer(&case.values).unwrap()
        );
    }

    #[test]
    fn encoded_vector_has_model_dimension(case in arb_case()) {
        let model = random_model(&case);
        let s = model.trace(&case.values).unwrap().encoded;
        prop_assert_eq!(s.dim(), case.config.vsa_dim());
    }

    #[test]
    fn storage_matches_eq5(case in arb_case()) {
        let model = random_model(&case);
        prop_assert_eq!(
            model.storage_bits(),
            MemoryReport::for_config(&case.config).total_bits()
        );
    }

    #[test]
    fn serialization_roundtrips(case in arb_case()) {
        let model = random_model(&case);
        let bytes = univsa::save_model(&model).unwrap();
        let restored = univsa::load_model(&bytes).unwrap();
        prop_assert_eq!(&restored, &model);
        prop_assert_eq!(
            restored.infer(&case.values).unwrap(),
            model.infer(&case.values).unwrap()
        );
    }

    #[test]
    fn similarity_totals_bounded_by_dimension(case in arb_case()) {
        let model = random_model(&case);
        let trace = model.trace(&case.values).unwrap();
        let bound = (case.config.vsa_dim() * model.class_sets().len()) as i64;
        for &t in &trace.totals {
            prop_assert!(t.abs() <= bound);
        }
    }

    #[test]
    fn rate_zero_faults_are_identity(case in arb_case()) {
        let model = random_model(&case);
        for fm in [
            FaultModel::BitFlip { rate: 0.0 },
            FaultModel::StuckAt0 { rate: 0.0 },
            FaultModel::StuckAt1 { rate: 0.0 },
            FaultModel::WordBurst { bursts: 0 },
        ] {
            let spec = FaultSpec { model: fm, target: FaultTarget::All, seed: case.seed };
            let outcome = spec.inject(&model).unwrap();
            prop_assert_eq!(outcome.disturbed_bits, 0);
            prop_assert_eq!(&outcome.model, &model);
            prop_assert!(outcome.model.verify_integrity(&model.integrity()).is_clean());
        }
    }

    #[test]
    fn v2_container_roundtrips_identically(case in arb_case()) {
        let model = random_model(&case);
        let bytes = univsa::save_model(&model).unwrap();
        let restored = univsa::load_model(&bytes).unwrap();
        prop_assert_eq!(&restored, &model);
        prop_assert_eq!(univsa::save_model(&restored).unwrap(), bytes);
    }

    #[test]
    fn tmr_repair_is_exact_with_one_corrupted_copy(
        case in arb_case(),
        corrupted_slot in 0usize..3,
        bursts in 1usize..5,
    ) {
        let model = random_model(&case);
        let spec = FaultSpec {
            model: FaultModel::WordBurst { bursts },
            target: FaultTarget::All,
            seed: case.seed ^ 0xDEAD,
        };
        let copies: Vec<UniVsaModel> = (0..3)
            .map(|slot| {
                if slot == corrupted_slot {
                    spec.inject(&model).unwrap().model
                } else {
                    model.clone()
                }
            })
            .collect();
        let repaired = UniVsaModel::repair_from_copies(&copies).unwrap();
        prop_assert_eq!(&repaired, &model);
        prop_assert!(repaired.verify_integrity(&model.integrity()).is_clean());
    }
}
