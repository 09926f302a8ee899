//! The reference inference engine: the paper's pipeline stage by stage
//! on [`BitMatrix`] rows — DVP value map, packed BiConv, majority
//! encoding, per-voter similarities — with every intermediate kept in an
//! [`InferenceTrace`].
//!
//! It is the oracle, not the production path. Deployment, evaluation and
//! every CLI surface run [`crate::PackedModel`], whose labels and
//! similarity totals the property suites hold bit-identical to
//! [`UniVsaModel::trace`].

use std::time::Instant;

use univsa_bits::{kernels, BitMatrix, BitVec, Bundler};
use univsa_data::Dataset;
use univsa_telemetry::AllocMark;

use crate::{UniVsaError, UniVsaModel, ValueMap};

/// Rolling stage timer for the inference pipeline: `None` (telemetry off)
/// costs nothing; `Some` emits an `infer.<name>` span per stage and
/// restarts the clock. When the counting allocator is on, an
/// [`AllocMark`] is lapped alongside so each stage span carries its
/// allocation delta.
pub(crate) fn stage_mark(
    timer: &mut Option<Instant>,
    mem: &mut Option<AllocMark>,
    name: &'static str,
) {
    if let Some(t) = timer {
        match mem.as_mut() {
            Some(mark) => {
                univsa_telemetry::record_span_mem("infer", name, t.elapsed(), &[], mark.lap());
            }
            None => univsa_telemetry::record_span("infer", name, t.elapsed(), &[]),
        }
        *t = Instant::now();
    }
}

/// The similarity margin of a decided inference: winning total minus
/// runner-up total. Both engines compute the same exact `i64` totals
/// before the same argmax, so margins are bit-identical between the
/// reference and packed paths by construction. Zero when fewer than two
/// classes exist (no runner-up) or on an exact tie.
pub fn similarity_margin(totals: &[i64]) -> u64 {
    let mut best = i64::MIN;
    let mut second = i64::MIN;
    for &t in totals {
        if t > best {
            second = best;
            best = t;
        } else if t > second {
            second = t;
        }
    }
    if second == i64::MIN {
        0
    } else {
        // totals are bounded by ±(voters · D), so this never overflows
        (best - second) as u64
    }
}

/// All intermediates of one inference, for inspection, testing, and the
/// hardware simulator (which replays the same pipeline cycle by cycle).
#[derive(Debug, Clone)]
pub struct InferenceTrace {
    /// The DVP output: per-position packed channel words.
    pub value_map: ValueMap,
    /// BiConv output feature map `(O × D)` (the value map re-laid-out as
    /// `(D_H × D)` when BiConv is disabled).
    pub conv_out: BitMatrix,
    /// The encoded sample vector `s` (`D` bits).
    pub encoded: BitVec,
    /// Per-voter, per-class dot-product similarities.
    pub similarities: Vec<Vec<i64>>,
    /// Summed similarities across voters (Eq. 4 without the `1/Θ`, which
    /// does not change the argmax).
    pub totals: Vec<i64>,
    /// The predicted class.
    pub label: usize,
}

impl UniVsaModel {
    /// Classifies one sample (its `W·L` discretized feature levels).
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Input`] if the value count or any level is
    /// out of range for this model.
    ///
    /// # Examples
    ///
    /// See the crate-level quickstart.
    pub fn infer(&self, values: &[u8]) -> Result<usize, UniVsaError> {
        Ok(self.trace(values)?.label)
    }

    /// Classifies one sample and returns every intermediate stage.
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Input`] on geometry mismatch.
    pub fn trace(&self, values: &[u8]) -> Result<InferenceTrace, UniVsaError> {
        // parent span for the whole sample: the four stage spans recorded
        // by `stage_mark` causally attach to it while tracing
        let _sample_span = univsa_telemetry::span("infer", "sample");
        let mut timer = univsa_telemetry::enabled().then(Instant::now);
        let mut mem =
            (timer.is_some() && univsa_telemetry::mem_tracking_enabled()).then(AllocMark::now);
        let cfg = self.config();
        let value_map = ValueMap::build(
            values,
            self.mask(),
            self.v_h(),
            self.v_l(),
            cfg.width,
            cfg.length,
        )?;
        stage_mark(&mut timer, &mut mem, "dvp");
        let conv_out = if cfg.enhancements.biconv {
            self.packed_conv(&value_map)
        } else {
            self.channels_as_rows(&value_map)
        };
        stage_mark(&mut timer, &mut mem, "biconv");
        let encoded = self.encode_from_channels(&conv_out)?;
        stage_mark(&mut timer, &mut mem, "encode");
        let similarities: Vec<Vec<i64>> = self
            .class_sets()
            .iter()
            .map(|set| set.dots(&encoded))
            .collect::<Result<_, _>>()?;
        let mut totals = vec![0i64; cfg.classes];
        for sims in &similarities {
            for (t, &s) in totals.iter_mut().zip(sims) {
                *t += s;
            }
        }
        let label = totals
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.cmp(b).then(ib.cmp(ia)))
            .map(|(i, _)| i)
            .unwrap_or(0);
        stage_mark(&mut timer, &mut mem, "similarity");
        if timer.is_some() {
            univsa_telemetry::counter("infer.samples", 1);
            univsa_telemetry::record_prediction(label as u32, similarity_margin(&totals));
        }
        Ok(InferenceTrace {
            value_map,
            conv_out,
            encoded,
            similarities,
            totals,
            label,
        })
    }

    /// Accuracy over a labelled dataset, through the packed engine
    /// ([`crate::PackedModel::evaluate`]).
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Input`] if the dataset geometry disagrees
    /// with the model or the dataset is empty.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<f64, UniVsaError> {
        crate::PackedModel::compile(self).evaluate(dataset)
    }

    /// Full confusion matrix over a labelled dataset — balanced accuracy
    /// matters on imbalanced tasks like CHB-IB.
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Input`] under the same conditions as
    /// [`UniVsaModel::evaluate`].
    pub fn evaluate_confusion(
        &self,
        dataset: &Dataset,
    ) -> Result<univsa_nn::ConfusionMatrix, UniVsaError> {
        crate::PackedModel::compile(self).evaluate_confusion(dataset)
    }

    /// The packed binary convolution: for every output channel and grid
    /// position, the bipolar tap sum is accumulated as
    /// `Σ (2·popcount(xnor(value_word, kernel_word)) − D_H)` over in-bounds
    /// taps (out-of-bounds taps contribute 0, i.e. zero padding), then
    /// binarized with `sgn(0) = +1`.
    fn packed_conv(&self, vm: &ValueMap) -> BitMatrix {
        let cfg = self.config();
        let (w, l, k, o_count) = (cfg.width, cfg.length, cfg.d_k, cfg.out_channels);
        let d_h = cfg.d_h as i64;
        let pad = (k / 2) as isize;
        let chan_mask = if cfg.d_h >= 64 {
            u64::MAX
        } else {
            (1u64 << cfg.d_h) - 1
        };
        let d = w * l;
        let rows = (0..o_count)
            .map(|o| {
                let mut row = BitVec::zeros(d);
                for y in 0..w {
                    for x in 0..l {
                        let mut acc = 0i64;
                        for ky in 0..k {
                            let iy = y as isize + ky as isize - pad;
                            for kx in 0..k {
                                let ix = x as isize + kx as isize - pad;
                                if let Some(word) = vm.word_at(iy, ix) {
                                    let kw = self.kernel_word(o, ky, kx);
                                    let agree =
                                        kernels::xnor_popcount_word(word, kw, chan_mask) as i64;
                                    acc += 2 * agree - d_h;
                                }
                            }
                        }
                        if acc >= 0 {
                            row.set(y * l + x, true);
                        }
                    }
                }
                row
            })
            .collect::<Vec<_>>();
        BitMatrix::from_rows(rows).expect("conv rows share dimension")
    }

    /// Lays the value map out as channel rows `(D_H × D)` for the
    /// BiConv-disabled path.
    fn channels_as_rows(&self, vm: &ValueMap) -> BitMatrix {
        let cfg = self.config();
        let d = cfg.vsa_dim();
        let rows = (0..cfg.d_h)
            .map(|c| {
                let mut row = BitVec::zeros(d);
                for pos in 0..d {
                    if (vm.word(pos) >> c) & 1 == 1 {
                        row.set(pos, true);
                    }
                }
                row
            })
            .collect::<Vec<_>>();
        BitMatrix::from_rows(rows).expect("channel rows share dimension")
    }

    /// The encoding stage: XNOR each channel row with its feature vector
    /// and majority-bundle across channels (`sgn(0) = +1`).
    fn encode_from_channels(&self, channels: &BitMatrix) -> Result<BitVec, UniVsaError> {
        let d = self.config().vsa_dim();
        let mut bundler = Bundler::new(d);
        for (o, row) in channels.iter().enumerate() {
            let bound = row.xnor(self.f().row(o))?;
            bundler.add(&bound)?;
        }
        Ok(bundler.finish())
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{Enhancements, Mask, UniVsaConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use univsa_data::TaskSpec;

    fn spec() -> TaskSpec {
        TaskSpec {
            name: "t".into(),
            width: 4,
            length: 5,
            classes: 3,
            levels: 8,
        }
    }

    pub(crate) fn random_model(seed: u64, enhancements: Enhancements) -> UniVsaModel {
        let cfg = UniVsaConfig::for_task(&spec())
            .d_h(4)
            .d_l(2)
            .d_k(3)
            .out_channels(6)
            .voters(2)
            .enhancements(enhancements)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let mask = if enhancements.dvp {
            Mask::from_bits((0..cfg.features()).map(|i| i % 3 != 0).collect())
        } else {
            Mask::all_high(cfg.features())
        };
        let v_h = BitMatrix::random(cfg.levels, cfg.d_h, &mut rng);
        let v_l = BitMatrix::random(cfg.levels, cfg.effective_d_l(), &mut rng);
        let kernel = if enhancements.biconv {
            (0..cfg.out_channels * cfg.d_k * cfg.d_k)
                .map(|_| rand::Rng::gen::<u64>(&mut rng) & 0xF)
                .collect()
        } else {
            vec![]
        };
        let f = BitMatrix::random(cfg.encoding_channels(), cfg.vsa_dim(), &mut rng);
        let c = (0..cfg.effective_voters())
            .map(|_| BitMatrix::random(cfg.classes, cfg.vsa_dim(), &mut rng))
            .collect();
        UniVsaModel::from_parts(cfg, mask, v_h, v_l, kernel, f, c).unwrap()
    }

    #[test]
    fn infer_runs_and_is_deterministic() {
        let model = random_model(0, Enhancements::all());
        let values: Vec<u8> = (0..20).map(|i| (i % 8) as u8).collect();
        let a = model.infer(&values).unwrap();
        let b = model.infer(&values).unwrap();
        assert_eq!(a, b);
        assert!(a < 3);
    }

    #[test]
    fn trace_exposes_consistent_stages() {
        let model = random_model(1, Enhancements::all());
        let values: Vec<u8> = (0..20).map(|i| (i % 8) as u8).collect();
        let t = model.trace(&values).unwrap();
        assert_eq!(t.conv_out.rows(), 6);
        assert_eq!(t.conv_out.dim(), 20);
        assert_eq!(t.encoded.dim(), 20);
        assert_eq!(t.similarities.len(), 2);
        assert_eq!(t.totals.len(), 3);
        // totals are voter sums
        for j in 0..3 {
            assert_eq!(t.totals[j], t.similarities[0][j] + t.similarities[1][j]);
        }
        // argmax consistency
        assert_eq!(
            t.label,
            (0..3)
                .max_by_key(|&j| (t.totals[j], std::cmp::Reverse(j)))
                .unwrap()
        );
    }

    #[test]
    fn biconv_disabled_uses_channels() {
        let e = Enhancements {
            biconv: false,
            ..Enhancements::all()
        };
        let model = random_model(2, e);
        let values: Vec<u8> = (0..20).map(|i| (i % 8) as u8).collect();
        let t = model.trace(&values).unwrap();
        assert_eq!(t.conv_out.rows(), 4); // D_H channels
                                          // channel rows reproduce the value map bits
        for c in 0..4 {
            for pos in 0..20 {
                assert_eq!(
                    t.conv_out.row(c).get(pos) == Some(true),
                    (t.value_map.word(pos) >> c) & 1 == 1
                );
            }
        }
    }

    /// The packed convolution must agree with a naive ±1 integer
    /// convolution with zero padding.
    #[test]
    fn packed_conv_matches_naive() {
        let model = random_model(3, Enhancements::all());
        let values: Vec<u8> = (0..20).map(|i| ((i * 3) % 8) as u8).collect();
        let t = model.trace(&values).unwrap();
        let cfg = model.config();
        let (w, l, k) = (cfg.width, cfg.length, cfg.d_k);
        let pad = (k / 2) as isize;
        for o in 0..cfg.out_channels {
            for y in 0..w {
                for x in 0..l {
                    let mut acc = 0i64;
                    for ky in 0..k {
                        for kx in 0..k {
                            let iy = y as isize + ky as isize - pad;
                            let ix = x as isize + kx as isize - pad;
                            if iy < 0 || ix < 0 || iy >= w as isize || ix >= l as isize {
                                continue;
                            }
                            let pos = iy as usize * l + ix as usize;
                            let kw = model.kernel_word(o, ky, kx);
                            for c in 0..cfg.d_h {
                                let xv = t.value_map.bipolar(pos, c) as i64;
                                let kv = if (kw >> c) & 1 == 1 { 1i64 } else { -1 };
                                acc += xv * kv;
                            }
                        }
                    }
                    let expect = acc >= 0;
                    assert_eq!(
                        t.conv_out.row(o).get(y * l + x),
                        Some(expect),
                        "mismatch at o={o} y={y} x={x}: acc={acc}"
                    );
                }
            }
        }
    }

    /// Encoding must agree with naive per-position channel bundling.
    #[test]
    fn encoding_matches_naive() {
        let model = random_model(4, Enhancements::all());
        let values: Vec<u8> = (0..20).map(|i| ((7 * i) % 8) as u8).collect();
        let t = model.trace(&values).unwrap();
        let cfg = model.config();
        for d in 0..cfg.vsa_dim() {
            let mut sum = 0i64;
            for o in 0..cfg.out_channels {
                let a = if t.conv_out.row(o).get(d) == Some(true) {
                    1i64
                } else {
                    -1
                };
                let f = if model.f().row(o).get(d) == Some(true) {
                    1i64
                } else {
                    -1
                };
                sum += a * f;
            }
            assert_eq!(t.encoded.get(d), Some(sum >= 0), "position {d}, sum {sum}");
        }
    }

    #[test]
    fn evaluate_checks_geometry() {
        let model = random_model(5, Enhancements::all());
        let bad_spec = TaskSpec {
            name: "x".into(),
            width: 3,
            length: 5,
            classes: 3,
            levels: 8,
        };
        let ds = univsa_data::Dataset::new(
            bad_spec,
            vec![univsa_data::Sample {
                values: vec![0; 15],
                label: 0,
            }],
        )
        .unwrap();
        assert!(model.evaluate(&ds).is_err());
    }

    #[test]
    fn infer_rejects_bad_input() {
        let model = random_model(6, Enhancements::all());
        assert!(model.infer(&[0u8; 3]).is_err());
        // level 8 out of range for M = 8
        let mut values = vec![0u8; 20];
        values[0] = 8;
        assert!(model.infer(&values).is_err());
    }
}
