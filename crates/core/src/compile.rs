//! Ahead-of-time model compiler: lowers a trained [`UniVsaModel`] into a
//! [`PackedModel`] — a flat, cache-resident artifact whose inference path
//! is straight-line XNOR + popcount with no per-sample re-layout.
//!
//! The compiler performs four lowerings, one per pipeline stage:
//!
//! 1. **DVP → LUT rows.** The per-level ValueBox rows are flattened into
//!    two level-indexed `u64` tables. The low table pre-applies the
//!    constant `+1` fill for channels `D_L..D_H`, so building a sample's
//!    value map is one table read per grid position.
//! 2. **BiConv → hamming thresholds.** Each kernel tap word is pre-masked
//!    to the `D_H` channel lanes, and the bipolar sign test
//!    `Σ (2·popcount(xnor) − D_H) ≥ 0` is rewritten as
//!    `Σ popcount(xor) ≤ ⌊taps·D_H/2⌋` with the per-position tap count
//!    (zero padding shrinks it at the borders) folded into a precomputed
//!    threshold table — the inner loop is a bare `xor` + `count_ones`.
//!    When `D_H ≤ 8` (every Table I configuration), the conv is further
//!    lowered to a **byte-lane SWAR** form: 8 grid positions share one
//!    `u64` (one byte lane each), kernel tap bytes are replicated across
//!    all lanes, and a carry-free SWAR byte popcount accumulates 8
//!    hamming sums per op; the zero-pad ring contributes `popcount(tap)`
//!    per out-of-bounds tap, which compiles into a per-channel corrected
//!    threshold table so the inner loop stays branch-free at the borders.
//! 3. **Encoder → vertical adder tree.** The per-channel XNOR with **F**
//!    (stored pre-complemented so binding is a single `xor`) feeds a
//!    bit-sliced ripple-carry counter: 64 grid positions are majority-
//!    bundled in parallel per word column instead of one bit at a time.
//! 4. **Similarity → contiguous class planes.** All voters' class vectors
//!    live in one flat slab; each dot product is a `dim − 2·xor_popcount`
//!    over adjacent words, dispatched to the active SIMD tier of
//!    [`univsa_bits::kernels`].
//!
//! The packed engine is **bit-identical** to [`UniVsaModel::trace`] by
//! construction — same predictions, same summed similarities — which the
//! proptest suite and the six-task fixture tests enforce at every dispatch
//! tier. It is the only engine outside tests: [`UniVsaModel::evaluate`]
//! compiles on the fly and runs [`PackedModel::evaluate`], so training
//! evaluation and search fitness run packed too.
//!
//! The artifact round-trips through its own CRC-protected container
//! ([`save_packed`] / [`load_packed`]) sharing the workspace magic, so a
//! compiled model can ship to a target without the float training stack.

use univsa_bits::kernels::{self, KernelTier};
use univsa_bits::word::{tail_mask, words_for, BITS_PER_WORD};
use univsa_data::Dataset;
use univsa_nn::ConfusionMatrix;
use univsa_telemetry::AllocMark;

use crate::codec::{Container, Reader, Writer};
use crate::config::MAX_ENCODING_CHANNELS;
use crate::infer::{similarity_margin, stage_mark};
use crate::integrity::crc32;
use crate::{UniVsaError, UniVsaModel};

use std::time::Instant;

/// Upper bound on bit-sliced counter planes: enough for
/// [`MAX_ENCODING_CHANNELS`], the builder's bound on encoding channels.
const MAX_PLANES: usize = 16;

/// A trained model lowered to flat packed slabs for straight-line
/// XNOR+popcount inference. Build one with [`PackedModel::compile`].
#[derive(Debug, Clone, PartialEq)]
pub struct PackedModel {
    // geometry (copied out of the config so inference never chases it)
    width: usize,
    length: usize,
    d_h: usize,
    d_k: usize,
    classes: usize,
    levels: usize,
    /// Effective voter count (1 when soft voting is off).
    voters: usize,
    /// Encoding channels: `O` with BiConv, `D_H` without.
    enc_channels: usize,
    biconv: bool,
    /// VSA dimension `D = W·L` and its packed word count.
    dim: usize,
    words: usize,
    /// Per-position routing: `true` → high LUT, `false` → low LUT.
    use_high: Vec<bool>,
    /// Level-indexed channel words from `VB_H` (`levels` entries).
    high_lut: Vec<u64>,
    /// Level-indexed channel words from `VB_L` with the constant `+1`
    /// fill for channels `D_L..D_H` pre-applied (`levels` entries).
    low_lut: Vec<u64>,
    /// Kernel tap words masked to the `D_H` channel lanes,
    /// `o·D_K² + ky·D_K + kx` order (empty when BiConv is off).
    kernel: Vec<u64>,
    /// Per-position hamming-sum threshold `⌊taps·D_H/2⌋` implementing the
    /// zero-padded sign test (empty when BiConv is off).
    conv_thresholds: Vec<u32>,
    /// Complemented feature rows (`enc_channels × words`), so the bipolar
    /// binding `xnor(row, f)` is a single `row ^ f_neg`.
    f_neg: Vec<u64>,
    /// Class planes, `(voter·classes + class)·words` row order.
    class_planes: Vec<u64>,
    /// Number of counter planes for the majority adder tree.
    planes: usize,
    /// Carry-chain constant `2^planes − ⌈enc_channels/2⌉` of the
    /// bit-sliced majority comparison.
    majority_add: u64,
    /// Byte-lane SWAR conv tables, derived (never serialized) whenever
    /// `D_H ≤ 8` and the per-lane hamming sum fits a signed byte.
    swar: Option<SwarConv>,
    tier: KernelTier,
}

/// Derived tables for the byte-lane SWAR conv: 8 grid positions per
/// `u64`, one byte lane each. Rebuilt from the base slabs on both
/// [`PackedModel::compile`] and [`load_packed`].
#[derive(Debug, Clone, PartialEq)]
struct SwarConv {
    /// Kernel tap bytes replicated across all 8 lanes,
    /// `o·D_K² + ky·D_K + kx` order.
    kernel_rep: Vec<u64>,
    /// Per-`(channel, position)` thresholds with the zero-pad ring's
    /// `popcount(tap)` contributions pre-added, so the padded-image SWAR
    /// hamming sum compares directly: `enc_channels × dim`, each ≤ 127.
    thresholds: Vec<u8>,
}

impl SwarConv {
    /// Builds the derived tables, or `None` when the lowering does not
    /// apply (channels wider than a byte lane, or a window hamming sum
    /// that could overflow the `≤ 127` lane budget). Callers skip the
    /// call entirely when BiConv is off.
    fn build(
        d_h: usize,
        k: usize,
        width: usize,
        length: usize,
        enc_channels: usize,
        kernel: &[u64],
        conv_thresholds: &[u32],
    ) -> Option<Self> {
        if d_h > 8 || k * k * d_h > 127 {
            return None;
        }
        let kernel_rep = kernel.iter().map(|&t| t * 0x0101_0101_0101_0101).collect();
        let pad = k / 2;
        let n = width * length;
        let mut thresholds = vec![0u8; enc_channels * n];
        for o in 0..enc_channels {
            let taps = &kernel[o * k * k..(o + 1) * k * k];
            let thr = &mut thresholds[o * n..(o + 1) * n];
            for y in 0..width {
                let ky_lo = pad.saturating_sub(y);
                let ky_hi = k.min(width + pad - y);
                for x in 0..length {
                    let kx_lo = pad.saturating_sub(x);
                    let kx_hi = k.min(length + pad - x);
                    // a zero pad byte xors to popcount(tap) per oob tap
                    let mut oob = 0u32;
                    for ky in 0..k {
                        for kx in 0..k {
                            let inside =
                                (ky_lo..ky_hi).contains(&ky) && (kx_lo..kx_hi).contains(&kx);
                            if !inside {
                                oob += taps[ky * k + kx].count_ones();
                            }
                        }
                    }
                    let pos = y * length + x;
                    // compile-produced thresholds always fit (≤ k²·D_H ≤
                    // 127); a checksum-valid but hand-crafted artifact
                    // with larger values degrades to the scalar path
                    thr[pos] = match u8::try_from(conv_thresholds[pos].saturating_add(oob)) {
                        Ok(t) if t <= 127 => t,
                        _ => return None,
                    };
                }
            }
        }
        Some(Self {
            kernel_rep,
            thresholds,
        })
    }
}

/// Per-byte population counts of a `u64` (carry-free SWAR reduction):
/// byte lane `j` of the result holds `popcount(byte j of x)`.
#[inline]
fn popcount_bytes(mut x: u64) -> u64 {
    x -= (x >> 1) & 0x5555_5555_5555_5555;
    x = (x & 0x3333_3333_3333_3333) + ((x >> 2) & 0x3333_3333_3333_3333);
    (x + (x >> 4)) & 0x0F0F_0F0F_0F0F_0F0F
}

/// One packed inference with the evidence the bit-identity gate compares:
/// the predicted label and the voter-summed similarity totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PackedInference {
    /// Predicted class (argmax of `totals`, lowest index on ties).
    pub label: usize,
    /// Summed per-class similarities across voters — identical to
    /// [`crate::InferenceTrace::totals`].
    pub totals: Vec<i64>,
}

impl PackedModel {
    /// Compiles a trained model at the process-wide SIMD dispatch tier
    /// ([`kernels::active`]).
    #[must_use]
    pub fn compile(model: &UniVsaModel) -> Self {
        Self::compile_with_kernel(model, kernels::active())
    }

    /// Compiles a trained model with an explicit dispatch tier — the
    /// bit-identity tests force every tier through this. An unavailable
    /// tier degrades to the portable loop inside the kernel calls.
    #[must_use]
    pub fn compile_with_kernel(model: &UniVsaModel, tier: KernelTier) -> Self {
        let cfg = model.config();
        let (width, length) = (cfg.width, cfg.length);
        let dim = cfg.vsa_dim();
        let words = words_for(dim);
        let d_h = cfg.d_h;
        let chan_mask = low_mask(d_h);
        let biconv = cfg.enhancements.biconv;
        let enc_channels = cfg.encoding_channels();
        let voters = cfg.effective_voters();

        let use_high: Vec<bool> = (0..cfg.features())
            .map(|i| model.mask().is_high(i))
            .collect();
        let high_lut: Vec<u64> = (0..cfg.levels)
            .map(|l| model.v_h().row(l).as_words().first().copied().unwrap_or(0))
            .collect();
        let d_l = cfg.effective_d_l();
        // channels d_l..d_h of a low-importance feature are constant +1
        let fill = if d_l == d_h {
            0
        } else {
            low_mask(d_h) & !low_mask(d_l)
        };
        let low_lut: Vec<u64> = (0..cfg.levels)
            .map(|l| model.v_l().row(l).as_words().first().copied().unwrap_or(0) | fill)
            .collect();

        let kernel: Vec<u64> = model
            .kernel_words()
            .iter()
            .map(|&w| w & chan_mask)
            .collect();
        let conv_thresholds = if biconv {
            conv_threshold_table(width, length, cfg.d_k, d_h)
        } else {
            Vec::new()
        };

        let mut f_neg = Vec::with_capacity(enc_channels * words);
        for o in 0..enc_channels {
            f_neg.extend(model.f().row(o).as_words().iter().map(|&w| !w));
        }

        let mut class_planes = Vec::with_capacity(voters * cfg.classes * words);
        for set in model.class_sets() {
            for j in 0..cfg.classes {
                class_planes.extend_from_slice(set.row(j).as_words());
            }
        }

        // counter planes sized to hold counts up to enc_channels; every
        // configuration that passed the builder (including one decoded by
        // `load_model`) stays within MAX_ENCODING_CHANNELS
        let planes = (usize::BITS - enc_channels.leading_zeros()) as usize;
        assert!(planes <= MAX_PLANES, "encoding channel count out of range");
        // majority: ones ≥ ⌈enc/2⌉ ⟺ carry out of ones + (2^planes − ⌈enc/2⌉)
        let majority_add = (1u64 << planes) - (enc_channels as u64).div_ceil(2);

        let swar = biconv
            .then(|| {
                SwarConv::build(
                    d_h,
                    cfg.d_k,
                    width,
                    length,
                    enc_channels,
                    &kernel,
                    &conv_thresholds,
                )
            })
            .flatten();

        Self {
            width,
            length,
            d_h,
            d_k: cfg.d_k,
            classes: cfg.classes,
            levels: cfg.levels,
            voters,
            enc_channels,
            biconv,
            dim,
            words,
            use_high,
            high_lut,
            low_lut,
            kernel,
            conv_thresholds,
            f_neg,
            class_planes,
            planes,
            majority_add,
            swar,
            tier,
        }
    }

    /// The SIMD dispatch tier this artifact was compiled for.
    #[must_use]
    pub fn tier(&self) -> KernelTier {
        self.tier
    }

    /// VSA dimension `D = W·L`.
    #[must_use]
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    #[must_use]
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Grid height `W`.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Grid width `L`.
    #[must_use]
    pub fn length(&self) -> usize {
        self.length
    }

    /// Discretization levels `M`.
    #[must_use]
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Total artifact size in bits (every packed slab plus the tables).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        (self.high_lut.len() + self.low_lut.len() + self.kernel.len()) * 64
            + self.use_high.len()
            + self.conv_thresholds.len() * 32
            + (self.f_neg.len() + self.class_planes.len()) * 64
    }

    /// Classifies one sample. Bit-identical to [`UniVsaModel::infer`].
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Input`] if the value count or any level is
    /// out of range, mirroring the reference path.
    pub fn infer(&self, values: &[u8]) -> Result<usize, UniVsaError> {
        Ok(self.infer_detailed(values)?.label)
    }

    /// Classifies one sample and returns the similarity totals the
    /// bit-identity gate compares against [`UniVsaModel::trace`].
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Input`] on geometry mismatch.
    pub fn infer_detailed(&self, values: &[u8]) -> Result<PackedInference, UniVsaError> {
        // mirror the reference path's per-stage telemetry so observability
        // (spans, allocation attribution) is engine-independent; all of it
        // is a no-op when telemetry is off
        let _sample_span = univsa_telemetry::span("infer", "sample");
        let mut timer = univsa_telemetry::enabled().then(Instant::now);
        let mut mem =
            (timer.is_some() && univsa_telemetry::mem_tracking_enabled()).then(AllocMark::now);

        let vm = self.build_value_map(values)?;
        stage_mark(&mut timer, &mut mem, "dvp");
        let conv = if self.biconv {
            self.conv(&vm)
        } else {
            self.channels_as_planes(&vm)
        };
        stage_mark(&mut timer, &mut mem, "biconv");
        let encoded = self.encode(&conv);
        stage_mark(&mut timer, &mut mem, "encode");
        let mut totals = vec![0i64; self.classes];
        for v in 0..self.voters {
            for (j, t) in totals.iter_mut().enumerate() {
                let base = (v * self.classes + j) * self.words;
                let row = &self.class_planes[base..base + self.words];
                let ham = kernels::xor_popcount_with(self.tier, &encoded, row);
                *t += self.dim as i64 - 2 * ham as i64;
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
        Ok(PackedInference { label, totals })
    }

    /// Classifies a batch of samples, fanning out over the `univsa-par`
    /// worker pool; predictions come back in sample order at every thread
    /// count.
    ///
    /// # Errors
    ///
    /// Returns the first per-sample [`UniVsaError::Input`] in sample
    /// order.
    pub fn infer_batch<S: AsRef<[u8]> + Sync>(
        &self,
        samples: &[S],
    ) -> Result<Vec<usize>, UniVsaError> {
        univsa_par::map_indexed("infer.batch", samples.len(), |i| {
            self.infer(samples[i].as_ref())
        })
        .into_iter()
        .collect()
    }

    /// Accuracy over a labelled dataset.
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Input`] if the dataset is empty or its
    /// geometry disagrees with the artifact.
    pub fn evaluate(&self, dataset: &Dataset) -> Result<f64, UniVsaError> {
        Ok(self.evaluate_confusion(dataset)?.accuracy())
    }

    /// Confusion matrix over a labelled dataset. The per-sample
    /// inferences fan out to the worker pool and come back in sample
    /// order, so the fold (and any error propagation) is deterministic at
    /// every thread count. With telemetry on, every outcome also feeds the
    /// quality plane's confusion and calibration stream.
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Input`] under the same conditions as
    /// [`PackedModel::evaluate`].
    pub fn evaluate_confusion(&self, dataset: &Dataset) -> Result<ConfusionMatrix, UniVsaError> {
        if dataset.is_empty() {
            return Err(UniVsaError::Input(
                "cannot evaluate on an empty dataset".into(),
            ));
        }
        let spec = dataset.spec();
        if (spec.width, spec.length, spec.classes) != (self.width, self.length, self.classes) {
            return Err(UniVsaError::Input(format!(
                "dataset geometry ({}, {}, {} classes) disagrees with model ({}, {}, {})",
                spec.width, spec.length, spec.classes, self.width, self.length, self.classes
            )));
        }
        let samples = dataset.samples();
        let telemetry = univsa_telemetry::enabled();
        let preds = univsa_par::map_indexed("infer.evaluate", samples.len(), |i| {
            let d = self.infer_detailed(&samples[i].values)?;
            Ok::<_, UniVsaError>((d.label, similarity_margin(&d.totals)))
        });
        let mut confusion = ConfusionMatrix::new(self.classes);
        for (pred, sample) in preds.into_iter().zip(samples) {
            let (label, margin) = pred?;
            if telemetry {
                univsa_telemetry::record_outcome(sample.label as u32, label as u32, margin);
            }
            confusion.record(sample.label, label);
        }
        Ok(confusion)
    }

    /// Stage 1: one LUT read per grid position (DVP lowered).
    fn build_value_map(&self, values: &[u8]) -> Result<Vec<u64>, UniVsaError> {
        let n = self.width * self.length;
        if values.len() != n {
            return Err(UniVsaError::Input(format!(
                "expected {n} values for a ({}, {}) grid, got {}",
                self.width,
                self.length,
                values.len()
            )));
        }
        let mut words = Vec::with_capacity(n);
        for (i, &level) in values.iter().enumerate() {
            let level = level as usize;
            if level >= self.levels {
                let table = if self.use_high[i] { "VB_H" } else { "VB_L" };
                return Err(UniVsaError::Input(format!(
                    "level {level} out of range for {table} table of {} rows",
                    self.levels
                )));
            }
            words.push(if self.use_high[i] {
                self.high_lut[level]
            } else {
                self.low_lut[level]
            });
        }
        Ok(words)
    }

    /// Stage 2 (BiConv): packed conv planes, `enc_channels × words`,
    /// through the byte-lane SWAR lowering when it applies and the
    /// word-per-position scalar loop otherwise. Both are exact integer
    /// arithmetic — bit-identical by construction.
    fn conv(&self, vm: &[u64]) -> Vec<u64> {
        match &self.swar {
            Some(sw) => self.conv_swar(vm, sw),
            None => self.conv_scalar(vm),
        }
    }

    /// Byte-lane SWAR conv: the value map becomes a zero-padded byte
    /// image (one `D_H`-bit byte per grid position), each unaligned
    /// 8-byte load covers 8 output positions at once, and one SWAR byte
    /// popcount per tap accumulates all 8 hamming sums carry-free. The
    /// pad ring's spurious `popcount(tap)` contributions are pre-added
    /// into `sw.thresholds`, so no border special-casing remains.
    fn conv_swar(&self, vm: &[u64], sw: &SwarConv) -> Vec<u64> {
        let (w, l, k) = (self.width, self.length, self.d_k);
        let pad = k / 2;
        let lp = l + 2 * pad;
        // padded byte image (+8 slack so every lane-group load is in
        // bounds; garbage lanes past the row end are never consumed)
        let mut img = vec![0u8; (w + 2 * pad) * lp + 8];
        for y in 0..w {
            let base = (y + pad) * lp + pad;
            for x in 0..l {
                img[base + x] = vm[y * l + x] as u8;
            }
        }
        let groups = l.div_ceil(8);
        let mut out = vec![0u64; self.enc_channels * self.words];
        for o in 0..self.enc_channels {
            let rep = &sw.kernel_rep[o * k * k..(o + 1) * k * k];
            let thr = &sw.thresholds[o * self.dim..(o + 1) * self.dim];
            let plane = &mut out[o * self.words..(o + 1) * self.words];
            for y in 0..w {
                for g in 0..groups {
                    let x0 = g * 8;
                    let mut acc = 0u64;
                    for ky in 0..k {
                        let row = (y + ky) * lp + x0;
                        for kx in 0..k {
                            let src = &img[row + kx..row + kx + 8];
                            let lanes8 = u64::from_le_bytes(src.try_into().expect("8 bytes"));
                            acc += popcount_bytes(lanes8 ^ rep[ky * k + kx]);
                        }
                    }
                    let lanes = (l - x0).min(8);
                    let hams = acc.to_le_bytes();
                    let mut bits = 0u64;
                    for (j, &ham) in hams.iter().enumerate().take(lanes) {
                        bits |= u64::from(ham <= thr[y * l + x0 + j]) << j;
                    }
                    let pos = y * l + x0;
                    let (wi, sh) = (pos / BITS_PER_WORD, pos % BITS_PER_WORD);
                    plane[wi] |= bits << sh;
                    if sh + lanes > BITS_PER_WORD {
                        // group straddles a word boundary (sh > 56 here,
                        // so the shift below is in range)
                        plane[wi + 1] |= bits >> (BITS_PER_WORD - sh);
                    }
                }
            }
        }
        out
    }

    /// Scalar conv fallback (one word per position). Per tap the
    /// sign-test accumulation is a bare `xor` + `count_ones` against the
    /// pre-masked kernel word; the per-position threshold table absorbs
    /// the zero-padded border tap counts.
    fn conv_scalar(&self, vm: &[u64]) -> Vec<u64> {
        let (w, l, k) = (self.width, self.length, self.d_k);
        let pad = k / 2;
        let mut out = vec![0u64; self.enc_channels * self.words];
        for o in 0..self.enc_channels {
            let taps = &self.kernel[o * k * k..(o + 1) * k * k];
            let plane = &mut out[o * self.words..(o + 1) * self.words];
            for y in 0..w {
                // kernel rows whose source row y + ky − pad is in bounds
                let ky_lo = pad.saturating_sub(y);
                let ky_hi = k.min(w + pad - y);
                for x in 0..l {
                    let kx_lo = pad.saturating_sub(x);
                    let kx_hi = k.min(l + pad - x);
                    let mut ham = 0u64;
                    for ky in ky_lo..ky_hi {
                        let row = (y + ky - pad) * l + x;
                        let tap_row = &taps[ky * k..ky * k + k];
                        for (kx, &tap) in tap_row.iter().enumerate().take(kx_hi).skip(kx_lo) {
                            let pos = row + kx - pad;
                            ham += u64::from((vm[pos] ^ tap).count_ones());
                        }
                    }
                    let pos = y * l + x;
                    if ham <= u64::from(self.conv_thresholds[pos]) {
                        plane[pos / BITS_PER_WORD] |= 1u64 << (pos % BITS_PER_WORD);
                    }
                }
            }
        }
        out
    }

    /// Stage 2 (BiConv off): transpose the value map's channel words into
    /// `D_H` packed channel planes.
    fn channels_as_planes(&self, vm: &[u64]) -> Vec<u64> {
        let mut out = vec![0u64; self.enc_channels * self.words];
        for (pos, &word) in vm.iter().enumerate() {
            let (wi, bit) = (pos / BITS_PER_WORD, pos % BITS_PER_WORD);
            for c in 0..self.enc_channels {
                out[c * self.words + wi] |= ((word >> c) & 1) << bit;
            }
        }
        out
    }

    /// Stage 3: majority bundling via a bit-sliced ripple-carry counter —
    /// 64 positions per word column count their `+1` votes in parallel,
    /// then one carry-chain pass against `majority_add` evaluates
    /// `ones ≥ ⌈enc/2⌉` (the Bundler's `sgn(0) = +1` tiebreak) per lane.
    fn encode(&self, conv: &[u64]) -> Vec<u64> {
        let mut encoded = vec![0u64; self.words];
        for wi in 0..self.words {
            let mut planes = [0u64; MAX_PLANES];
            for o in 0..self.enc_channels {
                // xnor(conv_row, f_row) == conv_row ^ !f_row
                let mut carry = conv[o * self.words + wi] ^ self.f_neg[o * self.words + wi];
                let mut j = 0;
                while carry != 0 {
                    let t = planes[j] & carry;
                    planes[j] ^= carry;
                    carry = t;
                    j += 1;
                }
            }
            let mut carry = 0u64;
            for (j, &plane) in planes.iter().enumerate().take(self.planes) {
                carry = if (self.majority_add >> j) & 1 == 1 {
                    plane | carry
                } else {
                    plane & carry
                };
            }
            encoded[wi] = carry;
        }
        // tail lanes beyond dim carried garbage votes from !f; restore
        // canonical form before the dot products
        if self.words > 0 {
            encoded[self.words - 1] &= tail_mask(self.dim);
        }
        encoded
    }
}

/// Per-position hamming thresholds `⌊taps·D_H/2⌋` for the zero-padded
/// sign test: `acc ≥ 0 ⟺ Σ ham ≤ ⌊taps·D_H/2⌋` with `taps` the number of
/// in-bounds kernel taps at that grid position.
fn conv_threshold_table(w: usize, l: usize, k: usize, d_h: usize) -> Vec<u32> {
    let pad = k / 2;
    let span = |i: usize, n: usize| -> usize { k.min(n + pad - i) - pad.saturating_sub(i) };
    let mut out = Vec::with_capacity(w * l);
    for y in 0..w {
        let ty = span(y, w);
        for x in 0..l {
            let taps = ty * span(x, l);
            out.push((taps * d_h / 2) as u32);
        }
    }
    out
}

/// Mask with the low `bits` bits set (`bits ≤ 64`).
fn low_mask(bits: usize) -> u64 {
    if bits >= 64 {
        u64::MAX
    } else {
        (1u64 << bits) - 1
    }
}

// ---------------------------------------------------------------------------
// artifact container: framed, CRC-protected round-trip
// ---------------------------------------------------------------------------

const PACKED_MAGIC: &[u8; 8] = b"UNIVSAPK";

const PACKED: Container = Container {
    magic: PACKED_MAGIC,
    version: 1,
    name: "packed-artifact",
};

/// Serializes a compiled artifact to its framed container: magic, version,
/// payload length, payload, and a trailing CRC32 of the payload. Loading
/// re-computes the checksum ([`load_packed`]), so storage or transit
/// corruption is caught before the artifact can mispredict — the same
/// integrity contract as the v2 model container.
///
/// # Errors
///
/// Returns [`UniVsaError::Serialize`] if a section exceeds the container's
/// 32-bit limits (impossible for valid configurations).
pub fn save_packed(packed: &PackedModel) -> Result<Vec<u8>, UniVsaError> {
    let mut w = Writer::default();
    for (v, what) in [
        (packed.width, "width"),
        (packed.length, "length"),
        (packed.d_h, "d_h"),
        (packed.d_k, "d_k"),
        (packed.classes, "classes"),
        (packed.levels, "levels"),
        (packed.voters, "voters"),
        (packed.enc_channels, "enc_channels"),
        (packed.planes, "planes"),
    ] {
        w.len(v, what)?;
    }
    w.u8(u8::from(packed.biconv));
    w.u64(packed.majority_add);
    w.len(packed.use_high.len(), "mask length")?;
    w.bitmask(&packed.use_high);
    for slab in [
        &packed.high_lut,
        &packed.low_lut,
        &packed.kernel,
        &packed.f_neg,
        &packed.class_planes,
    ] {
        w.len(slab.len(), "slab length")?;
        w.words(slab);
    }
    w.len(packed.conv_thresholds.len(), "thresholds")?;
    for &t in &packed.conv_thresholds {
        w.u32(t);
    }
    let payload = w.into_bytes();
    let mut out = PACKED.frame(&payload)?;
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    Ok(out)
}

/// Whether a buffer carries the packed-artifact magic (so CLI surfaces can
/// distinguish a compiled artifact from a model container).
#[must_use]
pub fn is_packed_artifact(bytes: &[u8]) -> bool {
    bytes.len() >= 8 && &bytes[..8] == PACKED_MAGIC
}

/// Restores a compiled artifact written by [`save_packed`], verifying the
/// payload checksum and that every section agrees with the geometry and
/// with what [`PackedModel::compile`] derives from it. The artifact runs
/// at the current process's dispatch tier (the tier is a compilation
/// detail of *this* process, not of the stored bits — every tier computes
/// identical results).
///
/// # Errors
///
/// Returns [`UniVsaError::Serialize`] on a bad magic, version, or layout,
/// and [`UniVsaError::Integrity`] when the payload fails its checksum.
pub fn load_packed(bytes: &[u8]) -> Result<PackedModel, UniVsaError> {
    let (payload, trailer) = PACKED.open_frame(bytes, 4)?;
    if crc32(payload) != Reader::new(trailer).u32()? {
        return Err(UniVsaError::Integrity(
            "packed artifact failed its payload checksum".into(),
        ));
    }

    let mut r = Reader::new(payload);
    let mut dims = [0usize; 9];
    for d in &mut dims {
        *d = r.u32()? as usize;
    }
    let [width, length, d_h, d_k, classes, levels, voters, enc_channels, planes] = dims;
    let biconv = r.u8()? != 0;
    let majority_add = r.u64()?;
    let mask_len = r.u32()? as usize;
    let use_high = r.bitmask(mask_len)?;
    let mut slabs: [Vec<u64>; 5] = Default::default();
    for slab in &mut slabs {
        let n = r.u32()? as usize;
        *slab = r.words(n)?;
    }
    let [high_lut, low_lut, kernel, f_neg, class_planes] = slabs;
    let n_thresh = r.count(4)?;
    let conv_thresholds = (0..n_thresh)
        .map(|_| r.u32())
        .collect::<Result<Vec<u32>, _>>()?;
    r.finish()?;

    // every product below is checked: the factors come straight from the
    // payload and a hostile writer can pick any u32 it likes
    let dim = width.checked_mul(length);
    let words = dim.map(words_for);
    let times = |a: usize, b: Option<usize>| b.and_then(|b| a.checked_mul(b));
    let grid_ok = dim.is_some_and(|d| d > 0 && use_high.len() == d)
        && (1..=64).contains(&d_h)
        && d_k % 2 == 1
        && d_k <= width.min(length);
    let counter_ok = (1..=MAX_ENCODING_CHANNELS).contains(&enc_channels)
        && planes == (usize::BITS - enc_channels.leading_zeros()) as usize
        && majority_add == (1u64 << planes) - (enc_channels as u64).div_ceil(2);
    let consistent = grid_ok
        && counter_ok
        && high_lut.len() == levels
        && low_lut.len() == levels
        && Some(f_neg.len()) == times(enc_channels, words)
        && Some(class_planes.len()) == times(voters, times(classes, words))
        && if biconv {
            Some(kernel.len()) == times(enc_channels, d_k.checked_mul(d_k))
                && conv_thresholds == conv_threshold_table(width, length, d_k, d_h)
        } else {
            enc_channels == d_h && kernel.is_empty() && conv_thresholds.is_empty()
        };
    if !consistent {
        return Err(UniVsaError::Serialize(
            "packed artifact sections are mutually inconsistent".into(),
        ));
    }
    // the checks above rule out overflow
    let dim = width * length;
    let words = words_for(dim);

    let swar = biconv
        .then(|| {
            SwarConv::build(
                d_h,
                d_k,
                width,
                length,
                enc_channels,
                &kernel,
                &conv_thresholds,
            )
        })
        .flatten();
    Ok(PackedModel {
        width,
        length,
        d_h,
        d_k,
        classes,
        levels,
        voters,
        enc_channels,
        biconv,
        dim,
        words,
        use_high,
        high_lut,
        low_lut,
        kernel,
        conv_thresholds,
        f_neg,
        class_planes,
        planes,
        majority_add,
        swar,
        tier: kernels::active(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::infer::tests::random_model;
    use crate::Enhancements;

    fn values(seed: usize) -> Vec<u8> {
        (0..20).map(|i| ((i * 3 + seed * 7) % 8) as u8).collect()
    }

    #[test]
    fn packed_matches_reference_labels_and_totals() {
        for seed in 0..8u64 {
            let model = random_model(seed, Enhancements::all());
            let packed = PackedModel::compile(&model);
            for s in 0..6 {
                let v = values(s);
                let t = model.trace(&v).unwrap();
                let p = packed.infer_detailed(&v).unwrap();
                assert_eq!(p.label, t.label, "seed {seed} sample {s}");
                assert_eq!(p.totals, t.totals, "seed {seed} sample {s}");
            }
        }
    }

    #[test]
    fn packed_matches_reference_without_biconv() {
        let e = Enhancements {
            biconv: false,
            ..Enhancements::all()
        };
        for seed in 0..4u64 {
            let model = random_model(seed, e);
            let packed = PackedModel::compile(&model);
            for s in 0..4 {
                let v = values(s);
                let t = model.trace(&v).unwrap();
                let p = packed.infer_detailed(&v).unwrap();
                assert_eq!((p.label, &p.totals), (t.label, &t.totals), "seed {seed}");
            }
        }
    }

    #[test]
    fn every_tier_is_bit_identical() {
        let model = random_model(11, Enhancements::all());
        let reference = model.trace(&values(0)).unwrap();
        for tier in KernelTier::ALL {
            let packed = PackedModel::compile_with_kernel(&model, tier);
            let p = packed.infer_detailed(&values(0)).unwrap();
            assert_eq!(p.label, reference.label, "tier {tier}");
            assert_eq!(p.totals, reference.totals, "tier {tier}");
        }
    }

    #[test]
    fn batch_preserves_sample_order() {
        let model = random_model(3, Enhancements::all());
        let packed = PackedModel::compile(&model);
        let batch: Vec<Vec<u8>> = (0..10).map(values).collect();
        let labels = packed.infer_batch(&batch).unwrap();
        for (i, v) in batch.iter().enumerate() {
            assert_eq!(labels[i], model.infer(v).unwrap(), "sample {i}");
        }
    }

    #[test]
    fn scalar_fallback_matches_reference_when_swar_is_out_of_range() {
        // D_H > 8 exceeds a byte lane, so the SWAR lowering must bow out
        // and the word-per-position loop carries the same bit-identity
        use crate::{Mask, UniVsaConfig};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use univsa_bits::BitMatrix;
        let spec = univsa_data::TaskSpec {
            name: "wide".into(),
            width: 4,
            length: 5,
            classes: 3,
            levels: 8,
        };
        let cfg = UniVsaConfig::for_task(&spec)
            .d_h(12)
            .d_l(4)
            .d_k(3)
            .out_channels(6)
            .voters(2)
            .enhancements(Enhancements::all())
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(21);
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
        let model = crate::UniVsaModel::from_parts(cfg, mask, v_h, v_l, kernel, f, c).unwrap();
        let packed = PackedModel::compile(&model);
        assert!(
            packed.swar.is_none(),
            "D_H = 12 must not take the SWAR path"
        );
        for s in 0..6 {
            let v = values(s);
            let t = model.trace(&v).unwrap();
            let p = packed.infer_detailed(&v).unwrap();
            assert_eq!((p.label, &p.totals), (t.label, &t.totals), "sample {s}");
        }
    }

    #[test]
    fn paper_geometries_take_the_swar_path() {
        for task in univsa_data::tasks::all(3) {
            let (d_h, _, d_k, _, _) =
                univsa_data::tasks::paper_config_tuple(&task.spec.name).unwrap();
            assert!(
                d_h <= 8 && d_k * d_k * d_h <= 127,
                "{} geometry left the SWAR fast path",
                task.spec.name
            );
        }
    }

    #[test]
    fn rejects_bad_input_like_reference() {
        let model = random_model(5, Enhancements::all());
        let packed = PackedModel::compile(&model);
        assert!(packed.infer(&[0u8; 3]).is_err());
        let mut v = vec![0u8; 20];
        v[0] = 8; // level out of range for M = 8
        assert!(packed.infer(&v).is_err());
    }

    #[test]
    fn artifact_round_trips() {
        let model = random_model(9, Enhancements::all());
        let packed = PackedModel::compile(&model);
        let bytes = save_packed(&packed).unwrap();
        assert!(is_packed_artifact(&bytes));
        let restored = load_packed(&bytes).unwrap();
        assert_eq!(restored, packed);
        let v = values(2);
        assert_eq!(restored.infer(&v).unwrap(), model.infer(&v).unwrap());
    }

    #[test]
    fn artifact_detects_corruption() {
        let model = random_model(10, Enhancements::all());
        let bytes = save_packed(&PackedModel::compile(&model)).unwrap();
        // flip a weight bit mid-payload
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 1;
        let err = load_packed(&corrupt).unwrap_err();
        assert!(
            matches!(err, UniVsaError::Integrity(_) | UniVsaError::Serialize(_)),
            "unexpected error: {err}"
        );
        // truncation and bad magic are serialization errors
        assert!(load_packed(&bytes[..10]).is_err());
        let mut bad = bytes;
        bad[0] = b'X';
        assert!(load_packed(&bad).is_err());
    }

    #[test]
    fn evaluate_matches_reference_engine() {
        let task = univsa_data::tasks::bci3v(1);
        let model = {
            // training-free: a random model still defines one fixed
            // function of the input, which both engines must agree on
            use crate::{Mask, UniVsaConfig};
            use rand::rngs::StdRng;
            use rand::SeedableRng;
            use univsa_bits::BitMatrix;
            let cfg = UniVsaConfig::for_task(&task.spec)
                .d_h(8)
                .d_l(1)
                .d_k(3)
                .out_channels(16)
                .voters(3)
                .build()
                .unwrap();
            let mut rng = StdRng::seed_from_u64(2);
            let mask = Mask::from_bits((0..cfg.features()).map(|i| i % 2 == 0).collect());
            crate::UniVsaModel::from_parts(
                cfg.clone(),
                mask,
                BitMatrix::random(cfg.levels, cfg.d_h, &mut rng),
                BitMatrix::random(cfg.levels, cfg.effective_d_l(), &mut rng),
                (0..cfg.out_channels * cfg.d_k * cfg.d_k)
                    .map(|_| rand::Rng::gen::<u64>(&mut rng))
                    .collect(),
                BitMatrix::random(cfg.encoding_channels(), cfg.vsa_dim(), &mut rng),
                (0..cfg.effective_voters())
                    .map(|_| BitMatrix::random(cfg.classes, cfg.vsa_dim(), &mut rng))
                    .collect(),
            )
            .unwrap()
        };
        let packed = PackedModel::compile(&model);
        let acc = packed.evaluate(&task.test).unwrap();
        // the reference evaluate now routes through the packed engine, so
        // cross-check sample by sample against the reference trace
        let mut correct = 0usize;
        for s in task.test.samples() {
            let t = model.trace(&s.values).unwrap();
            assert_eq!(packed.infer(&s.values).unwrap(), t.label);
            if t.label == s.label {
                correct += 1;
            }
        }
        assert_eq!(acc, correct as f64 / task.test.len() as f64);
    }
}
