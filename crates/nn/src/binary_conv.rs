//! The BiConv layer: 2-D convolution with binarized kernels and binarized
//! activations.

use rand::Rng;
use univsa_bits::kernels::{self, BitConv, ConvGeometry};
use univsa_tensor::{
    conv2d_input_grad, conv2d_kernel_grad, uniform, Conv2dSpec, ShapeError, Tensor,
};

use crate::ste::{sign, ste_grad};
use crate::Param;

/// The binary feature-extraction convolution of UniVSA.
///
/// Forward (per sample): `a = sign( x ⊛ sign(K) )` where `x` is a
/// `(D_H, W, L)` bipolar value-vector map and `K` is the latent
/// `(O, D_H, D_K, D_K)` kernel bank. Both the kernel binarization and the
/// output binarization backpropagate through the straight-through
/// estimator.
///
/// This layer establishes the *interaction between features* that plain
/// binary VSA encoding lacks — the paper's central algorithmic enhancement.
///
/// The forward runs on bits: its inputs must be exactly `±1` (the
/// ValueBox `sign` outputs and the `+1` fill), and each pre-activation is
/// `in_bounds_bits − 2·hamming` from the same binary-GEMM kernel as the
/// packed engine ([`BitConv`]). That integer is far below `2²⁴`, so it is
/// exactly the value the float `univsa_tensor::conv2d` computes, in any
/// summation order.
#[derive(Debug, Clone)]
pub struct BinaryConv2d {
    kernel: Param,
    spec: Conv2dSpec,
    cached_input: Option<Vec<Tensor>>,
    cached_preact: Option<Vec<Tensor>>,
}

impl BinaryConv2d {
    /// Creates the layer with latent kernels drawn from `U(-1, 1)`.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the spec is invalid (zero extent or even
    /// kernel).
    pub fn new<R: Rng + ?Sized>(spec: Conv2dSpec, rng: &mut R) -> Result<Self, ShapeError> {
        spec.validate()?;
        Ok(Self {
            kernel: Param::new(uniform(&spec.kernel_dims(), -1.0, 1.0, rng)),
            spec,
            cached_input: None,
            cached_preact: None,
        })
    }

    /// The convolution geometry.
    #[inline]
    pub fn spec(&self) -> &Conv2dSpec {
        &self.spec
    }

    /// The latent kernel parameter.
    #[inline]
    pub fn kernel(&self) -> &Param {
        &self.kernel
    }

    /// Mutable latent kernel parameter (for the optimizer).
    #[inline]
    pub fn kernel_mut(&mut self) -> &mut Param {
        &mut self.kernel
    }

    /// The binarized kernels `sign(K)` — exported as the VSA kernel set
    /// **K** after training.
    pub fn binary_kernel(&self) -> Tensor {
        sign(self.kernel.value())
    }

    /// Forward pass over a batch of `(D_H, W, L)` samples, caching
    /// intermediates for [`BinaryConv2d::backward`].
    ///
    /// Returns the binarized activations, one `(O, W, L)` tensor per
    /// sample.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any sample has the wrong shape or an
    /// element other than `±1`.
    pub fn forward(&mut self, batch: &[Tensor]) -> Result<Vec<Tensor>, ShapeError> {
        let conv = self.bit_conv();
        let in_bounds = conv.geometry().in_bounds_bits();
        let spec = self.spec;
        // per-sample convolutions are independent: fan out to the worker
        // pool; results return in sample order
        let results = univsa_par::map_indexed("train.conv_fwd", batch.len(), |i| {
            preactivation(&conv, &in_bounds, &spec, &batch[i]).map(|pre| {
                let out = sign(&pre);
                (pre, out)
            })
        });
        let mut preacts = Vec::with_capacity(batch.len());
        let mut outs = Vec::with_capacity(batch.len());
        for r in results {
            let (pre, out) = r?;
            outs.push(out);
            preacts.push(pre);
        }
        self.cached_input = Some(batch.to_vec());
        self.cached_preact = Some(preacts);
        Ok(outs)
    }

    /// Forward pass without caching (inference only).
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if the sample has the wrong shape or an
    /// element other than `±1`.
    pub fn infer(&self, x: &Tensor) -> Result<Tensor, ShapeError> {
        let conv = self.bit_conv();
        let in_bounds = conv.geometry().in_bounds_bits();
        Ok(sign(&preactivation(&conv, &in_bounds, &self.spec, x)?))
    }

    /// The binarized kernels `sign(K)` as binary-GEMM kernel rows: bit
    /// `(ky·k + kx)·C + c` of row `o` is `K[o, c, ky, kx] ≥ 0`, the same
    /// `sign(0) = +1` test as [`sign`].
    fn bit_conv(&self) -> BitConv {
        let s = &self.spec;
        let geometry = ConvGeometry::new(s.height, s.width, s.in_channels, s.kernel);
        let nw = geometry.patch_words();
        let taps = s.kernel * s.kernel;
        let latent = self.kernel.value().as_slice();
        let mut rows = vec![0u64; s.out_channels * nw];
        for (o, row) in rows.chunks_exact_mut(nw).enumerate() {
            for c in 0..s.in_channels {
                let base = (o * s.in_channels + c) * taps;
                for (t, &v) in latent[base..base + taps].iter().enumerate() {
                    if v >= 0.0 {
                        geometry.put_tap(row, t, c, 1);
                    }
                }
            }
        }
        BitConv::new(geometry, rows)
    }

    /// Backward pass: accumulates the latent kernel gradient and returns
    /// per-sample input gradients.
    ///
    /// The STE is applied twice: once for the output binarization (masked
    /// by the pre-activation) and once for the kernel binarization (masked
    /// by the latent kernel values). The pre-activation STE window is
    /// widened to the kernel fan-in because the pre-activation of a
    /// `±1 × ±1` convolution has integer magnitude up to `D_H·D_K²`; a
    /// `|x| ≤ 1` window would zero almost all gradients. This matches the
    /// common BNN practice of scaling the hardtanh window by fan-in.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if shapes disagree or `forward` was not
    /// called first.
    pub fn backward(&mut self, grad_out: &[Tensor]) -> Result<Vec<Tensor>, ShapeError> {
        let inputs = self
            .cached_input
            .as_ref()
            .ok_or_else(|| ShapeError::new("BinaryConv2d::backward called before forward"))?;
        let preacts = self
            .cached_preact
            .as_ref()
            .ok_or_else(|| ShapeError::new("BinaryConv2d::backward called before forward"))?;
        if grad_out.len() != inputs.len() {
            return Err(ShapeError::new(format!(
                "backward batch size {} disagrees with forward batch size {}",
                grad_out.len(),
                inputs.len()
            )));
        }
        let inv_fan_in = 1.0 / (self.spec.in_channels * self.spec.kernel * self.spec.kernel) as f32;
        let kb = self.binary_kernel();
        let spec = self.spec;
        // per-sample kernel/input gradients run on workers; the shared
        // kernel gradient is reduced afterwards in strict sample order, so
        // the f32 sums match the serial fold bit-for-bit
        let results = univsa_par::map_indexed("train.conv_bwd", grad_out.len(), |i| {
            // STE through the output sign, window scaled by fan-in, in one
            // pass: the same predicate as `ste_grad` on the scaled preact
            let g_pre = grad_out[i].zip_map(&preacts[i], |g, p| {
                if (p * inv_fan_in).abs() <= 1.0 {
                    g
                } else {
                    0.0
                }
            })?;
            let dk = conv2d_kernel_grad(&inputs[i], &g_pre, &spec)?;
            let gi = conv2d_input_grad(&g_pre, &kb, &spec)?;
            Ok::<_, ShapeError>((dk, gi))
        });
        let mut grad_inputs = Vec::with_capacity(grad_out.len());
        let mut dkb_total = Tensor::zeros(&spec.kernel_dims());
        for r in results {
            let (dk, gi) = r?;
            dkb_total.axpy(1.0, &dk)?;
            grad_inputs.push(gi);
        }
        // STE through the kernel sign.
        let dk = ste_grad(&dkb_total, self.kernel.value());
        self.kernel.grad_mut().axpy(1.0, &dk)?;
        Ok(grad_inputs)
    }

    /// Zeroes the latent kernel gradient.
    pub fn zero_grad(&mut self) {
        self.kernel.zero_grad();
    }
}

/// Pre-activations of one `(C, H, W)` bipolar sample, `(O, H, W)`:
/// `in_bounds_bits − 2·hamming` per output channel and position.
fn preactivation(
    conv: &BitConv,
    in_bounds: &[usize],
    spec: &Conv2dSpec,
    x: &Tensor,
) -> Result<Tensor, ShapeError> {
    let dims = spec.input_dims();
    if x.shape().dims() != dims {
        return Err(ShapeError::new(format!(
            "BinaryConv2d input: expected {dims:?}, got {:?}",
            x.shape().dims()
        )));
    }
    let geometry = conv.geometry();
    let (h, w) = (spec.height, spec.width);
    let mut image = vec![0u64; geometry.image_words()];
    for (c, plane) in x.as_slice().chunks_exact(h * w).enumerate() {
        for (y, row) in plane.chunks_exact(w).enumerate() {
            for (x, &v) in row.iter().enumerate() {
                if v == 1.0 {
                    geometry.put(&mut image, y, x, c, 1);
                } else if v != -1.0 {
                    return Err(ShapeError::new(format!(
                        "BinaryConv2d input must be bipolar: element ({c}, {y}, {x}) is {v}"
                    )));
                }
            }
        }
    }
    let mut hams = vec![0u32; spec.out_channels * h * w];
    conv.hamming_with(kernels::active(), &image, &mut hams);
    let mut pre = Vec::with_capacity(hams.len());
    for channel in hams.chunks_exact(h * w) {
        // |in_bounds − 2·ham| ≤ C·k², an integer f32 holds exactly below 2²⁴
        pre.extend(
            channel
                .iter()
                .zip(in_bounds)
                .map(|(&ham, &bits)| (bits as i64 - 2 * i64::from(ham)) as f32),
        );
    }
    Tensor::from_vec(pre, &spec.output_dims())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn spec() -> Conv2dSpec {
        Conv2dSpec {
            in_channels: 2,
            out_channels: 3,
            kernel: 3,
            height: 4,
            width: 5,
        }
    }

    #[test]
    fn outputs_are_bipolar() {
        let mut rng = StdRng::seed_from_u64(0);
        let mut layer = BinaryConv2d::new(spec(), &mut rng).unwrap();
        let x = univsa_tensor::signs(&[2, 4, 5], &mut rng);
        let out = layer.forward(&[x]).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].shape().dims(), &[3, 4, 5]);
        assert!(out[0].as_slice().iter().all(|&v| v == 1.0 || v == -1.0));
    }

    #[test]
    fn infer_matches_forward() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut layer = BinaryConv2d::new(spec(), &mut rng).unwrap();
        let x = univsa_tensor::signs(&[2, 4, 5], &mut rng);
        let out = layer.forward(std::slice::from_ref(&x)).unwrap();
        assert_eq!(layer.infer(&x).unwrap(), out[0]);
    }

    #[test]
    fn rejects_even_kernel() {
        let mut rng = StdRng::seed_from_u64(2);
        let bad = Conv2dSpec {
            kernel: 2,
            ..spec()
        };
        assert!(BinaryConv2d::new(bad, &mut rng).is_err());
    }

    #[test]
    fn backward_accumulates_kernel_grad() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut layer = BinaryConv2d::new(spec(), &mut rng).unwrap();
        let x = univsa_tensor::signs(&[2, 4, 5], &mut rng);
        let out = layer.forward(&[x]).unwrap();
        layer.zero_grad();
        let g: Vec<Tensor> = out.iter().map(|o| o.map(|_| 1.0)).collect();
        let gx = layer.backward(&g).unwrap();
        assert_eq!(gx.len(), 1);
        assert_eq!(gx[0].shape().dims(), &[2, 4, 5]);
        // some gradient must flow
        assert!(layer.kernel.grad().as_slice().iter().any(|&v| v != 0.0));
    }

    #[test]
    fn backward_batch_size_checked() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut layer = BinaryConv2d::new(spec(), &mut rng).unwrap();
        let x = univsa_tensor::signs(&[2, 4, 5], &mut rng);
        let _ = layer.forward(&[x]).unwrap();
        assert!(layer.backward(&[]).is_err());
    }

    #[test]
    fn preactivations_equal_float_conv2d_bit_for_bit() {
        // the float conv stays the oracle: on bipolar inputs the bit
        // kernel's integer pre-activations must be its exact f32 values,
        // -0.0 vs 0.0 included
        let mut rng = StdRng::seed_from_u64(6);
        for case in 0..24 {
            let spec = Conv2dSpec {
                in_channels: [1, 3, 8, 13, 64][case % 5],
                out_channels: 1 + case % 7,
                kernel: [1, 3, 5][case % 3],
                height: 1 + (case * 5) % 8,
                width: 2 + (case * 3) % 9,
            };
            let mut layer = BinaryConv2d::new(spec, &mut rng).unwrap();
            let x = univsa_tensor::signs(&spec.input_dims(), &mut rng);
            let out = layer.forward(std::slice::from_ref(&x)).unwrap();
            let expect = univsa_tensor::conv2d(&x, &layer.binary_kernel(), &spec).unwrap();
            let pre = &layer.cached_preact.as_ref().unwrap()[0];
            let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(pre), bits(&expect), "case {case}: {spec:?}");
            assert_eq!(out[0], sign(&expect), "case {case}");
        }
    }

    #[test]
    fn non_bipolar_inputs_are_typed_errors() {
        let mut rng = StdRng::seed_from_u64(7);
        let mut layer = BinaryConv2d::new(spec(), &mut rng).unwrap();
        for bad in [0.0, 0.5, -2.0, f32::NAN] {
            let mut x = univsa_tensor::signs(&[2, 4, 5], &mut rng);
            x.as_mut_slice()[13] = bad;
            let err = layer.forward(std::slice::from_ref(&x)).unwrap_err();
            assert!(err.to_string().contains("bipolar"), "{bad}: {err}");
            assert!(layer.infer(&x).is_err(), "{bad}");
        }
        // a wrong shape is still a shape error
        assert!(layer.infer(&Tensor::zeros(&[2, 4, 4])).is_err());
    }

    #[test]
    fn backward_before_forward_fails() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = BinaryConv2d::new(spec(), &mut rng).unwrap();
        assert!(layer.backward(&[Tensor::zeros(&[3, 4, 5])]).is_err());
    }
}
