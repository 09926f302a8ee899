//! 2-D convolution (forward and gradients) for the binary feature
//! extraction layer.
//!
//! The UniVSA BiConv layer convolves a value-vector feature map of shape
//! `(C_in, H, W)` with a kernel bank of shape `(C_out, C_in, K, K)` using
//! stride 1 and `same` zero padding, so the output is `(C_out, H, W)` and
//! the VSA dimension `D = H·W` is preserved (consistent with the paper's
//! memory model Eq. 5, which charges `W×L×O` for the feature vectors).
//!
//! Zero padding is sound in the bipolar domain: a padded `0` contributes
//! nothing to the pre-activation sum, which is exactly how the hardware's
//! boundary handling behaves.
//!
//! Each optimized kernel is bit-identical to its `*_naive` oracle because
//! it keeps the oracle's per-element accumulation order: the forward sums
//! taps in `(c, ky, kx)` order, the input gradient in `(co, ky, kx)`
//! order, and the kernel gradient sums one row dot per output row in
//! ascending `ox` and folds the row sums in ascending `oy`. Lanes, tiles
//! and blocks only decide which accumulators share a register.

use crate::{gemm, ShapeError, Tensor};

/// Output channels accumulated side by side in the kernel gradient.
const LANES: usize = 16;
/// Input channels per register tile of the input gradient.
const CT: usize = 4;
/// Output positions per register tile of the input gradient.
const XT: usize = 8;
/// Output channels per L1-resident tap block of the input gradient.
const OB: usize = 4;

/// Geometry of a stride-1 `same`-padded 2-D convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Conv2dSpec {
    /// Input channel count (`D_H` in the paper).
    pub in_channels: usize,
    /// Output channel count (`O` in the paper).
    pub out_channels: usize,
    /// Square kernel side (`D_K` in the paper). Must be odd for `same`
    /// padding.
    pub kernel: usize,
    /// Input/output height (`W` in the paper's `(W, L)` window grid).
    pub height: usize,
    /// Input/output width (`L` in the paper's `(W, L)` window grid).
    pub width: usize,
}

impl Conv2dSpec {
    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`ShapeError`] if any extent is zero or the kernel is even
    /// (even kernels cannot be `same`-padded symmetrically).
    pub fn validate(&self) -> Result<(), ShapeError> {
        if self.in_channels == 0
            || self.out_channels == 0
            || self.kernel == 0
            || self.height == 0
            || self.width == 0
        {
            return Err(ShapeError::new("conv2d extents must all be nonzero"));
        }
        if self.kernel.is_multiple_of(2) {
            return Err(ShapeError::new(format!(
                "same-padded conv2d needs an odd kernel, got {}",
                self.kernel
            )));
        }
        Ok(())
    }

    /// Expected input shape `(in_channels, height, width)`.
    pub fn input_dims(&self) -> [usize; 3] {
        [self.in_channels, self.height, self.width]
    }

    /// Output shape `(out_channels, height, width)`.
    pub fn output_dims(&self) -> [usize; 3] {
        [self.out_channels, self.height, self.width]
    }

    /// Kernel shape `(out_channels, in_channels, kernel, kernel)`.
    pub fn kernel_dims(&self) -> [usize; 4] {
        [
            self.out_channels,
            self.in_channels,
            self.kernel,
            self.kernel,
        ]
    }

    fn pad(&self) -> isize {
        (self.kernel / 2) as isize
    }
}

/// Forward 2-D convolution: `input (C_in,H,W) ⊛ kernel (C_out,C_in,K,K) →
/// (C_out,H,W)` with stride 1 and `same` zero padding.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or the operand shapes do
/// not match it.
///
/// # Examples
///
/// ```
/// use univsa_tensor::{conv2d, Conv2dSpec, Tensor};
/// let spec = Conv2dSpec { in_channels: 1, out_channels: 1, kernel: 3, height: 4, width: 4 };
/// let input = Tensor::full(&[1, 4, 4], 1.0);
/// let kernel = Tensor::full(&[1, 1, 3, 3], 1.0);
/// let out = conv2d(&input, &kernel, &spec)?;
/// // interior pixel sees all 9 taps
/// assert_eq!(out.at(&[0, 1, 1]), 9.0);
/// // corner pixel sees only 4
/// assert_eq!(out.at(&[0, 0, 0]), 4.0);
/// # Ok::<(), univsa_tensor::ShapeError>(())
/// ```
pub fn conv2d(input: &Tensor, kernel: &Tensor, spec: &Conv2dSpec) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(input, &spec.input_dims(), "conv2d input")?;
    check_dims4(kernel, &spec.kernel_dims(), "conv2d kernel")?;
    let (ci, h, w, k) = (spec.in_channels, spec.height, spec.width, spec.kernel);
    let hw = h * w;
    // im2col: the kernel bank (C_out, C_in, K, K) is already a row-major
    // (C_out × C_in·K·K) matrix; lowering the input to a (C_in·K·K × H·W)
    // column matrix turns the convolution into one blocked GEMM. Column
    // row order (c, ky, kx) matches the naive tap order, and out-of-bounds
    // taps become ±0 products, so the result is bit-identical to
    // [`conv2d_naive`].
    let cols = shifted_cols(input.as_slice(), ci, h, w, k, spec.pad());
    let mut out = vec![0.0f32; spec.out_channels * hw];
    gemm::gemm(
        kernel.as_slice(),
        &cols,
        spec.out_channels,
        ci * k * k,
        hw,
        &mut out,
    );
    Tensor::from_vec(out, &spec.output_dims())
}

/// Reference implementation of [`conv2d`] (original row-sliced tap loops),
/// retained as the test oracle for the im2col path.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or the operand shapes do
/// not match it.
pub fn conv2d_naive(
    input: &Tensor,
    kernel: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(input, &spec.input_dims(), "conv2d input")?;
    check_dims4(kernel, &spec.kernel_dims(), "conv2d kernel")?;
    let (ci, h, w, k) = (spec.in_channels, spec.height, spec.width, spec.kernel);
    let pad = spec.pad();
    let x = input.as_slice();
    let kbuf = kernel.as_slice();
    let mut out = vec![0.0f32; spec.out_channels * h * w];
    // row-sliced accumulation: for every kernel tap, add a shifted slice of
    // the input row into the output row (vectorizes, no per-element bounds
    // arithmetic)
    for co in 0..spec.out_channels {
        let kbase = co * ci * k * k;
        for c in 0..ci {
            let xbase = c * h * w;
            let kcbase = kbase + c * k * k;
            for oy in 0..h {
                let orow_start = co * h * w + oy * w;
                for ky in 0..k {
                    let iy = oy as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let xrow = &x[xbase + iy as usize * w..xbase + (iy as usize + 1) * w];
                    let krow = &kbuf[kcbase + ky * k..kcbase + ky * k + k];
                    let orow = &mut out[orow_start..orow_start + w];
                    for (kx, &kv) in krow.iter().enumerate() {
                        if kv == 0.0 {
                            continue;
                        }
                        let shift = kx as isize - pad;
                        let lo = (-shift).max(0) as usize;
                        let hi = (w as isize - shift).clamp(0, w as isize) as usize;
                        if lo >= hi {
                            continue;
                        }
                        let src =
                            &xrow[(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                        for (o, &xv) in orow[lo..hi].iter_mut().zip(src) {
                            *o += kv * xv;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &spec.output_dims())
}

/// Gradient of the convolution output w.r.t. the input: a full correlation
/// of `grad_out (C_out,H,W)` with the flipped kernel, producing
/// `(C_in,H,W)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or shapes mismatch.
pub fn conv2d_input_grad(
    grad_out: &Tensor,
    kernel: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(grad_out, &spec.output_dims(), "conv2d_input_grad grad_out")?;
    check_dims4(kernel, &spec.kernel_dims(), "conv2d_input_grad kernel")?;
    let (ci, co, h, w, k) = (
        spec.in_channels,
        spec.out_channels,
        spec.height,
        spec.width,
        spec.kernel,
    );
    let pad = k / 2;
    let kk = k * k;
    // d input[c, iy, ix] = Σ_{co,ky,kx} g[co, iy+pad-ky, ix+pad-kx] · K[co, c, ky, kx],
    // computed directly as register tiles of CT channels × XT positions. The kernel is transposed to
    // ((co, ky, kx), C_in) so a channel tile is one contiguous load; the
    // channel count is padded with zero taps to whole tiles.
    let cp = ci.next_multiple_of(CT);
    let kbuf = kernel.as_slice();
    let mut kt = vec![0.0f32; co * kk * cp];
    for o in 0..co {
        for c in 0..ci {
            for (t, &v) in kbuf[(o * ci + c) * kk..][..kk].iter().enumerate() {
                kt[(o * kk + t) * cp + c] = v;
            }
        }
    }
    // grad_out on a zero-padded plane: a `2·pad` halo makes every tap an
    // in-bounds read, and the width is rounded up so a position tile never
    // runs off a row. A halo tap (or a zero kernel tap, which the oracle
    // skips) adds a ±0 product, which cannot change a +0-started
    // accumulator.
    let wt = w.next_multiple_of(XT);
    let (ph, pw) = (h + 2 * pad, wt + 2 * pad);
    let g = grad_out.as_slice();
    let mut gp = vec![0.0f32; co * ph * pw];
    for o in 0..co {
        for y in 0..h {
            gp[(o * ph + y + pad) * pw + pad..][..w].copy_from_slice(&g[(o * h + y) * w..][..w]);
        }
    }
    // plane offset of every (co, ky, kx) tap, relative to output (0, 0)
    let mut taps = Vec::with_capacity(co * kk);
    for o in 0..co {
        for ky in 0..k {
            for kx in 0..k {
                taps.push((o * ph + 2 * pad - ky) * pw + 2 * pad - kx);
            }
        }
    }
    // Taps run in blocks of OB output channels so a block's grad planes
    // stay in L1 while every tile passes over them. Each tile's
    // accumulators are parked in `out` between blocks, so per element the
    // taps still add in ascending (co, ky, kx) order — bit-identical to
    // [`conv2d_input_grad_naive`]. `out` holds whole tiles (cp × H × wt)
    // until it is compacted at the end.
    let mut out = vec![0.0f32; cp * h * wt];
    for o0 in (0..co).step_by(OB) {
        let block = o0 * kk..(o0 + OB).min(co) * kk;
        let btaps = &taps[block.clone()];
        let bkt = &kt[block.start * cp..block.end * cp];
        for c0 in (0..cp).step_by(CT) {
            for iy in 0..h {
                for x0 in (0..wt).step_by(XT) {
                    let at = |l: usize| ((c0 + l) * h + iy) * wt + x0;
                    let mut acc = [[0.0f32; XT]; CT];
                    for (l, a) in acc.iter_mut().enumerate() {
                        a.copy_from_slice(&out[at(l)..][..XT]);
                    }
                    for (&tap, kcol) in btaps.iter().zip(bkt.chunks_exact(cp)) {
                        let gv: &[f32; XT] = gp[tap + iy * pw + x0..][..XT]
                            .try_into()
                            .expect("tile width");
                        for (a, &kc) in acc.iter_mut().zip(&kcol[c0..c0 + CT]) {
                            for (s, &gx) in a.iter_mut().zip(gv) {
                                *s += kc * gx;
                            }
                        }
                    }
                    for (l, a) in acc.iter().enumerate() {
                        out[at(l)..][..XT].copy_from_slice(a);
                    }
                }
            }
        }
    }
    // compact (C_in, H, wt) rows to (C_in, H, W); rows only move left
    for row in 0..ci * h {
        out.copy_within(row * wt..row * wt + w, row * w);
    }
    out.truncate(ci * h * w);
    Tensor::from_vec(out, &spec.input_dims())
}

/// Reference implementation of [`conv2d_input_grad`] (original row-sliced
/// tap loops), retained as the test oracle.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or shapes mismatch.
pub fn conv2d_input_grad_naive(
    grad_out: &Tensor,
    kernel: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(grad_out, &spec.output_dims(), "conv2d_input_grad grad_out")?;
    check_dims4(kernel, &spec.kernel_dims(), "conv2d_input_grad kernel")?;
    let (ci, h, w, k) = (spec.in_channels, spec.height, spec.width, spec.kernel);
    let pad = spec.pad();
    let g = grad_out.as_slice();
    let kbuf = kernel.as_slice();
    let mut out = vec![0.0f32; ci * h * w];
    // d input[c, iy, ix] = Σ_co Σ_ky Σ_kx g[co, iy+pad-ky, ix+pad-kx] * K[co, c, ky, kx]
    // — a correlation with the flipped kernel; accumulated row-sliced like
    // the forward pass
    for co in 0..spec.out_channels {
        for c in 0..ci {
            let kcbase = (co * ci + c) * k * k;
            for iy in 0..h {
                let orow_start = c * h * w + iy * w;
                for ky in 0..k {
                    let oy = iy as isize + pad - ky as isize;
                    if oy < 0 || oy >= h as isize {
                        continue;
                    }
                    let grow = &g[co * h * w + oy as usize * w..co * h * w + (oy as usize + 1) * w];
                    let krow = &kbuf[kcbase + ky * k..kcbase + ky * k + k];
                    let orow = &mut out[orow_start..orow_start + w];
                    for (kx, &kv) in krow.iter().enumerate() {
                        if kv == 0.0 {
                            continue;
                        }
                        // ox = ix + pad - kx ⇒ source shifted by (pad - kx)
                        let shift = pad - kx as isize;
                        let lo = (-shift).max(0) as usize;
                        let hi = (w as isize - shift).clamp(0, w as isize) as usize;
                        if lo >= hi {
                            continue;
                        }
                        let src =
                            &grow[(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                        for (o, &gv) in orow[lo..hi].iter_mut().zip(src) {
                            *o += kv * gv;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(out, &spec.input_dims())
}

/// Gradient of the convolution output w.r.t. the kernel, producing
/// `(C_out,C_in,K,K)`.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or shapes mismatch.
pub fn conv2d_kernel_grad(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(input, &spec.input_dims(), "conv2d_kernel_grad input")?;
    check_dims(grad_out, &spec.output_dims(), "conv2d_kernel_grad grad_out")?;
    let (ci, co, h, w, k) = (
        spec.in_channels,
        spec.out_channels,
        spec.height,
        spec.width,
        spec.kernel,
    );
    let hw = h * w;
    let kk = k * k;
    let pad = spec.pad();
    let x = input.as_slice();
    let g = grad_out.as_slice();
    // Per tap the naive oracle sums one row dot (ascending `ox`) per
    // output row and folds the row sums into the tap, starting from +0, in
    // ascending `oy`. A flat dot over all rows would reassociate, so it is
    // not a GEMM. But output channels are independent accumulators:
    // grad_out is transposed to [co tile][oy][ox][lane] and LANES channels
    // run side by side, each lane keeping exactly the two-level order, so
    // the result is bit-identical. Lanes past C_out see zero gradients and
    // land in padding rows of `out` that are truncated away.
    let tiles = co.div_ceil(LANES);
    let mut gt = vec![0.0f32; tiles * hw * LANES];
    for o in 0..co {
        let (tile, lane) = (o / LANES, o % LANES);
        for (p, &v) in g[o * hw..][..hw].iter().enumerate() {
            gt[(tile * hw + p) * LANES + lane] = v;
        }
    }
    let mut out = vec![0.0f32; tiles * LANES * ci * kk];
    for tile in 0..tiles {
        for oy in 0..h {
            let gtile = &gt[(tile * hw + oy * w) * LANES..][..w * LANES];
            for c in 0..ci {
                for ky in 0..k {
                    let iy = oy as isize + ky as isize - pad;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let xrow = &x[c * hw + iy as usize * w..][..w];
                    for kx in 0..k {
                        let shift = kx as isize - pad;
                        let lo = (-shift).max(0) as usize;
                        let hi = (w as isize - shift).clamp(0, w as isize) as usize;
                        if lo >= hi {
                            continue;
                        }
                        let src = &xrow[(lo as isize + shift) as usize..][..hi - lo];
                        let mut row = [0.0f32; LANES];
                        for (gv, &xv) in gtile[lo * LANES..hi * LANES].chunks_exact(LANES).zip(src)
                        {
                            for (r, &gl) in row.iter_mut().zip(gv) {
                                *r += gl * xv;
                            }
                        }
                        let tap = (c * k + ky) * k + kx;
                        for (lane, r) in row.into_iter().enumerate() {
                            out[((tile * LANES + lane) * ci) * kk + tap] += r;
                        }
                    }
                }
            }
        }
    }
    out.truncate(co * ci * kk);
    Tensor::from_vec(out, &spec.kernel_dims())
}

/// Reference implementation of [`conv2d_kernel_grad`] (original tap-outer
/// loops), retained as the test oracle.
///
/// # Errors
///
/// Returns [`ShapeError`] if the spec is invalid or shapes mismatch.
pub fn conv2d_kernel_grad_naive(
    input: &Tensor,
    grad_out: &Tensor,
    spec: &Conv2dSpec,
) -> Result<Tensor, ShapeError> {
    spec.validate()?;
    check_dims(input, &spec.input_dims(), "conv2d_kernel_grad input")?;
    check_dims(grad_out, &spec.output_dims(), "conv2d_kernel_grad grad_out")?;
    let (ci, h, w, k) = (spec.in_channels, spec.height, spec.width, spec.kernel);
    let pad = spec.pad();
    let x = input.as_slice();
    let g = grad_out.as_slice();
    let mut out = vec![0.0f32; spec.out_channels * ci * k * k];
    for co in 0..spec.out_channels {
        for c in 0..ci {
            let kcbase = (co * ci + c) * k * k;
            for ky in 0..k {
                for kx in 0..k {
                    // dot products of shifted row slices
                    let shift = kx as isize - pad;
                    let lo = (-shift).max(0) as usize;
                    let hi = (w as isize - shift).clamp(0, w as isize) as usize;
                    let mut acc = 0.0f32;
                    if lo < hi {
                        for oy in 0..h {
                            let iy = oy as isize + ky as isize - pad;
                            if iy < 0 || iy >= h as isize {
                                continue;
                            }
                            let grow = &g[co * h * w + oy * w..co * h * w + oy * w + w];
                            let xrow =
                                &x[c * h * w + iy as usize * w..c * h * w + (iy as usize + 1) * w];
                            let src = &xrow
                                [(lo as isize + shift) as usize..(hi as isize + shift) as usize];
                            acc += grow[lo..hi]
                                .iter()
                                .zip(src)
                                .map(|(&gv, &xv)| gv * xv)
                                .sum::<f32>();
                        }
                    }
                    out[kcbase + ky * k + kx] = acc;
                }
            }
        }
    }
    Tensor::from_vec(out, &spec.kernel_dims())
}

/// Lowers a `(chans, h, w)` map to a `(chans·k·k × h·w)` column matrix:
/// row `(c, ky, kx)` holds `x[c, oy + ky - pad, ox + kx - pad]`.
/// Out-of-bounds taps stay zero.
fn shifted_cols(x: &[f32], chans: usize, h: usize, w: usize, k: usize, pad: isize) -> Vec<f32> {
    let hw = h * w;
    let mut cols = vec![0.0f32; chans * k * k * hw];
    for c in 0..chans {
        for ky in 0..k {
            let dy = ky as isize - pad;
            for kx in 0..k {
                let dx = kx as isize - pad;
                let lo = (-dx).max(0) as usize;
                let hi = ((w as isize).min(w as isize - dx)).max(0) as usize;
                if lo >= hi {
                    continue;
                }
                let row = ((c * k + ky) * k + kx) * hw;
                for oy in 0..h {
                    let iy = oy as isize + dy;
                    if iy < 0 || iy >= h as isize {
                        continue;
                    }
                    let src = &x[c * hw + iy as usize * w..][..w];
                    let dst = &mut cols[row + oy * w..][..w];
                    dst[lo..hi].copy_from_slice(
                        &src[(lo as isize + dx) as usize..(hi as isize + dx) as usize],
                    );
                }
            }
        }
    }
    cols
}

fn check_dims(t: &Tensor, dims: &[usize; 3], what: &str) -> Result<(), ShapeError> {
    if t.shape().dims() != dims {
        return Err(ShapeError::new(format!(
            "{what} must have shape {:?}, got {}",
            dims,
            t.shape()
        )));
    }
    Ok(())
}

fn check_dims4(t: &Tensor, dims: &[usize; 4], what: &str) -> Result<(), ShapeError> {
    if t.shape().dims() != dims {
        return Err(ShapeError::new(format!(
            "{what} must have shape {:?}, got {}",
            dims,
            t.shape()
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn spec(ci: usize, co: usize, k: usize, h: usize, w: usize) -> Conv2dSpec {
        Conv2dSpec {
            in_channels: ci,
            out_channels: co,
            kernel: k,
            height: h,
            width: w,
        }
    }

    fn random_tensor(dims: &[usize], rng: &mut StdRng) -> Tensor {
        let n: usize = dims.iter().product();
        Tensor::from_vec((0..n).map(|_| rng.gen_range(-1.0..1.0)).collect(), dims).unwrap()
    }

    #[test]
    fn identity_kernel_passes_through() {
        let s = spec(1, 1, 3, 5, 5);
        let mut rng = StdRng::seed_from_u64(1);
        let x = random_tensor(&[1, 5, 5], &mut rng);
        let mut k = Tensor::zeros(&[1, 1, 3, 3]);
        *k.at_mut(&[0, 0, 1, 1]) = 1.0;
        let y = conv2d(&x, &k, &s).unwrap();
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn rejects_even_kernel() {
        let s = spec(1, 1, 2, 4, 4);
        assert!(s.validate().is_err());
    }

    #[test]
    fn rejects_zero_extent() {
        assert!(spec(0, 1, 3, 4, 4).validate().is_err());
        assert!(spec(1, 1, 3, 0, 4).validate().is_err());
    }

    #[test]
    fn rejects_wrong_shapes() {
        let s = spec(2, 3, 3, 4, 4);
        let x = Tensor::zeros(&[1, 4, 4]);
        let k = Tensor::zeros(&[3, 2, 3, 3]);
        assert!(conv2d(&x, &k, &s).is_err());
        let x = Tensor::zeros(&[2, 4, 4]);
        let k = Tensor::zeros(&[3, 2, 3, 5]);
        assert!(conv2d(&x, &k, &s).is_err());
    }

    #[test]
    fn sums_channels() {
        let s = spec(2, 1, 1, 2, 2);
        let x =
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], &[2, 2, 2]).unwrap();
        let k = Tensor::from_vec(vec![1.0, 1.0], &[1, 2, 1, 1]).unwrap();
        let y = conv2d(&x, &k, &s).unwrap();
        assert_eq!(y.as_slice(), &[11.0, 22.0, 33.0, 44.0]);
    }

    /// Finite-difference check of both gradient paths.
    #[test]
    fn gradients_match_finite_difference() {
        let s = spec(2, 3, 3, 4, 3);
        let mut rng = StdRng::seed_from_u64(7);
        let x = random_tensor(&[2, 4, 3], &mut rng);
        let k = random_tensor(&[3, 2, 3, 3], &mut rng);
        let g = random_tensor(&[3, 4, 3], &mut rng);

        // analytic
        let gx = conv2d_input_grad(&g, &k, &s).unwrap();
        let gk = conv2d_kernel_grad(&x, &g, &s).unwrap();

        let loss =
            |x: &Tensor, k: &Tensor| -> f32 { conv2d(x, k, &s).unwrap().mul(&g).unwrap().sum() };
        let eps = 1e-2f32;
        // input grad: spot check several coordinates
        for idx in [0usize, 5, 11, 23] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let fd = (loss(&xp, &k) - loss(&xm, &k)) / (2.0 * eps);
            assert!(
                (fd - gx.as_slice()[idx]).abs() < 1e-2,
                "input grad at {idx}: fd={fd} analytic={}",
                gx.as_slice()[idx]
            );
        }
        // kernel grad
        for idx in [0usize, 8, 17, 53] {
            let mut kp = k.clone();
            kp.as_mut_slice()[idx] += eps;
            let mut km = k.clone();
            km.as_mut_slice()[idx] -= eps;
            let fd = (loss(&x, &kp) - loss(&x, &km)) / (2.0 * eps);
            assert!(
                (fd - gk.as_slice()[idx]).abs() < 1e-2,
                "kernel grad at {idx}: fd={fd} analytic={}",
                gk.as_slice()[idx]
            );
        }
    }

    /// Bitwise equality of all three optimized kernels with the naive
    /// oracles (`assert_eq!` on tensors would let `-0.0 == 0.0` through).
    fn assert_matches_naive(x: &Tensor, kn: &Tensor, g: &Tensor, s: &Conv2dSpec) {
        let bits = |t: Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let what = format!(
            "{}x{} k{} {}x{}",
            s.in_channels, s.out_channels, s.kernel, s.height, s.width
        );
        assert_eq!(
            bits(conv2d(x, kn, s).unwrap()),
            bits(conv2d_naive(x, kn, s).unwrap()),
            "conv2d {what}"
        );
        assert_eq!(
            bits(conv2d_input_grad(g, kn, s).unwrap()),
            bits(conv2d_input_grad_naive(g, kn, s).unwrap()),
            "input grad {what}"
        );
        assert_eq!(
            bits(conv2d_kernel_grad(x, g, s).unwrap()),
            bits(conv2d_kernel_grad_naive(x, g, s).unwrap()),
            "kernel grad {what}"
        );
    }

    /// The optimized kernels must be bit-identical to the naive oracles
    /// across kernel sizes, non-square maps, and channel counts that do
    /// not fill a lane or tile.
    #[test]
    fn optimized_conv_matches_naive_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(99);
        for &(ci, co, k, h, w) in &[
            (1usize, 1usize, 1usize, 3usize, 3usize),
            (2, 3, 3, 4, 3),
            (3, 2, 3, 7, 11),
            (2, 4, 5, 6, 9),
            (4, 1, 5, 5, 4),
            (1, 2, 7, 9, 8),
            (5, 17, 3, 3, 2),
            (1, 3, 9, 3, 3),
        ] {
            let x = random_tensor(&[ci, h, w], &mut rng);
            let kn = random_tensor(&[co, ci, k, k], &mut rng);
            let g = random_tensor(&[co, h, w], &mut rng);
            assert_matches_naive(&x, &kn, &g, &spec(ci, co, k, h, w));
        }
    }

    /// The six Table I BiConv geometries `(in, out, k, H, W)` as training
    /// runs them: bipolar inputs, ±1 kernels, and STE-masked float
    /// gradients with exact zeros.
    #[test]
    fn table1_conv_geometries_match_naive_bit_exactly() {
        let mut rng = StdRng::seed_from_u64(2025);
        for &(ci, co, k, h, w) in &[
            (8usize, 95usize, 3usize, 16usize, 64usize),
            (8, 151, 3, 16, 6),
            (8, 16, 3, 23, 64),
            (4, 16, 5, 23, 64),
            (4, 22, 3, 16, 40),
            (8, 18, 3, 16, 36),
        ] {
            let bipolar = |n: usize, rng: &mut StdRng| -> Vec<f32> {
                (0..n)
                    .map(|_| if rng.gen::<bool>() { 1.0 } else { -1.0 })
                    .collect()
            };
            let x = Tensor::from_vec(bipolar(ci * h * w, &mut rng), &[ci, h, w]).unwrap();
            let kn = Tensor::from_vec(bipolar(co * ci * k * k, &mut rng), &[co, ci, k, k]).unwrap();
            let g = (0..co * h * w)
                .map(|_| {
                    if rng.gen_range(0..3) == 0 {
                        0.0
                    } else {
                        rng.gen_range(-1e-3..1e-3)
                    }
                })
                .collect();
            let g = Tensor::from_vec(g, &[co, h, w]).unwrap();
            assert_matches_naive(&x, &kn, &g, &spec(ci, co, k, h, w));
        }
    }

    /// Exact zeros in kernel and input exercise the naive zero-skip paths
    /// against the ±0 products the optimized kernels add (im2col and
    /// halo zeros, zero kernel taps).
    #[test]
    fn optimized_conv_matches_naive_with_zeros() {
        let s = spec(2, 2, 3, 5, 6);
        let mut rng = StdRng::seed_from_u64(17);
        let mut x = random_tensor(&[2, 5, 6], &mut rng);
        let mut kn = random_tensor(&[2, 2, 3, 3], &mut rng);
        let mut g = random_tensor(&[2, 5, 6], &mut rng);
        for (i, v) in x.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        for (i, v) in kn.as_mut_slice().iter_mut().enumerate() {
            if i % 4 == 0 {
                *v = 0.0;
            }
        }
        for (i, v) in g.as_mut_slice().iter_mut().enumerate() {
            if i % 5 == 0 {
                *v = 0.0;
            }
        }
        assert_eq!(
            conv2d(&x, &kn, &s).unwrap(),
            conv2d_naive(&x, &kn, &s).unwrap()
        );
        assert_eq!(
            conv2d_input_grad(&g, &kn, &s).unwrap(),
            conv2d_input_grad_naive(&g, &kn, &s).unwrap()
        );
        assert_eq!(
            conv2d_kernel_grad(&x, &g, &s).unwrap(),
            conv2d_kernel_grad_naive(&x, &g, &s).unwrap()
        );
    }

    #[test]
    fn output_dims_match_spec() {
        let s = spec(3, 5, 3, 7, 9);
        let mut rng = StdRng::seed_from_u64(3);
        let x = random_tensor(&[3, 7, 9], &mut rng);
        let k = random_tensor(&[5, 3, 3, 3], &mut rng);
        let y = conv2d(&x, &k, &s).unwrap();
        assert_eq!(y.shape().dims(), &[5, 7, 9]);
    }
}
