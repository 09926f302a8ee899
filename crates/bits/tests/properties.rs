//! Property-based tests for the packed bit substrate.

use proptest::prelude::*;
use univsa_bits::kernels::{xnor_popcount_word, BitConv, ConvGeometry, KernelTier};
use univsa_bits::{BitMatrix, BitVec, Bundler};

fn arb_bipolar(dim: usize) -> impl Strategy<Value = Vec<i8>> {
    proptest::collection::vec(prop_oneof![Just(-1i8), Just(1i8)], dim)
}

fn arb_pair() -> impl Strategy<Value = (Vec<i8>, Vec<i8>)> {
    (1usize..300).prop_flat_map(|d| (arb_bipolar(d), arb_bipolar(d)))
}

proptest! {
    #[test]
    fn bipolar_roundtrip(vals in (0usize..300).prop_flat_map(arb_bipolar)) {
        let v = BitVec::from_bipolar(&vals).unwrap();
        prop_assert_eq!(v.to_bipolar(), vals);
    }

    #[test]
    fn dot_matches_naive((a, b) in arb_pair()) {
        let va = BitVec::from_bipolar(&a).unwrap();
        let vb = BitVec::from_bipolar(&b).unwrap();
        let naive: i64 = a.iter().zip(&b).map(|(&x, &y)| x as i64 * y as i64).sum();
        prop_assert_eq!(va.dot(&vb).unwrap(), naive);
    }

    #[test]
    fn hamming_symmetry_and_bounds((a, b) in arb_pair()) {
        let va = BitVec::from_bipolar(&a).unwrap();
        let vb = BitVec::from_bipolar(&b).unwrap();
        let h1 = va.hamming(&vb).unwrap();
        let h2 = vb.hamming(&va).unwrap();
        prop_assert_eq!(h1, h2);
        prop_assert!(h1 as usize <= a.len());
    }

    #[test]
    fn xnor_is_elementwise_product((a, b) in arb_pair()) {
        let va = BitVec::from_bipolar(&a).unwrap();
        let vb = BitVec::from_bipolar(&b).unwrap();
        let prod: Vec<i8> = a.iter().zip(&b).map(|(&x, &y)| x * y).collect();
        prop_assert_eq!(va.xnor(&vb).unwrap().to_bipolar(), prod);
    }

    #[test]
    fn xnor_self_is_ones(a in (1usize..300).prop_flat_map(arb_bipolar)) {
        let v = BitVec::from_bipolar(&a).unwrap();
        let s = v.xnor(&v).unwrap();
        prop_assert_eq!(s.count_ones() as usize, a.len());
    }

    #[test]
    fn double_negation_is_identity(a in (1usize..300).prop_flat_map(arb_bipolar)) {
        let v = BitVec::from_bipolar(&a).unwrap();
        prop_assert_eq!(v.not().not(), v);
    }

    #[test]
    fn xor_xnor_complementary((a, b) in arb_pair()) {
        let va = BitVec::from_bipolar(&a).unwrap();
        let vb = BitVec::from_bipolar(&b).unwrap();
        let x1 = va.xor(&vb).unwrap();
        let x2 = va.xnor(&vb).unwrap().not();
        prop_assert_eq!(x1, x2);
    }

    #[test]
    fn bundler_matches_naive_majority(
        rows in (1usize..120, 1usize..9).prop_flat_map(|(d, n)| {
            proptest::collection::vec(arb_bipolar(d), n)
        })
    ) {
        let dim = rows[0].len();
        let mut bundler = Bundler::new(dim);
        for r in &rows {
            bundler.add(&BitVec::from_bipolar(r).unwrap()).unwrap();
        }
        let s = bundler.finish();
        for i in 0..dim {
            let sum: i32 = rows.iter().map(|r| r[i] as i32).sum();
            let expect = sum >= 0; // sgn(0) = +1
            prop_assert_eq!(s.get(i), Some(expect));
        }
    }

    #[test]
    fn nearest_row_dot_is_maximal(
        (rows, q) in (1usize..100, 1usize..8).prop_flat_map(|(d, n)| {
            (proptest::collection::vec(arb_bipolar(d), n), arb_bipolar(d))
        })
    ) {
        let m = BitMatrix::from_rows(
            rows.iter().map(|r| BitVec::from_bipolar(r).unwrap()).collect(),
        ).unwrap();
        let query = BitVec::from_bipolar(&q).unwrap();
        let best = m.nearest(&query).unwrap();
        let dots = m.dots(&query).unwrap();
        for d in &dots {
            prop_assert!(dots[best] >= *d);
        }
    }

    #[test]
    fn display_parse_roundtrip(a in (0usize..200).prop_flat_map(arb_bipolar)) {
        let v = BitVec::from_bipolar(&a).unwrap();
        let parsed: BitVec = v.to_string().parse().unwrap();
        prop_assert_eq!(parsed, v);
    }
}

/// Deterministic word stream for the conv property's grids and kernels.
fn splitmix(seed: &mut u64) -> u64 {
    *seed = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *seed;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The binary-GEMM conv against a naive per-tap loop over a
    /// zero-padded grid, at every tier this CPU runs: every Hamming count,
    /// and every sign bit against random thresholds. The shapes cover
    /// 1-word patches (`k²·C ≤ 64`), 2-word patches (`C = 8, k = 3`, the
    /// Table I width), 25-word patches (`C = 64, k = 5`) and a random mix.
    #[test]
    fn bit_conv_matches_naive_per_tap_loop(
        width in 1usize..8,
        length in 1usize..10,
        shape in 0usize..4,
        wide in 1usize..=64,
        out in 1usize..6,
        mut seed in any::<u64>(),
    ) {
        let (channels, k) = match shape {
            0 => (1 + wide % 7, 3),
            1 => (8, 3),
            2 => (64, 5),
            _ => (wide, [1, 3, 5][wide % 3]),
        };
        let geometry = ConvGeometry::new(width, length, channels, k);
        let n = width * length;
        let chan_mask = if channels == 64 { u64::MAX } else { (1u64 << channels) - 1 };
        let grid: Vec<u64> = (0..n).map(|_| splitmix(&mut seed) & chan_mask).collect();
        // deliberately unmasked kernel words: bits past the channels drop
        let taps: Vec<u64> = (0..out * k * k).map(|_| splitmix(&mut seed)).collect();

        let mut image = vec![0u64; geometry.image_words()];
        for (pos, &word) in grid.iter().enumerate() {
            geometry.put(&mut image, pos / length, pos % length, 0, word);
        }
        let nw = geometry.patch_words();
        let mut rows = vec![0u64; out * nw];
        for (o, row) in rows.chunks_exact_mut(nw).enumerate() {
            for t in 0..k * k {
                geometry.put_tap(row, t, 0, taps[o * k * k + t]);
            }
        }
        let conv = BitConv::new(geometry, rows);

        let pad = k / 2;
        let mut naive = vec![0u32; out * n];
        for o in 0..out {
            for y in 0..width {
                for x in 0..length {
                    let mut ham = 0;
                    for ky in 0..k {
                        for kx in 0..k {
                            let (sy, sx) = (y + ky, x + kx);
                            if sy < pad || sy - pad >= width || sx < pad || sx - pad >= length {
                                continue; // zero padding: the tap is out of the grid
                            }
                            let cell = grid[(sy - pad) * length + sx - pad];
                            let tap = taps[o * k * k + ky * k + kx];
                            ham += channels as u32 - xnor_popcount_word(cell, tap, chan_mask);
                        }
                    }
                    naive[o * n + y * length + x] = ham;
                }
            }
        }
        let in_bounds = geometry.in_bounds_bits();
        let thresholds: Vec<u32> = in_bounds
            .iter()
            .map(|&b| (splitmix(&mut seed) % (b as u64 + 1)) as u32)
            .collect();
        let words = n.div_ceil(64);
        let mut expect_planes = vec![0u64; out * words];
        for o in 0..out {
            for p in 0..n {
                if naive[o * n + p] <= thresholds[p] {
                    expect_planes[o * words + p / 64] |= 1 << (p % 64);
                }
            }
        }

        let tiers: Vec<KernelTier> =
            KernelTier::ALL.into_iter().filter(|t| t.is_available()).collect();
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
        {
            prop_assert!(tiers.contains(&KernelTier::Avx512), "avx512 must run here");
        }
        for tier in tiers {
            let mut hams = vec![0u32; out * n];
            conv.hamming_with(tier, &image, &mut hams);
            prop_assert_eq!(&hams, &naive, "hamming counts at tier {}", tier);
            let planes = conv.sign_planes_with(tier, &image, &thresholds);
            prop_assert_eq!(&planes, &expect_planes, "sign planes at tier {}", tier);
        }
        // in_bounds_bits counts the window taps inside the grid
        for (p, &b) in in_bounds.iter().enumerate() {
            let (y, x) = (p / length, p % length);
            let rows = (y + pad + 1).min(width) - y.saturating_sub(pad);
            let cols = (x + pad + 1).min(length) - x.saturating_sub(pad);
            prop_assert_eq!(b, rows * cols * channels);
        }
    }
}
