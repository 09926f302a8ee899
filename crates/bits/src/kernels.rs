//! Runtime-dispatched popcount / XOR-popcount kernels.
//!
//! Every similarity, Hamming-distance, and binary-convolution inner loop in
//! the workspace reduces to one of three primitives over packed `u64` slabs:
//!
//! * [`count_ones`] — `Σ popcount(wᵢ)`
//! * [`xor_popcount`] — `Σ popcount(aᵢ ^ bᵢ)` (the Hamming distance of two
//!   canonical packed vectors)
//! * [`BitConv`] — a zero-padded binary convolution lowered to one binary
//!   GEMM, `[W·L × K²·C] × [K²·C × O]`: per grid position and output
//!   channel, `Σ popcount((patch ^ kernel_row) & in_bounds)` over a bit
//!   im2col patch matrix, either compared with a per-position threshold
//!   ([`BitConv::sign_planes_with`]) or returned as a count
//!   ([`BitConv::hamming_with`])
//!
//! All three are provided at several *dispatch tiers* selected once at startup
//! ([`active`]) from CPU feature detection, overridable with the
//! `UNIVSA_KERNELS` environment variable:
//!
//! | tier       | arch    | popcount / XOR-popcount                        | [`BitConv`]                                   |
//! |------------|---------|------------------------------------------------|-----------------------------------------------|
//! | `portable` | any     | 4-word chunked `u64::count_ones`, u64 accum    | 64 patches per kernel row, `u64::count_ones`  |
//! | `popcnt`   | x86_64  | same loop compiled with the POPCNT ISA enabled | same loop compiled with POPCNT                |
//! | `avx512`   | x86_64  | 512-bit `vpopcntq`, u64 lanes, masked-load tail | 8 patches per `zmm`: `vpternlogq` `(patch ^ broadcast kernel word) & mask`, `vpopcntq` into u64 lanes, `vpcmpuq` ≤ threshold → 8 sign bits |
//! | `avx2`     | x86_64  | 256-bit vpshufb nibble-LUT + `psadbw` reduce   | 4 patches ^ broadcast kernel word, nibble-LUT byte counts flushed through `psadbw` before 255, `cmpgt` + `movemask` |
//! | `neon`     | aarch64 | 128-bit `cnt` + horizontal add                 | the portable loop                             |
//!
//! `UNIVSA_KERNELS` accepts `portable`, `native` (best available — the
//! default), or an explicit tier name; an explicit tier the CPU cannot run
//! silently degrades to the best available one so a pinned CI matrix stays
//! portable across runners. Tests can bypass the global selection entirely
//! with [`count_ones_with`] / [`xor_popcount_with`].
//!
//! Every tier returns bit-identical results — the tiers differ only in how
//! the popcounts are computed, never in what is counted — and the proptest
//! suite in `tests/properties.rs` holds them to that.
//!
//! This module is the only place in the crate (and the workspace) where
//! `unsafe` appears: each `target_feature` function is reachable only after
//! the corresponding `is_x86_feature_detected!` probe (NEON is baseline on
//! aarch64), and every intrinsic operates on whole `u64`/vector lanes loaded
//! through unaligned loads from in-bounds slices.

use std::sync::OnceLock;

use crate::word::tail_mask;

/// One SIMD dispatch tier for the popcount kernels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelTier {
    /// Architecture-independent chunked `u64::count_ones` loop.
    Portable,
    /// x86_64 scalar loop compiled with the POPCNT instruction enabled.
    Popcnt,
    /// x86_64 AVX-512 `vpopcntq` over 512-bit lanes (AVX512F and
    /// AVX512_VPOPCNTDQ).
    Avx512,
    /// x86_64 AVX2 vpshufb nibble-LUT popcount over 256-bit lanes.
    Avx2,
    /// aarch64 NEON `cnt` popcount over 128-bit lanes.
    Neon,
}

impl KernelTier {
    /// All tiers in preference order, best first.
    pub const ALL: [KernelTier; 5] = [
        KernelTier::Avx512,
        KernelTier::Avx2,
        KernelTier::Neon,
        KernelTier::Popcnt,
        KernelTier::Portable,
    ];

    /// Stable lower-case name (`portable`, `popcnt`, `avx2`, `avx512`,
    /// `neon`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            KernelTier::Portable => "portable",
            KernelTier::Popcnt => "popcnt",
            KernelTier::Avx2 => "avx2",
            KernelTier::Avx512 => "avx512",
            KernelTier::Neon => "neon",
        }
    }

    /// Parses a tier name as accepted by `UNIVSA_KERNELS` (explicit tiers
    /// only — `native` is resolved by [`detect`]).
    #[must_use]
    pub fn parse(name: &str) -> Option<Self> {
        match name.trim().to_ascii_lowercase().as_str() {
            "portable" => Some(KernelTier::Portable),
            "popcnt" => Some(KernelTier::Popcnt),
            "avx2" => Some(KernelTier::Avx2),
            "avx512" => Some(KernelTier::Avx512),
            "neon" => Some(KernelTier::Neon),
            _ => None,
        }
    }

    /// Whether this tier can run on the current CPU.
    #[must_use]
    pub fn is_available(self) -> bool {
        match self {
            KernelTier::Portable => true,
            #[cfg(target_arch = "x86_64")]
            KernelTier::Popcnt => std::arch::is_x86_feature_detected!("popcnt"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            KernelTier::Avx512 => x86::avx512_detected(),
            #[cfg(target_arch = "aarch64")]
            KernelTier::Neon => true,
            #[allow(unreachable_patterns)]
            _ => false,
        }
    }
}

impl std::fmt::Display for KernelTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Best tier the current CPU supports, ignoring the environment override.
#[must_use]
pub fn native_tier() -> KernelTier {
    *KernelTier::ALL
        .iter()
        .find(|t| t.is_available())
        .unwrap_or(&KernelTier::Portable)
}

/// Resolves the dispatch tier from `UNIVSA_KERNELS` and CPU detection
/// (uncached — [`active`] is the hot-path accessor).
///
/// `portable` forces the fallback, `native` (or an unset/unknown value)
/// picks the best detected tier, and an explicit tier name is honored when
/// available and degrades to [`native_tier`] otherwise.
#[must_use]
pub fn detect() -> KernelTier {
    match std::env::var("UNIVSA_KERNELS") {
        Ok(v) if v.eq_ignore_ascii_case("portable") => KernelTier::Portable,
        Ok(v) => match KernelTier::parse(&v) {
            Some(t) if t.is_available() => t,
            _ => native_tier(),
        },
        Err(_) => native_tier(),
    }
}

/// The process-wide dispatch tier, resolved once on first use.
#[must_use]
pub fn active() -> KernelTier {
    static ACTIVE: OnceLock<KernelTier> = OnceLock::new();
    *ACTIVE.get_or_init(detect)
}

/// `Σ popcount(wᵢ)` over a packed slab, dispatched through [`active`].
#[must_use]
pub fn count_ones(words: &[u64]) -> u64 {
    count_ones_with(active(), words)
}

/// `Σ popcount(aᵢ ^ bᵢ)` over two equal-length packed slabs — the Hamming
/// distance of two canonical vectors — dispatched through [`active`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
    xor_popcount_with(active(), a, b)
}

/// [`count_ones`] at an explicit tier (tests force tiers through this).
/// An unavailable tier falls back to the portable loop.
#[must_use]
pub fn count_ones_with(tier: KernelTier, words: &[u64]) -> u64 {
    match tier {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Popcnt if tier.is_available() => x86::count_ones_popcnt(words),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 if tier.is_available() => x86::count_ones_avx2(words),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 if tier.is_available() => x86::count_ones_avx512(words),
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => neon::count_ones(words),
        _ => count_ones_portable(words),
    }
}

/// [`xor_popcount`] at an explicit tier (tests force tiers through this).
/// An unavailable tier falls back to the portable loop.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn xor_popcount_with(tier: KernelTier, a: &[u64], b: &[u64]) -> u64 {
    assert_eq!(a.len(), b.len(), "xor_popcount operands must match");
    match tier {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Popcnt if tier.is_available() => x86::xor_popcount_popcnt(a, b),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 if tier.is_available() => x86::xor_popcount_avx2(a, b),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 if tier.is_available() => x86::xor_popcount_avx512(a, b),
        #[cfg(target_arch = "aarch64")]
        KernelTier::Neon => neon::xor_popcount(a, b),
        _ => xor_popcount_portable(a, b),
    }
}

/// Bipolar dot product of two canonical packed `dim`-element vectors:
/// `dim − 2·hamming`, shared by [`crate::BitVec::dot`], the class-vector
/// similarity stage, and the packed inference engine.
///
/// # Panics
///
/// Panics if the slices have different lengths.
#[must_use]
pub fn dot_i64(a: &[u64], b: &[u64], dim: usize) -> i64 {
    dim as i64 - 2 * xor_popcount(a, b) as i64
}

/// Agreement count of two channel words under a mask:
/// `popcount(xnor(a, b) & mask)` — the binary-convolution tap primitive.
#[inline]
#[must_use]
pub fn xnor_popcount_word(a: u64, b: u64, mask: u64) -> u32 {
    (!(a ^ b) & mask).count_ones()
}

/// Portable tier: 4-word chunks accumulated in `u64` so the partial sums
/// pipeline independently and can never overflow (a `u32` accumulator
/// saturates past 2³² set bits ≈ 512 MiB of slab).
fn count_ones_portable(words: &[u64]) -> u64 {
    let mut chunks = words.chunks_exact(4);
    let mut acc = [0u64; 4];
    for c in &mut chunks {
        acc[0] += u64::from(c[0].count_ones());
        acc[1] += u64::from(c[1].count_ones());
        acc[2] += u64::from(c[2].count_ones());
        acc[3] += u64::from(c[3].count_ones());
    }
    let tail: u64 = chunks
        .remainder()
        .iter()
        .map(|w| u64::from(w.count_ones()))
        .sum();
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

fn xor_popcount_portable(a: &[u64], b: &[u64]) -> u64 {
    let mut ac = a.chunks_exact(4);
    let mut bc = b.chunks_exact(4);
    let mut acc = [0u64; 4];
    for (x, y) in (&mut ac).zip(&mut bc) {
        acc[0] += u64::from((x[0] ^ y[0]).count_ones());
        acc[1] += u64::from((x[1] ^ y[1]).count_ones());
        acc[2] += u64::from((x[2] ^ y[2]).count_ones());
        acc[3] += u64::from((x[3] ^ y[3]).count_ones());
    }
    let tail: u64 = ac
        .remainder()
        .iter()
        .zip(bc.remainder())
        .map(|(x, y)| u64::from((x ^ y).count_ones()))
        .sum();
    acc[0] + acc[1] + acc[2] + acc[3] + tail
}

// ---------------------------------------------------------------------------
// binary convolution: bit im2col + XOR/popcount GEMM
// ---------------------------------------------------------------------------

/// Grid positions per patch block: one output word of sign bits.
const BLOCK: usize = 64;

/// Geometry of a stride-1, zero-padded binary convolution with an odd
/// `k × k` window over a `width × length` grid of `channels`-bit position
/// vectors (bit `1` ⇔ `+1`). It fixes two bit layouts:
///
/// * the **image**: the grid row by row inside a ring of `k/2` zero
///   positions, each position `channels` consecutive bits (a zeroed buffer
///   of [`ConvGeometry::image_words`] filled through [`ConvGeometry::put`]),
///   so the `k` window taps of one row are one contiguous strip of
///   `k·channels` bits, zero where the window leaves the grid;
/// * the **patch** and **kernel row**: the `k²` taps in `ky·k + kx` order,
///   `channels` bits each ([`ConvGeometry::patch_words`] words, a kernel
///   row filled through [`ConvGeometry::put_tap`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvGeometry {
    width: usize,
    length: usize,
    channels: usize,
    k: usize,
}

impl ConvGeometry {
    /// # Panics
    ///
    /// Panics if an extent is zero or `k` is even.
    #[must_use]
    pub fn new(width: usize, length: usize, channels: usize, k: usize) -> Self {
        assert!(
            width > 0 && length > 0 && channels > 0 && k % 2 == 1,
            "conv geometry needs nonzero extents and an odd kernel"
        );
        Self {
            width,
            length,
            channels,
            k,
        }
    }

    /// Grid positions `width·length`.
    fn positions(&self) -> usize {
        self.width * self.length
    }

    /// Words of one patch or kernel row, `⌈k²·channels / 64⌉`.
    #[must_use]
    pub fn patch_words(&self) -> usize {
        crate::word::words_for(self.k * self.k * self.channels)
    }

    /// Words of an image buffer, including one slack word so a 64-bit read
    /// at any strip offset stays in bounds.
    #[must_use]
    pub fn image_words(&self) -> usize {
        let padded = (self.width + self.k - 1) * self.padded_length();
        crate::word::words_for(padded * self.channels) + 1
    }

    fn padded_length(&self) -> usize {
        self.length + self.k - 1
    }

    /// ORs `bits` into channels `channel..` of grid position `(y, x)` of an
    /// image; bits past the last channel are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the position or channel is out of range or `image` is
    /// shorter than [`ConvGeometry::image_words`].
    pub fn put(&self, image: &mut [u64], y: usize, x: usize, channel: usize, bits: u64) {
        assert!(
            y < self.width && x < self.length && channel < self.channels,
            "position or channel out of range"
        );
        let len = (self.channels - channel).min(64);
        let pad = self.k / 2;
        let off = ((y + pad) * self.padded_length() + x + pad) * self.channels + channel;
        or_bits(image, 1, off, bits & tail_mask(len), len);
    }

    /// ORs one word per position into channels `0..` of grid row `y` of an
    /// image, positions `0, 1, ..` in order, as [`ConvGeometry::put`] at
    /// channel 0 would, but with one running bit offset for the row; words
    /// past the row's last position and bits past the last channel are
    /// dropped.
    ///
    /// # Panics
    ///
    /// Panics if the row is out of range or `image` is shorter than
    /// [`ConvGeometry::image_words`].
    pub fn put_row(&self, image: &mut [u64], y: usize, words: impl IntoIterator<Item = u64>) {
        assert!(y < self.width, "row out of range");
        let len = self.channels.min(64);
        let keep = tail_mask(len);
        let pad = self.k / 2;
        let mut off = ((y + pad) * self.padded_length() + pad) * self.channels;
        for bits in words.into_iter().take(self.length) {
            or_bits(image, 1, off, bits & keep, len);
            off += self.channels;
        }
    }

    /// ORs `bits` into channels `channel..` of window tap `tap` (`ky·k +
    /// kx`) of a kernel row; bits past the last channel are dropped.
    ///
    /// # Panics
    ///
    /// Panics if the tap or channel is out of range or `row` is shorter
    /// than [`ConvGeometry::patch_words`].
    pub fn put_tap(&self, row: &mut [u64], tap: usize, channel: usize, bits: u64) {
        assert!(
            tap < self.k * self.k && channel < self.channels,
            "tap or channel out of range"
        );
        let len = (self.channels - channel).min(64);
        or_bits(
            row,
            1,
            tap * self.channels + channel,
            bits & tail_mask(len),
            len,
        );
    }

    /// In-bounds patch bits per grid position, `taps·channels`, with
    /// `taps` the window taps inside the grid (zero padding shrinks the
    /// window at the borders).
    #[must_use]
    pub fn in_bounds_bits(&self) -> Vec<usize> {
        let pad = self.k / 2;
        let span = |i: usize, n: usize| (i + pad + 1).min(n) - i.saturating_sub(pad);
        let mut out = Vec::with_capacity(self.positions());
        for y in 0..self.width {
            let rows = span(y, self.width);
            out.extend((0..self.length).map(|x| rows * span(x, self.length) * self.channels));
        }
        out
    }

    /// The in-bounds mask tables, `patch_words` words per entry: one
    /// entry per grid row `y`, setting window row `ky`'s `k·channels` bits
    /// when grid row `y + ky − pad` exists, then one per grid column `x`,
    /// setting tap `kx`'s `channels` bits in every window row when grid
    /// column `x + kx − pad` exists. The mask of the patch at `(y, x)` is
    /// the AND of row entry `y` and column entry `x`; the tables take
    /// `(width + length) · patch_words` words.
    fn mask_tables(&self) -> Vec<u64> {
        let (k, c, nw) = (self.k, self.channels, self.patch_words());
        let pad = k / 2;
        // the window taps t whose grid index i + t − pad is in 0..n: one
        // run, so each window row's in-bounds taps are contiguous bits
        let taps = |i: usize, n: usize| pad.saturating_sub(i)..(n + pad - i).min(k);
        let set = |mask: &mut [u64], bits: std::ops::Range<usize>| {
            for at in bits.clone().step_by(64) {
                let len = (bits.end - at).min(64);
                or_bits(mask, 1, at, tail_mask(len), len);
            }
        };
        let mut tables = vec![0u64; (self.width + self.length) * nw];
        let (rows, cols) = tables.split_at_mut(self.width * nw);
        for (y, mask) in rows.chunks_exact_mut(nw).enumerate() {
            let ky = taps(y, self.width);
            set(mask, ky.start * k * c..ky.end * k * c);
        }
        for (x, mask) in cols.chunks_exact_mut(nw).enumerate() {
            let kx = taps(x, self.length);
            for ky in 0..k {
                set(mask, (ky * k + kx.start) * c..(ky * k + kx.end) * c);
            }
        }
        tables
    }

    /// Fills `scratch` (`2 · patch_words · 64` words) with the patches of
    /// block `b` — grid positions `64·b ..` — and their in-bounds masks,
    /// word `w` of the block's patch `j` at `w·64 + j` in each half, zero
    /// past the block's last position. Every patch is `k` row strips, each
    /// one contiguous `k·channels` bits of the image read at once, so the
    /// loop runs strip by strip over the block's patches with the strip's
    /// word and shift in the patch fixed. Each mask is the AND of its row's
    /// and its column's entry in `mask_tables` (see
    /// [`ConvGeometry::mask_tables`]). Returns the number of positions in
    /// the block.
    fn fill_block(
        &self,
        image: &[u64],
        mask_tables: &[u64],
        b: usize,
        scratch: &mut [u64],
    ) -> usize {
        let (k, c, lp) = (self.k, self.channels, self.padded_length());
        let strip = k * c;
        let nw = self.patch_words();
        let (row_masks, col_masks) = mask_tables.split_at(self.width * nw);
        let first = b * BLOCK;
        let lanes = (self.positions() - first).min(BLOCK);
        scratch.fill(0);
        let (patches, masks) = scratch.split_at_mut(nw * BLOCK);
        // image bit offset of each patch's first strip, and its mask
        let mut base = [0usize; BLOCK];
        let (mut y, mut x) = (first / self.length, first % self.length);
        for (j, at) in base[..lanes].iter_mut().enumerate() {
            *at = (y * lp + x) * c;
            let rows = &row_masks[y * nw..(y + 1) * nw];
            let cols = &col_masks[x * nw..(x + 1) * nw];
            for (w, (&r, &m)) in rows.iter().zip(cols).enumerate() {
                masks[w * BLOCK + j] = r & m;
            }
            x += 1;
            if x == self.length {
                (y, x) = (y + 1, 0);
            }
        }
        for ky in 0..k {
            for done in (0..strip).step_by(64) {
                let len = (strip - done).min(64);
                let keep = tail_mask(len);
                let (w, sh) = ((ky * strip + done) / 64, (ky * strip + done) % 64);
                let src = ky * lp * c + done;
                let (low, high) = patches.split_at_mut((w + 1) * BLOCK);
                let low = &mut low[w * BLOCK..];
                if sh + len > 64 {
                    let high = &mut high[..BLOCK];
                    for ((&at, lo), hi) in base[..lanes].iter().zip(low).zip(high) {
                        let bits = read_bits(image, at + src) & keep;
                        *lo |= bits << sh;
                        *hi |= bits >> (64 - sh);
                    }
                } else {
                    for (&at, lo) in base[..lanes].iter().zip(low) {
                        *lo |= (read_bits(image, at + src) & keep) << sh;
                    }
                }
            }
        }
        lanes
    }
}

/// A binary convolution lowered to a binary GEMM: [`ConvGeometry`] plus one
/// kernel row per output channel. Patches are built per block of 64 grid
/// positions into one reused scratch buffer, so no table grows with
/// `positions × k²` or `out_channels × positions`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitConv {
    geometry: ConvGeometry,
    /// Kernel rows, `out_channels × patch_words`.
    rows: Vec<u64>,
    /// In-bounds masks per grid row, then per grid column, `(width +
    /// length) × patch_words` ([`ConvGeometry::mask_tables`]).
    masks: Vec<u64>,
}

impl BitConv {
    /// Wraps kernel rows laid out by [`ConvGeometry::put_tap`], one
    /// `patch_words` row per output channel.
    ///
    /// # Panics
    ///
    /// Panics if `rows` is empty or not a whole number of kernel rows.
    #[must_use]
    pub fn new(geometry: ConvGeometry, rows: Vec<u64>) -> Self {
        let nw = geometry.patch_words();
        assert!(
            !rows.is_empty() && rows.len().is_multiple_of(nw),
            "kernel rows must be whole {nw}-word rows"
        );
        Self {
            geometry,
            rows,
            masks: geometry.mask_tables(),
        }
    }

    /// The convolution geometry.
    #[must_use]
    pub fn geometry(&self) -> &ConvGeometry {
        &self.geometry
    }

    /// Output channels `O`.
    fn out_channels(&self) -> usize {
        self.rows.len() / self.geometry.patch_words()
    }

    /// Sign planes of the convolution of `image`: bit `p` of plane `o`
    /// (`out_channels × ⌈positions/64⌉` words, tail bits clear) is set when
    /// the in-bounds Hamming distance between patch `p` and kernel row `o`
    /// is at most `thresholds[p]`.
    ///
    /// # Panics
    ///
    /// Panics if `image` or `thresholds` does not match the geometry.
    #[must_use]
    pub fn sign_planes_with(
        &self,
        tier: KernelTier,
        image: &[u64],
        thresholds: &[u32],
    ) -> Vec<u64> {
        let blocks = crate::word::words_for(self.geometry.positions());
        assert_eq!(
            thresholds.len(),
            self.geometry.positions(),
            "one threshold per position"
        );
        let mut planes = vec![0u64; self.out_channels() * blocks];
        self.for_each_block(image, |b, block| {
            let output = Output::Sign {
                thresholds: &thresholds[b * BLOCK..b * BLOCK + block.lanes],
                planes: &mut planes[b..],
                stride: blocks,
            };
            run_block(tier, &block, &self.rows, output);
        });
        planes
    }

    /// In-bounds Hamming distances between every patch of `image` and every
    /// kernel row, written to `hams` as `out_channels × positions`.
    ///
    /// # Panics
    ///
    /// Panics if `image` or `hams` does not match the geometry.
    pub fn hamming_with(&self, tier: KernelTier, image: &[u64], hams: &mut [u32]) {
        let n = self.geometry.positions();
        assert_eq!(
            hams.len(),
            self.out_channels() * n,
            "one count per channel and position"
        );
        self.for_each_block(image, |b, block| {
            let output = Output::Counts {
                hams: &mut hams[b * BLOCK..],
                stride: n,
            };
            run_block(tier, &block, &self.rows, output);
        });
    }

    /// Builds each block's patches into one scratch buffer and hands them
    /// to `run`.
    fn for_each_block(&self, image: &[u64], mut run: impl FnMut(usize, Block<'_>)) {
        let g = &self.geometry;
        assert_eq!(
            image.len(),
            g.image_words(),
            "image does not match the geometry"
        );
        let nw = g.patch_words();
        let mut scratch = vec![0u64; 2 * nw * BLOCK];
        for b in 0..crate::word::words_for(g.positions()) {
            let lanes = g.fill_block(image, &self.masks, b, &mut scratch);
            let (patches, masks) = scratch.split_at(nw * BLOCK);
            run(
                b,
                Block {
                    patches,
                    masks,
                    words: nw,
                    lanes,
                },
            );
        }
    }
}

/// One block of 64 patches and their in-bounds masks, word `w` of patch
/// `j` at `w·64 + j`; patches at `lanes..` are all zero.
struct Block<'a> {
    patches: &'a [u64],
    masks: &'a [u64],
    words: usize,
    lanes: usize,
}

/// ORs the low `len ≤ 64` bits of `bits` (higher bits clear) into the bit
/// string whose word `i` is `dst[i · stride]`, starting at bit `off`.
#[inline(always)]
fn or_bits(dst: &mut [u64], stride: usize, off: usize, bits: u64, len: usize) {
    let (w, sh) = (off / 64, off % 64);
    dst[w * stride] |= bits << sh;
    if sh + len > 64 {
        dst[(w + 1) * stride] |= bits >> (64 - sh);
    }
}

/// The 64 bits of `src` from bit `off` on (`src` must hold the word after
/// `off`'s: images keep a slack word for that).
#[inline(always)]
fn read_bits(src: &[u64], off: usize) -> u64 {
    let (w, sh) = (off / 64, off % 64);
    // the next word shifted in two steps, so `sh = 0` adds nothing
    (src[w] >> sh) | ((src[w + 1] << 1) << (63 - sh))
}

/// Portable block kernel: the in-bounds Hamming distance of each of the
/// block's 64 patches to one kernel row.
#[inline(always)]
fn block_hams(block: &Block<'_>, row: &[u64]) -> [u32; BLOCK] {
    let mut hams = [0u32; BLOCK];
    for (w, &k) in row.iter().enumerate() {
        let patches = &block.patches[w * BLOCK..(w + 1) * BLOCK];
        let masks = &block.masks[w * BLOCK..(w + 1) * BLOCK];
        for ((h, &p), &m) in hams.iter_mut().zip(patches).zip(masks) {
            *h += ((p ^ k) & m).count_ones();
        }
    }
    hams
}

/// What a block kernel writes for output channel `o` and block lane `j`.
enum Output<'a> {
    /// Bit `j` of `planes[o · stride]`: `ham(j, o) ≤ thresholds[j]`, one
    /// threshold per live lane.
    Sign {
        thresholds: &'a [u32],
        planes: &'a mut [u64],
        stride: usize,
    },
    /// `hams[o · stride + j] = ham(j, o)` per live lane.
    Counts { hams: &'a mut [u32], stride: usize },
}

/// Runs one block against every kernel row at `tier`.
fn run_block(tier: KernelTier, block: &Block<'_>, rows: &[u64], output: Output<'_>) {
    match tier {
        #[cfg(target_arch = "x86_64")]
        KernelTier::Popcnt if tier.is_available() => x86::block_popcnt(block, rows, output),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx2 if tier.is_available() => x86::block_avx2(block, rows, output),
        #[cfg(target_arch = "x86_64")]
        KernelTier::Avx512 if tier.is_available() => x86::block_avx512(block, rows, output),
        _ => block_portable(block, rows, output),
    }
}

/// Portable block kernel (the `popcnt` tier compiles it with POPCNT).
#[inline(always)]
fn block_portable(block: &Block<'_>, rows: &[u64], output: Output<'_>) {
    let rows = rows.chunks_exact(block.words).enumerate();
    match output {
        Output::Sign {
            thresholds,
            planes,
            stride,
        } => {
            for (o, row) in rows {
                let hams = block_hams(block, row);
                let mut bits = 0u64;
                for (j, (&h, &t)) in hams.iter().zip(thresholds).enumerate() {
                    bits |= u64::from(h <= t) << j;
                }
                planes[o * stride] = bits;
            }
        }
        Output::Counts { hams, stride } => {
            for (o, row) in rows {
                let counts = block_hams(block, row);
                hams[o * stride..o * stride + block.lanes].copy_from_slice(&counts[..block.lanes]);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
mod x86 {
    //! x86_64 tiers. Safety: every function here carries a
    //! `target_feature` attribute and is only reached through the dispatch
    //! functions above after `is_x86_feature_detected!` confirms the
    //! feature; all memory access is unaligned loads from in-bounds slice
    //! chunks, or AVX-512 masked loads and stores whose mask selects only
    //! in-bounds elements.

    use super::{tail_mask, Block, Output, BLOCK};
    use std::arch::x86_64::{
        __m256i, __m512i, _mm256_add_epi64, _mm256_add_epi8, _mm256_and_si256, _mm256_castsi256_pd,
        _mm256_cmpgt_epi64, _mm256_extract_epi64, _mm256_loadu_si256, _mm256_movemask_pd,
        _mm256_sad_epu8, _mm256_set1_epi64x, _mm256_set1_epi8, _mm256_setr_epi8,
        _mm256_setzero_si256, _mm256_shuffle_epi8, _mm256_srli_epi32, _mm256_storeu_si256,
        _mm256_xor_si256, _mm512_add_epi64, _mm512_loadu_epi64, _mm512_mask_cmple_epu64_mask,
        _mm512_mask_cvtepi64_storeu_epi32, _mm512_maskz_loadu_epi64, _mm512_popcnt_epi64,
        _mm512_reduce_add_epi64, _mm512_set1_epi64, _mm512_setzero_si512,
        _mm512_ternarylogic_epi64, _mm512_xor_si512,
    };

    /// Scalar loop with the POPCNT ISA enabled so `count_ones` compiles to
    /// one `popcnt` instruction instead of the SWAR fallback sequence. The
    /// safe entry points re-probe the feature so they are sound even if a
    /// caller's availability guard is wrong.
    pub fn count_ones_popcnt(words: &[u64]) -> u64 {
        assert!(std::arch::is_x86_feature_detected!("popcnt"));
        // SAFETY: POPCNT availability verified just above.
        unsafe { count_ones_popcnt_impl(words) }
    }

    /// See [`count_ones_popcnt`].
    pub fn xor_popcount_popcnt(a: &[u64], b: &[u64]) -> u64 {
        assert!(std::arch::is_x86_feature_detected!("popcnt"));
        // SAFETY: POPCNT availability verified just above.
        unsafe { xor_popcount_popcnt_impl(a, b) }
    }

    /// Safe AVX2 entry point; probes the feature itself.
    pub fn count_ones_avx2(words: &[u64]) -> u64 {
        assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: AVX2 availability verified just above.
        unsafe { count_ones_avx2_impl(words) }
    }

    /// Safe AVX2 entry point; probes the feature itself.
    pub fn xor_popcount_avx2(a: &[u64], b: &[u64]) -> u64 {
        assert!(std::arch::is_x86_feature_detected!("avx2"));
        // SAFETY: AVX2 availability verified just above.
        unsafe { xor_popcount_avx2_impl(a, b) }
    }

    /// See [`count_ones_popcnt`].
    pub fn block_popcnt(block: &Block<'_>, rows: &[u64], output: Output<'_>) {
        assert!(std::arch::is_x86_feature_detected!("popcnt"));
        // SAFETY: POPCNT availability verified just above.
        unsafe { block_popcnt_impl(block, rows, output) }
    }

    /// Safe AVX2 entry point; probes the feature and the block shape
    /// `group_hams` reads within: both halves hold `words · 64` words, at
    /// most 64 lanes, whole kernel rows.
    pub fn block_avx2(block: &Block<'_>, rows: &[u64], output: Output<'_>) {
        assert!(std::arch::is_x86_feature_detected!("avx2"));
        assert!(
            block.words > 0
                && block.patches.len() == block.words * BLOCK
                && block.masks.len() == block.words * BLOCK
                && block.lanes <= BLOCK
                && rows.len().is_multiple_of(block.words),
            "malformed conv block"
        );
        // SAFETY: AVX2 availability and the block shape verified just above.
        unsafe { block_avx2_impl(block, rows, output) }
    }

    /// Whether AVX512F and AVX512_VPOPCNTDQ are both available.
    pub fn avx512_detected() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512vpopcntdq")
    }

    /// Safe AVX-512 entry point; probes the features itself.
    pub fn count_ones_avx512(words: &[u64]) -> u64 {
        assert!(avx512_detected());
        // SAFETY: AVX512F and AVX512_VPOPCNTDQ availability verified just
        // above.
        unsafe { count_ones_avx512_impl(words) }
    }

    /// Safe AVX-512 entry point; probes the features and the equal
    /// lengths the masked tail loads rely on.
    pub fn xor_popcount_avx512(a: &[u64], b: &[u64]) -> u64 {
        assert!(avx512_detected());
        assert_eq!(a.len(), b.len(), "xor_popcount operands must match");
        // SAFETY: AVX512F and AVX512_VPOPCNTDQ availability and equal
        // lengths verified just above.
        unsafe { xor_popcount_avx512_impl(a, b) }
    }

    /// Safe AVX-512 entry point; probes the features and the block shape
    /// `group_hams512` reads within, as [`block_avx2`] does.
    pub fn block_avx512(block: &Block<'_>, rows: &[u64], output: Output<'_>) {
        assert!(avx512_detected());
        assert!(
            block.words > 0
                && block.patches.len() == block.words * BLOCK
                && block.masks.len() == block.words * BLOCK
                && block.lanes <= BLOCK
                && rows.len().is_multiple_of(block.words),
            "malformed conv block"
        );
        // SAFETY: AVX512F and AVX512_VPOPCNTDQ availability and the block
        // shape verified just above; `N` is 0 or `block.words`.
        unsafe {
            match block.words {
                1 => block_avx512_impl::<1>(block, rows, output),
                2 => block_avx512_impl::<2>(block, rows, output),
                _ => block_avx512_impl::<0>(block, rows, output),
            }
        }
    }

    #[target_feature(enable = "popcnt")]
    unsafe fn block_popcnt_impl(block: &Block<'_>, rows: &[u64], output: Output<'_>) {
        super::block_portable(block, rows, output);
    }

    #[target_feature(enable = "popcnt")]
    unsafe fn count_ones_popcnt_impl(words: &[u64]) -> u64 {
        super::count_ones_portable(words)
    }

    #[target_feature(enable = "popcnt")]
    unsafe fn xor_popcount_popcnt_impl(a: &[u64], b: &[u64]) -> u64 {
        super::xor_popcount_portable(a, b)
    }

    /// Per-byte popcount of a 256-bit lane via the vpshufb nibble lookup
    /// (AVX2 has no VPOPCNTQ), then `psadbw` folds the 32 byte counts into
    /// four u64 partials.
    #[target_feature(enable = "avx2")]
    unsafe fn popcount256(v: __m256i) -> __m256i {
        _mm256_sad_epu8(popcount_bytes256(v), _mm256_setzero_si256())
    }

    /// Per-byte popcount of a 256-bit lane via the vpshufb nibble lookup:
    /// each byte lane holds the count of its own 8 bits.
    #[target_feature(enable = "avx2")]
    unsafe fn popcount_bytes256(v: __m256i) -> __m256i {
        #[rustfmt::skip]
        let lookup = _mm256_setr_epi8(
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
            0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        );
        let low_mask = _mm256_set1_epi8(0x0f);
        let lo = _mm256_and_si256(v, low_mask);
        let hi = _mm256_and_si256(_mm256_srli_epi32(v, 4), low_mask);
        _mm256_add_epi8(
            _mm256_shuffle_epi8(lookup, lo),
            _mm256_shuffle_epi8(lookup, hi),
        )
    }

    /// In-bounds Hamming distances of patches `j..j + 4` of a block to one
    /// kernel row, as four u64 lanes: XOR against the broadcast kernel
    /// word, AND the mask, count into byte lanes.
    ///
    /// # Safety
    ///
    /// AVX2 must be available, `row.len() == block.words`, both block
    /// halves must hold `block.words · 64` words, and `j + 4 ≤ 64`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn group_hams(block: &Block<'_>, row: &[u64], j: usize) -> __m256i {
        let (patches, masks) = (block.patches.as_ptr(), block.masks.as_ptr());
        let mut acc = _mm256_setzero_si256();
        // a word adds at most 8 to a byte lane: flush the lanes through
        // psadbw every 31 words, before one can pass 255
        for (c, chunk) in row.chunks(31).enumerate() {
            let mut bytes = _mm256_setzero_si256();
            for (i, &k) in chunk.iter().enumerate() {
                let at = (c * 31 + i) * BLOCK + j;
                let x = _mm256_and_si256(
                    _mm256_xor_si256(
                        _mm256_loadu_si256(patches.add(at).cast()),
                        _mm256_set1_epi64x(k as i64),
                    ),
                    _mm256_loadu_si256(masks.add(at).cast()),
                );
                bytes = _mm256_add_epi8(bytes, popcount_bytes256(x));
            }
            acc = _mm256_add_epi64(acc, _mm256_sad_epu8(bytes, _mm256_setzero_si256()));
        }
        acc
    }

    /// # Safety
    ///
    /// As [`group_hams`], for every row of `rows`.
    #[target_feature(enable = "avx2")]
    unsafe fn block_avx2_impl(block: &Block<'_>, rows: &[u64], output: Output<'_>) {
        let groups = block.lanes.div_ceil(4);
        let rows = rows.chunks_exact(block.words).enumerate();
        match output {
            Output::Sign {
                thresholds,
                planes,
                stride,
            } => {
                // thresholds widened to the u64 lanes once per block; lanes
                // past the block's end compare garbage and are masked off
                let mut thr = [0i64; BLOCK];
                for (t, &v) in thr.iter_mut().zip(thresholds) {
                    *t = i64::from(v);
                }
                for (o, row) in rows {
                    let mut bits = 0u64;
                    for g in 0..groups {
                        let hams = group_hams(block, row, 4 * g);
                        let t = _mm256_loadu_si256(thr.as_ptr().add(4 * g).cast());
                        let over =
                            _mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(hams, t)));
                        bits |= u64::from((!over & 0xF) as u8) << (4 * g);
                    }
                    planes[o * stride] = bits & tail_mask(block.lanes);
                }
            }
            Output::Counts { hams, stride } => {
                let mut lanes = [0u64; 4];
                for (o, row) in rows {
                    let out = &mut hams[o * stride..o * stride + block.lanes];
                    for (g, dst) in out.chunks_mut(4).enumerate() {
                        _mm256_storeu_si256(
                            lanes.as_mut_ptr().cast(),
                            group_hams(block, row, 4 * g),
                        );
                        for (d, &h) in dst.iter_mut().zip(&lanes) {
                            *d = h as u32;
                        }
                    }
                }
            }
        }
    }

    #[target_feature(enable = "avx2")]
    unsafe fn hsum(acc: __m256i) -> u64 {
        (_mm256_extract_epi64(acc, 0) as u64)
            .wrapping_add(_mm256_extract_epi64(acc, 1) as u64)
            .wrapping_add(_mm256_extract_epi64(acc, 2) as u64)
            .wrapping_add(_mm256_extract_epi64(acc, 3) as u64)
    }

    #[target_feature(enable = "avx2")]
    unsafe fn count_ones_avx2_impl(words: &[u64]) -> u64 {
        let mut chunks = words.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for c in &mut chunks {
            let v = _mm256_loadu_si256(c.as_ptr().cast());
            acc = _mm256_add_epi64(acc, popcount256(v));
        }
        hsum(acc)
            + chunks
                .remainder()
                .iter()
                .map(|w| u64::from(w.count_ones()))
                .sum::<u64>()
    }

    #[target_feature(enable = "avx2")]
    unsafe fn xor_popcount_avx2_impl(a: &[u64], b: &[u64]) -> u64 {
        let mut ac = a.chunks_exact(4);
        let mut bc = b.chunks_exact(4);
        let mut acc = _mm256_setzero_si256();
        for (x, y) in (&mut ac).zip(&mut bc) {
            let v = _mm256_xor_si256(
                _mm256_loadu_si256(x.as_ptr().cast()),
                _mm256_loadu_si256(y.as_ptr().cast()),
            );
            acc = _mm256_add_epi64(acc, popcount256(v));
        }
        hsum(acc)
            + ac.remainder()
                .iter()
                .zip(bc.remainder())
                .map(|(x, y)| u64::from((x ^ y).count_ones()))
                .sum::<u64>()
    }

    /// In-bounds Hamming distances of patches `j..j + 8` of a block to one
    /// kernel row, as eight u64 lanes: one `vpternlogq` computes `(patch ^
    /// broadcast kernel word) & mask` and `vpopcntq` counts it, so the
    /// lanes need no flush.
    ///
    /// # Safety
    ///
    /// AVX512F and AVX512_VPOPCNTDQ must be available, `row.len() ==
    /// block.words`, both block halves must hold `block.words · 64` words,
    /// and `j + 8 ≤ 64`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    #[inline]
    unsafe fn group_hams512(block: &Block<'_>, row: &[u64], j: usize) -> __m512i {
        let (patches, masks) = (block.patches.as_ptr(), block.masks.as_ptr());
        let mut acc = _mm512_setzero_si512();
        for (w, &k) in row.iter().enumerate() {
            let at = w * BLOCK + j;
            // imm 0x28 = (A ^ B) & C over the truth-table inputs A, B, C
            let x = _mm512_ternarylogic_epi64::<0x28>(
                _mm512_loadu_epi64(patches.add(at).cast()),
                _mm512_set1_epi64(k as i64),
                _mm512_loadu_epi64(masks.add(at).cast()),
            );
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
        }
        acc
    }

    /// `Sign` runs the block group by group: each group of 8 patches is
    /// scored against every kernel row before the next. With `N > 0` (`N
    /// == block.words`), the group's patch and mask words are loaded once
    /// and stay in registers across the rows; `N = 0` reloads them per row
    /// through [`group_hams512`]. `Counts` runs row by row: one row's
    /// counts are contiguous, while consecutive rows' lie a whole `stride`
    /// apart, often in one cache set.
    ///
    /// # Safety
    ///
    /// As [`group_hams512`], for every row of `rows`, and `N` is `0` or
    /// `block.words`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn block_avx512_impl<const N: usize>(
        block: &Block<'_>,
        rows: &[u64],
        output: Output<'_>,
    ) {
        let rows = rows.chunks_exact(block.words);
        match output {
            Output::Sign {
                thresholds,
                planes,
                stride,
            } => {
                // thresholds widened to the u64 lanes once per block
                let mut thr = [0u64; BLOCK];
                for (t, &v) in thr.iter_mut().zip(thresholds) {
                    *t = u64::from(v);
                }
                for o in 0..rows.len() {
                    planes[o * stride] = 0;
                }
                let (patches, masks) = (block.patches.as_ptr(), block.masks.as_ptr());
                for j in (0..block.lanes).step_by(8) {
                    let mut p = [_mm512_setzero_si512(); N];
                    let mut m = [_mm512_setzero_si512(); N];
                    for w in 0..N {
                        p[w] = _mm512_loadu_epi64(patches.add(w * BLOCK + j).cast());
                        m[w] = _mm512_loadu_epi64(masks.add(w * BLOCK + j).cast());
                    }
                    // only the group's live lanes set sign bits
                    let live = tail_mask(block.lanes - j) as u8;
                    let t = _mm512_loadu_epi64(thr.as_ptr().add(j).cast());
                    for (o, row) in rows.clone().enumerate() {
                        let hams = if N == 0 {
                            group_hams512(block, row, j)
                        } else {
                            let mut acc = _mm512_setzero_si512();
                            for w in 0..N {
                                // imm 0x28 = (A ^ B) & C, as in group_hams512
                                let x = _mm512_ternarylogic_epi64::<0x28>(
                                    p[w],
                                    _mm512_set1_epi64(row[w] as i64),
                                    m[w],
                                );
                                acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(x));
                            }
                            acc
                        };
                        let bits = _mm512_mask_cmple_epu64_mask(live, hams, t);
                        planes[o * stride] |= u64::from(bits) << j;
                    }
                }
            }
            Output::Counts { hams, stride } => {
                for (o, row) in rows.enumerate() {
                    let out = &mut hams[o * stride..o * stride + block.lanes];
                    for j in (0..block.lanes).step_by(8) {
                        // the masked store writes only the group's live lanes
                        let live = tail_mask(block.lanes - j) as u8;
                        _mm512_mask_cvtepi64_storeu_epi32(
                            out.as_mut_ptr().add(j).cast(),
                            live,
                            group_hams512(block, row, j),
                        );
                    }
                }
            }
        }
    }

    /// # Safety
    ///
    /// AVX512F and AVX512_VPOPCNTDQ must be available.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn count_ones_avx512_impl(words: &[u64]) -> u64 {
        let mut chunks = words.chunks_exact(8);
        let mut acc = _mm512_setzero_si512();
        for c in &mut chunks {
            acc = _mm512_add_epi64(
                acc,
                _mm512_popcnt_epi64(_mm512_loadu_epi64(c.as_ptr().cast())),
            );
        }
        let tail = chunks.remainder();
        if !tail.is_empty() {
            // the masked load reads only the tail's words
            let v = _mm512_maskz_loadu_epi64(tail_mask(tail.len()) as u8, tail.as_ptr().cast());
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        _mm512_reduce_add_epi64(acc) as u64
    }

    /// # Safety
    ///
    /// AVX512F and AVX512_VPOPCNTDQ must be available and `a.len() ==
    /// b.len()`.
    #[target_feature(enable = "avx512f,avx512vpopcntdq")]
    unsafe fn xor_popcount_avx512_impl(a: &[u64], b: &[u64]) -> u64 {
        let mut ac = a.chunks_exact(8);
        let mut bc = b.chunks_exact(8);
        let mut acc = _mm512_setzero_si512();
        for (x, y) in (&mut ac).zip(&mut bc) {
            let v = _mm512_xor_si512(
                _mm512_loadu_epi64(x.as_ptr().cast()),
                _mm512_loadu_epi64(y.as_ptr().cast()),
            );
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        let (x, y) = (ac.remainder(), bc.remainder());
        if !x.is_empty() {
            // the masked loads read only the tails' words
            let live = tail_mask(x.len()) as u8;
            let v = _mm512_xor_si512(
                _mm512_maskz_loadu_epi64(live, x.as_ptr().cast()),
                _mm512_maskz_loadu_epi64(live, y.as_ptr().cast()),
            );
            acc = _mm512_add_epi64(acc, _mm512_popcnt_epi64(v));
        }
        _mm512_reduce_add_epi64(acc) as u64
    }
}

#[cfg(target_arch = "aarch64")]
#[allow(unsafe_code)]
mod neon {
    //! aarch64 tier. NEON is part of the baseline aarch64 ABI, so no
    //! runtime probe is needed; all loads are unaligned from in-bounds
    //! slice chunks.

    use std::arch::aarch64::{vaddlvq_u8, vcntq_u8, veorq_u8, vld1q_u8};

    pub fn count_ones(words: &[u64]) -> u64 {
        let mut chunks = words.chunks_exact(2);
        let mut acc = 0u64;
        for c in &mut chunks {
            // SAFETY: a 2×u64 chunk is 16 in-bounds bytes.
            acc += u64::from(unsafe { vaddlvq_u8(vcntq_u8(vld1q_u8(c.as_ptr().cast()))) });
        }
        acc + chunks
            .remainder()
            .iter()
            .map(|w| u64::from(w.count_ones()))
            .sum::<u64>()
    }

    pub fn xor_popcount(a: &[u64], b: &[u64]) -> u64 {
        let mut ac = a.chunks_exact(2);
        let mut bc = b.chunks_exact(2);
        let mut acc = 0u64;
        for (x, y) in (&mut ac).zip(&mut bc) {
            // SAFETY: each 2×u64 chunk is 16 in-bounds bytes.
            acc += u64::from(unsafe {
                vaddlvq_u8(vcntq_u8(veorq_u8(
                    vld1q_u8(x.as_ptr().cast()),
                    vld1q_u8(y.as_ptr().cast()),
                )))
            });
        }
        acc + ac
            .remainder()
            .iter()
            .zip(bc.remainder())
            .map(|(x, y)| u64::from((x ^ y).count_ones()))
            .sum::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_count(words: &[u64]) -> u64 {
        words.iter().map(|w| u64::from(w.count_ones())).sum()
    }

    fn patterns() -> Vec<Vec<u64>> {
        // deterministic splitmix so every word pattern class is hit:
        // empty, sub-chunk tails, exact chunks, and long mixed slabs
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let mut out = vec![
            vec![],
            vec![u64::MAX],
            vec![0, u64::MAX, 0x5555_5555_5555_5555],
        ];
        for len in [1usize, 3, 4, 5, 7, 8, 16, 33] {
            out.push((0..len).map(|_| next()).collect());
        }
        out
    }

    #[test]
    fn every_tier_matches_naive_count() {
        for words in patterns() {
            let expect = naive_count(&words);
            for tier in KernelTier::ALL {
                assert_eq!(
                    count_ones_with(tier, &words),
                    expect,
                    "tier {tier} on {} words",
                    words.len()
                );
            }
            assert_eq!(count_ones(&words), expect);
        }
    }

    #[test]
    fn every_tier_matches_naive_xor_popcount() {
        let pats = patterns();
        for (i, a) in pats.iter().enumerate() {
            let b: Vec<u64> = a.iter().map(|w| w.rotate_left(i as u32) ^ 0xF0F0).collect();
            let expect: u64 = a
                .iter()
                .zip(&b)
                .map(|(x, y)| u64::from((x ^ y).count_ones()))
                .sum();
            for tier in KernelTier::ALL {
                assert_eq!(xor_popcount_with(tier, a, &b), expect, "tier {tier}");
            }
            assert_eq!(xor_popcount(a, &b), expect);
        }
    }

    #[test]
    fn dot_matches_definition() {
        // dim 130 = 2 full words + 2-bit tail
        let a = vec![u64::MAX, 0, 0b11];
        let b = vec![u64::MAX, u64::MAX, 0b01];
        // agreements: 64 + 0 + 1 = 65; dot = 2*65 - 130 = 0
        assert_eq!(dot_i64(&a, &b, 130), 0);
        assert_eq!(dot_i64(&a, &a, 130), 130);
    }

    #[test]
    fn xnor_popcount_word_masks() {
        assert_eq!(xnor_popcount_word(0b1010, 0b1010, 0xF), 4);
        assert_eq!(xnor_popcount_word(0b1010, 0b0101, 0xF), 0);
        assert_eq!(xnor_popcount_word(u64::MAX, u64::MAX, u64::MAX), 64);
        assert_eq!(xnor_popcount_word(0, u64::MAX, 0xFF), 0);
        // bits outside the mask never count
        assert_eq!(xnor_popcount_word(u64::MAX, u64::MAX, 0b1), 1);
    }

    #[test]
    fn tier_names_round_trip() {
        for tier in KernelTier::ALL {
            assert_eq!(KernelTier::parse(tier.name()), Some(tier));
        }
        assert_eq!(KernelTier::parse("AVX2"), Some(KernelTier::Avx2));
        assert_eq!(KernelTier::parse(" AVX512 "), Some(KernelTier::Avx512));
        assert_eq!(KernelTier::Avx512.to_string(), "avx512");
        assert_eq!(KernelTier::ALL[0], KernelTier::Avx512, "best tier first");
        assert_eq!(KernelTier::parse("bogus"), None);
    }

    #[test]
    fn portable_always_available_and_active_is_available() {
        assert!(KernelTier::Portable.is_available());
        assert!(native_tier().is_available());
        assert!(active().is_available());
        #[cfg(target_arch = "x86_64")]
        {
            let avx512 = std::arch::is_x86_feature_detected!("avx512f")
                && std::arch::is_x86_feature_detected!("avx512vpopcntdq");
            assert_eq!(KernelTier::Avx512.is_available(), avx512);
            if avx512 {
                assert_eq!(native_tier(), KernelTier::Avx512);
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        assert!(!KernelTier::Avx512.is_available());
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// The six Table I geometries `(W, L, D_H, D_K)`: EEGMMI, BCI-III-V,
    /// CHB-B, CHB-IB, ISOLET, HAR.
    const TABLE_I: [(usize, usize, usize, usize); 6] = [
        (16, 64, 8, 3),
        (16, 6, 8, 3),
        (23, 64, 8, 3),
        (23, 64, 4, 5),
        (16, 40, 4, 3),
        (16, 36, 8, 3),
    ];

    #[test]
    fn every_tier_matches_portable_on_partial_groups_and_long_patches() {
        // live lanes that are not a multiple of 8 (a 5×7 grid: 35; BCI-III-V:
        // 96 = 64 + 32 over two blocks), and 25- and 49-word patches
        let cases = [
            (5, 7, 8, 3, 3),
            (16, 6, 8, 3, 151),
            (5, 7, 64, 5, 4),
            (3, 11, 64, 7, 3),
            (9, 9, 64, 7, 2),
        ];
        let mut seed = 23;
        for (width, length, channels, k, out) in cases {
            let geometry = ConvGeometry::new(width, length, channels, k);
            let mut image = vec![0u64; geometry.image_words()];
            for y in 0..width {
                for x in 0..length {
                    for c in (0..channels).step_by(64) {
                        geometry.put(&mut image, y, x, c, splitmix(&mut seed));
                    }
                }
            }
            let nw = geometry.patch_words();
            let mut rows = vec![0u64; out * nw];
            for row in rows.chunks_exact_mut(nw) {
                for t in 0..k * k {
                    for c in (0..channels).step_by(64) {
                        geometry.put_tap(row, t, c, splitmix(&mut seed));
                    }
                }
            }
            let conv = BitConv::new(geometry, rows);
            let n = width * length;
            let thresholds: Vec<u32> = geometry
                .in_bounds_bits()
                .iter()
                .map(|&b| (splitmix(&mut seed) % (b as u64 + 1)) as u32)
                .collect();
            let mut expect = vec![0u32; out * n];
            conv.hamming_with(KernelTier::Portable, &image, &mut expect);
            let expect_planes = conv.sign_planes_with(KernelTier::Portable, &image, &thresholds);
            assert!(expect_planes.iter().any(|&w| w != 0));
            let shape = format!("{width}×{length}, {nw}-word patches");
            for tier in KernelTier::ALL.into_iter().filter(|t| t.is_available()) {
                let mut hams = vec![u32::MAX; out * n];
                conv.hamming_with(tier, &image, &mut hams);
                assert_eq!(hams, expect, "counts at tier {tier}, {shape}");
                let planes = conv.sign_planes_with(tier, &image, &thresholds);
                assert_eq!(planes, expect_planes, "sign planes at tier {tier}, {shape}");
            }
        }
    }

    /// The in-bounds mask of patch `(y, x)` built the way `BitConv` did
    /// before the mask tables: the strips of one all-ones padded image row
    /// at the patch's column, for each window row inside the grid.
    fn ones_row_mask(g: &ConvGeometry, y: usize, x: usize) -> Vec<u64> {
        let (k, c) = (g.k, g.channels);
        let (pad, strip) = (k / 2, k * c);
        let mut ones_row = vec![0u64; crate::word::words_for(g.padded_length() * c) + 1];
        for bit in pad * c..(pad + g.length) * c {
            ones_row[bit / 64] |= 1 << (bit % 64);
        }
        let mut mask = vec![0u64; g.patch_words()];
        for ky in pad.saturating_sub(y)..(g.width + pad - y).min(k) {
            for done in (0..strip).step_by(64) {
                let len = (strip - done).min(64);
                let valid = read_bits(&ones_row, x * c + done) & tail_mask(len);
                or_bits(&mut mask, 1, ky * strip + done, valid, len);
            }
        }
        mask
    }

    #[test]
    fn mask_tables_match_the_ones_row_masks_and_in_bounds_bits() {
        // Table I, then grids narrower or shorter than the window
        let narrow = [
            (1, 1, 8, 3),
            (1, 6, 8, 3),
            (2, 9, 4, 5),
            (9, 2, 4, 5),
            (3, 3, 64, 7),
            (2, 5, 70, 7),
        ];
        for (width, length, channels, k) in TABLE_I.into_iter().chain(narrow) {
            let g = ConvGeometry::new(width, length, channels, k);
            let nw = g.patch_words();
            let tables = g.mask_tables();
            assert_eq!(tables.len(), (width + length) * nw);
            let (row_masks, col_masks) = tables.split_at(width * nw);
            let in_bounds = g.in_bounds_bits();
            for y in 0..width {
                for x in 0..length {
                    let mask: Vec<u64> = (0..nw)
                        .map(|w| row_masks[y * nw + w] & col_masks[x * nw + w])
                        .collect();
                    let at = format!("({y}, {x}) of {width}×{length}, C = {channels}, k = {k}");
                    assert_eq!(mask, ones_row_mask(&g, y, x), "mask at {at}");
                    let bits: u32 = mask.iter().map(|w| w.count_ones()).sum();
                    assert_eq!(bits as usize, in_bounds[y * length + x], "bits at {at}");
                }
            }
        }
    }

    #[test]
    fn put_row_matches_put_per_position() {
        let mut seed = 5;
        for (width, length, channels, k) in TABLE_I.into_iter().chain([(3, 4, 70, 5)]) {
            let g = ConvGeometry::new(width, length, channels, k);
            let words: Vec<u64> = (0..width * length).map(|_| splitmix(&mut seed)).collect();
            let mut by_put = vec![0u64; g.image_words()];
            let mut by_row = vec![0u64; g.image_words()];
            for (y, row) in words.chunks_exact(length).enumerate() {
                for (x, &w) in row.iter().enumerate() {
                    g.put(&mut by_put, y, x, 0, w);
                }
                // a word past the row's end is dropped
                g.put_row(&mut by_row, y, row.iter().copied().chain([u64::MAX]));
            }
            assert_eq!(by_row, by_put, "{width}×{length}, C = {channels}");
        }
    }

    #[test]
    fn conv_byte_lanes_flush_before_they_overflow() {
        // an all-ones image against an all-zero kernel row disagrees on
        // every in-bounds bit: 8 per byte lane per word, so a 49-word
        // patch (C = 64, k = 7) passes 255 unless the lanes are flushed
        let geometry = ConvGeometry::new(7, 8, 64, 7);
        assert_eq!(geometry.patch_words(), 49);
        let mut image = vec![0u64; geometry.image_words()];
        for y in 0..7 {
            for x in 0..8 {
                geometry.put(&mut image, y, x, 0, u64::MAX);
            }
        }
        let conv = BitConv::new(geometry, vec![0; 2 * 49]);
        let expect: Vec<u32> = geometry
            .in_bounds_bits()
            .iter()
            .chain(&geometry.in_bounds_bits())
            .map(|&b| b as u32)
            .collect();
        assert_eq!(
            expect[3 * 8 + 3],
            49 * 64,
            "an interior patch is all in bounds"
        );
        for tier in KernelTier::ALL {
            let mut hams = vec![0u32; 2 * 56];
            conv.hamming_with(tier, &image, &mut hams);
            assert_eq!(hams, expect, "tier {tier}");
        }
    }
}
