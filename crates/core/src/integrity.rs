//! Online fault detection and repair for deployed models.
//!
//! Two layers of defence, mirroring what the FPGA deployment would do in
//! BRAM:
//!
//! 1. **Detection** — [`ModelIntegrity`] holds one CRC32 per weight
//!    component (`VB_H`, `VB_L`, **K**, **F**, **C**). It is computed at
//!    train/save time, embedded in the v2 container, and re-checked with
//!    [`UniVsaModel::verify_integrity`] (the software analogue of a parity
//!    / checksum scrub pass over weight memory).
//! 2. **Repair** — [`UniVsaModel::repair_from_copies`] performs TMR-style
//!    bitwise majority voting across `R` redundant weight copies: with at
//!    most `⌊R/2⌋` corrupted copies per bit, the voted model equals the
//!    clean one.
//!
//! A runtime that wants graded confidence reads the decision's
//! similarity margin from [`crate::PackedModel::infer_detailed`] through
//! [`crate::similarity_margin`].

use univsa_bits::{BitMatrix, BitVec};

use crate::{UniVsaError, UniVsaModel};

/// CRC32 (IEEE 802.3, reflected polynomial `0xEDB88320`) over a byte
/// stream. Table-driven, the same algorithm a lightweight FPGA scrubber
/// would implement.
pub fn crc32(bytes: &[u8]) -> u32 {
    const fn table() -> [u32; 256] {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = if crc & 1 == 1 {
                    (crc >> 1) ^ 0xEDB8_8320
                } else {
                    crc >> 1
                };
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    }
    const TABLE: [u32; 256] = table();
    let mut crc = u32::MAX;
    for &b in bytes {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

fn crc_matrix(m: &BitMatrix) -> u32 {
    let mut bytes = Vec::with_capacity(8 + m.rows() * m.dim().div_ceil(64) * 8);
    bytes.extend_from_slice(&(m.rows() as u32).to_le_bytes());
    bytes.extend_from_slice(&(m.dim() as u32).to_le_bytes());
    for r in 0..m.rows() {
        for w in m.row(r).as_words() {
            bytes.extend_from_slice(&w.to_le_bytes());
        }
    }
    crc32(&bytes)
}

fn crc_words(words: &[u64]) -> u32 {
    let mut bytes = Vec::with_capacity(words.len() * 8);
    for w in words {
        bytes.extend_from_slice(&w.to_le_bytes());
    }
    crc32(&bytes)
}

/// Per-component CRC32 checksums of a model's weight memory, the unit the
/// v2 container embeds and [`UniVsaModel::verify_integrity`] checks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ModelIntegrity {
    /// Checksum of the high-importance value table `VB_H`.
    pub v_h: u32,
    /// Checksum of the low-importance value table `VB_L`.
    pub v_l: u32,
    /// Checksum of the packed convolution kernels **K**.
    pub kernel: u32,
    /// Checksum of the feature vectors **F**.
    pub f: u32,
    /// Checksum of all class-vector sets **C**.
    pub c: u32,
}

impl ModelIntegrity {
    /// Component names in the order the report lists them.
    pub const COMPONENTS: [&'static str; 5] = ["v_h", "v_l", "kernel", "f", "c"];
}

/// Outcome of an integrity check: which components still match their
/// recorded checksum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IntegrityReport {
    /// `VB_H` matches.
    pub v_h_ok: bool,
    /// `VB_L` matches.
    pub v_l_ok: bool,
    /// **K** matches.
    pub kernel_ok: bool,
    /// **F** matches.
    pub f_ok: bool,
    /// **C** matches.
    pub c_ok: bool,
}

impl IntegrityReport {
    /// Whether every component matched.
    pub fn is_clean(&self) -> bool {
        self.v_h_ok && self.v_l_ok && self.kernel_ok && self.f_ok && self.c_ok
    }

    /// Names of the components that failed the check.
    pub fn corrupted_components(&self) -> Vec<&'static str> {
        let flags = [
            self.v_h_ok,
            self.v_l_ok,
            self.kernel_ok,
            self.f_ok,
            self.c_ok,
        ];
        ModelIntegrity::COMPONENTS
            .iter()
            .zip(flags)
            .filter(|&(_, ok)| !ok)
            .map(|(&name, _)| name)
            .collect()
    }
}

impl UniVsaModel {
    /// Computes the per-component checksums of this model's weights.
    pub fn integrity(&self) -> ModelIntegrity {
        let mut c_bytes = Vec::new();
        for set in self.class_sets() {
            c_bytes.extend_from_slice(&crc_matrix(set).to_le_bytes());
        }
        ModelIntegrity {
            v_h: crc_matrix(self.v_h()),
            v_l: crc_matrix(self.v_l()),
            kernel: crc_words(self.kernel_words()),
            f: crc_matrix(self.f()),
            c: crc32(&c_bytes),
        }
    }

    /// Re-checks this model's weights against checksums recorded earlier
    /// (typically the ones embedded in its v2 container).
    pub fn verify_integrity(&self, expected: &ModelIntegrity) -> IntegrityReport {
        let now = self.integrity();
        IntegrityReport {
            v_h_ok: now.v_h == expected.v_h,
            v_l_ok: now.v_l == expected.v_l,
            kernel_ok: now.kernel == expected.kernel,
            f_ok: now.f == expected.f,
            c_ok: now.c == expected.c,
        }
    }

    /// TMR-style repair: reconstructs a model by bitwise majority vote over
    /// `R` redundant copies (`R` odd, ≥ 3). Any bit corrupted in at most
    /// `⌊R/2⌋` copies is restored exactly; configuration and mask are taken
    /// from the copies' (required-identical) metadata.
    ///
    /// # Errors
    ///
    /// Returns [`UniVsaError::Integrity`] when `R` is even or < 3, or when
    /// the copies disagree in configuration, mask, or weight shapes (a
    /// corrupted *structure* cannot be outvoted).
    pub fn repair_from_copies(copies: &[UniVsaModel]) -> Result<UniVsaModel, UniVsaError> {
        let r = copies.len();
        if r < 3 || r.is_multiple_of(2) {
            return Err(UniVsaError::Integrity(format!(
                "majority vote needs an odd number of copies >= 3, got {r}"
            )));
        }
        let first = &copies[0];
        for (i, copy) in copies.iter().enumerate().skip(1) {
            if copy.config() != first.config() || copy.mask() != first.mask() {
                return Err(UniVsaError::Integrity(format!(
                    "copy {i} disagrees with copy 0 in configuration or mask"
                )));
            }
        }
        let v_h = vote_matrix(copies, |m| m.v_h())?;
        let v_l = vote_matrix(copies, |m| m.v_l())?;
        let kernel = vote_words(&copies.iter().map(|m| m.kernel_words()).collect::<Vec<_>>())?;
        let f = vote_matrix(copies, |m| m.f())?;
        let sets = first.class_sets().len();
        let mut c = Vec::with_capacity(sets);
        for s in 0..sets {
            c.push(vote_matrix(copies, |m| &m.class_sets()[s])?);
        }
        UniVsaModel::from_parts(
            first.config().clone(),
            first.mask().clone(),
            v_h,
            v_l,
            kernel,
            f,
            c,
        )
    }
}

fn vote_matrix<'a>(
    copies: &'a [UniVsaModel],
    select: impl Fn(&'a UniVsaModel) -> &'a BitMatrix,
) -> Result<BitMatrix, UniVsaError> {
    let mats: Vec<&BitMatrix> = copies.iter().map(select).collect();
    let (rows, dim) = (mats[0].rows(), mats[0].dim());
    if mats.iter().any(|m| m.rows() != rows || m.dim() != dim) {
        return Err(UniVsaError::Integrity(
            "weight copies disagree in shape".into(),
        ));
    }
    let voted_rows: Vec<BitVec> = (0..rows)
        .map(|r| {
            let row_words: Vec<&[u64]> = mats.iter().map(|m| m.row(r).as_words()).collect();
            BitVec::from_words(dim, majority_words(&row_words))
        })
        .collect();
    Ok(BitMatrix::from_rows(voted_rows)?)
}

fn vote_words(copies: &[&[u64]]) -> Result<Vec<u64>, UniVsaError> {
    let len = copies[0].len();
    if copies.iter().any(|w| w.len() != len) {
        return Err(UniVsaError::Integrity(
            "kernel copies disagree in length".into(),
        ));
    }
    Ok(majority_words(copies))
}

/// Per-bit majority across word slices of equal length (`copies.len()`
/// odd). Carry-save adder over the copies keeps this word-parallel.
fn majority_words(copies: &[&[u64]]) -> Vec<u64> {
    let r = copies.len();
    let threshold = r / 2; // strict majority: count > r/2
    (0..copies[0].len())
        .map(|i| {
            let mut out = 0u64;
            for bit in 0..64 {
                let ones = copies.iter().filter(|w| (w[i] >> bit) & 1 == 1).count();
                if ones > threshold {
                    out |= 1 << bit;
                }
            }
            out
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Enhancements, FaultModel, FaultSpec, FaultTarget, Mask, UniVsaConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use univsa_data::TaskSpec;

    fn model(seed: u64) -> UniVsaModel {
        let spec = TaskSpec {
            name: "t".into(),
            width: 4,
            length: 6,
            classes: 3,
            levels: 8,
        };
        let cfg = UniVsaConfig::for_task(&spec)
            .d_h(4)
            .d_l(2)
            .d_k(3)
            .out_channels(6)
            .voters(3)
            .enhancements(Enhancements::all())
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        UniVsaModel::from_parts(
            cfg.clone(),
            Mask::all_high(cfg.features()),
            univsa_bits::BitMatrix::random(cfg.levels, cfg.d_h, &mut rng),
            univsa_bits::BitMatrix::random(cfg.levels, cfg.d_l, &mut rng),
            (0..cfg.out_channels * 9)
                .map(|_| rand::Rng::gen::<u64>(&mut rng) & 0xF)
                .collect(),
            univsa_bits::BitMatrix::random(cfg.out_channels, cfg.vsa_dim(), &mut rng),
            (0..3)
                .map(|_| univsa_bits::BitMatrix::random(cfg.classes, cfg.vsa_dim(), &mut rng))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn crc32_known_vectors() {
        // standard check value for "123456789"
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn clean_model_verifies_clean() {
        let m = model(0);
        let expected = m.integrity();
        let report = m.verify_integrity(&expected);
        assert!(report.is_clean());
        assert!(report.corrupted_components().is_empty());
    }

    #[test]
    fn corruption_is_detected_and_localized() {
        let m = model(1);
        let expected = m.integrity();
        let spec = FaultSpec {
            model: FaultModel::BitFlip { rate: 0.05 },
            target: FaultTarget::FeatureVectors,
            seed: 7,
        };
        let hit = spec.inject(&m).unwrap();
        assert!(hit.disturbed_bits > 0);
        let report = hit.model.verify_integrity(&expected);
        assert!(!report.is_clean());
        assert_eq!(report.corrupted_components(), vec!["f"]);
        assert!(report.v_h_ok && report.v_l_ok && report.kernel_ok && report.c_ok);
    }

    #[test]
    fn tmr_restores_exact_model_with_one_corrupted_copy() {
        let m = model(2);
        let spec = FaultSpec {
            model: FaultModel::BitFlip { rate: 0.1 },
            target: FaultTarget::All,
            seed: 9,
        };
        let corrupted = spec.inject(&m).unwrap().model;
        let repaired = UniVsaModel::repair_from_copies(&[m.clone(), corrupted, m.clone()]).unwrap();
        assert_eq!(repaired, m);
    }

    #[test]
    fn tmr_rejects_even_or_tiny_copy_counts() {
        let m = model(3);
        assert!(matches!(
            UniVsaModel::repair_from_copies(std::slice::from_ref(&m)),
            Err(UniVsaError::Integrity(_))
        ));
        assert!(UniVsaModel::repair_from_copies(&[m.clone(), m.clone()]).is_err());
        assert!(UniVsaModel::repair_from_copies(&[]).is_err());
    }

    #[test]
    fn tmr_five_copies_outvotes_two_corruptions() {
        let m = model(4);
        let bad = |seed| {
            FaultSpec {
                model: FaultModel::BitFlip { rate: 0.05 },
                target: FaultTarget::All,
                seed,
            }
            .inject(&m)
            .unwrap()
            .model
        };
        let repaired =
            UniVsaModel::repair_from_copies(&[m.clone(), bad(1), m.clone(), bad(2), m.clone()])
                .unwrap();
        assert_eq!(repaired, m);
    }
}
