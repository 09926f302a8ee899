//! The two on-disk containers — the model container (`UNIVSA\0\x01` v2)
//! and the packed artifact (`UNIVSAPK` v1) — under a golden-bytes check
//! and hostile-input properties: every truncated prefix and every
//! rewritten dimension or section-length field must come back as a typed
//! error, never a panic and never a silently different model.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use univsa::{
    crc32, load_model, load_packed, save_model, save_packed, Enhancements, Mask, PackedModel,
    UniVsaConfig, UniVsaModel,
};
use univsa_bits::BitMatrix;
use univsa_data::TaskSpec;

/// A seeded model with every enhancement on, so each configuration field
/// is cross-checked against a weight section on load.
fn model(width: usize, length: usize, classes: usize, voters: usize, seed: u64) -> UniVsaModel {
    let spec = TaskSpec {
        name: "containers".into(),
        width,
        length,
        classes,
        levels: 8,
    };
    let cfg = UniVsaConfig::for_task(&spec)
        .d_h(4)
        .d_l(2)
        .d_k(3)
        .out_channels(6)
        .voters(voters)
        .enhancements(Enhancements::all())
        .build()
        .unwrap();
    let mut rng = StdRng::seed_from_u64(seed);
    let mask = Mask::from_bits((0..cfg.features()).map(|_| rng.gen::<bool>()).collect());
    let v_h = BitMatrix::random(cfg.levels, cfg.d_h, &mut rng);
    let v_l = BitMatrix::random(cfg.levels, cfg.effective_d_l(), &mut rng);
    let kernel = (0..cfg.out_channels * cfg.d_k * cfg.d_k)
        .map(|_| rng.gen::<u64>() & 0xF)
        .collect();
    let f = BitMatrix::random(cfg.encoding_channels(), cfg.vsa_dim(), &mut rng);
    let c = (0..cfg.effective_voters())
        .map(|_| BitMatrix::random(cfg.classes, cfg.vsa_dim(), &mut rng))
        .collect();
    UniVsaModel::from_parts(cfg, mask, v_h, v_l, kernel, f, c).unwrap()
}

fn u32_at(bytes: &[u8], pos: usize) -> usize {
    u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap()) as usize
}

/// Offsets of every `u32` dimension and section-length field in a model
/// container, found by walking its layout.
fn model_fields(bytes: &[u8]) -> Vec<usize> {
    let mut fields = vec![12]; // frame payload length
    let mut pos = 16;
    fields.extend((0..9).map(|i| pos + 4 * i));
    pos += 9 * 4 + 1 + 4; // dims, flags, high_fraction
    fields.push(pos);
    pos += 4 + u32_at(bytes, pos).div_ceil(8);
    let matrix = |fields: &mut Vec<usize>, pos: &mut usize| {
        fields.extend([*pos, *pos + 4]);
        let words = u32_at(bytes, *pos) * u32_at(bytes, *pos + 4).div_ceil(64);
        *pos += 8 + 8 * words;
    };
    matrix(&mut fields, &mut pos); // VB_H
    matrix(&mut fields, &mut pos); // VB_L
    fields.push(pos);
    pos += 4 + 8 * u32_at(bytes, pos); // kernel
    matrix(&mut fields, &mut pos); // F
    fields.push(pos);
    let sets = u32_at(bytes, pos);
    pos += 4;
    for _ in 0..sets {
        matrix(&mut fields, &mut pos);
    }
    assert_eq!(pos + 5 * 4, bytes.len(), "walk must end at the checksums");
    fields
}

/// Offsets of every `u32` dimension and section-length field in a packed
/// artifact's payload (the frame's own length field is listed apart).
fn packed_fields(bytes: &[u8]) -> Vec<usize> {
    let mut pos = 16;
    let mut fields: Vec<usize> = (0..9).map(|i| pos + 4 * i).collect();
    pos += 9 * 4 + 1 + 8; // dims, biconv flag, majority constant
    fields.push(pos);
    pos += 4 + u32_at(bytes, pos).div_ceil(8);
    for _ in 0..5 {
        fields.push(pos);
        pos += 4 + 8 * u32_at(bytes, pos);
    }
    fields.push(pos);
    pos += 4 + 4 * u32_at(bytes, pos);
    assert_eq!(pos + 4, bytes.len(), "walk must end at the checksum");
    fields
}

/// The values each field is rewritten to.
fn hostile_values(original: usize) -> Vec<u32> {
    let original = original as u32;
    [
        0,
        1,
        u32::MAX,
        original.wrapping_add(1),
        original.wrapping_sub(1),
    ]
    .into_iter()
    .filter(|&v| v != original)
    .collect()
}

fn rewrite(bytes: &[u8], pos: usize, value: u32) -> Vec<u8> {
    let mut out = bytes.to_vec();
    out[pos..pos + 4].copy_from_slice(&value.to_le_bytes());
    out
}

/// Recomputes the packed artifact's trailing CRC so a mutation reaches
/// the semantic validators instead of stopping at the checksum.
fn reseal(mut bytes: Vec<u8>) -> Vec<u8> {
    let len = u32_at(&bytes, 12);
    let crc = crc32(&bytes[16..16 + len]);
    bytes[16 + len..16 + len + 4].copy_from_slice(&crc.to_le_bytes());
    bytes
}

/// The byte layout of both containers is frozen: these checksums were
/// taken from the writers before they moved onto the shared codec.
const MODEL_CRC: u32 = 0x26e1_b006;
const PACKED_CRC: u32 = 0xbdf2_5a27;

#[test]
fn container_bytes_match_the_golden_checksums() {
    let m = model(4, 6, 3, 2, 2025);
    assert_eq!(crc32(&save_model(&m).unwrap()), MODEL_CRC);
    assert_eq!(
        crc32(&save_packed(&PackedModel::compile(&m)).unwrap()),
        PACKED_CRC
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn model_container_rejects_truncation_and_rewritten_fields(
        width in 3usize..6,
        length in 3usize..9,
        classes in 2usize..5,
        voters in 1usize..4,
        seed in 0u64..1000,
    ) {
        let bytes = save_model(&model(width, length, classes, voters, seed)).unwrap();
        prop_assert!(load_model(&bytes).is_ok());
        for n in 0..bytes.len() {
            prop_assert!(load_model(&bytes[..n]).is_err(), "prefix of {} bytes loaded", n);
        }
        for pos in model_fields(&bytes) {
            for value in hostile_values(u32_at(&bytes, pos)) {
                let hostile = rewrite(&bytes, pos, value);
                prop_assert!(
                    load_model(&hostile).is_err(),
                    "field at {} rewritten to {} loaded", pos, value
                );
            }
        }
    }

    #[test]
    fn packed_artifact_rejects_truncation_and_rewritten_fields(
        width in 3usize..6,
        length in 3usize..9,
        classes in 2usize..5,
        voters in 1usize..4,
        seed in 0u64..1000,
    ) {
        let m = model(width, length, classes, voters, seed);
        let bytes = save_packed(&PackedModel::compile(&m)).unwrap();
        prop_assert!(load_packed(&bytes).is_ok());
        for n in 0..bytes.len() {
            prop_assert!(load_packed(&bytes[..n]).is_err(), "prefix of {} bytes loaded", n);
        }
        for value in hostile_values(u32_at(&bytes, 12)) {
            prop_assert!(load_packed(&rewrite(&bytes, 12, value)).is_err());
        }
        for pos in packed_fields(&bytes) {
            for value in hostile_values(u32_at(&bytes, pos)) {
                let hostile = reseal(rewrite(&bytes, pos, value));
                prop_assert!(
                    load_packed(&hostile).is_err(),
                    "field at {} rewritten to {} loaded", pos, value
                );
            }
        }
    }
}
