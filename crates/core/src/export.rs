//! Model (de)serialization.
//!
//! [`save_model`] writes the v2 container: the shared 16-byte frame
//! (magic `UNIVSA\0\x01`, version, payload length) around a packed binary
//! payload — configuration, mask, weights — followed by the
//! per-component CRC32 checksums of [`crate::ModelIntegrity`]. Loading
//! re-validates the configuration, re-assembles the model, and
//! re-computes the checksums, failing with [`UniVsaError::Integrity`] on
//! any mismatch — weight corruption in storage or transit is detected
//! *before* the model can mispredict.

use univsa_bits::{BitMatrix, BitVec};

use crate::codec::{Container, Reader, Writer};
use crate::{Enhancements, Mask, ModelIntegrity, UniVsaConfig, UniVsaError, UniVsaModel};

const MODEL: Container = Container {
    magic: b"UNIVSA\0\x01",
    version: 2,
    name: "model container",
};

/// Serializes a model to the v2 framed binary container with embedded
/// per-component checksums.
///
/// # Errors
///
/// Returns [`UniVsaError::Serialize`] if the model exceeds the container's
/// 32-bit section limits (cannot happen for valid configurations; kept
/// fallible for forward compatibility).
///
/// # Examples
///
/// ```no_run
/// # fn demo(model: &univsa::UniVsaModel) -> Result<(), univsa::UniVsaError> {
/// let bytes = univsa::save_model(model)?;
/// let restored = univsa::load_model(&bytes)?;
/// assert_eq!(&restored, model);
/// # Ok(())
/// # }
/// ```
pub fn save_model(model: &UniVsaModel) -> Result<Vec<u8>, UniVsaError> {
    let mut w = Writer::default();
    let cfg = model.config();
    for (value, what) in [
        (cfg.d_h, "d_h"),
        (cfg.d_l, "d_l"),
        (cfg.d_k, "d_k"),
        (cfg.out_channels, "out_channels"),
        (cfg.voters, "voters"),
        (cfg.levels, "levels"),
        (cfg.width, "width"),
        (cfg.length, "length"),
        (cfg.classes, "classes"),
    ] {
        w.len(value, what)?;
    }
    let e = cfg.enhancements;
    w.u8(u8::from(e.dvp) | u8::from(e.biconv) << 1 | u8::from(e.soft_voting) << 2);
    w.f32(cfg.high_fraction);

    let mask = model.mask().as_bits();
    w.len(mask.len(), "mask length")?;
    w.bitmask(mask);

    write_matrix(&mut w, model.v_h())?;
    write_matrix(&mut w, model.v_l())?;
    w.len(model.kernel_words().len(), "kernel words")?;
    w.words(model.kernel_words());
    write_matrix(&mut w, model.f())?;
    w.len(model.class_sets().len(), "class sets")?;
    for set in model.class_sets() {
        write_matrix(&mut w, set)?;
    }

    let integrity = model.integrity();
    for crc in [
        integrity.v_h,
        integrity.v_l,
        integrity.kernel,
        integrity.f,
        integrity.c,
    ] {
        w.u32(crc);
    }
    MODEL.frame(&w.into_bytes())
}

fn write_matrix(w: &mut Writer, m: &BitMatrix) -> Result<(), UniVsaError> {
    w.len(m.rows(), "matrix rows")?;
    w.len(m.dim(), "matrix dim")?;
    for r in 0..m.rows() {
        w.words(m.row(r).as_words());
    }
    Ok(())
}

fn read_matrix(r: &mut Reader) -> Result<BitMatrix, UniVsaError> {
    let rows = r.u32()? as usize;
    let dim = r.u32()? as usize;
    if rows == 0 || dim == 0 {
        return Err(UniVsaError::Serialize(format!(
            "empty {rows}x{dim} matrix section"
        )));
    }
    let words_per_row = dim.div_ceil(64);
    let words = r.words(rows.saturating_mul(words_per_row))?;
    let row_vecs = words
        .chunks_exact(words_per_row)
        .map(|row| BitVec::from_words(dim, row.to_vec()))
        .collect();
    BitMatrix::from_rows(row_vecs).map_err(|e| UniVsaError::Serialize(e.to_string()))
}

/// Restores a model from a buffer produced by [`save_model`].
///
/// # Errors
///
/// Returns [`UniVsaError::Serialize`] on a bad magic, unsupported version,
/// truncated buffer, invalid configuration, or malformed payload, and
/// [`UniVsaError::Integrity`] when the weights no longer match their
/// embedded checksums.
pub fn load_model(bytes: &[u8]) -> Result<UniVsaModel, UniVsaError> {
    let (payload, _) = MODEL.open_frame(bytes, 0)?;
    let mut r = Reader::new(payload);
    let mut dims = [0usize; 9];
    for d in &mut dims {
        *d = r.u32()? as usize;
    }
    let [d_h, d_l, d_k, out_channels, voters, levels, width, length, classes] = dims;
    let flags = r.u8()?;
    let high_fraction = r.f32()?;
    let config = UniVsaConfig {
        d_h,
        d_l,
        d_k,
        out_channels,
        voters,
        levels,
        width,
        length,
        classes,
        enhancements: Enhancements {
            dvp: flags & 1 != 0,
            biconv: flags & 2 != 0,
            soft_voting: flags & 4 != 0,
        },
        high_fraction,
    }
    .validated()
    .map_err(|e| UniVsaError::Serialize(format!("decoded configuration is invalid: {e}")))?;

    let mask_len = r.u32()? as usize;
    let mask = Mask::from_bits(r.bitmask(mask_len)?);
    let v_h = read_matrix(&mut r)?;
    let v_l = read_matrix(&mut r)?;
    let kernel_len = r.u32()? as usize;
    let kernel = r.words(kernel_len)?;
    let f = read_matrix(&mut r)?;
    let sets = r.u32()? as usize;
    let class_sets = (0..sets)
        .map(|_| read_matrix(&mut r))
        .collect::<Result<Vec<_>, _>>()?;
    let expected = ModelIntegrity {
        v_h: r.u32()?,
        v_l: r.u32()?,
        kernel: r.u32()?,
        f: r.u32()?,
        c: r.u32()?,
    };
    r.finish()?;

    let model = UniVsaModel::from_parts(config, mask, v_h, v_l, kernel, f, class_sets)
        .map_err(|e| UniVsaError::Serialize(format!("decoded model is inconsistent: {e}")))?;
    let report = model.verify_integrity(&expected);
    if !report.is_clean() {
        return Err(UniVsaError::Integrity(format!(
            "checksum mismatch in component(s): {}",
            report.corrupted_components().join(", ")
        )));
    }
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Enhancements, Mask, UniVsaConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use univsa_bits::BitMatrix;
    use univsa_data::TaskSpec;

    fn model(seed: u64) -> UniVsaModel {
        let spec = TaskSpec {
            name: "t".into(),
            width: 3,
            length: 4,
            classes: 2,
            levels: 4,
        };
        let cfg = UniVsaConfig::for_task(&spec)
            .d_h(4)
            .d_l(2)
            .d_k(3)
            .out_channels(4)
            .voters(1)
            .enhancements(Enhancements::all())
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        UniVsaModel::from_parts(
            cfg.clone(),
            Mask::all_high(cfg.features()),
            BitMatrix::random(4, 4, &mut rng),
            BitMatrix::random(4, 2, &mut rng),
            (0..4 * 9).map(|i| i as u64 & 0xF).collect(),
            BitMatrix::random(4, 12, &mut rng),
            vec![BitMatrix::random(2, 12, &mut rng)],
        )
        .unwrap()
    }

    #[test]
    fn roundtrip() {
        let m = model(0);
        let bytes = save_model(&m).unwrap();
        let restored = load_model(&bytes).unwrap();
        assert_eq!(restored, m);
    }

    /// A container whose configuration never passed the builder: the
    /// writer does not validate, so only the loader stands between such a
    /// file and the packed compiler's plane-count bound.
    #[test]
    fn rejects_configs_the_builder_would_refuse() {
        let spec = TaskSpec {
            name: "wide".into(),
            width: 2,
            length: 2,
            classes: 2,
            levels: 2,
        };
        let valid = UniVsaConfig::for_task(&spec).d_k(1).build().unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let mut oversized = |config: UniVsaConfig| {
            let channels = config.encoding_channels();
            let kernel = if config.enhancements.biconv {
                vec![0; config.out_channels]
            } else {
                Vec::new()
            };
            let model = UniVsaModel::from_parts(
                config.clone(),
                Mask::all_high(4),
                BitMatrix::random(2, config.d_h, &mut rng),
                BitMatrix::random(2, config.effective_d_l(), &mut rng),
                kernel,
                BitMatrix::random(channels, 4, &mut rng),
                vec![BitMatrix::random(2, 4, &mut rng)],
            )
            .unwrap();
            save_model(&model).unwrap()
        };
        // D_H = 2^16 with BiConv off: 2^16 encoding channels
        let wide_d_h = oversized(UniVsaConfig {
            d_h: 1 << 16,
            d_l: 1,
            enhancements: Enhancements::none(),
            ..valid.clone()
        });
        assert_eq!(wide_d_h.len(), 557_194);
        let err = load_model(&wide_d_h).unwrap_err();
        assert!(err.to_string().contains("D_H"), "{err}");
        // O = 2^16 with BiConv on: same channel count through the conv
        let wide_o = oversized(UniVsaConfig {
            out_channels: 1 << 16,
            enhancements: Enhancements::all(),
            ..valid
        });
        let err = load_model(&wide_o).unwrap_err();
        assert!(err.to_string().contains("encoding channels"), "{err}");
    }

    #[test]
    fn rejects_bad_magic() {
        let m = model(2);
        let mut bytes = save_model(&m).unwrap();
        bytes[0] = b'X';
        assert!(load_model(&bytes).is_err());
    }

    #[test]
    fn rejects_bad_version() {
        let m = model(3);
        let mut bytes = save_model(&m).unwrap();
        bytes[8] = 99;
        assert!(load_model(&bytes).is_err());
    }

    /// Byte offset of the first `VB_H` weight word in a v2 container:
    /// 16-byte frame, 41-byte config block (9 u32 dims + flags byte +
    /// f32), mask section, then the matrix's 8-byte rows/dim header.
    fn v_h_words_offset(m: &UniVsaModel) -> usize {
        16 + 41 + 4 + m.config().features().div_ceil(8) + 8
    }

    #[test]
    fn v2_detects_payload_corruption() {
        let m = model(5);
        let mut bytes = save_model(&m).unwrap();
        // flip bit 0 of the first VB_H word — a real weight bit
        bytes[v_h_words_offset(&m)] ^= 0x01;
        let err = load_model(&bytes).unwrap_err();
        assert!(
            matches!(err, UniVsaError::Integrity(_)),
            "expected an integrity error, got: {err}"
        );
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn v2_reports_corrupted_component_by_name() {
        let m = model(6);
        let cfg = m.config().clone();
        let mut bytes = save_model(&m).unwrap();
        // first kernel word: after both value tables and the kernel length
        let table_bytes = |dim: usize| cfg.levels * dim.div_ceil(64) * 8;
        let kernel_offset =
            v_h_words_offset(&m) + table_bytes(cfg.d_h) + 8 + table_bytes(cfg.effective_d_l()) + 4;
        bytes[kernel_offset] ^= 0x01;
        let msg = load_model(&bytes).unwrap_err().to_string();
        assert!(msg.contains("kernel"), "component name missing from: {msg}");
    }

    #[test]
    fn restored_model_infers_identically() {
        let m = model(4);
        let restored = load_model(&save_model(&m).unwrap()).unwrap();
        let values: Vec<u8> = (0..12).map(|i| (i % 4) as u8).collect();
        assert_eq!(m.infer(&values).unwrap(), restored.infer(&values).unwrap());
    }
}
