//! Length-prefixed, CRC32-framed byte transport.
//!
//! Every message crossing a worker pipe travels inside one frame:
//!
//! ```text
//! frame := len: u32 LE | crc: u32 LE | payload (len bytes)
//! ```
//!
//! where `crc` is [`univsa::crc32`] over the payload — the same IEEE
//! polynomial the model-integrity layer uses for weight memories. The
//! codec never panics on wire input: oversized lengths, truncated
//! payloads, and checksum mismatches all surface as
//! [`UniVsaError::Ipc`], and a clean EOF at a frame boundary is
//! distinguished from mid-frame truncation so the supervisor can tell a
//! graceful worker exit from a crash.

use std::io::{Read, Write};

use univsa::UniVsaError;

use crate::proto::{decode_payload, encode_payload};

/// Hard ceiling on a frame payload (16 MiB). A corrupt length prefix
/// must not trigger a multi-gigabyte allocation.
pub const MAX_FRAME: usize = 1 << 24;

/// Bytes of framing overhead per message (length + checksum prefixes).
pub const HEADER_LEN: usize = 8;

/// Outcome of [`read_frame`]: a payload, or a clean end-of-stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Frame {
    /// A complete, checksum-verified payload.
    Payload(Vec<u8>),
    /// The stream ended exactly on a frame boundary (peer closed its
    /// pipe after the last complete frame).
    Eof,
}

/// Writes one frame (header + payload) to `w` and flushes.
///
/// # Errors
///
/// [`UniVsaError::Ipc`] if the payload exceeds [`MAX_FRAME`];
/// [`UniVsaError::Io`] if the underlying write fails (typically a
/// closed pipe when the peer died).
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), UniVsaError> {
    write_frame_with_crc_flip(w, payload, 0)
}

/// Writes a frame whose checksum deliberately does not match the
/// payload (one CRC byte flipped). Only the chaos harness calls this —
/// it exercises the receiver's corruption path end-to-end.
///
/// # Errors
///
/// As [`write_frame`].
pub fn write_corrupt_frame(w: &mut impl Write, payload: &[u8]) -> Result<(), UniVsaError> {
    write_frame_with_crc_flip(w, payload, 0x01)
}

/// The one frame writer: header with the payload's CRC XOR `crc_flip`,
/// then the payload.
fn write_frame_with_crc_flip(
    w: &mut impl Write,
    payload: &[u8],
    crc_flip: u32,
) -> Result<(), UniVsaError> {
    if payload.len() > MAX_FRAME {
        return Err(UniVsaError::Ipc(format!(
            "outgoing frame of {} bytes exceeds the {MAX_FRAME}-byte limit",
            payload.len()
        )));
    }
    let header = encode_payload(|h| {
        h.len(payload.len(), "frame length")?;
        h.u32(univsa::crc32(payload) ^ crc_flip);
        Ok(())
    })?;
    let io = |e: std::io::Error| UniVsaError::Io(format!("cannot write frame: {e}"));
    w.write_all(&header).map_err(io)?;
    w.write_all(payload).map_err(io)?;
    w.flush().map_err(io)
}

/// Reads one frame from `r`, verifying length and checksum.
///
/// Returns [`Frame::Eof`] when the stream is already exhausted (clean
/// shutdown).
///
/// # Errors
///
/// [`UniVsaError::Ipc`] on a truncated header or payload, an oversized
/// length prefix, or a CRC mismatch; [`UniVsaError::Io`] if the read
/// itself fails.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, UniVsaError> {
    let header = read_up_to(r, HEADER_LEN)?;
    match header.len() {
        0 => return Ok(Frame::Eof),
        HEADER_LEN => {}
        got => {
            return Err(UniVsaError::Ipc(format!(
                "truncated frame header: got {got} of {HEADER_LEN} bytes"
            )))
        }
    }
    let (len, want_crc) = decode_payload(&header, |h| Ok((h.u32()? as usize, h.u32()?)))?;
    if len > MAX_FRAME {
        return Err(UniVsaError::Ipc(format!(
            "frame length {len} exceeds the {MAX_FRAME}-byte limit"
        )));
    }
    let payload = read_up_to(r, len)?;
    if payload.len() < len {
        return Err(UniVsaError::Ipc(format!(
            "truncated frame payload: expected {len} bytes"
        )));
    }
    let got_crc = univsa::crc32(&payload);
    if got_crc != want_crc {
        return Err(UniVsaError::Ipc(format!(
            "frame checksum mismatch: header says {want_crc:#010x}, payload hashes to {got_crc:#010x}"
        )));
    }
    Ok(Frame::Payload(payload))
}

/// Reads until `n` bytes or end of stream, whichever comes first. The
/// buffer grows with the bytes that actually arrive, so a corrupt length
/// prefix cannot allocate more than the stream delivers.
fn read_up_to(r: &mut impl Read, n: usize) -> Result<Vec<u8>, UniVsaError> {
    let mut buf = Vec::new();
    r.take(n as u64)
        .read_to_end(&mut buf)
        .map_err(|e| UniVsaError::Io(format!("cannot read frame: {e}")))?;
    Ok(buf)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn round_trip(payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, payload).unwrap();
        read_frame(&mut Cursor::new(buf)).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        assert_eq!(round_trip(b""), Frame::Payload(Vec::new()));
        assert_eq!(round_trip(b"hello"), Frame::Payload(b"hello".to_vec()));
        let big = vec![0xAB; 100_000];
        assert_eq!(round_trip(&big), Frame::Payload(big.clone()));
    }

    #[test]
    fn multiple_frames_then_clean_eof() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"one").unwrap();
        write_frame(&mut buf, b"two").unwrap();
        let mut cursor = Cursor::new(buf);
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Frame::Payload(b"one".to_vec())
        );
        assert_eq!(
            read_frame(&mut cursor).unwrap(),
            Frame::Payload(b"two".to_vec())
        );
        assert_eq!(read_frame(&mut cursor).unwrap(), Frame::Eof);
    }

    #[test]
    fn corrupt_crc_is_a_typed_error() {
        let mut buf = Vec::new();
        write_corrupt_frame(&mut buf, b"payload").unwrap();
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(matches!(err, UniVsaError::Ipc(_)), "got {err:?}");
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn flipped_payload_byte_is_detected() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x40;
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("checksum mismatch"));
    }

    #[test]
    fn truncated_header_and_payload_are_typed_errors() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"payload").unwrap();
        for cut in 1..buf.len() {
            let err = read_frame(&mut Cursor::new(&buf[..cut])).unwrap_err();
            assert!(matches!(err, UniVsaError::Ipc(_)), "cut {cut}: {err:?}");
        }
    }

    #[test]
    fn oversized_length_prefix_is_rejected_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes());
        let err = read_frame(&mut Cursor::new(buf)).unwrap_err();
        assert!(err.to_string().contains("exceeds"), "got {err}");
    }

    #[test]
    fn oversized_outgoing_payload_is_rejected() {
        let big = vec![0u8; MAX_FRAME + 1];
        let err = write_frame(&mut Vec::new(), &big).unwrap_err();
        assert!(matches!(err, UniVsaError::Ipc(_)));
    }
}
