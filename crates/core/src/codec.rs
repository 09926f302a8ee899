//! The little-endian byte codec behind every format that leaves the
//! process: the model container (`UNIVSA\0\x01`, `export.rs`), the packed
//! artifact (`UNIVSAPK`, `compile.rs`) and every IPC format of the
//! `univsa-dist` worker fleet. Both containers open with the same 16-byte
//! header (8-byte magic, `u32` version, `u32` payload length).
//!
//! [`Writer`] and [`Reader`] are total: [`Writer::len`] refuses a `usize`
//! too wide for its `u32` field instead of truncating it, and the reader
//! maps every malformed input to [`UniVsaError::Serialize`], checking each
//! length and element count against the bytes that remain before
//! allocating. The codec never branches on its caller; the IPC formats
//! convert its errors to [`UniVsaError::Ipc`] once, at their own
//! encode/decode boundary.

use crate::UniVsaError;

/// One framed container layout: its magic, the only version this build
/// writes and reads, and its name for error messages.
pub(crate) struct Container {
    pub magic: &'static [u8; 8],
    pub version: u32,
    pub name: &'static str,
}

/// Header length: magic, version, payload length.
const HEADER: usize = 16;

impl Container {
    /// Prefixes `payload` with this container's header.
    pub fn frame(&self, payload: &[u8]) -> Result<Vec<u8>, UniVsaError> {
        let mut out = Writer::default();
        out.raw(self.magic);
        out.u32(self.version);
        out.len(payload.len(), "payload length")?;
        out.raw(payload);
        Ok(out.bytes)
    }

    /// Checks the header of `bytes` and splits off the payload, plus the
    /// `trailer` bytes that must follow it; anything after those is
    /// ignored.
    pub fn open_frame<'a>(
        &self,
        bytes: &'a [u8],
        trailer: usize,
    ) -> Result<(&'a [u8], &'a [u8]), UniVsaError> {
        if bytes.len() < HEADER + trailer {
            return Err(UniVsaError::Serialize("buffer too short".into()));
        }
        if &bytes[..8] != self.magic {
            return Err(UniVsaError::Serialize(format!("bad {} magic", self.name)));
        }
        let mut header = Reader::new(&bytes[8..HEADER]);
        let version = header.u32()?;
        if version != self.version {
            return Err(UniVsaError::Serialize(format!(
                "unsupported {} version {version}",
                self.name
            )));
        }
        let len = header.u32()? as usize;
        let rest = &bytes[HEADER..];
        if rest.len() < len + trailer {
            return Err(UniVsaError::Serialize(format!(
                "payload truncated: expected {} bytes, have {}",
                len + trailer,
                rest.len()
            )));
        }
        Ok((&rest[..len], &rest[len..len + trailer]))
    }
}

/// Little-endian payload writer.
#[derive(Debug, Default)]
pub struct Writer {
    bytes: Vec<u8>,
}

impl Writer {
    /// The bytes written so far.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Appends `bytes` verbatim, without a length prefix.
    fn raw(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
    }

    /// A `usize` — a dimension, count or section length — as a `u32`
    /// field; fails, naming `what` and writing nothing, when `v` does not
    /// fit.
    pub fn len(&mut self, v: usize, what: &str) -> Result<(), UniVsaError> {
        let v = u32::try_from(v).map_err(|_| {
            UniVsaError::Serialize(format!("{what} = {v} does not fit its u32 field"))
        })?;
        self.u32(v);
        Ok(())
    }

    /// A byte string behind its `u32` length (fails as [`Writer::len`]).
    pub fn bytes(&mut self, v: &[u8], what: &str) -> Result<(), UniVsaError> {
        self.len(v.len(), what)?;
        self.raw(v);
        Ok(())
    }

    /// A UTF-8 string behind its `u32` byte length (fails as
    /// [`Writer::len`]).
    pub fn str(&mut self, v: &str, what: &str) -> Result<(), UniVsaError> {
        self.bytes(v.as_bytes(), what)
    }

    /// `u64` words, without a length prefix.
    pub(crate) fn words(&mut self, words: &[u64]) {
        for &w in words {
            self.u64(w);
        }
    }

    /// Packs `bits` LSB first, `⌈n/8⌉` bytes (the length is written
    /// separately by the caller).
    pub(crate) fn bitmask(&mut self, bits: &[bool]) {
        let start = self.bytes.len();
        self.bytes.resize(start + bits.len().div_ceil(8), 0);
        for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
            self.bytes[start + i / 8] |= 1 << (i % 8);
        }
    }
}

/// Bounded little-endian payload reader. Every method either consumes
/// exactly the bytes its value occupies or fails with
/// [`UniVsaError::Serialize`] — when the payload runs out first, or where
/// noted, when the value is invalid; none panics on any input.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader positioned at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// The next `n` bytes.
    fn take(&mut self, n: usize) -> Result<&'a [u8], UniVsaError> {
        if n > self.remaining() {
            return Err(UniVsaError::Serialize(format!(
                "payload truncated at offset {}",
                self.pos
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], UniVsaError> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// A byte string written by [`Writer::bytes`].
    pub fn bytes(&mut self) -> Result<&'a [u8], UniVsaError> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    /// A UTF-8 string written by [`Writer::str`]; invalid UTF-8 is an
    /// error naming `what`.
    pub fn string(&mut self, what: &str) -> Result<String, UniVsaError> {
        let raw = self.bytes()?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| UniVsaError::Serialize(format!("{what} field is not valid UTF-8")))
    }

    /// A `u32` element count, rejected when even elements of
    /// `min_element_bytes` each could not fit in the bytes that remain —
    /// so a corrupted count cannot drive a huge `Vec::with_capacity`.
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize, UniVsaError> {
        let n = self.u32()? as usize;
        if n.saturating_mul(min_element_bytes) > self.remaining() {
            return Err(UniVsaError::Serialize(format!(
                "count {n} at offset {} needs at least {} bytes but only {} bytes remain",
                self.pos - 4,
                n.saturating_mul(min_element_bytes),
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// `n` words, rejected before allocating when the section would run
    /// past the end of the payload.
    pub(crate) fn words(&mut self, n: usize) -> Result<Vec<u64>, UniVsaError> {
        if n.saturating_mul(8) > self.remaining() {
            return Err(UniVsaError::Serialize(format!(
                "section of {n} words larger than the payload"
            )));
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// `n` bits packed LSB first, as written by [`Writer::bitmask`].
    pub(crate) fn bitmask(&mut self, n: usize) -> Result<Vec<bool>, UniVsaError> {
        let packed = self.take(n.div_ceil(8))?;
        Ok((0..n).map(|i| packed[i / 8] >> (i % 8) & 1 == 1).collect())
    }

    /// Fails unless every payload byte was consumed.
    pub fn finish(self) -> Result<(), UniVsaError> {
        match self.remaining() {
            0 => Ok(()),
            n => Err(UniVsaError::Serialize(format!(
                "{n} trailing payload bytes"
            ))),
        }
    }
}

/// The fixed-width fields, little-endian on both sides (floats as their
/// exact bit patterns, so NaN payloads survive).
macro_rules! fixed_width {
    ($($t:ident),*) => {
        impl Writer {
            $(
                #[doc = concat!("A `", stringify!($t), "` field.")]
                pub fn $t(&mut self, v: $t) {
                    self.raw(&v.to_le_bytes());
                }
            )*
        }

        impl Reader<'_> {
            $(
                #[doc = concat!("A `", stringify!($t), "` field.")]
                pub fn $t(&mut self) -> Result<$t, UniVsaError> {
                    self.array().map(<$t>::from_le_bytes)
                }
            )*
        }
    };
}

fixed_width!(u8, u32, u64, i64, u128, f32, f64);
