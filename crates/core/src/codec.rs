//! The byte codec shared by the model container (`UNIVSA\0\x01`, see
//! `export.rs`) and the packed artifact (`UNIVSAPK`, see `compile.rs`).
//!
//! Both containers open with the same 16-byte header — 8-byte magic,
//! little-endian `u32` version, little-endian `u32` payload length — and
//! encode their payloads from the same little-endian primitives: `u32`
//! dimensions and section lengths, `u64` words, and bit masks packed LSB
//! first. [`Writer`] produces those bytes and [`Reader`] consumes them.
//! The reader is total: every malformed input maps to
//! [`UniVsaError::Serialize`], and every length read from the input is
//! checked against the bytes that remain before anything is allocated.

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
        out.bytes.extend_from_slice(self.magic);
        out.u32(self.version);
        out.len(payload.len(), "payload length")?;
        out.bytes.extend_from_slice(payload);
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
#[derive(Default)]
pub(crate) struct Writer {
    pub bytes: Vec<u8>,
}

impl Writer {
    pub fn u8(&mut self, v: u8) {
        self.bytes.push(v);
    }

    pub fn u32(&mut self, v: u32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f32(&mut self, v: f32) {
        self.bytes.extend_from_slice(&v.to_le_bytes());
    }

    /// A dimension or section length as a `u32` field.
    pub fn len(&mut self, v: usize, what: &str) -> Result<(), UniVsaError> {
        let v = u32::try_from(v).map_err(|_| {
            UniVsaError::Serialize(format!("{what} = {v} exceeds the u32 section limit"))
        })?;
        self.u32(v);
        Ok(())
    }

    pub fn words(&mut self, words: &[u64]) {
        for &w in words {
            self.u64(w);
        }
    }

    /// Packs `bits` LSB first, `⌈n/8⌉` bytes (the length is written
    /// separately by the caller).
    pub fn bitmask(&mut self, bits: &[bool]) {
        let start = self.bytes.len();
        self.bytes.resize(start + bits.len().div_ceil(8), 0);
        for (i, _) in bits.iter().enumerate().filter(|(_, &b)| b) {
            self.bytes[start + i / 8] |= 1 << (i % 8);
        }
    }
}

/// Bounded little-endian payload reader.
pub(crate) struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    pub fn take(&mut self, n: usize) -> Result<&'a [u8], UniVsaError> {
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
        Ok(self.take(N)?.try_into().expect("take returns N bytes"))
    }

    pub fn u8(&mut self) -> Result<u8, UniVsaError> {
        Ok(self.take(1)?[0])
    }

    pub fn u32(&mut self) -> Result<u32, UniVsaError> {
        self.array().map(u32::from_le_bytes)
    }

    pub fn u64(&mut self) -> Result<u64, UniVsaError> {
        self.array().map(u64::from_le_bytes)
    }

    pub fn f32(&mut self) -> Result<f32, UniVsaError> {
        self.array().map(f32::from_le_bytes)
    }

    /// `n` words, rejected before allocating when the section would run
    /// past the end of the payload.
    pub fn words(&mut self, n: usize) -> Result<Vec<u64>, UniVsaError> {
        if n.saturating_mul(8) > self.remaining() {
            return Err(UniVsaError::Serialize(format!(
                "section of {n} words larger than the payload"
            )));
        }
        (0..n).map(|_| self.u64()).collect()
    }

    /// `n` bits packed LSB first, as written by [`Writer::bitmask`].
    pub fn bitmask(&mut self, n: usize) -> Result<Vec<bool>, UniVsaError> {
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
