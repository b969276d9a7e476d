//! Compact varint event encoding — the in-flight form carried by the
//! wait-free rings.
//!
//! One record is `kind byte · epoch varint · fields`, where integers
//! are LEB128 varints, floats are 8 raw little-endian bytes
//! (`f64::to_bits`), strings and lists are length-prefixed. Each kind's
//! byte and field order come from the event table in `lib.rs`. A
//! typical occupancy gauge encodes in ~12 bytes against ~90 bytes of
//! JSONL.

use crate::Event;
use hetmem_topology::NodeId;

/// A malformed compact record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CodecError(String);

impl CodecError {
    pub(crate) fn new(msg: impl Into<String>) -> CodecError {
        CodecError(msg.into())
    }
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "compact codec: {}", self.0)
    }
}

impl std::error::Error for CodecError {}

/// Appends `v` as a LEB128 varint.
pub fn put_u64(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Appends `v` as 8 raw little-endian bytes (`f64::to_bits`).
pub fn put_f64(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Appends `s` length-prefixed (varint byte count, then UTF-8 bytes).
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `b` as one byte (0 or 1).
pub fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

/// Appends a `(node, bytes)` placement list, length-prefixed.
pub fn put_placement(out: &mut Vec<u8>, placement: &[(NodeId, u64)]) {
    put_u64(out, placement.len() as u64);
    for &(node, bytes) in placement {
        put_u64(out, node.0 as u64);
        put_u64(out, bytes);
    }
}

/// A bounds-checked reader over a compact-encoded byte slice: every
/// read returns a typed [`CodecError`] instead of panicking on
/// truncated or malformed input. The snapshot codec
/// (`hetmem-snapshot`) builds its file format on the same primitives.
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// The current byte offset.
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes exactly `len` raw bytes.
    pub fn take(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CodecError::new("truncated byte run"))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Decodes one LEB128 varint.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte =
                *self.bytes.get(self.pos).ok_or_else(|| CodecError::new("truncated varint"))?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(CodecError::new("varint overflows u64"));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Decodes a varint that must fit in a `u32`.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        u32::try_from(self.u64()?).map_err(|_| CodecError::new("value overflows u32"))
    }

    /// Decodes 8 raw little-endian bytes as an `f64`.
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        let end = self.pos + 8;
        let raw = self.bytes.get(self.pos..end).ok_or_else(|| CodecError::new("truncated f64"))?;
        self.pos = end;
        Ok(f64::from_bits(u64::from_le_bytes(raw.try_into().expect("8 bytes"))))
    }

    /// Decodes one 0/1 byte; anything else is an error.
    pub fn bool(&mut self) -> Result<bool, CodecError> {
        let byte = *self.bytes.get(self.pos).ok_or_else(|| CodecError::new("truncated bool"))?;
        self.pos += 1;
        match byte {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::new(format!("bad bool byte {other}"))),
        }
    }

    /// Decodes a length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, CodecError> {
        let len = self.u64()? as usize;
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| CodecError::new("truncated string"))?;
        let s = std::str::from_utf8(&self.bytes[self.pos..end])
            .map_err(|_| CodecError::new("string is not UTF-8"))?
            .to_string();
        self.pos = end;
        Ok(s)
    }

    /// Decodes a node id (varint, `u32` range).
    pub fn node(&mut self) -> Result<NodeId, CodecError> {
        Ok(NodeId(self.u32()?))
    }

    /// Decodes a length-prefixed `(node, bytes)` placement list.
    pub fn placement(&mut self) -> Result<Vec<(NodeId, u64)>, CodecError> {
        let n = self.u64()? as usize;
        (0..n).map(|_| Ok((self.node()?, self.u64()?))).collect()
    }

    /// Succeeds only when every byte has been consumed.
    pub fn done(&self) -> Result<(), CodecError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(CodecError::new("trailing bytes after record"))
        }
    }
}
/// Encodes `(epoch, event)` as one compact record appended to `out`.
pub fn encode_record(epoch: u64, event: &Event, out: &mut Vec<u8>) {
    event.put_record(epoch, out);
}

/// Decodes one compact record produced by [`encode_record`].
pub fn decode_record(bytes: &[u8]) -> Result<(u64, Event), CodecError> {
    let mut c = Cursor::new(bytes);
    let kind = c.u64()?;
    let epoch = c.u64()?;
    let event = Event::get_record(kind, &mut c)?;
    c.done()?;
    Ok((epoch, event))
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LeaseRevoked, OccupancyGauge};

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut c = Cursor { bytes: &buf, pos: 0 };
            assert_eq!(c.u64().expect("decode"), v);
            c.done().expect("consumed");
        }
    }

    #[test]
    fn compact_is_much_smaller_than_jsonl() {
        let event = Event::OccupancyGauge(OccupancyGauge {
            node: NodeId(2),
            used: 5 << 30,
            high_water: 9 << 30,
            total: 768 << 30,
        });
        let mut buf = Vec::new();
        encode_record(7, &event, &mut buf);
        assert!(
            buf.len() * 3 < event.to_json().len(),
            "compact {}B vs jsonl {}B",
            buf.len(),
            event.to_json().len()
        );
        assert_eq!(decode_record(&buf).expect("roundtrip"), (7, event));
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let event = Event::LeaseRevoked(LeaseRevoked {
            broker: 1,
            tenant: "graph500".into(),
            lease: 11,
            reason: "disconnect".into(),
        });
        let mut buf = Vec::new();
        encode_record(3, &event, &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_record(&buf[..cut]).is_err(), "cut at {cut} decoded");
        }
    }
}
