//! The varint codec of the `HMSN` and `HMWL` files: integers are
//! LEB128 varints, strings and lists are length-prefixed. Reading
//! never panics: a short input is [`SnapshotError::Truncated`], a
//! malformed one [`SnapshotError::Corrupt`].

use crate::SnapshotError;
use hetmem_topology::NodeId;

/// Appends `v` as a LEB128 varint.
pub(crate) fn put_u64(out: &mut Vec<u8>, mut v: u64) {
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

/// Appends `s` length-prefixed (varint byte count, then UTF-8 bytes).
pub(crate) fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u64(out, s.len() as u64);
    out.extend_from_slice(s.as_bytes());
}

/// Appends `b` as one byte (0 or 1).
pub(crate) fn put_bool(out: &mut Vec<u8>, b: bool) {
    out.push(b as u8);
}

/// Appends a `(node, bytes)` placement list, length-prefixed.
pub(crate) fn put_placement(out: &mut Vec<u8>, placement: &[(NodeId, u64)]) {
    put_u64(out, placement.len() as u64);
    for &(node, bytes) in placement {
        put_u64(out, node.0 as u64);
        put_u64(out, bytes);
    }
}

/// A bounds-checked reader over encoded bytes.
pub(crate) struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A cursor at the start of `bytes`.
    pub(crate) fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub(crate) fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Consumes exactly `len` raw bytes.
    pub(crate) fn take(&mut self, len: usize) -> Result<&'a [u8], SnapshotError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| SnapshotError::Truncated("byte run".into()))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Decodes one byte.
    pub(crate) fn byte(&mut self) -> Result<u8, SnapshotError> {
        Ok(self.take(1)?[0])
    }

    /// Decodes one LEB128 varint.
    pub(crate) fn u64(&mut self) -> Result<u64, SnapshotError> {
        let mut v = 0u64;
        let mut shift = 0u32;
        loop {
            let byte =
                *self.bytes.get(self.pos).ok_or(SnapshotError::Truncated("varint".into()))?;
            self.pos += 1;
            if shift == 63 && byte > 1 {
                return Err(SnapshotError::Corrupt("varint overflows u64".into()));
            }
            v |= ((byte & 0x7F) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    /// Decodes a varint that must fit in a `u32`.
    pub(crate) fn u32(&mut self) -> Result<u32, SnapshotError> {
        u32::try_from(self.u64()?).map_err(|_| SnapshotError::Corrupt("value overflows u32".into()))
    }

    /// Decodes one 0/1 byte; anything else is an error.
    pub(crate) fn bool(&mut self) -> Result<bool, SnapshotError> {
        match self.byte()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(SnapshotError::Corrupt(format!("bad bool byte {other}"))),
        }
    }

    /// Decodes a length-prefixed UTF-8 string.
    pub(crate) fn str(&mut self) -> Result<String, SnapshotError> {
        let len = self.u64()? as usize;
        let bytes = self.take(len)?;
        let s = std::str::from_utf8(bytes);
        s.map(str::to_string).map_err(|_| SnapshotError::Corrupt("string is not UTF-8".into()))
    }

    /// Decodes a node id (varint, `u32` range).
    pub(crate) fn node(&mut self) -> Result<NodeId, SnapshotError> {
        Ok(NodeId(self.u32()?))
    }

    /// Decodes a length-prefixed `(node, bytes)` placement list.
    pub(crate) fn placement(&mut self) -> Result<Vec<(NodeId, u64)>, SnapshotError> {
        let n = self.u64()? as usize;
        (0..n).map(|_| Ok((self.node()?, self.u64()?))).collect()
    }

    /// Succeeds only when every byte has been consumed.
    pub(crate) fn done(&self) -> Result<(), SnapshotError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(SnapshotError::Corrupt("trailing bytes after record".into()))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_boundaries_roundtrip() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u32::MAX as u64, u64::MAX - 1, u64::MAX] {
            let mut buf = Vec::new();
            put_u64(&mut buf, v);
            let mut c = Cursor::new(&buf);
            assert_eq!(c.u64().expect("decode"), v);
            c.done().expect("consumed");
        }
    }

    /// Short input is `Truncated` and malformed input `Corrupt`, by
    /// type, whatever the message says.
    #[test]
    fn errors_are_classified_by_type() {
        let mut buf = Vec::new();
        put_str(&mut buf, "hbm");
        for cut in 0..buf.len() {
            assert!(matches!(Cursor::new(&buf[..cut]).str(), Err(SnapshotError::Truncated(_))));
        }
        assert!(matches!(Cursor::new(&[0xFF, 0x82]).u64(), Err(SnapshotError::Truncated(_))));
        let overflow = [0xFF; 9].iter().copied().chain([2]).collect::<Vec<u8>>();
        assert!(matches!(Cursor::new(&overflow).u64(), Err(SnapshotError::Corrupt(_))));
        assert!(matches!(Cursor::new(&[2]).bool(), Err(SnapshotError::Corrupt(_))));
        assert!(matches!(Cursor::new(&[1, 0xC3]).str(), Err(SnapshotError::Corrupt(_))));
        let mut big = Vec::new();
        put_u64(&mut big, u32::MAX as u64 + 1);
        assert!(matches!(Cursor::new(&big).u32(), Err(SnapshotError::Corrupt(_))));
        assert!(matches!(Cursor::new(&[0, 0]).done(), Err(SnapshotError::Corrupt(_))));
    }
}
