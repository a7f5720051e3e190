//! Little-endian binary primitives shared by the WAL record codec and the
//! columnar snapshot codec.
//!
//! The vendored serde shim is JSON-only, so durable bytes use a small
//! hand-rolled format: fixed-width little-endian integers, length-prefixed
//! UTF-8 strings, tagged [`PropValue`]s, and IEEE CRC-32 for integrity.
//! Decoding returns `Err(String)` describing the first malformed field; the
//! storage layer maps that to torn-tail truncation or
//! [`crate::StoreError::CorruptLog`] depending on where it happens.

use crate::error::{StoreError, StoreResult};
use prov_model::PropValue;
use std::sync::Arc;

/// IEEE CRC-32 lookup table, built at compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i as usize] = c;
        i += 1;
    }
    table
};

/// IEEE CRC-32 of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xffff_ffffu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// Append a `u8`.
pub fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Append a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Append an enum discriminant (`VertexKind`/`EdgeKind::as_index`, a segment
/// id) as the format's one-byte tag.
pub fn put_tag(out: &mut Vec<u8>, index: usize) {
    put_u8(out, u8::try_from(index).expect("format tags are enum discriminants below 256"));
}

/// Append a length or count (`what`) as the format's little-endian `u32`,
/// refusing one that does not fit. A truncated length would be framed under
/// a valid CRC and decode as a different, well-formed image, so the encoders
/// fail loudly instead: nothing is appended and the caller's commit or
/// compaction reports the error.
pub fn put_len(out: &mut Vec<u8>, n: usize, what: &str) -> StoreResult<()> {
    let fits = u32::try_from(n).map_err(|_| {
        StoreError::StorageUnavailable(format!(
            "{what} of {n} does not fit the durable format's u32 length field"
        ))
    })?;
    put_u32(out, fits);
    Ok(())
}

/// Append a length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) -> StoreResult<()> {
    put_len(out, s.len(), "string length")?;
    out.extend_from_slice(s.as_bytes());
    Ok(())
}

/// Append a tagged [`PropValue`].
pub fn put_prop_value(out: &mut Vec<u8>, v: &PropValue) -> StoreResult<()> {
    match v {
        PropValue::Str(s) => {
            put_u8(out, 0);
            put_str(out, s)?;
        }
        PropValue::Int(i) => {
            put_u8(out, 1);
            put_u64(out, *i as u64);
        }
        PropValue::Float(f) => {
            put_u8(out, 2);
            put_u64(out, f.to_bits());
        }
        PropValue::Bool(b) => {
            put_u8(out, 3);
            put_u8(out, u8::from(*b));
        }
    }
    Ok(())
}

/// A bounds-checked cursor over an encoded byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True once every byte is consumed.
    pub fn is_exhausted(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated {what}: need {n} bytes, {} remain at offset {}",
                self.remaining(),
                self.pos
            ));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read a `u8`.
    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<Arc<str>, String> {
        let len = self.u32(what)? as usize;
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map(Arc::from)
            .map_err(|e| format!("invalid UTF-8 in {what}: {e}"))
    }

    /// Read a tagged [`PropValue`].
    pub fn prop_value(&mut self, what: &str) -> Result<PropValue, String> {
        match self.u8(what)? {
            0 => Ok(PropValue::Str(self.str(what)?)),
            1 => Ok(PropValue::Int(self.u64(what)? as i64)),
            2 => Ok(PropValue::Float(f64::from_bits(self.u64(what)?))),
            3 => Ok(PropValue::Bool(self.u8(what)? != 0)),
            tag => Err(format!("unknown value tag {tag} in {what}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn scalars_round_trip() {
        let mut out = Vec::new();
        put_u8(&mut out, 7);
        put_u32(&mut out, 0xdead_beef);
        put_u64(&mut out, u64::MAX - 1);
        put_str(&mut out, "weights-v1").unwrap();
        let mut r = Reader::new(&out);
        assert_eq!(r.u8("a").unwrap(), 7);
        assert_eq!(r.u32("b").unwrap(), 0xdead_beef);
        assert_eq!(r.u64("c").unwrap(), u64::MAX - 1);
        assert_eq!(&*r.str("d").unwrap(), "weights-v1");
        assert!(r.is_exhausted());
    }

    #[test]
    fn prop_values_round_trip_including_nan() {
        let values = [
            PropValue::from("vgg16"),
            PropValue::from(-42i64),
            PropValue::from(0.75),
            PropValue::Float(f64::NAN),
            PropValue::from(true),
        ];
        let mut out = Vec::new();
        for v in &values {
            put_prop_value(&mut out, v).unwrap();
        }
        let mut r = Reader::new(&out);
        for v in &values {
            // PropValue equality is bitwise for floats, so NaN round-trips.
            assert_eq!(&r.prop_value("v").unwrap(), v);
        }
        assert!(r.is_exhausted());
    }

    #[test]
    fn a_length_past_u32_is_rejected_not_truncated() {
        let mut out = vec![0xaa];
        put_len(&mut out, u32::MAX as usize, "count").unwrap();
        assert_eq!(out, [0xaa, 0xff, 0xff, 0xff, 0xff]);
        // One more would wrap to 0 under `as u32` and frame a valid, wrong
        // image; the checked encoder refuses and appends nothing.
        for n in [u32::MAX as usize + 1, usize::MAX] {
            let err = put_len(&mut out, n, "wal record payload").unwrap_err();
            assert!(
                matches!(&err, StoreError::StorageUnavailable(m) if m.contains("wal record payload")),
                "{err}"
            );
            assert_eq!(out.len(), 5, "a refused length must not leave partial bytes");
        }
    }

    #[test]
    fn truncation_and_bad_tags_name_the_field() {
        let mut r = Reader::new(&[1, 2]);
        let err = r.u32("watermark").unwrap_err();
        assert!(err.contains("truncated watermark"), "{err}");
        let mut r = Reader::new(&[9]);
        let err = r.prop_value("acc").unwrap_err();
        assert!(err.contains("unknown value tag 9"), "{err}");
        // A string length pointing past the buffer is truncation, not UB.
        let mut bad = Vec::new();
        put_u32(&mut bad, 100);
        bad.push(b'x');
        assert!(Reader::new(&bad).str("name").is_err());
    }
}
