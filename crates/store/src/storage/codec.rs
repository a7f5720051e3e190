//! Little-endian binary primitives shared by the WAL record codec and the
//! columnar run codec.
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

/// IEEE CRC-32 slicing-by-16 tables, built at compile time: `CRC_TABLES[0]`
/// is the classic bytewise table, and `CRC_TABLES[k][b]` is the CRC state
/// after byte `b` is followed by `k` zero bytes.
const CRC_TABLES: [[u32; 256]; 16] = {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0u32;
    while i < 256 {
        let mut c = i;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 { 0xedb8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        tables[0][i as usize] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
};

/// IEEE CRC-32 of `bytes`, sixteen bytes per step (slicing-by-16): the same
/// values as the bytewise definition, so nothing on disk depends on it.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut c = 0xffff_ffffu32;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let x = c ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        c = t[15][(x & 0xff) as usize]
            ^ t[14][((x >> 8) & 0xff) as usize]
            ^ t[13][((x >> 16) & 0xff) as usize]
            ^ t[12][(x >> 24) as usize]
            ^ t[11][usize::from(b[4])]
            ^ t[10][usize::from(b[5])]
            ^ t[9][usize::from(b[6])]
            ^ t[8][usize::from(b[7])]
            ^ t[7][usize::from(b[8])]
            ^ t[6][usize::from(b[9])]
            ^ t[5][usize::from(b[10])]
            ^ t[4][usize::from(b[11])]
            ^ t[3][usize::from(b[12])]
            ^ t[2][usize::from(b[13])]
            ^ t[1][usize::from(b[14])]
            ^ t[0][usize::from(b[15])];
    }
    for &b in blocks.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    c ^ 0xffff_ffff
}

/// `a · b` modulo the CRC-32 polynomial, in the reflected bit order the
/// tables use (bit 31 is `x^0`).
const fn mul_mod_poly(a: u32, mut b: u32) -> u32 {
    let mut product = 0;
    let mut bit = 1u32 << 31;
    while bit != 0 {
        if a & bit != 0 {
            product ^= b;
        }
        bit >>= 1;
        b = if b & 1 != 0 { (b >> 1) ^ 0xedb8_8320 } else { b >> 1 };
    }
    product
}

/// `x^(2^k)` modulo the polynomial, `k = 0..32`.
const X_POW_2K: [u32; 32] = {
    let mut table = [0u32; 32];
    let mut p = 1u32 << 30; // x^1
    let mut k = 0;
    while k < 32 {
        table[k] = p;
        p = mul_mod_poly(p, p);
        k += 1;
    }
    table
};

/// IEEE CRC-32 of `a ++ b` from `crc32(a)`, `crc32(b)` and `b.len()`,
/// without a pass over the bytes. XOR-symmetric in the two CRCs, so it also
/// recovers `crc32(b)` from `crc32(a)` and `crc32(a ++ b)`.
pub fn crc32_combine(crc_a: u32, crc_b: u32, len_b: u64) -> u32 {
    // Shift crc_a past len_b zero bytes: multiply by x^(8 · len_b).
    let mut shift = 1u32 << 31; // x^0
    let mut n = len_b;
    let mut k = 3; // one byte is x^(2^3)
    while n != 0 {
        if n & 1 != 0 {
            shift = mul_mod_poly(X_POW_2K[k & 31], shift);
        }
        n >>= 1;
        k += 1;
    }
    mul_mod_poly(shift, crc_a) ^ crc_b
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
    put_u32(out, len_u32(n, what)?);
    Ok(())
}

/// A length or count (`what`) as the format's `u32`, refused when it does
/// not fit — [`put_len`] for fields written before their value is known and
/// back-patched with [`patch_u32`].
pub fn len_u32(n: usize, what: &str) -> StoreResult<u32> {
    u32::try_from(n).map_err(|_| {
        StoreError::StorageUnavailable(format!(
            "{what} of {n} does not fit the durable format's u32 length field"
        ))
    })
}

/// Overwrite the little-endian `u32` at `out[at..at + 4]`.
pub fn patch_u32(out: &mut [u8], at: usize, v: u32) {
    out[at..at + 4].copy_from_slice(&v.to_le_bytes());
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

    /// The bytewise definition the sliced loop must reproduce.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = 0xffff_ffffu32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
        }
        c ^ 0xffff_ffff
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_oracle() {
        // A deterministic byte pattern with no 16-byte period.
        let bytes: Vec<u8> = (0u32..(1 << 20) + 37)
            .map(|i| i.wrapping_mul(2_654_435_761).to_le_bytes()[2])
            .collect();
        // Every length through four blocks, at every alignment within one.
        for start in 0..16 {
            for len in 0..=64 {
                let s = &bytes[start..start + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "start {start}, len {len}");
            }
        }
        // And a megabyte, unaligned.
        let big = &bytes[3..];
        assert_eq!(crc32(big), crc32_bytewise(big));
    }

    #[test]
    fn combined_crcs_equal_the_crc_of_the_concatenation() {
        let bytes: Vec<u8> =
            (0u32..5000).map(|i| i.wrapping_mul(40_503).to_le_bytes()[1]).collect();
        for (split, end) in [(0, 0), (0, 7), (7, 7), (1, 2), (4, 4000), (1000, 1001), (17, 5000)] {
            let (a, b) = (&bytes[..split], &bytes[split..end]);
            let whole = crc32(&bytes[..end]);
            let len_b = b.len() as u64;
            assert_eq!(crc32_combine(crc32(a), crc32(b), len_b), whole, "{split}..{end}");
            // And back: the suffix's CRC from the whole and the prefix.
            assert_eq!(crc32_combine(crc32(a), whole, len_b), crc32(b), "{split}..{end}");
        }
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
