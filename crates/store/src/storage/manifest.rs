//! The manifest: the small CRC'd file whose rename commits a compaction.
//!
//! ```text
//! [8-byte magic "PROVMAN1"][u32 body_len][u32 crc32(body)][body]
//! body: u64 seq, u32 run count, per run (u64 id, base, end, u64 len)
//! ```
//!
//! `seq` is the commit sequence number the runs cover (the WAL of the same
//! generation replays from `seq + 1`). Runs are listed in decode order: the
//! first begins at the zero watermark and each later one where the one
//! before it ends, which the decoder checks. `len` is the run file's length.
//! A manifest is written whole to a temp file, synced and renamed, so a
//! damaged one is corruption, never a torn write.

use super::codec::{crc32, put_len, put_u32, put_u64, Reader};
use super::column::Watermark;
use crate::error::StoreResult;

const MAGIC: &[u8; 8] = b"PROVMAN1";
/// Magic + body length + body CRC.
const HEADER_BYTES: usize = 16;

/// Runs a manifest may list before a compaction merges a pair: past it, the
/// compaction that adds a run also merges the adjacent pair with the
/// smallest combined length, so recovery opens at most this many runs and
/// no compaction merges more than once.
pub const MAX_RUNS: usize = 8;

/// One listed run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunEntry {
    /// File id: the run lives in `run-{id}`.
    pub id: u64,
    /// Where the run begins.
    pub base: Watermark,
    /// Where it ends.
    pub end: Watermark,
    /// File length in bytes.
    pub len: u64,
}

/// The decoded manifest.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Manifest {
    /// Commit sequence number the runs cover.
    pub seq: u64,
    /// The runs, in decode order.
    pub runs: Vec<RunEntry>,
}

impl Manifest {
    /// Where the last run ends: the base of the next one.
    pub fn end(&self) -> Watermark {
        self.runs.last().map_or(Watermark::default(), |r| r.end)
    }

    /// The pair `(i, i + 1)` the merge rule picks once the list holds more
    /// than [`MAX_RUNS`] runs: the adjacent pair with the smallest combined
    /// length, the oldest on a tie.
    pub fn merge_candidate(&self) -> Option<usize> {
        if self.runs.len() <= MAX_RUNS {
            return None;
        }
        (0..self.runs.len() - 1).min_by_key(|&i| self.runs[i].len + self.runs[i + 1].len)
    }

    /// The manifest's bytes.
    pub fn encode(&self) -> StoreResult<Vec<u8>> {
        let mut body = Vec::with_capacity(12 + self.runs.len() * 40);
        put_u64(&mut body, self.seq);
        put_len(&mut body, self.runs.len(), "manifest run count")?;
        for run in &self.runs {
            put_u64(&mut body, run.id);
            run.base.put(&mut body);
            run.end.put(&mut body);
            put_u64(&mut body, run.len);
        }
        let mut out = Vec::with_capacity(HEADER_BYTES + body.len());
        out.extend_from_slice(MAGIC);
        put_len(&mut out, body.len(), "manifest length")?;
        put_u32(&mut out, crc32(&body));
        out.extend_from_slice(&body);
        Ok(out)
    }

    /// Decode and check a manifest: magic, CRC, exact length, and runs that
    /// begin at zero and follow on from each other.
    pub fn decode(bytes: &[u8]) -> Result<Manifest, String> {
        if bytes.len() < HEADER_BYTES || &bytes[..MAGIC.len()] != MAGIC {
            return Err("not a manifest (bad magic or short header)".to_string());
        }
        let mut r = Reader::new(&bytes[MAGIC.len()..HEADER_BYTES]);
        let len = r.u32("manifest length")? as usize;
        let crc = r.u32("manifest crc")?;
        let body = &bytes[HEADER_BYTES..];
        if body.len() != len {
            return Err(format!("manifest body is {} bytes, header says {len}", body.len()));
        }
        if crc32(body) != crc {
            return Err("manifest crc mismatch".to_string());
        }
        let mut r = Reader::new(body);
        let seq = r.u64("manifest seq")?;
        let count = r.u32("manifest run count")?;
        let mut runs: Vec<RunEntry> = Vec::with_capacity(count.min(1024) as usize);
        for i in 0..count {
            let run = RunEntry {
                id: r.u64("run id")?,
                base: Watermark::read(&mut r, "run base")?,
                end: Watermark::read(&mut r, "run end")?,
                len: r.u64("run length")?,
            };
            let expect = runs.last().map_or(Watermark::default(), |prev| prev.end);
            if run.base != expect {
                return Err(format!("run {i} begins at {:?}, expected {expect:?}", run.base));
            }
            if runs.iter().any(|prev| prev.id == run.id) {
                return Err(format!("run id {} listed twice", run.id));
            }
            runs.push(run);
        }
        if !r.is_exhausted() {
            return Err(format!("{} trailing manifest bytes", r.remaining()));
        }
        Ok(Manifest { seq, runs })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mark(n: u32) -> Watermark {
        Watermark { keys: n / 4, vertices: n, edges: 2 * n }
    }

    fn manifest(lens: &[u64]) -> Manifest {
        let mut runs = Vec::new();
        let mut at = 0;
        for (i, &len) in lens.iter().enumerate() {
            runs.push(RunEntry { id: i as u64 + 1, base: mark(at), end: mark(at + 10), len });
            at += 10;
        }
        Manifest { seq: 42, runs }
    }

    #[test]
    fn manifests_round_trip_and_every_damaged_byte_is_refused() {
        let m = manifest(&[900, 80, 70]);
        let bytes = m.encode().unwrap();
        assert_eq!(Manifest::decode(&bytes).unwrap(), m);
        assert_eq!(m.end(), mark(30));
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x10;
            assert!(Manifest::decode(&bad).is_err(), "flip at byte {i} undetected");
        }
        for cut in 0..bytes.len() {
            assert!(Manifest::decode(&bytes[..cut]).is_err(), "cut at {cut} undetected");
        }
    }

    #[test]
    fn runs_that_do_not_follow_on_are_refused() {
        let mut m = manifest(&[10, 10]);
        m.runs[1].base = mark(11);
        let err = Manifest::decode(&m.encode().unwrap()).unwrap_err();
        assert!(err.contains("run 1 begins at"), "{err}");
        let mut m = manifest(&[10, 10]);
        m.runs[1].id = 1;
        assert!(Manifest::decode(&m.encode().unwrap()).unwrap_err().contains("listed twice"));
        let mut m = manifest(&[10]);
        m.runs[0].base = mark(1);
        assert!(Manifest::decode(&m.encode().unwrap()).is_err(), "the first run begins at zero");
    }

    #[test]
    fn the_merge_rule_waits_for_more_than_max_runs_then_takes_the_smallest_pair() {
        assert_eq!(manifest(&[5; MAX_RUNS]).merge_candidate(), None);
        let lens = [900, 40, 30, 50, 20, 25, 60, 70, 80];
        assert_eq!(lens.len(), MAX_RUNS + 1);
        // 20 + 25 is the smallest adjacent sum.
        assert_eq!(manifest(&lens).merge_candidate(), Some(4));
        // Ties go to the oldest pair.
        assert_eq!(manifest(&[1; MAX_RUNS + 1]).merge_candidate(), Some(0));
    }
}
