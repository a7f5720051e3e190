//! Write-ahead-log record codec: framing, op encoding, commit markers, and
//! the recovery scan with torn-tail detection.
//!
//! ## Record format
//!
//! Every record is length-prefixed and checksummed:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! ```
//!
//! Two payload types exist, distinguished by their first byte:
//!
//! * `0x01` **ops** — `[0x01][u32 count][count × encoded WalOp]`: the
//!   mutations of one batch;
//! * `0x02` **commit** — `[0x02][u64 seq]`: the batch commit marker. `seq`
//!   increases by exactly 1 per committed batch (monotone across
//!   generations), so recovery can detect a spliced or replayed log.
//!
//! One [`encode_batch`] call frames the ops record immediately followed by
//! its commit marker straight into the engine's group buffer; the engine
//! appends the buffer in a single write and then fsyncs. A batch is durable
//! iff its commit marker survives intact. The same op codec encodes a run's
//! overwrite segment (`column.rs`).
//!
//! ## Recovery scan
//!
//! [`scan_with`] walks records from the start and hands each batch to its
//! caller as soon as the batch's commit marker validates (recovery applies
//! it there, so no decoded batch outlives its own replay); [`scan`] is the
//! collecting wrapper. A structurally invalid record (incomplete header,
//! length past end-of-file, CRC mismatch) ends the scan: everything from
//! the last intact commit marker onward is the *torn tail*, which recovery
//! truncates. A record that passes its CRC but decodes to garbage (unknown
//! tag, bad op, out-of-order commit seq) is *corruption*, not a torn write —
//! that surfaces as an error instead of silent data loss.

use super::codec::{
    crc32, len_u32, patch_u32, put_len, put_prop_value, put_str, put_tag, put_u32, put_u64, put_u8,
    Reader,
};
use crate::error::StoreResult;
use crate::graph::WalOp;
use prov_model::{EdgeId, EdgeKind, VertexId, VertexKind};

const PAYLOAD_OPS: u8 = 0x01;
const PAYLOAD_COMMIT: u8 = 0x02;

/// Byte overhead of one record frame (length + CRC words).
pub const FRAME_HEADER_BYTES: usize = 8;

pub(crate) fn put_op(out: &mut Vec<u8>, op: &WalOp) -> StoreResult<()> {
    match op {
        WalOp::AddVertex { kind, name } => {
            put_u8(out, 1);
            put_tag(out, kind.as_index());
            match name {
                Some(n) => {
                    put_u8(out, 1);
                    put_str(out, n)?;
                }
                None => put_u8(out, 0),
            }
        }
        WalOp::AddEdge { kind, src, dst } => {
            put_u8(out, 2);
            put_tag(out, kind.as_index());
            put_u32(out, src.raw());
            put_u32(out, dst.raw());
        }
        WalOp::SetVProp { v, key, value } => {
            put_u8(out, 3);
            put_u32(out, v.raw());
            put_str(out, key)?;
            put_prop_value(out, value)?;
        }
        WalOp::UnsetVProp { v, key } => {
            put_u8(out, 4);
            put_u32(out, v.raw());
            put_str(out, key)?;
        }
        WalOp::SetEProp { e, key, value } => {
            put_u8(out, 5);
            put_u32(out, e.raw());
            put_str(out, key)?;
            put_prop_value(out, value)?;
        }
        WalOp::CreateVPropIndex { kind, key } => {
            put_u8(out, 6);
            put_tag(out, kind.as_index());
            put_str(out, key)?;
        }
        WalOp::InternKey { key } => {
            put_u8(out, 7);
            put_str(out, key)?;
        }
    }
    Ok(())
}

fn vertex_kind(r: &mut Reader<'_>) -> Result<VertexKind, String> {
    let raw = r.u8("vertex kind")?;
    VertexKind::from_index(raw as usize).ok_or_else(|| format!("unknown vertex kind {raw}"))
}

fn edge_kind(r: &mut Reader<'_>) -> Result<EdgeKind, String> {
    let raw = r.u8("edge kind")?;
    EdgeKind::from_index(raw as usize).ok_or_else(|| format!("unknown edge kind {raw}"))
}

pub(crate) fn read_op(r: &mut Reader<'_>) -> Result<WalOp, String> {
    match r.u8("op tag")? {
        1 => {
            let kind = vertex_kind(r)?;
            let name = match r.u8("name flag")? {
                0 => None,
                1 => Some(r.str("vertex name")?),
                f => return Err(format!("bad name flag {f}")),
            };
            Ok(WalOp::AddVertex { kind, name })
        }
        2 => Ok(WalOp::AddEdge {
            kind: edge_kind(r)?,
            src: VertexId::new(r.u32("edge src")?),
            dst: VertexId::new(r.u32("edge dst")?),
        }),
        3 => Ok(WalOp::SetVProp {
            v: VertexId::new(r.u32("vprop vertex")?),
            key: r.str("vprop key")?,
            value: r.prop_value("vprop value")?,
        }),
        4 => Ok(WalOp::UnsetVProp {
            v: VertexId::new(r.u32("unset vertex")?),
            key: r.str("unset key")?,
        }),
        5 => Ok(WalOp::SetEProp {
            e: EdgeId::new(r.u32("eprop edge")?),
            key: r.str("eprop key")?,
            value: r.prop_value("eprop value")?,
        }),
        6 => Ok(WalOp::CreateVPropIndex { kind: vertex_kind(r)?, key: r.str("index key")? }),
        7 => Ok(WalOp::InternKey { key: r.str("intern key")? }),
        tag => Err(format!("unknown op tag {tag}")),
    }
}

/// Append one record to `out`: a header placeholder, the payload `body`
/// writes, then the header back-patched with the payload's length and CRC.
fn put_record(
    out: &mut Vec<u8>,
    body: impl FnOnce(&mut Vec<u8>) -> StoreResult<()>,
) -> StoreResult<()> {
    let header = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER_BYTES]);
    body(out)?;
    let payload = header + FRAME_HEADER_BYTES;
    let len = len_u32(out.len() - payload, "wal record payload")?;
    let crc = crc32(&out[payload..]);
    patch_u32(out, header, len);
    patch_u32(out, header + 4, crc);
    Ok(())
}

/// Append one committed batch to `out` (the engine's group buffer): its ops
/// record followed by the commit marker carrying `seq`, framed in place.
/// Fails when a length does not fit the format ([`put_len`]), leaving `out`
/// exactly as it was.
pub fn encode_batch(out: &mut Vec<u8>, ops: &[WalOp], seq: u64) -> StoreResult<()> {
    let start = out.len();
    let framed = put_record(out, |out| {
        put_u8(out, PAYLOAD_OPS);
        put_len(out, ops.len(), "wal batch op count")?;
        ops.iter().try_for_each(|op| put_op(out, op))
    })
    .and_then(|()| {
        put_record(out, |out| {
            put_u8(out, PAYLOAD_COMMIT);
            put_u64(out, seq);
            Ok(())
        })
    });
    if framed.is_err() {
        out.truncate(start);
    }
    framed
}

/// The outcome of scanning a WAL file.
#[derive(Debug, Clone, PartialEq)]
pub struct WalScan {
    /// The committed batches, in commit order ([`scan`] only: [`scan_with`]
    /// hands them to its callback instead and leaves this empty).
    pub batches: Vec<Vec<WalOp>>,
    /// Byte offset just past the last intact commit marker — the length the
    /// file must be truncated to. Everything beyond is the torn tail.
    pub committed_len: usize,
    /// Byte offset just past each intact commit marker, in order (the
    /// kill-point sweep uses these to predict which prefix must survive a
    /// crash at any offset).
    pub commit_offsets: Vec<usize>,
    /// The sequence number of the last committed batch (`first_seq - 1` when
    /// no batch is committed).
    pub last_seq: u64,
}

/// Scan a WAL file's bytes, expecting the first commit marker to carry
/// `first_seq`, and collect the committed batches.
///
/// Returns `Err` only for *corruption*: CRC-valid records that decode to
/// garbage or commit out of sequence. Structural damage (a torn write at the
/// tail) is not an error — the scan simply stops and reports the salvageable
/// committed prefix.
pub fn scan(bytes: &[u8], first_seq: u64) -> Result<WalScan, String> {
    let mut batches = Vec::new();
    let mut scan = scan_with(bytes, first_seq, |_, ops| {
        batches.push(ops);
        Ok(())
    })?;
    scan.batches = batches;
    Ok(scan)
}

/// [`scan`], handing each committed batch to `on_batch(seq, ops)` the moment
/// its commit marker validates — never before, so a batch whose marker is
/// torn or missing is never handed over. An `Err` from `on_batch` stops the
/// scan and is returned as is. Corruption found after batch `k` fails the
/// scan with batches up to `k` already handed over, so a caller that applies
/// them must discard what it applied when the scan fails. The returned
/// [`WalScan::batches`] is empty.
pub fn scan_with(
    bytes: &[u8],
    first_seq: u64,
    mut on_batch: impl FnMut(u64, Vec<WalOp>) -> Result<(), String>,
) -> Result<WalScan, String> {
    let mut scan = WalScan {
        batches: Vec::new(),
        committed_len: 0,
        commit_offsets: Vec::new(),
        last_seq: first_seq.wrapping_sub(1),
    };
    let mut pos = 0usize;
    let mut pending: Option<Vec<WalOp>> = None;
    let mut next_seq = first_seq;
    loop {
        // Structural validation: anything short or checksum-broken here is a
        // torn tail — stop scanning, keep what is committed.
        if bytes.len() - pos < FRAME_HEADER_BYTES {
            break;
        }
        let len = u32::from_le_bytes([bytes[pos], bytes[pos + 1], bytes[pos + 2], bytes[pos + 3]])
            as usize;
        let crc =
            u32::from_le_bytes([bytes[pos + 4], bytes[pos + 5], bytes[pos + 6], bytes[pos + 7]]);
        let body_start = pos + FRAME_HEADER_BYTES;
        if len == 0 || bytes.len() - body_start < len {
            break;
        }
        let payload = &bytes[body_start..body_start + len];
        if crc32(payload) != crc {
            break;
        }
        // From here on the record is intact; decode failures are corruption.
        let mut r = Reader::new(payload);
        match r.u8("payload type").map_err(|e| format!("record at {pos}: {e}"))? {
            PAYLOAD_OPS => {
                if pending.is_some() {
                    return Err(format!("record at {pos}: ops record without commit marker"));
                }
                let count = r.u32("op count").map_err(|e| format!("record at {pos}: {e}"))?;
                let mut ops = Vec::with_capacity(count as usize);
                for i in 0..count {
                    ops.push(read_op(&mut r).map_err(|e| format!("record at {pos}, op {i}: {e}"))?);
                }
                if !r.is_exhausted() {
                    return Err(format!("record at {pos}: {} trailing bytes", r.remaining()));
                }
                pending = Some(ops);
            }
            PAYLOAD_COMMIT => {
                let seq = r.u64("commit seq").map_err(|e| format!("record at {pos}: {e}"))?;
                if seq != next_seq {
                    return Err(format!("record at {pos}: commit seq {seq}, expected {next_seq}"));
                }
                let Some(ops) = pending.take() else {
                    return Err(format!("record at {pos}: commit marker without ops record"));
                };
                on_batch(seq, ops)?;
                scan.last_seq = seq;
                next_seq += 1;
                scan.committed_len = body_start + len;
                scan.commit_offsets.push(scan.committed_len);
            }
            other => return Err(format!("record at {pos}: unknown payload type {other}")),
        }
        pos = body_start + len;
    }
    Ok(scan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_model::PropValue;
    use std::sync::Arc;

    fn batch(ops: &[WalOp], seq: u64) -> StoreResult<Vec<u8>> {
        let mut out = Vec::new();
        encode_batch(&mut out, ops, seq)?;
        Ok(out)
    }

    fn sample_ops() -> Vec<WalOp> {
        vec![
            WalOp::AddVertex { kind: VertexKind::Entity, name: Some(Arc::from("data-v1")) },
            WalOp::AddVertex { kind: VertexKind::Activity, name: None },
            WalOp::AddEdge { kind: EdgeKind::Used, src: VertexId::new(1), dst: VertexId::new(0) },
            WalOp::SetVProp {
                v: VertexId::new(0),
                key: Arc::from("acc"),
                value: PropValue::from(0.75),
            },
            WalOp::UnsetVProp { v: VertexId::new(0), key: Arc::from("acc") },
            WalOp::SetEProp {
                e: EdgeId::new(0),
                key: Arc::from("role"),
                value: PropValue::from("input"),
            },
            WalOp::CreateVPropIndex { kind: VertexKind::Entity, key: Arc::from("filename") },
            WalOp::InternKey { key: Arc::from("spare") },
        ]
    }

    #[test]
    fn every_op_round_trips_through_a_batch() {
        let ops = sample_ops();
        let bytes = batch(&ops, 1).unwrap();
        let scan = scan(&bytes, 1).unwrap();
        assert_eq!(scan.batches, vec![ops]);
        assert_eq!(scan.committed_len, bytes.len());
        assert_eq!(scan.commit_offsets, vec![bytes.len()]);
        assert_eq!(scan.last_seq, 1);
    }

    #[test]
    fn torn_tail_at_every_offset_yields_a_committed_prefix() {
        let mut bytes = Vec::new();
        let mut boundaries = vec![0usize];
        for seq in 1..=3u64 {
            let ops = vec![WalOp::AddVertex {
                kind: VertexKind::Entity,
                name: Some(Arc::from(format!("v{seq}").as_str())),
            }];
            bytes.extend_from_slice(&batch(&ops, seq).unwrap());
            boundaries.push(bytes.len());
        }
        for cut in 0..=bytes.len() {
            let scan = scan(&bytes[..cut], 1).unwrap();
            // The committed prefix is the largest batch boundary at or below
            // the cut — never a partial batch, never a later one.
            let expect = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(scan.batches.len(), expect, "cut at {cut}");
            assert_eq!(scan.committed_len, boundaries[expect], "cut at {cut}");
        }
    }

    #[test]
    fn bit_flips_are_never_silently_committed() {
        let ops = sample_ops();
        let bytes = batch(&ops, 1).unwrap();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            // Either the scan refuses the record (CRC broken → torn tail,
            // nothing committed), or a CRC-colliding frame decodes
            // inconsistently and errors as corruption. (With a single
            // flipped bit CRC32 always catches it; Err guards multi-bit
            // damage.)
            if let Ok(s) = scan(&flipped, 1) {
                assert_eq!(s.batches.len(), 0, "bit {bit} silently committed");
            }
        }
    }

    #[test]
    fn commit_seq_splices_are_corruption() {
        let a = batch(&[WalOp::InternKey { key: Arc::from("k") }], 1).unwrap();
        let b = batch(&[WalOp::InternKey { key: Arc::from("k") }], 3).unwrap();
        let mut spliced = a.clone();
        spliced.extend_from_slice(&b);
        let err = scan(&spliced, 1).unwrap_err();
        assert!(err.contains("commit seq 3, expected 2"), "{err}");
        // A log that starts at the wrong seq is caught the same way.
        assert!(scan(&a, 5).unwrap_err().contains("expected 5"));
    }

    #[test]
    fn orphan_records_are_corruption() {
        // Ops record followed by another ops record (commit lost but a later
        // intact record follows — cannot be a torn tail).
        let full = batch(&[WalOp::InternKey { key: Arc::from("k") }], 1).unwrap();
        let ops_only = &full[..full.len() - (FRAME_HEADER_BYTES + 9)];
        let mut doubled = ops_only.to_vec();
        doubled.extend_from_slice(ops_only);
        assert!(scan(&doubled, 1).unwrap_err().contains("without commit marker"));
        // Commit marker with no ops record before it.
        let commit_only = &full[ops_only.len()..];
        assert!(scan(commit_only, 1).unwrap_err().contains("without ops record"));
    }

    #[test]
    fn scan_with_hands_over_each_batch_at_its_commit_marker() {
        let mut bytes = Vec::new();
        for seq in 4..=6u64 {
            let key = Arc::from(format!("k{seq}").as_str());
            bytes.extend_from_slice(&batch(&[WalOp::InternKey { key }], seq).unwrap());
        }
        let collected = scan(&bytes, 4).unwrap();
        let mut seen = Vec::new();
        let streamed = scan_with(&bytes, 4, |seq, ops| {
            seen.push((seq, ops));
            Ok(())
        })
        .unwrap();
        assert!(streamed.batches.is_empty());
        assert_eq!(WalScan { batches: collected.batches.clone(), ..streamed }, collected);
        let seqs: Vec<u64> = seen.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, vec![4, 5, 6]);
        assert_eq!(seen.into_iter().map(|(_, ops)| ops).collect::<Vec<_>>(), collected.batches);

        // A batch whose commit marker is torn off is never handed over.
        let torn = &bytes[..bytes.len() - 1];
        let mut handed = 0;
        scan_with(torn, 4, |_, _| {
            handed += 1;
            Ok(())
        })
        .unwrap();
        assert_eq!(handed, 2);

        // The callback's error stops the scan.
        let mut handed = 0;
        let err = scan_with(&bytes, 4, |seq, _| {
            handed += 1;
            if seq == 5 {
                Err("refused".into())
            } else {
                Ok(())
            }
        })
        .unwrap_err();
        assert_eq!((err.as_str(), handed), ("refused", 2));
    }

    #[test]
    fn empty_batches_and_empty_logs_scan_cleanly() {
        let scan0 = scan(&[], 1).unwrap();
        assert!(scan0.batches.is_empty());
        assert_eq!(scan0.committed_len, 0);
        assert_eq!(scan0.last_seq, 0);
        let bytes = batch(&[], 7).unwrap();
        let s = scan(&bytes, 7).unwrap();
        assert_eq!(s.batches, vec![Vec::new()]);
        assert_eq!(s.last_seq, 7);
    }
}
