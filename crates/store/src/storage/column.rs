//! The run format: what one compaction sealed, as segmented CRC-checked
//! columns, with its eager and lazy decoders and its byte-level merge.
//!
//! ## Runs
//!
//! A compaction writes only what changed since the previous one, as an
//! immutable *run* over a *base* [`Watermark`] `(keys, vertices, edges)`:
//! the end watermark of the run before it. The column segments hold the ids
//! at or past the base, with their values as they are at compaction.
//! Property writes journaled since the previous compaction on ids *below*
//! the base cannot be carried by those columns, so they ride along as ops in
//! an overwrite segment. A full image is simply the run with base
//! `(0, 0, 0)`. The manifest (`manifest.rs`) lists the runs in order.
//!
//! ## Format (`PROVRUN1`)
//!
//! ```text
//! [8-byte magic "PROVRUN1"][u32 dir_len][u32 crc32(dir)][dir][segments...]
//! ```
//!
//! The directory holds the base and end watermarks (`3 × u32` each), a
//! `u32` segment count, then one `(u8 id, u64 offset, u32 len, u32 crc)`
//! entry per segment. Segments are laid out in id order, contiguously,
//! starting right after the directory and covering the file exactly — so a
//! range read of `[offset, offset + len)` is one column, checkable in
//! isolation against its own CRC. Every segment is a `u32` item count
//! followed by the items:
//!
//! | id | segment    | items                                                 |
//! |----|------------|-------------------------------------------------------|
//! | 0  | interner   | names of the keys with ids in `[base, end)`, in order |
//! | 1  | vertices   | kind + optional name per vertex in `[base, end)`      |
//! | 2  | edges      | kind, src, dst per edge in `[base, end)`              |
//! | 3  | vprops     | `(vertex, key id, value)` for vertices in the range   |
//! | 4  | eprops     | `(edge, key id, value)` for edges in the range        |
//! | 5  | indexes    | every declared secondary index as `(kind, key id)`    |
//! | 6  | overwrites | property ops on ids below the base, in commit order   |
//!
//! The overwrite ops (`SetVProp`, `UnsetVProp`, `SetEProp`) use the WAL's op
//! codec (`wal.rs`). The declaration list is tiny and complete in every run;
//! the last run's list wins. The whole-graph `PROVSEG1` images runs replaced
//! are refused by name.
//!
//! ## Decode
//!
//! Runs decode in manifest order onto one graph: every run's columns, then
//! every run's overwrite ops, then (in the storage engine) the WAL tail.
//! That is exact because an overwrite op only touches ids whose columns
//! were sealed before it was journaled, and ops keep their commit order
//! across runs. *Eager* mode reads and CRC-checks every segment at open —
//! any corrupted byte fails the open. *Lazy* mode
//! ([`SnapshotDecode::Lazy`]) decodes the structural segments and the
//! overwrite ops at open and attaches one [`PropLoader`] that range-reads
//! every run's two property segments through its [`ColumnSource`] on the
//! first property touch; the overwrite ops queue exactly like WAL-tail
//! property ops. The price: corruption inside a deferred segment surfaces at
//! first touch, not at open.
//!
//! ## Merge
//!
//! [`merge_runs`] joins two adjacent runs at the byte level: each
//! count-prefixed segment is the concatenation of the two (the later
//! declaration list wins, overwrite ops keep their order), so a merge costs
//! one copy plus the CRCs, never a decode. A merged run's overwrite ops may
//! touch its own ids; the decode order above keeps that exact.
//!
//! Runs are written atomically (temp file + rename), so a damaged run is
//! never a torn write — decode failures are corruption
//! ([`crate::StoreError::CorruptLog`] upstream), not something to truncate.
//!
//! This module (not the storage engine) owns every read of run bytes:
//! backends that can serve real range reads do ([`super::StdIo`] keeps an
//! open descriptor, [`super::MemIo`] slices in place), and the buffered
//! fallback below is the one full-file run read outside the backends — the
//! `snapshot-slurp` entries of the root `clippy.toml` keep it that way.

use super::codec::{
    crc32, crc32_combine, len_u32, patch_u32, put_len, put_prop_value, put_str, put_tag, put_u32,
    put_u64, put_u8, Reader,
};
use super::io::{ColumnSource, Io, IoResult};
use super::manifest::RunEntry;
use super::{run_file_name, wal, SnapshotDecode};
use crate::error::StoreResult;
use crate::graph::{rank_u32, LoadedColumns, PropLoader, ProvGraph, WalOp};
use prov_model::{EdgeId, EdgeKind, PropKeyId, PropMap, PropValue, VertexId, VertexKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"PROVRUN1";
/// The whole-graph image format runs replaced; recognized only to refuse it.
const RETIRED_MAGIC: &[u8; 8] = b"PROVSEG1";
/// Magic + directory length + directory CRC.
const HEADER_BYTES: usize = 16;
/// One watermark: keys, vertices, edges.
const WATERMARK_BYTES: usize = 12;
/// Bytes per directory entry: id + offset + len + crc.
const DIR_ENTRY_BYTES: usize = 1 + 8 + 4 + 4;
/// Base + end watermarks, segment count, entries.
const DIR_BYTES: usize = 2 * WATERMARK_BYTES + 4 + DIR_ENTRY_BYTES * SEG_COUNT;

const SEG_INTERNER: usize = 0;
const SEG_VERTICES: usize = 1;
const SEG_EDGES: usize = 2;
const SEG_VPROPS: usize = 3;
const SEG_EPROPS: usize = 4;
const SEG_INDEXES: usize = 5;
const SEG_OVERWRITES: usize = 6;
const SEG_COUNT: usize = 7;
const SEG_NAMES: [&str; SEG_COUNT] =
    ["interner", "vertices", "edges", "vprops", "eprops", "indexes", "overwrites"];

/// A position in the append-only key, vertex and edge logs — where a run
/// begins or ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Watermark {
    /// Interned property keys.
    pub keys: u32,
    /// Vertices.
    pub vertices: u32,
    /// Edges.
    pub edges: u32,
}

impl Watermark {
    /// The end of everything `graph` holds.
    pub fn of(graph: &ProvGraph) -> Watermark {
        Watermark {
            keys: rank_u32(graph.interner().len()),
            vertices: rank_u32(graph.vertex_count()),
            edges: rank_u32(graph.edge_count()),
        }
    }

    pub(crate) fn put(self, out: &mut Vec<u8>) {
        put_u32(out, self.keys);
        put_u32(out, self.vertices);
        put_u32(out, self.edges);
    }

    pub(crate) fn read(r: &mut Reader<'_>, what: &str) -> Result<Watermark, String> {
        Ok(Watermark { keys: r.u32(what)?, vertices: r.u32(what)?, edges: r.u32(what)? })
    }

    /// True when no component of `self` lies past `other`'s.
    fn within(self, other: Watermark) -> bool {
        self.keys <= other.keys && self.vertices <= other.vertices && self.edges <= other.edges
    }
}

/// The next run's overwrite segment, kept as the engine commits: every
/// property op whose target id lies below the run's base, encoded with the
/// WAL op codec, in commit order.
#[derive(Debug, Default)]
pub struct Overwrites {
    count: usize,
    bytes: Vec<u8>,
}

impl Overwrites {
    /// Keep `op` when it writes a property of a vertex or edge below `base`
    /// — a write the next run's columns cannot carry. Keeps nothing on
    /// error.
    pub fn keep_if_below(&mut self, op: &WalOp, base: Watermark) -> StoreResult<()> {
        let below = match op {
            WalOp::SetVProp { v, .. } | WalOp::UnsetVProp { v, .. } => v.raw() < base.vertices,
            WalOp::SetEProp { e, .. } => e.raw() < base.edges,
            _ => false,
        };
        if below {
            let start = self.bytes.len();
            if let Err(e) = wal::put_op(&mut self.bytes, op) {
                self.bytes.truncate(start);
                return Err(e);
            }
            self.count += 1;
        }
        Ok(())
    }

    /// Forget every kept op (a run now carries them).
    pub fn clear(&mut self) {
        self.count = 0;
        self.bytes.clear();
    }
}

/// One directory entry: where a segment lives and what it must hash to.
#[derive(Debug, Clone, Copy, Default)]
pub struct Segment {
    /// Absolute byte offset of the segment payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// The decoded run directory.
#[derive(Debug, Clone)]
pub struct Directory {
    /// Where the run begins: the end of the run before it.
    pub base: Watermark,
    /// Where the run ends.
    pub end: Watermark,
    /// Per-segment entries, indexed by segment id (3 = vprops, 4 = eprops).
    pub segments: [Segment; SEG_COUNT],
}

/// Counters for the lazy-decode machinery, shared between the storage
/// engine (which reports them) and the deferred loader (which bumps them).
#[derive(Debug, Default)]
pub struct LazyStats {
    /// Property segments whose decode was deferred at open.
    pub segments_deferred: AtomicU64,
    /// Bytes of deferred (not read at open) segment payload.
    pub deferred_bytes: AtomicU64,
    /// Deferred segments loaded on first touch.
    pub segment_loads: AtomicU64,
    /// Bytes range-read by first-touch loads.
    pub bytes_loaded: AtomicU64,
}

// ---------------------------------------------------------------------
// Encode
// ---------------------------------------------------------------------

/// Builds one run image in one buffer: each segment is written in place
/// behind a count placeholder, and the directory is back-patched last.
struct RunWriter {
    out: Vec<u8>,
    base: Watermark,
    end: Watermark,
    segments: [Segment; SEG_COUNT],
    next: usize,
}

impl RunWriter {
    fn new(base: Watermark, end: Watermark, capacity: usize) -> RunWriter {
        let mut out = Vec::with_capacity(HEADER_BYTES + DIR_BYTES + capacity);
        out.extend_from_slice(MAGIC);
        out.resize(HEADER_BYTES + DIR_BYTES, 0);
        RunWriter { out, base, end, segments: [Segment::default(); SEG_COUNT], next: 0 }
    }

    /// Append the next segment: a count placeholder, the items `items`
    /// writes (it returns how many), then the count patched in.
    fn segment(
        &mut self,
        items: impl FnOnce(&mut Vec<u8>) -> StoreResult<usize>,
    ) -> StoreResult<()> {
        let start = self.out.len();
        put_u32(&mut self.out, 0);
        let count = len_u32(items(&mut self.out)?, SEG_NAMES[self.next])?;
        patch_u32(&mut self.out, start, count);
        let crc = crc32(&self.out[start..]);
        self.record(start, crc)
    }

    /// Append the next segment as `count` followed by copies of `parts`,
    /// each given with the CRC of its bytes: the segment's CRC is combined
    /// from those, never recomputed, so damage in a copied part stays
    /// detectable.
    fn copied_segment(&mut self, count: usize, parts: &[(&[u8], u32)]) -> StoreResult<()> {
        let start = self.out.len();
        let count = len_u32(count, SEG_NAMES[self.next])?;
        put_u32(&mut self.out, count);
        let mut crc = crc32(&count.to_le_bytes());
        for &(bytes, bytes_crc) in parts {
            self.out.extend_from_slice(bytes);
            crc = crc32_combine(crc, bytes_crc, bytes.len() as u64);
        }
        self.record(start, crc)
    }

    fn record(&mut self, start: usize, crc: u32) -> StoreResult<()> {
        let len = len_u32(self.out.len() - start, "run segment length")?;
        self.segments[self.next] = Segment { offset: start as u64, len, crc };
        self.next += 1;
        Ok(())
    }

    fn finish(mut self) -> StoreResult<Vec<u8>> {
        debug_assert_eq!(self.next, SEG_COUNT, "every segment written");
        let mut dir = Vec::with_capacity(DIR_BYTES);
        self.base.put(&mut dir);
        self.end.put(&mut dir);
        put_len(&mut dir, SEG_COUNT, "segment count")?;
        for (id, seg) in self.segments.iter().enumerate() {
            put_tag(&mut dir, id);
            put_u64(&mut dir, seg.offset);
            put_u32(&mut dir, seg.len);
            put_u32(&mut dir, seg.crc);
        }
        debug_assert_eq!(dir.len(), DIR_BYTES);
        patch_u32(&mut self.out, MAGIC.len(), len_u32(DIR_BYTES, "run directory length")?);
        patch_u32(&mut self.out, MAGIC.len() + 4, crc32(&dir));
        self.out[HEADER_BYTES..HEADER_BYTES + DIR_BYTES].copy_from_slice(&dir);
        Ok(self.out)
    }
}

/// Encode the run sealing `graph` from `base` to its current end, carrying
/// `overwrites` (the property ops on ids below `base` journaled since the
/// run before). Returns the image and its end watermark. Reads properties
/// through the graph's *effective* accessors, so a still-lazy graph
/// materializes its overlay first. Fails, writing nothing, when a count or
/// length does not fit the format ([`put_len`]).
pub fn encode_run(
    graph: &ProvGraph,
    base: Watermark,
    overwrites: &Overwrites,
) -> StoreResult<(Vec<u8>, Watermark)> {
    let end = Watermark::of(graph);
    let vertices = || (base.vertices..end.vertices).map(VertexId::new);
    let edges = || (base.edges..end.edges).map(EdgeId::new);
    let delta = (end.vertices - base.vertices) as usize + (end.edges - base.edges) as usize;
    let mut w = RunWriter::new(base, end, 48 * delta + overwrites.bytes.len());
    w.segment(|out| {
        let mut n = 0;
        for (_, name) in graph.interner().iter().skip(base.keys as usize) {
            put_str(out, name)?;
            n += 1;
        }
        Ok(n)
    })?;
    w.segment(|out| {
        for v in vertices() {
            let rec = graph.vertex(v);
            put_tag(out, rec.kind.as_index());
            match &rec.name {
                Some(n) => {
                    put_u8(out, 1);
                    put_str(out, n)?;
                }
                None => put_u8(out, 0),
            }
        }
        Ok(vertices().len())
    })?;
    w.segment(|out| {
        for e in edges() {
            let rec = graph.edge(e);
            put_tag(out, rec.kind.as_index());
            put_u32(out, rec.src.raw());
            put_u32(out, rec.dst.raw());
        }
        Ok(edges().len())
    })?;
    w.segment(|out| vertices().map(|v| put_props(out, v.raw(), graph.vertex_props(v))).sum())?;
    w.segment(|out| edges().map(|e| put_props(out, e.raw(), graph.edge_props(e))).sum())?;
    w.segment(|out| {
        let declared = graph.declared_vprop_indexes();
        for (kind, key) in &declared {
            put_tag(out, kind.as_index());
            put_u32(out, key.raw());
        }
        Ok(declared.len())
    })?;
    w.segment(|out| {
        out.extend_from_slice(&overwrites.bytes);
        Ok(overwrites.count)
    })?;
    Ok((w.finish()?, end))
}

/// Append `owner`'s properties as `(owner, key id, value)` items; returns
/// how many.
fn put_props(out: &mut Vec<u8>, owner: u32, props: &PropMap) -> StoreResult<usize> {
    for (k, value) in props.iter() {
        put_u32(out, owner);
        put_u32(out, k.raw());
        put_prop_value(out, value)?;
    }
    Ok(props.len())
}

// ---------------------------------------------------------------------
// Directory + segment reads
// ---------------------------------------------------------------------

fn range(
    source: &dyn ColumnSource,
    offset: u64,
    len: usize,
    what: &str,
) -> Result<Vec<u8>, String> {
    source.read_range(offset, len).map_err(|e| format!("{what}: {e}"))
}

/// Read and verify a run directory through `source`.
pub fn read_directory(source: &dyn ColumnSource) -> Result<Directory, String> {
    let total = source.len();
    if total < HEADER_BYTES as u64 {
        return Err(format!("run too short ({total} bytes)"));
    }
    let header = range(source, 0, HEADER_BYTES, "run header")?;
    if &header[..MAGIC.len()] == RETIRED_MAGIC {
        return Err("a PROVSEG1 whole-graph image: that format is no longer read \
                    (compactions write PROVRUN1 runs listed by a manifest)"
            .to_string());
    }
    if &header[..MAGIC.len()] != MAGIC {
        return Err("bad run magic".to_string());
    }
    let mut r = Reader::new(&header[MAGIC.len()..]);
    let dir_len = r.u32("directory length")? as usize;
    let dir_crc = r.u32("directory crc")?;
    if total < (HEADER_BYTES + dir_len) as u64 {
        return Err(format!("run directory truncated ({total} bytes, directory {dir_len})"));
    }
    let dir = range(source, HEADER_BYTES as u64, dir_len, "run directory")?;
    if crc32(&dir) != dir_crc {
        return Err("run directory crc mismatch".to_string());
    }
    let mut r = Reader::new(&dir);
    let base = Watermark::read(&mut r, "run base")?;
    let end = Watermark::read(&mut r, "run end")?;
    if !base.within(end) {
        return Err(format!("run ends at {end:?}, before its base {base:?}"));
    }
    let count = r.u32("segment count")?;
    if count as usize != SEG_COUNT {
        return Err(format!("run has {count} segments, expected {SEG_COUNT}"));
    }
    let mut segments = [Segment::default(); SEG_COUNT];
    let mut expect = (HEADER_BYTES + dir_len) as u64;
    for (id, slot) in segments.iter_mut().enumerate() {
        let got = r.u8("segment id")?;
        if got as usize != id {
            return Err(format!("segment {id} misfiled as id {got}"));
        }
        let offset = r.u64("segment offset")?;
        if offset != expect {
            return Err(format!("segment {id} at offset {offset}, expected {expect}"));
        }
        let len = r.u32("segment length")?;
        let crc = r.u32("segment crc")?;
        expect += len as u64;
        *slot = Segment { offset, len, crc };
    }
    if !r.is_exhausted() {
        return Err(format!("{} trailing directory bytes", r.remaining()));
    }
    if expect != total {
        return Err(format!("segments cover {expect} bytes of a {total}-byte run"));
    }
    Ok(Directory { base, end, segments })
}

/// Read one segment's payload and verify its CRC.
fn read_segment(source: &dyn ColumnSource, dir: &Directory, id: usize) -> Result<Vec<u8>, String> {
    let seg = dir.segments[id];
    let what = SEG_NAMES[id];
    let bytes = range(source, seg.offset, seg.len as usize, what)?;
    if crc32(&bytes) != seg.crc {
        return Err(format!("{what} segment crc mismatch"));
    }
    Ok(bytes)
}

/// A segment payload as its item count and a reader over the items.
fn items<'a>(bytes: &'a [u8], id: usize) -> Result<(u32, Reader<'a>), String> {
    let mut r = Reader::new(bytes);
    let count = r.u32(SEG_NAMES[id])?;
    Ok((count, r))
}

fn exhausted(r: &Reader<'_>, id: usize) -> Result<(), String> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(format!("{} trailing bytes in {} segment", r.remaining(), SEG_NAMES[id]))
    }
}

/// A segment's item count must match the ids its directory says it covers.
fn expect_count(count: u32, from: u32, to: u32, id: usize) -> Result<(), String> {
    if count == to - from {
        Ok(())
    } else {
        Err(format!("{} segment holds {count} items for ids {from}..{to}", SEG_NAMES[id]))
    }
}

// ---------------------------------------------------------------------
// Segment decoders
// ---------------------------------------------------------------------

/// Append one run's structural segments (interner, vertices, edges) onto
/// `g`, replaying through the ordinary mutators so every derived structure
/// matches a live build, and return its index declarations. `g` and
/// `key_names` must end exactly at the run's base.
fn decode_structure(
    g: &mut ProvGraph,
    key_names: &mut Vec<Arc<str>>,
    source: &dyn ColumnSource,
    dir: &Directory,
) -> Result<Vec<(VertexKind, Arc<str>)>, String> {
    let at = Watermark::of(g);
    if at != dir.base {
        return Err(format!("run begins at {:?} but the runs before it end at {at:?}", dir.base));
    }
    // Interner, in id order, so key ids referenced by other segments resolve
    // and replayed interning matches the encoded graph exactly.
    let bytes = read_segment(source, dir, SEG_INTERNER)?;
    let (count, mut r) = items(&bytes, SEG_INTERNER)?;
    expect_count(count, dir.base.keys, dir.end.keys, SEG_INTERNER)?;
    for i in dir.base.keys..dir.end.keys {
        let name = r.str("key name")?;
        let id = g.key(&name);
        if id.raw() != i {
            return Err(format!("key {name:?} interned as {id:?}, expected id {i}"));
        }
        key_names.push(name);
    }
    exhausted(&r, SEG_INTERNER)?;
    let bytes = read_segment(source, dir, SEG_VERTICES)?;
    let (count, mut r) = items(&bytes, SEG_VERTICES)?;
    expect_count(count, dir.base.vertices, dir.end.vertices, SEG_VERTICES)?;
    for i in dir.base.vertices..dir.end.vertices {
        let kind_raw = r.u8("vertex kind")?;
        let kind = VertexKind::from_index(kind_raw as usize)
            .ok_or_else(|| format!("vertex {i}: unknown kind {kind_raw}"))?;
        let name = match r.u8("vertex name flag")? {
            0 => None,
            1 => Some(r.str("vertex name")?),
            f => return Err(format!("vertex {i}: bad name flag {f}")),
        };
        g.add_vertex(kind, name.as_deref()).map_err(|e| format!("vertex {i}: {e}"))?;
    }
    exhausted(&r, SEG_VERTICES)?;
    let bytes = read_segment(source, dir, SEG_EDGES)?;
    let (count, mut r) = items(&bytes, SEG_EDGES)?;
    expect_count(count, dir.base.edges, dir.end.edges, SEG_EDGES)?;
    for i in dir.base.edges..dir.end.edges {
        let kind_raw = r.u8("edge kind")?;
        let kind = EdgeKind::from_index(kind_raw as usize)
            .ok_or_else(|| format!("edge {i}: unknown kind {kind_raw}"))?;
        let src = VertexId::new(r.u32("edge src")?);
        let dst = VertexId::new(r.u32("edge dst")?);
        g.add_edge(kind, src, dst).map_err(|e| format!("edge {i}: {e}"))?;
    }
    exhausted(&r, SEG_EDGES)?;
    // Declared indexes (tiny — always decoded; the *backfill* is what lazy
    // mode defers).
    let bytes = read_segment(source, dir, SEG_INDEXES)?;
    let (count, mut r) = items(&bytes, SEG_INDEXES)?;
    let mut declared = Vec::with_capacity(count.min(1024) as usize);
    for i in 0..count {
        let kind_raw = r.u8("index kind")?;
        let kind = VertexKind::from_index(kind_raw as usize)
            .ok_or_else(|| format!("index {i}: unknown kind {kind_raw}"))?;
        let key = r.u32("index key")?;
        let name = key_names
            .get(key as usize)
            .ok_or_else(|| format!("index {i} names unknown key {key}"))?;
        declared.push((kind, name.clone()));
    }
    exhausted(&r, SEG_INDEXES)?;
    Ok(declared)
}

/// Decode a property segment: `(id, key, value)` triples whose id lies in
/// `[from, to)` and whose key was interned by this run or an earlier one.
fn decode_props<Id>(
    bytes: &[u8],
    id: usize,
    (from, to): (u32, u32),
    key_count: u32,
    owner_id: impl Fn(u32) -> Id,
) -> Result<Vec<(Id, PropKeyId, PropValue)>, String> {
    let (count, mut r) = items(bytes, id)?;
    let what = SEG_NAMES[id];
    let mut out = Vec::with_capacity(count.min(1 << 16) as usize);
    for i in 0..count {
        let owner = r.u32(what)?;
        if !(from..to).contains(&owner) {
            return Err(format!("{what} item {i} names id {owner} outside the run ({from}..{to})"));
        }
        let k = r.u32(what)?;
        if k >= key_count {
            return Err(format!("{what} item {i} names unknown key {k}"));
        }
        out.push((owner_id(owner), PropKeyId::new(k), r.prop_value(what)?));
    }
    exhausted(&r, id)?;
    Ok(out)
}

fn decode_vprops(
    bytes: &[u8],
    dir: &Directory,
) -> Result<Vec<(VertexId, PropKeyId, PropValue)>, String> {
    let range = (dir.base.vertices, dir.end.vertices);
    decode_props(bytes, SEG_VPROPS, range, dir.end.keys, VertexId::new)
}

fn decode_eprops(
    bytes: &[u8],
    dir: &Directory,
) -> Result<Vec<(EdgeId, PropKeyId, PropValue)>, String> {
    let range = (dir.base.edges, dir.end.edges);
    decode_props(bytes, SEG_EPROPS, range, dir.end.keys, EdgeId::new)
}

/// Decode the overwrite ops: property ops only, each on an id the run (or
/// one before it) sealed.
fn decode_overwrites(bytes: &[u8], dir: &Directory) -> Result<Vec<WalOp>, String> {
    let (count, mut r) = items(bytes, SEG_OVERWRITES)?;
    let mut ops = Vec::with_capacity(count.min(1 << 16) as usize);
    for i in 0..count {
        let op = wal::read_op(&mut r).map_err(|e| format!("overwrite {i}: {e}"))?;
        let sealed = match &op {
            WalOp::SetVProp { v, .. } | WalOp::UnsetVProp { v, .. } => v.raw() < dir.end.vertices,
            WalOp::SetEProp { e, .. } => e.raw() < dir.end.edges,
            other => return Err(format!("overwrite {i} is not a property op: {other:?}")),
        };
        if !sealed {
            return Err(format!("overwrite {i} targets an id past the run's end: {op:?}"));
        }
        ops.push(op);
    }
    exhausted(&r, SEG_OVERWRITES)?;
    Ok(ops)
}

// ---------------------------------------------------------------------
// Decode entry point
// ---------------------------------------------------------------------

/// [`ColumnSource`] over a borrowed byte slice.
#[derive(Debug)]
struct SliceSource<'a>(&'a [u8]);

impl ColumnSource for SliceSource<'_> {
    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_range(&self, offset: u64, len: usize) -> IoResult<Vec<u8>> {
        super::io::slice_range(self.0, "run", offset, len)
    }
}

/// One run's property segments, left on disk by a lazy open.
#[derive(Debug)]
struct DeferredRun {
    source: Arc<dyn ColumnSource>,
    dir: Directory,
}

/// The deferred property-column loader a lazily-decoded graph carries: on
/// first touch it range-reads every run's two property segments through the
/// run's column source, CRC-checks them, and decodes the triples.
#[derive(Debug)]
struct DeferredLoader {
    runs: Vec<DeferredRun>,
    stats: Arc<LazyStats>,
}

impl PropLoader for DeferredLoader {
    fn load(&self) -> Result<LoadedColumns, String> {
        let mut cols = LoadedColumns::default();
        for run in &self.runs {
            let vbytes = read_segment(run.source.as_ref(), &run.dir, SEG_VPROPS)?;
            let ebytes = read_segment(run.source.as_ref(), &run.dir, SEG_EPROPS)?;
            self.stats.segment_loads.fetch_add(2, Ordering::Relaxed);
            self.stats
                .bytes_loaded
                .fetch_add(vbytes.len() as u64 + ebytes.len() as u64, Ordering::Relaxed);
            cols.vprops.extend(decode_vprops(&vbytes, &run.dir)?);
            cols.eprops.extend(decode_eprops(&ebytes, &run.dir)?);
        }
        Ok(cols)
    }
}

/// Open run `entry` on `io`, checking it is the length the manifest says.
fn open_run(io: &dyn Io, entry: &RunEntry) -> Result<Box<dyn ColumnSource>, String> {
    let name = run_file_name(entry.id);
    let source = source_for(io, &name)
        .map_err(|e| format!("{name}: {e}"))?
        .ok_or_else(|| format!("{name} is listed but missing"))?;
    if source.len() != entry.len {
        return Err(format!("{name} is {} bytes, listed as {}", source.len(), entry.len));
    }
    Ok(source)
}

/// The whole of run `entry`, read once.
fn read_run(io: &dyn Io, entry: &RunEntry) -> Result<Vec<u8>, String> {
    let source = open_run(io, entry)?;
    let len = usize::try_from(entry.len)
        .map_err(|_| format!("{} larger than the address space", run_file_name(entry.id)))?;
    range(source.as_ref(), 0, len, &run_file_name(entry.id))
}

/// Read run `entry`'s directory and check it covers what the manifest says.
fn entry_directory(source: &dyn ColumnSource, entry: &RunEntry) -> Result<Directory, String> {
    let dir = read_directory(source)?;
    if (dir.base, dir.end) != (entry.base, entry.end) {
        return Err(format!(
            "covers {:?}..{:?}, listed as {:?}..{:?}",
            dir.base, dir.end, entry.base, entry.end
        ));
    }
    Ok(dir)
}

/// Decode the manifest's runs, in order, onto one graph under the policy's
/// decode mode (see the module docs for the order and why it is exact).
pub fn recover_runs(
    io: &dyn Io,
    runs: &[RunEntry],
    mode: SnapshotDecode,
    stats: &Arc<LazyStats>,
) -> Result<ProvGraph, String> {
    let mut g = ProvGraph::new();
    let mut key_names = Vec::new();
    let mut declared = Vec::new();
    let mut overwrites = Vec::new();
    let mut deferred = Vec::new();
    for entry in runs {
        let name = run_file_name(entry.id);
        let in_run = |e: String| format!("{name}: {e}");
        let source: Arc<dyn ColumnSource> = match mode {
            // One read per run; every segment is then sliced from memory.
            SnapshotDecode::Eager => {
                let bytes = read_run(io, entry)?;
                Arc::new(BufferedColumnSource { name: name.clone(), bytes })
            }
            SnapshotDecode::Lazy => Arc::from(open_run(io, entry)?),
        };
        let dir = entry_directory(source.as_ref(), entry).map_err(in_run)?;
        declared =
            decode_structure(&mut g, &mut key_names, source.as_ref(), &dir).map_err(in_run)?;
        let bytes = read_segment(source.as_ref(), &dir, SEG_OVERWRITES).map_err(in_run)?;
        overwrites.extend(decode_overwrites(&bytes, &dir).map_err(in_run)?);
        match mode {
            SnapshotDecode::Eager => {
                let vbytes = read_segment(source.as_ref(), &dir, SEG_VPROPS).map_err(in_run)?;
                for (v, k, value) in decode_vprops(&vbytes, &dir).map_err(in_run)? {
                    g.set_vprop(v, &key_names[k.index()], value);
                }
                let ebytes = read_segment(source.as_ref(), &dir, SEG_EPROPS).map_err(in_run)?;
                for (e, k, value) in decode_eprops(&ebytes, &dir).map_err(in_run)? {
                    g.set_eprop(e, &key_names[k.index()], value);
                }
            }
            SnapshotDecode::Lazy => {
                let segs = [dir.segments[SEG_VPROPS], dir.segments[SEG_EPROPS]];
                stats.segments_deferred.fetch_add(2, Ordering::Relaxed);
                stats
                    .deferred_bytes
                    .fetch_add(segs.iter().map(|s| u64::from(s.len)).sum(), Ordering::Relaxed);
                deferred.push(DeferredRun { source, dir });
            }
        }
    }
    if mode == SnapshotDecode::Lazy {
        // From here on property ops (the overwrites below, then the WAL
        // tail's) queue for the first touch.
        let loader = DeferredLoader { runs: deferred, stats: Arc::clone(stats) };
        g.attach_lazy_props(Box::new(loader), std::mem::take(&mut declared));
    }
    for op in &overwrites {
        if let WalOp::SetVProp { key, .. } | WalOp::SetEProp { key, .. } = op {
            if g.key_id(key).is_none() {
                return Err(format!("overwrite {op:?} names a key no run interned"));
            }
        }
        g.apply_wal_op(op).map_err(|e| format!("overwrite {op:?} does not replay: {e}"))?;
    }
    // Eager declarations backfill from the final property state.
    for (kind, key) in &declared {
        g.create_vprop_index(*kind, key);
    }
    Ok(g)
}

// ---------------------------------------------------------------------
// Merge
// ---------------------------------------------------------------------

/// Split segment `id` of run image `bytes` into its item count, its item
/// bytes (borrowed) and their CRC — derived from the stored segment CRC, not
/// from the bytes, so a damaged item byte keeps failing its check.
fn segment_items<'a>(
    bytes: &'a [u8],
    dir: &Directory,
    id: usize,
) -> Result<(u32, &'a [u8], u32), String> {
    let seg = dir.segments[id];
    #[expect(
        clippy::cast_possible_truncation,
        reason = "read_directory proved the segments tile the in-memory image exactly"
    )]
    let payload = &bytes[seg.offset as usize..seg.offset as usize + seg.len as usize];
    let (count, _) = items(payload, id)?;
    let (prefix, item_bytes) = payload.split_at(4);
    Ok((count, item_bytes, crc32_combine(crc32(prefix), seg.crc, item_bytes.len() as u64)))
}

/// Merge adjacent runs `a` and `b` (`b` begins where `a` ends) into one
/// image covering both, at the byte level: every count-prefixed segment is
/// the two concatenated, except the declaration list, where `b`'s wins. One
/// copy and no CRC pass: each segment's CRC is combined from the inputs'
/// stored ones, so a damaged input byte is carried into the merged run
/// still failing its check, never re-sealed under a fresh CRC.
pub fn merge_runs(io: &dyn Io, a: &RunEntry, b: &RunEntry) -> Result<Vec<u8>, String> {
    let (a_bytes, b_bytes) = (read_run(io, a)?, read_run(io, b)?);
    let a_dir = entry_directory(&SliceSource(&a_bytes), a)
        .map_err(|e| format!("{}: {e}", run_file_name(a.id)))?;
    let b_dir = entry_directory(&SliceSource(&b_bytes), b)
        .map_err(|e| format!("{}: {e}", run_file_name(b.id)))?;
    if a_dir.end != b_dir.base {
        return Err(format!("runs are not adjacent: {:?} then {:?}", a_dir.end, b_dir.base));
    }
    let mut w = RunWriter::new(a_dir.base, b_dir.end, a_bytes.len() + b_bytes.len());
    for id in 0..SEG_COUNT {
        let (a_count, a_items, a_crc) = segment_items(&a_bytes, &a_dir, id)?;
        let (b_count, b_items, b_crc) = segment_items(&b_bytes, &b_dir, id)?;
        let copied = if id == SEG_INDEXES {
            w.copied_segment(b_count as usize, &[(b_items, b_crc)])
        } else {
            let count = a_count as usize + b_count as usize;
            w.copied_segment(count, &[(a_items, a_crc), (b_items, b_crc)])
        };
        copied.map_err(|e| e.to_string())?;
    }
    w.finish().map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// Sources
// ---------------------------------------------------------------------

/// [`ColumnSource`] buffering a whole file read once — through [`Io::read`]
/// for backends without native range reads (notably the fault-injection
/// wrapper, whose corruption must keep flowing through its `read` path), and
/// for eager decode, which reads each run once. This is the only full-file
/// run read outside the backends themselves.
#[derive(Debug)]
struct BufferedColumnSource {
    name: String,
    bytes: Vec<u8>,
}

impl ColumnSource for BufferedColumnSource {
    fn len(&self) -> u64 {
        self.bytes.len() as u64
    }

    fn read_range(&self, offset: u64, len: usize) -> IoResult<Vec<u8>> {
        super::io::slice_range(&self.bytes, &self.name, offset, len)
    }
}

/// A column source for `name` on `io`: the backend's native one when
/// available, otherwise a buffered whole-file fallback. `None` when the file
/// does not exist.
#[expect(
    clippy::disallowed_methods,
    reason = "the buffered fallback for a backend with no native column source"
)]
fn source_for(io: &dyn Io, name: &str) -> IoResult<Option<Box<dyn ColumnSource>>> {
    if let Some(source) = io.column_source(name)? {
        return Ok(Some(source));
    }
    match io.read(name)? {
        Some(bytes) => Ok(Some(Box::new(BufferedColumnSource { name: name.to_string(), bytes }))),
        None => Ok(None),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::MemIo;

    fn rich_graph() -> ProvGraph {
        let mut g = ProvGraph::new();
        g.set_journaling(true);
        let data = g.add_entity("data-v1");
        let alice = g.add_agent("alice");
        let train = g.add_activity("train");
        let weights = g.add_vertex(VertexKind::Entity, None).unwrap();
        g.add_edge(EdgeKind::Used, train, data).unwrap();
        g.add_edge(EdgeKind::WasGeneratedBy, weights, train).unwrap();
        g.add_edge(EdgeKind::WasAssociatedWith, train, alice).unwrap();
        g.set_vprop(data, "filename", "data");
        g.set_vprop(data, "version", 1i64);
        g.set_vprop(weights, "acc", 0.75);
        g.set_vprop(weights, "keep", true);
        g.set_eprop(EdgeId::new(0), "role", "input");
        g.create_vprop_index(VertexKind::Entity, "filename");
        g.key("interned-but-unused");
        g
    }

    /// Grow `g` past its first run: new vertices, edges and keys, plus
    /// property writes on ids the first run sealed.
    fn second_phase(g: &mut ProvGraph) {
        let data = VertexId::new(0);
        let eval = g.add_activity("eval");
        let report = g.add_entity("report");
        g.add_edge(EdgeKind::Used, eval, data).unwrap();
        let gen = g.add_edge(EdgeKind::WasGeneratedBy, report, eval).unwrap();
        g.set_vprop(report, "pass", true);
        g.set_eprop(gen, "role", "output");
        g.set_vprop(data, "filename", "data2"); // overwrite, indexed key
        g.set_vprop(data, "fresh-key", 7i64); // overwrite, new key
        g.unset_vprop(data, "version"); // overwrite by removal
        g.set_eprop(EdgeId::new(0), "role", "input2"); // overwrite on an edge
        g.create_vprop_index(VertexKind::Entity, "pass");
    }

    /// Seals a journaling graph into runs the way the storage engine does.
    #[derive(Default)]
    struct Sealer {
        base: Watermark,
        overwrites: Overwrites,
        runs: Vec<(Vec<u8>, RunEntry)>,
    }

    impl Sealer {
        fn seal(&mut self, g: &mut ProvGraph) {
            for op in g.take_journal() {
                self.overwrites.keep_if_below(&op, self.base).unwrap();
            }
            let (image, end) = encode_run(g, self.base, &self.overwrites).unwrap();
            let id = self.runs.len() as u64 + 1;
            let entry = RunEntry { id, base: self.base, end, len: image.len() as u64 };
            self.runs.push((image, entry));
            self.base = end;
            self.overwrites.clear();
        }

        fn disk(&self) -> (MemIo, Vec<RunEntry>) {
            let disk = MemIo::new();
            for (image, entry) in &self.runs {
                disk.set_file(&run_file_name(entry.id), image.clone());
            }
            (disk, self.runs.iter().map(|(_, e)| *e).collect())
        }
    }

    fn two_runs() -> (ProvGraph, Sealer) {
        let mut g = rich_graph();
        let mut sealer = Sealer::default();
        sealer.seal(&mut g);
        second_phase(&mut g);
        sealer.seal(&mut g);
        (g, sealer)
    }

    fn open(
        disk: &MemIo,
        runs: &[RunEntry],
        mode: SnapshotDecode,
    ) -> Result<(ProvGraph, Arc<LazyStats>), String> {
        let stats = Arc::new(LazyStats::default());
        Ok((recover_runs(disk, runs, mode, &stats)?, stats))
    }

    fn eager(disk: &MemIo, runs: &[RunEntry]) -> Result<ProvGraph, String> {
        open(disk, runs, SnapshotDecode::Eager).map(|(g, _)| g)
    }

    fn loads(stats: &LazyStats) -> u64 {
        stats.segment_loads.load(Ordering::Relaxed)
    }

    #[test]
    fn a_full_run_round_trips_exactly() {
        let mut g = rich_graph();
        let mut sealer = Sealer::default();
        sealer.seal(&mut g);
        let (disk, runs) = sealer.disk();
        assert_eq!(runs[0].base, Watermark::default(), "a full image is the run from zero");
        let decoded = eager(&disk, &runs).unwrap();
        assert_eq!(decoded, g);
        decoded.validate().unwrap();
        // Exactness includes interner ids and declared indexes.
        assert_eq!(decoded.key_id("interned-but-unused"), g.key_id("interned-but-unused"));
        assert_eq!(decoded.declared_vprop_indexes(), g.declared_vprop_indexes());
        assert_eq!(
            decoded.find_by_prop(VertexKind::Entity, "filename", &PropValue::from("data")),
            g.find_by_prop(VertexKind::Entity, "filename", &PropValue::from("data")),
        );
    }

    #[test]
    fn an_empty_graph_and_an_empty_delta_round_trip() {
        let mut g = ProvGraph::new();
        g.set_journaling(true);
        let mut sealer = Sealer::default();
        sealer.seal(&mut g);
        let mut g = rich_graph();
        let mut sealer2 = Sealer::default();
        sealer2.seal(&mut g);
        sealer2.seal(&mut g); // nothing changed: an empty run
        for (s, g) in [(&sealer, ProvGraph::new()), (&sealer2, g)] {
            let (disk, runs) = s.disk();
            assert_eq!(eager(&disk, &runs).unwrap(), g);
        }
    }

    #[test]
    fn a_delta_run_holds_only_new_ids_and_old_ids_ride_as_overwrites() {
        let (g, sealer) = two_runs();
        let (disk, runs) = sealer.disk();
        let dir = read_directory(&SliceSource(&sealer.runs[1].0)).unwrap();
        assert_eq!((dir.base, dir.end), (runs[0].end, Watermark::of(&g)));
        let ow = read_segment(&SliceSource(&sealer.runs[1].0), &dir, SEG_OVERWRITES).unwrap();
        let ops = decode_overwrites(&ow, &dir).unwrap();
        assert_eq!(ops.len(), 4, "{ops:?}");
        assert_eq!(eager(&disk, &runs).unwrap(), g);
        // Decoding only the first run yields the graph as it was sealed.
        let mut first = rich_graph();
        first.take_journal();
        assert_eq!(eager(&disk, &runs[..1]).unwrap(), first);
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let (_, sealer) = two_runs();
        let (disk, runs) = sealer.disk();
        // Flip one bit in every byte of the delta run: magic, directory and
        // segment corruption must all surface as decode errors, never as a
        // silently different graph. Then truncate it at every length.
        let name = run_file_name(runs[1].id);
        let image = &sealer.runs[1].0;
        for i in 0..image.len() {
            let mut bad = image.clone();
            bad[i] ^= 0x40;
            disk.set_file(&name, bad);
            if let Ok(g) = eager(&disk, &runs) {
                panic!("flipping byte {i} went undetected ({} vertices)", g.vertex_count());
            }
        }
        for cut in 0..image.len() {
            disk.set_file(&name, image[..cut].to_vec());
            let mut listed = runs.clone();
            listed[1].len = cut as u64;
            assert!(eager(&disk, &listed).is_err(), "truncation at {cut} undetected");
        }
    }

    #[test]
    fn runs_out_of_order_or_mislisted_are_refused() {
        let (_, sealer) = two_runs();
        let (disk, runs) = sealer.disk();
        let err = eager(&disk, &[runs[1]]).unwrap_err();
        assert!(err.contains("run begins at"), "{err}");
        let mut wrong_len = runs.clone();
        wrong_len[0].len += 1;
        assert!(eager(&disk, &wrong_len).unwrap_err().contains("bytes, listed as"));
        let err = read_directory(&SliceSource(b"NOTARUNxxxxxxxxyyyy")).unwrap_err();
        assert!(err.contains("magic"), "{err}");
        let err = read_directory(&SliceSource(b"PROVSEG1xxxxxxxxyyyy")).unwrap_err();
        assert!(err.contains("PROVSEG1"), "{err}");
        assert!(read_directory(&SliceSource(b"PROVRUN1")).unwrap_err().contains("too short"));
    }

    #[test]
    fn directory_describes_contiguous_crc_checked_segments() {
        let (_, sealer) = two_runs();
        let image = &sealer.runs[1].0;
        let dir = read_directory(&SliceSource(image)).unwrap();
        let mut expect = (HEADER_BYTES + DIR_BYTES) as u64;
        for seg in &dir.segments {
            assert_eq!(seg.offset, expect);
            expect += u64::from(seg.len);
        }
        assert_eq!(expect, image.len() as u64, "segments cover the file exactly");
    }

    #[test]
    fn merging_adjacent_runs_decodes_to_the_same_graph() {
        let (mut g, mut sealer) = two_runs();
        let mut third = g.clone();
        third.add_entity("late");
        third.set_vprop(VertexId::new(5), "pass", false); // an id run 2 sealed
        g = third;
        sealer.seal(&mut g);
        let (disk, runs) = sealer.disk();
        assert_eq!(eager(&disk, &runs).unwrap(), g);
        for i in 0..2 {
            let (a, b) = (runs[i], runs[i + 1]);
            let merged = merge_runs(&disk, &a, &b).unwrap();
            let dir = read_directory(&SliceSource(&merged)).unwrap();
            assert_eq!((dir.base, dir.end), (a.base, b.end));
            assert!(merged.len() as u64 <= a.len + b.len - (HEADER_BYTES + DIR_BYTES) as u64);
            let m = RunEntry { id: 9, base: a.base, end: b.end, len: merged.len() as u64 };
            disk.set_file(&run_file_name(9), merged);
            let mut listed = runs.clone();
            listed.splice(i..=i + 1, [m]);
            for mode in [SnapshotDecode::Eager, SnapshotDecode::Lazy] {
                assert_eq!(open(&disk, &listed, mode).unwrap().0, g, "merge {i}, {mode:?}");
            }
        }
        // Not adjacent: refused.
        assert!(merge_runs(&disk, &runs[0], &runs[2]).unwrap_err().contains("not adjacent"));
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the offset is read_directory's, bounds-proven against the in-memory image"
    )]
    fn damage_in_a_merged_input_survives_into_the_merged_run_and_is_caught() {
        let (_, sealer) = two_runs();
        let (disk, runs) = sealer.disk();
        let name = run_file_name(runs[0].id);
        let mut bad = disk.file(&name).unwrap();
        let dir = read_directory(&SliceSource(&bad)).unwrap();
        bad[dir.segments[SEG_VPROPS].offset as usize + 5] ^= 0x01;
        disk.set_file(&name, bad);
        let merged = merge_runs(&disk, &runs[0], &runs[1]).unwrap();
        let m = RunEntry { id: 9, base: runs[0].base, end: runs[1].end, len: merged.len() as u64 };
        disk.set_file(&run_file_name(9), merged);
        let err = eager(&disk, &[m]).unwrap_err();
        assert!(err.contains("vprops segment crc mismatch"), "{err}");
    }

    #[test]
    fn lazy_equals_eager_and_defers_every_runs_property_segments() {
        let (g, sealer) = two_runs();
        let (disk, runs) = sealer.disk();
        let eager = eager(&disk, &runs).unwrap();
        let (lazy, stats) = open(&disk, &runs, SnapshotDecode::Lazy).unwrap();
        assert!(lazy.deferred_props_untouched());
        assert_eq!(stats.segments_deferred.load(Ordering::Relaxed), 2 * runs.len() as u64);
        // Structural queries do not materialize.
        assert_eq!(lazy.vertex_count(), eager.vertex_count());
        assert_eq!(lazy.vertex_by_name("alice"), eager.vertex_by_name("alice"));
        assert_eq!(lazy.declared_vprop_indexes(), eager.declared_vprop_indexes());
        assert!(lazy.has_vprop_index(VertexKind::Entity, "pass"));
        assert_eq!(loads(&stats), 0);
        assert!(lazy.deferred_props_untouched());
        // First property touch loads every run's deferred segments.
        assert_eq!(lazy, eager);
        assert_eq!(lazy, g);
        assert_eq!(loads(&stats), 2 * runs.len() as u64);
        assert_eq!(
            stats.bytes_loaded.load(Ordering::Relaxed),
            stats.deferred_bytes.load(Ordering::Relaxed)
        );
        lazy.validate().unwrap();
    }

    #[test]
    fn lazy_replays_wal_tail_prop_ops_at_materialization() {
        let (_, sealer) = two_runs();
        let (disk, runs) = sealer.disk();
        let (mut lazy, _) = open(&disk, &runs, SnapshotDecode::Lazy).unwrap();
        let mut eager = eager(&disk, &runs).unwrap();
        let ops = [
            WalOp::AddVertex { kind: VertexKind::Entity, name: Some("late".into()) },
            WalOp::SetVProp { v: VertexId::new(3), key: "acc".into(), value: 0.9.into() },
            WalOp::SetVProp { v: VertexId::new(0), key: "newest".into(), value: 1i64.into() },
            WalOp::UnsetVProp { v: VertexId::new(0), key: "filename".into() },
            WalOp::SetEProp { e: EdgeId::new(1), key: "role".into(), value: "output".into() },
            WalOp::CreateVPropIndex { kind: VertexKind::Entity, key: "acc".into() },
        ];
        for op in &ops {
            lazy.apply_wal_op(op).unwrap();
            eager.apply_wal_op(op).unwrap();
        }
        assert!(lazy.deferred_props_untouched(), "prop replay queues, never touches");
        assert_eq!(lazy.key_id("newest"), eager.key_id("newest"));
        assert_eq!(lazy, eager);
        assert_eq!(
            lazy.find_by_prop(VertexKind::Entity, "acc", &PropValue::from(0.9)),
            eager.find_by_prop(VertexKind::Entity, "acc", &PropValue::from(0.9)),
        );
        // Replay of impossible ops is the same typed error as eager.
        let bad = WalOp::SetVProp { v: VertexId::new(99), key: "x".into(), value: 1i64.into() };
        let (mut lazy2, _) = open(&disk, &runs, SnapshotDecode::Lazy).unwrap();
        assert!(lazy2.apply_wal_op(&bad).is_err());
    }

    #[test]
    fn mutation_dissolves_the_overlay_into_the_records() {
        let (_, sealer) = two_runs();
        let (disk, runs) = sealer.disk();
        let (mut lazy, _) = open(&disk, &runs, SnapshotDecode::Lazy).unwrap();
        lazy.set_vprop(VertexId::new(0), "filename", "data3");
        assert!(!lazy.has_deferred_props(), "first write dissolves the overlay");
        let mut eager = eager(&disk, &runs).unwrap();
        eager.set_vprop(VertexId::new(0), "filename", "data3");
        assert_eq!(lazy, eager);
        lazy.validate().unwrap();
        assert_eq!(
            lazy.find_by_prop(VertexKind::Entity, "filename", &PropValue::from("data3")),
            eager.find_by_prop(VertexKind::Entity, "filename", &PropValue::from("data3")),
        );
    }

    #[test]
    #[expect(
        clippy::cast_possible_truncation,
        reason = "the offset is read_directory's, bounds-proven against the in-memory image"
    )]
    fn corrupt_deferred_segment_panics_at_first_touch_not_open() {
        let (_, sealer) = two_runs();
        let (disk, runs) = sealer.disk();
        let name = run_file_name(runs[1].id);
        let mut bytes = disk.file(&name).unwrap();
        let dir = read_directory(&SliceSource(&bytes)).unwrap();
        bytes[dir.segments[SEG_EPROPS].offset as usize + 4] ^= 0xff;
        disk.set_file(&name, bytes);
        // Eager: fails the open.
        assert!(eager(&disk, &runs).is_err());
        // Lazy: opens fine (structural segments are intact)…
        let (lazy, _) = open(&disk, &runs, SnapshotDecode::Lazy).unwrap();
        assert!(lazy.deferred_props_untouched());
        // …but the first touch detects the corruption loudly.
        let touch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lazy.vprop(VertexId::new(0), "filename").cloned()
        }));
        assert!(touch.is_err(), "corrupt deferred segment must not decode silently");
    }

    #[test]
    fn clones_share_one_materialization() {
        let (_, sealer) = two_runs();
        let (disk, runs) = sealer.disk();
        let (lazy, stats) = open(&disk, &runs, SnapshotDecode::Lazy).unwrap();
        let clone = lazy.clone();
        assert_eq!(clone.vprop(VertexId::new(0), "filename"), Some(&PropValue::from("data2")));
        assert_eq!(loads(&stats), 4);
        // The original sees the clone's materialization — no second load.
        assert_eq!(lazy.vprop(VertexId::new(0), "filename"), Some(&PropValue::from("data2")));
        assert_eq!(loads(&stats), 4);
    }
}
