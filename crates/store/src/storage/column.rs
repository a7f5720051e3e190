//! The segmented columnar snapshot format and its lazy decoder.
//!
//! ## Format (`PROVSEG1`)
//!
//! ```text
//! [8-byte magic "PROVSEG1"][u32 dir_len][u32 crc32(dir)][dir][segments...]
//! ```
//!
//! The directory holds `u64 seq` (commit sequence the image covers), a `u32`
//! segment count, then one `(u8 id, u64 offset, u32 len, u32 crc)` entry per
//! segment. Segments are laid out in id order, contiguously, starting right
//! after the directory and covering the file exactly — so a range read of
//! `[offset, offset + len)` is one column, checkable in isolation against
//! its own CRC.
//!
//! | id | segment  | contents                                            |
//! |----|----------|-----------------------------------------------------|
//! | 0  | interner | key names in id order                               |
//! | 1  | vertices | kind + optional name per vertex (births implicit)   |
//! | 2  | edges    | kind, src, dst per edge                             |
//! | 3  | vprops   | `(vertex, key id, value)` triples                   |
//! | 4  | eprops   | `(edge, key id, value)` triples                     |
//! | 5  | indexes  | declared secondary indexes as `(kind, key id)`      |
//!
//! ## Decode modes
//!
//! *Eager* ([`decode_eager`]) reads and CRC-checks every segment at open —
//! any corrupted byte fails the open, exactly like the old monolithic
//! format. *Lazy* ([`recover_snapshot`] with [`SnapshotDecode::Lazy`])
//! decodes only the structural segments (interner, vertices, edges, index
//! declarations) and attaches a [`PropLoader`] that range-reads the property
//! segments through a [`ColumnSource`] on the first property touch — cold
//! start is O(structural columns), and a graph whose property columns dwarf
//! RAM opens without materializing them. The price: corruption inside a
//! deferred segment surfaces at first touch, not at open.
//!
//! A snapshot is written atomically (temp file + rename), so a damaged image
//! is never a torn write — decode failures are corruption
//! ([`crate::StoreError::CorruptLog`] upstream), not something to truncate.
//!
//! This module (not the storage engine) owns every read of snapshot bytes:
//! backends that can serve real range reads do ([`super::StdIo`] keeps an
//! open descriptor, [`super::MemIo`] slices in place), and the buffered
//! fallback below is the one full-file snapshot read outside the backends —
//! the `snapshot-slurp` lint rule in `prov-check` keeps it that way.

use super::codec::{
    crc32, put_len, put_prop_value, put_str, put_tag, put_u32, put_u64, put_u8, Reader,
};
use super::io::{ColumnSource, Io, IoResult};
use super::SnapshotDecode;
use crate::error::StoreResult;
use crate::graph::{rank_u32, LoadedColumns, PropLoader, ProvGraph};
use prov_model::{EdgeId, EdgeKind, PropKeyId, PropValue, VertexId, VertexKind};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

const MAGIC: &[u8; 8] = b"PROVSEG1";
/// Magic + directory length + directory CRC.
const HEADER_BYTES: usize = 16;
/// Bytes per directory entry: id + offset + len + crc.
const DIR_ENTRY_BYTES: usize = 1 + 8 + 4 + 4;

const SEG_INTERNER: usize = 0;
const SEG_VERTICES: usize = 1;
const SEG_EDGES: usize = 2;
const SEG_VPROPS: usize = 3;
const SEG_EPROPS: usize = 4;
const SEG_INDEXES: usize = 5;
const SEG_COUNT: usize = 6;
const SEG_NAMES: [&str; SEG_COUNT] =
    ["interner", "vertices", "edges", "vprops", "eprops", "indexes"];

/// One directory entry: where a segment lives and what it must hash to.
#[derive(Debug, Clone, Copy)]
pub struct Segment {
    /// Absolute byte offset of the segment payload.
    pub offset: u64,
    /// Payload length in bytes.
    pub len: u32,
    /// CRC-32 of the payload.
    pub crc: u32,
}

/// The decoded snapshot directory.
#[derive(Debug, Clone)]
pub struct Directory {
    /// Commit sequence number the image covers.
    pub seq: u64,
    /// Per-segment entries, indexed by segment id.
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

/// Encode `graph` (whose durable state ends at commit `seq`) as a segmented
/// snapshot image. Reads properties through the graph's *effective*
/// accessors, so encoding a still-lazy graph materializes its overlay first.
/// Fails, writing nothing, when a count or length does not fit the format
/// ([`put_len`]).
pub fn encode(graph: &ProvGraph, seq: u64) -> StoreResult<Vec<u8>> {
    let segments: [Vec<u8>; SEG_COUNT] = [
        encode_interner(graph)?,
        encode_vertices(graph)?,
        encode_edges(graph)?,
        encode_vprops(graph)?,
        encode_eprops(graph)?,
        encode_indexes(graph)?,
    ];
    let mut dir = Vec::with_capacity(12 + DIR_ENTRY_BYTES * SEG_COUNT);
    put_u64(&mut dir, seq);
    put_len(&mut dir, SEG_COUNT, "segment count")?;
    let mut offset = (HEADER_BYTES + 12 + DIR_ENTRY_BYTES * SEG_COUNT) as u64;
    for (id, payload) in segments.iter().enumerate() {
        put_tag(&mut dir, id);
        put_u64(&mut dir, offset);
        put_len(&mut dir, payload.len(), "snapshot segment length")?;
        put_u32(&mut dir, crc32(payload));
        offset += payload.len() as u64;
    }
    let mut out = Vec::with_capacity(offset as usize);
    out.extend_from_slice(MAGIC);
    put_len(&mut out, dir.len(), "snapshot directory length")?;
    put_u32(&mut out, crc32(&dir));
    out.extend_from_slice(&dir);
    for payload in &segments {
        out.extend_from_slice(payload);
    }
    Ok(out)
}

fn encode_interner(graph: &ProvGraph) -> StoreResult<Vec<u8>> {
    let mut out = Vec::new();
    put_len(&mut out, graph.interner().len(), "property key count")?;
    for (_, name) in graph.interner().iter() {
        put_str(&mut out, name)?;
    }
    Ok(out)
}

fn encode_vertices(graph: &ProvGraph) -> StoreResult<Vec<u8>> {
    let mut out = Vec::new();
    put_len(&mut out, graph.vertex_count(), "vertex count")?;
    for v in graph.vertex_ids() {
        let rec = graph.vertex(v);
        put_tag(&mut out, rec.kind.as_index());
        match &rec.name {
            Some(n) => {
                put_u8(&mut out, 1);
                put_str(&mut out, n)?;
            }
            None => put_u8(&mut out, 0),
        }
    }
    Ok(out)
}

fn encode_edges(graph: &ProvGraph) -> StoreResult<Vec<u8>> {
    let mut out = Vec::new();
    put_len(&mut out, graph.edge_count(), "edge count")?;
    for e in graph.edge_ids() {
        let rec = graph.edge(e);
        put_tag(&mut out, rec.kind.as_index());
        put_u32(&mut out, rec.src.raw());
        put_u32(&mut out, rec.dst.raw());
    }
    Ok(out)
}

fn encode_vprops(graph: &ProvGraph) -> StoreResult<Vec<u8>> {
    let triples: Vec<_> = graph
        .vertex_ids()
        .flat_map(|v| graph.vertex_props(v).iter().map(move |(k, val)| (v, k, val.clone())))
        .collect();
    let mut out = Vec::new();
    put_len(&mut out, triples.len(), "vertex property count")?;
    for (v, k, val) in &triples {
        put_u32(&mut out, v.raw());
        put_u32(&mut out, k.raw());
        put_prop_value(&mut out, val)?;
    }
    Ok(out)
}

fn encode_eprops(graph: &ProvGraph) -> StoreResult<Vec<u8>> {
    let triples: Vec<_> = graph
        .edge_ids()
        .flat_map(|e| graph.edge_props(e).iter().map(move |(k, val)| (e, k, val.clone())))
        .collect();
    let mut out = Vec::new();
    put_len(&mut out, triples.len(), "edge property count")?;
    for (e, k, val) in &triples {
        put_u32(&mut out, e.raw());
        put_u32(&mut out, k.raw());
        put_prop_value(&mut out, val)?;
    }
    Ok(out)
}

fn encode_indexes(graph: &ProvGraph) -> StoreResult<Vec<u8>> {
    let declared = graph.declared_vprop_indexes();
    let mut out = Vec::new();
    put_len(&mut out, declared.len(), "declared index count")?;
    for (kind, key) in &declared {
        put_tag(&mut out, kind.as_index());
        put_u32(&mut out, key.raw());
    }
    Ok(out)
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

/// Read and verify the snapshot directory through `source`.
pub fn read_directory(source: &dyn ColumnSource) -> Result<Directory, String> {
    let total = source.len();
    if total < HEADER_BYTES as u64 {
        return Err(format!("snapshot too short ({total} bytes)"));
    }
    let header = range(source, 0, HEADER_BYTES, "snapshot header")?;
    if &header[..MAGIC.len()] != MAGIC {
        return Err("bad snapshot magic".to_string());
    }
    let mut r = Reader::new(&header[MAGIC.len()..]);
    let dir_len = r.u32("directory length")? as usize;
    let dir_crc = r.u32("directory crc")?;
    if total < (HEADER_BYTES + dir_len) as u64 {
        return Err(format!("snapshot directory truncated ({total} bytes, directory {dir_len})"));
    }
    let dir = range(source, HEADER_BYTES as u64, dir_len, "snapshot directory")?;
    if crc32(&dir) != dir_crc {
        return Err("snapshot directory crc mismatch".to_string());
    }
    let mut r = Reader::new(&dir);
    let seq = r.u64("snapshot seq")?;
    let count = r.u32("segment count")?;
    if count as usize != SEG_COUNT {
        return Err(format!("snapshot has {count} segments, expected {SEG_COUNT}"));
    }
    let mut segments = [Segment { offset: 0, len: 0, crc: 0 }; SEG_COUNT];
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
        return Err(format!("segments cover {expect} bytes of a {total}-byte snapshot"));
    }
    Ok(Directory { seq, segments })
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

// ---------------------------------------------------------------------
// Segment decoders
// ---------------------------------------------------------------------

/// Decode the structural segments (interner, vertices, edges, index
/// declarations) into a property-less graph, replaying through the ordinary
/// mutators so every derived structure matches a live build. Returns the
/// graph, the interned key names in id order, and the declared indexes.
#[allow(clippy::type_complexity)]
fn decode_structure(
    source: &dyn ColumnSource,
    dir: &Directory,
) -> Result<(ProvGraph, Vec<Arc<str>>, Vec<(VertexKind, Arc<str>)>), String> {
    let mut g = ProvGraph::new();
    // Interner, in id order, so key ids referenced by other segments resolve
    // and replayed interning matches the encoded graph exactly.
    let bytes = read_segment(source, dir, SEG_INTERNER)?;
    let mut r = Reader::new(&bytes);
    let key_count = r.u32("key count")?;
    let mut key_names = Vec::with_capacity(key_count as usize);
    for i in 0..key_count {
        let name = r.str("key name")?;
        let id = g.key(&name);
        if id.raw() != i {
            return Err(format!("key {name:?} interned as {id:?}, expected id {i}"));
        }
        key_names.push(name);
    }
    exhausted(&r, SEG_INTERNER)?;
    // Vertices.
    let bytes = read_segment(source, dir, SEG_VERTICES)?;
    let mut r = Reader::new(&bytes);
    let n = r.u32("vertex count")?;
    for i in 0..n {
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
    // Edges.
    let bytes = read_segment(source, dir, SEG_EDGES)?;
    let mut r = Reader::new(&bytes);
    let m = r.u32("edge count")?;
    for i in 0..m {
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
    let mut r = Reader::new(&bytes);
    let idx_count = r.u32("index count")?;
    let mut declared = Vec::with_capacity(idx_count as usize);
    for i in 0..idx_count {
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
    Ok((g, key_names, declared))
}

fn exhausted(r: &Reader<'_>, id: usize) -> Result<(), String> {
    if r.is_exhausted() {
        Ok(())
    } else {
        Err(format!("{} trailing bytes in {} segment", r.remaining(), SEG_NAMES[id]))
    }
}

fn decode_vprops(
    bytes: &[u8],
    n: u32,
    key_count: u32,
) -> Result<Vec<(VertexId, PropKeyId, PropValue)>, String> {
    let mut r = Reader::new(bytes);
    let count = r.u32("vprop count")?;
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count {
        let v = r.u32("vprop vertex")?;
        if v >= n {
            return Err(format!("vprop {i} names unknown vertex {v}"));
        }
        let k = r.u32("vprop key")?;
        if k >= key_count {
            return Err(format!("vprop {i} names unknown key {k}"));
        }
        let value = r.prop_value("vprop value")?;
        out.push((VertexId::new(v), PropKeyId::new(k), value));
    }
    exhausted(&r, SEG_VPROPS)?;
    Ok(out)
}

fn decode_eprops(
    bytes: &[u8],
    m: u32,
    key_count: u32,
) -> Result<Vec<(EdgeId, PropKeyId, PropValue)>, String> {
    let mut r = Reader::new(bytes);
    let count = r.u32("eprop count")?;
    let mut out = Vec::with_capacity(count as usize);
    for i in 0..count {
        let e = r.u32("eprop edge")?;
        if e >= m {
            return Err(format!("eprop {i} names unknown edge {e}"));
        }
        let k = r.u32("eprop key")?;
        if k >= key_count {
            return Err(format!("eprop {i} names unknown key {k}"));
        }
        let value = r.prop_value("eprop value")?;
        out.push((EdgeId::new(e), PropKeyId::new(k), value));
    }
    exhausted(&r, SEG_EPROPS)?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Decode entry points
// ---------------------------------------------------------------------

/// [`ColumnSource`] over a borrowed byte slice (eager in-memory decode).
#[derive(Debug)]
struct SliceSource<'a>(&'a [u8]);

impl ColumnSource for SliceSource<'_> {
    fn len(&self) -> u64 {
        self.0.len() as u64
    }

    fn read_range(&self, offset: u64, len: usize) -> IoResult<Vec<u8>> {
        super::io::slice_range(self.0, "snapshot", offset, len)
    }
}

/// Eagerly decode a whole snapshot image from memory: every segment read,
/// CRC-checked, and materialized. Any corrupted byte fails the decode.
pub fn decode_eager(bytes: &[u8]) -> Result<(ProvGraph, u64), String> {
    let source = SliceSource(bytes);
    let dir = read_directory(&source)?;
    let (mut g, key_names, declared) = decode_structure(&source, &dir)?;
    let (n, m, kc) =
        (rank_u32(g.vertex_count()), rank_u32(g.edge_count()), rank_u32(key_names.len()));
    let vbytes = read_segment(&source, &dir, SEG_VPROPS)?;
    for (v, k, value) in decode_vprops(&vbytes, n, kc)? {
        g.set_vprop(v, &key_names[k.index()], value);
    }
    let ebytes = read_segment(&source, &dir, SEG_EPROPS)?;
    for (e, k, value) in decode_eprops(&ebytes, m, kc)? {
        g.set_eprop(e, &key_names[k.index()], value);
    }
    // Declaration backfills from the columns just loaded.
    for (kind, key) in &declared {
        g.create_vprop_index(*kind, key);
    }
    Ok((g, dir.seq))
}

/// The deferred property-column loader a lazily-decoded graph carries: on
/// first touch it range-reads the two property segments through the column
/// source, CRC-checks them, and decodes the triples.
#[derive(Debug)]
struct DeferredLoader {
    source: Arc<dyn ColumnSource>,
    dir: Directory,
    vertex_count: u32,
    edge_count: u32,
    key_count: u32,
    stats: Arc<LazyStats>,
}

impl PropLoader for DeferredLoader {
    fn load(&self) -> Result<LoadedColumns, String> {
        let vbytes = read_segment(self.source.as_ref(), &self.dir, SEG_VPROPS)?;
        let ebytes = read_segment(self.source.as_ref(), &self.dir, SEG_EPROPS)?;
        self.stats.segment_loads.fetch_add(2, Ordering::Relaxed);
        self.stats
            .bytes_loaded
            .fetch_add(vbytes.len() as u64 + ebytes.len() as u64, Ordering::Relaxed);
        Ok(LoadedColumns {
            vprops: decode_vprops(&vbytes, self.vertex_count, self.key_count)?,
            eprops: decode_eprops(&ebytes, self.edge_count, self.key_count)?,
        })
    }
}

/// Lazily open a snapshot: decode the structural segments now, defer the
/// property segments behind the column source until first touch.
fn open_lazy(
    source: Arc<dyn ColumnSource>,
    stats: Arc<LazyStats>,
) -> Result<(ProvGraph, u64), String> {
    let dir = read_directory(source.as_ref())?;
    let (mut g, key_names, declared) = decode_structure(source.as_ref(), &dir)?;
    let deferred = dir.segments[SEG_VPROPS].len as u64 + dir.segments[SEG_EPROPS].len as u64;
    stats.segments_deferred.fetch_add(2, Ordering::Relaxed);
    stats.deferred_bytes.fetch_add(deferred, Ordering::Relaxed);
    let loader = DeferredLoader {
        source,
        dir: dir.clone(),
        vertex_count: rank_u32(g.vertex_count()),
        edge_count: rank_u32(g.edge_count()),
        key_count: rank_u32(key_names.len()),
        stats,
    };
    g.attach_lazy_props(Box::new(loader), declared);
    Ok((g, dir.seq))
}

/// Recover a snapshot image through `source` under the policy's decode mode.
pub fn recover_snapshot(
    source: Box<dyn ColumnSource>,
    mode: SnapshotDecode,
    stats: &Arc<LazyStats>,
) -> Result<(ProvGraph, u64), String> {
    match mode {
        SnapshotDecode::Eager => {
            let len = usize::try_from(source.len())
                .map_err(|_| "snapshot larger than the address space".to_string())?;
            let bytes = range(source.as_ref(), 0, len, "snapshot")?;
            decode_eager(&bytes)
        }
        SnapshotDecode::Lazy => open_lazy(Arc::from(source), Arc::clone(stats)),
    }
}

/// [`ColumnSource`] buffering a whole file read once through [`Io::read`] —
/// the fallback for backends without native range reads (notably the
/// fault-injection wrapper, whose corruption must keep flowing through its
/// `read` path). This is the only full-file snapshot read outside the
/// backends themselves.
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
pub fn source_for(io: &dyn Io, name: &str) -> IoResult<Option<Box<dyn ColumnSource>>> {
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
    use crate::graph::WalOp;

    fn rich_graph() -> ProvGraph {
        let mut g = ProvGraph::new();
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

    fn lazy_open(bytes: &[u8]) -> (ProvGraph, u64, Arc<LazyStats>) {
        let stats = Arc::new(LazyStats::default());
        let source = Box::new(BufferedColumnSource { name: "snap".into(), bytes: bytes.to_vec() });
        let (g, seq) = recover_snapshot(source, SnapshotDecode::Lazy, &stats).unwrap();
        (g, seq, stats)
    }

    #[test]
    fn snapshot_round_trips_exactly() {
        let g = rich_graph();
        let bytes = encode(&g, 42).unwrap();
        let (decoded, seq) = decode_eager(&bytes).unwrap();
        assert_eq!(seq, 42);
        assert_eq!(decoded, g);
        decoded.validate().unwrap();
        // Exactness includes interner ids and declared indexes.
        assert_eq!(decoded.key_id("interned-but-unused"), g.key_id("interned-but-unused"));
        assert_eq!(decoded.declared_vprop_indexes(), g.declared_vprop_indexes());
        // The backfilled index answers like the original.
        assert_eq!(
            decoded.find_by_prop(VertexKind::Entity, "filename", &PropValue::from("data")),
            g.find_by_prop(VertexKind::Entity, "filename", &PropValue::from("data")),
        );
    }

    #[test]
    fn empty_graph_round_trips() {
        let g = ProvGraph::new();
        let bytes = encode(&g, 0).unwrap();
        let (decoded, seq) = decode_eager(&bytes).unwrap();
        assert_eq!(seq, 0);
        assert_eq!(decoded, g);
    }

    #[test]
    fn every_corrupted_byte_is_detected() {
        let g = rich_graph();
        let bytes = encode(&g, 7).unwrap();
        // Flip one bit in every byte: magic, directory, and segment corruption
        // must all surface as decode errors, never as a silently different
        // graph.
        for i in 0..bytes.len() {
            let mut bad = bytes.clone();
            bad[i] ^= 0x40;
            match decode_eager(&bad) {
                Err(_) => {}
                Ok((decoded, seq)) => {
                    panic!(
                        "flipping byte {i} went undetected (seq {seq}, {} vertices)",
                        decoded.vertex_count()
                    );
                }
            }
        }
        // Truncations too.
        for cut in 0..bytes.len() {
            assert!(decode_eager(&bytes[..cut]).is_err(), "truncation at {cut} undetected");
        }
    }

    #[test]
    fn dangling_references_are_named() {
        let mut g = ProvGraph::new();
        g.add_entity("e");
        let mut bytes = encode(&g, 1).unwrap();
        // Dangling ids inside a CRC-honest image are covered by the decoder
        // bounds checks; here just check the magic/short-input paths.
        bytes.truncate(4);
        assert!(decode_eager(&bytes).unwrap_err().contains("too short"));
        assert!(decode_eager(b"NOTASNAPxxxxxxxxyyyy").unwrap_err().contains("magic"));
    }

    #[test]
    fn directory_describes_contiguous_crc_checked_segments() {
        let g = rich_graph();
        let bytes = encode(&g, 9).unwrap();
        let dir = read_directory(&SliceSource(&bytes)).unwrap();
        assert_eq!(dir.seq, 9);
        let mut expect = (HEADER_BYTES + 12 + DIR_ENTRY_BYTES * SEG_COUNT) as u64;
        for seg in &dir.segments {
            assert_eq!(seg.offset, expect);
            expect += seg.len as u64;
        }
        assert_eq!(expect, bytes.len() as u64, "segments cover the file exactly");
    }

    #[test]
    fn lazy_equals_eager_and_defers_property_segments() {
        let g = rich_graph();
        let bytes = encode(&g, 5).unwrap();
        let (eager, eseq) = decode_eager(&bytes).unwrap();
        let (lazy, lseq, stats) = lazy_open(&bytes);
        assert_eq!(eseq, 5);
        assert_eq!(lseq, 5);
        assert!(lazy.deferred_props_untouched());
        assert_eq!(stats.segments_deferred.load(Ordering::Relaxed), 2);
        assert_eq!(stats.segment_loads.load(Ordering::Relaxed), 0);
        // Structural queries do not materialize.
        assert_eq!(lazy.vertex_count(), eager.vertex_count());
        assert_eq!(lazy.vertex_by_name("alice"), eager.vertex_by_name("alice"));
        assert!(lazy.deferred_props_untouched());
        // Index declarations are visible without materializing.
        assert_eq!(lazy.declared_vprop_indexes(), eager.declared_vprop_indexes());
        assert!(lazy.has_vprop_index(VertexKind::Entity, "filename"));
        assert!(lazy.deferred_props_untouched());
        // First property touch loads the deferred segments; state matches.
        assert_eq!(lazy, eager);
        assert!(!lazy.deferred_props_untouched());
        assert_eq!(stats.segment_loads.load(Ordering::Relaxed), 2);
        assert_eq!(
            stats.bytes_loaded.load(Ordering::Relaxed),
            stats.deferred_bytes.load(Ordering::Relaxed)
        );
        lazy.validate().unwrap();
    }

    #[test]
    fn lazy_replays_wal_tail_prop_ops_at_materialization() {
        let g = rich_graph();
        let bytes = encode(&g, 5).unwrap();
        // Twin A: lazy decode, then WAL-tail prop ops queued pre-touch.
        let (mut lazy, _, _) = lazy_open(&bytes);
        // Twin B: eager decode, same ops applied eagerly.
        let (mut eager, _) = decode_eager(&bytes).unwrap();
        let ops = [
            WalOp::AddVertex { kind: VertexKind::Entity, name: Some("late".into()) },
            WalOp::SetVProp { v: VertexId::new(4), key: "acc".into(), value: 0.9.into() },
            WalOp::SetVProp { v: VertexId::new(0), key: "fresh-key".into(), value: 1i64.into() },
            WalOp::UnsetVProp { v: VertexId::new(0), key: "version".into() },
            WalOp::SetEProp { e: EdgeId::new(1), key: "role".into(), value: "output".into() },
            WalOp::CreateVPropIndex { kind: VertexKind::Entity, key: "acc".into() },
        ];
        for op in &ops {
            lazy.apply_wal_op(op).unwrap();
            eager.apply_wal_op(op).unwrap();
        }
        assert!(lazy.deferred_props_untouched(), "prop replay queues, never touches");
        // Interner id assignment matched the eager twin even while queued.
        assert_eq!(lazy.key_id("fresh-key"), eager.key_id("fresh-key"));
        assert_eq!(lazy, eager);
        assert_eq!(
            lazy.find_by_prop(VertexKind::Entity, "acc", &PropValue::from(0.9)),
            eager.find_by_prop(VertexKind::Entity, "acc", &PropValue::from(0.9)),
        );
        // Replay of impossible ops is the same typed error as eager.
        let bad = WalOp::SetVProp { v: VertexId::new(99), key: "x".into(), value: 1i64.into() };
        let (mut lazy2, _, _) = lazy_open(&bytes);
        assert!(lazy2.apply_wal_op(&bad).is_err());
    }

    #[test]
    fn mutation_dissolves_the_overlay_into_the_records() {
        let g = rich_graph();
        let bytes = encode(&g, 5).unwrap();
        let (mut lazy, _, _) = lazy_open(&bytes);
        lazy.set_vprop(VertexId::new(0), "filename", "data2");
        assert!(!lazy.has_deferred_props(), "first write dissolves the overlay");
        let (mut eager, _) = decode_eager(&bytes).unwrap();
        eager.set_vprop(VertexId::new(0), "filename", "data2");
        assert_eq!(lazy, eager);
        lazy.validate().unwrap();
        assert_eq!(
            lazy.find_by_prop(VertexKind::Entity, "filename", &PropValue::from("data2")),
            eager.find_by_prop(VertexKind::Entity, "filename", &PropValue::from("data2")),
        );
    }

    #[test]
    fn corrupt_deferred_segment_panics_at_first_touch_not_open() {
        let g = rich_graph();
        let mut bytes = encode(&g, 5).unwrap();
        let dir = read_directory(&SliceSource(&bytes)).unwrap();
        let off = dir.segments[SEG_VPROPS].offset as usize + 4;
        bytes[off] ^= 0xff;
        // Eager: fails the open.
        assert!(decode_eager(&bytes).is_err());
        // Lazy: opens fine (structural segments are intact)…
        let (lazy, _, _) = lazy_open(&bytes);
        assert!(lazy.deferred_props_untouched());
        // …but the first touch detects the corruption loudly.
        let touch = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            lazy.vprop(VertexId::new(0), "filename").cloned()
        }));
        assert!(touch.is_err(), "corrupt deferred segment must not decode silently");
    }

    #[test]
    fn clones_share_one_materialization() {
        let g = rich_graph();
        let bytes = encode(&g, 5).unwrap();
        let (lazy, _, stats) = lazy_open(&bytes);
        let clone = lazy.clone();
        assert_eq!(clone.vprop(VertexId::new(0), "filename"), Some(&PropValue::from("data")));
        assert_eq!(stats.segment_loads.load(Ordering::Relaxed), 2);
        // The original sees the clone's materialization — no second load.
        assert_eq!(lazy.vprop(VertexId::new(0), "filename"), Some(&PropValue::from("data")));
        assert_eq!(stats.segment_loads.load(Ordering::Relaxed), 2);
    }
}
