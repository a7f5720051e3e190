//! The counting / timing [`Io`] wrapper the durable stores run over.
//!
//! Every byte the storage engine writes goes through [`CountingIo`], so
//! `bytes written per acknowledged write` is an exact count, not an
//! estimate. Calls and bytes are always counted; `Instant`s are only taken
//! when the probe is switched to timed mode (the traced repetition), so the
//! untraced numbers carry two integer adds per call and nothing else.
//!
//! The wrapper forwards **every** trait method — including `read_range` and
//! `column_source`, whose trait defaults would silently turn a lazy open
//! into a whole-file read.

use prov_store::storage::{ColumnSource, Io, IoResult};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the write side of the disk saw. Counts are exact.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IoCounts {
    /// `Io::append` calls (WAL flushes).
    pub appends: u64,
    /// Bytes passed to `Io::append`.
    pub append_bytes: u64,
    /// `Io::sync` calls.
    pub syncs: u64,
    /// `Io::write` calls (snapshot images).
    pub writes: u64,
    /// Bytes passed to `Io::write`.
    pub write_bytes: u64,
    /// Nanoseconds inside `append` (timed mode only).
    pub append_ns: u64,
    /// Nanoseconds inside `sync` (timed mode only).
    pub sync_ns: u64,
    /// Nanoseconds inside `write` / `rename` / `remove` / `truncate` (timed
    /// mode only) — the disk half of a compaction.
    pub snapshot_write_ns: u64,
}

impl IoCounts {
    /// Field-wise `self - earlier` (both read from one monotone probe).
    pub fn since(&self, earlier: &IoCounts) -> IoCounts {
        IoCounts {
            appends: self.appends - earlier.appends,
            append_bytes: self.append_bytes - earlier.append_bytes,
            syncs: self.syncs - earlier.syncs,
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            append_ns: self.append_ns - earlier.append_ns,
            sync_ns: self.sync_ns - earlier.sync_ns,
            snapshot_write_ns: self.snapshot_write_ns - earlier.snapshot_write_ns,
        }
    }

    /// Nanoseconds spent inside the disk, all calls.
    pub fn io_ns(&self) -> u64 {
        self.append_ns + self.sync_ns + self.snapshot_write_ns
    }
}

/// One timed `Io` call, for the span log.
#[derive(Debug, Clone, Copy)]
pub struct IoCall {
    /// Span name (`store.storage.append`, `.sync`, `.snapshot_write`).
    pub name: &'static str,
    /// Start of the call.
    pub start: Instant,
    /// End of the call.
    pub end: Instant,
}

#[derive(Debug, Default)]
struct ProbeState {
    counts: IoCounts,
    timed: bool,
    calls: Vec<IoCall>,
    /// Copies of the first appended payloads (timed mode), replayed onto the
    /// real disk for the informational `stdio_sync_us` figure.
    payloads: Vec<Vec<u8>>,
}

/// How many append payloads the probe keeps for the real-disk replay.
pub const KEPT_PAYLOADS: usize = 2000;

/// Shared observer of a [`CountingIo`]: the harness keeps one handle, the
/// storage engine owns the wrapper.
#[derive(Debug, Clone, Default)]
pub struct IoProbe {
    state: Arc<Mutex<ProbeState>>,
}

impl IoProbe {
    /// A probe in untimed mode.
    pub fn new() -> IoProbe {
        IoProbe::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProbeState> {
        self.state.lock().expect("io probe lock: no holder panics")
    }

    /// Switch per-call `Instant`s (and payload capture) on or off.
    pub fn set_timed(&self, timed: bool) {
        self.lock().timed = timed;
    }

    /// The counts so far.
    pub fn counts(&self) -> IoCounts {
        self.lock().counts
    }

    /// Take the timed calls recorded since the last drain.
    pub fn drain_calls(&self) -> Vec<IoCall> {
        std::mem::take(&mut self.lock().calls)
    }

    /// Take the captured append payloads.
    pub fn take_payloads(&self) -> Vec<Vec<u8>> {
        std::mem::take(&mut self.lock().payloads)
    }
}

/// An [`Io`] that counts (and optionally times) the write side of an inner
/// backend and forwards everything else untouched.
#[derive(Debug)]
pub struct CountingIo {
    inner: Box<dyn Io>,
    probe: IoProbe,
}

/// Which counter group a mutating call lands in.
#[derive(Clone, Copy)]
enum Kind {
    Append,
    Sync,
    Write,
    Namespace,
}

impl CountingIo {
    /// Wrap `inner`, reporting into `probe`.
    pub fn new(inner: Box<dyn Io>, probe: IoProbe) -> CountingIo {
        CountingIo { inner, probe }
    }

    fn observe<R>(
        &mut self,
        kind: Kind,
        data: &[u8],
        call: impl FnOnce(&mut dyn Io) -> IoResult<R>,
    ) -> IoResult<R> {
        let timed = self.probe.lock().timed;
        let start = timed.then(Instant::now);
        let result = call(self.inner.as_mut());
        let end = timed.then(Instant::now);
        let mut state = self.probe.lock();
        let bytes = data.len() as u64;
        let span_ns = match (start, end) {
            (Some(s), Some(e)) => {
                let name = match kind {
                    Kind::Append => "store.storage.append",
                    Kind::Sync => "store.storage.sync",
                    Kind::Write | Kind::Namespace => "store.storage.snapshot_write",
                };
                state.calls.push(IoCall { name, start: s, end: e });
                (e - s).as_nanos() as u64
            }
            _ => 0,
        };
        match kind {
            Kind::Append => {
                state.counts.appends += 1;
                state.counts.append_bytes += bytes;
                state.counts.append_ns += span_ns;
                if timed && state.payloads.len() < KEPT_PAYLOADS {
                    state.payloads.push(data.to_vec());
                }
            }
            Kind::Sync => {
                state.counts.syncs += 1;
                state.counts.sync_ns += span_ns;
            }
            Kind::Write => {
                state.counts.writes += 1;
                state.counts.write_bytes += bytes;
                state.counts.snapshot_write_ns += span_ns;
            }
            Kind::Namespace => state.counts.snapshot_write_ns += span_ns,
        }
        result
    }
}

impl Io for CountingIo {
    fn list(&self) -> IoResult<Vec<String>> {
        self.inner.list()
    }

    fn read(&self, name: &str) -> IoResult<Option<Vec<u8>>> {
        self.inner.read(name)
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> IoResult<Option<Vec<u8>>> {
        self.inner.read_range(name, offset, len)
    }

    fn column_source(&self, name: &str) -> IoResult<Option<Box<dyn ColumnSource>>> {
        self.inner.column_source(name)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
        self.observe(Kind::Append, data, |io| io.append(name, data))
    }

    fn write(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
        self.observe(Kind::Write, data, |io| io.write(name, data))
    }

    fn truncate(&mut self, name: &str, len: u64) -> IoResult<()> {
        self.observe(Kind::Namespace, &[], |io| io.truncate(name, len))
    }

    fn sync(&mut self, name: &str) -> IoResult<()> {
        self.observe(Kind::Sync, &[], |io| io.sync(name))
    }

    fn rename(&mut self, from: &str, to: &str) -> IoResult<()> {
        self.observe(Kind::Namespace, &[], |io| io.rename(from, to))
    }

    fn remove(&mut self, name: &str) -> IoResult<()> {
        self.observe(Kind::Namespace, &[], |io| io.remove(name))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prov_core::{ActivityRecord, DurabilityPolicy, OutputSpec, ProvDb};
    use prov_store::storage::MemIo;

    fn small_durable_disk() -> MemIo {
        let disk = MemIo::new();
        let mut db =
            ProvDb::open_with_io(Box::new(disk.clone()), DurabilityPolicy::never_compact())
                .unwrap();
        let mut prev = None;
        for i in 0..40 {
            let out = db
                .record_activity(ActivityRecord {
                    command: format!("step{i}"),
                    agent: None,
                    inputs: prev.into_iter().collect(),
                    outputs: vec![OutputSpec::named("model").with("acc", i as f64)],
                    props: vec![("run".into(), (i as i64).into())],
                })
                .unwrap();
            prev = Some(out.outputs[0]);
        }
        assert!(db.compact().unwrap());
        db.add_artifact_version("tail", None).unwrap();
        disk
    }

    #[test]
    fn lazy_open_through_the_wrapper_defers_what_bare_memio_defers() {
        let disk = small_durable_disk();
        let policy = DurabilityPolicy::never_compact().with_lazy_decode();

        let bare_disk = disk.fork();
        let bare = ProvDb::open_with_io(Box::new(bare_disk.clone()), policy.clone()).unwrap();
        let wrapped_disk = disk.fork();
        let probe = IoProbe::new();
        let wrapped = ProvDb::open_with_io(
            Box::new(CountingIo::new(Box::new(wrapped_disk.clone()), probe.clone())),
            policy,
        )
        .unwrap();

        let (b, w) = (bare.durability_counters().unwrap(), wrapped.durability_counters().unwrap());
        assert_eq!(b.lazy_segments_deferred, 2, "both property columns deferred");
        assert_eq!(w.lazy_segments_deferred, b.lazy_segments_deferred);
        assert_eq!(w.lazy_deferred_bytes, b.lazy_deferred_bytes);
        assert_eq!((w.lazy_segment_loads, b.lazy_segment_loads), (0, 0));
        // Byte for byte the same reads reached the disk: a wrapper that fell
        // back to the trait's default `column_source` would slurp the image.
        assert_eq!(wrapped_disk.range_reads(), bare_disk.range_reads());
        assert_eq!(wrapped.graph(), bare.graph());
    }

    #[test]
    fn counts_are_exact_and_timing_is_opt_in() {
        let probe = IoProbe::new();
        let disk = MemIo::new();
        let mut io = CountingIo::new(Box::new(disk.clone()), probe.clone());
        io.append("wal", b"abc").unwrap();
        io.append("wal", b"de").unwrap();
        io.sync("wal").unwrap();
        io.write("snapshot.tmp", b"IMAGE").unwrap();
        io.rename("snapshot.tmp", "snapshot-1").unwrap();
        io.remove("wal").unwrap();
        let c = probe.counts();
        assert_eq!((c.appends, c.append_bytes, c.syncs), (2, 5, 1));
        assert_eq!((c.writes, c.write_bytes), (1, 5));
        assert_eq!(c.io_ns(), 0, "untimed mode takes no Instants");
        assert!(probe.drain_calls().is_empty() && probe.take_payloads().is_empty());
        assert_eq!(disk.file("snapshot-1").unwrap(), b"IMAGE");

        probe.set_timed(true);
        io.append("wal", b"xyz").unwrap();
        let calls = probe.drain_calls();
        assert_eq!(calls.len(), 1);
        assert_eq!(calls[0].name, "store.storage.append");
        assert_eq!(probe.take_payloads(), vec![b"xyz".to_vec()]);
        assert_eq!(probe.counts().since(&c).appends, 1);
    }
}
