//! The injectable I/O layer every durable byte flows through.
//!
//! [`WalStorage`](crate::storage::WalStorage) never touches the filesystem
//! directly: it speaks [`Io`], a flat single-directory file namespace with
//! exactly the primitives a write-ahead log needs (append, whole-file read,
//! atomic replace-by-rename, truncate, fsync). That indirection is the whole
//! point of this module — the deterministic
//! [`FailpointIo`](crate::storage::FailpointIo) wrapper can then inject
//! crashes, short writes, bit flips, and fsync failures at byte granularity,
//! and the kill-point harness can fork [`MemIo`] "disks" to simulate a crash
//! at every offset.
//!
//! This file (and only this file) is allowed to use `std::fs`: the `raw-io`
//! entries of the root `clippy.toml` keep every other byte injectable, and
//! the `#![expect]` below is their one module-wide exemption.

#![expect(
    clippy::disallowed_types,
    clippy::disallowed_methods,
    reason = "the Io backends: StdIo is the one std::fs user, and the default \
              Io::read_range buffers the whole file"
)]

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// An I/O failure as seen by the storage engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum IoError {
    /// The operation failed (disk error, injected fsync failure, ...).
    Failed(String),
    /// An injected crash: the "process" died mid-operation. Every subsequent
    /// call on the same handle fails with this too, so nothing written after
    /// the crash point can leak to "disk".
    Crashed,
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Failed(msg) => write!(f, "io failure: {msg}"),
            IoError::Crashed => write!(f, "crashed (injected failpoint)"),
        }
    }
}

/// I/O result alias.
pub type IoResult<T> = Result<T, IoError>;

/// Random-access byte source over one stored file — the abstraction the
/// lazy run decoder range-reads deferred columns through. A source stays
/// readable after the file it was opened on is removed or replaced (the
/// `std::fs` backend keeps the descriptor open; a compaction loads a lazy
/// graph's deferred columns before it deletes a merged-away run regardless).
#[expect(clippy::len_without_is_empty, reason = "a zero-length run is invalid, not \"empty\"")]
pub trait ColumnSource: std::fmt::Debug + Send + Sync {
    /// Total length of the file in bytes.
    fn len(&self) -> u64;

    /// Read exactly `len` bytes at `offset`; a short read is an error.
    fn read_range(&self, offset: u64, len: usize) -> IoResult<Vec<u8>>;
}

/// Slice `bytes[offset..offset + len]`, surfacing an out-of-range request as
/// a typed error naming the file.
pub(crate) fn slice_range(bytes: &[u8], name: &str, offset: u64, len: usize) -> IoResult<Vec<u8>> {
    usize::try_from(offset)
        .ok()
        .and_then(|start| start.checked_add(len).map(|end| (start, end)))
        .and_then(|(start, end)| bytes.get(start..end))
        .map(<[u8]>::to_vec)
        .ok_or_else(|| {
            IoError::Failed(format!(
                "read_range {name}: {offset}+{len} runs past the end ({} bytes)",
                bytes.len()
            ))
        })
}

/// A flat, single-directory file namespace — the only surface the storage
/// engine writes bytes through.
///
/// Durability contract: data passed to [`Io::append`]/[`Io::write`] is only
/// guaranteed on "disk" after a successful [`Io::sync`] of that file;
/// [`Io::rename`] is atomic and durable once it returns (the `std::fs`
/// backend fsyncs the directory).
pub trait Io: std::fmt::Debug + Send + Sync {
    /// Names of all existing files, sorted.
    fn list(&self) -> IoResult<Vec<String>>;

    /// Entire contents of `name`, or `None` if it does not exist.
    fn read(&self, name: &str) -> IoResult<Option<Vec<u8>>>;

    /// `len` bytes of `name` starting at `offset`, or `None` if the file
    /// does not exist; a range running past the end is an error. The default
    /// buffers the whole file and slices — real backends override with
    /// genuine range reads.
    fn read_range(&self, name: &str, offset: u64, len: usize) -> IoResult<Option<Vec<u8>>> {
        match self.read(name)? {
            Some(bytes) => slice_range(&bytes, name, offset, len).map(Some),
            None => Ok(None),
        }
    }

    /// An open random-access handle on `name` for lazy column reads, when
    /// the backend can serve one without buffering the whole file. `None`
    /// (the default) tells the caller to fall back to a buffered source —
    /// the fault-injection wrapper relies on this so injected corruption
    /// keeps flowing through its `read` path.
    fn column_source(&self, name: &str) -> IoResult<Option<Box<dyn ColumnSource>>> {
        let _ = name;
        Ok(None)
    }

    /// Append `data` to `name`, creating it if absent.
    fn append(&mut self, name: &str, data: &[u8]) -> IoResult<()>;

    /// Replace the contents of `name` with `data`, creating it if absent.
    fn write(&mut self, name: &str, data: &[u8]) -> IoResult<()>;

    /// Shrink `name` to `len` bytes (recovery's torn-tail truncation).
    fn truncate(&mut self, name: &str, len: u64) -> IoResult<()>;

    /// Flush `name` to durable storage (fsync).
    fn sync(&mut self, name: &str) -> IoResult<()>;

    /// Atomically rename `from` to `to`, replacing any existing `to`.
    fn rename(&mut self, from: &str, to: &str) -> IoResult<()>;

    /// Delete `name`; succeeds silently when it does not exist.
    fn remove(&mut self, name: &str) -> IoResult<()>;
}

fn fs_err(op: &str, name: &str, e: std::io::Error) -> IoError {
    IoError::Failed(format!("{op} {name}: {e}"))
}

/// The real-filesystem backend: one directory, one file per [`Io`] name.
#[derive(Debug)]
pub struct StdIo {
    dir: std::path::PathBuf,
}

impl StdIo {
    /// Open (creating if needed) `dir` as a storage directory.
    pub fn open(dir: impl Into<std::path::PathBuf>) -> IoResult<StdIo> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)
            .map_err(|e| fs_err("create dir", &dir.display().to_string(), e))?;
        Ok(StdIo { dir })
    }

    fn path(&self, name: &str) -> std::path::PathBuf {
        self.dir.join(name)
    }

    /// Fsync the directory itself so renames/creations survive power loss.
    fn sync_dir(&self) -> IoResult<()> {
        let d = std::fs::File::open(&self.dir)
            .map_err(|e| fs_err("open dir", &self.dir.display().to_string(), e))?;
        d.sync_all().map_err(|e| fs_err("sync dir", &self.dir.display().to_string(), e))
    }
}

impl Io for StdIo {
    fn list(&self) -> IoResult<Vec<String>> {
        let mut names = Vec::new();
        let entries = std::fs::read_dir(&self.dir)
            .map_err(|e| fs_err("list", &self.dir.display().to_string(), e))?;
        for entry in entries {
            let entry = entry.map_err(|e| fs_err("list", &self.dir.display().to_string(), e))?;
            if let Some(name) = entry.file_name().to_str() {
                names.push(name.to_string());
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&self, name: &str) -> IoResult<Option<Vec<u8>>> {
        match std::fs::read(self.path(name)) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(fs_err("read", name, e)),
        }
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> IoResult<Option<Vec<u8>>> {
        use std::io::{Read as _, Seek as _};
        let mut f = match std::fs::File::open(self.path(name)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(fs_err("read_range", name, e)),
        };
        f.seek(std::io::SeekFrom::Start(offset)).map_err(|e| fs_err("read_range", name, e))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf).map_err(|e| fs_err("read_range", name, e))?;
        Ok(Some(buf))
    }

    fn column_source(&self, name: &str) -> IoResult<Option<Box<dyn ColumnSource>>> {
        let f = match std::fs::File::open(self.path(name)) {
            Ok(f) => f,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(fs_err("open column source", name, e)),
        };
        let len = f.metadata().map_err(|e| fs_err("stat column source", name, e))?.len();
        Ok(Some(Box::new(FileColumnSource { name: name.to_string(), file: Mutex::new(f), len })))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
        use std::io::Write as _;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .create(true)
            .open(self.path(name))
            .map_err(|e| fs_err("append", name, e))?;
        f.write_all(data).map_err(|e| fs_err("append", name, e))
    }

    fn write(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
        std::fs::write(self.path(name), data).map_err(|e| fs_err("write", name, e))
    }

    fn truncate(&mut self, name: &str, len: u64) -> IoResult<()> {
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(self.path(name))
            .map_err(|e| fs_err("truncate", name, e))?;
        f.set_len(len).map_err(|e| fs_err("truncate", name, e))?;
        f.sync_all().map_err(|e| fs_err("truncate", name, e))
    }

    fn sync(&mut self, name: &str) -> IoResult<()> {
        let f = std::fs::File::open(self.path(name)).map_err(|e| fs_err("sync", name, e))?;
        f.sync_all().map_err(|e| fs_err("sync", name, e))
    }

    fn rename(&mut self, from: &str, to: &str) -> IoResult<()> {
        std::fs::rename(self.path(from), self.path(to)).map_err(|e| fs_err("rename", from, e))?;
        self.sync_dir()
    }

    fn remove(&mut self, name: &str) -> IoResult<()> {
        match std::fs::remove_file(self.path(name)) {
            Ok(()) => self.sync_dir(),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(fs_err("remove", name, e)),
        }
    }
}

/// [`ColumnSource`] over an open file descriptor: range reads survive the
/// file later being unlinked or replaced (a merge deleting the runs it
/// joined), because the descriptor pins the inode.
#[derive(Debug)]
struct FileColumnSource {
    name: String,
    file: Mutex<std::fs::File>,
    len: u64,
}

impl ColumnSource for FileColumnSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_range(&self, offset: u64, len: usize) -> IoResult<Vec<u8>> {
        use std::io::{Read as _, Seek as _};
        let mut f = self.file.lock().expect("column source lock");
        f.seek(std::io::SeekFrom::Start(offset))
            .map_err(|e| fs_err("read_range", &self.name, e))?;
        let mut buf = vec![0u8; len];
        f.read_exact(&mut buf).map_err(|e| fs_err("read_range", &self.name, e))?;
        Ok(buf)
    }
}

/// The in-memory backend: a shared map of file name → bytes.
///
/// `Clone` shares the underlying "disk" (the handle is `Arc`ed), which is how
/// tests model a machine: keep one handle as the disk, give a clone to the
/// storage engine, "reboot" by opening a fresh engine over another clone.
/// [`MemIo::fork`] deep-copies the disk — the crash-state constructor of the
/// kill-point harness.
#[derive(Debug, Clone, Default)]
pub struct MemIo {
    files: Arc<Mutex<BTreeMap<String, Vec<u8>>>>,
    /// Byte-range read log `(name, offset, len)` — every `read_range` and
    /// whole-file `read` that flows through the [`Io`] trait. Tests use it to
    /// prove lazy decode never touched a deferred column. Clones share the
    /// log (the disk handle observes the engine); forks start fresh.
    reads: Arc<Mutex<Vec<(String, u64, u64)>>>,
}

impl MemIo {
    /// An empty disk.
    pub fn new() -> MemIo {
        MemIo::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, BTreeMap<String, Vec<u8>>> {
        self.files.lock().expect("MemIo lock")
    }

    /// A deep copy of the current disk state, independent of the original:
    /// mutations on either side are invisible to the other.
    pub fn fork(&self) -> MemIo {
        MemIo { files: Arc::new(Mutex::new(self.lock().clone())), reads: Arc::default() }
    }

    /// A deep copy with `name` truncated to its first `len` bytes — the
    /// "crashed after `len` durable bytes" state the kill-point sweep feeds
    /// back into recovery.
    pub fn fork_truncated(&self, name: &str, len: usize) -> MemIo {
        let forked = self.fork();
        {
            let mut files = forked.lock();
            if let Some(bytes) = files.get_mut(name) {
                bytes.truncate(len);
            }
        }
        forked
    }

    /// Current contents of `name`, if present.
    pub fn file(&self, name: &str) -> Option<Vec<u8>> {
        self.lock().get(name).cloned()
    }

    /// Overwrite `name` directly (test corruption injection).
    pub fn set_file(&self, name: &str, bytes: Vec<u8>) {
        self.lock().insert(name.to_string(), bytes);
    }

    fn log_read(&self, name: &str, offset: u64, len: u64) {
        self.reads.lock().expect("MemIo reads lock").push((name.to_string(), offset, len));
    }

    /// Every `(name, offset, len)` read through the [`Io`] trait since the
    /// last [`MemIo::clear_range_reads`] — whole-file reads log as
    /// `(name, 0, file_len)`.
    pub fn range_reads(&self) -> Vec<(String, u64, u64)> {
        self.reads.lock().expect("MemIo reads lock").clone()
    }

    /// Reset the read log.
    pub fn clear_range_reads(&self) {
        self.reads.lock().expect("MemIo reads lock").clear();
    }
}

/// [`ColumnSource`] over a [`MemIo`] file: serves slices of the in-memory
/// bytes, flowing every access through the shared read log.
#[derive(Debug)]
struct MemColumnSource {
    io: MemIo,
    name: String,
    len: u64,
}

impl ColumnSource for MemColumnSource {
    fn len(&self) -> u64 {
        self.len
    }

    fn read_range(&self, offset: u64, len: usize) -> IoResult<Vec<u8>> {
        match self.io.read_range(&self.name, offset, len)? {
            Some(bytes) => Ok(bytes),
            None => Err(IoError::Failed(format!("read_range {}: file vanished", self.name))),
        }
    }
}

impl Io for MemIo {
    fn list(&self) -> IoResult<Vec<String>> {
        Ok(self.lock().keys().cloned().collect())
    }

    fn read(&self, name: &str) -> IoResult<Option<Vec<u8>>> {
        let bytes = self.lock().get(name).cloned();
        if let Some(b) = &bytes {
            self.log_read(name, 0, b.len() as u64);
        }
        Ok(bytes)
    }

    fn read_range(&self, name: &str, offset: u64, len: usize) -> IoResult<Option<Vec<u8>>> {
        let sliced = match self.lock().get(name) {
            Some(bytes) => Some(slice_range(bytes, name, offset, len)?),
            None => None,
        };
        if sliced.is_some() {
            self.log_read(name, offset, len as u64);
        }
        Ok(sliced)
    }

    fn column_source(&self, name: &str) -> IoResult<Option<Box<dyn ColumnSource>>> {
        let len = match self.lock().get(name) {
            Some(bytes) => bytes.len() as u64,
            None => return Ok(None),
        };
        Ok(Some(Box::new(MemColumnSource { io: self.clone(), name: name.to_string(), len })))
    }

    fn append(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
        self.lock().entry(name.to_string()).or_default().extend_from_slice(data);
        Ok(())
    }

    fn write(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
        self.lock().insert(name.to_string(), data.to_vec());
        Ok(())
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "recovery truncates to a prefix of the file, whose in-memory length fits usize"
    )]
    fn truncate(&mut self, name: &str, len: u64) -> IoResult<()> {
        match self.lock().get_mut(name) {
            Some(bytes) => {
                bytes.truncate(len as usize);
                Ok(())
            }
            None => Err(IoError::Failed(format!("truncate {name}: no such file"))),
        }
    }

    fn sync(&mut self, _name: &str) -> IoResult<()> {
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> IoResult<()> {
        let mut files = self.lock();
        match files.remove(from) {
            Some(bytes) => {
                files.insert(to.to_string(), bytes);
                Ok(())
            }
            None => Err(IoError::Failed(format!("rename {from}: no such file"))),
        }
    }

    fn remove(&mut self, name: &str) -> IoResult<()> {
        self.lock().remove(name);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(io: &mut dyn Io) {
        assert_eq!(io.read("wal").unwrap(), None);
        io.append("wal", b"abc").unwrap();
        io.append("wal", b"def").unwrap();
        assert_eq!(io.read("wal").unwrap().unwrap(), b"abcdef");
        io.truncate("wal", 4).unwrap();
        assert_eq!(io.read("wal").unwrap().unwrap(), b"abcd");
        io.sync("wal").unwrap();
        io.write("run.tmp", b"RUN").unwrap();
        io.rename("run.tmp", "run-1").unwrap();
        assert_eq!(io.read("run.tmp").unwrap(), None);
        assert_eq!(io.read("run-1").unwrap().unwrap(), b"RUN");
        assert_eq!(io.list().unwrap(), vec!["run-1".to_string(), "wal".to_string()]);
        io.remove("wal").unwrap();
        io.remove("wal").unwrap(); // idempotent
        assert_eq!(io.list().unwrap(), vec!["run-1".to_string()]);
        // Overwrite-in-place via write.
        io.write("run-1", b"RUN2").unwrap();
        assert_eq!(io.read("run-1").unwrap().unwrap(), b"RUN2");
    }

    #[test]
    fn mem_io_implements_the_contract() {
        exercise(&mut MemIo::new());
    }

    #[test]
    fn std_io_implements_the_contract() {
        let dir = std::env::temp_dir().join(format!("prov-stdio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut io = StdIo::open(&dir).unwrap();
        exercise(&mut io);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_io_clones_share_forks_do_not() {
        let disk = MemIo::new();
        let mut engine = disk.clone();
        engine.append("wal", b"record").unwrap();
        assert_eq!(disk.file("wal").unwrap(), b"record", "clones share the disk");
        let fork = disk.fork_truncated("wal", 3);
        assert_eq!(fork.file("wal").unwrap(), b"rec");
        engine.append("wal", b"more").unwrap();
        assert_eq!(fork.file("wal").unwrap(), b"rec", "forks are independent");
        assert_eq!(disk.file("wal").unwrap(), b"recordmore");
    }

    #[test]
    fn errors_display_and_compare() {
        assert!(IoError::Failed("disk full".into()).to_string().contains("disk full"));
        assert!(IoError::Crashed.to_string().contains("crashed"));
        assert_ne!(IoError::Crashed, IoError::Failed("x".into()));
        let mut io = MemIo::new();
        assert!(io.truncate("nope", 0).is_err());
        assert!(io.rename("nope", "x").is_err());
    }
}
