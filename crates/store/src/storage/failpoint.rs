//! Deterministic fault injection for the storage engine.
//!
//! [`FailpointIo`] wraps a [`MemIo`] disk and injects faults according to a
//! [`FaultPlan`] — no randomness, no timing: the same plan always fails at
//! the same byte. Three fault families cover the failure modes a WAL must
//! survive:
//!
//! - **Crash / short write** (`crash_after_append_bytes`): a budget of bytes
//!   the "process" may still append. An append that overruns the budget
//!   writes only the prefix that fits (a torn write), then this handle is
//!   crashed: every later operation fails with [`IoError::Crashed`]. The
//!   underlying disk keeps exactly the bytes that made it down — reopen it
//!   with a fresh engine to model the reboot.
//! - **Fsync failure** (`fail_sync_at`): the nth sync (0-based, counted
//!   across all files) fails with [`IoError::Failed`]. Unlike a crash the
//!   process lives on, and the storage engine must poison itself rather than
//!   acknowledge unsynced commits.
//! - **Read bit flip** (`flip_bit_on_read`): one bit of one file flips on
//!   every read — modeling at-rest corruption that CRCs must catch during
//!   recovery. The disk itself is untouched.

#![expect(
    clippy::disallowed_methods,
    reason = "FailpointIo wraps Io::read to flip bits on whole-file reads"
)]

use super::io::{Io, IoError, IoResult, MemIo};

/// A deterministic schedule of injected faults. `Default` injects nothing.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Crash after this many more appended bytes reach the disk (the
    /// overrunning append becomes a short write). `None` = never crash.
    pub crash_after_append_bytes: Option<u64>,
    /// Fail the nth `sync` call (0-based, counted across files). `None` =
    /// syncs always succeed.
    pub fail_sync_at: Option<u64>,
    /// Flip bit 0 of the byte at `(file, offset)` on every read of `file`.
    pub flip_bit_on_read: Option<(String, u64)>,
}

impl FaultPlan {
    /// Crash once `budget` more appended bytes have hit the disk.
    pub fn crash_after(budget: u64) -> FaultPlan {
        FaultPlan { crash_after_append_bytes: Some(budget), ..FaultPlan::default() }
    }

    /// Fail the nth sync call.
    pub fn fail_sync(nth: u64) -> FaultPlan {
        FaultPlan { fail_sync_at: Some(nth), ..FaultPlan::default() }
    }

    /// Corrupt reads of `file` at byte `offset`.
    pub fn flip_bit(file: impl Into<String>, offset: u64) -> FaultPlan {
        FaultPlan { flip_bit_on_read: Some((file.into(), offset)), ..FaultPlan::default() }
    }
}

/// A [`MemIo`] disk behind a deterministic fault injector.
#[derive(Debug)]
pub struct FailpointIo {
    inner: MemIo,
    plan: FaultPlan,
    appended: u64,
    syncs: u64,
    crashed: bool,
}

impl FailpointIo {
    /// Wrap `inner`, injecting faults per `plan`.
    pub fn new(inner: MemIo, plan: FaultPlan) -> FailpointIo {
        FailpointIo { inner, plan, appended: 0, syncs: 0, crashed: false }
    }

    /// The wrapped disk (shared handle — clones see the same bytes).
    pub fn disk(&self) -> MemIo {
        self.inner.clone()
    }

    /// True once an injected crash has fired; the handle is dead.
    pub fn is_crashed(&self) -> bool {
        self.crashed
    }

    fn gate(&self) -> IoResult<()> {
        if self.crashed {
            Err(IoError::Crashed)
        } else {
            Ok(())
        }
    }
}

impl Io for FailpointIo {
    fn list(&self) -> IoResult<Vec<String>> {
        self.gate()?;
        self.inner.list()
    }

    #[expect(
        clippy::cast_possible_truncation,
        reason = "fault plans name offsets inside in-memory test files"
    )]
    fn read(&self, name: &str) -> IoResult<Option<Vec<u8>>> {
        self.gate()?;
        let mut bytes = self.inner.read(name)?;
        if let (Some(buf), Some((file, offset))) = (&mut bytes, &self.plan.flip_bit_on_read) {
            if name == file {
                if let Some(b) = buf.get_mut(*offset as usize) {
                    *b ^= 1;
                }
            }
        }
        Ok(bytes)
    }

    fn append(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
        self.gate()?;
        if let Some(budget) = self.plan.crash_after_append_bytes {
            let left = budget.saturating_sub(self.appended);
            if (data.len() as u64) > left {
                // Torn write: only the prefix that fits the budget lands,
                // then the process is dead.
                #[expect(clippy::cast_possible_truncation, reason = "left < data.len(), a usize")]
                self.inner.append(name, &data[..left as usize])?;
                self.appended += left;
                self.crashed = true;
                return Err(IoError::Crashed);
            }
        }
        self.inner.append(name, data)?;
        self.appended += data.len() as u64;
        Ok(())
    }

    fn write(&mut self, name: &str, data: &[u8]) -> IoResult<()> {
        self.gate()?;
        self.inner.write(name, data)
    }

    fn truncate(&mut self, name: &str, len: u64) -> IoResult<()> {
        self.gate()?;
        self.inner.truncate(name, len)
    }

    fn sync(&mut self, name: &str) -> IoResult<()> {
        self.gate()?;
        let this = self.syncs;
        self.syncs += 1;
        if self.plan.fail_sync_at == Some(this) {
            return Err(IoError::Failed(format!("injected fsync failure (sync #{this}, {name})")));
        }
        self.inner.sync(name)
    }

    fn rename(&mut self, from: &str, to: &str) -> IoResult<()> {
        self.gate()?;
        self.inner.rename(from, to)
    }

    fn remove(&mut self, name: &str) -> IoResult<()> {
        self.gate()?;
        self.inner.remove(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crash_budget_tears_the_overrunning_append() {
        let disk = MemIo::new();
        let mut io = FailpointIo::new(disk.clone(), FaultPlan::crash_after(5));
        io.append("wal", b"abc").unwrap(); // 3 of 5
        assert_eq!(io.append("wal", b"defg"), Err(IoError::Crashed)); // 2 fit
        assert!(io.is_crashed());
        assert_eq!(disk.file("wal").unwrap(), b"abcde", "exactly the budget landed");
        // Everything after the crash fails, nothing else leaks to disk.
        assert_eq!(io.append("wal", b"x"), Err(IoError::Crashed));
        assert_eq!(io.sync("wal"), Err(IoError::Crashed));
        assert_eq!(io.read("wal"), Err(IoError::Crashed));
        assert_eq!(io.list(), Err(IoError::Crashed));
        assert_eq!(disk.file("wal").unwrap(), b"abcde");
    }

    #[test]
    fn crash_budget_zero_tears_immediately_and_exact_fit_survives() {
        let mut io = FailpointIo::new(MemIo::new(), FaultPlan::crash_after(0));
        assert_eq!(io.append("wal", b"x"), Err(IoError::Crashed));
        assert_eq!(io.disk().file("wal").unwrap(), b"");

        let mut io = FailpointIo::new(MemIo::new(), FaultPlan::crash_after(3));
        io.append("wal", b"abc").unwrap(); // exact fit: not a crash
        assert!(!io.is_crashed());
        assert_eq!(io.append("wal", b""), Ok(())); // zero-byte append still fits
        assert_eq!(io.append("wal", b"d"), Err(IoError::Crashed));
    }

    #[test]
    fn nth_sync_fails_without_killing_the_handle() {
        let mut io = FailpointIo::new(MemIo::new(), FaultPlan::fail_sync(1));
        io.append("wal", b"abc").unwrap();
        io.sync("wal").unwrap(); // #0 fine
        let err = io.sync("wal").unwrap_err(); // #1 injected
        assert!(matches!(&err, IoError::Failed(m) if m.contains("injected fsync")), "{err:?}");
        assert!(!io.is_crashed());
        io.sync("wal").unwrap(); // #2 fine again — the engine decides to poison, not the io
    }

    #[test]
    fn read_bit_flip_corrupts_the_view_not_the_disk() {
        let disk = MemIo::new();
        let mut io = FailpointIo::new(disk.clone(), FaultPlan::flip_bit("wal", 1));
        io.append("wal", b"abc").unwrap();
        assert_eq!(io.read("wal").unwrap().unwrap(), b"a\x63c", "bit 0 of 'b' flipped");
        assert_eq!(io.read("other"), Ok(None));
        io.append("other", b"xy").unwrap();
        assert_eq!(io.read("other").unwrap().unwrap(), b"xy", "other files untouched");
        assert_eq!(disk.file("wal").unwrap(), b"abc", "disk itself is clean");
        // Offset past EOF flips nothing.
        let io2 = FailpointIo::new(disk.clone(), FaultPlan::flip_bit("wal", 99));
        assert_eq!(io2.read("wal").unwrap().unwrap(), b"abc");
    }
}
