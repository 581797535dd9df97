#![warn(missing_docs)]
//! # simwal — durability substrate for `simseq`
//!
//! A checksummed, length-prefixed append-only operation log with an
//! epoch-stamped header, torn-tail detection, configurable fsync policy,
//! and a checkpoint protocol. Indexes apply a mutation first, append the
//! matching [`WalOp`] frame before acknowledging it, and on restart replay
//! the tail of the log on top of the last checkpointed snapshot — so the
//! recovered state is always an exact *prefix* of the acknowledged
//! mutation schedule, never a rearrangement and never garbage.
//!
//! The crate is deliberately index-agnostic: it knows how to make frames
//! durable and how to hand them back after a crash, nothing else. The
//! replay semantics (idempotent apply, shard placement) live with the
//! index layer in `simshard::index`.
//!
//! On-disk layout of a WAL directory:
//!
//! ```text
//! <dir>/MANIFEST   "simwal v1\nepoch N\n"      (temp + rename, fsynced)
//! <dir>/wal.log    [magic "SIMWALOG"][epoch u64 LE] then frames
//! <dir>/LOCK       advisory lock, pid of the owning process
//! ```
//!
//! Frame format (little-endian): `[len u32][crc32 u32][payload]`, where
//! the CRC covers the payload only and `len` is the payload length. A
//! frame whose length prefix overruns the file, whose CRC mismatches, or
//! whose payload fails to decode marks a *torn tail*: [`Wal::open`]
//! truncates the log there and reports the dropped byte count instead of
//! erroring — a crash mid-append is an expected state, not corruption.
//!
//! Checkpoint protocol (orchestrated by the caller, who owns the
//! snapshot): write the snapshot atomically stamped with `epoch + 1`, then
//! call [`Wal::install_epoch`]`(epoch + 1)`, which bumps the manifest and
//! resets the log, in that order. Every crash point in that sequence is
//! recoverable: [`Wal::open`] reconciles the snapshot epoch the caller
//! passes in against the manifest and the log header, discarding a log
//! that a newer snapshot has already absorbed.

pub mod crc32;
pub mod frame;
pub mod lock;
mod log;

pub use frame::{decode_frames, encode_frame, FrameIter, WalOp};
pub use lock::DirLock;
pub use log::{FsyncPolicy, ReplayReport, Wal, WalStats, HEADER_LEN, LOG_FILE, MANIFEST_FILE};

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors raised by the durability layer.
#[derive(Debug)]
pub enum WalError {
    /// An underlying filesystem operation failed.
    Io(io::Error),
    /// The directory is locked by another live process.
    Locked {
        /// Directory whose `LOCK` file is held.
        dir: PathBuf,
        /// Pid recorded in the lock file.
        pid: u32,
    },
    /// The directory contents are not a WAL (bad magic, mangled manifest).
    /// Torn tails are *not* corruption — they are truncated silently.
    Corrupt(String),
    /// The log's epoch is ahead of the snapshot it is paired with: the
    /// WAL belongs to a different (or newer) index directory.
    EpochMismatch {
        /// Epoch found in the log/manifest.
        wal: u64,
        /// Epoch the paired snapshot expects.
        snapshot: u64,
    },
    /// An earlier append or fsync failed in a way that left the log tail
    /// in an unknown state (the rewind to the last good frame itself
    /// failed, or an fsync error made the page cache untrustworthy).
    /// Every further append is refused: acknowledging a mutation after
    /// the torn region would be acked-but-unrecoverable, because replay
    /// truncates at the first bad frame.
    Poisoned {
        /// Directory of the poisoned log.
        dir: PathBuf,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "wal i/o failed: {e}"),
            Self::Locked { dir, pid } => {
                write!(f, "{} is locked by live process {pid}", dir.display())
            }
            Self::Corrupt(what) => write!(f, "wal directory corrupt: {what}"),
            Self::EpochMismatch { wal, snapshot } => write!(
                f,
                "wal epoch {wal} is ahead of snapshot epoch {snapshot}: \
                 log and index directories do not belong together"
            ),
            Self::Poisoned { dir } => write!(
                f,
                "wal at {} is poisoned by an earlier append/fsync failure; \
                 reopen to recover the acknowledged prefix",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for WalError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for WalError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

/// Writes `bytes` to `path` atomically: temp file in the same directory,
/// fsync, rename over the target, fsync the directory. The unit of
/// durability every manifest and metadata pointer in the workspace relies
/// on — after a crash the file holds either the old bytes or the new,
/// never a mix.
pub fn atomic_write(path: &std::path::Path, bytes: &[u8]) -> io::Result<()> {
    use std::io::Write as _;
    let tmp = path.with_extension("tmp");
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    sync_dir(path.parent().unwrap_or_else(|| std::path::Path::new(".")))
}

/// Fsyncs a directory so a rename performed inside it survives a crash.
/// Best-effort on filesystems that refuse to open directories.
pub fn sync_dir(dir: &std::path::Path) -> io::Result<()> {
    match std::fs::File::open(dir) {
        Ok(d) => d.sync_all().or(Ok(())),
        Err(_) => Ok(()),
    }
}
