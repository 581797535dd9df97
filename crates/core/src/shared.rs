//! A thread-safe handle to a [`SeqIndex`] for concurrent serving.
//!
//! The read path of every query engine takes `&SeqIndex` and is already
//! interior-mutable where it must be (access counters are atomics, the
//! buffer pool and node stores lock internally), so any number of queries
//! may run concurrently under a shared read guard. Structural mutation —
//! [`SeqIndex::insert_series`] / [`SeqIndex::delete_series`] — takes
//! `&mut SeqIndex` and therefore the exclusive write guard.
//!
//! [`SharedIndex`] packages that discipline: a cheap cloneable
//! `Arc<RwLock<SeqIndex>>` whose lock recovers from poisoning (see
//! [`pagestore::sync`]), so a panicking query thread cannot wedge a
//! server. It is the per-shard lock of the `simshard` crate's shard
//! group, which owns everything above it: the write-ahead log, fencing
//! and replication. This module keeps the [`DurableError`] type those
//! paths report.
//!
//! # Write-guard starvation discipline
//!
//! The write guard is exclusive for the *entire* mutation: while one
//! `insert_series` runs (feature extraction, heap append, R*-tree insert
//! with possible forced reinserts and splits), every reader of the same
//! handle blocks. That is inherent to the single-lock design, so two rules
//! keep the stall bounded:
//!
//! 1. **Never hold the write guard across anything but the mutation
//!    itself.** Callers must prepare inputs (parse, validate, materialise
//!    the [`tseries::TimeSeries`]) *before* taking the guard and must drop
//!    it before serialising the response. Holding it across I/O to a
//!    client would convert one slow connection into a server-wide stall.
//! 2. **Shard to bound the blast radius.** A mutation can only starve
//!    readers of *its own* lock. The `simshard` crate partitions a corpus
//!    across N independent `SharedIndex` handles precisely so that an
//!    insert write-locks one shard while the other N−1 keep serving reads
//!    concurrently — a property its `reads_proceed_during_insert`
//!    regression test asserts by querying shard B while shard A's write
//!    guard is deliberately held.

use crate::index::SeqIndex;
use crate::plan::{self, LogicalQuery, PhysicalPlan, PlanOutput, QueryEpoch};
use crate::report::QueryError;
use crate::stats::StatsRegistry;
use pagestore::sync::RwLock;
use simwal::WalError;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLockReadGuard, RwLockWriteGuard};
use tseries::TimeSeries;

// The whole point of SharedIndex is crossing threads; fail the build, not
// a runtime, if an index component ever stops being thread-safe.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SeqIndex>();
    assert_send_sync::<SharedIndex>();
};

/// Errors from the durable (logged) mutation and recovery paths: either
/// the underlying index operation failed, or the durability machinery
/// itself did. Both stay fully typed so servers can map them to protocol
/// error codes and tests can assert *which* failure fired.
#[derive(Debug)]
pub enum DurableError {
    /// The index mutation/replay failed (device fault, bad input).
    Query(QueryError),
    /// The write-ahead log failed (append, fsync, epoch install).
    Wal(WalError),
    /// A snapshot load/save failed.
    Io(std::io::Error),
    /// An earlier WAL append failed *after* its mutation had applied in
    /// memory, so the log no longer covers the live state; every further
    /// mutation (and checkpoint) is refused, because acknowledging one
    /// would make it unrecoverable. Reopen the index to resume from the
    /// acknowledged prefix.
    Poisoned,
    /// A replicated frame addressed state this replica does not hold —
    /// an insert for an ordinal beyond the current prefix. Applying it
    /// would tear a hole in the exact-prefix guarantee, so the frame is
    /// refused; the follower must re-handshake (the primary falls back
    /// to a snapshot transfer).
    Gap {
        /// LSN of the offending frame.
        lsn: u64,
        /// Global ordinal the frame addressed.
        global: u64,
        /// Sequences the replica actually holds.
        len: usize,
    },
    /// A peer was promoted past this node's timeline: the fencing token
    /// forbids writes until the node re-syncs onto the new timeline
    /// (which clears the fence). Accepting a write here would put it on
    /// a timeline the rest of the fleet has abandoned — split-brain.
    Fenced {
        /// The minimum epoch this node may accept writes at.
        fence: u64,
        /// The epoch the node is actually at.
        epoch: u64,
    },
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Query(e) => write!(f, "{e}"),
            Self::Wal(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            Self::Poisoned => write!(
                f,
                "index poisoned by an earlier wal append failure; \
                 mutations are rejected until the index is reopened"
            ),
            Self::Gap { lsn, global, len } => write!(
                f,
                "replication gap: frame lsn {lsn} addresses ordinal {global} \
                 but the replica holds only {len} sequences; re-handshake \
                 for a snapshot transfer"
            ),
            Self::Fenced { fence, epoch } => write!(
                f,
                "node is fenced at epoch {fence} (currently at epoch {epoch}): \
                 a peer was promoted onto a newer timeline; re-sync from the \
                 new primary before accepting writes"
            ),
        }
    }
}

impl std::error::Error for DurableError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Query(e) => Some(e),
            Self::Wal(e) => Some(e),
            Self::Io(e) => Some(e),
            Self::Poisoned | Self::Gap { .. } | Self::Fenced { .. } => None,
        }
    }
}

impl From<QueryError> for DurableError {
    fn from(e: QueryError) -> Self {
        Self::Query(e)
    }
}

impl From<WalError> for DurableError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

impl From<std::io::Error> for DurableError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// A cloneable, thread-safe handle to one [`SeqIndex`].
#[derive(Clone)]
pub struct SharedIndex {
    inner: Arc<RwLock<SeqIndex>>,
    stats: Arc<StatsRegistry>,
    /// Mutations made through [`Self::insert_series`] /
    /// [`Self::delete_series`] since this handle was created — the
    /// fine-grained half of [`QueryEpoch`].
    mutations: Arc<AtomicU64>,
}

impl std::fmt::Debug for SharedIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SharedIndex").finish_non_exhaustive()
    }
}

impl SharedIndex {
    /// Wraps an index for shared use.
    pub fn new(index: SeqIndex) -> Self {
        Self {
            inner: Arc::new(RwLock::new(index)),
            stats: Arc::new(StatsRegistry::new()),
            mutations: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Inserts a sequence under the write guard, bumping the mutation
    /// counter before the guard drops so no reader observes the new state
    /// under the old [`QueryEpoch`]. Nothing is logged: durable mutation
    /// goes through the shard group that owns this lock.
    pub fn insert_series(&self, ts: &TimeSeries) -> Result<usize, QueryError> {
        let mut guard = self.inner.write();
        let ordinal = guard.insert_series(ts)?;
        self.mutations.fetch_add(1, Ordering::Release);
        Ok(ordinal)
    }

    /// Tombstones a sequence under the write guard (see
    /// [`Self::insert_series`]); a no-op delete leaves the epoch alone.
    pub fn delete_series(&self, ordinal: usize) -> Result<bool, QueryError> {
        let mut guard = self.inner.write();
        let deleted = guard.delete_series(ordinal)?;
        if deleted {
            self.mutations.fetch_add(1, Ordering::Release);
        }
        Ok(deleted)
    }

    /// The runtime-statistics registry the planner reads and the plan
    /// executor writes. Shared across clones of this handle.
    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    /// The cache epoch of the current state: results cached under an
    /// equal epoch are exact for it, and every mutation made through this
    /// handle moves it.
    pub fn query_epoch(&self) -> QueryEpoch {
        QueryEpoch {
            epoch: 0,
            mutations: self.mutations.load(Ordering::Acquire),
        }
    }

    /// Plans and executes a logical query against this index under the
    /// shared read guard.
    pub fn execute(
        &self,
        lq: &LogicalQuery,
        query: Option<&TimeSeries>,
    ) -> Result<(PhysicalPlan, PlanOutput), QueryError> {
        let guard = self.inner.read();
        plan::run(&guard, &self.stats, lq, query)
    }

    /// Acquires a shared read guard: queries, scans, counter reads.
    /// Any number of readers proceed concurrently.
    pub fn read(&self) -> RwLockReadGuard<'_, SeqIndex> {
        self.inner.read()
    }

    /// Acquires the exclusive write guard: inserts and deletes. Mutating
    /// through it bypasses the mutation counter and any log.
    pub fn write(&self) -> RwLockWriteGuard<'_, SeqIndex> {
        self.inner.write()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{mtindex, seqscan};
    use crate::index::IndexConfig;
    use crate::query::RangeSpec;
    use crate::transform::Family;
    use tseries::{Corpus, CorpusKind};

    fn shared(n: usize) -> (Corpus, SharedIndex) {
        let c = Corpus::generate(CorpusKind::SyntheticWalks, n, 64, 3);
        let idx = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        (c, SharedIndex::new(idx))
    }

    #[test]
    fn concurrent_readers_agree_with_single_thread() {
        let (c, shared) = shared(120);
        let family = Family::moving_averages(4..=11, 64);
        let spec = RangeSpec::correlation(0.95);
        let want = {
            let idx = shared.read();
            mtindex::range_query(&idx, &c.series()[5], &family, &spec)
                .unwrap()
                .sorted_pairs()
        };
        std::thread::scope(|s| {
            for _ in 0..8 {
                let (shared, c, family, spec, want) = (&shared, &c, &family, &spec, &want);
                s.spawn(move || {
                    for _ in 0..5 {
                        let idx = shared.read();
                        let got = mtindex::range_query(&idx, &c.series()[5], family, spec)
                            .unwrap()
                            .sorted_pairs();
                        assert_eq!(&got, want);
                    }
                });
            }
        });
    }

    #[test]
    fn writer_excludes_readers_but_not_correctness() {
        let (c, shared) = shared(60);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 8, 64, 99);
        let family = Family::moving_averages(2..=6, 64);
        // Safe policy: scan ≡ mt is guaranteed on arbitrary workloads
        // (Paper's angle windows are heuristic and may falsely dismiss).
        let spec = RangeSpec::correlation(0.9).with_policy(crate::query::FilterPolicy::Safe);
        std::thread::scope(|s| {
            // One writer inserting, many readers querying throughout.
            let w = &shared;
            s.spawn(move || {
                for ts in extra.series() {
                    w.write().insert_series(ts).unwrap();
                }
            });
            for t in 0..4 {
                let (shared, c, family, spec) = (&shared, &c, &family, &spec);
                s.spawn(move || {
                    for i in 0..10 {
                        let idx = shared.read();
                        let q = &c.series()[(t * 10 + i) % 60];
                        let a = seqscan::range_query(&idx, q, family, spec).unwrap();
                        let b = mtindex::range_query(&idx, q, family, spec).unwrap();
                        assert_eq!(a.sorted_pairs(), b.sorted_pairs());
                    }
                });
            }
        });
        assert_eq!(shared.read().len(), 68);
    }
}
