//! [`ShardedIndex`]: the one index handle above the per-shard lock. It
//! holds N independent [`SeqIndex`] shards behind per-shard
//! [`SharedIndex`] locks, a stable global-ordinal ↔ (shard, local)
//! mapping, and — when opened durably — the node's one write-ahead log
//! and its replication and fencing state.
//!
//! # Layouts
//!
//! A directory with a `sharding.txt` manifest holds one `shard-N/`
//! snapshot per shard. A directory without one is the single-index
//! layout: it opens as a 1-shard group whose shard lives at the directory
//! root, and its snapshot epoch is the epoch authority. A 1-shard group's
//! local ordinals are its global ones.
//!
//! # Locking
//!
//! Each shard has its own `RwLock`, so a mutation write-locks exactly one
//! shard while the other N−1 keep serving reads (the starvation discipline
//! documented in [`simquery::shared`]). Every mutation, checkpoint and
//! save is serialised by a dedicated insert gate — never by locking every
//! shard — and the global map takes its own brief write lock only *after*
//! the shard-local insert has succeeded, so concurrent readers translate
//! ordinals against a map that always describes fully-inserted sequences.
//! The converse — a shard read observing a local ordinal the reader's map
//! snapshot predates — is handled by the gather's defensive snapshot
//! translation (see [`crate::gather`]'s linearization docs).
//!
//! On a durable index the gate also serialises LSN allocation with the
//! append+fsync of every mutation, so the one log holds frames in LSN
//! order and an acknowledged mutation implies every lower LSN is durable.

use crate::cfg::{PartitionerKind, ShardConfig};
use crate::partition::{Partitioner, ShardMap};
use pagestore::sync::{Mutex, RwLock};
use pagestore::{PageDevice, PageError};
use simquery::index::{AccessCounters, DeviceWrap, IndexConfig, SeqIndex};
use simquery::plan::QueryEpoch;
use simquery::report::QueryError;
use simquery::shared::{DurableError, SharedIndex};
use simquery::stats::StatsRegistry;
use simwal::{DirLock, FsyncPolicy, ReplayReport, Wal, WalError, WalOp, WalStats};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use tseries::{Corpus, TimeSeries};

/// Errors raised while building or opening an index.
#[derive(Debug)]
pub enum ShardError {
    /// The corpus is empty or has zero-length sequences.
    EmptyCorpus,
    /// The partitioner assigned no sequences to this shard — with fewer
    /// sequences than shards (or a pathological hash on a tiny corpus) the
    /// split is meaningless; lower the shard count.
    EmptyShard(usize),
    /// Invalid configuration (shard count out of bounds, bad partitioner),
    /// or a snapshot and log that do not belong together.
    Config(String),
    /// A page device failed during construction.
    Page(PageError),
    /// The write-ahead log failed (lock, epoch reconciliation).
    Wal(WalError),
    /// A snapshot load/save failed.
    Io(std::io::Error),
    /// The WAL root holds `shard-N/` logs written by a build that kept one
    /// log per shard. This build logs one stream at the root and would
    /// silently skip their acknowledged frames, so it refuses to open.
    PerShardWal(PathBuf),
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyCorpus => write!(f, "cannot shard an empty corpus"),
            Self::EmptyShard(s) => {
                write!(f, "shard {s} received no sequences; lower the shard count")
            }
            Self::Config(msg) => write!(f, "bad shard configuration: {msg}"),
            Self::Page(e) => write!(f, "page access failed building shard: {e}"),
            Self::Wal(e) => write!(f, "{e}"),
            Self::Io(e) => write!(f, "snapshot i/o failed: {e}"),
            Self::PerShardWal(dir) => write!(
                f,
                "{} holds per-shard write-ahead logs (shard-N/) from an older build, \
                 which this build does not replay; checkpoint them with the previous \
                 build (`simseq recover`), then remove the old shard-N/ log directories",
                dir.display()
            ),
        }
    }
}

impl std::error::Error for ShardError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Page(e) => Some(e),
            Self::Wal(e) => Some(e),
            Self::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PageError> for ShardError {
    fn from(e: PageError) -> Self {
        Self::Page(e)
    }
}

impl From<WalError> for ShardError {
    fn from(e: WalError) -> Self {
        Self::Wal(e)
    }
}

impl From<std::io::Error> for ShardError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<QueryError> for ShardError {
    fn from(e: QueryError) -> Self {
        match e {
            QueryError::Io(p) => Self::Page(p),
            other => Self::Config(other.to_string()),
        }
    }
}

/// Bit position of the shard id inside a frame's `local` field. A frame
/// carries `shard << 48 | local`, so shard 0 frames — every frame of a
/// single-index log — keep the plain local ordinal.
const SHARD_SHIFT: u32 = 48;

fn pack(shard: usize, local: usize) -> u64 {
    ((shard as u64) << SHARD_SHIFT) | local as u64
}

fn unpack(local: u64) -> (usize, usize) {
    (
        (local >> SHARD_SHIFT) as usize,
        (local & ((1 << SHARD_SHIFT) - 1)) as usize,
    )
}

/// The durability attachment: the node's one log and the directory
/// checkpoints go to.
struct Durable {
    wal: Wal,
    dir: PathBuf,
}

/// What a replication primary transfers when a follower cannot resume
/// from its log: the ordinal space at one `(epoch, next_lsn)` cut.
#[derive(Clone, Debug)]
pub struct SnapshotCut {
    /// Checkpoint epoch of the cut.
    pub epoch: u64,
    /// First LSN after the cut.
    pub next_lsn: u64,
    /// Global ordinals below the cut (tombstoned included).
    pub len: usize,
    /// Tombstoned global ordinals below the cut.
    pub dead: Vec<usize>,
}

/// A corpus partitioned across N independent [`SeqIndex`] shards.
pub struct ShardedIndex {
    shards: Vec<SharedIndex>,
    map: RwLock<ShardMap>,
    insert_gate: Mutex<()>,
    partitioner: Partitioner,
    kind: PartitionerKind,
    // Length of every sequence; a replica snapshot install may change it.
    seq_len: AtomicUsize,
    // Whether the single shard lives at the directory root (the
    // single-index layout, no `sharding.txt`).
    flat: bool,
    // Checkpoint epoch of the snapshot (1 for fresh builds); the
    // authority the log is reconciled against.
    epoch: AtomicU64,
    // Next log sequence number; the sharded manifest records it at
    // checkpoint.
    next_lsn: AtomicU64,
    durable: Option<Durable>,
    // Set when a WAL append failed after its mutation applied: the log
    // has a hole the live state depends on, so no later mutation (or
    // checkpoint) may be acknowledged until the index is reopened.
    poisoned: AtomicBool,
    // Advisory lock on a sharded directory's root, held while open (a
    // single-index directory's lock is held by its shard).
    _dir_lock: Option<DirLock>,
    // Planner statistics for the group (shard 0's tree shape is the
    // planning sample; dispatch and family statistics are group-wide).
    stats: Arc<StatsRegistry>,
    // Mutations acknowledged since open — the fine-grained half of
    // [`QueryEpoch`], bumped under the owning shard's write guard.
    mutations: AtomicU64,
    // Highest primary LSN applied through `apply_replicated` (or, on a
    // durable node, replayed from the local log).
    applied_lsn: AtomicU64,
    // The primary's checkpoint epoch as of the last snapshot install or
    // handshake — a follower's timeline when it has no log of its own.
    repl_epoch: AtomicU64,
    // Fencing token without a log (`0` = unfenced); a durable node keeps
    // its token in the WAL manifest.
    mem_fence: AtomicU64,
}

impl fmt::Debug for ShardedIndex {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ShardedIndex")
            .field("shards", &self.shards.len())
            .field("partitioner", &self.kind)
            .field("len", &self.len())
            .finish_non_exhaustive()
    }
}

/// The parts of a group before it is assembled: a snapshot read from
/// disk, a fresh build, or a handle wrapped in memory.
struct Loaded {
    shards: Vec<SharedIndex>,
    map: ShardMap,
    kind: PartitionerKind,
    seq_len: usize,
    flat: bool,
    epoch: u64,
    next_lsn: u64,
    lock: Option<DirLock>,
}

impl Loaded {
    /// One shard at the directory root: the single-index layout, whose
    /// snapshot epoch is the epoch authority.
    fn flat(shared: SharedIndex) -> Self {
        let (len, seq_len, epoch) = {
            let index = shared.read();
            (index.len(), index.seq_len(), index.wal_epoch())
        };
        Self {
            shards: vec![shared],
            map: ShardMap::from_assignment(1, &vec![0; len]),
            kind: PartitionerKind::default(),
            seq_len,
            flat: true,
            epoch,
            next_lsn: 1,
            lock: None,
        }
    }
}

impl ShardedIndex {
    fn assemble(loaded: Loaded, stats: Arc<StatsRegistry>) -> Self {
        Self {
            partitioner: Partitioner::new(loaded.kind, loaded.shards.len()),
            shards: loaded.shards,
            map: RwLock::new(loaded.map),
            insert_gate: Mutex::new(()),
            kind: loaded.kind,
            seq_len: AtomicUsize::new(loaded.seq_len),
            flat: loaded.flat,
            epoch: AtomicU64::new(loaded.epoch),
            next_lsn: AtomicU64::new(loaded.next_lsn),
            durable: None,
            poisoned: AtomicBool::new(false),
            _dir_lock: loaded.lock,
            stats,
            mutations: AtomicU64::new(0),
            applied_lsn: AtomicU64::new(0),
            repl_epoch: AtomicU64::new(0),
            mem_fence: AtomicU64::new(0),
        }
    }

    /// Partitions `corpus` and builds one index per shard on plain
    /// in-memory disks. Every shard must receive at least one sequence.
    pub fn build(
        corpus: &Corpus,
        cfg: ShardConfig,
        index_cfg: IndexConfig,
    ) -> Result<Self, ShardError> {
        Self::build_with(corpus, cfg, |_, sub| Ok(SeqIndex::build(sub, index_cfg)))
    }

    /// [`Self::build`] with caller-supplied page devices per shard — e.g.
    /// a [`pagestore::FaultyDisk`] on one shard for fault-injection tests.
    /// The factory receives the shard id and returns its
    /// `(tree, heap)` devices.
    pub fn build_on(
        corpus: &Corpus,
        cfg: ShardConfig,
        index_cfg: IndexConfig,
        mut devices: impl FnMut(usize) -> (Arc<dyn PageDevice>, Arc<dyn PageDevice>),
    ) -> Result<Self, ShardError> {
        Self::build_with(corpus, cfg, |shard, sub| {
            let (tree, heap) = devices(shard);
            SeqIndex::build_on(sub, index_cfg, tree, heap)
        })
    }

    fn build_with(
        corpus: &Corpus,
        cfg: ShardConfig,
        mut build: impl FnMut(usize, &Corpus) -> Result<Option<SeqIndex>, PageError>,
    ) -> Result<Self, ShardError> {
        let cfg = cfg.validated().map_err(ShardError::Config)?;
        if corpus.is_empty() || corpus.series_len() == 0 {
            return Err(ShardError::EmptyCorpus);
        }
        let partitioner = Partitioner::new(cfg.partitioner, cfg.shards);
        let assignment = partitioner.assign_bulk(corpus.len());
        let map = ShardMap::from_assignment(cfg.shards, &assignment);

        let mut shards = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let globals = map.globals_of(shard);
            if globals.is_empty() {
                return Err(ShardError::EmptyShard(shard));
            }
            let names = globals.iter().map(|&g| corpus.names()[g].clone()).collect();
            let series = globals
                .iter()
                .map(|&g| corpus.series()[g].clone())
                .collect();
            let sub = Corpus::from_parts(names, series);
            let index = build(shard, &sub)?.ok_or(ShardError::EmptyShard(shard))?;
            shards.push(SharedIndex::new(index));
        }
        let loaded = Loaded {
            shards,
            map,
            kind: cfg.partitioner,
            seq_len: corpus.series_len(),
            flat: false,
            epoch: 1,
            next_lsn: 1,
            lock: None,
        };
        Ok(Self::assemble(loaded, Arc::new(StatsRegistry::new())))
    }

    /// A 1-shard group over an existing handle: the group reads and
    /// writes through the same lock and plans with the same statistics,
    /// so the handle's other clones see every mutation made here.
    pub fn from_shared(shared: SharedIndex) -> Self {
        let stats = Arc::clone(shared.stats());
        Self::assemble(Loaded::flat(shared), stats)
    }

    /// Repartitions an existing single index: fetches every record from
    /// its heap (tombstoned ordinals included — the heap is append-only),
    /// rebuilds N shards, and replays the tombstones. Global ordinals are
    /// preserved, so results match the source index exactly.
    pub fn from_index(
        index: &SeqIndex,
        cfg: ShardConfig,
        index_cfg: IndexConfig,
    ) -> Result<Self, ShardError> {
        let mut names = Vec::with_capacity(index.len());
        let mut series = Vec::with_capacity(index.len());
        for g in 0..index.len() {
            names.push(format!("s{g}"));
            series.push(index.fetch_series(g)?);
        }
        let sharded = Self::build(&Corpus::from_parts(names, series), cfg, index_cfg)?;
        for g in index.deleted_ordinals() {
            sharded.delete_series(g).map_err(|e| match e {
                DurableError::Query(q) => ShardError::from(q),
                other => ShardError::Config(other.to_string()),
            })?;
        }
        Ok(sharded)
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard handles, for scatter execution and serving.
    pub fn shards(&self) -> &[SharedIndex] {
        &self.shards
    }

    /// The shard count and partitioner in effect.
    pub fn config(&self) -> ShardConfig {
        ShardConfig {
            shards: self.shards.len(),
            partitioner: self.kind,
        }
    }

    /// The partitioner in effect.
    pub fn partitioner_kind(&self) -> PartitionerKind {
        self.kind
    }

    /// Length of every sequence.
    pub fn seq_len(&self) -> usize {
        self.seq_len.load(Ordering::Acquire)
    }

    /// Total sequences across all shards (tombstoned included).
    pub fn len(&self) -> usize {
        self.map.read().len()
    }

    /// True when no sequences are mapped.
    pub fn is_empty(&self) -> bool {
        self.map.read().is_empty()
    }

    /// The tallest shard's R*-tree height.
    pub fn height(&self) -> u32 {
        self.shards
            .iter()
            .map(|s| s.read().height())
            .max()
            .unwrap_or(0)
    }

    /// R*-tree leaf capacity (every shard is built with the same one).
    pub fn leaf_capacity(&self) -> usize {
        self.shards[0].read().leaf_capacity()
    }

    /// Degenerate sequences skipped at build, across all shards.
    pub fn skipped_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().skipped().len()).sum()
    }

    /// Tombstoned sequences across all shards.
    pub fn deleted_count(&self) -> usize {
        self.shards.iter().map(|s| s.read().deleted_count()).sum()
    }

    /// Tombstoned global ordinals, ascending.
    pub fn deleted_ordinals(&self) -> Vec<usize> {
        let map = self.map.read();
        let mut dead: Vec<usize> = self
            .shards
            .iter()
            .enumerate()
            .flat_map(|(s, shard)| {
                let globals = map.globals_of(s);
                shard
                    .read()
                    .deleted_ordinals()
                    .into_iter()
                    .filter_map(|l| globals.get(l).copied())
                    .collect::<Vec<_>>()
            })
            .collect();
        dead.sort_unstable();
        dead
    }

    /// Sequences per shard.
    pub fn shard_loads(&self) -> Vec<usize> {
        self.map.read().loads()
    }

    /// Snapshot of the global map (brief read lock; the copy stays valid
    /// because mapped ordinals never move).
    pub fn map_snapshot(&self) -> ShardMap {
        self.map.read().clone()
    }

    /// `(shard, local)` of a global ordinal.
    pub fn locate(&self, global: usize) -> Option<(usize, usize)> {
        self.map.read().locate(global)
    }

    /// Picks the global ordinal and shard of the next insert. The caller
    /// holds the insert gate.
    fn place(&self) -> (usize, usize) {
        let map = self.map.read();
        let g = map.len();
        let mut loads = map.loads();
        // Least-loaded placement (the Range policy) counts *live*
        // sequences: a shard full of tombstones has capacity, not load.
        if self.kind == PartitionerKind::Range {
            for (s, load) in loads.iter_mut().enumerate() {
                *load = load.saturating_sub(self.shards[s].read().deleted_count());
            }
        }
        (g, self.partitioner.assign_insert(g, &loads))
    }

    /// Appends the frame `op(lsn)` to the log, when there is one. `lsn` is
    /// a replicated frame's own LSN (the allocator is raised past it) or
    /// `None` to allocate the next one. A failed append poisons the index:
    /// the mutation it describes has already applied.
    fn log(&self, lsn: Option<u64>, op: impl FnOnce(u64) -> WalOp) -> Result<(), DurableError> {
        let Some(d) = &self.durable else {
            return Ok(());
        };
        let lsn = match lsn {
            None => self.next_lsn.fetch_add(1, Ordering::Relaxed),
            Some(lsn) => {
                // Keep the allocator strictly ahead of the shipped LSNs,
                // so a promoted follower never reuses one.
                self.next_lsn
                    .fetch_max(lsn.saturating_add(1), Ordering::Relaxed);
                lsn
            }
        };
        d.wal.append(&op(lsn)).map_err(|e| {
            self.poisoned.store(true, Ordering::Release);
            DurableError::Wal(e)
        })
    }

    /// Inserts under the held gate and logs the insert; see
    /// [`Self::insert_series`].
    fn insert_gated(&self, ts: &TimeSeries, lsn: Option<u64>) -> Result<usize, DurableError> {
        let (global, shard) = self.place();
        let mut guard = self.shards[shard].write();
        let local = guard.insert_series(ts)?;
        let logged = self.log(lsn, |lsn| WalOp::Insert {
            lsn,
            global: global as u64,
            local: pack(shard, local),
            values: ts.values().to_vec(),
        });
        if logged.is_ok() {
            // Bump while still under the shard guard so no reader of it
            // observes the new state under the old epoch.
            self.mutations.fetch_add(1, Ordering::Release);
        }
        drop(guard);
        // Mapped even when the append failed: the shard holds the
        // sequence, so the shard and the global map must not diverge.
        let (g, l) = self.map.write().push(shard);
        debug_assert_eq!((g, l), (global, local), "gate must serialise ordinals");
        logged.map(|()| global)
    }

    /// Tombstones under the held gate and logs an effective delete; see
    /// [`Self::delete_series`].
    fn delete_gated(&self, global: usize, lsn: Option<u64>) -> Result<bool, DurableError> {
        let Some((shard, local)) = self.locate(global) else {
            return Ok(false);
        };
        let mut guard = self.shards[shard].write();
        if !guard.delete_series(local)? {
            return Ok(false);
        }
        self.log(lsn, |lsn| WalOp::Delete {
            lsn,
            global: global as u64,
            local: pack(shard, local),
        })?;
        self.mutations.fetch_add(1, Ordering::Release);
        Ok(true)
    }

    /// Appends a sequence, returning its global ordinal. On a durable
    /// index the mutation is applied, then logged *before* this returns
    /// (under the insert gate, so log order is apply order).
    ///
    /// Only the receiving shard is write-locked; reads on the other N−1
    /// shards proceed throughout (see the module docs on locking).
    pub fn insert_series(&self, ts: &TimeSeries) -> Result<usize, DurableError> {
        let _gate = self.insert_gate.lock();
        self.check_writable()?;
        self.insert_gated(ts, None)
    }

    /// Tombstones a global ordinal. `Ok(false)` when out of range or
    /// already deleted. Write-locks only the owning shard; on a durable
    /// index an effective delete is logged before this returns.
    pub fn delete_series(&self, global: usize) -> Result<bool, DurableError> {
        let _gate = self.insert_gate.lock();
        self.check_writable()?;
        self.delete_gated(global, None)
    }

    /// Fetches a sequence's raw samples by global ordinal (a counted
    /// access on its shard).
    ///
    /// # Panics
    ///
    /// Panics when `global` was never mapped — callers gate on
    /// [`Self::len`] or [`Self::locate`] first, as with
    /// [`SeqIndex::fetch_series`]'s own out-of-range behaviour.
    pub fn fetch_series(&self, global: usize) -> Result<TimeSeries, QueryError> {
        let (shard, local) = self.locate(global).expect("unmapped global ordinal");
        Ok(self.shards[shard].read().fetch_series(local)?)
    }

    /// Access counters of each shard, in shard order — the per-fragment
    /// accounting the paper's cost model sums over.
    pub fn per_shard_counters(&self) -> Vec<AccessCounters> {
        self.shards.iter().map(|s| s.read().counters()).collect()
    }

    /// Aggregate access counters across all shards.
    pub fn counters(&self) -> AccessCounters {
        sum_counters(&self.per_shard_counters())
    }

    /// Zeroes every shard's counters and record pool (cold per-query
    /// accounting, as [`SeqIndex::reset_counters`]).
    pub fn reset_counters(&self) -> Result<(), PageError> {
        for s in &self.shards {
            s.read().reset_counters()?;
        }
        Ok(())
    }

    /// Persists the group under `dir` in its own layout: the
    /// single-index layout for a group opened from one, otherwise
    /// `shard-N/` subdirectories (see [`SeqIndex::save`]) plus a
    /// `sharding.txt` manifest recording the partitioner, the global
    /// assignment order, and the checkpoint epoch. The manifest — the
    /// only pointer to the shard snapshots — is replaced atomically
    /// (temp file + `rename`), and each shard's save is itself
    /// crash-atomic, so an interrupted save never destroys the previous
    /// good state.
    ///
    /// Mutations are quiesced for the duration (insert gate + every
    /// shard's read guard, taken up front): a concurrent insert landing
    /// between one shard's save and the manifest write would otherwise
    /// persist a snapshot whose assignment/`next_lsn` disagree with the
    /// shard contents — a state [`Self::open`] rejects.
    pub fn save(&self, dir: &Path) -> std::io::Result<()> {
        let _gate = self.insert_gate.lock();
        let guards: Vec<_> = self.shards.iter().map(|s| s.read()).collect();
        let refs: Vec<&SeqIndex> = guards.iter().map(|g| &**g).collect();
        self.write_snapshot(dir, &refs, self.epoch.load(Ordering::Acquire))
    }

    fn write_snapshot(&self, dir: &Path, shards: &[&SeqIndex], epoch: u64) -> std::io::Result<()> {
        if self.flat {
            return shards[0].save_with_epoch(dir, epoch);
        }
        std::fs::create_dir_all(dir)?;
        for (i, shard) in shards.iter().enumerate() {
            shard.save_with_epoch(&dir.join(format!("shard-{i}")), epoch)?;
        }
        let map = self.map.read();
        let mut meta = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(meta, "simshard v1");
        let _ = writeln!(meta, "shards {}", self.shards.len());
        let _ = writeln!(meta, "partitioner {}", self.kind);
        let _ = writeln!(meta, "seq_len {}", self.seq_len());
        let _ = writeln!(meta, "epoch {epoch}");
        let _ = writeln!(meta, "next_lsn {}", self.next_lsn.load(Ordering::Relaxed));
        let _ = writeln!(
            meta,
            "assignment {}",
            map.assignment()
                .iter()
                .map(|s| s.to_string())
                .collect::<Vec<_>>()
                .join(",")
        );
        simwal::atomic_write(&dir.join("sharding.txt"), meta.as_bytes())
    }

    /// Reopens a directory in either layout. `heap_pool_pages` sizes each
    /// shard's record buffer pool. Takes the directory's advisory `LOCK`
    /// (kind `WouldBlock` when another process holds it).
    pub fn open(dir: &Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Self::open_impl(dir, heap_pool_pages, |_| None, true)
    }

    /// [`Self::open`] without taking the root or per-shard `LOCK`s (see
    /// [`SeqIndex::open_read_only`]), for read-only consumers that must
    /// coexist with a serving process.
    pub fn open_read_only(dir: &Path, heap_pool_pages: usize) -> std::io::Result<Self> {
        Self::open_impl(dir, heap_pool_pages, |_| None, false)
    }

    /// [`Self::open`] with caller-wrapped page devices per shard (see
    /// [`SeqIndex::open_with`]): the hook receives each shard id and may
    /// return a device wrapper — e.g. arming a [`pagestore::FaultyDisk`]
    /// on one shard's heap — or `None` for a plain open of that shard.
    pub fn open_with(
        dir: &Path,
        heap_pool_pages: usize,
        wrap: impl FnMut(usize) -> Option<DeviceWrap>,
    ) -> std::io::Result<Self> {
        Self::open_impl(dir, heap_pool_pages, wrap, true)
    }

    fn open_impl(
        dir: &Path,
        heap_pool_pages: usize,
        wrap: impl FnMut(usize) -> Option<DeviceWrap>,
        take_lock: bool,
    ) -> std::io::Result<Self> {
        let loaded = load(dir, heap_pool_pages, wrap, take_lock)?;
        for (i, shard) in loaded.shards.iter().enumerate() {
            let (held, mapped) = (shard.read().len(), loaded.map.globals_of(i).len());
            if held != mapped {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("shard {i} holds {held} sequences but the manifest maps {mapped}"),
                ));
            }
        }
        Ok(Self::assemble(loaded, Arc::new(StatsRegistry::new())))
    }

    /// Opens a persisted index in either layout *with the node's one
    /// write-ahead log* at `wal_root`, reconciled against the snapshot's
    /// epoch, and replays the log on top of the snapshot. After this
    /// returns, every mutation is logged before it is acknowledged, and
    /// the recovered state is an exact prefix of the acknowledged
    /// mutation schedule.
    ///
    /// Replay is idempotent against half-checkpoint states: a frame whose
    /// effects a shard snapshot already holds re-extends the global map
    /// without re-applying. A WAL root that still holds per-shard logs is
    /// refused with [`ShardError::PerShardWal`] before anything is read.
    pub fn open_durable(
        dir: &Path,
        wal_root: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
    ) -> Result<(Self, ReplayReport), ShardError> {
        Self::open_durable_with(dir, wal_root, heap_pool_pages, policy, |_| None)
    }

    /// [`Self::open_durable`] with caller-wrapped page devices per shard,
    /// so WAL replay itself runs against armed [`pagestore::FaultyDisk`]s.
    /// Replay faults surface as typed errors ([`ShardError::Page`]) —
    /// never a panic — and leave the log for the next open.
    pub fn open_durable_with(
        dir: &Path,
        wal_root: &Path,
        heap_pool_pages: usize,
        policy: FsyncPolicy,
        wrap: impl FnMut(usize) -> Option<DeviceWrap>,
    ) -> Result<(Self, ReplayReport), ShardError> {
        refuse_per_shard_logs(wal_root)?;
        let mut loaded = load(dir, heap_pool_pages, wrap, true)?;
        let bad = |msg: String| ShardError::Config(msg);
        // During recovery a shard may legitimately hold *more* sequences
        // than the manifest maps (its snapshot comes from a checkpoint
        // the crash interrupted before the manifest bump); the surplus
        // must be covered by replayed frames, checked after replay.
        for (i, shard) in loaded.shards.iter().enumerate() {
            let (held, mapped) = (shard.read().len(), loaded.map.globals_of(i).len());
            if held < mapped {
                return Err(bad(format!(
                    "shard {i} holds {held} sequences but the manifest maps {mapped}"
                )));
            }
        }
        let (wal, ops, report) = Wal::open(wal_root, policy, loaded.epoch)?;
        let mut indexes: Vec<_> = loaded.shards.iter().map(|s| s.write()).collect();
        let map = &mut loaded.map;
        let mut max_lsn = 0;
        for op in &ops {
            max_lsn = max_lsn.max(op.lsn());
            let contradicts = || {
                bad(format!(
                    "wal frame lsn {} contradicts the snapshot mapping — \
                     the log does not belong to this index",
                    op.lsn()
                ))
            };
            match op {
                WalOp::Insert {
                    global,
                    local,
                    values,
                    ..
                } => {
                    let (g, (s, l)) = (*global as usize, unpack(*local));
                    if s >= indexes.len() {
                        return Err(contradicts());
                    }
                    if g < map.len() {
                        // The snapshot already maps this insert.
                        if map.locate(g) != Some((s, l)) {
                            return Err(contradicts());
                        }
                        continue;
                    }
                    if g != map.len() || l != map.globals_of(s).len() || l > indexes[s].len() {
                        return Err(contradicts());
                    }
                    if l == indexes[s].len() {
                        indexes[s].insert_series(&TimeSeries::new(values.clone()))?;
                    }
                    map.push(s);
                }
                WalOp::Delete { global, local, .. } => {
                    let (g, (s, l)) = (*global as usize, unpack(*local));
                    if map.locate(g) != Some((s, l)) {
                        return Err(contradicts());
                    }
                    // Idempotent: Ok(false) when the snapshot already
                    // carries the tombstone.
                    indexes[s].delete_series(l)?;
                }
            }
        }
        for (i, idx) in indexes.iter().enumerate() {
            if idx.len() != map.globals_of(i).len() {
                return Err(bad(format!(
                    "shard {i} holds {} sequences but manifest+wal map {} — \
                     the log does not belong to this index",
                    idx.len(),
                    map.globals_of(i).len()
                )));
            }
        }
        drop(indexes);
        loaded.next_lsn = loaded.next_lsn.max(max_lsn.saturating_add(1));
        let mut sharded = Self::assemble(loaded, Arc::new(StatsRegistry::new()));
        // On a durable follower the local log stores the primary's LSNs,
        // so the replayed maximum is the applied position.
        sharded.applied_lsn = AtomicU64::new(max_lsn);
        sharded.durable = Some(Durable {
            wal,
            dir: dir.to_path_buf(),
        });
        Ok((sharded, report))
    }

    /// Whether this index logs mutations to a write-ahead log.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The planner-statistics registry of this shard group.
    pub fn stats(&self) -> &Arc<StatsRegistry> {
        &self.stats
    }

    /// The cache epoch of the current state: the timeline epoch plus the
    /// mutation counter (see [`simquery::plan::QueryEpoch`]). Mutations
    /// made through a shard's own handle count too, so a group wrapping
    /// a shared handle never serves a result its clones invalidated.
    pub fn query_epoch(&self) -> QueryEpoch {
        let own = self.mutations.load(Ordering::Acquire);
        QueryEpoch {
            epoch: self.timeline_epoch(),
            mutations: self
                .shards
                .iter()
                .fold(own, |acc, s| acc + s.query_epoch().mutations),
        }
    }

    /// Whether an earlier WAL append failure poisoned this index (see
    /// [`DurableError::Poisoned`]). Queries still serve; mutations and
    /// checkpoints are rejected until the index is reopened.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// Current checkpoint epoch, when durable.
    pub fn wal_epoch(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .map(|_| self.epoch.load(Ordering::Acquire))
    }

    /// WAL counter snapshot, when durable.
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.durable.as_ref().map(|d| d.wal.stats())
    }

    /// The next LSN this index would allocate, when durable — the
    /// exclusive upper bound of the log's coverage, which the `REPL`
    /// handshake checks a follower's resume position against.
    pub fn wal_next_lsn(&self) -> Option<u64> {
        self.durable
            .as_ref()
            .map(|_| self.next_lsn.load(Ordering::Relaxed))
    }

    /// `(epoch, next_lsn)` of the log as one consistent cut (read under
    /// the insert gate, so no mutation or checkpoint interleaves), when
    /// durable.
    pub fn wal_position(&self) -> Option<(u64, u64)> {
        let _gate = self.insert_gate.lock();
        self.wal_epoch().zip(self.wal_next_lsn())
    }

    /// Bytes of the log covered by the last fsync — the prefix a crash is
    /// guaranteed to keep, and the bound the replication feeder serves
    /// under. Crash-point tests truncate the log file to this length to
    /// simulate losing the page-cache tail.
    pub fn wal_durable_bytes(&self) -> Option<u64> {
        self.durable.as_ref().map(|d| d.wal.durable_len())
    }

    /// Reads up to `max` frames with `lsn >= from_lsn` from the durable
    /// prefix of the log (see [`Wal::frames_since`]) — the catch-up half
    /// of the replication feeder; frames are fsynced before they are
    /// served, so a shipped frame always survives a crash. `max == 0`
    /// means no cap.
    pub fn frames_since(&self, from_lsn: u64, max: usize) -> Result<Vec<WalOp>, DurableError> {
        self.frames_since_hinted(from_lsn, max, None)
            .map(|(frames, _)| frames)
    }

    /// [`Self::frames_since`] with a `(lsn, byte offset)` resume cursor
    /// (see [`Wal::frames_since_hinted`]): a valid cursor makes tailing
    /// O(frames served); a stale one degrades to a full scan.
    pub fn frames_since_hinted(
        &self,
        from_lsn: u64,
        max: usize,
        hint: Option<(u64, u64)>,
    ) -> Result<(Vec<WalOp>, (u64, u64)), DurableError> {
        match &self.durable {
            Some(d) => Ok(d.wal.frames_since_hinted(from_lsn, max, hint)?),
            None => Err(DurableError::Io(std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "index has no write-ahead log to stream from",
            ))),
        }
    }

    /// The ordinal space a snapshot transfer copies, cut under the insert
    /// gate after syncing the log, so every LSN below the cut is durable
    /// before any of it leaves the node.
    pub fn snapshot_cut(&self) -> Result<SnapshotCut, DurableError> {
        let _gate = self.insert_gate.lock();
        if let Some(d) = &self.durable {
            d.wal.sync()?;
        }
        Ok(SnapshotCut {
            epoch: self.timeline_epoch(),
            next_lsn: self.next_lsn.load(Ordering::Relaxed),
            len: self.len(),
            dead: self.deleted_ordinals(),
        })
    }

    /// Forces every appended frame to stable storage (the `SYNC` op).
    /// `Ok(false)` when the index has no log.
    pub fn sync_wal(&self) -> Result<bool, DurableError> {
        match &self.durable {
            Some(d) => {
                d.wal.sync()?;
                Ok(true)
            }
            None => Ok(false),
        }
    }

    fn check_poisoned(&self) -> Result<(), DurableError> {
        if self.is_poisoned() {
            return Err(DurableError::Poisoned);
        }
        Ok(())
    }

    /// Poisoned or fenced nodes take no writes. A fenced one must not
    /// checkpoint either: each checkpoint bumps the epoch, and enough of
    /// them would walk it up to the fence and silently unfence a node
    /// that never re-synced.
    fn check_writable(&self) -> Result<(), DurableError> {
        self.check_poisoned()?;
        let (fence, epoch) = (self.fence(), self.timeline_epoch());
        if fence > epoch {
            return Err(DurableError::Fenced { fence, epoch });
        }
        Ok(())
    }

    /// Syncs the log, writes the snapshot stamped `new_epoch`, and
    /// installs that epoch in the log (manifest bump + log reset). A
    /// snapshot that *replaces* a multi-shard state is written shard by
    /// shard, so the log moves first: a crash between two shard saves
    /// then opens as a typed epoch mismatch, never as a manifest whose
    /// shards hold unrelated data. The caller holds the insert gate.
    fn persist(
        &self,
        d: &Durable,
        shards: &[&SeqIndex],
        new_epoch: u64,
        replaced: bool,
    ) -> Result<(), DurableError> {
        let log_first = replaced && !self.flat;
        d.wal.sync()?;
        if log_first {
            d.wal.install_epoch(new_epoch)?;
        }
        self.write_snapshot(&d.dir, shards, new_epoch)?;
        if !log_first {
            d.wal.install_epoch(new_epoch)?;
        }
        self.epoch.store(new_epoch, Ordering::Release);
        Ok(())
    }

    /// Checkpoints a durable index: quiesces all mutations (insert gate +
    /// every shard's write guard), syncs the log, saves the snapshot
    /// stamped with the next epoch (for the sharded layout, `sharding.txt`
    /// is the atomic commit point), then resets the log. Returns the new
    /// epoch, or `None` for a non-durable index.
    ///
    /// A crash before the commit leaves epoch-N snapshots plus the log
    /// (replayed idempotently); a crash after it leaves a stale epoch-N
    /// log under an epoch-N+1 snapshot (discarded at open).
    pub fn checkpoint(&self) -> Result<Option<u64>, DurableError> {
        let Some(d) = &self.durable else {
            return Ok(None);
        };
        let _gate = self.insert_gate.lock();
        // A poisoned index holds an applied-but-unlogged mutation that
        // was never acknowledged; folding it into a snapshot would make
        // the recovered state more than the acknowledged prefix.
        self.check_writable()?;
        let guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let refs: Vec<&SeqIndex> = guards.iter().map(|g| &**g).collect();
        let new_epoch = self.epoch.load(Ordering::Acquire) + 1;
        self.persist(d, &refs, new_epoch, false)?;
        Ok(Some(new_epoch))
    }

    /// The epoch of this node on the replication timeline: its own
    /// checkpoint epoch when durable, otherwise the primary epoch learned
    /// over replication. Fencing comparisons happen in this timeline.
    pub fn timeline_epoch(&self) -> u64 {
        self.wal_epoch().unwrap_or_else(|| self.replica_epoch())
    }

    /// The fencing token: the minimum epoch this node may accept writes
    /// at (`0` = unfenced). Persisted in the WAL manifest when durable.
    pub fn fence(&self) -> u64 {
        match &self.durable {
            Some(d) => d.wal.fence(),
            None => self.mem_fence.load(Ordering::Acquire),
        }
    }

    /// Whether the fencing token forbids writes at the current epoch — a
    /// peer was promoted onto a newer timeline and this node has not yet
    /// re-synced onto it. Queries still serve; mutations and checkpoints
    /// are refused (see [`DurableError::Fenced`]).
    pub fn is_fenced(&self) -> bool {
        self.fence() > self.timeline_epoch()
    }

    /// Raises the fencing token to at least `epoch` — the demotion half
    /// of failover. Called when a higher-epoch peer reveals itself (a
    /// `REPL` poll from a follower that already applied frames of a
    /// newer timeline). Durable before it returns on a durable index, so
    /// a fenced ex-primary that crashes restarts fenced. Never lowers an
    /// existing fence; [`Self::install_replica_snapshot`] clears it once
    /// the node has re-synced.
    pub fn fence_at(&self, epoch: u64) -> Result<(), DurableError> {
        match &self.durable {
            Some(d) if epoch > d.wal.fence() => d.wal.set_fence(epoch)?,
            Some(_) => {}
            None => {
                self.mem_fence.fetch_max(epoch, Ordering::AcqRel);
            }
        }
        Ok(())
    }

    /// Promotes this node to primary on a new timeline: with mutations
    /// quiesced, picks an epoch strictly past everything the node has
    /// seen (its own checkpoint sequence, the old primary's epoch, and
    /// any fence), checkpoints the current state under it, and persists
    /// the fencing token at the same epoch — so the switch survives a
    /// crash and the node begins accepting writes from exactly its acked
    /// prefix ([`Self::apply_replicated`] keeps the LSN allocator strictly
    /// ahead of every shipped frame). Returns the new timeline epoch.
    pub fn promote(&self) -> Result<u64, DurableError> {
        let _gate = self.insert_gate.lock();
        self.check_poisoned()?;
        let guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let new_epoch = self
            .timeline_epoch()
            .max(self.replica_epoch())
            .max(self.fence())
            + 1;
        match &self.durable {
            Some(d) => {
                let refs: Vec<&SeqIndex> = guards.iter().map(|g| &**g).collect();
                self.persist(d, &refs, new_epoch, false)?;
                d.wal.set_fence(new_epoch)?;
            }
            None => self.mem_fence.store(new_epoch, Ordering::Release),
        }
        self.repl_epoch.store(new_epoch, Ordering::Release);
        // Bump under the guards: cached results keyed on the
        // follower-era epoch must not survive the timeline switch.
        self.mutations.fetch_add(1, Ordering::Release);
        Ok(new_epoch)
    }

    /// Applies one WAL frame shipped from a replication primary, with
    /// exactly the recovery replay's idempotent semantics: an insert
    /// lands only when its global ordinal extends the current prefix (a
    /// frame the snapshot already absorbed is skipped, a frame *beyond*
    /// the prefix is a typed [`DurableError::Gap`]); a delete of an
    /// already-tombstoned ordinal is a no-op. The frame's shard position
    /// is the primary's and is ignored: the insert is placed by this
    /// group's own partitioner. Returns whether the frame changed state.
    /// Re-applying any shipped prefix is therefore always safe.
    ///
    /// On a durable index every state-changing frame is also appended to
    /// the *local* log carrying the primary's LSN, so a restarted
    /// follower recovers its applied position (`max` replayed LSN) along
    /// with its state; an append failure poisons the index exactly like a
    /// local mutation would. The mutation counter bumps on every state
    /// change, so no cached plan result can outlive an applied frame.
    pub fn apply_replicated(&self, op: &WalOp) -> Result<bool, DurableError> {
        let _gate = self.insert_gate.lock();
        self.check_poisoned()?;
        let changed = match op {
            WalOp::Insert {
                lsn,
                global,
                values,
                ..
            } => {
                let len = self.len();
                match (*global as usize).cmp(&len) {
                    std::cmp::Ordering::Greater => {
                        return Err(DurableError::Gap {
                            lsn: *lsn,
                            global: *global,
                            len,
                        })
                    }
                    // The snapshot (or an earlier frame) already holds it.
                    std::cmp::Ordering::Less => false,
                    std::cmp::Ordering::Equal => {
                        self.insert_gated(&TimeSeries::new(values.clone()), Some(*lsn))?;
                        true
                    }
                }
            }
            WalOp::Delete { lsn, global, .. } => self.delete_gated(*global as usize, Some(*lsn))?,
        };
        // Still under the gate: a reader that observes this applied
        // position is guaranteed to see the state that includes it.
        self.applied_lsn.fetch_max(op.lsn(), Ordering::AcqRel);
        Ok(changed)
    }

    /// Replaces the whole state with `replacement` — a group built from a
    /// replication primary's snapshot transfer with this group's own
    /// shard count (the epoch-mismatch fallback of the `REPL` handshake).
    /// `primary_epoch` is the primary's checkpoint epoch the snapshot
    /// corresponds to and `next_lsn` the first LSN the stream resumes
    /// from; the applied position becomes `next_lsn - 1`. On a durable
    /// index the snapshot is checkpointed into the local directory under
    /// the *local* next epoch (the local epoch sequence is independent of
    /// the primary's), so a restart recovers it without re-transferring,
    /// and any demotion fence is cleared last.
    pub fn install_replica_snapshot(
        &self,
        replacement: ShardedIndex,
        primary_epoch: u64,
        next_lsn: u64,
    ) -> Result<(), DurableError> {
        let _gate = self.insert_gate.lock();
        self.check_poisoned()?;
        // Refuse a snapshot from a timeline older than the one this node
        // already follows: a poll that was in flight when the node was
        // promoted must not roll the new timeline back (and clear its
        // fence) by installing the deposed primary's state.
        let current = self.replica_epoch();
        if primary_epoch < current {
            return Err(DurableError::Fenced {
                fence: current,
                epoch: primary_epoch,
            });
        }
        if replacement.shard_count() != self.shard_count() {
            return Err(DurableError::Io(std::io::Error::other(format!(
                "snapshot built for {} shards, this index has {}",
                replacement.shard_count(),
                self.shard_count()
            ))));
        }
        let mut guards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        for (guard, new) in guards.iter_mut().zip(&replacement.shards) {
            std::mem::swap(&mut **guard, &mut *new.write());
        }
        std::mem::swap(&mut *self.map.write(), &mut *replacement.map.write());
        self.seq_len.store(replacement.seq_len(), Ordering::Release);
        self.next_lsn.store(next_lsn, Ordering::Relaxed);
        if let Some(d) = &self.durable {
            let refs: Vec<&SeqIndex> = guards.iter().map(|g| &**g).collect();
            let new_epoch = self.epoch.load(Ordering::Acquire) + 1;
            self.persist(d, &refs, new_epoch, true)?;
            // The node now holds the new timeline's state byte-for-byte;
            // a demotion fence has served its purpose. Clearing it last
            // means a crash anywhere above restarts fenced — never
            // writable with half-installed state.
            d.wal.set_fence(0)?;
        }
        self.mem_fence.store(0, Ordering::Release);
        self.repl_epoch.store(primary_epoch, Ordering::Release);
        self.applied_lsn
            .store(next_lsn.saturating_sub(1), Ordering::Release);
        // The whole state changed: every cached result keyed on the old
        // epoch must become unreachable.
        self.mutations.fetch_add(1, Ordering::Release);
        Ok(())
    }

    /// Records the primary's checkpoint epoch learned at handshake time
    /// (the frame-streaming path, where no snapshot transfer happens).
    pub fn note_replica_epoch(&self, primary_epoch: u64) {
        self.repl_epoch.store(primary_epoch, Ordering::Release);
    }

    /// Restores a follower's replication position after a restart:
    /// adopts `primary_epoch` and raises the applied position to at
    /// least `applied` (never lowers it). A durable follower's local log
    /// replays only frames appended since its last snapshot install, so
    /// the install-time floor is re-asserted from the persisted replica
    /// state.
    pub fn note_replica_position(&self, primary_epoch: u64, applied: u64) {
        self.repl_epoch.store(primary_epoch, Ordering::Release);
        self.applied_lsn.fetch_max(applied, Ordering::AcqRel);
    }

    /// Highest primary LSN applied through [`Self::apply_replicated`]
    /// (0 before any frame lands). On a restarted durable follower this
    /// is recovered from the local log's replayed maximum.
    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn.load(Ordering::Acquire)
    }

    /// The primary checkpoint epoch this replica last synchronised with
    /// (0 until a snapshot install or `note_replica_*` call records one).
    pub fn replica_epoch(&self) -> u64 {
        self.repl_epoch.load(Ordering::Acquire)
    }
}

/// Sums access counters (the totals of a per-shard breakdown).
pub fn sum_counters(parts: &[AccessCounters]) -> AccessCounters {
    parts
        .iter()
        .fold(AccessCounters::default(), |acc, c| AccessCounters {
            node_reads: acc.node_reads + c.node_reads,
            record_page_reads: acc.record_page_reads + c.record_page_reads,
            record_fetches: acc.record_fetches + c.record_fetches,
        })
}

/// Refuses a WAL root holding the per-shard log layout (`shard-N/`
/// subdirectories) before anything in it is opened, replayed or
/// truncated.
fn refuse_per_shard_logs(wal_root: &Path) -> Result<(), ShardError> {
    let Ok(entries) = std::fs::read_dir(wal_root) else {
        return Ok(()); // a fresh root: nothing to refuse
    };
    for entry in entries.flatten() {
        let legacy = entry.file_name().to_string_lossy().starts_with("shard-")
            && entry.file_type().is_ok_and(|t| t.is_dir());
        if legacy {
            return Err(ShardError::PerShardWal(wal_root.to_path_buf()));
        }
    }
    Ok(())
}

/// Reads a directory in either layout. A directory without
/// `sharding.txt` is one shard at the root, whose snapshot epoch is the
/// epoch authority (its lock is taken by the shard open).
fn load(
    dir: &Path,
    heap_pool_pages: usize,
    mut wrap: impl FnMut(usize) -> Option<DeviceWrap>,
    take_lock: bool,
) -> std::io::Result<Loaded> {
    let open_shard = |shard_dir: &Path, w: Option<DeviceWrap>| match (w, take_lock) {
        (None, true) => SeqIndex::open(shard_dir, heap_pool_pages),
        (None, false) => SeqIndex::open_read_only(shard_dir, heap_pool_pages),
        (Some(w), _) => SeqIndex::open_with(shard_dir, heap_pool_pages, w),
    };
    if !dir.join("sharding.txt").is_file() {
        return Ok(Loaded::flat(SharedIndex::new(open_shard(dir, wrap(0))?)));
    }
    let lock = if take_lock {
        Some(DirLock::acquire(dir).map_err(simquery::index::wal_to_io)?)
    } else {
        None
    };
    let m = read_shard_manifest(dir)?;
    let indexes = (0..m.shards)
        .map(|i| open_shard(&dir.join(format!("shard-{i}")), wrap(i)))
        .collect::<std::io::Result<Vec<_>>>()?;
    // A missing or corrupt seq_len line must not silently poison every
    // future family validation; the shards know the true length.
    let disk_len = indexes[0].seq_len();
    if m.seq_len != disk_len {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!(
                "manifest seq_len {} does not match the on-disk sequence length {disk_len}",
                m.seq_len
            ),
        ));
    }
    Ok(Loaded {
        map: ShardMap::from_assignment(m.shards, &m.assignment),
        kind: m.kind,
        seq_len: m.seq_len,
        flat: false,
        epoch: m.epoch,
        next_lsn: m.next_lsn,
        lock,
        shards: indexes.into_iter().map(SharedIndex::new).collect(),
    })
}

/// Parsed `sharding.txt`.
struct ShardManifest {
    shards: usize,
    kind: PartitionerKind,
    seq_len: usize,
    assignment: Vec<usize>,
    epoch: u64,
    next_lsn: u64,
}

fn read_shard_manifest(dir: &Path) -> std::io::Result<ShardManifest> {
    let bad = |msg: String| std::io::Error::new(std::io::ErrorKind::InvalidData, msg);
    let meta = std::fs::read_to_string(dir.join("sharding.txt"))?;
    let mut lines = meta.lines();
    if lines.next() != Some("simshard v1") {
        return Err(bad("not a simshard directory".into()));
    }
    let mut m = ShardManifest {
        shards: 0,
        kind: PartitionerKind::Hash,
        seq_len: 0,
        assignment: Vec::new(),
        // Pre-durability manifests carry neither line; they are at the
        // initial epoch with no LSNs ever allocated.
        epoch: 1,
        next_lsn: 1,
    };
    for line in lines {
        match line.split_once(' ') {
            Some(("shards", v)) => {
                m.shards = v
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad shards: {e}")))?;
            }
            Some(("partitioner", v)) => {
                m.kind = v.trim().parse().map_err(bad)?;
            }
            Some(("seq_len", v)) => {
                m.seq_len = v
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad seq_len: {e}")))?;
            }
            Some(("epoch", v)) => {
                m.epoch = v
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad epoch: {e}")))?;
            }
            Some(("next_lsn", v)) => {
                m.next_lsn = v
                    .trim()
                    .parse()
                    .map_err(|e| bad(format!("bad next_lsn: {e}")))?;
            }
            Some(("assignment", v)) if !v.trim().is_empty() => {
                m.assignment = v
                    .trim()
                    .split(',')
                    .map(|s| s.parse::<usize>())
                    .collect::<Result<_, _>>()
                    .map_err(|e| bad(format!("bad assignment entry: {e}")))?;
            }
            _ => {}
        }
    }
    if m.shards == 0 || m.shards > crate::cfg::MAX_SHARDS {
        return Err(bad(format!("shard count {} out of range", m.shards)));
    }
    if m.assignment.iter().any(|&s| s >= m.shards) {
        return Err(bad("assignment references a missing shard".into()));
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use simquery::engine::mtindex;
    use simquery::query::RangeSpec;
    use simquery::transform::Family;
    use tseries::CorpusKind;

    fn corpus(n: usize) -> Corpus {
        Corpus::generate(CorpusKind::SyntheticWalks, n, 64, 11)
    }

    fn sharded(n: usize, shards: usize) -> ShardedIndex {
        ShardedIndex::build(
            &corpus(n),
            ShardConfig::new(shards).unwrap(),
            IndexConfig::default(),
        )
        .unwrap()
    }

    #[test]
    fn build_partitions_everything() {
        let s = sharded(100, 4);
        assert_eq!(s.len(), 100);
        assert_eq!(s.shard_count(), 4);
        assert_eq!(s.shard_loads().iter().sum::<usize>(), 100);
        for g in 0..100 {
            let (shard, local) = s.locate(g).unwrap();
            assert_eq!(s.map_snapshot().global_of(shard, local), g);
        }
    }

    #[test]
    fn too_many_shards_for_corpus_is_typed() {
        let c = corpus(3);
        let err = ShardedIndex::build(&c, ShardConfig::new(8).unwrap(), IndexConfig::default())
            .unwrap_err();
        assert!(matches!(err, ShardError::EmptyShard(_)), "{err}");
    }

    #[test]
    fn insert_and_delete_roundtrip() {
        let s = sharded(40, 4);
        let extra = corpus(200); // different globals, same seed family
        let g = s.insert_series(&extra.series()[150]).unwrap();
        assert_eq!(g, 40);
        assert_eq!(s.len(), 41);
        let got = s.fetch_series(g).unwrap();
        assert_eq!(got.values(), extra.series()[150].values());
        assert!(s.delete_series(g).unwrap());
        assert!(!s.delete_series(g).unwrap(), "double delete reports false");
        assert_eq!(s.deleted_count(), 1);
        assert!(!s.delete_series(10_000).unwrap());
    }

    #[test]
    fn range_inserts_refill_tombstoned_shards() {
        let s = ShardedIndex::build(
            &corpus(40),
            ShardConfig {
                shards: 4,
                partitioner: PartitionerKind::Range,
            },
            IndexConfig::default(),
        )
        .unwrap();
        // Range chunks put globals 30..40 on shard 3; tombstone them all.
        for g in 30..40 {
            assert_eq!(s.locate(g).unwrap().0, 3);
            assert!(s.delete_series(g).unwrap());
        }
        // Mapped loads are still equal, but shard 3 has no live sequences,
        // so the least-*live*-loaded placement picks it.
        let extra = corpus(41);
        let g = s.insert_series(&extra.series()[40]).unwrap();
        assert_eq!(
            s.locate(g).unwrap().0,
            3,
            "insert should refill the tombstoned shard"
        );
    }

    #[test]
    fn counters_aggregate_across_shards() {
        let s = sharded(60, 3);
        s.reset_counters().unwrap();
        for g in [0usize, 20, 40] {
            let _ = s.fetch_series(g).unwrap();
        }
        let total = s.counters();
        assert_eq!(total.record_fetches, 3);
        let per: u64 = s
            .per_shard_counters()
            .iter()
            .map(|c| c.record_fetches)
            .sum();
        assert_eq!(per, total.record_fetches);
    }

    #[test]
    fn save_open_preserves_mapping() {
        let dir = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("save-open-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let s = sharded(50, 4);
        s.delete_series(7).unwrap();
        s.save(&dir).unwrap();
        let reopened = ShardedIndex::open(&dir, 16).unwrap();
        assert_eq!(reopened.len(), 50);
        assert_eq!(reopened.shard_count(), 4);
        assert_eq!(reopened.deleted_count(), 1);
        for g in 0..50 {
            assert_eq!(reopened.locate(g), s.locate(g));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_rejects_manifest_seq_len_mismatch() {
        let dir = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("seq-len-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        sharded(20, 2).save(&dir).unwrap();
        let manifest = dir.join("sharding.txt");
        // Drop the seq_len line: the implicit 0 must not silently make
        // every query fail family validation against intact shard data.
        let stripped: String = std::fs::read_to_string(&manifest)
            .unwrap()
            .lines()
            .filter(|l| !l.starts_with("seq_len"))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(&manifest, stripped).unwrap();
        let err = ShardedIndex::open(&dir, 16).unwrap_err();
        assert!(err.to_string().contains("seq_len"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn wal_append_failure_poisons_but_keeps_map_consistent() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("poison-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let idx_dir = root.join("idx");
        let wal_dir = root.join("wal");
        sharded(20, 2).save(&idx_dir).unwrap();
        let (s, _) =
            ShardedIndex::open_durable(&idx_dir, &wal_dir, 16, FsyncPolicy::Always).unwrap();
        let extra = corpus(30);
        s.insert_series(&extra.series()[20]).unwrap();
        s.durable.as_ref().unwrap().wal.arm_append_fault();
        let err = s.insert_series(&extra.series()[21]).unwrap_err();
        assert!(matches!(err, DurableError::Wal(_)), "{err}");
        assert!(s.is_poisoned());
        // The failed insert stays applied *and mapped*, so every shard
        // still agrees with the global map …
        assert_eq!(s.len(), 22);
        let snapshot = s.map_snapshot();
        for (i, sh) in s.shards().iter().enumerate() {
            assert_eq!(sh.read().len(), snapshot.globals_of(i).len());
        }
        // … and every further mutation/checkpoint is refused, so no LSN
        // above the hole can ever be acknowledged.
        assert!(matches!(
            s.insert_series(&extra.series()[22]).unwrap_err(),
            DurableError::Poisoned
        ));
        assert!(matches!(
            s.delete_series(0).unwrap_err(),
            DurableError::Poisoned
        ));
        assert!(matches!(
            s.checkpoint().unwrap_err(),
            DurableError::Poisoned
        ));
        drop(s);
        // A reopen recovers exactly the acknowledged prefix and resumes.
        let (s, rep) =
            ShardedIndex::open_durable(&idx_dir, &wal_dir, 16, FsyncPolicy::Always).unwrap();
        assert_eq!(rep.frames, 1, "only the acknowledged insert replays");
        assert_eq!(
            rep.truncated_bytes, 0,
            "the torn frame was rewound, not left behind"
        );
        assert_eq!(s.len(), 21);
        s.insert_series(&extra.series()[21]).unwrap();
        drop(s);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn save_quiesces_concurrent_inserts() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("save-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let s = sharded(24, 4);
        let extra = corpus(64);
        std::thread::scope(|scope| {
            let (s, extra) = (&s, &extra);
            scope.spawn(move || {
                for i in 24..64 {
                    s.insert_series(&extra.series()[i]).unwrap();
                }
            });
            for round in 0..8 {
                let dir = root.join(format!("snap-{round}"));
                s.save(&dir).unwrap();
                // Every snapshot must be internally consistent: open
                // rejects a manifest that disagrees with shard contents,
                // which an insert racing the shard saves would produce.
                ShardedIndex::open(&dir, 16).unwrap();
            }
        });
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn from_index_replays_tombstones() {
        let c = corpus(30);
        let mut single = SeqIndex::build(&c, IndexConfig::default()).unwrap();
        single.delete_series(4).unwrap();
        single.delete_series(17).unwrap();
        let s = ShardedIndex::from_index(
            &single,
            ShardConfig::new(3).unwrap(),
            IndexConfig::default(),
        )
        .unwrap();
        assert_eq!(s.len(), 30);
        assert_eq!(s.deleted_count(), 2);
    }

    /// A 1-shard group in the single-index layout at `root/idx`, built
    /// from `n` walks of `seed`.
    fn flat_dir(root: &Path, n: usize, seed: u64) {
        let _ = std::fs::remove_dir_all(root);
        let c = Corpus::generate(CorpusKind::SyntheticWalks, n, 64, seed);
        SeqIndex::build(&c, IndexConfig::default())
            .unwrap()
            .save(&root.join("idx"))
            .unwrap();
    }

    fn open_flat(root: &Path) -> (ShardedIndex, ReplayReport) {
        ShardedIndex::open_durable(
            &root.join("idx"),
            &root.join("wal"),
            16,
            FsyncPolicy::Always,
        )
        .unwrap()
    }

    fn in_memory(n: usize) -> ShardedIndex {
        snapshot_of(&Corpus::generate(CorpusKind::SyntheticWalks, n, 64, 3))
    }

    fn snapshot_of(c: &Corpus) -> ShardedIndex {
        ShardedIndex::from_shared(SharedIndex::new(
            SeqIndex::build(c, IndexConfig::default()).unwrap(),
        ))
    }

    #[test]
    fn wal_append_failure_poisons_the_handle() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("flat-poison-{}", std::process::id()));
        flat_dir(&root, 10, 7);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 3, 64, 8);
        let (shared, _) = open_flat(&root);
        shared.insert_series(&extra.series()[0]).unwrap();
        shared.durable.as_ref().unwrap().wal.arm_append_fault();
        let err = shared.insert_series(&extra.series()[1]).unwrap_err();
        assert!(matches!(err, DurableError::Wal(_)), "{err}");
        assert!(shared.is_poisoned());
        assert_eq!(
            shared.shards()[0].read().len(),
            12,
            "the failed insert stays applied in memory"
        );
        // Applied-but-unlogged: acknowledging anything after it would be
        // unrecoverable, so mutations and checkpoints are refused …
        assert!(matches!(
            shared.insert_series(&extra.series()[2]).unwrap_err(),
            DurableError::Poisoned
        ));
        assert!(matches!(
            shared.delete_series(0).unwrap_err(),
            DurableError::Poisoned
        ));
        assert!(matches!(
            shared.checkpoint().unwrap_err(),
            DurableError::Poisoned
        ));
        drop(shared);
        // … and a reopen recovers exactly the acknowledged prefix.
        let (shared, rep) = open_flat(&root);
        assert_eq!(rep.frames, 1, "only the acknowledged insert replays");
        assert_eq!(shared.len(), 11);
        shared.insert_series(&extra.series()[2]).unwrap();
        drop(shared);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn apply_replicated_is_idempotent_and_gap_safe() {
        let shared = in_memory(4);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 2, 64, 41);
        let ins = |lsn: u64, g: u64, ts: &TimeSeries| WalOp::Insert {
            lsn,
            global: g,
            local: g,
            values: ts.values().to_vec(),
        };
        let e0 = shared.query_epoch();
        assert!(shared
            .apply_replicated(&ins(1, 4, &extra.series()[0]))
            .unwrap());
        assert_eq!(shared.len(), 5);
        assert_eq!(shared.applied_lsn(), 1);
        assert_ne!(
            shared.query_epoch(),
            e0,
            "applied frame must move the epoch"
        );
        // Re-applying the same frame: no duplicate, position keeps.
        assert!(!shared
            .apply_replicated(&ins(1, 4, &extra.series()[0]))
            .unwrap());
        assert_eq!(shared.len(), 5);
        // A frame beyond the prefix is a typed gap, not an apply.
        let err = shared
            .apply_replicated(&ins(3, 6, &extra.series()[1]))
            .unwrap_err();
        assert!(
            matches!(
                err,
                DurableError::Gap {
                    lsn: 3,
                    global: 6,
                    len: 5
                }
            ),
            "{err}"
        );
        assert_eq!(shared.len(), 5);
        // Deletes: applied once, then a no-op — never an error.
        let del = WalOp::Delete {
            lsn: 2,
            global: 4,
            local: 4,
        };
        assert!(shared.apply_replicated(&del).unwrap());
        assert!(!shared.apply_replicated(&del).unwrap());
        assert_eq!(shared.applied_lsn(), 2);
        // A no-change frame still advances the applied position.
        assert!(!shared
            .apply_replicated(&WalOp::Delete {
                lsn: 7,
                global: 4,
                local: 4
            })
            .unwrap());
        assert_eq!(shared.applied_lsn(), 7);
    }

    #[test]
    fn durable_follower_recovers_applied_position() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("repl-durable-{}", std::process::id()));
        flat_dir(&root, 3, 5);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 2, 64, 6);
        let (follower, _) = open_flat(&root);
        // Ship two frames with the primary's (sparse) LSNs.
        for (i, ts) in extra.series().iter().enumerate() {
            follower
                .apply_replicated(&WalOp::Insert {
                    lsn: 10 + i as u64 * 10,
                    global: 3 + i as u64,
                    local: 3 + i as u64,
                    values: ts.values().to_vec(),
                })
                .unwrap();
        }
        assert_eq!(follower.applied_lsn(), 20);
        assert!(follower.wal_next_lsn().unwrap() > 20);
        drop(follower);
        // Restart: state and applied position both come back.
        let (follower, rep) = open_flat(&root);
        assert_eq!(rep.frames, 2);
        assert_eq!(follower.len(), 5);
        assert_eq!(follower.applied_lsn(), 20);
        drop(follower);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fence_blocks_writes_and_snapshot_install_clears_it() {
        let shared = in_memory(4);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 2, 64, 42);
        assert!(!shared.is_fenced());
        // A promoted peer at epoch 5 fences this node.
        shared.fence_at(5).unwrap();
        assert!(shared.is_fenced());
        assert_eq!(shared.fence(), 5);
        let err = shared.insert_series(&extra.series()[0]).unwrap_err();
        assert!(
            matches!(err, DurableError::Fenced { fence: 5, epoch: 0 }),
            "{err}"
        );
        assert!(matches!(
            shared.delete_series(0).unwrap_err(),
            DurableError::Fenced { .. }
        ));
        // Fences only ratchet upward …
        shared.fence_at(3).unwrap();
        assert_eq!(shared.fence(), 5);
        // … and queries still serve while fenced.
        assert_eq!(shared.len(), 4);
        // Re-syncing onto the new timeline clears the fence.
        let c2 = Corpus::generate(CorpusKind::SyntheticWalks, 6, 64, 43);
        shared
            .install_replica_snapshot(snapshot_of(&c2), 5, 11)
            .unwrap();
        assert!(!shared.is_fenced());
        assert_eq!(shared.fence(), 0);
        shared.insert_series(&extra.series()[1]).unwrap();
    }

    #[test]
    fn promotion_moves_past_the_old_timeline_and_survives_restart() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("promote-{}", std::process::id()));
        flat_dir(&root, 3, 5);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 2, 64, 6);
        let (follower, _) = open_flat(&root);
        // Catch up as a follower of a primary at epoch 7, then promote.
        follower
            .apply_replicated(&WalOp::Insert {
                lsn: 9,
                global: 3,
                local: 3,
                values: extra.series()[0].values().to_vec(),
            })
            .unwrap();
        follower.note_replica_epoch(7);
        let new_epoch = follower.promote().unwrap();
        assert!(new_epoch > 7, "promotion must outrun the old timeline");
        assert_eq!(follower.wal_epoch(), Some(new_epoch));
        assert_eq!(follower.fence(), new_epoch);
        assert!(!follower.is_fenced(), "a promoted node is writable");
        // Writes resume from the acked prefix with fresh LSNs.
        let ord = follower.insert_series(&extra.series()[1]).unwrap();
        assert_eq!(ord, 4);
        assert!(follower.wal_next_lsn().unwrap() > 9);
        drop(follower);
        // The switch is durable: a restart comes back on the new
        // timeline with the full prefix.
        let (reopened, _) = open_flat(&root);
        assert_eq!(reopened.wal_epoch(), Some(new_epoch));
        assert_eq!(reopened.len(), 5);
        assert!(!reopened.is_fenced());
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn fenced_durable_node_stays_fenced_across_restart() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("fence-durable-{}", std::process::id()));
        flat_dir(&root, 3, 5);
        let extra = Corpus::generate(CorpusKind::SyntheticWalks, 1, 64, 6);
        let (primary, _) = open_flat(&root);
        let epoch = primary.wal_epoch().unwrap();
        primary.fence_at(epoch + 3).unwrap();
        assert!(primary.is_fenced());
        assert!(matches!(
            primary.insert_series(&extra.series()[0]).unwrap_err(),
            DurableError::Fenced { .. }
        ));
        // Checkpoints are refused too — they would walk the epoch up to
        // the fence and silently unfence a node that never re-synced.
        assert!(matches!(
            primary.checkpoint().unwrap_err(),
            DurableError::Fenced { .. }
        ));
        drop(primary);
        let (reopened, _) = open_flat(&root);
        assert!(reopened.is_fenced(), "the fence survives a restart");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn snapshot_install_replaces_state_and_epoch() {
        let follower = in_memory(3);
        let c2 = Corpus::generate(CorpusKind::SyntheticWalks, 6, 64, 9);
        let before = follower.query_epoch();
        follower
            .install_replica_snapshot(snapshot_of(&c2), 4, 31)
            .unwrap();
        assert_eq!(follower.len(), 6);
        assert_eq!(follower.applied_lsn(), 30);
        let after = follower.query_epoch();
        assert_ne!(before, after);
        assert_eq!(
            after.epoch, 4,
            "non-durable follower adopts the primary epoch"
        );
    }

    #[test]
    fn sharded_node_writes_one_log_and_replays_it() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("one-log-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (idx, wal) = (root.join("idx"), root.join("wal"));
        sharded(40, 4).save(&idx).unwrap();
        let extra = corpus(60);
        let (s, _) = ShardedIndex::open_durable(&idx, &wal, 16, FsyncPolicy::Always).unwrap();
        for ts in &extra.series()[40..52] {
            s.insert_series(ts).unwrap();
        }
        assert!(s.delete_series(3).unwrap());
        assert!(s.delete_series(45).unwrap());
        let want: Vec<_> = (0..s.len()).map(|g| s.locate(g)).collect();
        drop(s);
        let entries: Vec<_> = std::fs::read_dir(&wal)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        assert!(
            entries.iter().all(|n| !n.starts_with("shard-")),
            "one log at the root, no per-shard logs: {entries:?}"
        );
        let (s, rep) = ShardedIndex::open_durable(&idx, &wal, 16, FsyncPolicy::Always).unwrap();
        assert_eq!(rep.frames, 14);
        assert_eq!(s.len(), 52);
        assert_eq!(s.deleted_ordinals(), vec![3, 45]);
        let got: Vec<_> = (0..s.len()).map(|g| s.locate(g)).collect();
        assert_eq!(got, want, "replay restores every shard placement");
        drop(s);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn per_shard_wal_layout_is_refused_untouched() {
        let root = std::env::temp_dir()
            .join("simshard-tests")
            .join(format!("legacy-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let (idx, wal) = (root.join("idx"), root.join("wal"));
        sharded(20, 2).save(&idx).unwrap();
        // The layout an older build left behind: one acknowledged frame
        // in `wal/shard-0/`, nothing at the root.
        let (log, _, _) = Wal::open(&wal.join("shard-0"), FsyncPolicy::Always, 1).unwrap();
        log.append(&WalOp::Delete {
            lsn: 1,
            global: 0,
            local: 0,
        })
        .unwrap();
        drop(log);
        let log_path = wal.join("shard-0").join(simwal::LOG_FILE);
        let before = std::fs::read(&log_path).unwrap();
        let err = ShardedIndex::open_durable(&idx, &wal, 16, FsyncPolicy::Always).unwrap_err();
        assert!(matches!(err, ShardError::PerShardWal(_)), "{err}");
        assert!(err.to_string().contains("simseq recover"), "{err}");
        assert_eq!(
            std::fs::read(&log_path).unwrap(),
            before,
            "the old log was neither replayed nor truncated"
        );
        assert!(
            !wal.join(simwal::LOG_FILE).exists() && !wal.join(simwal::MANIFEST_FILE).exists(),
            "no root log was created beside the old ones"
        );
        let reopened = ShardedIndex::open(&idx, 16).unwrap();
        assert_eq!(reopened.deleted_count(), 0, "nothing was replayed");
        drop(reopened);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn one_shard_group_answers_like_its_index() {
        let shared = in_memory(50);
        let family = Family::moving_averages(2..=6, 64);
        let spec = RangeSpec::correlation(0.9);
        let q = shared.fetch_series(5).unwrap();
        let want = mtindex::range_query(&shared.shards()[0].read(), &q, &family, &spec)
            .unwrap()
            .sorted_pairs();
        let lq = simquery::plan::LogicalQuery::range(family, spec);
        let (_, got, _) = crate::gather::execute_range(&shared, &lq, &q).unwrap();
        assert_eq!(got.sorted_pairs(), want);
    }
}
