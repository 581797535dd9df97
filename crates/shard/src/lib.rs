//! # simshard — sharded index subsystem
//!
//! Partitions a corpus across N independent [`simquery::index::SeqIndex`]
//! shards, each behind its own [`simquery::shared::SharedIndex`] lock, and
//! executes every query class by scatter-gather:
//!
//! - **Partitioning** ([`cfg`], [`partition`]): a validated
//!   [`ShardConfig`] picks the shard count and a [`PartitionerKind`]
//!   (hash-by-ordinal default, round-robin, range); the [`ShardMap`]
//!   records the stable global-ordinal ↔ (shard, local-ordinal) mapping.
//! - **Storage** ([`index`]): [`ShardedIndex`] — the one index handle of
//!   the server, the CLI and replication, a single index being its 1-shard
//!   case — builds, persists, reopens, durably mutates and replicates the
//!   shard set through one write-ahead log per node; an insert
//!   write-locks exactly one shard while the other N−1 keep serving reads.
//! - **Execution** ([`gather`]): range/MT/ST/scan queries scatter to all
//!   shards on scoped threads and merge exactly; global kNN runs shards
//!   sequentially, propagating the running k-th distance bound so later
//!   shards prune — exact against the single-index answer, with a
//!   deterministic (distance, global-ordinal) tie-break.
//! - **Accounting**: per-shard [`simquery::index::AccessCounters`] and
//!   [`simquery::report::EngineMetrics`] aggregate across shards, so the
//!   paper's disk-access figures stay reproducible per fragment.

pub mod cfg;
pub mod gather;
pub mod index;
pub mod partition;

pub use cfg::{PartitionerKind, ShardConfig, MAX_SHARDS};
pub use index::{ShardError, ShardedIndex, SnapshotCut};
pub use partition::{Partitioner, ShardMap};
