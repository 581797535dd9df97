#![warn(missing_docs)]
//! # simserve — serving similarity queries over TCP
//!
//! Turns a persisted [`simquery::index::SeqIndex`] into a network service.
//! Everything is `std`-only (`std::net`, `std::thread`, `std::sync`):
//!
//! * [`protocol`] — the line-oriented request/response protocol (one typed
//!   parser/serializer shared by server and client; see `PROTOCOL.md`);
//! * [`server`] — the `simserved` core: an acceptor, per-connection I/O
//!   threads, and a worker pool consuming a **bounded** request queue —
//!   when the queue is full the request is rejected with `ERR code=BUSY`
//!   instead of piling up (explicit admission control);
//! * [`metrics`] — per-operation counters and log₂-bucketed latency
//!   histograms (p50/p95/p99), plus index access-counter deltas, reported
//!   by the `STATS` request;
//! * [`client`] — a typed blocking client with connect/read/write
//!   timeouts;
//! * [`failover`] — a multi-endpoint client that chases `ERR READONLY`
//!   and connection failures to the current primary with bounded,
//!   seeded-jitter retries;
//! * [`repl`] — WAL-shipping replication: the primary-side `REPL` feeder
//!   and the follower loop behind `simserved --replicate-from`, plus
//!   `PROMOTE`/fencing failover state;
//! * [`chaos`] — a deterministic fault-injecting TCP proxy for failover
//!   and partition tests;
//! * [`load`] — the `simload` closed-loop load generator: N concurrent
//!   connections replaying seeded workloads, with optional result-parity
//!   verification against a directly-opened copy of the index;
//! * [`opts`] — the `--key value` flag parser of every command line;
//! * [`startup`] — what `simserved` and `simload` (and `simseq serve` /
//!   `simseq load`) run: flags in, index/WAL/shards/follower opened,
//!   server or load run started.
//!
//! The index is shared across workers as one [`simshard::ShardedIndex`]
//! (a single index is its 1-shard case): queries run under the shards'
//! read guards (the engines' access counters are atomics, so concurrent
//! queries stay consistent), `INSERT`/`DELETE` write-lock the one shard
//! they touch.

pub mod chaos;
pub mod client;
pub mod expose;
pub mod failover;
pub mod load;
pub mod metrics;
pub mod opts;
pub mod pool;
pub mod protocol;
pub mod repl;
pub mod server;
pub mod startup;
