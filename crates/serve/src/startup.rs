//! Startup of the two daemons: flag parsing, opening the index, WAL,
//! shards or follower, and running the server or the load generator.
//!
//! The `simserved` and `simload` binaries and the `simseq serve` /
//! `simseq load` subcommands all call [`serve`] and [`load`], so every
//! front end accepts the same flags and opens the same state.

use crate::load::{self, LoadConfig};
use crate::opts::Opts;
use crate::repl::{self, Follower, FollowerOpts};
use crate::server::{self, Backend, ServerConfig, ServerHandle};
use simquery::index::IndexConfig;
use simquery::shared::SharedIndex;
use simshard::{ShardConfig, ShardedIndex};
use simwal::FsyncPolicy;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

/// `simserved` help text (also `simseq serve help`).
pub const SERVE_USAGE: &str = "\
simserved — serve a persisted similarity index over TCP

USAGE:
  simserved --index DIR/ [--addr HOST:PORT] [--workers N]
            [--queue N] [--max-conns N] [--pool-pages N]
            [--shards N] [--partitioner hash|round-robin|range]
            [--wal DIR/] [--fsync always|never|N]
            [--result-cache N] [--cache-floor COST]
            [--slow-query-ms N] [--trace-sample K]
  simserved --replicate-from HOST:PORT [--index DIR/] [--wal DIR/]
            [--addr HOST:PORT] [...]

`simseq serve` takes the same flags. The protocol is documented in
crates/serve/PROTOCOL.md. Build an index with `simseq gen` + `simseq
build` first (or a sharded one with `simseq build --shards N`).
`--shards N` repartitions a single-index directory across N shards at
startup; JOIN requires an unsharded backend. `--wal DIR/` makes
INSERT/DELETE durable (write-ahead logged, replayed on restart; see
SYNC and CHECKPOINT in the protocol). `--result-cache N` answers
repeated queries from an epoch-keyed LRU cache (mutations invalidate;
see the EXPLAIN verb and the STATS PLAN line in the protocol);
`--cache-floor COST` admits only results whose measured execution cost
reaches COST work units. `--slow-query-ms N` logs any query at or over
N ms (inspect with `simseq metrics`), and `--trace-sample K` records
every K-th query's span tree into a bounded ring served by the TRACE
verb (0 disables; see METRICS and TRACE in the protocol).
`--replicate-from HOST:PORT` runs a read-only follower of a durable
primary: without --index it bootstraps from a snapshot transfer, with
--index (+ --wal for durability) it resumes from local state; writes
are refused with ERR code=READONLY.
";

/// `simload` help text (also `simseq load help`).
pub const LOAD_USAGE: &str = "\
simload — closed-loop load generator for simserved

USAGE:
  simload --addr HOST:PORT [--conns N] [--ops N] [--seed S]
          [--ma LO..HI] [--rho R] [--engine mt|st|scan|auto]
          [--verify-index DIR/] [--pool-pages N]
          [--timeout-ms MS] [--failover HOST:PORT,HOST:PORT]

`simseq load` takes the same flags. Each connection replays a seeded
stream of QUERY requests and reports a per-connection
latency/throughput table. --verify-index opens the same index directly
and checks every response for result parity against a single-threaded
engine call. --timeout-ms bounds connect/read/write on every socket
(0 = no timeouts); --failover lists extra endpoints the client rotates
to on ERR READONLY or connection failure.
";

const SERVE_FLAGS: &str = "index addr workers queue max-conns pool-pages shards partitioner \
     wal fsync result-cache cache-floor slow-query-ms trace-sample replicate-from";

const LOAD_FLAGS: &str =
    "addr conns ops seed ma rho engine verify-index pool-pages timeout-ms failover";

/// A binary's `main`: runs `run` on the process arguments; on error
/// prints it and `usage` to stderr and exits with status 1.
pub fn main(run: fn(&[String]) -> Result<(), String>, usage: &str) {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&argv) {
        eprintln!("error: {e}");
        eprint!("{usage}");
        std::process::exit(1);
    }
}

/// `simserved`: serves an index directory until the server stops (the
/// flags are in [`SERVE_USAGE`]).
///
/// A directory written by `simseq build --shards` (it contains
/// `sharding.txt`) is served sharded as-is; `--shards`/`--partitioner`
/// against one must match its manifest. With `--wal DIR/` every
/// `INSERT`/`DELETE` is logged before it is acknowledged and the log tail
/// is replayed on startup, so a crash loses at most the unsynced suffix
/// (`--fsync always` syncs every append, `N` every N appends, `never`
/// leaves syncing to the OS). With `--replicate-from HOST:PORT` the
/// server is a read-only follower that applies the primary's WAL frames
/// through the crash-recovery replay path.
pub fn serve(argv: &[String]) -> Result<(), String> {
    if argv.first().map(String::as_str) == Some("help") {
        print!("{SERVE_USAGE}");
        return Ok(());
    }
    let opts = Opts::parse(argv, SERVE_FLAGS)?;
    let cfg = server_config(&opts)?;
    let pool_pages: usize = opts.parse_or("pool-pages", 256)?;
    let wal = opts.get("wal").map(Path::new);
    let policy = match opts.get("fsync") {
        None => FsyncPolicy::Always,
        Some(_) if wal.is_none() => return Err("--fsync requires --wal".into()),
        Some(raw) => FsyncPolicy::parse(raw)
            .ok_or_else(|| format!("--fsync must be always|never|N, got `{raw}`"))?,
    };
    let handle = match opts.get("replicate-from") {
        Some(primary) => start_follower(&opts, primary, &cfg, wal, pool_pages, policy)?,
        None => {
            let dir = PathBuf::from(opts.req("index")?);
            let backend = open_backend(&opts, &dir, wal, pool_pages, policy, &cfg)?;
            server::serve(backend, &cfg).map_err(|e| format!("binding {}: {e}", cfg.addr))?
        }
    };
    println!("listening on {}", handle.addr);
    handle.join();
    Ok(())
}

fn server_config(opts: &Opts) -> Result<ServerConfig, String> {
    let defaults = ServerConfig::default();
    Ok(ServerConfig {
        addr: opts.get("addr").unwrap_or(&defaults.addr).to_string(),
        workers: opts.parse_or("workers", defaults.workers)?,
        queue_depth: opts.parse_or("queue", defaults.queue_depth)?,
        max_conns: opts.parse_or("max-conns", defaults.max_conns)?,
        result_cache: opts.parse_or("result-cache", defaults.result_cache)?,
        cache_floor: opts.parse_or("cache-floor", defaults.cache_floor)?,
        // The flag is in milliseconds (human scale); the log gates in µs.
        slow_query_us: opts
            .parse_opt::<u64>("slow-query-ms")?
            .map_or(defaults.slow_query_us, |ms| ms.saturating_mul(1000)),
        trace_sample: opts.parse_or("trace-sample", defaults.trace_sample)?,
    })
}

/// Opens `dir` as one index, durable when `wal` is given.
fn open_single(
    dir: &Path,
    wal: Option<&Path>,
    pool_pages: usize,
    policy: FsyncPolicy,
) -> Result<SharedIndex, String> {
    let oops = |e: &dyn std::fmt::Display| format!("opening index {}: {e}", dir.display());
    let Some(wal) = wal else {
        return SharedIndex::open(dir, pool_pages).map_err(|e| oops(&e));
    };
    let (shared, rep) =
        SharedIndex::open_durable(dir, wal, pool_pages, policy).map_err(|e| oops(&e))?;
    eprintln!(
        "wal: epoch {}, replayed {} frames ({} stale, {} torn bytes)",
        rep.epoch, rep.frames, rep.stale_frames, rep.truncated_bytes
    );
    Ok(shared)
}

/// Opens the primary's backend: a sharded directory as-is, a single
/// index repartitioned by `--shards N > 1`, or a single index.
fn open_backend(
    opts: &Opts,
    dir: &Path,
    wal: Option<&Path>,
    pool_pages: usize,
    policy: FsyncPolicy,
    cfg: &ServerConfig,
) -> Result<Backend, String> {
    let shard_cfg = ShardConfig::parse(opts.get("shards").unwrap_or("1"), opts.get("partitioner"))?;
    let manifest = dir.join("sharding.txt");
    if manifest.is_file() {
        let oops =
            |e: &dyn std::fmt::Display| format!("opening sharded index {}: {e}", dir.display());
        let sharded = match wal {
            None => ShardedIndex::open(dir, pool_pages).map_err(|e| oops(&e))?,
            Some(wal) => {
                let (sharded, rec) = ShardedIndex::open_durable(dir, wal, pool_pages, policy)
                    .map_err(|e| oops(&e))?;
                eprintln!(
                    "wal: epoch {}, replayed {} frames ({} dropped, {} stale, {} torn bytes)",
                    rec.epoch, rec.replayed, rec.dropped, rec.stale_frames, rec.truncated_bytes
                );
                sharded
            }
        };
        // An already partitioned directory: explicit flags must agree
        // with its manifest, not be silently ignored.
        if opts.get("shards").is_some() && shard_cfg.shards != sharded.shard_count() {
            return Err(format!(
                "--shards {} conflicts with {}, which was built with {} shards; \
                 drop the flag or rebuild with `simseq build --shards`",
                shard_cfg.shards,
                manifest.display(),
                sharded.shard_count()
            ));
        }
        if opts.get("partitioner").is_some() && shard_cfg.partitioner != sharded.partitioner_kind()
        {
            return Err(format!(
                "--partitioner {} conflicts with {}, which was built with '{}'; \
                 drop the flag or rebuild with `simseq build --shards`",
                shard_cfg.partitioner,
                manifest.display(),
                sharded.partitioner_kind()
            ));
        }
        announce(&sharded, cfg);
        return Ok(Backend::from(sharded));
    }
    if shard_cfg.shards > 1 {
        if wal.is_some() {
            return Err(
                "--wal cannot be combined with --shards repartitioning; build a sharded \
                 directory first (`simseq build --shards`) and serve that with --wal"
                    .into(),
            );
        }
        let shared = open_single(dir, None, pool_pages, policy)?;
        let index_cfg = IndexConfig {
            heap_pool_pages: pool_pages,
            ..IndexConfig::default()
        };
        let sharded = ShardedIndex::from_index(&shared.read(), shard_cfg, index_cfg)
            .map_err(|e| format!("sharding {}: {e}", dir.display()))?;
        announce(&sharded, cfg);
        return Ok(Backend::from(sharded));
    }
    let shared = open_single(dir, wal, pool_pages, policy)?;
    {
        let index = shared.read();
        eprintln!(
            "serving {} sequences of length {} ({} workers, queue {})",
            index.len(),
            index.seq_len(),
            cfg.workers,
            cfg.queue_depth
        );
    }
    Ok(Backend::from(shared))
}

fn announce(sharded: &ShardedIndex, cfg: &ServerConfig) {
    eprintln!(
        "serving {} sequences of length {} across {} shards ({}, {} workers, queue {})",
        sharded.len(),
        sharded.seq_len(),
        sharded.shard_count(),
        sharded.partitioner_kind(),
        cfg.workers,
        cfg.queue_depth
    );
}

/// Starts a read-only follower of `primary` and its server.
fn start_follower(
    opts: &Opts,
    primary: &str,
    cfg: &ServerConfig,
    wal: Option<&Path>,
    pool_pages: usize,
    policy: FsyncPolicy,
) -> Result<ServerHandle, String> {
    if opts.get("shards").is_some() || opts.get("partitioner").is_some() {
        return Err(
            "--replicate-from serves a single-index follower; --shards/--partitioner \
             do not apply (shards ship separately)"
                .into(),
        );
    }
    // Per-node jitter seed: distinct listen addresses give distinct
    // reconnect schedules, so a follower fleet doesn't thundering-herd a
    // recovering primary.
    let reconnect_seed = {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        cfg.addr.hash(&mut h);
        h.finish()
    };
    let fopts = FollowerOpts {
        state_dir: wal.map(Path::to_path_buf),
        reconnect_seed,
        ..FollowerOpts::default()
    };
    let (shared, follower) = match opts.get("index").map(Path::new) {
        None => {
            if wal.is_some() {
                return Err("--wal on a follower requires --index \
                     (a durable follower opens both directories)"
                    .into());
            }
            repl::bootstrap(primary, fopts)
                .map_err(|e| format!("bootstrapping from {primary}: {e}"))?
        }
        Some(dir) => {
            if dir.join("sharding.txt").is_file() {
                return Err(format!(
                    "{} is a sharded directory; replication requires a single index",
                    dir.display()
                ));
            }
            let shared = open_single(dir, wal, pool_pages, policy)?;
            let follower = Follower::connect(primary, shared.clone(), fopts)
                .map_err(|e| format!("connecting to primary {primary}: {e}"))?;
            (shared, follower)
        }
    };
    {
        let index = shared.read();
        eprintln!(
            "follower of {primary}: {} sequences of length {}, applied lsn {} \
             ({} workers, queue {})",
            index.len(),
            index.seq_len(),
            shared.applied_lsn(),
            cfg.workers,
            cfg.queue_depth
        );
    }
    let stats = follower.stats();
    let stop = Arc::new(AtomicBool::new(false));
    let loop_handle = follower.spawn(Arc::clone(&stop));
    let handle = server::serve_with(Backend::from(shared), cfg, Some(stats))
        .map_err(|e| format!("binding {}: {e}", cfg.addr))?;
    // Registered so a PROMOTE request can halt the poll loop before
    // flipping this server to primary.
    handle.repl().register_follower_loop(stop, loop_handle);
    Ok(handle)
}

/// `simload`: replays a seeded closed-loop workload against a running
/// server and prints its latency/throughput table. Fails on any error
/// response or (with `--verify-index`) any result-parity failure.
pub fn load(argv: &[String]) -> Result<(), String> {
    if argv.first().map(String::as_str) == Some("help") {
        print!("{LOAD_USAGE}");
        return Ok(());
    }
    let opts = Opts::parse(argv, LOAD_FLAGS)?;
    let defaults = LoadConfig::default();
    let verify = match opts.get("verify-index") {
        None => None,
        // Read-only: the oracle may be the very directory the server
        // under test is serving (and holding the LOCK on).
        Some(dir) => Some(
            SharedIndex::open_read_only(Path::new(dir), opts.parse_or("pool-pages", 256)?)
                .map_err(|e| format!("opening verify index {dir}: {e}"))?,
        ),
    };
    let cfg = LoadConfig {
        addr: opts.req("addr")?.to_string(),
        conns: opts.parse_or("conns", defaults.conns)?,
        ops_per_conn: opts.parse_or("ops", defaults.ops_per_conn)?,
        seed: opts.parse_or("seed", defaults.seed)?,
        ma: opts.range("ma")?.unwrap_or(defaults.ma),
        rho: opts.parse_or("rho", defaults.rho)?,
        engine: opts.parse_or("engine", defaults.engine)?,
        verify,
        failover_to: opts
            .get("failover")
            .map(|raw| {
                raw.split(',')
                    .map(str::trim)
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            })
            .unwrap_or_default(),
        timeout_ms: opts.parse_opt("timeout-ms")?,
    };
    let report = load::run(&cfg).map_err(|e| format!("load run failed: {e}"))?;
    print!("{}", report.render());
    if report.total_errors() > 0 || report.total_parity_failures() > 0 {
        return Err(format!(
            "{} errors, {} parity failures",
            report.total_errors(),
            report.total_parity_failures()
        ));
    }
    Ok(())
}
