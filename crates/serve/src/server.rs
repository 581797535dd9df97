//! The `simserved` core: acceptor, connection handlers, request execution.
//!
//! Threading model:
//!
//! * one **acceptor** thread blocks on [`TcpListener::accept`];
//! * each accepted connection gets a lightweight **handler** thread that
//!   reads request lines, parses them, and *submits* execution to the
//!   worker pool (capped at [`ServerConfig::max_conns`] concurrent
//!   connections — beyond that the connection is greeted with
//!   `ERR code=BUSY` and closed);
//! * a fixed pool of **workers** executes requests against the shared
//!   index and sends the response back to the handler over a one-shot
//!   channel. The pool's queue is bounded: a full queue rejects the
//!   request with `ERR code=BUSY` *before* any index work happens.
//!
//! Queries take the index's read lock (concurrent), `INSERT`/`DELETE`
//! take the write lock (exclusive).

use crate::metrics::{op_index, Registry};
use crate::pool::{PushError, WorkerPool};
use crate::protocol::{
    EngineKind, ErrCode, PlanStatLine, QueryParams, Request, Response, WireMatch, WireMetrics,
    WirePair, WireThreshold, WireTraceEvent,
};
use crate::repl::{serve_repl, FollowerStats, ReplPoll, ReplState};
use simobs::{SlowEntry, SlowLog};
use simquery::prelude::*;
use simquery::report::{JoinResult, QueryError};
use simquery::shared::DurableError;
use simshard::{gather, ShardError, ShardedIndex};
use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::Instant;

/// Server tunables.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Worker threads executing requests.
    pub workers: usize,
    /// Bounded request-queue depth (admission control threshold).
    pub queue_depth: usize,
    /// Maximum concurrent connections.
    pub max_conns: usize,
    /// Result-cache capacity in entries (0 disables caching). Cached
    /// results are keyed on the query fingerprint and the index's
    /// [`QueryEpoch`], so mutations can never serve stale reads.
    pub result_cache: usize,
    /// Result-cache admission floor in cost-model work units
    /// ([`simquery::plan::execution_cost`]): results cheaper than this
    /// are not worth a cache slot. 0.0 admits everything.
    pub cache_floor: f64,
    /// Slow-query log threshold, µs (inclusive). `u64::MAX` disables the
    /// log; 0 logs every cache-missing query.
    pub slow_query_us: u64,
    /// Trace sampling: record every k-th root span (0 disables tracing).
    pub trace_sample: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".into(),
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            queue_depth: 64,
            max_conns: 64,
            result_cache: 0,
            cache_floor: 0.0,
            slow_query_us: u64::MAX,
            trace_sample: simobs::trace::DEFAULT_SAMPLE,
        }
    }
}

/// The index a server executes against: a single [`SharedIndex`] (one
/// lock), or a [`ShardedIndex`] (per-shard locks, scatter-gather
/// execution, per-shard `STATS` breakdown). `JOIN` is only available on a
/// single backend — its cross-shard pairs would defeat the partitioning.
#[derive(Clone)]
pub enum Backend {
    /// One index behind one lock.
    Single(SharedIndex),
    /// N shards queried by scatter-gather.
    Sharded(Arc<ShardedIndex>),
}

impl From<SharedIndex> for Backend {
    fn from(shared: SharedIndex) -> Self {
        Self::Single(shared)
    }
}

impl From<ShardedIndex> for Backend {
    fn from(sharded: ShardedIndex) -> Self {
        Self::Sharded(Arc::new(sharded))
    }
}

impl From<Arc<ShardedIndex>> for Backend {
    fn from(sharded: Arc<ShardedIndex>) -> Self {
        Self::Sharded(sharded)
    }
}

/// A running server; dropping it does NOT stop the threads — call
/// [`ServerHandle::shutdown`] (tests) or [`ServerHandle::join`] (daemon).
pub struct ServerHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    acceptor: JoinHandle<()>,
    /// Shared metrics, exposed for in-process inspection.
    pub metrics: Arc<Registry>,
    repl: Arc<ReplState>,
    pool: Arc<WorkerPool>,
}

impl ServerHandle {
    /// The server's replication state — register the follower loop here
    /// (see [`ReplState::register_follower_loop`]) so a later `PROMOTE`
    /// can halt it.
    pub fn repl(&self) -> &Arc<ReplState> {
        &self.repl
    }
}

impl ServerHandle {
    /// Graceful shutdown: stops accepting, joins the acceptor, then
    /// drains the worker pool — already-admitted requests finish and
    /// answer their clients, later submissions from still-open
    /// connections get the typed shutting-down error, and every worker
    /// thread is joined before this returns.
    pub fn shutdown(self) {
        self.stop.store(true, Ordering::SeqCst);
        // Unblock accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let _ = self.acceptor.join();
        self.pool.drain();
    }

    /// Blocks until the acceptor exits (i.e. forever, for a daemon).
    pub fn join(self) {
        let _ = self.acceptor.join();
    }
}

/// Starts serving `backend` per `cfg` (a bare [`SharedIndex`] converts
/// into a single-index backend). Returns once the listener is bound.
/// The server answers `REPL` polls whenever the backend is a durable
/// single index — any such server can feed followers.
pub fn serve(backend: impl Into<Backend>, cfg: &ServerConfig) -> io::Result<ServerHandle> {
    serve_with(backend, cfg, None)
}

/// [`serve`] for a replication follower: `follower` carries the counters
/// the follower loop publishes. The server then refuses writes with
/// `ERR code=READONLY` and reports the follower `REPL` stats line.
pub fn serve_with(
    backend: impl Into<Backend>,
    cfg: &ServerConfig,
    follower: Option<Arc<FollowerStats>>,
) -> io::Result<ServerHandle> {
    let backend = backend.into();
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let metrics = Arc::new(Registry::default());
    metrics.slow().set_threshold_us(cfg.slow_query_us);
    // The tracer is process-global (the instrumented crates have no
    // server handle); the most recently started server wins the rate.
    simobs::trace::global().set_sample(cfg.trace_sample);
    let stop = Arc::new(AtomicBool::new(false));
    let pool = Arc::new(WorkerPool::new(cfg.workers, cfg.queue_depth));
    let cache = Arc::new(PlanCache::with_floor(cfg.result_cache, cfg.cache_floor));
    let repl = Arc::new(match follower {
        Some(stats) => ReplState::follower(stats),
        None => ReplState::primary(),
    });
    let live_conns = Arc::new(AtomicUsize::new(0));
    let max_conns = cfg.max_conns;

    let repl_handle = Arc::clone(&repl);
    let pool_handle = Arc::clone(&pool);
    let acceptor = {
        let (metrics, stop) = (Arc::clone(&metrics), Arc::clone(&stop));
        std::thread::Builder::new()
            .name("simserve-acceptor".into())
            .spawn(move || {
                for stream in listener.incoming() {
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if live_conns.load(Ordering::SeqCst) >= max_conns {
                        metrics.record_busy();
                        let mut w = BufWriter::new(&stream);
                        let _ = Response::Err {
                            code: ErrCode::Busy,
                            msg: format!("connection limit {max_conns} reached"),
                        }
                        .write_to(&mut w);
                        let _ = w.flush();
                        continue;
                    }
                    metrics.record_connection();
                    live_conns.fetch_add(1, Ordering::SeqCst);
                    let backend = backend.clone();
                    let metrics = Arc::clone(&metrics);
                    let pool = Arc::clone(&pool);
                    let cache = Arc::clone(&cache);
                    let repl = Arc::clone(&repl);
                    let live_conns = Arc::clone(&live_conns);
                    let _ = std::thread::Builder::new()
                        .name("simserve-conn".into())
                        .spawn(move || {
                            let peer = stream
                                .peer_addr()
                                .map(|a| a.to_string())
                                .unwrap_or_else(|_| "unknown".into());
                            let _ = handle_connection(
                                stream, &backend, &metrics, &pool, &cache, &repl, &peer,
                            );
                            repl.drop_peer(&peer);
                            live_conns.fetch_sub(1, Ordering::SeqCst);
                        });
                }
            })?
    };

    Ok(ServerHandle {
        addr,
        stop,
        acceptor,
        metrics,
        repl: repl_handle,
        pool: pool_handle,
    })
}

fn handle_connection(
    stream: TcpStream,
    backend: &Backend,
    metrics: &Arc<Registry>,
    pool: &Arc<WorkerPool>,
    cache: &Arc<PlanCache>,
    repl: &Arc<ReplState>,
    peer: &str,
) -> io::Result<()> {
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = BufWriter::new(stream);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            return Ok(()); // client hung up
        }
        if line.trim().is_empty() {
            continue;
        }
        let request = match Request::parse(&line) {
            Ok(r) => r,
            Err(e) => {
                Response::Err {
                    code: ErrCode::BadRequest,
                    msg: e.to_string(),
                }
                .write_to(&mut writer)?;
                writer.flush()?;
                continue;
            }
        };
        if matches!(request, Request::Quit) {
            Response::Ok.write_to(&mut writer)?;
            writer.flush()?;
            return Ok(());
        }
        if let Request::Repl {
            epoch,
            from,
            ack,
            max,
            wait_ms,
        } = request
        {
            // Served inline, like QUIT: a long-poll parked in the
            // bounded worker pool would starve query traffic.
            let start = Instant::now();
            let poll = ReplPoll {
                epoch,
                from,
                ack,
                max,
                wait_ms,
            };
            let response = serve_repl(backend, repl, peer, poll);
            let is_err = matches!(response, Response::Err { .. });
            metrics.record(op_index("repl"), start.elapsed(), is_err);
            response.write_to(&mut writer)?;
            writer.flush()?;
            continue;
        }

        // Hand execution to the worker pool; a full queue is an immediate
        // BUSY error — the admission-control contract.
        let (tx, rx) = mpsc::channel::<Response>();
        let job = {
            let backend = backend.clone();
            let metrics = Arc::clone(metrics);
            let cache = Arc::clone(cache);
            let repl = Arc::clone(repl);
            Box::new(move || {
                let op = op_index(request.op_name());
                let start = Instant::now();
                let response = execute(&backend, &metrics, &cache, &repl, request);
                let is_err = matches!(response, Response::Err { .. });
                metrics.record(op, start.elapsed(), is_err);
                let _ = tx.send(response);
            })
        };
        let response = match pool.submit(job) {
            Ok(()) => rx.recv().unwrap_or(Response::Err {
                code: ErrCode::Server,
                msg: "worker dropped the request".into(),
            }),
            Err(PushError::Full) => {
                metrics.record_busy();
                Response::Err {
                    code: ErrCode::Busy,
                    msg: format!("request queue full (depth {})", pool.queue_depth()),
                }
            }
            Err(PushError::Closed) => Response::Err {
                code: ErrCode::Server,
                msg: "server shutting down".into(),
            },
        };
        response.write_to(&mut writer)?;
        writer.flush()?;
    }
}

impl Request {
    /// Metric label of this request.
    pub fn op_name(&self) -> &'static str {
        match self {
            Self::Query(_) => "query",
            Self::Knn { .. } => "knn",
            Self::Join { .. } => "join",
            Self::Insert { .. } => "insert",
            Self::Delete { .. } => "delete",
            Self::Sync => "sync",
            Self::Checkpoint => "checkpoint",
            Self::Info => "info",
            Self::Stats { .. } => "stats",
            Self::Metrics => "metrics",
            Self::Trace { .. } => "trace",
            Self::Explain { .. } => "explain",
            Self::Repl { .. } => "repl",
            Self::Promote => "promote",
            Self::Quit => "info",
        }
    }
}

/// Executes one request against the backend. `Stats` reads the metrics
/// registry; everything else touches only the index (or its shards).
/// Query verbs build a [`LogicalQuery`], consult the result cache, and
/// route through the plan layer — the server never calls an engine
/// directly.
fn execute(
    backend: &Backend,
    metrics: &Registry,
    cache: &PlanCache,
    repl: &ReplState,
    request: Request,
) -> Response {
    if repl.is_follower()
        && matches!(
            request,
            Request::Insert { .. } | Request::Delete { .. } | Request::Checkpoint
        )
    {
        return err(
            ErrCode::ReadOnly,
            "this server is a replication follower; send writes to the primary",
        );
    }
    match request {
        Request::Query(p) => run_query(backend, cache, metrics.slow(), p),
        Request::Knn { ord, k, ma } => run_knn(backend, cache, metrics.slow(), ord, k, ma),
        Request::Join {
            ma,
            threshold,
            engine,
            limit,
        } => run_join(backend, cache, metrics.slow(), ma, threshold, engine, limit),
        Request::Explain { inner } => run_explain(backend, *inner),
        Request::Insert { values } => {
            let ts = TimeSeries::new(values);
            // The WAL-aware mutation paths: logged-then-acked when the
            // backend is durable, plain apply otherwise.
            let outcome = match backend {
                Backend::Single(shared) => shared.insert_series(&ts),
                Backend::Sharded(sharded) => sharded.insert_series(&ts),
            };
            match outcome {
                Ok(ord) => {
                    repl.notify_append();
                    Response::Inserted { ord }
                }
                Err(e) => durable_err(e),
            }
        }
        Request::Delete { ord } => {
            let outcome = match backend {
                Backend::Single(shared) => shared.delete_series(ord),
                Backend::Sharded(sharded) => sharded.delete_series(ord),
            };
            match outcome {
                Ok(existed) => {
                    if existed {
                        repl.notify_append();
                    }
                    Response::Deleted { existed }
                }
                Err(e) => durable_err(e),
            }
        }
        Request::Sync => {
            let outcome = match backend {
                Backend::Single(shared) => shared.sync_wal().map_err(durable_err),
                Backend::Sharded(sharded) => sharded.sync_wal().map_err(shard_err),
            };
            match outcome {
                Ok(true) => Response::Ok,
                Ok(false) => not_durable(),
                Err(resp) => resp,
            }
        }
        Request::Checkpoint => {
            let outcome = match backend {
                Backend::Single(shared) => shared.checkpoint().map_err(durable_err),
                Backend::Sharded(sharded) => sharded.checkpoint().map_err(shard_err),
            };
            match outcome {
                Ok(Some(epoch)) => Response::Checkpointed { epoch },
                Ok(None) => not_durable(),
                Err(resp) => resp,
            }
        }
        Request::Info => match backend {
            Backend::Single(shared) => {
                let index = shared.read();
                let mut info = vec![
                    ("sequences".into(), index.len().to_string()),
                    ("seq_len".into(), index.seq_len().to_string()),
                    ("tree_height".into(), index.height().to_string()),
                    ("leaf_capacity".into(), index.leaf_capacity().to_string()),
                    ("skipped".into(), index.skipped().len().to_string()),
                    ("deleted".into(), index.deleted_count().to_string()),
                    ("durable".into(), shared.is_durable().to_string()),
                    (
                        "role".into(),
                        if repl.is_follower() {
                            "follower".into()
                        } else {
                            "primary".to_string()
                        },
                    ),
                ];
                if let Some(epoch) = shared.wal_epoch() {
                    info.push(("wal_epoch".into(), epoch.to_string()));
                }
                info.push(("fenced".into(), shared.is_fenced().to_string()));
                let fence = shared.fence();
                if fence > 0 {
                    info.push(("fence_epoch".into(), fence.to_string()));
                }
                if repl.is_follower() {
                    info.push(("applied_lsn".into(), shared.applied_lsn().to_string()));
                }
                Response::Info(info)
            }
            Backend::Sharded(sharded) => {
                let loads = sharded.shard_loads();
                let mut info = vec![
                    ("sequences".into(), sharded.len().to_string()),
                    ("seq_len".into(), sharded.seq_len().to_string()),
                    ("shards".into(), sharded.shard_count().to_string()),
                    ("partitioner".into(), sharded.partitioner_kind().to_string()),
                    ("deleted".into(), sharded.deleted_count().to_string()),
                    (
                        "shard_loads".into(),
                        loads
                            .iter()
                            .map(|l| l.to_string())
                            .collect::<Vec<_>>()
                            .join(","),
                    ),
                    ("durable".into(), sharded.is_durable().to_string()),
                ];
                if sharded.is_durable() {
                    info.push(("wal_epoch".into(), sharded.epoch().to_string()));
                }
                Response::Info(info)
            }
        },
        Request::Stats { reset } => {
            let (counters, shards) = match backend {
                Backend::Single(shared) => (shared.read().counters(), Vec::new()),
                Backend::Sharded(sharded) => {
                    let loads = sharded.shard_loads();
                    let per = sharded.per_shard_counters();
                    let lines = per
                        .iter()
                        .enumerate()
                        .map(|(id, c)| crate::protocol::ShardStatLine {
                            id,
                            seqs: loads.get(id).copied().unwrap_or(0) as u64,
                            node_reads: c.node_reads,
                            record_page_reads: c.record_page_reads,
                            record_fetches: c.record_fetches,
                        })
                        .collect();
                    // Totals from the same snapshot, so the COUNTERS line
                    // always equals the sum of the SHARD lines.
                    let total =
                        per.iter()
                            .fold(simquery::index::AccessCounters::default(), |acc, c| {
                                simquery::index::AccessCounters {
                                    node_reads: acc.node_reads + c.node_reads,
                                    record_page_reads: acc.record_page_reads + c.record_page_reads,
                                    record_fetches: acc.record_fetches + c.record_fetches,
                                }
                            });
                    (total, lines)
                }
            };
            let wal = match backend {
                Backend::Single(shared) => shared.wal_stats().map(|s| (s, shared.wal_epoch())),
                Backend::Sharded(sharded) => {
                    sharded.wal_stats().map(|s| (s, Some(sharded.epoch())))
                }
            }
            .map(|(s, epoch)| crate::protocol::WalStatLine {
                appends: s.appends,
                fsyncs: s.fsyncs,
                replayed: s.replayed,
                epoch: epoch.unwrap_or(0),
            });
            let snap = match backend {
                Backend::Single(shared) => shared.stats().snapshot(),
                Backend::Sharded(sharded) => sharded.stats().snapshot(),
            };
            let cc = cache.counters();
            let plan_line = Some(PlanStatLine {
                built: snap.plans_built,
                cache_hits: cc.hits,
                cache_misses: cc.misses,
                cache_evictions: cc.evictions,
                cache_entries: cc.entries,
                cache_admitted: cc.admitted,
                cache_rejected: cc.rejected,
                mt: snap.dispatch_mt,
                st: snap.dispatch_st,
                scan: snap.dispatch_scan,
            });
            let repl_line = repl.stat_line(backend);
            Response::Stats(Box::new(
                metrics.report(counters, shards, wal, plan_line, repl_line, reset),
            ))
        }
        Request::Metrics => crate::expose::render(backend, metrics, cache, repl),
        Request::Trace { n } => {
            let events = simobs::trace::global()
                .drain(n)
                .into_iter()
                .map(|e| WireTraceEvent {
                    seq: e.seq,
                    trace: e.trace,
                    name: e.name.to_string(),
                    depth: e.depth,
                    start_us: e.start_us,
                    dur_us: e.dur_us,
                })
                .collect();
            Response::Trace { events }
        }
        Request::Promote => match backend {
            Backend::Single(shared) => {
                if !repl.is_follower() {
                    return err(
                        ErrCode::Query,
                        "PROMOTE: this server is already a primary (or standalone)",
                    );
                }
                // Halt the replication loop and wait out any in-flight
                // poll BEFORE touching the index, so no frame or
                // snapshot from the old timeline can land on (or roll
                // back) the promoted state.
                repl.halt_follower_loop();
                match shared.promote() {
                    Ok(epoch) => {
                        repl.promote_to_primary();
                        Response::Promoted { epoch }
                    }
                    Err(e) => durable_err(e),
                }
            }
            Backend::Sharded(_) => err(
                ErrCode::Query,
                "PROMOTE requires a single-index server (shards replicate separately)",
            ),
        },
        // Both handled on the connection thread, never submitted here.
        Request::Repl { .. } | Request::Quit => Response::Ok,
    }
}

fn err(code: ErrCode, msg: impl Into<String>) -> Response {
    Response::Err {
        code,
        msg: msg.into(),
    }
}

/// Engine errors carrying a device failure become `ERR IO`; everything
/// else stays `ERR QUERY`.
fn query_err(e: QueryError) -> Response {
    let code = match e {
        QueryError::Io(_) => ErrCode::Io,
        _ => ErrCode::Query,
    };
    err(code, e.to_string())
}

/// A raw page failure (e.g. fetching the query ordinal's record).
fn io_err(e: pagestore::PageError) -> Response {
    err(ErrCode::Io, QueryError::from(e).to_string())
}

/// Durable-mutation errors: engine rejections keep their `QUERY`/`IO`
/// split; WAL and snapshot failures are `IO`; a replication gap is a
/// protocol-level inconsistency, so `SERVER`.
fn durable_err(e: DurableError) -> Response {
    match e {
        DurableError::Query(q) => query_err(q),
        e @ (DurableError::Wal(_) | DurableError::Io(_) | DurableError::Poisoned) => {
            err(ErrCode::Io, e.to_string())
        }
        gap @ DurableError::Gap { .. } => err(ErrCode::Server, gap.to_string()),
        // A fenced node is read-only by definition: the same signal a
        // follower sends, so FailoverClient chases both identically.
        fenced @ DurableError::Fenced { .. } => err(ErrCode::ReadOnly, fenced.to_string()),
    }
}

fn shard_err(e: ShardError) -> Response {
    match e {
        ShardError::Page(_) | ShardError::Wal(_) | ShardError::Io(_) | ShardError::Poisoned => {
            err(ErrCode::Io, e.to_string())
        }
        e => err(ErrCode::Query, e.to_string()),
    }
}

/// `SYNC`/`CHECKPOINT` against a server started without `--wal`.
fn not_durable() -> Response {
    err(
        ErrCode::Query,
        "server runs without durability (start simserved with --wal DIR)",
    )
}

fn family_for(ma: (usize, usize), seq_len: usize) -> Result<Family, Response> {
    if ma.1 > seq_len {
        return Err(err(
            ErrCode::Query,
            format!("ma window {} exceeds sequence length {seq_len}", ma.1),
        ));
    }
    Ok(Family::moving_averages(ma.0..=ma.1, seq_len))
}

/// Wire engine choice → planner preference.
pub fn engine_pref(kind: EngineKind) -> EnginePref {
    match kind {
        EngineKind::Mt => EnginePref::Force(EngineChoice::Mt),
        EngineKind::St => EnginePref::Force(EngineChoice::St),
        EngineKind::Scan => EnginePref::Force(EngineChoice::Scan),
        EngineKind::Auto => EnginePref::Auto,
    }
}

/// Renders a range/kNN match list, truncating the body by `limit`.
fn matches_response(matches: &[Match], metrics: &EngineMetrics, limit: usize) -> Response {
    let n = matches.len();
    let take = if limit == 0 { n } else { limit.min(n) };
    Response::Matches {
        n,
        matches: matches[..take]
            .iter()
            .map(|m| WireMatch {
                seq: m.seq,
                transform: m.transform,
                dist: m.dist,
            })
            .collect(),
        metrics: WireMetrics::from(metrics),
    }
}

/// Renders a join pair list, truncating the body by `limit`.
fn pairs_response(r: &JoinResult, limit: usize) -> Response {
    let n = r.matches.len();
    let take = if limit == 0 { n } else { limit.min(n) };
    Response::Pairs {
        n,
        pairs: r.matches[..take]
            .iter()
            .map(|m| WirePair {
                a: m.seq_a,
                b: m.seq_b,
                transform: m.transform,
                dist: m.dist,
            })
            .collect(),
        metrics: WireMetrics::from(&r.metrics),
    }
}

/// Validates the ordinal and family, then fetches the query sequence —
/// the shared front half of every ord-addressed query verb.
fn prepare(
    backend: &Backend,
    ord: usize,
    ma: (usize, usize),
) -> Result<(Family, TimeSeries), Response> {
    match backend {
        Backend::Single(shared) => {
            let index = shared.read();
            if ord >= index.len() {
                return Err(err(
                    ErrCode::Range,
                    format!("ordinal {ord} out of range (0..{})", index.len()),
                ));
            }
            let family = family_for(ma, index.seq_len())?;
            let q = index.fetch_series(ord).map_err(io_err)?;
            Ok((family, q))
        }
        Backend::Sharded(sharded) => {
            if ord >= sharded.len() {
                return Err(err(
                    ErrCode::Range,
                    format!("ordinal {ord} out of range (0..{})", sharded.len()),
                ));
            }
            let family = family_for(ma, sharded.seq_len())?;
            let q = sharded.fetch_series(ord).map_err(query_err)?;
            Ok((family, q))
        }
    }
}

/// The cache epoch of the backend's current state.
fn backend_epoch(backend: &Backend) -> QueryEpoch {
    match backend {
        Backend::Single(shared) => shared.query_epoch(),
        Backend::Sharded(sharded) => sharded.query_epoch(),
    }
}

/// Plans and executes a logical query against either backend shape,
/// returning the plan and its output.
fn dispatch(
    backend: &Backend,
    lq: &LogicalQuery,
    q: Option<&TimeSeries>,
) -> Result<(PhysicalPlan, PlanOutput), QueryError> {
    let (plan, out, _) = dispatch_timed(backend, lq, q)?;
    Ok((plan, out))
}

/// [`dispatch`], but also reporting the plan/execute wall-clock split.
/// The scatter-gather path can't separate planning from execution (each
/// shard plans inside its lane), so there the whole call counts as
/// execution and `plan_us` stays 0.
fn dispatch_timed(
    backend: &Backend,
    lq: &LogicalQuery,
    q: Option<&TimeSeries>,
) -> Result<(PhysicalPlan, PlanOutput, StageTimings), QueryError> {
    match backend {
        Backend::Single(shared) => shared.execute_timed(lq, q),
        Backend::Sharded(sharded) => {
            let start = Instant::now();
            let (plan, out) = match lq.verb {
                LogicalVerb::Range => {
                    let query = q.expect("range queries carry a query sequence");
                    let (plan, r, _per_shard) = gather::execute_range(sharded, lq, query)?;
                    (plan, PlanOutput::Range(r))
                }
                LogicalVerb::Knn { .. } => {
                    let query = q.expect("kNN queries carry a query sequence");
                    let (plan, matches, merged, _per_shard) =
                        gather::execute_knn(sharded, lq, query)?;
                    (plan, PlanOutput::Knn(matches, merged))
                }
                LogicalVerb::Join => unreachable!("JOIN is rejected on sharded backends"),
            };
            let timings = StageTimings {
                plan_us: 0,
                exec_us: start.elapsed().as_micros().min(u64::MAX as u128) as u64,
            };
            Ok((plan, out, timings))
        }
    }
}

/// Matches (or pairs) an output carries, for the slow-query log.
fn output_matches(out: &PlanOutput) -> u64 {
    match out {
        PlanOutput::Range(r) => r.matches.len() as u64,
        PlanOutput::Knn(matches, _) => matches.len() as u64,
        PlanOutput::Join(r) => r.matches.len() as u64,
    }
}

/// Executes a cacheable query verb: epoch-keyed cache lookup, then the
/// plan layer on a miss. The epoch is read *before* execution so a
/// racing mutation can only waste a cache entry, never leave a stale one
/// valid for the current epoch. Cache misses are timed and offered to
/// the slow-query log (`describe` renders the query text only when the
/// log actually fires); the result is then *offered* to the cache, which
/// admits it only when its measured cost clears the admission floor.
fn run_cached(
    backend: &Backend,
    cache: &PlanCache,
    slow: &SlowLog,
    lq: &LogicalQuery,
    q: Option<&TimeSeries>,
    describe: impl FnOnce() -> String,
) -> Result<PlanOutput, Response> {
    let epoch = backend_epoch(backend);
    let fp = lq.fingerprint(q);
    if let Some((_, out)) = cache.get(fp, epoch) {
        return Ok(out);
    }
    let start = Instant::now();
    match dispatch_timed(backend, lq, q) {
        Ok((plan, out, timings)) => {
            let total_us = start.elapsed().as_micros().min(u64::MAX as u128) as u64;
            let m = out.metrics();
            slow.observe(total_us, || SlowEntry {
                query: describe(),
                plan: format!(
                    "engine={} chosen_by={} fanout={} threads={}",
                    plan.engine.as_str(),
                    plan.chosen_by.as_str(),
                    plan.fanout,
                    plan.threads
                ),
                est_pages: plan.est_pages,
                actual_pages: m.record_page_accesses,
                est_comparisons: plan.est_comparisons,
                actual_comparisons: m.comparisons,
                candidates: m.candidates,
                matches: output_matches(&out),
                plan_us: timings.plan_us,
                exec_us: timings.exec_us,
                total_us: 0, // observe() stamps the measured total
            });
            cache.offer(fp, epoch, plan, out.clone());
            Ok(out)
        }
        Err(e) => Err(query_err(e)),
    }
}

fn run_query(backend: &Backend, cache: &PlanCache, slow: &SlowLog, p: QueryParams) -> Response {
    let (family, q) = match prepare(backend, p.ord, p.ma) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let lq = LogicalQuery::range(family, p.threshold.to_spec()).with_engine(engine_pref(p.engine));
    let describe = || Request::Query(p).to_line();
    match run_cached(backend, cache, slow, &lq, Some(&q), describe) {
        Ok(PlanOutput::Range(r)) => matches_response(&r.matches, &r.metrics, p.limit),
        Ok(_) => err(ErrCode::Server, "range plan produced a non-range result"),
        Err(resp) => resp,
    }
}

fn run_knn(
    backend: &Backend,
    cache: &PlanCache,
    slow: &SlowLog,
    ord: usize,
    k: usize,
    ma: (usize, usize),
) -> Response {
    let (family, q) = match prepare(backend, ord, ma) {
        Ok(v) => v,
        Err(resp) => return resp,
    };
    let lq = LogicalQuery::knn(family, k);
    let describe = || Request::Knn { ord, k, ma }.to_line();
    match run_cached(backend, cache, slow, &lq, Some(&q), describe) {
        Ok(PlanOutput::Knn(matches, metrics)) => matches_response(&matches, &metrics, 0),
        Ok(_) => err(ErrCode::Server, "kNN plan produced a non-kNN result"),
        Err(resp) => resp,
    }
}

fn run_join(
    backend: &Backend,
    cache: &PlanCache,
    slow: &SlowLog,
    ma: (usize, usize),
    threshold: WireThreshold,
    engine: EngineKind,
    limit: usize,
) -> Response {
    let Backend::Single(shared) = backend else {
        return err(
            ErrCode::Query,
            "JOIN is not supported on a sharded backend (pairs cross shards); \
             serve the index unsharded to join",
        );
    };
    let family = match family_for(ma, shared.read().seq_len()) {
        Ok(f) => f,
        Err(resp) => return resp,
    };
    let lq = LogicalQuery::join(family, threshold.to_spec()).with_engine(engine_pref(engine));
    let describe = || {
        Request::Join {
            ma,
            threshold,
            engine,
            limit,
        }
        .to_line()
    };
    match run_cached(backend, cache, slow, &lq, None, describe) {
        Ok(PlanOutput::Join(r)) => pairs_response(&r, limit),
        Ok(_) => err(ErrCode::Server, "join plan produced a non-join result"),
        Err(resp) => resp,
    }
}

/// `EXPLAIN`: plans and executes the wrapped verb, bypassing the result
/// cache (an EXPLAIN that answered from cache would have no actual cost
/// to report), and renders the chosen plan with estimated-vs-actual
/// counters.
fn run_explain(backend: &Backend, inner: Request) -> Response {
    let (verb, lq, q) = match inner {
        Request::Query(p) => {
            let (family, q) = match prepare(backend, p.ord, p.ma) {
                Ok(v) => v,
                Err(resp) => return resp,
            };
            let lq = LogicalQuery::range(family, p.threshold.to_spec())
                .with_engine(engine_pref(p.engine));
            ("query", lq, Some(q))
        }
        Request::Knn { ord, k, ma } => {
            let (family, q) = match prepare(backend, ord, ma) {
                Ok(v) => v,
                Err(resp) => return resp,
            };
            ("knn", LogicalQuery::knn(family, k), Some(q))
        }
        Request::Join {
            ma,
            threshold,
            engine,
            ..
        } => {
            let Backend::Single(shared) = backend else {
                return err(
                    ErrCode::Query,
                    "JOIN is not supported on a sharded backend (pairs cross shards); \
                     serve the index unsharded to join",
                );
            };
            let family = match family_for(ma, shared.read().seq_len()) {
                Ok(f) => f,
                Err(resp) => return resp,
            };
            let lq =
                LogicalQuery::join(family, threshold.to_spec()).with_engine(engine_pref(engine));
            ("join", lq, None)
        }
        // Request::parse only wraps query verbs in EXPLAIN.
        _ => return err(ErrCode::BadRequest, "EXPLAIN wraps QUERY, KNN or JOIN"),
    };
    match dispatch(backend, &lq, q.as_ref()) {
        Ok((plan, out)) => {
            let m = out.metrics();
            let n = match &out {
                PlanOutput::Range(r) => r.matches.len(),
                PlanOutput::Knn(matches, _) => matches.len(),
                PlanOutput::Join(r) => r.matches.len(),
            };
            Response::Plan(vec![
                ("verb".into(), verb.into()),
                ("engine".into(), plan.engine.as_str().into()),
                ("chosen_by".into(), plan.chosen_by.as_str().into()),
                ("partitions".into(), plan.partitions().to_string()),
                ("fanout".into(), plan.fanout.to_string()),
                ("threads".into(), plan.threads.to_string()),
                ("est_nodes".into(), format!("{:.1}", plan.est_nodes)),
                ("est_pages".into(), format!("{:.1}", plan.est_pages)),
                ("est_cmps".into(), format!("{:.1}", plan.est_comparisons)),
                ("est_cost".into(), format!("{:.1}", plan.est_cost)),
                ("nodes".into(), m.node_accesses.to_string()),
                ("pages".into(), m.record_page_accesses.to_string()),
                ("cmps".into(), m.comparisons.to_string()),
                ("matches".into(), n.to_string()),
                ("wall_us".into(), (m.wall.as_micros() as u64).to_string()),
            ])
        }
        Err(e) => query_err(e),
    }
}
