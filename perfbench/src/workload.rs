//! The three workloads: seeded inputs, an in-process server on loopback,
//! the load, and the correctness gate that runs after the timed window.

use crate::oracle::Oracle;
use crate::replay::pairs;
use simquery::index::{IndexConfig, SeqIndex};
use simquery::plan::{EngineChoice, EnginePref, LogicalQuery};
use simquery::shared::SharedIndex;
use simquery::transform::Family;
use simserve::client::{Client, ClientConfig};
use simserve::protocol::{EngineKind, QueryParams, Request, Response, WireThreshold};
use simserve::server::{serve, Backend, ServerConfig, ServerHandle};
use simshard::{gather, ShardConfig, ShardedIndex};
use simwal::FsyncPolicy;
use std::collections::{BTreeMap, BTreeSet};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tseries::rng::{splitmix64, SeededRng};
use tseries::{random_walk, Corpus, CorpusKind, TimeSeries};

/// Length of every sequence.
pub const SEQ_LEN: usize = 128;
/// Server worker threads.
pub const WORKERS: usize = 2;
/// Load connections.
pub const CONNS: usize = 2;
/// Corpus of `range_fit` and `hot_cached`.
pub const SMALL_CORPUS: usize = 2_000;
/// Record pool of the single backend, pages (the corpus fills 286).
pub const SMALL_POOL_PAGES: usize = 512;
/// Corpus of `ingest_sharded`.
pub const LARGE_CORPUS: usize = 20_000;
/// Hash shards of `ingest_sharded`.
pub const LARGE_SHARDS: usize = 4;
/// Record pool per shard, pages (4 × 64 against 2 858 record pages).
pub const LARGE_POOL_PAGES: usize = 64;
/// Result-cache entries of `hot_cached`.
pub const RESULT_CACHE: usize = 1024;
/// Hot ordinals of `hot_cached`.
pub const HOT_ORDINALS: usize = 200;
/// `hot_cached` requests per connection between popularity reshuffles.
pub const HOT_RESHUFFLE: usize = 250;
/// Share of `range_fit` operations that are KNN.
pub const KNN_SHARE: f64 = 0.10;
/// Neighbours per KNN.
pub const KNN_K: usize = 10;
/// The wide moving-average window family.
pub const WIDE: (usize, usize) = (5, 20);
/// The narrow window family `hot_cached` alternates with.
pub const NARROW: (usize, usize) = (4, 12);
/// Correlation threshold of every QUERY.
pub const RHO: f64 = 0.96;
/// `ingest_sharded` open-loop QUERY rate of connection B, 1/s.
pub const QUERY_RATE: f64 = 1.0;
/// INSERTs between CHECKPOINTs.
pub const CHECKPOINT_EVERY: usize = 1_000;
/// INSERTs between the write connection's own QUERYs.
pub const INSERTS_PER_QUERY: usize = 100;
/// WAL fsync policy (the `simserved` default).
pub const FSYNC: FsyncPolicy = FsyncPolicy::Always;
/// Generator lag (p99 of send − due) beyond which an open-loop run is
/// invalid: the system did not sustain the offered rate.
pub const MAX_GEN_LAG_MS: f64 = 1000.0;
/// `range_fit` requests per connection before the window opens (a count,
/// not a time, so the measured stream starts at the same position on
/// every run of a seed).
pub const WARMUP_OPS: usize = 25;
/// Seeded final-state queries checked against the oracle.
pub const FINAL_SAMPLE: usize = 4;

/// One of the benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Corpus fits the record pool; every op misses every cache.
    RangeFit,
    /// Skewed repeats answered from the result cache.
    HotCached,
    /// Durable inserts beside reads on a corpus larger than the pools.
    IngestSharded,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "range_fit" => Some(Self::RangeFit),
            "hot_cached" => Some(Self::HotCached),
            "ingest_sharded" => Some(Self::IngestSharded),
            _ => None,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Self::RangeFit => "range_fit",
            Self::HotCached => "hot_cached",
            Self::IngestSharded => "ingest_sharded",
        }
    }

    /// Sequences in the base corpus.
    pub fn corpus_len(self) -> usize {
        match self {
            Self::IngestSharded => LARGE_CORPUS,
            _ => SMALL_CORPUS,
        }
    }

    /// Record-pool pages per index.
    pub fn pool_pages(self) -> usize {
        match self {
            Self::IngestSharded => LARGE_POOL_PAGES,
            _ => SMALL_POOL_PAGES,
        }
    }

    /// Result-cache entries of the server.
    pub fn result_cache(self) -> usize {
        match self {
            Self::HotCached => RESULT_CACHE,
            _ => 0,
        }
    }
}

/// A seed for one named input stream of a run.
pub fn stream_seed(seed: u64, stream: u64) -> u64 {
    let mut s = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    splitmix64(&mut s)
}

/// The family a `ma=lo..hi` request names.
pub fn family(ma: (usize, usize)) -> Family {
    Family::moving_averages(ma.0..=ma.1, SEQ_LEN)
}

/// The MT range query of a `QUERY … engine=mt` request.
pub fn range_query(ma: (usize, usize)) -> LogicalQuery {
    LogicalQuery::range(family(ma), WireThreshold::Rho(RHO).to_spec())
        .with_engine(EnginePref::Force(EngineChoice::Mt))
}

fn query_request(ord: usize, ma: (usize, usize)) -> Request {
    Request::Query(QueryParams {
        ord,
        ma,
        threshold: WireThreshold::Rho(RHO),
        engine: EngineKind::Mt,
        limit: 0,
    })
}

/// Durable directories of the sharded backend.
pub struct Dirs {
    /// Snapshot directory (`sharding.txt` + `shard-N/`).
    pub index: PathBuf,
    /// Per-shard WAL root.
    pub wal: PathBuf,
}

/// A running in-process server and what the benchmark keeps beside it.
pub struct Server {
    /// The server.
    pub handle: ServerHandle,
    /// The index it serves (shared with the server threads).
    pub backend: Backend,
    /// The base corpus.
    pub corpus: Corpus,
    /// Durable directories, when the backend is durable.
    pub dirs: Option<Dirs>,
    /// The load connections; connection 0 also carries INFO and STATS.
    pub clients: Vec<Option<Client>>,
}

fn client_config() -> ClientConfig {
    ClientConfig::with_timeout_ms(30_000)
}

fn connect(addr: SocketAddr) -> Result<Client, String> {
    Client::connect_with(addr, client_config()).map_err(|e| format!("connect {addr}: {e}"))
}

/// The base corpus of one set-up.
pub fn corpus(w: Workload, seed: u64) -> Corpus {
    Corpus::generate(CorpusKind::SyntheticWalks, w.corpus_len(), SEQ_LEN, seed)
}

/// Builds the `ingest_sharded` shards of `corpus`, saves them and reopens
/// them with `open_durable`.
pub fn open_sharded(corpus: &Corpus, dirs: &Dirs) -> Result<ShardedIndex, String> {
    let index_cfg = IndexConfig {
        heap_pool_pages: LARGE_POOL_PAGES,
        ..IndexConfig::default()
    };
    let built = ShardedIndex::build(corpus, ShardConfig::new(LARGE_SHARDS)?, index_cfg)
        .map_err(|e| format!("shard build: {e}"))?;
    built
        .save(&dirs.index)
        .map_err(|e| format!("save {}: {e}", dirs.index.display()))?;
    drop(built);
    let (sharded, _) = ShardedIndex::open_durable(&dirs.index, &dirs.wal, LARGE_POOL_PAGES, FSYNC)
        .map_err(|e| format!("durable open: {e}"))?;
    Ok(sharded)
}

/// Generates the corpus, builds (and for `ingest_sharded` persists and
/// durably reopens) the index, binds the server and waits for its first
/// INFO answer. Returns the server and the elapsed set-up time, s.
pub fn start(w: Workload, seed: u64, work: &Path) -> Result<(Server, f64), String> {
    let t0 = Instant::now();
    let corpus = corpus(w, seed);
    let index_cfg = IndexConfig {
        heap_pool_pages: w.pool_pages(),
        ..IndexConfig::default()
    };
    let (backend, dirs) = match w {
        Workload::RangeFit | Workload::HotCached => {
            let index = SeqIndex::build(&corpus, index_cfg).ok_or("empty corpus")?;
            (Backend::Single(SharedIndex::new(index)), None)
        }
        Workload::IngestSharded => {
            let dirs = Dirs {
                index: work.join("index"),
                wal: work.join("wal"),
            };
            let sharded = open_sharded(&corpus, &dirs)?;
            (Backend::Sharded(Arc::new(sharded)), Some(dirs))
        }
    };
    let cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: WORKERS,
        result_cache: w.result_cache(),
        ..ServerConfig::default()
    };
    let handle = serve(backend.clone(), &cfg).map_err(|e| format!("bind: {e}"))?;
    let mut first = connect(handle.addr)?;
    match first.info() {
        Ok(Ok(_)) => {}
        Ok(Err(r)) => return Err(format!("INFO refused: {r:?}")),
        Err(e) => return Err(format!("INFO: {e}")),
    }
    let setup_s = t0.elapsed().as_secs_f64();
    let mut clients = vec![Some(first)];
    for _ in 1..CONNS {
        clients.push(Some(connect(handle.addr)?));
    }
    Ok((
        Server {
            handle,
            backend,
            corpus,
            dirs,
            clients,
        },
        setup_s,
    ))
}

/// Shuts the server down and waits until the benchmark holds the only
/// reference to the index, so a durable index's directory locks are
/// released when the returned backend is dropped.
pub fn stop(server: Server) -> Result<(Backend, Corpus, Option<Dirs>), String> {
    for c in server.clients.into_iter().flatten() {
        let _ = c.quit();
    }
    server.handle.shutdown();
    // Connection threads drop their backend clones as they exit; the
    // sharded backend owns directory locks, so wait for them.
    if let Backend::Sharded(s) = &server.backend {
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(s) > 1 {
            if Instant::now() > deadline {
                return Err("server threads still hold the index after shutdown".into());
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    Ok((server.backend, server.corpus, server.dirs))
}

/// Starts `repeats` times from scratch, keeping the last server; returns
/// it with every set-up time.
pub fn start_repeated(
    w: Workload,
    seed: u64,
    work: &Path,
    repeats: usize,
) -> Result<(Server, Vec<f64>), String> {
    let mut times = Vec::with_capacity(repeats);
    let mut last: Option<(Server, PathBuf)> = None;
    for r in 0..repeats.max(1) {
        if let Some((s, dir)) = last.take() {
            drop(stop(s)?);
            let _ = std::fs::remove_dir_all(&dir);
        }
        let dir = work.join(format!("setup-{r}"));
        let (s, t) = start(w, seed, &dir)?;
        times.push(t);
        last = Some((s, dir));
    }
    let (server, _) = last.expect("at least one set-up");
    Ok((server, times))
}

/// Operation kinds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// `QUERY`.
    Query,
    /// `KNN`.
    Knn,
    /// `INSERT`.
    Insert,
    /// `CHECKPOINT`.
    Checkpoint,
}

impl OpKind {
    fn of(r: &Request) -> Self {
        match r {
            Request::Knn { .. } => Self::Knn,
            Request::Insert { .. } => Self::Insert,
            Request::Checkpoint => Self::Checkpoint,
            _ => Self::Query,
        }
    }
}

/// A successful answer.
#[derive(Clone, Debug, PartialEq)]
pub enum Answer {
    /// Sorted `(seq, transform)` pairs of a QUERY or KNN.
    Pairs(Vec<(usize, usize)>),
    /// Ordinal of an acknowledged INSERT.
    Inserted(usize),
    /// A completed CHECKPOINT.
    Checkpointed,
}

/// One attempted operation.
#[derive(Clone, Debug)]
pub struct Op {
    /// Kind.
    pub kind: OpKind,
    /// Connection.
    pub conn: usize,
    /// Position in its connection's request stream.
    pub n: usize,
    /// The request.
    pub request: Request,
    /// Whether it was sent inside the measured window.
    pub measured: bool,
    /// When it was due, s since the window opened (closed loop: = send).
    pub due: f64,
    /// When it was sent, s since the window opened.
    pub send: f64,
    /// When its answer arrived, s since the window opened.
    pub done: f64,
    /// Answer, or why the op failed.
    pub result: Result<Answer, String>,
}

impl Op {
    /// Latency from due time to answer, ms.
    pub fn latency_ms(&self) -> f64 {
        (self.done - self.due) * 1e3
    }
}

fn call(client: &mut Option<Client>, addr: SocketAddr, req: &Request) -> Result<Answer, String> {
    if client.is_none() {
        *client = Some(connect(addr)?);
    }
    let c = client.as_mut().expect("connected above");
    match c.call(req) {
        Ok(Response::Matches { n, matches, .. }) => {
            if n != matches.len() {
                return Err(format!(
                    "truncated answer: {} of {n} matches",
                    matches.len()
                ));
            }
            let mut p: Vec<(usize, usize)> = matches.iter().map(|m| (m.seq, m.transform)).collect();
            p.sort_unstable();
            Ok(Answer::Pairs(p))
        }
        Ok(Response::Inserted { ord }) => Ok(Answer::Inserted(ord)),
        Ok(Response::Checkpointed { .. }) => Ok(Answer::Checkpointed),
        Ok(Response::Err { code, msg }) => Err(format!("ERR {code:?}: {msg}")),
        Ok(other) => Err(format!("unexpected response {other:?}")),
        Err(e) => {
            *client = None;
            Err(format!("transport: {e}"))
        }
    }
}

/// The `n`-th request of one connection's stream.
pub type Stream = Box<dyn FnMut(usize) -> Request + Send>;

/// What one load phase hands back per connection.
pub struct PhaseOut {
    /// The connection, for the next phase.
    pub client: Option<Client>,
    /// Position reached in the stream.
    pub next_n: usize,
    /// Ops attempted.
    pub ops: Vec<Op>,
    /// CPU seconds the connection's thread used.
    pub cpu_s: f64,
}

/// How a closed-loop phase ends.
#[derive(Clone, Copy)]
pub enum Until {
    /// Stop sending at this instant.
    Deadline(Instant),
    /// Stop after this many requests per connection.
    Count(usize),
}

/// Closed loop: each connection sends its next request as soon as the
/// previous answer arrived.
pub fn closed_phase(
    addr: SocketAddr,
    clients: Vec<Option<Client>>,
    streams: &mut [Stream],
    start_n: &[usize],
    origin: Instant,
    until: Until,
    measured: bool,
) -> Vec<PhaseOut> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .into_iter()
            .zip(streams.iter_mut())
            .zip(start_n)
            .enumerate()
            .map(|(conn, ((mut client, stream), &n0))| {
                s.spawn(move || {
                    let cpu0 = crate::sys::thread_cpu_s();
                    let mut ops = Vec::new();
                    let mut n = n0;
                    loop {
                        match until {
                            Until::Deadline(d) if Instant::now() >= d => break,
                            Until::Count(c) if n - n0 >= c => break,
                            _ => {}
                        }
                        let request = stream(n);
                        let send = since(origin);
                        let result = call(&mut client, addr, &request);
                        let done = since(origin);
                        ops.push(Op {
                            kind: OpKind::of(&request),
                            conn,
                            n,
                            request,
                            measured,
                            due: send,
                            send,
                            done,
                            result,
                        });
                        n += 1;
                    }
                    PhaseOut {
                        client,
                        next_n: n,
                        ops,
                        cpu_s: crate::sys::thread_cpu_s() - cpu0,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load thread panicked"))
            .collect()
    })
}

/// Signed seconds from `origin` to now.
fn since(origin: Instant) -> f64 {
    let now = Instant::now();
    if now >= origin {
        (now - origin).as_secs_f64()
    } else {
        -(origin - now).as_secs_f64()
    }
}

/// Open loop on one connection: request `n` is due at `n / rate` s after
/// `origin` and is sent then, or as soon as the previous answer arrived.
pub fn open_phase(
    addr: SocketAddr,
    mut client: Option<Client>,
    conn: usize,
    stream: &mut Stream,
    rate: f64,
    origin: Instant,
    seconds: f64,
) -> PhaseOut {
    let cpu0 = crate::sys::thread_cpu_s();
    let mut ops = Vec::new();
    let mut n = 0usize;
    loop {
        let due = n as f64 / rate;
        if due >= seconds {
            break;
        }
        let wait = due - since(origin);
        if wait > 0.0 {
            std::thread::sleep(Duration::from_secs_f64(wait));
        }
        let request = stream(n);
        let send = since(origin);
        let result = call(&mut client, addr, &request);
        let done = since(origin);
        ops.push(Op {
            kind: OpKind::of(&request),
            conn,
            n,
            request,
            measured: true,
            due,
            send,
            done,
            result,
        });
        n += 1;
    }
    PhaseOut {
        client,
        next_n: n,
        ops,
        cpu_s: crate::sys::thread_cpu_s() - cpu0,
    }
}

/// `range_fit` stream of one connection: 90% QUERY / 10% KNN over uniform
/// ordinals.
pub fn range_fit_stream(seed: u64, conn: usize) -> Stream {
    let mut rng = SeededRng::seed_from_u64(stream_seed(seed, 100 + conn as u64));
    Box::new(move |_| {
        let knn = rng.random_bool(KNN_SHARE);
        let ord = rng.random_range(0..SMALL_CORPUS);
        if knn {
            Request::Knn {
                ord,
                k: KNN_K,
                ma: WIDE,
            }
        } else {
            query_request(ord, WIDE)
        }
    })
}

/// The 200 hot ordinals of `hot_cached`, hottest first.
pub fn hot_ordinals(seed: u64) -> Vec<usize> {
    let mut all: Vec<usize> = (0..SMALL_CORPUS).collect();
    SeededRng::seed_from_u64(stream_seed(seed, 300)).shuffle(&mut all);
    all.truncate(HOT_ORDINALS);
    all
}

/// Every distinct `hot_cached` request key, split round-robin over the
/// connections — the warm-up that fills the result cache.
pub fn hot_warm_streams(seed: u64) -> Vec<Stream> {
    let keys: Vec<(usize, (usize, usize))> = hot_ordinals(seed)
        .into_iter()
        .flat_map(|o| [(o, WIDE), (o, NARROW)])
        .collect();
    (0..CONNS)
        .map(|c| {
            let mine: Vec<_> = keys.iter().copied().skip(c).step_by(CONNS).collect();
            Box::new(move |n: usize| {
                let (o, ma) = mine[n % mine.len()];
                query_request(o, ma)
            }) as Stream
        })
        .collect()
}

/// Requests per connection of the `hot_cached` warm-up.
pub fn hot_warm_len() -> usize {
    (2 * HOT_ORDINALS).div_ceil(CONNS)
}

/// `hot_cached` stream of one connection: Zipf(1.0) over the hot
/// ordinals, windows alternating wide/narrow. Every
/// [`HOT_RESHUFFLE`] requests the ranks are reassigned to the hot
/// ordinals, so a run averages over many popularity orders instead of
/// hinging on which ordinal one seed made hottest.
pub fn hot_stream(seed: u64, conn: usize) -> Stream {
    let mut hot = hot_ordinals(seed);
    let mut cdf = Vec::with_capacity(hot.len());
    let mut acc = 0.0;
    for r in 1..=hot.len() {
        acc += 1.0 / r as f64;
        cdf.push(acc);
    }
    let mut rng = SeededRng::seed_from_u64(stream_seed(seed, 400 + conn as u64));
    Box::new(move |n| {
        if n % HOT_RESHUFFLE == 0 {
            rng.shuffle(&mut hot);
        }
        let u = rng.random_unit() * acc;
        let rank = cdf.partition_point(|&c| c < u).min(hot.len() - 1);
        let ma = if n % 2 == 0 { WIDE } else { NARROW };
        query_request(hot[rank], ma)
    })
}

/// `ingest_sharded` write stream, in cycles of [`CHECKPOINT_EVERY`]
/// INSERTs of fresh seeded walks with a QUERY over the base ordinals after
/// every [`INSERTS_PER_QUERY`] of them, closed by a CHECKPOINT. The mix is
/// fixed by position, so the stream's throughput weighs the write, read
/// and checkpoint paths the same way on every run.
pub fn write_stream(seed: u64) -> Stream {
    let cycle = CHECKPOINT_EVERY + CHECKPOINT_EVERY / INSERTS_PER_QUERY + 1;
    let mut walks = SeededRng::seed_from_u64(stream_seed(seed, 200));
    let mut queries = ingest_query_stream(stream_seed(seed, 202));
    Box::new(move |n| {
        let i = n % cycle;
        if i + 1 == cycle {
            Request::Checkpoint
        } else if (i + 1).is_multiple_of(INSERTS_PER_QUERY + 1) {
            queries(n)
        } else {
            Request::Insert {
                values: random_walk(&mut walks, SEQ_LEN, 500.0).into_values(),
            }
        }
    })
}

/// `ingest_sharded` query stream: uniform base ordinals.
pub fn ingest_query_stream(seed: u64) -> Stream {
    let mut rng = SeededRng::seed_from_u64(stream_seed(seed, 201));
    Box::new(move |_| query_request(rng.random_range(0..LARGE_CORPUS), WIDE))
}

fn fail(op: &mut Op, why: String) {
    if op.result.is_ok() {
        op.result = Err(why);
    }
}

/// Correctness gate of the single-backend workloads: every QUERY/KNN
/// answer must equal the oracle's sorted `(seq, transform)` pairs.
/// Wrong answers are turned into failures in `ops`.
pub fn check_single(ops: &mut [Op], corpus: &Corpus) {
    // (ordinal, window, is KNN) of every answered QUERY/KNN.
    let key = |r: &Request| match r {
        Request::Query(p) => Some((p.ord, p.ma, false)),
        Request::Knn { ord, ma, .. } => Some((*ord, *ma, true)),
        _ => None,
    };
    let keys: BTreeSet<(usize, (usize, usize), bool)> = ops
        .iter()
        .filter(|o| o.result.is_ok())
        .filter_map(|o| key(&o.request))
        .collect();
    let oracle = Oracle::new(corpus.series(), WIDE.1.max(NARROW.1));
    let eps = WireThreshold::Rho(RHO).to_spec().epsilon(SEQ_LEN);
    // One distance sweep per ordinal covers every window asked of it.
    let mut by_ord: BTreeMap<usize, Vec<(usize, usize, bool)>> = BTreeMap::new();
    for (ord, ma, is_knn) in keys {
        by_ord.entry(ord).or_default().push((ma.0, ma.1, is_knn));
    }
    let by_ord: Vec<_> = by_ord.into_iter().collect();
    type Key = (usize, (usize, usize), bool);
    let expected: BTreeMap<Key, Vec<(usize, usize)>> = std::thread::scope(|s| {
        let chunk = by_ord.len().div_ceil(CONNS).max(1);
        let handles: Vec<_> = by_ord
            .chunks(chunk)
            .map(|part| {
                let oracle = &oracle;
                s.spawn(move || {
                    let mut out = Vec::new();
                    for (ord, windows) in part {
                        let lo = windows.iter().map(|w| w.0).min().expect("non-empty");
                        let hi = windows.iter().map(|w| w.1).max().expect("non-empty");
                        let rows = oracle
                            .rows(*ord, lo, hi)
                            .expect("queried ordinals are indexed");
                        for &(a, b, is_knn) in windows {
                            let want = if is_knn {
                                oracle.knn(&rows, *ord, a, b, KNN_K)
                            } else {
                                oracle.range(&rows, *ord, a, b, eps)
                            };
                            out.push(((*ord, (a, b), is_knn), want));
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("oracle thread panicked"))
            .collect()
    });
    for op in ops.iter_mut() {
        let Some(k) = key(&op.request) else { continue };
        let Ok(Answer::Pairs(got)) = &op.result else {
            continue;
        };
        let want = &expected[&k];
        if got != want {
            let why = format!(
                "wrong answer for {}: {} pairs, oracle {}",
                op.request.to_line(),
                got.len(),
                want.len()
            );
            fail(op, why);
        }
    }
}

/// What the `ingest_sharded` gate found.
pub struct IngestCheck {
    /// Acknowledged inserts read back bit-identical after reopen.
    pub inserts_verified: usize,
    /// Final-state queries compared with the oracle.
    pub oracle_queries: usize,
    /// Failures outside any single op (reopen, read-back, oracle).
    pub errors: Vec<String>,
}

/// Correctness gate of `ingest_sharded`, on the stopped server's
/// directories: reopen with `open_durable`, read back every base sequence
/// and every acknowledged insert bit-identically, check every in-window
/// QUERY answer against the final state (same matches among base
/// sequences; inserted matches a subset of the final ones), and check a
/// seeded sample of final-state queries against the oracle.
pub fn check_ingest(
    ops: &mut [Op],
    corpus: &Corpus,
    dirs: &Dirs,
    seed: u64,
) -> Result<IngestCheck, String> {
    let (index, _) = ShardedIndex::open_durable(&dirs.index, &dirs.wal, LARGE_POOL_PAGES, FSYNC)
        .map_err(|e| format!("reopen after shutdown: {e}"))?;
    let mut errors = Vec::new();
    let base = corpus.len();

    // Every acknowledged insert, by ordinal.
    let mut acked: BTreeMap<usize, Vec<f64>> = BTreeMap::new();
    for op in ops.iter() {
        if let (Request::Insert { values }, Ok(Answer::Inserted(ord))) = (&op.request, &op.result) {
            acked.insert(*ord, values.clone());
        }
    }
    let same_bits = |a: &[f64], b: &[f64]| {
        a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
    };
    for (ord, ts) in corpus.series().iter().enumerate() {
        match index.fetch_series(ord) {
            Ok(got) if same_bits(got.values(), ts.values()) => {}
            Ok(_) => errors.push(format!("base sequence {ord} changed after reopen")),
            Err(e) => errors.push(format!("base sequence {ord} unreadable: {e}")),
        }
    }
    let mut inserts_verified = 0;
    for op in ops.iter_mut() {
        let (Request::Insert { values }, Ok(Answer::Inserted(ord))) = (&op.request, &op.result)
        else {
            continue;
        };
        match index.fetch_series(*ord) {
            Ok(got) if same_bits(got.values(), values) => inserts_verified += 1,
            Ok(_) => {
                let why = format!("acked insert {ord} reads back different bits");
                fail(op, why);
            }
            Err(e) => {
                let why = format!("acked insert {ord} lost after reopen: {e}");
                fail(op, why);
            }
        }
    }
    if index.len() != base + acked.len() {
        errors.push(format!(
            "reopened index holds {} sequences, expected {} base + {} acked",
            index.len(),
            base,
            acked.len()
        ));
    }

    // Final-state answers of every queried ordinal, through the engine.
    let lq = range_query(WIDE);
    let mut final_answers: BTreeMap<usize, Vec<(usize, usize)>> = BTreeMap::new();
    let answer = |cache: &mut BTreeMap<usize, Vec<(usize, usize)>>,
                  ord: usize|
     -> Result<Vec<(usize, usize)>, String> {
        if let Some(a) = cache.get(&ord) {
            return Ok(a.clone());
        }
        let q = index.fetch_series(ord).map_err(|e| e.to_string())?;
        let (_, r, _) = gather::execute_range(&index, &lq, &q).map_err(|e| e.to_string())?;
        let p = pairs(&r.matches);
        cache.insert(ord, p.clone());
        Ok(p)
    };
    for op in ops.iter_mut() {
        let Request::Query(p) = &op.request else {
            continue;
        };
        let Ok(Answer::Pairs(got)) = &op.result else {
            continue;
        };
        let want = match answer(&mut final_answers, p.ord) {
            Ok(w) => w,
            Err(e) => {
                errors.push(format!("final-state query {}: {e}", p.ord));
                continue;
            }
        };
        // Matches among base sequences must be identical; matches among
        // inserted ones may only be missing (inserted after the query).
        let base_part = |v: &[(usize, usize)]| -> Vec<(usize, usize)> {
            v.iter().copied().filter(|m| m.0 < base).collect()
        };
        let new_part = |v: &[(usize, usize)]| -> BTreeSet<(usize, usize)> {
            v.iter().copied().filter(|m| m.0 >= base).collect()
        };
        let (got_base, got_new) = (base_part(got), new_part(got));
        let (want_base, want_new) = (base_part(&want), new_part(&want));
        if got_base != want_base || !got_new.is_subset(&want_new) {
            let why = format!(
                "answer to {} disagrees with the final state",
                op.request.to_line()
            );
            fail(op, why);
        }
    }

    // A seeded sample of final-state queries against the oracle: half
    // from the queried ordinals, half from the acknowledged inserts.
    let queried: Vec<usize> = final_answers.keys().copied().collect();
    let inserted: Vec<usize> = acked.keys().copied().collect();
    let mut rng = SeededRng::seed_from_u64(stream_seed(seed, 500));
    let mut sample = Vec::new();
    for i in 0..FINAL_SAMPLE {
        let pool = if i % 2 == 0 && !queried.is_empty() {
            &queried
        } else if !inserted.is_empty() {
            &inserted
        } else {
            &queried
        };
        if !pool.is_empty() {
            sample.push(pool[rng.random_range(0..pool.len())]);
        }
    }
    let mut series: Vec<TimeSeries> = corpus.series().to_vec();
    for (ord, values) in &acked {
        if *ord != series.len() {
            errors.push(format!("acked ordinals are not contiguous at {ord}"));
            break;
        }
        series.push(TimeSeries::new(values.clone()));
    }
    let oracle = Oracle::new(&series, WIDE.1);
    let eps = WireThreshold::Rho(RHO).to_spec().epsilon(SEQ_LEN);
    for &ord in &sample {
        let Some(rows) = (ord < oracle.len())
            .then(|| oracle.rows(ord, WIDE.0, WIDE.1))
            .flatten()
        else {
            continue;
        };
        let want = oracle.range(&rows, ord, WIDE.0, WIDE.1, eps);
        match answer(&mut final_answers, ord) {
            Ok(got) if got == want => {}
            Ok(got) => errors.push(format!(
                "final-state query {ord}: {} pairs, oracle {}",
                got.len(),
                want.len()
            )),
            Err(e) => errors.push(format!("final-state query {ord}: {e}")),
        }
    }
    Ok(IngestCheck {
        inserts_verified,
        oracle_queries: sample.len(),
        errors,
    })
}
