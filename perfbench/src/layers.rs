//! The traced run: replays a run's requests in-process through
//! [`crate::replay`], records a span at every layer boundary, checks the
//! replay against the engines, and reduces the spans to per-layer metrics.

use crate::replay::{self, check_same, Counts};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workload::{family, Dirs, LARGE_POOL_PAGES};
use simquery::engine::{knn, mtindex};
use simquery::plan::{EngineChoice, EnginePref, LogicalQuery, PlanCache, PlanOutput, Planner};
use simquery::report::{EngineMetrics, Match, QueryResult};
use simquery::shared::SharedIndex;
use simquery::stats::StatsRegistry;
use simquery::tmbr::TransformMbr;
use simserve::protocol::{EngineKind, Request, Response, WireMatch, WireMetrics};
use simshard::{gather, ShardedIndex};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};
use tseries::TimeSeries;

/// One request of the run, to be replayed.
#[derive(Clone, Debug)]
pub struct ReplayReq {
    /// Request id (spans carry it).
    pub id: u64,
    /// The request line as sent.
    pub line: String,
    /// Latency the client saw for it in the loopback run, ms.
    pub client_ms: f64,
}

/// What the replay executes against.
pub enum Target<'a> {
    /// The single backend's index, planned against a registry of the
    /// replay's own, so the partitioning the planner memoises comes from
    /// the first replayed request rather than from whichever request won
    /// the race to the server first.
    Single(&'a SharedIndex, &'a StatsRegistry),
    /// The sharded backend.
    Sharded(&'a ShardedIndex),
}

/// Engine pipelines the replay composes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Engine {
    /// MT-index range query on one index.
    Mt,
    /// Best-first kNN on one index.
    Knn,
    /// Scatter-gather MT range query over shards.
    Scatter,
}

impl Engine {
    /// All engines, in report order.
    pub const ALL: [Engine; 3] = [Engine::Mt, Engine::Knn, Engine::Scatter];

    fn span(self) -> &'static str {
        match self {
            Self::Mt => "engine.mt",
            Self::Knn => "engine.knn",
            Self::Scatter => "engine.scatter",
        }
    }
}

/// The replay of one request.
#[derive(Clone, Debug)]
pub struct ReqOut {
    /// Request id.
    pub id: u64,
    /// Engine run, `None` when the result cache answered.
    pub engine: Option<Engine>,
    /// Paper counters of the replayed engine run.
    pub counts: Counts,
    /// Encoded response size, bytes.
    pub resp_bytes: usize,
    /// Wall time of the real engine call (checked pass only), ns.
    pub engine_wall_ns: u64,
    /// Engine work the replay's stages should add up to (checked pass
    /// only): the engine wall, or for scatter the sum of shard walls, ns.
    pub engine_work_ns: u64,
    /// Slowest / mean shard time of the real scatter (checked pass only).
    pub straggler: Option<f64>,
}

fn wire(matches: &[Match], m: &EngineMetrics) -> Response {
    Response::Matches {
        n: matches.len(),
        matches: matches
            .iter()
            .map(|m| WireMatch {
                seq: m.seq,
                transform: m.transform,
                dist: m.dist,
            })
            .collect(),
        metrics: WireMetrics::from(m),
    }
}

fn metrics_of(c: &Counts, wall: Duration) -> EngineMetrics {
    EngineMetrics {
        node_accesses: c.node_accesses,
        leaf_accesses: c.leaf_accesses,
        record_page_accesses: c.page_misses,
        record_fetches: c.record_fetches,
        comparisons: c.comparisons,
        candidates: c.candidates,
        wall,
    }
}

fn max_over_mean(walls: &[Duration]) -> f64 {
    let mean = walls.iter().map(Duration::as_secs_f64).sum::<f64>() / walls.len().max(1) as f64;
    let max = walls.iter().map(Duration::as_secs_f64).fold(0.0, f64::max);
    if mean > 0.0 {
        max / mean
    } else {
        0.0
    }
}

/// Replays one request the way the server executes it: parse, validate
/// and fetch the query sequence, result-cache lookup, planning, the
/// engine pipeline, encoding, and the client's decoding. With `check`,
/// the real engine runs on the same input afterwards and the replay must
/// reproduce its pairs and paper counters exactly.
pub fn serve_one(
    t: &mut Tracer,
    target: &Target,
    cache: &PlanCache,
    req: &ReplayReq,
    check: bool,
) -> Result<ReqOut, String> {
    t.set_request(req.id);
    let root = t.begin("serve.request");
    let s = t.begin("serve.parse");
    let parsed = Request::parse(&req.line);
    t.end(s);
    let parsed = parsed.map_err(|e| format!("replay parse: {e}"))?;
    let (ord, lq, engine, k) = match (parsed, target) {
        (Request::Query(p), _) if p.engine == EngineKind::Mt => {
            let lq = LogicalQuery::range(family(p.ma), p.threshold.to_spec())
                .with_engine(EnginePref::Force(EngineChoice::Mt));
            let engine = match target {
                Target::Single(..) => Engine::Mt,
                Target::Sharded(_) => Engine::Scatter,
            };
            (p.ord, lq, engine, 0)
        }
        (Request::Knn { ord, k, ma }, Target::Single(..)) => {
            (ord, LogicalQuery::knn(family(ma), k), Engine::Knn, k)
        }
        (other, _) => return Err(format!("replay does not cover `{}`", other.to_line())),
    };

    let s = t.begin("serve.prepare");
    let q = match target {
        Target::Single(shared, _) => shared.read().fetch_series(ord).map_err(|e| e.to_string()),
        Target::Sharded(sh) => sh.fetch_series(ord).map_err(|e| e.to_string()),
    };
    t.end(s);
    let q = q?;

    let s = t.begin("plan.lookup");
    let epoch = match target {
        Target::Single(shared, _) => shared.query_epoch(),
        Target::Sharded(sh) => sh.query_epoch(),
    };
    let fp = lq.fingerprint(Some(&q));
    let hit = cache.get(fp, epoch);
    t.end(s);

    let mut out = ReqOut {
        id: req.id,
        engine: None,
        counts: Counts::default(),
        resp_bytes: 0,
        engine_wall_ns: 0,
        engine_work_ns: 0,
        straggler: None,
    };
    let response = match hit {
        Some((_, PlanOutput::Range(r))) => wire(&r.matches, &r.metrics),
        Some((_, PlanOutput::Knn(m, metrics))) => wire(&m, &metrics),
        Some(_) => return Err("result cache returned a join".into()),
        None => {
            let s = t.begin("plan.plan");
            let plan = match target {
                Target::Single(shared, stats) => {
                    Planner::new().plan(&shared.read(), stats, &lq, Some(&q))
                }
                Target::Sharded(sh) => {
                    Planner::new().plan(&sh.shards()[0].read(), sh.stats(), &lq, Some(&q))
                }
            };
            t.end(s);
            let plan = plan.map_err(|e| format!("plan: {e}"))?;
            let mbrs = if plan.mbrs.is_empty() {
                vec![TransformMbr::of_family(&lq.family)]
            } else {
                plan.mbrs.clone()
            };

            let started = Instant::now();
            let e = t.begin(engine.span());
            let result = match (target, engine) {
                (Target::Single(shared, _), Engine::Mt) => {
                    replay::mt_range(t, &shared.read(), &q, &lq.family, &lq.spec, &mbrs)
                }
                (Target::Single(shared, _), Engine::Knn) => {
                    replay::knn(t, &shared.read(), &q, &lq.family, k)
                }
                (Target::Sharded(sh), _) => {
                    replay::sharded_range(t, sh, &q, &lq.family, &lq.spec, &mbrs)
                }
                (Target::Single(..), Engine::Scatter) => unreachable!("scatter needs shards"),
            };
            t.end(e);
            let wall = started.elapsed();
            let (matches, counts) = result.map_err(|e| format!("replay: {e}"))?;
            if check {
                check_engine(
                    &mut out,
                    target,
                    &lq,
                    &q,
                    &mbrs,
                    engine,
                    k,
                    (&matches, &counts),
                )?;
            }
            let metrics = metrics_of(&counts, wall);
            let output = match engine {
                Engine::Knn => PlanOutput::Knn(matches.clone(), metrics),
                _ => PlanOutput::Range(QueryResult {
                    matches: matches.clone(),
                    metrics,
                }),
            };
            cache.offer(fp, epoch, plan, output);
            out.engine = Some(engine);
            out.counts = counts;
            wire(&matches, &metrics)
        }
    };

    let s = t.begin("serve.encode");
    let mut buf = Vec::with_capacity(4096);
    let encoded = response.write_to(&mut buf);
    t.end(s);
    encoded.map_err(|e| format!("encode: {e}"))?;
    let s = t.begin("serve.decode");
    let decoded = Response::read_from(&mut &buf[..]);
    t.end(s);
    t.end(root);
    if decoded.map_err(|e| format!("decode: {e}"))? != response {
        return Err(format!(
            "request {}: response does not survive encode/decode",
            req.id
        ));
    }
    out.resp_bytes = buf.len();
    Ok(out)
}

/// Runs the real engine on the replayed input and requires the replay's
/// pairs and paper counters to equal it.
#[allow(clippy::too_many_arguments)]
fn check_engine(
    out: &mut ReqOut,
    target: &Target,
    lq: &LogicalQuery,
    q: &TimeSeries,
    mbrs: &[TransformMbr],
    engine: Engine,
    k: usize,
    replayed: (&[Match], &Counts),
) -> Result<(), String> {
    let what = format!("request {} ({engine:?})", out.id);
    let started = Instant::now();
    let (matches, counts, work) = match (target, engine) {
        (Target::Single(shared, _), Engine::Mt) => {
            let index = shared.read();
            let (r, _) =
                mtindex::range_query_with_mbrs(&index, q, &lq.family, &lq.spec, mbrs, None)
                    .map_err(|e| format!("{what}: engine: {e}"))?;
            let c = Counts::of_engine(&r.metrics, r.matches.len());
            (r.matches, c, None)
        }
        (Target::Single(shared, _), Engine::Knn) => {
            let index = shared.read();
            let (m, metrics) =
                knn::knn(&index, q, &lq.family, k).map_err(|e| format!("{what}: engine: {e}"))?;
            let c = Counts::of_engine(&metrics, m.len());
            (m, c, None)
        }
        (Target::Sharded(sh), _) => {
            let (_, r, per_shard) =
                gather::execute_range(sh, lq, q).map_err(|e| format!("{what}: engine: {e}"))?;
            let walls: Vec<Duration> = per_shard.iter().map(|m| m.wall).collect();
            out.straggler = Some(max_over_mean(&walls));
            let mut c = Counts::default();
            for m in &per_shard {
                c.add(&Counts::of_engine(m, 0));
            }
            c.matches = r.matches.len() as u64;
            (r.matches, c, Some(walls.iter().sum::<Duration>()))
        }
        (Target::Single(..), Engine::Scatter) => unreachable!("scatter needs shards"),
    };
    let wall = started.elapsed();
    out.engine_wall_ns = wall.as_nanos() as u64;
    out.engine_work_ns = work.unwrap_or(wall).as_nanos() as u64;
    check_same(&what, (&matches, &counts), replayed)
}

/// One pass over the replay set.
pub struct Pass {
    /// Per-request outcomes.
    pub outs: Vec<ReqOut>,
    /// Wall time of the whole pass.
    pub wall: Duration,
}

/// Replays every request once.
pub fn pass(
    t: &mut Tracer,
    target: &Target,
    cache: &PlanCache,
    reqs: &[ReplayReq],
    check: bool,
) -> Result<Pass, String> {
    let started = Instant::now();
    let outs = reqs
        .iter()
        .map(|r| serve_one(t, target, cache, r, check))
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Pass {
        outs,
        wall: started.elapsed(),
    })
}

/// The write path of the traced run, measured on the reopened durable
/// index: durable inserts, one checkpoint, and the same inserts on a
/// non-durable copy of the last checkpoint.
pub struct Writes {
    /// WAL fsyncs per insert.
    pub fsyncs_per_insert: f64,
    /// WAL bytes per insert.
    pub bytes_per_insert: f64,
}

/// Replays `inserts` through `ShardedIndex::insert_series` (`wal.insert`
/// spans), then a checkpoint (`wal.checkpoint`), then the same inserts
/// into a non-durable copy (`index.insert`).
pub fn replay_writes(
    t: &mut Tracer,
    durable: &ShardedIndex,
    dirs: &Dirs,
    inserts: &[Vec<f64>],
    first_id: u64,
) -> Result<Writes, String> {
    let n = inserts.len().max(1) as f64;
    let before = durable.wal_stats().ok_or("reopened index is not durable")?;
    let bytes0 = crate::sys::dir_bytes(&dirs.wal);
    for (i, v) in inserts.iter().enumerate() {
        let ts = TimeSeries::new(v.clone());
        t.set_request(first_id + i as u64);
        let s = t.begin("wal.insert");
        let r = durable.insert_series(&ts);
        t.end(s);
        r.map_err(|e| format!("durable insert: {e}"))?;
    }
    let after = durable.wal_stats().ok_or("reopened index is not durable")?;
    let bytes1 = crate::sys::dir_bytes(&dirs.wal);
    t.set_request(first_id + inserts.len() as u64);
    let s = t.begin("wal.checkpoint");
    let r = durable.checkpoint();
    t.end(s);
    r.map_err(|e| format!("checkpoint: {e}"))?;

    let copy = ShardedIndex::open_read_only(&dirs.index, LARGE_POOL_PAGES)
        .map_err(|e| format!("open copy: {e}"))?;
    for (i, v) in inserts.iter().enumerate() {
        let ts = TimeSeries::new(v.clone());
        t.set_request(first_id + i as u64);
        let s = t.begin("index.insert");
        let r = copy.insert_series(&ts);
        t.end(s);
        r.map_err(|e| format!("insert without WAL: {e}"))?;
    }
    Ok(Writes {
        fsyncs_per_insert: (after.fsyncs - before.fsyncs) as f64 / n,
        bytes_per_insert: bytes1.saturating_sub(bytes0) as f64 / n,
    })
}

/// Median over requests of a per-request value, 0 when there is none.
fn med(values: impl IntoIterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.into_iter().collect();
    median(&v).unwrap_or(0.0)
}

/// Per-request sum of several span names' self time, µs.
fn self_us(t: &Tracer, names: &[&str]) -> BTreeMap<u64, f64> {
    let mut out: BTreeMap<u64, f64> = BTreeMap::new();
    for name in names {
        for (req, ns) in t.self_ns_by_request(name) {
            *out.entry(req).or_insert(0.0) += ns as f64 / 1e3;
        }
    }
    out
}

/// Inputs of the per-layer reduction besides the traced pass.
pub struct LayerInputs<'a> {
    /// The replayed requests.
    pub reqs: &'a [ReplayReq],
    /// The checked (untraced) pass.
    pub checked: &'a Pass,
    /// The traced pass.
    pub traced: &'a Pass,
    /// The untraced timing pass.
    pub plain: &'a Pass,
    /// Sequences in the corpus the kNN requests ran over.
    pub corpus_len: usize,
    /// The write replay, when the workload writes.
    pub writes: Option<&'a Writes>,
}

/// Reduces the traced replay to per-layer metrics `(name, value)`; every
/// name of [`crate::PER_LAYER`] that comes from the replay is present, 0
/// when the workload does not exercise the layer.
pub fn reduce(t: &Tracer, x: &LayerInputs) -> Vec<(&'static str, f64)> {
    let client: BTreeMap<u64, f64> = x.reqs.iter().map(|r| (r.id, r.client_ms)).collect();
    let checked: BTreeMap<u64, &ReqOut> = x.checked.outs.iter().map(|o| (o.id, o)).collect();
    let roots = t.dur_ns_by_request("serve.request");
    let decode = t.dur_ns_by_request("serve.decode");
    let mut engine_dur: BTreeMap<u64, u64> = BTreeMap::new();
    for e in Engine::ALL {
        engine_dur.extend(t.dur_ns_by_request(e.span()));
    }

    // In-process execution time of a request: everything the server does
    // (all but the client's decode), with the traced engine pipeline
    // replaced by the real engine call's wall time.
    let wait_ms = x.traced.outs.iter().filter_map(|o| {
        let root = *roots.get(&o.id)? as f64;
        let mut exec = root - *decode.get(&o.id).unwrap_or(&0) as f64;
        if o.engine.is_some() {
            exec -= *engine_dur.get(&o.id).unwrap_or(&0) as f64;
            exec += checked.get(&o.id)?.engine_wall_ns as f64;
        }
        Some(client.get(&o.id)? - exec / 1e6)
    });
    let wait_ms = med(wait_ms);

    let mut range = Counts::default();
    let mut knn_counts = Counts::default();
    let mut knn_reqs = 0usize;
    let mut all = Counts::default();
    for o in &x.traced.outs {
        match o.engine {
            Some(Engine::Knn) => {
                knn_counts.add(&o.counts);
                knn_reqs += 1;
            }
            Some(_) => range.add(&o.counts),
            None => {}
        }
        all.add(&o.counts);
    }
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };

    // Replay coverage per engine: summed stage self time inside the
    // engine span / the real engine's work on the same requests.
    let own = t.self_times();
    let mut covered: BTreeMap<&str, (f64, f64)> = BTreeMap::new();
    for (s, own_ns) in t.spans().iter().zip(&own) {
        let Some(e) = Engine::ALL.iter().find(|e| e.span() == s.name) else {
            continue;
        };
        let Some(base) = checked.get(&s.req) else {
            continue;
        };
        let c = covered.entry(e.span()).or_insert((0.0, 0.0));
        c.0 += (s.dur_ns() - own_ns) as f64;
        c.1 += base.engine_work_ns as f64;
    }
    let coverage = |e: Engine| {
        covered
            .get(e.span())
            .map_or(0.0, |(s, b)| if *b > 0.0 { s / b } else { 0.0 })
    };
    let scatter: Vec<&&ReqOut> = checked
        .values()
        .filter(|o| o.engine == Some(Engine::Scatter))
        .collect();

    let per = |names: &[&str]| med(self_us(t, names).into_values());
    let wal_dur = |name: &str| {
        med(t
            .dur_ns_by_request(name)
            .into_values()
            .map(|ns| ns as f64 / 1e3))
    };
    let writes = x.writes;
    vec![
        (
            "serve.codec_us",
            per(&["serve.parse", "serve.encode", "serve.decode"]),
        ),
        (
            "serve.resp_bytes",
            med(x.traced.outs.iter().map(|o| o.resp_bytes as f64)),
        ),
        ("serve.wait_ms", wait_ms),
        ("plan.plan_us", per(&["plan.lookup", "plan.plan"])),
        ("core.prepare_us", per(&["core.prepare"])),
        ("core.derive_us", per(&["core.derive"])),
        ("core.verify_us", per(&["core.verify"])),
        ("core.comparisons", all.comparisons as f64),
        ("core.candidates", all.candidates as f64),
        ("core.match_ratio", ratio(range.matches, range.comparisons)),
        (
            "core.knn_fetch_ratio",
            ratio(
                knn_counts.distinct_fetches,
                (knn_reqs * x.corpus_len) as u64,
            ),
        ),
        ("rstartree.search_us", per(&["rstartree.search"])),
        ("rstartree.node_accesses", all.node_accesses as f64),
        ("rstartree.leaf_accesses", all.leaf_accesses as f64),
        ("pagestore.fetch_us", per(&["pagestore.fetch"])),
        ("pagestore.record_fetches", all.record_fetches as f64),
        ("pagestore.page_misses", all.page_misses as f64),
        (
            "pagestore.hit_ratio",
            if all.distinct_fetches == 0 {
                0.0
            } else {
                1.0 - ratio(all.page_misses, all.distinct_fetches)
            },
        ),
        (
            "shard.scatter_ms",
            med(scatter.iter().map(|o| o.engine_wall_ns as f64 / 1e6)),
        ),
        ("shard.gather_us", per(&["shard.gather"])),
        (
            "shard.straggler_ratio",
            med(scatter.iter().filter_map(|o| o.straggler)),
        ),
        ("wal.insert_us", wal_dur("wal.insert")),
        ("index.insert_us", wal_dur("index.insert")),
        (
            "wal.fsyncs_per_insert",
            writes.map_or(0.0, |w| w.fsyncs_per_insert),
        ),
        (
            "wal.bytes_per_insert",
            writes.map_or(0.0, |w| w.bytes_per_insert),
        ),
        ("wal.checkpoint_ms", wal_dur("wal.checkpoint") / 1e3),
        ("bench.replay_coverage.mt", coverage(Engine::Mt)),
        ("bench.replay_coverage.knn", coverage(Engine::Knn)),
        ("bench.replay_coverage.scatter", coverage(Engine::Scatter)),
        (
            "bench.trace_overhead_pct",
            100.0 * (x.traced.wall.as_secs_f64() - x.plain.wall.as_secs_f64())
                / x.plain.wall.as_secs_f64().max(1e-9),
        ),
    ]
}
