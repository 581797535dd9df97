//! Seeded loopback benchmark of the similarity server.
//!
//! One run generates seeded inputs, serves them in-process on loopback
//! (`simserve::server::serve`, two workers), drives the server over two
//! connections for a fixed window, checks every answer against an
//! independent oracle, and reports end-to-end metrics. A traced run
//! (`--trace 1`) additionally replays the run's requests in-process,
//! composing each engine from public calls with a span at every layer
//! boundary, and reports per-layer metrics. See `BENCHMARK.json` at the
//! repository root for the metric and workload list.

pub mod layers;
pub mod oracle;
pub mod replay;
pub mod stats;
pub mod sys;
pub mod trace;
pub mod workload;

use layers::{LayerInputs, ReplayReq, Target};
use simquery::plan::PlanCache;
use simserve::client::Client;
use simserve::protocol::Request;
use simserve::server::Backend;
use stats::{median, summarize};
use std::path::Path;
use std::time::{Duration, Instant};
use trace::Tracer;
use workload::*;

/// End-to-end metrics every workload reports with `--trace 0` — the ones
/// `BENCHMARK.json` bounds. Other end-to-end figures (QUERY, KNN and
/// INSERT percentiles, CPU per op, failed share, space amplification)
/// appear in the report, and unbounded in [`PER_LAYER`].
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics every workload reports with `--trace 1`; a layer
/// the workload does not exercise reports 0. The last group are
/// end-to-end figures that do not repeat closely enough across seeds on
/// every workload to be bounded, or exist on one workload only; the
/// traced run records them unbounded.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("serve.codec_us", "us"),
    ("serve.resp_bytes", "bytes"),
    ("serve.wait_ms", "ms"),
    ("serve.busy_frac", "ratio"),
    ("plan.plan_us", "us"),
    ("plan.cache_hit_ratio", "ratio"),
    ("core.prepare_us", "us"),
    ("core.derive_us", "us"),
    ("core.verify_us", "us"),
    ("core.comparisons", "count"),
    ("core.candidates", "count"),
    ("core.match_ratio", "ratio"),
    ("core.knn_fetch_ratio", "ratio"),
    ("rstartree.search_us", "us"),
    ("rstartree.node_accesses", "count"),
    ("rstartree.leaf_accesses", "count"),
    ("pagestore.fetch_us", "us"),
    ("pagestore.record_fetches", "count"),
    ("pagestore.page_misses", "count"),
    ("pagestore.hit_ratio", "ratio"),
    ("shard.scatter_ms", "ms"),
    ("shard.gather_us", "us"),
    ("shard.straggler_ratio", "ratio"),
    ("wal.insert_us", "us"),
    ("index.insert_us", "us"),
    ("wal.fsyncs_per_insert", "count"),
    ("wal.bytes_per_insert", "bytes"),
    ("wal.checkpoint_ms", "ms"),
    ("bench.replay_coverage.mt", "ratio"),
    ("bench.replay_coverage.knn", "ratio"),
    ("bench.replay_coverage.scatter", "ratio"),
    ("bench.trace_overhead_pct", "%"),
    ("bench.host_steal_pct", "%"),
    ("query_p50_ms", "ms"),
    ("query_p99_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("knn_p50_ms", "ms"),
    ("knn_p99_ms", "ms"),
    ("insert_p50_ms", "ms"),
    ("insert_p99_ms", "ms"),
    ("space_amp", "ratio"),
    ("gen_lag_p99_ms", "ms"),
];

/// Where work directories, reports, raw op timings and spans go,
/// relative to the working directory.
pub const OUT_DIR: &str = ".perfbench_out";

/// `range_fit` and `ingest_sharded` split their window over this many
/// phases, each serving a fresh seeded corpus (the first from the seed
/// itself), so one run averages over several corpora: query cost differs
/// by up to 2× between corpora of the same size.
pub const PHASES: usize = 4;
/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// QUERY requests replayed by the traced run of a single-index workload.
pub const REPLAY_QUERIES: usize = 40;
/// KNN requests replayed by the traced run of `range_fit`.
pub const REPLAY_KNN: usize = 8;
/// QUERY requests replayed by the traced run of `ingest_sharded`.
pub const REPLAY_SHARDED: usize = 16;
/// INSERTs replayed by the traced run of `ingest_sharded`.
pub const REPLAY_INSERTS: usize = 200;

/// Command-line arguments.
#[derive(Clone, Debug)]
pub struct Args {
    /// Workload.
    pub workload: Workload,
    /// Input seed.
    pub seed: u64,
    /// Measured window, s.
    pub seconds: f64,
    /// Traced run.
    pub trace: bool,
}

impl Args {
    /// Parses `--workload W --seed N --seconds S --trace 0|1`.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Self, String> {
        let mut it = args.into_iter();
        let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or(format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload =
                        Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
                }
                "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
                "--seconds" => {
                    let s: f64 = value.parse().map_err(|_| format!("bad seconds {value}"))?;
                    if !(s > 0.0 && s <= 600.0) {
                        return Err(format!("seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        _ => return Err(format!("--trace takes 0 or 1, got {value}")),
                    })
                }
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        Ok(Self {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        })
    }
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Raw samples behind the value.
    pub samples: usize,
}

/// The result of one run.
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or answered wrongly.
    pub failed: u64,
    /// Every answer checked out and nothing else went wrong.
    pub correct: bool,
    /// The metrics of the final JSON line.
    pub metrics: Vec<Metric>,
    /// Human-readable report lines (every metric, provenance, failures).
    pub report: Vec<String>,
    /// Why the run is invalid, when it is (no result is reported then).
    pub invalid: Option<String>,
}

impl Outcome {
    /// The final JSON line.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Everything the load phase produced.
struct Load {
    ops: Vec<Op>,
    window_s: f64,
    /// Server CPU in the window: process CPU minus the load threads'.
    server_cpu_s: f64,
    /// Host CPU time stolen by the hypervisor during the window, %.
    steal_pct: f64,
    cache_hit_ratio: f64,
    gen_lag_ms: Vec<f64>,
    clients: Vec<Option<Client>>,
}

fn cache_counters(c: &mut Option<Client>) -> Result<(u64, u64), String> {
    let c = c.as_mut().ok_or("control connection lost")?;
    match c.stats(false) {
        Ok(Ok(report)) => Ok(report
            .plan
            .map_or((0, 0), |p| (p.cache_hits, p.cache_misses))),
        Ok(Err(r)) => Err(format!("STATS refused: {r:?}")),
        Err(e) => Err(format!("STATS: {e}")),
    }
}

fn collect(
    outs: Vec<workload::PhaseOut>,
    ops: &mut Vec<Op>,
) -> (Vec<Option<Client>>, Vec<usize>, f64) {
    let mut clients = Vec::new();
    let mut next = Vec::new();
    let mut cpu = 0.0;
    for o in outs {
        clients.push(o.client);
        next.push(o.next_n);
        cpu += o.cpu_s;
        ops.extend(o.ops);
    }
    (clients, next, cpu)
}

fn closed_load(
    w: Workload,
    seed: u64,
    seconds: f64,
    addr: std::net::SocketAddr,
    clients: Vec<Option<Client>>,
) -> Result<Load, String> {
    let mut ops = Vec::new();
    let mut streams: Vec<Stream> = (0..CONNS)
        .map(|c| match w {
            Workload::HotCached => hot_stream(seed, c),
            _ => range_fit_stream(seed, c),
        })
        .collect();
    let warm_origin = Instant::now();
    let (mut clients, next) = if w == Workload::HotCached {
        let mut warm = hot_warm_streams(seed);
        let outs = closed_phase(
            addr,
            clients,
            &mut warm,
            &[0; CONNS],
            warm_origin,
            Until::Count(hot_warm_len()),
            false,
        );
        let (c, _, _) = collect(outs, &mut ops);
        (c, vec![0; CONNS])
    } else {
        let outs = closed_phase(
            addr,
            clients,
            &mut streams,
            &[0; CONNS],
            warm_origin,
            Until::Count(WARMUP_OPS),
            false,
        );
        let (c, next, _) = collect(outs, &mut ops);
        (c, next)
    };
    let cache0 = cache_counters(&mut clients[0])?;
    let host0 = sys::host_ticks();
    let cpu0 = sys::process_cpu_s();
    let origin = Instant::now();
    let deadline = origin + Duration::from_secs_f64(seconds);
    let outs = closed_phase(
        addr,
        clients,
        &mut streams,
        &next,
        origin,
        Until::Deadline(deadline),
        true,
    );
    let cpu1 = sys::process_cpu_s();
    let steal_pct = sys::steal_pct(host0, sys::host_ticks());
    let (mut clients, _, client_cpu) = collect(outs, &mut ops);
    let cache1 = cache_counters(&mut clients[0])?;
    let window_s = ops
        .iter()
        .filter(|o| o.measured)
        .map(|o| o.done)
        .fold(seconds, f64::max);
    let (hits, misses) = (cache1.0 - cache0.0, cache1.1 - cache0.1);
    Ok(Load {
        ops,
        window_s,
        server_cpu_s: ((cpu1 - cpu0) - client_cpu).max(0.0),
        steal_pct,
        cache_hit_ratio: if hits + misses == 0 {
            0.0
        } else {
            hits as f64 / (hits + misses) as f64
        },
        gen_lag_ms: Vec::new(),
        clients,
    })
}

fn ingest_load(
    seed: u64,
    seconds: f64,
    addr: std::net::SocketAddr,
    clients: Vec<Option<Client>>,
) -> Result<Load, String> {
    let mut ops = Vec::new();
    // Two unmeasured queries per connection let the planner memoise the
    // family's partitioning and tree shape before the window opens.
    let mut warm: Vec<Stream> = (0..CONNS)
        .map(|c| ingest_query_stream(stream_seed(seed, 600 + c as u64)))
        .collect();
    let outs = closed_phase(
        addr,
        clients,
        &mut warm,
        &[0; CONNS],
        Instant::now(),
        Until::Count(2),
        false,
    );
    let (mut clients, _, _) = collect(outs, &mut ops);
    let host0 = sys::host_ticks();
    let cpu0 = sys::process_cpu_s();
    // Connection A writes closed loop (its throughput is what the window
    // measures); connection B queries open loop, timed from due time.
    let origin = Instant::now() + Duration::from_millis(10);
    let deadline = origin + Duration::from_secs_f64(seconds);
    let mut writes = [write_stream(seed)];
    let mut queries = ingest_query_stream(seed);
    let c1 = clients.pop().expect("two connections");
    let c0 = clients.pop().expect("two connections");
    let (a, b) = std::thread::scope(|s| {
        let a = s.spawn(|| {
            std::thread::sleep(origin.saturating_duration_since(Instant::now()));
            closed_phase(
                addr,
                vec![c0],
                &mut writes,
                &[0],
                origin,
                Until::Deadline(deadline),
                true,
            )
        });
        let b = s.spawn(|| open_phase(addr, c1, 1, &mut queries, QUERY_RATE, origin, seconds));
        (
            a.join().expect("write thread panicked"),
            b.join().expect("query thread panicked"),
        )
    });
    let cpu1 = sys::process_cpu_s();
    let steal_pct = sys::steal_pct(host0, sys::host_ticks());
    let (clients, _, client_cpu) = collect(a.into_iter().chain([b]).collect(), &mut ops);
    let window_s = ops
        .iter()
        .filter(|o| o.measured)
        .map(|o| o.done)
        .fold(seconds, f64::max);
    let gen_lag_ms = ops
        .iter()
        .filter(|o| o.measured && o.kind == OpKind::Query)
        .map(|o| (o.send - o.due) * 1e3)
        .collect();
    Ok(Load {
        ops,
        window_s,
        server_cpu_s: ((cpu1 - cpu0) - client_cpu).max(0.0),
        steal_pct,
        cache_hit_ratio: 0.0,
        gen_lag_ms,
        clients,
    })
}

/// Latency samples of the measured, successful ops of one kind, ms.
fn latencies(ops: &[Op], kind: OpKind) -> Vec<f64> {
    ops.iter()
        .filter(|o| o.measured && o.kind == kind && o.result.is_ok())
        .map(Op::latency_ms)
        .collect()
}

/// The replay set: the first measured, successful requests of each
/// connection's stream, in stream order.
fn replay_set(ops: &[Op], queries: usize, knn: usize) -> Vec<ReplayReq> {
    let mut picked: Vec<&Op> = ops
        .iter()
        .filter(|o| o.measured && o.result.is_ok() && matches!(o.kind, OpKind::Query | OpKind::Knn))
        .collect();
    picked.sort_by_key(|o| (o.n, o.conn));
    let (mut nq, mut nk) = (0, 0);
    let mut out = Vec::new();
    for o in picked {
        let take = match o.kind {
            OpKind::Knn if nk < knn => {
                nk += 1;
                true
            }
            OpKind::Query if nq < queries => {
                nq += 1;
                true
            }
            _ => false,
        };
        if take {
            out.push(ReplayReq {
                id: out.len() as u64,
                line: o.request.to_line(),
                client_ms: o.latency_ms(),
            });
        }
    }
    out
}

/// Runs one workload end to end.
pub fn run(args: &Args) -> Result<Outcome, String> {
    let work = Path::new(OUT_DIR).join(format!("work-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&work);
    std::fs::create_dir_all(&work).map_err(|e| format!("create {}: {e}", work.display()))?;
    let outcome = run_in(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    outcome
}

fn run_in(args: &Args, work: &Path) -> Result<Outcome, String> {
    let w = args.workload;
    let phases = if w == Workload::HotCached { 1 } else { PHASES };
    let seconds = args.seconds / phases as f64;
    let mut setup_times = Vec::new();
    let (mut window_s, mut server_cpu_s, mut steal_pct) = (0.0, 0.0, 0.0);
    // Snapshot + WAL bytes and stored values of every durable phase.
    let (mut disk_bytes, mut stored_values) = (0u64, 0usize);
    // Ops, directories and seed of every phase but the last, checked
    // after all loads (on a regenerated corpus) so the gate's memory stays
    // out of `peak_rss_mb`.
    let mut earlier: Vec<(Vec<Op>, Option<Dirs>, u64)> = Vec::new();
    let mut last = None;
    for p in 0..phases {
        let seed = if p == 0 {
            args.seed
        } else {
            stream_seed(args.seed, 700 + p as u64)
        };
        let repeats = if args.trace || p > 0 {
            1
        } else {
            SETUP_REPEATS
        };
        let dir = work.join(format!("phase-{p}"));
        let (mut server, times) = start_repeated(w, seed, &dir, repeats)?;
        setup_times.extend(times);
        let addr = server.handle.addr;
        let clients = std::mem::take(&mut server.clients);
        let mut load = match w {
            Workload::IngestSharded => ingest_load(seed, seconds, addr, clients)?,
            _ => closed_load(w, seed, seconds, addr, clients)?,
        };
        server.clients = std::mem::take(&mut load.clients);
        window_s += load.window_s;
        server_cpu_s += load.server_cpu_s;
        steal_pct += load.steal_pct / phases as f64;
        let (backend, corpus, dirs) = stop(server)?;
        // The benchmark holds the last reference to a sharded backend:
        // dropping it closes the WALs and releases the directory locks.
        let single = match backend {
            Backend::Single(shared) => Some(shared),
            Backend::Sharded(sharded) => {
                drop(sharded);
                None
            }
        };
        if let Some(d) = &dirs {
            let acked = load
                .ops
                .iter()
                .filter(|o| matches!(o.result, Ok(Answer::Inserted(_))))
                .count();
            disk_bytes += sys::dir_bytes(&d.index) + sys::dir_bytes(&d.wal);
            stored_values += (corpus.len() + acked) * SEQ_LEN;
        }
        if p + 1 < phases {
            drop(corpus);
            earlier.push((std::mem::take(&mut load.ops), dirs, seed));
        } else {
            last = Some((load, single, corpus, dirs, seed));
        }
    }
    let peak_rss = sys::peak_rss_mb();
    let (load, single, corpus, dirs, last_seed) = last.expect("at least one phase");

    // Correctness gate, outside the timed window.
    let mut errors = Vec::new();
    let mut report = Vec::new();
    let (mut inserts_verified, mut oracle_queries) = (0, 0);
    let mut gate = |ops: &mut [Op], corpus: &tseries::Corpus, dirs: Option<&Dirs>, seed| {
        let Some(dirs) = dirs else {
            check_single(ops, corpus);
            return Ok(());
        };
        let check = check_ingest(ops, corpus, dirs, seed)?;
        inserts_verified += check.inserts_verified;
        oracle_queries += check.oracle_queries;
        errors.extend(check.errors);
        Ok::<_, String>(())
    };
    let mut checked_earlier = Vec::new();
    for (mut phase_ops, phase_dirs, phase_seed) in earlier {
        let phase_corpus = workload::corpus(w, phase_seed);
        gate(
            &mut phase_ops,
            &phase_corpus,
            phase_dirs.as_ref(),
            phase_seed,
        )?;
        checked_earlier.extend(phase_ops);
    }
    let mut ops = load.ops;
    gate(&mut ops, &corpus, dirs.as_ref(), last_seed)?;
    let space_amp = dirs
        .is_some()
        .then(|| disk_bytes as f64 / (8.0 * stored_values as f64));
    if dirs.is_some() {
        report.push(format!(
            "gate: {inserts_verified} acked inserts read back bit-identical after reopen; \
             {oracle_queries} final-state queries checked against the oracle"
        ));
    }

    // Metrics cover every phase; the traced replay uses the last one.
    let last_ops = ops;
    let ops: Vec<Op> = checked_earlier
        .into_iter()
        .chain(last_ops.iter().cloned())
        .collect();
    let attempted = ops.len() as u64;
    let failed = ops.iter().filter(|o| o.result.is_err()).count() as u64;
    for o in ops.iter().filter(|o| o.result.is_err()).take(10) {
        let line: String = o.request.to_line().chars().take(80).collect();
        let why = o.result.as_ref().err().map_or("", String::as_str);
        report.push(format!("FAILED {line}: {why}"));
    }
    for e in &errors {
        report.push(format!("FAILED {e}"));
    }

    // End-to-end metrics, with their sample counts.
    let measured = ops.iter().filter(|o| o.measured).count();
    let mut e2e: Vec<Metric> = Vec::new();
    let mut push = |name: &'static str, unit: &'static str, value: f64, samples: usize| {
        e2e.push(Metric {
            name,
            unit,
            value,
            samples,
        })
    };
    push(
        "setup_s",
        "s",
        median(&setup_times).unwrap_or(0.0),
        setup_times.len(),
    );
    push("ops_per_s", "1/s", measured as f64 / window_s, measured);
    push(
        "cpu_ms_per_op",
        "ms",
        server_cpu_s * 1e3 / measured.max(1) as f64,
        measured,
    );
    for (kind, p50, p99) in [
        (OpKind::Query, "query_p50_ms", "query_p99_ms"),
        (OpKind::Knn, "knn_p50_ms", "knn_p99_ms"),
        (OpKind::Insert, "insert_p50_ms", "insert_p99_ms"),
    ] {
        if let Some(s) = summarize(&latencies(&ops, kind)) {
            push(p50, "ms", s.p50, s.count);
            push(p99, "ms", s.p99, s.count);
        }
    }
    let failed_frac = failed as f64 / attempted.max(1) as f64;
    push("failed_frac", "ratio", failed_frac, attempted as usize);
    if let Some(a) = space_amp {
        push("space_amp", "ratio", a, 1);
    }
    push("peak_rss_mb", "MiB", peak_rss, 1);

    write_ops(args, &ops)?;
    let gen_lag_p99 = summarize(&load.gen_lag_ms).map(|s| s.p99);
    if let Some(lag) = gen_lag_p99 {
        report.push(format!(
            "generator lag p99 {lag:.3} ms (n={}, limit {MAX_GEN_LAG_MS} ms)",
            load.gen_lag_ms.len()
        ));
    }
    let invalid = gen_lag_p99.filter(|&lag| lag > MAX_GEN_LAG_MS).map(|lag| {
        format!("open-loop generator fell behind: lag p99 {lag:.1} ms > {MAX_GEN_LAG_MS} ms")
    });
    report.push(provenance(args, &ops, window_s, steal_pct));

    let metrics = if args.trace {
        let replay_stats = simquery::stats::StatsRegistry::new();
        // The sharded replay runs on a fresh durable copy of the last
        // phase's base corpus: the served state grew by as many inserts
        // as the window fitted, and the paper counters must repeat.
        let replay_dirs = Dirs {
            index: work.join("replay").join("index"),
            wal: work.join("replay").join("wal"),
        };
        let durable = match &single {
            Some(_) => None,
            None => Some(open_sharded(&corpus, &replay_dirs)?),
        };
        let target = match (&single, &durable) {
            (Some(shared), _) => Target::Single(shared, &replay_stats),
            (_, Some(sharded)) => Target::Sharded(sharded),
            _ => unreachable!("one backend kind per workload"),
        };
        let writes = durable.as_ref().map(|d| (d, &replay_dirs));
        let mut per = traced(args, &last_ops, corpus.len(), &target, writes)?;
        per.push((
            "serve.busy_frac",
            server_cpu_s / (WORKERS as f64 * window_s),
        ));
        per.push(("plan.cache_hit_ratio", load.cache_hit_ratio));
        per.push(("gen_lag_p99_ms", gen_lag_p99.unwrap_or(0.0)));
        per.push(("bench.host_steal_pct", steal_pct));
        per.extend(e2e.iter().map(|m| (m.name, m.value)));
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: per
                    .iter()
                    .find(|(n, _)| *n == name)
                    .map_or(0.0, |(_, v)| *v),
                samples: 1,
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter_map(|&(name, _)| e2e.iter().find(|m| m.name == name).cloned())
            .collect()
    };
    for m in &e2e {
        report.push(format!(
            "e2e {:<14} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        ));
    }
    Ok(Outcome {
        attempted,
        failed,
        correct: failed == 0 && errors.is_empty(),
        metrics,
        report,
        invalid,
    })
}

/// Writes every op's raw timing as TSV beside the report.
fn write_ops(args: &Args, ops: &[Op]) -> Result<(), String> {
    use std::fmt::Write as _;
    let mut text = String::from("kind\tconn\tn\tmeasured\tdue_s\tsend_s\tdone_s\tlatency_ms\tok\n");
    for o in ops {
        let _ = writeln!(
            text,
            "{:?}\t{}\t{}\t{}\t{:.6}\t{:.6}\t{:.6}\t{:.4}\t{}",
            o.kind,
            o.conn,
            o.n,
            o.measured,
            o.due,
            o.send,
            o.done,
            o.latency_ms(),
            o.result.is_ok()
        );
    }
    let trace = u8::from(args.trace);
    let path = Path::new(OUT_DIR).join(format!(
        "{}-seed{}-trace{trace}.ops.tsv",
        args.workload.name(),
        args.seed
    ));
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

fn provenance(args: &Args, ops: &[Op], window_s: f64, steal_pct: f64) -> String {
    let w = args.workload;
    let n = |k: OpKind| latencies(ops, k).len();
    let sharded = w == Workload::IngestSharded;
    format!(
        "provenance git={} nproc={} rustc=\"{}\" workload={} seed={} corpus={}x{} \
         pool_pages={} shards={} fsync={} result_cache={} workers={WORKERS} conns={CONNS} \
         window_s={window_s:.3} host_steal_pct={steal_pct:.2} samples query={} knn={} insert={} checkpoint={}",
        sys::git_sha(),
        sys::nproc(),
        sys::rustc_version(),
        w.name(),
        args.seed,
        w.corpus_len(),
        SEQ_LEN,
        w.pool_pages(),
        if sharded { LARGE_SHARDS } else { 1 },
        if sharded {
            FSYNC.to_string()
        } else {
            "none".into()
        },
        w.result_cache(),
        n(OpKind::Query),
        n(OpKind::Knn),
        n(OpKind::Insert),
        n(OpKind::Checkpoint),
    )
}

/// The traced run's replay: a checked pass (tracing off, every engine
/// run compared with the real engine), a traced pass, and an untraced
/// pass for the tracing overhead; then the write path for durable
/// workloads. Writes the spans out and returns the per-layer metrics.
fn traced(
    args: &Args,
    ops: &[Op],
    corpus_len: usize,
    target: &Target,
    writes: Option<(&simshard::ShardedIndex, &Dirs)>,
) -> Result<Vec<(&'static str, f64)>, String> {
    let w = args.workload;
    let (queries, knn) = match w {
        Workload::RangeFit => (REPLAY_QUERIES, REPLAY_KNN),
        Workload::HotCached => (REPLAY_QUERIES, 0),
        Workload::IngestSharded => (REPLAY_SHARDED, 0),
    };
    let reqs = replay_set(ops, queries, knn);
    let cache = PlanCache::new(w.result_cache());
    let mut off = Tracer::new(false);
    let checked = layers::pass(&mut off, target, &cache, &reqs, true)?;
    let mut t = Tracer::new(true);
    let traced = layers::pass(&mut t, target, &cache, &reqs, false)?;
    let plain = layers::pass(&mut off, target, &cache, &reqs, false)?;
    // The paper counters are deterministic: every pass that ran an engine
    // must reproduce the checked pass exactly.
    for pass in [&traced, &plain] {
        for (a, b) in checked.outs.iter().zip(&pass.outs) {
            if a.engine.is_some() && b.engine.is_some() && a.counts.paper() != b.counts.paper() {
                return Err(format!(
                    "request {}: counters {:?} did not repeat ({:?})",
                    a.id,
                    b.counts.paper(),
                    a.counts.paper()
                ));
            }
        }
    }
    let writes = match writes {
        Some((index, dirs)) => {
            let inserts: Vec<Vec<f64>> = ops
                .iter()
                .filter(|o| o.measured)
                .filter_map(|o| match &o.request {
                    Request::Insert { values } => Some(values.clone()),
                    _ => None,
                })
                .take(REPLAY_INSERTS)
                .collect();
            Some(layers::replay_writes(
                &mut t,
                index,
                dirs,
                &inserts,
                reqs.len() as u64,
            )?)
        }
        None => None,
    };
    let per = layers::reduce(
        &t,
        &LayerInputs {
            reqs: &reqs,
            checked: &checked,
            traced: &traced,
            plain: &plain,
            corpus_len,
            writes: writes.as_ref(),
        },
    );
    let path = Path::new(OUT_DIR).join(format!("{}-seed{}.spans.tsv", w.name(), args.seed));
    t.write_tsv(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(per)
}
