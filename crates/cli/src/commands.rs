//! Subcommand implementations.

use simquery::plan;
use simquery::prelude::*;
use simserve::opts::Opts;
use simserve::protocol::EngineKind;
use simshard::{gather, ShardConfig, ShardedIndex};
use std::path::{Path, PathBuf};

/// Help text.
pub const USAGE: &str = "\
simseq — similarity-based queries for time series (Rafiei, ICDE '99)

USAGE:
  simseq gen   --kind walks|stocks --count N --len N --out FILE.csv [--seed S]
  simseq build --data FILE.csv --out DIR/
               [--shards N [--partitioner hash|round-robin|range]]
  simseq info  --index DIR/
  simseq query --index DIR/ (--query-index I | --query-csv FILE --row I)
               [--ma LO..HI] [--shift LO..HI] [--inverted yes]
               [--rho R | --eps E] [--engine auto|mt|st|scan]
               [--policy adaptive|safe|paper] [--mode symmetric|data-only]
               [--limit N]
  simseq join  --index DIR/ [--ma LO..HI] (--rho R | --eps E)
               [--engine auto|mt|st|scan] [--limit N]
  simseq nn    --index DIR/ (--query-index I | --query-csv FILE --row I)
               --k K [--ma LO..HI]
  simseq serve ...   runs simserved; `simseq serve help` lists its flags
  simseq load  ...   runs simload; `simseq load help` lists its flags
  simseq promote --addr HOST:PORT [--timeout-ms MS]
  simseq metrics --addr HOST:PORT [--trace N] [--timeout-ms MS]
  simseq recover --index DIR/ --wal DIR/ [--pool-pages N]

Every command rejects a flag it does not read and a flag given twice.

Thresholds: --rho is a cross-correlation in [-1, 1], converted through
Eq. 9; --eps is a Euclidean distance over transformed normal forms.

`build --shards N` partitions the corpus across N independent indexes
and writes the sharded layout (a directory with `sharding.txt`).
`info`, `query`, `nn` and `recover` detect that layout and open either
one: sharded queries scatter-gather across the shards, return exactly
the single-index answer, and print each shard's metrics to stderr.
`--policy paper` is refused on a sharded index (its false dismissals
depend on tree layout), and `join` requires an unsharded one.

`serve` and `load` are the `simserved` and `simload` daemons: the same
code, the same flags and the same help text.

`promote` flips a running follower to primary: the follower bumps its
WAL epoch past everything it has seen, fences the old timeline, and
starts accepting writes from its acked prefix. The old primary demotes
itself to read-only the moment it sees the higher epoch.

`metrics` fetches a running server's METRICS exposition (one
`name{labels} value` line per metric — the same numbers STATS reports)
and, with --trace N, drains up to N recorded spans from its sampling
tracer.

`recover` replays a write-ahead log (written by `simserved --wal`) on
top of the index snapshot, reports what it salvaged, and checkpoints so
the directory opens clean afterwards.
";

type CliResult = Result<(), String>;

/// A subcommand run on its parsed flags.
type Command = fn(&Opts) -> CliResult;

/// The flags every family-taking command reads (see [`family_from`]).
const FAMILY: &str = "index ma shift inverted";

/// The flags of the commands that take a query sequence.
const QUERY_SERIES: &str = "query-index query-csv row";

/// The flags of the commands that take a threshold (see [`spec_from`]).
const SPEC: &str = "rho eps engine policy mode limit";

/// Every subcommand but `serve` and `load`, with the flags it reads.
pub const COMMANDS: &[(&str, &[&str], Command)] = &[
    ("gen", &["kind count len seed out"], gen),
    ("build", &["data out shards partitioner"], build),
    ("info", &["index"], info),
    ("query", &[FAMILY, QUERY_SERIES, SPEC], query),
    ("join", &[FAMILY, SPEC], join),
    ("nn", &[FAMILY, QUERY_SERIES, "k"], nn),
    ("promote", &["addr timeout-ms"], promote),
    ("metrics", &["addr trace timeout-ms"], metrics),
    ("recover", &["index wal pool-pages"], recover),
];

/// `simseq gen` — write a synthetic corpus as CSV.
fn gen(args: &Opts) -> CliResult {
    let kind = match args.req("kind")? {
        "walks" => CorpusKind::SyntheticWalks,
        "stocks" => CorpusKind::StockCloses,
        other => return Err(format!("--kind must be walks|stocks, got `{other}`")),
    };
    let count: usize = args.req_parse("count")?;
    let len: usize = args.req_parse("len")?;
    let seed: u64 = args.parse_or("seed", 0)?;
    let out = PathBuf::from(args.req("out")?);
    let corpus = Corpus::generate(kind, count, len, seed);
    corpus
        .save_csv(&out)
        .map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {count} sequences of length {len} to {}",
        out.display()
    );
    Ok(())
}

/// `simseq build` — index a CSV corpus and persist it, as one index or,
/// with `--shards N`, partitioned across N.
fn build(args: &Opts) -> CliResult {
    let data = PathBuf::from(args.req("data")?);
    let out = PathBuf::from(args.req("out")?);
    // The same shardcfg parse that backs `simserved --shards`.
    let shard_cfg = match args.get("shards") {
        None if args.get("partitioner").is_some() => {
            return Err("--partitioner requires --shards".into())
        }
        None => None,
        Some(n) => Some(ShardConfig::parse(n, args.get("partitioner"))?),
    };
    let corpus = Corpus::load_csv(&data).map_err(|e| format!("reading {}: {e}", data.display()))?;
    let summary = match shard_cfg {
        None => {
            let index =
                SeqIndex::build(&corpus, IndexConfig::default()).ok_or("corpus is empty")?;
            index.save(&out).map_err(|e| format!("saving index: {e}"))?;
            format!(
                "indexed {} sequences of length {} ({} skipped as degenerate) into {}",
                index.len(),
                index.seq_len(),
                index.skipped().len(),
                out.display()
            )
        }
        Some(cfg) => {
            let sharded = ShardedIndex::build(&corpus, cfg, IndexConfig::default())
                .map_err(|e| e.to_string())?;
            sharded
                .save(&out)
                .map_err(|e| format!("saving sharded index: {e}"))?;
            format!(
                "indexed {} sequences of length {} across {} shards ({}) into {}",
                sharded.len(),
                sharded.seq_len(),
                sharded.shard_count(),
                sharded.partitioner_kind(),
                out.display()
            )
        }
    };
    // Names are needed later for reporting; keep them next to the index.
    std::fs::write(out.join("names.txt"), corpus.names().join("\n"))
        .map_err(|e| format!("saving names: {e}"))?;
    println!("{summary}");
    Ok(())
}

/// `simseq info` — describe a persisted index.
fn info(args: &Opts) -> CliResult {
    let (index, names) = open_index(args)?;
    println!("sequences:   {}", index.len());
    println!("length:      {}", index.seq_len());
    match &index {
        Index::Single(index) => {
            println!("tree height: {}", index.height());
            println!("leaf fanout: {}", index.leaf_capacity());
            println!("skipped:     {}", index.skipped().len());
            println!("deleted:     {}", index.deleted_count());
        }
        Index::Sharded(sharded) => {
            println!("shards:      {}", sharded.shard_count());
            println!("partitioner: {}", sharded.partitioner_kind());
            println!("deleted:     {}", sharded.deleted_count());
            let loads = sharded.shard_loads();
            for (i, (load, handle)) in loads.iter().zip(sharded.shards()).enumerate() {
                let index = handle.read();
                println!("shard {i}:     {load} seqs, tree height {}", index.height());
            }
        }
    }
    if let Some(first) = names.first() {
        println!("first name:  {first}");
    }
    Ok(())
}

/// `simseq query` — Query 1.
fn query(args: &Opts) -> CliResult {
    let (index, names) = open_index(args)?;
    let family = family_from(args, index.seq_len())?;
    let spec = spec_from(args)?;
    if matches!(index, Index::Sharded(_)) && spec.policy == FilterPolicy::Paper {
        return Err(
            "--policy paper is tree-layout-dependent and may differ across \
             shard counts; use adaptive|safe"
                .into(),
        );
    }
    let q = query_series(args, &index)?;
    let lq = LogicalQuery::range(family.clone(), spec).with_engine(engine_pref_from(args)?);
    index.reset_counters()?;
    let (chosen, result, per_shard) = match &index {
        Index::Single(index) => {
            let (chosen, out) = plan::run(index, &StatsRegistry::new(), &lq, Some(&q))
                .map_err(|e| e.to_string())?;
            let PlanOutput::Range(result) = out else {
                return Err("range plan produced a non-range result".into());
            };
            (chosen, result, Vec::new())
        }
        Index::Sharded(sharded) => {
            gather::execute_range(sharded, &lq, &q).map_err(|e| e.to_string())?
        }
    };

    let limit: usize = args.parse_or("limit", 20)?;
    let mut matches = result.matches.clone();
    matches.sort_by(|a, b| a.dist.total_cmp(&b.dist));
    for m in matches.iter().take(limit) {
        println!(
            "{:24} via {:12} D = {:.4}",
            display_name(&names, m.seq),
            family.transforms()[m.transform].label(),
            m.dist
        );
    }
    if matches.len() > limit {
        println!("… and {} more (raise --limit)", matches.len() - limit);
    }
    eprintln!(
        "{} matches over {} sequences | {}",
        result.matches.len(),
        result.matched_sequences().len(),
        result.metrics
    );
    print_per_shard(&per_shard);
    eprintln!("{}", plan_line(&chosen));
    Ok(())
}

/// `simseq join` — Query 2 (single layout only).
fn join(args: &Opts) -> CliResult {
    let (Index::Single(index), names) = open_index(args)? else {
        return Err(
            "JOIN is not supported on a sharded index (pairs cross shards); \
             build the index without --shards to join"
                .into(),
        );
    };
    let family = family_from(args, index.seq_len())?;
    let spec = spec_from(args)?;
    let engine = engine_pref_from(args)?;
    index
        .reset_counters()
        .map_err(|e| format!("resetting counters: {e}"))?;
    let lq = LogicalQuery::join(family.clone(), spec).with_engine(engine);
    let stats = StatsRegistry::new();
    let (chosen, out) = plan::run(&index, &stats, &lq, None).map_err(|e| e.to_string())?;
    let PlanOutput::Join(result) = out else {
        return Err("join plan produced a non-join result".into());
    };

    let limit: usize = args.parse_or("limit", 20)?;
    let mut matches = result.matches.clone();
    matches.sort_by(|a, b| a.dist.total_cmp(&b.dist));
    for m in matches.iter().take(limit) {
        println!(
            "{:20} ~ {:20} via {:10} D = {:.4}",
            display_name(&names, m.seq_a),
            display_name(&names, m.seq_b),
            family.transforms()[m.transform].label(),
            m.dist
        );
    }
    eprintln!(
        "{} qualifying pairs | {}",
        result.matches.len(),
        result.metrics
    );
    eprintln!("{}", plan_line(&chosen));
    Ok(())
}

/// `simseq nn` — k nearest neighbours under the family.
fn nn(args: &Opts) -> CliResult {
    let (index, names) = open_index(args)?;
    let family = family_from(args, index.seq_len())?;
    let k: usize = args.req_parse("k")?;
    let q = query_series(args, &index)?;
    index.reset_counters()?;
    let lq = LogicalQuery::knn(family.clone(), k);
    let (matches, metrics, per_shard) = match &index {
        Index::Single(index) => {
            let (_, out) = plan::run(index, &StatsRegistry::new(), &lq, Some(&q))
                .map_err(|e| e.to_string())?;
            let PlanOutput::Knn(matches, metrics) = out else {
                return Err("kNN plan produced a non-kNN result".into());
            };
            (matches, metrics, Vec::new())
        }
        Index::Sharded(sharded) => {
            let (_, matches, metrics, per_shard) =
                gather::execute_knn(sharded, &lq, &q).map_err(|e| e.to_string())?;
            (matches, metrics, per_shard)
        }
    };
    for m in &matches {
        println!(
            "{:24} via {:12} D = {:.4}",
            display_name(&names, m.seq),
            family.transforms()[m.transform].label(),
            m.dist
        );
    }
    eprintln!("{metrics}");
    print_per_shard(&per_shard);
    Ok(())
}

/// `simseq promote` — flip a running follower to primary.
fn promote(args: &Opts) -> CliResult {
    let addr = args.req("addr")?;
    let mut client = connect_client(args, addr)?;
    match client
        .promote()
        .map_err(|e| format!("PROMOTE failed: {e}"))?
    {
        Ok(epoch) => {
            println!("promoted: {addr} is now primary at epoch {epoch}");
            Ok(())
        }
        Err(resp) => Err(format!("PROMOTE rejected: {resp:?}")),
    }
}

/// `simseq metrics` — fetch a running server's metrics exposition.
fn metrics(args: &Opts) -> CliResult {
    let addr = args.req("addr")?;
    let mut client = connect_client(args, addr)?;
    let lines = client
        .metrics()
        .map_err(|e| format!("METRICS failed: {e}"))?
        .map_err(|resp| format!("METRICS rejected: {resp:?}"))?;
    for line in &lines {
        println!("{line}");
    }
    if let Some(n) = args.parse_opt::<usize>("trace")? {
        let events = client
            .trace(n)
            .map_err(|e| format!("TRACE failed: {e}"))?
            .map_err(|resp| format!("TRACE rejected: {resp:?}"))?;
        println!("# {} spans (oldest first)", events.len());
        for ev in &events {
            println!(
                "trace={} depth={} start_us={} dur_us={} {}",
                ev.trace, ev.depth, ev.start_us, ev.dur_us, ev.name
            );
        }
    }
    Ok(())
}

/// `simseq recover` — replay a WAL onto its snapshot and checkpoint.
fn recover(args: &Opts) -> CliResult {
    let dir = PathBuf::from(args.req("index")?);
    let wal = PathBuf::from(args.req("wal")?);
    let pool_pages: usize = args.parse_or("pool-pages", 256)?;
    let policy = simwal::FsyncPolicy::Always;
    let oops = |e: &dyn std::fmt::Display| format!("recovering {}: {e}", dir.display());
    if dir.join("sharding.txt").is_file() {
        let (sharded, rec) =
            ShardedIndex::open_durable(&dir, &wal, pool_pages, policy).map_err(|e| oops(&e))?;
        println!("shards:      {}", sharded.shard_count());
        println!("wal epoch:   {}", rec.epoch);
        println!("replayed:    {} frames", rec.replayed);
        println!(
            "dropped:     {} frames (past the first unsynced gap)",
            rec.dropped
        );
        println!(
            "stale:       {} frames (already in the snapshot)",
            rec.stale_frames
        );
        println!("torn bytes:  {} truncated", rec.truncated_bytes);
        let epoch = sharded.checkpoint().map_err(|e| oops(&e))?;
        println!(
            "checkpointed {} sequences at epoch {}",
            sharded.len(),
            epoch.expect("durable index checkpoints")
        );
    } else {
        let (shared, rep) =
            SharedIndex::open_durable(&dir, &wal, pool_pages, policy).map_err(|e| oops(&e))?;
        println!("wal epoch:   {}", rep.epoch);
        println!("replayed:    {} frames", rep.frames);
        println!(
            "stale:       {} frames (already in the snapshot)",
            rep.stale_frames
        );
        println!("torn bytes:  {} truncated", rep.truncated_bytes);
        let epoch = shared.checkpoint().map_err(|e| oops(&e))?;
        println!(
            "checkpointed {} sequences at epoch {}",
            shared.read().len(),
            epoch.expect("durable index checkpoints")
        );
    }
    Ok(())
}

// ---------------------------------------------------------------------

/// Dials a server for the point commands (`promote`, `metrics`),
/// honouring `--timeout-ms` (0 = no socket timeouts).
fn connect_client(args: &Opts, addr: &str) -> Result<simserve::client::Client, String> {
    let cfg = match args.parse_opt("timeout-ms")? {
        None => simserve::client::ClientConfig::default(),
        Some(ms) => simserve::client::ClientConfig::with_timeout_ms(ms),
    };
    simserve::client::Client::connect_with(addr, cfg)
        .map_err(|e| format!("connecting to {addr}: {e}"))
}

/// A persisted index in either layout.
enum Index {
    Single(SeqIndex),
    Sharded(ShardedIndex),
}

impl Index {
    fn len(&self) -> usize {
        match self {
            Self::Single(index) => index.len(),
            Self::Sharded(sharded) => sharded.len(),
        }
    }

    fn seq_len(&self) -> usize {
        match self {
            Self::Single(index) => index.seq_len(),
            Self::Sharded(sharded) => sharded.seq_len(),
        }
    }

    fn fetch_series(&self, ordinal: usize) -> Result<TimeSeries, String> {
        match self {
            Self::Single(index) => index.fetch_series(ordinal).map_err(|e| e.to_string()),
            Self::Sharded(sharded) => sharded.fetch_series(ordinal).map_err(|e| e.to_string()),
        }
        .map_err(|e| format!("fetching ordinal {ordinal}: {e}"))
    }

    fn reset_counters(&self) -> CliResult {
        match self {
            Self::Single(index) => index.reset_counters(),
            Self::Sharded(sharded) => sharded.reset_counters(),
        }
        .map_err(|e| format!("resetting counters: {e}"))
    }
}

// `info`/`query`/`join`/`nn` are read-only, so skip the directory LOCK
// and coexist with a live simserved on the same files. A `sharding.txt`
// marks the sharded layout, as for `recover` and `simserved`.
fn open_index(args: &Opts) -> Result<(Index, Vec<String>), String> {
    let dir = PathBuf::from(args.req("index")?);
    let oops = |e: std::io::Error| format!("opening index {}: {e}", dir.display());
    let index = if dir.join("sharding.txt").is_file() {
        Index::Sharded(ShardedIndex::open_read_only(&dir, 256).map_err(oops)?)
    } else {
        Index::Single(SeqIndex::open_read_only(&dir, 256).map_err(oops)?)
    };
    let names = std::fs::read_to_string(dir.join("names.txt"))
        .map(|s| s.lines().map(String::from).collect())
        .unwrap_or_default();
    Ok((index, names))
}

fn print_per_shard(per_shard: &[EngineMetrics]) {
    for (i, m) in per_shard.iter().enumerate() {
        eprintln!("  shard {i}: {m}");
    }
}

fn display_name(names: &[String], ordinal: usize) -> String {
    names
        .get(ordinal)
        .cloned()
        .unwrap_or_else(|| format!("#{ordinal}"))
}

fn query_series(args: &Opts, index: &Index) -> Result<TimeSeries, String> {
    if let Some(ordinal) = args.parse_opt::<usize>("query-index")? {
        if ordinal >= index.len() {
            return Err(format!(
                "--query-index {ordinal} out of range (0..{})",
                index.len()
            ));
        }
        return index.fetch_series(ordinal);
    }
    let csv = Path::new(args.req("query-csv")?);
    let row: usize = args.req_parse("row")?;
    let corpus = Corpus::load_csv(csv).map_err(|e| format!("reading {}: {e}", csv.display()))?;
    if row >= corpus.len() {
        return Err(format!("--row {row} out of range (0..{})", corpus.len()));
    }
    Ok(corpus.series()[row].clone())
}

fn family_from(args: &Opts, n: usize) -> Result<Family, String> {
    let mut parts: Vec<Family> = Vec::new();
    if let Some((lo, hi)) = args.range("ma")? {
        if hi > n {
            return Err(format!("--ma window {hi} exceeds sequence length {n}"));
        }
        parts.push(Family::moving_averages(lo.max(1)..=hi, n));
    }
    if let Some((lo, hi)) = args.range("shift")? {
        parts.push(Family::circular_shifts(lo..=hi, n));
    }
    let mut family = match parts.len() {
        0 => Family::moving_averages(1..=1, n), // identity
        1 => parts.pop().expect("one part"),
        // Several ranges: the composed family (§3.3 — shift, then smooth).
        _ => {
            let mut iter = parts.into_iter();
            let first = iter.next().expect("non-empty");
            iter.fold(first, |acc, next| next.compose(&acc))
        }
    };
    if args.get("inverted") == Some("yes") {
        family = family.with_inverted();
    }
    Ok(family)
}

/// `--engine` → planner preference, through the wire protocol's engine
/// names and default (`mt`); `auto` hands the choice to the cost model.
fn engine_pref_from(args: &Opts) -> Result<EnginePref, String> {
    let kind = args.parse_or("engine", EngineKind::default())?;
    Ok(simserve::server::engine_pref(kind))
}

/// The one-line plan summary the query commands print to stderr.
fn plan_line(plan: &PhysicalPlan) -> String {
    format!(
        "plan: engine={} chosen_by={} partitions={} est_nodes={:.1} est_pages={:.1} est_cost={:.1}",
        plan.engine.as_str(),
        plan.chosen_by.as_str(),
        plan.partitions(),
        plan.est_nodes,
        plan.est_pages,
        plan.est_cost
    )
}

fn spec_from(args: &Opts) -> Result<RangeSpec, String> {
    // Threshold validation is shared with the server's protocol parser
    // (`Threshold::parse_args`), so the two front ends cannot drift.
    let mut spec =
        match Threshold::parse_args(args.get("rho"), args.get("eps")).map_err(|e| e.to_string())? {
            Some(t) => RangeSpec::from_threshold(t),
            None => RangeSpec::correlation(0.96), // the paper's default
        };
    spec = match args.get("policy").unwrap_or("adaptive") {
        "adaptive" => spec.with_policy(FilterPolicy::Adaptive),
        "safe" => spec.with_policy(FilterPolicy::Safe),
        "paper" => spec.with_policy(FilterPolicy::Paper),
        other => {
            return Err(format!(
                "--policy must be adaptive|safe|paper, got `{other}`"
            ))
        }
    };
    spec = match args.get("mode").unwrap_or("symmetric") {
        "symmetric" => spec.with_mode(QueryMode::Symmetric),
        "data-only" => spec.with_mode(QueryMode::DataOnly),
        other => return Err(format!("--mode must be symmetric|data-only, got `{other}`")),
    };
    Ok(spec)
}
