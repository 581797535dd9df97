//! Stage replay: each engine's pipeline composed from public calls, with a
//! span around every layer boundary.
//!
//! The replay mirrors what the engines do internally — the MT-index range
//! query (`mtindex::range_query_with_mbrs`), the best-first kNN
//! (`knn::knn`) and the scatter-gather range query
//! (`gather::execute_range`) — but calls each layer from outside, so the
//! time of every layer can be read off the spans. Its answers and paper
//! counters must equal the engine's exactly; [`check_same`] enforces that.

use crate::trace::Tracer;
use simquery::feature::{FRect, SeqFeatures, MAG_DIMS};
use simquery::index::SeqIndex;
use simquery::query::{mt_query_region, Filter, QueryMode, RangeSpec};
use simquery::report::{EngineMetrics, Match, QueryError};
use simquery::tmbr::TransformMbr;
use simquery::transform::{Family, Transform};
use simshard::ShardedIndex;
use std::collections::HashMap;
use std::rc::Rc;
use tseries::TimeSeries;

/// The paper's counters of one query (Eq. 18–20), plus the replay's own
/// fetch accounting. All exact integers.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counts {
    /// Tree node accesses, all levels (`DA_all`).
    pub node_accesses: u64,
    /// Leaf accesses (`DA_leaf`).
    pub leaf_accesses: u64,
    /// Candidates the filter passed.
    pub candidates: u64,
    /// Logical record fetches, as the engine reports them.
    pub record_fetches: u64,
    /// Distance computations (`C_cmp`).
    pub comparisons: u64,
    /// Distinct records read from the heap.
    pub distinct_fetches: u64,
    /// Record-heap page reads that missed the buffer pool.
    pub page_misses: u64,
    /// Qualifying (sequence, transformation) pairs.
    pub matches: u64,
}

impl Counts {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: &Counts) {
        self.node_accesses += other.node_accesses;
        self.leaf_accesses += other.leaf_accesses;
        self.candidates += other.candidates;
        self.record_fetches += other.record_fetches;
        self.comparisons += other.comparisons;
        self.distinct_fetches += other.distinct_fetches;
        self.page_misses += other.page_misses;
        self.matches += other.matches;
    }

    /// The counters an engine reports, for comparison with the replay.
    pub fn of_engine(m: &EngineMetrics, matches: usize) -> Self {
        Self {
            node_accesses: m.node_accesses,
            leaf_accesses: m.leaf_accesses,
            candidates: m.candidates,
            record_fetches: m.record_fetches,
            comparisons: m.comparisons,
            distinct_fetches: 0,
            page_misses: m.record_page_accesses,
            matches: matches as u64,
        }
    }

    /// The counters that must match exactly between the engine and the
    /// replay, and between runs (page misses depend on pool state).
    pub fn paper(&self) -> [u64; 6] {
        [
            self.node_accesses,
            self.leaf_accesses,
            self.candidates,
            self.record_fetches,
            self.comparisons,
            self.matches,
        ]
    }
}

/// Sorted `(seq, transform)` pairs — the comparison key for answers.
pub fn pairs(matches: &[Match]) -> Vec<(usize, usize)> {
    let mut p: Vec<(usize, usize)> = matches.iter().map(|m| (m.seq, m.transform)).collect();
    p.sort_unstable();
    p
}

/// Fails unless the replay reproduced the engine's pairs and counters.
pub fn check_same(
    what: &str,
    engine: (&[Match], &Counts),
    replay: (&[Match], &Counts),
) -> Result<(), String> {
    if pairs(engine.0) != pairs(replay.0) {
        return Err(format!(
            "{what}: replay pairs differ from the engine ({} vs {} pairs)",
            replay.0.len(),
            engine.0.len()
        ));
    }
    if engine.1.paper() != replay.1.paper() {
        return Err(format!(
            "{what}: replay counters {:?} differ from the engine {:?}",
            replay.1.paper(),
            engine.1.paper()
        ));
    }
    Ok(())
}

fn distance(t: &Transform, x: &SeqFeatures, q: &SeqFeatures, mode: QueryMode) -> f64 {
    match mode {
        QueryMode::Symmetric => t.transformed_distance(x, q),
        QueryMode::DataOnly => t.distance_data_only(x, q),
    }
}

fn derive(seq: usize, ts: &TimeSeries) -> SeqFeatures {
    SeqFeatures::extract(ts).unwrap_or_else(|| panic!("fetched degenerate sequence {seq}"))
}

/// The MT-index range query of `mtindex::range_query_with_mbrs`, stage by
/// stage: `SeqIndex::prepare_query`, then per transformation rectangle
/// `SeqIndex::search` with `mt_query_region`/`Filter`, `fetch_series` of
/// every new candidate, `SeqFeatures::extract`, and
/// `Transform::transformed_distance` against every member. Candidates
/// seen under an earlier rectangle are reused, as the engine's candidate
/// cache does.
pub fn mt_range(
    t: &mut Tracer,
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
    mbrs: &[TransformMbr],
) -> Result<(Vec<Match>, Counts), QueryError> {
    let span = t.begin("core.prepare");
    let q = index.prepare_query(query);
    t.end(span);
    let q = q?;
    let eps = spec.epsilon(index.seq_len());
    let filter = Filter::new(eps, spec.policy);
    let before = index.counters();
    let mut counts = Counts::default();
    let mut matches = Vec::new();
    let mut cache: HashMap<usize, Rc<SeqFeatures>> = HashMap::new();

    for mbr in mbrs {
        let span = t.begin("rstartree.search");
        let region = mt_query_region(mbr, &q.point, spec.mode);
        let mut candidates = Vec::new();
        let stats = index.search(
            |rect| filter.hit(&mbr.apply_to_rect(rect), &region),
            |_, data| candidates.push(data as usize),
        );
        t.end(span);
        let stats = stats?;
        counts.node_accesses += stats.nodes_accessed;
        counts.leaf_accesses += stats.leaf_nodes_accessed;
        counts.candidates += candidates.len() as u64;

        let span = t.begin("pagestore.fetch");
        let mut fetched = Vec::new();
        for &seq in &candidates {
            if !cache.contains_key(&seq) {
                match index.fetch_series(seq) {
                    Ok(ts) => fetched.push((seq, ts)),
                    Err(e) => {
                        t.end(span);
                        return Err(e.into());
                    }
                }
            }
        }
        t.end(span);
        counts.distinct_fetches += fetched.len() as u64;

        let span = t.begin("core.derive");
        for (seq, ts) in &fetched {
            cache.insert(*seq, Rc::new(derive(*seq, ts)));
        }
        t.end(span);

        let span = t.begin("core.verify");
        for &seq in &candidates {
            counts.record_fetches += 1;
            let x = &cache[&seq];
            for &ti in &mbr.members {
                let d = distance(&family.transforms()[ti], x, &q, spec.mode);
                counts.comparisons += 1;
                if d < eps {
                    matches.push(Match {
                        seq,
                        transform: ti,
                        dist: d,
                    });
                }
            }
        }
        t.end(span);
    }
    counts.page_misses = index.counters().record_page_reads - before.record_page_reads;
    counts.matches = matches.len() as u64;
    Ok((matches, counts))
}

/// The kNN engine's transformed MINDIST bound (`knn::knn`): √2 × the
/// magnitude-dimension gap between a transformed rectangle and the
/// transformed query region.
fn mindist_bound(data: &FRect, qregion: &FRect) -> f64 {
    let mut acc = 0.0;
    for &d in &MAG_DIMS {
        let gap = if data.lo[d] > qregion.hi[d] {
            data.lo[d] - qregion.hi[d]
        } else if qregion.lo[d] > data.hi[d] {
            qregion.lo[d] - data.hi[d]
        } else {
            0.0
        };
        acc += gap * gap;
    }
    (2.0 * acc).sqrt()
}

/// The best-first kNN of `knn::knn`, stage by stage: the tree walk
/// (`SeqIndex::nearest_by_refine_bounded`) with a span around each
/// candidate's fetch, feature derivation and verification inside it.
pub fn knn(
    t: &mut Tracer,
    index: &SeqIndex,
    query: &TimeSeries,
    family: &Family,
    k: usize,
) -> Result<(Vec<Match>, Counts), QueryError> {
    let span = t.begin("core.prepare");
    let q = index.prepare_query(query);
    t.end(span);
    let q = q?;
    let mbr = TransformMbr::of_family(family);
    let qregion = mbr.apply_to_point(&q.point);
    let before = index.counters();
    let mut comparisons = 0u64;
    let mut scored: HashMap<usize, (usize, f64)> = HashMap::new();
    let mut fetch_err = None;

    let span = t.begin("rstartree.search");
    let walk = index.nearest_by_refine_bounded(
        k,
        f64::INFINITY,
        |rect| mindist_bound(&mbr.apply_to_rect(rect), &qregion),
        |rect, _| mindist_bound(&mbr.apply_to_rect(rect), &qregion),
        |_, data| {
            let seq = data as usize;
            let s = t.begin("pagestore.fetch");
            let ts = index.fetch_series(seq);
            t.end(s);
            let ts = match ts {
                Ok(ts) => ts,
                Err(e) => {
                    fetch_err.get_or_insert(e);
                    return None;
                }
            };
            let s = t.begin("core.derive");
            let x = derive(seq, &ts);
            t.end(s);
            let s = t.begin("core.verify");
            let (mut best_t, mut best_d) = (0usize, f64::INFINITY);
            for (ti, tr) in family.transforms().iter().enumerate() {
                let d = tr.transformed_distance(&x, &q);
                comparisons += 1;
                if d < best_d {
                    best_d = d;
                    best_t = ti;
                }
            }
            t.end(s);
            scored.insert(seq, (best_t, best_d));
            Some(best_d)
        },
    );
    t.end(span);
    let (neighbors, stats) = walk?;
    if let Some(e) = fetch_err {
        return Err(e.into());
    }
    let after = index.counters();
    let matches: Vec<Match> = neighbors
        .iter()
        .map(|n| {
            let seq = n.data as usize;
            let (transform, dist) = scored[&seq];
            Match {
                seq,
                transform,
                dist,
            }
        })
        .collect();
    let fetches = after.record_fetches - before.record_fetches;
    let counts = Counts {
        node_accesses: stats.nodes_accessed,
        leaf_accesses: stats.leaf_nodes_accessed,
        candidates: stats.candidates,
        record_fetches: fetches,
        comparisons,
        distinct_fetches: fetches,
        page_misses: after.record_page_reads - before.record_page_reads,
        matches: matches.len() as u64,
    };
    Ok((matches, counts))
}

/// The scatter-gather range query of `gather::execute_range`, stage by
/// stage: every shard runs [`mt_range`] under its read guard (inside a
/// `shard.fragment` span, all under `shard.scatter`), then `shard.gather`
/// translates local ordinals through the map snapshot and sorts.
///
/// Shards run one after another here, so each shard's stage times are
/// free of the other shards' contention.
pub fn sharded_range(
    t: &mut Tracer,
    sharded: &ShardedIndex,
    query: &TimeSeries,
    family: &Family,
    spec: &RangeSpec,
    mbrs: &[TransformMbr],
) -> Result<(Vec<Match>, Counts), QueryError> {
    let map = sharded.map_snapshot();
    let mut counts = Counts::default();
    let mut parts = Vec::with_capacity(sharded.shard_count());
    let scatter = t.begin("shard.scatter");
    for shard in sharded.shards() {
        let guard = shard.read();
        let span = t.begin("shard.fragment");
        let out = mt_range(t, &guard, query, family, spec, mbrs);
        t.end(span);
        let (matches, c) = out?;
        counts.add(&c);
        parts.push(matches);
    }
    t.end(scatter);

    let span = t.begin("shard.gather");
    let mut merged = Vec::new();
    for (shard, matches) in parts.iter().enumerate() {
        let globals = map.globals_of(shard);
        merged.extend(
            matches
                .iter()
                .filter_map(|m| globals.get(m.seq).map(|&g| Match { seq: g, ..*m })),
        );
    }
    merged.sort_by_key(|m| (m.seq, m.transform));
    t.end(span);
    counts.matches = merged.len() as u64;
    Ok((merged, counts))
}
