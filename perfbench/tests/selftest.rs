//! Self-tests of the benchmark harness: exact quantiles, the span
//! recorder, the stage replay against the engines, the oracle against the
//! sequential scan, and `BENCHMARK.json` against the metrics emitted.

use perfbench::oracle::Oracle;
use perfbench::replay::{self, check_same, pairs, Counts};
use perfbench::stats::{median, quantile, summarize};
use perfbench::trace::Tracer;
use perfbench::{END_TO_END, PER_LAYER};
use simquery::engine::{knn, mtindex, seqscan};
use simquery::index::{IndexConfig, SeqIndex};
use simquery::partition::{partition, PartitionStrategy};
use simquery::plan::{EngineChoice, EnginePref, LogicalQuery};
use simquery::query::{FilterPolicy, RangeSpec};
use simquery::tmbr::TransformMbr;
use simquery::transform::Family;
use simshard::{gather, ShardConfig, ShardedIndex};
use tseries::{Corpus, CorpusKind};

const N: usize = 64;

fn corpus(count: usize) -> Corpus {
    Corpus::generate(CorpusKind::SyntheticWalks, count, N, 7)
}

fn spec() -> RangeSpec {
    RangeSpec::correlation(0.95).with_policy(FilterPolicy::Adaptive)
}

#[test]
fn quantiles_are_exact_on_known_inputs() {
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.5), 2.5);
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.0), 1.0);
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    assert_eq!(quantile(&[7.0], 0.99), 7.0);
    assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    // 1..=101: the 99th percentile is exactly the 100th order statistic.
    let v: Vec<f64> = (1..=101).map(f64::from).collect();
    assert_eq!(quantile(&v, 0.99), 100.0);
    // Interpolation between order statistics, not bucket bounds.
    assert!((quantile(&[0.0, 10.0], 0.99) - 9.9).abs() < 1e-12);
    assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
    assert_eq!(median(&[]), None);
    let s = summarize(&[4.0, 1.0, 3.0, 2.0]).unwrap();
    assert_eq!((s.count, s.p50), (4, 2.5));
    assert!((s.p99 - 3.97).abs() < 1e-12);
    assert!(summarize(&[]).is_none());
}

#[test]
fn self_time_subtracts_children() {
    let mut t = Tracer::new(true);
    t.set_request(3);
    let root = t.begin("root");
    let child = t.begin("child");
    std::thread::sleep(std::time::Duration::from_millis(2));
    t.end(child);
    t.end(root);
    let spans = t.spans();
    assert_eq!(spans.len(), 2);
    assert_eq!(spans[1].parent, Some(0));
    assert_eq!(spans[1].req, 3);
    let own = t.self_times();
    assert_eq!(own[0], spans[0].dur_ns() - spans[1].dur_ns());
    assert_eq!(own[1], spans[1].dur_ns());
    assert!(spans[1].dur_ns() >= 2_000_000);
    assert_eq!(t.self_ns_by_request("child")[&3], own[1]);

    let mut off = Tracer::new(false);
    let s = off.begin("root");
    off.end(s);
    assert!(off.spans().is_empty());
}

#[test]
fn mt_replay_reproduces_the_engine() {
    let c = corpus(300);
    let index = SeqIndex::build(&c, IndexConfig::default()).unwrap();
    let family = Family::moving_averages(4..=12, N);
    for strategy in [
        PartitionStrategy::Single,
        PartitionStrategy::EqualWidth { per_mbr: 3 },
    ] {
        let mbrs = partition(&family, &strategy);
        for qi in [0usize, 17, 150, 299] {
            let q = &c.series()[qi];
            let (r, _) =
                mtindex::range_query_partitioned(&index, q, &family, &spec(), &strategy).unwrap();
            let mut t = Tracer::new(true);
            let (m, counts) = replay::mt_range(&mut t, &index, q, &family, &spec(), &mbrs).unwrap();
            check_same(
                "mt",
                (&r.matches, &Counts::of_engine(&r.metrics, r.matches.len())),
                (&m, &counts),
            )
            .unwrap();
            assert!(
                counts.comparisons > 0 && !m.is_empty(),
                "query {qi} matches itself"
            );
            for stage in ["core.prepare", "rstartree.search", "core.verify"] {
                assert!(t.spans().iter().any(|s| s.name == stage), "{stage} span");
            }
        }
    }
}

#[test]
fn knn_replay_reproduces_the_engine() {
    let c = corpus(300);
    let index = SeqIndex::build(&c, IndexConfig::default()).unwrap();
    let family = Family::moving_averages(4..=12, N);
    for qi in [3usize, 99, 250] {
        let q = &c.series()[qi];
        let (m, metrics) = knn::knn(&index, q, &family, 5).unwrap();
        let mut t = Tracer::new(false);
        let (rm, rc) = replay::knn(&mut t, &index, q, &family, 5).unwrap();
        check_same(
            "knn",
            (&m, &Counts::of_engine(&metrics, m.len())),
            (&rm, &rc),
        )
        .unwrap();
    }
}

#[test]
fn scatter_replay_reproduces_gather() {
    let c = corpus(400);
    let sharded =
        ShardedIndex::build(&c, ShardConfig::new(3).unwrap(), IndexConfig::default()).unwrap();
    let family = Family::moving_averages(4..=12, N);
    let lq = LogicalQuery::range(family.clone(), spec())
        .with_engine(EnginePref::Force(EngineChoice::Mt));
    for qi in [1usize, 200, 399] {
        let q = &c.series()[qi];
        let (plan, r, per_shard) = gather::execute_range(&sharded, &lq, q).unwrap();
        let mbrs = if plan.mbrs.is_empty() {
            vec![TransformMbr::of_family(&family)]
        } else {
            plan.mbrs.clone()
        };
        let mut engine = Counts::default();
        for m in &per_shard {
            engine.add(&Counts::of_engine(m, 0));
        }
        engine.matches = r.matches.len() as u64;
        let mut t = Tracer::new(true);
        let (m, counts) =
            replay::sharded_range(&mut t, &sharded, q, &family, &spec(), &mbrs).unwrap();
        check_same("scatter", (&r.matches, &engine), (&m, &counts)).unwrap();
        let fragments = t
            .spans()
            .iter()
            .filter(|s| s.name == "shard.fragment")
            .count();
        assert_eq!(fragments, 3);
    }
}

#[test]
fn a_wrong_replay_is_caught() {
    let c = corpus(200);
    let index = SeqIndex::build(&c, IndexConfig::default()).unwrap();
    let family = Family::moving_averages(4..=12, N);
    let q = &c.series()[5];
    let r = mtindex::range_query(&index, q, &family, &spec()).unwrap();
    let engine = Counts::of_engine(&r.metrics, r.matches.len());
    let mut fewer = engine;
    fewer.comparisons -= 1;
    assert!(check_same("x", (&r.matches, &engine), (&r.matches, &fewer)).is_err());
    assert!(check_same("x", (&r.matches, &engine), (&r.matches[1..], &engine)).is_err());
}

#[test]
fn oracle_agrees_with_scan_and_exact_knn() {
    let c = corpus(300);
    let index = SeqIndex::build(&c, IndexConfig::default()).unwrap();
    let oracle = Oracle::new(c.series(), 12);
    let family = Family::moving_averages(4..=12, N);
    let eps = spec().epsilon(N);
    for qi in [0usize, 42, 280] {
        let q = &c.series()[qi];
        let rows = oracle.rows(qi, 4, 12).unwrap();
        let scan = seqscan::range_query(&index, q, &family, &spec()).unwrap();
        assert_eq!(oracle.range(&rows, qi, 4, 12, eps), pairs(&scan.matches));
        let (m, _) = knn::knn(&index, q, &family, 7).unwrap();
        assert_eq!(oracle.knn(&rows, qi, 4, 12, 7), pairs(&m));
    }
    // A sub-family read from wider rows re-bases transform indices.
    let rows = oracle.rows(9, 3, 12).unwrap();
    let narrow = Family::moving_averages(5..=8, N);
    let scan = seqscan::range_query(&index, &c.series()[9], &narrow, &spec()).unwrap();
    assert_eq!(oracle.range(&rows, 9, 5, 8, eps), pairs(&scan.matches));
}

#[test]
fn write_stream_keeps_its_mix_by_position() {
    use perfbench::workload::{write_stream, CHECKPOINT_EVERY, INSERTS_PER_QUERY};
    use simserve::protocol::Request;
    let cycle = CHECKPOINT_EVERY + CHECKPOINT_EVERY / INSERTS_PER_QUERY + 1;
    let kinds = |seed| -> Vec<u8> {
        let mut s = write_stream(seed);
        (0..3 * cycle)
            .map(|n| match s(n) {
                Request::Insert { .. } => b'i',
                Request::Query(_) => b'q',
                Request::Checkpoint => b'c',
                other => panic!("unexpected request {other:?}"),
            })
            .collect()
    };
    let k = kinds(7);
    assert_eq!(k, kinds(8), "the mix does not depend on the seed");
    for c in k.chunks(cycle) {
        assert_eq!(c.iter().filter(|&&b| b == b'i').count(), CHECKPOINT_EVERY);
        assert_eq!(
            c.iter().filter(|&&b| b == b'q').count(),
            CHECKPOINT_EVERY / INSERTS_PER_QUERY
        );
        assert_eq!(c.last(), Some(&b'c'));
        assert_eq!(c[INSERTS_PER_QUERY], b'q');
    }
}

#[test]
fn benchmark_json_lists_exactly_the_emitted_metrics() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let section = |key: &str| -> Vec<(String, String)> {
        let start = text.find(&format!("\"{key}\"")).expect(key);
        let body = &text[start..];
        let end = body.find(']').expect("section end");
        body[..end]
            .split('{')
            .skip(1)
            .map(|entry| {
                let field = |f: &str| {
                    let at = entry.find(&format!("\"{f}\"")).expect(f) + f.len() + 2;
                    let rest = &entry[at..];
                    let open = rest.find('"').unwrap() + 1;
                    let close = rest[open..].find('"').unwrap() + open;
                    rest[open..close].to_string()
                };
                (field("name"), field("unit"))
            })
            .collect()
    };
    let owned = |list: &[(&str, &str)]| -> Vec<(String, String)> {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(section("end_to_end"), owned(&END_TO_END));
    assert_eq!(section("per_layer"), owned(&PER_LAYER));
}
