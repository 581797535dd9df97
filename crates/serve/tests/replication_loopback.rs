//! WAL-shipping replication over loopback TCP: a durable primary feeds
//! a follower through the `REPL` verb, and after the lag drains the
//! follower is answer-identical to the primary for range queries, kNN,
//! and joins across every engine. Also covers the follower's typed
//! `ERR READONLY` on writes, the `REPL` stats line on both roles, and
//! the plan-cache regression: a cached result on a lagging follower
//! must not outlive an applied frame.

use simquery::prelude::*;
use simserve::client::Client;
use simserve::protocol::{EngineKind, ErrCode, QueryParams, Response, WireThreshold};
use simserve::repl::{self, Follower, FollowerOpts};
use simserve::server::{serve, serve_with, ServerConfig};
use simshard::{ShardConfig, ShardedIndex};
use simwal::FsyncPolicy;
use std::path::PathBuf;
use std::sync::Arc;
use tseries::random_walk;
use tseries::rng::SeededRng;

/// Opens a durable node as a handle its server and follower share.
fn open_durable(
    index: &std::path::Path,
    wal: &std::path::Path,
    pool: usize,
    policy: FsyncPolicy,
) -> Result<(Arc<ShardedIndex>, simwal::ReplayReport), simshard::ShardError> {
    ShardedIndex::open_durable(index, wal, pool, policy).map(|(i, r)| (Arc::new(i), r))
}

const SEQ_LEN: usize = 32;
const POOL: usize = 32;

fn test_config(result_cache: usize) -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        max_conns: 16,
        result_cache,
        ..ServerConfig::default()
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simserve_repl_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Steps the follower until a poll ships nothing and the lag is zero.
fn drain(follower: &mut Follower) {
    for _ in 0..1000 {
        if follower.poll_once().unwrap() == 0 && follower.lag() == 0 {
            return;
        }
    }
    panic!("follower failed to drain within 1000 polls");
}

/// Order-independent result key of a range query under one engine.
fn query_key(client: &mut Client, ord: usize, engine: EngineKind) -> (usize, Vec<(usize, usize)>) {
    let (n, matches) = client
        .query(QueryParams {
            ord,
            ma: (3, 10),
            threshold: WireThreshold::Rho(0.9),
            engine,
            limit: 0,
        })
        .unwrap()
        .unwrap();
    let mut key: Vec<_> = matches.iter().map(|m| (m.seq, m.transform)).collect();
    key.sort_unstable();
    (n, key)
}

fn knn_key(client: &mut Client, ord: usize, k: usize) -> Vec<(usize, usize, String)> {
    client
        .knn(ord, k, (3, 10))
        .unwrap()
        .unwrap()
        .iter()
        .map(|m| (m.seq, m.transform, format!("{:.9}", m.dist)))
        .collect()
}

fn join_key(client: &mut Client, engine: EngineKind) -> (usize, Vec<(usize, usize)>) {
    let req = simserve::protocol::Request::Join {
        ma: (3, 10),
        threshold: WireThreshold::Rho(0.95),
        engine,
        limit: 0,
    };
    match client.call(&req).unwrap() {
        Response::Pairs { n, pairs, .. } => {
            let mut key: Vec<_> = pairs.iter().map(|p| (p.a, p.b)).collect();
            key.sort_unstable();
            (n, key)
        }
        other => panic!("JOIN failed: {other:?}"),
    }
}

/// The acceptance scenario: bootstrap a follower from a snapshot, ship
/// N acked mutations, drain, and the follower answers every read verb
/// exactly like the primary — then keeps refusing writes with a typed
/// error.
#[test]
fn follower_converges_and_serves_identical_reads() {
    let root = fresh_dir("parity");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 20, SEQ_LEN, 0x9E9);
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&root.join("idx"))
        .unwrap();
    let (shared_p, _) = open_durable(
        &root.join("idx"),
        &root.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let hp = serve(shared_p, &test_config(0)).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();

    // A couple of pre-bootstrap mutations, so the snapshot itself is
    // already past the base state (and contains a tombstone).
    let mut rng = SeededRng::seed_from_u64(0xF01);
    pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
        .unwrap()
        .unwrap();
    assert!(pc.delete(3).unwrap().unwrap());

    let (shared_f, mut follower) = repl::bootstrap(
        &hp.addr.to_string(),
        ShardConfig::default(),
        FollowerOpts {
            wait_ms: 0,
            ..Default::default()
        },
    )
    .unwrap();
    let hf = serve_with(shared_f, &test_config(0), Some(follower.stats())).unwrap();
    let mut fc = Client::connect(hf.addr).unwrap();

    // N acked mutations land after the snapshot cut and must stream.
    for _ in 0..6 {
        pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
            .unwrap()
            .unwrap();
    }
    assert!(pc.delete(7).unwrap().unwrap());
    assert!(pc.delete(20).unwrap().unwrap());
    drain(&mut follower);
    assert_eq!(follower.applied(), 10, "2 + 6 + 2 acked mutations shipped");

    // Answer parity for every read verb, across engines.
    for engine in [EngineKind::Mt, EngineKind::St, EngineKind::Scan] {
        for ord in [0usize, 5, 21, 26] {
            assert_eq!(
                query_key(&mut pc, ord, engine),
                query_key(&mut fc, ord, engine),
                "QUERY diverged at ord {ord} ({engine:?})"
            );
        }
        assert_eq!(
            join_key(&mut pc, engine),
            join_key(&mut fc, engine),
            "JOIN diverged ({engine:?})"
        );
    }
    for ord in [0usize, 5, 21] {
        assert_eq!(
            knn_key(&mut pc, ord, 5),
            knn_key(&mut fc, ord, 5),
            "KNN diverged at ord {ord}"
        );
    }

    // Deleted ordinals answer identically too — same success shape or
    // the same typed error on both roles.
    match (
        pc.query(query_params_for(7)).unwrap(),
        fc.query(query_params_for(7)).unwrap(),
    ) {
        (Ok((np, mut kp)), Ok((nf, mut kf))) => {
            kp.sort_by_key(|a| (a.seq, a.transform));
            kf.sort_by_key(|a| (a.seq, a.transform));
            assert_eq!(np, nf);
            assert_eq!(
                kp.iter().map(|m| (m.seq, m.transform)).collect::<Vec<_>>(),
                kf.iter().map(|m| (m.seq, m.transform)).collect::<Vec<_>>()
            );
        }
        (Err(Response::Err { code: cp, .. }), Err(Response::Err { code: cf, .. })) => {
            assert_eq!(cp, cf)
        }
        other => panic!("roles diverged on a deleted ordinal: {other:?}"),
    }

    // The follower refuses every mutating verb with the typed code and
    // stays fully readable afterwards.
    for resp in [
        fc.insert(vec![1.0; SEQ_LEN]).unwrap().unwrap_err(),
        fc.delete(0).unwrap().unwrap_err(),
        fc.checkpoint().unwrap().unwrap_err(),
    ] {
        match resp {
            Response::Err { code, msg } => {
                assert_eq!(code, ErrCode::ReadOnly, "{msg}");
                assert!(msg.contains("follower"), "error names the role: {msg}");
            }
            other => panic!("expected ERR READONLY, got {other:?}"),
        }
    }
    assert_eq!(query_key(&mut fc, 0, EngineKind::Mt).0, {
        let (n, _) = query_key(&mut pc, 0, EngineKind::Mt);
        n
    });

    // STATS: the follower reports its role and applied position; the
    // primary reports the follower's acked position and zero lag.
    let fs = fc.stats(false).unwrap().unwrap();
    let frl = fs.repl.expect("follower must report a REPL line");
    assert_eq!(frl.role, "follower");
    assert_eq!(frl.applied_lsn, 10);
    assert_eq!(frl.acked_lsn, 10);
    assert_eq!(frl.lag, 0);
    assert!(frl.bytes > 0, "shipped frame bytes are accounted");
    assert_eq!(frl.epoch, 1);

    let ps = pc.stats(false).unwrap().unwrap();
    let prl = ps.repl.expect("a primary with followers reports REPL");
    assert_eq!(prl.role, "primary");
    assert_eq!(prl.followers, 1);
    assert_eq!(prl.acked_lsn, 10);
    assert_eq!(prl.lag, 0);
    assert!(prl.bytes > 0);

    fc.quit().unwrap();
    pc.quit().unwrap();
    hf.shutdown();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

fn query_params_for(ord: usize) -> QueryParams {
    QueryParams {
        ord,
        ma: (3, 10),
        threshold: WireThreshold::Rho(0.9),
        engine: EngineKind::Mt,
        limit: 0,
    }
}

/// A follower that starts from a local seed copy of the index (the
/// `--index` form) re-handshakes with the reserved `from=0`, installs
/// the snapshot, and converges like a bootstrapped one.
#[test]
fn follower_with_seed_index_catches_up_via_snapshot() {
    let root = fresh_dir("seed");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 16, SEQ_LEN, 0x5EE);
    let seed = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    seed.save(&root.join("idx")).unwrap();
    seed.save(&root.join("fidx")).unwrap();
    drop(seed);

    let (shared_p, _) = open_durable(
        &root.join("idx"),
        &root.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let hp = serve(shared_p, &test_config(0)).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();
    let mut rng = SeededRng::seed_from_u64(0x5EED);
    for _ in 0..3 {
        pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
            .unwrap()
            .unwrap();
    }

    let shared_f = Arc::new(ShardedIndex::open(&root.join("fidx"), POOL).unwrap());
    let mut follower = Follower::connect(
        &hp.addr.to_string(),
        shared_f.clone(),
        FollowerOpts {
            wait_ms: 0,
            ..Default::default()
        },
    )
    .unwrap();
    drain(&mut follower);
    assert_eq!(follower.applied(), 3);
    assert_eq!(
        follower
            .stats()
            .snapshots
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "a fresh seed re-handshakes through exactly one snapshot"
    );
    assert_eq!(shared_f.len(), 19);

    pc.quit().unwrap();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Plan-cache regression: with `--result-cache` enabled on a follower,
/// a result cached before a frame lands must not be served after the
/// frame applies. The follower's query epoch incorporates replicated
/// LSNs, so the stale entry becomes unreachable the moment the state
/// changes — reads on a lagging follower are stale-at-worst, never
/// wrong-under-the-current-state.
#[test]
fn plan_cache_on_follower_never_serves_stale_reads() {
    let root = fresh_dir("cache");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, SEQ_LEN, 0xCAC);
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&root.join("idx"))
        .unwrap();
    let (shared_p, _) = open_durable(
        &root.join("idx"),
        &root.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let hp = serve(shared_p, &test_config(0)).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();

    let (shared_f, mut follower) = repl::bootstrap(
        &hp.addr.to_string(),
        ShardConfig::default(),
        FollowerOpts {
            wait_ms: 0,
            ..Default::default()
        },
    )
    .unwrap();
    // Result cache ON — the whole point of this regression test.
    let hf = serve_with(shared_f, &test_config(32), Some(follower.stats())).unwrap();
    let mut fc = Client::connect(hf.addr).unwrap();

    // Prime the cache: identical request twice; the second must hit.
    let before = query_key(&mut fc, 0, EngineKind::Mt);
    let again = query_key(&mut fc, 0, EngineKind::Mt);
    assert_eq!(before, again);
    let plan = fc.stats(false).unwrap().unwrap().plan.unwrap();
    assert!(plan.cache_hits >= 1, "second identical query must hit");

    // The primary inserts an exact copy of ordinal 0: any ρ-query on
    // ordinal 0 must now match the twin (correlation 1).
    let twin = corpus.series()[0].values().to_vec();
    let new_ord = pc.insert(twin).unwrap().unwrap();
    drain(&mut follower);

    // Same request on the follower: the cached pre-frame result is
    // keyed on the old epoch, so the answer now includes the twin.
    let (_, after) = query_key(&mut fc, 0, EngineKind::Mt);
    assert!(
        after.iter().any(|(seq, _)| *seq == new_ord),
        "follower served a stale cached result: {after:?} misses ord {new_ord}"
    );
    assert_eq!(
        query_key(&mut pc, 0, EngineKind::Mt),
        query_key(&mut fc, 0, EngineKind::Mt),
        "post-frame answers must be identical on both roles"
    );

    fc.quit().unwrap();
    pc.quit().unwrap();
    hf.shutdown();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
