//! Replication and failover of a 4-shard durable primary over loopback
//! TCP. The primary ships its one log; each follower rebuilds the
//! snapshot transfer across its *own* shard count, streams the frames,
//! and answers range, kNN and INFO exactly like the primary. The durable
//! 4-shard follower is then promoted and takes writes, and the deposed
//! primary fences itself. Every follower is stepped one `poll_once` at a
//! time, so each run replays the same schedule.

use simquery::prelude::*;
use simserve::client::Client;
use simserve::protocol::{EngineKind, ErrCode, QueryParams, Request, Response, WireThreshold};
use simserve::repl::{self, Follower, FollowerOpts};
use simserve::server::{serve, serve_with, ServerConfig};
use simshard::{ShardConfig, ShardedIndex};
use simwal::{FsyncPolicy, LOG_FILE};
use std::path::PathBuf;
use std::sync::Arc;
use tseries::random_walk;
use tseries::rng::SeededRng;

const SEQ_LEN: usize = 32;
const POOL: usize = 32;
const BASE: usize = 24;

fn test_config() -> ServerConfig {
    ServerConfig {
        addr: "127.0.0.1:0".into(),
        workers: 2,
        queue_depth: 16,
        max_conns: 16,
        result_cache: 0,
        ..ServerConfig::default()
    }
}

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "simserve_sharded_repl_{name}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn shards(n: usize) -> ShardConfig {
    ShardConfig::new(n).unwrap()
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

/// `n` seeded mutations through `client`: mostly inserts, every fourth
/// one on average a delete of a random ordinal (possibly already dead).
fn mutate(client: &mut Client, rng: &mut SeededRng, n: usize, len: &mut usize) {
    for _ in 0..n {
        if rng.random_range(0u32..4) == 0 {
            let ord = rng.random_range(0..*len);
            client.delete(ord).unwrap().unwrap();
        } else {
            let ts = random_walk(rng, SEQ_LEN, 50.0);
            let ord = client.insert(ts.values().to_vec()).unwrap().unwrap();
            assert_eq!(ord, *len, "inserts take the next global ordinal");
            *len += 1;
        }
    }
}

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

fn knn_key(client: &mut Client, ord: usize) -> Vec<(usize, usize, String)> {
    client
        .knn(ord, 5, (3, 10))
        .unwrap()
        .unwrap()
        .iter()
        .map(|m| (m.seq, m.transform, format!("{:.9}", m.dist)))
        .collect()
}

fn info_value(client: &mut Client, key: &str) -> String {
    client
        .info()
        .unwrap()
        .unwrap()
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("INFO has no {key}"))
}

/// Range, kNN and INFO answers of `a` and `b` agree exactly.
fn assert_parity(a: &mut Client, b: &mut Client, len: usize, info_keys: &[&str], ctx: &str) {
    for engine in [EngineKind::Mt, EngineKind::St, EngineKind::Scan] {
        for ord in [0, 7, len / 2, len - 1] {
            assert_eq!(
                query_key(a, ord, engine),
                query_key(b, ord, engine),
                "{ctx}: QUERY ord {ord} under {engine:?}"
            );
        }
    }
    for ord in [1, len - 1] {
        assert_eq!(knn_key(a, ord), knn_key(b, ord), "{ctx}: KNN ord {ord}");
    }
    for key in info_keys {
        assert_eq!(info_value(a, key), info_value(b, key), "{ctx}: INFO {key}");
    }
}

#[test]
fn four_shard_primary_replicates_and_its_follower_promotes() {
    let root = fresh_dir("four");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, BASE, SEQ_LEN, 0x54A2D);
    let base = ShardedIndex::build(&corpus, shards(4), IndexConfig::default()).unwrap();
    base.save(&root.join("idx")).unwrap();
    base.save(&root.join("fidx")).unwrap();
    drop(base);

    let (primary, _) = ShardedIndex::open_durable(
        &root.join("idx"),
        &root.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let hp = serve(Arc::new(primary), &test_config()).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();
    let mut rng = SeededRng::seed_from_u64(0x5EED4);
    let mut len = BASE;
    // Half the schedule before any follower attaches, so the snapshot
    // transfer already carries inserts and tombstones.
    mutate(&mut pc, &mut rng, 10, &mut len);

    // A durable 4-shard follower: its directory starts at the base state
    // with no replica position, so the first poll is a snapshot transfer
    // rebuilt across its own 4 shards.
    let (follower, _) = ShardedIndex::open_durable(
        &root.join("fidx"),
        &root.join("fwal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let follower = Arc::new(follower);
    let mut f = Follower::connect(
        &hp.addr.to_string(),
        Arc::clone(&follower),
        FollowerOpts {
            batch: 3,
            wait_ms: 0,
            state_dir: Some(root.join("fwal")),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(f.poll_once().unwrap(), len, "bootstrap snapshot");
    // An in-memory follower at another shard count, bootstrapped from
    // the same primary.
    let (small, mut g) = repl::bootstrap(
        &hp.addr.to_string(),
        shards(2),
        FollowerOpts {
            wait_ms: 0,
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(small.shard_count(), 2);

    // The other half streams as frames of the primary's one log.
    mutate(&mut pc, &mut rng, 12, &mut len);
    drain(&mut f);
    drain(&mut g);
    assert_eq!(follower.len(), len);
    assert_eq!(follower.shard_count(), 4);
    let hf = serve_with(Arc::clone(&follower), &test_config(), Some(f.stats())).unwrap();
    let hg = serve_with(small, &test_config(), Some(g.stats())).unwrap();
    let mut fc = Client::connect(hf.addr).unwrap();
    let mut gc = Client::connect(hg.addr).unwrap();

    let shape = [
        "sequences",
        "seq_len",
        "deleted",
        "shards",
        "partitioner",
        "shard_loads",
    ];
    assert_parity(&mut pc, &mut fc, len, &shape, "4-shard follower");
    assert_parity(
        &mut pc,
        &mut gc,
        len,
        &["sequences", "seq_len", "deleted"],
        "2-shard follower",
    );
    assert_ne!(info_value(&mut pc, "deleted"), "0", "the schedule deletes");
    assert_eq!(info_value(&mut fc, "role"), "follower");
    assert_eq!(
        info_value(&mut fc, "applied_lsn"),
        f.applied().to_string(),
        "INFO reports the applied position"
    );
    match fc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec()) {
        Ok(Err(Response::Err { code, .. })) => assert_eq!(code, ErrCode::ReadOnly),
        other => panic!("a follower must refuse writes: {other:?}"),
    }
    // One log per node, whatever the shard count.
    for wal in [root.join("wal"), root.join("fwal")] {
        assert!(wal.join(LOG_FILE).is_file(), "{}: root log", wal.display());
        let per_shard = std::fs::read_dir(&wal)
            .unwrap()
            .filter(|e| {
                let name = e.as_ref().unwrap().file_name();
                name.to_string_lossy().starts_with("shard-")
            })
            .count();
        assert_eq!(per_shard, 0, "{}: no per-shard logs", wal.display());
    }

    // Promote the 4-shard follower (stepped inline: no loop to halt) and
    // write to it on its new timeline.
    drop(f);
    let primary_epoch: u64 = info_value(&mut pc, "wal_epoch").parse().unwrap();
    let new_epoch = fc.promote().unwrap().unwrap();
    assert!(
        new_epoch > primary_epoch,
        "the promoted epoch outruns the old one"
    );
    assert_eq!(info_value(&mut fc, "role"), "primary");
    let post = random_walk(&mut rng, SEQ_LEN, 50.0);
    let ord = fc.insert(post.values().to_vec()).unwrap().unwrap();
    assert_eq!(ord, len, "writes resume from the acked prefix");
    assert_eq!(follower.fetch_series(ord).unwrap().values(), post.values());
    assert_eq!(fc.knn(ord, 1, (1, 4)).unwrap().unwrap()[0].seq, ord);
    assert!(fc.delete(3).unwrap().is_ok());

    // The ex-primary learns of its demotion in-band and fences itself.
    let poll = Request::Repl {
        epoch: new_epoch,
        from: 1,
        ack: 0,
        max: 1,
        wait_ms: 0,
    };
    match pc.call(&poll).unwrap() {
        Response::Err { code, .. } => assert_eq!(code, ErrCode::ReadOnly),
        other => panic!("a newer-epoch poll must fence the ex-primary: {other:?}"),
    }
    match pc.insert(post.values().to_vec()) {
        Ok(Err(Response::Err { code, .. })) => assert_eq!(code, ErrCode::ReadOnly),
        other => panic!("the fenced ex-primary must refuse writes: {other:?}"),
    }
    assert_eq!(info_value(&mut pc, "fenced"), "true");

    for c in [pc, fc, gc] {
        c.quit().unwrap();
    }
    hp.shutdown();
    hf.shutdown();
    hg.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
