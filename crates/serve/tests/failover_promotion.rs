//! Deterministic failover tests: kill the primary at every replication
//! frame boundary, `PROMOTE` a follower that holds exactly that acked
//! prefix, and assert (a) no LSN-acked write is lost, (b) the fenced
//! ex-primary rejects writes and re-syncs byte-identically onto the new
//! timeline. The follower is stepped one `poll_once` at a time, never on
//! a background thread, so every run replays the same schedule.

use simquery::prelude::*;
use simquery::shared::SharedIndex;
use simserve::client::Client;
use simserve::protocol::{ErrCode, Request, Response};
use simserve::repl::{Follower, FollowerOpts};
use simserve::server::{serve, serve_with, ServerConfig};
use simshard::ShardedIndex;
use simwal::FsyncPolicy;
use std::path::PathBuf;
use std::sync::Arc;
use tseries::random_walk;
use tseries::rng::SeededRng;
use tseries::TimeSeries;

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
const FRAMES: u64 = 6;

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
    let dir = std::env::temp_dir().join(format!("simserve_failover_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reopens survive the short window where a shut-down server's
/// connection threads still hold the directory `LOCK`.
fn retry_locked<T, E: std::fmt::Display>(mut open: impl FnMut() -> Result<T, E>) -> T {
    let mut last = None;
    for _ in 0..500 {
        match open() {
            Ok(v) => return v,
            Err(e) if e.to_string().contains("locked") => {
                last = Some(e);
                std::thread::sleep(std::time::Duration::from_millis(10));
            }
            Err(e) => panic!("open failed: {e}"),
        }
    }
    panic!("open kept failing after 5s: {}", last.unwrap());
}

/// Byte-level state equality (same shape as the replication suite):
/// identical ordinal space, tombstones, and values per ordinal.
fn assert_state_identical(a: &ShardedIndex, b: &ShardedIndex, ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: ordinal space diverged");
    assert_eq!(a.seq_len(), b.seq_len(), "{ctx}");
    assert_eq!(
        a.deleted_ordinals(),
        b.deleted_ordinals(),
        "{ctx}: tombstone sets diverged"
    );
    for ord in 0..a.len() {
        assert_eq!(
            a.fetch_series(ord).unwrap().values(),
            b.fetch_series(ord).unwrap().values(),
            "{ctx}: values diverged at ordinal {ord}"
        );
    }
}

fn drain(follower: &mut Follower) {
    for _ in 0..1000 {
        if follower.poll_once().unwrap() == 0 && follower.lag() == 0 {
            return;
        }
    }
    panic!("follower failed to drain");
}

/// One acked mutation on the primary's timeline.
#[derive(Clone)]
enum Mutation {
    Insert(TimeSeries),
    Delete(usize),
}

/// For every `k` in `0..=FRAMES`: a follower that has acked exactly `k`
/// of the primary's 6 mutations is promoted (the primary is "killed" —
/// partitioned away from clients). The promoted node must (a) hold the
/// exact acked prefix (checked against an in-memory oracle that applied
/// the same first `k` mutations), (b) accept new writes at a strictly
/// higher epoch, and (c) fence + re-sync the ex-primary byte-identically.
#[test]
fn promote_at_every_frame_boundary_loses_no_acked_write() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 10, SEQ_LEN, 0xFA11);
    let seed = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();

    // The mutation schedule, generated once so every k replays it.
    let mut rng = SeededRng::seed_from_u64(0xFA110E5);
    let mutations: Vec<Mutation> = (0..4)
        .map(|_| Mutation::Insert(random_walk(&mut rng, SEQ_LEN, 50.0)))
        .chain([Mutation::Delete(2), Mutation::Delete(7)])
        .collect();
    assert_eq!(mutations.len() as u64, FRAMES);

    for k in 0..=FRAMES {
        let root = fresh_dir(&format!("boundary{k}"));
        seed.save(&root.join("idx")).unwrap();
        seed.save(&root.join("fidx")).unwrap();

        // The primary serves the full 6-mutation timeline at epoch 1.
        let (shared_p, _) = open_durable(
            &root.join("idx"),
            &root.join("wal"),
            POOL,
            FsyncPolicy::Always,
        )
        .unwrap();
        let hp = serve(shared_p.clone(), &test_config()).unwrap();
        let mut pc = Client::connect(hp.addr).unwrap();

        // The follower bootstraps at the base state so all 6 mutations
        // arrive as streamed frames, then acks exactly k of them.
        let (shared_f, _) = open_durable(
            &root.join("fidx"),
            &root.join("fwal"),
            POOL,
            FsyncPolicy::Always,
        )
        .unwrap();
        let mut f = Follower::connect(
            &hp.addr.to_string(),
            shared_f.clone(),
            FollowerOpts {
                batch: 1,
                wait_ms: 0,
                state_dir: Some(root.join("fwal")),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(f.poll_once().unwrap(), 10, "base snapshot");

        // The oracle applies the same first k mutations in-memory —
        // the exact state the promotion contract must preserve.
        let oracle = ShardedIndex::from_shared(SharedIndex::new(
            SeqIndex::build(&corpus, IndexConfig::default()).unwrap(),
        ));
        for m in mutations.iter() {
            match m {
                Mutation::Insert(ts) => {
                    pc.insert(ts.values().to_vec()).unwrap().unwrap();
                }
                Mutation::Delete(ord) => {
                    assert!(pc.delete(*ord).unwrap().unwrap());
                }
            }
        }
        for (step, m) in mutations.iter().take(k as usize).enumerate() {
            assert_eq!(f.poll_once().unwrap(), 1, "k={k} step={step}");
            match m {
                Mutation::Insert(ts) => {
                    oracle.insert_series(ts).unwrap();
                }
                Mutation::Delete(ord) => {
                    assert!(oracle.delete_series(*ord).unwrap());
                }
            }
        }
        assert_eq!(f.applied(), k, "k={k}");
        let stats = f.stats();
        drop(f); // stepped inline; no background loop to halt

        // Serve the follower and PROMOTE it over the wire.
        let hf = serve_with(shared_f.clone(), &test_config(), Some(stats)).unwrap();
        let mut fc = Client::connect(hf.addr).unwrap();
        let insert_on = |c: &mut Client, ts: &TimeSeries| c.insert(ts.values().to_vec()).unwrap();
        assert!(
            matches!(
                insert_on(&mut fc, &random_walk(&mut rng, SEQ_LEN, 50.0)),
                Err(Response::Err {
                    code: ErrCode::ReadOnly,
                    ..
                })
            ),
            "k={k}: a follower must refuse writes before promotion"
        );
        let new_epoch = fc.promote().unwrap().unwrap();
        assert!(
            new_epoch >= 2,
            "k={k}: the promoted epoch ({new_epoch}) must exceed the primary's"
        );

        // (a) No acked write lost: the promoted state is exactly the
        // acked prefix.
        assert_state_identical(&shared_f, &oracle, &format!("k={k}: acked prefix"));
        assert!(!shared_f.is_fenced(), "k={k}: fence==epoch means writable");

        // The promoted node accepts writes on its new timeline.
        let post = random_walk(&mut rng, SEQ_LEN, 50.0);
        let ord = insert_on(&mut fc, &post).unwrap();
        oracle.insert_series(&post).unwrap();
        assert_eq!(
            shared_f.fetch_series(ord).unwrap().values(),
            post.values(),
            "k={k}: post-promotion write landed"
        );
        let info = fc.info().unwrap().unwrap();
        let get = |key: &str| {
            info.iter()
                .find(|(kk, _)| kk == key)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        assert_eq!(get("role"), "primary", "k={k}");
        assert_eq!(get("fenced"), "false", "k={k}");
        assert_eq!(get("wal_epoch"), new_epoch.to_string(), "k={k}");

        // (b) The ex-primary fences itself the moment a higher-epoch
        // REPL handshake arrives — in-band demotion, never a snapshot.
        let resp = pc
            .call(&Request::Repl {
                epoch: new_epoch,
                from: 1,
                ack: 0,
                max: 0,
                wait_ms: 0,
            })
            .unwrap();
        assert!(
            matches!(
                resp,
                Response::Err {
                    code: ErrCode::ReadOnly,
                    ..
                }
            ),
            "k={k}: higher-epoch poll must demote, got {resp:?}"
        );
        assert!(
            matches!(
                insert_on(&mut pc, &random_walk(&mut rng, SEQ_LEN, 50.0)),
                Err(Response::Err {
                    code: ErrCode::ReadOnly,
                    ..
                })
            ),
            "k={k}: the fenced ex-primary must reject writes"
        );
        let pinfo = pc.info().unwrap().unwrap();
        assert!(
            pinfo.iter().any(|(kk, v)| kk == "fenced" && v == "true"),
            "k={k}: INFO must report the fence"
        );

        // The fence survives a restart: reopen the ex-primary's
        // directories and re-sync it as a follower of the new primary.
        pc.quit().unwrap();
        hp.shutdown();
        drop(shared_p);
        let (shared_p2, _) = retry_locked(|| {
            open_durable(
                &root.join("idx"),
                &root.join("wal"),
                POOL,
                FsyncPolicy::Always,
            )
        });
        assert!(
            shared_p2.is_fenced(),
            "k={k}: the fence must persist across restart"
        );
        assert_eq!(shared_p2.fence(), new_epoch, "k={k}");
        assert!(
            shared_p2
                .insert_series(&random_walk(&mut rng, SEQ_LEN, 50.0))
                .is_err(),
            "k={k}: still fenced after reopen"
        );
        let mut ex = Follower::connect(
            &hf.addr.to_string(),
            shared_p2.clone(),
            FollowerOpts {
                batch: 1,
                wait_ms: 0,
                state_dir: Some(root.join("wal")),
                ..Default::default()
            },
        )
        .unwrap();
        drain(&mut ex);
        assert_state_identical(&shared_f, &shared_p2, &format!("k={k}: ex-primary re-sync"));
        assert!(
            !shared_p2.is_fenced(),
            "k={k}: installing the new timeline clears the fence"
        );

        fc.quit().unwrap();
        hf.shutdown();
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// `PROMOTE` is a follower-only verb: a standalone primary rejects it,
/// and a second PROMOTE on an already-promoted node rejects too. The
/// failover observability counters move exactly once.
#[test]
fn promote_rejects_non_followers_and_counts_once() {
    let root = fresh_dir("reject");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 8, SEQ_LEN, 0x9E9);
    let seed = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    seed.save(&root.join("idx")).unwrap();
    seed.save(&root.join("fidx")).unwrap();

    let (shared_p, _) = open_durable(
        &root.join("idx"),
        &root.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let hp = serve(shared_p.clone(), &test_config()).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();
    assert!(
        matches!(
            pc.promote().unwrap(),
            Err(Response::Err {
                code: ErrCode::Query,
                ..
            })
        ),
        "a standalone primary must reject PROMOTE"
    );
    let plines = pc.metrics().unwrap().unwrap();
    assert!(
        plines.iter().any(|l| l == "simseq_role 1"),
        "a primary exposes simseq_role 1: {plines:?}"
    );

    let (shared_f, _) = open_durable(
        &root.join("fidx"),
        &root.join("fwal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let mut f = Follower::connect(
        &hp.addr.to_string(),
        shared_f.clone(),
        FollowerOpts {
            batch: 1,
            wait_ms: 0,
            state_dir: Some(root.join("fwal")),
            ..Default::default()
        },
    )
    .unwrap();
    assert_eq!(f.poll_once().unwrap(), 8);
    let stats = f.stats();
    drop(f);
    let hf = serve_with(shared_f.clone(), &test_config(), Some(stats)).unwrap();
    let mut fc = Client::connect(hf.addr).unwrap();

    let flines = fc.metrics().unwrap().unwrap();
    assert!(
        flines.iter().any(|l| l == "simseq_role 0"),
        "a follower exposes simseq_role 0: {flines:?}"
    );

    let epoch = fc.promote().unwrap().unwrap();
    assert!(epoch >= 2);
    assert!(
        matches!(
            fc.promote().unwrap(),
            Err(Response::Err {
                code: ErrCode::Query,
                ..
            })
        ),
        "a second PROMOTE must be rejected"
    );

    let lines = fc.metrics().unwrap().unwrap();
    let has = |line: String| lines.contains(&line);
    assert!(
        has("simseq_role 1".into()),
        "promoted role gauge: {lines:?}"
    );
    assert!(
        has("simseq_promotions_total 1".into()),
        "exactly one promotion: {lines:?}"
    );
    assert!(
        has(format!("simseq_fence_epoch {epoch}")),
        "fence epoch gauge: {lines:?}"
    );
    assert!(
        has("simseq_fenced 0".into()),
        "promoted node is writable: {lines:?}"
    );

    pc.quit().unwrap();
    fc.quit().unwrap();
    hp.shutdown();
    hf.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
