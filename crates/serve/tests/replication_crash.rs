//! Crash-point replication tests: kill the follower at every frame
//! boundary mid-stream and the primary mid-stream (same-epoch restart
//! and checkpoint/epoch-change restart), and assert the survivor
//! re-converges to the exact acked prefix — no gaps, no duplicates,
//! idempotent re-apply. All deterministic: the follower is stepped one
//! `poll_once` (one frame) at a time, never on a background thread.

use simquery::prelude::*;
use simserve::client::Client;
use simserve::protocol::Request;
use simserve::repl::{Follower, FollowerOpts};
use simserve::server::{serve, ServerConfig};
use simshard::ShardedIndex;
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
    let dir =
        std::env::temp_dir().join(format!("simserve_repl_crash_{name}_{}", std::process::id()));
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

/// Byte-level state equality: same ordinal space, same tombstone set,
/// same values per ordinal. Stronger than answer parity — a duplicated
/// or skipped frame cannot hide.
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

const FRAMES: u64 = 6;

/// Kill the (durable) follower at every frame boundary of a 6-frame
/// stream: after k applied frames, drop it, reopen its directories, and
/// let it catch up. Every run must land on the identical final state
/// with `applied == 6`, and one extra poll must be a no-op (idempotent
/// re-apply; no duplicates).
#[test]
fn follower_killed_at_every_frame_boundary_reconverges() {
    let root = fresh_dir("boundary");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 14, SEQ_LEN, 0xB0B);
    let seed = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    seed.save(&root.join("idx")).unwrap();

    let (shared_p, _) = open_durable(
        &root.join("idx"),
        &root.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();
    let hp = serve(shared_p.clone(), &test_config()).unwrap();
    let addr = hp.addr.to_string();
    let mut pc = Client::connect(hp.addr).unwrap();

    // Bootstrap one durable follower per crash point at the base state
    // (before any mutation), so the 6 mutations below all arrive as
    // streamed frames, never inside the snapshot cut.
    let opts_for = |k: u64| FollowerOpts {
        batch: 1,
        wait_ms: 0,
        state_dir: Some(root.join(format!("fwal{k}"))),
        ..Default::default()
    };
    let mut gen1: Vec<Follower> = (0..=FRAMES)
        .map(|k| {
            let fidx = root.join(format!("fidx{k}"));
            seed.save(&fidx).unwrap();
            let (shared_f, _) = open_durable(
                &fidx,
                &root.join(format!("fwal{k}")),
                POOL,
                FsyncPolicy::Always,
            )
            .unwrap();
            let mut f = Follower::connect(&addr, shared_f, opts_for(k)).unwrap();
            let installed = f.poll_once().unwrap();
            assert_eq!(installed, 14, "first poll transfers the base snapshot");
            f
        })
        .collect();

    // 6 mutations = LSNs 1..=6 (4 inserts, 2 deletes).
    let mut rng = SeededRng::seed_from_u64(0xFACE);
    for _ in 0..4 {
        pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
            .unwrap()
            .unwrap();
    }
    assert!(pc.delete(2).unwrap().unwrap());
    assert!(pc.delete(15).unwrap().unwrap());

    for k in 0..=FRAMES {
        let fidx = root.join(format!("fidx{k}"));
        let fwal = root.join(format!("fwal{k}"));

        // Generation 1: apply exactly k of the 6 frames (`batch: 1`
        // polls ship one each), then "crash" — drop the follower and
        // its index with no shutdown path.
        {
            let mut f = gen1.remove(0);
            for step in 0..k {
                assert_eq!(f.poll_once().unwrap(), 1, "k={k} step={step}");
            }
            assert_eq!(f.applied(), k, "k={k}");
        }

        // Generation 2: restart on the same directories and catch up.
        let (shared_f, rep) =
            retry_locked(|| open_durable(&fidx, &fwal, POOL, FsyncPolicy::Always));
        assert_eq!(
            rep.frames, k as usize,
            "k={k}: exactly the applied frames replay from the local log"
        );
        assert_eq!(shared_f.applied_lsn(), k, "k={k}: position recovered");
        let mut f = Follower::connect(&addr, shared_f.clone(), opts_for(k)).unwrap();
        drain(&mut f);
        assert_eq!(f.applied(), FRAMES, "k={k}");
        assert_eq!(
            f.stats()
                .snapshots
                .load(std::sync::atomic::Ordering::Relaxed),
            0,
            "k={k}: a same-epoch restart resumes by frames, not snapshot"
        );
        // Idempotence: one more poll ships nothing and changes nothing.
        assert_eq!(f.poll_once().unwrap(), 0, "k={k}");
        assert_eq!(f.applied(), FRAMES, "k={k}");
        assert_state_identical(&shared_p, &shared_f, &format!("k={k}"));
    }

    pc.quit().unwrap();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Kill the primary mid-stream. Case 1: it restarts on the same
/// directories (same epoch, WAL replays) — the follower re-dials and
/// resumes by frames from its exact position. Case 2: the restarted
/// primary checkpoints (new epoch, log reset) and keeps mutating — the
/// follower's handshake misses the epoch and it re-syncs via snapshot.
#[test]
fn primary_restart_mid_stream_same_epoch_then_epoch_change() {
    let root = fresh_dir("primary");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, SEQ_LEN, 0xABE);
    let seed = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    seed.save(&root.join("idx")).unwrap();
    seed.save(&root.join("fidx")).unwrap();
    drop(seed);
    let mut rng = SeededRng::seed_from_u64(0xDEAD);
    let fopts = FollowerOpts {
        batch: 1,
        wait_ms: 0,
        state_dir: Some(root.join("fwal")),
        ..Default::default()
    };

    let (shared_f, _) = open_durable(
        &root.join("fidx"),
        &root.join("fwal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();

    // Generation 1: 4 mutations; the follower applies only 2 of them
    // before the primary dies.
    let mut f = {
        let (shared_p, _) = open_durable(
            &root.join("idx"),
            &root.join("wal"),
            POOL,
            FsyncPolicy::Always,
        )
        .unwrap();
        let hp = serve(shared_p, &test_config()).unwrap();
        let mut pc = Client::connect(hp.addr).unwrap();
        for _ in 0..4 {
            pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
                .unwrap()
                .unwrap();
        }
        let mut f =
            Follower::connect(&hp.addr.to_string(), shared_f.clone(), fopts.clone()).unwrap();
        assert_eq!(
            f.poll_once().unwrap(),
            16,
            "snapshot covers the 4 mutations"
        );
        // The snapshot cut already covers the 4 mutations; stream two
        // *new* ones frame-by-frame, then crash the primary.
        pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
            .unwrap()
            .unwrap();
        assert!(pc.delete(4).unwrap().unwrap());
        assert_eq!(f.poll_once().unwrap(), 1);
        assert_eq!(f.applied(), 5);
        pc.quit().unwrap();
        hp.shutdown();
        f
    };
    // The acceptor is gone: severing the old connection and re-dialing
    // the dead address must surface as an error, not a hang. (The old
    // connection's handler thread may briefly outlive the shutdown; the
    // reconnect drops it first, which also releases the primary's
    // directory locks for the reopen below.)
    assert!(
        f.reconnect(None).is_err(),
        "re-dialing a dead primary must fail"
    );
    assert!(
        f.poll_once().is_err(),
        "polling without a connection must fail, not hang"
    );

    // Case 1: same directories, same epoch. The follower re-dials (new
    // ephemeral port) and resumes by frames — no snapshot re-install.
    let shared_p2 = {
        let (shared_p, rep) = retry_locked(|| {
            open_durable(
                &root.join("idx"),
                &root.join("wal"),
                POOL,
                FsyncPolicy::Always,
            )
        });
        assert_eq!(rep.frames, 6, "all acked mutations replay on the primary");
        shared_p
    };
    let hp2 = serve(shared_p2.clone(), &test_config()).unwrap();
    let snapshots_before = f
        .stats()
        .snapshots
        .load(std::sync::atomic::Ordering::Relaxed);
    f.reconnect(Some(&hp2.addr.to_string())).unwrap();
    drain(&mut f);
    assert_eq!(f.applied(), 6);
    assert_eq!(
        f.stats()
            .snapshots
            .load(std::sync::atomic::Ordering::Relaxed),
        snapshots_before,
        "same-epoch primary restart must resume by frames"
    );
    assert_state_identical(&shared_p2, &shared_f, "same-epoch restart");

    // Case 2: the primary checkpoints (epoch 2 resets the log) and
    // mutates again; the follower's old-epoch handshake forces a
    // snapshot re-sync that lands on the exact post-mutation state.
    let mut pc = Client::connect(hp2.addr).unwrap();
    assert_eq!(pc.checkpoint().unwrap().unwrap(), 2);
    pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
        .unwrap()
        .unwrap();
    assert!(pc.delete(0).unwrap().unwrap());
    drain(&mut f);
    assert_eq!(
        f.stats()
            .snapshots
            .load(std::sync::atomic::Ordering::Relaxed),
        snapshots_before + 1,
        "an epoch change re-handshakes through exactly one snapshot"
    );
    assert_state_identical(&shared_p2, &shared_f, "epoch-change restart");
    assert_eq!(
        f.stats().epoch.load(std::sync::atomic::Ordering::Relaxed),
        2,
        "the follower reports the primary's new epoch"
    );

    // And a durable follower restart after the epoch change still comes
    // back at the exact position (REPLICA floor + local log replay).
    drop(f);
    drop(shared_f);
    let (shared_f, _) = retry_locked(|| {
        open_durable(
            &root.join("fidx"),
            &root.join("fwal"),
            POOL,
            FsyncPolicy::Always,
        )
    });
    let mut f = Follower::connect(&hp2.addr.to_string(), shared_f.clone(), fopts).unwrap();
    assert_eq!(f.poll_once().unwrap(), 0, "nothing to re-ship");
    assert_state_identical(&shared_p2, &shared_f, "follower restart post-epoch-change");

    pc.quit().unwrap();
    hp2.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// A `--fsync never` primary crash must never diverge a follower: every
/// frame a follower has seen must survive the crash (the feeder fsyncs
/// before serving), so the lost tail is only ever frames nobody
/// received, and the same-epoch handshake after the restart resumes by
/// frames onto an identical timeline. The crash is simulated honestly:
/// the log file is truncated to exactly the fsynced prefix
/// (`wal_durable_bytes`) — what a real crash is guaranteed to keep.
#[test]
fn fsync_never_primary_crash_cannot_diverge_a_follower() {
    let root = fresh_dir("losttail");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 8, SEQ_LEN, 0x7A17);
    let seed = SeqIndex::build(&corpus, IndexConfig::default()).unwrap();
    seed.save(&root.join("idx")).unwrap();
    seed.save(&root.join("fidx")).unwrap();
    drop(seed);
    let mut rng = SeededRng::seed_from_u64(0x10557);
    let fopts = FollowerOpts {
        batch: 1,
        wait_ms: 0,
        state_dir: Some(root.join("fwal")),
        ..Default::default()
    };

    let (shared_f, _) = open_durable(
        &root.join("fidx"),
        &root.join("fwal"),
        POOL,
        FsyncPolicy::Always,
    )
    .unwrap();

    // Generation 1: a never-fsyncing primary ships 9 mutations to the
    // follower, then takes 2 more nobody polls — the crash-vulnerable
    // tail.
    let durable;
    let mut f = {
        let (shared_p, _) = open_durable(
            &root.join("idx"),
            &root.join("wal"),
            POOL,
            FsyncPolicy::Never,
        )
        .unwrap();
        let hp = serve(shared_p.clone(), &test_config()).unwrap();
        let mut pc = Client::connect(hp.addr).unwrap();
        let mut f = Follower::connect(&hp.addr.to_string(), shared_f.clone(), fopts).unwrap();
        assert_eq!(f.poll_once().unwrap(), 8, "bootstrap snapshot");
        for _ in 0..7 {
            pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
                .unwrap()
                .unwrap();
        }
        assert!(pc.delete(1).unwrap().unwrap());
        assert!(pc.delete(3).unwrap().unwrap());
        drain(&mut f);
        assert_eq!(f.applied(), 9, "the follower holds every shipped frame");
        for _ in 0..2 {
            pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
                .unwrap()
                .unwrap();
        }
        // Shipped implies durable; the unpolled tail is not, so the
        // simulated crash below cuts something real.
        durable = shared_p.wal_durable_bytes().unwrap();
        let written = std::fs::metadata(root.join("wal").join(simwal::LOG_FILE))
            .unwrap()
            .len();
        assert!(
            durable < written,
            "the unpolled tail must be sitting unsynced past the durable prefix"
        );
        pc.quit().unwrap();
        hp.shutdown();
        f
    };
    assert!(f.reconnect(None).is_err(), "the primary is down");

    // The crash: everything past the fsynced prefix is gone.
    std::fs::OpenOptions::new()
        .write(true)
        .open(root.join("wal").join(simwal::LOG_FILE))
        .unwrap()
        .set_len(durable)
        .unwrap();

    // Generation 2: the restarted primary replays exactly the shipped
    // frames — so its timeline still covers everything the follower
    // holds — then moves on, reusing the lost LSNs for new writes.
    let (shared_p2, rep) = retry_locked(|| {
        open_durable(
            &root.join("idx"),
            &root.join("wal"),
            POOL,
            FsyncPolicy::Never,
        )
    });
    assert_eq!(
        rep.frames, 9,
        "every frame the follower received survives the crash"
    );
    let hp2 = serve(shared_p2.clone(), &test_config()).unwrap();
    let mut pc = Client::connect(hp2.addr).unwrap();
    // Regrow well past the follower's resume position (LSN 10) so a
    // regressed feeder would stream the reused LSNs as a divergent
    // timeline instead of forcing a snapshot.
    for _ in 0..10 {
        pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
            .unwrap()
            .unwrap();
    }
    f.reconnect(Some(&hp2.addr.to_string())).unwrap();
    drain(&mut f);
    assert_eq!(f.applied(), 19, "9 shipped pre-crash + 10 post-restart");
    assert_eq!(
        f.stats()
            .snapshots
            .load(std::sync::atomic::Ordering::Relaxed),
        1,
        "only the bootstrap snapshot: the same-epoch restart resumes by frames"
    );
    assert_state_identical(&shared_p2, &shared_f, "fsync-never lost-tail restart");

    pc.quit().unwrap();
    hp2.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// Pointing a durable directory that used to be a *standalone primary*
/// at `--replicate-from` must not resume streaming from its local LSNs
/// (they are unrelated to the new primary's timeline): without a
/// REPLICA state file the follower is unsynced and bootstraps via
/// snapshot, after which it streams normally.
#[test]
fn ex_standalone_primary_directory_bootstraps_via_snapshot() {
    let root = fresh_dir("expri");
    let mut rng = SeededRng::seed_from_u64(0xE19);

    // The real primary: 10 seed series + 3 inserts (LSNs 1..=3).
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 10, SEQ_LEN, 0xAAA);
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
    let hp = serve(shared_p.clone(), &test_config()).unwrap();
    let mut pc = Client::connect(hp.addr).unwrap();
    for _ in 0..3 {
        pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
            .unwrap()
            .unwrap();
    }

    // An unrelated standalone primary on its own directories: different
    // corpus, 2 local mutations (LSNs 1..=2 on *its* timeline), then a
    // clean shutdown. No REPLICA file is ever written here.
    let corpus_b = Corpus::generate(CorpusKind::SyntheticWalks, 6, SEQ_LEN, 0xBBB);
    SeqIndex::build(&corpus_b, IndexConfig::default())
        .unwrap()
        .save(&root.join("fidx"))
        .unwrap();
    {
        let (shared_s, _) = open_durable(
            &root.join("fidx"),
            &root.join("fwal"),
            POOL,
            FsyncPolicy::Always,
        )
        .unwrap();
        let hs = serve(shared_s, &test_config()).unwrap();
        let mut sc = Client::connect(hs.addr).unwrap();
        for _ in 0..2 {
            sc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
                .unwrap()
                .unwrap();
        }
        sc.quit().unwrap();
        hs.shutdown();
    }

    // Repoint the ex-primary's directories at the real primary. Its
    // replayed local log leaves applied_lsn=2, but with no REPLICA file
    // that must not count as synced.
    let (shared_f, rep) = retry_locked(|| {
        open_durable(
            &root.join("fidx"),
            &root.join("fwal"),
            POOL,
            FsyncPolicy::Always,
        )
    });
    assert_eq!(rep.frames, 2, "the unrelated local log replays");
    assert_eq!(shared_f.applied_lsn(), 2);
    let fopts = FollowerOpts {
        batch: 1,
        wait_ms: 0,
        state_dir: Some(root.join("fwal")),
        ..Default::default()
    };
    let mut f = Follower::connect(&hp.addr.to_string(), shared_f.clone(), fopts).unwrap();
    assert_eq!(
        f.poll_once().unwrap(),
        13,
        "first poll transfers the full snapshot, not frames at unrelated ordinals"
    );
    assert_eq!(
        f.stats()
            .snapshots
            .load(std::sync::atomic::Ordering::Relaxed),
        1
    );
    assert_state_identical(&shared_p, &shared_f, "ex-primary repointed");

    // And it streams normally from there.
    pc.insert(random_walk(&mut rng, SEQ_LEN, 50.0).values().to_vec())
        .unwrap()
        .unwrap();
    drain(&mut f);
    assert_eq!(f.applied(), 4);
    assert_state_identical(&shared_p, &shared_f, "ex-primary streams after re-sync");

    pc.quit().unwrap();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}

/// The reserved `from=0` bootstrap sentinel always answers with a
/// snapshot — even when a stale client claims the current epoch.
#[test]
fn from_zero_always_snapshots() {
    let root = fresh_dir("fromzero");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 8, SEQ_LEN, 0x0F0);
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
    let hp = serve(shared_p, &test_config()).unwrap();
    let mut c = Client::connect(hp.addr).unwrap();
    let resp = c
        .call(&Request::Repl {
            epoch: 1,
            from: 0,
            ack: 0,
            max: 0,
            wait_ms: 0,
        })
        .unwrap();
    match resp {
        simserve::protocol::Response::ReplSnapshot {
            epoch,
            next,
            entries,
            ..
        } => {
            assert_eq!(epoch, 1);
            assert_eq!(next, 1);
            assert_eq!(entries.len(), 8);
        }
        other => panic!("expected a snapshot for from=0, got {other:?}"),
    }
    c.quit().unwrap();
    hp.shutdown();
    let _ = std::fs::remove_dir_all(&root);
}
