//! Seeded crash-point recovery suite: cut the write-ahead log at **every
//! byte offset**, recover, and assert the index is an **exact prefix** of
//! the acknowledged mutation schedule — never a wrong answer, never a
//! panic. Covers the single-index layout and 1/2/4/8-shard layouts (every
//! node writes one log, whatever its shard count), half-finished
//! checkpoints, fault plans armed while replay itself runs, and the
//! advisory directory locks.

use pagestore::{Disk, FaultPlan, FaultyDisk, PageDevice, PlanParams};
use simquery::index::{DeviceWrap, IndexConfig, SeqIndex};
use simquery::prelude::*;
use simquery::report::QueryError;
use simshard::{gather, PartitionerKind, ShardConfig, ShardError, ShardedIndex};
use simwal::{decode_frames, FsyncPolicy, HEADER_LEN, LOG_FILE, MANIFEST_FILE};
use std::collections::HashSet;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use tseries::random_walk;
use tseries::rng::SeededRng;

const SEQ_LEN: usize = 16;
const POOL: usize = 32;

/// Channel for the faulted devices installed by a `DeviceWrap` hook.
type SmuggledDisks = Arc<Mutex<Option<(Arc<FaultyDisk>, Arc<FaultyDisk>)>>>;

fn fresh_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("simseq_recovery_{name}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Recursive copy that skips advisory `LOCK` files — a copied lock would
/// name this very process as the live owner and block every reopen.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        let to = dst.join(entry.file_name());
        if entry.file_type().unwrap().is_dir() {
            copy_dir(&entry.path(), &to);
        } else if entry.file_name() != "LOCK" {
            std::fs::copy(entry.path(), &to).unwrap();
        }
    }
}

/// Round-robin keeps every shard non-empty on small corpora and spreads
/// the schedule's frames across all the shards.
fn rr_config(shards: usize) -> ShardConfig {
    ShardConfig {
        shards,
        partitioner: PartitionerKind::RoundRobin,
    }
    .validated()
    .unwrap()
}

/// One acknowledged mutation of the scripted schedule.
#[derive(Clone)]
enum Op {
    Insert(Vec<f64>),
    Delete(usize),
}

/// A seeded schedule that never deletes a dead ordinal, so every op logs
/// exactly one WAL frame: op `j` carries LSN `j + 1`.
fn schedule(seed: u64, initial: usize, n_ops: usize) -> Vec<Op> {
    let mut rng = SeededRng::seed_from_u64(seed);
    let mut live: Vec<usize> = (0..initial).collect();
    let mut next = initial;
    let mut ops = Vec::new();
    for _ in 0..n_ops {
        if rng.random_range(0u32..4) == 0 && live.len() > 1 {
            let pick = rng.random_range(0..live.len());
            ops.push(Op::Delete(live.swap_remove(pick)));
        } else {
            let ts = random_walk(&mut rng, SEQ_LEN, 100.0);
            ops.push(Op::Insert(ts.values().to_vec()));
            live.push(next);
            next += 1;
        }
    }
    ops
}

/// Ground truth after a prefix of the schedule: `(values, alive)` per
/// global ordinal.
fn shadow_after(corpus: &Corpus, ops: &[Op]) -> Vec<(Vec<f64>, bool)> {
    let mut state: Vec<(Vec<f64>, bool)> = corpus
        .series()
        .iter()
        .map(|ts| (ts.values().to_vec(), true))
        .collect();
    for op in ops {
        match op {
            Op::Insert(v) => state.push((v.clone(), true)),
            Op::Delete(g) => state[*g].1 = false,
        }
    }
    state
}

fn assert_single_state(index: &SeqIndex, want: &[(Vec<f64>, bool)], ctx: &str) {
    assert_eq!(index.len(), want.len(), "{ctx}: sequence count");
    let dead: HashSet<usize> = index.deleted_ordinals().into_iter().collect();
    for (g, (values, alive)) in want.iter().enumerate() {
        assert_eq!(!dead.contains(&g), *alive, "{ctx}: tombstone of {g}");
        if *alive {
            let got = index
                .fetch_series(g)
                .unwrap_or_else(|e| panic!("{ctx}: fetch {g}: {e}"));
            assert_eq!(got.values(), &values[..], "{ctx}: values of {g}");
        }
    }
}

fn assert_sharded_state(ix: &ShardedIndex, want: &[(Vec<f64>, bool)], ctx: &str) {
    assert_eq!(ix.len(), want.len(), "{ctx}: sequence count");
    let map = ix.map_snapshot();
    let mut dead = HashSet::new();
    for (s, shared) in ix.shards().iter().enumerate() {
        for l in shared.read().deleted_ordinals() {
            dead.insert(map.globals_of(s)[l]);
        }
    }
    for (g, (values, alive)) in want.iter().enumerate() {
        assert_eq!(!dead.contains(&g), *alive, "{ctx}: tombstone of {g}");
        if *alive {
            let got = ix
                .fetch_series(g)
                .unwrap_or_else(|e| panic!("{ctx}: fetch {g}: {e}"));
            assert_eq!(got.values(), &values[..], "{ctx}: values of {g}");
        }
    }
}

fn apply_sharded(ix: &ShardedIndex, ops: &[Op]) {
    for op in ops {
        match op {
            Op::Insert(v) => {
                ix.insert_series(&TimeSeries::new(v.clone())).unwrap();
            }
            Op::Delete(g) => assert!(ix.delete_series(*g).unwrap()),
        }
    }
}

/// Cuts the single index's log at every byte offset; the recovered index
/// must hold exactly the frames that survive intact below the cut.
#[test]
fn single_index_recovers_exact_prefix_at_every_cut() {
    let root = fresh_dir("single_cut");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 6, SEQ_LEN, 0xD0C);
    SeqIndex::build(&corpus, IndexConfig::default())
        .expect("non-empty corpus")
        .save(&idx)
        .unwrap();

    let ops = schedule(0xBEEF, 6, 10);
    {
        let (shared, rep) =
            ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Never).expect("clean open");
        assert_eq!(rep.frames, 0);
        assert!(shared.is_durable());
        assert_eq!(shared.wal_epoch(), Some(1));
        apply_sharded(&shared, &ops);
        assert!(shared.sync_wal().unwrap());
    }
    let log = std::fs::read(wal.join(LOG_FILE)).unwrap();
    assert!(log.len() as u64 > HEADER_LEN, "schedule produced no frames");

    for cut in 0..=log.len() {
        let case = root.join(format!("cut{cut}"));
        copy_dir(&idx, &case.join("idx"));
        std::fs::create_dir_all(case.join("wal")).unwrap();
        std::fs::write(case.join("wal").join(LOG_FILE), &log[..cut]).unwrap();
        std::fs::copy(
            wal.join(MANIFEST_FILE),
            case.join("wal").join(MANIFEST_FILE),
        )
        .unwrap();

        // A cut inside the 16-byte header reads as a fresh, empty log.
        let expect = if cut <= HEADER_LEN as usize {
            0
        } else {
            decode_frames(&log[HEADER_LEN as usize..cut]).0.len()
        };
        let (shared, rep) = ShardedIndex::open_durable(
            &case.join("idx"),
            &case.join("wal"),
            POOL,
            FsyncPolicy::Never,
        )
        .unwrap_or_else(|e| panic!("cut {cut}: recovery errored: {e}"));
        assert_eq!(rep.frames, expect, "cut {cut}: replayed frame count");
        assert_single_state(
            &shared.shards()[0].read(),
            &shadow_after(&corpus, &ops[..expect]),
            &format!("cut {cut}"),
        );
        drop(shared);
        std::fs::remove_dir_all(&case).unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// For 1/2/4/8 shards: cut the node's one log at every byte offset. The
/// recovered index must hold exactly the schedule prefix whose frames
/// survive intact below the cut, placed on the same shards.
#[test]
fn sharded_recovers_exact_prefix_at_every_cut() {
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, SEQ_LEN, 0x5EED);
    let n_ops = 8usize;
    for shards in [1usize, 2, 4, 8] {
        let root = fresh_dir(&format!("shard{shards}_cut"));
        let idx = root.join("idx");
        let wal = root.join("wal");
        ShardedIndex::build(&corpus, rr_config(shards), IndexConfig::default())
            .expect("buildable corpus")
            .save(&idx)
            .unwrap();

        let ops = schedule(0xAB0 + shards as u64, 12, n_ops);
        {
            let (ix, rec) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Never)
                .expect("clean open");
            assert_eq!(rec.frames, 0);
            apply_sharded(&ix, &ops);
            assert!(ix.sync_wal().unwrap());
        }
        let log = std::fs::read(wal.join(LOG_FILE)).unwrap();
        assert_eq!(
            decode_frames(&log[HEADER_LEN as usize..]).0.len(),
            n_ops,
            "{shards} shards: every mutation is one frame of the one log"
        );

        for cut in 0..=log.len() {
            let case = root.join(format!("cut{cut}"));
            copy_dir(&idx, &case.join("idx"));
            copy_dir(&wal, &case.join("wal"));
            std::fs::write(case.join("wal").join(LOG_FILE), &log[..cut]).unwrap();

            // A cut inside the 16-byte header reads as a fresh, empty log.
            let expect = if cut <= HEADER_LEN as usize {
                0
            } else {
                decode_frames(&log[HEADER_LEN as usize..cut]).0.len()
            };
            let ctx = format!("cut {cut} of the {shards}-shard log");
            let (ix, rec) = ShardedIndex::open_durable(
                &case.join("idx"),
                &case.join("wal"),
                POOL,
                FsyncPolicy::Never,
            )
            .unwrap_or_else(|e| panic!("{ctx}: recovery errored: {e}"));
            assert_eq!(rec.frames, expect, "{ctx}: replayed frame count");
            assert_sharded_state(&ix, &shadow_after(&corpus, &ops[..expect]), &ctx);
            drop(ix);
            std::fs::remove_dir_all(&case).unwrap();
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

/// A crash after every shard snapshot was checkpointed but before the
/// manifest bump: an epoch-1 manifest and epoch-1 logs over epoch-2 shard
/// snapshots. Replay must be idempotent — skip frames the snapshots
/// already hold, re-extend the global map — and land on exactly the
/// pre-crash state.
#[test]
fn sharded_half_checkpoint_replays_idempotently() {
    let root = fresh_dir("half_ckpt");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 10, SEQ_LEN, 0xCAFE);
    ShardedIndex::build(&corpus, rr_config(4), IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();

    let ops = schedule(0x51AB, 10, 12);
    {
        let (ix, _) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
        apply_sharded(&ix, &ops);
    }
    // Pre-checkpoint image: epoch-1 manifest + full logs.
    let pre = root.join("pre");
    copy_dir(&idx, &pre.join("idx"));
    copy_dir(&wal, &pre.join("wal"));

    // Run the checkpoint for real, then compose the torn state: the
    // checkpointed (epoch 2) shard snapshots under the OLD (epoch 1)
    // manifest and logs.
    {
        let (ix, _) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
        assert_eq!(ix.checkpoint().unwrap(), Some(2));
    }
    let torn = root.join("torn");
    copy_dir(&idx, &torn.join("idx")); // epoch-2 shard snapshots
    copy_dir(&pre.join("wal"), &torn.join("wal")); // epoch-1 logs
    std::fs::copy(
        pre.join("idx").join("sharding.txt"),
        torn.join("idx").join("sharding.txt"),
    )
    .unwrap();

    let (ix, rec) = ShardedIndex::open_durable(
        &torn.join("idx"),
        &torn.join("wal"),
        POOL,
        FsyncPolicy::Always,
    )
    .expect("half-checkpoint state recovers");
    assert_eq!(rec.epoch, 1, "the manifest is the epoch authority");
    assert_sharded_state(&ix, &shadow_after(&corpus, &ops), "half checkpoint");
    let _ = std::fs::remove_dir_all(&root);
}

/// Seeded fault plans armed on the page devices **while replay runs**:
/// every open either recovers (state exact wherever the device is
/// un-torn) or fails with a typed error — never a panic, never a wrong
/// answer.
#[test]
fn faulted_replay_is_typed_error_or_exact_result() {
    let root = fresh_dir("faulted_replay");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 8, SEQ_LEN, 0xFA11);
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();
    let ops = schedule(0xF00D, 8, 12);
    {
        let (shared, _) =
            ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
        apply_sharded(&shared, &ops);
    }
    let want = shadow_after(&corpus, &ops);
    let params = PlanParams {
        horizon: 150,
        max_page: 64,
        faults: 5,
    };

    let (mut oks, mut errs) = (0u64, 0u64);
    for seed in 0..60u64 {
        let case = root.join(format!("seed{seed}"));
        copy_dir(&idx, &case.join("idx"));
        copy_dir(&wal, &case.join("wal"));

        // Smuggle the device handles out of the one-shot wrap hook so a
        // successful open can be inspected with the plan disarmed.
        let handles: SmuggledDisks = Arc::new(Mutex::new(None));
        let sink = Arc::clone(&handles);
        let mut wrap: Option<DeviceWrap> = Some(Box::new(move |tree, heap| {
            let tree = Arc::new(FaultyDisk::new(tree));
            let heap = Arc::new(FaultyDisk::new(heap));
            tree.arm(FaultPlan::generate(seed, &params));
            heap.arm(FaultPlan::generate(seed ^ 0x9E37_79B9_7F4A_7C15, &params));
            *sink.lock().unwrap() = Some((Arc::clone(&tree), Arc::clone(&heap)));
            (tree as Arc<dyn PageDevice>, heap as Arc<dyn PageDevice>)
        }));

        match ShardedIndex::open_durable_with(
            &case.join("idx"),
            &case.join("wal"),
            POOL,
            FsyncPolicy::Never,
            |_| wrap.take(),
        ) {
            Ok((shared, rep)) => {
                assert_eq!(rep.frames, ops.len(), "seed {seed}: full replay");
                let (tree, heap) = handles.lock().unwrap().take().expect("wrap hook ran");
                tree.disarm();
                heap.disarm();
                let torn = !tree.torn_pages().is_empty() || !heap.torn_pages().is_empty();
                if !torn {
                    // Every write landed intact: state must be exact.
                    assert_single_state(&shared.shards()[0].read(), &want, &format!("seed {seed}"));
                    oks += 1;
                } else {
                    // Torn pages surface as typed errors on read; pages
                    // that read back must still be exact.
                    let index = shared.shards()[0].read();
                    assert_eq!(index.len(), want.len(), "seed {seed}: sequence count");
                    for (g, (values, alive)) in want.iter().enumerate() {
                        if !alive {
                            continue;
                        }
                        if let Ok(got) = index.fetch_series(g) {
                            assert_eq!(
                                got.values(),
                                &values[..],
                                "seed {seed}: torn-device fetch of {g} returned a WRONG ANSWER"
                            );
                        }
                    }
                    oks += 1;
                }
            }
            Err(
                ShardError::Page(_)
                | ShardError::Wal(_)
                | ShardError::Io(_)
                | ShardError::Config(_)
                | ShardError::EmptyCorpus
                | ShardError::EmptyShard(_)
                | ShardError::PerShardWal(_),
            ) => errs += 1,
        }
        std::fs::remove_dir_all(&case).unwrap();
    }
    assert!(
        oks > 0,
        "no fault schedule let replay finish ({errs} errors)"
    );
    assert!(errs > 0, "no fault schedule ever fired during replay");
    let _ = std::fs::remove_dir_all(&root);
}

/// The sharded variant: a fault plan armed on ONE shard's devices during
/// a durable open. A faulted open never checkpoints, so the frames stay in
/// the log and a later clean open still recovers the full prefix.
#[test]
fn sharded_faulted_replay_keeps_logs_for_the_next_open() {
    let root = fresh_dir("sharded_faulted_replay");
    let idx = root.join("idx");
    let wal = root.join("wal");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 12, SEQ_LEN, 0x0DDB);
    ShardedIndex::build(&corpus, rr_config(4), IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();
    let ops = schedule(0x7EA5, 12, 10);
    {
        let (ix, _) = ShardedIndex::open_durable(&idx, &wal, POOL, FsyncPolicy::Always).unwrap();
        apply_sharded(&ix, &ops);
    }
    let want = shadow_after(&corpus, &ops);
    let params = PlanParams {
        horizon: 150,
        max_page: 64,
        faults: 5,
    };

    let (mut oks, mut errs) = (0u64, 0u64);
    for seed in 0..40u64 {
        let case = root.join(format!("seed{seed}"));
        copy_dir(&idx, &case.join("idx"));
        copy_dir(&wal, &case.join("wal"));

        let torn_flag = Arc::new(Mutex::new(Vec::<Arc<FaultyDisk>>::new()));
        let sink = Arc::clone(&torn_flag);
        let result = ShardedIndex::open_durable_with(
            &case.join("idx"),
            &case.join("wal"),
            POOL,
            FsyncPolicy::Never,
            |shard| {
                if shard != 1 {
                    return None;
                }
                let sink = Arc::clone(&sink);
                Some(Box::new(move |tree: Arc<Disk>, heap: Arc<Disk>| {
                    let tree = Arc::new(FaultyDisk::new(tree));
                    let heap = Arc::new(FaultyDisk::new(heap));
                    tree.arm(FaultPlan::generate(seed, &params));
                    heap.arm(FaultPlan::generate(seed.rotate_left(17), &params));
                    sink.lock()
                        .unwrap()
                        .extend([Arc::clone(&tree), Arc::clone(&heap)]);
                    (tree as Arc<dyn PageDevice>, heap as Arc<dyn PageDevice>)
                }) as DeviceWrap)
            },
        );
        match result {
            Ok((ix, rec)) => {
                assert_eq!(rec.frames, ops.len(), "seed {seed}: full replay");
                let devices = std::mem::take(&mut *torn_flag.lock().unwrap());
                for d in &devices {
                    d.disarm();
                }
                if devices.iter().all(|d| d.torn_pages().is_empty()) {
                    assert_sharded_state(&ix, &want, &format!("seed {seed}"));
                }
                oks += 1;
            }
            Err(_) => {
                errs += 1;
                // The faulted open must not have checkpointed: a clean
                // open right after still recovers the full schedule.
                let (ix, rec) = ShardedIndex::open_durable(
                    &case.join("idx"),
                    &case.join("wal"),
                    POOL,
                    FsyncPolicy::Never,
                )
                .unwrap_or_else(|e| panic!("seed {seed}: clean reopen errored: {e}"));
                assert_eq!(rec.frames, ops.len(), "seed {seed}: logs were preserved");
                assert_sharded_state(&ix, &want, &format!("seed {seed} reopen"));
            }
        }
        std::fs::remove_dir_all(&case).unwrap();
    }
    assert!(
        oks > 0,
        "no fault schedule let replay finish ({errs} errors)"
    );
    assert!(errs > 0, "no fault schedule ever fired during replay");
    let _ = std::fs::remove_dir_all(&root);
}

/// Parity satellite for the PR-2 chaos contract: a *saved sharded index*
/// reopened with a fault plan armed on one shard answers every scatter-
/// gather query with the exact result or a typed IO error.
#[test]
fn sharded_reopen_under_faults_is_typed_or_exact() {
    let root = fresh_dir("sharded_faulted_open");
    let idx = root.join("idx");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 24, SEQ_LEN, 0xFEED);
    ShardedIndex::build(&corpus, rr_config(4), IndexConfig::default())
        .unwrap()
        .save(&idx)
        .unwrap();

    let family = Family::moving_averages(2..=6, SEQ_LEN);
    let spec = RangeSpec::correlation(0.9).with_policy(FilterPolicy::Safe);
    let lq = LogicalQuery::range(family, spec).with_engine(EnginePref::Force(EngineChoice::Mt));
    let q = corpus.series()[3].clone();
    let control = {
        let ix = ShardedIndex::open(&idx, POOL).unwrap();
        gather::execute_range(&ix, &lq, &q)
            .unwrap()
            .1
            .sorted_pairs()
    };

    // A two-frame pool keeps the queries reaching the device instead of
    // living in the cache, and the short horizon keeps the generated
    // triggers inside the handful of accesses one gather performs.
    let params = PlanParams {
        horizon: 12,
        max_page: 64,
        faults: 4,
    };
    let (mut oks, mut errs) = (0u64, 0u64);
    for seed in 0..40u64 {
        let ix = ShardedIndex::open_with(&idx, 2, |shard| {
            (shard == 1).then(|| -> DeviceWrap {
                Box::new(move |tree, heap| {
                    let tree = Arc::new(FaultyDisk::new(tree));
                    let heap = Arc::new(FaultyDisk::new(heap));
                    tree.arm(FaultPlan::generate(seed, &params));
                    heap.arm(FaultPlan::generate(seed.rotate_left(17), &params));
                    (tree as Arc<dyn PageDevice>, heap as Arc<dyn PageDevice>)
                })
            })
        })
        .expect("the open itself runs on the plain disks");
        match gather::execute_range(&ix, &lq, &q) {
            Ok((_, r, _)) => {
                assert_eq!(
                    r.sorted_pairs(),
                    control,
                    "seed {seed}: faulted shard corrupted the gather"
                );
                oks += 1;
            }
            Err(QueryError::Io(_)) => errs += 1,
            Err(e) => panic!("seed {seed}: non-IO error from faulted gather: {e}"),
        }
    }
    assert!(
        oks > 0 && errs > 0,
        "fault plans too weak or too harsh: {oks} exact, {errs} errors"
    );
    let _ = std::fs::remove_dir_all(&root);
}

/// The advisory locks: a second open of a live directory fails with a
/// typed `WouldBlock` error instead of silently sharing state, and the
/// lock dies with its holder.
#[test]
fn live_directories_are_locked() {
    let root = fresh_dir("locks");
    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, 6, SEQ_LEN, 0x10C);

    let single = root.join("single");
    SeqIndex::build(&corpus, IndexConfig::default())
        .unwrap()
        .save(&single)
        .unwrap();
    let held = SeqIndex::open(&single, POOL).unwrap();
    let err = match SeqIndex::open(&single, POOL) {
        Ok(_) => panic!("second open must fail"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
    // Read-only opens bypass the lock (and never take it themselves):
    // a verification oracle must coexist with the serving process.
    let ro = SeqIndex::open_read_only(&single, POOL).expect("read-only open while locked");
    assert_eq!(ro.len(), 6);
    drop(ro);
    drop(held);
    drop(SeqIndex::open(&single, POOL).expect("reopen after release"));

    let sharded = root.join("sharded");
    ShardedIndex::build(&corpus, rr_config(2), IndexConfig::default())
        .unwrap()
        .save(&sharded)
        .unwrap();
    let held = ShardedIndex::open(&sharded, POOL).unwrap();
    let err = match ShardedIndex::open(&sharded, POOL) {
        Ok(_) => panic!("second open must fail"),
        Err(e) => e,
    };
    assert_eq!(err.kind(), std::io::ErrorKind::WouldBlock, "{err}");
    let ro = ShardedIndex::open_read_only(&sharded, POOL).expect("read-only open while locked");
    assert_eq!(ro.len(), 6);
    drop(ro);
    drop(held);
    drop(ShardedIndex::open(&sharded, POOL).expect("reopen after release"));
    let _ = std::fs::remove_dir_all(&root);
}
