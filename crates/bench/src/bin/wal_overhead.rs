//! Durability tax: insert throughput of a live index with no WAL, and
//! with a WAL under each fsync policy (`never`, `every 8`, `always`).
//!
//! Every run starts from an identical saved snapshot and inserts the same
//! seeded random walks; runs differ only in what the durability layer
//! does per acknowledged insert. Writes `results/wal_overhead.json`.
//!
//! `cargo run -p bench --release --bin wal_overhead`

use bench::table::{f2, Table};
use simquery::index::{IndexConfig, SeqIndex};
use simshard::ShardedIndex;
use simwal::FsyncPolicy;
use std::path::PathBuf;
use tseries::rng::SeededRng;
use tseries::{random_walk, Corpus, CorpusKind};

const SEQ_LEN: usize = 64;

#[derive(Clone, Copy)]
enum Mode {
    NoWal,
    Wal(FsyncPolicy),
}

impl Mode {
    fn label(self) -> &'static str {
        match self {
            Self::NoWal => "none",
            Self::Wal(FsyncPolicy::Never) => "never",
            Self::Wal(FsyncPolicy::EveryN(_)) => "every8",
            Self::Wal(FsyncPolicy::Always) => "always",
        }
    }
}

struct RunStats {
    mode: &'static str,
    inserts: usize,
    wall_s: f64,
    per_sec: f64,
    mean_us: f64,
    fsyncs: u64,
}

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("simseq_wal_overhead_{}_{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn run_one(snapshot: &PathBuf, mode: Mode, inserts: usize, seed: u64) -> RunStats {
    // Fresh directories per run so every mode replays the same script
    // against the same starting state.
    let idx = scratch(&format!("idx_{}", mode.label()));
    let wal = scratch(&format!("wal_{}", mode.label()));
    copy_dir(snapshot, &idx);

    let shared = match mode {
        Mode::NoWal => ShardedIndex::open(&idx, 64).expect("open snapshot"),
        Mode::Wal(policy) => {
            ShardedIndex::open_durable(&idx, &wal, 64, policy)
                .expect("open durable")
                .0
        }
    };

    let mut rng = SeededRng::seed_from_u64(seed);
    let series: Vec<_> = (0..inserts)
        .map(|_| random_walk(&mut rng, SEQ_LEN, 100.0))
        .collect();

    let start = std::time::Instant::now();
    for ts in &series {
        shared.insert_series(ts).expect("insert");
    }
    let wall_s = start.elapsed().as_secs_f64();
    let fsyncs = shared.wal_stats().map_or(0, |s| s.fsyncs);

    drop(shared);
    let _ = std::fs::remove_dir_all(&idx);
    let _ = std::fs::remove_dir_all(&wal);
    RunStats {
        mode: mode.label(),
        inserts,
        wall_s,
        per_sec: inserts as f64 / wall_s,
        mean_us: wall_s * 1e6 / inserts as f64,
        fsyncs,
    }
}

fn copy_dir(src: &PathBuf, dst: &PathBuf) {
    std::fs::create_dir_all(dst).expect("create scratch dir");
    for entry in std::fs::read_dir(src).expect("read snapshot dir") {
        let entry = entry.expect("dir entry");
        if entry.file_name() != "LOCK" {
            std::fs::copy(entry.path(), dst.join(entry.file_name())).expect("copy snapshot file");
        }
    }
}

fn write_json(initial: usize, inserts: usize, runs: &[RunStats]) -> std::io::Result<()> {
    use std::fmt::Write as _;
    let baseline = runs
        .iter()
        .find(|r| r.mode == "none")
        .map_or(0.0, |r| r.per_sec);
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"benchmark\": \"wal_overhead\",");
    let _ = writeln!(
        out,
        "  \"corpus\": {{\"initial\": {initial}, \"len\": {SEQ_LEN}}},"
    );
    let _ = writeln!(out, "  \"inserts\": {inserts},");
    let _ = writeln!(out, "  \"runs\": [");
    for (i, r) in runs.iter().enumerate() {
        let comma = if i + 1 < runs.len() { "," } else { "" };
        let _ = writeln!(
            out,
            "    {{\"fsync\": \"{}\", \"inserts\": {}, \"wall_s\": {:.4}, \
             \"inserts_per_sec\": {:.1}, \"mean_us\": {:.2}, \"fsyncs\": {}, \
             \"overhead_vs_none\": {:.4}}}{comma}",
            r.mode,
            r.inserts,
            r.wall_s,
            r.per_sec,
            r.mean_us,
            r.fsyncs,
            if r.per_sec > 0.0 {
                baseline / r.per_sec
            } else {
                0.0
            }
        );
    }
    let _ = writeln!(out, "  ]");
    let _ = writeln!(out, "}}");
    std::fs::write(bench::results_dir().join("wal_overhead.json"), out)
}

fn main() {
    let fast = bench::fast_mode();
    let initial = if fast { 100 } else { 400 };
    let inserts = if fast { 200 } else { 2000 };

    let corpus = Corpus::generate(CorpusKind::SyntheticWalks, initial, SEQ_LEN, 0x11AB);
    let snapshot = scratch("snapshot");
    SeqIndex::build(&corpus, IndexConfig::default())
        .expect("non-empty corpus")
        .save(&snapshot)
        .expect("save snapshot");

    let modes = [
        Mode::NoWal,
        Mode::Wal(FsyncPolicy::Never),
        Mode::Wal(FsyncPolicy::EveryN(8)),
        Mode::Wal(FsyncPolicy::Always),
    ];

    let mut t = Table::new(
        format!("WAL overhead ({initial} walks × {SEQ_LEN}, {inserts} inserts)"),
        &["fsync", "inserts/s", "mean µs", "fsyncs", "vs none"],
    );
    let mut runs = Vec::new();
    for mode in modes {
        // Warm-up, then best-of-3 to suppress scheduler noise.
        let _ = run_one(&snapshot, mode, inserts / 10, 0xDEAD);
        let r = (0..3)
            .map(|_| run_one(&snapshot, mode, inserts, 0x11AB))
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("three passes");
        runs.push(r);
    }
    let baseline = runs[0].per_sec;
    for r in &runs {
        t.push(vec![
            r.mode.into(),
            f2(r.per_sec),
            f2(r.mean_us),
            r.fsyncs.to_string(),
            format!("{:.2}x", baseline / r.per_sec),
        ]);
    }
    t.print();
    write_json(initial, inserts, &runs).expect("write results json");
    let _ = std::fs::remove_dir_all(&snapshot);
}
