//! End-to-end test of the `simseq` binary: generate → build → info →
//! query → join → nn, all through the real executable.

use std::path::PathBuf;
use std::process::Command;

fn simseq() -> Command {
    Command::new(env!("CARGO_BIN_EXE_simseq"))
}

fn workdir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("simseq_cli_test").join(name);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run_ok(cmd: &mut Command) -> (String, String) {
    let out = cmd.output().expect("spawn simseq");
    let stdout = String::from_utf8_lossy(&out.stdout).into_owned();
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert!(
        out.status.success(),
        "command failed.\nstdout: {stdout}\nstderr: {stderr}"
    );
    (stdout, stderr)
}

#[test]
fn full_pipeline() {
    let dir = workdir("pipeline");
    let data = dir.join("data.csv");
    let idx = dir.join("idx");

    run_ok(
        simseq()
            .args([
                "gen", "--kind", "stocks", "--count", "120", "--len", "128", "--seed", "5", "--out",
            ])
            .arg(&data),
    );
    assert!(data.exists());

    let (stdout, _) = run_ok(
        simseq()
            .args(["build", "--data"])
            .arg(&data)
            .arg("--out")
            .arg(&idx),
    );
    assert!(stdout.contains("indexed 120 sequences"));

    let (stdout, _) = run_ok(simseq().args(["info", "--index"]).arg(&idx));
    assert!(stdout.contains("sequences:   120"));
    assert!(stdout.contains("length:      128"));

    // Query: sequence 7 must match itself under the smallest window.
    let (stdout, stderr) = run_ok(
        simseq()
            .args([
                "query",
                "--query-index",
                "7",
                "--ma",
                "5..20",
                "--rho",
                "0.96",
                "--limit",
                "3",
                "--index",
            ])
            .arg(&idx),
    );
    assert!(stdout.contains("S0007"), "self-match missing: {stdout}");
    assert!(stderr.contains("matches over"));

    // The three engines agree on the match count.
    let count = |engine: &str| -> String {
        let (_, stderr) = run_ok(
            simseq()
                .args([
                    "query",
                    "--query-index",
                    "7",
                    "--ma",
                    "5..20",
                    "--rho",
                    "0.96",
                    "--engine",
                    engine,
                    "--policy",
                    "safe",
                    "--index",
                ])
                .arg(&idx),
        );
        stderr.split(" matches").next().unwrap_or("").to_string()
    };
    let mt = count("mt");
    assert_eq!(mt, count("st"));
    assert_eq!(mt, count("scan"));

    // Join runs and reports pairs.
    let (_, stderr) = run_ok(
        simseq()
            .args([
                "join", "--ma", "5..8", "--rho", "0.9", "--limit", "2", "--index",
            ])
            .arg(&idx),
    );
    assert!(stderr.contains("qualifying pairs"));

    // NN returns the query itself first.
    let (stdout, _) = run_ok(
        simseq()
            .args([
                "nn",
                "--query-index",
                "7",
                "--k",
                "2",
                "--ma",
                "1..5",
                "--index",
            ])
            .arg(&idx),
    );
    assert!(stdout.lines().next().unwrap_or("").contains("S0007"));

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn helpful_errors() {
    let out = simseq().arg("frobnicate").output().unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown subcommand"));

    let out = simseq()
        .args(["query", "--index", "/nonexistent-simseq-dir"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("opening index"));

    let out = simseq()
        .args([
            "gen",
            "--kind",
            "nope",
            "--count",
            "1",
            "--len",
            "8",
            "--out",
            "/tmp/x.csv",
        ])
        .output()
        .unwrap();
    assert!(!out.status.success());

    let (stdout, _) = run_ok(simseq().arg("help"));
    assert!(stdout.contains("USAGE"));
}

fn run_err(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn simseq");
    assert!(!out.status.success(), "command unexpectedly succeeded");
    String::from_utf8_lossy(&out.stderr).into_owned()
}

/// Result lines, sorted: equal distances may print in either order.
fn sorted_lines(stdout: &str) -> Vec<String> {
    let mut lines: Vec<String> = stdout.lines().map(String::from).collect();
    lines.sort();
    lines
}

#[test]
fn sharded_layout_answers_like_the_single_layout() {
    let dir = workdir("sharded");
    let data = dir.join("data.csv");
    let idx = dir.join("idx");
    let sidx = dir.join("sidx");
    run_ok(
        simseq()
            .args([
                "gen", "--kind", "stocks", "--count", "120", "--len", "128", "--seed", "5", "--out",
            ])
            .arg(&data),
    );
    run_ok(
        simseq()
            .args(["build", "--data"])
            .arg(&data)
            .arg("--out")
            .arg(&idx),
    );
    let (stdout, _) = run_ok(
        simseq()
            .args(["build", "--shards", "4", "--data"])
            .arg(&data)
            .arg("--out")
            .arg(&sidx),
    );
    assert!(stdout.contains("across 4 shards"), "{stdout}");
    assert!(sidx.join("sharding.txt").is_file());

    let (single, _) = run_ok(simseq().args(["info", "--index"]).arg(&idx));
    let (sharded, _) = run_ok(simseq().args(["info", "--index"]).arg(&sidx));
    assert!(sharded.contains("shards:      4"), "{sharded}");
    for line in ["sequences:   120", "length:      128", "first name:  S0000"] {
        assert!(single.contains(line), "{single}");
        assert!(sharded.contains(line), "{sharded}");
    }

    // Range query: the same matches, and one metrics line per shard.
    let query = |index: &PathBuf| {
        run_ok(
            simseq()
                .args([
                    "query",
                    "--query-index",
                    "7",
                    "--ma",
                    "5..20",
                    "--rho",
                    "0.9",
                    "--policy",
                    "safe",
                    "--limit",
                    "100000",
                    "--index",
                ])
                .arg(index),
        )
    };
    let (single, single_err) = query(&idx);
    let (sharded, sharded_err) = query(&sidx);
    assert!(single.contains("S0007"), "self-match missing: {single}");
    assert_eq!(sorted_lines(&sharded), sorted_lines(&single));
    let count = |stderr: &str| stderr.split(" | ").next().unwrap_or("").to_string();
    assert_eq!(count(&sharded_err), count(&single_err));
    assert!(sharded_err.contains("shard 3:"), "{sharded_err}");
    assert!(!single_err.contains("shard 0:"), "{single_err}");

    // kNN: the same neighbours.
    let nn = |index: &PathBuf| {
        run_ok(
            simseq()
                .args([
                    "nn",
                    "--query-index",
                    "7",
                    "--k",
                    "5",
                    "--ma",
                    "1..5",
                    "--index",
                ])
                .arg(index),
        )
    };
    let (single, _) = nn(&idx);
    let (sharded, sharded_err) = nn(&sidx);
    assert!(single.lines().next().unwrap_or("").contains("S0007"));
    assert_eq!(sorted_lines(&sharded), sorted_lines(&single));
    assert!(sharded_err.contains("shard 3:"), "{sharded_err}");

    // What the sharded layout cannot answer fails with a typed error.
    let stderr = run_err(
        simseq()
            .args(["join", "--ma", "5..8", "--rho", "0.9", "--index"])
            .arg(&sidx),
    );
    assert!(
        stderr.contains("JOIN is not supported on a sharded index"),
        "{stderr}"
    );
    let stderr = run_err(
        simseq()
            .args([
                "query",
                "--query-index",
                "7",
                "--policy",
                "paper",
                "--index",
            ])
            .arg(&sidx),
    );
    assert!(stderr.contains("--policy paper"), "{stderr}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn daemon_flags_are_checked_before_startup() {
    let dir = workdir("daemon_flags");
    let idx = dir.join("idx");

    // `simseq serve` runs simserved's startup, so it refuses the same
    // flag combinations simserved refuses.
    let stderr = run_err(
        simseq()
            .args(["serve", "--fsync", "always", "--index"])
            .arg(&idx),
    );
    assert!(stderr.contains("--fsync requires --wal"), "{stderr}");
    let stderr = run_err(simseq().args(["serve", "--wall", "w", "--index"]).arg(&idx));
    assert!(stderr.contains("unknown flag --wall"), "{stderr}");
    let stderr = run_err(simseq().args(["serve", "--wal", "a", "--wal", "b"]));
    assert!(stderr.contains("--wal given twice"), "{stderr}");

    // Every subcommand checks its flags the same way.
    let stderr = run_err(simseq().args(["info", "--indx"]).arg(&idx));
    assert!(stderr.contains("unknown flag --indx"), "{stderr}");
    let stderr = run_err(simseq().args(["load", "--addr", "x", "--ma", "9..3"]));
    assert!(stderr.contains("LO > HI"), "{stderr}");

    // `load` takes every engine name the wire protocol takes: `auto` gets
    // as far as dialling (nothing listens on port 1), `quantum` does not.
    let stderr = run_err(simseq().args([
        "load",
        "--engine",
        "auto",
        "--conns",
        "1",
        "--ops",
        "1",
        "--addr",
        "127.0.0.1:1",
    ]));
    assert!(stderr.contains("load run failed"), "{stderr}");
    let stderr = run_err(simseq().args(["load", "--engine", "quantum", "--addr", "x"]));
    assert!(stderr.contains("unknown engine `quantum`"), "{stderr}");

    let (stdout, _) = run_ok(simseq().args(["serve", "help"]));
    assert!(stdout.contains("simserved"), "{stdout}");

    std::fs::remove_dir_all(&dir).ok();
}
