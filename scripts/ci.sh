#!/usr/bin/env bash
# Tier-1 verification, fully offline: release build, the whole test
# suite, and formatting. Run from anywhere inside the repo.
#
# Stages:
#   scripts/ci.sh           # tier-1: build + tests (incl. perfbench's
#                           # self-tests) + clippy + fmt (the default)
#   scripts/ci.sh chaos     # tier-2: seeded fault-injection suites only
#   scripts/ci.sh recovery  # tier-2: crash-point WAL recovery suites only
#   scripts/ci.sh parity    # tier-2: planner-parity grid (plan layer vs
#                           # forced engines, every backend + result cache)
#   scripts/ci.sh replication # tier-2: WAL-shipping follower suites
#                           # (loopback parity, crash points, faulted apply)
#   scripts/ci.sh obs       # tier-2: METRICS/STATS exactness suite plus
#                           # the obs_overhead gate (default sampling
#                           # must cost <= 2% on the hot query path)
#   scripts/ci.sh failover  # tier-2: epoch-fenced promotion at every
#                           # frame boundary, FailoverClient through the
#                           # seeded ChaosProxy (fixed seed matrix
#                           # 0xC0FFEE1..3), graceful-shutdown drain
#
# The chaos stage replays the fixed seed ranges baked into tests/chaos.rs
# and crates/serve/tests/chaos_loopback.rs. Every violation panics with
# the offending seed in the message (e.g. "seed 217: mtindex returned a
# WRONG ANSWER under faults"), which this stage echoes so the failure can
# be replayed deterministically.
set -euo pipefail
cd "$(dirname "$0")/.."

stage="${1:-all}"

run_chaos() {
    echo "== chaos: seeded fault schedules (core engines) =="
    local log
    log="$(mktemp)"
    trap 'rm -f "$log"' RETURN
    if ! cargo test --offline -p simquery --test chaos -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "chaos: FAILED — offending seed(s):"
        grep -o "seed [0-9]*[^\"]*" "$log" | sort -u | sed 's/^/  /' || true
        echo "replay: cargo test -p simquery --test chaos -- --nocapture"
        return 1
    fi
    echo "== chaos: faulted simserved loopback =="
    if ! cargo test --offline -p simserve --test chaos_loopback -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "chaos: FAILED — see output above"
        echo "replay: cargo test -p simserve --test chaos_loopback -- --nocapture"
        return 1
    fi
    echo "ci: chaos green"
}

run_recovery() {
    echo "== recovery: crash-point WAL suite (every byte offset) =="
    local log
    log="$(mktemp)"
    trap 'rm -f "$log"' RETURN
    if ! cargo test --offline -p simshard --test recovery -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "recovery: FAILED — offending case(s):"
        grep -oE "(seed [0-9]+|cut [0-9]+|shard [0-9]+)[^\"]*" "$log" | sort -u | sed 's/^/  /' || true
        echo "replay: cargo test -p simshard --test recovery -- --nocapture"
        return 1
    fi
    echo "== recovery: durable simserved restart loopback =="
    if ! cargo test --offline -p simserve --test recovery_loopback -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "recovery: FAILED — see output above"
        echo "replay: cargo test -p simserve --test recovery_loopback -- --nocapture"
        return 1
    fi
    echo "ci: recovery green"
}

run_parity() {
    echo "== parity: planner-chosen vs forced engines, 1/2/4/8 shards =="
    local log
    log="$(mktemp)"
    trap 'rm -f "$log"' RETURN
    if ! cargo test --offline -p simshard --test plan_parity -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "parity: FAILED — see divergence messages above"
        echo "replay: cargo test -p simshard --test plan_parity -- --nocapture"
        return 1
    fi
    echo "== parity: sharded-vs-single engine suite =="
    if ! cargo test --offline -p simshard --test parity -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "parity: FAILED — see output above"
        echo "replay: cargo test -p simshard --test parity -- --nocapture"
        return 1
    fi
    echo "== parity: EXPLAIN + epoch-keyed result cache over the wire =="
    if ! cargo test --offline -p simserve --test loopback -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "parity: FAILED — see output above"
        echo "replay: cargo test -p simserve --test loopback -- --nocapture"
        return 1
    fi
    echo "ci: parity green"
}

run_replication() {
    echo "== replication: loopback convergence + read-only follower =="
    local log
    log="$(mktemp)"
    trap 'rm -f "$log"' RETURN
    if ! cargo test --offline -p simserve --test replication_loopback -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "replication: FAILED — see output above"
        echo "replay: cargo test -p simserve --test replication_loopback -- --nocapture"
        return 1
    fi
    echo "== replication: crash at every frame boundary, both roles =="
    if ! cargo test --offline -p simserve --test replication_crash -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "replication: FAILED — see output above"
        echo "replay: cargo test -p simserve --test replication_crash -- --nocapture"
        return 1
    fi
    echo "== replication: 4-shard primary, followers at their own shard counts, PROMOTE =="
    if ! cargo test --offline -p simserve --test sharded_replication -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "replication: FAILED — see output above"
        echo "replay: cargo test -p simserve --test sharded_replication -- --nocapture"
        return 1
    fi
    echo "== replication: faulted follower devices during apply =="
    if ! cargo test --offline -p simserve --test replication_chaos -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "replication: FAILED — see output above"
        echo "replay: cargo test -p simserve --test replication_chaos -- --nocapture"
        return 1
    fi
    echo "ci: replication green"
}

run_obs() {
    echo "== obs: metrics/stats parity, slow-query log, trace ring =="
    local log
    log="$(mktemp)"
    trap 'rm -f "$log"' RETURN
    if ! cargo test --offline -p simobs 2>&1 | tee "$log"; then
        echo
        echo "obs: FAILED — see output above"
        echo "replay: cargo test -p simobs"
        return 1
    fi
    if ! cargo test --offline -p simserve --test metrics_parity -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "obs: FAILED — see output above"
        echo "replay: cargo test -p simserve --test metrics_parity -- --nocapture"
        return 1
    fi
    echo "== obs: overhead gate (default sampling <= 2% vs off) =="
    if ! REPRO_FAST=1 cargo run --offline --release -p bench --bin obs_overhead 2>&1 | tee "$log"; then
        echo
        echo "obs: benchmark FAILED — see output above"
        return 1
    fi
    local pct
    pct="$(grep -o '"default_overhead_pct_vs_off": [0-9.-]*' results/obs_overhead.json | awk '{print $2}')"
    if awk -v p="$pct" 'BEGIN { exit !(p <= 2.0) }'; then
        echo "obs: default-sampling overhead ${pct}% within the 2% budget"
    else
        echo "obs: FAILED — default-sampling overhead ${pct}% exceeds 2%"
        return 1
    fi
    echo "ci: obs green"
}

run_failover() {
    echo "== failover: promotion at every frame boundary + fencing =="
    local log
    log="$(mktemp)"
    trap 'rm -f "$log"' RETURN
    if ! cargo test --offline -p simserve --test failover_promotion -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "failover: FAILED — see output above"
        echo "replay: cargo test -p simserve --test failover_promotion -- --nocapture"
        return 1
    fi
    echo "== failover: FailoverClient through ChaosProxy (seeds 0xC0FFEE1..3) =="
    if ! cargo test --offline -p simserve --test failover_chaos -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "failover: FAILED — offending seed(s):"
        grep -o "seed [0-9a-fx]*[^\"]*" "$log" | sort -u | sed 's/^/  /' || true
        echo "replay: cargo test -p simserve --test failover_chaos -- --nocapture"
        return 1
    fi
    echo "== failover: graceful-shutdown drain =="
    if ! cargo test --offline -p simserve --test shutdown_drain -- --nocapture 2>&1 | tee "$log"; then
        echo
        echo "failover: FAILED — see output above"
        echo "replay: cargo test -p simserve --test shutdown_drain -- --nocapture"
        return 1
    fi
    echo "ci: failover green"
}

case "$stage" in
chaos)
    run_chaos
    ;;
parity)
    run_parity
    ;;
recovery)
    run_recovery
    ;;
replication)
    run_replication
    ;;
obs)
    run_obs
    ;;
failover)
    run_failover
    ;;
all)
    echo "== cargo build --release =="
    cargo build --release --offline

    echo "== cargo test =="
    cargo test -q --offline

    # perfbench is its own workspace with path deps on crates/*: building
    # it here fails the stage when a public-API change breaks it.
    echo "== perfbench: build + self-tests =="
    cargo test --release --offline --manifest-path perfbench/Cargo.toml

    echo "== cargo clippy =="
    cargo clippy --offline --all-targets -- -D warnings

    echo "== cargo fmt --check =="
    cargo fmt --all --check

    echo "ci: all green"
    ;;
*)
    echo "usage: scripts/ci.sh [chaos|recovery|parity|replication|obs|failover]" >&2
    exit 2
    ;;
esac
