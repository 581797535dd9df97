//! Assembles the `METRICS` text exposition.
//!
//! The server registry's own instruments (op counters, latency
//! histograms, the slow-query total) render straight from their atomics;
//! the rest of the document — index access counters, WAL activity,
//! planner/result-cache counters, est-vs-actual cost drift, replication
//! position, and trace-ring health — is sampled at render time from the
//! same sources the `STATS` request reads. Agreement between the two
//! views is therefore structural, not a matter of double bookkeeping;
//! the loopback metrics suite pins it op-for-op anyway.

use crate::metrics::Registry;
use crate::protocol::Response;
use crate::repl::ReplState;
use simobs::Exposition;
use simquery::prelude::*;
use simshard::ShardedIndex;

/// Renders the full exposition for one `METRICS` request.
pub(crate) fn render(
    index: &ShardedIndex,
    metrics: &Registry,
    cache: &PlanCache,
    repl: &ReplState,
) -> Response {
    let mut exp = Exposition::new();
    metrics.render_into(&mut exp);

    // Index access counters — a per-shard breakdown plus totals that
    // equal the sum of the shard lines (the STATS COUNTERS/SHARD
    // invariant).
    let per = index.per_shard_counters();
    for (id, c) in per.iter().enumerate() {
        let id = id.to_string();
        let labels = [("shard", id.as_str())];
        exp.counter("simseq_index_node_reads_total", &labels, c.node_reads);
        exp.counter(
            "simseq_index_record_page_reads_total",
            &labels,
            c.record_page_reads,
        );
        exp.counter(
            "simseq_index_record_fetches_total",
            &labels,
            c.record_fetches,
        );
    }
    let totals = simshard::index::sum_counters(&per);
    exp.counter("simseq_index_node_reads_total", &[], totals.node_reads);
    exp.counter(
        "simseq_index_record_page_reads_total",
        &[],
        totals.record_page_reads,
    );
    exp.counter(
        "simseq_index_record_fetches_total",
        &[],
        totals.record_fetches,
    );

    // WAL activity (absent without --wal, like the STATS WAL line).
    if let Some(s) = index.wal_stats() {
        exp.counter("simseq_wal_appends_total", &[], s.appends);
        exp.counter("simseq_wal_fsyncs_total", &[], s.fsyncs);
        exp.counter("simseq_wal_replayed_total", &[], s.replayed);
        exp.gauge(
            "simseq_wal_epoch",
            &[],
            index.wal_epoch().unwrap_or(0) as f64,
        );
    }

    // Planner dispatch and result-cache admission counters.
    let stats = index.stats();
    let snap = stats.snapshot();
    exp.counter("simseq_plans_built_total", &[], snap.plans_built);
    for (engine, n) in [
        ("mt", snap.dispatch_mt),
        ("st", snap.dispatch_st),
        ("scan", snap.dispatch_scan),
    ] {
        exp.counter("simseq_plan_dispatch_total", &[("engine", engine)], n);
    }
    let cc = cache.counters();
    exp.counter("simseq_result_cache_hits_total", &[], cc.hits);
    exp.counter("simseq_result_cache_misses_total", &[], cc.misses);
    exp.counter("simseq_result_cache_evictions_total", &[], cc.evictions);
    exp.counter("simseq_result_cache_admitted_total", &[], cc.admitted);
    exp.counter("simseq_result_cache_rejected_total", &[], cc.rejected);
    exp.gauge("simseq_result_cache_entries", &[], cc.entries as f64);
    exp.gauge("simseq_result_cache_floor", &[], cache.floor());

    // Est-vs-actual cost drift per (family, engine): measured work over
    // the planner's Eq. 18–20 estimate — 1.0 means the model was exact
    // on average; rows without a recorded estimate are omitted rather
    // than rendered as a fake zero.
    for row in stats.drift_report() {
        let labels = [("family", row.family.as_str()), ("engine", row.engine)];
        exp.counter("simseq_cost_drift_queries_total", &labels, row.queries);
        if let Some(r) = row.pages_ratio() {
            exp.gauge("simseq_cost_drift_pages", &labels, r);
        }
        if let Some(r) = row.comparisons_ratio() {
            exp.gauge("simseq_cost_drift_comparisons", &labels, r);
        }
    }

    // Failover/role view: primary=1 follower=0, the fencing state of the
    // local timeline, and how many promotions this process has served.
    exp.gauge(
        "simseq_role",
        &[],
        if repl.is_follower() { 0.0 } else { 1.0 },
    );
    exp.counter("simseq_promotions_total", &[], repl.promotions());
    exp.gauge("simseq_fence_epoch", &[], index.fence() as f64);
    exp.gauge(
        "simseq_fenced",
        &[],
        if index.is_fenced() { 1.0 } else { 0.0 },
    );

    // Replication position (primary fleet view or follower position).
    if let Some(r) = repl.stat_line(index) {
        let labels = [("role", r.role.as_str())];
        exp.gauge("simseq_repl_followers", &labels, r.followers as f64);
        exp.gauge("simseq_repl_acked_lsn", &labels, r.acked_lsn as f64);
        exp.gauge("simseq_repl_applied_lsn", &labels, r.applied_lsn as f64);
        exp.gauge("simseq_repl_lag", &labels, r.lag as f64);
        exp.counter("simseq_repl_bytes_total", &labels, r.bytes);
        exp.gauge("simseq_repl_epoch", &labels, r.epoch as f64);
    }

    // Trace-ring health: spans kept vs dropped under contention, and the
    // active 1-in-k root sampling rate.
    let tracer = simobs::trace::global();
    exp.counter("simseq_trace_recorded_total", &[], tracer.recorded());
    exp.counter("simseq_trace_dropped_total", &[], tracer.dropped());
    exp.gauge("simseq_trace_sample", &[], tracer.sample() as f64);

    Response::Metrics {
        lines: exp.into_lines(),
    }
}
