//! The per-layer ledger: every per-layer metric, the layer it belongs to,
//! and the end-to-end metric and workload it should move.
//!
//! Counter rows are deltas of the server's own `METRICS` over the
//! closed-loop phase of the untraced run (the same counters production
//! exports). `_ns` rows come from the traced replay ([`crate::trace`]).
//! The traced layers' sum sits next to the server's measured CPU per op,
//! and the gap is reported as `frontend.residual_ns_per_op`: it is the
//! event loop, the socket system calls, connection buffering, metrics and
//! spans, none of which the replay runs.

use crate::drive::Tally;
use crate::server::Scrape;
use crate::stats::ratio;
use crate::trace::Trace;

/// One per-layer metric and what it should move.
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// The end-to-end metric(s) a change in this row should move.
    pub moves: &'static str,
    /// The workload(s) where that should show.
    pub on: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    moves: &'static str,
    on: &'static str,
) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better,
        moves,
        on,
    }
}

/// Every per-layer metric, in `BENCHMARK.json` order.
pub const LAYERS: [LayerMetric; 39] = [
    // loadgen (this benchmark)
    row(
        "loadgen.send_lag_p99_us",
        "us",
        "lower",
        "nothing: validity check, must stay far below wall.p50_us",
        "all",
    ),
    // the open loop's tail, reported here because it carries no bound
    row(
        "tail.p99_us",
        "us",
        "lower",
        "nothing bounded: the end-to-end tail, too host-dependent to gate on",
        "all",
    ),
    // the host: the end-to-end figures as measured, before they are
    // restated at the reference speed, and the speed itself
    row(
        "wall.ops_per_s",
        "1/s",
        "higher",
        "ref_ops_per_s (as measured, at the host's speed)",
        "all",
    ),
    row(
        "wall.p50_us",
        "us",
        "lower",
        "ref_p50_us (as measured, at the host's speed)",
        "all",
    ),
    row(
        "host.kernel_us.closed",
        "us",
        "lower",
        "nothing: the server vCPU's speed in the closed loop, which ref_ops_per_s and ref_server_cpu_us_per_op are restated from",
        "all",
    ),
    row(
        "host.kernel_us.open",
        "us",
        "lower",
        "nothing: the server vCPU's speed in the open loop, which ref_p50_us is restated from",
        "all",
    ),
    // proto
    row(
        "proto.parse_ns_per_cmd",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op, ref_ops_per_s",
        "hash_scan, write_heavy",
    ),
    row(
        "proto.command_ns_per_cmd",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op, ref_ops_per_s",
        "hash_scan, write_heavy",
    ),
    row(
        "proto.encode_ns_per_reply",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op, ref_ops_per_s",
        "hash_scan",
    ),
    // core::engine
    row(
        "engine.execute_ns.get",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op, ref_p50_us",
        "write_heavy",
    ),
    row(
        "engine.execute_ns.set",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op, ref_ops_per_s",
        "write_heavy",
    ),
    row(
        "engine.execute_ns.hgetall",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op",
        "hash_scan",
    ),
    row(
        "engine.execute_ns.hset",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op",
        "hash_scan",
    ),
    row(
        "engine.self_ns.get",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op",
        "write_heavy",
    ),
    // lavastore
    row(
        "lava.get_ns",
        "ns",
        "lower",
        "ref_p50_us, ref_ops_per_s",
        "write_heavy",
    ),
    row(
        "lava.block_reads_per_get",
        "count",
        "lower",
        "ref_p50_us, ref_ops_per_s",
        "write_heavy",
    ),
    row(
        "lava.blocks_per_hgetall",
        "count",
        "lower",
        "ref_ops_per_s",
        "hash_scan",
    ),
    row(
        "lava.memtable_hit_ratio",
        "ratio",
        "higher",
        "ref_p50_us",
        "write_heavy",
    ),
    row(
        "lava.sst_files_end",
        "count",
        "lower",
        "space_amp, ref_p50_us",
        "write_heavy",
    ),
    row("lava.flushes", "count", "lower", "ref_ops_per_s", "write_heavy"),
    row(
        "lava.compactions",
        "count",
        "higher",
        "space_amp",
        "write_heavy",
    ),
    row(
        "lava.write_amp",
        "ratio",
        "lower",
        "ref_ops_per_s, space_amp",
        "write_heavy",
    ),
    row(
        "lava.wal_frames_per_commit",
        "count",
        "higher",
        "ref_ops_per_s",
        "write_heavy",
    ),
    // lavastore::block_cache / abase-cache
    row(
        "cache.hit_ratio",
        "ratio",
        "higher",
        "ref_p50_us",
        "write_heavy",
    ),
    row(
        "cache.evictions_per_kop",
        "count",
        "lower",
        "ref_p50_us",
        "write_heavy",
    ),
    row(
        "cache.resident_mb",
        "MB",
        "lower",
        "server_rss_mb",
        "write_heavy",
    ),
    // lavastore::bloom
    row(
        "bloom.checks_per_get",
        "count",
        "lower",
        "ref_p50_us",
        "write_heavy",
    ),
    row("bloom.fp_ratio", "ratio", "lower", "ref_p50_us", "write_heavy"),
    // core::server (dispatch, admission)
    row(
        "server.batch_cmds_mean",
        "count",
        "higher",
        "ref_ops_per_s, ref_server_cpu_us_per_op",
        "hash_scan, write_heavy",
    ),
    row(
        "server.ru_per_op.read",
        "RU",
        "lower",
        "ref_ops_per_s",
        "hash_scan",
    ),
    row(
        "server.ru_per_op.write",
        "RU",
        "lower",
        "ref_ops_per_s",
        "write_heavy",
    ),
    // obs (truthful = 1.0 sample per command)
    row(
        "obs.stage_samples_per_cmd.parse",
        "ratio",
        "higher",
        "nothing directly: instrumentation truth",
        "all",
    ),
    row(
        "obs.stage_samples_per_cmd.admission",
        "ratio",
        "higher",
        "nothing directly: instrumentation truth",
        "all",
    ),
    row(
        "obs.stage_samples_per_cmd.engine",
        "ratio",
        "higher",
        "nothing directly: instrumentation truth",
        "all",
    ),
    row(
        "obs.stage_samples_per_cmd.respond",
        "ratio",
        "higher",
        "nothing directly: instrumentation truth",
        "all",
    ),
    // core::event_loop + conn
    row(
        "frontend.residual_ns_per_op",
        "ns",
        "lower",
        "ref_ops_per_s, ref_server_cpu_us_per_op",
        "hash_scan, write_heavy",
    ),
    row(
        "frontend.ctxsw_per_kop",
        "count",
        "lower",
        "ref_ops_per_s, ref_server_cpu_us_per_op",
        "hash_scan, write_heavy",
    ),
    // the ledger's own totals, side by side with the residual
    row(
        "ledger.sum_layers_ns_per_op",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op",
        "all",
    ),
    row(
        "ledger.server_cpu_ns_per_op",
        "ns",
        "lower",
        "ref_server_cpu_us_per_op (as measured, in ns)",
        "all",
    ),
];

/// What the untraced run measured over its closed-loop phase.
pub struct Measured<'a> {
    /// Every op served in the phase.
    pub closed: &'a Tally,
    /// Server counter deltas over the phase.
    pub delta: &'a Scrape,
    /// Server counters at the end of the phase.
    pub end: &'a Scrape,
    pub cpu_us_per_op: f64,
    pub context_switches: f64,
    pub ssts_end: u64,
    pub send_lag_p99_us: f64,
    /// p50 and p99 of the open loop's latency from due time.
    pub p50_us: f64,
    pub p99_us: f64,
    pub ops_per_s: f64,
    /// Median reference-kernel times on the server's vCPU, in µs.
    pub closed_kernel_us: f64,
    pub open_kernel_us: f64,
}

/// The layer sum and the residual: traced ns per op of parse, command
/// build, execute (each command kind charged its mean `execute` time) and
/// encode, against the server's CPU ns per op.
pub fn residual(trace: &Trace, cpu_us_per_op: f64) -> (f64, f64) {
    let execute: f64 = (0..4)
        .map(|k| ratio(trace.execute_ns[k], trace.executed[k] as f64) * trace.by_kind[k] as f64)
        .sum();
    let layers = trace.parse_ns + trace.command_ns + execute + trace.encode_ns;
    let sum = ratio(layers, trace.ops as f64);
    (sum, cpu_us_per_op * 1e3 - sum)
}

/// Every [`LAYERS`] metric's value, in [`LAYERS`] order.
pub fn values(m: &Measured, t: &Trace) -> Vec<f64> {
    let d = m.delta;
    let ops = m.closed.attempted as f64;
    let gets = m.closed.commands[0] as f64;
    let per_kind = |i: usize| ratio(t.execute_ns[i], t.executed[i] as f64);
    let lava_get = ratio(t.lava_get_ns, t.lava_gets as f64);
    let hist_mean = |name: &str| {
        ratio(
            d.get(&format!("{name}_sum")),
            d.get(&format!("{name}_count")),
        )
    };
    let stage = |s: &str| ratio(d.member("abase_server_stage_micros_count", "stage", s), ops);
    let hits = d.get("abase_block_cache_hits_total");
    let misses = d.get("abase_block_cache_misses_total");
    let fp = d.get("abase_bloom_false_positives_total");
    let negatives = d.get("abase_bloom_negatives_total");
    let storage_bytes = d.get("abase_lava_wal_append_bytes_total")
        + d.get("abase_lava_flush_bytes_total")
        + d.get("abase_lava_compaction_bytes_total");
    let read_ru = d.family_sum("abase_tenant_read_ru_total");
    let write_ru = d.family_sum("abase_tenant_write_ru_total");
    let (sum, residual) = residual(t, m.cpu_us_per_op);
    let out = vec![
        m.send_lag_p99_us,
        m.p99_us,
        m.ops_per_s,
        m.p50_us,
        m.closed_kernel_us,
        m.open_kernel_us,
        ratio(t.parse_ns, t.ops as f64),
        ratio(t.command_ns, t.ops as f64),
        ratio(t.encode_ns, t.ops as f64),
        per_kind(0),
        per_kind(1),
        per_kind(2),
        per_kind(3),
        if t.executed[0] > 0 && t.lava_gets > 0 {
            per_kind(0) - lava_get
        } else {
            0.0
        },
        lava_get,
        ratio(t.get_blocks as f64, t.by_kind[0] as f64),
        ratio(t.hgetall_blocks as f64, t.by_kind[2] as f64),
        ratio(t.get_memtable_hits as f64, t.by_kind[0] as f64),
        m.ssts_end as f64,
        d.get("abase_lava_flushes_total"),
        d.get("abase_lava_compactions_total"),
        ratio(storage_bytes, m.closed.written_bytes as f64),
        hist_mean("abase_lava_group_commit_batch_frames"),
        ratio(hits, hits + misses),
        ratio(d.get("abase_block_cache_evictions_total") * 1e3, ops),
        m.end.get("abase_block_cache_bytes") / f64::from(1 << 20),
        ratio(d.get("abase_bloom_checks_total"), gets),
        ratio(fp, fp + negatives),
        hist_mean("abase_pipeline_batch_commands"),
        ratio(read_ru, m.closed.reads() as f64),
        ratio(write_ru, m.closed.writes() as f64),
        stage("parse"),
        stage("admission"),
        stage("engine"),
        stage("respond"),
        residual,
        ratio(m.context_switches * 1e3, ops),
        sum,
        m.cpu_us_per_op * 1e3,
    ];
    assert_eq!(out.len(), LAYERS.len(), "one value per ledger row");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_cpu_minus_the_layer_sum() {
        // Four GETs, two of them timed through `execute` at 600 ns each;
        // the other two went to `Db::get` and are charged the same mean.
        let trace = Trace {
            ops: 4,
            by_kind: [4, 0, 0, 0],
            parse_ns: 400.0,
            command_ns: 200.0,
            encode_ns: 200.0,
            execute_ns: [1200.0, 0.0, 0.0, 0.0],
            executed: [2, 0, 0, 0],
            ..Trace::default()
        };
        // (400 + 200 + 4 x 600 + 200) / 4 = 800 ns per op in the layers;
        // the server spent 2.5 µs per op, so 1700 ns is unaccounted for.
        let (sum, residual) = residual(&trace, 2.5);
        assert_eq!(sum, 800.0);
        assert_eq!(residual, 1700.0);
        assert_eq!(super::residual(&Trace::default(), 1.0), (0.0, 1000.0));
    }

    #[test]
    fn every_row_gets_a_value_and_self_time_subtracts_db_get() {
        let tally = Tally {
            attempted: 10,
            commands: [10, 0, 0, 0],
            ..Tally::default()
        };
        let delta = Scrape::parse(
            "abase_server_stage_micros_count{stage=\"respond\"} 10\nabase_block_cache_hits_total 3\nabase_block_cache_misses_total 1\n",
        )
        .unwrap();
        let m = Measured {
            closed: &tally,
            delta: &delta,
            end: &Scrape::default(),
            cpu_us_per_op: 1.0,
            context_switches: 5.0,
            ssts_end: 2,
            send_lag_p99_us: 4.0,
            p50_us: 6.0,
            p99_us: 9.0,
            ops_per_s: 1000.0,
            closed_kernel_us: 250.0,
            open_kernel_us: 260.0,
        };
        let trace = Trace {
            ops: 10,
            by_kind: [10, 0, 0, 0],
            execute_ns: [1500.0, 0.0, 0.0, 0.0],
            executed: [5, 0, 0, 0],
            lava_get_ns: 500.0,
            lava_gets: 5,
            ..Trace::default()
        };
        let v = values(&m, &trace);
        let at = |name: &str| v[LAYERS.iter().position(|l| l.name == name).unwrap()];
        assert_eq!(at("engine.execute_ns.get"), 300.0);
        assert_eq!(at("lava.get_ns"), 100.0);
        assert_eq!(at("engine.self_ns.get"), 200.0);
        assert_eq!(at("cache.hit_ratio"), 0.75);
        assert_eq!(at("obs.stage_samples_per_cmd.respond"), 1.0);
        assert_eq!(at("frontend.ctxsw_per_kop"), 500.0);
        assert_eq!(at("ledger.sum_layers_ns_per_op"), 300.0);
        assert_eq!(at("frontend.residual_ns_per_op"), 700.0);
        assert_eq!(at("engine.execute_ns.hset"), 0.0);
    }
}
