//! # tenantbench — what a tenant sees from one ABase node
//!
//! Launches the unmodified release `abase-server` as a child process with a
//! fresh data directory for every run, and drives it over loopback RESP from
//! this one process, with one generator thread and one connection. The
//! server is observed only from outside: its replies, its own `METRICS`
//! exposition, and `/proc/<pid>`. The server runs pinned to one vCPU and
//! the generator to another; a second thread of this process, the probe,
//! times a fixed reference kernel on the server's vCPU while a phase is
//! timed ([`host`]).
//!
//! Run one workload (from the repository root; `run.sh` builds the server
//! and the benchmark first):
//!
//! ```text
//! bash tenantbench/run.sh --workload hash_scan --seed 1 --seconds 40 --trace 0
//! ```
//!
//! The traced run of the same workload prints every per-layer metric:
//!
//! ```text
//! bash tenantbench/run.sh --workload hash_scan --seed 1 --seconds 40 --trace 1
//! ```
//!
//! The last line of standard output is one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it
//! stamps the run with the git sha, `nproc`, rustc version, server settings
//! and seed. Data directories live under `tenantbench/out/` and are removed
//! when the run ends.
//!
//! ## Workloads
//!
//! | name | traffic | why |
//! |---|---|---|
//! | `write_heavy` | 75% SET / 25% GET, uniform over 200k keys x 1 KiB (about 200 MiB, over 3x the 64 MiB default block cache); open loop 8000/s | WAL, memtable, flush, L0 growth, bloom and SST block reads do the work and the cache misses: a read-path win that costs writes, or a write-path win that grows read amplification, shows. |
//! | `hash_scan` | 95% HGETALL / 5% HSET, zipf 0.99 over 500 hashes x 10 fields x 100 B; every tenth hash `cart:<id>` has a sibling `cart:<id>:items` (all of it stays in the memtable); open loop 15000/s | Whole-hash scans across stripes with large replies: per-command costs, the hash key codec and reply encoding dominate. The nested names expose prefix aliasing as failed replies. |
//!
//! Each run: set-up (spawn, load, warm), the set-up data written through
//! to the disk (so no writeback of it lands in a timed phase), then a
//! closed-loop phase of a fixed, seeded op sequence (flights of 64
//! pipelined commands, eight flights outstanding; its length is a nominal
//! rate times two thirds of `--seconds`, so bytes written never depend on
//! speed), then an open-loop phase of the last third of `--seconds` at the
//! workload's fixed rate.
//!
//! Two workloads of the four first planned are left out, because on the
//! 2-vCPU shared virtual machine the benchmark was tuned on their figures
//! spread more across seeds (interquartile range over median) than the 25%
//! a metric may:
//!
//! * `noisy_neighbor` (a tenant's pipelined 1 KiB SETs beside a second
//!   tenant's fixed-rate GETs on its own connection): the aggressor
//!   saturates both vCPUs, so the victim's latency follows the host's
//!   speed; its p50 and p99 spread 40-80%.
//! * `read_cached` (100% GET, zipf 0.99 over 100k cached keys x 100 B): its
//!   closed loop is bound by one server core, whose speed drifts on that
//!   host (a fixed CPU loop's time varied by up to 75% between runs, and
//!   the closed loop's rate switches between plateaus seconds long); its
//!   `ops_per_s` and `server_cpu_us_per_op` spread 20-33% in three of four
//!   sets of ten seeds.
//!
//! The same drift moves the listed workloads, which are bound by the one
//! server vCPU too: as measured, `hash_scan`'s throughput and CPU per op
//! spread 11-28% over ten seeds of a 40 s run on the tuning machine, and
//! 21-35% on another host. Longer runs do not average it away (the drift
//! is as large over 17 s windows as over 2 s ones), so those figures are
//! restated at a reference vCPU speed measured beside the server
//! ([`host`]); the figures as measured stay in the per-layer rows.
//!
//! ## End-to-end metrics (`--trace 0`)
//!
//! The `ref_` metrics are stated at the reference vCPU speed: with `k` the
//! median time of the probe's reference kernel on the server's vCPU over
//! the phase and `K` = [`host::REF_KERNEL_US`], a rate is multiplied by
//! `k / K` and a time by `K / k`. A change to the server moves them as it
//! moves the figures as measured; a slower host does not.
//!
//! * `ref_ops_per_s` — ops of the closed-loop phase ÷ its wall time, at the
//!   reference speed (as measured: `wall.ops_per_s`).
//! * `ref_p50_us` — open-loop latency timed from each request's due time,
//!   at the reference speed (as measured: `wall.p50_us`). Its p99 is
//!   printed too, as the per-layer row `tail.p99_us`, but carries no bound:
//!   on the shared 2-vCPU virtual machine the benchmark was tuned on, the
//!   hypervisor stops vCPUs for up to milliseconds, and across ten seeds
//!   the p99 spread by 24-91% of its median (interquartile range; whole-run
//!   and windowed estimates alike), where a bounded metric may spread 25%.
//! * `ok_ratio` — replies that matched the model ÷ ops attempted. The
//!   complement of an error ratio, so it is never 0: error replies, wrong or
//!   stale values, and extra or missing hash fields all lower it.
//! * `ref_server_cpu_us_per_op` — server user+system time ÷ ops of the
//!   closed-loop phase, at the reference speed (as measured:
//!   `ledger.server_cpu_ns_per_op`).
//! * `server_rss_mb` — the server's `VmHWM`.
//! * `space_amp` — data-directory bytes at the end ÷ live logical bytes.
//! * `setup_s` — spawn, load and warm, the median of several set-ups
//!   (`Workload::setups`).
//!
//! ## Per-layer metrics (`--trace 1`)
//!
//! Counter rows are deltas of the server's `METRICS` over the closed-loop
//! phase; `_ns` rows come from the traced in-process replay
//! ([`trace`]). Each row should move the named end-to-end metric on the
//! named workload ([`ledger::LAYERS`] holds the same table):
//!
//! | layer (module) | metrics | source | should move |
//! |---|---|---|---|
//! | loadgen (this benchmark) | `loadgen.send_lag_p99_us` | own clock | nothing: validity check, must stay far below `wall.p50_us` |
//! | open loop (end to end) | `tail.p99_us` | own clock | unbounded: the tail, too host-dependent to gate on |
//! | host | `wall.ops_per_s`, `wall.p50_us`, `host.kernel_us.{closed,open}` | own clock; the probe ([`host`]) | the `ref_` figures as measured, and the server vCPU's speed they were restated from |
//! | `proto` | `proto.parse_ns_per_cmd`, `proto.command_ns_per_cmd`, `proto.encode_ns_per_reply` | `RespValue::parse_batch`, `Command::from_resp`, `RespValue::encode` | `ref_server_cpu_us_per_op`, `ref_ops_per_s` @ `hash_scan` (parse and command also @ `write_heavy`) |
//! | `core::engine` | `engine.execute_ns.{get,set,hgetall,hset}`, `engine.self_ns.get` | `TableEngine::execute`, `Db::get` | `ref_server_cpu_us_per_op` @ `write_heavy` (GET, SET), `hash_scan` (HGETALL, HSET) |
//! | `lavastore` | `lava.get_ns`, `lava.block_reads_per_get`, `lava.blocks_per_hgetall`, `lava.memtable_hit_ratio`, `lava.sst_files_end`, `lava.flushes`, `lava.compactions`, `lava.write_amp`, `lava.wal_frames_per_commit` | `Db::get`, `ExecOutcome`, `abase_lava_*`, the data directory | `ref_p50_us`, `ref_ops_per_s`, `space_amp` @ `write_heavy`; `ref_ops_per_s` @ `hash_scan` |
//! | `lavastore::block_cache` / `abase-cache` | `cache.hit_ratio`, `cache.evictions_per_kop`, `cache.resident_mb` | `abase_block_cache_*` | `ref_p50_us`, `server_rss_mb` @ `write_heavy` |
//! | `lavastore::bloom` | `bloom.checks_per_get`, `bloom.fp_ratio` | `abase_bloom_*` | `ref_p50_us` @ `write_heavy` |
//! | `core::server` | `server.batch_cmds_mean`, `server.ru_per_op.{read,write}` | `abase_pipeline_batch_commands`, `abase_tenant_*_ru_total` | `ref_ops_per_s` @ `hash_scan` (read RU), `write_heavy` (write RU) |
//! | `obs` | `obs.stage_samples_per_cmd.{parse,admission,engine,respond}` (truthful = 1.0) | `abase_server_stage_micros_count` ÷ commands | nothing directly |
//! | `core::event_loop` + `conn` | `frontend.residual_ns_per_op`, `frontend.ctxsw_per_kop` | server CPU per op − Σ traced layers; `/proc/<pid>/task/*/status` | `ref_ops_per_s`, `ref_server_cpu_us_per_op` @ `hash_scan`, `write_heavy` |
//! | ledger | `ledger.sum_layers_ns_per_op`, `ledger.server_cpu_ns_per_op` | traced replay; `/proc/<pid>/stat` | printed beside `frontend.residual_ns_per_op` |
//!
//! A row that a workload does not exercise (say `engine.execute_ns.hset` on
//! `write_heavy`) reads 0.
//!
//! ## Checks
//!
//! Every reply is checked against a model of every value written
//! ([`model`]); mismatches are counted in `failed` and lower `ok_ratio`.
//! After each phase the benchmark's completed-command counts must equal the
//! server's `abase_server_commands_total` deltas, or the run aborts with a
//! non-zero exit. `correct` is true when every count agreed and every
//! failed reply is the known hash-prefix aliasing (`HGETALL cart:<id>`
//! returning its own fields plus exactly those of `cart:<id>:items`); a
//! stale, lost or otherwise wrong reply makes it false.

mod drive;
mod host;
mod ledger;
mod model;
mod server;
mod spec;
mod stats;
mod trace;
mod wire;

use drive::{counters_agree, set_fine_timer_slack, Conn, Tally};
use host::{rate_at_ref, time_at_ref, CpuSet, Placement, Probe, REF_KERNEL_US};
use model::{Model, Plan};
use server::{dir_usage, sync_dir, Scrape, Server};
use spec::{Mix, Workload, FLIGHT, FLIGHTS_OUT, PHASE_CLOSED, PHASE_OPEN, TENANT};
use stats::{mean, median, quantile, ratio};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// `(name, unit)` of every end-to-end metric, in `BENCHMARK.json` order.
const END_TO_END: [(&str, &str); 7] = [
    ("ref_ops_per_s", "1/s"),
    ("ref_p50_us", "us"),
    ("ok_ratio", "ratio"),
    ("ref_server_cpu_us_per_op", "us"),
    ("server_rss_mb", "MB"),
    ("space_amp", "ratio"),
    ("setup_s", "s"),
];

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
    placement: Placement,
}

impl Args {
    fn parse() -> Result<Args> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut server = None;
        let mut args = std::env::args().skip(1);
        while let Some(flag) = args.next() {
            let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => {
                    workload = Some(
                        Workload::parse(&value)
                            .ok_or_else(|| format!("unknown workload {value}"))?,
                    )
                }
                "--seed" => seed = Some(value.parse()?),
                "--seconds" => seconds = Some(value.parse::<u64>()?.max(2)),
                "--trace" => trace = Some(value == "1"),
                "--server" => server = Some(PathBuf::from(value)),
                _ => return Err(format!("unknown flag {flag}").into()),
            }
        }
        Ok(Args {
            workload: workload.ok_or("--workload is required")?,
            seed: seed.ok_or("--seed is required")?,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
            server: server.ok_or("--server is required")?,
            out: PathBuf::from("tenantbench/out"),
            placement: Placement::choose()?,
        })
    }
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("tenantbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn run() -> Result<()> {
    let args = Args::parse()?;
    set_fine_timer_slack();
    CpuSet::one(args.placement.generator).pin_current()?;
    std::fs::create_dir_all(&args.out)?;
    let plans = Plans::build(args.workload, args.seed, args.seconds);
    println!("{}", stamp(&args, &plans)?);
    let (run, metrics) = if args.trace {
        traced(&args, &plans)?
    } else {
        untraced(&args, &plans)?
    };
    for (name, value, unit) in &metrics {
        if !value.is_finite() {
            return Err(format!("{name} is not a finite number ({value} {unit})").into());
        }
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.total.correct(),
        run.total.attempted,
        run.total.failed,
        body.join(", ")
    );
    Ok(())
}

/// Every op sequence of one run, with the reply each op must get.
struct Plans {
    /// Set-up: load, then warm.
    setup: Plan,
    closed: Plan,
    open: Plan,
    /// The model after every phase (for `space_amp`).
    model: Model,
}

impl Plans {
    fn build(workload: Workload, seed: u64, seconds: u64) -> Plans {
        let mut model = Model::default();
        let setup = model.plan(workload.setup_ops());
        let closed_secs = seconds * 2 / 3;
        let closed_ops = (workload.nominal_ops_per_s() * closed_secs) as usize;
        let mut mix = Mix::new(workload, seed, PHASE_CLOSED);
        let closed = model.plan((0..closed_ops).map(|_| mix.next_op()));
        let open_ops = (workload.open_rate() * (seconds - closed_secs)) as usize;
        let mut mix = Mix::new(workload, seed, PHASE_OPEN);
        let open = model.plan((0..open_ops).map(|_| mix.next_op()));
        Plans {
            setup,
            closed,
            open,
            model,
        }
    }
}

/// A server after set-up, with its connection.
struct Ready {
    server: Server,
    conn: Conn,
    tally: Tally,
    secs: f64,
}

fn set_up(args: &Args, plans: &Plans, n: usize) -> Result<Ready> {
    let dir = args.out.join(format!(
        "{}-{}-{}-{n}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    let t = Instant::now();
    let server = Server::spawn(&args.server, dir, args.placement.server)?;
    let mut conn = Conn::open(server.addr, TENANT, args.seed)?;
    let tally = conn.closed_loop(&plans.setup)?;
    let secs = t.elapsed().as_secs_f64();
    Ok(Ready {
        server,
        conn,
        tally,
        secs,
    })
}

/// Everything the untraced phases measured on one server.
struct Run {
    /// Every op of the run: set-up, closed loop and open loop.
    total: Tally,
    closed: Tally,
    ops_per_s: f64,
    /// Mean reference-kernel time on the server's vCPU (µs) over the
    /// closed and the open phase.
    closed_kernel_us: f64,
    open_kernel_us: f64,
    latencies: Vec<f64>,
    lags: Vec<f64>,
    cpu_us_per_op: f64,
    context_switches: f64,
    rss_mb: f64,
    dir_bytes: u64,
    ssts: u64,
    delta: Scrape,
    end: Scrape,
}

fn measure(args: &Args, plans: &Plans, ready: Ready) -> Result<Run> {
    let Ready {
        server,
        mut conn,
        tally: setup,
        ..
    } = ready;
    sync_dir(&server.dir)?;
    let before = conn.metrics()?;
    counters_agree(&setup, &before)?;
    let cs0 = server.context_switches()?;
    let cpu0 = server.cpu_micros()?;
    let probe = Probe::start(args.placement.server);
    let t = Instant::now();
    let closed = conn.closed_loop(&plans.closed)?;
    let secs = t.elapsed().as_secs_f64();
    let closed_kernel_us = mean(&probe.finish()?);
    let cpu1 = server.cpu_micros()?;
    let cs1 = server.context_switches()?;
    let mid = conn.metrics()?;
    let probe = Probe::start(args.placement.server);
    let (open, latencies, lags) = conn.open_loop(&plans.open, args.workload.open_rate())?;
    let open_kernel_us = mean(&probe.finish()?);
    let delta = mid.delta(&before);
    counters_agree(&closed, &delta)?;
    let end = conn.metrics()?;
    counters_agree(&open, &end.delta(&mid))?;
    let (dir_bytes, ssts) = dir_usage(&server.dir)?;
    let rss_mb = server.peak_rss_mb()?;
    drop(server);
    let ops = closed.attempted as f64;
    let mut total = setup;
    total.add(&closed);
    total.add(&open);
    Ok(Run {
        total,
        ops_per_s: ops / secs,
        closed_kernel_us,
        open_kernel_us,
        latencies,
        lags,
        cpu_us_per_op: ratio(cpu1 - cpu0, ops),
        context_switches: (cs1 - cs0) as f64,
        rss_mb,
        dir_bytes,
        ssts,
        closed,
        delta,
        end: mid,
    })
}

type Metrics = Vec<(&'static str, f64, &'static str)>;

fn untraced(args: &Args, plans: &Plans) -> Result<(Run, Metrics)> {
    let mut setup_secs = Vec::new();
    let mut ready = None;
    for n in 0..args.workload.setups() {
        // The previous server is stopped before the next one starts.
        drop(ready.take());
        let r = set_up(args, plans, n)?;
        setup_secs.push(r.secs);
        ready = Some(r);
    }
    let mut run = measure(args, plans, ready.expect("at least one set-up"))?;
    let live = plans.model.live_bytes() as f64;
    let p50_us = quantile(&mut run.latencies, 0.50);
    eprintln!(
        "as measured: ops_per_s {} p50_us {p50_us} server_cpu_us_per_op {}; reference kernel {} us (closed), {} us (open); server busy {:.3} of the closed loop",
        run.ops_per_s,
        run.cpu_us_per_op,
        run.closed_kernel_us,
        run.open_kernel_us,
        run.ops_per_s * run.cpu_us_per_op / 1e6
    );
    let values = [
        rate_at_ref(run.ops_per_s, run.closed_kernel_us),
        time_at_ref(p50_us, run.open_kernel_us),
        1.0 - ratio(run.total.failed as f64, run.total.attempted as f64),
        time_at_ref(run.cpu_us_per_op, run.closed_kernel_us),
        run.rss_mb,
        ratio(run.dir_bytes as f64, live),
        median(&mut setup_secs),
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, v, unit))
        .collect();
    Ok((run, metrics))
}

fn traced(args: &Args, plans: &Plans) -> Result<(Run, Metrics)> {
    let ready = set_up(args, plans, 0)?;
    let mut run = measure(args, plans, ready)?;
    let dir = args.out.join(format!(
        "trace-{}-{}-{}",
        args.workload.name(),
        args.seed,
        std::process::id()
    ));
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    let result = replay(args, plans, &dir);
    let _ = std::fs::remove_dir_all(&dir);
    let trace = result?;
    let measured = ledger::Measured {
        closed: &run.closed,
        delta: &run.delta,
        end: &run.end,
        cpu_us_per_op: run.cpu_us_per_op,
        context_switches: run.context_switches,
        ssts_end: run.ssts,
        send_lag_p99_us: quantile(&mut run.lags, 0.99),
        p50_us: quantile(&mut run.latencies, 0.50),
        p99_us: quantile(&mut run.latencies, 0.99),
        ops_per_s: run.ops_per_s,
        closed_kernel_us: run.closed_kernel_us,
        open_kernel_us: run.open_kernel_us,
    };
    let values = ledger::values(&measured, &trace);
    eprintln!(
        "{:<38} {:>14}  {:<5} {:<6} should move",
        format!("{} (traced)", args.workload.name()),
        "value",
        "unit",
        "better"
    );
    for (row, v) in ledger::LAYERS.iter().zip(&values) {
        eprintln!(
            "{:<38} {:>14.3}  {:<5} {:<6} {} @ {}",
            row.name, v, row.unit, row.better, row.moves, row.on
        );
    }
    let metrics = ledger::LAYERS
        .iter()
        .zip(values)
        .map(|(row, v)| (row.name, v, row.unit))
        .collect();
    Ok((run, metrics))
}

/// Replay the run's requests through the layers in-process: set-up
/// untimed, then the closed-loop phase timed, in the flights the wire
/// carried.
fn replay(args: &Args, plans: &Plans, dir: &std::path::Path) -> Result<trace::Trace> {
    let mut replayer = trace::Replayer::open(dir, args.seed)?;
    replayer.run(&plans.setup.ops, FLIGHT, None)?;
    let mut t = trace::Trace::default();
    replayer.run(&plans.closed.ops, FLIGHT, Some(&mut t))?;
    Ok(t)
}

/// The run's provenance as one JSON line.
fn stamp(args: &Args, plans: &Plans) -> Result<String> {
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_default();
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let config = abase_lavastore::DbConfig::default();
    let io_threads = abase_core::FrontEndConfig::default().workers;
    Ok(format!(
        "{{\"tenantbench\": {{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_sha\": \"{}\", \"nproc\": {nproc}, \"rustc\": \"{rustc}\", \"server\": {{\"block_cache_bytes\": {}, \"io_threads\": {io_threads}, \"wal\": \"group commit, flushed to the OS every {} KiB or {} ms, no fsync per write\", \"memtable_bytes\": {}, \"stripes\": {}}}, \"open_rate\": {}, \"closed_ops\": {}, \"flight\": {FLIGHT}, \"flights_out\": {FLIGHTS_OUT}, \"generator_cpu\": {}, \"server_cpu\": {}, \"ref_kernel_us\": {REF_KERNEL_US}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        git_sha(),
        config.block_cache_bytes,
        config.group_commit_bytes >> 10,
        config.group_commit_interval_ms,
        config.memtable_bytes,
        config.n_stripes,
        args.workload.open_rate(),
        plans.closed.ops.len(),
        args.placement.generator,
        args.placement.server,
    ))
}

/// The checked-out commit, read from `.git` without running git; "unknown"
/// outside a git checkout.
fn git_sha() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(format!(".git/{reference}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(reference))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .unwrap_or_default(),
        None => head.to_string(),
    };
    let sha = sha.trim();
    if sha.is_empty() {
        "unknown".into()
    } else {
        sha.into()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the code name the same metrics, units and
    /// directions, and each workload's `why` states the open-loop rate the
    /// code runs.
    #[test]
    fn benchmark_json_matches_the_code() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let entries = |section: &str| {
            let start = json
                .find(&format!("\"{section}\": ["))
                .expect("section present");
            let end = start + json[start..].find(']').expect("section closed");
            json[start..end].matches("\"name\":").count()
        };
        assert_eq!(entries("end_to_end"), END_TO_END.len());
        for (name, unit) in END_TO_END {
            assert!(
                json.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name}"
            );
        }
        assert_eq!(entries("per_layer"), ledger::LAYERS.len());
        for row in &ledger::LAYERS {
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                row.name, row.unit, row.better
            );
            assert!(json.contains(&entry), "{entry}");
        }
        assert_eq!(entries("workloads"), Workload::ALL.len());
        for w in Workload::ALL {
            let start = json
                .find(&format!("{{\"name\": \"{}\", \"why\": \"", w.name()))
                .expect("workload listed");
            let why = &json[start..start + json[start..].find('}').expect("entry closed")];
            assert!(
                why.contains(&format!("open loop {}/s", w.open_rate())),
                "{why}"
            );
        }
    }

    #[test]
    fn closed_phase_length_is_fixed_by_seconds_not_speed() {
        let plans = Plans::build(Workload::HashScan, 3, 10);
        assert_eq!(plans.closed.ops.len(), 80_000 * 6);
        assert_eq!(plans.open.ops.len(), 15_000 * 4);
        let again = Plans::build(Workload::HashScan, 3, 10);
        assert_eq!(plans.closed.ops, again.closed.ops);
    }
}
