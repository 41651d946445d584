//! Connection-scaling of the epoll front end.
//!
//! Holds a mostly-idle fleet of clients (1k, then 10k) against an in-process
//! `RespServer` while a hot subset round-trips SET/GETs, and records:
//!
//! - hot-path ops/s and p50/p99 latency with the idle fleet attached,
//! - RSS and OS-thread deltas for carrying the fleet (the event loop adds
//!   ~zero threads),
//! - pipelined vs serial throughput on a single connection (the batch
//!   executor + one vectored write per batch must clear 2x).
//!
//! The committed `BENCH_conn.json` also holds a thread-per-connection row
//! at the 1k tier (+1000 threads): the last run of the serving model this
//! front end replaced, which this bench no longer produces.
//!
//! Writes `BENCH_conn.json` at the repo root. `ABASE_BENCH_SMOKE=1` shrinks
//! fleet sizes and op counts for CI smoke runs (numbers are then noisy and
//! only the JSON shape is asserted).

use abase_bench::banner;
use abase_core::{RespServer, TableEngine};
use abase_lavastore::DbConfig;
use abase_util::poller::raise_nofile_limit;
use abase_util::TestDir;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::Instant;

const PIPELINE_BATCH: usize = 64;

struct TierResult {
    idle_conns: usize,
    hot_clients: usize,
    ops_per_sec: f64,
    p50_micros: u64,
    p99_micros: u64,
    rss_delta_kb: i64,
    thread_delta: i64,
}

fn main() {
    let smoke = std::env::var("ABASE_BENCH_SMOKE").is_ok_and(|v| v == "1");
    banner(
        "CONN",
        "Connection scaling: epoll event-loop workers",
        "10k mostly-idle clients ride on a fixed worker pool; pipelining >= 2x serial",
    );

    // Each client costs two fds in this single process (client + server end).
    // Lift RLIMIT_NOFILE toward the hard cap and size the fleet to fit.
    // Reserve headroom for the engine's WAL/SST files, epoll/eventfd pairs,
    // and the hot clients before splitting the rest two-fds-per-connection.
    let nofile = raise_nofile_limit(65_536).unwrap_or(1_024);
    let fd_budget = (nofile.saturating_sub(2_048) / 2) as usize;
    let mut idle_tiers: Vec<usize> = if smoke {
        vec![50, 200]
    } else {
        vec![1_000, 10_000]
    };
    for tier in &mut idle_tiers {
        if *tier > fd_budget {
            eprintln!("nofile limit {nofile}: shrinking idle tier {tier} -> {fd_budget}");
            *tier = fd_budget;
        }
    }
    let (hot_clients, hot_ops) = if smoke { (4, 100) } else { (16, 1_500) };
    let pipeline_ops = if smoke { 2_048 } else { 64_000 };

    let results: Vec<TierResult> = idle_tiers
        .iter()
        .map(|&idle| run_tier(idle, hot_clients, hot_ops))
        .collect();
    for r in &results {
        println!(
            "event_loop idle={:>6}: {:>9.0} ops/s  p50 {:>5}us  p99 {:>6}us  rss +{:>7} kB  threads {:+}",
            r.idle_conns, r.ops_per_sec, r.p50_micros, r.p99_micros, r.rss_delta_kb, r.thread_delta
        );
    }

    let (pipelined, serial) = run_pipeline_comparison(pipeline_ops);
    let speedup = pipelined / serial;
    println!(
        "pipelined {pipelined:>9.0} ops/s  serial {serial:>9.0} ops/s  speedup {speedup:.2}x (batch {PIPELINE_BATCH})"
    );

    let rows = results
        .iter()
        .map(|r| {
            format!(
                "    {{\"arm\": \"event_loop\", \"idle_conns\": {}, \"hot_clients\": {}, \
                 \"ops_per_sec\": {:.1}, \"p50_micros\": {}, \"p99_micros\": {}, \
                 \"rss_delta_kb\": {}, \"thread_delta\": {}}}",
                r.idle_conns,
                r.hot_clients,
                r.ops_per_sec,
                r.p50_micros,
                r.p99_micros,
                r.rss_delta_kb,
                r.thread_delta
            )
        })
        .collect::<Vec<_>>()
        .join(",\n");
    let json = format!(
        "{{\n  \"bench\": \"conn_scaling\",\n  \"smoke\": {smoke},\n  \
         \"nofile_limit\": {nofile},\n  \"hot_ops_per_client\": {hot_ops},\n  \
         \"pipeline\": {{\"batch\": {PIPELINE_BATCH}, \"ops\": {pipeline_ops}, \
         \"pipelined_ops_per_sec\": {pipelined:.1}, \"serial_ops_per_sec\": {serial:.1}, \
         \"speedup\": {speedup:.3}}},\n  \"results\": [\n{rows}\n  ]\n}}\n"
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_conn.json");
    std::fs::write(out, &json).expect("write BENCH_conn.json");
    println!("wrote {out}");
}

/// One fleet tier: start a server, attach `idle` silent clients, then time
/// `hot_clients` serial SET/GET round-trip loops against it.
fn run_tier(idle: usize, hot_clients: usize, hot_ops: usize) -> TierResult {
    let dir = TestDir::new(&format!("conn-bench-{idle}"));
    // Default (not small_for_tests) config: big memtables keep the SST count
    // — and so the engine's fd usage — near zero at 10k connections.
    let engine = Arc::new(TableEngine::open(dir.path(), DbConfig::default()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .max_clients(idle + hot_clients + 64);
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());

    let (rss_before, threads_before) = proc_status();
    let fleet = connect_fleet(addr, idle);
    // Every idle client PINGs once so each one is registered with a worker
    // before measurement starts.
    let (rss_after, threads_after) = proc_status();

    // Hot subset: dedicated connections doing serial SET/GET round-trips,
    // per-op latency recorded client-side.
    let started = Instant::now();
    let mut latencies: Vec<u64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..hot_clients)
            .map(|c| {
                scope.spawn(move || {
                    let mut conn = client(addr);
                    let mut lat = Vec::with_capacity(hot_ops);
                    for i in 0..hot_ops {
                        let set = encode(&["SET", &format!("h{c}-{i}"), "v"]);
                        let get = encode(&["GET", &format!("h{c}-{i}")]);
                        let t0 = Instant::now();
                        roundtrip(&mut conn, &set, b"+OK\r\n");
                        roundtrip(&mut conn, &get, b"$1\r\nv\r\n");
                        lat.push(t0.elapsed().as_micros() as u64);
                    }
                    lat
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    });
    let elapsed = started.elapsed().as_secs_f64();
    latencies.sort_unstable();
    let pct = |p: f64| latencies[((latencies.len() - 1) as f64 * p) as usize];
    let result = TierResult {
        idle_conns: idle,
        hot_clients,
        // Each latency sample covers a SET + a GET: two commands.
        ops_per_sec: (hot_clients * hot_ops * 2) as f64 / elapsed,
        p50_micros: pct(0.50),
        p99_micros: pct(0.99),
        rss_delta_kb: rss_after - rss_before,
        thread_delta: threads_after - threads_before,
    };
    drop(fleet);
    handle.shutdown();
    let _ = runner.join();
    result
}

/// Same total ops through one connection, pipelined in `PIPELINE_BATCH`-deep
/// flights vs strictly serial request/response. Returns (pipelined, serial)
/// ops/s.
fn run_pipeline_comparison(ops: usize) -> (f64, f64) {
    let dir = TestDir::new("conn-bench-pipeline");
    let engine = Arc::new(TableEngine::open(dir.path(), DbConfig::default()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0").unwrap();
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());

    let mut conn = client(addr);
    roundtrip(&mut conn, &encode(&["SET", "pk", "pv"]), b"+OK\r\n");
    let get = encode(&["GET", "pk"]);
    let get_reply: &[u8] = b"$2\r\npv\r\n";

    // Serial: one command in flight at a time.
    let started = Instant::now();
    for _ in 0..ops {
        roundtrip(&mut conn, &get, get_reply);
    }
    let serial = ops as f64 / started.elapsed().as_secs_f64();

    // Pipelined: PIPELINE_BATCH commands per write, one read pass per batch.
    let mut batch = Vec::with_capacity(get.len() * PIPELINE_BATCH);
    for _ in 0..PIPELINE_BATCH {
        batch.extend_from_slice(&get);
    }
    let flights = ops / PIPELINE_BATCH;
    let started = Instant::now();
    for _ in 0..flights {
        conn.write_all(&batch).unwrap();
        read_reply_bytes(&mut conn, get_reply.len() * PIPELINE_BATCH);
    }
    let pipelined = (flights * PIPELINE_BATCH) as f64 / started.elapsed().as_secs_f64();

    drop(conn);
    handle.shutdown();
    let _ = runner.join();
    (pipelined, serial)
}

/// Open `n` connections, PING each once, and keep them all alive (idle).
fn connect_fleet(addr: SocketAddr, n: usize) -> Vec<TcpStream> {
    let openers = 8.min(n.max(1));
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..openers)
            .map(|o| {
                let per = n / openers + usize::from(o < n % openers);
                scope.spawn(move || {
                    let mut conns = Vec::with_capacity(per);
                    for _ in 0..per {
                        let mut conn = client(addr);
                        roundtrip(&mut conn, &encode(&["PING"]), b"+PONG\r\n");
                        conns.push(conn);
                    }
                    conns
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect()
    })
}

fn client(addr: SocketAddr) -> TcpStream {
    // EMFILE/backlog pressure at 10k: retry briefly instead of giving up.
    for _ in 0..50 {
        match TcpStream::connect(addr) {
            Ok(conn) => {
                conn.set_nodelay(true).unwrap();
                return conn;
            }
            Err(_) => std::thread::sleep(std::time::Duration::from_millis(10)),
        }
    }
    panic!("could not connect to {addr}");
}

fn encode(parts: &[&str]) -> Vec<u8> {
    let mut out = format!("*{}\r\n", parts.len()).into_bytes();
    for p in parts {
        out.extend_from_slice(format!("${}\r\n{p}\r\n", p.len()).as_bytes());
    }
    out
}

/// Write `request` and read back exactly `reply` (every command in this
/// bench has a fixed, known reply — byte-exact reads keep the timing loop
/// free of parsing and immune to reply-boundary splits).
fn roundtrip(conn: &mut TcpStream, request: &[u8], reply: &[u8]) {
    conn.write_all(request).unwrap();
    let mut buf = vec![0u8; reply.len()];
    conn.read_exact(&mut buf).unwrap();
    assert_eq!(&buf[..], reply, "unexpected reply");
}

/// Drain exactly `total` reply bytes (a pipelined batch's worth).
fn read_reply_bytes(conn: &mut TcpStream, mut total: usize) {
    let mut chunk = [0u8; 64 * 1024];
    while total > 0 {
        let got = conn.read(&mut chunk[..total.min(64 * 1024)]).unwrap();
        assert!(got > 0, "server closed with {total} reply bytes pending");
        total -= got;
    }
}

/// (VmRSS kB, thread count) from /proc/self/status.
fn proc_status() -> (i64, i64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |key: &str| {
        status
            .lines()
            .find(|l| l.starts_with(key))
            .and_then(|l| l.split_whitespace().nth(1))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0)
    };
    (field("VmRSS:"), field("Threads:"))
}
