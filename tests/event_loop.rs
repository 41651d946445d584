//! End-to-end behavior of the event-driven RESP front end: partial-frame
//! resume across `WouldBlock`, interleaved pipelined batches on one worker,
//! write-buffer backpressure, the max-clients cap, idle-connection reaping,
//! PSYNC handing the socket off the event loop, a pipelined batch crossing
//! an offload, and deterministic shutdown.
//!
//! Invariants under test (see TESTING.md §Event-loop front end): commands on
//! one connection are never reordered, a slow reader never stalls its
//! worker's other connections, and shutdown returns promptly with zero
//! inbound connections.

use abase::core::{ReplicationControl, RespServer, TableEngine};
use abase::lavastore::DbConfig;
use abase::proto::RespValue;
use abase::replication::{GroupConfig, ReplicaGroup, SocketFollower, WriteConcern};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn unique_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "abase-evloop-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn cmd(parts: &[&str]) -> Vec<u8> {
    let mut out = format!("*{}\r\n", parts.len()).into_bytes();
    for p in parts {
        out.extend_from_slice(format!("${}\r\n{p}\r\n", p.len()).as_bytes());
    }
    out
}

fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> RespValue {
    stream.write_all(request).unwrap();
    read_reply(stream)
}

fn read_reply(stream: &mut TcpStream) -> RespValue {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed unexpectedly");
        buf.extend_from_slice(&chunk[..n]);
        if let Some((value, _)) = RespValue::parse(&buf).unwrap() {
            return value;
        }
    }
}

fn read_replies(stream: &mut TcpStream, want: usize) -> Vec<RespValue> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 16 * 1024];
    let mut replies = Vec::new();
    while replies.len() < want {
        let n = stream.read(&mut chunk).unwrap();
        assert!(
            n > 0,
            "server closed with {} of {want} replies",
            replies.len()
        );
        buf.extend_from_slice(&chunk[..n]);
        while let Some((value, used)) = RespValue::parse(&buf).unwrap() {
            replies.push(value);
            buf.drain(..used);
        }
    }
    replies
}

/// Bind a single-worker server so every connection shares one event loop —
/// the strictest setting for the isolation/backpressure invariants.
fn start_single_worker(tag: &str) -> (std::path::PathBuf, std::net::SocketAddr) {
    let dir = unique_dir(tag);
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(1);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    (dir, addr)
}

#[test]
fn partial_frames_resume_across_wouldblock_boundaries() {
    let (_dir, addr) = start_single_worker("partial");
    let mut client = TcpStream::connect(addr).unwrap();
    client.set_nodelay(true).unwrap();
    roundtrip(&mut client, &cmd(&["SET", "key", "value"]));
    // Dribble one GET a few bytes at a time: every pause parks the parser on
    // a partial frame (the worker sees readable, parses nothing, and must
    // keep the connection's buffer intact for the next event).
    let request = cmd(&["GET", "key"]);
    for piece in request.chunks(3) {
        client.write_all(piece).unwrap();
        client.flush().unwrap();
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(read_reply(&mut client), RespValue::bulk("value"));
}

#[test]
fn interleaved_pipelined_batches_stay_ordered_per_connection() {
    let (_dir, addr) = start_single_worker("interleave");
    let mut a = TcpStream::connect(addr).unwrap();
    let mut b = TcpStream::connect(addr).unwrap();
    // Both clients fire a multi-command batch at the same worker; each
    // connection's replies must come back complete and in wire order.
    let mut batch_a = Vec::new();
    let mut batch_b = Vec::new();
    for i in 0..20 {
        batch_a.extend_from_slice(&cmd(&["SET", &format!("a{i}"), &format!("va{i}")]));
        batch_a.extend_from_slice(&cmd(&["GET", &format!("a{i}")]));
        batch_b.extend_from_slice(&cmd(&["SET", &format!("b{i}"), &format!("vb{i}")]));
        batch_b.extend_from_slice(&cmd(&["GET", &format!("b{i}")]));
    }
    a.write_all(&batch_a).unwrap();
    b.write_all(&batch_b).unwrap();
    let replies_a = read_replies(&mut a, 40);
    let replies_b = read_replies(&mut b, 40);
    for i in 0..20 {
        assert_eq!(replies_a[2 * i], RespValue::ok(), "a#{i}");
        assert_eq!(
            replies_a[2 * i + 1],
            RespValue::bulk(format!("va{i}")),
            "a#{i}"
        );
        assert_eq!(replies_b[2 * i], RespValue::ok(), "b#{i}");
        assert_eq!(
            replies_b[2 * i + 1],
            RespValue::bulk(format!("vb{i}")),
            "b#{i}"
        );
    }
}

#[test]
fn slow_reader_backpressure_does_not_stall_the_worker() {
    let (_dir, addr) = start_single_worker("backpressure");
    let mut slow = TcpStream::connect(addr).unwrap();
    let mut brisk = TcpStream::connect(addr).unwrap();
    // ~64 KiB value; 64 pipelined GETs = ~4 MiB of replies, way past the
    // 1 MiB write-buffer high-water mark.
    let value = "x".repeat(64 * 1024);
    roundtrip(&mut slow, &cmd(&["SET", "big", &value]));
    let mut batch = Vec::new();
    for _ in 0..64 {
        batch.extend_from_slice(&cmd(&["GET", "big"]));
    }
    slow.write_all(&batch).unwrap();
    // The slow client reads nothing; its replies pile up server-side until
    // the connection throttles. The other connection on the SAME worker must
    // keep round-tripping promptly.
    std::thread::sleep(Duration::from_millis(100));
    for i in 0..10 {
        let started = Instant::now();
        let reply = roundtrip(&mut brisk, &cmd(&["SET", &format!("k{i}"), "v"]));
        assert_eq!(reply, RespValue::ok());
        assert!(
            started.elapsed() < Duration::from_secs(2),
            "worker stalled behind the slow reader"
        );
    }
    // Once the slow client drains, every queued reply arrives intact and in
    // order (the throttled connection resumed reading the rest of its batch).
    let replies = read_replies(&mut slow, 64);
    for (i, reply) in replies.iter().enumerate() {
        match reply {
            RespValue::Bulk(Some(b)) => assert_eq!(b.len(), value.len(), "reply {i}"),
            other => panic!("reply {i}: expected bulk, got {other:?}"),
        }
    }
}

#[test]
fn max_clients_cap_refuses_with_the_redis_error() {
    let dir = unique_dir("maxclients");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(1)
        .max_clients(2);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    let mut c1 = TcpStream::connect(addr).unwrap();
    let mut c2 = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut c1, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    assert_eq!(
        roundtrip(&mut c2, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    // Third connection: accepted at the TCP level, refused at the RESP level.
    let mut c3 = TcpStream::connect(addr).unwrap();
    c3.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    let mut buf = Vec::new();
    let mut chunk = [0u8; 256];
    loop {
        match c3.read(&mut chunk) {
            Ok(0) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => panic!("no refusal before close: {e}"),
        }
        if buf.ends_with(b"\r\n") {
            break;
        }
    }
    assert_eq!(&buf[..], b"-ERR max number of clients reached\r\n");
    // Closing one admitted client frees a slot.
    drop(c1);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let mut c4 = TcpStream::connect(addr).unwrap();
        c4.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        match roundtrip(&mut c4, &cmd(&["PING"])) {
            RespValue::Simple(s) if s == "PONG" => break,
            _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            other => panic!("slot never freed: {other:?}"),
        }
    }
}

#[test]
fn idle_connections_are_reaped_by_the_timer_wheel() {
    let dir = unique_dir("idlereap");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(1)
        .idle_timeout(Duration::from_millis(200));
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    let mut idle = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut idle, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    // Stay silent past the timeout: the reaper must close the connection.
    idle.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let started = Instant::now();
    let mut chunk = [0u8; 16];
    match idle.read(&mut chunk) {
        Ok(0) => {}
        Ok(n) => panic!("unexpected {n} bytes from an idle connection"),
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        Err(e) => panic!("expected eviction, read failed with {e}"),
    }
    assert!(
        started.elapsed() < Duration::from_secs(8),
        "idle connection outlived the reaper"
    );
    // An active connection on the same server survives by staying chatty.
    let mut busy = TcpStream::connect(addr).unwrap();
    for _ in 0..8 {
        assert_eq!(
            roundtrip(&mut busy, &cmd(&["PING"])),
            RespValue::Simple("PONG".into())
        );
        std::thread::sleep(Duration::from_millis(60));
    }
}

#[test]
fn shutdown_with_zero_inbound_connections_returns_promptly() {
    let dir = unique_dir("shutdown");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0").unwrap();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());
    std::thread::sleep(Duration::from_millis(50));
    // No connection ever arrives; the waker, not a connection attempt, must
    // unblock the accept loop and every worker.
    let started = Instant::now();
    handle.shutdown();
    runner.join().unwrap().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(3),
        "shutdown needed a connection attempt to complete"
    );
}

#[test]
fn shutdown_also_drops_connected_clients() {
    let dir = unique_dir("shutdown-conns");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(2);
    let addr = server.local_addr().unwrap();
    let handle = server.shutdown_handle();
    let runner = std::thread::spawn(move || server.run());
    let mut client = TcpStream::connect(addr).unwrap();
    assert_eq!(
        roundtrip(&mut client, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
    let started = Instant::now();
    handle.shutdown();
    runner.join().unwrap().unwrap();
    assert!(started.elapsed() < Duration::from_secs(3));
    // The dropped server side surfaces as EOF/reset on the client.
    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut chunk = [0u8; 16];
    match client.read(&mut chunk) {
        Ok(0) | Err(_) => {}
        Ok(n) => panic!("unexpected {n} bytes after shutdown"),
    }
}

/// A single-worker server whose engine leads a quorum replica group, with a
/// remote follower attached over PSYNC and pumped on its own thread: every
/// client write offloads and waits for that follower's ack. Dropping it
/// stops the pump.
struct QuorumServer {
    addr: std::net::SocketAddr,
    stop: Arc<AtomicBool>,
    pump: Option<std::thread::JoinHandle<()>>,
}

impl QuorumServer {
    fn start(tag: &str) -> Self {
        let dir = unique_dir(tag);
        let fdir = unique_dir(&format!("{tag}-follower"));
        let group = ReplicaGroup::bootstrap(
            1,
            &dir,
            &[1],
            GroupConfig {
                write_concern: WriteConcern::Quorum,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_secs(5),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        // ONE worker: if PSYNC parked the replica stream on the event loop,
        // no regular client could be served concurrently.
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .io_threads(1)
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut follower = SocketFollower::connect(
            fdir.join("replica"),
            DbConfig::small_for_tests(),
            &addr.to_string(),
            77,
            0,
        )
        .unwrap();
        let stop = Arc::new(AtomicBool::new(false));
        let pump = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    if follower.pump().is_err() {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
            })
        };
        QuorumServer {
            addr,
            stop,
            pump: Some(pump),
        }
    }
}

impl Drop for QuorumServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

#[test]
fn psync_hands_the_socket_off_the_single_worker_event_loop() {
    let server = QuorumServer::start("psync-handoff");
    // While the replica stream lives on its dedicated thread, the single
    // event-loop worker keeps serving clients — including a quorum write
    // that needs the remote follower's ack (offloaded, then reinjected).
    let mut client = TcpStream::connect(server.addr).unwrap();
    let reply = roundtrip(&mut client, &cmd(&["SET", "k", "v"]));
    assert_eq!(reply, RespValue::ok(), "quorum write through the handoff");
    let reply = roundtrip(&mut client, &cmd(&["WAIT", "1", "5000"]));
    assert_eq!(reply, RespValue::Integer(1));
    // The same connection continues normal serving after its offloads.
    assert_eq!(
        roundtrip(&mut client, &cmd(&["GET", "k"])),
        RespValue::bulk("v")
    );
    assert_eq!(
        roundtrip(&mut client, &cmd(&["PING"])),
        RespValue::Simple("PONG".into())
    );
}

#[test]
fn pipelined_batch_crossing_an_offload_keeps_wire_order() {
    let server = QuorumServer::start("batch-offload");
    let mut client = TcpStream::connect(server.addr).unwrap();
    // One write, four commands: the worker serves the first GET, stops at
    // the replicated SET, and the offload thread serves the SET (blocking
    // on the follower's ack), the second GET and the PING in wire order.
    let mut batch = Vec::new();
    batch.extend_from_slice(&cmd(&["GET", "a"]));
    batch.extend_from_slice(&cmd(&["SET", "a", "v"]));
    batch.extend_from_slice(&cmd(&["GET", "a"]));
    batch.extend_from_slice(&cmd(&["PING"]));
    client.write_all(&batch).unwrap();
    assert_eq!(
        read_replies(&mut client, 4),
        vec![
            RespValue::Bulk(None),
            RespValue::ok(),
            RespValue::bulk("v"),
            RespValue::Simple("PONG".into()),
        ]
    );
    // The connection went back to its worker: a second pipelined batch with
    // no blocking command is read and served on the event loop.
    let mut batch = Vec::new();
    batch.extend_from_slice(&cmd(&["GET", "a"]));
    batch.extend_from_slice(&cmd(&["PING"]));
    client.write_all(&batch).unwrap();
    assert_eq!(
        read_replies(&mut client, 2),
        vec![RespValue::bulk("v"), RespValue::Simple("PONG".into())]
    );
}

#[test]
fn info_reports_connected_clients_and_io_threads() {
    let dir = unique_dir("info-frontend");
    let engine = Arc::new(TableEngine::open(&dir, DbConfig::small_for_tests()).unwrap());
    let server = RespServer::bind(engine, "127.0.0.1:0")
        .unwrap()
        .io_threads(3);
    let addr = server.local_addr().unwrap();
    std::thread::spawn(move || server.run());
    let mut client = TcpStream::connect(addr).unwrap();
    let info = match roundtrip(&mut client, &cmd(&["INFO", "server"])) {
        RespValue::Bulk(Some(b)) => String::from_utf8(b.to_vec()).unwrap(),
        other => panic!("expected bulk INFO, got {other:?}"),
    };
    assert!(info.contains("connected_clients:1"), "{info}");
    assert!(info.contains("io_threads:3"), "{info}");
    assert!(info.contains("total_connections_received:"), "{info}");
    assert!(info.contains("evicted_clients:0"), "{info}");
}
