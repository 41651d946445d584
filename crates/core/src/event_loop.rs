//! The event-driven front end: epoll accept loop + worker pool.
//!
//! A [`RespServer`](crate::server::RespServer) serves every client
//! connection from a **small, fixed pool of event-loop
//! workers**: the accept loop shards fresh sockets round-robin across
//! workers, each worker drives its connections' state machines
//! ([`Conn`](crate::conn::Conn)) off one [`Poller`], and an idle connection
//! costs one registered fd — not an OS thread and its stack. 10k mostly-idle
//! clients are served by `workers + 1` threads.
//!
//! Blocking paths leave the loop instead of stalling it: a replicated write,
//! fenced `WAIT` or `PSYNC` moves its connection to a short-lived offload
//! thread for the rest of the batch (commands stay in wire order — the
//! connection is off the poller while offloaded). The offload thread hands
//! the connection back to its worker, or, for `PSYNC`, turns the socket into
//! a replica stream for good. `serve_replica_stream` and follow-mode
//! pumps keep their dedicated threads: they are few and throughput-bound.
//!
//! Shutdown is deterministic: [`ShutdownHandle::shutdown`] flips the flag
//! and writes every poller's eventfd waker, so the accept loop and all
//! workers return promptly even if no connection ever arrives again (the
//! old accept loop only noticed "after the next connection attempt").

use crate::conn::{Conn, ConnGuard, Step};
use crate::metrics;
use crate::server::{serve_replica_connection, ConnCtx};
use abase_proto::Command;
use abase_util::lockrank::{rank, RankedMutex};
use abase_util::poller::{Events, Interest, Poller, Waker};
use std::collections::HashMap;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Front-end worker pool size and guardrails.
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// Event-loop worker count (clamped to 1..=16).
    pub workers: usize,
    /// Connection cap: accepts beyond it are refused with
    /// `-ERR max number of clients reached` (Redis semantics).
    pub max_clients: usize,
    /// Close connections idle longer than this (`None` disables the
    /// reaper). Driven by the event loop's timer wheel; granularity is
    /// `timeout / 32`, floored at 1 ms.
    pub idle_timeout: Option<Duration>,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
                .clamp(2, 8),
            max_clients: 10_000,
            idle_timeout: None,
        }
    }
}

/// Interned per-worker metric labels (bounded cardinality: worker counts are
/// clamped to 16).
const WORKER_LABELS: [&str; 16] = [
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15",
];

pub(crate) fn worker_label(i: usize) -> &'static str {
    WORKER_LABELS.get(i).copied().unwrap_or("overflow")
}

/// Shared shutdown signal: a flag plus the eventfd wakers of every poller
/// that must notice it.
#[derive(Debug)]
pub(crate) struct Shutdown {
    flag: AtomicBool,
    wakers: RankedMutex<Vec<Arc<Waker>>>,
}

impl Default for Shutdown {
    fn default() -> Self {
        Shutdown {
            flag: AtomicBool::new(false),
            wakers: RankedMutex::new(rank::EVENT_WAKERS, Vec::new()),
        }
    }
}

impl Shutdown {
    pub(crate) fn is_set(&self) -> bool {
        // ORDER: Acquire pairs with the Release store in `trigger`; a worker
        // that observes the flag also observes everything the shutdown
        // caller wrote before triggering.
        self.flag.load(Ordering::Acquire)
    }

    fn subscribe(&self, waker: Arc<Waker>) {
        self.wakers.lock().push(waker);
    }

    pub(crate) fn trigger(&self) {
        // ORDER: Release pairs with the Acquire load in `is_set`.
        self.flag.store(true, Ordering::Release);
        for waker in self.wakers.lock().iter() {
            waker.wake();
        }
    }
}

/// Stops a running [`RespServer`](crate::server::RespServer) deterministically:
/// the accept loop and every event-loop worker are woken through their
/// pollers' eventfds and joined — no "after the next connection attempt"
/// window.
#[derive(Debug, Clone)]
pub struct ShutdownHandle {
    pub(crate) inner: Arc<Shutdown>,
}

impl ShutdownHandle {
    /// Signal shutdown. `RespServer::run` returns once the accept loop and
    /// workers have exited (open connections are dropped).
    pub fn shutdown(&self) {
        self.inner.trigger();
    }

    /// Whether shutdown has been signalled.
    pub fn is_shutdown(&self) -> bool {
        self.inner.is_set()
    }
}

/// One worker's cross-thread mailbox: the accept loop and offload threads
/// push connections here and wake the worker's poller.
pub(crate) struct WorkerShared {
    waker: Arc<Waker>,
    inject: RankedMutex<Vec<Conn>>,
}

impl WorkerShared {
    fn new() -> std::io::Result<Self> {
        Ok(WorkerShared {
            waker: Arc::new(Waker::new()?),
            inject: RankedMutex::new(rank::EVENT_INJECT, Vec::new()),
        })
    }

    fn send(&self, conn: Conn) {
        self.inject.lock().push(conn);
        self.waker.wake();
    }
}

const TOKEN_LISTENER: u64 = u64::MAX - 1;
const TOKEN_WAKER: u64 = u64::MAX;

/// Run the front end to completion (shutdown): the calling thread becomes
/// the accept loop, workers get their own threads.
pub(crate) fn run_front_end(
    listener: TcpListener,
    ctx: Arc<ConnCtx>,
    config: FrontEndConfig,
    shutdown: Arc<Shutdown>,
) -> std::io::Result<()> {
    let n_workers = config.workers.clamp(1, 16);
    let mut workers = Vec::with_capacity(n_workers);
    for _ in 0..n_workers {
        let shared = Arc::new(WorkerShared::new()?);
        shutdown.subscribe(Arc::clone(&shared.waker));
        workers.push(shared);
    }
    let mut handles = Vec::with_capacity(n_workers);
    for (idx, shared) in workers.iter().enumerate() {
        let shared = Arc::clone(shared);
        let ctx = Arc::clone(&ctx);
        let shutdown = Arc::clone(&shutdown);
        let all = workers.clone();
        let idle = config.idle_timeout;
        handles.push(
            std::thread::Builder::new()
                .name(format!("abase-io-{idx}"))
                .spawn(move || worker_loop(idx, shared, ctx, shutdown, idle, all))
                // INVARIANT: spawn fails only on thread-resource exhaustion at
                // startup; the server cannot run without its worker pool.
                .expect("spawn event-loop worker"),
        );
    }
    let result = accept_loop(listener, ctx, config, Arc::clone(&shutdown), workers);
    // The accept loop exits only on shutdown or a fatal poll error; either
    // way the workers must come down with it.
    shutdown.trigger();
    for handle in handles {
        let _ = handle.join();
    }
    result
}

/// Accept connections until shutdown, sharding sockets round-robin across
/// the event-loop workers. The max-clients cap and deterministic
/// (waker-driven) shutdown apply here.
fn accept_loop(
    listener: TcpListener,
    ctx: Arc<ConnCtx>,
    config: FrontEndConfig,
    shutdown: Arc<Shutdown>,
    workers: Vec<Arc<WorkerShared>>,
) -> std::io::Result<()> {
    listener.set_nonblocking(true)?;
    let poller = Poller::new()?;
    let waker = Arc::new(Waker::new()?);
    shutdown.subscribe(Arc::clone(&waker));
    poller.register(listener.as_raw_fd(), TOKEN_LISTENER, Interest::READABLE)?;
    poller.register(waker.raw_fd(), TOKEN_WAKER, Interest::READABLE)?;
    let mut events = Events::with_capacity(64);
    let mut next_worker = 0usize;
    while !shutdown.is_set() {
        poller.poll(&mut events, Some(Duration::from_millis(400)))?;
        if shutdown.is_set() {
            break;
        }
        let mut accept_ready = false;
        for ev in events.iter() {
            match ev.token {
                TOKEN_WAKER => waker.drain(),
                TOKEN_LISTENER => accept_ready = true,
                _ => {}
            }
        }
        if !accept_ready {
            continue;
        }
        loop {
            let stream = match listener.accept() {
                Ok((stream, _)) => stream,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // EMFILE/ENFILE etc: back off instead of spinning on a
                // level-triggered listener that stays "readable".
                Err(_) => {
                    #[allow(clippy::disallowed_methods)]
                    std::thread::sleep(Duration::from_millis(5));
                    break;
                }
            };
            // Request/reply traffic is small-frame; Nagle + delayed-ACK
            // would add tens of ms per exchange.
            stream.set_nodelay(true).ok();
            if ctx.stats.open.load(Ordering::Relaxed) >= config.max_clients as i64 {
                refuse_over_capacity(stream, &ctx);
                continue;
            }
            let idx = next_worker;
            next_worker = (next_worker + 1) % workers.len();
            if stream.set_nonblocking(true).is_err() {
                continue;
            }
            let guard = ConnGuard::open(Arc::clone(&ctx.stats), worker_label(idx));
            workers[idx].send(Conn::new(stream, idx, guard));
        }
    }
    Ok(())
}

/// Refuse a connection over the max-clients cap, Redis-style.
fn refuse_over_capacity(mut stream: TcpStream, ctx: &ConnCtx) {
    ctx.stats.evicted.fetch_add(1, Ordering::Relaxed);
    metrics::CONN_EVICTED.inc("accept");
    let _ = stream.write_all(b"-ERR max number of clients reached\r\n");
}

/// One event-loop worker: drives its shard of connections off a single
/// poller until shutdown.
fn worker_loop(
    idx: usize,
    shared: Arc<WorkerShared>,
    ctx: Arc<ConnCtx>,
    shutdown: Arc<Shutdown>,
    idle_timeout: Option<Duration>,
    workers: Vec<Arc<WorkerShared>>,
) {
    let label = worker_label(idx);
    let poller = match Poller::new() {
        Ok(p) => p,
        Err(_) => return,
    };
    if poller
        .register(shared.waker.raw_fd(), TOKEN_WAKER, Interest::READABLE)
        .is_err()
    {
        return;
    }
    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut wheel = idle_timeout.map(TimerWheel::new);
    let mut events = Events::with_capacity(1024);
    loop {
        let timeout = wheel
            .as_ref()
            .map(|w| w.poll_timeout())
            .unwrap_or(Duration::from_millis(400));
        if poller.poll(&mut events, Some(timeout)).is_err() {
            break;
        }
        if shutdown.is_set() {
            break;
        }
        let mut woke = false;
        // epoll reports at most one event per fd per wait, so every token in
        // the batch is distinct and `remove` cannot race a duplicate.
        let batch: Vec<_> = events.iter().collect();
        for ev in batch {
            if ev.token == TOKEN_WAKER {
                woke = true;
                continue;
            }
            let Some(mut conn) = conns.remove(&ev.token) else {
                continue;
            };
            let step = conn.on_event(ev.readable, ev.writable, &ctx);
            settle(step, conn, &poller, &mut conns, &mut wheel, &ctx, &workers);
        }
        if woke {
            shared.waker.drain();
            let fresh: Vec<Conn> = std::mem::take(&mut *shared.inject.lock());
            for mut conn in fresh {
                // A reinjected connection may already hold buffered work and
                // unread socket bytes: drive it once before (re-)registering
                // so nothing waits for a readiness edge that already passed.
                let step = conn.on_event(true, true, &ctx);
                settle(step, conn, &poller, &mut conns, &mut wheel, &ctx, &workers);
            }
        }
        if let Some(wheel) = wheel.as_mut() {
            reap_idle(wheel, &mut conns, &poller, &ctx, label);
        }
    }
    // Shutdown: deregister and drop every connection (guards decrement the
    // open-connection accounting).
    for (_, conn) in conns.drain() {
        let _ = poller.deregister(conn.stream.as_raw_fd());
    }
}

/// Apply a state-machine [`Step`]: keep the connection registered with the
/// interest it now wants, close it, or move it off the loop.
fn settle(
    step: Step,
    mut conn: Conn,
    poller: &Poller,
    conns: &mut HashMap<u64, Conn>,
    wheel: &mut Option<TimerWheel>,
    ctx: &Arc<ConnCtx>,
    workers: &[Arc<WorkerShared>],
) {
    let fd = conn.stream.as_raw_fd();
    let token = fd as u64;
    match step {
        Step::Continue => {
            let want = (conn.wants_read(), conn.wants_write());
            let interest = match want {
                (true, false) => Interest::READABLE,
                (false, true) => Interest::WRITABLE,
                _ => Interest::BOTH,
            };
            // Fresh/reinjected connections need ADD; ones just pulled out of
            // the map are still registered and need MOD only on change.
            let failed = if conn.registered {
                conn.installed_interest != want && poller.modify(fd, token, interest).is_err()
            } else {
                poller.register(fd, token, interest).is_err()
            };
            if failed {
                // Unservable without a registration; drop it.
                return;
            }
            conn.registered = true;
            conn.installed_interest = want;
            if let Some(wheel) = wheel.as_mut() {
                wheel.schedule(token);
            }
            conns.insert(token, conn);
        }
        Step::Close => {
            if conn.registered {
                let _ = poller.deregister(fd);
            }
        }
        Step::Offload => {
            if conn.registered {
                let _ = poller.deregister(fd);
                conn.registered = false;
            }
            let ctx = Arc::clone(ctx);
            let home = Arc::clone(&workers[conn.worker]);
            let _ = std::thread::Builder::new()
                .name("abase-offload".into())
                .spawn(move || offload_batch(conn, ctx, home));
        }
    }
}

/// Finish a batch whose next command may block, off the event loop: execute
/// the remaining parsed frames in order with a blocking socket, then hand
/// the connection back to its worker. `PSYNC` upgrades the connection into
/// a replica stream and never returns.
fn offload_batch(mut conn: Conn, ctx: Arc<ConnCtx>, home: Arc<WorkerShared>) {
    if conn.stream.set_nonblocking(false).is_err() {
        return;
    }
    if conn.flush_blocking().is_err() {
        return;
    }
    while let Some(value) = conn.pop_pending() {
        let command = Command::from_resp(&value);
        if let (Ok(Command::PSync { position }), Some(repl)) =
            (&command, ctx.replication.as_deref())
        {
            let position = *position;
            let replica_id = conn.state.replica_id;
            let leftover = conn.take_leftover();
            let Conn { stream, guard, .. } = conn;
            let _ = serve_replica_connection(stream, leftover, position, replica_id, repl);
            drop(guard);
            return;
        }
        let reply = conn.execute(&value, command, &ctx);
        conn.push_reply(&reply);
        if conn.flush_blocking().is_err() {
            return;
        }
    }
    if conn.stream.set_nonblocking(true).is_err() {
        return;
    }
    home.send(conn);
}

/// Reap connections idle past the timeout. Lazy timer wheel: tokens are
/// re-scheduled on their slot's expiry if they were active since.
fn reap_idle(
    wheel: &mut TimerWheel,
    conns: &mut HashMap<u64, Conn>,
    poller: &Poller,
    ctx: &ConnCtx,
    label: &'static str,
) {
    let now = Instant::now();
    let due = wheel.advance(now);
    for token in due {
        let Some(conn) = conns.get(&token) else {
            continue; // closed since it was scheduled
        };
        if now.duration_since(conn.last_active) >= wheel.timeout {
            let Some(conn) = conns.remove(&token) else {
                continue;
            };
            let _ = poller.deregister(conn.stream.as_raw_fd());
            ctx.stats.evicted.fetch_add(1, Ordering::Relaxed);
            metrics::CONN_EVICTED.inc(label);
        } else {
            wheel.schedule(token);
        }
    }
}

/// A coarse hashed timer wheel driving the idle reaper: 64 slots, tick =
/// `timeout / 32` (floored at 1 ms). Insertions are O(1); expiry checks are
/// lazy (a still-active connection is just pushed one timeout further).
pub(crate) struct TimerWheel {
    timeout: Duration,
    tick: Duration,
    slots: Vec<Vec<u64>>,
    cursor: usize,
    last_advance: Instant,
}

impl TimerWheel {
    const SLOTS: usize = 64;

    pub(crate) fn new(timeout: Duration) -> Self {
        let tick = (timeout / 32).max(Duration::from_millis(1));
        TimerWheel {
            timeout,
            tick,
            slots: (0..Self::SLOTS).map(|_| Vec::new()).collect(),
            cursor: 0,
            last_advance: Instant::now(),
        }
    }

    /// Schedule `token` to be checked one timeout from now.
    pub(crate) fn schedule(&mut self, token: u64) {
        let ticks = ((self.timeout.as_micros() / self.tick.as_micros().max(1)) as usize + 1)
            .min(Self::SLOTS - 1);
        let slot = (self.cursor + ticks) % Self::SLOTS;
        self.slots[slot].push(token);
    }

    /// How long a poll may sleep before the next tick is due.
    pub(crate) fn poll_timeout(&self) -> Duration {
        let since = self.last_advance.elapsed();
        if since >= self.tick {
            Duration::from_millis(1)
        } else {
            self.tick - since
        }
    }

    /// Advance the wheel to `now`, returning every token whose slot came due.
    pub(crate) fn advance(&mut self, now: Instant) -> Vec<u64> {
        let mut due = Vec::new();
        while now.duration_since(self.last_advance) >= self.tick {
            self.last_advance += self.tick;
            self.cursor = (self.cursor + 1) % Self::SLOTS;
            due.append(&mut self.slots[self.cursor]);
        }
        due
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_wheel_fires_after_a_full_timeout() {
        let mut wheel = TimerWheel::new(Duration::from_millis(64));
        wheel.schedule(7);
        // Immediately: nothing due.
        assert!(wheel.advance(Instant::now()).is_empty());
        // After 2x the timeout every scheduled token has come due.
        let later = Instant::now() + Duration::from_millis(128);
        assert_eq!(wheel.advance(later), vec![7]);
    }

    #[test]
    fn shutdown_handle_is_idempotent() {
        let shutdown = Arc::new(Shutdown::default());
        let handle = ShutdownHandle {
            inner: Arc::clone(&shutdown),
        };
        assert!(!handle.is_shutdown());
        handle.shutdown();
        handle.shutdown();
        assert!(handle.is_shutdown());
    }
}
