//! Per-connection RESP state machine for the event-driven front end.
//!
//! A [`Conn`] owns one client socket plus everything the socket's protocol
//! position needs to survive `WouldBlock`: the partial-frame read buffer,
//! parsed-but-unexecuted frames, the bounded write queue, and the session
//! state (tenant, consistency level, LSN fence). The epoll workers drive it
//! with non-blocking sockets; an offload thread drives the rest of a batch
//! that stopped at a blocking command.
//!
//! **Pipelining.** One readable event drains the socket, batch-parses every
//! complete frame ([`RespValue::parse_batch`]), executes the batch in wire
//! order, and answers with **one vectored write** covering every reply.
//! Commands are never reordered within a connection: execution stops at the
//! first command that may block (replicated write, `WAIT`, `PSYNC`) and the
//! connection — with its remaining parsed frames — is handed off the event
//! loop as a unit.
//!
//! **Backpressure.** Replies queue in `out`; when the peer reads slowly the
//! queue grows until [`HIGH_WATER`], at which point the connection stops
//! *reading* (its worker keeps serving every other socket) until the queue
//! drains below [`LOW_WATER`]. Writable interest is registered only while
//! output is pending.

use crate::metrics;
use crate::server::{argv_strings, command_label, dispatch, CmdMetricsCache, ConnCtx, ConnState};
use abase_obs::{Span, Stage};
use abase_proto::{Command, ParseCommandError, RespValue};
use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::TcpStream;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Stop reading from a connection whose un-flushed output exceeds this.
pub(crate) const HIGH_WATER: usize = 1 << 20;
/// Resume reading once the un-flushed output drains below this.
pub(crate) const LOW_WATER: usize = HIGH_WATER / 4;
/// Per-readable-event read budget: bound the bytes one socket can pull in
/// before its worker moves on (level-triggered readiness re-fires for the
/// rest).
const READ_BUDGET: usize = 256 * 1024;

/// What a drive of the state machine asks its owner to do next.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum Step {
    /// Stay on the event loop (interest per `wants_read`/`wants_write`).
    Continue,
    /// Drop the connection (EOF, I/O error, or fatal protocol error with the
    /// error reply already flushed).
    Close,
    /// The next command may block (replicated write, fenced `WAIT`, or
    /// `PSYNC`): take the connection off the loop and finish the batch on an
    /// offload thread, where `PSYNC` turns it into a replica stream.
    Offload,
}

/// Track per-server open/accepted/evicted counts for `INFO` and the
/// max-clients cap (process-global metric gauges aside — embedded tests run
/// many servers per process, so the cap must not count a neighbor's
/// clients).
#[derive(Debug, Default)]
pub(crate) struct FrontEndStats {
    /// Currently open client connections (incl. offloaded and PSYNC ones).
    pub open: std::sync::atomic::AtomicI64,
    /// Connections accepted since bind.
    pub accepted: std::sync::atomic::AtomicU64,
    /// Connections evicted (idle reap + max-clients refusals).
    pub evicted: std::sync::atomic::AtomicU64,
}

/// Decrements the open-connection accounting exactly once, wherever the
/// connection ends (worker close, offload thread, replica stream, shutdown
/// drop).
#[derive(Debug)]
pub(crate) struct ConnGuard {
    stats: Arc<FrontEndStats>,
    worker_label: &'static str,
}

impl ConnGuard {
    /// Count a connection open under `worker_label` (an interned worker
    /// index, or `"accept"` before sharding).
    pub(crate) fn open(stats: Arc<FrontEndStats>, worker_label: &'static str) -> Self {
        stats.open.fetch_add(1, Ordering::Relaxed);
        stats.accepted.fetch_add(1, Ordering::Relaxed);
        metrics::CONNECTIONS.add(1);
        metrics::CONN_OPEN.with(worker_label).add(1);
        metrics::CONN_ACCEPTED.with(worker_label).inc();
        ConnGuard {
            stats,
            worker_label,
        }
    }
}

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.stats.open.fetch_sub(1, Ordering::Relaxed);
        metrics::CONNECTIONS.add(-1);
        metrics::CONN_OPEN.with(self.worker_label).add(-1);
    }
}

/// One client connection's complete serving state.
#[derive(Debug)]
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Raw bytes read but not yet parsed (at most a partial frame once a
    /// batch has been drained).
    inbuf: Vec<u8>,
    /// Parsed frames not yet executed (non-empty only across an offload
    /// handoff or when execution stopped at a blocking command).
    pending: VecDeque<RespValue>,
    /// Encoded replies not yet written, flushed with one vectored write.
    out: VecDeque<Vec<u8>>,
    /// Bytes of `out[0]` already written (partial-write resume point).
    out_head_pos: usize,
    /// Total un-flushed bytes across `out` (backpressure accounting).
    out_bytes: usize,
    /// A fatal protocol error parked until the frames before it are served.
    protocol_error: Option<abase_proto::ParseError>,
    /// Session state: tenant, consistency level, session LSN fence.
    pub(crate) state: ConnState,
    /// Per-connection command-metrics cache (see `server.rs`).
    cmd_metrics: CmdMetricsCache,
    /// Backpressured: output crossed [`HIGH_WATER`]; reads stay paused until
    /// the queue drains below [`LOW_WATER`] (hysteresis, not flapping at the
    /// threshold).
    throttled: bool,
    /// Close once `out` drains.
    closing: bool,
    /// Peer closed its read half — or we saw EOF — so stop reading.
    saw_eof: bool,
    /// Last moment bytes arrived (idle-reaper input).
    pub(crate) last_active: Instant,
    /// Index of the event-loop worker this connection is sharded to.
    pub(crate) worker: usize,
    /// Whether the socket currently has a poller registration (owned by the
    /// worker loop; offload handoffs clear it).
    pub(crate) registered: bool,
    /// The `(readable, writable)` interest installed in the poller, so an
    /// unchanged interest costs no `epoll_ctl`.
    pub(crate) installed_interest: (bool, bool),
    /// Open-connection accounting, released on drop.
    pub(crate) guard: ConnGuard,
}

impl Conn {
    pub(crate) fn new(stream: TcpStream, worker: usize, guard: ConnGuard) -> Self {
        Conn {
            stream,
            inbuf: Vec::with_capacity(4096),
            pending: VecDeque::new(),
            out: VecDeque::new(),
            out_head_pos: 0,
            out_bytes: 0,
            protocol_error: None,
            state: ConnState::default(),
            cmd_metrics: None,
            throttled: false,
            closing: false,
            saw_eof: false,
            last_active: Instant::now(),
            worker,
            registered: false,
            installed_interest: (false, false),
            guard,
        }
    }

    /// Whether the loop should watch this connection for readability.
    pub(crate) fn wants_read(&self) -> bool {
        !self.closing && !self.saw_eof && !self.throttled
    }

    /// Whether output is pending (register writable interest only then).
    pub(crate) fn wants_write(&self) -> bool {
        !self.out.is_empty()
    }

    /// Drive the machine after a readiness event on a **non-blocking**
    /// socket: flush if writable, read if readable, then parse/execute/flush
    /// the batch.
    pub(crate) fn on_event(&mut self, readable: bool, writable: bool, ctx: &ConnCtx) -> Step {
        if writable {
            match self.flush_nonblocking() {
                Ok(()) => {}
                Err(_) => return Step::Close,
            }
        }
        if readable && self.wants_read() {
            match self.fill_inbuf() {
                Ok(()) => {}
                Err(_) => return Step::Close,
            }
        }
        self.process(ctx)
    }

    /// Read until `WouldBlock`, EOF, backpressure, or the per-event budget.
    fn fill_inbuf(&mut self) -> std::io::Result<()> {
        let mut chunk = [0u8; 16 * 1024];
        let mut taken = 0;
        while taken < READ_BUDGET && self.out_bytes < HIGH_WATER {
            match self.stream.read(&mut chunk) {
                Ok(0) => {
                    self.saw_eof = true;
                    break;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    taken += n;
                    self.last_active = Instant::now();
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Parse every complete frame, execute the batch in order (stopping at a
    /// command that must leave the loop), queue the replies, and flush them
    /// with one vectored write.
    pub(crate) fn process(&mut self, ctx: &ConnCtx) -> Step {
        if !self.closing {
            // Top up the pending frames from the raw buffer.
            if self.protocol_error.is_none() && !self.inbuf.is_empty() {
                let (batch, status) = RespValue::parse_batch(&self.inbuf);
                self.inbuf.drain(..batch.consumed);
                self.pending.extend(batch.frames);
                if let Err(e) = status {
                    // Report only after the frames before it are served.
                    self.protocol_error = Some(e);
                    self.inbuf.clear();
                }
            }
            let mut batch_commands = 0u64;
            let offload = loop {
                let Some(value) = self.pending.front() else {
                    break false;
                };
                let command = Command::from_resp(value);
                if ctx.replication.is_some() && may_block(&command, ctx) {
                    break true;
                }
                // INVARIANT: the loop head peeked `front()` as Some.
                let value = self.pending.pop_front().expect("front checked");
                let reply = self.execute(&value, command, ctx);
                self.push_reply(&reply);
                batch_commands += 1;
            };
            if batch_commands > 0 && abase_obs::enabled() {
                metrics::PIPELINE_BATCH.record(batch_commands);
            }
            if offload {
                // The offload thread flushes what the batch produced so far.
                return Step::Offload;
            }
            if let Some(e) = self.protocol_error.take() {
                self.push_reply(&RespValue::Error(format!("ERR protocol: {e}")));
                self.closing = true;
            }
        }
        if self.flush_nonblocking().is_err() {
            return Step::Close;
        }
        if self.out.is_empty() && (self.closing || self.saw_eof) {
            return Step::Close;
        }
        Step::Continue
    }

    /// Execute one command against the shared dispatcher, with the same
    /// span/metrics/slowlog instrumentation on the worker and on an offload
    /// thread.
    pub(crate) fn execute(
        &mut self,
        value: &RespValue,
        command: Result<Command, ParseCommandError>,
        ctx: &ConnCtx,
    ) -> RespValue {
        let mut span = Span::begin();
        let label = command_label(value, &command);
        span.enter(Stage::Admission);
        let reply = dispatch(value, command, &mut self.state, &mut span, ctx);
        span.enter(Stage::Respond);
        if abase_obs::enabled() {
            let (count, micros) = match self.cmd_metrics {
                Some((cached, c, h)) if std::ptr::eq(cached, label) => (c, h),
                _ => {
                    let c = metrics::COMMANDS.with(label);
                    let h = metrics::COMMAND_MICROS.with(label);
                    self.cmd_metrics = Some((label, c, h));
                    (c, h)
                }
            };
            count.inc();
            if matches!(reply, RespValue::Error(_)) {
                metrics::COMMAND_ERRORS.inc(label);
            }
            if let Some(report) = span.finish() {
                micros.record(report.total_micros);
                ctx.slowlog.observe(&report, || argv_strings(value));
            }
        }
        reply
    }

    /// Queue one encoded reply for the batch's vectored write.
    pub(crate) fn push_reply(&mut self, reply: &RespValue) {
        let mut buf = Vec::with_capacity(64);
        reply.encode(&mut buf);
        self.out_bytes += buf.len();
        self.out.push_back(buf);
        if self.out_bytes >= HIGH_WATER {
            self.throttled = true;
        }
    }

    /// Write as much queued output as the socket accepts right now — one
    /// `writev` covering the whole batch, repeated only for partial writes.
    fn flush_nonblocking(&mut self) -> std::io::Result<()> {
        while !self.out.is_empty() {
            let mut slices: Vec<IoSlice<'_>> = Vec::with_capacity(self.out.len().min(64));
            for (i, buf) in self.out.iter().take(64).enumerate() {
                let from = if i == 0 { self.out_head_pos } else { 0 };
                slices.push(IoSlice::new(&buf[from..]));
            }
            match self.stream.write_vectored(&slices) {
                Ok(0) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => self.consume_out(n),
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Drain every queued reply with blocking writes (offload threads; the
    /// socket must be in blocking mode).
    pub(crate) fn flush_blocking(&mut self) -> std::io::Result<()> {
        while let Some(front) = self.out.front() {
            let pos = self.out_head_pos;
            self.stream.write_all(&front[pos..])?;
            let n = front.len() - pos;
            self.consume_out(n);
        }
        Ok(())
    }

    /// Account `n` written bytes against the head of the output queue.
    fn consume_out(&mut self, mut n: usize) {
        self.out_bytes -= n;
        if self.out_bytes < LOW_WATER {
            self.throttled = false;
        }
        while n > 0 {
            let head_left = self.out[0].len() - self.out_head_pos;
            if n >= head_left {
                n -= head_left;
                self.out.pop_front();
                self.out_head_pos = 0;
            } else {
                self.out_head_pos += n;
                n = 0;
            }
        }
    }

    /// Un-parsed leftover bytes for a PSYNC handoff: frames the client
    /// pipelined *after* `PSYNC` (re-encoded) plus the raw partial tail —
    /// exactly what [`serve_replica_stream`](abase_replication::socket) wants
    /// as its initial buffer.
    pub(crate) fn take_leftover(&mut self) -> Vec<u8> {
        let mut leftover = Vec::new();
        for frame in self.pending.drain(..) {
            frame.encode(&mut leftover);
        }
        leftover.extend_from_slice(&self.inbuf);
        self.inbuf = Vec::new();
        leftover
    }

    /// Pop the next parsed frame (offload threads execute these in order).
    pub(crate) fn pop_pending(&mut self) -> Option<RespValue> {
        self.pending.pop_front()
    }
}

/// Commands that must leave the event loop when a replication plane is
/// attached: replicated writes commit under the group's write concern,
/// `WAIT` drives follower acks up to its timeout, and `PSYNC` turns the
/// connection into a replica stream.
fn may_block(command: &Result<Command, ParseCommandError>, ctx: &ConnCtx) -> bool {
    match command {
        Ok(Command::Wait { .. } | Command::PSync { .. }) => true,
        Ok(c) => c.is_write() && !ctx.read_only,
        Err(_) => false,
    }
}
