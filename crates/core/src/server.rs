//! A TCP server speaking RESP2 over the table engine.
//!
//! This is the network front end a single DataNode exposes: clients connect
//! with any Redis client, issue the supported command subset, and are
//! namespaced by a tenant id chosen at connect time via `AUTH <tenant>`
//! (tenant 0 until authenticated). Connections are served by a small pool of
//! epoll event-loop workers (see [`crate::event_loop`]) with real pipelining
//! — one readable event drains every complete frame, executes the batch in
//! wire order, and answers with one vectored write — so 10k mostly-idle
//! clients cost registered fds, not OS threads.
//!
//! When the node's engine fronts a replica-group leader, attach the group via
//! [`RespServer::with_replication`]: every RESP write is committed under the
//! group's write concern before `+OK` reaches the client (an unsatisfiable
//! concern turns the reply into an error), and clients wanting an explicit
//! fence issue Redis-style `WAIT numreplicas timeout-ms` — the server blocks
//! until that many followers acked the connection's latest LSN. `REPLCONF`
//! handshake chatter is accepted for client compatibility.
//!
//! Connections also carry a **read-consistency level** (`CONSISTENCY
//! eventual|readyourwrites|leader`, default `leader`): with a replication
//! plane attached, `eventual` GETs are served by follower replicas and
//! `readyourwrites` GETs by any replica that has applied the connection's
//! last acked write LSN (the session fence the server tracks per write) —
//! only `leader` reads pin to the leader replica.

use crate::conn::FrontEndStats;
use crate::engine::TableEngine;
use crate::event_loop::{self, FrontEndConfig, Shutdown, ShutdownHandle};
use crate::metrics;
use crate::types::ConsistencyLevel;
use abase_obs::{SlowLog, Span, Stage, Timer};
use abase_proto::{Command, RespValue, SlowlogSub};
use abase_replication::{
    socket, ReadConsistency, RemoteFollowerState, ReplicaGroup, ReplicaSource,
};
use abase_util::lockrank::RankedMutex;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The cap substituted when a client sends `WAIT n 0` ("no limit"): the
/// server never parks a connection forever on a dead follower, it parks it
/// for at most this long and replies with the acks reached.
pub const WAIT_UNBOUNDED_CAP: Duration = Duration::from_secs(30);

/// Replication identity as reported by `INFO replication` — built by the
/// attached replication plane on a leader, or by a provider closure a
/// follower-mode server installs via [`RespServer::with_repl_info`] (the
/// follower's pump loop owns the link state the server cannot see).
#[derive(Debug, Clone)]
pub struct ReplInfo {
    /// `leader`, `follower`, or `none`.
    pub role: &'static str,
    /// Highest LSN durably applied locally (leader: the log head; follower:
    /// what the replication stream has applied).
    pub last_lsn: u64,
    /// The leader's address, from a follower's point of view.
    pub leader_addr: Option<String>,
    /// Replication-link status: `up`, `down`, or `n/a` (no link to keep).
    pub link_status: &'static str,
    /// Leader side: `(replica id, acked LSN, connected)` per known follower.
    pub followers: Vec<(u32, u64, bool)>,
}

impl Default for ReplInfo {
    fn default() -> Self {
        Self {
            role: "none",
            last_lsn: 0,
            leader_addr: None,
            link_status: "n/a",
            followers: Vec::new(),
        }
    }
}

/// What `WAIT` needs from a replication plane. Implemented for a locked
/// [`ReplicaGroup`]; custom planes (tests, future geo-replication) can
/// implement it too.
pub trait ReplicationControl: Send + Sync {
    /// The leader's current LSN (what a `WAIT` fences on), or `None` when
    /// the group has no live leader — the caller must surface that rather
    /// than fence on a made-up LSN.
    fn last_lsn(&self) -> Option<u64>;
    /// Ship the log until `numreplicas` followers ack `lsn` or `timeout`
    /// passes; returns how many followers have acked.
    fn wait_for(&self, lsn: u64, numreplicas: usize, timeout: Duration) -> Result<usize, String>;
    /// Enforce the group's write concern for everything the leader has
    /// written so far (called after each RESP write, before the client sees
    /// its reply). Returns the LSN the commit fenced on — a single
    /// lock-coherent bound covering the caller's write, which the connection
    /// adopts as its `readyourwrites` session fence (it may include
    /// concurrent writers' later LSNs: a higher fence is always safe, just
    /// conservative for follower routing). Errors when the concern cannot
    /// be met.
    fn commit_written(&self) -> Result<u64, String>;
    /// Serve a consistency-routed read of a storage-level key: `Eventual`
    /// round-robins over caught-up replicas, `ReadYourWrites(lsn)` over
    /// replicas at/above the fence, `Leader` pins to the leader. Returns the
    /// value (if any) and the serving replica's LSN lag at read time.
    fn read_routed(
        &self,
        key: &[u8],
        consistency: ReadConsistency,
        now: u64,
    ) -> Result<(Option<Vec<u8>>, u64), String>;

    /// Followers (local and remote) whose durably applied LSN reaches `lsn`
    /// — the non-blocking half of `WAIT`. Unlike [`ReplicationControl::
    /// wait_for`], this must answer even with no live leader: a session with
    /// no fence to enforce is owed a count, not a refusal.
    fn acked_followers(&self, lsn: u64) -> usize {
        let _ = lsn;
        0
    }

    /// The leader-side source a `PSYNC` replica connection streams from.
    /// `None` when this node does not lead a replica group (followers and
    /// unreplicated nodes refuse PSYNC).
    fn replica_source(&self) -> Option<ReplicaSource> {
        None
    }

    /// Register (or re-register after a reconnect) a remote follower; its
    /// shared ack state feeds the same accounting `WAIT` reads. The second
    /// element is the registration generation the connection passes to
    /// [`RemoteFollowerState::disconnect`] at teardown.
    fn register_remote(&self, id: u32) -> Result<(Arc<RemoteFollowerState>, u64), String> {
        Err(format!(
            "this replication plane does not accept remote followers (replica {id})"
        ))
    }

    /// What `INFO replication` reports for this plane. The default describes
    /// a leader with no per-follower detail; planes that know more override.
    fn repl_info(&self) -> ReplInfo {
        ReplInfo {
            role: "leader",
            last_lsn: self.last_lsn().unwrap_or(0),
            ..ReplInfo::default()
        }
    }
}

impl ReplicationControl for RankedMutex<ReplicaGroup> {
    fn last_lsn(&self) -> Option<u64> {
        self.lock().leader_db().ok().map(|db| db.last_seq())
    }

    fn wait_for(&self, lsn: u64, numreplicas: usize, timeout: Duration) -> Result<usize, String> {
        let deadline = Instant::now() + timeout;
        drive_followers(self, lsn, numreplicas, deadline)
    }

    fn acked_followers(&self, lsn: u64) -> usize {
        self.lock().followers_acked(lsn)
    }

    fn replica_source(&self) -> Option<ReplicaSource> {
        let group = self.lock();
        let leader = group.leader()?;
        Some(ReplicaSource {
            db: group.leader_db().ok()?,
            wal_dir: group.replica_dir(leader).ok()?,
        })
    }

    fn register_remote(&self, id: u32) -> Result<(Arc<RemoteFollowerState>, u64), String> {
        self.lock()
            .register_remote_follower(id)
            .map_err(|e| e.to_string())
    }

    fn repl_info(&self) -> ReplInfo {
        let group = self.lock();
        let leader = group.leader();
        let mut followers: Vec<(u32, u64, bool)> = group
            .members()
            .into_iter()
            .filter(|&id| Some(id) != leader)
            .map(|id| (id, group.acked_lsn(id).unwrap_or(0), group.is_alive(id)))
            .collect();
        for (id, lsn, connected) in group.remote_followers() {
            followers.push((id, lsn, connected));
        }
        ReplInfo {
            role: "leader",
            last_lsn: group.leader_db().map(|db| db.last_seq()).unwrap_or(0),
            leader_addr: None,
            link_status: "n/a",
            followers,
        }
    }

    fn read_routed(
        &self,
        key: &[u8],
        consistency: ReadConsistency,
        now: u64,
    ) -> Result<(Option<Vec<u8>>, u64), String> {
        let routed = self
            .lock()
            .read_routed(key, consistency, now)
            .map_err(|e| e.to_string())?;
        Ok((routed.result.value.map(|v| v.to_vec()), routed.lag))
    }

    fn commit_written(&self) -> Result<u64, String> {
        // One lock acquisition covers both reading the fence LSN and the
        // concern arithmetic, so a concurrent writer cannot slide the fence.
        let (lsn, need, timeout) = {
            let group = self.lock();
            let lsn = group.leader_db().map_err(|e| e.to_string())?.last_seq();
            if group.write_concern() == abase_replication::WriteConcern::Async {
                return Ok(lsn);
            }
            (lsn, group.commit_need(), group.config().wait_timeout)
        };
        // The leader itself always counts toward the concern.
        let follower_need = need.saturating_sub(1);
        let acked = drive_followers(self, lsn, follower_need, Instant::now() + timeout)?;
        if acked >= follower_need {
            Ok(lsn)
        } else {
            Err(format!(
                "write concern unsatisfied: {}/{} acks",
                acked + 1,
                need
            ))
        }
    }
}

/// Pump a locked group until `numreplicas` followers ack `lsn` or `deadline`
/// passes, returning the follower-ack count reached. Only bounded work runs
/// under the lock: when a follower needs a full resync, the checkpoint copy
/// streams with the group *unlocked*, so other connections' `WAIT`/commit on
/// other keys proceed during the transfer.
fn drive_followers(
    group: &RankedMutex<ReplicaGroup>,
    lsn: u64,
    numreplicas: usize,
    deadline: Instant,
) -> Result<usize, String> {
    loop {
        let status = { group.lock().advance(lsn) }.map_err(|e| e.to_string())?;
        if status.followers_acked >= numreplicas {
            return Ok(status.followers_acked);
        }
        if let Some(&id) = status.needs_resync.first() {
            let ticket = { group.lock().begin_resync(id) }.map_err(|e| e.to_string())?;
            // The long copy happens without the lock.
            let info = ticket.copy().map_err(|e| e.to_string())?;
            match group.lock().complete_resync(ticket, info) {
                Ok(()) => {}
                // Leadership moved mid-copy: loop and retry from the top.
                Err(abase_replication::Error::ResyncSuperseded) => {}
                Err(e) => return Err(e.to_string()),
            }
            continue;
        }
        if Instant::now() >= deadline {
            return Ok(status.followers_acked);
        }
        // This runs on an offload thread, never an event-loop worker, and
        // the replication plane has no wakeup primitive to wait on yet.
        #[allow(clippy::disallowed_methods)]
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// A running RESP server.
pub struct RespServer {
    engine: Arc<TableEngine>,
    listener: TcpListener,
    shutdown: Arc<Shutdown>,
    /// Serving model, worker count, max-clients cap, idle timeout.
    front_end: FrontEndConfig,
    /// Per-server connection accounting (`INFO`, the max-clients cap).
    stats: Arc<FrontEndStats>,
    /// Virtual time source: servers outside the simulator tick this from wall
    /// time; tests drive it manually.
    clock_micros: Arc<AtomicU64>,
    /// Replication plane behind `WAIT`, when this node leads a replica group.
    replication: Option<Arc<dyn ReplicationControl>>,
    /// Refuse client writes (a follower replica's server: its store is
    /// written exclusively by the replication stream).
    read_only: bool,
    /// This server's SLOWLOG ring (per instance, not process-global: embedded
    /// tests run many servers in one process).
    slowlog: Arc<SlowLog>,
    /// `INFO replication` provider overriding the plane's own view — used by
    /// follower-mode servers whose link state lives in the pump loop.
    repl_info: Option<Arc<dyn Fn() -> ReplInfo + Send + Sync>>,
    /// When the server was bound (`INFO server` uptime).
    started: Instant,
}

impl RespServer {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"`) over an engine.
    pub fn bind(engine: Arc<TableEngine>, addr: &str) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self {
            engine,
            listener,
            shutdown: Arc::new(Shutdown::default()),
            front_end: FrontEndConfig::default(),
            stats: Arc::new(FrontEndStats::default()),
            clock_micros: Arc::new(AtomicU64::new(0)),
            replication: None,
            read_only: false,
            slowlog: Arc::new(SlowLog::default()),
            repl_info: None,
            started: Instant::now(),
        })
    }

    /// Attach the replication plane serving `WAIT`.
    pub fn with_replication(mut self, replication: Arc<dyn ReplicationControl>) -> Self {
        self.replication = Some(replication);
        self
    }

    /// Event-loop worker count (clamped to 1..=16 at run time).
    pub fn io_threads(mut self, workers: usize) -> Self {
        self.front_end.workers = workers;
        self
    }

    /// Connection cap: accepts beyond it are refused with
    /// `-ERR max number of clients reached`.
    pub fn max_clients(mut self, cap: usize) -> Self {
        self.front_end.max_clients = cap;
        self
    }

    /// Evict connections idle longer than `timeout`.
    pub fn idle_timeout(mut self, timeout: Duration) -> Self {
        self.front_end.idle_timeout = Some(timeout);
        self
    }

    /// Install the `INFO replication` provider (follower mode: the pump loop
    /// owns role, applied LSN, leader address, and link status).
    pub fn with_repl_info(mut self, provider: Arc<dyn Fn() -> ReplInfo + Send + Sync>) -> Self {
        self.repl_info = Some(provider);
        self
    }

    /// This server's SLOWLOG (shared with every connection; retune its
    /// threshold through the handle).
    pub fn slowlog(&self) -> Arc<SlowLog> {
        Arc::clone(&self.slowlog)
    }

    /// Refuse client writes with `-READONLY` (follower replicas: the store
    /// is written exclusively by the replication stream — a client write
    /// would silently diverge it from the leader).
    pub fn read_only(mut self) -> Self {
        self.read_only = true;
        self
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<std::net::SocketAddr> {
        self.listener.local_addr()
    }

    /// Handle for advancing the server's virtual clock.
    pub fn clock(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.clock_micros)
    }

    /// Handle that stops the accept loop and every event-loop worker
    /// deterministically (eventfd wakeups — no "after the next connection
    /// attempt" window).
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle {
            inner: Arc::clone(&self.shutdown),
        }
    }

    /// Serve connections on the event-loop worker pool until shut down.
    pub fn run(self) -> std::io::Result<()> {
        let io_threads = self.front_end.workers.clamp(1, 16);
        let ctx = Arc::new(ConnCtx {
            engine: self.engine,
            clock: self.clock_micros,
            replication: self.replication,
            read_only: self.read_only,
            slowlog: self.slowlog,
            repl_info: self.repl_info,
            started: self.started,
            stats: self.stats,
            io_threads,
        });
        event_loop::run_front_end(self.listener, ctx, self.front_end, self.shutdown)
    }
}

/// Per-connection session state: tenant namespace, read-consistency level
/// (defaults to [`ConsistencyLevel::Leader`]), and the LSN fence of the
/// session's last acked write.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ConnState {
    tenant: u32,
    /// RU counters for `tenant`, resolved on first charge and reused until
    /// the tenant changes (AUTH) — keeps the family probe and the tenant
    /// label allocation off the per-command path.
    ru_metrics: Option<(
        u32,
        &'static abase_obs::Counter,
        &'static abase_obs::Counter,
    )>,
    consistency: ConsistencyLevel,
    /// Highest LSN this connection's writes reached — what a
    /// `readyourwrites` read fences on, and the fence `WAIT` enforces.
    session_lsn: u64,
    /// `REPLCONF replica-id` announced by a connecting follower.
    pub(crate) replica_id: Option<u32>,
    /// `REPLCONF listening-port` announced by a connecting follower (its own
    /// RESP port — handshake metadata for observability/redirects).
    listening_port: Option<u16>,
}

/// Everything one connection's dispatcher needs, bundled so the serving path
/// has a single context argument (shared across workers behind one `Arc`).
pub(crate) struct ConnCtx {
    pub(crate) engine: Arc<TableEngine>,
    pub(crate) clock: Arc<AtomicU64>,
    pub(crate) replication: Option<Arc<dyn ReplicationControl>>,
    pub(crate) read_only: bool,
    pub(crate) slowlog: Arc<SlowLog>,
    pub(crate) repl_info: Option<Arc<dyn Fn() -> ReplInfo + Send + Sync>>,
    pub(crate) started: Instant,
    pub(crate) stats: Arc<FrontEndStats>,
    /// Event-loop worker count `INFO server` reports.
    pub(crate) io_threads: usize,
}

/// Count/latency handles for a connection's last-seen command label. Labels
/// are `&'static str`s from a bounded set and workloads repeat commands, so
/// one pointer compare replaces two family probes on almost every op.
pub(crate) type CmdMetricsCache = Option<(
    &'static str,
    &'static abase_obs::Counter,
    &'static abase_obs::Histo,
)>;

/// Bounded-cardinality command label for the per-command metric families:
/// the parsed command's canonical name, `AUTH` for the connection-layer auth
/// frame, `INVALID` for anything unparseable (client-chosen strings must not
/// mint label values).
pub(crate) fn command_label(
    value: &RespValue,
    command: &Result<Command, abase_proto::ParseCommandError>,
) -> &'static str {
    if let Ok(c) = command {
        return c.name();
    }
    if let RespValue::Array(Some(items)) = value {
        if let Some(RespValue::Bulk(Some(name))) = items.first() {
            if name.eq_ignore_ascii_case(b"AUTH") {
                return "AUTH";
            }
        }
    }
    "INVALID"
}

/// The frame as printable argv for a SLOWLOG entry (lossy UTF-8, long
/// arguments truncated — the log keeps shapes, not payloads).
pub(crate) fn argv_strings(value: &RespValue) -> Vec<String> {
    const MAX_ARG: usize = 128;
    let RespValue::Array(Some(items)) = value else {
        return vec!["<non-array frame>".into()];
    };
    items
        .iter()
        .map(|item| match item {
            RespValue::Bulk(Some(b)) => {
                let shown = String::from_utf8_lossy(&b[..b.len().min(MAX_ARG)]).into_owned();
                if b.len() > MAX_ARG {
                    format!("{shown}... ({} bytes)", b.len())
                } else {
                    shown
                }
            }
            other => format!("{other:?}"),
        })
        .collect()
}

/// Serve a `PSYNC` replica connection on the leader. The group lock is held
/// only to clone out the [`ReplicaSource`] and register the follower —
/// streaming (and any checkpoint ship) runs with the group unlocked, exactly
/// like the staged resync copies, so `WAIT`/commit on other connections flow
/// freely for the duration.
pub(crate) fn serve_replica_connection(
    mut stream: TcpStream,
    leftover: Vec<u8>,
    position: Option<(u64, u64)>,
    replica_id: Option<u32>,
    repl: &dyn ReplicationControl,
) -> std::io::Result<()> {
    let Some(source) = repl.replica_source() else {
        stream.write_all(
            &RespValue::Error("ERR PSYNC: this node does not lead a replica group".into())
                .to_bytes(),
        )?;
        return Ok(());
    };
    // Followers that skip `REPLCONF replica-id` get a server-assigned id
    // well clear of the cluster's node-id space.
    let id = replica_id.unwrap_or_else(socket::anonymous_replica_id);
    let (remote, generation) = match repl.register_remote(id) {
        Ok(registered) => registered,
        Err(e) => {
            stream.write_all(&RespValue::Error(format!("ERR replication: {e}")).to_bytes())?;
            return Ok(());
        }
    };
    let tag = format!("replica-{id}");
    let result = socket::serve_replica_stream(
        stream, leftover, &source, &remote, generation, position, &tag,
    );
    // Generation-guarded: if the follower already reconnected (a newer
    // registration owns this state), this stale connection's death must not
    // mark the live one down.
    remote.disconnect(generation);
    result
}

pub(crate) fn dispatch(
    value: &RespValue,
    command: Result<Command, abase_proto::ParseCommandError>,
    state: &mut ConnState,
    span: &mut Span,
    ctx: &ConnCtx,
) -> RespValue {
    let engine = &*ctx.engine;
    let clock = &*ctx.clock;
    let replication = ctx.replication.as_deref();
    let read_only = ctx.read_only;
    // AUTH is handled at the connection layer (it selects the tenant).
    if let RespValue::Array(Some(items)) = value {
        if items.len() == 2 {
            if let (RespValue::Bulk(Some(name)), RespValue::Bulk(Some(arg))) =
                (&items[0], &items[1])
            {
                if name.eq_ignore_ascii_case(b"AUTH") {
                    return match std::str::from_utf8(arg).ok().and_then(|s| s.parse().ok()) {
                        Some(id) => {
                            state.tenant = id;
                            RespValue::ok()
                        }
                        None => RespValue::Error("ERR AUTH expects a numeric tenant id".into()),
                    };
                }
            }
        }
    }
    let command = match command {
        Ok(c) => c,
        Err(e) => return RespValue::Error(format!("ERR {e}")),
    };
    // CONSISTENCY is connection state, like AUTH.
    if let Command::Consistency { level } = &command {
        return match level {
            None => RespValue::bulk(state.consistency.name()),
            Some(raw) => match std::str::from_utf8(raw)
                .ok()
                .and_then(ConsistencyLevel::parse)
            {
                Some(level) => {
                    state.consistency = level;
                    RespValue::ok()
                }
                None => RespValue::Error(
                    "ERR CONSISTENCY expects eventual, readyourwrites, or leader".into(),
                ),
            },
        };
    }
    // REPLCONF is connection state too: a connecting follower announces its
    // listening port and replica id before PSYNC; `ack` frames landing here
    // (outside a replica stream) are acknowledged and ignored.
    if let Command::ReplConf { .. } = &command {
        if let Some(port) = command.replconf_option("listening-port") {
            state.listening_port = Some(port as u16);
        }
        if let Some(id) = command.replconf_option("replica-id") {
            state.replica_id = Some(id as u32);
        }
        return RespValue::ok();
    }
    // Observability commands are served by the front end: it owns the
    // registry view, the per-server SLOWLOG, and the replication identity.
    match &command {
        Command::Info { section } => return info_reply(section.as_deref(), ctx),
        Command::Slowlog { sub } => return slowlog_reply(sub, &ctx.slowlog),
        Command::Metrics => return RespValue::bulk(abase_obs::render()),
        _ => {}
    }
    // WAIT is answered by the replication plane when one is attached; the
    // engine's fallback (0 replicas acked) covers unreplicated nodes.
    if let (
        Command::Wait {
            numreplicas,
            timeout_ms,
        },
        Some(repl),
    ) = (&command, replication)
    {
        span.enter(Stage::ReplicationWait);
        let want = *numreplicas as usize;
        // Redis semantics: WAIT fences on the *connection's* last write, not
        // the global leader LSN — a read-only session must never block on
        // (or fail because of) other clients' writes. With no fence, or one
        // the followers already acked, the current count is the answer,
        // live leader or not.
        let fence = state.session_lsn;
        let acked = repl.acked_followers(fence);
        if fence == 0 || acked >= want {
            return RespValue::Integer(acked as i64);
        }
        // There is replication left to drive, which needs a live leader —
        // fencing on a fabricated LSN would report phantom acks.
        if repl.last_lsn().is_none() {
            return RespValue::Error("ERR replication: no live leader".into());
        }
        // `timeout 0` is documented as "no limit"; the server maps it to its
        // own cap instead of the historical single non-blocking pass (and
        // instead of parking the connection forever on a dead follower).
        let timeout = if *timeout_ms == 0 {
            WAIT_UNBOUNDED_CAP
        } else {
            Duration::from_millis(*timeout_ms)
        };
        let wait_timer = Timer::start();
        let reply = match repl.wait_for(fence, want, timeout) {
            Ok(acked) => RespValue::Integer(acked as i64),
            Err(e) => RespValue::Error(format!("ERR replication: {e}")),
        };
        wait_timer.observe(&metrics::WAIT_MICROS);
        return reply;
    }
    let now = clock.load(Ordering::Relaxed);
    // With a replication plane attached, non-leader GETs route to a replica
    // chosen per the connection's consistency level instead of always
    // reading the leader's engine.
    if let (Command::Get { key }, Some(repl)) = (&command, replication) {
        if state.consistency != ConsistencyLevel::Leader {
            let consistency = match state.consistency {
                ConsistencyLevel::Eventual => ReadConsistency::Eventual,
                ConsistencyLevel::ReadYourWrites => {
                    ReadConsistency::ReadYourWrites(state.session_lsn)
                }
                ConsistencyLevel::Leader => unreachable!("guarded above"),
            };
            let storage_key = TableEngine::storage_string_key(state.tenant, key);
            span.enter(Stage::Engine);
            return match repl.read_routed(&storage_key, consistency, now) {
                Ok((value, _lag)) => {
                    if abase_obs::enabled() {
                        let bytes = value.as_ref().map_or(0, |v| v.len());
                        tenant_ru(state).0.add(ru_units(bytes));
                    }
                    RespValue::Bulk(value.map(bytes::Bytes::from))
                }
                Err(e) => RespValue::Error(format!("ERR replication: {e}")),
            };
        }
    }
    // A follower replica's store is written only by the replication stream;
    // a client write here would silently diverge it from the leader.
    if read_only && command.is_write() {
        return RespValue::Error("READONLY You can't write against a read only replica.".into());
    }
    span.enter(Stage::Engine);
    match engine.execute(state.tenant, &command, now) {
        Ok(outcome) => {
            // §4.1 RU charging at the serving edge, split per tenant: writes
            // by payload size, reads by actual bytes returned.
            if abase_obs::enabled() {
                let (read_ru, write_ru) = tenant_ru(state);
                if command.is_write() {
                    write_ru.add(ru_units(command.payload_size()));
                } else {
                    read_ru.add(ru_units(outcome.bytes_returned));
                }
            }
            // Writes are acknowledged only once the replica group's write
            // concern holds; an unsatisfiable concern is the client's error.
            if command.is_write() {
                if let Some(repl) = replication {
                    span.enter(Stage::ReplicationWait);
                    let wait_timer = Timer::start();
                    // The committed LSN becomes the session's read fence
                    // (lock-coherent with the concern check, so it covers
                    // this write without racing a later last_lsn read).
                    let committed = repl.commit_written();
                    wait_timer.observe(&metrics::WAIT_MICROS);
                    match committed {
                        Ok(lsn) => state.session_lsn = state.session_lsn.max(lsn),
                        Err(e) => {
                            return RespValue::Error(format!("ERR replication: {e}"));
                        }
                    }
                }
            }
            outcome.reply
        }
        Err(e) => RespValue::Error(format!("ERR storage: {e}")),
    }
}

/// RUs charged for `bytes` moved: the paper's §4.1 unit is 2 KB, with a
/// one-RU floor (integer RUs are enough at metric granularity).
fn ru_units(bytes: usize) -> u64 {
    bytes.max(1).div_ceil(2048) as u64
}

/// `(read, write)` RU counters for the connection's tenant, cached in the
/// session state so steady-state charging is one relaxed atomic add instead
/// of a label allocation plus two family probes per command.
fn tenant_ru(state: &mut ConnState) -> (&'static abase_obs::Counter, &'static abase_obs::Counter) {
    match state.ru_metrics {
        Some((tenant, read, write)) if tenant == state.tenant => (read, write),
        _ => {
            let label = state.tenant.to_string();
            let read = metrics::TENANT_READ_RU.with(&label);
            let write = metrics::TENANT_WRITE_RU.with(&label);
            state.ru_metrics = Some((state.tenant, read, write));
            (read, write)
        }
    }
}

/// The replication identity `INFO` reports: the installed provider wins
/// (follower mode), else the attached plane's view (leader), else none.
fn current_repl_info(ctx: &ConnCtx) -> ReplInfo {
    if let Some(provider) = &ctx.repl_info {
        return provider();
    }
    if let Some(repl) = &ctx.replication {
        return repl.repl_info();
    }
    ReplInfo::default()
}

/// Build the `INFO [section]` reply. Sections mirror Redis: `server`,
/// `replication`, `keyspace`, `stats`, `latency`; no argument (or `all` /
/// `default` / `everything`) emits them all, an unknown section an empty
/// bulk string.
fn info_reply(section: Option<&[u8]>, ctx: &ConnCtx) -> RespValue {
    let section = section.map(|s| s.to_ascii_lowercase());
    let wanted = |name: &str| match section.as_deref() {
        None | Some(b"all") | Some(b"default") | Some(b"everything") => true,
        Some(s) => s == name.as_bytes(),
    };
    let info = current_repl_info(ctx);
    let mut out = String::new();
    if wanted("server") {
        out.push_str("# Server\r\n");
        out.push_str(&format!("role:{}\r\n", info.role));
        out.push_str(&format!(
            "uptime_in_seconds:{}\r\n",
            ctx.started.elapsed().as_secs()
        ));
        out.push_str(&format!(
            "connected_clients:{}\r\n",
            ctx.stats.open.load(Ordering::Relaxed).max(0)
        ));
        out.push_str(&format!("io_threads:{}\r\n", ctx.io_threads));
        out.push_str(&format!(
            "total_connections_received:{}\r\n",
            ctx.stats.accepted.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "evicted_clients:{}\r\n",
            ctx.stats.evicted.load(Ordering::Relaxed)
        ));
        out.push_str(&format!(
            "metrics_enabled:{}\r\n",
            u8::from(abase_obs::enabled())
        ));
        out.push_str(&format!(
            "slowlog_threshold_micros:{}\r\n",
            ctx.slowlog.threshold_micros()
        ));
        out.push_str("\r\n");
    }
    if wanted("replication") {
        out.push_str("# Replication\r\n");
        out.push_str(&format!("role:{}\r\n", info.role));
        out.push_str(&format!("last_applied_lsn:{}\r\n", info.last_lsn));
        out.push_str(&format!(
            "leader_addr:{}\r\n",
            info.leader_addr.as_deref().unwrap_or("")
        ));
        out.push_str(&format!("link_status:{}\r\n", info.link_status));
        out.push_str(&format!(
            "connected_followers:{}\r\n",
            info.followers.iter().filter(|&&(_, _, up)| up).count()
        ));
        for (i, (id, lsn, up)) in info.followers.iter().enumerate() {
            out.push_str(&format!(
                "follower{i}:id={id},acked_lsn={lsn},connected={}\r\n",
                u8::from(*up)
            ));
        }
        out.push_str("\r\n");
    }
    if wanted("keyspace") {
        let db = ctx.engine.db();
        let stats = db.stats();
        out.push_str("# Keyspace\r\n");
        out.push_str(&format!("last_seq:{}\r\n", db.last_seq()));
        out.push_str(&format!("gets:{}\r\n", stats.gets));
        out.push_str(&format!("puts:{}\r\n", stats.puts));
        out.push_str(&format!("deletes:{}\r\n", stats.deletes));
        out.push_str(&format!("memtable_hits:{}\r\n", stats.memtable_hits));
        out.push_str(&format!("block_reads:{}\r\n", stats.block_reads));
        match db.block_cache() {
            Some(cache) => {
                let cs = cache.stats();
                out.push_str("block_cache_enabled:1\r\n");
                out.push_str(&format!("block_cache_hits:{}\r\n", cs.hits));
                out.push_str(&format!("block_cache_misses:{}\r\n", cs.misses));
                out.push_str(&format!("block_cache_hit_ratio:{:.4}\r\n", cs.hit_ratio()));
                out.push_str(&format!("block_cache_evictions:{}\r\n", cs.evictions));
                out.push_str(&format!(
                    "block_cache_resident_bytes:{}\r\n",
                    cache.resident_bytes()
                ));
                out.push_str(&format!(
                    "block_cache_pinned_bytes:{}\r\n",
                    cache.pinned_bytes()
                ));
                out.push_str(&format!(
                    "block_cache_capacity_bytes:{}\r\n",
                    cache.capacity_bytes()
                ));
            }
            None => out.push_str("block_cache_enabled:0\r\n"),
        }
        out.push_str(&format!("flushes:{}\r\n", stats.flushes));
        out.push_str(&format!("compactions:{}\r\n", stats.compactions));
        out.push_str(&format!(
            "sst_bytes_written:{}\r\n",
            stats.sst_bytes_written
        ));
        out.push_str("\r\n");
    }
    if wanted("stats") {
        out.push_str("# Stats\r\n");
        for (key, value) in abase_obs::snapshot().iter() {
            if value.fract() == 0.0 {
                out.push_str(&format!("{key}:{value:.0}\r\n"));
            } else {
                out.push_str(&format!("{key}:{value}\r\n"));
            }
        }
        out.push_str("\r\n");
    }
    if wanted("latency") {
        out.push_str("# Latency\r\n");
        for (name, histo) in abase_obs::histograms() {
            if histo.count() == 0 {
                continue;
            }
            let q = |p: f64| histo.quantile(p).unwrap_or(0.0);
            out.push_str(&format!(
                "{name}:count={},mean_us={:.0},p50_us={:.0},p99_us={:.0}\r\n",
                histo.count(),
                histo.mean(),
                q(0.5),
                q(0.99),
            ));
        }
        out.push_str("\r\n");
    }
    RespValue::bulk(out)
}

/// Answer `SLOWLOG GET/RESET/LEN` from this server's ring. `GET` entries are
/// Redis-shaped — `[id, unix-secs, micros, argv…]` — with a fifth element
/// holding the per-stage breakdown as `stage=micros` strings.
fn slowlog_reply(sub: &SlowlogSub, slowlog: &SlowLog) -> RespValue {
    match sub {
        SlowlogSub::Len => RespValue::Integer(slowlog.len() as i64),
        SlowlogSub::Reset => {
            slowlog.reset();
            RespValue::ok()
        }
        SlowlogSub::Get { count } => {
            let count = count.map(|c| c as usize).unwrap_or(10);
            let entries = slowlog
                .get(count)
                .into_iter()
                .map(|e| {
                    RespValue::Array(Some(vec![
                        RespValue::Integer(e.id as i64),
                        RespValue::Integer(e.unix_secs as i64),
                        RespValue::Integer(e.duration_micros as i64),
                        RespValue::Array(Some(
                            e.command.into_iter().map(RespValue::bulk).collect(),
                        )),
                        RespValue::Array(Some(
                            e.stages
                                .into_iter()
                                .map(|(stage, us)| RespValue::bulk(format!("{stage}={us}")))
                                .collect(),
                        )),
                    ]))
                })
                .collect();
            RespValue::Array(Some(entries))
        }
    }
}

#[cfg(test)]
#[allow(clippy::disallowed_methods)] // tests may sleep to sequence threads
mod tests {
    use super::*;
    use abase_lavastore::DbConfig;
    use abase_util::TestDir;
    use parking_lot::Mutex;
    use std::io::Read;
    use std::sync::atomic::AtomicBool;

    fn start_server(tag: &str) -> (TestDir, std::net::SocketAddr, Arc<AtomicU64>) {
        let dir = TestDir::new(tag);
        let engine = Arc::new(TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        let server = RespServer::bind(engine, "127.0.0.1:0").unwrap();
        let addr = server.local_addr().unwrap();
        let clock = server.clock();
        std::thread::spawn(move || server.run());
        (dir, addr, clock)
    }

    fn roundtrip(stream: &mut TcpStream, request: &[u8]) -> RespValue {
        stream.write_all(request).unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        loop {
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "server closed unexpectedly");
            buf.extend_from_slice(&chunk[..n]);
            if let Some((value, _)) = RespValue::parse(&buf).unwrap() {
                return value;
            }
        }
    }

    #[test]
    fn tcp_set_get_roundtrip() {
        let (_dir, addr, _clock) = start_server("roundtrip");
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(
            &mut client,
            b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$5\r\nhello\r\n",
        );
        assert_eq!(reply, RespValue::ok());
        let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
        assert_eq!(reply, RespValue::bulk("hello"));
        let reply = roundtrip(&mut client, b"*1\r\n$4\r\nPING\r\n");
        assert_eq!(reply, RespValue::Simple("PONG".into()));
    }

    #[test]
    fn auth_switches_tenant_namespaces() {
        let (_dir, addr, _clock) = start_server("auth");
        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(&mut client, b"*2\r\n$4\r\nAUTH\r\n$1\r\n1\r\n");
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$2\r\nt1\r\n");
        // Switch tenant: the key is invisible.
        let reply = roundtrip(&mut client, b"*2\r\n$4\r\nAUTH\r\n$1\r\n2\r\n");
        assert_eq!(reply, RespValue::ok());
        let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
        assert_eq!(reply, RespValue::Bulk(None));
    }

    #[test]
    fn two_concurrent_clients_are_isolated() {
        let (_dir, addr, _clock) = start_server("concurrent");
        let mut c1 = TcpStream::connect(addr).unwrap();
        let mut c2 = TcpStream::connect(addr).unwrap();
        roundtrip(&mut c1, b"*2\r\n$4\r\nAUTH\r\n$1\r\n7\r\n");
        roundtrip(&mut c2, b"*2\r\n$4\r\nAUTH\r\n$1\r\n8\r\n");
        roundtrip(&mut c1, b"*3\r\n$3\r\nSET\r\n$1\r\nx\r\n$3\r\none\r\n");
        roundtrip(&mut c2, b"*3\r\n$3\r\nSET\r\n$1\r\nx\r\n$3\r\ntwo\r\n");
        assert_eq!(
            roundtrip(&mut c1, b"*2\r\n$3\r\nGET\r\n$1\r\nx\r\n"),
            RespValue::bulk("one")
        );
        assert_eq!(
            roundtrip(&mut c2, b"*2\r\n$3\r\nGET\r\n$1\r\nx\r\n"),
            RespValue::bulk("two")
        );
    }

    #[test]
    fn pipelined_commands_in_one_write() {
        let (_dir, addr, _clock) = start_server("pipeline");
        let mut client = TcpStream::connect(addr).unwrap();
        // Two commands in a single TCP segment.
        client
            .write_all(b"*3\r\n$3\r\nSET\r\n$1\r\na\r\n$1\r\n1\r\n*2\r\n$3\r\nGET\r\n$1\r\na\r\n")
            .unwrap();
        let mut buf = Vec::new();
        let mut chunk = [0u8; 1024];
        let mut replies = Vec::new();
        while replies.len() < 2 {
            let n = client.read(&mut chunk).unwrap();
            assert!(n > 0);
            buf.extend_from_slice(&chunk[..n]);
            while let Some((value, used)) = RespValue::parse(&buf).unwrap() {
                replies.push(value);
                buf.drain(..used);
            }
        }
        assert_eq!(replies[0], RespValue::ok());
        assert_eq!(replies[1], RespValue::bulk("1"));
    }

    #[test]
    fn ttl_honours_server_clock() {
        let (_dir, addr, clock) = start_server("ttl");
        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(
            &mut client,
            b"*5\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n$2\r\nEX\r\n$2\r\n10\r\n",
        );
        assert_eq!(
            roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"),
            RespValue::bulk("v")
        );
        clock.store(11_000_000, Ordering::Relaxed); // 11 s of virtual time
        assert_eq!(
            roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"),
            RespValue::Bulk(None)
        );
    }

    #[test]
    fn malformed_command_gets_error_reply() {
        let (_dir, addr, _clock) = start_server("badcmd");
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut client, b"*1\r\n$7\r\nNOTACMD\r\n");
        assert!(matches!(reply, RespValue::Error(_)));
    }

    #[test]
    fn wait_without_replication_reports_zero() {
        let (_dir, addr, _clock) = start_server("wait0");
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$3\r\n100\r\n");
        assert_eq!(reply, RespValue::Integer(0));
        // REPLCONF handshake is accepted on any node.
        let reply = roundtrip(
            &mut client,
            b"*3\r\n$8\r\nREPLCONF\r\n$14\r\nlistening-port\r\n$4\r\n6380\r\n",
        );
        assert_eq!(reply, RespValue::ok());
    }

    #[test]
    fn resp_writes_enforce_group_write_concern() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("resp-quorum");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                write_concern: WriteConcern::Quorum,
                db: DbConfig::small_for_tests(),
                // Keep the deliberately failing quorum write below fast.
                wait_timeout: Duration::from_millis(20),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        // +OK implies the write already sits on a majority.
        let reply = roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        assert_eq!(reply, RespValue::ok());
        {
            let g = group.lock();
            let lsn = g.leader_db().unwrap().last_seq();
            assert!(g.acked_count(lsn) >= 2, "quorum not enforced before reply");
        }
        // With both followers down, quorum writes must fail loudly.
        {
            let mut g = group.lock();
            g.fail_replica(2).unwrap();
            g.fail_replica(3).unwrap();
        }
        let reply = roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nw\r\n");
        match reply {
            RespValue::Error(e) => assert!(e.contains("replication"), "{e}"),
            other => panic!("expected replication error, got {other:?}"),
        }
        // Reads still serve.
        let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
        assert!(matches!(reply, RespValue::Bulk(Some(_))));
        // With the leader gone too, WAIT must refuse rather than fence on a
        // fabricated LSN and report phantom acks.
        group.lock().fail_replica(1).unwrap();
        let reply = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$2\r\n50\r\n");
        match reply {
            RespValue::Error(e) => assert!(e.contains("no live leader"), "{e}"),
            other => panic!("expected no-leader error, got {other:?}"),
        }
    }

    #[test]
    fn resync_copy_runs_with_the_group_unlocked() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        use abase_util::failpoint::{self, FaultAction};
        let _guard = failpoint::ScopedInjector::enable();
        let dir = TestDir::new("unlocked-resync");
        let mut group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        for i in 0..30 {
            group
                .put(format!("k{i:03}").as_bytes(), &[5u8; 64], None, 0)
                .unwrap();
        }
        group.leader_db().unwrap().flush().unwrap();
        group.tick().unwrap();
        let lsn = group.put(b"fence", b"v", None, 0).unwrap();
        let leader_dir = dir.path().join("p1-r1");
        // Follower 2's next poll gaps; the checkpoint copy that follows is
        // slowed to ≥400 ms by per-chunk delays.
        failpoint::install(
            "binlog.poll",
            Some(leader_dir.to_str().unwrap()),
            FaultAction::Gap,
            0,
            1,
        );
        failpoint::install(
            "db.checkpoint",
            Some(leader_dir.to_str().unwrap()),
            FaultAction::DelayMs(150),
            0,
            5,
        );
        let group = Arc::new(group.into_mutex());
        let waiter = {
            let group = Arc::clone(&group);
            std::thread::spawn(move || {
                let started = Instant::now();
                let acked = group
                    .wait_for(lsn, 2, Duration::from_secs(10))
                    .expect("wait_for failed");
                (acked, started.elapsed())
            })
        };
        // While the copy is in flight, the group mutex must be free: other
        // connections' WAIT/commit keep flowing.
        std::thread::sleep(Duration::from_millis(150));
        let t0 = Instant::now();
        {
            let mut g = group.lock();
            g.put(b"concurrent", b"w", None, 0).unwrap();
        }
        let lock_wait = t0.elapsed();
        let (acked, waited) = waiter.join().unwrap();
        assert_eq!(acked, 2, "both followers must end up acked");
        assert!(
            waited >= Duration::from_millis(350),
            "copy was not slowed ({waited:?}); the lock-freedom check is vacuous"
        );
        assert!(
            lock_wait < Duration::from_millis(200),
            "group mutex was held across the resync copy ({lock_wait:?})"
        );
    }

    #[test]
    fn consistency_levels_route_connection_reads() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("consistency-route");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                // Async: followers lag until WAIT pumps them — which is what
                // makes the fence observable.
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        // Default level is leader.
        let reply = roundtrip(&mut client, b"*1\r\n$11\r\nCONSISTENCY\r\n");
        assert_eq!(reply, RespValue::bulk("leader"));
        // Write, then fence the session's reads on it.
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        let reply = roundtrip(
            &mut client,
            b"*2\r\n$11\r\nCONSISTENCY\r\n$14\r\nreadyourwrites\r\n",
        );
        assert_eq!(reply, RespValue::ok());
        // Followers have not applied the write; the fenced read must still
        // observe it (served by the leader or a caught-up replica).
        for _ in 0..4 {
            let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
            assert_eq!(reply, RespValue::bulk("v"), "fenced read lost the write");
        }
        // Converge, then eventual reads see it from any replica.
        roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$3\r\n100\r\n");
        let reply = roundtrip(
            &mut client,
            b"*2\r\n$11\r\nCONSISTENCY\r\n$8\r\neventual\r\n",
        );
        assert_eq!(reply, RespValue::ok());
        for _ in 0..4 {
            let reply = roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n");
            assert_eq!(reply, RespValue::bulk("v"));
        }
        // Bogus levels are refused; the connection keeps its current level.
        let reply = roundtrip(&mut client, b"*2\r\n$11\r\nCONSISTENCY\r\n$6\r\nstrong\r\n");
        assert!(matches!(reply, RespValue::Error(_)));
        let reply = roundtrip(&mut client, b"*1\r\n$11\r\nCONSISTENCY\r\n");
        assert_eq!(reply, RespValue::bulk("eventual"));
    }

    #[test]
    fn wait_fences_on_the_sessions_own_writes_not_other_clients() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("wait-session-fence");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                // Async: followers lag until someone pumps them, so a global
                // fence would make the read-only client block.
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut writer = TcpStream::connect(addr).unwrap();
        let mut reader = TcpStream::connect(addr).unwrap();
        // Another client writes; followers have not acked it.
        roundtrip(&mut writer, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        // The read-only session has no fence: WAIT answers immediately with
        // the live follower count instead of blocking on the writer's LSN
        // (the old code fenced on the global leader LSN and would park here
        // for the full timeout).
        let started = Instant::now();
        let reply = roundtrip(
            &mut reader,
            b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$4\r\n5000\r\n",
        );
        assert_eq!(reply, RespValue::Integer(2));
        assert!(
            started.elapsed() < Duration::from_millis(1500),
            "fence-free WAIT blocked on another session's write"
        );
        // With every replica dead, a fence-free WAIT still answers (0 acked)
        // — the no-leader refusal is reserved for sessions with a fence.
        {
            let mut g = group.lock();
            g.fail_replica(1).unwrap();
            g.fail_replica(2).unwrap();
            g.fail_replica(3).unwrap();
        }
        let reply = roundtrip(&mut reader, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$2\r\n50\r\n");
        assert_eq!(reply, RespValue::Integer(0));
        // The writer has a fence to enforce: refusal stands.
        let reply = roundtrip(&mut writer, b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$2\r\n50\r\n");
        match reply {
            RespValue::Error(e) => assert!(e.contains("no live leader"), "{e}"),
            other => panic!("expected no-leader error, got {other:?}"),
        }
    }

    /// Records what the server actually asked the replication plane for.
    struct RecordingRepl {
        calls: Mutex<Vec<(u64, usize, Duration)>>,
    }

    impl ReplicationControl for RecordingRepl {
        fn last_lsn(&self) -> Option<u64> {
            Some(42)
        }
        fn wait_for(
            &self,
            lsn: u64,
            numreplicas: usize,
            timeout: Duration,
        ) -> Result<usize, String> {
            self.calls.lock().push((lsn, numreplicas, timeout));
            Ok(numreplicas)
        }
        fn commit_written(&self) -> Result<u64, String> {
            Ok(7)
        }
        fn read_routed(
            &self,
            _key: &[u8],
            _consistency: ReadConsistency,
            _now: u64,
        ) -> Result<(Option<Vec<u8>>, u64), String> {
            Err("not under test".into())
        }
    }

    #[test]
    fn wait_zero_timeout_maps_to_the_server_cap_and_session_fence() {
        let (_dir, _addr, _clock) = start_server("wait-cap-unused");
        let dir = TestDir::new("wait-cap");
        let engine = Arc::new(TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        let repl = Arc::new(RecordingRepl {
            calls: Mutex::new(Vec::new()),
        });
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&repl) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        // The write pins the session fence at the committed LSN (7).
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        // `WAIT 2 0`: no client limit — the server must substitute its cap,
        // not treat it as a single non-blocking pass.
        roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$1\r\n0\r\n");
        // A finite timeout passes through untouched.
        roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$3\r\n250\r\n");
        let calls = repl.calls.lock();
        assert_eq!(calls.len(), 2);
        assert_eq!(
            calls[0],
            (7, 2, WAIT_UNBOUNDED_CAP),
            "WAIT n 0 must fence on the session LSN with the server cap"
        );
        assert_eq!(calls[1], (7, 2, Duration::from_millis(250)));
    }

    #[test]
    fn wait_finite_timeout_returns_acked_so_far() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("wait-partial");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        group.lock().fail_replica(3).unwrap();
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        // Asking for 2 follower acks with one follower dead: the reply is
        // the ack count reached when the budget expires, not an error.
        let started = Instant::now();
        let reply = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$2\r\n80\r\n");
        assert_eq!(reply, RespValue::Integer(1));
        let elapsed = started.elapsed();
        assert!(elapsed >= Duration::from_millis(60), "returned early");
        assert!(elapsed < Duration::from_secs(5), "ignored the timeout");
    }

    #[test]
    fn read_only_server_refuses_writes() {
        let dir = TestDir::new("read-only");
        let engine = Arc::new(TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        engine
            .execute(
                0,
                &Command::Set {
                    key: "k".into(),
                    value: "v".into(),
                    ttl_secs: None,
                },
                0,
            )
            .unwrap();
        let server = RespServer::bind(engine, "127.0.0.1:0").unwrap().read_only();
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nw\r\n");
        match reply {
            RespValue::Error(e) => assert!(e.starts_with("READONLY"), "{e}"),
            other => panic!("expected READONLY, got {other:?}"),
        }
        // Reads still serve the replicated state.
        assert_eq!(
            roundtrip(&mut client, b"*2\r\n$3\r\nGET\r\n$1\r\nk\r\n"),
            RespValue::bulk("v")
        );
    }

    #[test]
    fn psync_streams_a_remote_follower_through_the_resp_server() {
        use abase_replication::{
            FollowerPump, GroupConfig, ReplicaGroup, SocketFollower, WriteConcern,
        };
        let dir = TestDir::new("psync-resp");
        let fdir = TestDir::new("psync-resp-follower");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
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
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        // The follower in "another process": its pump thread drives the
        // REPLCONF/PSYNC handshake and the checkpoint pull.
        let mut follower = SocketFollower::connect(
            fdir.path().join("replica"),
            DbConfig::small_for_tests(),
            &addr.to_string(),
            77,
            0,
        )
        .unwrap();
        let follower_db = follower.db();
        let stop = Arc::new(AtomicBool::new(false));
        let pump = {
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut db = follower_db;
                while !stop.load(Ordering::Relaxed) {
                    match follower.pump() {
                        Ok(FollowerPump::Resynced) => db = follower.db(),
                        Ok(_) => {}
                        Err(_) => std::thread::sleep(Duration::from_millis(5)),
                    }
                    std::thread::sleep(Duration::from_millis(1));
                }
                db
            })
        };
        // Quorum over {local leader, remote follower} = 2: +OK proves the
        // REPLCONF ACK made it back through the socket.
        let mut client = TcpStream::connect(addr).unwrap();
        let reply = roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        assert_eq!(reply, RespValue::ok(), "quorum write over the socket");
        let reply = roundtrip(
            &mut client,
            b"*3\r\n$4\r\nWAIT\r\n$1\r\n1\r\n$4\r\n5000\r\n",
        );
        assert_eq!(reply, RespValue::Integer(1));
        {
            let g = group.lock();
            let remotes = g.remote_followers();
            assert_eq!(remotes.len(), 1);
            assert_eq!(remotes[0].0, 77);
            assert!(remotes[0].1 >= 1, "remote ack not recorded");
        }
        stop.store(true, Ordering::Relaxed);
        let db = pump.join().unwrap();
        let key = TableEngine::storage_string_key(0, b"k");
        assert_eq!(
            db.get(&key, 0).unwrap().value.as_deref(),
            Some(&b"v"[..]),
            "the write is not on the follower"
        );
    }

    #[test]
    fn wait_blocks_on_replica_acks() {
        use abase_replication::{GroupConfig, ReplicaGroup, WriteConcern};
        let dir = TestDir::new("wait-repl");
        let group = ReplicaGroup::bootstrap(
            1,
            dir.path(),
            &[1, 2, 3],
            GroupConfig {
                // Async at write time: WAIT is what forces shipping.
                write_concern: WriteConcern::Async,
                db: DbConfig::small_for_tests(),
                wait_timeout: Duration::from_millis(100),
            },
        )
        .unwrap();
        let engine = Arc::new(TableEngine::from_db(group.leader_db().unwrap()));
        let group = Arc::new(group.into_mutex());
        let server = RespServer::bind(engine, "127.0.0.1:0")
            .unwrap()
            .with_replication(Arc::clone(&group) as Arc<dyn ReplicationControl>);
        let addr = server.local_addr().unwrap();
        std::thread::spawn(move || server.run());
        let mut client = TcpStream::connect(addr).unwrap();
        roundtrip(&mut client, b"*3\r\n$3\r\nSET\r\n$1\r\nk\r\n$1\r\nv\r\n");
        // Before WAIT nothing shipped; WAIT 2 forces both followers to ack.
        let reply = roundtrip(&mut client, b"*3\r\n$4\r\nWAIT\r\n$1\r\n2\r\n$3\r\n100\r\n");
        assert_eq!(reply, RespValue::Integer(2));
        // The write is now durable on every follower.
        let g = group.lock();
        let lsn = g.leader_db().unwrap().last_seq();
        assert_eq!(g.acked_count(lsn), 3);
    }
}
