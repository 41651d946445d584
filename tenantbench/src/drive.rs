//! Load generation over real sockets: the closed loop (pipelined flights)
//! and the open loop (a fixed-rate schedule).
//!
//! Latency in an open loop is timed from each request's *due* time, so a
//! stall in the server or in the generator itself is charged to the
//! requests it delayed. The generator sleeps in `ppoll` between due times
//! instead of spinning, and how late it wrote each request is reported as
//! its own number.

use crate::model::{check, Plan, Verdict};
use crate::server::Scrape;
use crate::spec::{encode, Op, COMMANDS, FLIGHT, FLIGHTS_OUT};
use crate::wire::{push_command, Frame, Replies};
use crate::Result;
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Completed ops, failures and written bytes, by command.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    /// Replies the model rejected, of any kind.
    pub failed: u64,
    /// The failed replies that are not the known hash-prefix aliasing
    /// ([`Verdict::Wrong`]); a run is correct only when this is 0.
    pub wrong: u64,
    /// Completed commands by [`COMMANDS`] index.
    pub commands: [u64; 4],
    /// User bytes the writes carried: key and value (for HSET, the hash
    /// name and field values).
    pub written_bytes: u64,
}

impl Tally {
    fn record(&mut self, op: Op, verdict: Verdict) {
        self.attempted += 1;
        self.failed += u64::from(verdict != Verdict::Ok);
        self.wrong += u64::from(verdict == Verdict::Wrong);
        self.commands[op.command()] += 1;
    }

    pub fn add(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.wrong += other.wrong;
        for (a, b) in self.commands.iter_mut().zip(other.commands) {
            *a += b;
        }
        self.written_bytes += other.written_bytes;
    }

    /// Whether every failed reply was the known hash-prefix aliasing.
    pub fn correct(&self) -> bool {
        self.wrong == 0
    }

    pub fn reads(&self) -> u64 {
        self.commands[0] + self.commands[2]
    }

    pub fn writes(&self) -> u64 {
        self.commands[1] + self.commands[3]
    }
}

/// One authenticated client connection.
pub struct Conn {
    stream: TcpStream,
    replies: Replies,
    seed: u64,
    buf: Vec<u8>,
    scratch: Vec<u8>,
}

impl Conn {
    pub fn open(addr: SocketAddr, tenant: u32, seed: u64) -> Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            replies: Replies::new(stream.try_clone()?),
            stream,
            seed,
            buf: Vec::new(),
            scratch: Vec::new(),
        };
        let (frame, buf) = conn.request(&[b"AUTH", tenant.to_string().as_bytes()])?;
        if !matches!(frame, Frame::Simple(r) if &buf[r.clone()] == b"OK") {
            return Err("AUTH refused".into());
        }
        Ok(conn)
    }

    fn request(&mut self, args: &[&[u8]]) -> Result<(Frame, &[u8])> {
        self.buf.clear();
        push_command(&mut self.buf, args);
        self.stream.write_all(&self.buf)?;
        Ok(self.replies.next()?)
    }

    /// Scrape the server's `METRICS` exposition over this connection.
    pub fn metrics(&mut self) -> Result<Scrape> {
        let (frame, buf) = self.request(&[b"METRICS"])?;
        let Frame::Bulk(Some(r)) = frame else {
            return Err("METRICS did not return a bulk string".into());
        };
        Scrape::parse(std::str::from_utf8(&buf[r])?)
    }

    /// Encode `op` into the send buffer, counting a write's user bytes.
    fn push(&mut self, op: Op, tally: &mut Tally) {
        encode(&mut self.buf, &mut self.scratch, op, self.seed);
        if op.is_write() {
            tally.written_bytes += self.scratch.len() as u64;
        }
    }

    /// Run `plan` as a closed loop of pipelined flights of [`FLIGHT`]
    /// commands, keeping [`FLIGHTS_OUT`] flights outstanding: each time a
    /// flight's replies are all read, the next flight is sent, so the
    /// server finds the next flight queued instead of waiting a round trip
    /// for it.
    pub fn closed_loop(&mut self, plan: &Plan) -> Result<Tally> {
        let mut tally = Tally::default();
        let flights: Vec<&[Op]> = plan.ops.chunks(FLIGHT).collect();
        for ops in flights.iter().take(FLIGHTS_OUT) {
            self.send_flight(ops, &mut tally)?;
        }
        for (f, ops) in flights.iter().enumerate() {
            for (i, &op) in ops.iter().enumerate() {
                let (frame, buf) = self.replies.next()?;
                let verdict = check(&plan.expects[f * FLIGHT + i], &frame, buf, self.seed);
                tally.record(op, verdict);
            }
            if let Some(next) = flights.get(f + FLIGHTS_OUT) {
                self.send_flight(next, &mut tally)?;
            }
        }
        Ok(tally)
    }

    fn send_flight(&mut self, ops: &[Op], tally: &mut Tally) -> Result<()> {
        self.buf.clear();
        for &op in ops {
            self.push(op, tally);
        }
        self.stream.write_all(&self.buf)?;
        Ok(())
    }

    /// Run `plan` as an open loop at `rate` requests/s on this connection,
    /// from this one thread: write every request that is due, read every
    /// reply that has arrived, and sleep in `ppoll` until the next due time
    /// or the next reply. Returns the tally, each request's latency from
    /// its due time, and how late each request was written (both in µs).
    pub fn open_loop(&mut self, plan: &Plan, rate: u64) -> Result<(Tally, Vec<f64>, Vec<f64>)> {
        self.stream.set_nonblocking(true)?;
        let result = self.open_loop_nonblocking(plan, rate);
        self.stream.set_nonblocking(false)?;
        result
    }

    fn open_loop_nonblocking(
        &mut self,
        plan: &Plan,
        rate: u64,
    ) -> Result<(Tally, Vec<f64>, Vec<f64>)> {
        let schedule = Schedule::new(Instant::now(), rate);
        let n = plan.ops.len();
        let mut tally = Tally::default();
        let mut latencies = Vec::with_capacity(n);
        let mut lags = Vec::with_capacity(n);
        let (mut sent, mut received) = (0, 0);
        let mut written = 0;
        self.buf.clear();
        loop {
            let now = Instant::now();
            let first = sent;
            while sent < n && schedule.due(sent) <= now {
                self.push(plan.ops[sent], &mut tally);
                sent += 1;
            }
            if written < self.buf.len() {
                match self.stream.write(&self.buf[written..]) {
                    Ok(k) => written += k,
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::Interrupted
                        ) => {}
                    Err(e) => return Err(e.into()),
                }
                if written == self.buf.len() {
                    self.buf.clear();
                    written = 0;
                }
            }
            if sent > first {
                let at = Instant::now();
                lags.extend((first..sent).map(|i| schedule.late_us(i, at)));
            }
            while self.replies.read_some()? {
                let at = Instant::now();
                while let Some(frame) = self.replies.buffered()? {
                    if received == sent {
                        return Err("a reply arrived for a request never sent".into());
                    }
                    latencies.push(schedule.late_us(received, at));
                    let verdict = check(
                        &plan.expects[received],
                        &frame,
                        self.replies.buf(),
                        self.seed,
                    );
                    tally.record(plan.ops[received], verdict);
                    received += 1;
                }
            }
            if received == n {
                return Ok((tally, latencies, lags));
            }
            let next_due = (sent < n).then(|| schedule.due(sent));
            let timeout = next_due.map(|due| due.saturating_duration_since(Instant::now()));
            wait(&self.stream, written < self.buf.len(), timeout)?;
        }
    }
}

/// A fixed-rate schedule: request `i` is due `i / rate` seconds after
/// `start`.
#[derive(Debug, Clone, Copy)]
pub struct Schedule {
    start: Instant,
    rate: u64,
}

impl Schedule {
    pub fn new(start: Instant, rate: u64) -> Schedule {
        assert!(rate > 0, "an open loop needs a positive rate");
        Schedule { start, rate }
    }

    pub fn due(&self, i: usize) -> Instant {
        self.start + Duration::from_nanos((i as u64).saturating_mul(1_000_000_000) / self.rate)
    }

    /// Microseconds from request `i`'s due time to `at` (0 if `at` is
    /// earlier): its latency when `at` is its reply, its send lag when
    /// `at` is its write.
    pub fn late_us(&self, i: usize, at: Instant) -> f64 {
        at.saturating_duration_since(self.due(i)).as_nanos() as f64 / 1e3
    }
}

/// Compare the benchmark's completed-command counts with the server's
/// `abase_server_commands_total` deltas over the same interval.
pub fn counters_agree(tally: &Tally, delta: &Scrape) -> Result<()> {
    for (i, name) in COMMANDS.iter().enumerate() {
        let server = delta.member("abase_server_commands_total", "command", name);
        if server != tally.commands[i] as f64 {
            return Err(format!(
                "counter disagreement on {name}: benchmark completed {}, server counted {server}",
                tally.commands[i]
            )
            .into());
        }
    }
    Ok(())
}

/// Block until `stream` is readable (or writable, when `write`), or until
/// `timeout` passes. `ppoll` takes a nanosecond timeout, so the wait ends
/// at the due time, not at the next millisecond.
fn wait(stream: &TcpStream, write: bool, timeout: Option<Duration>) -> Result<()> {
    #[repr(C)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn ppoll(fds: *mut PollFd, nfds: u64, timeout: *const Timespec, sigmask: *const u8) -> i32;
    }
    const POLLIN: i16 = 0x1;
    const POLLOUT: i16 = 0x4;
    let mut fd = PollFd {
        fd: std::os::fd::AsRawFd::as_raw_fd(stream),
        events: if write { POLLIN | POLLOUT } else { POLLIN },
        revents: 0,
    };
    let ts = timeout.map(|t| Timespec {
        tv_sec: t.as_secs() as i64,
        tv_nsec: i64::from(t.subsec_nanos()),
    });
    let ts_ptr = ts
        .as_ref()
        .map_or(std::ptr::null(), |t| t as *const Timespec);
    // SAFETY: `fd` and `ts` outlive the call, `nfds` is 1 for the one
    // PollFd, and a null sigmask leaves the signal mask unchanged.
    let rc = unsafe { ppoll(&mut fd, 1, ts_ptr, std::ptr::null()) };
    if rc < 0 {
        let e = std::io::Error::last_os_error();
        if e.kind() != std::io::ErrorKind::Interrupted {
            return Err(e.into());
        }
    }
    Ok(())
}

/// Shrink this thread's timer slack to 1 ns so timed waits end at their
/// due time instead of up to 50 µs later (the Linux default slack).
pub fn set_fine_timer_slack() {
    extern "C" {
        fn prctl(option: i32, ...) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long by value and
    // touches no caller memory.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Model;
    use crate::spec::{push_value, string_tag, VALUE_BYTES};

    /// A stale GET reply makes the run incorrect.
    #[test]
    fn stale_get_makes_the_run_incorrect() {
        let mut model = Model::default();
        model.apply(Op::Set(3, 0));
        model.apply(Op::Set(3, 0));
        let (op, expect) = model.apply(Op::Get(3));
        let mut stale = Vec::new();
        push_value(&mut stale, 5, string_tag(3), 1, VALUE_BYTES);
        let mut t = Tally::default();
        t.record(
            op,
            check(&expect, &Frame::Bulk(Some(0..stale.len())), &stale, 5),
        );
        assert_eq!((t.failed, t.wrong), (1, 1));
        assert!(!t.correct());
    }

    #[test]
    fn open_loop_charges_stalls_from_the_due_time() {
        let start = Instant::now();
        let schedule = Schedule::new(start, 10_000);
        assert_eq!(schedule.due(3), start + Duration::from_micros(300));
        // The server stalls and answers requests 0..3 together at 1 ms:
        // each is charged from its own due time, not from when it was sent.
        let answered = start + Duration::from_micros(1000);
        let lat: Vec<f64> = (0..3).map(|i| schedule.late_us(i, answered)).collect();
        assert_eq!(lat, vec![1000.0, 900.0, 800.0]);
        // A generator that wrote request 2 at 230 µs ran 30 µs late.
        assert_eq!(
            schedule.late_us(2, start + Duration::from_micros(230)),
            30.0
        );
        // Early is not negative.
        assert_eq!(schedule.late_us(5, start), 0.0);
    }

    #[test]
    fn tally_counts_failures_and_agrees_with_counters() {
        let mut t = Tally::default();
        t.record(Op::Get(1), Verdict::Ok);
        t.record(Op::HGetAll(20), Verdict::Aliased);
        assert!(t.correct(), "the known aliasing fails a reply, not the run");
        t.record(Op::Set(1, 1), Verdict::Wrong);
        assert_eq!((t.attempted, t.failed, t.wrong), (3, 2, 1));
        assert_eq!((t.reads(), t.writes()), (2, 1));
        let mut total = Tally::default();
        total.add(&t);
        assert!(!total.correct());
        let mut delta = Scrape::parse(
            "abase_server_commands_total{command=\"GET\"} 1\nabase_server_commands_total{command=\"SET\"} 1\nabase_server_commands_total{command=\"HGETALL\"} 1\n",
        )
        .unwrap();
        assert!(counters_agree(&t, &delta).is_ok());
        delta = Scrape::parse("abase_server_commands_total{command=\"GET\"} 1\n").unwrap();
        assert!(counters_agree(&t, &delta).is_err());
    }
}
