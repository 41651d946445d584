//! The traced run: the same request bytes, replayed in wire order through
//! the public function of every layer on an in-process engine, with each
//! call timed.
//!
//! Per flight: `RespValue::parse_batch` (proto) → per command
//! `Command::from_resp` (proto) → `TableEngine::execute` (core::engine, over
//! lavastore) → `RespValue::encode` (proto).
//!
//! GETs alternate between two paths so that each reads storage exactly
//! once, as on the server, and sees the block cache the server would have
//! seen: the first, third, ... GET runs `TableEngine::execute`; the second,
//! fourth, ... runs `Db::get` on its storage key (`TableEngine::storage_string_key`, built outside
//! the timed call) and encode its value as the reply. The two halves are
//! draws from the same key distribution, so `engine.self_ns.get` is the
//! difference of their means, and the layer sum charges every GET the mean
//! `execute` time.
//!
//! The engine is opened with `DbConfig::default()`, the server's default.
//! Setup phases replay untimed, so the engine holds the same data as the
//! server when the timed phase starts.

use crate::spec::{encode, Op, COMMANDS, TENANT};
use crate::Result;
use abase_core::TableEngine;
use abase_lavastore::{Db, DbConfig};
use abase_proto::{Command, RespValue};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Time and counts summed over the timed ops.
#[derive(Debug, Default, Clone)]
pub struct Trace {
    pub ops: u64,
    pub parse_ns: f64,
    pub command_ns: f64,
    pub encode_ns: f64,
    /// Ops by [`COMMANDS`] index.
    pub by_kind: [u64; 4],
    /// `TableEngine::execute` time, and how many ops it covers, by
    /// [`COMMANDS`] index (half of the GETs).
    pub execute_ns: [f64; 4],
    pub executed: [u64; 4],
    /// `Db::get` time over the other half of the GETs.
    pub lava_get_ns: f64,
    pub lava_gets: u64,
    /// Block reads (cache hits included) and memtable answers over all GETs.
    pub get_blocks: u64,
    pub get_memtable_hits: u64,
    pub hgetall_blocks: u64,
}

/// Which layer call served a command in the replay, and its time.
enum Stage {
    Execute(f64),
    Storage(f64),
}

pub struct Replayer {
    engine: TableEngine,
    db: Arc<Db>,
    seed: u64,
    /// GETs replayed so far; even-numbered ones go to `Db::get`.
    gets: u64,
    /// Cost of one `Instant::now` pair, taken off every timed call.
    clock_ns: f64,
    wire: Vec<u8>,
    scratch: Vec<u8>,
    reply: Vec<u8>,
}

impl Replayer {
    pub fn open(dir: &Path, seed: u64) -> Result<Replayer> {
        let engine = TableEngine::open(dir, DbConfig::default())?;
        let db = engine.db();
        Ok(Replayer {
            engine,
            db,
            seed,
            gets: 0,
            clock_ns: clock_pair_ns(),
            wire: Vec::new(),
            scratch: Vec::new(),
            reply: Vec::new(),
        })
    }

    /// Replay `ops` in flights of `flight` commands, timing them into
    /// `trace` when one is given.
    pub fn run(&mut self, ops: &[Op], flight: usize, mut trace: Option<&mut Trace>) -> Result<()> {
        for ops in ops.chunks(flight) {
            self.wire.clear();
            for &op in ops {
                encode(&mut self.wire, &mut self.scratch, op, self.seed);
            }
            let t = Instant::now();
            let (batch, parsed) = RespValue::parse_batch(&self.wire);
            let parse = self.since(t);
            parsed.map_err(|e| format!("replay parse: {e:?}"))?;
            if batch.frames.len() != ops.len() || batch.consumed != self.wire.len() {
                return Err("replay: flight did not parse into its commands".into());
            }
            if let Some(trace) = trace.as_deref_mut() {
                trace.parse_ns += parse;
            }
            for (frame, &op) in batch.frames.iter().zip(ops) {
                let t = Instant::now();
                let cmd = Command::from_resp(frame).map_err(|e| format!("replay: {e}"))?;
                let command = self.since(t);
                let kind = op.command();
                self.gets += u64::from(COMMANDS[kind] == "GET");
                let (reply, io_ops, from_memtable, stage) = match &cmd {
                    Command::Get { key } if self.gets.is_multiple_of(2) => {
                        let storage_key = TableEngine::storage_string_key(TENANT, key);
                        let t = Instant::now();
                        let read = self.db.get(&storage_key, 0)?;
                        let took = self.since(t);
                        let reply = RespValue::Bulk(read.value);
                        (reply, read.io_ops, read.from_memtable, Stage::Storage(took))
                    }
                    _ => {
                        let t = Instant::now();
                        let outcome = self.engine.execute(TENANT, &cmd, 0)?;
                        let took = self.since(t);
                        let io = outcome.io_ops;
                        (
                            outcome.reply,
                            io,
                            outcome.from_memtable,
                            Stage::Execute(took),
                        )
                    }
                };
                self.reply.clear();
                let t = Instant::now();
                reply.encode(&mut self.reply);
                let encode = self.since(t);
                std::hint::black_box(&self.reply);
                let Some(trace) = trace.as_deref_mut() else {
                    continue;
                };
                trace.ops += 1;
                trace.by_kind[kind] += 1;
                trace.command_ns += command;
                trace.encode_ns += encode;
                match stage {
                    Stage::Execute(ns) => {
                        trace.execute_ns[kind] += ns;
                        trace.executed[kind] += 1;
                    }
                    Stage::Storage(ns) => {
                        trace.lava_get_ns += ns;
                        trace.lava_gets += 1;
                    }
                }
                match COMMANDS[kind] {
                    "GET" => {
                        trace.get_blocks += u64::from(io_ops);
                        trace.get_memtable_hits += u64::from(from_memtable);
                    }
                    "HGETALL" => trace.hgetall_blocks += u64::from(io_ops),
                    _ => {}
                }
            }
        }
        Ok(())
    }

    fn since(&self, t: Instant) -> f64 {
        (t.elapsed().as_nanos() as f64 - self.clock_ns).max(0.0)
    }
}

/// Median cost of two back-to-back `Instant::now` calls.
fn clock_pair_ns() -> f64 {
    let mut samples: Vec<f64> = (0..10_001)
        .map(|_| Instant::now().elapsed().as_nanos() as f64)
        .collect();
    crate::stats::median(&mut samples)
}
