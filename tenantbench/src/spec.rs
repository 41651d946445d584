//! The two workloads: their key spaces, their seeded op sequences, and the
//! request bytes those ops put on the wire.
//!
//! Every phase's ops come from the workload seed alone; the server receives
//! only the bytes [`encode`] makes from them. The closed-loop phase issues a
//! fixed number of ops (a nominal rate times the phase length, never a
//! function of measured speed), so bytes written and space used depend on
//! the workload and the seed, not on how fast the server was.

use crate::wire::{push_command, push_decimal};
use abase_workload::dist::Zipf;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Commands per pipelined flight in the closed loop.
pub const FLIGHT: usize = 64;
/// Flights the closed loop keeps outstanding: enough that the server
/// always finds a flight queued, so throughput tracks the server's
/// capacity rather than client wake-ups. Eight flights are about 6 ms of
/// `hash_scan` work for the server, more than the generator's vCPU is
/// stopped for at a time on a shared host; with four the server sat idle
/// for up to a fifth of some runs.
pub const FLIGHTS_OUT: usize = 8;
/// String keys in `write_heavy`: 200k x 1 KiB, about 200 MiB, over three
/// times the 64 MiB default block cache.
pub const KEYS: u32 = 200_000;
/// Value size of each string key.
pub const VALUE_BYTES: usize = 1024;
/// Key prefix of the string keys.
pub const KEY_PREFIX: &[u8] = b"wh:";
/// Fields per hash in `hash_scan`.
pub const HASH_FIELDS: usize = 10;
/// Hashes in `hash_scan`.
pub const HASHES: u32 = 500;
/// Value size of each hash field.
pub const FIELD_BYTES: usize = 100;
/// Skew of the zipf hash choice in `hash_scan`.
pub const ZIPF_S: f64 = 0.99;

/// The tenant id the connection authenticates as.
pub const TENANT: u32 = 1;

/// One client operation. Writes carry the version they install, so the
/// value bytes follow from the op and the seed alone.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// `GET` of string key `k`.
    Get(u32),
    /// `SET` of string key `k` at a version.
    Set(u32, u32),
    /// `HGETALL` of hash `h`.
    HGetAll(u32),
    /// `HSET` of one field at a version.
    HSet(u32, u8, u32),
    /// `HSET` of every field at version 1 (the load phase).
    HSetAll(u32),
}

/// The command names the counter-agreement check compares, in
/// [`Op::command`] index order.
pub const COMMANDS: [&str; 4] = ["GET", "SET", "HGETALL", "HSET"];

impl Op {
    /// Index into [`COMMANDS`].
    pub fn command(self) -> usize {
        match self {
            Op::Get(_) => 0,
            Op::Set(..) => 1,
            Op::HGetAll(_) => 2,
            Op::HSet(..) | Op::HSetAll(_) => 3,
        }
    }

    pub fn is_write(self) -> bool {
        matches!(self, Op::Set(..) | Op::HSet(..) | Op::HSetAll(_))
    }
}

/// The workloads, named as on the command line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    WriteHeavy,
    HashScan,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::WriteHeavy, Workload::HashScan];

    pub fn name(self) -> &'static str {
        match self {
            Workload::WriteHeavy => "write_heavy",
            Workload::HashScan => "hash_scan",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Closed-loop ops issued per second of the phase: about the
    /// throughput measured on a 2-vCPU virtual machine when the benchmark
    /// was written, so the fixed op count takes roughly the phase length
    /// there.
    pub fn nominal_ops_per_s(self) -> u64 {
        match self {
            Workload::WriteHeavy => 40_000,
            Workload::HashScan => 80_000,
        }
    }

    /// The fixed open-loop request rate (per second): a sixth to a fifth of
    /// the closed-loop `ops_per_s` measured when the benchmark was written,
    /// so no backlog grows. The same rates appear in each workload's `why`
    /// in `BENCHMARK.json`.
    pub fn open_rate(self) -> u64 {
        match self {
            Workload::WriteHeavy => 8_000,
            Workload::HashScan => 15_000,
        }
    }

    /// Set-ups per untraced run; `setup_s` is their median. `hash_scan`'s
    /// set-up takes tens of milliseconds, mostly the server's start, so it
    /// takes more of them.
    pub fn setups(self) -> usize {
        match self {
            Workload::WriteHeavy => 3,
            Workload::HashScan => 9,
        }
    }

    /// Set-up ops: `write_heavy` loads every key once (its data is three
    /// times the cache, so a warm pass would only cost set-up time);
    /// `hash_scan` loads every hash, then reads each once.
    pub fn setup_ops(self) -> Vec<Op> {
        match self {
            Workload::WriteHeavy => (0..KEYS).map(|k| Op::Set(k, 1)).collect(),
            Workload::HashScan => (0..HASHES)
                .map(Op::HSetAll)
                .chain((0..HASHES).map(Op::HGetAll))
                .collect(),
        }
    }
}

/// Seeded op choice for a workload's measured phases. Writes are emitted
/// with version 0; [`crate::model::Model::plan`] assigns real versions.
pub struct Mix {
    workload: Workload,
    rng: StdRng,
    zipf: Zipf,
}

/// A distinct RNG stream per phase, so adding a phase never shifts another.
fn phase_rng(seed: u64, phase: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ phase.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

pub const PHASE_CLOSED: u64 = 1;
pub const PHASE_OPEN: u64 = 2;

impl Mix {
    pub fn new(workload: Workload, seed: u64, phase: u64) -> Mix {
        Mix {
            workload,
            rng: phase_rng(seed, phase),
            zipf: Zipf::new(HASHES as usize, ZIPF_S),
        }
    }

    /// Zipf rank scattered over the hashes (popular hashes are not all
    /// neighbours in one stripe): `rank * P mod n` with `P` prime and
    /// coprime to `n`, a permutation.
    fn scattered_hash(&mut self) -> u32 {
        const P: u64 = 7_919;
        let rank = self.zipf.sample(&mut self.rng) as u64;
        (rank * P % u64::from(HASHES)) as u32
    }

    pub fn next_op(&mut self) -> Op {
        match self.workload {
            Workload::WriteHeavy => {
                let key = self.rng.gen_range(0..KEYS);
                if self.rng.gen_range(0..4u32) < 3 {
                    Op::Set(key, 0)
                } else {
                    Op::Get(key)
                }
            }
            Workload::HashScan => {
                let hash = self.scattered_hash();
                if self.rng.gen_range(0..20u32) == 0 {
                    let field = self.rng.gen_range(0..HASH_FIELDS as u32) as u8;
                    Op::HSet(hash, field, 0)
                } else {
                    Op::HGetAll(hash)
                }
            }
        }
    }
}

/// Append the name of string key `key`: prefix plus six digits.
pub fn push_key(out: &mut Vec<u8>, key: u32) {
    out.extend_from_slice(KEY_PREFIX);
    let mut digits = [b'0'; 6];
    let mut n = key;
    for d in digits.iter_mut().rev() {
        *d = b'0' + (n % 10) as u8;
        n /= 10;
    }
    out.extend_from_slice(&digits);
}

/// The name of hash `h`: `cart:<id>` for every tenth hash, its sibling
/// `cart:<id>:items` right after it, and `user:<h>:profile` for the rest.
/// The colon-nested sibling is the point: a hash key codec that builds
/// `prefix:key:` without escaping lets `HGETALL cart:<id>` see the
/// sibling's fields.
pub fn push_hash_name(out: &mut Vec<u8>, hash: u32) {
    match hash % 10 {
        0 => {
            out.extend_from_slice(b"cart:");
            push_decimal(out, u64::from(hash));
        }
        1 => {
            out.extend_from_slice(b"cart:");
            push_decimal(out, u64::from(hash - 1));
            out.extend_from_slice(b":items");
        }
        _ => {
            out.extend_from_slice(b"user:");
            push_decimal(out, u64::from(hash));
            out.extend_from_slice(b":profile");
        }
    }
}

/// The hash whose name nests under `hash`'s: `cart:<id>:items` under
/// `cart:<id>`.
pub fn nested_sibling(hash: u32) -> Option<u32> {
    (hash.is_multiple_of(10) && hash + 1 < HASHES).then_some(hash + 1)
}

pub fn field_name(field: u8) -> [u8; 2] {
    [b'f', b'0' + field]
}

/// Value identity: which key or field a value belongs to, independent of
/// its version.
pub fn string_tag(key: u32) -> u64 {
    (1 << 40) | u64::from(key)
}

pub fn field_tag(hash: u32, field: u8) -> u64 {
    (9 << 40) | (u64::from(hash) << 8) | u64::from(field)
}

/// Append the `len` value bytes of (`tag`, `version`) under `seed`:
/// lowercase letters from a SplitMix64 stream, so every write of every key
/// is distinct and a stale or misplaced value never passes the check.
pub fn push_value(out: &mut Vec<u8>, seed: u64, tag: u64, version: u32, len: usize) {
    let mut state = seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93) ^ u64::from(version) << 20;
    let start = out.len();
    out.resize(start + len, 0);
    for chunk in out[start..].chunks_mut(8) {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        for (i, b) in chunk.iter_mut().enumerate() {
            *b = b'a' + ((z >> (i * 8)) as u8 % 26);
        }
    }
}

/// Append `op` as the request bytes the server receives. `scratch` is
/// reused across calls to hold the arguments.
pub fn encode(out: &mut Vec<u8>, scratch: &mut Vec<u8>, op: Op, seed: u64) {
    scratch.clear();
    match op {
        Op::Get(key) => {
            push_key(scratch, key);
            push_command(out, &[b"GET", scratch]);
        }
        Op::Set(key, version) => {
            push_key(scratch, key);
            let k = scratch.len();
            push_value(scratch, seed, string_tag(key), version, VALUE_BYTES);
            let (key_bytes, value) = scratch.split_at(k);
            push_command(out, &[b"SET", key_bytes, value]);
        }
        Op::HGetAll(hash) => {
            push_hash_name(scratch, hash);
            push_command(out, &[b"HGETALL", scratch]);
        }
        Op::HSet(hash, field, version) => {
            push_hash_name(scratch, hash);
            let k = scratch.len();
            push_value(scratch, seed, field_tag(hash, field), version, FIELD_BYTES);
            let (name, value) = scratch.split_at(k);
            push_command(out, &[b"HSET", name, &field_name(field), value]);
        }
        Op::HSetAll(hash) => {
            push_hash_name(scratch, hash);
            let k = scratch.len();
            for field in 0..HASH_FIELDS as u8 {
                push_value(scratch, seed, field_tag(hash, field), 1, FIELD_BYTES);
            }
            let (name, values) = scratch.split_at(k);
            let names: Vec<[u8; 2]> = (0..HASH_FIELDS as u8).map(field_name).collect();
            let mut args: Vec<&[u8]> = vec![b"HSET", name];
            for (f, value) in values.chunks(FIELD_BYTES).enumerate() {
                args.push(&names[f]);
                args.push(value);
            }
            push_command(out, &args);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_ops_and_bytes() {
        let draw = |seed| {
            let mut mix = Mix::new(Workload::HashScan, seed, PHASE_CLOSED);
            let mut out = Vec::new();
            let mut scratch = Vec::new();
            for _ in 0..200 {
                encode(&mut out, &mut scratch, mix.next_op(), seed);
            }
            out
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn write_heavy_mix_is_three_quarters_sets() {
        let mut mix = Mix::new(Workload::WriteHeavy, 1, PHASE_CLOSED);
        let sets = (0..40_000).filter(|_| mix.next_op().is_write()).count();
        assert!((29_000..31_000).contains(&sets), "{sets} sets of 40000");
    }

    #[test]
    fn hash_names_nest_one_in_ten() {
        let name = |h| {
            let mut out = Vec::new();
            push_hash_name(&mut out, h);
            String::from_utf8(out).unwrap()
        };
        assert_eq!(name(20), "cart:20");
        assert_eq!(name(21), "cart:20:items");
        assert_eq!(name(22), "user:22:profile");
        assert_eq!(nested_sibling(20), Some(21));
        assert_eq!(nested_sibling(21), None);
        assert_eq!(nested_sibling(22), None);
    }

    #[test]
    fn values_differ_by_version_and_key() {
        let value = |tag, version| {
            let mut out = Vec::new();
            push_value(&mut out, 3, tag, version, 100);
            out
        };
        let a = value(string_tag(1), 1);
        assert_eq!(a.len(), 100);
        assert!(a.iter().all(u8::is_ascii_lowercase));
        assert_ne!(a, value(string_tag(1), 2));
        assert_ne!(a, value(string_tag(2), 1));
        assert_ne!(a, value(field_tag(1, 0), 1));
    }
}
