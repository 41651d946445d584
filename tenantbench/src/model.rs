//! The correctness model: every value the benchmark wrote, and the reply each
//! op must get back.
//!
//! Each connection's replies come back in request order, so the model's
//! state at an op's position in its connection's sequence is exactly what
//! the server must answer. A reply counts as failed when it is an error, a
//! wrong or stale value, or a hash with a missing or extra field.
//!
//! One kind of failure is a known defect of the server, not of a run: the
//! hash key codec builds `h{tenant}:{key}:` without escaping, so `HGETALL
//! cart:<id>` also returns the fields of `cart:<id>:items`, renamed
//! `items:<field>`. [`check`] tells that reply ([`Verdict::Aliased`]) from
//! every other failure ([`Verdict::Wrong`]); a run is correct only if it has
//! no `Wrong` reply.

use crate::spec::{
    field_name, field_tag, nested_sibling, push_value, string_tag, Op, FIELD_BYTES, HASHES,
    HASH_FIELDS, KEYS, VALUE_BYTES,
};
use crate::wire::Frame;

/// The reply an op must get.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Expect {
    /// `+OK`
    Ok,
    /// Any integer: an `HSET` acknowledgement. Redis counts only new
    /// fields, this server counts every field written; the values
    /// themselves are checked by later `HGETALL`s.
    Written,
    /// The bytes of (`tag`, `version`), or nil when `version` is 0.
    Value { tag: u64, version: u32, len: usize },
    /// Exactly these fields of hash `hash` (version 0 = absent).
    /// `sibling` holds the versions of `cart:<id>:items` when `hash` is
    /// `cart:<id>` (all 0 otherwise): the fields an aliased reply adds.
    Hash {
        hash: u32,
        versions: [u32; HASH_FIELDS],
        sibling: [u32; HASH_FIELDS],
    },
}

/// How a reply compares with the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// The reply the model asks for.
    Ok,
    /// Every field of the hash, right, plus exactly the live fields of its
    /// nested sibling, renamed `items:<field>`: the known prefix aliasing.
    Aliased,
    /// Any other reply.
    Wrong,
}

/// Live versions of every key and hash field (0 = never written).
#[derive(Debug, Clone)]
pub struct Model {
    strings: Vec<u32>,
    hashes: Vec<[u32; HASH_FIELDS]>,
}

impl Default for Model {
    fn default() -> Self {
        Model {
            strings: vec![0; KEYS as usize],
            hashes: vec![[0; HASH_FIELDS]; HASHES as usize],
        }
    }
}

/// Ops with the reply each must get, in wire order.
#[derive(Debug, Default)]
pub struct Plan {
    pub ops: Vec<Op>,
    pub expects: Vec<Expect>,
}

impl Model {
    /// Apply `ops` in order. Writes get the next version of their key (a
    /// version already set on the op is replaced); every op gets its
    /// expected reply.
    pub fn plan(&mut self, ops: impl IntoIterator<Item = Op>) -> Plan {
        let mut plan = Plan::default();
        for op in ops {
            let (op, expect) = self.apply(op);
            plan.ops.push(op);
            plan.expects.push(expect);
        }
        plan
    }

    pub fn apply(&mut self, op: Op) -> (Op, Expect) {
        match op {
            Op::Get(key) => {
                let version = self.strings[key as usize];
                let tag = string_tag(key);
                let len = VALUE_BYTES;
                (op, Expect::Value { tag, version, len })
            }
            Op::Set(key, _) => {
                let slot = &mut self.strings[key as usize];
                *slot += 1;
                (Op::Set(key, *slot), Expect::Ok)
            }
            Op::HGetAll(hash) => {
                let versions = self.hashes[hash as usize];
                let sibling = match nested_sibling(hash) {
                    Some(s) => self.hashes[s as usize],
                    None => [0; HASH_FIELDS],
                };
                let expect = Expect::Hash {
                    hash,
                    versions,
                    sibling,
                };
                (op, expect)
            }
            Op::HSet(hash, field, _) => {
                let slot = &mut self.hashes[hash as usize][field as usize];
                *slot += 1;
                (Op::HSet(hash, field, *slot), Expect::Written)
            }
            Op::HSetAll(hash) => {
                self.hashes[hash as usize] = [1; HASH_FIELDS];
                (op, Expect::Written)
            }
        }
    }

    /// Logical bytes of live data: key plus value of every live string, and
    /// key plus field plus value of every live hash field.
    pub fn live_bytes(&self) -> u64 {
        let live = self.strings.iter().filter(|&&v| v > 0).count() as u64;
        let key_len = crate::spec::KEY_PREFIX.len() as u64 + 6;
        let mut total = live * (key_len + VALUE_BYTES as u64);
        let mut name = Vec::new();
        for (hash, fields) in self.hashes.iter().enumerate() {
            name.clear();
            crate::spec::push_hash_name(&mut name, hash as u32);
            let live = fields.iter().filter(|&&v| v > 0).count() as u64;
            total += live * (name.len() as u64 + 2 + FIELD_BYTES as u64);
        }
        total
    }
}

/// Judge `frame` (ranges into `buf`) against the reply `expect` asks for.
pub fn check(expect: &Expect, frame: &Frame, buf: &[u8], seed: u64) -> Verdict {
    let ok = |right: bool| if right { Verdict::Ok } else { Verdict::Wrong };
    let mut want = Vec::new();
    match (expect, frame) {
        (Expect::Ok, Frame::Simple(r)) => ok(&buf[r.clone()] == b"OK"),
        (Expect::Written, Frame::Int(n)) => ok(*n >= 0),
        (Expect::Value { version: 0, .. }, Frame::Bulk(None)) => Verdict::Ok,
        (Expect::Value { tag, version, len }, Frame::Bulk(Some(r))) if *version > 0 => {
            push_value(&mut want, seed, *tag, *version, *len);
            ok(buf[r.clone()] == want[..])
        }
        (
            Expect::Hash {
                hash,
                versions,
                sibling,
            },
            Frame::Array(Some(items)),
        ) => {
            let live = |v: &[u32; HASH_FIELDS]| v.iter().filter(|&&v| v > 0).count();
            if items.len() % 2 != 0 {
                return Verdict::Wrong;
            }
            // Fields seen, of the hash itself and of its aliased sibling.
            let mut seen = [[false; HASH_FIELDS]; 2];
            for pair in items.chunks(2) {
                let (Some(f), Some(v)) = (&pair[0], &pair[1]) else {
                    return Verdict::Wrong;
                };
                let name = &buf[f.clone()];
                let (side, name) = match name.strip_prefix(b"items:") {
                    Some(rest) => (1, rest),
                    None => (0, name),
                };
                let Some(field) = (0..HASH_FIELDS as u8).find(|&i| field_name(i) == name) else {
                    return Verdict::Wrong;
                };
                let (owner, version) = match (side, nested_sibling(*hash)) {
                    (0, _) => (*hash, versions[field as usize]),
                    (_, Some(s)) => (s, sibling[field as usize]),
                    (_, None) => return Verdict::Wrong,
                };
                if version == 0 || std::mem::replace(&mut seen[side][field as usize], true) {
                    return Verdict::Wrong;
                }
                want.clear();
                push_value(
                    &mut want,
                    seed,
                    field_tag(owner, field),
                    version,
                    FIELD_BYTES,
                );
                if buf[v.clone()] != want[..] {
                    return Verdict::Wrong;
                }
            }
            let own = seen[0].iter().filter(|&&s| s).count();
            let aliased = seen[1].iter().filter(|&&s| s).count();
            match (own == live(versions), aliased) {
                (true, 0) => Verdict::Ok,
                (true, n) if n == live(sibling) => Verdict::Aliased,
                _ => Verdict::Wrong,
            }
        }
        _ => Verdict::Wrong,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::push_hash_name;
    use crate::wire::{push_command, scan};

    /// Encode `args` as a RESP array of bulk strings (how the server sends
    /// `HGETALL` replies), then scan it back as one frame.
    fn reply(args: &[&[u8]]) -> (Frame, Vec<u8>) {
        let mut buf = Vec::new();
        push_command(&mut buf, args);
        let (frame, _) = scan(&buf, 0).unwrap().unwrap();
        (frame, buf)
    }

    fn value(tag: u64, version: u32, len: usize) -> Vec<u8> {
        let mut out = Vec::new();
        push_value(&mut out, 5, tag, version, len);
        out
    }

    #[test]
    fn get_checks_value_version_and_nil() {
        let mut model = Model::default();
        let (_, before) = model.apply(Op::Get(3));
        assert_eq!(check(&before, &Frame::Bulk(None), b"", 5), Verdict::Ok);
        model.apply(Op::Set(3, 0));
        model.apply(Op::Set(3, 0));
        let (_, after) = model.apply(Op::Get(3));
        let v2 = value(string_tag(3), 2, VALUE_BYTES);
        let whole = Frame::Bulk(Some(0..VALUE_BYTES));
        assert_eq!(check(&after, &whole, &v2, 5), Verdict::Ok);
        let v1 = value(string_tag(3), 1, VALUE_BYTES);
        assert_eq!(check(&after, &whole, &v1, 5), Verdict::Wrong, "stale");
        let other = value(string_tag(4), 2, VALUE_BYTES);
        assert_eq!(
            check(&after, &whole, &other, 5),
            Verdict::Wrong,
            "misplaced"
        );
        assert_eq!(
            check(&after, &Frame::Bulk(None), b"", 5),
            Verdict::Wrong,
            "lost"
        );
        let error = Frame::Error(0..3);
        assert_eq!(check(&Expect::Ok, &error, b"ERR", 5), Verdict::Wrong);
    }

    /// Field/value pairs of hash `hash` at version 1, each field name
    /// prefixed with `prefix`.
    fn fields(hash: u32, prefix: &[u8]) -> Vec<(Vec<u8>, Vec<u8>)> {
        (0..HASH_FIELDS as u8)
            .map(|f| {
                let mut name = prefix.to_vec();
                name.extend_from_slice(&field_name(f));
                (name, value(field_tag(hash, f), 1, FIELD_BYTES))
            })
            .collect()
    }

    fn args(pairs: &[(Vec<u8>, Vec<u8>)]) -> Vec<&[u8]> {
        pairs
            .iter()
            .flat_map(|(f, v)| [f.as_slice(), v.as_slice()])
            .collect()
    }

    #[test]
    fn hash_reply_must_hold_exactly_the_live_fields() {
        let mut model = Model::default();
        model.apply(Op::HSetAll(22));
        let (_, expect) = model.apply(Op::HGetAll(22));
        let mut own = fields(22, b"");
        // Reverse order: the check must not depend on reply order.
        own.reverse();
        let judge = |pairs: &[(Vec<u8>, Vec<u8>)]| {
            let (frame, buf) = reply(&args(pairs));
            check(&expect, &frame, &buf, 5)
        };
        assert_eq!(judge(&own), Verdict::Ok);
        assert_eq!(judge(&own[1..]), Verdict::Wrong, "missing field");
        let mut doubled = own.clone();
        doubled[0].0 = own[1].0.clone();
        assert_eq!(judge(&doubled), Verdict::Wrong, "duplicated field");
        let mut stale = own.clone();
        stale[3].1 = value(field_tag(22, 6), 2, FIELD_BYTES);
        assert_eq!(judge(&stale), Verdict::Wrong, "wrong value");
        // `user:22:profile` has no nested sibling: `items:` fields on it
        // are not the known aliasing.
        let extra = [own.clone(), fields(23, b"items:")].concat();
        assert_eq!(judge(&extra), Verdict::Wrong);
    }

    /// What the `h{tenant}:{key}:` prefix codec returns for `HGETALL
    /// cart:20` once `cart:20:items` exists: the sibling's fields, renamed
    /// `items:<field>`. It is a failure, of the known kind; any other
    /// deviation from it is not.
    #[test]
    fn aliased_hgetall_reply_is_a_known_failure() {
        let mut model = Model::default();
        model.apply(Op::HSetAll(20));
        model.apply(Op::HSetAll(21));
        let (_, expect) = model.apply(Op::HGetAll(20));
        let mut sibling = Vec::new();
        push_hash_name(&mut sibling, 21);
        assert_eq!(sibling, b"cart:20:items");
        let judge = |pairs: &[(Vec<u8>, Vec<u8>)]| {
            let (frame, buf) = reply(&args(pairs));
            check(&expect, &frame, &buf, 5)
        };
        let own = fields(20, b"");
        let aliased = fields(21, b"items:");
        let both = [own.clone(), aliased.clone()].concat();
        assert_eq!(judge(&both), Verdict::Aliased);
        assert_eq!(judge(&own), Verdict::Ok, "the unaliased reply passes");
        assert_eq!(judge(&both[1..]), Verdict::Wrong, "an own field lost");
        assert_eq!(judge(&both[..19]), Verdict::Wrong, "a sibling field lost");
        let mut stale = both.clone();
        stale[15].1 = value(field_tag(21, 5), 2, FIELD_BYTES);
        assert_eq!(judge(&stale), Verdict::Wrong, "a wrong sibling value");
    }

    #[test]
    fn live_bytes_counts_keys_fields_and_values() {
        let mut model = Model::default();
        assert_eq!(model.live_bytes(), 0);
        model.apply(Op::Set(1, 0));
        model.apply(Op::Set(1, 0));
        assert_eq!(model.live_bytes(), 9 + 1024);
        model.apply(Op::HSet(22, 3, 0));
        assert_eq!(model.live_bytes(), 9 + 1024 + 15 + 2 + 100);
    }
}
