//! The real data path: RESP commands against LavaStore.
//!
//! Each DataNode runs a [`TableEngine`] that executes [`Command`]s for many
//! tenants against one [`Db`], namespacing keys as
//! `t<tenant>:<user key>` for strings and `h<tenant>:<key>:<field>` for hash
//! fields. Hash commands map onto prefix scans, which is exactly how the
//! paper's `HGetAll` decomposes into `HLen` + scan (§4.1).

use abase_lavastore::{Db, DbConfig, ReadResult};
use abase_proto::{Command, RespValue};
use abase_util::clock::SimTime;
use abase_util::lockrank::{rank, RankedRwLock};
use bytes::Bytes;
use std::sync::Arc;

use crate::types::TenantId;

/// Outcome of executing one command.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecOutcome {
    /// The RESP reply to send to the client.
    pub reply: RespValue,
    /// Block I/Os performed by the storage engine.
    pub io_ops: u32,
    /// Bytes returned to the client (the "actual size" RU charging uses).
    pub bytes_returned: usize,
    /// True when the engine served the read without touching SSTs.
    pub from_memtable: bool,
}

/// A multi-tenant table engine over one LavaStore instance.
///
/// The store is held behind an [`Arc`] so a replication plane can share it:
/// a replica-group leader executes commands through the engine while the
/// group ships the same store's WAL to followers, and a follower's engine
/// serves reads over the store the group keeps in sync. The handle is
/// swappable ([`TableEngine::swap_db`]) because a socket follower's full
/// resync replaces its store wholesale while the RESP server keeps serving.
pub struct TableEngine {
    db: RankedRwLock<Arc<Db>>,
}

impl std::fmt::Debug for TableEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableEngine")
            .field("dir", &self.db().dir())
            .finish()
    }
}

impl TableEngine {
    /// Open an engine rooted at `dir`.
    pub fn open(
        dir: impl AsRef<std::path::Path>,
        config: DbConfig,
    ) -> abase_lavastore::Result<Self> {
        Ok(Self {
            db: RankedRwLock::new(rank::ENGINE_DB, Arc::new(Db::open(dir, config)?)),
        })
    }

    /// An engine over an existing (typically replicated) store.
    pub fn from_db(db: Arc<Db>) -> Self {
        Self {
            db: RankedRwLock::new(rank::ENGINE_DB, db),
        }
    }

    /// The current store handle (flush/compaction control, direct reads).
    pub fn db(&self) -> Arc<Db> {
        Arc::clone(&self.db.read())
    }

    /// Replace the underlying store. Commands already executing finish
    /// against the handle they cloned; new commands see the replacement —
    /// exactly the semantics a follower needs when a full resync swaps its
    /// data directory for a fresh leader checkpoint.
    pub fn swap_db(&self, db: Arc<Db>) {
        *self.db.write() = db;
    }

    /// The storage-level key a tenant's string key namespaces to — exposed so
    /// the server's routed read path can issue the same read against a
    /// follower replica's store.
    pub fn storage_string_key(tenant: TenantId, key: &[u8]) -> Vec<u8> {
        Self::string_key(tenant, key)
    }

    fn string_key(tenant: TenantId, key: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(key.len() + 12);
        out.extend_from_slice(format!("t{tenant}:").as_bytes());
        out.extend_from_slice(key);
        out
    }

    fn hash_prefix(tenant: TenantId, key: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(key.len() + 12);
        out.extend_from_slice(format!("h{tenant}:").as_bytes());
        out.extend_from_slice(key);
        out.push(b':');
        out
    }

    fn hash_field_key(tenant: TenantId, key: &[u8], field: &[u8]) -> Vec<u8> {
        let mut out = Self::hash_prefix(tenant, key);
        out.extend_from_slice(field);
        out
    }

    /// Execute `cmd` on behalf of `tenant` at virtual time `now`.
    pub fn execute(
        &self,
        tenant: TenantId,
        cmd: &Command,
        now: SimTime,
    ) -> abase_lavastore::Result<ExecOutcome> {
        let db = self.db();
        match cmd {
            Command::Ping => Ok(ExecOutcome {
                reply: RespValue::Simple("PONG".into()),
                io_ops: 0,
                bytes_returned: 4,
                from_memtable: true,
            }),
            // Replication control commands are answered by the server's
            // replication handle when one is attached; a bare engine has no
            // replicas, so WAIT reports zero acks and REPLCONF is accepted.
            Command::Wait { .. } => Ok(ExecOutcome {
                reply: RespValue::Integer(0),
                io_ops: 0,
                bytes_returned: 8,
                from_memtable: true,
            }),
            Command::ReplConf { .. } => Ok(ExecOutcome {
                reply: RespValue::ok(),
                io_ops: 0,
                bytes_returned: 2,
                from_memtable: true,
            }),
            // PSYNC only makes sense on a connection the server switched
            // into replica-streaming mode; reaching the engine means no
            // replication plane is attached here.
            Command::PSync { .. } => Ok(ExecOutcome {
                reply: RespValue::Error("ERR PSYNC requires a replication-enabled leader".into()),
                io_ops: 0,
                bytes_returned: 0,
                from_memtable: true,
            }),
            // Consistency is per-connection state owned by the server's read
            // routing; a bare engine acknowledges and stays leader-local.
            Command::Consistency { .. } => Ok(ExecOutcome {
                reply: RespValue::ok(),
                io_ops: 0,
                bytes_returned: 2,
                from_memtable: true,
            }),
            // Observability commands are answered by the server front end
            // (which owns the registry snapshot and per-server slowlog);
            // a bare engine has nothing to report.
            Command::Info { .. } | Command::Slowlog { .. } | Command::Metrics => Ok(ExecOutcome {
                reply: RespValue::Error(
                    "ERR observability commands are served by the RESP front end".into(),
                ),
                io_ops: 0,
                bytes_returned: 0,
                from_memtable: true,
            }),
            Command::Get { key } => {
                let r = db.get(&Self::string_key(tenant, key), now)?;
                Ok(Self::bulk_outcome(r))
            }
            Command::Set {
                key,
                value,
                ttl_secs,
            } => {
                let expires = ttl_secs.map(|s| now + s * 1_000_000);
                db.put(&Self::string_key(tenant, key), value, expires, now)?;
                Ok(ExecOutcome {
                    reply: RespValue::ok(),
                    io_ops: 0,
                    bytes_returned: 2,
                    from_memtable: true,
                })
            }
            Command::Del { keys } => {
                let mut removed = 0i64;
                let mut io = 0u32;
                for key in keys {
                    let sk = Self::string_key(tenant, key);
                    let r = db.get(&sk, now)?;
                    io += r.io_ops;
                    if r.value.is_some() {
                        db.delete(&sk, now)?;
                        removed += 1;
                    }
                }
                Ok(ExecOutcome {
                    reply: RespValue::Integer(removed),
                    io_ops: io,
                    bytes_returned: 8,
                    from_memtable: false,
                })
            }
            Command::Exists { key } => {
                let r = db.get(&Self::string_key(tenant, key), now)?;
                Ok(ExecOutcome {
                    reply: RespValue::Integer(i64::from(r.value.is_some())),
                    io_ops: r.io_ops,
                    bytes_returned: 8,
                    from_memtable: r.from_memtable,
                })
            }
            Command::Expire { key, secs } => {
                let sk = Self::string_key(tenant, key);
                let r = db.get(&sk, now)?;
                match r.value {
                    None => Ok(ExecOutcome {
                        reply: RespValue::Integer(0),
                        io_ops: r.io_ops,
                        bytes_returned: 8,
                        from_memtable: r.from_memtable,
                    }),
                    Some(value) => {
                        db.put(&sk, &value, Some(now + secs * 1_000_000), now)?;
                        Ok(ExecOutcome {
                            reply: RespValue::Integer(1),
                            io_ops: r.io_ops,
                            bytes_returned: 8,
                            from_memtable: r.from_memtable,
                        })
                    }
                }
            }
            Command::HSet { key, pairs } => {
                for (field, value) in pairs {
                    db.put(&Self::hash_field_key(tenant, key, field), value, None, now)?;
                }
                Ok(ExecOutcome {
                    reply: RespValue::Integer(pairs.len() as i64),
                    io_ops: 0,
                    bytes_returned: 8,
                    from_memtable: true,
                })
            }
            Command::HGet { key, field } => {
                let r = db.get(&Self::hash_field_key(tenant, key, field), now)?;
                Ok(Self::bulk_outcome(r))
            }
            Command::HDel { key, fields } => {
                let mut removed = 0i64;
                let mut io = 0u32;
                for field in fields {
                    let fk = Self::hash_field_key(tenant, key, field);
                    let r = db.get(&fk, now)?;
                    io += r.io_ops;
                    if r.value.is_some() {
                        db.delete(&fk, now)?;
                        removed += 1;
                    }
                }
                Ok(ExecOutcome {
                    reply: RespValue::Integer(removed),
                    io_ops: io,
                    bytes_returned: 8,
                    from_memtable: false,
                })
            }
            Command::HLen { key } => {
                let (pairs, io) = db.scan_prefix(&Self::hash_prefix(tenant, key), now)?;
                Ok(ExecOutcome {
                    reply: RespValue::Integer(pairs.len() as i64),
                    io_ops: io,
                    bytes_returned: 8,
                    from_memtable: false,
                })
            }
            Command::HGetAll { key } => {
                let prefix = Self::hash_prefix(tenant, key);
                let (pairs, io) = db.scan_prefix(&prefix, now)?;
                let mut items = Vec::with_capacity(pairs.len() * 2);
                let mut bytes = 0usize;
                for (k, v) in pairs {
                    let field = Bytes::copy_from_slice(&k[prefix.len()..]);
                    bytes += field.len() + v.len();
                    items.push(RespValue::Bulk(Some(field)));
                    items.push(RespValue::Bulk(Some(v)));
                }
                Ok(ExecOutcome {
                    reply: RespValue::array(items),
                    io_ops: io,
                    bytes_returned: bytes,
                    from_memtable: false,
                })
            }
        }
    }

    fn bulk_outcome(r: ReadResult) -> ExecOutcome {
        let bytes_returned = r.value.as_ref().map(Bytes::len).unwrap_or(0);
        ExecOutcome {
            reply: RespValue::Bulk(r.value),
            io_ops: r.io_ops,
            bytes_returned,
            from_memtable: r.from_memtable,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::TestDir;

    fn engine(tag: &str) -> (TestDir, TableEngine) {
        let dir = TestDir::new(tag);
        let e = TableEngine::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        (dir, e)
    }

    fn set(key: &str, value: &str, ttl: Option<u64>) -> Command {
        Command::Set {
            key: Bytes::copy_from_slice(key.as_bytes()),
            value: Bytes::copy_from_slice(value.as_bytes()),
            ttl_secs: ttl,
        }
    }

    fn get(key: &str) -> Command {
        Command::Get {
            key: Bytes::copy_from_slice(key.as_bytes()),
        }
    }

    #[test]
    fn set_get_roundtrip() {
        let (_d, e) = engine("setget");
        e.execute(1, &set("k", "v", None), 0).unwrap();
        let out = e.execute(1, &get("k"), 0).unwrap();
        assert_eq!(out.reply, RespValue::bulk("v"));
        assert_eq!(out.bytes_returned, 1);
    }

    #[test]
    fn tenants_are_namespaced() {
        let (_d, e) = engine("ns");
        e.execute(1, &set("k", "tenant1", None), 0).unwrap();
        e.execute(2, &set("k", "tenant2", None), 0).unwrap();
        assert_eq!(
            e.execute(1, &get("k"), 0).unwrap().reply,
            RespValue::bulk("tenant1")
        );
        assert_eq!(
            e.execute(2, &get("k"), 0).unwrap().reply,
            RespValue::bulk("tenant2")
        );
    }

    #[test]
    fn ttl_expires_via_virtual_time() {
        let (_d, e) = engine("ttl");
        e.execute(1, &set("k", "v", Some(30)), 0).unwrap();
        assert_eq!(
            e.execute(1, &get("k"), 29_999_999).unwrap().reply,
            RespValue::bulk("v")
        );
        assert_eq!(
            e.execute(1, &get("k"), 30_000_001).unwrap().reply,
            RespValue::Bulk(None)
        );
    }

    #[test]
    fn expire_command_rearms_ttl() {
        let (_d, e) = engine("expire");
        e.execute(1, &set("k", "v", None), 0).unwrap();
        let out = e
            .execute(
                1,
                &Command::Expire {
                    key: "k".into(),
                    secs: 10,
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(1));
        assert_eq!(
            e.execute(1, &get("k"), 11_000_000).unwrap().reply,
            RespValue::Bulk(None)
        );
        // EXPIRE on a missing key returns 0.
        let out = e
            .execute(
                1,
                &Command::Expire {
                    key: "nope".into(),
                    secs: 10,
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(0));
    }

    #[test]
    fn del_and_exists() {
        let (_d, e) = engine("del");
        e.execute(1, &set("a", "1", None), 0).unwrap();
        e.execute(1, &set("b", "2", None), 0).unwrap();
        let out = e
            .execute(
                1,
                &Command::Del {
                    keys: vec!["a".into(), "b".into(), "missing".into()],
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(2));
        let out = e
            .execute(1, &Command::Exists { key: "a".into() }, 0)
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(0));
    }

    #[test]
    fn hash_commands_roundtrip() {
        let (_d, e) = engine("hash");
        e.execute(
            1,
            &Command::HSet {
                key: "h".into(),
                pairs: vec![
                    ("f1".into(), "v1".into()),
                    ("f2".into(), "v2".into()),
                    ("f3".into(), "v3".into()),
                ],
            },
            0,
        )
        .unwrap();
        let out = e.execute(1, &Command::HLen { key: "h".into() }, 0).unwrap();
        assert_eq!(out.reply, RespValue::Integer(3));
        let out = e
            .execute(
                1,
                &Command::HGet {
                    key: "h".into(),
                    field: "f2".into(),
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::bulk("v2"));
        let out = e
            .execute(1, &Command::HGetAll { key: "h".into() }, 0)
            .unwrap();
        match out.reply {
            RespValue::Array(Some(items)) => assert_eq!(items.len(), 6),
            other => panic!("expected array, got {other:?}"),
        }
        assert_eq!(out.bytes_returned, 3 * 4); // 3 × (2-byte field + 2-byte value)
        let out = e
            .execute(
                1,
                &Command::HDel {
                    key: "h".into(),
                    fields: vec!["f1".into(), "f3".into()],
                },
                0,
            )
            .unwrap();
        assert_eq!(out.reply, RespValue::Integer(2));
        let out = e.execute(1, &Command::HLen { key: "h".into() }, 0).unwrap();
        assert_eq!(out.reply, RespValue::Integer(1));
    }

    #[test]
    fn hgetall_isolated_between_hash_keys_and_tenants() {
        let (_d, e) = engine("hiso");
        e.execute(
            1,
            &Command::HSet {
                key: "h1".into(),
                pairs: vec![("f".into(), "t1h1".into())],
            },
            0,
        )
        .unwrap();
        e.execute(
            1,
            &Command::HSet {
                key: "h2".into(),
                pairs: vec![("f".into(), "t1h2".into())],
            },
            0,
        )
        .unwrap();
        e.execute(
            2,
            &Command::HSet {
                key: "h1".into(),
                pairs: vec![("f".into(), "t2h1".into())],
            },
            0,
        )
        .unwrap();
        let out = e
            .execute(1, &Command::HGetAll { key: "h1".into() }, 0)
            .unwrap();
        match out.reply {
            RespValue::Array(Some(items)) => {
                assert_eq!(items.len(), 2);
                assert_eq!(items[1], RespValue::bulk("t1h1"));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn io_ops_reported_after_flush() {
        let (_d, e) = engine("io");
        e.execute(1, &set("k", "v", None), 0).unwrap();
        e.db().flush().unwrap();
        let out = e.execute(1, &get("k"), 0).unwrap();
        assert!(out.io_ops >= 1, "SST read must report I/O");
        assert!(!out.from_memtable);
    }

    #[test]
    fn ping_is_free() {
        let (_d, e) = engine("ping");
        let out = e.execute(9, &Command::Ping, 0).unwrap();
        assert_eq!(out.reply, RespValue::Simple("PONG".into()));
        assert_eq!(out.io_ops, 0);
    }
}
