//! The engine facade: a crash-safe, TTL-aware LSM key-value store, striped
//! across independent shards for multi-core write throughput.
//!
//! Writes go WAL → memtable; a full memtable flushes to an L0 SST; leveled
//! compaction keeps read amplification bounded and garbage-collects tombstones
//! and expired records. Reads report their block-I/O count so the ABase data
//! node can price them into the I/O-WFQ.
//!
//! # Striping
//!
//! Keys hash across `n_stripes` stripes, each with its own memtable, L0, and
//! deeper levels under its own `RwLock` — so concurrent writers to different
//! stripes never contend, and a stripe's memtable flush (the expensive SST
//! write) blocks only that stripe. One shared group-commit [`Wal`] fronts all
//! stripes and is the engine's **single LSN allocator**: frames enter the log
//! in sequence order regardless of which stripe they land in, so replication
//! tailing, `apply_replicated`'s gap/dedup logic, torn-tail recovery, and
//! checkpoint cursors all observe one monotone LSN stream, exactly as in the
//! single-lock engine.
//!
//! Because stripes flush independently, a rotated WAL segment may still hold
//! the only durable copy of another stripe's recent records. Each rotated
//! segment therefore remembers the last sequence number it contains, and the
//! manifest's `wal_floor` only advances past a segment once **every** stripe
//! has flushed its records at or below that point (see
//! [`Db::advance_floor_locked`]).

use crate::block_cache::BlockCache;
use crate::compaction::{pick_compaction, CompactionConfig};
use crate::error::{Error, Result};
use crate::iter::MergeIterator;
use crate::memtable::MemTable;
use crate::record::{Record, RecordKind, NO_EXPIRY};
use crate::sstable::{BlockIo, SstReader, SstWriter};
use crate::version::{SstMeta, Version};
use crate::wal::{Wal, WalOptions};
use abase_util::clock::SimTime;
use abase_util::lockrank::{rank, RankedMutex, RankedRwLock};
use bytes::Bytes;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Engine configuration.
#[derive(Debug, Clone, Copy)]
pub struct DbConfig {
    /// Memtable flush threshold in bytes, across all stripes (each stripe
    /// flushes at `memtable_bytes / n_stripes`).
    pub memtable_bytes: usize,
    /// Target uncompressed data-block size.
    pub block_bytes: usize,
    /// Target size for SST files written by flush/compaction.
    pub target_sst_bytes: u64,
    /// Bloom filter density.
    pub bloom_bits_per_key: usize,
    /// fsync the WAL on every append (durability vs. throughput). With
    /// concurrent writers, one group-commit fsync covers the whole batch.
    pub sync_wal: bool,
    /// Rotated WAL segments to retain as a replication backlog. Segments
    /// below the manifest's `wal_floor` are fully flushed into SSTs and never
    /// replayed; keeping a few lets binlog tail readers (followers) finish
    /// reading a closed segment instead of forcing a full resync.
    pub wal_retention_segments: usize,
    /// Compaction policy knobs.
    pub compaction: CompactionConfig,
    /// Number of independent engine stripes (fixed at database creation; a
    /// reopen uses the manifest's value).
    pub n_stripes: u32,
    /// Buffered WAL bytes that trigger a flush to the OS on a non-durable
    /// commit (group-commit byte threshold).
    pub group_commit_bytes: usize,
    /// Time since the last WAL flush that triggers one on a non-durable
    /// commit (group-commit interval trigger).
    pub group_commit_interval_ms: u64,
    /// Byte budget for the shared data-block cache (one cache across **all**
    /// stripes; `0` disables caching entirely). SST files are immutable, so
    /// the cache needs no invalidation — only eviction.
    pub block_cache_bytes: usize,
}

impl Default for DbConfig {
    fn default() -> Self {
        Self {
            memtable_bytes: 4 << 20,
            block_bytes: 4 << 10,
            target_sst_bytes: 8 << 20,
            bloom_bits_per_key: 10,
            sync_wal: false,
            wal_retention_segments: 2,
            compaction: CompactionConfig::default(),
            n_stripes: 8,
            group_commit_bytes: 64 << 10,
            group_commit_interval_ms: 5,
            block_cache_bytes: 64 << 20,
        }
    }
}

impl DbConfig {
    /// Tiny limits that force flush/compaction activity in unit tests.
    pub fn small_for_tests() -> Self {
        Self {
            memtable_bytes: 4 << 10,
            block_bytes: 512,
            target_sst_bytes: 8 << 10,
            bloom_bits_per_key: 10,
            sync_wal: false,
            wal_retention_segments: 2,
            compaction: CompactionConfig {
                l0_trigger: 3,
                level_base_bytes: 16 << 10,
                level_growth: 4,
                n_levels: 4,
            },
            n_stripes: 4,
            group_commit_bytes: 16 << 10,
            group_commit_interval_ms: 5,
            // Small enough that tests exercise eviction, on by default so the
            // whole suite runs through the cached read path.
            block_cache_bytes: 64 << 10,
        }
    }

    fn wal_options(&self) -> WalOptions {
        WalOptions {
            sync_on_append: self.sync_wal,
            group_commit_bytes: self.group_commit_bytes,
            group_commit_interval: Duration::from_millis(self.group_commit_interval_ms),
        }
    }
}

/// Outcome of a point read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadResult {
    /// The live value, if the key exists and has not expired.
    pub value: Option<Bytes>,
    /// Data-block accesses performed (0 when served by memtable/bloom).
    /// Cache hits count: Rule 1 prices logical block I/O, and a request's
    /// cost must not depend on cache luck. `io_ops - cache_hits` of these
    /// actually reached the disk.
    pub io_ops: u32,
    /// Of `io_ops`, the accesses served by the block cache without disk I/O.
    pub cache_hits: u32,
    /// True when the memtable answered.
    pub from_memtable: bool,
}

/// Monotonic counters exposed by the engine.
#[derive(Debug, Default)]
struct StatsInner {
    gets: AtomicU64,
    puts: AtomicU64,
    deletes: AtomicU64,
    block_reads: AtomicU64,
    memtable_hits: AtomicU64,
    flushes: AtomicU64,
    compactions: AtomicU64,
    sst_bytes_written: AtomicU64,
}

/// Snapshot of the engine counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DbStats {
    /// Point reads served.
    pub gets: u64,
    /// Put operations applied.
    pub puts: u64,
    /// Delete operations applied.
    pub deletes: u64,
    /// Data-block reads across all SSTs.
    pub block_reads: u64,
    /// Reads answered from the memtable.
    pub memtable_hits: u64,
    /// Memtable flushes performed.
    pub flushes: u64,
    /// Compactions executed.
    pub compactions: u64,
    /// Bytes written into SST files (flush + compaction).
    pub sst_bytes_written: u64,
}

/// One engine stripe: a memtable plus this stripe's slice of the LSM tree.
struct Stripe {
    memtable: MemTable,
    /// This stripe's files per level (same ordering rules as
    /// [`Version::add_file`]); the union across stripes equals the manifest.
    levels: Vec<Vec<SstMeta>>,
    readers: HashMap<u64, Arc<SstReader>>,
}

impl Stripe {
    fn new(n_levels: usize) -> Self {
        Self {
            memtable: MemTable::new(),
            levels: vec![Vec::new(); n_levels],
            readers: HashMap::new(),
        }
    }

    fn add_file(&mut self, meta: SstMeta, reader: Arc<SstReader>) {
        self.readers.insert(meta.id, reader);
        let level = meta.level as usize;
        let files = &mut self.levels[level];
        files.push(meta);
        if level == 0 {
            // L0: newest (largest id) first — read path checks newest first.
            files.sort_by_key(|m| Reverse(m.id));
        } else {
            files.sort_by(|a, b| a.min_key.cmp(&b.min_key));
        }
    }

    fn remove_file(&mut self, id: u64) {
        for files in &mut self.levels {
            if let Some(pos) = files.iter().position(|m| m.id == id) {
                files.remove(pos);
            }
        }
        self.readers.remove(&id);
    }
}

/// Per-stripe durability watermarks, read lock-free during floor advancement.
struct StripeMarks {
    /// Every record of this stripe with seq ≤ this is in an SST.
    flushed_through: AtomicU64,
    /// Highest seq applied to this stripe's memtable.
    highest_applied: AtomicU64,
}

/// Tracks the highest *contiguous* applied sequence number across stripes.
///
/// Appends allocate seqs under the WAL lock but apply to their stripes
/// concurrently, so seq N+1 can finish applying before seq N. `last_seq()`
/// (the replication high-water mark) must never report a seq whose
/// predecessors are still in flight — a follower acking N promises it has
/// everything ≤ N. Completed seqs that arrive out of order park in a heap
/// until the gap below them closes.
struct ApplyTracker {
    visible: AtomicU64,
    /// Number of seqs parked out of order. The common case (in-order
    /// completion) advances `visible` by CAS and reads this as zero — no
    /// lock on the write path. SeqCst throughout: the fast path's
    /// CAS-then-load-parked and the park path's store-parked-then-load-
    /// visible form a Dekker pair, and one side missing the other's store
    /// would strand a parked seq below an advanced watermark forever.
    parked: AtomicU64,
    pending: RankedMutex<BinaryHeap<Reverse<u64>>>,
}

impl ApplyTracker {
    fn new(visible: u64) -> Self {
        Self {
            visible: AtomicU64::new(visible),
            parked: AtomicU64::new(0),
            pending: RankedMutex::new(rank::APPLY_PENDING, BinaryHeap::new()),
        }
    }

    fn visible(&self) -> u64 {
        // ORDER: Acquire pairs with the SeqCst publishes of `visible` in
        // `complete`/`drain_locked`; a reader that observes seq N also
        // observes every memtable apply that preceded N's completion.
        self.visible.load(Ordering::Acquire)
    }

    fn complete(&self, seq: u64) {
        loop {
            // ORDER: SeqCst; all `visible`/`parked` accesses in this tracker
            // share one total order (the Dekker pairing described above).
            let v = self.visible.load(Ordering::SeqCst);
            if seq <= v {
                return;
            }
            if seq == v + 1 {
                if self
                    .visible
                    // ORDER: SeqCst CAS pairs with the park path's
                    // store-parked-then-load-visible below: whoever is
                    // ordered second in the single total order sees the
                    // other's write, so no parked seq is stranded.
                    .compare_exchange(v, seq, Ordering::SeqCst, Ordering::SeqCst)
                    .is_ok()
                {
                    // Our advance may have unblocked parked successors.
                    // ORDER: SeqCst load, the second half of the fast path's
                    // CAS-then-load-parked Dekker arm.
                    if self.parked.load(Ordering::SeqCst) > 0 {
                        let mut pending = self.pending.lock();
                        self.drain_locked(&mut pending);
                    }
                    return;
                }
                // Lost the race; visible only grows, so re-read and retry.
            } else {
                let mut pending = self.pending.lock();
                pending.push(Reverse(seq));
                // ORDER: SeqCst store-parked precedes the load-visible in
                // `drain_locked` — the park path's Dekker arm against the
                // fast path's CAS-then-load-parked above.
                self.parked.store(pending.len() as u64, Ordering::SeqCst);
                // Re-check under the lock: `visible` may have reached
                // `seq - 1` while we were parking, and that completer may
                // have read `parked` before our store.
                self.drain_locked(&mut pending);
                return;
            }
        }
    }

    /// Pop every contiguous successor of `visible` off the heap and publish.
    /// Plain stores are safe here: the only thread that could CAS `visible`
    /// to `v + 1` is the completer of `v + 1`, and while `v + 1` sits in the
    /// heap that completer has already been and gone (each seq completes
    /// exactly once) — no concurrent advance can interleave.
    fn drain_locked(&self, pending: &mut BinaryHeap<Reverse<u64>>) {
        loop {
            // ORDER: SeqCst load-visible after the caller's store-parked —
            // the second half of the park path's Dekker arm.
            let v = self.visible.load(Ordering::SeqCst);
            if pending.peek() == Some(&Reverse(v + 1)) {
                pending.pop();
                // ORDER: SeqCst publish; pairs with the Acquire in
                // `visible()` and the SeqCst loads in `complete`.
                self.visible.store(v + 1, Ordering::SeqCst);
            } else {
                break;
            }
        }
        // ORDER: SeqCst; keeps `parked` in the tracker's single total order
        // so a racing completer cannot miss a still-parked seq.
        self.parked.store(pending.len() as u64, Ordering::SeqCst);
    }
}

/// Cross-stripe state: the manifest and the WAL segment bookkeeping.
struct Shared {
    version: Version,
    /// Segment currently receiving appends.
    live_segment: u64,
    /// Rotated-but-not-yet-covered segments as `(segment, last seq held)`,
    /// oldest first. The floor may pass a segment only once every stripe has
    /// flushed through its `last seq held`.
    rotated: Vec<(u64, u64)>,
}

/// Where a [`Db::checkpoint`] snapshot ends in the source's log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CheckpointInfo {
    /// Highest sequence number contained in the snapshot.
    pub last_seq: u64,
    /// WAL segment that was current when the snapshot was taken.
    pub wal_segment: u64,
    /// Byte offset within that segment covered by the snapshot.
    pub wal_offset: u64,
    /// Total bytes copied (SSTs + WALs).
    pub bytes_copied: u64,
}

/// A LavaStore database instance rooted at a directory.
pub struct Db {
    dir: PathBuf,
    config: DbConfig,
    n_stripes: usize,
    /// The shared group-commit WAL — also the engine's one LSN allocator.
    log: Wal,
    stripes: Vec<RankedRwLock<Stripe>>,
    marks: Vec<StripeMarks>,
    tracker: ApplyTracker,
    shared: RankedMutex<Shared>,
    stats: StatsInner,
    /// One data-block cache shared by every stripe's readers (None = off).
    block_cache: Option<Arc<BlockCache>>,
}

impl std::fmt::Debug for Db {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Db").field("dir", &self.dir).finish()
    }
}

fn sst_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:010}.sst"))
}

fn wal_path(dir: &Path, id: u64) -> PathBuf {
    Wal::segment_path(dir, id)
}

/// FNV-1a over the key; stable across restarts (stripe assignment must be).
fn stripe_of_key(key: &[u8], n_stripes: usize) -> usize {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in key {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % n_stripes as u64) as usize
}

impl Db {
    /// Open (or create) a database at `dir`, recovering from the manifest and
    /// any write-ahead logs present.
    pub fn open(dir: impl AsRef<Path>, config: DbConfig) -> Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // Sweep checkpoint pin directories a crashed process left behind:
        // their hard links would otherwise keep deleted SSTs' disk space
        // pinned forever.
        for entry in std::fs::read_dir(&dir)?.filter_map(|e| e.ok()) {
            if entry
                .file_name()
                .to_string_lossy()
                .starts_with(".ckpt-pin-")
            {
                std::fs::remove_dir_all(entry.path()).ok();
            }
        }
        let mut version = match Version::load(&dir)? {
            Some(v) => v,
            None => {
                let mut v = Version::new(config.compaction.n_levels);
                v.n_stripes = config.n_stripes.max(1);
                v
            }
        };
        if version.levels.len() != config.compaction.n_levels {
            return Err(Error::InvalidState(format!(
                "manifest has {} levels, config expects {}",
                version.levels.len(),
                config.compaction.n_levels
            )));
        }
        // The stripe count is a property of the data (keys were hashed with
        // it), so the manifest always wins over the caller's config.
        let n_stripes = version.n_stripes.max(1) as usize;
        let block_cache = if config.block_cache_bytes > 0 {
            Some(Arc::new(BlockCache::new(config.block_cache_bytes)))
        } else {
            None
        };
        let mut stripes: Vec<Stripe> = (0..n_stripes)
            .map(|_| Stripe::new(version.levels.len()))
            .collect();
        for files in &version.levels {
            for meta in files {
                let reader = Arc::new(SstReader::open_cached(
                    &sst_path(&dir, meta.id),
                    block_cache.clone(),
                )?);
                let s = (meta.stripe as usize).min(n_stripes - 1);
                stripes[s].add_file(meta.clone(), reader);
            }
        }
        // Replay surviving WALs (ascending id = chronological), routing each
        // record to its stripe. Segments below the floor are retained
        // replication backlog: every stripe's records there already live in
        // SSTs, so they are skipped. Each replayed segment re-enters the
        // rotated list with the last seq it holds, so the floor logic resumes
        // exactly where the previous process left off.
        let mut next_seq = version.next_seq;
        let mut rotated: Vec<(u64, u64)> = Vec::new();
        let mut stripe_min: Vec<Option<u64>> = vec![None; n_stripes];
        let mut stripe_max: Vec<u64> = vec![0; n_stripes];
        let mut last_end = version.next_seq.saturating_sub(1);
        for id in Wal::list_segments(&dir)? {
            if id < version.wal_floor {
                continue;
            }
            let mut seg_end = last_end;
            for record in Wal::replay(&wal_path(&dir, id))? {
                next_seq = next_seq.max(record.seq + 1);
                seg_end = seg_end.max(record.seq);
                let s = stripe_of_key(&record.key, n_stripes);
                stripe_min[s] = Some(stripe_min[s].unwrap_or(record.seq).min(record.seq));
                stripe_max[s] = stripe_max[s].max(record.seq);
                stripes[s].memtable.apply(&record);
            }
            rotated.push((id, seg_end));
            last_end = seg_end;
        }
        let marks: Vec<StripeMarks> = (0..n_stripes)
            .map(|s| StripeMarks {
                // A stripe with replayed records is flushed only up to just
                // before its oldest replayed seq; an idle stripe constrains
                // nothing below the recovered high-water mark.
                flushed_through: AtomicU64::new(match stripe_min[s] {
                    Some(min) => min - 1,
                    None => next_seq - 1,
                }),
                highest_applied: AtomicU64::new(stripe_max[s]),
            })
            .collect();
        // New writes land in a fresh WAL segment.
        let live_segment = version.allocate_file_id();
        let log = Wal::create(
            &wal_path(&dir, live_segment),
            live_segment,
            next_seq,
            config.wal_options(),
        )?;
        version.next_seq = next_seq;
        version.save(&dir)?;
        Ok(Self {
            dir,
            config,
            n_stripes,
            log,
            stripes: stripes
                .into_iter()
                .map(|s| RankedRwLock::new(rank::LAVASTORE_STRIPE, s))
                .collect(),
            marks,
            tracker: ApplyTracker::new(next_seq - 1),
            shared: RankedMutex::new(
                rank::LAVASTORE_SHARED,
                Shared {
                    version,
                    live_segment,
                    rotated,
                },
            ),
            stats: StatsInner::default(),
            block_cache,
        })
    }

    /// The shared block cache, when one is configured.
    pub fn block_cache(&self) -> Option<&Arc<BlockCache>> {
        self.block_cache.as_ref()
    }

    /// The engine configuration.
    pub fn config(&self) -> &DbConfig {
        &self.config
    }

    /// Number of stripes this database was created with.
    pub fn n_stripes(&self) -> usize {
        self.n_stripes
    }

    fn stripe_of(&self, key: &[u8]) -> usize {
        stripe_of_key(key, self.n_stripes)
    }

    fn per_stripe_memtable_bytes(&self) -> usize {
        (self.config.memtable_bytes / self.n_stripes).max(1)
    }

    /// The shared WAL-then-memtable write path for local puts and deletes.
    /// Returns the record's sequence number (its replication LSN).
    fn write_record(&self, mut record: Record) -> Result<u64> {
        let seq = self.log.append_next(&mut record)?;
        if self.config.sync_wal {
            // Durability before visibility: a failed group commit poisons
            // the log and this record never reaches a memtable, so no
            // reader (or replica counting it toward quorum) can observe a
            // write that was never made durable.
            self.log.commit(seq)?;
        }
        self.apply_logged(&record)?;
        Ok(seq)
    }

    /// The memtable half of every write, once `record` is in the WAL: apply
    /// it to its stripe, publish its seq, and flush the stripe if it crossed
    /// its memtable budget.
    #[inline]
    fn apply_logged(&self, record: &Record) -> Result<()> {
        let s = self.stripe_of(&record.key);
        let over_threshold = {
            let mut stripe = self.stripes[s].write();
            stripe.memtable.apply(record);
            stripe.memtable.approximate_bytes() >= self.per_stripe_memtable_bytes()
        };
        self.marks[s]
            .highest_applied
            // ORDER: AcqRel; the Release half publishes the memtable apply
            // above to `advance_floor_locked`'s Acquire load, so a floor
            // computed from this mark never outruns the stripe's contents.
            .fetch_max(record.seq, Ordering::AcqRel);
        self.tracker.complete(record.seq);
        if over_threshold {
            self.flush_stripe(s)?;
        }
        Ok(())
    }

    /// Insert or overwrite `key` with `value`, optionally expiring at the
    /// absolute virtual time `expires_at`. Returns the write's sequence
    /// number — with concurrent writers this is the only fence-free way to
    /// learn one's own LSN (`last_seq()` may lag behind it while an earlier
    /// seq is still applying).
    pub fn put(
        &self,
        key: &[u8],
        value: &[u8],
        expires_at: Option<SimTime>,
        _now: SimTime,
    ) -> Result<u64> {
        self.stats.puts.fetch_add(1, Ordering::Relaxed);
        self.write_record(Record::put(
            Bytes::copy_from_slice(key),
            Bytes::copy_from_slice(value),
            0,
            expires_at,
        ))
    }

    /// Delete `key` (writes a tombstone). Returns the tombstone's sequence
    /// number.
    pub fn delete(&self, key: &[u8], _now: SimTime) -> Result<u64> {
        self.stats.deletes.fetch_add(1, Ordering::Relaxed);
        self.write_record(Record::delete(Bytes::copy_from_slice(key), 0))
    }

    /// Apply a record shipped from a replication leader, preserving its
    /// sequence number (the replication LSN).
    ///
    /// This is the follower half of WAL shipping: the record goes through the
    /// exact same WAL-then-memtable path as a local write, so follower
    /// durability and crash recovery are identical to the leader's. Returns
    /// `Ok(false)` when the record was already applied (`seq` at or below the
    /// follower's high-water mark) — shipping is therefore idempotent and
    /// at-least-once delivery is safe. Callers detect *gaps* (a record
    /// arriving with `seq` beyond `last_seq() + 1`) before applying; this
    /// method rejects them to keep the follower a strict prefix of the leader.
    pub fn apply_replicated(&self, record: &Record) -> Result<bool> {
        // Durability before visibility: only a record that reached the WAL
        // may advance the high-water mark. Applying first would make a failed
        // append look applied — a re-ship would dedup and the follower would
        // silently diverge while still counting toward quorum.
        if !self.log.append_at(record)? {
            return Ok(false);
        }
        if self.config.sync_wal {
            self.log.commit(record.seq)?;
        }
        match record.kind {
            RecordKind::Put => self.stats.puts.fetch_add(1, Ordering::Relaxed),
            RecordKind::Delete => self.stats.deletes.fetch_add(1, Ordering::Relaxed),
        };
        self.apply_logged(record)?;
        Ok(true)
    }

    /// Highest sequence number (replication LSN) applied so far; 0 when
    /// empty. This is the highest *contiguous* applied seq: with concurrent
    /// writers it may momentarily trail an individual writer's own seq
    /// (returned by [`Db::put`]) while earlier seqs finish applying.
    pub fn last_seq(&self) -> u64 {
        self.tracker.visible()
    }

    /// Flush buffered WAL frames to the OS so tail readers (replication
    /// binlogs) can observe them. Does not fsync.
    pub fn flush_wal(&self) -> Result<()> {
        self.log.flush()
    }

    /// Id of the WAL segment currently receiving appends.
    pub fn current_wal_segment(&self) -> u64 {
        self.log.segment()
    }

    /// Current position of the live WAL, as a `(segment, byte offset)` pair —
    /// where a tail reader that has already applied every record should
    /// resume (planned leadership handover seeks caught-up followers here
    /// instead of re-polling the full retained log). The offset counts only
    /// *flushed* bytes — never frames still in the group-commit buffer, which
    /// a tail reader cannot see yet.
    pub fn wal_position(&self) -> (u64, u64) {
        self.log.position()
    }

    /// The directory this database lives in (replication tails its WALs).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Copy a crash-consistent snapshot of the database into `dest_dir`
    /// (manifest, SSTs, and WALs), returning where the copy ends in the log.
    ///
    /// Used for full resynchronization: a follower too far behind for WAL
    /// shipping (its segments were rotated away) reopens from a checkpoint and
    /// resumes tailing at the returned `(wal_segment, wal_offset)` position.
    /// `on_chunk` is invoked with each copied chunk's size — reconstruction
    /// uses it to model per-node disk bandwidth.
    ///
    /// Only the cross-stripe `shared` lock is held to *pin* the snapshot:
    /// live files are hard-linked into a private pin directory and the log
    /// cursor recorded, all O(files) — writers keep writing to every stripe
    /// during the pin. The byte copy then streams **without any lock**,
    /// reading the pinned inodes (a deleted original stays readable through
    /// its link), so seeding a replica does not stall the write path. The
    /// live WAL segment is copied only up to the recorded offset — which
    /// counts only flushed complete frames, so the cursor can never point
    /// into a torn or still-buffered frame — keeping the clone byte-exact
    /// with the returned cursor even while the leader keeps appending.
    pub fn checkpoint_with(
        &self,
        dest_dir: &Path,
        on_chunk: &mut dyn FnMut(usize),
    ) -> Result<CheckpointInfo> {
        static PIN_SEQ: AtomicU64 = AtomicU64::new(0);
        let pin_timer = abase_obs::Timer::start();
        let pin_dir = self.dir.join(format!(
            ".ckpt-pin-{}-{}",
            std::process::id(),
            PIN_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        // Phase 1 — pin under the shared lock. Cleanup of the pin directory
        // on *any* exit (including a failed hard link) happens below; a
        // crashed process's stale pin dirs are swept by `Db::open`.
        struct PinSnapshot {
            version: Version,
            wal_segment: u64,
            wal_offset: u64,
            last_seq: u64,
            /// `(pinned link, destination path)` per live file.
            files: Vec<(PathBuf, PathBuf)>,
        }
        let phase1 = || -> Result<PinSnapshot> {
            let shared = self.shared.lock();
            // Drains the group-commit buffer and returns a cursor on a
            // flushed frame boundary: every seq ≤ last_seq is either in a
            // pinned SST or in pinned WAL bytes at or below wal_offset.
            let (wal_segment, wal_offset, last_seq) = self.log.checkpoint_cursor()?;
            std::fs::create_dir_all(&pin_dir)?;
            let mut pinned: Vec<(PathBuf, PathBuf)> = Vec::new(); // (pin, dest name)
            let mut pin = |src: PathBuf, dest_name: PathBuf| -> Result<()> {
                // INVARIANT: every pinned path is built by sst_path/wal_path,
                // which always append a file name component.
                let pinned_path = pin_dir.join(src.file_name().expect("data files have names"));
                std::fs::hard_link(&src, &pinned_path)?;
                pinned.push((pinned_path, dest_name));
                Ok(())
            };
            for files in &shared.version.levels {
                for meta in files {
                    pin(sst_path(&self.dir, meta.id), sst_path(dest_dir, meta.id))?;
                }
            }
            for id in Wal::list_segments(&self.dir)? {
                // Segments below the floor are retained backlog for tail
                // readers; their records are already in the pinned SSTs and
                // the clone would never replay them — copying them wastes
                // recovery bandwidth.
                if id < shared.version.wal_floor {
                    continue;
                }
                pin(wal_path(&self.dir, id), wal_path(dest_dir, id))?;
            }
            let mut version = shared.version.clone();
            version.next_seq = last_seq + 1;
            Ok(PinSnapshot {
                version,
                wal_segment,
                wal_offset,
                last_seq,
                files: pinned,
            })
        };
        let PinSnapshot {
            version,
            wal_segment,
            wal_offset,
            last_seq,
            files: pinned,
        } = match phase1() {
            Ok(snapshot) => snapshot,
            Err(e) => {
                std::fs::remove_dir_all(&pin_dir).ok();
                return Err(e);
            }
        };
        // Phase 2 — stream the pinned bytes, lock-free.
        let result = (|| -> Result<u64> {
            std::fs::create_dir_all(dest_dir)?;
            let mut bytes_copied = 0u64;
            let fp_context = self.dir.display().to_string();
            let live_wal_name = wal_path(&self.dir, wal_segment);
            for (pinned_path, dest) in &pinned {
                // Cap the live segment at the recorded cursor; appends that
                // landed after the pin belong to the tail the follower ships.
                let limit = if pinned_path.file_name() == live_wal_name.file_name() {
                    Some(wal_offset)
                } else {
                    None
                };
                let mut reader = std::fs::File::open(pinned_path)?;
                let mut writer = std::fs::File::create(dest)?;
                let mut remaining = limit.unwrap_or(u64::MAX);
                let mut chunk = vec![0u8; 64 << 10];
                while remaining > 0 {
                    // Chaos site: a checkpoint source dying mid-copy (each
                    // chunk may be the one that fails or stalls).
                    if let Some(abase_util::failpoint::FaultAction::Error) =
                        abase_util::failpoint::check("db.checkpoint", &fp_context)
                    {
                        return Err(Error::Io(std::io::Error::other(
                            "injected fault: checkpoint source failed mid-copy",
                        )));
                    }
                    let want = chunk.len().min(remaining.min(u64::MAX >> 1) as usize);
                    let n = std::io::Read::read(&mut reader, &mut chunk[..want])?;
                    if n == 0 {
                        break;
                    }
                    std::io::Write::write_all(&mut writer, &chunk[..n])?;
                    bytes_copied += n as u64;
                    remaining = remaining.saturating_sub(n as u64);
                    on_chunk(n);
                }
            }
            version.save(dest_dir)?;
            Ok(bytes_copied)
        })();
        std::fs::remove_dir_all(&pin_dir).ok();
        pin_timer.observe(&crate::metrics::CHECKPOINT_PIN_MICROS);
        let bytes_copied = result?;
        crate::metrics::CHECKPOINTS.inc();
        Ok(CheckpointInfo {
            last_seq,
            wal_segment,
            wal_offset,
            bytes_copied,
        })
    }

    /// [`Db::checkpoint_with`] without a progress callback.
    pub fn checkpoint(&self, dest_dir: &Path) -> Result<CheckpointInfo> {
        self.checkpoint_with(dest_dir, &mut |_| {})
    }

    /// Point read at virtual time `now` (TTL-expired records read as absent).
    /// Touches exactly one stripe's lock.
    pub fn get(&self, key: &[u8], now: SimTime) -> Result<ReadResult> {
        self.stats.gets.fetch_add(1, Ordering::Relaxed);
        let stripe = self.stripes[self.stripe_of(key)].read();
        // 1. Memtable: the newest state, shadowing everything below.
        if let Some(entry) = stripe.memtable.get(key) {
            self.stats.memtable_hits.fetch_add(1, Ordering::Relaxed);
            let value = match entry.kind {
                RecordKind::Delete => None,
                RecordKind::Put => {
                    if entry.expires_at != NO_EXPIRY && entry.expires_at <= now {
                        None
                    } else {
                        Some(entry.value.clone())
                    }
                }
            };
            return Ok(ReadResult {
                value,
                io_ops: 0,
                cache_hits: 0,
                from_memtable: true,
            });
        }
        let mut io = BlockIo::default();
        // 2. L0, newest file first (files may overlap).
        for meta in &stripe.levels[0] {
            let reader = &stripe.readers[&meta.id];
            let (record, file_io) = reader.get(key)?;
            io.absorb(file_io);
            if let Some(record) = record {
                self.stats
                    .block_reads
                    .fetch_add(u64::from(io.disk), Ordering::Relaxed);
                return Ok(self.resolve(record, now, io));
            }
        }
        // 3. L1+: at most one candidate file per level.
        for level in 1..stripe.levels.len() {
            let files = &stripe.levels[level];
            let idx = files.partition_point(|m| m.max_key.as_ref() < key);
            if let Some(meta) = files.get(idx) {
                if meta.min_key.as_ref() <= key {
                    let reader = &stripe.readers[&meta.id];
                    let (record, file_io) = reader.get(key)?;
                    io.absorb(file_io);
                    if let Some(record) = record {
                        self.stats
                            .block_reads
                            .fetch_add(u64::from(io.disk), Ordering::Relaxed);
                        return Ok(self.resolve(record, now, io));
                    }
                }
            }
        }
        self.stats
            .block_reads
            .fetch_add(u64::from(io.disk), Ordering::Relaxed);
        Ok(ReadResult {
            value: None,
            io_ops: io.total(),
            cache_hits: io.cached,
            from_memtable: false,
        })
    }

    fn resolve(&self, record: Record, now: SimTime, io: BlockIo) -> ReadResult {
        let value = match record.kind {
            RecordKind::Delete => None,
            RecordKind::Put => {
                if record.is_expired(now) {
                    None
                } else {
                    Some(record.value)
                }
            }
        };
        ReadResult {
            value,
            io_ops: io.total(),
            cache_hits: io.cached,
            from_memtable: false,
        }
    }

    /// All live `(key, value)` pairs whose key starts with `prefix`, at
    /// virtual time `now`. Returns the pairs and the block I/Os used.
    ///
    /// Takes every stripe's read lock (in index order, so concurrent scans
    /// cannot deadlock) to get a point-in-time view across stripes, then
    /// merges by key with newest-seq-wins — sequence numbers are globally
    /// unique, so the merge is unambiguous regardless of source order.
    pub fn scan_prefix(&self, prefix: &[u8], now: SimTime) -> Result<(Vec<(Bytes, Bytes)>, u32)> {
        let guards: Vec<_> = self.stripes.iter().map(|s| s.read()).collect();
        let mut sources = Vec::new();
        let mut io = BlockIo::default();
        let upper = upper_bound_for_prefix(prefix);
        for stripe in &guards {
            sources.push(
                stripe
                    .memtable
                    .scan_prefix(prefix)
                    .map(|(k, e)| Record {
                        key: k.clone(),
                        seq: e.seq,
                        kind: e.kind,
                        expires_at: e.expires_at,
                        value: e.value.clone(),
                    })
                    .collect::<Vec<_>>(),
            );
            for level in 0..stripe.levels.len() {
                for meta in &stripe.levels[level] {
                    if !meta.overlaps(prefix, upper.as_ref()) {
                        continue;
                    }
                    let reader = &stripe.readers[&meta.id];
                    let (records, file_io) = reader.scan_prefix(prefix)?;
                    io.absorb(file_io);
                    sources.push(records);
                }
            }
        }
        self.stats
            .block_reads
            .fetch_add(u64::from(io.disk), Ordering::Relaxed);
        let merged = MergeIterator::new(sources).dedup_newest(now, true);
        let out = merged.into_iter().map(|r| (r.key, r.value)).collect();
        Ok((out, io.total()))
    }

    /// Force a memtable flush of every stripe (no-op for empty stripes).
    pub fn flush(&self) -> Result<()> {
        for s in 0..self.n_stripes {
            self.flush_stripe(s)?;
        }
        Ok(())
    }

    /// Flush one stripe's memtable into an L0 SST, rotate the shared WAL,
    /// and advance the floor as far as cross-stripe coverage allows.
    fn flush_stripe(&self, s: usize) -> Result<()> {
        let mut stripe = self.stripes[s].write();
        // Everything this stripe holds with seq ≤ v is in its memtable right
        // now (we hold the stripe write lock, and `visible` only advances
        // after a record's apply completes), so after writing the memtable
        // out, this stripe is flushed through v.
        let v = self.tracker.visible();
        if stripe.memtable.is_empty() {
            // ORDER: AcqRel; Release publishes "flushed through v" to the
            // Acquire load in `advance_floor_locked` before the floor moves.
            self.marks[s].flushed_through.fetch_max(v, Ordering::AcqRel);
            let mut shared = self.shared.lock();
            return self.advance_floor_locked(&mut shared);
        }
        let flush_timer = abase_obs::Timer::start();
        let id = self.shared.lock().version.allocate_file_id();
        // The SST write — the expensive part — happens under only this
        // stripe's lock: writes to other stripes proceed untouched.
        let path = sst_path(&self.dir, id);
        let mut writer = SstWriter::create(
            &path,
            stripe.memtable.len(),
            self.config.bloom_bits_per_key,
            self.config.block_bytes,
        )?;
        for record in stripe.memtable.iter_records() {
            writer.add(&record)?;
        }
        let info = writer.finish()?;
        self.stats
            .sst_bytes_written
            .fetch_add(info.file_size, Ordering::Relaxed);
        crate::metrics::FLUSH_BYTES.add(info.file_size);
        let meta = SstMeta {
            id,
            level: 0,
            stripe: s as u32,
            min_key: info.min_key,
            max_key: info.max_key,
            file_size: info.file_size,
            record_count: info.record_count,
        };
        let reader = Arc::new(SstReader::open_cached(&path, self.block_cache.clone())?);
        {
            let mut shared = self.shared.lock();
            shared.version.add_file(meta.clone());
            // Rotate the shared WAL so the flushed records' segment can age
            // out once every stripe catches up. Skip when nothing was
            // appended (another stripe's flush just rotated) or the log is
            // poisoned (the simulated crash already ended this log's life;
            // recovery happens at reopen).
            if !self.log.is_poisoned() && self.log.appended_bytes() > 0 {
                let new_segment = shared.version.allocate_file_id();
                // `rotate` returns the last seq the old segment holds,
                // captured under the log lock at the swap — no append can
                // slip into the old segment after this watermark.
                let end_seq = self
                    .log
                    .rotate(&wal_path(&self.dir, new_segment), new_segment)?;
                let old = shared.live_segment;
                shared.rotated.push((old, end_seq));
                shared.live_segment = new_segment;
            }
            // ORDER: AcqRel; Release publishes the completed SST write to
            // the Acquire load in `advance_floor_locked`.
            self.marks[s].flushed_through.fetch_max(v, Ordering::AcqRel);
            self.advance_floor_locked(&mut shared)?;
        }
        stripe.add_file(meta, reader);
        stripe.memtable.clear();
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        crate::metrics::FLUSHES.inc();
        flush_timer.observe(&crate::metrics::FLUSH_MICROS);
        Ok(())
    }

    /// Advance `wal_floor` past every rotated segment whose records all
    /// stripes have flushed, persist the manifest, and garbage-collect
    /// segments beyond the retention backlog. Caller holds the shared lock.
    fn advance_floor_locked(&self, shared: &mut Shared) -> Result<()> {
        // Read the visible watermark FIRST: a seq that completes after this
        // read is simply not credited this round (conservative), whereas
        // reading it last could credit a fully-flushed stripe with coverage
        // of records that raced into it after its flush.
        let v = self.tracker.visible();
        let mut min_cov = u64::MAX;
        for marks in &self.marks {
            // ORDER: Acquire pair with the AcqRel fetch_max publishes in
            // `flush_stripe`/`apply_logged`: a mark observed here implies
            // the flush/apply it describes is visible too.
            let ft = marks.flushed_through.load(Ordering::Acquire);
            let ha = marks.highest_applied.load(Ordering::Acquire);
            // A stripe with nothing unflushed covers the whole visible
            // stream (anything ≤ v it holds is flushed); one with unflushed
            // records covers only through its own flush mark.
            let cov = if ha <= ft { ft.max(v) } else { ft };
            min_cov = min_cov.min(cov);
        }
        let drop_count = shared
            .rotated
            .iter()
            .take_while(|&&(_, end_seq)| end_seq <= min_cov)
            .count();
        shared.rotated.drain(..drop_count);
        let new_floor = shared
            .rotated
            .first()
            .map(|&(segment, _)| segment)
            .unwrap_or(shared.live_segment);
        shared.version.wal_floor = shared.version.wal_floor.max(new_floor);
        shared.version.next_seq = shared.version.next_seq.max(self.log.next_seq());
        shared.version.save(&self.dir)?;
        // Segments below the floor are a retained replication backlog;
        // delete the oldest beyond the retention budget.
        let old: Vec<u64> = Wal::list_segments(&self.dir)?
            .into_iter()
            .filter(|&id| id < shared.version.wal_floor)
            .collect();
        let excess = old.len().saturating_sub(self.config.wal_retention_segments);
        for id in &old[..excess] {
            std::fs::remove_file(wal_path(&self.dir, *id)).ok();
        }
        Ok(())
    }

    /// Run at most one compaction round (first stripe with work wins).
    /// Returns true if one executed. Expired records are dropped using
    /// virtual time `now`.
    pub fn compact_once(&self, now: SimTime) -> Result<bool> {
        for s in 0..self.n_stripes {
            let mut stripe = self.stripes[s].write();
            let Some(task) = pick_compaction(&stripe.levels, &self.config.compaction) else {
                continue;
            };
            // Collect input streams. Input ids arrive with the from-level
            // files first (newest sources first for L0), which matches the
            // merge iterator's tie-breaking contract.
            let mut sources = Vec::with_capacity(task.input_ids.len());
            for id in &task.input_ids {
                let reader = stripe
                    .readers
                    .get(id)
                    .ok_or_else(|| Error::InvalidState(format!("missing reader for sst {id}")))?;
                sources.push(reader.scan_all()?);
            }
            let merged = MergeIterator::new(sources).dedup_newest(now, task.is_bottom_level);
            // Write merged output, splitting at the target file size. File
            // ids come from the shared counter (brief lock); the writes
            // themselves run under only this stripe's lock.
            let mut new_metas = Vec::new();
            let mut writer: Option<(u64, SstWriter, u64)> = None; // (id, writer, bytes)
            let finish = |id: u64, w: SstWriter, new_metas: &mut Vec<SstMeta>| -> Result<()> {
                let info = w.finish()?;
                self.stats
                    .sst_bytes_written
                    .fetch_add(info.file_size, Ordering::Relaxed);
                new_metas.push(SstMeta {
                    id,
                    level: task.output_level as u32,
                    stripe: s as u32,
                    min_key: info.min_key,
                    max_key: info.max_key,
                    file_size: info.file_size,
                    record_count: info.record_count,
                });
                Ok(())
            };
            for record in &merged {
                if writer.is_none() {
                    let id = self.shared.lock().version.allocate_file_id();
                    let w = SstWriter::create(
                        &sst_path(&self.dir, id),
                        merged.len(),
                        self.config.bloom_bits_per_key,
                        self.config.block_bytes,
                    )?;
                    writer = Some((id, w, 0));
                }
                // INVARIANT: the block above creates the writer when None;
                // it is Some on every path reaching here.
                let (_, w, bytes) = writer.as_mut().expect("writer just ensured");
                w.add(record)?;
                *bytes += record.approximate_size() as u64;
                if *bytes >= self.config.target_sst_bytes {
                    // INVARIANT: guarded by the same writer.is_some() flow.
                    let (id, w, _) = writer.take().expect("writer present");
                    finish(id, w, &mut new_metas)?;
                }
            }
            if let Some((id, w, _)) = writer.take() {
                finish(id, w, &mut new_metas)?;
            }
            // Install: update the manifest under the shared lock (input
            // deletion also happens there, so a concurrent checkpoint pin
            // can never see a version whose files are already unlinked),
            // then mirror into this stripe's view.
            let mut new_readers = Vec::with_capacity(new_metas.len());
            for meta in &new_metas {
                new_readers.push(Arc::new(SstReader::open_cached(
                    &sst_path(&self.dir, meta.id),
                    self.block_cache.clone(),
                )?));
            }
            {
                let mut shared = self.shared.lock();
                for id in &task.input_ids {
                    shared.version.remove_file(*id);
                }
                for meta in &new_metas {
                    shared.version.add_file(meta.clone());
                }
                shared.version.save(&self.dir)?;
                for id in &task.input_ids {
                    std::fs::remove_file(sst_path(&self.dir, *id)).ok();
                }
            }
            for id in &task.input_ids {
                stripe.remove_file(*id);
            }
            for (meta, reader) in new_metas.iter().zip(new_readers) {
                stripe.add_file(meta.clone(), reader);
            }
            self.stats.compactions.fetch_add(1, Ordering::Relaxed);
            crate::metrics::COMPACTIONS.inc();
            crate::metrics::COMPACTION_BYTES.add(new_metas.iter().map(|m| m.file_size).sum());
            return Ok(true);
        }
        Ok(false)
    }

    /// Run compactions until the tree is shaped (bounded rounds).
    pub fn compact_to_quiescence(&self, now: SimTime) -> Result<u32> {
        let mut rounds = 0;
        while rounds < 64 && self.compact_once(now)? {
            rounds += 1;
        }
        Ok(rounds)
    }

    /// Counter snapshot.
    pub fn stats(&self) -> DbStats {
        DbStats {
            gets: self.stats.gets.load(Ordering::Relaxed),
            puts: self.stats.puts.load(Ordering::Relaxed),
            deletes: self.stats.deletes.load(Ordering::Relaxed),
            block_reads: self.stats.block_reads.load(Ordering::Relaxed),
            memtable_hits: self.stats.memtable_hits.load(Ordering::Relaxed),
            flushes: self.stats.flushes.load(Ordering::Relaxed),
            compactions: self.stats.compactions.load(Ordering::Relaxed),
            sst_bytes_written: self.stats.sst_bytes_written.load(Ordering::Relaxed),
        }
    }

    /// Total live SST bytes (storage utilization for the rescheduler).
    pub fn total_sst_bytes(&self) -> u64 {
        self.shared.lock().version.total_bytes()
    }

    /// Live files per level across all stripes, for diagnostics.
    pub fn level_file_counts(&self) -> Vec<usize> {
        self.shared
            .lock()
            .version
            .levels
            .iter()
            .map(Vec::len)
            .collect()
    }
}

/// Smallest byte string strictly greater than every key with `prefix`
/// (used to bound overlap checks). Falls back to 0xFF-padding when the prefix
/// is all 0xFF.
fn upper_bound_for_prefix(prefix: &[u8]) -> Bytes {
    let mut upper = prefix.to_vec();
    while let Some(last) = upper.last_mut() {
        if *last < 0xFF {
            *last += 1;
            return Bytes::from(upper);
        }
        upper.pop();
    }
    // All-0xFF prefix: unbounded above; use a long max sentinel.
    Bytes::from(vec![0xFFu8; prefix.len() + 8])
}

#[cfg(test)]
mod tests {
    use super::*;
    use abase_util::TestDir;

    #[test]
    fn put_get_roundtrip() {
        let dir = TestDir::new("putget");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k1", b"v1", None, 0).unwrap();
        let r = db.get(b"k1", 0).unwrap();
        assert_eq!(r.value.as_deref(), Some(&b"v1"[..]));
        assert!(r.from_memtable);
        assert!(db.get(b"missing", 0).unwrap().value.is_none());
    }

    #[test]
    fn overwrite_returns_latest() {
        let dir = TestDir::new("overwrite");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v1", None, 0).unwrap();
        db.put(b"k", b"v2", None, 0).unwrap();
        assert_eq!(db.get(b"k", 0).unwrap().value.as_deref(), Some(&b"v2"[..]));
    }

    #[test]
    fn delete_hides_key_across_flush() {
        let dir = TestDir::new("delete");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v", None, 0).unwrap();
        db.flush().unwrap();
        db.delete(b"k", 0).unwrap();
        assert!(db.get(b"k", 0).unwrap().value.is_none());
        db.flush().unwrap();
        assert!(db.get(b"k", 0).unwrap().value.is_none());
    }

    #[test]
    fn reads_span_memtable_and_multiple_ssts() {
        let dir = TestDir::new("layers");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"in-sst-1", b"a", None, 0).unwrap();
        db.flush().unwrap();
        db.put(b"in-sst-2", b"b", None, 0).unwrap();
        db.flush().unwrap();
        db.put(b"in-mem", b"c", None, 0).unwrap();
        assert_eq!(
            db.get(b"in-sst-1", 0).unwrap().value.as_deref(),
            Some(&b"a"[..])
        );
        assert_eq!(
            db.get(b"in-sst-2", 0).unwrap().value.as_deref(),
            Some(&b"b"[..])
        );
        let r = db.get(b"in-mem", 0).unwrap();
        assert!(r.from_memtable);
        // An SST read costs at least one block I/O.
        let r = db.get(b"in-sst-1", 0).unwrap();
        assert!(r.io_ops >= 1);
    }

    #[test]
    fn ttl_expires_reads() {
        let dir = TestDir::new("ttl");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v", Some(1000), 0).unwrap();
        assert!(db.get(b"k", 999).unwrap().value.is_some());
        assert!(db.get(b"k", 1000).unwrap().value.is_none());
        // Also across a flush.
        db.flush().unwrap();
        assert!(db.get(b"k", 1000).unwrap().value.is_none());
        assert!(db.get(b"k", 999).unwrap().value.is_some());
    }

    #[test]
    fn automatic_flush_on_memtable_pressure() {
        let dir = TestDir::new("autoflush");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        for i in 0..200 {
            let key = format!("key-{i:04}");
            db.put(key.as_bytes(), &[0u8; 100], None, 0).unwrap();
        }
        assert!(db.stats().flushes >= 1, "no flush under pressure");
        // All keys remain readable.
        for i in 0..200 {
            let key = format!("key-{i:04}");
            assert!(
                db.get(key.as_bytes(), 0).unwrap().value.is_some(),
                "{key} lost"
            );
        }
    }

    #[test]
    fn compaction_preserves_data_and_reduces_l0() {
        let dir = TestDir::new("compact");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        for round in 0..5 {
            for i in 0..50 {
                let key = format!("key-{i:04}");
                let value = format!("v{round}-{i}");
                db.put(key.as_bytes(), value.as_bytes(), None, 0).unwrap();
            }
            db.flush().unwrap();
        }
        let l0_before = db.level_file_counts()[0];
        assert!(l0_before >= 3);
        let rounds = db.compact_to_quiescence(0).unwrap();
        assert!(rounds >= 1);
        assert!(db.level_file_counts()[0] < l0_before);
        // Latest values win after compaction.
        for i in 0..50 {
            let key = format!("key-{i:04}");
            let expect = format!("v4-{i}");
            assert_eq!(
                db.get(key.as_bytes(), 0).unwrap().value.as_deref(),
                Some(expect.as_bytes()),
                "{key}"
            );
        }
    }

    #[test]
    fn recovery_from_wal_after_drop() {
        let dir = TestDir::new("recover");
        {
            let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
            db.put(b"durable", b"yes", None, 0).unwrap();
            // No flush: data only in WAL + memtable.
        }
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        assert_eq!(
            db.get(b"durable", 0).unwrap().value.as_deref(),
            Some(&b"yes"[..])
        );
    }

    #[test]
    fn recovery_after_flush_and_more_writes() {
        let dir = TestDir::new("recover2");
        {
            let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
            db.put(b"a", b"1", None, 0).unwrap();
            db.flush().unwrap();
            db.put(b"b", b"2", None, 0).unwrap();
        }
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        assert_eq!(db.get(b"a", 0).unwrap().value.as_deref(), Some(&b"1"[..]));
        assert_eq!(db.get(b"b", 0).unwrap().value.as_deref(), Some(&b"2"[..]));
        // Sequence numbers continue: an overwrite after recovery wins.
        db.put(b"a", b"3", None, 0).unwrap();
        assert_eq!(db.get(b"a", 0).unwrap().value.as_deref(), Some(&b"3"[..]));
    }

    #[test]
    fn scan_prefix_merges_all_layers() {
        let dir = TestDir::new("scan");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"h:1", b"a", None, 0).unwrap();
        db.flush().unwrap();
        db.put(b"h:2", b"b", None, 0).unwrap();
        db.put(b"other", b"x", None, 0).unwrap();
        db.put(b"h:1", b"a2", None, 0).unwrap(); // overwrite in memtable
        let (pairs, _) = db.scan_prefix(b"h:", 0).unwrap();
        assert_eq!(pairs.len(), 2);
        assert_eq!(pairs[0], (Bytes::from("h:1"), Bytes::from("a2")));
        assert_eq!(pairs[1], (Bytes::from("h:2"), Bytes::from("b")));
    }

    #[test]
    fn scan_prefix_hides_tombstones_and_expired() {
        let dir = TestDir::new("scan2");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"p:live", b"1", None, 0).unwrap();
        db.put(b"p:dead", b"2", None, 0).unwrap();
        db.put(b"p:ttl", b"3", Some(500), 0).unwrap();
        db.delete(b"p:dead", 0).unwrap();
        let (pairs, _) = db.scan_prefix(b"p:", 1000).unwrap();
        let keys: Vec<_> = pairs.iter().map(|(k, _)| k.clone()).collect();
        assert_eq!(keys, vec![Bytes::from("p:live")]);
    }

    #[test]
    fn bottom_compaction_drops_tombstones_and_expired() {
        let dir = TestDir::new("gc");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        // Three flushes reach the L0 compaction trigger.
        for round in 0..3 {
            for i in 0..30 {
                db.put(format!("k{i:02}-{round}").as_bytes(), b"v", Some(100), 0)
                    .unwrap();
            }
            db.delete(format!("k00-{round}").as_bytes(), 0).unwrap();
            db.flush().unwrap();
        }
        let before = db.total_sst_bytes();
        // Compact well past expiry: everything is GC-able.
        db.compact_to_quiescence(1_000_000).unwrap();
        let after = db.total_sst_bytes();
        assert!(
            after < before,
            "GC did not shrink storage ({before} -> {after})"
        );
    }

    #[test]
    fn stats_move() {
        let dir = TestDir::new("stats");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        db.put(b"k", b"v", None, 0).unwrap();
        db.get(b"k", 0).unwrap();
        db.delete(b"k", 0).unwrap();
        let s = db.stats();
        assert_eq!(s.puts, 1);
        assert_eq!(s.gets, 1);
        assert_eq!(s.deletes, 1);
        assert_eq!(s.memtable_hits, 1);
    }

    #[test]
    fn concurrent_readers_and_writer() {
        let dir = TestDir::new("concurrent");
        let db = Arc::new(Db::open(dir.path(), DbConfig::small_for_tests()).unwrap());
        for i in 0..100 {
            db.put(format!("k{i:03}").as_bytes(), b"v", None, 0)
                .unwrap();
        }
        db.flush().unwrap();
        let mut handles = Vec::new();
        for t in 0..4 {
            let db = Arc::clone(&db);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    let key = format!("k{:03}", (i * 7 + t) % 100);
                    assert!(db.get(key.as_bytes(), 0).unwrap().value.is_some());
                }
            }));
        }
        for i in 100..150 {
            db.put(format!("k{i:03}").as_bytes(), b"v", None, 0)
                .unwrap();
        }
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn concurrent_writers_keep_one_gapless_lsn_stream() {
        // The striped engine's core invariant: N writers on distinct keys
        // still produce one dense, monotone seq stream, and every write is
        // readable afterwards — including after a reopen that redistributes
        // replayed records to their stripes.
        let dir = TestDir::new("striped-lsn");
        const WRITERS: u64 = 4;
        const PER: u64 = 100;
        {
            let db = Arc::new(Db::open(dir.path(), DbConfig::small_for_tests()).unwrap());
            let mut handles = Vec::new();
            for t in 0..WRITERS {
                let db = Arc::clone(&db);
                handles.push(std::thread::spawn(move || {
                    for i in 0..PER {
                        let key = format!("w{t}-{i:04}");
                        let seq = db.put(key.as_bytes(), b"v", None, 0).unwrap();
                        assert!(seq >= 1);
                    }
                }));
            }
            for h in handles {
                h.join().unwrap();
            }
            // All seqs applied and contiguous: the visible watermark reached
            // the last allocated seq with no parked gaps.
            assert_eq!(db.last_seq(), WRITERS * PER);
        }
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        assert_eq!(db.last_seq(), WRITERS * PER);
        for t in 0..WRITERS {
            for i in 0..PER {
                let key = format!("w{t}-{i:04}");
                assert!(
                    db.get(key.as_bytes(), 0).unwrap().value.is_some(),
                    "{key} lost across striped recovery"
                );
            }
        }
    }

    #[test]
    fn stripe_assignment_is_stable_and_spread() {
        let keys: Vec<String> = (0..256).map(|i| format!("key-{i:04}")).collect();
        let mut counts = [0usize; 4];
        for k in &keys {
            let s = stripe_of_key(k.as_bytes(), 4);
            assert_eq!(s, stripe_of_key(k.as_bytes(), 4), "unstable hash");
            counts[s] += 1;
        }
        // FNV over distinct keys should not collapse into one stripe.
        assert!(counts.iter().all(|&c| c > 0), "dead stripe: {counts:?}");
    }

    #[test]
    fn apply_replicated_preserves_seq_and_dedups() {
        let dir = TestDir::new("apply-repl");
        let db = Db::open(dir.path(), DbConfig::small_for_tests()).unwrap();
        let r1 = crate::record::Record::put("k", "v1", 1, None);
        let r2 = crate::record::Record::put("k", "v2", 2, None);
        assert!(db.apply_replicated(&r1).unwrap());
        assert!(db.apply_replicated(&r2).unwrap());
        // Re-shipping an old record is a no-op, not a regression.
        assert!(!db.apply_replicated(&r1).unwrap());
        assert_eq!(db.get(b"k", 0).unwrap().value.as_deref(), Some(&b"v2"[..]));
        assert_eq!(db.last_seq(), 2);
        // A gap (seq 9 when 3 is expected) is rejected loudly.
        let gap = crate::record::Record::put("x", "y", 9, None);
        assert!(db.apply_replicated(&gap).is_err());
        // Local writes continue the same sequence domain.
        db.put(b"k2", b"v", None, 0).unwrap();
        assert_eq!(db.last_seq(), 3);
    }

    #[test]
    fn checkpoint_clones_database_state() {
        let src_dir = TestDir::new("ckpt-src");
        let dst_dir = TestDir::new("ckpt-dst");
        let db = Db::open(src_dir.path(), DbConfig::small_for_tests()).unwrap();
        for i in 0..120 {
            db.put(format!("key-{i:04}").as_bytes(), &[7u8; 64], None, 0)
                .unwrap();
        }
        db.flush().unwrap();
        for i in 120..140 {
            db.put(format!("key-{i:04}").as_bytes(), &[7u8; 64], None, 0)
                .unwrap();
        }
        let mut chunks = 0usize;
        let info = db
            .checkpoint_with(dst_dir.path(), &mut |n| chunks += n)
            .unwrap();
        assert_eq!(info.last_seq, db.last_seq());
        assert_eq!(info.bytes_copied, chunks as u64);
        assert!(info.bytes_copied > 0);
        let clone = Db::open(dst_dir.path(), DbConfig::small_for_tests()).unwrap();
        assert_eq!(clone.last_seq(), db.last_seq());
        for i in 0..140 {
            let key = format!("key-{i:04}");
            assert!(
                clone.get(key.as_bytes(), 0).unwrap().value.is_some(),
                "{key} missing"
            );
        }
    }

    #[test]
    fn upper_bound_helper() {
        assert_eq!(upper_bound_for_prefix(b"abc"), Bytes::from("abd"));
        assert_eq!(
            upper_bound_for_prefix(&[0x01, 0xFF]),
            Bytes::from(vec![0x02])
        );
        let ub = upper_bound_for_prefix(&[0xFF, 0xFF]);
        assert!(ub.as_ref() > &[0xFFu8, 0xFF][..]);
    }
}
