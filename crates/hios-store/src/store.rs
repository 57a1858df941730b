//! The durable plan store: open/recover, get with digest-verified
//! replay, put with delta compression, epoch-based invalidation.

use crate::delta::PlanDelta;
use crate::log::{self, LogScan};
use crate::record::{self, PlanKey, PlanRecord, PlanRung, RecordBody, RecordDecode};
use hios_core::Schedule;
use std::collections::{HashMap, HashSet};
use std::ffi::OsString;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Current version of the store file format (the log header).
pub const STORE_FORMAT_VERSION: u32 = 1;

/// Typed store failures.  Corruption is *not* an error — recovery
/// turns it into typed misses and quarantine counts — so this enum
/// covers only real I/O failures and logs written by a newer build.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoreError {
    /// An operating-system I/O failure.
    Io {
        /// The operation that failed (`"read"`, `"append"`, …).
        op: &'static str,
        /// The OS error, stringified so the variant stays `Clone`.
        detail: String,
    },
    /// The log (or a record in it) was written by a newer build.
    Incompatible {
        /// Format version found.
        found: u32,
        /// Highest version this build understands.
        supported: u32,
    },
}

impl StoreError {
    fn io(op: &'static str, err: &io::Error) -> StoreError {
        StoreError::Io {
            op,
            detail: err.to_string(),
        }
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, detail } => write!(f, "plan store {op} failed: {detail}"),
            StoreError::Incompatible { found, supported } => write!(
                f,
                "plan store format version {found} is newer than supported version {supported}"
            ),
        }
    }
}

impl std::error::Error for StoreError {}

/// Tunables for a [`PlanStore`].
#[derive(Clone, Copy, Debug)]
pub struct StoreOptions {
    /// Maximum delta links a stored plan may sit behind; deeper chains
    /// are stored as full plans on write and refused (quarantined) on
    /// read.  Bounds both replay cost and compounded-corruption risk.
    pub max_delta_depth: u32,
}

impl Default for StoreOptions {
    fn default() -> Self {
        StoreOptions { max_delta_depth: 8 }
    }
}

/// What [`PlanStore::open`] found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records decoded and indexed (including superseded duplicates).
    pub records_loaded: usize,
    /// Checksum-valid records that failed to decode and were skipped.
    pub records_quarantined: usize,
    /// Records written by a newer build, skipped but kept on disk.
    pub incompatible_records: usize,
    /// Bytes of torn/corrupt tail moved to the quarantine sidecar.
    pub tail_bytes_quarantined: usize,
    /// Whether the log had to be truncated to its longest valid prefix.
    pub torn_tail: bool,
    /// Whether the header itself was unreadable and the whole file was
    /// quarantined (the store restarted empty).
    pub reset: bool,
}

/// Runtime counters (everything after `open`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Successful, digest-verified `get`s.
    pub hits: u64,
    /// `get`s that found nothing servable (includes quarantined ones).
    pub misses: u64,
    /// Entries dropped at `get` time: digest mismatch, broken or
    /// over-deep delta chain.  Every quarantine is also a miss.
    pub quarantines: u64,
    /// Records appended storing a full plan.
    pub puts_full: u64,
    /// Records appended storing a delta.
    pub puts_delta: u64,
    /// Entries dropped by [`PlanStore::invalidate_stale`].
    pub invalidated: u64,
}

/// How a [`PlanStore::put`] was persisted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// Appended as a full plan.
    Full,
    /// Appended as a delta against an earlier plan.
    Delta,
    /// Identical to the incumbent record; nothing written.
    Unchanged,
}

/// A plan served from the store.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredPlan {
    /// The reconstructed, digest-verified schedule.
    pub schedule: Schedule,
    /// The makespan recorded when the plan was stored.
    pub makespan_ms: f64,
    /// Whether delta replay was involved in reconstruction.
    pub via_delta: bool,
}

/// A plan served from the store without copying it: what
/// [`PlanStore::get_shared`] returns.
#[derive(Clone, Debug, PartialEq)]
pub struct SharedPlan {
    /// The reconstructed, digest-verified schedule, shared with the
    /// store (and with every other reader of the same record).
    pub schedule: Arc<Schedule>,
    /// The makespan recorded when the plan was stored.
    pub makespan_ms: f64,
    /// Whether delta replay was involved in reconstruction.
    pub via_delta: bool,
    /// The scheduling pass that produced the plan, when the writer
    /// recorded it.
    pub rung: Option<PlanRung>,
    /// [`Schedule::content_digest`] of `schedule`, as recorded and
    /// verified.
    pub digest: u64,
}

/// The full plan a record denotes, known good: reconstructed and checked
/// against the record's content digest on the first read, or the very
/// plan the digest was taken from on a put.
#[derive(Clone, Debug)]
struct Resolved {
    plan: Arc<Schedule>,
    /// Delta links between the record and a full one.
    depth: u32,
}

#[derive(Debug)]
struct Slot {
    rec: PlanRecord,
    /// Filled once per process, so a record is replayed and hashed at
    /// most once however often it is read.
    resolved: Option<Resolved>,
}

/// A durable, content-addressed plan store over one append-only log
/// file.  See the crate docs for the format and recovery protocol.
#[derive(Debug)]
pub struct PlanStore {
    path: PathBuf,
    opts: StoreOptions,
    file: File,
    records: Vec<Slot>,
    index: HashMap<PlanKey, usize>,
    /// Record per `(key, content digest)` — what delta parents pin, so
    /// a chain stays resolvable after its parent key is rebound to a
    /// different plan by a later put.
    index_by_digest: HashMap<(PlanKey, u64), usize>,
    /// Latest key per scheduling problem, the delta-parent candidate.
    latest_by_problem: HashMap<(u64, u64, u32), PlanKey>,
    recovery: RecoveryReport,
    stats: StoreStats,
    /// Content-digest passes spent verifying reads.
    #[cfg(test)]
    digest_passes: std::cell::Cell<u64>,
}

fn sibling(path: &Path, suffix: &str) -> PathBuf {
    let mut name: OsString = path.as_os_str().to_owned();
    name.push(suffix);
    PathBuf::from(name)
}

fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
    let tmp = sibling(path, ".tmp");
    let mut f = File::create(&tmp).map_err(|e| StoreError::io("create temp", &e))?;
    f.write_all(bytes)
        .map_err(|e| StoreError::io("write temp", &e))?;
    f.sync_all().map_err(|e| StoreError::io("sync temp", &e))?;
    fs::rename(&tmp, path).map_err(|e| StoreError::io("rename", &e))?;
    Ok(())
}

/// Saves quarantined bytes to the first free `<log>.quarantine.N`
/// sidecar (N = 0, 1, …).  The counter is monotonic per log path —
/// `create_new` refuses existing slots — so a second corruption in the
/// store's lifetime parks its evidence beside the first instead of
/// overwriting it.
fn write_quarantine(path: &Path, bytes: &[u8]) -> Result<PathBuf, StoreError> {
    for n in 0u64.. {
        let side = sibling(path, &format!(".quarantine.{n}"));
        match OpenOptions::new().write(true).create_new(true).open(&side) {
            Ok(mut f) => {
                f.write_all(bytes)
                    .map_err(|e| StoreError::io("write quarantine", &e))?;
                f.sync_all()
                    .map_err(|e| StoreError::io("sync quarantine", &e))?;
                return Ok(side);
            }
            Err(e) if e.kind() == io::ErrorKind::AlreadyExists => continue,
            Err(e) => return Err(StoreError::io("create quarantine", &e)),
        }
    }
    unreachable!("u64 quarantine slots exhausted")
}

fn open_append(path: &Path) -> Result<File, StoreError> {
    OpenOptions::new()
        .append(true)
        .open(path)
        .map_err(|e| StoreError::io("open for append", &e))
}

impl PlanStore {
    /// Opens (creating if absent) the log at `path`, scanning and
    /// repairing it.  Corruption never fails the open: a mangled
    /// header quarantines the whole file and restarts empty, a torn
    /// tail is truncated to the longest valid prefix, and undecodable
    /// records are skipped — all tallied in [`PlanStore::recovery`].
    /// Only real I/O errors and a log written by a newer build
    /// ([`StoreError::Incompatible`]) are errors.
    pub fn open(path: impl Into<PathBuf>, opts: StoreOptions) -> Result<PlanStore, StoreError> {
        let path = path.into();
        let bytes = match fs::read(&path) {
            Ok(b) => Some(b),
            Err(e) if e.kind() == io::ErrorKind::NotFound => None,
            Err(e) => return Err(StoreError::io("read", &e)),
        };

        let mut recovery = RecoveryReport::default();
        let mut payloads = Vec::new();
        match bytes {
            None => {
                write_atomic(&path, &log::encode_header(STORE_FORMAT_VERSION))?;
            }
            Some(bytes) => match log::scan(&bytes, STORE_FORMAT_VERSION) {
                LogScan::Incompatible { found } => {
                    return Err(StoreError::Incompatible {
                        found,
                        supported: STORE_FORMAT_VERSION,
                    });
                }
                LogScan::Corrupt => {
                    recovery.reset = true;
                    recovery.torn_tail = true;
                    recovery.tail_bytes_quarantined = bytes.len();
                    write_quarantine(&path, &bytes)?;
                    write_atomic(&path, &log::encode_header(STORE_FORMAT_VERSION))?;
                }
                LogScan::Ok(scan) => {
                    if scan.torn {
                        recovery.torn_tail = true;
                        recovery.tail_bytes_quarantined = bytes.len() - scan.valid_len;
                        write_quarantine(&path, &bytes[scan.valid_len..])?;
                        write_atomic(&path, &bytes[..scan.valid_len])?;
                    }
                    payloads = scan.payloads;
                }
            },
        }

        let mut store = PlanStore {
            file: open_append(&path)?,
            path,
            opts,
            records: Vec::with_capacity(payloads.len()),
            index: HashMap::new(),
            index_by_digest: HashMap::new(),
            latest_by_problem: HashMap::new(),
            recovery,
            stats: StoreStats::default(),
            #[cfg(test)]
            digest_passes: std::cell::Cell::new(0),
        };
        for payload in payloads {
            match record::decode(&payload) {
                RecordDecode::Ok(rec) => store.admit(*rec, None),
                RecordDecode::Incompatible => store.recovery.incompatible_records += 1,
                RecordDecode::Malformed => store.recovery.records_quarantined += 1,
            }
        }
        store.recovery.records_loaded = store.records.len();
        Ok(store)
    }

    fn admit(&mut self, rec: PlanRecord, resolved: Option<Resolved>) {
        let key = rec.key;
        let digest = rec.digest;
        let idx = self.records.len();
        self.records.push(Slot { rec, resolved });
        self.index.insert(key, idx);
        self.index_by_digest.insert((key, digest), idx);
        self.latest_by_problem.insert(key.problem(), key);
    }

    /// Whether `plan` is the content a record's digest names.
    fn verified(&self, plan: &Schedule, recorded: u64) -> bool {
        #[cfg(test)]
        self.digest_passes.set(self.digest_passes.get() + 1);
        plan.content_digest() == recorded
    }

    /// The full plan record `top` denotes.  The first call replays its
    /// delta chain (down to a full record, or to a link already
    /// resolved) and verifies every link's digest; the result is kept
    /// with the record, so later calls only clone the `Arc`.  `Err`
    /// means the record (or its chain) is unservable.
    fn resolve(&mut self, top: usize) -> Result<Resolved, ()> {
        let mut chain = Vec::new();
        let mut idx = top;
        let base = loop {
            let slot = &self.records[idx];
            if let Some(known) = &slot.resolved {
                break known.clone();
            }
            match &slot.rec.body {
                RecordBody::Full(plan) => {
                    if !self.verified(plan, slot.rec.digest) {
                        return Err(());
                    }
                    break Resolved {
                        plan: Arc::clone(plan),
                        depth: 0,
                    };
                }
                RecordBody::Delta {
                    parent,
                    parent_digest,
                    ..
                } => {
                    if chain.len() as u32 >= self.opts.max_delta_depth {
                        return Err(()); // over-deep or cyclic chain
                    }
                    chain.push(idx);
                    idx = *self
                        .index_by_digest
                        .get(&(*parent, *parent_digest))
                        .ok_or(())?;
                }
            }
        };
        let depth = base.depth + chain.len() as u32;
        if depth > self.opts.max_delta_depth {
            return Err(());
        }
        let mut plan = base.plan;
        for &idx in chain.iter().rev() {
            let rec = &self.records[idx].rec;
            let RecordBody::Delta { delta, .. } = &rec.body else {
                return Err(());
            };
            plan = Arc::new(delta.apply(&plan).map_err(|_| ())?);
            if !self.verified(&plan, rec.digest) {
                return Err(());
            }
        }
        let resolved = Resolved { plan, depth };
        self.records[top].resolved = Some(resolved.clone());
        Ok(resolved)
    }

    /// Looks up `key`; `None` is a typed miss.  A present entry is
    /// served only if its (possibly delta-replayed) reconstruction
    /// matches the recorded content digest; anything else — digest
    /// mismatch, broken parent chain, over-deep replay — quarantines
    /// the entry and reports a miss.  This is the invariant the whole
    /// store exists to uphold: corruption can cost a warm start, it
    /// can never serve a wrong plan.
    ///
    /// The check runs on the first read of a record in this process;
    /// the verified plan is then kept and later reads share it.
    pub fn get_shared(&mut self, key: &PlanKey) -> Option<SharedPlan> {
        let Some(&idx) = self.index.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        match self.resolve(idx) {
            Ok(Resolved { plan, depth }) => {
                self.stats.hits += 1;
                let rec = &self.records[idx].rec;
                Some(SharedPlan {
                    schedule: plan,
                    makespan_ms: rec.makespan_ms,
                    via_delta: depth > 0,
                    rung: rec.rung,
                    digest: rec.digest,
                })
            }
            Err(()) => {
                self.quarantine(key);
                self.stats.misses += 1;
                None
            }
        }
    }

    /// [`PlanStore::get_shared`] with an owned copy of the schedule and
    /// without the recorded rung.
    pub fn get(&mut self, key: &PlanKey) -> Option<StoredPlan> {
        self.get_shared(key).map(|hit| StoredPlan {
            schedule: Schedule::clone(&hit.schedule),
            makespan_ms: hit.makespan_ms,
            via_delta: hit.via_delta,
        })
    }

    fn quarantine(&mut self, key: &PlanKey) {
        self.index.remove(key);
        if self.latest_by_problem.get(&key.problem()) == Some(key) {
            self.latest_by_problem.remove(&key.problem());
        }
        self.stats.quarantines += 1;
    }

    /// Persists `plan` under `key` with the rung that produced it
    /// (`None`: not known): appends one checksummed frame and flushes.
    /// Stores a delta against the latest plan of the same scheduling
    /// problem when that is smaller and keeps the replay chain within
    /// bounds.  A put that tells the incumbent record nothing new — same
    /// content, same makespan, and no rung the record does not already
    /// carry — writes nothing; one that only names the rung is written,
    /// which is how a log from a build without the field learns it.
    ///
    /// The store keeps `plan` itself (no copy) as the record's verified
    /// content: reads in this process share it without re-hashing.
    pub fn put_shared(
        &mut self,
        key: PlanKey,
        plan: &Arc<Schedule>,
        makespan_ms: f64,
        rung: Option<PlanRung>,
    ) -> Result<PutOutcome, StoreError> {
        let digest = plan.content_digest();
        if let Some(&idx) = self.index.get(&key) {
            let old = &self.records[idx].rec;
            if old.digest == digest
                && old.makespan_ms.to_bits() == makespan_ms.to_bits()
                && (rung.is_none() || rung == old.rung)
            {
                return Ok(PutOutcome::Unchanged);
            }
        }

        let full = PlanRecord {
            key,
            makespan_ms,
            digest,
            rung,
            body: RecordBody::Full(Arc::clone(plan)),
        };
        let full_bytes = record::encode(&full);
        let mut chosen = (full, full_bytes, PutOutcome::Full, 0);

        let parent = self
            .latest_by_problem
            .get(&key.problem())
            .filter(|&&parent_key| parent_key != key)
            .and_then(|parent_key| Some((*parent_key, *self.index.get(parent_key)?)));
        if let Some((parent_key, parent_idx)) = parent {
            if let Ok(parent) = self.resolve(parent_idx) {
                if parent.depth < self.opts.max_delta_depth {
                    let rec = PlanRecord {
                        key,
                        makespan_ms,
                        digest,
                        rung,
                        body: RecordBody::Delta {
                            parent: parent_key,
                            parent_digest: self.records[parent_idx].rec.digest,
                            delta: PlanDelta::diff(&parent.plan, plan),
                        },
                    };
                    let bytes = record::encode(&rec);
                    if bytes.len() < chosen.1.len() {
                        chosen = (rec, bytes, PutOutcome::Delta, parent.depth + 1);
                    }
                }
            }
        }
        let (rec, bytes, outcome, depth) = chosen;

        let frame = log::encode_frame(&bytes);
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io("append", &e))?;
        self.file.flush().map_err(|e| StoreError::io("flush", &e))?;
        match outcome {
            PutOutcome::Full => self.stats.puts_full += 1,
            PutOutcome::Delta => self.stats.puts_delta += 1,
            PutOutcome::Unchanged => {}
        }
        let plan = Arc::clone(plan);
        self.admit(rec, Some(Resolved { plan, depth }));
        Ok(outcome)
    }

    /// [`PlanStore::put_shared`] of a copy of `schedule`, rung unknown.
    pub fn put(
        &mut self,
        key: PlanKey,
        schedule: &Schedule,
        makespan_ms: f64,
    ) -> Result<PutOutcome, StoreError> {
        self.put_shared(key, &Arc::new(schedule.clone()), makespan_ms, None)
    }

    /// Extends the serving ladder's `invalidate_stale` to the durable
    /// tier: drops every plan of `graph_fp` from a superseded
    /// intermediate epoch (`0 < epoch < current_epoch`).  Epoch-0
    /// plans survive — they are priced against the base profile a
    /// restarted process calibrates from, so they are exactly the
    /// warm-start inventory — as does the current epoch.  Dropping
    /// compacts the log (survivors rewritten as full records with their
    /// recorded rungs, delta parents may be purged) through an atomic
    /// temp + rename commit.
    /// Returns how many entries were dropped.
    pub fn invalidate_stale(
        &mut self,
        graph_fp: u64,
        current_epoch: u64,
    ) -> Result<usize, StoreError> {
        let stale: HashSet<PlanKey> = self
            .index
            .keys()
            .filter(|k| k.graph_fp == graph_fp && k.epoch > 0 && k.epoch < current_epoch)
            .copied()
            .collect();
        if stale.is_empty() {
            return Ok(0);
        }

        let mut survivors: Vec<(usize, PlanKey)> = self
            .index
            .iter()
            .filter(|(k, _)| !stale.contains(k))
            .map(|(k, &i)| (i, *k))
            .collect();
        survivors.sort_unstable_by_key(|&(i, _)| i);

        // Materialize before dropping anything: a survivor's delta
        // parent may be stale, so it must be re-rooted as a full plan.
        let mut rebuilt = Vec::with_capacity(survivors.len());
        for &(idx, key) in &survivors {
            match self.resolve(idx) {
                Ok(Resolved { plan, .. }) => {
                    let old = &self.records[idx].rec;
                    let rec = PlanRecord {
                        key,
                        makespan_ms: old.makespan_ms,
                        digest: old.digest, // what `resolve` just checked `plan` against
                        rung: old.rung,
                        body: RecordBody::Full(Arc::clone(&plan)),
                    };
                    rebuilt.push((rec, plan));
                }
                // An unservable chain surfaces here instead of at the
                // next get; drop it with the same accounting.
                Err(()) => self.stats.quarantines += 1,
            }
        }

        let mut image = log::encode_header(STORE_FORMAT_VERSION).to_vec();
        for (rec, _) in &rebuilt {
            image.extend_from_slice(&log::encode_frame(&record::encode(rec)));
        }
        write_atomic(&self.path, &image)?;
        self.file = open_append(&self.path)?;

        self.records.clear();
        self.index.clear();
        self.index_by_digest.clear();
        self.latest_by_problem.clear();
        for (rec, plan) in rebuilt {
            self.admit(rec, Some(Resolved { plan, depth: 0 }));
        }
        self.stats.invalidated += stale.len() as u64;
        Ok(stale.len())
    }

    /// Number of distinct keys currently servable.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether no plans are stored.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Whether `key` has a (not yet quarantined) entry.
    pub fn contains(&self, key: &PlanKey) -> bool {
        self.index.contains_key(key)
    }

    /// What `open` found and repaired.
    pub fn recovery(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Runtime counters since `open`.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// The log file this store persists to.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_graph::OpId;
    use std::sync::atomic::{AtomicU64, Ordering};

    static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

    fn scratch(tag: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "hios-store-{tag}-{}-{}",
            std::process::id(),
            DIR_SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        fs::create_dir_all(&p).expect("create scratch dir");
        p.join("plans.log")
    }

    fn key(graph_fp: u64, epoch: u64) -> PlanKey {
        PlanKey {
            graph_fp,
            platform_fp: u64::MAX - 11,
            alive_mask: 0b11,
            num_gpus: 2,
            epoch,
        }
    }

    fn plan(tail: u32) -> Schedule {
        Schedule::from_gpu_orders(vec![vec![OpId(0), OpId(1)], vec![OpId(2), OpId(tail)]])
    }

    #[test]
    fn put_get_survives_reopen_bit_identically() {
        let path = scratch("reopen");
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.put(key(1, 0), &plan(3), 10.0), Ok(PutOutcome::Full));
        assert_eq!(store.get(&key(1, 0)).unwrap().schedule, plan(3));
        let before = fs::read(&path).unwrap();
        drop(store);

        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            before,
            "clean reopen rewrites nothing"
        );
        assert_eq!(
            *store.recovery(),
            RecoveryReport {
                records_loaded: 1,
                ..RecoveryReport::default()
            }
        );
        let hit = store.get(&key(1, 0)).unwrap();
        assert_eq!(hit.schedule, plan(3));
        assert_eq!(hit.makespan_ms, 10.0);
        assert!(!hit.via_delta);
        assert_eq!(store.stats().hits, 1);
    }

    #[test]
    fn unchanged_put_writes_nothing() {
        let path = scratch("unchanged");
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        store.put(key(1, 0), &plan(3), 10.0).unwrap();
        let size = fs::metadata(&path).unwrap().len();
        assert_eq!(
            store.put(key(1, 0), &plan(3), 10.0),
            Ok(PutOutcome::Unchanged)
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), size);
    }

    #[test]
    fn near_identical_plans_store_as_deltas_and_replay() {
        let path = scratch("delta");
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        store.put(key(1, 0), &plan(3), 10.0).unwrap();
        for e in 1..=4u64 {
            let outcome = store
                .put(key(1, e), &plan(3 + e as u32), 10.0 - e as f64)
                .unwrap();
            assert_eq!(outcome, PutOutcome::Delta, "epoch {e} should delta-chain");
        }
        drop(store);
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        for e in 0..=4u64 {
            let hit = store.get(&key(1, e)).unwrap();
            assert_eq!(hit.schedule, plan(3 + e as u32));
            assert_eq!(hit.via_delta, e > 0);
        }
    }

    #[test]
    fn delta_depth_is_bounded_on_write() {
        let path = scratch("depth");
        let opts = StoreOptions { max_delta_depth: 2 };
        let mut store = PlanStore::open(&path, opts).unwrap();
        store.put(key(1, 0), &plan(3), 9.0).unwrap();
        assert_eq!(store.put(key(1, 1), &plan(4), 9.0), Ok(PutOutcome::Delta));
        assert_eq!(store.put(key(1, 2), &plan(5), 9.0), Ok(PutOutcome::Delta));
        // Parent is already at the depth bound: falls back to full.
        assert_eq!(store.put(key(1, 3), &plan(6), 9.0), Ok(PutOutcome::Full));
        assert_eq!(store.get(&key(1, 3)).unwrap().schedule, plan(6));
    }

    #[test]
    fn invalidate_stale_purges_intermediates_keeps_base_and_current() {
        let path = scratch("epochs");
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        // Epoch 3 is delta-encoded against a parent the purge drops.
        let rungs = [
            Some(PlanRung::Greedy),
            None,
            Some(PlanRung::InterLp),
            Some(PlanRung::FullLp),
        ];
        for e in 0..=3u64 {
            let plan = Arc::new(plan(3 + e as u32));
            store
                .put_shared(key(1, e), &plan, 9.0, rungs[e as usize])
                .unwrap();
        }
        store.put(key(2, 1), &plan(9), 9.0).unwrap(); // other graph untouched
        assert_eq!(store.invalidate_stale(1, 3), Ok(2)); // epochs 1, 2
        assert_eq!(store.invalidate_stale(1, 3), Ok(0)); // idempotent
        assert!(
            store.contains(&key(1, 0)),
            "base epoch survives for restarts"
        );
        assert!(store.contains(&key(1, 3)), "current epoch survives");
        assert!(!store.contains(&key(1, 1)) && !store.contains(&key(1, 2)));
        assert!(store.contains(&key(2, 1)));
        drop(store);

        // The compaction is durable and survivors were re-rooted as
        // full plans even though their delta parents are gone.
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(&key(1, 3)).unwrap().schedule, plan(6));
        assert_eq!(store.get(&key(1, 0)).unwrap().schedule, plan(3));
        assert_eq!(store.stats().quarantines, 0);
        // … each under the rung it was recorded with.
        let rung = |store: &mut PlanStore, k| store.get_shared(&k).unwrap().rung;
        assert_eq!(rung(&mut store, key(1, 3)), Some(PlanRung::FullLp));
        assert_eq!(rung(&mut store, key(1, 0)), Some(PlanRung::Greedy));
        assert_eq!(rung(&mut store, key(2, 1)), None);
    }

    #[test]
    fn a_put_that_only_names_the_rung_reaches_the_log() {
        let path = scratch("rung-only");
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        store.put(key(1, 0), &plan(3), 10.0).unwrap(); // as an older build writes it
        drop(store);

        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        assert_eq!(store.get_shared(&key(1, 0)).unwrap().rung, None);
        let same = Arc::new(plan(3));
        let lp = Some(PlanRung::FullLp);
        assert_eq!(
            store.put_shared(key(1, 0), &same, 10.0, lp),
            Ok(PutOutcome::Full),
            "same content, same makespan, new knowledge"
        );
        assert_eq!(
            store.put_shared(key(1, 0), &same, 10.0, lp),
            Ok(PutOutcome::Unchanged)
        );
        // "Unknown" is not news about a record that knows.
        assert_eq!(
            store.put(key(1, 0), &plan(3), 10.0),
            Ok(PutOutcome::Unchanged)
        );
        drop(store);

        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        assert_eq!(store.recovery().records_loaded, 2);
        let hit = store.get_shared(&key(1, 0)).unwrap();
        assert_eq!((hit.rung, &*hit.schedule), (lp, &plan(3)));
    }

    #[test]
    fn a_record_is_verified_once_and_then_shared() {
        let path = scratch("shared");
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        let written = Arc::new(plan(3));
        store.put_shared(key(1, 0), &written, 10.0, None).unwrap();
        store.put(key(1, 1), &plan(4), 9.0).unwrap(); // a delta on it
        // What this process wrote it need not re-verify to read.
        let hit = store.get_shared(&key(1, 0)).unwrap();
        assert!(Arc::ptr_eq(&hit.schedule, &written));
        assert_eq!(store.digest_passes.get(), 0);
        drop(store);

        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        let first = store.get_shared(&key(1, 1)).unwrap();
        assert!(first.via_delta);
        assert_eq!(store.digest_passes.get(), 2, "base and delta link");
        let second = store.get_shared(&key(1, 1)).unwrap();
        assert_eq!(first, second);
        assert!(Arc::ptr_eq(&first.schedule, &second.schedule));
        assert_eq!(store.get(&key(1, 1)).unwrap().schedule, plan(4));
        assert_eq!(store.digest_passes.get(), 2, "later reads hash nothing");
        assert_eq!(store.stats().hits, 3);
    }

    #[test]
    fn a_record_corrupted_before_its_first_read_is_quarantined() {
        // A checksum-valid frame whose schedule is not the one its
        // digest names: only the first read's digest pass can tell.
        let path = scratch("first-read");
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        store.put(key(1, 0), &plan(3), 10.0).unwrap();
        drop(store);
        let forged = PlanRecord {
            key: key(2, 0),
            makespan_ms: 10.0,
            digest: plan(3).content_digest(),
            rung: Some(PlanRung::FullLp),
            body: RecordBody::Full(Arc::new(plan(4))),
        };
        let mut file = open_append(&path).unwrap();
        file.write_all(&log::encode_frame(&record::encode(&forged)))
            .unwrap();
        drop(file);

        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        assert_eq!(store.recovery().records_loaded, 2);
        assert_eq!(store.get_shared(&key(2, 0)), None);
        assert_eq!(store.get_shared(&key(2, 0)), None);
        let stats = store.stats();
        assert_eq!((stats.quarantines, stats.misses, stats.hits), (1, 2, 0));
        assert!(store.get_shared(&key(1, 0)).is_some());
    }

    #[test]
    fn header_corruption_resets_with_sidecar_not_error() {
        let path = scratch("header");
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        store.put(key(1, 0), &plan(3), 9.0).unwrap();
        drop(store);
        let mut bytes = fs::read(&path).unwrap();
        bytes[2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        assert!(store.recovery().reset);
        assert!(store.is_empty());
        assert_eq!(
            store.get(&key(1, 0)),
            None,
            "typed miss, never a wrong plan"
        );
        let sidecar = sibling(&path, ".quarantine.0");
        assert_eq!(
            fs::read(sidecar).unwrap(),
            bytes,
            "corrupt image kept for post-mortems"
        );
    }

    #[test]
    fn repeated_corruption_never_overwrites_earlier_sidecars() {
        let path = scratch("requarantine");
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        store.put(key(1, 0), &plan(3), 9.0).unwrap();
        drop(store);
        let first = {
            let mut bytes = fs::read(&path).unwrap();
            bytes[2] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            bytes
        };
        drop(PlanStore::open(&path, StoreOptions::default()).unwrap());

        // Second corruption of the store's lifetime: the fresh evidence
        // lands in `.quarantine.1`; `.quarantine.0` is untouched.
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        store.put(key(2, 0), &plan(4), 9.0).unwrap();
        drop(store);
        let second = {
            let mut bytes = fs::read(&path).unwrap();
            bytes[2] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            bytes
        };
        let store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        assert!(store.recovery().reset);
        assert_eq!(
            fs::read(sibling(&path, ".quarantine.0")).unwrap(),
            first,
            "first corruption's evidence survives the second"
        );
        assert_eq!(fs::read(sibling(&path, ".quarantine.1")).unwrap(), second);
    }

    #[test]
    fn newer_file_format_is_typed_incompatible() {
        let path = scratch("newer");
        drop(PlanStore::open(&path, StoreOptions::default()).unwrap());
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(STORE_FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            PlanStore::open(&path, StoreOptions::default()).err(),
            Some(StoreError::Incompatible {
                found: STORE_FORMAT_VERSION + 1,
                supported: STORE_FORMAT_VERSION
            })
        );
    }
}
