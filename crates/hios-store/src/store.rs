//! The durable plan store: open/recover, digest-verified get, put,
//! epoch-based invalidation.

use crate::log::{self, LogScan};
use crate::record::{self, PlanKey, PlanRecord, PlanRung, RecordDecode};
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

/// Tunables for a [`PlanStore`].  There are none; [`PlanStore::open`]
/// takes the default.
#[derive(Clone, Copy, Debug, Default)]
pub struct StoreOptions;

/// What [`PlanStore::open`] found and repaired.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Records decoded and indexed (including superseded duplicates).
    pub records_loaded: usize,
    /// Checksum-valid records that failed to decode and were skipped,
    /// among them the delta records older builds wrote.
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
    /// Entries dropped because their plan does not match the recorded
    /// content digest.  Every quarantine at `get` time is also a miss.
    pub quarantines: u64,
    /// Records appended.
    pub puts_full: u64,
    /// Always 0: every record is a full plan.
    pub puts_delta: u64,
    /// Entries dropped by [`PlanStore::invalidate_stale`].
    pub invalidated: u64,
}

/// How a [`PlanStore::put`] was persisted.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PutOutcome {
    /// Appended as a full plan.
    Full,
    /// Identical to the incumbent record; nothing written.
    Unchanged,
}

/// A plan served from the store.
#[derive(Clone, Debug, PartialEq)]
pub struct StoredPlan {
    /// The digest-verified schedule.
    pub schedule: Schedule,
    /// The makespan recorded when the plan was stored.
    pub makespan_ms: f64,
}

/// A plan served from the store without copying it: what
/// [`PlanStore::get_shared`] returns.
#[derive(Clone, Debug, PartialEq)]
pub struct SharedPlan {
    /// The digest-verified schedule, shared with the store (and with
    /// every other reader of the same record).
    pub schedule: Arc<Schedule>,
    /// The makespan recorded when the plan was stored.
    pub makespan_ms: f64,
    /// The scheduling pass that produced the plan, when the writer
    /// recorded it.
    pub rung: Option<PlanRung>,
    /// [`Schedule::content_digest`] of `schedule`, as recorded and
    /// verified.
    pub digest: u64,
}

#[derive(Debug)]
struct Slot {
    rec: PlanRecord,
    /// Whether `rec.plan` is known to match `rec.digest`: checked on the
    /// first read, or true from the start for the very plan a put took
    /// the digest from.  So a record is hashed at most once per process
    /// however often it is read.
    verified: bool,
}

/// A durable, content-addressed plan store over one append-only log
/// file.  See the crate docs for the format and recovery protocol.
#[derive(Debug)]
pub struct PlanStore {
    path: PathBuf,
    file: File,
    records: Vec<Slot>,
    index: HashMap<PlanKey, usize>,
    recovery: RecoveryReport,
    stats: StoreStats,
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
    pub fn open(path: impl Into<PathBuf>, _opts: StoreOptions) -> Result<PlanStore, StoreError> {
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
            records: Vec::with_capacity(payloads.len()),
            index: HashMap::new(),
            recovery,
            stats: StoreStats::default(),
        };
        for payload in payloads {
            match record::decode(&payload) {
                RecordDecode::Ok(rec) => store.admit(*rec, false),
                RecordDecode::Incompatible => store.recovery.incompatible_records += 1,
                RecordDecode::Malformed => store.recovery.records_quarantined += 1,
            }
        }
        store.recovery.records_loaded = store.records.len();
        Ok(store)
    }

    fn admit(&mut self, rec: PlanRecord, verified: bool) {
        self.index.insert(rec.key, self.records.len());
        self.records.push(Slot { rec, verified });
    }

    /// Whether record `idx`'s plan is the content its digest names.  The
    /// first call hashes the plan; the answer is kept with the record.
    fn verify(&mut self, idx: usize) -> bool {
        let slot = &mut self.records[idx];
        if !slot.verified {
            slot.verified = slot.rec.plan.content_digest() == slot.rec.digest;
        }
        slot.verified
    }

    /// Looks up `key`; `None` is a typed miss.  A present entry is
    /// served only if its plan matches the recorded content digest; a
    /// mismatch quarantines the entry and reports a miss.  This is the
    /// invariant the whole store exists to uphold: corruption can cost
    /// a warm start, it can never serve a wrong plan.
    ///
    /// The check runs on the first read of a record in this process;
    /// later reads share the verified plan.
    pub fn get_shared(&mut self, key: &PlanKey) -> Option<SharedPlan> {
        let Some(&idx) = self.index.get(key) else {
            self.stats.misses += 1;
            return None;
        };
        if !self.verify(idx) {
            self.index.remove(key);
            self.stats.quarantines += 1;
            self.stats.misses += 1;
            return None;
        }
        self.stats.hits += 1;
        let rec = &self.records[idx].rec;
        Some(SharedPlan {
            schedule: Arc::clone(&rec.plan),
            makespan_ms: rec.makespan_ms,
            rung: rec.rung,
            digest: rec.digest,
        })
    }

    /// [`PlanStore::get_shared`] with an owned copy of the schedule and
    /// without the recorded rung.
    pub fn get(&mut self, key: &PlanKey) -> Option<StoredPlan> {
        self.get_shared(key).map(|hit| StoredPlan {
            schedule: Schedule::clone(&hit.schedule),
            makespan_ms: hit.makespan_ms,
        })
    }

    /// Persists `plan` under `key` with the rung that produced it
    /// (`None`: not known): appends one checksummed frame and flushes.
    /// A put that tells the incumbent record nothing new — same
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
        self.put_with(key, plan, makespan_ms, rung, || Arc::clone(plan))
    }

    /// [`PlanStore::put_shared`] of `schedule`, rung unknown; the
    /// schedule is copied only if the put writes a record.
    pub fn put(
        &mut self,
        key: PlanKey,
        schedule: &Schedule,
        makespan_ms: f64,
    ) -> Result<PutOutcome, StoreError> {
        self.put_with(key, schedule, makespan_ms, None, || {
            Arc::new(schedule.clone())
        })
    }

    /// The put both public forms share: `plan` is hashed and checked
    /// against the incumbent record, and `share` is called for the `Arc`
    /// to keep only once a frame will be written.
    fn put_with(
        &mut self,
        key: PlanKey,
        plan: &Schedule,
        makespan_ms: f64,
        rung: Option<PlanRung>,
        share: impl FnOnce() -> Arc<Schedule>,
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
        let rec = PlanRecord {
            key,
            makespan_ms,
            digest,
            rung,
            plan: share(),
        };
        let frame = log::encode_frame(&record::encode(&rec));
        self.file
            .write_all(&frame)
            .map_err(|e| StoreError::io("append", &e))?;
        self.file.flush().map_err(|e| StoreError::io("flush", &e))?;
        self.stats.puts_full += 1;
        self.admit(rec, true);
        Ok(PutOutcome::Full)
    }

    /// Extends the serving ladder's `invalidate_stale` to the durable
    /// tier: drops every plan of `graph_fp` from a superseded
    /// intermediate epoch (`0 < epoch < current_epoch`).  Epoch-0
    /// plans survive — they are priced against the base profile a
    /// restarted process calibrates from, so they are exactly the
    /// warm-start inventory — as does the current epoch.  Dropping
    /// compacts the log (survivors rewritten with their recorded
    /// rungs) through an atomic temp + rename commit.
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

        let mut survivors: Vec<usize> = self
            .index
            .iter()
            .filter(|(k, _)| !stale.contains(k))
            .map(|(_, &i)| i)
            .collect();
        survivors.sort_unstable();
        // Verify before rewriting, so compaction never turns a record
        // whose plan no longer matches its digest into a fresh frame.
        // One that fails is dropped with a get's accounting.
        let before = survivors.len();
        survivors.retain(|&idx| self.verify(idx));
        self.stats.quarantines += (before - survivors.len()) as u64;
        let kept: Vec<PlanRecord> = survivors
            .iter()
            .map(|&idx| self.records[idx].rec.clone())
            .collect();

        let mut image = log::encode_header(STORE_FORMAT_VERSION).to_vec();
        for rec in &kept {
            image.extend_from_slice(&log::encode_frame(&record::encode(rec)));
        }
        write_atomic(&self.path, &image)?;
        self.file = open_append(&self.path)?;

        self.records.clear();
        self.index.clear();
        for rec in kept {
            self.admit(rec, true);
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

    /// Removes the directory [`scratch`] made for `log`; a test calls it
    /// once it has passed.
    fn tidy(log: &Path) {
        fs::remove_dir_all(log.parent().unwrap()).expect("remove scratch dir");
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
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        assert!(store.is_empty());
        assert_eq!(store.put(key(1, 0), &plan(3), 10.0), Ok(PutOutcome::Full));
        assert_eq!(store.get(&key(1, 0)).unwrap().schedule, plan(3));
        let before = fs::read(&path).unwrap();
        drop(store);

        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
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
        assert_eq!(store.stats().hits, 1);
        tidy(&path);
    }

    #[test]
    fn unchanged_put_writes_nothing() {
        let path = scratch("unchanged");
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        store.put(key(1, 0), &plan(3), 10.0).unwrap();
        let size = fs::metadata(&path).unwrap().len();
        assert_eq!(
            store.put(key(1, 0), &plan(3), 10.0),
            Ok(PutOutcome::Unchanged)
        );
        assert_eq!(fs::metadata(&path).unwrap().len(), size);
        tidy(&path);
    }

    #[test]
    fn invalidate_stale_purges_intermediates_keeps_base_and_current() {
        let path = scratch("epochs");
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
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

        // The compaction is durable …
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        assert_eq!(store.len(), 3);
        assert_eq!(store.get(&key(1, 3)).unwrap().schedule, plan(6));
        assert_eq!(store.get(&key(1, 0)).unwrap().schedule, plan(3));
        assert_eq!(store.stats().quarantines, 0);
        // … each under the rung it was recorded with.
        let rung = |store: &mut PlanStore, k| store.get_shared(&k).unwrap().rung;
        assert_eq!(rung(&mut store, key(1, 3)), Some(PlanRung::FullLp));
        assert_eq!(rung(&mut store, key(1, 0)), Some(PlanRung::Greedy));
        assert_eq!(rung(&mut store, key(2, 1)), None);
        tidy(&path);
    }

    #[test]
    fn a_put_that_only_names_the_rung_reaches_the_log() {
        let path = scratch("rung-only");
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        store.put(key(1, 0), &plan(3), 10.0).unwrap(); // as an older build writes it
        drop(store);

        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
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

        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        assert_eq!(store.recovery().records_loaded, 2);
        let hit = store.get_shared(&key(1, 0)).unwrap();
        assert_eq!((hit.rung, &*hit.schedule), (lp, &plan(3)));
        tidy(&path);
    }

    #[test]
    fn a_record_is_verified_once_and_then_shared() {
        // A record's digest is overwritten in memory once it is known to
        // match its plan: a store that hashed the plan again would now
        // quarantine the record, so every hit below is a read that hashed
        // nothing.
        let forget_digest = |store: &mut PlanStore, key: &PlanKey| {
            let idx = store.index[key];
            store.records[idx].rec.digest ^= 1;
        };
        let path = scratch("shared");
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        let written = Arc::new(plan(3));
        store.put_shared(key(1, 0), &written, 10.0, None).unwrap();
        store.put(key(1, 1), &plan(4), 9.0).unwrap();
        // What this process wrote it need not verify to read.
        forget_digest(&mut store, &key(1, 0));
        let hit = store.get_shared(&key(1, 0)).unwrap();
        assert!(Arc::ptr_eq(&hit.schedule, &written));
        drop(store);

        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        let first = store.get_shared(&key(1, 1)).unwrap();
        forget_digest(&mut store, &key(1, 1));
        let second = store.get_shared(&key(1, 1)).unwrap();
        assert!(Arc::ptr_eq(&first.schedule, &second.schedule));
        assert_eq!(store.get(&key(1, 1)).unwrap().schedule, plan(4));
        assert_eq!((store.stats().hits, store.stats().quarantines), (3, 0));
        tidy(&path);
    }

    #[test]
    fn a_record_corrupted_before_its_first_read_is_quarantined() {
        // A checksum-valid frame whose schedule is not the one its
        // digest names: only the first read's digest pass can tell.
        let path = scratch("first-read");
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        store.put(key(1, 0), &plan(3), 10.0).unwrap();
        drop(store);
        let forged = PlanRecord {
            key: key(2, 0),
            makespan_ms: 10.0,
            digest: plan(3).content_digest(),
            rung: Some(PlanRung::FullLp),
            plan: Arc::new(plan(4)),
        };
        let mut file = open_append(&path).unwrap();
        file.write_all(&log::encode_frame(&record::encode(&forged)))
            .unwrap();
        drop(file);

        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        assert_eq!(store.recovery().records_loaded, 2);
        assert_eq!(store.get_shared(&key(2, 0)), None);
        assert_eq!(store.get_shared(&key(2, 0)), None);
        let stats = store.stats();
        assert_eq!((stats.quarantines, stats.misses, stats.hits), (1, 2, 0));
        assert!(store.get_shared(&key(1, 0)).is_some());
        tidy(&path);
    }

    #[test]
    fn a_parent_build_log_with_a_delta_record_still_opens() {
        // Two full records, then a delta (a retired record kind) under
        // the second one's key, as builds that wrote deltas framed it.
        let path = scratch("parent-delta");
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        store.put(key(1, 0), &plan(3), 10.0).unwrap();
        store.put(key(1, 2), &plan(4), 9.0).unwrap();
        drop(store);
        let full_records = fs::read(&path).unwrap();
        let delta = record::retired_delta_payload(
            key(1, 2),
            key(1, 0),
            plan(3).content_digest(),
            plan(5).content_digest(),
            r#"{"v":1,"gpus":[[null,null],[null,[5]]]}"#,
        );
        let mut file = open_append(&path).unwrap();
        file.write_all(&log::encode_frame(&delta)).unwrap();
        drop(file);
        let with_delta = fs::read(&path).unwrap();

        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        assert_eq!(
            *store.recovery(),
            RecoveryReport {
                records_loaded: 2,
                records_quarantined: 1,
                ..RecoveryReport::default()
            }
        );
        // The delta's key serves the older full plan stored under it.
        assert_eq!(store.get(&key(1, 2)).unwrap().schedule, plan(4));
        assert_eq!(store.get(&key(1, 0)).unwrap().schedule, plan(3));
        drop(store);

        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        assert_eq!(
            fs::read(&path).unwrap(),
            with_delta,
            "reopen rewrites nothing"
        );
        assert_eq!(store.recovery().records_quarantined, 1);

        // Compaction keeps both full records and drops the delta's bytes.
        store.put(key(1, 1), &plan(6), 9.5).unwrap();
        assert_eq!(store.invalidate_stale(1, 2), Ok(1));
        assert_eq!(fs::read(&path).unwrap(), full_records);
        drop(store);
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        assert_eq!(store.recovery().records_quarantined, 0);
        assert_eq!(store.get(&key(1, 2)).unwrap().schedule, plan(4));
        tidy(&path);
    }

    #[test]
    fn header_corruption_resets_with_sidecar_not_error() {
        let path = scratch("header");
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        store.put(key(1, 0), &plan(3), 9.0).unwrap();
        drop(store);
        let mut bytes = fs::read(&path).unwrap();
        bytes[2] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
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
        tidy(&path);
    }

    #[test]
    fn repeated_corruption_never_overwrites_earlier_sidecars() {
        let path = scratch("requarantine");
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        store.put(key(1, 0), &plan(3), 9.0).unwrap();
        drop(store);
        let first = {
            let mut bytes = fs::read(&path).unwrap();
            bytes[2] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            bytes
        };
        drop(PlanStore::open(&path, StoreOptions).unwrap());

        // Second corruption of the store's lifetime: the fresh evidence
        // lands in `.quarantine.1`; `.quarantine.0` is untouched.
        let mut store = PlanStore::open(&path, StoreOptions).unwrap();
        store.put(key(2, 0), &plan(4), 9.0).unwrap();
        drop(store);
        let second = {
            let mut bytes = fs::read(&path).unwrap();
            bytes[2] ^= 0x40;
            fs::write(&path, &bytes).unwrap();
            bytes
        };
        let store = PlanStore::open(&path, StoreOptions).unwrap();
        assert!(store.recovery().reset);
        assert_eq!(
            fs::read(sibling(&path, ".quarantine.0")).unwrap(),
            first,
            "first corruption's evidence survives the second"
        );
        assert_eq!(fs::read(sibling(&path, ".quarantine.1")).unwrap(), second);
        tidy(&path);
    }

    #[test]
    fn newer_file_format_is_typed_incompatible() {
        let path = scratch("newer");
        drop(PlanStore::open(&path, StoreOptions).unwrap());
        let mut bytes = fs::read(&path).unwrap();
        bytes[8..12].copy_from_slice(&(STORE_FORMAT_VERSION + 1).to_le_bytes());
        fs::write(&path, &bytes).unwrap();
        assert_eq!(
            PlanStore::open(&path, StoreOptions).err(),
            Some(StoreError::Incompatible {
                found: STORE_FORMAT_VERSION + 1,
                supported: STORE_FORMAT_VERSION
            })
        );
        tidy(&path);
    }
}
