//! Durable, content-addressed plan store (ISSUE 7 tentpole).
//!
//! HIOS treats scheduling as an expensive step whose output is reused
//! across requests, but the serving layer's schedule cache is in-memory
//! and per-process: every restart re-pays full LP planning exactly when
//! a recovering fleet can least afford it.  This crate persists plans
//! in an append-only, checksummed record log so restarted servers
//! warm-start from the plans a previous process already computed.
//!
//! Design (DESIGN.md §9.6):
//!
//! * **Content addressing.**  Plans are keyed by [`PlanKey`] — graph
//!   fingerprint, platform fingerprint, alive-GPU mask and calibration
//!   epoch — and every record carries the
//!   [`Schedule::content_digest`](hios_core::Schedule::content_digest)
//!   of the plan it holds.  A plan is served only if its digest
//!   matches the record's; a mismatch is quarantined into a typed miss,
//!   never a wrong plan.
//! * **Append-only log, atomic commits.**  Normal puts append one
//!   checksummed frame and flush; file creation, corruption repair and
//!   compaction go through a write-to-temp + rename commit so a crash
//!   at any instant leaves either the old file or the new one.
//! * **Recovery.**  [`PlanStore::open`] scans the whole log: a torn,
//!   bit-flipped or truncated frame ends the scan and the file is
//!   repaired to the longest valid prefix (the dropped tail is saved
//!   next to the log for post-mortems); a checksum-valid record that
//!   fails to decode is skipped and counted.  Corruption never makes
//!   `open` fail — only real I/O errors and a log written by a *newer*
//!   build ([`StoreError::Incompatible`]) do.
//! * **Full plans only.**  Every record holds a whole plan.  Earlier
//!   builds could also write a *delta* record (a plan as edits against
//!   a parent plan); this build reads one as a record that fails to
//!   decode — skipped and counted in
//!   [`RecoveryReport::records_quarantined`] — so its key serves the
//!   newest full record stored under it, or misses.  The next
//!   [`PlanStore::invalidate_stale`] compaction drops its bytes.
//! * **Verify once, then share.**  The digest check runs on the
//!   *first* read of a record in a process; the record's plan is an
//!   `Arc<Schedule>` and every later
//!   [`PlanStore::get_shared`] hands out the same `Arc` — no copy, no
//!   second hash.  A plan written by this process
//!   ([`PlanStore::put_shared`]) is its own verified content.
//!   [`PlanStore::get`] / [`PlanStore::put`] are the copying, rung-less
//!   forms of the two.
//! * **The producing rung.**  A record may carry which scheduling pass
//!   computed its plan ([`PlanRung`], record tag 8), so a reader knows a
//!   stored full-LP plan is the full-LP plan without re-deriving it.
//!   The field is optional and was added **without** moving
//!   [`RECORD_FORMAT_VERSION`] or [`STORE_FORMAT_VERSION`]: record
//!   bodies are tag-length-value and every reader skips tags it does not
//!   know, so a build that predates the field serves such a log
//!   unchanged, and this build reads that build's records as "rung
//!   unknown".  A put that adds only the rung to a record that lacked it
//!   is written (not `Unchanged`), which is how an older log learns its
//!   rungs; compaction carries rungs through.  The tag table is in
//!   `record.rs`.
//! * **Epoch purge.**  [`PlanStore::invalidate_stale`] extends the
//!   serving ladder's `invalidate_stale` to the durable tier: when a
//!   model recalibrates, superseded intermediate epochs are compacted
//!   away while epoch-0 base plans survive for the next cold restart.

#![warn(missing_docs)]

mod log;
mod record;
mod store;

pub use record::{PlanKey, PlanRung, RECORD_FORMAT_VERSION};
pub use store::{
    PlanStore, PutOutcome, RecoveryReport, STORE_FORMAT_VERSION, SharedPlan, StoreError,
    StoreOptions, StoreStats, StoredPlan,
};
