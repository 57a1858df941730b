//! Record payloads: the binary TLV encoding of one stored plan.
//!
//! Payload layout (all integers little-endian):
//!
//! ```text
//! u16 version | u8 kind | ( u8 tag | u32 len | bytes )*
//! ```
//!
//! `kind` is 1, a full plan.  Kind 2 (a delta against a parent plan)
//! is **retired**, never to be reused: this build decodes it as
//! malformed, so `open` skips such a record and counts it in
//! [`RecoveryReport::records_quarantined`](crate::RecoveryReport::records_quarantined).
//!
//! | tag | field | bytes |
//! |-----|-------|-------|
//! | 1 | key ([`PlanKey`]) | 36 |
//! | 2 | makespan, `f64` bits | 8 |
//! | 3 | content digest of the plan | 8 |
//! | 4 | schedule (versioned JSON envelope) | n |
//! | 5 | retired (delta parent key) | — |
//! | 6 | retired (delta body) | — |
//! | 7 | retired (delta parent digest) | — |
//! | 8 | producing rung ([`PlanRung`]), optional | 1 |
//!
//! Tags 1–4 are in every record.  Retired tags are never reused; a
//! reader skips them like any tag it does not know.  Retiring kind 2
//! moved no format version: full records encode as they always did, so
//! a log this build writes still opens in a build that wrote deltas.
//!
//! The TLV body makes the format forward-tolerant: a reader skips tags
//! it does not know, so a future minor writer can add fields without
//! breaking this build, while a `version` beyond
//! [`RECORD_FORMAT_VERSION`] is a typed incompatibility.  Tag 8 was
//! added that way, with **no version bump**: a build that predates it
//! skips the field and serves the plan as it always did, and a record
//! without it (written by such a build, or through the rung-less
//! [`PlanStore::put`](crate::PlanStore::put)) reads as "rung unknown" —
//! so logs move between the two builds in both directions.  A rung
//! byte this build does not recognise also reads as unknown (a later
//! build may add rungs); a rung field of the wrong length is malformed.
//! The payload
//! is binary — not JSON — because the key fingerprints are full-range
//! `u64`s and the vendored JSON tree stores numbers as `f64`, which
//! silently rounds integers above 2^53.  The embedded schedule *is*
//! JSON (its fields are small integers) via its own versioned envelope.

use hios_core::ScheduleCacheKey;
use hios_core::{Schedule, ScheduleCodecError};
use serde::Value;
use std::sync::Arc;

/// Current version of the record payload format.
pub const RECORD_FORMAT_VERSION: u16 = 1;

const KIND_FULL: u8 = 1;

const TAG_KEY: u8 = 1;
const TAG_MAKESPAN: u8 = 2;
const TAG_DIGEST: u8 = 3;
const TAG_SCHEDULE: u8 = 4;
const TAG_RUNG: u8 = 8;

/// The scheduling pass that produced a stored plan — what the serving
/// ladder needs to know to not re-derive it: a recorded
/// [`PlanRung::FullLp`] plan is already the best the ladder can compute
/// for its key.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanRung {
    /// HIOS-LP with the intra-GPU pass.
    FullLp,
    /// Inter-GPU LP phase only.
    InterLp,
    /// Earliest-finish greedy list pass.
    Greedy,
}

impl PlanRung {
    fn to_byte(self) -> u8 {
        match self {
            PlanRung::FullLp => 1,
            PlanRung::InterLp => 2,
            PlanRung::Greedy => 3,
        }
    }

    fn from_byte(byte: u8) -> Option<PlanRung> {
        match byte {
            1 => Some(PlanRung::FullLp),
            2 => Some(PlanRung::InterLp),
            3 => Some(PlanRung::Greedy),
            _ => None, // a rung from a newer build: unknown to this one
        }
    }
}

/// Identity of one stored plan: the scheduling problem
/// ([`ScheduleCacheKey`] fields) plus the calibration epoch the plan
/// was priced under.  Epoch 0 is the base profile a cold-started
/// server prices against, so epoch-0 plans are the ones a restart can
/// warm-start from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Structural fingerprint of the model graph.
    pub graph_fp: u64,
    /// Platform fingerprint of the cost snapshot the plan was priced
    /// against.
    pub platform_fp: u64,
    /// Bit `i` set ⇔ GPU `i` was available when the plan was made.
    pub alive_mask: u64,
    /// Number of physical GPUs the mask ranges over.
    pub num_gpus: u32,
    /// Calibration epoch: 0 for the base profile, incremented by each
    /// in-process recalibration of the model.
    pub epoch: u64,
}

/// Encoded byte length of a [`PlanKey`].
pub(crate) const KEY_LEN: usize = 8 + 8 + 8 + 4 + 8;

impl PlanKey {
    /// Durable key for an in-memory cache key at `epoch`.
    pub fn from_cache_key(key: &ScheduleCacheKey, epoch: u64) -> PlanKey {
        PlanKey {
            graph_fp: key.graph_fp,
            platform_fp: key.platform_fp,
            alive_mask: key.alive_mask,
            num_gpus: key.num_gpus as u32,
            epoch,
        }
    }

    pub(crate) fn encode(&self) -> [u8; KEY_LEN] {
        let mut out = [0u8; KEY_LEN];
        out[0..8].copy_from_slice(&self.graph_fp.to_le_bytes());
        out[8..16].copy_from_slice(&self.platform_fp.to_le_bytes());
        out[16..24].copy_from_slice(&self.alive_mask.to_le_bytes());
        out[24..28].copy_from_slice(&self.num_gpus.to_le_bytes());
        out[28..36].copy_from_slice(&self.epoch.to_le_bytes());
        out
    }

    pub(crate) fn decode(bytes: &[u8]) -> Option<PlanKey> {
        if bytes.len() != KEY_LEN {
            return None;
        }
        Some(PlanKey {
            graph_fp: u64::from_le_bytes(bytes[0..8].try_into().ok()?),
            platform_fp: u64::from_le_bytes(bytes[8..16].try_into().ok()?),
            alive_mask: u64::from_le_bytes(bytes[16..24].try_into().ok()?),
            num_gpus: u32::from_le_bytes(bytes[24..28].try_into().ok()?),
            epoch: u64::from_le_bytes(bytes[28..36].try_into().ok()?),
        })
    }
}

/// One decoded record: a plan under its key.
#[derive(Clone, Debug, PartialEq)]
pub(crate) struct PlanRecord {
    pub key: PlanKey,
    pub makespan_ms: f64,
    /// [`Schedule::content_digest`] of `plan`, as the writer took it.
    pub digest: u64,
    /// What computed the plan; `None` when the writer did not say.
    pub rung: Option<PlanRung>,
    /// The schedule, shared with every reader it is served to.
    pub plan: Arc<Schedule>,
}

/// Outcome of decoding one checksum-valid payload.
pub(crate) enum RecordDecode {
    Ok(Box<PlanRecord>),
    /// Written by a newer build (record or schedule envelope).
    Incompatible,
    /// Structurally broken despite a valid checksum (a buggy or hostile
    /// writer, not bit rot), or of a retired kind.
    Malformed,
}

fn put_field(out: &mut Vec<u8>, tag: u8, bytes: &[u8]) {
    out.push(tag);
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// Encodes a record payload (the bytes a log frame wraps).
pub(crate) fn encode(rec: &PlanRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(128);
    out.extend_from_slice(&RECORD_FORMAT_VERSION.to_le_bytes());
    out.push(KIND_FULL);
    put_field(&mut out, TAG_KEY, &rec.key.encode());
    put_field(
        &mut out,
        TAG_MAKESPAN,
        &rec.makespan_ms.to_bits().to_le_bytes(),
    );
    put_field(&mut out, TAG_DIGEST, &rec.digest.to_le_bytes());
    let json = serde_json::to_string(&rec.plan.to_value_versioned())
        .expect("value tree serialization is infallible");
    put_field(&mut out, TAG_SCHEDULE, json.as_bytes());
    // Last and only when known, so a rung-less record is byte-identical
    // to what a build without the field writes.
    if let Some(rung) = rec.rung {
        put_field(&mut out, TAG_RUNG, &[rung.to_byte()]);
    }
    out
}

/// Decodes a payload; never panics on arbitrary bytes.
pub(crate) fn decode(payload: &[u8]) -> RecordDecode {
    if payload.len() < 3 {
        return RecordDecode::Malformed;
    }
    let version = u16::from_le_bytes(payload[0..2].try_into().expect("2 bytes"));
    if version > RECORD_FORMAT_VERSION {
        return RecordDecode::Incompatible;
    }
    if payload[2] != KIND_FULL {
        return RecordDecode::Malformed; // a retired delta, or garbage
    }

    let mut key = None;
    let mut makespan = None;
    let mut digest = None;
    let mut schedule_bytes: Option<&[u8]> = None;
    let mut rung = None;

    let mut pos = 3usize;
    while pos < payload.len() {
        if payload.len() - pos < 5 {
            return RecordDecode::Malformed;
        }
        let tag = payload[pos];
        let len =
            u32::from_le_bytes(payload[pos + 1..pos + 5].try_into().expect("4 bytes")) as usize;
        pos += 5;
        if payload.len() - pos < len {
            return RecordDecode::Malformed;
        }
        let bytes = &payload[pos..pos + len];
        pos += len;
        match tag {
            TAG_KEY => key = PlanKey::decode(bytes),
            TAG_MAKESPAN => {
                if bytes.len() != 8 {
                    return RecordDecode::Malformed;
                }
                makespan = Some(f64::from_bits(u64::from_le_bytes(
                    bytes.try_into().expect("8 bytes"),
                )));
            }
            TAG_DIGEST => {
                if bytes.len() != 8 {
                    return RecordDecode::Malformed;
                }
                digest = Some(u64::from_le_bytes(bytes.try_into().expect("8 bytes")));
            }
            TAG_SCHEDULE => schedule_bytes = Some(bytes),
            TAG_RUNG => {
                let &[byte] = bytes else {
                    return RecordDecode::Malformed;
                };
                rung = PlanRung::from_byte(byte);
            }
            _ => {} // unknown field from a newer minor writer: skip
        }
    }

    let (Some(key), Some(makespan_ms), Some(digest), Some(schedule_bytes)) =
        (key, makespan, digest, schedule_bytes)
    else {
        return RecordDecode::Malformed;
    };
    if !makespan_ms.is_finite() || makespan_ms < 0.0 {
        return RecordDecode::Malformed;
    }
    match parse_schedule(schedule_bytes) {
        Ok(plan) => RecordDecode::Ok(Box::new(PlanRecord {
            key,
            makespan_ms,
            digest,
            rung,
            plan: Arc::new(plan),
        })),
        Err(e) => e,
    }
}

fn parse_schedule(bytes: &[u8]) -> Result<Schedule, RecordDecode> {
    let text = std::str::from_utf8(bytes).map_err(|_| RecordDecode::Malformed)?;
    let value: Value = serde_json::from_str(text).map_err(|_| RecordDecode::Malformed)?;
    Schedule::from_value_versioned(&value).map_err(|e| match e {
        ScheduleCodecError::Incompatible { .. } => RecordDecode::Incompatible,
        ScheduleCodecError::Malformed(_) => RecordDecode::Malformed,
    })
}

/// A delta record (retired kind 2) byte for byte as the builds that
/// wrote them encoded it: `delta_json` is the delta envelope, the
/// makespan is 9 ms, and the record names no rung.
#[cfg(test)]
pub(crate) fn retired_delta_payload(
    key: PlanKey,
    parent: PlanKey,
    parent_digest: u64,
    digest: u64,
    delta_json: &str,
) -> Vec<u8> {
    let mut out = RECORD_FORMAT_VERSION.to_le_bytes().to_vec();
    out.push(2);
    put_field(&mut out, TAG_KEY, &key.encode());
    put_field(&mut out, TAG_MAKESPAN, &9.0f64.to_bits().to_le_bytes());
    put_field(&mut out, TAG_DIGEST, &digest.to_le_bytes());
    put_field(&mut out, 5, &parent.encode());
    put_field(&mut out, 7, &parent_digest.to_le_bytes());
    put_field(&mut out, 6, delta_json.as_bytes());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hios_graph::OpId;

    fn key(epoch: u64) -> PlanKey {
        PlanKey {
            graph_fp: 0xdead_beef_dead_beef,
            platform_fp: u64::MAX - 3, // > 2^53: exercises full u64 range
            alive_mask: 0b101,
            num_gpus: 3,
            epoch,
        }
    }

    fn plan() -> Schedule {
        Schedule::from_gpu_orders(vec![vec![OpId(0), OpId(2)], vec![OpId(1)]])
    }

    #[test]
    fn key_codec_round_trips_full_u64_range() {
        let k = key(7);
        assert_eq!(PlanKey::decode(&k.encode()), Some(k));
        assert_eq!(PlanKey::decode(&[0u8; 10]), None);
    }

    /// A delta record as the builds that wrote them encoded it: the plan
    /// of epoch 1 as one edited stage against the plan of epoch 0.
    fn parent_build_delta() -> Vec<u8> {
        let child = Schedule::from_gpu_orders(vec![vec![OpId(0), OpId(2)], vec![OpId(1), OpId(3)]]);
        retired_delta_payload(
            key(1),
            key(0),
            plan().content_digest(),
            child.content_digest(),
            r#"{"v":1,"gpus":[[null,null],[null,[3]]]}"#,
        )
    }

    #[test]
    fn full_records_round_trip() {
        let s = plan();
        let full = PlanRecord {
            key: key(0),
            makespan_ms: 12.5,
            digest: s.content_digest(),
            rung: Some(PlanRung::FullLp),
            plan: Arc::new(s),
        };
        match decode(&encode(&full)) {
            RecordDecode::Ok(rec) => assert_eq!(*rec, full),
            _ => panic!("full record must round-trip"),
        }
    }

    #[test]
    fn a_parent_build_delta_record_is_malformed() {
        // Checksum-valid and well-formed TLV, but of the retired kind.
        assert!(matches!(
            decode(&parent_build_delta()),
            RecordDecode::Malformed
        ));
    }

    #[test]
    fn unknown_fields_are_skipped_and_newer_versions_typed() {
        let s = plan();
        let full = PlanRecord {
            key: key(0),
            makespan_ms: 1.0,
            digest: s.content_digest(),
            rung: None,
            plan: Arc::new(s),
        };
        let mut extended = encode(&full);
        put_field(&mut extended, 250, b"future field");
        match decode(&extended) {
            RecordDecode::Ok(rec) => assert_eq!(*rec, full),
            _ => panic!("unknown trailing field must be tolerated"),
        }

        // The rung field: every rung round-trips, a rung byte from a
        // newer build reads as unknown, a wrong-length field is broken.
        for rung in [PlanRung::FullLp, PlanRung::InterLp, PlanRung::Greedy] {
            let ranked = PlanRecord {
                rung: Some(rung),
                ..full.clone()
            };
            match decode(&encode(&ranked)) {
                RecordDecode::Ok(rec) => assert_eq!(*rec, ranked),
                _ => panic!("ranked record must round-trip"),
            }
        }
        let mut future_rung = encode(&full);
        put_field(&mut future_rung, TAG_RUNG, &[200]);
        match decode(&future_rung) {
            RecordDecode::Ok(rec) => assert_eq!(*rec, full),
            _ => panic!("an unrecognised rung must read as unknown"),
        }
        for bad in [&[][..], &[1, 1][..]] {
            let mut wrong_len = encode(&full);
            put_field(&mut wrong_len, TAG_RUNG, bad);
            assert!(matches!(decode(&wrong_len), RecordDecode::Malformed));
        }

        let mut newer = encode(&full);
        newer[0..2].copy_from_slice(&(RECORD_FORMAT_VERSION + 1).to_le_bytes());
        assert!(matches!(decode(&newer), RecordDecode::Incompatible));
    }

    #[test]
    fn arbitrary_bytes_never_panic() {
        // A deterministic pseudo-random fuzz sweep; decode must return
        // (almost certainly Malformed) without panicking.
        let mut x = 0x1234_5678_9abc_def0u64;
        for len in 0..200usize {
            let mut bytes = Vec::with_capacity(len);
            for _ in 0..len {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                bytes.push(x as u8);
            }
            let _ = decode(&bytes);
        }
        let delta = parent_build_delta();
        for len in 0..=delta.len() {
            let _ = decode(&delta[..len]);
        }
        assert!(matches!(decode(&[]), RecordDecode::Malformed));
        assert!(matches!(
            decode(&[1, 0, KIND_FULL]),
            RecordDecode::Malformed
        ));
    }
}
