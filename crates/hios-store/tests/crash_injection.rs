//! Crash-injection property tests (ISSUE 7 satellite).
//!
//! A log image built from real puts is damaged — truncated at an
//! arbitrary byte, bit-flipped, with duplicated or shuffled
//! (interleaved-writer) frames — and reopened.  The invariants:
//!
//! 1. `open` never panics and never fails on corruption;
//! 2. every plan served afterwards is byte-identical to a plan that
//!    was legitimately stored under that key, and carries the rung that
//!    plan was stored with — corruption may cost entries, it can never
//!    alter one;
//! 3. truncation recovers exactly the longest valid prefix: every
//!    record fully inside the cut is served, nothing beyond it is;
//! 4. recovery is self-stabilizing: a second open of the repaired file
//!    changes nothing, and the repaired log still accepts appends that
//!    survive a further reopen bit-identically.

use hios_core::Schedule;
use hios_graph::OpId;
use hios_store::{PlanKey, PlanRung, PlanStore, StoreOptions};
use proptest::prelude::*;
use std::collections::HashMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn scratch() -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "hios-store-prop-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    fs::create_dir_all(&p).expect("create scratch dir");
    p.join("plans.log")
}

/// SplitMix64: derives all corruption details from one generated seed.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, span: usize) -> usize {
        (self.next() % span.max(1) as u64) as usize
    }
}

fn key(graph_fp: u64, epoch: u64) -> PlanKey {
    PlanKey {
        graph_fp,
        platform_fp: 0xfeed_f00d_dead_beef, // > 2^53 on purpose
        alive_mask: 0b11,
        num_gpus: 2,
        epoch,
    }
}

fn plan(mix: &mut Mix, ops: u32) -> Schedule {
    // A random split of `ops` operators over two GPUs; structural
    // validity against a graph is irrelevant to the store.
    let cut = mix.below(ops as usize + 1) as u32;
    Schedule::from_gpu_orders(vec![
        (0..cut).map(OpId).collect(),
        (cut..ops).map(OpId).collect(),
    ])
}

/// What one put stored: the plan and the rung recorded with it.
type Stored = (Schedule, Option<PlanRung>);

/// One appended record: its byte range in the log and what it stored.
struct Frame {
    start: usize,
    end: usize,
    key: PlanKey,
    stored: Stored,
}

const RUNGS: [Option<PlanRung>; 4] = [
    None,
    Some(PlanRung::FullLp),
    Some(PlanRung::InterLp),
    Some(PlanRung::Greedy),
];

/// Builds a log of `n` ranked puts; returns the file path, the frames
/// actually appended and, per key, every (plan, rung) legitimately
/// stored under it.
fn build_log(mix: &mut Mix, n: usize) -> (PathBuf, Vec<Frame>, HashMap<PlanKey, Vec<Stored>>) {
    let path = scratch();
    let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
    let mut frames: Vec<Frame> = Vec::new();
    let mut legit: HashMap<PlanKey, Vec<Stored>> = HashMap::new();
    let mut size = fs::metadata(&path).unwrap().len() as usize;
    for i in 0..n {
        let k = key(1 + mix.below(3) as u64, mix.below(4) as u64);
        let ops = 4 + mix.below(8) as u32;
        let stored = (plan(mix, ops), RUNGS[mix.below(RUNGS.len())]);
        store
            .put_shared(k, &Arc::new(stored.0.clone()), 5.0 + i as f64, stored.1)
            .unwrap();
        let end = fs::metadata(&path).unwrap().len() as usize;
        if end > size {
            frames.push(Frame {
                start: size,
                end,
                key: k,
                stored: stored.clone(),
            });
        }
        size = end;
        legit.entry(k).or_default().push(stored);
    }
    (path, frames, legit)
}

/// Opens the damaged log and checks invariants 1, 2 and 4.
fn check_recovery(path: &PathBuf, legit: &HashMap<PlanKey, Vec<Stored>>) {
    let mut store = PlanStore::open(path, StoreOptions::default())
        .expect("corruption must never fail open — only typed misses are allowed");
    for (k, stored) in legit {
        if let Some(hit) = store.get_shared(k) {
            assert!(
                stored.contains(&(Schedule::clone(&hit.schedule), hit.rung)),
                "served a plan or a rung never stored under {k:?}"
            );
        }
    }
    let repaired = fs::read(path).unwrap();

    // Self-stabilization: reopening the repaired file is a no-op.
    drop(store);
    let mut store = PlanStore::open(path, StoreOptions::default()).unwrap();
    assert_eq!(
        fs::read(path).unwrap(),
        repaired,
        "second open of a repaired log must not rewrite it"
    );
    assert!(!store.recovery().torn_tail, "repair must be complete");

    // The repaired log accepts appends that survive a reopen
    // bit-identically.
    let fresh_key = key(99, 0);
    let fresh = Schedule::from_gpu_orders(vec![vec![OpId(0)], vec![OpId(1), OpId(2)]]);
    store.put(fresh_key, &fresh, 1.25).unwrap();
    let appended = fs::read(path).unwrap();
    drop(store);
    let mut store = PlanStore::open(path, StoreOptions::default()).unwrap();
    assert_eq!(fs::read(path).unwrap(), appended);
    let hit = store
        .get(&fresh_key)
        .expect("fresh append must be servable");
    assert_eq!(hit.schedule, fresh);
    assert_eq!(hit.makespan_ms, 1.25);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn truncation_recovers_exactly_the_valid_prefix((seed, n) in (0u64..u64::MAX, 2usize..10)) {
        let mut mix = Mix(seed);
        let (path, frames, legit) = build_log(&mut mix, n);
        let bytes = fs::read(&path).unwrap();
        let cut = mix.below(bytes.len() + 1);
        fs::write(&path, &bytes[..cut]).unwrap();

        check_recovery(&path, &legit);

        // The longest valid prefix, exactly: per key, the last record
        // fully inside the cut must be served verbatim; keys whose
        // every record was torn off must miss.
        let mut expect: HashMap<PlanKey, &Stored> = HashMap::new();
        for f in frames.iter().filter(|f| f.end <= cut) {
            expect.insert(f.key, &f.stored);
        }
        let mut store = PlanStore::open(&path, StoreOptions::default()).unwrap();
        for k in legit.keys() {
            match (store.get_shared(k), expect.get(k)) {
                (Some(hit), Some(want)) => {
                    prop_assert_eq!((&*hit.schedule, hit.rung), (&want.0, want.1))
                }
                (None, None) => {}
                (Some(_), None) => prop_assert!(false, "served {k:?} with no surviving record"),
                (None, Some(_)) => prop_assert!(false, "record inside the valid prefix for {k:?} must be served"),
            }
        }
    }

    #[test]
    fn bit_flips_never_surface_an_altered_plan((seed, n, flips) in (0u64..u64::MAX, 2usize..10, 1usize..4)) {
        let mut mix = Mix(seed);
        let (path, _, legit) = build_log(&mut mix, n);
        let mut bytes = fs::read(&path).unwrap();
        for _ in 0..flips {
            let at = mix.below(bytes.len());
            bytes[at] ^= 1 << mix.below(8);
        }
        fs::write(&path, &bytes).unwrap();
        check_recovery(&path, &legit);
    }

    #[test]
    fn duplicate_and_interleaved_records_resolve_deterministically((seed, n) in (0u64..u64::MAX, 3usize..10)) {
        let mut mix = Mix(seed);
        let (path, frames, legit) = build_log(&mut mix, n);
        if frames.is_empty() {
            return Ok(());
        }
        let bytes = fs::read(&path).unwrap();
        let header_end = frames[0].start;

        // Re-emit every frame in a deterministically shuffled order,
        // then duplicate one — the image two interleaved writers (or a
        // replayed append) would leave.  Every frame is checksum-valid,
        // so recovery must load them all; a delta whose parent now
        // resolves to a different plan digest-mismatches into a typed
        // miss rather than a wrong plan.
        let mut order: Vec<usize> = (0..frames.len()).collect();
        for i in (1..order.len()).rev() {
            order.swap(i, mix.below(i + 1));
        }
        let mut image = bytes[..header_end].to_vec();
        for &i in &order {
            image.extend_from_slice(&bytes[frames[i].start..frames[i].end]);
        }
        let dup = &frames[mix.below(frames.len())];
        image.extend_from_slice(&bytes[dup.start..dup.end]);
        fs::write(&path, &image).unwrap();

        check_recovery(&path, &legit);
    }

    #[test]
    fn repeated_corruption_accumulates_distinct_sidecars((seed, n, rounds) in (0u64..u64::MAX, 2usize..8, 2usize..5)) {
        // Quarantine sidecars are numbered `.quarantine.0, .1, …` per
        // log path: across repeated corruption/recovery cycles every
        // round's evidence must land in a fresh slot, numbered
        // contiguously, with earlier sidecars byte-identical forever.
        let mut mix = Mix(seed);
        let (path, _, _) = build_log(&mut mix, n);
        let dir = path.parent().unwrap().to_path_buf();
        let log_name = path.file_name().unwrap().to_str().unwrap().to_string();
        let sidecars = |dir: &PathBuf| -> Vec<(u64, Vec<u8>)> {
            let mut out = Vec::new();
            for entry in fs::read_dir(dir).unwrap() {
                let p = entry.unwrap().path();
                let name = p.file_name().unwrap().to_str().unwrap();
                if let Some(idx) = name.strip_prefix(&format!("{log_name}.quarantine.")) {
                    out.push((idx.parse::<u64>().expect("numeric sidecar suffix"), fs::read(&p).unwrap()));
                }
            }
            out.sort_by_key(|(i, _)| *i);
            out
        };

        let mut before = sidecars(&dir);
        prop_assert!(before.is_empty());
        for round in 0..rounds {
            // Alternate damage: mangle the header (whole-file
            // quarantine) or tear the tail mid-byte.
            let bytes = fs::read(&path).unwrap();
            if mix.below(2) == 0 {
                let mut bytes = bytes;
                bytes[2 + mix.below(6)] ^= 0x40;
                fs::write(&path, &bytes).unwrap();
            } else {
                let cut = mix.below(bytes.len()) + 1;
                fs::write(&path, &bytes[..cut]).unwrap();
            }
            let mut store = PlanStore::open(&path, StoreOptions::default())
                .expect("corruption must never fail open");
            let quarantined = store.recovery().reset || store.recovery().torn_tail;
            // Keep the log non-trivial for the next round.
            let s = plan(&mut mix, 5);
            store.put(key(50 + round as u64, 0), &s, 1.0).unwrap();
            drop(store);

            let after = sidecars(&dir);
            for (i, (idx, data)) in before.iter().enumerate() {
                // Numbering is contiguous and old evidence immutable.
                prop_assert_eq!(*idx, i as u64);
                prop_assert_eq!(&after[i].1, data);
            }
            // A quarantining recovery adds exactly one sidecar.
            let want = before.len() + usize::from(quarantined);
            prop_assert_eq!(after.len(), want);
            before = after;
        }
    }
}
