//! `restart`: crash-safe warm starts from the durable plan store
//! (`hios-store` wired through the `hios-serve` anytime ladder).
//!
//! A serving process dies and restarts.  Without a durable store every
//! restart pays full cold-start scheduling on the first dispatch of
//! every model; with `hios-store` attached the restarted ladder serves
//! LP-quality plans from the append-only plan log at store-hit cost.
//! This study replays the same seeded trace through a cold process and
//! a restarted one, across log-corruption scenarios injected between
//! the two runs:
//!
//! * `clean` — the log survives the crash intact;
//! * `truncate` — the tail record is torn mid-frame (power loss during
//!   an append);
//! * `bitflip` — a bit flips deep in the log (media corruption); the
//!   valid prefix still warm-starts the restart;
//! * `wipeout` — a bit flips in the *first* record, so recovery
//!   quarantines the whole log and the restart is effectively cold.
//!
//! Headline criteria:
//!
//! * `warm_beats_cold_everywhere` — restart p99 first-dispatch latency
//!   strictly below the cold process's in every cell with a usable
//!   prefix (`clean`, `truncate`, `bitflip`);
//! * `recovery_rate` — fraction of corruption cells where the restart
//!   detected the damage (quarantined records) and still completed
//!   every request: must be 1.0;
//! * `corrupt_plans_served` — store-rung serves in `wipeout` cells,
//!   where no stored plan is trustworthy: must be 0;
//! * `wipeout_identical` — a fully-quarantined log degrades to the
//!   cold run bit-for-bit (corruption changes *when* plans are ready,
//!   never *what* is served);
//! * `disabled_identical` — serving with an empty store attached is
//!   bit-identical to serving with no store at all.
//!
//! `--validate` turns all five headline criteria into hard assertions.

use crate::study::{Headlines, Row, Study, col, layered_tenants};
use crate::{RunCfg, Table};
use hios_serve::{
    PriorityClass, Request, Rung, ServeConfig, ServeOutcome, ServeReport, ServedModel, StoreConfig,
    serve,
};
use hios_sim::FaultPlan;
use rayon::prelude::*;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// GPUs in the serving backend.
const GPUS: usize = 3;

/// Scratch-directory uniquifier (cells run in parallel).
static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

/// What happens to the plan log between the crash and the restart.
#[derive(Clone, Copy, PartialEq)]
enum Corruption {
    /// The log survives intact.
    None,
    /// The tail record is torn mid-frame.
    TornTail,
    /// A bit flips in the final record; the prefix survives.
    BitFlip,
    /// A bit flips in the first record; nothing survives.
    Wipeout,
}

impl Corruption {
    fn name(self) -> &'static str {
        match self {
            Corruption::None => "clean",
            Corruption::TornTail => "truncate",
            Corruption::BitFlip => "bitflip",
            Corruption::Wipeout => "wipeout",
        }
    }

    /// Whether a valid log prefix (and so a warm start) must survive.
    fn prefix_survives(self) -> bool {
        !matches!(self, Corruption::Wipeout)
    }
}

/// One grid cell's outcome: the same trace served cold and after a
/// kill + corrupt + restart cycle.
struct CellOut {
    corruption: Corruption,
    cold: ServeReport,
    warm: ServeReport,
    /// p99 over per-model first-dispatch latencies, cold process.
    cold_first_p99_ms: f64,
    /// Same, restarted process.
    warm_first_p99_ms: f64,
}

impl CellOut {
    fn digest_match(&self) -> bool {
        self.warm.history_digest == self.cold.history_digest
    }

    fn row(&self) -> Row {
        let (cold, warm) = (&self.cold, &self.warm);
        vec![
            col("scenario", self.corruption.name()),
            col("requests", cold.total).json_only(),
            col("cold_first_p99_ms", self.cold_first_p99_ms)
                .dp(3)
                .csv_as("cold_first_p99"),
            col("warm_first_p99_ms", self.warm_first_p99_ms)
                .dp(3)
                .csv_as("warm_first_p99"),
            col("cold_p99_ms", cold.p99_ms).json_only(),
            col("warm_p99_ms", warm.p99_ms).json_only(),
            col("cold_goodput_rps", cold.goodput_rps).json_only(),
            col("warm_goodput_rps", warm.goodput_rps).json_only(),
            col("warm_store_hits", warm.rungs[Rung::Store.index()]).csv_as("store_hits"),
            col("warm_quarantines", warm.store.quarantines).json_only(),
            col("warm_recovered_records", warm.store_recovery.records_loaded).json_only(),
            col(
                "warm_quarantined_bytes",
                warm.store_recovery.tail_bytes_quarantined,
            )
            .csv_as("quar_bytes"),
            col("cold_puts_full", cold.store.puts_full).json_only(),
            col("cold_puts_delta", cold.store.puts_delta).json_only(),
            col("warm_completed", warm.completed)
                .csv_as("completed")
                .cell(format!("{}/{}", warm.completed, warm.total)),
            col("digest_match", self.digest_match()),
        ]
    }
}

/// The first `n` tenant models, as `(seed, ops)`.  Every DAG is large
/// enough (> 63 ops) that a store hit (0.25 ms modeled) strictly
/// undercuts even the greedy rung (0.004 ms/op), so warm-vs-cold
/// first-dispatch comparisons are strict whatever rung the cold process
/// could afford.
fn tenant_specs(n: usize) -> Vec<(u64, usize)> {
    (0..n).map(|i| (71 + i as u64, 100 + 20 * i)).collect()
}

/// The shared arrival trace: fixed 3 ms spacing, generous deadlines,
/// models round-robin.
fn trace_for(models: usize, requests: usize) -> Vec<Request> {
    (0..requests)
        .map(|i| Request {
            id: i as u64,
            model: i % models,
            arrival_ms: 3.0 * i as f64,
            deadline_ms: 3.0 * i as f64 + 500.0,
            class: PriorityClass::Gold,
        })
        .collect()
}

/// p99 over the per-model first-dispatch latencies (the cold-start
/// cost a restart is supposed to erase).
fn first_dispatch_p99(out: &ServeOutcome, models: usize) -> f64 {
    let mut firsts: Vec<f64> = Vec::with_capacity(models);
    let mut seen = vec![false; models];
    for rec in &out.records {
        if seen[rec.request.model] {
            continue;
        }
        seen[rec.request.model] = true;
        match &rec.disposition {
            hios_serve::Disposition::Completed { latency_ms, .. } => firsts.push(*latency_ms),
            other => panic!("first dispatch must complete, got {other:?}"),
        }
    }
    firsts.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let idx = ((firsts.len() as f64 * 0.99).ceil() as usize).max(1) - 1;
    firsts[idx]
}

/// Corrupt the plan log in place per the scenario.
fn inject(path: &PathBuf, corruption: Corruption) {
    if corruption == Corruption::None {
        return;
    }
    let mut bytes = fs::read(path).expect("read plan log");
    match corruption {
        Corruption::None => unreachable!(),
        // Tear the final record mid-frame: frames are >= 16 bytes, so
        // dropping 9 always leaves a torn (quarantinable) tail.
        Corruption::TornTail => {
            let keep = bytes.len() - 9;
            bytes.truncate(keep);
        }
        // Flip a payload bit inside the final record (the idle-time
        // upgrade appended last): the prefix holds every model's base
        // plan, so recovery quarantines the suffix and still warms.
        Corruption::BitFlip => {
            let at = bytes.len() - 50;
            bytes[at] ^= 0x10;
        }
        // Flip a payload bit of the *first* record (payload starts at
        // byte 32 = 16B header + 16B frame): recovery must quarantine
        // the entire log.
        Corruption::Wipeout => bytes[40] ^= 0x04,
    }
    fs::write(path, &bytes).expect("rewrite plan log");
}

/// Run one cell: cold process on a fresh log, kill, corrupt, restart.
fn run_cell(corruption: Corruption, models: &[ServedModel], trace: &[Request]) -> CellOut {
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "hios-bench-restart-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    fs::create_dir_all(&dir).expect("create scratch dir");
    let path = dir.join("plans.log");
    let mut cfg = ServeConfig::new(GPUS);
    cfg.store = Some(StoreConfig::at(&path));

    let cold = serve(models, trace, &FaultPlan::none(), &cfg).expect("cold serving run");
    inject(&path, corruption);
    let warm = serve(models, trace, &FaultPlan::none(), &cfg).expect("restarted serving run");

    let out = CellOut {
        corruption,
        cold_first_p99_ms: first_dispatch_p99(&cold, models.len()),
        warm_first_p99_ms: first_dispatch_p99(&warm, models.len()),
        cold: cold.report,
        warm: warm.report,
    };
    let _ = fs::remove_dir_all(&dir);
    out
}

/// Folds the acceptance headlines over the grid.
fn verdict(outs: &[CellOut]) -> Headlines {
    let mut beats = true;
    let mut recovered = 0usize;
    let mut corrupted = 0usize;
    let mut corrupt_served = 0u64;
    let mut wipe_identical = true;
    for o in outs {
        if o.corruption.prefix_survives() {
            if o.warm_first_p99_ms >= o.cold_first_p99_ms {
                beats = false;
            }
        } else {
            corrupt_served += o.warm.rungs[Rung::Store.index()];
            wipe_identical &= o.digest_match();
        }
        if o.corruption != Corruption::None {
            corrupted += 1;
            let rec = &o.warm.store_recovery;
            let detected = rec.records_quarantined > 0
                || rec.tail_bytes_quarantined > 0
                || rec.torn_tail
                || rec.reset;
            if o.warm.completed == o.warm.total && detected {
                recovered += 1;
            }
        }
    }
    let recovery_rate = recovered as f64 / corrupted.max(1) as f64;

    let mut h = Headlines::default();
    h.criterion(
        "warm_beats_cold_everywhere",
        beats,
        "restart p99 first-dispatch latency must strictly beat the cold process \
         in every cell with a usable log prefix",
    );
    h.metric_must(
        "recovery_rate",
        recovery_rate,
        (recovery_rate - 1.0).abs() < f64::EPSILON,
        "every corruption cell must quarantine the damage and complete all requests",
    );
    h.metric_must(
        "corrupt_plans_served",
        corrupt_served,
        corrupt_served == 0,
        "a fully-corrupted log must never serve a stored plan",
    );
    h.criterion(
        "wipeout_identical",
        wipe_identical,
        "a wiped-out log must degrade to the cold run bit-for-bit",
    );
    h
}

/// The `restart` experiment.
pub fn restart(cfg: &RunCfg) -> Table {
    let (n_models, requests, scenarios): (usize, usize, &[Corruption]) = if cfg.smoke {
        (
            2,
            24,
            &[Corruption::None, Corruption::BitFlip, Corruption::Wipeout],
        )
    } else {
        (
            3,
            48,
            &[
                Corruption::None,
                Corruption::TornTail,
                Corruption::BitFlip,
                Corruption::Wipeout,
            ],
        )
    };
    let models = layered_tenants(&tenant_specs(n_models));
    let trace = trace_for(n_models, requests);

    // The disabled-store reference: attaching an empty store must not
    // perturb serving (store misses are free on the virtual clock).
    let plain = serve(&models, &trace, &FaultPlan::none(), &ServeConfig::new(GPUS))
        .expect("store-less serving run");

    let outs: Vec<CellOut> = scenarios
        .par_iter()
        .map(|&c| run_cell(c, &models, &trace))
        .collect();
    let mut headline = verdict(&outs);
    headline.criterion(
        "disabled_identical",
        outs.iter()
            .all(|o| o.cold.history_digest == plain.report.history_digest),
        "an empty attached store must be bit-identical to no store at all",
    );

    Study::new(
        "restart",
        "Crash-safe warm starts: cold vs restarted serving across plan-log corruption",
    )
    .meta("gpus", GPUS)
    .meta("smoke", cfg.smoke)
    .finish(outs.iter().map(CellOut::row), headline, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_restart_warm_starts_and_beats_cold() {
        let models = layered_tenants(&tenant_specs(2));
        let trace = trace_for(2, 24);
        let o = run_cell(Corruption::None, &models, &trace);
        assert!(o.warm.rungs[Rung::Store.index()] >= 2, "both models warm");
        assert_eq!(o.warm.store.quarantines, 0);
        assert!(
            o.warm_first_p99_ms < o.cold_first_p99_ms,
            "warm {} must beat cold {}",
            o.warm_first_p99_ms,
            o.cold_first_p99_ms
        );
    }

    #[test]
    fn wipeout_restart_degrades_to_the_cold_run() {
        let models = layered_tenants(&tenant_specs(1));
        let trace = trace_for(1, 12);
        let o = run_cell(Corruption::Wipeout, &models, &trace);
        verdict(std::slice::from_ref(&o)).assert_hold();
    }
}
