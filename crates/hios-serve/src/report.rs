//! Serving-run statistics: latency percentiles, miss/shed rates,
//! goodput, and a history digest for bit-identity checks.
//!
//! ISSUE 8 adds per-SLO-class breakdowns ([`ClassStats`]) and the
//! overload-controller telemetry (brownout timeline, shed and
//! retry-budget counters, flap escalations).

use crate::brownout::BrownoutTelemetry;
use crate::request::{Disposition, PriorityClass, RequestRecord, ShedReason};
use hios_graph::hash::Fnv;
use hios_store::{RecoveryReport, StoreStats};

/// Per-priority-class outcome statistics.
///
/// Empty aggregates report `0.0` (not NaN) so reports stay comparable
/// with `==` — the bit-identity tests rely on it.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ClassStats {
    /// Requests of this class in the trace.
    pub total: usize,
    /// Completions.
    pub completed: usize,
    /// On-time completions.
    pub on_time: usize,
    /// Sheds (any reason).
    pub shed: usize,
    /// 99th-percentile completion latency, ms (0 with no completions).
    pub p99_ms: f64,
    /// Misses (late + shed) over the class total (0 for an absent
    /// class).
    pub miss_rate: f64,
    /// On-time completions per second of virtual horizon.
    pub goodput_rps: f64,
}

/// Aggregate statistics of one serving run.
#[derive(Clone, Debug, PartialEq)]
pub struct ServeReport {
    /// Requests in the trace.
    pub total: usize,
    /// Requests that passed admission at arrival.
    pub admitted: usize,
    /// Requests that ran to completion.
    pub completed: usize,
    /// Completions that met their deadline.
    pub on_time: usize,
    /// Sheds because the queue was full.
    pub shed_queue: usize,
    /// Sheds because the bound proved the deadline unmeetable.
    pub shed_deadline: usize,
    /// Sheds because retries ran out.
    pub shed_retries: usize,
    /// Sheds by the brownout controller (class refused at the level).
    pub shed_brownout: usize,
    /// Sheds because the global retry budget denied a retry.
    pub shed_retry_budget: usize,
    /// Deadline misses (late completions + every shed), as a fraction
    /// of the trace.
    pub miss_rate: f64,
    /// Shed fraction of the trace.
    pub shed_rate: f64,
    /// Median end-to-end latency of completions, ms (0 with none, like
    /// the three below, so reports stay comparable with `==`).
    pub p50_ms: f64,
    /// 95th-percentile latency, ms.
    pub p95_ms: f64,
    /// 99th-percentile latency, ms.
    pub p99_ms: f64,
    /// Mean latency of completions, ms.
    pub mean_ms: f64,
    /// On-time completions per second of virtual horizon.
    pub goodput_rps: f64,
    /// Virtual instant of the last event processed, ms.
    pub horizon_ms: f64,
    /// Total execution attempts across all requests.
    pub attempts: u64,
    /// In-place schedule repairs applied.
    pub repairs: u64,
    /// Breaker opens across all GPUs.
    pub breaker_opens: u64,
    /// Schedule-cache `(hits, misses)`.
    pub cache: (u64, u64),
    /// Dispatches per ladder rung
    /// `[cached, store, full-lp, inter-lp, greedy]`.
    pub rungs: [u64; 5],
    /// Idle-time upgrade passes run.
    pub upgrades: u64,
    /// Drift alarms raised by the online calibrator (0 when calibration
    /// is off).
    pub drift_alarms: u64,
    /// Planning-overlay rebuilds that actually changed planning prices.
    pub recalibrations: u64,
    /// Schedule-cache entries purged because a recalibration made their
    /// platform fingerprint stale.
    pub cache_invalidations: u64,
    /// Entries evicted from the bounded schedule cache (LRU).
    pub cache_evictions: u64,
    /// Durable plan-store counters: hits, misses, quarantines, puts,
    /// purges.  All zero when no store is attached.
    pub store: StoreStats,
    /// What opening the plan log found and repaired (all zero when no
    /// store is attached or the log was pristine).
    pub store_recovery: RecoveryReport,
    /// Store put/purge I/O failures absorbed during serving (each
    /// costs a warm start, never a request).
    pub store_io_errors: u64,
    /// Per-class outcome breakdown, indexed by
    /// [`crate::request::PriorityClass::index`].
    pub class_stats: [ClassStats; 3],
    /// Retries denied by the global retry budget (each denial sheds the
    /// request).
    pub retry_budget_denied: u64,
    /// Breaker quarantine escalations triggered by flap detection.
    pub flap_escalations: u64,
    /// Brownout-controller telemetry (empty timeline when no controller
    /// is attached).
    pub brownout: BrownoutTelemetry,
    /// [`history_digest`] of the full outcome stream; equal digests ⇒
    /// bit-identical serving histories.
    pub history_digest: u64,
}

/// Position of the nearest-rank `p`-th percentile among `n >= 1` values
/// in ascending order: the smallest with at least `p`·n at or below it.
fn rank_index(n: usize, p: f64) -> usize {
    let rank = (p * n as f64).ceil() as usize;
    rank.clamp(1, n) - 1
}

/// The nearest-rank `p`-th percentile of `values` in any order, by
/// selection instead of a sort; 0 (not NaN) for no values.  `total_cmp`
/// is a total order in which equal means bit-equal, so the value at a
/// rank is the same bits whichever way it is reached.
fn percentile_unsorted(values: &mut [f64], p: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let at = rank_index(values.len(), p);
    *values.select_nth_unstable_by(at, f64::total_cmp).1
}

/// Ascending runs (by `total_cmp`) merged into one ascending stream.
/// Values equal under `total_cmp` are bit-equal, so the stream is the
/// bits one sort of the union would give, whichever run yields a tie.
struct Merged<'a>([&'a [f64]; 3]);

impl Iterator for Merged<'_> {
    type Item = f64;

    fn next(&mut self) -> Option<f64> {
        let mut least: Option<(usize, f64)> = None;
        for (k, run) in self.0.iter().enumerate() {
            if let Some(&x) = run.first() {
                if least.is_none_or(|(_, y)| x.total_cmp(&y).is_lt()) {
                    least = Some((k, x));
                }
            }
        }
        let (k, x) = least?;
        self.0[k] = &self.0[k][1..];
        Some(x)
    }
}

/// Run-wide latency figures of a [`ServeReport`], all 0 with no
/// completions.
#[derive(Default)]
struct RunLatency {
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    mean_ms: f64,
}

/// Fraction of `total` requests not among the `kept` ones (`0` — not
/// NaN — for an empty total, so reports stay comparable with `==`).
fn lost_fraction(total: usize, kept: usize) -> f64 {
    if total == 0 {
        0.0
    } else {
        (total - kept) as f64 / total as f64
    }
}

/// Folds a cluster-level shed reason into a history digest as its
/// stable code.
pub(crate) fn eat_shed(h: &mut Fnv, reason: &ShedReason) {
    h.write_u64(match reason {
        ShedReason::QueueFull { .. } => 10,
        ShedReason::DeadlineUnmeetable { .. } => 11,
        ShedReason::RetriesExhausted { .. } => 12,
        ShedReason::Brownout { .. } => 13,
        ShedReason::RetryBudgetExhausted { .. } => 14,
    });
}

/// Digest of the per-request outcome stream: the identity hash ([`Fnv`],
/// over little-endian words), shared with the fleet's digest.
pub fn history_digest(records: &[RequestRecord]) -> u64 {
    let mut h = Fnv::new();
    for r in records {
        h.write_u64(r.request.id);
        match &r.disposition {
            Disposition::Completed {
                finish_ms,
                latency_ms,
                attempts,
                met_deadline,
                repairs,
            } => {
                h.write_u64(1);
                h.write_u64(finish_ms.to_bits());
                h.write_u64(latency_ms.to_bits());
                h.write_u64(u64::from(*attempts));
                h.write_u64(u64::from(*met_deadline));
                h.write_u64(u64::from(*repairs));
            }
            Disposition::Shed { at_ms, reason } => {
                h.write_u64(2);
                h.write_u64(at_ms.to_bits());
                eat_shed(&mut h, reason);
            }
        }
    }
    h.finish()
}

/// Per-class outcome fold shared by [`summarize`] and the fleet report:
/// one `note_*` call per terminal outcome, then [`OutcomeFold::finish`].
#[derive(Default)]
pub(crate) struct OutcomeFold {
    stats: [ClassStats; 3],
    latencies: [Vec<f64>; 3],
}

/// What [`OutcomeFold::finish`] yields: the per-class breakdown plus the
/// run-wide aggregates both reports derive from it.
pub(crate) struct OutcomeTotals {
    pub(crate) class_stats: [ClassStats; 3],
    pub(crate) total: usize,
    pub(crate) completed: usize,
    pub(crate) on_time: usize,
    pub(crate) miss_rate: f64,
    pub(crate) goodput_rps: f64,
}

impl OutcomeFold {
    pub(crate) fn note_completed(&mut self, class: PriorityClass, latency_ms: f64, met: bool) {
        let s = &mut self.stats[class.index()];
        s.total += 1;
        s.completed += 1;
        s.on_time += usize::from(met);
        self.latencies[class.index()].push(latency_ms);
    }

    pub(crate) fn note_shed(&mut self, class: PriorityClass) {
        let s = &mut self.stats[class.index()];
        s.total += 1;
        s.shed += 1;
    }

    pub(crate) fn finish(&mut self, horizon_ms: f64) -> OutcomeTotals {
        let goodput_rps = |on_time: usize| {
            if horizon_ms > 0.0 {
                on_time as f64 / (horizon_ms / 1000.0)
            } else {
                0.0
            }
        };
        for (stats, lat) in self.stats.iter_mut().zip(&mut self.latencies) {
            stats.p99_ms = percentile_unsorted(lat, 0.99);
            // Misses are late completions plus every shed.
            stats.miss_rate = lost_fraction(stats.total, stats.on_time);
            stats.goodput_rps = goodput_rps(stats.on_time);
        }
        let sum = |f: fn(&ClassStats) -> usize| self.stats.iter().map(f).sum::<usize>();
        let (total, completed, on_time) =
            (sum(|s| s.total), sum(|s| s.completed), sum(|s| s.on_time));
        OutcomeTotals {
            class_stats: self.stats,
            total,
            completed,
            on_time,
            miss_rate: lost_fraction(total, on_time),
            goodput_rps: goodput_rps(on_time),
        }
    }

    /// Percentiles and mean over every class's completions.  Each class's
    /// latencies are sorted in place and read in one merged ascending
    /// pass, so no latency is copied: the mean sums them in the order one
    /// sort of them all would give, and so to the same bits.
    fn run_latency(&mut self) -> RunLatency {
        for lat in &mut self.latencies {
            // Unstable is exact here: equal under `total_cmp` is bit-equal.
            lat.sort_unstable_by(f64::total_cmp);
        }
        let n = self.latencies.iter().map(Vec::len).sum();
        if n == 0 {
            return RunLatency::default();
        }
        let ranks = [0.50, 0.95, 0.99].map(|p| rank_index(n, p));
        let mut at_rank = [0.0; 3];
        let sum: f64 = Merged(self.latencies.each_ref().map(Vec::as_slice))
            .enumerate()
            .map(|(i, x)| {
                for (value, &rank) in at_rank.iter_mut().zip(&ranks) {
                    if i == rank {
                        *value = x;
                    }
                }
                x
            })
            .sum();
        let [p50_ms, p95_ms, p99_ms] = at_rank;
        RunLatency {
            p50_ms,
            p95_ms,
            p99_ms,
            mean_ms: sum / n as f64,
        }
    }
}

/// Builder-style inputs [`summarize`] folds into a [`ServeReport`].
pub struct ReportInputs {
    /// Virtual horizon of the run, ms.
    pub horizon_ms: f64,
    /// Total execution attempts.
    pub attempts: u64,
    /// Total in-place repairs.
    pub repairs: u64,
    /// Total breaker opens.
    pub breaker_opens: u64,
    /// Schedule-cache `(hits, misses)`.
    pub cache: (u64, u64),
    /// Per-rung dispatch counts.
    pub rungs: [u64; 5],
    /// Idle upgrade passes.
    pub upgrades: u64,
    /// Drift alarms raised.
    pub drift_alarms: u64,
    /// Planning-overlay rebuilds that changed prices.
    pub recalibrations: u64,
    /// Cache entries purged by recalibration.
    pub cache_invalidations: u64,
    /// Bounded-cache LRU evictions.
    pub cache_evictions: u64,
    /// Durable plan-store counters.
    pub store: StoreStats,
    /// Plan-log open-time recovery summary.
    pub store_recovery: RecoveryReport,
    /// Absorbed store I/O failures.
    pub store_io_errors: u64,
    /// Retries denied by the global retry budget.
    pub retry_budget_denied: u64,
    /// Flap-detection quarantine escalations.
    pub flap_escalations: u64,
    /// Brownout telemetry (default/empty without a controller).
    pub brownout: BrownoutTelemetry,
}

/// Folds per-request records and loop counters into a report.
pub fn summarize(records: &[RequestRecord], inputs: &ReportInputs) -> ServeReport {
    let mut fold = OutcomeFold::default();
    let mut admitted = 0usize;
    let (mut shed_queue, mut shed_deadline, mut shed_retries) = (0usize, 0usize, 0usize);
    let (mut shed_brownout, mut shed_retry_budget) = (0usize, 0usize);
    for r in records {
        match &r.disposition {
            Disposition::Completed {
                latency_ms,
                met_deadline,
                ..
            } => {
                admitted += 1;
                fold.note_completed(r.request.class, *latency_ms, *met_deadline);
            }
            Disposition::Shed { reason, .. } => {
                fold.note_shed(r.request.class);
                match reason {
                    ShedReason::QueueFull { .. } => shed_queue += 1,
                    ShedReason::DeadlineUnmeetable { .. } => shed_deadline += 1,
                    ShedReason::RetriesExhausted { .. } => {
                        // Was admitted, then failed out.
                        admitted += 1;
                        shed_retries += 1;
                    }
                    ShedReason::Brownout { .. } => shed_brownout += 1,
                    ShedReason::RetryBudgetExhausted { .. } => {
                        // Was admitted, then failed out of budget.
                        admitted += 1;
                        shed_retry_budget += 1;
                    }
                }
            }
        }
    }
    let f = fold.finish(inputs.horizon_ms);
    let latency = fold.run_latency();
    ServeReport {
        total: f.total,
        admitted,
        completed: f.completed,
        on_time: f.on_time,
        shed_queue,
        shed_deadline,
        shed_retries,
        shed_brownout,
        shed_retry_budget,
        miss_rate: f.miss_rate,
        shed_rate: lost_fraction(f.total, f.completed),
        p50_ms: latency.p50_ms,
        p95_ms: latency.p95_ms,
        p99_ms: latency.p99_ms,
        mean_ms: latency.mean_ms,
        goodput_rps: f.goodput_rps,
        horizon_ms: inputs.horizon_ms,
        attempts: inputs.attempts,
        repairs: inputs.repairs,
        breaker_opens: inputs.breaker_opens,
        cache: inputs.cache,
        rungs: inputs.rungs,
        upgrades: inputs.upgrades,
        drift_alarms: inputs.drift_alarms,
        recalibrations: inputs.recalibrations,
        cache_invalidations: inputs.cache_invalidations,
        cache_evictions: inputs.cache_evictions,
        store: inputs.store,
        store_recovery: inputs.store_recovery,
        store_io_errors: inputs.store_io_errors,
        class_stats: f.class_stats,
        retry_budget_denied: inputs.retry_budget_denied,
        flap_escalations: inputs.flap_escalations,
        brownout: inputs.brownout.clone(),
        history_digest: history_digest(records),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{PriorityClass, Request};
    use proptest::prelude::*;
    use proptest::test_runner::TestRng;

    fn rec_class(id: u64, class: PriorityClass, disposition: Disposition) -> RequestRecord {
        RequestRecord {
            request: Request {
                id,
                model: 0,
                arrival_ms: 0.0,
                deadline_ms: 100.0,
                class,
            },
            disposition,
        }
    }

    fn rec(id: u64, disposition: Disposition) -> RequestRecord {
        rec_class(id, PriorityClass::Gold, disposition)
    }

    fn done(id: u64, latency: f64, met: bool) -> RequestRecord {
        rec(
            id,
            Disposition::Completed {
                finish_ms: latency,
                latency_ms: latency,
                attempts: 1,
                met_deadline: met,
                repairs: 0,
            },
        )
    }

    fn inputs() -> ReportInputs {
        ReportInputs {
            horizon_ms: 1000.0,
            attempts: 0,
            repairs: 0,
            breaker_opens: 0,
            cache: (0, 0),
            rungs: [0; 5],
            upgrades: 0,
            drift_alarms: 0,
            recalibrations: 0,
            cache_invalidations: 0,
            cache_evictions: 0,
            store: StoreStats {
                hits: 0,
                misses: 0,
                quarantines: 0,
                puts_full: 0,
                puts_delta: 0,
                invalidated: 0,
            },
            store_recovery: RecoveryReport {
                records_loaded: 0,
                records_quarantined: 0,
                incompatible_records: 0,
                tail_bytes_quarantined: 0,
                torn_tail: false,
                reset: false,
            },
            store_io_errors: 0,
            retry_budget_denied: 0,
            flap_escalations: 0,
            brownout: BrownoutTelemetry::default(),
        }
    }

    /// The `p`-th percentile of `sorted` as one sort of every value reads
    /// it: the oracle for selection and for the merged pass.
    fn percentile(sorted: &[f64], p: f64) -> f64 {
        sorted[rank_index(sorted.len(), p)]
    }

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut xs: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile_unsorted(&mut xs, 0.50), 50.0);
        assert_eq!(percentile_unsorted(&mut xs, 0.95), 95.0);
        assert_eq!(percentile_unsorted(&mut xs, 0.99), 99.0);
        assert_eq!(percentile_unsorted(&mut [7.0], 0.99), 7.0);
        assert_eq!(percentile_unsorted(&mut [], 0.5), 0.0);
    }

    #[test]
    fn a_report_without_completions_is_equal_to_itself() {
        let shed = |id| {
            rec(
                id,
                Disposition::Shed {
                    at_ms: 1.0,
                    reason: ShedReason::QueueFull { capacity: 1 },
                },
            )
        };
        let r = summarize(&[shed(0), shed(1)], &inputs());
        assert_eq!(
            (r.p50_ms, r.p95_ms, r.p99_ms, r.mean_ms),
            (0.0, 0.0, 0.0, 0.0)
        );
        assert_eq!(r, r.clone());
    }

    #[test]
    fn summary_counts_and_rates() {
        let records = vec![
            done(0, 10.0, true),
            done(1, 30.0, true),
            done(2, 200.0, false),
            rec(
                3,
                Disposition::Shed {
                    at_ms: 5.0,
                    reason: ShedReason::QueueFull { capacity: 2 },
                },
            ),
        ];
        let r = summarize(&records, &inputs());
        assert_eq!((r.total, r.admitted, r.completed, r.on_time), (4, 3, 3, 2));
        assert_eq!(r.shed_queue, 1);
        assert_eq!(r.miss_rate, 0.5); // one late + one shed
        assert_eq!(r.shed_rate, 0.25);
        assert_eq!(r.goodput_rps, 2.0);
        assert_eq!(r.p50_ms, 30.0);
        // All-Gold records: class stats mirror the aggregate.
        let gold = r.class_stats[0];
        assert_eq!((gold.total, gold.completed, gold.on_time), (4, 3, 2));
        assert_eq!(gold.miss_rate, 0.5);
        assert_eq!(gold.goodput_rps, 2.0);
        // Absent classes report zeros, never NaN.
        assert_eq!(r.class_stats[1], ClassStats::default());
        assert_eq!(r.class_stats[2].p99_ms, 0.0);
    }

    #[test]
    fn class_stats_split_by_priority() {
        use PriorityClass::*;
        let records = vec![
            rec_class(
                0,
                Gold,
                Disposition::Completed {
                    finish_ms: 10.0,
                    latency_ms: 10.0,
                    attempts: 1,
                    met_deadline: true,
                    repairs: 0,
                },
            ),
            rec_class(
                1,
                Bronze,
                Disposition::Shed {
                    at_ms: 1.0,
                    reason: ShedReason::Brownout { level: 2 },
                },
            ),
            rec_class(
                2,
                Silver,
                Disposition::Shed {
                    at_ms: 2.0,
                    reason: ShedReason::RetryBudgetExhausted {
                        attempts: 2,
                        last_error: Box::new(crate::request::ServeError::NoCapacity),
                    },
                },
            ),
        ];
        let r = summarize(&records, &inputs());
        assert_eq!(r.shed_brownout, 1);
        assert_eq!(r.shed_retry_budget, 1);
        // Retry-budget sheds were admitted first; brownout sheds never
        // were.
        assert_eq!(r.admitted, 2);
        assert_eq!(r.shed_rate, 2.0 / 3.0);
        assert_eq!(r.class_stats[0].on_time, 1);
        assert_eq!(r.class_stats[1].shed, 1);
        assert_eq!(r.class_stats[2].shed, 1);
        assert_eq!(r.class_stats[2].miss_rate, 1.0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The percentile read by selection is the bits a full sort puts
        /// at that rank — over samples thick with duplicates, both zeros
        /// and sub-normals, where `total_cmp` and `<` disagree.
        #[test]
        fn selection_reads_the_percentile_a_sort_reads(
            (seed, n) in (0u64..u64::MAX, 1usize..=300)
        ) {
            let values = latencies(&mut TestRng::for_case("selection", seed), n);
            let mut sorted = values.clone();
            sorted.sort_by(f64::total_cmp);
            for p in [0.5, 0.95, 0.99] {
                let mut scratch = values.clone();
                prop_assert_eq!(
                    percentile_unsorted(&mut scratch, p).to_bits(),
                    percentile(&sorted, p).to_bits()
                );
            }
        }

        /// A report is a function of the multiset of outcomes: records
        /// in a shuffled order give the report their sorted order gives
        /// (all but the digest, which hashes the stream in order).
        #[test]
        fn reports_do_not_depend_on_record_order(
            (seed, n) in (0u64..u64::MAX, 1usize..=200)
        ) {
            let mut rng = TestRng::for_case("record-order", seed);
            let mut sorted: Vec<RequestRecord> = latencies(&mut rng, n)
                .into_iter()
                .enumerate()
                .map(|(i, latency)| {
                    let class = PriorityClass::from_index(rng.below(3) as usize);
                    let disposition = if rng.below(5) == 0 {
                        Disposition::Shed {
                            at_ms: latency,
                            reason: ShedReason::QueueFull { capacity: 4 },
                        }
                    } else {
                        Disposition::Completed {
                            finish_ms: latency,
                            latency_ms: latency,
                            attempts: 1,
                            met_deadline: rng.below(4) != 0,
                            repairs: 0,
                        }
                    };
                    rec_class(i as u64, class, disposition)
                })
                .collect();
            let latency_of = |r: &RequestRecord| match r.disposition {
                Disposition::Completed { latency_ms, .. } => latency_ms,
                Disposition::Shed { at_ms, .. } => at_ms,
            };
            sorted.sort_by(|a, b| latency_of(a).total_cmp(&latency_of(b)));
            let mut shuffled = sorted.clone();
            for i in (1..shuffled.len()).rev() {
                shuffled.swap(i, rng.below(i as u64 + 1) as usize);
            }
            let of_sorted = summarize(&sorted, &inputs());
            let of_shuffled = ServeReport {
                history_digest: of_sorted.history_digest,
                ..summarize(&shuffled, &inputs())
            };
            prop_assert_eq!(of_shuffled, of_sorted);
        }

        /// The run-wide figures read off the per-class runs are the bits
        /// one sort of every latency gives: each percentile at its rank,
        /// and the mean summed in ascending order.
        #[test]
        fn merged_classes_read_what_one_sort_reads(
            (seed, n) in (0u64..u64::MAX, 1usize..=300)
        ) {
            let mut rng = TestRng::for_case("merged", seed);
            let mut all = latencies(&mut rng, n);
            let mut fold = OutcomeFold::default();
            for &x in &all {
                fold.note_completed(PriorityClass::from_index(rng.below(3) as usize), x, true);
            }
            let got = fold.run_latency();
            all.sort_by(f64::total_cmp);
            for (p, got) in [(0.50, got.p50_ms), (0.95, got.p95_ms), (0.99, got.p99_ms)] {
                prop_assert_eq!(got.to_bits(), percentile(&all, p).to_bits());
            }
            let mean = all.iter().sum::<f64>() / n as f64;
            prop_assert_eq!(got.mean_ms.to_bits(), mean.to_bits());
        }
    }

    /// `n` latencies: a third from a small pool (duplicates, `±0.0`,
    /// sub-normals), the rest uniform.
    fn latencies(rng: &mut TestRng, n: usize) -> Vec<f64> {
        const POOL: [f64; 7] = [
            0.0,
            -0.0,
            5e-324,
            f64::MIN_POSITIVE / 4.0,
            1.5,
            1.5000000000000002,
            97.25,
        ];
        (0..n)
            .map(|_| {
                if rng.below(3) == 0 {
                    POOL[rng.below(POOL.len() as u64) as usize]
                } else {
                    100.0 * rng.unit_f64()
                }
            })
            .collect()
    }

    #[test]
    fn digest_distinguishes_histories() {
        let a = vec![done(0, 10.0, true)];
        let b = vec![done(0, 10.5, true)];
        assert_eq!(history_digest(&a), history_digest(&a));
        assert_ne!(history_digest(&a), history_digest(&b));
    }
}
