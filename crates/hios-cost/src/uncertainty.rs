//! Online cost calibration and drift detection.
//!
//! The profiled [`CostTable`] is the single largest lie in a production
//! deployment: contention, clock throttling and thermal effects make the
//! measured latency of an operator drift away from its profile without any
//! discrete fault to point at.  This module closes the loop.  Every
//! completed request yields one *observation* per operator — the ratio of
//! the duration the simulator (standing in for the hardware) actually took
//! to the duration the static profile predicted — and three cooperating
//! pieces turn those ratios back into planning prices:
//!
//! * `OnlineStats` — a per-(GPU, op) EWMA of the ratio's mean and
//!   variance.  The update is `mean += α·(r − mean)`, so a stream of
//!   exactly-nominal observations (`r = 1.0`) leaves the mean at *exactly*
//!   `1.0` and the variance at `0.0` — the bit-identity anchor for the
//!   no-drift path.  Nominal observations arrive in batches
//!   ([`Calibrator::observe_nominal`]): once a cell's bits stop moving
//!   under them, a batch of any size changes nothing.
//! * `CusumDetector` — a two-sided CUSUM over `r − 1` that flags
//!   *sustained* drift while ignoring one-off outliers, emitting a typed
//!   [`DriftAlarm`].
//! * [`Calibrator`] + [`CalibratedTable`] — the calibrator owns the cells
//!   and quarantine state; the table overlays the learned corrections on
//!   the static profile as a *planning* [`CostTable`] whose GPU `g` prices
//!   operator `v` at `exec(v) · (mean + k·σ)` — a pessimistic percentile,
//!   not a point estimate — while staying [`CostTable::validate`]-clean
//!   (finite, positive, clamped) for arbitrary observation streams.
//!
//! When every cell is still nominal the planning table *is* the base
//! table (same allocation, same bits), so schedulers running on top of an
//! idle calibrator produce bit-identical output to uncalibrated runs.

use crate::table::{CostTable, DeviceCosts};
use crate::topology::Topology;
use hios_graph::OpId;
use hios_graph::hash::Fnv;
use serde::{Deserialize, Serialize};
use std::fmt;

/// EWMA gain `α ∈ (0, 1]` of the per-cell mean/variance estimators.
/// Larger adapts faster but is noisier.
const ALPHA: f64 = 0.25;
/// Inflation multiplier `k ≥ 0`: planning prices use `mean + k·σ`, at
/// `k = 1` roughly the 84th percentile of the observed ratio.
const K_SIGMA: f64 = 1.0;
/// Per-observation slack of the CUSUM statistic: deviations of
/// `|r − 1|` below this are treated as noise and never accumulate.
const CUSUM_SLACK: f64 = 0.1;
/// Alarm threshold of the CUSUM statistic: the accumulated excess
/// deviation that declares a cell drifted and quarantines it.
const CUSUM_THRESHOLD: f64 = 1.5;
/// Lower clamp of any correction factor: a stream of near-zero ratios
/// cannot price an operator at ~0 and break [`CostTable::validate`]'s
/// strict positivity.
pub const MIN_FACTOR: f64 = 0.05;
/// Upper clamp of any correction factor: an outlier cannot price an
/// operator at `+inf`.
pub const MAX_FACTOR: f64 = 64.0;
/// Graceful-degradation trigger: when more than this fraction of a
/// GPU's cells are quarantined, the whole row is priced at the GPU's
/// worst observed correction (the profile is no longer trustworthy
/// cell-by-cell).
const DEGRADE_FRACTION: f64 = 0.5;

const _: () = {
    assert!(ALPHA > 0.0 && ALPHA <= 1.0);
    assert!(K_SIGMA >= 0.0 && K_SIGMA.is_finite());
    assert!(CUSUM_SLACK >= 0.0 && CUSUM_SLACK.is_finite());
    assert!(CUSUM_THRESHOLD > 0.0 && CUSUM_THRESHOLD.is_finite());
    assert!(MIN_FACTOR > 0.0 && MIN_FACTOR <= MAX_FACTOR && MAX_FACTOR.is_finite());
    assert!(DEGRADE_FRACTION > 0.0 && DEGRADE_FRACTION <= 1.0);
};

/// Switch of the calibration loop: `Some(CalibrationConfig::default())`
/// in a serving config turns it on.  Its settings are this module's
/// constants, checked at compile time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CalibrationConfig {}

/// Typed rejection of a single calibration observation.  A rejected
/// observation leaves the calibrator untouched; long-running callers log
/// and continue.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ObservationError {
    /// `(gpu, op)` is outside the calibrator's grid.
    UnknownCell {
        /// GPU index observed.
        gpu: usize,
        /// Operator observed.
        op: OpId,
    },
    /// Observed or predicted duration is non-finite or non-positive, so
    /// no meaningful ratio exists.
    BadDuration {
        /// The measured duration, ms.
        observed_ms: f64,
        /// The profile-predicted duration, ms.
        predicted_ms: f64,
    },
}

impl fmt::Display for ObservationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ObservationError::UnknownCell { gpu, op } => {
                write!(f, "observation for unknown cell (gpu {gpu}, {op})")
            }
            ObservationError::BadDuration {
                observed_ms,
                predicted_ms,
            } => write!(
                f,
                "unusable durations: observed {observed_ms} ms, predicted {predicted_ms} ms"
            ),
        }
    }
}

impl std::error::Error for ObservationError {}

/// The ratio [`Calibrator::observe`] folds in, `observed / predicted`
/// clamped to [`MIN_FACTOR`]`..=`[`MAX_FACTOR`] (exactly 1 for equal
/// durations), or the typed rejection of an unusable duration.
pub fn observation_ratio(observed_ms: f64, predicted_ms: f64) -> Result<f64, ObservationError> {
    let usable = |ms: f64| ms.is_finite() && ms > 0.0;
    if !usable(observed_ms) || !usable(predicted_ms) {
        return Err(ObservationError::BadDuration {
            observed_ms,
            predicted_ms,
        });
    }
    Ok((observed_ms / predicted_ms).clamp(MIN_FACTOR, MAX_FACTOR))
}

/// Which way a drifted cell moved relative to the profile.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum DriftDirection {
    /// Observed durations are sustainably *longer* than predicted.
    Slower,
    /// Observed durations are sustainably *shorter* than predicted.
    Faster,
}

/// A CUSUM detector crossed its threshold: the cell's cost is drifting.
/// Emitted once per quarantine — the cell's detector resets and the cell
/// raises no further alarms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftAlarm {
    /// Physical GPU of the drifted cell.
    pub gpu: usize,
    /// Operator of the drifted cell.
    pub op: OpId,
    /// Direction of the sustained deviation.
    pub direction: DriftDirection,
    /// Current EWMA mean of the observed/predicted ratio.
    pub mean_ratio: f64,
    /// Value of the CUSUM statistic at the crossing.
    pub cusum: f64,
}

impl fmt::Display for DriftAlarm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "drift alarm: gpu {} {} running {:?} at mean ratio {:.3} (cusum {:.3})",
            self.gpu, self.op, self.direction, self.mean_ratio, self.cusum
        )
    }
}

/// EWMA estimator of an observation ratio's mean and variance.
///
/// Starts at the nominal prior (`mean = 1`, `var = 0`).  The mean update
/// `mean += α·(r − mean)` makes exactly-nominal streams a fixed point at
/// exactly `1.0` — required for the zero-drift bit-identity guarantee.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub(crate) struct OnlineStats {
    mean: f64,
    var: f64,
}

impl Default for OnlineStats {
    fn default() -> Self {
        OnlineStats {
            mean: 1.0,
            var: 0.0,
        }
    }
}

impl OnlineStats {
    /// Folds one ratio into the estimator with EWMA gain `alpha`.
    pub(crate) fn observe(&mut self, ratio: f64, alpha: f64) {
        let delta = ratio - self.mean;
        self.mean += alpha * delta;
        // West's EWMA variance: decays toward zero when observations
        // settle, so the inflation term vanishes once drift stabilizes.
        self.var = (1.0 - alpha) * (self.var + alpha * delta * delta);
    }

    /// Current EWMA mean of the ratio.
    pub(crate) fn mean(&self) -> f64 {
        self.mean
    }

    /// Current EWMA standard deviation of the ratio.
    pub(crate) fn std(&self) -> f64 {
        self.var.max(0.0).sqrt()
    }

    /// Pessimistic-percentile estimate `mean + k·σ`.
    pub(crate) fn robust(&self, k_sigma: f64) -> f64 {
        self.mean + k_sigma * self.std()
    }
}

/// Two-sided CUSUM change detector over `r − 1`.
///
/// `g⁺` accumulates sustained slow-downs, `g⁻` sustained speed-ups; each
/// observation adds the deviation beyond `slack` and floors at zero, so
/// isolated outliers decay while persistent drift integrates up to the
/// threshold.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub(crate) struct CusumDetector {
    pos: f64,
    neg: f64,
}

impl CusumDetector {
    /// Folds one ratio in.  When the statistic crosses `limit`, returns
    /// the drift direction and the statistic's value at the crossing
    /// (above `limit`), and resets both accumulators.
    pub(crate) fn observe(
        &mut self,
        ratio: f64,
        slack: f64,
        limit: f64,
    ) -> Option<(DriftDirection, f64)> {
        self.pos = (self.pos + (ratio - 1.0 - slack)).max(0.0);
        self.neg = (self.neg + (1.0 - ratio - slack)).max(0.0);
        let crossing = if self.pos > limit {
            (DriftDirection::Slower, self.pos)
        } else if self.neg > limit {
            (DriftDirection::Faster, self.neg)
        } else {
            return None;
        };
        *self = CusumDetector::default();
        Some(crossing)
    }
}

#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
struct Cell {
    stats: OnlineStats,
    cusum: CusumDetector,
    quarantined: bool,
    /// The last observation was nominal and left every float it read
    /// bit-unchanged: a fixed point of the nominal update.
    settled: bool,
}

impl Cell {
    /// Folds one clamped ratio in; returns the direction and CUSUM
    /// statistic of the alarm when this observation quarantines the cell.
    fn observe(&mut self, ratio: f64) -> Option<(DriftDirection, f64)> {
        let before = self.bits();
        self.stats.observe(ratio, ALPHA);
        // Quarantined cells keep learning (so the correction tracks the
        // drift) but stop alarming: one alarm per quarantine.
        let mut alarm = None;
        if !self.quarantined {
            alarm = self.cusum.observe(ratio, CUSUM_SLACK, CUSUM_THRESHOLD);
        }
        self.quarantined |= alarm.is_some();
        self.settled = ratio == 1.0 && self.bits() == before;
        alarm
    }

    /// Bit patterns of every float an observation reads.
    fn bits(&self) -> [u64; 4] {
        let (s, c) = (&self.stats, &self.cusum);
        [s.mean, s.var, c.pos, c.neg].map(f64::to_bits)
    }
}

/// Per-(GPU, op) calibration state for one model on one platform.
///
/// Owns an `OnlineStats` + `CusumDetector` pair per cell, the
/// quarantine flags, and a monotone epoch that bumps on every quarantine.
/// The planning overlay is materialized separately by
/// [`CalibratedTable::refresh`], so observation ingestion stays O(1).
#[derive(Clone, Debug)]
pub struct Calibrator {
    num_gpus: usize,
    num_ops: usize,
    cells: Vec<Cell>,
    /// Monotone count of quarantine events (part of the fingerprint).
    epoch: u64,
    /// False once any observation deviated from the exact nominal ratio:
    /// the cheap gate for the bit-identity fast path.
    identity: bool,
}

impl Calibrator {
    /// A nominal calibrator over an `num_gpus × num_ops` cell grid.
    pub fn new(num_gpus: usize, num_ops: usize) -> Self {
        Calibrator {
            num_gpus,
            num_ops,
            cells: vec![Cell::default(); num_gpus * num_ops],
            epoch: 0,
            identity: true,
        }
    }

    /// GPUs covered by the cell grid.
    pub fn num_gpus(&self) -> usize {
        self.num_gpus
    }

    /// Operators covered by the cell grid.
    pub fn num_ops(&self) -> usize {
        self.num_ops
    }

    #[inline]
    fn cell_index(&self, gpu: usize, op: OpId) -> usize {
        gpu * self.num_ops + op.index()
    }

    /// Index of the cell for `(gpu, op)`, or the typed rejection of a
    /// cell outside the grid.
    fn cell(&self, gpu: usize, op: OpId) -> Result<usize, ObservationError> {
        if gpu >= self.num_gpus || op.index() >= self.num_ops {
            return Err(ObservationError::UnknownCell { gpu, op });
        }
        Ok(self.cell_index(gpu, op))
    }

    /// Folds one `(observed, predicted)` duration pair into the cell for
    /// `(gpu, op)`.  Returns a [`DriftAlarm`] when this observation pushes
    /// the cell's CUSUM over the threshold (which also quarantines the
    /// cell), `Ok(None)` otherwise, and a typed error for unusable input
    /// (which leaves all state untouched).
    pub fn observe(
        &mut self,
        gpu: usize,
        op: OpId,
        observed_ms: f64,
        predicted_ms: f64,
    ) -> Result<Option<DriftAlarm>, ObservationError> {
        let idx = self.cell(gpu, op)?;
        let ratio = observation_ratio(observed_ms, predicted_ms)?;
        if ratio != 1.0 {
            self.identity = false;
        }
        let cell = &mut self.cells[idx];
        let Some((direction, cusum)) = cell.observe(ratio) else {
            return Ok(None);
        };
        self.epoch += 1;
        Ok(Some(DriftAlarm {
            gpu,
            op,
            direction,
            mean_ratio: cell.stats.mean(),
            cusum,
        }))
    }

    /// Folds `k` exactly-nominal observations into the cell for
    /// `(gpu, op)`, bit-identically to `k` [`Calibrator::observe`]s of
    /// equal usable durations; a ratio of 1 never alarms.  The cell steps
    /// until it is settled and no further: O(1) for any `k` once settled.
    pub fn observe_nominal(
        &mut self,
        gpu: usize,
        op: OpId,
        k: u64,
    ) -> Result<(), ObservationError> {
        let idx = self.cell(gpu, op)?;
        let cell = &mut self.cells[idx];
        // Debug builds (every `cargo test`) replay the `k` observations
        // one by one on a copy and compare; release builds pay nothing.
        let replay = cfg!(debug_assertions).then_some(*cell);
        let mut left = k;
        while left > 0 && !cell.settled {
            let alarm = cell.observe(1.0);
            debug_assert!(alarm.is_none(), "a nominal observation alarmed");
            left -= 1;
        }
        if let Some(mut copy) = replay {
            (0..k).for_each(|_| _ = copy.observe(1.0));
            debug_assert_eq!(
                format!("{copy:?}"),
                format!("{cell:?}"),
                "nominal fold diverged"
            );
        }
        Ok(())
    }

    /// Correction factor the planning overlay applies to `exec(gpu, op)`:
    /// `clamp(mean + k·σ)`.  Exactly `1.0` for untouched cells.
    pub fn correction(&self, gpu: usize, op: OpId) -> f64 {
        let cell = &self.cells[self.cell_index(gpu, op)];
        let robust = cell.stats.robust(K_SIGMA);
        if robust.is_finite() {
            robust.clamp(MIN_FACTOR, MAX_FACTOR)
        } else {
            MAX_FACTOR
        }
    }

    /// Whether the cell for `(gpu, op)` is quarantined.
    pub fn is_quarantined(&self, gpu: usize, op: OpId) -> bool {
        self.cells[self.cell_index(gpu, op)].quarantined
    }

    /// Fraction of `gpu`'s cells currently quarantined.
    pub(crate) fn quarantined_fraction(&self, gpu: usize) -> f64 {
        if self.num_ops == 0 {
            return 0.0;
        }
        let row = &self.cells[gpu * self.num_ops..(gpu + 1) * self.num_ops];
        row.iter().filter(|c| c.quarantined).count() as f64 / self.num_ops as f64
    }

    /// Graceful degradation: true when so many of `gpu`'s cells are
    /// quarantined that per-cell corrections are no longer trustworthy and
    /// the whole row prices at the worst observed correction.
    pub fn device_degraded(&self, gpu: usize) -> bool {
        self.quarantined_fraction(gpu) > DEGRADE_FRACTION
    }

    /// Worst (largest) correction across `gpu`'s row — the degradation
    /// price.
    pub(crate) fn worst_correction(&self, gpu: usize) -> f64 {
        (0..self.num_ops)
            .map(|i| self.correction(gpu, OpId(i as u32)))
            .fold(1.0, f64::max)
    }

    /// True while every observation ever folded in was exactly nominal:
    /// the planning overlay is guaranteed to be the identity.
    pub fn is_identity(&self) -> bool {
        self.identity
    }

    /// Fingerprint of the calibration state that affects planning prices:
    /// the epoch, every quarantine flag and every correction's bit
    /// pattern, folded a whole word at a time ([`Fnv::word`]).  Two equal
    /// fingerprints imply identical planning overlays.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::new();
        h.word(self.num_gpus as u64);
        h.word(self.num_ops as u64);
        h.word(self.epoch);
        for gpu in 0..self.num_gpus {
            h.word(self.device_degraded(gpu) as u64);
            for i in 0..self.num_ops {
                let op = OpId(i as u32);
                h.word(self.is_quarantined(gpu, op) as u64);
                h.word(self.correction(gpu, op).to_bits());
            }
        }
        h.finish()
    }
}

/// The static profile plus the calibrator's learned corrections,
/// materialized as a planning [`CostTable`].
///
/// While the calibrator is the identity the planning table *is* the base
/// table (no copy, same bits) — schedulers consuming
/// [`CalibratedTable::table`] are then bit-identical to uncalibrated runs.
/// Once corrections exist, [`CalibratedTable::refresh`] materializes a
/// heterogeneous overlay with **one device class per physical GPU**
/// (per-GPU drift is not expressible per device *class* on a uniform
/// platform), scaling each GPU's exec row by its correction factors while
/// leaving utilizations, transfers, topology links and concurrency
/// parameters untouched.  The overlay always passes
/// [`CostTable::validate`] whenever the base table does: corrections are
/// clamped to [`MIN_FACTOR`]`..=`[`MAX_FACTOR`] and products to finite
/// positives.
#[derive(Clone, Debug)]
pub struct CalibratedTable {
    base: CostTable,
    num_gpus: usize,
    /// `None` ⇒ identity: planning prices are the base table itself.
    planning: Option<CostTable>,
    fingerprint: u64,
}

impl CalibratedTable {
    /// Wraps a base profile for a platform of `num_gpus` GPUs with no
    /// corrections yet.
    ///
    /// # Panics
    /// Panics when the base topology cannot price `num_gpus` GPUs.
    pub fn new(base: CostTable, num_gpus: usize) -> Self {
        assert!(
            base.topology.covers(num_gpus),
            "base table covers {} GPUs, calibrating {num_gpus}",
            base.topology.num_gpus()
        );
        CalibratedTable {
            base,
            num_gpus,
            planning: None,
            fingerprint: 0,
        }
    }

    /// The static profile the overlay corrects.
    pub fn base(&self) -> &CostTable {
        &self.base
    }

    /// The table schedulers should plan with: the base profile while the
    /// calibrator is nominal, the corrected overlay afterwards.
    pub fn table(&self) -> &CostTable {
        self.planning.as_ref().unwrap_or(&self.base)
    }

    /// True while planning prices are exactly the base profile.
    pub fn is_identity(&self) -> bool {
        self.planning.is_none()
    }

    /// Fingerprint of the calibration state the current overlay was built
    /// from (0 until the first non-identity refresh).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Rebuilds the planning overlay from the calibrator's current state.
    /// Returns `true` when planning prices changed (callers then invalidate
    /// schedule caches and trigger re-scheduling).  Cheap no-op when the
    /// calibration fingerprint is unchanged.
    ///
    /// # Panics
    /// Panics when the calibrator's grid does not match the table
    /// (`num_gpus`, `num_ops`).
    pub fn refresh(&mut self, cal: &Calibrator) -> bool {
        assert_eq!(
            cal.num_gpus(),
            self.num_gpus,
            "calibrator GPU grid mismatch"
        );
        assert_eq!(
            cal.num_ops(),
            self.base.num_ops(),
            "calibrator op grid mismatch"
        );
        if cal.is_identity() {
            let changed = self.planning.is_some();
            self.planning = None;
            self.fingerprint = 0;
            return changed;
        }
        let fp = cal.fingerprint();
        if fp == self.fingerprint && self.planning.is_some() {
            return false;
        }
        self.planning = Some(self.materialize(cal));
        self.fingerprint = fp;
        true
    }

    /// Builds the per-GPU class-split overlay table.
    fn materialize(&self, cal: &Calibrator) -> CostTable {
        let m = self.num_gpus;
        let n = self.base.num_ops();
        let mut exec_ms = Vec::with_capacity(m);
        let mut util = Vec::with_capacity(m);
        for gpu in 0..m {
            let base_class = self.base.topology.class_of(gpu);
            let degraded = cal.device_degraded(gpu);
            let worst = if degraded {
                cal.worst_correction(gpu)
            } else {
                1.0
            };
            let mut row = Vec::with_capacity(n);
            for i in 0..n {
                let op = OpId(i as u32);
                let corr = if degraded {
                    worst
                } else {
                    cal.correction(gpu, op)
                };
                let base = self.base.device.exec_ms[base_class][i];
                let scaled = base * corr;
                // The base entry may be huge; clamp the product so the
                // overlay stays validate-clean even at MAX_FACTOR.
                row.push(if scaled.is_finite() && scaled > 0.0 {
                    scaled
                } else {
                    base
                });
            }
            exec_ms.push(row);
            util.push(self.base.device.util[base_class].clone());
        }
        // One device class per physical GPU; the link matrix keeps the
        // base link classes so transfer rows are shared untouched.
        let device_class: Vec<usize> = (0..m).collect();
        let mut link_class = Vec::with_capacity(m * m);
        for s in 0..m {
            for d in 0..m {
                link_class.push(self.base.topology.link_between(s, d));
            }
        }
        CostTable::heterogeneous(
            format!("{} (calibrated)", self.base.source),
            DeviceCosts { exec_ms, util },
            self.base.transfer_ms.clone(),
            Topology::hetero(device_class, link_class),
            self.base.concurrency,
            self.base.launch_overhead_ms,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::ConcurrencyParams;
    use hios_graph::{Graph, GraphBuilder};

    fn graph(n: usize) -> Graph {
        let mut b = GraphBuilder::new();
        let mut prev: Vec<OpId> = vec![];
        for i in 0..n {
            prev = vec![b.add_synthetic(format!("op{i}"), &prev)];
        }
        b.build()
    }

    fn base(n: usize) -> CostTable {
        CostTable::homogeneous(
            "test",
            (0..n).map(|i| 1.0 + i as f64 * 0.25).collect(),
            vec![0.5; n],
            vec![0.1; n],
            ConcurrencyParams::default(),
            0.005,
        )
    }

    #[test]
    fn nominal_observations_keep_identity() {
        let mut cal = Calibrator::new(2, 4);
        for _ in 0..50 {
            for gpu in 0..2 {
                for i in 0..4 {
                    let alarm = cal.observe(gpu, OpId(i), 3.5, 3.5).unwrap();
                    assert!(alarm.is_none());
                }
            }
        }
        assert!(cal.is_identity());
        assert_eq!(cal.correction(0, OpId(0)), 1.0);
        assert_eq!(cal.correction(1, OpId(3)), 1.0);

        let mut table = CalibratedTable::new(base(4), 2);
        assert!(!table.refresh(&cal));
        assert!(table.is_identity());
        // The planning table is literally the base table: same bits.
        assert_eq!(
            table.table().platform_fingerprint(),
            table.base().platform_fingerprint()
        );
    }

    #[test]
    fn sustained_drift_raises_one_alarm_and_quarantines() {
        let mut cal = Calibrator::new(2, 4);
        let mut alarms = vec![];
        for _ in 0..10 {
            if let Some(a) = cal.observe(1, OpId(2), 2.0, 1.0).unwrap() {
                alarms.push(a);
            }
        }
        assert_eq!(alarms.len(), 1, "one alarm per quarantine");
        let a = alarms[0];
        assert_eq!(
            (a.gpu, a.op, a.direction),
            (1, OpId(2), DriftDirection::Slower)
        );
        assert!(a.mean_ratio > 1.0);
        // The statistic at the crossing, not the threshold it crossed:
        // 0.9 after the first observation, 1.8 after the second.
        assert!(a.cusum > CUSUM_THRESHOLD, "cusum {}", a.cusum);
        assert_eq!(a.cusum, 2.0 * (2.0 - 1.0 - CUSUM_SLACK));
        assert!(cal.is_quarantined(1, OpId(2)));
        assert!(!cal.is_quarantined(0, OpId(2)));
        // Correction tracks toward the true factor and prices pessimistic.
        let c = cal.correction(1, OpId(2));
        assert!(c > 1.2 && c <= 2.5, "correction {c}");
        assert!(!cal.is_identity());
    }

    #[test]
    fn speedup_drift_alarms_faster() {
        let mut cal = Calibrator::new(1, 1);
        let mut alarm = None;
        for _ in 0..20 {
            alarm = cal.observe(0, OpId(0), 0.5, 1.0).unwrap();
            if alarm.is_some() {
                break;
            }
        }
        let a = alarm.expect("sustained speed-up alarms");
        assert_eq!(a.direction, DriftDirection::Faster);
        assert!(a.cusum > CUSUM_THRESHOLD, "cusum {}", a.cusum);
    }

    #[test]
    fn outliers_alone_do_not_alarm() {
        let mut cal = Calibrator::new(1, 1);
        // One huge outlier inside a nominal stream: CUSUM decays it away.
        assert!(cal.observe(0, OpId(0), 1.6, 1.0).unwrap().is_none());
        for _ in 0..30 {
            assert!(cal.observe(0, OpId(0), 1.0, 1.0).unwrap().is_none());
        }
        assert!(!cal.is_quarantined(0, OpId(0)));
    }

    #[test]
    fn bad_observations_are_rejected_and_ignored() {
        let mut cal = Calibrator::new(1, 2);
        let fp = cal.fingerprint();
        assert!(matches!(
            cal.observe(0, OpId(0), f64::NAN, 1.0),
            Err(ObservationError::BadDuration { .. })
        ));
        assert!(matches!(
            cal.observe(0, OpId(0), 1.0, 0.0),
            Err(ObservationError::BadDuration { .. })
        ));
        assert!(matches!(
            cal.observe(0, OpId(0), -3.0, 1.0),
            Err(ObservationError::BadDuration { .. })
        ));
        assert!(matches!(
            cal.observe(0, OpId(0), f64::INFINITY, 1.0),
            Err(ObservationError::BadDuration { .. })
        ));
        assert!(matches!(
            cal.observe(3, OpId(0), 1.0, 1.0),
            Err(ObservationError::UnknownCell { .. })
        ));
        assert!(matches!(
            cal.observe(0, OpId(9), 1.0, 1.0),
            Err(ObservationError::UnknownCell { .. })
        ));
        assert!(cal.is_identity());
        assert_eq!(
            cal.fingerprint(),
            fp,
            "rejected input leaves state untouched"
        );
    }

    #[test]
    fn overlay_prices_drifted_gpu_higher() {
        let g = graph(4);
        let b = base(4);
        let mut cal = Calibrator::new(3, 4);
        for _ in 0..8 {
            for i in 0..4 {
                let _ = cal.observe(2, OpId(i), 3.0, 1.0).unwrap();
            }
        }
        let mut t = CalibratedTable::new(b.clone(), 3);
        assert!(t.refresh(&cal));
        assert!(!t.is_identity());
        let planning = t.table();
        planning
            .validate(&g)
            .expect("overlay must stay validate-clean");
        // GPU 2 is priced up; GPUs 0 and 1 keep base prices bit-identically.
        assert!(planning.exec_on(2, OpId(1)) > 2.0 * b.exec_on(2, OpId(1)));
        assert_eq!(planning.exec_on(0, OpId(1)), b.exec_on(0, OpId(1)));
        assert_eq!(planning.exec_on(1, OpId(1)), b.exec_on(1, OpId(1)));
        // Transfers and utilizations are untouched.
        assert_eq!(planning.transfer(OpId(0), 0, 2), b.transfer(OpId(0), 0, 2));
        let util_on_gpu2 = |t: &CostTable| t.device.util[t.topology.class_of(2)][0];
        assert_eq!(util_on_gpu2(planning), util_on_gpu2(&b));
        // Restriction to a live subset stays valid (serving repair path).
        planning.restrict_gpus(&[0, 2]).validate(&g).unwrap();

        // A second refresh with unchanged state is a no-op.
        assert!(!t.refresh(&cal));
    }

    #[test]
    fn degraded_row_prices_worst_case() {
        let n = 4;
        let g = graph(n);
        let mut cal = Calibrator::new(2, n);
        // Quarantine 3 of 4 cells on GPU 1 with different magnitudes.
        for (op, factor) in [(0u32, 2.0), (1, 4.0), (2, 3.0)] {
            for _ in 0..8 {
                let _ = cal.observe(1, OpId(op), factor, 1.0).unwrap();
            }
        }
        assert!(cal.device_degraded(1));
        assert!(!cal.device_degraded(0));
        let worst = cal.worst_correction(1);
        let mut t = CalibratedTable::new(base(n), 2);
        assert!(t.refresh(&cal));
        let planning = t.table();
        planning.validate(&g).unwrap();
        // Every op on the degraded GPU prices at the worst correction —
        // including the never-observed OpId(3).
        for i in 0..n as u32 {
            let b = t.base().exec_on(1, OpId(i));
            let p = planning.exec_on(1, OpId(i));
            assert!(
                (p - b * worst).abs() < 1e-12,
                "op {i}: {p} vs {}",
                b * worst
            );
        }
    }

    #[test]
    fn fingerprint_tracks_calibration_state() {
        let mut cal = Calibrator::new(2, 2);
        let fp0 = cal.fingerprint();
        let _ = cal.observe(0, OpId(0), 1.5, 1.0).unwrap();
        let fp1 = cal.fingerprint();
        assert_ne!(fp0, fp1, "a learned correction changes the fingerprint");
        let mut t = CalibratedTable::new(base(2), 2);
        assert!(t.refresh(&cal));
        let pf1 = t.table().platform_fingerprint();
        for _ in 0..6 {
            let _ = cal.observe(0, OpId(0), 1.5, 1.0).unwrap();
        }
        assert!(t.refresh(&cal), "more drift, new overlay");
        assert_ne!(t.table().platform_fingerprint(), pf1);
    }

    #[test]
    fn hetero_base_tables_are_supported() {
        // 2 classes, 3 GPUs: 0,1 class 0; 2 class 1 (2x slower).
        let n = 3;
        let g = graph(n);
        let exec: Vec<f64> = vec![1.0, 2.0, 3.0];
        let slow: Vec<f64> = exec.iter().map(|t| t * 2.0).collect();
        let b = CostTable::heterogeneous(
            "hetero",
            DeviceCosts {
                exec_ms: vec![exec.clone(), slow],
                util: vec![vec![0.5; n]; 2],
            },
            vec![vec![0.1; n], vec![1.0; n]],
            Topology::hetero(vec![0, 0, 1], vec![0, 0, 1, 0, 0, 1, 1, 1, 0]),
            ConcurrencyParams::default(),
            0.005,
        );
        let mut cal = Calibrator::new(3, n);
        for _ in 0..8 {
            let _ = cal.observe(0, OpId(0), 2.0, 1.0).unwrap();
        }
        let mut t = CalibratedTable::new(b.clone(), 3);
        assert!(t.refresh(&cal));
        let planning = t.table();
        planning.validate(&g).unwrap();
        // The slow class's base price survives on GPU 2; GPU 0 is inflated.
        assert_eq!(planning.exec_on(2, OpId(0)), b.exec_on(2, OpId(0)));
        assert!(planning.exec_on(0, OpId(0)) > b.exec_on(0, OpId(0)));
        // Cross-class links keep their base transfer prices.
        assert_eq!(planning.transfer(OpId(0), 0, 2), b.transfer(OpId(0), 0, 2));
        assert_eq!(planning.transfer(OpId(0), 0, 1), b.transfer(OpId(0), 0, 1));
    }
}
