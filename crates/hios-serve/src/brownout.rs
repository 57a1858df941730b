//! Hysteresis brownout controller (ISSUE 8 tentpole).
//!
//! Under sustained overload an admit-everything server collapses: the
//! queue fills, every request misses its deadline, and goodput goes to
//! zero for *all* SLO classes at once.  The brownout controller degrades
//! deliberately instead, through four levels:
//!
//! | level | name       | effect                                        |
//! |-------|------------|-----------------------------------------------|
//! | 0     | Normal     | none                                          |
//! | 1     | CapLadder  | scheduling ladder capped at cheaper rungs     |
//! | 2     | ShedBronze | Bronze arrivals shed on admission             |
//! | 3     | GoldOnly   | Silver and Bronze arrivals shed               |
//!
//! The driving signal is *pressure*: a convex blend of queue fill and an
//! EWMA of the deadline-miss indicator (the "slack deficit" the server
//! actually observes).  Escalation is immediate — pressure above a
//! level's enter threshold jumps straight to the deepest triggered level
//! — while de-escalation steps down one level at a time, only after a
//! minimum dwell and only once pressure is below the *exit* threshold of
//! the level being left.  Exit thresholds sit strictly below enter
//! thresholds, so the controller cannot oscillate on a signal that
//! hovers at a boundary; the dwell bounds the transition rate outright.
//!
//! Everything is driven by the virtual clock and the deterministic
//! outcome stream, so a browned-out run is bit-identical at any thread
//! count, and a controller attached at Normal level observes without
//! perturbing (the acceptance criterion: 1× load ⇒ digest-identical to
//! the controller-free server).

use crate::ladder::RungCap;
use crate::request::PriorityClass;

/// Degradation level, deepest last.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord)]
pub enum BrownoutLevel {
    /// No degradation.
    #[default]
    Normal,
    /// Cap the anytime ladder at cheaper rungs (no full LP).
    CapLadder,
    /// Additionally shed Bronze arrivals.
    ShedBronze,
    /// Shed everything but Gold.
    GoldOnly,
}

impl BrownoutLevel {
    /// All levels, shallow to deep.
    pub const ALL: [BrownoutLevel; 4] = [
        BrownoutLevel::Normal,
        BrownoutLevel::CapLadder,
        BrownoutLevel::ShedBronze,
        BrownoutLevel::GoldOnly,
    ];

    /// Dense index (Normal 0 … GoldOnly 3).
    pub fn index(self) -> usize {
        match self {
            BrownoutLevel::Normal => 0,
            BrownoutLevel::CapLadder => 1,
            BrownoutLevel::ShedBronze => 2,
            BrownoutLevel::GoldOnly => 3,
        }
    }

    /// Inverse of [`BrownoutLevel::index`]; panics on `i >= 4`.
    pub fn from_index(i: usize) -> Self {
        BrownoutLevel::ALL[i]
    }

    /// Whether an arrival of `class` is shed at this level.
    pub fn sheds(self, class: PriorityClass) -> bool {
        match self {
            BrownoutLevel::Normal | BrownoutLevel::CapLadder => false,
            BrownoutLevel::ShedBronze => class == PriorityClass::Bronze,
            BrownoutLevel::GoldOnly => class != PriorityClass::Gold,
        }
    }

    /// The deepest scheduling-ladder rung this level allows.
    pub fn rung_cap(self) -> RungCap {
        match self {
            BrownoutLevel::Normal => RungCap::Full,
            BrownoutLevel::CapLadder => RungCap::InterLp,
            BrownoutLevel::ShedBronze | BrownoutLevel::GoldOnly => RungCap::Greedy,
        }
    }

    /// Label for reports.
    pub fn name(self) -> &'static str {
        match self {
            BrownoutLevel::Normal => "normal",
            BrownoutLevel::CapLadder => "cap-ladder",
            BrownoutLevel::ShedBronze => "shed-bronze",
            BrownoutLevel::GoldOnly => "gold-only",
        }
    }
}

/// EWMA smoothing factor of the deadline-miss indicator, in `(0, 1]`
/// (higher = more reactive).
const MISS_ALPHA: f64 = 0.15;
/// Weight of queue fill in the pressure blend, in `[0, 1]`; the miss
/// EWMA gets `1 - QUEUE_WEIGHT`.
const QUEUE_WEIGHT: f64 = 0.5;
/// Pressure thresholds to *enter* levels 1..=3 (ascending).
const ENTER: [f64; 3] = [0.40, 0.60, 0.80];
/// Pressure thresholds to *exit* back below levels 1..=3.
const EXIT: [f64; 3] = [0.25, 0.40, 0.55];
/// Minimum time at a level before de-escalating, ms.
const MIN_DWELL_MS: f64 = 25.0;

// Every exit threshold sits strictly below its enter threshold (the
// hysteresis that keeps a signal hovering at a boundary from
// oscillating), and the enter thresholds ascend inside `[0, 1]`.
const _: () = {
    assert!(MISS_ALPHA > 0.0 && MISS_ALPHA <= 1.0);
    assert!(QUEUE_WEIGHT >= 0.0 && QUEUE_WEIGHT <= 1.0);
    assert!(MIN_DWELL_MS >= 0.0 && MIN_DWELL_MS.is_finite());
    let mut i = 0;
    while i < 3 {
        assert!(ENTER[i] <= 1.0 && EXIT[i] >= 0.0 && EXIT[i] < ENTER[i]);
        assert!(i == 0 || ENTER[i - 1] < ENTER[i]);
        i += 1;
    }
};

/// Switch of overload hardening: `Some(OverloadConfig::default())` in a
/// serving config attaches the brownout state machine and the global retry
/// budget.  Their settings are the constants of this module and of
/// [`crate::retry`], checked at compile time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OverloadConfig {}

/// What the controller did over a run, for reports and benches.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct BrownoutTelemetry {
    /// `(at_ms, level)` at every transition, starting with the initial
    /// `(0, 0)` entry when the controller is attached.
    pub timeline: Vec<(f64, u8)>,
    /// Number of level changes (timeline length − 1).
    pub transitions: u64,
    /// Deepest level reached.
    pub max_level: u8,
    /// Time spent at each level, ms, indexed by level.
    pub time_in_level_ms: [f64; 4],
}

/// The hysteresis brownout state machine.
///
/// Feed it the outcome stream via [`BrownoutController::observe_outcome`]
/// and ask [`BrownoutController::reassess`] at every admission decision;
/// both are O(1) and allocation-free on the hot path.
#[derive(Clone, Debug)]
pub struct BrownoutController {
    level: BrownoutLevel,
    /// EWMA of the deadline-miss indicator (1 = missed), in `[0, 1]`.
    miss_ewma: f64,
    /// When the current level was entered, ms.
    entered_ms: f64,
    /// Last instant the telemetry clock advanced to, ms.
    last_seen_ms: f64,
    telemetry: BrownoutTelemetry,
}

impl Default for BrownoutController {
    /// A controller at Normal level.
    fn default() -> Self {
        BrownoutController {
            level: BrownoutLevel::Normal,
            miss_ewma: 0.0,
            entered_ms: 0.0,
            last_seen_ms: 0.0,
            telemetry: BrownoutTelemetry {
                timeline: vec![(0.0, 0)],
                transitions: 0,
                max_level: 0,
                time_in_level_ms: [0.0; 4],
            },
        }
    }
}

impl BrownoutController {
    /// Current level.
    pub fn level(&self) -> BrownoutLevel {
        self.level
    }

    /// Feeds one terminal outcome (completion or non-brownout shed)
    /// into the miss EWMA.  Brownout sheds are *excluded* by the caller:
    /// counting them as misses would hold pressure up and lock the
    /// controller in its deepest level after the load drops.
    pub fn observe_outcome(&mut self, now_ms: f64, missed: bool, queue_fill: f64) {
        let x = if missed { 1.0 } else { 0.0 };
        self.miss_ewma += MISS_ALPHA * (x - self.miss_ewma);
        self.reassess(now_ms, queue_fill);
    }

    /// Recomputes pressure from the queue and steps the state machine.
    /// Returns the (possibly new) level.
    pub fn reassess(&mut self, now_ms: f64, queue_fill: f64) -> BrownoutLevel {
        let q = queue_fill.clamp(0.0, 1.0);
        let pressure = QUEUE_WEIGHT * q + (1.0 - QUEUE_WEIGHT) * self.miss_ewma;
        self.advance_clock(now_ms);

        // Escalate: jump straight to the deepest level whose enter
        // threshold the pressure clears.
        let mut target = self.level;
        for lvl in (1..=3).rev() {
            if pressure >= ENTER[lvl - 1] {
                target = target.max(BrownoutLevel::from_index(lvl));
                break;
            }
        }
        if target > self.level {
            self.transition(now_ms, target);
            return self.level;
        }

        // De-escalate: one level per step, dwell-gated, against the
        // exit threshold of the level being left.
        if self.level > BrownoutLevel::Normal
            && now_ms - self.entered_ms >= MIN_DWELL_MS
            && pressure <= EXIT[self.level.index() - 1]
        {
            let down = BrownoutLevel::from_index(self.level.index() - 1);
            self.transition(now_ms, down);
        }
        self.level
    }

    fn advance_clock(&mut self, now_ms: f64) {
        if now_ms > self.last_seen_ms {
            self.telemetry.time_in_level_ms[self.level.index()] += now_ms - self.last_seen_ms;
            self.last_seen_ms = now_ms;
        }
    }

    fn transition(&mut self, now_ms: f64, to: BrownoutLevel) {
        self.level = to;
        self.entered_ms = now_ms;
        self.telemetry.transitions += 1;
        self.telemetry.max_level = self.telemetry.max_level.max(to.index() as u8);
        self.telemetry.timeline.push((now_ms, to.index() as u8));
    }

    /// Closes the telemetry at the end of the run.
    pub fn finish(mut self, now_ms: f64) -> BrownoutTelemetry {
        self.advance_clock(now_ms);
        self.telemetry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_shed_and_cap_monotonically() {
        use PriorityClass::*;
        assert!(!BrownoutLevel::Normal.sheds(Bronze));
        assert!(!BrownoutLevel::CapLadder.sheds(Bronze));
        assert!(BrownoutLevel::ShedBronze.sheds(Bronze));
        assert!(!BrownoutLevel::ShedBronze.sheds(Silver));
        assert!(BrownoutLevel::GoldOnly.sheds(Silver));
        assert!(BrownoutLevel::GoldOnly.sheds(Bronze));
        assert!(!BrownoutLevel::GoldOnly.sheds(Gold));
        assert_eq!(BrownoutLevel::Normal.rung_cap(), RungCap::Full);
        assert_eq!(BrownoutLevel::CapLadder.rung_cap(), RungCap::InterLp);
        assert_eq!(BrownoutLevel::GoldOnly.rung_cap(), RungCap::Greedy);
        for (i, l) in BrownoutLevel::ALL.into_iter().enumerate() {
            assert_eq!(l.index(), i);
            assert_eq!(BrownoutLevel::from_index(i), l);
        }
    }

    #[test]
    fn quiet_signal_stays_normal() {
        let mut c = BrownoutController::default();
        for i in 0..200 {
            let now = i as f64;
            c.observe_outcome(now, false, 0.1);
            assert_eq!(c.level(), BrownoutLevel::Normal);
        }
        let t = c.finish(200.0);
        assert_eq!(t.transitions, 0);
        assert_eq!(t.max_level, 0);
        assert_eq!(t.timeline, vec![(0.0, 0)]);
    }

    #[test]
    fn saturation_escalates_to_gold_only_and_recovers() {
        let mut c = BrownoutController::default();
        // Full queue, every deadline missed → pressure → 1.
        let mut now = 0.0;
        for _ in 0..100 {
            now += 1.0;
            c.observe_outcome(now, true, 1.0);
        }
        assert_eq!(c.level(), BrownoutLevel::GoldOnly);
        // Load vanishes and the drain completes on time: pressure
        // decays, controller steps down one level at a time through
        // every intermediate level.
        let mut seen = vec![c.level()];
        for _ in 0..10_000 {
            now += 1.0;
            c.observe_outcome(now, false, 0.0);
            let l = c.level();
            if *seen.last().unwrap() != l {
                seen.push(l);
            }
            if l == BrownoutLevel::Normal {
                break;
            }
        }
        assert_eq!(
            seen,
            vec![
                BrownoutLevel::GoldOnly,
                BrownoutLevel::ShedBronze,
                BrownoutLevel::CapLadder,
                BrownoutLevel::Normal,
            ]
        );
        let t = c.finish(now);
        assert_eq!(t.max_level, 3);
        // 3 up (possibly fewer jumps) + 3 down; the jump to GoldOnly can
        // skip levels so transitions ≤ 6.
        assert!(t.transitions <= 6, "transitions {}", t.transitions);
        assert!(t.time_in_level_ms.iter().sum::<f64>() > 0.0);
    }

    #[test]
    fn escalation_can_skip_levels() {
        let mut c = BrownoutController::default();
        // One reassessment with a saturated queue: pressure 0.5 from the
        // queue alone ≥ enter[0] 0.40 but < enter[1] 0.60.
        assert_eq!(c.reassess(1.0, 1.0), BrownoutLevel::CapLadder);
        // Saturate the miss EWMA too → jumps past ShedBronze.
        for i in 0..60 {
            c.observe_outcome(2.0 + i as f64, true, 1.0);
        }
        assert_eq!(c.level(), BrownoutLevel::GoldOnly);
    }

    #[test]
    fn dwell_blocks_immediate_deescalation() {
        let mut c = BrownoutController::default();
        let entered = 10.0;
        assert_eq!(c.reassess(entered, 1.0), BrownoutLevel::CapLadder);
        // Pressure collapses instantly, but the dwell holds the level.
        assert_eq!(c.reassess(entered + 1.0, 0.0), BrownoutLevel::CapLadder);
        let almost = entered + MIN_DWELL_MS - 1.0;
        assert_eq!(c.reassess(almost, 0.0), BrownoutLevel::CapLadder);
        // After the dwell it may step down.
        let after = entered + MIN_DWELL_MS;
        assert_eq!(c.reassess(after, 0.0), BrownoutLevel::Normal);
    }

    #[test]
    fn hysteresis_prevents_boundary_oscillation() {
        let mut c = BrownoutController::default();
        // Queue fill hovering exactly at the level-1 enter boundary
        // (pressure 0.40): enters once, then stays — the exit threshold
        // 0.25 is never reached.
        let mut transitions = 0;
        let mut prev = c.level();
        for i in 0..1000 {
            let now = i as f64;
            let fill = if i % 2 == 0 { 0.80 } else { 0.79 };
            let l = c.reassess(now, fill);
            if l != prev {
                transitions += 1;
                prev = l;
            }
        }
        assert_eq!(c.level(), BrownoutLevel::CapLadder);
        assert_eq!(transitions, 1);
    }

    #[test]
    fn telemetry_accounts_all_time() {
        let mut c = BrownoutController::default();
        c.reassess(10.0, 1.0);
        c.reassess(40.0, 1.0);
        let t = c.finish(100.0);
        let total: f64 = t.time_in_level_ms.iter().sum();
        assert!((total - 100.0).abs() < 1e-9, "total {total}");
        assert!(t.time_in_level_ms[0] >= 10.0);
    }
}
