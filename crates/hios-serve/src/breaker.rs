//! Per-GPU circuit breakers.
//!
//! Each physical GPU gets one breaker fed by the fault-detection
//! signals of [`hios_sim::fault`]:
//!
//! * **Closed** — the GPU serves traffic.
//! * **Open** — a fail-stop or slowdown was detected; all dispatches
//!   route around the GPU until `reset_timeout_ms` elapses.
//! * **Half-open** — the timeout elapsed; the next health probe decides.
//!   A successful probe closes the breaker (the GPU was repaired or
//!   replaced, its speed resets); a failed probe re-opens it with the
//!   timeout **doubled**, so a persistently sick GPU is probed at an
//!   exponentially decaying rate instead of hammered.
//!
//! **Flap detection** (ISSUE 8): a GPU that heals convincingly and then
//! fails again shortly after would otherwise cycle open → closed → open
//! forever at the *base* timeout — each heal resets the backoff that
//! the doubling built up.  The breaker therefore remembers when it last
//! closed; a re-trip within [`FLAP_WINDOW_MS`] counts as a flap, and
//! once [`FLAP_THRESHOLD`] consecutive flaps accumulate, a closing probe
//! *keeps* an escalated timeout (multiplied by [`FLAP_ESCALATION`],
//! capped at [`MAX_QUARANTINE_MS`]) instead of resetting to base —
//! quarantining the flapping GPU for progressively longer stretches.
//!
//! All transitions run on the virtual clock, so breaker histories are
//! bit-identical across runs and thread counts.

/// A re-trip within this long after a close counts as a flap, ms.
pub const FLAP_WINDOW_MS: f64 = 50.0;
/// Consecutive flaps before quarantine escalation kicks in.
pub const FLAP_THRESHOLD: u32 = 2;
/// Timeout multiplier applied at each escalated close.
pub const FLAP_ESCALATION: f64 = 4.0;
/// Upper bound on the escalated timeout, ms.
pub const MAX_QUARANTINE_MS: f64 = 1000.0;

const _: () = {
    assert!(FLAP_WINDOW_MS >= 0.0 && FLAP_WINDOW_MS.is_finite());
    assert!(FLAP_ESCALATION > 1.0 && FLAP_ESCALATION.is_finite());
    assert!(MAX_QUARANTINE_MS > 0.0 && MAX_QUARANTINE_MS.is_finite());
};

/// State of one breaker.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum BreakerState {
    /// Healthy: dispatches may use the GPU.
    Closed,
    /// Tripped: the GPU is excluded until the embedded instant.
    Open {
        /// When the breaker becomes probeable, ms.
        until_ms: f64,
    },
    /// Probing: the GPU may be tried once; the outcome decides.
    HalfOpen,
}

/// One GPU's breaker.
#[derive(Clone, Debug)]
pub struct CircuitBreaker {
    state: BreakerState,
    base_timeout_ms: f64,
    timeout_ms: f64,
    opens: u64,
    /// When the breaker last closed, ms (−∞ before the first close, so
    /// the first trip is never a flap).
    last_close_ms: f64,
    /// Consecutive open→close→open cycles inside the flap window.
    flaps: u32,
    /// Quarantine escalations applied over the breaker's lifetime.
    escalations: u64,
}

impl CircuitBreaker {
    /// A closed breaker whose first open lasts `reset_timeout_ms`.
    pub fn new(reset_timeout_ms: f64) -> Self {
        assert!(
            reset_timeout_ms.is_finite() && reset_timeout_ms > 0.0,
            "reset timeout must be positive and finite"
        );
        CircuitBreaker {
            state: BreakerState::Closed,
            base_timeout_ms: reset_timeout_ms,
            timeout_ms: reset_timeout_ms,
            opens: 0,
            last_close_ms: f64::NEG_INFINITY,
            flaps: 0,
            escalations: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Whether dispatches may currently include this GPU.
    pub fn admits(&self) -> bool {
        !matches!(self.state, BreakerState::Open { .. })
    }

    /// How many times the breaker has opened.
    pub fn opens(&self) -> u64 {
        self.opens
    }

    /// Consecutive flap cycles currently on record.
    pub fn flaps(&self) -> u32 {
        self.flaps
    }

    /// Quarantine escalations applied over the breaker's lifetime.
    pub fn escalations(&self) -> u64 {
        self.escalations
    }

    /// Trips the breaker at `now_ms` (fault detected on the GPU).
    /// Returns the instant the breaker becomes probeable.
    ///
    /// A trip arriving within the flap window of the last close counts
    /// as a flap cycle; one arriving later proves the close was stable
    /// and clears the flap record.
    pub fn trip(&mut self, now_ms: f64) -> f64 {
        if now_ms - self.last_close_ms <= FLAP_WINDOW_MS {
            self.flaps = self.flaps.saturating_add(1);
        } else {
            self.flaps = 0;
        }
        let until_ms = now_ms + self.timeout_ms;
        self.state = BreakerState::Open { until_ms };
        self.opens += 1;
        until_ms
    }

    /// Moves Open → HalfOpen once `now_ms` reaches the reset instant.
    /// Returns whether the transition happened.
    pub fn try_half_open(&mut self, now_ms: f64) -> bool {
        if let BreakerState::Open { until_ms } = self.state {
            if now_ms >= until_ms {
                self.state = BreakerState::HalfOpen;
                return true;
            }
        }
        false
    }

    /// Records a successful probe at `now_ms`: the breaker closes.  A
    /// well-behaved GPU gets its timeout reset to base; one with
    /// [`FLAP_THRESHOLD`] flaps on record instead keeps an
    /// *escalated* timeout — its next open quarantines it for longer.
    pub fn probe_success(&mut self, now_ms: f64) {
        debug_assert_eq!(
            self.state,
            BreakerState::HalfOpen,
            "probe without half-open"
        );
        self.state = BreakerState::Closed;
        self.last_close_ms = now_ms;
        if self.flaps >= FLAP_THRESHOLD {
            self.timeout_ms = (self.timeout_ms * FLAP_ESCALATION).min(MAX_QUARANTINE_MS);
            self.escalations += 1;
        } else {
            self.timeout_ms = self.base_timeout_ms;
        }
    }

    /// Records a failed probe: the breaker re-opens with the timeout
    /// doubled.  Returns the next probeable instant.
    pub fn probe_failure(&mut self, now_ms: f64) -> f64 {
        debug_assert_eq!(
            self.state,
            BreakerState::HalfOpen,
            "probe without half-open"
        );
        self.timeout_ms *= 2.0;
        self.trip(now_ms)
    }
}

/// The bank of breakers for an `m`-GPU platform.
#[derive(Clone, Debug)]
pub struct BreakerBank {
    breakers: Vec<CircuitBreaker>,
}

impl BreakerBank {
    /// `m` closed breakers.
    pub fn new(m: usize, reset_timeout_ms: f64) -> Self {
        BreakerBank {
            breakers: (0..m)
                .map(|_| CircuitBreaker::new(reset_timeout_ms))
                .collect(),
        }
    }

    /// The breaker of GPU `g`.
    pub fn gpu(&mut self, g: usize) -> &mut CircuitBreaker {
        &mut self.breakers[g]
    }

    /// Read-only view of GPU `g`'s breaker.
    pub fn peek(&self, g: usize) -> &CircuitBreaker {
        &self.breakers[g]
    }

    /// Per-GPU admission mask (closed or half-open ⇒ `true`).
    pub fn admitted(&self) -> Vec<bool> {
        self.breakers.iter().map(|b| b.admits()).collect()
    }

    /// Number of GPUs currently admitting traffic.
    pub fn num_admitted(&self) -> usize {
        self.breakers.iter().filter(|b| b.admits()).count()
    }

    /// Total opens across all breakers.
    pub fn total_opens(&self) -> u64 {
        self.breakers.iter().map(|b| b.opens()).sum()
    }

    /// Total quarantine escalations across all breakers.
    pub fn total_flap_escalations(&self) -> u64 {
        self.breakers.iter().map(|b| b.escalations()).sum()
    }

    /// Number of GPUs in the bank.
    pub fn len(&self) -> usize {
        self.breakers.len()
    }

    /// Whether the bank is empty (zero-GPU platform).
    pub fn is_empty(&self) -> bool {
        self.breakers.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_cycle_closed_open_halfopen_closed() {
        let mut b = CircuitBreaker::new(10.0);
        assert!(b.admits());
        let until = b.trip(5.0);
        assert_eq!(until, 15.0);
        assert!(!b.admits());
        assert!(!b.try_half_open(14.9));
        assert!(b.try_half_open(15.0));
        assert!(b.admits()); // half-open admits a probe
        b.probe_success(15.0);
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.opens(), 1);
    }

    #[test]
    fn failed_probe_doubles_the_timeout() {
        let mut b = CircuitBreaker::new(10.0);
        b.trip(0.0);
        assert!(b.try_half_open(10.0));
        let next = b.probe_failure(10.0);
        assert_eq!(next, 30.0); // 10 + doubled 20
        assert!(b.try_half_open(30.0));
        let next = b.probe_failure(30.0);
        assert_eq!(next, 70.0); // 30 + doubled 40
        assert!(b.try_half_open(70.0));
        b.probe_success(70.0);
        // Success resets the timeout to base.
        assert_eq!(b.trip(100.0), 110.0);
    }

    #[test]
    fn flapping_escalates_quarantine_and_stability_clears_it() {
        let mut b = CircuitBreaker::new(10.0);
        // Cycle 1: trip → heal; re-trip 5 ms after the close = flap 1.
        b.trip(0.0);
        assert!(b.try_half_open(10.0));
        b.probe_success(10.0);
        b.trip(15.0);
        assert_eq!(b.flaps(), 1);
        // Cycle 2: heal and re-trip again = flap 2 → threshold reached,
        // the *next* close escalates instead of resetting.
        assert!(b.try_half_open(25.0));
        b.probe_success(25.0);
        b.trip(30.0);
        assert_eq!(b.flaps(), 2);
        assert!(b.try_half_open(40.0));
        b.probe_success(40.0);
        assert_eq!(b.escalations(), 1);
        // The escalated timeout quarantines the next open 4× longer.
        assert_eq!(b.trip(45.0), 45.0 + 40.0);
        // Repeated flapping keeps escalating, capped at MAX_QUARANTINE_MS.
        for _ in 0..10 {
            let BreakerState::Open { until_ms } = b.state() else {
                panic!("open")
            };
            assert!(b.try_half_open(until_ms));
            b.probe_success(until_ms);
            b.trip(until_ms + 1.0);
        }
        let BreakerState::Open { until_ms } = b.state() else {
            panic!("open")
        };
        assert!(b.try_half_open(until_ms));
        b.probe_success(until_ms);
        assert_eq!(b.trip(until_ms + 1.0), until_ms + 1.0 + 1000.0);
        // A close that survives past the window clears the flap record:
        // the breaker trips much later and the next success resets to
        // base.
        let t = until_ms + 1.0 + 1000.0;
        assert!(b.try_half_open(t));
        b.probe_success(t);
        b.trip(t + 500.0); // 500 ms after close > 50 ms window
        assert_eq!(b.flaps(), 0);
        assert!(b.try_half_open(t + 500.0 + 1000.0));
        b.probe_success(t + 500.0 + 1000.0);
        assert_eq!(b.trip(t + 2000.0 + 500.0), t + 2500.0 + 10.0);
    }

    #[test]
    fn bank_masks_track_trips() {
        let mut bank = BreakerBank::new(3, 5.0);
        assert_eq!(bank.admitted(), vec![true, true, true]);
        bank.gpu(1).trip(0.0);
        assert_eq!(bank.admitted(), vec![true, false, true]);
        assert_eq!(bank.num_admitted(), 2);
        assert_eq!(bank.total_opens(), 1);
        assert_eq!(bank.len(), 3);
        assert!(!bank.is_empty());
    }
}
