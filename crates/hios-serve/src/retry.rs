//! Retry policy: exponential backoff with deterministic jitter, plus a
//! global retry budget.
//!
//! A request invalidated mid-flight (GPU fault with no repair path,
//! watchdog timeout, all breakers open) is re-enqueued after a backoff
//! of `base · 2^(attempt−1)` plus a jitter drawn from a splitmix-style
//! hash of `(request id, attempt)` — decorrelated like the classic
//! "full jitter" scheme, but reproducible: the same request retries at
//! the same instants in every run, at any thread count.
//!
//! Per-request backoff bounds *one* request's aggression; it does not
//! stop a *fleet* of failed requests from retrying in lockstep after a
//! correlated fault and holding the server in a metastable state where
//! all capacity goes to doomed retries.  [`RetryBudget`] guards that:
//! retries across the whole server are capped at a fraction of fresh
//! admissions per tumbling window, so retry traffic can never crowd out
//! first-attempt traffic.

/// Maximum execution attempts per request.
const MAX_ATTEMPTS: u32 = 4;
/// Backoff before attempt 2, ms; doubles per further attempt.
const BASE_BACKOFF_MS: f64 = 2.0;
/// Upper bound of the deterministic jitter added to each backoff, ms.
const JITTER_MS: f64 = 1.0;

/// Whether another attempt is allowed after `attempts` tries.
pub(crate) fn allows(attempts: u32) -> bool {
    attempts < MAX_ATTEMPTS
}

/// Backoff before attempt `attempts + 1`, ms.
///
/// `attempts` is the number of attempts already made (≥ 1);
/// `attempts == 0` is out of contract but saturates to the base backoff
/// rather than underflowing the exponent.
pub(crate) fn backoff_ms(request_id: u64, attempts: u32) -> f64 {
    // cap the doubling, not the retries
    let exp = attempts.saturating_sub(1).min(16);
    let backoff = BASE_BACKOFF_MS * f64::from(1u32 << exp);
    backoff + JITTER_MS * unit_hash(request_id, attempts)
}

/// Knobs of the global retry budget.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RetryBudgetConfig {
    /// Tumbling-window length, ms.
    pub window_ms: f64,
    /// Retries allowed per window as a fraction of the window's fresh
    /// admissions.
    pub fraction: f64,
    /// Retries always allowed per window regardless of admissions, so a
    /// lone failed request on an idle server can still retry.
    pub floor: u32,
}

impl Default for RetryBudgetConfig {
    fn default() -> Self {
        RetryBudgetConfig {
            window_ms: 50.0,
            fraction: 0.2,
            floor: 1,
        }
    }
}

impl RetryBudgetConfig {
    /// Rejects a non-positive window or a non-finite/negative fraction.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.window_ms > 0.0 && self.window_ms.is_finite()) {
            return Err(format!("window_ms {} must be finite > 0", self.window_ms));
        }
        if !(self.fraction >= 0.0 && self.fraction.is_finite()) {
            return Err(format!("fraction {} must be finite >= 0", self.fraction));
        }
        Ok(())
    }
}

/// Server-global retry-storm guard: a tumbling window counting fresh
/// admissions and retries, denying retries past
/// `floor + fraction × admissions`.
///
/// Driven entirely by the virtual clock, so it is deterministic and
/// free at any thread count.
#[derive(Clone, Debug)]
pub struct RetryBudget {
    cfg: RetryBudgetConfig,
    /// Start of the current window, ms.
    window_start_ms: f64,
    /// Fresh admissions in the current window.
    admissions: u32,
    /// Retries granted in the current window.
    retries: u32,
    /// Total retries denied over the run.
    denied: u64,
}

impl RetryBudget {
    /// A fresh budget; panics on an invalid config.
    pub fn new(cfg: RetryBudgetConfig) -> Self {
        cfg.validate().expect("invalid retry budget config");
        RetryBudget {
            cfg,
            window_start_ms: 0.0,
            admissions: 0,
            retries: 0,
            denied: 0,
        }
    }

    /// Advances the tumbling window to the one containing `now_ms`.
    fn roll(&mut self, now_ms: f64) {
        if now_ms - self.window_start_ms >= self.cfg.window_ms {
            let windows = ((now_ms - self.window_start_ms) / self.cfg.window_ms).floor();
            self.window_start_ms += windows * self.cfg.window_ms;
            self.admissions = 0;
            self.retries = 0;
        }
    }

    /// Records one fresh admission at `now_ms`.
    pub fn note_admission(&mut self, now_ms: f64) {
        self.roll(now_ms);
        self.admissions = self.admissions.saturating_add(1);
    }

    /// Asks for one retry token at `now_ms`; `true` grants it.
    pub fn try_retry(&mut self, now_ms: f64) -> bool {
        self.roll(now_ms);
        let cap = self.cfg.floor as u64 + (self.cfg.fraction * f64::from(self.admissions)) as u64;
        if u64::from(self.retries) < cap {
            self.retries += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Total retries denied over the run.
    pub fn denied(&self) -> u64 {
        self.denied
    }
}

/// Deterministic hash of `(id, attempt)` mapped into `[0, 1)`.
///
/// The attempt index gets its own multiplicative stage before the
/// finalizer.  A bare `^ attempt` only perturbs the low bits of the
/// pre-mix state, leaving consecutive attempts of one request with
/// nearly identical inputs — exactly the correlation jitter exists to
/// destroy.
fn unit_hash(id: u64, attempt: u32) -> f64 {
    // splitmix64 finalizer over the independently-mixed pair.
    let mut x = id
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(u64::from(attempt).wrapping_mul(0xd1b5_4a32_d192_ed03));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_and_jitter_is_bounded() {
        let b1 = backoff_ms(42, 1);
        let b2 = backoff_ms(42, 2);
        let b3 = backoff_ms(42, 3);
        assert!((2.0..3.0).contains(&b1), "b1 = {b1}");
        assert!((4.0..5.0).contains(&b2), "b2 = {b2}");
        assert!((8.0..9.0).contains(&b3), "b3 = {b3}");
    }

    #[test]
    fn jitter_is_deterministic_and_decorrelated() {
        assert_eq!(backoff_ms(7, 1), backoff_ms(7, 1));
        // Different requests retry at different offsets.
        assert_ne!(backoff_ms(7, 1), backoff_ms(8, 1));
    }

    #[test]
    fn attempt_budget_is_enforced() {
        assert!(allows(MAX_ATTEMPTS - 1));
        assert!(!allows(MAX_ATTEMPTS));
    }

    #[test]
    fn retry_budget_caps_retries_per_window() {
        let mut b = RetryBudget::new(RetryBudgetConfig {
            window_ms: 50.0,
            fraction: 0.2,
            floor: 1,
        });
        // 10 admissions → cap = 1 + 0.2·10 = 3 retries this window.
        for _ in 0..10 {
            b.note_admission(5.0);
        }
        assert!(b.try_retry(10.0));
        assert!(b.try_retry(11.0));
        assert!(b.try_retry(12.0));
        assert!(!b.try_retry(13.0));
        assert!(!b.try_retry(49.9));
        assert_eq!(b.denied(), 2);
        // New window: counters reset, floor applies with no admissions.
        assert!(b.try_retry(55.0));
        assert!(!b.try_retry(56.0));
        assert_eq!(b.denied(), 3);
    }

    #[test]
    fn retry_budget_floor_allows_idle_server_retry() {
        let mut b = RetryBudget::new(RetryBudgetConfig::default());
        // No admissions at all — the floor still grants one retry.
        assert!(b.try_retry(0.0));
        assert!(!b.try_retry(1.0));
    }

    #[test]
    fn bad_budget_configs_are_rejected() {
        assert!(
            RetryBudgetConfig {
                window_ms: 0.0,
                ..RetryBudgetConfig::default()
            }
            .validate()
            .is_err()
        );
        assert!(
            RetryBudgetConfig {
                fraction: f64::NAN,
                ..RetryBudgetConfig::default()
            }
            .validate()
            .is_err()
        );
        assert!(RetryBudgetConfig::default().validate().is_ok());
    }

    #[test]
    fn jitter_mixes_the_attempt_index() {
        // Regression: consecutive attempts of the same request must draw
        // decorrelated jitter, not near-identical values from a low-bit
        // XOR.  All (id, attempt) pairs hash distinctly, and one
        // request's attempts spread across the unit interval.
        let mut seen = std::collections::BTreeSet::new();
        for id in 0..64u64 {
            let mut lo = f64::INFINITY;
            let mut hi = f64::NEG_INFINITY;
            for attempt in 1..=6u32 {
                let u = unit_hash(id, attempt);
                assert!(seen.insert(u.to_bits()), "collision at ({id}, {attempt})");
                lo = lo.min(u);
                hi = hi.max(u);
            }
            assert!(hi - lo > 0.2, "id {id}: attempts cluster in [{lo}, {hi}]");
        }
    }

    #[test]
    fn backoff_before_attempt_zero_does_not_underflow() {
        // `attempts` is contractually ≥ 1; a buggy caller passing 0 must
        // get the base backoff, not a 2^(u32::MAX) panic or garbage.
        let b = backoff_ms(1, 0);
        assert!(b >= BASE_BACKOFF_MS && b.is_finite());
    }

    #[test]
    fn unit_hash_stays_in_unit_interval() {
        for id in 0..200u64 {
            for attempt in 1..6u32 {
                let u = unit_hash(id, attempt);
                assert!((0.0..1.0).contains(&u), "u = {u}");
            }
        }
    }
}
