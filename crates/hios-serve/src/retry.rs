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

use hios_graph::hash::splitmix64;

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

/// Tumbling-window length of the global retry budget, ms.
const BUDGET_WINDOW_MS: f64 = 50.0;
/// Retries allowed per window as a fraction of the window's fresh
/// admissions.
const BUDGET_FRACTION: f64 = 0.2;
/// Retries always allowed per window regardless of admissions, so a
/// lone failed request on an idle server can still retry.
const BUDGET_FLOOR: u64 = 1;

const _: () = {
    assert!(BUDGET_WINDOW_MS > 0.0 && BUDGET_WINDOW_MS.is_finite());
    assert!(BUDGET_FRACTION >= 0.0 && BUDGET_FRACTION.is_finite());
};

/// Server-global retry-storm guard: a tumbling window counting fresh
/// admissions and retries, denying retries past
/// `BUDGET_FLOOR + BUDGET_FRACTION × admissions`.
///
/// Driven entirely by the virtual clock, so it is deterministic and
/// free at any thread count.
#[derive(Clone, Debug, Default)]
pub(crate) struct RetryBudget {
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
    /// Advances the tumbling window to the one containing `now_ms`.
    fn roll(&mut self, now_ms: f64) {
        if now_ms - self.window_start_ms >= BUDGET_WINDOW_MS {
            let windows = ((now_ms - self.window_start_ms) / BUDGET_WINDOW_MS).floor();
            self.window_start_ms += windows * BUDGET_WINDOW_MS;
            self.admissions = 0;
            self.retries = 0;
        }
    }

    /// Records one fresh admission at `now_ms`.
    pub(crate) fn note_admission(&mut self, now_ms: f64) {
        self.roll(now_ms);
        self.admissions = self.admissions.saturating_add(1);
    }

    /// Asks for one retry token at `now_ms`; `true` grants it.
    pub(crate) fn try_retry(&mut self, now_ms: f64) -> bool {
        self.roll(now_ms);
        let cap = BUDGET_FLOOR + (BUDGET_FRACTION * f64::from(self.admissions)) as u64;
        if u64::from(self.retries) < cap {
            self.retries += 1;
            true
        } else {
            self.denied += 1;
            false
        }
    }

    /// Total retries denied over the run.
    pub(crate) fn denied(&self) -> u64 {
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
    let x = splitmix64(
        id.wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .wrapping_add(u64::from(attempt).wrapping_mul(0xd1b5_4a32_d192_ed03)),
    );
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
        let mut b = RetryBudget::default();
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
        let mut b = RetryBudget::default();
        // No admissions at all — the floor still grants one retry.
        assert!(b.try_retry(0.0));
        assert!(!b.try_retry(1.0));
    }

    #[test]
    fn unit_hash_bits_are_pinned() {
        // The retry jitter sets when every retry lands, so the chaos and
        // fleet digests depend on these exact bits.
        let bits: Vec<u64> = [(0, 1), (7, 1), (7, 2), (u64::MAX, 5)]
            .map(|(id, attempt)| unit_hash(id, attempt).to_bits())
            .to_vec();
        assert_eq!(
            bits,
            vec![
                4_602_750_521_774_661_027,
                4_602_321_225_167_674_764,
                4_602_707_186_842_309_567,
                4_603_808_364_891_624_011,
            ]
        );
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
