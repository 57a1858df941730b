//! Property tests of the circuit breakers (ISSUE 8 satellite): the
//! admission invariant (an open GPU is never dispatched to), monotone
//! probe backoff, and the flap-detection guarantee that a GPU cycling
//! fail/heal is eventually quarantined at the escalation cap.

use hios_serve::breaker::{FLAP_WINDOW_MS, MAX_QUARANTINE_MS};
use hios_serve::{BreakerBank, CircuitBreaker};
use proptest::prelude::*;

/// Deterministic unit-interval stream for in-test sequences (the shim
/// strategies generate scalars and tuples, not collections).
fn unit(seed: u64, k: u64) -> f64 {
    let mut x = seed
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    (x >> 11) as f64 / (1u64 << 53) as f64
}

proptest! {
    /// An open breaker admits nothing until its reset instant: every
    /// probe strictly before `until` is refused and leaves the breaker
    /// open; the first probe at `until` half-opens it.
    #[test]
    fn open_breaker_never_admits_before_its_reset_instant(
        (start, timeout, seed, probes) in (0.0f64..1.0e5, 0.1f64..100.0, 0u64..1 << 32, 1u64..20)
    ) {
        let mut b = CircuitBreaker::new(timeout);
        prop_assert!(b.admits());
        let until = b.trip(start);
        prop_assert!(!b.admits());
        for k in 0..probes {
            let t = start + 0.999 * unit(seed, k) * timeout;
            prop_assert!(!b.try_half_open(t));
            prop_assert!(!b.admits());
        }
        prop_assert!(b.try_half_open(until));
        prop_assert!(b.admits());
    }
}

proptest! {
    /// The bank's admission mask is exactly the complement of the open
    /// set, whatever subset of GPUs is tripped.
    #[test]
    fn bank_admission_mask_tracks_open_breakers(mask in 0u32..256) {
        let m = 8;
        let mut bank = BreakerBank::new(m, 10.0);
        for g in 0..m {
            if mask & (1 << g) != 0 {
                bank.gpu(g).trip(1.0);
            }
        }
        let admitted = bank.admitted();
        let mut expect = 0;
        for (g, &adm) in admitted.iter().enumerate() {
            let tripped = mask & (1 << g) != 0;
            prop_assert_eq!(adm, !tripped);
            expect += usize::from(!tripped);
        }
        prop_assert_eq!(bank.num_admitted(), expect);
    }
}

proptest! {
    /// Failed probes only ever lengthen the quarantine: the open window
    /// returned by each successive `probe_failure` is at least as long
    /// as the previous one.
    #[test]
    fn failed_probe_backoff_is_monotone((timeout, fails) in (0.1f64..50.0, 1usize..12)) {
        let mut b = CircuitBreaker::new(timeout);
        let mut now = 0.0;
        let mut until = b.trip(now);
        let mut prev_gap = until - now;
        for _ in 0..fails {
            now = until;
            prop_assert!(b.try_half_open(now));
            until = b.probe_failure(now);
            let gap = until - now;
            prop_assert!(gap >= prev_gap, "gap {gap} shrank from {prev_gap}");
            prev_gap = gap;
        }
    }
}

proptest! {
    /// A GPU that keeps cycling trip → heal → trip inside the flap
    /// window racks up escalations until its quarantine saturates at
    /// the configured cap — it cannot flap forever at the base timeout.
    #[test]
    fn flapping_gpu_is_eventually_quarantined_at_the_cap(
        (base, seed) in (1.0f64..5.0, 0u64..1 << 32)
    ) {
        let mut b = CircuitBreaker::new(base);
        let mut now = 0.0;
        let mut longest_open = 0.0f64;
        for k in 0..30 {
            let until = b.trip(now);
            longest_open = longest_open.max(until - now);
            now = until;
            prop_assert!(b.try_half_open(now));
            b.probe_success(now);
            // Re-fail strictly within the flap window of the close.
            now += 0.8 * FLAP_WINDOW_MS * unit(seed, k);
        }
        prop_assert!(b.escalations() >= 1, "flapping never escalated");
        prop_assert!(
            longest_open >= MAX_QUARANTINE_MS,
            "quarantine never reached the cap: longest {longest_open} < {MAX_QUARANTINE_MS}"
        );
    }
}

proptest! {
    /// One stable close (longer than the flap window) clears the flap
    /// record, and the next successful probe resets the timeout to
    /// base: past flapping is forgiven once the GPU proves stable.
    #[test]
    fn stable_close_resets_the_quarantine_to_base(
        (base, cycles) in (1.0f64..5.0, 3usize..10)
    ) {
        let mut b = CircuitBreaker::new(base);
        let mut now = 0.0;
        for _ in 0..cycles {
            let until = b.trip(now);
            now = until;
            prop_assert!(b.try_half_open(now));
            b.probe_success(now);
            now += 1.0; // flap: re-fail right away
        }
        prop_assert!(b.escalations() >= 1);
        // Stay up past the window: the next trip is not a flap, and its
        // successful probe drops the timeout back to base.
        now += FLAP_WINDOW_MS + 1.0;
        let until = b.trip(now);
        prop_assert_eq!(b.flaps(), 0);
        now = until;
        prop_assert!(b.try_half_open(now));
        b.probe_success(now);
        let reopened = b.trip(now + FLAP_WINDOW_MS + 1.0);
        prop_assert!(
            (reopened - (now + FLAP_WINDOW_MS + 1.0) - base).abs() < 1e-9,
            "timeout must be back at base"
        );
    }
}
