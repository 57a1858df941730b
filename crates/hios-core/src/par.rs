//! Internal dispatch for the rayon fan-out of candidate trials.
//!
//! Both HIOS schedulers evaluate independent candidate mappings in their
//! inner loops (Alg. 1 tries a path on every GPU; Alg. 3 fills a table
//! row per predecessor GPU).  With the `rayon` feature (default) those
//! trials run on a thread pool *when the instance is large enough to
//! amortize the dispatch*; otherwise — and always without the feature —
//! they run sequentially.  Either way the caller receives results in
//! item order, so the deterministic lowest-index tie-breaks are
//! unaffected by the thread count.
//!
//! Arena contract: each trial item *owns* its pooled scratch (a
//! [`crate::eval::ListState`], placement map, stamp vector, …) moved in
//! by value and handed back through the result, while everything
//! read-only — the [`crate::dense::DenseContext`], priority order,
//! committed placements — is captured by shared reference.  Trials
//! therefore never contend on memory, allocations survive across steps
//! no matter which thread ran the trial, and the sequential and parallel
//! paths execute byte-for-byte the same work.

use std::sync::OnceLock;

/// Minimum operator count before HIOS-LP fans its per-GPU path trials
/// out to the pool; below this the per-trial work is smaller than the
/// dispatch overhead.
pub(crate) const LP_PAR_MIN_OPS: usize = 512;

/// Work threshold (`i · kmax`, i.e. replay length times trial count) for
/// fanning out one row of the HIOS-MR record table.  Overridable through
/// `HIOS_MR_PAR_THRESHOLD` (read once per process) so the determinism
/// tests can force the parallel path on small instances.
pub(crate) fn mr_par_threshold() -> usize {
    static THRESHOLD: OnceLock<usize> = OnceLock::new();
    *THRESHOLD.get_or_init(|| {
        std::env::var("HIOS_MR_PAR_THRESHOLD")
            .ok()
            .and_then(|s| s.parse().ok())
            .unwrap_or(1 << 16)
    })
}

/// Smallest pool both fan-outs (the LP path trials and the MR table
/// rows) use.  The in-tree `rayon` stand-in has no persistent pool: every
/// parallel call spawns its workers as scoped threads and parks the
/// caller until they finish, and the schedulers make one such call per
/// path or table row.  With two workers that buys at most a halving of a
/// sub-millisecond batch and pays two thread spawns for it — measured on
/// the 2-vCPU recording box it is a net loss and triples the run-to-run
/// spread (EXPERIMENTS.md, "fan-out gate") — so a 2-thread pool runs its
/// trials inline.  Three threads and up behave as before; they could not
/// be measured on that box.
#[cfg(feature = "rayon")]
const MIN_FAN_OUT_THREADS: usize = 3;

/// Maps `f` over `items`, in parallel when `parallel` is set, the
/// `rayon` feature is enabled and the pool has at least
/// `MIN_FAN_OUT_THREADS` threads.  Results are always returned in item
/// order.
pub(crate) fn map_candidates<T, R, F>(items: Vec<T>, parallel: bool, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    #[cfg(feature = "rayon")]
    if parallel && rayon::current_num_threads() >= MIN_FAN_OUT_THREADS {
        use rayon::prelude::*;
        return items.into_par_iter().map(f).collect();
    }
    let _ = parallel;
    items.into_iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_candidates_preserves_order() {
        for parallel in [false, true] {
            let out = map_candidates((0..100usize).collect(), parallel, |i| i * 3);
            assert_eq!(out, (0..100).map(|i| i * 3).collect::<Vec<_>>());
        }
    }
}
