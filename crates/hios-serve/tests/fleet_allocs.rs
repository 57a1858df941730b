//! What a request allocates and holds in the serving stack, counted
//! exactly.
//!
//! A counting `#[global_allocator]` (hence a test binary of its own)
//! tallies the allocations made on the calling thread while [`serve`] or
//! [`serve_fleet`] runs, and the heap bytes live on its account with
//! their high-water mark.  Every request is a schedule-cache hit after
//! the first per tenant, so what grows with the trace is the serving loop
//! itself.  Allocations: amortised `Vec` growth and nothing else — before
//! the pump carried each request once this was three allocations per
//! routed request (a routable mask, a ranking, a branch list).  Peak
//! bytes: what the outcome keeps per request (its records, each written
//! once in its place) and what building it costs (the report's
//! latencies), and no per-request serving state — before request slots
//! were recycled every request ever seen kept one, and before records
//! were placed they were cloned and sorted through scratch copies.
//!
//! Release builds only: a debug build re-simulates every dispatch-memo
//! hit to assert the replay (about forty allocations a request), which
//! is the cluster's doing and drowns the count.

use hios_core::bounds;
use hios_cost::AnalyticCostModel;
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use hios_serve::fleet::{FleetConfig, FleetFaults, FleetOutcome, serve_fleet};
use hios_serve::{
    ClassMix, PriorityClass, Request, ServeConfig, ServedModel, WorkloadConfig,
    generate_trace_with_classes, serve,
};
use hios_sim::FaultPlan;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations (fresh and grown) made by this thread.  `const`
    /// initialised and `Copy`: touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Heap bytes allocated minus freed by this thread (a block freed by
    /// another thread stays on the allocating thread's account).
    static LIVE: Cell<i64> = const { Cell::new(0) };
    /// The most `LIVE` has been since [`peak_above`] last reset it.
    static PEAK: Cell<i64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

/// Moves this thread's live bytes by `delta` (a realloc by its net
/// change) and keeps the high-water mark.
fn hold(delta: i64) {
    let live = LIVE.with(|live| {
        live.set(live.get() + delta);
        live.get()
    });
    PEAK.with(|peak| peak.set(peak.get().max(live)));
}

fn bytes(n: usize) -> i64 {
    i64::try_from(n).unwrap_or(i64::MAX)
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is thread-local bookkeeping, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        hold(bytes(layout.size()));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        hold(-bytes(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        hold(bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`; returns the most heap bytes it held on this thread above
/// what was live when it started, and its result.
fn peak_above<R>(f: impl FnOnce() -> R) -> (i64, R) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (PEAK.with(Cell::get) - base, out)
}

fn models() -> Vec<ServedModel> {
    [(5u64, 12), (6, 16), (7, 14)]
        .into_iter()
        .map(|(seed, ops)| {
            let graph = generate_layered_dag(&LayeredDagConfig {
                ops,
                layers: 4,
                deps: ops * 2,
                seed,
            })
            .unwrap();
            let cost = AnalyticCostModel::a40_nvlink().build_table(&graph);
            ServedModel {
                name: format!("dag{seed}"),
                graph,
                cost,
            }
        })
        .collect()
}

fn nominal_ms(models: &[ServedModel]) -> Vec<f64> {
    models
        .iter()
        .map(|m| bounds::combined_bound(&m.graph, &m.cost, 2))
        .collect()
}

/// `n` requests at a light load, deadlines at `deadline_factor` bounds.
fn trace(models: &[ServedModel], n: usize, deadline_factor: f64) -> Vec<Request> {
    generate_trace_with_classes(
        &WorkloadConfig {
            requests: n,
            arrival_rate_rps: 400.0,
            deadline_factor,
            seed: 17,
        },
        &nominal_ms(models),
        &ClassMix::default(),
    )
}

/// Serves `trace` fault-free on four clusters; returns the allocations
/// the call made on this thread, and its outcome.
fn counted(models: &[ServedModel], trace: &[Request], hedge: bool) -> (u64, FleetOutcome) {
    let mut cfg = FleetConfig::new(4, 2);
    cfg.hedge = hedge;
    let before = ALLOCS.with(Cell::get);
    let out = serve_fleet(models, trace, &FleetFaults::none(), &cfg).unwrap();
    (ALLOCS.with(Cell::get) - before, out)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-simulate every memo hit")]
fn a_routed_request_allocates_nothing_of_its_own() {
    const N: usize = 4_000;
    let models = models();
    let (small, out) = counted(&models, &trace(&models, N, 40.0), true);
    assert_eq!(out.report.completed, N, "loose deadlines: nothing is shed");
    assert_eq!(out.report.hedges_issued, 0);
    let (large, out) = counted(&models, &trace(&models, 2 * N, 40.0), true);
    assert_eq!(out.report.completed, 2 * N);
    let per_request = (large as f64 - small as f64) / N as f64;
    assert!(
        per_request <= 0.05,
        "{per_request} allocations per added request ({small} at {N}, {large} at {})",
        2 * N
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-simulate every memo hit")]
fn a_hedged_request_costs_at_most_one_allocation_more() {
    const N: usize = 4_000;
    let models = models();
    let nominal = nominal_ms(&models);
    // Gold deadlines at 3x the bound: under the hedger's 4x threshold.
    let tight = |n: usize| {
        let mut trace = trace(&models, n, 40.0);
        for r in trace.iter_mut().filter(|r| r.class == PriorityClass::Gold) {
            r.deadline_ms = r.arrival_ms + 3.0 * nominal[r.model];
        }
        trace
    };
    // Growth between two hedged runs, so that what a cluster spends once
    // on scheduling a tenant it only ever sees as a twin cancels out.
    let (small, out) = counted(&models, &tight(N), true);
    let few = out.report.hedges_issued;
    let (large, out) = counted(&models, &tight(2 * N), true);
    let added = out.report.hedges_issued - few;
    assert!(added > 500, "tight Golds must hedge, {added} more did");
    let per_hedge = (large as f64 - small as f64) / added as f64;
    assert!(
        per_hedge <= 1.0,
        "{per_hedge} allocations per added hedge ({small} with {few} hedges, {large} with {added} more)"
    );
}

/// Peak heap bytes per request added between an `N`- and a `2N`-request
/// run of `run`, each served from a trace built (by `shape`) before
/// counting starts.
fn peak_per_added_request<R>(
    models: &[ServedModel],
    shape: impl Fn(&mut [Request]),
    run: impl Fn(&[Request]) -> R,
) -> (f64, i64, i64) {
    const N: usize = 8_000;
    let mut small_trace = trace(models, N, 40.0);
    let mut large_trace = trace(models, 2 * N, 40.0);
    shape(&mut small_trace);
    shape(&mut large_trace);
    let (small, _) = peak_above(|| run(&small_trace));
    let (large, _) = peak_above(|| run(&large_trace));
    ((large - small) as f64 / N as f64, small, large)
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-simulate every memo hit")]
fn a_served_request_holds_its_record_and_little_else() {
    let models = models();
    let cfg = ServeConfig::new(2);
    let (per_request, small, large) = peak_per_added_request(
        &models,
        |_| {},
        |trace| {
            let out = serve(&models, trace, &FaultPlan::none(), &cfg).unwrap();
            assert_eq!(out.report.completed, trace.len());
            out
        },
    );
    // 82: the 72-byte record, written once in its place, and the
    // report's latency.  It was 106 while a shed reason held a retry
    // error inline (a 96-byte record), 192 while the records were pushed
    // and then id-sorted through a scratch copy, and 256 before that
    // with a 56-byte state per request ever seen.
    assert!(
        per_request <= 90.0,
        "{per_request} peak bytes per added request ({small} B, then {large} B)"
    );
}

/// Serves each trace fault-free on four clusters, checking that nothing
/// is shed.
fn fleet_run(models: &[ServedModel]) -> impl Fn(&[Request]) -> FleetOutcome + '_ {
    let cfg = FleetConfig::new(4, 2);
    move |trace| {
        let out = serve_fleet(models, trace, &FleetFaults::none(), &cfg).unwrap();
        assert_eq!(out.report.completed, trace.len());
        out
    }
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-simulate every memo hit")]
fn a_routed_request_holds_its_records_and_little_else() {
    let models = models();
    let (per_request, small, large) = peak_per_added_request(&models, |_| {}, fleet_run(&models));
    // 170: the 88-byte fate written in its place, the 72-byte cluster
    // record rebuilt from it at the end, and the report's latency.
    // It was 218 with 112- and 96-byte records (a shed reason
    // holding a retry error inline), 416 with a 144-byte state per
    // request for the whole run, a clone of every cluster record and the
    // id sorts' scratch, and 534 before that.
    assert!(
        per_request <= 185.0,
        "{per_request} peak bytes per added request ({small} B, then {large} B)"
    );
}

#[test]
#[cfg_attr(debug_assertions, ignore = "debug builds re-simulate every memo hit")]
fn a_routed_request_of_an_id_unsorted_trace_holds_little_more() {
    let models = models();
    // Neighbours trade ids: the fates are placed through a permutation,
    // and each cluster's records are sorted once rebuilt.
    let swap_ids = |trace: &mut [Request]| {
        for pair in trace.chunks_exact_mut(2) {
            let id = pair[0].id;
            pair[0].id = pair[1].id;
            pair[1].id = id;
        }
    };
    let (per_request, small, large) = peak_per_added_request(&models, swap_ids, fleet_run(&models));
    // 170 (88 + 72 + the latency), as for a sorted trace: the
    // permutation is gone before the cluster records are rebuilt.
    assert!(
        per_request <= 185.0,
        "{per_request} peak bytes per added request ({small} B, then {large} B)"
    );
}
