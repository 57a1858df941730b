//! What the fleet layer allocates per request, counted exactly.
//!
//! A counting `#[global_allocator]` (hence a test binary of its own)
//! tallies the allocations made on the calling thread while
//! [`serve_fleet`] runs.  Every request is a schedule-cache hit after the
//! first per tenant, so what grows with the trace is the serving loop
//! itself: amortised `Vec` growth and nothing else.  Before the pump
//! carried each request once this was three allocations per routed
//! request (a routable mask, a ranking, a branch list).
//!
//! Release builds only: a debug build re-simulates every dispatch-memo
//! hit to assert the replay (about forty allocations a request), which
//! is the cluster's doing and drowns the count.

use hios_core::bounds;
use hios_cost::AnalyticCostModel;
use hios_graph::{LayeredDagConfig, generate_layered_dag};
use hios_serve::fleet::{FleetConfig, FleetFaults, FleetOutcome, serve_fleet};
use hios_serve::{
    ClassMix, PriorityClass, Request, ServedModel, WorkloadConfig, generate_trace_with_classes,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct Counting;

thread_local! {
    /// Allocations (fresh and grown) made by this thread.  `const`
    /// initialised and `Copy`: touching it never allocates.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    ALLOCS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only
// addition is a thread-local counter bump, which neither allocates nor
// unwinds.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

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
