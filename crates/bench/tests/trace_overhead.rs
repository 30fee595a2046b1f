//! The pay-for-what-you-use contract, measured with the counting global
//! allocator (`--features bench`): disabled hooks allocate nothing at all,
//! and an attached tracer's steady-state recording allocates nothing after
//! its preallocated ring warms up.
//!
//! The counter is process-global, so the tests in this file hold
//! [`ALLOC_WINDOW`] for their whole run: libtest runs tests on parallel
//! threads, and one test's allocations must never land in another's
//! window. The harness itself still allocates from its own threads
//! (progress lines, panic payloads), so each window is also measured
//! best-of-N: harness noise is transient, while a real per-call allocation
//! would taint every attempt with >=10k counts.
#![cfg(feature = "bench")]

use std::sync::{Mutex, MutexGuard, PoisonError};

use xheal_bench::alloc_count;
use xheal_core::{Xheal, XhealConfig};
use xheal_graph::{generators, NodeId};
use xheal_trace::{hook, Layer, SharedTracer, Tracer};

const ATTEMPTS: usize = 8;

/// Serializes the tests' measurement windows on the shared counter.
static ALLOC_WINDOW: Mutex<()> = Mutex::new(());

/// Takes [`ALLOC_WINDOW`] for the rest of the calling test. A failed test
/// poisons the lock; the next one still runs, since the counter it guards
/// carries no state across windows.
fn exclusive_counter() -> MutexGuard<'static, ()> {
    ALLOC_WINDOW.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Smallest allocation delta of `ATTEMPTS` runs of `window`.
fn min_delta(mut window: impl FnMut()) -> u64 {
    (0..ATTEMPTS)
        .map(|_| {
            let before = alloc_count();
            window();
            alloc_count() - before
        })
        .min()
        .expect("at least one attempt")
}

#[test]
fn disabled_hooks_allocate_nothing() {
    let _counter = exclusive_counter();
    let none: Option<SharedTracer> = None;
    // Warm any lazy allocator state before the measured windows.
    hook::begin(&none, Layer::Executor, "exec.repair", 1, 0);
    let delta = min_delta(|| {
        for i in 0..10_000u64 {
            hook::begin(&none, Layer::Executor, "exec.repair", i, 0);
            hook::instant(&none, Layer::Planner, "plan.case", i, 2);
            hook::begin_lane(&none, 3, Layer::Planner, "spec.component", i, 0);
            hook::end_lane(&none, 3, Layer::Planner, "spec.component", i, 0);
            hook::bump(&none, "repairs", 1);
            hook::end(&none, Layer::Executor, "exec.repair", i, 0);
        }
    });
    assert_eq!(delta, 0, "the disabled-tracer path must be branch-only");
}

#[test]
fn attached_tracer_records_without_steady_state_allocations() {
    let _counter = exclusive_counter();
    let tracer = Tracer::shared(1 << 10);
    let handle = Some(tracer.clone());
    // Warm-up: touch every lane and the metrics counter once (first use
    // allocates their registry entries), and wrap the ring at least once.
    for i in 0..2_000u64 {
        hook::begin(&handle, Layer::Executor, "exec.repair", i, 0);
        hook::begin_lane(&handle, 1, Layer::Planner, "spec.component", i, 0);
        hook::end_lane(&handle, 1, Layer::Planner, "spec.component", i, 0);
        hook::bump(&handle, "repairs", 1);
        hook::end(&handle, Layer::Executor, "exec.repair", i, 0);
    }
    let delta = min_delta(|| {
        for i in 0..10_000u64 {
            hook::begin(&handle, Layer::Executor, "exec.repair", i, 0);
            hook::begin_lane(&handle, 1, Layer::Planner, "spec.component", i, 0);
            hook::end_lane(&handle, 1, Layer::Planner, "spec.component", i, 0);
            hook::bump(&handle, "repairs", 1);
            hook::end(&handle, Layer::Executor, "exec.repair", i, 0);
        }
    });
    assert_eq!(
        delta, 0,
        "steady-state recording must reuse the preallocated ring"
    );
    let t = hook::lock(&tracer);
    assert!(t.dropped() > 0, "the ring should have wrapped");
    assert_eq!(t.len(), t.capacity());
}

#[test]
fn untraced_engine_churn_is_alloc_identical_to_seed_behavior() {
    let _counter = exclusive_counter();
    // The instrumented engine with no tracer attached must allocate
    // exactly as much as an identical run: the hooks contribute zero, so
    // two identical seeded schedules have identical allocation counts.
    let run = || {
        min_delta(|| {
            let g0 = generators::ring_with_chords(96);
            let mut eng = Xheal::new(&g0, XhealConfig::new(4).with_seed(11));
            for i in 0..24u64 {
                let v = NodeId::new((i * 7) % 96);
                if eng.graph().contains_node(v) {
                    eng.heal_delete(v).expect("victim is live");
                }
            }
        })
    };
    let (a, b) = (run(), run());
    assert!(a > 0, "engine churn should allocate (sanity)");
    assert_eq!(a, b);
}
