//! Trace determinism: the span-tree projection (`Tracer::span_tree`) is a
//! pure function of the seed — identical seeds produce identical trees for
//! the distributed protocol stack — plus the chrome exporter's balance
//! invariant and the ledger/counter cross-check.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{Event, HealingEngine, Xheal, XhealConfig};
use xheal_dist::DistXheal;
use xheal_graph::{generators, NodeId};
use xheal_trace::{hook, EvKind, Layer, Tracer, TreeEvent};

const KAPPA: usize = 4;

/// A seeded churn schedule over a ring-with-chords overlay: `singles`
/// single deletions then one clustered batch of `batch` victims.
fn schedule(n: usize, seed: u64, singles: usize, batch: usize) -> (Vec<NodeId>, Vec<NodeId>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut live: Vec<NodeId> = generators::ring_with_chords(n).nodes().collect();
    let victims = (0..singles)
        .map(|_| live.swap_remove(rng.random_range(0..live.len())))
        .collect();
    let batch = (0..batch)
        .map(|_| live.swap_remove(rng.random_range(0..live.len())))
        .collect();
    (victims, batch)
}

/// Runs the distributed stack under a tracer and returns the span tree.
fn dist_tree(n: usize, seed: u64, singles: usize, batch: usize) -> Vec<TreeEvent> {
    let tracer = Tracer::shared(1 << 14);
    let g0 = generators::ring_with_chords(n);
    let mut net = DistXheal::new(&g0, XhealConfig::new(KAPPA).with_seed(seed));
    net.set_tracer(Some(tracer.clone()));
    let (victims, batched) = schedule(n, seed, singles, batch);
    for v in victims {
        net.delete(v).expect("victim is live");
    }
    net.delete_batch(&batched).expect("victims are live");
    let tree = hook::lock(&tracer).span_tree();
    // The forensics ledger's protocol totals agree with the engine's own
    // cost accounting — the ledger is not a parallel bookkeeping system.
    let traced: u64 = hook::lock(&tracer)
        .forensics()
        .repairs
        .iter()
        .map(|r| r.instant_arg_sum("proto.done"))
        .sum();
    assert_eq!(traced, net.counters().messages);
    tree
}

/// Layers present in a tree (the acceptance surface: a healed distributed
/// run shows planner, protocol, and transport; adding any executor-layer
/// source pushes past the four-layer floor).
fn layers(tree: &[TreeEvent]) -> Vec<Layer> {
    let mut out: Vec<Layer> = tree.iter().map(|e| e.layer).collect();
    out.sort();
    out.dedup();
    out
}

#[test]
fn identical_seeds_identical_dist_trees() {
    let a = dist_tree(96, 23, 8, 6);
    let b = dist_tree(96, 23, 8, 6);
    assert!(!a.is_empty());
    assert_eq!(a, b);
    let ls = layers(&a);
    for l in [Layer::Planner, Layer::Protocol, Layer::Transport] {
        assert!(ls.contains(&l), "missing {l:?} in {ls:?}");
    }
}

#[test]
fn different_seeds_differ() {
    // Sanity: the tree is not a constant — the determinism assertions
    // above would pass vacuously if it were.
    assert_ne!(dist_tree(96, 23, 8, 6), dist_tree(96, 24, 8, 6));
}

#[test]
fn chrome_export_is_balanced_and_monotone() {
    let tracer = Tracer::shared(1 << 12);
    let g0 = generators::ring_with_chords(64);
    let mut eng = Xheal::new(&g0, XhealConfig::new(KAPPA).with_seed(9));
    eng.set_tracer(Some(tracer.clone()));
    let (victims, batched) = schedule(64, 9, 6, 5);
    for v in victims {
        eng.heal_delete(v).expect("victim is live");
    }
    eng.apply(&Event::DeleteBatch { nodes: batched })
        .expect("victims are live");
    let t = hook::lock(&tracer);
    let json = t.chrome_trace_json();
    assert!(json.contains("\"traceEvents\""));
    assert!(json.contains("\"displayTimeUnit\""));
    assert_eq!(
        json.matches("\"ph\": \"B\"").count(),
        json.matches("\"ph\": \"E\"").count(),
        "unbalanced duration events"
    );
    // Executor spans wrap planner spans in the tree.
    let tree = t.span_tree();
    assert!(tree
        .iter()
        .any(|e| e.layer == Layer::Planner && e.depth > 0 && e.kind == EvKind::Begin));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Identical seeds give identical distributed span trees for arbitrary
    /// schedule shapes.
    #[test]
    fn prop_dist_trees_deterministic(
        seed in 0u64..1_000_000,
        n in 48usize..96,
        singles in 2usize..8,
        batch in 3usize..7,
    ) {
        prop_assert_eq!(
            dist_tree(n, seed, singles, batch),
            dist_tree(n, seed, singles, batch)
        );
    }
}
