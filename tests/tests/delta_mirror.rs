//! The subscription layer's consistency proof: replaying the
//! [`TopologyDelta`] stream into a [`DeltaMirror`] reproduces the engine's
//! graph exactly — after **every** event — under arbitrary mixed
//! insert/delete/batch churn, for the centralized executor and both
//! distributed engines.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{DeltaMirror, Event, HealingEngine, Xheal, XhealConfig};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::{generators, NodeId};
use xheal_sim::{AsyncConfig, AsyncNetwork};

/// Builds one engine of the given kind over `g0` with a [`DeltaMirror`]
/// subscribed, returning the engine and a handle on the mirror.
fn engine_with_mirror(
    kind: usize,
    g0: &xheal_graph::Graph,
    cfg: XhealConfig,
) -> (Box<dyn HealingEngine>, Rc<RefCell<DeltaMirror>>) {
    let mirror = Rc::new(RefCell::new(DeltaMirror::new(g0)));
    let sink = Box::new(Rc::clone(&mirror));
    let engine: Box<dyn HealingEngine> = match kind {
        0 => Box::new(Xheal::builder().config(cfg).sink(sink).build(g0)),
        1 => Box::new(DistXheal::builder().config(cfg).sink(sink).build(g0)),
        _ => Box::new(
            DistXheal::builder()
                .config(cfg)
                .sink(sink)
                // Real latency and jitter: delivery order changes, the
                // delta stream (driven by the shared planner) must not.
                .engine(AsyncNetwork::<Msg>::new(
                    AsyncConfig::uniform(1, 3, 23).with_jitter(1),
                ))
                .build(g0),
        ),
    };
    (engine, mirror)
}

/// One adversary move for the mirror test: mixed inserts, single deletions,
/// and multi-victim batches, always valid against the current graph.
fn next_event(engine: &dyn HealingEngine, rng: &mut StdRng, next_id: &mut u64) -> Event {
    let nodes = engine.graph().node_vec();
    let roll = rng.random_range(0..4u32);
    if nodes.len() < 8 || roll == 0 {
        let node = NodeId::new(*next_id);
        *next_id += 1;
        let wanted = rng.random_range(1..=2usize.min(nodes.len()));
        let mut neighbors = Vec::with_capacity(wanted);
        for _ in 0..wanted {
            neighbors.push(nodes[rng.random_range(0..nodes.len())]);
        }
        neighbors.dedup();
        Event::Insert { node, neighbors }
    } else if roll < 3 {
        Event::Delete {
            node: nodes[rng.random_range(0..nodes.len())],
        }
    } else {
        let mut victims: Vec<NodeId> = Vec::new();
        for _ in 0..rng.random_range(2..=3usize) {
            let v = nodes[rng.random_range(0..nodes.len())];
            if !victims.contains(&v) {
                victims.push(v);
            }
        }
        Event::DeleteBatch { nodes: victims }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mirror equality after every event, for Xheal and both DistXheal
    /// engines, on one shared schedule.
    #[test]
    fn mirror_reconstructs_graph_under_mixed_churn(
        seed in any::<u64>(),
        n in 12usize..28,
        steps in 8usize..30,
    ) {
        let g0 = generators::connected_erdos_renyi(
            n,
            0.15,
            &mut StdRng::seed_from_u64(seed),
        );
        let cfg = XhealConfig::new(4).with_seed(seed ^ 0xD17A);

        // Record the schedule once (the event choice depends only on the
        // graph, which is bit-identical across engines).
        for kind in 0..3usize {
            let (mut engine, mirror) = engine_with_mirror(kind, &g0, cfg.clone());
            let mut adv_rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut next_id = 10_000u64;
            for step in 0..steps {
                let event = next_event(engine.as_ref(), &mut adv_rng, &mut next_id);
                engine.apply(&event).map_err(|e| {
                    TestCaseError::fail(format!("{}: {e}", engine.name()))
                })?;
                let matches = engine.graph() == mirror.borrow().graph();
                prop_assert!(
                    matches,
                    "{} step {}: mirror diverged after {:?}",
                    engine.name(),
                    step,
                    event
                );
            }
        }
    }

    /// Late subscription: a mirror seeded from the graph mid-run tracks
    /// the engine from that point on.
    #[test]
    fn mirror_subscribed_mid_run_tracks_from_there(
        seed in any::<u64>(),
        steps in 4usize..16,
    ) {
        let g0 = generators::connected_erdos_renyi(
            20,
            0.15,
            &mut StdRng::seed_from_u64(seed),
        );
        let mut net = Xheal::new(&g0, XhealConfig::new(4).with_seed(seed ^ 7));
        let mut adv_rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let mut next_id = 20_000u64;
        // Churn without any subscriber first.
        for _ in 0..steps {
            let event = next_event(&net, &mut adv_rng, &mut next_id);
            net.apply(&event).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        // Subscribe now, seeded from the *current* graph.
        let mirror = Rc::new(RefCell::new(DeltaMirror::new(net.graph())));
        net.subscribe(Box::new(Rc::clone(&mirror)));
        for _ in 0..steps {
            let event = next_event(&net, &mut adv_rng, &mut next_id);
            net.apply(&event).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let matches = net.graph() == mirror.borrow().graph();
            prop_assert!(matches, "mirror diverged after {:?}", event);
        }
    }
}
