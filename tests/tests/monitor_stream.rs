//! The monitor's consistency proof: an [`IncrementalCsr`] patched purely
//! from the [`TopologyDelta`] stream equals `Graph::csr_view()` — after
//! **every** event, under arbitrary mixed insert/delete/batch churn, for
//! the centralized executor and both distributed engines, including a
//! subscription that starts mid-run. The companion property pins the
//! monitor's O(1)-maintained degree histograms and degree-increase metric
//! against from-scratch recounts on the same schedule.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_core::{Event, HealingEngine, Xheal, XhealConfig};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::{generators, CsrView, Graph, NodeId};
use xheal_metrics::{degree_increase, GPrime};
use xheal_monitor::{IncrementalCsr, Monitor, MonitorConfig};
use xheal_sim::{AsyncConfig, AsyncNetwork};

/// A delta-driven wrapper so the bare CSR can ride the sink registry.
struct CsrSink(IncrementalCsr);

impl xheal_core::TopologySink for CsrSink {
    fn on_delta(&mut self, delta: &xheal_core::TopologyDelta) {
        self.0.apply(delta);
    }
}

/// Builds one engine of the given kind over `g0` with both an incremental
/// CSR and a full monitor subscribed.
#[allow(clippy::type_complexity)]
fn engine_with_monitor(
    kind: usize,
    g0: &Graph,
    cfg: XhealConfig,
) -> (
    Box<dyn HealingEngine>,
    Rc<RefCell<CsrSink>>,
    Rc<RefCell<Monitor>>,
) {
    let csr = Rc::new(RefCell::new(CsrSink(IncrementalCsr::new(g0))));
    let monitor = Rc::new(RefCell::new(Monitor::new(g0, MonitorConfig::default())));
    let csr_sink = Box::new(Rc::clone(&csr));
    let mon_sink = Box::new(Rc::clone(&monitor));
    let engine: Box<dyn HealingEngine> = match kind {
        0 => Box::new(
            Xheal::builder()
                .config(cfg)
                .sink(csr_sink)
                .sink(mon_sink)
                .build(g0),
        ),
        1 => Box::new(
            DistXheal::builder()
                .config(cfg)
                .sink(csr_sink)
                .sink(mon_sink)
                .build(g0),
        ),
        _ => Box::new(
            DistXheal::builder()
                .config(cfg)
                .sink(csr_sink)
                .sink(mon_sink)
                // Latency and jitter reorder deliveries; the delta stream
                // (driven by the shared planner) must not change.
                .engine(AsyncNetwork::<Msg>::new(
                    AsyncConfig::uniform(1, 3, 29).with_jitter(1),
                ))
                .build(g0),
        ),
    };
    (engine, csr, monitor)
}

/// One adversary move: mixed inserts, single deletions, and multi-victim
/// batches, always valid against the current graph.
fn next_event(graph: &Graph, rng: &mut StdRng, next_id: &mut u64) -> Event {
    let nodes = graph.node_vec();
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

/// Field-by-field CSR equality (CsrView carries no `PartialEq` on purpose).
fn csr_equal(a: &CsrView, b: &CsrView) -> bool {
    a.nodes() == b.nodes() && a.offsets() == b.offsets() && a.neighbors_flat() == b.neighbors_flat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// IncrementalCsr == Graph::csr_view() after every event, for Xheal and
    /// both DistXheal engines, on one shared schedule — with the generation
    /// stamp advancing with every delta the engine emitted.
    #[test]
    fn incremental_csr_matches_fresh_rebuild_under_mixed_churn(
        seed in any::<u64>(),
        n in 12usize..28,
        steps in 8usize..24,
    ) {
        let g0 = generators::connected_erdos_renyi(
            n,
            0.15,
            &mut StdRng::seed_from_u64(seed),
        );
        let cfg = XhealConfig::new(4).with_seed(seed ^ 0xCAFE);

        for kind in 0..3usize {
            let (mut engine, csr, monitor) = engine_with_monitor(kind, &g0, cfg.clone());
            let mut adv_rng = StdRng::seed_from_u64(seed ^ 0xBEEF);
            let mut next_id = 10_000u64;
            let mut last_generation = 0u64;
            for step in 0..steps {
                let event = next_event(engine.graph(), &mut adv_rng, &mut next_id);
                engine.apply(&event).map_err(|e| {
                    TestCaseError::fail(format!("{}: {e}", engine.name()))
                })?;
                let inc = csr.borrow();
                inc.0.validate().map_err(TestCaseError::fail)?;
                prop_assert!(
                    csr_equal(&inc.0.snapshot(), &engine.graph().csr_view()),
                    "{} step {step}: incremental CSR diverged after {event:?}",
                    engine.name()
                );
                // Generation stamp discipline: strictly monotone, bumped
                // at least once per event that changed anything.
                let generation = inc.0.generation();
                prop_assert!(
                    generation > last_generation,
                    "{} step {step}: generation stalled at {generation}",
                    engine.name()
                );
                last_generation = generation;
                // The full monitor rides the same stream and sees the same
                // topology counts.
                let m = monitor.borrow();
                prop_assert!(
                    (m.node_count(), m.edge_count())
                        == (engine.graph().node_count(), engine.graph().edge_count()),
                    "{} step {}: monitor counts diverged", engine.name(), step
                );
            }
        }
    }

    /// Mid-run subscription: a CSR seeded from the graph mid-run tracks the
    /// engine from that point on, generation counting from zero.
    #[test]
    fn incremental_csr_subscribed_mid_run_tracks_from_there(
        seed in any::<u64>(),
        steps in 4usize..14,
    ) {
        let g0 = generators::connected_erdos_renyi(
            20,
            0.15,
            &mut StdRng::seed_from_u64(seed),
        );
        let mut net = Xheal::new(&g0, XhealConfig::new(4).with_seed(seed ^ 3));
        let mut adv_rng = StdRng::seed_from_u64(seed ^ 0xF00D);
        let mut next_id = 20_000u64;
        // Churn without any subscriber first.
        for _ in 0..steps {
            let event = next_event(net.graph(), &mut adv_rng, &mut next_id);
            net.apply(&event).map_err(|e| TestCaseError::fail(e.to_string()))?;
        }
        // Subscribe now, seeded from the *current* graph.
        let csr = Rc::new(RefCell::new(CsrSink(IncrementalCsr::new(net.graph()))));
        net.subscribe(Box::new(Rc::clone(&csr)));
        prop_assert_eq!(csr.borrow().0.generation(), 0);
        for _ in 0..steps {
            let event = next_event(net.graph(), &mut adv_rng, &mut next_id);
            net.apply(&event).map_err(|e| TestCaseError::fail(e.to_string()))?;
            let inc = csr.borrow();
            prop_assert!(
                csr_equal(&inc.0.snapshot(), &net.graph().csr_view()),
                "mid-run CSR diverged after {:?}", event
            );
        }
    }

    /// The monitor's maintained degree/black-degree histograms and degree
    /// increase equal from-scratch recounts after every event of a mixed
    /// churn schedule (the satellite pin).
    #[test]
    fn maintained_metrics_match_recounts_under_mixed_churn(
        seed in any::<u64>(),
        steps in 6usize..20,
    ) {
        let g0 = generators::connected_erdos_renyi(
            18,
            0.18,
            &mut StdRng::seed_from_u64(seed),
        );
        let monitor = Rc::new(RefCell::new(Monitor::new(&g0, MonitorConfig::default())));
        let mut net = Xheal::builder()
            .config(XhealConfig::new(4).with_seed(seed ^ 0xD06))
            .sink(Box::new(Rc::clone(&monitor)))
            .build(&g0);
        let mut gp = GPrime::new(&g0);
        let mut adv_rng = StdRng::seed_from_u64(seed ^ 0xABCD);
        let mut next_id = 30_000u64;
        for step in 0..steps {
            let event = next_event(net.graph(), &mut adv_rng, &mut next_id);
            if let Event::Insert { node, neighbors } = &event {
                gp.record_insert(*node, neighbors)
                    .map_err(|e| TestCaseError::fail(e.to_string()))?;
            }
            net.apply(&event).map_err(|e| TestCaseError::fail(e.to_string()))?;

            let m = monitor.borrow();
            let g = net.graph();
            // From-scratch recounts.
            let mut degs: Vec<u64> = Vec::new();
            let mut blacks: Vec<u64> = Vec::new();
            for v in g.nodes() {
                let d = g.degree(v).unwrap();
                let b = g.black_degree(v).unwrap();
                if d >= degs.len() { degs.resize(d + 1, 0); }
                if b >= blacks.len() { blacks.resize(b + 1, 0); }
                degs[d] += 1;
                blacks[b] += 1;
            }
            prop_assert!(
                m.degrees().buckets() == &degs[..],
                "step {}: degree histogram drift after {:?}", step, event
            );
            prop_assert!(
                m.black_degrees().buckets() == &blacks[..],
                "step {}: black-degree histogram drift after {:?}", step, event
            );
            let expect = degree_increase(g, gp.graph());
            prop_assert!(
                (m.degree_increase() - expect).abs() < 1e-12,
                "step {}: degree increase {} vs recomputed {}",
                step, m.degree_increase(), expect
            );
        }
    }
}
