//! Cross-crate arena integration: DEX invariants under arbitrary churn
//! (property tests) and the nine-engine arena harness end to end, including
//! a monitor-backed scorer so every engine's delta stream is checked in
//! debug mode.

use std::cell::RefCell;
use std::rc::Rc;

use proptest::prelude::*;
use rand::{rngs::StdRng, SeedableRng};
use xheal_core::{DeltaMirror, Event, HealError, HealingEngine, Outcome};
use xheal_dex::{Dex, DexConfig};
use xheal_graph::{components, generators, Graph, NodeId};
use xheal_monitor::{Monitor, MonitorConfig, MonitorHook};
use xheal_workload::{
    replay, run, run_arena, run_observed, standard_registry, ArenaQuality, ArenaSchedule,
    ArenaScorer, BurstDeletions, HealthNote, NoScorer, RandomChurn, RunObserver, RunSummary,
    Severity,
};

/// Observer asserting DEX's hard invariants after every applied event:
/// the constant-degree cap and connectivity.
struct DexInvariantCheck {
    bound: usize,
}

impl RunObserver for DexInvariantCheck {
    fn on_event(&mut self, step: usize, _: &Event, _: &Outcome, graph: &Graph) {
        for v in graph.node_vec() {
            let d = graph.degree(v).expect("live node");
            assert!(
                d <= self.bound,
                "step {step}: degree {d} of {v} exceeds {}",
                self.bound
            );
        }
        assert!(
            graph.node_count() == 0 || components::is_connected(graph),
            "step {step}: projection disconnected"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Mixed insert/delete churn never breaks DEX's constant-degree bound
    /// or connectivity — checked after *every* event, not just at the end.
    #[test]
    fn dex_bound_and_connectivity_under_churn(
        seed in any::<u64>(),
        n in 8usize..24,
        steps in 10usize..40,
        p_insert in 0.2f64..0.7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(n, 0.2, &mut rng);
        let mut dex = Dex::new(&g0, DexConfig { seed: seed ^ 1, ..DexConfig::default() });
        let bound = dex.degree_bound();
        let mut adv = RandomChurn::new(p_insert, 2, 4, &g0);
        let mut check = DexInvariantCheck { bound };
        run_observed(&mut dex, &mut adv, steps, seed ^ 2, &mut check);
        dex.assert_invariants();
    }

    /// Clustered `DeleteBatch` racks (adjacent victims, whole-rack kills)
    /// respect the same invariants.
    #[test]
    fn dex_survives_batch_racks(
        seed in any::<u64>(),
        n in 14usize..30,
        steps in 8usize..24,
    ) {
        let g0 = generators::ring_with_chords(n);
        let mut dex = Dex::new(&g0, DexConfig { seed: seed ^ 5, ..DexConfig::default() });
        let bound = dex.degree_bound();
        let mut adv = BurstDeletions::new(3, 3, 3, 6, &g0);
        let mut check = DexInvariantCheck { bound };
        run_observed(&mut dex, &mut adv, steps, seed ^ 6, &mut check);
        dex.assert_invariants();
    }

    /// The same event tape replayed onto fresh DEX instances lands on
    /// bit-identical graphs: the engine is deterministic in (seed, tape).
    #[test]
    fn dex_is_deterministic_across_reruns(
        seed in any::<u64>(),
        n in 8usize..20,
        steps in 8usize..30,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(n, 0.2, &mut rng);
        let cfg = DexConfig { seed: seed ^ 9, ..DexConfig::default() };
        let mut live = Dex::new(&g0, cfg);
        let mut adv = RandomChurn::new(0.5, 2, 4, &g0);
        let summary = run(&mut live, &mut adv, steps, seed ^ 10);

        let mut a = Dex::new(&g0, cfg);
        let mut b = Dex::new(&g0, cfg);
        replay(&mut a, &summary.events);
        replay(&mut b, &summary.events);
        prop_assert_eq!(a.graph(), b.graph());
        prop_assert_eq!(a.graph(), live.graph());
        prop_assert_eq!(
            a.graph().edge_fingerprint(),
            live.graph().edge_fingerprint()
        );
    }

    /// A `DeltaMirror` fed from DEX's subscription stream reconstructs the
    /// engine graph exactly under mixed churn — the delta stream is
    /// complete and minimal.
    #[test]
    fn dex_delta_stream_rebuilds_the_graph(
        seed in any::<u64>(),
        n in 8usize..20,
        steps in 8usize..30,
        p_insert in 0.2f64..0.7,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let g0 = generators::connected_erdos_renyi(n, 0.2, &mut rng);
        let mut dex = Dex::new(&g0, DexConfig { seed: seed ^ 3, ..DexConfig::default() });
        // Mirror the *post-construction* graph: DEX rebuilds its topology,
        // so the subscription baseline is its bootstrap projection.
        let mirror = Rc::new(RefCell::new(DeltaMirror::new(dex.graph())));
        dex.subscribe(Box::new(Rc::clone(&mirror)));
        let mut adv = RandomChurn::new(p_insert, 2, 4, &g0);
        run(&mut dex, &mut adv, steps, seed ^ 4);
        let rebuilt = mirror.borrow();
        prop_assert_eq!(rebuilt.graph(), dex.graph());
    }
}

/// Monitor-backed scorer (mirrors the arena bench bin's): exercises every
/// engine's delta stream against the monitor's drift `debug_assert`s.
struct MonitorScorer {
    monitor: Rc<RefCell<Monitor>>,
    hook: MonitorHook,
}

impl MonitorScorer {
    fn new(initial: &Graph) -> Self {
        let config = MonitorConfig {
            track_lambda3: true,
            ..MonitorConfig::default()
        };
        let monitor = Rc::new(RefCell::new(Monitor::new(initial, config)));
        let hook = MonitorHook::new(Rc::clone(&monitor), 8);
        MonitorScorer { monitor, hook }
    }
}

impl RunObserver for MonitorScorer {
    fn on_event(&mut self, step: usize, event: &Event, outcome: &Outcome, graph: &Graph) {
        self.hook.on_event(step, event, outcome, graph);
    }

    fn drain_notes(&mut self) -> Vec<HealthNote> {
        self.hook.drain_notes()
    }
}

impl ArenaScorer for MonitorScorer {
    fn attach(&mut self, engine: &mut dyn HealingEngine) {
        engine.subscribe(Box::new(Rc::clone(&self.monitor)));
    }

    fn finish(&mut self, graph: &Graph, summary: &RunSummary) -> ArenaQuality {
        let mut m = self.monitor.borrow_mut();
        assert_eq!(
            (m.node_count(), m.edge_count()),
            (graph.node_count(), graph.edge_count()),
            "monitor drifted from the engine graph"
        );
        let report = m.checkpoint();
        ArenaQuality {
            max_degree: report.max_degree,
            degree_increase: Some(report.degree_increase),
            stretch: report.stretch,
            expansion: report.expansion,
            spectral_gap: Some(report.spectral_gap.lambda),
            lambda3: report.lambda3,
            components: report.components,
            warn_notes: summary
                .health
                .iter()
                .filter(|h| h.severity == Severity::Warning)
                .count(),
            critical_notes: summary
                .health
                .iter()
                .filter(|h| h.severity == Severity::Critical)
                .count(),
        }
    }
}

/// The full nine-engine arena with the dependency-free scorer: every cell
/// present, every engine driven through every schedule.
#[test]
fn arena_covers_every_engine_by_three_schedules() {
    let g0 = generators::ring_with_chords(28);
    let reg = standard_registry(4);
    let matrix = run_arena(&reg, &ArenaSchedule::standard(15), &g0, 11, |_, _, _| {
        NoScorer
    });
    assert!(matrix.is_complete());
    assert_eq!(matrix.cells.len(), 27);
    assert_eq!(matrix.engines().len(), 9);
    assert_eq!(matrix.schedules().len(), 3);
}

/// The monitor-scored arena in debug mode: every engine's delta stream
/// must keep the monitor's incremental CSR exactly in sync (the monitor
/// `debug_assert`s drift per event), and the scored qualities must be
/// sane: λ₂/λ₃ ordered, components ≥ 1, degree caps where promised.
#[test]
fn monitor_scored_arena_is_consistent_for_every_engine() {
    let g0 = generators::ring_with_chords(26);
    let reg = standard_registry(4);
    let matrix = run_arena(&reg, &ArenaSchedule::standard(12), &g0, 23, |_, _, g| {
        MonitorScorer::new(g)
    });
    assert!(matrix.is_complete());
    let dex_bound = DexConfig::default().degree * DexConfig::default().max_load;
    for cell in &matrix.cells {
        let q = &cell.quality;
        assert!(q.components >= 1, "{}/{}", cell.engine, cell.schedule);
        let gap = q.spectral_gap.expect("scored");
        if let Some(l3) = q.lambda3 {
            assert!(
                l3 >= gap - 1e-9,
                "{}/{}: lambda3 {l3} below lambda2 {gap}",
                cell.engine,
                cell.schedule
            );
        }
        if cell.engine == "dex" {
            assert!(q.max_degree <= dex_bound);
        }
    }
}

/// What a hostile or edge-case event must do to every engine.
enum Expect {
    /// Applies, changing the node count by this much.
    Ok(isize),
    /// Applies and lands on exactly the graph this twin event produces on a
    /// fresh engine.
    Like(Event),
    /// Rejects with exactly this error, leaving the state untouched.
    Err(HealError),
}

/// The hostile-event conformance matrix: every `standard_registry` engine
/// gets every malformed or edge-case event on a fresh 20-node overlay. An
/// `Err` must be the expected one and leave the fingerprint and node count
/// unchanged; an `Ok` must have the expected effect. Either way nothing
/// panics and the engine stays usable: a valid two-victim burst applies
/// afterwards.
#[test]
fn every_engine_rejects_hostile_events_atomically() {
    let g0 = generators::ring_with_chords(20);
    let reg = standard_registry(4);
    let [a, b] = [NodeId::new(3), NodeId::new(5)];
    let fresh = NodeId::new(100);
    let missing = NodeId::new(999);
    let insert = |neighbors: Vec<NodeId>| Event::Insert {
        node: fresh,
        neighbors,
    };
    let cases: Vec<(&str, Event, Expect)> = vec![
        (
            "insert, duplicate neighbour",
            insert(vec![NodeId::new(1), NodeId::new(1)]),
            // The repeat collapses: one edge, as if listed once.
            Expect::Like(insert(vec![NodeId::new(1)])),
        ),
        (
            "insert listing itself",
            insert(vec![fresh]),
            Expect::Err(HealError::NeighborMissing(fresh)),
        ),
        (
            "insert, missing neighbour",
            insert(vec![NodeId::new(1), missing]),
            Expect::Err(HealError::NeighborMissing(missing)),
        ),
        (
            "insert, existing node",
            Event::Insert {
                node: a,
                neighbors: vec![NodeId::new(1)],
            },
            Expect::Err(HealError::NodeExists(a)),
        ),
        ("insert, no neighbours", insert(Vec::new()), Expect::Ok(1)),
        (
            "delete, missing node",
            Event::Delete { node: missing },
            Expect::Err(HealError::NodeMissing(missing)),
        ),
        (
            "batch with a missing victim",
            Event::DeleteBatch {
                nodes: vec![a, missing],
            },
            Expect::Err(HealError::NodeMissing(missing)),
        ),
        (
            "batch with a duplicate victim",
            Event::DeleteBatch {
                nodes: vec![a, b, a],
            },
            Expect::Err(HealError::DuplicateVictim(a)),
        ),
        (
            "empty batch",
            Event::DeleteBatch { nodes: Vec::new() },
            Expect::Ok(0),
        ),
    ];
    let keys = reg.keys();
    for (case, event, expect) in &cases {
        for key in &keys {
            let mut engine = reg.build(key, &g0, 7).expect("registered key");
            let before = engine.graph().edge_fingerprint();
            let n = engine.graph().node_count();
            let result = engine.apply(event);
            match expect {
                Expect::Ok(grown) => {
                    result.unwrap_or_else(|e| panic!("{key}, {case}: {e}"));
                    let after = engine.graph().node_count() as isize;
                    assert_eq!(after - n as isize, *grown, "{key}, {case}");
                    if *grown == 0 {
                        assert_eq!(engine.graph().edge_fingerprint(), before, "{key}, {case}");
                    }
                }
                Expect::Like(twin) => {
                    result.unwrap_or_else(|e| panic!("{key}, {case}: {e}"));
                    let mut reference = reg.build(key, &g0, 7).expect("registered key");
                    reference.apply(twin).expect("the twin event is valid");
                    assert_eq!(engine.graph(), reference.graph(), "{key}, {case}");
                }
                Expect::Err(err) => {
                    assert_eq!(result.err().as_ref(), Some(err), "{key}, {case}");
                    assert_eq!(engine.graph().edge_fingerprint(), before, "{key}, {case}");
                    assert_eq!(engine.graph().node_count(), n, "{key}, {case}");
                }
            }
            let n = engine.graph().node_count();
            engine
                .apply(&Event::DeleteBatch { nodes: vec![a, b] })
                .unwrap_or_else(|e| panic!("{key}, after {case}: {e}"));
            assert_eq!(engine.graph().node_count(), n - 2, "{key}, after {case}");
        }
    }
}
