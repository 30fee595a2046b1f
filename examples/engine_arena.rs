//! Nine engines, one schedule set, one scoreboard.
//!
//! Drives every engine in `xheal_workload::standard_registry` — Xheal in
//! its three flavors, DEX, and the five baselines — through the three
//! standard seeded adversary schedules, scoring each run live with a
//! subscribed `xheal_monitor::Monitor`, and prints the trade-off matrix.
//! This is the example-sized version of the `arena` bench binary that
//! produces `BENCH_arena.json`.
//!
//! ```sh
//! cargo run --example engine_arena
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use xheal_core::{Event, HealingEngine, Outcome};
use xheal_graph::{generators, Graph};
use xheal_monitor::{Monitor, MonitorConfig, MonitorHook};
use xheal_workload::{
    run_arena, standard_registry, ArenaQuality, ArenaSchedule, ArenaScorer, HealthNote,
    RunObserver, RunSummary, Severity,
};

/// Monitor-backed scorer: one fresh monitor per cell, fed by the engine's
/// delta subscription, checkpointed periodically and once at finish.
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
        let hook = MonitorHook::new(Rc::clone(&monitor), 16);
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

    fn finish(&mut self, _graph: &Graph, summary: &RunSummary) -> ArenaQuality {
        let mut m = self.monitor.borrow_mut();
        let report = m.checkpoint();
        // Engines that rebuild their topology from membership alone (DEX)
        // leave the black reference shadow empty; their reference-relative
        // metrics are meaningless, so report null instead of zero.
        let has_reference = m.gprime().edge_count() > 0;
        ArenaQuality {
            max_degree: report.max_degree,
            degree_increase: has_reference.then_some(report.degree_increase),
            stretch: report.stretch.filter(|_| has_reference),
            expansion: report.expansion,
            spectral_gap: Some(report.spectral_gap.lambda),
            lambda3: report.lambda3,
            components: report.components,
            warn_notes: summary
                .health
                .iter()
                .filter(|n| n.severity == Severity::Warning)
                .count(),
            critical_notes: summary
                .health
                .iter()
                .filter(|n| n.severity == Severity::Critical)
                .count(),
        }
    }
}

fn main() {
    let n0 = 96;
    let steps = 60;
    let g0 = generators::ring_with_chords(n0);
    let registry = standard_registry(4);
    let schedules = ArenaSchedule::standard(steps);

    println!(
        "engine arena: {} engines x {} schedules",
        registry.len(),
        schedules.len()
    );
    println!("n0 = {n0}, {steps} adversary events per schedule, kappa = 4\n");

    let matrix = run_arena(&registry, &schedules, &g0, 0xA5EED, |_, _, g| {
        MonitorScorer::new(g)
    });
    assert!(matrix.is_complete());

    for sched in matrix.schedules() {
        println!("=== {sched} ===");
        println!(
            "{:<18} {:>8} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>5} {:>5}",
            "engine",
            "messages",
            "edge-ops",
            "maxdeg",
            "deg-inc",
            "stretch",
            "gap",
            "lambda3",
            "comps",
            "crit"
        );
        for engine in matrix.engines() {
            let c = matrix.cell(engine, sched).expect("complete");
            let q = &c.quality;
            let opt = |v: Option<f64>| match v {
                Some(x) if x.is_finite() => format!("{x:.3}"),
                _ => "n/a".to_string(),
            };
            println!(
                "{:<18} {:>8} {:>8} {:>6} {:>8} {:>8} {:>8} {:>8} {:>5} {:>5}",
                c.engine,
                c.messages,
                c.edges_added + c.edges_removed,
                q.max_degree,
                opt(q.degree_increase),
                opt(q.stretch),
                opt(q.spectral_gap),
                opt(q.lambda3),
                q.components,
                q.critical_notes,
            );
        }
        println!();
    }

    println!(
        "full-size matrix: cargo run --release -p xheal-bench --bin arena  \
         (writes BENCH_arena.json)"
    );
}
