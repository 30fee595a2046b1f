//! The self-healing-algorithm arena: every engine in the workspace driven
//! through identical seeded adversary schedules, scored live by the
//! monitoring subsystem, one trade-off matrix out.
//!
//! For each of the nine registry engines (`xheal`, the two distributed
//! substrates, DEX, and the five baselines) and each of the
//! three standard schedules (uniform churn, clustered `DeleteBatch`
//! bursts, insert-heavy growth), a fresh engine runs the schedule with an
//! [`xheal_monitor::Monitor`] subscribed to its delta stream. The scorer
//! checkpoints the expensive invariants periodically during the run and
//! once at the end, so every cell reports healing *cost* (rounds,
//! messages, edge operations, wall time) against invariant *quality*
//! (degree increase, sampled stretch, sweep-cut expansion, spectral gap
//! λ₂ and λ₃, components, alert counts).
//!
//! DEX's hard constant-degree bound (`max_load × degree`) is asserted
//! **in-process after every applied event**, not just on the final graph —
//! a transient breach anywhere in the schedule aborts the run.
//!
//! Output is `BENCH_arena.json` (schema `xheal-bench-arena/v1`, override
//! the path with `--out`); `--smoke` shrinks sizes for CI. Run the full
//! measurement with:
//!
//! ```text
//! cargo run --release -p xheal-bench --bin arena
//! ```

use std::cell::RefCell;
use std::rc::Rc;

use xheal_core::{Event, HealingEngine, Outcome};
use xheal_dex::DexConfig;
use xheal_graph::{generators, Graph};
use xheal_monitor::{Monitor, MonitorConfig, MonitorHook};
use xheal_workload::{
    run_arena, standard_registry, ArenaMatrix, ArenaQuality, ArenaSchedule, ArenaScorer,
    HealthNote, RunObserver, RunSummary, Severity,
};

const KAPPA: usize = 4;
const ARENA_SEED: u64 = 0xA12E4A;

/// The monitor-backed [`ArenaScorer`]: one fresh [`Monitor`] per cell,
/// subscribed to the engine's delta stream at attach time, checkpointed
/// through a [`MonitorHook`] during the run and once more at finish.
struct MonitorScorer {
    monitor: Rc<RefCell<Monitor>>,
    hook: MonitorHook,
    /// In-process hard degree cap (DEX cells): checked after every event.
    degree_cap: Option<usize>,
    label: String,
}

impl MonitorScorer {
    /// Builds the scorer over the engine's post-construction graph — for
    /// DEX that is its bootstrap projection, which is exactly the
    /// reference its degree-increase and stretch should be judged against.
    fn new(label: String, initial: &Graph, checkpoint_every: usize, cap: Option<usize>) -> Self {
        let config = MonitorConfig {
            track_lambda3: true,
            ..MonitorConfig::default()
        };
        let monitor = Rc::new(RefCell::new(Monitor::new(initial, config)));
        let hook = MonitorHook::new(Rc::clone(&monitor), checkpoint_every);
        MonitorScorer {
            monitor,
            hook,
            degree_cap: cap,
            label,
        }
    }
}

impl RunObserver for MonitorScorer {
    fn on_event(&mut self, step: usize, event: &Event, outcome: &Outcome, graph: &Graph) {
        self.hook.on_event(step, event, outcome, graph);
        if let Some(cap) = self.degree_cap {
            let worst = self.monitor.borrow().degrees().max();
            assert!(
                worst <= cap,
                "{}: degree bound violated at step {step}: {worst} > {cap}",
                self.label
            );
        }
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
            "{}: monitor drifted from the engine graph",
            self.label
        );
        let report = m.checkpoint();
        // An engine whose reference shadow never saw a black edge (DEX
        // rebuilds its overlay from membership alone) has no meaningful
        // reference-relative metrics: report null, not a vacuous zero.
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

fn fmt_opt(x: Option<f64>) -> String {
    match x {
        Some(v) if v.is_finite() => format!("{v:.6}"),
        _ => "null".to_string(),
    }
}

fn json(matrix: &ArenaMatrix, smoke: bool, steps: usize, dex_bound: usize) -> String {
    let engines = matrix
        .engines()
        .iter()
        .map(|e| format!("\"{e}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let schedules = matrix
        .schedules()
        .iter()
        .map(|s| format!("\"{s}\""))
        .collect::<Vec<_>>()
        .join(", ");
    let mut cells = String::new();
    for (i, c) in matrix.cells.iter().enumerate() {
        let q = &c.quality;
        cells.push_str(&format!(
            "    {{\"engine\": \"{}\", \"schedule\": \"{}\", \
             \"steps_applied\": {}, \"insertions\": {}, \"deletions\": {}, \
             \"edges_added\": {}, \"edges_removed\": {}, \
             \"rounds\": {}, \"messages\": {}, \
             \"insert_rounds\": {}, \"insert_messages\": {}, \
             \"nodes\": {}, \"edges\": {}, \"wall_ms\": {:.3}, \
             \"max_degree\": {}, \"degree_increase\": {}, \"stretch\": {}, \
             \"expansion\": {}, \"spectral_gap\": {}, \"lambda3\": {}, \
             \"components\": {}, \"warn_notes\": {}, \"critical_notes\": {}}}{}\n",
            c.engine,
            c.schedule,
            c.steps_applied,
            c.insertions,
            c.deletions,
            c.edges_added,
            c.edges_removed,
            c.rounds,
            c.messages,
            c.insert_rounds,
            c.insert_messages,
            c.nodes,
            c.edges,
            c.wall_nanos as f64 / 1e6,
            q.max_degree,
            fmt_opt(q.degree_increase),
            fmt_opt(q.stretch),
            fmt_opt(q.expansion),
            fmt_opt(q.spectral_gap),
            fmt_opt(q.lambda3),
            q.components,
            q.warn_notes,
            q.critical_notes,
            if i + 1 == matrix.cells.len() { "" } else { "," },
        ));
    }
    format!(
        "{{\n  \"schema\": \"xheal-bench-arena/v1\",\n  \"smoke\": {smoke},\n  \
         \"kappa\": {KAPPA},\n  \"n0\": {},\n  \"steps\": {steps},\n  \
         \"seed\": {},\n  \"dex_degree_bound\": {dex_bound},\n  \
         \"engines\": [{engines}],\n  \"schedules\": [{schedules}],\n  \
         \"cells\": [\n{cells}  ]\n}}\n",
        matrix.n0, matrix.seed,
    )
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_arena.json".to_string());

    let (n0, steps, checkpoint_every) = if smoke {
        (60usize, 40usize, 8usize)
    } else {
        (512, 480, 32)
    };
    let dex_bound = DexConfig::default().degree * DexConfig::default().max_load;

    println!("arena: all engines x all schedules, monitor-scored");
    println!(
        "mode: {}, n0 = {n0}, steps = {steps}, kappa = {KAPPA}, \
         checkpoint every {checkpoint_every} events",
        if smoke { "smoke" } else { "full" }
    );

    let g0 = generators::ring_with_chords(n0);
    let registry = standard_registry(KAPPA);
    let schedules = ArenaSchedule::standard(steps);
    let matrix = run_arena(&registry, &schedules, &g0, ARENA_SEED, |key, sched, g| {
        let cap = (key == "dex").then_some(dex_bound);
        MonitorScorer::new(format!("{key}/{}", sched.name), g, checkpoint_every, cap)
    });

    assert!(matrix.is_complete(), "arena matrix has holes");
    assert_eq!(
        matrix.cells.len(),
        registry.len() * schedules.len(),
        "expected one cell per engine per schedule"
    );

    for sched in matrix.schedules() {
        println!("\n=== {sched} ===");
        println!(
            "{:<18} {:>7} {:>9} {:>9} {:>6} {:>8} {:>9} {:>9} {:>5} {:>5}",
            "engine",
            "rounds",
            "messages",
            "edge-ops",
            "maxdeg",
            "deg-inc",
            "stretch",
            "gap",
            "comps",
            "crit"
        );
        for engine in matrix.engines() {
            let c = matrix.cell(engine, sched).expect("complete");
            let q = &c.quality;
            println!(
                "{:<18} {:>7} {:>9} {:>9} {:>6} {:>8} {:>9} {:>9} {:>5} {:>5}",
                c.engine,
                c.rounds,
                c.messages,
                c.edges_added + c.edges_removed,
                q.max_degree,
                q.degree_increase
                    .map_or("n/a".into(), |v| format!("{v:.2}")),
                q.stretch.map_or("n/a".into(), |v| format!("{v:.2}")),
                q.spectral_gap.map_or("n/a".into(), |v| format!("{v:.4}")),
                q.components,
                q.critical_notes,
            );
        }
    }

    // Cross-cell acceptance gates: the Xheal family and DEX keep every
    // schedule connected; DEX additionally respects its hard degree cap on
    // the final graph (the per-event assertion already covered the run).
    for sched in matrix.schedules() {
        for engine in ["xheal", "xheal-dist-sync", "xheal-dist-async"] {
            let c = matrix.cell(engine, sched).expect("complete");
            assert_eq!(c.quality.components, 1, "{engine}/{sched} disconnected");
        }
        let dex = matrix.cell("dex", sched).expect("complete");
        assert_eq!(dex.quality.components, 1, "dex/{sched} disconnected");
        assert!(
            dex.quality.max_degree <= dex_bound,
            "dex/{sched}: {} > {dex_bound}",
            dex.quality.max_degree
        );
    }

    let out = json(&matrix, smoke, steps, dex_bound);
    std::fs::write(&out_path, &out).expect("write arena report");
    println!("\nwrote {out_path}");

    if let Some(trace_path) = xheal_bench::trace_arg(&args) {
        xheal_bench::capture_trace(&trace_path, ARENA_SEED);
    }
}
