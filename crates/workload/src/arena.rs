//! The engine arena: every healing engine, identical adversary schedules,
//! one trade-off matrix.
//!
//! The `HealingEngine` trait plus the seeded [`Adversary`] strategies make a
//! cross-algorithm shoot-out nearly free to wire: build a fresh engine of
//! every flavor over one initial graph ([`standard_registry`] knows all nine),
//! drive each through the same seeded schedules ([`ArenaSchedule::standard`]
//! gives uniform churn, clustered bursts, and insert-heavy growth), and
//! score each run with an [`ArenaScorer`] — `xheal-monitor` implements one
//! live on degree increase, stretch, expansion, and spectral gap; the
//! dependency-free [`NoScorer`] records topology basics only.
//!
//! The output [`ArenaMatrix`] is healing *cost* (rounds, messages, edge
//! operations) against invariant *quality* per engine per adversary — the
//! head-to-head measurement the Xheal/DEX paper family never ran.
//!
//! Two caveats the numbers only mean something with:
//!
//! - Schedules are *identically seeded*, not identically materialized:
//!   uniform churn and insert-heavy growth pick victims and contact points
//!   by membership only, so their event streams are bit-identical across
//!   engines; clustered bursts gather BFS racks over each engine's healed
//!   topology, so victim *sets* legitimately differ per engine while the
//!   burst cadence and seeds stay fixed.
//! - Reference-relative metrics (degree increase, stretch) are scored
//!   against each engine's own reference graph: the engine's graph at
//!   attach time plus black insertion edges. For every engine but DEX that
//!   is the shared `G'`; DEX rebuilds topology at construction, so its
//!   reference is its own bootstrap projection.
//!
//! # Examples
//!
//! ```
//! use xheal_graph::generators;
//! use xheal_workload::{run_arena, ArenaSchedule, NoScorer, standard_registry};
//!
//! let g0 = generators::ring_with_chords(24);
//! let reg = standard_registry(4);
//! let matrix = run_arena(&reg, &ArenaSchedule::standard(12), &g0, 7, |_, _, _| NoScorer);
//! assert_eq!(matrix.cells.len(), reg.len() * 3);
//! ```

use std::time::Instant;

use crate::adversary::{Adversary, BurstDeletions, InsertOnly, RandomChurn};
use crate::runner::{run_observed, RunObserver, RunSummary, Severity};
use xheal_baselines::{BinaryTreeHeal, CycleHeal, ForgivingLike, NoHeal, StarHeal};
use xheal_core::{EngineRegistry, HealingEngine, Xheal};
use xheal_dex::{Dex, DexConfig};
use xheal_dist::{DistXheal, Msg};
use xheal_graph::{components, Graph};
use xheal_sim::{AsyncConfig, AsyncNetwork};

/// One adversary schedule of the arena: a named, seeded event-stream shape.
#[derive(Clone, Copy, Debug)]
pub struct ArenaSchedule {
    /// Stable schedule name (a column key of `BENCH_arena.json`).
    pub name: &'static str,
    /// Maximum events the schedule feeds each engine.
    pub steps: usize,
    kind: ScheduleKind,
}

#[derive(Clone, Copy, Debug)]
enum ScheduleKind {
    /// Balanced insert/delete churn, victims uniform over membership.
    UniformChurn,
    /// Growth punctuated by clustered `DeleteBatch` racks (BFS holes).
    ClusteredBursts,
    /// Pure growth: insertions only.
    InsertHeavy,
}

impl ArenaSchedule {
    /// Balanced uniform churn (~45% inserts, uniform single deletions).
    pub fn uniform_churn(steps: usize) -> Self {
        ArenaSchedule {
            name: "uniform-churn",
            steps,
            kind: ScheduleKind::UniformChurn,
        }
    }

    /// Insert-leaning growth punctured by clustered rack deletions: every
    /// fourth event batch-deletes a BFS rack of 5.
    pub fn clustered_bursts(steps: usize) -> Self {
        ArenaSchedule {
            name: "clustered-bursts",
            steps,
            kind: ScheduleKind::ClusteredBursts,
        }
    }

    /// Insertions only — measures what maintenance costs when nothing dies.
    pub fn insert_heavy(steps: usize) -> Self {
        ArenaSchedule {
            name: "insert-heavy",
            steps,
            kind: ScheduleKind::InsertHeavy,
        }
    }

    /// The canonical three-schedule arena sweep.
    pub fn standard(steps: usize) -> Vec<ArenaSchedule> {
        vec![
            Self::uniform_churn(steps),
            Self::clustered_bursts(steps),
            Self::insert_heavy(steps),
        ]
    }

    /// Instantiates this schedule's adversary over `g0`.
    pub fn adversary(&self, g0: &Graph) -> Box<dyn Adversary> {
        match self.kind {
            ScheduleKind::UniformChurn => Box::new(RandomChurn::new(0.45, 4, 8, g0)),
            ScheduleKind::ClusteredBursts => Box::new(BurstDeletions::new(5, 4, 4, 8, g0)),
            ScheduleKind::InsertHeavy => Box::new(InsertOnly::new(3, g0)),
        }
    }

    /// The adversary seed for this schedule under arena seed `base`: fixed
    /// per schedule so every engine faces the same random tape.
    pub fn seed(&self, base: u64) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64 ^ base;
        for b in self.name.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }
}

/// Invariant-quality readings of one finished arena cell. `None` marks a
/// metric the scorer does not measure.
#[derive(Clone, Debug, Default)]
pub struct ArenaQuality {
    /// Largest node degree in the final graph.
    pub max_degree: usize,
    /// Worst degree over the engine's reference-graph degree (the paper's
    /// degree-increase metric), when the scorer tracks a reference.
    pub degree_increase: Option<f64>,
    /// Sampled stretch of reference adjacency in the final graph.
    pub stretch: Option<f64>,
    /// Edge-expansion estimate of the final graph.
    pub expansion: Option<f64>,
    /// Algebraic connectivity λ₂ of the final normalized Laplacian.
    pub spectral_gap: Option<f64>,
    /// Second-order drift: λ₃ of the final normalized Laplacian.
    pub lambda3: Option<f64>,
    /// Connected components of the final graph (1 = healed connectivity).
    pub components: usize,
    /// Warning-severity health notes recorded during the run.
    pub warn_notes: usize,
    /// Critical-severity health notes recorded during the run.
    pub critical_notes: usize,
}

/// A per-run scorer: observes every applied event (it is a [`RunObserver`]),
/// may subscribe topology sinks at attach time, and distills an
/// [`ArenaQuality`] when the run finishes.
pub trait ArenaScorer: RunObserver {
    /// Called once before the run with the freshly built engine (subscribe
    /// sinks here; the engine's graph is its post-construction state).
    fn attach(&mut self, engine: &mut dyn HealingEngine);

    /// Called once after the run with the engine's final graph and the
    /// run summary.
    fn finish(&mut self, graph: &Graph, summary: &RunSummary) -> ArenaQuality;
}

/// The dependency-free scorer: records final topology basics (max degree,
/// components, note counts) and measures nothing reference-relative or
/// spectral. The monitor-backed scorer lives with the arena bench bin.
#[derive(Clone, Copy, Debug, Default)]
pub struct NoScorer;

impl RunObserver for NoScorer {
    fn on_event(&mut self, _: usize, _: &xheal_core::Event, _: &xheal_core::Outcome, _: &Graph) {}
}

impl ArenaScorer for NoScorer {
    fn attach(&mut self, _engine: &mut dyn HealingEngine) {}

    fn finish(&mut self, graph: &Graph, summary: &RunSummary) -> ArenaQuality {
        ArenaQuality {
            max_degree: graph
                .node_vec()
                .iter()
                .filter_map(|&v| graph.degree(v))
                .max()
                .unwrap_or(0),
            components: components::components(graph).len(),
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
            ..ArenaQuality::default()
        }
    }
}

/// One engine × schedule cell of the trade-off matrix: healing cost on the
/// left, invariant quality on the right.
#[derive(Clone, Debug)]
pub struct ArenaCell {
    /// Registry key of the engine (distinct even where engine names
    /// collide, e.g. the two distributed substrates).
    pub engine: String,
    /// Schedule name.
    pub schedule: &'static str,
    /// Events actually applied (schedules may exhaust early).
    pub steps_applied: usize,
    /// Insertions applied.
    pub insertions: usize,
    /// Deletions applied (batch victims all count).
    pub deletions: usize,
    /// Repair edges added across the run.
    pub edges_added: usize,
    /// Repair edge labels stripped across the run.
    pub edges_removed: usize,
    /// Protocol rounds spent healing (0 for engines reporting no cost).
    pub rounds: u64,
    /// Protocol messages spent healing (0 for engines reporting no cost).
    pub messages: u64,
    /// The share of [`ArenaCell::rounds`] attributable to insertions
    /// (DEX reconfiguration; 0 for engines whose insertions are free).
    pub insert_rounds: u64,
    /// The share of [`ArenaCell::messages`] attributable to insertions.
    pub insert_messages: u64,
    /// Node count of the final graph.
    pub nodes: usize,
    /// Edge count of the final graph.
    pub edges: usize,
    /// Wall-clock nanoseconds of the engine+scorer run.
    pub wall_nanos: u128,
    /// The scorer's quality readings.
    pub quality: ArenaQuality,
}

/// The full trade-off matrix of one arena sweep.
#[derive(Clone, Debug)]
pub struct ArenaMatrix {
    /// Node count of the shared initial graph.
    pub n0: usize,
    /// Base seed of the sweep.
    pub seed: u64,
    /// All cells, schedule-major then engine (registry key) order.
    pub cells: Vec<ArenaCell>,
}

impl ArenaMatrix {
    /// Looks up one cell by registry key and schedule name.
    pub fn cell(&self, engine: &str, schedule: &str) -> Option<&ArenaCell> {
        self.cells
            .iter()
            .find(|c| c.engine == engine && c.schedule == schedule)
    }

    /// Distinct engine keys, ascending.
    pub fn engines(&self) -> Vec<&str> {
        let mut keys: Vec<&str> = self.cells.iter().map(|c| c.engine.as_str()).collect();
        keys.sort_unstable();
        keys.dedup();
        keys
    }

    /// Distinct schedule names in first-seen order.
    pub fn schedules(&self) -> Vec<&str> {
        let mut names: Vec<&str> = Vec::new();
        for c in &self.cells {
            if !names.contains(&c.schedule) {
                names.push(c.schedule);
            }
        }
        names
    }

    /// Whether every engine × schedule combination is present exactly once.
    pub fn is_complete(&self) -> bool {
        let engines = self.engines();
        let schedules = self.schedules();
        self.cells.len() == engines.len() * schedules.len()
            && engines.iter().all(|e| {
                schedules.iter().all(|s| {
                    self.cells
                        .iter()
                        .filter(|c| c.engine == *e && c.schedule == *s)
                        .count()
                        == 1
                })
            })
    }
}

/// Runs every registered engine through every schedule, scoring each cell
/// with a fresh scorer from `make_scorer` (called with the registry key, the
/// schedule, and the engine's post-construction graph).
///
/// Engines are seeded with `seed`; each schedule's adversary tape is fixed
/// across engines via [`ArenaSchedule::seed`].
pub fn run_arena<S, F>(
    registry: &EngineRegistry,
    schedules: &[ArenaSchedule],
    g0: &Graph,
    seed: u64,
    mut make_scorer: F,
) -> ArenaMatrix
where
    S: ArenaScorer,
    F: FnMut(&str, &ArenaSchedule, &Graph) -> S,
{
    let mut cells = Vec::new();
    for sched in schedules {
        for key in registry.keys() {
            let mut engine = registry.build(key, g0, seed).expect("registered key");
            let mut scorer = make_scorer(key, sched, engine.graph());
            scorer.attach(engine.as_mut());
            let mut adversary = sched.adversary(g0);
            let start = Instant::now();
            let summary = run_observed(
                engine.as_mut(),
                adversary.as_mut(),
                sched.steps,
                sched.seed(seed),
                &mut scorer,
            );
            let wall_nanos = start.elapsed().as_nanos();
            let quality = scorer.finish(engine.graph(), &summary);
            cells.push(ArenaCell {
                engine: key.to_string(),
                schedule: sched.name,
                steps_applied: summary.events.len(),
                insertions: summary.insertions,
                deletions: summary.deletions,
                edges_added: summary.edges_added,
                edges_removed: summary.edges_removed,
                rounds: summary.rounds,
                messages: summary.messages,
                insert_rounds: summary.insert_rounds,
                insert_messages: summary.insert_messages,
                nodes: engine.graph().node_count(),
                edges: engine.graph().edge_count(),
                wall_nanos,
                quality,
            });
        }
    }
    ArenaMatrix {
        n0: g0.node_count(),
        seed,
        cells,
    }
}

/// All nine engines of the workspace, keyed distinctly:
///
/// `binary-tree-heal`, `cycle-heal`, `dex`, `forgiving-like`, `no-heal`,
/// `star-heal`, `xheal`, `xheal-dist-async`, `xheal-dist-sync`.
///
/// `kappa` parameterizes the Xheal family; seeds are passed through from the
/// arena. The async distributed engine runs uniform 1–3 tick latency seeded
/// from the engine seed; DEX runs its default degree-8 / load-3 overlay.
pub fn standard_registry(kappa: usize) -> EngineRegistry {
    let mut reg = EngineRegistry::new();
    reg.register("xheal", move |g, s| {
        Box::new(Xheal::builder().kappa(kappa).seed(s).build(g))
    });
    reg.register("xheal-dist-sync", move |g, s| {
        Box::new(DistXheal::builder().kappa(kappa).seed(s).build(g))
    });
    reg.register("xheal-dist-async", move |g, s| {
        Box::new(
            DistXheal::builder()
                .kappa(kappa)
                .seed(s)
                .engine(AsyncNetwork::<Msg>::new(AsyncConfig::uniform(1, 3, s)))
                .build(g),
        )
    });
    reg.register("dex", |g, s| {
        Box::new(Dex::new(
            g,
            DexConfig {
                seed: s,
                ..DexConfig::default()
            },
        ))
    });
    reg.register("no-heal", |g, _| Box::new(NoHeal::new(g)));
    reg.register("cycle-heal", |g, _| Box::new(CycleHeal::new(g)));
    reg.register("star-heal", |g, _| Box::new(StarHeal::new(g)));
    reg.register("binary-tree-heal", |g, _| Box::new(BinaryTreeHeal::new(g)));
    reg.register("forgiving-like", |g, _| Box::new(ForgivingLike::new(g)));
    reg
}

#[cfg(test)]
mod tests {
    use super::*;
    use xheal_graph::generators;

    #[test]
    fn standard_registry_lists_every_engine() {
        let reg = standard_registry(4);
        assert_eq!(
            reg.keys(),
            [
                "binary-tree-heal",
                "cycle-heal",
                "dex",
                "forgiving-like",
                "no-heal",
                "star-heal",
                "xheal",
                "xheal-dist-async",
                "xheal-dist-sync",
            ]
        );
    }

    #[test]
    fn arena_covers_every_cell() {
        let g0 = generators::ring_with_chords(24);
        let reg = standard_registry(4);
        let schedules = ArenaSchedule::standard(10);
        let matrix = run_arena(&reg, &schedules, &g0, 99, |_, _, _| NoScorer);
        assert_eq!(matrix.cells.len(), 27);
        assert!(matrix.is_complete());
        assert_eq!(matrix.engines().len(), 9);
        assert_eq!(
            matrix.schedules(),
            ["uniform-churn", "clustered-bursts", "insert-heavy"]
        );
        for cell in &matrix.cells {
            assert!(cell.steps_applied > 0, "{}/{}", cell.engine, cell.schedule);
            assert!(cell.nodes > 0);
            assert!(cell.quality.max_degree > 0);
        }
        // Insert-heavy growth is deletion-free by construction.
        for e in matrix.engines() {
            let cell = matrix.cell(e, "insert-heavy").unwrap();
            assert_eq!(cell.deletions, 0, "{e}");
            assert_eq!(cell.insertions, cell.steps_applied, "{e}");
        }
    }

    #[test]
    fn membership_only_schedules_are_identical_across_engines() {
        // Uniform churn and insert-heavy pick events from membership alone,
        // so engines with identical memberships see identical event tapes.
        let g0 = generators::ring_with_chords(16);
        let reg = standard_registry(4);
        let schedules = [
            ArenaSchedule::uniform_churn(14),
            ArenaSchedule::insert_heavy(8),
        ];
        for sched in &schedules {
            let mut tapes = Vec::new();
            for key in ["xheal", "dex", "cycle-heal"] {
                let mut engine = reg.build(key, &g0, 5).expect("key");
                let mut adversary = sched.adversary(&g0);
                let summary = crate::runner::run(
                    engine.as_mut(),
                    adversary.as_mut(),
                    sched.steps,
                    sched.seed(5),
                );
                tapes.push(summary.events);
            }
            assert_eq!(tapes[0], tapes[1], "{}", sched.name);
            assert_eq!(tapes[0], tapes[2], "{}", sched.name);
        }
    }

    #[test]
    fn dex_degree_stays_bounded_in_arena() {
        let g0 = generators::ring_with_chords(20);
        let reg = standard_registry(4);
        let matrix = run_arena(&reg, &ArenaSchedule::standard(20), &g0, 3, |_, _, _| {
            NoScorer
        });
        let bound = DexConfig::default().degree * DexConfig::default().max_load;
        for sched in matrix.schedules() {
            let cell = matrix.cell("dex", sched).unwrap();
            assert!(
                cell.quality.max_degree <= bound,
                "{sched}: {} > {bound}",
                cell.quality.max_degree
            );
        }
    }
}
