//! What one pass over a workload's tape measures, and the pieces every
//! workload shares.

use std::time::{Duration, Instant};

use xheal_core::RepairPlanner;
use xheal_graph::{components, Graph};

use crate::probe::{Attribution, TAGS};

/// The engines' fixed configuration (the tapes are the only input that
/// varies with the seed).
pub const KAPPA: usize = 4;
pub const PLANNER_SEED: u64 = 7;
pub const LINK_SEED: u64 = 42;

/// One set-up plus one replay of the workload's tape.
#[derive(Default)]
pub struct Pass {
    /// Overlay, engine, monitor and warm-up, before the clock starts.
    pub setup_s: f64,
    /// Wall time of the replay loop (traced passes exclude span drains).
    pub loop_s: f64,
    /// Which of the run's tapes was replayed.
    pub tape: usize,
    /// Work completed (events, or messages sent, per workload).
    pub ops: u64,
    /// Per-step latencies in microseconds.
    pub steps_us: Vec<f64>,
    /// Operations and output checks attempted, and how many failed.
    pub attempted: u64,
    pub failed: u64,
    /// Why each failure happened.
    pub failures: Vec<String>,
    /// `Graph::edge_fingerprint` of the final topology.
    pub fingerprint: u64,
    /// Counts that must repeat exactly for a given tape, traced or not.
    pub counts: Vec<(&'static str, f64)>,
    /// Traced passes only: per-layer self times, allocation tallies, and
    /// counts only the instruments can see.
    pub attribution: Attribution,
    pub allocs: [u64; TAGS],
    pub traced_counts: Vec<(&'static str, f64)>,
}

impl Pass {
    /// Records one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    /// Records one applied operation's result.
    pub fn op<T, E: std::fmt::Debug>(&mut self, r: Result<T, E>) {
        self.attempted += 1;
        if let Err(e) = r {
            self.failed += 1;
            self.failures.push(format!("rejected: {e:?}"));
        }
    }

    /// The checks every workload makes of its final graph.
    pub fn check_graph(&mut self, g: &Graph) {
        self.check(components::is_connected(g), || {
            "final graph is disconnected".into()
        });
        self.fingerprint = g.edge_fingerprint();
        self.counts.push(("graph.nodes", g.node_count() as f64));
        self.counts.push(("graph.edges", g.edge_count() as f64));
    }

    /// The planner's deterministic counters.
    pub fn count_planner(&mut self, p: &RepairPlanner) {
        let s = p.stats();
        let max_cloud = p
            .cloud_colors()
            .into_iter()
            .filter_map(|(c, _)| p.cloud(c).map(|cl| cl.len()))
            .max()
            .unwrap_or(0);
        self.counts.extend([
            ("core.repairs", p.repair_seq() as f64),
            ("core.insertions", s.insertions as f64),
            ("core.combines", s.combines as f64),
            ("core.shares", s.shares as f64),
            ("core.secondaries_built", s.secondaries_built as f64),
            ("core.edges_added", s.edges_added as f64),
            ("core.edges_removed", s.edges_removed as f64),
            ("core.clouds", p.cloud_count() as f64),
            ("core.max_cloud", max_cloud as f64),
        ]);
    }
}

/// A wall clock that can be paused while a traced pass drains its spans.
pub struct Stopwatch {
    since: Option<Instant>,
    total: Duration,
}

impl Stopwatch {
    pub fn start() -> Self {
        Stopwatch {
            since: Some(Instant::now()),
            total: Duration::ZERO,
        }
    }

    pub fn pause(&mut self) {
        if let Some(t) = self.since.take() {
            self.total += t.elapsed();
        }
    }

    pub fn resume(&mut self) {
        self.since.get_or_insert_with(Instant::now);
    }

    pub fn secs(&self) -> f64 {
        (self.total + self.since.map_or(Duration::ZERO, |t| t.elapsed())).as_secs_f64()
    }
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}
