//! Churn-throughput harness: the measured seed-vs-arena comparison.
//!
//! Drives the *same* seeded [`RepairPlanner`] repair schedule through two
//! graph backends — the arena-backed [`xheal_graph::Graph`] and the seed
//! `BTreeMap` representation ([`xheal_graph::baseline::BaselineGraph`]) —
//! over large random-regular networks under mixed insert/delete adversaries,
//! and records:
//!
//! - **heal-delete micro**: per-deletion latency on a delete-only schedule,
//!   split into the *graph-side* cost (node removal + repair-plan edge
//!   application — the part the representation owns) and the full operation
//!   including the shared planner;
//! - **end-to-end churn**: events/sec over a mixed insert/delete schedule,
//!   with p50/p99 heal latency and peak live edges;
//! - **topology fingerprints** proving both backends walked through
//!   bit-identical edge sets (the determinism guarantee of the rewrite).
//!
//! Output is `BENCH_throughput.json` (override with `--out`); `--smoke`
//! shrinks sizes for CI; `--trace <path>` additionally captures a fully
//! instrumented cross-layer companion run as chrome://tracing JSON (see
//! `xheal_bench::capture_trace`). With the `bench` feature a counting global
//! allocator additionally records heap allocations per measurement phase
//! (`"allocs"` fields, `"alloc_counting": true`), so regressions in the
//! zero-alloc hot paths fail loudly. Run the full measurement with:
//!
//! ```text
//! cargo run --release -p xheal-bench --features bench --bin churn_throughput
//! ```

use std::time::{Duration, Instant};

use xheal_bench::{alloc_count, ALLOC_COUNTING};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use xheal_core::{ApplyScratch, BatchVictim, RepairPlanner, SinkRegistry, XhealConfig};
use xheal_graph::baseline::BaselineGraph;
use xheal_graph::{generators, CloudColor, EdgeLabels, Graph, NodeId};

const KAPPA: usize = 6;
const PLANNER_SEED: u64 = 11;
const ADVERSARY_SEED: u64 = 0x5EED_CAFE;

/// The graph operations a repair executor needs, implemented by both
/// representations so one driver measures both.
trait Backend {
    fn from_initial(g0: &Graph) -> Self;
    fn degree(&self, v: NodeId) -> usize;
    fn edge_count(&self) -> usize;
    fn add_node(&mut self, v: NodeId);
    fn add_black_edge(&mut self, u: NodeId, v: NodeId);
    /// Removes `v`, appending its incident `(neighbor, labels)` pairs
    /// (ascending by neighbor) to `out`.
    fn remove_node_into(&mut self, v: NodeId, out: &mut Vec<(NodeId, EdgeLabels)>);
    fn strip_color(&mut self, u: NodeId, v: NodeId, c: CloudColor);
    fn add_colored_edge(&mut self, u: NodeId, v: NodeId, c: CloudColor);
    /// Order-sensitive hash over the full `edges()` enumeration: equal
    /// fingerprints mean identical topology *and* identical iteration order.
    fn edge_fingerprint(&self) -> u64;
}

impl Backend for Graph {
    fn from_initial(g0: &Graph) -> Self {
        g0.clone()
    }
    fn degree(&self, v: NodeId) -> usize {
        Graph::degree(self, v).expect("victim is live")
    }
    fn edge_count(&self) -> usize {
        Graph::edge_count(self)
    }
    fn add_node(&mut self, v: NodeId) {
        Graph::add_node(self, v).expect("fresh id");
    }
    fn add_black_edge(&mut self, u: NodeId, v: NodeId) {
        Graph::add_black_edge(self, u, v).expect("live endpoints");
    }
    fn remove_node_into(&mut self, v: NodeId, out: &mut Vec<(NodeId, EdgeLabels)>) {
        Graph::remove_node_into(self, v, out).expect("victim is live");
    }
    fn strip_color(&mut self, u: NodeId, v: NodeId, c: CloudColor) {
        Graph::strip_color(self, u, v, c);
    }
    fn add_colored_edge(&mut self, u: NodeId, v: NodeId, c: CloudColor) {
        Graph::add_colored_edge(self, u, v, c).expect("cloud members are live");
    }
    fn edge_fingerprint(&self) -> u64 {
        Graph::edge_fingerprint(self)
    }
}

impl Backend for BaselineGraph {
    fn from_initial(g0: &Graph) -> Self {
        let mut m = BaselineGraph::new();
        for v in g0.nodes() {
            m.add_node(v).expect("fresh id");
        }
        for (u, v, _) in g0.edges() {
            m.add_black_edge(u, v).expect("live endpoints");
        }
        m
    }
    fn degree(&self, v: NodeId) -> usize {
        BaselineGraph::degree(self, v).expect("victim is live")
    }
    fn edge_count(&self) -> usize {
        BaselineGraph::edge_count(self)
    }
    fn add_node(&mut self, v: NodeId) {
        BaselineGraph::add_node(self, v).expect("fresh id");
    }
    fn add_black_edge(&mut self, u: NodeId, v: NodeId) {
        BaselineGraph::add_black_edge(self, u, v).expect("live endpoints");
    }
    fn remove_node_into(&mut self, v: NodeId, out: &mut Vec<(NodeId, EdgeLabels)>) {
        out.extend(BaselineGraph::remove_node(self, v).expect("victim is live"));
    }
    fn strip_color(&mut self, u: NodeId, v: NodeId, c: CloudColor) {
        BaselineGraph::strip_color(self, u, v, c);
    }
    fn add_colored_edge(&mut self, u: NodeId, v: NodeId, c: CloudColor) {
        BaselineGraph::add_colored_edge(self, u, v, c).expect("cloud members are live");
    }
    fn edge_fingerprint(&self) -> u64 {
        BaselineGraph::edge_fingerprint(self)
    }
}

/// Applies one planned repair to a backend, returning nothing; the planner
/// already advanced. Mirrors `RepairPlan::apply_to`.
fn apply_plan<B: Backend>(backend: &mut B, plan: &xheal_core::RepairPlan) {
    for action in &plan.actions {
        let color = action.color();
        let delta = action.delta();
        for &(u, w) in &delta.removed {
            backend.strip_color(u, w, color);
        }
        for &(u, w) in &delta.added {
            backend.add_colored_edge(u, w, color);
        }
    }
}

#[derive(Clone, Copy, Debug)]
struct Quantiles {
    p50: u64,
    p99: u64,
    mean: u64,
}

fn quantiles(samples: &mut [u64]) -> Quantiles {
    assert!(!samples.is_empty(), "no latency samples recorded");
    samples.sort_unstable();
    let q = |p: f64| samples[((samples.len() - 1) as f64 * p) as usize];
    Quantiles {
        p50: q(0.50),
        p99: q(0.99),
        mean: samples.iter().sum::<u64>() / samples.len() as u64,
    }
}

/// Result of the delete-only microbench over one backend.
struct MicroResult {
    deletes: usize,
    graph: Quantiles,
    op: Quantiles,
    /// Heap allocations across the measurement loop (0 without `bench`).
    allocs: u64,
    fingerprint: u64,
}

/// Delete-only schedule over a prepared random-regular network: the
/// heal-delete microbench. Victim choice and planner randomness are seeded,
/// so both backends replay the identical repair schedule.
fn run_micro<B: Backend>(g0: &Graph, deletes: usize) -> MicroResult {
    let mut backend = B::from_initial(g0);
    let mut planner =
        RepairPlanner::new(g0.nodes(), XhealConfig::new(KAPPA).with_seed(PLANNER_SEED));
    let mut adv = StdRng::seed_from_u64(ADVERSARY_SEED);
    let mut live: Vec<NodeId> = g0.nodes().collect();
    let mut incident: Vec<(NodeId, EdgeLabels)> = Vec::new();
    let mut graph_ns: Vec<u64> = Vec::with_capacity(deletes);
    let mut op_ns: Vec<u64> = Vec::with_capacity(deletes);
    let allocs_before = alloc_count();

    for _ in 0..deletes {
        let v = live.swap_remove(adv.random_range(0..live.len()));
        incident.clear();
        let t_op = Instant::now();
        let degree = backend.degree(v);
        let t_graph = Instant::now();
        backend.remove_node_into(v, &mut incident);
        let mut spent_graph = t_graph.elapsed();
        let plan = planner.plan_deletion(v, &incident, degree);
        let t_apply = Instant::now();
        apply_plan(&mut backend, &plan);
        spent_graph += t_apply.elapsed();
        op_ns.push(t_op.elapsed().as_nanos() as u64);
        graph_ns.push(spent_graph.as_nanos() as u64);
    }

    let allocs = alloc_count() - allocs_before;
    MicroResult {
        deletes,
        graph: quantiles(&mut graph_ns),
        op: quantiles(&mut op_ns),
        allocs,
        fingerprint: backend.edge_fingerprint(),
    }
}

/// Result of the mixed-churn end-to-end run over one backend.
struct ChurnResult {
    events: usize,
    inserts: usize,
    deletes: usize,
    /// Heap allocations across the measurement loop (0 without `bench`).
    allocs: u64,
    elapsed: Duration,
    heal: Quantiles,
    peak_edges: usize,
    final_edges: usize,
    fingerprint: u64,
}

/// Mixed insert/delete adversary at 50/50, inserts wiring 1..=3 black edges
/// to random live nodes — the DEX-style sustained-churn workload. The whole
/// pipeline (adversary bookkeeping aside) is timed: graph ops + planner.
fn run_churn<B: Backend>(g0: &Graph, events: usize) -> ChurnResult {
    let mut backend = B::from_initial(g0);
    let mut planner =
        RepairPlanner::new(g0.nodes(), XhealConfig::new(KAPPA).with_seed(PLANNER_SEED));
    let mut adv = StdRng::seed_from_u64(ADVERSARY_SEED ^ 0xC0FFEE);
    let mut live: Vec<NodeId> = g0.nodes().collect();
    let mut next_id = live.iter().map(|v| v.as_u64() + 1).max().unwrap_or(0);
    let mut incident: Vec<(NodeId, EdgeLabels)> = Vec::new();
    let mut heal_ns: Vec<u64> = Vec::new();
    let mut inserts = 0usize;
    let mut deletes = 0usize;
    let mut peak_edges = 0usize;
    let mut elapsed = Duration::ZERO;
    let allocs_before = alloc_count();

    for _ in 0..events {
        if live.len() < 8 || adv.random::<f64>() < 0.5 {
            // Insert: fresh node, 1..=3 black edges to random live nodes.
            let v = NodeId::new(next_id);
            next_id += 1;
            let wanted = adv.random_range(1..=3usize.min(live.len()));
            let mut nbrs = [NodeId::new(0); 3];
            for slot in nbrs.iter_mut().take(wanted) {
                *slot = live[adv.random_range(0..live.len())];
            }
            let t = Instant::now();
            backend.add_node(v);
            for &u in nbrs.iter().take(wanted) {
                if u != v {
                    backend.add_black_edge(v, u);
                }
            }
            planner.note_insert(v);
            elapsed += t.elapsed();
            live.push(v);
            inserts += 1;
        } else {
            let v = live.swap_remove(adv.random_range(0..live.len()));
            incident.clear();
            let t = Instant::now();
            let degree = backend.degree(v);
            backend.remove_node_into(v, &mut incident);
            let plan = planner.plan_deletion(v, &incident, degree);
            apply_plan(&mut backend, &plan);
            let spent = t.elapsed();
            elapsed += spent;
            heal_ns.push(spent.as_nanos() as u64);
            deletes += 1;
        }
        peak_edges = peak_edges.max(backend.edge_count());
    }

    let allocs = alloc_count() - allocs_before;
    ChurnResult {
        events,
        inserts,
        deletes,
        allocs,
        elapsed,
        heal: quantiles(&mut heal_ns),
        peak_edges,
        final_edges: backend.edge_count(),
        fingerprint: backend.edge_fingerprint(),
    }
}

/// Result of one plan-application run (per-edge or grouped) on the arena
/// backend: apply-phase latency only, the part `Graph::apply_delta` owns.
struct PlanApplyResult {
    deletes: usize,
    apply: Quantiles,
    /// Heap allocations across the measurement loop (0 without `bench`).
    allocs: u64,
    fingerprint: u64,
}

/// Victims per batch-deletion event in the grouped-vs-per-edge comparison —
/// the batch-stage workload the bulk path targets (one flush covers the
/// detach prologue plus every component stage of the batch plan).
const APPLY_BATCH: usize = 16;

/// Victims per event in the *clustered-outage* variant: one BFS ball — a
/// "rack" of topologically adjacent nodes dying together, the correlated
/// failure `examples/datacenter_outage.rs` models. Clustered victims
/// concentrate the batch plan's mutations on the hole's boundary and on
/// cloud leaders, so per-slot groups grow past singletons and the merge
/// pass in `Graph::apply_delta` does real work.
const CLUSTER_BATCH: usize = 64;

/// Collects a BFS ball of up to `k` live nodes around a random live
/// center (deterministic: neighbor lists iterate sorted ascending).
fn bfs_ball(graph: &Graph, n: usize, adv: &mut StdRng, k: usize, out: &mut Vec<NodeId>) {
    out.clear();
    let center = loop {
        let id = NodeId::new(adv.random_range(0..n as u64));
        if graph.degree(id).is_some() {
            break id;
        }
    };
    out.push(center);
    let mut qi = 0;
    'fill: while qi < out.len() && out.len() < k {
        let v = out[qi];
        qi += 1;
        for u in graph.neighbors(v) {
            if !out.contains(&u) {
                out.push(u);
                if out.len() == k {
                    break 'fill;
                }
            }
        }
    }
}

/// Batched delete-only schedule (seeded), applying each batch repair plan
/// through one of the two live application paths and timing **only the
/// apply phase**:
///
/// - `grouped = false`: the sequential reference — one
///   `PlanAction::apply_streamed` per action (two binary searches and a
///   list edit per edge);
/// - `grouped = true`: `BatchRepairPlan::apply_streamed_with` — the whole
///   batch plan (prologue + all component stages) flushed as one grouped
///   mutation batch through `Graph::apply_delta`, with the executor-style
///   persistent [`ApplyScratch`].
///
/// `clustered = false` draws [`APPLY_BATCH`] victims uniformly (scattered
/// independent failures — the no-group-overlap worst case for the bulk
/// path); `clustered = true` kills a [`CLUSTER_BATCH`]-node BFS ball per
/// event (a correlated rack-style outage).
///
/// No sinks are registered, so the grouped path also exercises the
/// registry fast path (no delta materialization at all).
fn run_plan_apply(g0: &Graph, deletes: usize, grouped: bool, clustered: bool) -> PlanApplyResult {
    let batch = if clustered {
        CLUSTER_BATCH
    } else {
        APPLY_BATCH
    };
    let events = deletes.div_ceil(batch);
    let n = g0.node_count();
    let mut graph = g0.clone();
    let mut planner =
        RepairPlanner::new(g0.nodes(), XhealConfig::new(KAPPA).with_seed(PLANNER_SEED));
    let mut adv = StdRng::seed_from_u64(ADVERSARY_SEED);
    let mut live: Vec<NodeId> = if clustered {
        Vec::new()
    } else {
        g0.nodes().collect()
    };
    let mut victims: Vec<NodeId> = Vec::with_capacity(batch);
    let mut sinks = SinkRegistry::default();
    let mut scratch = ApplyScratch::default();
    let mut apply_ns: Vec<u64> = Vec::with_capacity(events);
    let mut applied = 0usize;
    let allocs_before = alloc_count();

    for _ in 0..events {
        if clustered {
            bfs_ball(&graph, n, &mut adv, batch, &mut victims);
        } else {
            victims.clear();
            for _ in 0..batch {
                victims.push(live.swap_remove(adv.random_range(0..live.len())));
            }
        }
        applied += victims.len();
        let ctx = BatchVictim::capture(&graph, &victims).expect("victims are live");
        for bv in &ctx {
            let _ = graph.remove_node(bv.node);
        }
        let plan = planner.plan_batch_deletion(&ctx);
        let t = Instant::now();
        if grouped {
            plan.apply_streamed_with(&mut graph, &mut sinks, &mut scratch);
        } else {
            for action in plan.actions() {
                action.apply_streamed(&mut graph, &mut sinks);
            }
        }
        apply_ns.push(t.elapsed().as_nanos() as u64);
    }

    let allocs = alloc_count() - allocs_before;
    PlanApplyResult {
        deletes: applied,
        apply: quantiles(&mut apply_ns),
        allocs,
        fingerprint: graph.edge_fingerprint(),
    }
}

/// Measures the grouped-vs-per-edge plan application comparison on the
/// arena backend, returning the JSON fragment and the mean apply-phase
/// speedup. Both paths must land on the same topology fingerprint.
fn measure_grouped_apply(
    g0: &Graph,
    deletes: usize,
    trials: usize,
    clustered: bool,
) -> (String, f64, u64) {
    // Interleave the two paths' trials so slow drift in machine load hits
    // both comparably, keeping best-of-trials per path.
    let mut runs: Vec<PlanApplyResult> = (0..trials)
        .flat_map(|_| {
            [
                run_plan_apply(g0, deletes, false, clustered),
                run_plan_apply(g0, deletes, true, clustered),
            ]
        })
        .collect();
    let grouped = runs.drain(..).enumerate().fold(
        (None::<PlanApplyResult>, None::<PlanApplyResult>),
        |acc, (i, r)| {
            let (mut pe, mut gr) = acc;
            let best = if i % 2 == 0 { &mut pe } else { &mut gr };
            if best.as_ref().is_none_or(|b| r.apply.mean < b.apply.mean) {
                *best = Some(r);
            }
            (pe, gr)
        },
    );
    let (per_edge, grouped) = (
        grouped.0.expect("at least one trial"),
        grouped.1.expect("at least one trial"),
    );
    assert_eq!(
        per_edge.fingerprint, grouped.fingerprint,
        "grouped and per-edge application must produce bit-identical topologies"
    );
    let speedup = ratio(per_edge.apply.mean, grouped.apply.mean);
    eprintln!(
        "[n={} {}] grouped apply {speedup:.2}x over per-edge ({} vs {} mean ns/batch-plan)",
        g0.node_count(),
        if clustered { "clustered" } else { "uniform" },
        grouped.apply.mean,
        per_edge.apply.mean,
    );
    let path = |r: &PlanApplyResult| {
        format!(
            "{{\"apply\": {}, \"allocs\": {}}}",
            json_quantiles(&r.apply),
            r.allocs,
        )
    };
    let json = format!(
        "{{\"deletes\": {}, \"batch\": {}, \"per_edge\": {}, \"grouped\": {}, \"speedup_apply_mean\": {:.3}, \"topology_match\": true}}",
        per_edge.deletes,
        if clustered { CLUSTER_BATCH } else { APPLY_BATCH },
        path(&per_edge),
        path(&grouped),
        speedup,
    );
    (json, speedup, grouped.allocs)
}

/// Runs the grouped-vs-per-edge comparison under both failure models —
/// uniform scattered victims and clustered BFS-ball outages — returning
/// the combined JSON object plus both mean speedups and the grouped
/// path's uniform-schedule allocation count.
fn measure_grouped_pair(g0: &Graph, deletes: usize, trials: usize) -> (String, f64, f64, u64) {
    let (uniform_json, uniform_speedup, grouped_allocs) =
        measure_grouped_apply(g0, deletes, trials, false);
    let (clustered_json, clustered_speedup, _) = measure_grouped_apply(g0, deletes, trials, true);
    let json = format!("{{\"uniform\": {uniform_json}, \"clustered_outage\": {clustered_json}}}");
    (json, uniform_speedup, clustered_speedup, grouped_allocs)
}

fn ratio(seed_ns: u64, arena_ns: u64) -> f64 {
    seed_ns as f64 / arena_ns.max(1) as f64
}

fn json_quantiles(q: &Quantiles) -> String {
    format!(
        "{{\"p50_ns\": {}, \"p99_ns\": {}, \"mean_ns\": {}}}",
        q.p50, q.p99, q.mean
    )
}

struct SizeReport {
    n: usize,
    micro_json: String,
    churn_json: String,
    grouped_json: String,
    micro_graph_speedup: f64,
    micro_op_speedup: f64,
    churn_speedup: f64,
    grouped_speedup: f64,
    clustered_speedup: f64,
    topology_match: bool,
}

fn measure_size(n: usize, micro_deletes: usize, churn_events: usize, trials: usize) -> SizeReport {
    let mut rng = StdRng::seed_from_u64(n as u64);
    let g0 = generators::random_regular(n, 6, &mut rng);

    // Best-of-N per backend: the schedule is identical across trials
    // (everything is seeded), so the minimum isolates machine noise.
    let best_micro = |r: &MicroResult| r.op.mean;
    let best_churn = |r: &ChurnResult| r.elapsed;

    eprintln!("[n={n}] heal-delete micro: {micro_deletes} deletes × {trials} trial(s) per backend");
    let micro_arena = (0..trials)
        .map(|_| run_micro::<Graph>(&g0, micro_deletes))
        .min_by_key(best_micro)
        .expect("at least one trial");
    let micro_seed = (0..trials)
        .map(|_| run_micro::<BaselineGraph>(&g0, micro_deletes))
        .min_by_key(best_micro)
        .expect("at least one trial");
    assert_eq!(
        micro_arena.fingerprint, micro_seed.fingerprint,
        "micro schedules must produce bit-identical topologies"
    );

    eprintln!("[n={n}] grouped vs per-edge plan application: {micro_deletes} deletes × {trials} trial(s) per path");
    let (grouped_json, grouped_speedup, clustered_speedup, _) =
        measure_grouped_pair(&g0, micro_deletes, trials);

    eprintln!("[n={n}] end-to-end churn: {churn_events} events × {trials} trial(s) per backend");
    let churn_arena = (0..trials)
        .map(|_| run_churn::<Graph>(&g0, churn_events))
        .min_by_key(best_churn)
        .expect("at least one trial");
    let churn_seed = (0..trials)
        .map(|_| run_churn::<BaselineGraph>(&g0, churn_events))
        .min_by_key(best_churn)
        .expect("at least one trial");
    let topology_match = churn_arena.fingerprint == churn_seed.fingerprint
        && churn_arena.peak_edges == churn_seed.peak_edges
        && churn_arena.final_edges == churn_seed.final_edges;
    assert!(
        topology_match,
        "churn schedules must produce bit-identical topologies"
    );

    let micro_graph_speedup = ratio(micro_seed.graph.mean, micro_arena.graph.mean);
    let micro_op_speedup = ratio(micro_seed.op.mean, micro_arena.op.mean);
    let eps = |r: &ChurnResult| r.events as f64 / r.elapsed.as_secs_f64();
    let churn_speedup = eps(&churn_arena) / eps(&churn_seed);

    eprintln!(
        "[n={n}] micro graph-side {:.2}x (op {:.2}x), churn {:.2}x ({:.0} vs {:.0} events/sec)",
        micro_graph_speedup,
        micro_op_speedup,
        churn_speedup,
        eps(&churn_arena),
        eps(&churn_seed),
    );

    let micro_backend = |r: &MicroResult| {
        format!(
            "{{\"graph_side\": {}, \"full_op\": {}, \"allocs\": {}}}",
            json_quantiles(&r.graph),
            json_quantiles(&r.op),
            r.allocs,
        )
    };
    let micro_json = format!(
        "{{\"deletes\": {}, \"arena\": {}, \"seed\": {}, \"speedup_graph_side_mean\": {:.3}, \"speedup_full_op_mean\": {:.3}}}",
        micro_arena.deletes,
        micro_backend(&micro_arena),
        micro_backend(&micro_seed),
        micro_graph_speedup,
        micro_op_speedup,
    );
    let churn_backend = |r: &ChurnResult| {
        format!(
            "{{\"events_per_sec\": {:.1}, \"heal_latency\": {}, \"peak_edges\": {}, \"final_edges\": {}, \"inserts\": {}, \"deletes\": {}, \"allocs\": {}}}",
            eps(r),
            json_quantiles(&r.heal),
            r.peak_edges,
            r.final_edges,
            r.inserts,
            r.deletes,
            r.allocs,
        )
    };
    let churn_json = format!(
        "{{\"events\": {}, \"insert_ratio\": 0.5, \"arena\": {}, \"seed\": {}, \"speedup_events_per_sec\": {:.3}, \"topology_match\": {}}}",
        churn_events,
        churn_backend(&churn_arena),
        churn_backend(&churn_seed),
        churn_speedup,
        topology_match,
    );

    SizeReport {
        n,
        micro_json,
        churn_json,
        grouped_json,
        micro_graph_speedup,
        micro_op_speedup,
        churn_speedup,
        grouped_speedup,
        clustered_speedup,
        topology_match,
    }
}

/// The memory-wall row: an arena-only grouped-vs-per-edge comparison at a
/// size where the seed backend is infeasible (the full seed run at n=50k
/// already takes ~25 minutes; 1M would take days). Returns the JSON entry
/// and the grouped apply-phase speedups (uniform, clustered).
fn measure_size_arena_only(n: usize, deletes: usize, trials: usize) -> (String, f64, f64) {
    eprintln!("[n={n}] arena-only memory-wall row: generating 6-regular network…");
    let mut rng = StdRng::seed_from_u64(n as u64);
    let g0 = generators::random_regular(n, 6, &mut rng);
    eprintln!("[n={n}] grouped vs per-edge plan application: {deletes} deletes × {trials} trial(s) per path");
    let (grouped_json, grouped_speedup, clustered_speedup, _) =
        measure_grouped_pair(&g0, deletes, trials);
    let entry =
        format!("    {{\"n\": {n}, \"arena_only\": true, \"grouped_apply\": {grouped_json}}}");
    (entry, grouped_speedup, clustered_speedup)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out_path = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1))
        .cloned()
        .unwrap_or_else(|| "BENCH_throughput.json".to_string());

    // (n, micro deletes, churn events) per size. Churn runs 2 events per
    // node at 1k/10k so those sizes reach the sustained-churn regime
    // (clouds mature, repairs dominate) instead of measuring a cold-start
    // transient; the 50k schedule is capped at 1 event per node because the
    // *seed* backend's mature-regime repairs are slow enough to push the
    // recorded run past 25 minutes — itself a data point.
    let sizes: Vec<(usize, usize, usize)> = if smoke {
        vec![(200, 80, 400)]
    } else {
        vec![
            (1_000, 600, 2_000),
            (10_000, 6_000, 20_000),
            (50_000, 6_000, 50_000),
        ]
    };

    // Arena-only rows (n, deletes): the seed backend is infeasible here, so
    // only the arena hot path runs. Full mode records the 1M-node row plus
    // an 8M-node row whose slot arena (~2 GB) overflows any LLC, so both
    // application paths run DRAM-latency-bound; the rows time the one
    // in-order `apply_delta` flush against per-edge application there.
    // Smoke keeps a liveness-sized row.
    let large_rows: Vec<(usize, usize)> = if smoke {
        vec![(1_000, 200)]
    } else {
        vec![(1_000_000, 2_000), (8_000_000, 2_000)]
    };

    let trials = if smoke { 1 } else { 2 };
    let reports: Vec<SizeReport> = sizes
        .iter()
        .map(|&(n, d, e)| measure_size(n, d, e, trials))
        .collect();
    let large_reports: Vec<(String, f64, f64)> = large_rows
        .iter()
        .map(|&(n, d)| measure_size_arena_only(n, d, trials))
        .collect();

    let min_micro = reports
        .iter()
        .map(|r| r.micro_graph_speedup)
        .fold(f64::INFINITY, f64::min);
    let max_micro = reports
        .iter()
        .map(|r| r.micro_graph_speedup)
        .fold(0.0, f64::max);
    let min_churn = reports
        .iter()
        .map(|r| r.churn_speedup)
        .fold(f64::INFINITY, f64::min);
    let max_churn = reports.iter().map(|r| r.churn_speedup).fold(0.0, f64::max);
    let all_match = reports.iter().all(|r| r.topology_match);

    let mut size_entries: Vec<String> = reports
        .iter()
        .map(|r| {
            format!(
                "    {{\"n\": {}, \"micro_heal_delete\": {}, \"churn\": {}, \"grouped_apply\": {}}}",
                r.n, r.micro_json, r.churn_json, r.grouped_json
            )
        })
        .collect();
    size_entries.extend(large_reports.iter().map(|(entry, _, _)| entry.clone()));
    let grouped_speedups: Vec<f64> = reports
        .iter()
        .map(|r| r.grouped_speedup)
        .chain(large_reports.iter().map(|&(_, s, _)| s))
        .collect();
    let clustered_speedups: Vec<f64> = reports
        .iter()
        .map(|r| r.clustered_speedup)
        .chain(large_reports.iter().map(|&(_, _, s)| s))
        .collect();
    let min_grouped = grouped_speedups
        .iter()
        .chain(clustered_speedups.iter())
        .copied()
        .fold(f64::INFINITY, f64::min);
    let max_grouped = grouped_speedups
        .iter()
        .chain(clustered_speedups.iter())
        .copied()
        .fold(0.0, f64::max);
    let json = format!(
        "{{\n  \"schema\": \"xheal-churn-throughput/v5\",\n  \"smoke\": {smoke},\n  \"alloc_counting\": {ALLOC_COUNTING},\n  \"kappa\": {KAPPA},\n  \"planner_seed\": {PLANNER_SEED},\n  \"adversary_seed\": {ADVERSARY_SEED},\n  \"sizes\": [\n{}\n  ],\n  \"summary\": {{\n    \"micro_graph_side_speedup_min\": {min_micro:.3},\n    \"micro_graph_side_speedup_max\": {max_micro:.3},\n    \"churn_events_per_sec_speedup_min\": {min_churn:.3},\n    \"churn_events_per_sec_speedup_max\": {max_churn:.3},\n    \"grouped_apply_speedup_min\": {min_grouped:.3},\n    \"grouped_apply_speedup_max\": {max_grouped:.3},\n    \"micro_full_op_speedups\": [{}],\n    \"grouped_apply_speedups\": [{}],\n    \"clustered_apply_speedups\": [{}],\n    \"topology_match\": {all_match}\n  }}\n}}\n",
        size_entries.join(",\n"),
        reports
            .iter()
            .map(|r| format!("{:.3}", r.micro_op_speedup))
            .collect::<Vec<_>>()
            .join(", "),
        grouped_speedups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
        clustered_speedups
            .iter()
            .map(|s| format!("{s:.3}"))
            .collect::<Vec<_>>()
            .join(", "),
    );

    std::fs::write(&out_path, &json).expect("write throughput report");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if let Some(trace_path) = xheal_bench::trace_arg(&args) {
        xheal_bench::capture_trace(&trace_path, PLANNER_SEED);
    }
}
