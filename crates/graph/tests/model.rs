//! Model-based equivalence: the arena-backed [`Graph`] against the seed
//! `BTreeMap` representation ([`BaselineGraph`]).
//!
//! Random operation sequences are replayed against both representations and
//! every observable — returned values, errors, node order, edge order,
//! labels, degrees, cuts — must agree exactly. This is the license for the
//! arena rewrite: the seed representation *is* the pre-rewrite `Graph`, so
//! agreement here proves iteration order and seeded experiment outputs are
//! unchanged.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use xheal_graph::baseline::BaselineGraph;
use xheal_graph::{CloudColor, EdgeLabels, EdgeMutation, Graph, NodeId};

/// One randomized operation over the node id universe `0..universe`.
#[derive(Clone, Copy, Debug)]
enum Op {
    AddNode(u64),
    RemoveNode(u64),
    AddBlack(u64, u64),
    AddColored(u64, u64, u64),
    StripColor(u64, u64, u64),
    StripBlack(u64, u64),
    RemoveEdge(u64, u64),
    /// A grouped `Graph::apply_delta` batch, derived from the inner seed —
    /// replayed on the baseline as the sequential per-edge loop.
    BulkDelta(u64),
}

fn random_ops(seed: u64, steps: usize) -> Vec<Op> {
    let mut rng = StdRng::seed_from_u64(seed);
    let universe = 16u64;
    (0..steps)
        .map(|_| {
            let a = rng.random_range(0..universe);
            let b = rng.random_range(0..universe);
            let c = rng.random_range(0..4u64);
            match rng.random_range(0..11u32) {
                0..=1 => Op::AddNode(a),
                2 => Op::RemoveNode(a),
                3..=5 => Op::AddBlack(a, b),
                6 => Op::AddColored(a, b, c),
                7 => Op::StripColor(a, b, c),
                8 => Op::StripBlack(a, b),
                9 => Op::RemoveEdge(a, b),
                _ => Op::BulkDelta(rng.random()),
            }
        })
        .collect()
}

/// Expands a [`Op::BulkDelta`] seed into a mutation batch legal for the
/// current graph: adds are restricted to live, distinct endpoints (batch
/// application validates them up front), strips are unrestricted — their
/// missing-endpoint/label tolerance is part of what is under test.
fn random_batch(seed: u64, g: &Graph) -> Vec<EdgeMutation> {
    let mut rng = StdRng::seed_from_u64(seed);
    let universe = 16u64;
    let n = NodeId::new;
    let len = rng.random_range(0..24usize);
    let mut out = Vec::with_capacity(len);
    for _ in 0..len {
        let a = n(rng.random_range(0..universe));
        let b = n(rng.random_range(0..universe));
        let color = if rng.random::<bool>() {
            Some(CloudColor::new(rng.random_range(0..4u64)))
        } else {
            None
        };
        let add = rng.random::<bool>();
        if add && (a == b || !g.contains_node(a) || !g.contains_node(b)) {
            continue;
        }
        out.push(EdgeMutation { a, b, color, add });
    }
    out
}

/// Full observable dump used for cross-representation comparison.
fn dump(g: &Graph) -> (Vec<NodeId>, Vec<(NodeId, NodeId, EdgeLabels)>) {
    (
        g.node_vec(),
        g.edges().map(|(u, v, l)| (u, v, l.clone())).collect(),
    )
}

fn dump_baseline(g: &BaselineGraph) -> (Vec<NodeId>, Vec<(NodeId, NodeId, EdgeLabels)>) {
    (
        g.node_vec(),
        g.edges().map(|(u, v, l)| (u, v, l.clone())).collect(),
    )
}

fn apply_both(g: &mut Graph, m: &mut BaselineGraph, op: Op) -> Result<(), TestCaseError> {
    let n = NodeId::new;
    match op {
        Op::AddNode(a) => prop_assert_eq!(g.add_node(n(a)), m.add_node(n(a))),
        Op::RemoveNode(a) => prop_assert_eq!(g.remove_node(n(a)), m.remove_node(n(a))),
        Op::AddBlack(a, b) => {
            prop_assert_eq!(g.add_black_edge(n(a), n(b)), m.add_black_edge(n(a), n(b)));
        }
        Op::AddColored(a, b, c) => prop_assert_eq!(
            g.add_colored_edge(n(a), n(b), CloudColor::new(c)),
            m.add_colored_edge(n(a), n(b), CloudColor::new(c))
        ),
        Op::StripColor(a, b, c) => prop_assert_eq!(
            g.strip_color(n(a), n(b), CloudColor::new(c)),
            m.strip_color(n(a), n(b), CloudColor::new(c))
        ),
        Op::StripBlack(a, b) => {
            prop_assert_eq!(g.strip_black(n(a), n(b)), m.strip_black(n(a), n(b)));
        }
        Op::RemoveEdge(a, b) => {
            prop_assert_eq!(g.remove_edge(n(a), n(b)), m.remove_edge(n(a), n(b)));
        }
        Op::BulkDelta(seed) => {
            let batch = random_batch(seed, g);
            prop_assert!(g.apply_delta(&batch).is_ok());
            for op in &batch {
                match (op.add, op.color) {
                    (true, Some(c)) => {
                        m.add_colored_edge(op.a, op.b, c).unwrap();
                    }
                    (true, None) => {
                        m.add_black_edge(op.a, op.b).unwrap();
                    }
                    (false, Some(c)) => {
                        m.strip_color(op.a, op.b, c);
                    }
                    (false, None) => {
                        m.strip_black(op.a, op.b);
                    }
                }
            }
        }
    }
    Ok(())
}

proptest! {
    /// Every op returns identical results and leaves identical observable
    /// state in both representations.
    #[test]
    fn arena_matches_btreemap_model(seed in any::<u64>(), steps in 10usize..160) {
        let mut g = Graph::new();
        let mut m = BaselineGraph::new();
        for op in random_ops(seed, steps) {
            apply_both(&mut g, &mut m, op)?;
        }
        prop_assert!(g.validate().is_ok(), "arena invariants: {:?}", g.validate());
        prop_assert!(m.validate().is_ok());
        prop_assert_eq!(dump(&g), dump_baseline(&m));
        prop_assert_eq!(g.node_count(), m.node_count());
        prop_assert_eq!(g.edge_count(), m.edge_count());
        for v in g.node_vec() {
            prop_assert_eq!(g.degree(v), m.degree(v));
            prop_assert_eq!(g.black_degree(v), m.black_degree(v));
            let gn: Vec<NodeId> = g.neighbors(v).collect();
            let mn: Vec<NodeId> = m.neighbors(v).collect();
            prop_assert_eq!(gn, mn);
        }
        // cut_size over a pseudo-random side must agree with the set-based
        // seed implementation.
        let side: Vec<NodeId> = g.node_vec().into_iter().step_by(2).collect();
        prop_assert_eq!(g.cut_size(&side), m.cut_size(&side));
    }

    /// The dense CSR snapshot enumerates exactly the adjacency, in order.
    #[test]
    fn csr_view_agrees_with_model(seed in any::<u64>(), steps in 10usize..120) {
        let mut g = Graph::new();
        let mut m = BaselineGraph::new();
        for op in random_ops(seed, steps) {
            apply_both(&mut g, &mut m, op)?;
        }
        let csr = g.csr_view();
        prop_assert_eq!(csr.nodes().to_vec(), m.node_vec());
        for i in 0..csr.len() {
            let expect: Vec<NodeId> = m.neighbors(csr.node(i)).collect();
            let got: Vec<NodeId> = csr
                .neighbors_of(i)
                .iter()
                .map(|&j| csr.node(j as usize))
                .collect();
            prop_assert_eq!(got, expect);
            prop_assert_eq!(csr.degree_of(i), m.degree(csr.node(i)).unwrap());
        }
    }
}

/// Determinism pin: after heavy churn (including slot recycling), `nodes()`
/// and `edges()` enumerate in exactly the ascending order the seed
/// representation produced — the order every seeded experiment replays.
#[test]
fn iteration_order_is_identical_to_seed_representation() {
    let mut rng = StdRng::seed_from_u64(0xD15EA5E);
    let mut g = Graph::new();
    let mut m = BaselineGraph::new();
    // Interleave inserts/deletes/colorings so slots are heavily recycled and
    // arena order diverges maximally from id order.
    let mut live: Vec<u64> = Vec::new();
    let mut next = 0u64;
    for step in 0..4000 {
        if live.len() < 3 || rng.random::<f64>() < 0.55 {
            g.add_node(NodeId::new(next)).unwrap();
            m.add_node(NodeId::new(next)).unwrap();
            if !live.is_empty() {
                for _ in 0..rng.random_range(0..3usize) {
                    let u = live[rng.random_range(0..live.len())];
                    let _ = g.add_black_edge(NodeId::new(next), NodeId::new(u));
                    let _ = m.add_black_edge(NodeId::new(next), NodeId::new(u));
                }
            }
            live.push(next);
            next += 1;
        } else {
            let i = rng.random_range(0..live.len());
            let v = live.swap_remove(i);
            assert_eq!(
                g.remove_node(NodeId::new(v)),
                m.remove_node(NodeId::new(v)),
                "step {step}"
            );
        }
        if step % 7 == 0 && live.len() >= 2 {
            let a = live[rng.random_range(0..live.len())];
            let b = live[rng.random_range(0..live.len())];
            if a != b {
                let c = CloudColor::new(step as u64 % 5);
                assert_eq!(
                    g.add_colored_edge(NodeId::new(a), NodeId::new(b), c),
                    m.add_colored_edge(NodeId::new(a), NodeId::new(b), c)
                );
            }
        }
    }
    g.validate().unwrap();

    let nodes: Vec<NodeId> = g.nodes().collect();
    assert!(
        nodes.windows(2).all(|w| w[0] < w[1]),
        "nodes() must ascend strictly"
    );
    assert_eq!(nodes, m.node_vec());

    let arena_edges: Vec<(NodeId, NodeId, EdgeLabels)> =
        g.edges().map(|(u, v, l)| (u, v, l.clone())).collect();
    let seed_edges: Vec<(NodeId, NodeId, EdgeLabels)> =
        m.edges().map(|(u, v, l)| (u, v, l.clone())).collect();
    assert_eq!(
        arena_edges, seed_edges,
        "edges() enumeration order must match the seed representation"
    );
}
