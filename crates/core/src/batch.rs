//! Batch (multi-node) deletion — the extension the paper's model section
//! promises: "Our algorithm can be extended to handle multiple
//! insertions/deletions."
//!
//! Deleting several nodes *simultaneously* is not the same as deleting them
//! one at a time: two adjacent victims heal each other's neighborhoods in
//! the sequential case, but in a batch both are gone before any repair runs
//! (consider the path `x–A–B–y` with `{A, B}` deleted: sequential healing
//! connects `x–B` first, batch healing must connect `x–y` directly).
//!
//! The extension therefore groups the victims into connected components of
//! the victim-induced subgraph and heals each dead component as one
//! super-deletion: its live boundary plays the role of `NBR(v)`, the union
//! of the component's primary clouds is repaired and re-linked by a
//! secondary cloud, and every secondary cloud that lost a bridge gets a
//! replacement (Case 2.2 per lost bridge).
//!
//! Like single deletions, the *decisions* live in the planner
//! ([`RepairPlanner::plan_batch_deletion`] turns a captured
//! [`BatchVictim`] context into a staged [`BatchRepairPlan`]) and executors
//! only apply them: [`crate::Xheal::heal_delete_batch`] applies the stages
//! directly, `xheal-dist`'s `delete_batch` runs one message protocol per
//! stage — concurrently — before applying the identical deltas.

use std::collections::BTreeSet;

use xheal_graph::{Graph, NodeId};

use crate::error::HealError;
use crate::plan::PlanAction;

/// Report for one batch healing operation.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Number of victims deleted.
    pub victims: usize,
    /// Connected components the victims formed (each healed independently).
    pub components: usize,
    /// Secondary clouds built during the repair.
    pub secondaries_built: usize,
    /// Combine operations triggered.
    pub combines: usize,
    /// Colored edges added across all stages of the repair.
    pub edges_added: usize,
    /// Colored-edge labels stripped across all stages of the repair.
    pub edges_removed: usize,
}

/// The pre-deletion context of one batch victim, captured from the graph
/// before anything is removed: which *other victims* it was adjacent to
/// (this induces the dead components) and which *live* black neighbors
/// form its share of the repair boundary.
#[derive(Clone, Debug)]
pub struct BatchVictim {
    /// The victim.
    pub node: NodeId,
    /// Fellow victims adjacent to this one (any edge kind).
    pub victim_neighbors: Vec<NodeId>,
    /// Surviving black neighbors — this victim's contribution to `NBR`.
    pub black_boundary: Vec<NodeId>,
}

impl BatchVictim {
    /// Validates `victims` against `graph` — all present, no duplicates —
    /// without capturing context or mutating anything. This is the one
    /// batch-rejection rule every engine shares: [`BatchVictim::capture`]
    /// applies it for Xheal and the distributed executor, and the
    /// baselines' sequential batch approximation calls it directly, so all
    /// engines reject invalid bursts identically.
    ///
    /// # Errors
    ///
    /// [`HealError::NodeMissing`] if any victim is absent, and
    /// [`HealError::DuplicateVictim`] if a present victim is named twice —
    /// whichever the scan in `victims` order meets first.
    pub fn validate(graph: &Graph, victims: &[NodeId]) -> Result<(), HealError> {
        Self::victim_set(graph, victims).map(|_| ())
    }

    /// The validated, deduplicated victim set (see [`BatchVictim::validate`]).
    fn victim_set(graph: &Graph, victims: &[NodeId]) -> Result<BTreeSet<NodeId>, HealError> {
        let mut set: BTreeSet<NodeId> = BTreeSet::new();
        for &v in victims {
            if !graph.contains_node(v) {
                return Err(HealError::NodeMissing(v));
            }
            if !set.insert(v) {
                return Err(HealError::DuplicateVictim(v));
            }
        }
        Ok(set)
    }

    /// Validates `victims` against `graph` and captures the per-victim
    /// context the planner needs, ascending by node id.
    ///
    /// # Errors
    ///
    /// As in [`BatchVictim::validate`]. Nothing is mutated.
    pub fn capture(graph: &Graph, victims: &[NodeId]) -> Result<Vec<BatchVictim>, HealError> {
        let set = Self::victim_set(graph, victims)?;
        Ok(set
            .iter()
            .map(|&v| {
                let mut victim_neighbors = Vec::new();
                let mut black_boundary = Vec::new();
                for (u, labels) in graph.neighbors_labeled(v) {
                    if set.contains(&u) {
                        victim_neighbors.push(u);
                    } else if labels.is_black() {
                        black_boundary.push(u);
                    }
                }
                BatchVictim {
                    node: v,
                    victim_neighbors,
                    black_boundary,
                }
            })
            .collect())
    }
}

/// One independently executable stage of a batch repair.
#[derive(Clone, Debug)]
pub struct BatchStage {
    /// The dead component this stage repairs, ascending — empty for the
    /// *detach prologue* (removing every victim from every cloud), which is
    /// shared by all components and must run first.
    pub component: Vec<NodeId>,
    /// The structural steps, in execution order.
    pub actions: Vec<PlanAction>,
}

/// The full decision record of one batch deletion: an ordered prologue plus
/// one stage per dead component. Stages after the prologue touch disjoint
/// victim components and may execute concurrently — which is exactly what
/// the distributed executor does.
#[derive(Clone, Debug)]
pub struct BatchRepairPlan {
    /// Prologue first, then one stage per dead component (component order).
    pub stages: Vec<BatchStage>,
    /// Batch-level accounting (also folded into the planner's stats).
    pub report: BatchReport,
}

impl BatchRepairPlan {
    /// All actions across all stages, in execution order.
    pub fn actions(&self) -> impl Iterator<Item = &PlanAction> {
        self.stages.iter().flat_map(|s| s.actions.iter())
    }

    /// Applies every stage to `graph`, in order.
    pub fn apply_to(&self, graph: &mut Graph) {
        self.apply_streamed(graph, &mut crate::engine::SinkRegistry::default());
    }

    /// Applies every stage to `graph`, in order, emitting the
    /// [`crate::TopologyDelta`] stream to `sinks`.
    ///
    /// Convenience wrapper over [`BatchRepairPlan::apply_streamed_with`]
    /// with a throwaway scratch.
    pub fn apply_streamed(&self, graph: &mut Graph, sinks: &mut crate::engine::SinkRegistry) {
        self.apply_streamed_with(graph, sinks, &mut crate::plan::ApplyScratch::default());
    }

    /// Applies all stages as grouped mutation batches through
    /// [`xheal_graph::Graph::apply_delta`] — the memory-wall fast path.
    /// Mutations across the prologue and every component stage accumulate
    /// into shared sequence-ordered batches (chunked past the accumulation
    /// cap so the op buffer stays cache-resident; per-pair interleavings
    /// such as the prologue detaching an edge a later stage re-adds stay
    /// bit-identical to stage-by-stage application), and the
    /// [`crate::TopologyDelta`] stream is emitted in exactly the order the
    /// per-action path would produce.
    pub fn apply_streamed_with(
        &self,
        graph: &mut Graph,
        sinks: &mut crate::engine::SinkRegistry,
        scratch: &mut crate::plan::ApplyScratch,
    ) {
        scratch.begin();
        for action in self.actions() {
            if scratch.should_flush() {
                scratch.flush(graph, sinks);
            }
            scratch.push_action(action);
        }
        scratch.flush(graph, sinks);
    }
}

/// Connected components of the victim set under pre-deletion adjacency,
/// each ascending, in ascending order of smallest member.
pub(crate) fn victim_components(victims: &[BatchVictim]) -> Vec<Vec<NodeId>> {
    let index: std::collections::BTreeMap<NodeId, usize> = victims
        .iter()
        .enumerate()
        .map(|(i, bv)| (bv.node, i))
        .collect();
    let mut seen: BTreeSet<NodeId> = BTreeSet::new();
    let mut out = Vec::new();
    for bv in victims {
        if seen.contains(&bv.node) {
            continue;
        }
        let mut comp = Vec::new();
        let mut stack = vec![bv.node];
        seen.insert(bv.node);
        while let Some(v) = stack.pop() {
            comp.push(v);
            for &u in &victims[index[&v]].victim_neighbors {
                if seen.insert(u) {
                    stack.push(u);
                }
            }
        }
        comp.sort_unstable();
        out.push(comp);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::RepairPlanner;
    use crate::{invariants, Xheal, XhealConfig};
    use rand::{rngs::StdRng, Rng, SeedableRng};
    use xheal_graph::{components, generators};

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn adjacent_victims_on_a_path_reconnect_endpoints() {
        // x - A - B - y: deleting {A, B} simultaneously must connect x to y.
        let g = generators::path(4); // 0 - 1 - 2 - 3
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(1));
        let report = x.heal_delete_batch(&[n(1), n(2)]).unwrap();
        assert_eq!(report.victims, 2);
        assert_eq!(report.components, 1, "adjacent victims form one component");
        assert!(components::is_connected(x.graph()));
        assert!(x.graph().has_edge(n(0), n(3)) || x.graph().node_count() < 2);
        invariants::check_invariants(&x).unwrap();
    }

    #[test]
    fn disjoint_victims_heal_independently() {
        let g = generators::cycle(12);
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(2));
        let report = x.heal_delete_batch(&[n(0), n(6)]).unwrap();
        assert_eq!(report.components, 2);
        assert!(components::is_connected(x.graph()));
        invariants::check_invariants(&x).unwrap();
    }

    #[test]
    fn duplicate_and_missing_victims_rejected() {
        let g = generators::cycle(5);
        let mut x = Xheal::new(&g, XhealConfig::default());
        assert_eq!(
            x.heal_delete_batch(&[n(0), n(1), n(0)]).unwrap_err(),
            HealError::DuplicateVictim(n(0))
        );
        assert_eq!(
            x.heal_delete_batch(&[n(99)]).unwrap_err(),
            HealError::NodeMissing(n(99))
        );
        // Nothing was mutated.
        assert_eq!(x.graph().node_count(), 5);
    }

    #[test]
    fn star_core_batch_deletion() {
        // Delete the hub and three leaves at once.
        let g = generators::star(12);
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(3));
        x.heal_delete_batch(&[n(0), n(1), n(2), n(3)]).unwrap();
        assert!(components::is_connected(x.graph()));
        assert_eq!(x.graph().node_count(), 8);
        invariants::check_invariants(&x).unwrap();
    }

    #[test]
    fn random_batches_keep_invariants_and_connectivity() {
        let mut rng = StdRng::seed_from_u64(44);
        let g0 = generators::connected_erdos_renyi(48, 0.09, &mut rng);
        let mut x = Xheal::new(&g0, XhealConfig::new(4).with_seed(9));
        for round in 0..8 {
            let nodes = x.graph().node_vec();
            if nodes.len() <= 10 {
                break;
            }
            let mut victims: BTreeSet<NodeId> = BTreeSet::new();
            for _ in 0..rng.random_range(2..=4usize) {
                victims.insert(nodes[rng.random_range(0..nodes.len())]);
            }
            let victims: Vec<NodeId> = victims.into_iter().collect();
            x.heal_delete_batch(&victims).unwrap();
            assert!(
                components::is_connected(x.graph()),
                "round {round}: disconnected after batch {victims:?}"
            );
            invariants::check_invariants(&x).unwrap_or_else(|e| panic!("round {round}: {e}"));
        }
    }

    #[test]
    fn batch_after_sequential_history_handles_bridges() {
        // Build up secondary clouds with sequential deletions, then batch-
        // delete two nodes including a bridge.
        let mut rng = StdRng::seed_from_u64(5);
        let g0 = generators::connected_erdos_renyi(36, 0.1, &mut rng);
        let mut x = Xheal::new(&g0, XhealConfig::new(4).with_seed(21));
        let mut bridge = None;
        for i in 0..25 {
            let nodes = x.graph().node_vec();
            x.heal_delete(nodes[(i * 3) % nodes.len()]).unwrap();
            if let Some(&(f, _)) = x
                .cloud_colors()
                .iter()
                .find(|&&(_, k)| k == xheal_graph::CloudKind::Secondary)
            {
                bridge = x.cloud(f).unwrap().members().iter().next().copied();
                break;
            }
        }
        let bridge = bridge.expect("secondary appears");
        let other = x
            .graph()
            .node_vec()
            .into_iter()
            .find(|&v| v != bridge)
            .unwrap();
        x.heal_delete_batch(&[bridge, other]).unwrap();
        assert!(components::is_connected(x.graph()));
        invariants::check_invariants(&x).unwrap();
    }

    #[test]
    fn adjacent_victims_spanning_two_clouds() {
        // Two stars joined by a black bridge edge between leaves; deleting
        // both hubs creates two clouds; then batch-delete the two adjacent
        // bridge-edge endpoints — one member of each cloud, forming a single
        // dead component that spans both clouds.
        let mut g = generators::star(6); // hub 0, leaves 1..=5
        for i in 10..16u64 {
            g.add_node(n(i)).unwrap();
        }
        for i in 11..16u64 {
            g.add_black_edge(n(10), n(i)).unwrap(); // hub 10, leaves 11..=15
        }
        g.add_black_edge(n(1), n(11)).unwrap(); // the inter-star bridge edge
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(8));
        x.heal_delete(n(0)).unwrap(); // cloud A over 1..=5
        x.heal_delete(n(10)).unwrap(); // cloud B over 11..=15
        assert!(x.cloud_count() >= 2, "two primary clouds expected");
        let report = x.heal_delete_batch(&[n(1), n(11)]).unwrap();
        assert_eq!(report.components, 1, "adjacent victims are one component");
        assert!(components::is_connected(x.graph()));
        invariants::check_invariants(&x).unwrap();
    }

    #[test]
    fn batch_deleting_an_entire_cloud() {
        // A star whose leaves (the future cloud) all die at once; two
        // outside nodes hang off leaves and must be re-linked by the repair.
        let mut g = generators::star(6); // hub 0, leaves 1..=5
        g.add_node(n(100)).unwrap();
        g.add_node(n(101)).unwrap();
        g.add_black_edge(n(100), n(1)).unwrap();
        g.add_black_edge(n(101), n(3)).unwrap();
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(13));
        x.heal_delete(n(0)).unwrap(); // cloud over leaves 1..=5
        assert_eq!(x.cloud_count(), 1);
        let report = x
            .heal_delete_batch(&[n(1), n(2), n(3), n(4), n(5)])
            .unwrap();
        assert_eq!(report.victims, 5);
        assert_eq!(x.graph().node_count(), 2);
        assert!(
            components::is_connected(x.graph()),
            "outside nodes must be re-linked after their cloud died"
        );
        invariants::check_invariants(&x).unwrap();
    }

    #[test]
    fn batch_of_all_but_min_nodes() {
        // Delete everything except two survivors in one batch.
        let g = generators::cycle(12);
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(17));
        let victims: Vec<NodeId> = (0..10).map(n).collect();
        let report = x.heal_delete_batch(&victims).unwrap();
        assert_eq!(report.victims, 10);
        assert_eq!(x.graph().node_count(), 2);
        assert!(
            components::is_connected(x.graph()),
            "the two survivors must stay connected"
        );
        invariants::check_invariants(&x).unwrap();
    }

    #[test]
    fn batch_plan_stages_split_prologue_and_components() {
        let g = generators::cycle(12);
        let ctx = BatchVictim::capture(&g, &[n(0), n(6)]).unwrap();
        let comps = victim_components(&ctx);
        assert_eq!(comps, vec![vec![n(0)], vec![n(6)]]);
        let mut planner = RepairPlanner::new(g.nodes(), XhealConfig::new(4).with_seed(1));
        let plan = planner.plan_batch_deletion(&ctx);
        assert_eq!(plan.stages.len(), 3, "prologue + two components");
        assert!(plan.stages[0].component.is_empty(), "prologue first");
        assert_eq!(plan.stages[1].component, vec![n(0)]);
        assert_eq!(plan.stages[2].component, vec![n(6)]);
        // Edge accounting across stages matches the folded stats.
        let added: usize = plan.actions().map(|a| a.delta().added.len()).sum();
        assert_eq!(added, planner.stats().edges_added);
    }

    #[test]
    fn capture_rejects_without_mutation() {
        let g = generators::cycle(4);
        assert_eq!(
            BatchVictim::capture(&g, &[n(1), n(1)]).unwrap_err(),
            HealError::DuplicateVictim(n(1))
        );
        assert_eq!(
            BatchVictim::capture(&g, &[n(44)]).unwrap_err(),
            HealError::NodeMissing(n(44))
        );
        let ctx = BatchVictim::capture(&g, &[n(2), n(1)]).unwrap();
        assert_eq!(ctx[0].node, n(1), "context is ascending");
        assert_eq!(ctx[0].victim_neighbors, vec![n(2)]);
        assert_eq!(ctx[0].black_boundary, vec![n(0)]);
    }
}
