//! The centralized Xheal executor.
//!
//! All healing *decisions* (Algorithms 3.1–3.6 of the paper: primary and
//! secondary cloud choice, free-node bridging, cloud sharing, combining)
//! live in [`RepairPlanner`]; [`Xheal`] is the thin centralized executor
//! that feeds deletions to the planner and applies the resulting
//! [`RepairPlan`]s to the network graph. The distributed executor
//! (`xheal-dist`) drives the identical planner over a message-passing
//! engine, which is why the two produce bit-identical topologies on
//! identical schedules.

use xheal_graph::{CloudColor, CloudKind, EdgeLabels, Graph, NodeId};
use xheal_trace::{hook, Layer, SharedTracer};

use crate::batch::{BatchReport, BatchVictim};
use crate::cloud::{Cloud, NodeState};
use crate::config::XhealConfig;
use crate::engine::{SinkRegistry, TopologyDelta, TopologySink};
use crate::error::HealError;
use crate::plan::ApplyScratch;
use crate::planner::RepairPlanner;
use crate::stats::{DeletionReport, HealStats};

/// The Xheal self-healing network state: the live graph plus the repair
/// planner, healing deletions as they arrive.
///
/// # Examples
///
/// ```
/// use xheal_core::{Xheal, XhealConfig};
/// use xheal_graph::{components, generators, NodeId};
///
/// // A star: the worst case for tree-style healers.
/// let mut net = Xheal::new(&generators::star(12), XhealConfig::default());
/// net.heal_delete(NodeId::new(0))?; // kill the center
/// assert!(components::is_connected(net.graph()));
/// # Ok::<(), xheal_core::HealError>(())
/// ```
#[derive(Clone, Debug)]
pub struct Xheal {
    graph: Graph,
    planner: RepairPlanner,
    /// Topology-delta subscribers (cloning the healer drops them).
    sinks: SinkRegistry,
    /// Reusable incident-edge buffer for the deletion hot loop.
    scratch_incident: Vec<(NodeId, EdgeLabels)>,
    /// Reusable grouped-application buffers for plan flushes.
    scratch_apply: ApplyScratch,
    /// Optional span recorder shared with the planner; `None` keeps every
    /// instrumentation site a single branch.
    tracer: Option<SharedTracer>,
}

impl Xheal {
    /// Wraps an initial network. All existing edges are treated as black
    /// (original) edges, per the model.
    pub fn new(initial: &Graph, config: XhealConfig) -> Self {
        Xheal {
            graph: initial.clone(),
            planner: RepairPlanner::new(initial.nodes(), config),
            sinks: SinkRegistry::default(),
            scratch_incident: Vec::new(),
            scratch_apply: ApplyScratch::default(),
            tracer: None,
        }
    }

    /// Attaches (or detaches, with `None`) a tracer recording executor and
    /// planner spans. The handle is forwarded to the planner so one ledger
    /// holds both layers of each repair.
    pub fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        self.planner.set_tracer(tracer.clone());
        self.tracer = tracer;
    }

    /// Starts a builder composing configuration, seeding, and topology
    /// sinks before wrapping a network.
    ///
    /// # Examples
    ///
    /// ```
    /// use xheal_core::Xheal;
    /// use xheal_graph::generators;
    ///
    /// let net = Xheal::builder().kappa(4).seed(7).build(&generators::star(8));
    /// assert_eq!(net.kappa(), 4);
    /// ```
    pub fn builder() -> XhealBuilder {
        XhealBuilder::default()
    }

    /// Registers a [`TopologySink`] observing every structural change this
    /// healer applies from now on (see [`crate::HealingEngine::subscribe`]).
    pub fn subscribe(&mut self, sink: Box<dyn TopologySink>) {
        self.sinks.register(sink);
    }

    /// The current (healed) network graph `G_t`.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }

    /// The decision engine (cloud registry, stats, randomness).
    pub fn planner(&self) -> &RepairPlanner {
        &self.planner
    }

    /// The configuration in force.
    pub fn config(&self) -> &XhealConfig {
        self.planner.config()
    }

    /// Cloud expander degree κ.
    pub fn kappa(&self) -> usize {
        self.planner.kappa()
    }

    /// Cumulative healing statistics.
    pub fn stats(&self) -> &HealStats {
        self.planner.stats()
    }

    /// All live cloud colors with their kinds.
    pub fn cloud_colors(&self) -> Vec<(CloudColor, CloudKind)> {
        self.planner.cloud_colors()
    }

    /// Read access to a cloud.
    pub fn cloud(&self, color: CloudColor) -> Option<&Cloud> {
        self.planner.cloud(color)
    }

    /// Read access to a node's membership state.
    pub fn node_state(&self, v: NodeId) -> Option<&NodeState> {
        self.planner.node_state(v)
    }

    /// Number of live clouds.
    pub fn cloud_count(&self) -> usize {
        self.planner.cloud_count()
    }

    // ------------------------------------------------------------------
    // Model events
    // ------------------------------------------------------------------

    /// Adversarial insertion: a new node `v` with black edges to
    /// `neighbors`. Xheal takes no healing action (Algorithm 3.1 lines 1–2).
    ///
    /// # Errors
    ///
    /// [`HealError::NodeExists`] if `v` is present;
    /// [`HealError::NeighborMissing`] if any neighbor is absent.
    pub fn heal_insert(&mut self, v: NodeId, neighbors: &[NodeId]) -> Result<(), HealError> {
        if self.graph.contains_node(v) {
            return Err(HealError::NodeExists(v));
        }
        for &u in neighbors {
            if !self.graph.contains_node(u) {
                return Err(HealError::NeighborMissing(u));
            }
        }
        self.graph.add_node(v).expect("checked fresh");
        if !self.sinks.is_empty() {
            self.sinks.emit(TopologyDelta::NodeAdded(v));
        }
        for &u in neighbors {
            if u != v {
                // Duplicate neighbors tolerated: adding black twice is a no-op.
                let created = self.graph.add_black_edge(v, u).unwrap_or(false);
                if created && !self.sinks.is_empty() {
                    self.sinks.emit(TopologyDelta::EdgeAdded {
                        a: v,
                        b: u,
                        color: None,
                    });
                }
            }
        }
        self.planner.note_insert(v);
        hook::instant(
            &self.tracer,
            Layer::Executor,
            "exec.insert",
            0,
            neighbors.len() as u64,
        );
        Ok(())
    }

    /// Adversarial deletion of `v`, followed by the Xheal repair: the
    /// planner decides, this executor applies.
    ///
    /// # Errors
    ///
    /// [`HealError::NodeMissing`] if `v` is not in the network.
    pub fn heal_delete(&mut self, v: NodeId) -> Result<DeletionReport, HealError> {
        if !self.graph.contains_node(v) {
            return Err(HealError::NodeMissing(v));
        }
        let seq = self.planner.peek_repair_seq();
        hook::begin(
            &self.tracer,
            Layer::Executor,
            "exec.repair",
            seq,
            v.as_u64(),
        );
        let degree = self.graph.degree(v).expect("checked present");
        let mut incident = std::mem::take(&mut self.scratch_incident);
        incident.clear();
        self.graph
            .remove_node_into(v, &mut incident)
            .expect("checked present");
        if !self.sinks.is_empty() {
            self.sinks.emit(TopologyDelta::NodeRemoved(v));
        }
        let plan = self.planner.plan_deletion(v, &incident, degree);
        self.scratch_incident = incident;
        hook::begin(
            &self.tracer,
            Layer::Executor,
            "exec.apply",
            seq,
            plan.actions.len() as u64,
        );
        plan.apply_streamed_with(&mut self.graph, &mut self.sinks, &mut self.scratch_apply);
        hook::end(&self.tracer, Layer::Executor, "exec.apply", seq, 0);
        hook::end(&self.tracer, Layer::Executor, "exec.repair", seq, 0);
        Ok(plan.report)
    }

    /// Deletes all `victims` simultaneously, then heals each dead component
    /// in one repair (the multi-deletion extension; see batch.rs).
    ///
    /// # Errors
    ///
    /// As in [`BatchVictim::validate`]: [`HealError::NodeMissing`] for an
    /// absent victim, [`HealError::DuplicateVictim`] for a repeated one,
    /// both checked before any mutation.
    pub fn heal_delete_batch(&mut self, victims: &[NodeId]) -> Result<BatchReport, HealError> {
        let ctx = BatchVictim::capture(&self.graph, victims)?;
        let seq = self.planner.peek_repair_seq();
        hook::begin(
            &self.tracer,
            Layer::Executor,
            "exec.batch",
            seq,
            victims.len() as u64,
        );
        for bv in &ctx {
            let _ = self.graph.remove_node(bv.node);
            if !self.sinks.is_empty() {
                self.sinks.emit(TopologyDelta::NodeRemoved(bv.node));
            }
        }
        let plan = self.planner.plan_batch_deletion(&ctx);
        hook::begin(
            &self.tracer,
            Layer::Executor,
            "exec.apply",
            seq,
            plan.stages.len() as u64,
        );
        plan.apply_streamed_with(&mut self.graph, &mut self.sinks, &mut self.scratch_apply);
        hook::end(&self.tracer, Layer::Executor, "exec.apply", seq, 0);
        hook::end(&self.tracer, Layer::Executor, "exec.batch", seq, 0);
        Ok(plan.report)
    }
}

/// Builder for [`Xheal`]: composes κ, seeding, ablation switches, and
/// topology sinks without breaking [`XhealConfig`] (which it wraps).
///
/// # Examples
///
/// ```
/// use std::cell::RefCell;
/// use std::rc::Rc;
/// use xheal_core::{DeltaMirror, Xheal};
/// use xheal_graph::generators;
///
/// let g0 = generators::cycle(8);
/// let mirror = Rc::new(RefCell::new(DeltaMirror::new(&g0)));
/// let net = Xheal::builder()
///     .kappa(4)
///     .seed(7)
///     .sink(Box::new(Rc::clone(&mirror)))
///     .build(&g0);
/// assert_eq!(net.config().seed, 7);
/// ```
#[derive(Debug, Default)]
pub struct XhealBuilder {
    config: XhealConfig,
    sinks: SinkRegistry,
}

impl XhealBuilder {
    /// Sets the cloud expander degree κ.
    ///
    /// # Panics
    ///
    /// Panics if `kappa` is odd or less than 2 (see [`XhealConfig::new`]).
    #[must_use]
    pub fn kappa(mut self, kappa: usize) -> Self {
        self.config = self.config.with_kappa(kappa);
        self
    }

    /// Sets the healer randomness seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Replaces the whole configuration (keeping any registered sinks).
    #[must_use]
    pub fn config(mut self, config: XhealConfig) -> Self {
        self.config = config;
        self
    }

    /// Disables secondary clouds (ablation).
    #[must_use]
    pub fn without_secondary_clouds(mut self) -> Self {
        self.config.disable_secondary = true;
        self
    }

    /// Disables free-node sharing (ablation).
    #[must_use]
    pub fn without_sharing(mut self) -> Self {
        self.config.disable_sharing = true;
        self
    }

    /// Registers a [`TopologySink`] the healer starts with.
    #[must_use]
    pub fn sink(mut self, sink: Box<dyn TopologySink>) -> Self {
        self.sinks.register(sink);
        self
    }

    /// Wraps `initial`, consuming the builder.
    pub fn build(self, initial: &Graph) -> Xheal {
        let mut net = Xheal::new(initial, self.config);
        net.sinks = self.sinks;
        net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use xheal_graph::{components, generators};

    use crate::stats::HealCase;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn case1_star_center_deletion_builds_primary_cloud() {
        let mut x = Xheal::new(&generators::star(10), XhealConfig::new(4).with_seed(1));
        let report = x.heal_delete(n(0)).unwrap();
        assert_eq!(report.case, HealCase::AllBlack);
        assert!(components::is_connected(x.graph()));
        assert_eq!(x.cloud_count(), 1);
        let (color, kind) = x.cloud_colors()[0];
        assert_eq!(kind, CloudKind::Primary);
        assert_eq!(x.cloud(color).unwrap().len(), 9);
        // All 9 ex-leaves are members of the new cloud.
        for i in 1..10 {
            assert!(x.node_state(n(i)).unwrap().primaries.contains(&color));
        }
    }

    #[test]
    fn degree_one_deletion_is_dropped() {
        let mut x = Xheal::new(&generators::path(3), XhealConfig::default());
        let report = x.heal_delete(n(0)).unwrap();
        assert_eq!(report.case, HealCase::Dropped);
        assert_eq!(x.cloud_count(), 0);
        assert!(components::is_connected(x.graph()));
    }

    #[test]
    fn insert_then_delete_roundtrip() {
        let mut x = Xheal::new(&generators::cycle(6), XhealConfig::default());
        x.heal_insert(n(100), &[n(0), n(3)]).unwrap();
        assert_eq!(x.graph().black_degree(n(100)), Some(2));
        x.heal_delete(n(100)).unwrap();
        assert!(!x.graph().contains_node(n(100)));
        assert!(components::is_connected(x.graph()));
    }

    #[test]
    fn insert_errors() {
        let mut x = Xheal::new(&generators::cycle(4), XhealConfig::default());
        assert_eq!(x.heal_insert(n(0), &[]), Err(HealError::NodeExists(n(0))));
        assert_eq!(
            x.heal_insert(n(9), &[n(77)]),
            Err(HealError::NeighborMissing(n(77)))
        );
        assert_eq!(
            x.heal_delete(n(42)).map(|_| ()).unwrap_err(),
            HealError::NodeMissing(n(42))
        );
    }

    #[test]
    fn case21_member_deletion_fixes_cloud_and_builds_secondary() {
        // Star deletion creates one cloud; deleting a cloud member with black
        // edges exercises Case 2.1 with singletons.
        let mut g = generators::star(8);
        // Extra black edge between leaf 1 and a fresh outside node 50.
        g.add_node(n(50)).unwrap();
        g.add_black_edge(n(1), n(50)).unwrap();
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(3));
        x.heal_delete(n(0)).unwrap(); // case 1: cloud over leaves 1..8
        let report = x.heal_delete(n(1)).unwrap(); // case 2.1: in cloud + black nbr 50
        assert_eq!(report.case, HealCase::PrimaryOnly);
        assert!(components::is_connected(x.graph()));
        // Node 50's singleton cloud and the repaired primary should be linked
        // by a secondary cloud (or combined).
        let has_secondary = x
            .cloud_colors()
            .iter()
            .any(|&(_, k)| k == CloudKind::Secondary);
        assert!(has_secondary || report.combined);
    }

    #[test]
    fn repeated_deletions_keep_network_connected() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let g = generators::connected_erdos_renyi(40, 0.08, &mut rng);
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(11));
        for i in 0..30 {
            let victim = x.graph().node_vec()[i % x.graph().node_count()];
            x.heal_delete(victim).unwrap();
            assert!(
                components::is_connected(x.graph()),
                "disconnected after deleting {victim}"
            );
            x.graph().validate().unwrap();
        }
        assert_eq!(x.graph().node_count(), 10);
    }

    #[test]
    fn bridge_deletion_case22_keeps_connectivity() {
        // Construct a scenario with a secondary cloud, then delete a bridge.
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        let g = generators::connected_erdos_renyi(30, 0.1, &mut rng);
        let mut x = Xheal::new(&g, XhealConfig::new(4).with_seed(17));
        // Delete until a secondary cloud exists.
        let mut bridge: Option<NodeId> = None;
        for i in 0..25 {
            let victim = x.graph().node_vec()[(i * 3) % x.graph().node_count()];
            x.heal_delete(victim).unwrap();
            if let Some((f, _)) = x
                .cloud_colors()
                .iter()
                .find(|&&(_, k)| k == CloudKind::Secondary)
            {
                bridge = x.cloud(*f).unwrap().members().iter().next().copied();
                break;
            }
        }
        let bridge = bridge.expect("secondary cloud should appear under churn");
        let report = x.heal_delete(bridge).unwrap();
        assert_eq!(report.case, HealCase::Bridge);
        assert!(components::is_connected(x.graph()));
    }

    #[test]
    fn stats_accumulate() {
        let mut x = Xheal::new(&generators::star(10), XhealConfig::default());
        x.heal_insert(n(100), &[n(1)]).unwrap();
        x.heal_delete(n(0)).unwrap();
        let s = x.stats();
        assert_eq!(s.insertions, 1);
        assert_eq!(s.deletions, 1);
        assert!(s.edges_added > 0);
        assert!(s.amortized_lower_bound() >= 9.0);
    }

    #[test]
    fn report_matches_planner_stats() {
        let mut x = Xheal::new(&generators::star(16), XhealConfig::new(6).with_seed(2));
        let report = x.heal_delete(n(0)).unwrap();
        assert_eq!(report.edges_added, x.stats().edges_added);
        assert_eq!(report.edges_removed, x.stats().edges_removed);
        assert_eq!(x.planner().stats(), x.stats());
    }
}
