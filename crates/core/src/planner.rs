//! The repair *decisions* of Xheal (Algorithms 3.2–3.6), separated from
//! graph execution.
//!
//! [`RepairPlanner`] owns everything the healing decisions depend on — the
//! cloud registry, per-node membership state, the healer's private
//! randomness, and the cumulative statistics — but never touches the network
//! graph. Each deletion produces a [`RepairPlan`] of explicit
//! [`PlanAction`]s; executors ([`crate::Xheal`] centrally, `xheal-dist` over
//! the LOCAL-model engine) apply those actions to their graph. Because every
//! random draw happens inside the planner, two executors replaying the same
//! schedule with the same seed make bit-identical topology changes.
//!
//! The healing cases themselves are planner methods in `planner/cases.rs`.
//! Batch deletions additionally use derived per-cloud / per-component RNG
//! streams and reserved per-component color windows (see that module), so
//! every batch decision is fixed by the batch's seed and victim set alone.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng as _, SeedableRng};

use xheal_expander::EdgeDelta;
use xheal_graph::{CloudColor, CloudKind, EdgeLabels, FxHashMap, NodeId};
use xheal_trace::{hook, Layer, SharedTracer};

use crate::batch::{victim_components, BatchRepairPlan, BatchReport, BatchStage, BatchVictim};
use crate::cloud::{Cloud, NodeState};
use crate::config::XhealConfig;
use crate::plan::{PlanAction, RepairPlan};
use crate::stats::{DeletionReport, HealCase, HealStats};

mod cases;

use cases::{derive_seed, ComponentInput, SEED_COMPONENT, SEED_DETACH};

/// The shared decision engine of the centralized and distributed healers.
///
/// # Examples
///
/// ```
/// use xheal_core::{RepairPlanner, XhealConfig};
/// use xheal_graph::{generators, NodeId};
///
/// let mut star = generators::star(8);
/// let mut planner = RepairPlanner::new(star.nodes(), XhealConfig::new(4));
/// // Ask for the plan healing the deletion of the hub.
/// let incident = star.remove_node(NodeId::new(0)).unwrap();
/// let plan = planner.plan_deletion(NodeId::new(0), &incident, incident.len());
/// // One primary cloud over the 7 leaves (Case 1).
/// assert_eq!(plan.actions.len(), 1);
/// assert_eq!(planner.cloud_count(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct RepairPlanner {
    /// Cloud registry. Point-lookup map plus `color_order`, the sorted live
    /// color list maintained on create/delete, so the hot path gets O(1)
    /// access while [`RepairPlanner::cloud_colors`] keeps its promised
    /// ascending output (invariant I9: `color_order` is sorted and holds
    /// exactly the registry's keys).
    clouds: FxHashMap<CloudColor, Cloud>,
    /// Live colors, ascending. Colors are allocated monotonically, so
    /// insertion is an amortized-O(1) push; deletion is a binary-searched
    /// remove.
    color_order: Vec<CloudColor>,
    /// Reverse attachment index: primary color → (secondary color → number
    /// of that secondary's bridges targeting the primary). Lets `combine`
    /// find referencing secondaries without scanning the whole registry.
    attached_to: BTreeMap<CloudColor, BTreeMap<CloudColor, u32>>,
    /// Per-node membership state. Point-lookup only — never iterated — so
    /// the deterministic replay does not depend on its order and the hot
    /// path gets O(1) access.
    nodes: FxHashMap<NodeId, NodeState>,
    config: XhealConfig,
    rng: StdRng,
    next_color: u64,
    stats: HealStats,
    /// Plan buffer of the operation being planned.
    actions: Vec<PlanAction>,
    /// Reusable scratch for per-deletion black-neighbor extraction, so the
    /// churn hot loop allocates nothing per event.
    scratch_black: Vec<NodeId>,
    /// Optional span recorder; `None` (the default) keeps every
    /// instrumentation site a single branch.
    tracer: Option<SharedTracer>,
    /// Monotone repair sequence number; each planned deletion (single or
    /// batch) gets the next one, keying its spans in the forensics ledger.
    repair_seq: u64,
    // Per-operation counters (reset at the start of each deletion).
    op_added: usize,
    op_removed: usize,
    op_shares: usize,
    op_combines: usize,
}

impl RepairPlanner {
    /// Creates a planner for a network initially containing `nodes`, all
    /// cloudless (every existing edge is black, per the model).
    pub fn new(nodes: impl IntoIterator<Item = NodeId>, config: XhealConfig) -> Self {
        let rng = StdRng::seed_from_u64(config.seed);
        let nodes: FxHashMap<NodeId, NodeState> = nodes
            .into_iter()
            .map(|v| (v, NodeState::default()))
            .collect();
        RepairPlanner {
            clouds: FxHashMap::default(),
            color_order: Vec::new(),
            attached_to: BTreeMap::new(),
            nodes,
            config,
            rng,
            next_color: 0,
            stats: HealStats::default(),
            actions: Vec::new(),
            scratch_black: Vec::new(),
            tracer: None,
            repair_seq: 0,
            op_added: 0,
            op_removed: 0,
            op_shares: 0,
            op_combines: 0,
        }
    }

    /// The configuration in force.
    pub fn config(&self) -> &XhealConfig {
        &self.config
    }

    /// Cloud expander degree κ.
    pub fn kappa(&self) -> usize {
        self.config.kappa
    }

    /// Cumulative healing statistics.
    pub fn stats(&self) -> &HealStats {
        &self.stats
    }

    /// Attaches (or detaches, with `None`) a tracer recording planner spans.
    /// Executors forward their own handle here so planner and executor spans
    /// of one repair land in the same ledger.
    pub fn set_tracer(&mut self, tracer: Option<SharedTracer>) {
        self.tracer = tracer;
    }

    /// The repair sequence number of the most recently planned deletion
    /// (0 before any).
    pub fn repair_seq(&self) -> u64 {
        self.repair_seq
    }

    /// The repair sequence number the *next* planned deletion will carry —
    /// executors use it to open their wrapping span before planning starts.
    pub fn peek_repair_seq(&self) -> u64 {
        self.repair_seq + 1
    }

    /// All live cloud colors with their kinds, ascending.
    pub fn cloud_colors(&self) -> Vec<(CloudColor, CloudKind)> {
        self.color_order
            .iter()
            .map(|&c| (c, self.clouds[&c].kind()))
            .collect()
    }

    /// Read access to a cloud.
    pub fn cloud(&self, color: CloudColor) -> Option<&Cloud> {
        self.clouds.get(&color)
    }

    /// Read access to a node's membership state.
    pub fn node_state(&self, v: NodeId) -> Option<&NodeState> {
        self.nodes.get(&v)
    }

    /// Number of live clouds.
    pub fn cloud_count(&self) -> usize {
        self.clouds.len()
    }

    /// Invariant checks (I8, I9): the reverse attachment index holds exactly
    /// the bridge counts recomputable from the live secondary clouds, and
    /// the maintained color order is sorted and mirrors the registry keys.
    pub(crate) fn validate_attachment_index(&self) -> Result<(), String> {
        if !self.color_order.is_sorted() {
            return Err(format!("color order not ascending: {:?}", self.color_order));
        }
        if self.color_order.len() != self.clouds.len()
            || self
                .color_order
                .iter()
                .any(|c| !self.clouds.contains_key(c))
        {
            return Err(format!(
                "color order {:?} does not mirror the {} registered clouds",
                self.color_order,
                self.clouds.len()
            ));
        }
        let mut recomputed: BTreeMap<CloudColor, BTreeMap<CloudColor, u32>> = BTreeMap::new();
        for (&f, cloud) in &self.clouds {
            if cloud.kind() == CloudKind::Secondary {
                for &p in cloud.attachments().values() {
                    *recomputed.entry(p).or_default().entry(f).or_insert(0) += 1;
                }
            }
        }
        if recomputed != self.attached_to {
            return Err(format!(
                "attachment index {:?} != recomputed {recomputed:?}",
                self.attached_to
            ));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // Model events
    // ------------------------------------------------------------------

    /// Records an adversarial insertion. Xheal takes no healing action on
    /// insertions (Algorithm 3.1 lines 1–2), so no plan is produced.
    pub fn note_insert(&mut self, v: NodeId) {
        self.nodes.insert(v, NodeState::default());
        self.stats.insertions += 1;
    }

    /// Plans the repair for the deletion of `v`, whose incident edges at
    /// deletion time were `incident` (with their labels) and whose total
    /// degree was `degree`.
    ///
    /// The planner's cloud/membership state advances to the post-repair
    /// state; the caller must apply the returned plan to its graph to stay
    /// consistent.
    pub fn plan_deletion(
        &mut self,
        v: NodeId,
        incident: &[(NodeId, EdgeLabels)],
        degree: usize,
    ) -> RepairPlan {
        self.reset_op_counters();
        self.actions.clear();
        self.repair_seq += 1;
        let seq = self.repair_seq;
        hook::begin(
            &self.tracer,
            Layer::Planner,
            "plan.single",
            seq,
            degree as u64,
        );

        let state = self.nodes.remove(&v).unwrap_or_default();
        let mut black_nbrs = std::mem::take(&mut self.scratch_black);
        black_nbrs.clear();
        black_nbrs.extend(
            incident
                .iter()
                .filter(|(_, l)| l.is_black())
                .map(|&(u, _)| u),
        );
        let black_degree = black_nbrs.len();
        self.stats.deletions += 1;
        self.stats.black_degree_sum += black_degree;

        let case = if state.is_cloudless() {
            // Case 1: all deleted edges are black.
            if black_nbrs.len() >= 2 {
                self.create_primary_cloud(&black_nbrs);
                HealCase::AllBlack
            } else {
                // Degree <= 1: "the deleted node is just dropped".
                HealCase::Dropped
            }
        } else {
            self.plan_colored_deletion(v, state, &black_nbrs)
        };
        self.scratch_black = black_nbrs;

        let report = DeletionReport {
            case,
            edges_added: self.op_added,
            edges_removed: self.op_removed,
            combined: self.op_combines > 0,
            shares: self.op_shares,
            black_degree,
            degree,
        };
        self.fold_op_counters();
        hook::instant(
            &self.tracer,
            Layer::Planner,
            "plan.case",
            seq,
            case_code(case),
        );
        hook::end(
            &self.tracer,
            Layer::Planner,
            "plan.single",
            seq,
            self.actions.len() as u64,
        );
        RepairPlan {
            actions: std::mem::take(&mut self.actions),
            report,
        }
    }

    // ------------------------------------------------------------------
    // Case 2 machinery (the cases themselves live in planner/cases.rs)
    // ------------------------------------------------------------------

    fn plan_colored_deletion(
        &mut self,
        v: NodeId,
        state: NodeState,
        black_nbrs: &[NodeId],
    ) -> HealCase {
        // FixPrimary: remove v from each of its primary clouds.
        let mut alive_primaries: Vec<CloudColor> = Vec::new();
        for &c in &state.primaries {
            if !self.remove_from_cloud(c, v) {
                alive_primaries.push(c);
            }
        }

        // Black neighbors become singleton primary clouds (Case 2 prose).
        let mut singletons: Vec<CloudColor> = Vec::new();
        for &w in black_nbrs {
            singletons.push(self.create_primary_cloud(&[w]));
        }

        match state.secondary {
            None => {
                // Case 2.1.
                let mut group = alive_primaries;
                group.extend(singletons);
                self.make_secondary_among(&group);
                HealCase::PrimaryOnly
            }
            Some(f) => {
                // Case 2.2: v was the bridge of some primary ci in F.
                let ci = self.take_bridge_target(f, v);
                let f_emptied = self.remove_from_cloud(f, v);
                let ci_alive = ci.filter(|c| self.clouds.contains_key(c));
                let anchor = if f_emptied {
                    // F died with v; the ci side has no F component to join.
                    ci_alive
                } else {
                    self.fix_secondary(f, ci_alive)
                };

                // Clouds still connected through F need no new secondary.
                let attached_now: BTreeSet<CloudColor> = self
                    .clouds
                    .get(&f)
                    .map(|cl| cl.attachments().values().copied().collect())
                    .unwrap_or_default();

                let mut group: Vec<CloudColor> = alive_primaries
                    .into_iter()
                    .filter(|c| !attached_now.contains(c) && Some(*c) != anchor)
                    .collect();
                group.extend(singletons);
                if let Some(a) = anchor {
                    // Connectivity fix (DESIGN.md §3.2): an F-side anchor
                    // joins the new secondary so the two groups stay linked.
                    if !group.is_empty() {
                        group.push(a);
                    }
                }
                self.make_secondary_among(&group);
                HealCase::Bridge
            }
        }
    }

    // ------------------------------------------------------------------
    // Cloud registry primitives
    // ------------------------------------------------------------------

    /// Registers a cloud, keeping `color_order` sorted. Colors allocate
    /// monotonically, so the common case is a push; `combine` can finish
    /// building its pre-allocated color after deletions, hence the
    /// binary-searched general case.
    fn registry_insert(&mut self, color: CloudColor, cloud: Cloud) {
        let prev = self.clouds.insert(color, cloud);
        debug_assert!(prev.is_none(), "color {color} registered twice");
        match self.color_order.last() {
            Some(&last) if last >= color => {
                if let Err(pos) = self.color_order.binary_search(&color) {
                    self.color_order.insert(pos, color);
                }
            }
            _ => self.color_order.push(color),
        }
    }

    /// Unregisters a cloud, keeping `color_order` in sync.
    fn registry_remove(&mut self, color: CloudColor) -> Option<Cloud> {
        let cloud = self.clouds.remove(&color)?;
        if let Ok(pos) = self.color_order.binary_search(&color) {
            self.color_order.remove(pos);
        }
        Some(cloud)
    }

    /// Allocates the next cloud color.
    fn fresh_color(&mut self) -> CloudColor {
        let c = CloudColor::new(self.next_color);
        self.next_color += 1;
        c
    }

    /// Records a plan action and its edge-count contributions.
    fn emit(&mut self, action: PlanAction) {
        let delta = action.delta();
        self.op_added += delta.added.len();
        self.op_removed += delta.removed.len();
        self.actions.push(action);
    }

    /// Records one more bridge of secondary `f` targeting primary `p` (I8).
    fn attach_inc(&mut self, p: CloudColor, f: CloudColor) {
        *self.attached_to.entry(p).or_default().entry(f).or_insert(0) += 1;
    }

    /// Removes one bridge of secondary `f` targeting primary `p` (I8).
    fn attach_dec(&mut self, p: CloudColor, f: CloudColor) {
        let Some(m) = self.attached_to.get_mut(&p) else {
            debug_assert!(false, "attachment index missing primary {p}");
            return;
        };
        match m.get_mut(&f) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                m.remove(&f);
                if m.is_empty() {
                    self.attached_to.remove(&p);
                }
            }
            None => debug_assert!(false, "attachment index missing ({p},{f})"),
        }
    }

    /// Removes `v` from a cloud, returning `true` when the cloud emptied and
    /// was deleted.
    fn remove_from_cloud(&mut self, color: CloudColor, v: NodeId) -> bool {
        let Some(cloud) = self.clouds.get_mut(&color) else {
            return true;
        };
        if !cloud.expander().contains(v) {
            return cloud.is_empty();
        }
        let delta = {
            let rng = &mut self.rng;
            cloud.expander_mut().remove(v, rng)
        };
        let kind = cloud.kind();
        if kind == CloudKind::Primary {
            cloud.free_members_mut().remove(&v);
        }
        self.emit(PlanAction::PatchCloud {
            color,
            removed: vec![v],
            delta,
        });
        let mut freed = false;
        if let Some(st) = self.nodes.get_mut(&v) {
            match kind {
                CloudKind::Primary => {
                    st.primaries.remove(&color);
                }
                CloudKind::Secondary => {
                    if st.secondary == Some(color) {
                        st.secondary = None;
                        freed = true;
                    }
                }
            }
        }
        if freed {
            // Losing its bridge duty makes v free again in its primaries.
            self.set_free_status(v, true);
        }
        let emptied = self.clouds.get(&color).is_some_and(Cloud::is_empty);
        if emptied {
            self.registry_remove(color);
        }
        emptied
    }

    fn reset_op_counters(&mut self) {
        self.op_added = 0;
        self.op_removed = 0;
        self.op_shares = 0;
        self.op_combines = 0;
    }

    fn fold_op_counters(&mut self) {
        self.stats.edges_added += self.op_added;
        self.stats.edges_removed += self.op_removed;
        self.stats.shares += self.op_shares;
        self.stats.combines += self.op_combines;
    }

    // ------------------------------------------------------------------
    // Batch (multi-node) deletion — the decisions of `heal_delete_batch`
    // and the distributed `delete_batch` (see batch.rs for the model).
    // ------------------------------------------------------------------

    /// Plans the simultaneous deletion of every victim in `ctx` (captured by
    /// [`BatchVictim::capture`] *before* the victims left the graph),
    /// producing a staged plan: a detach prologue shared by all dead
    /// components, then one independently executable stage per component.
    ///
    /// The planner's cloud/membership state advances to the post-repair
    /// state; the caller must apply the returned plan to its graph to stay
    /// consistent.
    pub fn plan_batch_deletion(&mut self, ctx: &[BatchVictim]) -> BatchRepairPlan {
        self.reset_op_counters();
        self.actions.clear();
        self.repair_seq += 1;
        let seq = self.repair_seq;
        hook::begin(
            &self.tracer,
            Layer::Planner,
            "plan.batch",
            seq,
            ctx.len() as u64,
        );
        let secondaries_before = self.stats.secondaries_built;
        // One master draw; every cloud and component repair derives its own
        // stream from it, so no repair consumes another repair's draws.
        let batch_seed = self.rng.next_u64();

        // Phase 0: victim states, lost bridges, and the by-cloud grouping —
        // pure bookkeeping, no RNG, no plan actions.
        let mut states: BTreeMap<NodeId, NodeState> = BTreeMap::new();
        for bv in ctx {
            states.insert(bv.node, self.nodes.remove(&bv.node).unwrap_or_default());
        }
        let mut lost_bridges: Vec<(NodeId, CloudColor, Option<CloudColor>)> = Vec::new();
        let mut by_cloud: BTreeMap<CloudColor, Vec<NodeId>> = BTreeMap::new();
        for (&v, state) in &states {
            for &c in &state.primaries {
                by_cloud.entry(c).or_default().push(v);
            }
            if let Some(f) = state.secondary {
                let ci = self.take_bridge_target(f, v);
                lost_bridges.push((v, f, ci));
                by_cloud.entry(f).or_default().push(v);
            }
        }

        // Phase 1 (detach prologue): remove every victim from every cloud
        // (FixPrimary / the structural part of FixSecondary), in ascending
        // color order, each cloud with its own derived RNG.
        hook::begin(
            &self.tracer,
            Layer::Planner,
            "plan.detach",
            seq,
            by_cloud.len() as u64,
        );
        for (&c, vs) in &by_cloud {
            self.detach_one(c, vs, batch_seed);
        }
        hook::end(&self.tracer, Layer::Planner, "plan.detach", seq, 0);
        // Stage boundaries inside the flat action buffer: prologue end,
        // then one checkpoint per component.
        let mut checkpoints: Vec<usize> = vec![self.actions.len()];

        // Phase 2: per dead component, run the healing cases on the merged
        // state. Each component draws from its own derived RNG stream and
        // allocates colors inside its reserved window (prefix sums of a
        // per-component bound).
        let components = victim_components(ctx);
        let boundary_of: BTreeMap<NodeId, &[NodeId]> = ctx
            .iter()
            .map(|bv| (bv.node, bv.black_boundary.as_slice()))
            .collect();
        let inputs: Vec<ComponentInput> = components
            .iter()
            .map(|comp| {
                let mut primaries: BTreeSet<CloudColor> = BTreeSet::new();
                let mut boundary: BTreeSet<NodeId> = BTreeSet::new();
                for &v in comp {
                    primaries.extend(states[&v].primaries.iter().copied());
                    boundary.extend(boundary_of[&v].iter().copied());
                }
                let comp_set: BTreeSet<NodeId> = comp.iter().copied().collect();
                let bridges: Vec<(CloudColor, Option<CloudColor>)> = lost_bridges
                    .iter()
                    .filter(|(v, _, _)| comp_set.contains(v))
                    .map(|&(_, f, ci)| (f, ci))
                    .collect();
                ComponentInput {
                    primaries,
                    boundary,
                    bridges,
                }
            })
            .collect();

        hook::begin(
            &self.tracer,
            Layer::Planner,
            "plan.components",
            seq,
            inputs.len() as u64,
        );
        let mut base = self.next_color;
        for (i, input) in inputs.iter().enumerate() {
            hook::begin(
                &self.tracer,
                Layer::Planner,
                "plan.component",
                seq,
                i as u64,
            );
            let derived = StdRng::seed_from_u64(derive_seed(batch_seed, SEED_COMPONENT, i as u64));
            let saved = std::mem::replace(&mut self.rng, derived);
            let end = base + input.color_bound();
            self.next_color = base;
            self.heal_component(input);
            assert!(
                self.next_color <= end,
                "component overran its color namespace"
            );
            self.rng = saved;
            base = end;
            checkpoints.push(self.actions.len());
            hook::end(
                &self.tracer,
                Layer::Planner,
                "plan.component",
                seq,
                i as u64,
            );
        }
        hook::end(&self.tracer, Layer::Planner, "plan.components", seq, 0);
        self.next_color = base;

        self.stats.deletions += ctx.len();
        self.stats.black_degree_sum += ctx.iter().map(|bv| bv.black_boundary.len()).sum::<usize>();
        let report = BatchReport {
            victims: ctx.len(),
            components: components.len(),
            secondaries_built: self.stats.secondaries_built - secondaries_before,
            combines: self.op_combines,
            edges_added: self.op_added,
            edges_removed: self.op_removed,
        };
        self.fold_op_counters();
        hook::end(
            &self.tracer,
            Layer::Planner,
            "plan.batch",
            seq,
            self.actions.len() as u64,
        );

        // Split the flat buffer into stages at the checkpoints (from the
        // back, so each split is a cheap tail move).
        let mut prologue = std::mem::take(&mut self.actions);
        let mut component_stages: Vec<BatchStage> = Vec::with_capacity(components.len());
        for (i, comp) in components.iter().enumerate().rev() {
            let actions = prologue.split_off(checkpoints[i]);
            component_stages.push(BatchStage {
                component: comp.clone(),
                actions,
            });
        }
        component_stages.reverse();
        let mut stages = Vec::with_capacity(components.len() + 1);
        stages.push(BatchStage {
            component: Vec::new(),
            actions: prologue,
        });
        stages.extend(component_stages);
        BatchRepairPlan { stages, report }
    }

    /// Detaches several (already graph-removed) victims from one cloud with
    /// the cloud's derived RNG, emitting only the *net* edge delta:
    /// intermediate expander rebuilds may transiently reference other
    /// still-registered victims, but the final edge set only spans live
    /// members.
    fn detach_one(&mut self, color: CloudColor, victims: &[NodeId], batch_seed: u64) {
        let Some(cloud) = self.clouds.get_mut(&color) else {
            return;
        };
        let mut rng = StdRng::seed_from_u64(derive_seed(batch_seed, SEED_DETACH, color.as_u64()));
        let before = cloud.expander().edges().to_vec();
        let mut detached = Vec::new();
        for &v in victims {
            if cloud.expander().contains(v) {
                let _ = cloud.expander_mut().remove(v, &mut rng);
                cloud.free_members_mut().remove(&v);
                detached.push(v);
            }
        }
        let emptied = cloud.is_empty();
        if !detached.is_empty() {
            // Both snapshots are sorted, so the net delta is one merge walk.
            let delta = EdgeDelta::between(&before, cloud.expander().edges());
            self.emit(PlanAction::PatchCloud {
                color,
                removed: detached,
                delta,
            });
        }
        if emptied {
            self.registry_remove(color);
        }
    }

    /// Removes the attachment entry of a deleted bridge, returning the
    /// primary cloud it was bridging for.
    fn take_bridge_target(&mut self, f: CloudColor, v: NodeId) -> Option<CloudColor> {
        let ci = self
            .clouds
            .get_mut(&f)
            .and_then(|cl| cl.attachments_mut().remove(&v));
        if let Some(ci) = ci {
            self.attach_dec(ci, f);
        }
        ci
    }
}

/// Stable numeric code of a healing case for the `plan.case` instant's `arg`
/// (part of the deterministic trace projection — do not renumber).
fn case_code(case: HealCase) -> u64 {
    match case {
        HealCase::Dropped => 0,
        HealCase::AllBlack => 1,
        HealCase::PrimaryOnly => 2,
        HealCase::Bridge => 3,
        HealCase::Batch => 4,
    }
}

/// Maximum bipartite matching (Kuhn's algorithm) of clouds to free nodes.
/// Returns one chosen representative per cloud where matchable.
///
/// Adjacency is consumed lazily off each cloud's maintained free set: in the
/// common case (every cloud has an unclaimed free node early in its set) only
/// the first few candidates are ever visited, so huge combined clouds cost
/// nothing here.
pub(crate) fn match_representatives(adjacency: &[&BTreeSet<NodeId>]) -> Vec<Option<NodeId>> {
    let mut owner: BTreeMap<NodeId, usize> = BTreeMap::new();

    fn try_assign(
        i: usize,
        adjacency: &[&BTreeSet<NodeId>],
        owner: &mut BTreeMap<NodeId, usize>,
        visited: &mut BTreeSet<NodeId>,
    ) -> bool {
        for &z in adjacency[i].iter() {
            if visited.contains(&z) {
                continue;
            }
            visited.insert(z);
            let current = owner.get(&z).copied();
            match current {
                None => {
                    owner.insert(z, i);
                    return true;
                }
                Some(j) => {
                    if try_assign(j, adjacency, owner, visited) {
                        owner.insert(z, i);
                        return true;
                    }
                }
            }
        }
        false
    }

    for i in 0..adjacency.len() {
        let mut visited = BTreeSet::new();
        let _ = try_assign(i, adjacency, &mut owner, &mut visited);
    }

    let mut reps = vec![None; adjacency.len()];
    for (z, i) in owner {
        reps[i] = Some(z);
    }
    reps
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn match_representatives_prefers_distinct() {
        let a: BTreeSet<NodeId> = [n(1), n(2)].into_iter().collect();
        let b: BTreeSet<NodeId> = [n(1)].into_iter().collect();
        let reps = match_representatives(&[&a, &b]);
        assert_eq!(reps[1], Some(n(1)), "cloud 1 only has node 1");
        assert_eq!(reps[0], Some(n(2)), "cloud 0 must yield node 1");
    }

    #[test]
    fn match_representatives_reports_deficit() {
        let a: BTreeSet<NodeId> = [n(1)].into_iter().collect();
        let b: BTreeSet<NodeId> = [n(1)].into_iter().collect();
        let reps = match_representatives(&[&a, &b]);
        let filled = reps.iter().flatten().count();
        assert_eq!(filled, 1);
    }

    #[test]
    fn plans_carry_every_edge_effect() {
        use xheal_graph::generators;
        let mut star = generators::star(10);
        let mut planner = RepairPlanner::new(star.nodes(), XhealConfig::new(4).with_seed(1));
        let incident = star.remove_node(n(0)).unwrap();
        let plan = planner.plan_deletion(n(0), &incident, incident.len());
        let added: usize = plan.actions.iter().map(|a| a.delta().added.len()).sum();
        assert_eq!(added, plan.report.edges_added);
        assert_eq!(plan.case(), HealCase::AllBlack);
        assert!(plan.participants().len() >= 9);
    }

    #[test]
    fn dropped_deletions_plan_nothing() {
        use xheal_graph::generators;
        let mut path = generators::path(3);
        let mut planner = RepairPlanner::new(path.nodes(), XhealConfig::default());
        let incident = path.remove_node(n(0)).unwrap();
        let plan = planner.plan_deletion(n(0), &incident, 1);
        assert_eq!(plan.case(), HealCase::Dropped);
        assert!(plan.actions.is_empty());
    }

    #[test]
    fn derive_seed_separates_tags_and_keys() {
        let s = 0xDEAD_BEEF_u64;
        let a = derive_seed(s, SEED_DETACH, 0);
        let b = derive_seed(s, SEED_DETACH, 1);
        let c = derive_seed(s, SEED_COMPONENT, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_seed(s, SEED_DETACH, 0), "pure function");
    }
}
