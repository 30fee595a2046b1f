//! The healing cases of Xheal (Algorithms 3.2–3.6) as [`RepairPlanner`]
//! methods, plus the batch-scoped determinism conventions.
//!
//! Batch deletions use two conventions that fix every random draw and
//! color allocation independently of the order in which clouds and
//! components are processed:
//!
//! - **Derived randomness**: one master draw per batch seeds a
//!   [`derive_seed`]-split RNG per detached cloud (phase 1) and per dead
//!   component (phase 2), so no repair consumes another repair's stream.
//! - **Color windows**: each component `i` allocates colors from a reserved
//!   window `[base_i, base_i + bound_i)` computed by prefix sums of
//!   [`ComponentInput::color_bound`], so fresh colors never depend on what
//!   other components allocated.

use std::collections::BTreeSet;

use xheal_expander::{EdgeDelta, MaintainedExpander};
use xheal_graph::{CloudColor, CloudKind, NodeId};

use super::{match_representatives, RepairPlanner};
use crate::cloud::Cloud;
use crate::plan::PlanAction;

/// Domain tag for phase-1 (per-cloud detach) RNG streams.
pub(super) const SEED_DETACH: u64 = 0xD37A_C41B;
/// Domain tag for phase-2 (per-component healing) RNG streams.
pub(super) const SEED_COMPONENT: u64 = 0xC0_3417;

/// Splits one master batch seed into independent per-task seeds
/// (splitmix64-style finalizer — tag and key are mixed in with distinct odd
/// multipliers so `(tag, key)` pairs never collide in practice).
pub(super) fn derive_seed(batch_seed: u64, tag: u64, key: u64) -> u64 {
    let mut z = batch_seed
        ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        ^ key.wrapping_mul(0xD1B5_4A32_D192_ED03);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Everything one dead component's healing depends on, captured by the batch
/// planner before phase 2 starts.
#[derive(Clone, Debug)]
pub(super) struct ComponentInput {
    /// Union of the victims' primary-cloud colors.
    pub primaries: BTreeSet<CloudColor>,
    /// Union of the victims' live black boundaries.
    pub boundary: BTreeSet<NodeId>,
    /// The `(secondary, bridged primary)` pairs of bridges this component's
    /// victims held, in ascending victim order.
    pub bridges: Vec<(CloudColor, Option<CloudColor>)>,
}

impl ComponentInput {
    /// Upper bound on the fresh colors this component's healing can
    /// allocate: one singleton per boundary node, at most one combine per
    /// lost bridge, plus one secondary and one final combine.
    pub fn color_bound(&self) -> u64 {
        (self.boundary.len() + self.bridges.len() + 2) as u64
    }
}

impl RepairPlanner {
    /// The smallest free node of a cloud — O(log n) off the maintained set.
    fn first_free_node_of(&self, c: CloudColor) -> Option<NodeId> {
        self.clouds
            .get(&c)
            .and_then(|cl| cl.free_members().first().copied())
    }

    /// Creates a primary cloud over `members` and registers memberships.
    pub(super) fn create_primary_cloud(&mut self, members: &[NodeId]) -> CloudColor {
        let color = self.fresh_color();
        self.create_cloud_with_color(color, CloudKind::Primary, members);
        color
    }

    /// Creates a cloud under a pre-allocated color and registers memberships.
    fn create_cloud_with_color(&mut self, color: CloudColor, kind: CloudKind, members: &[NodeId]) {
        let (expander, edges) = MaintainedExpander::new(members, self.config.kappa, &mut self.rng);
        let delta = EdgeDelta {
            added: edges,
            removed: Vec::new(),
        };
        self.registry_insert(color, Cloud::new(kind, expander));
        self.emit(PlanAction::BuildCloud {
            color,
            kind,
            members: members.to_vec(),
            delta,
        });
        if kind == CloudKind::Primary {
            let mut free: Vec<NodeId> = Vec::with_capacity(members.len());
            for &m in members {
                let st = self.nodes.get_mut(&m).expect("members are live");
                st.primaries.insert(color);
                if st.is_free() {
                    free.push(m);
                }
            }
            self.clouds
                .get_mut(&color)
                .expect("just created")
                .free_members_mut()
                .extend(free);
        }
    }

    /// Re-files `v` in the free-member sets of all of its primary clouds after
    /// its secondary duty changed.
    pub(super) fn set_free_status(&mut self, v: NodeId, free: bool) {
        let Some(st) = self.nodes.get(&v) else {
            return;
        };
        for c in &st.primaries {
            if let Some(cloud) = self.clouds.get_mut(c) {
                if free {
                    cloud.free_members_mut().insert(v);
                } else {
                    cloud.free_members_mut().remove(&v);
                }
            }
        }
    }

    /// Adds a live node to a primary cloud (the sharing operation).
    fn insert_into_cloud(&mut self, color: CloudColor, v: NodeId) {
        let cloud = self.clouds.get_mut(&color).expect("cloud alive");
        debug_assert_eq!(
            cloud.kind(),
            CloudKind::Primary,
            "sharing targets primaries"
        );
        if cloud.expander().contains(v) {
            return;
        }
        let delta = cloud.expander_mut().insert(v, &mut self.rng);
        self.emit(PlanAction::ExtendCloud {
            color,
            node: v,
            shared: true,
            delta,
        });
        let st = self.nodes.get_mut(&v).expect("live node");
        st.primaries.insert(color);
        if st.is_free() {
            self.clouds
                .get_mut(&color)
                .expect("cloud alive")
                .free_members_mut()
                .insert(v);
        }
    }

    /// Inserts `z` into secondary `f` as the bridge for primary `ci`.
    fn insert_bridge(&mut self, f: CloudColor, z: NodeId, ci: CloudColor) {
        let cloud = self.clouds.get_mut(&f).expect("secondary alive");
        let delta = cloud.expander_mut().insert(z, &mut self.rng);
        let replaced = cloud.attachments_mut().insert(z, ci);
        debug_assert!(replaced.is_none(), "bridge {z} already attached in {f}");
        self.emit(PlanAction::ExtendCloud {
            color: f,
            node: z,
            shared: false,
            delta,
        });
        self.attach_inc(ci, f);
        self.nodes.get_mut(&z).expect("live node").secondary = Some(f);
        self.set_free_status(z, false);
    }

    /// Deletes a cloud entirely: strips its edges and clears memberships.
    fn delete_cloud(&mut self, color: CloudColor) {
        let Some(cloud) = self.registry_remove(color) else {
            return;
        };
        if cloud.kind() == CloudKind::Secondary {
            for &p in cloud.attachments().values() {
                self.attach_dec(p, color);
            }
        }
        self.emit(PlanAction::DissolveCloud {
            color,
            delta: EdgeDelta {
                added: Vec::new(),
                removed: cloud.expander().edges().to_vec(),
            },
        });
        for &m in cloud.members() {
            let mut freed = false;
            if let Some(st) = self.nodes.get_mut(&m) {
                match cloud.kind() {
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
                self.set_free_status(m, true);
            }
        }
    }

    /// FixSecondary (Algorithm 3.5): replace the deleted bridge of `ci` in `f`
    /// with a fresh free node, borrowing or combining as needed. Returns the
    /// cloud that anchors the `F`-side component (for the connectivity fix),
    /// or `None` if that side dissolved entirely.
    pub(super) fn fix_secondary(
        &mut self,
        f: CloudColor,
        ci_alive: Option<CloudColor>,
    ) -> Option<CloudColor> {
        let f_primaries: BTreeSet<CloudColor> = {
            let cloud = self.clouds.get(&f).expect("caller checked f alive");
            let mut p: BTreeSet<CloudColor> = cloud.attachments().values().copied().collect();
            if let Some(ci) = ci_alive {
                p.insert(ci);
            }
            p
        };

        if let Some(ci) = ci_alive {
            // Prefer a free node of ci itself.
            let mut pick: Option<(NodeId, bool)> = self.first_free_node_of(ci).map(|z| (z, false));
            if pick.is_none() && !self.config.disable_sharing {
                // Borrow from the other primaries of F (PickFreeNode's "ask
                // neighbor clouds").
                pick = f_primaries
                    .iter()
                    .filter(|&&c| c != ci)
                    .find_map(|&c| self.first_free_node_of(c))
                    .map(|z| (z, true));
            }
            match pick {
                Some((z, shared)) => {
                    if shared {
                        // Sharing adds z to ci itself.
                        self.insert_into_cloud(ci, z);
                        self.op_shares += 1;
                    }
                    self.insert_bridge(f, z, ci);
                }
                None => {
                    // No free node anywhere among F's primaries: combine them
                    // all into one primary cloud (F dissolves inside).
                    return self.combine(&f_primaries);
                }
            }
        }

        // Vacuous secondary check: a secondary with <= 1 member connects
        // nothing; dissolve it and report the survivor's primary as anchor.
        let first_attached = |planner: &Self| {
            planner
                .clouds
                .get(&f)
                .and_then(|cl| cl.attachments().values().next().copied())
        };
        let len = self.clouds.get(&f).map(Cloud::len).unwrap_or(0);
        if len <= 1 {
            let survivor_primary = first_attached(self);
            self.delete_cloud(f);
            return survivor_primary.filter(|c| self.clouds.contains_key(c));
        }
        if ci_alive.is_some() {
            return ci_alive;
        }
        first_attached(self).filter(|c| self.clouds.contains_key(c))
    }

    /// MakeSecondary (Algorithm 3.4): connect one free node per cloud of
    /// `group` into a fresh secondary cloud; combine if there are fewer free
    /// nodes than clouds.
    pub(super) fn make_secondary_among(&mut self, group: &[CloudColor]) -> Option<CloudColor> {
        // Deduplicate and keep only live, non-empty clouds.
        let group: Vec<CloudColor> = {
            let mut seen = BTreeSet::new();
            group
                .iter()
                .copied()
                .filter(|c| self.clouds.get(c).is_some_and(|cl| !cl.is_empty()) && seen.insert(*c))
                .collect()
        };
        if group.len() <= 1 {
            return None;
        }
        if self.config.disable_secondary {
            self.combine(&group.iter().copied().collect());
            return None;
        }

        // Distinct representatives: maximum bipartite matching preferring each
        // cloud's own members (over the incrementally maintained free sets —
        // no membership scans), then sharing for any cloud left over.
        let free_sets: Vec<&BTreeSet<NodeId>> = group
            .iter()
            .map(|c| self.clouds[c].free_members())
            .collect();
        let mut reps = match_representatives(&free_sets);
        let deficit = reps.iter().any(Option::is_none);
        let mut union_free: Vec<NodeId> = Vec::new();
        if deficit {
            // Materialize the free-node union (ascending) only when some cloud
            // went unmatched — the slow path.
            let u: BTreeSet<NodeId> = free_sets.iter().flat_map(|s| s.iter().copied()).collect();
            if u.len() < group.len() || self.config.disable_sharing {
                // Fewer free nodes than clouds (or sharing disabled): combine.
                self.combine(&group.iter().copied().collect());
                return None;
            }
            union_free = u.into_iter().collect();
        }
        let mut used: BTreeSet<NodeId> = reps.iter().flatten().copied().collect();
        for (i, rep) in reps.iter_mut().enumerate() {
            if rep.is_none() {
                let z = union_free
                    .iter()
                    .copied()
                    .find(|z| !used.contains(z))
                    .expect("union_free.len() >= group.len() guarantees a spare");
                used.insert(z);
                // Sharing: the borrowed node joins the deficient cloud.
                self.insert_into_cloud(group[i], z);
                self.op_shares += 1;
                *rep = Some(z);
            }
        }

        let members: Vec<NodeId> = reps.iter().map(|r| r.expect("filled")).collect();
        let f = self.fresh_color();
        self.create_cloud_with_color(f, CloudKind::Secondary, &members);
        for (&rep, &p) in members.iter().zip(&group) {
            self.clouds
                .get_mut(&f)
                .expect("just created")
                .attachments_mut()
                .insert(rep, p);
            self.attach_inc(p, f);
            self.nodes
                .get_mut(&rep)
                .expect("members are live")
                .secondary = Some(f);
            self.set_free_status(rep, false);
        }
        self.stats.secondaries_built += 1;
        Some(f)
    }

    /// Combines a set of primary clouds into one primary cloud (the paper's
    /// expensive amortized operation).
    ///
    /// Two regimes, gated purely on live member counts:
    ///
    /// - **Splice** (`|members outside the largest cloud| <= |largest
    ///   cloud|`): keep the largest input cloud, dissolve the others, and
    ///   absorb their surviving members one expander-insert at a time.
    ///   Mutation volume is proportional to the *smaller* side instead of
    ///   dissolve-all + rebuild-all.
    /// - **Rebuild** (for absorptions that would dominate the target):
    ///   dissolve everything and build a fresh cloud over the union.
    ///
    /// Either way, secondary clouds all of whose attached primaries lie
    /// inside the set are dissolved (their bridges become free again);
    /// secondaries that also connect outside clouds have their attachments
    /// re-pointed at the surviving cloud.
    fn combine(&mut self, colors: &BTreeSet<CloudColor>) -> Option<CloudColor> {
        self.op_combines += 1;
        let mut live: Vec<(CloudColor, usize)> = Vec::new();
        let mut all_nodes: BTreeSet<NodeId> = BTreeSet::new();
        for &c in colors {
            if let Some(cl) = self.clouds.get(&c) {
                debug_assert_eq!(cl.kind(), CloudKind::Primary, "combine targets primaries");
                live.push((c, cl.len()));
                all_nodes.extend(cl.members().iter().copied());
            }
        }
        if all_nodes.is_empty() {
            return None;
        }

        // Splice target: the largest live input cloud (ties → smallest color).
        let &(target, target_len) = live
            .iter()
            .max_by_key(|&&(c, len)| (len, std::cmp::Reverse(c)))
            .expect("all_nodes nonempty implies a live cloud");
        let absorb: Vec<NodeId> = all_nodes
            .difference(self.clouds[&target].members())
            .copied()
            .collect();

        if absorb.len() <= target_len {
            // Splice: dissolve only the smaller inputs, keep the target.
            for &(c, _) in &live {
                if c != target {
                    self.delete_cloud(c);
                }
            }
            self.repoint_secondaries(colors, target);
            for &m in &absorb {
                self.insert_into_cloud(target, m);
            }
            return Some(target);
        }

        // Rebuild: delete the old primary clouds and build the union fresh.
        for &(c, _) in &live {
            self.delete_cloud(c);
        }
        let new_color = self.fresh_color();
        self.repoint_secondaries(colors, new_color);
        let members: Vec<NodeId> = all_nodes.into_iter().collect();
        self.create_cloud_with_color(new_color, CloudKind::Primary, &members);
        Some(new_color)
    }

    /// Handles secondaries referencing combined primaries (found via the
    /// reverse attachment index — no registry scan): dissolve the redundant
    /// ones, re-point the rest at `new_color`.
    fn repoint_secondaries(&mut self, colors: &BTreeSet<CloudColor>, new_color: CloudColor) {
        let referencing: BTreeSet<CloudColor> = colors
            .iter()
            .filter_map(|c| self.attached_to.get(c))
            .flat_map(|m| m.keys().copied())
            .collect();
        for fc in referencing {
            let Some(cloud) = self.clouds.get_mut(&fc) else {
                continue;
            };
            if cloud.attachments().values().all(|p| colors.contains(p)) {
                // Redundant: the combined cloud connects these directly.
                self.delete_cloud(fc);
                continue;
            }
            let mut old_targets: Vec<CloudColor> = Vec::new();
            for target in cloud.attachments_mut().values_mut() {
                if colors.contains(target) && *target != new_color {
                    old_targets.push(*target);
                    *target = new_color;
                }
            }
            for p in old_targets {
                self.attach_dec(p, fc);
                self.attach_inc(new_color, fc);
            }
        }
    }

    /// Runs the phase-2 healing cases for one dead component (the Case 2.2
    /// bridge fixes, boundary singletons, and the closing MakeSecondary).
    pub(super) fn heal_component(&mut self, input: &ComponentInput) {
        let alive: Vec<CloudColor> = input
            .primaries
            .iter()
            .copied()
            .filter(|c| self.clouds.contains_key(c))
            .collect();

        // Replace each lost bridge of this component (Case 2.2 fixes),
        // collecting anchors that must join the new secondary group.
        let mut anchors: Vec<CloudColor> = Vec::new();
        for &(f, ci) in &input.bridges {
            let ci_alive = ci.filter(|c| self.clouds.contains_key(c));
            if self.clouds.contains_key(&f) {
                anchors.extend(self.fix_secondary(f, ci_alive));
            } else {
                anchors.extend(ci_alive);
            }
        }

        // Boundary nodes become singleton primary clouds; connect everything
        // with one secondary cloud (or combine).
        let mut group: Vec<CloudColor> = alive;
        for &w in &input.boundary {
            group.push(self.create_primary_cloud(&[w]));
        }
        group.extend(anchors);
        self.make_secondary_among(&group);
    }
}
