//! Incrementally maintained invariant metrics: O(1)-per-delta degree and
//! black-degree histograms, the max degree-increase against the
//! insertion-only baseline `G'`, and a windowed reservoir of churn-touched
//! nodes for on-demand stretch sampling.

use std::collections::BTreeMap;
use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use xheal_graph::{CsrView, FxHashMap, NodeId};

/// A maintained histogram over per-node degree values.
///
/// Every bucket update is O(1); [`DegreeHistogram::max`] is maintained
/// lazily (scan down on emptied top bucket — amortized O(1) against the
/// increments that filled it).
#[derive(Clone, Debug, Default)]
pub struct DegreeHistogram {
    counts: Vec<u64>,
    nodes: usize,
    /// Sum of all degrees (for the O(1) mean).
    total: u64,
    /// Highest non-empty bucket (0 when empty).
    hi: usize,
}

impl DegreeHistogram {
    /// Empty histogram.
    pub fn new() -> Self {
        DegreeHistogram::default()
    }

    /// Moves one node's count from `old` to `new`; `None` means the node
    /// was absent (insertion) or leaves (deletion).
    pub fn transition(&mut self, old: Option<usize>, new: Option<usize>) {
        if let Some(d) = old {
            debug_assert!(self.counts.get(d).is_some_and(|&c| c > 0));
            self.counts[d] -= 1;
            self.nodes -= 1;
            self.total -= d as u64;
        }
        if let Some(d) = new {
            if d >= self.counts.len() {
                self.counts.resize(d + 1, 0);
            }
            self.counts[d] += 1;
            self.nodes += 1;
            self.total += d as u64;
            self.hi = self.hi.max(d);
        }
        while self.hi > 0 && self.counts[self.hi] == 0 {
            self.hi -= 1;
        }
    }

    /// Number of nodes currently at degree `d`.
    pub fn count_at(&self, d: usize) -> u64 {
        self.counts.get(d).copied().unwrap_or(0)
    }

    /// Number of nodes in the histogram.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Largest degree with a nonzero count (0 for an empty histogram).
    pub fn max(&self) -> usize {
        self.hi
    }

    /// Mean degree (0.0 for an empty histogram).
    pub fn mean(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.total as f64 / self.nodes as f64
        }
    }

    /// The bucket slice (index = degree), trimmed at the maintained max so
    /// two histograms over the same population compare equal regardless of
    /// their peak-capacity history.
    pub fn buckets(&self) -> &[u64] {
        if self.nodes == 0 {
            &[]
        } else {
            &self.counts[..=self.hi]
        }
    }
}

/// Maintained `max_v deg_G(v) / deg_{G'}(v)` over live nodes with nonzero
/// baseline degree — the paper's success metric 1, kept as an ordered
/// multiset of ratios so the max survives decrements (O(log n) per delta).
#[derive(Clone, Debug, Default)]
pub struct DegreeIncreaseTracker {
    /// live degree, baseline (`G'`) degree per live node.
    degrees: FxHashMap<NodeId, (u32, u32)>,
    /// Multiset of ratios keyed by their f64 bit pattern (order-preserving
    /// for the non-negative ratios stored here).
    ratios: BTreeMap<u64, u32>,
}

impl DegreeIncreaseTracker {
    /// Empty tracker.
    pub fn new() -> Self {
        DegreeIncreaseTracker::default()
    }

    fn ratio_key(live: u32, base: u32) -> Option<u64> {
        (base > 0).then(|| (live as f64 / base as f64).to_bits())
    }

    fn multiset_remove(&mut self, key: u64) {
        match self.ratios.get_mut(&key) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                self.ratios.remove(&key);
            }
            None => debug_assert!(false, "ratio key missing from multiset"),
        }
    }

    /// Registers a live node with its current and baseline degrees.
    pub fn insert(&mut self, v: NodeId, live: u32, base: u32) {
        let prev = self.degrees.insert(v, (live, base));
        debug_assert!(prev.is_none(), "{v} already tracked");
        if let Some(k) = Self::ratio_key(live, base) {
            *self.ratios.entry(k).or_insert(0) += 1;
        }
    }

    /// Drops a node (deletion: dead nodes no longer count toward the max).
    pub fn remove(&mut self, v: NodeId) {
        if let Some((live, base)) = self.degrees.remove(&v) {
            if let Some(k) = Self::ratio_key(live, base) {
                self.multiset_remove(k);
            }
        }
    }

    /// Adjusts a live node's degree by `dlive` and its baseline degree by
    /// `dbase` (either may be negative for the live part; the baseline only
    /// ever grows).
    pub fn adjust(&mut self, v: NodeId, dlive: i64, dbase: i64) {
        let Some(degrees) = self.degrees.get_mut(&v) else {
            debug_assert!(false, "{v} not tracked");
            return;
        };
        let (live, base) = *degrees;
        let nlive = (live as i64 + dlive) as u32;
        let nbase = (base as i64 + dbase) as u32;
        *degrees = (nlive, nbase);
        if let Some(k) = Self::ratio_key(live, base) {
            self.multiset_remove(k);
        }
        if let Some(k) = Self::ratio_key(nlive, nbase) {
            *self.ratios.entry(k).or_insert(0) += 1;
        }
    }

    /// The maintained maximum ratio (0.0 when no comparable node exists) —
    /// matches `xheal_metrics::degree_increase` on the same graphs.
    pub fn max(&self) -> f64 {
        self.ratios
            .last_key_value()
            .map(|(&k, _)| f64::from_bits(k))
            .unwrap_or(0.0)
    }

    /// Number of tracked (live) nodes.
    pub fn len(&self) -> usize {
        self.degrees.len()
    }

    /// True when no node is tracked.
    pub fn is_empty(&self) -> bool {
        self.degrees.is_empty()
    }
}

/// A windowed reservoir of churn-touched nodes: the sample frame for
/// on-demand stretch estimation. Touches are O(1); stale entries (older
/// than `window` generations, or dead) are discarded lazily at sampling
/// time.
#[derive(Clone, Debug)]
pub struct StretchReservoir {
    capacity: usize,
    window: u64,
    slots: Vec<(NodeId, u64)>,
    rng: StdRng,
    touches: u64,
}

impl StretchReservoir {
    /// Reservoir over the last `window` generations holding at most
    /// `capacity` touched nodes.
    pub fn new(capacity: usize, window: u64, seed: u64) -> Self {
        StretchReservoir {
            capacity: capacity.max(1),
            window: window.max(1),
            slots: Vec::new(),
            rng: StdRng::seed_from_u64(seed),
            touches: 0,
        }
    }

    /// Records that `v` was touched by the delta stamped `generation`.
    ///
    /// Once full, every touch evicts a uniformly random slot — a
    /// *recency-biased* reservoir (slot ages are geometric with mean
    /// `capacity` touches), not stream-lifetime Algorithm R, whose decaying
    /// replacement probability would starve the window on a long-running
    /// monitor: with `capacity ≪ window` the sample stays in-window
    /// indefinitely.
    pub fn touch(&mut self, v: NodeId, generation: u64) {
        self.touches += 1;
        if self.slots.len() < self.capacity {
            self.slots.push((v, generation));
            return;
        }
        let j = self.rng.random_range(0..self.capacity as u64);
        self.slots[j as usize] = (v, generation);
    }

    /// The live, in-window sample as of `generation`, restricted to nodes
    /// present in `csr`; deduplicated.
    pub fn sample(&self, csr: &CsrView, generation: u64) -> Vec<NodeId> {
        let cutoff = generation.saturating_sub(self.window);
        let mut out: Vec<NodeId> = self
            .slots
            .iter()
            .filter(|&&(v, g)| g >= cutoff && csr.index_of(v).is_some())
            .map(|&(v, _)| v)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// Total touches observed (diagnostics).
    pub fn touches(&self) -> u64 {
        self.touches
    }
}

/// The monitor's append-only shadow of the insertion-only reference graph
/// `G'`: adjacency by node id, grown from black-edge deltas, never shrunk
/// (deletions do not touch `G'`, per the model).
#[derive(Clone, Debug, Default)]
pub struct GPrimeShadow {
    adj: FxHashMap<NodeId, Vec<NodeId>>,
}

impl GPrimeShadow {
    /// Empty shadow.
    pub fn new() -> Self {
        GPrimeShadow::default()
    }

    /// Registers a node (idempotent).
    pub fn add_node(&mut self, v: NodeId) {
        self.adj.entry(v).or_default();
    }

    /// Records an insertion edge; returns `false` (and changes nothing) on
    /// duplicates.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        if self.adj.get(&a).is_some_and(|l| l.contains(&b)) {
            return false;
        }
        self.adj.entry(a).or_default().push(b);
        self.adj.entry(b).or_default().push(a);
        true
    }

    /// Baseline degree of `v` (0 if never seen).
    pub fn degree(&self, v: NodeId) -> usize {
        self.adj.get(&v).map(Vec::len).unwrap_or(0)
    }

    /// Number of nodes ever seen.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of recorded insertion edges. A shadow with zero edges marks
    /// a *reference-free* engine (e.g. one that rebuilds its topology from
    /// membership alone and never installs black edges): every
    /// reference-relative metric is vacuous then.
    pub fn edge_count(&self) -> usize {
        self.adj.values().map(Vec::len).sum::<usize>() / 2
    }

    /// BFS distances from `s` in `G'` (dead nodes are traversed — a
    /// baseline shortest path may run through them, per the model).
    pub fn bfs(&self, s: NodeId) -> FxHashMap<NodeId, u32> {
        let mut dist: FxHashMap<NodeId, u32> = FxHashMap::default();
        if !self.adj.contains_key(&s) {
            return dist;
        }
        let mut queue: VecDeque<NodeId> = VecDeque::new();
        dist.insert(s, 0);
        queue.push_back(s);
        while let Some(u) = queue.pop_front() {
            let du = dist[&u];
            for &w in &self.adj[&u] {
                if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                    e.insert(du + 1);
                    queue.push_back(w);
                }
            }
        }
        dist
    }
}

/// Max stretch over the sampled sources/targets: BFS in the live CSR vs
/// BFS in the `G'` shadow, `f64::INFINITY` when a baseline-connected pair
/// is disconnected live (a healing failure). `None` when no comparable
/// pair exists in the sample. Sampled nodes absent from the live graph
/// (stale caller-built samples) are skipped, not fatal.
pub fn sampled_stretch(csr: &CsrView, gprime: &GPrimeShadow, sample: &[NodeId]) -> Option<f64> {
    let mut worst: Option<f64> = None;
    let mut live_dist = vec![u32::MAX; csr.len()];
    let mut queue: VecDeque<usize> = VecDeque::new();
    for &s in sample {
        let Some(si) = csr.index_of(s) else { continue };
        // BFS in the live graph over dense indices.
        live_dist.fill(u32::MAX);
        live_dist[si] = 0;
        queue.clear();
        queue.push_back(si);
        while let Some(u) = queue.pop_front() {
            let du = live_dist[u];
            for &w in csr.neighbors_of(u) {
                let w = w as usize;
                if live_dist[w] == u32::MAX {
                    live_dist[w] = du + 1;
                    queue.push_back(w);
                }
            }
        }
        let base = gprime.bfs(s);
        for &t in sample {
            if t <= s {
                continue;
            }
            let Some(&db) = base.get(&t) else { continue };
            if db == 0 {
                continue;
            }
            let Some(ti) = csr.index_of(t) else { continue };
            let r = if live_dist[ti] == u32::MAX {
                f64::INFINITY
            } else {
                live_dist[ti] as f64 / db as f64
            };
            worst = Some(worst.map_or(r, |w: f64| w.max(r)));
        }
    }
    worst
}

/// Connected-component count of a CSR snapshot (one dense BFS sweep; the
/// checkpoint-time connectivity check).
pub fn component_count(csr: &CsrView) -> usize {
    let n = csr.len();
    let mut seen = vec![false; n];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut components = 0;
    for root in 0..n {
        if seen[root] {
            continue;
        }
        components += 1;
        seen[root] = true;
        queue.push_back(root);
        while let Some(u) = queue.pop_front() {
            for &w in csr.neighbors_of(u) {
                let w = w as usize;
                if !seen[w] {
                    seen[w] = true;
                    queue.push_back(w);
                }
            }
        }
    }
    components
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    #[test]
    fn component_count_counts() {
        use xheal_graph::{generators, Graph};
        assert_eq!(component_count(&Graph::new().csr_view()), 0);
        let mut g = generators::cycle(5);
        assert_eq!(component_count(&g.csr_view()), 1);
        g.add_node(n(50)).unwrap();
        g.add_node(n(51)).unwrap();
        g.add_black_edge(n(50), n(51)).unwrap();
        assert_eq!(component_count(&g.csr_view()), 2);
    }

    #[test]
    fn histogram_tracks_transitions_and_max() {
        let mut h = DegreeHistogram::new();
        h.transition(None, Some(3));
        h.transition(None, Some(5));
        h.transition(None, Some(5));
        assert_eq!((h.nodes(), h.max(), h.count_at(5)), (3, 5, 2));
        assert!((h.mean() - 13.0 / 3.0).abs() < 1e-12);
        // Max decays when the top bucket empties.
        h.transition(Some(5), Some(1));
        h.transition(Some(5), None);
        assert_eq!((h.nodes(), h.max()), (2, 3));
        h.transition(Some(3), None);
        h.transition(Some(1), None);
        assert_eq!((h.nodes(), h.max()), (0, 0));
        assert_eq!(h.mean(), 0.0);
    }

    #[test]
    fn degree_increase_survives_decrements() {
        let mut t = DegreeIncreaseTracker::new();
        t.insert(n(1), 4, 2); // 2.0
        t.insert(n(2), 3, 1); // 3.0
        t.insert(n(3), 1, 0); // excluded: zero baseline
        assert_eq!(t.max(), 3.0);
        // The argmax node loses live edges: the max must fall back.
        t.adjust(n(2), -2, 0); // 1.0
        assert_eq!(t.max(), 2.0);
        t.remove(n(1));
        assert_eq!(t.max(), 1.0);
        t.remove(n(2));
        t.remove(n(3));
        assert_eq!(t.max(), 0.0);
        assert!(t.is_empty());
    }

    #[test]
    fn ties_are_counted_as_a_multiset() {
        let mut t = DegreeIncreaseTracker::new();
        t.insert(n(1), 2, 1);
        t.insert(n(2), 4, 2); // both 2.0
        t.remove(n(1));
        assert_eq!(t.max(), 2.0, "the tied survivor keeps the max");
    }

    #[test]
    fn reservoir_windows_and_dedups() {
        use xheal_graph::generators;
        let g = generators::cycle(6);
        let csr = g.csr_view();
        let mut r = StretchReservoir::new(4, 10, 1);
        for gen in 0..8 {
            r.touch(n(gen % 3), gen);
        }
        let s = r.sample(&csr, 8);
        assert!(!s.is_empty() && s.windows(2).all(|w| w[0] < w[1]));
        // Nodes outside the live graph are filtered.
        r.touch(n(999), 9);
        for v in r.sample(&csr, 9) {
            assert!(v.as_u64() < 6);
        }
        // Everything ages out of the window eventually.
        assert!(r.sample(&csr, 100).is_empty());
    }

    #[test]
    fn gprime_shadow_bfs_runs_through_dead_nodes() {
        // G' = star around 0; live graph lost the hub.
        let mut gp = GPrimeShadow::new();
        for i in 0..5 {
            gp.add_node(n(i));
        }
        for leaf in 1..5 {
            assert!(gp.add_edge(n(0), n(leaf)));
        }
        assert!(!gp.add_edge(n(0), n(1)), "duplicate rejected");
        let d = gp.bfs(n(1));
        assert_eq!(d[&n(2)], 2, "leaf-to-leaf runs through the dead hub");
    }

    #[test]
    fn sampled_stretch_matches_hand_example() {
        use xheal_graph::generators;
        // G' is a 6-cycle; live graph lost edge (0,5): dist(0,5) 1 -> 5.
        let gp_graph = generators::cycle(6);
        let mut gp = GPrimeShadow::new();
        for v in gp_graph.nodes() {
            gp.add_node(v);
        }
        for (u, v, _) in gp_graph.edges() {
            gp.add_edge(u, v);
        }
        let mut live = gp_graph.clone();
        live.remove_edge(n(0), n(5)).unwrap();
        let csr = live.csr_view();
        let sample: Vec<NodeId> = live.node_vec();
        assert_eq!(sampled_stretch(&csr, &gp, &sample), Some(5.0));
    }
}
