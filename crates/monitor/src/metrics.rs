//! Incrementally maintained invariant metrics: O(1)-per-delta degree and
//! black-degree histograms, the max degree-increase against the
//! insertion-only baseline `G'`, and a windowed reservoir of churn-touched
//! nodes for on-demand stretch sampling. `G'` itself is kept as an
//! append-only shadow over interned dense indices, and the checkpoint-time
//! stretch compares it with the live CSR by bit-parallel multi-source BFS.

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
/// `G'`, grown from black-edge deltas and never shrunk (deletions do not
/// touch `G'`, per the model). Node ids are interned to dense indices in
/// first-seen order, and the adjacency is one `Vec<u32>` of dense indices
/// per node, so a BFS over `G'` walks plain arrays instead of probing a
/// hash map per edge.
#[derive(Clone, Debug, Default)]
pub struct GPrimeShadow {
    index: FxHashMap<NodeId, u32>,
    adj: Vec<Vec<u32>>,
    edges: usize,
}

impl GPrimeShadow {
    /// Empty shadow.
    pub fn new() -> Self {
        GPrimeShadow::default()
    }

    /// Dense index of `v`, interning it on first sight.
    fn intern(&mut self, v: NodeId) -> usize {
        let next = self.adj.len() as u32;
        let i = *self.index.entry(v).or_insert_with(|| {
            self.adj.push(Vec::new());
            next
        });
        i as usize
    }

    /// Registers a node (idempotent).
    pub fn add_node(&mut self, v: NodeId) {
        self.intern(v);
    }

    /// Records an insertion edge; returns `false` (and changes nothing) on
    /// duplicates.
    pub fn add_edge(&mut self, a: NodeId, b: NodeId) -> bool {
        let (ia, ib) = (self.intern(a), self.intern(b));
        if self.adj[ia].contains(&(ib as u32)) {
            return false;
        }
        self.adj[ia].push(ib as u32);
        self.adj[ib].push(ia as u32);
        self.edges += 1;
        true
    }

    /// Baseline degree of `v` (0 if never seen).
    pub fn degree(&self, v: NodeId) -> usize {
        self.index
            .get(&v)
            .map_or(0, |&i| self.adj[i as usize].len())
    }

    /// Number of nodes ever seen.
    pub fn node_count(&self) -> usize {
        self.adj.len()
    }

    /// Number of recorded insertion edges (a maintained counter). A shadow
    /// with zero edges marks a *reference-free* engine (e.g. one that
    /// rebuilds its topology from membership alone and never installs
    /// black edges): every reference-relative metric is vacuous then.
    pub fn edge_count(&self) -> usize {
        self.edges
    }
}

/// Sources per multi-source BFS pass: one bit of a `u64` mask each.
const LANES: usize = 64;

/// One level-synchronous, bit-parallel BFS from up to [`LANES`] distinct
/// `sources` at once over `n` dense nodes. Bit `b` of a node's mask stands
/// for `sources[b]`: `seen` holds the sources that have reached the node,
/// `frontier` those that first reached it at the current level, and `next`
/// gathers the masks pushed to it for the following level. Writes the hop
/// distance from `sources[b]` to `targets[j]` into
/// `dist[b * targets.len() + j]`, `u32::MAX` when unreachable. Distances
/// are recorded only for targets, and the search stops as soon as every
/// source has reached every target.
///
/// Each level scans every node and ORs a frontier mask into each of its
/// neighbours without branching, then folds `next` into `seen`: on the
/// small-diameter graphs the monitor watches, that beats a queue of
/// active nodes.
fn multi_source_bfs<'g>(
    n: usize,
    neighbors: impl Fn(usize) -> &'g [u32],
    sources: &[usize],
    targets: &[usize],
    dist: &mut [u32],
) {
    debug_assert!(!sources.is_empty() && sources.len() <= LANES);
    let m = targets.len();
    dist[..sources.len() * m].fill(u32::MAX);
    let (mut seen, mut frontier, mut next) = (vec![0u64; n], vec![0u64; n], vec![0u64; n]);
    for (b, &s) in sources.iter().enumerate() {
        frontier[s] |= 1 << b;
        seen[s] |= 1 << b;
    }
    let all = u64::MAX >> (LANES - sources.len());
    let mut level = 0u32;
    loop {
        // The frontier bits of a target are the sources first reaching it
        // at this level.
        let mut done = true;
        for (j, &t) in targets.iter().enumerate() {
            let mut bits = frontier[t];
            while bits != 0 {
                dist[bits.trailing_zeros() as usize * m + j] = level;
                bits &= bits - 1;
            }
            done &= seen[t] == all;
        }
        if done {
            return;
        }
        level += 1;
        for (u, &reach) in frontier.iter().enumerate() {
            if reach != 0 {
                for &w in neighbors(u) {
                    next[w as usize] |= reach;
                }
            }
        }
        let mut any = 0;
        for ((seen, frontier), next) in seen.iter_mut().zip(&mut frontier).zip(&mut next) {
            let new = std::mem::take(next) & !*seen;
            *seen |= new;
            *frontier = new;
            any |= new;
        }
        if any == 0 {
            return;
        }
    }
}

/// Max stretch over the sampled sources/targets: BFS in the live CSR vs
/// BFS in the `G'` shadow, `f64::INFINITY` when a baseline-connected pair
/// is disconnected live (a healing failure). `None` when no comparable
/// pair exists in the sample. Sampled nodes absent from the live graph
/// (stale caller-built samples) are skipped, not fatal; so are nodes `G'`
/// never saw.
///
/// Each graph is searched by one bit-parallel multi-source BFS per 64
/// sampled nodes, not one BFS per source. `G'` paths may run through dead
/// nodes, per the model.
pub fn sampled_stretch(csr: &CsrView, gprime: &GPrimeShadow, sample: &[NodeId]) -> Option<f64> {
    let mut nodes: Vec<(NodeId, usize, usize)> = sample
        .iter()
        .filter_map(|&v| Some((v, csr.index_of(v)?, *gprime.index.get(&v)? as usize)))
        .collect();
    nodes.sort_unstable_by_key(|&(v, _, _)| v);
    nodes.dedup_by_key(|&mut (v, _, _)| v);
    let live: Vec<usize> = nodes.iter().map(|&(_, i, _)| i).collect();
    let base: Vec<usize> = nodes.iter().map(|&(_, _, i)| i).collect();
    let m = nodes.len();
    let mut live_dist = vec![0; LANES.min(m) * m];
    let mut base_dist = live_dist.clone();
    let mut worst: Option<f64> = None;
    for first in (0..m).step_by(LANES) {
        let last = (first + LANES).min(m);
        multi_source_bfs(
            csr.len(),
            |u| csr.neighbors_of(u),
            &live[first..last],
            &live,
            &mut live_dist,
        );
        multi_source_bfs(
            gprime.node_count(),
            |u| &gprime.adj[u],
            &base[first..last],
            &base,
            &mut base_dist,
        );
        for s in first..last {
            let row = (s - first) * m;
            for t in s + 1..m {
                let db = base_dist[row + t];
                if db == u32::MAX {
                    continue;
                }
                let dl = live_dist[row + t];
                let r = if dl == u32::MAX {
                    f64::INFINITY
                } else {
                    dl as f64 / db as f64
                };
                worst = Some(worst.map_or(r, |w: f64| w.max(r)));
            }
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
    fn gprime_shadow_counts_and_rejects_duplicates() {
        let mut gp = GPrimeShadow::new();
        gp.add_node(n(7));
        gp.add_node(n(7));
        assert_eq!((gp.node_count(), gp.edge_count()), (1, 0));
        assert!(gp.add_edge(n(7), n(3)), "unseen endpoints are interned");
        assert!(!gp.add_edge(n(3), n(7)), "duplicate rejected either way");
        assert!(gp.add_edge(n(3), n(9)));
        assert_eq!((gp.node_count(), gp.edge_count()), (3, 2));
        assert_eq!(
            (gp.degree(n(3)), gp.degree(n(7)), gp.degree(n(4))),
            (2, 1, 0)
        );
    }

    #[test]
    fn gprime_shadow_bfs_runs_through_dead_nodes() {
        // G' = star around 0; the live graph lost the hub and chains the
        // leaves 1-2-3-4.
        let mut gp = GPrimeShadow::new();
        for leaf in 1..5 {
            assert!(gp.add_edge(n(0), n(leaf)));
        }
        assert!(!gp.add_edge(n(0), n(1)), "duplicate rejected");
        let mut live = xheal_graph::Graph::new();
        for leaf in 1..5 {
            live.add_node(n(leaf)).unwrap();
        }
        for leaf in 1..4 {
            live.add_black_edge(n(leaf), n(leaf + 1)).unwrap();
        }
        let csr = live.csr_view();
        // Leaf-to-leaf is 2 hops in G' through the dead hub.
        assert_eq!(sampled_stretch(&csr, &gp, &[n(1), n(2)]), Some(0.5));
        assert_eq!(sampled_stretch(&csr, &gp, &[n(4), n(1)]), Some(1.5));
        // The dead hub itself is not a live endpoint.
        assert_eq!(sampled_stretch(&csr, &gp, &[n(0), n(1)]), None);
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

    /// The per-source stretch this module computed before the multi-source
    /// BFS, kept as the oracle: one dense BFS per source in the live CSR
    /// and one hash-map BFS per source in `G'`, given here as an adjacency
    /// map built independently of [`GPrimeShadow`].
    fn oracle_stretch(
        csr: &CsrView,
        gprime: &FxHashMap<NodeId, Vec<NodeId>>,
        sample: &[NodeId],
    ) -> Option<f64> {
        let bfs = |s: NodeId| {
            let mut dist: FxHashMap<NodeId, u32> = FxHashMap::default();
            if !gprime.contains_key(&s) {
                return dist;
            }
            let mut queue: VecDeque<NodeId> = VecDeque::new();
            dist.insert(s, 0);
            queue.push_back(s);
            while let Some(u) = queue.pop_front() {
                let du = dist[&u];
                for &w in &gprime[&u] {
                    if let std::collections::hash_map::Entry::Vacant(e) = dist.entry(w) {
                        e.insert(du + 1);
                        queue.push_back(w);
                    }
                }
            }
            dist
        };
        let mut worst: Option<f64> = None;
        let mut live_dist = vec![u32::MAX; csr.len()];
        let mut queue: VecDeque<usize> = VecDeque::new();
        for &s in sample {
            let Some(si) = csr.index_of(s) else { continue };
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
            let base = bfs(s);
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

    /// Adjacency map of a reference graph, for [`oracle_stretch`].
    fn adjacency(g: &xheal_graph::Graph) -> FxHashMap<NodeId, Vec<NodeId>> {
        let mut adj: FxHashMap<NodeId, Vec<NodeId>> = FxHashMap::default();
        for v in g.nodes() {
            adj.entry(v).or_default();
        }
        for (u, v, _) in g.edges() {
            adj.entry(u).or_default().push(v);
            adj.entry(v).or_default().push(u);
        }
        adj
    }

    fn shadow_of(g: &xheal_graph::Graph) -> GPrimeShadow {
        let mut gp = GPrimeShadow::new();
        for v in g.nodes() {
            gp.add_node(v);
        }
        for (u, v, _) in g.edges() {
            gp.add_edge(u, v);
        }
        gp
    }

    #[test]
    fn multi_source_stretch_matches_oracle_under_churn() {
        use std::cell::RefCell;
        use std::rc::Rc;
        use xheal_core::Xheal;
        use xheal_graph::generators;

        use crate::{Monitor, MonitorConfig};

        for seed in 0..3u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g0 = generators::connected_erdos_renyi(150, 0.04, &mut rng);
            let monitor = Rc::new(RefCell::new(Monitor::new(&g0, MonitorConfig::default())));
            let mut net = Xheal::builder()
                .kappa(4)
                .seed(seed)
                .sink(Box::new(Rc::clone(&monitor)))
                .build(&g0);
            let mut reference = xheal_metrics::GPrime::new(&g0);
            let mut dead: Vec<NodeId> = Vec::new();
            let mut next = 1_000u64;
            for step in 0..120 {
                let nodes = net.graph().node_vec();
                if rng.random_range(0..3u32) == 0 {
                    let k = rng.random_range(1..4usize);
                    let nbrs: Vec<NodeId> = (0..k)
                        .map(|_| nodes[rng.random_range(0..nodes.len())])
                        .collect();
                    net.heal_insert(n(next), &nbrs).unwrap();
                    reference.record_insert(n(next), &nbrs).unwrap();
                    next += 1;
                } else {
                    let victim = nodes[rng.random_range(0..nodes.len())];
                    net.heal_delete(victim).unwrap();
                    dead.push(victim);
                }
                if step % 10 != 9 {
                    continue;
                }
                let m = monitor.borrow();
                let gp = m.gprime();
                assert_eq!(gp.node_count(), reference.graph().node_count());
                assert_eq!(gp.edge_count(), reference.graph().edge_count());
                let oracle_gp = adjacency(reference.graph());
                let csr = m.csr().snapshot();
                let live = net.graph().node_vec();
                for _ in 0..6 {
                    // Live nodes (often more than one 64-source pass),
                    // dead ids kept in G', never-seen ids and repeats.
                    let size = rng.random_range(0..140usize);
                    let mut sample: Vec<NodeId> = (0..size)
                        .map(|_| match rng.random_range(0..10u32) {
                            0 if !dead.is_empty() => dead[rng.random_range(0..dead.len())],
                            1 => n(50_000 + rng.random_range(0..5u64)),
                            _ => live[rng.random_range(0..live.len())],
                        })
                        .collect();
                    if rng.random_range(0..2u32) == 0 {
                        sample.sort_unstable();
                    }
                    assert_eq!(
                        sampled_stretch(&csr, gp, &sample).map(f64::to_bits),
                        oracle_stretch(&csr, &oracle_gp, &sample).map(f64::to_bits),
                        "seed {seed} step {step} sample {sample:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn disconnected_live_pair_has_infinite_stretch() {
        use xheal_graph::generators;
        // G' is a 12-cycle; the live graph lost two edges and split.
        let g = generators::cycle(12);
        let gp = shadow_of(&g);
        let mut live = g.clone();
        live.remove_edge(n(2), n(3)).unwrap();
        live.remove_edge(n(8), n(9)).unwrap();
        let csr = live.csr_view();
        let same_side = [n(3), n(5), n(8)];
        assert_eq!(sampled_stretch(&csr, &gp, &same_side), Some(1.0));
        let across = [n(0), n(5)];
        assert_eq!(sampled_stretch(&csr, &gp, &across), Some(f64::INFINITY));
        assert_eq!(
            oracle_stretch(&csr, &adjacency(&g), &across),
            Some(f64::INFINITY)
        );
    }

    #[test]
    fn stretch_pairs_straddle_bfs_pass_boundaries() {
        use xheal_graph::generators;
        // G' is a 200-cycle and the live graph lost edge (u, u + 1): that
        // pair alone has the maximum stretch 199. Place it at every sorted
        // position around the 64-source pass boundaries.
        let g = generators::cycle(200);
        let gp = shadow_of(&g);
        let oracle_gp = adjacency(&g);
        for size in [2usize, 63, 64, 65, 127, 128, 129, 130] {
            for p in [0, 1, 62, 63, 64, 65, 126, 127, 128, size - 2] {
                if p + 2 > size {
                    continue;
                }
                let u = p as u64 + 10;
                let mut live = g.clone();
                live.remove_edge(n(u), n(u + 1)).unwrap();
                let csr = live.csr_view();
                let below = (0..u).take(p);
                let above = (u + 2..200).take(size - p - 2);
                let sample: Vec<NodeId> = below.chain([u, u + 1]).chain(above).map(n).collect();
                assert_eq!(sample.len(), size);
                assert_eq!(sample[p], n(u));
                let got = sampled_stretch(&csr, &gp, &sample);
                assert_eq!(got, Some(199.0), "size {size}, pair at {p}");
                assert_eq!(got, oracle_stretch(&csr, &oracle_gp, &sample));
            }
        }
    }
}
