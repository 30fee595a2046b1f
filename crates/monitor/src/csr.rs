//! The incrementally patched CSR at the heart of the monitor.
//!
//! [`IncrementalCsr`] is a labeled adjacency structure maintained purely
//! from the [`TopologyDelta`] stream — never rebuilt from the engine's
//! graph. Every applied delta bumps a **generation stamp**, so downstream
//! consumers can tag derived metrics with the exact topology version they
//! were computed from.
//!
//! # Layout
//!
//! - **Entries.** Each undirected edge `{u, v}` appears as two directed
//!   half-edge entries, one in each endpoint's block. An entry is a
//!   16-byte `Copy` record: the neighbor's id (the sort key), its arena
//!   slot (so snapshots and mirror edits never re-hash), and the index of
//!   the edge's label record. Blocks are shifted, relocated and compacted
//!   with plain memory moves.
//! - **Blocks with slack.** The entries live in one flat array. Each live
//!   node owns a contiguous block `[start, start + cap)` holding its `len`
//!   neighbor entries sorted by id. Inserting into a full block relocates
//!   it to the tail of the array with doubled capacity, abandoning the old
//!   region as a *tombstone*. When tombstones exceed half the array an
//!   amortized **compaction** rebuilds the array densely.
//! - **Shared label records.** The [`EdgeLabels`] of an edge are stored
//!   once, in a record table indexed by the entries' `edge` field; both
//!   halves of the edge point at the same record. Relabeling or stripping
//!   a surviving edge therefore edits one record and never searches the
//!   mirror block: only creating or dropping an edge touches both blocks.
//! - **Free list.** A dropped edge's record goes on a free list and the
//!   next created edge reuses it, so the table holds one record per live
//!   edge plus the free list, never one per edge ever created.
//!
//! [`IncrementalCsr::snapshot`] linearizes the structure into a
//! [`CsrView`] — bit-identical to what `Graph::csr_view()` would produce
//! for the same topology, which is exactly what the property suite pins
//! after every event.

use std::collections::BTreeSet;

use xheal_core::TopologyDelta;
use xheal_graph::{CloudColor, CsrView, EdgeLabels, FxHashMap, Graph, NodeId};

/// Compact once abandoned capacity exceeds this fraction of the array
/// (denominator 2 ⇒ half), and only past a minimum size.
const COMPACT_DENOM: usize = 2;
const COMPACT_MIN: usize = 64;

/// One directed half-edge entry: the neighbor's id (the sort key), its
/// arena slot, and the label record both halves of the edge share.
#[derive(Clone, Copy, Debug)]
struct Entry {
    id: NodeId,
    slot: u32,
    edge: u32,
}

const _: () = assert!(std::mem::size_of::<Entry>() == 16);

impl Entry {
    /// Slack filler; the structure never reads it.
    const FILLER: Entry = Entry {
        id: NodeId::new(u64::MAX),
        slot: u32::MAX,
        edge: u32::MAX,
    };
}

/// Per-node block descriptor: `len` live entries inside `cap` owned cells.
#[derive(Clone, Copy, Debug, Default)]
struct Block {
    start: u32,
    len: u32,
    cap: u32,
    black: u32,
}

/// What one applied [`TopologyDelta`] structurally did — the O(1) feed for
/// the monitor's incremental metric trackers.
#[derive(Clone, Debug, PartialEq)]
pub enum DeltaEffect {
    /// Nothing changed (replayed strip of an already-dead edge, duplicate
    /// label, …).
    Noop,
    /// A node joined with degree 0.
    NodeAdded(NodeId),
    /// A node left; every incident edge died with it. For each former
    /// neighbor: `(neighbor, its degree before, edge was black)`.
    NodeRemoved {
        /// The departed node.
        node: NodeId,
        /// Its degree at departure.
        degree: usize,
        /// Its black degree at departure.
        black_degree: usize,
        /// Former neighbors with their pre-removal degree and whether the
        /// shared edge carried the black label.
        neighbors: Vec<(NodeId, usize, bool)>,
    },
    /// A brand-new edge appeared.
    EdgeCreated {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// Whether the creating label was black.
        black: bool,
    },
    /// An existing edge gained a label; `became_black` when the black flag
    /// turned on.
    EdgeRelabeled {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The black flag switched from off to on.
        became_black: bool,
    },
    /// An edge lost its last label and disappeared.
    EdgeDropped {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The edge carried the black label just before dropping.
        was_black: bool,
    },
    /// An edge lost a label but survives; `lost_black` when the black flag
    /// turned off.
    EdgeStripped {
        /// One endpoint.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
        /// The black flag switched from on to off.
        lost_black: bool,
    },
}

/// A generation-stamped CSR patched in place from [`TopologyDelta`]s.
///
/// # Examples
///
/// ```
/// use xheal_core::TopologyDelta;
/// use xheal_monitor::IncrementalCsr;
/// use xheal_graph::{generators, NodeId};
///
/// let mut g = generators::cycle(6);
/// let mut csr = IncrementalCsr::new(&g);
/// // The engine deletes node 0; replay its deltas into the CSR.
/// g.remove_node(NodeId::new(0)).unwrap();
/// csr.apply(&TopologyDelta::NodeRemoved(NodeId::new(0)));
/// assert_eq!(csr.generation(), 1);
/// assert_eq!(csr.node_count(), 5);
/// assert_eq!(csr.snapshot().nodes(), g.csr_view().nodes());
/// ```
#[derive(Clone, Debug)]
pub struct IncrementalCsr {
    /// `NodeId → slot` for the hot-path point lookups.
    index: FxHashMap<NodeId, u32>,
    /// Live ids ascending — the deterministic snapshot spine.
    ordered: BTreeSet<NodeId>,
    /// Per-slot id (only meaningful while live).
    ids: Vec<NodeId>,
    live: Vec<bool>,
    blocks: Vec<Block>,
    free_slots: Vec<u32>,
    /// The flat entry array blocks carve up.
    adj: Vec<Entry>,
    /// One label record per live edge, indexed by [`Entry::edge`].
    labels: Vec<EdgeLabels>,
    /// Records of dropped edges, reused before the table grows.
    free_labels: Vec<u32>,
    /// Abandoned cells (relocated blocks, dead nodes' blocks).
    tombstones: usize,
    edge_count: usize,
    generation: u64,
    compactions: usize,
    /// Inside a [`IncrementalCsr::begin_batch`] flush: compaction deferred.
    in_batch: bool,
    /// Reusable slot-grouping buffer for the batch capacity pre-pass.
    batch_slots: Vec<u32>,
}

impl IncrementalCsr {
    /// Seeds the structure from the engine's current graph (the one O(n+m)
    /// build; every later change arrives as a delta).
    pub fn new(initial: &Graph) -> Self {
        let mut csr = IncrementalCsr {
            index: FxHashMap::default(),
            ordered: BTreeSet::new(),
            ids: Vec::new(),
            live: Vec::new(),
            blocks: Vec::new(),
            free_slots: Vec::new(),
            adj: Vec::with_capacity(2 * initial.edge_count()),
            labels: Vec::with_capacity(initial.edge_count()),
            free_labels: Vec::new(),
            tombstones: 0,
            edge_count: 0,
            generation: 0,
            compactions: 0,
            in_batch: false,
            batch_slots: Vec::new(),
        };
        for v in initial.nodes() {
            csr.add_slot(v);
        }
        // Nodes are laid down in ascending id order, so when `v` reaches a
        // lower neighbor `u`, the mirror `(u → v)` is the next entry above
        // `u` in `u`'s block that no higher node has claimed yet:
        // `cursor[u]` walks those entries in step, one linear pass.
        let mut cursor = vec![0u32; csr.blocks.len()];
        for v in initial.nodes() {
            let sv = csr.index[&v];
            let start = csr.adj.len() as u32;
            let mut black = 0u32;
            let mut lower = 0u32;
            for (u, labels) in initial.neighbors_labeled(v) {
                let su = csr.index[&u];
                if labels.is_black() {
                    black += 1;
                }
                let edge = if u < v {
                    let mirror = csr.adj[cursor[su as usize] as usize];
                    debug_assert_eq!(mirror.id, v, "mirror of ({v},{u})");
                    cursor[su as usize] += 1;
                    lower += 1;
                    mirror.edge
                } else {
                    csr.alloc_labels(labels.clone())
                };
                csr.adj.push(Entry {
                    id: u,
                    slot: su,
                    edge,
                });
            }
            let len = csr.adj.len() as u32 - start;
            cursor[sv as usize] = start + lower;
            csr.blocks[sv as usize] = Block {
                start,
                len,
                cap: len,
                black,
            };
        }
        csr.edge_count = initial.edge_count();
        csr
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// Number of deltas applied so far — the version stamp to tag derived
    /// metrics with.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Live node count.
    pub fn node_count(&self) -> usize {
        self.ordered.len()
    }

    /// Live undirected edge count.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Is the node present?
    pub fn contains(&self, v: NodeId) -> bool {
        self.index.contains_key(&v)
    }

    /// Degree of `v`, if present.
    pub fn degree(&self, v: NodeId) -> Option<usize> {
        self.index
            .get(&v)
            .map(|&s| self.blocks[s as usize].len as usize)
    }

    /// Black degree of `v`, if present (maintained counter, O(1)).
    pub fn black_degree(&self, v: NodeId) -> Option<usize> {
        self.index
            .get(&v)
            .map(|&s| self.blocks[s as usize].black as usize)
    }

    /// Live node ids, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ordered.iter().copied()
    }

    /// Neighbors of `v` (ascending), empty if absent.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.index
            .get(&v)
            .map(|&s| self.block_slice(s))
            .unwrap_or(&[])
            .iter()
            .map(|e| e.id)
    }

    /// Abandoned cells currently wasted in the entry array (drops to 0 at
    /// every compaction).
    pub fn tombstones(&self) -> usize {
        self.tombstones
    }

    /// Number of amortized compactions run so far.
    pub fn compactions(&self) -> usize {
        self.compactions
    }

    fn block_slice(&self, slot: u32) -> &[Entry] {
        let b = &self.blocks[slot as usize];
        &self.adj[b.start as usize..(b.start + b.len) as usize]
    }

    /// Linearizes into a [`CsrView`] identical to `Graph::csr_view()` of
    /// the same topology: nodes ascending, neighbors as dense indices.
    pub fn snapshot(&self) -> CsrView {
        let n = self.ordered.len();
        let mut nodes = Vec::with_capacity(n);
        let mut slot_to_dense = vec![u32::MAX; self.blocks.len()];
        for (i, &v) in self.ordered.iter().enumerate() {
            nodes.push(v);
            slot_to_dense[self.index[&v] as usize] = i as u32;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * self.edge_count);
        offsets.push(0u32);
        for &v in &nodes {
            let s = self.index[&v];
            neighbors.extend(
                self.block_slice(s)
                    .iter()
                    .map(|e| slot_to_dense[e.slot as usize]),
            );
            offsets.push(neighbors.len() as u32);
        }
        CsrView::from_parts(nodes, offsets, neighbors)
    }

    // ------------------------------------------------------------------
    // The patch path
    // ------------------------------------------------------------------

    /// Applies one delta, bumps the generation, and reports what changed
    /// structurally. Tolerates the stream's replay semantics: strips of
    /// edges that died with a deleted endpoint are no-ops, duplicate labels
    /// are no-ops.
    pub fn apply(&mut self, delta: &TopologyDelta) -> DeltaEffect {
        self.generation += 1;
        let effect = match *delta {
            TopologyDelta::NodeAdded(v) => {
                self.add_slot(v);
                DeltaEffect::NodeAdded(v)
            }
            TopologyDelta::NodeRemoved(v) => self.remove_node(v),
            TopologyDelta::EdgeAdded { a, b, color } => self.add_label(a, b, color),
            TopologyDelta::EdgeRemoved { a, b, color } => self.strip_label(a, b, color),
        };
        if !self.in_batch {
            self.maybe_compact();
        }
        effect
    }

    /// Prepares the structure for one flush of `deltas` applied back to
    /// back (the grouped form [`crate::Monitor`] receives from an
    /// executor's batched plan application): a single capacity pre-pass
    /// groups the flush's edge insertions by endpoint slot and sizes every
    /// touched block up front, so the per-delta patches that follow never
    /// relocate mid-flush — each block moves **at most once per flush**
    /// instead of once per doubling. Amortized compaction is deferred to
    /// [`IncrementalCsr::end_batch`], one check per flush.
    ///
    /// The pre-pass is an optimization only: endpoints it cannot resolve
    /// (e.g. nodes added later in the same stream) are skipped, and the
    /// per-delta path still grows blocks on demand, so [`apply`] semantics
    /// — effects, generations, snapshots — are bit-identical with or
    /// without the batch bracket.
    ///
    /// [`apply`]: IncrementalCsr::apply
    pub fn begin_batch(&mut self, deltas: &[TopologyDelta]) {
        self.in_batch = true;
        let mut slots = std::mem::take(&mut self.batch_slots);
        slots.clear();
        for delta in deltas {
            if let TopologyDelta::EdgeAdded { a, b, .. } = *delta {
                if let (Some(&sa), Some(&sb)) = (self.index.get(&a), self.index.get(&b)) {
                    slots.push(sa);
                    slots.push(sb);
                }
            }
        }
        slots.sort_unstable();
        let mut i = 0;
        while i < slots.len() {
            let slot = slots[i];
            let mut j = i;
            while j < slots.len() && slots[j] == slot {
                j += 1;
            }
            // Pessimistic: relabels of existing edges count as growth too —
            // the over-reservation is plain slack, never a tombstone.
            let incoming = (j - i) as u32;
            let b = self.blocks[slot as usize];
            if b.cap - b.len < incoming {
                self.grow_block(slot, (b.len + incoming).max(b.cap * 2).max(4));
            }
            i = j;
        }
        self.batch_slots = slots;
    }

    /// Closes a [`IncrementalCsr::begin_batch`] flush: runs the deferred
    /// amortized compaction check once for the whole batch.
    pub fn end_batch(&mut self) {
        self.in_batch = false;
        self.maybe_compact();
    }

    fn add_slot(&mut self, v: NodeId) {
        debug_assert!(!self.index.contains_key(&v), "duplicate node {v}");
        let slot = match self.free_slots.pop() {
            Some(s) => {
                self.ids[s as usize] = v;
                self.live[s as usize] = true;
                self.blocks[s as usize] = Block::default();
                s
            }
            None => {
                let s = u32::try_from(self.ids.len()).expect("slot fits u32");
                self.ids.push(v);
                self.live.push(true);
                self.blocks.push(Block::default());
                s
            }
        };
        self.index.insert(v, slot);
        self.ordered.insert(v);
    }

    fn remove_node(&mut self, v: NodeId) -> DeltaEffect {
        let Some(&sv) = self.index.get(&v) else {
            debug_assert!(false, "removed unknown node {v}");
            return DeltaEffect::Noop;
        };
        let block = self.blocks[sv as usize];
        let mut neighbors = Vec::with_capacity(block.len as usize);
        // The mirror removals shift only the neighbors' blocks, so this
        // block is read in place.
        for i in block.start..block.start + block.len {
            let e = self.adj[i as usize];
            let was_black = self.labels[e.edge as usize].is_black();
            neighbors.push((e.id, self.blocks[e.slot as usize].len as usize, was_black));
            let pos = self.find_in_block(e.slot, v).expect("mirror entry");
            self.remove_at(e.slot, pos, was_black);
            self.free_labels.push(e.edge);
        }
        self.edge_count -= block.len as usize;
        self.tombstones += block.cap as usize;
        self.blocks[sv as usize] = Block::default();
        self.live[sv as usize] = false;
        self.free_slots.push(sv);
        self.index.remove(&v);
        self.ordered.remove(&v);
        DeltaEffect::NodeRemoved {
            node: v,
            degree: block.len as usize,
            black_degree: block.black as usize,
            neighbors,
        }
    }

    /// Position of `u` inside `slot`'s block.
    fn find_in_block(&self, slot: u32, u: NodeId) -> Result<usize, usize> {
        self.block_slice(slot).binary_search_by(|e| e.id.cmp(&u))
    }

    /// Removes the entry at position `pos` of `slot`'s block.
    fn remove_at(&mut self, slot: u32, pos: usize, was_black: bool) {
        let b = &mut self.blocks[slot as usize];
        let start = b.start as usize;
        // Shift the tail left inside the block; the vacated cell becomes
        // reusable slack, not a tombstone.
        self.adj
            .copy_within(start + pos + 1..start + b.len as usize, start + pos);
        b.len -= 1;
        if was_black {
            b.black -= 1;
        }
    }

    /// Inserts an entry into `slot`'s block at its sorted position,
    /// relocating the block with doubled capacity when full.
    fn insert_entry(&mut self, slot: u32, entry: Entry) {
        let pos = match self.find_in_block(slot, entry.id) {
            Ok(_) => unreachable!("entry {} already present", entry.id),
            Err(p) => p,
        };
        let b = self.blocks[slot as usize];
        if b.len == b.cap {
            self.grow_block(slot, (b.cap * 2).max(4));
        }
        let b = &mut self.blocks[slot as usize];
        let start = b.start as usize;
        // Shift the tail right inside the block to open the position.
        self.adj
            .copy_within(start + pos..start + b.len as usize, start + pos + 1);
        self.adj[start + pos] = entry;
        b.len += 1;
    }

    /// Relocates `slot`'s block to the tail of the entry array with
    /// capacity `new_cap`; the old region tombstones.
    fn grow_block(&mut self, slot: u32, new_cap: u32) {
        let b = &mut self.blocks[slot as usize];
        debug_assert!(new_cap > b.cap);
        let new_start = self.adj.len();
        self.adj.reserve(new_cap as usize);
        self.adj
            .extend_from_within(b.start as usize..(b.start + b.len) as usize);
        self.adj.resize(new_start + new_cap as usize, Entry::FILLER);
        self.tombstones += b.cap as usize;
        b.start = new_start as u32;
        b.cap = new_cap;
    }

    /// Stores `labels` for a new edge, reusing a freed record if any.
    fn alloc_labels(&mut self, labels: EdgeLabels) -> u32 {
        match self.free_labels.pop() {
            Some(r) => {
                self.labels[r as usize] = labels;
                r
            }
            None => {
                let r = u32::try_from(self.labels.len()).expect("record fits u32");
                self.labels.push(labels);
                r
            }
        }
    }

    fn add_label(&mut self, a: NodeId, b: NodeId, color: Option<CloudColor>) -> DeltaEffect {
        let (Some(&sa), Some(&sb)) = (self.index.get(&a), self.index.get(&b)) else {
            debug_assert!(false, "edge ({a},{b}) endpoints must be live");
            return DeltaEffect::Noop;
        };
        match self.find_in_block(sa, b) {
            Ok(pos) => {
                // Existing edge: one shared record, no mirror search.
                let edge = self.adj[self.blocks[sa as usize].start as usize + pos].edge;
                let labels = &mut self.labels[edge as usize];
                let became_black = match color {
                    None if labels.is_black() => return DeltaEffect::Noop,
                    None => {
                        labels.set_black();
                        true
                    }
                    Some(c) if labels.add_color(c) => false,
                    Some(_) => return DeltaEffect::Noop, // duplicate label
                };
                if became_black {
                    self.blocks[sa as usize].black += 1;
                    self.blocks[sb as usize].black += 1;
                }
                DeltaEffect::EdgeRelabeled { a, b, became_black }
            }
            Err(_) => {
                let (labels, black) = match color {
                    None => (EdgeLabels::black(), true),
                    Some(c) => (EdgeLabels::colored(c), false),
                };
                let edge = self.alloc_labels(labels);
                self.insert_entry(
                    sa,
                    Entry {
                        id: b,
                        slot: sb,
                        edge,
                    },
                );
                self.insert_entry(
                    sb,
                    Entry {
                        id: a,
                        slot: sa,
                        edge,
                    },
                );
                if black {
                    self.blocks[sa as usize].black += 1;
                    self.blocks[sb as usize].black += 1;
                }
                self.edge_count += 1;
                DeltaEffect::EdgeCreated { a, b, black }
            }
        }
    }

    fn strip_label(&mut self, a: NodeId, b: NodeId, color: Option<CloudColor>) -> DeltaEffect {
        // Strips of edges that died with a deleted endpoint are no-ops,
        // exactly as on the engine's graph.
        let (Some(&sa), Some(&sb)) = (self.index.get(&a), self.index.get(&b)) else {
            return DeltaEffect::Noop;
        };
        let Ok(pos) = self.find_in_block(sa, b) else {
            return DeltaEffect::Noop;
        };
        let edge = self.adj[self.blocks[sa as usize].start as usize + pos].edge;
        let labels = &mut self.labels[edge as usize];
        let was_black = labels.is_black();
        let removed = match color {
            None => {
                labels.clear_black();
                was_black
            }
            Some(c) => labels.remove_color(c),
        };
        if !removed {
            return DeltaEffect::Noop;
        }
        if labels.is_empty() {
            self.remove_at(sa, pos, was_black);
            let mpos = self.find_in_block(sb, a).expect("mirror entry");
            self.remove_at(sb, mpos, was_black);
            self.free_labels.push(edge);
            self.edge_count -= 1;
            return DeltaEffect::EdgeDropped { a, b, was_black };
        }
        let lost_black = was_black && !labels.is_black();
        if lost_black {
            self.blocks[sa as usize].black -= 1;
            self.blocks[sb as usize].black -= 1;
        }
        DeltaEffect::EdgeStripped { a, b, lost_black }
    }

    // ------------------------------------------------------------------
    // Amortized compaction
    // ------------------------------------------------------------------

    fn maybe_compact(&mut self) {
        if self.adj.len() >= COMPACT_MIN && self.tombstones > self.adj.len() / COMPACT_DENOM {
            self.compact();
        }
    }

    /// Rebuilds the entry array densely (slack reset to zero per block);
    /// O(live entries), paid for by the tombstones that triggered it.
    fn compact(&mut self) {
        let mut fresh: Vec<Entry> = Vec::with_capacity(2 * self.edge_count);
        for &v in &self.ordered {
            let slot = self.index[&v];
            let b = &mut self.blocks[slot as usize];
            let start = fresh.len() as u32;
            fresh.extend_from_slice(&self.adj[b.start as usize..(b.start + b.len) as usize]);
            b.start = start;
            b.cap = b.len;
        }
        self.adj = fresh;
        self.tombstones = 0;
        self.compactions += 1;
    }

    // ------------------------------------------------------------------
    // Self-checks (tests and the property suite)
    // ------------------------------------------------------------------

    /// Structural consistency check: sorted blocks, symmetric edges whose
    /// halves share one live label record, record and free-list
    /// accounting, maintained counters, tombstone accounting.
    pub fn validate(&self) -> Result<(), String> {
        if self.index.len() != self.ordered.len() {
            return Err("index/ordered size mismatch".into());
        }
        let records = self.labels.len();
        let mut freed = vec![false; records];
        for &r in &self.free_labels {
            if r as usize >= records || std::mem::replace(&mut freed[r as usize], true) {
                return Err(format!("free list holds bad or repeated record {r}"));
            }
        }
        let mut claimed = vec![false; records];
        let mut owned = 0usize;
        let mut edges = 0usize;
        for &v in &self.ordered {
            let Some(&s) = self.index.get(&v) else {
                return Err(format!("ordered node {v} not indexed"));
            };
            if !self.live[s as usize] || self.ids[s as usize] != v {
                return Err(format!("slot {s} does not back {v}"));
            }
            let b = self.blocks[s as usize];
            if b.len > b.cap || (b.start + b.cap) as usize > self.adj.len() {
                return Err(format!("block of {v} out of bounds"));
            }
            owned += b.cap as usize;
            let mut black = 0u32;
            let slice = self.block_slice(s);
            for w in slice.windows(2) {
                if w[0].id >= w[1].id {
                    return Err(format!("unsorted block at {v}"));
                }
            }
            for e in slice {
                let r = e.edge as usize;
                if r >= records || freed[r] {
                    return Err(format!("({v},{}) references freed record {r}", e.id));
                }
                let labels = &self.labels[r];
                if labels.is_empty() {
                    return Err(format!("empty labels on ({v},{})", e.id));
                }
                if labels.is_black() {
                    black += 1;
                }
                if !self.live[e.slot as usize] || self.ids[e.slot as usize] != e.id {
                    return Err(format!("stale neighbor slot on ({v},{})", e.id));
                }
                let mirror = self
                    .find_in_block(e.slot, v)
                    .map_err(|_| format!("asymmetric edge ({v},{})", e.id))?;
                let mb = self.blocks[e.slot as usize];
                if self.adj[mb.start as usize + mirror].edge != e.edge {
                    return Err(format!("halves of ({v},{}) use different records", e.id));
                }
                if v < e.id {
                    if std::mem::replace(&mut claimed[r], true) {
                        return Err(format!("record {r} shared by two edges"));
                    }
                    edges += 1;
                }
            }
            if black != b.black {
                return Err(format!("black counter {} != {black} at {v}", b.black));
            }
        }
        if edges != self.edge_count {
            return Err(format!("edge count {} stored {edges}", self.edge_count));
        }
        if edges + self.free_labels.len() != records {
            return Err(format!(
                "record leak: {edges} live + {} free != {records} records",
                self.free_labels.len()
            ));
        }
        if owned + self.tombstones > self.adj.len() {
            return Err(format!(
                "accounting leak: {owned} owned + {} tombstones > {} cells",
                self.tombstones,
                self.adj.len()
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xheal_graph::{generators, CloudColor};

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    /// Asserts the incremental structure matches `g.csr_view()` exactly.
    fn assert_matches(csr: &IncrementalCsr, g: &Graph) {
        csr.validate().unwrap();
        let inc = csr.snapshot();
        let fresh = g.csr_view();
        assert_eq!(inc.nodes(), fresh.nodes(), "node spine differs");
        assert_eq!(inc.offsets(), fresh.offsets(), "offsets differ");
        assert_eq!(
            inc.neighbors_flat(),
            fresh.neighbors_flat(),
            "adjacency differs"
        );
        for v in g.nodes() {
            assert_eq!(csr.degree(v), g.degree(v), "degree of {v}");
            assert_eq!(
                csr.black_degree(v),
                g.black_degree(v),
                "black degree of {v}"
            );
        }
    }

    #[test]
    fn seeds_from_initial_graph() {
        let g = generators::random_regular(40, 4, &mut rand::rngs::StdRng::seed_from_u64(1));
        let csr = IncrementalCsr::new(&g);
        assert_eq!(csr.generation(), 0);
        assert_matches(&csr, &g);
    }

    #[test]
    fn node_and_edge_deltas_patch_in_place() {
        let mut g = generators::cycle(8);
        let mut csr = IncrementalCsr::new(&g);
        let c = CloudColor::new(3);

        // Node insert with two black edges.
        g.add_node(n(100)).unwrap();
        csr.apply(&TopologyDelta::NodeAdded(n(100)));
        for u in [n(0), n(4)] {
            g.add_black_edge(n(100), u).unwrap();
            let eff = csr.apply(&TopologyDelta::EdgeAdded {
                a: n(100),
                b: u,
                color: None,
            });
            assert!(matches!(eff, DeltaEffect::EdgeCreated { black: true, .. }));
        }
        assert_matches(&csr, &g);

        // Recolor an existing edge, then strip black off it.
        g.add_colored_edge(n(0), n(1), c).unwrap();
        let eff = csr.apply(&TopologyDelta::EdgeAdded {
            a: n(0),
            b: n(1),
            color: Some(c),
        });
        assert!(matches!(
            eff,
            DeltaEffect::EdgeRelabeled {
                became_black: false,
                ..
            }
        ));
        g.strip_black(n(0), n(1));
        let eff = csr.apply(&TopologyDelta::EdgeRemoved {
            a: n(0),
            b: n(1),
            color: None,
        });
        assert!(matches!(
            eff,
            DeltaEffect::EdgeStripped {
                lost_black: true,
                ..
            }
        ));
        assert_matches(&csr, &g);

        // Strip the color too: the edge dies.
        g.strip_color(n(0), n(1), c);
        let eff = csr.apply(&TopologyDelta::EdgeRemoved {
            a: n(0),
            b: n(1),
            color: Some(c),
        });
        assert!(matches!(
            eff,
            DeltaEffect::EdgeDropped {
                was_black: false,
                ..
            }
        ));
        assert_matches(&csr, &g);

        // Node removal takes every incident edge.
        g.remove_node(n(4)).unwrap();
        let eff = csr.apply(&TopologyDelta::NodeRemoved(n(4)));
        let DeltaEffect::NodeRemoved {
            node,
            degree,
            neighbors,
            ..
        } = eff
        else {
            panic!("expected NodeRemoved, got {eff:?}");
        };
        assert_eq!(node, n(4));
        assert_eq!(degree, 3);
        assert_eq!(neighbors.len(), 3);
        assert_matches(&csr, &g);
        assert_eq!(csr.generation(), 7);
    }

    #[test]
    fn replayed_strips_are_noops() {
        let g = generators::cycle(5);
        let mut csr = IncrementalCsr::new(&g);
        // Strip an edge of a node that is gone — the plan-replay situation.
        let eff = csr.apply(&TopologyDelta::EdgeRemoved {
            a: n(77),
            b: n(0),
            color: Some(CloudColor::new(1)),
        });
        assert_eq!(eff, DeltaEffect::Noop);
        // Strip a color the edge does not carry.
        let eff = csr.apply(&TopologyDelta::EdgeRemoved {
            a: n(0),
            b: n(1),
            color: Some(CloudColor::new(9)),
        });
        assert_eq!(eff, DeltaEffect::Noop);
        assert_eq!(csr.generation(), 2, "no-ops still stamp the generation");
    }

    #[test]
    fn growth_relocates_and_churn_compacts() {
        let mut g = Graph::new();
        g.add_node(n(0)).unwrap();
        let mut csr = IncrementalCsr::new(&g);
        // Grow node 0's block far past any initial capacity.
        for i in 1..40 {
            g.add_node(n(i)).unwrap();
            csr.apply(&TopologyDelta::NodeAdded(n(i)));
            g.add_black_edge(n(0), n(i)).unwrap();
            csr.apply(&TopologyDelta::EdgeAdded {
                a: n(0),
                b: n(i),
                color: None,
            });
        }
        assert_matches(&csr, &g);
        // Delete most of the spokes: tombstones accumulate, compaction fires.
        for i in 1..35 {
            g.remove_node(n(i)).unwrap();
            csr.apply(&TopologyDelta::NodeRemoved(n(i)));
        }
        assert!(csr.compactions() > 0, "churn must trigger compaction");
        assert!(
            csr.tombstones() <= csr.edge_count() * 2 + COMPACT_MIN,
            "tombstones stay bounded: {}",
            csr.tombstones()
        );
        assert_matches(&csr, &g);
    }

    #[test]
    fn dropped_edges_recycle_their_label_records() {
        use rand::{rngs::StdRng, Rng};
        let mut rng = StdRng::seed_from_u64(3);
        let mut g = generators::cycle(8);
        let mut csr = IncrementalCsr::new(&g);
        let mut peak = csr.edge_count();
        let mut created = 0usize;
        let mut next = 100u64;
        for step in 0..3000 {
            let nodes = g.node_vec();
            let a = nodes[rng.random_range(0..nodes.len())];
            let b = nodes[rng.random_range(0..nodes.len())];
            if step % 50 == 49 {
                // Node churn frees every incident record at once.
                g.remove_node(a).unwrap();
                csr.apply(&TopologyDelta::NodeRemoved(a));
                let v = n(next);
                next += 1;
                g.add_node(v).unwrap();
                csr.apply(&TopologyDelta::NodeAdded(v));
            } else if a != b && g.has_edge(a, b) {
                // Strip every label this churn uses: the edge drops.
                for color in [None, Some(CloudColor::new(0)), Some(CloudColor::new(1))] {
                    match color {
                        None => g.strip_black(a, b),
                        Some(c) => g.strip_color(a, b, c),
                    };
                    csr.apply(&TopologyDelta::EdgeRemoved { a, b, color });
                }
            } else if a != b {
                let c = CloudColor::new(rng.random_range(0..2));
                g.add_colored_edge(a, b, c).unwrap();
                csr.apply(&TopologyDelta::EdgeAdded {
                    a,
                    b,
                    color: Some(c),
                });
                created += 1;
            }
            peak = peak.max(csr.edge_count());
            if step % 100 == 0 {
                assert_matches(&csr, &g);
            }
        }
        assert_matches(&csr, &g);
        assert!(created > 500, "churn must create many edges: {created}");
        assert!(
            csr.labels.len() <= peak,
            "{} records for a peak of {peak} live edges after {created} creations",
            csr.labels.len()
        );
    }

    #[test]
    fn snapshot_equals_fresh_csr_under_mixed_churn() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut g = generators::connected_erdos_renyi(24, 0.2, &mut rng);
        let mut csr = IncrementalCsr::new(&g);
        let mut next = 1000u64;
        for step in 0..300 {
            let nodes = g.node_vec();
            match rng.random_range(0..4u32) {
                0 => {
                    let v = n(next);
                    next += 1;
                    g.add_node(v).unwrap();
                    csr.apply(&TopologyDelta::NodeAdded(v));
                    let u = nodes[rng.random_range(0..nodes.len())];
                    g.add_black_edge(v, u).unwrap();
                    csr.apply(&TopologyDelta::EdgeAdded {
                        a: v,
                        b: u,
                        color: None,
                    });
                }
                1 if nodes.len() > 4 => {
                    let v = nodes[rng.random_range(0..nodes.len())];
                    g.remove_node(v).unwrap();
                    csr.apply(&TopologyDelta::NodeRemoved(v));
                }
                2 => {
                    let a = nodes[rng.random_range(0..nodes.len())];
                    let b = nodes[rng.random_range(0..nodes.len())];
                    if a != b {
                        let c = CloudColor::new(rng.random_range(0..6));
                        g.add_colored_edge(a, b, c).unwrap();
                        csr.apply(&TopologyDelta::EdgeAdded {
                            a,
                            b,
                            color: Some(c),
                        });
                    }
                }
                _ => {
                    let a = nodes[rng.random_range(0..nodes.len())];
                    let b = nodes[rng.random_range(0..nodes.len())];
                    if a != b {
                        let c = CloudColor::new(rng.random_range(0..6));
                        g.strip_color(a, b, c);
                        csr.apply(&TopologyDelta::EdgeRemoved {
                            a,
                            b,
                            color: Some(c),
                        });
                    }
                }
            }
            if step % 10 == 0 {
                assert_matches(&csr, &g);
            }
        }
        assert_matches(&csr, &g);
    }

    use rand::SeedableRng;

    #[test]
    fn batch_bracket_is_bit_identical_to_per_delta_apply() {
        use rand::{rngs::StdRng, Rng};
        let mut rng = StdRng::seed_from_u64(42);
        let g0 = generators::connected_erdos_renyi(20, 0.2, &mut rng);
        let mut plain = IncrementalCsr::new(&g0);
        let mut batched = IncrementalCsr::new(&g0);
        let mut g = g0.clone();
        for round in 0..40 {
            // Build one flush-sized batch of edge deltas, like a plan flush.
            let nodes = g.node_vec();
            let mut deltas = Vec::new();
            for k in 0..rng.random_range(1..12usize) {
                let a = nodes[rng.random_range(0..nodes.len())];
                let b = nodes[rng.random_range(0..nodes.len())];
                if a == b {
                    continue;
                }
                let c = CloudColor::new(rng.random_range(0..5));
                if (round + k) % 3 == 0 {
                    g.strip_color(a, b, c);
                    deltas.push(TopologyDelta::EdgeRemoved {
                        a,
                        b,
                        color: Some(c),
                    });
                } else {
                    g.add_colored_edge(a, b, c).unwrap();
                    deltas.push(TopologyDelta::EdgeAdded {
                        a,
                        b,
                        color: Some(c),
                    });
                }
            }
            let plain_effects: Vec<DeltaEffect> = deltas.iter().map(|d| plain.apply(d)).collect();
            batched.begin_batch(&deltas);
            let batch_effects: Vec<DeltaEffect> = deltas.iter().map(|d| batched.apply(d)).collect();
            batched.end_batch();
            assert_eq!(plain_effects, batch_effects, "round {round}");
            assert_eq!(plain.generation(), batched.generation());
            plain.validate().unwrap();
            batched.validate().unwrap();
            assert_matches(&batched, &g);
        }
        let a = plain.snapshot();
        let b = batched.snapshot();
        assert_eq!(a.nodes(), b.nodes());
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.neighbors_flat(), b.neighbors_flat());
    }

    #[test]
    fn batch_pre_pass_relocates_each_block_at_most_once() {
        // Grow one node's block by 33 spokes in a single flush: the
        // per-delta path relocates it on every capacity doubling, the
        // batched path exactly once (one tombstoned region).
        let mut g = Graph::new();
        let n_spokes = 33u64;
        g.add_node(n(0)).unwrap();
        for i in 1..=n_spokes {
            g.add_node(n(i)).unwrap();
        }
        let mut plain = IncrementalCsr::new(&g);
        let mut batched = plain.clone();
        let deltas: Vec<TopologyDelta> = (1..=n_spokes)
            .map(|i| TopologyDelta::EdgeAdded {
                a: n(0),
                b: n(i),
                color: None,
            })
            .collect();
        for d in &deltas {
            plain.apply(d);
        }
        batched.begin_batch(&deltas);
        for d in &deltas {
            batched.apply(d);
        }
        batched.end_batch();
        assert_eq!(
            batched.tombstones(),
            0,
            "one up-front relocation of an empty block leaves no tombstones"
        );
        assert!(
            plain.tombstones() > 0 || plain.compactions() > 0,
            "per-delta doubling must have relocated at least once"
        );
        // Same logical content regardless of layout.
        let a = plain.snapshot();
        let b = batched.snapshot();
        assert_eq!(a.offsets(), b.offsets());
        assert_eq!(a.neighbors_flat(), b.neighbors_flat());
        batched.validate().unwrap();
    }
}
