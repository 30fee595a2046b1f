//! The dynamic labeled graph at the heart of the reproduction.
//!
//! An undirected *simple* graph (no self-loops, no multi-edges — the paper is
//! explicit that Xheal never creates multi-edges) whose edges carry an
//! [`EdgeLabels`] set.
//!
//! # Representation
//!
//! Nodes live in a **slot arena**: an interner maps each [`NodeId`] to a
//! `u32` slot (O(1) hash lookup on the hot path), each slot holds a sorted
//! neighbor list `Vec<Nbr>` plus a maintained black-degree counter, and slots
//! of deleted nodes are recycled through a free list so heavy churn never
//! grows the arena beyond the peak population. A side `BTreeSet` keeps the
//! deterministic ascending-`NodeId` iteration order the seeded experiments
//! replay against — [`Graph::nodes`] and [`Graph::edges`] enumerate in
//! exactly the order the seed `BTreeMap` representation did (preserved
//! verbatim as [`crate::baseline::BaselineGraph`] and proven equivalent by
//! the model-based suite in `tests/model.rs`).
//!
//! Algorithms that sweep whole neighborhoods (BFS, Laplacians, cut
//! enumeration) should grab a [`Graph::csr_view`] snapshot once and work in
//! dense `0..n` coordinates instead of re-deriving a node index per call.

use std::collections::BTreeSet;
use std::error::Error;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::{CloudColor, EdgeLabels, NodeId};

/// Errors returned by fallible [`Graph`] operations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GraphError {
    /// The node was already present.
    NodeExists(NodeId),
    /// The node is not present.
    NodeMissing(NodeId),
    /// The edge endpoints are equal.
    SelfLoop(NodeId),
    /// The edge is not present.
    EdgeMissing(NodeId, NodeId),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeExists(v) => write!(f, "node {v} already exists"),
            GraphError::NodeMissing(v) => write!(f, "node {v} does not exist"),
            GraphError::SelfLoop(v) => write!(f, "self-loop at {v} rejected"),
            GraphError::EdgeMissing(u, v) => write!(f, "edge ({u},{v}) does not exist"),
        }
    }
}

impl Error for GraphError {}

/// A fast multiplicative hasher (FxHash-style) for the `NodeId → slot`
/// interner. `NodeId` feeds a single `u64`; SipHash's DoS resistance buys
/// nothing here and costs ~3× per lookup on the churn hot path.
#[derive(Clone, Copy, Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

const FX_SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

impl Hasher for FxHasher {
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.hash = (self.hash.rotate_left(5) ^ b as u64).wrapping_mul(FX_SEED);
        }
    }

    #[inline]
    fn write_u64(&mut self, n: u64) {
        self.hash = (self.hash.rotate_left(5) ^ n).wrapping_mul(FX_SEED);
    }

    #[inline]
    fn write_usize(&mut self, n: usize) {
        self.write_u64(n as u64);
    }
}

/// `HashMap` wired to [`FxHasher`] — the workspace's hot-path map for keys
/// that are small integers (node ids, colors). Iteration order is
/// unspecified: never iterate one of these into RNG consumption or output;
/// canonicalize through a sorted structure first.
pub type FxHashMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Ids below this bound are interned through a direct-indexed table.
///
/// Node ids are allocated sequentially (generators number `0..n`,
/// [`crate::IdAllocator`] counts upward), so in practice every id is small
/// and dense; the table costs 4 bytes per id ever seen and turns the
/// hot-path id→slot lookup into one array read — sequential for the sorted
/// bulk edge deltas the healer applies. Arbitrary large ids still work
/// through the spill map. The limit caps the dense table at 64 MiB
/// (16M ids × 4 bytes) — roomy enough that the 8M-node memory-wall
/// benchmark rows stay entirely on the one-array-read path, small enough
/// that a single pathological id cannot balloon the interner.
const DENSE_ID_LIMIT: u64 = 1 << 24;

const ABSENT: u32 = u32::MAX;

/// The `NodeId → slot` interner: direct-indexed for dense ids, hashed spill
/// for pathological ones.
#[derive(Clone, Debug, Default)]
struct SlotIndex {
    dense: Vec<u32>,
    spill: FxHashMap<NodeId, u32>,
    len: usize,
}

impl SlotIndex {
    #[inline]
    fn get(&self, v: NodeId) -> Option<u32> {
        let id = v.as_u64();
        if id < DENSE_ID_LIMIT {
            match self.dense.get(id as usize) {
                Some(&s) if s != ABSENT => Some(s),
                _ => None,
            }
        } else {
            self.spill.get(&v).copied()
        }
    }

    #[inline]
    fn contains(&self, v: NodeId) -> bool {
        self.get(v).is_some()
    }

    fn insert(&mut self, v: NodeId, slot: u32) {
        let id = v.as_u64();
        if id < DENSE_ID_LIMIT {
            let i = id as usize;
            if i >= self.dense.len() {
                let new_len = (i + 1).next_power_of_two().max(64);
                self.dense.resize(new_len, ABSENT);
            }
            debug_assert_eq!(self.dense[i], ABSENT);
            self.dense[i] = slot;
        } else {
            self.spill.insert(v, slot);
        }
        self.len += 1;
    }

    fn remove(&mut self, v: NodeId) -> Option<u32> {
        let id = v.as_u64();
        let out = if id < DENSE_ID_LIMIT {
            match self.dense.get_mut(id as usize) {
                Some(s) if *s != ABSENT => Some(std::mem::replace(s, ABSENT)),
                _ => None,
            }
        } else {
            self.spill.remove(&v)
        };
        if out.is_some() {
            self.len -= 1;
        }
        out
    }

    fn len(&self) -> usize {
        self.len
    }
}

/// One directed half of an undirected edge, stored in the owner's sorted
/// neighbor list. `slot` caches the neighbor's arena slot so mirror updates
/// never re-hash.
#[derive(Clone, Debug)]
struct Nbr {
    id: NodeId,
    slot: u32,
    labels: EdgeLabels,
}

impl Default for Nbr {
    fn default() -> Self {
        Nbr {
            id: NodeId::new(0),
            slot: ABSENT,
            labels: EdgeLabels::empty(),
        }
    }
}

/// Neighbors stored directly in the slot record before spilling to the heap.
///
/// κ-regular-ish expanders keep most degrees near κ, and the single-edge hot
/// path's dominant cost is the dependent-miss chain `slot → Vec buffer`; four
/// inline entries let low-degree lookups resolve inside the slot record with
/// no pointer chase.
const NBR_INLINE: usize = 4;

/// Sorted neighbor storage with an inline-first layout: the first
/// [`NBR_INLINE`] entries live in the slot record itself (`head`), the rest
/// spill to a heap `Vec` (`tail`).
///
/// Invariants: the logical list `head[..head_len] ++ tail` is sorted strictly
/// ascending by neighbor id, and `tail` is non-empty only while the head is
/// full. Unused head entries are reset to `Nbr::default()` so they hold no
/// stray label allocations.
#[derive(Clone, Debug, Default)]
struct NbrList {
    head_len: u8,
    head: [Nbr; NBR_INLINE],
    tail: Vec<Nbr>,
}

impl NbrList {
    #[inline]
    fn len(&self) -> usize {
        self.head_len as usize + self.tail.len()
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.head_len == 0
    }

    #[inline]
    fn get(&self, i: usize) -> &Nbr {
        if i < NBR_INLINE {
            &self.head[i]
        } else {
            &self.tail[i - NBR_INLINE]
        }
    }

    #[inline]
    fn get_mut(&mut self, i: usize) -> &mut Nbr {
        if i < NBR_INLINE {
            &mut self.head[i]
        } else {
            &mut self.tail[i - NBR_INLINE]
        }
    }

    /// Iterates the logical sorted list.
    fn iter(&self) -> impl Iterator<Item = &Nbr> + '_ {
        self.head[..self.head_len as usize]
            .iter()
            .chain(self.tail.iter())
    }

    /// Binary search for neighbor `v`, mirroring `slice::binary_search`
    /// semantics over the logical list. The head is probed first — for
    /// degrees ≤ [`NBR_INLINE`] the search never leaves the slot record.
    #[inline]
    fn search(&self, v: NodeId) -> Result<usize, usize> {
        let hl = self.head_len as usize;
        let head = &self.head[..hl];
        if hl < NBR_INLINE || v <= head[hl - 1].id {
            head.binary_search_by(|n| n.id.cmp(&v))
        } else {
            match self.tail.binary_search_by(|n| n.id.cmp(&v)) {
                Ok(p) => Ok(NBR_INLINE + p),
                Err(p) => Err(NBR_INLINE + p),
            }
        }
    }

    /// Inserts `nbr` at logical position `pos` (from a failed [`search`]).
    fn insert(&mut self, pos: usize, nbr: Nbr) {
        let hl = self.head_len as usize;
        if hl < NBR_INLINE {
            debug_assert!(self.tail.is_empty() && pos <= hl);
            self.head[pos..=hl].rotate_right(1);
            self.head[pos] = nbr;
            self.head_len += 1;
        } else if pos >= NBR_INLINE {
            self.tail.insert(pos - NBR_INLINE, nbr);
        } else {
            // Head is full: evict its last entry into the tail front.
            let evicted = std::mem::take(&mut self.head[NBR_INLINE - 1]);
            self.head[pos..NBR_INLINE].rotate_right(1);
            self.head[pos] = nbr;
            self.tail.insert(0, evicted);
        }
    }

    /// Removes and returns the entry at logical position `pos`.
    fn remove(&mut self, pos: usize) -> Nbr {
        let hl = self.head_len as usize;
        if pos < NBR_INLINE {
            debug_assert!(pos < hl);
            self.head[pos..hl].rotate_left(1);
            if self.tail.is_empty() {
                self.head_len -= 1;
                std::mem::take(&mut self.head[hl - 1])
            } else {
                // Refill the freed head slot from the tail front.
                let refill = self.tail.remove(0);
                std::mem::replace(&mut self.head[NBR_INLINE - 1], refill)
            }
        } else {
            self.tail.remove(pos - NBR_INLINE)
        }
    }

    /// Empties the list in order through `f`, keeping the tail's capacity
    /// warm for reuse by a recycled slot.
    fn drain_for_each(&mut self, mut f: impl FnMut(Nbr)) {
        for i in 0..self.head_len as usize {
            f(std::mem::take(&mut self.head[i]));
        }
        self.head_len = 0;
        for nbr in self.tail.drain(..) {
            f(nbr);
        }
    }

    /// Replaces the contents with the (sorted) entries drained from
    /// `entries`, reusing the tail's existing capacity.
    fn assign(&mut self, entries: &mut Vec<Nbr>) {
        let old_hl = self.head_len as usize;
        self.tail.clear();
        let hl = entries.len().min(NBR_INLINE);
        let mut it = entries.drain(..);
        for slot in &mut self.head[..hl] {
            *slot = it.next().expect("drain yields hl entries");
        }
        self.tail.extend(it);
        self.head_len = hl as u8;
        if old_hl > hl {
            for slot in &mut self.head[hl..old_hl] {
                *slot = Nbr::default();
            }
        }
        debug_assert!(self.tail.is_empty() || self.head_len as usize == NBR_INLINE);
    }

    /// Issues a best-effort software prefetch of the spilled tail buffer.
    #[inline]
    fn prefetch_tail(&self) {
        if !self.tail.is_empty() {
            prefetch_read(self.tail.as_ptr());
        }
    }
}

/// Best-effort software prefetch of the cache line at `p` into all levels.
///
/// On x86_64 this lowers to `prefetcht0`; elsewhere it is a plain hint-free
/// no-op. Prefetching is advisory — it never faults and never changes
/// observable state — which is why this is the crate's single sanctioned
/// `unsafe` block (`_mm_prefetch` is an `unsafe fn` purely because it takes a
/// raw pointer; it performs no memory access in the abstract-machine sense).
#[inline]
#[allow(unsafe_code)]
fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch instructions are hints; any address, valid or not, is
    // architecturally safe to prefetch and no Rust memory access occurs.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p.cast::<i8>());
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        let _ = p;
    }
}

/// Prefetches every cache line of a slot record (the inline neighbor head
/// spans several lines). Pure address arithmetic — the slot's memory is not
/// read, so this is safe to issue far ahead on still-cold records.
#[inline]
fn prefetch_slot_lines(slot: &Slot) {
    let p = (slot as *const Slot).cast::<u8>();
    let mut off = 0;
    while off < std::mem::size_of::<Slot>() {
        prefetch_read(p.wrapping_add(off));
        off += 64;
    }
}

/// Byte threshold above which a buffer is worth backing with transparent
/// huge pages: well past any L2, where 4 KiB TLB reach becomes the limiting
/// factor for random access.
const HUGE_ADVISE_BYTES: usize = 1 << 25; // 32 MiB

/// Advises the kernel to back `capacity` elements at `buf` with
/// transparent huge pages (`madvise(MADV_HUGEPAGE)`).
///
/// At arena scale (hundreds of MB) a random slot probe misses the TLB on
/// essentially every access under 4 KiB pages, and x86 cores drop software
/// prefetches whose address translation misses — so the prefetch pipeline
/// in [`Graph::apply_delta`] only covers DRAM latency once the arena sits
/// on 2 MiB pages. Must be issued while the buffer is still *untouched*
/// (a fresh `with_capacity` allocation): THP in its default `madvise` mode
/// materializes huge pages at first fault, and upgrades already-faulted
/// 4 KiB pages only at khugepaged's leisure.
///
/// Purely advisory — on non-Linux targets, kernels with THP disabled, or
/// buffers below [`HUGE_ADVISE_BYTES`] this is a no-op and any syscall
/// failure is ignored. Issued as a raw syscall because the offline
/// workspace carries no libc binding.
#[allow(unsafe_code)]
fn advise_huge_pages<T>(buf: *const T, capacity: usize) {
    let len = capacity.saturating_mul(std::mem::size_of::<T>());
    if len < HUGE_ADVISE_BYTES {
        return;
    }
    #[cfg(all(target_os = "linux", target_arch = "x86_64"))]
    // SAFETY: madvise never alters memory contents or mapping validity, and
    // the asm block clobbers exactly the registers the syscall ABI names
    // (rax return, rcx/r11 scratched by `syscall`).
    unsafe {
        const SYS_MADVISE: u64 = 28;
        const MADV_HUGEPAGE: u64 = 14;
        const PAGE: usize = 4096;
        // madvise wants page-aligned bounds; shrink inward to them.
        let start = (buf as usize).next_multiple_of(PAGE);
        let end = (buf as usize + len) & !(PAGE - 1);
        if end <= start {
            return;
        }
        let _ret: i64;
        std::arch::asm!(
            "syscall",
            inlateout("rax") SYS_MADVISE as i64 => _ret,
            in("rdi") start,
            in("rsi") end - start,
            in("rdx") MADV_HUGEPAGE,
            lateout("rcx") _,
            lateout("r11") _,
            options(nostack)
        );
    }
    #[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
    {
        let _ = buf;
    }
}

/// Arena slot: a (possibly recycled) node record.
#[derive(Clone, Debug, Default)]
struct Slot {
    node: NodeId,
    live: bool,
    black_degree: u32,
    /// Sorted ascending by neighbor `NodeId`; first entries inline.
    nbrs: NbrList,
}

/// An undirected simple graph with labeled edges and deterministic iteration,
/// backed by a slot arena (see the module docs for the layout).
///
/// # Examples
///
/// ```
/// use xheal_graph::{Graph, NodeId};
/// let mut g = Graph::new();
/// let a = NodeId::new(0);
/// let b = NodeId::new(1);
/// g.add_node(a)?;
/// g.add_node(b)?;
/// g.add_black_edge(a, b)?;
/// assert_eq!(g.degree(a), Some(1));
/// assert!(g.has_edge(a, b));
/// # Ok::<(), xheal_graph::GraphError>(())
/// ```
#[derive(Debug, Default)]
pub struct Graph {
    /// `NodeId → slot`: the O(1) hot-path lookup.
    index: SlotIndex,
    /// Live node ids in ascending order: the deterministic iteration spine.
    ordered: BTreeSet<NodeId>,
    /// The slot arena; `free` lists recyclable entries.
    slots: Vec<Slot>,
    free: Vec<u32>,
    edge_count: usize,
}

impl Clone for Graph {
    /// Deep copy that re-requests huge-page backing for the fresh arena
    /// and dense-index buffers *before* populating them — a derived clone
    /// would first-touch every page with 4 KiB faults, and THP's
    /// `madvise` mode never upgrades those retroactively in time to
    /// matter. Benchmarks clone a prototype graph per trial, so this is
    /// where arena paging for the measured copy is actually decided.
    fn clone(&self) -> Self {
        let mut slots: Vec<Slot> = Vec::with_capacity(self.slots.len());
        advise_huge_pages(slots.as_ptr(), slots.capacity());
        slots.extend(self.slots.iter().cloned());
        let mut dense: Vec<u32> = Vec::with_capacity(self.index.dense.len());
        advise_huge_pages(dense.as_ptr(), dense.capacity());
        dense.extend_from_slice(&self.index.dense);
        Graph {
            index: SlotIndex {
                dense,
                spill: self.index.spill.clone(),
                len: self.index.len,
            },
            ordered: self.ordered.clone(),
            slots,
            free: self.free.clone(),
            edge_count: self.edge_count,
        }
    }
}

/// One step of the order-sensitive edge-fingerprint fold.
fn fold_hash(h: u64, x: u64) -> u64 {
    (h.rotate_left(5) ^ x).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95)
}

/// Order-sensitive fold hash over an `edges()`-style enumeration. Shared by
/// [`Graph::edge_fingerprint`] and the seed representation's equivalent so
/// the two backends produce comparable witnesses.
pub(crate) fn fingerprint_edges<'a, I>(edges: I) -> u64
where
    I: Iterator<Item = (NodeId, NodeId, &'a EdgeLabels)>,
{
    let mut h = 0u64;
    for (u, v, l) in edges {
        h = fold_hash(h, u.as_u64());
        h = fold_hash(h, v.as_u64());
        h = fold_hash(h, u64::from(l.is_black()));
        for c in l.colors() {
            h = fold_hash(h, c.as_u64());
        }
    }
    h
}

impl PartialEq for Graph {
    /// Semantic equality: same node set, same edges, same labels. Arena
    /// layout (slot numbers, free-list history) is intentionally ignored so
    /// two graphs built through different churn histories compare equal.
    fn eq(&self, other: &Self) -> bool {
        if self.ordered != other.ordered || self.edge_count != other.edge_count {
            return false;
        }
        self.ordered.iter().all(|&v| {
            let a = &self.slots[self.index.get(v).expect("ordered node interned") as usize];
            let b = &other.slots[other.index.get(v).expect("ordered node interned") as usize];
            a.nbrs.len() == b.nbrs.len()
                && a.nbrs
                    .iter()
                    .zip(b.nbrs.iter())
                    .all(|(x, y)| x.id == y.id && x.labels == y.labels)
        })
    }
}

impl Eq for Graph {}

impl Graph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Graph::default()
    }

    /// Creates an empty graph pre-sized for `n` sequentially numbered
    /// nodes: the slot arena and the dense id→slot table are reserved up
    /// front and, at arena scale, advised toward transparent huge pages
    /// (via `madvise(MADV_HUGEPAGE)` — the request only helps if it precedes
    /// first touch). Generators and bulk loaders should start here; graphs
    /// built incrementally from [`Graph::new`] behave identically but may
    /// leave a large arena on 4 KiB pages.
    #[must_use]
    pub fn with_node_capacity(n: usize) -> Self {
        let mut g = Graph::default();
        g.slots.reserve_exact(n);
        advise_huge_pages(g.slots.as_ptr(), g.slots.capacity());
        // Mirror `SlotIndex::insert`'s growth schedule so population never
        // reallocates away from the advised buffer.
        let dense_len = n.next_power_of_two().max(64).min(DENSE_ID_LIMIT as usize);
        g.index.dense.reserve_exact(dense_len);
        advise_huge_pages(g.index.dense.as_ptr(), g.index.dense.capacity());
        g
    }

    #[inline]
    fn slot(&self, v: NodeId) -> Option<&Slot> {
        self.index.get(v).map(|s| &self.slots[s as usize])
    }

    #[inline]
    fn find_nbr(slot: &Slot, v: NodeId) -> Result<usize, usize> {
        slot.nbrs.search(v)
    }

    /// Number of nodes currently present.
    pub fn node_count(&self) -> usize {
        self.ordered.len()
    }

    /// Number of (undirected) edges currently present.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// Is the node present?
    pub fn contains_node(&self, v: NodeId) -> bool {
        self.index.contains(v)
    }

    /// The arena slot of `v`, if present.
    ///
    /// Slots are stable while the node lives and may be recycled after its
    /// removal; they index the dense structures handed out by
    /// [`Graph::csr_view`] builders and [`Graph::slot_capacity`]-sized
    /// scratch bitmaps.
    pub fn slot_of(&self, v: NodeId) -> Option<u32> {
        self.index.get(v)
    }

    /// Upper bound (exclusive) on every slot value currently in use — the
    /// arena length. Size scratch bitmaps with this.
    pub fn slot_capacity(&self) -> usize {
        self.slots.len()
    }

    /// Is the edge present (with any label)?
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.slot(u).is_some_and(|s| Self::find_nbr(s, v).is_ok())
    }

    /// The labels on edge `(u, v)`, if it exists.
    pub fn edge_labels(&self, u: NodeId, v: NodeId) -> Option<&EdgeLabels> {
        let s = self.slot(u)?;
        Self::find_nbr(s, v).ok().map(|i| &s.nbrs.get(i).labels)
    }

    /// Iterator over all node ids, ascending.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.ordered.iter().copied()
    }

    /// Sorted vector of all node ids.
    pub fn node_vec(&self) -> Vec<NodeId> {
        self.ordered.iter().copied().collect()
    }

    /// Iterator over all undirected edges as `(u, v, labels)` with `u < v`,
    /// ascending lexicographically — identical order to the seed
    /// representation.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, NodeId, &EdgeLabels)> + '_ {
        self.ordered.iter().flat_map(move |&u| {
            let s = &self.slots[self.index.get(u).expect("ordered node interned") as usize];
            s.nbrs
                .iter()
                .filter(move |n| u < n.id)
                .map(move |n| (u, n.id, &n.labels))
        })
    }

    /// Order-sensitive hash over the full [`Graph::edges`] enumeration
    /// (endpoints, black flag, cloud colors): equal fingerprints mean
    /// identical topology *and* identical iteration order. This is the
    /// determinism witness used by the bench harness and the golden
    /// decision pin — the seed representation computes the same value over
    /// the same enumeration order.
    pub fn edge_fingerprint(&self) -> u64 {
        fingerprint_edges(self.edges())
    }

    /// Degree of `v` (number of incident edges of any label), if present.
    pub fn degree(&self, v: NodeId) -> Option<usize> {
        self.slot(v).map(|s| s.nbrs.len())
    }

    /// Number of incident *black* edges of `v`, if present.
    ///
    /// Maintained as a per-slot counter — O(1), never a label scan.
    pub fn black_degree(&self, v: NodeId) -> Option<usize> {
        self.slot(v).map(|s| s.black_degree as usize)
    }

    /// Iterator over neighbors of `v` (empty if `v` absent), ascending.
    pub fn neighbors(&self, v: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.slot(v)
            .into_iter()
            .flat_map(|s| s.nbrs.iter().map(|n| n.id))
    }

    /// Neighbors of `v` together with edge labels.
    pub fn neighbors_labeled(&self, v: NodeId) -> impl Iterator<Item = (NodeId, &EdgeLabels)> + '_ {
        self.slot(v)
            .into_iter()
            .flat_map(|s| s.nbrs.iter().map(|n| (n.id, &n.labels)))
    }

    /// Neighbors of `v` connected by a black edge.
    pub fn black_neighbors(&self, v: NodeId) -> Vec<NodeId> {
        self.neighbors_labeled(v)
            .filter(|(_, l)| l.is_black())
            .map(|(u, _)| u)
            .collect()
    }

    /// Neighbors of `v` connected by an edge carrying `color`.
    pub fn colored_neighbors(&self, v: NodeId, color: CloudColor) -> Vec<NodeId> {
        self.neighbors_labeled(v)
            .filter(|(_, l)| l.has_color(color))
            .map(|(u, _)| u)
            .collect()
    }

    /// Sum of degrees over a node set (the paper's `vol(S)`).
    ///
    /// Nodes absent from the graph contribute zero.
    pub fn volume<I: IntoIterator<Item = NodeId>>(&self, nodes: I) -> usize {
        nodes.into_iter().filter_map(|v| self.degree(v)).sum()
    }

    /// Adds an isolated node.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeExists`] if `v` is already present.
    pub fn add_node(&mut self, v: NodeId) -> Result<(), GraphError> {
        if self.index.contains(v) {
            return Err(GraphError::NodeExists(v));
        }
        let slot = match self.free.pop() {
            Some(s) => {
                let sl = &mut self.slots[s as usize];
                debug_assert!(!sl.live && sl.nbrs.is_empty());
                sl.node = v;
                sl.live = true;
                s
            }
            None => {
                let s = u32::try_from(self.slots.len()).expect("arena fits in u32");
                self.slots.push(Slot {
                    node: v,
                    live: true,
                    black_degree: 0,
                    nbrs: NbrList::default(),
                });
                s
            }
        };
        self.index.insert(v, slot);
        self.ordered.insert(v);
        Ok(())
    }

    /// Removes `v` and all incident edges, returning `(neighbor, labels)` for
    /// each incident edge (ascending by neighbor).
    ///
    /// This is exactly the information the healing algorithm needs when the
    /// adversary deletes a node: which neighbors were black, and which cloud
    /// colors lost an edge.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeMissing`] if `v` is not present.
    pub fn remove_node(&mut self, v: NodeId) -> Result<Vec<(NodeId, EdgeLabels)>, GraphError> {
        let mut out = Vec::new();
        self.remove_node_into(v, &mut out)?;
        Ok(out)
    }

    /// Allocation-free variant of [`Graph::remove_node`]: appends the
    /// incident `(neighbor, labels)` pairs (ascending by neighbor) to `out`
    /// instead of returning a fresh vector, so executor hot loops can reuse
    /// one scratch buffer across deletions.
    ///
    /// `out` is *not* cleared first.
    ///
    /// # Errors
    ///
    /// [`GraphError::NodeMissing`] if `v` is not present (`out` untouched).
    pub fn remove_node_into(
        &mut self,
        v: NodeId,
        out: &mut Vec<(NodeId, EdgeLabels)>,
    ) -> Result<(), GraphError> {
        let Some(sv) = self.index.get(v) else {
            return Err(GraphError::NodeMissing(v));
        };
        let sv = sv as usize;
        let mut nbrs = std::mem::take(&mut self.slots[sv].nbrs);
        out.reserve(nbrs.len());
        let (slots, edge_count) = (&mut self.slots, &mut self.edge_count);
        nbrs.drain_for_each(|nbr| {
            let su = nbr.slot as usize;
            let pu = slots[su].nbrs.search(v).expect("mirror entry");
            slots[su].nbrs.remove(pu);
            if nbr.labels.is_black() {
                slots[su].black_degree -= 1;
            }
            *edge_count -= 1;
            out.push((nbr.id, nbr.labels));
        });
        let slot = &mut self.slots[sv];
        // Hand the (now empty) list back so a recycled slot reuses its
        // warmed capacity instead of reallocating from zero.
        slot.nbrs = nbrs;
        slot.live = false;
        slot.black_degree = 0;
        self.index.remove(v);
        self.ordered.remove(&v);
        self.free.push(sv as u32);
        Ok(())
    }

    fn check_endpoints(&self, u: NodeId, v: NodeId) -> Result<(u32, u32), GraphError> {
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let su = self.index.get(u).ok_or(GraphError::NodeMissing(u))?;
        let sv = self.index.get(v).ok_or(GraphError::NodeMissing(v))?;
        Ok((su, sv))
    }

    /// Inserts or updates the `(u → v)` half-edge. Returns `true` when the
    /// entry was newly created.
    fn upsert_half(&mut self, su: u32, sv: u32, v: NodeId, labels: &EdgeLabels) -> bool {
        let slot = &mut self.slots[su as usize];
        match Self::find_nbr(slot, v) {
            Ok(p) => {
                let l = &mut slot.nbrs.get_mut(p).labels;
                let was_black = l.is_black();
                l.merge(labels);
                if !was_black && l.is_black() {
                    slot.black_degree += 1;
                }
                false
            }
            Err(p) => {
                if labels.is_black() {
                    slot.black_degree += 1;
                }
                slot.nbrs.insert(
                    p,
                    Nbr {
                        id: v,
                        slot: sv,
                        labels: labels.clone(),
                    },
                );
                true
            }
        }
    }

    fn add_labeled_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        labels: EdgeLabels,
    ) -> Result<bool, GraphError> {
        let (su, sv) = self.check_endpoints(u, v)?;
        let created = self.upsert_half(su, sv, v, &labels);
        let mirrored = self.upsert_half(sv, su, u, &labels);
        debug_assert_eq!(created, mirrored, "adjacency must stay symmetric");
        if created {
            self.edge_count += 1;
        }
        Ok(created)
    }

    /// Adds the black label to edge `(u, v)`, creating the edge if needed.
    /// Returns `true` if a brand-new edge was created.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] / [`GraphError::NodeMissing`] on bad endpoints.
    pub fn add_black_edge(&mut self, u: NodeId, v: NodeId) -> Result<bool, GraphError> {
        self.add_labeled_edge(u, v, EdgeLabels::black())
    }

    /// Adds cloud color `color` to edge `(u, v)`, creating the edge if needed
    /// (the paper's "recoloring" of an existing edge never duplicates it).
    /// Returns `true` if a brand-new edge was created.
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] / [`GraphError::NodeMissing`] on bad endpoints.
    pub fn add_colored_edge(
        &mut self,
        u: NodeId,
        v: NodeId,
        color: CloudColor,
    ) -> Result<bool, GraphError> {
        self.add_labeled_edge(u, v, EdgeLabels::colored(color))
    }

    /// Applies `strip` to both halves of edge `(u, v)`; removes the edge
    /// entirely if no label remains. Returns `true` on full removal, `false`
    /// when labels remain or the edge/endpoint is absent.
    fn strip_with(&mut self, u: NodeId, v: NodeId, strip: impl Fn(&mut EdgeLabels)) -> bool {
        let Some(su) = self.index.get(u) else {
            return false;
        };
        let su = su as usize;
        let Ok(pu) = Self::find_nbr(&self.slots[su], v) else {
            return false;
        };
        let sv = self.slots[su].nbrs.get(pu).slot as usize;
        let entry = self.slots[su].nbrs.get_mut(pu);
        let was_black = entry.labels.is_black();
        strip(&mut entry.labels);
        let now_black = entry.labels.is_black();
        let empty = entry.labels.is_empty();
        if was_black && !now_black {
            self.slots[su].black_degree -= 1;
            self.slots[sv].black_degree -= 1;
        }
        let pv = Self::find_nbr(&self.slots[sv], u).expect("mirror entry");
        if empty {
            self.slots[su].nbrs.remove(pu);
            self.slots[sv].nbrs.remove(pv);
            self.edge_count -= 1;
        } else {
            strip(&mut self.slots[sv].nbrs.get_mut(pv).labels);
        }
        empty
    }

    /// Removes `color` from edge `(u, v)`; deletes the edge entirely if no
    /// label remains. Returns `true` if the edge was fully removed.
    ///
    /// Missing edges and missing colors are tolerated (returns `false`): cloud
    /// teardown may race with node deletions that already removed edges.
    pub fn strip_color(&mut self, u: NodeId, v: NodeId, color: CloudColor) -> bool {
        self.strip_with(u, v, |l| {
            l.remove_color(color);
        })
    }

    /// Removes the black label from edge `(u, v)`; deletes the edge entirely
    /// if no label remains. Returns `true` if the edge was fully removed.
    pub fn strip_black(&mut self, u: NodeId, v: NodeId) -> bool {
        self.strip_with(u, v, EdgeLabels::clear_black)
    }

    /// Removes the edge regardless of labels.
    ///
    /// # Errors
    ///
    /// [`GraphError::EdgeMissing`] if the edge is not present.
    pub fn remove_edge(&mut self, u: NodeId, v: NodeId) -> Result<EdgeLabels, GraphError> {
        let Some(su) = self.index.get(u) else {
            return Err(GraphError::EdgeMissing(u, v));
        };
        let su = su as usize;
        let Ok(pu) = Self::find_nbr(&self.slots[su], v) else {
            return Err(GraphError::EdgeMissing(u, v));
        };
        let nbr = self.slots[su].nbrs.remove(pu);
        let sv = nbr.slot as usize;
        let pv = Self::find_nbr(&self.slots[sv], u).expect("mirror entry");
        self.slots[sv].nbrs.remove(pv);
        if nbr.labels.is_black() {
            self.slots[su].black_degree -= 1;
            self.slots[sv].black_degree -= 1;
        }
        self.edge_count -= 1;
        Ok(nbr.labels)
    }

    /// Number of edges crossing the cut `(S, V - S)`.
    ///
    /// Uses an arena-slot bitmap: O(|S|·deg + capacity) with no tree or set
    /// allocations. Duplicate entries in `S` are tolerated (counted once);
    /// nodes absent from the graph are ignored.
    pub fn cut_size(&self, s: &[NodeId]) -> usize {
        let mut in_s = vec![false; self.slots.len()];
        let mut side: Vec<u32> = Vec::with_capacity(s.len());
        for &v in s {
            if let Some(sl) = self.index.get(v) {
                if !in_s[sl as usize] {
                    in_s[sl as usize] = true;
                    side.push(sl);
                }
            }
        }
        side.iter()
            .map(|&sl| {
                self.slots[sl as usize]
                    .nbrs
                    .iter()
                    .filter(|n| !in_s[n.slot as usize])
                    .count()
            })
            .sum()
    }

    /// Builds a dense CSR snapshot of the current topology: nodes in
    /// ascending-`NodeId` order re-numbered `0..n`, neighbor lists as dense
    /// indices. One O(n + m) pass — no per-neighbor searches — shared by the
    /// Laplacian operators, BFS, components, and cut enumeration.
    pub fn csr_view(&self) -> CsrView {
        let n = self.ordered.len();
        let mut nodes = Vec::with_capacity(n);
        let mut slot_to_dense = vec![u32::MAX; self.slots.len()];
        for (i, &v) in self.ordered.iter().enumerate() {
            nodes.push(v);
            slot_to_dense[self.index.get(v).expect("ordered node interned") as usize] = i as u32;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::with_capacity(2 * self.edge_count);
        offsets.push(0u32);
        for &v in &nodes {
            let s = &self.slots[self.index.get(v).expect("ordered node interned") as usize];
            neighbors.extend(s.nbrs.iter().map(|nb| slot_to_dense[nb.slot as usize]));
            offsets.push(neighbors.len() as u32);
        }
        CsrView {
            nodes,
            offsets,
            neighbors,
        }
    }

    /// Consistency check used by tests and debug assertions: adjacency is
    /// symmetric, labels mirror, neighbor lists sorted, no self-loops,
    /// maintained counters and the free list agree with reality.
    pub fn validate(&self) -> Result<(), String> {
        if self.index.len() != self.ordered.len() {
            return Err("index/ordered size mismatch".into());
        }
        let live = self.slots.iter().filter(|s| s.live).count();
        if live != self.ordered.len() {
            return Err(format!(
                "{live} live slots for {} nodes",
                self.ordered.len()
            ));
        }
        if self.free.len() + live != self.slots.len() {
            return Err("free list does not cover dead slots".into());
        }
        for &f in &self.free {
            let s = &self.slots[f as usize];
            if s.live || !s.nbrs.is_empty() {
                return Err(format!("free slot {f} still live or populated"));
            }
        }
        let mut count = 0usize;
        for &u in &self.ordered {
            let Some(su) = self.index.get(u) else {
                return Err(format!("ordered node {u} missing from index"));
            };
            let s = &self.slots[su as usize];
            if !s.live || s.node != u {
                return Err(format!("slot {su} does not back node {u}"));
            }
            if !s.nbrs.tail.is_empty() && (s.nbrs.head_len as usize) < NBR_INLINE {
                return Err(format!("spilled neighbor list with non-full head at {u}"));
            }
            let mut black = 0u32;
            let mut prev: Option<NodeId> = None;
            for nbr in s.nbrs.iter() {
                if prev.is_some_and(|p| p >= nbr.id) {
                    return Err(format!("unsorted neighbor list at {u}"));
                }
                prev = Some(nbr.id);
            }
            for nbr in s.nbrs.iter() {
                let v = nbr.id;
                if u == v {
                    return Err(format!("self-loop at {u}"));
                }
                if nbr.labels.is_empty() {
                    return Err(format!("empty labels on ({u},{v})"));
                }
                if nbr.labels.is_black() {
                    black += 1;
                }
                let ms = &self.slots[nbr.slot as usize];
                if !ms.live || ms.node != v {
                    return Err(format!("stale neighbor slot on ({u},{v})"));
                }
                let mirror = Self::find_nbr(ms, u)
                    .map(|i| ms.nbrs.get(i))
                    .map_err(|_| format!("asymmetric edge ({u},{v})"))?;
                if mirror.labels != nbr.labels {
                    return Err(format!("label mismatch on ({u},{v})"));
                }
                if u < v {
                    count += 1;
                }
            }
            if black != s.black_degree {
                return Err(format!(
                    "black degree counter {} != {} at {u}",
                    s.black_degree, black
                ));
            }
        }
        if count != self.edge_count {
            return Err(format!(
                "edge count {} does not match stored {}",
                count, self.edge_count
            ));
        }
        Ok(())
    }

    /// Applies a whole batch of edge-label mutations in one grouped pass —
    /// the memory-wall fast path for plan application.
    ///
    /// Semantically this is *exactly* the sequential loop
    ///
    /// ```text
    /// for op in ops {
    ///     match (op.add, op.color) {
    ///         (true,  Some(c)) => { graph.add_colored_edge(op.a, op.b, c); }
    ///         (true,  None)    => { graph.add_black_edge(op.a, op.b); }
    ///         (false, Some(c)) => { graph.strip_color(op.a, op.b, c); }
    ///         (false, None)    => { graph.strip_black(op.a, op.b); }
    ///     }
    /// }
    /// ```
    ///
    /// with all endpoint validation hoisted in front of the first mutation.
    /// Every mutation is split into its two half-edges up front, then the
    /// half-ops are applied through one of two regimes picked by arena size:
    ///
    /// - **Cache-resident arenas** (below [`SORTED_APPLY_MIN_SLOTS`] slots):
    ///   half-ops are applied as point edits in original sequence order.
    ///   With every slot a cache hit there is no memory latency to hide, so
    ///   grouping machinery (a sort, prefetch instructions) would be pure
    ///   overhead — measured as a 10–25 % regression at n ≤ 50k.
    /// - **DRAM-bound arenas**: half-ops are sorted by `(slot, neighbor,
    ///   sequence)` and each touched neighbor list is walked once — point
    ///   edits for small groups, a single merge rewrite for list-sized
    ///   ones — under a paced two-stage software-prefetch pipeline that
    ///   keeps many slot misses in flight.
    ///
    /// Both regimes apply per-pair op runs in original sequence order, so
    /// interleavings like add-then-strip of the same color are bit-identical
    /// to the loop above (and to each other — see the equivalence tests).
    ///
    /// Like the sequential loop, strips tolerate absent endpoints and absent
    /// labels (the no-op cases of [`Graph::strip_color`]).
    ///
    /// # Errors
    ///
    /// [`GraphError::SelfLoop`] if an *add* names equal endpoints, or
    /// [`GraphError::NodeMissing`] if an add names an absent endpoint — in
    /// both cases detected up front, before any mutation is applied.
    ///
    /// # Examples
    ///
    /// ```
    /// use xheal_graph::{DeltaScratch, EdgeMutation, Graph, NodeId};
    /// let mut g = Graph::new();
    /// let (a, b) = (NodeId::new(0), NodeId::new(1));
    /// g.add_node(a)?;
    /// g.add_node(b)?;
    /// let mut scratch = DeltaScratch::default();
    /// g.apply_delta(&[EdgeMutation::add_black(a, b)], &mut scratch)?;
    /// assert!(g.has_edge(a, b));
    /// # Ok::<(), xheal_graph::GraphError>(())
    /// ```
    pub fn apply_delta(
        &mut self,
        ops: &[EdgeMutation],
        scratch: &mut DeltaScratch,
    ) -> Result<(), GraphError> {
        if self.slots.len() < SORTED_APPLY_MIN_SLOTS {
            // Validation barrier only — the cache-resident regime applies
            // straight from `ops` without materializing half-op buffers.
            for op in ops {
                if op.add {
                    if op.a == op.b {
                        return Err(GraphError::SelfLoop(op.a));
                    }
                    self.index.get(op.a).ok_or(GraphError::NodeMissing(op.a))?;
                    self.index.get(op.b).ok_or(GraphError::NodeMissing(op.b))?;
                }
            }
            self.apply_ordered(ops);
        } else {
            self.build_half_ops(ops, scratch)?;
            self.apply_sorted(scratch);
        }
        Ok(())
    }

    /// Validates `ops` and splits each into its two half-edges, filling
    /// `scratch.half_ops` plus `scratch.order` (packed `slot << 32 | index`
    /// words in mutation order). No mutation happens here — this is the
    /// up-front validation barrier shared by both application regimes.
    fn build_half_ops(
        &self,
        ops: &[EdgeMutation],
        scratch: &mut DeltaScratch,
    ) -> Result<(), GraphError> {
        let DeltaScratch {
            half_ops, order, ..
        } = scratch;
        half_ops.clear();
        half_ops.reserve(ops.len() * 2);
        order.clear();
        order.reserve(ops.len() * 2);
        for op in ops {
            let (sa, sb) = if op.add {
                if op.a == op.b {
                    return Err(GraphError::SelfLoop(op.a));
                }
                (
                    self.index.get(op.a).ok_or(GraphError::NodeMissing(op.a))?,
                    self.index.get(op.b).ok_or(GraphError::NodeMissing(op.b))?,
                )
            } else {
                // Strip: a no-op unless both endpoints (and thus possibly
                // the edge) are present — mirrors `strip_color` tolerance.
                match (self.index.get(op.a), self.index.get(op.b)) {
                    (Some(sa), Some(sb)) if op.a != op.b => (sa, sb),
                    _ => continue,
                }
            };
            let ix = half_ops.len() as u64;
            half_ops.push(HalfOp {
                other: op.b,
                other_slot: sb,
                color: op.color,
                add: op.add,
            });
            half_ops.push(HalfOp {
                other: op.a,
                other_slot: sa,
                color: op.color,
                add: op.add,
            });
            order.push((sa as u64) << 32 | ix);
            order.push((sb as u64) << 32 | (ix + 1));
        }
        Ok(())
    }

    /// Cache-resident application regime: walk the mutations in original
    /// order, applying each endpoint as a point edit. Identical work to the
    /// public per-op mutators (callers must have validated adds already);
    /// the second index resolution is an L1 hit after the validation pass.
    fn apply_ordered(&mut self, ops: &[EdgeMutation]) {
        let mut edge_delta = 0isize;
        for op in ops {
            let (sa, sb) = match (self.index.get(op.a), self.index.get(op.b)) {
                (Some(sa), Some(sb)) if op.a != op.b => (sa, sb),
                _ => continue,
            };
            edge_delta += self.point_op(
                sa,
                &HalfOp {
                    other: op.b,
                    other_slot: sb,
                    color: op.color,
                    add: op.add,
                },
            );
            edge_delta += self.point_op(
                sb,
                &HalfOp {
                    other: op.a,
                    other_slot: sa,
                    color: op.color,
                    add: op.add,
                },
            );
        }
        self.edge_count = (self.edge_count as isize + edge_delta) as usize;
    }

    /// DRAM-bound application regime: group half-ops by endpoint slot and
    /// walk each touched slot once under a software-prefetch pipeline.
    fn apply_sorted(&mut self, scratch: &mut DeltaScratch) {
        let DeltaScratch {
            half_ops,
            order,
            group_buf,
            merged,
        } = scratch;
        // Half-op indices ascend with mutation sequence, so this one cheap
        // word sort yields slot groups whose members are already in
        // original mutation order.
        order.sort_unstable();

        // Two-stage prefetch pipeline, distances in order-words. FAR: fetch
        // all lines of an upcoming slot by address alone (no read of cold
        // memory). NEAR: by now that slot's header is resident, so chasing
        // its spilled-tail pointer is cheap and puts the second dependent
        // line in flight too. Keeps many misses overlapped even though each
        // group's work is tiny. Issuing the slot prefetches paced with the
        // walk (rather than in one burst up front) matters: a burst
        // overruns the core's line-fill buffers and the excess prefetches
        // are silently dropped.
        const NEAR: usize = 8;
        const FAR: usize = 32;
        for &w in order.iter().take(FAR) {
            prefetch_slot_lines(&self.slots[(w >> 32) as usize]);
        }
        let mut edge_delta = 0isize;
        let mut i = 0;
        while i < order.len() {
            let slot = (order[i] >> 32) as u32;
            let mut j = i + 1;
            while j < order.len() && (order[j] >> 32) as u32 == slot {
                j += 1;
            }
            if let Some(&w) = order.get(i + FAR) {
                prefetch_slot_lines(&self.slots[(w >> 32) as usize]);
            }
            if let Some(&w) = order.get(i + NEAR) {
                self.slots[(w >> 32) as usize].nbrs.prefetch_tail();
            }
            // Hybrid dispatch: small groups are applied as point edits
            // (binary search + in-place label update each, in sequence
            // order — correct because ops on distinct pairs commute and
            // same-pair ops stay ordered). A point insert or removal pays
            // an O(degree) memmove in the sorted list, so once a group has
            // a handful of members — or matches the list's own length —
            // one merge rewrite of the whole list is cheaper than repeated
            // searches and shifts.
            const MERGE_GROUP_MIN: usize = 4;
            if j - i < MERGE_GROUP_MIN.min(self.slots[slot as usize].nbrs.len().max(1)) {
                for &word in &order[i..j] {
                    edge_delta += self.point_op(slot, &half_ops[(word & IX_MASK) as usize]);
                }
            } else {
                // The merge walk needs `(neighbor, seq)` order; the packed
                // word's low half is the index (= sequence) tiebreak, so
                // the unstable sort is deterministic.
                order[i..j].sort_unstable_by_key(|&w| (half_ops[(w & IX_MASK) as usize].other, w));
                group_buf.clear();
                group_buf.extend(
                    order[i..j]
                        .iter()
                        .map(|&w| half_ops[(w & IX_MASK) as usize]),
                );
                edge_delta += self.merge_slot(slot, group_buf, merged);
            }
            i = j;
        }
        self.edge_count = (self.edge_count as isize + edge_delta) as usize;
    }

    /// Applies one half-op to a label set.
    #[inline]
    fn apply_op(labels: &mut EdgeLabels, op: &HalfOp) {
        match (op.add, op.color) {
            (true, Some(c)) => {
                labels.add_color(c);
            }
            (true, None) => labels.set_black(),
            (false, Some(c)) => {
                labels.remove_color(c);
            }
            (false, None) => labels.clear_black(),
        }
    }

    /// Replays one pair's run of half-ops onto its label set, in original
    /// sequence order (the merge path sorts runs by `(neighbor, seq)`).
    fn replay_ops(labels: &mut EdgeLabels, run: &[HalfOp]) {
        for op in run {
            Self::apply_op(labels, op);
        }
    }

    /// Applies one half-op to its slot in place — a binary search and an
    /// in-place label update (plus at most one insert/remove shift) —
    /// skipping the full-list rewrite of [`Graph::merge_slot`]. Same
    /// edge-count convention: only the canonical (`owner < neighbor`) half
    /// reports the net change.
    fn point_op(&mut self, slot_ix: u32, op: &HalfOp) -> isize {
        let other = op.other;
        let slot = &mut self.slots[slot_ix as usize];
        let owner = slot.node;
        match slot.nbrs.search(other) {
            Ok(p) => {
                let entry = slot.nbrs.get_mut(p);
                let was_black = entry.labels.is_black();
                Self::apply_op(&mut entry.labels, op);
                let now_black = entry.labels.is_black();
                let gone = entry.labels.is_empty();
                slot.black_degree =
                    (slot.black_degree as i64 + now_black as i64 - was_black as i64) as u32;
                if gone {
                    slot.nbrs.remove(p);
                }
                if owner < other {
                    !gone as isize - 1
                } else {
                    0
                }
            }
            Err(p) => {
                let mut labels = EdgeLabels::empty();
                Self::apply_op(&mut labels, op);
                if labels.is_empty() {
                    return 0;
                }
                if labels.is_black() {
                    slot.black_degree += 1;
                }
                slot.nbrs.insert(
                    p,
                    Nbr {
                        id: other,
                        slot: op.other_slot,
                        labels,
                    },
                );
                (owner < other) as isize
            }
        }
    }

    /// Rewrites one slot's neighbor list by merging a sorted run of half-ops
    /// into it. Returns the net change in undirected edge count, counted
    /// only on the canonical (`owner < neighbor`) half so the two mirrored
    /// walks contribute exactly once per edge.
    fn merge_slot(&mut self, slot_ix: u32, group: &[HalfOp], merged: &mut Vec<Nbr>) -> isize {
        let slot = &mut self.slots[slot_ix as usize];
        let owner = slot.node;
        let mut old = std::mem::take(&mut slot.nbrs);
        merged.clear();
        merged.reserve(old.len() + group.len());

        let (mut edge_delta, mut black_delta) = (0isize, 0i64);
        let (mut oi, mut gi) = (0usize, 0usize);
        let old_len = old.len();
        while gi < group.len() {
            let other = group[gi].other;
            let mut ge = gi + 1;
            while ge < group.len() && group[ge].other == other {
                ge += 1;
            }
            while oi < old_len && old.get(oi).id < other {
                merged.push(std::mem::take(old.get_mut(oi)));
                oi += 1;
            }
            let (mut labels, other_slot, existed) = if oi < old_len && old.get(oi).id == other {
                let e = std::mem::take(old.get_mut(oi));
                oi += 1;
                (e.labels, e.slot, true)
            } else {
                (EdgeLabels::empty(), group[gi].other_slot, false)
            };
            let was_black = labels.is_black();
            Self::replay_ops(&mut labels, &group[gi..ge]);
            black_delta += labels.is_black() as i64 - was_black as i64;
            if owner < other {
                edge_delta += !labels.is_empty() as isize - existed as isize;
            }
            if !labels.is_empty() {
                merged.push(Nbr {
                    id: other,
                    slot: other_slot,
                    labels,
                });
            }
            gi = ge;
        }
        while oi < old_len {
            merged.push(std::mem::take(old.get_mut(oi)));
            oi += 1;
        }

        old.assign(merged);
        let slot = &mut self.slots[slot_ix as usize];
        slot.nbrs = old;
        slot.black_degree = (slot.black_degree as i64 + black_delta) as u32;
        edge_delta
    }
}

/// One edge-label mutation inside a bulk [`Graph::apply_delta`] batch.
///
/// `color: None` addresses the black label, `Some(c)` the cloud color `c` —
/// matching the four sequential entry points ([`Graph::add_black_edge`],
/// [`Graph::add_colored_edge`], [`Graph::strip_black`],
/// [`Graph::strip_color`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EdgeMutation {
    /// First endpoint.
    pub a: NodeId,
    /// Second endpoint.
    pub b: NodeId,
    /// The label addressed: `None` = black, `Some(c)` = cloud color `c`.
    pub color: Option<CloudColor>,
    /// `true` adds the label (creating the edge if needed), `false` strips
    /// it (removing the edge when no label remains).
    pub add: bool,
}

impl EdgeMutation {
    /// Add the black label to `(a, b)`.
    pub const fn add_black(a: NodeId, b: NodeId) -> Self {
        EdgeMutation {
            a,
            b,
            color: None,
            add: true,
        }
    }

    /// Add cloud color `c` to `(a, b)`.
    pub const fn add_colored(a: NodeId, b: NodeId, c: CloudColor) -> Self {
        EdgeMutation {
            a,
            b,
            color: Some(c),
            add: true,
        }
    }

    /// Strip the black label from `(a, b)`.
    pub const fn strip_black(a: NodeId, b: NodeId) -> Self {
        EdgeMutation {
            a,
            b,
            color: None,
            add: false,
        }
    }

    /// Strip cloud color `c` from `(a, b)`.
    pub const fn strip_colored(a: NodeId, b: NodeId, c: CloudColor) -> Self {
        EdgeMutation {
            a,
            b,
            color: Some(c),
            add: false,
        }
    }
}

/// Arena-size threshold (in slots) above which [`Graph::apply_delta`]
/// switches from in-order point application to the sorted, prefetched
/// grouped walk. Two million ~96-byte slot records put the arena near or
/// past even a large server LLC, which is exactly when slot accesses start
/// missing to DRAM and the grouped walk's overlapped misses pay for the
/// sort; below that the whole arena is cache-resident and out-of-order
/// execution already overlaps independent point edits for free.
pub const SORTED_APPLY_MIN_SLOTS: usize = 1 << 21;

/// One half of an [`EdgeMutation`], bucketed to its owning slot.
///
/// The owning slot and the sequence position are *not* stored here: the
/// bulk sort orders a parallel array of packed `slot << 32 | index` words
/// (see [`Graph::apply_delta`]), so the sort moves 8 bytes per half-op
/// instead of this whole record.
#[derive(Clone, Copy, Debug)]
struct HalfOp {
    other: NodeId,
    other_slot: u32,
    color: Option<CloudColor>,
    add: bool,
}

/// Mask extracting the half-op index from a packed order word.
const IX_MASK: u64 = 0xFFFF_FFFF;

/// Reusable working memory for [`Graph::apply_delta`]: the half-op sort
/// arena and the merge output buffer. Thread one of these through an
/// executor's hot loop so steady-state bulk application allocates nothing.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    half_ops: Vec<HalfOp>,
    /// Packed `slot << 32 | half_op_index` words — the 8-byte sort arena.
    order: Vec<u64>,
    /// Gather buffer for merge-path slot groups, in `(neighbor, seq)` order.
    group_buf: Vec<HalfOp>,
    merged: Vec<Nbr>,
}

impl Clone for DeltaScratch {
    /// Cloning yields a fresh, empty scratch: contents are transient
    /// per-batch working state, not data.
    fn clone(&self) -> Self {
        DeltaScratch::default()
    }
}

/// A dense CSR snapshot of a [`Graph`], built by [`Graph::csr_view`].
///
/// Node `i` (for `i` in `0..len()`) is `nodes()[i]`, the `i`-th live node in
/// ascending `NodeId` order; `neighbors_of(i)` yields dense indices, sorted
/// ascending. The snapshot does not track later mutations.
///
/// # Examples
///
/// ```
/// use xheal_graph::generators;
/// let g = generators::cycle(5);
/// let csr = g.csr_view();
/// assert_eq!(csr.len(), 5);
/// assert_eq!(csr.neighbors_of(0), &[1, 4]);
/// ```
#[derive(Clone, Debug)]
pub struct CsrView {
    nodes: Vec<NodeId>,
    offsets: Vec<u32>,
    neighbors: Vec<u32>,
}

impl CsrView {
    /// Assembles a view from raw CSR arrays — the entry point for consumers
    /// (e.g. incrementally maintained monitors) that build the dense
    /// representation themselves and want to hand it to the CSR-consuming
    /// algorithms without an owning copy of a [`Graph`].
    ///
    /// Invariants required (debug-asserted): `nodes` sorted strictly
    /// ascending, `offsets.len() == nodes.len() + 1` starting at 0 and
    /// non-decreasing with `neighbors.len()` as the final entry, and every
    /// neighbor index below `nodes.len()`.
    pub fn from_parts(nodes: Vec<NodeId>, offsets: Vec<u32>, neighbors: Vec<u32>) -> Self {
        debug_assert_eq!(offsets.len(), nodes.len() + 1);
        debug_assert_eq!(offsets.first(), Some(&0));
        debug_assert_eq!(
            *offsets.last().expect("nonempty offsets") as usize,
            neighbors.len()
        );
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]));
        debug_assert!(offsets.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(neighbors.iter().all(|&j| (j as usize) < nodes.len()));
        CsrView {
            nodes,
            offsets,
            neighbors,
        }
    }

    /// Number of nodes in the snapshot.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when the snapshot has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node ids backing dense coordinates, ascending.
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The node id at dense index `i`.
    pub fn node(&self, i: usize) -> NodeId {
        self.nodes[i]
    }

    /// Dense index of `v`, if present (binary search over the sorted spine).
    pub fn index_of(&self, v: NodeId) -> Option<usize> {
        self.nodes.binary_search(&v).ok()
    }

    /// Dense neighbor indices of dense node `i`, ascending.
    pub fn neighbors_of(&self, i: usize) -> &[u32] {
        &self.neighbors[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }

    /// Degree of dense node `i`.
    pub fn degree_of(&self, i: usize) -> usize {
        (self.offsets[i + 1] - self.offsets[i]) as usize
    }

    /// The raw offset array (`len() + 1` entries, first 0, last
    /// `neighbors_flat().len()`), for matrix-free operators borrowing the
    /// CSR arrays directly.
    pub fn offsets(&self) -> &[u32] {
        &self.offsets
    }

    /// The raw flattened neighbor array (`2 × edge count` dense indices).
    pub fn neighbors_flat(&self) -> &[u32] {
        &self.neighbors
    }

    /// Number of undirected edges in the snapshot.
    pub fn edge_count(&self) -> usize {
        self.neighbors.len() / 2
    }
}

impl fmt::Display for Graph {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "graph: {} nodes, {} edges",
            self.node_count(),
            self.edge_count()
        )?;
        for (u, v, l) in self.edges() {
            writeln!(f, "  {u} -- {v} [{l}]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(raw: u64) -> NodeId {
        NodeId::new(raw)
    }

    fn triangle() -> Graph {
        let mut g = Graph::new();
        for i in 0..3 {
            g.add_node(n(i)).unwrap();
        }
        g.add_black_edge(n(0), n(1)).unwrap();
        g.add_black_edge(n(1), n(2)).unwrap();
        g.add_black_edge(n(2), n(0)).unwrap();
        g
    }

    #[test]
    fn add_and_query_nodes() {
        let mut g = Graph::new();
        assert_eq!(g.node_count(), 0);
        g.add_node(n(1)).unwrap();
        assert!(g.contains_node(n(1)));
        assert_eq!(g.add_node(n(1)), Err(GraphError::NodeExists(n(1))));
        assert_eq!(g.degree(n(1)), Some(0));
        assert_eq!(g.degree(n(2)), None);
    }

    #[test]
    fn self_loops_rejected() {
        let mut g = Graph::new();
        g.add_node(n(1)).unwrap();
        assert_eq!(
            g.add_black_edge(n(1), n(1)),
            Err(GraphError::SelfLoop(n(1)))
        );
    }

    #[test]
    fn missing_endpoint_rejected() {
        let mut g = Graph::new();
        g.add_node(n(1)).unwrap();
        assert_eq!(
            g.add_black_edge(n(1), n(2)),
            Err(GraphError::NodeMissing(n(2)))
        );
    }

    #[test]
    fn black_edge_roundtrip() {
        let g = triangle();
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.degree(n(0)), Some(2));
        assert_eq!(g.black_degree(n(0)), Some(2));
        assert!(g.edge_labels(n(0), n(1)).unwrap().is_black());
        g.validate().unwrap();
    }

    #[test]
    fn recolor_existing_black_edge_keeps_single_edge() {
        let mut g = triangle();
        let c = CloudColor::new(7);
        let created = g.add_colored_edge(n(0), n(1), c).unwrap();
        assert!(!created, "edge already existed; must not duplicate");
        assert_eq!(g.edge_count(), 3);
        let l = g.edge_labels(n(0), n(1)).unwrap();
        assert!(l.is_black() && l.has_color(c));
        g.validate().unwrap();
    }

    #[test]
    fn strip_color_removes_edge_only_when_label_set_empties() {
        let mut g = triangle();
        let c = CloudColor::new(7);
        g.add_colored_edge(n(0), n(1), c).unwrap();
        assert!(!g.strip_color(n(0), n(1), c), "black label remains");
        assert!(g.has_edge(n(0), n(1)));
        assert!(g.strip_black(n(0), n(1)), "now fully removed");
        assert!(!g.has_edge(n(0), n(1)));
        assert_eq!(g.edge_count(), 2);
        g.validate().unwrap();
    }

    #[test]
    fn strip_on_missing_edge_is_noop() {
        let mut g = triangle();
        assert!(!g.strip_color(n(0), n(1), CloudColor::new(99)));
        assert!(!g.strip_color(n(0), n(42), CloudColor::new(1)));
        assert!(g.has_edge(n(0), n(1)));
    }

    #[test]
    fn remove_node_returns_incident_labels() {
        let mut g = triangle();
        let c = CloudColor::new(3);
        g.add_colored_edge(n(0), n(2), c).unwrap();
        let incident = g.remove_node(n(0)).unwrap();
        assert_eq!(incident.len(), 2);
        assert_eq!(incident[0].0, n(1));
        assert!(incident[0].1.is_black());
        assert_eq!(incident[1].0, n(2));
        assert!(incident[1].1.has_color(c));
        assert_eq!(g.node_count(), 2);
        assert_eq!(g.edge_count(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn remove_missing_node_errors() {
        let mut g = Graph::new();
        assert_eq!(g.remove_node(n(5)), Err(GraphError::NodeMissing(n(5))));
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle();
        let edges: Vec<(NodeId, NodeId)> = g.edges().map(|(u, v, _)| (u, v)).collect();
        assert_eq!(edges, vec![(n(0), n(1)), (n(0), n(2)), (n(1), n(2))]);
    }

    #[test]
    fn cut_size_counts_crossing_edges() {
        let g = triangle();
        assert_eq!(g.cut_size(&[n(0)]), 2);
        assert_eq!(g.cut_size(&[n(0), n(1)]), 2);
        assert_eq!(g.cut_size(&[n(0), n(1), n(2)]), 0);
        assert_eq!(g.cut_size(&[]), 0);
        // Duplicates and absent nodes are tolerated.
        assert_eq!(g.cut_size(&[n(0), n(0), n(99)]), 2);
    }

    #[test]
    fn volume_sums_degrees() {
        let g = triangle();
        assert_eq!(g.volume([n(0), n(1)]), 4);
        assert_eq!(g.volume([n(99)]), 0);
    }

    #[test]
    fn colored_and_black_neighbor_queries() {
        let mut g = triangle();
        let c = CloudColor::new(1);
        g.add_colored_edge(n(0), n(1), c).unwrap();
        g.strip_black(n(0), n(1));
        assert_eq!(g.black_neighbors(n(0)), vec![n(2)]);
        assert_eq!(g.colored_neighbors(n(0), c), vec![n(1)]);
        assert_eq!(g.black_degree(n(0)), Some(1));
        assert_eq!(g.degree(n(0)), Some(2));
    }

    #[test]
    fn remove_edge_returns_labels() {
        let mut g = triangle();
        let l = g.remove_edge(n(0), n(1)).unwrap();
        assert!(l.is_black());
        assert_eq!(
            g.remove_edge(n(0), n(1)),
            Err(GraphError::EdgeMissing(n(0), n(1)))
        );
    }

    #[test]
    fn display_lists_edges() {
        let g = triangle();
        let s = format!("{g}");
        assert!(s.contains("3 nodes, 3 edges"));
        assert!(s.contains("n0 -- n1 [black]"));
    }

    #[test]
    fn slots_are_recycled_under_churn() {
        let mut g = triangle();
        let cap = g.slot_capacity();
        for i in 10..100 {
            g.add_node(n(i)).unwrap();
            g.add_black_edge(n(0), n(i)).unwrap();
            g.remove_node(n(i)).unwrap();
        }
        assert_eq!(
            g.slot_capacity(),
            cap + 1,
            "churn reuses one recycled slot instead of growing the arena"
        );
        g.validate().unwrap();
    }

    #[test]
    fn slot_of_tracks_membership() {
        let mut g = triangle();
        assert!(g.slot_of(n(1)).is_some());
        assert!(g.slot_of(n(9)).is_none());
        g.remove_node(n(1)).unwrap();
        assert!(g.slot_of(n(1)).is_none());
    }

    #[test]
    fn black_degree_counter_survives_label_churn() {
        let mut g = triangle();
        let c = CloudColor::new(4);
        // Toggle black off and on under an added color.
        g.add_colored_edge(n(0), n(1), c).unwrap();
        g.strip_black(n(0), n(1));
        assert_eq!(g.black_degree(n(0)), Some(1));
        assert_eq!(g.black_degree(n(1)), Some(1));
        g.add_black_edge(n(0), n(1)).unwrap();
        assert_eq!(g.black_degree(n(0)), Some(2));
        g.remove_edge(n(0), n(1)).unwrap();
        assert_eq!(g.black_degree(n(0)), Some(1));
        g.validate().unwrap();
    }

    #[test]
    fn semantic_equality_ignores_arena_history() {
        // Same final topology via different churn histories.
        let mut a = triangle();
        a.add_node(n(7)).unwrap();
        a.add_black_edge(n(0), n(7)).unwrap();
        a.remove_node(n(7)).unwrap();

        let b = triangle();
        assert_eq!(a, b);
        let mut c = triangle();
        c.strip_black(n(0), n(1));
        assert_ne!(a, c);
    }

    /// Sequential reference for `apply_delta`: the plain per-op loop.
    fn apply_sequential(g: &mut Graph, ops: &[EdgeMutation]) {
        for op in ops {
            match (op.add, op.color) {
                (true, Some(c)) => {
                    g.add_colored_edge(op.a, op.b, c).unwrap();
                }
                (true, None) => {
                    g.add_black_edge(op.a, op.b).unwrap();
                }
                (false, Some(c)) => {
                    g.strip_color(op.a, op.b, c);
                }
                (false, None) => {
                    g.strip_black(op.a, op.b);
                }
            }
        }
    }

    fn assert_bulk_matches_sequential(seed: &Graph, ops: &[EdgeMutation]) {
        // Public entry point: at test sizes this dispatches to the in-order
        // point-edit regime.
        let mut bulk = seed.clone();
        let mut seq = seed.clone();
        let mut scratch = DeltaScratch::default();
        bulk.apply_delta(ops, &mut scratch).unwrap();
        apply_sequential(&mut seq, ops);
        bulk.validate().unwrap();
        assert_eq!(bulk, seq);
        assert_eq!(bulk.edge_count(), seq.edge_count());
        for v in seq.node_vec() {
            assert_eq!(bulk.black_degree(v), seq.black_degree(v), "black deg {v}");
        }
        // Forced sorted regime (what DRAM-sized arenas run): must be
        // bit-identical to both of the above on any graph.
        let mut sorted = seed.clone();
        sorted.build_half_ops(ops, &mut scratch).unwrap();
        sorted.apply_sorted(&mut scratch);
        sorted.validate().unwrap();
        assert_eq!(sorted, seq, "sorted regime diverged from sequential");
        assert_eq!(sorted.edge_count(), seq.edge_count());
    }

    #[test]
    fn apply_delta_empty_batch_is_noop() {
        let mut g = triangle();
        let before = g.clone();
        g.apply_delta(&[], &mut DeltaScratch::default()).unwrap();
        assert_eq!(g, before);
    }

    #[test]
    fn apply_delta_matches_sequential_mixed_batch() {
        let mut g = triangle();
        for i in 3..8 {
            g.add_node(n(i)).unwrap();
        }
        let c1 = CloudColor::new(1);
        let c2 = CloudColor::new(2);
        let ops = vec![
            EdgeMutation::strip_black(n(0), n(1)),
            EdgeMutation::add_colored(n(0), n(3), c1),
            EdgeMutation::add_colored(n(3), n(4), c1),
            EdgeMutation::add_colored(n(0), n(1), c2),
            EdgeMutation::add_black(n(4), n(5)),
            EdgeMutation::strip_colored(n(1), n(2), c1), // absent color: no-op
            EdgeMutation::add_colored(n(5), n(6), c2),
            EdgeMutation::strip_black(n(2), n(0)),
        ];
        assert_bulk_matches_sequential(&g, &ops);
    }

    #[test]
    fn apply_delta_add_then_strip_same_color_in_one_batch() {
        // The regression the seq-ordered merge exists for: a batch plan can
        // add a splice edge and strip that same (pair, color) later in the
        // same flush. "All strips then all adds" would leave the edge alive.
        let g = triangle();
        let c = CloudColor::new(9);
        let ops = vec![
            EdgeMutation::add_colored(n(0), n(1), c),
            EdgeMutation::strip_colored(n(0), n(1), c),
        ];
        assert_bulk_matches_sequential(&g, &ops);
        let ops_rev = vec![
            EdgeMutation::strip_colored(n(0), n(1), c),
            EdgeMutation::add_colored(n(0), n(1), c),
        ];
        assert_bulk_matches_sequential(&g, &ops_rev);
    }

    #[test]
    fn apply_delta_create_and_destroy_within_batch() {
        let mut g = Graph::new();
        for i in 0..3 {
            g.add_node(n(i)).unwrap();
        }
        let c = CloudColor::new(4);
        // Edge flips into and out of existence inside one batch: net zero.
        let ops = vec![
            EdgeMutation::add_colored(n(0), n(1), c),
            EdgeMutation::strip_colored(n(0), n(1), c),
            EdgeMutation::add_black(n(0), n(1)),
            EdgeMutation::strip_black(n(0), n(1)),
        ];
        assert_bulk_matches_sequential(&g, &ops);
        let mut bulk = g.clone();
        bulk.apply_delta(&ops, &mut DeltaScratch::default())
            .unwrap();
        assert_eq!(bulk.edge_count(), 0);
    }

    #[test]
    fn apply_delta_strips_tolerate_missing_endpoints_and_self_loops() {
        let g = triangle();
        let ops = vec![
            EdgeMutation::strip_black(n(0), n(42)), // absent endpoint
            EdgeMutation::strip_colored(n(1), n(1), CloudColor::new(1)), // self loop
            EdgeMutation::strip_black(n(0), n(1)),
        ];
        assert_bulk_matches_sequential(&g, &ops);
    }

    #[test]
    fn apply_delta_rejects_bad_adds_before_mutating() {
        let mut g = triangle();
        let before = g.clone();
        let mut scratch = DeltaScratch::default();
        let err = g
            .apply_delta(
                &[
                    EdgeMutation::strip_black(n(0), n(1)),
                    EdgeMutation::add_black(n(0), n(42)),
                ],
                &mut scratch,
            )
            .unwrap_err();
        assert_eq!(err, GraphError::NodeMissing(n(42)));
        assert_eq!(g, before, "failed batch must not partially apply");
        let err = g
            .apply_delta(&[EdgeMutation::add_black(n(1), n(1))], &mut scratch)
            .unwrap_err();
        assert_eq!(err, GraphError::SelfLoop(n(1)));
        assert_eq!(g, before);
    }

    #[test]
    fn apply_delta_crosses_inline_spill_boundary() {
        // Drive one node's degree across the NBR_INLINE boundary in both
        // directions within grouped batches.
        let mut g = Graph::new();
        for i in 0..12 {
            g.add_node(n(i)).unwrap();
        }
        let grow: Vec<EdgeMutation> = (1..10)
            .map(|i| EdgeMutation::add_black(n(0), n(i)))
            .collect();
        assert_bulk_matches_sequential(&g, &grow);
        let mut grown = g.clone();
        grown
            .apply_delta(&grow, &mut DeltaScratch::default())
            .unwrap();
        assert_eq!(grown.degree(n(0)), Some(9));
        let shrink: Vec<EdgeMutation> = (1..8)
            .map(|i| EdgeMutation::strip_black(n(0), n(i)))
            .collect();
        assert_bulk_matches_sequential(&grown, &shrink);
        // And interleaved grow/shrink around the boundary.
        let mixed = vec![
            EdgeMutation::strip_black(n(0), n(8)),
            EdgeMutation::add_black(n(0), n(10)),
            EdgeMutation::strip_black(n(0), n(1)),
            EdgeMutation::strip_black(n(0), n(2)),
            EdgeMutation::add_black(n(0), n(11)),
            EdgeMutation::strip_black(n(0), n(3)),
        ];
        assert_bulk_matches_sequential(&grown, &mixed);
    }

    #[test]
    fn apply_delta_duplicate_ops_are_idempotent() {
        let g = triangle();
        let c = CloudColor::new(5);
        let ops = vec![
            EdgeMutation::add_colored(n(0), n(1), c),
            EdgeMutation::add_colored(n(0), n(1), c),
            EdgeMutation::strip_black(n(1), n(2)),
            EdgeMutation::strip_black(n(1), n(2)),
        ];
        assert_bulk_matches_sequential(&g, &ops);
    }

    #[test]
    fn nbr_list_insert_remove_walk() {
        // Exercise NbrList directly across the inline/spill boundary with
        // every insert/remove position class.
        let mut g = Graph::new();
        for i in 0..9 {
            g.add_node(n(i)).unwrap();
        }
        // Insert in shuffled order (head-middle, tail, evicting inserts).
        for &i in &[5u64, 2, 8, 1, 7, 3, 6, 4] {
            g.add_black_edge(n(0), n(i)).unwrap();
            g.validate().unwrap();
        }
        let got: Vec<NodeId> = g.neighbors(n(0)).collect();
        let expect: Vec<NodeId> = (1..9).map(n).collect();
        assert_eq!(got, expect);
        // Remove from head front, head back, tail, and across refills.
        for &i in &[1u64, 4, 8, 2, 6, 3, 7, 5] {
            g.strip_black(n(0), n(i));
            g.validate().unwrap();
        }
        assert_eq!(g.degree(n(0)), Some(0));
    }

    #[test]
    fn csr_view_matches_adjacency() {
        let mut g = triangle();
        g.add_node(n(10)).unwrap();
        g.add_black_edge(n(10), n(1)).unwrap();
        // Force slot reuse so dense order != slot order.
        g.remove_node(n(0)).unwrap();
        g.add_node(n(20)).unwrap();
        g.add_black_edge(n(20), n(2)).unwrap();

        let csr = g.csr_view();
        assert_eq!(csr.nodes(), &[n(1), n(2), n(10), n(20)]);
        for i in 0..csr.len() {
            let v = csr.node(i);
            let expect: Vec<NodeId> = g.neighbors(v).collect();
            let got: Vec<NodeId> = csr
                .neighbors_of(i)
                .iter()
                .map(|&j| csr.node(j as usize))
                .collect();
            assert_eq!(got, expect, "dense adjacency of {v}");
            assert_eq!(csr.degree_of(i), g.degree(v).unwrap());
            assert_eq!(csr.index_of(v), Some(i));
        }
        assert_eq!(csr.index_of(n(0)), None);
    }
}
