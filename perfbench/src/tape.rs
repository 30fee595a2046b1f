//! Seeded input tapes. Every tape is built from the workload seed before
//! any clock starts, and never reads the engine under test: victims and
//! insertion neighbours come from the tape's own model of the live node
//! set, so the same seed gives the same tape whatever the healer does.

use xheal_core::Event;
use xheal_graph::NodeId;

/// SplitMix64: a tiny, fast, fully specified generator, so a tape depends
/// on nothing but its seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (multiply-shift; `n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }
}

/// The live node set of the tape's model, with O(1) uniform sampling,
/// removal, and membership.
struct Live {
    ids: Vec<u64>,
    /// Position of each id in `ids`, `usize::MAX` once dead.
    pos: Vec<usize>,
}

impl Live {
    fn new(n: usize) -> Self {
        Live {
            ids: (0..n as u64).collect(),
            pos: (0..n).collect(),
        }
    }

    fn contains(&self, id: u64) -> bool {
        self.pos.get(id as usize).is_some_and(|&p| p != usize::MAX)
    }

    fn add(&mut self, id: u64) {
        if self.pos.len() <= id as usize {
            self.pos.resize(id as usize + 1, usize::MAX);
        }
        self.pos[id as usize] = self.ids.len();
        self.ids.push(id);
    }

    fn remove(&mut self, id: u64) {
        let p = std::mem::replace(&mut self.pos[id as usize], usize::MAX);
        self.ids.swap_remove(p);
        if let Some(&moved) = self.ids.get(p) {
            self.pos[moved as usize] = p;
        }
    }

    fn pick(&self, rng: &mut Rng) -> u64 {
        self.ids[rng.below(self.ids.len())]
    }

    /// `k` distinct live ids, removed from the set.
    fn take(&mut self, rng: &mut Rng, k: usize) -> Vec<NodeId> {
        (0..k)
            .map(|_| {
                let v = self.pick(rng);
                self.remove(v);
                NodeId::new(v)
            })
            .collect()
    }
}

/// The churn mix on an `n`-node ring: every `rack_every`-th event deletes
/// `rack` consecutive live ring ids at once (a rack outage); the others are
/// a fair coin between an insertion (1–3 random live neighbours, fresh id)
/// and a uniform single deletion.
pub fn churn(seed: u64, n: usize, len: usize, rack_every: usize, rack: usize) -> Vec<Event> {
    let mut rng = Rng::new(seed);
    let mut live = Live::new(n);
    let mut next_id = n as u64;
    let mut events = Vec::with_capacity(len);
    for i in 0..len {
        if (i + 1) % rack_every == 0 {
            let start = rng.below(n);
            let ids: Vec<u64> = (0..n)
                .map(|k| ((start + k) % n) as u64)
                .filter(|&id| live.contains(id))
                .take(rack)
                .collect();
            for &id in &ids {
                live.remove(id);
            }
            events.push(Event::DeleteBatch {
                nodes: ids.into_iter().map(NodeId::new).collect(),
            });
        } else if rng.below(2) == 0 {
            let k = 1 + rng.below(3);
            let mut neighbors: Vec<NodeId> = Vec::with_capacity(k);
            while neighbors.len() < k {
                let u = NodeId::new(live.pick(&mut rng));
                if !neighbors.contains(&u) {
                    neighbors.push(u);
                }
            }
            live.add(next_id);
            events.push(Event::Insert {
                node: NodeId::new(next_id),
                neighbors,
            });
            next_id += 1;
        } else {
            let v = live.pick(&mut rng);
            live.remove(v);
            events.push(Event::Delete {
                node: NodeId::new(v),
            });
        }
    }
    events
}

/// Deletions only on an `n`-node graph: uniform single deletions, with
/// every `batch_every`-th event an outage of `batch` random live nodes.
pub fn outages(seed: u64, n: usize, len: usize, batch_every: usize, batch: usize) -> Vec<Event> {
    let mut rng = Rng::new(seed);
    let mut live = Live::new(n);
    (0..len)
        .map(|i| {
            if (i + 1) % batch_every == 0 {
                Event::DeleteBatch {
                    nodes: live.take(&mut rng, batch),
                }
            } else {
                Event::Delete {
                    node: live.take(&mut rng, 1)[0],
                }
            }
        })
        .collect()
}

/// The routed-traffic inputs: `victims` distinct processors to delete
/// mid-flight, and one raw random pair per request, mapped onto the live
/// snapshot at injection time (see [`pair_in`]).
pub struct TrafficTape {
    pub victims: Vec<NodeId>,
    pub pairs: Vec<(u64, u64)>,
}

pub fn traffic(seed: u64, n: usize, requests: usize, victims: usize) -> TrafficTape {
    let mut rng = Rng::new(seed);
    let mut live = Live::new(n);
    let victims = live.take(&mut rng, victims);
    let pairs = (0..requests)
        .map(|_| (rng.next_u64(), rng.next_u64()))
        .collect();
    TrafficTape { victims, pairs }
}

/// Maps a raw pair onto two distinct dense indices of a `len`-node
/// snapshot (`len >= 2`).
pub fn pair_in(raw: (u64, u64), len: usize) -> (usize, usize) {
    let src = ((u128::from(raw.0) * len as u128) >> 64) as usize;
    let mut dst = ((u128::from(raw.1) * (len - 1) as u128) >> 64) as usize;
    if dst >= src {
        dst += 1;
    }
    (src, dst)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tapes_repeat_per_seed_and_differ_across_seeds() {
        assert_eq!(churn(3, 500, 300, 100, 32), churn(3, 500, 300, 100, 32));
        assert_ne!(churn(3, 500, 300, 100, 32), churn(4, 500, 300, 100, 32));
        assert_eq!(outages(3, 500, 100, 25, 16), outages(3, 500, 100, 25, 16));
    }

    #[test]
    fn churn_tape_only_touches_live_nodes() {
        let n = 400;
        let mut alive: Vec<bool> = vec![true; n];
        for ev in churn(9, n, 600, 100, 32) {
            match ev {
                Event::Insert { node, neighbors } => {
                    assert!(neighbors.iter().all(|u| alive[u.as_u64() as usize]));
                    assert_eq!(node.as_u64() as usize, alive.len());
                    alive.push(true);
                }
                Event::Delete { node } => {
                    assert!(std::mem::replace(&mut alive[node.as_u64() as usize], false));
                }
                Event::DeleteBatch { nodes } => {
                    assert_eq!(nodes.len(), 32);
                    for v in nodes {
                        assert!(v.as_u64() < n as u64, "racks are ring ids");
                        assert!(std::mem::replace(&mut alive[v.as_u64() as usize], false));
                    }
                }
            }
        }
    }

    #[test]
    fn pairs_are_distinct_and_in_range() {
        let tape = traffic(1, 100, 1000, 5);
        for &raw in &tape.pairs {
            let (s, d) = pair_in(raw, 7);
            assert!(s < 7 && d < 7 && s != d);
        }
    }
}
