//! Fiedler sweep cut: a constructive conductance/expansion upper bound.
//!
//! Sorting nodes by Fiedler value and scanning prefixes realizes the cut
//! promised by Cheeger's inequality (Theorem 1 in the paper): the best prefix
//! has conductance at most `sqrt(2 λ₂)`. For graphs too large for exact
//! enumeration this gives the upper half of the expansion sandwich reported
//! by `xheal-metrics`.

use xheal_graph::{CsrView, Graph, NodeId};

use crate::laplacian::fiedler_vector_csr;

/// Result of a sweep cut.
#[derive(Clone, Debug, PartialEq)]
pub struct SweepCut {
    /// Conductance `cut / min(vol(S), vol(S̄))` of the best prefix.
    pub conductance: f64,
    /// Edge expansion quotient `cut / min(|S|, |S̄|)` of the best
    /// expansion prefix (may be a different prefix than the conductance one).
    pub expansion: f64,
    /// The node side realizing the best conductance, sorted ascending.
    pub side: Vec<NodeId>,
}

/// Runs a sweep cut over the Fiedler vector of `g`.
///
/// Returns `None` when the graph has fewer than 2 nodes or no edges.
pub fn sweep_cut(g: &Graph) -> Option<SweepCut> {
    sweep_cut_csr(&g.csr_view())
}

/// [`sweep_cut`] over an existing CSR snapshot: a cold Fiedler solve
/// ([`fiedler_vector_csr`]) followed by the prefix scan of
/// [`sweep_cut_by`]. Repeat callers with a maintained CSR never rebuild the
/// adjacency.
pub fn sweep_cut_csr(csr: &CsrView) -> Option<SweepCut> {
    if csr.len() < 2 || csr.edge_count() == 0 {
        return None;
    }
    let fiedler = fiedler_vector_csr(csr)?;
    let values: Vec<f64> = fiedler.iter().map(|&(_, x)| x).collect();
    sweep_cut_by(csr, &values)
}

/// The sweep's prefix scan over a caller-supplied ordering: nodes are
/// sorted ascending by `values` (indexed like `csr.nodes()`, ties kept in
/// node order) and every proper prefix is scored. Any real vector yields
/// real cuts, so the result is an upper bound on the conductance and the
/// edge expansion whatever `values` are; a Fiedler estimate makes it the
/// Cheeger cut. This is how a caller holding a warm-started Fiedler vector
/// sweeps without a cold eigensolve.
///
/// Returns `None` when the graph has fewer than 2 nodes or no edges.
///
/// # Panics
///
/// If `values.len() != csr.len()` or an entry is NaN.
pub fn sweep_cut_by(csr: &CsrView, values: &[f64]) -> Option<SweepCut> {
    assert_eq!(values.len(), csr.len(), "one sweep value per node");
    let n = csr.len();
    if n < 2 || csr.edge_count() == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .expect("finite sweep values")
    });

    let total_vol = 2.0 * csr.edge_count() as f64;
    let mut in_side = vec![false; n];
    let mut cut = 0i64;
    let mut vol = 0.0f64;
    let mut best_cond = f64::INFINITY;
    let mut best_prefix = 0usize;
    let mut best_exp = f64::INFINITY;

    for (k, &i) in order.iter().enumerate().take(n - 1) {
        let deg = csr.degree_of(i) as f64;
        let inside = csr
            .neighbors_of(i)
            .iter()
            .filter(|&&u| in_side[u as usize])
            .count() as i64;
        cut += deg as i64 - 2 * inside;
        vol += deg;
        in_side[i] = true;

        let denom_vol = vol.min(total_vol - vol);
        if denom_vol > 0.0 {
            let cond = cut as f64 / denom_vol;
            if cond < best_cond {
                best_cond = cond;
                best_prefix = k + 1;
            }
        }
        let denom_size = (k + 1).min(n - k - 1) as f64;
        let exp = cut as f64 / denom_size;
        if exp < best_exp {
            best_exp = exp;
        }
    }

    let mut side: Vec<NodeId> = order[..best_prefix]
        .iter()
        .map(|&i| csr.nodes()[i])
        .collect();
    side.sort_unstable();
    Some(SweepCut {
        conductance: best_cond,
        expansion: best_exp,
        side,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use xheal_graph::{cuts, generators};

    #[test]
    fn sweep_is_upper_bound_on_exact_conductance() {
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = generators::connected_erdos_renyi(12, 0.25, &mut rng);
            let exact = cuts::conductance_exact(&g).unwrap().value;
            let sweep = sweep_cut(&g).unwrap().conductance;
            assert!(
                sweep >= exact - 1e-9,
                "seed {seed}: sweep {sweep} below exact {exact}"
            );
        }
    }

    #[test]
    fn sweep_satisfies_cheeger_upper_bound() {
        use crate::algebraic_connectivity;
        use rand::{rngs::StdRng, SeedableRng};
        for seed in 0..6 {
            let mut rng = StdRng::seed_from_u64(100 + seed);
            let g = generators::connected_erdos_renyi(20, 0.2, &mut rng);
            let lambda = algebraic_connectivity(&g);
            let sweep = sweep_cut(&g).unwrap().conductance;
            // Normalized Cheeger would use the normalized Laplacian; for the
            // unnormalized λ₂ used here the bound needs the degree factor:
            // φ ≤ sqrt(2 λ₂ / dmin) is a safe version for our tests.
            let dmin = g
                .node_vec()
                .iter()
                .map(|&v| g.degree(v).unwrap())
                .min()
                .unwrap() as f64;
            let bound = (2.0 * lambda / dmin.max(1.0)).sqrt();
            assert!(
                sweep <= bound + 0.75,
                "seed {seed}: sweep {sweep} way above bound {bound}"
            );
        }
    }

    #[test]
    fn two_cliques_sweep_finds_the_bridge() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(9);
        let g = generators::clique_pair_with_expander_bridge(16, 2, &mut rng);
        let s = sweep_cut(&g).unwrap();
        // The best cut is (close to) the clique split: 8 nodes per side.
        assert!(
            s.side.len() >= 6 && s.side.len() <= 10,
            "side {:?}",
            s.side.len()
        );
        assert!(s.conductance < 0.2, "conductance {}", s.conductance);
    }

    #[test]
    fn degenerate_graphs_return_none() {
        let mut g = Graph::new();
        assert!(sweep_cut(&g).is_none());
        g.add_node(NodeId::new(0)).unwrap();
        g.add_node(NodeId::new(1)).unwrap();
        assert!(sweep_cut(&g).is_none(), "no edges");
    }

    #[test]
    fn sweep_by_any_order_scores_its_prefixes() {
        // Sweeping a path in its natural order finds the middle edge; the
        // reversed order scores the complementary prefixes, so both
        // quotients agree, and a scrambled order can only do worse.
        let g = generators::path(10);
        let csr = g.csr_view();
        let forward: Vec<f64> = (0..10).map(|i| i as f64).collect();
        let backward: Vec<f64> = forward.iter().map(|x| -x).collect();
        let a = sweep_cut_by(&csr, &forward).unwrap();
        let b = sweep_cut_by(&csr, &backward).unwrap();
        assert!((a.expansion - 0.2).abs() < 1e-12, "{}", a.expansion);
        assert_eq!(a.expansion, b.expansion);
        assert_eq!(a.conductance, b.conductance);
        assert_eq!(a.side, (0..5).map(NodeId::new).collect::<Vec<_>>());
        let scrambled: Vec<f64> = (0..10).map(|i| ((i * 7) % 10) as f64).collect();
        assert!(sweep_cut_by(&csr, &scrambled).unwrap().expansion >= a.expansion);
        assert!(sweep_cut_by(&generators::complete(1).csr_view(), &[0.0]).is_none());
    }

    #[test]
    fn cold_sweep_is_the_scan_over_the_fiedler_vector() {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(5);
        let g = generators::connected_erdos_renyi(30, 0.15, &mut rng);
        let csr = g.csr_view();
        let values: Vec<f64> = fiedler_vector_csr(&csr)
            .unwrap()
            .into_iter()
            .map(|(_, x)| x)
            .collect();
        assert_eq!(sweep_cut_by(&csr, &values), sweep_cut_csr(&csr));
    }

    #[test]
    fn path_sweep_cuts_in_the_middle() {
        let g = generators::path(12);
        let s = sweep_cut(&g).unwrap();
        assert_eq!(s.side.len(), 6);
        // One crossing edge, six nodes per side, volume 11 min side ~ 11.
        assert!(s.expansion <= 1.0 / 6.0 + 1e-9);
    }
}
