//! Warm-started spectral tracking over the incremental CSR.
//!
//! The paper's expansion invariant (Theorem 2.3, stated through the Cheeger
//! inequality) is monitored two ways: λ₂ of the *normalized* Laplacian, and
//! a Cheeger sweep cut over the Fiedler vector of the *unnormalized*
//! Laplacian. A fresh solve restarts Lanczos from seeded noise every time;
//! under the small perturbations one healing event causes, the previous
//! eigenvector is an excellent start vector, so [`SpectralGapTracker`]
//! re-runs short restarted Lanczos sweeps seeded with it and converges in a
//! handful of iterations. Every vector it carries — λ₂, the optional λ₃,
//! and the sweep order — is chased this way, so a monitor checkpoint never
//! runs a cold eigensolve; the cold 260-step solve is left to the offline
//! `xheal_spectral::sweep_cut` and `xheal_metrics::expansion_report`. The
//! warm λ₂ agrees with the from-scratch `normalized_algebraic_connectivity`
//! to well below 1e-6 at checkpoints (asserted by the `monitor_overhead`
//! harness).

use xheal_graph::{CsrView, NodeId};
use xheal_spectral::{
    lanczos_multi_deflated, lanczos_multi_deflated_from, CsrLaplacian, CsrNormalizedLaplacian,
    LinOp,
};

/// Lanczos steps per warm restart sweep.
const WARM_STEPS: usize = 24;
/// Restart sweeps before giving up on further residual progress.
const MAX_RESTARTS: usize = 40;
/// Residual `‖L v − λ v‖` declaring the Ritz pair converged (the Ritz
/// *value* error is then O(residual² / spectral spread) — far below the
/// 1e-6 agreement budget).
const RESIDUAL_TOL: f64 = 1e-9;
/// Amplitude of the seeded noise filling coordinates without a warm value.
const FILL: f64 = 1e-3;

/// Result of one warm-started gap estimate.
#[derive(Clone, Copy, Debug)]
pub struct GapEstimate {
    /// λ₂ of the normalized Laplacian (0.0 for degenerate graphs, matching
    /// `normalized_algebraic_connectivity`).
    pub lambda: f64,
    /// λ₃ of the normalized Laplacian, chased only when the tracker was
    /// built with [`SpectralGapTracker::with_lambda3`] and the graph has at
    /// least three nodes. The λ₂/λ₃ pair separates "the whole graph is
    /// loosening" from "one cut is about to open": a collapsing λ₂ with a
    /// healthy λ₃ pins the damage to a single near-disconnecting cut.
    pub lambda3: Option<f64>,
    /// Restart sweeps spent on the λ₂ chase (0 for degenerate graphs).
    pub restarts: usize,
    /// Final λ₂ residual `‖L v − λ v‖` (0.0 for degenerate graphs).
    pub residual: f64,
}

/// A Ritz triple `(value, vector, residual)`.
type Ritz = (f64, Vec<f64>, f64);

/// One eigenvector estimate carried across topology generations: the node
/// ids of the snapshot it was computed on (ascending, as every `CsrView`
/// lists them) beside its values, so it survives node churn and CSR
/// renumbering.
#[derive(Clone, Debug, Default)]
struct WarmVector {
    nodes: Vec<NodeId>,
    values: Vec<f64>,
}

impl WarmVector {
    /// Chases the smallest eigenpair of `op` off `deflates`, starting from
    /// the stored estimate, and stores the result for the next call (or
    /// forgets the estimate when the chase finds nothing). Returns the best
    /// Ritz triple and the restart sweeps spent.
    fn chase(
        &mut self,
        csr: &CsrView,
        op: &dyn LinOp,
        deflates: &[&[f64]],
        seed: u64,
    ) -> (Option<Ritz>, usize) {
        let steps = WARM_STEPS.min(csr.len() - 1).max(1);
        let start = self.start(csr);
        let (best, restarts) = chase(op, deflates, start, steps, seed);
        self.clear();
        if let Some((_, vec, _)) = &best {
            self.nodes.extend_from_slice(csr.nodes());
            self.values.extend_from_slice(vec);
        }
        (best, restarts)
    }

    /// Maps the stored estimate onto the current node order with one merge
    /// walk over the two ascending id lists. Nodes without a stored value
    /// (all of them on a cold start) get seeded per-id noise, so a grown
    /// graph still explores its new coordinates. The noise is hashed
    /// rather than patterned: an alternating ±fill is an exact Laplacian
    /// eigenvector of every even-length circulant graph, and a Lanczos run
    /// started on an eigenvector stops at it.
    fn start(&self, csr: &CsrView) -> Vec<f64> {
        let mut k = 0;
        csr.nodes()
            .iter()
            .map(|&v| {
                while k < self.nodes.len() && self.nodes[k] < v {
                    k += 1;
                }
                if self.nodes.get(k) == Some(&v) {
                    self.values[k]
                } else {
                    noise(v)
                }
            })
            .collect()
    }

    fn clear(&mut self) {
        self.nodes.clear();
        self.values.clear();
    }
}

/// Seeded per-node noise in `[-FILL, FILL)`: splitmix64 of the id.
fn noise(v: NodeId) -> f64 {
    let mut z = v.as_u64().wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^= z >> 31;
    FILL * (2.0 * ((z >> 11) as f64 / (1u64 << 53) as f64) - 1.0)
}

/// Carries the spectral estimates across topology generations: the
/// normalized-Laplacian Fiedler vector behind λ₂, optionally a λ₃ vector
/// ([`SpectralGapTracker::with_lambda3`]: a second deflated chase,
/// deflating {kernel, current Fiedler estimate}), and the
/// unnormalized-Laplacian Fiedler vector the sweep cut orders nodes by
/// ([`SpectralGapTracker::sweep_vector`]). Each is warm-started from its
/// own previous value.
#[derive(Clone, Debug, Default)]
pub struct SpectralGapTracker {
    lambda2: WarmVector,
    lambda3: WarmVector,
    sweep: WarmVector,
    track_lambda3: bool,
}

impl SpectralGapTracker {
    /// Fresh tracker (the first estimate runs cold); λ₂ only.
    pub fn new() -> Self {
        SpectralGapTracker::default()
    }

    /// Fresh tracker that also chases λ₃ on every estimate.
    pub fn with_lambda3() -> Self {
        SpectralGapTracker {
            track_lambda3: true,
            ..SpectralGapTracker::default()
        }
    }

    /// Whether this tracker chases λ₃ in addition to λ₂.
    pub fn tracks_lambda3(&self) -> bool {
        self.track_lambda3
    }

    /// Estimates λ₂ of the normalized Laplacian of `csr`, warm-started from
    /// the previous call's Fiedler vector, and stores the new vector for
    /// the next call. When λ₃ tracking is on, runs a second deflated chase
    /// for λ₃ (warm-started from the previous λ₃ vector) with the fresh
    /// Fiedler estimate joining the kernel in the deflation set.
    pub fn estimate(&mut self, csr: &CsrView) -> GapEstimate {
        let n = csr.len();
        let degenerate = |restarts| GapEstimate {
            lambda: 0.0,
            lambda3: None,
            restarts,
            residual: 0.0,
        };
        if n < 2 || csr.edge_count() == 0 {
            self.lambda2.clear();
            self.lambda3.clear();
            return degenerate(0);
        }
        let op = CsrNormalizedLaplacian::new(csr);
        let kernel = op.kernel();
        let (best, restarts) = self.lambda2.chase(csr, &op, &[&kernel], 0x5EED);
        let Some((lambda, vec, residual)) = best else {
            self.lambda3.clear();
            return degenerate(restarts);
        };
        let lambda3 = if self.track_lambda3 && n >= 3 {
            let (best3, _) = self.lambda3.chase(csr, &op, &[&kernel, &vec], 0x5EED3);
            best3.map(|(l3, _, _)| l3.max(0.0))
        } else {
            self.lambda3.clear();
            None
        };
        GapEstimate {
            lambda: lambda.max(0.0),
            lambda3,
            restarts,
            residual,
        }
    }

    /// Warm-started Fiedler vector of the **unnormalized** Laplacian of
    /// `csr` (deflating the all-ones vector), indexed like `csr.nodes()`.
    /// This is the eigenvector the cold `xheal_spectral::sweep_cut_csr`
    /// solves for, so sweeping it with `xheal_spectral::sweep_cut_by`
    /// reports the same Cheeger cut without the cold solve. Stores the
    /// vector for the next call; `None` for graphs with fewer than 2 nodes
    /// or no edges.
    pub fn sweep_vector(&mut self, csr: &CsrView) -> Option<Vec<f64>> {
        self.chase_sweep(csr).0
    }

    /// [`SpectralGapTracker::sweep_vector`] with the restart sweeps spent.
    pub(crate) fn chase_sweep(&mut self, csr: &CsrView) -> (Option<Vec<f64>>, usize) {
        if csr.len() < 2 || csr.edge_count() == 0 {
            self.sweep.clear();
            return (None, 0);
        }
        let ones = vec![1.0; csr.len()];
        let (best, restarts) = self
            .sweep
            .chase(csr, &CsrLaplacian::new(csr), &[&ones], 0x5EED5);
        (best.map(|(_, vec, _)| vec), restarts)
    }
}

/// Restarted warm Lanczos sweeps against a fixed deflation set: returns the
/// best `(ritz value, vector, residual)` triple and the sweeps spent. A warm
/// vector that deflates to zero (e.g. the whole previous estimate died with
/// deleted nodes) falls back to seeded noise.
fn chase(
    op: &dyn LinOp,
    deflates: &[&[f64]],
    mut start: Vec<f64>,
    steps: usize,
    seed: u64,
) -> (Option<Ritz>, usize) {
    let mut best: Option<Ritz> = None;
    let mut restarts = 0;
    let mut product = vec![0.0f64; start.len()];
    while restarts < MAX_RESTARTS {
        restarts += 1;
        let r = match lanczos_multi_deflated_from(op, deflates, &start, steps) {
            Some(r) => r,
            None => match lanczos_multi_deflated(op, deflates, steps, seed ^ restarts as u64) {
                Some(r) => r,
                None => break,
            },
        };
        let lambda = r.ritz_values[0];
        let vec = r.smallest_vector;
        let sweep_residual = residual(op, lambda, &vec, &mut product);
        // Ritz values bound the target from above, so the smallest sweep
        // wins; its residual travels with it (never a later sweep's).
        let improved = best.as_ref().is_none_or(|&(l, _, _)| lambda <= l + 1e-15);
        if improved {
            best = Some((lambda, vec.clone(), sweep_residual));
        }
        if sweep_residual < RESIDUAL_TOL {
            break;
        }
        start = vec;
    }
    (best, restarts)
}

/// `‖L v − λ v‖`, with `y` as scratch for `L v`.
fn residual(op: &dyn LinOp, lambda: f64, v: &[f64], y: &mut [f64]) -> f64 {
    op.apply(v, y);
    y.iter()
        .zip(v)
        .map(|(yi, vi)| {
            let r = yi - lambda * vi;
            r * r
        })
        .sum::<f64>()
        .sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};
    use xheal_graph::{generators, Graph, NodeId};
    use xheal_spectral::normalized_algebraic_connectivity;

    #[test]
    fn cold_estimate_matches_reference() {
        let mut rng = StdRng::seed_from_u64(3);
        let g = generators::random_regular(80, 6, &mut rng);
        let mut tr = SpectralGapTracker::new();
        let est = tr.estimate(&g.csr_view());
        let exact = normalized_algebraic_connectivity(&g);
        assert!(
            (est.lambda - exact).abs() < 1e-6,
            "warm {} vs reference {exact}",
            est.lambda
        );
    }

    #[test]
    fn warm_restart_converges_faster_after_perturbation() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut g = generators::random_regular(120, 6, &mut rng);
        let mut tr = SpectralGapTracker::new();
        let cold = tr.estimate(&g.csr_view());
        // Perturb: drop one node, patch nothing (still connected w.h.p.).
        g.remove_node(NodeId::new(0)).unwrap();
        let warm = tr.estimate(&g.csr_view());
        let exact = normalized_algebraic_connectivity(&g);
        assert!(
            (warm.lambda - exact).abs() < 1e-6,
            "warm {} vs reference {exact}",
            warm.lambda
        );
        assert!(
            warm.restarts <= cold.restarts,
            "warm restarts {} should not exceed cold {}",
            warm.restarts,
            cold.restarts
        );
    }

    #[test]
    fn lambda3_matches_dense_reference() {
        use xheal_spectral::{jacobi_eigen, normalized_laplacian_dense};
        let mut rng = StdRng::seed_from_u64(19);
        let mut g = generators::random_regular(60, 6, &mut rng);
        let mut tr = SpectralGapTracker::with_lambda3();
        assert!(tr.tracks_lambda3());
        for round in 0..3 {
            let est = tr.estimate(&g.csr_view());
            let (_, m) = normalized_laplacian_dense(&g);
            let eig = jacobi_eigen(&m);
            assert!(
                (est.lambda - eig.values[1]).abs() < 1e-6,
                "round {round}: λ₂ {} vs dense {}",
                est.lambda,
                eig.values[1]
            );
            let l3 = est.lambda3.expect("λ₃ tracked");
            assert!(
                (l3 - eig.values[2]).abs() < 1e-6,
                "round {round}: λ₃ {l3} vs dense {}",
                eig.values[2]
            );
            // Perturb for the next (warm) round.
            g.remove_node(NodeId::new(round as u64)).unwrap();
        }
    }

    #[test]
    fn lambda3_is_off_by_default() {
        let mut rng = StdRng::seed_from_u64(23);
        let g = generators::random_regular(40, 4, &mut rng);
        let mut tr = SpectralGapTracker::new();
        assert!(!tr.tracks_lambda3());
        assert!(tr.estimate(&g.csr_view()).lambda3.is_none());
    }

    /// λ₂ of the normalized Laplacian of `ring_with_chords(n)` in closed
    /// form: the graph is circulant with offsets 1, 2, 4, … below n/2, so
    /// its spectrum is `1 − (2/d)·Σ_s cos(2πks/n)` over `k = 1..n`.
    fn ring_with_chords_lambda2(n: usize) -> f64 {
        let offsets: Vec<usize> = std::iter::successors(Some(1usize), |s| Some(s * 2))
            .take_while(|&s| s == 1 || s < n.div_ceil(2))
            .collect();
        let d = 2.0 * offsets.len() as f64;
        (1..n)
            .map(|k| {
                let sum: f64 = offsets
                    .iter()
                    .map(|&s| (2.0 * std::f64::consts::PI * (k * s) as f64 / n as f64).cos())
                    .sum();
                1.0 - 2.0 / d * sum
            })
            .fold(f64::INFINITY, f64::min)
    }

    #[test]
    fn cold_start_on_even_ring_with_chords_finds_the_true_gap() {
        // The alternating k = n/2 Fourier mode is an exact eigenvector of
        // every even-length ring with chords (eigenvalue 4/d), so a
        // patterned cold start would stop there instead of at λ₂: at
        // n = 2000 that reads 0.2 against the true 0.145068.
        assert!((ring_with_chords_lambda2(2000) - 0.145068).abs() < 1e-6);
        for n in [2000, 10_000] {
            let g = generators::ring_with_chords(n);
            let exact = ring_with_chords_lambda2(n);
            let est = SpectralGapTracker::new().estimate(&g.csr_view());
            assert!(
                (est.lambda - exact).abs() < 1e-6,
                "n = {n}: tracker {} vs closed form {exact}",
                est.lambda
            );
        }
    }

    #[test]
    fn sweep_vector_is_the_unnormalized_fiedler_vector() {
        use xheal_spectral::{fiedler_vector_csr, jacobi_eigen, laplacian_dense_csr};
        let mut rng = StdRng::seed_from_u64(37);
        let mut g = generators::random_regular(50, 4, &mut rng);
        let mut tr = SpectralGapTracker::new();
        for round in 0..3u64 {
            let csr = g.csr_view();
            let eig = jacobi_eigen(&laplacian_dense_csr(&csr));
            assert!(eig.values[2] - eig.values[1] > 1e-3, "λ₂ is simple");
            let warm = tr.sweep_vector(&csr).expect("non-degenerate");
            let cold: Vec<f64> = fiedler_vector_csr(&csr)
                .unwrap()
                .into_iter()
                .map(|(_, x)| x)
                .collect();
            // Unit vectors spanning the same simple eigenspace: |⟨w, c⟩| = 1.
            let dot: f64 = warm.iter().zip(&cold).map(|(a, b)| a * b).sum();
            assert!(
                (dot.abs() - 1.0).abs() < 1e-9,
                "round {round}: ⟨w, c⟩ = {dot}"
            );
            g.remove_node(NodeId::new(round)).unwrap();
        }
        assert!(tr.sweep_vector(&Graph::new().csr_view()).is_none());
        assert!(tr.sweep_vector(&generators::path(1).csr_view()).is_none());
    }

    #[test]
    fn degenerate_graphs_report_zero() {
        let mut tr = SpectralGapTracker::new();
        let empty = Graph::new();
        assert_eq!(tr.estimate(&empty.csr_view()).lambda, 0.0);
        let mut single = Graph::new();
        single.add_node(NodeId::new(5)).unwrap();
        assert_eq!(tr.estimate(&single.csr_view()).lambda, 0.0);
        // Disconnected: λ₂ of the normalized Laplacian is 0.
        let mut disc = generators::complete(5);
        disc.add_node(NodeId::new(50)).unwrap();
        let est = tr.estimate(&disc.csr_view());
        assert!(est.lambda < 1e-8, "disconnected gap {}", est.lambda);
    }
}
