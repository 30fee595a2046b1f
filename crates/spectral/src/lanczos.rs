//! Lanczos iteration with full reorthogonalization for large sparse
//! symmetric operators (here: graph Laplacians).
//!
//! The Laplacian's smallest eigenvalue is 0 with eigenvector **1**; the
//! algebraic connectivity λ₂ is the smallest eigenvalue on the orthogonal
//! complement of **1**, so the driver deflates **1** from every Krylov
//! vector. Full reorthogonalization keeps the basis numerically orthogonal
//! at the modest dimensions the experiments use (n ≤ a few thousand).

use crate::tridiag::{tridiagonal_eigenvalues, tridiagonal_eigenvector};

/// A symmetric linear operator given matrix-free.
pub trait LinOp {
    /// Dimension of the (square) operator.
    fn dim(&self) -> usize;
    /// Computes `y = A x`.
    fn apply(&self, x: &[f64], y: &mut [f64]);
}

/// Accumulator lanes of [`dot`]: eight independent partial sums, so the
/// loop vectorizes instead of waiting on one serial add chain.
const LANES: usize = 8;

/// `a · b`, summed in [`LANES`] interleaved partial sums folded by a fixed
/// pairwise tree, then the tail. The summation order depends only on the
/// length, so results are bit-repeatable.
fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    let (ca, cb) = (a.chunks_exact(LANES), b.chunks_exact(LANES));
    let tail: f64 = ca
        .remainder()
        .iter()
        .zip(cb.remainder())
        .map(|(x, y)| x * y)
        .sum();
    let mut acc = [0.0f64; LANES];
    for (x, y) in ca.zip(cb) {
        for k in 0..LANES {
            acc[k] += x[k] * y[k];
        }
    }
    // Fold in halves, lane k absorbing lane k + width: the pairs line up
    // with the loop's vector registers, so the loop needs no shuffles.
    let mut width = LANES;
    while width > 1 {
        width /= 2;
        for k in 0..width {
            acc[k] += acc[k + width];
        }
    }
    acc[0] + tail
}

fn norm(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

fn axpy(y: &mut [f64], alpha: f64, x: &[f64]) {
    for (yi, xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// Deterministic pseudo-random start vector (splitmix64-driven).
fn seeded_vector(n: usize, seed: u64) -> Vec<f64> {
    let mut state = seed.wrapping_add(0x9E3779B97F4A7C15);
    let mut next = move || {
        state = state.wrapping_add(0x9E3779B97F4A7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
        z ^ (z >> 31)
    };
    (0..n)
        .map(|_| (next() >> 11) as f64 / (1u64 << 53) as f64 - 0.5)
        .collect()
}

/// Result of a deflated Lanczos run.
#[derive(Clone, Debug)]
pub struct LanczosResult {
    /// Ritz values (ascending) of the operator restricted to the deflated
    /// subspace.
    pub ritz_values: Vec<f64>,
    /// The Ritz vector corresponding to the smallest Ritz value.
    pub smallest_vector: Vec<f64>,
}

/// Orthonormalizes `vs` by (twice-repeated) Gram–Schmidt, dropping vectors
/// that are numerically dependent on earlier ones or zero.
fn orthonormalize(vs: &[&[f64]]) -> Vec<Vec<f64>> {
    let mut basis: Vec<Vec<f64>> = Vec::with_capacity(vs.len());
    for v in vs {
        let mut u = v.to_vec();
        for _ in 0..2 {
            for b in &basis {
                let c = dot(&u, b);
                axpy(&mut u, -c, b);
            }
        }
        let nu = norm(&u);
        if nu > 1e-12 {
            for x in &mut u {
                *x /= nu;
            }
            basis.push(u);
        }
    }
    basis
}

/// Runs Lanczos on `op` restricted to the orthogonal complement of
/// `deflate` (typically the all-ones vector for a Laplacian), for at most
/// `max_steps` iterations, starting from seeded noise.
///
/// Returns `None` when the effective dimension is zero (e.g. `dim < 2`).
pub fn lanczos_deflated(
    op: &dyn LinOp,
    deflate: &[f64],
    max_steps: usize,
    seed: u64,
) -> Option<LanczosResult> {
    lanczos_multi_deflated(op, &[deflate], max_steps, seed)
}

/// Like [`lanczos_deflated`], but **warm-started**: the first Krylov vector
/// is `start` (deflated and normalized) instead of seeded noise. With a
/// start vector close to the target eigenvector — e.g. the previous Fiedler
/// estimate of a slightly perturbed graph — the smallest Ritz value
/// converges in a handful of iterations instead of from scratch.
///
/// A `start` that deflates to (numerically) zero returns `None`, exactly as
/// a degenerate dimension does; callers should fall back to the seeded
/// entry point.
pub fn lanczos_deflated_from(
    op: &dyn LinOp,
    deflate: &[f64],
    start: &[f64],
    max_steps: usize,
) -> Option<LanczosResult> {
    lanczos_multi_deflated_from(op, &[deflate], start, max_steps)
}

/// [`lanczos_deflated`] against a whole deflation *set*: the iteration runs
/// on the orthogonal complement of `span(deflates)`, so with the kernel and
/// the Fiedler vector deflated the smallest Ritz value is λ₃ — the
/// second-order drift signal the monitor's tracker chases. Starts from
/// seeded noise.
pub fn lanczos_multi_deflated(
    op: &dyn LinOp,
    deflates: &[&[f64]],
    max_steps: usize,
    seed: u64,
) -> Option<LanczosResult> {
    if op.dim() < 2 {
        return None;
    }
    let start = seeded_vector(op.dim(), seed);
    lanczos_multi_deflated_from(op, deflates, &start, max_steps)
}

/// The warm-started multi-vector twin of [`lanczos_deflated_from`]:
/// deflates every vector in `deflates` (orthonormalized internally;
/// dependent or zero vectors are dropped) and starts the Krylov basis from
/// `start`.
pub fn lanczos_multi_deflated_from(
    op: &dyn LinOp,
    deflates: &[&[f64]],
    start: &[f64],
    max_steps: usize,
) -> Option<LanczosResult> {
    let n = op.dim();
    if n < 2 {
        return None;
    }
    for d in deflates {
        assert_eq!(d.len(), n, "deflation vector dimension mismatch");
    }
    assert_eq!(start.len(), n, "start vector dimension mismatch");
    let deflate_basis = orthonormalize(deflates);
    let project = |v: &mut [f64]| {
        for u in &deflate_basis {
            let c = dot(v, u);
            axpy(v, -c, u);
        }
    };

    let steps = max_steps.min(n).max(1);
    // The sweep's whole workspace, allocated once: the Krylov basis as up
    // to `steps` contiguous rows of `n`, and the residual `w`. No step
    // allocates.
    let mut basis: Vec<f64> = Vec::with_capacity(steps * n);
    let mut w = vec![0.0f64; n];
    let mut alphas: Vec<f64> = Vec::with_capacity(steps);
    let mut betas: Vec<f64> = Vec::with_capacity(steps);

    // Start vector: caller-supplied, deflated, normalized.
    basis.extend_from_slice(start);
    project(&mut basis);
    let nv = norm(&basis);
    if nv < 1e-30 {
        return None;
    }
    for x in &mut basis {
        *x /= nv;
    }

    for j in 0..steps {
        let (prev, q) = basis.split_at(j * n);
        op.apply(q, &mut w);
        project(&mut w);
        let alpha = dot(&w, q);
        alphas.push(alpha);
        // w -= alpha * v_j + beta_{j-1} * v_{j-1}
        axpy(&mut w, -alpha, q);
        if j > 0 {
            axpy(&mut w, -betas[j - 1], &prev[(j - 1) * n..]);
        }
        // Full reorthogonalization (twice for numerical safety).
        for _ in 0..2 {
            for q in basis.chunks_exact(n) {
                let c = dot(&w, q);
                axpy(&mut w, -c, q);
            }
            project(&mut w);
        }
        let beta = norm(&w);
        if beta < 1e-12 || j + 1 == steps {
            break;
        }
        betas.push(beta);
        basis.extend(w.iter().map(|x| x / beta));
    }

    let k = alphas.len();
    let ritz_values = tridiagonal_eigenvalues(&alphas, &betas[..k - 1]);
    let smallest = ritz_values[0];
    let coeffs = tridiagonal_eigenvector(&alphas, &betas[..k - 1], smallest);
    let mut vec = vec![0.0f64; n];
    for (c, q) in coeffs.iter().zip(basis.chunks_exact(n)) {
        axpy(&mut vec, *c, q);
    }
    let nv = norm(&vec);
    if nv > 0.0 {
        for x in &mut vec {
            *x /= nv;
        }
    }
    Some(LanczosResult {
        ritz_values,
        smallest_vector: vec,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SymMatrix;

    impl LinOp for SymMatrix {
        fn dim(&self) -> usize {
            SymMatrix::dim(self)
        }
        fn apply(&self, x: &[f64], y: &mut [f64]) {
            SymMatrix::apply(self, x, y)
        }
    }

    #[test]
    fn recovers_second_eigenvalue_of_diagonal() {
        // Operator diag(0, 1, 5) with deflation of e0 (its 0-eigenvector):
        // smallest remaining eigenvalue is 1.
        let mut m = SymMatrix::zeros(3);
        m.set(1, 1, 1.0);
        m.set(2, 2, 5.0);
        let deflate = vec![1.0, 0.0, 0.0];
        let r = lanczos_deflated(&m, &deflate, 10, 7).unwrap();
        assert!((r.ritz_values[0] - 1.0).abs() < 1e-9, "{:?}", r.ritz_values);
    }

    #[test]
    fn smallest_vector_is_deflation_orthogonal() {
        let mut m = SymMatrix::zeros(4);
        for i in 0..4 {
            m.set(i, i, (i * i) as f64);
        }
        let deflate = vec![0.5; 4];
        let r = lanczos_deflated(&m, &deflate, 10, 3).unwrap();
        let d = dot(&r.smallest_vector, &deflate);
        assert!(d.abs() < 1e-8, "dot with deflation vector = {d}");
    }

    #[test]
    fn multi_deflation_recovers_third_eigenvalue() {
        // diag(0, 1, 5, 9): deflating e0 and e1 leaves 5 as the smallest.
        let mut m = SymMatrix::zeros(4);
        m.set(1, 1, 1.0);
        m.set(2, 2, 5.0);
        m.set(3, 3, 9.0);
        let d0 = vec![1.0, 0.0, 0.0, 0.0];
        let d1 = vec![0.0, 1.0, 0.0, 0.0];
        let r = lanczos_multi_deflated(&m, &[&d0, &d1], 10, 11).unwrap();
        assert!((r.ritz_values[0] - 5.0).abs() < 1e-9, "{:?}", r.ritz_values);
    }

    #[test]
    fn dependent_deflation_vectors_are_dropped() {
        // Both deflation vectors span the same line; only one component is
        // removed, so the smallest remaining eigenvalue is 1, not 5.
        let mut m = SymMatrix::zeros(3);
        m.set(1, 1, 1.0);
        m.set(2, 2, 5.0);
        let d0 = vec![1.0, 0.0, 0.0];
        let d1 = vec![2.0, 0.0, 0.0];
        let r = lanczos_multi_deflated(&m, &[&d0, &d1], 10, 13).unwrap();
        assert!((r.ritz_values[0] - 1.0).abs() < 1e-9, "{:?}", r.ritz_values);
    }

    #[test]
    fn tiny_dimension_returns_none() {
        let m = SymMatrix::zeros(1);
        assert!(lanczos_deflated(&m, &[1.0], 5, 1).is_none());
    }

    #[test]
    fn zero_deflation_vector_is_tolerated() {
        let mut m = SymMatrix::zeros(3);
        m.set(0, 0, 2.0);
        m.set(1, 1, 3.0);
        m.set(2, 2, 4.0);
        let r = lanczos_deflated(&m, &[0.0; 3], 10, 5).unwrap();
        assert!((r.ritz_values[0] - 2.0).abs() < 1e-9);
    }

    /// Kahan-compensated sum of the same rounded products `dot` adds.
    fn kahan_dot(a: &[f64], b: &[f64]) -> f64 {
        let (mut sum, mut carry) = (0.0f64, 0.0f64);
        for (x, y) in a.iter().zip(b) {
            let term = x * y - carry;
            let next = sum + term;
            carry = (next - sum) - term;
            sum = next;
        }
        sum
    }

    /// Checks `dot(a, b)` against the Kahan reference to 1e-12 of
    /// `Σ|aᵢbᵢ|`, the scale any summation order's rounding error is
    /// bounded by, and that it is bit-repeatable and symmetric.
    fn assert_dot_close(a: &[f64], b: &[f64]) {
        let got = dot(a, b);
        let scale: f64 = a.iter().zip(b).map(|(x, y)| (x * y).abs()).sum();
        let err = (got - kahan_dot(a, b)).abs();
        assert!(
            err <= 1e-12 * scale,
            "len {}: error {err:e} vs scale {scale:e}",
            a.len()
        );
        assert_eq!(got.to_bits(), dot(a, b).to_bits(), "repeatable");
        assert_eq!(got.to_bits(), dot(b, a).to_bits(), "symmetric");
    }

    const LENGTHS: [usize; 12] = [0, 1, 3, 7, 8, 9, 15, 16, 17, 1000, 1003, 10_007];

    #[test]
    fn lane_split_dot_matches_kahan_on_random_vectors() {
        for (k, &len) in LENGTHS.iter().enumerate() {
            let a = seeded_vector(len, 2 * k as u64);
            let b = seeded_vector(len, 2 * k as u64 + 1);
            assert_dot_close(&a, &b);
            // On same-sign sums the bound is relative to the result itself.
            let n = norm(&a);
            let reference = kahan_dot(&a, &a).sqrt();
            assert!(
                (n - reference).abs() <= 1e-12 * reference,
                "len {len}: norm {n} vs {reference}"
            );
            assert_eq!(n.to_bits(), norm(&a).to_bits());
        }
    }

    #[test]
    fn lane_split_dot_matches_kahan_under_cancellation() {
        for (k, &len) in LENGTHS.iter().enumerate() {
            // Adjacent entries nearly cancel: ±1e8-sized products leave a
            // result around 1e-3, so almost every significant bit of the
            // partial sums cancels in the final combine.
            let big = seeded_vector(len, 100 + k as u64);
            let small = seeded_vector(len, 200 + k as u64);
            let a: Vec<f64> = (0..len)
                .map(|i| {
                    let pair = big[i & !1] * 1e8;
                    if i % 2 == 0 {
                        pair
                    } else {
                        small[i] * 1e-3 - pair
                    }
                })
                .collect();
            let b: Vec<f64> = (0..len).map(|i| 1.0 + small[i] * 1e-9).collect();
            assert_dot_close(&a, &b);
            let ones = vec![1.0; len];
            assert_dot_close(&a, &ones);
        }
    }
}
