//! Singular value decomposition via one-sided Jacobi rotations.
//!
//! The paper solves the over-determined consequent least-squares system with
//! SVD (§2.2.2). One-sided Jacobi (Hestenes) is compact, numerically robust
//! and more than fast enough for the design matrices arising here (thousands
//! of rows, tens of columns): it iteratively orthogonalises the columns of
//! `A`, yielding `A = U Σ Vᵀ` with `U` column-orthonormal (thin SVD).

// analyze: hot-path
// lint: allow(PANIC_IN_LIB, file) -- dense linear-algebra kernel: dimensions are checked once at entry

use crate::matrix::Matrix;
use crate::{MathError, Result};

/// Thin singular value decomposition `A = U Σ Vᵀ`.
///
/// `U` is `m x n` with orthonormal columns, `V` is `n x n` orthogonal and
/// `sigma` holds the `n` singular values in non-increasing order.
///
/// ```
/// use cqm_math::matrix::Matrix;
/// use cqm_math::svd::Svd;
///
/// let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, 2.0], &[0.0, 0.0]]);
/// let svd = Svd::new(&a).unwrap();
/// assert!((svd.sigma[0] - 3.0).abs() < 1e-12);
/// assert!((svd.sigma[1] - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, `m x n`, orthonormal columns.
    pub u: Matrix,
    /// Singular values, length `n`, non-increasing.
    pub sigma: Vec<f64>,
    /// Right singular vectors, `n x n`, orthogonal.
    pub v: Matrix,
}

/// Sweep budget: each sweep visits all column pairs once.
const MAX_SWEEPS: usize = 60;

impl Svd {
    /// Compute the thin SVD of `a` (requires `rows >= cols`; transpose the
    /// input yourself for wide matrices — callers in this workspace always
    /// have tall design matrices).
    ///
    /// # Errors
    ///
    /// * [`MathError::DimensionMismatch`] if `a` is wider than tall.
    /// * [`MathError::NoConvergence`] if Jacobi sweeps fail to orthogonalise
    ///   the columns within the sweep budget (does not occur for finite
    ///   inputs in practice).
    pub fn new(a: &Matrix) -> Result<Self> {
        let m = a.rows();
        let n = a.cols();
        if m < n {
            return Err(MathError::DimensionMismatch {
                context: "svd requires rows >= cols",
                expected: n,
                actual: m,
            });
        }
        // Sweep over column-major working copies so every column read is a
        // contiguous slice: column `j` of `U` is `u[j * m..(j + 1) * m]`, of
        // `V` is `v[j * n..(j + 1) * n]`. Rotations accumulate into `V`.
        let mut u = vec![0.0; m * n];
        for (i, row) in a.as_slice().chunks_exact(n).enumerate() {
            for (j, &x) in row.iter().enumerate() {
                u[j * m + i] = x;
            }
        }
        let mut v = vec![0.0; n * n];
        for j in 0..n {
            v[j * n + j] = 1.0;
        }
        // Squared column norms, each summed in row order. A rotation
        // recomputes both of its columns' norms from the values it stores,
        // again in row order, so the cached value is bit-identical to
        // summing the column afresh at the next pair check.
        let mut norm2 = vec![0.0; n];
        for (nj, col) in norm2.iter_mut().zip(u.chunks_exact(m)) {
            *nj = sum_sq(col);
        }

        let tol = 1e-13;
        // Columns whose squared norm has collapsed to rounding noise relative
        // to the whole matrix are numerically zero; rotating them against
        // each other cycles forever on rank-deficient inputs.
        let scale2: f64 = a.as_slice().iter().map(|x| x * x).sum();
        let dead = 1e-26 * scale2;
        let mut converged = false;
        for _ in 0..MAX_SWEEPS {
            let mut rotations = 0usize;
            for p in 0..n {
                for q in (p + 1)..n {
                    // Gram entries over columns p and q.
                    let app = norm2[p];
                    let aqq = norm2[q];
                    if app <= dead || aqq <= dead {
                        continue;
                    }
                    let (up, uq) = column_pair(&mut u, m, p, q);
                    let mut apq = 0.0;
                    for (&x, &y) in up.iter().zip(uq.iter()) {
                        apq += x * y;
                    }
                    if apq.abs() <= tol * (app * aqq).sqrt().max(f64::MIN_POSITIVE) {
                        continue;
                    }
                    rotations += 1;
                    // Jacobi rotation that annihilates the (p,q) Gram entry.
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    let (np, nq) = rotate(up, uq, c, s);
                    norm2[p] = np;
                    norm2[q] = nq;
                    let (vp, vq) = column_pair(&mut v, n, p, q);
                    rotate(vp, vq, c, s);
                }
            }
            if rotations == 0 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(MathError::NoConvergence {
                method: "jacobi-svd",
                iterations: MAX_SWEEPS,
            });
        }

        // Column norms are the singular values; normalise U's columns.
        let sigma: Vec<f64> = norm2.iter().map(|s2| s2.sqrt()).collect();
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));

        let mut u_sorted = Matrix::zeros(m, n);
        let mut v_sorted = Matrix::zeros(n, n);
        let mut sigma_sorted = vec![0.0; n];
        for (new_j, &old_j) in order.iter().enumerate() {
            let s = sigma[old_j];
            sigma_sorted[new_j] = s;
            // Zero columns (rank deficiency) keep a zero U column; V is still
            // orthogonal because rotations preserved it.
            let inv = if s > 0.0 { 1.0 / s } else { 0.0 };
            for (i, &x) in u[old_j * m..(old_j + 1) * m].iter().enumerate() {
                u_sorted[(i, new_j)] = x * inv;
            }
            for (i, &x) in v[old_j * n..(old_j + 1) * n].iter().enumerate() {
                v_sorted[(i, new_j)] = x;
            }
        }

        Ok(Svd {
            u: u_sorted,
            sigma: sigma_sorted,
            v: v_sorted,
        })
    }

    /// Effective numerical rank: singular values above the Jacobi noise
    /// floor `max(m, n) * sigma_max * 1e-13`.
    pub fn rank(&self) -> usize {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let tol = self.u.rows().max(self.v.rows()) as f64 * smax * 1e-13;
        self.sigma.iter().filter(|&&s| s > tol).count()
    }

    /// Condition number `sigma_max / sigma_min` (infinite if rank-deficient).
    pub fn condition_number(&self) -> f64 {
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let smin = self.sigma.last().copied().unwrap_or(0.0);
        // lint: allow(NAN_UNSAFE_CMP) -- an exactly-zero singular value is rank deficiency; the condition number is infinite by definition
        if smin == 0.0 {
            f64::INFINITY
        } else {
            smax / smin
        }
    }

    /// Minimum-norm least-squares solution of `A x ≈ b` via the
    /// pseudo-inverse: `x = V Σ⁺ Uᵀ b`. Small singular values (below the
    /// rank tolerance) are truncated, which is what makes the SVD route
    /// robust for the nearly collinear rule-activation columns ANFIS
    /// produces.
    ///
    /// # Errors
    ///
    /// Returns [`MathError::DimensionMismatch`] if `b.len() != rows`.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let m = self.u.rows();
        let n = self.v.rows();
        if b.len() != m {
            return Err(MathError::DimensionMismatch {
                context: "svd solve rhs",
                expected: m,
                actual: b.len(),
            });
        }
        let smax = self.sigma.first().copied().unwrap_or(0.0);
        let tol = m.max(n) as f64 * smax * 1e-13;
        // y = Σ⁺ Uᵀ b
        let mut y = vec![0.0; n];
        for j in 0..n {
            if self.sigma[j] <= tol {
                continue;
            }
            let utb: f64 = (0..m).map(|i| self.u[(i, j)] * b[i]).sum();
            y[j] = utb / self.sigma[j];
        }
        // x = V y
        Ok((0..n)
            .map(|i| (0..n).map(|j| self.v[(i, j)] * y[j]).sum())
            .collect())
    }

    /// Reconstruct `U Σ Vᵀ` (for testing / diagnostics).
    pub fn reconstruct(&self) -> Matrix {
        let m = self.u.rows();
        let n = self.v.rows();
        let mut out = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for k in 0..n {
                    acc += self.u[(i, k)] * self.sigma[k] * self.v[(j, k)];
                }
                out[(i, j)] = acc;
            }
        }
        out
    }
}

/// Sum of squares accumulated in index order (the order the pair check and
/// the rotation both use, so cached norms match a fresh sum bit for bit).
fn sum_sq(col: &[f64]) -> f64 {
    let mut acc = 0.0;
    for &x in col {
        acc += x * x;
    }
    acc
}

/// Disjoint mutable views of columns `p < q` of a column-major buffer whose
/// columns are `len` long.
fn column_pair(buf: &mut [f64], len: usize, p: usize, q: usize) -> (&mut [f64], &mut [f64]) {
    let (lo, hi) = buf.split_at_mut(q * len);
    (&mut lo[p * len..(p + 1) * len], &mut hi[..len])
}

/// Apply the plane rotation `(c, s)` to the column pair in place and return
/// the two new squared norms, summed in index order.
fn rotate(xp: &mut [f64], xq: &mut [f64], c: f64, s: f64) -> (f64, f64) {
    let mut np = 0.0;
    let mut nq = 0.0;
    for (a, b) in xp.iter_mut().zip(xq.iter_mut()) {
        let (x, y) = (*a, *b);
        let rp = c * x - s * y;
        let rq = s * x + c * y;
        *a = rp;
        *b = rq;
        np += rp * rp;
        nq += rq * rq;
    }
    (np, nq)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The row-major one-sided Jacobi this module shipped before the sweep
    /// moved to column-major copies with cached norms. It recomputes every
    /// Gram entry from a strided column walk; kept only as the oracle the
    /// production sweep must match bit for bit.
    fn row_major_reference(a: &Matrix) -> Result<Svd> {
        let m = a.rows();
        let n = a.cols();
        if m < n {
            return Err(MathError::DimensionMismatch {
                context: "svd requires rows >= cols",
                expected: n,
                actual: m,
            });
        }
        let mut u = a.clone();
        let mut v = Matrix::identity(n);
        let tol = 1e-13;
        let scale2: f64 = a.as_slice().iter().map(|x| x * x).sum();
        let dead = 1e-26 * scale2;
        let mut converged = false;
        for _ in 0..MAX_SWEEPS {
            let mut rotations = 0usize;
            for p in 0..n {
                for q in (p + 1)..n {
                    let mut app = 0.0;
                    let mut aqq = 0.0;
                    let mut apq = 0.0;
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        app += up * up;
                        aqq += uq * uq;
                        apq += up * uq;
                    }
                    if app <= dead
                        || aqq <= dead
                        || apq.abs() <= tol * (app * aqq).sqrt().max(f64::MIN_POSITIVE)
                    {
                        continue;
                    }
                    rotations += 1;
                    let tau = (aqq - app) / (2.0 * apq);
                    let t = tau.signum() / (tau.abs() + (1.0 + tau * tau).sqrt());
                    let c = 1.0 / (1.0 + t * t).sqrt();
                    let s = c * t;
                    for i in 0..m {
                        let up = u[(i, p)];
                        let uq = u[(i, q)];
                        u[(i, p)] = c * up - s * uq;
                        u[(i, q)] = s * up + c * uq;
                    }
                    for i in 0..n {
                        let vp = v[(i, p)];
                        let vq = v[(i, q)];
                        v[(i, p)] = c * vp - s * vq;
                        v[(i, q)] = s * vp + c * vq;
                    }
                }
            }
            if rotations == 0 {
                converged = true;
                break;
            }
        }
        if !converged {
            return Err(MathError::NoConvergence {
                method: "jacobi-svd",
                iterations: MAX_SWEEPS,
            });
        }
        let mut order: Vec<usize> = (0..n).collect();
        let mut sigma = vec![0.0; n];
        for (j, s) in sigma.iter_mut().enumerate() {
            *s = (0..m).map(|i| u[(i, j)] * u[(i, j)]).sum::<f64>().sqrt();
        }
        order.sort_by(|&i, &j| sigma[j].total_cmp(&sigma[i]));
        let mut u_sorted = Matrix::zeros(m, n);
        let mut v_sorted = Matrix::zeros(n, n);
        let mut sigma_sorted = vec![0.0; n];
        for (new_j, &old_j) in order.iter().enumerate() {
            let s = sigma[old_j];
            sigma_sorted[new_j] = s;
            let inv = if s > 0.0 { 1.0 / s } else { 0.0 };
            for i in 0..m {
                u_sorted[(i, new_j)] = u[(i, old_j)] * inv;
            }
            for i in 0..n {
                v_sorted[(i, new_j)] = v[(i, old_j)];
            }
        }
        Ok(Svd {
            u: u_sorted,
            sigma: sigma_sorted,
            v: v_sorted,
        })
    }

    /// Deterministic uniform draws in `[-1, 1)` (LCG; no dev-dependency).
    struct Lcg(u64);

    impl Lcg {
        fn next(&mut self) -> f64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((self.0 >> 33) as f64 / (1u64 << 31) as f64) - 1.0
        }

        fn matrix(&mut self, m: usize, n: usize) -> Matrix {
            let data = (0..m * n).map(|_| self.next()).collect();
            Matrix::from_vec(m, n, data).unwrap()
        }
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// `u`, `sigma`, `v` and a seeded `solve(b)` must match the row-major
    /// reference bit for bit.
    fn assert_matches_reference(a: &Matrix, seed: u64) {
        let (m, n) = (a.rows(), a.cols());
        let got = Svd::new(a).unwrap();
        let want = row_major_reference(a).unwrap();
        assert_eq!(bits(&got.sigma), bits(&want.sigma), "sigma {m}x{n}");
        assert_eq!(bits(got.u.as_slice()), bits(want.u.as_slice()), "u {m}x{n}");
        assert_eq!(bits(got.v.as_slice()), bits(want.v.as_slice()), "v {m}x{n}");
        let mut rng = Lcg(seed);
        let b: Vec<f64> = (0..m).map(|_| rng.next()).collect();
        assert_eq!(
            bits(&got.solve(&b).unwrap()),
            bits(&want.solve(&b).unwrap()),
            "solve {m}x{n}"
        );
    }

    #[test]
    fn matches_reference_on_single_column_and_square() {
        let mut rng = Lcg(11);
        for seed in 0..4 {
            assert_matches_reference(&rng.matrix(9, 1), seed);
            assert_matches_reference(&rng.matrix(1, 1), seed);
            assert_matches_reference(&rng.matrix(7, 7), seed);
            assert_matches_reference(&rng.matrix(16, 16), seed);
        }
    }

    #[test]
    fn matches_reference_on_duplicated_and_zero_columns() {
        let mut rng = Lcg(23);
        for seed in 0..4 {
            let (m, n) = (40, 8);
            let base = rng.matrix(m, n);
            let mut a = base.clone();
            for i in 0..m {
                // Column 3 repeats column 1, column 6 repeats column 2 up to
                // a sign, and column 5 is all zeros: the `dead` path.
                a[(i, 3)] = base[(i, 1)];
                a[(i, 6)] = -base[(i, 2)];
                a[(i, 5)] = 0.0;
            }
            assert_matches_reference(&a, seed);
            assert!(Svd::new(&a).unwrap().rank() <= n - 3);
        }
        // All-zero matrix: every column is dead from the start.
        assert_matches_reference(&Matrix::zeros(5, 3), 0);
    }

    #[test]
    fn matches_reference_on_entries_spanning_300_decades() {
        let mut rng = Lcg(37);
        for seed in 0..4 {
            let (m, n) = (24, 6);
            let mut a = rng.matrix(m, n);
            for i in 0..m {
                for j in 0..n {
                    // Exponent uniform in [-150, 150].
                    let e = (rng.next() * 150.0).round() as i32;
                    a[(i, j)] *= 10f64.powi(e);
                }
            }
            assert_matches_reference(&a, seed);
        }
    }

    #[test]
    fn matches_reference_on_anfis_shapes() {
        // The consequent least-squares design matrices of the two pen FIS
        // builds: rows are training samples, columns rule-weighted inputs.
        let mut rng = Lcg(41);
        for (m, n) in [(487, 30), (812, 12)] {
            let mut a = rng.matrix(m, n);
            // Near-collinear columns, as normalized rule activations give.
            for i in 0..m {
                a[(i, n - 1)] = a[(i, 0)] + 1e-9 * a[(i, n - 1)];
            }
            assert_matches_reference(&a, m as u64);
        }
    }

    fn assert_close(a: f64, b: f64, tol: f64) {
        assert!((a - b).abs() < tol, "{a} vs {b}");
    }

    #[test]
    fn diagonal_matrix_svd() {
        let a = Matrix::from_rows(&[&[3.0, 0.0], &[0.0, -2.0], &[0.0, 0.0]]);
        let svd = Svd::new(&a).unwrap();
        assert_close(svd.sigma[0], 3.0, 1e-12);
        assert_close(svd.sigma[1], 2.0, 1e-12);
        let r = svd.reconstruct();
        for i in 0..3 {
            for j in 0..2 {
                assert_close(r[(i, j)], a[(i, j)], 1e-10);
            }
        }
    }

    #[test]
    fn singular_values_ordered_descending() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0], &[7.0, 8.0, 10.0]]);
        let svd = Svd::new(&a).unwrap();
        assert!(svd.sigma[0] >= svd.sigma[1]);
        assert!(svd.sigma[1] >= svd.sigma[2]);
    }

    #[test]
    fn u_columns_orthonormal() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0], &[5.0, 6.0], &[7.0, 9.0]]);
        let svd = Svd::new(&a).unwrap();
        for p in 0..2 {
            for q in 0..2 {
                let g: f64 = (0..4).map(|i| svd.u[(i, p)] * svd.u[(i, q)]).sum();
                assert_close(g, if p == q { 1.0 } else { 0.0 }, 1e-10);
            }
        }
    }

    #[test]
    fn v_orthogonal() {
        let a = Matrix::from_rows(&[&[2.0, 1.0], &[1.0, 3.0], &[0.0, 1.0]]);
        let svd = Svd::new(&a).unwrap();
        let vtv = svd.v.transpose().matmul(&svd.v).unwrap();
        for i in 0..2 {
            for j in 0..2 {
                assert_close(vtv[(i, j)], if i == j { 1.0 } else { 0.0 }, 1e-10);
            }
        }
    }

    #[test]
    fn rank_detects_deficiency() {
        // Second column is twice the first: rank 1.
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 4.0], &[3.0, 6.0]]);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(), 1);
        assert!(svd.condition_number().is_infinite() || svd.condition_number() > 1e12);
    }

    #[test]
    fn full_rank_condition() {
        let a = Matrix::identity(3);
        let svd = Svd::new(&a).unwrap();
        assert_eq!(svd.rank(), 3);
        assert_close(svd.condition_number(), 1.0, 1e-12);
    }

    #[test]
    fn solve_exact_system() {
        let a = Matrix::from_rows(&[&[2.0, 0.0], &[0.0, 4.0]]);
        let svd = Svd::new(&a).unwrap();
        let x = svd.solve(&[2.0, 8.0]).unwrap();
        assert_close(x[0], 1.0, 1e-12);
        assert_close(x[1], 2.0, 1e-12);
    }

    #[test]
    fn solve_overdetermined_regression() {
        // y = 2x + 1 with exact data.
        let a = Matrix::from_rows(&[&[0.0, 1.0], &[1.0, 1.0], &[2.0, 1.0], &[3.0, 1.0]]);
        let y = [1.0, 3.0, 5.0, 7.0];
        let svd = Svd::new(&a).unwrap();
        let x = svd.solve(&y).unwrap();
        assert_close(x[0], 2.0, 1e-10);
        assert_close(x[1], 1.0, 1e-10);
    }

    #[test]
    fn solve_rank_deficient_gives_min_norm() {
        // Columns identical: any (x0, x1) with x0 + x1 = 1 fits A x = b where
        // b = column. Minimum-norm solution is (0.5, 0.5).
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]);
        let svd = Svd::new(&a).unwrap();
        let x = svd.solve(&[1.0, 2.0, 3.0]).unwrap();
        assert_close(x[0], 0.5, 1e-10);
        assert_close(x[1], 0.5, 1e-10);
    }

    #[test]
    fn solve_rhs_length_checked() {
        let a = Matrix::identity(2);
        let svd = Svd::new(&a).unwrap();
        assert!(svd.solve(&[1.0]).is_err());
    }

    #[test]
    fn wide_matrix_rejected() {
        let a = Matrix::zeros(2, 3);
        let want = MathError::DimensionMismatch {
            context: "svd requires rows >= cols",
            expected: 3,
            actual: 2,
        };
        assert_eq!(Svd::new(&a).unwrap_err(), want);
        assert_eq!(row_major_reference(&a).unwrap_err(), want);
    }

    #[test]
    fn random_reconstruction_accuracy() {
        // Deterministic pseudo-random fill — avoids dev-dependency use
        // inside the unit test while still covering a "generic" matrix.
        let (m, n) = (12, 5);
        let a = Lcg(0x2545F4914F6CDD1D).matrix(m, n);
        let svd = Svd::new(&a).unwrap();
        let r = svd.reconstruct();
        for i in 0..m {
            for j in 0..n {
                assert_close(r[(i, j)], a[(i, j)], 1e-9);
            }
        }
    }
}
